//! Fixture: a cataloged metric whose listed reader never names it.

pub fn work() {
    soi_obs::counter("fixture.documented").add(1);
    soi_obs::counter("fixture.unread").add(1);
}

#[cfg(test)]
mod tests {
    #[test]
    fn present() {
        assert!(true);
    }
}
