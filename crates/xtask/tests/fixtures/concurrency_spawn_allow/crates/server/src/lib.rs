//! Fixture: the serving crate's worker pool is a sanctioned spawn site.

pub mod worker;

#[cfg(test)]
mod tests {
    #[test]
    fn present() {
        assert!(true);
    }
}
