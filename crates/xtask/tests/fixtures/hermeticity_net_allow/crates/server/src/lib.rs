//! Fixture: the serving crate is the sanctioned network boundary.

pub mod wire;

use std::net::TcpListener;

/// Binds an ephemeral loop-back listener.
pub fn bind_any() -> std::io::Result<TcpListener> {
    TcpListener::bind(("127.0.0.1", 0))
}

#[cfg(test)]
mod tests {
    #[test]
    fn present() {
        assert!(true);
    }
}
