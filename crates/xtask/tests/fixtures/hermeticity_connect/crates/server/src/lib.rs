//! Fixture: a client socket opened outside `wire.rs`, where nothing
//! configures it.

use std::net::TcpStream;

/// Dials the daemon by hand.
pub fn dial(port: u16) -> std::io::Result<TcpStream> {
    TcpStream::connect(("127.0.0.1", port))
}

#[cfg(test)]
mod tests {
    #[test]
    fn present() {
        assert!(true);
    }
}
