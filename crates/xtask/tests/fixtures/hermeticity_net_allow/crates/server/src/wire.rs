//! Fixture: `wire.rs` is where the serving crate opens client sockets.

use std::net::TcpStream;

/// Connects with Nagle's algorithm off.
pub fn connect(port: u16) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(("127.0.0.1", port))?;
    stream.set_nodelay(true)?;
    Ok(stream)
}
