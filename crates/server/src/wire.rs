//! Newline-framed connections: everything about moving lines, nothing
//! about what a line means.
//!
//! Both front doors (`soi serve`, `soi route`), the stdio lane and every
//! client leg speak one request line → one response line. This module
//! owns that framing once: the capped line reader and the single
//! [`write_line`]; the connection loop [`serve_conn`], whose [`ConnEnd`]
//! tells the caller how the peer left; the TCP [`Listener`] (bind,
//! announce, accept until [`Stop`] is requested, drain, join); and the
//! client-side [`Conn`]. A front-end is a closure from line to answer.
//! Nothing here knows which front-end is calling: counters, failpoints
//! and shutdown policy live in the closures.

use crate::protocol;
use soi_util::{ProtoErrorKind, SoiError};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One read from the capped line reader.
enum LineRead {
    /// A complete line (newline stripped).
    Line(String),
    /// A line that cannot become a request, as the typed error to answer
    /// it with: longer than the cap (its remainder was discarded), or not
    /// valid UTF-8 (discarded whole rather than lossily decoded —
    /// replacement characters would let a corrupted request masquerade as
    /// a different well-formed one).
    Unframeable(SoiError),
    /// End of stream; `mid_line` when data arrived without a final
    /// newline (a client that died mid-request).
    Eof {
        /// Whether the stream ended inside an unterminated line.
        mid_line: bool,
    },
}

/// Reads one newline-terminated line of at most `max_line` bytes.
fn read_line_capped<R: BufRead>(r: &mut R, max_line: usize) -> io::Result<LineRead> {
    let mut buf: Vec<u8> = Vec::new();
    let mut oversized = false;
    loop {
        let chunk = r.fill_buf()?;
        if chunk.is_empty() {
            return Ok(LineRead::Eof {
                mid_line: !buf.is_empty() || oversized,
            });
        }
        let newline = chunk.iter().position(|&b| b == b'\n');
        let take = newline.map_or(chunk.len(), |at| at + 1);
        if !oversized {
            buf.extend_from_slice(&chunk[..take]);
            if buf.len() > max_line + 1 {
                oversized = true;
                buf.clear();
            }
        }
        r.consume(take);
        if newline.is_some() {
            if oversized {
                return Ok(LineRead::Unframeable(SoiError::protocol(
                    ProtoErrorKind::OversizedLine,
                    format!("request line exceeds {max_line} bytes"),
                )));
            }
            while buf.last() == Some(&b'\n') || buf.last() == Some(&b'\r') {
                buf.pop();
            }
            return Ok(match String::from_utf8(buf) {
                Ok(line) => LineRead::Line(line),
                Err(_) => LineRead::Unframeable(SoiError::protocol(
                    ProtoErrorKind::MalformedJson,
                    "request line is not valid UTF-8",
                )),
            });
        }
    }
}

/// Writes one line and flushes it. Every response, relayed request and
/// client request on a socket goes through here. Line and newline leave
/// in one `write`: split in two, the second waits in Nagle's buffer for
/// the peer's delayed ACK of the first.
pub(crate) fn write_line<W: Write>(w: &mut W, line: &str) -> io::Result<()> {
    w.write_all(format!("{line}\n").as_bytes())
        .and_then(|()| w.flush())
}

/// What [`serve_conn`] does after writing an answer.
pub(crate) enum Step {
    /// Read the next line.
    Continue,
    /// Leave the loop ([`ConnEnd::Stopped`]).
    Stop,
}

/// How a [`serve_conn`] loop ended.
pub(crate) enum ConnEnd {
    /// The peer closed between lines.
    Eof,
    /// The stream ended inside an unterminated line (the peer died
    /// mid-request); the fragment is not served.
    MidLine,
    /// Reading the next line failed.
    ReadFailed(io::Error),
    /// Writing an answer failed: the peer is gone.
    WriteFailed,
    /// `respond` returned [`Step::Stop`].
    Stopped,
}

/// Serves one newline-framed connection until the peer leaves or
/// `respond` stops it. Blank lines are skipped unanswered; an
/// unframeable line is answered with its typed error here and never
/// reaches `respond`; every other line is answered with whatever
/// `respond` returns.
pub(crate) fn serve_conn<R: BufRead, W: Write>(
    reader: &mut R,
    writer: &mut W,
    max_line: usize,
    mut respond: impl FnMut(&str) -> (String, Step),
) -> ConnEnd {
    loop {
        let (response, step) = match read_line_capped(reader, max_line) {
            Err(err) => return ConnEnd::ReadFailed(err),
            Ok(LineRead::Eof { mid_line: false }) => return ConnEnd::Eof,
            Ok(LineRead::Eof { mid_line: true }) => return ConnEnd::MidLine,
            Ok(LineRead::Unframeable(err)) => (protocol::encode_error(None, &err), Step::Continue),
            Ok(LineRead::Line(line)) if line.trim().is_empty() => continue,
            Ok(LineRead::Line(line)) => respond(&line),
        };
        if write_line(writer, &response).is_err() {
            return ConnEnd::WriteFailed;
        }
        if let Step::Stop = step {
            return ConnEnd::Stopped;
        }
    }
}

/// The stop signal of one [`Listener`]: any connection may request it,
/// the accept loop (and whoever else holds a clone) observes it.
pub(crate) struct Stop {
    flag: AtomicBool,
    /// The listener's bound address.
    pub(crate) addr: SocketAddr,
}

impl Stop {
    /// Asks the listener to stop accepting and drain.
    pub(crate) fn request(&self) {
        // ordering: SeqCst on a once-per-process control flag — the flag
        // is the whole payload and the path is cold, so clarity wins
        // over saved cycles.
        self.flag.store(true, Ordering::SeqCst);
        // Unblock the accept loop so it observes the flag.
        let _ = TcpStream::connect(self.addr);
    }

    /// Whether a stop was requested.
    pub(crate) fn requested(&self) -> bool {
        // ordering: SeqCst pairs with the store in `request`; one load
        // per accepted connection or probe period is not a hot path.
        self.flag.load(Ordering::SeqCst)
    }
}

/// Shuts the socket down when the connection thread exits — including
/// by unwinding (an armed `*.response.write` panic failpoint). The
/// accept loop keeps its own clone of every stream for drain, so merely
/// dropping this thread's handles would leave the underlying socket
/// open and the client blocked forever on a response that will never
/// come; `shutdown(Both)` reaches the socket itself, past every clone.
struct ConnGuard(TcpStream);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        let _ = self.0.shutdown(Shutdown::Both);
    }
}

/// A loop-back TCP listener serving one thread per connection until its
/// [`Stop`] is requested.
pub(crate) struct Listener {
    inner: TcpListener,
    /// The stop signal, for connection closures and background threads.
    pub(crate) stop: Arc<Stop>,
}

impl Listener {
    /// Binds `127.0.0.1:port` (0 = ephemeral).
    pub(crate) fn bind(port: u16) -> Result<Listener, SoiError> {
        let inner = TcpListener::bind(("127.0.0.1", port))
            .map_err(|e| SoiError::io("bind 127.0.0.1", e))?;
        let addr = inner
            .local_addr()
            .map_err(|e| SoiError::io("local_addr", e))?;
        let flag = AtomicBool::new(false);
        let stop = Arc::new(Stop { flag, addr });
        Ok(Listener { inner, stop })
    }

    /// Announces the bound address on `out` as `listening on HOST:PORT`.
    pub(crate) fn announce<W: Write>(&self, out: &mut W) -> Result<(), SoiError> {
        write_line(out, &format!("listening on {}", self.stop.addr))
            .map_err(|e| SoiError::io("stdout", e))
    }

    /// Accepts until [`Stop::request`], running `conn` on a fresh thread
    /// per connection with that connection's buffered read half and its
    /// write half. Then the graceful drain: `drain` runs first (finish
    /// whatever still owes responses), the read side of every connection
    /// is shut down so idle readers observe EOF, and all connection
    /// threads are joined.
    pub(crate) fn serve(
        self,
        conn: impl Fn(BufReader<TcpStream>, TcpStream) + Send + Sync + 'static,
        drain: impl FnOnce(),
    ) {
        let conn = Arc::new(conn);
        let mut open: Vec<TcpStream> = Vec::new();
        let mut threads = Vec::new();
        for stream in self.inner.incoming() {
            if self.stop.requested() {
                break;
            }
            let Ok(stream) = stream else {
                continue;
            };
            // One line is one exchange: nothing follows for Nagle to
            // coalesce it with.
            let _ = stream.set_nodelay(true);
            if let Ok(clone) = stream.try_clone() {
                open.push(clone);
            }
            let conn = Arc::clone(&conn);
            #[expect(
                clippy::disallowed_methods,
                reason = "one thread per connection, joined after the drain below; \
                          `ConnGuard` closes the socket if it unwinds"
            )]
            threads.push(std::thread::spawn(move || {
                let (Ok(writer), Ok(guard)) = (stream.try_clone(), stream.try_clone()) else {
                    return;
                };
                let _guard = ConnGuard(guard);
                conn(BufReader::new(stream), writer);
            }));
        }
        drop(self.inner);
        drain();
        for stream in &open {
            let _ = stream.shutdown(Shutdown::Read);
        }
        for thread in threads {
            let _ = thread.join();
        }
    }
}

/// The client end of a newline-framed connection: one stream, one
/// request in flight.
pub(crate) struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// Connects to `addr`; with `read_timeout`, a response that takes
    /// longer fails [`Self::exchange`] with a timeout error.
    pub(crate) fn connect(
        addr: impl ToSocketAddrs,
        read_timeout: Option<Duration>,
    ) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        if read_timeout.is_some() {
            stream.set_read_timeout(read_timeout)?;
        }
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn { stream, reader })
    }

    /// Sends one request line and returns the peer's response line
    /// (line ending stripped). A peer that closes before sending a byte
    /// is an error, not an empty answer.
    pub(crate) fn exchange(&mut self, line: &str) -> io::Result<String> {
        write_line(&mut self.stream, line)?;
        let mut response = String::new();
        if self.reader.read_line(&mut response)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        response.truncate(response.trim_end().len());
        Ok(response)
    }

    /// Sends `payload` whole, half-closes the write side, and returns
    /// every line the peer answers until it closes the connection.
    pub(crate) fn stream(mut self, payload: &[u8]) -> io::Result<Vec<String>> {
        self.stream.write_all(payload)?;
        self.stream.shutdown(Shutdown::Write)?;
        self.reader.lines().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capped_reader_classifies_eof() {
        let mut r = BufReader::new(&b"whole line\npartial"[..]);
        assert!(matches!(
            read_line_capped(&mut r, 64).expect("read"),
            LineRead::Line(l) if l == "whole line"
        ));
        assert!(matches!(
            read_line_capped(&mut r, 64).expect("read"),
            LineRead::Eof { mid_line: true }
        ));
        assert!(matches!(
            read_line_capped(&mut r, 64).expect("read"),
            LineRead::Eof { mid_line: false }
        ));
    }

    #[test]
    fn write_line_is_one_write() {
        /// Records every `write` call it receives.
        struct Calls(Vec<Vec<u8>>);
        impl Write for Calls {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.push(buf.to_vec());
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut w = Calls(Vec::new());
        write_line(&mut w, r#"{"v":1,"id":7}"#).expect("write");
        assert_eq!(w.0, [b"{\"v\":1,\"id\":7}\n".to_vec()]);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the listener, joined before the test ends"
    )]
    fn both_ends_of_a_connection_disable_nagle() {
        let listener = Listener::bind(0).expect("bind");
        let stop = Arc::clone(&listener.stop);
        let (tx, rx) = std::sync::mpsc::channel();
        let server = std::thread::spawn(move || {
            listener.serve(
                move |_reader, writer| {
                    let _ = tx.send(writer.nodelay());
                },
                || {},
            );
        });
        let conn = Conn::connect(stop.addr, None).expect("connect");
        assert!(conn.stream.nodelay().expect("client option"));
        assert!(rx.recv().expect("accepted").expect("server option"));
        stop.request();
        server.join().expect("listener thread");
    }
}
