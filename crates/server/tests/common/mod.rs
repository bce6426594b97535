//! Shared harness: a front-end (`run_tcp` daemon or `run_router`) running
//! in-process on an ephemeral port, torn down by `stop()`.
#![allow(dead_code)] // each test target uses its own subset

use soi_graph::{gen, ProbGraph};
use soi_server::{EngineConfig, RouterConfig, ServeConfig, ServerEngine};
use std::io::Write;
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

/// `out` writer that forwards the `listening on HOST:PORT` announcement
/// through a channel so the test learns the ephemeral port. Buffers
/// until the newline: `write_fmt` may deliver the line in fragments.
struct Announce {
    buf: String,
    tx: mpsc::Sender<u16>,
}

impl Write for Announce {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.buf.push_str(&String::from_utf8_lossy(buf));
        if self.buf.contains('\n') {
            if let Some(port) = self
                .buf
                .trim()
                .rsplit(':')
                .next()
                .and_then(|p| p.parse::<u16>().ok())
            {
                let _ = self.tx.send(port);
            }
            self.buf.clear();
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A front-end running on its own thread.
pub struct FrontEnd {
    pub port: u16,
    pub thread: JoinHandle<()>,
    /// Fires when the front-end's `run_*` call returns.
    done: mpsc::Receiver<()>,
}

impl FrontEnd {
    #[expect(
        clippy::disallowed_methods,
        reason = "the front-end's thread; `stop` joins it"
    )]
    fn start(run: impl FnOnce(&mut Announce) + Send + 'static) -> FrontEnd {
        let (tx, rx) = mpsc::channel();
        let (done_tx, done) = mpsc::channel();
        let thread = std::thread::spawn(move || {
            let buf = String::new();
            run(&mut Announce { buf, tx });
            let _ = done_tx.send(());
        });
        let port = rx.recv().expect("port announcement");
        FrontEnd { port, thread, done }
    }

    /// A daemon serving graph `g` (a certain 30-node path, 8 worlds).
    pub fn daemon(config: ServeConfig) -> FrontEnd {
        let pg = ProbGraph::fixed(gen::path(30), 1.0).expect("graph");
        let mut engine = ServerEngine::new(EngineConfig {
            num_worlds: 8,
            seed: 5,
            ..EngineConfig::default()
        });
        engine.add_graph("g", pg);
        let engine = Arc::new(engine);
        FrontEnd::start(move |out| {
            soi_server::run_tcp(engine, &config, out).expect("daemon run");
        })
    }

    pub fn router(config: RouterConfig) -> FrontEnd {
        FrontEnd::start(move |out| soi_server::run_router(&config, out).expect("router run"))
    }

    pub fn send(&self, line: &str) -> String {
        soi_server::send_one("127.0.0.1", self.port, line).expect("round trip")
    }

    pub fn stop(self) {
        self.stop_within(Duration::from_secs(60));
    }

    /// Sends `shutdown` and waits at most `bound` for the front-end to
    /// drain and return.
    pub fn stop_within(self, bound: Duration) {
        let resp = self.send(r#"{"v":1,"id":999,"type":"shutdown"}"#);
        assert!(resp.contains("\"draining\":true"), "{resp}");
        self.done
            .recv_timeout(bound)
            .unwrap_or_else(|_| panic!("front-end did not drain within {bound:?}"));
        self.thread.join().expect("front-end thread");
    }
}
