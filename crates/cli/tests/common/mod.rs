//! Shared harness for the subprocess suites: the `soi` binary with a
//! clean failpoint environment, scratch directories, generated graphs,
//! CI artifacts, the chaos suites' request batch, and [`Proc`] — a
//! spawned `soi serve` / `soi route` that announced its port, killed if
//! its test ends without shutting it down.
#![allow(dead_code)] // each test target uses its own subset

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};

/// The binary under test. Stray failpoints are never inherited from the
/// environment; tests arm them per child.
pub fn soi() -> Command {
    let mut c = Command::new(env!("CARGO_BIN_EXE_soi"));
    c.env_remove(soi_util::failpoint::ENV_VAR);
    c
}

/// An empty scratch directory unique to this test process and `tag`.
pub fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("soi-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `soi generate ARGS --out DIR/FILE` and returns the path.
pub fn generate(dir: &Path, file: &str, args: &[&str]) -> String {
    let g = dir.join(file).to_string_lossy().into_owned();
    let out = soi()
        .arg("generate")
        .args(args)
        .args(["--out", &g])
        .output()
        .expect("spawn soi generate");
    assert!(
        out.status.success(),
        "generate failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    g
}

/// The serving suites' graph `net.tsv`: G(n, 4n) under weighted cascade.
pub fn make_graph(dir: &Path, nodes: usize) -> String {
    let (nodes, edges) = (nodes.to_string(), (nodes * 4).to_string());
    generate(
        dir,
        "net.tsv",
        &[
            "--model", "gnm", "--nodes", &nodes, "--edges", &edges, "--prob", "wc", "--seed", "11",
        ],
    )
}

/// The stdout of a child that must have succeeded.
pub fn stdout_str(out: &Output) -> String {
    assert!(
        out.status.success(),
        "query failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// `target/NAME`, where CI picks up transcripts, reports and replays.
pub fn artifacts_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../target")
        .join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

pub fn save_artifact(name: &str, contents: &str) {
    std::fs::write(artifacts_dir("chaos-artifacts").join(name), contents).unwrap();
}

/// A deterministic mixed batch of `n` compute/control requests against
/// graph `net`, ids 1..=n. Behind a router the controls answer at the
/// router and the computes relay to the shard owning `net`.
pub fn batch(n: u64) -> String {
    let mut reqs = String::new();
    for id in 1..=n {
        let body = match id % 3 {
            0 => "\"type\":\"health\"".to_string(),
            1 => format!(
                "\"type\":\"typical-cascade\",\"graph\":\"net\",\"source\":{}",
                id % 16
            ),
            _ => format!(
                "\"type\":\"spread-estimate\",\"graph\":\"net\",\"seeds\":[{}],\
                 \"samples\":16,\"seed\":7",
                id % 16
            ),
        };
        reqs.push_str(&format!("{{\"v\":1,\"id\":{id},{body}}}\n"));
    }
    reqs
}

pub fn write_batch(dir: &Path, n: u64) -> String {
    let reqs_file = dir.join("reqs.jsonl").to_string_lossy().into_owned();
    std::fs::write(&reqs_file, batch(n)).unwrap();
    reqs_file
}

/// Ids 1..=n each answered exactly once, in request order.
pub fn assert_all_answered(text: &str, n: u64) {
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), n as usize, "one response per request:\n{text}");
    for (i, line) in lines.iter().enumerate() {
        assert!(
            line.contains(&format!("\"id\":{}", i + 1)),
            "response {i} out of order: {line}"
        );
    }
}

/// One spawned `soi serve` or `soi route` process plus the port it
/// announced on stdout. [`Proc::shutdown`] is the graceful end; a
/// process still running when its `Proc` drops (a failed assertion
/// unwound past the shutdown) is killed and reaped.
pub struct Proc {
    pub child: Child,
    pub port: String,
}

impl Drop for Proc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

impl Proc {
    /// Spawns `cmd` and waits for its `listening on HOST:PORT` line.
    fn announce(mut cmd: Command, what: &str) -> Proc {
        let mut child = cmd
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .unwrap_or_else(|e| panic!("spawn {what}: {e}"));
        let stdout = child.stdout.take().expect("child stdout");
        let announce = BufReader::new(stdout)
            .lines()
            .next()
            .unwrap_or_else(|| panic!("{what} announced nothing"))
            .expect("read announce line");
        let port = announce
            .rsplit(':')
            .next()
            .unwrap_or_default()
            .trim()
            .to_string();
        assert!(
            announce.starts_with("listening on") && !port.is_empty(),
            "bad {what} announce line: {announce:?}"
        );
        Proc { child, port }
    }

    /// Spawns `soi serve GRAPH_SPEC EXTRA...`.
    pub fn spawn(graph_spec: &str, extra: &[&str]) -> Proc {
        let mut cmd = soi();
        cmd.arg("serve").arg(graph_spec).args(extra);
        Proc::announce(cmd, "daemon")
    }

    /// Spawns the chaos suites' daemon: `graph` served as `net` over 16
    /// worlds, optionally with failpoints armed.
    pub fn serve(graph: &str, extra: &[&str], failpoints: Option<&str>) -> Proc {
        let mut cmd = soi();
        cmd.arg("serve")
            .arg(format!("net={graph}"))
            .args(["--worlds", "16"])
            .args(extra);
        if let Some(spec) = failpoints {
            cmd.env(soi_util::failpoint::ENV_VAR, spec);
        }
        Proc::announce(cmd, "shard daemon")
    }

    /// Spawns the router over `shards` (each entry one shard's
    /// comma-joined replica list).
    pub fn route(shards: &[String]) -> Proc {
        Proc::route_with(shards, &[], None)
    }

    /// Spawns the router with extra flags (e.g. `--overrides-file`),
    /// optionally with failpoints armed.
    pub fn route_with(shards: &[String], extra: &[&str], failpoints: Option<&str>) -> Proc {
        let mut cmd = soi();
        cmd.arg("route")
            .args(shards)
            .args(["--backoff-ticks", "0"])
            .args(extra);
        if let Some(spec) = failpoints {
            cmd.env(soi_util::failpoint::ENV_VAR, spec);
        }
        Proc::announce(cmd, "router")
    }

    pub fn addr(&self) -> String {
        format!("127.0.0.1:{}", self.port)
    }

    /// Runs one `soi query` batch against this process.
    pub fn query(&self, args: &[&str]) -> Output {
        soi()
            .arg("query")
            .args(["--port", &self.port])
            .args(args)
            .output()
            .expect("spawn soi query")
    }

    pub fn query_one(&self, request: &str) -> Output {
        self.query(&[request])
    }

    /// Runs a request file through `soi query` with retries enabled. The
    /// failpoint variable is never inherited: faults live server-side.
    pub fn query_batch(&self, reqs_file: &str, retries: &str) -> Output {
        self.query(&[
            "--file",
            reqs_file,
            "--retries",
            retries,
            "--backoff-ticks",
            "0",
            "--concurrency",
            "1",
            "--mask-wall",
        ])
    }

    /// Runs the `soi stats` client against this process with wall-clock
    /// masking, so every asserted fragment is deterministic.
    pub fn stats_with(&self, extra: &[&str]) -> Output {
        soi()
            .arg("stats")
            .args(["--port", &self.port, "--mask-wall"])
            .args(extra)
            .output()
            .expect("spawn soi stats")
    }

    /// One masked `soi stats` snapshot.
    pub fn stats(&self) -> String {
        stdout_str(&self.stats_with(&["--watch", "1"]))
    }

    /// Pins `net` onto `shard` so the tests know which daemons own the
    /// batch traffic (placement is deterministic but opaque).
    pub fn rebalance_net_to(&self, shard: usize) {
        let req = format!(
            "{{\"v\":1,\"id\":900,\"type\":\"rebalance\",\"graph\":\"net\",\"shard\":{shard}}}"
        );
        let out = stdout_str(&self.query_one(&req));
        assert!(
            out.contains("\"rebalanced\":\"net\"") && out.contains(&format!("\"shard\":{shard}")),
            "rebalance not acknowledged: {out}"
        );
    }

    /// Sends `shutdown`, waits for the drain, asserts exit 0.
    pub fn shutdown(mut self) {
        let out = self.query_one("{\"v\":1,\"id\":9999,\"type\":\"shutdown\"}");
        assert!(
            String::from_utf8_lossy(&out.stdout).contains("\"draining\":true"),
            "shutdown not acknowledged"
        );
        let status = self.child.wait().expect("wait for process");
        assert_eq!(status.code(), Some(0), "exit code after drain");
    }
}
