//! The real `soi` binary as child processes: timed one-shot runs with
//! `/proc` sampling, and the serving fabric (shard daemons behind a
//! router) with guaranteed teardown.
//!
//! Everything a child reads or writes lives under the output directory;
//! listeners bind ephemeral ports parsed from the `listening on` line.

use crate::spec::{Res, Workload, CACHE_CAP, DAEMON_THREADS, DAEMON_WORKERS, SHARDS};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, 100 on
/// every Linux ABI Rust targets; std offers no `sysconf`).
const CLOCK_TICKS_PER_S: f64 = 100.0;
/// `/proc` polling period while a timed child runs.
const POLL: Duration = Duration::from_millis(5);
/// A timed child still running after this long is killed: no operation of
/// any workload takes a tenth of it, and a run may not outlast 180 s.
const CHILD_LIMIT: Duration = Duration::from_secs(150);

/// Where the binary is and where files may go.
#[derive(Clone, Debug)]
pub struct Env {
    /// Path of the release `soi` binary.
    pub soi: PathBuf,
    /// Directory for inputs, child stdout captures and traces.
    pub out_dir: PathBuf,
}

/// Peak resident set (`VmHWM`, MB) and CPU seconds (user + system) of a
/// live process, or `None` once it is gone.
pub fn proc_sample(pid: u32) -> Option<(f64, f64)> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let hwm_kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, 12 and 13 after the `)`.
    let after = stat.rsplit_once(')')?.1;
    let mut fields = after.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((hwm_kb / 1024.0, (utime + stime) / CLOCK_TICKS_PER_S))
}

/// `(steal, total)` CPU ticks of the whole host since boot, from the first
/// line of `/proc/stat`. Steal is time a hypervisor gave to someone else:
/// the one number that tells a slow run on a shared host from a slow
/// program.
pub fn host_cpu_ticks() -> Option<(f64, f64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<f64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // the guest columns are already inside user and nice.
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// One finished `soi` process.
#[derive(Clone, Debug)]
pub struct ProcRun {
    /// Spawn-to-exit wall time in seconds.
    pub wall_s: f64,
    /// Everything the process printed on stdout.
    pub stdout: String,
    /// Whether it exited with code 0.
    pub ok: bool,
    /// Last `VmHWM` sample in MB (0 if the process outran the first poll).
    pub rss_mb: f64,
    /// Last CPU-seconds sample.
    pub cpu_s: f64,
}

/// Runs `soi <args>` to completion, sampling `/proc` every [`POLL`].
/// Stdout goes to a file under the output directory so a large answer
/// can never fill a pipe and stall the child.
pub fn run_soi(env: &Env, args: &[String], capture: &str) -> Res<ProcRun> {
    let path = env.out_dir.join(capture);
    let file = create_fresh(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let started = Instant::now();
    let mut child = Command::new(&env.soi)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::from(file))
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", env.soi.display()))?;
    let (mut rss_mb, mut cpu_s) = (0.0, 0.0);
    let status = loop {
        if let Some((rss, cpu)) = proc_sample(child.id()) {
            (rss_mb, cpu_s) = (rss, cpu);
        }
        let failure = match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if started.elapsed() < CHILD_LIMIT => {
                std::thread::sleep(POLL);
                continue;
            }
            Ok(None) => format!("soi {} still running after {CHILD_LIMIT:?}", args[0]),
            Err(e) => format!("wait for soi: {e}"),
        };
        let _ = child.kill();
        let _ = child.wait();
        return Err(failure);
    };
    let wall_s = started.elapsed().as_secs_f64();
    let stdout = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(ProcRun {
        wall_s,
        stdout,
        ok: status.success(),
        rss_mb,
        cpu_s,
    })
}

/// The `seeds` line of `soi infmax` output, parsed.
pub fn parse_seeds(stdout: &str) -> Res<Vec<u32>> {
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix("seeds\t"))
        .ok_or("no `seeds` line in soi infmax output")?;
    line.split(',')
        .map(|s| {
            s.trim()
                .parse::<u32>()
                .map_err(|e| format!("seed {s:?}: {e}"))
        })
        .collect()
}

/// One line-protocol connection. Requests are answered in order, so a
/// closed-loop caller writes one line and reads one line.
pub struct Conn {
    // The benchmark measures the daemon as a client sees it, over a real
    // loop-back socket. xtask-allow: hermeticity
    reader: BufReader<std::net::TcpStream>,
}

impl Conn {
    /// Connects to `127.0.0.1:port`.
    pub fn open(port: u16) -> Res<Conn> {
        // Client side of the measured socket. xtask-allow: hermeticity
        let stream = std::net::TcpStream::connect(("127.0.0.1", port))
            .map_err(|e| format!("connect 127.0.0.1:{port}: {e}"))?;
        // A well-behaved client: its one-line requests leave at once. The
        // server side of the socket is the program's own business.
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(Duration::from_secs(120))))
            .map_err(|e| format!("socket options: {e}"))?;
        Ok(Conn {
            reader: BufReader::new(stream),
        })
    }

    /// Sends one request line and returns the response line (trimmed).
    pub fn ask(&mut self, line: &str) -> Res<String> {
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        self.reader
            .get_mut()
            .write_all(framed.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut response = String::new();
        let n = self
            .reader
            .read_line(&mut response)
            .map_err(|e| format!("receive: {e}"))?;
        if n == 0 {
            return Err("connection closed before the response".to_string());
        }
        Ok(response.trim_end().to_string())
    }
}

/// Whether `response` is the success answer to request `id`.
pub fn is_ok_for(response: &str, id: u64) -> bool {
    response.starts_with(&format!("{{\"v\":1,\"id\":{id},\"status\":\"ok\""))
}

/// A spawned listener (`soi serve` or `soi route`) and its port.
struct Listener {
    child: Child,
    port: u16,
    /// Kept open so the daemon never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Listener {
    fn spawn(env: &Env, args: &[String]) -> Res<Listener> {
        let mut child = Command::new(&env.soi)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", env.soi.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().ok_or("child stdout not piped")?);
        let mut line = String::new();
        let port = match stdout.read_line(&mut line) {
            Ok(n) if n > 0 => line
                .trim()
                .strip_prefix("listening on ")
                .and_then(|addr| addr.rsplit_once(':'))
                .and_then(|(_, port)| port.parse::<u16>().ok()),
            _ => None,
        };
        let Some(port) = port else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("soi {} did not announce a port: {line:?}", args[0]));
        };
        Ok(Listener {
            child,
            port,
            _stdout: stdout,
        })
    }
}

/// `shutdown` request, a bounded wait, then kill: the process is never
/// left behind — also when a check fails or the driver panics — and the
/// teardown itself never panics.
impl Drop for Listener {
    fn drop(&mut self) {
        if let Ok(mut conn) = Conn::open(self.port) {
            let _ = conn.ask("{\"v\":1,\"id\":0,\"type\":\"shutdown\"}");
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if matches!(self.child.try_wait(), Ok(Some(_))) {
                return;
            }
            std::thread::sleep(POLL);
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Shard daemons behind one router. Fields drop in order, so the router
/// drains before the shards it relays to.
pub struct Fabric {
    router: Listener,
    shards: Vec<Listener>,
    /// Seconds from the first spawn until the router announced its port:
    /// cold start including every shard's index warm.
    pub cold_start_s: f64,
    /// Spawn-to-`listening on` of the first shard daemon alone.
    pub first_shard_warm_s: f64,
}

impl Fabric {
    /// Spawns [`SHARDS`] daemons (each loading every graph file) and a
    /// router over them, then pins graph `i` to shard `i mod SHARDS` so
    /// placement does not depend on how names happen to hash.
    pub fn spawn(env: &Env, workload: &Workload, graph_files: &[PathBuf]) -> Res<Fabric> {
        let started = Instant::now();
        let mut serve = vec!["serve".to_string()];
        for (g, file) in workload.graphs.iter().zip(graph_files) {
            serve.push(format!("{}={}", g.name, file.display()));
        }
        for (flag, value) in [
            ("--workers", DAEMON_WORKERS),
            ("--threads", DAEMON_THREADS),
            ("--worlds", workload.samples),
            ("--cache-cap", CACHE_CAP),
            ("--port", 0),
        ] {
            serve.push(flag.to_string());
            serve.push(value.to_string());
        }
        let mut shards: Vec<Listener> = Vec::new();
        let mut first_shard_warm_s = 0.0;
        let mut route = vec!["route".to_string()];
        for i in 0..SHARDS {
            let shard = Listener::spawn(env, &serve)?;
            if i == 0 {
                first_shard_warm_s = started.elapsed().as_secs_f64();
            }
            route.push(format!("127.0.0.1:{}", shard.port));
            shards.push(shard);
        }
        route.extend(["--port".to_string(), "0".to_string()]);
        let router = Listener::spawn(env, &route)?;
        let mut fabric = Fabric {
            router,
            shards,
            cold_start_s: 0.0,
            first_shard_warm_s,
        };
        let mut conn = fabric.connect()?;
        for (i, g) in workload.graphs.iter().enumerate() {
            let line = format!(
                "{{\"v\":1,\"id\":{i},\"type\":\"rebalance\",\"graph\":\"{}\",\"shard\":{}}}",
                g.name,
                i % SHARDS
            );
            let answer = conn.ask(&line)?;
            if !is_ok_for(&answer, i as u64) {
                return Err(format!("rebalance refused: {answer}"));
            }
        }
        fabric.cold_start_s = started.elapsed().as_secs_f64();
        Ok(fabric)
    }

    /// A new connection to the router.
    pub fn connect(&self) -> Res<Conn> {
        Conn::open(self.router.port)
    }

    /// A new connection straight to shard `i`.
    pub fn connect_shard(&self, i: usize) -> Res<Conn> {
        Conn::open(self.shards[i].port)
    }

    /// Summed peak resident set (MB) and CPU seconds of every process.
    pub fn resources(&self) -> (f64, f64) {
        self.shards
            .iter()
            .chain([&self.router])
            .filter_map(|l| proc_sample(l.child.id()))
            .fold((0.0, 0.0), |(rss, cpu), (r, c)| (rss + r, cpu + c))
    }
}

/// Creates `path` anew, removing any file already there. Truncating a
/// file in place instead makes ext4 flush the new contents to disk when it
/// is closed (`auto_da_alloc`): milliseconds that vary tenfold, inside
/// whatever is being timed.
pub fn create_fresh(path: &Path) -> std::io::Result<std::fs::File> {
    match std::fs::remove_file(path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e),
        _ => {}
    }
    std::fs::File::create(path)
}

/// Writes `pg` as a TSV edge list under the output directory.
pub fn write_graph(dir: &Path, name: &str, pg: &soi_graph::ProbGraph) -> Res<PathBuf> {
    let path = dir.join(format!("{name}.tsv"));
    let err = |e: std::io::Error| format!("{}: {e}", path.display());
    let mut out = std::io::BufWriter::new(create_fresh(&path).map_err(err)?);
    soi_graph::io::write_prob_graph(pg, &mut out).map_err(err)?;
    out.flush().map_err(err)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_own_process_and_parses_seeds() {
        let (rss_mb, cpu_s) = proc_sample(std::process::id()).expect("own /proc entry");
        assert!(rss_mb > 0.0 && cpu_s >= 0.0);
        assert_eq!(proc_sample(u32::MAX), None);
        let (steal, total) = host_cpu_ticks().expect("/proc/stat");
        assert!(steal >= 0.0 && total > steal);
        assert_eq!(
            parse_seeds("seeds\t3,1,2\nexpected_spread\t9.00\n"),
            Ok(vec![3, 1, 2])
        );
        assert!(parse_seeds("expected_spread\t9.00\n").is_err());
        assert!(is_ok_for(
            "{\"v\":1,\"id\":7,\"status\":\"ok\",\"spread\":1}",
            7
        ));
        assert!(!is_ok_for("{\"v\":1,\"id\":7,\"status\":\"error\"}", 7));
        assert!(!is_ok_for("{\"v\":1,\"id\":8,\"status\":\"ok\"}", 7));
    }
}
