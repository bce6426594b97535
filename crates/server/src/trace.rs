//! Request phase tracing and the slow-query log.
//!
//! Every compute request accumulates a [`PhaseTrace`]: an ordered
//! timeline of `parse → queue_wait → cache → compute → serialize`
//! phases. Each phase carries two costs:
//!
//! * **`ticks`** — a deterministic work proxy (request-line bytes for
//!   `parse`, `num_worlds` for a cold `cache` build, the sample/seed
//!   budget for `compute`, payload bytes for `serialize`; `queue_wait`
//!   is always 0 ticks). Two same-seed runs of the same request mix
//!   produce identical tick timelines.
//! * **`wall_ns`** — measured wall clock, quarantined in a
//!   `wall_`-prefixed field so `mask_wall_clock` and the golden e2e
//!   tests can zero it mechanically.
//!
//! Clients opt into receiving the timeline by setting `"trace":true` on
//! a compute request; the response then carries a `trace` array. The
//! daemon can additionally be started with `--slow-query-ticks N
//! --slow-query-log PATH`, making [`SlowLog`] append one JSONL line per
//! request whose total tick cost reaches the threshold — the
//! after-the-fact answer to "what was that one slow request doing".
//! The `server.request.slow` failpoint forces the next request to be
//! logged regardless of cost, which is how the unit tests pin the
//! format without depending on workload size.

use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// One phase of a request's lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Phase {
    /// Phase name (`parse`, `queue_wait`, `cache`, `compute`,
    /// `serialize`).
    pub name: &'static str,
    /// Deterministic work proxy for this phase.
    pub ticks: u64,
    /// Measured wall clock (nanoseconds).
    pub wall_ns: u64,
}

/// The ordered phase timeline of one request.
#[derive(Clone, Debug, Default)]
pub struct PhaseTrace {
    phases: Vec<Phase>,
}

impl PhaseTrace {
    /// An empty timeline.
    pub fn new() -> PhaseTrace {
        PhaseTrace { phases: Vec::new() }
    }

    /// Appends one phase (phases are recorded in lifecycle order).
    pub fn record(&mut self, name: &'static str, ticks: u64, wall_ns: u64) {
        self.phases.push(Phase {
            name,
            ticks,
            wall_ns,
        });
    }

    /// The recorded phases, in order.
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// Total deterministic tick cost across phases.
    pub fn total_ticks(&self) -> u64 {
        self.phases.iter().map(|p| p.ticks).sum()
    }

    /// Total measured wall nanoseconds across phases.
    pub fn total_wall_ns(&self) -> u64 {
        self.phases
            .iter()
            .fold(0u64, |acc, p| acc.saturating_add(p.wall_ns))
    }

    /// The `"trace":[…]` JSON fragment embedded in traced responses and
    /// slow-query log lines. Wall time appears only under `wall_ns`.
    pub fn json_fragment(&self) -> String {
        let phases: Vec<String> = self
            .phases
            .iter()
            .map(|p| {
                format!(
                    "{{\"phase\":\"{}\",\"ticks\":{},\"wall_ns\":{}}}",
                    p.name, p.ticks, p.wall_ns
                )
            })
            .collect();
        format!("\"trace\":[{}]", phases.join(","))
    }
}

/// Nanoseconds elapsed since `start`, saturating at `u64::MAX`.
pub(crate) fn elapsed_ns(start: std::time::Instant) -> u64 {
    soi_obs::perthread::clamp_ns(start.elapsed().as_nanos())
}

/// Whether the forced-slow failpoint is armed for this request (debug
/// builds only; compiled out otherwise, like every failpoint site).
fn forced_slow() -> bool {
    #[cfg(debug_assertions)]
    {
        soi_util::failpoint::trigger("server.request.slow").is_some()
    }
    #[cfg(not(debug_assertions))]
    {
        false
    }
}

/// Threshold-gated JSONL log of slow requests.
///
/// A request is logged when its [`PhaseTrace::total_ticks`] reaches the
/// configured threshold (or the `server.request.slow` failpoint forces
/// it). Each line is self-contained:
///
/// ```json
/// {"type_name":"infmax-tc","id":7,"ticks_total":420,
///  "wall_ns_total":12345,"trace":[{"phase":"parse",...},...]}
/// ```
pub struct SlowLog {
    threshold_ticks: u64,
    sink: Mutex<LogSink>,
}

/// The writer plus optional size-based rotation state, guarded together
/// so a rotation and a write can never interleave.
struct LogSink {
    out: Box<dyn Write + Send>,
    rotation: Option<Rotation>,
}

/// Size-based rotation: when the live file would exceed `max_bytes`,
/// it is renamed to `<path>.old` (replacing any previous `.old`) and a
/// fresh file is started — a long-lived daemon keeps at most two
/// generations of slow-query history on disk.
struct Rotation {
    path: PathBuf,
    max_bytes: u64,
    written: u64,
}

impl LogSink {
    /// Rotates if appending `incoming` bytes would push the live file
    /// past the cap. Rotating an empty file is pointless (and would
    /// loop forever on a single oversized line), so at least one line
    /// always lands in each generation.
    fn rotate_if_needed(&mut self, incoming: u64) {
        let Some(rot) = self.rotation.as_mut() else {
            return;
        };
        if rot.written == 0 || rot.written.saturating_add(incoming) <= rot.max_bytes {
            return;
        }
        let _ = self.out.flush();
        // Close the live file before renaming it out of the way.
        self.out = Box::new(io::sink());
        let old = rot.path.with_extension(match rot.path.extension() {
            Some(ext) => format!("{}.old", ext.to_string_lossy()),
            None => "old".to_string(),
        });
        let renamed = std::fs::rename(&rot.path, &old);
        let reopened = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .truncate(false)
            .open(&rot.path);
        match (renamed, reopened) {
            (Ok(()), Ok(file)) => {
                self.out = Box::new(file);
                rot.written = 0;
                soi_obs::counter_add!("server.slow_query_log_rotations", 1);
            }
            (_, Ok(file)) => {
                // Rename failed: keep appending to the (possibly still
                // oversized) live file rather than lose log lines.
                self.out = Box::new(file);
                soi_obs::counter_add!("server.slow_query_log_errors", 1);
            }
            (_, Err(_)) => {
                soi_obs::counter_add!("server.slow_query_log_errors", 1);
            }
        }
    }
}

impl SlowLog {
    /// A log writing to `out`, triggering at `threshold_ticks` (min 1:
    /// a zero threshold would log every request, which is what tracing
    /// is for).
    pub fn new(threshold_ticks: u64, out: Box<dyn Write + Send>) -> SlowLog {
        SlowLog {
            threshold_ticks: threshold_ticks.max(1),
            sink: Mutex::new(LogSink {
                out,
                rotation: None,
            }),
        }
    }

    /// A log appending to the file at `path` (created if absent). A
    /// non-zero `max_bytes` bounds the live file: when a line would push
    /// it past the cap, the file rotates to `<path>.old` (one `.old`
    /// generation is kept) and `server.slow_query_log_rotations` counts
    /// the event. Zero `max_bytes` means unbounded (the pre-rotation
    /// behavior).
    pub fn to_file(threshold_ticks: u64, path: &Path, max_bytes: u64) -> io::Result<SlowLog> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        let rotation = (max_bytes > 0).then(|| Rotation {
            path: path.to_path_buf(),
            max_bytes,
            // Restarting a daemon resumes the budget where the existing
            // file left off, not from zero.
            written: file.metadata().map(|m| m.len()).unwrap_or(0),
        });
        let log = SlowLog::new(threshold_ticks, Box::new(file));
        log.sink
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .rotation = rotation;
        Ok(log)
    }

    /// The configured threshold.
    pub fn threshold_ticks(&self) -> u64 {
        self.threshold_ticks
    }

    /// Logs the request when its tick cost reaches the threshold (or
    /// the `server.request.slow` failpoint forces it). Write failures
    /// are counted, never propagated — a broken log must not break
    /// serving.
    pub fn maybe_log(&self, id: u64, type_name: &str, trace: &PhaseTrace) {
        let ticks = trace.total_ticks();
        if ticks < self.threshold_ticks && !forced_slow() {
            return;
        }
        soi_obs::counter_add!("server.slow_queries", 1);
        let line = format!(
            "{{\"type_name\":\"{type_name}\",\"id\":{id},\"ticks_total\":{ticks},\
             \"wall_ns_total\":{},{}}}",
            trace.total_wall_ns(),
            trace.json_fragment()
        );
        let mut sink = self
            .sink
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let bytes = line.len() as u64 + 1;
        sink.rotate_if_needed(bytes);
        let write = writeln!(sink.out, "{line}").and_then(|()| sink.out.flush());
        if write.is_err() {
            soi_obs::counter_add!("server.slow_query_log_errors", 1);
        } else if let Some(rot) = sink.rotation.as_mut() {
            rot.written = rot.written.saturating_add(bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn sample_trace() -> PhaseTrace {
        let mut t = PhaseTrace::new();
        t.record("parse", 52, 800);
        t.record("queue_wait", 0, 1_200);
        t.record("cache", 16, 90_000);
        t.record("compute", 64, 410_000);
        t.record("serialize", 31, 500);
        t
    }

    /// A shared Vec-backed writer the tests can read back.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl SharedBuf {
        fn text(&self) -> String {
            String::from_utf8_lossy(&self.0.lock().unwrap()).into_owned()
        }
    }

    #[test]
    fn totals_sum_phases_and_fragment_isolates_wall() {
        let t = sample_trace();
        assert_eq!(t.total_ticks(), 52 + 16 + 64 + 31);
        assert_eq!(t.total_wall_ns(), 800 + 1_200 + 90_000 + 410_000 + 500);
        let frag = t.json_fragment();
        assert!(frag.starts_with("\"trace\":[{\"phase\":\"parse\",\"ticks\":52,\"wall_ns\":800}"));
        // Masking the fragment zeroes exactly the wall fields.
        let masked = soi_obs::report::mask_wall_clock(&frag);
        assert!(masked.contains("{\"phase\":\"compute\",\"ticks\":64,\"wall_ns\":0}"));
        assert!(!masked.contains("410000"));
        assert!(masked.contains("\"ticks\":64"), "ticks survive masking");
    }

    #[test]
    fn slow_log_writes_only_at_or_over_threshold() {
        let _g = soi_util::failpoint::test_guard();
        soi_util::failpoint::clear();
        let buf = SharedBuf::default();
        let log = SlowLog::new(200, Box::new(buf.clone()));
        let mut cheap = PhaseTrace::new();
        cheap.record("compute", 10, 999);
        log.maybe_log(1, "typical-cascade", &cheap);
        assert!(buf.text().is_empty(), "below threshold must not log");
        log.maybe_log(2, "infmax-tc", &sample_trace());
        assert!(buf.text().is_empty(), "163 ticks < 200");
        let mut heavy = sample_trace();
        heavy.record("compute", 100, 1);
        log.maybe_log(3, "infmax-tc", &heavy);
        let text = buf.text();
        assert_eq!(text.lines().count(), 1, "{text}");
        assert!(
            text.starts_with("{\"type_name\":\"infmax-tc\",\"id\":3,\"ticks_total\":263,"),
            "{text}"
        );
        assert!(text.contains("\"trace\":[{\"phase\":\"parse\""), "{text}");
    }

    /// A writer whose every write and flush fails.
    struct BrokenPipe;

    impl Write for BrokenPipe {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(io::Error::new(io::ErrorKind::BrokenPipe, "log gone"))
        }
        fn flush(&mut self) -> io::Result<()> {
            Err(io::Error::new(io::ErrorKind::BrokenPipe, "log gone"))
        }
    }

    #[test]
    fn failed_log_write_is_counted_not_raised() {
        // The guard also keeps `soi_obs::reset` in other tests from
        // zeroing the counter between the two reads.
        let _g = soi_util::failpoint::test_guard();
        soi_util::failpoint::clear();
        let errors = soi_obs::metrics::counter("server.slow_query_log_errors");
        let before = errors.get();
        let log = SlowLog::new(200, Box::new(BrokenPipe));
        let mut at_threshold = PhaseTrace::new();
        at_threshold.record("compute", 200, 1);
        log.maybe_log(1, "infmax-tc", &at_threshold);
        assert_eq!(errors.get(), before + 1);
    }

    #[test]
    fn rotation_keeps_one_old_generation_under_the_byte_cap() {
        let _g = soi_util::failpoint::test_guard();
        soi_util::failpoint::clear();
        let dir = std::env::temp_dir().join(format!("soi-slowlog-rotate-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("slow.jsonl");
        // Low threshold so every sample trace logs; cap sized to hold
        // roughly two lines per generation.
        let line_len = {
            let mut buf = Vec::new();
            let t = sample_trace();
            let frag = t.json_fragment();
            use std::io::Write as _;
            write!(
                buf,
                "{{\"type_name\":\"infmax-tc\",\"id\":0,\"ticks_total\":{},\"wall_ns_total\":{},{frag}}}",
                t.total_ticks(),
                t.total_wall_ns()
            )
            .unwrap();
            buf.len() as u64 + 1
        };
        let log = SlowLog::to_file(1, &path, line_len * 2 + 1).unwrap();
        for id in 0..5 {
            log.maybe_log(id, "infmax-tc", &sample_trace());
        }
        drop(log);
        let live = std::fs::read_to_string(&path).unwrap();
        let old = std::fs::read_to_string(dir.join("slow.jsonl.old")).unwrap();
        // Two lines per generation: 5 logged → [0,1] rotated out and
        // replaced by [2,3], live holds [4]. Only the last two
        // generations survive — that bound is the point.
        assert_eq!(old.lines().count(), 2, "{old}");
        assert_eq!(live.lines().count(), 1, "{live}");
        assert!(
            old.contains("\"id\":2") && old.contains("\"id\":3"),
            "{old}"
        );
        assert!(live.contains("\"id\":4"), "{live}");
        // …and both files respect the cap.
        assert!(live.len() as u64 <= line_len * 2 + 1, "{}", live.len());
        assert!(old.len() as u64 <= line_len * 2 + 1, "{}", old.len());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn zero_max_bytes_never_rotates() {
        let _g = soi_util::failpoint::test_guard();
        soi_util::failpoint::clear();
        let dir = std::env::temp_dir().join(format!("soi-slowlog-norotate-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("slow.jsonl");
        let log = SlowLog::to_file(1, &path, 0).unwrap();
        for id in 0..8 {
            log.maybe_log(id, "typical-cascade", &sample_trace());
        }
        drop(log);
        let live = std::fs::read_to_string(&path).unwrap();
        assert_eq!(live.lines().count(), 8);
        assert!(!dir.join("slow.jsonl.old").exists(), "no .old generation");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_resumes_byte_budget_from_an_existing_file() {
        let _g = soi_util::failpoint::test_guard();
        soi_util::failpoint::clear();
        let dir = std::env::temp_dir().join(format!("soi-slowlog-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("slow.jsonl");
        // Pre-existing content from a "previous run" nearly fills the cap.
        std::fs::write(&path, "x".repeat(100)).unwrap();
        let log = SlowLog::to_file(1, &path, 110).unwrap();
        log.maybe_log(1, "infmax-tc", &sample_trace());
        drop(log);
        // The pre-existing bytes were counted: the first logged line
        // triggered a rotation instead of blowing past the cap.
        let old = std::fs::read_to_string(dir.join("slow.jsonl.old")).unwrap();
        assert_eq!(old, "x".repeat(100));
        let live = std::fs::read_to_string(&path).unwrap();
        assert_eq!(live.lines().count(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    #[cfg(debug_assertions)] // arms a failpoint; the sites compile out in release
    fn forced_slow_failpoint_logs_a_fast_request() {
        let _g = soi_util::failpoint::test_guard();
        soi_util::failpoint::install("server.request.slow=error").expect("arm");
        let buf = SharedBuf::default();
        let log = SlowLog::new(1_000_000, Box::new(buf.clone()));
        let mut fast = PhaseTrace::new();
        fast.record("parse", 40, 100);
        fast.record("compute", 1, 200);
        log.maybe_log(9, "typical-cascade", &fast);
        soi_util::failpoint::clear();
        let text = buf.text();
        assert_eq!(text.lines().count(), 1, "forced log line: {text}");
        assert!(text.contains("\"id\":9"), "{text}");
        assert!(text.contains("\"ticks_total\":41"), "{text}");
        // Masked log lines are deterministic.
        let masked = soi_obs::report::mask_wall_clock(&text);
        assert!(masked.contains("\"wall_ns_total\":0,"), "{masked}");
    }
}
