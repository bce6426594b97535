//! A minimal, dependency-free micro-benchmark harness.
//!
//! Replaces the former Criterion benches so the workspace builds with no
//! external registry dependencies (the hermeticity policy, which CI's
//! offline `cargo metadata` step enforces). Each bench target under `benches/` is a plain
//! `fn main()` (`harness = false`) that times closures with
//! [`Bencher::bench`] and prints one TSV row per case:
//!
//! ```text
//! group/id<TAB>median_ns<TAB>mean_ns<TAB>min_ns<TAB>iters
//! ```
//!
//! Methodology: a warmup (3 iterations or ≥ 50 ms, whichever comes
//! first), then `sample_size` timed iterations; the median is the
//! headline number, which is robust to scheduler noise without needing
//! Criterion's bootstrap machinery.
//!
//! Every result is also recorded in-process; a bench `main` ends with
//! [`write_summary`], which merges its rows by name into the
//! machine-readable `BENCH_summary.json` at the repository root so CI
//! and regression tooling can diff runs without scraping stdout.
//!
//! A bench binary's first argument that is not a flag filters its cases:
//! `cargo bench -p soi-bench --bench bench_median -- median_from_index`
//! runs and records only the cases whose `group/id` contains
//! `median_from_index`, and replaces only those rows of the summary.

use std::io::Write as _;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// The name filter of this bench binary: its first argument that is not
/// a flag (cargo passes `--bench` to every bench target), if any.
fn filter() -> Option<&'static str> {
    static FILTER: OnceLock<Option<String>> = OnceLock::new();
    let first = || std::env::args().skip(1).find(|a| !a.starts_with('-'));
    FILTER.get_or_init(first).as_deref()
}

/// One finished micro-benchmark case.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BenchRecord {
    /// `group/id` of the case.
    pub name: String,
    /// Median of the timed samples, nanoseconds.
    pub median_ns: u128,
    /// 90th percentile (nearest-rank) of the timed samples, nanoseconds.
    pub p90_ns: u128,
    /// Mean of the timed samples, nanoseconds.
    pub mean_ns: u128,
    /// Fastest timed sample, nanoseconds.
    pub min_ns: u128,
    /// Number of timed iterations.
    pub iters: usize,
    /// Extra JSON fields of the summary line, each value a token as
    /// written: the producing host, then anything [`attach_extra`] added.
    pub extra: Vec<(String, String)>,
}

/// The host a row came from (`rustc` / `commit` as `benchmark/run.sh`
/// exports them), stamped per row because the file is merged across runs.
fn host_extras() -> Vec<(String, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let env = |key: &str| {
        let v = std::env::var(key).unwrap_or_else(|_| "unknown".into());
        format!("\"{}\"", v.replace(['"', ',', ':', '\\'], " "))
    };
    vec![
        ("nproc".into(), nproc.to_string()),
        ("rustc".into(), env("SOI_BENCH_RUSTC")),
        ("commit".into(), env("SOI_BENCH_COMMIT")),
    ]
}

/// Results accumulated by every [`Bencher`] in this process.
static RESULTS: Mutex<Vec<BenchRecord>> = Mutex::new(Vec::new());

fn record(r: BenchRecord) {
    RESULTS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .push(r);
}

/// A named group of micro-benchmarks sharing a sample size.
pub struct Bencher {
    group: String,
    sample_size: usize,
}

impl Bencher {
    /// Creates a group; results print as `group/id`.
    pub fn group(name: &str) -> Self {
        Bencher {
            group: name.to_string(),
            sample_size: 20,
        }
    }

    /// Sets the number of timed iterations per case (default 20).
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    /// Times `f` and prints one result row. The closure's return value is
    /// passed through [`std::hint::black_box`] so the computation is not
    /// optimized away.
    pub fn bench<T>(&self, id: impl std::fmt::Display, mut f: impl FnMut() -> T) {
        let name = format!("{}/{}", self.group, id);
        if filter().is_some_and(|keep| !name.contains(keep)) {
            return;
        }
        // Warmup: at least 3 runs or 50 ms.
        let warm_start = Instant::now();
        let mut warm_iters = 0u32;
        while warm_iters < 3 || (warm_start.elapsed().as_millis() < 50 && warm_iters < 1000) {
            std::hint::black_box(f());
            warm_iters += 1;
        }

        let mut samples_ns: Vec<u128> = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let t = Instant::now();
            std::hint::black_box(f());
            samples_ns.push(t.elapsed().as_nanos());
        }
        samples_ns.sort_unstable();
        let median = samples_ns[samples_ns.len() / 2];
        let p90 = percentile(&samples_ns, 90);
        let mean = samples_ns.iter().sum::<u128>() / samples_ns.len() as u128;
        let min = samples_ns[0];
        println!("{name}\t{median}\t{mean}\t{min}\t{}", self.sample_size);
        record(BenchRecord {
            name,
            median_ns: median,
            p90_ns: p90,
            mean_ns: mean,
            min_ns: min,
            iters: self.sample_size,
            extra: host_extras(),
        });
    }
}

/// Attaches named numeric series to an already-recorded case (matched
/// by `group/id` name); a repeated key replaces the earlier value.
/// Unknown names are ignored.
pub fn attach_extra(name: &str, entries: impl IntoIterator<Item = (String, u128)>) {
    let mut results = RESULTS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let Some(r) = results.iter_mut().find(|r| r.name == name) else {
        return;
    };
    for (key, value) in entries {
        let value = value.to_string();
        match r.extra.iter_mut().find(|(k, _)| k == &key) {
            Some(slot) => slot.1 = value,
            None => r.extra.push((key, value)),
        }
    }
}

/// Nearest-rank percentile over an ascending-sorted sample vector.
fn percentile(sorted_ns: &[u128], pct: usize) -> u128 {
    let rank = (sorted_ns.len() * pct).div_ceil(100).max(1);
    sorted_ns[rank - 1]
}

/// Serializes one record as a single JSON object line. The fixed timing
/// fields come first; the extras follow as additional fields.
fn render_record(r: &BenchRecord) -> String {
    let mut line = format!(
        "{{\"name\":\"{}\",\"median_ns\":{},\"p90_ns\":{},\"mean_ns\":{},\"min_ns\":{},\"iters\":{}",
        r.name, r.median_ns, r.p90_ns, r.mean_ns, r.min_ns, r.iters
    );
    for (key, value) in &r.extra {
        line.push_str(&format!(",\"{key}\":{value}"));
    }
    line.push('}');
    line
}

/// Parses a line previously emitted by [`render_record`]. Bench names
/// and extra keys never contain quotes, escapes, commas, or colons, so
/// plain field splitting suffices; fields beyond the fixed timing set
/// land in `extra` (preserving order) as written.
fn parse_record(line: &str) -> Option<BenchRecord> {
    let body = line
        .trim()
        .trim_end_matches(',')
        .strip_prefix('{')?
        .strip_suffix('}')?;
    let mut name = None;
    let mut fields: Vec<(String, String)> = Vec::new();
    for part in body.split(',') {
        let (key, value) = part.split_once(':')?;
        let key = key.trim().strip_prefix('"')?.strip_suffix('"')?;
        if key == "name" {
            name = Some(value.strip_prefix('"')?.strip_suffix('"')?.to_string());
        } else {
            fields.push((key.to_string(), value.to_string()));
        }
    }
    let mut take = |key: &str| -> Option<u128> {
        let at = fields.iter().position(|(k, _)| k == key)?;
        fields.remove(at).1.parse().ok()
    };
    Some(BenchRecord {
        name: name?,
        median_ns: take("median_ns")?,
        p90_ns: take("p90_ns")?,
        mean_ns: take("mean_ns")?,
        min_ns: take("min_ns")?,
        iters: take("iters")? as usize,
        extra: fields,
    })
}

/// Merges this process's results into the JSON summary at `path`:
/// existing entries of a `group/` emitted here are dropped (a group is
/// what its bench target last produced) — or, when `by_name` is set (a
/// filtered run), only the entries of the names emitted here —
/// everything else is kept, and the output is sorted by name.
pub fn write_summary_to(path: &std::path::Path, by_name: bool) -> std::io::Result<()> {
    let fresh = RESULTS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone();
    let mut merged: Vec<BenchRecord> = std::fs::read_to_string(path)
        .map(|text| text.lines().filter_map(parse_record).collect())
        .unwrap_or_default();
    let key = |name: &str| -> String {
        let group = name.split('/').next().unwrap_or_default();
        if by_name { name } else { group }.to_string()
    };
    let replaced: Vec<String> = fresh.iter().map(|r| key(&r.name)).collect();
    merged.retain(|old| !replaced.contains(&key(&old.name)));
    merged.extend(fresh);
    merged.sort_by(|a, b| a.name.cmp(&b.name));

    let file = std::fs::File::create(path)?;
    let mut w = std::io::BufWriter::new(file);
    writeln!(w, "{{")?;
    writeln!(w, "\"benches\": [")?;
    for (i, r) in merged.iter().enumerate() {
        let comma = if i + 1 < merged.len() { "," } else { "" };
        writeln!(w, "{}{}", render_record(r), comma)?;
    }
    writeln!(w, "]")?;
    writeln!(w, "}}")?;
    Ok(())
}

/// [`write_summary_to`] targeting `BENCH_summary.json` at the workspace
/// root, by name when a filter picked the cases. Bench binaries call this
/// at the end of `main`.
pub fn write_summary() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = root.join("BENCH_summary.json");
    if let Err(e) = write_summary_to(&path, filter().is_some()) {
        eprintln!("BENCH_summary.json: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_closure_and_does_not_panic() {
        let b = Bencher::group("smoke").sample_size(3);
        let mut count = 0u64;
        b.bench("counting", || {
            count += 1;
            count
        });
        // Warmup (>= 3) plus 3 timed iterations.
        assert!(count >= 6);
        // And the case was recorded for the summary.
        let results = RESULTS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        assert!(results.iter().any(|r| r.name == "smoke/counting"));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u128> = (1..=10).collect();
        assert_eq!(percentile(&v, 90), 9);
        assert_eq!(percentile(&v, 50), 5);
        assert_eq!(percentile(&v, 100), 10);
        assert_eq!(percentile(&[7], 90), 7);
    }

    #[test]
    fn record_round_trips_through_json_line() {
        let r = BenchRecord {
            name: "group/1000".into(),
            median_ns: 123,
            p90_ns: 150,
            mean_ns: 130,
            min_ns: 110,
            iters: 20,
            extra: Vec::new(),
        };
        assert_eq!(parse_record(&render_record(&r)), Some(r));
        assert_eq!(parse_record("{\"benches\": ["), None);
        assert_eq!(parse_record("]"), None);
    }

    #[test]
    fn extras_render_parse_and_attach_by_name() {
        let r = BenchRecord {
            name: "extras_x/case".into(),
            median_ns: 9,
            p90_ns: 9,
            mean_ns: 9,
            min_ns: 9,
            iters: 5,
            extra: vec![("rustc".into(), "\"r 1\"".into())],
        };
        let line = render_record(&r);
        assert!(line.contains("\"iters\":5,\"rustc\":\"r 1\"}"), "{line}");
        assert_eq!(parse_record(&line), Some(r));

        // Trailing comma (every line but the file's last) still parses.
        assert!(parse_record(&format!("{line},")).is_some());

        let b = Bencher::group("attach_test").sample_size(1);
        b.bench("case", || 1);
        attach_extra(
            "attach_test/case",
            [("threads".to_string(), 4u128), ("threads".to_string(), 8)],
        );
        attach_extra("attach_test/missing", [("ignored".to_string(), 1u128)]);
        let results = RESULTS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let rec = results
            .iter()
            .find(|r| r.name == "attach_test/case")
            .expect("recorded");
        let keys: Vec<&str> = rec.extra.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["nproc", "rustc", "commit", "threads"], "host first");
        assert_eq!(rec.extra[3].1, "8");
    }

    #[test]
    fn summary_merges_by_name() {
        let path =
            std::env::temp_dir().join(format!("soi-bench-summary-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        std::fs::write(
            &path,
            "{\n\"benches\": [\n\
             {\"name\":\"kept/1\",\"median_ns\":9,\"p90_ns\":9,\"mean_ns\":9,\"min_ns\":9,\"iters\":5},\n\
             {\"name\":\"merge_test/overwritten\",\"median_ns\":1,\"p90_ns\":1,\"mean_ns\":1,\"min_ns\":1,\"iters\":1},\n\
             {\"name\":\"merge_test/retired\",\"median_ns\":1,\"p90_ns\":1,\"mean_ns\":1,\"min_ns\":1,\"iters\":1}\n\
             ]\n}\n",
        )
        .unwrap();
        record(BenchRecord {
            name: "merge_test/overwritten".into(),
            median_ns: 42,
            p90_ns: 43,
            mean_ns: 42,
            min_ns: 41,
            iters: 7,
            extra: Vec::new(),
        });
        write_summary_to(&path, false).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let records: Vec<BenchRecord> = text.lines().filter_map(parse_record).collect();
        let kept = records.iter().find(|r| r.name == "kept/1").unwrap();
        assert_eq!(kept.median_ns, 9, "unrelated entries preserved");
        let over = records
            .iter()
            .find(|r| r.name == "merge_test/overwritten")
            .unwrap();
        assert_eq!((over.median_ns, over.iters), (42, 7), "same-name replaced");
        let retired = records.iter().any(|r| r.name == "merge_test/retired");
        assert!(!retired, "a sibling its group stopped emitting is pruned");
        let mut names: Vec<&str> = records.iter().map(|r| r.name.as_str()).collect();
        let sorted = {
            let mut s = names.clone();
            s.sort();
            s
        };
        assert_eq!(names, sorted, "summary is name-sorted");
        names.dedup();
        assert_eq!(names.len(), records.len(), "no duplicate names");
        std::fs::remove_file(&path).unwrap();
    }

    /// A filtered run replaces the rows it recorded, and keeps its group's
    /// other rows as they were.
    #[test]
    fn filtered_summary_replaces_only_its_rows() {
        let path =
            std::env::temp_dir().join(format!("soi-bench-filtered-{}.json", std::process::id()));
        std::fs::write(
            &path,
            "{\n\"benches\": [\n\
             {\"name\":\"filter_test/other\",\"median_ns\":5,\"p90_ns\":5,\"mean_ns\":5,\"min_ns\":5,\"iters\":5},\n\
             {\"name\":\"filter_test/rerun\",\"median_ns\":1,\"p90_ns\":1,\"mean_ns\":1,\"min_ns\":1,\"iters\":1}\n\
             ]\n}\n",
        )
        .unwrap();
        let rerun = BenchRecord {
            name: "filter_test/rerun".into(),
            median_ns: 42,
            p90_ns: 43,
            mean_ns: 42,
            min_ns: 41,
            iters: 7,
            extra: Vec::new(),
        };
        record(rerun.clone());
        write_summary_to(&path, true).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let records: Vec<BenchRecord> = text.lines().filter_map(parse_record).collect();
        let at = |name: &str| records.iter().find(|r| r.name == name);
        assert_eq!(at("filter_test/rerun"), Some(&rerun), "its row replaced");
        let other = at("filter_test/other").map(|r| r.median_ns);
        assert_eq!(other, Some(5), "the group's other row kept as it was");
        std::fs::remove_file(&path).unwrap();
    }
}
