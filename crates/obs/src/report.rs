//! Run-report emitters: serialize the registry to JSONL and a
//! human-readable summary table.
//!
//! Reports are deterministic by construction — config pairs keep their
//! insertion order and every metric table iterates name-sorted — with
//! one deliberate exception: wall-clock numbers. Those appear only in
//! fields whose names start with `wall_`, and [`mask_wall_clock`]
//! rewrites every such value to `0`, after which two same-seed runs
//! must produce byte-identical JSONL (golden-tested in `soi-cli`).

use crate::metrics::WallHistStat;
use crate::perthread::{PoolSnap, ThreadSnap};
use crate::span::SpanStat;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Duration;

/// A frozen snapshot of one run's observability state.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Exact run configuration (command, arguments, seed, …) in
    /// insertion order.
    pub config: Vec<(String, String)>,
    /// Counter values, name-sorted.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values, name-sorted.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram `(bounds, counts)`, name-sorted.
    pub histograms: BTreeMap<String, (Vec<f64>, Vec<u64>)>,
    /// Span statistics keyed by path, name-sorted.
    pub spans: BTreeMap<String, SpanStat>,
    /// Wall-clock latency histogram snapshots, name-sorted. Only the
    /// observation `count` is deterministic; quantiles are wall-clock
    /// data and are emitted exclusively in `wall_`-prefixed fields.
    pub wall_hists: BTreeMap<String, WallHistStat>,
    /// Per-worker timing slots (`thread.*` series), slot-sorted. Every
    /// numeric field is schedule-dependent and is emitted exclusively
    /// in `wall_`-prefixed fields; only the *set* of slots is
    /// deterministic (it mirrors the resolved worker count).
    pub threads: Vec<ThreadSnap>,
    /// Pool-level dispatch aggregates (`pool.*` series). Dispatch and
    /// item totals are deterministic counts; capacity/lifetime/
    /// imbalance are wall-clock.
    pub pool: PoolSnap,
}

impl RunReport {
    /// Snapshots the global registry, span table, and per-thread slots.
    pub fn collect(config: &[(&str, &str)]) -> RunReport {
        let reg = crate::metrics::registry();
        let (threads, pool) = crate::perthread::snapshot();
        RunReport {
            config: config
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            counters: reg.counter_values(),
            gauges: reg.gauge_values(),
            histograms: reg.histogram_values(),
            spans: crate::span::snapshot_spans(),
            wall_hists: reg.wall_hist_values(),
            threads,
            pool,
        }
    }

    /// Report name for a per-thread slot: `thread.N` for workers, the
    /// reserved `thread.coordinator` for unregistered-thread records.
    fn thread_name(slot: usize) -> String {
        if slot >= crate::perthread::MAX_SLOTS {
            "thread.coordinator".to_string()
        } else {
            format!("thread.{slot}")
        }
    }

    /// Writes the report as JSON Lines: one self-describing object per
    /// line (`type` ∈
    /// `config|counter|gauge|histogram|span|wall_hist|thread|pool`).
    pub fn write_jsonl<W: Write>(&self, w: &mut W) -> io::Result<()> {
        for (k, v) in &self.config {
            writeln!(
                w,
                "{{\"type\":\"config\",\"key\":\"{}\",\"value\":\"{}\"}}",
                json_escape(k),
                json_escape(v)
            )?;
        }
        for (name, value) in &self.counters {
            writeln!(
                w,
                "{{\"type\":\"counter\",\"name\":\"{}\",\"value\":{value}}}",
                json_escape(name)
            )?;
        }
        for (name, value) in &self.gauges {
            writeln!(
                w,
                "{{\"type\":\"gauge\",\"name\":\"{}\",\"value\":{}}}",
                json_escape(name),
                json_num(*value)
            )?;
        }
        for (name, (bounds, counts)) in &self.histograms {
            let bounds: Vec<String> = bounds.iter().map(|b| json_num(*b)).collect();
            let counts: Vec<String> = counts.iter().map(|c| c.to_string()).collect();
            writeln!(
                w,
                "{{\"type\":\"histogram\",\"name\":\"{}\",\"bounds\":[{}],\"counts\":[{}]}}",
                json_escape(name),
                bounds.join(","),
                counts.join(",")
            )?;
        }
        for (path, s) in &self.spans {
            writeln!(
                w,
                "{{\"type\":\"span\",\"path\":\"{}\",\"count\":{},\"wall_ns_total\":{},\"wall_ns_min\":{},\"wall_ns_max\":{}}}",
                json_escape(path),
                s.count,
                s.total_ns,
                s.min_ns,
                s.max_ns
            )?;
        }
        for (name, s) in &self.wall_hists {
            writeln!(
                w,
                "{{\"type\":\"wall_hist\",\"name\":\"{}\",\"count\":{},\"wall_p50_ns\":{},\"wall_p90_ns\":{},\"wall_max_ns\":{}}}",
                json_escape(name),
                s.count,
                s.p50_ns,
                s.p90_ns,
                s.max_ns
            )?;
        }
        for t in &self.threads {
            writeln!(
                w,
                "{{\"type\":\"thread\",\"name\":\"{}\",\"wall_busy_ns\":{},\"wall_idle_ns\":{},\"wall_merge_ns\":{},\"wall_lock_wait_ns\":{},\"wall_lifetime_ns\":{},\"wall_items\":{}}}",
                Self::thread_name(t.slot),
                t.busy_ns,
                t.idle_ns,
                t.merge_ns,
                t.lock_wait_ns,
                t.lifetime_ns,
                t.items
            )?;
        }
        if self.pool.dispatches > 0 {
            writeln!(
                w,
                "{{\"type\":\"pool\",\"name\":\"pool\",\"dispatches\":{},\"items\":{},\"workers_max\":{},\"wall_capacity_ns\":{},\"wall_lifetime_ns\":{},\"wall_imbalance_ns\":{}}}",
                self.pool.dispatches,
                self.pool.items,
                self.pool.workers_max,
                self.pool.capacity_ns,
                self.pool.lifetime_ns,
                self.pool.imbalance_ns
            )?;
        }
        Ok(())
    }

    /// The JSONL report as a string.
    pub fn to_jsonl_string(&self) -> String {
        let mut buf = Vec::new();
        // Writing to a Vec cannot fail.
        let _ = self.write_jsonl(&mut buf);
        String::from_utf8_lossy(&buf).into_owned()
    }

    /// Writes the human-readable per-phase summary the CLI prints on
    /// exit: spans first (the phase table), then non-zero counters.
    pub fn write_summary<W: Write>(&self, w: &mut W) -> io::Result<()> {
        if !self.spans.is_empty() {
            writeln!(
                w,
                "{:<44} {:>10} {:>12} {:>12}",
                "phase", "calls", "total", "mean"
            )?;
            for (path, s) in &self.spans {
                let total = Duration::from_nanos(clamp_ns(s.total_ns));
                let mean = Duration::from_nanos(clamp_ns(s.total_ns / u128::from(s.count.max(1))));
                writeln!(
                    w,
                    "{:<44} {:>10} {:>12} {:>12}",
                    path,
                    s.count,
                    format_duration(total),
                    format_duration(mean)
                )?;
            }
        }
        let nonzero: Vec<(&String, &u64)> = self.counters.iter().filter(|(_, v)| **v > 0).collect();
        if !nonzero.is_empty() {
            writeln!(w, "{:<44} {:>10}", "counter", "value")?;
            for (name, value) in nonzero {
                writeln!(w, "{name:<44} {value:>10}")?;
            }
        }
        Ok(())
    }
}

fn clamp_ns(ns: u128) -> u64 {
    u64::try_from(ns).unwrap_or(u64::MAX)
}

/// Formats a duration compactly for the summary table and human-readable
/// experiment logs (`"412ns"`, `"3.2µs"`, `"15.0ms"`, `"2.34s"`,
/// `"2m30s"`). Re-exported as `soi_util::timer::format_duration`.
///
/// Unit boundaries are exact (`1_000ns` is `"1.0µs"`, not `"1000ns"`),
/// and a value whose rounded mantissa would read `1000.0` is promoted to
/// the next unit (`999_950ns` is `"1.0ms"`, never `"1000.0µs"`). Runs of
/// 100 seconds or more switch to a minutes-and-seconds form, where
/// sub-second precision is noise.
pub fn format_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        return format!("{ns}ns");
    }
    if ns < 1_000_000 {
        let us = ns as f64 / 1e3;
        if us < 999.95 {
            return format!("{us:.1}µs");
        }
        return "1.0ms".to_string();
    }
    if ns < 1_000_000_000 {
        let ms = ns as f64 / 1e6;
        if ms < 999.95 {
            return format!("{ms:.1}ms");
        }
        return "1.00s".to_string();
    }
    let secs = ns as f64 / 1e9;
    if secs < 99.995 {
        return format!("{secs:.2}s");
    }
    let total = secs.round() as u128;
    format!("{}m{:02}s", total / 60, total % 60)
}

/// Replaces the value of every `"wall_*":` field in a JSONL report with
/// `0`, leaving deterministic fields untouched. Masked reports from two
/// same-seed runs must be byte-identical.
pub fn mask_wall_clock(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(at) = rest.find("\"wall_") {
        let Some(colon_rel) = rest[at..].find(':') else {
            break;
        };
        let value_start = at + colon_rel + 1;
        out.push_str(&rest[..value_start]);
        out.push('0');
        let tail = &rest[value_start..];
        let end = tail.find([',', '}']).unwrap_or(tail.len());
        rest = &tail[end..];
    }
    out.push_str(rest);
    out
}

/// Formats an `f64` as a JSON number (`null` for non-finite values).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Escapes a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::lock;

    fn seeded_work(sleep: bool) -> RunReport {
        crate::reset();
        crate::metrics::counter("test.report.items").add(42);
        crate::metrics::gauge("test.report.ratio").set(0.5);
        crate::metrics::histogram("test.report.sizes", &[2.0, 8.0]).observe(3.0);
        {
            let _s = crate::span("phase_a");
            if sleep {
                std::thread::sleep(Duration::from_millis(2));
            }
            let _inner = crate::span("phase_b");
        }
        let w = crate::metrics::wall_hist("test.report.latency");
        w.observe_ns(if sleep { 2_000_000 } else { 800 });
        w.observe_ns(if sleep { 9_000_000 } else { 1_200 });
        {
            let _reg = crate::perthread::register(0);
            crate::perthread::record_busy(if sleep { 5_000 } else { 1_000 });
            crate::perthread::record_items(4);
            crate::perthread::record_lifetime(if sleep { 6_000 } else { 2_000 });
        }
        crate::perthread::note_dispatch(2, 4, if sleep { 6_000 } else { 2_000 });
        RunReport::collect(&[("command", "test"), ("seed", "42")])
    }

    #[test]
    fn jsonl_lines_are_self_describing() {
        let _g = lock();
        let report = seeded_work(false);
        let text = report.to_jsonl_string();
        assert!(text.contains("{\"type\":\"config\",\"key\":\"command\",\"value\":\"test\"}"));
        assert!(text.contains("{\"type\":\"counter\",\"name\":\"test.report.items\",\"value\":42}"));
        assert!(text.contains("{\"type\":\"gauge\",\"name\":\"test.report.ratio\",\"value\":0.5}"));
        assert!(text
            .contains("{\"type\":\"histogram\",\"name\":\"test.report.sizes\",\"bounds\":[2,8],\"counts\":[0,1,0]}"));
        assert!(text.contains("\"type\":\"span\",\"path\":\"phase_a/phase_b\""));
        assert!(text.contains(
            "\"type\":\"wall_hist\",\"name\":\"test.report.latency\",\"count\":2,\"wall_p50_ns\":"
        ));
        assert!(text.contains("\"type\":\"thread\",\"name\":\"thread.0\",\"wall_busy_ns\":"));
        assert!(text.contains(
            "\"type\":\"pool\",\"name\":\"pool\",\"dispatches\":1,\"items\":4,\"workers_max\":2,"
        ));
    }

    #[test]
    fn masked_reports_are_identical_across_runs() {
        let _g = lock();
        // Two runs with identical counts but very different wall times.
        let fast = seeded_work(false).to_jsonl_string();
        let slow = seeded_work(true).to_jsonl_string();
        assert_ne!(fast, slow, "span timings should differ before masking");
        assert_eq!(mask_wall_clock(&fast), mask_wall_clock(&slow));
    }

    #[test]
    fn mask_only_touches_wall_fields() {
        let line = "{\"type\":\"span\",\"path\":\"x\",\"count\":3,\"wall_ns_total\":981,\"wall_ns_min\":1,\"wall_ns_max\":977}\n";
        let masked = mask_wall_clock(line);
        assert_eq!(
            masked,
            "{\"type\":\"span\",\"path\":\"x\",\"count\":3,\"wall_ns_total\":0,\"wall_ns_min\":0,\"wall_ns_max\":0}\n"
        );
    }

    #[test]
    fn summary_table_lists_phases_and_counters() {
        let _g = lock();
        let report = seeded_work(false);
        let mut buf = Vec::new();
        report.write_summary(&mut buf).expect("write to Vec");
        let text = String::from_utf8_lossy(&buf);
        assert!(text.contains("phase"));
        assert!(text.contains("phase_a/phase_b"));
        assert!(text.contains("test.report.items"));
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
