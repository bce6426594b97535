//! The `soi stats` client: polls a running daemon's `stats` endpoint
//! and renders the snapshot as JSON or Prometheus-style text.
//!
//! Each poll is one `stats` control line
//! ([`crate::protocol::control_line`]) over a fresh connection
//! ([`crate::client::send_one`]). In JSON mode the raw
//! response line is printed per poll (optionally wall-masked), followed
//! — from the second poll on — by a `{"stats_delta":{...}}` line showing
//! how each counter moved since the previous poll, which is what makes
//! `--watch` useful for spotting live traffic. In Prometheus mode the
//! snapshot is re-rendered as a text exposition: `soi_`-prefixed metric
//! names (`[.-]` → `_`), `# TYPE` comments, cumulative `_bucket{le=..}`
//! lines for fixed-bucket histograms, quantile-labeled gauges for the
//! wall-timing histograms, and `thread`-labeled gauges for the
//! per-thread timing plane.

use crate::client;
use crate::json::{self, Value};
use soi_util::SoiError;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Duration;

/// Output format for a stats snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StatsFormat {
    /// Raw response line per poll, plus counter-delta lines under
    /// `--watch`.
    Json,
    /// Prometheus-style text exposition.
    Prom,
}

/// Stats client options.
#[derive(Clone, Debug)]
pub struct StatsConfig {
    /// Server host (the daemon binds 127.0.0.1).
    pub host: String,
    /// Server port.
    pub port: u16,
    /// Number of polls (min 1); `soi stats --watch N` sets N.
    pub watch: u64,
    /// Sleep between polls in milliseconds.
    pub interval_ms: u64,
    /// Output rendering.
    pub format: StatsFormat,
    /// Zero wall-clock values in the output (JSON: `mask_wall_clock`;
    /// Prometheus: wall-sourced series print 0), for golden tests.
    pub mask_wall: bool,
}

impl Default for StatsConfig {
    fn default() -> Self {
        StatsConfig {
            host: "127.0.0.1".to_string(),
            port: 0,
            watch: 1,
            interval_ms: 1000,
            format: StatsFormat::Json,
            mask_wall: false,
        }
    }
}

/// The counter section of a parsed stats response, for delta lines.
fn counter_map(doc: &Value) -> BTreeMap<String, u64> {
    doc.get("counters")
        .and_then(Value::as_obj)
        .map(|obj| {
            obj.iter()
                .filter_map(|(k, v)| v.as_u64().map(|v| (k.clone(), v)))
                .collect()
        })
        .unwrap_or_default()
}

/// Polls the daemon `config.watch` times and renders each snapshot.
/// Returns the number of polls that got a response (all of them, or the
/// error that stopped the loop).
pub fn run_stats<W: Write>(config: &StatsConfig, out: &mut W) -> Result<u64, SoiError> {
    let mut previous: Option<BTreeMap<String, u64>> = None;
    let polls = config.watch.max(1);
    for poll in 0..polls {
        if poll > 0 && config.interval_ms > 0 {
            std::thread::sleep(Duration::from_millis(config.interval_ms));
        }
        let request = crate::protocol::control_line(poll + 1, "stats");
        let line = client::send_one(&config.host, config.port, &request)?;
        let doc = json::parse(&line)
            .map_err(|e| SoiError::invalid(format!("malformed stats response: {e}")))?;
        match config.format {
            StatsFormat::Json => {
                let printed = if config.mask_wall {
                    soi_obs::report::mask_wall_clock(&line)
                } else {
                    line.clone()
                };
                writeln!(out, "{printed}").map_err(|e| SoiError::io("stdout", e))?;
                let counters = counter_map(&doc);
                if let Some(prev) = previous.replace(counters.clone()) {
                    writeln!(out, "{}", delta_line(&prev, &counters))
                        .map_err(|e| SoiError::io("stdout", e))?;
                }
            }
            StatsFormat::Prom => {
                write_prom(&doc, config.mask_wall, out).map_err(|e| SoiError::io("stdout", e))?;
            }
        }
    }
    Ok(polls)
}

/// The `{"stats_delta":{...}}` line: counter movement since the prior
/// poll (new counters delta against 0; decreases — a daemon restart —
/// re-baseline as the current value).
fn delta_line(prev: &BTreeMap<String, u64>, now: &BTreeMap<String, u64>) -> String {
    let moved: Vec<String> = now
        .iter()
        .map(|(name, &v)| {
            let delta = v.saturating_sub(prev.get(name).copied().unwrap_or(0));
            format!("\"{name}\":{delta}")
        })
        .collect();
    format!("{{\"stats_delta\":{{{}}}}}", moved.join(","))
}

/// A metric name in Prometheus form: `soi_` prefix, `[.-]` → `_`.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    out.push_str("soi_");
    for c in name.chars() {
        out.push(match c {
            '.' | '-' => '_',
            c if c.is_ascii_alphanumeric() || c == '_' => c,
            _ => '_',
        });
    }
    out
}

/// Formats one numeric sample, zeroed when `mask` (wall-sourced series).
fn sample(v: u64, mask: bool) -> u64 {
    if mask {
        0
    } else {
        v
    }
}

/// Renders the parsed stats snapshot as a Prometheus text exposition.
fn write_prom<W: Write>(doc: &Value, mask_wall: bool, out: &mut W) -> std::io::Result<()> {
    if let Some(counters) = doc.get("counters").and_then(Value::as_obj) {
        for (name, v) in counters {
            let Some(v) = v.as_u64() else { continue };
            let name = prom_name(name);
            writeln!(out, "# TYPE {name} counter")?;
            writeln!(out, "{name} {v}")?;
        }
    }
    if let Some(gauges) = doc.get("gauges").and_then(Value::as_obj) {
        for (name, v) in gauges {
            let Some(v) = v.as_f64() else { continue };
            let name = prom_name(name);
            writeln!(out, "# TYPE {name} gauge")?;
            writeln!(out, "{name} {}", crate::json::fmt_num(v))?;
        }
    }
    if let Some(hists) = doc.get("histograms").and_then(Value::as_obj) {
        for (name, h) in hists {
            let bounds: Vec<f64> = h
                .get("bounds")
                .and_then(Value::as_arr)
                .map(|a| a.iter().filter_map(Value::as_f64).collect())
                .unwrap_or_default();
            let counts: Vec<u64> = h
                .get("counts")
                .and_then(Value::as_arr)
                .map(|a| a.iter().filter_map(Value::as_u64).collect())
                .unwrap_or_default();
            let name = prom_name(name);
            writeln!(out, "# TYPE {name} histogram")?;
            let mut cumulative = 0u64;
            for (i, &count) in counts.iter().enumerate() {
                cumulative += count;
                let le = bounds
                    .get(i)
                    .map_or_else(|| "+Inf".to_string(), |b| crate::json::fmt_num(*b));
                writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}")?;
            }
            writeln!(out, "{name}_count {cumulative}")?;
        }
    }
    if let Some(hists) = doc.get("timing_hists").and_then(Value::as_obj) {
        for (name, h) in hists {
            let get = |key: &str| h.get(key).and_then(Value::as_u64).unwrap_or(0);
            let name = prom_name(name);
            writeln!(out, "# TYPE {name}_ns summary")?;
            writeln!(
                out,
                "{name}_ns{{quantile=\"0.5\"}} {}",
                sample(get("wall_p50_ns"), mask_wall)
            )?;
            writeln!(
                out,
                "{name}_ns{{quantile=\"0.9\"}} {}",
                sample(get("wall_p90_ns"), mask_wall)
            )?;
            writeln!(out, "{name}_ns_count {}", get("count"))?;
            writeln!(
                out,
                "{name}_ns_max {}",
                sample(get("wall_max_ns"), mask_wall)
            )?;
        }
    }
    if let Some(threads) = doc.get("threads").and_then(Value::as_arr) {
        let fields = [
            ("wall_busy_ns", "soi_thread_busy_ns"),
            ("wall_idle_ns", "soi_thread_idle_ns"),
            ("wall_merge_ns", "soi_thread_merge_ns"),
            ("wall_lock_wait_ns", "soi_thread_lock_wait_ns"),
            ("wall_lifetime_ns", "soi_thread_lifetime_ns"),
            ("wall_items", "soi_thread_items"),
        ];
        for (field, series) in fields {
            writeln!(out, "# TYPE {series} gauge")?;
            for t in threads {
                let Some(name) = t.get("name").and_then(Value::as_str) else {
                    continue;
                };
                let v = t.get(field).and_then(Value::as_u64).unwrap_or(0);
                // Items are schedule-dependent but not wall-clock; only
                // the *_ns series zero under masking.
                let masked = mask_wall && field != "wall_items";
                writeln!(out, "{series}{{thread=\"{name}\"}} {}", sample(v, masked))?;
            }
        }
    }
    if let Some(pool) = doc.get("pool").and_then(Value::as_obj) {
        for (field, wall) in [
            ("dispatches", false),
            ("items", false),
            ("workers_max", false),
            ("wall_capacity_ns", true),
            ("wall_lifetime_ns", true),
            ("wall_imbalance_ns", true),
        ] {
            let Some(v) = pool.get(field).and_then(Value::as_u64) else {
                continue;
            };
            let series = prom_name(&format!("pool.{}", field.trim_start_matches("wall_")));
            writeln!(out, "# TYPE {series} gauge")?;
            writeln!(out, "{series} {}", sample(v, mask_wall && wall))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_doc() -> Value {
        let text = concat!(
            "{\"v\":1,\"id\":1,\"status\":\"ok\",",
            "\"counters\":{\"server.requests_total\":7,\"server.cache_hits\":3},",
            "\"gauges\":{\"server.queue_depth\":2},",
            "\"histograms\":{\"test.sizes\":{\"bounds\":[1,8],\"counts\":[2,1,0]}},",
            "\"timing_hists\":{\"server.request_ns\":",
            "{\"count\":7,\"wall_p50_ns\":1000,\"wall_p90_ns\":2000,\"wall_max_ns\":3000}},",
            "\"threads\":[{\"name\":\"thread.0\",\"wall_busy_ns\":50,\"wall_idle_ns\":9,",
            "\"wall_merge_ns\":1,\"wall_lock_wait_ns\":0,\"wall_lifetime_ns\":60,",
            "\"wall_items\":4}],",
            "\"pool\":{\"dispatches\":2,\"items\":8,\"workers_max\":2,",
            "\"wall_capacity_ns\":120,\"wall_lifetime_ns\":110,\"wall_imbalance_ns\":10},",
            "\"wall_ns\":42}"
        );
        json::parse(text).expect("sample doc")
    }

    #[test]
    fn prom_rendering_covers_every_section() {
        let mut out = Vec::new();
        write_prom(&sample_doc(), false, &mut out).expect("render");
        let text = String::from_utf8(out).expect("utf8");
        for needle in [
            "# TYPE soi_server_requests_total counter",
            "soi_server_requests_total 7",
            "# TYPE soi_server_queue_depth gauge",
            "soi_server_queue_depth 2",
            "# TYPE soi_test_sizes histogram",
            "soi_test_sizes_bucket{le=\"1\"} 2",
            "soi_test_sizes_bucket{le=\"8\"} 3",
            "soi_test_sizes_bucket{le=\"+Inf\"} 3",
            "soi_test_sizes_count 3",
            "# TYPE soi_server_request_ns_ns summary",
            "soi_server_request_ns_ns{quantile=\"0.5\"} 1000",
            "soi_server_request_ns_ns_count 7",
            "soi_thread_busy_ns{thread=\"thread.0\"} 50",
            "soi_thread_items{thread=\"thread.0\"} 4",
            "soi_pool_dispatches 2",
            "soi_pool_imbalance_ns 10",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (series, value) = line.rsplit_once(' ').expect(line);
            assert!(!series.is_empty() && value.parse::<f64>().is_ok(), "{line}");
        }
    }

    #[test]
    fn prom_masking_zeroes_wall_series_only() {
        let mut out = Vec::new();
        write_prom(&sample_doc(), true, &mut out).expect("render");
        let text = String::from_utf8(out).expect("utf8");
        assert!(
            text.contains("soi_server_request_ns_ns{quantile=\"0.5\"} 0"),
            "{text}"
        );
        assert!(
            text.contains("soi_server_request_ns_ns_count 7"),
            "counts survive: {text}"
        );
        assert!(
            text.contains("soi_thread_busy_ns{thread=\"thread.0\"} 0"),
            "{text}"
        );
        assert!(
            text.contains("soi_thread_items{thread=\"thread.0\"} 4"),
            "{text}"
        );
        assert!(text.contains("soi_pool_items 8"), "{text}");
        assert!(text.contains("soi_pool_capacity_ns 0"), "{text}");
    }

    #[test]
    fn delta_line_tracks_counter_movement() {
        let prev: BTreeMap<String, u64> = [("a".to_string(), 5), ("b".to_string(), 2)]
            .into_iter()
            .collect();
        let now: BTreeMap<String, u64> = [
            ("a".to_string(), 9),
            ("b".to_string(), 2),
            ("c".to_string(), 4),
        ]
        .into_iter()
        .collect();
        assert_eq!(
            delta_line(&prev, &now),
            "{\"stats_delta\":{\"a\":4,\"b\":0,\"c\":4}}"
        );
    }

    #[test]
    fn prom_names_are_sanitized() {
        assert_eq!(prom_name("server.request_ns"), "soi_server_request_ns");
        assert_eq!(prom_name("infmax-tc.rounds"), "soi_infmax_tc_rounds");
    }

    /// End-to-end against a scripted server: two polls produce two
    /// snapshots and one delta line.
    #[test]
    fn watch_polls_and_prints_deltas() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let port = listener.local_addr().expect("addr").port();
        let server = std::thread::spawn(move || {
            for reqs in [3u64, 8] {
                let (stream, _) = listener.accept().expect("accept");
                let mut writer = stream.try_clone().expect("clone");
                let mut reader = std::io::BufReader::new(stream);
                let mut line = String::new();
                std::io::BufRead::read_line(&mut reader, &mut line).expect("read");
                assert!(line.contains("\"type\":\"stats\""), "{line}");
                let payload = format!(
                    "\"counters\":{{\"server.requests_total\":{reqs}}},\"stats_version\":2"
                );
                writeln!(writer, "{}", crate::protocol::encode_ok(1, &payload, 5)).expect("write");
                writer.flush().expect("flush");
            }
        });
        let config = StatsConfig {
            port,
            watch: 2,
            interval_ms: 0,
            mask_wall: true,
            ..StatsConfig::default()
        };
        let mut out = Vec::new();
        let polls = run_stats(&config, &mut out).expect("stats");
        server.join().expect("server");
        assert_eq!(polls, 2);
        let text = String::from_utf8(out).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "{text}");
        assert!(lines[0].contains("\"server.requests_total\":3"), "{text}");
        assert!(lines[0].contains("\"wall_ns\":0"), "masked: {text}");
        assert!(lines[1].contains("\"server.requests_total\":8"), "{text}");
        assert_eq!(
            lines[2], "{\"stats_delta\":{\"server.requests_total\":5}}",
            "{text}"
        );
    }
}
