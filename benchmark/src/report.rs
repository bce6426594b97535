//! Results: the measured values of one pass, the host stamp that makes
//! them attributable, their JSON forms, and the comparison of two result
//! sets of the same code against the catalogue's regression bounds.

use crate::spec::{metric_def, Better, MetricDef, Res, END_TO_END};
use soi_server::json::{self, Value};
use std::fmt::Write;

/// Outcome of one pass (traced or not) over one workload.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// `(metric name, value)` in measurement order.
    pub values: Vec<(&'static str, f64)>,
    /// Operations attempted: processes run, requests sent, checks made.
    pub attempted: u64,
    /// Operations that failed or answered wrongly.
    pub failed: u64,
    /// Human-readable context: sample counts, min/max, failed checks.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric; the name must be catalogued.
    pub fn put(&mut self, name: &'static str, value: f64) -> Res<()> {
        metric_def(name).ok_or_else(|| format!("metric {name:?} is not catalogued"))?;
        self.values.push((name, value));
        Ok(())
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Counts one checked operation; a failure is noted with its reason.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("FAILED: {}", what()));
        }
    }

    /// Counts a batch of already-judged operations.
    pub fn count(&mut self, attempted: usize, failed: usize, what: &str) {
        self.attempted += attempted as u64;
        self.failed += failed as u64;
        if failed > 0 {
            self.notes
                .push(format!("FAILED: {failed} of {attempted} {what}"));
        }
    }

    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed` and one entry per metric of `defs`, every digit kept.
    pub fn result_line(&self, defs: &[MetricDef]) -> Res<String> {
        let mut metrics = Vec::with_capacity(defs.len());
        for d in defs {
            let v = self
                .get(d.name)
                .ok_or_else(|| format!("metric {} was not measured", d.name))?;
            if !v.is_finite() {
                return Err(format!("metric {} is not finite", d.name));
            }
            metrics.push(format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                d.name, d.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        ))
    }

    /// Every value by name with its unit, then the notes.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.values {
            let (unit, better) = metric_def(name).map_or(("", ""), |d| {
                let better = match d.better {
                    Better::Higher => "higher is better",
                    Better::Lower => "lower is better",
                };
                (d.unit, better)
            });
            let _ = writeln!(out, "  {name:<32} {v:>16.6} {unit:<6} ({better})");
        }
        for note in &self.notes {
            let _ = writeln!(out, "  # {note}");
        }
        out
    }
}

/// Where and from what a result set was measured.
#[derive(Clone, Debug)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub cores: usize,
    /// `rustc -V` of the build, as passed by `run.sh`.
    pub rustc: String,
    /// Commit of the checkout, as passed by `run.sh`.
    pub commit: String,
    /// Workload seed.
    pub seed: u64,
    /// Whether the graphs were the ÷10 smoke sizes.
    pub smoke: bool,
}

impl Host {
    /// Reads the stamp: core count from the OS, toolchain and commit from
    /// the environment `run.sh` exports.
    pub fn detect(seed: u64, smoke: bool) -> Host {
        let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".to_string());
        Host {
            cores: std::thread::available_parallelism().map_or(1, |p| p.get()),
            rustc: env("SOI_BENCH_RUSTC"),
            commit: env("SOI_BENCH_COMMIT"),
            seed,
            smoke,
        }
    }

    /// Fewer cores than the two the workloads are sized for: threads and
    /// clients time-share, so wall-clock scaling must not be reported.
    pub fn oversubscribed(&self) -> bool {
        self.cores < crate::spec::THREADS
    }

    /// The stamp as a JSON object.
    pub fn json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"oversubscribed\": {}, \"rustc\": \"{}\", \"profile\": \"release lto=thin\", \"commit\": \"{}\", \"seed\": {}, \"smoke\": {}}}",
            self.cores,
            self.oversubscribed(),
            json::escape(&self.rustc),
            json::escape(&self.commit),
            self.seed,
            self.smoke
        )
    }
}

/// A full result set: host stamp plus both passes of every workload run.
pub fn results_json(host: &Host, workloads: &[(&str, Outcome, Outcome)]) -> String {
    let pass = |o: &Outcome| {
        let metrics: Vec<String> = o
            .values
            .iter()
            .map(|(name, v)| format!("\"{name}\": {v}"))
            .collect();
        format!(
            "{{\"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            o.attempted,
            o.failed,
            metrics.join(", ")
        )
    };
    let entries: Vec<String> = workloads
        .iter()
        .map(|(name, e2e, traced)| {
            format!(
                "    \"{name}\": {{\"end_to_end\": {}, \"per_layer\": {}}}",
                pass(e2e),
                pass(traced)
            )
        })
        .collect();
    format!(
        "{{\n  \"host\": {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        host.json(),
        entries.join(",\n")
    )
}

/// Compares two result sets of the same code. Two runs that measure the
/// same thing may land either side of each other, so a metric disagrees
/// when it moved by more than its bound in *either* direction; failures
/// must be equal (and are expected to be zero). `setup_s` is reported but
/// one run's set-up is not held against another's: the builder's driver
/// gates it by the medians of ten runs and exempts its spread, and single
/// set-ups — a sub-millisecond generation, a cold start of a second — do
/// not repeat within any bound it allows. Returns the report and whether
/// the sets agree.
pub fn compare(a_text: &str, b_text: &str) -> Res<(String, bool)> {
    let a = json::parse(a_text)?;
    let b = json::parse(b_text)?;
    let workloads = |v: &Value| -> Res<Vec<String>> {
        Ok(v.get("workloads")
            .and_then(Value::as_obj)
            .ok_or("no `workloads` object")?
            .keys()
            .cloned()
            .collect())
    };
    let names = workloads(&a)?;
    if names != workloads(&b)? {
        return Err("the two result sets cover different workloads".to_string());
    }
    let field = |v: &Value, w: &str, path: &[&str]| -> Option<f64> {
        let mut at = v.get("workloads")?.get(w)?.get("end_to_end")?;
        for key in path {
            at = at.get(key)?;
        }
        at.as_f64()
    };
    let mut report = String::new();
    let mut agree = true;
    for w in &names {
        for d in END_TO_END {
            let (Some(x), Some(y)) = (
                field(&a, w, &["metrics", d.name]),
                field(&b, w, &["metrics", d.name]),
            ) else {
                return Err(format!("{w}: metric {} missing from a result set", d.name));
            };
            let moved = (x - y).abs() / x.min(y);
            let verdict = match (moved <= d.bound, d.name) {
                (true, _) => "ok  ",
                (false, "setup_s") => "note",
                (false, _) => "FAIL",
            };
            agree &= verdict != "FAIL";
            let _ = writeln!(
                report,
                "{verdict} {w:<14} {:<18} {x:>14.4} {y:>14.4} {:>7.2}% (bound {:.0}%)",
                d.name,
                moved * 100.0,
                d.bound * 100.0
            );
        }
        let failed = |v: &Value| field(v, w, &["failed"]);
        if failed(&a) != failed(&b) {
            agree = false;
            let _ = writeln!(report, "FAIL {w:<14} failed operations differ");
        }
    }
    Ok((report, agree))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(scale: f64) -> Outcome {
        let mut o = Outcome::default();
        for d in END_TO_END {
            o.put(d.name, 10.0 * scale).expect("catalogued");
        }
        o.check(true, String::new);
        o
    }

    #[test]
    fn result_line_is_the_contract_shape() {
        let o = outcome(1.0);
        let line = o.result_line(END_TO_END).expect("line");
        let v = json::parse(&line).expect("json");
        let keys: Vec<&String> = v.as_obj().expect("object").keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(
            v.get("metrics").and_then(Value::as_obj).map(|m| m.len()),
            Some(END_TO_END.len())
        );
        assert!(Outcome::default().result_line(END_TO_END).is_err());
        let mut bad = outcome(1.0);
        assert!(bad.put("no.such.metric", 1.0).is_err());
        bad.check(false, || "reason".to_string());
        assert!(bad
            .result_line(END_TO_END)
            .expect("line")
            .contains("\"correct\": false"));
    }

    #[test]
    fn compare_gates_each_metric_by_its_bound_in_both_directions() {
        let host = Host {
            cores: 2,
            rustc: "rustc".into(),
            commit: "c".into(),
            seed: 1,
            smoke: true,
        };
        let set = |scale| results_json(&host, &[("w", outcome(scale), Outcome::default())]);
        let (_, same) = compare(&set(1.0), &set(1.0)).expect("compare");
        assert!(same);
        // 12 % apart: inside the widest bound, outside the 10 % ones.
        let (report, agree) = compare(&set(1.0), &set(1.12)).expect("compare");
        assert!(!agree);
        assert!(
            report.contains("FAIL w") && report.contains("ok   w"),
            "{report}"
        );
        let (_, agree_back) = compare(&set(1.12), &set(1.0)).expect("compare");
        assert!(!agree_back);
        // A single set-up twice as long is reported, not failed.
        let mut slow_setup = outcome(1.0);
        slow_setup.values[0] = ("setup_s", 20.0);
        let slow_setup = results_json(&host, &[("w", slow_setup, Outcome::default())]);
        let (report, agree) = compare(&set(1.0), &slow_setup).expect("compare");
        assert!(agree && report.contains("note w"), "{report}");
        assert!(compare(&set(1.0), "{}").is_err());
        assert!(host.json().contains("\"oversubscribed\": false"));
    }
}
