//! Flag and experiment-name parsing for `run_all`, and its name table.
//!
//! No external CLI dependency: the flags are few and uniform
//! (`--scale`, `--samples`, `--seed`, `--k`, `--out`, `--dataset`).

use crate::{experiments as ex, extensions as ext};
use std::io::Write;

/// An experiment: writes its TSV rows to the sink.
pub type Runner = fn(&Args, &mut dyn Write) -> std::io::Result<()>;

/// Every experiment by name; `run_all` with no name runs the first eight (§6).
pub const EXPERIMENTS: [(&str, Runner); 11] = [
    ("table1", |a, w| ex::table1(a, w)),
    ("figure3", |a, w| ex::figure3(a, w)),
    ("table2", |a, w| ex::table2(a, w)),
    ("figure4", |a, w| ex::figure4(a, w)),
    ("figure5", |a, w| ex::figure5(a, w)),
    ("figure6", |a, w| ex::figure6(a, w)),
    ("figure7", |a, w| ex::figure7(a, w)),
    ("figure8", |a, w| ex::figure8(a, w)),
    ("ext_learners", |a, w| ext::table_learners(a, w)),
    ("ext_lt", |a, w| ext::figure_lt(a, w)),
    ("ext_baselines", |a, w| ext::figure_baselines(a, w)),
];

/// Parsed common flags.
#[derive(Clone, Debug)]
pub struct Args {
    /// Dataset size multiplier (default 1.0).
    pub scale: f64,
    /// Sampled worlds / cascades ℓ (default 256; the paper uses 1000).
    pub samples: usize,
    /// Master seed (default 42).
    pub seed: u64,
    /// Seed-set size for influence-maximization experiments (default 200,
    /// matching the paper).
    pub k: usize,
    /// Restrict to configurations whose name contains this substring.
    pub dataset: Option<String>,
    /// Output directory for `run_all` (default `target/experiments`).
    pub out: String,
    /// What `run_all` runs: the rows named positionally, else the first eight.
    pub experiments: Vec<(&'static str, Runner)>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            scale: 1.0,
            samples: 256,
            seed: 42,
            k: 200,
            dataset: None,
            out: "target/experiments".to_string(),
            experiments: Vec::new(),
        }
    }
}

impl Args {
    /// Parses `std::env::args()`, exiting with a usage message on error.
    pub fn parse() -> Args {
        match Args::try_parse(std::env::args().skip(1)) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("error: {e}");
                eprintln!(
                    "usage: run_all [NAME...] [--scale F] [--samples N] [--seed N] [--k N] \
                     [--dataset SUBSTR] [--out DIR]"
                );
                std::process::exit(2);
            }
        }
    }

    /// Parses an explicit iterator of arguments (testable).
    pub fn try_parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut out = Args::default();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
            match flag.as_str() {
                "--scale" => {
                    out.scale = value("--scale")?
                        .parse()
                        .map_err(|e| format!("--scale: {e}"))?;
                    if out.scale <= 0.0 {
                        return Err("--scale must be positive".into());
                    }
                }
                "--samples" => {
                    out.samples = value("--samples")?
                        .parse()
                        .map_err(|e| format!("--samples: {e}"))?;
                    if out.samples == 0 {
                        return Err("--samples must be positive".into());
                    }
                }
                "--seed" => {
                    out.seed = value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?;
                }
                "--k" => {
                    out.k = value("--k")?.parse().map_err(|e| format!("--k: {e}"))?;
                    if out.k == 0 {
                        return Err("--k must be positive".into());
                    }
                }
                "--dataset" => out.dataset = Some(value("--dataset")?),
                "--out" => out.out = value("--out")?,
                name if !name.starts_with("--") => {
                    let row = EXPERIMENTS.iter().find(|e| e.0 == name).ok_or_else(|| {
                        let valid = EXPERIMENTS.map(|e| e.0).join(" ");
                        format!("unknown experiment {name:?}; valid: {valid}")
                    })?;
                    out.experiments.push(*row);
                }
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        if out.experiments.is_empty() {
            out.experiments = EXPERIMENTS[..8].to_vec();
        }
        Ok(out)
    }

    /// Whether a configuration name passes the `--dataset` filter.
    pub fn selects(&self, name: &str) -> bool {
        self.dataset.as_ref().is_none_or(|d| name.contains(d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::try_parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn defaults() {
        let a = parse("").unwrap();
        assert_eq!(a.scale, 1.0);
        assert_eq!(a.samples, 256);
        assert_eq!(a.seed, 42);
        assert_eq!(a.k, 200);
        assert!(a.selects("anything"));
    }

    #[test]
    fn full_flags() {
        let a = parse("--scale 0.5 --samples 1000 --seed 7 --k 50 --dataset digg --out /tmp/x")
            .unwrap();
        assert_eq!(a.scale, 0.5);
        assert_eq!(a.samples, 1000);
        assert_eq!(a.seed, 7);
        assert_eq!(a.k, 50);
        assert!(a.selects("digg-syn-S"));
        assert!(!a.selects("twitter-syn-S"));
        assert_eq!(a.out, "/tmp/x");
    }

    #[test]
    fn names_select_experiments() {
        let names = EXPERIMENTS.map(|e| e.0);
        assert!((0..11).all(|i| !names[..i].contains(&names[i])), "once");
        let run = |s| parse(s).unwrap().experiments.into_iter().map(|e| e.0);
        assert!(run("--k 5").eq(names[..8].iter().copied()), "the §6 suite");
        assert!(run("table2 --k 5 ext_lt").eq(["table2", "ext_lt"]));
        let err = parse("table2 figure9").unwrap_err();
        assert!(err.contains("figure9"), "{err}");
        assert!(names.iter().all(|n| err.contains(n)), "{err}");
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse("--scale 0").is_err());
        assert!(parse("--scale -1").is_err());
        assert!(parse("--samples 0").is_err());
        assert!(parse("--samples").is_err());
        assert!(parse("--mystery 3").is_err());
        assert!(parse("--k nope").is_err());
    }
}
