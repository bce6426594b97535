//! Shared experiment implementations: each function reproduces one table
//! or figure and writes TSV rows to the supplied writer. The per-figure
//! binaries and `run_all` are thin wrappers over these.

use crate::Args;
use soi_core::{
    all_typical_cascades, index_median, typical_cascade_of_set, NodeScratch, TypicalCascadeConfig,
};
use soi_datasets::{all_configs, build, Dataset};
use soi_graph::NodeId;
use soi_index::{CascadeIndex, IndexConfig};
use soi_influence::{infmax_std, infmax_tc, saturation, SpreadOracle};
use soi_jaccard::median::MedianConfig;
use soi_util::runtime::Deadline;
use soi_util::stats::{percentile_sorted, RunningStats};
use soi_util::timer::Timer;
use soi_util::tsv::{fmt_f64, TsvWriter};
use std::io::Write;

/// Builds the selected dataset configurations at the requested scale.
pub fn datasets(args: &Args) -> Vec<Dataset> {
    all_configs()
        .into_iter()
        .filter(|&(n, s)| args.selects(&format!("{}-{}", n.name(), s.suffix())))
        .map(|(n, s)| {
            eprintln!(
                "building {}-{} (scale {})...",
                n.name(),
                s.suffix(),
                args.scale
            );
            build(n, s, args.scale, args.seed)
        })
        .collect()
}

fn index_of(data: &Dataset, args: &Args) -> CascadeIndex {
    CascadeIndex::build(
        &data.graph,
        IndexConfig {
            num_worlds: args.samples,
            seed: args.seed ^ 0x1d9,
            ..IndexConfig::default()
        },
    )
}

// ---------------------------------------------------------------- Table 1

/// Table 1: dataset characteristics.
pub fn table1<W: Write>(args: &Args, out: W) -> std::io::Result<()> {
    let mut w = TsvWriter::new(out, &["dataset", "nodes", "arcs", "type", "probabilities"])?;
    for data in datasets(args) {
        w.row(&[
            data.name(),
            data.graph.num_nodes().to_string(),
            data.graph.num_edges().to_string(),
            if data.network.directed() {
                "directed"
            } else {
                "undirected"
            }
            .to_string(),
            if data.source.is_learnt() {
                "learnt"
            } else {
                "assigned"
            }
            .to_string(),
        ])?;
    }
    w.flush()
}

// --------------------------------------------------------------- Figure 3

/// Figure 3: CDF of edge probabilities per configuration (the paper skips
/// the fixed model, "not meaningful" — we do too).
pub fn figure3<W: Write>(args: &Args, out: W) -> std::io::Result<()> {
    let mut w = TsvWriter::new(out, &["dataset", "probability", "cdf"])?;
    for data in datasets(args) {
        if data.source == soi_datasets::ProbSource::Fixed {
            continue;
        }
        let name = data.name();
        let cdf = soi_util::stats::empirical_cdf(data.graph.probs());
        // Thin dense CDFs to ~200 plot points.
        let step = (cdf.len() / 200).max(1);
        for (i, &(x, f)) in cdf.iter().enumerate() {
            if i % step == 0 || i + 1 == cdf.len() {
                w.row(&[name.clone(), fmt_f64(x), fmt_f64(f)])?;
            }
        }
    }
    w.flush()
}

// ---------------------------------------------------------------- Table 2

/// Per-dataset sphere statistics (shared by Table 2 and Figure 5).
pub struct SphereStats {
    /// Configuration name.
    pub name: String,
    /// Typical cascades for every node.
    pub spheres: Vec<soi_core::NodeTypicalCascade>,
    /// The index used (for downstream experiments).
    pub index: CascadeIndex,
    /// The dataset (graph retained for cost estimation).
    pub dataset: Dataset,
}

/// Computes all typical cascades for every selected configuration.
pub fn compute_spheres(args: &Args) -> Vec<SphereStats> {
    datasets(args)
        .into_iter()
        .map(|data| {
            let name = data.name();
            eprintln!("indexing + spheres for {name}...");
            let index = index_of(&data, args);
            let spheres = all_typical_cascades(&index, &MedianConfig::default(), 0);
            SphereStats {
                name,
                spheres,
                index,
                dataset: data,
            }
        })
        .collect()
}

/// Table 2: avg / sd / max of the typical-cascade size over all nodes.
pub fn table2<W: Write>(args: &Args, out: W) -> std::io::Result<()> {
    let mut w = TsvWriter::new(out, &["dataset", "avg_size", "sd_size", "max_size"])?;
    for s in compute_spheres(args) {
        let mut rs = RunningStats::new();
        for sphere in &s.spheres {
            rs.push(sphere.median.len() as f64);
        }
        w.row(&[
            s.name,
            format!("{:.1}", rs.mean()),
            format!("{:.1}", rs.sample_sd()),
            format!("{}", rs.max() as u64),
        ])?;
    }
    w.flush()
}

// --------------------------------------------------------------- Figure 4

/// Figure 4: distribution of per-node time to compute the typical cascade
/// and its expected cost. Reports percentiles (ms) per dataset.
pub fn figure4<W: Write>(args: &Args, out: W) -> std::io::Result<()> {
    let mut w = TsvWriter::new(
        out,
        &[
            "dataset",
            "phase",
            "p50_ms",
            "p90_ms",
            "p99_ms",
            "max_ms",
            "mean_cost",
        ],
    )?;
    for data in datasets(args) {
        let name = data.name();
        eprintln!("figure4: {name}...");
        let index = index_of(&data, args);
        let n = index.num_nodes();
        // Probe every node at small scale, else a deterministic sample.
        let stride = (n / 2000).max(1);
        let mut median_times = Vec::new();
        let mut cost_times = Vec::new();
        let mut costs = RunningStats::new();
        let cost_samples = args.samples;
        let (median, unlimited) = (MedianConfig::default(), Deadline::unlimited());
        let mut scratch = NodeScratch::new(&index);
        for v in (0..n).step_by(stride) {
            let t = Timer::start();
            let fit = index_median(&index, v as NodeId, &median, &unlimited, &mut scratch).value();
            median_times.push(t.elapsed_ms());

            let t = Timer::start();
            let cost = soi_core::expected_cost(
                &data.graph,
                v as NodeId,
                &fit.median,
                cost_samples,
                args.seed ^ 0x5e,
            );
            cost_times.push(t.elapsed_ms());
            costs.push(cost);
        }
        for (phase, mut times) in [("median", median_times), ("expected_cost", cost_times)] {
            times.sort_by(f64::total_cmp);
            w.row(&[
                name.clone(),
                phase.to_string(),
                format!("{:.3}", percentile_sorted(&times, 50.0)),
                format!("{:.3}", percentile_sorted(&times, 90.0)),
                format!("{:.3}", percentile_sorted(&times, 99.0)),
                format!("{:.3}", percentile_sorted(&times, 100.0)),
                format!("{:.3}", costs.mean()),
            ])?;
        }
    }
    w.flush()
}

// --------------------------------------------------------------- Figure 5

/// Figure 5: expected cost vs typical-cascade size, bucketed by size.
pub fn figure5<W: Write>(args: &Args, out: W) -> std::io::Result<()> {
    let mut w = TsvWriter::new(
        out,
        &[
            "dataset",
            "size_bucket_lo",
            "size_bucket_hi",
            "nodes",
            "mean_cost",
            "max_cost",
        ],
    )?;
    for s in compute_spheres(args) {
        // Evaluate expected cost on fresh cascades for a deterministic
        // node sample (full evaluation is quadratic on large configs).
        let n = s.spheres.len();
        let stride = (n / 1500).max(1);
        let max_size = s
            .spheres
            .iter()
            .map(|x| x.median.len())
            .max()
            .unwrap_or(1)
            .max(2);
        // Geometric size buckets: [1,2), [2,4), [4,8), ...
        let mut buckets: Vec<(usize, usize, RunningStats)> = Vec::new();
        let mut lo = 1usize;
        while lo <= max_size {
            buckets.push((lo, lo * 2, RunningStats::new()));
            lo *= 2;
        }
        for sphere in s.spheres.iter().step_by(stride) {
            let cost = soi_core::expected_cost(
                &s.dataset.graph,
                sphere.node,
                &sphere.median,
                args.samples,
                args.seed ^ 0xf5,
            );
            let size = sphere.median.len().max(1);
            let b = ((size as f64).log2().floor() as usize).min(buckets.len() - 1);
            buckets[b].2.push(cost);
        }
        for (lo, hi, rs) in &buckets {
            if rs.count() == 0 {
                continue;
            }
            w.row(&[
                s.name.clone(),
                lo.to_string(),
                hi.to_string(),
                rs.count().to_string(),
                format!("{:.3}", rs.mean()),
                format!("{:.3}", rs.max()),
            ])?;
        }
    }
    w.flush()
}

// --------------------------------------------------------------- Figure 6

/// One Figure 6 panel: spread curves of the competing methods on one
/// dataset.
pub struct SpreadCurves {
    /// Configuration name.
    pub name: String,
    /// `σ(S_j)` for the paper's `InfMax_std` (CELF over fresh Monte-Carlo
    /// estimates — the baseline Figure 6 actually compares against).
    pub std_curve: Vec<f64>,
    /// `σ(S_j)` for the shared-world-pool greedy (a stronger, modern
    /// `InfMax_std` variant; reported as an extension).
    pub pool_curve: Vec<f64>,
    /// `σ(S_j)` for `InfMax_TC`.
    pub tc_curve: Vec<f64>,
    /// Seeds of the MC-estimate `InfMax_std` (used by Figure 8).
    pub std_seeds: Vec<NodeId>,
    /// Seeds of the pool-based greedy.
    pub pool_seeds: Vec<NodeId>,
    /// Seeds selected by `InfMax_TC`.
    pub tc_seeds: Vec<NodeId>,
}

/// Runs both influence-maximization methods on one prepared configuration.
///
/// Selection uses the index's world pool (the paper gives both methods the
/// same sampling budget); the reported spread curves are evaluated on a
/// *fresh* world pool. Evaluating on the selection pool would flatter
/// `InfMax_std`, which greedily overfits to exactly those worlds — the
/// saturation phenomenon of §6.4 is only visible under out-of-sample
/// evaluation.
pub fn spread_curves(s: &SphereStats, k: usize) -> SpreadCurves {
    let pool_run = infmax_std(&s.index, k, 0);
    let mc_run = soi_influence::infmax_std_mc(
        &s.dataset.graph,
        k,
        s.index.num_worlds(),
        s.index.config().seed ^ 0x3c3c,
    );
    let cascades: Vec<Vec<NodeId>> = s.spheres.iter().map(|x| x.median.clone()).collect();
    let tc_run = infmax_tc(&cascades, k, 0);

    let eval_index = CascadeIndex::build(
        &s.dataset.graph,
        IndexConfig {
            num_worlds: s.index.num_worlds(),
            seed: s.index.config().seed ^ 0xEEE1,
            ..IndexConfig::default()
        },
    );
    let eval_curve = |seeds: &[NodeId]| {
        let mut oracle = SpreadOracle::new(&eval_index);
        seeds
            .iter()
            .map(|&v| {
                oracle.commit(v);
                oracle.current_spread()
            })
            .collect::<Vec<f64>>()
    };
    SpreadCurves {
        name: s.name.clone(),
        std_curve: eval_curve(&mc_run.seeds),
        pool_curve: eval_curve(&pool_run.seeds),
        tc_curve: eval_curve(&tc_run.seeds),
        std_seeds: mc_run.seeds,
        pool_seeds: pool_run.seeds,
        tc_seeds: tc_run.seeds,
    }
}

/// Figure 6: expected spread of `InfMax_std` vs `InfMax_TC` for
/// `|S| = 1..=k` on every configuration.
pub fn figure6<W: Write>(args: &Args, out: W) -> std::io::Result<()> {
    let mut w = TsvWriter::new(
        out,
        &["dataset", "k", "sigma_std", "sigma_tc", "sigma_std_pool"],
    )?;
    for s in compute_spheres(args) {
        eprintln!("figure6: {}...", s.name);
        let curves = spread_curves(&s, args.k);
        let rows = curves
            .std_curve
            .len()
            .min(curves.tc_curve.len())
            .min(curves.pool_curve.len());
        for j in 0..rows {
            w.row(&[
                curves.name.clone(),
                (j + 1).to_string(),
                format!("{:.2}", curves.std_curve[j]),
                format!("{:.2}", curves.tc_curve[j]),
                format!("{:.2}", curves.pool_curve[j]),
            ])?;
        }
    }
    w.flush()
}

// --------------------------------------------------------------- Figure 7

/// Figure 7: marginal-gain ratio `MG₁₀/MG₁` per iteration, on the two
/// small configurations the paper uses (NetHEPT-F and Twitter-S
/// analogues). The paper runs an unoptimized greedy to see every round's
/// top gains; the lazy heap ranks the same exact top 10 at CELF cost.
pub fn figure7<W: Write>(args: &Args, out: W) -> std::io::Result<()> {
    use soi_datasets::{Network, ProbSource};
    let mut w = TsvWriter::new(out, &["dataset", "iteration", "ratio_std", "ratio_tc"])?;
    // The paper reports iterations 50..~85 (cost reasons: the unoptimized
    // greedy is what it ran for this experiment). Our synthetic spheres are
    // smaller relative to the graphs than the paper's, which shifts
    // InfMax_TC's discriminating phase earlier — so we emit the full
    // range from iteration 1 and EXPERIMENTS.md compares the phases.
    let start = 0usize;
    let iters = 85usize;
    let k = start + iters;
    for (net, src) in [
        (Network::NethepSyn, ProbSource::Fixed),
        (Network::TwitterSyn, ProbSource::Saito),
    ] {
        let name = format!("{}-{}", net.name(), src.suffix());
        if !args.selects(&name) {
            continue;
        }
        eprintln!("figure7: {name}...");
        let data = build(net, src, args.scale, args.seed);
        let index = index_of(&data, args);
        let std_run = infmax_std(&index, k, 10);
        let spheres = all_typical_cascades(&index, &MedianConfig::default(), 0);
        let cascades: Vec<Vec<NodeId>> = spheres.into_iter().map(|x| x.median).collect();
        let tc_run = infmax_tc(&cascades, k, 10);
        for j in start..k {
            // One row per iteration: a degenerate ratio prints `nan`.
            let fmt = |rankings: &[Vec<f64>]| {
                rankings
                    .get(j)
                    .and_then(|r| saturation::gain_ratio(r, 10))
                    .map_or("nan".into(), |x| format!("{x:.4}"))
            };
            w.row(&[
                name.clone(),
                (j + 1).to_string(),
                fmt(&std_run.gain_rankings),
                fmt(&tc_run.gain_rankings),
            ])?;
        }
    }
    w.flush()
}

// --------------------------------------------------------------- Figure 8

/// Figure 8: stability (expected cost of the seed set's typical cascade)
/// of the seed sets produced by both methods, at checkpoints of `|S|`.
pub fn figure8<W: Write>(args: &Args, out: W) -> std::io::Result<()> {
    let mut w = TsvWriter::new(out, &["dataset", "k", "cost_std", "cost_tc"])?;
    // The paper reports six datasets here; run whatever is selected.
    for s in compute_spheres(args) {
        eprintln!("figure8: {}...", s.name);
        let curves = spread_curves(&s, args.k);
        let config = TypicalCascadeConfig {
            median_samples: args.samples,
            cost_samples: args.samples.max(1000), // the paper uses 1000
            seed: args.seed ^ 0x8f8,
        };
        let checkpoints: Vec<usize> = [1, 2, 5, 10, 20, 50, 100, 150, 200]
            .into_iter()
            .filter(|&c| c <= curves.std_seeds.len() && c <= curves.tc_seeds.len())
            .collect();
        for c in checkpoints {
            let cost_std =
                typical_cascade_of_set(&s.dataset.graph, &curves.std_seeds[..c], &config)
                    .expected_cost;
            let cost_tc = typical_cascade_of_set(&s.dataset.graph, &curves.tc_seeds[..c], &config)
                .expected_cost;
            w.row(&[
                s.name.clone(),
                c.to_string(),
                format!("{cost_std:.4}"),
                format!("{cost_tc:.4}"),
            ])?;
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_args() -> Args {
        Args {
            scale: 0.03,
            samples: 24,
            seed: 1,
            k: 10,
            dataset: Some("nethept".into()),
            ..Args::default()
        }
    }

    fn run<F: FnOnce(&Args, &mut Vec<u8>) -> std::io::Result<()>>(f: F, args: &Args) -> String {
        let mut buf = Vec::new();
        f(args, &mut buf).unwrap();
        String::from_utf8(buf).unwrap()
    }

    #[test]
    fn table1_emits_selected_rows() {
        let out = run(|a, w| table1(a, w), &tiny_args());
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "dataset\tnodes\tarcs\ttype\tprobabilities");
        assert_eq!(lines.len(), 3, "nethept-syn-W and nethept-syn-F");
        assert!(lines[1].starts_with("nethept-syn-W"));
        assert!(lines[2].starts_with("nethept-syn-F"));
    }

    #[test]
    fn figure3_skips_fixed_and_is_monotone() {
        let out = run(|a, w| figure3(a, w), &tiny_args());
        assert!(!out.contains("-F\t"), "fixed model skipped");
        // CDF values are within [0, 1].
        for line in out.lines().skip(1) {
            let cdf: f64 = line.split('\t').nth(2).unwrap().parse().unwrap();
            assert!((0.0..=1.0).contains(&cdf));
        }
    }

    #[test]
    fn table2_reports_both_configs() {
        let out = run(|a, w| table2(a, w), &tiny_args());
        assert_eq!(out.lines().count(), 3);
        for line in out.lines().skip(1) {
            let avg: f64 = line.split('\t').nth(1).unwrap().parse().unwrap();
            assert!(avg >= 1.0, "spheres contain their source: {line}");
        }
    }

    #[test]
    fn figure6_curves_are_monotone() {
        let out = run(|a, w| figure6(a, w), &tiny_args());
        let mut last: Option<(String, f64, f64)> = None;
        for line in out.lines().skip(1) {
            let mut f = line.split('\t');
            let name = f.next().unwrap().to_string();
            let _k: usize = f.next().unwrap().parse().unwrap();
            let std: f64 = f.next().unwrap().parse().unwrap();
            let tc: f64 = f.next().unwrap().parse().unwrap();
            if let Some((lname, lstd, ltc)) = &last {
                if *lname == name {
                    assert!(std >= *lstd - 1e-9, "std curve monotone: {line}");
                    assert!(tc >= *ltc - 1e-9, "tc curve monotone: {line}");
                }
            }
            last = Some((name, std, tc));
        }
    }

    #[test]
    fn figure8_costs_are_probabilities() {
        let mut args = tiny_args();
        args.k = 10;
        let out = run(|a, w| figure8(a, w), &args);
        assert!(out.lines().count() > 1);
        for line in out.lines().skip(1) {
            let mut f = line.split('\t').skip(2);
            let a: f64 = f.next().unwrap().parse().unwrap();
            let b: f64 = f.next().unwrap().parse().unwrap();
            assert!((0.0..=1.0).contains(&a) && (0.0..=1.0).contains(&b));
        }
    }
}
