//! Extension experiments beyond the paper's §6 — clearly separated from
//! the reproduction suite. Each is still a deterministic TSV emitter.
//!
//! * [`table_learners`] — learner recovery quality against the planted
//!   ground truth (possible here because our logs are synthetic; the
//!   paper could not measure this on crawled data);
//! * [`figure_lt`] — the typical-cascade pipeline under the Linear
//!   Threshold model;
//! * [`figure_baselines`] — a seeding shoot-out: greedy variants,
//!   `InfMax_TC`, RIS, and the cheap heuristics.

use crate::Args;
use soi_core::all_typical_cascades;
use soi_datasets::{build, Network, ProbSource};
use soi_graph::NodeId;
use soi_index::{CascadeIndex, IndexConfig};
use soi_influence::{
    degree_discount_seeds, high_degree_seeds, infmax_ris, infmax_std, infmax_tc, pagerank_seeds,
    random_seeds,
};
use soi_jaccard::median::MedianConfig;
use soi_problog::generate::LogGenConfig;
use soi_problog::{eval, generate_log, learn_goyal, learn_goyal_jaccard, learn_saito};
use soi_util::tsv::TsvWriter;
use std::io::Write;

/// Learner recovery quality: for each learnable network, plant a
/// ground-truth graph, generate a log, and score every learner.
pub fn table_learners<W: Write>(args: &Args, out: W) -> std::io::Result<()> {
    let mut w = TsvWriter::new(out, &["network", "learner", "mae", "rmse", "pearson"])?;
    for net in Network::all() {
        if !net.has_activity_log() || !args.selects(net.name()) {
            continue;
        }
        eprintln!("learners: {}...", net.name());
        // Reuse the registry's ground-truth construction (build a -S
        // config to get the planted truth + topology).
        let d = build(net, ProbSource::Saito, args.scale, args.seed);
        #[expect(clippy::expect_used, reason = "Saito datasets always carry truth")]
        let truth = d.ground_truth.expect("learnt config carries truth");
        // The learnt ProbGraph drops zero arcs; re-learn on the topology
        // to get aligned vectors. Use the same log parameters as the
        // registry.
        let topology = net.build_graph(args.scale, args.seed);
        let mut rng = {
            soi_util::rng::Xoshiro256pp::seed_from_u64(soi_util::rng::derive_seed(
                args.seed, 0x6c6f67,
            ))
        };
        use soi_util::rng::Rng;
        let in_deg = topology.in_degrees();
        #[expect(clippy::expect_used, reason = "clamped to [1e-6, 1] below")]
        let truth_pg = soi_graph::ProbGraph::from_fn(topology, |_, v| {
            let factor = 0.3 + 1.7 * rng.random::<f64>();
            (factor / in_deg[v as usize] as f64).clamp(1e-6, 1.0)
        })
        .expect("valid");
        debug_assert_eq!(truth_pg.probs(), &truth[..]);
        let items = ((300.0 * args.scale) as usize).clamp(100, 3000);
        let log = generate_log(
            &truth_pg,
            &LogGenConfig {
                num_items: items,
                seeds_per_item: 2,
                seed: soi_util::rng::derive_seed(args.seed, 0x6974656d),
            },
        );
        let learners: [(&str, Vec<f64>); 3] = [
            ("saito-em", learn_saito(truth_pg.graph(), &log)),
            (
                "goyal-bernoulli",
                learn_goyal(truth_pg.graph(), &log, Some(1)),
            ),
            (
                "goyal-jaccard",
                learn_goyal_jaccard(truth_pg.graph(), &log, Some(1)),
            ),
        ];
        for (name, learned) in learners {
            w.row(&[
                net.name().to_string(),
                name.to_string(),
                format!("{:.4}", eval::mae(&learned, &truth)),
                format!("{:.4}", eval::rmse(&learned, &truth)),
                format!("{:.4}", eval::pearson(&learned, &truth)),
            ])?;
        }
    }
    w.flush()
}

/// Typical cascades and `InfMax_TC` under the Linear Threshold model.
pub fn figure_lt<W: Write>(args: &Args, out: W) -> std::io::Result<()> {
    use soi_sampling::lt::{simulate_lt, LtGraph, LtWorldSampler};
    let mut w = TsvWriter::new(
        out,
        &[
            "network",
            "avg_sphere",
            "max_sphere",
            "k",
            "lt_spread_tc",
            "lt_spread_degree",
            "lt_spread_random",
        ],
    )?;
    for net in [Network::DiggSyn, Network::NethepSyn] {
        if !args.selects(net.name()) {
            continue;
        }
        eprintln!("lt: {}...", net.name());
        let topo = net.build_graph(args.scale, args.seed);
        let lt = LtGraph::uniform(&topo);
        let mut sampler = LtWorldSampler::new();
        let worlds: Vec<soi_graph::DiGraph> = (0..args.samples)
            .map(|i| sampler.sample(&lt, &mut soi_sampling::world::world_rng(args.seed, i)))
            .collect();
        let index = CascadeIndex::build_from_worlds(
            topo.num_nodes(),
            worlds.iter(),
            IndexConfig {
                num_worlds: args.samples,
                seed: args.seed,
                ..IndexConfig::default()
            },
        );
        let spheres = all_typical_cascades(&index, &MedianConfig::default(), 0);
        let sizes: Vec<f64> = spheres.iter().map(|s| s.median.len() as f64).collect();
        let avg = sizes.iter().sum::<f64>() / sizes.len() as f64;
        let max = sizes.iter().cloned().fold(0.0, f64::max);
        let cascades: Vec<Vec<NodeId>> = spheres.into_iter().map(|s| s.median).collect();
        let k = args.k.min(20);
        let tc = infmax_tc(&cascades, k, 0);
        let deg = high_degree_seeds(&topo, k);
        let mut rng = { soi_util::rng::Xoshiro256pp::seed_from_u64(args.seed ^ 0x17) };
        let rand_seeds = random_seeds(&topo, k, &mut rng);
        let spread = |seeds: &[NodeId], rng: &mut soi_util::rng::Xoshiro256pp| {
            let rounds = 2000;
            (0..rounds)
                .map(|_| simulate_lt(&lt, seeds, rng).len())
                .sum::<usize>() as f64
                / rounds as f64
        };
        w.row(&[
            net.name().to_string(),
            format!("{avg:.1}"),
            format!("{max:.0}"),
            k.to_string(),
            format!("{:.1}", spread(&tc.seeds, &mut rng)),
            format!("{:.1}", spread(&deg, &mut rng)),
            format!("{:.1}", spread(&rand_seeds, &mut rng)),
        ])?;
    }
    w.flush()
}

/// Seeding shoot-out on two representative configs.
pub fn figure_baselines<W: Write>(args: &Args, out: W) -> std::io::Result<()> {
    let mut w = TsvWriter::new(out, &["dataset", "method", "k", "spread"])?;
    for (net, src) in [
        (Network::NethepSyn, ProbSource::WeightedCascade),
        (Network::EpinionsSyn, ProbSource::Fixed),
    ] {
        let name = format!("{}-{}", net.name(), src.suffix());
        if !args.selects(&name) {
            continue;
        }
        eprintln!("baselines: {name}...");
        let data = build(net, src, args.scale, args.seed);
        let pg = &data.graph;
        let index = CascadeIndex::build(
            pg,
            IndexConfig {
                num_worlds: args.samples,
                seed: args.seed ^ 0x1b,
                ..IndexConfig::default()
            },
        );
        let k = args.k.min(50);
        let spheres = all_typical_cascades(&index, &MedianConfig::default(), 0);
        let cascades: Vec<Vec<NodeId>> = spheres.into_iter().map(|s| s.median).collect();
        let mut rng = { soi_util::rng::Xoshiro256pp::seed_from_u64(args.seed ^ 0x2d) };
        let methods: Vec<(&str, Vec<NodeId>)> = vec![
            ("greedy_pool", infmax_std(&index, k, 0).seeds),
            ("infmax_tc", infmax_tc(&cascades, k, 0).seeds),
            (
                "ris",
                infmax_ris(pg, k, 20 * pg.num_nodes(), args.seed ^ 0x3f).seeds,
            ),
            ("degree", high_degree_seeds(pg.graph(), k)),
            ("degree_discount", degree_discount_seeds(pg.graph(), k)),
            ("pagerank", pagerank_seeds(pg.graph(), k)),
            ("random", random_seeds(pg.graph(), k, &mut rng)),
        ];
        for (method, seeds) in methods {
            for checkpoint in [k / 5, k] {
                if checkpoint == 0 {
                    continue;
                }
                let sigma = soi_sampling::estimate_spread(
                    pg,
                    &seeds[..checkpoint.min(seeds.len())],
                    2000,
                    args.seed ^ 0x55,
                );
                w.row(&[
                    name.clone(),
                    method.to_string(),
                    checkpoint.to_string(),
                    format!("{sigma:.1}"),
                ])?;
            }
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_args() -> Args {
        Args {
            scale: 0.04,
            samples: 16,
            seed: 2,
            k: 10,
            ..Args::default()
        }
    }

    fn run<F: FnOnce(&Args, &mut Vec<u8>) -> std::io::Result<()>>(f: F, args: &Args) -> String {
        let mut buf = Vec::new();
        f(args, &mut buf).unwrap();
        String::from_utf8(buf).unwrap()
    }

    #[test]
    fn learners_table_scores_all_three() {
        let out = run(|a, w| table_learners(a, w), &tiny_args());
        assert_eq!(out.lines().count(), 1 + 3 * 3, "3 networks x 3 learners");
        for line in out.lines().skip(1) {
            let pearson: f64 = line.split('\t').nth(4).unwrap().parse().unwrap();
            assert!((-1.0..=1.0).contains(&pearson));
        }
    }

    #[test]
    fn lt_figure_runs_and_beats_random() {
        let out = run(|a, w| figure_lt(a, w), &tiny_args());
        assert_eq!(out.lines().count(), 3, "two networks");
        for line in out.lines().skip(1) {
            let f: Vec<&str> = line.split('\t').collect();
            let tc: f64 = f[4].parse().unwrap();
            let rnd: f64 = f[6].parse().unwrap();
            assert!(tc >= rnd * 0.8, "LT TC {tc} vs random {rnd}");
        }
    }

    #[test]
    fn baselines_figure_is_complete() {
        let out = run(|a, w| figure_baselines(a, w), &tiny_args());
        // 2 configs x 7 methods x 2 checkpoints + header.
        assert_eq!(out.lines().count(), 1 + 2 * 7 * 2);
    }
}
