//! What is measured: the metric catalogue (names, units, regression
//! bounds — mirrored by `BENCHMARK.json`, a unit test keeps the two equal)
//! and the four workloads with the seeded generators of their inputs.
//!
//! The workload seed drives graph generation and request sequences only.
//! The program under test sees just the generated TSV files and request
//! lines; its own sampling seed stays the CLI default ([`PROGRAM_SEED`]).

use soi_graph::{gen, ProbGraph};
use soi_util::rng::{Rng, Xoshiro256pp};

/// Errors are plain messages: the driver reports them and exits non-zero.
pub type Res<T> = Result<T, String>;

/// Sampling seed the `soi` binary defaults to (`--seed` is never passed).
pub const PROGRAM_SEED: u64 = 42;
/// Bottom-k sketch size used wherever the sketch backend runs.
pub const SKETCH_K: usize = 64;
/// Seed-set size and sample count of every `spread-estimate` request.
pub const SPREAD_SEEDS: usize = 5;
/// Monte-Carlo samples of every `spread-estimate` request.
pub const SPREAD_SAMPLES: usize = 64;
/// `k` of the `infmax-tc` requests in the serving heavy phase.
pub const REQUEST_K: usize = 50;
/// Samples of the driver's own re-evaluation of printed seeds.
pub const EVAL_SAMPLES: usize = 2000;
/// Seed of that re-evaluation: fixed, so the quality metric repeats exactly.
pub const EVAL_SEED: u64 = 0x5EED_5C0E;
/// The seeds' spread must reach this share of the RIS seeds' spread.
pub const RIS_FLOOR: f64 = 0.9;

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

/// One catalogued metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Name as printed and as keyed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Regression bound as a share of the baseline median (end-to-end
    /// metrics only; per-layer metrics carry 0 and are never gated).
    pub bound: f64,
}

const fn m(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees; printed by every workload with
/// tracing off. Throughput and the latency percentiles are over the
/// workload's own operations: the routed request mix on `serve-fabric`,
/// the `soi infmax` runs themselves on a batch workload (where they
/// restate `time_to_seeds_s`; see README.md, "Every metric on every
/// workload").
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", Lower, 0.25),
    m("time_to_seeds_s", "s", Lower, 0.25),
    m("peak_rss_mb", "MB", Lower, 0.10),
    m("seed_spread_vs_ris", "share", Higher, 0.10),
    m("req_per_s", "1/s", Higher, 0.25),
    m("latency_p50_ms", "ms", Lower, 0.25),
    m("latency_p90_ms", "ms", Lower, 0.25),
];

/// One term per layer, measured by the traced pass. Names are
/// `<crate>.<metric>`.
pub const PER_LAYER: &[MetricDef] = &[
    m("cli.cpu_s", "s", Lower, 0.0),
    m("cli.cpu_util", "share", Higher, 0.0),
    m("cli.unaccounted_s", "s", Lower, 0.0),
    m("graph.load_s", "s", Lower, 0.0),
    m("graph.scc_condense_ms", "ms", Lower, 0.0),
    m("graph.transitive_reduction_ms", "ms", Lower, 0.0),
    m("sampling.world_sample_ms", "ms", Lower, 0.0),
    m("sampling.spread_eval_ms", "ms", Lower, 0.0),
    m("index.build_s", "s", Lower, 0.0),
    m("index.memory_mb", "MB", Lower, 0.0),
    m("index.comps_per_world", "count", Lower, 0.0),
    m("index.dag_edges_per_world", "count", Lower, 0.0),
    m("index.extract_us", "us", Lower, 0.0),
    m("index.mean_cascade_size", "nodes", Lower, 0.0),
    m("jaccard.median_us", "us", Lower, 0.0),
    m("core.spheres_s", "s", Lower, 0.0),
    m("core.spheres_per_s", "1/s", Higher, 0.0),
    m("influence.tc_cover_ms", "ms", Lower, 0.0),
    m("influence.ris_ms", "ms", Lower, 0.0),
    m("sketch.build_s", "s", Lower, 0.0),
    m("sketch.select_s", "s", Lower, 0.0),
    m("sketch.memory_mb", "MB", Lower, 0.0),
    m("sketch.entries", "count", Lower, 0.0),
    m("sketch.set_spread_us", "us", Lower, 0.0),
    m("server.parse_us", "us", Lower, 0.0),
    m("server.execute_tc_us", "us", Lower, 0.0),
    m("server.execute_spread_us", "us", Lower, 0.0),
    m("server.execute_sketch_us", "us", Lower, 0.0),
    m("server.execute_infmax_ms", "ms", Lower, 0.0),
    m("server.pool_overhead_us", "us", Lower, 0.0),
    m("daemon.warm_s", "s", Lower, 0.0),
    m("daemon.direct_p50_ms", "ms", Lower, 0.0),
    m("daemon.socket_overhead_ms", "ms", Lower, 0.0),
    m("router.overhead_ms", "ms", Lower, 0.0),
    m("fabric.unaccounted_ms", "ms", Lower, 0.0),
    m("cache.hit_ratio", "share", Higher, 0.0),
    m("queue.shed_share", "share", Lower, 0.0),
    m("server.requests_total", "count", Higher, 0.0),
    m("client.tc_p50_ms", "ms", Lower, 0.0),
    m("client.spread_p50_ms", "ms", Lower, 0.0),
    m("client.sketch_p50_ms", "ms", Lower, 0.0),
    m("client.latency_p99_ms", "ms", Lower, 0.0),
    m("client.latency_max_ms", "ms", Lower, 0.0),
];

/// Looks a metric up in both lists.
pub fn metric_def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// Graph topology generator.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Topology {
    /// Directed Barabási–Albert, `m` arcs per arriving node.
    Ba {
        /// Arcs per arriving node.
        m: usize,
    },
    /// Uniform random directed graph with a fixed arc count.
    Gnm {
        /// Number of arcs.
        edges: usize,
    },
}

/// Arc-probability assignment.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Probs {
    /// `p(u,v) = 1 / indeg(v)` — the paper's "-W" setting.
    WeightedCascade,
    /// The same probability on every arc.
    Fixed(f64),
}

/// One generated input graph.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GraphSpec {
    /// Name the graph is served under (and its file stem).
    pub name: &'static str,
    /// Node count.
    pub nodes: usize,
    /// Topology model.
    pub topology: Topology,
    /// Probability model.
    pub probs: Probs,
}

impl GraphSpec {
    /// Generates the graph; `stream` separates the graphs of one workload.
    pub fn generate(&self, seed: u64, stream: u64) -> Res<ProbGraph> {
        let mut rng = Xoshiro256pp::from_stream(seed, stream);
        let topo = match self.topology {
            Topology::Ba { m } => gen::barabasi_albert(self.nodes, m, true, &mut rng),
            Topology::Gnm { edges } => gen::gnm(self.nodes, edges, &mut rng),
        };
        match self.probs {
            Probs::WeightedCascade => Ok(ProbGraph::weighted_cascade(topo)),
            Probs::Fixed(p) => ProbGraph::fixed(topo, p).map_err(|e| e.to_string()),
        }
    }
}

/// How a workload asks for seeds (its heavy operation).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Heavy {
    /// `soi infmax G --method tc` as a process.
    CliTc,
    /// `soi infmax G --backend sketch` as a process.
    CliSketch,
    /// `infmax-tc` requests on the first graph, through the router.
    Request,
}

/// One workload: its graphs and its heavy operation.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Graphs; the heavy operation and the traced kernel layers use the
    /// first, 20 % of the request mix goes to the last.
    pub graphs: Vec<GraphSpec>,
    /// The heavy operation.
    pub heavy: Heavy,
    /// Seeds asked of the heavy operation.
    pub k: usize,
    /// Sampled worlds ℓ (`--samples` / `--worlds`).
    pub samples: usize,
}

/// Threads given to every batch process and in-process parallel stage.
pub const THREADS: usize = 2;
/// Closed-loop connections in the request mix.
pub const CLIENTS: usize = 2;
/// Shard daemons behind the router (each loads every graph).
pub const SHARDS: usize = 2;
/// `--threads` of each shard daemon, so shards × threads = 2 cores.
pub const DAEMON_THREADS: usize = 1;
/// `--workers` of each shard daemon.
pub const DAEMON_WORKERS: usize = 2;
/// `--cache-cap` of each shard daemon: at least the live oracles (2 graphs
/// × 2 backends), so eviction is deliberately not exercised.
pub const CACHE_CAP: usize = 4;

/// The serving workload, whose fabric every traced pass measures the
/// serving layers on.
pub const SERVING: &str = "serve-fabric";
/// Workload names in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["batch-wc", "batch-dense", "batch-sketch", SERVING];

impl Workload {
    /// The named workload; `smoke` divides every graph by ten.
    pub fn by_name(name: &str, smoke: bool) -> Option<Workload> {
        let ba = |name, nodes| GraphSpec {
            name,
            nodes,
            topology: Topology::Ba { m: 5 },
            probs: Probs::WeightedCascade,
        };
        let gnm = |name, p| GraphSpec {
            name,
            nodes: 1000,
            topology: Topology::Gnm { edges: 5000 },
            probs: Probs::Fixed(p),
        };
        let batch = |name, graph, heavy, k, samples| Workload {
            name,
            graphs: vec![graph],
            heavy,
            k,
            samples,
        };
        let mut w = match name {
            "batch-wc" => batch("batch-wc", ba("g", 20_000), Heavy::CliTc, 50, 256),
            "batch-dense" => batch("batch-dense", gnm("g", 0.3), Heavy::CliTc, 20, 256),
            "batch-sketch" => batch("batch-sketch", ba("g", 100_000), Heavy::CliSketch, 50, 64),
            SERVING => Workload {
                name: SERVING,
                graphs: vec![ba("net", 5000), gnm("web", 0.15)],
                heavy: Heavy::Request,
                k: REQUEST_K,
                samples: 256,
            },
            _ => return None,
        };
        if smoke {
            for g in &mut w.graphs {
                g.nodes /= 10;
                if let Topology::Gnm { edges } = &mut g.topology {
                    *edges /= 10;
                }
            }
        }
        Some(w)
    }

    /// `soi infmax` arguments of a batch workload's heavy operation, or of
    /// its RIS quality baseline at the same `k`.
    pub fn infmax_args(&self, graph: &str, ris: bool) -> Vec<String> {
        let mut args = vec!["infmax".to_string(), graph.to_string()];
        let mut push = |flag: &str, value: String| {
            args.push(flag.to_string());
            args.push(value);
        };
        push("--k", self.k.to_string());
        push("--threads", THREADS.to_string());
        if ris {
            push("--method", "ris".to_string());
        } else {
            push("--samples", self.samples.to_string());
            if self.heavy == Heavy::CliSketch {
                push("--backend", "sketch".to_string());
                push("--sketch-k", SKETCH_K.to_string());
            } else {
                push("--method", "tc".to_string());
            }
        }
        args
    }
}

/// Kind of a mix request, for the by-type latency split.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Kind {
    /// `typical-cascade`.
    Tc,
    /// `spread-estimate` on the cascade backend.
    Spread,
    /// `spread-estimate` with `"backend":"sketch"`.
    Sketch,
}

/// One generated mix request.
#[derive(Clone, Debug, PartialEq)]
pub struct Req {
    /// Request id, echoed by the server.
    pub id: u64,
    /// Operation kind.
    pub kind: Kind,
    /// Index into the workload's graphs.
    pub graph: usize,
    /// Source node (`Tc`) or first seed.
    pub source: u32,
    /// The protocol line (no trailing newline).
    pub line: String,
}

/// A node id with cubic skew towards low ids.
fn skewed_node<R: Rng>(rng: &mut R, nodes: usize) -> u32 {
    let u: f64 = rng.random();
    ((u * u * u * nodes as f64) as usize).min(nodes - 1) as u32
}

/// Seeded, endless request sequence of one client: 80 % on the first
/// graph and 20 % on the last, 55 %
/// `typical-cascade`, 30 % `spread-estimate`, 15 % sketch-backed
/// `spread-estimate`; sources and seed sets skewed towards low ids.
pub struct RequestGen {
    rng: Xoshiro256pp,
    graphs: Vec<(&'static str, usize)>,
    next_id: u64,
}

impl RequestGen {
    /// The sequence of client `client` under workload seed `seed`.
    pub fn new(workload: &Workload, seed: u64, client: u64) -> RequestGen {
        RequestGen {
            // Streams 0.. are the graphs; clients start well above them.
            rng: Xoshiro256pp::from_stream(seed, 1000 + client),
            graphs: workload.graphs.iter().map(|g| (g.name, g.nodes)).collect(),
            next_id: client * 1_000_000_000,
        }
    }
}

impl Iterator for RequestGen {
    type Item = Req;

    fn next(&mut self) -> Option<Req> {
        let rng = &mut self.rng;
        let graph = if rng.random::<f64>() < 0.8 {
            0
        } else {
            self.graphs.len() - 1
        };
        let (name, nodes) = self.graphs[graph];
        let roll: f64 = rng.random();
        let kind = if roll < 0.55 {
            Kind::Tc
        } else if roll < 0.85 {
            Kind::Spread
        } else {
            Kind::Sketch
        };
        self.next_id += 1;
        let id = self.next_id;
        let source = skewed_node(rng, nodes);
        let line = match kind {
            Kind::Tc => format!(
                "{{\"v\":1,\"id\":{id},\"type\":\"typical-cascade\",\"graph\":\"{name}\",\"source\":{source}}}"
            ),
            Kind::Spread | Kind::Sketch => {
                let mut seeds = vec![source];
                while seeds.len() < SPREAD_SEEDS.min(nodes) {
                    let v = skewed_node(rng, nodes);
                    if !seeds.contains(&v) {
                        seeds.push(v);
                    }
                }
                let seeds: Vec<String> = seeds.iter().map(u32::to_string).collect();
                let backend = if kind == Kind::Sketch {
                    ",\"backend\":\"sketch\""
                } else {
                    ""
                };
                format!(
                    "{{\"v\":1,\"id\":{id},\"type\":\"spread-estimate\",\"graph\":\"{name}\",\"seeds\":[{}],\"samples\":{SPREAD_SAMPLES}{backend}}}",
                    seeds.join(",")
                )
            }
        };
        Some(Req {
            id,
            kind,
            graph,
            source,
            line,
        })
    }
}

/// The `infmax-tc` line of the serving heavy phase.
pub fn infmax_line(id: u64, graph: &str, k: usize) -> String {
    format!("{{\"v\":1,\"id\":{id},\"type\":\"infmax-tc\",\"graph\":\"{graph}\",\"k\":{k}}}")
}

/// `(id, line)` requests that touch every graph × backend once: the
/// untimed warm-up, so lazy sketch builds are paid before timing starts.
pub fn warmup_lines(workload: &Workload) -> Vec<(u64, String)> {
    let mut lines = Vec::new();
    for (i, g) in workload.graphs.iter().enumerate() {
        let id = 900_000_000 + 10 * i as u64;
        let name = g.name;
        lines.push((
            id,
            format!("{{\"v\":1,\"id\":{id},\"type\":\"typical-cascade\",\"graph\":\"{name}\",\"source\":0}}"),
        ));
        for (id, backend) in [(id + 1, ""), (id + 2, ",\"backend\":\"sketch\"")] {
            lines.push((
                id,
                format!("{{\"v\":1,\"id\":{id},\"type\":\"spread-estimate\",\"graph\":\"{name}\",\"seeds\":[0],\"samples\":{SPREAD_SAMPLES}{backend}}}"),
            ));
        }
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graphs_are_a_function_of_the_seed() {
        for name in WORKLOADS {
            let w = Workload::by_name(name, true).expect("workload");
            for (i, g) in w.graphs.iter().enumerate() {
                let a = g.generate(7, i as u64).expect("graph");
                let b = g.generate(7, i as u64).expect("graph");
                let c = g.generate(8, i as u64).expect("graph");
                assert_eq!(a.fingerprint(), b.fingerprint(), "{name}/{}", g.name);
                assert_ne!(a.fingerprint(), c.fingerprint(), "{name}/{}", g.name);
                assert_eq!(a.num_nodes(), g.nodes);
            }
        }
    }

    #[test]
    fn request_sequences_are_a_function_of_seed_and_client() {
        let w = Workload::by_name(SERVING, true).expect("workload");
        let take = |seed, client| {
            RequestGen::new(&w, seed, client)
                .take(200)
                .collect::<Vec<_>>()
        };
        assert_eq!(take(3, 0), take(3, 0));
        assert_ne!(take(3, 0), take(4, 0));
        assert_ne!(take(3, 0), take(3, 1));
        let reqs = take(3, 0);
        for kind in [Kind::Tc, Kind::Spread, Kind::Sketch] {
            assert!(reqs.iter().any(|r| r.kind == kind), "{kind:?} missing");
        }
        assert!(reqs.iter().any(|r| r.graph == 0) && reqs.iter().any(|r| r.graph == 1));
        for r in &reqs {
            let parsed = soi_server::protocol::parse_request(&r.line).expect("valid line");
            assert_eq!(parsed.id, r.id);
        }
    }

    #[test]
    fn warmup_and_infmax_lines_parse() {
        let w = Workload::by_name(SERVING, false).expect("workload");
        let lines = warmup_lines(&w);
        assert_eq!(lines.len(), 6);
        for (id, line) in lines.iter().chain([&(1, infmax_line(1, "web", REQUEST_K))]) {
            let parsed = soi_server::protocol::parse_request(line).expect("valid line");
            assert_eq!(parsed.id, *id);
        }
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let json = soi_server::json::parse(&text).expect("json");
        let names = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            json.get(key)
                .and_then(|v| v.as_arr())
                .expect("array")
                .iter()
                .map(|e| {
                    let s = |k: &str| e.get(k).and_then(|v| v.as_str()).unwrap_or("").to_string();
                    (
                        s("name"),
                        s("unit"),
                        s("better"),
                        e.get("bound").and_then(|b| b.as_f64()),
                    )
                })
                .collect()
        };
        let expect = |defs: &[MetricDef], gated: bool| -> Vec<_> {
            defs.iter()
                .map(|d| {
                    let better = if d.better == Higher {
                        "higher"
                    } else {
                        "lower"
                    };
                    (
                        d.name.to_string(),
                        d.unit.to_string(),
                        better.to_string(),
                        gated.then_some(d.bound),
                    )
                })
                .collect()
        };
        assert_eq!(names("end_to_end"), expect(END_TO_END, true));
        assert_eq!(names("per_layer"), expect(PER_LAYER, false));
        let workloads: Vec<String> = names("workloads").into_iter().map(|w| w.0).collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
