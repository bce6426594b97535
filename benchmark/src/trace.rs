//! The traced pass: replays a workload layer by layer, timing calls into
//! each crate's public functions from here — outside the program — and
//! recording one span per call.
//!
//! Spans are kept in memory and written when the pass ends. Nothing
//! inside `crates/` is instrumented; a layer's self time is its span
//! minus the part its children cover (see README.md).

use crate::e2e::{heavy_process, make_graphs, timed_infmax};
use crate::load::percentile;
use crate::procs::{is_ok_for, parse_seeds, Conn, Env, Fabric};
use crate::report::Outcome;
use crate::spec::{
    infmax_line, warmup_lines, Heavy, Kind, Req, RequestGen, Res, Workload, CACHE_CAP,
    DAEMON_THREADS, DAEMON_WORKERS, PROGRAM_SEED, SHARDS, SKETCH_K, SPREAD_SEEDS, THREADS,
};
use soi_graph::scc::{tarjan_scc, Condensation};
use soi_graph::ProbGraph;
use soi_index::{CascadeIndex, IndexConfig};
use soi_jaccard::median::{jaccard_median_with, MedianConfig};
use soi_obs::report::mask_wall_clock;
use soi_server::protocol::parse_request;
use soi_server::worker::{execute_job, Job, WorkerPool};
use soi_server::{EngineConfig, ServerEngine};
use soi_sketch::{select_seeds, ReachSketches, SketchConfig};
use soi_util::rng::{Rng, Xoshiro256pp};
use soi_util::runtime::Deadline;
use std::io::Write;
use std::path::Path;
use std::sync::{mpsc, Arc};
use std::time::Instant;

/// Worlds the per-world graph kernels are timed on.
const TRACED_WORLDS: usize = 32;
/// Seeded nodes whose cascades are extracted and fitted.
const PROBED_NODES: usize = 512;
/// Seed sets timed against the sketch oracle.
const SKETCH_PROBES: usize = 256;
/// Request lines replayed in-process, direct and routed, per second of
/// `--seconds`, and the range the count is kept in: enough for a by-type
/// p50 from 10 s up, few enough for the 3 s smoke run while every reply
/// still waits out the 44 ms stall.
const REPLAY_LINES_PER_S: f64 = 6.4;
const REPLAY_LINES: (usize, usize) = (16, 64);

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// `<crate>.<function>`-style name.
    pub name: &'static str,
    /// Start, nanoseconds since the pass began.
    pub start_ns: u64,
    /// End, nanoseconds since the pass began.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request id, world index or node id the span belongs to.
    pub run: u64,
}

/// In-memory span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    /// A recorder whose clock starts now.
    fn default() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, run: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            run,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes span `id` (and anything left open inside it); returns its
    /// duration in seconds.
    pub fn end(&mut self, id: usize) -> f64 {
        let end_ns = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = end_ns;
            if top == id {
                break;
            }
        }
        (end_ns - self.spans[id].start_ns) as f64 / 1e9
    }

    /// Times `f` as a leaf span; returns its result and seconds.
    pub fn timed<T>(&mut self, name: &'static str, run: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.begin(name, run);
        let value = f();
        (value, self.end(id))
    }

    /// Span time not covered by its children, per span.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Writes one JSON object per span.
    pub fn write(&self, path: &Path) -> Res<()> {
        let err = |e: std::io::Error| format!("{}: {e}", path.display());
        let mut out = std::io::BufWriter::new(std::fs::File::create(path).map_err(err)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run\":{}}}",
                s.name, s.start_ns, s.end_ns, s.run
            )
            .map_err(err)?;
        }
        out.flush().map_err(err)
    }
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

fn p50(values: &[f64]) -> Res<f64> {
    percentile(values, 50.0)
}

fn load_graph(path: &Path) -> Res<ProbGraph> {
    let file = std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    match soi_graph::io::read_graph(std::io::BufReader::new(file)) {
        Ok(soi_graph::io::ParsedGraph::Probabilistic(pg)) => Ok(pg),
        Ok(_) => Err(format!("{}: no probabilities", path.display())),
        Err(e) => Err(format!("{}: {e}", path.display())),
    }
}

/// What the kernel stage hands on, for the backend the workload's
/// `soi infmax` uses: the seeds it selects and the summed seconds of the
/// stages it runs.
struct Kernels {
    seeds: Vec<u32>,
    stage_s: f64,
}

/// Per-world graph kernels on the first worlds of `pg`: sample, SCC +
/// condensation and (when `reduce`) transitive reduction, in ms per world.
fn world_kernels(
    tr: &mut Tracer,
    pg: &ProbGraph,
    worlds: usize,
    reduce: bool,
) -> Res<(Vec<f64>, Vec<f64>, Vec<f64>)> {
    let (mut sample_ms, mut scc_ms, mut reduce_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut sampler = soi_sampling::WorldSampler::new();
    for i in 0..worlds {
        let run = i as u64;
        let span = tr.begin("world", run);
        let mut rng = soi_sampling::world::world_rng(PROGRAM_SEED, i);
        let (world, s) = tr.timed("sampling.world_sample", run, || {
            sampler.sample(pg, &mut rng)
        });
        sample_ms.push(s * 1e3);
        let (cond, s) = tr.timed("graph.scc_condense", run, || {
            Condensation::from_scc(&world, &tarjan_scc(&world))
        });
        scc_ms.push(s * 1e3);
        if reduce {
            let (reduced, s) = tr.timed("graph.transitive_reduction", run, || {
                soi_graph::transitive::transitive_reduction(&cond.dag)
            });
            reduced.ok_or("condensation is not a DAG")?;
            reduce_ms.push(s * 1e3);
        }
        tr.end(span);
    }
    Ok((sample_ms, scc_ms, reduce_ms))
}

/// Kernel layers with the pipeline parameters `soi infmax` uses, so the
/// in-process seeds must equal the binary's. Graph, sampling, RIS and
/// sketch layers run on the workload's first graph (`file`); so do the
/// cascade-index layers (transitive reduction, index, jaccard, core, TC
/// cover) unless the caller names a `smaller` graph for them.
fn kernel_layers(
    tr: &mut Tracer,
    out: &mut Outcome,
    w: &Workload,
    file: &Path,
    smaller: Option<&ProbGraph>,
    seed: u64,
) -> Res<Kernels> {
    let stage = tr.begin("stage.kernels", 0);
    let (pg, load_s) = tr.timed("graph.load", 0, || load_graph(file));
    let pg = pg?;
    out.put("graph.load_s", load_s)?;
    let index_pg = smaller.unwrap_or(&pg);
    let n = index_pg.num_nodes();

    let worlds = TRACED_WORLDS.min(w.samples);
    let (sample_ms, scc_ms, mut reduce_ms) = world_kernels(tr, &pg, worlds, smaller.is_none())?;
    if let Some(index_pg) = smaller {
        reduce_ms = world_kernels(tr, index_pg, worlds, true)?.2;
    }
    out.put("sampling.world_sample_ms", mean(&sample_ms))?;
    out.put("graph.scc_condense_ms", mean(&scc_ms))?;
    out.put("graph.transitive_reduction_ms", mean(&reduce_ms))?;

    let index_config = |threads| IndexConfig {
        num_worlds: w.samples,
        seed: PROGRAM_SEED,
        transitive_reduction: true,
        threads,
    };
    let (index, build_s) = tr.timed("index.build", 0, || {
        CascadeIndex::build(index_pg, index_config(THREADS))
    });
    out.put("index.build_s", build_s)?;
    out.put("index.memory_mb", index.memory_bytes() as f64 / 1e6)?;
    out.put("index.comps_per_world", index.mean_comps())?;
    out.put("index.dag_edges_per_world", index.mean_dag_edges())?;

    let mut rng = Xoshiro256pp::from_stream(seed, 500);
    let (mut extract_us, mut median_us, mut sizes) = (Vec::new(), Vec::new(), 0usize);
    let median_config = MedianConfig::default();
    for _ in 0..PROBED_NODES {
        let v = rng.random_range(0..n as u32);
        let probe = tr.begin("probe", u64::from(v));
        let (sets, s) = tr.timed("index.extract", u64::from(v), || index.cascades_of(v));
        extract_us.push(s * 1e6);
        sizes += sets.iter().map(Vec::len).sum::<usize>();
        let (_, s) = tr.timed("jaccard.median", u64::from(v), || {
            jaccard_median_with(&sets, &median_config)
        });
        median_us.push(s * 1e6);
        tr.end(probe);
    }
    out.put("index.extract_us", mean(&extract_us))?;
    out.put(
        "index.mean_cascade_size",
        sizes as f64 / (PROBED_NODES * w.samples) as f64,
    )?;
    out.put("jaccard.median_us", mean(&median_us))?;

    let (spheres, spheres_s) = tr.timed("core.spheres", 0, || {
        soi_core::all_typical_cascades(&index, &median_config, THREADS)
    });
    out.put("core.spheres_s", spheres_s)?;
    out.put("core.spheres_per_s", n as f64 / spheres_s)?;
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    if w.name == "batch-wc" && cores >= THREADS {
        // Single-thread baselines at the same problem size: t1 / t2 is the
        // pool's speed-up. An oversubscribed host prints no such scaling.
        let (_, build_t1_s) = tr.timed("index.build_t1", 0, || {
            CascadeIndex::build(index_pg, index_config(1))
        });
        let (_, spheres_t1_s) = tr.timed("core.spheres_t1", 0, || {
            soi_core::all_typical_cascades(&index, &median_config, 1)
        });
        out.notes.push(format!(
            "single thread: index.build_t1_s {build_t1_s:.3} s (t1/t2 {:.2}), \
             core.spheres_t1_s {spheres_t1_s:.3} s (t1/t2 {:.2})",
            build_t1_s / build_s,
            spheres_t1_s / spheres_s
        ));
    }
    let cascades: Vec<Vec<u32>> = spheres.into_iter().map(|s| s.median).collect();
    drop(index);
    let (tc, tc_s) = tr.timed("influence.tc_cover", 0, || {
        soi_influence::infmax_tc(&cascades, w.k, 0)
    });
    out.put("influence.tc_cover_ms", tc_s * 1e3)?;
    let (_, ris_s) = tr.timed("influence.ris", 0, || {
        let sets = (20 * pg.num_nodes()).max(1000);
        soi_influence::ris::infmax_ris(&pg, w.k, sets, PROGRAM_SEED)
    });
    out.put("influence.ris_ms", ris_s * 1e3)?;

    let (sketches, sk_build_s) = tr.timed("sketch.build", 0, || {
        ReachSketches::build(
            &pg,
            SketchConfig {
                num_worlds: w.samples,
                k: SKETCH_K,
                seed: PROGRAM_SEED,
                threads: THREADS,
            },
        )
    });
    out.put("sketch.build_s", sk_build_s)?;
    out.put("sketch.memory_mb", sketches.memory_bytes() as f64 / 1e6)?;
    out.put("sketch.entries", sketches.total_entries() as f64)?;
    let (selected, sk_select_s) = tr.timed("sketch.select", 0, || {
        select_seeds(&pg, &sketches, w.k, &Deadline::unlimited()).value()
    });
    out.put("sketch.select_s", sk_select_s)?;
    let mut set_us = Vec::new();
    for i in 0..SKETCH_PROBES {
        let set: Vec<u32> = (0..SPREAD_SEEDS)
            .map(|_| rng.random_range(0..pg.num_nodes() as u32))
            .collect();
        let (_, s) = tr.timed("sketch.set_spread", i as u64, || sketches.set_spread(&set));
        set_us.push(s * 1e6);
    }
    out.put("sketch.set_spread_us", mean(&set_us))?;
    drop(sketches);

    // The spread evaluation that ends every `soi infmax` run, on the seeds
    // of the backend this workload's command uses.
    let (seeds, stages_s) = if w.heavy == Heavy::CliSketch {
        (selected.seeds, sk_build_s + sk_select_s)
    } else {
        (tc.seeds, build_s + spheres_s + tc_s)
    };
    let (_, eval_s) = tr.timed("sampling.spread_eval", 0, || {
        soi_sampling::estimate_spread(&pg, &seeds, w.samples.max(1000), PROGRAM_SEED ^ 0xE7A1)
    });
    out.put("sampling.spread_eval_ms", eval_s * 1e3)?;
    tr.end(stage);
    Ok(Kernels {
        seeds,
        stage_s: load_s + stages_s + eval_s,
    })
}

/// One replayed request with its in-process timings and expected answer.
struct Replayed {
    req: Req,
    /// Wall-masked `execute_job` line: what every socket must answer.
    expected: String,
    parse_us: f64,
    execute_us: f64,
}

/// In-process serving layers on a warmed engine of the daemons' config,
/// `w` being the serving workload. Returns the replayed lines, the masked
/// `infmax-tc` answer and its execution time in seconds.
fn engine_layers(
    tr: &mut Tracer,
    out: &mut Outcome,
    w: &Workload,
    graphs: Vec<ProbGraph>,
    seed: u64,
    lines: usize,
) -> Res<(Vec<Replayed>, String, f64)> {
    let stage = tr.begin("stage.engine", 0);
    let mut engine = ServerEngine::new(EngineConfig {
        num_worlds: w.samples,
        seed: PROGRAM_SEED,
        threads: DAEMON_THREADS,
        cache_cap: CACHE_CAP,
        sketch_k: SKETCH_K,
        ..EngineConfig::default()
    });
    for (spec, pg) in w.graphs.iter().zip(graphs) {
        engine.add_graph(spec.name, pg);
    }
    let engine = Arc::new(engine);
    tr.timed("server.warm", 0, || engine.warm());
    for (_, line) in warmup_lines(w) {
        let envelope = parse_request(&line).map_err(|e| e.to_string())?;
        execute_job(&engine, &envelope);
    }

    let pool = WorkerPool::start(Arc::clone(&engine), DAEMON_WORKERS, 64);
    let handle = pool.handle();
    let mut replayed = Vec::new();
    let mut pool_overhead_us = Vec::new();
    for req in RequestGen::new(w, seed, 0).take(lines) {
        let span = tr.begin("request.in_process", req.id);
        let (envelope, parse_s) = tr.timed("server.parse", req.id, || parse_request(&req.line));
        let envelope = envelope.map_err(|e| e.to_string())?;
        let (line, execute_s) =
            tr.timed("server.execute", req.id, || execute_job(&engine, &envelope));
        // The pool runs the line a third time; its overhead is taken
        // against a second execution, as warm as the pool's own.
        let (_, again_s) = tr.timed("server.execute_again", req.id, || {
            execute_job(&engine, &envelope)
        });
        let (answer, pool_s) = tr.timed("server.pool_roundtrip", req.id, || {
            let (reply, answers) = mpsc::channel();
            handle.submit(Job::new(envelope.clone(), reply));
            answers.recv()
        });
        tr.end(span);
        let expected = mask_wall_clock(&line);
        let answer = answer.map_err(|e| format!("worker pool dropped a job: {e}"))?;
        out.check(mask_wall_clock(&answer) == expected, || {
            format!(
                "pool answer differs from execute_job for request {}",
                req.id
            )
        });
        pool_overhead_us.push((pool_s - again_s) * 1e6);
        replayed.push(Replayed {
            req,
            expected,
            parse_us: parse_s * 1e6,
            execute_us: execute_s * 1e6,
        });
    }
    pool.shutdown();

    let envelope =
        parse_request(&infmax_line(1, w.graphs[0].name, w.k)).map_err(|e| e.to_string())?;
    let (infmax, infmax_s) = tr.timed("server.execute_infmax", 1, || {
        execute_job(&engine, &envelope)
    });
    tr.end(stage);

    let by_kind = |kind| -> Vec<f64> {
        replayed
            .iter()
            .filter(|r| r.req.kind == kind)
            .map(|r| r.execute_us)
            .collect()
    };
    let parse: Vec<f64> = replayed.iter().map(|r| r.parse_us).collect();
    out.put("server.parse_us", p50(&parse)?)?;
    out.put("server.execute_tc_us", p50(&by_kind(Kind::Tc))?)?;
    out.put("server.execute_spread_us", p50(&by_kind(Kind::Spread))?)?;
    out.put("server.execute_sketch_us", p50(&by_kind(Kind::Sketch))?)?;
    out.put("server.execute_infmax_ms", infmax_s * 1e3)?;
    out.put("server.pool_overhead_us", p50(&pool_overhead_us)?)?;
    Ok((replayed, mask_wall_clock(&infmax), infmax_s))
}

/// The fabric-wide counters the traced pass reads from the router's
/// aggregated `stats` answer.
#[derive(Clone, Copy, Debug, Default)]
struct Counters {
    requests: f64,
    hits: f64,
    misses: f64,
    shed: f64,
    forwarded: f64,
}

fn read_counters(conn: &mut Conn) -> Res<Counters> {
    let answer = conn.ask("{\"v\":1,\"id\":0,\"type\":\"stats\"}")?;
    let stats = soi_server::json::parse(&answer)?;
    let counter = |name: &str| -> Res<f64> {
        stats
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("stats answer lacks counter {name}"))
    };
    Ok(Counters {
        requests: counter("server.requests_total")?,
        hits: counter("server.cache_hits")?,
        misses: counter("server.cache_misses")?,
        shed: counter("server.requests_shed")?,
        forwarded: counter("router.forwarded")?,
    })
}

/// Replays the lines over `conn`, one span each; every answer must equal
/// the in-process one. Returns the latencies in ms.
fn replay(
    tr: &mut Tracer,
    out: &mut Outcome,
    name: &'static str,
    conn: &mut Conn,
    replayed: &[Replayed],
) -> Res<Vec<f64>> {
    let mut ms = Vec::with_capacity(replayed.len());
    for r in replayed {
        let (answer, s) = tr.timed(name, r.req.id, || conn.ask(&r.req.line));
        let answer = answer?;
        out.check(mask_wall_clock(&answer) == r.expected, || {
            format!("{name}: socket answer differs from execute_job: {answer}")
        });
        ms.push(s * 1e3);
    }
    Ok(ms)
}

/// Socket layers: the same lines over one connection straight to a shard
/// and over one connection through the router, with the fabric's own
/// counters read around the routed replay.
fn socket_layers(
    tr: &mut Tracer,
    out: &mut Outcome,
    w: &Workload,
    fabric: &Fabric,
    replayed: &[Replayed],
) -> Res<()> {
    let mut control = fabric.connect()?;
    for (_, line) in warmup_lines(w) {
        control.ask(&line)?;
    }
    let stage = tr.begin("stage.sockets", 0);
    let mut direct_conn = fabric.connect_shard(0)?;
    let mut routed_conn = fabric.connect()?;
    let direct = replay(tr, out, "request.direct", &mut direct_conn, replayed)?;
    let before = read_counters(&mut control)?;
    let routed = replay(tr, out, "request.routed", &mut routed_conn, replayed)?;
    let after = read_counters(&mut control)?;
    tr.end(stage);

    // Between the two snapshots the router forwards exactly the routed
    // lines, and the shards count those plus the closing `stats` request,
    // which the router fans out to every shard.
    let sent = replayed.len() as f64;
    let served = after.requests - before.requests - SHARDS as f64;
    out.check(
        after.forwarded - before.forwarded == sent && served == sent,
        || {
            format!(
                "of {sent} routed requests the router forwarded {} and the shards counted {served}",
                after.forwarded - before.forwarded
            )
        },
    );
    let lookups = (after.hits - before.hits) + (after.misses - before.misses);
    out.put(
        "cache.hit_ratio",
        (after.hits - before.hits) / lookups.max(1.0),
    )?;
    out.put(
        "queue.shed_share",
        (after.shed - before.shed) / served.max(1.0),
    )?;
    out.put("server.requests_total", served)?;

    let in_process: Vec<f64> = replayed
        .iter()
        .map(|r| (r.parse_us + r.execute_us) / 1e3)
        .collect();
    let paired =
        |a: &[f64], b: &[f64]| -> Vec<f64> { a.iter().zip(b).map(|(x, y)| x - y).collect() };
    let socket_overhead = p50(&paired(&direct, &in_process))?;
    let router_overhead = p50(&paired(&routed, &direct))?;
    out.put("daemon.direct_p50_ms", p50(&direct)?)?;
    out.put("daemon.socket_overhead_ms", socket_overhead)?;
    out.put("router.overhead_ms", router_overhead)?;
    out.put(
        "fabric.unaccounted_ms",
        p50(&routed)? - (p50(&in_process)? + socket_overhead + router_overhead),
    )?;
    for (name, kind) in [
        ("client.tc_p50_ms", Kind::Tc),
        ("client.spread_p50_ms", Kind::Spread),
        ("client.sketch_p50_ms", Kind::Sketch),
    ] {
        let of_kind: Vec<f64> = replayed
            .iter()
            .zip(&routed)
            .filter(|(r, _)| r.req.kind == kind)
            .map(|(_, ms)| *ms)
            .collect();
        out.put(name, p50(&of_kind)?)?;
    }
    out.put("client.latency_p99_ms", percentile(&routed, 99.0)?)?;
    out.put(
        "client.latency_max_ms",
        routed.iter().copied().fold(0.0, f64::max),
    )?;
    out.notes.push(format!(
        "socket replay: {} lines direct and routed at one connection, routed p50 {:.3} ms",
        replayed.len(),
        p50(&routed)?
    ));
    Ok(())
}

/// Runs the traced pass of `w` and writes `trace-<workload>.jsonl`.
///
/// Every workload reports every per-layer metric (README.md, "Every
/// metric on every workload"): the kernel layers on its own first graph,
/// the serving layers on `serving` — the `serve-fabric` workload, whose
/// fabric is the one place they run.
pub fn run(env: &Env, w: &Workload, serving: &Workload, seed: u64, seconds: f64) -> Res<Outcome> {
    soi_util::pool::set_default_threads(THREADS);
    let mut out = Outcome::default();
    let mut tr = Tracer::default();
    let (graphs, files) = make_graphs(env, w, seed)?;
    let nodes = graphs[0].num_nodes();
    let (served_graphs, served_files) = if w.heavy == Heavy::Request {
        (graphs, files.clone())
    } else {
        make_graphs(env, serving, seed)?
    };

    // A batch workload's heavy operation once through the real binary: the
    // total the traced stages are subtracted from, with the CPU it used.
    let heavy_run = if w.heavy == Heavy::Request {
        None
    } else {
        let stage = tr.begin("stage.heavy", 0);
        let graph = files[0].display().to_string();
        let (run, _) = heavy_process(env, w, &graph, nodes, &mut out)?;
        tr.end(stage);
        Some(run)
    };

    // The cascade index does not reach 10⁵ nodes (one world's transitive
    // reduction takes ~4.7 s and 1.25 GB there), which is why
    // `batch-sketch` runs the sketch backend; its cascade-index layers are
    // timed on the same generator at the serving workload's size.
    let smaller = (w.heavy == Heavy::CliSketch).then(|| &served_graphs[0]);
    let kernels = kernel_layers(&mut tr, &mut out, w, &files[0], smaller, seed)?;
    let lines = ((seconds * REPLAY_LINES_PER_S) as usize).clamp(REPLAY_LINES.0, REPLAY_LINES.1);
    let (replayed, infmax_expected, infmax_s) =
        engine_layers(&mut tr, &mut out, serving, served_graphs, seed, lines)?;
    let spawned = Instant::now();
    let fabric = Fabric::spawn(env, serving, &served_files)?;
    out.put("daemon.warm_s", fabric.first_shard_warm_s)?;

    // Determinism contract: the in-process pipeline and the binary agree.
    // A serving workload's heavy operation is the first request its fabric
    // answers, and its CPU is the fabric's, from spawn (index warm
    // included) to the end of the replay.
    let (heavy_s, staged_s) = match &heavy_run {
        Some(run) => {
            let printed = parse_seeds(&run.stdout).unwrap_or_default();
            out.check(printed == kernels.seeds, || {
                format!(
                    "in-process pipeline selected {:?}, soi infmax printed {printed:?}",
                    kernels.seeds
                )
            });
            (run.wall_s, kernels.stage_s)
        }
        None => {
            let stage = tr.begin("stage.heavy", 0);
            let (wall_s, answer) = timed_infmax(&mut fabric.connect()?, 1, w.graphs[0].name, w.k)?;
            tr.end(stage);
            let same = mask_wall_clock(&answer) == infmax_expected;
            out.check(same && is_ok_for(&answer, 1), || {
                format!("routed infmax-tc failed or differs from execute_job: {answer}")
            });
            (wall_s, infmax_s)
        }
    };
    socket_layers(&mut tr, &mut out, serving, &fabric, &replayed)?;
    let (cpu_s, cpu_wall_s) = match &heavy_run {
        Some(run) => (run.cpu_s, run.wall_s),
        None => (fabric.resources().1, spawned.elapsed().as_secs_f64()),
    };
    drop(fabric);
    out.put("cli.cpu_s", cpu_s)?;
    out.put("cli.cpu_util", cpu_s / (cpu_wall_s * THREADS as f64))?;
    out.put("cli.unaccounted_s", heavy_s - staged_s)?;
    out.notes.push(format!(
        "heavy operation through the binary: {heavy_s:.3} s, traced stages sum to {staged_s:.3} s"
    ));

    let own = tr.self_ns();
    let path = env.out_dir.join(format!("trace-{}.jsonl", w.name));
    tr.write(&path)?;
    out.notes.push(format!(
        "{} spans written to {} (stage self times: {})",
        tr.spans.len(),
        path.display(),
        tr.spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name.starts_with("stage."))
            .map(|(s, ns)| format!("{} {:.3} s", s.name, *ns as f64 / 1e9))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut tr = Tracer::default();
        let outer = tr.begin("outer", 1);
        let (_, inner_s) = tr.timed("inner", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let outer_s = tr.end(outer);
        assert!(inner_s >= 0.002 && outer_s >= inner_s);
        assert_eq!(tr.spans[1].parent, Some(0));
        assert_eq!(tr.spans[0].parent, None);
        let own = tr.self_ns();
        let total = tr.spans[0].end_ns - tr.spans[0].start_ns;
        let child = tr.spans[1].end_ns - tr.spans[1].start_ns;
        assert_eq!(own[0], total - child);
        assert_eq!(own[1], child);
    }

    #[test]
    fn in_process_layers_run_on_smoke_graphs_and_repeat_exactly() {
        let dir = std::env::temp_dir().join(format!("soi-benchmark-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let env = Env {
            soi: "unused".into(),
            out_dir: dir.clone(),
        };
        let w = Workload::by_name(crate::spec::SERVING, true).expect("workload");
        let pass = || {
            let mut tr = Tracer::default();
            let mut out = Outcome::default();
            let (graphs, files) = make_graphs(&env, &w, 3).expect("graphs");
            let k = kernel_layers(&mut tr, &mut out, &w, &files[0], None, 3).expect("kernels");
            let (replayed, infmax, _) =
                engine_layers(&mut tr, &mut out, &w, graphs, 3, 32).expect("engine");
            assert_eq!(out.failed, 0, "{:?}", out.notes);
            assert_eq!(replayed.len(), 32);
            let counts: Vec<f64> = [
                "index.comps_per_world",
                "sketch.entries",
                "index.mean_cascade_size",
            ]
            .iter()
            .map(|name| out.get(name).expect("measured"))
            .collect();
            let answers: Vec<String> = replayed.into_iter().map(|r| r.expected).collect();
            (k.seeds, infmax, counts, answers)
        };
        let (a, b) = (pass(), pass());
        assert_eq!(a, b);
        assert_eq!(a.0.len(), w.k);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
