//! The untraced pass: what a user of the system sees, measured only
//! through the real `soi` binary — process spawn for the batch workloads,
//! TCP through `soi route` for the serving one — with every output
//! checked in the same run.

use crate::load::{closed_loop, latencies, percentile, Sample};
use crate::procs::{is_ok_for, parse_seeds, run_soi, write_graph, Env, Fabric, ProcRun};
use crate::report::Outcome;
use crate::spec::{
    infmax_line, warmup_lines, Heavy, Kind, Res, Workload, CLIENTS, EVAL_SAMPLES, EVAL_SEED,
    RIS_FLOOR,
};
use soi_graph::ProbGraph;
use std::path::PathBuf;
use std::time::Instant;

/// A batch workload's set-up is timed at least this often, and again
/// until [`BATCH_SETUP_S`] have gone into it.
const BATCH_SETUPS: usize = 9;
/// Seconds of set-ups behind a batch `setup_s`: the smallest graph takes
/// a millisecond, and its median should be over hundreds.
const BATCH_SETUP_S: f64 = 1.0;
/// Fabric cold starts timed for the serving workload's `setup_s` median.
const COLD_STARTS: usize = 3;
/// `infmax-tc` requests per heavy repetition of the serving workload.
const INFMAX_PER_REP: usize = 3;

/// Heavy repetitions for a run of `seconds`: one per ten seconds, so the
/// contract's 20 s runs make two and the 30 s full run makes three.
pub fn heavy_reps(seconds: f64) -> usize {
    ((seconds / 10.0).round() as usize).max(1)
}

/// Generates and writes every graph of the workload, returning them with
/// their files.
pub fn make_graphs(env: &Env, w: &Workload, seed: u64) -> Res<(Vec<ProbGraph>, Vec<PathBuf>)> {
    let mut graphs = Vec::new();
    let mut files = Vec::new();
    for (i, spec) in w.graphs.iter().enumerate() {
        let pg = spec.generate(seed, i as u64)?;
        let name = format!("{}-{}-{}", w.name, spec.name, spec.nodes);
        files.push(write_graph(&env.out_dir, &name, &pg)?);
        graphs.push(pg);
    }
    Ok((graphs, files))
}

/// Expected spread of `seeds`, re-evaluated the same way for every
/// workload and every seed set so the numbers compare.
pub fn seed_spread(pg: &ProbGraph, seeds: &[u32]) -> f64 {
    soi_sampling::estimate_spread(pg, seeds, EVAL_SAMPLES, EVAL_SEED)
}

/// Checks a seed list: `k` distinct in-range nodes.
fn seeds_valid(seeds: &[u32], k: usize, nodes: usize) -> bool {
    let mut sorted = seeds.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    sorted.len() == k.min(nodes) && sorted.iter().all(|&v| (v as usize) < nodes)
}

/// The quality reference: seeds of `soi infmax --method ris` at the
/// workload's `k` on its first graph, through the binary.
fn ris_seeds(env: &Env, w: &Workload, graph: &str, out: &mut Outcome) -> Res<Vec<u32>> {
    let run = run_soi(env, &w.infmax_args(graph, true), "ris.out")?;
    let seeds = parse_seeds(&run.stdout).unwrap_or_default();
    out.check(run.ok && !seeds.is_empty(), || {
        format!("soi infmax --method ris failed: {:?}", run.stdout)
    });
    Ok(seeds)
}

/// Records `seed_spread_vs_ris`: the expected spread of `seeds` as a
/// share of the RIS seeds' spread, both re-evaluated by the driver the
/// same way. A ratio, because the absolute spread moves ±6 % with the
/// graph a seed generates while the ratio stays within ±1 %.
fn quality(out: &mut Outcome, pg: &ProbGraph, seeds: &[u32], ris: &[u32]) -> Res<()> {
    let (spread, ris_spread) = (seed_spread(pg, seeds), seed_spread(pg, ris));
    out.put("seed_spread_vs_ris", spread / ris_spread)?;
    out.check(spread >= RIS_FLOOR * ris_spread, || {
        format!("seed spread {spread:.2} is below {RIS_FLOOR} x the RIS seeds' {ris_spread:.2}")
    });
    out.notes.push(format!(
        "seed spread {spread:.2} nodes, RIS seeds' {ris_spread:.2} nodes (k={})",
        seeds.len()
    ));
    Ok(())
}

/// Runs the heavy `soi infmax` once and checks exit code and seeds.
pub fn heavy_process(
    env: &Env,
    w: &Workload,
    graph: &str,
    nodes: usize,
    out: &mut Outcome,
) -> Res<(ProcRun, Vec<u32>)> {
    let run = run_soi(env, &w.infmax_args(graph, false), "heavy.out")?;
    let seeds = parse_seeds(&run.stdout).unwrap_or_default();
    out.check(run.ok && seeds_valid(&seeds, w.k, nodes), || {
        format!(
            "soi infmax exited badly or printed invalid seeds: {:?}",
            run.stdout
        )
    });
    Ok((run, seeds))
}

/// Records throughput and the latency percentiles of `ms`, the latencies
/// of the operations that `elapsed_s` seconds of closed loop completed
/// correctly.
fn throughput_and_latency(out: &mut Outcome, ms: &[f64], elapsed_s: f64) -> Res<()> {
    out.put("req_per_s", ms.len() as f64 / elapsed_s)?;
    out.put("latency_p50_ms", percentile(ms, 50.0)?)?;
    out.put("latency_p90_ms", percentile(ms, 90.0)?)
}

/// Records and returns `time_to_seeds_s`: the fastest of the heavy
/// operations, not their median. They do identical work, and a shared
/// host only ever slows a CPU-bound operation down — by 10-50 % for up to
/// a minute at a time where the baseline was taken.
fn time_to_seeds(out: &mut Outcome, walls: &[f64], what: &str) -> Res<f64> {
    let fastest = walls.iter().copied().fold(f64::INFINITY, f64::min);
    out.put("time_to_seeds_s", fastest)?;
    out.notes.push(format!(
        "time_to_seeds_s: fastest of {} {what}, median {:.3} max {:.3}",
        walls.len(),
        percentile(walls, 50.0)?,
        walls.iter().copied().fold(0.0, f64::max)
    ));
    Ok(fastest)
}

fn batch(env: &Env, w: &Workload, seed: u64, seconds: f64) -> Res<Outcome> {
    let mut out = Outcome::default();
    // Set-up is the benchmark's own here — generate and write the input —
    // several times over; `soi infmax` loads the file inside its timed run.
    let mut setups = Vec::new();
    let (graphs, files) = loop {
        let started = Instant::now();
        let made = make_graphs(env, w, seed)?;
        setups.push(started.elapsed().as_secs_f64());
        if setups.len() >= BATCH_SETUPS && setups.iter().sum::<f64>() >= BATCH_SETUP_S {
            break made;
        }
    };
    let (pg, graph) = (&graphs[0], files[0].display().to_string());
    out.put("setup_s", percentile(&setups, 50.0)?)?;
    out.notes
        .push(format!("setup_s: median of {} set-ups", setups.len()));
    // The reference answer is a check, not a cost: untimed.
    let ris = ris_seeds(env, w, &graph, &mut out)?;

    let mut runs: Vec<(ProcRun, Vec<u32>)> = Vec::new();
    for _ in 0..heavy_reps(seconds) {
        runs.push(heavy_process(env, w, &graph, pg.num_nodes(), &mut out)?);
    }
    let (first, seeds) = &runs[0];
    out.check(runs.iter().all(|(r, _)| r.stdout == first.stdout), || {
        "repetitions of soi infmax printed different output".to_string()
    });
    let walls: Vec<f64> = runs.iter().map(|(r, _)| r.wall_s).collect();
    let fastest = time_to_seeds(&mut out, &walls, "soi infmax runs")?;
    out.put(
        "peak_rss_mb",
        runs.iter().map(|(r, _)| r.rss_mb).fold(0.0, f64::max),
    )?;
    quality(&mut out, pg, seeds, &ris)?;
    // A batch workload's only operation is this run, so the request
    // metrics restate `time_to_seeds_s` here: every workload must print
    // every end-to-end metric (README.md).
    throughput_and_latency(&mut out, &[fastest * 1e3], fastest)?;
    Ok(out)
}

/// Asks one `infmax-tc` over `conn`, returning its latency in seconds and
/// the response line.
pub fn timed_infmax(
    conn: &mut crate::procs::Conn,
    id: u64,
    graph: &str,
    k: usize,
) -> Res<(f64, String)> {
    let sent = Instant::now();
    let response = conn.ask(&infmax_line(id, graph, k))?;
    Ok((sent.elapsed().as_secs_f64(), response))
}

/// The `seeds` array of an `infmax-tc` response.
pub fn response_seeds(response: &str) -> Vec<u32> {
    soi_server::json::parse(response)
        .ok()
        .and_then(|v| {
            v.get("seeds")?
                .as_arr()?
                .iter()
                .map(|s| s.as_u64().and_then(|n| u32::try_from(n).ok()))
                .collect()
        })
        .unwrap_or_default()
}

fn serve(env: &Env, w: &Workload, seed: u64, seconds: f64) -> Res<Outcome> {
    let mut out = Outcome::default();
    let (graphs, files) = make_graphs(env, w, seed)?;
    let ris = ris_seeds(env, w, &files[0].display().to_string(), &mut out)?;
    // Set-up: cold start, several times over — spawn of every daemon and
    // the router until the router listens, index warm included.
    let mut fabric = Fabric::spawn(env, w, &files)?;
    let mut setups = vec![fabric.cold_start_s];
    for _ in 1..COLD_STARTS {
        drop(fabric);
        fabric = Fabric::spawn(env, w, &files)?;
        setups.push(fabric.cold_start_s);
    }
    out.put("setup_s", percentile(&setups, 50.0)?)?;

    let mut conns = Vec::new();
    for _ in 0..CLIENTS {
        conns.push(fabric.connect()?);
    }
    for (i, (id, line)) in warmup_lines(w).iter().enumerate() {
        let answer = conns[i % CLIENTS].ask(line)?;
        out.check(is_ok_for(&answer, *id), || {
            format!("warm-up refused: {answer}")
        });
    }

    let (samples, elapsed) = closed_loop(&mut conns, w, seed, seconds, |conn, req| {
        Ok(is_ok_for(&conn.ask(&req.line)?, req.id))
    });
    let failed = samples.iter().filter(|s| !s.ok).count();
    out.count(samples.len(), failed, "routed requests");
    let answered: Vec<Sample> = samples.into_iter().filter(|s| s.ok).collect();
    throughput_and_latency(&mut out, &latencies(&answered, None), elapsed)?;
    out.notes.push(format!(
        "mix: {} routed requests answered in {elapsed:.2} s over {CLIENTS} closed-loop connections",
        answered.len()
    ));
    for kind in [Kind::Tc, Kind::Spread, Kind::Sketch] {
        let of_kind = latencies(&answered, Some(kind));
        out.notes.push(format!(
            "mix {kind:?}: p50 {:.3} ms over {} requests",
            percentile(&of_kind, 50.0)?,
            of_kind.len()
        ));
    }

    // Heavy requests run alone, after the mix, so they do not randomise
    // its throughput.
    let (name, pg) = (w.graphs[0].name, &graphs[0]);
    let mut walls = Vec::new();
    let mut answers: Vec<Vec<u32>> = Vec::new();
    for i in 0..(INFMAX_PER_REP * heavy_reps(seconds)) as u64 {
        let (wall_s, response) = timed_infmax(&mut conns[0], 800_000_000 + i, name, w.k)?;
        let seeds = response_seeds(&response);
        out.check(
            is_ok_for(&response, 800_000_000 + i) && seeds_valid(&seeds, w.k, pg.num_nodes()),
            || format!("infmax-tc answered badly: {response}"),
        );
        walls.push(wall_s);
        answers.push(seeds);
    }
    out.check(answers.iter().all(|s| *s == answers[0]), || {
        "infmax-tc requests returned different seeds".to_string()
    });
    time_to_seeds(&mut out, &walls, "infmax-tc requests")?;
    quality(&mut out, pg, &answers[0], &ris)?;
    out.put("peak_rss_mb", fabric.resources().0)?;
    Ok(out)
}

/// Runs the untraced pass of `w`.
pub fn run(env: &Env, w: &Workload, seed: u64, seconds: f64) -> Res<Outcome> {
    match w.heavy {
        Heavy::CliTc | Heavy::CliSketch => batch(env, w, seed, seconds),
        Heavy::Request => serve(env, w, seed, seconds),
    }
}
