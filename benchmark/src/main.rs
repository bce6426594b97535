//! `soi-benchmark`: the repo benchmark driver (see `benchmark/README.md`).
//!
//! ```text
//! soi-benchmark --workload W --seed N --seconds S --trace 0|1   one pass; last line is the result JSON
//! soi-benchmark all [--seed N] [--seconds S] [--twice]          every workload, both passes, every metric
//! soi-benchmark compare A.json B.json                           two result sets of the same code
//! ```
//! Common flags: `--soi PATH` (the release `soi` binary), `--out-dir DIR`
//! (inputs, captures, traces), `--smoke` (graphs ÷ 10).

mod e2e;
mod load;
mod procs;
mod report;
mod spec;
mod trace;

use procs::Env;
use report::{Host, Outcome};
use spec::{Res, Workload, END_TO_END, PER_LAYER, SERVING, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

/// Parsed command line.
struct Args {
    positional: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    twice: bool,
    soi: PathBuf,
    out_dir: PathBuf,
}

fn parse_args(argv: &[String]) -> Res<Args> {
    let mut args = Args {
        positional: Vec::new(),
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        twice: false,
        soi: PathBuf::from("target/release/soi"),
        out_dir: PathBuf::from("target/benchmark-out"),
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{what} needs a value"));
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?.clone()),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--twice" => args.twice = true,
            "--soi" => args.soi = PathBuf::from(value("--soi")?),
            "--out-dir" => args.out_dir = PathBuf::from(value("--out-dir")?),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => args.positional.push(arg.clone()),
        }
    }
    Ok(args)
}

/// One pass over one workload.
fn pass(env: &Env, name: &str, args: &Args, seconds: f64, traced: bool) -> Res<Outcome> {
    let w = Workload::by_name(name, args.smoke)
        .ok_or_else(|| format!("unknown workload {name:?} (one of {WORKLOADS:?})"))?;
    let before = procs::host_cpu_ticks();
    let mut outcome = if traced {
        let serving = Workload::by_name(SERVING, args.smoke).ok_or("no serving workload")?;
        trace::run(env, &w, &serving, args.seed, seconds)?
    } else {
        e2e::run(env, &w, args.seed, seconds)?
    };
    if let (Some((steal0, total0)), Some((steal1, total1))) = (before, procs::host_cpu_ticks()) {
        outcome.notes.push(format!(
            "host: {:.1} % of CPU time stolen by the hypervisor during this pass",
            100.0 * (steal1 - steal0) / (total1 - total0).max(1.0)
        ));
    }
    Ok(outcome)
}

fn print_host(host: &Host) {
    println!("host {}", host.json());
    if host.oversubscribed() {
        println!(
            "# oversubscribed: {} core(s) for {} threads and clients; times below are not \
             comparable with a 2-core host and no thread scaling is derived from them",
            host.cores,
            spec::THREADS
        );
    }
}

fn print_comparison(a: &str, b: &str) -> Res<bool> {
    let (report, agree) = report::compare(a, b)?;
    print!("{report}");
    println!(
        "{}",
        if agree {
            "result sets agree"
        } else {
            "result sets DISAGREE"
        }
    );
    Ok(agree)
}

fn run(argv: &[String]) -> Res<bool> {
    let args = parse_args(argv)?;
    if args.positional.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args.positional.as_slice() else {
            return Err("usage: soi-benchmark compare A.json B.json".to_string());
        };
        let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
        return print_comparison(&read(a)?, &read(b)?);
    }

    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
    if !args.soi.is_file() {
        return Err(format!(
            "{}: no soi binary (build it, or pass --soi)",
            args.soi.display()
        ));
    }
    let env = Env {
        soi: args.soi.clone(),
        out_dir: args.out_dir.clone(),
    };
    let host = Host::detect(args.seed, args.smoke);
    print_host(&host);

    if let Some(name) = &args.workload {
        // The contract run: one pass, result line last.
        let seconds = args.seconds.unwrap_or(20.0);
        let outcome = pass(&env, name, &args, seconds, args.trace)?;
        println!(
            "{name} ({}):",
            if args.trace {
                "traced pass"
            } else {
                "untraced pass"
            }
        );
        print!("{}", outcome.table());
        let defs = if args.trace { PER_LAYER } else { END_TO_END };
        println!("{}", outcome.result_line(defs)?);
        return Ok(outcome.failed == 0);
    }

    if args.positional.first().map(String::as_str) != Some("all") {
        return Err("expected --workload NAME, `all`, or `compare A.json B.json`".to_string());
    }
    // The full run: the untraced pass gives the end-to-end numbers, the
    // traced pass the per-layer ones. With `--twice` each pass of each
    // workload runs twice back to back, so the two result sets see the
    // same minutes of a shared host, and the sets are then compared.
    let seconds = args.seconds.unwrap_or(if args.smoke { 3.0 } else { 30.0 });
    let sets = if args.twice { 2 } else { 1 };
    let mut results = vec![Vec::new(); sets];
    let mut ok = true;
    for name in WORKLOADS {
        let mut untraced = Vec::new();
        for set in 1..=sets {
            let outcome = pass(&env, name, &args, seconds, false)?;
            println!("{name} end-to-end (untraced), set {set}:");
            print!("{}", outcome.table());
            untraced.push(outcome);
        }
        for (set, untraced) in untraced.into_iter().enumerate() {
            let traced = pass(&env, name, &args, seconds, true)?;
            println!("{name} per-layer (traced), set {}:", set + 1);
            print!("{}", traced.table());
            ok &= untraced.failed == 0 && traced.failed == 0;
            results[set].push((*name, untraced, traced));
        }
    }
    let mut written = Vec::new();
    for (set, results) in results.iter().enumerate() {
        let file = if args.twice {
            format!("results-{}.json", set + 1)
        } else {
            "results.json".to_string()
        };
        let path = args.out_dir.join(file);
        let json = report::results_json(&host, results);
        std::fs::write(&path, &json).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("results written to {}", path.display());
        written.push(json);
    }
    if let [a, b] = written.as_slice() {
        ok &= print_comparison(a, b)?;
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("soi-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
