//! Runs the full experiment suite — every table and figure of §6 — and
//! writes one TSV per experiment under `--out` (default
//! `target/experiments/`), or only those named. See the `soi-bench` docs.
//!
//! The default scale/sample settings finish on a laptop; pass
//! `--samples 1000 --scale 1` for the paper's sampling budget (slower).
//! An I/O failure names the directory or file it failed on, and exits 1.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = soi_bench::Args::parse();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &soi_bench::Args) -> Result<(), String> {
    let failed = |path: &Path| {
        let path = path.display().to_string();
        move |e: std::io::Error| format!("{path}: {e}")
    };
    let dir = Path::new(&args.out);
    std::fs::create_dir_all(dir).map_err(failed(dir))?;

    for (name, runner) in &args.experiments {
        let path = dir.join(format!("{name}.tsv"));
        eprintln!("=== {} ===", path.display());
        let t = soi_util::Timer::start();
        let mut out = BufWriter::new(File::create(&path).map_err(failed(&path))?);
        runner(args, &mut out)
            .and_then(|()| out.flush())
            .map_err(failed(&path))?;
        eprintln!(
            "=== {name}.tsv done in {} ===",
            soi_util::timer::format_duration(t.elapsed())
        );
    }
    eprintln!("all experiments written to {}", dir.display());
    Ok(())
}
