//! Runs the full experiment suite — every table and figure of §6 — and
//! writes one TSV per experiment under `--out` (default
//! `target/experiments/`), or only those named. See the `soi-bench` docs.
//!
//! The default scale/sample settings finish on a laptop; pass
//! `--samples 1000 --scale 1` for the paper's sampling budget (slower).

use std::fs::File;
use std::io::BufWriter;
use std::path::Path;

fn main() -> std::io::Result<()> {
    let args = soi_bench::Args::parse();
    let dir = Path::new(&args.out);
    std::fs::create_dir_all(dir)?;

    for (name, runner) in &args.experiments {
        let path = dir.join(format!("{name}.tsv"));
        eprintln!("=== {} ===", path.display());
        let t = soi_util::Timer::start();
        let mut out = BufWriter::new(File::create(&path)?);
        runner(&args, &mut out)?;
        eprintln!(
            "=== {name}.tsv done in {} ===",
            soi_util::timer::format_duration(t.elapsed())
        );
    }
    eprintln!("all experiments written to {}", dir.display());
    Ok(())
}
