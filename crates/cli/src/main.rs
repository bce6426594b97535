//! `soi` — the command-line face of the spheres-of-influence toolkit.
//!
//! ```text
//! soi generate --model ba --nodes 1000 --prob wc --out net.tsv
//! soi stats net.tsv
//! soi sphere net.tsv --source 42
//! soi spheres net.tsv --out spheres.tsv
//! soi infmax net.tsv --k 20 --method tc
//! soi reliability net.tsv --source 0 --target 7
//! soi learn graph.tsv log.tsv --method saito --out learned.tsv
//! ```
//!
//! Graph files are the workspace's TSV edge-list format
//! (`source<TAB>target<TAB>probability`, `# nodes: N` header); log files
//! are `user<TAB>item<TAB>time` lines.
//!
//! Exit codes (see `docs/ROBUSTNESS.md`): 0 complete; 1 runtime failure;
//! 2 usage error (usage text on stderr); 3 deadline expired with partial,
//! resumable output.

mod commands;

use commands::RunStatus;
use std::io::Write;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = commands::dispatch(&args, &mut std::io::stdout().lock());
    // Diagnostics go through `writeln!` with the error dropped, never
    // `eprintln!`: a closed stderr must not turn the exit code into a
    // panic's 101.
    let mut stderr = std::io::stderr().lock();
    let code = match result {
        Ok(RunStatus::Complete) => 0,
        Ok(RunStatus::Partial { fraction }) => {
            let _ = writeln!(
                stderr,
                "partial: {:.1}% complete (deadline expired or responses lost; \
                 interrupted pipelines re-run with --resume)",
                fraction * 100.0
            );
            3
        }
        Err(e) if e.is_usage() => {
            let _ = writeln!(stderr, "error: {e}\n{}", commands::USAGE);
            2
        }
        Err(e) => {
            let _ = writeln!(stderr, "error: {e}");
            1
        }
    };
    std::process::exit(code);
}
