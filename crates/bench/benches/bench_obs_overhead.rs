//! Publishes the instrumentation-overhead guard numbers as
//! `obs_overhead/*` entries in `BENCH_summary.json`.
//!
//! Two arms time the identical dispatch-heavy workload
//! (`soi_bench::overhead::workload`) with the per-thread timing plane
//! disabled and enabled; the interleaved A/B measurement's relative
//! cost (per-arm minima) is attached to the enabled arm as `overhead_ppm`.
//! CI's `kernel-rows` step runs this target and fails when the enabled
//! arm's `min_ns` is 5% or more above the disabled arm's.

use soi_bench::microbench::{attach_extra, Bencher};
use soi_bench::overhead;

fn main() {
    let b = Bencher::group("obs_overhead").sample_size(10);
    soi_obs::perthread::set_enabled(false);
    b.bench("disabled", overhead::workload);
    soi_obs::perthread::set_enabled(true);
    b.bench("enabled", overhead::workload);

    let measured = overhead::measure(overhead::MIN_ROUNDS);
    let ppm = (measured.fraction() * 1_000_000.0) as u128;
    attach_extra("obs_overhead/enabled", [("overhead_ppm".to_string(), ppm)]);
    println!(
        "obs_overhead/fraction\t{:.2}%\t(limit {:.0}%)",
        measured.fraction() * 100.0,
        overhead::MAX_OVERHEAD_FRACTION * 100.0
    );
    soi_bench::microbench::write_summary();
}
