//! `soi infmax --backend sketch` stdout pinned to hashes recorded at
//! commit 351724d, whose selection re-sampled all ℓ worlds for every seed
//! it picked. Selection over worlds drawn once must print the same bytes:
//! on BA 10⁵ under weighted cascade (the benchmark's sketch graph) and on
//! the supercritical G(1000, 5000) at p = 0.3.

mod common;

use common::{fresh_dir, generate, soi, stdout_str};

#[test]
fn sketch_infmax_stdout_is_pinned() {
    let dir = fresh_dir("sketch-pin");
    let ba = generate(
        &dir,
        "ba.tsv",
        &[
            "--model", "ba", "--nodes", "100000", "--m", "5", "--prob", "wc", "--seed", "1",
        ],
    );
    let gnm = generate(
        &dir,
        "gnm.tsv",
        &[
            "--model",
            "gnm",
            "--nodes",
            "1000",
            "--edges",
            "5000",
            "--prob",
            "fixed:0.3",
            "--seed",
            "1",
        ],
    );
    // (graph, k, ℓ, sketch k)
    let runs = [(&ba, "10", "8", "16"), (&gnm, "20", "64", "64")];
    let got = runs.map(|(graph, k, samples, sketch_k)| {
        let out = soi()
            .args(["infmax", graph, "--k", k, "--backend", "sketch"])
            .args(["--samples", samples, "--sketch-k", sketch_k])
            .output()
            .expect("spawn soi infmax");
        soi_util::hash::hash_bytes(stdout_str(&out).as_bytes())
    });
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(
        got,
        [0x0346_84f7_d66d_f808, 0x7ce5_a7d0_6f1a_373c],
        "got {got:#x?}"
    );
}
