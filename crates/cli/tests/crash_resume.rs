//! Crash-then-resume matrix over the real `soi` binary.
//!
//! For every registered failpoint site ([`soi_util::failpoint::SITES`])
//! the test arms a simulated crash (`exit(41)`, no destructors) via the
//! `SOI_FAILPOINTS` environment variable, runs the pipeline until it
//! dies, then re-runs with `--resume` and asserts the final output is
//! **byte-identical** to an uninterrupted run. This is the end-to-end
//! proof of the checkpoint/resume contract in `docs/ROBUSTNESS.md`.
//!
//! Failpoints compile to no-ops in release builds; `cargo test` builds
//! the binary with `debug_assertions` on, which is what arms the sites.

mod common;

use common::{fresh_dir, generate, soi};
use soi_util::ckpt::{
    read_checkpoint, write_checkpoint, KIND_GREEDY, KIND_SPHERE_BOUNDS, KIND_TYPICAL_CASCADES,
};
use std::path::Path;
use std::process::{Command, Output};

#[cfg(debug_assertions)]
const CRASH: i32 = 41;

fn run(mut cmd: Command) -> Output {
    cmd.output().expect("spawn soi")
}

fn assert_code(out: &Output, want: i32, what: &str) {
    assert_eq!(
        out.status.code(),
        Some(want),
        "{what}: expected exit {want}, got {:?}\nstdout: {}\nstderr: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
}

/// The shared 50-node test graph.
fn make_graph(dir: &Path) -> String {
    let ba = "--model ba --nodes 50 --m 2 --prob wc --seed 9";
    generate(dir, "g.tsv", &ba.split(' ').collect::<Vec<_>>())
}

#[cfg(debug_assertions)]
fn spheres_args(graph: &str, out_path: &str, ckpt_dir: &str) -> Vec<String> {
    [
        "spheres",
        graph,
        "--samples",
        "32",
        "--seed",
        "4",
        "--out",
        out_path,
        "--checkpoint-dir",
        ckpt_dir,
        "--checkpoint-every",
        "10",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

#[cfg(debug_assertions)] // arms a failpoint; the sites compile out in release
#[test]
fn every_registered_site_crashes_then_resumes_byte_identical() {
    let dir = fresh_dir("matrix");
    let graph = make_graph(&dir);

    // Golden uninterrupted outputs.
    let golden_spheres = dir.join("golden-spheres.tsv");
    let out = run({
        let mut c = soi();
        c.args(spheres_args(
            &graph,
            golden_spheres.to_str().unwrap(),
            dir.join("ck-golden").to_str().unwrap(),
        ));
        c
    });
    assert_code(&out, 0, "golden spheres");
    let golden_spheres = std::fs::read(&golden_spheres).unwrap();

    let golden_greedy = run({
        let mut c = soi();
        c.args([
            "infmax",
            &graph,
            "--k",
            "5",
            "--method",
            "greedy",
            "--samples",
            "32",
        ]);
        c
    });
    assert_code(&golden_greedy, 0, "golden greedy");

    let sketch_args = |ck: &Path, resume: bool| {
        let mut a: Vec<String> = [
            "infmax",
            &graph,
            "--k",
            "5",
            "--backend",
            "sketch",
            "--sketch-k",
            "16",
            "--samples",
            "32",
            "--checkpoint-dir",
            ck.to_str().unwrap(),
            "--checkpoint-every",
            "1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        if resume {
            a.push("--resume".into());
        }
        a
    };
    let golden_sketch = run({
        let mut c = soi();
        c.args(sketch_args(&dir.join("ck-golden-sketch"), false));
        c
    });
    assert_code(&golden_sketch, 0, "golden sketch");

    // `infmax --method tc` runs the node-block engine `spheres` runs, so
    // the `engine.block` crash below is replayed through it as well.
    let tc_cmd = |ck: Option<&Path>, resume: bool| {
        let mut c = soi();
        c.args(["infmax", &graph]);
        c.args("--k 5 --method tc --samples 32 --seed 4".split(' '));
        if let Some(ck) = ck {
            c.arg("--checkpoint-dir").arg(ck);
            c.args(["--checkpoint-every", "10"]);
        }
        if resume {
            c.arg("--resume");
        }
        c
    };
    let golden_tc = run(tc_cmd(None, false));
    assert_code(&golden_tc, 0, "golden tc");

    // Which pipeline exercises each site, and on which hit to fire so
    // at least one checkpoint usually exists before the crash.
    for &site in soi_util::failpoint::SITES {
        // `server.*` sites crash mid-request inside the daemon and
        // `router.*` sites inside the shard router; they are exercised
        // by the serve-chaos / route-chaos matrices (tests/serve_chaos.rs,
        // tests/route_chaos.rs), not by checkpoint/resume. `verify.*`
        // sites fault the differential harness's own I/O, exercised by
        // its unit tests (crates/verify/src/stream.rs) — there is no
        // checkpoint to resume from.
        if site.starts_with("server.") || site.starts_with("router.") || site.starts_with("verify.")
        {
            continue;
        }
        let tag = site.replace('.', "-");
        let ck = dir.join(format!("ck-{tag}"));
        let out_path = dir.join(format!("out-{tag}.tsv"));
        let spec = match site {
            "graph.io.read" => format!("{site}=exit({CRASH})"),
            "ckpt.write.tmp" | "ckpt.write.rename" => format!("{site}=exit({CRASH})@2"),
            "engine.block" => format!("{site}=exit({CRASH})@3"),
            "greedy.round" => format!("{site}=exit({CRASH})@4"),
            "cli.spheres.write" => format!("{site}=exit({CRASH})"),
            "sketch.build.block" => format!("{site}=exit({CRASH})@2"),
            other => panic!("unmapped failpoint site {other:?} — extend this matrix"),
        };

        if site == "sketch.build.block" {
            let crash = run({
                let mut c = soi();
                c.args(sketch_args(&ck, false));
                c.env(soi_util::failpoint::ENV_VAR, &spec);
                c
            });
            assert_code(&crash, CRASH, &format!("crash run ({site})"));
            let resumed = run({
                let mut c = soi();
                c.args(sketch_args(&ck, true));
                c
            });
            assert_code(&resumed, 0, &format!("resume run ({site})"));
            assert_eq!(
                resumed.stdout, golden_sketch.stdout,
                "{site}: resumed sketch infmax output differs from uninterrupted run"
            );
            assert!(
                !ck.join("sketch.ckpt").exists(),
                "{site}: sketch checkpoint not discarded after completion"
            );

            // A build shorter than the default cadence (40 < 64 worlds)
            // whose budget runs out during selection: the exit-3 run must
            // leave the finished build on disk. The resume's 25 ticks pay
            // for the 20 selection rounds but not for rebuilding a world.
            let short = |extra: &[&str]| {
                let mut c = soi();
                c.args(["infmax", &graph]);
                c.args("--k 20 --backend sketch --sketch-k 16 --samples 40".split(' '));
                c.args(extra);
                c
            };
            let golden_short = run(short(&[]));
            assert_code(&golden_short, 0, "golden short sketch");
            let ck = dir.join("ck-sketch-short");
            let ck = ck.to_str().unwrap();
            let expired = run(short(&["--checkpoint-dir", ck, "--deadline-ticks", "45"]));
            assert_code(&expired, 3, "short sketch build, budget spent in selection");
            assert!(
                Path::new(ck).join("sketch.ckpt").exists(),
                "exit 3 says resumable but left no sketch checkpoint"
            );
            let resumed = run(short(&[
                "--checkpoint-dir",
                ck,
                "--deadline-ticks",
                "25",
                "--resume",
            ]));
            assert_code(&resumed, 0, "resumed short sketch");
            assert_eq!(
                resumed.stdout, golden_short.stdout,
                "resumed short sketch infmax output differs from uninterrupted run"
            );
            continue;
        }

        if site == "greedy.round" {
            let greedy_args = |resume: bool| {
                let mut a: Vec<String> = [
                    "infmax",
                    &graph,
                    "--k",
                    "5",
                    "--method",
                    "greedy",
                    "--samples",
                    "32",
                    "--checkpoint-dir",
                    ck.to_str().unwrap(),
                    "--checkpoint-every",
                    "1",
                ]
                .iter()
                .map(|s| s.to_string())
                .collect();
                if resume {
                    a.push("--resume".into());
                }
                a
            };
            let crash = run({
                let mut c = soi();
                c.args(greedy_args(false));
                c.env(soi_util::failpoint::ENV_VAR, &spec);
                c
            });
            assert_code(&crash, CRASH, &format!("crash run ({site})"));
            let resumed = run({
                let mut c = soi();
                c.args(greedy_args(true));
                c
            });
            assert_code(&resumed, 0, &format!("resume run ({site})"));
            assert_eq!(
                resumed.stdout, golden_greedy.stdout,
                "{site}: resumed greedy output differs from uninterrupted run"
            );
            continue;
        }

        if site == "engine.block" {
            let (ck, file) = (dir.join("ck-tc"), dir.join("ck-tc/infmax-tc.ckpt"));
            let mut crash = tc_cmd(Some(&ck), false);
            crash.env(soi_util::failpoint::ENV_VAR, &spec);
            assert_code(&run(crash), CRASH, "crash run (infmax tc)");
            assert!(file.exists(), "two blocks were durable before the crash");
            let resumed = run(tc_cmd(Some(&ck), true));
            assert_code(&resumed, 0, "resume run (infmax tc)");
            assert_eq!(
                resumed.stdout, golden_tc.stdout,
                "resumed tc infmax output differs from uninterrupted run"
            );
            assert!(!file.exists(), "tc checkpoint not discarded on completion");
        }

        let crash = run({
            let mut c = soi();
            c.args(spheres_args(
                &graph,
                out_path.to_str().unwrap(),
                ck.to_str().unwrap(),
            ));
            c.env(soi_util::failpoint::ENV_VAR, &spec);
            c
        });
        assert_code(&crash, CRASH, &format!("crash run ({site})"));

        let mut resume_args =
            spheres_args(&graph, out_path.to_str().unwrap(), ck.to_str().unwrap());
        resume_args.push("--resume".into());
        let resumed = run({
            let mut c = soi();
            c.args(resume_args);
            c
        });
        assert_code(&resumed, 0, &format!("resume run ({site})"));
        let resumed_bytes = std::fs::read(&out_path).unwrap();
        assert_eq!(
            resumed_bytes, golden_spheres,
            "{site}: resumed spheres TSV differs from uninterrupted run"
        );
        assert!(
            !ck.join("spheres.ckpt").exists(),
            "{site}: checkpoint not discarded after successful completion"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[cfg(debug_assertions)] // arms a failpoint; the sites compile out in release
#[test]
fn error_action_fails_with_runtime_exit_code() {
    let dir = fresh_dir("error-action");
    let graph = make_graph(&dir);
    let out = run({
        let mut c = soi();
        c.args(["stats", &graph]);
        c.env(soi_util::failpoint::ENV_VAR, "graph.io.read=error");
        c
    });
    assert_code(&out, 1, "error-action run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("graph.io.read"), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The cascade index's fingerprint at commit 74cb3e5, when it hashed each
/// world's condensation size, for `make_graph`'s graph at `--samples 32
/// --seed 4`: the key of the `spheres`, `infmax --method tc` and
/// `--method greedy` checkpoints that commit wrote for these runs.
const CONDENSATION_KEY: u64 = 0xa869_d10e_198e_59b3;

/// A checkpoint keyed on the condensation fingerprint, its container and
/// checksum valid, is refused on `--resume` with the typed
/// `graph_fingerprint` mismatch and left byte-for-byte as it was.
#[test]
fn checkpoints_keyed_on_condensations_are_refused() {
    let dir = fresh_dir("condensation-key");
    let graph = make_graph(&dir);
    let out_path = dir.join("spheres.tsv");
    let cases = [
        (
            "spheres.ckpt",
            KIND_TYPICAL_CASCADES,
            "15",
            "spheres",
            "--checkpoint-every 10",
        ),
        (
            "infmax-tc.ckpt",
            KIND_SPHERE_BOUNDS,
            "15",
            "infmax",
            "--k 5 --method tc --checkpoint-every 10",
        ),
        (
            "greedy.ckpt",
            KIND_GREEDY,
            "55",
            "infmax",
            "--k 5 --method greedy --checkpoint-every 1",
        ),
    ];
    for (file, kind, ticks, command, flags) in cases {
        let ck = dir.join(format!("ck-{file}"));
        let cmd = |extra: &[&str]| {
            let mut c = soi();
            c.args([command, &graph]).args(flags.split(' '));
            if command == "spheres" {
                c.arg("--out").arg(&out_path);
            }
            c.args("--samples 32 --seed 4".split(' '));
            c.arg("--checkpoint-dir").arg(&ck).args(extra);
            c
        };
        assert_code(&run(cmd(&["--deadline-ticks", ticks])), 3, file);
        let path = ck.join(file);
        let mut c = read_checkpoint(&path, kind).unwrap();
        assert_ne!(
            c.graph_fingerprint, CONDENSATION_KEY,
            "{file}: key unchanged"
        );
        c.graph_fingerprint = CONDENSATION_KEY;
        write_checkpoint(&path, &c).unwrap();
        let planted = std::fs::read(&path).unwrap();

        let out = run(cmd(&["--resume"]));
        assert_code(&out, 1, &format!("{file}: resume from the old key"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("graph_fingerprint"), "{file}: {stderr}");
        assert!(
            stderr.contains(&format!("{CONDENSATION_KEY:#018x}")),
            "{file}: {stderr}"
        );
        assert_eq!(
            std::fs::read(&path).unwrap(),
            planted,
            "{file}: a refused checkpoint was modified"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// An `infmax-tc.ckpt` written before the sphere store held the solved
/// node prefix's spheres, a typical-cascade checkpoint — the very file
/// `spheres` writes under the same budget. `--resume` refuses it with the
/// typed kind mismatch and leaves it byte-for-byte as it was; a fresh run
/// then completes.
#[test]
fn typical_cascade_checkpoints_are_refused_by_infmax_tc() {
    let dir = fresh_dir("tc-kind");
    let graph = make_graph(&dir);
    let ck = dir.join("ck");
    let spheres = run({
        let mut c = soi();
        c.args(["spheres", &graph, "--out"])
            .arg(dir.join("spheres.tsv"));
        c.args("--samples 32 --seed 4 --deadline-ticks 15 --checkpoint-every 10".split(' '));
        c.arg("--checkpoint-dir").arg(&ck);
        c
    });
    assert_code(&spheres, 3, "budgeted spheres");
    let path = ck.join("infmax-tc.ckpt");
    std::fs::rename(ck.join("spheres.ckpt"), &path).unwrap();
    let planted = std::fs::read(&path).unwrap();
    let tc = |resume: bool| {
        let mut c = soi();
        c.args(["infmax", &graph]);
        c.args("--k 5 --method tc --samples 32 --seed 4 --checkpoint-every 10".split(' '));
        c.arg("--checkpoint-dir").arg(&ck);
        if resume {
            c.arg("--resume");
        }
        c
    };
    let out = run(tc(true));
    assert_code(&out, 1, "resume from a typical-cascade checkpoint");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("kind"), "{stderr}");
    assert_eq!(
        std::fs::read(&path).unwrap(),
        planted,
        "a refused checkpoint was modified"
    );
    std::fs::remove_file(&path).unwrap();
    assert_code(&run(tc(false)), 0, "fresh run after removing it");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn deadline_expiry_exits_partial_with_fraction_in_metrics() {
    let dir = fresh_dir("deadline");
    let graph = make_graph(&dir);
    let out_path = dir.join("spheres.tsv");
    let metrics = dir.join("metrics.jsonl");
    let out = run({
        let mut c = soi();
        c.args([
            "spheres",
            &graph,
            "--samples",
            "32",
            "--out",
            out_path.to_str().unwrap(),
            "--deadline-ticks",
            "15",
            "--checkpoint-every",
            "10",
            "--metrics-out",
            metrics.to_str().unwrap(),
        ]);
        c
    });
    assert_code(&out, 3, "deadline-limited run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("deadline expired"), "{stderr}");
    assert!(stderr.contains("%"), "completed fraction missing: {stderr}");
    let report = std::fs::read_to_string(&metrics).unwrap();
    assert!(
        report.contains("runtime.completed_fraction"),
        "metrics report lacks completed fraction: {report}"
    );
    // Partial output is a strict prefix: header plus 10 of 50 rows.
    let tsv = std::fs::read_to_string(&out_path).unwrap();
    assert_eq!(tsv.lines().count(), 11, "{tsv}");

    // `infmax --method tc` under the same budget stops at the same node
    // prefix, exits 3, and prints the max-cover over exactly those spheres.
    let members = |row: &str| -> Vec<u32> {
        let list = row.rsplit('\t').next().unwrap();
        list.split(',').map(|v| v.parse().unwrap()).collect()
    };
    let prefix: Vec<Vec<u32>> = tsv.lines().skip(1).map(members).collect();
    let seeds: Vec<String> = soi_influence::infmax_tc(&prefix, 5, 0)
        .seeds
        .iter()
        .map(|v| v.to_string())
        .collect();
    let out = run({
        let mut c = soi();
        c.args(["infmax", &graph]);
        c.args("--k 5 --method tc --samples 32".split(' '));
        c.args("--deadline-ticks 15 --checkpoint-every 10".split(' '));
        c
    });
    assert_code(&out, 3, "deadline-limited infmax tc");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines[0], format!("seeds\t{}", seeds.join(",")), "{stdout}");
    assert_eq!(
        lines[2], "partial\t20.0% (deadline expired; resumable with --resume)",
        "{stdout}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn usage_errors_exit_2_with_usage_text() {
    let out = run({
        let mut c = soi();
        c.args(["spheres", "missing.tsv", "--resume"]);
        c
    });
    assert_code(&out, 2, "usage error");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage: soi"), "{stderr}");
}
