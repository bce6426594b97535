//! Thread-count invariance through the real binary (ROADMAP 8b): every
//! parallel phase fills position-indexed slots from per-unit seeds, and
//! the pool's workers *claim* chunks, so which worker computed a slot
//! varies from run to run while the output may not. Each heavy command's
//! stdout (and the `spheres --out` file) must be byte-identical at
//! `--threads 1`, `2` and `8` — under one worker, two, and more workers
//! than this graph has chunks per worker. The sketch build is run twice:
//! on the small graph, which is one node partition, and on a graph of
//! four partitions, so that the partitions fold in parallel.
//!
//! The typical-cascade pipeline hands each worker the pool chunks it
//! claims, and the chunks change with the worker count. Each node is one
//! walk of all its worlds at once, whose world sets the evaluator loads
//! (`IncrementalCost::load_sets`) on the worker's own scratch, so a node's
//! answer may not depend on which worker, or which node before it, used
//! that scratch.
//!
//! The weighted-cascade BA graphs have acyclic worlds, which keep no hub
//! closure. Two G(300, 1500) graphs cover the closure paths of the load:
//! at p = 0.3 the worlds have giant closures, and a node that hits them
//! reads the hit closures from the closure rows; at p = 0.15 the
//! closures are small, and a node that hits them reads each from its
//! member list.

mod common;

use common::{fresh_dir, generate, soi, stdout_str};

/// Stdout of `soi ARGS --threads T`, followed by the `--out` file when
/// the command writes one, and for `infmax --method tc` by its count of
/// fits: the lazy cover fits the nodes its heap asks for, whatever the
/// thread count.
fn output_at(args: &[&str], out_file: Option<&str>, threads: &str) -> String {
    let mut command = soi();
    command.args(args).args(["--threads", threads]);
    if let Some(path) = out_file {
        command.args(["--out", path]);
    }
    let tc = args.windows(2).any(|w| w == ["--method", "tc"]);
    let dir = std::env::temp_dir().join(format!("soi-threads-{}", std::process::id()));
    let key = soi_util::hash::hash_bytes(args.join(" ").as_bytes());
    let metrics = dir.join(format!("metrics-{threads}-{key:x}.jsonl"));
    if tc {
        std::fs::create_dir_all(&dir).unwrap();
        command.arg("--metrics-out").arg(&metrics);
    }
    let mut text = stdout_str(&command.output().expect("spawn soi"));
    if let Some(path) = out_file {
        text.push_str(&std::fs::read_to_string(path).expect("spheres output"));
    }
    if tc {
        let report = std::fs::read_to_string(&metrics).expect("metrics report");
        let calls = report
            .lines()
            .find(|l| l.contains("\"name\":\"median.calls\""))
            .expect("median.calls in the report");
        text.push_str(calls);
    }
    text
}

/// Each command of `commands` (graph, arguments, `--out` file) prints the
/// same bytes at `--threads` 1, 2 and 8.
fn assert_thread_invariant(commands: Vec<(&String, &str, Option<&str>)>) {
    for (graph, line, out_file) in commands {
        let mut args: Vec<&str> = line.split(' ').collect();
        args.insert(1, graph);
        let args = &args[..];
        let serial = output_at(args, out_file, "1");
        assert!(!serial.is_empty(), "{args:?} printed nothing");
        for threads in ["2", "8"] {
            assert_eq!(
                output_at(args, out_file, threads),
                serial,
                "{args:?} differs at --threads {threads}"
            );
        }
    }
}

#[test]
fn heavy_commands_print_the_same_bytes_at_any_thread_count() {
    let dir = fresh_dir("threads");
    // 333 nodes: not a multiple of any chunk length in play.
    let graph = generate(
        &dir,
        "g.tsv",
        &[
            "--model", "ba", "--nodes", "333", "--m", "4", "--prob", "wc", "--seed", "42",
        ],
    );
    // 4000 nodes at k = 64: four partitions of 1024 nodes, the last short.
    let wide = generate(
        &dir,
        "wide.tsv",
        &[
            "--model", "ba", "--nodes", "4000", "--m", "3", "--prob", "wc", "--seed", "5",
        ],
    );
    // Lookup blocks of tens of nodes.
    let blocks = generate(
        &dir,
        "blocks.tsv",
        &[
            "--model", "ba", "--nodes", "2000", "--m", "5", "--prob", "wc", "--seed", "3",
        ],
    );
    let gnm = |name, prob| {
        let args = [
            "--model", "gnm", "--nodes", "300", "--edges", "1500", "--prob", prob, "--seed", "11",
        ];
        generate(&dir, name, &args)
    };
    let (rows, chunks) = (
        gnm("rows.tsv", "fixed:0.3"),
        gnm("chunks.tsv", "fixed:0.15"),
    );
    let spheres_out = dir.join("spheres.tsv").to_string_lossy().into_owned();
    let mut commands = vec![
        (
            &graph,
            "infmax --k 5 --method tc --samples 48 --seed 9",
            None,
        ),
        (
            &graph,
            "infmax --k 5 --backend sketch --sketch-k 16 --samples 48 --seed 9",
            None,
        ),
        (
            &wide,
            "infmax --k 5 --backend sketch --sketch-k 64 --samples 24 --seed 9",
            None,
        ),
        (
            &graph,
            "spheres --samples 48 --seed 7",
            Some(spheres_out.as_str()),
        ),
        (
            &graph,
            "infmax --k 3 --method greedy --samples 24 --seed 9",
            None,
        ),
        // Few samples on a graph with no clear winner: the Monte-Carlo
        // greedy's selection follows the noise, so a draw that depended
        // on the schedule would show.
        (
            &graph,
            "infmax --k 3 --method mc --samples 16 --seed 9",
            None,
        ),
    ];
    commands.extend([
        (
            &blocks,
            "infmax --k 5 --method tc --samples 64 --seed 9",
            None,
        ),
        (
            &blocks,
            "spheres --samples 64 --seed 7",
            Some(spheres_out.as_str()),
        ),
    ]);
    for closures in [&rows, &chunks] {
        commands.extend([
            (
                closures,
                "infmax --k 5 --method tc --samples 48 --seed 9",
                None,
            ),
            (
                closures,
                "spheres --samples 48 --seed 7",
                Some(spheres_out.as_str()),
            ),
        ]);
    }
    assert_thread_invariant(commands);
}

/// The supercritical arm: G(2000, 10⁴) at p = 0.3 and ℓ = 64, whose worlds
/// have giant hub closures and whose lazy cover fits most nodes, in
/// fan-outs of up to 64.
#[test]
fn supercritical_commands_print_the_same_bytes_at_any_thread_count() {
    let dir = fresh_dir("threads-supercritical");
    let args = [
        "--model",
        "gnm",
        "--nodes",
        "2000",
        "--edges",
        "10000",
        "--prob",
        "fixed:0.3",
        "--seed",
        "13",
    ];
    let graph = generate(&dir, "g.tsv", &args);
    let spheres_out = dir.join("spheres.tsv").to_string_lossy().into_owned();
    assert_thread_invariant(vec![
        (
            &graph,
            "infmax --k 10 --method tc --samples 64 --seed 9",
            None,
        ),
        (
            &graph,
            "spheres --samples 64 --seed 7",
            Some(spheres_out.as_str()),
        ),
    ]);
}
