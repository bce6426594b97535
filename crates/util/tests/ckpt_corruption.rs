//! Checkpoint corruption matrix: every checkpoint kind crossed with every
//! corruption mode must surface a *distinct* typed error — never a panic,
//! never a silent resume from poisoned state — and a fresh run must be
//! able to proceed once the corrupt file is removed.

use std::path::{Path, PathBuf};

use soi_util::ckpt::{
    read_checkpoint, write_checkpoint, Checkpoint, KIND_GREEDY, KIND_ROUTER_OVERRIDES,
    KIND_SKETCH_BUILD, KIND_SPHERE_BOUNDS, KIND_TYPICAL_CASCADES,
};
use soi_util::error::SoiError;

const ALL_KINDS: [u8; 5] = [
    KIND_TYPICAL_CASCADES,
    KIND_GREEDY,
    KIND_SKETCH_BUILD,
    KIND_ROUTER_OVERRIDES,
    KIND_SPHERE_BOUNDS,
];

const GRAPH_FP: u64 = 0x5151_aaaa_bbbb_cccc;
const CONFIG_FP: u64 = 0x1234_5678_9abc_def0;

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("soi-ckpt-corrupt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn sample(kind: u8) -> Checkpoint {
    Checkpoint {
        kind,
        graph_fingerprint: GRAPH_FP,
        config_fingerprint: CONFIG_FP,
        total_units: 128,
        done_units: 64,
        // Payload varies with the kind so a cross-kind mixup cannot
        // accidentally decode to identical bytes.
        payload: (0..32).map(|i| i ^ kind).collect(),
    }
}

fn write_sample(path: &Path, kind: u8) {
    write_checkpoint(path, &sample(kind)).unwrap();
}

/// Resuming is "read + validate"; a fresh run after removing the corrupt
/// file is "write + read + validate" succeeding from scratch.
fn fresh_run_proceeds(path: &Path, kind: u8) {
    std::fs::remove_file(path).unwrap();
    write_sample(path, kind);
    let ckpt = read_checkpoint(path, kind).unwrap();
    ckpt.validate(kind, GRAPH_FP, CONFIG_FP).unwrap();
    assert_eq!(ckpt, sample(kind));
}

#[test]
fn truncation_is_ckpt_truncated_for_every_kind() {
    let dir = fresh_dir("truncate");
    for kind in ALL_KINDS {
        let path = dir.join(format!("kind-{kind}.ckpt"));
        write_sample(&path, kind);
        let full = std::fs::read(&path).unwrap();
        // Chop at several depths: inside the header, inside the payload,
        // and inside the trailing checksum. All must be the truncation
        // error, not a checksum or decode confusion.
        for cut in [5, 20, full.len() - 12, full.len() - 3] {
            std::fs::write(&path, &full[..cut]).unwrap();
            let err = read_checkpoint(&path, kind).unwrap_err();
            assert!(
                matches!(err, SoiError::CkptTruncated { .. }),
                "kind {kind} cut {cut}: {err:?}"
            );
        }
        fresh_run_proceeds(&path, kind);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bit_flips_are_ckpt_checksum_for_every_kind() {
    let dir = fresh_dir("bitflip");
    for kind in ALL_KINDS {
        let path = dir.join(format!("kind-{kind}.ckpt"));
        write_sample(&path, kind);
        let full = std::fs::read(&path).unwrap();
        // Flip one bit in a fingerprint byte, a count byte, and a payload
        // byte. The checksum must catch each before any field is trusted.
        for at in [12, 30, 55] {
            let mut bytes = full.clone();
            bytes[at] ^= 0x40;
            std::fs::write(&path, &bytes).unwrap();
            let err = read_checkpoint(&path, kind).unwrap_err();
            assert!(
                matches!(err, SoiError::CkptChecksum { .. }),
                "kind {kind} flip at {at}: {err:?}"
            );
        }
        fresh_run_proceeds(&path, kind);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn foreign_fingerprints_are_ckpt_mismatch_for_every_kind() {
    let dir = fresh_dir("mismatch");
    for kind in ALL_KINDS {
        let path = dir.join(format!("kind-{kind}.ckpt"));
        // A structurally valid checkpoint from a *different* run: wrong
        // graph in one file, wrong config in another. The checksum is
        // fine, so only fingerprint validation can refuse the resume.
        let mut foreign = sample(kind);
        foreign.graph_fingerprint ^= 1;
        write_checkpoint(&path, &foreign).unwrap();
        let ckpt = read_checkpoint(&path, kind).unwrap();
        let err = ckpt.validate(kind, GRAPH_FP, CONFIG_FP).unwrap_err();
        assert!(
            matches!(
                err,
                SoiError::CkptMismatch {
                    field: "graph_fingerprint",
                    ..
                }
            ),
            "kind {kind}: {err:?}"
        );

        let mut foreign = sample(kind);
        foreign.config_fingerprint ^= 1;
        write_checkpoint(&path, &foreign).unwrap();
        let ckpt = read_checkpoint(&path, kind).unwrap();
        let err = ckpt.validate(kind, GRAPH_FP, CONFIG_FP).unwrap_err();
        assert!(
            matches!(
                err,
                SoiError::CkptMismatch {
                    field: "config_fingerprint",
                    ..
                }
            ),
            "kind {kind}: {err:?}"
        );
        fresh_run_proceeds(&path, kind);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cross_kind_resume_is_ckpt_bad_kind_for_every_kind() {
    let dir = fresh_dir("badkind");
    for kind in ALL_KINDS {
        let path = dir.join(format!("kind-{kind}.ckpt"));
        // A valid checkpoint of every *other* kind sitting at this
        // pipeline's path must be refused by kind, with both bytes named.
        for other in ALL_KINDS.into_iter().filter(|&k| k != kind) {
            write_sample(&path, other);
            let err = read_checkpoint(&path, kind).unwrap_err();
            match err {
                SoiError::CkptBadKind { found, expected } => {
                    assert_eq!((found, expected), (other, kind));
                }
                other_err => panic!("kind {kind} vs {other}: {other_err:?}"),
            }
        }
        fresh_run_proceeds(&path, kind);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corruption_modes_stay_distinct() {
    // The four corruption modes map to four different error variants, so
    // an operator (or the differential fuzzer) can tell which repair is
    // needed: re-run (truncated/checksum), re-point (mismatch), or
    // re-path (bad kind).
    let dir = fresh_dir("distinct");
    let path = dir.join("one.ckpt");
    write_sample(&path, KIND_GREEDY);
    let full = std::fs::read(&path).unwrap();

    std::fs::write(&path, &full[..full.len() - 3]).unwrap();
    let truncated = read_checkpoint(&path, KIND_GREEDY).unwrap_err();

    let mut flipped = full.clone();
    flipped[55] ^= 0x40;
    std::fs::write(&path, &flipped).unwrap();
    let checksum = read_checkpoint(&path, KIND_GREEDY).unwrap_err();

    std::fs::write(&path, &full).unwrap();
    let kind = read_checkpoint(&path, KIND_SKETCH_BUILD).unwrap_err();
    let mismatch = read_checkpoint(&path, KIND_GREEDY)
        .unwrap()
        .validate(KIND_GREEDY, GRAPH_FP ^ 1, CONFIG_FP)
        .unwrap_err();

    let kinds = [
        std::mem::discriminant(&truncated),
        std::mem::discriminant(&checksum),
        std::mem::discriminant(&kind),
        std::mem::discriminant(&mismatch),
    ];
    for i in 0..kinds.len() {
        for j in i + 1..kinds.len() {
            assert_ne!(kinds[i], kinds[j], "variants {i} and {j} collide");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
