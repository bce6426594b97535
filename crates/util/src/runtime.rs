//! Cooperative deadlines, and the one run policy built on them.
//!
//! Long-running pipelines (sketch builds, batch typical cascades, greedy
//! seed selection, Monte-Carlo estimation) accept a [`Deadline`] and call
//! [`Deadline::tick`] once per *unit of work* (one sampled world, one
//! node solved, one oracle evaluation, …). When the budget is exhausted
//! the pipeline stops at the next unit boundary and returns
//! [`Outcome::Partial`] carrying whatever it completed plus a
//! [`Progress`] fraction, instead of aborting or discarding work.
//!
//! Budgets are counted in **ticks**, not wall-clock time, so tests and
//! reproductions are deterministic: the same inputs and the same budget
//! always stop at exactly the same unit. Callers that want wall-clock
//! deadlines can size the tick budget from a measured tick rate.
//!
//! [`Run`] is the policy every budgeted, checkpointed pipeline runs
//! under — deadline, checkpoint file, cadence, resume — stated once:
//! [`Run::blocks`] is the block loop (tick a block, first block
//! unconditional, stop at the next boundary) and [`Slot`] the checkpoint
//! file (load-and-validate before, save every N units and after the last
//! one). A pipeline is a body closure and a payload codec.

use std::cell::Cell;
use std::path::PathBuf;

use crate::ckpt::{self, Checkpoint};
use crate::error::SoiError;

/// Completed-work accounting attached to a partial result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Progress {
    /// Units of work completed.
    pub done: u64,
    /// Total units the full computation would have performed.
    pub total: u64,
}

impl Progress {
    /// Completed fraction in `[0, 1]` (1.0 for a zero-unit computation).
    pub fn fraction(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            (self.done as f64 / self.total as f64).min(1.0)
        }
    }
}

/// Result of a budgeted computation: either the full value, or the value
/// of the completed prefix plus progress accounting.
#[derive(Clone, Debug, PartialEq)]
pub enum Outcome<T> {
    /// The computation ran to completion.
    Completed(T),
    /// The tick budget ran out; `value` covers the completed units.
    Partial {
        /// The (valid, usable) result of the completed prefix of work.
        value: T,
        /// How much of the computation finished.
        progress: Progress,
    },
}

impl<T> Outcome<T> {
    /// The carried value, complete or not.
    pub fn value(self) -> T {
        match self {
            Outcome::Completed(v) | Outcome::Partial { value: v, .. } => v,
        }
    }

    /// Borrow of the carried value, complete or not.
    pub fn value_ref(&self) -> &T {
        match self {
            Outcome::Completed(v) | Outcome::Partial { value: v, .. } => v,
        }
    }

    /// `true` for [`Outcome::Completed`].
    pub fn is_complete(&self) -> bool {
        matches!(self, Outcome::Completed(_))
    }

    /// Progress accounting: `None` when complete.
    pub fn progress(&self) -> Option<Progress> {
        match self {
            Outcome::Completed(_) => None,
            Outcome::Partial { progress, .. } => Some(*progress),
        }
    }

    /// Maps the carried value, preserving completion status.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Outcome<U> {
        match self {
            Outcome::Completed(v) => Outcome::Completed(f(v)),
            Outcome::Partial { value, progress } => Outcome::Partial {
                value: f(value),
                progress,
            },
        }
    }
}

/// A cooperative deadline: a tick budget owned by the pipeline that
/// spends it. Hot loops call [`tick`](Deadline::tick) once per unit of
/// work and stop when it returns `false`.
///
/// ```
/// use soi_util::runtime::Deadline;
/// let d = Deadline::ticks(3);
/// assert!(d.tick(1));
/// assert!(d.tick(2));   // exactly exhausts the budget
/// assert!(!d.tick(1));  // over budget
/// assert!(d.expired());
/// ```
#[derive(Debug)]
pub struct Deadline {
    /// Tick budget; `u64::MAX` means unlimited.
    limit: u64,
    /// Ticks recorded so far, refused ones included.
    spent: Cell<u64>,
}

impl Deadline {
    /// A deadline that never expires.
    pub fn unlimited() -> Self {
        Deadline::ticks(u64::MAX)
    }

    /// A deadline allowing `limit` ticks of work.
    pub fn ticks(limit: u64) -> Self {
        Deadline {
            limit,
            spent: Cell::new(0),
        }
    }

    /// Records `n` ticks of work. Returns `true` while the computation
    /// may continue (budget not exhausted); a refused tick still counts.
    #[inline]
    pub fn tick(&self, n: u64) -> bool {
        let spent = self.spent.get().saturating_add(n);
        self.spent.set(spent);
        spent <= self.limit
    }

    /// `true` once the budget is exhausted.
    #[inline]
    pub fn expired(&self) -> bool {
        self.spent.get() > self.limit
    }

    /// Ticks recorded so far.
    pub fn spent(&self) -> u64 {
        self.spent.get()
    }

    /// `true` for a deadline that can never expire.
    pub fn is_unlimited(&self) -> bool {
        self.limit == u64::MAX
    }

    /// Packages `value` as [`Outcome::Partial`] when this deadline has
    /// expired before all units were done, [`Outcome::Completed`]
    /// otherwise. `done`/`total` are the caller's unit accounting.
    pub fn outcome<T>(&self, value: T, done: u64, total: u64) -> Outcome<T> {
        if self.expired() && done < total {
            Outcome::Partial {
                value,
                progress: Progress { done, total },
            }
        } else {
            Outcome::Completed(value)
        }
    }
}

/// How one pipeline run is budgeted and persisted. Every pipeline that
/// can stop early or resume takes one of these.
#[derive(Debug)]
pub struct Run {
    /// Cooperative budget, ticked once per unit of work.
    pub deadline: Deadline,
    /// Checkpoint file; `None` persists nothing.
    pub checkpoint: Option<PathBuf>,
    /// Units of work between checkpoint writes; a pipeline whose block is
    /// its cadence (typical cascades) also works this many units per
    /// block. Read as at least 1.
    pub every: usize,
    /// Resume from `checkpoint` when it exists (a fresh start otherwise).
    pub resume: bool,
}

impl Run {
    /// A run from its four settings. Nothing can happen between the
    /// blocks of a run that can neither expire nor write a file, so such
    /// a run is one block — one pool fan-out — whatever `every` says.
    pub fn new(deadline: Deadline, checkpoint: Option<PathBuf>, every: usize, resume: bool) -> Run {
        let one_block = checkpoint.is_none() && deadline.is_unlimited();
        Run {
            deadline,
            checkpoint,
            every: if one_block { usize::MAX } else { every },
            resume,
        }
    }

    /// The run nothing can stop and nothing persists.
    pub fn unlimited() -> Run {
        Run::new(Deadline::unlimited(), None, 1, false)
    }

    /// The block loop: calls `body(lo, hi)` for consecutive blocks of at
    /// most `block` units from `start` up to `total`, ticking the
    /// deadline once per unit before each block, and returns the units
    /// done — `total`, or the block boundary the deadline stopped at.
    ///
    /// The first block of a run is unconditional (its ticks still count),
    /// so a budgeted run always makes progress and a partial value is
    /// never empty; once the budget is spent the loop stops at the next
    /// boundary. When units are independent the value after `done` units
    /// is therefore the exact prefix of an uninterrupted run's.
    pub fn blocks<E>(
        &self,
        total: usize,
        start: usize,
        block: usize,
        mut body: impl FnMut(usize, usize) -> Result<(), E>,
    ) -> Result<usize, E> {
        let start = start.min(total);
        let mut done = start;
        while done < total {
            let hi = done.saturating_add(block.max(1)).min(total);
            let block_len = (hi - done) as u64;
            let proceed = self.deadline.tick(block_len);
            if done > start && !proceed {
                break;
            }
            body(done, hi)?;
            done = hi;
            if !proceed {
                break;
            }
        }
        Ok(done)
    }

    /// This run's checkpoint file as used by one pipeline: `kind`, the
    /// two fingerprints and `total` units pin the file to the run. The
    /// graph fingerprint is an `O(m)` hash (a cascade index hashes every
    /// arc's live worlds), and the daemon runs a pipeline per request
    /// with no file, so `graph_fp` is called only when the run has a
    /// checkpoint file.
    pub fn slot(
        &self,
        kind: u8,
        graph_fp: impl FnOnce() -> u64,
        config_fp: u64,
        total: usize,
    ) -> Slot<'_> {
        let last = Checkpoint {
            kind,
            graph_fingerprint: self.checkpoint.as_ref().map_or(0, |_| graph_fp()),
            config_fingerprint: config_fp,
            total_units: total as u64,
            done_units: 0,
            payload: Vec::new(),
        };
        Slot { run: self, last }
    }
}

/// One pipeline's view of a [`Run`]'s checkpoint file: load-and-validate
/// before the work, save at the run's cadence during it. The payload
/// codec stays with the pipeline.
pub struct Slot<'r> {
    run: &'r Run,
    /// The header this run writes; `done_units` is the progress at the
    /// last write (or at the resumed start), the payload stays empty.
    last: Checkpoint,
}

impl Slot<'_> {
    /// The checkpoint to resume from: `None` when the run is not
    /// resuming, has no file, or the file does not exist (a fresh start).
    /// Otherwise the file, verified as one typed error path — container
    /// and checksum, kind, both fingerprints, `total_units` — so the
    /// caller only decodes the payload.
    pub fn load(&mut self) -> Result<Option<Checkpoint>, SoiError> {
        let (run, want) = (self.run, &mut self.last);
        let Some(path) = run
            .checkpoint
            .as_deref()
            .filter(|p| run.resume && p.exists())
        else {
            return Ok(None);
        };
        let c = ckpt::read_checkpoint(path, want.kind)?;
        c.validate(want.kind, want.graph_fingerprint, want.config_fingerprint)?;
        if c.total_units != want.total_units {
            return Err(SoiError::CkptMismatch {
                field: "total_units",
                stored: c.total_units,
                expected: want.total_units,
            });
        }
        want.done_units = c.done_units;
        Ok(Some(c))
    }

    /// Notes that `done` units are complete and writes the checkpoint
    /// when one is due: after every `every` units and after the last one
    /// (never, without a file). `payload` is encoded only for a write.
    pub fn save(&mut self, done: usize, payload: impl FnOnce() -> Vec<u8>) -> Result<(), SoiError> {
        let (done, last) = (done as u64, &mut self.last);
        let due =
            done - last.done_units >= self.run.every.max(1) as u64 || done == last.total_units;
        let Some(path) = self.run.checkpoint.as_deref().filter(|_| due) else {
            return Ok(());
        };
        last.done_units = done;
        let payload = payload();
        ckpt::write_checkpoint(
            path,
            &Checkpoint {
                payload,
                ..last.clone()
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;

    #[test]
    fn unlimited_never_expires() {
        let d = Deadline::unlimited();
        for _ in 0..1000 {
            assert!(d.tick(u32::MAX as u64));
        }
        assert!(!d.expired());
    }

    #[test]
    fn budget_is_exact_in_ticks() {
        let d = Deadline::ticks(5);
        assert!(d.tick(5), "exactly the budget is allowed");
        assert!(!d.expired(), "spent == limit is not yet expired");
        assert!(!d.tick(1));
        assert!(d.expired());
        assert_eq!(d.spent(), 6);
    }

    #[test]
    fn progress_fraction() {
        assert_eq!(Progress { done: 0, total: 0 }.fraction(), 1.0);
        assert_eq!(Progress { done: 1, total: 4 }.fraction(), 0.25);
        assert_eq!(Progress { done: 9, total: 4 }.fraction(), 1.0, "clamped");
    }

    #[test]
    fn outcome_helpers() {
        let d = Deadline::ticks(1);
        assert_eq!(d.outcome(7, 3, 3), Outcome::Completed(7));
        assert!(!d.tick(5));
        let partial = d.outcome(7, 1, 3);
        assert!(!partial.is_complete());
        assert_eq!(partial.progress(), Some(Progress { done: 1, total: 3 }));
        assert_eq!(partial.clone().value(), 7);
        assert_eq!(partial.map(|v| v * 2).value(), 14);
        // Expired but all units done => still Completed.
        assert_eq!(d.outcome(7, 3, 3), Outcome::Completed(7));
    }

    const TOTAL: usize = 23;
    const BLOCKS: [usize; 3] = [1, 7, TOTAL];

    fn budgeted(budget: u64, block: usize) -> Run {
        Run {
            deadline: Deadline::ticks(budget),
            checkpoint: None,
            every: block,
            resume: false,
        }
    }

    #[test]
    fn one_block_rule_applies_only_to_runs_that_can_neither_expire_nor_save() {
        assert_eq!(Run::unlimited().every, usize::MAX);
        assert_eq!(
            Run::new(Deadline::unlimited(), None, 64, true).every,
            usize::MAX
        );
        assert_eq!(Run::new(Deadline::ticks(5), None, 64, false).every, 64);
        let file = Some(PathBuf::from("x.ckpt"));
        assert_eq!(Run::new(Deadline::unlimited(), file, 64, false).every, 64);
        // One block means one call of the body.
        let mut calls = Vec::new();
        let run = Run::unlimited();
        let Ok(done) = run.blocks(TOTAL, 0, run.every, |lo, hi| {
            calls.push((lo, hi));
            Ok::<(), Infallible>(())
        });
        assert_eq!((done, calls), (TOTAL, vec![(0, TOTAL)]));
    }

    #[test]
    fn every_budget_stops_at_a_block_boundary_with_the_exact_prefix() {
        for block in BLOCKS {
            for budget in 0..=(TOTAL + block) as u64 {
                let run = budgeted(budget, block);
                let mut value = Vec::new();
                let Ok(done) = run.blocks(TOTAL, 0, block, |lo, hi| {
                    value.extend(lo..hi);
                    Ok::<(), Infallible>(())
                });
                let what = format!("block {block} budget {budget}");
                // The blocks the budget covers, but never fewer than one.
                let want = if budget >= TOTAL as u64 {
                    TOTAL
                } else {
                    ((budget as usize / block).max(1) * block).min(TOTAL)
                };
                assert_eq!(done, want, "{what}");
                assert!(done == TOTAL || done % block == 0, "{what}");
                assert_eq!(value, (0..done).collect::<Vec<_>>(), "{what}");
                // Ticks are spent per unit attempted: every unit run, plus
                // the one refused block (if any) that ended the run.
                let refused = if want < TOTAL && budget as usize >= block {
                    block.min(TOTAL - done)
                } else {
                    0
                };
                assert_eq!(run.deadline.spent(), (done + refused) as u64, "{what}");
                let outcome = run.deadline.outcome(value, done as u64, TOTAL as u64);
                assert_eq!(outcome.is_complete(), done == TOTAL, "{what}");
            }
        }
    }

    #[test]
    fn a_resumed_start_gets_its_own_unconditional_first_block() {
        let run = budgeted(0, 7);
        let mut value: Vec<usize> = (0..7).collect();
        let Ok(done) = run.blocks(TOTAL, 7, 7, |lo, hi| {
            value.extend(lo..hi);
            Ok::<(), Infallible>(())
        });
        assert_eq!(done, 14);
        assert_eq!(value, (0..14).collect::<Vec<_>>());
        // A start at (or past) the end runs nothing and spends nothing.
        let Ok(done) = run.blocks(TOTAL, TOTAL + 5, 7, |_, _| -> Result<(), Infallible> {
            panic!("no block left to run")
        });
        assert_eq!((done, run.deadline.spent()), (TOTAL, 7));
    }

    #[test]
    fn a_failing_body_stops_the_loop_with_its_error() {
        let run = budgeted(100, 7);
        let mut calls = 0;
        let err = run.blocks(TOTAL, 0, 7, |lo, _| {
            calls += 1;
            if lo == 7 {
                Err("boom")
            } else {
                Ok(())
            }
        });
        assert_eq!((err, calls), (Err("boom"), 2));
    }

    const KIND: u8 = ckpt::KIND_TYPICAL_CASCADES;
    const GRAPH_FP: u64 = 0xAAAA;
    const CONFIG_FP: u64 = 0xBBBB;

    /// A toy pipeline over the whole policy: unit `i` appends `i`.
    fn toy(run: &Run, total: usize, block: usize) -> Result<Outcome<Vec<u8>>, SoiError> {
        let mut slot = run.slot(KIND, || GRAPH_FP, CONFIG_FP, total);
        let mut value = slot.load()?.map_or_else(Vec::new, |c| c.payload);
        let done = run.blocks(total, value.len(), block, |lo, hi| {
            value.extend((lo..hi).map(|i| i as u8));
            slot.save(hi, || value.clone())
        })?;
        Ok(run.deadline.outcome(value, done as u64, total as u64))
    }

    fn tmp_file(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("soi-run-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("toy.ckpt")
    }

    fn done_units(path: &std::path::Path) -> Option<u64> {
        path.exists()
            .then(|| ckpt::read_checkpoint(path, KIND).unwrap().done_units)
    }

    #[test]
    fn stopping_after_any_block_then_resuming_is_the_uninterrupted_run() {
        let _g = crate::failpoint::test_guard();
        let path = tmp_file("resume");
        let golden: Vec<u8> = (0..TOTAL as u8).collect();
        for block in BLOCKS {
            for every in [1, block, 10] {
                for stop_after in 1..=TOTAL.div_ceil(block) {
                    let _ = std::fs::remove_file(&path);
                    let what = format!("block {block} every {every} stop after {stop_after}");
                    let budget = Deadline::ticks((stop_after * block) as u64);
                    let first = toy(
                        &Run::new(budget, Some(path.clone()), every, false),
                        TOTAL,
                        block,
                    )
                    .unwrap();
                    let done = first.progress().map_or(TOTAL, |p| p.done as usize);
                    assert_eq!(done, (stop_after * block).min(TOTAL), "{what}");
                    // The file trails by less than one cadence, and not at
                    // all when the cadence is at most a block or the run
                    // finished.
                    let on_file = done_units(&path).unwrap_or(0) as usize;
                    assert!(on_file <= done && done - on_file < every, "{what}");
                    if every <= block || done == TOTAL {
                        assert_eq!(on_file, done, "{what}");
                    }
                    let resuming = Run::new(Deadline::unlimited(), Some(path.clone()), every, true);
                    let second = toy(&resuming, TOTAL, block).unwrap();
                    assert_eq!(second, Outcome::Completed(golden.clone()), "{what}");
                    assert_eq!(done_units(&path), Some(TOTAL as u64), "{what}");
                }
            }
        }
        // One block per run, resumed until done: the cadence carries over
        // each resume.
        let _ = std::fs::remove_file(&path);
        let mut runs = 0;
        loop {
            runs += 1;
            let run = Run::new(Deadline::ticks(7), Some(path.clone()), 7, true);
            let out = toy(&run, TOTAL, 7).unwrap();
            assert_eq!(done_units(&path), Some(out.value_ref().len() as u64));
            if out.is_complete() {
                assert_eq!(out.value(), golden);
                break;
            }
        }
        assert_eq!(runs, TOTAL.div_ceil(7));
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn load_is_one_typed_error_path_and_a_missing_file_is_a_fresh_start() {
        let _g = crate::failpoint::test_guard();
        let path = tmp_file("pin");
        let run = |resume| Run::new(Deadline::unlimited(), Some(path.clone()), 5, resume);

        // Resuming with no file on disk, or with no file configured.
        assert_eq!(
            run(true)
                .slot(KIND, || GRAPH_FP, CONFIG_FP, TOTAL)
                .load()
                .unwrap(),
            None
        );
        assert_eq!(
            Run::unlimited()
                .slot(KIND, || GRAPH_FP, CONFIG_FP, TOTAL)
                .load()
                .unwrap(),
            None
        );
        assert!(toy(&run(true), TOTAL, 5).unwrap().is_complete());
        let stored = run(true)
            .slot(KIND, || GRAPH_FP, CONFIG_FP, TOTAL)
            .load()
            .unwrap()
            .unwrap();
        assert_eq!(
            (stored.done_units, stored.total_units),
            (TOTAL as u64, TOTAL as u64)
        );
        // A run that is not resuming ignores the file.
        assert_eq!(
            run(false)
                .slot(KIND, || GRAPH_FP, CONFIG_FP, TOTAL)
                .load()
                .unwrap(),
            None
        );

        let resuming = run(true);
        let load = |kind, graph_fp, config_fp, total| {
            resuming
                .slot(kind, || graph_fp, config_fp, total)
                .load()
                .unwrap_err()
        };
        assert!(matches!(
            load(ckpt::KIND_GREEDY, GRAPH_FP, CONFIG_FP, TOTAL),
            SoiError::CkptBadKind { .. }
        ));
        for (err, want) in [
            (
                load(KIND, GRAPH_FP ^ 1, CONFIG_FP, TOTAL),
                "graph_fingerprint",
            ),
            (
                load(KIND, GRAPH_FP, CONFIG_FP ^ 1, TOTAL),
                "config_fingerprint",
            ),
            (load(KIND, GRAPH_FP, CONFIG_FP, TOTAL + 1), "total_units"),
        ] {
            assert!(
                matches!(err, SoiError::CkptMismatch { field, .. } if field == want),
                "{want}: {err:?}"
            );
        }
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn without_a_file_nothing_is_ever_written() {
        let run = Run::new(Deadline::ticks(100), None, 1, true);
        let mut slot = run.slot(KIND, || GRAPH_FP, CONFIG_FP, TOTAL);
        slot.save(TOTAL, || panic!("payload encoded without a file"))
            .unwrap();
    }
}
