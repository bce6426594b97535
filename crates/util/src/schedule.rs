//! Seeded schedule perturbation at failpoint sites.
//!
//! Thread interleavings are the one input a deterministic test suite
//! cannot pin down: a scheduler decides them. This module makes that
//! input *exercisable* — when armed, every failpoint site hit (see
//! [`crate::failpoint`](mod@crate::failpoint)) draws a decision from a seeded hash of
//! `(seed, site, hit-counter)` and either proceeds, yields the
//! timeslice, or sleeps for a few dozen microseconds. Different seeds
//! push the scheduler into different interleavings; a correct
//! concurrent pipeline produces byte-identical (wall-masked) output
//! under all of them. The `schedule_stress` test in `crates/server`
//! replays the full mixed-query e2e under 32 seeds this way.
//!
//! Like failpoints, the shim is debug-only in effect: release builds
//! compile the `failpoint!`/`failpoint_crash!` macros — the only
//! callers of [`perturb`] — to nothing, so production hot loops carry
//! no branch. Arming happens either in-process ([`install`]/[`clear`])
//! or via `SOI_SCHEDULE=<u64 seed>` for subprocess tests.
//!
//! Perturbation deliberately does *not* try to be deterministic itself:
//! the decisions are seeded, but their global order depends on which
//! thread hits a site first. The invariant under test is that the
//! *output* does not depend on any of that.

use crate::rng::mix64;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Once;

/// Environment variable holding the schedule seed.
pub const ENV_VAR: &str = "SOI_SCHEDULE";

/// Fast-path gate: `false` means every [`perturb`] call returns
/// immediately.
static ARMED: AtomicBool = AtomicBool::new(false);

/// The armed seed; published before `ARMED` flips to true.
static SEED: AtomicU64 = AtomicU64::new(0);

/// Site hits since arming; salts successive decisions at the same site.
static HITS: AtomicU64 = AtomicU64::new(0);

/// One-time environment initialization.
static ENV_INIT: Once = Once::new();

/// What a site hit does to the current thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Decision {
    /// Proceed immediately (the common case).
    Proceed,
    /// Give up the timeslice.
    Yield,
    /// Park for this many microseconds.
    SleepMicros(u64),
}

/// The seeded decision for one `(seed, site, hit)` triple. Roughly half
/// of all hits proceed untouched, so armed runs stay fast.
fn decision(seed: u64, site: &str, hit: u64) -> Decision {
    let site_hash = site
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| mix64(h ^ u64::from(b)));
    match mix64(seed ^ site_hash ^ mix64(hit)) % 8 {
        0..=3 => Decision::Proceed,
        4 | 5 => Decision::Yield,
        6 => Decision::SleepMicros(50),
        _ => Decision::SleepMicros(200),
    }
}

/// Arms schedule perturbation with `seed` for the whole process.
/// Intended for in-process tests; subprocess tests set [`ENV_VAR`].
pub fn install(seed: u64) {
    // ordering: publish-then-arm. The seed and counter reset must be
    // visible before any thread observes ARMED == true, so the data
    // stores precede a Release store and readers take the Acquire
    // branch in `perturb`.
    SEED.store(seed, Ordering::Relaxed); // ordering: published by the ARMED Release below
    HITS.store(0, Ordering::Relaxed); // ordering: published by the ARMED Release below
    ARMED.store(true, Ordering::Release); // ordering: publishes the stores above
}

/// Disarms schedule perturbation.
pub fn clear() {
    // ordering: the flag is the whole payload when disarming; a thread
    // mid-`perturb` finishing one last yield/sleep is harmless.
    ARMED.store(false, Ordering::Release);
}

/// The armed seed, if any (for diagnostics and tests).
pub fn armed_seed() -> Option<u64> {
    // ordering: Acquire pairs with the Release in `install`, making
    // the preceding SEED store visible.
    if ARMED.load(Ordering::Acquire) {
        // ordering: ordered by the ARMED Acquire/Release pair above.
        Some(SEED.load(Ordering::Relaxed))
    } else {
        None
    }
}

/// Perturbs the calling thread according to the armed seed. Called by
/// [`crate::failpoint::trigger`] on every site hit; a disarmed process
/// pays one `Once` check plus one Acquire load.
pub fn perturb(site: &str) {
    ENV_INIT.call_once(init_from_env);
    // ordering: Acquire pairs with the Release in `install`; once the
    // flag is seen true, SEED and the HITS reset are visible.
    if !ARMED.load(Ordering::Acquire) {
        return;
    }
    // ordering: the counter only needs uniqueness per hit (RMW
    // atomicity); decisions do not synchronize anything.
    let hit = HITS.fetch_add(1, Ordering::Relaxed);
    // ordering: ordered by the ARMED Acquire above.
    let seed = SEED.load(Ordering::Relaxed);
    match decision(seed, site, hit) {
        Decision::Proceed => {}
        Decision::Yield => std::thread::yield_now(),
        Decision::SleepMicros(us) => std::thread::sleep(std::time::Duration::from_micros(us)),
    }
}

/// Arms from `SOI_SCHEDULE` when the variable holds a valid seed.
fn init_from_env() {
    let Ok(raw) = std::env::var(ENV_VAR) else {
        return;
    };
    match raw.trim().parse::<u64>() {
        Ok(seed) => install(seed),
        Err(e) => {
            // Arming mistakes must be loud: a silently ignored seed
            // would "pass" every schedule-stress run unperturbed.
            // soi-util sits below soi-obs, so stderr is the only
            // channel available here; an unwritable one must not
            // break the run.
            let _ = writeln!(
                std::io::stderr().lock(),
                "warning: ignoring {ENV_VAR}={raw:?}: {e}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes tests that flip the process-global arming state.
    fn locked() -> std::sync::MutexGuard<'static, ()> {
        static TEST_LOCK: Mutex<()> = Mutex::new(());
        TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn decisions_are_deterministic_in_the_triple() {
        for (seed, site, hit) in [(7, "a.b", 0), (7, "a.b", 9), (1, "x", 3)] {
            assert_eq!(decision(seed, site, hit), decision(seed, site, hit));
        }
    }

    #[test]
    fn decisions_vary_across_seeds_sites_and_hits() {
        // Over 64 hits, a fixed (seed, site) must produce more than one
        // kind of decision, and two seeds must disagree somewhere.
        let kinds: std::collections::BTreeSet<u8> = (0..64)
            .map(|hit| match decision(11, "server.worker.dispatch", hit) {
                Decision::Proceed => 0,
                Decision::Yield => 1,
                Decision::SleepMicros(_) => 2,
            })
            .collect();
        assert!(kinds.len() > 1, "degenerate decision stream");
        assert!(
            (0..64).any(|hit| decision(1, "s", hit) != decision(2, "s", hit)),
            "seeds 1 and 2 produce identical streams"
        );
    }

    #[test]
    fn install_arms_and_clear_disarms() {
        let _g = locked();
        install(42);
        assert_eq!(armed_seed(), Some(42));
        // Perturbing while armed must not panic or deadlock.
        perturb("test.site");
        clear();
        assert_eq!(armed_seed(), None);
        perturb("test.site"); // disarmed fast path
    }

    #[test]
    fn sleeps_are_bounded_micros() {
        for hit in 0..256 {
            if let Decision::SleepMicros(us) = decision(3, "site", hit) {
                assert!(us <= 200, "sleep {us}µs too long for a stress loop");
            }
        }
    }
}
