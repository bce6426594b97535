//! Per-thread sharded timing accumulators for parallel-overhead
//! accounting.
//!
//! A parallel region can lose to a serial one (see ROADMAP); this module
//! answers "where do the cycles go" without perturbing the answer. Each
//! worker thread registers itself into one of [`MAX_SLOTS`] fixed
//! accumulator slots and then records busy / idle / merge / lock-wait
//! nanoseconds (plus an item count) with nothing but relaxed atomic adds
//! on its own slot — **no global mutex on the hot path**, and no
//! cross-thread cache-line ping-pong because distinct workers write
//! distinct slots. Aggregation ([`snapshot`]) walks the slots on demand.
//!
//! Dispatchers (the pool's fan-out, the server's worker supervisor) call
//! [`note_dispatch`] with the wall span of one whole parallel region, so
//! a snapshot can compute *capacity* (`workers × span`) and attribute the
//! gap between capacity and tracked work:
//!
//! ```text
//! capacity = busy + idle + merge + lock_wait + untracked + imbalance
//! ```
//!
//! where `untracked` is per-worker lifetime not covered by a recorded
//! category (e.g. per-worker init) and `imbalance` is capacity outside
//! any worker's lifetime (spawn latency, join skew — the classic
//! straggler cost). The identity holds by construction, which is what
//! lets the run report account for a pool's whole wall-clock capacity.
//!
//! Determinism contract: every nanosecond read from a snapshot is
//! wall-clock and must be emitted in `wall_`-prefixed fields (the run
//! report does this); dispatch/item totals are deterministic counts.
//! The whole plane can be switched off with [`set_enabled`] — callers
//! check [`enabled`] before touching `Instant::now()`, so a disabled
//! plane costs one relaxed load per would-be record.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Number of distinct worker accumulator slots. Workers beyond this
/// share the last slot (accounting degrades gracefully; counts stay
/// exact). 64 covers every realistic pool width in this workspace.
pub const MAX_SLOTS: usize = 64;

/// Slot index used by threads that never registered (the coordinator /
/// main thread). Kept separate so dispatcher-side time never pollutes
/// worker accounting.
const COORDINATOR: usize = MAX_SLOTS;

/// One worker's accumulators. All fields are monotone sums owned by one
/// writer thread at a time; readers tolerate torn *sets* of fields (a
/// snapshot taken mid-dispatch undercounts, it never corrupts).
struct Slot {
    busy_ns: AtomicU64,
    idle_ns: AtomicU64,
    merge_ns: AtomicU64,
    lock_wait_ns: AtomicU64,
    lifetime_ns: AtomicU64,
    items: AtomicU64,
    touched: AtomicBool,
}

#[allow(clippy::declare_interior_mutable_const)] // const used only as an array initializer
const ZERO_SLOT: Slot = Slot {
    busy_ns: AtomicU64::new(0),
    idle_ns: AtomicU64::new(0),
    merge_ns: AtomicU64::new(0),
    lock_wait_ns: AtomicU64::new(0),
    lifetime_ns: AtomicU64::new(0),
    items: AtomicU64::new(0),
    touched: AtomicBool::new(false),
};

/// Worker slots plus one coordinator slot at index [`COORDINATOR`].
static SLOTS: [Slot; MAX_SLOTS + 1] = [ZERO_SLOT; MAX_SLOTS + 1];

/// Pool-level dispatch aggregates (deterministic counts except the
/// capacity sum, which is wall-clock).
static DISPATCHES: AtomicU64 = AtomicU64::new(0);
static ITEMS: AtomicU64 = AtomicU64::new(0);
static WORKERS_MAX: AtomicU64 = AtomicU64::new(0);
static CAPACITY_NS: AtomicU64 = AtomicU64::new(0);

/// Runtime gate for the whole plane. Default on: the per-dispatch cost
/// is a handful of `Instant::now()` calls (never per-item), and the
/// overhead bench (`obs_overhead_*`) holds it under 5%.
static ENABLED: AtomicBool = AtomicBool::new(true);

thread_local! {
    /// The slot this thread records into; coordinator until registered.
    static CURRENT: Cell<usize> = const { Cell::new(COORDINATOR) };
}

/// True when per-thread timing is collected. Callers should check this
/// before taking timestamps so a disabled plane costs one relaxed load.
#[inline]
pub fn enabled() -> bool {
    // ordering: self-contained on/off flag; the flag is the whole
    // payload and stale reads only delay the toggle by one record.
    ENABLED.load(Ordering::Relaxed)
}

/// Turns the per-thread timing plane on or off (default on). Used by
/// the instrumentation-overhead bench to measure the plane against its
/// own absence.
pub fn set_enabled(on: bool) {
    // ordering: see `enabled` — a config flag, nothing published through it.
    ENABLED.store(on, Ordering::Relaxed);
}

/// Registers the calling thread as worker `index` for the lifetime of
/// the returned guard; records to slot `min(index, MAX_SLOTS - 1)`.
/// Dropping the guard restores the previous registration (so nested
/// parallel regions attribute to the inner worker while active).
#[must_use = "registration lasts only while the guard lives"]
pub fn register(index: usize) -> Registration {
    let slot = index.min(MAX_SLOTS - 1);
    // ordering: touched is a monotone sticky flag read only by
    // `snapshot`; timing-value visibility is not gated on it (a snapshot
    // concurrent with first touch reports a zeroed, touched slot).
    SLOTS[slot].touched.store(true, Ordering::Relaxed);
    let previous = CURRENT.with(|c| c.replace(slot));
    Registration { previous }
}

/// Live worker registration; restores the previous slot on drop.
#[derive(Debug)]
pub struct Registration {
    previous: usize,
}

impl Drop for Registration {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.previous));
    }
}

#[inline]
fn current_slot() -> &'static Slot {
    &SLOTS[CURRENT.with(Cell::get)]
}

/// Adds `ns` of busy (useful work) time to the calling thread's slot.
#[inline]
pub fn record_busy(ns: u64) {
    current_slot().busy_ns.fetch_add(ns, Ordering::Relaxed);
}

/// Adds `ns` of idle (waiting-for-work) time to the calling thread's slot.
#[inline]
pub fn record_idle(ns: u64) {
    current_slot().idle_ns.fetch_add(ns, Ordering::Relaxed);
}

/// Adds `ns` of merge (result aggregation / reply serialization) time.
#[inline]
pub fn record_merge(ns: u64) {
    current_slot().merge_ns.fetch_add(ns, Ordering::Relaxed);
}

/// Adds `ns` spent acquiring contended locks.
#[inline]
pub fn record_lock_wait(ns: u64) {
    current_slot().lock_wait_ns.fetch_add(ns, Ordering::Relaxed);
}

/// Adds `ns` of total in-region thread lifetime (spawn-to-finish of the
/// worker closure). Lifetime minus the recorded categories is the
/// snapshot's per-worker `untracked` residual.
#[inline]
pub fn record_lifetime(ns: u64) {
    current_slot().lifetime_ns.fetch_add(ns, Ordering::Relaxed);
}

/// Adds `n` processed work items to the calling thread's slot.
#[inline]
pub fn record_items(n: u64) {
    current_slot().items.fetch_add(n, Ordering::Relaxed);
}

/// Records one completed parallel region: `workers` threads covered a
/// dispatcher-observed wall span of `span_ns` over `items` work units.
/// Capacity accumulates as `workers × span_ns`.
pub fn note_dispatch(workers: usize, items: usize, span_ns: u64) {
    DISPATCHES.fetch_add(1, Ordering::Relaxed);
    ITEMS.fetch_add(items as u64, Ordering::Relaxed);
    WORKERS_MAX.fetch_max(workers as u64, Ordering::Relaxed);
    let capacity = span_ns.saturating_mul(workers as u64);
    CAPACITY_NS.fetch_add(capacity, Ordering::Relaxed);
}

/// One worker slot's aggregated timings. All `*_ns` values are
/// wall-clock; `items` is schedule-dependent for work-stealing callers
/// and must also be treated as nondeterministic in reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ThreadSnap {
    /// Slot index (worker id clamped to [`MAX_SLOTS`]).
    pub slot: usize,
    /// Useful-work nanoseconds.
    pub busy_ns: u64,
    /// Waiting-for-work nanoseconds.
    pub idle_ns: u64,
    /// Result-merge / serialization nanoseconds.
    pub merge_ns: u64,
    /// Contended-lock acquisition nanoseconds.
    pub lock_wait_ns: u64,
    /// Total in-region lifetime nanoseconds.
    pub lifetime_ns: u64,
    /// Work items processed.
    pub items: u64,
}

/// Pool-level dispatch aggregates plus the derived capacity terms.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolSnap {
    /// Completed parallel regions (deterministic).
    pub dispatches: u64,
    /// Total work items across regions (deterministic).
    pub items: u64,
    /// Widest region, in workers (deterministic per configuration).
    pub workers_max: u64,
    /// Σ workers × span over regions (wall-clock).
    pub capacity_ns: u64,
    /// Σ worker lifetimes (wall-clock).
    pub lifetime_ns: u64,
    /// `capacity - lifetime`: spawn latency + join skew (wall-clock).
    pub imbalance_ns: u64,
}

/// A reporting read of one accumulator. Snapshots taken while workers
/// are mid-region undercount; they never corrupt.
fn read(a: &AtomicU64) -> u64 {
    // ordering: independent monotone sums read only for reporting;
    // per-field staleness is tolerated by the snapshot contract.
    a.load(Ordering::Relaxed)
}

/// Zeroes one accumulator during [`reset`].
fn zero(a: &AtomicU64) {
    // ordering: reset runs between workloads; racing records merely
    // land in the fresh epoch, which reporting tolerates.
    a.store(0, Ordering::Relaxed)
}

/// Aggregates every touched worker slot plus the pool totals. The
/// coordinator slot is reported as `slot == MAX_SLOTS` only when it
/// recorded anything.
pub fn snapshot() -> (Vec<ThreadSnap>, PoolSnap) {
    let mut threads = Vec::new();
    let mut lifetime_total = 0u64;
    for (i, slot) in SLOTS.iter().enumerate() {
        let snap = ThreadSnap {
            slot: i,
            busy_ns: read(&slot.busy_ns),
            idle_ns: read(&slot.idle_ns),
            merge_ns: read(&slot.merge_ns),
            lock_wait_ns: read(&slot.lock_wait_ns),
            lifetime_ns: read(&slot.lifetime_ns),
            items: read(&slot.items),
        };
        let coordinator_active = i == COORDINATOR
            && (snap.busy_ns | snap.idle_ns | snap.merge_ns | snap.lock_wait_ns | snap.items) != 0;
        // ordering: sticky reporting flag; see `register`.
        let touched = slot.touched.load(Ordering::Relaxed);
        if (i < MAX_SLOTS && touched) || coordinator_active {
            if i < MAX_SLOTS {
                lifetime_total = lifetime_total.saturating_add(snap.lifetime_ns);
            }
            threads.push(snap);
        }
    }
    let capacity = read(&CAPACITY_NS);
    let pool = PoolSnap {
        dispatches: read(&DISPATCHES),
        items: read(&ITEMS),
        workers_max: read(&WORKERS_MAX),
        capacity_ns: capacity,
        lifetime_ns: lifetime_total,
        imbalance_ns: capacity.saturating_sub(lifetime_total),
    };
    (threads, pool)
}

/// Zeroes every slot and the pool aggregates (the enabled flag is
/// configuration and survives). Wired into `soi_obs::reset`.
pub fn reset() {
    for slot in &SLOTS {
        zero(&slot.busy_ns);
        zero(&slot.idle_ns);
        zero(&slot.merge_ns);
        zero(&slot.lock_wait_ns);
        zero(&slot.lifetime_ns);
        zero(&slot.items);
        // ordering: see `zero` — reset between workloads.
        slot.touched.store(false, Ordering::Relaxed);
    }
    zero(&DISPATCHES);
    zero(&ITEMS);
    zero(&WORKERS_MAX);
    zero(&CAPACITY_NS);
}

/// Times `f` and adds the elapsed nanoseconds via `record` when the
/// plane is enabled; calls `f` directly otherwise. The standard shape
/// for instrumenting a coarse region (a chunk loop, a blocking pop).
#[inline]
pub fn timed_region<T>(record: fn(u64), f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let start = Instant::now();
    let out = f();
    record(clamp_ns(start.elapsed().as_nanos()));
    out
}

/// Saturates a nanosecond count into `u64` (585 years; effectively ∞).
#[inline]
pub fn clamp_ns(ns: u128) -> u64 {
    u64::try_from(ns).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::lock;

    #[test]
    fn registered_threads_record_into_their_own_slots() {
        let _g = lock();
        crate::reset();
        std::thread::scope(|s| {
            for t in 0..3usize {
                s.spawn(move || {
                    let _reg = register(t);
                    record_busy((t as u64 + 1) * 100);
                    record_items(t as u64 + 1);
                    record_lifetime((t as u64 + 1) * 150);
                });
            }
        });
        let (threads, pool) = snapshot();
        assert_eq!(threads.len(), 3);
        for (i, th) in threads.iter().enumerate() {
            assert_eq!(th.slot, i);
            assert_eq!(th.busy_ns, (i as u64 + 1) * 100);
            assert_eq!(th.items, i as u64 + 1);
        }
        assert_eq!(pool.lifetime_ns, 150 + 300 + 450);
    }

    #[test]
    fn unregistered_records_land_in_the_coordinator_slot() {
        let _g = lock();
        crate::reset();
        record_busy(40);
        let (threads, _) = snapshot();
        assert_eq!(threads.len(), 1);
        assert_eq!(threads[0].slot, MAX_SLOTS, "coordinator slot");
        assert_eq!(threads[0].busy_ns, 40);
    }

    #[test]
    fn registration_nests_and_restores_on_drop() {
        let _g = lock();
        crate::reset();
        let outer = register(2);
        record_busy(10);
        {
            let _inner = register(5);
            record_busy(20);
        }
        record_busy(1);
        drop(outer);
        record_busy(100); // back to coordinator
        let (threads, _) = snapshot();
        let by_slot = |s: usize| threads.iter().find(|t| t.slot == s).copied();
        assert_eq!(by_slot(2).unwrap().busy_ns, 11);
        assert_eq!(by_slot(5).unwrap().busy_ns, 20);
        assert_eq!(by_slot(MAX_SLOTS).unwrap().busy_ns, 100);
    }

    #[test]
    fn attribution_identity_capacity_covers_lifetime_plus_imbalance() {
        let _g = lock();
        crate::reset();
        let _reg = register(0);
        record_lifetime(700);
        record_busy(600);
        record_idle(50);
        note_dispatch(2, 10, 500); // capacity 1000
        let (threads, pool) = snapshot();
        assert_eq!(pool.capacity_ns, 1000);
        assert_eq!(pool.lifetime_ns, 700);
        assert_eq!(pool.imbalance_ns, 300);
        let th = threads[0];
        let untracked = th.lifetime_ns - th.busy_ns - th.idle_ns - th.merge_ns - th.lock_wait_ns;
        assert_eq!(untracked, 50);
        // The full identity: capacity = categories + untracked + imbalance.
        assert_eq!(
            pool.capacity_ns,
            th.busy_ns + th.idle_ns + th.merge_ns + th.lock_wait_ns + untracked + pool.imbalance_ns
        );
    }

    #[test]
    fn dispatch_totals_accumulate_and_reset_zeroes_everything() {
        let _g = lock();
        crate::reset();
        note_dispatch(4, 100, 50);
        note_dispatch(2, 28, 25);
        let (_, pool) = snapshot();
        assert_eq!(pool.dispatches, 2);
        assert_eq!(pool.items, 128);
        assert_eq!(pool.workers_max, 4);
        assert_eq!(pool.capacity_ns, 250);
        crate::reset();
        let (threads, pool) = snapshot();
        assert!(threads.is_empty());
        assert_eq!(pool, PoolSnap::default());
    }

    #[test]
    fn disabled_plane_skips_timed_regions_but_still_runs_them() {
        let _g = lock();
        crate::reset();
        let _reg = register(0);
        set_enabled(false);
        let v = timed_region(record_busy, || 7);
        set_enabled(true);
        assert_eq!(v, 7);
        let (threads, _) = snapshot();
        assert_eq!(threads[0].busy_ns, 0, "disabled plane recorded time");
        let v2 = timed_region(record_busy, || 9);
        assert_eq!(v2, 9);
    }

    #[test]
    fn out_of_range_workers_share_the_last_slot() {
        let _g = lock();
        crate::reset();
        {
            let _reg = register(MAX_SLOTS + 17);
            record_items(3);
        }
        {
            let _reg = register(MAX_SLOTS * 2);
            record_items(4);
        }
        let (threads, _) = snapshot();
        assert_eq!(threads.len(), 1);
        assert_eq!(threads[0].slot, MAX_SLOTS - 1);
        assert_eq!(threads[0].items, 7);
    }
}
