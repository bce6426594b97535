//! Worker-count resolution and chunk-claiming scoped fan-out.
//!
//! Every parallel pipeline in the workspace fills a slice of independent
//! slots; this module is the one place that decides how many workers do
//! it and which worker does which slots:
//!
//! * [`effective_threads`] resolves a worker count from (in priority
//!   order) the caller's explicit request, the process-global override
//!   set by the CLI's `--threads` flag ([`set_default_threads`]), and
//!   finally the hardware parallelism — always clamped to
//!   `[1, work_items]`.
//! * [`for_each_indexed`] / [`for_each_indexed_with`] fill a slice of
//!   slots in parallel: `f(i, &mut slots[i])` for every index. The slice
//!   is cut into [`CHUNKS_PER_WORKER`] contiguous chunks per worker;
//!   worker `t` starts on chunk `t` and then claims the next unclaimed
//!   one, so a worker whose slots were cheap takes work over from one
//!   whose slots were dear (on a BA graph the low node ids are the heavy
//!   ones). The claim order decides only *which* worker fills a slot:
//!   every slot is handed to `f` exactly once and the scope joins before
//!   returning, so results are position-deterministic regardless of
//!   worker count and schedule.
//!
//! Thread-count resolution never affects *what* is computed — workspace
//! pipelines derive per-unit seeds from `(seed, unit-id)` — only how the
//! units are distributed.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Process-global default worker count; 0 means "not set".
static DEFAULT_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-global default worker count used when a pipeline is
/// called with `requested == 0`. Pass 0 to clear the override. The CLI
/// maps its global `--threads N` flag here so one flag governs every
/// parallel phase of a command (index builds, batch typical cascades,
/// greedy evaluation, server worker pools).
pub fn set_default_threads(n: usize) {
    // ordering: a self-contained config cell — the count is the whole
    // payload, nothing else is published through it, and thread-count
    // resolution never affects what is computed (see module docs).
    DEFAULT_THREADS.store(n, Ordering::Relaxed);
}

/// The process-global default worker count (0 when unset).
pub fn default_threads() -> usize {
    // ordering: config read; see `set_default_threads`.
    DEFAULT_THREADS.load(Ordering::Relaxed)
}

/// Resolves the worker count for `work_items` independent units.
///
/// Priority: `requested` when non-zero, then [`set_default_threads`],
/// then `std::thread::available_parallelism`. The result is clamped to
/// `[1, max(work_items, 1)]` so callers can spawn exactly this many
/// workers without empty chunks.
pub fn effective_threads(requested: usize, work_items: usize) -> usize {
    let resolved = if requested != 0 {
        requested
    } else {
        let global = default_threads();
        if global != 0 {
            global
        } else {
            std::thread::available_parallelism().map_or(1, |p| p.get())
        }
    };
    resolved.clamp(1, work_items.max(1))
}

/// Chunks per worker: the last one claimed is ~3 % of a worker's share,
/// and a claim (one uncontended lock) stays invisible next to its chunk.
pub const CHUNKS_PER_WORKER: usize = 32;

/// Fills `slots` by calling `f(i, &mut slots[i])` for every index, fanned
/// out over [`effective_threads`]`(requested, slots.len())` scoped
/// workers claiming contiguous chunks. Inline when one worker suffices.
pub fn for_each_indexed<T, F>(slots: &mut [T], requested: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    for_each_indexed_with(slots, requested, || (), |(), i, slot| f(i, slot));
}

/// [`for_each_indexed`] with per-worker scratch state: each worker calls
/// `init()` once and threads the state through every chunk it claims —
/// the pattern the batch typical-cascade pipeline uses to keep one node
/// scratch per worker. With no more slots than workers, slot `t` runs on
/// worker `t`.
pub fn for_each_indexed_with<T, S, I, F>(slots: &mut [T], requested: usize, init: I, f: F)
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &mut T) + Sync,
{
    for_each_chunk_with(slots, requested, init, |state, first, chunk| {
        for (j, slot) in chunk.iter_mut().enumerate() {
            f(state, first + j, slot);
        }
    });
}

/// Fills `slots` a contiguous chunk at a time: `f(state, first, chunk)`
/// receives `slots[first..first + chunk.len()]`, and the chunks cover the
/// slice exactly once. Fanned out over
/// [`effective_threads`]`(requested, slots.len())` scoped workers, each
/// with one `init()` state threaded through every chunk it claims. Inline,
/// as one chunk of the whole slice, when one worker suffices.
fn for_each_chunk_with<T, S, I, F>(slots: &mut [T], requested: usize, init: I, f: F)
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &mut [T]) + Sync,
{
    use soi_obs::perthread;

    let n = slots.len();
    let threads = effective_threads(requested, n);
    // Timing is per-dispatch and per-worker only — never per-item — so
    // the plane's cost stays bounded by the obs_overhead_* guard.
    let timed = perthread::enabled();
    if threads <= 1 || n <= 1 {
        let _reg = perthread::register(0);
        let start = timed.then(std::time::Instant::now);
        f(&mut init(), 0, slots);
        if let Some(start) = start {
            let ns = perthread::clamp_ns(start.elapsed().as_nanos());
            perthread::record_busy(ns);
            perthread::record_lifetime(ns);
            perthread::record_items(n as u64);
            perthread::note_dispatch(1, n, ns);
        }
        return;
    }
    // `threads ≤ n`, so there are at least `threads` chunks: every worker
    // is handed its first one, the rest sit behind the shared cursor.
    let chunk = n.div_ceil(threads * CHUNKS_PER_WORKER);
    let mut chunks = slots.chunks_mut(chunk).enumerate();
    let first: Vec<_> = chunks.by_ref().take(threads).collect();
    let unclaimed = Mutex::new(chunks);
    let (f, init, unclaimed) = (&f, &init, &unclaimed);
    let start = timed.then(std::time::Instant::now);
    std::thread::scope(|scope| {
        for (t, first) in first.into_iter().enumerate() {
            scope.spawn(move || {
                let _reg = perthread::register(t);
                let worker_start = timed.then(std::time::Instant::now);
                let mut items = 0u64;
                let mut state = init();
                let mut claimed = Some(first);
                while let Some((c, chunk_slots)) = claimed {
                    items += chunk_slots.len() as u64;
                    f(&mut state, c * chunk, chunk_slots);
                    // The guard is a temporary: locked for one `next()`,
                    // never while `f` runs, so `f` cannot poison it.
                    claimed = unclaimed
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .next();
                }
                if let Some(worker_start) = worker_start {
                    let ns = perthread::clamp_ns(worker_start.elapsed().as_nanos());
                    // A claim is one `next()`: the whole lifetime is busy.
                    perthread::record_busy(ns);
                    perthread::record_lifetime(ns);
                    perthread::record_items(items);
                }
            });
        }
    });
    if let Some(start) = start {
        let span = perthread::clamp_ns(start.elapsed().as_nanos());
        perthread::note_dispatch(threads, n, span);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that touch the global override / environment.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn explicit_request_wins_and_is_clamped() {
        let _g = lock();
        set_default_threads(0);
        assert_eq!(effective_threads(8, 3), 3, "clamped to work items");
        assert_eq!(effective_threads(2, 100), 2);
        assert_eq!(effective_threads(5, 0), 1, "no work still needs 1");
    }

    #[test]
    fn global_override_applies_when_unrequested() {
        let _g = lock();
        set_default_threads(3);
        assert_eq!(effective_threads(0, 100), 3);
        // An explicit request beats the override.
        assert_eq!(effective_threads(7, 100), 7);
        set_default_threads(0);
        assert!(effective_threads(0, 100) >= 1);
    }

    #[test]
    fn zero_work_items_still_resolves_one_worker() {
        let _g = lock();
        set_default_threads(0);
        // Every resolution tier must clamp up to 1 for empty work so
        // callers can divide by the result.
        assert_eq!(effective_threads(0, 0), 1);
        assert_eq!(effective_threads(64, 0), 1);
        set_default_threads(9);
        assert_eq!(effective_threads(0, 0), 1);
        set_default_threads(0);
    }

    #[test]
    fn fewer_work_items_than_threads_clamps_to_the_work() {
        let _g = lock();
        set_default_threads(0);
        assert_eq!(effective_threads(8, 3), 3);
        set_default_threads(8);
        assert_eq!(effective_threads(0, 3), 3, "global override clamped too");
        set_default_threads(0);
    }

    #[test]
    fn requests_beyond_hardware_parallelism_are_honored() {
        let _g = lock();
        set_default_threads(0);
        // An explicit request is a contract, not a hint: the resolver
        // clamps to the work size only, never to the core count (chunked
        // fan-out stays correct with oversubscribed workers).
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        let oversubscribed = cores * 4;
        assert_eq!(
            effective_threads(oversubscribed, usize::MAX),
            oversubscribed
        );
    }

    #[test]
    fn for_each_indexed_fills_every_slot_once() {
        let _g = lock();
        set_default_threads(0);
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        // Lengths on both sides of `threads` and of `threads × 32`, none a
        // multiple of the chunk length; worker counts up to oversubscribed.
        for n in [2usize, 3, 37, 65, 257, 1001] {
            let expect: Vec<usize> = (0..n).map(|i| i * 2 + 1).collect();
            for threads in [1, 2, 3, 8, cores * 4] {
                let mut slots = vec![0usize; n];
                for_each_indexed(&mut slots, threads, |i, slot| *slot += i * 2 + 1);
                assert_eq!(slots, expect, "n={n} threads={threads}");
            }
        }
    }

    /// The chunks handed to `f` are contiguous, start where their first
    /// index says, and tile the slice; one worker gets the whole slice.
    #[test]
    fn for_each_chunk_with_tiles_the_slice() {
        let _g = lock();
        set_default_threads(0);
        for n in [1usize, 2, 65, 1001] {
            for threads in [1, 2, 3, 8] {
                // (index, visits, length of the chunk it came in)
                let mut slots = vec![(0usize, 0usize, 0usize); n];
                for_each_chunk_with(
                    &mut slots,
                    threads,
                    || (),
                    |(), first, chunk| {
                        let len = chunk.len();
                        for (j, slot) in chunk.iter_mut().enumerate() {
                            *slot = (first + j, slot.1 + 1, len);
                        }
                    },
                );
                let tiled = slots.iter().enumerate().all(|(i, s)| s.0 == i && s.1 == 1);
                assert!(tiled, "n={n} threads={threads}");
                if threads == 1 {
                    assert!(slots.iter().all(|s| s.2 == n), "n={n}: one chunk");
                }
            }
        }
    }

    /// The first slot waits until every slot outside its chunk is filled,
    /// so the fan-out can only finish if the other worker goes on claiming
    /// chunks past its own first one (a pre-assigned half per worker would
    /// leave the rest of worker 0's half unfilled forever).
    #[test]
    fn a_stalled_worker_leaves_its_unclaimed_chunks_to_the_others() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::{Condvar, Mutex};
        let _g = lock();
        set_default_threads(0);
        let (n, threads) = (640usize, 2usize);
        let chunk = n.div_ceil(threads * CHUNKS_PER_WORKER);
        let filled_elsewhere = (Mutex::new(0usize), Condvar::new());
        let inits = AtomicUsize::new(0);
        // (worker, chunk) pairs seen by `f`.
        let claims = Mutex::new(std::collections::BTreeSet::new());
        let mut slots = vec![0usize; n];
        for_each_indexed_with(
            &mut slots,
            threads,
            || inits.fetch_add(1, Ordering::Relaxed),
            |worker, i, slot| {
                claims.lock().unwrap().insert((*worker, i / chunk));
                let (count, changed) = &filled_elsewhere;
                if i == 0 {
                    let mut count = count.lock().unwrap();
                    while *count < n - chunk {
                        count = changed.wait(count).unwrap();
                    }
                } else if i >= chunk {
                    *count.lock().unwrap() += 1;
                    changed.notify_all();
                }
                *slot += i + 1;
            },
        );
        assert!(slots.iter().enumerate().all(|(i, &v)| v == i + 1));
        assert!(
            inits.load(Ordering::Relaxed) <= threads,
            "one init per worker"
        );
        let claims = claims.into_inner().unwrap();
        assert_eq!(claims.len(), n / chunk, "a chunk runs on one worker");
        let stalled = claims.iter().find(|&&(_, c)| c == 0).unwrap().0;
        let by_stalled = claims.iter().filter(|&&(w, _)| w == stalled).count();
        assert_eq!(
            by_stalled, 1,
            "the stalled worker claimed only its first chunk"
        );
        assert!(
            claims.len() - by_stalled > threads,
            "chunks were claimed, not dealt"
        );
    }

    /// `benchmark/src/load.rs` runs one closed-loop client per slot for
    /// the whole measurement window, so the clients load the fabric
    /// together only if, with no more slots than workers, every slot is
    /// on a worker of its own — forced here by a barrier inside `f`.
    #[test]
    fn slots_up_to_the_worker_count_run_concurrently() {
        let _g = lock();
        set_default_threads(0);
        for n in [2usize, 3] {
            let barrier = std::sync::Barrier::new(n);
            let mut slots = vec![0usize; n];
            for_each_indexed(&mut slots, 8, |i, slot| {
                barrier.wait();
                *slot = i + 1;
            });
            assert_eq!(slots, (1..=n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn per_worker_state_is_isolated() {
        let _g = lock();
        set_default_threads(0);
        // Each worker counts its own chunk; the slice must still be a
        // per-index deterministic function.
        let mut slots = vec![0usize; 64];
        for_each_indexed_with(
            &mut slots,
            4,
            || 0usize,
            |seen, i, slot| {
                *seen += 1;
                *slot = i + 1;
            },
        );
        assert!(slots.iter().enumerate().all(|(i, &v)| v == i + 1));
    }

    #[test]
    fn empty_and_single_slices_run_inline() {
        let _g = lock();
        let mut empty: Vec<u32> = Vec::new();
        for_each_indexed(&mut empty, 4, |_, _| {});
        let mut one = vec![0u32];
        for_each_indexed(&mut one, 4, |i, slot| *slot = i as u32 + 9);
        assert_eq!(one, vec![9]);
    }

    #[test]
    fn fan_out_records_per_thread_attribution() {
        let _g = lock();
        set_default_threads(0);
        soi_obs::reset();
        let mut slots = vec![0u64; 40];
        for_each_indexed(&mut slots, 4, |i, slot| *slot = i as u64);
        let (threads, pool) = soi_obs::perthread::snapshot();
        assert_eq!(pool.dispatches, 1);
        assert_eq!(pool.items, 40);
        assert_eq!(pool.workers_max, 4);
        assert_eq!(threads.len(), 4, "one slot per worker");
        assert_eq!(threads.iter().map(|t| t.items).sum::<u64>(), 40);
        // Capacity = workers × dispatcher span always covers the summed
        // worker lifetimes (the residual is the imbalance term).
        assert!(pool.capacity_ns >= pool.lifetime_ns);
        assert_eq!(
            pool.imbalance_ns,
            pool.capacity_ns - pool.lifetime_ns,
            "capacity identity"
        );
        soi_obs::reset();
    }

    #[test]
    fn serial_fan_out_attributes_to_worker_zero() {
        let _g = lock();
        set_default_threads(0);
        soi_obs::reset();
        let mut slots = vec![0u64; 16];
        for_each_indexed(&mut slots, 1, |i, slot| *slot = i as u64 + 1);
        let (threads, pool) = soi_obs::perthread::snapshot();
        assert_eq!(pool.dispatches, 1);
        assert_eq!(pool.workers_max, 1);
        assert_eq!(threads.len(), 1);
        assert_eq!(threads[0].slot, 0);
        assert_eq!(threads[0].items, 16);
        assert_eq!(threads[0].busy_ns, threads[0].lifetime_ns);
        soi_obs::reset();
    }

    #[test]
    fn disabled_plane_keeps_fan_out_untimed() {
        let _g = lock();
        set_default_threads(0);
        soi_obs::reset();
        soi_obs::perthread::set_enabled(false);
        let mut slots = vec![0u64; 8];
        for_each_indexed(&mut slots, 2, |i, slot| *slot = i as u64 + 1);
        soi_obs::perthread::set_enabled(true);
        let (threads, pool) = soi_obs::perthread::snapshot();
        assert_eq!(pool.dispatches, 0, "disabled plane counted a dispatch");
        assert!(threads.iter().all(|t| t.busy_ns == 0 && t.items == 0));
        assert!(slots.iter().enumerate().all(|(i, &v)| v == i as u64 + 1));
        soi_obs::reset();
    }
}
