//! A bounded MPMC job queue with admission control and drain-on-close.
//!
//! [`Bounded::push`] never blocks: when the queue is at capacity the
//! item comes straight back as [`PushError::Full`], which the daemon
//! turns into an immediate `queue-full` rejection — an overloaded
//! server sheds load instead of stacking latency. [`Bounded::pop`]
//! blocks until an item arrives; after [`Bounded::close`] it keeps
//! returning queued items until the queue is empty (graceful drain)
//! and only then reports exhaustion.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};

/// Why a push was refused, carrying the item back to the caller.
#[derive(Debug)]
pub enum PushError<T> {
    /// The queue is at capacity; shed the request.
    Full(T),
    /// The queue was closed; the server is shutting down.
    Closed(T),
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// The bounded queue. All methods take `&self`; share via `Arc`.
pub struct Bounded<T> {
    cap: usize,
    state: Mutex<State<T>>,
    cond: Condvar,
}

impl<T> Bounded<T> {
    /// A queue holding at most `cap` items (min 1).
    pub fn new(cap: usize) -> Self {
        Bounded {
            cap: cap.max(1),
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
            }),
            cond: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Non-blocking enqueue with admission control.
    pub fn push(&self, item: T) -> Result<(), PushError<T>> {
        let mut s = self.lock();
        if s.closed {
            return Err(PushError::Closed(item));
        }
        if s.items.len() >= self.cap {
            return Err(PushError::Full(item));
        }
        s.items.push_back(item);
        let depth = s.items.len();
        soi_obs::gauge("server.queue_depth").set(depth as f64);
        // Depth-at-enqueue distribution. The value is a queue length in
        // items, not nanoseconds, but it is schedule-dependent like wall
        // time, so it lives in the wall-quarantined histogram family
        // rather than poisoning the deterministic counters.
        soi_obs::wall_hist("server.queue_depth_at_enqueue").observe_ns(depth as u64);
        drop(s);
        self.cond.notify_one();
        Ok(())
    }

    /// Blocking dequeue. Returns `None` only once the queue is closed
    /// **and** fully drained.
    pub fn pop(&self) -> Option<T> {
        let mut s = self.lock();
        loop {
            if let Some(item) = s.items.pop_front() {
                soi_obs::gauge("server.queue_depth").set(s.items.len() as f64);
                return Some(item);
            }
            if s.closed {
                return None;
            }
            s = self.cond.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Closes the queue: future pushes fail with [`PushError::Closed`],
    /// queued items keep draining through [`Bounded::pop`].
    pub fn close(&self) {
        self.lock().closed = true;
        self.cond.notify_all();
    }

    /// Items currently queued (racy snapshot, for stats).
    pub fn depth(&self) -> usize {
        self.lock().items.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_records_depth_distribution() {
        let q = Bounded::new(8);
        let before = soi_obs::wall_hist("server.queue_depth_at_enqueue")
            .snapshot()
            .count;
        for i in 0..3 {
            q.push(i).map_err(|_| ()).expect("push");
        }
        let snap = soi_obs::wall_hist("server.queue_depth_at_enqueue").snapshot();
        assert_eq!(snap.count - before, 3, "one observation per enqueue");
    }

    #[test]
    fn full_queue_rejects_with_item() {
        let q = Bounded::new(2);
        assert!(q.push(1).is_ok());
        assert!(q.push(2).is_ok());
        match q.push(3) {
            Err(PushError::Full(3)) => {}
            other => panic!("expected Full(3), got {other:?}"),
        }
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn close_drains_then_exhausts() {
        let q = Bounded::new(4);
        q.push(1).map_err(|_| ()).expect("push");
        q.push(2).map_err(|_| ()).expect("push");
        q.close();
        match q.push(3) {
            Err(PushError::Closed(3)) => {}
            other => panic!("expected Closed(3), got {other:?}"),
        }
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "a consumer thread, joined before the test ends"
    )]
    fn pop_blocks_until_item_or_close() {
        let q = Arc::new(Bounded::new(1));
        let q2 = Arc::clone(&q);
        let consumer = std::thread::spawn(move || {
            let first = q2.pop();
            let second = q2.pop();
            (first, second)
        });
        q.push(7).map_err(|_| ()).expect("push");
        q.close();
        let (first, second) = consumer.join().expect("join");
        assert_eq!(first, Some(7));
        assert_eq!(second, None);
    }

    #[test]
    fn many_producers_one_consumer() {
        let q = Arc::new(Bounded::new(64));
        std::thread::scope(|s| {
            for t in 0..4 {
                let q = Arc::clone(&q);
                s.spawn(move || {
                    for i in 0..8 {
                        q.push(t * 8 + i).map_err(|_| ()).expect("push");
                    }
                });
            }
        });
        q.close();
        let mut got = Vec::new();
        while let Some(v) = q.pop() {
            got.push(v);
        }
        got.sort_unstable();
        assert_eq!(got, (0..32).collect::<Vec<_>>());
    }
}
