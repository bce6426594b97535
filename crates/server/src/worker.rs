//! The supervised worker pool: N threads draining the bounded job queue.
//!
//! Each job carries a parsed request plus a one-shot reply channel back
//! to the connection thread that submitted it. Workers never die on a
//! bad request — every failure path encodes a typed error response and
//! moves on — and a worker that *panics* mid-job is supervised:
//! `catch_unwind` converts the panic into a typed `internal-error`
//! response for the in-flight request, and the dying thread spawns its
//! own replacement under a fresh, monotonically increasing generation id
//! before exiting (counters `server.worker_panics` /
//! `server.worker_respawns`). The daemon therefore never loses capacity
//! to a poisoned request.
//!
//! Admission control is load-shedding, not queueing: a full queue
//! rejects immediately with a structured `queue-full` error carrying the
//! observed depth and a deterministic `retry_after_ticks` hint
//! ([`soi_util::backoff::retry_after_ticks`]).
//!
//! [`WorkerPool::shutdown`] closes the queue, drains every queued job,
//! waits for in-flight work, and joins the threads (including any
//! respawned generations): the graceful-drain half of the daemon's
//! shutdown sequence.

use crate::engine::ServerEngine;
use crate::protocol::{self, Envelope};
use crate::queue::{Bounded, PushError};
use crate::trace::{PhaseTrace, SlowLog};
use soi_util::{ProtoErrorKind, SoiError};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// One queued compute request.
pub struct Job {
    /// The parsed request envelope.
    pub envelope: Envelope,
    /// Where the encoded response line goes. Send failures are ignored:
    /// a connection that died while its job was queued just discards
    /// the result.
    pub reply: mpsc::Sender<String>,
    /// Phase timeline accumulated so far (the submitter's `parse`
    /// phase); workers append `queue_wait`/`cache`/`compute`/`serialize`.
    trace: PhaseTrace,
    /// When the job was submitted; the dequeuing worker turns this into
    /// the `queue_wait` phase and the `server.queue_wait_ns` histogram.
    enqueued: Instant,
}

impl Job {
    /// A job with an empty phase timeline.
    pub fn new(envelope: Envelope, reply: mpsc::Sender<String>) -> Job {
        Job::with_trace(envelope, reply, PhaseTrace::new())
    }

    /// A job carrying the submitter's already-recorded phases.
    pub fn with_trace(envelope: Envelope, reply: mpsc::Sender<String>, trace: PhaseTrace) -> Job {
        Job {
            envelope,
            reply,
            trace,
            enqueued: Instant::now(),
        }
    }
}

/// State shared by the pool owner, every submission handle, and every
/// worker thread — including workers spawned as panic replacements.
struct Shared {
    engine: Arc<ServerEngine>,
    queue: Bounded<Job>,
    queue_cap: usize,
    in_flight: AtomicU64,
    /// Threshold-gated slow-query log shared by every generation.
    slow: Option<Arc<SlowLog>>,
    /// Next worker generation id; strictly increasing across respawns.
    next_generation: AtomicU64,
    /// Join handles of live workers. A dying worker registers its
    /// replacement's handle here before exiting, so shutdown can always
    /// join the current generation.
    threads: Mutex<Vec<JoinHandle<()>>>,
}

/// A cloneable submission handle onto a running pool's queue; held by
/// every connection thread.
#[derive(Clone)]
pub struct PoolHandle {
    shared: Arc<Shared>,
}

/// The pool itself, held by the daemon (owns the worker threads).
pub struct WorkerPool {
    handle: PoolHandle,
}

/// Executes one job to an encoded response line; shared by the pool
/// workers and the single-threaded stdio front-end.
pub fn execute_job(engine: &ServerEngine, envelope: &Envelope) -> String {
    let mut trace = PhaseTrace::new();
    execute_job_traced(engine, envelope, &mut trace, None)
}

/// [`execute_job`] with phase accounting: appends the engine's
/// `cache`/`compute` phases and a `serialize` phase (ticks = payload
/// bytes — deterministic, unlike the full line whose embedded `wall_ns`
/// digit count varies) to `trace`, embeds the timeline in the response
/// when the request opted in with `"trace":true`, and offers the
/// completed timeline to the slow-query log.
pub fn execute_job_traced(
    engine: &ServerEngine,
    envelope: &Envelope,
    trace: &mut PhaseTrace,
    slow: Option<&SlowLog>,
) -> String {
    let started = Instant::now();
    let result = engine.execute_traced(&envelope.req, trace);
    let wall_ns = crate::trace::elapsed_ns(started);
    soi_obs::wall_hist("server.request_ns").observe_ns(wall_ns);
    let line = match result {
        Ok(out) => {
            if out.partial.is_some() {
                soi_obs::counter_add!("server.partial_responses", 1);
            }
            let serialize_start = Instant::now();
            let line = protocol::encode_answer(envelope.id, &out.payload, out.partial, wall_ns);
            trace.record(
                "serialize",
                out.payload.len() as u64,
                crate::trace::elapsed_ns(serialize_start),
            );
            if envelope.trace {
                // Opt-in only: re-encode with the timeline attached, so
                // the untraced path never pays for the fragment.
                let payload = format!("{},{}", out.payload, trace.json_fragment());
                protocol::encode_answer(envelope.id, &payload, out.partial, wall_ns)
            } else {
                line
            }
        }
        Err(err) => protocol::encode_error(Some(envelope.id), &err),
    };
    if let Some(slow) = slow {
        slow.maybe_log(envelope.id, envelope.req.type_name(), trace);
    }
    line
}

/// The worker loop for one generation. Returns normally on queue close;
/// on a panic mid-job the unwind is caught, the in-flight request gets a
/// typed `internal-error` response, and a replacement generation is
/// spawned before this thread exits.
fn worker_loop(shared: Arc<Shared>, generation: u64) {
    use soi_obs::perthread;
    // Each generation owns a slot in the per-thread timing plane; late
    // generations (respawns past the plane's capacity) share the last
    // slot rather than going untimed.
    let _reg = perthread::register(generation as usize);
    let loop_start = Instant::now();
    loop {
        // Blocking on the empty queue is idle time, not busy time.
        let Some(mut job) = perthread::timed_region(perthread::record_idle, || shared.queue.pop())
        else {
            break;
        };
        let wait_ns = crate::trace::elapsed_ns(job.enqueued);
        soi_obs::wall_hist("server.queue_wait_ns").observe_ns(wait_ns);
        job.trace.record("queue_wait", 0, wait_ns);
        // ordering: in_flight is a stats counter read only through racy
        // snapshots; Relaxed RMW keeps it exact without fencing the
        // hot dispatch path.
        shared.in_flight.fetch_add(1, Ordering::Relaxed);
        // AssertUnwindSafe: engine state is either immutable (graphs,
        // config) or lock-guarded with poison recovery (caches), so a
        // half-finished job cannot leave it inconsistent.
        #[expect(
            clippy::disallowed_methods,
            reason = "the supervision point: a worker panic becomes a typed internal-error \
                      response and the worker is respawned"
        )]
        let outcome = perthread::timed_region(perthread::record_busy, || {
            std::panic::catch_unwind(AssertUnwindSafe(|| {
                soi_util::failpoint_crash!("server.worker.dispatch");
                execute_job_traced(
                    &shared.engine,
                    &job.envelope,
                    &mut job.trace,
                    shared.slow.as_deref(),
                )
            }))
        });
        // ordering: see the matching fetch_add above.
        shared.in_flight.fetch_sub(1, Ordering::Relaxed);
        perthread::record_items(1);
        match outcome {
            Ok(line) => {
                // Handing the result back to the connection thread is
                // merge time in the capacity identity.
                perthread::timed_region(perthread::record_merge, || {
                    let _ = job.reply.send(line);
                });
            }
            Err(_panic) => {
                soi_obs::counter_add!("server.worker_panics", 1);
                let err = SoiError::protocol(
                    ProtoErrorKind::Internal,
                    format!("worker generation {generation} panicked executing the request"),
                );
                let _ = job
                    .reply
                    .send(protocol::encode_error(Some(job.envelope.id), &err));
                respawn(&shared);
                perthread::record_lifetime(crate::trace::elapsed_ns(loop_start));
                return;
            }
        }
    }
    perthread::record_lifetime(crate::trace::elapsed_ns(loop_start));
}

/// Spawns the replacement for a panicked worker under a fresh generation
/// id, registering its join handle for shutdown.
fn respawn(shared: &Arc<Shared>) {
    soi_obs::counter_add!("server.worker_respawns", 1);
    // ordering: uniqueness of generation ids comes from RMW atomicity
    // alone; nothing is published through the counter, so Relaxed.
    let generation = shared.next_generation.fetch_add(1, Ordering::Relaxed);
    let clone = Arc::clone(shared);
    #[expect(
        clippy::disallowed_methods,
        reason = "a panicked worker's replacement; its handle joins `threads`, \
                  which `WorkerPool::shutdown` joins"
    )]
    let handle = std::thread::spawn(move || worker_loop(clone, generation));
    shared
        .threads
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push(handle);
}

impl WorkerPool {
    /// Starts `workers` threads (min 1) over a queue of `queue_cap`.
    pub fn start(engine: Arc<ServerEngine>, workers: usize, queue_cap: usize) -> Self {
        WorkerPool::start_with(engine, workers, queue_cap, None)
    }

    /// [`Self::start`] with an optional slow-query log shared by every
    /// worker generation.
    pub fn start_with(
        engine: Arc<ServerEngine>,
        workers: usize,
        queue_cap: usize,
        slow: Option<Arc<SlowLog>>,
    ) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            engine,
            queue: Bounded::new(queue_cap),
            queue_cap,
            in_flight: AtomicU64::new(0),
            slow,
            next_generation: AtomicU64::new(workers as u64),
            threads: Mutex::new(Vec::with_capacity(workers)),
        });
        for generation in 0..workers as u64 {
            let clone = Arc::clone(&shared);
            #[expect(
                clippy::disallowed_methods,
                reason = "a pool worker; its handle joins `threads`, which \
                          `WorkerPool::shutdown` joins, and a panic respawns it"
            )]
            let handle = std::thread::spawn(move || worker_loop(clone, generation));
            shared
                .threads
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(handle);
        }
        WorkerPool {
            handle: PoolHandle { shared },
        }
    }

    /// A cloneable submission handle for connection threads.
    pub fn handle(&self) -> PoolHandle {
        self.handle.clone()
    }

    /// Graceful drain: rejects future submissions, finishes every
    /// queued and in-flight job, and joins the worker threads — looping
    /// because a panicking worker may have registered a replacement
    /// generation while earlier handles were being joined.
    pub fn shutdown(self) {
        let shared = &self.handle.shared;
        shared.queue.close();
        loop {
            let batch: Vec<JoinHandle<()>> = {
                let mut threads = shared
                    .threads
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                std::mem::take(&mut *threads)
            };
            if batch.is_empty() {
                return;
            }
            for handle in batch {
                let _ = handle.join();
            }
        }
    }
}

impl PoolHandle {
    /// Submits a job; on a full (or closing) queue the job is shed
    /// immediately with a structured `queue-full` error carrying the
    /// observed queue depth and a deterministic retry hint, sent on its
    /// own reply channel.
    pub fn submit(&self, job: Job) {
        match self.shared.queue.push(job) {
            Ok(()) => {}
            Err(PushError::Full(job)) | Err(PushError::Closed(job)) => {
                soi_obs::counter_add!("server.rejected_queue_full", 1);
                soi_obs::counter_add!("server.requests_shed", 1);
                let depth = self.shared.queue.depth();
                let hint = soi_util::backoff::retry_after_ticks(depth, self.shared.queue_cap);
                let _ = job
                    .reply
                    .send(protocol::encode_queue_full(job.envelope.id, depth, hint));
            }
        }
    }

    /// Jobs waiting in the queue (racy snapshot, for stats).
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.depth()
    }

    /// Jobs currently executing (racy snapshot, for stats).
    pub fn in_flight(&self) -> u64 {
        // ordering: racy stats snapshot by contract (see doc comment).
        self.shared.in_flight.load(Ordering::Relaxed)
    }

    /// Worker generations spawned so far (initial + respawned); the
    /// next respawn takes this id.
    pub fn generations(&self) -> u64 {
        // ordering: monotonic-counter snapshot; callers that need the
        // post-respawn value synchronize through the reply channel.
        self.shared.next_generation.load(Ordering::Relaxed)
    }

    #[cfg(test)]
    pub(crate) fn close_for_test(&self) {
        self.shared.queue.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::protocol::Request;
    use soi_graph::{gen, ProbGraph};

    fn engine() -> Arc<ServerEngine> {
        let pg = ProbGraph::fixed(gen::path(8), 1.0).expect("graph");
        let mut engine = ServerEngine::new(EngineConfig {
            num_worlds: 4,
            ..EngineConfig::default()
        });
        engine.add_graph("g", pg);
        Arc::new(engine)
    }

    fn spread_job(id: u64, reply: mpsc::Sender<String>) -> Job {
        Job::new(
            Envelope {
                id,
                req: Request::SpreadEstimate {
                    graph: "g".into(),
                    seeds: vec![0],
                    samples: 4,
                    seed: 1,
                    deadline_ticks: None,
                    degrade: false,
                    backend: soi_influence::BackendKind::Cascade,
                    sketch_k: None,
                },
                trace: false,
            },
            reply,
        )
    }

    #[test]
    fn traced_request_embeds_phase_timeline() {
        let _g = soi_util::failpoint::test_guard();
        let engine = engine();
        let envelope = Envelope {
            id: 3,
            req: Request::SpreadEstimate {
                graph: "g".into(),
                seeds: vec![0],
                samples: 4,
                seed: 1,
                deadline_ticks: None,
                degrade: false,
                backend: soi_influence::BackendKind::Cascade,
                sketch_k: None,
            },
            trace: true,
        };
        let mut trace = PhaseTrace::new();
        trace.record("parse", 52, 777);
        let line = execute_job_traced(&engine, &envelope, &mut trace, None);
        assert!(line.contains("\"status\":\"ok\""), "{line}");
        assert!(
            line.contains("\"trace\":[{\"phase\":\"parse\",\"ticks\":52,"),
            "{line}"
        );
        for phase in ["cache", "compute", "serialize"] {
            assert!(line.contains(&format!("{{\"phase\":\"{phase}\"")), "{line}");
        }
        // Untraced requests answer without the timeline.
        let untraced = Envelope {
            trace: false,
            ..envelope
        };
        let line = execute_job(&engine, &untraced);
        assert!(!line.contains("\"trace\":["), "{line}");
    }

    #[test]
    fn worker_records_queue_wait_and_offers_slow_log() {
        let _g = soi_util::failpoint::test_guard();
        soi_obs::reset();
        // Threshold 1: the 4-sample spread job (4 compute ticks) always
        // reaches it, so the pool's worker must hand the completed
        // timeline to the log.
        let (log_tx, log_rx) = mpsc::channel::<String>();
        struct ChannelWriter(mpsc::Sender<String>);
        impl std::io::Write for ChannelWriter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                let _ = self.0.send(String::from_utf8_lossy(buf).into_owned());
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let slow = Arc::new(SlowLog::new(1, Box::new(ChannelWriter(log_tx))));
        let pool = WorkerPool::start_with(engine(), 1, 4, Some(slow));
        let handle = pool.handle();
        let (tx, rx) = mpsc::channel();
        handle.submit(spread_job(5, tx));
        assert!(rx.recv().expect("reply").contains("\"status\":\"ok\""));
        let logged = log_rx.recv().expect("slow-query line");
        assert!(
            logged.contains("\"type_name\":\"spread-estimate\""),
            "{logged}"
        );
        assert!(
            logged.contains("{\"phase\":\"queue_wait\",\"ticks\":0,"),
            "{logged}"
        );
        pool.shutdown();
        let wait = soi_obs::wall_hist("server.queue_wait_ns").snapshot();
        assert_eq!(wait.count, 1, "queue wait observed on every dequeue");
    }

    #[test]
    fn pool_executes_and_drains_on_shutdown() {
        let _g = soi_util::failpoint::test_guard();
        let pool = WorkerPool::start(engine(), 2, 16);
        let handle = pool.handle();
        let (tx, rx) = mpsc::channel();
        for id in 0..8 {
            handle.submit(spread_job(id, tx.clone()));
        }
        drop(tx);
        pool.shutdown();
        let responses: Vec<String> = rx.iter().collect();
        assert_eq!(responses.len(), 8, "drain must answer every accepted job");
        for line in &responses {
            assert!(line.contains("\"status\":\"ok\""), "{line}");
        }
    }

    #[test]
    fn overflow_is_rejected_typed_not_dropped() {
        let _g = soi_util::failpoint::test_guard();
        // No workers draining: start the pool, saturate the queue faster
        // than 1 worker can drain a slow-ish job mix, using cap 1 and
        // submissions back-to-back. To make it deterministic, close the
        // queue first so every submit takes the rejection path.
        let pool = WorkerPool::start(engine(), 1, 1);
        let handle = pool.handle();
        let (tx, rx) = mpsc::channel();
        handle.close_for_test();
        handle.submit(spread_job(9, tx));
        let line = rx.recv().expect("rejection response");
        assert!(line.contains("\"kind\":\"queue-full\""), "{line}");
        assert!(line.contains("\"id\":9"), "{line}");
        assert!(line.contains("\"queue_depth\":"), "{line}");
        assert!(line.contains("\"retry_after_ticks\":"), "{line}");
        pool.shutdown();
    }

    #[test]
    fn bad_request_does_not_kill_worker() {
        let _g = soi_util::failpoint::test_guard();
        let pool = WorkerPool::start(engine(), 1, 4);
        let handle = pool.handle();
        let (tx, rx) = mpsc::channel();
        handle.submit(Job::new(
            Envelope {
                id: 1,
                req: Request::TypicalCascade {
                    graph: "missing".into(),
                    source: 0,
                    deadline_ticks: None,
                },
                trace: false,
            },
            tx.clone(),
        ));
        assert!(rx.recv().expect("error response").contains("unknown-graph"));
        // The same (sole) worker still serves the next job.
        handle.submit(spread_job(2, tx));
        assert!(rx
            .recv()
            .expect("ok response")
            .contains("\"status\":\"ok\""));
        pool.shutdown();
    }

    #[test]
    #[cfg(debug_assertions)] // arms a failpoint; the sites compile out in release
    fn panicked_worker_answers_typed_and_is_respawned() {
        let _g = soi_util::failpoint::test_guard();
        soi_util::failpoint::install("server.worker.dispatch=panic@1").expect("arm");
        let pool = WorkerPool::start(engine(), 1, 4);
        let handle = pool.handle();
        assert_eq!(handle.generations(), 1);
        let (tx, rx) = mpsc::channel();
        // First job panics the sole worker: the request still gets a
        // typed internal-error response.
        handle.submit(spread_job(1, tx.clone()));
        let line = rx.recv().expect("panic response");
        assert!(line.contains("\"kind\":\"internal-error\""), "{line}");
        assert!(line.contains("\"id\":1"), "{line}");
        // The replacement generation serves subsequent requests.
        handle.submit(spread_job(2, tx));
        let line = rx.recv().expect("post-respawn response");
        assert!(line.contains("\"status\":\"ok\""), "{line}");
        assert_eq!(handle.generations(), 2, "one respawn");
        pool.shutdown();
        soi_util::failpoint::clear();
    }

    #[test]
    #[cfg(debug_assertions)] // arms a failpoint; the sites compile out in release
    fn shutdown_joins_respawned_generations() {
        let _g = soi_util::failpoint::test_guard();
        soi_util::failpoint::install("server.worker.dispatch=panic@1").expect("arm");
        let pool = WorkerPool::start(engine(), 2, 16);
        let handle = pool.handle();
        let (tx, rx) = mpsc::channel();
        for id in 0..6 {
            handle.submit(spread_job(id, tx.clone()));
        }
        drop(tx);
        pool.shutdown();
        let responses: Vec<String> = rx.iter().collect();
        assert_eq!(responses.len(), 6, "every accepted job is answered");
        let errors = responses
            .iter()
            .filter(|l| l.contains("internal-error"))
            .count();
        assert_eq!(errors, 1, "exactly the panicked job errors: {responses:?}");
        assert_eq!(handle.generations(), 3, "2 initial + 1 respawn");
        soi_util::failpoint::clear();
    }
}
