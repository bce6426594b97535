//! # soi-server
//!
//! A long-lived query-serving daemon for spheres of influence.
//!
//! One-shot CLI runs pay the cascade-index build (ℓ sampled worlds,
//! Algorithm 1) on every invocation. `soi serve` pays it once: graphs
//! load at startup, indexes build into a fingerprint-keyed LRU cache
//! ([`cache`]), and queries are answered over a line-delimited JSON
//! protocol ([`protocol`]) on a loop-back TCP listener — or over
//! stdin/stdout for hermetic tests ([`daemon::run_stdio`]).
//!
//! The serving pipeline is built from the substrate the rest of the
//! workspace already uses:
//!
//! - a fixed worker pool over a **bounded** queue ([`queue`],
//!   [`worker`]): a full queue rejects immediately with a typed
//!   `queue-full` error instead of stacking latency;
//! - per-request **deadlines** mapped onto deterministic
//!   `soi_util::runtime::Deadline` tick budgets: a slow query returns a
//!   well-formed `partial` response covering the exact prefix of work
//!   done, never a stalled worker;
//! - `soi-obs` metrics throughout (request latency wall-histogram,
//!   queue depth, rejection/disconnect counters), flushed as a final
//!   report on graceful shutdown.
//!
//! `soi route` ([`router`]) is the front-end shard router: the same
//! wire protocol, consistent-hashing graph names across a fleet of
//! `soi serve` daemons with replica failover, drain/rebalance, and
//! fabric-wide stats aggregation.
//!
//! All three front-ends — the TCP daemon, the stdio lane, the router —
//! and every client leg frame lines through one private module, `wire`:
//! one capped reader, one `write_line`, one connection loop, one
//! accept/drain loop, one client `Conn`. A front-end is a closure from
//! request line to answer.
//!
//! `soi query` ([`client`]) is the companion batch client. The wire
//! protocol, deadline and admission semantics, and exit codes are
//! specified in `docs/SERVING.md`.
//!
//! This is the only crate in the workspace permitted to touch
//! `std::net` (enforced by `cargo xtask lint`'s hermeticity pass).

pub mod cache;
pub mod client;
pub mod daemon;
pub mod engine;
pub mod json;
pub mod protocol;
pub mod queue;
pub mod router;
pub mod stats;
pub mod trace;
mod wire;
pub mod worker;

pub use client::{run_queries, send_one, send_stream, BatchReport, QueryConfig};
pub use daemon::{run_stdio, run_tcp, ServeConfig, STATS_VERSION};
pub use engine::{EngineConfig, ExecOutput, ServerEngine};
pub use protocol::{Envelope, Request, DEFAULT_MAX_LINE, PROTOCOL_VERSION};
pub use router::{run_router, RouterConfig};
pub use stats::{run_stats, StatsConfig, StatsFormat};
pub use trace::{Phase, PhaseTrace, SlowLog};

#[cfg(test)]
mod tests {
    #[test]
    fn reexports_resolve() {
        assert_eq!(super::PROTOCOL_VERSION, 1);
        assert_eq!(super::DEFAULT_MAX_LINE, 64 * 1024);
    }
}
