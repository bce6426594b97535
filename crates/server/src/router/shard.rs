//! The shard map: consistent hashing of graph names onto shards, plus
//! the shared replica-health book the forwarding paths consult.
//!
//! Placement is a classic consistent-hash ring: every shard projects
//! [`VNODES`] virtual points onto the `u64` circle (SplitMix64-mixed,
//! [`soi_util::rng::mix64`]), and a graph lands on the first point at or
//! after its own hash. The ring is fixed at startup; the `rebalance`
//! control writes per-graph overrides on top, so moving one graph never
//! reshuffles any other. Placement is a pure function of (shard count,
//! graph name, overrides) — two routers with the same arguments route
//! identically, which is what the chaos matrix's byte-identical
//! convergence assertions lean on.
//!
//! Health is advisory, never authoritative: a replica that failed a
//! connect or mid-request is *deprioritized* (healthy replicas are
//! tried first) but stays in the rotation, so a respawned daemon heals
//! the fabric without an operator touching anything.

use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};

/// Virtual points each shard projects onto the hash ring. Enough that
/// graph load spreads evenly across a handful of shards; small enough
/// that ring construction is trivially cheap.
pub const VNODES: u64 = 64;

/// FNV-1a folded through the SplitMix64 finalizer: a well-mixed `u64`
/// position on the ring for a graph name.
fn hash_name(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    soi_util::rng::mix64(h)
}

/// One replica's shared, advisory health record.
#[derive(Clone, Debug)]
pub struct ReplicaState {
    /// `host:port` of the `soi serve` daemon.
    pub addr: String,
    /// Whether the last exchange with this replica succeeded.
    pub healthy: bool,
    /// Requests successfully relayed through this replica.
    pub forwarded: u64,
    /// Connect/IO/version failures observed on this replica.
    pub failures: u64,
}

/// What one exchange with a replica showed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Exchange {
    /// A client request was relayed and answered: healthy, and one more
    /// `forwarded`.
    Relayed,
    /// A health probe was answered: healthy, nothing relayed.
    Alive,
    /// Connect, I/O or version failure: unhealthy, one more `failures`.
    Failed,
}

/// The immutable ring plus the mutable overlays (rebalance overrides,
/// replica health, per-shard shed state).
pub struct ShardMap {
    /// `(ring position, shard index)`, sorted by position.
    ring: Vec<(u64, usize)>,
    /// Replica health per shard, index-aligned with the CLI's shard
    /// specs.
    shards: Vec<Mutex<Vec<ReplicaState>>>,
    /// Graph-name → shard overrides written by `rebalance`.
    overrides: Mutex<BTreeMap<String, usize>>,
    /// Per-shard load-shedding state: `(remaining budget, queue_depth,
    /// retry_after_ticks)` from the last `queue-full` rejection seen.
    shed: Vec<Mutex<(u64, u64, u64)>>,
}

impl ShardMap {
    /// Builds the map over `shards` replica sets (each a list of
    /// `host:port` addresses).
    pub fn new(shards: Vec<Vec<String>>) -> ShardMap {
        let mut ring = Vec::with_capacity(shards.len() * VNODES as usize);
        for shard in 0..shards.len() {
            for v in 0..VNODES {
                ring.push((soi_util::rng::mix64((shard as u64) << 32 | v), shard));
            }
        }
        ring.sort_unstable();
        let shards: Vec<Mutex<Vec<ReplicaState>>> = shards
            .into_iter()
            .map(|replicas| {
                Mutex::new(
                    replicas
                        .into_iter()
                        .map(|addr| ReplicaState {
                            addr,
                            healthy: true,
                            forwarded: 0,
                            failures: 0,
                        })
                        .collect(),
                )
            })
            .collect();
        let shed = (0..shards.len()).map(|_| Mutex::new((0, 0, 0))).collect();
        ShardMap {
            ring,
            shards,
            overrides: Mutex::new(BTreeMap::new()),
            shed,
        }
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Whether the map holds no shards (never true for a running
    /// router: the CLI requires at least one spec).
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// The shard owning `graph`: the rebalance override when one
    /// exists, the ring otherwise.
    pub fn shard_for(&self, graph: &str) -> usize {
        if let Some(&shard) = self
            .overrides
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(graph)
        {
            return shard;
        }
        let h = hash_name(graph);
        let at = self.ring.partition_point(|&(point, _)| point < h);
        self.ring[at % self.ring.len()].1
    }

    /// Records a rebalance override. In-flight requests already resolved
    /// to the old shard and complete there; every later request routes
    /// to `shard`. Errors on an out-of-range shard index.
    pub fn rebalance(&self, graph: &str, shard: usize) -> Result<(), String> {
        if shard >= self.len() {
            return Err(format!(
                "shard {shard} out of range (router holds {} shards)",
                self.len()
            ));
        }
        self.overrides
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(graph.to_string(), shard);
        Ok(())
    }

    /// Snapshot of the rebalance-override table, for persistence.
    pub fn overrides_snapshot(&self) -> BTreeMap<String, usize> {
        self.overrides
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Installs a persisted override table wholesale (replacing any
    /// current overrides). Errors without touching the table when any
    /// entry names an out-of-range shard — a file written by a
    /// differently sized fleet must not partially apply.
    pub fn load_overrides(&self, overrides: BTreeMap<String, usize>) -> Result<(), String> {
        if let Some((graph, &shard)) = overrides.iter().find(|&(_, &shard)| shard >= self.len()) {
            return Err(format!(
                "override for {graph:?} names shard {shard}, but the router holds {} shards",
                self.len()
            ));
        }
        *self
            .overrides
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = overrides;
        Ok(())
    }

    /// The replica addresses of `shard` in preference order: healthy
    /// replicas first (stable by index), then unhealthy ones — a fully
    /// dark shard is still probed, so a respawned replica heals it.
    /// Returned as `(replica index, addr)` pairs.
    pub fn replica_order(&self, shard: usize) -> Vec<(usize, String)> {
        let replicas = self.shards[shard]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let mut order: Vec<(usize, String)> = Vec::with_capacity(replicas.len());
        for (idx, r) in replicas.iter().enumerate() {
            if r.healthy {
                order.push((idx, r.addr.clone()));
            }
        }
        for (idx, r) in replicas.iter().enumerate() {
            if !r.healthy {
                order.push((idx, r.addr.clone()));
            }
        }
        order
    }

    /// Records the outcome of one exchange with `shard`/`replica`.
    pub fn mark(&self, shard: usize, replica: usize, outcome: Exchange) {
        let mut replicas = self.shards[shard]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let Some(r) = replicas.get_mut(replica) else {
            return;
        };
        r.healthy = outcome != Exchange::Failed;
        match outcome {
            Exchange::Relayed => r.forwarded += 1,
            Exchange::Alive => {}
            Exchange::Failed => r.failures += 1,
        }
    }

    /// Snapshot of every shard's replica health, for the stats payload.
    pub fn health_snapshot(&self) -> Vec<Vec<ReplicaState>> {
        self.shards
            .iter()
            .map(|m| m.lock().unwrap_or_else(PoisonError::into_inner).clone())
            .collect()
    }

    /// Arms `shard`'s shed window after a `queue-full` rejection
    /// carrying `(queue_depth, retry_after_ticks)`: the next
    /// `hint / 16` requests for the shard are shed at the router
    /// (deterministic in the hint, which is itself deterministic in the
    /// shard's queue state).
    pub fn arm_shed(&self, shard: usize, queue_depth: u64, retry_after_ticks: u64) {
        let mut shed = self.shed[shard]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *shed = (retry_after_ticks / 16, queue_depth, retry_after_ticks);
    }

    /// Consumes one slot of `shard`'s shed window: `Some((queue_depth,
    /// retry_after_ticks))` when this request should be shed at the
    /// router, `None` when it should be forwarded.
    pub fn take_shed(&self, shard: usize) -> Option<(u64, u64)> {
        let mut shed = self.shed[shard]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if shed.0 == 0 {
            return None;
        }
        shed.0 -= 1;
        Some((shed.1, shed.2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(shards: usize, replicas: usize) -> ShardMap {
        ShardMap::new(
            (0..shards)
                .map(|s| {
                    (0..replicas)
                        .map(|r| format!("127.0.0.1:{}", 9000 + s * 10 + r))
                        .collect()
                })
                .collect(),
        )
    }

    #[test]
    fn placement_is_deterministic_and_total() {
        let a = map(3, 1);
        let b = map(3, 1);
        for name in [
            "net",
            "web",
            "soc-epinions",
            "g0",
            "g1",
            "a-very-long-graph-name",
        ] {
            let shard = a.shard_for(name);
            assert!(shard < 3);
            assert_eq!(shard, b.shard_for(name), "identical maps agree on {name}");
        }
    }

    #[test]
    fn placement_spreads_across_shards() {
        let m = map(3, 1);
        let mut counts = [0usize; 3];
        for i in 0..300 {
            counts[m.shard_for(&format!("graph-{i}"))] += 1;
        }
        // With 64 vnodes per shard the split is roughly even; the point
        // here is only that no shard is starved or monopolized.
        for (shard, &c) in counts.iter().enumerate() {
            assert!(c > 30, "shard {shard} starved: {counts:?}");
            assert!(c < 200, "shard {shard} monopolized: {counts:?}");
        }
    }

    #[test]
    fn rebalance_overrides_the_ring_for_one_graph_only() {
        let m = map(3, 1);
        let home = m.shard_for("net");
        let target = (home + 1) % 3;
        m.rebalance("net", target).expect("in range");
        assert_eq!(m.shard_for("net"), target);
        // Unrelated graphs keep their ring placement.
        let m2 = map(3, 1);
        for i in 0..50 {
            let name = format!("other-{i}");
            assert_eq!(m.shard_for(&name), m2.shard_for(&name));
        }
        assert!(m.rebalance("net", 3).is_err(), "out of range");
    }

    #[test]
    fn replica_order_prefers_healthy_but_never_abandons() {
        let m = map(1, 3);
        m.mark(0, 0, Exchange::Failed);
        let order = m.replica_order(0);
        assert_eq!(order.len(), 3, "dark replicas stay in rotation");
        assert_eq!(order[0].0, 1, "healthy first");
        assert_eq!(order[1].0, 2);
        assert_eq!(order[2].0, 0, "failed replica probed last");
        // An answered probe heals it back to the front without counting
        // as a relayed request; a relay counts.
        m.mark(0, 0, Exchange::Alive);
        assert_eq!(m.replica_order(0)[0].0, 0);
        assert_eq!(m.health_snapshot()[0][0].forwarded, 0);
        m.mark(0, 0, Exchange::Relayed);
        let snap = m.health_snapshot();
        assert_eq!(snap[0][0].failures, 1);
        assert_eq!(snap[0][0].forwarded, 1);
        assert!(snap[0][0].healthy);
    }

    #[test]
    fn shed_window_is_sized_by_the_hint_and_drains() {
        let m = map(2, 1);
        assert_eq!(m.take_shed(0), None, "no window armed");
        m.arm_shed(0, 8, 32);
        assert_eq!(m.take_shed(0), Some((8, 32)));
        assert_eq!(m.take_shed(0), Some((8, 32)));
        assert_eq!(m.take_shed(0), None, "32/16 = 2 slots, then forward");
        assert_eq!(m.take_shed(1), None, "windows are per shard");
    }
}
