//! Ledger shards: the arbiter's free/busy state split by contiguous node
//! range, each slice behind its own lock, each publishing an immutable
//! epoch-stamped snapshot for the read path, which never waits on the
//! queue lock or a shard lock.
//!
//! # Lock ordering
//!
//! Every multi-lock path in the crate acquires in this global order and
//! never in reverse:
//!
//! 1. the **admission queue** lock (`QueueState`),
//! 2. **shard** locks in ascending shard index (a subset is fine, but
//!    always ascending),
//! 3. a **fairness stripe** lock (held only for one counter bump),
//! 4. a snapshot **publish slot** (held only for one pointer swap).
//!
//! Single-shard fast paths take exactly one shard lock. Every other
//! ledger change runs under one `LedgerGuard` (in `arbiter.rs`): the
//! queue lock plus every shard lock in index order, which is
//! deadlock-free by construction.
//!
//! # Derived state
//!
//! [`ShardState::put`] and [`ShardState::take`] are the only writers of a
//! shard's lease records, and they keep its demand count exact. The
//! shard's gauges (free GPUs, live leases, standing demands) are stored
//! only by `Inner::publish`, with the snapshot, so no operation
//! maintains a gauge by hand.
//!
//! Two checks enforce this order, and each catches cases the other
//! misses. `flexsp-lint`'s `lock-order` rule reads every acquisition
//! site in this crate against the ranks above (with call summaries, so a
//! helper that locks a shard propagates its rank to callers, and a
//! helper returning a `*Guard` type holds its ranks while its result is
//! bound). It catches raw or unranked locks and untested branches, but
//! not a lock taken inside a closure that runs under another lock, nor
//! the order of a loop's shard locks. The `debug_assertions`-gated
//! tracker in [`crate::rank`] panics on those at runtime, but only on
//! paths a test runs and only for locks taken through a ranked wrapper.
//! See `docs/ARCHITECTURE.md#static-analysis--concurrency-contracts`.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use flexsp_sim::{GpuId, NodeSlots, Topology};

use crate::arbiter::ShrinkDemand;
use crate::policy::{JobId, Priority};
use crate::rank;

/// A copy-on-write publication cell: writers swap in a fresh `Arc<T>`
/// while readers clone the current one. The internal mutex is held only
/// for the pointer copy itself — never across ledger work — so a reader
/// can always complete in nanoseconds even while a shard lock is held
/// through an entire grant or maintenance pass. (This is the `ArcSwap`
/// idiom built from `std`, since the crate forbids `unsafe`. An `RwLock`
/// would buy nothing here: no holder keeps the lock past one pointer
/// copy.)
#[derive(Debug)]
pub(crate) struct Published<T> {
    slot: Mutex<Arc<T>>,
}

impl<T> Published<T> {
    pub(crate) fn new(value: T) -> Self {
        Self {
            slot: Mutex::new(Arc::new(value)),
        }
    }

    /// The current snapshot. Takes the slot mutex, which every holder
    /// keeps only for one pointer copy or swap, and no other lock.
    pub(crate) fn load(&self) -> Arc<T> {
        let _rank = rank::acquire(rank::PUBLISH);
        // lint: allow(lock) pointer-copy-only ArcSwap idiom; rank "publish slot"
        Arc::clone(&self.slot.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Publishes a new snapshot.
    pub(crate) fn store(&self, value: Arc<T>) {
        let _rank = rank::acquire(rank::PUBLISH);
        // lint: allow(lock) pointer-swap-only ArcSwap idiom; rank "publish slot"
        *self.slot.lock().unwrap_or_else(PoisonError::into_inner) = value;
    }
}

/// The immutable, shareable view of one live lease. The shard map holds
/// these behind `Arc`s and every mutation replaces the `Arc` wholesale
/// (copy-on-write), so published snapshots stay internally consistent
/// forever at zero read-side cost.
#[derive(Debug, Clone)]
pub(crate) struct LeaseView {
    /// Owned slots, ascending — canonical; forced shrinks replace this.
    pub(crate) gpus: Vec<GpuId>,
    pub(crate) job: JobId,
    pub(crate) priority: Priority,
    /// Renewal length in ticks (`None` = no term).
    pub(crate) term: Option<u64>,
    /// Logical time the lease lapses unless renewed.
    pub(crate) expires_at: Option<u64>,
    /// Pending arbiter-initiated shrink, if any.
    pub(crate) demand: Option<ShrinkDemand>,
    /// Ledger epoch at the last mutation touching this lease; handles
    /// re-stamp themselves from it on sync.
    pub(crate) stamp: u64,
}

/// Mutable state of one shard, behind the shard lock: the slice of the
/// free ledger its node range owns, plus every live lease *homed* here
/// (a lease's home is the shard of its lowest GPU; a spanning lease's
/// record lives in one place even though its slots touch several shards).
#[derive(Debug)]
pub(crate) struct ShardState {
    /// Free slots of this shard's nodes (cluster-global ids).
    pub(crate) free: NodeSlots,
    /// Live leases homed in this shard, by lease id.
    live: HashMap<u64, Arc<LeaseView>>,
    /// How many of `live` carry a shrink demand.
    demanded: u32,
}

impl ShardState {
    /// The live leases homed here, by lease id.
    pub(crate) fn live(&self) -> &HashMap<u64, Arc<LeaseView>> {
        &self.live
    }

    /// How many live leases carry a shrink demand (exact).
    pub(crate) fn demanded(&self) -> u32 {
        self.demanded
    }

    /// Inserts lease `id`'s record, or replaces it (copy-on-write).
    pub(crate) fn put(&mut self, id: u64, view: LeaseView) {
        self.demanded += u32::from(view.demand.is_some());
        if let Some(old) = self.live.insert(id, Arc::new(view)) {
            self.demanded -= u32::from(old.demand.is_some());
        }
    }

    /// Removes lease `id`'s record, if it is still live.
    pub(crate) fn take(&mut self, id: u64) -> Option<Arc<LeaseView>> {
        let old = self.live.remove(&id)?;
        self.demanded -= u32::from(old.demand.is_some());
        Some(old)
    }
}

/// The read-side image of one shard, republished (pointer swap) before
/// the shard lock is released after **every** mutation; readers load it
/// without the shard lock.
#[derive(Debug)]
pub(crate) struct ShardSnapshot {
    /// Global ledger epoch at publication — the snapshot's validity
    /// token: any two reads agreeing on the epoch saw the same ledger.
    pub(crate) epoch: u64,
    /// The shard's free ledger at publication.
    pub(crate) free: NodeSlots,
    /// The leases homed here at publication (cheap: `Arc` clones).
    pub(crate) live: HashMap<u64, Arc<LeaseView>>,
}

/// One ledger shard: a contiguous node range, its lock, its published
/// snapshot, and the gauges published with it. The gauges serve
/// lock-free reads and let writers skip work with nothing to do; summed
/// over shards they are exact whenever no mutation is mid-flight.
#[derive(Debug)]
pub(crate) struct Shard {
    /// The nodes this shard owns.
    pub(crate) nodes: Range<u32>,
    pub(crate) state: Mutex<ShardState>,
    pub(crate) snap: Published<ShardSnapshot>,
    /// Free GPUs in this shard — a hint for picking a grant candidate
    /// without touching any lock; the shard lock re-verifies.
    pub(crate) free_count: AtomicU32,
    /// Live leases homed here.
    pub(crate) live_count: AtomicU32,
    /// Live leases homed here that carry a shrink demand.
    pub(crate) demanded_count: AtomicU32,
}

impl Shard {
    pub(crate) fn new(topo: &Topology, nodes: Range<u32>) -> Self {
        let free = NodeSlots::restricted_to_nodes(topo, nodes.clone());
        let count = free.total_free();
        Self {
            nodes,
            snap: Published::new(ShardSnapshot {
                epoch: 0,
                free: free.clone(),
                live: HashMap::new(),
            }),
            state: Mutex::new(ShardState {
                free,
                live: HashMap::new(),
                demanded: 0,
            }),
            free_count: AtomicU32::new(count),
            live_count: AtomicU32::new(0),
            demanded_count: AtomicU32::new(0),
        }
    }
}

/// Partitions `num_nodes` nodes into `shards` contiguous, near-even
/// ranges (the first `num_nodes % shards` ranges get one extra node).
pub(crate) fn partition_nodes(num_nodes: u32, shards: u32) -> Vec<Range<u32>> {
    let shards = shards.clamp(1, num_nodes.max(1));
    let base = num_nodes / shards;
    let extra = num_nodes % shards;
    let mut ranges = Vec::with_capacity(shards as usize);
    let mut start = 0;
    for i in 0..shards {
        let width = base + u32::from(i < extra);
        ranges.push(start..start + width);
        start += width;
    }
    debug_assert_eq!(start, num_nodes);
    ranges
}

/// Relaxed is enough for the gauges: they are hints re-verified under
/// the shard lock, and exact values are only asserted by `audit`, which
/// holds every lock.
pub(crate) const GAUGE: Ordering = Ordering::Relaxed;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitions_are_contiguous_and_cover_all_nodes() {
        for (nodes, shards) in [(1u32, 1u32), (4, 1), (7, 3), (8, 8), (1000, 64), (3, 9)] {
            let ranges = partition_nodes(nodes, shards);
            assert!(ranges.len() as u32 <= shards.max(1));
            assert_eq!(ranges.first().unwrap().start, 0);
            assert_eq!(ranges.last().unwrap().end, nodes);
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start, "{nodes}/{shards}");
                assert!(!w[0].is_empty());
            }
            // Near-even: widths differ by at most one.
            let widths: Vec<u32> = ranges.iter().map(|r| r.end - r.start).collect();
            let (lo, hi) = (widths.iter().min().unwrap(), widths.iter().max().unwrap());
            assert!(hi - lo <= 1, "{widths:?}");
        }
    }

    #[test]
    fn published_readers_see_the_latest_store() {
        let p = Published::new(1u64);
        assert_eq!(*p.load(), 1);
        let held = p.load();
        p.store(Arc::new(2));
        assert_eq!(*p.load(), 2);
        assert_eq!(*held, 1, "old snapshots stay valid for their holders");
    }
}
