//! Runtime lock-rank tracker: the dynamic complement of `flexsp-lint`'s
//! static `lock-order` rule.
//!
//! Every ranked acquisition site in the arbiter (queue, shard state,
//! fairness stripe, publish slot) takes a [`RankToken`] alongside its
//! mutex guard. In debug builds (`debug_assertions`) the token pushes the
//! acquired rank onto a thread-local stack and panics if the new rank is
//! not strictly above everything already held — with the one legal
//! exception of shard locks taken in ascending index order. In release
//! builds the tracker compiles to nothing.
//!
//! The required order (documented in `shard.rs`, machine-checked
//! statically by `flexsp-lint` rule `lock-order`):
//!
//! > queue → shards (ascending) → fairness stripe → publish slot
//!
//! Because the check is per-thread and fires at acquisition time, the
//! existing proptest/chaos suites (which hammer the arbiter from many
//! threads in debug mode) double as a lock-order race detector: any
//! interleaving that reaches an out-of-order acquisition aborts the test
//! with both ranks named, instead of deadlocking some later run.
//!
//! It sees what the static rule cannot: a lock taken inside a closure
//! that runs under another lock (say, a shard lock inside a
//! `with_counters` closure, which runs under a fairness stripe), and
//! shards locked in descending order. It misses what no test runs, and
//! any mutex locked without a rank token (a raw `queue.lock()`, a new
//! unranked mutex), which only the static rule flags. A `LedgerGuard`
//! holds the queue token and every shard token until it drops.

/// Lock ranks as (major, minor) pairs ordered lexicographically. The
/// minor component is only meaningful for shards, where it is the shard
/// index: equal-major acquisitions are legal for shards if strictly
/// ascending, and illegal otherwise (the same queue/stripe/slot rank may
/// never be re-entered).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Rank {
    major: u8,
    minor: u32,
}

/// The admission queue mutex.
pub(crate) const QUEUE: Rank = Rank { major: 1, minor: 0 };
/// A fairness-stripe mutex.
pub(crate) const STRIPE: Rank = Rank { major: 3, minor: 0 };
/// A `Published` pointer-swap slot.
pub(crate) const PUBLISH: Rank = Rank { major: 4, minor: 0 };

/// Shard `idx`'s state mutex.
pub(crate) fn shard(idx: usize) -> Rank {
    Rank {
        major: 2,
        minor: idx as u32,
    }
}

impl Rank {
    /// Human-readable name for violation panics (debug builds only).
    #[cfg(debug_assertions)]
    fn name(self) -> String {
        match self.major {
            1 => "queue".into(),
            2 => format!("shard {}", self.minor),
            3 => "fairness stripe".into(),
            _ => "publish slot".into(),
        }
    }
}

#[cfg(debug_assertions)]
mod imp {
    use super::Rank;
    use std::cell::RefCell;

    thread_local! {
        /// Ranks currently held by this thread, in acquisition order.
        static HELD: RefCell<Vec<Rank>> = const { RefCell::new(Vec::new()) };
    }

    /// RAII witness of one ranked acquisition. Dropping it releases the
    /// rank (out of order is fine: guards and tokens may be dismantled in
    /// any order, the stack removes the matching entry).
    #[derive(Debug)]
    pub(crate) struct RankToken {
        rank: Rank,
    }

    /// Record the acquisition of `rank`, panicking if any rank already
    /// held by this thread is `>=` it (shards excepted: a shard rank may
    /// follow a lower shard rank — ascending index order).
    #[track_caller]
    pub(crate) fn acquire(rank: Rank) -> RankToken {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(&top) = held.iter().max() {
                if rank <= top {
                    panic!(
                        "lock-order violation: acquiring the {} lock while holding the {} \
                         lock (required order: queue → shards ascending → fairness stripe \
                         → publish slot; see docs/ARCHITECTURE.md#static-analysis--concurrency-contracts)",
                        rank.name(),
                        top.name(),
                    );
                }
            }
            held.push(rank);
        });
        RankToken { rank }
    }

    impl Drop for RankToken {
        fn drop(&mut self) {
            HELD.with(|held| {
                let mut held = held.borrow_mut();
                if let Some(pos) = held.iter().rposition(|&r| r == self.rank) {
                    held.remove(pos);
                }
            });
        }
    }
}

#[cfg(not(debug_assertions))]
mod imp {
    use super::Rank;

    /// Zero-sized no-op in release builds.
    #[derive(Debug)]
    pub(crate) struct RankToken;

    #[inline(always)]
    pub(crate) fn acquire(rank: Rank) -> RankToken {
        let _ = rank;
        RankToken
    }
}

pub(crate) use imp::{acquire, RankToken};

#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;

    #[test]
    fn ascending_order_is_legal() {
        let _q = acquire(QUEUE);
        let _s0 = acquire(shard(0));
        let _s1 = acquire(shard(1));
        let _f = acquire(STRIPE);
        let _p = acquire(PUBLISH);
    }

    #[test]
    fn reacquire_after_release_is_legal() {
        {
            let _s1 = acquire(shard(1));
        }
        // Tokens released: a lower rank is fine again.
        let _q = acquire(QUEUE);
        let _s0 = acquire(shard(0));
    }

    #[test]
    fn out_of_order_drop_unwinds_cleanly() {
        let q = acquire(QUEUE);
        let s = acquire(shard(3));
        drop(q);
        drop(s);
        let _q2 = acquire(QUEUE);
    }

    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn queue_after_shard_panics() {
        let _s = acquire(shard(0));
        let _q = acquire(QUEUE);
    }

    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn descending_shards_panic() {
        let _s2 = acquire(shard(2));
        let _s1 = acquire(shard(1));
    }

    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn same_stripe_twice_panics() {
        let _a = acquire(STRIPE);
        let _b = acquire(STRIPE);
    }

    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn shard_after_publish_panics() {
        let _p = acquire(PUBLISH);
        let _s = acquire(shard(0));
    }
}
