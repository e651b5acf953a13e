//! Admission policies, priority classes, and per-job fairness accounting.

use std::collections::VecDeque;
use std::fmt;

use flexsp_sim::{NodeSlots, SkuId};

use crate::arbiter::Pending;

/// Which pending job gets freed slots when capacity returns.
///
/// Both policies serve strictly by [`Priority`] first. The admission
/// queue is stored in service order — priority descending, then arrival
/// — and each policy reads it in place: FIFO only ever looks at the
/// front, and best-fit scores the requests that fit, ranking a higher
/// priority class ahead of any slack. With every request at the default
/// priority this reduces to the policy's classic behavior.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Strict service order with head-of-line blocking: the queue's front
    /// request (highest priority, earliest arrival) is granted as soon as
    /// it fits; nothing behind it may jump ahead. Predictable,
    /// starvation-free within a priority class, but fragments capacity
    /// when a large request parks at the front.
    #[default]
    Fifo,
    /// Best fit by SKU class: among the pending requests that fit *right
    /// now*, grant the one leaving the fewest free GPUs in its preferred
    /// class (ties broken by arrival order), repeating until nothing
    /// fits. A request whose preferred class cannot host it entirely is
    /// scored against the whole pool and always ranks behind requests
    /// their class can satisfy — an under-capacity class is no longer an
    /// artificial slack-0 "exact fit". Packs mixed fleets tighter at the
    /// price of possible large-request starvation, which the fairness
    /// counters make observable.
    BestFitSkuClass,
}

impl fmt::Display for AdmissionPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionPolicy::Fifo => write!(f, "fifo"),
            AdmissionPolicy::BestFitSkuClass => write!(f, "best-fit-sku"),
        }
    }
}

/// The index (into `pending`, kept in service order) of the request
/// [`AdmissionPolicy::BestFitSkuClass`] grants next from the free ledger
/// `free`, or `None` when no request fits.
pub(crate) fn best_fit(pending: &VecDeque<Pending>, free: &NodeSlots) -> Option<usize> {
    pending
        .iter()
        .enumerate()
        .filter(|(_, p)| p.request.gpus <= free.total_free())
        .min_by_key(|(i, p)| {
            // Leftover in the preferred class after the grant; a
            // class-less request is scored against the whole pool. A
            // preferred class that cannot host the whole request (free <
            // requested) is *under capacity*: granting would spill across
            // classes, so it must rank behind every request its class can
            // satisfy rather than tie an exact fit at slack 0.
            let (class_short, slack) = match p.request.prefer {
                Some(sku) => {
                    let class_free = free.free_sku_gpus(sku);
                    if class_free < p.request.gpus {
                        (true, free.total_free() - p.request.gpus)
                    } else {
                        (false, class_free - p.request.gpus)
                    }
                }
                None => (false, free.total_free() - p.request.gpus),
            };
            (
                std::cmp::Reverse(p.request.priority),
                class_short,
                slack,
                *i,
            )
        })
        .map(|(i, _)| i)
}

/// Identifier a submitting job chooses for itself; fairness counters are
/// keyed by it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job{}", self.0)
    }
}

/// Priority class of a lease request: higher values are admitted first
/// and may **preempt** strictly lower ones (the arbiter demands a shrink
/// from the lowest-priority lease holders when a higher-priority request
/// cannot be admitted). The default — [`Priority::LOW`], 0 — reproduces
/// the priority-less arbiter exactly: equal-priority requests never
/// preempt each other.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Priority(pub u8);

impl Priority {
    /// The default, lowest class: batch / best-effort work.
    pub const LOW: Priority = Priority(0);
    /// Deadline or interactive work: admitted ahead of `LOW` and able to
    /// reclaim capacity from it.
    pub const HIGH: Priority = Priority(128);
    /// Cluster-critical work: preempts everything below.
    pub const CRITICAL: Priority = Priority(255);
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A job's resource ask: how many GPUs, optionally pinned-by-preference
/// to a SKU class (the draw spills to other classes only under
/// scarcity, exactly like the placement engine's SKU affinity), at a
/// [`Priority`], optionally time-bounded by a lease term.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotRequest {
    /// The requesting job.
    pub job: JobId,
    /// GPUs requested.
    pub gpus: u32,
    /// Preferred SKU class (`None` = fastest-first draw).
    pub prefer: Option<SkuId>,
    /// Priority class (default [`Priority::LOW`]).
    pub priority: Priority,
    /// Lease term in logical-clock ticks: the lease lapses `term` ticks
    /// after grant unless renewed, and the next maintenance pass of a
    /// [`MaintenancePump`](crate::MaintenancePump) reaps its slots.
    /// `None` = the lease lives until dropped (the pre-term behavior).
    pub term: Option<u64>,
}

impl SlotRequest {
    /// A class-less request at the default priority, with no term.
    pub fn new(job: JobId, gpus: u32) -> Self {
        Self {
            job,
            gpus,
            prefer: None,
            priority: Priority::LOW,
            term: None,
        }
    }

    /// The same request preferring SKU class `sku`.
    pub fn preferring(mut self, sku: SkuId) -> Self {
        self.prefer = Some(sku);
        self
    }

    /// The same request at priority `priority`.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// The same request with a lease term of `ticks` logical-clock
    /// ticks. A granted lease expires `ticks` after grant (each renew
    /// restarts the term) and is reaped arbiter-side — so a crashed or
    /// leaked tenant cannot pin its slots forever.
    pub fn with_term(mut self, ticks: u64) -> Self {
        self.term = Some(ticks);
        self
    }
}

/// Per-job fairness counters: how often a job asked, waited, was granted,
/// gave back, and was forcibly relieved — the observable record admission
/// and preemption tuning works from.
///
/// Conservation law: per job, `gpus_granted − gpus_released − gpus_moved`
/// always equals the GPUs its live leases currently hold — voluntary
/// give-backs (drops, cooperative shrinks, cancels) count in
/// `gpus_released`, forced reclaims (grace-expired revocations, term
/// reaping) in `gpus_moved`, and never both.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobCounters {
    /// Lease requests submitted (immediate or queued).
    pub requested: u64,
    /// Leases granted.
    pub granted: u64,
    /// Immediate requests denied for lack of capacity.
    pub denied: u64,
    /// Leases released (drops and shrinks both count their GPUs below).
    pub released: u64,
    /// Total GPUs ever granted to the job (grants + grows).
    pub gpus_granted: u64,
    /// Total GPUs ever returned **voluntarily** by the job (drops,
    /// cooperative shrinks, cancelled grants).
    pub gpus_released: u64,
    /// Total GPUs the arbiter took back **by force**: grace-expired
    /// revocations and expired-term reaping. Disjoint from
    /// `gpus_released` — a forced reclaim is capacity moved by the
    /// arbiter, not returned by the tenant.
    pub gpus_moved: u64,
    /// Grants to other requests that the job's queued requests sat
    /// through while waiting, summed over its requests (a growing gap
    /// versus other jobs' `granted` is starvation).
    pub wait_rounds: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbiter::Pending;
    use flexsp_sim::{GpuId, NodeSpec, Topology};

    fn pending(job: u64, gpus: u32, prefer: Option<SkuId>) -> Pending {
        Pending {
            ticket: job,
            request: match prefer {
                Some(sku) => SlotRequest::new(JobId(job), gpus).preferring(sku),
                None => SlotRequest::new(JobId(job), gpus),
            },
        }
    }

    #[test]
    fn best_fit_ranks_priority_ahead_of_slack() {
        let topo = Topology::new(1, 8);
        let free = NodeSlots::new(&topo);
        // Service order puts the later high-priority request first, and
        // it wins although the earlier low-priority one fits exactly.
        let mut high = pending(1, 4, None);
        high.request = high.request.with_priority(Priority::HIGH);
        let mut queue = VecDeque::from([high, pending(0, 8, None)]);
        assert_eq!(best_fit(&queue, &free), Some(0));
        // A higher class only competes once it fits.
        queue[0].request.gpus = 16;
        assert_eq!(best_fit(&queue, &free), Some(1));
    }

    #[test]
    fn best_fit_matches_class_slack() {
        let topo =
            Topology::from_nodes(vec![NodeSpec::new(8, SkuId(0)), NodeSpec::new(8, SkuId(1))]);
        let free = NodeSlots::new(&topo);
        // 8 GPUs free in each class. The fast-class request is an exact
        // fit for its class; the class-less request would leave slack.
        let queue = VecDeque::from([pending(0, 4, None), pending(1, 8, Some(SkuId(0)))]);
        assert_eq!(best_fit(&queue, &free), Some(1));
        // Ties (equal leftover) go to arrival order.
        let queue = VecDeque::from([pending(0, 8, Some(SkuId(1))), pending(1, 8, Some(SkuId(0)))]);
        assert_eq!(best_fit(&queue, &free), Some(0));
        // Unlike FIFO, a too-large front does not block the queue.
        let queue = VecDeque::from([pending(0, 32, None), pending(1, 4, None)]);
        assert_eq!(best_fit(&queue, &free), Some(1));
    }

    #[test]
    fn under_capacity_class_never_ties_an_exact_fit() {
        // Regression: `class_free.saturating_sub(gpus)` scored a request
        // whose preferred class was *short* (free < requested) at slack
        // 0, tying — and by arrival order beating — a genuine exact fit.
        let topo =
            Topology::from_nodes(vec![NodeSpec::new(8, SkuId(0)), NodeSpec::new(4, SkuId(1))]);
        let mut free = NodeSlots::new(&topo);
        // Class 1 has only 4 free; a request for 8 preferring it would
        // spill into class 0.
        let queue = VecDeque::from([pending(0, 8, Some(SkuId(1))), pending(1, 8, Some(SkuId(0)))]);
        assert_eq!(
            best_fit(&queue, &free),
            Some(1),
            "the exact class fit must beat the under-capacity class"
        );
        // With no class-satisfiable competitor, the short request is
        // still grantable (scored against the whole pool).
        let queue = VecDeque::from([pending(0, 8, Some(SkuId(1)))]);
        assert_eq!(best_fit(&queue, &free), Some(0));
        // And once its class genuinely cannot be part of any grant (the
        // whole pool is short), it is not granted at all.
        let taken: Vec<GpuId> = free.take_packed(8).unwrap().gpus().to_vec();
        assert_eq!(taken.len(), 8);
        let queue = VecDeque::from([pending(0, 8, Some(SkuId(1)))]);
        assert_eq!(best_fit(&queue, &free), None);
    }
}
