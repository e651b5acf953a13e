//! The cluster arbiter: the canonical free/busy slot ledger one cluster's
//! concurrent jobs share, with epoch counting, queued admission, lease
//! terms, and priority preemption — scaled out as a **sharded** concurrent
//! subsystem: the ledger is split by node range behind per-shard locks,
//! reads serve from lock-free published snapshots, and admission runs in
//! batched priority-sorted waves (see [`crate::shard`] for the lock
//! ordering rule every path follows).

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use flexsp_sim::{ClusterSpec, GpuId, NodeSlots, SkuId, Topology};
use flexsp_telemetry as tel;
use flexsp_telemetry::Counter;

use crate::clock::{Clock, LogicalClock};
use crate::lease::Lease;
use crate::policy::{AdmissionPolicy, JobCounters, JobId, Priority, SlotRequest};
use crate::rank;
use crate::shard::{partition_nodes, LeaseView, Shard, ShardSnapshot, ShardState, GAUGE};

/// The admission-queue guard plus its lock-rank token. The token field is
/// declared after the guard so the rank is released only once the mutex
/// guard itself has been dropped.
pub(crate) struct QueueGuard<'a> {
    guard: MutexGuard<'a, QueueState>,
    _rank: rank::RankToken,
}

impl std::ops::Deref for QueueGuard<'_> {
    type Target = QueueState;
    fn deref(&self) -> &QueueState {
        &self.guard
    }
}

impl std::ops::DerefMut for QueueGuard<'_> {
    fn deref_mut(&mut self) -> &mut QueueState {
        &mut self.guard
    }
}

/// One shard-state guard plus its lock-rank token.
pub(crate) struct ShardGuard<'a> {
    guard: MutexGuard<'a, ShardState>,
    _rank: rank::RankToken,
}

impl std::ops::Deref for ShardGuard<'_> {
    type Target = ShardState;
    fn deref(&self) -> &ShardState {
        &self.guard
    }
}

impl std::ops::DerefMut for ShardGuard<'_> {
    fn deref_mut(&mut self) -> &mut ShardState {
        &mut self.guard
    }
}

/// Every shard's guard (ascending order) plus their rank tokens. Derefs
/// to the guard vector.
pub(crate) struct ShardGuards<'a> {
    guards: Vec<MutexGuard<'a, ShardState>>,
    _ranks: Vec<rank::RankToken>,
}

impl<'a> std::ops::Deref for ShardGuards<'a> {
    type Target = Vec<MutexGuard<'a, ShardState>>;
    fn deref(&self) -> &Self::Target {
        &self.guards
    }
}

impl std::ops::DerefMut for ShardGuards<'_> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.guards
    }
}

/// Rejected or failed lease operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LeaseError {
    /// The request asks for zero GPUs, or more than the cluster has.
    Unsatisfiable {
        /// GPUs requested.
        requested: u32,
        /// GPUs the whole cluster owns.
        cluster: u32,
    },
    /// Not enough free GPUs right now (queue with
    /// [`ClusterArbiter::request`] instead of retrying).
    Busy {
        /// GPUs requested.
        requested: u32,
        /// GPUs currently free.
        free: u32,
    },
    /// A shrink asked to give back more GPUs than the lease holds.
    ShrinkTooLarge {
        /// GPUs the shrink wanted to release.
        requested: u32,
        /// GPUs the lease holds.
        held: u32,
    },
    /// The lease no longer exists arbiter-side: its term lapsed or a
    /// revocation reclaimed it entirely. Its slots are already back in
    /// the pool; the handle is inert.
    Lapsed,
}

impl fmt::Display for LeaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LeaseError::Unsatisfiable { requested, cluster } => {
                write!(f, "{requested} GPUs can never fit a {cluster}-GPU cluster")
            }
            LeaseError::Busy { requested, free } => {
                write!(f, "{requested} GPUs requested but only {free} free")
            }
            LeaseError::ShrinkTooLarge { requested, held } => {
                write!(f, "cannot release {requested} of {held} held GPUs")
            }
            LeaseError::Lapsed => {
                write!(f, "the lease lapsed (term expired or fully revoked)")
            }
        }
    }
}

impl std::error::Error for LeaseError {}

/// A queued lease request: claim the lease with
/// [`ClusterArbiter::claim`] once capacity frees up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ticket {
    pub(crate) id: u64,
    /// The job that queued the request.
    pub job: JobId,
}

/// One queued request (ticket id + ask), in arrival order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Pending {
    pub(crate) ticket: u64,
    pub(crate) request: SlotRequest,
}

/// An arbiter-initiated shrink demand against a lease: give back `gpus`
/// GPUs by logical time `deadline`, or the arbiter force-reclaims them.
///
/// Tenants observe the demand via [`Lease::pending_demand`] and comply
/// gracefully with [`Lease::shrink`] (a shrink of at least `gpus` clears
/// the demand); ignoring it costs the same GPUs at the deadline, picked
/// by the arbiter (emptiest-node-first, so the survivor stays packed),
/// and counted as `gpus_moved` rather than a voluntary release.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShrinkDemand {
    /// GPUs demanded back.
    pub gpus: u32,
    /// Logical time at which the arbiter force-reclaims.
    pub deadline: u64,
}

/// What one maintenance pass — a
/// [`MaintenancePump::poll`](crate::MaintenancePump::poll) that found a
/// deadline due — did, per affected job: leases reaped because their
/// term lapsed, demands force-executed after their grace window, and
/// fresh shrink demands issued (each entry is `(job, gpus)`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TickReport {
    /// Leases reaped because their term expired without a renew.
    pub expired: Vec<(JobId, u32)>,
    /// Demands force-executed after their grace deadline passed.
    pub reclaimed: Vec<(JobId, u32)>,
    /// Fresh shrink demands issued this pass.
    pub demanded: Vec<(JobId, u32)>,
}

impl TickReport {
    /// True if the pass changed nothing (no reaps, reclaims, or demands)
    /// — the guaranteed outcome on an arbiter whose leases carry no
    /// priorities or terms, and of any pass when no deadline is due.
    pub fn is_quiet(&self) -> bool {
        self.expired.is_empty() && self.reclaimed.is_empty() && self.demanded.is_empty()
    }
}

/// Cheap operational counters of the arbiter, served entirely from
/// atomics and published gauges — reading them never takes the admission
/// queue lock or any shard lock, so monitoring can poll at any rate
/// without perturbing grants.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArbiterStats {
    /// Leases ever granted (immediate and queued).
    pub grants: u64,
    /// Immediate requests denied for lack of capacity.
    pub denials: u64,
    /// Forced whole-lease reclaims: term reaping plus whole-lease
    /// revocations (cancels and voluntary drops are not reaps).
    pub reaps: u64,
    /// Total GPUs the arbiter ever took back by force (reaps plus
    /// partial grace-expired revocations).
    pub gpus_moved: u64,
    /// Queued requests currently waiting.
    pub queue_depth: usize,
    /// Live leases (granted and not yet released), including unclaimed
    /// grants.
    pub live_leases: usize,
    /// GPUs currently free.
    pub free_gpus: u32,
    /// Current ledger epoch.
    pub epoch: u64,
}

/// Picks `count` victims from `gpus` for a shrink: emptiest node (fewest
/// of the lease's GPUs) first, highest ids within a node — whole
/// sparsely-held nodes drain before densely-held ones are touched, so
/// the survivor stays concentrated where the lease already packs
/// densest and its realized span never widens.
pub(crate) fn select_victims(topo: &Topology, gpus: &[GpuId], count: u32) -> Vec<GpuId> {
    let mut by_node: BTreeMap<u32, Vec<GpuId>> = BTreeMap::new();
    for &g in gpus {
        by_node.entry(topo.node_of(g)).or_default().push(g);
    }
    let mut nodes: Vec<(u32, Vec<GpuId>)> = by_node.into_iter().collect();
    nodes.sort_by_key(|(n, held)| (held.len(), *n));
    let mut victims: Vec<GpuId> = Vec::with_capacity(count as usize);
    for (_, mut held) in nodes {
        held.sort_unstable();
        while victims.len() < count as usize {
            match held.pop() {
                Some(g) => victims.push(g),
                None => break,
            }
        }
        if victims.len() == count as usize {
            break;
        }
    }
    victims
}

/// Fairness counters are striped across this many independently locked
/// maps (keyed by `job id % stripes`) so per-job counter bumps from
/// different shards' grant paths rarely contend.
const FAIRNESS_STRIPES: usize = 16;

/// The admission queue: every *queued* request flows through this single
/// small lock, while the ledger itself lives in the shards.
#[derive(Debug)]
pub(crate) struct QueueState {
    /// Queued requests, arrival order.
    pub(crate) pending: VecDeque<Pending>,
    /// Granted-but-unclaimed queued requests:
    /// ticket id → (ask, lease id, home shard).
    pub(crate) granted: HashMap<u64, (SlotRequest, u64, usize)>,
    pub(crate) policy: AdmissionPolicy,
    next_ticket: u64,
}

/// What a grant registered: the lease id, its home shard (the shard of
/// its lowest GPU — where its record lives), the drawn slots (ascending),
/// and the epoch it was stamped at.
pub(crate) struct GrantOut {
    pub(crate) id: u64,
    pub(crate) home: usize,
    pub(crate) gpus: Vec<GpuId>,
    pub(crate) epoch: u64,
}

/// The shared, sharded arbiter state. See [`crate::shard`] for the lock
/// ordering rule: queue → shard locks ascending → fairness stripe →
/// publish slot.
#[derive(Debug)]
pub(crate) struct Inner {
    pub(crate) topo: Topology,
    /// The ledger shards (disjoint contiguous node ranges).
    pub(crate) shards: Box<[Shard]>,
    /// node index → owning shard index.
    node_shard: Vec<usize>,
    /// Bumped on **every** ledger mutation (grant, release, grow,
    /// shrink, renew, forced reclaim, reap): lease fingerprints embed
    /// it, so any plan cached under an older epoch can never be
    /// replayed. This is also the snapshot validity token.
    pub(crate) epoch: AtomicU64,
    pub(crate) queue: Mutex<QueueState>,
    fairness: Box<[Mutex<BTreeMap<JobId, JobCounters>>]>,
    next_lease: AtomicU64,
    /// Grace window, in ticks, between a shrink demand and its forced
    /// execution.
    pub(crate) grace: AtomicU64,
    /// Queue depth, for lock-free reads and for skipping settles with
    /// nothing to admit; stored whenever a [`LedgerGuard`] drops. (The
    /// ledger's gauges live in its shards; see [`Inner::publish`].)
    pub(crate) pending_count: AtomicUsize,
    /// Bumped by every shard publication *after* its snapshot is stored
    /// — the `MaintenancePump`'s rescan gate. The epoch cannot serve:
    /// mutations bump it before they publish, and demand changes
    /// republish without bumping it at all.
    pub(crate) publish_seq: AtomicU64,
    stat_grants: Counter,
    stat_denials: Counter,
    stat_reaps: Counter,
    stat_gpus_moved: Counter,
}

impl Inner {
    /// The shard owning `gpu`'s node.
    pub(crate) fn shard_of(&self, gpu: GpuId) -> usize {
        self.node_shard[self.topo.node_of(gpu) as usize]
    }

    /// Locks the admission queue (rank 1 — first in the lock order).
    pub(crate) fn lock_queue(&self) -> QueueGuard<'_> {
        let token = rank::acquire(rank::QUEUE);
        QueueGuard {
            guard: self.queue.lock().unwrap_or_else(PoisonError::into_inner),
            _rank: token,
        }
    }

    /// Locks one shard's state (rank 2, minor = shard index).
    pub(crate) fn lock_shard(&self, idx: usize) -> ShardGuard<'_> {
        let token = rank::acquire(rank::shard(idx));
        ShardGuard {
            guard: self.shards[idx]
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
            _rank: token,
        }
    }

    /// Locks every shard, ascending — the only multi-shard order allowed.
    pub(crate) fn lock_shards(&self) -> ShardGuards<'_> {
        let mut guards = Vec::with_capacity(self.shards.len());
        let mut ranks = Vec::with_capacity(self.shards.len());
        for (i, s) in self.shards.iter().enumerate() {
            ranks.push(rank::acquire(rank::shard(i)));
            guards.push(s.state.lock().unwrap_or_else(PoisonError::into_inner));
        }
        ShardGuards {
            guards,
            _ranks: ranks,
        }
    }

    /// Bumps the global epoch, returning the new value.
    pub(crate) fn bump_epoch(&self) -> u64 {
        self.epoch.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Runs `f` against `job`'s fairness counters under its stripe lock
    /// (held only for the bump — last in the lock order).
    pub(crate) fn with_counters<R>(&self, job: JobId, f: impl FnOnce(&mut JobCounters) -> R) -> R {
        let _rank = rank::acquire(rank::STRIPE);
        let mut map = self.fairness[(job.0 as usize) % FAIRNESS_STRIPES]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        f(map.entry(job).or_default())
    }

    /// One per-shard gauge summed over the shards (lock-free; exact when
    /// no mutation is mid-flight).
    pub(crate) fn summed(&self, gauge: impl Fn(&Shard) -> &AtomicU32) -> u32 {
        self.shards.iter().map(|s| gauge(s).load(GAUGE)).sum()
    }

    /// Publishes shard `idx`'s snapshot and gauges from its locked state.
    /// Must run before the shard lock is released after **every**
    /// mutation — the read path depends on it.
    pub(crate) fn publish(&self, idx: usize, state: &ShardState) {
        let shard = &self.shards[idx];
        shard.free_count.store(state.free.total_free(), GAUGE);
        shard.live_count.store(state.live().len() as u32, GAUGE);
        shard.demanded_count.store(state.demanded(), GAUGE);
        shard.snap.store(Arc::new(ShardSnapshot {
            epoch: self.epoch.load(Ordering::SeqCst),
            free: state.free.clone(),
            live: state.live().clone(),
        }));
        self.publish_seq.fetch_add(1, Ordering::Release);
    }

    /// Registers a freshly drawn grant in `state` (the home shard's):
    /// assigns the lease id, bumps the epoch, inserts the live view, and
    /// bumps the grant counters. `gpus` are the drawn slots.
    fn register(
        &self,
        state: &mut ShardState,
        home: usize,
        request: &SlotRequest,
        now: u64,
        mut gpus: Vec<GpuId>,
    ) -> GrantOut {
        gpus.sort_unstable();
        let id = self.next_lease.fetch_add(1, Ordering::Relaxed);
        let epoch = self.bump_epoch();
        state.put(
            id,
            LeaseView {
                gpus: gpus.clone(),
                job: request.job,
                priority: request.priority,
                term: request.term,
                expires_at: request.term.map(|t| now + t),
                demand: None,
                stamp: epoch,
            },
        );
        self.stat_grants.inc();
        self.with_counters(request.job, |c| {
            c.granted += 1;
            c.gpus_granted += request.gpus as u64;
        });
        GrantOut {
            id,
            home,
            gpus,
            epoch,
        }
    }

    /// Draws `request` entirely from one locked shard's free ledger (the
    /// single-shard fast path). `None` if the shard cannot host it.
    pub(crate) fn grant_single(
        &self,
        idx: usize,
        state: &mut ShardState,
        request: &SlotRequest,
        now: u64,
    ) -> Option<GrantOut> {
        let group = match request.prefer {
            Some(sku) => state.free.take_packed_for(request.gpus, sku),
            None => state.free.take_packed(request.gpus),
        }?;
        let gpus = group.gpus().to_vec();
        Some(self.register(state, idx, request, now, gpus))
    }
}

/// The whole ledger, locked for one multi-shard change: the queue lock,
/// then every shard lock ascending, plus the cluster-wide free pool
/// merged from the shards once at [`LedgerGuard::lock`]. Every change
/// goes through its methods, which keep the merged pool in step with
/// the shards and note which shards they touched. Dropping the guard
/// publishes exactly those shards and the queue depth, before any lock
/// is released.
pub(crate) struct LedgerGuard<'a> {
    inner: &'a Inner,
    // Field order is drop order: the shard locks go before the queue's.
    shards: ShardGuards<'a>,
    pub(crate) q: QueueGuard<'a>,
    merged: NodeSlots,
    touched: Vec<bool>,
}

impl<'a> LedgerGuard<'a> {
    /// Takes the queue lock, then every shard lock ascending, and merges
    /// the shards' free ledgers.
    pub(crate) fn lock(inner: &'a Inner) -> LedgerGuard<'a> {
        let q = inner.lock_queue();
        let shards = inner.lock_shards();
        let mut all: Vec<GpuId> = Vec::with_capacity(inner.topo.num_gpus() as usize);
        for g in shards.iter() {
            all.extend(g.free.free_gpus());
        }
        LedgerGuard {
            inner,
            touched: vec![false; shards.len()],
            shards,
            q,
            merged: NodeSlots::restricted_to(&inner.topo, &all),
        }
    }

    /// GPUs free cluster-wide.
    pub(crate) fn free(&self) -> u32 {
        self.merged.total_free()
    }

    /// Lease `id`'s record in shard `home`, if it is still live.
    pub(crate) fn record(&self, home: usize, id: u64) -> Option<Arc<LeaseView>> {
        self.shards[home].live().get(&id).cloned()
    }

    /// Shard `s`, marked for publication when the guard drops.
    fn touch(&mut self, s: usize) -> &mut ShardState {
        self.touched[s] = true;
        &mut self.shards[s]
    }

    /// Inserts or replaces lease `id`'s record in shard `home`.
    pub(crate) fn put(&mut self, home: usize, id: u64, view: LeaseView) {
        self.touch(home).put(id, view);
    }

    /// Takes `count` GPUs from the merged pool (packed, SKU `prefer`
    /// first) and claims them out of their shards. Returns them
    /// ascending, or `None` (nothing taken) if fewer are free.
    pub(crate) fn draw(&mut self, count: u32, prefer: Option<SkuId>) -> Option<Vec<GpuId>> {
        let group = match prefer {
            Some(sku) => self.merged.take_packed_for(count, sku),
            None => self.merged.take_packed(count),
        }?;
        let mut gpus = group.gpus().to_vec();
        gpus.sort_unstable();
        for &g in &gpus {
            let s = self.inner.shard_of(g);
            self.touch(s).free.claim(std::slice::from_ref(&g));
        }
        Some(gpus)
    }

    /// Returns `gpus` to their shards and to the merged pool.
    pub(crate) fn release(&mut self, gpus: &[GpuId]) {
        for &g in gpus {
            let s = self.inner.shard_of(g);
            self.touch(s).free.release(std::slice::from_ref(&g));
        }
        self.merged.release(gpus);
    }

    /// Removes lease `id` from shard `home` whole: its GPUs go back to
    /// the pool and the epoch is bumped. `None` if it is already gone.
    pub(crate) fn retire(&mut self, home: usize, id: u64) -> Option<Arc<LeaseView>> {
        let view = self.shards[home].take(id)?;
        self.touched[home] = true;
        self.release(&view.gpus);
        self.inner.bump_epoch();
        Some(view)
    }

    /// Draws `request` from the merged pool (the caller checked it fits)
    /// and registers the grant in the home shard of its lowest GPU.
    pub(crate) fn grant(&mut self, request: &SlotRequest, now: u64) -> GrantOut {
        let gpus = self
            .draw(request.gpus, request.prefer)
            // lint: allow(unwrap) every caller checks the request against this same merged pool under the same locks
            .expect("caller checked the request fits");
        let home = self.inner.shard_of(gpus[0]);
        let inner = self.inner;
        inner.register(self.touch(home), home, request, now, gpus)
    }

    /// `(shard, id)` of every live lease whose record satisfies `pred`,
    /// by lease id (a deterministic order).
    fn leases_where(&self, pred: impl Fn(&LeaseView) -> bool) -> Vec<(usize, u64)> {
        let mut out = Vec::new();
        for (s, g) in self.shards.iter().enumerate() {
            for (&id, v) in g.live() {
                if pred(v) {
                    out.push((s, id));
                }
            }
        }
        out.sort_unstable_by_key(|&(_, id)| id);
        out
    }

    /// Fully reclaims lease `id` by force (term reaping or a whole-lease
    /// revocation): its slots return to the pool, the tenant's counters
    /// record the GPUs as moved, any unclaimed grant of the lease is
    /// dropped. Returns `(job, gpus reclaimed)`.
    fn reclaim_all(&mut self, home: usize, id: u64) -> (JobId, u32) {
        let view = self
            .retire(home, id)
            // lint: allow(unwrap) both callers (reap, revoke) collected the id from these same locked shards
            .expect("caller checked liveness");
        let n = view.gpus.len() as u32;
        self.inner.stat_reaps.inc();
        self.inner.stat_gpus_moved.add(n as u64);
        self.inner
            .with_counters(view.job, |c| c.gpus_moved += n as u64);
        self.q.granted.retain(|_, (_, lid, _)| *lid != id);
        (view.job, n)
    }

    /// Grants queued requests until nothing (more) fits. FIFO admits a
    /// whole **batched wave**: the grant order is fixed up front
    /// (priority descending, arrival ascending — exactly the repeated
    /// effective-front pick) and grants stop at the first non-fit, so
    /// one pass over the queue replaces a re-scan per grant. Best-fit
    /// re-scores after every grant (its rank depends on the ledger), so
    /// it keeps the pick loop. Losers accumulate a wait round per grant
    /// they sat through.
    fn pump(&mut self, now: u64) {
        let inner = self.inner;
        match self.q.policy {
            AdmissionPolicy::Fifo => {
                let mut order: Vec<usize> = (0..self.q.pending.len()).collect();
                order.sort_unstable_by_key(|&i| {
                    (std::cmp::Reverse(self.q.pending[i].request.priority), i)
                });
                let mut granted = vec![false; self.q.pending.len()];
                for &i in &order {
                    let p = self.q.pending[i];
                    if p.request.gpus > self.free() {
                        break; // head-of-line blocking: the front must go first
                    }
                    let out = self.grant(&p.request, now);
                    granted[i] = true;
                    self.q
                        .granted
                        .insert(p.ticket, (p.request, out.id, out.home));
                    for (j, waiting) in self.q.pending.iter().enumerate() {
                        if !granted[j] {
                            inner.with_counters(waiting.request.job, |c| c.wait_rounds += 1);
                        }
                    }
                }
                if granted.iter().any(|&g| g) {
                    let kept: VecDeque<Pending> = self
                        .q
                        .pending
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| !granted[*i])
                        .map(|(_, p)| *p)
                        .collect();
                    self.q.pending = kept;
                }
            }
            AdmissionPolicy::BestFitSkuClass => loop {
                let queue: Vec<Pending> = self.q.pending.iter().copied().collect();
                let Some(idx) = self.q.policy.pick(&queue, &self.merged) else {
                    break;
                };
                // lint: allow(unwrap) `pick` returns an index into the queue snapshot taken two lines up
                let p = self.q.pending.remove(idx).expect("index from the queue");
                let out = self.grant(&p.request, now);
                self.q
                    .granted
                    .insert(p.ticket, (p.request, out.id, out.home));
                for waiting in &self.q.pending {
                    inner.with_counters(waiting.request.job, |c| c.wait_rounds += 1);
                }
            },
        }
    }

    /// Re-evaluates preemption: for the highest-priority pending request
    /// the pump could not admit, issues shrink demands against
    /// strictly-lower-priority lease holders (lowest priority first,
    /// youngest lease first) until the shortfall is covered — but only
    /// when lower-priority holdings *can* cover it, so doomed demands
    /// never thrash tenants without admitting anyone. Demands no longer
    /// justified are withdrawn; persisting demands keep their original
    /// deadline. Returns the freshly issued demands.
    fn enforce(&mut self, now: u64) -> Vec<(JobId, u32)> {
        let mut wanted: HashMap<u64, u32> = HashMap::new();
        if let Some(target) = self
            .q
            .pending
            .iter()
            .enumerate()
            .max_by_key(|(i, p)| (p.request.priority, std::cmp::Reverse(*i)))
            .map(|(_, p)| p.request)
        {
            let shortfall = target.gpus.saturating_sub(self.free());
            if shortfall > 0 {
                let mut donors: Vec<(u64, Priority, u32)> = Vec::new();
                for g in self.shards.iter() {
                    for (id, v) in g.live() {
                        if v.priority < target.priority {
                            donors.push((*id, v.priority, v.gpus.len() as u32));
                        }
                    }
                }
                donors.sort_by_key(|&(id, pri, _)| (pri, std::cmp::Reverse(id)));
                let reclaimable: u32 = donors.iter().map(|d| d.2).sum();
                if reclaimable >= shortfall {
                    let mut needed = shortfall;
                    for (id, _, held) in donors {
                        if needed == 0 {
                            break;
                        }
                        let take = held.min(needed);
                        wanted.insert(id, take);
                        needed -= take;
                    }
                }
            }
        }
        // Amortized scan: when nothing is wanted and no demand stands,
        // there is nothing to issue or withdraw — skip the live scan
        // entirely (the common case on every quiet pass).
        if wanted.is_empty() && self.shards.iter().all(|g| g.demanded() == 0) {
            return Vec::new();
        }
        let grace = self.inner.grace.load(Ordering::Relaxed);
        let mut fresh: Vec<(JobId, u32)> = Vec::new();
        let mut changed: Vec<(usize, u64, Option<ShrinkDemand>)> = Vec::new();
        for (s, g) in self.shards.iter().enumerate() {
            for (&id, v) in g.live() {
                // A standing demand keeps its deadline — re-issuing must
                // not let the donor outrun the grace window — unless the
                // ask *grew*, in which case the increment deserves its
                // own notice and the window restarts.
                let next = wanted.get(&id).map(|&gpus| match v.demand {
                    Some(d) if gpus <= d.gpus => ShrinkDemand {
                        gpus,
                        deadline: d.deadline,
                    },
                    cur => {
                        if cur.is_none() {
                            fresh.push((v.job, gpus));
                        }
                        ShrinkDemand {
                            gpus,
                            deadline: now + grace,
                        }
                    }
                });
                if next != v.demand {
                    changed.push((s, id, next));
                }
            }
        }
        for (s, id, demand) in changed {
            let mut nv = (*self.shards[s].live()[&id]).clone();
            nv.demand = demand;
            self.put(s, id, nv);
        }
        fresh.sort_unstable_by_key(|&(j, _)| j);
        fresh
    }

    /// Pump + enforce: grant what fits, then (re)issue shrink demands
    /// for what does not. Every mutation path ends here.
    pub(crate) fn settle(&mut self, now: u64) -> Vec<(JobId, u32)> {
        self.pump(now);
        self.enforce(now)
    }
}

impl Drop for LedgerGuard<'_> {
    fn drop(&mut self) {
        for (i, g) in self.shards.iter().enumerate() {
            if self.touched[i] {
                self.inner.publish(i, g);
            }
        }
        self.inner.pending_count.store(self.q.pending.len(), GAUGE);
    }
}

/// The reservation arbiter: owns the canonical free/busy slot state of
/// one cluster and grants per-job [`Lease`]s whose restricted
/// [`NodeSlots`] views the whole planner stack consumes — so several
/// solver services pack one cluster without ever overlapping placements.
///
/// Beyond cooperative sharing, the arbiter is **live** against
/// misbehaving tenants: leases may carry a term (logical-clock expiry,
/// reaped arbiter-side — a leaked handle cannot pin slots forever) and a
/// [`Priority`], and a higher-priority request that cannot be admitted
/// makes the arbiter demand a shrink from the lowest-priority holders,
/// force-reclaiming after a grace window. The arbiter only reads its
/// [`Clock`]; terms and grace windows are enforced by a
/// [`MaintenancePump`] polled at their deadlines — by a
/// [`ClusterDaemon`](crate::ClusterDaemon) on wall time, or by a test or
/// simulation on a [`LogicalClock`], which stays deterministic.
///
/// **Scale:** the ledger is sharded by node range
/// ([`with_shards`](ClusterArbiter::with_shards)); a grant that fits one
/// shard touches only that shard's lock, spanning grants take the shard
/// locks in index order, and every read
/// ([`sync`](Lease::sync), [`free_gpus`](ClusterArbiter::free_gpus),
/// [`stats`](ClusterArbiter::stats), fairness) serves from lock-free
/// published snapshots — readers never block behind a grant or a
/// maintenance pass. The default is one shard, which is behaviorally
/// identical (including placement) to the pre-sharding arbiter.
///
/// Cloning is cheap (shared state); clones arbitrate the same ledger.
///
/// # Example
///
/// ```
/// use flexsp_arbiter::{AdmissionPolicy, ClusterArbiter, JobId, SlotRequest};
/// use flexsp_sim::Topology;
///
/// let arbiter = ClusterArbiter::new(&Topology::new(4, 8), AdmissionPolicy::Fifo);
/// let a = arbiter.try_lease(SlotRequest::new(JobId(1), 16)).unwrap();
/// let b = arbiter.try_lease(SlotRequest::new(JobId(2), 16)).unwrap();
/// // Leases are disjoint by construction and the cluster is now full.
/// assert!(a.gpus().iter().all(|g| !b.gpus().contains(g)));
/// assert_eq!(arbiter.free_gpus(), 0);
/// drop(a); // RAII: slots return on drop
/// assert_eq!(arbiter.free_gpus(), 16);
/// ```
///
/// # Example: terms and preemption
///
/// ```
/// use flexsp_arbiter::{
///     AdmissionPolicy, ClusterArbiter, JobId, LogicalClock, MaintenancePump, SlotRequest,
/// };
/// use flexsp_sim::Topology;
/// use std::sync::Arc;
///
/// let clock = LogicalClock::new();
/// let arbiter = ClusterArbiter::with_clock(
///     &Topology::new(2, 8),
///     AdmissionPolicy::Fifo,
///     Arc::new(clock.clone()),
/// );
/// let mut pump = MaintenancePump::new(arbiter.clone());
/// // A lease with a 2-tick term, then "crash" the tenant (leak it).
/// let lease = arbiter
///     .try_lease(SlotRequest::new(JobId(1), 16).with_term(2))
///     .unwrap();
/// std::mem::forget(lease);
/// clock.advance(1);
/// assert!(pump.poll().is_none(), "now = 1: nothing due");
/// clock.advance(1);
/// let report = pump.poll().unwrap(); // now = 2: the term lapsed
/// assert_eq!(report.expired, vec![(JobId(1), 16)]);
/// assert_eq!(arbiter.free_gpus(), 16, "reaped arbiter-side");
/// ```
///
/// [`MaintenancePump`]: crate::MaintenancePump
#[derive(Debug, Clone)]
pub struct ClusterArbiter {
    clock: Arc<dyn Clock>,
    pub(crate) inner: Arc<Inner>,
}

/// Default grace window (in ticks) between a shrink demand and its
/// forced execution: one tick, per FlexSP's fresh-plan-every-step
/// premise — a tenant whose clock advances once per training step gets
/// one step to shrink gracefully.
pub const DEFAULT_GRACE_TICKS: u64 = 1;

impl ClusterArbiter {
    /// Creates an arbiter over `topo` with the given admission policy,
    /// the default grace window, and a **single shard** — behaviorally
    /// identical to the pre-sharding arbiter; opt into sharding with
    /// [`with_shards`](ClusterArbiter::with_shards).
    ///
    /// Its clock is a [`LogicalClock`] that nothing advances, so terms on
    /// a `new` arbiter never lapse. Callers that need time build the
    /// arbiter [`with_clock`](ClusterArbiter::with_clock) and run a
    /// [`MaintenancePump`](crate::MaintenancePump) or
    /// [`ClusterDaemon`](crate::ClusterDaemon) over it.
    pub fn new(topo: &Topology, policy: AdmissionPolicy) -> Self {
        Self::with_clock(topo, policy, Arc::new(LogicalClock::new()))
    }

    /// An arbiter reading logical time from `clock`. The arbiter never
    /// advances it: the caller does (a [`LogicalClock`]), or wall time
    /// does (a [`WallClock`](crate::WallClock)). Terms and grace windows
    /// are enforced by a [`MaintenancePump`](crate::MaintenancePump)
    /// polled against the same clock, or by a
    /// [`ClusterDaemon`](crate::ClusterDaemon) running one.
    pub fn with_clock(topo: &Topology, policy: AdmissionPolicy, clock: Arc<dyn Clock>) -> Self {
        Self::build(topo, policy, clock, 1)
    }

    fn build(topo: &Topology, policy: AdmissionPolicy, clock: Arc<dyn Clock>, shards: u32) -> Self {
        let ranges = partition_nodes(topo.num_nodes(), shards);
        let mut node_shard = vec![0usize; topo.num_nodes() as usize];
        for (i, r) in ranges.iter().enumerate() {
            for n in r.clone() {
                node_shard[n as usize] = i;
            }
        }
        let shards: Box<[Shard]> = ranges.into_iter().map(|r| Shard::new(topo, r)).collect();
        let fairness: Box<[Mutex<BTreeMap<JobId, JobCounters>>]> = (0..FAIRNESS_STRIPES)
            .map(|_| Mutex::new(BTreeMap::new()))
            .collect();
        Self {
            clock,
            inner: Arc::new(Inner {
                topo: topo.clone(),
                shards,
                node_shard,
                epoch: AtomicU64::new(0),
                queue: Mutex::new(QueueState {
                    pending: VecDeque::new(),
                    granted: HashMap::new(),
                    policy,
                    next_ticket: 0,
                }),
                fairness,
                next_lease: AtomicU64::new(0),
                grace: AtomicU64::new(DEFAULT_GRACE_TICKS),
                pending_count: AtomicUsize::new(0),
                publish_seq: AtomicU64::new(0),
                stat_grants: Counter::new(),
                stat_denials: Counter::new(),
                stat_reaps: Counter::new(),
                stat_gpus_moved: Counter::new(),
            }),
        }
    }

    /// An arbiter over a cluster spec's topology.
    pub fn for_cluster(cluster: &ClusterSpec, policy: AdmissionPolicy) -> Self {
        Self::new(cluster.topology(), policy)
    }

    /// Rebuilds this arbiter's ledger over `shards` node-range shards
    /// (clamped to `[1, num_nodes]`). Multi-tenant deployments want one
    /// shard per few nodes ([`auto_shards`](ClusterArbiter::auto_shards))
    /// so unrelated grants stop contending on one lock.
    ///
    /// # Panics
    ///
    /// Panics unless the arbiter is pristine (no grants, no queued
    /// requests, epoch 0) — resharding a live ledger is not supported.
    pub fn with_shards(self, shards: u32) -> Self {
        assert!(
            self.inner.epoch.load(Ordering::SeqCst) == 0
                && self.inner.summed(|s| &s.live_count) == 0
                && self.inner.pending_count.load(GAUGE) == 0,
            "with_shards requires a pristine arbiter (no grants or queued requests yet)"
        );
        let policy = self.inner.lock_queue().policy;
        let grace = self.inner.grace.load(Ordering::Relaxed);
        let out = Self::build(&self.inner.topo, policy, Arc::clone(&self.clock), shards);
        out.inner.grace.store(grace, Ordering::Relaxed);
        out
    }

    /// A reasonable shard count for `topo`: one shard per four nodes,
    /// clamped to `[1, 64]`.
    pub fn auto_shards(topo: &Topology) -> u32 {
        (topo.num_nodes() / 4).clamp(1, 64)
    }

    /// Number of ledger shards.
    pub fn num_shards(&self) -> usize {
        self.inner.shards.len()
    }

    /// Sets the grace window (ticks between a shrink demand and its
    /// forced execution). `0` means demands are force-executed on the
    /// very next maintenance pass.
    pub fn with_grace(self, ticks: u64) -> Self {
        self.inner.grace.store(ticks, Ordering::Relaxed);
        self
    }

    /// The arbitrated topology.
    pub fn topology(&self) -> &Topology {
        &self.inner.topo
    }

    /// The current logical time.
    pub fn now(&self) -> u64 {
        self.clock.now()
    }

    /// Runs one maintenance pass at the clock's current time: reaps
    /// leases whose term lapsed, hands the reaped capacity to the queue
    /// (withdrawing demands the reap made unnecessary), force-executes
    /// the still-standing shrink demands whose grace deadline passed
    /// (victims picked emptiest-node-first so the survivor stays
    /// packed; an *unclaimed grant* donor is reclaimed whole, so
    /// [`claim`](ClusterArbiter::claim) can never hand out an
    /// under-sized lease), then pumps and (re-)issues demands for what
    /// still cannot be admitted.
    ///
    /// [`MaintenancePump::poll`](crate::MaintenancePump::poll) is the only
    /// caller, and only when a term or grace deadline is due. A pass when
    /// no deadline is due is quiet and changes nothing, because every
    /// capacity or demand change settles at the operation that made it;
    /// the pump's property test pins that.
    pub(crate) fn maintain(&self) -> TickReport {
        let inner = &*self.inner;
        let _maintain_span = tel::span!(tel::Category::Arbiter, "arbiter.maintain");
        let now = self.now();
        let mut ledger = LedgerGuard::lock(inner);
        let mut report = TickReport::default();

        // 1. Reap expired leases (deterministic order: lease id).
        let expired = ledger.leases_where(|v| v.expires_at.is_some_and(|e| e <= now));
        {
            let _reap_span = tel::span!(
                tel::Category::Arbiter, "arbiter.reap", "expired" => expired.len() as u64
            );
            for (s, id) in expired {
                report.expired.push(ledger.reclaim_all(s, id));
            }
        }

        // 2. Settle *before* forcing: a reap may have admitted the very
        //    request a standing demand was issued for, and enforce then
        //    withdraws the demand — donors never pay for capacity the
        //    pool already got back another way.
        report.demanded = ledger.settle(now);

        // 3. Force-execute demands whose grace window lapsed.
        let due = ledger.leases_where(|v| v.demand.is_some_and(|d| d.deadline <= now));
        let preempt_span =
            tel::span!(tel::Category::Arbiter, "arbiter.preempt", "due" => due.len() as u64);
        for (s, id) in due {
            // lint: allow(unwrap) `due` ids were collected from these same locked maps, filtered on demand
            let view = ledger.record(s, id).expect("collected from live");
            // lint: allow(unwrap) `due` ids were collected from these same locked maps, filtered on demand
            let demand = view.demand.expect("filtered on demand");
            let held = view.gpus.len() as u32;
            let take = demand.gpus.min(held);
            let unclaimed = ledger.q.granted.values().any(|(_, lid, _)| *lid == id);
            if take >= held || unclaimed {
                // Whole-lease revocation. An unclaimed grant is always
                // taken whole even under a partial demand: its tenant
                // never saw the grant, and a later claim must return
                // `None` rather than an under-sized lease that violates
                // the request's size contract.
                report.reclaimed.push(ledger.reclaim_all(s, id));
            } else {
                let victims = select_victims(&inner.topo, &view.gpus, take);
                let mut nv = (*view).clone();
                nv.gpus.retain(|g| !victims.contains(g));
                nv.demand = None;
                nv.stamp = inner.bump_epoch();
                ledger.put(s, id, nv);
                ledger.release(&victims);
                inner.stat_gpus_moved.add(take as u64);
                inner.with_counters(view.job, |c| c.gpus_moved += take as u64);
                report.reclaimed.push((view.job, take));
            }
        }
        drop(preempt_span);

        // 4. Hand reclaimed capacity to the queue; re-evaluate demands.
        report.demanded.extend(ledger.settle(now));
        report
    }

    fn check(&self, request: &SlotRequest) -> Result<(), LeaseError> {
        if request.gpus == 0 || request.gpus > self.inner.topo.num_gpus() {
            return Err(LeaseError::Unsatisfiable {
                requested: request.gpus,
                cluster: self.inner.topo.num_gpus(),
            });
        }
        Ok(())
    }

    /// Grants a lease immediately, or fails without queueing. An
    /// immediate ask never jumps the admission queue and never triggers
    /// preemption — queue with [`ClusterArbiter::request`] for either.
    ///
    /// A request that fits a single shard takes exactly one shard lock
    /// (candidates picked fullest-first from the lock-free gauges and
    /// re-verified under the lock); only a spanning request locks the
    /// whole ledger (the queue, then every shard).
    ///
    /// # Errors
    ///
    /// [`LeaseError::Unsatisfiable`] for impossible asks,
    /// [`LeaseError::Busy`] when the free pool is currently short.
    pub fn try_lease(&self, request: SlotRequest) -> Result<Lease, LeaseError> {
        self.check(&request)?;
        let _grant_span =
            tel::span!(tel::Category::Arbiter, "arbiter.grant", "gpus" => request.gpus as u64);
        let now = self.now();
        let inner = &*self.inner;
        inner.with_counters(request.job, |c| c.requested += 1);
        // Queued requests keep priority: an immediate ask may not jump
        // over a queue the policy would serve first.
        if inner.pending_count.load(GAUGE) > 0 {
            inner.with_counters(request.job, |c| c.denied += 1);
            inner.stat_denials.inc();
            return Err(LeaseError::Busy {
                requested: request.gpus,
                free: inner.summed(|s| &s.free_count),
            });
        }
        // Single-shard fast path: fullest candidate first (the packing
        // bias of the unsharded ledger), sku-capable shards first when a
        // class is preferred.
        let mut candidates: Vec<(u32, usize)> = inner
            .shards
            .iter()
            .enumerate()
            .map(|(i, s)| (s.free_count.load(GAUGE), i))
            .filter(|&(f, _)| f >= request.gpus)
            .collect();
        match request.prefer {
            Some(sku) => candidates.sort_by_key(|&(f, i)| {
                let class_free = inner.shards[i].snap.load().free.free_sku_gpus(sku);
                (class_free < request.gpus, std::cmp::Reverse(f), i)
            }),
            None => candidates.sort_unstable_by_key(|&(f, i)| (std::cmp::Reverse(f), i)),
        }
        for (_, i) in candidates {
            let _hold_span =
                tel::span!(tel::Category::Arbiter, "shard.lock_hold", "shard" => i as u64);
            let mut st = inner.lock_shard(i);
            if st.free.total_free() >= request.gpus {
                if let Some(out) = inner.grant_single(i, &mut st, &request, now) {
                    inner.publish(i, &st);
                    drop(st);
                    return Ok(Lease::new(
                        self.clone(),
                        out.id,
                        request.job,
                        out.gpus,
                        out.epoch,
                        i,
                    ));
                }
            }
        }
        // Spanning path: the whole ledger, merged draw.
        let mut ledger = LedgerGuard::lock(inner);
        let free = ledger.free();
        if request.gpus > free {
            drop(ledger);
            inner.with_counters(request.job, |c| c.denied += 1);
            inner.stat_denials.inc();
            return Err(LeaseError::Busy {
                requested: request.gpus,
                free,
            });
        }
        let out = ledger.grant(&request, now);
        drop(ledger);
        Ok(Lease::new(
            self.clone(),
            out.id,
            request.job,
            out.gpus,
            out.epoch,
            out.home,
        ))
    }

    /// Queues a lease request; the admission policy decides when it is
    /// granted. Poll with [`ClusterArbiter::claim`]. A request whose
    /// priority exceeds some live leases' and cannot be admitted makes
    /// the arbiter demand shrinks from those holders (see
    /// [`ShrinkDemand`]).
    pub fn request(&self, request: SlotRequest) -> Result<Ticket, LeaseError> {
        self.check(&request)?;
        let _span =
            tel::span!(tel::Category::Arbiter, "arbiter.request", "gpus" => request.gpus as u64);
        let now = self.now();
        let inner = &*self.inner;
        inner.with_counters(request.job, |c| c.requested += 1);
        let mut ledger = LedgerGuard::lock(inner);
        let id = ledger.q.next_ticket;
        ledger.q.next_ticket += 1;
        ledger.q.pending.push_back(Pending {
            ticket: id,
            request,
        });
        ledger.settle(now);
        Ok(Ticket {
            id,
            job: request.job,
        })
    }

    /// Claims the lease a queued request was granted, or `None` while it
    /// still waits (or after the granted lease's term already lapsed —
    /// its slots went back to the pool unclaimed).
    pub fn claim(&self, ticket: &Ticket) -> Option<Lease> {
        let _span = tel::span!(tel::Category::Arbiter, "arbiter.claim", "ticket" => ticket.id);
        let now = self.now();
        let inner = &*self.inner;
        let mut ledger = LedgerGuard::lock(inner);
        ledger.settle(now);
        let claimed = ledger
            .q
            .granted
            .remove(&ticket.id)
            .and_then(|(request, id, home)| {
                // The grant may have been reaped (term lapsed) or revoked
                // whole (preemption donor) before the claim.
                let view = ledger.record(home, id)?;
                debug_assert_eq!(
                    view.gpus.len(),
                    request.gpus as usize,
                    "an unclaimed grant is only ever reclaimed whole"
                );
                Some((request, id, home, view.gpus.clone()))
            });
        drop(ledger);
        claimed.map(|(request, id, home, gpus)| {
            let epoch = inner.epoch.load(Ordering::SeqCst);
            Lease::new(self.clone(), id, request.job, gpus, epoch, home)
        })
    }

    /// Abandons a queued request. If it was already granted, the slots
    /// return to the pool.
    pub fn cancel(&self, ticket: &Ticket) {
        let now = self.now();
        let inner = &*self.inner;
        let mut ledger = LedgerGuard::lock(inner);
        ledger.q.pending.retain(|p| p.ticket != ticket.id);
        if let Some((request, id, home)) = ledger.q.granted.remove(&ticket.id) {
            if let Some(view) = ledger.retire(home, id) {
                inner.with_counters(request.job, |c| {
                    c.released += 1;
                    c.gpus_released += view.gpus.len() as u64;
                });
            }
        }
        ledger.settle(now);
    }

    /// Settles the queue against the current ledger (pump + enforce).
    /// Used by the home-shard drop, which frees capacity under one shard
    /// lock.
    pub(crate) fn settle_now(&self) {
        let now = self.now();
        LedgerGuard::lock(&self.inner).settle(now);
    }

    /// GPUs currently free (not held by any lease or unclaimed grant).
    /// Lock-free: served from the per-shard gauges.
    // lint: lock-free
    pub fn free_gpus(&self) -> u32 {
        self.inner.summed(|s| &s.free_count)
    }

    /// The current ledger epoch (bumped on every mutation). Lock-free.
    // lint: lock-free
    pub fn epoch(&self) -> u64 {
        self.inner.epoch.load(Ordering::SeqCst)
    }

    /// Live leases (granted and not yet released), including unclaimed
    /// grants. Lock-free.
    // lint: lock-free
    pub fn live_leases(&self) -> usize {
        self.inner.summed(|s| &s.live_count) as usize
    }

    /// Queued requests not yet granted. Lock-free.
    // lint: lock-free
    pub fn pending_requests(&self) -> usize {
        self.inner.pending_count.load(GAUGE)
    }

    /// GPUs currently held by `job`'s live leases (the right-hand side
    /// of the fairness conservation law: per job,
    /// `gpus_granted − gpus_released − gpus_moved == leased_gpus`).
    /// Lock-free: served from the published shard snapshots.
    // lint: lock-free
    pub fn leased_gpus(&self, job: JobId) -> u32 {
        self.inner
            .shards
            .iter()
            .map(|s| {
                s.snap
                    .load()
                    .live
                    .values()
                    .filter(|v| v.job == job)
                    .map(|v| v.gpus.len() as u32)
                    .sum::<u32>()
            })
            .sum()
    }

    /// A snapshot of the cluster-wide free ledger, assembled from the
    /// published shard snapshots without taking any shard lock.
    // lint: lock-free
    pub fn snapshot(&self) -> NodeSlots {
        let mut all: Vec<GpuId> = Vec::with_capacity(self.inner.topo.num_gpus() as usize);
        for s in self.inner.shards.iter() {
            all.extend(s.snap.load().free.free_gpus());
        }
        NodeSlots::restricted_to(&self.inner.topo, &all)
    }

    /// A fingerprint of the whole ledger — the global epoch hashed with
    /// every shard's published free fingerprint. Lock-free; two equal
    /// fingerprints mean readers saw the same ledger.
    // lint: lock-free
    pub fn fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.inner.epoch.load(Ordering::SeqCst).hash(&mut h);
        for s in self.inner.shards.iter() {
            let snap = s.snap.load();
            snap.epoch.hash(&mut h);
            snap.free.fingerprint().hash(&mut h);
        }
        h.finish()
    }

    /// Cheap operational counters (see [`ArbiterStats`]): served from
    /// atomics and gauges, never taking the queue or a shard lock.
    // lint: lock-free
    pub fn stats(&self) -> ArbiterStats {
        let inner = &*self.inner;
        ArbiterStats {
            grants: inner.stat_grants.get(),
            denials: inner.stat_denials.get(),
            reaps: inner.stat_reaps.get(),
            gpus_moved: inner.stat_gpus_moved.get(),
            queue_depth: inner.pending_count.load(GAUGE),
            live_leases: inner.summed(|s| &s.live_count) as usize,
            free_gpus: inner.summed(|s| &s.free_count),
            epoch: inner.epoch.load(Ordering::SeqCst),
        }
    }

    /// Fairness counters of `job` (zeroes for unknown jobs). Takes only
    /// the job's fairness stripe lock — never the queue or a shard.
    pub fn fairness(&self, job: JobId) -> JobCounters {
        let _rank = rank::acquire(rank::STRIPE);
        self.inner.fairness[(job.0 as usize) % FAIRNESS_STRIPES]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&job)
            .copied()
            .unwrap_or_default()
    }

    /// Fairness counters of every job ever seen, by id.
    pub fn fairness_all(&self) -> Vec<(JobId, JobCounters)> {
        let mut all: BTreeMap<JobId, JobCounters> = BTreeMap::new();
        for stripe in self.inner.fairness.iter() {
            // Stripes are visited one at a time; the rank token scopes to
            // the iteration, so equal stripe ranks never overlap.
            let _rank = rank::acquire(rank::STRIPE);
            for (j, c) in stripe.lock().unwrap_or_else(PoisonError::into_inner).iter() {
                all.insert(*j, *c);
            }
        }
        all.into_iter().collect()
    }

    /// Audits the ledger: every GPU is either free or held by exactly one
    /// live lease/grant, shard ledgers stay inside their node ranges, each
    /// shard's demand count, gauges and published snapshot agree with its
    /// records, and every job's fairness counters obey the conservation law
    /// (`gpus_granted − gpus_released − gpus_moved` == GPUs currently
    /// held). Returns a description of the first violation.
    ///
    /// # Errors
    ///
    /// A human-readable description of the violated invariant.
    pub fn audit(&self) -> Result<(), String> {
        let inner = &*self.inner;
        let q = inner.lock_queue();
        let guards = inner.lock_shards();
        let mut seen: HashMap<GpuId, &'static str> = HashMap::new();
        for (i, g) in guards.iter().enumerate() {
            let range = &inner.shards[i].nodes;
            for gpu in g.free.free_gpus() {
                let node = inner.topo.node_of(gpu);
                if !range.contains(&node) {
                    return Err(format!(
                        "shard {i} ({range:?}) holds free {gpu} of node {node}"
                    ));
                }
                seen.insert(gpu, "free");
            }
        }
        let mut held: BTreeMap<JobId, u64> = BTreeMap::new();
        for g in guards.iter() {
            for (id, v) in g.live() {
                for gpu in &v.gpus {
                    if let Some(prev) = seen.insert(*gpu, "leased") {
                        return Err(format!("{gpu} held by lease {id} is also {prev}"));
                    }
                }
                *held.entry(v.job).or_default() += v.gpus.len() as u64;
            }
        }
        let total = inner.topo.num_gpus() as usize;
        if seen.len() != total {
            return Err(format!("{} of {total} GPUs accounted for", seen.len()));
        }
        // Each shard's demand count, gauges and snapshot must agree with
        // its records.
        for (i, g) in guards.iter().enumerate() {
            let shard = &inner.shards[i];
            let demanded = g.live().values().filter(|v| v.demand.is_some()).count() as u32;
            for (label, value, actual) in [
                ("demand count", g.demanded(), demanded),
                (
                    "free gauge",
                    shard.free_count.load(GAUGE),
                    g.free.total_free(),
                ),
                (
                    "live gauge",
                    shard.live_count.load(GAUGE),
                    g.live().len() as u32,
                ),
                ("demand gauge", shard.demanded_count.load(GAUGE), demanded),
            ] {
                if value != actual {
                    return Err(format!("shard {i} {label} {value} != {actual}"));
                }
            }
            let snap = shard.snap.load();
            if snap.free.fingerprint() != g.free.fingerprint() || snap.live.len() != g.live().len()
            {
                return Err(format!("shard {i} snapshot is stale"));
            }
        }
        let pending = inner.pending_count.load(GAUGE);
        if pending != q.pending.len() {
            return Err(format!("pending gauge {pending} != {}", q.pending.len()));
        }
        // Conservation: counters must reconcile with actual holdings.
        for (job, c) in self.fairness_all() {
            let lhs = c
                .gpus_granted
                .checked_sub(c.gpus_released + c.gpus_moved)
                .ok_or_else(|| format!("{job}: released+moved exceed granted: {c:?}"))?;
            let rhs = held.get(&job).copied().unwrap_or(0);
            if lhs != rhs {
                return Err(format!(
                    "{job}: granted−released−moved = {lhs} but holds {rhs} ({c:?})"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::MaintenancePump;
    use flexsp_sim::{NodeSpec, SkuId};

    fn topo4x8() -> Topology {
        Topology::new(4, 8)
    }

    /// A 4×8 arbiter on a logical clock the test advances.
    fn clocked(policy: AdmissionPolicy) -> (ClusterArbiter, LogicalClock) {
        let clock = LogicalClock::new();
        let arb = ClusterArbiter::with_clock(&topo4x8(), policy, Arc::new(clock.clone()));
        (arb, clock)
    }

    /// One tick of time: advance the clock, then poll the pump, which
    /// maintains only if a deadline is due.
    fn step(clock: &LogicalClock, pump: &mut MaintenancePump) -> TickReport {
        clock.advance(1);
        pump.poll().unwrap_or_default()
    }

    fn req(job: u64, gpus: u32) -> SlotRequest {
        SlotRequest::new(JobId(job), gpus)
    }

    #[test]
    fn raii_release_and_epoch_counting() {
        let arb = ClusterArbiter::new(&topo4x8(), AdmissionPolicy::Fifo);
        let e0 = arb.epoch();
        let lease = arb.try_lease(req(1, 12)).unwrap();
        assert_eq!(arb.free_gpus(), 20);
        assert_eq!(arb.live_leases(), 1);
        assert!(arb.epoch() > e0, "grants bump the epoch");
        assert!(arb.audit().is_ok());
        let fp = lease.fingerprint();
        let e1 = arb.epoch();
        drop(lease);
        assert_eq!(arb.free_gpus(), 32, "drop returns exactly its slots");
        assert_eq!(arb.live_leases(), 0);
        assert!(arb.epoch() > e1, "releases bump the epoch");
        assert!(arb.audit().is_ok());
        // A fresh identical lease gets a different fingerprint (epoch).
        let again = arb.try_lease(req(1, 12)).unwrap();
        assert_ne!(again.fingerprint(), fp);
    }

    #[test]
    fn immediate_lease_respects_capacity_and_queue_priority() {
        let arb = ClusterArbiter::new(&topo4x8(), AdmissionPolicy::Fifo);
        assert!(matches!(
            arb.try_lease(req(1, 0)),
            Err(LeaseError::Unsatisfiable { .. })
        ));
        assert!(matches!(
            arb.try_lease(req(1, 33)),
            Err(LeaseError::Unsatisfiable { .. })
        ));
        let _a = arb.try_lease(req(1, 24)).unwrap();
        assert!(matches!(
            arb.try_lease(req(2, 16)),
            Err(LeaseError::Busy { free: 8, .. })
        ));
        // Queue a request; an immediate ask that would fit may not jump it.
        let ticket = arb.request(req(3, 16)).unwrap();
        assert!(arb.claim(&ticket).is_none(), "still waiting");
        assert!(matches!(
            arb.try_lease(req(4, 4)),
            Err(LeaseError::Busy { .. })
        ));
        assert_eq!(arb.fairness(JobId(4)).denied, 1);
        drop(_a);
        let granted = arb.claim(&ticket).expect("capacity freed");
        assert_eq!(granted.gpu_count(), 16);
        assert!(arb.audit().is_ok());
    }

    #[test]
    fn fifo_grants_in_arrival_order() {
        let arb = ClusterArbiter::new(&topo4x8(), AdmissionPolicy::Fifo);
        let hold = arb.try_lease(req(0, 32)).unwrap();
        let t1 = arb.request(req(1, 24)).unwrap();
        let t2 = arb.request(req(2, 8)).unwrap();
        drop(hold);
        // Head-of-line first, then the smaller one from the remainder.
        let l1 = arb.claim(&t1).expect("front of the queue");
        let l2 = arb.claim(&t2).expect("fits the remainder");
        assert_eq!(l1.gpu_count(), 24);
        assert_eq!(l2.gpu_count(), 8);
        assert!(arb.audit().is_ok());
    }

    #[test]
    fn fifo_head_of_line_blocks_but_best_fit_packs() {
        for (policy, expect_small_granted) in [
            (AdmissionPolicy::Fifo, false),
            (AdmissionPolicy::BestFitSkuClass, true),
        ] {
            let arb = ClusterArbiter::new(&topo4x8(), policy);
            let _hold = arb.try_lease(req(0, 24)).unwrap();
            // 8 free. The front request wants 16, the second 8.
            let t_big = arb.request(req(1, 16)).unwrap();
            let t_small = arb.request(req(2, 8)).unwrap();
            assert!(arb.claim(&t_big).is_none());
            assert_eq!(
                arb.claim(&t_small).is_some(),
                expect_small_granted,
                "{policy}"
            );
            if expect_small_granted {
                // The waiting big job accrued wait rounds — starvation is
                // observable.
                assert!(arb.fairness(JobId(1)).wait_rounds > 0);
            }
        }
    }

    #[test]
    fn best_fit_matches_sku_classes() {
        let topo = Topology::from_nodes(vec![
            NodeSpec::new(8, SkuId(0)),
            NodeSpec::new(8, SkuId(0)),
            NodeSpec::new(8, SkuId(1)),
            NodeSpec::new(8, SkuId(1)),
        ]);
        let arb = ClusterArbiter::new(&topo, AdmissionPolicy::BestFitSkuClass);
        let fast = arb.try_lease(req(1, 16).preferring(SkuId(0))).unwrap();
        // The fast class is exactly drained; its GPUs are 0..16.
        assert!(fast.gpus().iter().all(|g| g.0 < 16));
        let slow = arb.try_lease(req(2, 16).preferring(SkuId(1))).unwrap();
        assert!(slow.gpus().iter().all(|g| g.0 >= 16));
        assert!(arb.audit().is_ok());
    }

    #[test]
    fn grow_shrink_renew_restamp_the_lease() {
        let arb = ClusterArbiter::new(&topo4x8(), AdmissionPolicy::Fifo);
        let mut lease = arb.try_lease(req(1, 8)).unwrap();
        let fp0 = lease.fingerprint();
        lease.grow(8, None).unwrap();
        assert_eq!(lease.gpu_count(), 16);
        assert_eq!(arb.free_gpus(), 16);
        let fp1 = lease.fingerprint();
        assert_ne!(fp0, fp1, "grow changes the fingerprint");
        lease.shrink(12).unwrap();
        assert_eq!(lease.gpu_count(), 4);
        assert_eq!(arb.free_gpus(), 28);
        let fp2 = lease.fingerprint();
        assert_ne!(fp1, fp2, "shrink changes the fingerprint");
        lease.renew().unwrap();
        assert_ne!(lease.fingerprint(), fp2, "renew re-stamps the epoch");
        // Shrinking to zero is a drop, not a shrink.
        assert!(matches!(
            lease.shrink(4),
            Err(LeaseError::ShrinkTooLarge { .. })
        ));
        // Growing past the pool fails cleanly.
        assert!(matches!(lease.grow(64, None), Err(LeaseError::Busy { .. })));
        assert_eq!(lease.gpu_count(), 4);
        assert!(arb.audit().is_ok());
    }

    #[test]
    fn grow_may_not_jump_the_admission_queue() {
        let arb = ClusterArbiter::new(&topo4x8(), AdmissionPolicy::Fifo);
        let mut small = arb.try_lease(req(1, 8)).unwrap();
        let _mid = arb.try_lease(req(2, 16)).unwrap();
        // 8 free; a queued job waits for 16.
        let ticket = arb.request(req(3, 16)).unwrap();
        assert!(arb.claim(&ticket).is_none());
        // The incumbent may not absorb the free slots while someone
        // queues — that would starve FIFO's head-of-line job.
        assert!(matches!(small.grow(8, None), Err(LeaseError::Busy { .. })));
        assert_eq!(small.gpu_count(), 8, "failed grow leaves the lease intact");
        // Once the queue drains, growing works again.
        arb.cancel(&ticket);
        small.grow(8, None).unwrap();
        assert_eq!(small.gpu_count(), 16);
        assert!(arb.audit().is_ok());
    }

    #[test]
    fn shrink_hands_capacity_to_the_queue() {
        let arb = ClusterArbiter::new(&topo4x8(), AdmissionPolicy::Fifo);
        let mut big = arb.try_lease(req(1, 32)).unwrap();
        let ticket = arb.request(req(2, 16)).unwrap();
        assert!(arb.claim(&ticket).is_none());
        big.shrink(16).unwrap();
        let small = arb.claim(&ticket).expect("shrink pumped the queue");
        // Disjointness across the resize.
        for g in small.gpus() {
            assert!(!big.gpus().contains(g));
        }
        assert!(arb.audit().is_ok());
    }

    #[test]
    fn cancel_returns_granted_slots() {
        let arb = ClusterArbiter::new(&topo4x8(), AdmissionPolicy::Fifo);
        let ticket = arb.request(req(1, 32)).unwrap();
        // Granted immediately (empty cluster) but never claimed.
        assert_eq!(arb.free_gpus(), 0);
        arb.cancel(&ticket);
        assert_eq!(arb.free_gpus(), 32);
        assert!(arb.claim(&ticket).is_none());
        assert!(arb.audit().is_ok());
    }

    #[test]
    fn fairness_counters_add_up() {
        let arb = ClusterArbiter::new(&topo4x8(), AdmissionPolicy::Fifo);
        let a = arb.try_lease(req(1, 16)).unwrap();
        let b = arb.try_lease(req(1, 16)).unwrap();
        assert!(matches!(
            arb.try_lease(req(2, 8)),
            Err(LeaseError::Busy { .. })
        ));
        drop(a);
        drop(b);
        let c1 = arb.fairness(JobId(1));
        assert_eq!(c1.requested, 2);
        assert_eq!(c1.granted, 2);
        assert_eq!(c1.released, 2);
        assert_eq!(c1.gpus_granted, 32);
        assert_eq!(c1.gpus_released, 32);
        assert_eq!(c1.gpus_moved, 0);
        let c2 = arb.fairness(JobId(2));
        assert_eq!((c2.requested, c2.denied, c2.granted), (1, 1, 0));
    }

    #[test]
    fn counters_conserve_under_grow_shrink_preempt_and_reap_churn() {
        // The conservation law (granted − released − moved == held)
        // survives every mutation path: grant, grow, voluntary shrink,
        // forced partial reclaim, term reaping, and drop.
        let (arb, clock) = clocked(AdmissionPolicy::Fifo);
        let mut pump = MaintenancePump::new(arb.clone());
        let check = |label: &str| {
            arb.audit().unwrap_or_else(|e| panic!("{label}: {e}"));
            for (job, c) in arb.fairness_all() {
                assert_eq!(
                    c.gpus_granted - c.gpus_released - c.gpus_moved,
                    arb.leased_gpus(job) as u64,
                    "{label}: {job} {c:?}"
                );
            }
        };
        let mut a = arb.try_lease(req(1, 8)).unwrap();
        check("grant");
        a.grow(8, None).unwrap();
        check("grow");
        a.shrink(4).unwrap();
        check("voluntary shrink");
        // A term-bearing lease that gets leaked and reaped.
        let leaked = arb.try_lease(req(2, 8).with_term(1)).unwrap();
        std::mem::forget(leaked);
        check("term grant");
        step(&clock, &mut pump);
        assert_eq!(arb.fairness(JobId(2)).gpus_moved, 8, "reap counts moved");
        check("reap");
        // A high-priority request forces a partial reclaim from job 1.
        let t = arb
            .request(req(3, 28).with_priority(Priority::HIGH))
            .unwrap();
        check("demand issued");
        step(&clock, &mut pump); // grace lapses; 8 of job 1's 12 GPUs move
        let hp = arb.claim(&t).expect("preemption admitted the request");
        assert_eq!(hp.gpu_count(), 28);
        assert_eq!(arb.fairness(JobId(1)).gpus_moved, 8);
        check("forced reclaim");
        assert_eq!(a.sync(), crate::lease::LeaseEvent::Resized { lost: 8 });
        drop(a);
        drop(hp);
        check("drops");
        assert_eq!(arb.free_gpus(), 32);
    }

    #[test]
    fn high_priority_request_preempts_the_lowest_priority_donor() {
        let (arb, clock) = clocked(AdmissionPolicy::Fifo);
        let mut pump = MaintenancePump::new(arb.clone());
        let low = arb.try_lease(req(1, 16)).unwrap();
        let mid = arb
            .try_lease(req(2, 16).with_priority(Priority(10)))
            .unwrap();
        // 0 free; a HIGH request for 8 must demand from the *lowest*
        // priority holder only.
        let t = arb
            .request(req(3, 8).with_priority(Priority::HIGH))
            .unwrap();
        assert!(arb.claim(&t).is_none(), "not yet — grace first");
        assert_eq!(
            low.pending_demand().map(|d| d.gpus),
            Some(8),
            "lowest-priority lease carries the demand"
        );
        assert_eq!(mid.pending_demand(), None, "higher donor untouched");
        let report = step(&clock, &mut pump);
        assert_eq!(report.reclaimed, vec![(JobId(1), 8)]);
        let hp = arb
            .claim(&t)
            .expect("reclaimed capacity admits the request");
        assert_eq!(hp.gpu_count(), 8);
        // The donor survives on its remaining slots, disjoint from hp.
        let mut low = low;
        assert_eq!(low.sync(), crate::lease::LeaseEvent::Resized { lost: 8 });
        assert_eq!(low.gpu_count(), 8);
        for g in hp.gpus() {
            assert!(!low.gpus().contains(g));
        }
        assert!(arb.audit().is_ok());
    }

    #[test]
    fn graceful_shrink_clears_the_demand_without_force() {
        let (arb, clock) = clocked(AdmissionPolicy::Fifo);
        let mut pump = MaintenancePump::new(arb.clone());
        let mut low = arb.try_lease(req(1, 32)).unwrap();
        let t = arb
            .request(req(2, 16).with_priority(Priority::HIGH))
            .unwrap();
        let d = low.pending_demand().expect("demand issued on request");
        assert_eq!(d.gpus, 16);
        low.shrink(d.gpus).unwrap();
        assert_eq!(low.pending_demand(), None, "compliance clears the demand");
        let hp = arb.claim(&t).expect("the shrink admitted the request");
        assert_eq!(hp.gpu_count(), 16);
        // No force was ever applied: everything was voluntary.
        assert_eq!(arb.fairness(JobId(1)).gpus_moved, 0);
        assert_eq!(arb.fairness(JobId(1)).gpus_released, 16);
        let report = step(&clock, &mut pump);
        assert!(report.is_quiet(), "{report:?}");
        assert!(arb.audit().is_ok());
    }

    #[test]
    fn equal_priority_never_preempts_and_uncovered_shortfalls_issue_no_demands() {
        let (arb, clock) = clocked(AdmissionPolicy::Fifo);
        let mut pump = MaintenancePump::new(arb.clone());
        let a = arb.try_lease(req(1, 16)).unwrap();
        let _b = arb
            .try_lease(req(2, 16).with_priority(Priority::HIGH))
            .unwrap();
        // Equal priority: no preemption among peers.
        let _t1 = arb.request(req(3, 8)).unwrap();
        assert_eq!(a.pending_demand(), None);
        assert!(step(&clock, &mut pump).is_quiet());
        // A HIGH request for 24 can only reclaim job 1's 16 (job 2 is a
        // peer): the shortfall is uncoverable, so no demand is issued —
        // doomed demands never thrash donors.
        let _t2 = arb
            .request(req(4, 24).with_priority(Priority::HIGH))
            .unwrap();
        assert_eq!(a.pending_demand(), None, "uncoverable shortfall");
        assert!(step(&clock, &mut pump).is_quiet());
        assert!(arb.audit().is_ok());
    }

    #[test]
    fn same_tick_reap_withdraws_now_unjustified_demands() {
        // A reap and a demand deadline land on the same tick, and the
        // reaped capacity alone admits the high-priority request: the
        // demand must be withdrawn before force-execution, not charged
        // to the donor while the reclaimed GPUs idle in the pool.
        let (arb, clock) = clocked(AdmissionPolicy::Fifo);
        let mut pump = MaintenancePump::new(arb.clone());
        let termed = arb.try_lease(req(1, 24).with_term(1)).unwrap();
        std::mem::forget(termed);
        let c = arb.try_lease(req(2, 8)).unwrap();
        let t = arb
            .request(req(3, 16).with_priority(Priority::HIGH))
            .unwrap();
        assert!(c.pending_demand().is_some(), "c is the youngest donor");
        let report = step(&clock, &mut pump);
        assert_eq!(report.expired, vec![(JobId(1), 24)]);
        assert!(
            report.reclaimed.is_empty(),
            "the reap covered the shortfall — no force: {report:?}"
        );
        assert_eq!(arb.fairness(JobId(2)).gpus_moved, 0);
        assert_eq!(c.pending_demand(), None, "demand withdrawn");
        assert_eq!(c.gpu_count(), 8, "donor untouched");
        let hp = arb.claim(&t).expect("admitted from reaped capacity");
        assert_eq!(hp.gpu_count(), 16);
        assert!(arb.audit().is_ok());
    }

    #[test]
    fn preempted_unclaimed_grant_is_reclaimed_whole_never_undersized() {
        // A granted-but-unclaimed request chosen as a preemption donor
        // is revoked entirely: claim() returns None, never a lease
        // smaller than the request asked for.
        let (arb, clock) = clocked(AdmissionPolicy::Fifo);
        let mut pump = MaintenancePump::new(arb.clone());
        let mut hold = arb.try_lease(req(1, 20)).unwrap();
        let t_low = arb.request(req(2, 12)).unwrap();
        assert_eq!(arb.free_gpus(), 0, "granted (unclaimed) holds 12");
        // HIGH needs 8: the youngest donor is the unclaimed grant, and
        // the demand against it (8) is partial.
        let t_high = arb
            .request(req(3, 8).with_priority(Priority::HIGH))
            .unwrap();
        let report = step(&clock, &mut pump);
        assert_eq!(report.reclaimed, vec![(JobId(2), 12)], "taken whole");
        assert!(
            arb.claim(&t_low).is_none(),
            "a revoked grant must not be claimable at the wrong size"
        );
        let hp = arb.claim(&t_high).expect("capacity reclaimed");
        assert_eq!(hp.gpu_count(), 8);
        assert_eq!(hold.sync(), crate::lease::LeaseEvent::Unchanged);
        assert_eq!(hold.gpu_count(), 20, "the claimed lease was spared");
        assert!(arb.audit().is_ok());
        drop(hold);
    }

    #[test]
    fn a_larger_demand_restarts_the_grace_window() {
        let (arb, clock) = clocked(AdmissionPolicy::Fifo);
        let arb = arb.with_grace(2);
        let mut pump = MaintenancePump::new(arb.clone());
        let a = arb.try_lease(req(1, 32)).unwrap();
        let _t1 = arb
            .request(req(2, 8).with_priority(Priority::HIGH))
            .unwrap();
        assert_eq!(
            a.pending_demand(),
            Some(ShrinkDemand {
                gpus: 8,
                deadline: 2
            })
        );
        step(&clock, &mut pump); // now = 1: the standing demand keeps its deadline
        assert_eq!(a.pending_demand().unwrap().deadline, 2);
        // A bigger request arrives: the enlarged demand gets fresh notice.
        let _t2 = arb
            .request(req(3, 16).with_priority(Priority::CRITICAL))
            .unwrap();
        let d = a.pending_demand().unwrap();
        assert_eq!(d.gpus, 16);
        assert_eq!(d.deadline, 3, "increment restarts the grace window");
        assert!(arb.audit().is_ok());
    }

    #[test]
    fn expired_term_reaps_even_unclaimed_grants() {
        let (arb, clock) = clocked(AdmissionPolicy::Fifo);
        let mut pump = MaintenancePump::new(arb.clone());
        let t = arb.request(req(1, 32).with_term(1)).unwrap();
        assert_eq!(arb.free_gpus(), 0, "granted (unclaimed) holds slots");
        let report = step(&clock, &mut pump);
        assert_eq!(report.expired, vec![(JobId(1), 32)]);
        assert_eq!(arb.free_gpus(), 32);
        assert!(arb.claim(&t).is_none(), "the grant lapsed before claim");
        assert!(arb.audit().is_ok());
    }

    #[test]
    fn renew_extends_the_term() {
        let (arb, clock) = clocked(AdmissionPolicy::Fifo);
        let mut pump = MaintenancePump::new(arb.clone());
        let mut lease = arb.try_lease(req(1, 8).with_term(2)).unwrap();
        assert_eq!(lease.expires_at(), Some(2));
        step(&clock, &mut pump); // now = 1
        lease.renew().unwrap();
        assert_eq!(lease.expires_at(), Some(3), "renew restarts the term");
        step(&clock, &mut pump); // now = 2: would have lapsed without the renew
        assert!(lease.is_live());
        step(&clock, &mut pump); // now = 3: lapses
        assert!(!lease.is_live());
        assert_eq!(lease.sync(), crate::lease::LeaseEvent::Lapsed);
        assert!(matches!(lease.renew(), Err(LeaseError::Lapsed)));
        assert!(matches!(lease.grow(1, None), Err(LeaseError::Lapsed)));
        assert!(matches!(lease.shrink(1), Err(LeaseError::Lapsed)));
        assert_eq!(arb.free_gpus(), 32);
        drop(lease); // lapsed drop is a no-op, not a double release
        assert_eq!(arb.free_gpus(), 32);
        assert!(arb.audit().is_ok());
    }

    #[test]
    fn unconfigured_arbiter_ticks_are_quiet_and_free() {
        // Regression: with no priorities and no terms, time passing must
        // not mutate anything — epochs (and so fingerprints and cached
        // plans) survive arbitrary ticking, exactly the pre-term arbiter
        // behavior.
        let (arb, clock) = clocked(AdmissionPolicy::BestFitSkuClass);
        let mut pump = MaintenancePump::new(arb.clone());
        let lease = arb.try_lease(req(1, 12)).unwrap();
        let _t = arb.request(req(2, 32)).unwrap();
        let epoch = arb.epoch();
        let fp = lease.fingerprint();
        for _ in 0..5 {
            assert!(step(&clock, &mut pump).is_quiet());
        }
        assert_eq!(pump.wakeups(), 0, "no deadline, no maintenance pass");
        assert_eq!(arb.epoch(), epoch, "quiet ticks never bump the epoch");
        assert_eq!(lease.fingerprint(), fp);
        assert!(arb.audit().is_ok());
    }

    #[test]
    fn external_clock_drives_expiry() {
        let (arb, clock) = clocked(AdmissionPolicy::Fifo);
        let mut pump = MaintenancePump::new(arb.clone());
        let lease = arb.try_lease(req(1, 8).with_term(5)).unwrap();
        std::mem::forget(lease);
        // Polling never advances the clock: only its owner does.
        assert!(pump.poll().is_none());
        assert_eq!(arb.now(), 0);
        clock.advance(5);
        let report = pump.poll().expect("the term is due at now = 5");
        assert_eq!(report.expired, vec![(JobId(1), 8)]);
        assert_eq!(arb.free_gpus(), 32);
        assert!(arb.audit().is_ok());
        // A `new` arbiter reads a clock nothing advances: its terms
        // never lapse, however often a pump polls it.
        let still = ClusterArbiter::new(&topo4x8(), AdmissionPolicy::Fifo);
        let mut pump = MaintenancePump::new(still.clone());
        std::mem::forget(still.try_lease(req(2, 8).with_term(1)).unwrap());
        assert!(pump.poll().is_none());
        assert_eq!(still.free_gpus(), 24);
    }

    #[test]
    fn concurrent_lease_churn_never_overlaps() {
        // Eight threads hammer the arbiter; a shared registry checks that
        // no GPU is ever inside two live leases at once.
        use std::collections::HashSet;
        use std::sync::Mutex as StdMutex;
        let arb = ClusterArbiter::new(&topo4x8(), AdmissionPolicy::Fifo);
        let in_use: std::sync::Arc<StdMutex<HashSet<GpuId>>> = Default::default();
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let arb = arb.clone();
                let in_use = std::sync::Arc::clone(&in_use);
                scope.spawn(move || {
                    for round in 0..50u32 {
                        let want = 1 + ((t as u32 + round) % 8);
                        let Ok(lease) = arb.try_lease(req(t, want)) else {
                            continue;
                        };
                        {
                            let mut held = in_use.lock().unwrap();
                            for g in lease.gpus() {
                                assert!(held.insert(*g), "{g} in two live leases");
                            }
                        }
                        {
                            let mut held = in_use.lock().unwrap();
                            for g in lease.gpus() {
                                held.remove(g);
                            }
                        }
                        drop(lease);
                    }
                });
            }
        });
        assert_eq!(arb.free_gpus(), 32);
        assert!(arb.audit().is_ok());
    }

    #[test]
    fn sharded_concurrent_churn_never_overlaps() {
        // The same hammer against a 4-shard ledger: disjointness and the
        // final audit must hold with grants landing on different shards
        // (and occasionally spanning them).
        use std::collections::HashSet;
        use std::sync::Mutex as StdMutex;
        let arb = ClusterArbiter::new(&topo4x8(), AdmissionPolicy::Fifo).with_shards(4);
        let in_use: std::sync::Arc<StdMutex<HashSet<GpuId>>> = Default::default();
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let arb = arb.clone();
                let in_use = std::sync::Arc::clone(&in_use);
                scope.spawn(move || {
                    for round in 0..50u32 {
                        // 1..=12 GPUs: some fit a shard, some must span.
                        let want = 1 + ((t as u32 + round) % 12);
                        let Ok(lease) = arb.try_lease(req(t, want)) else {
                            continue;
                        };
                        {
                            let mut held = in_use.lock().unwrap();
                            for g in lease.gpus() {
                                assert!(held.insert(*g), "{g} in two live leases");
                            }
                        }
                        {
                            let mut held = in_use.lock().unwrap();
                            for g in lease.gpus() {
                                held.remove(g);
                            }
                        }
                        drop(lease);
                    }
                });
            }
        });
        assert_eq!(arb.free_gpus(), 32);
        assert!(arb.audit().is_ok());
    }

    #[test]
    fn one_shard_draws_match_the_raw_ledger() {
        // 1-shard ≡ PR 5 placement pin: the sharded arbiter's default
        // configuration must draw exactly what the raw NodeSlots would.
        let arb = ClusterArbiter::new(&topo4x8(), AdmissionPolicy::Fifo);
        assert_eq!(arb.num_shards(), 1);
        let mut mirror = NodeSlots::new(&topo4x8());
        let lease = arb.try_lease(req(1, 12)).unwrap();
        let mut expect = mirror.take_packed(12).unwrap().gpus().to_vec();
        expect.sort_unstable();
        assert_eq!(lease.gpus(), &expect[..]);
        let lease2 = arb.try_lease(req(2, 7)).unwrap();
        let mut expect2 = mirror.take_packed(7).unwrap().gpus().to_vec();
        expect2.sort_unstable();
        assert_eq!(lease2.gpus(), &expect2[..]);
    }

    #[test]
    fn spanning_grants_cross_shard_boundaries_and_release_cleanly() {
        let arb = ClusterArbiter::new(&topo4x8(), AdmissionPolicy::Fifo).with_shards(4);
        assert_eq!(arb.num_shards(), 4);
        // 12 GPUs cannot fit any single 8-GPU shard: the grant spans.
        let lease = arb.try_lease(req(1, 12)).unwrap();
        assert_eq!(lease.gpu_count(), 12);
        assert_eq!(arb.free_gpus(), 20);
        assert!(arb.audit().is_ok());
        // The remainder spans the other shards.
        let rest = arb.try_lease(req(2, 20)).unwrap();
        assert_eq!(arb.free_gpus(), 0);
        assert!(arb.audit().is_ok());
        drop(lease);
        assert_eq!(arb.free_gpus(), 12);
        drop(rest);
        assert_eq!(arb.free_gpus(), 32);
        assert!(arb.audit().is_ok());
    }

    #[test]
    fn sharded_grow_shrink_renew_and_preemption_stay_consistent() {
        let (arb, clock) = clocked(AdmissionPolicy::Fifo);
        let arb = arb.with_shards(4);
        let mut pump = MaintenancePump::new(arb.clone());
        let mut a = arb.try_lease(req(1, 6)).unwrap();
        a.grow(10, None).unwrap(); // must span shards
        assert_eq!(a.gpu_count(), 16);
        assert!(arb.audit().is_ok());
        a.shrink(10).unwrap();
        assert_eq!(a.gpu_count(), 6);
        assert!(arb.audit().is_ok());
        a.renew().unwrap();
        // Preemption across shards: fill the cluster, then demand back.
        let mut b = arb.try_lease(req(2, 26)).unwrap();
        let t = arb
            .request(req(3, 8).with_priority(Priority::HIGH))
            .unwrap();
        assert!(b.pending_demand().is_some(), "b is the youngest donor");
        step(&clock, &mut pump);
        let hp = arb.claim(&t).expect("preemption crosses shards");
        assert_eq!(hp.gpu_count(), 8);
        assert_eq!(b.sync(), crate::lease::LeaseEvent::Resized { lost: 8 });
        assert!(arb.audit().is_ok());
        drop(a);
        drop(b);
        drop(hp);
        assert_eq!(arb.free_gpus(), 32);
        assert!(arb.audit().is_ok());
    }

    #[test]
    #[should_panic(expected = "pristine")]
    fn resharding_a_live_arbiter_is_refused() {
        let arb = ClusterArbiter::new(&topo4x8(), AdmissionPolicy::Fifo);
        let _lease = arb.try_lease(req(1, 4)).unwrap();
        let _ = arb.clone().with_shards(4);
    }

    #[test]
    fn stats_track_grants_denials_reaps_and_queue_depth() {
        let (arb, clock) = clocked(AdmissionPolicy::Fifo);
        let mut pump = MaintenancePump::new(arb.clone());
        let _a = arb.try_lease(req(1, 24)).unwrap();
        assert!(arb.try_lease(req(2, 16)).is_err());
        let _t = arb.request(req(3, 16)).unwrap();
        let leaked = arb.try_lease(req(4, 8).with_term(1));
        assert!(leaked.is_err(), "pending request blocks immediate asks");
        arb.cancel(&_t);
        let leaked = arb.try_lease(req(4, 8).with_term(1)).unwrap();
        std::mem::forget(leaked);
        step(&clock, &mut pump);
        let s = arb.stats();
        assert_eq!(s.grants, 2);
        assert_eq!(s.denials, 2);
        assert_eq!(s.reaps, 1);
        assert_eq!(s.gpus_moved, 8);
        assert_eq!(s.queue_depth, 0);
        assert_eq!(s.live_leases, 1);
        assert_eq!(s.free_gpus, 8);
        assert_eq!(s.epoch, arb.epoch());
        assert!(arb.audit().is_ok());
    }

    #[test]
    fn reads_never_block_while_the_queue_and_every_shard_lock_are_held() {
        // The reader-latency-under-writer-storm pin, made deterministic:
        // the "storm" is the worst case — the admission queue and every
        // shard lock held at once — and the reader thread must still
        // finish every lock-free read (sync included) within the
        // watchdog window.
        let arb = ClusterArbiter::new(&topo4x8(), AdmissionPolicy::Fifo).with_shards(4);
        let mut lease = arb.try_lease(req(1, 4)).unwrap();
        let q = arb.inner.queue.lock().unwrap();
        let guards: Vec<_> = arb
            .inner
            .shards
            .iter()
            .map(|s| s.state.lock().unwrap())
            .collect();
        let (tx, rx) = std::sync::mpsc::channel();
        let reader = {
            let arb = arb.clone();
            std::thread::spawn(move || {
                let _ = arb.free_gpus();
                let _ = arb.epoch();
                let _ = arb.live_leases();
                let _ = arb.pending_requests();
                let _ = arb.leased_gpus(JobId(1));
                let _ = arb.snapshot();
                let _ = arb.fingerprint();
                let _ = arb.stats();
                let _ = arb.fairness(JobId(1));
                let _ = arb.fairness_all();
                assert!(lease.is_live());
                let _ = lease.pending_demand();
                let _ = lease.fingerprint();
                let ev = lease.sync();
                tx.send(ev).unwrap();
                lease // dropped by the main thread after the locks release
            })
        };
        let ev = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("reads must never block behind held write locks");
        assert_eq!(ev, crate::lease::LeaseEvent::Unchanged);
        drop(guards);
        drop(q);
        let lease = reader.join().unwrap();
        drop(lease);
        assert_eq!(arb.free_gpus(), 32);
        assert!(arb.audit().is_ok());
    }
}
