//! RAII lease handles: a job's slice of the cluster, materialized as a
//! restricted [`NodeSlots`] view the planner stack consumes directly.

use std::sync::Arc;

use flexsp_core::FlexSpSolver;
use flexsp_sim::{GpuId, NodeSlots};
use flexsp_telemetry as tel;

use crate::arbiter::{select_victims, ClusterArbiter, LeaseError, LedgerGuard, ShrinkDemand};
use crate::policy::JobId;
use crate::shard::{LeaseView, GAUGE};

/// What [`Lease::sync`] observed arbiter-side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaseEvent {
    /// The handle already mirrored the arbiter's record.
    Unchanged,
    /// The arbiter force-shrank the lease (a revocation executed after
    /// its grace window); the handle now mirrors the survivor and its
    /// fingerprint changed — drop stale-bound solvers and re-bind.
    Resized {
        /// GPUs the arbiter reclaimed since the last sync.
        lost: u32,
    },
    /// The lease no longer exists arbiter-side (term lapsed or fully
    /// revoked); the handle is inert and holds no GPUs.
    Lapsed,
}

/// A live reservation: the GPUs a job owns until the handle drops — or
/// until the arbiter takes them back.
///
/// * **RAII release** — dropping the lease returns exactly its
///   *arbiter-side* slots to the pool and pumps the admission queue
///   (a lease already reaped or revoked drops inertly). A lease living
///   entirely inside its home shard releases under that one shard lock.
/// * **Views** — [`Lease::view`] is the restricted [`NodeSlots`] every
///   planner entry point (`plan_micro_batch_within`,
///   `place_shapes_within`, a bound [`FlexSpSolver`]) consumes, so plans
///   are placement-valid inside the lease by construction.
/// * **Fingerprints** — [`Lease::fingerprint`] hashes the arbiter epoch
///   the lease was (re)stamped at together with its per-node slot
///   vector; plan caches keyed by it can never replay a plan across a
///   grow, shrink, renewal, revocation, or any other ledger change.
/// * **Snapshot reads** — [`Lease::sync`], [`Lease::is_live`],
///   [`Lease::pending_demand`], and [`Lease::expires_at`] serve from the
///   home shard's published snapshot. They never wait on the queue lock
///   or a shard lock, only on the snapshot's publish-slot mutex, which
///   a holder keeps for one pointer copy or swap, so they never wait
///   for a grant or a maintenance pass to finish, however many writers
///   are mid-flight.
/// * **Revocation** — the arbiter may demand GPUs back
///   ([`Lease::pending_demand`]) when a higher-priority job cannot be
///   admitted, and force-reclaims at the demand's deadline; a lease
///   granted with a term ([`SlotRequest::with_term`]) lapses outright
///   unless renewed. The handle is a **mirror** of the arbiter's record:
///   after any maintenance pass that could have forced a mutation, call
///   [`Lease::sync`] — a [`LeaseEvent::Resized`] or
///   [`LeaseEvent::Lapsed`] means previously bound solvers hold slots
///   the job no longer owns and must be dropped and re-bound before any
///   further planning.
///
/// Leases are `Send`: a job can carry its lease into its worker thread.
///
/// [`SlotRequest::with_term`]: crate::SlotRequest::with_term
#[derive(Debug)]
pub struct Lease {
    arbiter: ClusterArbiter,
    id: u64,
    job: JobId,
    /// Mirror of the arbiter-side slot list, ascending. Canonical state
    /// lives in the home shard's [`LeaseView`]; [`Lease::sync`]
    /// refreshes this after forced mutations.
    gpus: Vec<GpuId>,
    /// Arbiter epoch at grant / last renew / last resize / last sync.
    epoch: u64,
    /// The shard holding this lease's record (the shard of its lowest
    /// GPU at grant time; the record never migrates).
    home: usize,
}

impl Lease {
    pub(crate) fn new(
        arbiter: ClusterArbiter,
        id: u64,
        job: JobId,
        mut gpus: Vec<GpuId>,
        epoch: u64,
        home: usize,
    ) -> Self {
        gpus.sort_unstable();
        Self {
            arbiter,
            id,
            job,
            gpus,
            epoch,
            home,
        }
    }

    /// The owning job.
    pub fn job(&self) -> JobId {
        self.job
    }

    /// The owned GPUs, ascending (as of the last sync — see
    /// [`Lease::sync`] for the forced-mutation contract).
    pub fn gpus(&self) -> &[GpuId] {
        &self.gpus
    }

    /// Number of owned GPUs.
    pub fn gpu_count(&self) -> u32 {
        self.gpus.len() as u32
    }

    /// The arbiter epoch this lease was last (re)stamped at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The arbiter-side record, read from the home shard's published
    /// snapshot (no queue or shard lock; `None` once reaped or fully
    /// revoked).
    // lint: lock-free
    fn record(&self) -> Option<Arc<LeaseView>> {
        self.arbiter.inner.shards[self.home]
            .snap
            .load()
            .live
            .get(&self.id)
            .cloned()
    }

    /// True while the lease exists arbiter-side (not reaped, not fully
    /// revoked). Reads the published snapshot.
    // lint: lock-free
    pub fn is_live(&self) -> bool {
        self.record().is_some()
    }

    /// The logical time this lease lapses unless renewed (`None` for
    /// untermed or already-lapsed leases). Reads the published snapshot.
    // lint: lock-free
    pub fn expires_at(&self) -> Option<u64> {
        self.record().and_then(|r| r.expires_at)
    }

    /// The arbiter's pending shrink demand against this lease, if any:
    /// give back [`ShrinkDemand::gpus`] GPUs before
    /// [`ShrinkDemand::deadline`] (via [`Lease::shrink`], which clears
    /// the demand) or the arbiter force-reclaims them. Reads the
    /// published snapshot.
    // lint: lock-free
    pub fn pending_demand(&self) -> Option<ShrinkDemand> {
        self.record().and_then(|r| r.demand)
    }

    /// Reconciles the handle with the arbiter's record after forced
    /// mutations (revocations, reaping). On
    /// [`LeaseEvent::Resized`]/[`LeaseEvent::Lapsed`] the handle's slot
    /// list and fingerprint change: the job must drop solvers bound to
    /// the old view and re-bind ([`Lease::bind`]) before planning again
    /// — the fingerprint change keeps the plan *cache* honest on its
    /// own, but a live pre-sync solver would still plan onto GPUs the
    /// arbiter has since moved to another tenant.
    ///
    /// Syncs read the home shard's published snapshot and never wait on
    /// the queue lock or a shard lock, even mid-grant or
    /// mid-maintenance; the snapshot load takes only the publish-slot
    /// mutex for a pointer copy.
    // lint: lock-free
    pub fn sync(&mut self) -> LeaseEvent {
        match self.record() {
            None => {
                self.gpus.clear();
                LeaseEvent::Lapsed
            }
            Some(rec) if rec.gpus != self.gpus => {
                let lost = (self.gpus.len() - rec.gpus.len()) as u32;
                self.gpus = rec.gpus.clone();
                self.epoch = rec.stamp;
                LeaseEvent::Resized { lost }
            }
            Some(_) => LeaseEvent::Unchanged,
        }
    }

    /// The restricted free-slot view of this lease: exactly the owned
    /// GPUs are free, everything else (other jobs' slots included) is
    /// invisible.
    pub fn view(&self) -> NodeSlots {
        NodeSlots::restricted_to(self.arbiter.topology(), &self.gpus)
    }

    /// The availability fingerprint: ledger epoch + per-node free-slot
    /// vector. Changes whenever the lease's slots or the stamp epoch do.
    // lint: lock-free
    pub fn fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.epoch.hash(&mut h);
        self.view().fingerprint().hash(&mut h);
        h.finish()
    }

    /// Binds `solver` to this lease: the returned solver plans and places
    /// only within the lease's slots, and carries the lease fingerprint
    /// into every plan-cache key.
    ///
    /// The binding is a **snapshot**. After any [`Lease::grow`],
    /// [`Lease::shrink`], [`Lease::renew`], or a [`Lease::sync`] that
    /// reported a change, previously bound solvers (and services spawned
    /// from them) hold a stale view of the slots and must be dropped and
    /// re-bound before further planning — a stale solver can otherwise
    /// place onto GPUs the arbiter has since granted to another tenant.
    /// `SolverService::rebind` is the running-service form of this step.
    ///
    /// # Panics
    ///
    /// Panics if the solver's cost model describes a different cluster,
    /// or if the lease has lapsed (it owns no slots to plan within).
    pub fn bind(&self, solver: FlexSpSolver) -> FlexSpSolver {
        solver.with_availability(self.view(), self.fingerprint())
    }

    /// Re-stamps the lease at the arbiter's current epoch (bumping it)
    /// and — for term-bearing leases — restarts the term from the
    /// clock's current time, without changing its slots. Long-lived jobs
    /// renew after observing ledger churn so their fingerprint — and
    /// with it their plan-cache identity — stays fresh, and once per
    /// term window so the reaper knows they are alive.
    ///
    /// Renewal touches only the home shard's lock: under sharding,
    /// thousands of tenants renewing against different shards never
    /// contend.
    ///
    /// # Errors
    ///
    /// [`LeaseError::Lapsed`] if the lease no longer exists arbiter-side
    /// (the handle's mirror is emptied, as a [`Lease::sync`] would).
    pub fn renew(&mut self) -> Result<(), LeaseError> {
        let now = self.arbiter.now();
        let inner = Arc::clone(&self.arbiter.inner);
        let mut state = inner.lock_shard(self.home);
        let Some(view) = state.live().get(&self.id).cloned() else {
            self.gpus.clear();
            return Err(LeaseError::Lapsed);
        };
        let epoch = inner.bump_epoch();
        let mut nv = (*view).clone();
        nv.stamp = epoch;
        if let Some(term) = nv.term {
            nv.expires_at = Some(now + term);
        }
        self.gpus = nv.gpus.clone();
        self.epoch = epoch;
        state.put(self.id, nv);
        inner.publish(self.home, &state);
        Ok(())
    }

    /// Grows the lease by `extra` GPUs drawn from the free pool (with the
    /// lease's job-level SKU preference left to the caller via
    /// `prefer`). The lease is re-stamped: solvers or services bound to
    /// the pre-grow view hold a stale availability and must be re-bound
    /// ([`Lease::bind`]) before any further planning.
    ///
    /// # Errors
    ///
    /// [`LeaseError::Busy`] when the pool is short **or queued requests
    /// are waiting** — like [`ClusterArbiter::try_lease`], a grow may
    /// not jump capacity over the admission queue (FIFO would otherwise
    /// lose its starvation-freedom to incumbents growing in place);
    /// [`LeaseError::Lapsed`] if the lease no longer exists arbiter-side.
    /// The lease is unchanged on `Busy`; `Lapsed` additionally empties
    /// the handle's mirror (exactly what a [`Lease::sync`] would
    /// report), since the arbiter already holds its slots.
    pub fn grow(
        &mut self,
        extra: u32,
        prefer: Option<flexsp_sim::SkuId>,
    ) -> Result<(), LeaseError> {
        let inner = Arc::clone(&self.arbiter.inner);
        // A grow must see the whole pool (the draw may span shards) and
        // the queue (it may not jump waiting tenants).
        let mut ledger = LedgerGuard::lock(&inner);
        let Some(view) = ledger.record(self.home, self.id) else {
            self.gpus.clear();
            return Err(LeaseError::Lapsed);
        };
        if extra == 0 {
            return Ok(());
        }
        if extra > ledger.free() || !ledger.q.pending.is_empty() {
            return Err(LeaseError::Busy {
                requested: extra,
                free: ledger.free(),
            });
        }
        let grown = ledger
            .draw(extra, prefer)
            // lint: allow(unwrap) `extra <= ledger.free()` checked above under the same locks
            .expect("free count checked above");
        let mut nv = (*view).clone();
        nv.gpus.extend(grown);
        nv.gpus.sort_unstable();
        nv.stamp = inner.bump_epoch();
        self.gpus = nv.gpus.clone();
        self.epoch = nv.stamp;
        ledger.put(self.home, self.id, nv);
        inner.with_counters(self.job, |c| c.gpus_granted += extra as u64);
        Ok(())
    }

    /// Shrinks the lease by `release` GPUs, giving back the slots on the
    /// lease's emptiest nodes first (whole sparsely-held nodes drain
    /// before densely-held ones are touched, so the survivor stays
    /// node-contiguous and its realized span never widens). The lease is
    /// re-stamped and the admission queue pumped — a shrink is how a
    /// cooperative job hands capacity to waiting tenants, and a shrink
    /// of at least a pending demand's size clears the demand (graceful
    /// compliance with a revocation).
    ///
    /// **Stale views:** a solver or service bound before the shrink
    /// still sees the released GPUs as free — the fingerprint change
    /// only keeps its *cached plans* from being replayed, it does not
    /// stop it from planning. Drop pre-shrink bound solvers/services and
    /// re-bind ([`Lease::bind`] / `SolverService::rebind`) before
    /// submitting further batches; freed slots may already belong to
    /// another tenant.
    ///
    /// # Errors
    ///
    /// [`LeaseError::ShrinkTooLarge`] if `release >= gpu_count()` (drop
    /// the lease to give back everything); [`LeaseError::Lapsed`] if the
    /// lease no longer exists arbiter-side. The lease is unchanged on
    /// `ShrinkTooLarge`; `Lapsed` additionally empties the handle's
    /// mirror (exactly what a [`Lease::sync`] would report), since the
    /// arbiter already holds its slots.
    pub fn shrink(&mut self, release: u32) -> Result<(), LeaseError> {
        let now = self.arbiter.now();
        let topo = self.arbiter.topology().clone();
        let inner = Arc::clone(&self.arbiter.inner);
        // The freed slots may belong to any shard and the queue must be
        // pumped with them.
        let mut ledger = LedgerGuard::lock(&inner);
        let Some(view) = ledger.record(self.home, self.id) else {
            self.gpus.clear();
            return Err(LeaseError::Lapsed);
        };
        if release == 0 {
            return Ok(());
        }
        // Victims come from the *arbiter-side* record — the handle's
        // mirror may be stale across an unobserved forced shrink, and
        // releasing a GPU the arbiter already moved would corrupt the
        // ledger.
        let held = view.gpus.clone();
        if release as usize >= held.len() {
            return Err(LeaseError::ShrinkTooLarge {
                requested: release,
                held: held.len() as u32,
            });
        }
        let span_before = topo.span_of(&held);
        let victims = select_victims(&topo, &held, release);
        let mut nv = (*view).clone();
        nv.gpus.retain(|g| !victims.contains(g));
        nv.stamp = inner.bump_epoch();
        // Emptiest-node-first draining can only concentrate the
        // survivor: its realized span must never widen.
        debug_assert!(
            topo.span_of(&nv.gpus) <= span_before,
            "shrink widened the survivor's span"
        );
        // A voluntary shrink satisfies (part of) a pending demand.
        nv.demand = match nv.demand {
            Some(d) if release < d.gpus => Some(ShrinkDemand {
                gpus: d.gpus - release,
                ..d
            }),
            _ => None,
        };
        self.gpus = nv.gpus.clone();
        self.epoch = nv.stamp;
        ledger.put(self.home, self.id, nv);
        ledger.release(&victims);
        inner.with_counters(self.job, |c| c.gpus_released += victims.len() as u64);
        ledger.settle(now);
        Ok(())
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        let _release_span = tel::span!(
            tel::Category::Arbiter, "arbiter.release", "gpus" => self.gpus.len() as u64
        );
        let inner = Arc::clone(&self.arbiter.inner);
        // Release the *arbiter-side* slots: after an unobserved forced
        // shrink the handle's mirror would double-free GPUs that already
        // belong to another tenant; after a reap there is nothing left
        // to release at all. The home snapshot decides the path: forced
        // mutations only ever *shrink* a lease, so "all slots inside the
        // home shard" observed here still holds under the lock.
        let single = match self.arbiter.inner.shards[self.home]
            .snap
            .load()
            .live
            .get(&self.id)
        {
            None => return, // already reaped — an inert drop
            Some(v) => v.gpus.iter().all(|&g| inner.shard_of(g) == self.home),
        };
        if single {
            // Fast path: the lease lives entirely in its home shard, so
            // the release touches one lock and one snapshot publish.
            let mut state = inner.lock_shard(self.home);
            let Some(view) = state.take(self.id) else {
                return; // raced with a reap under the lock
            };
            debug_assert!(
                view.gpus.iter().all(|&g| inner.shard_of(g) == self.home),
                "a lease can only shrink, never migrate off its home shard"
            );
            state.free.release(&view.gpus);
            inner.bump_epoch();
            inner.with_counters(self.job, |c| {
                c.released += 1;
                c.gpus_released += view.gpus.len() as u64;
            });
            inner.publish(self.home, &state);
            drop(state);
            // Freed capacity only matters to waiters and standing
            // demands; with neither, the settle would be a no-op.
            if inner.pending_count.load(GAUGE) > 0 || inner.summed(|s| &s.demanded_count) > 0 {
                self.arbiter.settle_now();
            }
        } else {
            // Spanning lease: its slots return to several shards and the
            // queue pumps against the merged pool.
            let now = self.arbiter.now();
            let mut ledger = LedgerGuard::lock(&inner);
            let Some(view) = ledger.retire(self.home, self.id) else {
                return;
            };
            inner.with_counters(self.job, |c| {
                c.released += 1;
                c.gpus_released += view.gpus.len() as u64;
            });
            ledger.settle(now);
        }
    }
}
