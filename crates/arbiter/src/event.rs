//! Event-driven maintenance, the one path that runs it: a
//! [`MaintenancePump`] that fires lease deadlines, and a background
//! [`ClusterDaemon`] thread that runs the pump on wall time.
//!
//! [`MaintenancePump`] owns an arbiter plus a plain list of its leases'
//! deadlines: one per termed or demanded lease, the nearer of its term
//! expiry and its shrink demand's grace deadline. It rebuilds the list
//! from the published shard snapshots — without the queue or a shard
//! lock — whenever a shard published since its last scan, so a renewal
//! or a satisfied demand replaces a lease's old deadline and a reaped or
//! dropped lease's deadline is gone. The gate is the arbiter's
//! publication count (`publish_seq`), which each publication bumps after
//! storing its snapshot; the ledger epoch cannot serve, because
//! mutations bump it before they publish and demand issuance publishes
//! without bumping it.
//!
//! The pump runs the arbiter's maintenance pass only when a deadline is
//! actually due; nothing else runs that pass. Because every capacity
//! change in the arbiter settles at its source operation, a pass at a
//! time with no due deadline would be observably a no-op, so skipping it
//! loses nothing. This module's
//! `maintain_after_poll_is_quiet_and_changes_nothing` property pins that
//! under random churn.
//!
//! [`ClusterDaemon`] wraps the pump in a thread sleeping on a
//! `Condvar` until the next deadline (converted to wall time by
//! [`WallClock`](crate::WallClock)), with a bounded idle poll so leases
//! granted while it slept are picked up within a tick. The same pump,
//! driven synchronously on a [`LogicalClock`](crate::LogicalClock), is
//! the engine of the `flexsp-trace` discrete-event simulator.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

use flexsp_telemetry as tel;
use flexsp_telemetry::{Counter, Histogram, HistogramSnapshot};

use crate::arbiter::{ClusterArbiter, TickReport};
use crate::clock::WallClock;

/// An arbiter plus the deadlines of its leases (term expiry or
/// shrink-demand grace), re-read from the published shard snapshots
/// whenever a shard publishes.
///
/// [`poll`](MaintenancePump::poll) is the single step both execution
/// styles share: the [`ClusterDaemon`] calls it from a thread on a
/// [`WallClock`](crate::WallClock); the `flexsp-trace` simulator and
/// tests call it synchronously on a [`LogicalClock`](crate::LogicalClock).
/// It is the only caller of the arbiter's maintenance pass, and calls it
/// only when a deadline is due; because every capacity change settles at
/// its source operation, a pass when none is due would change nothing.
#[derive(Debug)]
pub struct MaintenancePump {
    arbiter: ClusterArbiter,
    /// The nearest deadline, `min(expires_at, demand.deadline)`, of each
    /// termed or demanded lease at the last rescan, less those a poll
    /// fired since. Unordered: its readers want the minimum, the ones
    /// due and the count.
    deadlines: Vec<u64>,
    /// The arbiter's publication count read just before the last rescan
    /// — the rescan gate. Each publication bumps it after storing its
    /// snapshot, so one the scan missed always reopens the gate.
    seen: Option<u64>,
    /// Polls that found a deadline due and ran maintenance. Shared so a
    /// [`ClusterDaemon`] can report it while its thread owns the pump.
    wakeups: Arc<Counter>,
    /// `now − deadline`, in ticks, of every deadline a poll fired.
    /// Shared with a [`ClusterDaemon`] like `wakeups`.
    lateness: Arc<Histogram>,
}

impl MaintenancePump {
    /// A pump over `arbiter`, with its deadlines read from the current
    /// ledger.
    pub fn new(arbiter: ClusterArbiter) -> Self {
        let mut pump = Self {
            arbiter,
            deadlines: Vec::new(),
            seen: None,
            wakeups: Arc::default(),
            lateness: Arc::default(),
        };
        pump.refresh();
        pump
    }

    /// The arbiter this pump maintains.
    pub fn arbiter(&self) -> &ClusterArbiter {
        &self.arbiter
    }

    /// Deadlines currently pending (one per termed or demanded lease,
    /// less those fired since the last rescan).
    pub fn scheduled(&self) -> usize {
        self.deadlines.len()
    }

    /// Polls that found a deadline due and ran a maintenance pass.
    pub fn wakeups(&self) -> u64 {
        self.wakeups.get()
    }

    /// How late each fired deadline was: `now − deadline` in ticks, one
    /// sample per deadline a poll fired (a wakeup can fire several).
    pub fn lateness(&self) -> HistogramSnapshot {
        self.lateness.snapshot()
    }

    /// Rebuilds the deadline list from the published shard snapshots if
    /// any shard published since the last scan. Each snapshot load takes
    /// the shard's publish-slot mutex for one pointer copy; nothing here
    /// touches the queue lock or a shard lock.
    ///
    /// Each rebuild reads every lease afresh, so a renewal (new
    /// `expires_at`) or a satisfied demand replaces the lease's old
    /// deadline, and a reaped or dropped lease's deadline is gone.
    // lint: lock-free
    fn refresh(&mut self) {
        let stamp = self.arbiter.inner.publish_seq.load(Ordering::Acquire);
        if self.seen == Some(stamp) {
            return;
        }
        let _rescan_span = tel::span!(tel::Category::Pump, "pump.rescan", "publishes" => stamp);
        self.seen = Some(stamp);
        self.deadlines.clear();
        for shard in self.arbiter.inner.shards.iter() {
            let snap = shard.snap.load();
            self.deadlines.extend(snap.live.values().filter_map(|view| {
                let grace = view.demand.map(|d| d.deadline);
                view.expires_at.into_iter().chain(grace).min()
            }));
        }
    }

    /// The earliest pending deadline, after refreshing from the ledger.
    /// `None` when no lease has a term or standing demand.
    pub fn next_deadline(&mut self) -> Option<u64> {
        self.refresh();
        self.deadlines.iter().copied().min()
    }

    /// One pump step at the arbiter clock's current time: refresh the
    /// deadlines, and if any is due, remove the due ones, record how late
    /// each fired, run one maintenance pass and re-refresh (the pass
    /// mutates the ledger). Returns the pass's report, or `None` when
    /// nothing was due and maintenance was skipped entirely. A fired
    /// deadline cannot fire again until a shard publishes.
    pub fn poll(&mut self) -> Option<TickReport> {
        self.refresh();
        let now = self.arbiter.now();
        let pending = self.deadlines.len();
        self.deadlines.retain(|&at| {
            let due = at <= now;
            if due {
                self.lateness.record(now - at);
            }
            !due
        });
        if self.deadlines.len() == pending {
            return None;
        }
        let _wakeup_span = tel::span!(tel::Category::Pump, "pump.wakeup", "now" => now);
        self.wakeups.inc();
        let report = self.arbiter.maintain();
        self.refresh();
        Some(report)
    }
}

/// How long the daemon sleeps when no deadline is scheduled, and the cap
/// on any one sleep: a lease granted *after* the daemon chose its sleep
/// is discovered at the next wakeup, so the cap bounds that lag (callers
/// that cannot tolerate it call [`ClusterDaemon::wake`]).
const MAX_IDLE: Duration = Duration::from_millis(25);

#[derive(Debug, Default)]
struct DaemonShared {
    stop: Mutex<bool>,
    wake: Condvar,
    passes: AtomicU64,
}

/// A background maintenance loop: a thread running a
/// [`MaintenancePump`] against a [`WallClock`](crate::WallClock), so
/// lease expiry, grace windows, and renewals are enforced on wall time
/// with **no caller driving time at all**.
///
/// The thread sleeps until the next scheduled deadline (capped at a
/// short idle poll so newly granted termed leases are noticed), runs
/// maintenance only when a deadline is due, and exits on
/// [`shutdown`](ClusterDaemon::shutdown) or drop.
///
/// # Example
///
/// ```
/// use flexsp_arbiter::{
///     AdmissionPolicy, ClusterArbiter, ClusterDaemon, JobId, SlotRequest, WallClock,
/// };
/// use flexsp_sim::Topology;
/// use std::sync::Arc;
/// use std::time::Duration;
///
/// let clock = WallClock::new(Duration::from_millis(2));
/// let arbiter = ClusterArbiter::with_clock(
///     &Topology::new(2, 8),
///     AdmissionPolicy::Fifo,
///     Arc::new(clock.clone()),
/// );
/// let daemon = ClusterDaemon::spawn(arbiter.clone(), clock);
///
/// // "Crash" a tenant holding a 3-tick term: nobody polls, yet the
/// // daemon reaps the lease once its term lapses on the wall clock.
/// let lease = arbiter
///     .try_lease(SlotRequest::new(JobId(7), 8).with_term(3))
///     .unwrap();
/// std::mem::forget(lease);
/// let deadline = std::time::Instant::now() + Duration::from_secs(5);
/// while arbiter.free_gpus() != 16 {
///     assert!(std::time::Instant::now() < deadline, "daemon never reaped");
///     std::thread::sleep(Duration::from_millis(1));
/// }
/// assert_eq!(arbiter.stats().reaps, 1);
/// daemon.shutdown();
/// ```
#[derive(Debug)]
pub struct ClusterDaemon {
    shared: Arc<DaemonShared>,
    /// The pump's [`MaintenancePump::wakeups`] counter.
    wakeups: Arc<Counter>,
    /// The pump's [`MaintenancePump::lateness`] histogram.
    lateness: Arc<Histogram>,
    handle: Option<thread::JoinHandle<()>>,
}

impl ClusterDaemon {
    /// Spawns the maintenance thread over `arbiter`, reading deadlines
    /// against `clock`. The arbiter should have been built with
    /// [`ClusterArbiter::with_clock`] over (a clone of) the same clock,
    /// so the deadlines the pump reads and the time maintenance runs
    /// at agree.
    pub fn spawn(arbiter: ClusterArbiter, clock: WallClock) -> Self {
        let shared = Arc::new(DaemonShared::default());
        let inner = Arc::clone(&shared);
        let mut pump = MaintenancePump::new(arbiter);
        let wakeups = Arc::clone(&pump.wakeups);
        let lateness = Arc::clone(&pump.lateness);
        let handle = thread::Builder::new()
            .name("flexsp-arbiter-daemon".into())
            .spawn(move || {
                // lint: allow(lock) daemon stop flag — never held across any ranked ledger lock
                let mut stop = inner.stop.lock().unwrap_or_else(|e| e.into_inner());
                loop {
                    if *stop {
                        break;
                    }
                    drop(stop);
                    // Counted before the poll, so a caller that observes
                    // this pass's maintenance also observes the pass.
                    inner.passes.fetch_add(1, Ordering::Relaxed);
                    pump.poll();
                    let sleep = match pump.next_deadline() {
                        Some(at) => clock.until(at).min(MAX_IDLE),
                        None => MAX_IDLE,
                    };
                    // lint: allow(lock) daemon stop flag — never held across any ranked ledger lock
                    stop = inner.stop.lock().unwrap_or_else(|e| e.into_inner());
                    if *stop {
                        break;
                    }
                    (stop, _) = inner
                        .wake
                        .wait_timeout(stop, sleep)
                        .unwrap_or_else(|e| e.into_inner());
                }
            })
            // lint: allow(unwrap) OS thread-spawn failure at daemon startup is unrecoverable
            .expect("spawn arbiter daemon");
        Self {
            shared,
            wakeups,
            lateness,
            handle: Some(handle),
        }
    }

    /// Prods the daemon to re-read the ledger now instead of at its next
    /// scheduled wakeup — call after granting a termed lease if the idle
    /// poll lag matters.
    pub fn wake(&self) {
        // lint: allow(lock) daemon stop flag — never held across any ranked ledger lock
        let _g = self.shared.stop.lock().unwrap_or_else(|e| e.into_inner());
        self.shared.wake.notify_all();
    }

    /// Pump iterations the daemon has started (each wakeup is one pass).
    pub fn passes(&self) -> u64 {
        self.shared.passes.load(Ordering::Relaxed)
    }

    /// How many passes actually ran a maintenance sweep (a deadline was
    /// due); the rest were free. This is the pump's
    /// [`wakeups`](MaintenancePump::wakeups) count.
    pub fn maintains(&self) -> u64 {
        self.wakeups.get()
    }

    /// How late the daemon fired each deadline, in ticks: the pump's
    /// [`lateness`](MaintenancePump::lateness). On a [`WallClock`] a
    /// deadline fires late when the daemon overslept it, so this shows
    /// whether terms and grace windows lapse on time.
    pub fn lateness(&self) -> HistogramSnapshot {
        self.lateness.snapshot()
    }

    /// Stops and joins the maintenance thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if let Some(handle) = self.handle.take() {
            // lint: allow(lock) daemon stop flag — never held across any ranked ledger lock
            *self.shared.stop.lock().unwrap_or_else(|e| e.into_inner()) = true;
            self.shared.wake.notify_all();
            let _ = handle.join();
        }
    }
}

impl Drop for ClusterDaemon {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::LogicalClock;
    use crate::lease::Lease;
    use crate::policy::{JobId, Priority, SlotRequest};
    use crate::AdmissionPolicy;
    use flexsp_sim::Topology;
    use proptest::prelude::*;

    #[test]
    fn pump_reaps_only_at_due_deadlines() {
        let clock = LogicalClock::new();
        let arb = ClusterArbiter::with_clock(
            &Topology::new(2, 8),
            AdmissionPolicy::Fifo,
            Arc::new(clock.clone()),
        );
        let mut pump = MaintenancePump::new(arb.clone());
        assert_eq!(pump.next_deadline(), None);

        let lease = arb
            .try_lease(SlotRequest::new(JobId(1), 8).with_term(3))
            .unwrap();
        std::mem::forget(lease);
        assert_eq!(pump.next_deadline(), Some(3));

        clock.advance(2);
        assert!(pump.poll().is_none(), "t=2: term not lapsed, no sweep");
        assert_eq!(pump.wakeups(), 0, "a poll with nothing due is no wakeup");
        clock.advance(1);
        let report = pump.poll().expect("t=3: expiry due");
        assert_eq!(report.expired, vec![(JobId(1), 8)]);
        assert_eq!(pump.wakeups(), 1);
        assert_eq!(arb.free_gpus(), 16);
        assert_eq!(pump.next_deadline(), None, "reaped entry canceled");
    }

    #[test]
    fn pump_records_how_late_each_deadline_fired() {
        let clock = LogicalClock::new();
        let arb = ClusterArbiter::with_clock(
            &Topology::new(2, 8),
            AdmissionPolicy::Fifo,
            Arc::new(clock.clone()),
        );
        let mut pump = MaintenancePump::new(arb.clone());
        let lease = |job: u64, term: u64| {
            let lease = arb
                .try_lease(SlotRequest::new(JobId(job), 8).with_term(term))
                .unwrap();
            std::mem::forget(lease);
        };
        lease(1, 3);
        let deadline = pump.next_deadline().expect("termed lease scheduled");
        let now = clock.advance(deadline + 4);
        assert!(pump.poll().is_some(), "the term lapsed");
        let late = pump.lateness();
        assert_eq!((late.count, late.sum), (1, 4), "fired 4 ticks late");

        // A poll exactly at the deadline fires it on time.
        lease(2, 2);
        let deadline = pump.next_deadline().expect("termed lease scheduled");
        clock.advance(deadline - now);
        assert!(pump.poll().is_some(), "the second term lapsed");
        let late = pump.lateness();
        assert_eq!((late.count, late.sum), (2, 4), "the second fired on time");
        assert_eq!(late.counts[0], 1);
    }

    #[test]
    fn pump_renewal_supersedes_the_old_expiry() {
        let clock = LogicalClock::new();
        let arb = ClusterArbiter::with_clock(
            &Topology::new(1, 8),
            AdmissionPolicy::Fifo,
            Arc::new(clock.clone()),
        );
        let mut pump = MaintenancePump::new(arb.clone());
        let mut lease = arb
            .try_lease(SlotRequest::new(JobId(1), 4).with_term(4))
            .unwrap();
        assert_eq!(pump.next_deadline(), Some(4));
        clock.advance(3);
        lease.renew().unwrap();
        assert_eq!(pump.next_deadline(), Some(7), "renewal rescheduled");
        clock.advance(1);
        assert!(pump.poll().is_none(), "old expiry must not fire");
        assert!(lease.is_live());
    }

    #[test]
    fn pump_tracks_demand_grace_deadlines() {
        let clock = LogicalClock::new();
        let arb = ClusterArbiter::with_clock(
            &Topology::new(2, 8),
            AdmissionPolicy::Fifo,
            Arc::new(clock.clone()),
        )
        .with_grace(2);
        let mut pump = MaintenancePump::new(arb.clone());
        let low = arb
            .try_lease(SlotRequest::new(JobId(1), 16).with_priority(Priority::LOW))
            .unwrap();
        let ticket = arb
            .request(SlotRequest::new(JobId(2), 8).with_priority(Priority::CRITICAL))
            .unwrap();
        assert_eq!(
            pump.next_deadline(),
            Some(2),
            "demand grace deadline scheduled"
        );
        clock.advance(2);
        let report = pump.poll().expect("grace lapsed: forced shrink due");
        assert_eq!(report.reclaimed, vec![(JobId(1), 8)]);
        assert!(arb.claim(&ticket).is_some());
        drop(low);
        pump.next_deadline();
        assert_eq!(pump.scheduled(), 0);
    }

    #[test]
    fn pump_keeps_the_nearer_of_a_leases_term_and_demand() {
        let clock = LogicalClock::new();
        let arb = ClusterArbiter::with_clock(
            &Topology::new(2, 8),
            AdmissionPolicy::Fifo,
            Arc::new(clock.clone()),
        )
        .with_grace(2);
        let mut pump = MaintenancePump::new(arb.clone());
        let mut low = arb
            .try_lease(
                SlotRequest::new(JobId(1), 16)
                    .with_priority(Priority::LOW)
                    .with_term(10),
            )
            .unwrap();
        let ticket = arb
            .request(SlotRequest::new(JobId(2), 8).with_priority(Priority::CRITICAL))
            .unwrap();
        let demand = low
            .pending_demand()
            .expect("the queued request demands GPUs");
        assert_eq!(demand.deadline, 2);
        assert_eq!(pump.next_deadline(), Some(2), "the demand is nearer");
        assert_eq!(pump.scheduled(), 1, "one deadline per lease");
        low.shrink(demand.gpus).unwrap();
        let _high = arb.claim(&ticket).expect("the shrink admitted the request");
        assert_eq!(pump.next_deadline(), Some(10), "the term again");
        assert_eq!(pump.scheduled(), 1);
    }

    #[test]
    fn pump_sees_a_lease_published_after_it_read_the_gate() {
        // The interleaving a daemon thread can hit: a grant is registered
        // (epoch bumped) under its shard lock but not yet published when
        // the pump rescans. The publication must reopen the rescan gate.
        let clock = LogicalClock::new();
        let arb = ClusterArbiter::with_clock(
            &Topology::new(1, 8),
            AdmissionPolicy::Fifo,
            Arc::new(clock.clone()),
        );
        let mut pump = MaintenancePump::new(arb.clone());
        let inner = &arb.inner;
        let mut state = inner.lock_shard(0);
        let request = SlotRequest::new(JobId(1), 4).with_term(3);
        assert!(inner.grant_single(0, &mut state, &request, 0).is_some());
        assert_eq!(pump.next_deadline(), None, "the grant is not published yet");
        inner.publish(0, &state);
        drop(state);
        assert_eq!(pump.next_deadline(), Some(3), "the publication was missed");
    }

    #[test]
    fn daemon_reaps_on_wall_time_without_any_tick() {
        let clock = WallClock::new(Duration::from_millis(2));
        let arb = ClusterArbiter::with_clock(
            &Topology::new(2, 8),
            AdmissionPolicy::Fifo,
            Arc::new(clock.clone()),
        );
        let daemon = ClusterDaemon::spawn(arb.clone(), clock);
        let lease = arb
            .try_lease(SlotRequest::new(JobId(9), 12).with_term(2))
            .unwrap();
        std::mem::forget(lease);
        daemon.wake();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while arb.free_gpus() != 16 {
            assert!(
                std::time::Instant::now() < deadline,
                "daemon never reaped the lapsed lease"
            );
            thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(arb.stats().reaps, 1);
        assert!(daemon.passes() > 0);
        assert!(daemon.maintains() >= 1, "the reap ran in a pump wakeup");
        assert!(
            daemon.lateness().count >= daemon.maintains(),
            "each wakeup fires at least one deadline"
        );
        daemon.shutdown();
    }

    #[test]
    fn daemon_enforces_the_grace_window_on_wall_time() {
        let clock = WallClock::new(Duration::from_millis(2));
        let arb = ClusterArbiter::with_clock(
            &Topology::new(2, 8),
            AdmissionPolicy::Fifo,
            Arc::new(clock.clone()),
        )
        .with_grace(2);
        let daemon = ClusterDaemon::spawn(arb.clone(), clock);
        // A low-priority tenant holds the whole cluster and never shrinks.
        let low = arb
            .try_lease(SlotRequest::new(JobId(1), 16).with_priority(Priority::LOW))
            .unwrap();
        // Nothing is free, so the queued request demands its whole
        // 8-GPU ask back from the low tenant. (Reading the demand back
        // here would race the daemon, which may already have executed it.)
        let ticket = arb
            .request(SlotRequest::new(JobId(2), 8).with_priority(Priority::CRITICAL))
            .unwrap();
        daemon.wake();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let lease = loop {
            if let Some(lease) = arb.claim(&ticket) {
                break lease;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "daemon never force-executed the demand"
            );
            thread::sleep(Duration::from_millis(1));
        };
        assert_eq!(lease.gpu_count(), 8);
        assert_eq!(
            arb.fairness(JobId(1)).gpus_moved,
            8,
            "exactly the demand moved"
        );
        assert!(
            daemon.maintains() >= 1,
            "the forced shrink ran in a pump wakeup"
        );
        daemon.shutdown();
        drop(low);
    }

    #[test]
    fn daemon_shutdown_joins_cleanly_and_drop_is_idempotent() {
        let clock = WallClock::new(Duration::from_millis(1));
        let arb = ClusterArbiter::with_clock(
            &Topology::new(1, 8),
            AdmissionPolicy::Fifo,
            Arc::new(clock.clone()),
        );
        let daemon = ClusterDaemon::spawn(arb, clock);
        thread::sleep(Duration::from_millis(5));
        daemon.shutdown();
    }

    /// Everything a maintenance pass may change, read without the queue
    /// or a shard lock: epoch,
    /// ledger fingerprint, stats, every job's fairness counters, and each
    /// live lease's slots, demand and expiry.
    fn observe(arb: &ClusterArbiter) -> String {
        let mut leases: Vec<_> = arb
            .inner
            .shards
            .iter()
            .flat_map(|s| {
                let snap = s.snap.load();
                snap.live
                    .iter()
                    .map(|(id, v)| (*id, v.gpus.clone(), v.demand, v.expires_at))
                    .collect::<Vec<_>>()
            })
            .collect();
        leases.sort_unstable_by_key(|l| l.0);
        format!(
            "epoch={} fp={:x} {:?} {:?} {:?}",
            arb.epoch(),
            arb.fingerprint(),
            arb.stats(),
            arb.fairness_all(),
            leases
        )
    }

    /// A churn step `(kind, gpus, who, term, idx)`: immediate lease,
    /// queued request (kinds 1 and 2; kind 2 first cancels a waiting or
    /// granted ticket, if there is one), drop, shrink, grow, renew, claim
    /// every ticket, or (kinds 8 and 9) advance the clock `1 + idx % 3`
    /// ticks. `who` picks the job and its priority; `term > 3` bounds the
    /// lease to `term − 3` ticks. These weights make the pump both reap
    /// and force-execute demands in most cases.
    fn churn() -> impl Strategy<Value = Vec<(u8, u32, u8, u8, usize)>> {
        prop::collection::vec((0u8..=9, 1u32..=8, 0u8..=2, 0u8..=6, 0usize..8), 1..48)
    }

    proptest! {
        /// The pump never misses a due deadline: a maintenance pass run
        /// right after every poll, at the same tick, finds nothing to do
        /// and changes nothing — so maintaining only when the pump says a
        /// deadline is due is the same as maintaining on every tick.
        ///
        /// Every call also leaves the admission queue settled: a settle
        /// run right after each step (and after each cancel) grants
        /// nothing and changes nothing. `claim` rests on this to settle
        /// nothing itself.
        #[test]
        fn maintain_after_poll_is_quiet_and_changes_nothing(
            ops in churn(),
            shards in 1u32..=3,
            grace in 1u64..=3,
        ) {
            for policy in [AdmissionPolicy::Fifo, AdmissionPolicy::BestFitSkuClass] {
                let clock = LogicalClock::new();
                let arb = ClusterArbiter::with_clock(
                    &Topology::new(4, 4),
                    policy,
                    Arc::new(clock.clone()),
                )
                .with_shards(shards)
                .with_grace(grace);
                let mut pump = MaintenancePump::new(arb.clone());
                let mut held: Vec<Lease> = Vec::new();
                let mut tickets = Vec::new();
                let settled = |step: usize| -> Result<(), TestCaseError> {
                    let before = observe(&arb);
                    arb.settle_now();
                    prop_assert_eq!(
                        before,
                        observe(&arb),
                        "{} / {} shards / grace {}: step {} at t={} left the queue unsettled",
                        policy,
                        shards,
                        grace,
                        step,
                        arb.now()
                    );
                    Ok(())
                };
                for (step, &(kind, gpus, who, term, idx)) in ops.iter().enumerate() {
                    let mut req = SlotRequest::new(JobId(u64::from(who)), gpus)
                        .with_priority(Priority(who * 100));
                    if term > 3 {
                        req = req.with_term(u64::from(term - 3));
                    }
                    let pick = (!held.is_empty()).then(|| idx % held.len());
                    match (kind, pick) {
                        (0, _) => held.extend(arb.try_lease(req).ok()),
                        (1 | 2, _) => {
                            if kind == 2 && !tickets.is_empty() {
                                arb.cancel(&tickets.remove(idx % tickets.len()));
                                settled(step)?;
                            }
                            tickets.extend(arb.request(req).ok());
                        }
                        (3, Some(i)) => drop(held.remove(i)),
                        (4, Some(i)) => {
                            let _ = held[i].shrink(gpus);
                        }
                        (5, Some(i)) => {
                            let _ = held[i].grow(gpus, None);
                        }
                        (6, Some(i)) => {
                            let _ = held[i].renew();
                        }
                        (7, _) => tickets.retain(|t| match arb.claim(t) {
                            Some(lease) => {
                                held.push(lease);
                                false
                            }
                            None => true,
                        }),
                        (8 | 9, _) => {
                            clock.advance(1 + idx as u64 % 3);
                        }
                        _ => {}
                    }
                    settled(step)?;
                    held.retain_mut(|l| {
                        l.sync();
                        l.gpu_count() > 0
                    });
                    pump.poll();
                    let before = observe(&arb);
                    let report = arb.maintain();
                    prop_assert!(
                        report.is_quiet(),
                        "{policy} / {shards} shards / grace {grace}: step {step} at t={} \
                         left work for maintain: {report:?}",
                        arb.now()
                    );
                    prop_assert_eq!(before, observe(&arb));
                }
                drop(held);
                prop_assert!(arb.audit().is_ok(), "{:?}", arb.audit());
            }
        }
    }
}
