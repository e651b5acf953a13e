//! Discrete-event replay: drives a generated [`Trace`] through the real
//! [`ClusterArbiter`] (and, sampled, the real [`SolverService`] planning
//! stack) on a [`LogicalClock`], producing a deterministic observation
//! log and per-job wait/admission/preemption/makespan statistics.
//!
//! The replay jumps the clock straight to the next trace event or
//! [`MaintenancePump`] deadline and polls the pump there — the
//! event-driven daemon's schedule, run synchronously. It logs only
//! *active* visits (a non-quiet maintenance report or at least one trace
//! event). Skipping the ticks in between changes nothing a tenant can
//! see: the pump maintains whenever a deadline is due, and a maintenance
//! pass when none is due is a no-op (the arbiter crate's pump property
//! test pins this).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use flexsp_arbiter::{
    AdmissionPolicy, ArbiterStats, ClusterArbiter, JobId, Lease, LeaseEvent, LogicalClock,
    MaintenancePump, Priority, SlotRequest, Ticket,
};
use flexsp_core::{CacheStats, FlexSpSolver, PlanStats, SolverConfig, SolverService};
use flexsp_cost::CostModel;
use flexsp_data::Sequence;
use flexsp_model::{ActivationPolicy, ModelConfig};
use flexsp_sim::{ClusterSpec, Topology};
use flexsp_telemetry as tel;
use flexsp_telemetry::{Histogram, HistogramSnapshot, MetricsSnapshot};

use crate::gen::{Trace, TraceOp};

/// The configuration every sampled job plans with: the fast experiment
/// settings with the per-solve MILP wall-clock limit lifted, so the node
/// budget always binds first. A plan is then a function of its inputs
/// alone, and so is the replay log, however loaded the host is.
fn replay_solver_config() -> SolverConfig {
    let mut config = SolverConfig::fast();
    config.planner.milp_time_limit = Duration::from_secs(3600);
    config
}

/// Replay parameters (the trace itself carries the workload).
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Ledger shards for the arbiter.
    pub shards: u32,
    /// Admission policy.
    pub policy: AdmissionPolicy,
    /// Shrink-demand grace window (ticks; clamped to ≥ 1 so deadlines
    /// are never due in the tick that issues them).
    pub grace: u64,
    /// Plan every n-th job through the real `SolverService` (jobs whose
    /// id divides evenly); `0` disables planning. Requires 8-wide nodes.
    pub plan_every: u64,
    /// Assert [`ClusterArbiter::audit`] at every active visit.
    pub audit: bool,
}

impl ReplayConfig {
    /// One shard, FIFO, a 1-tick grace window, no planning, no auditing.
    pub fn new() -> Self {
        Self {
            shards: 1,
            policy: AdmissionPolicy::Fifo,
            grace: 1,
            plan_every: 0,
            audit: false,
        }
    }
}

impl Default for ReplayConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// What one job experienced.
#[derive(Debug, Clone, Copy, Default)]
pub struct JobObs {
    /// Arrival tick.
    pub arrived: u64,
    /// Tick the job first held a lease, if ever admitted.
    pub admitted: Option<u64>,
    /// Tick the job departed (released its lease or canceled its
    /// ticket), if it did.
    pub departed: Option<u64>,
    /// GPUs the arbiter force-reclaimed from it (preemption).
    pub gpus_lost: u64,
    /// Whether its term lapsed and the reaper freed it.
    pub reaped: bool,
    /// Plans solved for it through the service stack.
    pub plans: u64,
}

/// Aggregate observations over one replay.
#[derive(Debug, Clone, Default)]
pub struct TraceStats {
    /// Jobs that arrived.
    pub jobs: usize,
    /// Jobs that ever held a lease.
    pub admitted: usize,
    /// Admissions granted immediately at arrival.
    pub immediate_grants: usize,
    /// Admissions via queue + claim.
    pub queued_claims: usize,
    /// Jobs that never held a lease.
    pub never_admitted: usize,
    /// Arbiter-side term reaps observed.
    pub reaps: usize,
    /// Jobs that lost GPUs to forced reclamation.
    pub preempted_jobs: usize,
    /// Total GPUs force-moved.
    pub gpus_moved: u64,
    /// Mean admission wait (ticks) over admitted jobs.
    pub wait_mean: f64,
    /// Median admission wait.
    pub wait_p50: u64,
    /// 99th-percentile admission wait.
    pub wait_p99: u64,
    /// Worst admission wait.
    pub wait_max: u64,
    /// Last departure minus first arrival.
    pub makespan: u64,
    /// Maintenance sweeps that actually ran (non-quiet).
    pub maintains: u64,
    /// Plans solved through the service stack.
    pub plans: u64,
    /// Replans forced by preemption resizes.
    pub replans: u64,
    /// Plans that returned an error (e.g. memory-infeasible lease).
    pub plan_failures: u64,
}

/// One replay's full output.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// The observation log: every grant, claim, sync, maintenance
    /// report, plan, and end-of-visit ledger line.
    pub log: Vec<String>,
    /// FNV-1a hash of the log — the determinism token two runs of the
    /// same seed must agree on.
    pub log_hash: u64,
    /// Aggregate statistics.
    pub stats: TraceStats,
    /// The arbiter's own operational counters at the end of the run.
    pub arbiter: ArbiterStats,
    /// Solver effort summed over the freshly solved plans; plans served
    /// from a plan cache add nothing.
    pub solver: PlanStats,
    /// Plan-cache counters summed over every planning job's service,
    /// read as the service shut down.
    pub cache: CacheStats,
    /// Deadline wakeups of the replay's pump
    /// ([`MaintenancePump::wakeups`]).
    pub pump_wakeups: u64,
    /// How late (ticks) the replay's pump fired each deadline
    /// ([`MaintenancePump::lateness`]).
    pub pump_lateness_ticks: HistogramSnapshot,
    /// Admission wait (ticks) of every admitted job.
    pub wait_ticks: HistogramSnapshot,
}

impl ReplayReport {
    /// This replay's counters, gauges, and histograms under their
    /// exported metric names — the one place those names are spelled.
    /// Every value is read from the report's own stats, so it describes
    /// this replay alone however many ran in the process.
    /// `flexsp.milp.*` counts the solves behind freshly solved plans:
    /// `flexsp.milp.solves` is their summed
    /// [`search_steps`](PlanStats::search_steps), and
    /// `flexsp.milp.{undecided_steps, split_failures}` count the steps
    /// among them that the search wasted, and
    /// `flexsp.milp.unwitnessed_steps` the steps that lowered the upper
    /// bound without a plan as fast as it.
    /// `flexsp.milp.{primal_pivots, dual_pivots, refactorizations,
    /// basis_reuse_misses}` are the LP engine's effort over their
    /// relaxations, the last counting warm starts that fell back to a cold
    /// solve.
    pub fn metrics(&self) -> MetricsSnapshot {
        let (a, c, s) = (&self.arbiter, &self.cache, &self.stats);
        let (p, m) = (&self.solver, &self.solver.milp);
        MetricsSnapshot {
            counters: vec![
                ("flexsp.arbiter.denials", a.denials),
                ("flexsp.arbiter.gpus_moved", a.gpus_moved),
                ("flexsp.arbiter.grants", a.grants),
                ("flexsp.arbiter.reaps", a.reaps),
                ("flexsp.cache.coalesced", c.coalesced),
                ("flexsp.cache.evictions", c.evictions),
                ("flexsp.cache.hits", c.hits),
                ("flexsp.cache.misses", c.misses),
                ("flexsp.milp.basis_reuse_misses", m.basis_reuse_misses),
                ("flexsp.milp.dual_pivots", m.dual_pivots),
                ("flexsp.milp.heuristic_incumbents", m.heuristic_incumbents),
                ("flexsp.milp.lp_solves", m.lp_solves),
                ("flexsp.milp.model_builds", u64::from(p.model_builds)),
                ("flexsp.milp.node_limit_stops", m.node_limit_stops),
                ("flexsp.milp.nodes", m.nodes),
                ("flexsp.milp.primal_pivots", m.primal_pivots),
                ("flexsp.milp.refactorizations", m.refactorizations),
                ("flexsp.milp.solves", u64::from(p.search_steps)),
                ("flexsp.milp.split_failures", u64::from(p.split_failures)),
                ("flexsp.milp.time_limit_stops", m.time_limit_stops),
                ("flexsp.milp.undecided_steps", u64::from(p.undecided_steps)),
                (
                    "flexsp.milp.unwitnessed_steps",
                    u64::from(p.unwitnessed_steps),
                ),
                ("flexsp.pump.wakeups", self.pump_wakeups),
                ("flexsp.replay.admitted", s.admitted as u64),
                ("flexsp.replay.jobs", s.jobs as u64),
                ("flexsp.replay.plans", s.plans),
                ("flexsp.replay.reaps", s.reaps as u64),
            ],
            gauges: vec![
                ("flexsp.arbiter.free_gpus", i64::from(a.free_gpus)),
                ("flexsp.arbiter.queue_depth", a.queue_depth as i64),
                ("flexsp.cache.entries", c.entries as i64),
            ],
            histograms: vec![
                (
                    "flexsp.pump.lateness_ticks",
                    self.pump_lateness_ticks.clone(),
                ),
                ("flexsp.replay.wait_ticks", self.wait_ticks.clone()),
            ],
        }
    }
}

/// FNV-1a over the log lines (stable across runs and platforms, unlike
/// `DefaultHasher`'s unspecified algorithm).
pub fn log_hash(lines: &[String]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in lines {
        for b in line.bytes().chain(std::iter::once(b'\n')) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// SplitMix64 step — the deterministic per-job batch source.
fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic varying-length batch for job `job`'s `nth` solve.
fn batch_for(seed: u64, job: u64, nth: u64) -> Vec<Sequence> {
    let mut x = seed ^ job.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ nth.rotate_left(17);
    let n = 4 + (splitmix(&mut x) % 5) as usize;
    (0..n as u64)
        .map(|i| Sequence::new(i, 1024 + splitmix(&mut x) % 7168))
        .collect()
}

/// A job's live slice of the replay: its lease and, if sampled for
/// planning, its solver service.
struct Slot {
    job: u64,
    lease: Lease,
    service: Option<SolverService>,
    replans: u64,
}

struct Engine<'a> {
    trace: &'a Trace,
    cfg: &'a ReplayConfig,
    clock: LogicalClock,
    arb: ClusterArbiter,
    pump: MaintenancePump,
    cost: Option<CostModel>,
    held: Vec<Slot>,
    tickets: Vec<(u64, Ticket)>,
    log: Vec<String>,
    obs: BTreeMap<u64, JobObs>,
    stats: TraceStats,
    solver: PlanStats,
    cache: CacheStats,
}

impl Engine<'_> {
    /// Shuts down a leaving job's planning service, keeping its cache
    /// counters for the report.
    fn retire(&mut self, service: Option<SolverService>) {
        if let Some(service) = service {
            self.cache.absorb(&service.cache_stats());
            service.shutdown();
        }
    }

    /// Solves one iteration for `slot` through its service and asserts
    /// the invariant the chaos proptest leans on: every placed GPU is
    /// inside the lease *as last synced* — no plan ever references a
    /// slot freed before its job's last sync.
    fn plan(&mut self, idx: usize, now: u64) {
        let slot = &mut self.held[idx];
        let Some(service) = &slot.service else {
            return;
        };
        let nth = slot.replans + self.obs.get(&slot.job).map_or(0, |o| o.plans);
        let _plan_span = tel::span!(tel::Category::Replay, "job.plan", "job" => slot.job);
        service.submit(batch_for(self.trace.seed, slot.job, nth));
        match service.recv_plan() {
            Ok(solved) => {
                let placed: Vec<_> = solved
                    .plan
                    .micro_batches
                    .iter()
                    .flat_map(|mb| &mb.groups)
                    .flat_map(|g| g.placement.as_ref().expect("placed plan").gpus())
                    .copied()
                    .collect();
                for gpu in &placed {
                    assert!(
                        slot.lease.gpus().contains(gpu),
                        "job {} planned on {gpu:?}, outside its synced lease {:?}",
                        slot.job,
                        slot.lease.gpus(),
                    );
                }
                self.log.push(format!(
                    "  t={now} plan {} mb={} gpus={} pred={:.4}",
                    slot.job,
                    solved.plan.micro_batches.len(),
                    placed.len(),
                    solved.predicted_s,
                ));
                self.stats.plans += 1;
                self.obs.entry(slot.job).or_default().plans += 1;
                if !solved.from_cache {
                    self.solver.absorb(&solved.stats);
                }
            }
            Err(e) => {
                self.log
                    .push(format!("  t={now} plan {} err {e:?}", slot.job));
                self.stats.plan_failures += 1;
            }
        }
    }

    /// Installs a planning service for a newly admitted, sampled job.
    fn admit(&mut self, job: u64, lease: Lease, now: u64, immediate: bool) {
        tel::instant!(tel::Category::Replay, "job.admit", "job" => job);
        let o = self.obs.entry(job).or_default();
        if o.admitted.is_none() {
            o.admitted = Some(now);
        }
        self.stats.admitted += 1;
        if immediate {
            self.stats.immediate_grants += 1;
        } else {
            self.stats.queued_claims += 1;
        }
        let sampled = self.cfg.plan_every > 0 && job.is_multiple_of(self.cfg.plan_every);
        let service = match (&self.cost, sampled) {
            (Some(cost), true) => {
                let solver = lease.bind(FlexSpSolver::new(cost.clone(), replay_solver_config()));
                Some(SolverService::spawn(solver, 1))
            }
            _ => None,
        };
        let planned = service.is_some();
        self.held.push(Slot {
            job,
            lease,
            service,
            replans: 0,
        });
        if planned {
            self.plan(self.held.len() - 1, now);
        }
    }

    /// One visit at time `now`: poll the pump, apply this tick's trace
    /// events, run claims and syncs, and log — but only when the visit
    /// was *active* (something observable happened).
    fn visit(&mut self, now: u64, first_event: &mut usize) {
        let report = self.pump.poll().unwrap_or_default();
        let mut evs = Vec::new();
        while *first_event < self.trace.events.len() && self.trace.events[*first_event].at <= now {
            evs.push(self.trace.events[*first_event]);
            *first_event += 1;
        }
        if report.is_quiet() && evs.is_empty() {
            return;
        }
        let _visit_span =
            tel::span!(tel::Category::Replay, "replay.visit", "events" => evs.len() as u64);

        if !report.is_quiet() {
            self.stats.maintains += 1;
            for &(JobId(job), _) in &report.expired {
                let o = self.obs.entry(job).or_default();
                o.reaped = true;
                self.stats.reaps += 1;
            }
            self.log.push(format!("t={now} maintain {report:?}"));
        }

        for ev in evs {
            self.apply(ev, now);
        }

        // Claims, then syncs — exactly as a tenant fleet pumping the
        // arbiter would run them after each step.
        let mut claimed = Vec::new();
        let mut waiting = Vec::new();
        for (job, t) in std::mem::take(&mut self.tickets) {
            match self.arb.claim(&t) {
                Some(l) => claimed.push((job, l)),
                None => waiting.push((job, t)),
            }
        }
        self.tickets = waiting;
        for (job, lease) in claimed {
            self.log
                .push(format!("  t={now} claim {job} n={}", lease.gpu_count()));
            self.admit(job, lease, now, false);
        }

        let mut resized = Vec::new();
        let mut lapsed = Vec::new();
        for (i, slot) in self.held.iter_mut().enumerate() {
            let ev = slot.lease.sync();
            self.log.push(format!(
                "  t={now} sync {} {ev:?} n={} fp={:016x}",
                slot.job,
                slot.lease.gpu_count(),
                slot.lease.fingerprint(),
            ));
            match ev {
                LeaseEvent::Resized { lost } => {
                    let o = self.obs.entry(slot.job).or_default();
                    if o.gpus_lost == 0 {
                        self.stats.preempted_jobs += 1;
                    }
                    o.gpus_lost += u64::from(lost);
                    self.stats.gpus_moved += u64::from(lost);
                    resized.push(i);
                }
                LeaseEvent::Lapsed => lapsed.push(i),
                LeaseEvent::Unchanged => {}
            }
        }
        for i in resized {
            if self.held[i].service.is_some() && self.held[i].lease.gpu_count() > 0 {
                let slot = &mut self.held[i];
                let solver = slot.lease.bind(FlexSpSolver::new(
                    self.cost.clone().expect("planned slot has a cost model"),
                    replay_solver_config(),
                ));
                slot.service.as_ref().expect("checked").rebind(solver);
                slot.replans += 1;
                self.stats.replans += 1;
                self.plan(i, now);
            }
        }
        for i in lapsed.into_iter().rev() {
            let slot = self.held.remove(i);
            self.retire(slot.service);
        }

        self.log.push(format!(
            "  t={now} free={} live={} pending={} epoch={}",
            self.arb.free_gpus(),
            self.arb.live_leases(),
            self.arb.pending_requests(),
            self.arb.epoch(),
        ));
        if self.cfg.audit {
            let audit = self.arb.audit();
            assert!(audit.is_ok(), "t={now}: {audit:?}");
        }
    }

    fn apply(&mut self, ev: crate::gen::TraceEvent, now: u64) {
        let job = ev.job;
        match ev.op {
            TraceOp::Arrive {
                gpus,
                priority,
                term,
                immediate,
            } => {
                tel::instant!(tel::Category::Replay, "job.arrive", "job" => job);
                self.stats.jobs += 1;
                self.obs.entry(job).or_default().arrived = now;
                let mut req = SlotRequest::new(JobId(job), gpus).with_priority(Priority(priority));
                if let Some(t) = term {
                    req = req.with_term(t);
                }
                if immediate {
                    match self.arb.try_lease(req) {
                        Ok(l) => {
                            self.log
                                .push(format!("t={now} lease {job} granted {}", l.gpu_count()));
                            self.admit(job, l, now, true);
                            return;
                        }
                        Err(e) => self.log.push(format!("t={now} lease {job} -> {e:?}")),
                    }
                }
                match self.arb.request(req) {
                    Ok(t) => {
                        self.log.push(format!("t={now} queued {job}"));
                        self.tickets.push((job, t));
                    }
                    Err(e) => {
                        self.log.push(format!("t={now} request {job} -> {e:?}"));
                        self.obs.entry(job).or_default().departed = Some(now);
                    }
                }
            }
            TraceOp::Grow { gpus } => match self.held.iter_mut().find(|s| s.job == job) {
                Some(slot) => {
                    let r = slot.lease.grow(gpus, None);
                    self.log.push(format!(
                        "t={now} grow {job} +{gpus} -> {r:?} n={}",
                        slot.lease.gpu_count()
                    ));
                }
                None => self.log.push(format!("t={now} grow {job} gone")),
            },
            TraceOp::Shrink { gpus } => match self.held.iter_mut().find(|s| s.job == job) {
                Some(slot) => {
                    let r = slot.lease.shrink(gpus);
                    self.log.push(format!(
                        "t={now} shrink {job} -{gpus} -> {r:?} n={}",
                        slot.lease.gpu_count()
                    ));
                }
                None => self.log.push(format!("t={now} shrink {job} gone")),
            },
            TraceOp::Renew => match self.held.iter_mut().find(|s| s.job == job) {
                Some(slot) => {
                    let r = slot.lease.renew();
                    self.log.push(format!("t={now} renew {job} -> {r:?}"));
                }
                None => self.log.push(format!("t={now} renew {job} gone")),
            },
            TraceOp::Depart => {
                tel::instant!(tel::Category::Replay, "job.depart", "job" => job);
                if let Some(i) = self.held.iter().position(|s| s.job == job) {
                    let slot = self.held.remove(i);
                    self.log
                        .push(format!("t={now} depart {job} n={}", slot.lease.gpu_count()));
                    self.retire(slot.service);
                    drop(slot.lease);
                    self.obs.entry(job).or_default().departed = Some(now);
                } else if let Some(i) = self.tickets.iter().position(|(j, _)| *j == job) {
                    let (_, t) = self.tickets.remove(i);
                    self.arb.cancel(&t);
                    self.log.push(format!("t={now} depart {job} canceled"));
                    self.obs.entry(job).or_default().departed = Some(now);
                } else {
                    self.log.push(format!("t={now} depart {job} gone"));
                    self.obs.entry(job).or_default().departed = Some(now);
                }
            }
        }
    }
}

/// Replays `trace` against a fresh arbiter per `cfg`, returning the
/// observation log, its hash, and aggregate statistics. Deterministic:
/// same trace + same config ⇒ bit-identical log.
pub fn replay(trace: &Trace, cfg: &ReplayConfig) -> ReplayReport {
    let topo = Topology::new(trace.nodes, trace.node_width);
    let clock = LogicalClock::new();
    let arb = ClusterArbiter::with_clock(&topo, cfg.policy, Arc::new(clock.clone()))
        .with_shards(cfg.shards)
        .with_grace(cfg.grace.max(1));
    let pump = MaintenancePump::new(arb.clone());
    let cost = (cfg.plan_every > 0).then(|| {
        assert_eq!(
            trace.node_width, 8,
            "planned replays model the cluster as uniform 8-GPU A100 nodes"
        );
        let cluster = ClusterSpec::a100_cluster(trace.nodes);
        let model = ModelConfig::gpt_7b(48 * 1024);
        CostModel::fit(&cluster, &model, ActivationPolicy::None)
    });
    let mut eng = Engine {
        trace,
        cfg,
        clock,
        arb,
        pump,
        cost,
        held: Vec::new(),
        tickets: Vec::new(),
        log: Vec::new(),
        obs: BTreeMap::new(),
        stats: TraceStats::default(),
        solver: PlanStats::default(),
        cache: CacheStats::default(),
    };

    let mut first_event = 0usize;
    let mut now = 0u64;
    eng.visit(0, &mut first_event);
    loop {
        let next_trace = trace
            .events
            .get(first_event)
            .map(|e| e.at.max(now + 1))
            .filter(|&t| t <= trace.horizon);
        let next_deadline = eng
            .pump
            .next_deadline()
            .map(|d| d.max(now + 1))
            .filter(|&d| d <= trace.horizon);
        let Some(t) = next_trace.into_iter().chain(next_deadline).min() else {
            break;
        };
        eng.clock.advance(t - now);
        now = t;
        eng.visit(t, &mut first_event);
    }

    // Wind-down: drop whatever is still held (leaked or still pending at
    // the horizon), cancel stale tickets, and log the final ledger.
    for slot in std::mem::take(&mut eng.held) {
        eng.log.push(format!(
            "end drop {} n={}",
            slot.job,
            slot.lease.gpu_count()
        ));
        eng.retire(slot.service);
    }
    for (job, t) in std::mem::take(&mut eng.tickets) {
        eng.arb.cancel(&t);
        eng.log.push(format!("end cancel {job}"));
    }
    eng.log.push(format!(
        "end free={} epoch={} fp={:016x}",
        eng.arb.free_gpus(),
        eng.arb.epoch(),
        eng.arb.fingerprint(),
    ));
    eng.log
        .push(format!("fairness={:?}", eng.arb.fairness_all()));

    // Aggregate per-job observations into the report.
    let mut waits: Vec<u64> = Vec::new();
    let mut first_arrival = u64::MAX;
    let mut last_departure = 0u64;
    for o in eng.obs.values() {
        first_arrival = first_arrival.min(o.arrived);
        if let Some(d) = o.departed {
            last_departure = last_departure.max(d);
        }
        if let Some(a) = o.admitted {
            waits.push(a - o.arrived);
        }
    }
    eng.stats.never_admitted = eng.stats.jobs.saturating_sub(eng.stats.admitted);
    waits.sort_unstable();
    let wait_ticks = Histogram::new();
    for &w in &waits {
        wait_ticks.record(w);
    }
    if !waits.is_empty() {
        eng.stats.wait_mean = waits.iter().sum::<u64>() as f64 / waits.len() as f64;
        eng.stats.wait_p50 = waits[waits.len() / 2];
        eng.stats.wait_p99 = waits[(waits.len() * 99 / 100).min(waits.len() - 1)];
        eng.stats.wait_max = *waits.last().expect("non-empty");
    }
    if last_departure > 0 && first_arrival < u64::MAX {
        eng.stats.makespan = last_departure - first_arrival;
    }

    let hash = log_hash(&eng.log);
    let arbiter = eng.arb.stats();
    ReplayReport {
        log: eng.log,
        log_hash: hash,
        stats: eng.stats,
        arbiter,
        solver: eng.solver,
        cache: eng.cache,
        pump_wakeups: eng.pump.wakeups(),
        pump_lateness_ticks: eng.pump.lateness(),
        wait_ticks: wait_ticks.snapshot(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, TraceConfig};

    #[test]
    fn quick_trace_replays_deterministically() {
        let trace = generate(&TraceConfig::quick(11));
        let a = replay(&trace, &ReplayConfig::new());
        let b = replay(&trace, &ReplayConfig::new());
        assert_eq!(a.log, b.log);
        assert_eq!(a.log_hash, b.log_hash);
        assert!(a.stats.jobs == 40);
        assert!(a.stats.admitted > 0, "{:?}", a.stats);
        assert!(a.stats.maintains > 0, "terms and demands must fire");
    }

    #[test]
    fn audit_holds_at_every_active_visit() {
        let trace = generate(&TraceConfig::quick(5));
        let mut cfg = ReplayConfig::new();
        cfg.audit = true;
        cfg.shards = 2;
        let r = replay(&trace, &cfg);
        assert!(r.stats.admitted > 0);
    }

    #[test]
    fn sampled_planning_runs_through_the_service_stack() {
        let mut tc = TraceConfig::quick(23);
        tc.jobs = 12;
        let trace = generate(&tc);
        let mut cfg = ReplayConfig::new();
        cfg.plan_every = 4;
        let r = replay(&trace, &cfg);
        assert!(
            r.stats.plans + r.stats.plan_failures > 0,
            "sampled jobs must reach the solver: {:?}",
            r.stats
        );
    }
}
