//! `cluster_churn`: multi-tenant lease churn with no planning.
//!
//! A generated trace of several thousand jobs on 64×8 GPUs, its arrival
//! rate scaled so the ledger runs near full: queueing, preemption, term
//! reaps and grow/shrink all fire. One driver thread replays the trace on
//! a `LogicalClock` plus a `MaintenancePump` through the arbiter's public
//! calls (`try_lease`, `request`/`claim`, `sync`, `grow`, `shrink`,
//! `renew`, drop, `poll`), on an auto-sharded ledger. A second thread polls
//! the read surface (`free_gpus`, `stats`, `fingerprint`) the whole time;
//! it cannot change outcomes. Each pass replays the whole trace on a fresh
//! arbiter and winds it down, so every pass must see the same outcomes;
//! passes repeat until the run's time is up.
//!
//! The headline latency is that of a whole visit (one logical tick: pump
//! poll, the tick's events, claims and a sync of every held lease), timed
//! as one batch of calls. Single `try_lease` and `claim` calls last a few
//! microseconds, and their median moved far more from run to run than the
//! batch timings did, so they are reported but not gated.
//!
//! A shared host slows this workload up to twice over for seconds to
//! minutes at a time. So every timing of it, `setup_s` included, is scaled
//! to a nominal host by a speed probe sampled between visits all through
//! each pass (see [`crate::speed`]); the report line keeps the raw
//! throughput and the probe's own time beside them. Per-layer timings of
//! a traced run stay raw.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::clock::Timer;

use flexsp_arbiter::{
    AdmissionPolicy, ArbiterStats, ClusterArbiter, JobId, Lease, LeaseError, LeaseEvent,
    LogicalClock, MaintenancePump, Priority, SlotRequest, Ticket,
};
use flexsp_sim::Topology;
use flexsp_trace::{generate, Trace, TraceConfig, TraceOp};

use crate::affinity;
use crate::layers::Layers;
use crate::report::{Fnv, Named, Outcome, Threads};
use crate::side::Side;
use crate::speed::HostSpeed;
use crate::stats::{percentile, tail, Reservoir};
use crate::{close_windows, Setup};

const NODES: u32 = 64;
const WIDTH: u32 = 8;
const JOBS: usize = 16_000;
/// Mean ticks between arrivals: offered load slightly above the 512 GPUs
/// (≈10 GPUs per job, held ≈40 ticks), so admission queues.
const INTERARRIVAL: f64 = 0.5;
/// Visits between `audit()` checkpoints.
const AUDIT_EVERY: u64 = 256;
/// Tail of the gated visit latency. A host phase that slows the arbiter
/// by a sixth moved the visit p99 by more than a quarter across ten seeds;
/// p90 follows the median more closely.
const VISIT_TAIL_P: f64 = 0.90;
/// Tail of single grant calls and admission waits (report line only).
const TAIL_P: f64 = 0.99;
/// Visits between samples of the speed probe: a sample takes about a
/// tenth of the time of the visits between two.
const PROBE_EVERY: u64 = 32;
/// Set-ups repeated between passes (see `Setup`); one takes ≈8 ms.
const SETUPS_PER_PASS: usize = 3;
/// Pause between the reader's polls.
const READ_PERIOD: Duration = Duration::from_millis(1);

fn trace_config(seed: u64) -> TraceConfig {
    TraceConfig {
        mean_interarrival: INTERARRIVAL,
        ..TraceConfig::new(JOBS, NODES, seed)
    }
}

struct Ledger {
    clock: LogicalClock,
    arb: ClusterArbiter,
    pump: MaintenancePump,
}

fn ledger() -> Ledger {
    let topo = Topology::new(NODES, WIDTH);
    let clock = LogicalClock::new();
    let arb = ClusterArbiter::with_clock(&topo, AdmissionPolicy::Fifo, Arc::new(clock.clone()))
        .with_shards(ClusterArbiter::auto_shards(&topo))
        .with_grace(1);
    let pump = MaintenancePump::new(arb.clone());
    Ledger { clock, arb, pump }
}

/// What one pass over the trace observed; identical for every pass.
#[derive(Default)]
struct PassFacts {
    fingerprint: u64,
    waits: Vec<u64>,
    leased_gpu_ticks: u128,
    stats: ArbiterStats,
    queue_depth_max: usize,
    grant_attempts: u64,
    polls: u64,
    active_polls: u64,
}

/// The replay state of one pass.
struct Pass<'a> {
    trace: &'a Trace,
    /// Grant-call latencies (µs) of untraced and traced visits.
    grants: &'a mut [Reservoir; 2],
    /// Raw times of this pass's untraced and traced visits, scaled by
    /// the speed probe's samples once the pass has run.
    visits: &'a mut [Vec<Duration>; 2],
    speed: &'a mut HostSpeed,
    /// Whether the current visit is traced.
    traced: bool,
    lg: Ledger,
    held: Vec<(u64, Lease)>,
    tickets: Vec<(u64, Ticket)>,
    arrived: BTreeMap<u64, u64>,
    admitted: BTreeMap<u64, u64>,
    facts: PassFacts,
    fp: Fnv,
}

impl Pass<'_> {
    /// Times one arbiter call as `layer`, counting it as an operation.
    fn call<T>(
        layers: &mut Layers,
        side: &mut Side,
        layer: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        side.ops += 1;
        layers.time(layer, f)
    }

    /// Times one grant-path call (`try_lease`, `claim`) into `lat` for the
    /// report line, and as `layer` when tracing.
    fn grant<T>(
        layers: &mut Layers,
        side: &mut Side,
        lat: &mut Reservoir,
        layer: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        side.ops += 1;
        let t = Timer::start();
        let out = f();
        let d = t.elapsed();
        lat.push(d.as_secs_f64() * 1e6);
        layers.add(layer, d);
        out
    }

    fn admit(&mut self, job: u64, lease: Lease, now: u64) {
        self.admitted.entry(job).or_insert(now);
        self.held.push((job, lease));
    }

    fn apply(
        &mut self,
        ev: flexsp_trace::TraceEvent,
        now: u64,
        layers: &mut Layers,
        side: &mut Side,
        out: &mut Outcome,
    ) {
        let job = ev.job;
        self.fp.u64(job);
        let code: u64 = match ev.op {
            TraceOp::Arrive {
                gpus,
                priority,
                term,
                immediate,
            } => {
                self.arrived.insert(job, now);
                let mut req = SlotRequest::new(JobId(job), gpus).with_priority(Priority(priority));
                if let Some(t) = term {
                    req = req.with_term(t);
                }
                if immediate {
                    self.facts.grant_attempts += 1;
                    let arb = &self.lg.arb;
                    let lat = &mut self.grants[usize::from(self.traced)];
                    match Self::grant(layers, side, lat, "arbiter.try_lease", || {
                        arb.try_lease(req)
                    }) {
                        Ok(lease) => {
                            self.fp.u64(u64::from(lease.gpu_count()));
                            self.admit(job, lease, now);
                            return;
                        }
                        Err(LeaseError::Busy { .. }) => {}
                        Err(e) => out.fail(format!("job {job}: try_lease: {e}")),
                    }
                }
                self.facts.grant_attempts += 1;
                let arb = &self.lg.arb;
                match Self::call(layers, side, "arbiter.request", || arb.request(req)) {
                    Ok(t) => {
                        self.tickets.push((job, t));
                        1
                    }
                    Err(e) => {
                        out.fail(format!("job {job}: request: {e}"));
                        2
                    }
                }
            }
            TraceOp::Grow { gpus } => match self.held.iter_mut().find(|(j, _)| *j == job) {
                Some((_, lease)) => code_of(
                    Self::call(layers, side, "arbiter.grow", || lease.grow(gpus, None)),
                    lease,
                ),
                None => 3,
            },
            TraceOp::Shrink { gpus } => match self.held.iter_mut().find(|(j, _)| *j == job) {
                Some((_, lease)) => code_of(
                    Self::call(layers, side, "arbiter.shrink", || lease.shrink(gpus)),
                    lease,
                ),
                None => 3,
            },
            TraceOp::Renew => match self.held.iter_mut().find(|(j, _)| *j == job) {
                Some((_, lease)) => code_of(
                    Self::call(layers, side, "arbiter.renew", || lease.renew()),
                    lease,
                ),
                None => 3,
            },
            TraceOp::Depart => {
                if let Some(i) = self.held.iter().position(|(j, _)| *j == job) {
                    let (_, lease) = self.held.remove(i);
                    Self::call(layers, side, "arbiter.release", || drop(lease));
                    4
                } else if let Some(i) = self.tickets.iter().position(|(j, _)| *j == job) {
                    let (_, t) = self.tickets.remove(i);
                    let arb = &self.lg.arb;
                    Self::call(layers, side, "arbiter.cancel", || arb.cancel(&t));
                    5
                } else {
                    3
                }
            }
        };
        self.fp.u64(code);
    }

    /// One visit at logical time `now`: pump, this tick's events, claims,
    /// then a sync of every held lease.
    fn visit(
        &mut self,
        now: u64,
        cursor: &mut usize,
        layers: &mut Layers,
        side: &mut Side,
        out: &mut Outcome,
    ) {
        let pump = &mut self.lg.pump;
        let report = Self::call(layers, side, "arbiter.pump_poll", || pump.poll());
        self.facts.polls += 1;
        if let Some(r) = report {
            self.facts.active_polls += 1;
            for list in [&r.expired, &r.reclaimed, &r.demanded] {
                for &(JobId(j), n) in list {
                    self.fp.u64(j);
                    self.fp.u64(u64::from(n));
                }
            }
        }
        while let Some(&ev) = self.trace.events.get(*cursor).filter(|e| e.at <= now) {
            *cursor += 1;
            self.apply(ev, now, layers, side, out);
        }
        let mut waiting = Vec::with_capacity(self.tickets.len());
        for (job, t) in std::mem::take(&mut self.tickets) {
            let arb = &self.lg.arb;
            let lat = &mut self.grants[usize::from(self.traced)];
            match Self::grant(layers, side, lat, "arbiter.claim", || arb.claim(&t)) {
                Some(lease) => {
                    self.fp.u64(job);
                    self.fp.u64(u64::from(lease.gpu_count()));
                    self.admit(job, lease, now);
                }
                None => waiting.push((job, t)),
            }
        }
        self.tickets = waiting;
        let mut i = 0;
        while i < self.held.len() {
            let lease = &mut self.held[i].1;
            let ev = Self::call(layers, side, "arbiter.sync", || lease.sync());
            match ev {
                LeaseEvent::Unchanged => i += 1,
                LeaseEvent::Resized { lost } => {
                    self.fp.u64(u64::from(lost));
                    i += 1;
                }
                LeaseEvent::Lapsed => {
                    self.fp.u64(self.held[i].0);
                    self.held.remove(i);
                }
            }
        }
    }

    /// Replays the whole trace, winds the ledger down and checks it.
    fn run(
        mut self,
        layers: &mut Layers,
        sides: &mut [Side; 2],
        trace: bool,
        out: &mut Outcome,
    ) -> PassFacts {
        let cap = u64::from(NODES * WIDTH);
        let horizon = self.trace.horizon;
        let (mut now, mut cursor, mut visit) = (0u64, 0usize, 0u64);
        loop {
            let traced = trace && visit % 2 == 1;
            visit += 1;
            self.traced = traced;
            layers.set_on(traced);
            let side = &mut sides[usize::from(traced)];
            let unit = Timer::start();
            self.visit(now, &mut cursor, layers, side, out);
            let pump = &mut self.lg.pump;
            let deadline = Self::call(layers, side, "arbiter.pump_next", || pump.next_deadline());
            let d = unit.elapsed();
            self.visits[usize::from(traced)].push(d);
            layers.add_root(d);

            let arb = &self.lg.arb;
            let free = arb.free_gpus();
            self.fp.u64(u64::from(free));
            self.facts.queue_depth_max = self.facts.queue_depth_max.max(arb.pending_requests());
            if visit % AUDIT_EVERY == 0 {
                if let Err(e) = arb.audit() {
                    out.fail(format!("audit at t={now}: {e}"));
                }
            }
            if visit % PROBE_EVERY == 0 {
                self.speed.sample();
            }
            let next_event = self.trace.events.get(cursor).map(|e| e.at.max(now + 1));
            let next = [next_event, deadline.map(|d| d.max(now + 1))]
                .into_iter()
                .flatten()
                .filter(|&t| t <= horizon)
                .min();
            let until = next.unwrap_or(horizon).max(now);
            self.facts.leased_gpu_ticks +=
                u128::from(cap - u64::from(free)) * u128::from(until - now);
            let Some(t) = next else { break };
            self.lg.clock.advance(t - now);
            now = t;
        }
        layers.set_on(false);
        self.held.clear();
        for (_, t) in std::mem::take(&mut self.tickets) {
            self.lg.arb.cancel(&t);
        }
        let arb = &self.lg.arb;
        if let Err(e) = arb.audit() {
            out.fail(format!("audit after wind-down: {e}"));
        }
        if arb.free_gpus() != NODES * WIDTH || arb.live_leases() != 0 || arb.pending_requests() != 0
        {
            out.fail(format!(
                "wind-down left {} of {cap} GPUs free, {} leases live, {} requests queued",
                arb.free_gpus(),
                arb.live_leases(),
                arb.pending_requests()
            ));
        }
        self.facts.stats = arb.stats();
        self.facts.waits = self
            .admitted
            .iter()
            .map(|(job, at)| at - self.arrived.get(job).copied().unwrap_or(*at))
            .collect();
        self.facts.waits.sort_unstable();
        self.facts.fingerprint = self.fp.0;
        self.facts
    }
}

/// The outcome code of a lease mutation, with the lease size after it.
fn code_of(r: Result<(), LeaseError>, lease: &Lease) -> u64 {
    let kind = match r {
        Ok(()) => 10,
        Err(LeaseError::Busy { .. }) => 11,
        Err(LeaseError::ShrinkTooLarge { .. }) => 12,
        Err(LeaseError::Lapsed) => 13,
        Err(LeaseError::Unsatisfiable { .. }) => 14,
    };
    kind * 1_000 + u64::from(lease.gpu_count())
}

/// Polls the read surface every [`READ_PERIOD`] until `stop`, timing each
/// poll. A monitor polls on a period; a reader spinning flat out would
/// instead make the driver's timings depend on how the scheduler splits
/// the host's cores between the two threads.
fn read_loop(arb: &ClusterArbiter, stop: &AtomicBool, reads: &mut Reservoir, cpu: Option<usize>) {
    if let Some(cpu) = cpu {
        affinity::pin_current(cpu);
    }
    while !stop.load(Ordering::Relaxed) {
        let t = Timer::start();
        std::hint::black_box((arb.free_gpus(), arb.stats(), arb.fingerprint()));
        reads.push(t.elapsed().as_secs_f64() * 1e6);
        std::thread::sleep(READ_PERIOD);
    }
}

/// Runs the workload for `seconds`; with `trace`, every other visit is
/// traced.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome {
        threads: Threads {
            driver: 1,
            reader: 1,
            ..Threads::default()
        },
        ..Outcome::default()
    };
    // The driver keeps the first allowed core for the whole run and each
    // pass's reader the second (the same one on a single-core host).
    let cores = affinity::allowed();
    out.threads.pinned = cores.first().is_some_and(|&c| affinity::pin_current(c));
    let reader_cpu = cores
        .get(1)
        .or(cores.first())
        .copied()
        .filter(|_| out.threads.pinned);
    let mut gen_time = Duration::ZERO;
    let mut set_up = || {
        let t = Timer::start();
        let tr = generate(&trace_config(seed));
        gen_time = t.elapsed();
        (tr, ledger())
    };
    let mut speed = HostSpeed::new();
    let mut setup = Setup::default();
    let (trace_data, first) = setup.time_scaled(speed.scale(), &mut set_up);
    let mut layers = Layers::new();
    let mut sides = [Side::default(), Side::default()];
    let mut reads = Reservoir::new(1 << 18);
    let mut grants = [Reservoir::new(1 << 20), Reservoir::new(1 << 20)];
    let mut visits = [Vec::new(), Vec::new()];
    let mut raw_busy = Duration::ZERO;
    let mut facts: Option<PassFacts> = None;
    let mut next = Some(first);
    let budget = Duration::from_secs_f64(seconds);
    let start = Timer::start();
    let mut passes = 0u64;
    while start.elapsed() < budget {
        let lg = next.take().unwrap_or_else(ledger);
        let stop = AtomicBool::new(false);
        let reader_arb = lg.arb.clone();
        let pass = Pass {
            trace: &trace_data,
            grants: &mut grants,
            visits: &mut visits,
            speed: &mut speed,
            traced: false,
            lg,
            held: Vec::new(),
            tickets: Vec::new(),
            arrived: BTreeMap::new(),
            admitted: BTreeMap::new(),
            facts: PassFacts::default(),
            fp: Fnv::default(),
        };
        let got = std::thread::scope(|s| {
            let reader = s.spawn(|| read_loop(&reader_arb, &stop, &mut reads, reader_cpu));
            let got = pass.run(&mut layers, &mut sides, trace, &mut out);
            stop.store(true, Ordering::Relaxed);
            reader.join().expect("the reader thread does not panic");
            got
        });
        passes += 1;
        let scale = speed.close();
        for (side, times) in sides.iter_mut().zip(&mut visits) {
            for d in times.drain(..) {
                raw_busy += d;
                let d = d.mul_f64(scale);
                side.busy += d;
                side.units += 1;
                side.record(d.as_secs_f64() * 1e6);
            }
        }
        close_windows(&mut sides, VISIT_TAIL_P);
        for _ in 0..SETUPS_PER_PASS {
            drop(setup.time_scaled(speed.scale(), &mut set_up));
        }
        match &facts {
            None => facts = Some(got),
            Some(f) if f.fingerprint != got.fingerprint => {
                out.fail(format!("pass {passes} saw different outcomes than pass 1"))
            }
            Some(_) => {}
        }
    }
    out.attempted = sides.iter().map(|s| s.ops).sum::<u64>().max(1);
    let facts = facts.unwrap_or_default();
    out.fingerprint = facts.fingerprint;
    let cap = f64::from(NODES * WIDTH);
    let utilization = facts.leased_gpu_ticks as f64 / (cap * trace_data.horizon as f64);
    for side in &mut sides {
        side.quality_num = utilization;
        side.quality_den = 1.0;
    }

    let read = reads.sorted();
    let waits: Vec<f64> = facts.waits.iter().map(|&w| w as f64).collect();
    let waits_n = waits.len() as u64;
    out.named
        .push(Named::new("passes", passes as f64, "count", passes));
    out.named.extend(speed.named());
    out.named.push(Named::new(
        "raw_cluster_ops_per_s",
        sides.iter().map(|s| s.ops).sum::<u64>() as f64 / raw_busy.as_secs_f64(),
        "1/s",
        out.attempted,
    ));
    out.named.push(Named::new(
        "read_p50_us",
        percentile(&read, 0.5),
        "us",
        reads.seen(),
    ));
    if let Some(t) = tail(&waits, TAIL_P) {
        out.named
            .push(Named::tail("wait_p99_ticks", t, 1.0, "ticks", waits_n));
    }
    out.named.push(Named::new(
        "gpu_utilization",
        utilization,
        "ratio",
        trace_data.horizon,
    ));
    for (label, side, lat) in [
        ("", &sides[0], &grants[0]),
        ("traced.", &sides[1], &grants[1]),
    ] {
        if side.units == 0 {
            continue;
        }
        let n = side.samples();
        out.named.push(Named::new(
            format!("{label}cluster_ops_per_s"),
            side.ops_per_s(),
            "1/s",
            side.ops,
        ));
        if let Some(p50) = side.p50_us() {
            out.named
                .push(Named::new(format!("{label}visit_p50_us"), p50, "us", n));
        }
        if let Some(t) = side.tail_us(VISIT_TAIL_P) {
            out.named
                .push(Named::tail(format!("{label}visit_p90_us"), t, 1.0, "us", n));
        }
        let g = lat.sorted();
        out.named.push(Named::new(
            format!("{label}grant_p50_us"),
            percentile(&g, 0.5),
            "us",
            lat.seen(),
        ));
        if let Some(t) = tail(&g, TAIL_P) {
            out.named.push(Named::tail(
                format!("{label}grant_p99_us"),
                t,
                1.0,
                "us",
                lat.seen(),
            ));
        }
    }
    crate::finish(&mut out, &setup, &sides, trace, VISIT_TAIL_P);
    if trace {
        let v = &mut out;
        v.set("trace.generate_ms", gen_time.as_secs_f64() * 1e3);
        let ops: [(&'static str, &'static str, &'static str); 10] = [
            (
                "arbiter.try_lease",
                "arbiter.try_lease_us.p50",
                "arbiter.try_lease_us.p99",
            ),
            (
                "arbiter.request",
                "arbiter.request_us.p50",
                "arbiter.request_us.p99",
            ),
            (
                "arbiter.claim",
                "arbiter.claim_us.p50",
                "arbiter.claim_us.p99",
            ),
            ("arbiter.sync", "arbiter.sync_us.p50", "arbiter.sync_us.p99"),
            ("arbiter.grow", "arbiter.grow_us.p50", "arbiter.grow_us.p99"),
            (
                "arbiter.shrink",
                "arbiter.shrink_us.p50",
                "arbiter.shrink_us.p99",
            ),
            (
                "arbiter.renew",
                "arbiter.renew_us.p50",
                "arbiter.renew_us.p99",
            ),
            (
                "arbiter.release",
                "arbiter.release_us.p50",
                "arbiter.release_us.p99",
            ),
            (
                "arbiter.pump_poll",
                "arbiter.pump_poll_us.p50",
                "arbiter.pump_poll_us.p99",
            ),
            ("arbiter.read", "arbiter.read_us.p50", "arbiter.read_us.p99"),
        ];
        for (layer, p50, p99) in ops {
            let lat = if layer == "arbiter.read" {
                read.clone()
            } else {
                layers.lat_us(layer)
            };
            v.set(p50, percentile(&lat, 0.5));
            v.set(p99, percentile(&lat, 0.99));
        }
        let s = facts.stats;
        v.set("arbiter.grants", s.grants as f64);
        v.set("arbiter.denials", s.denials as f64);
        v.set("arbiter.reaps", s.reaps as f64);
        v.set("arbiter.gpus_moved", s.gpus_moved as f64);
        v.set("arbiter.queue_depth_max", facts.queue_depth_max as f64);
        v.set(
            "arbiter.grant_ratio",
            s.grants as f64 / facts.grant_attempts.max(1) as f64,
        );
        v.set(
            "arbiter.pump_active_ratio",
            facts.active_polls as f64 / facts.polls.max(1) as f64,
        );
        crate::set_shares(v, &layers);
    }
    out
}
