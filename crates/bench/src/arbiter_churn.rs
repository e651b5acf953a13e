//! Arbiter churn throughput gate (`BENCH_arbiter_churn.json`).
//!
//! The ROADMAP's north star is thousands of tenants sharing one cluster;
//! this module measures the arbiter subsystem that fronts every plan:
//!
//! - **grants/sec + p50/p99 grant latency** under lease churn (drop and
//!   immediately re-grant) at 10 / 100 / 1000 tenants, each on the
//!   auto-sharded ledger — the tenant visit order is derived from a
//!   generated job trace (`flexsp-trace`), so drops and re-grants hit
//!   the ledger in the bursty, repeat-heavy order a Poisson job stream
//!   produces instead of a fixed round-robin sweep;
//! - the same 1000-tenant churn against a **1-shard configuration** (the
//!   pre-sharding single-mutex arbiter) — `sharded_speedup_at_1000` is
//!   the headline number and the gate asserts it stays ≥ 5x;
//! - **sync reads/sec + p99** for the snapshot read path while writer
//!   threads churn grants underneath (readers never wait on the queue
//!   lock or a shard lock);
//! - the **caller thread-scaling curve** (1/2/4/8 churn threads), skipped
//!   with a logged notice when the host exposes one CPU — serialized
//!   threads measure the scheduler, not the arbiter.
//!
//! `scripts/check_bench.sh` regenerates the JSON in CI and fails the
//! build on a >20% grants/sec regression against the checked-in baseline
//! (sync reads ride a 3x band — nanosecond-scale reads are
//! jitter-dominated) or on the sharded speedup dropping below 5x.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use flexsp_arbiter::{AdmissionPolicy, ClusterArbiter, JobId, Lease, SlotRequest};
use flexsp_sim::Topology;
use flexsp_trace::{generate, TraceConfig};

/// GPUs per tenant lease: small enough that the cluster stays half free
/// (every re-grant succeeds), large enough to exercise real placement.
const GPUS_PER_LEASE: u32 = 4;

/// One tenant-count churn measurement.
#[derive(Debug, Clone)]
pub struct ChurnPoint {
    /// Concurrent tenants (and nodes: each tenant gets an 8-GPU node).
    pub tenants: u32,
    /// Ledger shards the arbiter ran with.
    pub shards: u32,
    /// Sustained grant rate (a release + re-grant pair per grant).
    pub grants_per_s: f64,
    /// Median grant latency (microseconds).
    pub p50_us: f64,
    /// 99th-percentile grant latency (microseconds).
    pub p99_us: f64,
}

/// One point of the caller thread-scaling curve.
#[derive(Debug, Clone)]
pub struct CallerScalingPoint {
    /// Concurrent churn threads.
    pub threads: usize,
    /// Aggregate grant rate across the threads.
    pub grants_per_s: f64,
    /// Speedup over the 1-thread point.
    pub speedup: f64,
}

/// Everything the bench measures; serialized by [`to_json`].
#[derive(Debug, Clone)]
pub struct Report {
    /// `std::thread::available_parallelism()` of the bench machine.
    pub host_parallelism: usize,
    /// Churn throughput at each tenant count, auto-sharded.
    pub points: Vec<ChurnPoint>,
    /// The 1000-tenant churn replayed on a 1-shard ledger — the
    /// single-mutex arbiter this PR replaces.
    pub baseline_1shard_grants_per_s: f64,
    /// Sharded grants/sec over 1-shard grants/sec at 1000 tenants.
    pub sharded_speedup_at_1000: f64,
    /// Reads/sec (lease sync + ledger gauges) under a
    /// two-writer grant storm.
    pub sync_reads_per_s: f64,
    /// 99th-percentile read latency (microseconds) under that storm.
    pub sync_p99_us: f64,
    /// 1/2/4/8 churn-thread scaling (just the 1-thread point when
    /// skipped).
    pub scaling: Vec<CallerScalingPoint>,
    /// True when the host exposed a single CPU and the >1-thread points
    /// were skipped rather than recorded as meaningless slowdowns.
    pub thread_scaling_skipped: bool,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// One tenant per 8-GPU node: the cluster grows with the tenant count,
/// exactly the regime the ROADMAP targets.
fn cluster_for(tenants: u32) -> Topology {
    Topology::new(tenants, 8)
}

fn tenant_request(t: u64) -> SlotRequest {
    SlotRequest::new(JobId(t), GPUS_PER_LEASE)
}

/// Tenant visit order derived from a generated job trace: every trace
/// event (arrival, grow, shrink, renewal, departure) churns the tenant
/// its job lands on, so drops and re-grants hit the ledger in the
/// bursty, repeat-heavy order a Poisson job stream produces instead of
/// a fixed round-robin sweep. Cycled and truncated to exactly `grants`
/// entries so every tenant count does comparable work, and fully
/// deterministic in `(tenants, grants, seed)` so the sharded and
/// 1-shard measurements replay the identical schedule.
pub fn trace_schedule(tenants: u32, grants: usize, seed: u64) -> Vec<u32> {
    let trace = generate(&TraceConfig::new((tenants as usize).max(8), 4, seed));
    trace
        .events
        .iter()
        .cycle()
        .take(grants)
        .map(|e| (e.job % u64::from(tenants)) as u32)
        .collect()
}

/// Churns leases following `schedule` (each entry drops and re-grants
/// that tenant's lease) and returns (grants/sec, sorted grant latencies
/// in microseconds). Setup grants run outside the clock. The schedule
/// comes from [`trace_schedule`]: a generated job trace's event order,
/// not a fixed per-round sweep.
pub fn churn(arb: &ClusterArbiter, tenants: u32, schedule: &[u32]) -> (f64, Vec<f64>) {
    let mut leases: Vec<Option<Lease>> = (0..tenants)
        .map(|t| {
            Some(
                arb.try_lease(tenant_request(u64::from(t)))
                    .expect("half-free cluster"),
            )
        })
        .collect();
    let mut lat = Vec::with_capacity(schedule.len());
    let start = Instant::now();
    for &t in schedule {
        leases[t as usize] = None; // release...
        let t0 = Instant::now();
        let lease = arb
            .try_lease(tenant_request(u64::from(t))) // ...and re-grant
            .expect("churn never exhausts a half-free cluster");
        lat.push(t0.elapsed().as_secs_f64() * 1e6);
        leases[t as usize] = Some(lease);
    }
    let total = start.elapsed().as_secs_f64();
    lat.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    (schedule.len() as f64 / total, lat)
}

/// Churn rounds sized so every tenant count does ~the same grant work.
fn rounds_for(tenants: u32, quick: bool) -> u32 {
    let budget = if quick { 1_000 } else { 8_000 };
    (budget / tenants).max(1)
}

/// Read-path reads/sec and p99 while two writer threads churn grants.
fn sync_storm(quick: bool) -> (f64, f64) {
    let tenants = if quick { 100 } else { 400 };
    let reads = if quick { 20_000u64 } else { 200_000 };
    let topo = cluster_for(tenants + 1);
    let arb = ClusterArbiter::new(&topo, AdmissionPolicy::Fifo)
        .with_shards(ClusterArbiter::auto_shards(&topo));
    let mut reader_lease = arb
        .try_lease(tenant_request(u64::from(tenants)))
        .expect("empty cluster");
    let stop = AtomicBool::new(false);
    let mut out = (0.0, 0.0);
    std::thread::scope(|scope| {
        for w in 0..2u32 {
            let arb = arb.clone();
            let stop = &stop;
            let (lo, hi) = (w * tenants / 2, (w + 1) * tenants / 2);
            scope.spawn(move || {
                let mut leases: Vec<Option<Lease>> = (lo..hi)
                    .map(|t| Some(arb.try_lease(tenant_request(t as u64)).expect("half free")))
                    .collect();
                while !stop.load(Ordering::Relaxed) {
                    for (i, slot) in leases.iter_mut().enumerate() {
                        *slot = None;
                        *slot = Some(
                            arb.try_lease(tenant_request(lo as u64 + i as u64))
                                .expect("half free"),
                        );
                    }
                }
            });
        }
        // The reader: every iteration is one sync + the gauge reads a
        // serving loop makes between plans. None of these may block.
        let mut lat = Vec::with_capacity(reads as usize);
        let start = Instant::now();
        for _ in 0..reads {
            let t0 = Instant::now();
            let _ = reader_lease.sync();
            let _ = reader_lease.fingerprint();
            let _ = arb.free_gpus();
            let _ = arb.stats();
            lat.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        let total = start.elapsed().as_secs_f64();
        stop.store(true, Ordering::Relaxed);
        lat.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        out = (reads as f64 / total, percentile(&lat, 0.99));
    });
    out
}

/// Aggregate grants/sec with `threads` churn threads over disjoint
/// tenant slices of one sharded arbiter. Each thread replays its own
/// trace-derived schedule (seeded per thread so the slices don't move
/// in lockstep); generation happens before the clock starts.
fn caller_scaling_point(threads: usize, quick: bool) -> f64 {
    let tenants: u32 = if quick { 128 } else { 512 };
    let rounds = rounds_for(tenants, quick);
    let topo = cluster_for(tenants);
    let arb = ClusterArbiter::new(&topo, AdmissionPolicy::Fifo)
        .with_shards(ClusterArbiter::auto_shards(&topo));
    let per = tenants as usize / threads;
    let slice_of = |w: usize| {
        let lo = w * per;
        let hi = if w + 1 == threads {
            tenants as usize
        } else {
            lo + per
        };
        (lo, hi)
    };
    let schedules: Vec<Vec<u32>> = (0..threads)
        .map(|w| {
            let (lo, hi) = slice_of(w);
            trace_schedule((hi - lo) as u32, (hi - lo) * rounds as usize, 7 + w as u64)
        })
        .collect();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for (w, schedule) in schedules.into_iter().enumerate() {
            let arb = arb.clone();
            scope.spawn(move || {
                let (lo, hi) = slice_of(w);
                let mut leases: Vec<Option<Lease>> = (lo..hi)
                    .map(|t| Some(arb.try_lease(tenant_request(t as u64)).expect("half free")))
                    .collect();
                for &t in &schedule {
                    let i = t as usize;
                    leases[i] = None;
                    leases[i] = Some(
                        arb.try_lease(tenant_request((lo + i) as u64))
                            .expect("half free"),
                    );
                }
            });
        }
    });
    let total = start.elapsed().as_secs_f64();
    // Setup grants count too: they are the same operation.
    (tenants as u64 * (rounds as u64 + 1)) as f64 / total
}

/// Runs the full churn suite. `quick` shrinks the work for smoke runs
/// (CI gates on the full run).
pub fn run(quick: bool) -> Report {
    let host_parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let mut points = Vec::new();
    let mut schedule_1000 = Vec::new();
    for tenants in [10u32, 100, 1000] {
        let topo = cluster_for(tenants);
        let shards = ClusterArbiter::auto_shards(&topo);
        let arb = ClusterArbiter::new(&topo, AdmissionPolicy::Fifo).with_shards(shards);
        let grants = (tenants * rounds_for(tenants, quick)) as usize;
        let schedule = trace_schedule(tenants, grants, 2025);
        let (grants_per_s, lat) = churn(&arb, tenants, &schedule);
        points.push(ChurnPoint {
            tenants,
            shards,
            grants_per_s,
            p50_us: percentile(&lat, 0.50),
            p99_us: percentile(&lat, 0.99),
        });
        if tenants == 1000 {
            schedule_1000 = schedule;
        }
    }

    // The same 1000-tenant churn — the identical trace schedule — on one
    // shard: every mutation locks (and republishes) the whole cluster's
    // ledger — the PR 5 arbiter.
    let topo = cluster_for(1000);
    let one_shard = ClusterArbiter::new(&topo, AdmissionPolicy::Fifo);
    let (baseline_1shard_grants_per_s, _) = churn(&one_shard, 1000, &schedule_1000);
    let at_1000 = points.last().expect("1000 is measured").grants_per_s;
    let sharded_speedup_at_1000 = at_1000 / baseline_1shard_grants_per_s;

    let (sync_reads_per_s, sync_p99_us) = sync_storm(quick);

    let thread_scaling_skipped = host_parallelism == 1;
    let mut scaling = Vec::new();
    let t1 = caller_scaling_point(1, quick);
    scaling.push(CallerScalingPoint {
        threads: 1,
        grants_per_s: t1,
        speedup: 1.0,
    });
    if thread_scaling_skipped {
        eprintln!(
            "notice: host_parallelism == 1 — skipping 2/4/8-thread churn \
             scaling (serialized threads would record meaningless slowdowns)"
        );
    } else {
        for threads in [2usize, 4, 8] {
            let g = caller_scaling_point(threads, quick);
            scaling.push(CallerScalingPoint {
                threads,
                grants_per_s: g,
                speedup: g / t1,
            });
        }
    }

    Report {
        host_parallelism,
        points,
        baseline_1shard_grants_per_s,
        sharded_speedup_at_1000,
        sync_reads_per_s,
        sync_p99_us,
        scaling,
        thread_scaling_skipped,
    }
}

/// Serializes the report as the `BENCH_arbiter_churn.json` document
/// (flat keys so [`extract_f64`] can read them back).
///
/// [`extract_f64`]: crate::plan_throughput::extract_f64
pub fn to_json(r: &Report) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!(
        "  \"host_parallelism\": {},\n",
        r.host_parallelism
    ));
    for p in &r.points {
        s.push_str(&format!(
            "  \"churn_{}_shards\": {},\n",
            p.tenants, p.shards
        ));
        s.push_str(&format!(
            "  \"churn_{}_grants_per_s\": {:.3},\n",
            p.tenants, p.grants_per_s
        ));
        s.push_str(&format!(
            "  \"churn_{}_p50_us\": {:.3},\n",
            p.tenants, p.p50_us
        ));
        s.push_str(&format!(
            "  \"churn_{}_p99_us\": {:.3},\n",
            p.tenants, p.p99_us
        ));
    }
    s.push_str(&format!(
        "  \"baseline_1shard_grants_per_s\": {:.3},\n",
        r.baseline_1shard_grants_per_s
    ));
    s.push_str(&format!(
        "  \"sharded_speedup_at_1000\": {:.3},\n",
        r.sharded_speedup_at_1000
    ));
    s.push_str(&format!(
        "  \"sync_reads_per_s\": {:.3},\n",
        r.sync_reads_per_s
    ));
    s.push_str(&format!("  \"sync_p99_us\": {:.4},\n", r.sync_p99_us));
    s.push_str(&format!(
        "  \"thread_scaling_skipped\": {},\n",
        r.thread_scaling_skipped
    ));
    s.push_str("  \"caller_thread_scaling\": [\n");
    for (i, p) in r.scaling.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"threads\": {}, \"grants_per_s\": {:.3}, \"speedup\": {:.3}}}{}\n",
            p.threads,
            p.grants_per_s,
            p.speedup,
            if i + 1 == r.scaling.len() { "" } else { "," }
        ));
    }
    s.push_str("  ]\n");
    s.push_str("}\n");
    s
}

/// Compares a fresh run against the checked-in baseline. Grants/sec
/// metrics ride the plain `tolerance` band; sync reads/sec rides 3x (the
/// reads are nanosecond-scale and jitter-dominated). Independent of any
/// baseline, the sharded-vs-1-shard speedup at 1000 tenants must hold
/// the ≥5x acceptance floor — that is a structural property of the
/// sharding, not a machine speed. Returns the failures (empty = pass).
pub fn regressions(fresh: &Report, baseline_json: &str, tolerance: f64) -> Vec<String> {
    use crate::plan_throughput::extract_f64;
    let mut failures = Vec::new();
    let mut gates = vec![(
        "sync_reads_per_s".to_string(),
        fresh.sync_reads_per_s,
        3.0f64,
    )];
    for p in &fresh.points {
        gates.push((
            format!("churn_{}_grants_per_s", p.tenants),
            p.grants_per_s,
            1.0,
        ));
    }
    for (key, now, scale) in gates {
        let Some(base) = extract_f64(baseline_json, &key) else {
            failures.push(format!("baseline is missing \"{key}\""));
            continue;
        };
        let tol = (tolerance * scale).min(0.95);
        if base > 0.0 && now < base * (1.0 - tol) {
            failures.push(format!(
                "{key} regressed: {now:.3} vs baseline {base:.3} \
                 ({:.1}% below the {:.0}% gate)",
                (1.0 - now / base) * 100.0,
                tol * 100.0
            ));
        }
    }
    if fresh.sharded_speedup_at_1000 < 5.0 {
        failures.push(format!(
            "sharded_speedup_at_1000 is {:.2}x — the sharded ledger must \
             sustain >=5x the 1-shard grants/sec at 1000 tenants",
            fresh.sharded_speedup_at_1000
        ));
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan_throughput::extract_f64;

    fn report() -> Report {
        Report {
            host_parallelism: 1,
            points: vec![
                ChurnPoint {
                    tenants: 10,
                    shards: 2,
                    grants_per_s: 50_000.0,
                    p50_us: 10.0,
                    p99_us: 40.0,
                },
                ChurnPoint {
                    tenants: 1000,
                    shards: 64,
                    grants_per_s: 20_000.0,
                    p50_us: 30.0,
                    p99_us: 120.0,
                },
            ],
            baseline_1shard_grants_per_s: 2_000.0,
            sharded_speedup_at_1000: 10.0,
            sync_reads_per_s: 1_000_000.0,
            sync_p99_us: 2.5,
            scaling: vec![CallerScalingPoint {
                threads: 1,
                grants_per_s: 20_000.0,
                speedup: 1.0,
            }],
            thread_scaling_skipped: true,
        }
    }

    #[test]
    fn json_roundtrips_through_the_extractor() {
        let json = to_json(&report());
        assert_eq!(extract_f64(&json, "churn_10_grants_per_s"), Some(50_000.0));
        assert_eq!(
            extract_f64(&json, "churn_1000_grants_per_s"),
            Some(20_000.0)
        );
        assert_eq!(
            extract_f64(&json, "baseline_1shard_grants_per_s"),
            Some(2_000.0)
        );
        assert_eq!(extract_f64(&json, "sharded_speedup_at_1000"), Some(10.0));
        assert_eq!(extract_f64(&json, "sync_reads_per_s"), Some(1_000_000.0));
        assert!(json.contains("\"thread_scaling_skipped\": true"));
    }

    #[test]
    fn gate_trips_on_regression_and_on_a_lost_speedup() {
        let mut r = report();
        let baseline = to_json(&r);
        assert!(regressions(&r, &baseline, 0.20).is_empty());
        // -15% stays inside the band; -25% trips.
        r.points[1].grants_per_s = 17_000.0;
        assert!(regressions(&r, &baseline, 0.20).is_empty());
        r.points[1].grants_per_s = 15_000.0;
        let fails = regressions(&r, &baseline, 0.20);
        assert_eq!(fails.len(), 1);
        assert!(fails[0].contains("churn_1000_grants_per_s"));
        // Sync reads ride a 3x band: -50% passes, -65% trips.
        r.points[1].grants_per_s = 20_000.0;
        r.sync_reads_per_s = 500_000.0;
        assert!(regressions(&r, &baseline, 0.20).is_empty());
        r.sync_reads_per_s = 350_000.0;
        assert_eq!(regressions(&r, &baseline, 0.20).len(), 1);
        // The 5x speedup floor is absolute, baseline or not.
        r.sync_reads_per_s = 1_000_000.0;
        r.sharded_speedup_at_1000 = 4.0;
        let fails = regressions(&r, &baseline, 0.20);
        assert_eq!(fails.len(), 1);
        assert!(fails[0].contains("sharded_speedup_at_1000"));
        // A missing key in the baseline is a failure, not a silent pass.
        assert!(!regressions(&report(), "{}", 0.20).is_empty());
    }

    #[test]
    fn trace_schedule_is_deterministic_in_range_and_not_degenerate() {
        let a = trace_schedule(10, 100, 3);
        assert_eq!(a, trace_schedule(10, 100, 3));
        assert_eq!(a.len(), 100);
        assert!(a.iter().all(|&t| t < 10));
        // More than one tenant is visited, and at least one tenant
        // repeats before the others finish — i.e. the order is bursty,
        // not a round-robin sweep.
        assert!(a.iter().any(|&t| t != a[0]));
        let first_ten: &[u32] = &a[..10];
        assert!(
            (0..10u32).any(|t| !first_ten.contains(&t)),
            "first 10 visits covered all 10 tenants — looks like a sweep"
        );
    }

    #[test]
    fn churn_smoke_runs_clean_on_a_tiny_cluster() {
        let topo = cluster_for(8);
        let arb = ClusterArbiter::new(&topo, AdmissionPolicy::Fifo).with_shards(2);
        let schedule = trace_schedule(8, 16, 1);
        let (grants_per_s, lat) = churn(&arb, 8, &schedule);
        assert!(grants_per_s > 0.0);
        assert_eq!(lat.len(), 16);
        assert!(arb.audit().is_ok());
        // churn() drops its leases on return: conservation demands every
        // slot comes back across both shards.
        assert_eq!(arb.free_gpus(), 8 * 8);
    }
}
