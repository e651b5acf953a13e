//! `ReplayReport::metrics` describes one replay. Replayed twice in one
//! process, as `trace_replay` does, the second report's export still
//! equals that report's own stats, not a process-wide total.
//! The pump's lateness histogram is checked the way the CI telemetry
//! smoke checks it: present, with at least one sample per wakeup.

use flexsp_telemetry::MetricsSnapshot;
use flexsp_trace::{generate, replay, ReplayConfig, TraceConfig};

/// The counters the CI telemetry smoke greps the Prometheus text for.
const SMOKE_COUNTERS: [&str; 5] = [
    "flexsp_arbiter_grants",
    "flexsp_cache_misses",
    "flexsp_milp_solves",
    "flexsp_pump_wakeups",
    "flexsp_replay_jobs",
];

fn counter(metrics: &MetricsSnapshot, name: &str) -> u64 {
    metrics
        .counters
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("no counter {name}"))
        .1
}

/// The value of the Prometheus line `name <value>`.
fn prom_value(prom: &str, name: &str) -> u64 {
    prom.lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .unwrap_or_else(|| panic!("export lacks {name}:\n{prom}"))
        .parse()
        .unwrap_or_else(|e| panic!("{name} is not a count: {e}"))
}

fn assert_smoke_counters_present(metrics: &MetricsSnapshot) {
    let prom = metrics.to_prometheus();
    for name in SMOKE_COUNTERS {
        prom_value(&prom, name);
    }
    // Every wakeup fires at least one deadline, and each fired deadline
    // is one lateness sample.
    assert!(
        prom_value(&prom, "flexsp_pump_lateness_ticks_count")
            >= prom_value(&prom, "flexsp_pump_wakeups"),
        "fewer lateness samples than wakeups:\n{prom}"
    );
}

#[test]
fn second_replay_exports_its_own_counts() {
    let trace = generate(&TraceConfig::quick(42));
    let mut cfg = ReplayConfig::new();
    cfg.shards = 2;
    cfg.plan_every = 8;
    let first = replay(&trace, &cfg);
    let second = replay(&trace, &cfg);
    assert_eq!(first.log_hash, second.log_hash);
    assert!(second.stats.plans > 0, "the trace must reach the solver");
    assert!(second.pump_wakeups > 0, "terms and demands must fire");

    let m = second.metrics();
    assert_eq!(counter(&m, "flexsp.arbiter.grants"), second.arbiter.grants);
    assert_eq!(counter(&m, "flexsp.replay.jobs"), second.stats.jobs as u64);
    assert_eq!(counter(&m, "flexsp.pump.wakeups"), second.pump_wakeups);
    assert_eq!(
        counter(&m, "flexsp.milp.solves"),
        u64::from(second.solver.search_steps)
    );
    // The wasted-step counters are exported from the same stats, and a
    // deterministic replay wastes the same steps both times.
    for (name, count) in [
        ("flexsp.milp.undecided_steps", second.solver.undecided_steps),
        ("flexsp.milp.split_failures", second.solver.split_failures),
        (
            "flexsp.milp.unwitnessed_steps",
            second.solver.unwitnessed_steps,
        ),
    ] {
        assert_eq!(counter(&m, name), u64::from(count), "{name}");
        assert_eq!(counter(&first.metrics(), name), u64::from(count), "{name}");
    }
    // So is the LP engine's effort, summed over every relaxation.
    let lp = &second.solver.milp;
    for (name, count) in [
        ("flexsp.milp.primal_pivots", lp.primal_pivots),
        ("flexsp.milp.dual_pivots", lp.dual_pivots),
        ("flexsp.milp.refactorizations", lp.refactorizations),
        ("flexsp.milp.basis_reuse_misses", lp.basis_reuse_misses),
    ] {
        assert_eq!(counter(&m, name), count, "{name}");
        assert_eq!(counter(&first.metrics(), name), count, "{name}");
    }
    assert!(lp.pivots() > 0, "the replay's relaxations must pivot");
    // Every planning request is one cache hit or one miss (one worker
    // per service, so nothing coalesces): the cache counters of every
    // service reached the report.
    assert_eq!(
        counter(&m, "flexsp.cache.hits") + counter(&m, "flexsp.cache.misses"),
        second.stats.plans + second.stats.plan_failures
    );
    // A deterministic replay exports the same counts both times, so
    // nothing carried over from the first run.
    assert_eq!(first.metrics().counters, m.counters);
    assert_eq!(first.pump_lateness_ticks, second.pump_lateness_ticks);
    assert_eq!(first.metrics().histograms, m.histograms);
    assert_smoke_counters_present(&m);
}

#[test]
fn an_unplanned_replay_still_exports_every_smoke_counter() {
    let trace = generate(&TraceConfig::quick(7));
    let report = replay(&trace, &ReplayConfig::new());
    let m = report.metrics();
    assert_eq!(counter(&m, "flexsp.cache.misses"), 0);
    assert_eq!(counter(&m, "flexsp.milp.solves"), 0);
    assert_smoke_counters_present(&m);
}
