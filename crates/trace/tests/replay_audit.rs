//! Whole-replay checks of the trace simulator: an audited replay of a
//! generated trace — grants, claims, reaps, preemptions, syncs — keeps
//! `audit()`'s invariants at every active visit across shard counts and
//! both admission policies while its pump really maintains, and a
//! replay's log is a function of its seed.
//!
//! That skipping the ticks between pump deadlines is sound is pinned
//! beside the pump itself, by `flexsp-arbiter`'s
//! `maintain_after_poll_is_quiet_and_changes_nothing` property.

use flexsp_arbiter::AdmissionPolicy;
use flexsp_trace::{generate, replay, ReplayConfig, TraceConfig};

#[test]
fn audited_replay_maintains_across_shards_and_policies() {
    let mut tc = TraceConfig::new(80, 8, 17);
    tc.critical_frac = 0.12; // force preemption demands into the mix
    let trace = generate(&tc);
    for shards in [1u32, 4] {
        for policy in [AdmissionPolicy::Fifo, AdmissionPolicy::BestFitSkuClass] {
            let mut cfg = ReplayConfig::new();
            cfg.shards = shards;
            cfg.policy = policy;
            cfg.audit = true;
            let report = replay(&trace, &cfg);
            assert!(
                report.stats.maintains > 0,
                "{shards} shards / {policy:?}: the trace must exercise reaps/demands \
                 for the test to mean anything"
            );
        }
    }
}

/// The `trace_replay --quick` input: 1000 jobs on 16 nodes at seed 42,
/// 4 shards, a plan every 64 events. Its log hash pins every plan the
/// replay's `SolverService` and branch and bound produce, in debug and
/// release builds alike.
#[test]
fn quick_replay_hash_is_pinned() {
    let trace = generate(&TraceConfig::new(1000, 16, 42));
    let mut cfg = ReplayConfig::new();
    cfg.shards = 4;
    cfg.plan_every = 64;
    let report = replay(&trace, &cfg);
    assert_eq!(
        report.log_hash, 0xbcfc_7f08_7d98_d269,
        "the quick replay's hash moved: {:016x}",
        report.log_hash
    );
}

#[test]
fn replay_is_deterministic_and_seed_sensitive() {
    let trace = generate(&TraceConfig::quick(99));
    let a = replay(&trace, &ReplayConfig::new());
    let b = replay(&trace, &ReplayConfig::new());
    assert_eq!(a.log, b.log);
    let other = replay(&generate(&TraceConfig::quick(100)), &ReplayConfig::new());
    assert_ne!(
        a.log_hash, other.log_hash,
        "different seed, different trace"
    );
}
