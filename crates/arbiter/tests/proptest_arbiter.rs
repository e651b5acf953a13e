//! Property-based validation of the reservation arbiter: live leases are
//! always disjoint, dropping a lease returns exactly its slots, and a
//! plan solved under a lease never places a group outside it.

use std::collections::HashSet;
use std::sync::{Arc, OnceLock};

use flexsp_arbiter::{
    AdmissionPolicy, ClusterArbiter, JobId, Lease, LogicalClock, MaintenancePump, SlotRequest,
};
use flexsp_core::{FlexSpSolver, SolverConfig};
use flexsp_cost::CostModel;
use flexsp_data::Sequence;
use flexsp_model::{ActivationPolicy, ModelConfig};
use flexsp_sim::{ClusterSpec, GpuId, NodeSpec, SkuId, Topology};
use proptest::prelude::*;

/// Random mixed-SKU topology: 2–4 nodes of width 4–8, alternating classes.
fn topo_strategy() -> impl Strategy<Value = Topology> {
    prop::collection::vec((4u32..=8, 0u8..=1), 2..=4).prop_map(|nodes| {
        Topology::from_nodes(
            nodes
                .into_iter()
                .map(|(w, sku)| NodeSpec::new(w, SkuId(sku)))
                .collect(),
        )
    })
}

/// A randomized schedule of lease operations: `(gpus, prefer_slow,
/// release_slot)` — acquire a lease of `gpus`, and each step optionally
/// drops one previously acquired lease (by index hint).
fn schedule() -> impl Strategy<Value = Vec<(u32, bool, usize)>> {
    prop::collection::vec((1u32..=12, any::<bool>(), 0usize..8), 1..32)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn live_leases_are_always_disjoint(
        (topo, ops) in topo_strategy().prop_flat_map(|t| (Just(t), schedule())),
    ) {
        for policy in [AdmissionPolicy::Fifo, AdmissionPolicy::BestFitSkuClass] {
            let arb = ClusterArbiter::new(&topo, policy);
            let mut held: Vec<Lease> = Vec::new();
            for &(gpus, prefer_slow, drop_hint) in &ops {
                let mut req = SlotRequest::new(JobId(gpus as u64), gpus);
                if prefer_slow {
                    req = req.preferring(SkuId(1));
                }
                if let Ok(lease) = arb.try_lease(req) {
                    held.push(lease);
                }
                // Invariant: no GPU in two live leases, ledger audited.
                let mut seen: HashSet<GpuId> = HashSet::new();
                for lease in &held {
                    for g in lease.gpus() {
                        prop_assert!(seen.insert(*g), "{} in two live leases", g);
                        prop_assert!(g.0 < topo.num_gpus(), "{} outside {}", g, topo);
                    }
                }
                prop_assert!(arb.audit().is_ok(), "{:?}", arb.audit());
                if !held.is_empty() && drop_hint % 3 == 0 {
                    held.remove(drop_hint % held.len());
                }
            }
        }
    }

    #[test]
    fn drop_returns_exactly_its_slots(
        (topo, asks) in topo_strategy()
            .prop_flat_map(|t| (Just(t), prop::collection::vec(1u32..=10, 1..8))),
    ) {
        let arb = ClusterArbiter::new(&topo, AdmissionPolicy::Fifo);
        let mut held = Vec::new();
        for (i, &gpus) in asks.iter().enumerate() {
            if let Ok(lease) = arb.try_lease(SlotRequest::new(JobId(i as u64), gpus)) {
                held.push(lease);
            }
        }
        // Dropping each lease restores precisely its GPU count, and the
        // final free set is the whole cluster.
        while let Some(lease) = held.pop() {
            let before = arb.free_gpus();
            let released = lease.gpu_count();
            let gpus: Vec<GpuId> = lease.gpus().to_vec();
            drop(lease);
            prop_assert_eq!(arb.free_gpus(), before + released);
            let snapshot = arb.snapshot();
            for g in gpus {
                prop_assert!(snapshot.is_free(g), "{} not returned", g);
            }
        }
        prop_assert_eq!(arb.free_gpus(), topo.num_gpus());
        prop_assert!(arb.audit().is_ok());
    }
}

/// A `shards`-shard arbiter on a logical clock plus a pump built after
/// the reshard: `clock.advance(1); pump.poll()` is one tick.
fn clocked(
    topo: &Topology,
    policy: AdmissionPolicy,
    shards: u32,
) -> (ClusterArbiter, LogicalClock, MaintenancePump) {
    let clock = LogicalClock::new();
    let arb = ClusterArbiter::with_clock(topo, policy, Arc::new(clock.clone())).with_shards(shards);
    let pump = MaintenancePump::new(arb.clone());
    (arb, clock, pump)
}

/// A full-churn schedule: `(kind, gpus, who, term, idx)` where `kind`
/// selects among immediate lease / queued request / drop / shrink /
/// grow / one tick of time, `who` picks the job (and with it a priority
/// class), and `term` optionally time-bounds the lease.
fn churn_ops() -> impl Strategy<Value = Vec<(u8, u32, u8, u8, usize)>> {
    prop::collection::vec((0u8..=6, 1u32..=10, 0u8..=2, 0u8..=3, 0usize..8), 1..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn revocation_churn_conserves_slots_and_counters(
        (topo, ops) in topo_strategy().prop_flat_map(|t| (Just(t), churn_ops())),
    ) {
        use flexsp_arbiter::{Priority, Ticket};
        for policy in [AdmissionPolicy::Fifo, AdmissionPolicy::BestFitSkuClass] {
            let (arb, clock, mut pump) = clocked(&topo, policy, 1);
            let mut held: Vec<Lease> = Vec::new();
            let mut tickets: Vec<Ticket> = Vec::new();
            for &(kind, gpus, who, term, idx) in &ops {
                let mut req = SlotRequest::new(JobId(who as u64), gpus)
                    .with_priority(Priority(who * 100));
                if term > 0 {
                    req = req.with_term(term as u64);
                }
                match kind {
                    0 | 1 => {
                        if let Ok(l) = arb.try_lease(req) {
                            held.push(l);
                        }
                    }
                    2 => {
                        if let Ok(t) = arb.request(req) {
                            tickets.push(t);
                        }
                    }
                    3 => {
                        if !held.is_empty() {
                            held.remove(idx % held.len());
                        }
                    }
                    4 => {
                        if !held.is_empty() {
                            let i = idx % held.len();
                            let _ = held[i].shrink(gpus);
                        }
                    }
                    5 => {
                        if !held.is_empty() {
                            let i = idx % held.len();
                            let _ = held[i].grow(gpus, None);
                        }
                    }
                    _ => {
                        clock.advance(1);
                        pump.poll();
                    }
                }
                // Claim whatever was granted so queues drain over time,
                // then reconcile every handle with the arbiter (forced
                // reclaims and reaps may have happened) and discard
                // lapsed ones.
                tickets.retain(|t| match arb.claim(t) {
                    Some(l) => {
                        held.push(l);
                        false
                    }
                    None => true,
                });
                held.retain_mut(|l| {
                    l.sync();
                    l.gpu_count() > 0
                });
                // Invariants: live leases disjoint, ledger audited (the
                // audit includes the per-job conservation law), and the
                // counters reconcile with actual holdings.
                let mut seen: HashSet<GpuId> = HashSet::new();
                for l in &held {
                    for g in l.gpus() {
                        prop_assert!(seen.insert(*g), "{} in two live leases", g);
                    }
                }
                prop_assert!(arb.audit().is_ok(), "{:?}", arb.audit());
                for (job, c) in arb.fairness_all() {
                    prop_assert_eq!(
                        c.gpus_granted - c.gpus_released - c.gpus_moved,
                        arb.leased_gpus(job) as u64,
                        "conservation broke for {}: {:?}", job, c
                    );
                }
            }
            // Wind down: abandon queues, drop handles, tick past every
            // term — every slot must be back in the pool.
            for t in &tickets {
                arb.cancel(t);
            }
            held.clear();
            for _ in 0..8 {
                clock.advance(1);
                pump.poll();
            }
            prop_assert_eq!(
                arb.free_gpus(),
                topo.num_gpus(),
                "expired/dropped slots must all return ({policy})"
            );
            prop_assert!(arb.audit().is_ok());
        }
    }

    #[test]
    fn high_priority_is_never_starved_by_reclaimable_capacity(
        (topo, fills, want_pct) in topo_strategy()
            .prop_flat_map(|t| (Just(t), prop::collection::vec(1u32..=8, 1..5), 1u32..=100)),
    ) {
        use flexsp_arbiter::{Priority, DEFAULT_GRACE_TICKS};
        // Low-priority tenants hold arbitrary slices; a high-priority
        // request for any satisfiable size must be admitted within the
        // grace window — their capacity is reclaimable by definition.
        for policy in [AdmissionPolicy::Fifo, AdmissionPolicy::BestFitSkuClass] {
            let (arb, clock, mut pump) = clocked(&topo, policy, 1);
            let mut held: Vec<Lease> = Vec::new();
            for (i, &g) in fills.iter().enumerate() {
                if let Ok(l) = arb.try_lease(SlotRequest::new(JobId(i as u64), g)) {
                    held.push(l);
                }
            }
            let want = 1 + (want_pct * (topo.num_gpus() - 1)) / 100;
            let ticket = arb
                .request(SlotRequest::new(JobId(99), want).with_priority(Priority::HIGH))
                .expect("satisfiable size");
            let mut lease = arb.claim(&ticket);
            for _ in 0..DEFAULT_GRACE_TICKS + 2 {
                if lease.is_some() {
                    break;
                }
                clock.advance(1);
                pump.poll();
                lease = arb.claim(&ticket);
            }
            let lease = lease.unwrap_or_else(|| {
                panic!("high-priority request for {want} of {} starved", topo.num_gpus())
            });
            prop_assert_eq!(lease.gpu_count(), want);
            for l in &mut held {
                l.sync();
            }
            prop_assert!(arb.audit().is_ok(), "{:?}", arb.audit());
        }
    }
}

/// Solver-level property on a real fitted cost model (expensive to fit,
/// so the model is shared and the case count kept low).
fn shared_cost() -> &'static CostModel {
    static COST: OnceLock<CostModel> = OnceLock::new();
    COST.get_or_init(|| {
        let cluster = ClusterSpec::a100_cluster(4); // 32 GPUs
        let model = ModelConfig::gpt_7b(128 * 1024);
        CostModel::fit(&cluster, &model, ActivationPolicy::None)
    })
}

fn batch_strategy() -> impl Strategy<Value = Vec<Sequence>> {
    let len = prop_oneof![
        3 => 512u64..4096,
        2 => 4096u64..16_384,
        1 => 16_384u64..64_000,
    ];
    prop::collection::vec(len, 1..16).prop_map(|lens| {
        lens.into_iter()
            .enumerate()
            .map(|(i, l)| Sequence::new(i as u64, l))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn plans_solved_under_a_lease_never_escape_it(
        (gpus, batch) in (8u32..=24, batch_strategy()),
    ) {
        let cost = shared_cost();
        let arb = ClusterArbiter::new(cost.topology(), AdmissionPolicy::Fifo);
        // A competing lease occupies part of the cluster so the job's
        // lease is a genuinely restricted, possibly fragmented slice.
        let _other = arb.try_lease(SlotRequest::new(JobId(0), 6)).unwrap();
        let lease = arb.try_lease(SlotRequest::new(JobId(1), gpus)).unwrap();
        let owned: HashSet<GpuId> = lease.gpus().iter().copied().collect();
        let solver = lease.bind(FlexSpSolver::new(cost.clone(), SolverConfig::fast()));
        let Ok(solved) = solver.solve_iteration(&batch) else {
            // Memory-infeasible under this lease size: fine.
            return Ok(());
        };
        for mb in &solved.plan.micro_batches {
            let mut used = HashSet::new();
            for g in &mb.groups {
                let p = g.placement.as_ref().expect("plans arrive placed");
                for gpu in p.gpus() {
                    prop_assert!(owned.contains(gpu), "{} escaped the lease", gpu);
                    prop_assert!(used.insert(*gpu), "{} reused in a micro-batch", gpu);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The full revocation-churn invariant suite, replayed against a
    /// sharded ledger: disjointness, the conservation law, the audit
    /// (which cross-checks shard ledgers, gauges, and published
    /// snapshots), and total wind-down must all hold no matter how the
    /// node ranges are partitioned.
    #[test]
    fn sharded_revocation_churn_conserves_slots_and_counters(
        (topo, ops, shards) in topo_strategy()
            .prop_flat_map(|t| (Just(t), churn_ops(), 2u32..=4)),
    ) {
        use flexsp_arbiter::{Priority, Ticket};
        for policy in [AdmissionPolicy::Fifo, AdmissionPolicy::BestFitSkuClass] {
            let (arb, clock, mut pump) = clocked(&topo, policy, shards);
            let mut held: Vec<Lease> = Vec::new();
            let mut tickets: Vec<Ticket> = Vec::new();
            for &(kind, gpus, who, term, idx) in &ops {
                let mut req = SlotRequest::new(JobId(who as u64), gpus)
                    .with_priority(Priority(who * 100));
                if term > 0 {
                    req = req.with_term(term as u64);
                }
                match kind {
                    0 | 1 => {
                        if let Ok(l) = arb.try_lease(req) {
                            held.push(l);
                        }
                    }
                    2 => {
                        if let Ok(t) = arb.request(req) {
                            tickets.push(t);
                        }
                    }
                    3 => {
                        if !held.is_empty() {
                            held.remove(idx % held.len());
                        }
                    }
                    4 => {
                        if !held.is_empty() {
                            let i = idx % held.len();
                            let _ = held[i].shrink(gpus);
                        }
                    }
                    5 => {
                        if !held.is_empty() {
                            let i = idx % held.len();
                            let _ = held[i].grow(gpus, None);
                        }
                    }
                    _ => {
                        clock.advance(1);
                        pump.poll();
                    }
                }
                tickets.retain(|t| match arb.claim(t) {
                    Some(l) => {
                        held.push(l);
                        false
                    }
                    None => true,
                });
                held.retain_mut(|l| {
                    l.sync();
                    l.gpu_count() > 0
                });
                let mut seen: HashSet<GpuId> = HashSet::new();
                for l in &held {
                    for g in l.gpus() {
                        prop_assert!(seen.insert(*g), "{} in two live leases", g);
                    }
                }
                prop_assert!(arb.audit().is_ok(), "{:?}", arb.audit());
                for (job, c) in arb.fairness_all() {
                    prop_assert_eq!(
                        c.gpus_granted - c.gpus_released - c.gpus_moved,
                        arb.leased_gpus(job) as u64,
                        "conservation broke for {} at {} shards: {:?}", job, shards, c
                    );
                }
            }
            for t in &tickets {
                arb.cancel(t);
            }
            held.clear();
            for _ in 0..8 {
                clock.advance(1);
                pump.poll();
            }
            prop_assert_eq!(
                arb.free_gpus(),
                topo.num_gpus(),
                "expired/dropped slots must all return ({policy}, {shards} shards)"
            );
            prop_assert!(arb.audit().is_ok());
        }
    }

    /// No-starvation holds under sharding: a high-priority request of any
    /// satisfiable size is admitted within the grace window even when the
    /// reclaimable capacity is scattered across shards.
    #[test]
    fn sharded_high_priority_is_never_starved(
        (topo, fills, want_pct, shards) in topo_strategy()
            .prop_flat_map(|t| {
                (Just(t), prop::collection::vec(1u32..=8, 1..5), 1u32..=100, 2u32..=4)
            }),
    ) {
        use flexsp_arbiter::{Priority, DEFAULT_GRACE_TICKS};
        for policy in [AdmissionPolicy::Fifo, AdmissionPolicy::BestFitSkuClass] {
            let (arb, clock, mut pump) = clocked(&topo, policy, shards);
            let mut held: Vec<Lease> = Vec::new();
            for (i, &g) in fills.iter().enumerate() {
                if let Ok(l) = arb.try_lease(SlotRequest::new(JobId(i as u64), g)) {
                    held.push(l);
                }
            }
            let want = 1 + (want_pct * (topo.num_gpus() - 1)) / 100;
            let ticket = arb
                .request(SlotRequest::new(JobId(99), want).with_priority(Priority::HIGH))
                .expect("satisfiable size");
            let mut lease = arb.claim(&ticket);
            for _ in 0..DEFAULT_GRACE_TICKS + 2 {
                if lease.is_some() {
                    break;
                }
                clock.advance(1);
                pump.poll();
                lease = arb.claim(&ticket);
            }
            let lease = lease.unwrap_or_else(|| {
                panic!(
                    "high-priority request for {want} of {} starved at {shards} shards",
                    topo.num_gpus()
                )
            });
            prop_assert_eq!(lease.gpu_count(), want);
            for l in &mut held {
                l.sync();
            }
            prop_assert!(arb.audit().is_ok(), "{:?}", arb.audit());
        }
    }
}
