//! Multi-job cluster sharing, end to end: two solver services share one
//! cluster through the reservation arbiter, produce disjoint
//! executor-valid placements concurrently, and a full-cluster lease
//! changes nothing relative to the pre-arbiter single-job path.

use std::collections::HashSet;
use std::sync::Arc;

use flexsp::arbiter::MaintenancePump;
use flexsp::prelude::*;
use flexsp_core::SolvedIteration;
use flexsp_sim::GpuId;

/// An arbiter over `cluster` on a logical clock the test advances, plus
/// the pump that enforces its terms and grace windows.
fn clocked(cluster: &ClusterSpec) -> (ClusterArbiter, LogicalClock, MaintenancePump) {
    let clock = LogicalClock::new();
    let arbiter = ClusterArbiter::with_clock(
        cluster.topology(),
        AdmissionPolicy::Fifo,
        Arc::new(clock.clone()),
    );
    let pump = MaintenancePump::new(arbiter.clone());
    (arbiter, clock, pump)
}

/// One tick of time: advance the clock, then poll the pump.
fn step(clock: &LogicalClock, pump: &mut MaintenancePump) -> TickReport {
    clock.advance(1);
    pump.poll().unwrap_or_default()
}

fn batch(seed: u64, n: usize, max_len: u64) -> Vec<Sequence> {
    (0..n as u64)
        .map(|i| {
            let len = 1024 + (seed * 37 + i * 911) % max_len;
            Sequence::new(seed * 10_000 + i, len)
        })
        .collect()
}

fn placed_gpus(solved: &SolvedIteration) -> Vec<HashSet<GpuId>> {
    solved
        .plan
        .micro_batches
        .iter()
        .map(|mb| {
            mb.groups
                .iter()
                .flat_map(|g| g.placement.as_ref().expect("plans arrive placed").gpus())
                .copied()
                .collect()
        })
        .collect()
}

#[test]
fn two_services_share_one_cluster_disjointly() {
    let cluster = ClusterSpec::a100_cluster(4); // 32 GPUs
    let model = ModelConfig::gpt_7b(96 * 1024);
    let policy = ActivationPolicy::None;
    let cost = CostModel::fit(&cluster, &model, policy);

    let arbiter = ClusterArbiter::for_cluster(&cluster, AdmissionPolicy::BestFitSkuClass);
    let lease_a = arbiter
        .try_lease(SlotRequest::new(JobId(1), 20))
        .expect("empty cluster");
    let lease_b = arbiter
        .try_lease(SlotRequest::new(JobId(2), 12))
        .expect("remaining capacity");
    assert!(arbiter.audit().is_ok());

    // Per-job services against one shared plan cache, running
    // concurrently (each service has its own worker threads).
    let cache = SharedPlanCache::new(64);
    let svc_a = SolverService::spawn_with_shared_cache(
        lease_a.bind(FlexSpSolver::new(cost.clone(), SolverConfig::fast())),
        2,
        &cache,
    );
    let svc_b = SolverService::spawn_with_shared_cache(
        lease_b.bind(FlexSpSolver::new(cost.clone(), SolverConfig::fast())),
        2,
        &cache,
    );
    for round in 0..3u64 {
        svc_a.submit(batch(round, 12, 48 * 1024));
        svc_b.submit(batch(100 + round, 16, 8 * 1024));
    }

    let own_a: HashSet<GpuId> = lease_a.gpus().iter().copied().collect();
    let own_b: HashSet<GpuId> = lease_b.gpus().iter().copied().collect();
    assert!(own_a.is_disjoint(&own_b), "leases overlap");

    let exec_a = Executor::new(cluster.clone(), model.clone(), policy);
    let exec_b = Executor::new(cluster.clone(), model.clone(), policy);
    for _ in 0..3 {
        let solved_a = svc_a.recv_plan().expect("job A plans");
        let solved_b = svc_b.recv_plan().expect("job B plans");
        // Placements stay inside each job's lease — so the two jobs'
        // micro-batches are disjoint pairwise, in every combination.
        for mb in placed_gpus(&solved_a) {
            assert!(mb.is_subset(&own_a), "job A escaped its lease");
        }
        for mb in placed_gpus(&solved_b) {
            assert!(mb.is_subset(&own_b), "job B escaped its lease");
        }
        // And both are executor-valid as-is: the executor validates
        // bounds, disjointness, and span/SKU agreement per micro-batch.
        let ra = exec_a.execute(&solved_a.plan).expect("job A executes");
        let rb = exec_b.execute(&solved_b.plan).expect("job B executes");
        assert!(ra.total_s > 0.0 && rb.total_s > 0.0);
    }
    svc_a.shutdown();
    svc_b.shutdown();
    drop(lease_b);
    drop(lease_a);
    assert_eq!(arbiter.free_gpus(), 32);
    assert!(arbiter.audit().is_ok());
}

#[test]
fn full_cluster_lease_is_bit_identical_to_the_pre_arbiter_path() {
    let cluster = ClusterSpec::a100_cluster(2); // 16 GPUs, uniform
    let model = ModelConfig::gpt_7b(64 * 1024);
    let cost = CostModel::fit(&cluster, &model, ActivationPolicy::None);
    let input = batch(7, 20, 32 * 1024);

    let plain = FlexSpSolver::new(cost.clone(), SolverConfig::fast());
    let direct = plain.solve_iteration(&input).expect("solvable");

    let arbiter = ClusterArbiter::for_cluster(&cluster, AdmissionPolicy::Fifo);
    let lease = arbiter
        .try_lease(SlotRequest::new(JobId(1), 16))
        .expect("whole cluster");
    let bound = lease.bind(FlexSpSolver::new(cost, SolverConfig::fast()));
    let via_lease = bound.solve_iteration(&input).expect("solvable");

    // Identical plans: same groups, shapes, sequence assignments AND
    // concrete placements — the arbiter path is a strict generalization.
    assert_eq!(direct.plan, via_lease.plan);
    for (a, b) in direct
        .plan
        .micro_batches
        .iter()
        .zip(&via_lease.plan.micro_batches)
    {
        for (ga, gb) in a.groups.iter().zip(&b.groups) {
            assert_eq!(ga.placement, gb.placement);
        }
    }
    assert_eq!(direct.predicted_s, via_lease.predicted_s);
}

#[test]
fn rebinding_after_shrink_keeps_plans_inside_the_smaller_lease() {
    // The documented resize contract: a shrink re-stamps the lease; the
    // job drops its stale-bound solver, re-binds, and every subsequent
    // plan stays inside the shrunken slot set (which no longer contains
    // the GPUs handed to the next tenant).
    let cluster = ClusterSpec::a100_cluster(2);
    let model = ModelConfig::gpt_7b(48 * 1024);
    let cost = CostModel::fit(&cluster, &model, ActivationPolicy::None);
    let arbiter = ClusterArbiter::for_cluster(&cluster, AdmissionPolicy::Fifo);

    let mut lease = arbiter.try_lease(SlotRequest::new(JobId(1), 16)).unwrap();
    let stale_fp = lease.fingerprint();
    lease.shrink(8).unwrap();
    assert_ne!(lease.fingerprint(), stale_fp, "resize re-stamps");
    let taker = arbiter.try_lease(SlotRequest::new(JobId(2), 8)).unwrap();

    let rebound = lease.bind(FlexSpSolver::new(cost, SolverConfig::fast()));
    let own: HashSet<GpuId> = lease.gpus().iter().copied().collect();
    let other: HashSet<GpuId> = taker.gpus().iter().copied().collect();
    assert!(own.is_disjoint(&other));
    let solved = rebound.solve_iteration(&batch(11, 8, 12 * 1024)).unwrap();
    for mb in placed_gpus(&solved) {
        assert!(mb.is_subset(&own), "re-bound plans honor the shrink");
        assert!(mb.is_disjoint(&other), "never touches the new tenant");
    }
    assert!(arbiter.audit().is_ok());
}

#[test]
fn late_high_priority_job_preempts_and_both_jobs_finish() {
    // The preemption scenario end to end: a low-priority job owns the
    // whole cluster; a high-priority job arrives mid-run, the arbiter
    // demands a shrink, the tenant ignores it, the grace window lapses,
    // the arbiter force-reclaims — and both jobs finish with
    // executor-valid, disjoint placements on their respective slots.
    let cluster = ClusterSpec::a100_cluster(2); // 16 GPUs
    let model = ModelConfig::gpt_7b(48 * 1024);
    let policy = ActivationPolicy::None;
    let cost = CostModel::fit(&cluster, &model, policy);
    let (arbiter, clock, mut pump) = clocked(&cluster);

    let mut lease_low = arbiter.try_lease(SlotRequest::new(JobId(1), 16)).unwrap();
    let solver_low = lease_low.bind(FlexSpSolver::new(cost.clone(), SolverConfig::fast()));
    let exec = Executor::new(cluster.clone(), model.clone(), policy);
    let first = solver_low
        .solve_iteration(&batch(1, 10, 24 * 1024))
        .unwrap();
    assert!(exec.execute(&first.plan).unwrap().total_s > 0.0);

    // The high-priority job arrives; nothing is free.
    let ticket = arbiter
        .request(SlotRequest::new(JobId(2), 8).with_priority(Priority::HIGH))
        .unwrap();
    assert!(arbiter.claim(&ticket).is_none(), "grace window first");
    let demand = lease_low.pending_demand().expect("demand issued");
    assert_eq!(demand.gpus, 8);

    // The tenant ignores the demand; the grace window lapses.
    let report = step(&clock, &mut pump);
    assert_eq!(report.reclaimed, vec![(JobId(1), 8)]);
    let lease_high = arbiter.claim(&ticket).expect("force-reclaim admitted it");
    assert_eq!(arbiter.fairness(JobId(1)).gpus_moved, 8);

    // The survivor observes the revocation via sync + fingerprint, drops
    // its stale solver, re-binds, and replans on the surviving slots.
    let stale_fp = lease_low.fingerprint();
    assert_eq!(lease_low.sync(), LeaseEvent::Resized { lost: 8 });
    assert_ne!(lease_low.fingerprint(), stale_fp, "forced shrink re-stamps");
    drop(solver_low);
    let rebound = lease_low.bind(FlexSpSolver::new(cost.clone(), SolverConfig::fast()));
    let solver_high = lease_high.bind(FlexSpSolver::new(cost, SolverConfig::fast()));

    let own_low: HashSet<GpuId> = lease_low.gpus().iter().copied().collect();
    let own_high: HashSet<GpuId> = lease_high.gpus().iter().copied().collect();
    assert!(own_low.is_disjoint(&own_high));
    let solved_low = rebound.solve_iteration(&batch(2, 8, 12 * 1024)).unwrap();
    let solved_high = solver_high
        .solve_iteration(&batch(3, 8, 12 * 1024))
        .unwrap();
    for mb in placed_gpus(&solved_low) {
        assert!(mb.is_subset(&own_low), "survivor escaped its shrunk lease");
    }
    for mb in placed_gpus(&solved_high) {
        assert!(mb.is_subset(&own_high), "preemptor escaped its lease");
    }
    assert!(exec.execute(&solved_low.plan).unwrap().total_s > 0.0);
    assert!(exec.execute(&solved_high.plan).unwrap().total_s > 0.0);
    assert!(arbiter.audit().is_ok());
}

#[test]
fn graceful_shrink_replans_through_a_running_service() {
    // The cooperative path: the tenant observes the demand, shrinks
    // before the deadline, and swaps its running SolverService onto the
    // surviving slots with `rebind` — no force, no stall.
    let cluster = ClusterSpec::a100_cluster(2);
    let model = ModelConfig::gpt_7b(48 * 1024);
    let policy = ActivationPolicy::None;
    let cost = CostModel::fit(&cluster, &model, policy);
    let arbiter = ClusterArbiter::for_cluster(&cluster, AdmissionPolicy::Fifo);

    let mut lease = arbiter.try_lease(SlotRequest::new(JobId(1), 16)).unwrap();
    let svc = SolverService::spawn(
        lease.bind(FlexSpSolver::new(cost.clone(), SolverConfig::fast())),
        2,
    );
    svc.submit(batch(4, 10, 24 * 1024));
    assert!(svc.recv_plan().is_ok());

    let ticket = arbiter
        .request(SlotRequest::new(JobId(2), 8).with_priority(Priority::HIGH))
        .unwrap();
    let demand = lease.pending_demand().expect("demand issued");
    lease.shrink(demand.gpus).unwrap();
    assert_eq!(lease.pending_demand(), None, "compliance clears the demand");
    svc.rebind(lease.bind(FlexSpSolver::new(cost, SolverConfig::fast())));

    let taker = arbiter.claim(&ticket).expect("shrink admitted the request");
    let own: HashSet<GpuId> = lease.gpus().iter().copied().collect();
    let other: HashSet<GpuId> = taker.gpus().iter().copied().collect();
    assert!(own.is_disjoint(&other));
    svc.submit(batch(5, 8, 12 * 1024));
    let solved = svc.recv_plan().expect("replans on the survivors");
    for mb in placed_gpus(&solved) {
        assert!(mb.is_subset(&own), "service escaped the shrunk lease");
        assert!(mb.is_disjoint(&other), "service touched the new tenant");
    }
    // Everything was voluntary: no GPUs were force-moved.
    assert_eq!(arbiter.fairness(JobId(1)).gpus_moved, 0);
    svc.shutdown();
    assert!(arbiter.audit().is_ok());
}

#[test]
fn leaked_lease_slots_return_after_its_term_lapses() {
    // A crashed tenant: the lease handle is leaked (Drop never runs),
    // but the lease carried a term — the arbiter reaps it and the pool
    // survives.
    let cluster = ClusterSpec::a100_cluster(2);
    let (arbiter, clock, mut pump) = clocked(&cluster);
    let leaked = arbiter
        .try_lease(SlotRequest::new(JobId(7), 12).with_term(2))
        .unwrap();
    std::mem::forget(leaked);
    assert_eq!(arbiter.free_gpus(), 4);

    assert!(step(&clock, &mut pump).is_quiet(), "term not lapsed yet");
    assert_eq!(arbiter.free_gpus(), 4);
    let report = step(&clock, &mut pump);
    assert_eq!(report.expired, vec![(JobId(7), 12)]);
    assert_eq!(arbiter.free_gpus(), 16, "reaped slots return to the pool");
    assert_eq!(arbiter.fairness(JobId(7)).gpus_moved, 12);
    assert!(arbiter.audit().is_ok());

    // The reclaimed capacity is immediately grantable.
    let next = arbiter.try_lease(SlotRequest::new(JobId(8), 16)).unwrap();
    assert_eq!(next.gpu_count(), 16);
}

#[test]
fn unconfigured_leases_see_pr4_behavior_under_ticks() {
    // Regression: an arbiter whose tenants use no priorities and no
    // terms must be bit-identical to the pre-preemption arbiter even
    // while the clock ticks — same epochs, same fingerprints, so every
    // cached plan stays valid.
    let cluster = ClusterSpec::a100_cluster(2);
    let model = ModelConfig::gpt_7b(48 * 1024);
    let cost = CostModel::fit(&cluster, &model, ActivationPolicy::None);
    let (arbiter, clock, mut pump) = clocked(&cluster);
    let lease = arbiter.try_lease(SlotRequest::new(JobId(1), 16)).unwrap();
    let fp = lease.fingerprint();
    let epoch = arbiter.epoch();
    let input = batch(7, 12, 16 * 1024);
    let solver = lease.bind(FlexSpSolver::new(cost.clone(), SolverConfig::fast()));
    let before = solver.solve_iteration(&input).expect("solvable");
    for _ in 0..4 {
        assert!(step(&clock, &mut pump).is_quiet());
    }
    assert_eq!(arbiter.epoch(), epoch, "quiet ticks never bump the epoch");
    assert_eq!(lease.fingerprint(), fp);
    assert_eq!(lease.pending_demand(), None);
    assert_eq!(lease.expires_at(), None);
    let after = solver.solve_iteration(&input).expect("still solvable");
    assert_eq!(before.plan, after.plan, "plans unchanged across ticks");
}

#[test]
fn queued_job_takes_over_released_slots_and_replans() {
    // A third tenant waits in the queue, claims the slots job A releases,
    // and its plans land exactly on the handed-over GPUs.
    let cluster = ClusterSpec::a100_cluster(2);
    let model = ModelConfig::gpt_7b(48 * 1024);
    let cost = CostModel::fit(&cluster, &model, ActivationPolicy::None);
    let arbiter = ClusterArbiter::for_cluster(&cluster, AdmissionPolicy::Fifo);

    let lease_a = arbiter.try_lease(SlotRequest::new(JobId(1), 12)).unwrap();
    let ticket = arbiter.request(SlotRequest::new(JobId(2), 10)).unwrap();
    assert!(arbiter.claim(&ticket).is_none(), "only 4 GPUs free");
    drop(lease_a);
    let lease_c = arbiter.claim(&ticket).expect("slots freed");
    let own: HashSet<GpuId> = lease_c.gpus().iter().copied().collect();

    let solver = lease_c.bind(FlexSpSolver::new(cost, SolverConfig::fast()));
    let solved = solver.solve_iteration(&batch(3, 8, 16 * 1024)).unwrap();
    for mb in placed_gpus(&solved) {
        assert!(mb.is_subset(&own));
    }
    assert!(arbiter.audit().is_ok());
}
