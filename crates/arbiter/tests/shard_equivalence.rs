//! 1-shard ≡ PR 5 regression, plus a differential trace: the default
//! (1-shard) arbiter must reproduce the pre-sharding arbiter's
//! placements bit-for-bit, and a sharded arbiter driven through the same
//! operation trace must agree with the 1-shard arbiter on everything
//! semantic — grant sizes, admissions, reports, fairness counters, and
//! final free capacity — even where the physical GPU ids may differ.

use std::sync::Arc;

use flexsp_arbiter::{
    AdmissionPolicy, ClusterArbiter, JobId, Lease, LogicalClock, MaintenancePump, Priority,
    SlotRequest, Ticket,
};
use flexsp_sim::{NodeSlots, Topology};

fn topo8x8() -> Topology {
    Topology::new(8, 8)
}

/// One scripted operation; the trace below drives two arbiters in
/// lockstep and compares what each observes.
#[derive(Clone, Copy)]
enum Op {
    Lease {
        job: u64,
        gpus: u32,
        term: Option<u64>,
        priority: u8,
    },
    Request {
        job: u64,
        gpus: u32,
        priority: u8,
    },
    Drop {
        slot: usize,
    },
    Shrink {
        slot: usize,
        gpus: u32,
    },
    Grow {
        slot: usize,
        gpus: u32,
    },
    Tick,
}

fn trace() -> Vec<Op> {
    use Op::*;
    vec![
        Lease {
            job: 1,
            gpus: 12,
            term: None,
            priority: 0,
        },
        Lease {
            job: 2,
            gpus: 20,
            term: Some(3),
            priority: 10,
        },
        Request {
            job: 3,
            gpus: 16,
            priority: 0,
        },
        Lease {
            job: 4,
            gpus: 8,
            term: None,
            priority: 0,
        }, // denied: queue ahead
        Grow { slot: 0, gpus: 8 }, // denied: queue ahead
        Tick,
        Shrink { slot: 0, gpus: 4 },
        Request {
            job: 5,
            gpus: 24,
            priority: 255,
        }, // demands from donors
        Tick,
        Tick,
        Drop { slot: 1 },
        Lease {
            job: 6,
            gpus: 6,
            term: Some(2),
            priority: 0,
        },
        Tick,
        Grow { slot: 0, gpus: 2 },
        Tick,
        Tick,
        Drop { slot: 0 },
        Tick,
    ]
}

/// Replays `ops` against a fresh `shards`-shard arbiter on a logical
/// clock (a `Tick` advances the clock and polls the arbiter's pump),
/// returning the per-step observation log a peer arbiter must match
/// exactly.
fn replay(policy: AdmissionPolicy, shards: u32, ops: &[Op]) -> Vec<String> {
    let clock = LogicalClock::new();
    let arb =
        ClusterArbiter::with_clock(&topo8x8(), policy, Arc::new(clock.clone())).with_shards(shards);
    assert_eq!(arb.num_shards(), shards as usize);
    let mut pump = MaintenancePump::new(arb.clone());
    let mut log = Vec::new();
    let mut held: Vec<Lease> = Vec::new();
    let mut tickets: Vec<Ticket> = Vec::new();
    for (step, &op) in ops.iter().enumerate() {
        match op {
            Op::Lease {
                job,
                gpus,
                term,
                priority,
            } => {
                let mut req = SlotRequest::new(JobId(job), gpus).with_priority(Priority(priority));
                if let Some(t) = term {
                    req = req.with_term(t);
                }
                match arb.try_lease(req) {
                    Ok(l) => {
                        log.push(format!("{step}: lease {job} granted {}", l.gpu_count()));
                        held.push(l);
                    }
                    Err(e) => log.push(format!("{step}: lease {job} -> {e}")),
                }
            }
            Op::Request {
                job,
                gpus,
                priority,
            } => {
                let req = SlotRequest::new(JobId(job), gpus).with_priority(Priority(priority));
                match arb.request(req) {
                    Ok(t) => {
                        log.push(format!("{step}: queued {job}"));
                        tickets.push(t);
                    }
                    Err(e) => log.push(format!("{step}: request {job} -> {e}")),
                }
            }
            Op::Drop { slot } => {
                if !held.is_empty() {
                    let l = held.remove(slot % held.len());
                    log.push(format!("{step}: dropped {} ({})", l.job(), l.gpu_count()));
                }
            }
            Op::Shrink { slot, gpus } => {
                if !held.is_empty() {
                    let i = slot % held.len();
                    let r = held[i].shrink(gpus);
                    log.push(format!("{step}: shrink {} -> {r:?}", held[i].job()));
                }
            }
            Op::Grow { slot, gpus } => {
                if !held.is_empty() {
                    let i = slot % held.len();
                    let r = held[i].grow(gpus, None);
                    log.push(format!("{step}: grow {} -> {r:?}", held[i].job()));
                }
            }
            Op::Tick => {
                clock.advance(1);
                let report = pump.poll().unwrap_or_default();
                log.push(format!("{step}: tick {report:?}"));
            }
        }
        // Claims and syncs, exactly as a tenant fleet would run them.
        tickets.retain(|t| match arb.claim(t) {
            Some(l) => {
                log.push(format!("  claimed {} ({})", l.job(), l.gpu_count()));
                held.push(l);
                false
            }
            None => true,
        });
        held.retain_mut(|l| {
            let ev = l.sync();
            log.push(format!("  sync {} {:?} n={}", l.job(), ev, l.gpu_count()));
            l.gpu_count() > 0
        });
        log.push(format!(
            "  free={} live={} pending={}",
            arb.free_gpus(),
            arb.live_leases(),
            arb.pending_requests()
        ));
        assert!(arb.audit().is_ok(), "step {step}: {:?}", arb.audit());
    }
    for t in &tickets {
        arb.cancel(t);
    }
    held.clear();
    for _ in 0..4 {
        clock.advance(1);
        pump.poll();
    }
    log.push(format!("end free={}", arb.free_gpus()));
    log.push(format!("fairness={:?}", arb.fairness_all()));
    log
}

/// The default 1-shard arbiter draws exactly what the pre-sharding
/// arbiter drew: packed groups taken from one cluster-wide ledger.
#[test]
fn one_shard_placements_match_the_unsharded_ledger() {
    let topo = topo8x8();
    let arb = ClusterArbiter::new(&topo, AdmissionPolicy::Fifo);
    assert_eq!(arb.num_shards(), 1);
    let mut mirror = NodeSlots::new(&topo);
    for (job, gpus) in [(1u64, 12u32), (2, 20), (3, 7), (4, 9)] {
        let lease = arb.try_lease(SlotRequest::new(JobId(job), gpus)).unwrap();
        let mut expect = mirror.take_packed(gpus).unwrap().gpus().to_vec();
        expect.sort_unstable();
        assert_eq!(lease.gpus(), &expect[..], "job {job} diverged from PR 5");
        std::mem::forget(lease); // keep the draw sequence going
    }
}

/// Sharding is semantics-preserving: a 1-shard and a 4-shard arbiter
/// driven through an identical mixed trace (grants, queueing, growth,
/// shrink compliance, preemption demands, term reaping, wind-down)
/// observe the same grant sizes, admission decisions, tick reports,
/// fairness counters, and free capacity at every step.
#[test]
fn sharded_trace_is_semantically_identical_to_one_shard() {
    let ops = trace();
    let base = replay(AdmissionPolicy::Fifo, 1, &ops);
    for shards in [2u32, 4, 8] {
        let sharded = replay(AdmissionPolicy::Fifo, shards, &ops);
        assert_eq!(
            base, sharded,
            "the {shards}-shard trace diverged from the 1-shard trace"
        );
    }
}

/// Best-fit admission is semantics-preserving under sharding too.
#[test]
fn sharded_best_fit_trace_matches_one_shard() {
    let ops = trace();
    let base = replay(AdmissionPolicy::BestFitSkuClass, 1, &ops);
    let sharded = replay(AdmissionPolicy::BestFitSkuClass, 4, &ops);
    assert_eq!(base, sharded, "best-fit diverged under sharding");
}
