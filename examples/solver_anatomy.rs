//! Solver anatomy: watch the FlexSP solver work on one batch, stage by
//! stage — the paper's Fig. 1 motivating example end to end.
//!
//! ```text
//! cargo run --release --example solver_anatomy
//! ```
//!
//! Plans the paper's 100K + 4×48K scenario on 64 GPUs: first the
//! homogeneous alternatives (Case Homo-1/2), then the heterogeneous plan
//! FlexSP finds (Case Hetero), showing the blaster, bucketing, heuristic,
//! and MILP stages separately. The per-phase timing summary at the end
//! is derived from the telemetry spans the solver itself records, so the
//! example and the tracer can never disagree about phase boundaries.

use std::collections::BTreeMap;

use flexsp::core::blaster;
use flexsp::core::bucketing::bucket_dp;
use flexsp::core::{plan_homogeneous, plan_micro_batch, Formulation};
use flexsp::prelude::*;
use flexsp::telemetry as tel;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    tel::tracing_start();
    let cluster = ClusterSpec::a100_cluster(8);
    let model = ModelConfig::gpt_7b(192 * 1024);
    let policy = ActivationPolicy::None;
    let cost = CostModel::fit(&cluster, &model, policy);

    // The paper's Fig. 1 scenario: one 100K sequence + four 48K sequences.
    let batch: Vec<Sequence> = [100 * 1024u64, 48 * 1024, 48 * 1024, 48 * 1024, 48 * 1024]
        .iter()
        .enumerate()
        .map(|(i, &l)| Sequence::new(i as u64, l))
        .collect();
    println!("batch: 1 x 100K + 4 x 48K sequences, 64 GPUs\n");

    // Stage 1: the blaster decides this fits one micro-batch.
    let m_min = blaster::min_micro_batches(&batch, cost.cluster_token_capacity())
        .expect("cluster capacity is non-zero");
    println!(
        "blaster: M_min = {m_min} (cluster holds {} tokens/micro-batch)",
        cost.cluster_token_capacity()
    );

    // Stage 2: bucketing compresses the lengths.
    let buckets = bucket_dp(&batch, 16);
    println!(
        "buckets: {:?}",
        buckets
            .iter()
            .map(|b| (b.upper, b.count()))
            .collect::<Vec<_>>()
    );

    // Homogeneous alternatives (what packing-based systems must do).
    for d in [32u32, 64] {
        if let Ok(p) = plan_homogeneous(&cost, &batch, 64, d) {
            println!(
                "homogeneous SP={d:<2}: {}  predicted {:.2}s",
                p.degree_signature(),
                p.predicted_time(&cost)
            );
        }
    }

    // Stage 3: the planner. Heuristic first, then the MILP.
    for (name, cfg) in [
        ("heuristic", PlannerConfig::heuristic_only()),
        (
            "MILP (aggregated)",
            PlannerConfig {
                formulation: Formulation::Aggregated,
                ..PlannerConfig::default()
            },
        ),
    ] {
        let plan = plan_micro_batch(&cost, &buckets, 64, &cfg)?;
        println!(
            "FlexSP {name:<21}: {}  predicted {:.2}s",
            plan.degree_signature(),
            plan.predicted_time(&cost)
        );
    }

    // Execute the best plan and show where the time goes.
    let plan = plan_micro_batch(&cost, &buckets, 64, &PlannerConfig::default())?;
    let executor = Executor::new(cluster, model, policy);
    let report = executor.execute(&flexsp::core::IterationPlan::new(vec![plan]))?;
    println!(
        "\nexecuted: {:.2}s (compute {:.2}s, All-to-All {:.2}s, ZeRO {:.2}s)",
        report.total_s, report.compute_s, report.alltoall_s, report.zero_s
    );
    println!(
        "per-group idle (imbalance) GPU-seconds: {:.1}",
        report.micro_batches[0].idle_gpu_s
    );

    // Per-phase breakdown, read back from the solver's own spans: the
    // phase boundaries here are *the same code* the chrome-trace export
    // sees, not a second set of hand-placed timers.
    tel::tracing_stop();
    let mut phases: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for ev in tel::drain_events() {
        let e = phases.entry(ev.name).or_insert((0, 0));
        e.0 += 1;
        e.1 += ev.dur_us;
    }
    println!("\nsolver phases (from telemetry spans):");
    for (name, (calls, total_us)) in phases {
        println!("  {name:<18} x{calls:<5} {:.3} ms", total_us as f64 / 1e3);
    }
    Ok(())
}
