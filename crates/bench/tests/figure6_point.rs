//! Pins the paper's Fig. 6 point exactly: GPT-7B on a CommonCrawl-like
//! corpus at 128K context, 512-sequence global batches on 64 simulated
//! A100s (8×8), data seed 1 — the input of perfbench's `train_fig6` at
//! `--seed 1`. Twenty batches are planned with `SolverConfig::fast()` as
//! shipped, executed on the simulator, and run through DeepSpeed-Ulysses.
//!
//! Every MILP search is bounded by its node budget alone, so the plans are
//! a function of the batches: the summed predicted time, the plans' shape
//! signatures and the simulated DeepSpeed-Ulysses/FlexSP time ratio are
//! the same in debug and release builds, on any host, under any load. A
//! change that moves any plan fails here. Before re-pinning, check that
//! the plans did not get worse: the predicted total should not rise and
//! the ratio should not fall.

use flexsp_baselines::TrainingSystem;
use flexsp_bench::common::{DatasetKind, ModelKind, Workload};
use flexsp_core::{Executor, FlexSpSolver, SolverConfig};
use flexsp_cost::CostModel;
use flexsp_trace::log_hash;

const BATCHES: usize = 20;

#[test]
fn fig6_point_plans_and_speedup_are_pinned() {
    let w = Workload {
        seed: 1,
        ..Workload::paper(ModelKind::Gpt7b, DatasetKind::CommonCrawl, 128 << 10)
    };
    let (cluster, model, policy) = (w.cluster(), w.model_config(), w.policy());
    let solver = FlexSpSolver::new(
        CostModel::fit(&cluster, &model, policy),
        SolverConfig::fast(),
    );
    let executor = Executor::new(cluster, model, policy);
    let mut deepspeed = w.deepspeed().expect("a 128K input fits 64 GPUs");
    let mut loader = w.loader();

    let mut predicted_s = 0.0;
    let mut signatures = Vec::with_capacity(BATCHES);
    let (mut flexsp_s, mut deepspeed_s) = (0.0, 0.0);
    for _ in 0..BATCHES {
        let batch = loader.next_batch();
        let solved = solver.solve_iteration(&batch).expect("the batch plans");
        predicted_s += solved.predicted_s;
        signatures.push(solved.plan.shape_signature());
        flexsp_s += executor
            .execute(&solved.plan)
            .expect("the plan runs")
            .total_s;
        deepspeed_s += deepspeed
            .run_iteration(&batch)
            .expect("DeepSpeed runs")
            .total_s;
    }
    let ratio = deepspeed_s / flexsp_s;

    assert_eq!(
        predicted_s.to_bits(),
        0x4079_0a9c_f940_2ba1,
        "predicted {predicted_s:.4} s, pinned 400.6633 s"
    );
    assert_eq!(
        log_hash(&signatures),
        0x11b8_078a_8a11_1b4e,
        "plan signatures moved"
    );
    assert_eq!(
        ratio.to_bits(),
        0x3ff7_2302_af2d_9521,
        "DeepSpeed-Ulysses/FlexSP {ratio:.6}, pinned 1.446047"
    );
}
