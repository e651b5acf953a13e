//! Cost-model estimation accuracy (paper Appendix C, Fig. 9).

use flexsp_model::{ActivationPolicy, ModelConfig};
use flexsp_sim::{simulate_sp_step, ClusterSpec, DeviceGroup};

use crate::cost_model::CostModel;
use crate::workload::{sp_step_spec, ulysses_zero_spec};

/// One (configuration, ground truth, prediction) triple.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyPoint {
    /// SP degree of the measured group.
    pub degree: u32,
    /// Constituent sequence length.
    pub seq_len: u64,
    /// Number of sequences processed by the group.
    pub num_seqs: usize,
    /// Simulated ground-truth group time (seconds).
    pub actual_s: f64,
    /// Cost-model prediction (seconds).
    pub predicted_s: f64,
}

impl AccuracyPoint {
    /// Signed relative error `(predicted − actual) / actual`.
    pub fn rel_err(&self) -> f64 {
        (self.predicted_s - self.actual_s) / self.actual_s
    }
}

/// Evaluates `cost` against the simulator over a grid of `(seq_len,
/// num_seqs, degree)` configurations mirroring Table 1's sweep. Memory
/// infeasible configurations are skipped (the paper's OOM cells).
pub fn evaluate_grid(
    cluster: &ClusterSpec,
    model: &ModelConfig,
    policy: ActivationPolicy,
    cost: &CostModel,
    configs: &[(u64, usize, u32)],
) -> Vec<AccuracyPoint> {
    let zero = ulysses_zero_spec(cluster, model);
    let mut out = Vec::new();
    for &(seq_len, num_seqs, degree) in configs {
        let seqs = vec![seq_len; num_seqs];
        let tokens: u64 = seqs.iter().sum();
        if !cost.fits_memory(tokens, degree) {
            continue;
        }
        // Ground truth matches the executor: ZeRO-3 traffic included and
        // the group placed at the shape's canonical balanced layout.
        let spec = sp_step_spec(model, policy, degree, &seqs, Some(zero));
        let shape = cost.packed_shape(degree);
        let group = DeviceGroup::for_shape_on(shape, cluster.topology(), 0);
        let actual = simulate_sp_step(cluster, &group, &spec).total_s();
        let predicted = cost.group_time(&seqs, shape);
        out.push(AccuracyPoint {
            degree,
            seq_len,
            num_seqs,
            actual_s: actual,
            predicted_s: predicted,
        });
    }
    out
}

/// The default evaluation grid: Table-1-like sweeps with sequence lengths
/// and loads chosen *off* the profiler's own training grid, so the
/// reported errors measure genuine generalization of the fitted linear
/// model (not interpolation at its anchors).
pub fn default_grid(num_gpus: u32) -> Vec<(u64, usize, u32)> {
    let mut grid = Vec::new();
    // Off-grid lengths (profiler trains on 2K/8K/32K/128K).
    for seq in [3_000u64, 5_500, 12_000, 24_000, 48_000, 96_000, 200_000] {
        for d in [4u32, 8, 16, 32, 64] {
            if d > num_gpus {
                continue;
            }
            // Realistic micro-batch loads: ~2K and ~5K tokens per GPU.
            for per_gpu in [2_048u64, 5_120] {
                let tokens = d as u64 * per_gpu;
                let n = (tokens / seq).max(1) as usize;
                grid.push((seq, n, d));
            }
        }
    }
    grid
}

/// Largest absolute relative error across `points`.
pub fn max_abs_rel_err(points: &[AccuracyPoint]) -> f64 {
    points.iter().map(|p| p.rel_err().abs()).fold(0.0, f64::max)
}

/// Mean absolute relative error across `points`.
pub fn mean_abs_rel_err(points: &[AccuracyPoint]) -> f64 {
    if points.is_empty() {
        return 0.0;
    }
    points.iter().map(|p| p.rel_err().abs()).sum::<f64>() / points.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_evaluation_stays_accurate() {
        let cluster = ClusterSpec::a100_cluster(8);
        let model = ModelConfig::gpt_7b(384 * 1024);
        let policy = ActivationPolicy::None;
        let cost = CostModel::fit(&cluster, &model, policy);
        let pts = evaluate_grid(&cluster, &model, policy, &cost, &default_grid(64));
        assert!(pts.len() > 10, "grid too small: {}", pts.len());
        let mean = mean_abs_rel_err(&pts);
        // Appendix C reports <6 % error; allow headroom for our nonlinear
        // simulator at the extremes of the grid.
        assert!(mean < 0.10, "mean abs rel err {mean:.3}");
    }

    #[test]
    fn rel_err_signs() {
        let p = AccuracyPoint {
            degree: 8,
            seq_len: 1,
            num_seqs: 1,
            actual_s: 2.0,
            predicted_s: 1.0,
        };
        assert!((p.rel_err() + 0.5).abs() < 1e-12);
    }
}
