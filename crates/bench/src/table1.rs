//! Table 1: GPT-7B iteration time and All-to-All share vs SP degree, with
//! OOM cells, on 64 GPUs with a fixed 4M-token batch.

use flexsp_cost::{sp_step_spec, ulysses_zero_spec};
use flexsp_model::{ActivationPolicy, ModelConfig, ZeroStage};
use flexsp_sim::{simulate_sp_step, ClusterSpec, DeviceGroup};

use crate::render::{pct, secs, tokens, Table};

/// Table 1 configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Cluster nodes (paper: 8 → 64 GPUs).
    pub num_nodes: u32,
    /// `(seq_len, batch_size)` rows; every row is 4M tokens in the paper.
    pub rows: Vec<(u64, u64)>,
    /// SP degrees (columns).
    pub degrees: Vec<u32>,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            num_nodes: 8,
            rows: vec![
                (4 << 10, 1024),
                (8 << 10, 512),
                (16 << 10, 256),
                (32 << 10, 128),
                (64 << 10, 64),
                (128 << 10, 32),
                (256 << 10, 16),
            ],
            degrees: vec![64, 32, 16, 8, 4],
        }
    }
}

/// One cell: iteration seconds + All-to-All ratio, or `None` for OOM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// Sequence length of the row.
    pub seq: u64,
    /// Sequences in the batch.
    pub bs: u64,
    /// SP degree of the column.
    pub degree: u32,
    /// `(iteration seconds, All-to-All ratio)`; `None` = OOM.
    pub outcome: Option<(f64, f64)>,
}

/// Simulates one Table 1 cell: `bs` sequences of `seq` tokens trained with
/// homogeneous SP = `degree`, gradient accumulation as memory requires.
pub fn simulate_cell(
    cluster: &ClusterSpec,
    model: &ModelConfig,
    seq: u64,
    bs: u64,
    degree: u32,
) -> Option<(f64, f64)> {
    let policy = ActivationPolicy::None; // paper: 7B needs no checkpointing
    let n = cluster.num_gpus();
    if degree > n {
        return None;
    }
    // Per-group memory capacity in tokens.
    let ms = model.model_state_bytes(ZeroStage::Three, n as u64);
    let free = cluster.min_mem_bytes().checked_sub(ms)?;
    let cap = (free / model.act_bytes_per_token(policy)) * degree as u64;
    if seq > cap {
        return None; // the paper's OOM cells
    }
    let groups = (n / degree) as u64;
    let seqs_per_group = bs.div_ceil(groups);
    let seqs_per_micro = (cap / seq).max(1).min(seqs_per_group);
    let zero = ulysses_zero_spec(cluster, model);
    let group = DeviceGroup::aligned(0, degree);

    let mut remaining = seqs_per_group;
    let mut total = 0.0;
    let mut alltoall = 0.0;
    while remaining > 0 {
        let k = remaining.min(seqs_per_micro);
        let lens = vec![seq; k as usize];
        let spec = sp_step_spec(model, policy, degree, &lens, Some(zero));
        let r = simulate_sp_step(cluster, &group, &spec);
        total += r.total_s();
        alltoall += r.alltoall_s;
        remaining -= k;
    }
    total += 0.25; // optimizer step
    Some((total, alltoall / total))
}

/// Runs the full Table 1 grid.
pub fn run(cfg: &Config) -> Vec<Cell> {
    let cluster = ClusterSpec::a100_cluster(cfg.num_nodes);
    let model = ModelConfig::gpt_7b(256 << 10);
    let mut cells = Vec::new();
    for &(seq, bs) in &cfg.rows {
        for &d in &cfg.degrees {
            cells.push(Cell {
                seq,
                bs,
                degree: d,
                outcome: simulate_cell(&cluster, &model, seq, bs, d),
            });
        }
    }
    cells
}

/// Renders the grid in the paper's layout (time over All-to-All share).
pub fn render(cfg: &Config, cells: &[Cell]) -> String {
    let mut headers = vec!["seq x bs".to_string()];
    headers.extend(cfg.degrees.iter().map(|d| format!("SP={d}")));
    let mut t = Table::new(headers);
    for &(seq, bs) in &cfg.rows {
        let mut row = vec![format!("{} x {}", tokens(seq), bs)];
        for &d in &cfg.degrees {
            let cell = cells
                .iter()
                .find(|c| c.seq == seq && c.bs == bs && c.degree == d)
                .and_then(|c| c.outcome);
            row.push(match cell {
                Some((time, ratio)) => format!("{} ({})", secs(time), pct(ratio)),
                None => "OOM".into(),
            });
        }
        t.add_row(row);
    }
    format!("Table 1: GPT-7B iteration time (s) and All-to-All share vs SP degree, 64 GPUs\n{t}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oom_pattern_matches_paper() {
        // Paper Table 1: 32K OOMs at SP=4; 64K at SP<=8; 128K at SP<=16;
        // 256K at SP<=32 — and everything else fits.
        let cells = run(&Config::default());
        let get = |seq: u64, d: u32| {
            cells
                .iter()
                .find(|c| c.seq == seq && c.degree == d)
                .unwrap()
                .outcome
        };
        assert!(get(32 << 10, 4).is_none());
        assert!(get(32 << 10, 8).is_some());
        assert!(get(64 << 10, 8).is_none());
        assert!(get(64 << 10, 16).is_some());
        assert!(get(128 << 10, 16).is_none());
        assert!(get(128 << 10, 32).is_some());
        assert!(get(256 << 10, 32).is_none());
        assert!(get(256 << 10, 64).is_some());
    }

    #[test]
    fn comm_share_shrinks_with_degree() {
        // Paper: 8K×512 shows >40 % at SP=64 falling to <10 % at SP=8.
        let cells = run(&Config::default());
        let ratio = |d: u32| {
            cells
                .iter()
                .find(|c| c.seq == 8 << 10 && c.degree == d)
                .unwrap()
                .outcome
                .unwrap()
                .1
        };
        assert!(ratio(64) > 0.35, "SP=64 ratio {}", ratio(64));
        assert!(ratio(8) < 0.12, "SP=8 ratio {}", ratio(8));
        assert!(ratio(64) > ratio(32) && ratio(32) > ratio(16) && ratio(16) > ratio(8));
    }

    #[test]
    fn times_grow_superlinearly_with_sequence_length() {
        // Attention makes 256K×16 much slower than 4K×1024 at SP=64
        // despite equal token counts (paper: 137 s vs 37 s).
        let cells = run(&Config::default());
        let time = |seq: u64| {
            cells
                .iter()
                .find(|c| c.seq == seq && c.degree == 64)
                .unwrap()
                .outcome
                .unwrap()
                .0
        };
        let ratio = time(256 << 10) / time(4 << 10);
        assert!(ratio > 2.0, "superlinear growth ratio {ratio}");
    }

    #[test]
    fn render_contains_oom_and_rows() {
        let cfg = Config::default();
        let s = render(&cfg, &run(&cfg));
        assert!(s.contains("OOM"));
        assert!(s.contains("4K x 1024"));
        assert!(s.contains("256K x 16"));
    }
}
