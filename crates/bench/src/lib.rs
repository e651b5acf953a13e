//! Experiment harness regenerating every table and figure of the FlexSP
//! paper (ASPLOS 2025) on the simulated cluster.
//! (Where this crate sits in the solve → place → execute pipeline is
//! described in `docs/ARCHITECTURE.md` at the repository root.)
//!
//! Each `expNN` module exposes a `run(config) -> rows` driver and a
//! `render(&rows) -> String` pretty-printer producing the same rows/series
//! the paper reports. The `report` binary runs any subset:
//!
//! ```text
//! cargo run --release -p flexsp-bench --bin report -- all
//! cargo run --release -p flexsp-bench --bin report -- table1 figure4
//! ```
//!
//! | Paper artifact | Module |
//! |---|---|
//! | Table 1 (SP degree sweep + OOM) | [`table1`] |
//! | Fig. 2 (corpus length distributions) | [`figure2`] |
//! | Fig. 4 (end-to-end, 4 systems × 18 workloads) | [`figure4`] |
//! | Table 3 + Fig. 5a/5b (case study) | [`case_study`] |
//! | Fig. 6 (scalability: GPUs & context) | [`figure6`] |
//! | Fig. 7 (solver ablations) | [`figure7`] |
//! | Table 4 (bucketing token error) | [`table4`] |
//! | Fig. 8 (solver scaling to 1024 GPUs) | [`figure8`] |
//! | Fig. 9 / App. C (cost-model accuracy) | [`figure9`] |
//! | Table 5 / App. B (model configs) | [`table5`] |
//! | Appendix E (flexible CP, paper future work) | [`appendix_e`] |
//! | Plan-serving throughput gate (`BENCH_plan_throughput.json`) | [`plan_throughput`] |
//! | Arbiter churn gate (`BENCH_arbiter_churn.json`) | [`arbiter_churn`] |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod appendix_e;
pub mod arbiter_churn;
pub mod case_study;
pub mod common;
pub mod figure2;
pub mod figure4;
pub mod figure6;
pub mod figure7;
pub mod figure8;
pub mod figure9;
pub mod plan_throughput;
pub mod render;
pub mod table1;
pub mod table4;
pub mod table5;
