//! Measures the `arbiter_churn` suite, prints it as JSON on stdout, and
//! optionally gates on a baseline or writes the JSON to a file. Without
//! `--out` it writes no file, so a smoke run never replaces the
//! checked-in `BENCH_arbiter_churn.json`.
//!
//! ```text
//! # Measure and print the JSON:
//! cargo run --release -p flexsp-bench --bin arbiter_churn
//!
//! # Also write it to a file (`scripts/check_bench.sh --refresh` rewrites
//! # the baseline this way):
//! cargo run --release -p flexsp-bench --bin arbiter_churn -- --out BENCH_arbiter_churn.json
//!
//! # CI gate: run fresh, compare against the checked-in baseline, exit 1
//! # on a >20% grants/sec regression or a sharded speedup below 5x:
//! cargo run --release -p flexsp-bench --bin arbiter_churn -- --check BENCH_arbiter_churn.json
//!
//! # Smoke mode (smaller churn budgets, same shape of output):
//! cargo run --release -p flexsp-bench --bin arbiter_churn -- --quick
//!
//! # Dump a Perfetto-loadable chrome trace of the measured run:
//! cargo run --release -p flexsp-bench --bin arbiter_churn -- --quick --trace-out churn_trace.json
//! ```

use flexsp_bench::arbiter_churn::{regressions, run, to_json};
use flexsp_telemetry as tel;

/// Fail the gate when a grants/sec metric drops more than this fraction
/// below the checked-in baseline.
const GATE_TOLERANCE: f64 = 0.20;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check = args.iter().position(|a| a == "--check").map(|i| {
        args.get(i + 1).cloned().unwrap_or_else(|| {
            eprintln!("--check requires a baseline path");
            std::process::exit(2);
        })
    });
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned());
    let trace_out = args
        .iter()
        .position(|a| a == "--trace-out")
        .and_then(|i| args.get(i + 1).cloned());

    if trace_out.is_some() {
        tel::tracing_start();
    }
    let report = run(quick);
    if let Some(path) = &trace_out {
        tel::tracing_stop();
        std::fs::write(path, tel::drain_chrome_trace()).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        });
        eprintln!("wrote {path}");
    }
    let json = to_json(&report);
    print!("{json}");

    if let Some(baseline_path) = check {
        let baseline = std::fs::read_to_string(&baseline_path).unwrap_or_else(|e| {
            eprintln!("cannot read baseline {baseline_path}: {e}");
            std::process::exit(2);
        });
        let failures = regressions(&report, &baseline, GATE_TOLERANCE);
        if failures.is_empty() {
            eprintln!(
                "arbiter_churn gate PASSED against {baseline_path} \
                 (tolerance {:.0}%)",
                GATE_TOLERANCE * 100.0
            );
        } else {
            for f in &failures {
                eprintln!("arbiter_churn gate FAILED: {f}");
            }
            std::process::exit(1);
        }
    }

    if let Some(path) = out {
        std::fs::write(&path, &json).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        });
        eprintln!("wrote {path}");
    }
}
