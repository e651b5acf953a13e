//! Measures the `plan_throughput` suite, prints it as JSON on stdout, and
//! optionally gates on a baseline or writes the JSON to a file. Without
//! `--out` it writes no file, so a smoke run never replaces the
//! checked-in `BENCH_plan_throughput.json`.
//!
//! ```text
//! # Measure and print the JSON:
//! cargo run --release -p flexsp-bench --bin plan_throughput
//!
//! # Also write it to a file (`scripts/check_bench.sh --refresh` rewrites
//! # the baseline this way):
//! cargo run --release -p flexsp-bench --bin plan_throughput -- --out BENCH_plan_throughput.json
//!
//! # CI gate: run fresh, compare against the checked-in baseline, exit 1
//! # on a >20% plans/sec regression:
//! cargo run --release -p flexsp-bench --bin plan_throughput -- --check BENCH_plan_throughput.json
//!
//! # Smoke mode (smaller request counts, same shape of output):
//! cargo run --release -p flexsp-bench --bin plan_throughput -- --quick
//!
//! # Dump a Perfetto-loadable chrome trace of the measured run:
//! cargo run --release -p flexsp-bench --bin plan_throughput -- --quick --trace-out plan_trace.json
//! ```

use flexsp_bench::cli::path_flag;
use flexsp_bench::plan_throughput::{regressions, run, to_json};
use flexsp_telemetry as tel;

/// Fail the gate when a plans/sec metric drops more than this fraction
/// below the checked-in baseline.
const GATE_TOLERANCE: f64 = 0.20;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check = path_flag(&args, "--check");
    let out = path_flag(&args, "--out");
    let trace_out = path_flag(&args, "--trace-out");

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
                "plan_throughput gate PASSED against {baseline_path} \
                 (tolerance {:.0}%)",
                GATE_TOLERANCE * 100.0
            );
        } else {
            for f in &failures {
                eprintln!("plan_throughput gate FAILED: {f}");
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
