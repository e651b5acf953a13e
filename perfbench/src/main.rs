//! End-to-end and per-layer benchmark of the FlexSP workspace.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train_fig6|serve_recurring|cluster_churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload drives the crates' public functions from outside, with
//! inputs generated from `--seed`, checks every output, and prints two
//! lines: a detailed report (the workload's own metrics with units and
//! sample counts, the host record and a plan/outcome fingerprint), then
//! the result line with the declared end-to-end metrics (`--trace 0`) or
//! per-layer metrics (`--trace 1`). The process exits non-zero when any
//! output check failed. README.md gives each workload's rationale.

mod affinity;
mod check;
mod churn;
mod clock;
mod layers;
mod report;
mod serve;
mod side;
mod speed;
mod stats;
mod train;

use clock::Timer;
use std::process::ExitCode;

use layers::Layers;
use report::{Named, Outcome, SHARED_LAYERS};
use side::Side;
use stats::percentile;

/// The set-up times of one run; `setup_s` is their median.
///
/// The first set-up builds what the run uses. A workload whose set-up
/// takes milliseconds repeats it between timed units all through the run
/// and throws the copies away: the host's speed wanders by up to half
/// over a few seconds, and a median of set-ups spread over the whole run
/// holds still where one taken from a burst at start-up does not.
#[derive(Debug, Default)]
pub struct Setup {
    times: Vec<f64>,
}

impl Setup {
    /// Runs and times one set-up.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        self.time_scaled(1.0, f)
    }

    /// Runs and times one set-up, its time multiplied by `scale` (a
    /// [`speed::HostSpeed`] scale).
    pub fn time_scaled<T>(&mut self, scale: f64, f: impl FnOnce() -> T) -> T {
        let t = Timer::start();
        let out = f();
        self.times.push(t.elapsed().as_secs_f64() * scale);
        out
    }

    /// The median set-up time in seconds, with the number of set-ups.
    pub fn median(&self) -> (f64, usize) {
        (
            percentile(&stats::sorted(self.times.clone()), 0.5),
            self.times.len(),
        )
    }
}

/// Fills the end-to-end metrics (untraced run) or the tracing-overhead
/// metric (traced run) from sides whose windows are closed, and the
/// report entries every workload shares.
pub fn finish(out: &mut Outcome, setup: &Setup, sides: &[Side; 2], trace: bool, tail_p: f64) {
    let (setup_s, reps) = setup.median();
    out.named
        .insert(0, Named::new("setup_s", setup_s, "s", reps as u64));
    let error_rate = out.failed as f64 / out.attempted.max(1) as f64;
    out.named.insert(
        1,
        Named::new("error_rate", error_rate, "ratio", out.attempted),
    );
    let plain = &sides[0];
    if !trace {
        out.set("setup_s", setup_s);
        out.set("ops_per_s", plain.ops_per_s());
        if let Some(p50) = plain.p50_us() {
            out.set("op_p50_us", p50);
        }
        if let Some(t) = plain.tail_us(tail_p) {
            out.set("op_tail_us", t.value);
        }
        out.set("quality_ratio", plain.quality());
        return;
    }
    let traced = &sides[1];
    if plain.units > 0 && traced.units > 0 {
        out.set(
            "tracing.overhead_pct",
            (traced.per_unit_s() / plain.per_unit_s() - 1.0) * 100.0,
        );
    }
}

/// Closes the open window of both sides.
pub fn close_windows(sides: &mut [Side; 2], tail_p: f64) {
    for s in sides {
        s.close_window(tail_p);
    }
}

/// Sets every `<layer>.share_pct` and the untraced remainder.
pub fn set_shares(out: &mut Outcome, layers: &Layers) {
    for layer in SHARED_LAYERS {
        let name = format!("{layer}.share_pct");
        let declared = report::per_layer()
            .iter()
            .find(|(n, _)| *n == name)
            .expect("every shared layer declares a share");
        out.set(declared.0.as_str(), layers.share_pct(layer));
    }
    out.set("tracing.untraced_pct", layers.untraced_pct());
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The commit of the checkout the benchmark runs in, read from `.git`
/// in the working directory only; `unknown` outside a git checkout.
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Read before a workload pins its threads, which narrows the answer.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let seconds = args.seconds as f64;
    let mut out = match args.workload.as_str() {
        "train_fig6" => train::run(args.seed, seconds, args.trace),
        "serve_recurring" => serve::run(args.seed, seconds, args.trace),
        "cluster_churn" => churn::run(args.seed, seconds, args.trace),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let declared = if args.trace {
        report::per_layer()
    } else {
        report::end_to_end()
    };
    if args.trace {
        // A layer this workload never calls reads zero.
        for (name, _) in declared {
            out.values.entry(name.as_str()).or_insert(0.0);
        }
    }
    println!(
        "{}",
        report::report_line(
            &args.workload,
            args.seed,
            args.seconds,
            args.trace,
            &out,
            nproc,
            &commit()
        )
    );
    for f in &out.failures {
        eprintln!("perfbench: check failed: {f}");
    }
    let correct = out.failed == 0;
    match report::result_line(
        correct,
        out.attempted.max(1),
        out.failed,
        declared,
        &out.values,
    ) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
