//! What a run prints: the metrics `BENCHMARK.json` declares, the detailed
//! report line, and the final result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::OnceLock;

/// `BENCHMARK.json`, the one place the metric names and units are declared.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// A declared metric: `(name, unit)`.
pub type Declared = (String, String);

/// End-to-end metrics every workload prints with `--trace 0`, in the
/// order `BENCHMARK.json` lists them. Each workload maps them onto its
/// own operation; see README.md.
pub fn end_to_end() -> &'static [Declared] {
    static LIST: OnceLock<Vec<Declared>> = OnceLock::new();
    LIST.get_or_init(|| declared(BENCHMARK_JSON, "end_to_end"))
}

/// Per-layer metrics every workload prints with `--trace 1`, in the order
/// `BENCHMARK.json` lists them. A layer the workload never calls reads `0`.
pub fn per_layer() -> &'static [Declared] {
    static LIST: OnceLock<Vec<Declared>> = OnceLock::new();
    LIST.get_or_init(|| declared(BENCHMARK_JSON, "per_layer"))
}

/// The `(name, unit)` pairs of metric list `list` in `json`, read with a
/// minimal scanner: the file is flat, and no name, unit or `why` holds a
/// brace, bracket or escaped quote.
fn declared(json: &str, list: &str) -> Vec<Declared> {
    let start = json
        .find(&format!("\"{list}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json lists {list}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("the list is closed")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\"")).expect("field present") + key.len() + 2;
        let rest = &obj[at..];
        let open = rest.find('"').expect("string value") + 1;
        let close = rest[open..].find('"').expect("closed string") + open;
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

/// Layers whose share of traced root time is reported as
/// `<layer>.share_pct` (a span counts toward a layer when its name starts
/// with the layer's name).
pub const SHARED_LAYERS: &[&str] = &[
    "data",
    "core.workflow",
    "core.blaster",
    "core.bucketing",
    "core.planner",
    "milp",
    "core.placement",
    "core.executor",
    "baselines",
    "core.service",
    "arbiter",
];

/// One metric of the detailed report line, in the workload's own terms.
#[derive(Debug, Clone)]
pub struct Named {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value.
    pub samples: u64,
    /// The percentile reported and the samples beyond it, for tails.
    pub tail: Option<(f64, usize)>,
}

impl Named {
    /// A metric with no percentile attached.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: u64) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
            samples,
            tail: None,
        }
    }

    /// A tail metric, scaled by `scale` into `unit`.
    pub fn tail(
        name: impl Into<String>,
        t: crate::stats::Tail,
        scale: f64,
        unit: &'static str,
        samples: u64,
    ) -> Self {
        Self {
            tail: Some((t.p, t.beyond)),
            ..Self::new(name, t.value * scale, unit, samples)
        }
    }
}

/// Threads a workload ran, for the host record.
#[derive(Debug, Clone, Copy, Default)]
pub struct Threads {
    /// Closed-loop driver threads issuing the timed operations.
    pub driver: u32,
    /// Read-only poller threads.
    pub reader: u32,
    /// `SolverService` worker threads across all tenants.
    pub service_workers: u32,
    /// Whether the driver and reader were pinned to their own cores.
    pub pinned: bool,
}

/// Everything one workload run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted in the timed loop.
    pub attempted: u64,
    /// Operations that failed or whose output failed a check.
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
    /// Final-line metric values, keyed by declared name.
    pub values: BTreeMap<&'static str, f64>,
    /// Detailed report metrics.
    pub named: Vec<Named>,
    /// Hash of the plans chosen (train, serve) or outcomes seen (cluster).
    pub fingerprint: u64,
    /// Threads the workload used.
    pub threads: Threads,
}

impl Outcome {
    /// Counts one failed operation, keeping its description if it is
    /// among the first few.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why.into());
        }
    }

    /// Sets a final-line metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }
}

/// FNV-1a, 64-bit: a stable hash for plan and outcome fingerprints.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mixes in `bytes`.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Mixes in one integer.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// A JSON number: Rust's shortest round-trip decimal, which never uses
/// exponent notation.
fn num(v: f64) -> String {
    format!("{v}")
}

/// The final line: exactly the declared metrics of `declared`, or an
/// error naming what is missing, extra, or not finite.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    declared: &[Declared],
    values: &BTreeMap<&'static str, f64>,
) -> Result<String, String> {
    let mut problems = Vec::new();
    for name in values.keys() {
        if !declared.iter().any(|(d, _)| d == name) {
            problems.push(format!("undeclared metric {name}"));
        }
    }
    let mut metrics = String::new();
    for (i, (name, unit)) in declared.iter().enumerate() {
        match values.get(name.as_str()) {
            Some(v) if v.is_finite() => {
                let sep = if i == 0 { "" } else { ", " };
                let _ = write!(
                    metrics,
                    "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    num(*v)
                );
            }
            Some(v) => problems.push(format!("metric {name} is {v}")),
            None => problems.push(format!("metric {name} was not measured")),
        }
    }
    if !problems.is_empty() {
        return Err(problems.join("; "));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}"
    ))
}

/// The detailed report line printed before the result line.
pub fn report_line(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: &Outcome,
    nproc: usize,
    commit: &str,
) -> String {
    let mut named = String::new();
    for (i, m) in out.named.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() {
            num(m.value)
        } else {
            "null".into()
        };
        let _ = write!(
            named,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\", \"samples\": {}",
            m.name, m.unit, m.samples
        );
        if let Some((p, beyond)) = m.tail {
            let _ = write!(named, ", \"percentile\": {}, \"beyond\": {beyond}", num(p));
        }
        named.push('}');
    }
    let t = out.threads;
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {trace}, \
         \"host\": {{\"nproc\": {nproc}, \"commit\": \"{commit}\", \"driver_threads\": {}, \
         \"reader_threads\": {}, \"service_workers\": {}, \"pinned\": {}, \"solver_trial_threads\": \"as shipped\"}}, \
         \"fingerprint\": \"{:016x}\", \"attempted\": {}, \"failed\": {}, \"report\": {{{named}}}}}",
        t.driver, t.reader, t.service_workers, t.pinned, out.fingerprint, out.attempted, out.failed
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_names_are_well_formed_and_used_once() {
        let (e2e, layers) = (end_to_end(), per_layer());
        assert!(e2e.iter().any(|(n, u)| n == "setup_s" && u == "s"));
        let mut all: Vec<&str> = e2e.iter().chain(layers).map(|(n, _)| n.as_str()).collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "metric names are used once");
        let ok = |c: char, extra: &str| c.is_ascii_alphanumeric() || extra.contains(c);
        for (name, unit) in e2e.iter().chain(layers) {
            assert!(
                name.len() <= 64 && name.chars().all(|c| ok(c, "_.-")),
                "{name}"
            );
            assert!(
                unit.len() <= 16 && unit.chars().all(|c| ok(c, "_/%.-")),
                "{unit}"
            );
        }
        // What main fills in by name must be declared.
        for layer in SHARED_LAYERS {
            let name = format!("{layer}.share_pct");
            assert!(layers.iter().any(|(n, _)| *n == name), "{name} declared");
        }
        for name in ["tracing.untraced_pct", "tracing.overhead_pct"] {
            assert!(layers.iter().any(|(n, _)| n == name), "{name} declared");
        }
    }

    #[test]
    fn the_scanner_reads_names_and_units_in_order() {
        let json = r#"{"workloads": [{"name": "w", "why": "x"}],
            "end_to_end": [{"name": "a_s", "unit": "s", "better": "lower", "bound": 0.1},
                           {"name": "b", "unit": "1/s", "better": "higher", "bound": 0.2}],
            "per_layer": [{"name": "l.us", "unit": "us", "better": "lower"}]}"#;
        let owned = |v: &[(&str, &str)]| -> Vec<Declared> {
            v.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(
            declared(json, "end_to_end"),
            owned(&[("a_s", "s"), ("b", "1/s")])
        );
        assert_eq!(declared(json, "per_layer"), owned(&[("l.us", "us")]));
    }

    #[test]
    fn result_line_prints_exactly_the_declared_metrics() {
        let declared = &[
            ("a_s".to_string(), "s".to_string()),
            ("b".into(), "count".into()),
        ];
        let mut v = BTreeMap::new();
        v.insert("a_s", 1.25);
        assert!(result_line(true, 1, 0, declared, &v)
            .unwrap_err()
            .contains("b was not measured"));
        v.insert("b", 3.0);
        assert_eq!(
            result_line(true, 2, 0, declared, &v).expect("complete"),
            "{\"correct\": true, \"attempted\": 2, \"failed\": 0, \"metrics\": \
             {\"a_s\": {\"value\": 1.25, \"unit\": \"s\"}, \"b\": {\"value\": 3, \"unit\": \"count\"}}}"
        );
        v.insert("c", 1.0);
        assert!(result_line(true, 2, 0, declared, &v)
            .unwrap_err()
            .contains("undeclared metric c"));
        v.remove("c");
        v.insert("b", f64::NAN);
        assert!(result_line(true, 2, 0, declared, &v)
            .unwrap_err()
            .contains("b is NaN"));
    }

    #[test]
    fn fnv_matches_the_reference_vector() {
        let mut h = Fnv::default();
        h.bytes(b"a");
        assert_eq!(h.0, 0xaf63_dc4c_8601_ec8c);
    }
}
