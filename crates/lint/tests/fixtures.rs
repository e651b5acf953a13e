//! Fixture corpus: each rule must fire on its seeded violation with the
//! exact `file:line` diagnostic, and stay silent on the clean twin.

use flexsp_lint::{analyze, scan_file, FileKind, ScannedFile, Violation};
use std::path::PathBuf;

/// Scans one fixture under a synthetic workspace-relative path + crate
/// name (the rules key on both: unwrap-ban on the crate, the clock
/// allowlist and telemetry exemption on the path).
fn scan(fixture: &str, rel: &str, crate_name: &str, src: &str) -> ScannedFile {
    scan_file(
        PathBuf::from(fixture),
        rel.to_string(),
        crate_name.to_string(),
        FileKind::Src,
        src,
    )
}

/// Asserts the analysis of `files` yields exactly `expected`
/// `(rel, line, rule)` triples, in order.
fn assert_findings(files: &[ScannedFile], expected: &[(&str, u32, &str)]) {
    let got = analyze(files);
    let triples: Vec<(String, u32, &'static str)> = got
        .iter()
        .map(|v: &Violation| (v.rel.clone(), v.line, v.rule))
        .collect();
    let want: Vec<(String, u32, &str)> = expected
        .iter()
        .map(|&(r, l, rule)| (r.to_string(), l, rule))
        .collect();
    assert_eq!(
        triples
            .iter()
            .map(|(r, l, u)| (r.as_str(), *l, *u))
            .collect::<Vec<_>>(),
        want.iter()
            .map(|(r, l, u)| (r.as_str(), *l, *u))
            .collect::<Vec<_>>(),
        "diagnostics: {got:#?}"
    );
}

#[test]
fn lock_order_fires_on_queue_after_shard() {
    let f = scan(
        "lock_order_bad.rs",
        "crates/arbiter/src/fixture_lock_order.rs",
        "flexsp-arbiter",
        include_str!("fixtures/lock_order_bad.rs"),
    );
    assert_findings(
        &[f],
        &[("crates/arbiter/src/fixture_lock_order.rs", 13, "lock-order")],
    );
}

#[test]
fn lock_order_silent_on_documented_order() {
    let f = scan(
        "lock_order_ok.rs",
        "crates/arbiter/src/fixture_lock_order.rs",
        "flexsp-arbiter",
        include_str!("fixtures/lock_order_ok.rs"),
    );
    assert_findings(&[f], &[]);
}

#[test]
fn lock_order_holds_the_ranks_of_a_guard_returning_helper() {
    let f = scan(
        "lock_order_guard_bad.rs",
        "crates/arbiter/src/fixture_lock_order.rs",
        "flexsp-arbiter",
        include_str!("fixtures/lock_order_guard_bad.rs"),
    );
    assert_findings(
        &[f],
        &[("crates/arbiter/src/fixture_lock_order.rs", 29, "lock-order")],
    );
}

#[test]
fn lock_order_fires_on_an_unranked_arbiter_mutex() {
    let src = include_str!("fixtures/lock_unranked_bad.rs");
    let f = scan(
        "lock_unranked_bad.rs",
        "crates/arbiter/src/fixture_lock_order.rs",
        "flexsp-arbiter",
        src,
    );
    assert_findings(
        &[f],
        &[("crates/arbiter/src/fixture_lock_order.rs", 14, "lock-order")],
    );
    // The rank table only governs the arbiter crate.
    let f = scan(
        "lock_unranked_bad.rs",
        "crates/core/src/fixture_lock_order.rs",
        "flexsp-core",
        src,
    );
    assert_findings(&[f], &[]);
}

#[test]
fn lock_free_fires_through_a_helper() {
    let f = scan(
        "lock_free_bad.rs",
        "crates/arbiter/src/fixture_lock_free.rs",
        "flexsp-arbiter",
        include_str!("fixtures/lock_free_bad.rs"),
    );
    let got = analyze(&[f]);
    assert_eq!(got.len(), 1, "{got:#?}");
    assert_eq!(got[0].rel, "crates/arbiter/src/fixture_lock_free.rs");
    assert_eq!(got[0].line, 16);
    assert_eq!(got[0].rule, "lock-free");
    // The diagnostic names the transitive chain from the marked fn.
    assert!(
        got[0].msg.contains("Fixture::fingerprint") && got[0].msg.contains("Fixture::helper"),
        "chain missing from: {}",
        got[0].msg
    );
}

#[test]
fn lock_free_silent_on_atomic_reads() {
    let f = scan(
        "lock_free_ok.rs",
        "crates/arbiter/src/fixture_lock_free.rs",
        "flexsp-arbiter",
        include_str!("fixtures/lock_free_ok.rs"),
    );
    assert_findings(&[f], &[]);
}

#[test]
fn clock_containment_fires_outside_the_allowlist() {
    let f = scan(
        "clock_bad.rs",
        "crates/core/src/fixture_clock.rs",
        "flexsp-core",
        include_str!("fixtures/clock_bad.rs"),
    );
    assert_findings(
        &[f],
        &[
            ("crates/core/src/fixture_clock.rs", 5, "clock-containment"),
            ("crates/core/src/fixture_clock.rs", 8, "clock-containment"),
        ],
    );
}

#[test]
fn clock_containment_silent_on_logical_time() {
    let f = scan(
        "clock_ok.rs",
        "crates/core/src/fixture_clock.rs",
        "flexsp-core",
        include_str!("fixtures/clock_ok.rs"),
    );
    assert_findings(&[f], &[]);
}

#[test]
fn clock_containment_silent_inside_the_allowlist() {
    // The same Instant-bearing source is legal under an allowlisted path.
    let f = scan(
        "clock_bad.rs",
        "crates/telemetry/src/fixture_clock.rs",
        "flexsp-telemetry",
        include_str!("fixtures/clock_bad.rs"),
    );
    assert_findings(&[f], &[]);
}

#[test]
fn telemetry_hygiene_fires_on_inline_gates() {
    let f = scan(
        "telemetry_bad.rs",
        "crates/core/src/fixture_telemetry.rs",
        "flexsp-core",
        include_str!("fixtures/telemetry_bad.rs"),
    );
    assert_findings(
        &[f],
        &[
            (
                "crates/core/src/fixture_telemetry.rs",
                6,
                "telemetry-hygiene",
            ),
            (
                "crates/core/src/fixture_telemetry.rs",
                9,
                "telemetry-hygiene",
            ),
        ],
    );
}

#[test]
fn telemetry_hygiene_silent_on_span_macro() {
    let f = scan(
        "telemetry_ok.rs",
        "crates/core/src/fixture_telemetry.rs",
        "flexsp-core",
        include_str!("fixtures/telemetry_ok.rs"),
    );
    assert_findings(&[f], &[]);
}

#[test]
fn unwrap_ban_fires_on_bare_unwrap() {
    let f = scan(
        "unwrap_bad.rs",
        "crates/core/src/fixture_unwrap.rs",
        "flexsp-core",
        include_str!("fixtures/unwrap_bad.rs"),
    );
    assert_findings(
        &[f],
        &[("crates/core/src/fixture_unwrap.rs", 5, "unwrap-ban")],
    );
}

#[test]
fn unwrap_ban_silent_on_errors_and_annotations() {
    let f = scan(
        "unwrap_ok.rs",
        "crates/core/src/fixture_unwrap.rs",
        "flexsp-core",
        include_str!("fixtures/unwrap_ok.rs"),
    );
    assert_findings(&[f], &[]);
}

#[test]
fn unwrap_ban_ignores_uninstrumented_crates() {
    // The same bare unwrap is legal outside arbiter/milp/core.
    let f = scan(
        "unwrap_bad.rs",
        "crates/baselines/src/fixture_unwrap.rs",
        "flexsp-baselines",
        include_str!("fixtures/unwrap_bad.rs"),
    );
    assert_findings(&[f], &[]);
}
