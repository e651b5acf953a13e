//! `MetricsSnapshot::to_prometheus`: metric-name mangling, one `# TYPE`
//! line per series, and the summary lines a histogram renders as.

use flexsp_telemetry::{Histogram, MetricsSnapshot};

#[test]
fn counters_and_gauges_render_one_type_line_each_under_mangled_names() {
    let snapshot = MetricsSnapshot {
        counters: vec![("flexsp.cache.hits", 3), ("flexsp.cache.misses", 0)],
        gauges: vec![("flexsp.arbiter.free_gpus", -2)],
        histograms: Vec::new(),
    };
    assert_eq!(
        snapshot.to_prometheus(),
        "# TYPE flexsp_cache_hits counter\n\
         flexsp_cache_hits 3\n\
         # TYPE flexsp_cache_misses counter\n\
         flexsp_cache_misses 0\n\
         # TYPE flexsp_arbiter_free_gpus gauge\n\
         flexsp_arbiter_free_gpus -2\n"
    );
}

#[test]
fn every_non_alphanumeric_character_becomes_an_underscore() {
    let snapshot = MetricsSnapshot {
        counters: vec![("a.b-c d/e", 1)],
        ..Default::default()
    };
    assert_eq!(
        snapshot.to_prometheus(),
        "# TYPE a_b_c_d_e counter\na_b_c_d_e 1\n"
    );
}

#[test]
fn histograms_render_as_summaries_with_three_quantiles_sum_and_count() {
    let h = Histogram::new();
    for v in 1..=100u64 {
        h.record(v);
    }
    let hist = h.snapshot();
    let snapshot = MetricsSnapshot {
        histograms: vec![("flexsp.replay.wait_ticks", hist.clone())],
        ..Default::default()
    };
    let text = snapshot.to_prometheus();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(
        lines,
        [
            "# TYPE flexsp_replay_wait_ticks summary".to_string(),
            format!(
                "flexsp_replay_wait_ticks{{quantile=\"0.5\"}} {:.3}",
                hist.quantile(0.5)
            ),
            format!(
                "flexsp_replay_wait_ticks{{quantile=\"0.9\"}} {:.3}",
                hist.quantile(0.9)
            ),
            format!(
                "flexsp_replay_wait_ticks{{quantile=\"0.99\"}} {:.3}",
                hist.quantile(0.99)
            ),
            "flexsp_replay_wait_ticks_sum 5050".to_string(),
            "flexsp_replay_wait_ticks_count 100".to_string(),
        ]
    );
    // The quantile values are the interpolated ones, ordered and inside
    // the recorded range.
    let q: Vec<f64> = lines[1..4]
        .iter()
        .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
        .collect();
    assert!(
        1.0 <= q[0] && q[0] <= q[1] && q[1] <= q[2] && q[2] <= 128.0,
        "{q:?}"
    );
}

#[test]
fn an_empty_snapshot_renders_nothing() {
    assert_eq!(MetricsSnapshot::default().to_prometheus(), "");
}
