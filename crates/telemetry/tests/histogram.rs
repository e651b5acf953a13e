//! Histogram satellite coverage: bucket-boundary values, cross-thread
//! merge associativity, exact quantiles in one-value buckets, and a
//! proptest that interpolated p50/p99 stay within one bucket of the
//! exact order statistics.

use flexsp_telemetry::{bucket_bounds, bucket_index, Histogram, HistogramSnapshot};
use proptest::prelude::*;

/// Exact quantile by sorting (same `round(q * (n-1))` rank rule the
/// histogram interpolates toward).
fn exact_quantile(samples: &mut [u64], q: f64) -> u64 {
    samples.sort_unstable();
    let rank = (q * (samples.len() - 1) as f64).round() as usize;
    samples[rank]
}

#[test]
fn bucket_boundary_values_land_in_their_own_bucket() {
    // Exact powers of two and the values straddling each boundary: the
    // lower bound is the first value of its bucket, the value just
    // below belongs to the previous one.
    for e in 2..63u32 {
        let lo = 1u64 << e;
        let idx = bucket_index(lo);
        let (b_lo, _) = bucket_bounds(idx);
        assert_eq!(b_lo, lo, "2^{e} must start its bucket");
        // The value just below the boundary belongs to a bucket that
        // ends exactly at the boundary. (Index adjacency is not the
        // invariant: indices 4–7 are unreachable by construction, the
        // unit buckets hand off to the octave scheme at index 8.)
        let prev = bucket_index(lo - 1);
        assert!(prev < idx, "2^{e} - 1 sorts before 2^{e}");
        assert_eq!(
            bucket_bounds(prev).1,
            lo,
            "2^{e} - 1's bucket must close at 2^{e}"
        );
    }
    // Sub-bucket boundaries inside one octave: 1024, 1280, 1536, 1792.
    for (i, v) in [1024u64, 1280, 1536, 1792].into_iter().enumerate() {
        let idx = bucket_index(v);
        assert_eq!(bucket_bounds(idx).0, v);
        assert_eq!(idx, bucket_index(1024) + i);
        // One below each boundary stays in the previous sub-bucket.
        assert_eq!(bucket_index(v - 1), idx - 1);
    }
}

#[test]
fn merge_is_associative_and_commutative_across_threads() {
    // Three "threads" record disjoint workloads into their own
    // histograms; every fold order must agree.
    let parts: Vec<HistogramSnapshot> = [
        (0u64..100).collect::<Vec<_>>(),
        (50..5_000).step_by(7).collect(),
        vec![0, 1, u64::MAX / 2, 1 << 40],
    ]
    .into_iter()
    .map(|samples| {
        let h = Histogram::new();
        let handle = std::thread::spawn(move || {
            for v in samples {
                h.record(v);
            }
            h.snapshot()
        });
        handle.join().expect("recorder thread panicked")
    })
    .collect();

    let fold = |order: &[usize]| {
        let mut acc = HistogramSnapshot::default();
        for &i in order {
            acc.merge(&parts[i]);
        }
        acc
    };
    let abc = fold(&[0, 1, 2]);
    assert_eq!(abc, fold(&[2, 1, 0]));
    assert_eq!(abc, fold(&[1, 0, 2]));
    // ((a+b)+c) == (a+(b+c))
    let mut ab = parts[0].clone();
    ab.merge(&parts[1]);
    ab.merge(&parts[2]);
    let mut bc = parts[1].clone();
    bc.merge(&parts[2]);
    let mut a_bc = parts[0].clone();
    a_bc.merge(&bc);
    assert_eq!(ab, a_bc);
    assert_eq!(abc.count, parts.iter().map(|p| p.count).sum::<u64>());
}

#[test]
fn quantiles_in_one_value_buckets_are_exact() {
    let quantiles = |samples: &[u64]| {
        let h = Histogram::new();
        for &v in samples {
            h.record(v);
        }
        let snap = h.snapshot();
        [0.5, 0.9, 0.99].map(|q| snap.quantile(q))
    };
    assert_eq!(quantiles(&[0; 4]), [0.0; 3], "four zeros");
    assert_eq!(quantiles(&[3; 100]), [3.0; 3], "a hundred 3s");
    // Values 4–7 sit in one-value buckets too.
    assert_eq!(quantiles(&[5; 10]), [5.0; 3]);
    // A mix of small values reports the order statistics themselves.
    let mut mixed: Vec<u64> = (0..100).map(|i| i % 8).collect();
    let got = quantiles(&mixed);
    for (q, est) in [0.5, 0.9, 0.99].into_iter().zip(got) {
        assert_eq!(est, exact_quantile(&mut mixed, q) as f64, "q={q}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn interpolated_quantiles_within_one_bucket_of_exact(
        mut samples in proptest::collection::vec(0u64..1_000_000, 1..400),
    ) {
        let h = Histogram::new();
        for &v in &samples {
            h.record(v);
        }
        let snap = h.snapshot();
        for q in [0.5, 0.99] {
            let exact = exact_quantile(&mut samples, q);
            let est = snap.quantile(q);
            // "Within one bucket": the estimate must fall inside (or on
            // the boundary of) the bucket adjacent to the exact value's
            // bucket.
            let idx = bucket_index(exact);
            let lo = bucket_bounds(idx.saturating_sub(1)).0 as f64;
            let hi = bucket_bounds((idx + 1).min(flexsp_telemetry::metrics::HIST_BUCKETS - 1)).1 as f64;
            prop_assert!(
                est >= lo && est <= hi,
                "q={q}: estimate {est} outside [{lo}, {hi}] around exact {exact}"
            );
        }
    }

    #[test]
    fn every_value_is_inside_its_bucket(v in any::<u64>()) {
        let idx = bucket_index(v);
        let (lo, hi) = bucket_bounds(idx);
        prop_assert!(lo <= v);
        prop_assert!(v < hi || hi == u64::MAX);
    }
}
