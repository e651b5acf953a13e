//! The sequence blaster: micro-batch chunking (paper §4.2 + Appendix A).
//!
//! Three takeaways drive the design:
//!
//! 1. fewer micro-batches amortize the per-execution β overheads, so the
//!    blaster starts from the smallest feasible count `M_min` and tries a
//!    handful of counts above it;
//! 2. low length-variance within a micro-batch avoids compute/memory
//!    imbalance, so sequences are *sorted by length* before chunking
//!    (ablated in Fig. 7);
//! 3. token totals should be even across micro-batches to avoid OOM and
//!    memory under-utilization, solved exactly by a min-max dynamic
//!    program (Eq. 23–24).

use flexsp_data::Sequence;

/// Smallest feasible micro-batch count:
/// `⌈ batch_tokens / cluster_token_capacity ⌉` (paper §4.2).
///
/// Returns at least 1, or `None` when a non-empty batch meets a zero
/// `cluster_token_capacity` — nothing fits, and the caller should surface
/// a typed planning error rather than propagate a sentinel count.
pub fn min_micro_batches(batch: &[Sequence], cluster_token_capacity: u64) -> Option<usize> {
    let tokens: u64 = batch.iter().map(|s| s.len).sum();
    if tokens == 0 {
        return Some(1);
    }
    if cluster_token_capacity == 0 {
        return None;
    }
    Some((tokens.div_ceil(cluster_token_capacity) as usize).max(1))
}

/// Splits `batch` into exactly `m` micro-batches.
///
/// When `sort_by_length` is true (the paper's default), sequences are first
/// sorted ascending by length so each chunk has low internal variance
/// (takeaway #2); chunk boundaries then come from the memory-balanced DP
/// (takeaway #3). With sorting disabled (ablation), the DP still balances
/// tokens but over the arrival order.
///
/// Returns fewer than `m` micro-batches only when `batch.len() < m`.
///
/// # Panics
///
/// Panics if `m == 0`.
///
/// # Example
///
/// ```
/// use flexsp_core::blaster::blast;
/// use flexsp_data::Sequence;
/// let batch: Vec<Sequence> = [10u64, 10, 10, 10, 40]
///     .iter().enumerate().map(|(i, &l)| Sequence::new(i as u64, l)).collect();
/// let micro = blast(&batch, 2, true);
/// assert_eq!(micro.len(), 2);
/// // Min-max token split: {10,10,10,10} vs {40}.
/// let totals: Vec<u64> = micro.iter()
///     .map(|m| m.iter().map(|s| s.len).sum()).collect();
/// assert_eq!(totals.iter().max(), Some(&40));
/// ```
pub fn blast(batch: &[Sequence], m: usize, sort_by_length: bool) -> Vec<Vec<Sequence>> {
    assert!(m > 0, "need at least one micro-batch");
    if batch.is_empty() {
        return Vec::new();
    }
    let mut seqs = batch.to_vec();
    if sort_by_length {
        seqs.sort_by(|a, b| a.len.cmp(&b.len).then(a.id.cmp(&b.id)));
    }
    let bounds = balanced_boundaries(&seqs, m.min(seqs.len()));
    let mut out = Vec::with_capacity(bounds.len());
    let mut prev = 0usize;
    for b in bounds {
        out.push(seqs[prev..b].to_vec());
        prev = b;
    }
    out
}

/// Exact min-max token chunking of `seqs` (in order) into `m` consecutive
/// chunks, by the paper's DP (Appendix A, Eq. 24); returns the exclusive
/// end index of each chunk.
///
/// Eq. 24 runs in `O(m·k·log k)`. For `b ≥ 2` and `j ∈ [b−1, i)`,
/// `dp[j][b−1]` is non-decreasing in `j` and `seg(j, i)` non-increasing,
/// so `max(dp[j][b−1], seg(j, i))` is minimized at the crossover: the
/// smallest `j*` with `dp[j*][b−1] ≥ seg(j*, i)`, or the earliest `j`
/// before it that attains `seg(j* − 1, i)` (prefix sums repeat over
/// zero-length sequences). Ties keep the smaller index, so the
/// boundaries are exactly those of the quadratic scan over every `j`.
fn balanced_boundaries(seqs: &[Sequence], m: usize) -> Vec<usize> {
    let k = seqs.len();
    let mut prefix = vec![0u64; k + 1];
    for (i, s) in seqs.iter().enumerate() {
        prefix[i + 1] = prefix[i] + s.len;
    }
    let seg = |j: usize, i: usize| prefix[i] - prefix[j];

    const INF: u64 = u64::MAX / 2;
    // dp[i][b] = min over j of max(dp[j][b-1], seg(j, i)).
    let mut dp = vec![vec![INF; m + 1]; k + 1];
    let mut from = vec![vec![0usize; m + 1]; k + 1];
    dp[0][0] = 0;
    // One chunk: only `j = 0` has a finite `dp[j][0]`.
    for (i, row) in dp.iter_mut().enumerate().skip(1) {
        row[1] = seg(0, i);
    }
    for b in 2..=m {
        let lo = b - 1;
        for i in b..=k {
            // Smallest j in [lo, i) where the prefix cost overtakes the
            // last chunk; every j before it is priced by its last chunk.
            let cross = first_in(lo, i, |j| dp[j][b - 1] >= seg(j, i));
            let mut best = (INF, 0);
            if cross > lo {
                let j = first_in(lo, cross - 1, |j| prefix[j] == prefix[cross - 1]);
                best = (seg(j, i), j);
            }
            if cross < i && dp[cross][b - 1] < best.0 {
                best = (dp[cross][b - 1], cross);
            }
            dp[i][b] = best.0;
            from[i][b] = best.1;
        }
    }
    let mut bounds = Vec::with_capacity(m);
    let (mut i, mut b) = (k, m);
    while b > 0 {
        bounds.push(i);
        i = from[i][b];
        b -= 1;
    }
    bounds.reverse();
    bounds
}

/// The smallest `j` in `[lo, hi)` with `pred(j)`, or `hi` if none, for a
/// `pred` that is false up to some point and true from there on.
fn first_in(mut lo: usize, mut hi: usize, pred: impl Fn(usize) -> bool) -> usize {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// The max micro-batch token total achieved by [`blast`] — the DP's
/// objective value, exposed for tests and diagnostics.
pub fn max_chunk_tokens(micro_batches: &[Vec<Sequence>]) -> u64 {
    micro_batches
        .iter()
        .map(|m| m.iter().map(|s| s.len).sum())
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn seqs(lens: &[u64]) -> Vec<Sequence> {
        lens.iter()
            .enumerate()
            .map(|(i, &l)| Sequence::new(i as u64, l))
            .collect()
    }

    /// Eq. 24 verbatim: every `j` for every `(i, b)`, keeping the first
    /// minimizer. The oracle for [`balanced_boundaries`].
    fn quadratic_boundaries(seqs: &[Sequence], m: usize) -> Vec<usize> {
        let k = seqs.len();
        let mut prefix = vec![0u64; k + 1];
        for (i, s) in seqs.iter().enumerate() {
            prefix[i + 1] = prefix[i] + s.len;
        }
        const INF: u64 = u64::MAX / 2;
        let mut dp = vec![vec![INF; m + 1]; k + 1];
        let mut from = vec![vec![0usize; m + 1]; k + 1];
        dp[0][0] = 0;
        for b in 1..=m {
            for i in b..=k {
                for j in (b - 1)..i {
                    if dp[j][b - 1] == INF {
                        continue;
                    }
                    let v = dp[j][b - 1].max(prefix[i] - prefix[j]);
                    if v < dp[i][b] {
                        dp[i][b] = v;
                        from[i][b] = j;
                    }
                }
            }
        }
        let mut bounds = Vec::with_capacity(m);
        let (mut i, mut b) = (k, m);
        while b > 0 {
            bounds.push(i);
            i = from[i][b];
            b -= 1;
        }
        bounds.reverse();
        bounds
    }

    /// Lengths with many zeros and repeats, so prefix sums tie often.
    fn lengths() -> impl Strategy<Value = Vec<u64>> {
        prop::collection::vec(
            prop_oneof![2 => Just(0u64), 3 => 1u64..4, 3 => 1u64..5000],
            1..=64,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn dp_boundaries_match_the_quadratic_scan(mut lens in lengths(), sort in any::<bool>()) {
            if sort {
                lens.sort_unstable();
            }
            let input = seqs(&lens);
            for m in 1..=lens.len() {
                prop_assert_eq!(
                    balanced_boundaries(&input, m),
                    quadratic_boundaries(&input, m),
                    "lens {:?} m {}", lens, m
                );
            }
        }
    }

    /// Brute-force min-max chunking for validation.
    fn brute_force_minmax(lens: &[u64], m: usize) -> u64 {
        fn rec(lens: &[u64], m: usize) -> u64 {
            if m == 1 {
                return lens.iter().sum();
            }
            if lens.len() <= m {
                return lens.iter().copied().max().unwrap_or(0);
            }
            let mut best = u64::MAX;
            for cut in 1..=(lens.len() - (m - 1)) {
                let first: u64 = lens[..cut].iter().sum();
                let rest = rec(&lens[cut..], m - 1);
                best = best.min(first.max(rest));
            }
            best
        }
        rec(lens, m)
    }

    #[test]
    fn dp_matches_brute_force() {
        let cases: Vec<(Vec<u64>, usize)> = vec![
            (vec![10, 20, 30, 40], 2),
            (vec![1, 1, 1, 1, 100], 2),
            (vec![5, 9, 2, 8, 3, 7], 3),
            (vec![100, 1, 1, 1, 1, 1, 1], 4),
        ];
        for (lens, m) in cases {
            // Compare on the given order (sorting off) for a pure DP test.
            let micro = blast(&seqs(&lens), m, false);
            assert_eq!(max_chunk_tokens(&micro), brute_force_minmax(&lens, m));
        }
    }

    #[test]
    fn all_sequences_preserved() {
        let lens: Vec<u64> = (1..=50).map(|i| i * 13 % 997 + 1).collect();
        let micro = blast(&seqs(&lens), 7, true);
        let mut ids: Vec<u64> = micro.iter().flatten().map(|s| s.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..50).collect::<Vec<u64>>());
    }

    #[test]
    fn sorting_reduces_within_chunk_variance() {
        // Alternating short/long input: sorted blasting must separate them.
        let lens: Vec<u64> = (0..40)
            .map(|i| if i % 2 == 0 { 100 } else { 10_000 })
            .collect();
        let sorted = blast(&seqs(&lens), 4, true);
        let spread = |m: &Vec<Sequence>| {
            let lo = m.iter().map(|s| s.len).min().unwrap();
            let hi = m.iter().map(|s| s.len).max().unwrap();
            hi - lo
        };
        // With sorting, at least 3 of 4 chunks are homogeneous.
        let homogeneous = sorted.iter().filter(|m| spread(m) == 0).count();
        assert!(homogeneous >= 3, "only {homogeneous} homogeneous chunks");
    }

    #[test]
    fn min_micro_batches_formula() {
        let batch = seqs(&[1000, 1000, 1000]);
        assert_eq!(min_micro_batches(&batch, 1500), Some(2));
        assert_eq!(min_micro_batches(&batch, 3000), Some(1));
        assert_eq!(min_micro_batches(&batch, 100_000), Some(1));
        assert_eq!(min_micro_batches(&[], 100), Some(1));
        // Zero capacity is a typed "nothing fits", not a sentinel count.
        assert_eq!(min_micro_batches(&batch, 0), None);
        assert_eq!(min_micro_batches(&[], 0), Some(1));
    }

    #[test]
    fn more_chunks_than_sequences_collapses() {
        let micro = blast(&seqs(&[5, 6]), 10, true);
        assert_eq!(micro.len(), 2);
    }

    #[test]
    fn dp_returns_exactly_m_chunks_above_2048_sequences() {
        // Greedy chunking at the optimal cap (3000 here) would close only
        // two chunks: all the one-token sequences, then the long one.
        let mut lens = vec![1u64; 2048];
        lens.push(3000);
        for m in [2, 3, 5] {
            let micro = blast(&seqs(&lens), m, true);
            assert_eq!(micro.len(), m);
            assert_eq!(max_chunk_tokens(&micro), 3000);
            assert!(micro.iter().all(|c| !c.is_empty()));
        }
    }

    #[test]
    fn balanced_totals_on_uniform_input() {
        let lens = vec![100u64; 32];
        let micro = blast(&seqs(&lens), 4, true);
        for m in &micro {
            assert_eq!(m.iter().map(|s| s.len).sum::<u64>(), 800);
        }
    }
}
