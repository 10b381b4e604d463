//! Shifting-and-scaling coherence (§3.2 of the paper).
//!
//! Lemma 3.2 states that profiles `d_i` and `d_j` over an ordered condition
//! set `Y = {c_1, …, c_n}` are related by `d_i = s1 · d_j + s2` **iff** all
//! their adjacent-step ratios relative to the baseline step `(c_1, c_2)`
//! coincide. The ratio is the coherence score
//!
//! ```text
//! H(i, c1, c2, ck, ck+1) = (d_i[ck+1] − d_i[ck]) / (d_i[c2] − d_i[c1])   (Eq. 7)
//! ```
//!
//! A reg-cluster allows the scores of its member genes to spread by at most
//! `ε` at every step (Definition 3.2(2)). The miner enforces this with a
//! sliding window over genes sorted by score: each maximal window of spread
//! `≤ ε` and length `≥ MinG` forms a validated gene subset (§4, step 5).

/// The coherence score of Equation 7 for one gene.
///
/// `baseline` is the expression difference over the chain's first two
/// conditions `(d[c2] − d[c1])`, `step` the difference over the adjacent
/// pair under test `(d[ck+1] − d[ck])`. For an n-member (inverted chain)
/// both differences flip sign, leaving the score unchanged — which is what
/// lets positively and negatively co-regulated genes share one window.
///
/// # Panics
///
/// Panics (debug) on a zero baseline; the miner guarantees the baseline pair
/// is regulated, so its difference exceeds `γ_i ≥ 0`.
#[inline]
pub fn h_score(step: f64, baseline: f64) -> f64 {
    debug_assert!(
        baseline != 0.0,
        "baseline pair must be regulated (non-zero difference)"
    );
    step / baseline
}

/// Computes the full H-score series of a gene profile along an ordered
/// condition chain: one score per adjacent pair, including the trivial
/// leading `1.0` of the baseline pair itself.
///
/// Convenience for tests, validation and reporting; the miner computes
/// scores incrementally.
///
/// # Panics
///
/// Panics if the chain has fewer than two conditions or the baseline
/// difference is zero.
pub fn h_series(profile: &[f64], chain: &[usize]) -> Vec<f64> {
    assert!(chain.len() >= 2, "a chain needs at least two conditions");
    let baseline = profile[chain[1]] - profile[chain[0]];
    assert!(baseline != 0.0, "baseline pair must have distinct values");
    chain
        .windows(2)
        .map(|w| h_score(profile[w[1]] - profile[w[0]], baseline))
        .collect()
}

/// A maximal window over score-sorted genes: the half-open index range
/// `[start, end)` into the sorted slice.
pub type Window = (usize, usize);

/// Finds all maximal windows of `sorted_scores` whose spread
/// (`max − min`) is at most `epsilon` and whose length is at least
/// `min_len`.
///
/// `sorted_scores` must be sorted ascending, in [`f64::total_cmp`] order
/// where it holds non-finite scores (checked in debug builds). Windows are
/// returned left to right; they may overlap, mirroring the paper's
/// sliding-window partitioning whose validated gene subsets `X''` "may
/// overlap". A non-finite score (±∞, NaN) belongs to no window: its
/// difference to any score is infinite or NaN, never within a finite ε.
///
/// ```
/// use regcluster_core::coherence::maximal_windows;
///
/// let scores = [0.0, 0.4, 0.8, 1.2];
/// // Spread budget 0.8: two maximal, overlapping windows.
/// assert_eq!(maximal_windows(&scores, 0.8, 2), vec![(0, 3), (1, 4)]);
/// // Nothing coherent enough for four genes at once.
/// assert!(maximal_windows(&scores, 0.8, 4).is_empty());
/// ```
pub fn maximal_windows(sorted_scores: &[f64], epsilon: f64, min_len: usize) -> Vec<Window> {
    let mut out = Vec::new();
    maximal_windows_into(sorted_scores, epsilon, min_len, &mut out);
    out
}

/// Like [`maximal_windows`], writing the windows into `out` (cleared first,
/// capacity retained) so steady-state callers such as the miner's hot path
/// allocate nothing.
pub fn maximal_windows_into(
    sorted_scores: &[f64],
    epsilon: f64,
    min_len: usize,
    out: &mut Vec<Window>,
) {
    out.clear();
    // In total order −NaN and −∞ lead and +∞ and +NaN trail; the scan runs
    // over the finite run between them. On a non-finite score its own
    // extension test is NaN, and the jump search below would never advance.
    let lo = sorted_scores.partition_point(|x| !x.is_finite() && x.is_sign_negative());
    let hi = sorted_scores.partition_point(|x| x.is_finite() || x.is_sign_negative());
    let sorted_scores = &sorted_scores[lo..hi.max(lo)];
    debug_assert!(
        sorted_scores.windows(2).all(|w| w[0] <= w[1]),
        "scores must be sorted ascending"
    );
    let n = sorted_scores.len();
    // A negative (or NaN) epsilon admits no window at all — the extension
    // test fails even on a single score — and the jump search below relies
    // on `ε ≥ 0`, so bail out exactly as a start-by-start scan would.
    if n == 0 || min_len == 0 || min_len > n || epsilon.is_nan() || epsilon < 0.0 {
        return;
    }
    // Chunked fast-forward width for the right-edge advance: because the
    // scores are sorted, the window predicate is monotone in `end`, so if
    // the last score of a block passes, every score before it does too —
    // the block test is exactly the scalar test on that element, and the
    // final `end` is identical to the one-by-one scan's.
    const LANES: usize = 8;
    let mut start = 0usize;
    let mut end = 0usize;
    loop {
        while end + LANES <= n && sorted_scores[end + LANES - 1] - sorted_scores[start] <= epsilon {
            end += LANES;
        }
        while end < n && sorted_scores[end] - sorted_scores[start] <= epsilon {
            end += 1;
        }
        // The window [start, end) is maximal to the right by construction
        // and maximal to the left because `start` is only ever placed where
        // the right edge just advanced (or at 0).
        if end - start >= min_len {
            out.push((lo + start, lo + end));
        }
        if end == n {
            // Every later window is a suffix of this one; none can be
            // maximal.
            return;
        }
        // Jump `start` to the next maximal-window position: the first index
        // whose window extends past `end`. Intermediate starts leave `end`
        // unchanged — their windows sit inside the one just emitted — which
        // is exactly the `prev_end < end` test a start-by-start scan would
        // apply, so the emitted sequence is identical. The predicate
        // `sorted_scores[end] - sorted_scores[i] <= epsilon` is the scan's
        // own extension test, monotone in `i` because IEEE subtraction is
        // monotone in the subtrahend; it holds at `i = end` (`0 ≤ ε`), so
        // gallop from `start + 1` toward `end`, then binary-search the
        // bracket — O(log gap) instead of O(gap), and one probe in the
        // dense case where every start advances the edge.
        let next = |i: usize| sorted_scores[end] - sorted_scores[i] <= epsilon;
        start = if next(start + 1) {
            start + 1
        } else {
            let mut step = 1usize;
            let mut lo = start + 1; // next(lo) is false
            while lo + step < end && !next(lo + step) {
                lo += step;
                step *= 2;
            }
            let mut hi = (lo + step).min(end); // next(hi) is true
            while lo + 1 < hi {
                let mid = lo + (hi - lo) / 2;
                if next(mid) {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            hi
        };
    }
}

/// Cell values `x · (1/ε)` must stay below this magnitude for the density
/// filter to vouch for a bucket: there a rounded product is off by at most
/// 1/16, so two scores within ε lie at most two cells apart.
const CELL_LIMIT: f64 = (1u64 << 50) as f64;
// Bounds of the residue table of [`hot_keys_into`]: `2n` slots rounded up
// to a power of two, so a run of `n` scores rarely aliases, and at most
// 16 KiB however large the bucket.
const MIN_SLOTS: usize = 32;
const MAX_SLOTS: usize = 4096;

/// Writes into `keys` (cleared first) the `(score, index)` pairs of the
/// scores that can belong to an ε-window of at least `min_len` of them,
/// in `scores` order — the input the miner sorts and hands to
/// [`maximal_windows_into`].
///
/// Each score falls in the ε-wide cell `⌊x · (1/ε)⌋`, and a window spans at
/// most three consecutive cells, so a score is kept ("hot") when one of the
/// three cell triples around it holds at least `min_len` scores. Cells are
/// counted in `table`, a grow-only scratch of `u32` residues (`cell mod m`
/// for a power of two `m`); aliased residues only over-count, which keeps
/// cells and never drops one. Sorting only the hot scores yields the same
/// maximal windows of at least `min_len` scores, as the same member sets,
/// as sorting them all (DESIGN.md §15.4). Where that argument does not
/// hold — ε not finite and positive, `1/ε` not finite, or a score with
/// `|x · (1/ε)| ≥ 2^50` (NaN and ±∞ included) — every score is hot.
///
/// ```
/// use regcluster_core::coherence::hot_keys_into;
///
/// let (mut table, mut keys) = (Vec::new(), Vec::new());
/// hot_keys_into(&[0.5, 9.0, 0.51, 0.52], 0.05, 3, &mut table, &mut keys);
/// assert_eq!(keys, vec![(0.5, 0), (0.51, 2), (0.52, 3)]);
/// // No three scores within 0.05 of one another: nothing to sort.
/// hot_keys_into(&[0.5, 9.0, 0.51, 3.0], 0.05, 3, &mut table, &mut keys);
/// assert!(keys.is_empty());
/// ```
pub fn hot_keys_into(
    scores: &[f64],
    epsilon: f64,
    min_len: usize,
    table: &mut Vec<u32>,
    keys: &mut Vec<(f64, u32)>,
) {
    keys.clear();
    let slots = (2 * scores.len())
        .next_power_of_two()
        .clamp(MIN_SLOTS, MAX_SLOTS);
    let mask = slots - 1;
    let inv = 1.0 / epsilon;
    // `⌊v⌋` via truncation (no libm call on baseline x86-64); exact for
    // `|v| < 2^50`, and saturating — harmless — elsewhere, where the bucket
    // is not vouched for anyway.
    let slot = |x: f64| {
        let v = x * inv;
        let t = v as i64;
        t.wrapping_sub((v < t as f64) as i64) as usize & mask
    };
    table.resize(table.len().max(slots), 0);
    let table = &mut table[..slots];
    table.fill(0);
    let mut vouched = epsilon > 0.0 && epsilon.is_finite() && inv.is_finite();
    for &x in scores {
        vouched &= (x * inv).abs() < CELL_LIMIT;
        table[slot(x)] += 1;
    }
    // An unvouched bucket takes the same path with a threshold every cell
    // meets, so every key is hot.
    let need = if vouched {
        u32::try_from(min_len).unwrap_or(u32::MAX)
    } else {
        0
    };
    let triple = |r: usize| table[(r + mask) & mask] + table[r] + table[(r + 1) & mask];
    // Early reject, the common case: no triple reaches `need`. The straight
    // run of triples is a branch-free OR the compiler vectorizes; the two
    // that wrap around the table are checked apart.
    let straight = table[..slots - 2]
        .iter()
        .zip(&table[1..slots - 1])
        .zip(&table[2..])
        .fold(false, |hot, ((a, b), c)| hot | (a + b + c >= need));
    if !straight && triple(0) < need && triple(mask) < need {
        return;
    }
    for (i, &x) in scores.iter().enumerate() {
        let r = slot(x);
        if triple((r + mask) & mask) >= need || triple(r) >= need || triple((r + 1) & mask) >= need
        {
            keys.push((x, i as u32));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn h_series_of_running_example() {
        // Figure 2: all three genes share scores [1.0, 0.5, 1.0, 0.5] along
        // the chain c7, c9, c5, c1, c3 (indices 6, 8, 4, 0, 2).
        let chain = [6usize, 8, 4, 0, 2];
        let g1 = [10.0, -14.5, 15.0, 10.5, 0.0, 14.5, -15.0, 0.0, -5.0, -5.0];
        let g2 = [20.0, 15.0, 15.0, 43.5, 30.0, 44.0, 45.0, 43.0, 35.0, 20.0];
        let g3 = [6.0, -3.8, 8.0, 6.2, 2.0, 7.8, -4.0, 2.0, 0.0, 0.0];
        for g in [&g1[..], &g2[..], &g3[..]] {
            let h = h_series(g, &chain);
            let expect = [1.0, 0.5, 1.0, 0.5];
            assert_eq!(h.len(), 4);
            for (a, b) in h.iter().zip(expect.iter()) {
                assert!((a - b).abs() < 1e-12, "{h:?}");
            }
        }
    }

    #[test]
    fn h_scores_of_figure_4_outlier() {
        // Projection on c2, c10, c8: H(1) = H(3) = 0.5263…, H(2) = 4.6.
        let g1 = [10.0, -14.5, 15.0, 10.5, 0.0, 14.5, -15.0, 0.0, -5.0, -5.0];
        let g2 = [20.0, 15.0, 15.0, 43.5, 30.0, 44.0, 45.0, 43.0, 35.0, 20.0];
        let g3 = [6.0, -3.8, 8.0, 6.2, 2.0, 7.8, -4.0, 2.0, 0.0, 0.0];
        let chain = [1usize, 9, 7];
        let h1 = h_series(&g1, &chain)[1];
        let h2 = h_series(&g2, &chain)[1];
        let h3 = h_series(&g3, &chain)[1];
        assert!((h1 - 5.0 / 9.5).abs() < 1e-12);
        assert!((h3 - 2.0 / 3.8).abs() < 1e-12);
        assert!((h2 - 4.6).abs() < 1e-12);
        assert!((h1 - 0.5263).abs() < 1e-3);
        assert!((h1 - h3).abs() < 1e-12, "g1 and g3 agree exactly");
    }

    #[test]
    fn h_score_sign_invariance_for_inverted_chains() {
        // Negating a profile (perfect negative correlation) leaves the score
        // unchanged because both step and baseline flip sign.
        assert_eq!(h_score(2.0, 4.0), h_score(-2.0, -4.0));
    }

    #[test]
    fn windows_basic() {
        let scores = [0.0, 0.05, 0.1, 1.0, 1.02, 1.04, 1.06];
        let w = maximal_windows(&scores, 0.1, 2);
        assert_eq!(w, vec![(0, 3), (3, 7)]);
    }

    #[test]
    fn windows_overlap() {
        let scores = [0.0, 0.4, 0.8, 1.2];
        let w = maximal_windows(&scores, 0.8, 2);
        // [0,0.4,0.8] and [0.4,0.8,1.2] overlap and are both maximal.
        assert_eq!(w, vec![(0, 3), (1, 4)]);
    }

    #[test]
    fn windows_respect_min_len() {
        let scores = [0.0, 1.0, 2.0, 2.05];
        assert!(maximal_windows(&scores, 0.1, 3).is_empty());
        assert_eq!(maximal_windows(&scores, 0.1, 2), vec![(2, 4)]);
    }

    #[test]
    fn window_covering_everything_is_unique() {
        let scores = [1.0, 1.1, 1.2];
        assert_eq!(maximal_windows(&scores, 10.0, 1), vec![(0, 3)]);
    }

    #[test]
    fn zero_epsilon_groups_exact_ties() {
        let scores = [0.5, 0.5, 0.5, 0.7, 0.7];
        let w = maximal_windows(&scores, 0.0, 2);
        assert_eq!(w, vec![(0, 3), (3, 5)]);
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        assert!(maximal_windows(&[], 0.1, 1).is_empty());
        assert!(maximal_windows(&[1.0], 0.1, 2).is_empty());
        assert_eq!(maximal_windows(&[1.0], 0.1, 1), vec![(0, 1)]);
        assert!(maximal_windows(&[1.0, 2.0], 0.5, 0).is_empty());
    }

    #[test]
    fn non_finite_scores_belong_to_no_window() {
        // An infinite score fails its own extension test (∞ − ∞ = NaN);
        // the jump search must neither stall on it nor index past the end.
        let inf = f64::INFINITY;
        assert!(maximal_windows(&[inf, inf], 0.1, 1).is_empty());
        assert_eq!(maximal_windows(&[5.0, inf], 0.1, 1), vec![(0, 1)]);
        assert_eq!(maximal_windows(&[5.0, inf, inf], 0.1, 1), vec![(0, 1)]);
        assert_eq!(
            maximal_windows(&[-inf, -inf, 5.0, 5.05, inf, f64::NAN], 0.1, 2),
            vec![(2, 4)]
        );
        assert!(maximal_windows(&[-f64::NAN, -inf, f64::NAN], 0.1, 1).is_empty());
    }

    #[test]
    fn singleton_windows_between_distant_scores() {
        let scores = [0.0, 10.0, 20.0];
        assert_eq!(
            maximal_windows(&scores, 1.0, 1),
            vec![(0, 1), (1, 2), (2, 3)]
        );
    }

    #[test]
    fn all_windows_are_valid_and_maximal_property() {
        // Deterministic mini-fuzz across several configurations.
        let cases: Vec<(Vec<f64>, f64)> = vec![
            (vec![0.0, 0.1, 0.2, 0.3, 0.4], 0.15),
            (vec![0.0, 0.0, 0.0, 5.0], 0.0),
            (vec![-3.0, -1.0, 0.0, 0.5, 0.6, 9.0], 1.0),
        ];
        for (scores, eps) in cases {
            let ws = maximal_windows(&scores, eps, 1);
            for &(s, e) in &ws {
                assert!(scores[e - 1] - scores[s] <= eps);
                if s > 0 {
                    assert!(scores[e - 1] - scores[s - 1] > eps, "extensible left");
                }
                if e < scores.len() {
                    assert!(scores[e] - scores[s] > eps, "extensible right");
                }
            }
            // Every index is covered by at least one window when min_len = 1.
            for i in 0..scores.len() {
                assert!(
                    ws.iter().any(|&(s, e)| s <= i && i < e),
                    "index {i} uncovered"
                );
            }
        }
    }
}
