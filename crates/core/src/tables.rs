//! Struct-of-arrays hot tables over all per-gene `RWave^γ` models.
//!
//! [`crate::rwave::RWaveModel`] is the per-gene source of truth,
//! but its layout (one struct per gene, pointer binary searches per query)
//! is wrong for the enumeration hot path, which asks the same four
//! questions for *every member gene* at *every node*. [`HotTables`]
//! re-materializes the answers once, at [`Miner`](crate::Miner)
//! construction, as flat arrays indexed `gene * stride + key` — sequential,
//! prefetch-friendly walks with no per-query search:
//!
//! * `rank[g·n + c]` — the value rank of condition `c` in gene `g`'s model;
//! * `succ_start[g·n + r]` — smallest rank whose conditions are regulation
//!   successors of rank `r` (Lemma 3.1), sentinel `n` for "none";
//! * `pred_end1[g·n + r]` — one past the largest predecessor rank, `0` for
//!   "none";
//! * `fwd_ge[g·(n+2) + need]` / `bwd_start[g·(n+2) + need]` — cumulative
//!   max-chain thresholds: rank `r` sustains a forward chain of `need` more
//!   conditions **iff** `r < fwd_ge[need]`, and a backward chain **iff**
//!   `r ≥ bwd_start[need]`. These are exact because the models' max-chain
//!   tables are monotone in rank (`maxlen_fwd` non-increasing,
//!   `maxlen_bwd` non-decreasing — proved in `rwave.rs`, asserted here in
//!   debug builds).
//!
//! Together the last three collapse the miner's per-member qualification
//! test (two binary searches + a float compare in the old layout) into a
//! pair of `u32` range compares — see `expand_node` in `miner.rs`.
//!
//! Optionally (bounded by a memory budget) the tables also carry per-gene
//! **rank-suffix bitmasks** over condition ids: `suffix(g, r)` has one bit
//! per condition whose rank in gene `g`'s model is `≥ r`. The candidate
//! conditions a member contributes are always a rank *range* `[lo, hi)`,
//! so its packed-bitset form is `suffix(lo) & !suffix(hi)` — accumulated
//! word-parallel into a [`BitMask`] by
//! [`HotTables::accumulate_candidates`]. When the budget is exceeded the
//! same bits are set by a short rank walk instead; both paths produce the
//! identical mask.

use crate::bitset::{words_for, BitMask};
use crate::rwave::RWaveModel;
use regcluster_matrix::{CondId, GeneId};

/// Upper bound on the rank-suffix bitmask table
/// (`genes · (n+1) · ⌈n/64⌉ · 8` bytes). Past it, candidate accumulation
/// falls back to per-rank bit sets — same output, no quadratic-in-`n`
/// memory. 64 MiB covers the paper's scales (3000 × 40 needs < 1 MiB)
/// with two orders of magnitude to spare.
const SUFFIX_TABLE_BUDGET_BYTES: usize = 64 << 20;

/// Flat, read-only lookup tables for the enumeration hot path.
///
/// Built once per [`Miner`](crate::Miner) from the per-gene models; see
/// the [module docs](self) for the layout and `docs/PERFORMANCE.md` for
/// the cost model.
#[derive(Debug)]
pub struct HotTables {
    n_conds: usize,
    /// Words per suffix bitmask row.
    words: usize,
    /// `rank[g·n + c]` — rank of condition `c` in gene `g`'s model.
    rank: Vec<u32>,
    /// `order[g·n + r]` — condition id at rank `r` (fallback bit walk).
    order: Vec<u32>,
    /// `succ_start[g·n + r]`, sentinel `n_conds` for "no successor".
    succ_start: Vec<u32>,
    /// `pred_end1[g·n + r]` — predecessor end + 1, `0` for "none".
    pred_end1: Vec<u32>,
    /// `fwd_ge[g·(n+2) + need]` — number of ranks with
    /// `maxlen_fwd ≥ need` (a prefix of ranks).
    fwd_ge: Vec<u32>,
    /// `bwd_start[g·(n+2) + need]` — first rank with
    /// `maxlen_bwd ≥ need` (`n_conds` when none).
    bwd_start: Vec<u32>,
    /// Rank-suffix bitmasks, `None` past the memory budget.
    suffix: Option<Vec<u64>>,
}

impl HotTables {
    /// Builds the tables for `models` (one per gene, each over `n_conds`
    /// conditions). Each model is consumed as soon as its rows are
    /// written, so the models never all live at once.
    pub fn build(models: impl ExactSizeIterator<Item = RWaveModel>, n_conds: usize) -> Self {
        let n = n_conds;
        let g_count = models.len();
        let words = words_for(n);
        let suffix_bytes = g_count
            .saturating_mul(n + 1)
            .saturating_mul(words)
            .saturating_mul(8);
        let mut suffix = if suffix_bytes <= SUFFIX_TABLE_BUDGET_BYTES {
            Some(vec![0u64; g_count * (n + 1) * words])
        } else {
            None
        };

        let mut rank = vec![0u32; g_count * n];
        let mut order = vec![0u32; g_count * n];
        let mut succ_start = vec![0u32; g_count * n];
        let mut pred_end1 = vec![0u32; g_count * n];
        let mut fwd_ge = vec![0u32; g_count * (n + 2)];
        let mut bwd_start = vec![0u32; g_count * (n + 2)];
        let mut mf: Vec<u32> = Vec::with_capacity(n);
        let mut mb: Vec<u32> = Vec::with_capacity(n);

        for (g, model) in models.enumerate() {
            debug_assert_eq!(model.len(), n, "model/matrix condition count mismatch");
            let base = g * n;
            mf.clear();
            mb.clear();
            for r in 0..n {
                let c = model.cond_at(r);
                order[base + r] = c as u32;
                rank[base + c] = r as u32;
                succ_start[base + r] = model.successor_start(r).unwrap_or(n) as u32;
                pred_end1[base + r] = model.predecessor_end(r).map_or(0, |p| p as u32 + 1);
                mf.push(model.max_chain_fwd(r) as u32);
                mb.push(model.max_chain_bwd(r) as u32);
            }
            // The threshold tables are exact only because the max-chain
            // tables are monotone in rank (proved in rwave.rs).
            debug_assert!(mf.windows(2).all(|w| w[0] >= w[1]), "maxlen_fwd monotone");
            debug_assert!(mb.windows(2).all(|w| w[0] <= w[1]), "maxlen_bwd monotone");
            let tbase = g * (n + 2);
            for need in 0..=(n + 1) {
                let need = need as u32;
                // mf is non-increasing: `v ≥ need` holds on a prefix.
                fwd_ge[tbase + need as usize] = mf.partition_point(|&v| v >= need) as u32;
                // mb is non-decreasing: `v < need` holds on a prefix.
                bwd_start[tbase + need as usize] = mb.partition_point(|&v| v < need) as u32;
            }
            if let Some(sfx) = suffix.as_mut() {
                // suffix(n) = ∅; suffix(r) = suffix(r+1) ∪ {cond_at(r)}.
                let sbase = g * (n + 1) * words;
                for r in (0..n).rev() {
                    let src = sbase + (r + 1) * words;
                    let dst = sbase + r * words;
                    sfx.copy_within(src..src + words, dst);
                    let c = order[base + r] as usize;
                    sfx[dst + c / 64] |= 1u64 << (c % 64);
                }
            }
        }
        HotTables {
            n_conds: n,
            words,
            rank,
            order,
            succ_start,
            pred_end1,
            fwd_ge,
            bwd_start,
            suffix,
        }
    }

    /// Number of conditions every table row covers.
    #[inline]
    pub fn n_conds(&self) -> usize {
        self.n_conds
    }

    /// True when the rank-suffix bitmask table was materialized (within
    /// the memory budget); false means candidate accumulation walks ranks.
    #[inline]
    pub fn has_suffix_masks(&self) -> bool {
        self.suffix.is_some()
    }

    /// Rank of condition `c` in gene `g`'s model (flat lookup).
    #[inline]
    pub fn rank_of(&self, g: GeneId, c: CondId) -> usize {
        self.rank[g * self.n_conds + c] as usize
    }

    /// The condition ids of gene `g` at ranks `[lo, hi)`, as a flat slice
    /// of the struct-of-arrays order table — a sequential, prefetch-
    /// friendly walk of a member's qualifying candidates.
    #[inline]
    pub fn conds_in_range(&self, g: GeneId, lo: u32, hi: u32) -> &[u32] {
        let base = g * self.n_conds;
        &self.order[base + lo as usize..base + hi as usize]
    }

    /// Clamps a required-extension length into the threshold tables'
    /// index range (`need > n` can only yield an empty row).
    #[inline]
    pub fn need_index(&self, need: usize) -> usize {
        need.min(self.n_conds + 1)
    }

    /// Number of ranks of gene `g` sustaining a forward chain of at least
    /// `need` conditions — equivalently, rank `r` sustains one **iff**
    /// `r < fwd_cutoff`.
    #[inline]
    pub fn fwd_cutoff(&self, g: GeneId, need_idx: usize) -> u32 {
        self.fwd_ge[g * (self.n_conds + 2) + need_idx]
    }

    /// First rank of gene `g` sustaining a backward chain of at least
    /// `need` conditions (`n` when none) — rank `r` sustains one **iff**
    /// `r ≥ bwd_first`.
    #[inline]
    pub fn bwd_first(&self, g: GeneId, need_idx: usize) -> u32 {
        self.bwd_start[g * (self.n_conds + 2) + need_idx]
    }

    /// The forward qualification range for a member at rank `r_last`
    /// needing `need` more conditions: rank `r` qualifies **iff**
    /// `lo ≤ r < hi`. `lo` is the successor start of `r_last` (sentinel
    /// `n`), `hi` the forward max-chain cutoff.
    #[inline]
    pub fn fwd_range(&self, g: GeneId, r_last: usize, need_idx: usize) -> (u32, u32) {
        (
            self.succ_start[g * self.n_conds + r_last],
            self.fwd_cutoff(g, need_idx),
        )
    }

    /// The backward qualification range, mirror of
    /// [`HotTables::fwd_range`]: rank `r` qualifies **iff** `lo ≤ r < hi`,
    /// with `lo` the backward max-chain start and `hi` one past the
    /// predecessor end of `r_last` (`0` when none).
    #[inline]
    pub fn bwd_range(&self, g: GeneId, r_last: usize, need_idx: usize) -> (u32, u32) {
        (
            self.bwd_first(g, need_idx),
            self.pred_end1[g * self.n_conds + r_last],
        )
    }

    /// ORs the condition ids at ranks `[lo, hi)` of gene `g` into `mask`:
    /// word-parallel (`suffix(lo) & !suffix(hi)` per lane) when the
    /// suffix table exists, by rank walk otherwise. Both paths set the
    /// identical bits.
    #[inline]
    pub fn accumulate_candidates(&self, g: GeneId, lo: u32, hi: u32, mask: &mut BitMask) {
        if lo >= hi {
            return;
        }
        if let Some(sfx) = &self.suffix {
            let row = |r: u32| {
                let off = (g * (self.n_conds + 1) + r as usize) * self.words;
                &sfx[off..off + self.words]
            };
            mask.or_range_masked(row(lo), row(hi));
        } else {
            let base = g * self.n_conds;
            for r in lo as usize..hi as usize {
                mask.set(self.order[base + r] as usize);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitset::indices;

    fn g1_model() -> RWaveModel {
        // g1 of the paper's running example, γ_1 = 4.5.
        let g1 = [10.0, -14.5, 15.0, 10.5, 0.0, 14.5, -15.0, 0.0, -5.0, -5.0];
        RWaveModel::build(&g1, 4.5)
    }

    #[test]
    fn tables_agree_with_model_queries() {
        let model = g1_model();
        let n = model.len();
        let t = HotTables::build(std::iter::once(model.clone()), n);
        for c in 0..n {
            assert_eq!(t.rank_of(0, c), model.rank_of(c));
        }
        for r in 0..n {
            for need in 0..=n + 1 {
                let (flo, fhi) = t.fwd_range(0, r, t.need_index(need));
                let (blo, bhi) = t.bwd_range(0, r, t.need_index(need));
                for ri in 0..n {
                    let fwd_ok =
                        ri > r && model.is_up_regulated(r, ri) && model.max_chain_fwd(ri) >= need;
                    let bwd_ok =
                        ri < r && model.is_up_regulated(ri, r) && model.max_chain_bwd(ri) >= need;
                    let ri = ri as u32;
                    assert_eq!(
                        flo <= ri && ri < fhi,
                        fwd_ok,
                        "fwd r={r} ri={ri} need={need}"
                    );
                    assert_eq!(
                        blo <= ri && ri < bhi,
                        bwd_ok,
                        "bwd r={r} ri={ri} need={need}"
                    );
                }
            }
        }
    }

    #[test]
    fn accumulate_candidates_sets_rank_range_conditions() {
        let model = g1_model();
        let n = model.len();
        let t = HotTables::build(std::iter::once(model.clone()), n);
        assert!(t.has_suffix_masks());
        for lo in 0..=n as u32 {
            for hi in 0..=n as u32 {
                let mut mask = BitMask::with_bits(n);
                t.accumulate_candidates(0, lo, hi, &mut mask);
                let mut expect: Vec<usize> = (lo..hi.min(n as u32))
                    .map(|r| model.cond_at(r as usize))
                    .collect();
                expect.sort_unstable();
                assert_eq!(indices(mask.words()), expect, "lo={lo} hi={hi}");
            }
        }
    }
}
