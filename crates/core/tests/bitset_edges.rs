//! Word-boundary and equivalence tests for the packed candidate bitsets.
//!
//! The enumeration hot path packs condition ids 64 to a `u64` word
//! (`crate::bitset`), so every off-by-one in the layout shows up exactly at
//! bit counts 63/64/65 and 127/128/129. These tests pin the boundary
//! behavior three ways: direct set algebra on [`BitMask`], a property test
//! proving the word-wise intersection agrees with the sorted-`Vec` merge
//! intersection the pre-bitset code used, and end-to-end mines on matrices
//! whose condition counts straddle the word boundaries.

use proptest::prelude::*;

use regcluster_core::bitset::{
    from_indices, indices, intersect_into, popcount, words_for, BitMask, WORD_BITS,
};
use regcluster_core::{mine, MineRequest, Miner, MiningParams};
use regcluster_datagen::{generate, SyntheticConfig};

/// Bit counts at and around the `u64` word boundaries.
const BOUNDARY_BITS: [usize; 6] = [63, 64, 65, 127, 128, 129];

#[test]
fn boundary_bits_round_trip_per_width() {
    for n in BOUNDARY_BITS {
        let mut m = BitMask::with_bits(n);
        assert_eq!(m.words().len(), words_for(n));
        // First, last, and every bit adjacent to an interior word edge.
        let probes: Vec<usize> = [0, 1, 62, 63, 64, 65, 126, 127, 128]
            .into_iter()
            .filter(|&i| i < n)
            .collect();
        for &i in &probes {
            m.set(i);
        }
        let mut seen = Vec::new();
        m.for_each(|i| seen.push(i));
        assert_eq!(seen, probes, "ascending iteration at width {n}");
        assert_eq!(m.count(), probes.len());
        for &i in &probes {
            assert!(m.contains(i), "bit {i} at width {n}");
        }
        m.clear();
        assert!(!m.any(), "cleared mask at width {n}");
    }
}

#[test]
fn all_ones_mask_intersects_to_identity() {
    for n in BOUNDARY_BITS {
        let all: Vec<usize> = (0..n).collect();
        let ones = from_indices(n, &all);
        assert_eq!(popcount(&ones), n, "all-ones popcount at width {n}");
        let sparse = from_indices(n, &[0, n / 2, n - 1]);
        let mut out = vec![0u64; ones.len()];
        // Intersecting with the universe is the identity.
        intersect_into(&ones, &sparse, &mut out);
        assert_eq!(indices(&out), vec![0, n / 2, n - 1]);
        intersect_into(&ones, &ones, &mut out);
        assert_eq!(indices(&out), all);
    }
}

#[test]
fn disjoint_sets_intersect_to_empty() {
    for n in BOUNDARY_BITS {
        let evens: Vec<usize> = (0..n).step_by(2).collect();
        let odds: Vec<usize> = (1..n).step_by(2).collect();
        let a = from_indices(n, &evens);
        let b = from_indices(n, &odds);
        let mut out = vec![u64::MAX; a.len()];
        intersect_into(&a, &b, &mut out);
        assert_eq!(popcount(&out), 0, "disjoint intersection at width {n}");
        assert!(indices(&out).is_empty());
    }
}

#[test]
fn or_range_masked_across_word_edges() {
    // Suffix pairs whose difference straddles a word edge: contribution
    // must be exactly [lo, hi) regardless of where the edge falls.
    for (n, lo, hi) in [(129, 60, 68), (129, 63, 64), (129, 64, 129), (65, 0, 65)] {
        let lo_sfx: Vec<usize> = (lo..n).collect();
        let hi_sfx: Vec<usize> = (hi..n).collect();
        let mut m = BitMask::with_bits(n);
        m.or_range_masked(&from_indices(n, &lo_sfx), &from_indices(n, &hi_sfx));
        let mut got = Vec::new();
        m.for_each(|i| got.push(i));
        let want: Vec<usize> = (lo..hi).collect();
        assert_eq!(got, want, "suffix difference [{lo}, {hi}) at width {n}");
    }
}

/// The sorted-`Vec` merge intersection the pre-bitset candidate code used.
fn merge_intersection(a: &[usize], b: &[usize]) -> Vec<usize> {
    let (mut i, mut j) = (0, 0);
    let mut out = Vec::new();
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Sorted, deduplicated index sets inside `0..n_bits`, biased to include
/// word-boundary widths via the strategy below.
fn index_set(n_bits: usize) -> impl Strategy<Value = Vec<usize>> {
    prop::collection::btree_set(0..n_bits, 0..=n_bits.min(40)).prop_map(|s| s.into_iter().collect())
}

proptest! {
    /// Word-wise AND over packed words ≡ merge intersection of sorted id
    /// vectors, for widths spanning one to three words.
    #[test]
    fn bitset_intersection_matches_sorted_vec(
        width in prop::sample::select(vec![1usize, 63, 64, 65, 127, 128, 129, 160]),
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
    ) {
        // Derive two index sets from the seeds without a second strategy
        // level: keep it simple and deterministic.
        let a: Vec<usize> = (0..width).filter(|i| (seed_a >> (i % 64)) & 1 == 1).collect();
        let b: Vec<usize> = (0..width).filter(|i| (seed_b >> ((i + 17) % 64)) & 1 == 1).collect();
        let wa = from_indices(width, &a);
        let wb = from_indices(width, &b);
        let mut out = vec![0u64; words_for(width)];
        intersect_into(&wa, &wb, &mut out);
        prop_assert_eq!(indices(&out), merge_intersection(&a, &b));
        prop_assert_eq!(popcount(&out), merge_intersection(&a, &b).len());
    }

    /// Random sparse sets round-trip through the packed representation.
    #[test]
    fn pack_unpack_round_trip(set in index_set(129)) {
        let words = from_indices(129, &set);
        prop_assert_eq!(indices(&words), set.clone());
        prop_assert_eq!(popcount(&words), set.len());
        // Bit positions land in the expected word lane.
        for &i in &set {
            prop_assert!(words[i / WORD_BITS] & (1u64 << (i % WORD_BITS)) != 0);
        }
    }
}

/// End-to-end mining on matrices whose condition counts straddle the word
/// boundaries: the packed candidate mask spans exactly 1, 2 or 3 words, and
/// sequential and parallel mining must agree on identical output either way.
#[test]
fn mining_agrees_across_word_boundary_widths() {
    for n_conds in BOUNDARY_BITS {
        let cfg = SyntheticConfig {
            n_genes: 120,
            n_conds,
            n_clusters: 4,
            ..SyntheticConfig::default()
        };
        let data = generate(&cfg).expect("generator config is feasible");
        let params = MiningParams::new(3, 6, 0.1, 0.01).expect("valid params");
        let seq = mine(&data.matrix, &params).expect("sequential mine");
        let miner = Miner::new(&data.matrix, &params).expect("valid params");
        let (par, _) = MineRequest::new(&miner)
            .threads(4)
            .collect()
            .expect("parallel mine");
        assert_eq!(
            seq, par.clusters,
            "sequential ≡ parallel at #cond = {n_conds}"
        );
        for c in &seq {
            c.validate(&data.matrix, &params)
                .expect("mined cluster re-validates against the raw matrix");
        }
    }
}
