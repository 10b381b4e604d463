//! Property-based tests of the core model invariants.
//!
//! These check the paper's lemmas directly against randomly generated data:
//! Lemma 3.1 (RWave pointer queries are sound), Lemma 3.2 (windowed H-scores
//! characterize shifting-and-scaling families), and Definition 3.2 (every
//! mined cluster re-validates against the raw matrix).

use proptest::prelude::*;

use regcluster_core::rwave::RWaveModel;
use regcluster_core::{mine, MineRequest, Miner, MiningParams};
use regcluster_matrix::ExpressionMatrix;

/// A random profile of 2..=12 expression values in [-50, 50].
fn profile_strategy() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-50.0f64..50.0, 2..=12)
}

/// A small random matrix plus mining parameters.
fn matrix_strategy() -> impl Strategy<Value = (ExpressionMatrix, MiningParams)> {
    (2usize..=8, 3usize..=8).prop_flat_map(|(n_genes, n_conds)| {
        let values = prop::collection::vec(-20.0f64..20.0, n_genes * n_conds);
        let gamma = 0.0f64..0.5;
        let eps = 0.0f64..1.0;
        (Just(n_genes), Just(n_conds), values, gamma, eps).prop_map(
            |(n_genes, n_conds, values, gamma, eps)| {
                let m = ExpressionMatrix::from_flat_unlabeled(n_genes, n_conds, values)
                    .expect("generated values are finite");
                let params = MiningParams::new(2, 2, gamma, eps).expect("valid params");
                (m, params)
            },
        )
    })
}

proptest! {
    /// Pointers are non-nested, strictly ordered, and each spans more than γ.
    #[test]
    fn rwave_pointer_invariants(profile in profile_strategy(), gamma_frac in 0.0f64..1.0) {
        let (lo, hi) = profile.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), &v| {
            (l.min(v), h.max(v))
        });
        let gamma = gamma_frac * (hi - lo);
        let m = RWaveModel::build(&profile, gamma);
        for w in m.pointers().windows(2) {
            prop_assert!(w[0].lo < w[1].lo);
            prop_assert!(w[0].hi < w[1].hi);
        }
        for p in m.pointers() {
            prop_assert!(p.lo < p.hi);
            prop_assert!(m.value_at(p.hi as usize) - m.value_at(p.lo as usize) > gamma);
        }
    }

    /// Lemma 3.1 soundness: every pair the model reports as regulated really
    /// differs by more than γ.
    #[test]
    fn rwave_regulation_soundness(profile in profile_strategy(), gamma_frac in 0.0f64..1.0) {
        let (lo, hi) = profile.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), &v| {
            (l.min(v), h.max(v))
        });
        let gamma = gamma_frac * (hi - lo);
        let m = RWaveModel::build(&profile, gamma);
        let n = m.len();
        for a in 0..n {
            for b in a..n {
                if m.is_up_regulated(a, b) {
                    prop_assert!(m.value_at(b) - m.value_at(a) > gamma);
                }
                // The pointer walk and the direct value comparison are the
                // same relation, exactly.
                prop_assert_eq!(
                    m.is_up_regulated(a, b),
                    m.is_up_regulated_via_pointers(a, b)
                );
            }
        }
    }

    /// Bordering completeness: every condition with SOME regulation
    /// predecessor gets one via the model, and predecessor_end is exactly
    /// the last rank certified.
    #[test]
    fn rwave_closest_predecessor_found(profile in profile_strategy(), gamma_frac in 0.0f64..0.9) {
        let (lo, hi) = profile.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), &v| {
            (l.min(v), h.max(v))
        });
        let gamma = gamma_frac * (hi - lo);
        let m = RWaveModel::build(&profile, gamma);
        let n = m.len();
        for r in 0..n {
            let has_real_pred = (0..r).any(|p| m.value_at(r) - m.value_at(p) > gamma);
            match m.predecessor_end(r) {
                Some(p_end) => {
                    prop_assert!(has_real_pred);
                    // Everything at rank <= p_end is certified; the raw data
                    // must agree.
                    for p in 0..=p_end {
                        prop_assert!(m.value_at(r) - m.value_at(p) > gamma);
                    }
                }
                None => {
                    // The model may be conservative only about *which* pairs
                    // are linked, never about a condition's own closest
                    // predecessor: the construction scans every rank.
                    prop_assert!(!has_real_pred,
                        "rank {r} has a real predecessor but the model reports none");
                }
            }
        }
    }

    /// The greedy max-chain table equals an exhaustive DP over the pointer
    /// relation.
    #[test]
    fn rwave_max_chain_matches_dp(profile in profile_strategy(), gamma_frac in 0.0f64..1.0) {
        let (lo, hi) = profile.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), &v| {
            (l.min(v), h.max(v))
        });
        let gamma = gamma_frac * (hi - lo);
        let m = RWaveModel::build(&profile, gamma);
        let n = m.len();
        let mut best_fwd = vec![1usize; n];
        for a in (0..n).rev() {
            for b in a + 1..n {
                if m.is_up_regulated(a, b) {
                    best_fwd[a] = best_fwd[a].max(1 + best_fwd[b]);
                }
            }
        }
        let mut best_bwd = vec![1usize; n];
        for a in 0..n {
            for b in 0..a {
                if m.is_up_regulated(b, a) {
                    best_bwd[a] = best_bwd[a].max(1 + best_bwd[b]);
                }
            }
        }
        for r in 0..n {
            prop_assert_eq!(m.max_chain_fwd(r), best_fwd[r]);
            prop_assert_eq!(m.max_chain_bwd(r), best_bwd[r]);
        }
    }

    /// Every cluster the miner emits re-validates against the raw matrix
    /// (Definition 3.2), and no two clusters are identical.
    #[test]
    fn mined_clusters_validate((m, params) in matrix_strategy()) {
        let clusters = mine(&m, &params).expect("mining succeeds");
        let mut keys = Vec::new();
        for c in &clusters {
            c.validate(&m, &params).map_err(|e| {
                TestCaseError::fail(format!("cluster {c:?} failed validation: {e}"))
            })?;
            keys.push((c.chain.clone(), c.genes()));
        }
        let before = keys.len();
        keys.sort();
        keys.dedup();
        prop_assert_eq!(before, keys.len(), "duplicate clusters emitted");
    }

    /// Parallel mining returns exactly the sequential result.
    #[test]
    fn parallel_matches_sequential((m, params) in matrix_strategy()) {
        let seq = mine(&m, &params).expect("sequential mining succeeds");
        let miner = Miner::new(&m, &params).expect("valid params");
        let (par, _) = MineRequest::new(&miner)
            .threads(3)
            .collect()
            .expect("parallel mining succeeds");
        prop_assert_eq!(seq, par.clusters);
    }

    /// Gene-set maximality: if a non-member gene fits an output cluster
    /// (Definition 3.2 still holds with it added, in either orientation),
    /// then some output cluster with the same chain contains the enlarged
    /// gene set — nothing coherent is silently dropped.
    #[test]
    fn output_gene_sets_are_maximal((m, params) in matrix_strategy()) {
        let clusters = mine(&m, &params).expect("mining succeeds");
        for c in &clusters {
            for g in 0..m.n_genes() {
                if c.genes().binary_search(&g).is_ok() {
                    continue;
                }
                for orientation in 0..2 {
                    let mut bigger = c.clone();
                    if orientation == 0 {
                        bigger.p_members.push(g);
                        bigger.p_members.sort_unstable();
                    } else {
                        bigger.n_members.push(g);
                        bigger.n_members.sort_unstable();
                    }
                    // Representativeness may flip with the extra member;
                    // ignore that rule here (only regulation + coherence
                    // matter for the maximality claim).
                    let fits = match bigger.validate(&m, &params) {
                        Ok(()) => true,
                        Err(regcluster_core::ValidationError::NotRepresentative) => true,
                        Err(_) => false,
                    };
                    if fits {
                        let genes_plus = bigger.genes();
                        let covered = clusters.iter().any(|other| {
                            other.chain == c.chain
                                && genes_plus
                                    .iter()
                                    .all(|gg| other.genes().binary_search(gg).is_ok())
                        }) || {
                            // …or the enlarged set is representative under
                            // the inverted chain and reported there.
                            let inv: Vec<usize> =
                                c.chain.iter().rev().copied().collect();
                            clusters.iter().any(|other| {
                                other.chain == inv
                                    && genes_plus
                                        .iter()
                                        .all(|gg| other.genes().binary_search(gg).is_ok())
                            })
                        };
                        prop_assert!(
                            covered,
                            "gene {} fits cluster {:?} but no superset cluster reported",
                            g,
                            c
                        );
                    }
                }
            }
        }
    }

    /// Completeness on perfect families: genes that are exact affine images
    /// of a base profile with strong steps always form one full cluster.
    #[test]
    fn affine_families_cluster_completely(
        n_genes in 3usize..7,
        n_conds in 4usize..7,
        seed_steps in prop::collection::vec(0.3f64..1.0, 8),
        scalings in prop::collection::vec(
            prop::sample::select(vec![-3.0, -2.0, -1.0, 0.5, 1.0, 2.0, 3.0]), 8),
        shifts in prop::collection::vec(-5.0f64..5.0, 8),
    ) {
        // Base profile: cumulative sums of strong steps, normalized into [0,1].
        let mut base = vec![0.0f64];
        for s in seed_steps.iter().take(n_conds - 1) {
            base.push(base.last().unwrap() + s);
        }
        let span = *base.last().unwrap();
        for v in &mut base {
            *v /= span;
        }
        let min_gap = base.windows(2).map(|w| w[1] - w[0]).fold(f64::INFINITY, f64::min);

        let rows: Vec<Vec<f64>> = (0..n_genes)
            .map(|g| base.iter().map(|&v| scalings[g] * v + shifts[g]).collect())
            .collect();
        let m = ExpressionMatrix::from_flat_unlabeled(
            n_genes,
            n_conds,
            rows.iter().flatten().copied().collect(),
        )
        .unwrap();

        // γ as a fraction of range: each gene's range is |s1| · 1, each step
        // |s1| · gap ≥ |s1| · min_gap, so any fraction < min_gap qualifies.
        let gamma = 0.9 * min_gap.min(1.0);
        let params = MiningParams::new(n_genes, n_conds, gamma, 1e-9).unwrap();
        let clusters = mine(&m, &params).unwrap();

        let n_pos = (0..n_genes).filter(|&g| scalings[g] > 0.0).count();
        let n_neg = n_genes - n_pos;
        // Representativeness: the full-family cluster is emitted from the
        // majority orientation; a tie resolves by chain head ids. In all
        // cases exactly one cluster covering every gene must appear.
        prop_assert_eq!(clusters.len(), 1, "expected the single full-family cluster");
        let c = &clusters[0];
        prop_assert_eq!(c.n_genes(), n_genes);
        prop_assert_eq!(c.n_conditions(), n_conds);
        prop_assert!(c.p_members.len() == n_pos.max(n_neg));
        c.validate(&m, &params).map_err(|e| {
            TestCaseError::fail(format!("family cluster failed validation: {e}"))
        })?;
    }

    /// Permuting condition columns never changes the set of clusters, up to
    /// the column relabeling.
    #[test]
    fn column_permutation_invariance((m, params) in matrix_strategy(), salt in 0u64..1000) {
        let n = m.n_conditions();
        // A deterministic permutation derived from the salt.
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = ((salt as usize).wrapping_mul(2654435761).wrapping_add(i * 40503)) % (i + 1);
            perm.swap(i, j);
        }
        // permuted[.., k] = original[.., perm[k]]
        let permuted = m.submatrix(&(0..m.n_genes()).collect::<Vec<_>>(), &perm).unwrap();

        let a = mine(&m, &params).unwrap();
        let b = mine(&permuted, &params).unwrap();
        // Map the permuted clusters' condition ids back to original ids.
        let b_mapped: Vec<_> = b
            .into_iter()
            .map(|mut c| {
                for cond in &mut c.chain {
                    *cond = perm[*cond];
                }
                c
            })
            .collect();
        // Tied clusters (|pX| == |nX|) are resolved by condition-id order
        // (the paper's arbitrary tie-break), and the coherence constraint is
        // evaluated on the representative orientation's baseline pair — so
        // tied clusters legitimately depend on the column labeling. Only the
        // majority-oriented clusters must be invariant.
        let canon = |c: &regcluster_core::RegCluster| {
            (c.chain.clone(), c.p_members.clone(), c.n_members.clone())
        };
        let mut ka: Vec<_> = a
            .iter()
            .filter(|c| c.p_members.len() > c.n_members.len())
            .map(canon)
            .collect();
        let mut kb: Vec<_> = b_mapped
            .iter()
            .filter(|c| c.p_members.len() > c.n_members.len())
            .map(canon)
            .collect();
        ka.sort();
        kb.sort();
        prop_assert_eq!(ka, kb);
    }
}
