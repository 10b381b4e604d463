//! Differential testing: a brute-force reference implementation of the
//! paper's algorithm semantics, with **no** RWave index, **no** candidate
//! generation shortcuts and **no** subtree prunings — just the definition:
//!
//! * a chain extension is any condition whose (signed) step from the chain
//!   tail exceeds the member's `γ_i` **and** from which a chain of `MinC`
//!   conditions is still reachable (the per-gene MinC filter the paper's
//!   step 5 applies via pruning (2); it is part of the semantics because it
//!   runs *before* the sliding window and can change window boundaries);
//! * from chain length 2 on, members are sorted by the H-score of the new
//!   step and partitioned into maximal ε-windows of ≥ MinG genes (windows
//!   found here by naive quadratic search, independent of the library's
//!   implementation);
//! * a node outputs when the chain has ≥ MinC conditions, ≥ MinG member
//!   genes and is representative (`|pX| > |nX|`, ties by chain-head id);
//!   outputs are deduplicated by (chain, gene set).
//!
//! The reference explores redundant subtrees instead of pruning them
//! (prunings (1), (3a), (3b) only skip work that cannot produce new
//! output), so equality of output *sets* checks both the miner's soundness
//! and its completeness, including every pruning rule. The engine's thread
//! count is one more input: every case is mined at 1, 2 and 4 workers.

use proptest::prelude::*;

use regcluster::core::{mine, MineRequest, Miner, MiningParams, RegCluster};
use regcluster::datagen::running_example;
use regcluster::matrix::ExpressionMatrix;

#[derive(Clone, Copy, PartialEq)]
enum Dir {
    Fwd,
    Bwd,
}

#[derive(Clone, Copy)]
struct Member {
    gene: usize,
    dir: Dir,
    denom: f64,
}

struct Reference<'a> {
    matrix: &'a ExpressionMatrix,
    params: &'a MiningParams,
    gammas: Vec<f64>,
    out: std::collections::BTreeSet<(Vec<usize>, Vec<usize>, Vec<usize>)>,
}

impl<'a> Reference<'a> {
    fn new(matrix: &'a ExpressionMatrix, params: &'a MiningParams) -> Self {
        let gammas = (0..matrix.n_genes())
            .map(|g| params.gamma.resolve(matrix.row(g)))
            .collect();
        Self {
            matrix,
            params,
            gammas,
            out: Default::default(),
        }
    }

    /// Longest regulated chain starting at condition `c` for gene `g` in
    /// direction `dir`, by exhaustive DP over conditions.
    fn max_chain(&self, g: usize, c: usize, dir: Dir) -> usize {
        let row = self.matrix.row(g);
        let gamma = self.gammas[g];
        let sign = if matches!(dir, Dir::Fwd) { 1.0 } else { -1.0 };
        // Memoless recursion is fine at these sizes.
        fn rec(row: &[f64], gamma: f64, sign: f64, c: usize) -> usize {
            let mut best = 1;
            for next in 0..row.len() {
                if (row[next] - row[c]) * sign > gamma {
                    best = best.max(1 + rec(row, gamma, sign, next));
                }
            }
            best
        }
        rec(row, gamma, sign, c)
    }

    fn run(&mut self) {
        for root in 0..self.matrix.n_conditions() {
            let mut members = Vec::new();
            for g in 0..self.matrix.n_genes() {
                if self.max_chain(g, root, Dir::Fwd) >= self.params.min_conds {
                    members.push(Member {
                        gene: g,
                        dir: Dir::Fwd,
                        denom: 0.0,
                    });
                }
                if self.max_chain(g, root, Dir::Bwd) >= self.params.min_conds {
                    members.push(Member {
                        gene: g,
                        dir: Dir::Bwd,
                        denom: 0.0,
                    });
                }
            }
            let mut chain = vec![root];
            self.recurse(&mut chain, &members);
        }
    }

    fn recurse(&mut self, chain: &mut Vec<usize>, members: &[Member]) {
        // Output check (no pruning: also recurse on hopeless nodes).
        let n_fwd = members.iter().filter(|m| matches!(m.dir, Dir::Fwd)).count();
        let n_bwd = members.len() - n_fwd;
        let distinct = {
            let mut genes: Vec<usize> = members.iter().map(|m| m.gene).collect();
            genes.sort_unstable();
            genes.dedup();
            genes.len()
        };
        if chain.len() >= self.params.min_conds
            && distinct >= self.params.min_genes
            && (n_fwd > n_bwd || (n_fwd == n_bwd && chain[0] < chain[1]))
        {
            let mut p: Vec<usize> = members
                .iter()
                .filter(|m| matches!(m.dir, Dir::Fwd))
                .map(|m| m.gene)
                .collect();
            let mut n: Vec<usize> = members
                .iter()
                .filter(|m| matches!(m.dir, Dir::Bwd))
                .map(|m| m.gene)
                .collect();
            p.sort_unstable();
            n.sort_unstable();
            self.out.insert((chain.clone(), p, n));
        }

        let last = *chain.last().expect("chain non-empty");
        let need = self.params.min_conds.saturating_sub(chain.len());
        for c_i in 0..self.matrix.n_conditions() {
            if chain.contains(&c_i) {
                continue;
            }
            // Member filter: regulated step + MinC reachability.
            let mut xs: Vec<Member> = Vec::new();
            for m in members {
                let row = self.matrix.row(m.gene);
                let gamma = self.gammas[m.gene];
                let sign = if matches!(m.dir, Dir::Fwd) { 1.0 } else { -1.0 };
                let step = row[c_i] - row[last];
                if step * sign <= gamma {
                    continue;
                }
                if self.max_chain(m.gene, c_i, m.dir) < need {
                    continue;
                }
                let mut next = *m;
                if chain.len() == 1 {
                    next.denom = step;
                }
                xs.push(next);
            }
            if xs.is_empty() {
                continue;
            }
            if chain.len() == 1 {
                chain.push(c_i);
                self.recurse(chain, &xs);
                chain.pop();
                continue;
            }
            // H-score windows, naive maximality search.
            let mut scored: Vec<(f64, Member)> = xs
                .iter()
                .map(|m| {
                    let row = self.matrix.row(m.gene);
                    ((row[c_i] - row[last]) / m.denom, *m)
                })
                .collect();
            scored.sort_by(|a, b| a.0.total_cmp(&b.0));
            let hs: Vec<f64> = scored.iter().map(|s| s.0).collect();
            let eps = self.params.epsilon;
            let n = hs.len();
            for s in 0..n {
                for e in s + 1..=n {
                    let ok = hs[e - 1] - hs[s] <= eps;
                    let left_max = s == 0 || hs[e - 1] - hs[s - 1] > eps;
                    let right_max = e == n || hs[e] - hs[s] > eps;
                    if ok && left_max && right_max && e - s >= self.params.min_genes {
                        let child: Vec<Member> = scored[s..e].iter().map(|x| x.1).collect();
                        chain.push(c_i);
                        self.recurse(chain, &child);
                        chain.pop();
                    }
                }
            }
        }
    }
}

fn reference_mine(matrix: &ExpressionMatrix, params: &MiningParams) -> Vec<RegCluster> {
    let mut r = Reference::new(matrix, params);
    r.run();
    r.out
        .into_iter()
        .map(|(chain, p_members, n_members)| RegCluster {
            chain,
            p_members,
            n_members,
        })
        .collect()
}

/// The library's output through the engine at `threads` workers.
fn engine_mine(
    matrix: &ExpressionMatrix,
    params: &MiningParams,
    threads: usize,
) -> Vec<RegCluster> {
    let miner = Miner::new(matrix, params).expect("valid mining input");
    let request = MineRequest::new(&miner).threads(threads);
    request.collect().expect("run completes").0.clusters
}

fn canonical(mut clusters: Vec<RegCluster>) -> Vec<(Vec<usize>, Vec<usize>, Vec<usize>)> {
    clusters.sort_by(|a, b| a.chain.cmp(&b.chain));
    clusters
        .into_iter()
        .map(|c| (c.chain, c.p_members, c.n_members))
        .collect()
}

#[test]
fn reference_agrees_on_running_example() {
    let m = running_example();
    for (min_g, min_c, gamma, eps) in [
        (3, 5, 0.15, 0.1),
        (2, 4, 0.1, 0.2),
        (2, 3, 0.05, 0.5),
        (3, 3, 0.0, 0.05),
        (2, 2, 0.2, 1.0),
    ] {
        let params = MiningParams::new(min_g, min_c, gamma, eps).unwrap();
        let slow = canonical(reference_mine(&m, &params));
        for threads in [1, 2, 4] {
            let fast = canonical(engine_mine(&m, &params, threads));
            assert_eq!(fast, slow, "divergence at {params:?}, threads = {threads}");
        }
    }
}

#[test]
#[ignore = "extended differential fuzz; run with --ignored in release mode"]
fn reference_agrees_on_larger_random_matrices() {
    // A deterministic sweep over bigger shapes than the quick proptest
    // covers (the reference is exponential, so this stays out of the
    // default suite).
    let mut failures = Vec::new();
    for seed in 0u64..40 {
        let n_genes = 3 + (seed as usize % 5); // 3..=7
        let n_conds = 4 + (seed as usize % 3); // 4..=6
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % 2_000) as f64 / 100.0 - 10.0
        };
        let values: Vec<f64> = (0..n_genes * n_conds).map(|_| next()).collect();
        let m = ExpressionMatrix::from_flat_unlabeled(n_genes, n_conds, values).unwrap();
        let gamma = (seed % 5) as f64 * 0.08;
        let eps = (seed % 7) as f64 * 0.1;
        let params = MiningParams::new(2, 3, gamma, eps).unwrap();
        let fast = canonical(mine(&m, &params).unwrap());
        let slow = canonical(reference_mine(&m, &params));
        if fast != slow {
            failures.push(seed);
        }
    }
    assert!(failures.is_empty(), "divergent seeds: {failures:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn reference_agrees_on_random_matrices(
        n_genes in 2usize..6,
        n_conds in 3usize..6,
        values in prop::collection::vec(-10.0f64..10.0, 36),
        gamma in 0.0f64..0.4,
        eps in 0.0f64..0.6,
        min_g in 1usize..4,
        min_c in 2usize..4,
        threads in prop::sample::select(vec![1usize, 2, 4]),
    ) {
        let vals: Vec<f64> = values[..n_genes * n_conds].to_vec();
        let m = ExpressionMatrix::from_flat_unlabeled(n_genes, n_conds, vals).unwrap();
        let params = MiningParams::new(min_g, min_c, gamma, eps).unwrap();
        let fast = canonical(engine_mine(&m, &params, threads));
        let slow = canonical(reference_mine(&m, &params));
        prop_assert_eq!(fast, slow);
    }
}
