//! Boolean-reasoning extraction of shifting patterns (after Michalak &
//! Aguilar-Ruiz, *Boolean reasoning-based biclustering for
//! shifting-pattern extraction*, arXiv:2104.12493).
//!
//! The original casts bicluster induction as prime-implicant search on a
//! discernibility function: two genes are indiscernible on a column set
//! when their expression differences agree there, and every maximal
//! indiscernible block is a shifting pattern. This implementation realizes
//! the same reasoning directly on the Boolean agreement structure:
//!
//! 1. **Discretization** — fix a base column `j` and quantize each cell
//!    against it, `K[g][c] = round((d_gc − d_gj) / δ)`. Two genes carry the
//!    same Boolean "item" at column `c` exactly when their quantized keys
//!    agree, which bounds their pairwise pScore by `2δ`.
//! 2. **Partition refinement** — depth-first search over column sets in
//!    ascending order starting at `j` (any pattern is rooted at its lowest
//!    column): extending a gene set with column `c` partitions it into
//!    agreement groups, each a child state. A state is emitted only when no
//!    further column keeps its full gene set — the closed / prime blocks.
//! 3. **Maximality filter** — blocks found from different bases may nest;
//!    [`retain_maximal`] keeps only the maximal ones.
//!
//! The result is a deterministic, dependency-free miner for *pure
//! shifting* patterns with a tolerance guarantee: every reported cluster
//! is a `2δ`-pCluster (verified in the tests), found through Boolean
//! agreement reasoning rather than pairwise MDS enumeration.

use regcluster_baselines::{retain_maximal, Bicluster};
use regcluster_core::{
    BiclusterEngine, ClusterSink, CoreError, EngineReport, MineControl, MiningStats, RegCluster,
    SyncMineObserver,
};
use regcluster_matrix::ExpressionMatrix;

/// Parameters of the Boolean-reasoning shifting-pattern extractor.
#[derive(Debug, Clone, PartialEq)]
pub struct BooleanParams {
    /// Quantization step δ: differences are binned to multiples of δ, so
    /// members of a reported pattern agree pairwise within `2δ`.
    pub delta: f64,
    /// Minimum genes per pattern.
    pub min_genes: usize,
    /// Minimum columns per pattern.
    pub min_conds: usize,
    /// Bound on DFS states visited across all base columns (a completeness
    /// budget; the run reports `truncated` when it is exhausted).
    pub state_budget: usize,
}

impl Default for BooleanParams {
    fn default() -> Self {
        Self {
            delta: 0.1,
            min_genes: 2,
            min_conds: 2,
            state_budget: 100_000,
        }
    }
}

/// The Boolean-reasoning shifting-pattern extractor as an engine.
#[derive(Debug, Clone)]
pub struct BooleanEngine {
    params: BooleanParams,
}

impl BooleanEngine {
    /// Creates the engine.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParams`] on out-of-domain parameters.
    pub fn new(params: BooleanParams) -> Result<Self, CoreError> {
        if !(params.delta.is_finite() && params.delta > 0.0) {
            return Err(CoreError::InvalidParams(format!(
                "delta must be finite and > 0, got {}",
                params.delta
            )));
        }
        if params.min_genes < 2 || params.min_conds < 2 {
            return Err(CoreError::InvalidParams(
                "patterns need ≥ 2 genes and ≥ 2 columns".into(),
            ));
        }
        Ok(Self { params })
    }
}

impl BiclusterEngine for BooleanEngine {
    fn name(&self) -> &str {
        "boolean"
    }

    fn params_json(&self) -> String {
        format!(
            "{{\"delta\":{},\"min_genes\":{},\"min_conds\":{},\"state_budget\":{}}}",
            self.params.delta,
            self.params.min_genes,
            self.params.min_conds,
            self.params.state_budget
        )
    }

    fn run(
        &self,
        matrix: &ExpressionMatrix,
        sink: &dyn ClusterSink,
        control: &MineControl,
        observer: &dyn SyncMineObserver,
    ) -> Result<EngineReport, CoreError> {
        let p = &self.params;
        let n_genes = matrix.n_genes();
        let n_conds = matrix.n_conditions();
        let mut stats = MiningStats::default();
        let mut truncated = control.is_cancelled();
        let mut out: Vec<Bicluster> = Vec::new();
        let mut budget = p.state_budget;

        if !truncated && n_genes >= p.min_genes && n_conds >= p.min_conds {
            'bases: for j in 0..n_conds {
                if control.is_cancelled() {
                    truncated = true;
                    break;
                }
                // Quantized difference keys relative to base column j.
                let keys: Vec<Vec<i64>> = (0..n_genes)
                    .map(|g| {
                        let row = matrix.row(g);
                        (0..n_conds)
                            .map(|c| ((row[c] - row[j]) / p.delta).round() as i64)
                            .collect()
                    })
                    .collect();
                // DFS over ascending column sets rooted at j. State:
                // (last column, column set, agreeing gene set).
                let mut stack: Vec<(usize, Vec<usize>, Vec<usize>)> =
                    vec![(j, vec![j], (0..n_genes).collect())];
                while let Some((last, cols, genes)) = stack.pop() {
                    if budget == 0 || control.is_cancelled() {
                        truncated = true;
                        break 'bases;
                    }
                    budget -= 1;
                    stats.count_node(cols.len());
                    observer.node_entered(&cols, genes.len(), 0);
                    let mut kept_whole = false;
                    // `c` indexes every gene's key row, not one slice, so
                    // an iterator rewrite would obscure the partitioning.
                    #[allow(clippy::needless_range_loop)]
                    for c in last + 1..n_conds {
                        // Partition the gene set by agreement at column c.
                        let mut groups: Vec<(i64, Vec<usize>)> = Vec::new();
                        for &g in &genes {
                            let k = keys[g][c];
                            match groups.iter_mut().find(|(key, _)| *key == k) {
                                Some((_, members)) => members.push(g),
                                None => groups.push((k, vec![g])),
                            }
                        }
                        for (_, group) in groups {
                            if group.len() < p.min_genes {
                                continue;
                            }
                            if group.len() == genes.len() {
                                kept_whole = true;
                            }
                            let mut next = cols.clone();
                            next.push(c);
                            stack.push((c, next, group));
                        }
                    }
                    // Closed block: no later column keeps the whole set.
                    if !kept_whole && cols.len() >= p.min_conds && genes.len() >= p.min_genes {
                        out.push(Bicluster::new(genes, cols));
                    }
                }
            }
        }

        let mut maximal = retain_maximal(out);
        maximal.sort_by(|a, b| {
            (b.n_genes() * b.n_conds())
                .cmp(&(a.n_genes() * a.n_conds()))
                .then_with(|| a.genes.cmp(&b.genes))
                .then_with(|| a.conds.cmp(&b.conds))
        });

        let mut stopped = false;
        for bc in maximal {
            let cluster = RegCluster {
                chain: bc.conds,
                p_members: bc.genes,
                n_members: Vec::new(),
            };
            observer.cluster_emitted(&cluster);
            stats.emitted += 1;
            if !sink.accept(cluster) {
                stopped = true;
                break;
            }
        }
        Ok(EngineReport {
            n_emitted: stats.emitted,
            truncated,
            stopped_by_sink: stopped,
            stats: Some(stats),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regcluster_core::{NoopObserver, VecSink};

    fn run_engine(m: &ExpressionMatrix, params: BooleanParams) -> (EngineReport, Vec<RegCluster>) {
        let engine = BooleanEngine::new(params).unwrap();
        let sink = VecSink::new();
        let report = engine
            .run(m, &sink, &MineControl::new(), &NoopObserver)
            .unwrap();
        (report, sink.into_clusters())
    }

    #[test]
    fn finds_planted_shifting_family() {
        let base = [1.0f64, 4.0, 2.0, 8.0, 5.0];
        let rows: Vec<Vec<f64>> = vec![
            base.to_vec(),
            base.iter().map(|v| v + 3.0).collect(),
            base.iter().map(|v| v - 2.0).collect(),
            vec![9.0, 0.0, 7.0, 1.0, 3.0], // noise
        ];
        let m = ExpressionMatrix::from_rows(
            (0..4).map(|i| format!("g{i}")).collect(),
            (0..5).map(|i| format!("c{i}")).collect(),
            rows,
        )
        .unwrap();
        let (report, clusters) = run_engine(
            &m,
            BooleanParams {
                delta: 0.01,
                min_genes: 3,
                min_conds: 5,
                ..Default::default()
            },
        );
        assert!(!report.truncated);
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].p_members, vec![0, 1, 2]);
        assert_eq!(clusters[0].chain, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn every_output_is_a_2delta_pcluster_and_maximal() {
        // Deterministic pseudo-random matrix: verify the tolerance
        // guarantee and maximality of everything reported.
        let delta = 0.7;
        let rows: Vec<Vec<f64>> = (0..8)
            .map(|i| {
                (0..6)
                    .map(|j| (((i * 31 + j * 17 + 5) % 23) as f64) / 2.3)
                    .collect()
            })
            .collect();
        let m = ExpressionMatrix::from_rows(
            (0..8).map(|i| format!("g{i}")).collect(),
            (0..6).map(|i| format!("c{i}")).collect(),
            rows,
        )
        .unwrap();
        let (report, clusters) = run_engine(
            &m,
            BooleanParams {
                delta,
                min_genes: 2,
                min_conds: 2,
                ..Default::default()
            },
        );
        assert!(!report.truncated);
        assert!(!clusters.is_empty());
        for cl in &clusters {
            for (ai, &i) in cl.p_members.iter().enumerate() {
                for &j in &cl.p_members[ai + 1..] {
                    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
                    for &c in &cl.chain {
                        let d = m.value(i, c) - m.value(j, c);
                        lo = lo.min(d);
                        hi = hi.max(d);
                    }
                    assert!(
                        hi - lo <= 2.0 * delta + 1e-9,
                        "pair ({i},{j}) spread {}",
                        hi - lo
                    );
                }
            }
        }
        for (i, a) in clusters.iter().enumerate() {
            for (j, b) in clusters.iter().enumerate() {
                if i != j {
                    let genes_sub = a.p_members.iter().all(|g| b.p_members.contains(g));
                    let conds_sub = a.chain.iter().all(|c| b.chain.contains(c));
                    assert!(!(genes_sub && conds_sub), "cluster {i} ⊆ cluster {j}");
                }
            }
        }
    }

    #[test]
    fn golden_output_on_the_running_example() {
        // Pinned behaviour on Table 1 of the paper. The running example is
        // dominated by shifting-AND-scaling structure (which this pure
        // shifting extractor must NOT report); the only pure shifting block
        // at δ = 1.0 is g1/g2 on conditions {c2, c5, c6}, where
        // g1 − g2 = (−29.5, −30, −29.5).
        let m = regcluster_datagen::running_example();
        let (report, clusters) = run_engine(
            &m,
            BooleanParams {
                delta: 1.0,
                min_genes: 2,
                min_conds: 3,
                ..Default::default()
            },
        );
        assert!(!report.truncated);
        assert_eq!(report.n_emitted, clusters.len());
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].p_members, vec![0, 1]);
        assert_eq!(clusters[0].chain, vec![1, 4, 5]);
        assert!(clusters[0].n_members.is_empty());
        let spread = {
            let ds: Vec<f64> = clusters[0]
                .chain
                .iter()
                .map(|&c| m.value(0, c) - m.value(1, c))
                .collect();
            ds.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
                - ds.iter().cloned().fold(f64::INFINITY, f64::min)
        };
        assert!(spread <= 2.0 + 1e-9, "2δ guarantee violated: {spread}");
    }

    #[test]
    fn exhausted_budget_reports_truncated() {
        let rows: Vec<Vec<f64>> = (0..6)
            .map(|i| (0..6).map(|j| ((i * 13 + j * 7) % 11) as f64).collect())
            .collect();
        let m = ExpressionMatrix::from_rows(
            (0..6).map(|i| format!("g{i}")).collect(),
            (0..6).map(|i| format!("c{i}")).collect(),
            rows,
        )
        .unwrap();
        let (report, _) = run_engine(
            &m,
            BooleanParams {
                delta: 5.0,
                state_budget: 3,
                ..Default::default()
            },
        );
        assert!(report.truncated);
    }

    #[test]
    fn precancelled_control_truncates_without_work() {
        let m = regcluster_datagen::running_example();
        let engine = BooleanEngine::new(BooleanParams::default()).unwrap();
        let control = MineControl::new();
        control.cancel();
        let sink = VecSink::new();
        let report = engine.run(&m, &sink, &control, &NoopObserver).unwrap();
        assert!(report.truncated);
        assert_eq!(report.n_emitted, 0);
    }

    #[test]
    fn rejects_invalid_params() {
        assert!(BooleanEngine::new(BooleanParams {
            delta: 0.0,
            ..Default::default()
        })
        .is_err());
        assert!(BooleanEngine::new(BooleanParams {
            min_genes: 1,
            ..Default::default()
        })
        .is_err());
    }
}
