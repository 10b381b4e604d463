//! The generated input and the `mine` flags of each workload.

use std::path::Path;

use regcluster_datagen::SyntheticConfig;

use crate::Workload;

/// A synthetic dataset recipe plus the parameters it is mined with.
#[derive(Debug, Clone)]
pub struct Spec {
    pub data: SyntheticConfig,
    pub min_genes: usize,
    pub min_conds: usize,
    pub gamma: f64,
    pub epsilon: f64,
    pub threads: usize,
}

impl Spec {
    /// The input of `workload`; `seed` only feeds the data generator.
    pub fn for_workload(workload: Workload, seed: u64) -> Spec {
        match workload {
            // The Figure-7 panel at its hardest point: enumeration-bound,
            // and the matrix fits in L2.
            Workload::MineDeep | Workload::Cluster2w => Spec {
                data: SyntheticConfig {
                    n_genes: 3000,
                    n_conds: 40,
                    seed,
                    ..SyntheticConfig::default()
                },
                min_genes: 30,
                min_conds: 6,
                gamma: 0.1,
                epsilon: 0.01,
                threads: 1,
            },
            // Many genes, few conditions: load and index build dominate,
            // and the matrix is larger than L2.
            Workload::MineWide => Spec {
                data: SyntheticConfig {
                    n_genes: 100_000,
                    n_conds: 12,
                    n_clusters: 20,
                    cluster_gene_frac: 0.004,
                    seed,
                    ..SyntheticConfig::default()
                },
                min_genes: 300,
                min_conds: 6,
                gamma: 0.15,
                epsilon: 0.02,
                threads: 2,
            },
            // Low thresholds over a small matrix: thousands of small
            // clusters, the store the serving workload reads.
            Workload::ServeMixed => Spec {
                data: SyntheticConfig {
                    n_genes: 1000,
                    n_conds: 30,
                    n_clusters: 10,
                    avg_cluster_dims: 8,
                    cluster_gene_frac: 0.03,
                    seed,
                    ..SyntheticConfig::default()
                },
                min_genes: 4,
                min_conds: 4,
                gamma: 0.1,
                epsilon: 0.05,
                threads: 2,
            },
        }
    }

    /// `regcluster mine` arguments that read `input` and seal `store`.
    pub fn mine_args(&self, input: &Path, store: &Path) -> Vec<String> {
        let path = |p: &Path| p.to_string_lossy().into_owned();
        vec![
            "mine".into(),
            "--input".into(),
            path(input),
            "--min-genes".into(),
            self.min_genes.to_string(),
            "--min-conds".into(),
            self.min_conds.to_string(),
            "--gamma".into(),
            self.gamma.to_string(),
            "--epsilon".into(),
            self.epsilon.to_string(),
            "--threads".into(),
            self.threads.to_string(),
            "--store".into(),
            path(store),
        ]
    }
}
