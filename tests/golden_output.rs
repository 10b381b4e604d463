//! Golden-output regression tests for the mining core.
//!
//! The JSON files under `tests/golden/` hold the exact cluster sets produced
//! by the miner before the allocation-free enumeration refactor. Every
//! refactor of the hot path must keep the output bit-identical — sequential
//! and through the engine at thread counts 1–8.
//!
//! Regenerate (only when the *model* legitimately changes, never to paper
//! over a miner regression) with:
//!
//! ```sh
//! REGCLUSTER_REGEN_GOLDEN=1 cargo test --test golden_output
//! ```

use std::path::PathBuf;

use regcluster_core::{mine, MineRequest, Miner, MiningParams, RegCluster};
use regcluster_datagen::{generate, running_example, PatternKind, SyntheticConfig};
use regcluster_matrix::ExpressionMatrix;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// The seeded 100×30 synthetic workload: 6 planted shifting-and-scaling
/// clusters (30% negatively co-regulated members) in a 100-gene matrix.
fn synthetic_100x30() -> ExpressionMatrix {
    let cfg = SyntheticConfig {
        n_genes: 100,
        n_conds: 30,
        n_clusters: 6,
        avg_cluster_dims: 6,
        cluster_gene_frac: 0.06,
        neg_fraction: 0.3,
        plant_gamma: 0.15,
        pattern: PatternKind::ShiftScale,
        value_max: 10.0,
        noise_sigma: 0.0,
        seed: 7,
    };
    generate(&cfg).expect("config is feasible").matrix
}

fn check_against_golden(name: &str, matrix: &ExpressionMatrix, params: &MiningParams) {
    let seq = mine(matrix, params).expect("sequential mining succeeds");
    let path = golden_path(name);
    if std::env::var_os("REGCLUSTER_REGEN_GOLDEN").is_some() {
        let json = serde_json::to_string_pretty(&seq).expect("clusters serialize");
        std::fs::create_dir_all(path.parent().unwrap()).expect("golden dir");
        std::fs::write(&path, json).expect("golden file written");
    }
    let raw = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); see module docs",
            path.display()
        )
    });
    let golden: Vec<RegCluster> = serde_json::from_str(&raw).expect("golden file parses");
    assert!(
        !golden.is_empty(),
        "golden workload {name} must be non-trivial"
    );
    assert_eq!(seq, golden, "sequential output drifted from golden {name}");
    let miner = Miner::new(matrix, params).expect("valid params");
    for threads in 1..=8usize {
        let (report, _) = MineRequest::new(&miner)
            .threads(threads)
            .collect()
            .expect("engine succeeds");
        assert!(!report.truncated);
        assert_eq!(
            report.clusters, golden,
            "engine output drifted from golden {name} (threads = {threads})"
        );
    }
}

#[test]
fn running_example_matches_golden_at_every_thread_count() {
    let m = running_example();
    let params = MiningParams::new(3, 5, 0.15, 0.1).expect("valid");
    check_against_golden("running_example.json", &m, &params);
}

#[test]
fn synthetic_100x30_matches_golden_at_every_thread_count() {
    let m = synthetic_100x30();
    let params = MiningParams::new(4, 4, 0.1, 0.05).expect("valid");
    check_against_golden("synthetic_100x30.json", &m, &params);
}
