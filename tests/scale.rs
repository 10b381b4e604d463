//! Large-scale smoke tests, ignored by default (run with
//! `cargo test --release -- --ignored`). These exercise the sizes the
//! paper's Figure 7 sweeps at their upper ends and the memory behaviour of
//! the parallel driver.

use regcluster::core::{mine, MineRequest, Miner, MiningParams};
use regcluster::datagen::{generate, SyntheticConfig};

#[test]
#[ignore = "multi-second release-mode scale test"]
fn ten_thousand_genes_mine_in_reasonable_time() {
    let cfg = SyntheticConfig {
        n_genes: 10_000,
        ..SyntheticConfig::default()
    };
    let data = generate(&cfg).unwrap();
    let params = MiningParams::new(100, 6, 0.1, 0.01).unwrap();
    let start = std::time::Instant::now();
    let clusters = mine(&data.matrix, &params).unwrap();
    let secs = start.elapsed().as_secs_f64();
    assert!(secs < 120.0, "mining took {secs}s");
    for c in clusters.iter().take(5) {
        c.validate(&data.matrix, &params).unwrap();
    }
}

#[test]
#[ignore = "multi-second release-mode scale test"]
fn parallel_matches_sequential_at_scale() {
    let cfg = SyntheticConfig {
        n_genes: 4000,
        ..SyntheticConfig::default()
    };
    let data = generate(&cfg).unwrap();
    let params = MiningParams::new(40, 6, 0.1, 0.01).unwrap();
    let seq = mine(&data.matrix, &params).unwrap();
    let miner = Miner::new(&data.matrix, &params).unwrap();
    let (par, _) = MineRequest::new(&miner).threads(8).collect().unwrap();
    assert_eq!(seq, par.clusters);
}

#[test]
#[ignore = "multi-second release-mode scale test"]
fn wide_matrix_many_conditions() {
    let cfg = SyntheticConfig {
        n_conds: 60,
        ..SyntheticConfig::default()
    };
    let data = generate(&cfg).unwrap();
    let params = MiningParams::new(30, 6, 0.1, 0.01).unwrap();
    let start = std::time::Instant::now();
    let clusters = mine(&data.matrix, &params).unwrap();
    assert!(start.elapsed().as_secs_f64() < 120.0);
    for c in clusters.iter().take(5) {
        c.validate(&data.matrix, &params).unwrap();
    }
}
