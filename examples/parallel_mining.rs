//! Parallel mining with the work-stealing engine: deterministic multi-thread
//! output, a wall-clock deadline, and streaming progress through a
//! thread-safe observer.
//!
//! Mines a mid-sized synthetic dataset on four worker threads, shows that
//! the result is bit-identical to a one-thread `mine`, and demonstrates the
//! cancellation path by re-running under an already-expired deadline.
//!
//! Run with `cargo run --release --example parallel_mining`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use regcluster::core::{
    mine, MineControl, MineRequest, Miner, MiningParams, RegCluster, SyncMineObserver,
};
use regcluster::datagen::{generate, SyntheticConfig};

/// A shared observer: every worker thread reports through `&self`.
#[derive(Default)]
struct EmissionCounter {
    emitted: AtomicUsize,
}

impl SyncMineObserver for EmissionCounter {
    fn cluster_emitted(&self, _cluster: &RegCluster) {
        self.emitted.fetch_add(1, Ordering::Relaxed);
    }
}

fn main() {
    let data = generate(&SyntheticConfig {
        n_genes: 500,
        ..SyntheticConfig::default()
    })
    .expect("feasible configuration");
    let params = MiningParams::new(5, 6, 0.1, 0.01).expect("valid parameters");

    // The engine's output is bit-identical at any thread count (`mine` is a
    // one-thread run), so parallelism is a pure implementation detail.
    let one_thread = mine(&data.matrix, &params).expect("mining succeeds");
    // Building the per-gene models is done once; every request below
    // enumerates over the same prepared miner.
    let miner = Miner::new(&data.matrix, &params).expect("valid parameters");
    let (report, _) = MineRequest::new(&miner)
        .threads(4)
        .collect()
        .expect("engine mining succeeds");
    assert_eq!(report.clusters, one_thread);
    println!(
        "4 threads found the same {} reg-clusters as one thread \
         ({} enumeration nodes)",
        report.clusters.len(),
        report.stats.nodes
    );

    // Observers are shared by all workers; per-worker statistics are merged
    // at join, so the report's totals match a one-thread run.
    let counter = EmissionCounter::default();
    let (report, _) = MineRequest::new(&miner)
        .threads(4)
        .observer(&counter)
        .collect()
        .expect("engine mining succeeds");
    assert_eq!(
        counter.emitted.load(Ordering::Relaxed),
        report.stats.emitted
    );
    println!(
        "shared observer saw every emission: {} clusters",
        counter.emitted.load(Ordering::Relaxed)
    );

    // A wall-clock deadline stops the run cooperatively: the report is
    // flagged truncated instead of returning an error, and `into_result`
    // converts that flag into `CoreError::Cancelled` for callers that
    // require complete output.
    let control = MineControl::with_deadline(Duration::ZERO);
    let (report, _) = MineRequest::new(&miner)
        .threads(4)
        .control(&control)
        .collect()
        .expect("an expired deadline is not an engine error");
    assert!(report.truncated);
    println!(
        "expired deadline: truncated partial result with {} clusters, \
         into_result() = {:?}",
        report.clusters.len(),
        report.into_result().expect_err("truncated reports reject")
    );
}
