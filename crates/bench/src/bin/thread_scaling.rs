//! Thread-scaling ablation of the work-stealing mining engine against the
//! old static root split, which [`mine_static_roots`] emulates.
//!
//! Two workloads:
//!
//! * `fig7` — the paper's Figure 7 default (3000 genes × 30 conditions,
//!   30 planted clusters), where root subtrees are roughly even;
//! * `skewed` — a single large planted cluster, concentrating most of the
//!   enumeration tree under a handful of roots, the case the static root
//!   split cannot balance.
//!
//! For every (strategy × thread count) point the binary reports wall-clock
//! time and, because wall-clock speedup is meaningless on single-CPU runners,
//! a hardware-independent **load-balance** metric: each worker's share of the
//! enumeration nodes it expanded. `max_share ≈ 1/threads` means the schedule
//! would scale on real cores; `max_share ≈ 1` means one worker did
//! everything. Results go to `results/thread_scaling.json`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;

use regcluster_bench::{mine_static_roots, quick_mode, time, write_json};
use regcluster_core::{MineRequest, Miner, MiningParams, SyncMineObserver};
use regcluster_datagen::{generate, SyntheticConfig};
use regcluster_matrix::ExpressionMatrix;
use serde::Serialize;

/// Counts enumeration nodes per engine worker thread.
#[derive(Default)]
struct PerWorkerNodes {
    counts: Mutex<HashMap<ThreadId, usize>>,
}

impl PerWorkerNodes {
    fn counts(&self) -> Vec<usize> {
        let counts = self.counts.lock().unwrap_or_else(|e| e.into_inner());
        counts.values().copied().collect()
    }
}

impl SyncMineObserver for PerWorkerNodes {
    fn node_entered(&self, _chain: &[usize], _n_p: usize, _n_n: usize) {
        *self
            .counts
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entry(std::thread::current().id())
            .or_insert(0) += 1;
    }
}

/// Counts the enumeration nodes of one static-split worker.
#[derive(Default)]
struct NodeCount(AtomicUsize);

impl SyncMineObserver for NodeCount {
    fn node_entered(&self, _chain: &[usize], _n_p: usize, _n_n: usize) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

/// The busiest worker's fraction of all nodes.
fn max_share(counts: &[usize]) -> f64 {
    let total: usize = counts.iter().sum();
    let busiest = counts.iter().copied().max().unwrap_or(total);
    busiest as f64 / total.max(1) as f64
}

#[derive(Serialize)]
struct Point {
    workload: &'static str,
    strategy: &'static str,
    threads: usize,
    runtime_s: f64,
    n_clusters: usize,
    /// Fraction of enumeration nodes expanded by the busiest worker
    /// (1/threads = perfectly balanced, 1.0 = serial).
    max_worker_share: f64,
}

#[derive(Serialize)]
struct Output {
    host_cpus: usize,
    repetitions: usize,
    points: Vec<Point>,
}

fn run_point(
    workload: &'static str,
    m: &ExpressionMatrix,
    params: &MiningParams,
    strategy: &'static str,
    threads: usize,
    reps: usize,
) -> Point {
    let mut total = 0.0;
    let mut n_clusters = 0;
    let mut busiest = 0.0f64;
    for _ in 0..reps {
        // Timed from the model build, as a `mine` run is.
        let ((clusters, counts), secs) = time(|| {
            let miner = Miner::new(m, params).expect("valid params");
            if strategy == "stealing" {
                let observer = PerWorkerNodes::default();
                let request = MineRequest::new(&miner)
                    .threads(threads)
                    .observer(&observer);
                let (report, _) = request.collect().expect("mining succeeds");
                (report.clusters, observer.counts())
            } else {
                let workers: Vec<NodeCount> = (0..threads).map(|_| NodeCount::default()).collect();
                let clusters = mine_static_roots(&miner, params, &workers);
                let counts = workers
                    .iter()
                    .map(|w| w.0.load(Ordering::Relaxed))
                    .collect();
                (clusters, counts)
            }
        });
        total += secs;
        n_clusters = clusters.len();
        busiest = busiest.max(max_share(&counts));
    }
    Point {
        workload,
        strategy,
        threads,
        runtime_s: total / reps as f64,
        n_clusters,
        max_worker_share: busiest,
    }
}

fn sweep(
    workload: &'static str,
    m: &ExpressionMatrix,
    params: &MiningParams,
    reps: usize,
    points: &mut Vec<Point>,
) {
    println!(
        "\nworkload {workload}: {} genes × {} conditions",
        m.n_genes(),
        m.n_conditions()
    );
    println!(
        "{:>9}  {:>7}  {:>11}  {:>8}  {:>15}",
        "strategy", "threads", "runtime (s)", "clusters", "max node share"
    );
    for threads in [1usize, 2, 4, 8] {
        for strategy in ["stealing", "static"] {
            let p = run_point(workload, m, params, strategy, threads, reps);
            println!(
                "{:>9}  {:>7}  {:>11.3}  {:>8}  {:>15.3}",
                p.strategy, p.threads, p.runtime_s, p.n_clusters, p.max_worker_share
            );
            points.push(p);
        }
    }
}

fn main() {
    let quick = quick_mode();
    let reps = if quick { 1 } else { 3 };
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "thread-scaling ablation (host has {host_cpus} CPU(s); {reps} repetition(s) per point)"
    );

    let mut points = Vec::new();

    // Figure 7 default workload.
    let fig7 = generate(&SyntheticConfig {
        n_genes: if quick { 1000 } else { 3000 },
        ..SyntheticConfig::default()
    })
    .expect("feasible");
    let min_g = ((0.01 * fig7.matrix.n_genes() as f64).round() as usize).max(2);
    let params = MiningParams::new(min_g, 6, 0.1, 0.01).expect("valid");
    sweep("fig7", &fig7.matrix, &params, reps, &mut points);

    // Skewed workload: one dominant planted cluster with a deep chain plus
    // mild noise (which multiplies near-coherent windows, hence branching).
    // Measured root distribution: the top TWO roots hold ~98% of the ~135k
    // enumeration nodes — the shape a static root split cannot balance
    // beyond 2 effective workers.
    let skewed = generate(&SyntheticConfig {
        n_genes: if quick { 200 } else { 400 },
        n_conds: 16,
        n_clusters: 1,
        avg_cluster_dims: 12,
        cluster_gene_frac: 0.5,
        noise_sigma: 0.05,
        ..SyntheticConfig::default()
    })
    .expect("feasible");
    let params = MiningParams::new(8, 6, 0.1, 0.05).expect("valid");
    sweep("skewed", &skewed.matrix, &params, reps, &mut points);

    write_json(
        "thread_scaling.json",
        &Output {
            host_cpus,
            repetitions: reps,
            points,
        },
    );
}
