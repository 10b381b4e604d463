//! Allocation profile of the mining hot path: allocations-per-node and
//! ns-per-node for the running example and seeded synthetic workloads.
//!
//! A counting global allocator tallies every allocation in the process.
//! Each run is a one-thread [`MineRequest`], which runs its worker on the
//! calling thread, so the delta between two samples is exactly the run's.
//! A run's allocations are its fixed setup (root seeds and buffer growth)
//! plus a few per emitted cluster; none are per node.
//!
//! ```sh
//! cargo run --release -p regcluster-bench --bin alloc_profile
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use regcluster_core::{MineRequest, Miner, MiningParams};
use regcluster_datagen::{generate, running_example, PatternKind, SyntheticConfig};
use regcluster_matrix::ExpressionMatrix;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn snapshot() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

fn profile(label: &str, matrix: &ExpressionMatrix, params: &MiningParams) {
    let miner = Miner::new(matrix, params).expect("valid params");
    let run = || {
        let (a0, b0) = snapshot();
        let t = Instant::now();
        let (report, _) = MineRequest::new(&miner).collect().expect("run completes");
        let elapsed = t.elapsed();
        let (a1, b1) = snapshot();
        (report, a1 - a0, b1 - b0, elapsed)
    };

    // The allocation counts are deterministic across runs; timing is the
    // best of five runs to shrug off scheduler noise.
    let (report, allocs, bytes, mut best_t) = run();
    for _ in 0..4 {
        best_t = best_t.min(run().3);
    }
    let nodes = report.stats.nodes.max(1) as f64;

    println!("workload: {label}");
    println!(
        "  nodes = {}, clusters = {}",
        report.stats.nodes,
        report.clusters.len()
    );
    println!(
        "  {:.3} allocs/node, {:.1} bytes/node, {:.0} ns/node ({} allocs total)",
        allocs as f64 / nodes,
        bytes as f64 / nodes,
        best_t.as_nanos() as f64 / nodes,
        allocs
    );
}

fn main() {
    let m = running_example();
    let params = MiningParams::new(3, 5, 0.15, 0.1).expect("valid");
    profile("running_example (3x10)", &m, &params);

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
    let data = generate(&cfg).expect("feasible");
    let params = MiningParams::new(4, 4, 0.1, 0.05).expect("valid");
    profile("synthetic 100x30 (seed 7)", &data.matrix, &params);

    let cfg = SyntheticConfig {
        n_genes: 1500,
        ..SyntheticConfig::default()
    };
    let data = generate(&cfg).expect("feasible");
    let params = MiningParams::new(15, 6, 0.1, 0.01).expect("valid");
    profile("synthetic 1500x30 (paper defaults)", &data.matrix, &params);
}
