//! Allocation regression tests for the enumeration core.
//!
//! Every mine runs through the work-stealing engine ([`MineRequest`]). At
//! one thread the calling thread is the only worker, and the engine draws
//! all per-node working memory from that worker's grow-only buffers. A run
//! therefore allocates a fixed amount of setup (per-root seed tasks plus
//! the log-many growths of each buffer up to its high-water mark) and then
//! **nothing per enumeration node**: the only other allocations are for
//! the clusters it actually emits. These tests pin that property down with
//! a counting global allocator:
//!
//! * runs of workloads that emit nothing must stay within the setup bound,
//!   even though they explore hundreds of nodes — and on the synthetic
//!   workload the node count exceeds the bound, so a single allocation per
//!   node cannot hide inside it;
//! * runs of emitting workloads may add only a small per-emitted-cluster
//!   budget, independent of the node count;
//! * duplicate probes (pruning rule 3(b)) must allocate nothing — the
//!   interned dedup keys are only materialized for fresh clusters.
//!
//! The counter is thread-local, so the parallel test harness does not
//! perturb the counts, and `try_with` keeps the allocator safe during TLS
//! teardown. It sees the whole run because a one-thread run spawns no
//! thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use regcluster_core::{
    metrics::MINE_NODES_METRIC, MetricsObserver, MineRequest, Miner, MiningParams, MiningStats,
    RegulationThreshold,
};
use regcluster_datagen::{generate, running_example, PatternKind, SyntheticConfig};
use regcluster_matrix::ExpressionMatrix;
use regcluster_obs::MetricsRegistry;

thread_local! {
    /// Number of allocator calls (alloc / realloc / alloc_zeroed) made by
    /// the current thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: delegates every operation to `System`; the counter update cannot
// allocate (Cell<u64> in a const-initialized thread local) and tolerates
// TLS teardown via `try_with`.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns how many allocator calls it made on this thread.
fn count_allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let result = f();
    (ALLOCS.with(Cell::get) - before, result)
}

/// Upper bound on allocator calls per emitted cluster: the `RegCluster`
/// materialization (chain and member vectors), the interned dedup key
/// (arena and bucket growth) and amortized growth of the collecting sink.
/// Deliberately tight — a single stray allocation on the per-node path
/// would blow through it on any workload with more nodes than clusters.
const PER_EMISSION_BUDGET: u64 = 16;

/// Allocator calls per enumeration root: the seed task the engine queues
/// for it — the one-condition chain (1 call) plus the level-1 member list,
/// which grows by doubling from 4 (at most 7 calls for the ≤ 200 members
/// of a 100-gene matrix).
const SETUP_PER_ROOT: u64 = 8;

/// Allocator calls a run makes once, whatever its node count: the dedup
/// shard table, the root queue and the scoped-thread handle, plus the
/// log-many doublings of the worker's grow-only buffers (node scratch,
/// child arena, pending-node arenas and deque) up to their high-water
/// marks. The 100×30 workloads measure 54; the rest is headroom.
const SETUP_FIXED: u64 = 64;

/// The setup allowance of a one-thread run over `n_conds` roots.
fn setup_bound(n_conds: usize) -> u64 {
    SETUP_PER_ROOT * n_conds as u64 + SETUP_FIXED
}

/// The seeded 100×30 synthetic workload also used by the golden-output
/// tests: 6 planted shifting-and-scaling clusters, 30% negative members.
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

/// Mines `matrix` with a one-thread [`MineRequest`] over every root
/// (collected and finalized) and counts the run's allocator calls; building
/// the miner's models is not counted. Returns `(allocs, stats)`.
fn engine_run(matrix: &ExpressionMatrix, params: &MiningParams) -> (u64, MiningStats) {
    let miner = Miner::new(matrix, params).expect("valid mining input");
    let (allocs, report) =
        count_allocs(|| MineRequest::new(&miner).collect().expect("run completes").0);
    // Deallocation is free to happen outside the window.
    (allocs, report.stats)
}

#[test]
fn warmed_zero_emission_run_allocates_nothing_running_example() {
    // MinC = 6 exceeds the running example's unique 5-condition cluster, so
    // the search explores its full tree but emits nothing.
    let m = running_example();
    let params = MiningParams::new(3, 6, 0.15, 0.1).unwrap();
    let (allocs, stats) = engine_run(&m, &params);
    assert!(stats.nodes > 0, "workload must explore nodes");
    assert_eq!(stats.emitted, 0, "workload must emit nothing");
    let bound = setup_bound(m.n_conditions());
    assert!(
        allocs <= bound,
        "enumeration must allocate only its setup: {allocs} allocs > {bound} \
         ({} nodes explored)",
        stats.nodes
    );
}

#[test]
fn warmed_zero_emission_run_allocates_nothing_synthetic() {
    // MinC = 8 exceeds the deepest chain this workload supports (7
    // conditions), so hundreds of nodes are explored with zero emissions.
    // Much larger MinC values would also starve *exploration* through the
    // per-gene extensibility pruning and defeat the test.
    let m = synthetic_100x30();
    let params = MiningParams::new(4, 8, 0.1, 0.05).unwrap();
    let (allocs, stats) = engine_run(&m, &params);
    assert_eq!(stats.emitted, 0, "workload must emit nothing");
    let bound = setup_bound(m.n_conditions());
    assert!(
        stats.nodes as u64 > bound,
        "workload must explore more nodes ({}) than the setup bound ({bound}), \
         so one allocation per node cannot pass",
        stats.nodes
    );
    assert!(
        allocs <= bound,
        "enumeration must allocate only its setup: {allocs} allocs > {bound} \
         ({} nodes explored)",
        stats.nodes
    );
}

#[test]
fn warmed_zero_emission_run_with_metrics_observer_allocates_nothing() {
    // The telemetry observer must be free to leave attached in production:
    // its pre-registered counter/histogram handles are plain atomic cells,
    // so recording the run's node, prune and depth counts when it returns
    // (as `regcluster mine` does) adds zero allocations.
    let m = synthetic_100x30();
    let params = MiningParams::new(4, 8, 0.1, 0.05).unwrap();
    let miner = Miner::new(&m, &params).expect("valid mining input");
    let registry = MetricsRegistry::new();
    let observer = MetricsObserver::register(&registry);
    let nodes_handle = registry.counter(
        MINE_NODES_METRIC,
        "Enumeration-tree nodes entered (partial representative chains expanded).",
        &[],
    );
    let (allocs, report) = count_allocs(|| {
        let request = MineRequest::new(&miner).observer(&observer);
        let report = request.collect().expect("run completes").0;
        observer.record_run(&report.stats);
        report
    });
    drop(report);
    let nodes_recorded = nodes_handle.get();
    let bound = setup_bound(m.n_conditions());
    assert!(
        nodes_recorded > bound,
        "observer must see more nodes ({nodes_recorded}) than the setup bound ({bound})"
    );
    assert!(
        allocs <= bound,
        "instrumented enumeration must allocate only its setup: {allocs} allocs > \
         {bound} ({nodes_recorded} nodes recorded)"
    );
}

#[test]
fn warmed_emitting_run_allocates_only_per_cluster_running_example() {
    let m = running_example();
    let params = MiningParams::new(3, 5, 0.15, 0.1).unwrap();
    let (allocs, stats) = engine_run(&m, &params);
    assert!(stats.emitted > 0, "workload must emit clusters");
    assert!(
        allocs <= setup_bound(m.n_conditions()) + PER_EMISSION_BUDGET * stats.emitted as u64,
        "allocations must scale with emissions, not nodes: \
         {allocs} allocs for {} clusters over {} nodes",
        stats.emitted,
        stats.nodes
    );
}

#[test]
fn warmed_emitting_run_allocates_only_per_cluster_synthetic() {
    let m = synthetic_100x30();
    let params = MiningParams::new(4, 4, 0.1, 0.05).unwrap();
    let (allocs, stats) = engine_run(&m, &params);
    assert!(stats.emitted > 100, "workload must emit many clusters");
    assert!(
        allocs <= setup_bound(m.n_conditions()) + PER_EMISSION_BUDGET * stats.emitted as u64,
        "allocations must scale with emissions, not nodes: \
         {allocs} allocs for {} clusters over {} nodes",
        stats.emitted,
        stats.nodes
    );
}

#[test]
fn disabled_failpoints_are_allocation_free() {
    // The fault-injection sites stay compiled into production binaries;
    // their disabled steady state must be a branch on a relaxed atomic
    // load — nothing else. Hammer both evaluation flavors with nothing
    // armed and demand literally zero allocator calls.
    let (allocs, _) = count_allocs(|| {
        for _ in 0..100_000 {
            regcluster_failpoint::trigger("engine::worker");
            regcluster_failpoint::io("store::record_write").expect("disarmed site cannot fire");
            regcluster_failpoint::io("checkpoint::save").expect("disarmed site cannot fire");
        }
    });
    assert_eq!(
        allocs, 0,
        "disabled failpoints must not allocate ({allocs} allocs over 300k evaluations)"
    );
}

#[test]
fn warmed_zero_emission_run_allocates_nothing_with_failpoints_linked() {
    // Same zero-allocation property as above, with the failpoint crate
    // linked and explicitly disarmed — proving the instrumented build
    // keeps the allocation-free enumeration guarantee.
    regcluster_failpoint::clear();
    let m = running_example();
    let params = MiningParams::new(3, 6, 0.15, 0.1).unwrap();
    let (allocs, stats) = engine_run(&m, &params);
    assert!(stats.nodes > 0, "workload must explore nodes");
    let bound = setup_bound(m.n_conditions());
    assert!(
        allocs <= bound,
        "failpoint-linked enumeration must allocate only its setup: \
         {allocs} allocs > {bound} ({} nodes explored)",
        stats.nodes
    );
}

#[test]
fn duplicate_probes_allocate_nothing_beyond_fresh_emissions() {
    // The engineered 4×4 matrix from the miner's duplicate-pruning test:
    // two overlapping ε-windows converge to the identical cluster one chain
    // step later, so pruning rule 3(b) fires. A duplicate probe computes
    // its fingerprint over borrowed scratch data and must allocate nothing;
    // only fresh clusters pay for key interning and materialization.
    let m = ExpressionMatrix::from_flat_unlabeled(
        4,
        4,
        vec![
            0.0, 10.0, 14.0, 44.0, //
            0.0, 10.0, 18.0, 28.0, //
            0.0, 10.0, 18.0, 28.0, //
            0.0, 10.0, 22.0, 26.0,
        ],
    )
    .unwrap();
    let params = MiningParams::new(2, 4, 0.0, 0.4)
        .unwrap()
        .with_threshold(RegulationThreshold::Absolute(2.0))
        .unwrap();
    let (allocs, stats) = engine_run(&m, &params);
    assert!(
        stats.pruned_duplicate > 0,
        "duplicate pruning must fire: {stats:?}"
    );
    assert!(stats.emitted > 0);
    assert!(
        allocs <= setup_bound(m.n_conditions()) + PER_EMISSION_BUDGET * stats.emitted as u64,
        "duplicate probes must not allocate: {allocs} allocs for {} fresh \
         clusters and {} duplicate probes",
        stats.emitted,
        stats.pruned_duplicate
    );
}

#[test]
fn unvouched_buckets_allocate_nothing() {
    // At ε = 1e-300 every H-score exceeds 2^50 · ε (a qualified step is
    // never zero), so the ε-cell filter vouches for no bucket and hands
    // every key of every candidate to the sort — its emit-every-key path.
    // Its residue table is grow-only like the rest of the node scratch.
    let m = synthetic_100x30();
    let params = MiningParams::new(4, 8, 0.1, 1e-300).unwrap();
    let (allocs, stats) = engine_run(&m, &params);
    assert_eq!(stats.emitted, 0, "workload must emit nothing");
    // No window forms, so each coherence-pruned candidate sorted its whole
    // bucket of at least MinG keys.
    assert!(
        stats.pruned_coherence > 0 && stats.sorted_keys >= 4 * stats.pruned_coherence,
        "every key of a candidate must reach the sort: {stats:?}"
    );
    let bound = setup_bound(m.n_conditions());
    assert!(
        stats.nodes as u64 > bound,
        "workload must explore more nodes ({}) than the setup bound ({bound})",
        stats.nodes
    );
    assert!(
        allocs <= bound,
        "enumeration must allocate only its setup: {allocs} allocs > {bound} ({stats:?})"
    );
}
