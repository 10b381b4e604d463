//! Integration tests of the parallel mining engine: determinism across
//! thread counts, observer statistics, sinks, cancellation, and worker-panic
//! capture.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use proptest::prelude::*;

use regcluster_core::{
    mine, CappedSink, CoreError, MineControl, MineReport, MineRequest, Miner, MiningParams,
    MiningStats, RegCluster, StreamingSink, SyncMineObserver, VecSink,
};
use regcluster_matrix::ExpressionMatrix;

/// A small random matrix plus mining parameters (mirrors the strategy in
/// `properties.rs`).
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

/// The Table 1 running example of the paper.
fn running_example() -> (ExpressionMatrix, MiningParams) {
    let m = ExpressionMatrix::from_rows(
        vec!["g1".into(), "g2".into(), "g3".into()],
        (1..=10).map(|i| format!("c{i}")).collect(),
        vec![
            vec![10.0, -14.5, 15.0, 10.5, 0.0, 14.5, -15.0, 0.0, -5.0, -5.0],
            vec![20.0, 15.0, 15.0, 43.5, 30.0, 44.0, 45.0, 43.0, 35.0, 20.0],
            vec![6.0, -3.8, 8.0, 6.2, 2.0, 7.8, -4.0, 2.0, 0.0, 0.0],
        ],
    )
    .unwrap();
    let params = MiningParams::new(3, 5, 0.15, 0.1).unwrap();
    (m, params)
}

/// Collects a request over every root at `threads` workers.
fn collect(m: &ExpressionMatrix, params: &MiningParams, threads: usize) -> MineReport {
    let miner = Miner::new(m, params).expect("valid params");
    let request = MineRequest::new(&miner).threads(threads);
    request.collect().expect("engine succeeds").0
}

proptest! {
    /// Engine output is bit-identical to the sequential miner for every
    /// thread count, with and without a cluster cap.
    #[test]
    fn engine_matches_sequential_across_thread_counts(
        (m, params) in matrix_strategy(),
        cap in prop_oneof![Just(None), (1usize..4).prop_map(Some)],
    ) {
        let params = match cap {
            Some(c) => params.clone().with_max_clusters(c),
            None => params,
        };
        let seq = mine(&m, &params).expect("sequential mining succeeds");
        for threads in [1usize, 2, 4, 8] {
            let report = collect(&m, &params, threads);
            prop_assert!(!report.truncated);
            prop_assert_eq!(&report.clusters, &seq, "threads = {}", threads);
        }
    }

    /// The merged per-worker statistics equal a sequential observer's totals
    /// at every thread count: first-arrival duplicate pruning keeps the event
    /// multiset invariant (DESIGN.md §7.6).
    #[test]
    fn engine_stats_match_sequential((m, params) in matrix_strategy()) {
        let mut seq_stats = MiningStats::default();
        regcluster_core::mine_with_observer(&m, &params, &mut seq_stats)
            .expect("sequential mining succeeds");
        for threads in [1usize, 2, 4, 8] {
            let report = collect(&m, &params, threads);
            prop_assert_eq!(&report.stats, &seq_stats, "threads = {}", threads);
        }
    }

    /// Streaming to a [`VecSink`] delivers exactly the pre-finalize cluster
    /// set: the finalized engine output is a subset, and every streamed
    /// cluster is distinct.
    #[test]
    fn sink_streams_the_full_cluster_set((m, params) in matrix_strategy()) {
        let sink = VecSink::new();
        let miner = Miner::new(&m, &params).expect("valid params");
        let (stream, _) = MineRequest::new(&miner)
            .threads(4)
            .run(&sink)
            .expect("streaming succeeds");
        prop_assert!(!stream.truncated);
        prop_assert!(!stream.stopped_by_sink);
        let mut streamed = sink.into_clusters();
        streamed.sort_by(|a, b| {
            (&a.chain, &a.p_members, &a.n_members).cmp(&(&b.chain, &b.p_members, &b.n_members))
        });
        let before = streamed.len();
        streamed.dedup();
        prop_assert_eq!(before, streamed.len(), "sink received duplicates");

        let finalized = mine(&m, &params).expect("sequential mining succeeds");
        for c in &finalized {
            prop_assert!(streamed.contains(c), "finalized cluster missing from stream");
        }
    }
}

#[test]
fn engine_finds_running_example_on_every_thread_count() {
    let (m, params) = running_example();
    for threads in [1usize, 2, 4, 8] {
        let report = collect(&m, &params, threads);
        assert_eq!(report.clusters.len(), 1, "threads = {threads}");
        let c = &report.clusters[0];
        assert_eq!(c.chain, vec![6, 8, 4, 0, 2]);
        assert_eq!(c.p_members, vec![0, 2]);
        assert_eq!(c.n_members, vec![1]);
    }
}

/// An observer that panics as soon as any cluster is emitted.
struct PanickingObserver;

impl SyncMineObserver for PanickingObserver {
    fn cluster_emitted(&self, _cluster: &RegCluster) {
        panic!("observer exploded");
    }
}

#[test]
fn panicking_observer_surfaces_as_worker_panic_error() {
    let (m, params) = running_example();
    let miner = Miner::new(&m, &params).unwrap();
    for threads in [1usize, 4] {
        let err = MineRequest::new(&miner)
            .threads(threads)
            .observer(&PanickingObserver)
            .collect()
            .expect_err("worker panic must surface as an error");
        match err {
            CoreError::WorkerPanic(msg) => {
                assert!(msg.contains("observer exploded"), "{msg}")
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
    }
}

#[test]
fn zero_deadline_reports_truncation_without_panicking() {
    let (m, params) = running_example();
    let miner = Miner::new(&m, &params).unwrap();
    let control = MineControl::with_deadline(Duration::ZERO);
    let (report, _) = MineRequest::new(&miner)
        .threads(4)
        .control(&control)
        .collect()
        .expect("an expired deadline is not an engine error");
    assert!(report.truncated);
    assert!(report.clusters.is_empty());
    match report.into_result() {
        Err(CoreError::Cancelled) => {}
        other => panic!("expected Err(Cancelled), got {other:?}"),
    }
}

#[test]
fn cancelled_control_stops_the_run() {
    let (m, params) = running_example();
    let miner = Miner::new(&m, &params).unwrap();
    let control = MineControl::new();
    control.cancel();
    let request = MineRequest::new(&miner).threads(2).control(&control);
    let (report, _) = request.collect().unwrap();
    assert!(report.truncated);
    assert!(report.clusters.is_empty());
}

#[test]
fn capped_sink_stops_mining_cooperatively() {
    let (m, params) = running_example();
    // Cap below the (single) emitted cluster count: one accepted cluster and
    // the engine must stop by sink, not by exhaustion.
    let miner = Miner::new(&m, &params).unwrap();
    let sink = CappedSink::new(1);
    let (stream, _) = MineRequest::new(&miner).threads(2).run(&sink).unwrap();
    assert!(stream.stopped_by_sink);
    assert_eq!(sink.into_clusters().len(), 1);
}

#[test]
fn streaming_sink_delivers_clusters_through_a_channel() {
    let (m, params) = running_example();
    let miner = Miner::new(&m, &params).unwrap();
    let (sink, rx) = StreamingSink::channel(16);
    let stream = std::thread::scope(|scope| {
        let consumer = scope.spawn(move || rx.into_iter().collect::<Vec<_>>());
        let (stream, _) = MineRequest::new(&miner).threads(2).run(&sink).unwrap();
        drop(sink);
        let received = consumer.join().unwrap();
        assert_eq!(received.len(), 1);
        assert_eq!(received[0].chain, vec![6, 8, 4, 0, 2]);
        stream
    });
    assert!(!stream.truncated);
    assert!(!stream.stopped_by_sink);
}

#[test]
fn cancellation_interrupts_a_send_blocked_on_a_stalled_receiver() {
    let (m, params) = running_example();
    let miner = Miner::new(&m, &params).unwrap();
    let control = MineControl::new();
    // Capacity 0 and a receiver that never drains: the emitting worker
    // blocks inside the sink until the cancellation poll notices the stop.
    // Without `with_control`, this test would hang forever.
    let (sink, rx) = StreamingSink::channel(0);
    let sink = sink.with_control(control.clone());
    let stream = std::thread::scope(|scope| {
        let canceller = control.clone();
        scope.spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            canceller.cancel();
        });
        let request = MineRequest::new(&miner).threads(2).control(&control);
        request.run(&sink).unwrap().0
    });
    drop(rx);
    assert!(
        stream.truncated,
        "a blocked send must surface as truncation"
    );
    assert!(!stream.stopped_by_sink, "cancellation is not a sink stop");
}

/// A stats observer shared by all workers, counting through atomics — the
/// user-facing `SyncMineObserver` path, as opposed to the engine's internal
/// per-worker accumulators.
#[derive(Default)]
struct AtomicCounts {
    nodes: AtomicUsize,
    emitted: AtomicUsize,
    pruned: AtomicUsize,
}

impl SyncMineObserver for AtomicCounts {
    fn node_entered(&self, _chain: &[usize], _n_p: usize, _n_n: usize) {
        self.nodes.fetch_add(1, Ordering::Relaxed);
    }
    fn pruned(&self, _chain: &[usize], rule: regcluster_core::PruneRule) {
        // MiningStats deliberately carries no MinConds field (serialized
        // shape stability); skip it so the totals below stay comparable.
        if rule != regcluster_core::PruneRule::MinConds {
            self.pruned.fetch_add(1, Ordering::Relaxed);
        }
    }
    fn cluster_emitted(&self, _cluster: &RegCluster) {
        self.emitted.fetch_add(1, Ordering::Relaxed);
    }
}

#[test]
fn user_observer_sees_the_same_event_totals_as_the_report() {
    let (m, params) = running_example();
    let miner = Miner::new(&m, &params).unwrap();
    let counts = AtomicCounts::default();
    let request = MineRequest::new(&miner).threads(4).observer(&counts);
    let (report, _) = request.collect().unwrap();
    assert_eq!(counts.nodes.load(Ordering::Relaxed), report.stats.nodes);
    assert_eq!(counts.emitted.load(Ordering::Relaxed), report.stats.emitted);
    assert_eq!(
        counts.pruned.load(Ordering::Relaxed),
        report.stats.pruned_min_genes
            + report.stats.pruned_few_p
            + report.stats.pruned_duplicate
            + report.stats.pruned_coherence
    );
}
