//! Integration tests of the parallel mining engine: determinism across
//! thread counts, observer statistics, sinks, cancellation, and worker-panic
//! capture.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use proptest::prelude::*;

use regcluster_core::{
    mine, CappedSink, CoreError, MineControl, MineReport, MineRequest, Miner, MiningParams,
    PruneRule, RegCluster, StreamingSink, SyncMineObserver, VecSink,
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

/// Small matrices whose rows are each either a noisy shifting-and-scaling
/// image of one base profile or an independent draw, so the tree reaches
/// every depth up to the condition count, under random MinG, MinC, γ and
/// ε.
fn oracle_strategy() -> impl Strategy<Value = (ExpressionMatrix, MiningParams)> {
    (2usize..=8, 3usize..=8).prop_flat_map(|(n_genes, n_conds)| {
        let noise = prop::collection::vec(-0.5f64..0.5, n_conds);
        let row = (any::<bool>(), -3.0f64..3.0, -5.0f64..5.0, noise);
        (
            prop::collection::vec(-20.0f64..20.0, n_conds),
            prop::collection::vec(row, n_genes),
            (2usize..=3, 2usize..=n_conds.min(5)),
            (0.0f64..0.5, 0.0f64..1.0),
        )
            .prop_map(move |(base, rows, (min_g, min_c), (gamma, eps))| {
                let values = rows
                    .iter()
                    .flat_map(|(image, scale, shift, noise)| {
                        base.iter().zip(noise).map(move |(&b, &e)| match image {
                            true => scale * b + shift + e,
                            false => 40.0 * e,
                        })
                    })
                    .collect();
                let m = ExpressionMatrix::from_flat_unlabeled(n_genes, n_conds, values)
                    .expect("generated values are finite");
                let params = MiningParams::new(min_g, min_c, gamma, eps).expect("valid params");
                (m, params)
            })
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
    /// Engine output is bit-identical to one-thread [`mine`] for every
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
        let seq = mine(&m, &params).expect("one-thread mining succeeds");
        for threads in [1usize, 2, 4, 8] {
            let report = collect(&m, &params, threads);
            prop_assert!(!report.truncated);
            prop_assert_eq!(&report.clusters, &seq, "threads = {}", threads);
        }
    }

    /// The merged per-worker statistics, every counter included, equal a
    /// one-thread run's at every thread count: workers partition the tree,
    /// and first-arrival duplicate pruning keeps the event multiset
    /// invariant (DESIGN.md §7.6).
    #[test]
    fn engine_stats_match_sequential((m, params) in matrix_strategy()) {
        let one = collect(&m, &params, 1).stats;
        for threads in [2usize, 4, 8] {
            let report = collect(&m, &params, threads);
            prop_assert_eq!(&report.stats, &one, "threads = {}", threads);
        }
    }

    /// Event ≡ counter oracle: the engine counts each node, prune and
    /// emission into its stats where it reports the event, so replaying a
    /// run's event stream must reproduce the report's nodes per depth,
    /// prunes per rule (`MinConds` included) and emissions, and each
    /// worker's node count must add up to the total.
    #[test]
    fn event_stream_replays_to_the_report_counters((m, params) in oracle_strategy()) {
        let miner = Miner::new(&m, &params).expect("valid params");
        for threads in [1usize, 2, 4] {
            let replay = Replay::default();
            let sink = VecSink::new();
            let request = MineRequest::new(&miner).threads(threads).observer(&replay);
            let (report, _) = request.run(&sink).expect("engine succeeds");
            let events = replay.0.into_inner().unwrap();
            let stats = &report.stats;
            prop_assert_eq!(&stats.depth_nodes, &events.depth_nodes, "threads = {}", threads);
            prop_assert_eq!(stats.nodes, events.depth_nodes.iter().sum::<usize>());
            prop_assert_eq!(stats.max_depth, events.depth_nodes.len().saturating_sub(1));
            for rule in PruneRule::ALL {
                prop_assert_eq!(stats.pruned(rule), events.pruned[rule.index()], "{:?}", rule);
            }
            prop_assert_eq!(stats.emitted, events.emitted);
            prop_assert_eq!(report.worker_nodes.len(), threads);
            prop_assert_eq!(report.worker_nodes.iter().sum::<usize>(), stats.nodes);
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
    fn pruned(&self, _chain: &[usize], _rule: PruneRule) {
        self.pruned.fetch_add(1, Ordering::Relaxed);
    }
    fn cluster_emitted(&self, _cluster: &RegCluster) {
        self.emitted.fetch_add(1, Ordering::Relaxed);
    }
}

/// What [`Replay`] rebuilt from the event stream: nodes per chain length
/// (slot 0 unused, trimmed after the deepest), prunes per rule in
/// [`PruneRule::ALL`] order, and emissions.
#[derive(Default)]
struct Replayed {
    depth_nodes: Vec<usize>,
    pruned: [usize; PruneRule::ALL.len()],
    emitted: usize,
}

/// Replays every event a run reports into [`Replayed`] counts, behind a
/// lock shared by all workers.
#[derive(Default)]
struct Replay(Mutex<Replayed>);

impl SyncMineObserver for Replay {
    fn node_entered(&self, chain: &[usize], _n_p: usize, _n_n: usize) {
        let mut r = self.0.lock().unwrap();
        if r.depth_nodes.len() <= chain.len() {
            r.depth_nodes.resize(chain.len() + 1, 0);
        }
        r.depth_nodes[chain.len()] += 1;
    }
    fn pruned(&self, _chain: &[usize], rule: PruneRule) {
        self.0.lock().unwrap().pruned[rule.index()] += 1;
    }
    fn cluster_emitted(&self, _cluster: &RegCluster) {
        self.0.lock().unwrap().emitted += 1;
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
    let pruned: usize = PruneRule::ALL.map(|r| report.stats.pruned(r)).iter().sum();
    assert_eq!(counts.pruned.load(Ordering::Relaxed), pruned);
}
