//! Fault-injection drills for the engine: a worker crashing mid-run (via
//! the `engine::worker` failpoint) must surface as
//! [`CoreError::WorkerPanic`] without deadlocking or leaking threads, and a
//! checkpointing run must still flush a final snapshot that covers the
//! panicking node's subtree — proven by resuming it to the full golden
//! result.
//!
//! Failpoint configuration is process-global, so every test here serializes
//! on one lock.

use std::sync::Mutex;

use regcluster_core::{
    CheckpointPlan, CheckpointReport, CoreError, MemoryCheckpointSink, MineControl, MineReport,
    MineRequest, Miner, MiningParams, NoopObserver, RegCluster, SyncMineObserver,
};
use regcluster_datagen::running_example;
use regcluster_matrix::ExpressionMatrix;

/// Failpoint state is process-global; tests arming it take this lock.
static SERIAL: Mutex<()> = Mutex::new(());

/// A checkpointed collect over every root of `matrix`.
fn collect_checkpointed(
    matrix: &ExpressionMatrix,
    params: &MiningParams,
    threads: usize,
    control: &MineControl,
    observer: &dyn SyncMineObserver,
    plan: CheckpointPlan<'_>,
) -> Result<(MineReport, CheckpointReport), CoreError> {
    let miner = Miner::new(matrix, params)?;
    let request = MineRequest::new(&miner).threads(threads).control(control);
    request.observer(observer).checkpoint(plan).collect()
}

/// The golden result of an uninterrupted run.
fn golden(matrix: &ExpressionMatrix, params: &MiningParams) -> Vec<RegCluster> {
    let miner = Miner::new(matrix, params).unwrap();
    MineRequest::new(&miner)
        .threads(2)
        .collect()
        .unwrap()
        .0
        .clusters
}

#[test]
fn injected_worker_panic_surfaces_as_worker_panic_error() {
    let _guard = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let matrix = running_example();
    let params = MiningParams::new(3, 5, 0.15, 0.1).unwrap();
    for threads in [1usize, 4] {
        regcluster_failpoint::configure("engine::worker=panic@1").unwrap();
        let miner = Miner::new(&matrix, &params).unwrap();
        let err = MineRequest::new(&miner)
            .threads(threads)
            .collect()
            .expect_err("an injected worker panic must surface");
        regcluster_failpoint::clear();
        match err {
            CoreError::WorkerPanic(msg) => {
                assert!(msg.contains("injected failpoint panic"), "{msg}");
                assert!(msg.contains("engine::worker"), "{msg}");
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
    }
    // The run shut down cleanly: a fresh un-instrumented run on the same
    // inputs succeeds (no poisoned global state, no stuck threads).
    let miner = Miner::new(&matrix, &params).unwrap();
    let (report, _) = MineRequest::new(&miner).threads(4).collect().unwrap();
    assert_eq!(report.clusters.len(), 1);
}

#[test]
fn worker_panic_still_flushes_a_resumable_checkpoint() {
    let _guard = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let matrix = running_example();
    let params = MiningParams::new(3, 5, 0.15, 0.1).unwrap();
    let reference = golden(&matrix, &params);
    for threads in [1usize, 2, 4] {
        // Crash a worker a few nodes into the run. The per-node panic
        // containment must restore the consumed node to the frontier, so
        // the final checkpoint loses no subtree.
        regcluster_failpoint::configure("engine::worker=panic@4").unwrap();
        let ck_sink = MemoryCheckpointSink::new();
        let err = collect_checkpointed(
            &matrix,
            &params,
            threads,
            &MineControl::new(),
            &NoopObserver,
            CheckpointPlan::new(&ck_sink),
        )
        .expect_err("the injected panic must surface");
        regcluster_failpoint::clear();
        assert!(
            matches!(err, CoreError::WorkerPanic(_)),
            "threads={threads}: expected WorkerPanic, got {err:?}"
        );
        let ck = ck_sink
            .last()
            .expect("a panicking checkpointed run must flush a final snapshot");

        // Resuming the crash checkpoint completes to the bit-identical
        // golden result — nothing under the panicking node was lost.
        let resume_sink = MemoryCheckpointSink::new();
        let (report, ck_report) = collect_checkpointed(
            &matrix,
            &params,
            threads,
            &MineControl::new(),
            &NoopObserver,
            CheckpointPlan::new(&resume_sink).with_resume(ck),
        )
        .expect("resume after crash succeeds");
        assert!(ck_report.resumed);
        assert!(!report.truncated);
        assert_eq!(report.clusters, reference, "threads = {threads}");
    }
}

#[test]
fn observer_panic_is_contained_per_node_and_checkpointed() {
    let _guard = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    // A panic from *user* code (the observer) rides the same containment
    // path as the failpoint: WorkerPanic plus a flushed final snapshot.
    struct ExplodingObserver;
    impl SyncMineObserver for ExplodingObserver {
        fn cluster_emitted(&self, _cluster: &RegCluster) {
            panic!("observer exploded");
        }
    }
    let matrix = running_example();
    let params = MiningParams::new(3, 5, 0.15, 0.1).unwrap();
    let ck_sink = MemoryCheckpointSink::new();
    let err = collect_checkpointed(
        &matrix,
        &params,
        2,
        &MineControl::new(),
        &ExplodingObserver,
        CheckpointPlan::new(&ck_sink),
    )
    .expect_err("observer panic surfaces");
    match err {
        CoreError::WorkerPanic(msg) => assert!(msg.contains("observer exploded"), "{msg}"),
        other => panic!("expected WorkerPanic, got {other:?}"),
    }
    assert!(ck_sink.last().is_some(), "final snapshot flushed");
}
