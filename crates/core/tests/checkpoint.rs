//! Golden checkpoint/resume tests: interrupting a mining run at an
//! arbitrary point, checkpointing, and resuming in a fresh run must yield
//! the **bit-identical** finalized cluster set of an uninterrupted run —
//! across thread counts 1–8, on both golden datasets (the paper's Table 1
//! running example and a synthetic embedded-cluster matrix).
//!
//! Interrupts come from an observer that cancels the run's [`MineControl`]
//! after a fixed number of fresh emissions — the same node-granularity stop
//! a deadline or Ctrl-C produces — so the snapshot frontier is whatever the
//! scheduler happened to leave pending, never a hand-picked state.

use std::sync::atomic::{AtomicI64, Ordering};
use std::time::Duration;

use regcluster_core::{
    CheckpointPlan, CheckpointReport, CoreError, EngineCheckpoint, MemoryCheckpointSink,
    MineControl, MineReport, MineRequest, Miner, MiningParams, NoopObserver, RegCluster,
    SyncMineObserver,
};
use regcluster_datagen::{generate, running_example, PatternKind, SyntheticConfig};
use regcluster_matrix::ExpressionMatrix;

/// Cancels `control` once `budget` fresh clusters have been emitted.
struct CancelAfterEmissions {
    control: MineControl,
    budget: AtomicI64,
}

impl CancelAfterEmissions {
    fn new(control: MineControl, budget: i64) -> Self {
        CancelAfterEmissions {
            control,
            budget: AtomicI64::new(budget),
        }
    }
}

impl SyncMineObserver for CancelAfterEmissions {
    fn cluster_emitted(&self, _cluster: &RegCluster) {
        if self.budget.fetch_sub(1, Ordering::SeqCst) <= 1 {
            self.control.cancel();
        }
    }
}

/// The running example and parameters yielding its single reg-cluster.
fn running_dataset() -> (ExpressionMatrix, MiningParams) {
    (
        running_example(),
        MiningParams::new(3, 5, 0.15, 0.1).unwrap(),
    )
}

/// The seeded 100×30 synthetic workload shared by the repo's golden-output
/// tests (see `crates/store/tests/roundtrip.rs`) — big enough that
/// interrupted runs leave a non-trivial multi-node frontier.
fn synthetic_dataset() -> (ExpressionMatrix, MiningParams) {
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
    let data = generate(&cfg).unwrap();
    (data.matrix, MiningParams::new(4, 4, 0.1, 0.05).unwrap())
}

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

/// Mines to completion through repeated interrupt → checkpoint → resume
/// cycles, cancelling after `budget` fresh emissions each round, and
/// returns the final collected set plus the number of interruptions.
fn mine_through_interrupts(
    matrix: &ExpressionMatrix,
    params: &MiningParams,
    threads: usize,
    budget: i64,
) -> (Vec<RegCluster>, usize) {
    let mut resume: Option<EngineCheckpoint> = None;
    let mut interrupts = 0;
    loop {
        let ck_sink = MemoryCheckpointSink::new();
        let control = MineControl::new();
        let observer = CancelAfterEmissions::new(control.clone(), budget);
        let mut plan = CheckpointPlan::new(&ck_sink);
        if let Some(ck) = resume.take() {
            plan = plan.with_resume(ck);
        }
        let (report, ck_report) =
            collect_checkpointed(matrix, params, threads, &control, &observer, plan)
                .expect("checkpointed mining succeeds");
        assert_eq!(ck_report.resumed, interrupts > 0);
        if !report.truncated {
            return (report.clusters, interrupts);
        }
        interrupts += 1;
        assert!(
            ck_report.checkpoints_written >= 1,
            "a truncated run must flush a final checkpoint"
        );
        resume = Some(
            ck_sink
                .last()
                .expect("truncated run must leave a checkpoint"),
        );
        assert!(interrupts < 10_000, "interrupt loop must make progress");
    }
}

#[test]
fn interrupt_resume_is_bit_identical_across_thread_counts() {
    for (name, (matrix, params)) in [
        ("running_example", running_dataset()),
        ("synthetic", synthetic_dataset()),
    ] {
        let reference = golden(&matrix, &params);
        assert!(
            !reference.is_empty(),
            "{name}: golden set must be non-empty"
        );
        for threads in 1..=8 {
            for budget in [1, 2] {
                let (clusters, interrupts) =
                    mine_through_interrupts(&matrix, &params, threads, budget);
                assert_eq!(
                    clusters, reference,
                    "{name}: threads={threads} budget={budget} ({interrupts} interrupts)"
                );
            }
        }
    }
}

#[test]
fn periodic_checkpoints_do_not_change_the_result() {
    // `every = ZERO` forces a pause (and a snapshot, and a full worker
    // respawn) after every worker's next node — the most hostile cadence.
    let (matrix, params) = running_dataset();
    let reference = golden(&matrix, &params);
    for threads in [1usize, 2, 4] {
        let ck_sink = MemoryCheckpointSink::new();
        let plan = CheckpointPlan::new(&ck_sink).with_every(Duration::ZERO);
        let (report, ck_report) = collect_checkpointed(
            &matrix,
            &params,
            threads,
            &MineControl::new(),
            &NoopObserver,
            plan,
        )
        .unwrap();
        assert!(!report.truncated);
        assert_eq!(report.clusters, reference, "threads = {threads}");
        assert!(
            ck_report.checkpoints_written > 0,
            "zero interval must checkpoint at least once (threads = {threads})"
        );
        assert_eq!(ck_report.checkpoints_written, ck_sink.saves());
    }

    // A coarser cadence on the synthetic dataset, where legs actually carry
    // several nodes each.
    let (matrix, params) = synthetic_dataset();
    let reference = golden(&matrix, &params);
    let ck_sink = MemoryCheckpointSink::new();
    let plan = CheckpointPlan::new(&ck_sink).with_every(Duration::from_micros(200));
    let (report, _) = collect_checkpointed(
        &matrix,
        &params,
        4,
        &MineControl::new(),
        &NoopObserver,
        plan,
    )
    .unwrap();
    assert!(!report.truncated);
    assert_eq!(report.clusters, reference);
}

#[test]
fn completed_run_writes_no_checkpoint() {
    let (matrix, params) = running_dataset();
    let ck_sink = MemoryCheckpointSink::new();
    let (report, ck_report) = collect_checkpointed(
        &matrix,
        &params,
        2,
        &MineControl::new(),
        &NoopObserver,
        CheckpointPlan::new(&ck_sink),
    )
    .unwrap();
    assert!(!report.truncated);
    assert_eq!(ck_report.checkpoints_written, 0);
    assert!(ck_sink.last().is_none());
    assert!(!ck_report.resumed);
}

/// Interrupts one run and returns its final checkpoint.
fn interrupted_checkpoint(matrix: &ExpressionMatrix, params: &MiningParams) -> EngineCheckpoint {
    let ck_sink = MemoryCheckpointSink::new();
    let control = MineControl::new();
    let observer = CancelAfterEmissions::new(control.clone(), 1);
    let (report, _) = collect_checkpointed(
        matrix,
        params,
        2,
        &control,
        &observer,
        CheckpointPlan::new(&ck_sink),
    )
    .unwrap();
    assert!(report.truncated);
    ck_sink.last().unwrap()
}

#[test]
fn resume_refuses_mismatched_runs() {
    let (matrix, params) = synthetic_dataset();
    let ck = interrupted_checkpoint(&matrix, &params);

    let expect_refusal =
        |ck: EngineCheckpoint, matrix: &ExpressionMatrix, params: &MiningParams| {
            let sink = MemoryCheckpointSink::new();
            let err = collect_checkpointed(
                matrix,
                params,
                2,
                &MineControl::new(),
                &NoopObserver,
                CheckpointPlan::new(&sink).with_resume(ck),
            )
            .expect_err("mismatched resume must be refused");
            match err {
                regcluster_core::CoreError::Checkpoint(msg) => msg,
                other => panic!("expected CoreError::Checkpoint, got {other:?}"),
            }
        };

    // Different parameters.
    let other_params = MiningParams::new(2, 3, 0.15, 0.1).unwrap();
    let msg = expect_refusal(ck.clone(), &matrix, &other_params);
    assert!(msg.contains("parameters"), "{msg}");

    // Different matrix content (same dimensions).
    let mut rows: Vec<Vec<f64>> = (0..matrix.n_genes())
        .map(|g| matrix.row(g).to_vec())
        .collect();
    rows[0][0] += 1.0;
    let altered = ExpressionMatrix::from_rows(
        matrix.gene_names().to_vec(),
        matrix.condition_names().to_vec(),
        rows,
    )
    .unwrap();
    let msg = expect_refusal(ck.clone(), &altered, &params);
    assert!(msg.contains("fingerprint"), "{msg}");

    // Structurally corrupt frontier: an out-of-range condition id.
    let mut corrupt = ck.clone();
    if corrupt.pending.is_empty() {
        corrupt.pending.push(regcluster_core::PendingNode {
            chain: vec![0],
            members: Vec::new(),
        });
    }
    corrupt.pending[0].chain.push(matrix.n_conditions());
    let msg = expect_refusal(corrupt, &matrix, &params);
    assert!(msg.contains("out-of-range"), "{msg}");

    // The pristine checkpoint still resumes fine against the right inputs.
    let sink = MemoryCheckpointSink::new();
    let (report, ck_report) = collect_checkpointed(
        &matrix,
        &params,
        2,
        &MineControl::new(),
        &NoopObserver,
        CheckpointPlan::new(&sink).with_resume(ck),
    )
    .unwrap();
    assert!(ck_report.resumed);
    assert!(!report.truncated);
}
