//! The `.rck` checkpoint file end to end: an interrupted run persisted
//! through [`CheckpointFile`] reads back exactly, resumes to the
//! bit-identical golden result, refuses corruption, and replaces the
//! destination atomically even when the save itself crashes.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Mutex;

use regcluster_core::{
    CheckpointPlan, CheckpointReport, CheckpointSink, CoreError, MemoryCheckpointSink, MineControl,
    MineReport, MineRequest, Miner, MiningParams, NoopObserver, RegCluster, SyncMineObserver,
};
use regcluster_datagen::running_example;
use regcluster_matrix::ExpressionMatrix;
use regcluster_store::{read_checkpoint, CheckpointFile, StoreError, CHECKPOINT_VERSION};

/// Failpoint state is process-global; tests arming it take this lock.
static SERIAL: Mutex<()> = Mutex::new(());

/// Fixed header length of the `.rck` layout (same as `.rcs`).
const RCK_HEADER_LEN: usize = 32;

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

/// Cancels `control` once `budget` fresh clusters have been emitted.
struct CancelAfterEmissions {
    control: MineControl,
    budget: AtomicI64,
}

impl SyncMineObserver for CancelAfterEmissions {
    fn cluster_emitted(&self, _cluster: &RegCluster) {
        if self.budget.fetch_sub(1, Ordering::SeqCst) <= 1 {
            self.control.cancel();
        }
    }
}

fn test_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("regcluster-rck-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Interrupts one checkpointed run with `sink` and asserts it truncated.
fn interrupt_run(sink: &dyn CheckpointSink) {
    let matrix = running_example();
    let params = MiningParams::new(3, 5, 0.15, 0.1).unwrap();
    let control = MineControl::new();
    let observer = CancelAfterEmissions {
        control: control.clone(),
        budget: AtomicI64::new(1),
    };
    let (report, ck_report) = collect_checkpointed(
        &matrix,
        &params,
        2,
        &control,
        &observer,
        CheckpointPlan::new(sink),
    )
    .unwrap();
    assert!(report.truncated);
    assert!(ck_report.checkpoints_written >= 1);
}

#[test]
fn rck_file_roundtrips_and_resumes_bit_identically() {
    let dir = test_dir("roundtrip");
    let path = dir.join("run.rck");
    let matrix = running_example();
    let params = MiningParams::new(3, 5, 0.15, 0.1).unwrap();
    let reference = golden(&matrix, &params);

    // Interrupt a run that checkpoints straight to disk.
    let file_sink = CheckpointFile::new(&path);
    interrupt_run(&file_sink);

    // Byte-level fidelity: the same snapshot through the in-memory sink
    // must equal what the .rck file decodes to.
    let memory = MemoryCheckpointSink::new();
    let from_disk = read_checkpoint(&path).unwrap();
    memory.save(&from_disk).unwrap();
    assert_eq!(memory.last().unwrap(), from_disk);
    assert_eq!(from_disk.params, params);
    assert_eq!(from_disk.n_genes, matrix.n_genes());
    assert_eq!(from_disk.n_conditions, matrix.n_conditions());
    assert!(!from_disk.pending.is_empty() || !from_disk.emitted.is_empty());

    // Save → read → save again is byte-stable.
    let copy = dir.join("copy.rck");
    CheckpointFile::new(&copy).save(&from_disk).unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), std::fs::read(&copy).unwrap());

    // Resuming the on-disk snapshot completes to the golden result.
    let resume_sink = CheckpointFile::new(dir.join("resume.rck"));
    let (report, ck_report) = collect_checkpointed(
        &matrix,
        &params,
        4,
        &MineControl::new(),
        &NoopObserver,
        CheckpointPlan::new(&resume_sink).with_resume(from_disk),
    )
    .unwrap();
    assert!(ck_report.resumed);
    assert!(!report.truncated);
    assert_eq!(report.clusters, reference);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_rck_files_are_rejected_not_panicked() {
    let dir = test_dir("corrupt");
    let path = dir.join("run.rck");
    interrupt_run(&CheckpointFile::new(&path));
    let good = std::fs::read(&path).unwrap();
    let reload = |bytes: &[u8]| {
        std::fs::write(&path, bytes).unwrap();
        read_checkpoint(&path)
    };

    // Foreign file.
    let mut bad = good.clone();
    bad[..8].copy_from_slice(b"RCSTORE\0");
    assert!(matches!(reload(&bad), Err(StoreError::Format(_))));

    // Future version.
    let mut bad = good.clone();
    bad[8..12].copy_from_slice(&(CHECKPOINT_VERSION + 1).to_le_bytes());
    match reload(&bad) {
        Err(StoreError::Version { found, supported }) => {
            assert_eq!(found, CHECKPOINT_VERSION + 1);
            assert_eq!(supported, CHECKPOINT_VERSION);
        }
        other => panic!("expected Version error, got {other:?}"),
    }

    // Truncation at several depths, including mid-header.
    for keep in [0, 7, 31, good.len() / 2, good.len() - 1] {
        assert!(
            reload(&good[..keep]).is_err(),
            "truncated to {keep} bytes must be rejected"
        );
    }

    // A flipped bit anywhere in the payload or table trips a checksum.
    // (Header damage is covered by the magic/version/truncation cases.)
    for pos in (RCK_HEADER_LEN..good.len()).step_by(7) {
        let mut bad = good.clone();
        bad[pos] ^= 0x40;
        assert!(reload(&bad).is_err(), "bit flip at byte {pos} must surface");
    }

    // The pristine bytes still load.
    assert!(reload(&good).is_ok());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crashed_save_leaves_previous_checkpoint_intact() {
    let _guard = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let dir = test_dir("atomic");
    let path = dir.join("run.rck");
    interrupt_run(&CheckpointFile::new(&path));
    let old = std::fs::read(&path).unwrap();

    regcluster_failpoint::configure("checkpoint::save=io_err@1").unwrap();
    let again = CheckpointFile::new(&path);
    let snapshot = read_checkpoint(&path).unwrap();
    let err = again.save(&snapshot).expect_err("injected fault surfaces");
    regcluster_failpoint::clear();
    assert!(
        err.to_string().contains("injected failpoint error"),
        "{err}"
    );

    // Destination untouched, still loadable, and no scratch file leaked.
    assert_eq!(std::fs::read(&path).unwrap(), old);
    assert!(read_checkpoint(&path).is_ok());
    assert!(!dir.join("run.rck.tmp").exists());

    // A later save succeeds and replaces the file.
    again.save(&snapshot).unwrap();
    assert!(read_checkpoint(&path).is_ok());
    std::fs::remove_dir_all(&dir).ok();
}
