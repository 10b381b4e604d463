//! Checkpoint/resume types for crash-safe mining runs.
//!
//! A mining run's recoverable state is its **enumeration frontier**: the
//! pending subtree roots no worker has expanded yet, plus the set of
//! clusters already emitted (which seeds duplicate elimination on resume so
//! nothing is re-emitted and no redundant subtree is re-explored). An
//! [`EngineCheckpoint`] captures exactly that, together with enough
//! provenance — parameters, matrix dimensions, a content fingerprint — to
//! refuse resumption against the wrong input.
//!
//! The engine hands snapshots to a [`CheckpointSink`]; persistence lives
//! elsewhere (the `.rck` file format is implemented by the store crate,
//! which depends on this one). [`MemoryCheckpointSink`] keeps the latest
//! snapshot in memory for tests and embedders.
//!
//! # Resume semantics
//!
//! Resuming replays the checkpoint's emitted clusters into the new run's
//! sink (so the sink sees the complete set), rebuilds the duplicate-
//! elimination tables from them, and seeds the work queue with the pending
//! frontier. A resumed collect-mode run therefore finishes with the
//! **bit-identical** cluster set an uninterrupted run would have produced —
//! finalization is a function of the cluster set alone (see
//! `DESIGN.md` §10 and the golden tests in `crates/core/tests/checkpoint.rs`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use regcluster_matrix::{CondId, ExpressionMatrix, GeneId};

use crate::intern::mix;
use crate::{MiningParams, RegCluster};

/// One member gene of a pending enumeration node, in a form that
/// round-trips exactly: the baseline denominator is carried as raw IEEE-754
/// bits so a resumed node recomputes byte-identical coherence scores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingMember {
    /// The member gene.
    pub gene: GeneId,
    /// `true` for a p-member (expression increases along the chain),
    /// `false` for an n-member (inverted chain).
    pub forward: bool,
    /// `f64::to_bits` of the baseline step `d[c_{k2}] − d[c_{k1}]` (zero
    /// bits before the chain reaches length 2).
    pub denom_bits: u64,
}

/// One un-expanded node of the enumeration frontier: a chain prefix plus
/// the members that survived to it. Expanding it (and its descendants)
/// on resume completes the subtree exactly as the interrupted run would
/// have.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingNode {
    /// The representative chain prefix (root condition first).
    pub chain: Vec<CondId>,
    /// Surviving members, in the order the miner tracked them.
    pub members: Vec<PendingMember>,
}

/// A complete, resumable snapshot of a mining run.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineCheckpoint {
    /// The mining parameters of the interrupted run. Resume refuses a
    /// mismatch: pruning decisions baked into the frontier depend on them.
    pub params: MiningParams,
    /// Number of genes in the mined matrix.
    pub n_genes: usize,
    /// Number of conditions in the mined matrix.
    pub n_conditions: usize,
    /// Content fingerprint of the mined matrix
    /// ([`matrix_fingerprint`]); resume refuses a different matrix even
    /// when the dimensions happen to agree.
    pub matrix_fingerprint: u64,
    /// The un-expanded enumeration frontier.
    pub pending: Vec<PendingNode>,
    /// Every cluster emitted before the snapshot, exactly as delivered to
    /// the sink. Seeds duplicate elimination and sink replay on resume.
    pub emitted: Vec<RegCluster>,
}

/// Receiver for engine checkpoints. Implementations persist the snapshot
/// atomically (see `regcluster-store`'s `.rck` writer) or retain it in
/// memory ([`MemoryCheckpointSink`]).
pub trait CheckpointSink {
    /// Persists one snapshot. Called between enumeration legs, never
    /// concurrently. An error aborts the run with
    /// [`CoreError::Checkpoint`](crate::CoreError::Checkpoint) — except
    /// after a worker panic, where the panic takes precedence.
    ///
    /// # Errors
    ///
    /// Any I/O failure while persisting the snapshot.
    fn save(&self, checkpoint: &EngineCheckpoint) -> std::io::Result<()>;
}

/// How a mining run checkpoints: where snapshots go, how often periodic
/// snapshots are taken, and optionally a checkpoint to resume from.
pub struct CheckpointPlan<'a> {
    /// Destination for every snapshot.
    pub sink: &'a dyn CheckpointSink,
    /// Periodic checkpoint interval. `None` checkpoints only on early
    /// shutdown (cancellation, deadline, sink stop, worker panic).
    /// `Duration::ZERO` checkpoints after every worker's next node — only
    /// useful for tests.
    pub every: Option<Duration>,
    /// Resume from this snapshot instead of starting at the roots.
    pub resume: Option<EngineCheckpoint>,
}

impl<'a> CheckpointPlan<'a> {
    /// A plan that checkpoints into `sink` only on early shutdown.
    pub fn new(sink: &'a dyn CheckpointSink) -> Self {
        CheckpointPlan {
            sink,
            every: None,
            resume: None,
        }
    }

    /// Adds a periodic checkpoint interval.
    #[must_use]
    pub fn with_every(mut self, every: Duration) -> Self {
        self.every = Some(every);
        self
    }

    /// Resumes from `checkpoint` instead of starting fresh.
    #[must_use]
    pub fn with_resume(mut self, checkpoint: EngineCheckpoint) -> Self {
        self.resume = Some(checkpoint);
        self
    }
}

/// What checkpointing did during a run, reported alongside the mining
/// outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointReport {
    /// The run was seeded from a resume checkpoint.
    pub resumed: bool,
    /// Snapshots successfully handed to the sink (periodic + shutdown).
    pub checkpoints_written: u64,
}

/// A [`CheckpointSink`] retaining the most recent snapshot in memory.
/// The test double for the engine's checkpoint path, and a building block
/// for embedders that manage persistence themselves.
#[derive(Debug, Default)]
pub struct MemoryCheckpointSink {
    last: Mutex<Option<EngineCheckpoint>>,
    saves: AtomicU64,
}

impl MemoryCheckpointSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The most recent snapshot, if any was saved.
    pub fn last(&self) -> Option<EngineCheckpoint> {
        self.last
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// Number of snapshots saved so far.
    pub fn saves(&self) -> u64 {
        self.saves.load(Ordering::Relaxed)
    }
}

impl CheckpointSink for MemoryCheckpointSink {
    fn save(&self, checkpoint: &EngineCheckpoint) -> std::io::Result<()> {
        *self
            .last
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(checkpoint.clone());
        self.saves.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

/// A deterministic 64-bit content fingerprint of an expression matrix:
/// dimensions plus the raw bits of every cell, in row-major order.
///
/// Used by [`EngineCheckpoint`] to refuse resuming a frontier against a
/// matrix other than the one it was mined from. Like the dedup
/// fingerprints, it is seedless so it is stable across processes; it
/// guards against mix-ups, not adversaries.
pub fn matrix_fingerprint(matrix: &ExpressionMatrix) -> u64 {
    let mut h: u64 = 0x9D_3A_55_C1_0B_71_EE_D7;
    h = mix(h, matrix.n_genes() as u64);
    h = mix(h, matrix.n_conditions() as u64);
    for (_, row) in matrix.rows() {
        for &v in row {
            h = mix(h, v.to_bits());
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_matrix(scale: f64) -> ExpressionMatrix {
        ExpressionMatrix::from_flat_unlabeled(2, 3, vec![1.0, 2.0, 3.0, 4.0 * scale, 5.0, 6.0])
            .unwrap()
    }

    #[test]
    fn matrix_fingerprint_sees_content_and_shape() {
        let a = matrix_fingerprint(&tiny_matrix(1.0));
        assert_eq!(a, matrix_fingerprint(&tiny_matrix(1.0)), "deterministic");
        assert_ne!(
            a,
            matrix_fingerprint(&tiny_matrix(2.0)),
            "content-sensitive"
        );
        let transposed =
            ExpressionMatrix::from_flat_unlabeled(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
                .unwrap();
        assert_ne!(a, matrix_fingerprint(&transposed), "shape-sensitive");
    }

    #[test]
    fn memory_sink_keeps_the_latest_snapshot() {
        let sink = MemoryCheckpointSink::new();
        assert!(sink.last().is_none());
        let mut ck = EngineCheckpoint {
            params: MiningParams::new(2, 2, 0.1, 0.1).unwrap(),
            n_genes: 2,
            n_conditions: 3,
            matrix_fingerprint: 7,
            pending: vec![PendingNode {
                chain: vec![0],
                members: vec![PendingMember {
                    gene: 1,
                    forward: true,
                    denom_bits: 0,
                }],
            }],
            emitted: Vec::new(),
        };
        sink.save(&ck).unwrap();
        ck.matrix_fingerprint = 8;
        sink.save(&ck).unwrap();
        assert_eq!(sink.saves(), 2);
        assert_eq!(sink.last().unwrap().matrix_fingerprint, 8);
    }
}
