//! Work-stealing parallel mining engine.
//!
//! The engine decouples **enumeration** from **collection**. Enumeration is
//! driven by a pool of workers sharing the representative-chain tree through
//! a spill-based work-stealing scheme: every enumeration node is a `Task`
//! (chain prefix + surviving members), each worker runs an ordinary
//! depth-first traversal over its local LIFO deque, and when the local deque
//! grows past a small spill threshold while other workers are starving, the
//! *shallowest* pending subtrees are spilled from the front of the deque
//! into a shared queue. This splits the tree at any depth — a single heavy
//! root does not serialize the run the way a static per-root split does
//! (the thread-scaling bench emulates that split for comparison).
//!
//! Every run goes through one entry point, [`MineRequest`]: a prepared
//! [`Miner`], the roots (all or a subset), the worker count, and optional
//! cancellation, observer and checkpoint plan.
//!
//! Collection goes through a [`ClusterSink`]: [`VecSink`] gathers everything
//! for the deterministic collect path, [`CappedSink`] stops the run
//! cooperatively after a fixed number of clusters, and [`StreamingSink`]
//! forwards clusters over a bounded channel while mining is still in
//! progress.
//!
//! # Determinism
//!
//! The collect path ([`MineRequest::collect`]) is **bit-identical** at every
//! thread count, including under
//! [`max_clusters`](crate::MiningParams::max_clusters):
//!
//! * node expansion is `Miner::expand_node`, a pure function of the node
//!   state, so runs at every thread count expand the same tree;
//! * duplicate elimination (pruning (3)(b) of the paper) is a first-arrival
//!   race, but two nodes emitting the same `(chain, genes)` cluster
//!   necessarily carry the same member state and therefore root *identical
//!   subtrees* — whichever twin wins the race, the set of emitted clusters
//!   and the multiset of observer events are invariant (see DESIGN.md §7.6);
//! * the cap is applied by [`finalize_clusters`] to the canonically-sorted
//!   full result, making capped output a function of the cluster set alone.
//!
//! Delivery *order* into a sink is nondeterministic across workers; only the
//! final collected set is deterministic. Runs that stop early — through
//! [`MineControl::cancel`], a deadline, or a sink refusing clusters — yield
//! a prefix of the work whose content depends on scheduling, and are flagged
//! accordingly.
//!
//! A one-thread run is fully ordered: its worker takes the roots in
//! condition order and walks each subtree depth-first, so observer events
//! arrive in the order of the paper's Figure 6 tree.
//!
//! # Checkpointing
//!
//! A run given a [`CheckpointPlan`] can snapshot its enumeration frontier —
//! the un-expanded subtree roots plus every cluster emitted so far — to a
//! [`CheckpointSink`](crate::checkpoint::CheckpointSink), periodically and
//! on every early shutdown (cancellation, deadline, sink stop, worker
//! panic). On any stop, each worker *drains* its pending local nodes back
//! to the shared queue, so after the workers park the queue is exactly the
//! frontier. Periodic snapshots pause the run between enumeration "legs":
//! workers park once the leg's deadline passes, the controlling thread
//! snapshots, and a fresh leg resumes from the queue in the same call.
//! Resuming a checkpoint later (see
//! [`CheckpointPlan::with_resume`]) completes the run with the
//! bit-identical collected cluster set an uninterrupted run produces — see
//! `DESIGN.md` §10 and `crates/core/tests/checkpoint.rs`.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use regcluster_matrix::CondId;

use crate::checkpoint::{
    matrix_fingerprint, CheckpointPlan, CheckpointReport, EngineCheckpoint, PendingMember,
    PendingNode,
};
use crate::intern::{ClusterView, EmittedSet};
use crate::miner::{finalize_clusters, Dir, EmitOutcome, Member, Miner};
use crate::observer::{MiningStats, NoopObserver, SyncMineObserver};
use crate::scratch::{ChildBuf, NodeScratch};
use crate::{CoreError, RegCluster};

/// Local-deque length above which a worker offers subtrees to idle peers.
/// Small enough to feed starving workers quickly, large enough that a
/// worker keeps a cache-warm runway of its own.
const SPILL_THRESHOLD: usize = 4;

/// Acquires a mutex, ignoring poisoning: engine state stays usable after a
/// worker panic so the run can shut down and report the panic instead of
/// cascading.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The worker count of a [`mine_prepared_to_sink`] /
/// [`mine_prepared_roots_to_sink`] run.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of worker threads (≥ 1).
    pub threads: usize,
}

impl EngineConfig {
    /// A configuration with `threads` workers.
    pub fn new(threads: usize) -> Self {
        EngineConfig { threads }
    }
}

/// A cancellation handle for a mining run.
///
/// Clone it (cheap, `Arc`-backed) and hand one copy to the run while another
/// thread keeps the original: [`cancel`](MineControl::cancel) stops the run
/// at the next enumeration node, as does an expired
/// [deadline](MineControl::with_deadline). A stopped run reports
/// `truncated = true` and [`MineReport::into_result`] turns that into
/// [`CoreError::Cancelled`].
#[derive(Debug, Clone, Default)]
pub struct MineControl {
    inner: Arc<ControlInner>,
}

#[derive(Debug, Default)]
struct ControlInner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

impl MineControl {
    /// A control that never fires on its own.
    pub fn new() -> Self {
        Self::default()
    }

    /// A control whose run stops once `timeout` has elapsed (measured from
    /// this call). A timeout too large to represent is treated as "never".
    pub fn with_deadline(timeout: Duration) -> Self {
        MineControl {
            inner: Arc::new(ControlInner {
                cancelled: AtomicBool::new(false),
                deadline: Instant::now().checked_add(timeout),
            }),
        }
    }

    /// Requests that the run stop at the next enumeration node.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether the run should stop: cancelled explicitly or past deadline.
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Relaxed)
            || self.inner.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// Receiver for validated clusters from concurrent workers.
///
/// Replaces the old hard-wired `Vec<RegCluster>` collection. Implementations
/// must be [`Sync`]; `accept` is called once per *fresh* cluster (duplicates
/// are eliminated before the sink) in nondeterministic cross-worker order.
pub trait ClusterSink: Sync {
    /// Delivers one cluster. Returning `false` asks the engine to stop
    /// enumerating — a cooperative early stop honored at node granularity.
    fn accept(&self, cluster: RegCluster) -> bool;
}

/// Collects every cluster; never stops the run. The engine's collect path
/// drains it and finalizes for deterministic output.
#[derive(Debug, Default)]
pub struct VecSink {
    clusters: Mutex<Vec<RegCluster>>,
}

impl VecSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The collected clusters, in arrival order.
    pub fn into_clusters(self) -> Vec<RegCluster> {
        self.clusters
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl ClusterSink for VecSink {
    fn accept(&self, cluster: RegCluster) -> bool {
        lock(&self.clusters).push(cluster);
        true
    }
}

/// Collects up to `cap` clusters, then stops the run cooperatively.
///
/// *Which* clusters make the cut depends on worker scheduling; use the
/// collect path with
/// [`MiningParams::max_clusters`](crate::MiningParams::max_clusters) when
/// the capped subset must be deterministic.
#[derive(Debug)]
pub struct CappedSink {
    cap: usize,
    clusters: Mutex<Vec<RegCluster>>,
}

impl CappedSink {
    /// A sink refusing clusters beyond `cap`.
    pub fn new(cap: usize) -> Self {
        CappedSink {
            cap,
            clusters: Mutex::new(Vec::new()),
        }
    }

    /// The collected clusters (at most `cap`), in arrival order.
    pub fn into_clusters(self) -> Vec<RegCluster> {
        self.clusters
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl ClusterSink for CappedSink {
    fn accept(&self, cluster: RegCluster) -> bool {
        let mut clusters = lock(&self.clusters);
        if clusters.len() >= self.cap {
            return false;
        }
        clusters.push(cluster);
        clusters.len() < self.cap
    }
}

/// How often a control-aware [`StreamingSink`] blocked on a full channel
/// re-checks [`MineControl::is_cancelled`].
const SEND_POLL_INTERVAL: Duration = Duration::from_millis(1);

/// Streams clusters over a bounded channel while mining runs.
///
/// Dropping the receiver stops the run cooperatively at the next emission.
/// Back-pressure from a full channel blocks the emitting worker: attach the
/// run's [`MineControl`] via [`with_control`](StreamingSink::with_control)
/// so cancellation and deadlines can interrupt a blocked send. Without it, a
/// stalled receiver keeps the worker inside `accept`, and the "stops at the
/// next enumeration node" guarantee of [`MineControl`] does not hold until
/// the receiver drains or disconnects.
#[derive(Debug)]
pub struct StreamingSink {
    tx: SyncSender<RegCluster>,
    control: Option<MineControl>,
}

impl StreamingSink {
    /// Wraps an existing bounded sender.
    pub fn new(tx: SyncSender<RegCluster>) -> Self {
        StreamingSink { tx, control: None }
    }

    /// Creates a sink and its receiving end with channel capacity `bound`.
    pub fn channel(bound: usize) -> (Self, Receiver<RegCluster>) {
        let (tx, rx) = std::sync::mpsc::sync_channel(bound);
        (StreamingSink { tx, control: None }, rx)
    }

    /// Makes sends interruptible by `control` (pass the same handle the run
    /// uses): a send blocked on a full channel polls for cancellation and,
    /// once `control` fires, refuses the cluster so the run stops instead of
    /// hanging on a stalled receiver.
    #[must_use]
    pub fn with_control(mut self, control: MineControl) -> Self {
        self.control = Some(control);
        self
    }
}

impl ClusterSink for StreamingSink {
    fn accept(&self, cluster: RegCluster) -> bool {
        let Some(control) = &self.control else {
            return self.tx.send(cluster).is_ok();
        };
        let mut cluster = cluster;
        loop {
            if control.is_cancelled() {
                return false;
            }
            match self.tx.try_send(cluster) {
                Ok(()) => return true,
                Err(TrySendError::Full(returned)) => {
                    cluster = returned;
                    std::thread::sleep(SEND_POLL_INTERVAL);
                }
                Err(TrySendError::Disconnected(_)) => return false,
            }
        }
    }
}

/// The outcome of a collect-mode engine run.
#[derive(Debug, Clone)]
pub struct MineReport {
    /// The mined clusters, finalized (canonical order, `maximal_only`
    /// filter, `max_clusters` cap). A partial set when `truncated`.
    pub clusters: Vec<RegCluster>,
    /// Merged per-worker search-effort counters. For complete runs these
    /// equal a one-thread run's totals (asserted by tests).
    pub stats: MiningStats,
    /// The run was stopped by [`MineControl`] before the tree was exhausted.
    pub truncated: bool,
}

impl MineReport {
    /// Treats truncation as an error: `Ok(clusters)` for a complete run,
    /// [`CoreError::Cancelled`] otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Cancelled`] when the run was truncated.
    pub fn into_result(self) -> Result<Vec<RegCluster>, CoreError> {
        if self.truncated {
            Err(CoreError::Cancelled)
        } else {
            Ok(self.clusters)
        }
    }
}

/// The outcome of a sink-mode engine run (the clusters went to the sink).
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// Merged per-worker search-effort counters.
    pub stats: MiningStats,
    /// The nodes each worker expanded, summed over the run's checkpoint
    /// legs: worker 0 is the calling thread. Their sum is `stats.nodes`.
    pub worker_nodes: Vec<usize>,
    /// The run was stopped by [`MineControl`] before the tree was exhausted.
    pub truncated: bool,
    /// The sink refused a cluster, stopping the run early (e.g. a
    /// [`CappedSink`] reaching its cap or a dropped [`StreamingSink`]
    /// receiver).
    pub stopped_by_sink: bool,
}

/// One run of the work-stealing engine: the single entry point every
/// caller — library, CLI pipeline, cluster worker, benches — goes through.
///
/// A request names a prepared [`Miner`] (building the `RWave^γ` models is
/// a pipeline phase of its own, so callers time it separately), the roots
/// to enumerate, the worker count, and optionally a [`MineControl`], a
/// thread-safe observer and a [`CheckpointPlan`]. [`run`](Self::run)
/// delivers every fresh cluster into a sink; [`collect`](Self::collect)
/// gathers and finalizes them.
///
/// ```
/// use regcluster_core::{MineRequest, Miner, MiningParams};
///
/// let m = regcluster_matrix::ExpressionMatrix::from_flat_unlabeled(
///     3, 4, vec![1.0, 2.0, 4.0, 3.0, 2.0, 3.0, 5.0, 4.0, 0.0, 1.0, 3.0, 2.0],
/// ).unwrap();
/// let params = MiningParams::new(2, 3, 0.1, 0.5).unwrap();
/// let miner = Miner::new(&m, &params).unwrap();
/// let (report, _) = MineRequest::new(&miner).threads(2).collect().unwrap();
/// assert_eq!(report.clusters, regcluster_core::mine(&m, &params).unwrap());
/// ```
pub struct MineRequest<'a, 'm> {
    miner: &'a Miner<'m>,
    roots: Option<&'a [CondId]>,
    threads: usize,
    control: MineControl,
    observer: &'a dyn SyncMineObserver,
    checkpoint: Option<CheckpointPlan<'a>>,
}

impl<'a, 'm> MineRequest<'a, 'm> {
    /// A one-worker run over every root, without cancellation, observer or
    /// checkpoints.
    pub fn new(miner: &'a Miner<'m>) -> Self {
        MineRequest {
            miner,
            roots: None,
            threads: 1,
            control: MineControl::new(),
            observer: &NoopObserver,
            checkpoint: None,
        }
    }

    /// Enumerates **only the subtrees rooted at `roots`** — the delta and
    /// lease paths. The clusters delivered are exactly those a full run
    /// emits with `chain[0]` in `roots` (subtree outputs are disjoint by
    /// root; see the [`delta`](crate::delta) module docs). Duplicates are
    /// ignored. A resumed run ignores the roots and completes the
    /// checkpoint's own frontier, so resume only a checkpoint taken for
    /// the same roots.
    #[must_use]
    pub fn roots(mut self, roots: &'a [CondId]) -> Self {
        self.roots = Some(roots);
        self
    }

    /// Runs `threads` workers (≥ 1).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Stops the run at the next enumeration node once `control` is
    /// cancelled or past its deadline; the report is then `truncated`.
    #[must_use]
    pub fn control(mut self, control: &MineControl) -> Self {
        self.control = control.clone();
        self
    }

    /// Reports every enumeration event to `observer`.
    #[must_use]
    pub fn observer(mut self, observer: &'a dyn SyncMineObserver) -> Self {
        self.observer = observer;
        self
    }

    /// Snapshots the enumeration frontier to the plan's
    /// [`CheckpointSink`](crate::checkpoint::CheckpointSink) periodically
    /// (when [`CheckpointPlan::every`] is set) and on every early shutdown,
    /// and optionally resumes from [`CheckpointPlan::resume`]. Resuming
    /// first replays the checkpoint's emitted clusters into the sink, so
    /// the sink receives the complete set; stats cover only this call's
    /// work.
    #[must_use]
    pub fn checkpoint(mut self, plan: CheckpointPlan<'a>) -> Self {
        self.checkpoint = Some(plan);
        self
    }

    /// Runs the request, delivering every fresh cluster to `sink` as it is
    /// found. The clusters are exactly the deduplicated emission set but
    /// **not** finalized: order is nondeterministic and neither
    /// `maximal_only` nor `max_clusters` is applied — capping is the
    /// sink's job ([`CappedSink`]).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParams`] for a zero thread count or a root
    /// outside the matrix's conditions, [`CoreError::Checkpoint`] when the
    /// resume checkpoint does not match this run or a snapshot cannot be
    /// persisted, and [`CoreError::WorkerPanic`] if a worker, the observer
    /// or the sink panicked — after flushing a final checkpoint
    /// (best-effort) that still covers the panicking node's subtree.
    pub fn run(
        self,
        sink: &dyn ClusterSink,
    ) -> Result<(StreamReport, CheckpointReport), CoreError> {
        if self.threads == 0 {
            return Err(CoreError::InvalidParams("threads must be ≥ 1".into()));
        }
        let n_roots = self.miner.n_conditions();
        let subset = match self.roots {
            Some(roots) => {
                if let Some(&bad) = roots.iter().find(|&&r| r >= n_roots) {
                    return Err(CoreError::InvalidParams(format!(
                        "root condition {bad} out of range (matrix has {n_roots} conditions)"
                    )));
                }
                let mut subset = roots.to_vec();
                subset.sort_unstable();
                subset.dedup();
                Some(subset)
            }
            None => None,
        };
        execute(
            self.miner,
            subset.as_deref(),
            self.threads,
            &self.control,
            self.observer,
            sink,
            self.checkpoint,
        )
    }

    /// Runs the request into a collecting sink and finalizes the result
    /// (canonical order, `maximal_only`, `max_clusters`): **bit-identical**
    /// to [`mine`](crate::mine) at every thread count for a complete run,
    /// and — resumed from a checkpoint — to an uninterrupted run.
    ///
    /// # Errors
    ///
    /// As [`run`](Self::run).
    pub fn collect(self) -> Result<(MineReport, CheckpointReport), CoreError> {
        let params = self.miner.params();
        let sink = VecSink::new();
        let (report, ck_report) = self.run(&sink)?;
        let mut clusters = sink.into_clusters();
        finalize_clusters(&mut clusters, params);
        Ok((
            MineReport {
                clusters,
                stats: report.stats,
                truncated: report.truncated,
            },
            ck_report,
        ))
    }
}

/// [`MineRequest`] over every root, delivering into `sink`.
///
/// # Errors
///
/// As [`MineRequest::run`].
pub fn mine_prepared_to_sink(
    miner: &Miner<'_>,
    config: &EngineConfig,
    control: &MineControl,
    observer: &dyn SyncMineObserver,
    sink: &dyn ClusterSink,
) -> Result<StreamReport, CoreError> {
    let request = MineRequest::new(miner).threads(config.threads);
    Ok(request.control(control).observer(observer).run(sink)?.0)
}

/// [`MineRequest`] over the subtrees rooted at `roots`, delivering into
/// `sink`.
///
/// # Errors
///
/// As [`MineRequest::run`].
pub fn mine_prepared_roots_to_sink(
    miner: &Miner<'_>,
    roots: &[CondId],
    config: &EngineConfig,
    control: &MineControl,
    observer: &dyn SyncMineObserver,
    sink: &dyn ClusterSink,
) -> Result<StreamReport, CoreError> {
    let request = MineRequest::new(miner).roots(roots).threads(config.threads);
    Ok(request.control(control).observer(observer).run(sink)?.0)
}

/// One enumeration node awaiting expansion on the **shared** queue. Shared
/// tasks own their data because they cross workers; a worker's local pending
/// nodes are [`NodeRef`] ranges into its arenas instead.
struct Task {
    chain: Vec<CondId>,
    members: Vec<Member>,
}

/// A pending enumeration node local to one worker: ranges into the worker's
/// chain and member arenas. See [`worker`] for the stack discipline that
/// keeps the back-of-deque node's ranges topmost in both arenas, letting a
/// pop reclaim its space with a plain `truncate`.
#[derive(Debug, Clone, Copy)]
struct NodeRef {
    chain_start: usize,
    chain_len: usize,
    member_start: usize,
    member_len: usize,
}

/// State shared by all workers of one run.
struct Shared<'e> {
    /// Spilled subtrees available for stealing (plus the initial roots).
    queue: Mutex<VecDeque<Task>>,
    /// Signaled on spills, on termination and on stop requests.
    available: Condvar,
    /// Live tasks: queued, local to a worker, or in expansion. Termination
    /// is `outstanding == 0`.
    outstanding: AtomicUsize,
    /// Workers currently blocked waiting for work — the spill heuristic.
    waiting: AtomicUsize,
    /// Global stop request (cancellation, sink refusal, or worker panic).
    stop: AtomicBool,
    truncated: AtomicBool,
    stopped_by_sink: AtomicBool,
    /// First captured worker-panic payload.
    panic_msg: Mutex<Option<String>>,
    /// Duplicate-elimination sets, sharded by root condition: clusters with
    /// different roots have different chains and can never collide, so
    /// cross-root emissions never contend on a lock.
    emitted: Vec<Mutex<EmittedSet>>,
    /// Checkpointing runs only: every cluster delivered to (and kept by)
    /// the sink, in emission order. Snapshots copy it; resume seeds it.
    journal: Option<Mutex<Vec<RegCluster>>>,
    /// This leg should end for a periodic snapshot (checked per node once
    /// `pause_at` passes). Distinct from `truncated`/`stopped_by_sink`: a
    /// paused run continues with a fresh leg after the snapshot.
    paused: AtomicBool,
    /// Deadline of the current enumeration leg (periodic checkpoints only).
    /// Written by the controlling thread between legs, read by workers.
    pause_at: Option<Instant>,
    /// The run carries a [`CheckpointPlan`]: stop paths preserve the
    /// frontier (drains, push-backs) instead of abandoning it.
    checkpointing: bool,
    sink: &'e dyn ClusterSink,
    observer: &'e dyn SyncMineObserver,
    control: &'e MineControl,
}

impl Shared<'_> {
    fn request_stop(&self) {
        self.stop.store(true, Ordering::Release);
        // Take (and release) the queue lock before notifying: a waiter in
        // `steal_or_wait` checks `stop` under this lock and then parks
        // atomically. Acquiring the lock here can't interleave with that
        // check-then-wait window, so the store above is either seen by the
        // check or the notify reaches an already-parked waiter — without the
        // lock the notify could land in the window and be lost forever.
        drop(lock(&self.queue));
        self.available.notify_all();
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Refuses a resume checkpoint that does not belong to this run: different
/// parameters or matrix (the frontier's pruning decisions depend on both),
/// or structurally out-of-range ids (a corrupted or foreign snapshot).
fn validate_resume(miner: &Miner<'_>, ck: &EngineCheckpoint) -> Result<(), CoreError> {
    let matrix = miner.matrix();
    let fail = |msg: String| Err(CoreError::Checkpoint(msg));
    if ck.params != *miner.params() {
        return fail("resume checkpoint was taken under different mining parameters".into());
    }
    if ck.n_genes != matrix.n_genes() || ck.n_conditions != matrix.n_conditions() {
        return fail(format!(
            "resume checkpoint is for a {}×{} matrix, input is {}×{}",
            ck.n_genes,
            ck.n_conditions,
            matrix.n_genes(),
            matrix.n_conditions()
        ));
    }
    if ck.matrix_fingerprint != matrix_fingerprint(matrix) {
        return fail(
            "resume checkpoint does not match the input matrix (content fingerprint differs)"
                .into(),
        );
    }
    for node in &ck.pending {
        if node.chain.is_empty()
            || node.chain.iter().any(|&c| c >= matrix.n_conditions())
            || node.members.iter().any(|m| m.gene >= matrix.n_genes())
        {
            return fail("resume checkpoint holds an out-of-range pending node".into());
        }
    }
    for c in &ck.emitted {
        if c.chain.is_empty()
            || c.chain.iter().any(|&cc| cc >= matrix.n_conditions())
            || c.p_members
                .iter()
                .chain(&c.n_members)
                .any(|&g| g >= matrix.n_genes())
        {
            return fail("resume checkpoint holds an out-of-range emitted cluster".into());
        }
    }
    Ok(())
}

/// Snapshots the frontier (the shared queue, after workers drained into it)
/// and the emission journal. Called between legs — no worker is running.
fn snapshot(miner: &Miner<'_>, shared: &Shared<'_>, fingerprint: u64) -> EngineCheckpoint {
    let pending = lock(&shared.queue)
        .iter()
        .map(|task| PendingNode {
            chain: task.chain.clone(),
            members: task
                .members
                .iter()
                .map(|m| PendingMember {
                    gene: m.gene,
                    forward: m.dir == Dir::Fwd,
                    denom_bits: m.denom.to_bits(),
                })
                .collect(),
        })
        .collect();
    let emitted = shared
        .journal
        .as_ref()
        .map(|journal| lock(journal).clone())
        .unwrap_or_default();
    EngineCheckpoint {
        params: miner.params().clone(),
        n_genes: miner.matrix().n_genes(),
        n_conditions: miner.matrix().n_conditions(),
        matrix_fingerprint: fingerprint,
        pending,
        emitted,
    }
}

/// The engine proper, behind [`MineRequest::run`]: seeds the queue from
/// the roots (or the resume checkpoint) and runs enumeration legs until the
/// tree is exhausted or the run stops.
#[allow(clippy::too_many_arguments)]
fn execute(
    miner: &Miner<'_>,
    roots: Option<&[CondId]>,
    threads: usize,
    control: &MineControl,
    observer: &dyn SyncMineObserver,
    sink: &dyn ClusterSink,
    plan: Option<CheckpointPlan<'_>>,
) -> Result<(StreamReport, CheckpointReport), CoreError> {
    let (ck_sink, every, resume) = match plan {
        Some(CheckpointPlan {
            sink,
            every,
            resume,
        }) => (Some(sink), every, resume),
        None => (None, None, None),
    };
    let n_roots = miner.n_conditions();
    let checkpointing = ck_sink.is_some();
    let resumed = resume.is_some();

    // Seed the queue and the dedup shards: from the checkpoint when
    // resuming (replaying its emitted clusters into the sink so the sink
    // sees the complete set), from the roots otherwise.
    let emitted_shards: Vec<Mutex<EmittedSet>> = (0..n_roots)
        .map(|_| Mutex::new(EmittedSet::default()))
        .collect();
    let mut initial: VecDeque<Task> = VecDeque::new();
    let mut journal_seed: Vec<RegCluster> = Vec::new();
    match resume {
        Some(ck) => {
            validate_resume(miner, &ck)?;
            for cluster in &ck.emitted {
                let genes = cluster.genes();
                let view = ClusterView {
                    chain: &cluster.chain,
                    p_members: &cluster.p_members,
                    n_members: &cluster.n_members,
                    genes: &genes,
                };
                let fingerprint = view.fingerprint();
                lock(&emitted_shards[cluster.chain[0]]).insert(fingerprint, &view);
                // Replay delivery; refusal is ignored — a resumed sink that
                // wants to stop does so at the first fresh emission.
                let _ = sink.accept(cluster.clone());
            }
            journal_seed = ck.emitted;
            for node in ck.pending {
                initial.push_back(Task {
                    chain: node.chain,
                    members: node
                        .members
                        .iter()
                        .map(|m| Member {
                            gene: m.gene,
                            dir: if m.forward { Dir::Fwd } else { Dir::Bwd },
                            denom: f64::from_bits(m.denom_bits),
                        })
                        .collect(),
                });
            }
        }
        None => {
            // A roots subset (delta mining) seeds only the dirty subtrees;
            // the dedup shards stay sized n_roots so `chain[0]` indexing
            // holds either way.
            let mut seed = |root: CondId| {
                initial.push_back(Task {
                    chain: vec![root],
                    members: miner.root_members(root),
                });
            };
            match roots {
                Some(subset) => subset.iter().copied().for_each(&mut seed),
                None => (0..n_roots).for_each(&mut seed),
            }
        }
    }

    let outstanding = initial.len();
    let mut shared = Shared {
        queue: Mutex::new(initial),
        available: Condvar::new(),
        outstanding: AtomicUsize::new(outstanding),
        waiting: AtomicUsize::new(0),
        stop: AtomicBool::new(false),
        truncated: AtomicBool::new(false),
        stopped_by_sink: AtomicBool::new(false),
        panic_msg: Mutex::new(None),
        emitted: emitted_shards,
        journal: checkpointing.then(|| Mutex::new(journal_seed)),
        paused: AtomicBool::new(false),
        pause_at: None,
        checkpointing,
        sink,
        observer,
        control,
    };
    // Computed once: snapshots of a large matrix would otherwise re-hash
    // every cell per checkpoint.
    let fingerprint = if checkpointing {
        matrix_fingerprint(miner.matrix())
    } else {
        0
    };

    let mut stats = MiningStats::default();
    let mut worker_nodes = vec![0; threads];
    let mut checkpoints_written = 0u64;
    // Each iteration is one enumeration leg. Legs after the first occur
    // only for periodic checkpoints: the paused leg's workers drained the
    // frontier into the queue, the snapshot was taken, and the next leg
    // resumes from the queue.
    let outcome = loop {
        shared.stop.store(false, Ordering::Release);
        shared.paused.store(false, Ordering::Release);
        shared.pause_at = every.and_then(|d| Instant::now().checked_add(d));
        // The calling thread is worker 0; only the `threads - 1` helpers
        // are spawned. A one-thread run thus spawns nothing, and everything
        // it allocates is charged to the caller's thread.
        std::thread::scope(|scope| {
            let shared = &shared;
            let run = move || {
                catch_unwind(AssertUnwindSafe(|| worker(miner, n_roots, shared))).unwrap_or_else(
                    |payload| {
                        let mut slot = lock(&shared.panic_msg);
                        if slot.is_none() {
                            *slot = Some(panic_message(payload));
                        }
                        drop(slot);
                        shared.request_stop();
                        MiningStats::default()
                    },
                )
            };
            let helpers: Vec<_> = (1..threads).map(|_| scope.spawn(run)).collect();
            let mut fold = |i: usize, worker: MiningStats| {
                worker_nodes[i] += worker.nodes;
                stats.merge(&worker);
            };
            fold(0, run());
            for (i, handle) in (1..).zip(helpers) {
                if let Ok(worker) = handle.join() {
                    fold(i, worker);
                }
            }
        });

        if let Some(msg) = lock(&shared.panic_msg).take() {
            // Best-effort final checkpoint: the panic is the primary error
            // (so a save failure is swallowed here), but the frontier the
            // surviving workers drained — including the restored panicking
            // node — is persisted so the run can be resumed.
            if let Some(ck_sink) = ck_sink {
                let _ = ck_sink.save(&snapshot(miner, &shared, fingerprint));
            }
            return Err(CoreError::WorkerPanic(msg));
        }
        let truncated = shared.truncated.load(Ordering::Acquire);
        let stopped_by_sink = shared.stopped_by_sink.load(Ordering::Acquire);
        let stopping = truncated || stopped_by_sink;
        if stopping || shared.paused.load(Ordering::Acquire) {
            if let Some(ck_sink) = ck_sink {
                ck_sink
                    .save(&snapshot(miner, &shared, fingerprint))
                    .map_err(|e| CoreError::Checkpoint(format!("checkpoint save failed: {e}")))?;
                checkpoints_written += 1;
            }
            if !stopping {
                continue;
            }
        }
        break StreamReport {
            stats: std::mem::take(&mut stats),
            worker_nodes: std::mem::take(&mut worker_nodes),
            truncated,
            stopped_by_sink,
        };
    };
    Ok((
        outcome,
        CheckpointReport {
            resumed,
            checkpoints_written,
        },
    ))
}

/// The worker loop: depth-first over the local deque, stealing from the
/// shared queue when the deque runs dry, spilling to it when peers starve.
///
/// # Steady-state allocation freedom
///
/// A worker holds every pending local node in two grow-only arenas (chain
/// ids and members) and its deque stores only [`NodeRef`] ranges. The LIFO
/// discipline maintains one invariant: **the back-of-deque node's ranges are
/// the topmost in both arenas.** Popping therefore copies the node into the
/// current-node buffers and reclaims its space with `truncate`; pushing
/// appends children in *reverse* child order so the next node to pop (the
/// first child — depth-first order) is again topmost. Nodes spilled from the
/// *front* of the deque leave dead ranges at the arena bottom; those are
/// reclaimed wholesale (`clear`) whenever the deque runs empty and the
/// worker turns to stealing. With warmed buffers the loop allocates only
/// when spilling (owned tasks must cross threads) and when emitting a fresh
/// cluster.
fn worker(miner: &Miner<'_>, n_conds: usize, shared: &Shared<'_>) -> MiningStats {
    let mut stats = MiningStats::default();
    let mut scratch = NodeScratch::with_conds(n_conds);
    let mut children = ChildBuf::default();
    // The node currently being expanded.
    let mut chain: Vec<CondId> = Vec::new();
    let mut members: Vec<Member> = Vec::new();
    // Pristine pre-expansion copy of `chain`, maintained only on
    // checkpointing runs: `expand_node` mutates `chain` in place, so a
    // panicking expansion (or a sink-initiated stop, which discards the
    // children) restores the node for the frontier from this buffer.
    // Reused across nodes — no steady-state allocation.
    let mut chain_backup: Vec<CondId> = Vec::new();
    // Pending local nodes: ranges into the arenas, addressed by the deque.
    let mut chain_arena: Vec<CondId> = Vec::new();
    let mut member_arena: Vec<Member> = Vec::new();
    let mut local: VecDeque<NodeRef> = VecDeque::new();
    loop {
        if shared.stop.load(Ordering::Acquire) {
            // A stopping checkpointing run must not lose this worker's
            // pending subtrees: they move to the shared queue, which
            // becomes the snapshot frontier once every worker has parked.
            drain_local(shared, &mut local, &chain_arena, &member_arena);
            break;
        }
        if let Some(node) = local.pop_back() {
            // Invariant: `node`'s ranges are topmost — copy out, truncate.
            chain.clear();
            chain.extend_from_slice(
                &chain_arena[node.chain_start..node.chain_start + node.chain_len],
            );
            members.clear();
            members.extend_from_slice(
                &member_arena[node.member_start..node.member_start + node.member_len],
            );
            chain_arena.truncate(node.chain_start);
            member_arena.truncate(node.member_start);
        } else {
            let Some(task) = steal_or_wait(shared) else {
                break;
            };
            // The deque is empty, so anything left in the arenas is dead
            // ranges from spilled nodes — reclaim everything.
            chain_arena.clear();
            member_arena.clear();
            chain.clear();
            chain.extend_from_slice(&task.chain);
            members.clear();
            members.extend_from_slice(&task.members);
        }
        // Cancellation and deadline are honored at enumeration-node
        // granularity: cheap enough to check per node, fine-grained enough
        // that even a single heavy subtree stops promptly.
        if shared.control.is_cancelled() {
            shared.truncated.store(true, Ordering::Release);
            // The popped node was not expanded: back to the queue it goes
            // (it still holds its `outstanding` slot), so a checkpoint
            // resumes from it. The loop-top stop check drains the rest.
            push_back_current(shared, &chain, &members);
            shared.request_stop();
            continue;
        }
        if shared.checkpointing {
            chain_backup.clear();
            chain_backup.extend_from_slice(&chain);
        }
        let expansion = catch_unwind(AssertUnwindSafe(|| {
            // Fault-injection site for worker-crash drills
            // (`FAILPOINTS=engine::worker=panic@N`).
            regcluster_failpoint::trigger("engine::worker");
            miner.expand_node(
                &mut chain,
                &members,
                &mut scratch,
                &mut children,
                &mut stats,
                shared.observer,
                &mut |view| {
                    // The fingerprint is computed outside the shard lock; the
                    // shard resolves exact membership. Duplicate probes take the
                    // lock but allocate nothing.
                    let fingerprint = view.fingerprint();
                    let shard = &shared.emitted[view.chain[0]];
                    if !lock(shard).insert(fingerprint, view) {
                        return EmitOutcome::Duplicate;
                    }
                    // Fresh: materialize the cluster exactly once and move it
                    // into the sink — no clone anywhere on the emission path
                    // (checkpointing runs add one clone, for the journal).
                    let cluster = view.to_cluster();
                    shared.observer.cluster_emitted(&cluster);
                    if let Some(journal) = &shared.journal {
                        // Journal the cluster only when the sink keeps the
                        // run alive: a refused cluster's node returns to the
                        // frontier un-journaled, so resume re-emits it and
                        // expands the subtree the stop abandoned.
                        let copy = cluster.clone();
                        if shared.sink.accept(cluster) {
                            lock(journal).push(copy);
                            EmitOutcome::Fresh
                        } else {
                            EmitOutcome::FreshAndStop
                        }
                    } else if shared.sink.accept(cluster) {
                        EmitOutcome::Fresh
                    } else {
                        EmitOutcome::FreshAndStop
                    }
                },
            )
        }));
        let stop = match expansion {
            Ok(stop) => stop,
            Err(payload) => {
                // Contain the panic at node granularity: record it, restore
                // the node it consumed (so the final checkpoint still covers
                // its subtree), and shut the run down.
                let mut slot = lock(&shared.panic_msg);
                if slot.is_none() {
                    *slot = Some(panic_message(payload));
                }
                drop(slot);
                push_back_current(shared, &chain_backup, &members);
                shared.request_stop();
                continue;
            }
        };
        if stop {
            // A control-aware sink refuses clusters once cancellation fires
            // mid-send; report that as truncation, not a sink-initiated stop.
            if shared.control.is_cancelled() {
                shared.truncated.store(true, Ordering::Release);
            } else {
                shared.stopped_by_sink.store(true, Ordering::Release);
            }
            // The stop abandoned this node's children before they were
            // materialized; restore the pre-expansion node so a checkpoint
            // re-expands it on resume.
            push_back_current(shared, &chain_backup, &members);
            shared.request_stop();
            continue;
        }
        if !children.index.is_empty() {
            // Count the children as live before retiring the parent so
            // `outstanding` can never dip to 0 while work remains.
            shared
                .outstanding
                .fetch_add(children.index.len(), Ordering::AcqRel);
            // Append in reverse child order: the deque pops from the back,
            // so the first child must be pushed last — it is expanded next
            // (local order stays depth-first) and its arena ranges are
            // topmost, upholding the pop invariant.
            for &child in children.index.iter().rev() {
                let chain_start = chain_arena.len();
                chain_arena.extend_from_slice(&chain);
                chain_arena.push(child.cond);
                let member_start = member_arena.len();
                member_arena.extend_from_slice(children.members_of(child));
                local.push_back(NodeRef {
                    chain_start,
                    chain_len: chain.len() + 1,
                    member_start,
                    member_len: child.len as usize,
                });
            }
            maybe_spill(shared, &mut local, &chain_arena, &member_arena);
        }
        finish_task(shared);
        // Periodic checkpoints: once the leg deadline passes, ask everyone
        // to park. Checked *after* a full node expansion, so every leg makes
        // progress on every worker — even `every = Duration::ZERO` (one node
        // per worker per leg) cannot livelock. Skipped when the tree is
        // already exhausted: termination needs no snapshot.
        if let Some(pause_at) = shared.pause_at {
            if Instant::now() >= pause_at
                && !shared.stop.load(Ordering::Acquire)
                && shared.outstanding.load(Ordering::Acquire) != 0
            {
                shared.paused.store(true, Ordering::Release);
                shared.request_stop();
            }
        }
    }
    stats
}

/// Returns a popped-but-unfinished node to the shared queue (checkpointing
/// runs only). The node keeps the `outstanding` slot it has held since its
/// creation, so the termination counter needs no adjustment.
fn push_back_current(shared: &Shared<'_>, chain: &[CondId], members: &[Member]) {
    if !shared.checkpointing {
        return;
    }
    lock(&shared.queue).push_back(Task {
        chain: chain.to_vec(),
        members: members.to_vec(),
    });
}

/// Moves every pending local node to the shared queue when a checkpointing
/// run stops: once all workers park, the queue holds the complete
/// enumeration frontier for the snapshot. Each node keeps its
/// `outstanding` slot. Non-checkpointing runs skip this — their stop paths
/// simply abandon pending work, as before.
fn drain_local(
    shared: &Shared<'_>,
    local: &mut VecDeque<NodeRef>,
    chain_arena: &[CondId],
    member_arena: &[Member],
) {
    if !shared.checkpointing || local.is_empty() {
        return;
    }
    let mut queue = lock(&shared.queue);
    while let Some(node) = local.pop_front() {
        queue.push_back(Task {
            chain: chain_arena[node.chain_start..node.chain_start + node.chain_len].to_vec(),
            members: member_arena[node.member_start..node.member_start + node.member_len].to_vec(),
        });
    }
}

/// Retires one task; the last retirement wakes every waiter for shutdown.
fn finish_task(shared: &Shared<'_>) {
    if shared.outstanding.fetch_sub(1, Ordering::AcqRel) == 1 {
        // Same discipline as `request_stop`: waiters check `outstanding`
        // under the queue lock before parking, so the notify must be
        // serialized through that lock or the final wakeup can be lost.
        drop(lock(&shared.queue));
        shared.available.notify_all();
    }
}

/// Moves surplus tasks from the front of the local deque (the shallowest,
/// largest pending subtrees) to the shared queue when peers are starving.
///
/// Spilling materializes owned [`Task`]s from the worker's arenas — the one
/// place the steady-state loop allocates, and inherently so: the data must
/// outlive this worker's arenas to cross threads. The spilled nodes' arena
/// ranges become dead; they sit at the arena *bottom* (front-of-deque nodes
/// are the oldest) and are reclaimed when the deque next runs empty.
fn maybe_spill(
    shared: &Shared<'_>,
    local: &mut VecDeque<NodeRef>,
    chain_arena: &[CondId],
    member_arena: &[Member],
) {
    if local.len() <= SPILL_THRESHOLD || shared.waiting.load(Ordering::Relaxed) == 0 {
        return;
    }
    let surplus = local.len() - SPILL_THRESHOLD;
    {
        let mut queue = lock(&shared.queue);
        for _ in 0..surplus {
            if let Some(node) = local.pop_front() {
                queue.push_back(Task {
                    chain: chain_arena[node.chain_start..node.chain_start + node.chain_len]
                        .to_vec(),
                    members: member_arena[node.member_start..node.member_start + node.member_len]
                        .to_vec(),
                });
            }
        }
    }
    shared.available.notify_all();
}

/// Pops from the shared queue, blocking until work appears, the run
/// terminates (`outstanding == 0`), or a stop is requested.
fn steal_or_wait(shared: &Shared<'_>) -> Option<Task> {
    let mut queue = lock(&shared.queue);
    loop {
        if shared.stop.load(Ordering::Acquire) {
            return None;
        }
        if let Some(task) = queue.pop_front() {
            return Some(task);
        }
        if shared.outstanding.load(Ordering::Acquire) == 0 {
            return None;
        }
        // Every signal this loop waits on is serialized through the queue
        // lock held here: spills push under it, and `finish_task` /
        // `request_stop` acquire it between their state change and the
        // notify. A state change therefore lands either before the checks
        // above or after this worker is parked — never in the gap between
        // check and wait, so no wakeup can be lost.
        shared.waiting.fetch_add(1, Ordering::SeqCst);
        queue = shared
            .available
            .wait(queue)
            .unwrap_or_else(PoisonError::into_inner);
        shared.waiting.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MiningParams;
    use regcluster_matrix::ExpressionMatrix;

    #[test]
    fn request_rejects_roots_outside_the_matrix() {
        let m = ExpressionMatrix::from_flat_unlabeled(2, 3, vec![1.0, 2.0, 3.0, 2.0, 3.0, 4.0])
            .unwrap();
        let params = MiningParams::new(2, 2, 0.1, 0.5).unwrap();
        let miner = Miner::new(&m, &params).unwrap();
        let sink = VecSink::new();
        let outside = MineRequest::new(&miner).roots(&[3]).run(&sink);
        assert!(matches!(outside, Err(CoreError::InvalidParams(_))));
        assert!(MineRequest::new(&miner)
            .roots(&[2, 0, 2])
            .run(&sink)
            .is_ok());
    }

    #[test]
    fn control_cancel_and_deadline() {
        let control = MineControl::new();
        assert!(!control.is_cancelled());
        let clone = control.clone();
        clone.cancel();
        assert!(control.is_cancelled(), "cancel propagates through clones");

        let expired = MineControl::with_deadline(Duration::ZERO);
        assert!(expired.is_cancelled());
        let far = MineControl::with_deadline(Duration::from_secs(3600));
        assert!(!far.is_cancelled());
        // An unrepresentable deadline means "never", not "immediately".
        let never = MineControl::with_deadline(Duration::MAX);
        assert!(!never.is_cancelled());
    }

    fn cluster(chain: Vec<CondId>) -> RegCluster {
        RegCluster {
            chain,
            p_members: vec![0, 1],
            n_members: vec![],
        }
    }

    #[test]
    fn vec_sink_collects_everything() {
        let sink = VecSink::new();
        assert!(sink.accept(cluster(vec![0, 1])));
        assert!(sink.accept(cluster(vec![1, 2])));
        assert_eq!(sink.into_clusters().len(), 2);
    }

    #[test]
    fn capped_sink_refuses_past_cap() {
        let sink = CappedSink::new(2);
        assert!(sink.accept(cluster(vec![0, 1])));
        // The cap-filling cluster is kept, but the run is asked to stop.
        assert!(!sink.accept(cluster(vec![1, 2])));
        assert!(!sink.accept(cluster(vec![2, 3])));
        assert_eq!(sink.into_clusters().len(), 2);
    }

    #[test]
    fn streaming_sink_stops_when_receiver_drops() {
        let (sink, rx) = StreamingSink::channel(4);
        assert!(sink.accept(cluster(vec![0, 1])));
        assert_eq!(rx.recv().unwrap().chain, vec![0, 1]);
        drop(rx);
        assert!(!sink.accept(cluster(vec![1, 2])));
    }

    #[test]
    fn report_into_result_maps_truncation_to_cancelled() {
        let complete = MineReport {
            clusters: vec![cluster(vec![0, 1])],
            stats: MiningStats::default(),
            truncated: false,
        };
        assert_eq!(complete.into_result().unwrap().len(), 1);
        let truncated = MineReport {
            clusters: Vec::new(),
            stats: MiningStats::default(),
            truncated: true,
        };
        assert_eq!(truncated.into_result(), Err(CoreError::Cancelled));
    }
}
