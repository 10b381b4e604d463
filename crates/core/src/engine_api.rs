//! The [`BiclusterEngine`] trait: one uniform contract for every mining
//! algorithm in the workspace.
//!
//! The reg-cluster miner and the baseline algorithms historically had
//! different shapes — the miner streams [`RegCluster`]s through
//! [`ClusterSink`]s with cancellation and observers, while the baselines
//! were plain `fn(matrix, params) -> Vec<Bicluster>` with none of that.
//! This trait makes every algorithm a first-class *engine* behind the same
//! pipeline: it takes a matrix, streams its output clusters into a sink,
//! honors a [`MineControl`] (cancellation and deadlines), reports
//! enumeration events to a [`SyncMineObserver`], and returns an
//! [`EngineReport`] describing how the run ended.
//!
//! Engines that have no native chain/orientation semantics (the plain
//! bicluster baselines) convert their output into [`RegCluster`]s with the
//! condition set as an ascending chain, all genes as `p_members`, and no
//! `n_members` — a lossless embedding that lets one store/query/serve
//! layer handle every engine's output. The conversion is the adapter's
//! job (see the `regcluster-engines` crate); this module only fixes the
//! contract.
//!
//! ```
//! use regcluster_core::{
//!     BiclusterEngine, ClusterSink, CoreError, EngineReport, MineControl, RegCluster,
//!     SyncMineObserver, VecSink,
//! };
//! use regcluster_matrix::ExpressionMatrix;
//!
//! /// A toy engine that reports the whole matrix as one cluster.
//! struct WholeMatrix;
//!
//! impl BiclusterEngine for WholeMatrix {
//!     fn name(&self) -> &str {
//!         "whole-matrix"
//!     }
//!     fn params_json(&self) -> String {
//!         "{}".into()
//!     }
//!     fn run(
//!         &self,
//!         matrix: &ExpressionMatrix,
//!         sink: &dyn ClusterSink,
//!         control: &MineControl,
//!         observer: &dyn SyncMineObserver,
//!     ) -> Result<EngineReport, CoreError> {
//!         if control.is_cancelled() {
//!             return Ok(EngineReport::interrupted(0));
//!         }
//!         let cluster = RegCluster {
//!             chain: (0..matrix.n_conditions()).collect(),
//!             p_members: (0..matrix.n_genes()).collect(),
//!             n_members: vec![],
//!         };
//!         observer.cluster_emitted(&cluster);
//!         let accepted = sink.accept(cluster);
//!         Ok(EngineReport::completed(1).with_stopped_by_sink(!accepted))
//!     }
//! }
//!
//! let m = ExpressionMatrix::from_flat_unlabeled(2, 3, vec![1.0; 6]).unwrap();
//! let sink = VecSink::new();
//! let report = WholeMatrix
//!     .run(&m, &sink, &MineControl::new(), &regcluster_core::NoopObserver)
//!     .unwrap();
//! assert_eq!(report.n_emitted, 1);
//! assert!(!report.truncated);
//! ```

use regcluster_matrix::ExpressionMatrix;

#[cfg(doc)]
use crate::cluster::RegCluster;
use crate::engine::{ClusterSink, MineControl, StreamReport};
use crate::error::CoreError;
use crate::observer::{MiningStats, SyncMineObserver};

/// How an engine run ended, and how much it produced.
///
/// The clusters themselves went to the sink; the report carries only the
/// run's shape so callers can tell a complete result from a partial one.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineReport {
    /// Clusters the engine offered to the sink (accepted or not).
    pub n_emitted: usize,
    /// The run was stopped by [`MineControl`] (cancellation or deadline)
    /// before the search was exhausted; the sink holds a partial set.
    pub truncated: bool,
    /// The sink refused a cluster, stopping the run early.
    pub stopped_by_sink: bool,
    /// Search-effort counters, for engines that track them (the
    /// reg-cluster miner); `None` for engines without a node/prune notion.
    pub stats: Option<MiningStats>,
}

impl From<StreamReport> for EngineReport {
    /// The report of a reg-cluster [`MineRequest`](crate::MineRequest) run.
    fn from(stream: StreamReport) -> Self {
        EngineReport {
            n_emitted: stream.stats.emitted,
            truncated: stream.truncated,
            stopped_by_sink: stream.stopped_by_sink,
            stats: Some(stream.stats),
        }
    }
}

impl EngineReport {
    /// A report for a run that exhausted its search space.
    pub fn completed(n_emitted: usize) -> Self {
        EngineReport {
            n_emitted,
            ..EngineReport::default()
        }
    }

    /// A report for a run stopped early by its [`MineControl`].
    pub fn interrupted(n_emitted: usize) -> Self {
        EngineReport {
            n_emitted,
            truncated: true,
            ..EngineReport::default()
        }
    }

    /// Sets the `stopped_by_sink` flag.
    #[must_use]
    pub fn with_stopped_by_sink(mut self, stopped: bool) -> Self {
        self.stopped_by_sink = stopped;
        self
    }

    /// Attaches search-effort counters.
    #[must_use]
    pub fn with_stats(mut self, stats: MiningStats) -> Self {
        self.stats = Some(stats);
        self
    }
}

/// A biclustering algorithm behind the uniform pipeline contract.
///
/// Implementations must uphold three behavioural rules so the layers above
/// (CLI dispatch, `.rcs` stores, benches) can treat engines uniformly:
///
/// 1. **Streaming** — every produced cluster is offered to `sink` exactly
///    once, as a [`RegCluster`] whose ids index into `matrix`. When the
///    sink returns `false`, stop promptly and report
///    [`EngineReport::stopped_by_sink`].
/// 2. **Cancellation** — poll [`MineControl::is_cancelled`] at least once
///    per outer unit of work (candidate batch, iteration, subtree) and
///    return an [`EngineReport`] with `truncated` set rather than an error
///    when it trips. A pre-cancelled control (deadline 0) must return
///    before doing significant work.
/// 3. **Observation** — report each emitted cluster through
///    [`SyncMineObserver::cluster_emitted`]; engines with a search tree
///    also report `node_entered`/`pruned`.
pub trait BiclusterEngine: Sync {
    /// Stable engine name, as used by `mine --engine <name>` and recorded
    /// in store provenance (kebab-case, e.g. `"cheng-church"`).
    fn name(&self) -> &str;

    /// The engine's parameters as a JSON object, recorded verbatim in
    /// store provenance and run summaries.
    fn params_json(&self) -> String;

    /// Mines `matrix`, streaming every produced cluster into `sink`.
    ///
    /// # Errors
    ///
    /// Returns a [`CoreError`] only for failures that make the run
    /// meaningless (invalid parameters for this matrix, worker panics).
    /// Cancellation is **not** an error: it yields `Ok` with
    /// [`EngineReport::truncated`] set.
    fn run(
        &self,
        matrix: &ExpressionMatrix,
        sink: &dyn ClusterSink,
        control: &MineControl,
        observer: &dyn SyncMineObserver,
    ) -> Result<EngineReport, CoreError>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::VecSink;
    use crate::observer::NoopObserver;

    struct Nop;

    impl BiclusterEngine for Nop {
        fn name(&self) -> &str {
            "nop"
        }
        fn params_json(&self) -> String {
            "{}".into()
        }
        fn run(
            &self,
            _matrix: &ExpressionMatrix,
            _sink: &dyn ClusterSink,
            control: &MineControl,
            _observer: &dyn SyncMineObserver,
        ) -> Result<EngineReport, CoreError> {
            if control.is_cancelled() {
                return Ok(EngineReport::interrupted(0));
            }
            Ok(EngineReport::completed(0))
        }
    }

    #[test]
    fn report_builders_set_flags() {
        let r = EngineReport::completed(3);
        assert_eq!(r.n_emitted, 3);
        assert!(!r.truncated && !r.stopped_by_sink && r.stats.is_none());
        let r = EngineReport::interrupted(1).with_stopped_by_sink(true);
        assert!(r.truncated && r.stopped_by_sink);
        let r = EngineReport::completed(0).with_stats(MiningStats::default());
        assert!(r.stats.is_some());
    }

    #[test]
    fn trait_objects_work_and_honor_precancelled_control() {
        let engine: Box<dyn BiclusterEngine> = Box::new(Nop);
        assert_eq!(engine.name(), "nop");
        let m = ExpressionMatrix::from_flat_unlabeled(1, 2, vec![0.0, 1.0]).unwrap();
        let control = MineControl::new();
        control.cancel();
        let sink = VecSink::new();
        let report = engine.run(&m, &sink, &control, &NoopObserver).unwrap();
        assert!(report.truncated);
    }
}
