#![warn(missing_docs)]

//! The **reg-cluster** model and mining algorithm.
//!
//! This crate implements the primary contribution of Xu, Lu, Tung & Wang,
//! *Mining Shifting-and-Scaling Co-Regulation Patterns on Gene Expression
//! Profiles* (ICDE 2006): a biclustering model in which the expression
//! profiles of all member genes over an ordered chain of conditions are
//! related by `d_i = s1 · d_j + s2` — an arbitrary shifting-and-scaling
//! transform whose scaling factor `s1` may be **negative**, capturing
//! anti-correlated (negatively co-regulated) genes — subject to two
//! constraints:
//!
//! * a **regulation constraint** `γ`: every adjacent pair of chain conditions
//!   differs by more than the per-gene threshold `γ_i` (by default
//!   `γ · range(g_i)`, Equation 4 of the paper), enforced through the
//!   [`rwave::RWaveModel`] index of Definition 3.1; and
//! * a **coherence constraint** `ε`: the normalized step ratios
//!   ([`coherence::h_score`], Equation 7) of all member genes agree within
//!   `ε` on every adjacent chain pair, which by Lemma 3.2 is necessary and
//!   sufficient for the shifting-and-scaling relationship.
//!
//! # Quick start
//!
//! ```
//! use regcluster_matrix::ExpressionMatrix;
//! use regcluster_core::{mine, MiningParams};
//!
//! // Table 1 of the paper (the "running dataset").
//! let matrix = ExpressionMatrix::from_rows(
//!     vec!["g1".into(), "g2".into(), "g3".into()],
//!     (1..=10).map(|i| format!("c{i}")).collect(),
//!     vec![
//!         vec![10.0, -14.5, 15.0, 10.5, 0.0, 14.5, -15.0, 0.0, -5.0, -5.0],
//!         vec![20.0, 15.0, 15.0, 43.5, 30.0, 44.0, 45.0, 43.0, 35.0, 20.0],
//!         vec![6.0, -3.8, 8.0, 6.2, 2.0, 7.8, -4.0, 2.0, 0.0, 0.0],
//!     ],
//! )
//! .unwrap();
//!
//! let params = MiningParams::new(3, 5, 0.15, 0.1).unwrap();
//! let clusters = mine(&matrix, &params).unwrap();
//!
//! // The unique reg-cluster of the running example: chain c7 ↰ c9 ↰ c5 ↰ c1 ↰ c3
//! // with p-members {g1, g3} and n-member {g2} (Figures 2 and 6).
//! assert_eq!(clusters.len(), 1);
//! let c = &clusters[0];
//! assert_eq!(c.chain, vec![6, 8, 4, 0, 2]);
//! assert_eq!(c.p_members, vec![0, 2]);
//! assert_eq!(c.n_members, vec![1]);
//! ```

mod error;
mod intern;
mod scratch;

pub mod bitset;
pub mod chain;
pub mod checkpoint;
pub mod cluster;
pub mod coherence;
pub mod delta;
pub mod engine;
pub mod engine_api;
pub mod metrics;
pub mod miner;
pub mod observer;
pub mod params;
pub mod partition;
pub mod postprocess;
pub mod rwave;
pub mod tables;
pub mod threshold;

pub use chain::RegulationChain;
pub use checkpoint::{
    matrix_fingerprint, CheckpointPlan, CheckpointReport, CheckpointSink, EngineCheckpoint,
    MemoryCheckpointSink, PendingMember, PendingNode,
};
pub use cluster::{RegCluster, ValidationError};
pub use delta::{classify_roots, gene_fingerprints, root_fingerprints, DeltaPlan};
pub use engine::{
    mine_prepared_roots_to_sink, mine_prepared_to_sink, CappedSink, ClusterSink, EngineConfig,
    MineControl, MineReport, MineRequest, StreamReport, StreamingSink, VecSink,
};
pub use engine_api::{BiclusterEngine, EngineReport};
pub use error::CoreError;
pub use metrics::MetricsObserver;
pub use miner::{finalize_clusters, mine, mine_with_observer, Miner};
pub use observer::{
    MineObserver, MiningStats, NoopObserver, PruneRule, SyncMineObserver, TraceEvent, TraceObserver,
};
pub use params::MiningParams;
pub use partition::{partition_roots, range_roots};
pub use threshold::RegulationThreshold;
