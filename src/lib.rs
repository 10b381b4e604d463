#![warn(missing_docs)]

//! # regcluster
//!
//! A Rust reproduction of Xu, Lu, Tung & Wang, *Mining Shifting-and-Scaling
//! Co-Regulation Patterns on Gene Expression Profiles* (ICDE 2006).
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`matrix`] — the expression-matrix substrate (storage, I/O, transforms,
//!   missing values);
//! * [`core`] — the reg-cluster model and miner (`RWave^γ` models,
//!   coherence, bi-directional depth-first chain enumeration);
//! * [`datagen`] — dataset generators (running example, the paper's
//!   synthetic generator, simulated yeast benchmark, synthetic GO database);
//! * [`baselines`] — the prior-work algorithms the paper compares against
//!   (Cheng–Church, pCluster, log-space scaling miner, OPSM);
//! * [`engines`] — every algorithm behind the uniform
//!   [`BiclusterEngine`](regcluster_core::BiclusterEngine) contract, plus
//!   a name-keyed registry (`mine --engine <name>` dispatch);
//! * [`eval`] — evaluation (recovery/relevance match scores, overlap
//!   statistics, GO enrichment, reports);
//! * [`store`] — the indexed on-disk `.rcs` cluster store (streaming
//!   writer sink, checksum-verified reader, by-gene/by-condition queries);
//! * [`cluster`] — the distributed mining cluster (coordinator/worker
//!   root-leasing over HTTP, bit-identical shard merge into generations;
//!   the `regcluster coordinator` / `regcluster worker` subcommands);
//! * [`obs`] — dependency-free telemetry (lock-free metrics registry,
//!   phase spans, Prometheus/JSON exposition; the metric catalogue is
//!   documented in `docs/OBSERVABILITY.md`).
//!
//! The most common entry point:
//!
//! ```
//! use regcluster::prelude::*;
//!
//! let matrix = regcluster::datagen::running_example();
//! let params = MiningParams::new(3, 5, 0.15, 0.1).unwrap();
//! let clusters = mine(&matrix, &params).unwrap();
//! assert_eq!(clusters.len(), 1);
//! ```

pub use regcluster_baselines as baselines;
pub use regcluster_cluster as cluster;
pub use regcluster_core as core;
pub use regcluster_datagen as datagen;
pub use regcluster_engines as engines;
pub use regcluster_eval as eval;
pub use regcluster_matrix as matrix;
pub use regcluster_obs as obs;
pub use regcluster_store as store;

/// The names needed by almost every user of the library.
pub mod prelude {
    pub use regcluster_core::{
        mine, mine_with_observer, MineControl, MineRequest, Miner, MiningParams, RegCluster,
        RegulationThreshold,
    };
    pub use regcluster_matrix::ExpressionMatrix;
}
