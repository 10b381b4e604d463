//! Distributed mining cluster for reg-cluster enumeration.
//!
//! The enumeration tree is embarrassingly partitionable by root
//! condition: a subtree's output depends only on the mining parameters
//! and its root's member rows, and subtree outputs are disjoint by root
//! (the delta-soundness argument in `regcluster_core::delta`). This
//! crate exploits that to scale mining past one machine:
//!
//! * a **coordinator** ([`run_coordinator`]) partitions the root space,
//!   leases contiguous ranges to workers over a dependency-free HTTP
//!   control plane, validates and stages uploaded shards, merges them
//!   **bit-identically** to a single-node run
//!   ([`regcluster_store::merge_shards`]) and publishes the result as
//!   the next [`Generations`](regcluster_store::Generations) lineage
//!   entry, which replica `serve --watch` processes hot-swap onto;
//! * a **worker** ([`run_worker`]) mines leased ranges through the same
//!   [`pipeline`] as `regcluster mine`, heartbeats to keep its lease,
//!   survives its own crashes by resuming from per-lease checkpoints,
//!   and uploads sealed shards.
//!
//! Failure handling is lease-based: a silent or crashed worker's lease
//! expires and the range is granted to the next worker, which resumes
//! from nothing (fresh mine) while the crashed worker's eventual
//! comeback is fenced off by the lease epoch. The fault matrix is
//! exercised end-to-end by the scripted multi-process harness in
//! `crates/cli/tests/cluster_harness/`.

pub mod backoff;
pub mod coordinator;
pub mod error;
pub mod http;
pub mod metrics;
pub mod pipeline;
pub mod protocol;
pub mod worker;

pub use backoff::Backoff;
pub use coordinator::{run_coordinator, CoordinatorConfig, CoordinatorReport, CLUSTER_ENGINE};
pub use error::ClusterError;
pub use http::HttpReply;
pub use metrics::{ClusterMetrics, WorkerMetrics};
pub use protocol::{AcquireRequest, AcquireResponse, JobInfo, RenewRequest, StatusDoc};
pub use worker::{run_worker, WorkerConfig, WorkerReport};
