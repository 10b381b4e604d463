//! Cluster control-plane instruments, exported on the coordinator's
//! `/metrics` endpoint and catalogued in `docs/OBSERVABILITY.md` (the
//! docs-drift test registers this set and sweeps the doc).

use regcluster_obs::{Counter, MetricsRegistry};

/// Lease grants handed to workers.
pub const LEASES_GRANTED_METRIC: &str = "regcluster_cluster_leases_granted_total";
/// Successful heartbeat renewals.
pub const LEASE_RENEWALS_METRIC: &str = "regcluster_cluster_lease_renewals_total";
/// Leases expired for worker silence and returned to the pool.
pub const LEASES_EXPIRED_METRIC: &str = "regcluster_cluster_leases_expired_total";
/// Shards accepted (validated + durably staged).
pub const SHARDS_UPLOADED_METRIC: &str = "regcluster_cluster_shards_uploaded_total";
/// Shards refused (stale epoch, failed validation, torn upload).
pub const SHARDS_REJECTED_METRIC: &str = "regcluster_cluster_shards_rejected_total";
/// Completed shard merges (one per published generation).
pub const MERGES_METRIC: &str = "regcluster_cluster_merges_total";
/// Control-plane transitions appended to the lease journal.
pub const JOURNAL_RECORDS_METRIC: &str = "regcluster_cluster_journal_records_total";
/// Journal records replayed during coordinator crash-recovery.
pub const JOURNAL_REPLAYED_METRIC: &str = "regcluster_cluster_journal_replayed_total";
/// Torn journal tail bytes truncated away during recovery.
pub const JOURNAL_TRUNCATED_BYTES_METRIC: &str = "regcluster_cluster_journal_truncated_bytes_total";
/// Live leases restored from the journal on restart (their workers keep
/// mining; renews are honored, not fenced).
pub const LEASES_RECOVERED_METRIC: &str = "regcluster_cluster_leases_recovered_total";
/// Connections shed with 503 + `Retry-After` because the server's pool
/// and queue were full.
pub const REQUESTS_SHED_METRIC: &str = "regcluster_cluster_requests_shed_total";

/// Shard-upload attempts that failed to connect (coordinator down or
/// unreachable — retried with backoff).
pub const UPLOAD_CONN_REFUSED_METRIC: &str = "regcluster_cluster_upload_conn_refused_total";
/// Shard-upload attempts answered 503 + `Retry-After` (coordinator up
/// but shedding — retried after the server-chosen delay).
pub const UPLOAD_RETRY_AFTER_METRIC: &str = "regcluster_cluster_upload_retry_after_total";

/// The coordinator's instrument set.
#[derive(Clone)]
pub struct ClusterMetrics {
    /// See [`LEASES_GRANTED_METRIC`].
    pub leases_granted: Counter,
    /// See [`LEASE_RENEWALS_METRIC`].
    pub lease_renewals: Counter,
    /// See [`LEASES_EXPIRED_METRIC`].
    pub leases_expired: Counter,
    /// See [`SHARDS_UPLOADED_METRIC`].
    pub shards_uploaded: Counter,
    /// See [`SHARDS_REJECTED_METRIC`].
    pub shards_rejected: Counter,
    /// See [`MERGES_METRIC`].
    pub merges: Counter,
    /// See [`JOURNAL_RECORDS_METRIC`].
    pub journal_records: Counter,
    /// See [`JOURNAL_REPLAYED_METRIC`].
    pub journal_replayed: Counter,
    /// See [`JOURNAL_TRUNCATED_BYTES_METRIC`].
    pub journal_truncated_bytes: Counter,
    /// See [`LEASES_RECOVERED_METRIC`].
    pub leases_recovered: Counter,
    /// See [`REQUESTS_SHED_METRIC`].
    pub requests_shed: Counter,
}

impl ClusterMetrics {
    /// Registers every cluster instrument in `registry`.
    pub fn register(registry: &MetricsRegistry) -> Self {
        ClusterMetrics {
            leases_granted: registry.counter(
                LEASES_GRANTED_METRIC,
                "Root leases granted to workers",
                &[],
            ),
            lease_renewals: registry.counter(
                LEASE_RENEWALS_METRIC,
                "Lease heartbeat renewals accepted",
                &[],
            ),
            leases_expired: registry.counter(
                LEASES_EXPIRED_METRIC,
                "Leases expired for worker silence and reassigned",
                &[],
            ),
            shards_uploaded: registry.counter(
                SHARDS_UPLOADED_METRIC,
                "Shard uploads accepted after validation",
                &[],
            ),
            shards_rejected: registry.counter(
                SHARDS_REJECTED_METRIC,
                "Shard uploads refused (stale epoch or failed validation)",
                &[],
            ),
            merges: registry.counter(
                MERGES_METRIC,
                "Completed shard merges into a published generation",
                &[],
            ),
            journal_records: registry.counter(
                JOURNAL_RECORDS_METRIC,
                "Control-plane transitions appended to the lease journal",
                &[],
            ),
            journal_replayed: registry.counter(
                JOURNAL_REPLAYED_METRIC,
                "Journal records replayed during crash-recovery",
                &[],
            ),
            journal_truncated_bytes: registry.counter(
                JOURNAL_TRUNCATED_BYTES_METRIC,
                "Torn journal tail bytes truncated during recovery",
                &[],
            ),
            leases_recovered: registry.counter(
                LEASES_RECOVERED_METRIC,
                "Live leases restored from the journal on restart",
                &[],
            ),
            requests_shed: registry.counter(
                REQUESTS_SHED_METRIC,
                "Connections shed with 503 because the accept queue was full",
                &[],
            ),
        }
    }
}

/// The worker's instrument set. Workers expose no `/metrics` endpoint;
/// these counters back the end-of-run [`WorkerReport`](crate::WorkerReport)
/// and exist as a registry set so the docs-drift test catalogues them.
#[derive(Clone)]
pub struct WorkerMetrics {
    /// See [`UPLOAD_CONN_REFUSED_METRIC`].
    pub upload_conn_refused: Counter,
    /// See [`UPLOAD_RETRY_AFTER_METRIC`].
    pub upload_retry_after: Counter,
}

impl WorkerMetrics {
    /// Registers every worker instrument in `registry`.
    pub fn register(registry: &MetricsRegistry) -> Self {
        WorkerMetrics {
            upload_conn_refused: registry.counter(
                UPLOAD_CONN_REFUSED_METRIC,
                "Shard uploads that could not connect to the coordinator",
                &[],
            ),
            upload_retry_after: registry.counter(
                UPLOAD_RETRY_AFTER_METRIC,
                "Shard uploads answered 503 with Retry-After (shed)",
                &[],
            ),
        }
    }
}
