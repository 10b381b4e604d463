//! Error type shared by the coordinator, the worker and the mine pipeline.

use std::fmt;

use regcluster_core::CoreError;
use regcluster_matrix::MatrixError;
use regcluster_store::StoreError;

/// Anything that can go wrong while coordinating or mining in a cluster.
#[derive(Debug)]
pub enum ClusterError {
    /// Socket / filesystem failure.
    Io(std::io::Error),
    /// Input matrix unreadable or malformed.
    Matrix(MatrixError),
    /// Mining-engine failure.
    Core(CoreError),
    /// Shard or generation store failure.
    Store(StoreError),
    /// A malformed or incompatible wire message, or a protocol-level
    /// refusal that the caller cannot retry away (e.g. a params mismatch
    /// between worker and coordinator).
    Protocol(String),
    /// Inputs that cannot be mined together as asked, such as a delta
    /// base store of a different problem; the message says why.
    Input(String),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Io(e) => write!(f, "i/o error: {e}"),
            ClusterError::Matrix(e) => write!(f, "matrix error: {e}"),
            ClusterError::Core(e) => write!(f, "mining error: {e}"),
            ClusterError::Store(e) => write!(f, "store error: {e}"),
            ClusterError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClusterError::Input(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<std::io::Error> for ClusterError {
    fn from(e: std::io::Error) -> Self {
        ClusterError::Io(e)
    }
}

impl From<MatrixError> for ClusterError {
    fn from(e: MatrixError) -> Self {
        ClusterError::Matrix(e)
    }
}

impl From<CoreError> for ClusterError {
    fn from(e: CoreError) -> Self {
        ClusterError::Core(e)
    }
}

impl From<StoreError> for ClusterError {
    fn from(e: StoreError) -> Self {
        ClusterError::Store(e)
    }
}

impl From<serde_json::Error> for ClusterError {
    fn from(e: serde_json::Error) -> Self {
        ClusterError::Protocol(e.to_string())
    }
}
