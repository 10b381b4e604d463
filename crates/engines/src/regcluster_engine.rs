//! The reg-cluster miner behind the [`BiclusterEngine`] contract.

use regcluster_core::{
    BiclusterEngine, ClusterSink, CoreError, EngineReport, MineControl, MineRequest, Miner,
    MiningParams, SyncMineObserver,
};
use regcluster_matrix::ExpressionMatrix;

/// The paper's shifting-and-scaling miner as an engine.
///
/// This is a thin wrapper over [`Miner`] + [`MineRequest::run`]: it
/// streams every validated reg-cluster in canonical depth-first order.
/// The post-filters carried by [`MiningParams`] (`maximal_only`,
/// `max_clusters`) need the full result set and therefore do **not** apply
/// on the streaming path — collect and run
/// [`finalize_clusters`](regcluster_core::finalize_clusters) downstream,
/// exactly as the CLI's `mine` pipeline does.
#[derive(Debug, Clone)]
pub struct RegClusterEngine {
    params: MiningParams,
    threads: usize,
}

impl RegClusterEngine {
    /// Creates the engine.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParams`] when `params` fail validation
    /// or `threads` is zero.
    pub fn new(params: MiningParams, threads: usize) -> Result<Self, CoreError> {
        params.validate()?;
        if threads == 0 {
            return Err(CoreError::InvalidParams("threads must be ≥ 1".into()));
        }
        Ok(Self { params, threads })
    }

    /// The mining parameters this engine runs with.
    pub fn params(&self) -> &MiningParams {
        &self.params
    }
}

impl BiclusterEngine for RegClusterEngine {
    fn name(&self) -> &str {
        "reg-cluster"
    }

    fn params_json(&self) -> String {
        serde_json::to_string(&self.params).expect("MiningParams always serializes")
    }

    fn run(
        &self,
        matrix: &ExpressionMatrix,
        sink: &dyn ClusterSink,
        control: &MineControl,
        observer: &dyn SyncMineObserver,
    ) -> Result<EngineReport, CoreError> {
        let miner = Miner::new(matrix, &self.params)?;
        let request = MineRequest::new(&miner).threads(self.threads);
        let (report, _) = request.control(control).observer(observer).run(sink)?;
        Ok(report.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regcluster_core::{NoopObserver, VecSink};

    #[test]
    fn mines_the_running_example_through_the_trait() {
        let matrix = regcluster_datagen::running_example();
        let engine = RegClusterEngine::new(MiningParams::new(3, 5, 0.15, 0.1).unwrap(), 1).unwrap();
        let sink = VecSink::new();
        let report = engine
            .run(&matrix, &sink, &MineControl::new(), &NoopObserver)
            .unwrap();
        let clusters = sink.into_clusters();
        assert_eq!(report.n_emitted, 1);
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].chain, vec![6, 8, 4, 0, 2]);
        assert_eq!(clusters[0].p_members, vec![0, 2]);
        assert_eq!(clusters[0].n_members, vec![1]);
        assert!(!report.truncated);
        assert!(report.stats.is_some());
    }

    #[test]
    fn precancelled_control_truncates() {
        let matrix = regcluster_datagen::running_example();
        let engine = RegClusterEngine::new(MiningParams::new(3, 5, 0.15, 0.1).unwrap(), 1).unwrap();
        let control = MineControl::new();
        control.cancel();
        let sink = VecSink::new();
        let report = engine.run(&matrix, &sink, &control, &NoopObserver).unwrap();
        assert!(report.truncated);
    }

    #[test]
    fn invalid_params_are_rejected_at_construction() {
        assert!(RegClusterEngine::new(MiningParams::new(3, 5, 0.15, 0.1).unwrap(), 0).is_err());
    }
}
