//! Name-keyed engine construction: the dispatch table behind
//! `mine --engine <name>`.

use regcluster_baselines::{
    ChengChurchParams, FlocParams, MicroClusterParams, OpClusterParams, OpsmParams, PClusterParams,
};
use regcluster_core::{BiclusterEngine, CoreError, MiningParams};

use crate::adapters::{
    ChengChurchEngine, FlocEngine, MicroClusterEngine, OpClusterEngine, OpsmEngine, PClusterEngine,
    ScalingEngine,
};
use crate::boolean::{BooleanEngine, BooleanParams};
use crate::regcluster_engine::RegClusterEngine;

/// Every engine name the registry can build, in presentation order.
pub const ENGINE_NAMES: [&str; 9] = [
    "reg-cluster",
    "pcluster",
    "scaling",
    "cheng-church",
    "floc",
    "opsm",
    "op-cluster",
    "microcluster",
    "boolean",
];

/// The uniform knob set an engine is built from.
///
/// Each engine maps the fields it understands onto its native parameters
/// and ignores the rest: `gamma`/`epsilon` only drive `reg-cluster`,
/// `delta` is the tolerance knob of the baselines (pScore δ, residue δ,
/// ratio ε, similarity-group multiplier, or quantization step,
/// engine-dependent) and defaults to each engine's conventional value
/// when `None`. `min_conds` doubles as OPSM's model size.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineSpec {
    /// Minimum genes per cluster.
    pub min_genes: usize,
    /// Minimum conditions (chain length / sequence length / model size).
    pub min_conds: usize,
    /// Reg-cluster regulation threshold γ (fraction of per-gene range).
    pub gamma: f64,
    /// Reg-cluster coherence threshold ε.
    pub epsilon: f64,
    /// Baseline tolerance (δ / ε / quantization step); engine-conventional
    /// default when `None`.
    pub delta: Option<f64>,
    /// Worker threads (reg-cluster only; the baselines are sequential).
    pub threads: usize,
    /// Deterministic seed for the stochastic engines (FLOC, Cheng–Church).
    pub seed: u64,
    /// Cap on reported clusters (reg-cluster only; post-filter).
    pub max_clusters: Option<usize>,
    /// Keep only maximal clusters (reg-cluster only; post-filter).
    pub maximal_only: bool,
}

impl Default for EngineSpec {
    fn default() -> Self {
        Self {
            min_genes: 5,
            min_conds: 3,
            gamma: 0.05,
            epsilon: 1.0,
            delta: None,
            threads: 1,
            seed: 0,
            max_clusters: None,
            maximal_only: false,
        }
    }
}

/// Builds the engine registered under `name`.
///
/// # Errors
///
/// Returns [`CoreError::InvalidParams`] for an unknown name (the message
/// lists every known one) or when the spec is out of domain for the
/// selected engine.
pub fn build_engine(name: &str, spec: &EngineSpec) -> Result<Box<dyn BiclusterEngine>, CoreError> {
    let delta = |default: f64| spec.delta.unwrap_or(default);
    match name {
        "reg-cluster" => {
            let mut params =
                MiningParams::new(spec.min_genes, spec.min_conds, spec.gamma, spec.epsilon)?;
            if let Some(cap) = spec.max_clusters {
                params = params.with_max_clusters(cap);
            }
            if spec.maximal_only {
                params = params.with_maximal_only();
            }
            Ok(Box::new(RegClusterEngine::new(params, spec.threads)?))
        }
        "pcluster" => Ok(Box::new(PClusterEngine::new(PClusterParams {
            delta: delta(0.1),
            min_genes: spec.min_genes,
            min_conds: spec.min_conds,
            ..Default::default()
        })?)),
        "scaling" => Ok(Box::new(ScalingEngine::new(PClusterParams {
            delta: delta(0.05),
            min_genes: spec.min_genes,
            min_conds: spec.min_conds,
            ..Default::default()
        })?)),
        "cheng-church" => Ok(Box::new(ChengChurchEngine::new(ChengChurchParams {
            delta: delta(0.5),
            seed: spec.seed,
            ..Default::default()
        })?)),
        "floc" => Ok(Box::new(FlocEngine::new(FlocParams {
            delta: delta(0.5),
            min_genes: spec.min_genes,
            min_conds: spec.min_conds,
            seed: spec.seed,
            ..Default::default()
        })?)),
        "opsm" => Ok(Box::new(OpsmEngine::new(OpsmParams {
            size: spec.min_conds,
            min_genes: spec.min_genes,
            ..Default::default()
        })?)),
        "op-cluster" => Ok(Box::new(OpClusterEngine::new(OpClusterParams {
            group_multiplier: delta(1.0),
            min_genes: spec.min_genes,
            min_conds: spec.min_conds,
            ..Default::default()
        })?)),
        "microcluster" => Ok(Box::new(MicroClusterEngine::new(MicroClusterParams {
            epsilon: delta(0.01),
            min_genes: spec.min_genes,
            min_conds: spec.min_conds,
            ..Default::default()
        })?)),
        "boolean" => Ok(Box::new(BooleanEngine::new(BooleanParams {
            delta: delta(0.1),
            min_genes: spec.min_genes,
            min_conds: spec.min_conds,
            ..Default::default()
        })?)),
        other => Err(CoreError::InvalidParams(format!(
            "unknown engine {other:?}; known engines: {}",
            ENGINE_NAMES.join(", ")
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regcluster_core::{MineControl, NoopObserver, VecSink};

    #[test]
    fn every_registered_name_builds_and_reports_its_own_name() {
        let spec = EngineSpec {
            min_genes: 2,
            min_conds: 2,
            ..EngineSpec::default()
        };
        for name in ENGINE_NAMES {
            let engine = build_engine(name, &spec)
                .unwrap_or_else(|e| panic!("engine {name} failed to build: {e}"));
            assert_eq!(engine.name(), name);
            // Every params_json is a parseable JSON object.
            let json = engine.params_json();
            serde_json::from_str::<serde_json::Value>(&json)
                .unwrap_or_else(|e| panic!("{name} params_json invalid: {e} in {json}"));
        }
    }

    #[test]
    fn unknown_names_error_with_the_catalogue() {
        let msg = match build_engine("kmeans", &EngineSpec::default()) {
            Ok(_) => panic!("unknown engine must not build"),
            Err(e) => format!("{e}"),
        };
        assert!(msg.contains("kmeans") && msg.contains("reg-cluster") && msg.contains("boolean"));
    }

    #[test]
    fn opsm_model_size_comes_from_min_conds() {
        let spec = EngineSpec {
            min_genes: 2,
            min_conds: 1, // too small for an OPSM model
            ..EngineSpec::default()
        };
        assert!(build_engine("opsm", &spec).is_err());
    }

    #[test]
    fn built_engines_run_on_the_running_example() {
        let matrix = regcluster_datagen::running_example();
        let spec = EngineSpec {
            min_genes: 2,
            min_conds: 2,
            ..EngineSpec::default()
        };
        for name in ENGINE_NAMES {
            // The running example has negative values; the positive-only
            // engines must reject it cleanly rather than panic.
            let engine = build_engine(name, &spec).unwrap();
            let sink = VecSink::new();
            match engine.run(&matrix, &sink, &MineControl::new(), &NoopObserver) {
                Ok(report) => assert_eq!(report.n_emitted, sink.into_clusters().len(), "{name}"),
                Err(e) => assert!(name == "scaling", "{name} errored unexpectedly: {e}"),
            }
        }
    }
}
