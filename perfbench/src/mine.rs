//! The mine path: `regcluster mine` end to end, and the same steps one
//! layer at a time for the traced run.

use std::path::{Path, PathBuf};
use std::time::Instant;

use regcluster_cli::{parse_args, Command};
use regcluster_core::{
    finalize_clusters, matrix_fingerprint, mine_prepared_to_sink, root_fingerprints, EngineConfig,
    MineControl, Miner, MiningParams, NoopObserver, VecSink,
};
use regcluster_datagen::generate;
use regcluster_matrix::io::{read_matrix_file, write_matrix_file};
use regcluster_store::{StoreProvenance, StoreWriter};

use crate::inputs::Spec;
use crate::trace::Scope;

/// A generated matrix file, its mining parameters, and the store a
/// correct mine of it seals.
pub struct Input {
    pub matrix: PathBuf,
    pub spec: Spec,
    pub params: MiningParams,
    /// The sealed store every mine, merge and cluster op must reproduce
    /// byte for byte.
    pub reference: Vec<u8>,
    pub reference_path: PathBuf,
}

/// What one layer-by-layer mine did.
#[derive(Debug, Clone, Copy)]
pub struct Pipeline {
    /// Enumeration-tree nodes visited.
    pub nodes: usize,
    /// Clusters sealed into the store.
    pub clusters: usize,
    /// Size of the sealed store.
    pub bytes: u64,
}

impl Input {
    /// Generates the dataset of `spec` into `dir` and seals the reference
    /// store through the library pipeline.
    pub fn setup(spec: Spec, dir: &Path) -> Result<Input, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let data = generate(&spec.data).map_err(|e| format!("generate: {e}"))?;
        let matrix = dir.join("matrix.tsv");
        write_matrix_file(&data.matrix, &matrix).map_err(|e| format!("write matrix: {e}"))?;
        drop(data);
        // The CLI's own parser yields the parameters, so the library
        // pipeline mines under exactly what `regcluster mine` would.
        let params = match parse_args(&spec.mine_args(&matrix, Path::new("unused.rcs"))) {
            Ok(Command::Mine { params, .. }) => params,
            other => return Err(format!("mine arguments parse to {other:?}")),
        };
        let mut input = Input {
            reference_path: dir.join("reference.rcs"),
            matrix,
            spec,
            params,
            reference: Vec::new(),
        };
        input.pipeline(&input.reference_path, Scope::OFF)?;
        input.reference = std::fs::read(&input.reference_path)
            .map_err(|e| format!("read reference store: {e}"))?;
        Ok(input)
    }

    /// One `regcluster mine` op sealing `out`: its milliseconds, and
    /// whether the store matches the reference.
    pub fn cli_mine(&self, out: &Path) -> (f64, Result<(), String>) {
        let _ = std::fs::remove_file(out);
        let command = match parse_args(&self.spec.mine_args(&self.matrix, out)) {
            Ok(c) => c,
            Err(e) => return (0.0, Err(format!("mine arguments: {}", e.0))),
        };
        let started = Instant::now();
        let ran = regcluster_cli::run(&command);
        let ms = started.elapsed().as_secs_f64() * 1e3;
        let outcome = ran
            .map_err(|e| format!("mine: {e}"))
            .and_then(|_| self.check(out));
        let _ = std::fs::remove_file(out);
        (ms, outcome)
    }

    /// Whether the store at `path` is byte-identical to the reference.
    pub fn check(&self, path: &Path) -> Result<(), String> {
        let bytes = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        if bytes == self.reference {
            Ok(())
        } else {
            Err(format!(
                "{} ({} bytes) differs from the reference store ({} bytes)",
                path.display(),
                bytes.len(),
                self.reference.len()
            ))
        }
    }

    /// Mines the matrix file into a sealed store at `out` one public
    /// entry point at a time, as `regcluster mine --store` does, timing
    /// each step under `scope`.
    pub fn pipeline(&self, out: &Path, scope: Scope<'_>) -> Result<Pipeline, String> {
        let params = &self.params;
        let m = scope
            .time("matrix.load", || read_matrix_file(&self.matrix))
            .map_err(|e| format!("load: {e}"))?;
        let miner = scope
            .time("core.index_build", || Miner::new(&m, params))
            .map_err(|e| format!("index build: {e}"))?;
        let provenance = scope.time("core.fingerprint", || StoreProvenance {
            engine: Some("reg-cluster".to_string()),
            engine_params: serde_json::to_string(params).ok(),
            generation: 0,
            matrix_fingerprint: Some(matrix_fingerprint(&m)),
            root_fingerprints: Some(root_fingerprints(&miner)),
        });
        let sink = VecSink::new();
        let report = scope
            .time("core.enumerate", || {
                mine_prepared_to_sink(
                    &miner,
                    &EngineConfig::new(self.spec.threads),
                    &MineControl::new(),
                    &NoopObserver,
                    &sink,
                )
            })
            .map_err(|e| format!("enumerate: {e}"))?;
        let mut clusters = sink.into_clusters();
        scope.time("core.postprocess", || {
            finalize_clusters(&mut clusters, params)
        });
        let writer = scope
            .time("store.write", || {
                let writer = StoreWriter::create_with_provenance(
                    out,
                    m.gene_names(),
                    m.condition_names(),
                    params,
                    &provenance,
                )?;
                clusters.iter().try_for_each(|c| writer.write_cluster(c))?;
                Ok::<_, regcluster_store::StoreError>(writer)
            })
            .map_err(|e| format!("store write: {e}"))?;
        let summary = scope
            .time("store.seal", || writer.finish())
            .map_err(|e| format!("store seal: {e}"))?;
        let n_clusters = clusters.len();
        let teardown = scope.begin("core.teardown");
        drop(clusters);
        drop(miner);
        drop(m);
        teardown.end();
        Ok(Pipeline {
            nodes: report.stats.nodes,
            clusters: n_clusters,
            bytes: summary.file_bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Tally;
    use crate::Workload;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("perfbench-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn small(seed: u64) -> Spec {
        let mut spec = Spec::for_workload(Workload::MineDeep, seed);
        spec.data.n_genes = 300;
        spec.data.n_conds = 12;
        spec.data.cluster_gene_frac = 0.1;
        spec.data.n_clusters = 4;
        spec.min_genes = 10;
        spec
    }

    #[test]
    fn the_same_seed_generates_the_same_inputs() {
        let dir = scratch("seed");
        let a = Input::setup(small(5), &dir.join("a")).unwrap();
        let b = Input::setup(small(5), &dir.join("b")).unwrap();
        let c = Input::setup(small(6), &dir.join("c")).unwrap();
        let read = |i: &Input| std::fs::read(&i.matrix).unwrap();
        assert_eq!(read(&a), read(&b));
        assert_eq!(a.reference, b.reference);
        assert_ne!(read(&a), read(&c));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn the_cli_op_matches_the_reference_and_a_wrong_store_fails() {
        let dir = scratch("mismatch");
        let mut input = Input::setup(small(9), &dir).unwrap();
        let mut tally = Tally::default();
        let (ms, outcome) = input.cli_mine(&dir.join("op.rcs"));
        tally.record(ms, outcome);
        assert_eq!((tally.attempted, tally.failed), (1, 0));

        // A reference that differs in one byte makes the same op wrong.
        let last = input.reference.len() - 1;
        input.reference[last] ^= 1;
        let (ms, outcome) = input.cli_mine(&dir.join("op.rcs"));
        tally.record(ms, outcome);
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert!(tally.failed_share() > 0.0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
