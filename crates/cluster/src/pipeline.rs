//! The one mine pipeline, run by `regcluster mine` and by every cluster
//! worker lease: load → index_build → enumeration → store_write, each a
//! [`PhaseSpans`] phase (`mine` also times its postprocess and report).
//! A full mine, a delta mine, a leased root range and a registry engine
//! differ only in what they enumerate ([`Enumerate`]) and where the store
//! seals ([`StoreTarget`]). The provenance a store stamps, the checkpoint
//! plan, the enumerate request and "only a complete run seals" are
//! decided once, here, so merged shards equal a `mine --store` byte for
//! byte.

use std::path::{Path, PathBuf};
use std::time::Duration;

use regcluster_core::{
    classify_roots, matrix_fingerprint, root_fingerprints, BiclusterEngine, CheckpointPlan,
    CheckpointReport, ClusterSink, EngineCheckpoint, EngineReport, MineControl, MineRequest, Miner,
    MiningParams, RegCluster, SyncMineObserver, VecSink,
};
use regcluster_matrix::missing::{self, Imputation};
use regcluster_matrix::{io, CondId, ExpressionMatrix};
use regcluster_obs::{MetricsRegistry, MonotonicClock, PhaseSpans};
use regcluster_store::{
    CheckpointFile, ClusterStore, Generations, StoreProvenance, StoreSummary, StoreWriter,
};

use crate::coordinator::CLUSTER_ENGINE;
use crate::error::ClusterError;

type Result<T> = std::result::Result<T, ClusterError>;

/// Matrix and per-root fingerprints: a reg-cluster store's provenance.
pub type Fingerprints = (u64, Vec<u64>);

/// One run's phase spans; its methods are the pipeline's steps.
pub struct Pipeline {
    spans: PhaseSpans,
    clock: MonotonicClock,
}

impl Pipeline {
    /// Registers the phase instruments in `registry`.
    pub fn new(registry: &MetricsRegistry) -> Self {
        Pipeline {
            spans: PhaseSpans::new(registry),
            clock: MonotonicClock::new(),
        }
    }

    /// Times `f` under a span for `phase`, one of
    /// [`PHASES`](regcluster_obs::PHASES).
    pub fn time<R>(&self, phase: &str, f: impl FnOnce() -> R) -> R {
        self.spans.time(&self.clock, phase, f)
    }

    /// `load`: reads the matrix at `path`, imputing missing values when
    /// asked.
    pub fn load(&self, path: &Path, impute: Option<Imputation>) -> Result<ExpressionMatrix> {
        self.time("load", || match impute {
            None => Ok(io::read_matrix_file(path)?),
            Some(strategy) => Ok(missing::impute(&io::read_ragged_file(path)?, strategy)?),
        })
    }

    /// `index_build`: the miner, plus the fingerprints when a store or a
    /// delta diff needs them.
    pub fn index_build<'m>(
        &self,
        m: &'m ExpressionMatrix,
        params: &'m MiningParams,
        fingerprints: bool,
    ) -> Result<(Miner<'m>, Option<Fingerprints>)> {
        self.time("index_build", || {
            let miner = Miner::new(m, params)?;
            let fingerprints =
                fingerprints.then(|| (matrix_fingerprint(m), root_fingerprints(&miner)));
            Ok((miner, fingerprints))
        })
    }

    /// `enumeration`: runs `source`, streaming every cluster into `store`
    /// (a lease's shard), or collecting them, not yet finalized, when
    /// there is none. A store write error stops the run through the sink;
    /// [`store_write`](Self::store_write) surfaces it.
    pub fn enumerate(
        &self,
        source: &Enumerate<'_>,
        store: Option<&Store>,
        run: Run<'_>,
    ) -> Result<(EngineReport, CheckpointReport, Vec<RegCluster>)> {
        let collected = VecSink::new();
        let sink: &dyn ClusterSink = store.map_or(&collected, |s| &s.writer);
        let file = (run.checkpoint.as_ref()).map(|c| CheckpointFile::new(&c.path));
        let span = self.spans.span(&self.clock, "enumeration");
        let (report, checkpoint) = match source {
            Enumerate::RegCluster { miner, roots } => {
                let mut request = MineRequest::new(miner)
                    .threads(run.threads)
                    .control(run.control)
                    .observer(run.observer);
                if let Some(roots) = roots {
                    request = request.roots(roots);
                }
                if let (Some(file), Some(ck)) = (&file, run.checkpoint) {
                    request = request.checkpoint(CheckpointPlan {
                        every: ck.every,
                        resume: ck.resume,
                        ..CheckpointPlan::new(file)
                    });
                }
                let (stream, checkpoint) = request.run(sink)?;
                (stream.into(), checkpoint)
            }
            Enumerate::Engine(engine, m) => (
                engine.run(m, sink, run.control, run.observer)?,
                CheckpointReport::default(),
            ),
        };
        span.finish();
        Ok((report, checkpoint, collected.into_clusters()))
    }

    /// `store_write`: writes `clusters` (the finalized result; none for
    /// a store that was streamed into), seals, and publishes a generation
    /// target. Only a complete run seals — a partial store's root
    /// fingerprints would mislead a later delta mine — so a run its
    /// `control` stopped early returns `None`, its scratch file unsealed.
    /// A sink stop (a store write error) still seals, which surfaces it.
    pub fn store_write(
        &self,
        store: Store,
        report: &EngineReport,
        clusters: &[RegCluster],
        control: &MineControl,
    ) -> Result<Option<(StoreTarget, StoreSummary)>> {
        if report.truncated && !report.stopped_by_sink && control.is_cancelled() {
            return Ok(None);
        }
        let Store { target, writer } = store;
        let summary = self.time("store_write", || -> Result<StoreSummary> {
            clusters.iter().try_for_each(|c| writer.write_cluster(c))?;
            let summary = writer.finish()?;
            if let Some(lineage) = &target.lineage {
                lineage.publish(target.generation)?;
            }
            Ok(summary)
        })?;
        Ok(Some((target, summary)))
    }
}

/// How the enumeration step runs: threads, the control that stops it
/// early (deadline, cancellation, lost lease), the observer, and an
/// optional checkpoint.
pub struct Run<'a> {
    pub threads: usize,
    pub control: &'a MineControl,
    pub observer: &'a dyn SyncMineObserver,
    pub checkpoint: Option<Checkpointing>,
}

/// A crash-safe run snapshots its frontier to `path` on any early stop
/// (and every `every`), and may resume from an earlier snapshot.
pub struct Checkpointing {
    pub path: PathBuf,
    pub every: Option<Duration>,
    pub resume: Option<EngineCheckpoint>,
}

/// What the enumeration step runs.
pub enum Enumerate<'a> {
    /// The reg-cluster engine over `roots`: every root when `None`, or a
    /// delta mine's dirty roots, or a leased range.
    RegCluster {
        miner: &'a Miner<'a>,
        roots: Option<&'a [CondId]>,
    },
    /// A registry engine's own `run` over the matrix.
    Engine(Box<dyn BiclusterEngine>, &'a ExpressionMatrix),
}

impl Enumerate<'_> {
    /// Opens the writer for `target`. A reg-cluster store stamps the
    /// engine, its parameters, the target's generation and the
    /// fingerprints, which a delta mine diffs against and a coordinator
    /// validates shards by; an engine store names the engine and its
    /// native parameters.
    pub fn open_store(
        &self,
        target: StoreTarget,
        m: &ExpressionMatrix,
        params: &MiningParams,
        fingerprints: Option<&Fingerprints>,
    ) -> Result<Store> {
        let (path, genes, conds) = (&target.path, m.gene_names(), m.condition_names());
        let writer = match self {
            Enumerate::Engine(engine, _) => StoreWriter::create_with_engine(
                path,
                genes,
                conds,
                params,
                engine.name(),
                &engine.params_json(),
            )?,
            Enumerate::RegCluster { .. } => {
                let provenance = StoreProvenance {
                    engine: Some(CLUSTER_ENGINE.to_string()),
                    engine_params: Some(serde_json::to_string(params)?),
                    generation: target.generation,
                    matrix_fingerprint: fingerprints.map(|f| f.0),
                    root_fingerprints: fingerprints.map(|f| f.1.clone()),
                };
                StoreWriter::create_with_provenance(path, genes, conds, params, &provenance)?
            }
        };
        Ok(Store { target, writer })
    }
}

/// An open store: where it seals and the writer sealing it.
pub struct Store {
    target: StoreTarget,
    writer: StoreWriter,
}

/// Where a store seals: `path`, stamped `generation`; for the next
/// generation of a generations directory, also the `lineage` it is
/// published into (`CURRENT` swung) after the seal.
pub struct StoreTarget {
    pub path: PathBuf,
    pub generation: u64,
    pub lineage: Option<Generations>,
}

impl StoreTarget {
    /// Resolves a `--store` argument: a generations directory iff it
    /// names an *existing* directory, so a typo'd file path never becomes
    /// a lineage. A file is stamped one past the generation of the store
    /// it replaces (`previous`), 0 without one.
    pub fn resolve(spec: &str, previous: Option<u64>) -> Result<Self> {
        let path = Path::new(spec);
        if !path.is_dir() {
            let generation = previous.map_or(0, |g| g + 1);
            return Ok(StoreTarget {
                path: path.to_path_buf(),
                generation,
                lineage: None,
            });
        }
        let lineage = Generations::open(path)?;
        let generation = lineage.next()?;
        Ok(StoreTarget {
            path: lineage.path_for(generation),
            generation,
            lineage: Some(lineage),
        })
    }
}

/// A delta mine's root plan (`mine --delta-from`): re-mine the `dirty`
/// roots, whose rows changed since `base` was mined, and splice the
/// `spliced` clusters of the `n_unchanged` other roots from `base` —
/// bit-identical to a full re-mine (`crates/core/src/delta.rs`
/// argues it, `crates/core/tests/delta_golden.rs` proves it).
pub struct Delta {
    pub base: ClusterStore,
    pub base_path: String,
    pub dirty: Vec<CondId>,
    pub n_unchanged: usize,
    pub spliced: Vec<u32>,
}

impl Delta {
    /// Opens the store a `--delta-from` argument names (a `.rcs` file, or
    /// a generations directory's published generation), refuses it unless
    /// it mined the same problem — same engine, parameters and matrix
    /// shape, no post-filters — and diffs its root fingerprints against
    /// the new matrix's, `new_fps`.
    pub fn open(
        spec: &str,
        m: &ExpressionMatrix,
        params: &MiningParams,
        new_fps: &[u64],
    ) -> Result<Self> {
        let path = Path::new(spec);
        let resolved = if path.is_dir() {
            let published = Generations::open(path)?.current_path()?;
            published.ok_or_else(|| {
                ClusterError::Input(format!(
                    "{spec}: generations directory has no published generation \
                     to delta-mine against"
                ))
            })?
        } else {
            path.to_path_buf()
        };
        let base = ClusterStore::open(&resolved)?;
        let base_path = resolved.display().to_string();
        if let Some(engine) = base.engine().filter(|&e| e != CLUSTER_ENGINE) {
            return Err(ClusterError::Input(format!(
                "{base_path}: store was mined by engine {engine:?}; --delta-from \
                 needs a reg-cluster store"
            )));
        }
        if (base.n_genes() as usize, base.n_conds() as usize) != (m.n_genes(), m.n_conditions()) {
            return Err(ClusterError::Input(format!(
                "{base_path}: store covers {} genes × {} conditions but the matrix \
                 has {} × {}; delta mining needs identical dimensions",
                base.n_genes(),
                base.n_conds(),
                m.n_genes(),
                m.n_conditions()
            )));
        }
        // The post-filters (--maximal-only / --max-clusters) act across root
        // boundaries, so they run as a post-pass over the spliced union: the
        // previous store must hold the *unfiltered* enumeration, and the
        // remaining parameters must match it exactly.
        if base.params().maximal_only || base.params().max_clusters.is_some() {
            return Err(ClusterError::Input(format!(
                "{base_path}: store is post-filtered (--maximal-only/--max-clusters); \
                 delta mining splices per root and needs the unfiltered store — \
                 re-run the full mine without post-filters to create one"
            )));
        }
        let mut base_params = params.clone();
        base_params.maximal_only = false;
        base_params.max_clusters = None;
        if base.params() != &base_params {
            return Err(ClusterError::Input(format!(
                "{base_path}: store was mined with different parameters; delta \
                 mining requires the identical parameter set (store: {:?}, \
                 requested: {:?})",
                base.params(),
                base_params
            )));
        }
        let Some(prev_fps) = base.root_fingerprints() else {
            return Err(ClusterError::Input(format!(
                "{base_path}: store carries no root fingerprints (it predates delta \
                 mining); run a full mine with --store to create a delta-capable one"
            )));
        };
        let plan = classify_roots(prev_fps, new_fps)?;
        let unchanged = plan.unchanged_mask();
        // `cluster_root` reads one u32 from the packed record, no decode.
        let mut spliced = Vec::new();
        for id in 0..base.n_clusters() {
            if unchanged[base.cluster_root(id)? as usize] {
                spliced.push(id);
            }
        }
        Ok(Delta {
            n_unchanged: plan.unchanged.len(),
            dirty: plan.dirty,
            base,
            base_path,
            spliced,
        })
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};

    use proptest::prelude::*;
    use regcluster_core::{finalize_clusters, range_roots, NoopObserver};
    use regcluster_datagen::{generate, SyntheticConfig};
    use regcluster_store::merge_shards;

    use super::*;

    const N_CONDS: usize = 12;
    /// Stamped into every store, so the shards' META equals the full
    /// mine's.
    const GENERATION: u64 = 3;
    /// Numbers each case's scratch directory.
    static CASE: AtomicUsize = AtomicUsize::new(0);

    fn matrix(seed: u64) -> ExpressionMatrix {
        let cfg = SyntheticConfig {
            n_genes: 60,
            n_conds: N_CONDS,
            n_clusters: 4,
            avg_cluster_dims: 5,
            cluster_gene_frac: 0.1,
            seed,
            ..SyntheticConfig::default()
        };
        generate(&cfg).unwrap().matrix
    }

    fn run(control: &MineControl, threads: usize) -> Run<'_> {
        Run {
            threads,
            control,
            observer: &NoopObserver,
            checkpoint: None,
        }
    }

    fn target(path: PathBuf) -> StoreTarget {
        StoreTarget {
            path,
            generation: GENERATION,
            lineage: None,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A cluster run in one process: shards mined over random root
        /// ranges with the worker's steps merge into the very bytes the
        /// CLI's steps seal for a full mine.
        #[test]
        fn shards_merge_into_the_bytes_of_a_full_mine(
            seed in 0u64..1_000,
            cuts in prop::collection::vec(1..N_CONDS, 0..6),
            threads in 1usize..=2,
        ) {
            let case = CASE.fetch_add(1, Ordering::Relaxed);
            let dir = std::env::temp_dir()
                .join(format!("regcluster-pipeline-{}-{case}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let m = matrix(seed);
            let params = MiningParams::new(4, 4, 0.1, 0.1).unwrap();
            let pipeline = Pipeline::new(&MetricsRegistry::new());
            let (miner, fingerprints) = pipeline.index_build(&m, &params, true).unwrap();
            let control = MineControl::new();

            // `regcluster mine --store`: collect, postprocess, write.
            let full = Enumerate::RegCluster { miner: &miner, roots: None };
            let single = dir.join("single.rcs");
            let store = full
                .open_store(target(single.clone()), &m, &params, fingerprints.as_ref())
                .unwrap();
            let (report, _, mut clusters) =
                pipeline.enumerate(&full, None, run(&control, threads)).unwrap();
            finalize_clusters(&mut clusters, &params);
            pipeline.store_write(store, &report, &clusters, &control).unwrap().unwrap();

            // A worker per range: stream into the shard, seal.
            let mut bounds = cuts;
            bounds.extend([0, N_CONDS]);
            bounds.sort_unstable();
            bounds.dedup();
            let mut shards = Vec::new();
            for range in bounds.windows(2) {
                let roots = range_roots(range[0], range[1]);
                let lease = Enumerate::RegCluster { miner: &miner, roots: Some(&roots) };
                let shard = dir.join(format!("shard-{}-{}.rcs", range[0], range[1]));
                let store = lease
                    .open_store(target(shard.clone()), &m, &params, fingerprints.as_ref())
                    .unwrap();
                let (report, _, collected) =
                    pipeline.enumerate(&lease, Some(&store), run(&control, threads)).unwrap();
                prop_assert!(collected.is_empty(), "a lease streams, it does not collect");
                pipeline.store_write(store, &report, &[], &control).unwrap().unwrap();
                shards.push(shard);
            }
            let merged = dir.join("merged.rcs");
            merge_shards(&shards, &merged).unwrap();
            let (single, merged) = (std::fs::read(single).unwrap(), std::fs::read(merged).unwrap());
            std::fs::remove_dir_all(&dir).unwrap();
            prop_assert!(!clusters.is_empty(), "seed {} plants no minable cluster", seed);
            prop_assert!(single == merged, "{} shards merged to different bytes", shards.len());
        }
    }
}
