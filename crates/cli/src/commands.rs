//! Command execution.

use std::fmt;

use serde::{Deserialize, Serialize};

use regcluster_core::{
    classify_roots, finalize_clusters, matrix_fingerprint, root_fingerprints, BiclusterEngine,
    CheckpointPlan, CheckpointReport, ClusterSink, EngineReport, MetricsObserver, MineControl,
    MineRequest, Miner, MiningParams, MiningStats, RegCluster, SyncMineObserver, VecSink,
};
use regcluster_datagen::{generate, PlantedCluster};
use regcluster_engines::{build_engine, EngineMetrics, EngineSpec};
use regcluster_eval::{overlap, recovery, relevance, report, ClusterShape};
use regcluster_matrix::{io, missing, CondId, ExpressionMatrix};
use regcluster_obs::{MetricsRegistry, MonotonicClock, PhaseSpans};
use regcluster_store::{
    read_checkpoint, CheckpointFile, ClusterStore, Generations, StoreProvenance, StoreWriter,
};

use crate::args::{Command, USAGE};
use crate::serve;

/// A failure while executing a command.
#[derive(Debug)]
pub enum CliError {
    /// File or parse problem on an input matrix.
    Matrix(regcluster_matrix::MatrixError),
    /// Invalid mining parameters.
    Core(regcluster_core::CoreError),
    /// Generator failure.
    Datagen(regcluster_datagen::DatagenError),
    /// JSON (de)serialization failure.
    Json(serde_json::Error),
    /// Plain I/O failure.
    Io(std::io::Error),
    /// Cluster-store failure (corrupted file, version mismatch, …).
    Store(regcluster_store::StoreError),
    /// Unsupported or inconsistent file content (e.g. a cluster JSON
    /// written by a newer release).
    Format(String),
    /// Distributed-mining failure (coordinator or worker).
    Cluster(regcluster_cluster::ClusterError),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Matrix(e) => write!(f, "matrix error: {e}"),
            CliError::Core(e) => write!(f, "{e}"),
            CliError::Datagen(e) => write!(f, "{e}"),
            CliError::Json(e) => write!(f, "json error: {e}"),
            CliError::Io(e) => write!(f, "i/o error: {e}"),
            CliError::Store(e) => write!(f, "store error: {e}"),
            CliError::Format(msg) => write!(f, "{msg}"),
            CliError::Cluster(e) => write!(f, "cluster error: {e}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<regcluster_matrix::MatrixError> for CliError {
    fn from(e: regcluster_matrix::MatrixError) -> Self {
        CliError::Matrix(e)
    }
}
impl From<regcluster_core::CoreError> for CliError {
    fn from(e: regcluster_core::CoreError) -> Self {
        CliError::Core(e)
    }
}
impl From<regcluster_datagen::DatagenError> for CliError {
    fn from(e: regcluster_datagen::DatagenError) -> Self {
        CliError::Datagen(e)
    }
}
impl From<serde_json::Error> for CliError {
    fn from(e: serde_json::Error) -> Self {
        CliError::Json(e)
    }
}
impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}
impl From<regcluster_store::StoreError> for CliError {
    fn from(e: regcluster_store::StoreError) -> Self {
        CliError::Store(e)
    }
}
impl From<regcluster_cluster::ClusterError> for CliError {
    fn from(e: regcluster_cluster::ClusterError) -> Self {
        CliError::Cluster(e)
    }
}

/// Version stamped into `mine --output` documents. Bump when the schema
/// changes incompatibly; `eval` and `enrich` refuse newer documents rather
/// than silently misreading them.
pub const MINE_OUTPUT_FORMAT_VERSION: u32 = 1;

/// The JSON document written by `mine --output` and read back by `eval`.
///
/// The `Option` fields were added after the first release; they deserialize
/// as `None` from documents written by older versions.
#[derive(Debug, Serialize, Deserialize)]
pub struct MineOutput {
    /// Schema version of this document (`None` in pre-versioning files,
    /// which remain readable).
    pub format_version: Option<u32>,
    /// Engine that mined the clusters (`None` in documents written before
    /// engines existed — those are reg-cluster runs).
    pub engine: Option<String>,
    /// Parameters of the run.
    pub params: MiningParams,
    /// Matrix dimensions, for sanity checks.
    pub n_genes: usize,
    /// Number of conditions.
    pub n_conds: usize,
    /// Worker threads used for the run.
    pub threads: Option<usize>,
    /// Wall-clock mining time in seconds.
    pub elapsed_secs: Option<f64>,
    /// Mean enumeration cost in nanoseconds per search-tree node
    /// (`elapsed_secs · 10⁹ / stats.nodes`) — the headline metric of the
    /// perf harness (see `docs/PERFORMANCE.md`). `None` when the engine
    /// reports no statistics or expanded no nodes.
    pub ns_per_node: Option<f64>,
    /// `true` when the run stopped early on a deadline or cancellation and
    /// the clusters below are a subset of the full result.
    pub truncated: Option<bool>,
    /// Search-effort statistics, including per-rule prune counts.
    pub stats: Option<MiningStats>,
    /// The `.rck` checkpoint this run resumed from (`--resume`).
    pub resumed_from: Option<String>,
    /// The `.rck` path a final/periodic checkpoint was written to during
    /// this run, if any snapshot was flushed.
    pub checkpoint_written: Option<String>,
    /// The mined clusters.
    pub clusters: Vec<RegCluster>,
}

/// Mean per-node enumeration cost of a finished run, when node counts were
/// collected and at least one node was expanded.
fn ns_per_node(elapsed: std::time::Duration, stats: Option<&MiningStats>) -> Option<f64> {
    let nodes = stats?.nodes;
    (nodes > 0).then(|| elapsed.as_secs_f64() * 1e9 / nodes as f64)
}

/// Streams coarse mining progress to stderr: the first cluster prints
/// immediately, later ones at most every 200 ms, so long parallel runs show
/// life without flooding the terminal.
#[derive(Default)]
struct ProgressObserver {
    emitted: std::sync::atomic::AtomicUsize,
    last_print: std::sync::Mutex<Option<std::time::Instant>>,
}

impl SyncMineObserver for ProgressObserver {
    fn cluster_emitted(&self, _cluster: &RegCluster) {
        let n = self
            .emitted
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
            + 1;
        let mut last = self
            .last_print
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let due = last.is_none_or(|t| t.elapsed() >= std::time::Duration::from_millis(200));
        if due {
            *last = Some(std::time::Instant::now());
            eprintln!("… {n} clusters emitted");
        }
    }
}

/// The observer every `mine` run reports through: a registry-backed
/// [`MetricsObserver`] (always on — the counters feed `--metrics` /
/// `--metrics-json` snapshots), optionally fanned out to the stderr
/// progress line.
struct MineRunObserver {
    metrics: MetricsObserver,
    progress: Option<ProgressObserver>,
}

impl SyncMineObserver for MineRunObserver {
    fn node_entered(&self, chain: &[regcluster_matrix::CondId], n_p: usize, n_n: usize) {
        SyncMineObserver::node_entered(&self.metrics, chain, n_p, n_n);
    }
    fn pruned(&self, chain: &[regcluster_matrix::CondId], rule: regcluster_core::PruneRule) {
        SyncMineObserver::pruned(&self.metrics, chain, rule);
    }
    fn cluster_emitted(&self, cluster: &RegCluster) {
        SyncMineObserver::cluster_emitted(&self.metrics, cluster);
        if let Some(progress) = &self.progress {
            progress.cluster_emitted(cluster);
        }
    }
}

/// Writes the `--metrics` / `--metrics-json` snapshots, if requested.
fn write_metric_snapshots(
    registry: &MetricsRegistry,
    prom_path: Option<&str>,
    json_path: Option<&str>,
) -> Result<Vec<String>, CliError> {
    let mut notes = Vec::new();
    if let Some(path) = prom_path {
        std::fs::write(path, registry.encode_prometheus())?;
        notes.push(format!("metrics written to {path}\n"));
    }
    if let Some(path) = json_path {
        std::fs::write(path, registry.encode_json())?;
        notes.push(format!("metrics JSON written to {path}\n"));
    }
    Ok(notes)
}

/// Reads a `mine --output` document back, rejecting files stamped by a
/// newer release (whose schema this binary cannot interpret).
fn read_mine_output(path: &str) -> Result<MineOutput, CliError> {
    let doc: MineOutput = serde_json::from_str(&std::fs::read_to_string(path)?)?;
    match doc.format_version {
        Some(v) if v > MINE_OUTPUT_FORMAT_VERSION => Err(CliError::Format(format!(
            "{path}: cluster file has format_version {v}, but this binary supports \
             at most {MINE_OUTPUT_FORMAT_VERSION}; re-mine or upgrade regcluster"
        ))),
        _ => Ok(doc),
    }
}

/// Fans each mined cluster out to the on-disk store writer *and* an
/// in-memory collection (for the table/JSON output), so `mine --store`
/// still prints results. A store write failure makes `accept` return
/// `false`, stopping the engine cooperatively; the underlying error is
/// surfaced by [`StoreWriter::finish`].
struct TeeSink<'a> {
    store: &'a StoreWriter,
    collected: &'a VecSink,
}

impl ClusterSink for TeeSink<'_> {
    fn accept(&self, cluster: RegCluster) -> bool {
        let stored = self.store.accept(cluster.clone());
        self.collected.accept(cluster) && stored
    }
}

fn load_matrix(path: &str, impute_mode: &str) -> Result<ExpressionMatrix, CliError> {
    match impute_mode {
        "none" => Ok(io::read_matrix_file(path)?),
        mode => {
            let ragged = io::read_ragged_file(path)?;
            let strategy = match mode {
                "row-mean" => missing::Imputation::RowMean,
                "col-mean" => missing::Imputation::ColumnMean,
                other => unreachable!("parser rejects impute mode {other}"),
            };
            Ok(missing::impute(&ragged, strategy)?)
        }
    }
}

/// Where a `--store` argument points: a plain `.rcs` file, or
/// a generations directory (`mine --store <dir>`) whose next generation
/// the run writes and then publishes atomically.
enum StoreTarget {
    /// An ordinary single-file store.
    File(std::path::PathBuf),
    /// `gen-<N>.rcs` inside a generations directory, published (the
    /// `CURRENT` pointer swung and stale files swept) after the writer
    /// seals it.
    Generation { gens: Generations, generation: u64 },
}

impl StoreTarget {
    /// `spec` is a generations directory iff it names an *existing*
    /// directory — a typo'd file path must not silently become a lineage.
    fn resolve(spec: &str) -> Result<Self, CliError> {
        let path = std::path::Path::new(spec);
        if path.is_dir() {
            let gens = Generations::open(path)?;
            let generation = gens.next()?;
            Ok(StoreTarget::Generation { gens, generation })
        } else {
            Ok(StoreTarget::File(path.to_path_buf()))
        }
    }

    /// The file the [`StoreWriter`] should create.
    fn write_path(&self) -> std::path::PathBuf {
        match self {
            StoreTarget::File(p) => p.clone(),
            StoreTarget::Generation { gens, generation } => gens.path_for(*generation),
        }
    }

    /// The generation number to stamp into the store's provenance.
    /// Single-file stores default to one past the run they replace
    /// (`previous`, 0 when there is none); directory targets use their
    /// slot in the lineage.
    fn generation(&self, previous: Option<u64>) -> u64 {
        match self {
            StoreTarget::File(_) => previous.map_or(0, |g| g + 1),
            StoreTarget::Generation { generation, .. } => *generation,
        }
    }

    /// Publishes a sealed generation (no-op for file targets); returns
    /// the note to append to the run's output.
    fn publish(&self) -> Result<Option<String>, CliError> {
        match self {
            StoreTarget::File(_) => Ok(None),
            StoreTarget::Generation { gens, generation } => {
                gens.publish(*generation)?;
                Ok(Some(format!(
                    "generation {generation} published in {}\n",
                    gens.dir().display()
                )))
            }
        }
    }
}

/// Opens the store a `--delta-from` argument names — a sealed `.rcs` file
/// or a generations directory, whose published generation is used — and
/// refuses it unless it mined the same problem: same engine, same
/// parameters, same matrix shape, and no post-filters. Returns the store
/// and its resolved path for messages.
fn open_delta_base(
    spec: &str,
    m: &ExpressionMatrix,
    params: &MiningParams,
) -> Result<(ClusterStore, String), CliError> {
    let path = std::path::Path::new(spec);
    let resolved = if path.is_dir() {
        match Generations::open(path)?.current_path()? {
            Some(p) => p,
            None => {
                return Err(CliError::Format(format!(
                    "{spec}: generations directory has no published generation \
                     to delta-mine against"
                )))
            }
        }
    } else {
        path.to_path_buf()
    };
    let prev = ClusterStore::open(&resolved)?;
    let prev_path = resolved.display().to_string();
    if let Some(engine) = prev.engine() {
        if engine != "reg-cluster" {
            return Err(CliError::Format(format!(
                "{prev_path}: store was mined by engine {engine:?}; --delta-from \
                 needs a reg-cluster store"
            )));
        }
    }
    if (prev.n_genes() as usize, prev.n_conds() as usize) != (m.n_genes(), m.n_conditions()) {
        return Err(CliError::Format(format!(
            "{prev_path}: store covers {} genes × {} conditions but the matrix \
             has {} × {}; delta mining needs identical dimensions",
            prev.n_genes(),
            prev.n_conds(),
            m.n_genes(),
            m.n_conditions()
        )));
    }
    // The post-filters (--maximal-only / --max-clusters) act across root
    // boundaries, so they run as a post-pass over the spliced union: the
    // previous store must hold the *unfiltered* enumeration, and the
    // remaining parameters must match it exactly.
    if prev.params().maximal_only || prev.params().max_clusters.is_some() {
        return Err(CliError::Format(format!(
            "{prev_path}: store is post-filtered (--maximal-only/--max-clusters); \
             delta mining splices per root and needs the unfiltered store — \
             re-run the full mine without post-filters to create one"
        )));
    }
    let mut base_params = params.clone();
    base_params.maximal_only = false;
    base_params.max_clusters = None;
    if prev.params() != &base_params {
        return Err(CliError::Format(format!(
            "{prev_path}: store was mined with different parameters; delta \
             mining requires the identical parameter set (store: {:?}, \
             requested: {:?})",
            prev.params(),
            base_params
        )));
    }
    Ok((prev, prev_path))
}

/// A delta mine's root plan (`mine --delta-from`): re-mine only the
/// subtrees whose input rows changed since `base` was mined and splice
/// every other subtree's clusters out of `base` verbatim. The result is
/// bit-identical to a full re-mine (see `crates/core/src/delta.rs` for the
/// soundness argument and `crates/core/tests/delta_golden.rs` for the
/// golden proof); on the streaming store path the spliced records are
/// copied as raw bytes, never deserialized.
struct Delta {
    base: ClusterStore,
    base_path: String,
    /// Roots to re-enumerate.
    dirty: Vec<CondId>,
    /// Number of roots whose clusters carry over.
    n_unchanged: usize,
    /// Ids in `base` of every cluster rooted in an unchanged subtree.
    spliced: Vec<u32>,
}

impl Delta {
    /// Diffs `base`'s root fingerprints against the new matrix's.
    fn plan(base: ClusterStore, base_path: String, new_fps: &[u64]) -> Result<Self, CliError> {
        let Some(prev_fps) = base.root_fingerprints() else {
            return Err(CliError::Format(format!(
                "{base_path}: store carries no root fingerprints (it predates delta \
                 mining); run a full mine with --store to create a delta-capable one"
            )));
        };
        let plan = classify_roots(prev_fps, new_fps)?;
        let unchanged = plan.unchanged_mask();
        // `cluster_root` reads one u32 from the packed record — no decode.
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

/// The enumerate step of the `mine` pipeline: the one step that differs
/// between a full mine, a delta mine and a registry engine.
#[allow(clippy::large_enum_variant)] // one value per run, never moved in a loop
enum Enumerate<'m> {
    /// The reg-cluster engine over every root, or over a delta mine's
    /// dirty roots only.
    RegCluster {
        miner: Miner<'m>,
        delta: Option<Delta>,
    },
    /// A registry engine's own `run`.
    Engine(Box<dyn BiclusterEngine>),
}

impl Enumerate<'_> {
    fn delta(&self) -> Option<&Delta> {
        match self {
            Enumerate::RegCluster { delta, .. } => delta.as_ref(),
            Enumerate::Engine(_) => None,
        }
    }

    /// Creates the writer for `target`. Reg-cluster stores carry delta
    /// provenance — matrix and root fingerprints, generation — so a later
    /// `mine --delta-from` can diff against them; engine stores name the
    /// engine and its native parameters.
    fn create_writer(
        &self,
        target: &StoreTarget,
        m: &ExpressionMatrix,
        params: &MiningParams,
        fingerprints: Option<(u64, Vec<u64>)>,
    ) -> Result<StoreWriter, CliError> {
        let (path, genes, conds) = (target.write_path(), m.gene_names(), m.condition_names());
        if let Enumerate::Engine(engine) = self {
            let engine_params = engine.params_json();
            return Ok(StoreWriter::create_with_engine(
                path,
                genes,
                conds,
                params,
                engine.name(),
                &engine_params,
            )?);
        }
        let (matrix_fingerprint, root_fingerprints) = fingerprints.unzip();
        let provenance = StoreProvenance {
            engine: Some("reg-cluster".to_string()),
            engine_params: Some(serde_json::to_string(params)?),
            generation: target.generation(self.delta().map(|d| d.base.generation())),
            matrix_fingerprint,
            root_fingerprints,
        };
        Ok(StoreWriter::create_with_provenance(
            path,
            genes,
            conds,
            params,
            &provenance,
        )?)
    }
}

/// `mine`, every engine and mode: load → index_build → enumerate →
/// postprocess → store_write, each step a phase span (see
/// `docs/OBSERVABILITY.md`). Only the enumerate step varies
/// ([`Enumerate`]); the sink policy is chosen once, and only a complete
/// run seals a store.
fn mine(command: &Command) -> Result<String, CliError> {
    let Command::Mine {
        input,
        engine,
        params,
        delta,
        threads,
        deadline_secs,
        progress,
        output,
        impute,
        stats,
        store,
        metrics,
        metrics_json,
        checkpoint,
        checkpoint_every_secs,
        resume,
        delta_from,
    } = command
    else {
        unreachable!("mine runs only the mine command");
    };
    // One registry per run: phase spans, the mining observer and the engine
    // counters feed it, and --metrics/--metrics-json snapshot it at the end.
    let registry = MetricsRegistry::new();
    let clock = MonotonicClock::new();
    let spans = PhaseSpans::new(&registry);
    let observer = MineRunObserver {
        metrics: MetricsObserver::register(&registry),
        progress: progress.then(ProgressObserver::default),
    };
    let engine_metrics = EngineMetrics::register(&registry, engine);
    let control = match deadline_secs {
        Some(s) => MineControl::with_deadline(std::time::Duration::from_secs_f64(*s)),
        None => MineControl::new(),
    };

    let m = spans.time(&clock, "load", || load_matrix(input, impute))?;
    let base = (delta_from.as_deref())
        .map(|spec| open_delta_base(spec, &m, params))
        .transpose()?;
    let start = std::time::Instant::now();
    let (source, fingerprints) = if engine == "reg-cluster" {
        // Fingerprints stamp a store's delta provenance and drive a delta
        // mine's root diff; they are part of the index build.
        let needs_fingerprints = store.is_some() || base.is_some();
        let (miner, fingerprints) = spans.time(&clock, "index_build", || {
            let miner = Miner::new(&m, params)?;
            let fingerprints =
                needs_fingerprints.then(|| (matrix_fingerprint(&m), root_fingerprints(&miner)));
            Ok::<_, CliError>((miner, fingerprints))
        })?;
        let delta = match (base, &fingerprints) {
            (Some((prev, prev_path)), Some((_, roots))) => {
                Some(Delta::plan(prev, prev_path, roots)?)
            }
            _ => None,
        };
        (Enumerate::RegCluster { miner, delta }, fingerprints)
    } else {
        let spec = EngineSpec {
            min_genes: params.min_genes,
            min_conds: params.min_conds,
            delta: *delta,
            threads: *threads,
            max_clusters: params.max_clusters,
            maximal_only: params.maximal_only,
            ..EngineSpec::default()
        };
        (Enumerate::Engine(build_engine(engine, &spec)?), None)
    };

    // A directory-valued --store writes the lineage's next generation and
    // publishes it after sealing.
    let store = match store {
        Some(spec) => {
            let target = StoreTarget::resolve(spec)?;
            let writer = source.create_writer(&target, &m, params, fingerprints)?;
            Some((target, writer))
        }
        None => None,
    };
    // The sink policy. Without a store, or when --maximal-only /
    // --max-clusters need the whole result before anything is written,
    // collect; otherwise stream every cluster into the store as it is
    // found, composing with deadlines and cancellation.
    let post_filtered = params.maximal_only || params.max_clusters.is_some();
    let collected = VecSink::new();
    let tee;
    let sink: &dyn ClusterSink = match &store {
        Some((_, writer)) if !post_filtered => {
            tee = TeeSink {
                store: writer,
                collected: &collected,
            };
            &tee
        }
        _ => &collected,
    };

    // Crash-safe runs: --checkpoint (or --resume, whose path then doubles
    // as the snapshot sink) persist the enumeration frontier to a .rck
    // file on any stop; --resume seeds the run from one. See
    // docs/ROBUSTNESS.md.
    let ck_path = checkpoint.as_deref().or(resume.as_deref());
    let ck_file = ck_path.map(CheckpointFile::new);
    let resume_ck = resume.as_deref().map(read_checkpoint).transpose()?;
    let (report, ck_report) = {
        let _span = spans.span(&clock, "enumeration");
        match &source {
            Enumerate::RegCluster { miner, delta } => {
                let mut request = MineRequest::new(miner)
                    .threads(*threads)
                    .control(&control)
                    .observer(&observer);
                if let Some(delta) = delta {
                    request = request.roots(&delta.dirty);
                }
                if let Some(file) = &ck_file {
                    let mut plan = CheckpointPlan::new(file);
                    if let Some(secs) = checkpoint_every_secs {
                        plan = plan.with_every(std::time::Duration::from_secs_f64(*secs));
                    }
                    if let Some(ck) = resume_ck {
                        plan = plan.with_resume(ck);
                    }
                    request = request.checkpoint(plan);
                }
                let (stream, ck_report) = request.run(sink)?;
                let report = EngineReport {
                    n_emitted: stream.stats.emitted,
                    truncated: stream.truncated,
                    stopped_by_sink: stream.stopped_by_sink,
                    stats: Some(stream.stats),
                };
                (report, ck_report)
            }
            Enumerate::Engine(engine) => (
                engine.run(&m, sink, &control, &observer)?,
                CheckpointReport::default(),
            ),
        }
    };
    engine_metrics.record(&report);

    let mut clusters = collected.into_clusters();
    if let Some(delta) = source.delta() {
        for &id in &delta.spliced {
            clusters.push(delta.base.cluster(id)?);
        }
    }
    spans.time(&clock, "postprocess", || {
        finalize_clusters(&mut clusters, params)
    });

    // Only a complete run seals a store: a partial one would carry root
    // fingerprints, and a later delta mine would trust it as complete. A
    // run stopped by a deadline or cancellation leaves the writer's
    // scratch file unsealed (the next publish sweeps it); a sink stop —
    // a store write error — still goes through finish(), which surfaces
    // the error.
    let interrupted = report.truncated && !report.stopped_by_sink && control.is_cancelled();
    let store_note = match store {
        None => None,
        Some(_) if interrupted => {
            Some("no store written: the run was interrupted before completion\n".to_string())
        }
        Some((target, writer)) => {
            let summary = spans.time(&clock, "store_write", || {
                if post_filtered {
                    clusters.iter().try_for_each(|c| writer.write_cluster(c))?;
                } else if let Some(delta) = source.delta() {
                    // Raw packed records, straight from the old file to the
                    // new one; sealing canonicalizes ids, so order is moot.
                    for &id in &delta.spliced {
                        writer.write_raw_record(delta.base.record_bytes(id)?)?;
                    }
                }
                writer.finish()
            })?;
            let mut note = format!(
                "store written to {} ({} clusters, {} bytes)\n",
                target.write_path().display(),
                summary.n_clusters,
                summary.file_bytes
            );
            if let Some(published) = target.publish()? {
                note.push_str(&published);
            }
            Some(note)
        }
    };
    let elapsed = start.elapsed();

    let plural = if *threads == 1 { "" } else { "s" };
    let (n_genes, n_conds) = (m.n_genes(), m.n_conditions());
    let secs = elapsed.as_secs_f64();
    let mut text = match (&source, source.delta()) {
        (Enumerate::Engine(_), _) => format!(
            "{engine}: {} biclusters in {secs:.3}s from {n_genes} genes × {n_conds} conditions\n",
            clusters.len()
        ),
        (_, None) => format!(
            "mined {} reg-clusters from {n_genes} genes × {n_conds} conditions in {secs:.3}s \
             on {threads} thread{plural}\n",
            clusters.len()
        ),
        (_, Some(delta)) => format!(
            "delta-mined {} reg-clusters from {n_genes} genes × {n_conds} conditions in \
             {secs:.3}s on {threads} thread{plural}\n{} of {n_conds} roots dirty: re-enumerated \
             them, spliced {} clusters from {} unchanged subtrees of {}\n",
            clusters.len(),
            delta.dirty.len(),
            delta.spliced.len(),
            delta.n_unchanged,
            delta.base_path
        ),
    };
    let is_engine = matches!(source, Enumerate::Engine(_));
    if report.truncated {
        text.push_str(if is_engine {
            "run interrupted (deadline, cancellation or budget): results are partial\n"
        } else {
            "deadline expired: results are partial\n"
        });
    }
    let resumed_from = ck_report
        .resumed
        .then(|| resume.clone().unwrap_or_default());
    let checkpoint_written =
        (ck_report.checkpoints_written > 0).then(|| ck_path.unwrap_or_default().to_string());
    if let Some(path) = &resumed_from {
        text.push_str(&format!("resumed from checkpoint {path}\n"));
    }
    if let Some(path) = &checkpoint_written {
        let snapshots = ck_report.checkpoints_written;
        let plural = if snapshots == 1 { "" } else { "s" };
        text.push_str(&format!(
            "checkpoint written to {path} ({snapshots} snapshot{plural})\n"
        ));
    }
    if *stats {
        match &report.stats {
            Some(s) => {
                text.push_str(&s.summary());
                text.push('\n');
            }
            None => text.push_str(&format!("{engine} reports no search-effort statistics\n")),
        }
    }
    if !is_engine && !clusters.is_empty() {
        text.push_str(&report::overlap_summary(&clusters));
        text.push('\n');
    }
    if let Some(note) = store_note {
        text.push_str(&note);
    }
    for note in write_metric_snapshots(&registry, metrics.as_deref(), metrics_json.as_deref())? {
        text.push_str(&note);
    }
    match output {
        Some(path) => {
            let doc = MineOutput {
                format_version: Some(MINE_OUTPUT_FORMAT_VERSION),
                engine: Some(engine.clone()),
                params: params.clone(),
                n_genes,
                n_conds,
                threads: Some(*threads),
                elapsed_secs: Some(secs),
                ns_per_node: ns_per_node(elapsed, report.stats.as_ref()),
                truncated: Some(report.truncated),
                stats: report.stats,
                resumed_from,
                checkpoint_written,
                clusters,
            };
            std::fs::write(path, serde_json::to_string_pretty(&doc)?)?;
            text.push_str(&format!("clusters written to {path}\n"));
        }
        None if is_engine => {
            text.push_str("id\tgenes\tconds\n");
            for (i, c) in clusters.iter().enumerate() {
                text.push_str(&format!("{i}\t{}\t{}\n", c.n_genes(), c.n_conditions()));
            }
        }
        None => text.push_str(&report::cluster_table(&m, &clusters)),
    }
    Ok(text)
}

/// Executes a parsed command and returns the text to print.
///
/// # Errors
///
/// Returns a [`CliError`] describing the failure; the binary prints it to
/// stderr and exits non-zero.
pub fn run(command: &Command) -> Result<String, CliError> {
    match command {
        Command::Help => Ok(USAGE.to_string()),
        Command::Info { input } => {
            let m = io::read_matrix_file(input)?;
            let (lo, hi) = m
                .flat_values()
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), &v| {
                    (l.min(v), h.max(v))
                });
            Ok(format!(
                "{}: {} genes × {} conditions, values in [{lo}, {hi}]\n",
                input,
                m.n_genes(),
                m.n_conditions()
            ))
        }
        Command::RWave { input, gene, gamma } => {
            let m = io::read_matrix_file(input)?;
            let Some(g) = m.gene_index(gene) else {
                return Err(CliError::Matrix(
                    regcluster_matrix::MatrixError::IndexOutOfBounds(format!(
                        "gene {gene:?} not found"
                    )),
                ));
            };
            let row = m.row(g);
            let threshold = regcluster_core::RegulationThreshold::FractionOfRange(*gamma);
            threshold.validate()?;
            let gamma_i = threshold.resolve(row);
            let model = regcluster_core::rwave::RWaveModel::build(row, gamma_i);
            let order: Vec<String> = (0..model.len())
                .map(|r| {
                    format!(
                        "{}({})",
                        m.condition_name(model.cond_at(r)),
                        model.value_at(r)
                    )
                })
                .collect();
            let pointers: Vec<String> = model
                .pointers()
                .iter()
                .map(|p| {
                    format!(
                        "{} ↰ {}",
                        m.condition_name(model.cond_at(p.lo as usize)),
                        m.condition_name(model.cond_at(p.hi as usize))
                    )
                })
                .collect();
            Ok(format!(
                "RWave^{gamma} model of {gene} (γ_i = {gamma_i}):\norder:    {}\npointers: {}\n",
                order.join(" ≤ "),
                if pointers.is_empty() {
                    "(none)".to_string()
                } else {
                    pointers.join(", ")
                }
            ))
        }
        Command::Mine { .. } => mine(command),
        Command::Generate {
            output,
            config,
            ground_truth,
        } => {
            let data = generate(config)?;
            io::write_matrix_file(&data.matrix, output)?;
            let mut text = format!(
                "wrote {} genes × {} conditions with {} embedded clusters to {output}\n",
                config.n_genes,
                config.n_conds,
                data.planted.len()
            );
            if let Some(path) = ground_truth {
                std::fs::write(path, serde_json::to_string_pretty(&data.planted)?)?;
                text.push_str(&format!("ground truth written to {path}\n"));
            }
            Ok(text)
        }
        Command::GenerateYeast {
            output,
            go,
            modules,
            seed,
        } => {
            let cfg = regcluster_datagen::YeastConfig {
                seed: *seed,
                ..Default::default()
            };
            let data = regcluster_datagen::yeast_like(&cfg)?;
            io::write_matrix_file(&data.matrix, output)?;
            let mut text = format!(
                "wrote simulated yeast benchmark ({} genes × {} conditions, {} modules) to {output}\n",
                cfg.n_genes,
                cfg.n_conds,
                data.modules.len()
            );
            if let Some(path) = go {
                std::fs::write(path, serde_json::to_string_pretty(&data.go)?)?;
                text.push_str(&format!("GO database written to {path}\n"));
            }
            if let Some(path) = modules {
                std::fs::write(path, serde_json::to_string_pretty(&data.modules)?)?;
                text.push_str(&format!("module ground truth written to {path}\n"));
            }
            Ok(text)
        }
        Command::Enrich { clusters, go, top } => {
            let found = read_mine_output(clusters)?;
            let db: regcluster_datagen::GoDatabase =
                serde_json::from_str(&std::fs::read_to_string(go)?)?;
            let mut ordered: Vec<&RegCluster> = found.clusters.iter().collect();
            ordered.sort_by_key(|c| std::cmp::Reverse(c.n_cells()));
            ordered.truncate(*top);
            let rows: Vec<(String, Vec<regcluster_eval::Enrichment>)> = ordered
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    let enr = regcluster_eval::enrich(&db, &c.genes());
                    let tops = regcluster_eval::top_terms_by_category(&enr)
                        .into_iter()
                        .cloned()
                        .collect();
                    (
                        format!("cluster {i} ({}×{})", c.n_genes(), c.n_conditions()),
                        tops,
                    )
                })
                .collect();
            Ok(report::go_table(&rows))
        }
        Command::Eval {
            clusters,
            ground_truth,
        } => {
            // Either a `mine --output` JSON document or a `.rcs` store from
            // any engine scores the same way.
            let found: Vec<RegCluster> = if clusters.ends_with(".rcs") {
                let cs = ClusterStore::open(clusters)?;
                cs.iter().collect::<Result<_, _>>()?
            } else {
                read_mine_output(clusters)?.clusters
            };
            let truth: Vec<PlantedCluster> =
                serde_json::from_str(&std::fs::read_to_string(ground_truth)?)?;
            let found_shapes: Vec<ClusterShape> = found.iter().map(ClusterShape::from).collect();
            let truth_shapes: Vec<ClusterShape> = truth.iter().map(ClusterShape::from).collect();
            let rec = recovery(&truth_shapes, &found_shapes);
            let rel = relevance(&found_shapes, &truth_shapes);
            let stats = overlap::overlap_stats(&found);
            Ok(format!(
                "found {} clusters vs {} planted\nrecovery  {rec:.4}\nrelevance {rel:.4}\nmax pairwise cell overlap {:.1}%\n",
                found.len(),
                truth.len(),
                stats.max_percent
            ))
        }
        Command::Query {
            store,
            genes,
            conds,
            min_genes,
            min_conds,
            top,
            json,
        } => {
            let cs = ClusterStore::open(store)?;
            let mut q = regcluster_store::Query::new();
            if let Some(specs) = genes {
                q.genes = serve::resolve_genes(&cs, specs).map_err(CliError::Format)?;
            }
            if let Some(specs) = conds {
                q.conds = serve::resolve_conds(&cs, specs).map_err(CliError::Format)?;
            }
            q.min_genes = *min_genes;
            q.min_conds = *min_conds;
            q.top_k = *top;
            let ids = cs.query(&q)?;
            if *json {
                let clusters: Vec<serve::ClusterDoc> = ids
                    .iter()
                    .map(|&id| serve::cluster_doc(&cs, id))
                    .collect::<Result<_, _>>()?;
                // Wrapped in an object so consumers see where the clusters
                // came from: mining engine and store generation ride along
                // with every export.
                #[derive(Serialize)]
                struct QueryOutput {
                    engine: Option<String>,
                    generation: u64,
                    total: usize,
                    clusters: Vec<serve::ClusterDoc>,
                }
                let doc = QueryOutput {
                    engine: cs.engine().map(str::to_string),
                    generation: cs.generation(),
                    total: clusters.len(),
                    clusters,
                };
                Ok(format!("{}\n", serde_json::to_string_pretty(&doc)?))
            } else {
                let mut text = format!("{} of {} clusters match\n", ids.len(), cs.n_clusters());
                if !ids.is_empty() {
                    text.push_str("id\tgenes\tconds\tchain\n");
                }
                for &id in &ids {
                    let c = cs.cluster(id)?;
                    let chain: Vec<&str> = c
                        .chain
                        .iter()
                        .map(|&i| cs.cond_names()[i].as_str())
                        .collect();
                    text.push_str(&format!(
                        "{id}\t{}\t{}\t{}\n",
                        c.n_genes(),
                        c.n_conditions(),
                        chain.join(" < ")
                    ));
                }
                Ok(text)
            }
        }
        Command::Serve {
            store,
            watch,
            port,
            threads,
            requests,
            queue,
            watch_interval_ms,
        } => {
            // --watch serves a generations directory: open the published
            // generation now, let the server's watcher hot-swap to later
            // ones as `mine --store <dir>` publishes them.
            let (cs, source) = if *watch {
                let gens = Generations::open(store)?;
                let Some(path) = gens.current_path()? else {
                    return Err(CliError::Format(format!(
                        "{store}: generations directory has no published generation \
                         to serve (run `mine --store {store}` first)"
                    )));
                };
                (
                    ClusterStore::open(&path)?,
                    format!("{} (watching for new generations)", path.display()),
                )
            } else {
                (ClusterStore::open(store)?, store.clone())
            };
            let cs = std::sync::Arc::new(cs);
            let config = serve::ServeConfig {
                port: *port,
                threads: *threads,
                max_requests: *requests,
                queue_capacity: *queue,
                watch: watch.then(|| std::path::PathBuf::from(store)),
                watch_poll: std::time::Duration::from_millis(*watch_interval_ms),
                ..serve::ServeConfig::default()
            };
            let n_clusters = cs.n_clusters();
            let server = serve::Server::start(cs, &config)?;
            // Announced on stderr so it shows before the blocking wait.
            eprintln!(
                "serving {n_clusters} clusters from {source} on http://127.0.0.1:{}/ \
                 ({} worker thread{})",
                server.port(),
                config.threads.max(1),
                if config.threads.max(1) == 1 { "" } else { "s" }
            );
            let report = server.wait();
            Ok(format!("served {} requests\n", report.requests))
        }
        Command::Coordinator {
            input,
            params,
            store,
            work_dir,
            port,
            leases,
            lease_ttl_ms,
            linger,
        } => {
            let report =
                regcluster_cluster::run_coordinator(&regcluster_cluster::CoordinatorConfig {
                    matrix_path: input.into(),
                    params: params.clone(),
                    store_dir: store.into(),
                    work_dir: work_dir.into(),
                    port: *port,
                    n_leases: *leases,
                    lease_ttl: std::time::Duration::from_millis(*lease_ttl_ms),
                    linger: *linger,
                })?;
            Ok(format!(
                "generation {} published in {store} ({} clusters merged from \
                 {} leases, {} reassignment{})\n",
                report.generation,
                report.n_clusters,
                report.n_leases,
                report.reassignments,
                if report.reassignments == 1 { "" } else { "s" }
            ))
        }
        Command::Worker {
            input,
            coordinator,
            work_dir,
            threads,
            worker_id,
            poll_ms,
            checkpoint_every_secs,
        } => {
            let worker_id = worker_id
                .clone()
                .unwrap_or_else(|| format!("worker-{}", std::process::id()));
            let report = regcluster_cluster::run_worker(&regcluster_cluster::WorkerConfig {
                coordinator: coordinator.clone(),
                matrix_path: input.into(),
                work_dir: work_dir.into(),
                worker_id,
                threads: *threads,
                checkpoint_every: std::time::Duration::from_secs_f64(*checkpoint_every_secs),
                poll: std::time::Duration::from_millis(*poll_ms),
            })?;
            Ok(format!(
                "mined {} lease{} ({} resumed from checkpoints), uploaded {} \
                 shard{}, lost {} (upload retries: {} conn-refused, {} shed)\n",
                report.leases_mined,
                if report.leases_mined == 1 { "" } else { "s" },
                report.leases_resumed,
                report.shards_uploaded,
                if report.shards_uploaded == 1 { "" } else { "s" },
                report.leases_lost,
                report.upload_conn_refused,
                report.upload_retry_after
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse_args;

    fn tmpdir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("regcluster-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn help_prints_usage() {
        let out = run(&Command::Help).unwrap();
        assert!(out.contains("regcluster mine"));
    }

    #[test]
    fn generate_mine_eval_roundtrip() {
        let dir = tmpdir();
        let matrix = dir.join("m.tsv");
        let truth = dir.join("gt.json");
        let found = dir.join("found.json");

        let cmd = parse_args(&sv(&[
            "generate",
            "--output",
            matrix.to_str().unwrap(),
            "--genes",
            "200",
            "--conds",
            "14",
            "--clusters",
            "2",
            "--gene-frac",
            "0.05",
            "--seed",
            "5",
            "--ground-truth",
            truth.to_str().unwrap(),
        ]))
        .unwrap();
        let out = run(&cmd).unwrap();
        assert!(out.contains("2 embedded clusters"), "{out}");

        let cmd = parse_args(&sv(&[
            "mine",
            "--input",
            matrix.to_str().unwrap(),
            "--min-genes",
            "3",
            "--min-conds",
            "4",
            "--gamma",
            "0.1",
            "--epsilon",
            "0.01",
            "--output",
            found.to_str().unwrap(),
        ]))
        .unwrap();
        let out = run(&cmd).unwrap();
        assert!(out.contains("mined"), "{out}");

        let cmd = parse_args(&sv(&[
            "eval",
            "--clusters",
            found.to_str().unwrap(),
            "--ground-truth",
            truth.to_str().unwrap(),
        ]))
        .unwrap();
        let out = run(&cmd).unwrap();
        assert!(out.contains("recovery"), "{out}");
        // The planted clusters should be fully recovered.
        let rec_line = out.lines().find(|l| l.starts_with("recovery")).unwrap();
        let rec: f64 = rec_line.split_whitespace().nth(1).unwrap().parse().unwrap();
        assert!(rec > 0.99, "recovery {rec} too low:\n{out}");
    }

    #[test]
    fn mine_prints_table_without_output_file() {
        let dir = tmpdir();
        let matrix = dir.join("running.tsv");
        let m = regcluster_datagen::running_example();
        regcluster_matrix::io::write_matrix_file(&m, &matrix).unwrap();
        let cmd = parse_args(&sv(&[
            "mine",
            "--input",
            matrix.to_str().unwrap(),
            "--min-genes",
            "3",
            "--min-conds",
            "5",
            "--gamma",
            "0.15",
            "--epsilon",
            "0.1",
            "--stats",
        ]))
        .unwrap();
        let out = run(&cmd).unwrap();
        assert!(out.contains("mined 1 reg-clusters"), "{out}");
        assert!(out.contains("c7 < c9 < c5 < c1 < c3"), "{out}");
        assert!(out.contains("nodes"), "stats requested: {out}");
    }

    #[test]
    fn mine_with_imputation_handles_missing_values() {
        let dir = tmpdir();
        let path = dir.join("holes.tsv");
        std::fs::write(&path, "GENE\tc1\tc2\tc3\ng1\t1\tNA\t3\ng2\t2\t2.5\t4\n").unwrap();
        let cmd = parse_args(&sv(&[
            "mine",
            "--input",
            path.to_str().unwrap(),
            "--min-genes",
            "2",
            "--min-conds",
            "2",
            "--gamma",
            "0.1",
            "--epsilon",
            "1.0",
            "--impute",
            "row-mean",
        ]))
        .unwrap();
        assert!(run(&cmd).is_ok());
        // Without imputation the same file must fail.
        let cmd = parse_args(&sv(&["mine", "--input", path.to_str().unwrap()])).unwrap();
        assert!(run(&cmd).is_err());
    }

    #[test]
    fn info_reports_dimensions() {
        let dir = tmpdir();
        let path = dir.join("info.tsv");
        let m = regcluster_datagen::running_example();
        regcluster_matrix::io::write_matrix_file(&m, &path).unwrap();
        let out = run(&Command::Info {
            input: path.to_str().unwrap().into(),
        })
        .unwrap();
        assert!(out.contains("3 genes × 10 conditions"), "{out}");
        assert!(out.contains("[-15, 45]"), "{out}");
    }

    #[test]
    fn yeast_generate_mine_enrich_pipeline() {
        let dir = tmpdir();
        let matrix = dir.join("yeast.tsv");
        let go = dir.join("go.json");
        let found = dir.join("yfound.json");

        // Small seed-controlled run would still be 2884 genes; use the
        // library directly for a small dataset but exercise the CLI
        // round-trip for enrich on its files.
        let cfg = regcluster_datagen::YeastConfig {
            n_genes: 400,
            n_modules: 3,
            genes_per_module: (20, 25),
            ..Default::default()
        };
        let data = regcluster_datagen::yeast_like(&cfg).unwrap();
        regcluster_matrix::io::write_matrix_file(&data.matrix, &matrix).unwrap();
        std::fs::write(&go, serde_json::to_string(&data.go).unwrap()).unwrap();

        let cmd = parse_args(&sv(&[
            "mine",
            "--input",
            matrix.to_str().unwrap(),
            "--min-genes",
            "20",
            "--min-conds",
            "6",
            "--gamma",
            "0.05",
            "--epsilon",
            "1.0",
            "--output",
            found.to_str().unwrap(),
        ]))
        .unwrap();
        run(&cmd).unwrap();

        let cmd = parse_args(&sv(&[
            "enrich",
            "--clusters",
            found.to_str().unwrap(),
            "--go",
            go.to_str().unwrap(),
            "--top",
            "2",
        ]))
        .unwrap();
        let out = run(&cmd).unwrap();
        assert!(out.contains("cluster 0"), "{out}");
        assert!(out.contains("p="), "{out}");
    }

    #[test]
    fn generate_yeast_writes_all_artifacts() {
        // The full 2884×17 generation is fast; exercise the real subcommand.
        let dir = tmpdir();
        let matrix = dir.join("full-yeast.tsv");
        let go = dir.join("full-go.json");
        let modules = dir.join("full-modules.json");
        let cmd = parse_args(&sv(&[
            "generate-yeast",
            "--output",
            matrix.to_str().unwrap(),
            "--go",
            go.to_str().unwrap(),
            "--modules",
            modules.to_str().unwrap(),
            "--seed",
            "9",
        ]))
        .unwrap();
        let out = run(&cmd).unwrap();
        assert!(out.contains("2884 genes × 17 conditions"), "{out}");
        assert!(go.exists() && modules.exists());
        let m = regcluster_matrix::io::read_matrix_file(&matrix).unwrap();
        assert_eq!(m.n_genes(), 2884);
    }

    #[test]
    fn rwave_prints_model() {
        let dir = tmpdir();
        let path = dir.join("rwave.tsv");
        let m = regcluster_datagen::running_example();
        regcluster_matrix::io::write_matrix_file(&m, &path).unwrap();
        let cmd = parse_args(&sv(&[
            "rwave",
            "--input",
            path.to_str().unwrap(),
            "--gene",
            "g1",
            "--gamma",
            "0.15",
        ]))
        .unwrap();
        let out = run(&cmd).unwrap();
        assert!(out.contains("γ_i = 4.5"), "{out}");
        assert!(out.contains("c2 ↰ c9"), "{out}");
        assert!(out.contains("c1 ↰ c3"), "{out}");
        // Unknown gene errors cleanly.
        let cmd = parse_args(&sv(&[
            "rwave",
            "--input",
            path.to_str().unwrap(),
            "--gene",
            "nope",
        ]))
        .unwrap();
        assert!(run(&cmd).is_err());
    }

    /// `mine --output` stamps a format version; readers accept current and
    /// legacy documents and reject ones from the future.
    #[test]
    fn mine_output_version_roundtrip_and_future_rejection() {
        let dir = tmpdir();
        let matrix = dir.join("ver.tsv");
        let found = dir.join("ver-found.json");
        let m = regcluster_datagen::running_example();
        regcluster_matrix::io::write_matrix_file(&m, &matrix).unwrap();
        let cmd = parse_args(&sv(&[
            "mine",
            "--input",
            matrix.to_str().unwrap(),
            "--min-genes",
            "3",
            "--min-conds",
            "5",
            "--gamma",
            "0.15",
            "--epsilon",
            "0.1",
            "--output",
            found.to_str().unwrap(),
        ]))
        .unwrap();
        run(&cmd).unwrap();

        // Round-trip: the stamp is written and read back.
        let doc = read_mine_output(found.to_str().unwrap()).unwrap();
        assert_eq!(doc.format_version, Some(MINE_OUTPUT_FORMAT_VERSION));
        assert_eq!(doc.clusters.len(), 1);

        // A document from a future release is refused with a clear error.
        let raw = std::fs::read_to_string(&found).unwrap();
        let needle = format!("\"format_version\": {MINE_OUTPUT_FORMAT_VERSION}");
        let future = raw.replacen(&needle, "\"format_version\": 99", 1);
        assert_ne!(future, raw, "format_version must appear in the JSON");
        let future_path = dir.join("ver-future.json");
        std::fs::write(&future_path, &future).unwrap();
        let err = read_mine_output(future_path.to_str().unwrap()).unwrap_err();
        assert!(matches!(err, CliError::Format(_)), "{err}");
        assert!(err.to_string().contains("format_version 99"), "{err}");

        // eval and enrich go through the same gate.
        let eval_cmd = Command::Eval {
            clusters: future_path.to_str().unwrap().into(),
            ground_truth: found.to_str().unwrap().into(),
        };
        assert!(matches!(run(&eval_cmd), Err(CliError::Format(_))));

        // A pre-versioning document (field null/absent) still reads.
        let legacy = raw.replacen(&needle, "\"format_version\": null", 1);
        let legacy_path = dir.join("ver-legacy.json");
        std::fs::write(&legacy_path, &legacy).unwrap();
        let doc = read_mine_output(legacy_path.to_str().unwrap()).unwrap();
        assert_eq!(doc.format_version, None);
    }

    /// `mine --metrics` / `--metrics-json` snapshot the run's registry:
    /// phase timings plus per-`PruneRule` subtree-kill counters for the
    /// paper's running example (Figure 6 annotates exactly which rules
    /// fire on that tree).
    #[test]
    fn mine_metrics_snapshot_has_phases_and_prune_counters() {
        let dir = tmpdir();
        let matrix = dir.join("metrics.tsv");
        let prom = dir.join("metrics.prom");
        let json = dir.join("metrics.json");
        let m = regcluster_datagen::running_example();
        regcluster_matrix::io::write_matrix_file(&m, &matrix).unwrap();
        let cmd = parse_args(&sv(&[
            "mine",
            "--input",
            matrix.to_str().unwrap(),
            "--min-genes",
            "3",
            "--min-conds",
            "5",
            "--gamma",
            "0.15",
            "--epsilon",
            "0.1",
            "--metrics",
            prom.to_str().unwrap(),
            "--metrics-json",
            json.to_str().unwrap(),
        ]))
        .unwrap();
        let out = run(&cmd).unwrap();
        assert!(out.contains("metrics written to"), "{out}");
        assert!(out.contains("metrics JSON written to"), "{out}");

        let text = std::fs::read_to_string(&prom).unwrap();
        // Every pruning rule gets a series, whether or not it fired.
        for rule in regcluster_core::PruneRule::ALL {
            assert!(
                text.contains(&format!(
                    "regcluster_mine_pruned_subtrees_total{{rule=\"{}\"}}",
                    rule.as_label()
                )),
                "missing {rule:?} series:\n{text}"
            );
        }
        // Figure 6: coherence pruning fires on the running example.
        let coherence = text
            .lines()
            .find(|l| l.contains("rule=\"coherence\""))
            .unwrap();
        let count: u64 = coherence.rsplit(' ').next().unwrap().parse().unwrap();
        assert!(count > 0, "coherence pruning must fire: {coherence}");
        assert!(
            text.contains("regcluster_mine_clusters_emitted_total 1"),
            "{text}"
        );
        // All five pipeline phases ran (no store → store_write has 0 runs
        // but its series still exists).
        for phase in regcluster_obs::span::PHASES {
            assert!(
                text.contains(&format!(
                    "regcluster_phase_duration_seconds_total{{phase=\"{phase}\"}}"
                )),
                "missing phase {phase:?}:\n{text}"
            );
        }
        assert!(text.contains("regcluster_phase_runs_total{phase=\"enumeration\"} 1"));
        assert!(text.contains("regcluster_phase_runs_total{phase=\"store_write\"} 0"));

        // The JSON twin is stamped with the snapshot schema version.
        let json_text = std::fs::read_to_string(&json).unwrap();
        assert!(
            json_text.contains(&format!(
                "\"format_version\": {}",
                regcluster_obs::SNAPSHOT_FORMAT_VERSION
            )),
            "{json_text}"
        );
        assert!(json_text.contains("regcluster_mine_pruned_subtrees_total"));
        serde_json::parse_value_str(&json_text).expect("metrics JSON must be valid JSON");
    }

    /// `mine --store` streams the clusters into a queryable store whose
    /// contents match the JSON output exactly.
    #[test]
    fn mine_store_writes_queryable_store_matching_output() {
        let dir = tmpdir();
        let matrix = dir.join("store.tsv");
        let found = dir.join("store-found.json");
        let store = dir.join("store.rcs");
        let m = regcluster_datagen::running_example();
        regcluster_matrix::io::write_matrix_file(&m, &matrix).unwrap();
        let cmd = parse_args(&sv(&[
            "mine",
            "--input",
            matrix.to_str().unwrap(),
            "--min-genes",
            "3",
            "--min-conds",
            "5",
            "--gamma",
            "0.15",
            "--epsilon",
            "0.1",
            "--threads",
            "2",
            "--output",
            found.to_str().unwrap(),
            "--store",
            store.to_str().unwrap(),
        ]))
        .unwrap();
        let out = run(&cmd).unwrap();
        assert!(out.contains("store written to"), "{out}");

        let doc = read_mine_output(found.to_str().unwrap()).unwrap();
        let cs = ClusterStore::open(&store).unwrap();
        let stored: Vec<RegCluster> = cs.iter().collect::<Result<_, _>>().unwrap();
        assert_eq!(stored, doc.clusters, "store and JSON output agree");
        assert_eq!(cs.params(), &doc.params, "provenance params survive");

        // The offline query subcommand works against it.
        let cmd = parse_args(&sv(&[
            "query",
            "--store",
            store.to_str().unwrap(),
            "--gene",
            "g1",
            "--min-conds",
            "5",
        ]))
        .unwrap();
        let out = run(&cmd).unwrap();
        assert!(out.contains("1 of 1 clusters match"), "{out}");
        // JSON mode resolves names.
        let cmd = parse_args(&sv(&[
            "query",
            "--store",
            store.to_str().unwrap(),
            "--json",
        ]))
        .unwrap();
        let out = run(&cmd).unwrap();
        assert!(out.contains("\"chain_names\""), "{out}");
        // Unknown gene is a clean error.
        let cmd = parse_args(&sv(&[
            "query",
            "--store",
            store.to_str().unwrap(),
            "--gene",
            "nope",
        ]))
        .unwrap();
        assert!(matches!(run(&cmd), Err(CliError::Format(_))));
    }

    /// `mine --store --maximal-only` must store the filtered set, not the
    /// raw emission set.
    #[test]
    fn mine_store_respects_post_filters() {
        let dir = tmpdir();
        let matrix = dir.join("postf.tsv");
        let store = dir.join("postf.rcs");
        let m = regcluster_datagen::running_example();
        regcluster_matrix::io::write_matrix_file(&m, &matrix).unwrap();
        let cmd = parse_args(&sv(&[
            "mine",
            "--input",
            matrix.to_str().unwrap(),
            "--min-genes",
            "2",
            "--min-conds",
            "3",
            "--gamma",
            "0.15",
            "--epsilon",
            "0.1",
            "--maximal-only",
            "--store",
            store.to_str().unwrap(),
        ]))
        .unwrap();
        run(&cmd).unwrap();
        let cs = ClusterStore::open(&store).unwrap();
        let stored: Vec<RegCluster> = cs.iter().collect::<Result<_, _>>().unwrap();
        // Recompute the reference with the same post-filter applied.
        let mut params = regcluster_core::MiningParams::new(2, 3, 0.15, 0.1)
            .unwrap()
            .with_maximal_only();
        params = params
            .with_threshold(regcluster_core::RegulationThreshold::FractionOfRange(0.15))
            .unwrap();
        let expected = regcluster_core::mine(&m, &params).unwrap();
        assert_eq!(stored, expected);
        for c in &stored {
            assert!(
                !stored
                    .iter()
                    .any(|other| other != c && c.is_subcluster_of(other)),
                "non-maximal cluster leaked into the store"
            );
        }
    }

    /// Writes a synthetic matrix, returning its path; `tweak` lets a test
    /// re-measure one gene before writing.
    fn write_delta_matrix(path: &std::path::Path, tweak: bool) {
        let cfg = regcluster_datagen::SyntheticConfig {
            n_genes: 60,
            n_conds: 12,
            n_clusters: 2,
            cluster_gene_frac: 0.1,
            noise_sigma: 0.0,
            seed: 11,
            ..Default::default()
        };
        let data = regcluster_datagen::generate(&cfg).unwrap();
        let mut rows: Vec<Vec<f64>> = (0..data.matrix.n_genes())
            .map(|g| data.matrix.row(g).to_vec())
            .collect();
        if tweak {
            for v in &mut rows[7] {
                *v = *v * 1.05 + 0.25;
            }
        }
        let genes = data.matrix.gene_names().to_vec();
        let conds = data.matrix.condition_names().to_vec();
        let m = regcluster_matrix::ExpressionMatrix::from_rows(genes, conds, rows).unwrap();
        regcluster_matrix::io::write_matrix_file(&m, path).unwrap();
    }

    const DELTA_MINE_FLAGS: [&str; 8] = [
        "--min-genes",
        "4",
        "--min-conds",
        "4",
        "--gamma",
        "0.1",
        "--epsilon",
        "0.05",
    ];

    fn mine_cmd(extra: &[&str]) -> Command {
        let mut argv = vec!["mine"];
        argv.extend_from_slice(&DELTA_MINE_FLAGS);
        argv.extend_from_slice(extra);
        parse_args(&sv(&argv)).unwrap()
    }

    /// `mine --delta-from` against a previous store is bit-identical to a
    /// full re-mine of the new matrix, and the generations-directory flow
    /// (full mine → gen-0, delta mine → gen-1, CURRENT swung) works
    /// end-to-end through the CLI layer.
    #[test]
    fn delta_mine_matches_full_remine_and_publishes_generations() {
        let dir = tmpdir().join(format!("delta-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let before = dir.join("before.tsv");
        let after = dir.join("after.tsv");
        write_delta_matrix(&before, false);
        write_delta_matrix(&after, true);
        let gens_dir = dir.join("lineage");
        std::fs::create_dir_all(&gens_dir).unwrap();
        let full_after = dir.join("full-after.rcs");

        // Full mine of the old matrix into the lineage → generation 0.
        let out = run(&mine_cmd(&[
            "--input",
            before.to_str().unwrap(),
            "--store",
            gens_dir.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("generation 0 published"), "{out}");
        let gens = Generations::open(&gens_dir).unwrap();
        assert_eq!(gens.current().unwrap(), Some(0));

        // Delta mine of the re-measured matrix against the lineage → gen-1.
        let out = run(&mine_cmd(&[
            "--input",
            after.to_str().unwrap(),
            "--delta-from",
            gens_dir.to_str().unwrap(),
            "--store",
            gens_dir.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("delta-mined"), "{out}");
        assert!(out.contains("generation 1 published"), "{out}");
        assert_eq!(gens.current().unwrap(), Some(1));

        // Reference: a from-scratch mine of the new matrix.
        run(&mine_cmd(&[
            "--input",
            after.to_str().unwrap(),
            "--store",
            full_after.to_str().unwrap(),
        ]))
        .unwrap();

        let delta_store = ClusterStore::open(gens.path_for(1)).unwrap();
        let full_store = ClusterStore::open(&full_after).unwrap();
        let delta: Vec<RegCluster> = delta_store.iter().collect::<Result<_, _>>().unwrap();
        let full: Vec<RegCluster> = full_store.iter().collect::<Result<_, _>>().unwrap();
        assert!(!full.is_empty(), "reference mine found nothing");
        assert_eq!(delta, full, "delta mine must equal a full re-mine");
        assert_eq!(delta_store.generation(), 1);
        assert!(delta_store.root_fingerprints().is_some());
        assert_eq!(
            delta_store.root_fingerprints(),
            full_store.root_fingerprints(),
            "both stores fingerprint the same matrix"
        );

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An interrupted `mine --store` seals nothing: the lineage's
    /// `CURRENT` stays on the last complete generation, so a later delta
    /// mine still splices the full cluster set instead of trusting a
    /// partial store.
    #[test]
    fn interrupted_mine_publishes_no_generation() {
        let dir = tmpdir().join(format!("interrupted-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let matrix = dir.join("m.tsv");
        write_delta_matrix(&matrix, false);
        let gens_dir = dir.join("lineage");
        std::fs::create_dir_all(&gens_dir).unwrap();
        let found = dir.join("partial.json");

        let out = run(&mine_cmd(&[
            "--input",
            matrix.to_str().unwrap(),
            "--store",
            gens_dir.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("generation 0 published"), "{out}");
        let gens = Generations::open(&gens_dir).unwrap();
        let full = ClusterStore::open(gens.path_for(0)).unwrap().n_clusters();
        assert!(full > 0, "reference mine found nothing");

        let out = run(&mine_cmd(&[
            "--input",
            matrix.to_str().unwrap(),
            "--deadline-secs",
            "0",
            "--store",
            gens_dir.to_str().unwrap(),
            "--output",
            found.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("deadline expired"), "{out}");
        assert!(out.contains("no store written"), "{out}");
        assert!(!out.contains("published"), "{out}");
        assert_eq!(gens.current().unwrap(), Some(0), "CURRENT must not move");
        let doc = read_mine_output(found.to_str().unwrap()).unwrap();
        assert_eq!(doc.truncated, Some(true));

        let out = run(&mine_cmd(&[
            "--input",
            matrix.to_str().unwrap(),
            "--delta-from",
            gens_dir.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(
            out.contains(&format!("delta-mined {full} reg-clusters")),
            "{out}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The delta path refuses stores it cannot soundly splice from:
    /// foreign engines, different parameters, different dimensions.
    #[test]
    fn delta_mine_rejects_incompatible_previous_stores() {
        let dir = tmpdir().join(format!("delta-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let matrix = dir.join("m.tsv");
        write_delta_matrix(&matrix, false);
        let store = dir.join("prev.rcs");
        run(&mine_cmd(&[
            "--input",
            matrix.to_str().unwrap(),
            "--store",
            store.to_str().unwrap(),
        ]))
        .unwrap();

        // Different parameters.
        let cmd = parse_args(&sv(&[
            "mine",
            "--input",
            matrix.to_str().unwrap(),
            "--min-genes",
            "5",
            "--delta-from",
            store.to_str().unwrap(),
        ]))
        .unwrap();
        let err = run(&cmd).unwrap_err();
        assert!(matches!(err, CliError::Format(_)), "{err}");
        assert!(err.to_string().contains("parameters"), "{err}");

        // A store from another engine.
        let foreign = dir.join("foreign.rcs");
        let cmd = parse_args(&sv(&[
            "mine",
            "--input",
            matrix.to_str().unwrap(),
            "--engine",
            "pcluster",
            "--min-genes",
            "3",
            "--min-conds",
            "3",
            "--store",
            foreign.to_str().unwrap(),
        ]))
        .unwrap();
        run(&cmd).unwrap();
        let err = run(&mine_cmd(&[
            "--input",
            matrix.to_str().unwrap(),
            "--delta-from",
            foreign.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("reg-cluster"), "{err}");

        // An empty lineage has nothing to delta against.
        let empty = dir.join("empty-lineage");
        std::fs::create_dir_all(&empty).unwrap();
        let err = run(&mine_cmd(&[
            "--input",
            matrix.to_str().unwrap(),
            "--delta-from",
            empty.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("no published generation"), "{err}");

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `query --json` wraps the matches in an object carrying the store's
    /// provenance: engine and generation.
    #[test]
    fn query_json_carries_engine_and_generation() {
        let dir = tmpdir().join(format!("queryjson-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let matrix = dir.join("m.tsv");
        write_delta_matrix(&matrix, false);
        let store = dir.join("q.rcs");
        run(&mine_cmd(&[
            "--input",
            matrix.to_str().unwrap(),
            "--store",
            store.to_str().unwrap(),
        ]))
        .unwrap();
        let cmd = parse_args(&sv(&[
            "query",
            "--store",
            store.to_str().unwrap(),
            "--json",
        ]))
        .unwrap();
        let out = run(&cmd).unwrap();
        assert!(out.contains("\"engine\": \"reg-cluster\""), "{out}");
        assert!(out.contains("\"generation\": 0"), "{out}");
        assert!(out.contains("\"total\""), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_files_error_cleanly() {
        let err = run(&Command::Info {
            input: "/nonexistent/m.tsv".into(),
        })
        .unwrap_err();
        assert!(matches!(err, CliError::Matrix(_)));
    }
}
