//! Command-line argument parsing.

use std::collections::HashMap;
use std::fmt;

use regcluster_core::{MiningParams, RegulationThreshold};
use regcluster_datagen::{PatternKind, SyntheticConfig};

/// A parsed invocation.
// One value of this type exists per process; variant size is irrelevant.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Mine clusters from a matrix file with any registered engine.
    Mine {
        /// Input matrix path.
        input: String,
        /// Engine name (see [`regcluster_engines::ENGINE_NAMES`]); the
        /// default `reg-cluster` is the paper's miner.
        engine: String,
        /// Mining parameters. For non-default engines only `min_genes` /
        /// `min_conds` (and the post-filters) apply; γ/ε are reg-cluster
        /// knobs.
        params: MiningParams,
        /// Baseline model tolerance (pScore δ, residue δ, ratio ε or
        /// quantization step, engine-dependent); `None` = the engine's
        /// conventional default. Ignored by `reg-cluster`.
        delta: Option<f64>,
        /// Worker threads (1 = a single engine worker).
        threads: usize,
        /// Wall-clock budget in seconds; the run stops cooperatively when it
        /// expires and reports partial, truncated results.
        deadline_secs: Option<f64>,
        /// Print a progress line to stderr as clusters stream in.
        progress: bool,
        /// Optional JSON output path (stdout table otherwise).
        output: Option<String>,
        /// Missing-value handling: `none`, `row-mean`, `col-mean`.
        impute: String,
        /// Print search-effort statistics (nodes, prunings) after mining.
        stats: bool,
        /// Also stream clusters into an indexed binary store (`.rcs`).
        store: Option<String>,
        /// Write a Prometheus text snapshot of the run's metrics here.
        metrics: Option<String>,
        /// Write a JSON snapshot of the run's metrics here (stamped with
        /// the snapshot `format_version`).
        metrics_json: Option<String>,
        /// Write crash-recovery snapshots (`.rck`) here: on deadline,
        /// cancellation or worker panic, and periodically when
        /// `checkpoint_every_secs` is set.
        checkpoint: Option<String>,
        /// Also snapshot roughly every this many seconds while mining.
        checkpoint_every_secs: Option<f64>,
        /// Resume an interrupted run from this `.rck` checkpoint.
        resume: Option<String>,
        /// Delta-mine against this previous `.rcs` store (or generations
        /// directory): re-enumerate only the subtrees whose input rows
        /// changed, splicing the rest from the previous run.
        delta_from: Option<String>,
    },
    /// Generate a synthetic dataset.
    Generate {
        /// Output matrix path.
        output: String,
        /// Generator configuration.
        config: SyntheticConfig,
        /// Optional ground-truth JSON path.
        ground_truth: Option<String>,
    },
    /// Generate the simulated yeast benchmark (matrix + GO annotations).
    GenerateYeast {
        /// Output matrix path.
        output: String,
        /// Path for the synthetic GO database (JSON).
        go: Option<String>,
        /// Path for the planted-module ground truth (JSON).
        modules: Option<String>,
        /// RNG seed.
        seed: u64,
    },
    /// GO-term enrichment of mined clusters against an annotation database.
    Enrich {
        /// Mined clusters (JSON, as written by `mine --output`).
        clusters: String,
        /// GO database (JSON, as written by `generate-yeast --go`).
        go: String,
        /// How many clusters to report (largest first).
        top: usize,
    },
    /// Score mined clusters against ground truth.
    Eval {
        /// Mined clusters (JSON, as written by `mine --output`).
        clusters: String,
        /// Ground truth (JSON, as written by `generate --ground-truth`).
        ground_truth: String,
    },
    /// Print matrix statistics.
    Info {
        /// Input matrix path.
        input: String,
    },
    /// Print a gene's RWave^γ model (ordering + regulation pointers).
    RWave {
        /// Input matrix path.
        input: String,
        /// Gene label to inspect.
        gene: String,
        /// Regulation threshold (fraction of the gene's range).
        gamma: f64,
    },
    /// Filter a `.rcs` cluster store offline.
    Query {
        /// Store path (as written by `mine --store`).
        store: String,
        /// Comma-separated gene names or ids; all must be members.
        genes: Option<String>,
        /// Comma-separated condition names or ids; all must be on the chain.
        conds: Option<String>,
        /// Minimum member genes.
        min_genes: u32,
        /// Minimum chain length.
        min_conds: u32,
        /// Keep only the N largest matches (by covered cells).
        top: Option<usize>,
        /// Print matches as JSON instead of a table.
        json: bool,
    },
    /// Serve a `.rcs` cluster store over HTTP.
    Serve {
        /// Store path (as written by `mine --store`), or — when `watch`
        /// is set — a generations directory (`serve --watch <dir>`).
        store: String,
        /// `store` is a generations directory: serve its published
        /// generation and hot-swap to new ones as `mine --store <dir>`
        /// publishes them, while in-flight readers drain off the old one.
        watch: bool,
        /// Port on 127.0.0.1 (0 = pick a free port, printed on startup).
        port: u16,
        /// Worker threads handling requests.
        threads: usize,
        /// Stop gracefully after this many requests (smoke-test hook).
        requests: Option<u64>,
        /// Accept-queue capacity; connections beyond it are shed with
        /// `503 + Retry-After` instead of piling up unboundedly.
        queue: usize,
        /// How often (milliseconds) the `--watch` poller re-reads the
        /// generations directory's `CURRENT` pointer.
        watch_interval_ms: u64,
    },
    /// Coordinate a distributed mining run: partition the root space,
    /// lease ranges to workers over HTTP, merge uploaded shards
    /// bit-identically to a single-node run and publish the result as the
    /// store directory's next generation.
    Coordinator {
        /// Input matrix path (workers must load a byte-identical copy).
        input: String,
        /// Mining parameters (reg-cluster engine; no post-filters — they
        /// act across root boundaries and would break merge identity).
        params: MiningParams,
        /// Generations directory the merged store is published into.
        store: String,
        /// Scratch directory for staged shards.
        work_dir: String,
        /// Control-plane port on 127.0.0.1 (0 = pick a free port).
        port: u16,
        /// Number of leases to slice the root space into.
        leases: usize,
        /// Lease time-to-live in milliseconds; a lease not renewed within
        /// this window is returned to the pool and re-granted.
        lease_ttl_ms: u64,
        /// Keep serving `/job`, `/status` and `/metrics` after publishing
        /// instead of exiting (for scripted harnesses).
        linger: bool,
    },
    /// Mine root ranges leased from a coordinator, uploading sealed
    /// shards and resuming interrupted leases from local checkpoints.
    Worker {
        /// Input matrix path (must match the coordinator's copy).
        input: String,
        /// Coordinator control-plane address, `host:port`.
        coordinator: String,
        /// Scratch directory for in-progress shards and checkpoints.
        work_dir: String,
        /// Mining threads for the leased subtrees.
        threads: usize,
        /// Worker name reported to the coordinator (default: pid-based).
        worker_id: Option<String>,
        /// Idle poll interval in milliseconds while waiting for a grant.
        poll_ms: u64,
        /// Snapshot the mining frontier about every this many seconds.
        checkpoint_every_secs: f64,
    },
    /// Print usage.
    Help,
}

impl Command {
    /// The subcommand keyword that parses to this variant.
    ///
    /// The match is exhaustive on purpose: adding a variant fails to
    /// compile until it is named here, and the USAGE test then requires
    /// the help text to document it.
    pub fn subcommand_name(&self) -> &'static str {
        match self {
            Command::Mine { .. } => "mine",
            Command::Generate { .. } => "generate",
            Command::GenerateYeast { .. } => "generate-yeast",
            Command::Enrich { .. } => "enrich",
            Command::Eval { .. } => "eval",
            Command::Info { .. } => "info",
            Command::RWave { .. } => "rwave",
            Command::Query { .. } => "query",
            Command::Serve { .. } => "serve",
            Command::Coordinator { .. } => "coordinator",
            Command::Worker { .. } => "worker",
            Command::Help => "help",
        }
    }
}

/// A parse failure with a human-readable message.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// Usage text printed by `regcluster help`.
pub const USAGE: &str = "\
regcluster — mining shifting-and-scaling co-regulation patterns (ICDE 2006)

USAGE:
  regcluster mine --input <matrix.tsv> [options]
      --engine <NAME>        mining engine (default reg-cluster):
                             reg-cluster | pcluster | scaling | cheng-church |
                             floc | opsm | op-cluster | microcluster | boolean
      --min-genes <N>        minimum genes per cluster (default 20)
      --min-conds <N>        minimum chain length (default 6)
      --delta <F>            baseline model tolerance (pScore δ / residue δ /
                             ratio ε / quantization step, engine-dependent);
                             each engine has its own default; reg-cluster
                             ignores it
      --gamma <F>            regulation threshold, fraction of range (default 0.05)
      --gamma-absolute <F>   use an absolute regulation threshold instead
      --epsilon <F>          coherence threshold (default 1.0)
      --threads <N>          worker threads (default 1)
      --deadline-secs <F>    wall-clock budget; exceeding it yields partial,
                             truncated results instead of an error
      --max-clusters <N>     keep only the first N clusters (canonical order)
      --maximal-only         drop clusters contained in another
      --impute <MODE>        none | row-mean | col-mean (default none)
      --stats                print search-effort statistics (any thread count)
      --progress             print streaming progress to stderr
      --output <file.json>   write clusters as JSON instead of a table
      --store <file.rcs>     also stream clusters into an indexed binary
                             store for `query` and `serve`
      --metrics <file.prom>  write a Prometheus text snapshot of the run's
                             metrics (phase timings, per-rule prune counters;
                             see docs/OBSERVABILITY.md)
      --metrics-json <file.json>  the same snapshot as versioned JSON
      --checkpoint <file.rck>  write crash-recovery snapshots here: on
                             deadline/cancellation/worker panic, and
                             periodically with --checkpoint-every-secs
      --checkpoint-every-secs <F>  also snapshot about every F seconds
      --resume <file.rck>    resume an interrupted run from its checkpoint
                             (the result is bit-identical to an
                             uninterrupted run; see docs/ROBUSTNESS.md)
      --delta-from <prev>    delta-mine against a previous run: <prev> is
                             its .rcs store (or a generations directory),
                             only subtrees whose input rows changed are
                             re-enumerated, the rest is spliced from the
                             previous store; output is bit-identical to a
                             full re-mine (reg-cluster only; see
                             DESIGN.md §13); --maximal-only/--max-clusters
                             run as a post-pass over the spliced result
                             (the previous store must be unfiltered)
                             with --store <dir> the new store is published
                             as the directory's next generation

  regcluster generate --output <matrix.tsv> [options]
      --genes <N>            number of genes (default 3000)
      --conds <N>            number of conditions (default 30)
      --clusters <N>         embedded clusters (default 30)
      --pattern <KIND>       shift-scale | shift-only | scale-only | tendency
      --plant-gamma <F>      regulation margin of planted clusters (default 0.15)
      --neg-fraction <F>     fraction of negated member genes (default 0.25)
      --gene-frac <F>        average fraction of genes per cluster (default 0.01)
      --seed <N>             RNG seed (default 42)
      --ground-truth <file.json>  also write the planted clusters

  regcluster generate-yeast --output <matrix.tsv> [--go <go.json>]
      [--modules <modules.json>] [--seed <N>]
      writes the simulated 2884×17 yeast benchmark with its synthetic GO
      annotation database and planted-module ground truth

  regcluster enrich --clusters <found.json> --go <go.json> [--top <N>]
      prints the top GO term per category for each mined cluster
      (the paper's Table 2 layout)

  regcluster eval --clusters <found.json|store.rcs> --ground-truth <truth.json>
      scores mined clusters (a `mine --output` JSON or a `.rcs` store
      from any engine) against the planted ground truth

  regcluster info --input <matrix.tsv>

  regcluster rwave --input <matrix.tsv> --gene <label> [--gamma <F>]
      prints the gene's RWave^γ model: the condition ordering and the
      bordering regulation pointers (default γ = 0.15)

  regcluster query --store <out.rcs> [options]
      --gene <LIST>          comma-separated gene names or ids; matches must
                             contain every listed gene
      --cond <LIST>          comma-separated condition names or ids; the
                             chain must span every listed condition
      --min-genes <N>        at least N member genes
      --min-conds <N>        chain at least N conditions long
      --top <N>              keep only the N largest matches (covered cells)
      --json                 print matching clusters as JSON

  regcluster serve --store <out.rcs> [--port <N>] [--threads <N>]
      [--requests <N>] [--queue <N>]
      serves the store over HTTP on 127.0.0.1 (port 0 = pick a free port,
      printed on startup); endpoints: /health, /stats,
      /clusters?gene=..&cond=..&min_genes=..&min_conds=..&top=..,
      /clusters/{id}; --requests N stops gracefully after N requests;
      --queue N bounds the accept queue (default 64) — overload beyond it
      is shed with 503 + Retry-After instead of queueing unboundedly;
      --watch <dir> (instead of --store) serves a generations directory's
      published generation and hot-swaps to new ones as they are
      published, without dropping in-flight requests;
      --watch-interval-ms N re-reads CURRENT about every N ms
      (default 100); unreadable CURRENT observations are counted on
      regcluster_store_watch_errors_total and retried

  regcluster coordinator --input <matrix.tsv> --store <gens-dir>
      --work-dir <dir> [--port <N>] [--leases <N>] [--lease-ttl-ms <N>]
      [--min-genes <N>] [--min-conds <N>] [--gamma <F>]
      [--gamma-absolute <F>] [--epsilon <F>] [--linger]
      coordinates a distributed mine: partitions the root space into
      --leases ranges, leases them to workers over HTTP on 127.0.0.1
      (port 0 = pick a free port, printed on startup), expires and
      re-grants leases not renewed within --lease-ttl-ms, merges the
      uploaded shards bit-identically to a single-node `mine --store`
      and publishes the result as <gens-dir>'s next generation;
      --linger keeps /job, /status and /metrics up after publishing

  regcluster worker --input <matrix.tsv> --coordinator <host:port>
      --work-dir <dir> [--threads <N>] [--worker-id <NAME>]
      [--poll-ms <N>] [--checkpoint-every-secs <F>]
      mines root ranges leased from a coordinator, checkpointing the
      frontier to --work-dir (crash-resumable per lease), heartbeating
      to keep its leases and uploading sealed shards; exits when the
      coordinator reports every lease done

  regcluster help
      prints this text
";

fn take_options(rest: &[String]) -> Result<HashMap<String, String>, ParseError> {
    let mut opts = HashMap::new();
    let mut i = 0;
    while i < rest.len() {
        let arg = &rest[i];
        let Some(stripped) = arg.strip_prefix("--") else {
            return Err(ParseError(format!(
                "unexpected argument {arg:?} (options start with --)"
            )));
        };
        if let Some((k, v)) = stripped.split_once('=') {
            opts.insert(k.to_string(), v.to_string());
            i += 1;
        } else if is_boolean_flag(stripped) {
            opts.insert(stripped.to_string(), "true".to_string());
            i += 1;
        } else {
            let v = rest
                .get(i + 1)
                .ok_or_else(|| ParseError(format!("option --{stripped} needs a value")))?;
            opts.insert(stripped.to_string(), v.clone());
            i += 2;
        }
    }
    Ok(opts)
}

fn is_boolean_flag(name: &str) -> bool {
    matches!(
        name,
        "maximal-only" | "help" | "stats" | "progress" | "json" | "linger"
    )
}

fn get<T: std::str::FromStr>(
    opts: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, ParseError> {
    match opts.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| ParseError(format!("cannot parse --{key} value {v:?}"))),
    }
}

fn require(opts: &HashMap<String, String>, key: &str) -> Result<String, ParseError> {
    opts.get(key)
        .cloned()
        .ok_or_else(|| ParseError(format!("missing required option --{key}")))
}

fn check_known(opts: &HashMap<String, String>, known: &[&str]) -> Result<(), ParseError> {
    for k in opts.keys() {
        if !known.contains(&k.as_str()) {
            return Err(ParseError(format!("unknown option --{k}")));
        }
    }
    Ok(())
}

/// Parses a full argument vector (excluding the program name).
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first problem encountered.
pub fn parse_args(args: &[String]) -> Result<Command, ParseError> {
    let Some(cmd) = args.first() else {
        return Ok(Command::Help);
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "mine" => {
            let opts = take_options(rest)?;
            check_known(
                &opts,
                &[
                    "input",
                    "engine",
                    "delta",
                    "min-genes",
                    "min-conds",
                    "gamma",
                    "gamma-absolute",
                    "epsilon",
                    "threads",
                    "deadline-secs",
                    "max-clusters",
                    "maximal-only",
                    "impute",
                    "output",
                    "stats",
                    "progress",
                    "store",
                    "metrics",
                    "metrics-json",
                    "checkpoint",
                    "checkpoint-every-secs",
                    "resume",
                    "delta-from",
                ],
            )?;
            let input = require(&opts, "input")?;
            let engine = get(&opts, "engine", "reg-cluster".to_string())?;
            if !regcluster_engines::ENGINE_NAMES.contains(&engine.as_str()) {
                return Err(ParseError(format!(
                    "unknown engine {engine:?}; known engines: {}",
                    regcluster_engines::ENGINE_NAMES.join(", ")
                )));
            }
            let delta = match opts.get("delta") {
                Some(s) => {
                    let v: f64 = s
                        .parse()
                        .map_err(|_| ParseError(format!("cannot parse --delta {s:?}")))?;
                    if !v.is_finite() || v <= 0.0 {
                        return Err(ParseError(format!(
                            "--delta must be a positive number, got {s:?}"
                        )));
                    }
                    Some(v)
                }
                None => None,
            };
            let min_genes = get(&opts, "min-genes", 20usize)?;
            let min_conds = get(&opts, "min-conds", 6usize)?;
            let epsilon = get(&opts, "epsilon", 1.0f64)?;
            let mut params = MiningParams::new(min_genes, min_conds, 0.05, epsilon)
                .map_err(|e| ParseError(e.to_string()))?;
            if let Some(abs) = opts.get("gamma-absolute") {
                let v: f64 = abs
                    .parse()
                    .map_err(|_| ParseError(format!("cannot parse --gamma-absolute {abs:?}")))?;
                params = params
                    .with_threshold(RegulationThreshold::Absolute(v))
                    .map_err(|e| ParseError(e.to_string()))?;
            } else {
                let gamma = get(&opts, "gamma", 0.05f64)?;
                params = params
                    .with_threshold(RegulationThreshold::FractionOfRange(gamma))
                    .map_err(|e| ParseError(e.to_string()))?;
            }
            if let Some(cap) = opts.get("max-clusters") {
                let cap: usize = cap
                    .parse()
                    .map_err(|_| ParseError(format!("cannot parse --max-clusters {cap:?}")))?;
                params = params.with_max_clusters(cap);
            }
            if opts.contains_key("maximal-only") {
                params = params.with_maximal_only();
            }
            let impute = get(&opts, "impute", "none".to_string())?;
            if !["none", "row-mean", "col-mean"].contains(&impute.as_str()) {
                return Err(ParseError(format!(
                    "--impute must be none, row-mean or col-mean, got {impute:?}"
                )));
            }
            let deadline_secs = match opts.get("deadline-secs") {
                Some(s) => {
                    let v: f64 = s
                        .parse()
                        .map_err(|_| ParseError(format!("cannot parse --deadline-secs {s:?}")))?;
                    if !v.is_finite() || v < 0.0 {
                        return Err(ParseError(format!(
                            "--deadline-secs must be a non-negative number, got {s:?}"
                        )));
                    }
                    Some(v)
                }
                None => None,
            };
            let checkpoint_every_secs = match opts.get("checkpoint-every-secs") {
                Some(s) => {
                    let v: f64 = s.parse().map_err(|_| {
                        ParseError(format!("cannot parse --checkpoint-every-secs {s:?}"))
                    })?;
                    if !v.is_finite() || v < 0.0 {
                        return Err(ParseError(format!(
                            "--checkpoint-every-secs must be a non-negative number, got {s:?}"
                        )));
                    }
                    Some(v)
                }
                None => None,
            };
            let checkpoint = opts.get("checkpoint").cloned();
            let resume = opts.get("resume").cloned();
            if checkpoint_every_secs.is_some() && checkpoint.is_none() && resume.is_none() {
                return Err(ParseError(
                    "--checkpoint-every-secs needs --checkpoint (or --resume) \
                     to know where snapshots go"
                        .into(),
                ));
            }
            // Checkpoints snapshot the reg-cluster enumeration frontier; no
            // other engine has one, so refuse up front rather than silently
            // mining without crash safety.
            if engine != "reg-cluster" && (checkpoint.is_some() || resume.is_some()) {
                return Err(ParseError(format!(
                    "--checkpoint/--resume are only supported by the reg-cluster \
                     engine, not {engine:?}"
                )));
            }
            let delta_from = opts.get("delta-from").cloned();
            if delta_from.is_some() {
                // Per-root reuse leans on the reg-cluster enumeration
                // tree's root decomposition; no other engine has one.
                if engine != "reg-cluster" {
                    return Err(ParseError(format!(
                        "--delta-from is only supported by the reg-cluster \
                         engine, not {engine:?}"
                    )));
                }
                if checkpoint.is_some() || resume.is_some() {
                    return Err(ParseError(
                        "--delta-from cannot be combined with --checkpoint/--resume \
                         (a delta mine is already incremental)"
                            .into(),
                    ));
                }
                // maximal-only / max-clusters compose with --delta-from:
                // the splice produces the unfiltered union and the filters
                // run as a post-pass over it (the previous store must
                // itself be unfiltered; `mine` checks that).
            }
            Ok(Command::Mine {
                input,
                engine,
                params,
                delta,
                threads: get(&opts, "threads", 1usize)?,
                deadline_secs,
                progress: opts.contains_key("progress"),
                output: opts.get("output").cloned(),
                impute,
                stats: opts.contains_key("stats"),
                store: opts.get("store").cloned(),
                metrics: opts.get("metrics").cloned(),
                metrics_json: opts.get("metrics-json").cloned(),
                checkpoint,
                checkpoint_every_secs,
                resume,
                delta_from,
            })
        }
        "generate" => {
            let opts = take_options(rest)?;
            check_known(
                &opts,
                &[
                    "output",
                    "genes",
                    "conds",
                    "clusters",
                    "pattern",
                    "plant-gamma",
                    "neg-fraction",
                    "gene-frac",
                    "seed",
                    "ground-truth",
                ],
            )?;
            let output = require(&opts, "output")?;
            let pattern = match opts.get("pattern").map(String::as_str).unwrap_or("shift-scale") {
                "shift-scale" => PatternKind::ShiftScale,
                "shift-only" => PatternKind::ShiftOnly,
                "scale-only" => PatternKind::ScaleOnly,
                "tendency" => PatternKind::Tendency,
                other => {
                    return Err(ParseError(format!(
                        "--pattern must be shift-scale, shift-only, scale-only or tendency, got {other:?}"
                    )))
                }
            };
            let defaults = SyntheticConfig::default();
            let config = SyntheticConfig {
                n_genes: get(&opts, "genes", defaults.n_genes)?,
                n_conds: get(&opts, "conds", defaults.n_conds)?,
                n_clusters: get(&opts, "clusters", defaults.n_clusters)?,
                plant_gamma: get(&opts, "plant-gamma", defaults.plant_gamma)?,
                neg_fraction: get(&opts, "neg-fraction", defaults.neg_fraction)?,
                cluster_gene_frac: get(&opts, "gene-frac", defaults.cluster_gene_frac)?,
                seed: get(&opts, "seed", defaults.seed)?,
                pattern,
                ..defaults
            };
            Ok(Command::Generate {
                output,
                config,
                ground_truth: opts.get("ground-truth").cloned(),
            })
        }
        "generate-yeast" => {
            let opts = take_options(rest)?;
            check_known(&opts, &["output", "go", "modules", "seed"])?;
            Ok(Command::GenerateYeast {
                output: require(&opts, "output")?,
                go: opts.get("go").cloned(),
                modules: opts.get("modules").cloned(),
                seed: get(&opts, "seed", 2006u64)?,
            })
        }
        "enrich" => {
            let opts = take_options(rest)?;
            check_known(&opts, &["clusters", "go", "top"])?;
            Ok(Command::Enrich {
                clusters: require(&opts, "clusters")?,
                go: require(&opts, "go")?,
                top: get(&opts, "top", 5usize)?,
            })
        }
        "eval" => {
            let opts = take_options(rest)?;
            check_known(&opts, &["clusters", "ground-truth"])?;
            Ok(Command::Eval {
                clusters: require(&opts, "clusters")?,
                ground_truth: require(&opts, "ground-truth")?,
            })
        }
        "info" => {
            let opts = take_options(rest)?;
            check_known(&opts, &["input"])?;
            Ok(Command::Info {
                input: require(&opts, "input")?,
            })
        }
        "rwave" => {
            let opts = take_options(rest)?;
            check_known(&opts, &["input", "gene", "gamma"])?;
            Ok(Command::RWave {
                input: require(&opts, "input")?,
                gene: require(&opts, "gene")?,
                gamma: get(&opts, "gamma", 0.15f64)?,
            })
        }
        "query" => {
            let opts = take_options(rest)?;
            check_known(
                &opts,
                &[
                    "store",
                    "gene",
                    "cond",
                    "min-genes",
                    "min-conds",
                    "top",
                    "json",
                ],
            )?;
            let top = match opts.get("top") {
                Some(v) => Some(
                    v.parse::<usize>()
                        .map_err(|_| ParseError(format!("cannot parse --top value {v:?}")))?,
                ),
                None => None,
            };
            Ok(Command::Query {
                store: require(&opts, "store")?,
                genes: opts.get("gene").cloned(),
                conds: opts.get("cond").cloned(),
                min_genes: get(&opts, "min-genes", 0u32)?,
                min_conds: get(&opts, "min-conds", 0u32)?,
                top,
                json: opts.contains_key("json"),
            })
        }
        "serve" => {
            let opts = take_options(rest)?;
            check_known(
                &opts,
                &[
                    "store",
                    "watch",
                    "port",
                    "threads",
                    "requests",
                    "queue",
                    "watch-interval-ms",
                ],
            )?;
            let requests = match opts.get("requests") {
                Some(v) => Some(
                    v.parse::<u64>()
                        .map_err(|_| ParseError(format!("cannot parse --requests value {v:?}")))?,
                ),
                None => None,
            };
            let queue = get(&opts, "queue", 64usize)?;
            if queue == 0 {
                return Err(ParseError(
                    "--queue must be at least 1 (a zero-capacity accept queue \
                     would shed every request)"
                        .into(),
                ));
            }
            // Exactly one of --store (a sealed .rcs file) and --watch (a
            // generations directory to hot-swap from) names what to serve.
            let (store, watch) = match (opts.get("store"), opts.get("watch")) {
                (Some(s), None) => (s.clone(), false),
                (None, Some(d)) => (d.clone(), true),
                (Some(_), Some(_)) => {
                    return Err(ParseError(
                        "--store and --watch are mutually exclusive (a file vs a \
                         generations directory)"
                            .into(),
                    ))
                }
                (None, None) => {
                    return Err(ParseError(
                        "serve needs --store <file.rcs> or --watch <dir>".into(),
                    ))
                }
            };
            let watch_interval_ms = get(&opts, "watch-interval-ms", 100u64)?;
            if watch_interval_ms == 0 {
                return Err(ParseError(
                    "--watch-interval-ms must be at least 1 (a zero interval \
                     would spin the watcher thread)"
                        .into(),
                ));
            }
            if opts.contains_key("watch-interval-ms") && !watch {
                return Err(ParseError(
                    "--watch-interval-ms only applies with --watch <dir>".into(),
                ));
            }
            Ok(Command::Serve {
                store,
                watch,
                port: get(&opts, "port", 7878u16)?,
                threads: get(&opts, "threads", 4usize)?,
                requests,
                queue,
                watch_interval_ms,
            })
        }
        "coordinator" => {
            let opts = take_options(rest)?;
            check_known(
                &opts,
                &[
                    "input",
                    "store",
                    "work-dir",
                    "port",
                    "leases",
                    "lease-ttl-ms",
                    "linger",
                    "min-genes",
                    "min-conds",
                    "gamma",
                    "gamma-absolute",
                    "epsilon",
                ],
            )?;
            let min_genes = get(&opts, "min-genes", 20usize)?;
            let min_conds = get(&opts, "min-conds", 6usize)?;
            let epsilon = get(&opts, "epsilon", 1.0f64)?;
            let mut params = MiningParams::new(min_genes, min_conds, 0.05, epsilon)
                .map_err(|e| ParseError(e.to_string()))?;
            if let Some(abs) = opts.get("gamma-absolute") {
                let v: f64 = abs
                    .parse()
                    .map_err(|_| ParseError(format!("cannot parse --gamma-absolute {abs:?}")))?;
                params = params
                    .with_threshold(RegulationThreshold::Absolute(v))
                    .map_err(|e| ParseError(e.to_string()))?;
            } else {
                let gamma = get(&opts, "gamma", 0.05f64)?;
                params = params
                    .with_threshold(RegulationThreshold::FractionOfRange(gamma))
                    .map_err(|e| ParseError(e.to_string()))?;
            }
            let leases = get(&opts, "leases", 8usize)?;
            if leases == 0 {
                return Err(ParseError("--leases must be at least 1".into()));
            }
            let lease_ttl_ms = get(&opts, "lease-ttl-ms", 10_000u64)?;
            if lease_ttl_ms == 0 {
                return Err(ParseError("--lease-ttl-ms must be at least 1".into()));
            }
            Ok(Command::Coordinator {
                input: require(&opts, "input")?,
                params,
                store: require(&opts, "store")?,
                work_dir: require(&opts, "work-dir")?,
                port: get(&opts, "port", 0u16)?,
                leases,
                lease_ttl_ms,
                linger: opts.contains_key("linger"),
            })
        }
        "worker" => {
            let opts = take_options(rest)?;
            check_known(
                &opts,
                &[
                    "input",
                    "coordinator",
                    "work-dir",
                    "threads",
                    "worker-id",
                    "poll-ms",
                    "checkpoint-every-secs",
                ],
            )?;
            let poll_ms = get(&opts, "poll-ms", 200u64)?;
            if poll_ms == 0 {
                return Err(ParseError("--poll-ms must be at least 1".into()));
            }
            let checkpoint_every_secs = get(&opts, "checkpoint-every-secs", 1.0f64)?;
            if !checkpoint_every_secs.is_finite() || checkpoint_every_secs < 0.0 {
                return Err(ParseError(
                    "--checkpoint-every-secs must be a non-negative number".into(),
                ));
            }
            Ok(Command::Worker {
                input: require(&opts, "input")?,
                coordinator: require(&opts, "coordinator")?,
                work_dir: require(&opts, "work-dir")?,
                threads: get(&opts, "threads", 1usize)?,
                worker_id: opts.get("worker-id").cloned(),
                poll_ms,
                checkpoint_every_secs,
            })
        }
        other => Err(ParseError(format!(
            "unknown subcommand {other:?}; try `regcluster help`"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn empty_and_help() {
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
        assert_eq!(parse_args(&sv(&["help"])).unwrap(), Command::Help);
        assert_eq!(parse_args(&sv(&["--help"])).unwrap(), Command::Help);
    }

    #[test]
    fn mine_defaults_and_overrides() {
        let cmd = parse_args(&sv(&[
            "mine",
            "--input",
            "m.tsv",
            "--min-genes=5",
            "--gamma",
            "0.1",
            "--epsilon",
            "0.2",
            "--threads",
            "4",
            "--maximal-only",
        ]))
        .unwrap();
        match cmd {
            Command::Mine {
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
            } => {
                assert_eq!(input, "m.tsv");
                assert_eq!(engine, "reg-cluster");
                assert_eq!(delta, None);
                assert_eq!(store, None);
                assert_eq!(metrics, None);
                assert_eq!(metrics_json, None);
                assert_eq!(checkpoint, None);
                assert_eq!(checkpoint_every_secs, None);
                assert_eq!(resume, None);
                assert_eq!(delta_from, None);
                assert!(!stats);
                assert!(!progress);
                assert_eq!(params.min_genes, 5);
                assert_eq!(params.min_conds, 6);
                assert_eq!(params.gamma, RegulationThreshold::FractionOfRange(0.1));
                assert_eq!(params.epsilon, 0.2);
                assert!(params.maximal_only);
                assert_eq!(threads, 4);
                assert_eq!(deadline_secs, None);
                assert_eq!(output, None);
                assert_eq!(impute, "none");
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn mine_parses_deadline_and_progress() {
        let cmd = parse_args(&sv(&[
            "mine",
            "--input",
            "m.tsv",
            "--deadline-secs",
            "2.5",
            "--progress",
        ]))
        .unwrap();
        match cmd {
            Command::Mine {
                deadline_secs,
                progress,
                ..
            } => {
                assert_eq!(deadline_secs, Some(2.5));
                assert!(progress);
            }
            other => panic!("wrong command {other:?}"),
        }
        // Negative, non-finite and non-numeric budgets are rejected.
        for bad in ["-1", "abc", "inf", "NaN"] {
            assert!(
                parse_args(&sv(&["mine", "--input", "m.tsv", "--deadline-secs", bad])).is_err(),
                "--deadline-secs {bad} should be rejected"
            );
        }
    }

    #[test]
    fn mine_with_absolute_gamma() {
        let cmd = parse_args(&sv(&[
            "mine",
            "--input",
            "m.tsv",
            "--gamma-absolute",
            "2.5",
        ]))
        .unwrap();
        match cmd {
            Command::Mine { params, .. } => {
                assert_eq!(params.gamma, RegulationThreshold::Absolute(2.5));
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn mine_parses_engine_and_delta() {
        match parse_args(&sv(&[
            "mine", "--input", "m.tsv", "--engine", "pcluster", "--delta", "0.2",
        ]))
        .unwrap()
        {
            Command::Mine { engine, delta, .. } => {
                assert_eq!(engine, "pcluster");
                assert_eq!(delta, Some(0.2));
            }
            other => panic!("wrong command {other:?}"),
        }
        // Unknown engines and out-of-domain deltas fail at parse time.
        let err = parse_args(&sv(&["mine", "--input", "m", "--engine", "kmeans"])).unwrap_err();
        assert!(err.0.contains("known engines"), "{err}");
        for bad in ["0", "-1", "abc", "inf", "NaN"] {
            assert!(
                parse_args(&sv(&["mine", "--input", "m", "--delta", bad])).is_err(),
                "--delta {bad} should be rejected"
            );
        }
        // Checkpointing is a reg-cluster capability.
        let err = parse_args(&sv(&[
            "mine",
            "--input",
            "m",
            "--engine",
            "floc",
            "--checkpoint",
            "c.rck",
        ]))
        .unwrap_err();
        assert!(err.0.contains("reg-cluster"), "{err}");
        assert!(parse_args(&sv(&[
            "mine", "--input", "m", "--engine", "opsm", "--resume", "c.rck",
        ]))
        .is_err());
    }

    #[test]
    fn mine_requires_input() {
        let err = parse_args(&sv(&["mine", "--min-genes", "3"])).unwrap_err();
        assert!(err.0.contains("--input"));
    }

    #[test]
    fn rejects_unknown_options_and_bad_values() {
        assert!(parse_args(&sv(&["mine", "--input", "x", "--bogus", "1"])).is_err());
        assert!(parse_args(&sv(&["mine", "--input", "x", "--min-genes", "abc"])).is_err());
        assert!(parse_args(&sv(&["mine", "--input", "x", "--impute", "magic"])).is_err());
        assert!(parse_args(&sv(&["frobnicate"])).is_err());
        assert!(parse_args(&sv(&["mine", "positional"])).is_err());
    }

    #[test]
    fn generate_parses_pattern_and_seed() {
        let cmd = parse_args(&sv(&[
            "generate",
            "--output",
            "out.tsv",
            "--genes",
            "500",
            "--pattern",
            "scale-only",
            "--seed=7",
            "--ground-truth",
            "gt.json",
        ]))
        .unwrap();
        match cmd {
            Command::Generate {
                output,
                config,
                ground_truth,
            } => {
                assert_eq!(output, "out.tsv");
                assert_eq!(config.n_genes, 500);
                assert_eq!(config.pattern, PatternKind::ScaleOnly);
                assert_eq!(config.seed, 7);
                assert_eq!(ground_truth.as_deref(), Some("gt.json"));
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(parse_args(&sv(&["generate", "--output", "x", "--pattern", "weird"])).is_err());
    }

    #[test]
    fn eval_and_info() {
        assert_eq!(
            parse_args(&sv(&[
                "eval",
                "--clusters",
                "a.json",
                "--ground-truth",
                "b.json"
            ]))
            .unwrap(),
            Command::Eval {
                clusters: "a.json".into(),
                ground_truth: "b.json".into()
            }
        );
        assert_eq!(
            parse_args(&sv(&["info", "--input", "m.tsv"])).unwrap(),
            Command::Info {
                input: "m.tsv".into()
            }
        );
        assert!(parse_args(&sv(&["eval", "--clusters", "a.json"])).is_err());
    }

    #[test]
    fn missing_value_for_option_errors() {
        let err = parse_args(&sv(&["mine", "--input"])).unwrap_err();
        assert!(err.0.contains("needs a value"));
    }

    #[test]
    fn query_and_serve_parse() {
        let cmd = parse_args(&sv(&[
            "query",
            "--store",
            "out.rcs",
            "--gene",
            "g1,g2",
            "--cond",
            "c3",
            "--min-genes",
            "4",
            "--top",
            "10",
            "--json",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Query {
                store: "out.rcs".into(),
                genes: Some("g1,g2".into()),
                conds: Some("c3".into()),
                min_genes: 4,
                min_conds: 0,
                top: Some(10),
                json: true,
            }
        );
        let cmd = parse_args(&sv(&["serve", "--store", "out.rcs", "--port", "0"])).unwrap();
        assert_eq!(
            cmd,
            Command::Serve {
                store: "out.rcs".into(),
                watch: false,
                port: 0,
                threads: 4,
                requests: None,
                queue: 64,
                watch_interval_ms: 100,
            }
        );
        // --watch <dir> names a generations directory instead of a file.
        match parse_args(&sv(&["serve", "--watch", "gens/"])).unwrap() {
            Command::Serve { store, watch, .. } => {
                assert_eq!(store, "gens/");
                assert!(watch);
            }
            other => panic!("wrong command {other:?}"),
        }
        // Exactly one of --store / --watch.
        assert!(parse_args(&sv(&["serve"])).is_err());
        assert!(parse_args(&sv(&["serve", "--store", "a.rcs", "--watch", "gens/"])).is_err());
        assert!(parse_args(&sv(&["query"])).is_err(), "--store is required");
        assert!(parse_args(&sv(&["serve", "--store", "x", "--port", "high"])).is_err());
        assert!(parse_args(&sv(&["serve", "--store", "x", "--requests", "-1"])).is_err());
        // The accept queue must hold at least one connection.
        match parse_args(&sv(&["serve", "--store", "x", "--queue", "8"])).unwrap() {
            Command::Serve { queue, .. } => assert_eq!(queue, 8),
            other => panic!("wrong command {other:?}"),
        }
        assert!(parse_args(&sv(&["serve", "--store", "x", "--queue", "0"])).is_err());
    }

    #[test]
    fn mine_parses_checkpoint_flags() {
        let cmd = parse_args(&sv(&[
            "mine",
            "--input",
            "m.tsv",
            "--checkpoint",
            "run.rck",
            "--checkpoint-every-secs",
            "30",
        ]))
        .unwrap();
        match cmd {
            Command::Mine {
                checkpoint,
                checkpoint_every_secs,
                resume,
                ..
            } => {
                assert_eq!(checkpoint.as_deref(), Some("run.rck"));
                assert_eq!(checkpoint_every_secs, Some(30.0));
                assert_eq!(resume, None);
            }
            other => panic!("wrong command {other:?}"),
        }
        // Resuming alone is fine; the resume path doubles as the sink.
        match parse_args(&sv(&["mine", "--input", "m.tsv", "--resume", "run.rck"])).unwrap() {
            Command::Mine { resume, .. } => assert_eq!(resume.as_deref(), Some("run.rck")),
            other => panic!("wrong command {other:?}"),
        }
        // A cadence with nowhere to write is rejected, as are bad values.
        assert!(parse_args(&sv(&[
            "mine",
            "--input",
            "m.tsv",
            "--checkpoint-every-secs",
            "5"
        ]))
        .is_err());
        for bad in ["-1", "abc", "inf", "NaN"] {
            assert!(
                parse_args(&sv(&[
                    "mine",
                    "--input",
                    "m.tsv",
                    "--checkpoint",
                    "c.rck",
                    "--checkpoint-every-secs",
                    bad
                ]))
                .is_err(),
                "--checkpoint-every-secs {bad} should be rejected"
            );
        }
    }

    #[test]
    fn mine_parses_delta_from_and_its_conflicts() {
        match parse_args(&sv(&[
            "mine",
            "--input",
            "m.tsv",
            "--delta-from",
            "prev.rcs",
        ]))
        .unwrap()
        {
            Command::Mine { delta_from, .. } => {
                assert_eq!(delta_from.as_deref(), Some("prev.rcs"));
            }
            other => panic!("wrong command {other:?}"),
        }
        // reg-cluster only.
        let err = parse_args(&sv(&[
            "mine",
            "--input",
            "m",
            "--engine",
            "opsm",
            "--delta-from",
            "p.rcs",
        ]))
        .unwrap_err();
        assert!(err.0.contains("reg-cluster"), "{err}");
        // No checkpointing on top of a delta mine.
        for conflict in [["--checkpoint", "c.rck"], ["--resume", "c.rck"]] {
            assert!(
                parse_args(&sv(&[
                    "mine",
                    "--input",
                    "m",
                    "--delta-from",
                    "p.rcs",
                    conflict[0],
                    conflict[1],
                ]))
                .is_err(),
                "{conflict:?} must conflict with --delta-from"
            );
        }
        // Cross-root post-filters compose with a delta mine: they run as
        // a post-pass over the spliced union.
        match parse_args(&sv(&[
            "mine",
            "--input",
            "m",
            "--delta-from",
            "p.rcs",
            "--maximal-only",
        ]))
        .unwrap()
        {
            Command::Mine { params, .. } => assert!(params.maximal_only),
            other => panic!("wrong command {other:?}"),
        }
        match parse_args(&sv(&[
            "mine",
            "--input",
            "m",
            "--delta-from",
            "p.rcs",
            "--max-clusters",
            "5",
        ]))
        .unwrap()
        {
            Command::Mine { params, .. } => assert_eq!(params.max_clusters, Some(5)),
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn coordinator_and_worker_parse() {
        match parse_args(&sv(&[
            "coordinator",
            "--input",
            "m.tsv",
            "--store",
            "gens/",
            "--work-dir",
            "scratch/",
            "--leases",
            "4",
            "--lease-ttl-ms",
            "500",
            "--min-genes",
            "3",
            "--linger",
        ]))
        .unwrap()
        {
            Command::Coordinator {
                input,
                store,
                work_dir,
                leases,
                lease_ttl_ms,
                linger,
                params,
                port,
            } => {
                assert_eq!(input, "m.tsv");
                assert_eq!(store, "gens/");
                assert_eq!(work_dir, "scratch/");
                assert_eq!(leases, 4);
                assert_eq!(lease_ttl_ms, 500);
                assert!(linger);
                assert_eq!(params.min_genes, 3);
                assert_eq!(port, 0);
            }
            other => panic!("wrong command {other:?}"),
        }
        match parse_args(&sv(&[
            "worker",
            "--input",
            "m.tsv",
            "--coordinator",
            "127.0.0.1:7000",
            "--work-dir",
            "scratch/",
            "--threads",
            "2",
            "--worker-id",
            "w1",
        ]))
        .unwrap()
        {
            Command::Worker {
                input,
                coordinator,
                work_dir,
                threads,
                worker_id,
                poll_ms,
                ..
            } => {
                assert_eq!(input, "m.tsv");
                assert_eq!(coordinator, "127.0.0.1:7000");
                assert_eq!(work_dir, "scratch/");
                assert_eq!(threads, 2);
                assert_eq!(worker_id.as_deref(), Some("w1"));
                assert_eq!(poll_ms, 200);
            }
            other => panic!("wrong command {other:?}"),
        }
        // Required options and degenerate values are rejected.
        assert!(parse_args(&sv(&["coordinator", "--input", "m"])).is_err());
        assert!(parse_args(&sv(&[
            "coordinator",
            "--input",
            "m",
            "--store",
            "g/",
            "--work-dir",
            "w/",
            "--leases",
            "0",
        ]))
        .is_err());
        // Post-filters are not accepted: they act across root boundaries.
        assert!(parse_args(&sv(&[
            "coordinator",
            "--input",
            "m",
            "--store",
            "g/",
            "--work-dir",
            "w/",
            "--maximal-only",
        ]))
        .is_err());
        assert!(parse_args(&sv(&["worker", "--input", "m", "--work-dir", "w/"])).is_err());
        assert!(parse_args(&sv(&[
            "worker",
            "--input",
            "m",
            "--coordinator",
            "c",
            "--work-dir",
            "w/",
            "--poll-ms",
            "0",
        ]))
        .is_err());
    }

    #[test]
    fn serve_parses_watch_interval() {
        match parse_args(&sv(&[
            "serve",
            "--watch",
            "gens/",
            "--watch-interval-ms",
            "25",
        ]))
        .unwrap()
        {
            Command::Serve {
                watch,
                watch_interval_ms,
                ..
            } => {
                assert!(watch);
                assert_eq!(watch_interval_ms, 25);
            }
            other => panic!("wrong command {other:?}"),
        }
        // Zero would spin; the flag is watch-only.
        assert!(parse_args(&sv(&[
            "serve",
            "--watch",
            "gens/",
            "--watch-interval-ms",
            "0"
        ]))
        .is_err());
        assert!(parse_args(&sv(&[
            "serve",
            "--store",
            "s.rcs",
            "--watch-interval-ms",
            "25"
        ]))
        .is_err());
    }

    /// The USAGE-drift guard: every subcommand the parser accepts must be
    /// documented in the help text. `subcommand_name` is an exhaustive
    /// match, so a new `Command` variant cannot compile without joining
    /// this sample list's coverage contract.
    #[test]
    fn every_subcommand_appears_in_usage() {
        let samples = [
            parse_args(&sv(&["mine", "--input", "m.tsv"])).unwrap(),
            parse_args(&sv(&["generate", "--output", "m.tsv"])).unwrap(),
            parse_args(&sv(&["generate-yeast", "--output", "m.tsv"])).unwrap(),
            parse_args(&sv(&["enrich", "--clusters", "a", "--go", "b"])).unwrap(),
            parse_args(&sv(&["eval", "--clusters", "a", "--ground-truth", "b"])).unwrap(),
            parse_args(&sv(&["info", "--input", "m.tsv"])).unwrap(),
            parse_args(&sv(&["rwave", "--input", "m", "--gene", "g1"])).unwrap(),
            parse_args(&sv(&["query", "--store", "s.rcs"])).unwrap(),
            parse_args(&sv(&["serve", "--store", "s.rcs"])).unwrap(),
            parse_args(&sv(&[
                "coordinator",
                "--input",
                "m.tsv",
                "--store",
                "gens/",
                "--work-dir",
                "scratch/",
            ]))
            .unwrap(),
            parse_args(&sv(&[
                "worker",
                "--input",
                "m.tsv",
                "--coordinator",
                "127.0.0.1:7000",
                "--work-dir",
                "scratch/",
            ]))
            .unwrap(),
            Command::Help,
        ];
        let mut names: Vec<&str> = samples.iter().map(Command::subcommand_name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), samples.len(), "one sample per variant");
        for name in names {
            assert!(
                USAGE.contains(&format!("regcluster {name}")),
                "subcommand {name:?} is missing from USAGE"
            );
        }
    }
}
