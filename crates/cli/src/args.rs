//! Command-line argument parsing.

use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;

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

/// Usage text printed by `regcluster help`, and the parser's option table:
/// under each `  regcluster <sub>` heading, a line of six spaces and `--name`
/// declares an option of `<sub>`. A `<VALUE>` right after the name makes it
/// take a value (else it is a flag); `(default X)` on its line or a deeper
/// continuation line is its value when absent. No prose line may start with
/// six spaces and `--`.
pub const USAGE: &str = "\
regcluster — mining shifting-and-scaling co-regulation patterns (ICDE 2006)

USAGE:
  regcluster mine --input <matrix.tsv> [options]
      --input <matrix.tsv>   tab-delimited expression matrix
      --engine <NAME>        mining engine (default reg-cluster):
                             reg-cluster | pcluster | scaling | cheng-church |
                             floc | opsm | op-cluster | microcluster | boolean
      --min-genes <N>        minimum genes per cluster (default 20)
      --min-conds <N>        minimum chain length (default 6)
      --delta <F>            baseline model tolerance (pScore δ / residue δ /
                             ratio ε / quantization step, engine-dependent;
                             each engine has its own); reg-cluster ignores it
      --gamma <F>            regulation threshold, fraction of range (default 0.05)
      --gamma-absolute <F>   absolute regulation threshold, instead of --gamma
      --epsilon <F>          coherence threshold (default 1.0)
      --threads <N>          worker threads (default 1)
      --deadline-secs <F>    wall-clock budget; past it, the run stops with
                             partial, truncated results instead of an error
      --max-clusters <N>     keep only the first N clusters (canonical order)
      --maximal-only         drop clusters contained in another
      --impute <MODE>        none | row-mean | col-mean (default none)
      --stats                print search-effort statistics (any thread count)
      --progress             print streaming progress to stderr
      --output <file.json>   write clusters as JSON instead of a table
      --store <file.rcs>     also write an indexed store for `query` and `serve`
      --metrics <file.prom>  write a Prometheus snapshot of the run's metrics
                             (phase timings, prune counters; see
                             docs/OBSERVABILITY.md)
      --metrics-json <file.json>  the same snapshot as versioned JSON
      --checkpoint <file.rck>  write crash-recovery snapshots here on deadline,
                             cancellation or worker panic
      --checkpoint-every-secs <F>  also snapshot about every F seconds
      --resume <file.rck>    resume an interrupted run from its checkpoint,
                             bit-identically (see docs/ROBUSTNESS.md)
      --delta-from <prev>    delta-mine against a previous run's .rcs store
                             (or generations directory): only subtrees whose
                             input rows changed are re-enumerated, and the
                             output is bit-identical to a full re-mine
                             (reg-cluster only; see DESIGN.md §13);
                             --maximal-only/--max-clusters run as a post-pass
                             (the previous store must be unfiltered); with
                             --store <dir> the result is its next generation

  regcluster generate --output <matrix.tsv> [options]
      --output <matrix.tsv>  where to write the matrix
      --genes <N>            number of genes (default 3000)
      --conds <N>            number of conditions (default 30)
      --clusters <N>         embedded clusters (default 30)
      --pattern <KIND>       shift-scale | shift-only | scale-only | tendency
                             (default shift-scale)
      --plant-gamma <F>      regulation margin of planted clusters (default 0.15)
      --neg-fraction <F>     fraction of negated member genes (default 0.25)
      --gene-frac <F>        average fraction of genes per cluster (default 0.01)
      --seed <N>             RNG seed (default 42)
      --ground-truth <file.json>  also write the planted clusters

  regcluster generate-yeast --output <matrix.tsv> [options]
      writes the simulated 2884×17 yeast benchmark with its synthetic GO
      annotation database and planted-module ground truth
      --output <matrix.tsv>  where to write the matrix
      --go <go.json>         also write the GO annotation database
      --modules <modules.json>  also write the planted-module ground truth
      --seed <N>             RNG seed (default 2006)

  regcluster enrich --clusters <found.json> --go <go.json> [--top <N>]
      prints each mined cluster's top GO term per category (Table 2)
      --clusters <found.json>  clusters written by `mine --output`
      --go <go.json>         GO database written by `generate-yeast --go`
      --top <N>              report the N largest clusters (default 5)

  regcluster eval --clusters <found.json|store.rcs> --ground-truth <truth.json>
      scores any engine's mined clusters against the planted ground truth
      --clusters <found.json|store.rcs>  the mined clusters
      --ground-truth <truth.json>  written by `generate --ground-truth`

  regcluster info --input <matrix.tsv>
      --input <matrix.tsv>   the matrix whose statistics to print

  regcluster rwave --input <matrix.tsv> --gene <label> [--gamma <F>]
      prints the gene's RWave^γ model: condition order and regulation pointers
      --input <matrix.tsv>   tab-delimited expression matrix
      --gene <label>         the gene to inspect
      --gamma <F>            regulation threshold, fraction of range (default 0.15)

  regcluster query --store <out.rcs> [options]
      --store <out.rcs>      store written by `mine --store`
      --gene <LIST>          gene names or ids, comma-separated; all must be members
      --cond <LIST>          condition names or ids; all must be on the chain
      --min-genes <N>        at least N member genes (default 0)
      --min-conds <N>        chain at least N conditions long (default 0)
      --top <N>              keep only the N largest matches (covered cells)
      --json                 print matching clusters as JSON

  regcluster serve (--store <out.rcs> | --watch <dir>) [options]
      serves the store over HTTP on 127.0.0.1; endpoints: /health, /stats,
      /clusters?gene=..&cond=..&min_genes=..&min_conds=..&top=.., /clusters/{id}
      --store <out.rcs>      store written by `mine --store`
      --watch <dir>          serve a generations directory instead, hot-swapping
                             to each new generation without dropping requests
      --port <N>             0 picks a free port, printed on startup (default 7878)
      --threads <N>          request worker threads (default 4)
      --requests <N>         stop gracefully after N requests
      --queue <N>            accept-queue bound; overload beyond it is shed
                             with 503 + Retry-After (default 64)
      --watch-interval-ms <N>  re-read CURRENT about every N ms; unreadable
                             ones count on regcluster_store_watch_errors_total
                             and are retried (default 100)

  regcluster coordinator --input <matrix.tsv> --store <gens-dir> --work-dir <dir>
      leases root ranges to workers over HTTP on 127.0.0.1, merges their
      shards bit-identically to a single-node `mine --store` and publishes
      the result as <gens-dir>'s next generation
      --input <matrix.tsv>   expression matrix (workers load the same bytes)
      --store <gens-dir>     generations directory to publish into
      --work-dir <dir>       scratch directory for staged shards
      --port <N>             0 picks a free port, printed on startup (default 0)
      --leases <N>           ranges to slice the root space into (default 8)
      --lease-ttl-ms <N>     re-grant a lease not renewed in N ms (default 10000)
      --min-genes <N>        minimum genes per cluster (default 20)
      --min-conds <N>        minimum chain length (default 6)
      --gamma <F>            regulation threshold, fraction of range (default 0.05)
      --gamma-absolute <F>   absolute regulation threshold, instead of --gamma
      --epsilon <F>          coherence threshold (default 1.0)
      --linger               keep /job, /status and /metrics up after publishing

  regcluster worker --input <matrix.tsv> --coordinator <host:port> --work-dir <dir>
      mines root ranges leased from a coordinator and uploads their shards;
      exits when the coordinator reports every lease done
      --input <matrix.tsv>   expression matrix (the coordinator's bytes)
      --coordinator <host:port>  the coordinator's control-plane address
      --work-dir <dir>       scratch for shards and per-lease checkpoints
      --threads <N>          mining threads (default 1)
      --worker-id <NAME>     name reported to the coordinator (pid-based if absent)
      --poll-ms <N>          idle poll while waiting for a grant (default 200)
      --checkpoint-every-secs <F>  snapshot about every F seconds (default 1.0)

  regcluster help
      prints this text; so does --help after any subcommand
";

/// One option of a `USAGE` section: (name, takes a value, default).
type Row = (&'static str, bool, Option<&'static str>);

/// Scans `sub`'s `USAGE` section into its option rows (see [`USAGE`]).
fn section(sub: &str) -> Vec<Row> {
    let mut rows: Vec<Row> = Vec::new();
    let (mut inside, mut open) = (false, false);
    for line in USAGE.lines() {
        if let Some(heading) = line.strip_prefix("  regcluster ") {
            inside = heading.split_whitespace().next() == Some(sub);
            open = false;
            continue;
        }
        if !inside {
            continue;
        }
        if let Some(decl) = line.strip_prefix("      --") {
            let (name, help) = decl.split_once(' ').unwrap_or((decl, ""));
            rows.push((name, help.starts_with('<'), None));
            open = true;
        } else if !(open && line.starts_with("       ")) {
            open = false;
            continue;
        }
        if let (Some(row), Some((_, rest))) = (rows.last_mut(), line.split_once("(default ")) {
            row.2 = rest.split_once(')').map(|(default, _)| default);
        }
    }
    rows
}

type Parsed<T> = Result<T, ParseError>;

fn err<T>(msg: impl Into<String>) -> Parsed<T> {
    Err(ParseError(msg.into()))
}

/// A subcommand's arguments, read against its `USAGE` rows.
struct Opts {
    rows: Vec<Row>,
    given: HashMap<&'static str, String>,
}

impl Opts {
    /// Reads `args` against `sub`'s rows, rejecting a bad token where it stands.
    fn parse(sub: &str, args: &[String]) -> Parsed<Self> {
        let rows = section(sub);
        let mut given = HashMap::new();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let Some(opt) = arg.strip_prefix("--") else {
                return err(format!(
                    "unexpected argument {arg:?} (options start with --)"
                ));
            };
            let (name, inline) = match opt.split_once('=') {
                Some((name, value)) => (name, Some(value)),
                None => (opt, None),
            };
            let Some(&(name, takes_value, _)) = rows.iter().find(|row| row.0 == name) else {
                return err(format!("unknown option --{name}"));
            };
            let value = match (takes_value, inline) {
                (false, None) => String::new(),
                (false, Some(_)) => return err(format!("option --{name} takes no value")),
                (true, Some(value)) => value.to_string(),
                (true, None) => args
                    .next()
                    .cloned()
                    .ok_or_else(|| ParseError(format!("option --{name} needs a value")))?,
            };
            given.insert(name, value);
        }
        Ok(Opts { rows, given })
    }

    fn row(&self, name: &str) -> &Row {
        let row = self.rows.iter().find(|row| row.0 == name);
        row.unwrap_or_else(|| panic!("--{name} is not declared in its USAGE section"))
    }

    /// The user's text for `--name`, else its `USAGE` default.
    fn raw(&self, name: &str) -> Option<&str> {
        let given = self.given.get(name).map(String::as_str);
        given.or(self.row(name).2)
    }

    /// Whether the user gave `--name` (for a flag: whether it is on).
    fn has(&self, name: &str) -> bool {
        self.given.contains_key(self.row(name).0)
    }

    /// `--name` parsed, or `None` when it is absent and has no default.
    fn value<T: FromStr>(&self, name: &str) -> Parsed<Option<T>> {
        self.raw(name)
            .map(|v| {
                v.parse()
                    .or_else(|_| err(format!("cannot parse --{name} value {v:?}")))
            })
            .transpose()
    }

    /// `--name` parsed; an option with no default is required.
    fn get<T: FromStr>(&self, name: &str) -> Parsed<T> {
        self.value(name)?
            .ok_or_else(|| ParseError(format!("missing required option --{name}")))
    }

    /// `--name` as a finite number that passes `ok`; `what` names the
    /// domain in the error.
    fn number(&self, name: &str, what: &str, ok: fn(f64) -> bool) -> Parsed<Option<f64>> {
        match self.value::<f64>(name)? {
            Some(v) if !(v.is_finite() && ok(v)) => err(format!(
                "--{name} must be {what}, got {:?}",
                self.raw(name).unwrap_or_default()
            )),
            v => Ok(v),
        }
    }

    fn non_negative(&self, name: &str) -> Parsed<Option<f64>> {
        self.number(name, "a non-negative number", |v| v >= 0.0)
    }

    /// `--name` parsed and at least 1; `why` ends the error message.
    fn at_least_1<T: FromStr + PartialOrd + From<u8>>(&self, name: &str, why: &str) -> Parsed<T> {
        let v = self.get(name)?;
        if v < T::from(1) {
            return err(format!("--{name} must be at least 1{why}"));
        }
        Ok(v)
    }

    /// `--name`, which must be one of `choices`.
    fn choice(&self, name: &str, choices: &[&'static str]) -> Parsed<&'static str> {
        let v: String = self.get(name)?;
        if let Some(choice) = choices.iter().find(|c| **c == v) {
            return Ok(choice);
        }
        let (last, init) = choices.split_last().expect("a choice needs choices");
        err(format!(
            "--{name} must be {} or {last}, got {v:?}",
            init.join(", ")
        ))
    }
}

/// Parses a full argument vector (excluding the program name).
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first problem encountered.
pub fn parse_args(args: &[String]) -> Result<Command, ParseError> {
    let Some(sub) = args.first() else {
        return Ok(Command::Help);
    };
    let build: fn(&Opts) -> Parsed<Command> = match sub.as_str() {
        "help" | "--help" | "-h" => return Ok(Command::Help),
        "mine" => mine,
        "generate" => generate,
        "generate-yeast" => generate_yeast,
        "enrich" => enrich,
        "eval" => eval,
        "info" => info,
        "rwave" => rwave,
        "query" => query,
        "serve" => serve,
        "coordinator" => coordinator,
        "worker" => worker,
        other => {
            return err(format!(
                "unknown subcommand {other:?}; try `regcluster help`"
            ))
        }
    };
    if args[1..].iter().any(|arg| arg == "--help") {
        return Ok(Command::Help);
    }
    build(&Opts::parse(sub, &args[1..])?)
}

/// The mining parameters `mine` and `coordinator` share.
fn mining_params(o: &Opts) -> Parsed<MiningParams> {
    let gamma = match o.value("gamma-absolute")? {
        Some(_) if o.has("gamma") => {
            return err("--gamma and --gamma-absolute are mutually exclusive")
        }
        Some(abs) => RegulationThreshold::Absolute(abs),
        None => RegulationThreshold::FractionOfRange(o.get("gamma")?),
    };
    let params = MiningParams {
        min_genes: o.get("min-genes")?,
        min_conds: o.get("min-conds")?,
        gamma,
        epsilon: o.get("epsilon")?,
        max_clusters: None,
        maximal_only: false,
    };
    params.validate().map_err(|e| ParseError(e.to_string()))?;
    Ok(params)
}

fn mine(o: &Opts) -> Parsed<Command> {
    let input = o.get("input")?;
    let engine: String = o.get("engine")?;
    if !regcluster_engines::ENGINE_NAMES.contains(&engine.as_str()) {
        return err(format!(
            "unknown engine {engine:?}; known engines: {}",
            regcluster_engines::ENGINE_NAMES.join(", ")
        ));
    }
    let delta = o.number("delta", "a positive number", |v| v > 0.0)?;
    let mut params = mining_params(o)?;
    params.max_clusters = o.value("max-clusters")?;
    params.maximal_only = o.has("maximal-only");
    let impute = o.choice("impute", &["none", "row-mean", "col-mean"])?;
    let deadline_secs = o.non_negative("deadline-secs")?;
    let checkpoint_every_secs = o.non_negative("checkpoint-every-secs")?;
    let checkpoint = o.value("checkpoint")?;
    let resume = o.value("resume")?;
    if checkpoint_every_secs.is_some() && checkpoint.is_none() && resume.is_none() {
        return err("--checkpoint-every-secs needs --checkpoint (or --resume) \
                    to know where snapshots go");
    }
    // Checkpoints snapshot the reg-cluster enumeration frontier; refuse
    // other engines up front rather than mine without crash safety.
    if engine != "reg-cluster" && (checkpoint.is_some() || resume.is_some()) {
        return err(format!(
            "--checkpoint/--resume are only supported by the reg-cluster \
             engine, not {engine:?}"
        ));
    }
    let delta_from = o.value("delta-from")?;
    if delta_from.is_some() {
        // Per-root reuse leans on the reg-cluster enumeration
        // tree's root decomposition; no other engine has one.
        if engine != "reg-cluster" {
            return err(format!(
                "--delta-from is only supported by the reg-cluster \
                 engine, not {engine:?}"
            ));
        }
        if checkpoint.is_some() || resume.is_some() {
            return err(
                "--delta-from cannot be combined with --checkpoint/--resume \
                 (a delta mine is already incremental)",
            );
        }
        // --maximal-only / --max-clusters compose with it: they run as a
        // post-pass over the unfiltered splice (`mine` checks the
        // previous store is unfiltered).
    }
    Ok(Command::Mine {
        input,
        engine,
        params,
        delta,
        threads: o.get("threads")?,
        deadline_secs,
        progress: o.has("progress"),
        output: o.value("output")?,
        impute: impute.to_string(),
        stats: o.has("stats"),
        store: o.value("store")?,
        metrics: o.value("metrics")?,
        metrics_json: o.value("metrics-json")?,
        checkpoint,
        checkpoint_every_secs,
        resume,
        delta_from,
    })
}

fn generate(o: &Opts) -> Parsed<Command> {
    let output = o.get("output")?;
    let kinds = ["shift-scale", "shift-only", "scale-only", "tendency"];
    let pattern = match o.choice("pattern", &kinds)? {
        "shift-only" => PatternKind::ShiftOnly,
        "scale-only" => PatternKind::ScaleOnly,
        "tendency" => PatternKind::Tendency,
        _ => PatternKind::ShiftScale,
    };
    let config = SyntheticConfig {
        n_genes: o.get("genes")?,
        n_conds: o.get("conds")?,
        n_clusters: o.get("clusters")?,
        plant_gamma: o.get("plant-gamma")?,
        neg_fraction: o.get("neg-fraction")?,
        cluster_gene_frac: o.get("gene-frac")?,
        seed: o.get("seed")?,
        pattern,
        ..SyntheticConfig::default()
    };
    Ok(Command::Generate {
        output,
        config,
        ground_truth: o.value("ground-truth")?,
    })
}

fn generate_yeast(o: &Opts) -> Parsed<Command> {
    Ok(Command::GenerateYeast {
        output: o.get("output")?,
        go: o.value("go")?,
        modules: o.value("modules")?,
        seed: o.get("seed")?,
    })
}

fn enrich(o: &Opts) -> Parsed<Command> {
    Ok(Command::Enrich {
        clusters: o.get("clusters")?,
        go: o.get("go")?,
        top: o.get("top")?,
    })
}

fn eval(o: &Opts) -> Parsed<Command> {
    Ok(Command::Eval {
        clusters: o.get("clusters")?,
        ground_truth: o.get("ground-truth")?,
    })
}

fn info(o: &Opts) -> Parsed<Command> {
    Ok(Command::Info {
        input: o.get("input")?,
    })
}

fn rwave(o: &Opts) -> Parsed<Command> {
    Ok(Command::RWave {
        input: o.get("input")?,
        gene: o.get("gene")?,
        gamma: o.get("gamma")?,
    })
}

fn query(o: &Opts) -> Parsed<Command> {
    Ok(Command::Query {
        store: o.get("store")?,
        genes: o.value("gene")?,
        conds: o.value("cond")?,
        min_genes: o.get("min-genes")?,
        min_conds: o.get("min-conds")?,
        top: o.value("top")?,
        json: o.has("json"),
    })
}

fn serve(o: &Opts) -> Parsed<Command> {
    let requests = o.value("requests")?;
    let queue = o.at_least_1(
        "queue",
        " (a zero-capacity accept queue would shed every request)",
    )?;
    // Exactly one of --store (a sealed .rcs file) and --watch (a
    // generations directory to hot-swap from) names what to serve.
    let (store, watch) = match (o.value("store")?, o.value("watch")?) {
        (Some(s), None) => (s, false),
        (None, Some(d)) => (d, true),
        (Some(_), Some(_)) => {
            return err("--store and --watch are mutually exclusive (a file vs a \
                        generations directory)")
        }
        (None, None) => return err("serve needs --store <file.rcs> or --watch <dir>"),
    };
    let watch_interval_ms = o.at_least_1(
        "watch-interval-ms",
        " (a zero interval would spin the watcher thread)",
    )?;
    if o.has("watch-interval-ms") && !watch {
        return err("--watch-interval-ms only applies with --watch <dir>");
    }
    Ok(Command::Serve {
        store,
        watch,
        port: o.get("port")?,
        threads: o.get("threads")?,
        requests,
        queue,
        watch_interval_ms,
    })
}

fn coordinator(o: &Opts) -> Parsed<Command> {
    let params = mining_params(o)?;
    let leases = o.at_least_1("leases", "")?;
    let lease_ttl_ms = o.at_least_1("lease-ttl-ms", "")?;
    Ok(Command::Coordinator {
        input: o.get("input")?,
        params,
        store: o.get("store")?,
        work_dir: o.get("work-dir")?,
        port: o.get("port")?,
        leases,
        lease_ttl_ms,
        linger: o.has("linger"),
    })
}

fn worker(o: &Opts) -> Parsed<Command> {
    let poll_ms = o.at_least_1("poll-ms", "")?;
    // USAGE gives a default, so the value is always present.
    let checkpoint_every_secs = o.non_negative("checkpoint-every-secs")?.unwrap_or_default();
    Ok(Command::Worker {
        input: o.get("input")?,
        coordinator: o.get("coordinator")?,
        work_dir: o.get("work-dir")?,
        threads: o.get("threads")?,
        worker_id: o.value("worker-id")?,
        poll_ms,
        checkpoint_every_secs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    /// The subcommand of every `  regcluster <sub>` heading in `USAGE`.
    fn subcommands() -> Vec<&'static str> {
        USAGE
            .lines()
            .filter_map(|line| line.strip_prefix("  regcluster "))
            .filter_map(|heading| heading.split_whitespace().next())
            .collect()
    }

    #[test]
    fn empty_and_help() {
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
        assert_eq!(parse_args(&sv(&["help"])).unwrap(), Command::Help);
        assert_eq!(parse_args(&sv(&["--help"])).unwrap(), Command::Help);
        // `--help` after any subcommand prints the usage too, whatever
        // else is on the line.
        for sub in subcommands() {
            assert_eq!(
                parse_args(&sv(&[sub, "--help"])),
                Ok(Command::Help),
                "{sub}"
            );
        }
        assert_eq!(
            parse_args(&sv(&["mine", "--input", "m.tsv", "--help"])),
            Ok(Command::Help)
        );
    }

    #[test]
    fn flags_given_a_value_are_rejected() {
        let cases: [(&str, &[&str]); 3] = [
            ("mine", &["--input", "m.tsv"]),
            ("query", &["--store", "s.rcs"]),
            (
                "coordinator",
                &["--input", "m", "--store", "g/", "--work-dir", "w/"],
            ),
        ];
        let mut flags = 0;
        for (sub, required) in cases {
            for (name, ..) in section(sub).into_iter().filter(|row| !row.1) {
                for value in ["false", "no", "true", ""] {
                    let mut args = vec![sub];
                    args.extend_from_slice(required);
                    let flag = format!("--{name}={value}");
                    args.push(&flag);
                    assert_eq!(
                        parse_args(&sv(&args)),
                        Err(ParseError(format!("option --{name} takes no value"))),
                        "{args:?}"
                    );
                }
                flags += 1;
            }
        }
        assert_eq!(flags, 5, "maximal-only, stats, progress, json, linger");
    }

    #[test]
    fn gamma_and_gamma_absolute_are_mutually_exclusive() {
        let conflict = ["--gamma", "0.3", "--gamma-absolute", "0.01"];
        for required in [
            &["mine", "--input", "m.tsv"][..],
            &[
                "coordinator",
                "--input",
                "m",
                "--store",
                "g/",
                "--work-dir",
                "w/",
            ],
        ] {
            let args = [required, &conflict[..]].concat();
            assert_eq!(
                parse_args(&sv(&args)),
                Err(ParseError(
                    "--gamma and --gamma-absolute are mutually exclusive".into()
                )),
                "{args:?}"
            );
        }
    }

    #[test]
    fn unknown_last_option_is_named_as_unknown() {
        let err = parse_args(&sv(&["mine", "--input", "m", "--bogus"])).unwrap_err();
        assert_eq!(err.0, "unknown option --bogus");
    }

    /// The option table guard: within each `USAGE` section an option is
    /// declared once (a prose line starting with six spaces and `--` would
    /// declare it again), and the mining options `mine` and `coordinator`
    /// share are declared alike.
    #[test]
    fn usage_sections_declare_each_option_once() {
        let subs = subcommands();
        assert_eq!(subs.len(), 12, "{subs:?}");
        for sub in subs {
            let mut names: Vec<&str> = section(sub).iter().map(|row| row.0).collect();
            let declared = names.len();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), declared, "{sub} declares an option twice");
        }
        let mine = section("mine");
        for (name, takes_value, default) in section("coordinator") {
            if let Some(row) = mine.iter().find(|row| row.0 == name) {
                assert_eq!(*row, (name, takes_value, default), "--{name}");
            }
        }
    }

    #[test]
    fn generate_defaults_are_the_generator_defaults() {
        match parse_args(&sv(&["generate", "--output", "m.tsv"])).unwrap() {
            Command::Generate { config, .. } => assert_eq!(config, SyntheticConfig::default()),
            other => panic!("wrong command {other:?}"),
        }
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
