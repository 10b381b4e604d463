//! The cluster coordinator: owns the root partition, leases ranges to
//! workers, collects their shards, merges and publishes.
//!
//! # Lifecycle
//!
//! 1. Load the matrix, fingerprint it, partition `0..n_conditions` into
//!    [`partition_roots`] ranges.
//! 2. Serve the control plane ([`protocol`](crate::protocol)): grant a
//!    lease per range, renew on heartbeat, expire-and-return leases
//!    whose worker has gone silent (the expired range is simply granted
//!    to the next caller — reassignment *is* re-granting).
//! 3. Validate every uploaded shard (readable, same matrix fingerprint,
//!    same params, same generation, roots inside the leased range) and
//!    stage it durably under the work dir.
//! 4. When every range has a shard: [`merge_shards`] into
//!    `gen-<N>.rcs` and [`Generations::publish`] — the merged store is
//!    bit-identical to a single-node run (see `crates/store/src/merge.rs`
//!    for the determinism argument), so replicas hot-swap onto it
//!    exactly as they would a locally-mined generation.
//!
//! # Crash safety
//!
//! Every control-plane transition is a [`JournalRecord`], and
//! `LeaseTable::apply` is the only code that turns one into a slot
//! state or a higher epoch. A handler validates its request against the
//! table, appends the record to the checksummed journal (`control.rcj`,
//! [`regcluster_store::Journal`]) and applies it. On restart the
//! coordinator folds the journal through the same `apply` — live leases
//! come back under their epochs with a fresh deadline, and the epoch
//! counter never rewinds — then reconciles against the staged shards on
//! disk (disk wins). A journal whose `JobCreated` identity disagrees with
//! the restarted configuration is stale and replaced. Failpoint sites
//! `cluster::lease_grant`, `cluster::shard_upload`,
//! `cluster::journal_append` and `cluster::publish` let the fault
//! harness kill each transition; `store::merge_seal` covers the merge
//! itself.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use regcluster_core::{matrix_fingerprint, partition_roots, MiningParams};
use regcluster_matrix::io::read_matrix_file;
use regcluster_obs::MetricsRegistry;
use regcluster_store::{
    merge_shards, write_durably, ClusterStore, Generations, Journal, JournalRecord, StoreError,
};

use crate::error::ClusterError;
use crate::http::{HttpConfig, HttpServer, Request, Response};
use crate::metrics::ClusterMetrics;
use crate::protocol::{AcquireRequest, AcquireResponse, JobInfo, RenewRequest, StatusDoc};

/// Engine name stamped into every shard's provenance. Only the default
/// reg-cluster engine supports roots-subset mining today.
pub const CLUSTER_ENGINE: &str = "reg-cluster";

/// How often the main loop sweeps expired leases.
const SWEEP_EVERY: Duration = Duration::from_millis(50);

/// Coordinator configuration.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Expression matrix file (workers load the same file and must agree
    /// on its fingerprint).
    pub matrix_path: PathBuf,
    /// Mining parameters; every worker mines under exactly these.
    pub params: MiningParams,
    /// Generations directory the merged store publishes into.
    pub store_dir: PathBuf,
    /// Scratch directory for staged shards (survives restarts).
    pub work_dir: PathBuf,
    /// Control-plane port (0 picks an ephemeral one).
    pub port: u16,
    /// Number of root leases to partition into.
    pub n_leases: usize,
    /// How long a granted lease survives without a heartbeat.
    pub lease_ttl: Duration,
    /// Keep serving `/status` and `/metrics` after publishing instead of
    /// exiting (for long-lived deployments; harnesses kill the process).
    pub linger: bool,
}

/// What a completed coordination run did.
#[derive(Debug, Clone)]
pub struct CoordinatorReport {
    /// Generation published.
    pub generation: u64,
    /// Ranges in the partition.
    pub n_leases: usize,
    /// Clusters in the merged store.
    pub n_clusters: u64,
    /// Leases that expired and were re-granted.
    pub reassignments: u64,
}

#[derive(Debug, Clone, PartialEq)]
enum SlotState {
    Pending,
    Leased {
        worker: String,
        epoch: u64,
        deadline: Instant,
    },
    Done,
}

#[derive(Debug, Clone, PartialEq)]
struct Slot {
    start: usize,
    end: usize,
    state: SlotState,
}

/// The coordinator's lease table: one slot per root range, plus the next
/// epoch to mint.
#[derive(Debug, Clone, PartialEq)]
struct LeaseTable {
    slots: Vec<Slot>,
    next_epoch: u64,
}

impl LeaseTable {
    fn new(ranges: &[(usize, usize)]) -> Self {
        LeaseTable {
            slots: ranges
                .iter()
                .map(|&(start, end)| Slot {
                    start,
                    end,
                    state: SlotState::Pending,
                })
                .collect(),
            next_epoch: 1,
        }
    }

    fn all_done(&self) -> bool {
        self.slots
            .iter()
            .all(|s| matches!(s.state, SlotState::Done))
    }

    /// The one lease transition function: the live handlers apply each
    /// record they journal, and a restart folds the journal through it.
    /// `deadline` is the lease deadline a grant or renewal sets.
    ///
    /// Every epoch a record carries raises `next_epoch` past it, so no
    /// epoch the journal has seen can be minted again. A grant takes its
    /// slot; a renewal, expiry or staged shard acts only on the slot whose
    /// lease holds the record's epoch, and the last two return it to the
    /// pool or close it.
    fn apply(&mut self, rec: &JournalRecord, deadline: Instant) {
        let (lease, epoch) = match rec {
            JournalRecord::JobCreated { .. } | JournalRecord::Published { .. } => return,
            JournalRecord::LeaseGranted { lease, epoch, .. }
            | JournalRecord::LeaseRenewed { lease, epoch }
            | JournalRecord::LeaseExpired { lease, epoch }
            | JournalRecord::ShardStaged { lease, epoch } => (*lease, *epoch),
        };
        self.next_epoch = self.next_epoch.max(epoch.saturating_add(1));
        let slot = usize::try_from(lease)
            .ok()
            .and_then(|i| self.slots.get_mut(i));
        let Some(slot) = slot else { return };
        let holds = matches!(slot.state, SlotState::Leased { epoch: e, .. } if e == epoch);
        match rec {
            JournalRecord::LeaseGranted { worker, .. } => {
                slot.state = SlotState::Leased {
                    worker: worker.clone(),
                    epoch,
                    deadline,
                };
            }
            JournalRecord::LeaseRenewed { .. } if holds => {
                if let SlotState::Leased { deadline: d, .. } = &mut slot.state {
                    *d = deadline;
                }
            }
            JournalRecord::LeaseExpired { .. } if holds => slot.state = SlotState::Pending,
            JournalRecord::ShardStaged { .. } if holds => slot.state = SlotState::Done,
            _ => {}
        }
    }
}

struct CoordState {
    /// Lock order: `table` before `journal`.
    table: Mutex<LeaseTable>,
    journal: Mutex<Journal>,
    phase: Mutex<&'static str>,
    cfg: CoordinatorConfig,
    job: JobInfo,
    metrics: ClusterMetrics,
    registry: MetricsRegistry,
    /// Set by `POST /shutdown`; the run loop and the linger park both
    /// watch it, so shutdown drains promptly instead of on a timer. The
    /// run loop also wakes on it when the last shard is staged.
    shutdown: (Mutex<bool>, Condvar),
}

impl CoordState {
    /// Opens the coordinator's state under `cfg.work_dir`. A journal whose
    /// `JobCreated` identity matches this run is folded through
    /// [`LeaseTable::apply`], every lease it holds getting a full TTL from
    /// `now`; anything else (missing, stale, unreadable) means a fresh
    /// journal seeded with this run's identity. The staged shards on disk
    /// then win over the journal for completion.
    fn restore(
        cfg: &CoordinatorConfig,
        job: &JobInfo,
        ranges: &[(usize, usize)],
        now: Instant,
    ) -> Result<CoordState, ClusterError> {
        let registry = MetricsRegistry::new();
        let metrics = ClusterMetrics::register(&registry);
        let identity = JournalRecord::JobCreated {
            generation: job.generation,
            matrix_fingerprint: job.matrix_fingerprint,
            params_json: job.params_json.clone(),
            n_roots: job.n_roots,
            n_leases: ranges.len() as u64,
        };
        let journal_path = cfg.work_dir.join(JOURNAL_FILE);
        let mut table = LeaseTable::new(ranges);
        let recovered = journal_path
            .exists()
            .then(|| Journal::recover(&journal_path));
        let journal = match recovered {
            Some(Ok(rec)) if rec.records.first() == Some(&identity) => {
                metrics.journal_replayed.add(rec.records.len() as u64);
                metrics.journal_truncated_bytes.add(rec.truncated_bytes);
                eprintln!(
                    "coordinator: replayed {} journal records ({} torn bytes truncated)",
                    rec.records.len(),
                    rec.truncated_bytes
                );
                for r in &rec.records {
                    table.apply(r, now + cfg.lease_ttl);
                }
                rec.journal
            }
            stale => {
                match stale {
                    Some(Ok(_)) => {
                        eprintln!("coordinator: journal belongs to a different run; starting fresh")
                    }
                    Some(Err(e)) => {
                        eprintln!("coordinator: journal unrecoverable ({e}); starting fresh")
                    }
                    None => {}
                }
                let mut journal = Journal::create(&journal_path)?;
                journal.append(&identity)?;
                metrics.journal_records.inc();
                journal
            }
        };

        // Disk wins for completion: a valid staged shard closes its slot
        // even if the journal never saw it, and a journal `Done` without a
        // valid shard re-opens the slot.
        let mut recovered_leases = 0u64;
        for (i, slot) in table.slots.iter_mut().enumerate() {
            let path = shard_path(&cfg.work_dir, i);
            let disk_ok = ClusterStore::open(&path)
                .is_ok_and(|store| validate_shard(&store, &cfg.params, job, slot).is_ok());
            if !disk_ok && path.exists() {
                let _ = std::fs::remove_file(&path);
            }
            match slot.state {
                _ if disk_ok => slot.state = SlotState::Done,
                SlotState::Done => slot.state = SlotState::Pending,
                SlotState::Leased { .. } => recovered_leases += 1,
                SlotState::Pending => {}
            }
        }
        if recovered_leases > 0 {
            metrics.leases_recovered.add(recovered_leases);
            eprintln!("coordinator: restored {recovered_leases} live leases from the journal");
        }

        Ok(CoordState {
            table: Mutex::new(table),
            journal: Mutex::new(journal),
            phase: Mutex::new("mining"),
            cfg: cfg.clone(),
            job: job.clone(),
            metrics,
            registry,
            shutdown: (Mutex::new(false), Condvar::new()),
        })
    }

    fn table(&self) -> MutexGuard<'_, LeaseTable> {
        self.table.lock().expect("lease table lock poisoned")
    }

    /// Appends one journal record, counting it.
    fn journal_append(&self, rec: &JournalRecord) -> Result<(), StoreError> {
        #[cfg(test)]
        tests::injected_append_failure()?;
        self.journal
            .lock()
            .expect("journal lock poisoned")
            .append(rec)?;
        self.metrics.journal_records.inc();
        Ok(())
    }

    /// Journals `rec`, then applies it to `table`. Grants, expiries and
    /// staged shards are write-ahead: when the append fails the table
    /// does not change. Renewals are best-effort and apply either way
    /// (DESIGN.md §14).
    fn commit(
        &self,
        table: &mut LeaseTable,
        rec: &JournalRecord,
        deadline: Instant,
    ) -> Result<(), StoreError> {
        let appended = self.journal_append(rec);
        if appended.is_ok() || matches!(rec, JournalRecord::LeaseRenewed { .. }) {
            table.apply(rec, deadline);
        }
        #[cfg(test)]
        if appended.is_ok() {
            tests::record_boundary(table, &self.cfg.work_dir);
        }
        appended
    }

    /// Wakes the run loop early. Notifying under the `shutdown` lock
    /// means a waiter cannot miss it between its check and its wait.
    fn wake(&self) {
        let _guard = self.shutdown.0.lock().expect("shutdown lock poisoned");
        self.shutdown.1.notify_all();
    }
}

/// Journal file name under the coordinator's work dir.
const JOURNAL_FILE: &str = "control.rcj";

/// Where lease `lease`'s shard is staged under the work dir.
fn shard_path(work_dir: &Path, lease: usize) -> PathBuf {
    work_dir.join(format!("shard-{lease}.rcs"))
}

/// Checks a staged or uploaded shard against the run's identity and the
/// slot's root range. `Ok` means the shard can participate in the merge.
fn validate_shard(
    store: &ClusterStore,
    params: &MiningParams,
    job: &JobInfo,
    slot: &Slot,
) -> Result<(), String> {
    let (generation, start, end) = (job.generation, slot.start, slot.end);
    if store.engine() != Some(CLUSTER_ENGINE) {
        return Err(format!(
            "engine {:?} is not {CLUSTER_ENGINE}",
            store.engine()
        ));
    }
    if store.matrix_fingerprint() != Some(job.matrix_fingerprint) {
        return Err("matrix fingerprint mismatch".into());
    }
    if store.generation() != generation {
        return Err(format!(
            "shard generation {} != run generation {generation}",
            store.generation()
        ));
    }
    if store.params() != params {
        return Err("params mismatch".into());
    }
    for id in 0..store.n_clusters() {
        let root = store.cluster_root(id).map_err(|e| e.to_string())? as usize;
        if root < start || root >= end {
            return Err(format!(
                "cluster rooted at {root} outside lease [{start}, {end})"
            ));
        }
    }
    Ok(())
}

/// Runs a full coordination round: serve leases, collect shards, merge,
/// publish. Returns after publishing unless `linger` is set (then it
/// serves `/status` + `/metrics` until the process is killed).
///
/// # Errors
///
/// [`ClusterError`] for an unreadable matrix, invalid params, store
/// failures during merge/publish, or a port that cannot be bound.
pub fn run_coordinator(cfg: &CoordinatorConfig) -> Result<CoordinatorReport, ClusterError> {
    cfg.params.validate()?;
    let matrix = read_matrix_file(&cfg.matrix_path)?;
    let n_roots = matrix.n_conditions();
    let matrix_fp = matrix_fingerprint(&matrix);
    drop(matrix);

    let gens = Generations::open(&cfg.store_dir)?;
    let generation = gens.next()?;
    std::fs::create_dir_all(&cfg.work_dir)?;

    let ranges = partition_roots(n_roots, cfg.n_leases);
    if ranges.is_empty() {
        return Err(ClusterError::Protocol(
            "matrix has no conditions to partition".into(),
        ));
    }

    let job = JobInfo {
        params_json: serde_json::to_string(&cfg.params)?,
        engine: CLUSTER_ENGINE.to_string(),
        generation,
        matrix_fingerprint: matrix_fp,
        n_roots: n_roots as u64,
    };
    let state = Arc::new(CoordState::restore(cfg, &job, &ranges, Instant::now())?);
    regcluster_failpoint::register_metrics(&state.registry);

    let handler_state = Arc::clone(&state);
    let http = HttpConfig {
        shed_counter: Some(state.metrics.requests_shed.clone()),
        ..HttpConfig::control_plane(cfg.port)
    };
    let server = HttpServer::start_with(http, move |req| handle(&handler_state, req))?;
    eprintln!(
        "coordinator: serving {} leases on 127.0.0.1:{} (generation {generation})",
        ranges.len(),
        server.port()
    );

    // Main loop: sweep silent workers' leases back to the pool until
    // every range has a validated shard. Between sweeps it waits on the
    // shutdown condvar, which `POST /shutdown` and the upload staging
    // the last shard both notify, so the merge starts at once.
    loop {
        let stopped = {
            let (lock, cvar) = &state.shutdown;
            let guard = lock.lock().expect("shutdown lock poisoned");
            let (guard, _) = cvar
                .wait_timeout_while(guard, SWEEP_EVERY, |stopped| {
                    !*stopped && !state.table().all_done()
                })
                .expect("shutdown lock poisoned");
            *guard
        };
        if stopped {
            server.shutdown();
            return Err(ClusterError::Protocol(
                "shutdown requested before the run completed".into(),
            ));
        }
        if sweep(&state, Instant::now()) {
            break;
        }
    }

    *state.phase.lock().unwrap() = "merging";
    let shard_paths: Vec<PathBuf> = (0..ranges.len())
        .map(|i| shard_path(&state.cfg.work_dir, i))
        .collect();
    let summary = merge_shards(&shard_paths, gens.path_for(generation))?;
    regcluster_failpoint::io("cluster::publish").map_err(ClusterError::Io)?;
    gens.publish(generation)?;
    // The run is already durable (CURRENT points at the generation);
    // the Published record is informational and changes no slot, so a
    // journal hiccup here must not fail a completed run.
    let _ = state.journal_append(&JournalRecord::Published { generation });
    state.metrics.merges.inc();
    *state.phase.lock().unwrap() = "published";
    eprintln!(
        "coordinator: published generation {generation} ({} clusters from {} shards)",
        summary.n_clusters,
        ranges.len()
    );

    let report = CoordinatorReport {
        generation,
        n_leases: ranges.len(),
        n_clusters: summary.n_clusters,
        reassignments: state.metrics.leases_expired.get(),
    };
    if cfg.linger {
        // Interruptible park: `POST /shutdown` (or any notifier) wakes
        // the condvar and the process drains immediately — no
        // sleep-loop latency between the signal and the exit.
        let (lock, cvar) = &state.shutdown;
        let mut stopped = lock.lock().unwrap();
        while !*stopped {
            stopped = cvar.wait(stopped).unwrap();
        }
        drop(stopped);
        eprintln!("coordinator: shutdown requested; draining");
    }
    server.shutdown();
    Ok(report)
}

/// Returns every lease whose deadline passed before `now` to the pool and
/// reports whether every range is done. An expiry is write-ahead: if its
/// append fails the lease stays leased and the next sweep retries.
fn sweep(state: &CoordState, now: Instant) -> bool {
    let mut table = state.table();
    for lease in 0..table.slots.len() {
        let slot = &table.slots[lease];
        let SlotState::Leased {
            worker,
            epoch,
            deadline,
        } = &slot.state
        else {
            continue;
        };
        if *deadline >= now {
            continue;
        }
        let note = format!(
            "coordinator: lease on roots [{}, {}) expired (worker {worker}); reassigning",
            slot.start, slot.end
        );
        let rec = JournalRecord::LeaseExpired {
            lease: lease as u64,
            epoch: *epoch,
        };
        if state.commit(&mut table, &rec, now).is_ok() {
            eprintln!("{note}");
            state.metrics.leases_expired.inc();
        }
    }
    table.all_done()
}

fn handle(state: &CoordState, req: &Request) -> Response {
    let now = Instant::now();
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/job") => json_response(&state.job),
        ("GET", "/status") => status(state),
        ("GET", "/metrics") => Response::prometheus(state.registry.encode_prometheus()),
        ("POST", "/lease/acquire") => acquire(state, &req.body, now),
        ("POST", "/lease/renew") => renew(state, &req.body, now),
        ("POST", "/shutdown") => request_shutdown(state),
        // The upload acknowledgment has a failpoint of its own, so a
        // scenario can garble exactly that answer.
        ("POST", path) if path.starts_with("/shard/") => Response {
            fault_site: Some("cluster::upload_response"),
            ..upload(state, path, &req.body, now)
        },
        _ => Response::text(404, "not found"),
    }
}

/// `POST /shutdown`: wakes the linger park (and the mining sweep loop)
/// so the process drains promptly.
fn request_shutdown(state: &CoordState) -> Response {
    let (lock, cvar) = &state.shutdown;
    *lock.lock().unwrap() = true;
    cvar.notify_all();
    Response::json(200, "{\"kind\":\"stopping\"}".to_string())
}

fn status(state: &CoordState) -> Response {
    let table = state.table();
    let doc = StatusDoc {
        state: state.phase.lock().unwrap().to_string(),
        generation: state.job.generation,
        leases_total: table.slots.len() as u64,
        leases_done: table
            .slots
            .iter()
            .filter(|s| matches!(s.state, SlotState::Done))
            .count() as u64,
    };
    json_response(&doc)
}

fn json_response<T: serde::Serialize>(doc: &T) -> Response {
    match serde_json::to_string(doc) {
        Ok(json) => Response::json(200, json),
        Err(e) => Response::text(500, e.to_string()),
    }
}

fn parse_body<T: serde::Deserialize>(body: &[u8]) -> Result<T, Response> {
    std::str::from_utf8(body)
        .ok()
        .and_then(|s| serde_json::from_str(s).ok())
        .ok_or_else(|| Response::text(400, "malformed request body"))
}

fn acquire(state: &CoordState, body: &[u8], now: Instant) -> Response {
    let req: AcquireRequest = match parse_body(body) {
        Ok(r) => r,
        Err(resp) => return resp,
    };
    if regcluster_failpoint::io("cluster::lease_grant").is_err() {
        return Response::text(500, "lease grant fault injected");
    }
    let mut table = state.table();
    let pending = table
        .slots
        .iter()
        .position(|slot| matches!(slot.state, SlotState::Pending));
    let response = match pending {
        Some(lease) => {
            // Write-ahead: the grant is durable before the worker can
            // ever see it. A failed append refuses the grant and leaves
            // no record, so its epoch was never minted.
            let epoch = table.next_epoch;
            let rec = JournalRecord::LeaseGranted {
                lease: lease as u64,
                epoch,
                worker: req.worker,
            };
            if let Err(e) = state.commit(&mut table, &rec, now + state.cfg.lease_ttl) {
                return Response::text(500, format!("journal append failed: {e}"));
            }
            state.metrics.leases_granted.inc();
            let slot = &table.slots[lease];
            AcquireResponse {
                kind: "grant".to_string(),
                lease: lease as u64,
                start: slot.start as u64,
                end: slot.end as u64,
                epoch,
                ttl_ms: state.cfg.lease_ttl.as_millis() as u64,
            }
        }
        None if table.all_done() => AcquireResponse::signal("done"),
        None => AcquireResponse::signal("wait"),
    };
    json_response(&response)
}

fn renew(state: &CoordState, body: &[u8], now: Instant) -> Response {
    let req: RenewRequest = match parse_body(body) {
        Ok(r) => r,
        Err(resp) => return resp,
    };
    let mut table = state.table();
    let slot = usize::try_from(req.lease)
        .ok()
        .and_then(|i| table.slots.get(i));
    let Some(slot) = slot else {
        return Response::text(409, "unknown lease");
    };
    if !matches!(&slot.state, SlotState::Leased { worker, epoch, .. }
        if *epoch == req.epoch && *worker == req.worker)
    {
        return Response::text(409, "lease lost");
    }
    // Best-effort: deadlines restart from "now + TTL" on replay anyway,
    // so a journal hiccup must not fence a live worker.
    let rec = JournalRecord::LeaseRenewed {
        lease: req.lease,
        epoch: req.epoch,
    };
    let _ = state.commit(&mut table, &rec, now + state.cfg.lease_ttl);
    state.metrics.lease_renewals.inc();
    Response::json(200, "{\"kind\":\"ok\"}".to_string())
}

fn upload(state: &CoordState, path: &str, body: &[u8], now: Instant) -> Response {
    // Path shape: /shard/<lease>/<epoch>
    let mut parts = path.trim_start_matches("/shard/").split('/');
    let (Some(Ok(lease)), Some(Ok(epoch)), None) = (
        parts.next().map(str::parse::<usize>),
        parts.next().map(str::parse::<u64>),
        parts.next(),
    ) else {
        return Response::text(400, "shard path must be /shard/<lease>/<epoch>");
    };
    // The torn-upload site: fires before anything is staged, so an
    // injected fault (or a crash here) leaves no partial shard behind.
    if regcluster_failpoint::io("cluster::shard_upload").is_err() {
        state.metrics.shards_rejected.inc();
        return Response::text(500, "shard upload fault injected");
    }
    let store = match ClusterStore::from_bytes(body.to_vec()) {
        Ok(s) => s,
        Err(e) => {
            state.metrics.shards_rejected.inc();
            return Response::text(400, format!("unreadable shard: {e}"));
        }
    };

    let mut table = state.table();
    let Some(slot) = table.slots.get(lease) else {
        state.metrics.shards_rejected.inc();
        return Response::text(409, "unknown lease");
    };
    if let Err(why) = validate_shard(&store, &state.cfg.params, &state.job, slot) {
        state.metrics.shards_rejected.inc();
        return Response::text(400, format!("shard failed validation: {why}"));
    }
    match &slot.state {
        // Idempotent: the shard is already in (e.g. the worker's earlier
        // 200 was lost in flight and it retried).
        SlotState::Done => return Response::text(200, "already staged"),
        SlotState::Leased { epoch: current, .. } if *current == epoch => {}
        _ => {
            state.metrics.shards_rejected.inc();
            return Response::text(409, "lease lost");
        }
    }
    if let Err(e) = write_durably(&shard_path(&state.cfg.work_dir, lease), body) {
        state.metrics.shards_rejected.inc();
        return Response::text(500, format!("staging failed: {e}"));
    }
    // Journal after the stage is durable (replay reconciles against disk
    // either way) but before the slot closes, so a 200 is only ever sent
    // for a fully-recorded shard. On append failure the worker retries;
    // staging is idempotent.
    let rec = JournalRecord::ShardStaged {
        lease: lease as u64,
        epoch,
    };
    if let Err(e) = state.commit(&mut table, &rec, now) {
        state.metrics.shards_rejected.inc();
        return Response::text(500, format!("journal append failed: {e}"));
    }
    state.metrics.shards_uploaded.inc();
    let closed_last = table.all_done();
    drop(table);
    if closed_last {
        state.wake();
    }
    Response::text(200, "staged")
}

#[cfg(test)]
mod tests {
    //! An in-process model check of the control plane: random schedules of
    //! client requests, expiry sweeps, failed journal appends and
    //! coordinator restarts run through the real handlers, then the
    //! journal is cut at every record boundary and restored.

    use std::cell::{Cell, RefCell};
    use std::collections::{BTreeSet, HashSet};
    use std::sync::atomic::{AtomicUsize, Ordering};

    use proptest::prelude::*;
    use regcluster_store::{StoreProvenance, StoreWriter, JOURNAL_HEADER_LEN};

    use super::*;

    const RANGES: [(usize, usize); 3] = [(0, 2), (2, 4), (4, 6)];
    const TTL: Duration = Duration::from_millis(1000);

    /// The live table and the staged shards at one journal record
    /// boundary, keyed by the journal's length there.
    type Boundary = (u64, LeaseTable, BTreeSet<usize>);

    thread_local! {
        /// Makes every journal append fail while set. Failpoints are
        /// process-global, so the schedule arms this thread-local instead.
        static FAIL_APPENDS: Cell<bool> = const { Cell::new(false) };
        /// Filled by [`record_boundary`] while a schedule runs.
        static BOUNDARIES: RefCell<Option<Vec<Boundary>>> = const { RefCell::new(None) };
    }

    pub(super) fn injected_append_failure() -> Result<(), StoreError> {
        if FAIL_APPENDS.with(Cell::get) {
            return Err(StoreError::Io(std::io::Error::other(
                "injected journal append failure",
            )));
        }
        Ok(())
    }

    /// Called after each durable record is applied.
    pub(super) fn record_boundary(table: &LeaseTable, work_dir: &Path) {
        BOUNDARIES.with(|b| {
            if let Some(list) = b.borrow_mut().as_mut() {
                list.push(boundary(table, work_dir));
            }
        });
    }

    fn boundary(table: &LeaseTable, work_dir: &Path) -> Boundary {
        let journal_len = std::fs::metadata(work_dir.join(JOURNAL_FILE))
            .unwrap()
            .len();
        let staged = (0..table.slots.len())
            .filter(|&i| shard_path(work_dir, i).exists())
            .collect();
        (journal_len, table.clone(), staged)
    }

    fn scratch_dir() -> PathBuf {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "regcluster-coord-model-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn params() -> MiningParams {
        MiningParams::new(2, 2, 0.1, 0.1).unwrap()
    }

    fn job() -> JobInfo {
        JobInfo {
            params_json: serde_json::to_string(&params()).unwrap(),
            engine: CLUSTER_ENGINE.to_string(),
            generation: 0,
            matrix_fingerprint: 0xfeed_f00d,
            n_roots: 6,
        }
    }

    fn config(work_dir: &Path) -> CoordinatorConfig {
        CoordinatorConfig {
            matrix_path: PathBuf::new(),
            params: params(),
            store_dir: PathBuf::new(),
            work_dir: work_dir.to_path_buf(),
            port: 0,
            n_leases: RANGES.len(),
            lease_ttl: TTL,
            linger: false,
        }
    }

    /// A valid, empty shard for this run: it fits every slot's range.
    fn empty_shard() -> Vec<u8> {
        let dir = scratch_dir();
        let path = dir.join("empty.rcs");
        let names = |p: &str, n: usize| (0..n).map(|i| format!("{p}{i}")).collect::<Vec<_>>();
        let provenance = StoreProvenance {
            engine: Some(CLUSTER_ENGINE.to_string()),
            generation: job().generation,
            matrix_fingerprint: Some(job().matrix_fingerprint),
            ..StoreProvenance::default()
        };
        StoreWriter::create_with_provenance(
            &path,
            &names("g", 4),
            &names("c", 6),
            &params(),
            &provenance,
        )
        .unwrap()
        .finish()
        .unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        bytes
    }

    /// `table` with every deadline set to `at`: a restore restarts them.
    fn at_deadline(mut table: LeaseTable, at: Instant) -> LeaseTable {
        for slot in &mut table.slots {
            if let SlotState::Leased { deadline, .. } = &mut slot.state {
                *deadline = at;
            }
        }
        table
    }

    /// What a restart should rebuild from a crash that left `live` in the
    /// journal and `staged` on disk: disk wins for completion.
    fn expected(live: &LeaseTable, staged: &BTreeSet<usize>, at: Instant) -> LeaseTable {
        let mut table = at_deadline(live.clone(), at);
        for &lease in staged {
            table.slots[lease].state = SlotState::Done;
        }
        table
    }

    fn restore_at(work_dir: &Path, now: Instant) -> CoordState {
        CoordState::restore(&config(work_dir), &job(), &RANGES, now).unwrap()
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// Worker `w<n>` asks for a lease.
        Acquire(u8),
        /// Renews the `pick`-th grant so far; `forge` 1 sends the wrong
        /// worker, 2 an unknown lease.
        Renew { pick: u8, forge: u8 },
        /// Uploads the `pick`-th grant's shard, or garbage bytes.
        Upload { pick: u8, valid: bool },
        /// Advances the clock the handlers and the sweep see.
        Tick(u16),
        /// Expires every lease whose deadline has passed.
        Sweep,
        /// Crashes the coordinator and restores it from its work dir.
        Restart,
    }

    fn op() -> impl Strategy<Value = Op> {
        (0u8..8, any::<u8>(), 0u8..4, 0u16..1500).prop_map(|(kind, pick, forge, ms)| match kind {
            0 | 1 => Op::Acquire(pick % 3),
            2 => Op::Renew { pick, forge },
            3 | 4 => Op::Upload {
                pick,
                valid: forge != 0,
            },
            5 => Op::Tick(ms),
            6 => Op::Sweep,
            _ => Op::Restart,
        })
    }

    /// Runs one schedule; each step's flag makes its journal appends fail.
    fn check_schedule(schedule: &[(Op, bool)], shard: &[u8]) -> Result<(), TestCaseError> {
        let dir = scratch_dir();
        let mut now = Instant::now();
        let mut state = restore_at(&dir, now);
        let initial = state.table().clone();
        let mut boundaries = vec![
            (JOURNAL_HEADER_LEN as u64, initial.clone(), BTreeSet::new()),
            boundary(&initial, &dir),
        ];
        BOUNDARIES.with(|b| *b.borrow_mut() = Some(Vec::new()));
        let mut grants: Vec<(u64, u64, String)> = Vec::new();
        let mut epochs = HashSet::new();

        for (op, fail) in schedule {
            FAIL_APPENDS.with(|f| f.set(*fail));
            let before = state.table().clone();
            let picked = |pick: u8| {
                grants
                    .get(usize::from(pick) % grants.len().max(1))
                    .cloned()
                    .unwrap_or((0, 0, "w0".to_string()))
            };
            let response = match op {
                Op::Acquire(w) => {
                    let body = format!(r#"{{"worker":"w{w}"}}"#);
                    let resp = acquire(&state, body.as_bytes(), now);
                    if resp.status == 200 {
                        let text = String::from_utf8(resp.body.clone()).unwrap();
                        let ack: AcquireResponse = serde_json::from_str(&text).unwrap();
                        if ack.kind == "grant" {
                            prop_assert!(
                                epochs.insert(ack.epoch),
                                "epoch {} granted twice",
                                ack.epoch
                            );
                            grants.push((ack.lease, ack.epoch, format!("w{w}")));
                        }
                    }
                    Some(resp)
                }
                Op::Renew { pick, forge } => {
                    let (mut lease, epoch, mut worker) = picked(*pick);
                    match forge {
                        1 => worker = "intruder".to_string(),
                        2 => lease = 99,
                        _ => {}
                    }
                    let body =
                        format!(r#"{{"worker":"{worker}","lease":{lease},"epoch":{epoch}}}"#);
                    Some(renew(&state, body.as_bytes(), now))
                }
                Op::Upload { pick, valid } => {
                    let (lease, epoch, _) = picked(*pick);
                    let body: &[u8] = if *valid { shard } else { b"not a shard" };
                    Some(upload(
                        &state,
                        &format!("/shard/{lease}/{epoch}"),
                        body,
                        now,
                    ))
                }
                Op::Tick(ms) => {
                    now += Duration::from_millis(u64::from(*ms));
                    None
                }
                Op::Sweep => {
                    sweep(&state, now);
                    None
                }
                Op::Restart => {
                    let staged = boundary(&before, &dir).2;
                    drop(state);
                    state = restore_at(&dir, now);
                    let restored = state.table().clone();
                    prop_assert_eq!(&restored, &expected(&before, &staged, now + TTL));
                    None
                }
            };
            if let Some(resp) = response {
                prop_assert!(
                    resp.status < 500 || *fail,
                    "{:?} answered {} without an append failure",
                    op,
                    resp.status
                );
            }
            if *fail && !matches!(op, Op::Restart) {
                // Write-ahead: a failed append changes no slot state (a
                // renewal still refreshes its deadline, best-effort).
                let after = state.table().clone();
                prop_assert_eq!(at_deadline(after, now), at_deadline(before, now));
            }
        }
        FAIL_APPENDS.with(|f| f.set(false));
        boundaries.extend(BOUNDARIES.with(|b| b.borrow_mut().take()).unwrap());

        // Crash at every record boundary: the journal cut there plus the
        // shards staged by then must restore the live table of that moment.
        let journal = std::fs::read(dir.join(JOURNAL_FILE)).unwrap();
        prop_assert_eq!(boundaries.last().unwrap().0, journal.len() as u64);
        for (k, (len, live, staged)) in boundaries.iter().enumerate() {
            let crash = dir.join(format!("crash-{k}"));
            std::fs::create_dir_all(&crash).unwrap();
            std::fs::write(crash.join(JOURNAL_FILE), &journal[..*len as usize]).unwrap();
            for &lease in staged {
                std::fs::copy(shard_path(&dir, lease), shard_path(&crash, lease)).unwrap();
            }
            let restored = restore_at(&crash, now).table.into_inner().unwrap();
            prop_assert_eq!(
                &restored,
                &expected(live, staged, now + TTL),
                "cut at record boundary {}",
                k
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn restores_equal_the_live_table_at_every_record_boundary(
            schedule in prop::collection::vec((op(), (0u8..8).prop_map(|f| f == 0)), 1..32),
        ) {
            thread_local!(static SHARD: Vec<u8> = empty_shard());
            SHARD.with(|shard| check_schedule(&schedule, shard))?;
        }
    }

    #[test]
    fn records_under_a_fenced_epoch_leave_the_slot_to_its_current_lease() {
        let mut table = LeaseTable::new(&RANGES);
        let now = Instant::now();
        let grant = |lease, epoch| JournalRecord::LeaseGranted {
            lease,
            epoch,
            worker: "w".to_string(),
        };
        table.apply(&grant(0, 1), now);
        table.apply(&JournalRecord::LeaseExpired { lease: 0, epoch: 1 }, now);
        table.apply(&grant(0, 2), now);
        // A zombie's renewal, shard or second expiry under the fenced
        // epoch 1 neither closes nor frees slot 0.
        let later = now + TTL;
        for stale in [
            JournalRecord::LeaseRenewed { lease: 0, epoch: 1 },
            JournalRecord::ShardStaged { lease: 0, epoch: 1 },
            JournalRecord::LeaseExpired { lease: 0, epoch: 1 },
        ] {
            table.apply(&stale, later);
            assert!(
                matches!(table.slots[0].state, SlotState::Leased { epoch: 2, deadline, .. } if deadline == now),
                "{stale:?}"
            );
        }
        table.apply(&JournalRecord::ShardStaged { lease: 0, epoch: 2 }, now);
        assert_eq!(table.slots[0].state, SlotState::Done);
        assert_eq!(table.next_epoch, 3);
    }
}
