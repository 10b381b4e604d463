//! The cluster worker: acquires root leases, mines them into per-lease
//! shards with local checkpointing, and uploads sealed shards.
//!
//! # Crash/restart behavior
//!
//! Work files are keyed by lease identity *and* root range
//! (`lease-<id>-<start>-<end>.rck`, `shard-<id>-<start>-<end>.rcs`): a
//! resumed engine checkpoint completes its own pending frontier rather
//! than re-reading the roots argument, so a checkpoint must only ever be
//! resumed for the exact range it was taken under — the filename is that
//! guarantee. A restarted worker that re-acquires the same range resumes
//! from its checkpoint; a sealed-but-not-uploaded shard is re-uploaded
//! without re-mining.
//!
//! # Lease loss
//!
//! A heartbeat thread renews the lease at a third of its TTL. On a 409
//! (the coordinator fenced us off — expiry or restart) or after a full
//! TTL of failed renewals, it cancels the [`MineControl`]; the engine
//! stops early and flushes a final checkpoint, and the worker goes back
//! to acquiring. Mining output is never uploaded under a lost lease —
//! the coordinator's epoch check would refuse it anyway.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use regcluster_core::{
    matrix_fingerprint, range_roots, root_fingerprints, CheckpointPlan, MineControl, MineRequest,
    Miner, MiningParams,
};
use regcluster_matrix::io::read_matrix_file;
use regcluster_matrix::ExpressionMatrix;
use regcluster_obs::MetricsRegistry;
use regcluster_store::{
    read_checkpoint, CheckpointFile, ClusterStore, StoreProvenance, StoreWriter,
};

use crate::backoff::Backoff;
use crate::coordinator::CLUSTER_ENGINE;
use crate::error::ClusterError;
use crate::http::http_request;
use crate::metrics::WorkerMetrics;
use crate::protocol::{AcquireRequest, AcquireResponse, JobInfo, RenewRequest};

/// Longest single backoff delay in any worker retry loop.
const BACKOFF_CAP: Duration = Duration::from_secs(2);

/// Worker configuration.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Coordinator control-plane address, `host:port`.
    pub coordinator: String,
    /// Expression matrix file (must fingerprint-match the coordinator's).
    pub matrix_path: PathBuf,
    /// Scratch directory for checkpoints and sealed shards (reused on
    /// restart — this is what makes resume work).
    pub work_dir: PathBuf,
    /// Self-assigned id, shown in coordinator logs and lease state.
    pub worker_id: String,
    /// Mining threads.
    pub threads: usize,
    /// Checkpoint cadence while mining a lease.
    pub checkpoint_every: Duration,
    /// Base retry delay: every control-plane retry loop backs off
    /// exponentially with jitter from this base (see [`Backoff`]).
    pub poll: Duration,
}

/// What a worker did before the coordinator told it the run is done.
#[derive(Debug, Clone, Default)]
pub struct WorkerReport {
    /// Leases mined to completion (including resumed ones).
    pub leases_mined: u64,
    /// Leases resumed from a local checkpoint.
    pub leases_resumed: u64,
    /// Shards accepted by the coordinator.
    pub shards_uploaded: u64,
    /// Leases lost mid-mine (cancelled by the heartbeat).
    pub leases_lost: u64,
    /// Upload attempts that could not connect (coordinator down).
    pub upload_conn_refused: u64,
    /// Upload attempts answered 503 + `Retry-After` (coordinator shed).
    pub upload_retry_after: u64,
}

/// Outcome of mining one granted lease.
enum LeaseOutcome {
    Uploaded { resumed: bool },
    Lost,
}

/// Runs the worker loop until the coordinator reports the run complete.
///
/// # Errors
///
/// [`ClusterError`] for an unreadable matrix, a params/fingerprint
/// mismatch with the coordinator, or store failures on local shard
/// files. Connection failures are *not* errors — the worker retries
/// until the coordinator comes (back) up.
pub fn run_worker(cfg: &WorkerConfig) -> Result<WorkerReport, ClusterError> {
    std::fs::create_dir_all(&cfg.work_dir)?;
    let job = fetch_job(cfg);
    let matrix = read_matrix_file(&cfg.matrix_path)?;
    let local_fp = matrix_fingerprint(&matrix);
    if local_fp != job.matrix_fingerprint {
        return Err(ClusterError::Protocol(format!(
            "matrix fingerprint {local_fp:#x} disagrees with coordinator's {:#x}; \
             the worker is mining a different input",
            job.matrix_fingerprint
        )));
    }
    if job.engine != CLUSTER_ENGINE {
        return Err(ClusterError::Protocol(format!(
            "coordinator runs engine {:?}; this worker only mines {CLUSTER_ENGINE}",
            job.engine
        )));
    }
    let params: MiningParams = serde_json::from_str(&job.params_json)?;
    params.validate()?;
    let miner = Miner::new(&matrix, &params)?;

    let registry = MetricsRegistry::new();
    let metrics = WorkerMetrics::register(&registry);

    let mut report = WorkerReport::default();
    // Acquire retries forever (the coordinator may be restarting), so no
    // budget — but the delay still grows and jitters so a fleet of
    // waiting workers doesn't stampede a coordinator that comes back.
    let mut backoff = Backoff::new(cfg.poll, BACKOFF_CAP);
    loop {
        let acquire = AcquireRequest {
            worker: cfg.worker_id.clone(),
        };
        let body = serde_json::to_string(&acquire)?;
        let response =
            match http_request(&cfg.coordinator, "POST", "/lease/acquire", body.as_bytes()) {
                Ok(reply) if reply.status == 200 => {
                    match parse_json::<AcquireResponse>(&reply.body) {
                        Some(r) => r,
                        None => {
                            backoff.sleep();
                            continue;
                        }
                    }
                }
                // Shed, fault-injected, or coordinator down: back off
                // (honoring a Retry-After hint when the server sent one).
                Ok(reply) => {
                    backoff.sleep_hinted(reply.retry_after);
                    continue;
                }
                Err(_) => {
                    backoff.sleep();
                    continue;
                }
            };
        backoff.reset();
        match response.kind.as_str() {
            "grant" => {
                match mine_lease(cfg, &job, &params, &matrix, &miner, &response, &metrics)? {
                    LeaseOutcome::Uploaded { resumed } => {
                        report.leases_mined += 1;
                        report.shards_uploaded += 1;
                        if resumed {
                            report.leases_resumed += 1;
                        }
                    }
                    LeaseOutcome::Lost => report.leases_lost += 1,
                }
            }
            "wait" => {
                backoff.sleep();
            }
            "done" => break,
            other => {
                return Err(ClusterError::Protocol(format!(
                    "unknown acquire response kind {other:?}"
                )));
            }
        }
    }
    report.upload_conn_refused = metrics.upload_conn_refused.get();
    report.upload_retry_after = metrics.upload_retry_after.get();
    eprintln!(
        "worker {}: done ({} mined, {} resumed, {} uploaded, {} lost, \
         {} upload conn-refused, {} upload retry-after)",
        cfg.worker_id,
        report.leases_mined,
        report.leases_resumed,
        report.shards_uploaded,
        report.leases_lost,
        report.upload_conn_refused,
        report.upload_retry_after
    );
    Ok(report)
}

/// Fetches `/job`, retrying with backoff until the coordinator answers.
fn fetch_job(cfg: &WorkerConfig) -> JobInfo {
    let mut backoff = Backoff::new(cfg.poll, BACKOFF_CAP);
    loop {
        match http_request(&cfg.coordinator, "GET", "/job", &[]) {
            Ok(reply) if reply.status == 200 => {
                if let Some(job) = parse_json::<JobInfo>(&reply.body) {
                    return job;
                }
                backoff.sleep();
            }
            Ok(reply) => {
                backoff.sleep_hinted(reply.retry_after);
            }
            Err(_) => {
                backoff.sleep();
            }
        }
    }
}

fn parse_json<T: serde::Deserialize>(bytes: &[u8]) -> Option<T> {
    std::str::from_utf8(bytes)
        .ok()
        .and_then(|s| serde_json::from_str(s).ok())
}

/// Mines one granted lease: resume from checkpoint or sealed shard when
/// present, heartbeat while mining, seal and upload.
fn mine_lease(
    cfg: &WorkerConfig,
    job: &JobInfo,
    params: &MiningParams,
    matrix: &ExpressionMatrix,
    miner: &Miner<'_>,
    grant: &AcquireResponse,
    metrics: &WorkerMetrics,
) -> Result<LeaseOutcome, ClusterError> {
    let (lease, start, end) = (grant.lease, grant.start as usize, grant.end as usize);
    let shard_path = cfg
        .work_dir
        .join(format!("shard-{lease}-{start}-{end}.rcs"));
    let ck_path = cfg
        .work_dir
        .join(format!("lease-{lease}-{start}-{end}.rck"));

    // A sealed shard from a previous incarnation (mined, crashed before
    // upload, or uploaded but fenced): upload it as-is, no re-mining.
    if ClusterStore::open(&shard_path).is_ok() {
        eprintln!(
            "worker {}: re-uploading sealed shard for roots [{start}, {end})",
            cfg.worker_id
        );
        return upload_shard(cfg, grant, &shard_path, &ck_path, false, metrics);
    }

    let resume = read_checkpoint(&ck_path).ok();
    let resumed = resume.is_some();
    if resumed {
        eprintln!(
            "worker {}: resuming roots [{start}, {end}) from checkpoint",
            cfg.worker_id
        );
    }

    let writer = StoreWriter::create_with_provenance(
        &shard_path,
        matrix.gene_names(),
        matrix.condition_names(),
        params,
        &StoreProvenance {
            engine: Some(CLUSTER_ENGINE.to_string()),
            engine_params: Some(serde_json::to_string(params)?),
            generation: job.generation,
            matrix_fingerprint: Some(job.matrix_fingerprint),
            root_fingerprints: Some(root_fingerprints(miner)),
        },
    )?;
    let ck_file = CheckpointFile::new(&ck_path);
    let mut plan = CheckpointPlan::new(&ck_file).with_every(cfg.checkpoint_every);
    if let Some(ck) = resume {
        plan = plan.with_resume(ck);
    }

    let control = MineControl::new();
    let heartbeat = spawn_heartbeat(cfg, grant, &control);
    let roots = range_roots(start, end);
    let mine_result = MineRequest::new(miner)
        .roots(&roots)
        .threads(cfg.threads.max(1))
        .control(&control)
        .checkpoint(plan)
        .run(&writer);
    heartbeat.stop();

    // A checkpoint that no longer matches this run (params changed
    // between restarts, say) fails resume validation; throw it away and
    // let the next grant mine from scratch instead of wedging forever.
    let stream = match mine_result {
        Ok((stream, _)) => stream,
        Err(e) => {
            let _ = std::fs::remove_file(&ck_path);
            return Err(e.into());
        }
    };

    if control.is_cancelled() {
        // Lease lost mid-mine. The engine flushed a final checkpoint on
        // early shutdown; keep it (a future grant of the same range
        // resumes from it) and abandon the unsealed shard scratch.
        eprintln!(
            "worker {}: lost lease on roots [{start}, {end}), checkpoint kept",
            cfg.worker_id
        );
        drop(writer);
        return Ok(LeaseOutcome::Lost);
    }
    debug_assert!(!stream.stopped_by_sink, "store writer never refuses");
    writer.finish()?;
    upload_shard(cfg, grant, &shard_path, &ck_path, resumed, metrics)
}

/// Uploads a sealed shard under the grant's epoch. 200 cleans up the
/// local shard + checkpoint; 409 keeps the shard for a future grant of
/// the same range; retryable failures back off within a one-TTL budget,
/// then give up back to the acquire loop (the shard also stays for
/// retry). Connection-refused and shed-503 retries are counted apart:
/// one means the coordinator is *down*, the other that it is *pushing
/// back* — operators page on the first and wait out the second.
fn upload_shard(
    cfg: &WorkerConfig,
    grant: &AcquireResponse,
    shard_path: &PathBuf,
    ck_path: &PathBuf,
    resumed: bool,
    metrics: &WorkerMetrics,
) -> Result<LeaseOutcome, ClusterError> {
    let bytes = std::fs::read(shard_path)?;
    let path = format!("/shard/{}/{}", grant.lease, grant.epoch);
    let mut backoff = Backoff::new(cfg.poll, BACKOFF_CAP)
        .with_budget(Duration::from_millis(grant.ttl_ms.max(1000)));
    loop {
        let retry_hint = match http_request(&cfg.coordinator, "POST", &path, &bytes) {
            Ok(reply) if reply.status == 200 => {
                let _ = std::fs::remove_file(shard_path);
                let _ = std::fs::remove_file(ck_path);
                return Ok(LeaseOutcome::Uploaded { resumed });
            }
            Ok(reply) if reply.status == 409 => {
                eprintln!(
                    "worker {}: upload fenced (lease {} epoch {}); shard kept",
                    cfg.worker_id, grant.lease, grant.epoch
                );
                return Ok(LeaseOutcome::Lost);
            }
            // 400: validation refused the shard — not retryable.
            Ok(reply) if reply.status == 400 => {
                let _ = std::fs::remove_file(shard_path);
                return Err(ClusterError::Protocol(format!(
                    "coordinator refused shard: {}",
                    String::from_utf8_lossy(&reply.body)
                )));
            }
            // 503: the coordinator is shedding; honor its Retry-After.
            Ok(reply) if reply.status == 503 => {
                metrics.upload_retry_after.inc();
                reply.retry_after
            }
            // 500 (e.g. injected upload fault) or garbled/dropped
            // responses: plain backoff within the budget.
            Ok(_) => None,
            Err(e) => {
                if e.kind() == std::io::ErrorKind::ConnectionRefused {
                    metrics.upload_conn_refused.inc();
                }
                None
            }
        };
        if !backoff.sleep_hinted(retry_hint) {
            return Ok(LeaseOutcome::Lost);
        }
    }
}

/// Handle for the per-lease heartbeat thread.
struct Heartbeat {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<()>,
}

impl Heartbeat {
    fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.handle.join();
    }
}

/// Renews the lease at TTL/3. Cancels `control` when the coordinator
/// fences the lease (409) or a full TTL passes without a successful
/// renewal (coordinator unreachable — the lease has expired by then).
fn spawn_heartbeat(
    cfg: &WorkerConfig,
    grant: &AcquireResponse,
    control: &MineControl,
) -> Heartbeat {
    let stop = Arc::new(AtomicBool::new(false));
    let stop_thread = Arc::clone(&stop);
    let control = control.clone();
    let coordinator = cfg.coordinator.clone();
    let ttl = Duration::from_millis(grant.ttl_ms.max(300));
    let renew = RenewRequest {
        worker: cfg.worker_id.clone(),
        lease: grant.lease,
        epoch: grant.epoch,
    };
    let body = serde_json::to_string(&renew).unwrap_or_default();
    let handle = std::thread::spawn(move || {
        let interval = ttl / 3;
        let mut last_ok = Instant::now();
        while !stop_thread.load(Ordering::SeqCst) {
            std::thread::sleep(interval);
            if stop_thread.load(Ordering::SeqCst) {
                break;
            }
            match http_request(&coordinator, "POST", "/lease/renew", body.as_bytes()) {
                Ok(reply) if reply.status == 200 => last_ok = Instant::now(),
                Ok(reply) if reply.status == 409 => {
                    control.cancel();
                    break;
                }
                // Unreachable or 5xx: the lease may still be alive
                // server-side; only give up once it must have expired.
                Ok(_) | Err(_) => {
                    if last_ok.elapsed() > ttl {
                        control.cancel();
                        break;
                    }
                }
            }
        }
    });
    Heartbeat { stop, handle }
}
