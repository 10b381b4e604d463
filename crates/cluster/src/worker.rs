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
//! the coordinator's epoch check would refuse it anyway. The thread
//! waits out each interval on a condvar, so stopping it when the mine
//! ends is immediate and the shard upload never waits for a renewal
//! timer.

use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use regcluster_core::{range_roots, MineControl, Miner, MiningParams, NoopObserver};
use regcluster_obs::MetricsRegistry;
use regcluster_store::{read_checkpoint, ClusterStore};

use crate::backoff::Backoff;
use crate::coordinator::CLUSTER_ENGINE;
use crate::error::ClusterError;
use crate::http::http_request;
use crate::metrics::WorkerMetrics;
use crate::pipeline::{Checkpointing, Enumerate, Fingerprints, Pipeline, Run, StoreTarget};
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
    // Every request retries forever (the coordinator may be restarting),
    // so no budget — but the delay still grows and jitters so a fleet of
    // waiting workers doesn't stampede a coordinator that comes back.
    let mut backoff = Backoff::new(cfg.poll, BACKOFF_CAP);
    let job: JobInfo = request_until_ok(cfg, &mut backoff, "GET", "/job", &[]);
    let registry = MetricsRegistry::new();
    let metrics = WorkerMetrics::register(&registry);
    // Load and index once; every lease then runs enumeration and
    // store_write over the same miner.
    let pipeline = Pipeline::new(&registry);
    let matrix = pipeline.load(&cfg.matrix_path, None)?;
    if job.engine != CLUSTER_ENGINE {
        return Err(ClusterError::Protocol(format!(
            "coordinator runs engine {:?}; this worker only mines {CLUSTER_ENGINE}",
            job.engine
        )));
    }
    let params: MiningParams = serde_json::from_str(&job.params_json)?;
    params.validate()?;
    let (miner, fingerprints) = pipeline.index_build(&matrix, &params, true)?;
    let local_fp = fingerprints.as_ref().map_or(0, |f| f.0);
    if local_fp != job.matrix_fingerprint {
        return Err(ClusterError::Protocol(format!(
            "matrix fingerprint {local_fp:#x} disagrees with coordinator's {:#x}; \
             the worker is mining a different input",
            job.matrix_fingerprint
        )));
    }
    let mut report = WorkerReport::default();
    let acquire = serde_json::to_string(&AcquireRequest {
        worker: cfg.worker_id.clone(),
    })?;
    loop {
        let response: AcquireResponse = request_until_ok(
            cfg,
            &mut backoff,
            "POST",
            "/lease/acquire",
            acquire.as_bytes(),
        );
        match response.kind.as_str() {
            "grant" => match mine_lease(
                cfg,
                &pipeline,
                &miner,
                fingerprints.as_ref(),
                job.generation,
                &response,
                &metrics,
            )? {
                LeaseOutcome::Uploaded { resumed } => {
                    report.leases_mined += 1;
                    report.shards_uploaded += 1;
                    if resumed {
                        report.leases_resumed += 1;
                    }
                }
                LeaseOutcome::Lost => report.leases_lost += 1,
            },
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

/// Sends one request until the coordinator answers 200 with a parseable
/// `T`, then resets `backoff`. A shed, fault-injected or garbled answer,
/// or a coordinator that is down, backs off and retries, honoring a
/// `Retry-After` hint when the server sent one.
fn request_until_ok<T: serde::Deserialize>(
    cfg: &WorkerConfig,
    backoff: &mut Backoff,
    method: &str,
    path: &str,
    body: &[u8],
) -> T {
    loop {
        match http_request(&cfg.coordinator, method, path, body) {
            Ok(reply) if reply.status == 200 => {
                let parsed = std::str::from_utf8(&reply.body)
                    .ok()
                    .and_then(|s| serde_json::from_str(s).ok());
                if let Some(value) = parsed {
                    backoff.reset();
                    return value;
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

/// Mines one granted lease: resume from checkpoint or sealed shard when
/// present, heartbeat while mining, seal and upload.
fn mine_lease(
    cfg: &WorkerConfig,
    pipeline: &Pipeline,
    miner: &Miner<'_>,
    fingerprints: Option<&Fingerprints>,
    generation: u64,
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

    // An unreadable or corrupt checkpoint is ignored: the lease mines afresh.
    let resume = read_checkpoint(&ck_path).ok();
    let resumed = resume.is_some();
    if resumed {
        eprintln!(
            "worker {}: resuming roots [{start}, {end}) from checkpoint",
            cfg.worker_id
        );
    }

    let roots = range_roots(start, end);
    let source = Enumerate::RegCluster {
        miner,
        roots: Some(&roots),
    };
    let target = StoreTarget {
        path: shard_path.clone(),
        generation,
        lineage: None,
    };
    let store = source.open_store(target, miner.matrix(), miner.params(), fingerprints)?;
    let control = MineControl::new();
    let heartbeat = spawn_heartbeat(cfg, grant, &control);
    let run = Run {
        threads: cfg.threads.max(1),
        control: &control,
        observer: &NoopObserver,
        checkpoint: Some(Checkpointing {
            path: ck_path.clone(),
            every: Some(cfg.checkpoint_every),
            resume,
        }),
    };
    let mined = pipeline.enumerate(&source, Some(&store), run);
    // Fault harnesses delay here to keep a mined lease live, and not
    // yet staged, while they crash a process.
    regcluster_failpoint::trigger("cluster::lease_hold");
    heartbeat.stop();

    // A checkpoint that no longer matches this run (params changed
    // between restarts, say) fails resume validation; throw it away and
    // let the next grant mine from scratch instead of wedging forever.
    let (report, ..) = match mined {
        Ok(mined) => mined,
        Err(e) => {
            let _ = std::fs::remove_file(&ck_path);
            return Err(e);
        }
    };

    if control.is_cancelled() {
        // Lease lost, mid-mine or during the hold. The engine flushed a
        // final checkpoint on early shutdown; keep it (a future grant of
        // the same range resumes from it) and abandon the unsealed shard
        // scratch.
        eprintln!(
            "worker {}: lost lease on roots [{start}, {end}), checkpoint kept",
            cfg.worker_id
        );
        return Ok(LeaseOutcome::Lost);
    }
    debug_assert!(!report.stopped_by_sink, "store writer never refuses");
    pipeline.store_write(store, &report, &[], &control)?;
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
    /// The stop flag and the condvar the thread waits on between
    /// renewals.
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: std::thread::JoinHandle<()>,
}

impl Heartbeat {
    /// Wakes the thread and joins it. Returns as soon as a renewal in
    /// flight (if any) finishes, not at the next renewal tick.
    fn stop(self) {
        let (flag, wake) = &*self.stop;
        *flag.lock().expect("no holder of the stop flag panics") = true;
        wake.notify_all();
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
    let stop = Arc::new((Mutex::new(false), Condvar::new()));
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
        let (flag, wake) = &*stop_thread;
        loop {
            let stopped = flag.lock().expect("no holder of the stop flag panics");
            let (stopped, _) = wake
                .wait_timeout_while(stopped, interval, |stopped| !*stopped)
                .expect("no holder of the stop flag panics");
            if *stopped {
                break;
            }
            drop(stopped);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{HttpServer, Response};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn config(coordinator: String) -> WorkerConfig {
        WorkerConfig {
            coordinator,
            matrix_path: PathBuf::new(),
            work_dir: PathBuf::new(),
            worker_id: "w-test".to_string(),
            threads: 1,
            checkpoint_every: Duration::from_secs(1),
            poll: Duration::from_millis(10),
        }
    }

    fn grant(ttl_ms: u64) -> AcquireResponse {
        AcquireResponse {
            kind: "grant".to_string(),
            lease: 0,
            start: 0,
            end: 1,
            epoch: 1,
            ttl_ms,
        }
    }

    #[test]
    fn stop_returns_before_the_first_renewal() {
        // Nothing listens on port 1; the heartbeat never gets to try.
        let control = MineControl::new();
        let heartbeat = spawn_heartbeat(&config("127.0.0.1:1".into()), &grant(30_000), &control);
        // Let the thread reach its 10 s wait before stopping it; stopping
        // a thread that has not started waiting is quick either way.
        std::thread::sleep(Duration::from_millis(100));
        let started = Instant::now();
        heartbeat.stop();
        let took = started.elapsed();
        assert!(took < Duration::from_secs(1), "stop took {took:?}");
        assert!(!control.is_cancelled());
    }

    #[test]
    fn a_fenced_renewal_cancels_the_mine() {
        let fenced = Arc::new(AtomicU64::new(0));
        let served = Arc::clone(&fenced);
        let server = HttpServer::start(0, move |req| match req.path.as_str() {
            "/lease/renew" => {
                served.fetch_add(1, Ordering::SeqCst);
                Response::text(409, "lease lost")
            }
            _ => Response::text(404, "not found"),
        })
        .unwrap();
        let control = MineControl::new();
        let cfg = config(format!("127.0.0.1:{}", server.port()));
        let heartbeat = spawn_heartbeat(&cfg, &grant(300), &control);
        let deadline = Instant::now() + Duration::from_secs(1);
        while !control.is_cancelled() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(control.is_cancelled(), "no cancel within 1 s of a 409");
        heartbeat.stop();
        assert!(fenced.load(Ordering::SeqCst) >= 1);
        server.shutdown();
    }
}
