//! The cluster path: a coordinator and two workers in this process, from
//! coordinator start until `CURRENT` names the merged generation.

use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use regcluster_cluster::http::http_request;
use regcluster_cluster::{run_coordinator, run_worker, CoordinatorConfig, WorkerConfig};
use regcluster_core::{
    matrix_fingerprint, mine_prepared_roots_to_sink, partition_roots, range_roots,
    root_fingerprints, EngineConfig, MineControl, Miner, NoopObserver,
};
use regcluster_matrix::io::read_matrix_file;
use regcluster_store::{merge_shards, Generations, StoreProvenance, StoreWriter};

use crate::mine::Input;
use crate::trace::{Scope, Tracer};

/// Workers, one mining thread each: the host's two cores.
pub const WORKERS: usize = 2;
/// Root ranges the coordinator leases out.
pub const LEASES: usize = 4;
/// The CLI defaults of `coordinator --lease-ttl-ms` and `worker --poll-ms`
/// / `--checkpoint-every-secs`.
const LEASE_TTL: Duration = Duration::from_secs(10);
const POLL: Duration = Duration::from_millis(200);
const CHECKPOINT_EVERY: Duration = Duration::from_secs(1);
/// Longest a healthy op may take before the run gives up on it.
const OP_TIMEOUT: Duration = Duration::from_secs(60);

/// What one cluster op did.
#[derive(Debug, Clone)]
pub struct Observed {
    /// Coordinator start until `CURRENT` named the new generation.
    pub op_ms: f64,
    /// Wall time of each `run_worker` call.
    pub worker_ms: Vec<f64>,
    /// Counters scraped from the coordinator's `/metrics` after publish.
    pub leases_granted: f64,
    pub renewals: f64,
    pub reassignments: f64,
}

/// A loopback port free at the time of asking.
fn free_port() -> Result<u16, String> {
    TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .map(|a| a.port())
        .map_err(|e| format!("no free port: {e}"))
}

/// The value of the unlabelled series `name` in a Prometheus text page.
fn scrape(page: &str, name: &str) -> Result<f64, String> {
    page.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
        .ok_or_else(|| format!("/metrics has no {name}"))
}

/// Polls `f` every millisecond until it yields a value or `limit` passes.
fn wait_for<T>(limit: Duration, mut f: impl FnMut() -> Option<T>) -> Option<T> {
    let deadline = Instant::now() + limit;
    loop {
        if let Some(v) = f() {
            return Some(v);
        }
        if Instant::now() > deadline {
            return None;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Runs one distributed mine of `input` in a fresh directory under
/// `dir` and byte-compares the published generation with the
/// single-node reference. With a tracer, the op is a `cluster.op` root
/// span with the coordinator start-up and each worker as children.
///
/// The coordinator lingers after publishing, so a worker still backing
/// off on a `wait` answer gets `done` rather than retrying a departed
/// coordinator; `POST /shutdown` then ends it.
pub fn op(input: &Input, dir: &Path, tracer: Option<&Tracer>) -> Result<Observed, String> {
    let _ = std::fs::remove_dir_all(dir);
    let port = free_port()?;
    let addr = format!("127.0.0.1:{port}");
    let store_dir = dir.join("store");
    let coordinator = CoordinatorConfig {
        matrix_path: input.matrix.clone(),
        params: input.params.clone(),
        store_dir: store_dir.clone(),
        work_dir: dir.join("coordinator"),
        port,
        n_leases: LEASES,
        lease_ttl: LEASE_TTL,
        linger: true,
    };
    let workers: Vec<WorkerConfig> = (0..WORKERS)
        .map(|w| WorkerConfig {
            coordinator: addr.clone(),
            matrix_path: input.matrix.clone(),
            work_dir: dir.join(format!("worker-{w}")),
            worker_id: format!("w{w}"),
            threads: 1,
            checkpoint_every: CHECKPOINT_EVERY,
            poll: POLL,
        })
        .collect();
    let gens = Generations::open(&store_dir).map_err(|e| format!("generations: {e}"))?;

    let root = tracer.map(|t| t.root("cluster.op"));
    let scope = root.as_ref().map_or(Scope::OFF, |r| r.scope());
    let started = Instant::now();
    let (generation, op_ms, worker_runs, page, coordinator_run) = std::thread::scope(|s| {
        let coordinator = s.spawn(|| run_coordinator(&coordinator));
        // Workers start once the control plane answers, as an operator
        // would start them; a refused first fetch would add a poll delay.
        let up = scope.time("cluster.coordinator_up", || {
            wait_for(OP_TIMEOUT, || {
                http_request(&addr, "GET", "/job", &[])
                    .ok()
                    .filter(|r| r.status == 200)
            })
        });
        if up.is_none() {
            give_up(dir, "the coordinator never answered /job");
        }
        let handles: Vec<_> = workers
            .iter()
            .map(|cfg| {
                s.spawn(move || {
                    let t = Instant::now();
                    let run = scope.time("cluster.worker", || run_worker(cfg));
                    (t.elapsed().as_secs_f64() * 1e3, run)
                })
            })
            .collect();
        let generation = wait_for(OP_TIMEOUT, || gens.current().ok().flatten());
        let op_ms = started.elapsed().as_secs_f64() * 1e3;
        let op_ms = root.map_or(op_ms, |r| r.finish());
        let Some(generation) = generation else {
            give_up(dir, "no generation was published");
        };
        let worker_runs: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect();
        let page = http_request(&addr, "GET", "/metrics", &[]);
        let _ = http_request(&addr, "POST", "/shutdown", &[]);
        let coordinator_run = coordinator.join().expect("coordinator thread panicked");
        (generation, op_ms, worker_runs, page, coordinator_run)
    });

    let report = coordinator_run.map_err(|e| format!("coordinator: {e}"))?;
    let mut worker_ms = Vec::new();
    for (ms, run) in worker_runs {
        run.map_err(|e| format!("worker: {e}"))?;
        worker_ms.push(ms);
    }
    let page = page.map_err(|e| format!("scrape /metrics: {e}"))?;
    let page = String::from_utf8_lossy(&page.body);
    let observed = Observed {
        op_ms,
        worker_ms,
        leases_granted: scrape(&page, "regcluster_cluster_leases_granted_total")?,
        renewals: scrape(&page, "regcluster_cluster_lease_renewals_total")?,
        reassignments: scrape(&page, "regcluster_cluster_leases_expired_total")?,
    };
    if report.reassignments != 0 || observed.reassignments != 0.0 {
        return Err(format!("{} leases were reassigned", report.reassignments));
    }
    let outcome = input.check(&gens.path_for(generation));
    let _ = std::fs::remove_dir_all(dir);
    outcome.map(|()| observed)
}

/// A wedged op would leave workers retrying forever, so the run cannot
/// end cleanly: report, clean up and exit.
fn give_up(dir: &Path, why: &str) -> ! {
    eprintln!("perfbench: cluster op failed: {why}");
    let _ = std::fs::remove_dir_all(dir);
    std::process::exit(1);
}

/// Mines `input` as [`LEASES`] root-range shards, as the workers do,
/// then times `merge_shards` over them and checks the merged store
/// against the reference. Returns the merge's milliseconds.
pub fn merge(input: &Input, dir: &Path) -> Result<f64, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let m = read_matrix_file(&input.matrix).map_err(|e| format!("load: {e}"))?;
    let miner = Miner::new(&m, &input.params).map_err(|e| format!("index build: {e}"))?;
    let provenance = StoreProvenance {
        engine: Some(regcluster_cluster::CLUSTER_ENGINE.to_string()),
        engine_params: serde_json::to_string(&input.params).ok(),
        generation: 0,
        matrix_fingerprint: Some(matrix_fingerprint(&m)),
        root_fingerprints: Some(root_fingerprints(&miner)),
    };
    let mut shards: Vec<PathBuf> = Vec::new();
    for (i, (start, end)) in partition_roots(m.n_conditions(), LEASES)
        .into_iter()
        .enumerate()
    {
        let path = dir.join(format!("shard-{i}.rcs"));
        let writer = StoreWriter::create_with_provenance(
            &path,
            m.gene_names(),
            m.condition_names(),
            &input.params,
            &provenance,
        )
        .map_err(|e| format!("shard: {e}"))?;
        mine_prepared_roots_to_sink(
            &miner,
            &range_roots(start, end),
            &EngineConfig::new(1),
            &MineControl::new(),
            &NoopObserver,
            &writer,
        )
        .map_err(|e| format!("shard mine: {e}"))?;
        writer.finish().map_err(|e| format!("shard seal: {e}"))?;
        shards.push(path);
    }
    let merged = dir.join("merged.rcs");
    let started = Instant::now();
    merge_shards(&shards, &merged).map_err(|e| format!("merge: {e}"))?;
    let ms = started.elapsed().as_secs_f64() * 1e3;
    let outcome = input.check(&merged);
    let _ = std::fs::remove_dir_all(dir);
    outcome.map(|()| ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrape_reads_unlabelled_series_only() {
        let page =
            "# HELP x\nregcluster_a_total 4\nregcluster_a_total_b 9\nregcluster_b{l=\"1\"} 2\n";
        assert_eq!(scrape(page, "regcluster_a_total"), Ok(4.0));
        assert!(scrape(page, "regcluster_b").is_err());
    }
}
