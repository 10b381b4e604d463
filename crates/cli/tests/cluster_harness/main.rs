//! Scripted multi-node fault harness for the distributed mining cluster.
//!
//! Each scenario is a plain-text script (under `scenarios/`) interpreted
//! against **real processes** of the `regcluster` binary: coordinators,
//! workers and `serve --watch` replicas are spawned, crashed (SIGKILL)
//! and restarted exactly as the script says, and every scenario ends by
//! comparing the published generation byte-for-byte against a
//! single-node golden mine of the same matrix.
//!
//! # Script language
//!
//! One command per line; `#` starts a comment. Names (`c1`, `w1`, …) are
//! script-chosen handles for processes.
//!
//! ```text
//! start coordinator <name> [leases=N] [ttl-ms=N] [workdir=K] [fail=SPEC]
//!                          [port=<prevname>]     # rebind a crashed one's port
//! start worker <name> [coord=<cname>] [workdir=K] [every-secs=F] [fail=SPEC]
//! start replica <name>                 # serve --watch on the shared lineage
//! crash <name>                         # SIGKILL
//! stop <name>                          # POST /shutdown (graceful drain)
//! sleep <ms>
//! await exit <name> ok|fail            # process exits with(out) success
//! await generation <N>                 # lineage CURRENT reaches N
//! await done <K> [coord=<cname>]       # coordinator /status leases_done >= K
//! await swap <replica> <N>             # replica /stats serves generation N
//! await metric <M> >= <N> [coord=<c>]  # coordinator /metrics counter reaches N
//! assert metric <M> ==|>= <N> [coord=<c>]  # counter check, no polling
//! load start <replica> clients=N       # hammer the replica; every request
//! load stop <replica>                  #   must return 200, verified at stop
//! golden <N>                           # gen-<N>.rcs equals the golden's
//! ```
//!
//! Workers restarted with the same `workdir=` key resume their leases
//! from on-disk checkpoints; coordinators restarted with the same key
//! recover already-staged shards. Both are exercised below.

use std::collections::HashMap;
use std::io::{BufReader, Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Mining parameters every node (and the golden) runs under.
const PARAMS: [&str; 8] = [
    "--min-genes",
    "4",
    "--min-conds",
    "4",
    "--gamma",
    "0.1",
    "--epsilon",
    "0.5",
];

/// How long `await` commands poll before failing the scenario.
const AWAIT_TIMEOUT: Duration = Duration::from_secs(120);

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_regcluster"))
}

/// Shared fixture: the matrix file and a two-generation single-node
/// golden lineage, built once for every scenario in this binary.
struct Fixture {
    matrix: PathBuf,
    golden: PathBuf,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("regcluster-harness-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let matrix = dir.join("matrix.tsv");
        let out = bin()
            .args([
                "generate",
                "--output",
                matrix.to_str().unwrap(),
                "--genes",
                "320",
                "--conds",
                "12",
                "--clusters",
                "5",
                "--seed",
                "11",
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        // Golden lineage: the same mine twice, publishing generations 0
        // and 1 — what any number of distributed rounds must reproduce.
        let golden = dir.join("golden");
        std::fs::create_dir_all(&golden).unwrap();
        for _ in 0..2 {
            let out = bin()
                .args(["mine", "--input", matrix.to_str().unwrap()])
                .args(PARAMS)
                .args(["--store", golden.to_str().unwrap()])
                .output()
                .unwrap();
            assert!(
                out.status.success(),
                "{}",
                String::from_utf8_lossy(&out.stderr)
            );
        }
        Fixture { matrix, golden }
    })
}

fn free_port() -> u16 {
    TcpListener::bind(("127.0.0.1", 0))
        .unwrap()
        .local_addr()
        .unwrap()
        .port()
}

/// One blocking HTTP GET against a local port; returns (status, body), or
/// `None` when the peer is unreachable.
fn get(port: u16, path: &str) -> Option<(u16, String)> {
    let mut stream = TcpStream::connect(("127.0.0.1", port)).ok()?;
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n"
    )
    .ok()?;
    let mut raw = String::new();
    BufReader::new(stream).read_to_string(&mut raw).ok()?;
    let status: u16 = raw.split_whitespace().nth(1)?.parse().ok()?;
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_string())?;
    Some((status, body))
}

/// One blocking empty-bodied HTTP POST against a local port; returns
/// (status, body), or `None` when the peer is unreachable.
fn post(port: u16, path: &str) -> Option<(u16, String)> {
    let mut stream = TcpStream::connect(("127.0.0.1", port)).ok()?;
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write!(
        stream,
        "POST {path} HTTP/1.1\r\nHost: h\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
    )
    .ok()?;
    let mut raw = String::new();
    BufReader::new(stream).read_to_string(&mut raw).ok()?;
    let status: u16 = raw.split_whitespace().nth(1)?.parse().ok()?;
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_string())?;
    Some((status, body))
}

/// A running load generator against a replica: N clients asserting that
/// every single request — including across a hot-swap — returns 200.
struct LoadGen {
    stop: Arc<AtomicBool>,
    clients: Vec<std::thread::JoinHandle<usize>>,
}

struct Proc {
    child: Child,
    port: u16,
}

struct Harness {
    name: &'static str,
    dir: PathBuf,
    gens: PathBuf,
    procs: HashMap<String, Proc>,
    loads: HashMap<String, LoadGen>,
    /// Every port ever assigned, surviving crashes — so a restarted
    /// coordinator can rebind its predecessor's address (`port=<name>`)
    /// and workers pointed at the old incarnation reconnect untouched.
    ports: HashMap<String, u16>,
    last_coordinator: Option<String>,
}

impl Harness {
    fn new(name: &'static str) -> Harness {
        let dir =
            std::env::temp_dir().join(format!("regcluster-harness-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let gens = dir.join("gens");
        std::fs::create_dir_all(&gens).unwrap();
        Harness {
            name,
            dir,
            gens,
            procs: HashMap::new(),
            loads: HashMap::new(),
            ports: HashMap::new(),
            last_coordinator: None,
        }
    }

    fn run(mut self, script: &str) {
        for (lineno, raw) in script.lines().enumerate() {
            let line = raw.split('#').next().unwrap().trim();
            if line.is_empty() {
                continue;
            }
            let words: Vec<&str> = line.split_whitespace().collect();
            self.step(&words)
                .unwrap_or_else(|e| panic!("[{}] line {}: {raw:?}: {e}", self.name, lineno + 1));
        }
    }

    fn step(&mut self, words: &[&str]) -> Result<(), String> {
        match words {
            ["start", "coordinator", name, opts @ ..] => self.start_coordinator(name, opts),
            ["start", "worker", name, opts @ ..] => self.start_worker(name, opts),
            ["start", "replica", name] => self.start_replica(name),
            ["crash", name] => self.crash(name),
            ["stop", name] => self.stop(name),
            ["sleep", ms] => {
                std::thread::sleep(Duration::from_millis(ms.parse().map_err(|_| "bad ms")?));
                Ok(())
            }
            ["await", "exit", name, expect] => self.await_exit(name, expect),
            ["await", "generation", n] => {
                self.await_generation(n.parse().map_err(|_| "bad generation")?)
            }
            ["await", "done", k, opts @ ..] => {
                self.await_done(k.parse().map_err(|_| "bad count")?, opts)
            }
            ["await", "swap", name, n] => self.await_swap(name, n),
            ["await", "metric", metric, ">=", n, opts @ ..] => {
                self.await_metric(metric, n.parse().map_err(|_| "bad count")?, opts)
            }
            ["assert", "metric", metric, op, n, opts @ ..] => {
                self.assert_metric(metric, op, n.parse().map_err(|_| "bad count")?, opts)
            }
            ["load", "start", name, opts @ ..] => self.load_start(name, opts),
            ["load", "stop", name] => self.load_stop(name),
            ["golden", n] => self.golden(n.parse().map_err(|_| "bad generation")?),
            other => Err(format!("unknown command {other:?}")),
        }
    }

    fn opt<'a>(opts: &[&'a str], key: &str) -> Option<&'a str> {
        opts.iter()
            .find_map(|o| o.strip_prefix(key).and_then(|r| r.strip_prefix('=')))
    }

    fn start_coordinator(&mut self, name: &str, opts: &[&str]) -> Result<(), String> {
        let fx = fixture();
        let port = match Self::opt(opts, "port") {
            Some(prev) => *self
                .ports
                .get(prev)
                .ok_or_else(|| format!("no prior process named {prev:?}"))?,
            None => free_port(),
        };
        let workdir = self.dir.join(Self::opt(opts, "workdir").unwrap_or("coord"));
        let mut cmd = bin();
        cmd.args(["coordinator", "--input"])
            .arg(&fx.matrix)
            .arg("--store")
            .arg(&self.gens)
            .arg("--work-dir")
            .arg(&workdir)
            .args(PARAMS)
            .args(["--port", &port.to_string()])
            .args(["--leases", Self::opt(opts, "leases").unwrap_or("6")])
            .args([
                "--lease-ttl-ms",
                Self::opt(opts, "ttl-ms").unwrap_or("8000"),
            ])
            .arg("--linger");
        if let Some(spec) = Self::opt(opts, "fail") {
            cmd.env("FAILPOINTS", spec);
        }
        self.spawn(name, cmd, port)?;
        self.last_coordinator = Some(name.to_string());
        Ok(())
    }

    fn start_worker(&mut self, name: &str, opts: &[&str]) -> Result<(), String> {
        let fx = fixture();
        let coord = match Self::opt(opts, "coord") {
            Some(c) => c.to_string(),
            None => self
                .last_coordinator
                .clone()
                .ok_or("no coordinator started yet")?,
        };
        let coord_port = self
            .procs
            .get(&coord)
            .ok_or_else(|| format!("unknown coordinator {coord:?}"))?
            .port;
        let workdir = self.dir.join(Self::opt(opts, "workdir").unwrap_or(name));
        let mut cmd = bin();
        cmd.args(["worker", "--input"])
            .arg(&fx.matrix)
            .args(["--coordinator", &format!("127.0.0.1:{coord_port}")])
            .arg("--work-dir")
            .arg(&workdir)
            .args(["--worker-id", name])
            .args(["--poll-ms", "100"])
            .args([
                "--checkpoint-every-secs",
                Self::opt(opts, "every-secs").unwrap_or("0.2"),
            ]);
        if let Some(spec) = Self::opt(opts, "fail") {
            cmd.env("FAILPOINTS", spec);
        }
        self.spawn(name, cmd, 0)
    }

    fn start_replica(&mut self, name: &str) -> Result<(), String> {
        let port = free_port();
        let mut cmd = bin();
        cmd.arg("serve")
            .arg("--watch")
            .arg(&self.gens)
            .args(["--port", &port.to_string()])
            .args(["--threads", "2"])
            .args(["--watch-interval-ms", "25"]);
        self.spawn(name, cmd, port)?;
        // The socket is up once /health answers.
        let deadline = Instant::now() + AWAIT_TIMEOUT;
        while get(port, "/health").is_none() {
            if Instant::now() > deadline {
                return Err("replica never came up".into());
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        Ok(())
    }

    fn spawn(&mut self, name: &str, mut cmd: Command, port: u16) -> Result<(), String> {
        if self.procs.contains_key(name) {
            return Err(format!("{name:?} is already running"));
        }
        let child = cmd
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn failed: {e}"))?;
        self.ports.insert(name.to_string(), port);
        self.procs.insert(name.to_string(), Proc { child, port });
        Ok(())
    }

    fn crash(&mut self, name: &str) -> Result<(), String> {
        let p = self
            .procs
            .get_mut(name)
            .ok_or_else(|| format!("unknown process {name:?}"))?;
        p.child.kill().map_err(|e| format!("kill failed: {e}"))?;
        let _ = p.child.wait();
        self.procs.remove(name);
        Ok(())
    }

    fn await_exit(&mut self, name: &str, expect: &str) -> Result<(), String> {
        let p = self
            .procs
            .get_mut(name)
            .ok_or_else(|| format!("unknown process {name:?}"))?;
        let deadline = Instant::now() + AWAIT_TIMEOUT;
        let status = loop {
            match p.child.try_wait().map_err(|e| e.to_string())? {
                Some(status) => break status,
                None if Instant::now() > deadline => {
                    return Err(format!("{name:?} did not exit in time"));
                }
                None => std::thread::sleep(Duration::from_millis(50)),
            }
        };
        self.procs.remove(name);
        match (expect, status.success()) {
            ("ok", true) | ("fail", false) => Ok(()),
            _ => Err(format!("{name:?} exited with {status}, expected {expect}")),
        }
    }

    fn await_generation(&self, n: u64) -> Result<(), String> {
        let gens = regcluster_store::Generations::open(&self.gens).map_err(|e| e.to_string())?;
        let deadline = Instant::now() + AWAIT_TIMEOUT;
        loop {
            if let Ok(Some(current)) = gens.current() {
                if current >= n {
                    return Ok(());
                }
            }
            if Instant::now() > deadline {
                return Err(format!("generation {n} was never published"));
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    /// Resolve `coord=<name>` (default: the most recently started
    /// coordinator) to its control-plane port.
    fn coord_port(&self, opts: &[&str]) -> Result<u16, String> {
        let coord = match Self::opt(opts, "coord") {
            Some(c) => c.to_string(),
            None => self
                .last_coordinator
                .clone()
                .ok_or("no coordinator started yet")?,
        };
        Ok(self
            .procs
            .get(&coord)
            .ok_or_else(|| format!("unknown coordinator {coord:?}"))?
            .port)
    }

    /// Scrape one label-free counter off a coordinator's `/metrics` page.
    fn metric_value(port: u16, metric: &str) -> Option<u64> {
        let (status, body) = get(port, "/metrics")?;
        if status != 200 {
            return None;
        }
        body.lines().find_map(|line| {
            line.strip_prefix(metric)
                .and_then(|rest| rest.trim().parse::<f64>().ok())
                .map(|v| v as u64)
        })
    }

    /// Graceful drain: POST /shutdown and leave the process running so the
    /// script can `await exit <name> ok` on it.
    fn stop(&mut self, name: &str) -> Result<(), String> {
        let port = self
            .procs
            .get(name)
            .ok_or_else(|| format!("unknown process {name:?}"))?
            .port;
        match post(port, "/shutdown") {
            Some((200, _)) => Ok(()),
            other => Err(format!("/shutdown failed: {other:?}")),
        }
    }

    fn await_metric(&self, metric: &str, n: u64, opts: &[&str]) -> Result<(), String> {
        let port = self.coord_port(opts)?;
        let deadline = Instant::now() + AWAIT_TIMEOUT;
        loop {
            if let Some(v) = Self::metric_value(port, metric) {
                if v >= n {
                    return Ok(());
                }
            }
            if Instant::now() > deadline {
                return Err(format!("{metric} never reached {n}"));
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    fn assert_metric(&self, metric: &str, op: &str, n: u64, opts: &[&str]) -> Result<(), String> {
        let port = self.coord_port(opts)?;
        let v = Self::metric_value(port, metric)
            .ok_or_else(|| format!("{metric} is not exported by the coordinator"))?;
        let pass = match op {
            "==" => v == n,
            ">=" => v >= n,
            other => return Err(format!("unknown comparison {other:?}")),
        };
        if pass {
            Ok(())
        } else {
            Err(format!("{metric} is {v}, expected {op} {n}"))
        }
    }

    fn await_done(&self, k: u64, opts: &[&str]) -> Result<(), String> {
        let port = self.coord_port(opts)?;
        let deadline = Instant::now() + AWAIT_TIMEOUT;
        loop {
            if let Some((200, body)) = get(port, "/status") {
                let done = body
                    .split("\"leases_done\":")
                    .nth(1)
                    .and_then(|r| r.split(|c: char| !c.is_ascii_digit()).next())
                    .and_then(|d| d.parse::<u64>().ok())
                    .ok_or_else(|| format!("unparsable /status: {body}"))?;
                if done >= k {
                    return Ok(());
                }
            }
            if Instant::now() > deadline {
                return Err(format!("coordinator never reached {k} done leases"));
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    fn await_swap(&self, name: &str, n: &str) -> Result<(), String> {
        let port = self
            .procs
            .get(name)
            .ok_or_else(|| format!("unknown replica {name:?}"))?
            .port;
        let needle = format!("\"generation\":{n}");
        let deadline = Instant::now() + AWAIT_TIMEOUT;
        loop {
            match get(port, "/stats") {
                Some((200, body)) if body.contains(&needle) => return Ok(()),
                Some((200, _)) => {}
                other => return Err(format!("replica /stats failed: {other:?}")),
            }
            if Instant::now() > deadline {
                return Err(format!("replica never swapped to generation {n}"));
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    fn load_start(&mut self, name: &str, opts: &[&str]) -> Result<(), String> {
        let port = self
            .procs
            .get(name)
            .ok_or_else(|| format!("unknown replica {name:?}"))?
            .port;
        let n: usize = Self::opt(opts, "clients")
            .unwrap_or("4")
            .parse()
            .map_err(|_| "bad clients")?;
        let stop = Arc::new(AtomicBool::new(false));
        let clients = (0..n)
            .map(|i| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut requests = 0usize;
                    while !stop.load(Ordering::Relaxed) {
                        let path = if (requests + i).is_multiple_of(2) {
                            "/health"
                        } else {
                            "/stats"
                        };
                        let (status, body) =
                            get(port, path).expect("replica dropped a connection under load");
                        assert_eq!(status, 200, "{path} failed mid-swap: {body}");
                        requests += 1;
                    }
                    requests
                })
            })
            .collect();
        self.loads
            .insert(name.to_string(), LoadGen { stop, clients });
        Ok(())
    }

    fn load_stop(&mut self, name: &str) -> Result<(), String> {
        let load = self
            .loads
            .remove(name)
            .ok_or_else(|| format!("no load running against {name:?}"))?;
        load.stop.store(true, Ordering::Relaxed);
        let mut total = 0;
        for c in load.clients {
            total += c
                .join()
                .map_err(|_| "a load client saw a failed request".to_string())?;
        }
        if total == 0 {
            return Err("load generator made no requests".into());
        }
        Ok(())
    }

    /// The golden assert: the published generation must be byte-identical
    /// to the single-node golden's same generation.
    fn golden(&self, n: u64) -> Result<(), String> {
        let fx = fixture();
        let name = format!("gen-{n}.rcs");
        let got = read(&self.gens.join(&name))?;
        let want = read(&fx.golden.join(&name))?;
        if got != want {
            return Err(format!(
                "{name} differs from the single-node golden ({} vs {} bytes)",
                got.len(),
                want.len()
            ));
        }
        Ok(())
    }
}

/// Anything still running when the scenario ends — at its last line or
/// at a failed step's panic — is torn down, so no process outlives the
/// test holding its port.
impl Drop for Harness {
    fn drop(&mut self) {
        for load in self.loads.values() {
            load.stop.store(true, Ordering::Relaxed);
        }
        for p in self.procs.values_mut() {
            let _ = p.child.kill();
        }
        for p in self.procs.values_mut() {
            let _ = p.child.wait();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn read(path: &Path) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))
}

#[test]
fn smoke_two_workers_match_single_node_golden() {
    Harness::new("smoke").run(include_str!("scenarios/smoke.txt"));
}

#[test]
fn worker_crash_reassigns_and_resumes() {
    Harness::new("worker-crash").run(include_str!("scenarios/worker_crash.txt"));
}

#[test]
fn coordinator_restart_recovers_staged_shards() {
    Harness::new("coord-restart").run(include_str!("scenarios/coordinator_restart.txt"));
}

#[test]
fn torn_shard_upload_never_corrupts_the_generation() {
    Harness::new("torn-upload").run(include_str!("scenarios/torn_upload.txt"));
}

#[test]
fn replica_hot_swaps_under_load_with_zero_failures() {
    Harness::new("replica-swap").run(include_str!("scenarios/replica_swap.txt"));
}

#[test]
fn coordinator_kill_mid_grant_replays_journal_without_fencing() {
    Harness::new("kill-journal").run(include_str!("scenarios/coordinator_kill_journal.txt"));
}

#[test]
fn renew_storm_survives_a_delayed_link() {
    Harness::new("renew-delay").run(include_str!("scenarios/renew_storm_delay.txt"));
}

#[test]
fn garbled_upload_response_is_retried_idempotently() {
    Harness::new("garbled-upload").run(include_str!("scenarios/garbled_upload_response.txt"));
}
