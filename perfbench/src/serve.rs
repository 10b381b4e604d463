//! The serving path: a closed loop of HTTP clients against
//! `regcluster_cli::serve::Server`, every answer checked against the
//! in-process one.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use regcluster_cli::serve::{
    cluster_doc, resolve_conds, resolve_genes, ClusterDoc, ClustersResponse, ServeConfig, Server,
};
use regcluster_store::{ClusterStore, Query};

use crate::inputs::Spec;
use crate::mine::Input;
use crate::stats::Tally;
use crate::trace::{Scope, Tracer};
use crate::Workload;

/// Server worker threads and concurrent clients: the host's two cores.
pub const CLIENTS: usize = 2;
/// Distinct requests in a mix; clients cycle through it.
pub const MIX_LEN: usize = 4096;

/// The three request kinds, one third of the mix each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `/clusters?gene=G&limit=20`
    Gene,
    /// `/clusters?cond=C&top=10`
    CondTop,
    /// `/clusters/{id}`
    ById,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Gene, Kind::CondTop, Kind::ById];
}

/// One request of the mix and the body a correct server answers with.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub kind: Kind,
    pub target: String,
    pub expected: String,
}

/// SplitMix64: a small, fixed generator so a seed names the same mix on
/// every platform and build.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `len` requests with kinds and keys drawn from `seed`, each with the
/// answer computed in-process from `store`.
pub fn request_mix(store: &ClusterStore, seed: u64, len: usize) -> Result<Vec<Request>, String> {
    let mut state = seed ^ 0x5EED_5EED_5EED_5EED;
    (0..len)
        .map(|_| {
            let kind = Kind::ALL[(splitmix(&mut state) % 3) as usize];
            let key = splitmix(&mut state);
            let target = match kind {
                Kind::Gene => format!("/clusters?gene={}&limit=20", key % store.n_genes() as u64),
                Kind::CondTop => format!("/clusters?cond={}&top=10", key % store.n_conds() as u64),
                Kind::ById => format!("/clusters/{}", key % store.n_clusters().max(1) as u64),
            };
            let expected = answer(store, kind, &target)?;
            Ok(Request {
                kind,
                target,
                expected,
            })
        })
        .collect()
}

/// The body the server should send for `target`, built through the
/// store's query API and `serve::cluster_doc` with no socket involved.
pub fn answer(store: &ClusterStore, kind: Kind, target: &str) -> Result<String, String> {
    let value = |key: &str| {
        target
            .split(['?', '&'])
            .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
            .ok_or_else(|| format!("{target} has no {key}"))
    };
    let page = |q: &Query, limit: usize| -> Result<String, String> {
        let ids = store.query(q).map_err(|e| e.to_string())?;
        let clusters: Vec<ClusterDoc> = ids
            .iter()
            .take(limit)
            .map(|&id| cluster_doc(store, id))
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        let doc = ClustersResponse {
            total: ids.len(),
            ids,
            clusters,
        };
        serde_json::to_string(&doc).map_err(|e| e.to_string())
    };
    match kind {
        Kind::Gene => {
            let mut q = Query::new();
            q.genes = resolve_genes(store, value("gene")?)?;
            page(&q, 20)
        }
        Kind::CondTop => {
            let mut q = Query::new();
            q.conds = resolve_conds(store, value("cond")?)?;
            q.top_k = Some(10);
            page(&q, 50)
        }
        Kind::ById => {
            let id = target
                .rsplit('/')
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| format!("{target} names no cluster id"))?;
            let doc = cluster_doc(store, id).map_err(|e| e.to_string())?;
            serde_json::to_string(&doc).map_err(|e| e.to_string())
        }
    }
}

/// One `GET` over a fresh connection; the raw response bytes.
fn exchange(port: u16, target: &str, scope: Scope<'_>) -> Result<Vec<u8>, String> {
    let mut stream = scope
        .time("serve.connect", || TcpStream::connect(("127.0.0.1", port)))
        .map_err(|e| format!("connect: {e}"))?;
    scope.time("serve.exchange", || {
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .map_err(|e| format!("timeout: {e}"))?;
        stream
            .write_all(format!("GET {target} HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut raw = Vec::new();
        stream
            .read_to_end(&mut raw)
            .map_err(|e| format!("receive: {e}"))?;
        Ok(raw)
    })
}

/// Whether `raw` is a `200` whose body is exactly `expected`.
pub fn check(raw: &[u8], expected: &str) -> Result<(), String> {
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("response has no header end")?;
    let status_line = raw[..split].split(|&b| b == b'\r').next().unwrap_or(&[]);
    let status = std::str::from_utf8(status_line)
        .ok()
        .and_then(|l| l.split_whitespace().nth(1))
        .unwrap_or("?");
    if status != "200" {
        return Err(format!("HTTP {status}"));
    }
    if &raw[split + 4..] != expected.as_bytes() {
        return Err("body differs from the in-process answer".into());
    }
    Ok(())
}

/// Latencies and outcomes of a closed-loop run.
#[derive(Debug, Default)]
pub struct Load {
    pub tally: Tally,
    /// Successful-request latencies by [`Kind`], milliseconds.
    pub by_kind: [Vec<f64>; 3],
    /// Wall time from the first request to the last answer.
    pub wall_s: f64,
}

/// Runs [`CLIENTS`] clients, each sending its next request only after
/// the previous answer, until `until` has passed and every client has
/// sent at least `min_each` requests. Client `c` takes requests
/// `c, c + CLIENTS, ...` of `mix`, wrapping around.
pub fn closed_loop(
    port: u16,
    mix: &[Request],
    until: Instant,
    min_each: usize,
    tracer: Option<&Tracer>,
) -> Load {
    let started = Instant::now();
    let parts: Vec<Load> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                s.spawn(move || {
                    let mut load = Load::default();
                    let mut i = c;
                    let mut sent = 0;
                    while sent < min_each || Instant::now() < until {
                        let req = &mix[i % mix.len()];
                        let (ms, outcome) = request(port, req, tracer);
                        if outcome.is_ok() {
                            load.by_kind[req.kind as usize].push(ms);
                        }
                        load.tally.record(ms, outcome);
                        i += CLIENTS;
                        sent += 1;
                    }
                    load
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut load = Load {
        wall_s: started.elapsed().as_secs_f64(),
        ..Load::default()
    };
    for part in parts {
        load.tally.merge(part.tally);
        for (all, mine) in load.by_kind.iter_mut().zip(part.by_kind) {
            all.extend(mine);
        }
    }
    load
}

/// One timed request and its checked outcome.
fn request(port: u16, req: &Request, tracer: Option<&Tracer>) -> (f64, Result<(), String>) {
    let started = Instant::now();
    let (raw, ms) = match tracer {
        None => {
            let raw = exchange(port, &req.target, Scope::OFF);
            (raw, started.elapsed().as_secs_f64() * 1e3)
        }
        Some(tracer) => {
            let root = tracer.root("serve.request");
            let raw = exchange(port, &req.target, root.scope());
            (raw, root.finish())
        }
    };
    (ms, raw.and_then(|raw| check(&raw, &req.expected)))
}

/// A running server on a store, and the request mix it is sent.
pub struct Fixture {
    pub store: Arc<ClusterStore>,
    pub mix: Vec<Request>,
    server: Option<Server>,
    pub port: u16,
}

impl Fixture {
    /// Mines the serving workload's store, opens it and starts serving.
    pub fn setup(seed: u64, dir: &Path) -> Result<(Input, Fixture), String> {
        let input = Input::setup(Spec::for_workload(Workload::ServeMixed, seed), dir)?;
        let store =
            ClusterStore::open(&input.reference_path).map_err(|e| format!("open store: {e}"))?;
        let fixture = Fixture::start(Arc::new(store), seed)?;
        Ok((input, fixture))
    }

    /// Builds the request mix of `seed` with its answers and starts a
    /// server on `store`.
    pub fn start(store: Arc<ClusterStore>, seed: u64) -> Result<Fixture, String> {
        let mix = request_mix(&store, seed, MIX_LEN)?;
        let config = ServeConfig {
            threads: CLIENTS,
            ..ServeConfig::default()
        };
        let server =
            Server::start(Arc::clone(&store), &config).map_err(|e| format!("serve: {e}"))?;
        Ok(Fixture {
            store,
            mix,
            port: server.port(),
            server: Some(server),
        })
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn small_store(seed: u64) -> (std::path::PathBuf, Input, ClusterStore) {
        let dir =
            std::env::temp_dir().join(format!("perfbench-serve-{seed}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut spec = Spec::for_workload(Workload::ServeMixed, seed);
        spec.data.n_genes = 200;
        let input = Input::setup(spec, &dir).unwrap();
        let store = ClusterStore::open(&input.reference_path).unwrap();
        (dir, input, store)
    }

    #[test]
    fn the_same_seed_draws_the_same_mix() {
        let (dir, _input, store) = small_store(3);
        let a = request_mix(&store, 11, 300).unwrap();
        assert_eq!(a, request_mix(&store, 11, 300).unwrap());
        assert_ne!(a, request_mix(&store, 12, 300).unwrap());
        for kind in Kind::ALL {
            let n = a.iter().filter(|r| r.kind == kind).count();
            assert!((70..=130).contains(&n), "{kind:?}: {n} of 300");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn answers_match_the_server_and_a_503_counts_as_failed() {
        let (dir, _input, store) = small_store(4);
        let fixture = Fixture::start(Arc::new(store), 4).unwrap();
        let load = closed_loop(fixture.port, &fixture.mix, Instant::now(), 50, None);
        assert_eq!((load.tally.attempted, load.tally.failed), (100, 0));

        // A server that sheds every connection: each request fails.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        let shed = std::thread::spawn(move || {
            for stream in listener.incoming().take(2 * CLIENTS) {
                let mut stream = stream.unwrap();
                let mut line = [0u8; 256];
                let _ = stream.read(&mut line);
                let _ = stream.write_all(
                    b"HTTP/1.1 503 Service Unavailable\r\nRetry-After: 1\r\nContent-Length: 0\r\n\r\n",
                );
            }
        });
        let load = closed_loop(port, &fixture.mix, Instant::now(), 2, None);
        shed.join().unwrap();
        assert_eq!((load.tally.attempted, load.tally.failed), (4, 4));
        assert_eq!(load.tally.failed_share(), 1.0);
        drop(fixture);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
