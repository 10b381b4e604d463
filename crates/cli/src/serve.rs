//! HTTP serving layer over a [`ClusterStore`].
//!
//! The routes, metrics, `--watch` swapper and `--requests` budget of
//! `regcluster serve`, run as a handler on the workspace's one HTTP
//! server, [`HttpServer`], on a fixed pool of [`ServeConfig::threads`]
//! workers; each connection carries one `GET` request and is closed
//! after the response (`Connection: close`).
//!
//! Endpoints (JSON unless noted):
//!
//! * `GET /health` — liveness + cluster count;
//! * `GET /stats` — store facts (dims, provenance params) and per-endpoint
//!   request counts / latencies;
//! * `GET /clusters?gene=..&cond=..&min_genes=..&min_conds=..&top=..&limit=..`
//!   — conjunctive query over the store indexes (names or numeric ids;
//!   comma-separate for multiple);
//! * `GET /clusters/{id}` — one cluster, fully resolved to names;
//! * `GET /metrics` — the server's [`MetricsRegistry`] in the Prometheus
//!   text exposition format (see `docs/OBSERVABILITY.md` for the
//!   catalogue).
//!
//! All request accounting flows through registry-backed instruments
//! ([`ServeMetrics`]): `/stats` derives its per-endpoint counters from the
//! same cells `/metrics` exports, so the two views can never disagree.
//!
//! # Shutdown
//!
//! [`Server::shutdown`] (the SIGINT-equivalent) stops accepting, lets the
//! workers **drain** every already-accepted connection, then joins all
//! threads — no worker leak, socket released. Spending the request budget
//! ([`ServeConfig::max_requests`]) wakes [`Server::wait`], which takes the
//! same path; that is how the smoke tests and `--requests` exercise
//! graceful shutdown end-to-end.
//!
//! # Load shedding
//!
//! When every worker is busy and the bounded queue
//! ([`ServeConfig::queue_capacity`]) is full, the server answers
//! `503 Service Unavailable` + `Retry-After: 1` at once and counts it on
//! [`HTTP_SHED_METRIC`] (see the server's docs and `docs/ROBUSTNESS.md`).
//! Requests it rejects before routing (malformed, oversized, timed out)
//! get a JSON error and are not counted as handled.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use regcluster_cluster::http::{HttpConfig, HttpServer, Request, Response};
use regcluster_obs::{Counter, Histogram, MetricsRegistry};
use regcluster_store::{ClusterStore, Generations, Query, StoreStats};
use serde::Serialize;

/// How a [`Server`] is launched.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Port to bind on 127.0.0.1 (0 = ephemeral, see [`Server::port`]).
    pub port: u16,
    /// Worker threads handling requests (≥ 1 enforced).
    pub threads: usize,
    /// Stop gracefully after this many requests (used by smoke tests and
    /// `--requests`); `None` serves until [`Server::shutdown`].
    pub max_requests: Option<u64>,
    /// Accepted connections waiting for a worker (≥ 1 enforced); beyond
    /// it the acceptor sheds with `503 + Retry-After` (see the module
    /// docs on load shedding).
    pub queue_capacity: usize,
    /// Socket read/write timeout per connection. A client that connects
    /// but never sends a request line is answered `408 Request Timeout`
    /// after this long instead of pinning a worker forever.
    pub io_timeout: Duration,
    /// Generations directory to watch (`serve --watch <dir>`): a thread
    /// polls its `CURRENT` pointer and hot-swaps the served store to each
    /// newly published generation. In-flight requests keep the [`Arc`]
    /// they started with and drain off the old generation; nothing is
    /// dropped or retried.
    pub watch: Option<PathBuf>,
    /// How often the watcher re-reads `CURRENT`.
    pub watch_poll: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            port: 0,
            threads: 4,
            max_requests: None,
            queue_capacity: 64,
            io_timeout: Duration::from_secs(5),
            watch: None,
            watch_poll: Duration::from_millis(100),
        }
    }
}

/// Routes with dedicated metrics slots (the `route` label values on the
/// HTTP metrics).
pub const ROUTES: [&str; 6] = [
    "/health",
    "/stats",
    "/clusters",
    "/clusters/{id}",
    "/metrics",
    "other",
];

/// Name of the per-route request counter.
pub const HTTP_REQUESTS_METRIC: &str = "regcluster_http_requests_total";
/// Name of the per-route handling-latency histogram.
pub const HTTP_DURATION_METRIC: &str = "regcluster_http_request_duration_seconds";
/// Name of the overload counter: connections answered `503 + Retry-After`
/// because the bounded accept queue was full.
pub const HTTP_SHED_METRIC: &str = "regcluster_http_requests_shed_total";
/// Name of the hot-swap counter, labelled by the generation swapped *to*
/// (`generation="N"`). The initial load at startup increments its
/// generation's cell too, so `/metrics` always names every generation
/// this process has served; the family's sum minus one is the number of
/// live swaps.
pub const STORE_SWAPS_METRIC: &str = "regcluster_store_swaps_total";
/// Name of the watcher-error counter: polls of a `--watch` generations
/// directory that found an unreadable `CURRENT` pointer or failed to open
/// the store it named. The server keeps serving its current generation
/// and retries next poll; a growing value means the directory is damaged
/// or mid-publish churn is outrunning the poll interval.
pub const STORE_WATCH_ERRORS_METRIC: &str = "regcluster_store_watch_errors_total";

/// Handling-latency bucket bounds: local-store queries are sub-millisecond,
/// the tail covers cold caches and large result pages.
const HTTP_LATENCY_BOUNDS: [f64; 9] = [0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0];

/// Per-endpoint request instruments, backed by a [`MetricsRegistry`].
///
/// One counter and one latency histogram per [`ROUTES`] entry, resolved at
/// registration; recording a request is a handful of relaxed atomic
/// writes on the worker thread.
pub struct ServeMetrics {
    requests: [Counter; ROUTES.len()],
    latency: [Histogram; ROUTES.len()],
    /// Connections shed with 503 because the accept queue was full. Not
    /// part of `requests` — a shed connection was never handled, so it
    /// does not count toward the `max_requests` budget.
    shed: Counter,
    /// `--watch` polls that could not read `CURRENT` or open the store it
    /// named (the server keeps serving and retries).
    watch_errors: Counter,
}

impl ServeMetrics {
    /// Registers the HTTP instruments in `registry`.
    pub fn register(registry: &MetricsRegistry) -> Self {
        let requests = ROUTES.map(|route| {
            registry.counter(
                HTTP_REQUESTS_METRIC,
                "HTTP requests handled, by route pattern.",
                &[("route", route)],
            )
        });
        let latency = ROUTES.map(|route| {
            registry.histogram(
                HTTP_DURATION_METRIC,
                "Request handling latency in seconds, by route pattern.",
                &[("route", route)],
                &HTTP_LATENCY_BOUNDS,
            )
        });
        let shed = registry.counter(
            HTTP_SHED_METRIC,
            "Connections answered 503 + Retry-After because the accept queue was full.",
            &[],
        );
        let watch_errors = registry.counter(
            STORE_WATCH_ERRORS_METRIC,
            "Watch polls that found an unreadable CURRENT pointer or an \
             unopenable store (the server keeps serving and retries).",
            &[],
        );
        Self {
            requests,
            latency,
            shed,
            watch_errors,
        }
    }

    /// Records one handled request and returns the new server-wide total.
    fn record(&self, route: usize, started: Instant) -> u64 {
        self.requests[route].inc();
        self.latency[route].observe(started.elapsed().as_secs_f64());
        self.total()
    }

    /// Requests handled across all routes. Monotone (counters only grow),
    /// which is all the request-budget check needs.
    fn total(&self) -> u64 {
        self.requests.iter().map(Counter::get).sum()
    }
}

/// One endpoint's counters in the `/stats` payload.
#[derive(Debug, Clone, Serialize)]
pub struct EndpointMetrics {
    /// Route pattern (e.g. `/clusters/{id}`).
    pub path: String,
    /// Requests handled.
    pub count: u64,
    /// Summed handling latency, microseconds.
    pub total_latency_us: u64,
    /// Mean handling latency, microseconds (0 when unused).
    pub mean_latency_us: u64,
}

/// The `/stats` response document.
#[derive(Debug, Clone, Serialize)]
pub struct StatsResponse {
    /// Store facts and provenance.
    pub store: StoreStats,
    /// Total requests handled since start.
    pub requests_total: u64,
    /// Per-endpoint counters.
    pub endpoints: Vec<EndpointMetrics>,
}

/// One cluster resolved against the store dictionaries (the
/// `/clusters/{id}` payload, also used by `regcluster query --json`).
#[derive(Debug, Clone, Serialize)]
pub struct ClusterDoc {
    /// Cluster id (canonical-order rank in the store).
    pub id: u32,
    /// Member-gene count.
    pub n_genes: u32,
    /// Chain length.
    pub n_conds: u32,
    /// Chain condition ids, regulation order.
    pub chain: Vec<usize>,
    /// Chain condition names, regulation order.
    pub chain_names: Vec<String>,
    /// Positively co-regulated member ids.
    pub p_members: Vec<usize>,
    /// Positively co-regulated member names.
    pub p_names: Vec<String>,
    /// Negatively co-regulated member ids.
    pub n_members: Vec<usize>,
    /// Negatively co-regulated member names.
    pub n_names: Vec<String>,
}

/// The `/clusters` list response.
#[derive(Debug, Clone, Serialize)]
pub struct ClustersResponse {
    /// Matches in the store (before `limit`).
    pub total: usize,
    /// Matching ids (all of them).
    pub ids: Vec<u32>,
    /// Materialized clusters, at most `limit` (default 50).
    pub clusters: Vec<ClusterDoc>,
}

/// What a finished server reports.
#[derive(Debug, Clone, Copy)]
pub struct ServeReport {
    /// Requests handled over the server's lifetime.
    pub requests: u64,
}

/// Builds the [`ClusterDoc`] for one stored cluster.
///
/// # Errors
///
/// Propagates [`regcluster_store::StoreError`] for out-of-bounds ids.
pub fn cluster_doc(
    store: &ClusterStore,
    id: u32,
) -> Result<ClusterDoc, regcluster_store::StoreError> {
    let c = store.cluster(id)?;
    let cond_name = |i: &usize| store.cond_names()[*i].clone();
    let gene_name = |i: &usize| store.gene_names()[*i].clone();
    Ok(ClusterDoc {
        id,
        n_genes: c.n_genes() as u32,
        n_conds: c.n_conditions() as u32,
        chain_names: c.chain.iter().map(cond_name).collect(),
        p_names: c.p_members.iter().map(gene_name).collect(),
        n_names: c.n_members.iter().map(gene_name).collect(),
        chain: c.chain,
        p_members: c.p_members,
        n_members: c.n_members,
    })
}

/// Resolves comma-separated gene specs (names, or numeric ids as written
/// by `mine --output`) against the store dictionary.
///
/// # Errors
///
/// A human-readable message naming the first unresolvable spec.
pub fn resolve_genes(store: &ClusterStore, specs: &str) -> Result<Vec<u32>, String> {
    resolve(specs, |s| store.gene_id(s), store.n_genes(), "gene")
}

/// Resolves comma-separated condition specs (names or numeric ids).
///
/// # Errors
///
/// A human-readable message naming the first unresolvable spec.
pub fn resolve_conds(store: &ClusterStore, specs: &str) -> Result<Vec<u32>, String> {
    resolve(specs, |s| store.cond_id(s), store.n_conds(), "condition")
}

fn resolve(
    specs: &str,
    lookup: impl Fn(&str) -> Option<u32>,
    bound: u32,
    what: &str,
) -> Result<Vec<u32>, String> {
    let mut out = Vec::new();
    for spec in specs.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        if let Some(id) = lookup(spec) {
            out.push(id);
        } else if let Ok(id) = spec.parse::<u32>() {
            if id >= bound {
                return Err(format!("{what} id {id} out of range (store has {bound})"));
            }
            out.push(id);
        } else {
            return Err(format!("unknown {what} {spec:?}"));
        }
    }
    Ok(out)
}

struct Shared {
    /// The served store, swappable while requests are in flight: each
    /// request clones the [`Arc`] once up front and works off that
    /// snapshot, so a hot swap never changes the store mid-request and
    /// the old generation is freed when its last reader finishes.
    store: RwLock<Arc<ClusterStore>>,
    /// The server's registry; `/metrics` encodes it, [`ServeMetrics`]
    /// holds pre-resolved handles into it.
    registry: MetricsRegistry,
    metrics: ServeMetrics,
    /// Stops the watcher.
    stop: AtomicBool,
    max_requests: Option<u64>,
    /// Set once `max_requests` requests have been handled; [`Server::wait`]
    /// waits on it.
    budget_spent: (Mutex<bool>, Condvar),
}

impl Shared {
    /// The store snapshot a request should serve from.
    fn store(&self) -> Arc<ClusterStore> {
        Arc::clone(
            &self
                .store
                .read()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        )
    }

    /// Publishes a freshly opened generation to future requests and
    /// stamps its swap-counter cell.
    fn swap_store(&self, store: Arc<ClusterStore>) {
        let generation = store.generation();
        *self
            .store
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = store;
        self.record_generation(generation);
    }

    /// Increments the [`STORE_SWAPS_METRIC`] cell of `generation`.
    fn record_generation(&self, generation: u64) {
        self.registry
            .counter(
                STORE_SWAPS_METRIC,
                "Store generations this server has swapped in (the initial \
                 load counts once), by generation number.",
                &[("generation", &generation.to_string())],
            )
            .inc();
    }
}

/// A running cluster-store server. See the module docs for endpoints and
/// the shutdown protocol.
pub struct Server {
    http: HttpServer,
    shared: Arc<Shared>,
    watcher: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `127.0.0.1:{config.port}` and starts the server's threads
    /// and the watcher. Returns once the socket is listening.
    ///
    /// # Errors
    ///
    /// Any bind failure, as [`std::io::Error`].
    pub fn start(store: Arc<ClusterStore>, config: &ServeConfig) -> std::io::Result<Server> {
        let registry = MetricsRegistry::new();
        let metrics = ServeMetrics::register(&registry);
        let shed_counter = metrics.shed.clone();
        let initial_generation = store.generation();
        let shared = Arc::new(Shared {
            store: RwLock::new(store),
            registry,
            metrics,
            stop: AtomicBool::new(false),
            max_requests: config.max_requests,
            budget_spent: (Mutex::new(false), Condvar::new()),
        });
        shared.record_generation(initial_generation);
        let http = HttpConfig {
            port: config.port,
            threads: config.threads,
            queue: config.queue_capacity,
            io_timeout: config.io_timeout,
            // Every route is a GET: bodies are refused, never buffered.
            max_body: 0,
            shed_counter: Some(shed_counter),
            response_site: "serve::http_response",
        };
        let http = {
            let shared = Arc::clone(&shared);
            HttpServer::start_with(http, move |req| handle(&shared, req))?
        };

        // --watch: poll the generations directory's CURRENT pointer and
        // hot-swap to each newly published generation. The watcher never
        // sweeps (that is the publisher's job — see the Generations docs)
        // and tolerates transient read errors: a torn observation just
        // means the next poll tries again.
        let watcher = config.watch.as_ref().map(|dir| {
            let shared = Arc::clone(&shared);
            let dir = dir.clone();
            let poll = config.watch_poll;
            std::thread::spawn(move || {
                let Ok(gens) = Generations::open(&dir) else {
                    return;
                };
                let mut serving = shared.store().generation();
                while !shared.stop.load(Ordering::SeqCst) {
                    std::thread::sleep(poll);
                    let current = match gens.current() {
                        Ok(Some(current)) => current,
                        // No published generation (yet) is not an error.
                        Ok(None) => continue,
                        Err(_) => {
                            shared.metrics.watch_errors.inc();
                            continue;
                        }
                    };
                    if current == serving {
                        continue;
                    }
                    // CURRENT only ever points at a completely sealed
                    // store, so a failed open is transient (e.g. the file
                    // vanished under a concurrent publish burst): keep
                    // serving the old generation and retry next poll.
                    match ClusterStore::open(gens.path_for(current)) {
                        Ok(cs) => {
                            shared.swap_store(Arc::new(cs));
                            serving = current;
                        }
                        Err(_) => {
                            shared.metrics.watch_errors.inc();
                            continue;
                        }
                    }
                }
            })
        });

        Ok(Server {
            http,
            shared,
            watcher,
        })
    }

    /// The bound port (resolves port 0 to the actual ephemeral port).
    pub fn port(&self) -> u16 {
        self.http.port()
    }

    /// Requests shutdown (the SIGINT-equivalent) and waits for the drain:
    /// already-accepted connections are still served, then all threads are
    /// joined and the socket is released.
    pub fn shutdown(self) -> ServeReport {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.http.shutdown();
        if let Some(w) = self.watcher {
            let _ = w.join();
        }
        ServeReport {
            requests: self.shared.metrics.total(),
        }
    }

    /// Blocks until the request budget is spent, then shuts down as
    /// [`shutdown`](Server::shutdown) does. An unbounded server never
    /// returns.
    pub fn wait(self) -> ServeReport {
        let (lock, cvar) = &self.shared.budget_spent;
        let mut spent = lock.lock().unwrap_or_else(PoisonError::into_inner);
        while !*spent {
            spent = cvar.wait(spent).unwrap_or_else(PoisonError::into_inner);
        }
        drop(spent);
        self.shutdown()
    }
}

/// Handles one request: routes it, records it, and spends the budget.
fn handle(shared: &Shared, req: &Request) -> Response {
    let started = Instant::now();
    let (route, response) = if req.method == "GET" {
        let (path, query) = req.path.split_once('?').unwrap_or((&req.path, ""));
        route_request(shared, path, query)
    } else {
        (OTHER_SLOT, Response::error(405, "only GET is supported"))
    };
    let total = shared.metrics.record(route, started);
    if shared.max_requests.is_some_and(|cap| total >= cap) {
        let (lock, cvar) = &shared.budget_spent;
        *lock.lock().unwrap_or_else(PoisonError::into_inner) = true;
        cvar.notify_all();
    }
    response
}

/// Metrics slot of unmatched paths / methods.
const OTHER_SLOT: usize = ROUTES.len() - 1;

/// Dispatches a `GET`, returning its metrics slot and response.
fn route_request(shared: &Shared, path: &str, query: &str) -> (usize, Response) {
    // One snapshot per request: a concurrent hot swap affects the *next*
    // request, never this one, and the old generation stays alive until
    // its last in-flight reader drops this Arc.
    let store = shared.store();
    let store = &store;
    match path {
        "/health" => {
            let body = format!("{{\"status\":\"ok\",\"clusters\":{}}}", store.n_clusters());
            (0, Response::json(200, body))
        }
        "/stats" => {
            let endpoints = ROUTES
                .iter()
                .enumerate()
                .map(|(i, path)| {
                    let count = shared.metrics.requests[i].get();
                    // The histogram accumulates seconds; /stats predates the
                    // registry and reports microseconds, so convert.
                    let total_latency_us = (shared.metrics.latency[i].sum() * 1e6) as u64;
                    EndpointMetrics {
                        path: (*path).to_string(),
                        count,
                        total_latency_us,
                        mean_latency_us: total_latency_us.checked_div(count).unwrap_or(0),
                    }
                })
                .collect();
            let doc = StatsResponse {
                store: store.stats(),
                requests_total: shared.metrics.total(),
                endpoints,
            };
            match serde_json::to_string(&doc) {
                Ok(body) => (1, Response::json(200, body)),
                Err(e) => (1, Response::error(500, &e.to_string())),
            }
        }
        "/clusters" => match clusters_query(store, query) {
            Ok(body) => (2, Response::json(200, body)),
            Err(msg) => (2, Response::error(400, &msg)),
        },
        "/metrics" => (4, Response::prometheus(shared.registry.encode_prometheus())),
        _ => {
            if let Some(rest) = path.strip_prefix("/clusters/") {
                match rest.parse::<u32>() {
                    Ok(id) if id < store.n_clusters() => {
                        match cluster_doc(store, id).map(|d| serde_json::to_string(&d)) {
                            Ok(Ok(body)) => (3, Response::json(200, body)),
                            Ok(Err(e)) => (3, Response::error(500, &e.to_string())),
                            Err(e) => (3, Response::error(500, &e.to_string())),
                        }
                    }
                    Ok(id) => (
                        3,
                        Response::error(
                            404,
                            &format!(
                                "cluster {id} not found (store holds {})",
                                store.n_clusters()
                            ),
                        ),
                    ),
                    Err(_) => (3, Response::error(400, "cluster id must be an integer")),
                }
            } else {
                (OTHER_SLOT, Response::error(404, "unknown path"))
            }
        }
    }
}

/// Executes `GET /clusters` query parameters against the store.
fn clusters_query(store: &ClusterStore, raw_query: &str) -> Result<String, String> {
    let mut q = Query::new();
    let mut limit = 50usize;
    for (key, value) in parse_query(raw_query)? {
        match key.as_str() {
            "gene" => q.genes.extend(resolve_genes(store, &value)?),
            "cond" => q.conds.extend(resolve_conds(store, &value)?),
            "min_genes" => {
                q.min_genes = value
                    .parse()
                    .map_err(|_| format!("min_genes must be an integer, got {value:?}"))?;
            }
            "min_conds" => {
                q.min_conds = value
                    .parse()
                    .map_err(|_| format!("min_conds must be an integer, got {value:?}"))?;
            }
            "top" => {
                q.top_k = Some(
                    value
                        .parse()
                        .map_err(|_| format!("top must be an integer, got {value:?}"))?,
                );
            }
            "limit" => {
                limit = value
                    .parse()
                    .map_err(|_| format!("limit must be an integer, got {value:?}"))?;
            }
            other => return Err(format!("unknown query parameter {other:?}")),
        }
    }
    let ids = store.query(&q).map_err(|e| e.to_string())?;
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
}

/// Splits and percent-decodes `k=v&k=v` query strings.
fn parse_query(raw: &str) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    for pair in raw.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        out.push((percent_decode(k)?, percent_decode(v)?));
    }
    Ok(out)
}

fn percent_decode(s: &str) -> Result<String, String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes
                    .get(i + 1..i + 3)
                    .and_then(|h| std::str::from_utf8(h).ok())
                    .and_then(|h| u8::from_str_radix(h, 16).ok())
                    .ok_or_else(|| format!("bad percent-escape in {s:?}"))?;
                out.push(hex);
                i += 3;
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).map_err(|_| format!("query value {s:?} is not UTF-8"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("a%20b+c").unwrap(), "a b c");
        assert_eq!(percent_decode("plain").unwrap(), "plain");
        assert!(percent_decode("bad%zz").is_err());
        assert!(percent_decode("trunc%2").is_err());
    }

    #[test]
    fn query_string_parsing() {
        let kv = parse_query("gene=g1%2Cg2&min_genes=3&flag").unwrap();
        assert_eq!(
            kv,
            vec![
                ("gene".into(), "g1,g2".into()),
                ("min_genes".into(), "3".into()),
                ("flag".into(), String::new()),
            ]
        );
    }
}
