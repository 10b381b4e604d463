//! Smoke tests of the HTTP serving layer: a real socket, ≥ 32 concurrent
//! clients, metrics via /stats and the Prometheus /metrics endpoint
//! (text-format well-formedness, monotone counters across scrapes), and
//! graceful shutdown (threads joined, port released).

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use regcluster_cli::serve::{ServeConfig, Server, STORE_SWAPS_METRIC, STORE_WATCH_ERRORS_METRIC};
use regcluster_core::{mine, MiningParams};
use regcluster_datagen::{generate, PatternKind, SyntheticConfig};
use regcluster_store::{ClusterStore, Generations, StoreProvenance, StoreWriter};

/// Mines a small synthetic workload and writes it to a store.
fn build_store(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("regcluster-serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let cfg = SyntheticConfig {
        n_genes: 100,
        n_conds: 30,
        n_clusters: 6,
        avg_cluster_dims: 6,
        cluster_gene_frac: 0.06,
        neg_fraction: 0.3,
        plant_gamma: 0.15,
        pattern: PatternKind::ShiftScale,
        value_max: 10.0,
        noise_sigma: 0.0,
        seed: 7,
    };
    let m = generate(&cfg).unwrap().matrix;
    let params = MiningParams::new(4, 4, 0.1, 0.05).unwrap();
    let clusters = mine(&m, &params).unwrap();
    assert!(!clusters.is_empty(), "workload must yield clusters");
    let w = StoreWriter::create(&path, m.gene_names(), m.condition_names(), &params).unwrap();
    for c in &clusters {
        w.write_cluster(c).unwrap();
    }
    w.finish().unwrap();
    path
}

/// Sends one `GET` in a single write and returns the raw response. A
/// server shedding the connection answers without reading the request, and
/// its close may reset the connection once the response is in; the bytes
/// that arrived before the reset are the response.
fn request(port: u16, path: &str) -> String {
    let mut stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
    let line = format!("GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n");
    stream.write_all(line.as_bytes()).unwrap();
    let mut raw = Vec::new();
    if let Err(e) = stream.read_to_end(&mut raw) {
        assert!(!raw.is_empty(), "no response to GET {path}: {e}");
    }
    String::from_utf8(raw).unwrap()
}

/// The status code of a raw response.
fn status_of(raw: &str) -> u16 {
    raw.split_whitespace()
        .nth(1)
        .unwrap_or_else(|| panic!("malformed response: {raw:?}"))
        .parse()
        .unwrap()
}

/// One blocking HTTP GET; returns (status, body).
fn get(port: u16, path: &str) -> (u16, String) {
    let raw = request(port, path);
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status_of(&raw), body)
}

/// Scrapes `/metrics`, checks status + content type, and asserts the body
/// is well-formed Prometheus text: every line is either a `# HELP` /
/// `# TYPE` comment or a `name{labels} value` sample with a parseable
/// value, and every family has its HELP/TYPE pair. Returns the samples.
fn scrape_metrics(port: u16) -> Vec<(String, f64)> {
    let raw = request(port, "/metrics");
    assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
    let (headers, body) = raw.split_once("\r\n\r\n").unwrap();
    assert!(
        headers.contains("Content-Type: text/plain; version=0.0.4"),
        "Prometheus text content type expected:\n{headers}"
    );

    let mut helped = Vec::new();
    let mut typed = Vec::new();
    let mut samples = Vec::new();
    for line in body.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            helped.push(rest.split_whitespace().next().unwrap().to_string());
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut words = rest.split_whitespace();
            let name = words.next().unwrap().to_string();
            let kind = words.next().unwrap();
            assert!(
                kind == "counter" || kind == "histogram",
                "unexpected TYPE in line: {line}"
            );
            typed.push(name);
        } else {
            assert!(!line.starts_with('#'), "unparseable comment: {line}");
            let (series, value) = line
                .rsplit_once(' ')
                .unwrap_or_else(|| panic!("sample line without value: {line}"));
            let value: f64 = value
                .parse()
                .unwrap_or_else(|_| panic!("unparseable value in: {line}"));
            samples.push((series.to_string(), value));
        }
    }
    assert_eq!(
        helped, typed,
        "every family needs a HELP/TYPE pair:\n{body}"
    );
    assert!(!samples.is_empty(), "scrape returned no samples:\n{body}");
    samples
}

#[test]
fn serves_32_concurrent_clients_and_shuts_down_gracefully() {
    let store_path = build_store("smoke.rcs");
    let store = Arc::new(ClusterStore::open(&store_path).unwrap());
    let n_clusters = store.n_clusters();
    let probe = store.cluster(0).unwrap();
    let gene = store.gene_names()[probe.p_members[0]].clone();

    let config = ServeConfig {
        port: 0,
        threads: 4,
        max_requests: None,
        ..ServeConfig::default()
    };
    let server = Server::start(store, &config).unwrap();
    let port = server.port();
    assert_ne!(port, 0, "port 0 resolves to the actual ephemeral port");

    // 32 concurrent clients, each issuing a mix of requests.
    let clients: Vec<_> = (0..32)
        .map(|i| {
            let gene = gene.clone();
            std::thread::spawn(move || {
                let (status, body) = get(port, "/health");
                assert_eq!(status, 200, "{body}");
                assert!(body.contains("\"ok\""), "{body}");

                let (status, body) = get(port, &format!("/clusters?gene={gene}"));
                assert_eq!(status, 200, "{body}");
                assert!(body.contains("\"total\""), "{body}");
                assert!(body.contains("\"p_names\""), "{body}");

                let id = i as u32 % n_clusters;
                let (status, body) = get(port, &format!("/clusters/{id}"));
                assert_eq!(status, 200, "{body}");
                assert!(body.contains(&format!("\"id\":{id}")), "{body}");

                // /metrics must stay scrapeable under the same load.
                let (status, body) = get(port, "/metrics");
                assert_eq!(status, 200, "{body}");
                assert!(
                    body.contains("# TYPE regcluster_http_requests_total counter"),
                    "{body}"
                );
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread panicked");
    }

    // Error paths: bad parameter, unknown id, unknown path, wrong method.
    let (status, body) = get(port, "/clusters?bogus=1");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("bogus"), "{body}");
    let (status, _) = get(port, &format!("/clusters/{n_clusters}"));
    assert_eq!(status, 404);
    let (status, _) = get(port, "/nope");
    assert_eq!(status, 404);
    {
        let mut stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
        write!(stream, "POST /health HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.1 405"), "{raw}");
    }

    // /metrics: well-formed Prometheus text, counters monotone across two
    // scrapes with traffic in between.
    let scrape1 = scrape_metrics(port);
    assert!(
        scrape1.iter().any(|(s, v)| s
            .starts_with("regcluster_http_requests_total{route=\"/health\"}")
            && *v >= 32.0),
        "32 clients hit /health: {scrape1:?}"
    );
    assert!(
        scrape1.iter().any(|(s, _)| s
            .starts_with("regcluster_http_request_duration_seconds_bucket")
            && s.contains("le=\"+Inf\"")),
        "histogram must expose a +Inf bucket: {scrape1:?}"
    );
    let (status, _) = get(port, "/health");
    assert_eq!(status, 200);
    let scrape2 = scrape_metrics(port);
    for (series, v1) in &scrape1 {
        let v2 = scrape2
            .iter()
            .find(|(s, _)| s == series)
            .unwrap_or_else(|| panic!("series {series} vanished between scrapes"))
            .1;
        assert!(v2 >= *v1, "counter went backwards: {series} {v1} -> {v2}");
    }
    let health_delta = |samples: &[(String, f64)]| {
        samples
            .iter()
            .find(|(s, _)| s.starts_with("regcluster_http_requests_total{route=\"/health\"}"))
            .unwrap()
            .1
    };
    assert!(
        health_delta(&scrape2) > health_delta(&scrape1),
        "the /health hit between scrapes must be visible"
    );

    // Metrics: /stats reflects the traffic above.
    let (status, body) = get(port, "/stats");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"requests_total\""), "{body}");
    assert!(body.contains("\"total_latency_us\""), "{body}");
    assert!(body.contains("\"n_clusters\""), "{body}");
    let total: u64 = body
        .split("\"requests_total\":")
        .nth(1)
        .and_then(|s| s.split(&[',', '}'][..]).next())
        .unwrap()
        .trim()
        .parse()
        .unwrap();
    assert!(
        total >= 32 * 3,
        "expected ≥ 96 recorded requests, got {total}"
    );

    // Graceful shutdown: all threads join and the socket is released.
    let report = server.shutdown();
    assert!(report.requests > total, "stats request counted too");
    let rebind = TcpListener::bind(("127.0.0.1", port));
    assert!(rebind.is_ok(), "port {port} still held after shutdown");
    assert!(
        TcpStream::connect(("127.0.0.1", port)).is_err() || rebind.is_ok(),
        "server socket must be gone"
    );
}

#[test]
fn request_budget_stops_the_server_on_its_own() {
    let store_path = build_store("budget.rcs");
    let store = Arc::new(ClusterStore::open(&store_path).unwrap());
    let config = ServeConfig {
        port: 0,
        threads: 2,
        max_requests: Some(5),
        ..ServeConfig::default()
    };
    let server = Server::start(store, &config).unwrap();
    let port = server.port();
    for _ in 0..5 {
        let (status, _) = get(port, "/health");
        assert_eq!(status, 200);
    }
    // The fifth request trips the budget; wait() returns without an
    // explicit shutdown call.
    let report = server.wait();
    assert!(report.requests >= 5, "{}", report.requests);
    assert!(TcpListener::bind(("127.0.0.1", port)).is_ok());
}

#[test]
fn overload_is_shed_with_503_and_recovers() {
    let store_path = build_store("shed.rcs");
    let store = Arc::new(ClusterStore::open(&store_path).unwrap());
    let config = ServeConfig {
        port: 0,
        threads: 1,
        queue_capacity: 1,
        ..ServeConfig::default()
    };
    let server = Server::start(store, &config).unwrap();
    let port = server.port();

    // Saturate: open connections that never send a request line. The
    // single worker absorbs one, the queue holds one, and everything
    // beyond that must be shed by the acceptor with an immediate 503.
    let mut stalls = Vec::new();
    let mut shed_seen = 0usize;
    for _ in 0..8 {
        let mut stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
        stream
            .set_read_timeout(Some(std::time::Duration::from_millis(500)))
            .unwrap();
        let mut raw = String::new();
        match stream.read_to_string(&mut raw) {
            Ok(_) if !raw.is_empty() => {
                // A response without a request means the acceptor shed us.
                assert!(raw.starts_with("HTTP/1.1 503"), "{raw}");
                assert!(raw.contains("Retry-After: 1"), "{raw}");
                shed_seen += 1;
            }
            // Absorbed (worker or queue): no bytes until we hang up.
            _ => stalls.push(stream),
        }
    }
    assert!(
        shed_seen >= 1,
        "flooding past the capacity-2 pipeline must shed"
    );
    assert!(stalls.len() <= 2, "only worker + queue slot can absorb");

    // Recovery: release the stalled connections; the worker drains them
    // (EOF, nothing counted) and normal service resumes. While it is still
    // draining, the next request may itself be shed with a correct 503; a
    // client honours its Retry-After, a bounded number of times.
    drop(stalls);
    let mut retries = 0;
    let raw = loop {
        let raw = request(port, "/health");
        if status_of(&raw) != 503 || retries == 5 {
            break raw;
        }
        assert!(raw.contains("Retry-After: 1"), "{raw}");
        shed_seen += 1;
        retries += 1;
        std::thread::sleep(std::time::Duration::from_secs(1));
    };
    assert_eq!(status_of(&raw), 200, "{raw}");

    // The shed counter on /metrics saw every 503, and shed connections
    // were never counted as handled requests.
    let samples = scrape_metrics(port);
    let shed_metric = samples
        .iter()
        .find(|(s, _)| s.starts_with("regcluster_http_requests_shed_total"))
        .map(|(_, v)| *v)
        .expect("shed counter must be exported");
    assert!(
        shed_metric >= shed_seen as f64,
        "metrics report {shed_metric} sheds, client saw {shed_seen}"
    );
    let report = server.shutdown();
    assert!(
        report.requests >= 2 && report.requests < 8,
        "shed connections must not count as handled requests: {}",
        report.requests
    );
}

#[test]
fn watcher_hot_swaps_generations_under_concurrent_load() {
    // A generations lineage with two distinguishable generations: 0 holds
    // the full mined set, 1 only its first cluster.
    let dir = std::env::temp_dir().join(format!("regcluster-serve-gens-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let gens = Generations::open(&dir).unwrap();

    let cfg = SyntheticConfig {
        n_genes: 100,
        n_conds: 30,
        n_clusters: 6,
        avg_cluster_dims: 6,
        cluster_gene_frac: 0.06,
        neg_fraction: 0.3,
        plant_gamma: 0.15,
        pattern: PatternKind::ShiftScale,
        value_max: 10.0,
        noise_sigma: 0.0,
        seed: 7,
    };
    let m = generate(&cfg).unwrap().matrix;
    let params = MiningParams::new(4, 4, 0.1, 0.05).unwrap();
    let clusters = mine(&m, &params).unwrap();
    assert!(
        clusters.len() > 1,
        "need ≥ 2 clusters to tell the gens apart"
    );
    let write_gen = |generation: u64, set: &[regcluster_core::RegCluster]| {
        let provenance = StoreProvenance {
            generation,
            ..StoreProvenance::default()
        };
        let w = StoreWriter::create_with_provenance(
            gens.path_for(generation),
            m.gene_names(),
            m.condition_names(),
            &params,
            &provenance,
        )
        .unwrap();
        for c in set {
            w.write_cluster(c).unwrap();
        }
        w.finish().unwrap();
    };
    write_gen(0, &clusters);
    gens.publish(0).unwrap();

    let store = Arc::new(ClusterStore::open(gens.path_for(0)).unwrap());
    let config = ServeConfig {
        port: 0,
        threads: 4,
        watch: Some(dir.clone()),
        watch_poll: std::time::Duration::from_millis(20),
        ..ServeConfig::default()
    };
    let server = Server::start(store, &config).unwrap();
    let port = server.port();

    // 32 clients hammer the server for the whole publish + swap window.
    // Every single request must succeed — the swap may never be visible
    // as an error, only as a changed generation.
    let stop = Arc::new(AtomicBool::new(false));
    let clients: Vec<_> = (0..32)
        .map(|i| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut requests = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let path = match (requests + i) % 3 {
                        0 => "/health",
                        1 => "/clusters/0",
                        _ => "/stats",
                    };
                    let (status, body) = get(port, path);
                    assert_eq!(status, 200, "{path} failed mid-swap: {body}");
                    requests += 1;
                }
                requests
            })
        })
        .collect();

    // Publish generation 1 while the load is running, then wait for the
    // watcher to pick it up (poll interval 20ms; allow a generous 5s).
    std::thread::sleep(std::time::Duration::from_millis(50));
    write_gen(1, &clusters[..1]);
    gens.publish(1).unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        let (status, body) = get(port, "/stats");
        assert_eq!(status, 200, "{body}");
        if body.contains("\"generation\":1") {
            assert!(body.contains("\"n_clusters\":1"), "{body}");
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "watcher never swapped to generation 1: {body}"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }

    stop.store(true, Ordering::Relaxed);
    let mut total = 0usize;
    for c in clients {
        total += c.join().expect("a client saw a failed request");
    }
    assert!(total >= 32, "every client got at least one response in");

    // The swap counter carries per-generation labels: one cell for the
    // initial load of generation 0, one for the swap to generation 1.
    let samples = scrape_metrics(port);
    for generation in 0..=1 {
        let series = format!("{STORE_SWAPS_METRIC}{{generation=\"{generation}\"}}");
        let v = samples
            .iter()
            .find(|(s, _)| *s == series)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("missing {series} in {samples:?}"));
        assert_eq!(v, 1.0, "{series}");
    }

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn watcher_counts_unreadable_current_and_recovers() {
    // One published generation, then CURRENT is corrupted in place: the
    // watcher must keep serving, count every failed observation on
    // regcluster_store_watch_errors_total, and swap normally once the
    // pointer is healthy again.
    let dir =
        std::env::temp_dir().join(format!("regcluster-serve-watcherr-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let gens = Generations::open(&dir).unwrap();

    let cfg = SyntheticConfig {
        n_genes: 100,
        n_conds: 30,
        n_clusters: 6,
        avg_cluster_dims: 6,
        cluster_gene_frac: 0.06,
        neg_fraction: 0.3,
        plant_gamma: 0.15,
        pattern: PatternKind::ShiftScale,
        value_max: 10.0,
        noise_sigma: 0.0,
        seed: 7,
    };
    let m = generate(&cfg).unwrap().matrix;
    let params = MiningParams::new(4, 4, 0.1, 0.05).unwrap();
    let clusters = mine(&m, &params).unwrap();
    assert!(clusters.len() > 1, "need ≥ 2 clusters");
    let write_gen = |generation: u64, set: &[regcluster_core::RegCluster]| {
        let provenance = StoreProvenance {
            generation,
            ..StoreProvenance::default()
        };
        let w = StoreWriter::create_with_provenance(
            gens.path_for(generation),
            m.gene_names(),
            m.condition_names(),
            &params,
            &provenance,
        )
        .unwrap();
        for c in set {
            w.write_cluster(c).unwrap();
        }
        w.finish().unwrap();
    };
    write_gen(0, &clusters);
    gens.publish(0).unwrap();

    let store = Arc::new(ClusterStore::open(gens.path_for(0)).unwrap());
    let config = ServeConfig {
        port: 0,
        threads: 2,
        watch: Some(dir.clone()),
        watch_poll: std::time::Duration::from_millis(10),
        ..ServeConfig::default()
    };
    let server = Server::start(store, &config).unwrap();
    let port = server.port();

    let watch_errors = |samples: &[(String, f64)]| {
        samples
            .iter()
            .find(|(s, _)| s.starts_with(STORE_WATCH_ERRORS_METRIC))
            .map(|(_, v)| *v)
            .unwrap_or(0.0)
    };
    assert_eq!(watch_errors(&scrape_metrics(port)), 0.0, "clean start");

    // Corrupt the pointer: not a number, so Generations::current errors.
    std::fs::write(dir.join("CURRENT"), b"not-a-generation\n").unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        let (status, _) = get(port, "/health");
        assert_eq!(status, 200, "server must keep serving through the damage");
        if watch_errors(&scrape_metrics(port)) > 0.0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "watch errors were never counted"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    // Heal the pointer by publishing generation 1: the watcher recovers
    // and swaps as if nothing happened.
    write_gen(1, &clusters[..1]);
    gens.publish(1).unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        let (status, body) = get(port, "/stats");
        assert_eq!(status, 200, "{body}");
        if body.contains("\"generation\":1") {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "watcher never recovered after CURRENT was healed: {body}"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn silent_client_gets_408_not_a_reset() {
    let store_path = build_store("timeout.rcs");
    let store = Arc::new(ClusterStore::open(&store_path).unwrap());
    let config = ServeConfig {
        port: 0,
        threads: 2,
        io_timeout: std::time::Duration::from_millis(200),
        ..ServeConfig::default()
    };
    let server = Server::start(store, &config).unwrap();
    let port = server.port();

    // Connect and say nothing: the read timeout must produce a clean 408,
    // not a dropped connection.
    let mut stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 408"), "{raw}");

    // The server is still healthy afterwards.
    let (status, body) = get(port, "/health");
    assert_eq!(status, 200, "{body}");
    server.shutdown();
}
