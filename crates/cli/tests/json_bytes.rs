//! The JSON the workspace emits, byte for byte.
//!
//! `Serialize` writes text straight into the output; the tree emitter it
//! replaced is kept as a test oracle in `vendor/serde_json/src/oracle.rs`.
//! These tests hold the writer to the oracle's bytes:
//!
//! * random `Value` trees, compact and pretty, with strings that need
//!   escaping, non-ASCII text and edge-case numbers;
//! * the derived workspace documents (`ClusterDoc`, `ClustersResponse`,
//!   `MiningParams`, `MineOutput`, cluster protocol messages) equal the
//!   oracle's rendering of their own parse;
//! * answers of a live server, and a `mine --output` document, equal
//!   fixtures in `tests/golden_json/` recorded with the tree emitter.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::Arc;

use proptest::prelude::*;
use regcluster_cli::commands::MineOutput;
use regcluster_cli::serve::{ClusterDoc, ClustersResponse, ServeConfig, Server};
use regcluster_cluster::{AcquireResponse, JobInfo};
use regcluster_core::{mine, MiningParams, MiningStats, RegCluster, RegulationThreshold};
use regcluster_datagen::{generate, PatternKind, SyntheticConfig};
use regcluster_store::{ClusterStore, StoreWriter};
use serde_json::Value;

#[path = "../../../vendor/serde_json/src/oracle.rs"]
mod oracle;

/// SplitMix64, for building random documents from one proptest seed.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A string of 0–5 pieces, each plain or needing care: quotes,
    /// backslashes, every control character class, U+2028 and non-ASCII.
    fn string(&mut self) -> String {
        const PIECES: [&str; 14] = [
            "plain", "\"", "\\", "\n", "\r", "\t", "\u{0}", "\u{8}", "\u{1f}", "\u{7f}",
            "\u{2028}", "é", "基因", "😀",
        ];
        (0..self.below(6))
            .map(|_| PIECES[self.below(PIECES.len())])
            .collect()
    }

    fn float(&mut self) -> f64 {
        const EDGES: [f64; 10] = [
            1.0,
            -0.0,
            0.0,
            1e300,
            5e-324,
            0.1,
            -2.5e-7,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        match self.below(3) {
            0 => EDGES[self.below(EDGES.len())],
            1 => f64::from_bits(self.next()),
            _ => self.below(100_000) as f64 / 64.0,
        }
    }

    fn int(&mut self) -> i128 {
        const EDGES: [i128; 6] = [
            0,
            -1,
            i64::MIN as i128,
            i64::MAX as i128,
            u64::MAX as i128,
            i128::MIN,
        ];
        match self.below(3) {
            0 => EDGES[self.below(EDGES.len())],
            1 => i128::from(self.next() as i64),
            _ => self.below(1000) as i128,
        }
    }

    fn value(&mut self, depth: u32) -> Value {
        match self.below(if depth == 0 { 5 } else { 7 }) {
            0 => Value::Null,
            1 => Value::Bool(self.below(2) == 0),
            2 => Value::Int(self.int()),
            3 => Value::Float(self.float()),
            4 => Value::Str(self.string()),
            5 => Value::Array((0..self.below(4)).map(|_| self.value(depth - 1)).collect()),
            _ => Value::Object(
                (0..self.below(4))
                    .map(|_| (self.string(), self.value(depth - 1)))
                    .collect(),
            ),
        }
    }

    fn ids(&mut self, max_len: usize) -> Vec<usize> {
        (0..self.below(max_len + 1))
            .map(|_| self.below(5000))
            .collect()
    }

    fn names(&mut self, n: usize) -> Vec<String> {
        (0..n).map(|_| self.string()).collect()
    }

    fn cluster_doc(&mut self) -> ClusterDoc {
        let chain = self.ids(8);
        let p_members = self.ids(8);
        let n_members = self.ids(4);
        ClusterDoc {
            id: self.next() as u32,
            n_genes: (p_members.len() + n_members.len()) as u32,
            n_conds: chain.len() as u32,
            chain_names: self.names(chain.len()),
            p_names: self.names(p_members.len()),
            n_names: self.names(n_members.len()),
            chain,
            p_members,
            n_members,
        }
    }

    fn params(&mut self) -> MiningParams {
        let gamma = match self.below(4) {
            0 => RegulationThreshold::FractionOfRange(self.float()),
            1 => RegulationThreshold::Absolute(self.float()),
            2 => RegulationThreshold::AvgClosestPairDiff(self.float()),
            _ => RegulationThreshold::FractionOfAvgExpression(self.float()),
        };
        MiningParams {
            min_genes: self.below(100),
            min_conds: self.below(100),
            gamma,
            epsilon: self.float(),
            max_clusters: (self.below(2) == 0).then(|| self.below(1000)),
            maximal_only: self.below(2) == 0,
        }
    }

    fn mine_output(&mut self) -> MineOutput {
        let stats = MiningStats {
            nodes: self.next() as usize,
            max_depth: self.below(40),
            emitted: self.below(1000),
            ..MiningStats::default()
        };
        MineOutput {
            format_version: (self.below(2) == 0).then_some(1),
            engine: (self.below(2) == 0).then(|| self.string()),
            params: self.params(),
            n_genes: self.below(10_000),
            n_conds: self.below(100),
            threads: (self.below(2) == 0).then(|| self.below(64)),
            elapsed_secs: (self.below(2) == 0).then(|| self.float()),
            ns_per_node: (self.below(2) == 0).then(|| self.float()),
            truncated: (self.below(2) == 0).then(|| self.below(2) == 0),
            stats: (self.below(2) == 0).then_some(stats),
            resumed_from: (self.below(2) == 0).then(|| self.string()),
            checkpoint_written: None,
            clusters: (0..self.below(4))
                .map(|_| RegCluster {
                    chain: self.ids(6),
                    p_members: self.ids(6),
                    n_members: self.ids(3),
                })
                .collect(),
        }
    }
}

/// `x`'s compact and pretty text both equal the oracle's rendering of
/// the parsed compact text.
fn assert_prints_as_oracle<T: serde::Serialize>(x: &T) -> Result<(), TestCaseError> {
    let compact = serde_json::to_string(x).unwrap();
    let tree = serde_json::from_str::<Value>(&compact).unwrap();
    prop_assert_eq!(&compact, &oracle::to_string(&tree, false));
    prop_assert_eq!(
        serde_json::to_string_pretty(x).unwrap(),
        oracle::to_string(&tree, true)
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn value_trees_print_as_the_oracle_prints_them(seed in any::<u64>()) {
        let v = Gen(seed).value(4);
        prop_assert_eq!(serde_json::to_string(&v).unwrap(), oracle::to_string(&v, false));
        prop_assert_eq!(serde_json::to_string_pretty(&v).unwrap(), oracle::to_string(&v, true));
    }

    #[test]
    fn derived_documents_print_as_the_oracle_prints_their_parse(seed in any::<u64>()) {
        let mut g = Gen(seed);
        assert_prints_as_oracle(&g.cluster_doc())?;
        let clusters: Vec<ClusterDoc> = (0..g.below(4)).map(|_| g.cluster_doc()).collect();
        assert_prints_as_oracle(&ClustersResponse {
            total: g.below(10_000),
            ids: g.ids(30).into_iter().map(|i| i as u32).collect(),
            clusters,
        })?;
        assert_prints_as_oracle(&g.params())?;
        assert_prints_as_oracle(&g.mine_output())?;
        assert_prints_as_oracle(&AcquireResponse {
            kind: g.string(),
            lease: g.next(),
            start: g.next(),
            end: g.next(),
            epoch: g.next(),
            ttl_ms: g.next(),
        })?;
        assert_prints_as_oracle(&JobInfo {
            params_json: serde_json::to_string(&g.params()).unwrap(),
            engine: g.string(),
            generation: g.next(),
            matrix_fingerprint: g.next(),
            n_roots: g.next(),
        })?;
    }
}

fn golden(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden_json")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The store of the seeded 100×30 workload `tests/golden` pins (303
/// clusters).
fn golden_store() -> ClusterStore {
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
    let dir = std::env::temp_dir().join(format!("regcluster-json-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("golden.rcs");
    let w = StoreWriter::create(&path, m.gene_names(), m.condition_names(), &params).unwrap();
    for c in &mine(&m, &params).unwrap() {
        w.write_cluster(c).unwrap();
    }
    w.finish().unwrap();
    ClusterStore::open(&path).unwrap()
}

/// The body of a `200` answer to `GET target`.
fn body(port: u16, target: &str) -> String {
    let mut stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
    write!(
        stream,
        "GET {target} HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let (head, body) = raw.split_once("\r\n\r\n").unwrap();
    assert!(head.starts_with("HTTP/1.1 200"), "GET {target}: {head}");
    body.to_string()
}

#[test]
fn served_bodies_equal_the_golden_fixtures() {
    let store = golden_store();
    assert_eq!(store.n_clusters(), 303);
    let server = Server::start(Arc::new(store), &ServeConfig::default()).unwrap();
    for (target, fixture) in [
        ("/clusters?gene=67&limit=20", "clusters_gene.json"),
        ("/clusters?cond=25&top=10", "clusters_cond_top.json"),
        ("/clusters/42", "cluster_by_id.json"),
    ] {
        assert_eq!(body(server.port(), target), golden(fixture), "GET {target}");
    }
    server.shutdown();
}

#[test]
fn mine_output_fixture_reprints_byte_identically() {
    let text = golden("mine_output.json");
    let doc: MineOutput = serde_json::from_str(&text).unwrap();
    assert!(doc.stats.is_some() && !doc.clusters.is_empty());
    assert_eq!(serde_json::to_string_pretty(&doc).unwrap(), text);
}

#[test]
fn mining_stats_json_omits_the_rule_2_and_depth_counts() {
    let mut stats = MiningStats::default();
    stats.count_node(2);
    stats.count_prune(regcluster_core::PruneRule::MinConds);
    let text = serde_json::to_string(&stats).unwrap();
    assert!(
        !text.contains("min_conds") && !text.contains("depth_nodes"),
        "{text}"
    );
    let back: MiningStats = serde_json::from_str(&text).unwrap();
    assert_eq!((back.nodes, back.max_depth), (1, 2));
    assert_eq!((back.pruned_min_conds, back.depth_nodes.len()), (0, 0));
}
