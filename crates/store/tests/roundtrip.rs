//! Lossless round-trip guarantees of the store: write → read reproduces the
//! golden cluster sets bit-identically, sequentially and streamed from the
//! engine at 1–8 threads, and every index agrees with a linear scan.

use std::path::PathBuf;

use regcluster_core::{mine, ClusterSink, MineRequest, Miner, MiningParams, RegCluster};
use regcluster_datagen::{generate, running_example, PatternKind, SyntheticConfig};
use regcluster_matrix::ExpressionMatrix;
use regcluster_store::{ClusterStore, Query, StoreWriter};
use serde::{Serialize as _, Value};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("regcluster-store-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn golden(name: &str) -> Vec<RegCluster> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name);
    serde_json::from_str(&std::fs::read_to_string(&path).expect("golden file readable"))
        .expect("golden file parses")
}

/// The same seeded 100×30 workload the golden-output tests mine.
fn synthetic_100x30() -> (ExpressionMatrix, MiningParams) {
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
    let matrix = generate(&cfg).expect("config is feasible").matrix;
    let params = MiningParams::new(4, 4, 0.1, 0.05).expect("valid");
    (matrix, params)
}

fn write_store(
    path: &PathBuf,
    m: &ExpressionMatrix,
    params: &MiningParams,
    clusters: &[RegCluster],
) {
    let w = StoreWriter::create(path, m.gene_names(), m.condition_names(), params).unwrap();
    for c in clusters {
        w.write_cluster(c).unwrap();
    }
    w.finish().unwrap();
}

fn read_all(store: &ClusterStore) -> Vec<RegCluster> {
    store.iter().collect::<Result<_, _>>().unwrap()
}

#[test]
fn running_example_roundtrips_bit_identically_to_golden() {
    let m = running_example();
    let params = MiningParams::new(3, 5, 0.15, 0.1).unwrap();
    let mined = mine(&m, &params).unwrap();
    let path = tmp("running.rcs");
    write_store(&path, &m, &params, &mined);

    let store = ClusterStore::open(&path).unwrap();
    let read = read_all(&store);
    assert_eq!(read, golden("running_example.json"));
    assert_eq!(read, mined);
    assert_eq!(store.params(), &params, "γ/ε provenance survives");
    assert_eq!(store.gene_names(), m.gene_names());
    assert_eq!(store.cond_names(), m.condition_names());
    assert_eq!(store.n_genes() as usize, m.n_genes());
    assert_eq!(store.n_conds() as usize, m.n_conditions());
}

#[test]
fn synthetic_roundtrips_bit_identically_to_golden() {
    let (m, params) = synthetic_100x30();
    let mined = mine(&m, &params).unwrap();
    let path = tmp("synthetic.rcs");
    write_store(&path, &m, &params, &mined);
    let store = ClusterStore::open(&path).unwrap();
    assert_eq!(read_all(&store), golden("synthetic_100x30.json"));
}

#[test]
fn engine_streamed_store_matches_vecsink_at_every_thread_count() {
    let (m, params) = synthetic_100x30();
    // The canonical collect-path result (== finalized VecSink output).
    let expected = mine(&m, &params).unwrap();
    let miner = Miner::new(&m, &params).unwrap();
    for threads in 1..=8usize {
        let path = tmp(&format!("stream-{threads}.rcs"));
        let writer =
            StoreWriter::create(&path, m.gene_names(), m.condition_names(), &params).unwrap();
        let (report, _) = MineRequest::new(&miner)
            .threads(threads)
            .run(&writer)
            .unwrap();
        assert!(!report.truncated && !report.stopped_by_sink);
        writer.finish().unwrap();

        let store = ClusterStore::open(&path).unwrap();
        assert_eq!(
            read_all(&store),
            expected,
            "store drifted from collect path (threads = {threads})"
        );
    }
}

#[test]
fn indexes_agree_with_linear_scan() {
    let (m, params) = synthetic_100x30();
    let mined = mine(&m, &params).unwrap();
    let path = tmp("indexes.rcs");
    write_store(&path, &m, &params, &mined);
    let store = ClusterStore::open(&path).unwrap();

    for g in 0..store.n_genes() {
        let from_index: Vec<u32> = store.clusters_with_gene(g).collect();
        let from_scan: Vec<u32> = mined
            .iter()
            .enumerate()
            .filter(|(_, c)| c.genes_iter().any(|x| x == g as usize))
            .map(|(i, _)| i as u32)
            .collect();
        assert_eq!(from_index, from_scan, "gene {g} postings");
    }
    for c in 0..store.n_conds() {
        let from_index: Vec<u32> = store.clusters_with_cond(c).collect();
        let from_scan: Vec<u32> = mined
            .iter()
            .enumerate()
            .filter(|(_, cl)| cl.chain.contains(&(c as usize)))
            .map(|(i, _)| i as u32)
            .collect();
        assert_eq!(from_index, from_scan, "cond {c} postings");
    }
    // Size table matches the records.
    for (i, c) in mined.iter().enumerate() {
        assert_eq!(
            store.cluster_dims(i as u32).unwrap(),
            (c.n_genes() as u32, c.n_conditions() as u32)
        );
    }
}

#[test]
fn queries_match_reference_filters() {
    let (m, params) = synthetic_100x30();
    let mined = mine(&m, &params).unwrap();
    let path = tmp("queries.rcs");
    write_store(&path, &m, &params, &mined);
    let store = ClusterStore::open(&path).unwrap();

    // Conjunctive gene+cond+size query vs. brute force.
    let probe = &mined[0];
    let g = probe.p_members[0] as u32;
    let c = probe.chain[0] as u32;
    let q = Query::new()
        .with_gene(g)
        .with_cond(c)
        .with_min_genes(params.min_genes as u32)
        .with_min_conds((params.min_conds + 1) as u32);
    let got = store.query(&q).unwrap();
    let want: Vec<u32> = mined
        .iter()
        .enumerate()
        .filter(|(_, cl)| {
            cl.genes_iter().any(|x| x == g as usize)
                && cl.chain.contains(&(c as usize))
                && cl.n_genes() >= params.min_genes
                && cl.n_conditions() > params.min_conds
        })
        .map(|(i, _)| i as u32)
        .collect();
    assert_eq!(got, want);

    // Top-k keeps the k largest by covered cells.
    let top = store.query(&Query::new().with_top_k(3)).unwrap();
    assert_eq!(top.len(), 3.min(mined.len()));
    let mut cells: Vec<u64> = mined.iter().map(|c| c.n_cells() as u64).collect();
    cells.sort_unstable_by(|a, b| b.cmp(a));
    for (rank, id) in top.iter().enumerate() {
        assert_eq!(mined[*id as usize].n_cells() as u64, cells[rank]);
    }

    // Overlap: shares ≥1 listed gene and ≥1 listed condition.
    let genes: Vec<u32> = probe.p_members.iter().map(|&x| x as u32).collect();
    let conds: Vec<u32> = probe.chain.iter().map(|&x| x as u32).collect();
    let got = store.overlapping(&genes, &conds);
    let want: Vec<u32> = mined
        .iter()
        .enumerate()
        .filter(|(_, cl)| {
            cl.genes_iter().any(|x| genes.contains(&(x as u32)))
                && cl.chain.iter().any(|&x| conds.contains(&(x as u32)))
        })
        .map(|(i, _)| i as u32)
        .collect();
    assert_eq!(got, want);

    // Containment: superclusters of a stored cluster include itself.
    let supers = store.superclusters_of(probe);
    assert!(supers.contains(&0));
    let want: Vec<u32> = mined
        .iter()
        .enumerate()
        .filter(|&(_, cl)| probe.is_subcluster_of(cl))
        .map(|(i, _)| i as u32)
        .collect();
    assert_eq!(supers, want);

    // Out-of-dictionary query ids are a typed error, not a panic.
    assert!(store.query(&Query::new().with_gene(u32::MAX)).is_err());
    assert!(store.query(&Query::new().with_cond(u32::MAX)).is_err());
}

#[test]
fn empty_store_roundtrips() {
    let m = running_example();
    let params = MiningParams::new(3, 5, 0.15, 0.1).unwrap();
    let path = tmp("empty.rcs");
    write_store(&path, &m, &params, &[]);
    let store = ClusterStore::open(&path).unwrap();
    assert_eq!(store.n_clusters(), 0);
    assert_eq!(read_all(&store), Vec::<RegCluster>::new());
    assert_eq!(store.query(&Query::new()).unwrap(), Vec::<u32>::new());
    assert!(matches!(
        store.cluster(0),
        Err(regcluster_store::StoreError::ClusterOutOfBounds { .. })
    ));
}

#[test]
fn writer_rejects_out_of_dictionary_ids_and_poisons() {
    let m = running_example();
    let params = MiningParams::new(3, 5, 0.15, 0.1).unwrap();
    let path = tmp("poison.rcs");
    let w = StoreWriter::create(&path, m.gene_names(), m.condition_names(), &params).unwrap();
    let bad = RegCluster {
        chain: vec![0, 99],
        p_members: vec![0],
        n_members: vec![],
    };
    // As a sink: refuses the cluster (cooperative engine stop)…
    assert!(!w.accept(bad));
    // …and keeps refusing afterwards, reporting the failure from finish.
    let ok = RegCluster {
        chain: vec![0, 1],
        p_members: vec![0],
        n_members: vec![],
    };
    assert!(!w.accept(ok));
    assert!(w.finish().is_err());
}

/// A tiny deterministic xorshift64 generator — enough randomness for a
/// property sweep without pulling in a proptest dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A random JSON value of bounded depth, covering every [`Value`] arm the
/// vendored serde implements, including strings that need escaping.
fn random_value(rng: &mut Rng, depth: u32) -> Value {
    let arm = if depth == 0 {
        rng.below(5)
    } else {
        rng.below(7)
    };
    match arm {
        0 => Value::Null,
        1 => Value::Bool(rng.below(2) == 0),
        2 => Value::Int(rng.next() as i64 as i128),
        3 => Value::Float(rng.below(1000) as f64 * 0.25),
        4 => {
            let tricky = [
                "plain",
                "quote \" inside",
                "back\\slash",
                "line\nbreak",
                "tab\there",
            ];
            Value::Str(format!(
                "{}-{}",
                tricky[rng.below(tricky.len() as u64) as usize],
                rng.below(100)
            ))
        }
        5 => Value::Array(
            (0..rng.below(4))
                .map(|_| random_value(rng, depth - 1))
                .collect(),
        ),
        _ => Value::Object(
            (0..rng.below(4))
                .map(|i| (format!("k{i}"), random_value(rng, depth - 1)))
                .collect(),
        ),
    }
}

#[test]
fn unknown_meta_keys_roundtrip_untouched_and_never_fail_open() {
    // The forward-compatibility property `create_with_meta_json`'s docs
    // promise: META keys this build does not understand are preserved
    // verbatim — value and key order — through a write → open →
    // re-render cycle, and never make a store fail to open.
    let m = running_example();
    let params = MiningParams::new(3, 5, 0.15, 0.1).unwrap();
    let cluster = RegCluster {
        chain: vec![0, 1],
        p_members: vec![0],
        n_members: vec![],
    };
    let Value::Object(params_pairs) = params.to_json_value() else {
        panic!("params serialize to an object");
    };

    let mut rng = Rng(0x5eed_cafe_d00d_0001);
    for case in 0..64 {
        // Unknown keys both before and after the known params keys, so
        // ordering is exercised on both sides.
        let mut pairs: Vec<(String, Value)> = Vec::new();
        for i in 0..rng.below(3) {
            pairs.push((format!("future_pre_{i}"), random_value(&mut rng, 2)));
        }
        pairs.extend(params_pairs.iter().cloned());
        for i in 0..1 + rng.below(3) {
            pairs.push((format!("future_post_{i}"), random_value(&mut rng, 2)));
        }
        let doc = Value::Object(pairs);
        let rendered = serde_json::to_string(&doc).unwrap();

        let path = tmp(&format!("future-meta-{case}.rcs"));
        let w = StoreWriter::create_with_meta_json(
            &path,
            m.gene_names(),
            m.condition_names(),
            &rendered,
        )
        .unwrap_or_else(|e| panic!("case {case}: doc {rendered} refused: {e}"));
        w.write_cluster(&cluster).unwrap();
        w.finish().unwrap();

        let store = ClusterStore::open(&path)
            .unwrap_or_else(|e| panic!("case {case}: store with unknown keys failed open: {e}"));
        let reread = serde_json::parse_value_str(&store.meta_json()).unwrap();
        assert_eq!(
            reread, doc,
            "case {case}: META drifted through the round trip"
        );
        assert_eq!(store.params(), &params);
        assert_eq!(read_all(&store), vec![cluster.clone()]);
    }
}

#[test]
fn v1_headers_are_migrated_in_memory_on_open() {
    // A version-1 store (before generation/fingerprint provenance) opens
    // under this build with the v1→v2 migration applied in memory: a
    // zero generation is injected, params and unknown keys survive, and
    // the file on disk is never rewritten. The header version field is
    // outside the section-table checksum, so a sealed v2 file patched to
    // claim v1 is a faithful stand-in for a store an old build wrote.
    let m = running_example();
    let params = MiningParams::new(3, 5, 0.15, 0.1).unwrap();
    let mined = mine(&m, &params).unwrap();
    let path = tmp("v1-migrate.rcs");
    let meta = format!(
        r#"{{"vintage_note":"pre-generation era",{}}}"#,
        serde_json::to_string(&params.to_json_value())
            .unwrap()
            .trim_start_matches('{')
            .trim_end_matches('}')
    );
    let w = StoreWriter::create_with_meta_json(&path, m.gene_names(), m.condition_names(), &meta)
        .unwrap();
    for c in &mined {
        w.write_cluster(c).unwrap();
    }
    w.finish().unwrap();

    let mut bytes = std::fs::read(&path).unwrap();
    assert_eq!(
        u32::from_le_bytes(bytes[8..12].try_into().unwrap()),
        regcluster_store::FORMAT_VERSION,
        "sealed header carries the current version"
    );
    bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();

    let store = ClusterStore::open(&path).expect("v1 store must still open");
    assert_eq!(store.generation(), 0, "migration injects generation 0");
    assert!(store.matrix_fingerprint().is_none());
    assert!(store.root_fingerprints().is_none());
    assert_eq!(store.params(), &params);
    assert_eq!(read_all(&store), mined);
    let reread = serde_json::parse_value_str(&store.meta_json()).unwrap();
    assert_eq!(
        reread.field("vintage_note"),
        Ok(&Value::Str("pre-generation era".into())),
        "unknown v1 keys survive the migration"
    );
    assert_eq!(reread.field("generation"), Ok(&Value::Int(0)));
    // The disk file is untouched: still claiming v1.
    let after = std::fs::read(&path).unwrap();
    assert_eq!(after, bytes, "open must never rewrite the store");

    // A version above this build is a typed refusal, not a panic.
    bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        ClusterStore::open(&path),
        Err(regcluster_store::StoreError::Version { found: 99, .. })
    ));
}

#[test]
fn engine_provenance_roundtrips_and_pre_engine_stores_read_as_none() {
    let m = running_example();
    let params = MiningParams::new(3, 5, 0.15, 0.1).unwrap();
    let cluster = RegCluster {
        chain: vec![0, 1],
        p_members: vec![0],
        n_members: vec![],
    };

    // A store written with engine provenance reports it back verbatim —
    // including an engine params string that itself needs JSON escaping.
    let engine_params = r#"{"delta":0.1,"note":"quote \" inside"}"#;
    let path = tmp("provenance.rcs");
    let w = StoreWriter::create_with_engine(
        &path,
        m.gene_names(),
        m.condition_names(),
        &params,
        "pcluster",
        engine_params,
    )
    .unwrap();
    w.write_cluster(&cluster).unwrap();
    w.finish().unwrap();
    let store = ClusterStore::open(&path).unwrap();
    assert_eq!(store.engine(), Some("pcluster"));
    assert_eq!(store.engine_params_json(), Some(engine_params));
    assert_eq!(store.params(), &params);
    assert_eq!(store.stats().engine.as_deref(), Some("pcluster"));

    // A store written through the pre-engine entry point reads back with no
    // engine recorded (the reg-cluster-only era).
    let legacy = tmp("provenance-legacy.rcs");
    let w = StoreWriter::create(&legacy, m.gene_names(), m.condition_names(), &params).unwrap();
    w.write_cluster(&cluster).unwrap();
    w.finish().unwrap();
    let store = ClusterStore::open(&legacy).unwrap();
    assert_eq!(store.engine(), None);
    assert_eq!(store.engine_params_json(), None);
    assert_eq!(store.params(), &params);
    assert_eq!(store.stats().engine, None);
}
