//! The non-timing `regcluster_mine_*` instruments of `mine --metrics-json`,
//! pinned to a fixture.
//!
//! The node, prune and depth instruments are filled once, from the run's
//! merged `MiningStats`, when enumeration returns; the emitted counter
//! counts each emission as it happens. On the seeded 100 × 30 golden
//! workload their values must equal `golden_json/mine_metrics.json`, which
//! was recorded from a build that counted every node and prune event into
//! the registry as it happened. The `--stats` line must agree with the
//! snapshot's counters.

use std::path::{Path, PathBuf};
use std::process::Command;

use regcluster_datagen::{generate, PatternKind, SyntheticConfig};
use serde_json::Value;

/// The instruments the fixture pins; the emission-latency histogram and
/// the phase timings vary run to run.
const PINNED: [&str; 4] = [
    "regcluster_mine_nodes_total",
    "regcluster_mine_clusters_emitted_total",
    "regcluster_mine_pruned_subtrees_total",
    "regcluster_mine_node_depth",
];

/// Arguments of every pinned run.
const COMMON: [&str; 5] = ["--min-genes", "4", "--epsilon", "0.05", "--stats"];

/// The golden-output suite's other parameters, for runs that set none.
const GOLDEN: [&str; 4] = ["--min-conds", "4", "--gamma", "0.1"];

/// Each pinned run: its fixture key and its own `mine` arguments. At MinC
/// 7 and γ 0.15, rule 2 (`min_conds`) fires.
const RUNS: [(&str, &[&str]); 5] = [
    ("reg-cluster --threads 1", &["--threads", "1"]),
    ("reg-cluster --threads 2", &["--threads", "2"]),
    (
        "reg-cluster --min-conds 7 --gamma 0.15",
        &["--min-conds", "7", "--gamma", "0.15", "--threads", "2"],
    ),
    ("boolean", &["--engine", "boolean"]),
    ("pcluster", &["--engine", "pcluster"]),
];

fn tmpdir() -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("regcluster-metric-snapshot-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes the golden-output suite's seeded 100 × 30 workload as TSV.
fn write_input(dir: &Path) -> PathBuf {
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
    let path = dir.join("synthetic_100x30.tsv");
    let m = generate(&cfg).expect("config is feasible").matrix;
    regcluster_matrix::io::write_matrix_file(&m, &path).unwrap();
    path
}

/// Runs `mine` with `extra` arguments; returns the pinned families of its
/// metrics snapshot and its `--stats` line.
fn mine_snapshot(input: &Path, dir: &Path, key: &str, extra: &[&str]) -> (Value, String) {
    let json = dir.join(format!("{}.json", key.replace(' ', "_")));
    let params = if extra.contains(&"--gamma") {
        &[][..]
    } else {
        &GOLDEN[..]
    };
    let out = Command::new(env!("CARGO_BIN_EXE_regcluster"))
        .args(["mine", "--input"])
        .arg(input)
        .args(COMMON)
        .args(params)
        .args(extra)
        .arg("--metrics-json")
        .arg(&json)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{key}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc: Value = serde_json::from_str(&std::fs::read_to_string(&json).unwrap()).unwrap();
    let Value::Array(families) = field(&doc, "metrics") else {
        panic!("{key}: metrics snapshot has no `metrics` array");
    };
    let pinned: Vec<Value> = families
        .iter()
        .filter(|f| matches!(field(f, "name"), Value::Str(n) if PINNED.contains(&n.as_str())))
        .cloned()
        .collect();
    let stdout = String::from_utf8(out.stdout).unwrap();
    let stats = stdout.lines().nth(1).unwrap_or_default().to_string();
    (Value::Array(pinned), stats)
}

/// Field `key` of a JSON object (`null` when absent).
fn field<'v>(v: &'v Value, key: &str) -> &'v Value {
    v.field(key).expect("a JSON object")
}

/// The value of the `name` counter series whose labels equal `labels`.
fn counter(families: &Value, name: &str, labels: Value) -> u64 {
    let Value::Array(families) = families else {
        unreachable!()
    };
    let family = families
        .iter()
        .find(|f| matches!(field(f, "name"), Value::Str(n) if n == name))
        .unwrap_or_else(|| panic!("no {name} family"));
    let Value::Array(series) = field(family, "series") else {
        panic!("{name} has no series");
    };
    let hit = series
        .iter()
        .find(|s| field(s, "labels") == &labels)
        .unwrap_or_else(|| panic!("no {name} series labelled {labels:?}"));
    match field(hit, "value") {
        Value::Int(v) => u64::try_from(*v).unwrap(),
        other => panic!("{name}: non-integer value {other:?}"),
    }
}

/// The counts of a `--stats` summary line, in the order it prints them:
/// nodes, max depth, clusters, then the MinG, few-p, duplicate and
/// coherence prunes.
fn stats_counts(line: &str) -> Vec<u64> {
    line.split(|c: char| !c.is_ascii_digit())
        .filter(|w| !w.is_empty())
        .take(7)
        .map(|w| w.parse().unwrap())
        .collect()
}

#[test]
fn mine_metric_snapshots_equal_the_recorded_fixture() {
    let dir = tmpdir();
    let input = write_input(&dir);
    let fixture_path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden_json/mine_metrics.json");
    let fixture: Value =
        serde_json::from_str(&std::fs::read_to_string(fixture_path).unwrap()).unwrap();
    for (key, extra) in RUNS {
        let (snapshot, stats) = mine_snapshot(&input, &dir, key, extra);
        assert_eq!(
            &snapshot,
            field(&fixture, key),
            "{key}: snapshot differs from the fixture"
        );

        let nodes = counter(&snapshot, PINNED[0], Value::Object(vec![]));
        let emitted = counter(&snapshot, PINNED[1], Value::Object(vec![]));
        let rule = |r: &str| {
            let labels = Value::Object(vec![("rule".into(), Value::Str(r.into()))]);
            counter(&snapshot, PINNED[2], labels)
        };
        if key == "pcluster" {
            assert!(
                stats.contains("no search-effort statistics"),
                "{key}: {stats}"
            );
            assert_eq!(nodes, 0);
            continue;
        }
        let counts = stats_counts(&stats);
        let want = [
            nodes,
            counts[1],
            emitted,
            rule("min_genes"),
            rule("few_p_members"),
            rule("duplicate"),
            rule("coherence"),
        ];
        assert_eq!(
            counts, want,
            "{key}: --stats disagrees with the snapshot: {stats}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
