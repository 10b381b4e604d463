//! The engine-uniformity acceptance matrix: every registered engine runs
//! through `mine --engine <name>`, streams into a sealed `.rcs` store with
//! engine-named provenance, answers `query`, exports per-engine metrics,
//! and honors deadline cancellation — all through the compiled binary.

use std::path::PathBuf;
use std::process::Command;

use regcluster_store::ClusterStore;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_regcluster"))
}

fn tmpdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("regcluster-engines-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A small all-positive matrix (so the log-space and ratio engines accept
/// it) with an exact 3-gene shifting family plus one unrelated row.
fn write_fixture(path: &PathBuf) {
    let base = [1.0f64, 4.0, 2.0, 8.0, 5.0, 3.0];
    let mut text = String::from("GENE\tc0\tc1\tc2\tc3\tc4\tc5\n");
    for (g, shift) in [0.0, 3.0, 1.0].iter().enumerate() {
        text.push_str(&format!("g{g}"));
        for v in base {
            text.push_str(&format!("\t{}", v + shift));
        }
        text.push('\n');
    }
    text.push_str("g3\t9\t1\t7\t2\t8\t1\n");
    std::fs::write(path, text).unwrap();
}

#[test]
fn every_engine_mines_to_a_queryable_store_with_provenance() {
    let dir = tmpdir();
    let matrix = dir.join("matrix.tsv");
    write_fixture(&matrix);

    for name in regcluster_engines::ENGINE_NAMES {
        let store = dir.join(format!("{name}.rcs"));
        let found = dir.join(format!("{name}.json"));
        let metrics = dir.join(format!("{name}-metrics.json"));
        let out = bin()
            .args([
                "mine",
                "--input",
                matrix.to_str().unwrap(),
                "--engine",
                name,
                "--min-genes",
                "2",
                "--min-conds",
                "2",
                "--store",
                store.to_str().unwrap(),
                "--output",
                found.to_str().unwrap(),
                "--metrics-json",
                metrics.to_str().unwrap(),
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{name}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(stdout.contains("store written to"), "{name}: {stdout}");

        // The sealed store opens, names its producing engine, and its
        // contents agree with the JSON output document.
        let cs = ClusterStore::open(&store).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(cs.engine(), Some(name), "store provenance engine");
        let stored: Vec<regcluster_core::RegCluster> = cs.iter().collect::<Result<_, _>>().unwrap();
        let doc = std::fs::read_to_string(&found).unwrap();
        let parsed = serde_json::from_str::<serde_json::Value>(&doc).unwrap();
        let doc_engine = match &parsed {
            serde_json::Value::Object(map) => map.iter().find(|(k, _)| k == "engine").cloned(),
            other => panic!("{name}: output is not an object: {other:?}"),
        };
        assert_eq!(
            doc_engine.map(|(_, v)| v),
            Some(serde_json::Value::Str(name.to_string())),
            "{name}: output document names its engine"
        );
        assert!(
            doc.matches("\"chain\"").count() == stored.len(),
            "{name}: store and JSON output hold the same clusters"
        );
        // Non-default engines record their native params as provenance too.
        if name != "reg-cluster" {
            let ep = cs
                .engine_params_json()
                .unwrap_or_else(|| panic!("{name}: engine params missing"));
            serde_json::from_str::<serde_json::Value>(ep)
                .unwrap_or_else(|e| panic!("{name}: engine params not JSON: {e}"));
        }

        // The store answers the offline query subcommand.
        let out = bin()
            .args(["query", "--store", store.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(out.status.success(), "{name}: query failed");
        let qtext = String::from_utf8(out.stdout).unwrap();
        assert!(
            qtext.contains(&format!("{} clusters match", stored.len())),
            "{name}: {qtext}"
        );

        // Per-engine run metrics are exported with the engine label.
        let mtext = std::fs::read_to_string(&metrics).unwrap();
        assert!(
            mtext.contains("regcluster_engine_runs_total"),
            "{name}: {mtext}"
        );
        assert!(mtext.contains(name), "{name} label missing: {mtext}");
    }
}

/// An already-expired deadline stops every baseline engine cooperatively:
/// exit code 0, explicit partial-results note, empty result set. This is
/// the binary-level check that `MineControl` is actually threaded into the
/// baseline iteration loops.
#[test]
fn zero_deadline_interrupts_baseline_engines() {
    let dir = tmpdir();
    let matrix = dir.join("deadline.tsv");
    write_fixture(&matrix);
    for name in ["pcluster", "floc"] {
        let out = bin()
            .args([
                "mine",
                "--input",
                matrix.to_str().unwrap(),
                "--engine",
                name,
                "--min-genes",
                "2",
                "--min-conds",
                "2",
                "--deadline-secs",
                "0",
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{name}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8(out.stdout).unwrap();
        assert!(text.contains("results are partial"), "{name}: {text}");
        assert!(text.contains("0 biclusters"), "{name}: {text}");
    }
}

/// `eval` scores a `.rcs` store directly, whatever engine wrote it.
#[test]
fn eval_accepts_an_rcs_store() {
    let dir = tmpdir();
    let matrix = dir.join("eval.tsv");
    let store = dir.join("eval.rcs");
    let truth = dir.join("eval-truth.json");
    write_fixture(&matrix);
    let out = bin()
        .args([
            "mine",
            "--input",
            matrix.to_str().unwrap(),
            "--engine",
            "pcluster",
            "--min-genes",
            "2",
            "--min-conds",
            "2",
            "--store",
            store.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    // A ground truth in the planted-cluster schema: the 3-gene family on
    // all six conditions (chain = conditions by ascending base value).
    std::fs::write(
        &truth,
        r#"[{"genes": [0, 1, 2], "chain": [0, 2, 5, 1, 4, 3], "negated": [false, false, false]}]"#,
    )
    .unwrap();
    let out = bin()
        .args([
            "eval",
            "--clusters",
            store.to_str().unwrap(),
            "--ground-truth",
            truth.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("recovery"), "{text}");
}
