//! End-to-end tests of the compiled `regcluster` binary: real process, real
//! argv, real exit codes.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_regcluster"))
}

fn tmpdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("regcluster-bin-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn help_exits_zero_and_prints_usage() {
    let out = bin().arg("help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("regcluster mine"));
}

#[test]
fn bad_arguments_exit_nonzero_with_stderr() {
    let out = bin().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown subcommand"), "{err}");

    let out = bin().args(["mine", "--input"]).output().unwrap();
    assert!(!out.status.success());

    let out = bin()
        .args(["info", "--input", "/definitely/not/here.tsv"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn full_pipeline_through_the_binary() {
    let dir = tmpdir();
    let matrix = dir.join("data.tsv");
    let truth = dir.join("truth.json");
    let found = dir.join("found.json");

    let out = bin()
        .args([
            "generate",
            "--output",
            matrix.to_str().unwrap(),
            "--genes",
            "200",
            "--conds",
            "14",
            "--clusters",
            "2",
            "--gene-frac",
            "0.05",
            "--seed",
            "5",
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

    let out = bin()
        .args([
            "mine",
            "--input",
            matrix.to_str().unwrap(),
            "--min-genes",
            "5",
            "--min-conds",
            "4",
            "--gamma",
            "0.1",
            "--epsilon",
            "0.01",
            "--stats",
            "--output",
            found.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("mined"), "{text}");
    assert!(text.contains("nodes"), "{text}");

    let out = bin()
        .args([
            "eval",
            "--clusters",
            found.to_str().unwrap(),
            "--ground-truth",
            truth.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    let rec: f64 = text
        .lines()
        .find(|l| l.starts_with("recovery"))
        .and_then(|l| l.split_whitespace().nth(1))
        .unwrap()
        .parse()
        .unwrap();
    assert!(rec > 0.99, "{text}");
}

#[test]
fn parallel_mine_reports_stats_and_elapsed_in_json() {
    let dir = tmpdir();
    let matrix = dir.join("par.tsv");
    let found = dir.join("par-found.json");
    regcluster_matrix::io::write_matrix_file(&regcluster_datagen::running_example(), &matrix)
        .unwrap();

    let out = bin()
        .args([
            "mine",
            "--input",
            matrix.to_str().unwrap(),
            "--min-genes",
            "3",
            "--min-conds",
            "5",
            "--gamma",
            "0.15",
            "--epsilon",
            "0.1",
            "--threads",
            "4",
            "--stats",
            "--progress",
            "--output",
            found.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("mined 1 reg-clusters"), "{text}");
    assert!(text.contains("4 threads"), "{text}");
    // --stats now works at any thread count.
    assert!(text.contains("nodes"), "{text}");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("clusters emitted"), "--progress: {err}");

    // The JSON document carries run metadata: per-rule prune counts and
    // wall-clock time.
    let json = std::fs::read_to_string(&found).unwrap();
    for key in [
        "\"threads\"",
        "\"elapsed_secs\"",
        "\"truncated\"",
        "\"pruned_min_genes\"",
        "\"pruned_few_p\"",
        "\"pruned_duplicate\"",
        "\"pruned_coherence\"",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
    let doc: regcluster_cli::commands::MineOutput = serde_json::from_str(&json).unwrap();
    assert_eq!(doc.threads, Some(4));
    assert_eq!(doc.truncated, Some(false));
    assert!(doc.elapsed_secs.unwrap() >= 0.0);
    let stats = doc.stats.expect("stats present in JSON output");
    assert!(stats.nodes > 0, "{stats:?}");
    assert_eq!(stats.emitted, 1, "{stats:?}");
    assert_eq!(doc.clusters.len(), 1);
}

#[test]
fn zero_deadline_yields_truncated_partial_results() {
    let dir = tmpdir();
    let matrix = dir.join("deadline.tsv");
    let found = dir.join("deadline-found.json");
    regcluster_matrix::io::write_matrix_file(&regcluster_datagen::running_example(), &matrix)
        .unwrap();

    let out = bin()
        .args([
            "mine",
            "--input",
            matrix.to_str().unwrap(),
            "--min-genes",
            "3",
            "--min-conds",
            "5",
            "--gamma",
            "0.15",
            "--epsilon",
            "0.1",
            "--threads",
            "2",
            "--deadline-secs",
            "0",
            "--output",
            found.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    // An exceeded deadline is not a crash: the run exits zero with partial,
    // explicitly truncated results.
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("deadline expired"), "{text}");
    let doc: regcluster_cli::commands::MineOutput =
        serde_json::from_str(&std::fs::read_to_string(&found).unwrap()).unwrap();
    assert_eq!(doc.truncated, Some(true));
    assert!(doc.clusters.is_empty());
}

#[test]
fn interrupted_mine_checkpoints_and_resumes_through_the_binary() {
    let dir = tmpdir();
    let matrix = dir.join("ck.tsv");
    let ck = dir.join("run.rck");
    let found = dir.join("ck-found.json");
    regcluster_matrix::io::write_matrix_file(&regcluster_datagen::running_example(), &matrix)
        .unwrap();
    let mine_args = |extra: &[&str]| {
        let mut v = vec![
            "mine".to_string(),
            "--input".into(),
            matrix.to_str().unwrap().into(),
            "--min-genes".into(),
            "3".into(),
            "--min-conds".into(),
            "5".into(),
            "--gamma".into(),
            "0.15".into(),
            "--epsilon".into(),
            "0.1".into(),
            "--threads".into(),
            "2".into(),
        ];
        v.extend(extra.iter().map(|s| (*s).to_string()));
        v
    };

    // Reference: an uninterrupted run.
    let out = bin()
        .args(mine_args(&["--output", found.to_str().unwrap()]))
        .output()
        .unwrap();
    assert!(out.status.success());
    let reference: regcluster_cli::commands::MineOutput =
        serde_json::from_str(&std::fs::read_to_string(&found).unwrap()).unwrap();
    assert_eq!(reference.clusters.len(), 1);

    // Interrupt at once (deadline 0) with a checkpoint armed: the run
    // truncates but flushes a resumable snapshot and says where.
    let out = bin()
        .args(mine_args(&[
            "--deadline-secs",
            "0",
            "--checkpoint",
            ck.to_str().unwrap(),
            "--output",
            found.to_str().unwrap(),
        ]))
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("checkpoint written"), "{text}");
    assert!(ck.exists(), "snapshot file must exist");
    let doc: regcluster_cli::commands::MineOutput =
        serde_json::from_str(&std::fs::read_to_string(&found).unwrap()).unwrap();
    assert_eq!(doc.truncated, Some(true));
    assert_eq!(
        doc.checkpoint_written.as_deref(),
        Some(ck.to_str().unwrap())
    );
    assert_eq!(doc.resumed_from, None);

    // Resume completes the run bit-identically to the reference.
    let out = bin()
        .args(mine_args(&[
            "--resume",
            ck.to_str().unwrap(),
            "--output",
            found.to_str().unwrap(),
        ]))
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("resumed from checkpoint"), "{text}");
    let doc: regcluster_cli::commands::MineOutput =
        serde_json::from_str(&std::fs::read_to_string(&found).unwrap()).unwrap();
    assert_eq!(doc.truncated, Some(false));
    assert_eq!(doc.resumed_from.as_deref(), Some(ck.to_str().unwrap()));
    assert_eq!(doc.clusters, reference.clusters);

    // A snapshot taken under different parameters is refused, not mis-mined.
    let out = bin()
        .args([
            "mine",
            "--input",
            matrix.to_str().unwrap(),
            "--min-genes",
            "2",
            "--min-conds",
            "5",
            "--gamma",
            "0.15",
            "--epsilon",
            "0.1",
            "--resume",
            ck.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("parameters"), "{err}");
}

#[test]
fn failpoints_env_var_reaches_the_binary() {
    let dir = tmpdir();
    let matrix = dir.join("fp.tsv");
    let ck = dir.join("fp.rck");
    regcluster_matrix::io::write_matrix_file(&regcluster_datagen::running_example(), &matrix)
        .unwrap();

    // A malformed spec is refused up front.
    let out = bin()
        .env("FAILPOINTS", "no::such::site=panic")
        .arg("help")
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("FAILPOINTS"), "{err}");

    // An injected worker panic surfaces as a mining error — and the
    // final checkpoint still gets flushed on the way down.
    let out = bin()
        .env("FAILPOINTS", "engine::worker=panic@1")
        .args([
            "mine",
            "--input",
            matrix.to_str().unwrap(),
            "--min-genes",
            "3",
            "--min-conds",
            "5",
            "--gamma",
            "0.15",
            "--epsilon",
            "0.1",
            "--threads",
            "2",
            "--checkpoint",
            ck.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success(), "injected panic must fail the run");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("injected failpoint panic"), "{err}");
    assert!(ck.exists(), "crash checkpoint must be flushed");

    // With the environment clean, resuming that crash snapshot succeeds.
    let out = bin()
        .args([
            "mine",
            "--input",
            matrix.to_str().unwrap(),
            "--min-genes",
            "3",
            "--min-conds",
            "5",
            "--gamma",
            "0.15",
            "--epsilon",
            "0.1",
            "--threads",
            "2",
            "--resume",
            ck.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("mined 1 reg-clusters"), "{text}");
}

#[test]
fn delta_mine_through_the_binary_matches_full_remine() {
    let dir = tmpdir();
    let gens = dir.join("delta-lineage");
    let m0 = dir.join("delta-gen0.tsv");
    let m1 = dir.join("delta-gen1.tsv");

    // Two measurements of the same panel: the second re-measures a
    // handful of genes (rows 3 and 17 shifted + rescaled).
    let cfg = regcluster_datagen::SyntheticConfig {
        n_genes: 80,
        n_conds: 12,
        n_clusters: 2,
        cluster_gene_frac: 0.08,
        noise_sigma: 0.0,
        seed: 23,
        ..Default::default()
    };
    let mut matrix = regcluster_datagen::generate(&cfg).unwrap().matrix;
    regcluster_matrix::io::write_matrix_file(&matrix, &m0).unwrap();
    for row in [3usize, 17] {
        for c in 0..matrix.n_conditions() {
            let v = matrix.value(row, c);
            matrix.set_value(row, c, v * 1.1 + 0.4);
        }
    }
    regcluster_matrix::io::write_matrix_file(&matrix, &m1).unwrap();

    let mine = |input: &PathBuf, extra: &[&str]| {
        let mut args = vec![
            "mine".to_string(),
            "--input".into(),
            input.to_str().unwrap().into(),
            "--min-genes".into(),
            "4".into(),
            "--min-conds".into(),
            "4".into(),
            "--gamma".into(),
            "0.1".into(),
            "--epsilon".into(),
            "0.05".into(),
        ];
        args.extend(extra.iter().map(|s| (*s).to_string()));
        let out = bin().args(&args).output().unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };

    // Generation 0, then a delta mine of the re-measured matrix into the
    // same lineage. `--store` enters generations mode for an existing
    // directory, so the lineage dir is made first.
    std::fs::create_dir_all(&gens).unwrap();
    let text = mine(&m0, &["--store", gens.to_str().unwrap()]);
    assert!(text.contains("generation 0 published"), "{text}");
    let prev = gens.join("gen-0.rcs");
    let text = mine(
        &m1,
        &[
            "--store",
            gens.to_str().unwrap(),
            "--delta-from",
            prev.to_str().unwrap(),
        ],
    );
    assert!(text.contains("delta-mined"), "{text}");
    assert!(text.contains("generation 1 published"), "{text}");

    // Bit-identical to mining the new matrix from scratch.
    let scratch = dir.join("delta-scratch.rcs");
    mine(&m1, &["--store", scratch.to_str().unwrap()]);
    let delta_store = regcluster_store::ClusterStore::open(gens.join("gen-1.rcs")).unwrap();
    let full_store = regcluster_store::ClusterStore::open(&scratch).unwrap();
    let delta: Vec<_> = delta_store.iter().collect::<Result<_, _>>().unwrap();
    let full: Vec<_> = full_store.iter().collect::<Result<_, _>>().unwrap();
    assert!(!full.is_empty(), "workload must mine something");
    assert_eq!(delta, full, "delta store drifted from a full re-mine");
    assert_eq!(delta_store.generation(), 1);
}

#[test]
fn delta_mine_composes_with_post_filters() {
    let dir = tmpdir();
    let m0 = dir.join("deltafilter-gen0.tsv");
    let m1 = dir.join("deltafilter-gen1.tsv");

    let cfg = regcluster_datagen::SyntheticConfig {
        n_genes: 80,
        n_conds: 12,
        n_clusters: 2,
        cluster_gene_frac: 0.08,
        noise_sigma: 0.0,
        seed: 29,
        ..Default::default()
    };
    let mut matrix = regcluster_datagen::generate(&cfg).unwrap().matrix;
    regcluster_matrix::io::write_matrix_file(&matrix, &m0).unwrap();
    for row in [5usize, 40] {
        for c in 0..matrix.n_conditions() {
            let v = matrix.value(row, c);
            matrix.set_value(row, c, v * 0.9 - 0.2);
        }
    }
    regcluster_matrix::io::write_matrix_file(&matrix, &m1).unwrap();

    let mine = |input: &PathBuf, extra: &[&str]| {
        let mut args = vec![
            "mine".to_string(),
            "--input".into(),
            input.to_str().unwrap().into(),
            "--min-genes".into(),
            "4".into(),
            "--min-conds".into(),
            "4".into(),
            "--gamma".into(),
            "0.1".into(),
            "--epsilon".into(),
            "0.05".into(),
        ];
        args.extend(extra.iter().map(|s| (*s).to_string()));
        bin().args(&args).output().unwrap()
    };
    let expect_ok = |out: std::process::Output| {
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };

    // An *unfiltered* generation 0 to delta against.
    let prev = dir.join("deltafilter-prev.rcs");
    expect_ok(mine(&m0, &["--store", prev.to_str().unwrap()]));

    // The post-filters run after the splice, so a filtered delta mine must
    // equal a filtered from-scratch mine of the new matrix.
    let filters = ["--maximal-only", "--max-clusters", "7"];
    let delta_store_path = dir.join("deltafilter-delta.rcs");
    let text = expect_ok(mine(
        &m1,
        &[
            "--delta-from",
            prev.to_str().unwrap(),
            "--store",
            delta_store_path.to_str().unwrap(),
            filters[0],
            filters[1],
            filters[2],
        ],
    ));
    assert!(text.contains("delta-mined"), "{text}");
    let full_store_path = dir.join("deltafilter-full.rcs");
    expect_ok(mine(
        &m1,
        &[
            "--store",
            full_store_path.to_str().unwrap(),
            filters[0],
            filters[1],
            filters[2],
        ],
    ));
    let delta_store = regcluster_store::ClusterStore::open(&delta_store_path).unwrap();
    let full_store = regcluster_store::ClusterStore::open(&full_store_path).unwrap();
    let delta: Vec<_> = delta_store.iter().collect::<Result<_, _>>().unwrap();
    let full: Vec<_> = full_store.iter().collect::<Result<_, _>>().unwrap();
    assert!(!full.is_empty(), "workload must mine something");
    assert!(
        full.len() <= 7,
        "--max-clusters must cap the result, got {}",
        full.len()
    );
    assert_eq!(
        delta, full,
        "filtered delta drifted from a filtered full mine"
    );

    // A *filtered* previous store cannot be spliced from: the filters
    // dropped clusters across root boundaries.
    let out = mine(
        &m1,
        &[
            "--delta-from",
            full_store_path.to_str().unwrap(),
            filters[0],
            filters[1],
            filters[2],
        ],
    );
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unfiltered"), "{err}");
}

#[test]
fn rwave_subcommand_via_binary() {
    let dir = tmpdir();
    let matrix = dir.join("running.tsv");
    regcluster_matrix::io::write_matrix_file(&regcluster_datagen::running_example(), &matrix)
        .unwrap();
    let out = bin()
        .args([
            "rwave",
            "--input",
            matrix.to_str().unwrap(),
            "--gene",
            "g2",
            "--gamma",
            "0.15",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("γ_i = 4.5"), "{text}");
    assert!(text.contains("c10 ↰ c5"), "{text}");
}
