//! Golden delta-mining tests: re-mining only the dirty enumeration roots
//! of a re-measured matrix and splicing in the unchanged roots' clusters
//! from the previous run must yield the **bit-identical** finalized
//! cluster set of a from-scratch mine — across thread counts 1–8 — while
//! visiting strictly fewer enumeration nodes (pinned through the run's
//! merged node count, the number the registry's node counter is filled
//! from).

use regcluster_core::{
    classify_roots, finalize_clusters, mine_prepared_roots_to_sink, mine_prepared_to_sink,
    root_fingerprints, DeltaPlan, EngineConfig, MineControl, Miner, MiningParams, NoopObserver,
    RegCluster, StreamReport, VecSink,
};
use regcluster_datagen::{generate, PatternKind, SyntheticConfig};
use regcluster_matrix::{CondId, ExpressionMatrix};

/// The seeded 100×30 synthetic workload shared by the repo's golden-output
/// tests, plus a "re-measured" copy where one gene's row changed — the
/// gene is chosen (deterministically) so the delta plan has **both**
/// dirty and unchanged roots, i.e. a realistically partial invalidation.
fn delta_dataset() -> (ExpressionMatrix, ExpressionMatrix, MiningParams) {
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
    let base = generate(&cfg).unwrap().matrix;
    let params = MiningParams::new(4, 4, 0.1, 0.05).unwrap();

    // Append a probe gene: flat at 1.5 except a monotone ramp `0,1,2,3`
    // over the first four conditions. Range 3 gives γ_i = 0.3, and the
    // longest regulation chain *starting* at any flat condition (or at an
    // interior ramp condition) is 3 < MinC = 4 in both directions — only
    // the ramp's endpoints `c0` (forward) and `c3` (backward) seed
    // 4-chains. The probe's level-1 membership — and with it the dirty
    // set when the probe is re-measured — is exactly those two roots.
    // Every pairwise comparison clears γ_i by a wide margin, so the
    // affine re-measurement below cannot flip membership through float
    // rounding.
    let n_conds = base.n_conditions();
    let mut data: Vec<f64> = (0..base.n_genes())
        .flat_map(|g| base.row(g).iter().copied())
        .collect();
    let mut probe = vec![1.5; n_conds];
    for (c, v) in probe.iter_mut().take(4).enumerate() {
        *v = c as f64;
    }
    data.extend(&probe);
    let before = ExpressionMatrix::from_flat_unlabeled(base.n_genes() + 1, n_conds, data).unwrap();

    let mut after = before.clone();
    for v in after.row_mut(base.n_genes()) {
        *v = *v * 1.05 + 0.25;
    }
    (before, after, params)
}

/// Classifies the dataset's roots and sanity-checks the plan is partial —
/// a fully-dirty or fully-clean plan would make the golden tests vacuous.
fn partial_plan(
    before: &ExpressionMatrix,
    after: &ExpressionMatrix,
    params: &MiningParams,
) -> DeltaPlan {
    let old = root_fingerprints(&Miner::new(before, params).unwrap());
    let new = root_fingerprints(&Miner::new(after, params).unwrap());
    let plan = classify_roots(&old, &new).unwrap();
    assert!(
        !plan.dirty.is_empty(),
        "mutation must dirty at least one root"
    );
    assert!(
        !plan.unchanged.is_empty(),
        "mutation must leave at least one root unchanged"
    );
    plan
}

/// Engine mine into a [`VecSink`]: the full tree when `roots` is `None`,
/// otherwise only the given subtrees. Arrival order, not finalized, and
/// the run's report.
fn engine_mine(
    miner: &Miner<'_>,
    roots: Option<&[CondId]>,
    config: &EngineConfig,
) -> (Vec<RegCluster>, StreamReport) {
    let sink = VecSink::new();
    let control = MineControl::new();
    let report = match roots {
        Some(r) => mine_prepared_roots_to_sink(miner, r, config, &control, &NoopObserver, &sink),
        None => mine_prepared_to_sink(miner, config, &control, &NoopObserver, &sink),
    }
    .unwrap();
    (sink.into_clusters(), report)
}

/// The tentpole guarantee: for every thread count 1–8, splicing the
/// previous run's unchanged-root clusters together with a re-mine of only
/// the dirty roots reproduces the from-scratch mine bit for bit.
#[test]
fn delta_mine_is_bit_identical_to_full_mine_across_threads() {
    let (before, after, params) = delta_dataset();
    let plan = partial_plan(&before, &after, &params);
    let mask = plan.unchanged_mask();
    let miner_before = Miner::new(&before, &params).unwrap();
    let miner_after = Miner::new(&after, &params).unwrap();

    for threads in 1..=8 {
        let config = EngineConfig::new(threads);

        let (mut full, _) = engine_mine(&miner_after, None, &config);
        finalize_clusters(&mut full, &params);

        // The "previous run" output, as a store of record would hold it.
        let (previous, _) = engine_mine(&miner_before, None, &config);

        // Splice: carry over every cluster rooted at an unchanged
        // condition, re-mine only the dirty subtrees, finalize the union.
        let mut delta: Vec<RegCluster> =
            previous.into_iter().filter(|c| mask[c.chain[0]]).collect();
        delta.extend(engine_mine(&miner_after, Some(&plan.dirty), &config).0);
        finalize_clusters(&mut delta, &params);

        assert_eq!(
            delta, full,
            "delta-mined output diverged from full re-mine at threads={threads}"
        );
    }
}

/// A clean plan (nothing re-measured) carries the previous run over
/// verbatim with zero re-mined roots.
#[test]
fn clean_plan_reuses_the_previous_run_verbatim() {
    let (before, _, params) = delta_dataset();
    let miner = Miner::new(&before, &params).unwrap();
    let fps = root_fingerprints(&miner);
    let plan = classify_roots(&fps, &fps).unwrap();
    assert!(plan.is_clean());
    assert_eq!(plan.unchanged.len(), before.n_conditions());

    // Mining the empty dirty set visits nothing and emits nothing.
    let config = EngineConfig::new(2);
    let (fresh, report) = engine_mine(&miner, Some(&[]), &config);
    assert!(fresh.is_empty());
    assert_eq!(report.stats.nodes, 0);
}

/// The acceptance criterion on work saved: a delta mine re-enumerates
/// **only** the dirty subtrees. At one thread the traversal is
/// deterministic, so the node counter partitions exactly — the dirty-only
/// and unchanged-only runs together visit precisely the full run's nodes,
/// and the dirty-only run alone visits strictly fewer.
#[test]
fn delta_mine_re_enumerates_only_dirty_subtrees() {
    let (before, after, params) = delta_dataset();
    let plan = partial_plan(&before, &after, &params);
    let miner_after = Miner::new(&after, &params).unwrap();
    let config = EngineConfig::new(1);

    let nodes_entered = |roots: Option<&[CondId]>| -> u64 {
        engine_mine(&miner_after, roots, &config).1.stats.nodes as u64
    };

    let full = nodes_entered(None);
    let dirty_only = nodes_entered(Some(&plan.dirty));
    let unchanged_only = nodes_entered(Some(&plan.unchanged));

    assert_eq!(
        dirty_only + unchanged_only,
        full,
        "per-root subtrees must partition the enumeration tree"
    );
    // Every seeded root enters at least its own node, so a non-empty
    // unchanged set forces a strict saving.
    assert!(
        dirty_only < full,
        "delta mine saved no work: {dirty_only} of {full} nodes"
    );
    assert!(unchanged_only >= plan.unchanged.len() as u64);
}
