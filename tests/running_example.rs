//! Full reproduction of the paper's running example: every concrete number
//! and structure in Figures 2, 3, 4 and 6 and the accompanying prose.

use regcluster::core::coherence::h_series;
use regcluster::core::miner::Miner;
use regcluster::core::observer::{PruneRule, TraceObserver};
use regcluster::core::{mine, mine_with_observer, MineRequest, MiningParams};
use regcluster::datagen::running_example;

// 0-based ids: gene g_k is k−1, condition c_k is k−1.
const C1: usize = 0;
const C2: usize = 1;
const C3: usize = 2;
const C4: usize = 3;
const C5: usize = 4;
const C6: usize = 5;
const C7: usize = 6;
const C8: usize = 7;
const C9: usize = 8;
const C10: usize = 9;

fn params() -> MiningParams {
    MiningParams::new(3, 5, 0.15, 0.1).expect("paper parameters are valid")
}

#[test]
fn figure_3_rwave_models() {
    let m = running_example();
    let p = params();
    let miner = Miner::new(&m, &p).unwrap();
    let models = miner.models();

    // γ_1 = γ_2 = 4.5 and γ_3 = 1.8 (§3.1).
    assert!((models[0].gamma() - 4.5).abs() < 1e-12);
    assert!((models[1].gamma() - 4.5).abs() < 1e-12);
    assert!((models[2].gamma() - 1.8).abs() < 1e-12);

    // "c5 − c1 is one bordering condition-pair for g1": any condition left
    // of c5 differs from any condition right of c1 by more than γ_1.
    let g1 = &models[0];
    let (r_c5, r_c1) = (g1.rank_of(C5), g1.rank_of(C1));
    assert!(g1.is_up_regulated(r_c5 + 1, r_c1)); // c8 (tied with c5) ↰ c1
                                                 // Every pair straddling the bordering pair is regulated.
    for lo in 0..=g1.rank_of(C8) {
        for hi in g1.rank_of(C1)..10 {
            assert!(g1.is_up_regulated(lo, hi), "ranks {lo} ↰ {hi}");
        }
    }

    // "the regulation predecessors of c6 for g1 are exactly c7, c2, c10,
    // c9, c8 and c5; there are no regulation successors of c6".
    let r_c6 = g1.rank_of(C6);
    let p_end = g1.predecessor_end(r_c6).expect("c6 has predecessors");
    let mut preds: Vec<usize> = (0..=p_end).map(|r| g1.cond_at(r)).collect();
    preds.sort_unstable();
    assert_eq!(preds, vec![C2, C5, C7, C8, C9, C10]);
    assert_eq!(g1.successor_start(r_c6), None);
}

#[test]
fn figure_2_coherence_scores() {
    // All three genes share H-series [1.0, 0.5, 1.0, 0.5] on the chain
    // c7 ↰ c9 ↰ c5 ↰ c1 ↰ c3 (the paper lists the scores 1.0, 0.5, 1.0, 0.5).
    let m = running_example();
    let chain = [C7, C9, C5, C1, C3];
    for g in 0..3 {
        let h = h_series(m.row(g), &chain);
        let expected = [1.0, 0.5, 1.0, 0.5];
        for (a, e) in h.iter().zip(expected.iter()) {
            assert!((a - e).abs() < 1e-12, "gene {g}: {h:?}");
        }
    }
}

#[test]
fn figure_4_outlier_detection() {
    // On the projection c2, c10, c8: H(1) = H(3) = 0.5263, H(2) = 4.6 —
    // far beyond ε = 0.1 — and the RWave model of g2 shows no regulation
    // between c4 and c8.
    let m = running_example();
    let chain = [C2, C10, C8];
    let h1 = h_series(m.row(0), &chain)[1];
    let h2 = h_series(m.row(1), &chain)[1];
    let h3 = h_series(m.row(2), &chain)[1];
    assert!((h1 - 0.5263).abs() < 1e-3);
    assert!((h3 - 0.5263).abs() < 1e-3);
    assert!((h2 - 4.6).abs() < 1e-12);

    let p = params();
    let miner = Miner::new(&m, &p).unwrap();
    let g2 = &miner.models()[1];
    let (r_c4, r_c8) = (g2.rank_of(C4), g2.rank_of(C8));
    let (lo, hi) = if r_c4 < r_c8 {
        (r_c4, r_c8)
    } else {
        (r_c8, r_c4)
    };
    assert!(
        !g2.is_up_regulated(lo, hi),
        "no regulation between c4 and c8 for g2"
    );
}

#[test]
fn figure_6_unique_cluster_and_prunings() {
    let m = running_example();
    let mut trace = TraceObserver::default();
    let clusters = mine_with_observer(&m, &params(), &mut trace).unwrap();

    // "the only validated representative regulation chain discovered is
    // c7 ↰ c9 ↰ c5 ↰ c1 ↰ c3".
    assert_eq!(clusters.len(), 1);
    let c = &clusters[0];
    assert_eq!(c.chain, vec![C7, C9, C5, C1, C3]);
    assert_eq!(c.p_members, vec![0, 2]);
    assert_eq!(c.n_members, vec![1]);

    // Level-1 prunings: c3's subtree dies to (3)(a) with one p-member.
    assert!(trace.pruned_by(PruneRule::FewPMembers).contains(&&[C3][..]));
    // c2c1 and c2c9 die to MinG pruning (1).
    let min_g = trace.pruned_by(PruneRule::MinGenes);
    assert!(min_g.contains(&&[C2, C1][..]));
    assert!(min_g.contains(&&[C2, C9][..]));
    // c2c10c5 dies to coherence pruning (4)...
    assert!(trace
        .pruned_by(PruneRule::Coherence)
        .contains(&&[C2, C10, C5][..]));
    // ...and c2c10c8 and c7c10 to MinG pruning (1).
    assert!(min_g.contains(&&[C2, C10, C8][..]));
    assert!(min_g.contains(&&[C7, C10][..]));

    // The paper's explored path c7 → c7c9 → c7c9c5 → c7c9c5c1 → output.
    let nodes = trace.nodes();
    for prefix in [
        &[C7][..],
        &[C7, C9][..],
        &[C7, C9, C5][..],
        &[C7, C9, C5, C1][..],
        &[C7, C9, C5, C1, C3][..],
    ] {
        assert!(
            nodes.contains(&prefix),
            "missing enumeration node {prefix:?}"
        );
    }
}

#[test]
fn result_is_stable_across_drivers() {
    let m = running_example();
    let p = params();
    let seq = mine(&m, &p).unwrap();
    let miner = Miner::new(&m, &p).unwrap();
    for threads in [1, 2, 8] {
        let (report, _) = MineRequest::new(&miner).threads(threads).collect().unwrap();
        assert_eq!(seq, report.clusters);
    }
}

#[test]
fn cluster_validates_against_definition() {
    let m = running_example();
    let p = params();
    for c in mine(&m, &p).unwrap() {
        c.validate(&m, &p).unwrap();
    }
}
