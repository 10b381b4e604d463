//! Hot-path perf harness — per-phase and per-node timing for the
//! enumeration core, tracked across PRs in a committed baseline.
//!
//! Sweeps the Figure 7 conditions panel (the paper's worst scaling axis,
//! `#cond`, with generator/mining defaults identical to the `fig7` bench)
//! and splits every point into the two phases of a mine:
//!
//! * **model build** — `Miner::new`, one `RWave^γ` model + hot table per gene;
//! * **enumeration** — a one-thread [`MineRequest`] over every root into a
//!   [`VecSink`], the engine path every mine runs (root seeding and buffer
//!   growth included). Each point repeats it at least [`MIN_REPS`] times
//!   and until [`MIN_POINT_S`] seconds have run, and records the median
//!   repetition, so one repetition slowed by the host moves nothing.
//!
//! Per-node nanoseconds (`enumerate_s / nodes`, nodes from the run's
//! [`StreamReport`](regcluster_core::StreamReport) stats) is the headline
//! metric: it is what the bitset refactors move, and it is far less noisy
//! than wall-clock seconds because the node count is deterministic for a
//! given input.
//!
//! Modes (see `docs/PERFORMANCE.md` for the full recipe):
//!
//! * default — full sweep, **rewrites `BENCH_hotpath.json` at the repo
//!   root** (the committed baseline) and drops a copy in the results dir;
//! * `--quick` — reduced sweep written to `results/hotpath_quick.json`
//!   only; the committed baseline is left untouched;
//! * `--check` — compare the fresh sweep against the committed baseline
//!   and exit non-zero when any point regressed past the noise threshold
//!   (`REGCLUSTER_PERF_THRESHOLD`, default 1.5×, on the median
//!   repetition's ns/node) or when no fresh point
//!   shares a `#cond` with the baseline; on pass the baseline is refreshed
//!   (full mode only);
//! * `--check-baseline` — no mining at all: parse the committed baseline
//!   and fail on structural rot (missing file, wrong version, non-finite
//!   numbers). This is the only gate CI runs on shared hardware.

use regcluster_bench::{time, write_json};
use regcluster_core::{MineRequest, Miner, MiningParams, MiningStats, VecSink};
use regcluster_datagen::{generate, SyntheticConfig};
use serde::{Deserialize, Serialize};

/// Schema version of `BENCH_hotpath.json`; bump on incompatible change.
const BASELINE_FORMAT_VERSION: u32 = 1;
/// Default regression threshold for `--check`: fail when a point's
/// ns/node exceeds `threshold × baseline`.
const DEFAULT_THRESHOLD: f64 = 1.5;
/// Fewest enumeration repetitions per point.
const MIN_REPS: usize = 5;
/// Least enumeration time per point, seconds: a 5 ms point repeats ~50
/// times, so its median is not one scheduler hiccup.
const MIN_POINT_S: f64 = 0.25;

/// Figure 7 mining parameters (panel defaults).
const MINING_GAMMA: f64 = 0.1;
const MINING_EPSILON: f64 = 0.01;

#[derive(Debug, Serialize, Deserialize)]
struct HotpathPoint {
    n_conds: usize,
    n_genes: usize,
    /// `Miner::new` (RWave models + SoA hot tables), seconds.
    model_build_s: f64,
    /// One-thread `MineRequest` run, seconds: the median repetition.
    enumerate_s: f64,
    /// Enumeration repetitions run for this point.
    #[serde(default)]
    repetitions: usize,
    /// Enumeration-tree nodes entered (deterministic per input).
    nodes: usize,
    clusters: usize,
    /// Headline metric: `enumerate_s * 1e9 / nodes`.
    ns_per_node: f64,
    nodes_per_s: f64,
    /// Members walked by the nodes' candidate scans over the run.
    #[serde(default)]
    members: usize,
    /// Qualified (member, candidate) pairs bucketed over the run.
    #[serde(default)]
    pairs: usize,
    /// Keys the ε-cell filter handed to the per-candidate sort.
    #[serde(default)]
    sorted_keys: usize,
    /// ε-windows that became children.
    #[serde(default)]
    windows: usize,
    /// `enumerate_s * 1e9 / pairs`: the per-node cost restated per unit
    /// of candidate work.
    #[serde(default)]
    ns_per_pair: f64,
}

#[derive(Debug, Serialize, Deserialize)]
struct HotpathBaseline {
    format_version: u32,
    quick: bool,
    /// Fewest repetitions of any point ([`MIN_REPS`]).
    repetitions: usize,
    mining_gamma: f64,
    mining_epsilon: f64,
    /// Node-weighted mean ns/node over the sweep.
    mean_ns_per_node: f64,
    points: Vec<HotpathPoint>,
}

/// The committed baseline path: repo root, overridable for tests.
fn baseline_path() -> std::path::PathBuf {
    std::env::var_os("REGCLUSTER_BENCH_BASELINE")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| {
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_hotpath.json")
        })
}

fn threshold() -> f64 {
    std::env::var("REGCLUSTER_PERF_THRESHOLD")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_THRESHOLD)
}

fn load_baseline() -> Result<HotpathBaseline, String> {
    let path = baseline_path();
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read baseline {}: {e}", path.display()))?;
    let b: HotpathBaseline =
        serde_json::from_str(&text).map_err(|e| format!("baseline does not parse: {e}"))?;
    if b.format_version != BASELINE_FORMAT_VERSION {
        return Err(format!(
            "baseline format_version {} != expected {BASELINE_FORMAT_VERSION}",
            b.format_version
        ));
    }
    if b.points.is_empty() {
        return Err("baseline has no points".into());
    }
    for p in &b.points {
        if !(p.ns_per_node.is_finite() && p.ns_per_node > 0.0) || p.nodes == 0 {
            return Err(format!("baseline point #cond={} is degenerate", p.n_conds));
        }
    }
    Ok(b)
}

/// One sweep point: build the miner (timed), then time one-thread engine
/// runs over every root until there are at least [`MIN_REPS`] of them and
/// [`MIN_POINT_S`] seconds.
fn run_point(n_conds: usize) -> HotpathPoint {
    let cfg = SyntheticConfig {
        n_conds,
        ..SyntheticConfig::default()
    };
    let data = generate(&cfg).expect("generator config is feasible");
    let min_g = ((0.01 * cfg.n_genes as f64).round() as usize).max(2);
    let params =
        MiningParams::new(min_g, 6, MINING_GAMMA, MINING_EPSILON).expect("mining params valid");
    let (miner, model_build_s) =
        time(|| Miner::new(&data.matrix, &params).expect("params validate"));
    let mut secs = Vec::new();
    let mut stats = MiningStats::default();
    while secs.len() < MIN_REPS || secs.iter().sum::<f64>() < MIN_POINT_S {
        let sink = VecSink::new();
        let (report, s) = time(|| MineRequest::new(&miner).run(&sink).expect("run completes"));
        secs.push(s);
        stats = report.0.stats;
    }
    point(n_conds, cfg.n_genes, model_build_s, &mut secs, &stats)
}

/// A sweep point timed by the median of its repetitions `secs`.
fn point(
    n_conds: usize,
    n_genes: usize,
    model_build_s: f64,
    secs: &mut [f64],
    stats: &MiningStats,
) -> HotpathPoint {
    secs.sort_by(f64::total_cmp);
    let enumerate_s = secs[secs.len() / 2];
    let nodes = stats.nodes.max(1);
    HotpathPoint {
        n_conds,
        n_genes,
        model_build_s,
        enumerate_s,
        repetitions: secs.len(),
        nodes,
        clusters: stats.emitted,
        ns_per_node: enumerate_s * 1e9 / nodes as f64,
        nodes_per_s: nodes as f64 / enumerate_s.max(1e-12),
        members: stats.members,
        pairs: stats.pairs,
        sorted_keys: stats.sorted_keys,
        windows: stats.windows,
        ns_per_pair: enumerate_s * 1e9 / stats.pairs.max(1) as f64,
    }
}

fn sweep(quick: bool) -> HotpathBaseline {
    let axis: &[usize] = if quick {
        &[20, 30]
    } else {
        &[10, 15, 20, 25, 30, 35, 40]
    };
    let mut points = Vec::new();
    println!("hot-path sweep (fig7 conditions panel, #g = 3000, MinC = 6)");
    println!(
        "{:>7} {:>12} {:>12} {:>5} {:>10} {:>12} {:>10} {:>10} {:>10} {:>8} {:>8}",
        "#cond",
        "model (s)",
        "enum (s)",
        "reps",
        "nodes",
        "ns/node",
        "clusters",
        "members",
        "pairs",
        "sorted",
        "windows"
    );
    for &n_conds in axis {
        let p = run_point(n_conds);
        println!(
            "{:>7} {:>12.4} {:>12.4} {:>5} {:>10} {:>12.1} {:>10} {:>10} {:>10} {:>8} {:>8}",
            p.n_conds,
            p.model_build_s,
            p.enumerate_s,
            p.repetitions,
            p.nodes,
            p.ns_per_node,
            p.clusters,
            p.members,
            p.pairs,
            p.sorted_keys,
            p.windows
        );
        points.push(p);
    }
    let total_nodes: usize = points.iter().map(|p| p.nodes).sum();
    let total_s: f64 = points.iter().map(|p| p.enumerate_s).sum();
    let mean = total_s * 1e9 / total_nodes.max(1) as f64;
    println!("node-weighted mean: {mean:.1} ns/node over {total_nodes} nodes");
    HotpathBaseline {
        format_version: BASELINE_FORMAT_VERSION,
        quick,
        repetitions: MIN_REPS,
        mining_gamma: MINING_GAMMA,
        mining_epsilon: MINING_EPSILON,
        mean_ns_per_node: mean,
        points,
    }
}

/// Compares a fresh sweep against the committed baseline, point by point
/// (matched by `#cond`). Returns the number of matched points, or the
/// failure to report: no point matched at all, or some point's ns/node
/// exceeds `threshold ×` its baseline.
fn compare(
    fresh: &HotpathBaseline,
    base: &HotpathBaseline,
    threshold: f64,
) -> Result<usize, String> {
    let mut matched = 0;
    let mut regressed = Vec::new();
    for p in &fresh.points {
        if let Some(b) = base.points.iter().find(|b| b.n_conds == p.n_conds) {
            matched += 1;
            let ratio = p.ns_per_node / b.ns_per_node;
            if ratio > threshold {
                regressed.push(format!(
                    "REGRESSION #cond={}: {:.1} ns/node is {ratio:.2}x baseline (threshold {threshold}x)",
                    p.n_conds, p.ns_per_node
                ));
            }
        }
    }
    if matched == 0 {
        return Err("no fresh point shares a #cond with the baseline: nothing compared".into());
    }
    if !regressed.is_empty() {
        return Err(regressed.join("\n"));
    }
    Ok(matched)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check = args.iter().any(|a| a == "--check");
    let check_baseline_only = args.iter().any(|a| a == "--check-baseline");

    if check_baseline_only {
        match load_baseline() {
            Ok(b) => {
                println!(
                    "baseline OK: {} points, node-weighted mean {:.1} ns/node ({})",
                    b.points.len(),
                    b.mean_ns_per_node,
                    baseline_path().display()
                );
                return;
            }
            Err(e) => {
                eprintln!("baseline check failed: {e}");
                std::process::exit(1);
            }
        }
    }

    let fresh = sweep(quick);

    if check {
        let threshold = threshold();
        let outcome = load_baseline()
            .map_err(|e| format!("cannot check against baseline: {e}"))
            .and_then(|base| compare(&fresh, &base, threshold));
        match outcome {
            Ok(matched) => println!("no regression past {threshold}x on {matched} matched points"),
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(1);
            }
        }
    }

    if quick {
        write_json("hotpath_quick.json", &fresh);
    } else {
        let path = baseline_path();
        let json = serde_json::to_string_pretty(&fresh).expect("baseline serializes");
        std::fs::write(&path, json + "\n")
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        eprintln!("wrote {}", path.display());
        write_json("hotpath_full.json", &fresh);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sweep whose point `#cond = n` ran the repetitions `secs` over
    /// 1000 nodes.
    fn sweep_of(points: &[(usize, &[f64])]) -> HotpathBaseline {
        let stats = MiningStats {
            nodes: 1000,
            ..MiningStats::default()
        };
        HotpathBaseline {
            format_version: BASELINE_FORMAT_VERSION,
            quick: true,
            repetitions: MIN_REPS,
            mining_gamma: MINING_GAMMA,
            mining_epsilon: MINING_EPSILON,
            mean_ns_per_node: 1.0,
            points: points
                .iter()
                .map(|&(n_conds, secs)| point(n_conds, 3000, 0.0, &mut secs.to_vec(), &stats))
                .collect(),
        }
    }

    #[test]
    fn check_fails_when_no_point_matches() {
        let base = sweep_of(&[(10, &[0.1]), (40, &[0.1])]);
        let fresh = sweep_of(&[(20, &[0.1]), (30, &[0.1])]);
        let err = compare(&fresh, &base, DEFAULT_THRESHOLD).unwrap_err();
        assert!(err.contains("nothing compared"), "{err}");
    }

    #[test]
    fn check_counts_only_matched_points() {
        let base = sweep_of(&[(20, &[0.100]), (40, &[0.100])]);
        let fresh = sweep_of(&[(20, &[0.120]), (30, &[0.999])]);
        assert_eq!(compare(&fresh, &base, DEFAULT_THRESHOLD), Ok(1));
        let slow = sweep_of(&[(20, &[0.151]), (30, &[0.100])]);
        let err = compare(&slow, &base, DEFAULT_THRESHOLD).unwrap_err();
        assert!(err.contains("REGRESSION #cond=20"), "{err}");
    }

    /// The gate reads the median repetition: one repetition slowed 10× by
    /// the host leaves a point's time where the others put it.
    #[test]
    fn one_slow_repetition_does_not_fail_the_check() {
        let base = sweep_of(&[(10, &[0.005; 5])]);
        let fresh = sweep_of(&[(10, &[0.005, 0.0052, 0.05, 0.0049, 0.0051])]);
        assert_eq!(compare(&fresh, &base, DEFAULT_THRESHOLD), Ok(1));
    }

    /// A slowdown every repetition shares is a regression.
    #[test]
    fn steady_slowdown_fails_the_check() {
        let base = sweep_of(&[(10, &[0.005; 5])]);
        let fresh = sweep_of(&[(10, &[0.008, 0.0081, 0.0079, 0.008, 0.008])]);
        let err = compare(&fresh, &base, DEFAULT_THRESHOLD).unwrap_err();
        assert!(err.contains("REGRESSION #cond=10"), "{err}");
        assert!(err.contains("1.60x"), "{err}");
    }
}
