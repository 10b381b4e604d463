#![warn(missing_docs)]

//! Shared harness utilities for the experiment binaries.
//!
//! Every experiment binary prints a human-readable table to stdout and
//! writes a JSON copy of the same numbers into the results directory
//! (`REGCLUSTER_RESULTS` or `./results`), so EXPERIMENTS.md entries are
//! regenerable and diffable.

pub mod plot;

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use regcluster_core::{
    finalize_clusters, mine_prepared_roots_to_sink, EngineConfig, MineControl, Miner, MiningParams,
    RegCluster, SyncMineObserver, VecSink,
};
use serde::Serialize;

/// One point of a runtime series (a Figure 7 panel).
#[derive(Debug, Clone, Serialize)]
pub struct SeriesPoint {
    /// The swept parameter value.
    pub x: f64,
    /// Mean wall-clock mining time in seconds.
    pub runtime_s: f64,
    /// Clusters found at this point (last repetition).
    pub n_clusters: usize,
}

/// Mines every root of `miner` with the static per-root split that the
/// work-stealing engine replaced, for the thread-scaling comparison: one
/// worker per entry of `observers` takes whole roots from a shared counter
/// and mines each with a one-thread [`mine_prepared_roots_to_sink`] run,
/// reporting to its own observer, so no subtree below a root is ever
/// shared. Subtree outputs are disjoint by root, so the result, finalized
/// under `params` (the miner's), is the set the engine collects.
///
/// # Panics
///
/// Panics if a root's run fails (a worker panic).
pub fn mine_static_roots<O: SyncMineObserver>(
    miner: &Miner<'_>,
    params: &MiningParams,
    observers: &[O],
) -> Vec<RegCluster> {
    let next_root = AtomicUsize::new(0);
    let sink = VecSink::new();
    std::thread::scope(|scope| {
        for observer in observers {
            let (next_root, sink) = (&next_root, &sink);
            scope.spawn(move || loop {
                let root = next_root.fetch_add(1, Ordering::Relaxed);
                if root >= miner.n_conditions() {
                    break;
                }
                let config = EngineConfig::new(1);
                mine_prepared_roots_to_sink(
                    miner,
                    &[root],
                    &config,
                    &MineControl::new(),
                    observer,
                    sink,
                )
                .expect("static-split mining succeeds");
            });
        }
    });
    let mut clusters = sink.into_clusters();
    finalize_clusters(&mut clusters, params);
    clusters
}

/// Times a closure, returning its result and elapsed seconds.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// The directory experiment artifacts are written to
/// (`$REGCLUSTER_RESULTS`, default `./results`), created on demand.
pub fn results_dir() -> PathBuf {
    let dir = std::env::var_os("REGCLUSTER_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"));
    std::fs::create_dir_all(&dir).expect("cannot create results directory");
    dir
}

/// Serializes `value` as pretty JSON into `results_dir()/name`.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let path = results_dir().join(name);
    let json = serde_json::to_string_pretty(value).expect("experiment results serialize");
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("cannot write {path:?}: {e}"));
    eprintln!("wrote {}", path.display());
}

/// Writes raw text (e.g. a profile CSV) into `results_dir()/name`.
pub fn write_text(name: &str, text: &str) {
    let path = results_dir().join(name);
    std::fs::write(&path, text).unwrap_or_else(|e| panic!("cannot write {path:?}: {e}"));
    eprintln!("wrote {}", path.display());
}

/// True when `--quick` was passed (reduced sweeps for smoke testing).
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Formats a series as an aligned text table.
pub fn series_table(header: &str, points: &[SeriesPoint]) -> String {
    let mut out = format!("{header:>12}  runtime (s)  clusters\n");
    for p in points {
        out.push_str(&format!(
            "{:>12}  {:>11.3}  {:>8}\n",
            p.x, p.runtime_s, p.n_clusters
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_measures_and_passes_through() {
        let (v, secs) = time(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }

    #[test]
    fn series_table_formats_rows() {
        let pts = vec![SeriesPoint {
            x: 1000.0,
            runtime_s: 0.5,
            n_clusters: 30,
        }];
        let t = series_table("#genes", &pts);
        assert!(t.contains("#genes"));
        assert!(t.contains("1000"));
        assert!(t.contains("0.500"));
        assert!(t.contains("30"));
    }
}
