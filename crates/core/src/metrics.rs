//! Registry-backed mining telemetry.
//!
//! [`MetricsObserver`] fills pre-registered [`regcluster_obs`] instruments:
//! a node counter, per-rule subtree-kill counters and a node-depth
//! histogram, recorded once from a finished run's merged [`MiningStats`]
//! ([`record_run`](MetricsObserver::record_run)), plus an emitted counter
//! and a time-to-emission histogram, recorded per emission because they
//! need each emission's time. So the engine's hot path makes no shared
//! write per node or per prune, and an emission costs a handful of relaxed
//! atomic writes: no locks, no registry lookups and no heap allocation
//! (the workspace's `tests/alloc.rs` pins this at zero steady-state
//! allocations).

use regcluster_obs::{Clock, Counter, Histogram, MetricsRegistry, MonotonicClock};

use crate::cluster::RegCluster;
use crate::observer::{MiningStats, PruneRule, SyncMineObserver};

/// Name of the nodes-entered counter.
pub const MINE_NODES_METRIC: &str = "regcluster_mine_nodes_total";
/// Name of the clusters-emitted counter.
pub const MINE_EMITTED_METRIC: &str = "regcluster_mine_clusters_emitted_total";
/// Name of the per-rule pruned-subtree counter (labelled by `rule`).
pub const MINE_PRUNED_METRIC: &str = "regcluster_mine_pruned_subtrees_total";
/// Name of the node-depth histogram.
pub const MINE_NODE_DEPTH_METRIC: &str = "regcluster_mine_node_depth";
/// Name of the time-to-emission histogram.
pub const MINE_EMISSION_LATENCY_METRIC: &str = "regcluster_mine_emission_latency_seconds";

/// Chain-length bucket bounds for [`MINE_NODE_DEPTH_METRIC`]. Depth 1 is
/// a root; MinC-sized chains land mid-range on realistic parameters.
const DEPTH_BOUNDS: [f64; 10] = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 12.0, 16.0];

/// Seconds-from-run-start bucket bounds for
/// [`MINE_EMISSION_LATENCY_METRIC`].
const LATENCY_BOUNDS: [f64; 10] = [0.0001, 0.001, 0.01, 0.1, 0.5, 1.0, 5.0, 15.0, 60.0, 300.0];

/// Registry instruments for mining runs: attach it as the run's
/// [`SyncMineObserver`] for the emission instruments (its cells are
/// atomics, so concurrent workers reporting through one instance lose
/// nothing), and hand it the run's stats when enumeration returns.
///
/// Handles are resolved once, at [`register`](MetricsObserver::register)
/// time. The clock is generic so tests can drive time by hand
/// ([`ManualClock`](regcluster_obs::ManualClock)); production uses the
/// default [`MonotonicClock`].
pub struct MetricsObserver<C: Clock + Sync = MonotonicClock> {
    clock: C,
    /// Microsecond timestamp (on `clock`) when this observer was created;
    /// emission latency is measured from here.
    epoch_micros: u64,
    nodes: Counter,
    emitted: Counter,
    pruned: [Counter; PruneRule::ALL.len()],
    depth: Histogram,
    emission_latency: Histogram,
}

impl MetricsObserver<MonotonicClock> {
    /// Registers the mining instruments in `registry` and returns an
    /// observer timing emissions against a fresh monotonic clock.
    pub fn register(registry: &MetricsRegistry) -> Self {
        Self::with_clock(registry, MonotonicClock::new())
    }
}

impl<C: Clock + Sync> MetricsObserver<C> {
    /// As [`register`](MetricsObserver::register), but measuring time on
    /// the given clock.
    pub fn with_clock(registry: &MetricsRegistry, clock: C) -> Self {
        let nodes = registry.counter(
            MINE_NODES_METRIC,
            "Enumeration-tree nodes entered (partial representative chains expanded).",
            &[],
        );
        let emitted = registry.counter(
            MINE_EMITTED_METRIC,
            "Validated reg-clusters emitted by the enumeration.",
            &[],
        );
        let pruned = PruneRule::ALL.map(|rule| {
            registry.counter(
                MINE_PRUNED_METRIC,
                "Subtrees cut by each pruning strategy of the paper's section 4.",
                &[("rule", rule.as_label())],
            )
        });
        let depth = registry.histogram(
            MINE_NODE_DEPTH_METRIC,
            "Chain length (condition count) of each enumeration-tree node entered.",
            &[],
            &DEPTH_BOUNDS,
        );
        let emission_latency = registry.histogram(
            MINE_EMISSION_LATENCY_METRIC,
            "Seconds from the start of the mining run to each cluster emission.",
            &[],
            &LATENCY_BOUNDS,
        );
        let epoch_micros = clock.now_micros();
        Self {
            clock,
            epoch_micros,
            nodes,
            emitted,
            pruned,
            depth,
            emission_latency,
        }
    }

    /// Records a finished run's node, prune and depth counts: what the
    /// instruments would hold had every node and prune event been counted
    /// as it happened. Record each run once; an engine without stats (a
    /// baseline) records none.
    pub fn record_run(&self, stats: &MiningStats) {
        self.nodes.add(stats.nodes as u64);
        for rule in PruneRule::ALL {
            self.pruned[rule.index()].add(stats.pruned(rule) as u64);
        }
        for (depth, &n) in stats.depth_nodes.iter().enumerate() {
            if n > 0 {
                self.depth.observe_n(depth as f64, n as u64);
            }
        }
    }
}

impl<C: Clock + Sync> SyncMineObserver for MetricsObserver<C> {
    fn cluster_emitted(&self, _cluster: &RegCluster) {
        self.emitted.inc();
        let elapsed = self.clock.now_micros().saturating_sub(self.epoch_micros);
        self.emission_latency.observe(elapsed as f64 / 1e6);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regcluster_obs::ManualClock;

    fn counter(registry: &MetricsRegistry, name: &str, help: &str, rule: Option<&str>) -> u64 {
        let labels: Vec<(&str, &str)> = rule.map(|r| ("rule", r)).into_iter().collect();
        registry.counter(name, help, &labels).get()
    }

    #[test]
    fn run_stats_and_emissions_land_in_the_right_instruments() {
        let registry = MetricsRegistry::new();
        let observer = MetricsObserver::with_clock(&registry, ManualClock::new());
        let mut stats = MiningStats::default();
        stats.count_node(1);
        stats.count_node(3);
        stats.count_node(3);
        stats.count_prune(PruneRule::Coherence);
        stats.count_prune(PruneRule::MinGenes);
        stats.count_prune(PruneRule::Coherence);
        stats.count_prune(PruneRule::MinConds);
        observer.record_run(&stats);
        let cluster = RegCluster {
            chain: vec![3, 7, 1],
            p_members: vec![0],
            n_members: vec![],
        };
        observer.cluster_emitted(&cluster);

        let node_help = "Enumeration-tree nodes entered (partial representative chains expanded).";
        assert_eq!(counter(&registry, MINE_NODES_METRIC, node_help, None), 3);
        let pruned_help = "Subtrees cut by each pruning strategy of the paper's section 4.";
        for (rule, want) in [
            ("coherence", 2),
            ("min_genes", 1),
            ("min_conds", 1),
            ("duplicate", 0),
        ] {
            let got = counter(&registry, MINE_PRUNED_METRIC, pruned_help, Some(rule));
            assert_eq!(got, want, "{rule}");
        }
        let text = registry.encode_prometheus();
        assert!(text.contains("regcluster_mine_clusters_emitted_total 1"));
        assert!(text.contains("regcluster_mine_node_depth_bucket{le=\"1\"} 1"));
        assert!(text.contains("regcluster_mine_node_depth_bucket{le=\"3\"} 3"));
        assert!(text.contains("regcluster_mine_node_depth_count 3"));
        assert!(text.contains("regcluster_mine_node_depth_sum 7"), "{text}");
    }

    #[test]
    fn emission_latency_measured_from_construction() {
        let registry = MetricsRegistry::new();
        let clock = ManualClock::new();
        clock.advance(10_000_000); // epoch ≠ 0
        let observer = MetricsObserver::with_clock(&registry, clock);
        observer.clock.advance(2_000_000); // 2 s into the run
        let cluster = RegCluster {
            chain: vec![0, 1],
            p_members: vec![0],
            n_members: vec![],
        };
        observer.cluster_emitted(&cluster);
        let h = registry.histogram(
            MINE_EMISSION_LATENCY_METRIC,
            "Seconds from the start of the mining run to each cluster emission.",
            &[],
            &LATENCY_BOUNDS,
        );
        assert_eq!(h.count(), 1);
        assert!((h.sum() - 2.0).abs() < 1e-9);
    }
}
