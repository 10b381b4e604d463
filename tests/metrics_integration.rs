//! Cross-checks the registry instruments against an independent source,
//! the event stream. A `MetricsObserver` is filled from a run's merged
//! `MiningStats` (nodes, prunes, depths) and from each emission; a
//! `TraceObserver` records the same run's events. The two must agree,
//! including the rule-2 (`min_conds`) counter on a workload whose chains
//! die of unreachable MinC.

use regcluster_core::metrics::{MINE_EMITTED_METRIC, MINE_NODES_METRIC, MINE_PRUNED_METRIC};
use regcluster_core::{
    mine, MetricsObserver, MineRequest, Miner, MiningParams, PruneRule, RegCluster,
    SyncMineObserver, TraceObserver,
};
use regcluster_datagen::running_example;
use regcluster_matrix::{CondId, ExpressionMatrix};
use regcluster_obs::MetricsRegistry;

const NODES_HELP: &str = "Enumeration-tree nodes entered (partial representative chains expanded).";
const EMITTED_HELP: &str = "Validated reg-clusters emitted by the enumeration.";
const PRUNED_HELP: &str = "Subtrees cut by each pruning strategy of the paper's section 4.";

/// Reports every event to a metrics observer and to a trace.
struct Both<'a>(&'a MetricsObserver, &'a TraceObserver);

impl SyncMineObserver for Both<'_> {
    fn node_entered(&self, chain: &[CondId], n_p: usize, n_n: usize) {
        self.1.node_entered(chain, n_p, n_n);
    }
    fn pruned(&self, chain: &[CondId], rule: PruneRule) {
        self.1.pruned(chain, rule);
    }
    fn cluster_emitted(&self, cluster: &RegCluster) {
        self.0.cluster_emitted(cluster);
        self.1.cluster_emitted(cluster);
    }
}

/// Mines `m` at `threads` workers as `regcluster mine` does: the metrics
/// observer attached, the run's stats recorded when it returns. Returns
/// the filled registry, the run's trace and its clusters.
fn mine_observed(
    m: &ExpressionMatrix,
    params: &MiningParams,
    threads: usize,
) -> (MetricsRegistry, TraceObserver, Vec<RegCluster>) {
    let registry = MetricsRegistry::new();
    let metrics = MetricsObserver::register(&registry);
    let trace = TraceObserver::default();
    let miner = Miner::new(m, params).unwrap();
    let request = MineRequest::new(&miner).threads(threads);
    let (report, _) = request.observer(&Both(&metrics, &trace)).collect().unwrap();
    metrics.record_run(&report.stats);
    (registry, trace, report.clusters)
}

fn pruned(registry: &MetricsRegistry, rule: PruneRule) -> u64 {
    let labels = [("rule", rule.as_label())];
    registry
        .counter(MINE_PRUNED_METRIC, PRUNED_HELP, &labels)
        .get()
}

#[test]
fn metrics_observer_agrees_with_mining_stats() {
    let m = running_example();
    let params = MiningParams::new(3, 5, 0.15, 0.1).unwrap();
    let (registry, trace, clusters) = mine_observed(&m, &params, 2);
    assert_eq!(clusters, mine(&m, &params).unwrap());

    let counter = |name: &str, help: &str| registry.counter(name, help, &[]).get();
    let depths: Vec<usize> = trace.nodes().iter().map(Vec::len).collect();
    assert_eq!(counter(MINE_NODES_METRIC, NODES_HELP), depths.len() as u64);
    assert_eq!(
        counter(MINE_EMITTED_METRIC, EMITTED_HELP),
        trace.n_emitted() as u64
    );
    for rule in PruneRule::ALL {
        assert_eq!(
            pruned(&registry, rule),
            trace.pruned_by(rule).len() as u64,
            "{rule:?}"
        );
    }

    // The depth histogram: every cumulative bucket, the count and the sum.
    let text = registry.encode_prometheus();
    let mut buckets = 0;
    for line in text.lines() {
        let Some(rest) = line.strip_prefix("regcluster_mine_node_depth_bucket{le=\"") else {
            continue;
        };
        let (le, count) = rest.split_once("\"} ").unwrap();
        let le: f64 = if le == "+Inf" {
            f64::INFINITY
        } else {
            le.parse().unwrap()
        };
        let want = depths.iter().filter(|&&d| d as f64 <= le).count();
        assert_eq!(count, want.to_string(), "bucket le={le}");
        buckets += 1;
    }
    assert!(buckets > 1, "{text}");
    let sum: usize = depths.iter().sum();
    assert!(text.contains(&format!(
        "regcluster_mine_node_depth_count {}\n",
        depths.len()
    )));
    assert!(
        text.contains(&format!("regcluster_mine_node_depth_sum {sum}\n")),
        "{text}"
    );
}

#[test]
fn min_conds_pruning_is_observable() {
    // MinC = 6 exceeds the running example's deepest 5-condition chain:
    // every surviving branch eventually runs out of extensible candidates
    // short of MinC, which is exactly the rule-2 subtree cut.
    let m = running_example();
    let params = MiningParams::new(3, 6, 0.15, 0.1).unwrap();
    let (registry, trace, clusters) = mine_observed(&m, &params, 1);
    assert!(clusters.is_empty(), "MinC = 6 must starve the search");

    let min_conds = pruned(&registry, PruneRule::MinConds);
    assert!(
        min_conds > 0,
        "rule-2 cuts must be visible on a MinC-starved run"
    );
    assert_eq!(min_conds, trace.pruned_by(PruneRule::MinConds).len() as u64);
}
