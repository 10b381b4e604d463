//! Instrumentation hooks for the enumeration tree.
//!
//! The paper's Figure 6 annotates every edge of the representative-chain
//! enumeration tree with the pruning strategy applied. [`SyncMineObserver`]
//! exposes those events so tests can reproduce the tree exactly and so users
//! can trace why a parameter setting returns nothing.

use std::sync::Mutex;

use regcluster_matrix::CondId;
use serde::{Deserialize, Serialize};

use crate::cluster::RegCluster;
use crate::engine::lock;

/// The pruning strategies of §4 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruneRule {
    /// (1) MinG pruning — fewer than `MinG` member genes remain.
    MinGenes,
    /// (2) MinC pruning is applied per gene while generating candidates, so
    /// it surfaces as a prune only where it cuts a whole subtree: at a root
    /// none of whose genes can reach MinC conditions, and at a node below
    /// MinC left with no candidate.
    MinConds,
    /// (3)(a) Redundant pruning — fewer than `MinG / 2` p-members, so the
    /// chain cannot be representative.
    FewPMembers,
    /// (3)(b) Redundant pruning — the validated cluster was already emitted
    /// (overlapping sliding windows), so the subtree is redundant.
    Duplicate,
    /// (4) Coherence pruning — no sliding window of `MinG` coherent genes.
    Coherence,
}

impl PruneRule {
    /// Every rule, in paper order. The canonical iteration order for
    /// per-rule metric registration and reporting.
    pub const ALL: [PruneRule; 5] = [
        PruneRule::MinGenes,
        PruneRule::MinConds,
        PruneRule::FewPMembers,
        PruneRule::Duplicate,
        PruneRule::Coherence,
    ];

    /// The stable snake_case name used as the `rule` label value on
    /// exported metrics (see `docs/OBSERVABILITY.md`).
    pub fn as_label(self) -> &'static str {
        match self {
            PruneRule::MinGenes => "min_genes",
            PruneRule::MinConds => "min_conds",
            PruneRule::FewPMembers => "few_p_members",
            PruneRule::Duplicate => "duplicate",
            PruneRule::Coherence => "coherence",
        }
    }

    /// The position of this rule in [`PruneRule::ALL`]; used to index
    /// pre-registered per-rule instrument arrays without a lookup.
    pub fn index(self) -> usize {
        match self {
            PruneRule::MinGenes => 0,
            PruneRule::MinConds => 1,
            PruneRule::FewPMembers => 2,
            PruneRule::Duplicate => 3,
            PruneRule::Coherence => 4,
        }
    }
}

/// Receiver for enumeration-tree events from concurrent workers: the one
/// interface every engine reports through. All methods default to no-ops.
///
/// Methods take `&self` and implementations must be [`Sync`] because every
/// worker reports through the same instance. Events from different workers
/// interleave arbitrarily; only the per-worker sub-streams are in
/// depth-first order (a one-thread run is one sub-stream). For aggregate
/// counts read the run's [`MiningStats`] instead: each engine worker counts
/// into its own and the engine merges them at join.
pub trait SyncMineObserver: Sync {
    /// A node (partial representative chain) was entered with `n_p`
    /// p-members and `n_n` n-members.
    fn node_entered(&self, _chain: &[CondId], _n_p: usize, _n_n: usize) {}
    /// The subtree at `chain` was pruned by `rule`.
    fn pruned(&self, _chain: &[CondId], _rule: PruneRule) {}
    /// A validated reg-cluster was emitted.
    fn cluster_emitted(&self, _cluster: &RegCluster) {}
}

/// The default, zero-cost observer.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopObserver;

impl SyncMineObserver for NoopObserver {}

/// A recorded enumeration event.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// Node entered: chain, p-member count, n-member count.
    Node(Vec<CondId>, usize, usize),
    /// Subtree pruned at `chain` by the given rule.
    Pruned(Vec<CondId>, PruneRule),
    /// Cluster emitted.
    Emitted(RegCluster),
}

/// An observer that records every event, for tests and debugging.
#[derive(Debug, Default)]
pub struct TraceObserver {
    /// The events in arrival order: depth-first on a one-thread run.
    pub events: Mutex<Vec<TraceEvent>>,
}

impl TraceObserver {
    /// The chains of the events `pick` selects, in arrival order.
    fn chains(&self, pick: impl Fn(&TraceEvent) -> Option<&Vec<CondId>>) -> Vec<Vec<CondId>> {
        lock(&self.events)
            .iter()
            .filter_map(pick)
            .cloned()
            .collect()
    }

    /// All chains at which a given rule fired.
    pub fn pruned_by(&self, rule: PruneRule) -> Vec<Vec<CondId>> {
        self.chains(|e| match e {
            TraceEvent::Pruned(chain, r) if *r == rule => Some(chain),
            _ => None,
        })
    }

    /// All node chains entered, in arrival order.
    pub fn nodes(&self) -> Vec<Vec<CondId>> {
        self.chains(|e| match e {
            TraceEvent::Node(chain, _, _) => Some(chain),
            _ => None,
        })
    }

    /// Number of emitted clusters.
    pub fn n_emitted(&self) -> usize {
        lock(&self.events)
            .iter()
            .filter(|e| matches!(e, TraceEvent::Emitted(_)))
            .count()
    }
}

impl SyncMineObserver for TraceObserver {
    fn node_entered(&self, chain: &[CondId], n_p: usize, n_n: usize) {
        lock(&self.events).push(TraceEvent::Node(chain.to_vec(), n_p, n_n));
    }
    fn pruned(&self, chain: &[CondId], rule: PruneRule) {
        lock(&self.events).push(TraceEvent::Pruned(chain.to_vec(), rule));
    }
    fn cluster_emitted(&self, cluster: &RegCluster) {
        lock(&self.events).push(TraceEvent::Emitted(cluster.clone()));
    }
}

/// Aggregate search-effort counters of a run. Each engine worker counts
/// into its own at every node, prune and emission, and the engine merges
/// them at join, so a run pays no shared write per event.
///
/// The per-depth node counts and the rule-2 count feed the registry's
/// instruments ([`MetricsObserver::record_run`](crate::MetricsObserver::record_run))
/// but stay out of the serialized form and of [`summary`](Self::summary),
/// whose shape predates them.
#[derive(Debug, Default, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MiningStats {
    /// Enumeration-tree nodes entered.
    pub nodes: usize,
    /// Deepest chain reached.
    pub max_depth: usize,
    /// Clusters emitted.
    pub emitted: usize,
    /// Subtrees cut by pruning (1) — MinG.
    pub pruned_min_genes: usize,
    /// Subtrees cut by pruning (3)(a) — too few p-members.
    pub pruned_few_p: usize,
    /// Subtrees cut by pruning (3)(b) — duplicate clusters.
    pub pruned_duplicate: usize,
    /// Candidates cut by pruning (4) — no coherent window.
    pub pruned_coherence: usize,
    /// Members walked by the nodes' candidate scans (step 4), summed over
    /// the nodes that reached it.
    #[serde(default)]
    pub members: usize,
    /// Qualified (member, candidate) pairs bucketed by the nodes'
    /// candidate scans — the work of step 5 before any window test.
    #[serde(default)]
    pub pairs: usize,
    /// `(score, index)` keys handed to the per-candidate sort: the scores
    /// the ε-cell filter could not rule out of a MinG-window.
    #[serde(default)]
    pub sorted_keys: usize,
    /// Maximal ε-windows of at least MinG genes that became children
    /// (depth ≥ 2; a depth-1 candidate becomes a child without a window
    /// scan).
    #[serde(default)]
    pub windows: usize,
    /// Subtrees cut by pruning (2) — MinC.
    #[serde(skip)]
    pub pruned_min_conds: usize,
    /// `depth_nodes[d]` is the number of nodes entered with a chain of `d`
    /// conditions (slot 0 stays 0); grown to `max_depth + 1` slots.
    #[serde(skip)]
    pub depth_nodes: Vec<usize>,
}

impl MiningStats {
    /// Counts a node entered with a chain of `depth` conditions.
    #[inline]
    pub fn count_node(&mut self, depth: usize) {
        self.nodes += 1;
        if depth >= self.depth_nodes.len() {
            self.depth_nodes.resize(depth + 1, 0);
            self.max_depth = self.max_depth.max(depth);
        }
        self.depth_nodes[depth] += 1;
    }

    /// Counts a subtree cut by `rule`.
    #[inline]
    pub fn count_prune(&mut self, rule: PruneRule) {
        *match rule {
            PruneRule::MinGenes => &mut self.pruned_min_genes,
            PruneRule::MinConds => &mut self.pruned_min_conds,
            PruneRule::FewPMembers => &mut self.pruned_few_p,
            PruneRule::Duplicate => &mut self.pruned_duplicate,
            PruneRule::Coherence => &mut self.pruned_coherence,
        } += 1;
    }

    /// Subtrees cut by `rule`.
    pub fn pruned(&self, rule: PruneRule) -> usize {
        match rule {
            PruneRule::MinGenes => self.pruned_min_genes,
            PruneRule::MinConds => self.pruned_min_conds,
            PruneRule::FewPMembers => self.pruned_few_p,
            PruneRule::Duplicate => self.pruned_duplicate,
            PruneRule::Coherence => self.pruned_coherence,
        }
    }

    /// Folds another accumulator into this one: counters add, `max_depth`
    /// takes the maximum. Used by the parallel engine to combine per-worker
    /// statistics at join; because workers partition the enumeration tree,
    /// the merged totals equal a one-thread run's.
    pub fn merge(&mut self, other: &MiningStats) {
        self.nodes += other.nodes;
        self.max_depth = self.max_depth.max(other.max_depth);
        self.emitted += other.emitted;
        self.pruned_min_genes += other.pruned_min_genes;
        self.pruned_few_p += other.pruned_few_p;
        self.pruned_duplicate += other.pruned_duplicate;
        self.pruned_coherence += other.pruned_coherence;
        self.members += other.members;
        self.pairs += other.pairs;
        self.sorted_keys += other.sorted_keys;
        self.windows += other.windows;
        self.pruned_min_conds += other.pruned_min_conds;
        if self.depth_nodes.len() < other.depth_nodes.len() {
            self.depth_nodes.resize(other.depth_nodes.len(), 0);
        }
        for (mine, theirs) in self.depth_nodes.iter_mut().zip(&other.depth_nodes) {
            *mine += theirs;
        }
    }

    /// Human-readable one-line summary.
    pub fn summary(&self) -> String {
        format!(
            "{} nodes (max depth {}), {} clusters; pruned: {} MinG, {} few-p, {} duplicate, {} coherence; \
             {} members, {} pairs, {} sorted keys, {} windows",
            self.nodes,
            self.max_depth,
            self.emitted,
            self.pruned_min_genes,
            self.pruned_few_p,
            self.pruned_duplicate,
            self.pruned_coherence,
            self.members,
            self.pairs,
            self.sorted_keys,
            self.windows
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_observer_records_and_filters() {
        let t = TraceObserver::default();
        t.node_entered(&[1], 2, 1);
        t.pruned(&[1, 2], PruneRule::MinGenes);
        t.pruned(&[1, 3], PruneRule::Coherence);
        let c = RegCluster {
            chain: vec![1, 3, 4],
            p_members: vec![0],
            n_members: vec![],
        };
        t.cluster_emitted(&c);
        assert_eq!(t.nodes(), vec![vec![1]]);
        assert_eq!(t.pruned_by(PruneRule::MinGenes), vec![vec![1, 2]]);
        assert_eq!(t.pruned_by(PruneRule::Duplicate).len(), 0);
        assert_eq!(t.n_emitted(), 1);
    }

    #[test]
    fn stats_count_nodes_by_depth_and_prunes_by_rule() {
        let mut s = MiningStats::default();
        s.count_node(1);
        s.count_node(3);
        s.count_node(3);
        for rule in PruneRule::ALL {
            s.count_prune(rule);
        }
        s.count_prune(PruneRule::MinConds);
        assert_eq!(s.nodes, 3);
        assert_eq!(s.max_depth, 3);
        assert_eq!(s.depth_nodes, vec![0, 1, 0, 2]);
        assert_eq!(s.pruned_min_genes, 1);
        assert_eq!(s.pruned_coherence, 1);
        assert_eq!(s.pruned_few_p, 1);
        assert_eq!(s.pruned_duplicate, 1);
        assert_eq!(s.pruned(PruneRule::MinConds), 2);
        let txt = s.summary();
        assert!(txt.contains("3 nodes"));
        assert!(txt.contains("max depth 3"));
    }

    #[test]
    fn stats_merge_adds_counters_and_maxes_depth() {
        let mut a = MiningStats {
            nodes: 3,
            max_depth: 2,
            emitted: 1,
            pruned_min_genes: 4,
            pruned_few_p: 0,
            pruned_duplicate: 1,
            pruned_coherence: 2,
            members: 6,
            pairs: 10,
            sorted_keys: 4,
            windows: 2,
            pruned_min_conds: 1,
            depth_nodes: vec![0, 1, 2],
        };
        let b = MiningStats {
            nodes: 5,
            max_depth: 3,
            emitted: 0,
            pruned_min_genes: 1,
            pruned_few_p: 3,
            pruned_duplicate: 0,
            pruned_coherence: 1,
            members: 5,
            pairs: 7,
            sorted_keys: 0,
            windows: 1,
            pruned_min_conds: 2,
            depth_nodes: vec![0, 2, 2, 1],
        };
        a.merge(&b);
        assert_eq!(a.nodes, 8);
        assert_eq!(a.max_depth, 3);
        assert_eq!(a.emitted, 1);
        assert_eq!(a.pruned_min_genes, 5);
        assert_eq!(a.pruned_few_p, 3);
        assert_eq!(a.pruned_duplicate, 1);
        assert_eq!(a.pruned_coherence, 3);
        assert_eq!(a.members, 11);
        assert_eq!(a.pairs, 17);
        assert_eq!(a.sorted_keys, 4);
        assert_eq!(a.windows, 3);
        assert_eq!(a.pruned_min_conds, 3);
        assert_eq!(a.depth_nodes, vec![0, 3, 4, 1]);
    }

    #[test]
    fn noop_observer_is_silent() {
        let o = NoopObserver;
        o.node_entered(&[0], 0, 0);
        o.pruned(&[0], PruneRule::MinGenes);
    }
}
