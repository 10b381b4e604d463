//! The reg-cluster mining algorithm (§4, Figure 5 of the paper).
//!
//! The miner performs a **bi-directional depth-first search** over
//! *representative regulation chains*. A node of the enumeration tree is a
//! partial chain `C.Y = c_{k1} ↰ … ↰ c_{km}` together with its member genes:
//! **p-members** whose expression strictly increases along the chain (each
//! step crossing a regulation pointer of their `RWave^γ` model) and
//! **n-members** whose expression strictly decreases (they follow the
//! inverted chain — the negatively co-regulated genes). Extension candidates
//! are the regulation successors of the chain tail in the p-members' models
//! (Lemma 3.1); each candidate's gene set is sorted by coherence score
//! (Equation 7) and partitioned into maximal ε-windows of at least `MinG`
//! genes, every window spawning a child node.
//!
//! The four pruning strategies of the paper are implemented exactly:
//!
//! 1. **MinG pruning** — a node with fewer than `MinG` member genes is
//!    abandoned (extension only sheds genes);
//! 2. **MinC pruning** — a gene whose longest possible chain through the
//!    candidate falls short of `MinC` is dropped (powered by the
//!    precomputed max-chain tables of [`RWaveModel`]);
//! 3. **Redundant pruning** — (a) a node whose p-members number fewer than
//!    `MinG/2` can never be representative (`|pX| ≥ |nX|` must hold at
//!    output, so `2·|pX| ≥ MinG`); (b) a node whose validated cluster was
//!    already emitted roots a redundant subtree;
//! 4. **Coherence pruning** — a candidate with no valid ε-window is skipped.
//!
//! Thanks to (2) and (3)(a), only p-members need to be scanned for extension
//! candidates: a candidate supported solely by n-members leads to a node
//! with zero p-members, which (3)(a) prunes immediately.

use regcluster_matrix::{CondId, ExpressionMatrix, GeneId};

use crate::bitset::BitMask;
use crate::coherence::{hot_keys_into, maximal_windows_into};
use crate::engine::MineRequest;
use crate::intern::ClusterView;
use crate::observer::{MiningStats, PruneRule, SyncMineObserver};
use crate::rwave::RWaveModel;
use crate::scratch::{ChildBuf, Lanes, NodeScratch};
use crate::tables::HotTables;
use crate::{CoreError, MiningParams, RegCluster};

/// Direction in which a gene follows the chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Dir {
    /// p-member: expression increases along the chain.
    Fwd,
    /// n-member: expression decreases along the chain (inverted chain).
    Bwd,
}

/// A gene participating in the current node.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Member {
    pub(crate) gene: GeneId,
    pub(crate) dir: Dir,
    /// The baseline difference `d[c_{k2}] − d[c_{k1}]` (signed; negative for
    /// n-members). Set when the chain reaches length 2; `0.0` before that.
    pub(crate) denom: f64,
}

/// What the emission receiver made of a validated cluster.
///
/// The receiver sees a borrowed [`ClusterView`] and is responsible for
/// duplicate elimination; a fresh view is materialized into a
/// [`RegCluster`] exactly once, by the receiver, which also reports
/// [`SyncMineObserver::cluster_emitted`] for it.
pub(crate) enum EmitOutcome {
    /// First sighting; the subtree continues.
    Fresh,
    /// First sighting, but the receiver wants no more clusters (cluster cap
    /// reached) — the expansion yields no children and flags a stop.
    FreshAndStop,
    /// The identical cluster was emitted before — pruning (3)(b), the whole
    /// subtree is redundant.
    Duplicate,
}

/// The `RWave^γ` model of gene `g` under `params`' threshold.
fn model_of(matrix: &ExpressionMatrix, params: &MiningParams, g: GeneId) -> RWaveModel {
    let row = matrix.row(g);
    RWaveModel::build(row, params.gamma.resolve(row))
}

/// The prepared input of a mining run: indexes the per-gene `RWave^γ`
/// models once; every [`MineRequest`] over it reuses the index.
pub struct Miner<'a> {
    matrix: &'a ExpressionMatrix,
    params: &'a MiningParams,
    /// Flat struct-of-arrays projection of the models for the hot path
    /// (see [`HotTables`]); never mutated afterwards. The models
    /// themselves are not kept: the hot path reads only these tables, and
    /// the models' six small vectors per gene would more than double the
    /// miner's heap.
    tables: HotTables,
}

impl<'a> Miner<'a> {
    /// Builds the `RWave^γ` models for every gene and indexes them.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParams`] when the parameters fail
    /// validation.
    pub fn new(matrix: &'a ExpressionMatrix, params: &'a MiningParams) -> Result<Self, CoreError> {
        params.validate()?;
        let tables = HotTables::build(
            (0..matrix.n_genes()).map(|g| model_of(matrix, params, g)),
            matrix.n_conditions(),
        );
        Ok(Self {
            matrix,
            params,
            tables,
        })
    }

    /// The per-gene models, built afresh (for inspection and reporting).
    pub fn models(&self) -> Vec<RWaveModel> {
        (0..self.matrix.n_genes())
            .map(|g| model_of(self.matrix, self.params, g))
            .collect()
    }

    /// The matrix this miner was built over (for store and checkpoint
    /// provenance).
    pub fn matrix(&self) -> &'a ExpressionMatrix {
        self.matrix
    }

    /// The parameters this miner was built with (for store and checkpoint
    /// provenance).
    pub fn params(&self) -> &'a MiningParams {
        self.params
    }

    /// Number of conditions in the underlying matrix — one enumeration
    /// root per condition.
    pub fn n_conditions(&self) -> usize {
        self.matrix.n_conditions()
    }

    /// Writes the level-1 member set of `root` into `out` (cleared first):
    /// every gene whose max-chain table allows `MinC` conditions in the
    /// given direction.
    pub(crate) fn root_members_into(&self, root: CondId, out: &mut Vec<Member>) {
        out.clear();
        let t = &self.tables;
        let idx = t.need_index(self.params.min_conds);
        // `maxlen_fwd(r) ≥ MinC ⟺ r < fwd_ge[MinC]` and
        // `maxlen_bwd(r) ≥ MinC ⟺ r ≥ bwd_start[MinC]` — the threshold
        // tables make the root sweep a flat sequential walk.
        for g in 0..self.matrix.n_genes() {
            let r = t.rank_of(g, root) as u32;
            let fwd_cut = t.fwd_cutoff(g, idx);
            let bwd_first = t.bwd_first(g, idx);
            if r < fwd_cut {
                out.push(Member {
                    gene: g,
                    dir: Dir::Fwd,
                    denom: 0.0,
                });
            }
            if r >= bwd_first {
                out.push(Member {
                    gene: g,
                    dir: Dir::Bwd,
                    denom: 0.0,
                });
            }
        }
    }

    /// The level-1 member set of `root` as an owned list (used to seed the
    /// engine's shared queue, where tasks must own their members).
    pub(crate) fn root_members(&self, root: CondId) -> Vec<Member> {
        let mut out = Vec::new();
        self.root_members_into(root, &mut out);
        out
    }

    /// The genes in `root`'s level-1 member set, as `(gene, forward)`
    /// pairs in gene order. This is exactly the membership the delta
    /// layer's per-root fingerprint hashes
    /// ([`root_fingerprints`](crate::delta::root_fingerprints)) — exposed
    /// so property tests can verify fingerprint stability claims (a
    /// permutation of *non-member* rows must not disturb a root's
    /// fingerprint) without reaching into crate internals.
    pub fn root_member_genes(&self, root: CondId) -> Vec<(usize, bool)> {
        self.root_members(root)
            .into_iter()
            .map(|m| (m.gene, m.dir == Dir::Fwd))
            .collect()
    }

    /// Expands one enumeration node: counts its node, prune, emission and
    /// work events into `stats` and reports the node and prune events to
    /// `observer`, offers a validated representative cluster to `try_emit`
    /// (as a borrowed [`ClusterView`]; the receiver materializes fresh
    /// clusters and reports them emitted), and writes the children into
    /// `children` in depth-first order. Returns `true` when the receiver
    /// asked the whole run to stop.
    /// This is the single copy of the paper's Figure 5 node semantics; the
    /// [`engine`](crate::engine) worker loop is its one caller.
    ///
    /// All working memory comes from `scratch` and `children` (cleared on
    /// entry, capacity retained), so steady-state calls allocate nothing.
    ///
    /// `chain` is mutated (push/pop of candidate conditions) to report prune
    /// events at child paths, but is always restored before returning.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn expand_node(
        &self,
        chain: &mut Vec<CondId>,
        members: &[Member],
        scratch: &mut NodeScratch,
        children: &mut ChildBuf,
        stats: &mut MiningStats,
        observer: &dyn SyncMineObserver,
        try_emit: &mut dyn FnMut(&ClusterView<'_>) -> EmitOutcome,
    ) -> bool {
        children.clear();
        let NodeScratch {
            cand,
            ranges,
            counts,
            offsets,
            lanes,
            cells,
            keys,
            hs,
            windows,
            p_genes,
            n_genes,
            genes,
        } = scratch;

        let n_fwd = members.iter().filter(|m| m.dir == Dir::Fwd).count();
        let n_bwd = members.len() - n_fwd;
        // At depth 1 a gene may appear once per direction; count genes, not
        // entries (members are generated gene-ascending there, and are
        // unique per gene from depth 2 on).
        let distinct = if chain.len() == 1 {
            count_distinct_genes(members)
        } else {
            members.len()
        };
        stats.count_node(chain.len());
        observer.node_entered(chain, n_fwd, n_bwd);

        // Pruning (1): MinG — except at level 1, where the member set was
        // filtered solely by the max-chain tables (`root_members_into`
        // admits a gene iff MinC is reachable from the root), so a starved
        // root is a rule-2 cut: no MinC-chain can start here.
        if distinct < self.params.min_genes {
            let rule = if chain.len() == 1 {
                PruneRule::MinConds
            } else {
                PruneRule::MinGenes
            };
            prune(stats, observer, chain, rule);
            return false;
        }
        // Pruning (3)(a): too few p-members to ever be representative.
        if 2 * n_fwd < self.params.min_genes {
            prune(stats, observer, chain, PruneRule::FewPMembers);
            return false;
        }

        // Step 3 of Figure 5: output a validated representative chain. The
        // member lists are staged in scratch and handed over as a borrowed
        // view — only a fresh emission materializes an owned cluster.
        if chain.len() >= self.params.min_conds
            && (n_fwd > n_bwd || (n_fwd == n_bwd && chain[0] < chain[1]))
        {
            p_genes.clear();
            n_genes.clear();
            for m in members {
                match m.dir {
                    Dir::Fwd => p_genes.push(m.gene),
                    Dir::Bwd => n_genes.push(m.gene),
                }
            }
            p_genes.sort_unstable();
            n_genes.sort_unstable();
            merge_sorted_into(p_genes, n_genes, genes);
            let view = ClusterView {
                chain: chain.as_slice(),
                p_members: p_genes.as_slice(),
                n_members: n_genes.as_slice(),
                genes: genes.as_slice(),
            };
            match try_emit(&view) {
                EmitOutcome::Duplicate => {
                    prune(stats, observer, chain, PruneRule::Duplicate);
                    return false;
                }
                EmitOutcome::Fresh => stats.emitted += 1,
                EmitOutcome::FreshAndStop => {
                    stats.emitted += 1;
                    return true;
                }
            }
        }

        // Step 4: candidate regulation successors, scanned from p-members
        // only, with per-gene MinC pruning (2). `need` is the minimum
        // max-chain length a candidate must support: the chain grows to
        // `len + 1` conditions and must be extensible to `MinC`. A
        // member's candidates are its rank range `[lo, hi)`
        // ([`Miner::qual_range`]), ORed into the packed candidate bitset
        // word-parallel (see [`HotTables`]). At depth ≥ 2 the same walk
        // also buckets step 5's pairs ([`Miner::fill_lanes`]).
        let last = *chain.last().expect("chain is never empty here");
        let need = self.params.min_conds.saturating_sub(chain.len());
        let need_idx = self.tables.need_index(need);
        stats.members += members.len();
        if chain.len() == 1 {
            cand.prepare(self.n_conditions());
            cand.clear();
            ranges.clear();
            for m in members {
                let (lo, hi) = self.qual_range(m, last, need_idx);
                if m.dir == Dir::Fwd {
                    self.tables.accumulate_candidates(m.gene, lo, hi, cand);
                }
                ranges.push((lo, hi));
            }
        } else {
            self.fill_lanes(members, last, need_idx, cand, lanes);
        }
        if !cand.any() {
            // Pruning (2): no candidate keeps the chain extensible to MinC,
            // so the max-chain tables cut the subtree below a still-short
            // chain. A chain already at ≥ MinC conditions has simply been
            // exhausted — that is completion, not a prune.
            if chain.len() < self.params.min_conds {
                prune(stats, observer, chain, PruneRule::MinConds);
            }
            return false;
        }
        if chain.len() == 1 {
            stats.pairs +=
                self.depth1_children(members, ranges, last, cand, counts, offsets, children);
            return false;
        }

        // Step 5: for each candidate, apply the coherence sliding window to
        // its lane and make every validated window a child (a flat member
        // range in `children` — no per-child `Vec`). Bit-scanning the
        // packed words visits candidates in ascending condition order — the
        // order the old per-condition sweep used.
        for (w_idx, &word) in cand.words().iter().enumerate() {
            let mut w = word;
            while w != 0 {
                let c_i = w_idx * crate::bitset::WORD_BITS + w.trailing_zeros() as usize;
                w &= w - 1;
                let (lane_members, scores) = lanes.lane(c_i);
                stats.pairs += scores.len();
                if scores.len() < self.params.min_genes {
                    // Pruning (1) fires before the coherence test when the
                    // candidate's gene set is already below MinG.
                    chain.push(c_i);
                    prune(stats, observer, chain, PruneRule::MinGenes);
                    chain.pop();
                    continue;
                }
                // Sort compact (score, lane-index) keys and gather members
                // through the index when emitting windows. Only the scores
                // an ε-cell count admits to a MinG-window are keyed; the
                // rest cannot change the maximal windows (DESIGN.md §15.4),
                // and a lane with no such score yields no key and falls
                // through to the coherence prune. Unstable sort: no
                // allocation, and neither window membership nor emitted
                // output is sensitive to the order of tied scores (a run of
                // equal scores never straddles a maximal-window boundary,
                // and emission sorts member genes by id).
                hot_keys_into(
                    scores,
                    self.params.epsilon,
                    self.params.min_genes,
                    cells,
                    keys,
                );
                stats.sorted_keys += keys.len();
                keys.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
                hs.clear();
                hs.extend(keys.iter().map(|&(h, _)| h));
                maximal_windows_into(hs, self.params.epsilon, self.params.min_genes, windows);
                if windows.is_empty() {
                    // Pruning (4): no coherent interval of MinG genes.
                    chain.push(c_i);
                    prune(stats, observer, chain, PruneRule::Coherence);
                    chain.pop();
                    continue;
                }
                stats.windows += windows.len();
                for &(s, e) in windows.iter() {
                    children.push(
                        c_i,
                        keys[s..e]
                            .iter()
                            .map(|&(_, i)| members[lane_members[i as usize] as usize]),
                    );
                }
            }
        }
        false
    }

    /// The rank range `[lo, hi)` of `m`'s model that a condition must fall
    /// in to extend the chain ending at `last` by one step, with `need`
    /// more conditions reachable after it. By the proven pointer/value
    /// equivalence of `rwave.rs`, `lo ≤ rank(c) < hi` is bit-for-bit the
    /// direction + regulation + max-chain test (the regulated successors
    /// of a rank form a rank suffix, Lemma 3.1, and the max-chain table is
    /// monotone in rank).
    #[inline]
    fn qual_range(&self, m: &Member, last: CondId, need_idx: usize) -> (u32, u32) {
        let t = &self.tables;
        let r_last = t.rank_of(m.gene, last);
        match m.dir {
            Dir::Fwd => t.fwd_range(m.gene, r_last, need_idx),
            Dir::Bwd => t.bwd_range(m.gene, r_last, need_idx),
        }
    }

    /// Steps 4 and 5's bucketing at depth ≥ 2, in one walk over the
    /// members. For each member it takes the qualification range, ORs a
    /// forward member's candidates into `cand` (cleared first), and writes
    /// `(member index, H-score)` straight into the lane of every condition
    /// in the range (Eq. 7's score: the step from `last` over the
    /// member's baseline difference).
    ///
    /// The walk runs in member order, so each lane holds its members in
    /// member order, the order the per-candidate scan of the paper
    /// produces. A backward member's range may cover conditions no
    /// p-member proposed; those lanes are filled but never read, since
    /// step 5 visits only the lanes of `cand`'s conditions.
    ///
    /// Every member's range must be well formed (`lo ≤ hi`), as it is for
    /// each member that reached a node ending at `last`: the step that
    /// admitted it proved a chain of `need + 1` more conditions from its
    /// rank, whose next condition lies in the range.
    pub(crate) fn fill_lanes(
        &self,
        members: &[Member],
        last: CondId,
        need_idx: usize,
        cand: &mut BitMask,
        lanes: &mut Lanes,
    ) {
        let n_conds = self.n_conditions();
        let t = &self.tables;
        cand.prepare(n_conds);
        cand.clear();
        lanes.reset(n_conds, members.len());
        let n = u32::try_from(members.len()).expect("node members exceed the u32 index range");
        for (idx, m) in (0..n).zip(members) {
            let (lo, hi) = self.qual_range(m, last, need_idx);
            if m.dir == Dir::Fwd {
                t.accumulate_candidates(m.gene, lo, hi, cand);
            }
            let row = self.matrix.row(m.gene);
            let base = row[last];
            for &c in t.conds_in_range(m.gene, lo, hi) {
                let c = c as usize;
                lanes.push(c, idx, (row[c] - base) / m.denom);
            }
        }
    }

    /// Step 5 at depth 1, where every H-score is 1.0 by definition (the
    /// appended condition forms the baseline pair with the root): no
    /// window pass runs and every candidate becomes one child whose
    /// members are all its qualified members, with the step to it as
    /// their baseline difference. A two-pass counting sort writes them
    /// straight into `children` at exact-size bucket slots — lanes would
    /// need `n_conds ×` the root's member count. Returns the number of
    /// qualified pairs.
    #[allow(clippy::too_many_arguments)]
    fn depth1_children(
        &self,
        members: &[Member],
        ranges: &[(u32, u32)],
        last: CondId,
        cand: &BitMask,
        counts: &mut Vec<u32>,
        offsets: &mut Vec<u32>,
        children: &mut ChildBuf,
    ) -> usize {
        let n_conds = self.n_conditions();
        let t = &self.tables;
        counts.clear();
        counts.resize(n_conds, 0);
        // Forward ranges are subsets of the candidate mask by
        // construction; backward ranges may cover non-candidate conditions
        // (no p-member proposed them), which the packed-bitset membership
        // test filters in O(1).
        for (m, &(lo, hi)) in members.iter().zip(ranges) {
            match m.dir {
                Dir::Fwd => {
                    for &c in t.conds_in_range(m.gene, lo, hi) {
                        counts[c as usize] += 1;
                    }
                }
                Dir::Bwd => {
                    for &c in t.conds_in_range(m.gene, lo, hi) {
                        counts[c as usize] += cand.contains(c as usize) as u32;
                    }
                }
            }
        }
        offsets.clear();
        let mut total = 0u32;
        for &n in counts.iter() {
            offsets.push(total);
            total += n;
        }
        offsets.push(total);
        // Pass 2: `counts` becomes the per-bucket write cursor.
        counts.copy_from_slice(&offsets[..n_conds]);
        const DUMMY: Member = Member {
            gene: 0,
            dir: Dir::Fwd,
            denom: 0.0,
        };
        children.members.resize(total as usize, DUMMY);
        for (m, &(lo, hi)) in members.iter().zip(ranges) {
            let row = self.matrix.row(m.gene);
            let base = row[last];
            for &c in t.conds_in_range(m.gene, lo, hi) {
                let c = c as usize;
                if m.dir == Dir::Bwd && !cand.contains(c) {
                    continue;
                }
                let slot = counts[c] as usize;
                counts[c] += 1;
                // This step becomes the baseline pair (c_{k1}, c_{k2}).
                children.members[slot] = Member {
                    denom: row[c] - base,
                    ..*m
                };
            }
        }
        cand.for_each(|c_i| {
            children.index.push(crate::scratch::ChildNode {
                cond: c_i,
                start: offsets[c_i],
                len: offsets[c_i + 1] - offsets[c_i],
            });
        });
        total as usize
    }
}

/// Counts a prune of the subtree at `chain` by `rule` and reports it.
fn prune(
    stats: &mut MiningStats,
    observer: &dyn SyncMineObserver,
    chain: &[CondId],
    rule: PruneRule,
) {
    stats.count_prune(rule);
    observer.pruned(chain, rule);
}

fn count_distinct_genes(members: &[Member]) -> usize {
    let mut distinct = 0;
    let mut prev = usize::MAX;
    for m in members {
        if m.gene != prev {
            distinct += 1;
            prev = m.gene;
        }
    }
    distinct
}

/// Merges two sorted, disjoint gene lists into `out` (cleared first).
fn merge_sorted_into(a: &[GeneId], b: &[GeneId], out: &mut Vec<GeneId>) {
    out.clear();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] <= b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

/// Canonicalizes a raw emission set the way the collect path does:
/// `maximal_only` post-filter, canonical sort (chain, then members), then the
/// `max_clusters` truncation. Sink-mode consumers ([`MineRequest::run`]
/// delivers clusters unfinalized, in nondeterministic order) call this to
/// obtain output bit-identical to [`mine`] / [`MineRequest::collect`] for a
/// complete run. Because the cap is applied to the canonically-sorted full
/// result, capped output is a deterministic function of the cluster *set* —
/// which is why runs at every thread count agree bit-for-bit even under
/// `max_clusters`.
///
/// [`MineRequest::run`]: crate::engine::MineRequest::run
/// [`MineRequest::collect`]: crate::engine::MineRequest::collect
pub fn finalize_clusters(out: &mut Vec<RegCluster>, params: &MiningParams) {
    if params.maximal_only {
        let snapshot = out.clone();
        out.retain(|c| {
            !snapshot
                .iter()
                .any(|other| other != c && c.is_subcluster_of(other))
        });
    }
    // Unstable sort: keys are unique (duplicate clusters were eliminated
    // during enumeration), so stability buys nothing — and the stable sort's
    // scratch buffer would be the run's one avoidable allocation.
    out.sort_unstable_by(|a, b| {
        a.chain
            .cmp(&b.chain)
            .then_with(|| a.p_members.cmp(&b.p_members))
            .then_with(|| a.n_members.cmp(&b.n_members))
    });
    if let Some(cap) = params.max_clusters {
        out.truncate(cap);
    }
}

/// Mines all reg-clusters of `matrix` under `params`: a one-thread
/// [`MineRequest`] over every root.
///
/// Output clusters satisfy Definition 3.2 with respect to `γ` and `ε` and
/// are at least `MinG × MinC` in size; each is the maximal coherent gene
/// window for its representative chain. The result is sorted canonically.
///
/// # Errors
///
/// Returns [`CoreError::InvalidParams`] for invalid parameters.
pub fn mine(
    matrix: &ExpressionMatrix,
    params: &MiningParams,
) -> Result<Vec<RegCluster>, CoreError> {
    let miner = Miner::new(matrix, params)?;
    Ok(MineRequest::new(&miner).collect()?.0.clusters)
}

/// Like [`mine`], reporting enumeration-tree events to `observer` in
/// depth-first order.
///
/// # Errors
///
/// Returns [`CoreError::InvalidParams`] for invalid parameters and
/// [`CoreError::WorkerPanic`] if the observer panics.
pub fn mine_with_observer(
    matrix: &ExpressionMatrix,
    params: &MiningParams,
    observer: &dyn SyncMineObserver,
) -> Result<Vec<RegCluster>, CoreError> {
    let miner = Miner::new(matrix, params)?;
    let request = MineRequest::new(&miner).observer(observer);
    Ok(request.collect()?.0.clusters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::TraceObserver;
    use proptest::prelude::*;

    /// Table 1 of the paper.
    pub(crate) fn running_example() -> ExpressionMatrix {
        ExpressionMatrix::from_rows(
            vec!["g1".into(), "g2".into(), "g3".into()],
            (1..=10).map(|i| format!("c{i}")).collect(),
            vec![
                vec![10.0, -14.5, 15.0, 10.5, 0.0, 14.5, -15.0, 0.0, -5.0, -5.0],
                vec![20.0, 15.0, 15.0, 43.5, 30.0, 44.0, 45.0, 43.0, 35.0, 20.0],
                vec![6.0, -3.8, 8.0, 6.2, 2.0, 7.8, -4.0, 2.0, 0.0, 0.0],
            ],
        )
        .unwrap()
    }

    /// The lanes a brute-force scan expects of [`Miner::fill_lanes`]: the
    /// candidate conditions (in a forward member's range), and for each
    /// candidate the `(member index, H-score)` of every member whose range
    /// holds it, in member order.
    fn brute_force_lanes(
        miner: &Miner<'_>,
        members: &[Member],
        last: CondId,
        need_idx: usize,
    ) -> (Vec<usize>, Vec<Vec<(u32, f64)>>) {
        let t = &miner.tables;
        let qualifies = |m: &Member, c: CondId| {
            let r_last = t.rank_of(m.gene, last);
            let (lo, hi) = match m.dir {
                Dir::Fwd => t.fwd_range(m.gene, r_last, need_idx),
                Dir::Bwd => t.bwd_range(m.gene, r_last, need_idx),
            };
            let r = t.rank_of(m.gene, c) as u32;
            lo <= r && r < hi
        };
        let cand: Vec<usize> = (0..miner.n_conditions())
            .filter(|&c| members.iter().any(|m| m.dir == Dir::Fwd && qualifies(m, c)))
            .collect();
        let lanes = cand
            .iter()
            .map(|&c| {
                (0u32..)
                    .zip(members)
                    .filter(|(_, m)| qualifies(m, c))
                    .map(|(i, m)| {
                        let row = miner.matrix.row(m.gene);
                        (i, (row[c] - row[last]) / m.denom)
                    })
                    .collect()
            })
            .collect();
        (cand, lanes)
    }

    /// Fills `lanes` through [`Miner::fill_lanes`] and checks the candidate
    /// set and every candidate lane against [`brute_force_lanes`]: member
    /// indices in order, scores bit for bit.
    fn check_lanes(
        miner: &Miner<'_>,
        members: &[Member],
        last: CondId,
        need_idx: usize,
        lanes: &mut Lanes,
    ) -> Result<(), String> {
        let mut cand = BitMask::default();
        miner.fill_lanes(members, last, need_idx, &mut cand, lanes);
        let (want_cand, want_lanes) = brute_force_lanes(miner, members, last, need_idx);
        let got_cand = crate::bitset::indices(cand.words());
        if got_cand != want_cand {
            return Err(format!("candidates {got_cand:?} != {want_cand:?}"));
        }
        for (&c, want) in want_cand.iter().zip(&want_lanes) {
            let (idx, scores) = lanes.lane(c);
            let got: Vec<(u32, u64)> = idx
                .iter()
                .zip(scores)
                .map(|(&i, h)| (i, h.to_bits()))
                .collect();
            let want: Vec<(u32, u64)> = want.iter().map(|&(i, h)| (i, h.to_bits())).collect();
            if got != want {
                return Err(format!("lane {c}: {got:?} != {want:?}"));
            }
        }
        Ok(())
    }

    /// Expression values with ties, signed zeros, subnormals and
    /// magnitudes near 1e300.
    const LANE_VALUES: [f64; 12] = [
        0.0, -0.0, 1.0, -1.0, 2.0, 3.5, 5e-324, -5e-324, 1e-310, 1e300, -1e300, 9.9e299,
    ];
    /// Baseline differences: a subnormal one under a 1e300 step makes
    /// H = ±∞.
    const LANE_DENOMS: [f64; 8] = [1.0, -1.0, 0.25, -3.0, 5e-324, -1e-310, 1e300, -1e300];
    /// A drawn member: gene, forward?, baseline difference.
    type Pick = (usize, bool, f64);

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// Lane oracle: on random matrices of up to 70 conditions (a
        /// candidate bitset of two words) and random member sets of both
        /// directions, every candidate lane equals the brute-force scan.
        /// Each case fills the lanes twice, the second time over the first
        /// fill's leftovers, so `reset` is checked to forget them.
        #[test]
        fn lanes_equal_the_brute_force_scan(
            (n_genes, n_conds, values, picks, last, need, gamma) in (1usize..=6, prop_oneof![2usize..=70, 64usize..=70])
                .prop_flat_map(|(n_genes, n_conds)| {
                    (
                        Just(n_genes),
                        Just(n_conds),
                        prop::collection::vec(
                            prop::sample::select(LANE_VALUES.to_vec()),
                            n_genes * n_conds,
                        ),
                        prop::collection::vec(
                            (
                                (0..n_genes, any::<bool>(), prop::sample::select(LANE_DENOMS.to_vec())),
                                (0..n_genes, any::<bool>(), prop::sample::select(LANE_DENOMS.to_vec())),
                            ),
                            0..16,
                        ),
                        (0..n_conds, 0..n_conds),
                        (0..=n_conds + 1, 0..=n_conds + 1),
                        prop::sample::select(vec![0.0, 0.1, 0.5]),
                    )
                })
        ) {
            let m = ExpressionMatrix::from_flat_unlabeled(n_genes, n_conds, values).unwrap();
            let params = MiningParams::new(2, 2, gamma, 0.1).unwrap();
            let miner = Miner::new(&m, &params).unwrap();
            let member = |(gene, fwd, denom): Pick| Member {
                gene,
                dir: if fwd { Dir::Fwd } else { Dir::Bwd },
                denom,
            };
            // Keep the members that could reach a node ending at `last`
            // with `need` more conditions to go: their ranges are well
            // formed (see `fill_lanes`).
            let members = |last: CondId, need: usize, pick: fn(&(Pick, Pick)) -> Pick, n: usize| {
                let need_idx = miner.tables.need_index(need);
                let members: Vec<Member> = picks
                    .iter()
                    .take(n)
                    .map(|p| member(pick(p)))
                    .filter(|m| {
                        let (lo, hi) = miner.qual_range(m, last, need_idx);
                        lo <= hi
                    })
                    .collect();
                (members, need_idx)
            };
            let mut lanes = Lanes::default();
            let (first, need_idx) = members(last.0, need.0, |p| p.0, picks.len());
            check_lanes(&miner, &first, last.0, need_idx, &mut lanes)
                .map_err(TestCaseError::fail)?;
            let (second, need_idx) = members(last.1, need.1, |p| p.1, picks.len() / 2);
            check_lanes(&miner, &second, last.1, need_idx, &mut lanes)
                .map_err(TestCaseError::fail)?;
        }
    }

    /// A backward member's range may cover a condition no forward member
    /// proposed. Its pair lands in that condition's lane, which is not a
    /// candidate, so step 5 never reads it; the candidate lanes hold
    /// exactly the brute-force pairs.
    #[test]
    fn backward_ranges_over_non_candidates_stay_out_of_candidate_lanes() {
        // Chain tail c1. g0 rises only to c2, so c2 is the one candidate;
        // g1 falls from c1 to both c2 and c3.
        let m = ExpressionMatrix::from_flat_unlabeled(
            2,
            4,
            vec![
                0.0, 1.0, 2.0, 0.5, //
                5.0, 2.0, 1.0, 0.0,
            ],
        )
        .unwrap();
        let params = MiningParams::new(2, 2, 0.0, 0.1).unwrap();
        let miner = Miner::new(&m, &params).unwrap();
        let members = [
            Member {
                gene: 0,
                dir: Dir::Fwd,
                denom: 2.0,
            },
            Member {
                gene: 1,
                dir: Dir::Bwd,
                denom: -4.0,
            },
        ];
        let need_idx = miner.tables.need_index(0);
        let mut lanes = Lanes::default();
        check_lanes(&miner, &members, 1, need_idx, &mut lanes).unwrap();
        let mut cand = BitMask::default();
        miner.fill_lanes(&members, 1, need_idx, &mut cand, &mut lanes);
        assert_eq!(crate::bitset::indices(cand.words()), vec![2]);
        assert_eq!(lanes.lane(2), (&[0u32, 1][..], &[0.5, 0.25][..]));
        // The backward pair at c3 was written, and is never read.
        assert_eq!(lanes.lane(3), (&[1u32][..], &[0.5][..]));
    }

    #[test]
    fn running_example_yields_the_papers_cluster() {
        let m = running_example();
        let params = MiningParams::new(3, 5, 0.15, 0.1).unwrap();
        let clusters = mine(&m, &params).unwrap();
        assert_eq!(clusters.len(), 1);
        let c = &clusters[0];
        // c7 ↰ c9 ↰ c5 ↰ c1 ↰ c3 (0-based condition ids 6, 8, 4, 0, 2).
        assert_eq!(c.chain, vec![6, 8, 4, 0, 2]);
        assert_eq!(c.p_members, vec![0, 2]); // g1, g3
        assert_eq!(c.n_members, vec![1]); // g2
        c.validate(&m, &params).unwrap();
    }

    #[test]
    fn enumeration_tree_matches_figure_6() {
        let m = running_example();
        let params = MiningParams::new(3, 5, 0.15, 0.1).unwrap();
        let trace = TraceObserver::default();
        let clusters = mine_with_observer(&m, &params, &trace).unwrap();
        assert_eq!(clusters.len(), 1);

        // Level-1 survivors: only c2, c3, c7 (ids 1, 2, 6) proceed past the
        // root prunings; c3 falls to (3)(a) with a single p-member.
        let few_p = trace.pruned_by(PruneRule::FewPMembers);
        assert!(few_p.contains(&vec![2]), "c3 pruned by (3)(a): {few_p:?}");

        // c2's subtree: c2c1 and c2c9 die to MinG pruning (1); c2c10c8 too.
        let min_g = trace.pruned_by(PruneRule::MinGenes);
        assert!(min_g.contains(&vec![1, 0]), "c2c1 pruned by (1): {min_g:?}");
        assert!(min_g.contains(&vec![1, 8]), "c2c9 pruned by (1): {min_g:?}");
        assert!(
            min_g.contains(&vec![1, 9, 7]),
            "c2c10c8 pruned by (1): {min_g:?}"
        );
        // c7c10 dies to MinG pruning as well.
        assert!(
            min_g.contains(&vec![6, 9]),
            "c7c10 pruned by (1): {min_g:?}"
        );

        // c2c10c5 dies to coherence pruning (4): H(g2) = 2 vs 0.5263.
        let coh = trace.pruned_by(PruneRule::Coherence);
        assert!(
            coh.contains(&vec![1, 9, 4]),
            "c2c10c5 pruned by (4): {coh:?}"
        );

        // The explored interior nodes include exactly the paper's path
        // c7 → c7c9 → c7c9c5 → c7c9c5c1 → c7c9c5c1c3.
        let nodes = trace.nodes();
        for prefix in [
            &[6usize][..],
            &[6, 8][..],
            &[6, 8, 4][..],
            &[6, 8, 4, 0][..],
            &[6, 8, 4, 0, 2][..],
        ] {
            assert!(nodes.iter().any(|n| n == prefix), "missing node {prefix:?}");
        }
        assert_eq!(trace.n_emitted(), 1);
    }

    #[test]
    fn gamma_zero_on_running_example_still_finds_superset() {
        // With γ = 0 every strict change is a regulation; the paper's chain
        // must still be found (possibly among more clusters).
        let m = running_example();
        let params = MiningParams::new(3, 5, 0.0, 0.1).unwrap();
        let clusters = mine(&m, &params).unwrap();
        assert!(clusters
            .iter()
            .any(|c| c.chain == vec![6, 8, 4, 0, 2] && c.n_members == vec![1]));
        for c in &clusters {
            c.validate(&m, &params).unwrap();
        }
    }

    #[test]
    fn stricter_epsilon_excludes_nothing_here_but_stricter_gamma_does() {
        let m = running_example();
        // The three genes agree exactly, so ε = 0 still finds the cluster.
        let params = MiningParams::new(3, 5, 0.15, 0.0).unwrap();
        let clusters = mine(&m, &params).unwrap();
        assert_eq!(clusters.len(), 1);
        // γ = 0.2 breaks the 5-unit steps of g1 (γ_1 = 6): nothing survives.
        let params = MiningParams::new(3, 5, 0.2, 0.1).unwrap();
        assert!(mine(&m, &params).unwrap().is_empty());
    }

    #[test]
    fn min_conds_six_finds_nothing_on_running_example() {
        let m = running_example();
        let params = MiningParams::new(3, 6, 0.15, 0.1).unwrap();
        assert!(mine(&m, &params).unwrap().is_empty());
    }

    #[test]
    fn min_genes_two_splits_into_pairs() {
        let m = running_example();
        let params = MiningParams::new(2, 5, 0.15, 0.1).unwrap();
        let clusters = mine(&m, &params).unwrap();
        // The 3-gene cluster is still found; with MinG = 2 additional
        // chains (and the g1–g3-only windows) may appear. All must validate.
        assert!(clusters
            .iter()
            .any(|c| c.p_members == vec![0, 2] && c.n_members == vec![1]));
        for c in &clusters {
            c.validate(&m, &params).unwrap();
        }
    }

    #[test]
    fn every_output_cluster_validates() {
        let m = running_example();
        for (min_g, min_c, gamma, eps) in [
            (2, 3, 0.1, 0.2),
            (2, 4, 0.05, 0.5),
            (3, 3, 0.15, 1.0),
            (2, 2, 0.0, 0.0),
        ] {
            let params = MiningParams::new(min_g, min_c, gamma, eps).unwrap();
            for c in mine(&m, &params).unwrap() {
                c.validate(&m, &params)
                    .unwrap_or_else(|e| panic!("invalid cluster {c:?} under {params:?}: {e}"));
            }
        }
    }

    #[test]
    fn no_duplicate_clusters_in_output() {
        let m = running_example();
        let params = MiningParams::new(2, 3, 0.1, 0.5).unwrap();
        let clusters = mine(&m, &params).unwrap();
        let mut keys: Vec<_> = clusters
            .iter()
            .map(|c| (c.chain.clone(), c.genes()))
            .collect();
        let before = keys.len();
        keys.sort();
        keys.dedup();
        assert_eq!(before, keys.len());
    }

    #[test]
    fn parallel_equals_sequential() {
        let m = running_example();
        for (min_g, min_c, gamma, eps) in [(3, 5, 0.15, 0.1), (2, 3, 0.05, 0.5), (2, 2, 0.0, 0.2)] {
            let params = MiningParams::new(min_g, min_c, gamma, eps).unwrap();
            let seq = mine(&m, &params).unwrap();
            let miner = Miner::new(&m, &params).unwrap();
            for threads in [1, 2, 4] {
                let (par, _) = MineRequest::new(&miner).threads(threads).collect().unwrap();
                assert_eq!(seq, par.clusters, "threads={threads} params={params:?}");
            }
        }
    }

    #[test]
    fn parallel_rejects_zero_threads() {
        let m = running_example();
        let params = MiningParams::new(3, 5, 0.15, 0.1).unwrap();
        let miner = Miner::new(&m, &params).unwrap();
        assert!(MineRequest::new(&miner).threads(0).collect().is_err());
    }

    #[test]
    fn max_clusters_caps_output() {
        let m = running_example();
        let params = MiningParams::new(2, 3, 0.1, 0.5).unwrap();
        let all = mine(&m, &params).unwrap();
        assert!(all.len() > 1, "need multiple clusters for this test");
        let capped_params = params.clone().with_max_clusters(1);
        let capped = mine(&m, &capped_params).unwrap();
        assert_eq!(capped.len(), 1);
    }

    #[test]
    fn maximal_only_removes_contained_clusters() {
        let m = running_example();
        let params = MiningParams::new(2, 3, 0.1, 0.5).unwrap();
        let all = mine(&m, &params).unwrap();
        let maximal_params = params.clone().with_maximal_only();
        let maximal = mine(&m, &maximal_params).unwrap();
        assert!(maximal.len() <= all.len());
        for c in &maximal {
            assert!(!maximal.iter().any(|o| o != c && c.is_subcluster_of(o)));
        }
        // Every dropped cluster is contained in some maximal one.
        for c in &all {
            assert!(
                maximal.contains(c) || maximal.iter().any(|o| c.is_subcluster_of(o)),
                "dropped cluster {c:?} not contained in any survivor"
            );
        }
    }

    #[test]
    fn overlapping_windows_trigger_duplicate_pruning() {
        // Engineered so that two overlapping ε-windows at the second chain
        // step converge to the identical cluster one step later, firing
        // pruning (3)(b). H-scores at step c1→c2 are [0.4, 0.8, 0.8, 1.2]
        // (windows {g0,g1,g2} and {g1,g2,g3} at ε = 0.4); at step c2→c3
        // g0 (H = 3.0) and g3 (H = 0.4) each fall out of their branch's
        // window, leaving {g1, g2} twice.
        let m = ExpressionMatrix::from_flat_unlabeled(
            4,
            4,
            vec![
                0.0, 10.0, 14.0, 44.0, //
                0.0, 10.0, 18.0, 28.0, //
                0.0, 10.0, 18.0, 28.0, //
                0.0, 10.0, 22.0, 26.0,
            ],
        )
        .unwrap();
        let params = MiningParams::new(2, 4, 0.0, 0.4)
            .unwrap()
            .with_threshold(crate::RegulationThreshold::Absolute(2.0))
            .unwrap();
        let trace = TraceObserver::default();
        let clusters = mine_with_observer(&m, &params, &trace).unwrap();
        assert!(
            !trace.pruned_by(PruneRule::Duplicate).is_empty(),
            "duplicate pruning should fire: {:?}",
            trace.events
        );
        // The duplicated cluster is reported exactly once.
        let hits: Vec<_> = clusters
            .iter()
            .filter(|c| c.chain == vec![0, 1, 2, 3] && c.genes() == vec![1, 2])
            .collect();
        assert_eq!(hits.len(), 1, "{clusters:?}");
        for c in &clusters {
            c.validate(&m, &params).unwrap();
        }
    }

    #[test]
    fn duplicate_gene_profiles_cluster_together() {
        // Identical rows are perfect shifting images (s1 = 1, s2 = 0) and
        // must all land in one cluster.
        let base = [0.0, 2.0, 4.0, 6.0];
        let mut values = Vec::new();
        for _ in 0..4 {
            values.extend(base.iter().copied());
        }
        let m = ExpressionMatrix::from_flat_unlabeled(4, 4, values).unwrap();
        let params = MiningParams::new(4, 4, 0.1, 0.0).unwrap();
        let clusters = mine(&m, &params).unwrap();
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].p_members, vec![0, 1, 2, 3]);
        clusters[0].validate(&m, &params).unwrap();
    }

    #[test]
    fn two_condition_matrix_minimal_chains() {
        // MinC = 2 on a 2-condition matrix: chains are single regulated
        // pairs; both orientations resolve through the tie-break.
        let m = ExpressionMatrix::from_flat_unlabeled(3, 2, vec![0.0, 5.0, 1.0, 7.0, 9.0, 2.0])
            .unwrap();
        let params = MiningParams::new(2, 2, 0.1, 10.0).unwrap();
        let clusters = mine(&m, &params).unwrap();
        for c in &clusters {
            c.validate(&m, &params).unwrap();
            assert_eq!(c.n_conditions(), 2);
        }
        // g0 and g1 rise c0→c1, g2 falls: the majority chain is [0, 1].
        assert!(clusters
            .iter()
            .any(|c| c.chain == vec![0, 1] && c.p_members == vec![0, 1]));
    }

    #[test]
    fn gamma_one_requires_full_range_steps() {
        // γ = 1.0 makes γ_i the entire range: no strict step can exceed it,
        // so nothing is ever regulated.
        let m = ExpressionMatrix::from_flat_unlabeled(
            3,
            4,
            vec![0.0, 1.0, 2.0, 3.0, 0.0, 2.0, 4.0, 6.0, 1.0, 5.0, 2.0, 8.0],
        )
        .unwrap();
        let params = MiningParams::new(2, 2, 1.0, 1.0).unwrap();
        assert!(mine(&m, &params).unwrap().is_empty());
    }

    #[test]
    fn all_negative_values_are_handled() {
        let base: Vec<f64> = vec![-9.0, -7.0, -4.0, -1.0];
        let mut values = Vec::new();
        for k in 1..=3 {
            values.extend(base.iter().map(|v| v * k as f64 / 3.0 - 1.0));
        }
        let m = ExpressionMatrix::from_flat_unlabeled(3, 4, values).unwrap();
        let params = MiningParams::new(3, 4, 0.1, 0.01).unwrap();
        let clusters = mine(&m, &params).unwrap();
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].n_genes(), 3);
        clusters[0].validate(&m, &params).unwrap();
    }

    #[test]
    fn flat_matrix_produces_nothing() {
        let m = ExpressionMatrix::from_flat_unlabeled(4, 6, vec![1.0; 24]).unwrap();
        let params = MiningParams::new(2, 2, 0.1, 0.5).unwrap();
        assert!(mine(&m, &params).unwrap().is_empty());
    }

    #[test]
    fn perfect_negative_pair_clusters_together() {
        // g0 rises 0,2,4,6; g1 = -g0 falls. A 2-gene cluster over the full
        // chain exists with one p-member and one n-member — but a tie means
        // representativeness needs chain[0] < chain[1].
        let m = ExpressionMatrix::from_flat_unlabeled(
            2,
            4,
            vec![0.0, 2.0, 4.0, 6.0, 0.0, -2.0, -4.0, -6.0],
        )
        .unwrap();
        let params = MiningParams::new(2, 4, 0.1, 0.01).unwrap();
        let clusters = mine(&m, &params).unwrap();
        assert_eq!(clusters.len(), 1);
        let c = &clusters[0];
        assert_eq!(c.chain, vec![0, 1, 2, 3]);
        assert_eq!(c.p_members, vec![0]);
        assert_eq!(c.n_members, vec![1]);
        c.validate(&m, &params).unwrap();
    }

    #[test]
    fn shifting_and_scaling_family_clusters_fully() {
        // Five genes, all affine images (positive and negative scalings) of
        // one base profile with strong steps.
        let base = [0.0, 1.0, 2.5, 4.0, 6.0];
        let transforms: [(f64, f64); 5] = [
            (1.0, 0.0),
            (2.0, 3.0),
            (0.5, -1.0),
            (-1.5, 2.0),
            (-3.0, 0.0),
        ];
        let rows: Vec<Vec<f64>> = transforms
            .iter()
            .map(|&(s1, s2)| base.iter().map(|&v| s1 * v + s2).collect())
            .collect();
        let genes = (0..5).map(|i| format!("g{i}")).collect();
        let conds = (0..5).map(|i| format!("c{i}")).collect();
        let m = ExpressionMatrix::from_rows(genes, conds, rows).unwrap();
        let params = MiningParams::new(5, 5, 0.15, 1e-9).unwrap();
        let clusters = mine(&m, &params).unwrap();
        assert_eq!(clusters.len(), 1);
        let c = &clusters[0];
        assert_eq!(c.chain, vec![0, 1, 2, 3, 4]);
        assert_eq!(c.p_members, vec![0, 1, 2]);
        assert_eq!(c.n_members, vec![3, 4]);
        c.validate(&m, &params).unwrap();
    }

    #[test]
    fn outlier_gene_is_excluded_by_coherence() {
        // Four coherent genes plus one with the right tendency but wrong
        // ratios (the Figure 4 situation).
        let base = [0.0, 2.0, 4.0, 6.0];
        let mut rows: Vec<Vec<f64>> = (0..4)
            .map(|i| base.iter().map(|&v| (i as f64 + 1.0) * v).collect())
            .collect();
        rows.push(vec![0.0, 5.0, 8.0, 11.0]); // same order, regulated, incoherent steps
        let genes = (0..5).map(|i| format!("g{i}")).collect();
        let conds = (0..4).map(|i| format!("c{i}")).collect();
        let m = ExpressionMatrix::from_rows(genes, conds, rows).unwrap();
        let params = MiningParams::new(4, 4, 0.15, 0.01).unwrap();
        let clusters = mine(&m, &params).unwrap();
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].p_members, vec![0, 1, 2, 3]);
        assert!(clusters[0].n_members.is_empty());
    }
}
