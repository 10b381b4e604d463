//! Reusable scratch space for the enumeration core.
//!
//! Steady-state enumeration performs **zero heap allocations per node**: all
//! per-node working memory lives in grow-only buffers owned by an engine
//! worker — [`NodeScratch`] for the intra-node working set of
//! [`Miner::expand_node`](crate::miner::Miner) and [`ChildBuf`] for the flat
//! member arena the node's children are written into. The worker keeps both
//! for its whole run, next to its pending-node arenas (see `engine.rs`).

use regcluster_matrix::{CondId, GeneId};

use crate::bitset::BitMask;
use crate::coherence::Window;
use crate::miner::{Member, MemberCtx};

/// Per-node working buffers of `expand_node`, reused across every node of a
/// traversal. Each buffer is cleared (never shrunk) on use, so after the
/// first few nodes of a run no call grows any of them.
#[derive(Debug, Default)]
pub(crate) struct NodeScratch {
    /// Packed candidate-condition bitset (one bit per condition); cleared
    /// per node by zeroing its words.
    pub cand: BitMask,
    /// Per-member qualification context, parallel to the node's member
    /// slice: the rank range `[lo, hi)` a candidate's rank must fall in,
    /// plus the member's expression value at the chain tail. Computed once
    /// per node instead of once per candidate × member.
    pub ctx: Vec<MemberCtx>,
    /// Per-condition bucket sizes (pass 1 of the counting sort), reused
    /// as write cursors in pass 2.
    pub counts: Vec<u32>,
    /// Per-condition bucket offsets into the member/score arenas:
    /// candidate `c`'s qualified entries are `[offsets[c], offsets[c + 1])`.
    pub offsets: Vec<u32>,
    /// Flat member arena holding every candidate's qualified members back
    /// to back, bucketed by candidate condition (struct-of-arrays with
    /// `scores` so the H division pass streams plain `f64`s).
    pub mem: Vec<Member>,
    /// H-scores parallel to `mem`.
    pub scores: Vec<f64>,
    /// Per-slot ε-cell counts of [`hot_keys_into`](crate::coherence::hot_keys_into),
    /// at most 4096 `u32`s.
    pub cells: Vec<u32>,
    /// Per-candidate `(score, index-in-bucket)` sort keys of the hot
    /// scores: sorting these 16-byte pairs moves half the bytes the old
    /// `(f64, Member)` sort did, and the index gathers the sorted members
    /// afterwards.
    pub keys: Vec<(f64, u32)>,
    /// The bare score series handed to the sliding-window scan.
    pub hs: Vec<f64>,
    /// Maximal ε-windows of the candidate.
    pub windows: Vec<Window>,
    /// Sorted p-member gene ids of the cluster being emitted.
    pub p_genes: Vec<GeneId>,
    /// Sorted n-member gene ids of the cluster being emitted.
    pub n_genes: Vec<GeneId>,
    /// Merged sorted union of `p_genes` and `n_genes`.
    pub genes: Vec<GeneId>,
    /// Qualified (member, candidate) pairs bucketed so far, for
    /// [`MiningStats::pairs`](crate::MiningStats::pairs).
    pub pairs: usize,
    /// Keys handed to the per-candidate sort so far, for
    /// [`MiningStats::sorted_keys`](crate::MiningStats::sorted_keys).
    pub sorted_keys: usize,
}

impl NodeScratch {
    /// A scratch whose candidate mask already covers `n_conds` conditions.
    pub fn with_conds(n_conds: usize) -> Self {
        NodeScratch {
            cand: BitMask::with_bits(n_conds),
            ..NodeScratch::default()
        }
    }
}

/// One child of an enumeration node: the appended condition plus an
/// `(offset, len)` slice into the owning [`ChildBuf`]'s member arena. A
/// plain 16-byte range — producing a child never allocates a `Vec`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChildNode {
    /// The condition appended to the parent chain.
    pub cond: CondId,
    /// Offset of the child's members in [`ChildBuf::members`].
    pub start: u32,
    /// Number of member genes surviving into the child.
    pub len: u32,
}

/// The children of one expanded node: an index of [`ChildNode`] ranges over
/// a flat member arena. Cleared and refilled per node; capacity is retained.
#[derive(Debug, Default)]
pub(crate) struct ChildBuf {
    /// Children in depth-first order.
    pub index: Vec<ChildNode>,
    /// Flat arena holding every child's members back to back.
    pub members: Vec<Member>,
}

impl ChildBuf {
    /// Empties the buffer without releasing capacity.
    pub fn clear(&mut self) {
        self.index.clear();
        self.members.clear();
    }

    /// Appends one child whose members are `members` (copied into the
    /// arena), in order.
    pub fn push(&mut self, cond: CondId, members: impl Iterator<Item = Member>) {
        let start = u32::try_from(self.members.len())
            .expect("child member arena exceeds the u32 offset range");
        self.members.extend(members);
        let len = self.members.len() as u32 - start;
        self.index.push(ChildNode { cond, start, len });
    }

    /// The member slice of child `i` of the index.
    pub fn members_of(&self, child: ChildNode) -> &[Member] {
        &self.members[child.start as usize..(child.start + child.len) as usize]
    }
}
