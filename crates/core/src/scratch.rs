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
use crate::miner::Member;

/// Per-node working buffers of `expand_node`, reused across every node of a
/// traversal. Each buffer is cleared (never shrunk) on use, so after the
/// first few nodes of a run no call grows any of them.
#[derive(Debug, Default)]
pub(crate) struct NodeScratch {
    /// Packed candidate-condition bitset (one bit per condition); cleared
    /// per node by zeroing its words.
    pub cand: BitMask,
    /// Depth 1 only: each member's qualification range, parallel to the
    /// node's member slice.
    pub ranges: Vec<(u32, u32)>,
    /// Depth 1 only: per-condition bucket sizes (pass 1 of the counting
    /// sort), reused as write cursors in pass 2.
    pub counts: Vec<u32>,
    /// Depth 1 only: per-condition bucket offsets into the child arena:
    /// candidate `c`'s members are `[offsets[c], offsets[c + 1])`.
    pub offsets: Vec<u32>,
    /// Depth ≥ 2: the node's (member, H-score) pairs, one lane per
    /// condition.
    pub lanes: Lanes,
    /// Per-slot ε-cell counts of [`hot_keys_into`](crate::coherence::hot_keys_into),
    /// at most 4096 `u32`s.
    pub cells: Vec<u32>,
    /// Per-candidate `(score, index-in-lane)` sort keys of the hot
    /// scores: the index gathers the sorted members afterwards.
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

/// The (member, H-score) pairs of one node, bucketed by candidate
/// condition. Lane `c` is the slots `[c · stride, c · stride + len[c])` of
/// two parallel arenas, `stride` being the node's member count: a member
/// adds at most one pair per condition, so `stride` slots always suffice
/// and no counting pass has to size the lanes first. The arenas take
/// `n_conds × stride × 12` bytes; they grow only when a node needs more
/// and are never shrunk.
#[derive(Debug, Default)]
pub(crate) struct Lanes {
    stride: usize,
    len: Vec<u32>,
    members: Vec<u32>,
    scores: Vec<f64>,
}

impl Lanes {
    /// Empties `n_conds` lanes of `stride` slots each.
    pub fn reset(&mut self, n_conds: usize, stride: usize) {
        self.stride = stride;
        self.len.clear();
        self.len.resize(n_conds, 0);
        let slots = n_conds * stride;
        if self.members.len() < slots {
            self.members.resize(slots, 0);
            self.scores.resize(slots, 0.0);
        }
    }

    /// Appends the pair `(member, score)` to lane `c`.
    #[inline]
    pub fn push(&mut self, c: usize, member: u32, score: f64) {
        let n = self.len[c] as usize;
        debug_assert!(n < self.stride, "lane {c} overflows");
        let slot = c * self.stride + n;
        self.len[c] += 1;
        self.members[slot] = member;
        self.scores[slot] = score;
    }

    /// Lane `c`: member indices and their H-scores, in push order.
    pub fn lane(&self, c: usize) -> (&[u32], &[f64]) {
        let start = c * self.stride;
        let end = start + self.len[c] as usize;
        (&self.members[start..end], &self.scores[start..end])
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
