//! Index-backed queries over an open [`ClusterStore`].
//!
//! Every query here is answered from the inverted indexes and the size
//! table; cluster records are decoded only when the caller materializes a
//! result id. The posting lists are sorted, so conjunctions are linear-time
//! sorted-merge intersections and disjunctions are k-way merges.

use std::cmp::Reverse;

use regcluster_core::RegCluster;

use crate::error::StoreError;
use crate::reader::ClusterStore;

/// A conjunctive cluster query: *all* listed genes, *all* listed
/// conditions, and the size floors must hold (containment semantics).
///
/// An empty query matches every cluster. `top_k` keeps the k largest
/// matches by covered cells (`genes × conds`, ties broken by ascending id).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Query {
    /// Gene ids every match must contain.
    pub genes: Vec<u32>,
    /// Condition ids every match's chain must contain.
    pub conds: Vec<u32>,
    /// Minimum member-gene count.
    pub min_genes: u32,
    /// Minimum chain length.
    pub min_conds: u32,
    /// Keep only the k largest matches by covered cells.
    pub top_k: Option<usize>,
}

impl Query {
    /// The match-everything query.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requires gene `g` to be a member of every match.
    #[must_use]
    pub fn with_gene(mut self, g: u32) -> Self {
        self.genes.push(g);
        self
    }

    /// Requires condition `c` on every match's chain.
    #[must_use]
    pub fn with_cond(mut self, c: u32) -> Self {
        self.conds.push(c);
        self
    }

    /// Sets the minimum member-gene count.
    #[must_use]
    pub fn with_min_genes(mut self, n: u32) -> Self {
        self.min_genes = n;
        self
    }

    /// Sets the minimum chain length.
    #[must_use]
    pub fn with_min_conds(mut self, n: u32) -> Self {
        self.min_conds = n;
        self
    }

    /// Keeps only the `k` largest matches by covered cells.
    #[must_use]
    pub fn with_top_k(mut self, k: usize) -> Self {
        self.top_k = Some(k);
        self
    }
}

impl ClusterStore {
    /// Runs a conjunctive query, returning matching cluster ids.
    ///
    /// Ids come back ascending (canonical order) unless `top_k` is set, in
    /// which case they are ordered largest-first by covered cells. No
    /// cluster record is decoded — only postings and the size table are
    /// touched.
    ///
    /// # Errors
    ///
    /// [`StoreError::IdOutOfRange`] when a queried gene or condition id is
    /// not in the store's dictionaries.
    pub fn query(&self, q: &Query) -> Result<Vec<u32>, StoreError> {
        for &g in &q.genes {
            if g >= self.n_genes() {
                return Err(StoreError::IdOutOfRange(format!(
                    "gene {g} not in store (dictionary size {})",
                    self.n_genes()
                )));
            }
        }
        for &c in &q.conds {
            if c >= self.n_conds() {
                return Err(StoreError::IdOutOfRange(format!(
                    "condition {c} not in store (dictionary size {})",
                    self.n_conds()
                )));
            }
        }

        // Conjunction of postings; `None` means "no term yet" (all ids).
        let mut candidates: Option<Vec<u32>> = None;
        for &g in &q.genes {
            candidates = Some(match candidates {
                None => self.clusters_with_gene(g).collect(),
                Some(cur) => intersect_sorted(&cur, self.clusters_with_gene(g)),
            });
            if candidates.as_ref().is_some_and(Vec::is_empty) {
                return Ok(Vec::new());
            }
        }
        for &c in &q.conds {
            candidates = Some(match candidates {
                None => self.clusters_with_cond(c).collect(),
                Some(cur) => intersect_sorted(&cur, self.clusters_with_cond(c)),
            });
            if candidates.as_ref().is_some_and(Vec::is_empty) {
                return Ok(Vec::new());
            }
        }

        let size_ok = |id: u32| {
            let (g, c) = self.cluster_dims(id).expect("candidate id in bounds");
            g >= q.min_genes && c >= q.min_conds
        };
        let ids: Vec<u32> = match candidates {
            Some(c) => c.into_iter().filter(|&id| size_ok(id)).collect(),
            None => (0..self.n_clusters()).filter(|&id| size_ok(id)).collect(),
        };

        if let Some(k) = q.top_k {
            // Each key is computed once; ids make the keys unique, so the
            // partial selection keeps the same ids, in the same order, as a
            // full sort truncated to k.
            let mut keyed: Vec<(Reverse<u64>, u32)> = ids
                .into_iter()
                .map(|id| {
                    let (g, c) = self.cluster_dims(id).expect("id in bounds");
                    (Reverse(u64::from(g) * u64::from(c)), id)
                })
                .collect();
            if k < keyed.len() {
                if k > 0 {
                    keyed.select_nth_unstable(k - 1);
                }
                keyed.truncate(k);
            }
            keyed.sort_unstable();
            return Ok(keyed.into_iter().map(|(_, id)| id).collect());
        }
        Ok(ids)
    }

    /// Ids of clusters **overlapping** the given gene/condition sets: at
    /// least one listed gene in common AND at least one listed condition on
    /// the chain (disjunction within each axis, conjunction across axes).
    /// An empty axis is unconstrained. Out-of-dictionary ids simply match
    /// nothing on that term.
    pub fn overlapping(&self, genes: &[u32], conds: &[u32]) -> Vec<u32> {
        let gene_union = (!genes.is_empty())
            .then(|| union_sorted(genes.iter().map(|&g| self.clusters_with_gene(g))));
        let cond_union = (!conds.is_empty())
            .then(|| union_sorted(conds.iter().map(|&c| self.clusters_with_cond(c))));
        match (gene_union, cond_union) {
            (Some(g), Some(c)) => intersect_sorted(&g, c.into_iter()),
            (Some(g), None) => g,
            (None, Some(c)) => c,
            (None, None) => (0..self.n_clusters()).collect(),
        }
    }

    /// Ids of stored clusters that **contain** `cluster` (all its member
    /// genes and all its chain conditions). The cluster itself matches if
    /// stored. Genes or conditions outside the dictionaries make the result
    /// empty (nothing can contain them).
    pub fn superclusters_of(&self, cluster: &RegCluster) -> Vec<u32> {
        let mut q = Query::new();
        for g in cluster.genes_iter() {
            match u32::try_from(g) {
                Ok(g) if g < self.n_genes() => q.genes.push(g),
                _ => return Vec::new(),
            }
        }
        for &c in &cluster.chain {
            match u32::try_from(c) {
                Ok(c) if c < self.n_conds() => q.conds.push(c),
                _ => return Vec::new(),
            }
        }
        self.query(&q)
            .expect("ids pre-checked against dictionaries")
    }
}

/// Intersection of a sorted slice with a sorted iterator.
fn intersect_sorted(a: &[u32], b: impl Iterator<Item = u32>) -> Vec<u32> {
    let mut out = Vec::new();
    let mut i = 0;
    for v in b {
        while i < a.len() && a[i] < v {
            i += 1;
        }
        if i == a.len() {
            break;
        }
        if a[i] == v {
            out.push(v);
            i += 1;
        }
    }
    out
}

/// K-way union of sorted iterators (result sorted, deduplicated).
fn union_sorted<'a>(lists: impl Iterator<Item = crate::reader::PostingsIter<'a>>) -> Vec<u32> {
    let mut out: Vec<u32> = Vec::new();
    for list in lists {
        out.extend(list);
    }
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intersect_and_union_helpers() {
        let a = [1u32, 3, 5, 7];
        let b = [3u32, 4, 5, 9];
        let mut buf = Vec::new();
        for &v in &b {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        assert_eq!(intersect_sorted(&a, b.iter().copied()), vec![3, 5]);
        assert_eq!(intersect_sorted(&[], b.iter().copied()), Vec::<u32>::new());
        assert_eq!(intersect_sorted(&a, std::iter::empty()), Vec::<u32>::new());
    }

    #[test]
    fn query_builder_composes() {
        let q = Query::new()
            .with_gene(3)
            .with_gene(5)
            .with_cond(1)
            .with_min_genes(4)
            .with_min_conds(2)
            .with_top_k(10);
        assert_eq!(q.genes, vec![3, 5]);
        assert_eq!(q.conds, vec![1]);
        assert_eq!(q.min_genes, 4);
        assert_eq!(q.min_conds, 2);
        assert_eq!(q.top_k, Some(10));
    }
}
