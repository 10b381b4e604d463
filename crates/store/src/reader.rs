//! The store reader: validates a `.rcs` file once at open, then answers
//! queries from byte-slice views into the file image without deserializing
//! untouched records.

use std::collections::HashMap;
use std::ops::Range;
use std::path::Path;

use regcluster_core::{MiningParams, RegCluster};
use serde::{Deserialize, Serialize, Value};

use crate::error::StoreError;
use crate::format::{decode_record, record_at, u32_at, u64_at, ByteReader, SectionId, STORE};
use crate::migrations;

/// Summary facts about an open store (also the `/stats` payload shape).
#[derive(Debug, Clone, Serialize)]
pub struct StoreStats {
    /// Clusters in the store.
    pub n_clusters: u32,
    /// Genes in the dictionary.
    pub n_genes: u32,
    /// Conditions in the dictionary.
    pub n_conds: u32,
    /// Total file size in bytes.
    pub file_bytes: u64,
    /// Mining parameters of the run that produced the store (provenance).
    pub params: MiningParams,
    /// Engine that produced the store (`None` for stores written before
    /// engine provenance existed — those are reg-cluster runs).
    pub engine: Option<String>,
    /// Generation number within a [`Generations`](crate::Generations)
    /// lineage (0 for standalone stores and pre-generational files).
    pub generation: u64,
}

/// The optional half of a store's provenance metadata. All fields are
/// absent in stores written before the respective feature existed; the
/// rest of the meta JSON (the [`MiningParams`]) parses identically either
/// way. Version-1 files gain `generation: 0` through the
/// [`migrations`](crate::migrations) registry at open.
#[derive(Debug, Clone, Default, Deserialize)]
struct Provenance {
    engine: Option<String>,
    engine_params: Option<String>,
    generation: Option<u64>,
    matrix_fingerprint: Option<u64>,
    root_fingerprints: Option<Vec<u64>>,
}

/// An open, fully-validated cluster store.
///
/// [`open`](ClusterStore::open) reads the file into memory and verifies
/// every section checksum plus all structural invariants (index bounds,
/// monotonic CSR starts, posting ids in range) **before** returning, so
/// queries afterwards cannot observe corruption: they run on validated
/// byte-slice views and decode only the records they touch.
pub struct ClusterStore {
    buf: Vec<u8>,
    /// Payload range of section id `i + 1` at index `i`.
    sections: [Range<usize>; 8],
    n_genes: u32,
    n_conds: u32,
    n_clusters: u32,
    params: MiningParams,
    provenance: Provenance,
    /// The META params JSON after migration to the current version, keys
    /// (known and unknown) preserved in file order.
    meta: Value,
    gene_names: Vec<String>,
    cond_names: Vec<String>,
    gene_lookup: HashMap<String, u32>,
    cond_lookup: HashMap<String, u32>,
}

impl std::fmt::Debug for ClusterStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterStore")
            .field("n_clusters", &self.n_clusters)
            .field("n_genes", &self.n_genes)
            .field("n_conds", &self.n_conds)
            .field("file_bytes", &self.buf.len())
            .finish_non_exhaustive()
    }
}

impl ClusterStore {
    /// Opens and validates a store file.
    ///
    /// # Errors
    ///
    /// * [`StoreError::Format`] — not a store, truncated, or structurally
    ///   inconsistent (every byte-range is bounds-checked);
    /// * [`StoreError::Version`] — written by a different format version;
    /// * [`StoreError::ChecksumMismatch`] — payload bytes corrupted;
    /// * [`StoreError::Metadata`] — provenance parameters unreadable;
    /// * [`StoreError::Io`] — the file could not be read.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let path = path.as_ref();
        // A writer that crashed before its sealing rename leaves
        // `<path>.tmp` behind; it is never the destination, so clear it
        // (best effort) rather than letting stale scratch files pile up.
        let stale = crate::writer::tmp_path(path);
        if stale.symlink_metadata().is_ok() {
            let _ = std::fs::remove_file(&stale);
        }
        Self::from_bytes(std::fs::read(path)?)
    }

    /// Like [`open`](ClusterStore::open), over an already-loaded file image.
    pub fn from_bytes(buf: Vec<u8>) -> Result<Self, StoreError> {
        let (version, sections) = STORE.open_sections(&buf, "section-table", SectionId::NAMES)?;
        let section = |id: SectionId| &buf[sections[id as usize - 1].clone()];

        // META: dimensions + provenance params.
        let mut m = ByteReader::new(section(SectionId::Meta), "meta section");
        let n_genes = checked_u32(m.u64()?, "n_genes")?;
        let n_conds = checked_u32(m.u64()?, "n_conds")?;
        let n_clusters = checked_u32(m.u64()?, "n_clusters")?;
        let params_raw = m.bytes(m.remaining())?;
        let params_str = std::str::from_utf8(params_raw)
            .map_err(|_| StoreError::Metadata("params JSON is not UTF-8".into()))?;
        // Parse once into a document tree, upgrade older versions in
        // memory (the file itself is never rewritten), then read the two
        // typed views off the migrated tree. Keys neither view knows stay
        // in `meta` untouched — forward compatibility for minor writers.
        let mut meta = serde_json::from_str::<Value>(params_str)
            .map_err(|e| StoreError::Metadata(format!("params JSON unreadable: {e}")))?;
        migrations::upgrade(version, &mut meta)?;
        let params: MiningParams = serde_json::from_value(meta.clone())
            .map_err(|e| StoreError::Metadata(format!("params JSON unreadable: {e}")))?;
        // Same JSON object, second view: older stores simply lack the
        // provenance keys, which deserialize to `None`.
        let provenance: Provenance = serde_json::from_value(meta.clone())
            .map_err(|e| StoreError::Metadata(format!("provenance JSON unreadable: {e}")))?;

        let gene_names = decode_dict(section(SectionId::GeneDict), n_genes, "gene-dict")?;
        let cond_names = decode_dict(section(SectionId::CondDict), n_conds, "cond-dict")?;

        // Structural invariants of the fixed-width sections.
        let clusters_len = section(SectionId::Clusters).len() as u64;
        let offsets = section(SectionId::Offsets);
        if offsets.len() != n_clusters as usize * 8 {
            return Err(StoreError::Format(format!(
                "offsets section holds {} bytes, expected {} for {n_clusters} clusters",
                offsets.len(),
                n_clusters as usize * 8
            )));
        }
        for i in 0..n_clusters as usize {
            if u64_at(offsets, i) >= clusters_len.max(1) {
                return Err(StoreError::Format(format!(
                    "cluster {i} offset {} past clusters section ({clusters_len} bytes)",
                    u64_at(offsets, i)
                )));
            }
        }
        let sizes = section(SectionId::Sizes);
        if sizes.len() != n_clusters as usize * 8 {
            return Err(StoreError::Format(format!(
                "sizes section holds {} bytes, expected {}",
                sizes.len(),
                n_clusters as usize * 8
            )));
        }
        validate_csr(
            section(SectionId::GeneIndex),
            n_genes,
            n_clusters,
            "gene-index",
        )?;
        validate_csr(
            section(SectionId::CondIndex),
            n_conds,
            n_clusters,
            "cond-index",
        )?;

        Ok(ClusterStore {
            buf,
            sections,
            n_genes,
            n_conds,
            n_clusters,
            params,
            provenance,
            meta,
            gene_lookup: lookup(&gene_names),
            cond_lookup: lookup(&cond_names),
            gene_names,
            cond_names,
        })
    }

    fn section(&self, id: SectionId) -> &[u8] {
        &self.buf[self.sections[id as usize - 1].clone()]
    }

    /// Number of clusters.
    pub fn n_clusters(&self) -> u32 {
        self.n_clusters
    }

    /// Number of genes in the dictionary.
    pub fn n_genes(&self) -> u32 {
        self.n_genes
    }

    /// Number of conditions in the dictionary.
    pub fn n_conds(&self) -> u32 {
        self.n_conds
    }

    /// Mining parameters of the producing run (γ/ε provenance).
    pub fn params(&self) -> &MiningParams {
        &self.params
    }

    /// Name of the engine that produced the store, when recorded.
    ///
    /// `None` means the store predates engine provenance; those were
    /// always written by the reg-cluster miner.
    pub fn engine(&self) -> Option<&str> {
        self.provenance.engine.as_deref()
    }

    /// The producing engine's native parameters as a JSON string, when
    /// recorded (see
    /// [`BiclusterEngine::params_json`](regcluster_core::BiclusterEngine::params_json)).
    pub fn engine_params_json(&self) -> Option<&str> {
        self.provenance.engine_params.as_deref()
    }

    /// Generation number within a [`Generations`](crate::Generations)
    /// lineage. Standalone stores — and version-1 files, migrated at open
    /// — are generation 0.
    pub fn generation(&self) -> u64 {
        self.provenance.generation.unwrap_or(0)
    }

    /// Fingerprint of the mined expression matrix, when the producing run
    /// recorded one (see [`matrix_fingerprint`]).
    ///
    /// [`matrix_fingerprint`]: regcluster_core::matrix_fingerprint
    pub fn matrix_fingerprint(&self) -> Option<u64> {
        self.provenance.matrix_fingerprint
    }

    /// Per-root enumeration fingerprints of the producing run, when
    /// recorded (see [`root_fingerprints`]). A later run diffs these
    /// against the re-measured matrix's to decide which subtrees to
    /// re-mine and which clusters to splice over unchanged.
    ///
    /// [`root_fingerprints`]: regcluster_core::root_fingerprints
    pub fn root_fingerprints(&self) -> Option<&[u64]> {
        self.provenance.root_fingerprints.as_deref()
    }

    /// The META section's JSON document, re-rendered after migration to
    /// the current format version. Keys this build does not understand
    /// are preserved verbatim, in file order.
    pub fn meta_json(&self) -> String {
        serde_json::to_string(&self.meta).unwrap_or_else(|_| "{}".into())
    }

    /// Gene names, indexed by gene id.
    pub fn gene_names(&self) -> &[String] {
        &self.gene_names
    }

    /// Condition names, indexed by condition id.
    pub fn cond_names(&self) -> &[String] {
        &self.cond_names
    }

    /// Resolves a gene name to its id.
    pub fn gene_id(&self, name: &str) -> Option<u32> {
        self.gene_lookup.get(name).copied()
    }

    /// Resolves a condition name to its id.
    pub fn cond_id(&self, name: &str) -> Option<u32> {
        self.cond_lookup.get(name).copied()
    }

    /// Summary facts (the `/stats` payload).
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            n_clusters: self.n_clusters,
            n_genes: self.n_genes,
            n_conds: self.n_conds,
            file_bytes: self.buf.len() as u64,
            params: self.params.clone(),
            engine: self.provenance.engine.clone(),
            generation: self.generation(),
        }
    }

    /// Decodes cluster `id` (ids are canonical-order ranks).
    ///
    /// # Errors
    ///
    /// [`StoreError::ClusterOutOfBounds`] for `id ≥ n_clusters`;
    /// [`StoreError::Format`] if the record bytes are inconsistent.
    pub fn cluster(&self, id: u32) -> Result<RegCluster, StoreError> {
        self.record_bytes(id).map(decode_record)
    }

    /// The packed record bytes of cluster `id`, exactly as stored — shard
    /// merging ([`merge_shards`](crate::merge_shards)) copies these into a
    /// new store through
    /// [`StoreWriter::write_raw_record`](crate::StoreWriter::write_raw_record)
    /// without materializing a [`RegCluster`].
    ///
    /// # Errors
    ///
    /// [`StoreError::ClusterOutOfBounds`] for `id ≥ n_clusters`;
    /// [`StoreError::Format`] if the record bytes are inconsistent.
    pub fn record_bytes(&self, id: u32) -> Result<&[u8], StoreError> {
        if id >= self.n_clusters {
            return Err(StoreError::ClusterOutOfBounds {
                id,
                len: self.n_clusters,
            });
        }
        let off = u64_at(self.section(SectionId::Offsets), id as usize);
        record_at(self.section(SectionId::Clusters), off as usize)
    }

    /// The root condition (`chain[0]`) of cluster `id`, read straight from
    /// the packed record — no decode. This is the key delta mining splices
    /// by: a cluster carries over iff its root is unchanged.
    ///
    /// # Errors
    ///
    /// As [`record_bytes`](ClusterStore::record_bytes); additionally
    /// [`StoreError::Format`] for an empty chain (no well-formed writer
    /// produces one).
    pub fn cluster_root(&self, id: u32) -> Result<u32, StoreError> {
        let record = self.record_bytes(id)?;
        if u32_at(record, 0) == 0 {
            return Err(StoreError::Format(format!(
                "cluster {id} has an empty chain"
            )));
        }
        Ok(u32_at(record, 3))
    }

    /// `(n_genes, n_conds)` of cluster `id`, straight from the size table —
    /// no record decode.
    ///
    /// # Errors
    ///
    /// [`StoreError::ClusterOutOfBounds`] for `id ≥ n_clusters`.
    pub fn cluster_dims(&self, id: u32) -> Result<(u32, u32), StoreError> {
        if id >= self.n_clusters {
            return Err(StoreError::ClusterOutOfBounds {
                id,
                len: self.n_clusters,
            });
        }
        let sizes = self.section(SectionId::Sizes);
        Ok((
            u32_at(sizes, id as usize * 2),
            u32_at(sizes, id as usize * 2 + 1),
        ))
    }

    /// Iterates all clusters in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = Result<RegCluster, StoreError>> + '_ {
        (0..self.n_clusters).map(move |id| self.cluster(id))
    }

    fn postings(&self, index: SectionId, i: u32) -> PostingsIter<'_> {
        let raw = self.section(index);
        let start = u32_at(raw, i as usize) as usize;
        let end = u32_at(raw, i as usize + 1) as usize;
        let keys = match index {
            SectionId::GeneIndex => self.n_genes,
            _ => self.n_conds,
        } as usize;
        let postings = &raw[(keys + 1) * 4..];
        PostingsIter {
            raw: &postings[start * 4..end * 4],
            pos: 0,
        }
    }

    /// Ids of the clusters containing gene `g` (ascending). Empty iterator
    /// for an out-of-range gene.
    pub fn clusters_with_gene(&self, g: u32) -> PostingsIter<'_> {
        if g >= self.n_genes {
            return PostingsIter { raw: &[], pos: 0 };
        }
        self.postings(SectionId::GeneIndex, g)
    }

    /// Ids of the clusters whose chain contains condition `c` (ascending).
    pub fn clusters_with_cond(&self, c: u32) -> PostingsIter<'_> {
        if c >= self.n_conds {
            return PostingsIter { raw: &[], pos: 0 };
        }
        self.postings(SectionId::CondIndex, c)
    }
}

/// Iterator over a posting list: decodes `u32` ids on the fly from the
/// validated byte view — no allocation, no copy of the list.
pub struct PostingsIter<'a> {
    raw: &'a [u8],
    pos: usize,
}

impl Iterator for PostingsIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        if self.pos >= self.raw.len() / 4 {
            return None;
        }
        let v = u32_at(self.raw, self.pos);
        self.pos += 1;
        Some(v)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.raw.len() / 4 - self.pos;
        (n, Some(n))
    }
}

impl ExactSizeIterator for PostingsIter<'_> {}

/// Name → id map of a dictionary.
fn lookup(names: &[String]) -> HashMap<String, u32> {
    (0..).zip(names).map(|(i, n)| (n.clone(), i)).collect()
}

fn checked_u32(v: u64, what: &str) -> Result<u32, StoreError> {
    u32::try_from(v).map_err(|_| StoreError::Format(format!("{what} = {v} exceeds u32")))
}

fn decode_dict(raw: &[u8], expect: u32, what: &'static str) -> Result<Vec<String>, StoreError> {
    let mut r = ByteReader::new(raw, what);
    let count = r.u32()?;
    if count != expect {
        return Err(StoreError::Format(format!(
            "{what} holds {count} names, meta declares {expect}"
        )));
    }
    let mut names = Vec::with_capacity(count as usize);
    for _ in 0..count {
        names.push(r.string()?);
    }
    if r.remaining() != 0 {
        return Err(StoreError::Format(format!(
            "{what} has {} trailing bytes",
            r.remaining()
        )));
    }
    Ok(names)
}

/// Validates a CSR index: exact section length, starts from 0, monotonic,
/// and every posting id within `n_clusters`.
fn validate_csr(
    raw: &[u8],
    keys: u32,
    n_clusters: u32,
    what: &'static str,
) -> Result<(), StoreError> {
    let starts_len = (keys as usize + 1) * 4;
    if raw.len() < starts_len {
        return Err(StoreError::Format(format!(
            "{what} too short for {keys} keys ({} bytes)",
            raw.len()
        )));
    }
    if u32_at(raw, 0) != 0 {
        return Err(StoreError::Format(format!("{what} starts at nonzero")));
    }
    let mut prev = 0u32;
    for i in 1..=keys as usize {
        let s = u32_at(raw, i);
        if s < prev {
            return Err(StoreError::Format(format!(
                "{what} starts not monotonic at key {i}"
            )));
        }
        prev = s;
    }
    let postings_bytes = raw.len() - starts_len;
    if postings_bytes != prev as usize * 4 {
        return Err(StoreError::Format(format!(
            "{what} postings hold {postings_bytes} bytes, starts declare {}",
            prev as usize * 4
        )));
    }
    let postings = &raw[starts_len..];
    for i in 0..prev as usize {
        if u32_at(postings, i) >= n_clusters {
            return Err(StoreError::Format(format!(
                "{what} posting {i} references cluster {} of {n_clusters}",
                u32_at(postings, i)
            )));
        }
    }
    Ok(())
}
