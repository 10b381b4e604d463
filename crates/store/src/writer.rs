//! Streaming store writer: a [`ClusterSink`] that packs every fresh cluster
//! straight to disk while mining runs, then seals the file with indexes,
//! dictionaries and checksums.
//!
//! During mining only the record bytes and one `u64` offset per cluster are
//! retained (plus the dictionaries handed to [`StoreWriter::create`]), so
//! memory stays bounded by the dictionaries and the per-cluster bookkeeping,
//! not by the cluster payloads. [`StoreWriter::finish`] re-reads the record
//! section once (sequential I/O), computes the **canonical permutation**
//! (sort by chain, then p-members, then n-members — the same order as
//! [`finalize_clusters`](regcluster_core::finalize_clusters)), and writes
//! the offsets table in that order. Cluster ids in a sealed store are
//! therefore canonical-order ranks: a store written at 8 threads is
//! query-identical to one written sequentially.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use regcluster_core::{ClusterSink, MiningParams, RegCluster};
use serde::Value;

use crate::error::StoreError;
use crate::format::{
    decode_record, encode_record, put_string, put_u32, put_u64, record_at, validate_record,
    SectionId, SectionTable, STORE,
};

/// Optional provenance recorded alongside the mining parameters in a
/// store's META section (see
/// [`StoreWriter::create_with_provenance`]). Every field defaults to
/// "not recorded"; absent fields cost no bytes and read back as `None`
/// (generation: as 0).
#[derive(Debug, Clone, Default)]
pub struct StoreProvenance {
    /// Name of the producing engine (e.g. `"reg-cluster"`).
    pub engine: Option<String>,
    /// The engine's native parameters as a JSON string.
    pub engine_params: Option<String>,
    /// Generation number within a [`Generations`](crate::Generations)
    /// lineage.
    pub generation: u64,
    /// Fingerprint of the mined matrix
    /// ([`matrix_fingerprint`](regcluster_core::matrix_fingerprint)).
    pub matrix_fingerprint: Option<u64>,
    /// Per-root enumeration fingerprints
    /// ([`root_fingerprints`](regcluster_core::root_fingerprints)) — the
    /// input of a later delta mine's dirty/unchanged classification.
    pub root_fingerprints: Option<Vec<u64>>,
}

/// What [`StoreWriter::finish`] reports about the sealed file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreSummary {
    /// Clusters written.
    pub n_clusters: u64,
    /// Total file size in bytes.
    pub file_bytes: u64,
}

struct WriterState {
    file: BufWriter<File>,
    /// Record offsets relative to the clusters-section start, arrival order.
    offsets: Vec<u64>,
    /// Bytes written to the clusters section so far.
    clusters_len: u64,
    record_buf: Vec<u8>,
    /// First failure; once set, `accept` refuses everything and `finish`
    /// returns it.
    error: Option<StoreError>,
}

/// Writes a `.rcs` store as clusters stream in from the mining engine.
///
/// Implements [`ClusterSink`], so it plugs directly into
/// [`MineRequest::run`](regcluster_core::MineRequest::run): an I/O failure makes
/// `accept` return `false`, which stops the run cooperatively
/// (`stopped_by_sink`), and the failure itself is returned by
/// [`finish`](StoreWriter::finish).
///
/// # Crash atomicity
///
/// All streaming and sealing I/O goes to `<path>.tmp`; only after the
/// sealed file is flushed and fsynced does [`finish`](StoreWriter::finish)
/// rename it over `path` and fsync the parent directory. A crash (or an
/// injected failpoint, see `docs/ROBUSTNESS.md`) at **any** point
/// therefore leaves the destination either untouched (the previous
/// complete store, or absent) or the new complete store — never a torn
/// file. A writer dropped without `finish` leaves only the `.tmp`, which
/// [`ClusterStore::open`](crate::ClusterStore::open) clears as a stale
/// leftover.
pub struct StoreWriter {
    state: Mutex<WriterState>,
    final_path: PathBuf,
    tmp_path: PathBuf,
    gene_names: Vec<String>,
    cond_names: Vec<String>,
    params_json: String,
}

/// The scratch path a writer streams into before the sealing rename:
/// `<path>.tmp`, with the suffix appended to the full file name.
pub(crate) fn tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

/// Fsyncs the directory containing `path` so a just-renamed entry is
/// durable (on platforms where directories cannot be opened for sync,
/// e.g. Windows, this degrades to a no-op).
pub(crate) fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    match File::open(parent) {
        Ok(dir) => dir.sync_all(),
        Err(_) => Ok(()),
    }
}

/// Replaces `path` with `bytes` crash-atomically: the bytes go to
/// `<path>.tmp`, which is fsynced, renamed over `path`, and the parent
/// directory fsynced. A crash at any point leaves `path` holding either
/// its previous contents or `bytes`, never a torn file. On error the
/// scratch file is removed.
///
/// # Errors
///
/// The first I/O failure of the sequence.
pub fn write_durably(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = tmp_path(path);
    let result = (|| {
        let mut file = File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&tmp, path)?;
        sync_parent_dir(path)
    })();
    if result.is_err() {
        // After the rename the scratch is already gone and this is a no-op.
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

impl StoreWriter {
    /// Prepares to write the store that will land at `path`, streaming
    /// into `<path>.tmp` until [`finish`](StoreWriter::finish) renames it
    /// into place. An existing complete store at `path` stays intact (and
    /// readable) until that rename.
    ///
    /// `gene_names` / `cond_names` are the matrix dictionaries: member and
    /// chain ids of every accepted cluster must index into them. `params`
    /// is stored verbatim for provenance (γ/ε of the run).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the scratch file cannot be created, or
    /// [`StoreError::Metadata`] if the parameters fail to serialize.
    pub fn create(
        path: impl AsRef<Path>,
        gene_names: &[String],
        cond_names: &[String],
        params: &MiningParams,
    ) -> Result<Self, StoreError> {
        let params_json =
            serde_json::to_string(params).map_err(|e| StoreError::Metadata(e.to_string()))?;
        Self::create_inner(path.as_ref(), gene_names, cond_names, params_json)
    }

    /// Like [`create`](StoreWriter::create), additionally recording which
    /// engine produced the store and its native parameters (a JSON string,
    /// typically [`BiclusterEngine::params_json`]) in the metadata section.
    ///
    /// The engine fields are spliced into the same meta JSON object that
    /// carries `params`, so a reader from before the engine era still
    /// parses the provenance it understands and simply ignores the rest.
    ///
    /// [`BiclusterEngine::params_json`]: regcluster_core::BiclusterEngine::params_json
    ///
    /// # Errors
    ///
    /// As [`create`](StoreWriter::create).
    pub fn create_with_engine(
        path: impl AsRef<Path>,
        gene_names: &[String],
        cond_names: &[String],
        params: &MiningParams,
        engine: &str,
        engine_params_json: &str,
    ) -> Result<Self, StoreError> {
        let meta = |e| StoreError::Metadata(format!("{e}"));
        let params_json = serde_json::to_string(params).map_err(meta)?;
        debug_assert!(params_json.starts_with('{') && params_json.len() > 2);
        let merged = format!(
            "{{\"engine\":{},\"engine_params\":{},{}",
            serde_json::to_string(engine).map_err(meta)?,
            serde_json::to_string(engine_params_json).map_err(meta)?,
            &params_json[1..],
        );
        Self::create_inner(path.as_ref(), gene_names, cond_names, merged)
    }

    /// Like [`create`](StoreWriter::create), additionally recording the
    /// full provenance set — engine, generation, matrix and per-root
    /// fingerprints — in the META JSON. This is the writer the delta
    /// mining pipeline uses: the fingerprints it records are what a later
    /// `mine --delta-from` run diffs against.
    ///
    /// # Errors
    ///
    /// As [`create`](StoreWriter::create).
    pub fn create_with_provenance(
        path: impl AsRef<Path>,
        gene_names: &[String],
        cond_names: &[String],
        params: &MiningParams,
        provenance: &StoreProvenance,
    ) -> Result<Self, StoreError> {
        let Ok(Value::Object(params_pairs)) = serde_json::to_value(params) else {
            return Err(StoreError::Metadata(
                "mining parameters did not serialize to an object".into(),
            ));
        };
        let int = |v: u64| Value::Int(i128::from(v));
        let mut pairs: Vec<(String, Value)> = Vec::new();
        if let Some(e) = &provenance.engine {
            pairs.push(("engine".into(), Value::Str(e.clone())));
        }
        if let Some(p) = &provenance.engine_params {
            pairs.push(("engine_params".into(), Value::Str(p.clone())));
        }
        pairs.push(("generation".into(), int(provenance.generation)));
        if let Some(fp) = provenance.matrix_fingerprint {
            pairs.push(("matrix_fingerprint".into(), int(fp)));
        }
        if let Some(fps) = &provenance.root_fingerprints {
            pairs.push((
                "root_fingerprints".into(),
                Value::Array(fps.iter().map(|&f| int(f)).collect()),
            ));
        }
        pairs.extend(params_pairs);
        let merged = serde_json::to_string(&Value::Object(pairs))
            .map_err(|e| StoreError::Metadata(e.to_string()))?;
        Self::create_inner(path.as_ref(), gene_names, cond_names, merged)
    }

    /// Like [`create`](StoreWriter::create), but taking the META JSON
    /// document verbatim. The document must be an object parseable as
    /// [`MiningParams`]; any **additional** keys are stored untouched and
    /// survive an open/re-render cycle (the round-trip property the
    /// format's forward compatibility rests on — see the proptest in
    /// `crates/store/tests/roundtrip.rs`).
    ///
    /// # Errors
    ///
    /// [`StoreError::Metadata`] when the document does not parse as a
    /// params-bearing object, otherwise as [`create`](StoreWriter::create).
    pub fn create_with_meta_json(
        path: impl AsRef<Path>,
        gene_names: &[String],
        cond_names: &[String],
        meta_json: &str,
    ) -> Result<Self, StoreError> {
        let doc = serde_json::from_str::<Value>(meta_json)
            .map_err(|e| StoreError::Metadata(format!("meta JSON unreadable: {e}")))?;
        if !matches!(doc, Value::Object(_)) {
            return Err(StoreError::Metadata("meta JSON is not an object".into()));
        }
        let _: MiningParams = serde_json::from_str(meta_json)
            .map_err(|e| StoreError::Metadata(format!("meta JSON lacks valid params: {e}")))?;
        Self::create_inner(path.as_ref(), gene_names, cond_names, meta_json.to_string())
    }

    fn create_inner(
        path: &Path,
        gene_names: &[String],
        cond_names: &[String],
        params_json: String,
    ) -> Result<Self, StoreError> {
        let final_path = path.to_path_buf();
        let tmp = tmp_path(&final_path);
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        let mut file = BufWriter::new(file);
        // Placeholder header; patched by `finish` once the table offset and
        // checksum are known. Until then the magic is zeroed, so a reader
        // can never mistake an unsealed file for a valid store.
        file.write_all(&[0u8; STORE.header_len])?;
        Ok(StoreWriter {
            state: Mutex::new(WriterState {
                file,
                offsets: Vec::new(),
                clusters_len: 0,
                record_buf: Vec::new(),
                error: None,
            }),
            final_path,
            tmp_path: tmp,
            gene_names: gene_names.to_vec(),
            cond_names: cond_names.to_vec(),
            params_json,
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, WriterState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Clusters accepted so far.
    pub fn n_written(&self) -> u64 {
        self.lock().offsets.len() as u64
    }

    /// Appends one cluster record. Prefer the [`ClusterSink`] impl when
    /// mining; this is the offline path (e.g. converting a JSON result).
    ///
    /// # Errors
    ///
    /// [`StoreError::Format`] carrying the message of the failure: an empty
    /// chain, ids outside the dictionaries, or a write failure. After an
    /// error the writer is poisoned: further writes are refused and
    /// `finish` reports the original failure.
    pub fn write_cluster(&self, cluster: &RegCluster) -> Result<(), StoreError> {
        let mut state = self.lock();
        let mut buf = std::mem::take(&mut state.record_buf);
        buf.clear();
        encode_record(cluster, &mut buf);
        let result = self.append(&mut state, &buf);
        state.record_buf = buf;
        result
    }

    /// Appends one cluster as already-packed record bytes, e.g. straight
    /// from [`ClusterStore::record_bytes`](crate::ClusterStore::record_bytes)
    /// — the path of shard merging, which copies records between stores
    /// without materializing [`RegCluster`]s. The
    /// record's shape and every id are still validated against this
    /// writer's dictionaries, so a cross-store mix-up cannot seal a
    /// corrupt file.
    ///
    /// # Errors
    ///
    /// As [`write_cluster`](StoreWriter::write_cluster), of which this is
    /// the second half: malformed record bytes are a
    /// [`StoreError::Format`] failure.
    pub fn write_raw_record(&self, record: &[u8]) -> Result<(), StoreError> {
        self.append(&mut self.lock(), record)
    }

    /// The one path of a record into the file: refused once the writer has
    /// failed, validated against the dictionaries, then appended. A failure
    /// poisons the writer and is returned as [`StoreError::Format`]
    /// carrying its message; `finish` returns the failure itself.
    fn append(&self, state: &mut WriterState, record: &[u8]) -> Result<(), StoreError> {
        if let Some(e) = &state.error {
            return Err(StoreError::Format(format!(
                "writer already failed: {e}; record refused"
            )));
        }
        let result = validate_record(record, self.gene_names.len(), self.cond_names.len())
            .and_then(|()| {
                regcluster_failpoint::io("store::record_write")?;
                state.file.write_all(record)?;
                state.offsets.push(state.clusters_len);
                state.clusters_len += record.len() as u64;
                Ok(())
            });
        if let Err(e) = result {
            let msg = e.to_string();
            state.error = Some(e);
            return Err(StoreError::Format(msg));
        }
        Ok(())
    }

    /// Seals the store: canonical offsets table, size table, inverted
    /// indexes, metadata, dictionaries, section table, header — in that
    /// order — then fsyncs the scratch file, renames it over the
    /// destination, and fsyncs the parent directory. The destination is
    /// replaced atomically: it either still holds its previous contents
    /// or the new complete store, never a torn intermediate.
    ///
    /// # Errors
    ///
    /// The first write failure recorded during streaming, or any failure
    /// while sealing. On error the scratch `.tmp` is removed (best
    /// effort) and the destination is left untouched.
    pub fn finish(self) -> Result<StoreSummary, StoreError> {
        let tmp = self.tmp_path.clone();
        let result = self.finish_inner();
        if result.is_err() {
            // Best effort: if the failure happened after the rename the
            // tmp is already gone and this is a no-op.
            let _ = std::fs::remove_file(&tmp);
        }
        result
    }

    fn finish_inner(self) -> Result<StoreSummary, StoreError> {
        let state = self
            .state
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(e) = state.error {
            return Err(e);
        }
        let WriterState {
            file,
            offsets,
            clusters_len,
            ..
        } = state;
        let mut file = file
            .into_inner()
            .map_err(|e| StoreError::Io(std::io::Error::other(e.to_string())))?;

        // Re-read the streamed records once to canonicalize and index. The
        // records stay on disk; only (chain, members) copies are held here.
        file.seek(SeekFrom::Start(STORE.header_len as u64))?;
        let mut clusters_raw = vec![0u8; clusters_len as usize];
        file.read_exact(&mut clusters_raw)?;
        let decoded: Vec<RegCluster> = offsets
            .iter()
            .map(|&off| record_at(&clusters_raw, off as usize).map(decode_record))
            .collect::<Result<_, _>>()?;

        // Canonical permutation: the same (chain, p, n) order the collect
        // path sorts into, so cluster ids are stable across thread counts.
        let mut order: Vec<u32> = (0..decoded.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| {
            let (x, y) = (&decoded[a as usize], &decoded[b as usize]);
            x.chain
                .cmp(&y.chain)
                .then_with(|| x.p_members.cmp(&y.p_members))
                .then_with(|| x.n_members.cmp(&y.n_members))
        });

        // Rewrite the clusters section itself in canonical order, not just
        // the offsets table. This makes the sealed *bytes* a function of
        // the cluster set alone — independent of arrival order — so a
        // multi-threaded run, a delta splice, and a multi-worker shard
        // merge ([`merge_shards`](crate::merge_shards)) all seal to the
        // identical file, which is what the distributed golden tests
        // byte-compare.
        let mut canonical_raw = Vec::with_capacity(clusters_raw.len());
        let mut canonical_offsets = Vec::with_capacity(order.len());
        for &arrival in &order {
            let record = record_at(&clusters_raw, offsets[arrival as usize] as usize)?;
            canonical_offsets.push(canonical_raw.len() as u64);
            canonical_raw.extend_from_slice(record);
        }
        debug_assert_eq!(canonical_raw.len(), clusters_raw.len());
        file.seek(SeekFrom::Start(STORE.header_len as u64))?;
        file.write_all(&canonical_raw)?;
        // Frees the arrival-order copy: the seal holds the records once.
        clusters_raw = canonical_raw;

        // Inverted postings, ascending by construction (canonical id order).
        let mut gene_postings: Vec<Vec<u32>> = vec![Vec::new(); self.gene_names.len()];
        let mut cond_postings: Vec<Vec<u32>> = vec![Vec::new(); self.cond_names.len()];
        for (id, &arrival) in order.iter().enumerate() {
            let c = &decoded[arrival as usize];
            for g in c.genes_iter() {
                gene_postings[g].push(id as u32);
            }
            for &cond in &c.chain {
                cond_postings[cond].push(id as u32);
            }
        }

        let mut sections = SectionTable::new(&STORE);
        sections.add(SectionId::Clusters as u32, &clusters_raw);
        let mut file = BufWriter::new(file);

        let mut write_section =
            |file: &mut BufWriter<File>, id: SectionId, payload: &[u8]| -> Result<(), StoreError> {
                // One evaluation per section boundary: `@n` picks which
                // of the seven sealing sections the chaos test kills at.
                regcluster_failpoint::io("store::section_flush")?;
                file.write_all(payload)?;
                sections.add(id as u32, payload);
                Ok(())
            };

        let mut buf = Vec::new();
        for &off in &canonical_offsets {
            put_u64(&mut buf, off);
        }
        write_section(&mut file, SectionId::Offsets, &buf)?;

        buf.clear();
        for &arrival in &order {
            let c = &decoded[arrival as usize];
            put_u32(&mut buf, c.n_genes() as u32);
            put_u32(&mut buf, c.n_conditions() as u32);
        }
        write_section(&mut file, SectionId::Sizes, &buf)?;

        encode_csr(&gene_postings, &mut buf);
        write_section(&mut file, SectionId::GeneIndex, &buf)?;
        encode_csr(&cond_postings, &mut buf);
        write_section(&mut file, SectionId::CondIndex, &buf)?;

        buf.clear();
        put_u64(&mut buf, self.gene_names.len() as u64);
        put_u64(&mut buf, self.cond_names.len() as u64);
        put_u64(&mut buf, decoded.len() as u64);
        buf.extend_from_slice(self.params_json.as_bytes());
        write_section(&mut file, SectionId::Meta, &buf)?;

        encode_dict(&self.gene_names, &mut buf);
        write_section(&mut file, SectionId::GeneDict, &buf)?;
        encode_dict(&self.cond_names, &mut buf);
        write_section(&mut file, SectionId::CondDict, &buf)?;

        // Section table, then the real header.
        let (header, table) = sections.seal();
        file.write_all(table)?;
        regcluster_failpoint::io("store::seal_header")?;
        file.seek(SeekFrom::Start(0))?;
        file.write_all(&header)?;
        file.flush()?;
        regcluster_failpoint::io("store::fsync_file")?;
        file.get_ref().sync_all()?;
        drop(file);
        // The commit point: everything before this leaves the destination
        // untouched; everything at or after it leaves the new complete
        // store in place.
        regcluster_failpoint::io("store::rename")?;
        std::fs::rename(&self.tmp_path, &self.final_path)?;
        regcluster_failpoint::io("store::dir_sync")?;
        sync_parent_dir(&self.final_path)?;

        Ok(StoreSummary {
            n_clusters: decoded.len() as u64,
            file_bytes: sections.file_len(),
        })
    }
}

impl ClusterSink for StoreWriter {
    /// Streams one cluster to disk; returns `false` (stopping the run
    /// cooperatively) after the first failure, which
    /// [`finish`](StoreWriter::finish) then reports.
    fn accept(&self, cluster: RegCluster) -> bool {
        self.write_cluster(&cluster).is_ok()
    }
}

/// CSR layout: `(lists.len() + 1)` u32 prefix starts, then the
/// concatenated postings.
fn encode_csr(lists: &[Vec<u32>], out: &mut Vec<u8>) {
    out.clear();
    let mut start = 0u32;
    put_u32(out, start);
    for l in lists {
        start += l.len() as u32;
        put_u32(out, start);
    }
    for l in lists {
        for &v in l {
            put_u32(out, v);
        }
    }
}

fn encode_dict(names: &[String], out: &mut Vec<u8>) {
    out.clear();
    put_u32(out, names.len() as u32);
    for n in names {
        put_string(out, n);
    }
}
