//! The `.rck` on-disk checkpoint: a crash-safe snapshot of an interrupted
//! mining run in the `.rcs` section container, under its own magic and
//! section ids. The header, the section table and the cluster record are
//! coded once, in the `format` module.
//!
//! ```text
//! ┌────────────────────────────────────────────────────────────┐
//! │ header (32 B): the `.rcs` header (`format.rs`) with magic  │
//! │   b"RCKPOINT" and the checkpoint version                   │
//! ├────────────────────────────────────────────────────────────┤
//! │ META     n_genes, n_conds, matrix_fingerprint (u64 each),  │
//! │          then mining-params JSON                           │
//! │ PENDING  count u64, then per frontier node:                │
//! │            chain_len u32, member_len u32,                  │
//! │            chain ids u32 LE each, then per member           │
//! │            gene u32, flags u32 (bit 0 = forward),          │
//! │            denom_bits u64                                  │
//! │ EMITTED  count u64, then packed cluster records in the     │
//! │          `.rcs` record layout (`format.rs`)                │
//! ├────────────────────────────────────────────────────────────┤
//! │ section table: count × 32 B, as in `.rcs` (`format.rs`)    │
//! └────────────────────────────────────────────────────────────┘
//! ```
//!
//! [`CheckpointFile`] implements the engine's
//! [`CheckpointSink`](regcluster_core::CheckpointSink) and persists every
//! snapshot with the same tmp + fsync + rename + parent-fsync discipline
//! as [`StoreWriter::finish`](crate::StoreWriter::finish): the `.rck` path
//! always holds either the previous complete checkpoint or the new one.
//! [`read_checkpoint`] verifies every checksum before decoding, so a torn
//! or bit-flipped file is rejected — resuming then falls back to a fresh
//! run instead of silently mining a corrupt frontier.

use std::path::{Path, PathBuf};

use regcluster_core::{CheckpointSink, EngineCheckpoint, MiningParams, PendingMember, PendingNode};

use crate::error::StoreError;
use crate::format::{
    decode_record, encode_record, put_u32, put_u64, record_at, ByteReader, FileKind, SectionTable,
    HEADER_LEN,
};
use crate::writer::write_durably;

/// File magic, first 8 bytes of every checkpoint.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"RCKPOINT";

/// The checkpoint format version this build writes and reads.
pub const CHECKPOINT_VERSION: u32 = 1;

/// The `.rck` checkpoint: the `.rcs` header under its own magic.
const CHECKPOINT: FileKind = FileKind {
    magic: CHECKPOINT_MAGIC,
    version: CHECKPOINT_VERSION,
    min_version: CHECKPOINT_VERSION,
    header_len: HEADER_LEN,
    name: ".rck checkpoint",
};

/// Section ids of the `.rck` layout (distinct from the `.rcs` ids).
const META: u32 = 1;
const PENDING: u32 = 2;
const EMITTED: u32 = 3;

/// Names of sections `META`, `PENDING` and `EMITTED` in checksum errors.
const SECTION_NAMES: [&str; 3] = [
    "checkpoint meta",
    "checkpoint pending",
    "checkpoint emitted",
];

/// A checkpoint sink that persists every engine snapshot atomically to one
/// `.rck` path.
///
/// Each [`save`](CheckpointSink::save) encodes the full snapshot, streams
/// it to `<path>.tmp`, fsyncs, renames over `path`, and fsyncs the parent
/// directory — so a crash mid-save leaves the previous complete checkpoint
/// intact. The `checkpoint::save` failpoint fires once per save for chaos
/// testing (see `docs/ROBUSTNESS.md`).
#[derive(Debug, Clone)]
pub struct CheckpointFile {
    path: PathBuf,
}

impl CheckpointFile {
    /// A sink writing checkpoints to `path` (conventionally `*.rck`).
    pub fn new(path: impl AsRef<Path>) -> Self {
        CheckpointFile {
            path: path.as_ref().to_path_buf(),
        }
    }

    /// The destination path snapshots are renamed onto.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn save_inner(&self, checkpoint: &EngineCheckpoint) -> Result<(), StoreError> {
        let bytes = encode_checkpoint(checkpoint)?;
        regcluster_failpoint::io("checkpoint::save")?;
        write_durably(&self.path, &bytes).map_err(StoreError::Io)
    }
}

impl CheckpointSink for CheckpointFile {
    fn save(&self, checkpoint: &EngineCheckpoint) -> std::io::Result<()> {
        self.save_inner(checkpoint).map_err(|e| match e {
            StoreError::Io(io) => io,
            other => std::io::Error::other(other.to_string()),
        })
    }
}

/// Encodes a snapshot into the complete `.rck` byte image.
fn encode_checkpoint(ck: &EngineCheckpoint) -> Result<Vec<u8>, StoreError> {
    let params_json =
        serde_json::to_string(&ck.params).map_err(|e| StoreError::Metadata(e.to_string()))?;

    let mut meta = Vec::new();
    put_u64(&mut meta, ck.n_genes as u64);
    put_u64(&mut meta, ck.n_conditions as u64);
    put_u64(&mut meta, ck.matrix_fingerprint);
    meta.extend_from_slice(params_json.as_bytes());

    let mut pending = Vec::new();
    put_u64(&mut pending, ck.pending.len() as u64);
    for node in &ck.pending {
        put_u32(&mut pending, node.chain.len() as u32);
        put_u32(&mut pending, node.members.len() as u32);
        for &c in &node.chain {
            put_u32(&mut pending, c as u32);
        }
        for m in &node.members {
            put_u32(&mut pending, m.gene as u32);
            put_u32(&mut pending, u32::from(m.forward));
            put_u64(&mut pending, m.denom_bits);
        }
    }

    let mut emitted = Vec::new();
    put_u64(&mut emitted, ck.emitted.len() as u64);
    for c in &ck.emitted {
        encode_record(c, &mut emitted);
    }

    let mut table = SectionTable::new(&CHECKPOINT);
    let mut out = vec![0u8; CHECKPOINT.header_len];
    for (id, payload) in [(META, &meta), (PENDING, &pending), (EMITTED, &emitted)] {
        table.add(id, payload);
        out.extend_from_slice(payload);
    }
    let (header, table) = table.seal();
    out.extend_from_slice(table);
    out[..CHECKPOINT.header_len].copy_from_slice(&header);
    Ok(out)
}

/// Reads and fully verifies a `.rck` checkpoint.
///
/// Every section checksum and all structural bounds are checked before the
/// snapshot is handed back; the engine then re-validates it against the
/// actual matrix and parameters at resume time.
///
/// # Errors
///
/// * [`StoreError::Io`] — the file cannot be read;
/// * [`StoreError::Format`] — bad magic, truncation, structural damage;
/// * [`StoreError::Version`] — written by an incompatible build;
/// * [`StoreError::ChecksumMismatch`] — bit rot or a torn write;
/// * [`StoreError::Metadata`] — parameter provenance unreadable.
pub fn read_checkpoint(path: impl AsRef<Path>) -> Result<EngineCheckpoint, StoreError> {
    let buf = std::fs::read(path.as_ref())?;
    let (_, sections) =
        CHECKPOINT.open_sections(&buf, "checkpoint section table", SECTION_NAMES)?;
    let [meta, pending, emitted] = sections.map(|range| &buf[range]);

    let mut m = ByteReader::new(meta, "checkpoint meta");
    let n_genes = m.u64()? as usize;
    let n_conditions = m.u64()? as usize;
    let matrix_fingerprint = m.u64()?;
    let params_raw = m.bytes(m.remaining())?;
    let params_str = std::str::from_utf8(params_raw)
        .map_err(|_| StoreError::Metadata("checkpoint params JSON is not UTF-8".into()))?;
    let params: MiningParams = serde_json::from_str(params_str)
        .map_err(|e| StoreError::Metadata(format!("checkpoint params JSON unreadable: {e}")))?;

    let mut p = ByteReader::new(pending, "checkpoint pending");
    let n_pending = p.u64()? as usize;
    let mut pending_nodes = Vec::with_capacity(n_pending.min(1 << 16));
    for _ in 0..n_pending {
        let chain_len = p.u32()? as usize;
        let member_len = p.u32()? as usize;
        let mut chain = Vec::with_capacity(chain_len.min(1 << 16));
        for _ in 0..chain_len {
            chain.push(p.u32()? as usize);
        }
        let mut members = Vec::with_capacity(member_len.min(1 << 16));
        for _ in 0..member_len {
            let gene = p.u32()? as usize;
            let flags = p.u32()?;
            let denom_bits = p.u64()?;
            members.push(PendingMember {
                gene,
                forward: flags & 1 != 0,
                denom_bits,
            });
        }
        pending_nodes.push(PendingNode { chain, members });
    }
    if p.remaining() != 0 {
        return Err(StoreError::Format(format!(
            "checkpoint pending: {} trailing bytes after last node",
            p.remaining()
        )));
    }

    let mut e = ByteReader::new(emitted, "checkpoint emitted");
    let n_emitted = e.u64()? as usize;
    let records = e.bytes(e.remaining())?;
    let mut emitted_clusters = Vec::with_capacity(n_emitted.min(1 << 16));
    let mut off = 0;
    for _ in 0..n_emitted {
        let record = record_at(records, off)?;
        emitted_clusters.push(decode_record(record));
        off += record.len();
    }
    if off != records.len() {
        return Err(StoreError::Format(format!(
            "checkpoint emitted: {} trailing bytes after last record",
            records.len() - off
        )));
    }

    Ok(EngineCheckpoint {
        params,
        n_genes,
        n_conditions,
        matrix_fingerprint,
        pending: pending_nodes,
        emitted: emitted_clusters,
    })
}
