//! The `.rcj` control-plane journal: a crash-durable, append-only record
//! log for the cluster coordinator's lease state, reusing the store's
//! FNV-64 checksum machinery under its own magic.
//!
//! ```text
//! ┌────────────────────────────────────────────────────────────┐
//! │ header (16 B)                                              │
//! │   0..8   magic  b"RCJORNL\0"                               │
//! │   8..12  journal version (u32 LE)                          │
//! │  12..16  reserved (u32 LE, zero)                           │
//! ├────────────────────────────────────────────────────────────┤
//! │ record 0: payload_len u32 │ fnv64(payload) u64 │ payload   │
//! │ record 1: …                                                │
//! │ …                                                          │
//! └────────────────────────────────────────────────────────────┘
//! ```
//!
//! Each payload starts with a `u32` record type followed by the fields of
//! one [`JournalRecord`] variant; strings are `u32`-length-prefixed UTF-8.
//!
//! # Durability discipline
//!
//! The header is created with [`write_durably`], like every other store
//! file, so a crash during creation leaves either no journal or a
//! complete empty one. Every [`append`](Journal::append) writes one
//! complete record at the journal's valid end offset, then fsyncs the
//! data before returning. `Ok` means the record is in the journal; `Err`
//! means it is not: a failed append truncates the file back to the valid
//! end, and the next append overwrites from there anyway, so a torn frame
//! can never hide the records written after it. A crash mid-append can
//! therefore leave at most one torn record at the tail.
//!
//! # Torn-tail recovery
//!
//! [`Journal::recover`] scans records front to back, verifying each
//! length and checksum before decoding. The first invalid record —
//! truncated length prefix, length past end of file, checksum mismatch,
//! or undecodable payload — ends the scan: everything before it is the
//! recovered prefix, and the file is truncated back to that point (with
//! an fsync) so the journal is append-clean again. A damaged *header*
//! is not recoverable and yields a typed [`StoreError`]; the caller
//! decides whether to archive and start fresh. Recovery never panics on
//! any byte-level damage — `crates/store/tests/journal.rs` proves it by
//! exhaustively flipping every byte and truncating at every offset.

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::error::StoreError;
use crate::format::{put_string, put_u32, put_u64, ByteReader, FileKind, Fnv64};
use crate::writer::write_durably;

/// File magic, first 8 bytes of every journal.
pub const JOURNAL_MAGIC: [u8; 8] = *b"RCJORNL\0";

/// The journal format version this build writes and reads.
pub const JOURNAL_VERSION: u32 = 1;

/// Fixed header length in bytes.
pub const JOURNAL_HEADER_LEN: usize = 16;

/// The `.rcj` journal: the shared preamble, then a reserved `u32`.
const JOURNAL: FileKind = FileKind {
    magic: JOURNAL_MAGIC,
    version: JOURNAL_VERSION,
    min_version: JOURNAL_VERSION,
    header_len: JOURNAL_HEADER_LEN,
    name: ".rcj journal",
};

/// Per-record framing overhead: `payload_len u32` + `fnv64 u64`.
const FRAME_LEN: usize = 12;

/// Largest accepted record payload. Real records are tens to hundreds of
/// bytes; the bound keeps a corrupted length prefix from asking for a
/// multi-gigabyte allocation.
const MAX_RECORD: usize = 1 << 20;

/// Record type tags (the first `u32` of every payload).
const T_JOB_CREATED: u32 = 1;
const T_LEASE_GRANTED: u32 = 2;
const T_LEASE_RENEWED: u32 = 3;
const T_LEASE_EXPIRED: u32 = 4;
const T_SHARD_STAGED: u32 = 5;
const T_PUBLISHED: u32 = 6;

/// One durable control-plane transition.
///
/// The variants mirror the coordinator's lease protocol (`DESIGN.md`
/// §14): a run is created once, leases are granted / renewed / expired,
/// shards close their leases, and the merged generation is published.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalRecord {
    /// A coordination run began: the identity every later record belongs
    /// to. Replay rejects a journal whose identity disagrees with the
    /// restarted coordinator's configuration.
    JobCreated {
        /// Generation the run will publish.
        generation: u64,
        /// Fingerprint of the input matrix.
        matrix_fingerprint: u64,
        /// Canonical mining-params JSON.
        params_json: String,
        /// Total root conditions partitioned.
        n_roots: u64,
        /// Number of lease slots in the partition.
        n_leases: u64,
    },
    /// A lease slot was granted to a worker under a fresh epoch.
    LeaseGranted {
        /// Slot index.
        lease: u64,
        /// Fencing epoch minted for this grant.
        epoch: u64,
        /// Worker id the slot was granted to.
        worker: String,
    },
    /// A heartbeat renewal was accepted (informational: deadlines are
    /// wall-clock and restart from "now + TTL" on replay).
    LeaseRenewed {
        /// Slot index.
        lease: u64,
        /// Epoch the renewal carried.
        epoch: u64,
    },
    /// A lease expired for worker silence and returned to the pool.
    LeaseExpired {
        /// Slot index.
        lease: u64,
        /// Epoch that expired.
        epoch: u64,
    },
    /// A validated shard was durably staged; the slot is done.
    ShardStaged {
        /// Slot index.
        lease: u64,
        /// Epoch the upload carried.
        epoch: u64,
    },
    /// The merged generation was published.
    Published {
        /// Generation number published.
        generation: u64,
    },
}

fn encode_record(rec: &JournalRecord) -> Vec<u8> {
    let mut p = Vec::new();
    match rec {
        JournalRecord::JobCreated {
            generation,
            matrix_fingerprint,
            params_json,
            n_roots,
            n_leases,
        } => {
            put_u32(&mut p, T_JOB_CREATED);
            put_u64(&mut p, *generation);
            put_u64(&mut p, *matrix_fingerprint);
            put_u64(&mut p, *n_roots);
            put_u64(&mut p, *n_leases);
            put_string(&mut p, params_json);
        }
        JournalRecord::LeaseGranted {
            lease,
            epoch,
            worker,
        } => {
            put_u32(&mut p, T_LEASE_GRANTED);
            put_u64(&mut p, *lease);
            put_u64(&mut p, *epoch);
            put_string(&mut p, worker);
        }
        JournalRecord::LeaseRenewed { lease, epoch } => {
            put_u32(&mut p, T_LEASE_RENEWED);
            put_u64(&mut p, *lease);
            put_u64(&mut p, *epoch);
        }
        JournalRecord::LeaseExpired { lease, epoch } => {
            put_u32(&mut p, T_LEASE_EXPIRED);
            put_u64(&mut p, *lease);
            put_u64(&mut p, *epoch);
        }
        JournalRecord::ShardStaged { lease, epoch } => {
            put_u32(&mut p, T_SHARD_STAGED);
            put_u64(&mut p, *lease);
            put_u64(&mut p, *epoch);
        }
        JournalRecord::Published { generation } => {
            put_u32(&mut p, T_PUBLISHED);
            put_u64(&mut p, *generation);
        }
    }
    p
}

fn decode_record(payload: &[u8]) -> Result<JournalRecord, StoreError> {
    let mut r = ByteReader::new(payload, "journal record");
    let rec = match r.u32()? {
        T_JOB_CREATED => {
            let generation = r.u64()?;
            let matrix_fingerprint = r.u64()?;
            let n_roots = r.u64()?;
            let n_leases = r.u64()?;
            let params_json = r.string()?;
            JournalRecord::JobCreated {
                generation,
                matrix_fingerprint,
                params_json,
                n_roots,
                n_leases,
            }
        }
        T_LEASE_GRANTED => {
            let lease = r.u64()?;
            let epoch = r.u64()?;
            let worker = r.string()?;
            JournalRecord::LeaseGranted {
                lease,
                epoch,
                worker,
            }
        }
        T_LEASE_RENEWED => JournalRecord::LeaseRenewed {
            lease: r.u64()?,
            epoch: r.u64()?,
        },
        T_LEASE_EXPIRED => JournalRecord::LeaseExpired {
            lease: r.u64()?,
            epoch: r.u64()?,
        },
        T_SHARD_STAGED => JournalRecord::ShardStaged {
            lease: r.u64()?,
            epoch: r.u64()?,
        },
        T_PUBLISHED => JournalRecord::Published {
            generation: r.u64()?,
        },
        other => {
            return Err(StoreError::Format(format!(
                "journal record: unknown type {other}"
            )))
        }
    };
    if r.remaining() != 0 {
        return Err(StoreError::Format(format!(
            "journal record: {} trailing bytes",
            r.remaining()
        )));
    }
    Ok(rec)
}

/// What [`Journal::recover`] found on disk.
#[derive(Debug)]
pub struct JournalRecovery {
    /// The journal, positioned to append after the recovered prefix.
    pub journal: Journal,
    /// Every valid record, in append order.
    pub records: Vec<JournalRecord>,
    /// Bytes of torn tail that were truncated away (0 for a clean file).
    pub truncated_bytes: u64,
}

/// An open control-plane journal that appends at its valid end.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
    /// Length of the valid prefix: header plus every appended record.
    end: u64,
}

impl Journal {
    /// Creates a fresh, empty journal at `path`, overwriting any previous
    /// file, through [`write_durably`].
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the scratch file cannot be written or the
    /// rename fails.
    pub fn create(path: impl AsRef<Path>) -> Result<Journal, StoreError> {
        let path = path.as_ref().to_path_buf();
        let mut header = Vec::with_capacity(JOURNAL_HEADER_LEN);
        JOURNAL.put_preamble(&mut header);
        put_u32(&mut header, 0);
        debug_assert_eq!(header.len(), JOURNAL_HEADER_LEN);
        write_durably(&path, &header)?;
        Journal::open_at(path, JOURNAL_HEADER_LEN as u64)
    }

    /// Opens `path` for appends at `end`, the length of its valid prefix.
    fn open_at(path: PathBuf, end: u64) -> Result<Journal, StoreError> {
        let file = OpenOptions::new().write(true).open(&path)?;
        Ok(Journal { file, path, end })
    }

    /// Opens an existing journal, replaying every valid record and
    /// truncating a torn tail back to the last valid record boundary.
    ///
    /// # Errors
    ///
    /// * [`StoreError::Io`] — the file cannot be read or re-opened;
    /// * [`StoreError::Format`] — the header is missing, foreign, or
    ///   damaged (the record *stream* never errors: a bad record ends the
    ///   recovered prefix instead);
    /// * [`StoreError::Version`] — written by an incompatible build.
    pub fn recover(path: impl AsRef<Path>) -> Result<JournalRecovery, StoreError> {
        let path = path.as_ref().to_path_buf();
        let buf = std::fs::read(&path)?;
        let (_, mut h) = JOURNAL.check_preamble(&buf)?;
        let reserved = h.u32()?;
        if reserved != 0 {
            return Err(StoreError::Format(format!(
                "journal header: reserved field is {reserved:#x}, expected zero"
            )));
        }

        let mut records = Vec::new();
        let mut pos = JOURNAL_HEADER_LEN;
        loop {
            let rest = &buf[pos..];
            if rest.len() < FRAME_LEN {
                break; // empty or torn frame prefix
            }
            let len = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
            if len > MAX_RECORD || rest.len() - FRAME_LEN < len {
                break; // corrupt length or truncated payload
            }
            let checksum = u64::from_le_bytes(rest[4..12].try_into().unwrap());
            let payload = &rest[FRAME_LEN..FRAME_LEN + len];
            if Fnv64::hash(payload) != checksum {
                break; // torn or bit-flipped payload
            }
            let Ok(record) = decode_record(payload) else {
                break; // checksum-valid but structurally foreign
            };
            records.push(record);
            pos += FRAME_LEN + len;
        }

        let truncated_bytes = (buf.len() - pos) as u64;
        if truncated_bytes > 0 {
            let f = OpenOptions::new().write(true).open(&path)?;
            f.set_len(pos as u64)?;
            f.sync_all()?;
        }
        Ok(JournalRecovery {
            journal: Journal::open_at(path, pos as u64)?,
            records,
            truncated_bytes,
        })
    }

    /// Appends one record durably: the frame is written in a single
    /// `write_all` at the valid end and fsynced before returning, so `Ok`
    /// means the record survives a crash. The `cluster::journal_append`
    /// failpoint fires before any bytes are written.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the write or fsync fails. The file is then
    /// truncated back to the valid end (best effort; the next append
    /// overwrites from there regardless), so an `Err` leaves no record.
    pub fn append(&mut self, rec: &JournalRecord) -> Result<(), StoreError> {
        regcluster_failpoint::io("cluster::journal_append")?;
        let payload = encode_record(rec);
        let mut frame = Vec::with_capacity(FRAME_LEN + payload.len());
        put_u32(&mut frame, payload.len() as u32);
        put_u64(&mut frame, Fnv64::hash(&payload));
        frame.extend_from_slice(&payload);
        let written = (|| {
            self.file.seek(SeekFrom::Start(self.end))?;
            self.file.write_all(&frame)?;
            self.file.sync_data()
        })();
        if let Err(e) = written {
            let _ = self
                .file
                .set_len(self.end)
                .and_then(|()| self.file.sync_all());
            return Err(e.into());
        }
        self.end += frame.len() as u64;
        Ok(())
    }

    /// The path this journal appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("regcluster-journal-{}-{name}", std::process::id()))
    }

    fn sample_records() -> Vec<JournalRecord> {
        vec![
            JournalRecord::JobCreated {
                generation: 0,
                matrix_fingerprint: 0xfeed_f00d,
                params_json: r#"{"min_genes":4}"#.into(),
                n_roots: 12,
                n_leases: 6,
            },
            JournalRecord::LeaseGranted {
                lease: 0,
                epoch: 1,
                worker: "w1".into(),
            },
            JournalRecord::LeaseRenewed { lease: 0, epoch: 1 },
            JournalRecord::LeaseExpired { lease: 0, epoch: 1 },
            JournalRecord::LeaseGranted {
                lease: 0,
                epoch: 2,
                worker: "w2".into(),
            },
            JournalRecord::ShardStaged { lease: 0, epoch: 2 },
            JournalRecord::Published { generation: 0 },
        ]
    }

    /// Pins the bytes of one journal across commits: the length and FNV-1a
    /// 64 below were recorded from an earlier build, so any change to the
    /// header, the frame or a record's encoding fails here.
    #[test]
    fn sample_journal_bytes_are_pinned() {
        let path = tmp("pinned.rcj");
        let _ = std::fs::remove_file(&path);
        let mut j = Journal::create(&path).unwrap();
        for rec in sample_records() {
            j.append(&rec).unwrap();
        }
        drop(j);
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(
            (bytes.len(), Fnv64::hash(&bytes)),
            (279, 0x7e8e_7629_380a_bada)
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn append_and_recover_round_trips() {
        let path = tmp("roundtrip.rcj");
        let _ = std::fs::remove_file(&path);
        let mut j = Journal::create(&path).unwrap();
        for rec in sample_records() {
            j.append(&rec).unwrap();
        }
        drop(j);
        let rec = Journal::recover(&path).unwrap();
        assert_eq!(rec.records, sample_records());
        assert_eq!(rec.truncated_bytes, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_file_stays_appendable() {
        let path = tmp("torn.rcj");
        let _ = std::fs::remove_file(&path);
        let mut j = Journal::create(&path).unwrap();
        for rec in &sample_records()[..3] {
            j.append(rec).unwrap();
        }
        drop(j);
        let clean_len = std::fs::metadata(&path).unwrap().len();
        // Simulate a crash mid-append: half a frame at the tail.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[9, 0, 0, 0, 1, 2, 3]);
        std::fs::write(&path, &bytes).unwrap();

        let rec = Journal::recover(&path).unwrap();
        assert_eq!(rec.records, sample_records()[..3]);
        assert_eq!(rec.truncated_bytes, 7);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), clean_len);

        // The recovered journal accepts further appends cleanly.
        let mut j = rec.journal;
        j.append(&sample_records()[3]).unwrap();
        drop(j);
        let rec = Journal::recover(&path).unwrap();
        assert_eq!(rec.records, sample_records()[..4]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_torn_frame_from_a_failed_append_does_not_hide_later_records() {
        let path = tmp("torn-mid.rcj");
        let _ = std::fs::remove_file(&path);
        let recs = sample_records();
        let mut j = Journal::create(&path).unwrap();
        j.append(&recs[0]).unwrap();
        j.append(&recs[1]).unwrap();
        // A write that failed partway: half a frame lands after record A.
        j.file.write_all(&[9, 0, 0, 0, 1, 2, 3]).unwrap();
        j.append(&recs[2]).unwrap();
        drop(j);
        let rec = Journal::recover(&path).unwrap();
        assert_eq!(rec.records, recs[..3]);
        assert_eq!(rec.truncated_bytes, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn foreign_and_truncated_headers_are_typed_errors() {
        let path = tmp("header.rcj");
        std::fs::write(&path, b"short").unwrap();
        assert!(matches!(
            Journal::recover(&path),
            Err(StoreError::Format(_))
        ));
        std::fs::write(&path, b"NOTAJRNL\0\0\0\0\0\0\0\0").unwrap();
        assert!(matches!(
            Journal::recover(&path),
            Err(StoreError::Format(_))
        ));
        let mut future = Vec::new();
        future.extend_from_slice(&JOURNAL_MAGIC);
        put_u32(&mut future, JOURNAL_VERSION + 1);
        put_u32(&mut future, 0);
        std::fs::write(&path, &future).unwrap();
        assert!(matches!(
            Journal::recover(&path),
            Err(StoreError::Version { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn create_overwrites_a_previous_journal() {
        let path = tmp("overwrite.rcj");
        let _ = std::fs::remove_file(&path);
        let mut j = Journal::create(&path).unwrap();
        j.append(&sample_records()[0]).unwrap();
        drop(j);
        let j = Journal::create(&path).unwrap();
        drop(j);
        let rec = Journal::recover(&path).unwrap();
        assert!(rec.records.is_empty());
        std::fs::remove_file(&path).unwrap();
    }
}
