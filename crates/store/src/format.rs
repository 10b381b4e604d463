//! The byte layout of the store's files, decided once: the preamble every
//! file starts with, the checksummed section container of `.rcs` stores and
//! `.rck` checkpoints, the packed cluster record, and the bounds-checked
//! little-endian readers and writers everything is coded with. The `.rcs`
//! layout:
//!
//! ```text
//! ┌────────────────────────────────────────────────────────────┐
//! │ header (32 B)                                              │
//! │   0..8   magic  b"RCSTORE\0"                               │
//! │   8..12  format version (u32 LE)                           │
//! │  12..16  section count  (u32 LE)                           │
//! │  16..24  section-table offset (u64 LE)                     │
//! │  24..32  section-table checksum (FNV-1a 64, u64 LE)        │
//! ├────────────────────────────────────────────────────────────┤
//! │ CLUSTERS section: packed records, streamed during mining   │
//! │   record: chain_len, p_len, n_len (u32 LE each),           │
//! │           then chain / p_members / n_members as u32 LE     │
//! ├────────────────────────────────────────────────────────────┤
//! │ OFFSETS    n_clusters × u64 — record offsets in canonical  │
//! │            (chain, p_members, n_members) order; the index  │
//! │            into this table IS the cluster id               │
//! │ SIZES      n_clusters × (genes u32, conds u32)             │
//! │ GENE_INDEX CSR: (n_genes+1) × u32 starts, then postings    │
//! │ COND_INDEX CSR: (n_conds+1) × u32 starts, then postings    │
//! │ META       n_genes, n_conds, n_clusters (u64 each),        │
//! │            then mining-params JSON (γ/ε provenance)        │
//! │ GENE_DICT  count u32, then per name: len u32 + UTF-8 bytes │
//! │ COND_DICT  same                                            │
//! ├────────────────────────────────────────────────────────────┤
//! │ section table: count × 32 B                                │
//! │   { id u32, reserved u32, offset u64, len u64, fnv64 u64 } │
//! └────────────────────────────────────────────────────────────┘
//! ```
//!
//! Every section payload carries an FNV-1a 64 checksum in the table; the
//! table itself is checksummed from the header. A flipped bit anywhere in
//! the file is therefore caught at [`open`](crate::ClusterStore::open)
//! before any query runs, and a truncated file fails the structural bounds
//! checks. All multi-byte integers are little-endian regardless of host.
//!
//! A `.rck` checkpoint is the same container (header, sections, table)
//! under its own magic and section ids, and its EMITTED section holds
//! records in the CLUSTERS encoding. The `.rcj` journal starts with the
//! same preamble (magic, then version). Each decision has one function
//! here: [`FileKind::check_preamble`] for the preamble, [`SectionTable`]
//! and [`FileKind::open_sections`] for the container, and
//! [`encode_record`], [`record_len`], [`validate_record`], [`record_at`]
//! and [`decode_record`] for the record.

use std::ops::Range;

use regcluster_core::RegCluster;

use crate::error::StoreError;

/// File magic, first 8 bytes of every store.
pub const MAGIC: [u8; 8] = *b"RCSTORE\0";

/// The format version this build writes. Version 2 added generation and
/// fingerprint provenance keys to the META section's JSON.
pub const FORMAT_VERSION: u32 = 2;

/// The oldest format version this build still reads. Stores between
/// [`MIN_SUPPORTED_VERSION`] and [`FORMAT_VERSION`] are upgraded in memory
/// at open through the [`migrations`](crate::migrations) registry; the
/// file on disk is never rewritten.
pub const MIN_SUPPORTED_VERSION: u32 = 1;

/// Fixed header length in bytes.
pub const HEADER_LEN: usize = 32;

/// Length of one section-table entry in bytes.
pub const SECTION_ENTRY_LEN: usize = 32;

/// What one kind of store file starts with: its 8-byte magic, then a
/// `u32` version (little-endian), inside a fixed-length header.
pub(crate) struct FileKind {
    /// First 8 bytes of every file of this kind.
    pub magic: [u8; 8],
    /// The version this build writes.
    pub version: u32,
    /// The oldest version this build reads.
    pub min_version: u32,
    /// Fixed header length in bytes, preamble included.
    pub header_len: usize,
    /// What the file is called in error messages.
    pub name: &'static str,
}

/// The `.rcs` store.
pub(crate) const STORE: FileKind = FileKind {
    magic: MAGIC,
    version: FORMAT_VERSION,
    min_version: MIN_SUPPORTED_VERSION,
    header_len: HEADER_LEN,
    name: ".rcs store",
};

impl FileKind {
    /// Checks `buf`'s preamble: long enough for the header, this kind's
    /// magic, a version this build reads. Returns the version and a reader
    /// over the rest of the header.
    pub fn check_preamble<'a>(&self, buf: &'a [u8]) -> Result<(u32, ByteReader<'a>), StoreError> {
        if buf.len() < self.header_len {
            return Err(StoreError::Format(format!(
                "{} header: file is {} bytes, need at least {}",
                self.name,
                buf.len(),
                self.header_len
            )));
        }
        if buf[..8] != self.magic {
            return Err(StoreError::Format(format!(
                "bad magic (not a {}, or an unsealed one)",
                self.name
            )));
        }
        let mut header = ByteReader::new(&buf[8..self.header_len], "header");
        let version = header.u32()?;
        if !(self.min_version..=self.version).contains(&version) {
            return Err(StoreError::Version {
                found: version,
                supported: self.version,
            });
        }
        Ok((version, header))
    }

    /// Appends the preamble: the magic, then the version this build writes.
    pub fn put_preamble(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.magic);
        put_u32(out, self.version);
    }

    /// Checks the preamble of `buf`, a sectioned file of this kind, then
    /// verifies its section container: the table lies in the file past the
    /// header and matches its checksum; every entry has a known id (1 to
    /// `N`), appears once, lies past the header and within the file, and
    /// matches its checksum. Returns the version and each section's payload
    /// range, section id `i + 1` at index `i`. `names` names the sections
    /// and `table_name` the table in [`StoreError::ChecksumMismatch`].
    pub fn open_sections<const N: usize>(
        &self,
        buf: &[u8],
        table_name: &'static str,
        names: [&'static str; N],
    ) -> Result<(u32, [Range<usize>; N]), StoreError> {
        let (version, mut header) = self.check_preamble(buf)?;
        let count = header.u32()?;
        let table_offset = header.u64()?;
        let table_checksum = header.u64()?;
        let table_len = u64::from(count) * SECTION_ENTRY_LEN as u64;
        // `[offset, offset + len)` as a range of `buf`, provided it lies past
        // the header and within the file.
        let in_file = |name: &str, offset: u64, len: u64| match offset.checked_add(len) {
            Some(end) if end <= buf.len() as u64 && offset >= self.header_len as u64 => {
                Ok(offset as usize..end as usize)
            }
            _ => Err(StoreError::Format(format!(
                "section {name} [{offset}, +{len}) out of file bounds ({})",
                buf.len()
            ))),
        };
        let table = &buf[in_file("table", table_offset, table_len)?];
        let actual = Fnv64::hash(table);
        if actual != table_checksum {
            return Err(StoreError::ChecksumMismatch {
                section: table_name,
                expected: table_checksum,
                actual,
            });
        }

        let mut found: [Option<Range<usize>>; N] = std::array::from_fn(|_| None);
        let mut r = ByteReader::new(table, "section table");
        for _ in 0..count {
            let id = r.u32()?;
            let _reserved = r.u32()?;
            let (offset, len, checksum) = (r.u64()?, r.u64()?, r.u64()?);
            let Some(slot) = (id as usize).checked_sub(1).and_then(|i| found.get_mut(i)) else {
                return Err(StoreError::Format(format!("unknown section id {id}")));
            };
            let name = names[id as usize - 1];
            let range = in_file(name, offset, len)?;
            if slot.is_some() {
                return Err(StoreError::Format(format!("duplicate section {name}")));
            }
            let actual = Fnv64::hash(&buf[range.clone()]);
            if actual != checksum {
                return Err(StoreError::ChecksumMismatch {
                    section: name,
                    expected: checksum,
                    actual,
                });
            }
            *slot = Some(range);
        }
        if let Some(i) = found.iter().position(Option::is_none) {
            return Err(StoreError::Format(format!("missing section {}", names[i])));
        }
        Ok((version, found.map(Option::unwrap_or_default)))
    }
}

/// Section identifiers of the `.rcs` store (the `id` field of a table
/// entry), running from 1. A well-formed store holds every section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum SectionId {
    /// Packed cluster records, in arrival (stream) order.
    Clusters = 1,
    /// Canonically-ordered record offsets; index == cluster id.
    Offsets = 2,
    /// Per-cluster (n_genes, n_conds) pairs for index-only size filtering.
    Sizes = 3,
    /// Gene → cluster-ids inverted index (CSR).
    GeneIndex = 4,
    /// Condition → cluster-ids inverted index (CSR).
    CondIndex = 5,
    /// Dimensions + mining-parameter provenance.
    Meta = 6,
    /// Gene-name dictionary.
    GeneDict = 7,
    /// Condition-name dictionary.
    CondDict = 8,
}

impl SectionId {
    /// Section names in error messages, in id order (id 1 first).
    pub const NAMES: [&'static str; 8] = [
        "clusters",
        "offsets",
        "sizes",
        "gene-index",
        "cond-index",
        "meta",
        "gene-dict",
        "cond-dict",
    ];
}

/// Builds the section table and header of a sectioned file. Sections are
/// laid out back to back from the end of the header, in the order they
/// are added; the table follows the last one.
pub(crate) struct SectionTable {
    kind: &'static FileKind,
    table: Vec<u8>,
    count: u32,
    /// Where the next section starts.
    end: u64,
}

impl SectionTable {
    /// An empty table for a file of `kind`, whose first section starts
    /// right after that kind's header.
    pub fn new(kind: &'static FileKind) -> Self {
        SectionTable {
            kind,
            table: Vec::new(),
            count: 0,
            end: kind.header_len as u64,
        }
    }

    /// Records the next section: its id, place, length and checksum.
    pub fn add(&mut self, id: u32, payload: &[u8]) {
        put_u32(&mut self.table, id);
        put_u32(&mut self.table, 0);
        put_u64(&mut self.table, self.end);
        put_u64(&mut self.table, payload.len() as u64);
        put_u64(&mut self.table, Fnv64::hash(payload));
        self.count += 1;
        self.end += payload.len() as u64;
    }

    /// The header that points at the table, and the table bytes, which go
    /// right after the last section.
    pub fn seal(&self) -> (Vec<u8>, &[u8]) {
        let mut header = Vec::with_capacity(self.kind.header_len);
        self.kind.put_preamble(&mut header);
        put_u32(&mut header, self.count);
        put_u64(&mut header, self.end);
        put_u64(&mut header, Fnv64::hash(&self.table));
        debug_assert_eq!(header.len(), self.kind.header_len);
        (header, &self.table)
    }

    /// Length of the sealed file: header, sections and table.
    pub fn file_len(&self) -> u64 {
        self.end + self.table.len() as u64
    }
}

/// Byte length of a packed record with `chain`, `p` and `n` ids: the three
/// `u32` counts, then one `u32` per id.
pub(crate) fn record_len(chain: usize, p: usize, n: usize) -> usize {
    12 + 4 * (chain + p + n)
}

/// Appends `cluster` as one packed record. An id past `u32` is written as
/// `u32::MAX`, which no dictionary holds, so [`validate_record`] refuses it.
pub(crate) fn encode_record(cluster: &RegCluster, out: &mut Vec<u8>) {
    let lists = [&cluster.chain, &cluster.p_members, &cluster.n_members];
    for ids in lists {
        put_u32(out, ids.len() as u32);
    }
    for &id in lists.into_iter().flatten() {
        put_u32(out, u32::try_from(id).unwrap_or(u32::MAX));
    }
}

/// Checks that `record` is exactly one well-formed record: its counts
/// match its length, its chain is not empty, and every id lies within
/// dictionaries of `n_genes` genes and `n_conds` conditions.
pub(crate) fn validate_record(
    record: &[u8],
    n_genes: usize,
    n_conds: usize,
) -> Result<(), StoreError> {
    let counts = record_at(record, 0)?;
    if counts.len() != record.len() {
        return Err(StoreError::Format(format!(
            "record declares {} bytes but holds {}",
            counts.len(),
            record.len()
        )));
    }
    let chain = u32_at(record, 0) as usize;
    if chain == 0 {
        return Err(StoreError::Format("record has an empty chain".into()));
    }
    let members = u32_at(record, 1) as usize + u32_at(record, 2) as usize;
    for i in 0..chain + members {
        let (bound, what) = if i < chain {
            (n_conds, "condition")
        } else {
            (n_genes, "gene")
        };
        let id = u32_at(record, 3 + i) as usize;
        if id >= bound {
            return Err(StoreError::IdOutOfRange(format!(
                "{what} id {id} not in dictionary (size {bound})"
            )));
        }
    }
    Ok(())
}

/// The record starting at byte `off` of a records section, bounds-checked
/// against the length its counts declare.
pub(crate) fn record_at(records: &[u8], off: usize) -> Result<&[u8], StoreError> {
    let rest = records.get(off..).unwrap_or_default();
    let len = match rest.len() {
        n if n >= 12 => record_len(
            u32_at(rest, 0) as usize,
            u32_at(rest, 1) as usize,
            u32_at(rest, 2) as usize,
        ),
        _ => 12,
    };
    rest.get(..len).ok_or_else(|| {
        StoreError::Format(format!(
            "cluster record [{off}, +{len}) past the end of its section ({} bytes)",
            records.len()
        ))
    })
}

/// Decodes one record as returned by [`record_at`].
pub(crate) fn decode_record(record: &[u8]) -> RegCluster {
    let ids = |from: usize, n: usize| -> Vec<usize> {
        (from..from + n)
            .map(|i| u32_at(record, i) as usize)
            .collect()
    };
    let (chain, p) = (u32_at(record, 0) as usize, u32_at(record, 1) as usize);
    RegCluster {
        chain: ids(3, chain),
        p_members: ids(3 + chain, p),
        n_members: ids(3 + chain + p, u32_at(record, 2) as usize),
    }
}

/// Incremental FNV-1a 64 checksum. Not cryptographic — it guards against
/// corruption (truncation, flipped bits, partial writes), not adversaries.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Fnv64 {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hasher at the offset basis.
    pub fn new() -> Self {
        Fnv64(Self::OFFSET_BASIS)
    }

    /// Feeds `bytes` into the running checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(Self::PRIME);
        }
        self.0 = h;
    }

    /// The checksum of everything fed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }

    /// One-shot convenience.
    pub fn hash(bytes: &[u8]) -> u64 {
        let mut f = Fnv64::new();
        f.update(bytes);
        f.finish()
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

/// A bounds-checked little-endian reader over a byte slice. Every decode in
/// the store goes through this type, so a truncated or size-lying file
/// surfaces as [`StoreError::Format`], never a panic or an out-of-bounds
/// read.
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Context for error messages (which section is being decoded).
    what: &'static str,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`, labelled `what` for error messages.
    pub fn new(buf: &'a [u8], what: &'static str) -> Self {
        ByteReader { buf, pos: 0, what }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        if self.remaining() < n {
            return Err(StoreError::Format(format!(
                "{}: truncated ({} bytes needed at offset {}, {} available)",
                self.what,
                n,
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a `u32` (little-endian).
    pub fn u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    /// Reads a `u64` (little-endian).
    pub fn u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    /// Reads a length-prefixed UTF-8 string (u32 length).
    pub fn string(&mut self) -> Result<String, StoreError> {
        let len = self.u32()? as usize;
        let raw = self.bytes(len)?;
        String::from_utf8(raw.to_vec()).map_err(|_| {
            StoreError::Format(format!(
                "{}: dictionary entry is not valid UTF-8",
                self.what
            ))
        })
    }
}

/// Reads the `i`-th little-endian `u32` of a packed array slice, which the
/// caller has already bounds-checked to hold at least `i + 1` entries.
#[inline]
pub fn u32_at(buf: &[u8], i: usize) -> u32 {
    u32::from_le_bytes(buf[i * 4..i * 4 + 4].try_into().unwrap())
}

/// Reads the `i`-th little-endian `u64` of a packed array slice.
#[inline]
pub fn u64_at(buf: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(buf[i * 8..i * 8 + 8].try_into().unwrap())
}

/// Appends a `u32` little-endian.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64` little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a length-prefixed UTF-8 string (u32 length), as
/// [`ByteReader::string`] reads it.
pub fn put_string(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(Fnv64::hash(b""), 0xcbf29ce484222325);
        assert_eq!(Fnv64::hash(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(Fnv64::hash(b"foobar"), 0x85944171f73967e8);
        // Incremental == one-shot.
        let mut f = Fnv64::new();
        f.update(b"foo");
        f.update(b"bar");
        assert_eq!(f.finish(), Fnv64::hash(b"foobar"));
    }

    #[test]
    fn byte_reader_is_bounds_checked() {
        let mut r = ByteReader::new(&[1, 0, 0, 0, 2], "test");
        assert_eq!(r.u32().unwrap(), 1);
        assert_eq!(r.remaining(), 1);
        let err = r.u32().unwrap_err();
        assert!(matches!(err, StoreError::Format(_)));
        assert!(err.to_string().contains("test"));
    }

    #[test]
    fn string_roundtrip_and_invalid_utf8() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 3);
        buf.extend_from_slice(b"abc");
        let mut r = ByteReader::new(&buf, "dict");
        assert_eq!(r.string().unwrap(), "abc");

        let mut bad = Vec::new();
        put_u32(&mut bad, 2);
        bad.extend_from_slice(&[0xff, 0xfe]);
        assert!(ByteReader::new(&bad, "dict").string().is_err());
    }

    #[test]
    fn section_ids_roundtrip() {
        // `open_sections` returns section id `i + 1` at index `i`.
        assert_eq!(SectionId::CondDict as usize, SectionId::NAMES.len());
        assert_eq!(SectionId::NAMES[SectionId::Meta as usize - 1], "meta");
        assert!(SectionId::NAMES.iter().all(|n| !n.is_empty()));
    }

    const TWO_SECTIONS: FileKind = FileKind {
        magic: *b"RCTEST\0\0",
        version: 1,
        min_version: 1,
        header_len: HEADER_LEN,
        name: "test file",
    };

    /// Sections "one" (id 1) and "two" (id 2) of a `TWO_SECTIONS` file.
    fn verify(buf: &[u8]) -> Result<[Range<usize>; 2], StoreError> {
        let (_, sections) = TWO_SECTIONS.open_sections(buf, "table", ["one", "two"])?;
        Ok(sections)
    }

    #[test]
    fn section_container_rejects_unknown_and_duplicate_ids() {
        let mut table = SectionTable::new(&TWO_SECTIONS);
        let mut good = vec![0u8; HEADER_LEN];
        for (id, payload) in [(1, b"one"), (2, b"two")] {
            table.add(id, payload);
            good.extend_from_slice(payload);
        }
        let table_at = good.len();
        let (header, table) = table.seal();
        good.extend_from_slice(table);
        good[..HEADER_LEN].copy_from_slice(&header);
        assert_eq!(verify(&good).unwrap(), [32..35, 35..38]);

        // Rewrite the second entry's id, keeping the table checksum valid.
        for (id, expected) in [
            (0u32, "unknown section id 0"),
            (3, "unknown section id 3"),
            (1, "duplicate section one"),
        ] {
            let mut buf = good.clone();
            let entry = table_at + SECTION_ENTRY_LEN;
            buf[entry..entry + 4].copy_from_slice(&id.to_le_bytes());
            let checksum = Fnv64::hash(&buf[table_at..]);
            buf[24..32].copy_from_slice(&checksum.to_le_bytes());
            match verify(&buf) {
                Err(StoreError::Format(m)) => assert_eq!(m, expected),
                other => panic!("expected {expected:?}, got {other:?}"),
            }
        }
    }
}
