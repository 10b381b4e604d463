//! Durability tests: a corrupted or truncated `.rcs` file must be rejected
//! with a typed checksum/format error — never a panic, never garbage
//! clusters. Every byte of the file is covered by a checksum (header fields
//! feed the table check, the table covers the sections), so the exhaustive
//! flip test can demand an error for *any* single-byte corruption.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use regcluster_core::{mine, MiningParams};
use regcluster_datagen::running_example;
use regcluster_store::{ClusterStore, StoreError, StoreWriter, FORMAT_VERSION};

/// Builds a small valid store and returns its bytes. Each call writes its
/// own file: tests run in parallel, and two writers sharing one path would
/// race on its `.tmp` scratch file.
fn valid_store_bytes() -> Vec<u8> {
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!("regcluster-corrupt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!(
        "victim-{}.rcs",
        CALLS.fetch_add(1, Ordering::Relaxed)
    ));
    let m = running_example();
    let params = MiningParams::new(3, 5, 0.15, 0.1).unwrap();
    let clusters = mine(&m, &params).unwrap();
    let w = StoreWriter::create(&path, m.gene_names(), m.condition_names(), &params).unwrap();
    for c in &clusters {
        w.write_cluster(c).unwrap();
    }
    w.finish().unwrap();
    std::fs::read(&path).unwrap()
}

#[test]
fn truncation_at_any_length_is_a_typed_error() {
    let bytes = valid_store_bytes();
    assert!(ClusterStore::from_bytes(bytes.clone()).is_ok());
    // Every proper prefix must fail cleanly — walk all of them (the file is
    // small) so no boundary case hides.
    for len in 0..bytes.len() {
        let err = ClusterStore::from_bytes(bytes[..len].to_vec())
            .err()
            .unwrap_or_else(|| panic!("truncation to {len} bytes must be rejected"));
        assert!(
            matches!(
                err,
                StoreError::Format(_) | StoreError::ChecksumMismatch { .. }
            ),
            "truncation to {len}: unexpected error {err:?}"
        );
    }
}

#[test]
fn every_single_byte_flip_is_detected() {
    let bytes = valid_store_bytes();
    for i in 0..bytes.len() {
        let mut mutated = bytes.clone();
        mutated[i] ^= 0x41;
        let result = ClusterStore::from_bytes(mutated);
        assert!(
            result.is_err(),
            "flipping byte {i} of {} was not detected",
            bytes.len()
        );
    }
}

#[test]
fn flipping_each_section_payload_reports_that_section() {
    let bytes = valid_store_bytes();
    // Parse the (valid) section table by hand: count at 12, offset at 16.
    let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    let table_offset = u64::from_le_bytes(bytes[16..24].try_into().unwrap()) as usize;
    let mut seen = 0;
    for e in 0..count {
        let entry = &bytes[table_offset + e * 32..table_offset + (e + 1) * 32];
        let offset = u64::from_le_bytes(entry[8..16].try_into().unwrap()) as usize;
        let len = u64::from_le_bytes(entry[16..24].try_into().unwrap()) as usize;
        if len == 0 {
            continue;
        }
        let mut mutated = bytes.clone();
        mutated[offset + len / 2] ^= 0xff;
        match ClusterStore::from_bytes(mutated) {
            Err(StoreError::ChecksumMismatch { .. }) => seen += 1,
            other => panic!(
                "flipping section entry {e} payload: expected checksum mismatch, got {:?}",
                other.err()
            ),
        }
    }
    assert!(seen >= 6, "expected most sections non-empty, saw {seen}");
}

#[test]
fn foreign_and_future_files_are_rejected() {
    // Not a store at all.
    let err = ClusterStore::from_bytes(b"{\"clusters\": []}".to_vec()).unwrap_err();
    assert!(matches!(err, StoreError::Format(_)));
    // Empty file.
    assert!(matches!(
        ClusterStore::from_bytes(Vec::new()),
        Err(StoreError::Format(_))
    ));
    // Right magic, future version.
    let mut bytes = valid_store_bytes();
    bytes[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
    match ClusterStore::from_bytes(bytes) {
        Err(StoreError::Version { found, supported }) => {
            assert_eq!(found, FORMAT_VERSION + 1);
            assert_eq!(supported, FORMAT_VERSION);
        }
        other => panic!("expected version error, got {:?}", other.err()),
    }
}

#[test]
fn unsealed_writer_leaves_no_destination_and_its_tmp_is_rejected_then_cleared() {
    // A writer dropped without finish never touched the destination: all
    // streaming went to `<path>.tmp`, which still carries the zeroed
    // placeholder header.
    let dir = std::env::temp_dir().join(format!("regcluster-unsealed-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path: PathBuf = dir.join("unsealed.rcs");
    let tmp = dir.join("unsealed.rcs.tmp");
    let m = running_example();
    let params = MiningParams::new(3, 5, 0.15, 0.1).unwrap();
    {
        let w = StoreWriter::create(&path, m.gene_names(), m.condition_names(), &params).unwrap();
        let clusters = mine(&m, &params).unwrap();
        for c in &clusters {
            w.write_cluster(c).unwrap();
        }
        // dropped without finish()
    }
    assert!(!path.exists(), "destination must stay untouched");
    assert!(tmp.exists(), "streaming goes to the scratch file");
    // The scratch bytes themselves can never masquerade as a store.
    let err = ClusterStore::from_bytes(std::fs::read(&tmp).unwrap()).unwrap_err();
    assert!(matches!(err, StoreError::Format(_)), "{err}");
    assert!(err.to_string().contains("magic"), "{err}");
    // Opening the destination fails (nothing there) and clears the stale tmp.
    assert!(matches!(ClusterStore::open(&path), Err(StoreError::Io(_))));
    assert!(!tmp.exists(), "open clears stale .tmp leftovers");
}
