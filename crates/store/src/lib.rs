#![warn(missing_docs)]

//! Indexed on-disk storage and querying for mined reg-clusters.
//!
//! Mining produces cluster *sets*; downstream analyses of co-regulated gene
//! sets (GO/TFBS follow-up, overlap inspection, serving query traffic) are
//! *lookups*: "which clusters contain gene g?", "which clusters span
//! conditions c₁..cₖ?". This crate gives those lookups an indexed,
//! durability-checked home — the `.rcs` store:
//!
//! * **[`StoreWriter`]** implements
//!   [`ClusterSink`](regcluster_core::ClusterSink), so the mining engine
//!   streams clusters straight to disk (`regcluster mine --store out.rcs`),
//!   composing with cancellation and truncated-run reporting. Sealing the
//!   file canonicalizes cluster ids, making stores reproducible across
//!   thread counts.
//! * **[`ClusterStore`]** opens a sealed store, verifies every section
//!   checksum up front, and answers by-gene / by-condition / min-size /
//!   top-k / overlap / containment queries ([`Query`],
//!   [`ClusterStore::overlapping`], [`ClusterStore::superclusters_of`])
//!   from two inverted indexes and a size table, decoding only the records
//!   a caller materializes.
//! * **[`StoreError`]** types every failure: corrupted or truncated files
//!   are rejected with checksum/format errors, never a panic and never
//!   garbage clusters.
//! * **[`CheckpointFile`]** persists engine crash-recovery snapshots as
//!   `.rck` files ([`read_checkpoint`] loads them back), reusing the same
//!   checksummed section format and the same atomic tmp + rename
//!   discipline, so `regcluster mine --checkpoint run.rck` survives
//!   crashes and resumes bit-identically.
//!
//! # Quick start
//!
//! ```
//! use regcluster_core::{mine, MiningParams};
//! use regcluster_datagen::running_example;
//! use regcluster_store::{ClusterStore, Query, StoreWriter};
//!
//! let matrix = running_example();
//! let params = MiningParams::new(3, 5, 0.15, 0.1).unwrap();
//! let clusters = mine(&matrix, &params).unwrap();
//!
//! let path = std::env::temp_dir().join("regcluster-doc-example.rcs");
//! let writer = StoreWriter::create(
//!     &path,
//!     matrix.gene_names(),
//!     matrix.condition_names(),
//!     &params,
//! )
//! .unwrap();
//! for c in &clusters {
//!     writer.write_cluster(c).unwrap();
//! }
//! writer.finish().unwrap();
//!
//! let store = ClusterStore::open(&path).unwrap();
//! assert_eq!(store.n_clusters(), 1);
//! // Which clusters contain gene g1 (id 0)?
//! let hits = store.query(&Query::new().with_gene(0)).unwrap();
//! assert_eq!(store.cluster(hits[0]).unwrap(), clusters[0]);
//! # std::fs::remove_file(&path).ok();
//! ```

mod checkpoint;
mod error;
mod format;
mod generations;
mod journal;
mod merge;
pub mod migrations;
mod query;
mod reader;
mod writer;

pub use checkpoint::{read_checkpoint, CheckpointFile, CHECKPOINT_MAGIC, CHECKPOINT_VERSION};
pub use error::StoreError;
pub use format::{FORMAT_VERSION, MIN_SUPPORTED_VERSION};
pub use generations::{Generations, CURRENT_FILE};
pub use journal::{
    Journal, JournalRecord, JournalRecovery, JOURNAL_HEADER_LEN, JOURNAL_MAGIC, JOURNAL_VERSION,
};
pub use merge::merge_shards;
pub use query::Query;
pub use reader::{ClusterStore, PostingsIter, StoreStats};
pub use writer::{write_durably, StoreProvenance, StoreSummary, StoreWriter};
