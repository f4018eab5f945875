//! # egraph-log
//!
//! Durable segmented event log for evolving graphs — the storage engine
//! underneath `egraph-stream`'s crash recovery and `egraph-serve`'s
//! follower replication.
//!
//! The design follows the snapshot discipline of the search layer: the
//! *seal* is the durability boundary. Events appended between seals are
//! buffered in memory; [`log::EventLog::seal`] writes them as one
//! self-contained segment file (CRC-framed records, terminated by a `Seal`
//! record carrying the snapshot label) and fsyncs both the file and the
//! directory before returning. One sealed snapshot ↔ one segment file,
//! so:
//!
//! * **recovery** is a replay of the sealed segment chain (a torn final
//!   segment — the only residue a crash can leave — is truncated away;
//!   anything else fails loudly, never silently corrupting the graph);
//! * **replication** ships the exact sealed bytes to followers, who decode
//!   and apply them with the same [`segment::decode_segment`] the recovery
//!   path uses;
//! * **checkpoints** ([`checkpoint`]) bound both: an atomically installed
//!   `checkpoint-<seq>.bin` absorbs the segment prefix `..= seq`, so
//!   recovery replays only the suffix and compaction
//!   ([`log::EventLog::compact_through`]) may delete the covered files.
//!   Checkpoints chain: a link holds only what was sealed since its
//!   predecessor, so a checkpoint costs what was sealed since the last
//!   one, not the whole history.
//!
//! This crate is graph-agnostic on purpose: it stores and retrieves
//! [`egraph_io::binary::LogRecord`]s and knows nothing about `LiveGraph`.
//! The mapping between events and records lives in `egraph-stream`'s
//! `durable` module, keeping the dependency arrow pointing one way.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod log;
pub mod segment;

pub use checkpoint::{
    checkpoint_path, checkpoints_bytes, decode_checkpoint_file, encode_checkpoint_file,
    install_checkpoint, list_checkpoints, read_checkpoint, read_checkpoint_chain,
    retain_checkpoints, write_checkpoint, ChainSize,
};
pub use log::{read_log_init, EventLog, LogError, RecoveredLog, Sealed};
pub use segment::{decode_segment, encode_segment, SealedSegment, SegmentError};
