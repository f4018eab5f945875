//! # egraph-stream
//!
//! Live evolving graphs: the graph *keeps evolving while you query it*.
//!
//! The paper's premise is an evolving graph — a time-ordered sequence of
//! snapshots — yet the rest of the workspace only ever searches sequences
//! frozen up front. This crate closes that gap with three pieces:
//!
//! * [`LiveGraph`] — an append-only event API
//!   ([`apply`](LiveGraph::apply) / [`seal_snapshot`](LiveGraph::seal_snapshot))
//!   publishing sealed snapshots into a CSR-flattened serve graph
//!   ([`egraph_core::csr::CsrAdjacency`]: contiguous neighbor pools, one
//!   appended region per seal), with a monotonically increasing
//!   [`version`](LiveGraph::version) stamp and per-snapshot *touched*
//!   sets. Searches only ever see sealed snapshots.
//! * [`QueryCache`] — memoises [`Search`](egraph_query::Search) executions
//!   keyed by the builder's canonical
//!   [`QueryDescriptor`](egraph_query::QueryDescriptor), so the cache
//!   composes with all five strategies instead of bypassing the builder.
//!   Built to serve: hits are `O(1)` clones of a shared
//!   `Arc<SearchResult>`, [`execute`](QueryCache::execute) takes `&self`
//!   behind sharded `RwLock`s (concurrent readers), and
//!   [`with_capacity`](QueryCache::with_capacity) bounds memory with LRU
//!   eviction.
//! * **Incremental re-search** — the headline. Because snapshots are
//!   append-only in time, a *forward* traversal only ever gains
//!   reachability: when snapshots are sealed, cached forward hop-BFS and
//!   foremost results are **extended** from the retained per-node frontier /
//!   arrival table ([`egraph_core::resume`]) in time proportional to the
//!   delta, while shapes the delta can invalidate (backward, reversed,
//!   bounded-window, …) fall back to recompute-on-demand. See the
//!   invalidation matrix in [`cache`].
//! * [`durable`] — write-ahead logging over `egraph-log`:
//!   [`DurableGraph`] fsyncs every sealed snapshot as one binary segment
//!   before acknowledging it, and [`LiveGraph::recover`] rebuilds the CSR
//!   serve graph and the monotone version stamp exactly after a crash or
//!   restart — from the newest valid checkpoint plus a bounded segment
//!   suffix when a checkpoint policy is set, or by full segment replay.
//!
//! ```
//! use egraph_core::ids::{NodeId, TemporalNode};
//! use egraph_query::{Search, Strategy};
//! use egraph_stream::{CacheOutcome, EdgeEvent, LiveGraph, QueryCache};
//!
//! // Ingest a first batch and seal it at time 0.
//! let mut live = LiveGraph::directed(4);
//! live.apply(EdgeEvent::insert(NodeId(0), NodeId(1)))?;
//! live.seal_snapshot(0)?;
//!
//! let cache = QueryCache::new();
//! let root = TemporalNode::from_raw(0, 0);
//! let first = cache.execute(&live, &Search::from(root))?;
//! assert_eq!(first.num_reached(), 2);
//!
//! // The graph keeps evolving...
//! live.apply(EdgeEvent::insert(NodeId(1), NodeId(2)))?;
//! live.seal_snapshot(1)?;
//!
//! // ...and the cached forward search is *extended*, not recomputed.
//! let (second, outcome) = cache.execute_traced(&live, &Search::from(root))?;
//! assert_eq!(outcome, CacheOutcome::Extended);
//! assert!(second.reaches_node(NodeId(2)));
//! # Ok::<(), egraph_core::error::GraphError>(())
//! ```
//!
//! The differential suite (`tests/live_stream_differential.rs` at the
//! workspace root) pins every cached / extended / recomputed answer to a
//! from-scratch `Search::run` on the sealed graph over randomized event
//! streams — all five strategies × direction × window × reverse, errors
//! included.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod durable;
pub mod event;
pub mod live;

pub use cache::{CacheOutcome, CacheStats, CachedSession, QueryCache};
pub use durable::{
    event_to_record, live_from_checkpoint, newest_loadable_checkpoint, record_to_event,
    replay_segment, CheckpointReceipt, CheckpointStats, Checkpointer, DurableError, DurableGraph,
    LoadedCheckpoint, RecoveredGraph, SealReceipt,
};
pub use event::EdgeEvent;
pub use live::LiveGraph;

/// Commonly used items, re-exported for glob import.
pub mod prelude {
    pub use crate::cache::{CacheOutcome, CacheStats, CachedSession, QueryCache};
    pub use crate::durable::{
        CheckpointReceipt, CheckpointStats, Checkpointer, DurableError, DurableGraph,
        RecoveredGraph, SealReceipt,
    };
    pub use crate::event::EdgeEvent;
    pub use crate::live::LiveGraph;
}
