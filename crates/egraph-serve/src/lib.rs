//! # egraph-serve
//!
//! A real network serving layer for evolving-graph search: a hand-rolled
//! HTTP/1.1 server over `std::net`, speaking the workspace's serde-free
//! JSON dialect, with **single-flight admission** in front of the
//! [`QueryCache`](egraph_stream::QueryCache) and **standing-query push**
//! driven by snapshot seals.
//!
//! The build environment has no registry access, so there is no framework
//! underneath — the HTTP codec ([`http`]), admission layer
//! ([`singleflight`]) and server loop are plain `std`. Each admitted
//! connection runs on a connection thread of its own, from a bounded set
//! that parks its threads between connections; engines and cache repairs
//! run on the workspace's in-tree rayon pool.
//!
//! ## Quickstart
//!
//! ```
//! use egraph_core::ids::{NodeId, TemporalNode};
//! use egraph_query::Search;
//! use egraph_serve::{Client, Server, ServerConfig};
//! use egraph_stream::LiveGraph;
//!
//! // A graph with one sealed snapshot...
//! let mut live = LiveGraph::directed(4);
//! live.insert(NodeId(0), NodeId(1)).unwrap();
//! live.seal_snapshot(0).unwrap();
//!
//! // ...served over a loopback socket.
//! let server = Server::start(live, ServerConfig::default()).unwrap();
//! let client = Client::new(server.addr());
//!
//! // Query over the wire: the body is the builder's canonical descriptor.
//! let descriptor = Search::from(TemporalNode::from_raw(0, 0)).descriptor();
//! let response = client.query(&descriptor).unwrap();
//! assert_eq!(response.status, 200);
//! assert!(response.body.contains("\"kind\":\"hops\""));
//!
//! // Push new data and seal; subscribers (none here) would get a frame.
//! let response = client
//!     .post("/ingest", r#"{"events": [[1, 2]], "seal": 1}"#)
//!     .unwrap();
//! assert_eq!(response.status, 200);
//! assert!(response.body.contains("\"num_sealed\": 2"));
//! ```
//!
//! The same dialect works from `curl`:
//!
//! ```text
//! curl -s localhost:PORT/query -d '{"sources": [[0, 0]]}'
//! curl -s localhost:PORT/ingest -d '{"events": [[1, 2]], "seal": 7}'
//! curl -sN localhost:PORT/subscribe -d '{"sources": [[0, 0]]}'   # streams frames
//! curl -s localhost:PORT/stats
//! ```
//!
//! ## The three serving tiers
//!
//! 1. **Peek** — a current cache entry is served off a shard read lock;
//!    hot standing queries cost an `Arc` bump and one serialization.
//! 2. **Single-flight** — concurrent requests for the same (canonical)
//!    descriptor coalesce: one leader computes, every follower *parks its
//!    connection* — not a thread — and is answered by the leader from the
//!    same bytes. A burst of N identical cold queries does one traversal,
//!    counted as 1 miss + (N−1) [`coalesced`](egraph_stream::CacheStats).
//! 3. **Compute** — through the cache, so repairs follow the invalidation
//!    matrix (extend where the descriptor allows, recompute otherwise) and
//!    the next burst starts at tier 1.
//!
//! ## Standing queries
//!
//! `POST /subscribe` holds the connection open (chunked transfer encoding)
//! and pushes a frame per sealed snapshot: `{"seq", "version", "label",
//! "segments_sealed", "segments_replayed", "follower_lag_seals",
//! "outcome", "result"}`. Frames are generated through the same cache as
//! `/query`, so a subscription to an extendable query is advanced
//! incrementally, not recomputed. Seal→broadcast sections are serialized —
//! every subscriber sees every seal, in order, exactly once.
//!
//! ## Durability & replication
//!
//! [`Server::start_durable`] write-ahead logs every ingested event into an
//! `egraph-log` segment directory and fsyncs each seal before
//! acknowledging it; after a crash or restart,
//! [`DurableGraph::open`](egraph_stream::DurableGraph::open) (or the
//! `--data-dir` flag of the `egraph-serve` binary) replays the log and the
//! server resumes byte-identically. [`Server::start_follower`] tails a
//! leader's sealed-segment stream over `GET /log/tail` (see
//! [`Client::tail_log`]) and serves reads and subscriptions from its own
//! replica and cache — delta-sync read scaling on the same wire format the
//! disk uses. A follower *forwards* `/ingest` to its leader with bounded
//! retries, so clients may write to any server in the group.
//!
//! ## Overload & fault tolerance
//!
//! Connections run on their own bounded threads, separate from the rayon
//! pool that runs engines and repairs, so a handler that waits on another
//! connection cannot starve it. Admission is bounded
//! ([`ServerConfig::max_inflight`] connections, and as many connection
//! threads at most): past the bound, connections are shed with `503` +
//! `Retry-After` straight from the accept thread, and
//! [`Client::post_with_retry`] honors the hint with jittered backoff
//! ([`RetryPolicy`]). `/stats` reports the threads created and alive.
//! The whole write/replication path is instrumented with `egraph-fault`
//! failpoints (zero-cost in release builds); the workspace's chaos suite
//! (`tests/chaos.rs`) scripts them to prove the durability contract under
//! injected fsync failures, torn writes, crashes and overload.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
mod connections;
pub mod http;
pub mod server;
pub mod singleflight;

pub use client::{Client, LogTail, RetryPolicy, Subscription, TailInit, TailSegment};
pub use http::Response;
pub use server::{Server, ServerConfig, ServerStats};

/// Commonly used items, re-exported for glob import.
pub mod prelude {
    pub use crate::client::{Client, LogTail, RetryPolicy, Subscription, TailInit, TailSegment};
    pub use crate::http::Response;
    pub use crate::server::{Server, ServerConfig, ServerStats};
}
