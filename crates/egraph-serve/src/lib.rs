//! # egraph-serve
//!
//! A real network serving layer for evolving-graph search: a hand-rolled
//! HTTP/1.1 server over `std::net`, speaking the workspace's serde-free
//! JSON dialect, with **single-flight admission** in front of the
//! [`QueryCache`](egraph_stream::QueryCache) and **standing-query push**
//! driven by snapshot seals.
//!
//! The build environment has no registry access, so there is no framework
//! underneath — everything is plain `std`:
//!
//! [`http`] is the HTTP/1.1 codec, [`client`] the blocking client and
//! [`server`] the server, whose handlers are split by suite into its
//! `read`, `write` and `follower` submodules. Two private modules hold
//! single-flight admission and the bounded set of connection threads;
//! engines and cache repairs run on the workspace's in-tree rayon pool.
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
//! ## How it serves
//!
//! Each mechanism is documented once, where it is implemented: the
//! [`server`] module covers the `/query` tiers, standing-query push,
//! durability and replication ([`Server::start_durable`],
//! [`Server::start_follower`]), bounded admission and the failpoints the
//! chaos suite (`tests/chaos.rs`) scripts; [`Client::post_with_retry`]
//! covers the client side of load shedding.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::sync::{Mutex, MutexGuard, PoisonError};

pub mod client;
mod connections;
pub mod http;
pub mod server;
mod singleflight;

pub use client::{Client, LogTail, RetryPolicy, Subscription, TailInit, TailSegment};
pub use http::Response;
pub use server::{Server, ServerConfig, ServerStats};

/// Locks `mutex`, recovering it if a thread panicked while holding it: a
/// panicking handler is caught on its connection thread, and must not take
/// the server's shared state down with it.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Commonly used items, re-exported for glob import.
pub mod prelude {
    pub use crate::client::{Client, LogTail, RetryPolicy, Subscription, TailInit, TailSegment};
    pub use crate::http::Response;
    pub use crate::server::{Server, ServerConfig, ServerStats};
}
