//! # evolving-graphs
//!
//! Umbrella crate for the Rust reproduction of *"The Right Way to Search
//! Evolving Graphs"* (Chen & Zhang, IPPS 2016). It re-exports the workspace
//! crates under one roof so applications can depend on a single crate:
//!
//! * [`query`] (`egraph-query`) — the unified [`Search`](egraph_query::Search)
//!   query builder: **the recommended entry point** for every traversal;
//! * [`core`] (`egraph-core`) — evolving-graph data structures, temporal
//!   paths, and the one traversal kernel behind serial and frontier-parallel
//!   Algorithm 1 BFS;
//! * [`matrix`] (`egraph-matrix`) — sparse/dense linear algebra, the block
//!   adjacency matrix, the `⊙` product and Algorithm 2 (algebraic engine);
//! * [`gen`] (`egraph-gen`) — reproducible workload generators;
//! * [`citation`] (`egraph-citation`) — the Section V citation-mining
//!   application;
//! * [`stream`] (`egraph-stream`) — live graphs: append-only event
//!   ingestion, query caching and incremental re-search;
//! * [`log`] (`egraph-log`) — the durable segmented event log: append-only
//!   CRC-framed segments, fsync-on-seal, torn-tail crash recovery;
//! * [`fault`] (`egraph-fault`) — the deterministic failpoint registry the
//!   chaos suite scripts against (zero-cost in release builds);
//! * [`serve`] (`egraph-serve`) — the HTTP serving layer: single-flight
//!   admission over the query cache, standing-query push, durable leaders
//!   and follower replication;
//! * [`baselines`] (`egraph-baselines`) — the incorrect/restricted schemes
//!   the paper argues against;
//! * [`io`] (`egraph-io`) — edge lists, JSON and benchmark report tables.
//!
//! ## Quickstart
//!
//! Build a graph, then describe the traversal once with [`Search`] and pick
//! the execution strategy independently:
//!
//! ```
//! use evolving_graphs::prelude::*;
//!
//! let g = evolving_graphs::core::examples::paper_figure1();
//! let root = TemporalNode::from_raw(0, 0);
//!
//! // Forward BFS from (1, t1) — serial Algorithm 1 under the hood.
//! let result = Search::from(root).run(&g)?;
//! assert_eq!(result.num_reached(), 6);
//!
//! // The algebraic engine (Algorithm 2) computes identical distances.
//! let algebraic = Search::from(root).strategy(Strategy::Algebraic).run(&g)?;
//! assert_eq!(result.reached(), algebraic.reached());
//!
//! // Backward in time, restricted to the last two snapshots.
//! let influencers = Search::from(TemporalNode::from_raw(2, 2))
//!     .direction(Direction::Backward)
//!     .window(1u32..=2)
//!     .run(&g)?;
//! assert!(influencers.is_reached(TemporalNode::from_raw(0, 1)));
//! # Ok::<(), GraphError>(())
//! ```
//!
//! [`Search`] is the one way to search. The free functions that once stood
//! beside it (`bfs`, `backward_bfs`, `multi_source_bfs`, `reachable_set`,
//! `eccentricity`, …) are gone from every crate, so neither of these
//! resolves:
//!
//! ```compile_fail
//! use evolving_graphs::prelude::{bfs, Direction, Search};
//! ```
//!
//! ```compile_fail
//! use evolving_graphs::core::bfs::bfs;
//! ```
//!
//! The graph storages are the adjacency list (to build) and its CSR
//! flattening (to serve); the snapshot-sequence storage, the CSR matrix with
//! its rayon mat-vecs, dynamic walks, weak components and `GraphMetrics`,
//! none of which any search used, are gone too:
//!
//! ```compile_fail
//! use evolving_graphs::prelude::SnapshotSequence;
//! ```
//!
//! ```compile_fail
//! use evolving_graphs::matrix::CsrMatrix;
//! ```
//!
//! ```compile_fail
//! use evolving_graphs::matrix::dynamic_walks::dynamic_communicability;
//! ```
//!
//! ```compile_fail
//! use evolving_graphs::core::metrics::GraphMetrics;
//! ```
//!
//! ```compile_fail
//! use evolving_graphs::core::components::weak_components;
//! ```
//!
//! while the same imports without the removed names do:
//!
//! ```
//! use evolving_graphs::prelude::{AdjacencyListGraph, CsrAdjacency, Direction, Search};
//! use evolving_graphs::core::kernel::distances;
//! use evolving_graphs::matrix::{CscMatrix, DenseMatrix};
//! ```
//!
//! [`Search`]: egraph_query::Search

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use egraph_baselines as baselines;
pub use egraph_citation as citation;
pub use egraph_core as core;
pub use egraph_fault as fault;
pub use egraph_gen as gen;
pub use egraph_io as io;
pub use egraph_log as log;
pub use egraph_matrix as matrix;
pub use egraph_query as query;
pub use egraph_serve as serve;
pub use egraph_stream as stream;

/// Commonly used items from every sub-crate.
pub mod prelude {
    pub use egraph_citation::prelude::*;
    pub use egraph_core::prelude::*;
    pub use egraph_gen::prelude::*;
    pub use egraph_matrix::prelude::*;
    pub use egraph_query::prelude::*;
    pub use egraph_serve::prelude::*;
    pub use egraph_stream::prelude::*;
}
