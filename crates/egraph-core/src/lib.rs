//! # egraph-core
//!
//! Evolving-graph data structures and breadth-first search over temporal
//! paths — a from-scratch Rust reproduction of the core contribution of
//! *"The Right Way to Search Evolving Graphs"* (Chen & Zhang, IPPS 2016).
//!
//! An **evolving graph** is a time-ordered sequence of static graphs
//! `G_n = ⟨G[1], …, G[n]⟩`. Searching it correctly requires tracking
//!
//! * **active nodes** — a temporal node `(v, t)` is active iff it has an
//!   incident edge at snapshot `t` (Definition 3);
//! * **temporal paths** — sequences of active temporal nodes that advance
//!   through static edges (same snapshot) or **causal edges** (same node,
//!   later snapshot) and never move backward in time (Definition 4);
//! * the **forward neighbor** relation combining both edge kinds
//!   (Definition 5).
//!
//! The headline algorithm is Algorithm 1 of the paper, BFS over temporal
//! paths in `O(|E| + |V|)` time for the adjacency-list representation
//! ([`adjacency::AdjacencyListGraph`]); [`kernel::distances`] runs it.
//!
//! This crate is the *engine room*: it owns the graph representations, the
//! traversal engines and the view adaptors. Applications query through the
//! `Search` builder of the `egraph-query` crate, the one entry point that
//! fronts this crate's engines (plus `egraph-matrix`'s algebraic engine) and
//! composes them with windows, time reversal and backward direction.
//!
//! ## Quick example
//!
//! Build the 3-node example of the paper's Figure 1 (1 → 2 at t1, 1 → 3 at
//! t2, 2 → 3 at t3) and run Algorithm 1 on the kernel:
//!
//! ```
//! use egraph_core::kernel::distances;
//! use egraph_core::prelude::*;
//!
//! let mut g = AdjacencyListGraph::directed(3, vec![1, 2, 3]).unwrap();
//! g.add_edge(NodeId(0), NodeId(1), TimeIndex(0)).unwrap();
//! g.add_edge(NodeId(0), NodeId(2), TimeIndex(1)).unwrap();
//! g.add_edge(NodeId(1), NodeId(2), TimeIndex(2)).unwrap();
//!
//! // No parents recorded, every level expanded serially.
//! let reached = distances(&g, TemporalNode::from_raw(0, 0), false, usize::MAX).unwrap();
//! // (3, t3) is three hops away: one static hop and two causal/static hops.
//! assert_eq!(reached.distance(TemporalNode::from_raw(2, 2)), Some(3));
//! ```
//!
//! The same query through the builder (from the `egraph-query` crate) reads
//! `Search::from(TemporalNode::from_raw(0, 0)).run(&g)` and can switch to
//! the parallel or algebraic engine, a time window, or backward traversal
//! without changing the call shape.
//!
//! ## Module overview
//!
//! | module | contents |
//! |---|---|
//! | [`ids`] | [`ids::NodeId`], [`ids::TimeIndex`], [`ids::TemporalNode`], edge types |
//! | [`graph`] | the [`graph::EvolvingGraph`] trait |
//! | [`adjacency`] | adjacency-list representation (incremental) |
//! | [`csr`] | CSR-flattened representation (contiguous serve path) |
//! | [`snapshots`] | snapshot-sequence representation |
//! | [`kernel`] | Algorithm 1 and the shared frontier: the one level-synchronous traversal loop behind every hop engine, serial or across the rayon pool |
//! | [`paths`] | temporal-path validation, enumeration, walk counting |
//! | [`resume`] | resumable BFS/foremost state for incremental re-search |
//! | [`static_equiv`] | the equivalent static graph of Theorem 1 |
//! | [`reverse`], [`window`] | time-reversed and time-windowed views |
//! | [`examples`] | the paper's worked examples |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adjacency;
pub mod components;
pub mod csr;
pub mod distance;
pub mod error;
pub mod examples;
pub mod foremost;
pub mod graph;
pub mod ids;
pub mod instrument;
pub mod kernel;
pub mod metrics;
pub mod paths;
pub mod resume;
pub mod reverse;
pub mod snapshots;
pub mod static_equiv;
pub mod static_graph;
pub mod window;

/// Commonly used items, re-exported for glob import.
pub mod prelude {
    pub use crate::adjacency::AdjacencyListGraph;
    pub use crate::components::{weak_components, WeakComponents};
    pub use crate::csr::{CsrAdjacency, CsrColumns, CsrParts};
    pub use crate::distance::{DistanceMap, MultiSourceMap};
    pub use crate::error::{GraphError, Result};
    pub use crate::foremost::{earliest_arrival, temporal_distance_steps, ForemostResult};
    pub use crate::graph::{EvolvingGraph, TimeOrder};
    pub use crate::ids::{CausalEdge, NodeId, StaticEdge, TemporalNode, TimeIndex, Timestamp};
    pub use crate::instrument::{CountingView, TraversalCounters};
    pub use crate::metrics::GraphMetrics;
    pub use crate::paths::{enumerate_paths, is_temporal_path, walk_count_vector};
    pub use crate::resume::{Resumable, ResumableBfs, ResumableForemost, ResumableShared};
    pub use crate::reverse::ReversedView;
    pub use crate::snapshots::{Snapshot, SnapshotSequence};
    pub use crate::static_equiv::EquivalentStaticGraph;
    pub use crate::static_graph::StaticGraph;
    pub use crate::window::TimeWindowView;
}

pub use adjacency::AdjacencyListGraph;
pub use csr::CsrAdjacency;
pub use distance::{DistanceMap, MultiSourceMap};
pub use error::{GraphError, Result};
pub use graph::EvolvingGraph;
pub use ids::{NodeId, TemporalNode, TimeIndex, Timestamp};
pub use snapshots::SnapshotSequence;
pub use static_equiv::EquivalentStaticGraph;
pub use static_graph::StaticGraph;
