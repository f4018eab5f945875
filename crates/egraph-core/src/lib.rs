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
//! The headline algorithm is [`bfs::bfs`] — Algorithm 1 of the paper — which
//! computes distances over temporal paths in `O(|E| + |V|)` time for the
//! adjacency-list representation ([`adjacency::AdjacencyListGraph`]).
//!
//! This crate is the *engine room*: it owns the graph representations, the
//! traversal engines and the view adaptors. Applications usually query
//! through the unified `Search` builder of the `egraph-query` crate, which
//! fronts this crate's serial and parallel engines (plus `egraph-matrix`'s
//! algebraic engine) behind one fluent entry point; the free functions below
//! stay available for code that wants to talk to an engine directly.
//!
//! ## Quick example
//!
//! Build the 3-node example of the paper's Figure 1 (1 → 2 at t1, 1 → 3 at
//! t2, 2 → 3 at t3) and search it with Algorithm 1:
//!
//! ```
//! use egraph_core::prelude::*;
//!
//! let mut g = AdjacencyListGraph::directed(3, vec![1, 2, 3]).unwrap();
//! g.add_edge(NodeId(0), NodeId(1), TimeIndex(0)).unwrap();
//! g.add_edge(NodeId(0), NodeId(2), TimeIndex(1)).unwrap();
//! g.add_edge(NodeId(1), NodeId(2), TimeIndex(2)).unwrap();
//!
//! let reached = bfs(&g, TemporalNode::from_raw(0, 0)).unwrap();
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
//! | [`mod@bfs`] | Algorithm 1, backward BFS, shared-frontier and per-root multi-source, reachability |
//! | [`kernel`] | the one level-synchronous traversal loop behind every hop engine, serial or across the rayon pool |
//! | [`paths`] | temporal-path validation, enumeration, walk counting |
//! | [`resume`] | resumable BFS/foremost state for incremental re-search |
//! | [`static_equiv`] | the equivalent static graph of Theorem 1 |
//! | [`reverse`], [`window`] | time-reversed and time-windowed views |
//! | [`examples`] | the paper's worked examples |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adjacency;
pub mod bfs;
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
    pub use crate::bfs::{
        backward_bfs, backward_bfs_with_parents, bfs, bfs_with_parents, distance_between,
        is_reachable, multi_source_bfs, multi_source_shared, reachable_set, Direction,
    };
    pub use crate::components::{in_component, out_component, weak_components, WeakComponents};
    pub use crate::csr::{CsrAdjacency, CsrColumns, CsrParts};
    pub use crate::distance::{DistanceMap, MultiSourceMap};
    pub use crate::error::{GraphError, Result};
    pub use crate::foremost::{earliest_arrival, temporal_distance_steps, ForemostResult};
    pub use crate::graph::EvolvingGraph;
    pub use crate::ids::{CausalEdge, NodeId, StaticEdge, TemporalNode, TimeIndex, Timestamp};
    pub use crate::instrument::{CountingView, TraversalCounters};
    pub use crate::metrics::{eccentricity, reach_counts, GraphMetrics};
    pub use crate::paths::{enumerate_paths, is_temporal_path, walk_count_vector};
    pub use crate::resume::{ResumableBfs, ResumableForemost, ResumableShared, StableCoreResettle};
    pub use crate::reverse::ReversedView;
    pub use crate::snapshots::{Snapshot, SnapshotSequence};
    pub use crate::static_equiv::EquivalentStaticGraph;
    pub use crate::static_graph::StaticGraph;
    pub use crate::window::TimeWindowView;
}

pub use adjacency::AdjacencyListGraph;
pub use bfs::{backward_bfs, bfs, bfs_with_parents, multi_source_shared};
pub use csr::CsrAdjacency;
pub use distance::{DistanceMap, MultiSourceMap};
pub use error::{GraphError, Result};
pub use graph::EvolvingGraph;
pub use ids::{NodeId, TemporalNode, TimeIndex, Timestamp};
pub use snapshots::SnapshotSequence;
pub use static_equiv::EquivalentStaticGraph;
pub use static_graph::StaticGraph;
