//! # egraph-query
//!
//! One entry point for every evolving-graph search.
//!
//! The paper's thesis is that searching an evolving graph is *one* problem
//! with several equivalent execution strategies: the adjacency-list BFS of
//! Algorithm 1, its frontier-parallel variant, and the algebraic block-matrix
//! formulation of Algorithm 2 (equivalent by Theorem 4). This crate puts a
//! single composable query layer — [`Search`] — in front of those
//! interchangeable engines: the one public way to search, whatever the
//! strategy, direction, window or source count.
//!
//! ```
//! use egraph_core::examples::paper_figure1;
//! use egraph_core::ids::TemporalNode;
//! use egraph_query::{Direction, Search, Strategy};
//!
//! let g = paper_figure1();
//!
//! // Forward BFS from (1, t1), serial engine (the default).
//! let result = Search::from(TemporalNode::from_raw(0, 0)).run(&g).unwrap();
//! assert_eq!(result.distance(TemporalNode::from_raw(2, 2)), Some(3));
//!
//! // The same query on the algebraic engine gives identical distances.
//! let algebraic = Search::from(TemporalNode::from_raw(0, 0))
//!     .strategy(Strategy::Algebraic)
//!     .run(&g)
//!     .unwrap();
//! assert_eq!(result.reached(), algebraic.reached());
//!
//! // Backward in time from (3, t3): who could have influenced it?
//! let back = Search::from(TemporalNode::from_raw(2, 2))
//!     .direction(Direction::Backward)
//!     .run(&g)
//!     .unwrap();
//! assert!(back.is_reached(TemporalNode::from_raw(0, 0)));
//! ```
//!
//! The builder folds view composition in as well: [`Search::window`]
//! restricts the traversal to a contiguous snapshot range (the
//! `TimeWindowView` of Section II-C) and [`Search::reverse`] runs the query
//! on the time-reversed graph (Section V's `t → −t` transformation), with
//! sources and results always expressed in the *original* graph's
//! coordinates. Multi-source queries ([`Search::from_sources`]) run one
//! traversal per source under the hop-distance strategies and expose both
//! per-source and union views of the result, or a single shared-frontier
//! traversal under [`Strategy::SharedFrontier`].
//!
//! ## Choosing a strategy
//!
//! | strategy | engine | cost model | answers | use when |
//! |---|---|---|---|---|
//! | [`Strategy::Serial`] (default) | Algorithm 1 on the `egraph-core` traversal kernel, every level serial | `O(\|E\| + \|V\|)` per source | hop distances, BFS-tree parents | general queries; the only engine that records parents for [`SearchResult::path_to`] |
//! | [`Strategy::Parallel`] | the same kernel, levels at least [`Search::parallel_threshold`] wide chunked across the thread pool | `O(\|E\| + \|V\|)` work per source | hop distances | wide frontiers on multi-core hosts; the serial loop on a one-thread pool; bit-for-bit identical results to `Serial` at every pool size |
//! | [`Strategy::Algebraic`] | Algorithm 2 block-matrix power iteration | `O(d · \|E\|)` for BFS depth `d` | hop distances | linear-algebra backends / ablations; dense small graphs |
//! | [`Strategy::Foremost`] | time-ordered earliest-arrival sweep | `O(\|Ẽ\| + N·n)` per source — no temporal-node expansion | arrival snapshots only (latest departures when time-reversed) | arrival-only queries ("when is `v` first reached?"); strictly less work than deriving arrivals from a full hop-BFS |
//! | [`Strategy::SharedFrontier`] | the same kernel on packed `(distance, source)` keys, one shared frontier | `O(\|E\| + \|V\|)` **total**, independent of source count | nearest-source distance + source id per temporal node | many sources where only the nearest one matters (facility-location / coverage queries); the per-source loop costs the same *per source* |
//!
//! Here `\|Ẽ\|` counts static edges, `\|V\|`/`\|E\|` the active temporal
//! nodes and equivalent-static-graph edges (causal edges included), `N` the
//! node universe and `n` the snapshot count. All five strategies are pinned
//! against one independent Algorithm 1 oracle by the workspace's
//! `tests/kernel_oracle.rs`, on every direction × window × reverse shape,
//! error cases included.
//!
//! The engines underneath keep their own paths for code below this crate:
//! `egraph_core::kernel::{distances, nearest_sources}` (forward only; a
//! backward search is a forward search on `ReversedView`),
//! `egraph_core::foremost::earliest_arrival` and
//! `egraph_matrix::algebraic_bfs`. The free functions that once wrapped
//! them are gone; each has a builder form:
//!
//! | removed free function | builder equivalent |
//! |---|---|
//! | `bfs(&g, root)`, `bfs_with_parents` | `Search::from(root).run(&g)`, plus `.with_parents()` |
//! | `backward_bfs(&g, root)`, `backward_bfs_with_parents` | `Search::from(root).backward().run(&g)` |
//! | `multi_source_bfs(&g, roots)` | `Search::from_sources(roots).run(&g)` |
//! | `multi_source_shared(&g, roots)` | `Search::from_sources(roots).strategy(Strategy::SharedFrontier).run(&g)` |
//! | `distance_between(&g, a, b)`, `is_reachable(&g, a, b)` | `Search::from(a).run(&g)?.distance(b)`, `.is_reached(b)` |
//! | `reachable_set(&g, root)` | `Search::from(root).run(&g)?.reachable_set()` |
//! | `metrics::eccentricity(&g, root)` | `Search::from(root).run(&g)?.eccentricity()` |
//! | `reach_profile(&g, v)`, `metrics::reach_counts(&g)` | `num_reached() - 1` of one search per active root |
//! | `components::out_component`, `in_component` | `reached()` of a forward or backward search |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod builder;
pub mod codec;
mod descriptor;
mod result;
mod view_map;

pub use builder::{Direction, Search, Strategy, WindowSpec};
pub use descriptor::{AppendRepair, QueryDescriptor, QueryExecutor};
pub use result::SearchResult;

/// Commonly used items, re-exported for glob import.
pub mod prelude {
    pub use crate::builder::{Direction, Search, Strategy, WindowSpec};
    pub use crate::descriptor::{AppendRepair, QueryDescriptor, QueryExecutor};
    pub use crate::result::SearchResult;
}
