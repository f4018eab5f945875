//! Algorithm 1: breadth-first search over an evolving graph.
//!
//! The traversal is identical to classical BFS except that the neighbor
//! relation is the *forward neighbor* relation of Definition 5 — static edges
//! inside the current snapshot plus causal edges to every later snapshot at
//! which the same node is active. By Theorem 1 this is exactly BFS on the
//! equivalent static graph `G = (V, Ẽ ∪ E′)`, and by Theorem 2 it runs in
//! `O(|E| + |V|)` when the graph is stored as adjacency lists.
//!
//! [`bfs`] and its siblings are thin wrappers over the level-synchronous
//! kernel of [`crate::kernel`], with [`distance_between`], [`is_reachable`]
//! and [`reachable_set`] as small conveniences on top.

use rayon::prelude::*;

use crate::distance::{DistanceMap, MultiSourceMap};
use crate::error::{GraphError, Result};
use crate::graph::EvolvingGraph;
use crate::ids::{NodeId, TemporalNode, TimeIndex};
use crate::kernel;

/// Direction of a temporal traversal.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Follow forward neighbors: static edges plus causal edges to later
    /// snapshots. Computes the influence set `T(a, t)` of Section V.
    Forward,
    /// Follow backward neighbors: reversed static edges plus causal edges to
    /// earlier snapshots. Computes `T⁻¹(a, t)`.
    Backward,
}

/// Runs Algorithm 1 from `root`, returning distances only.
///
/// # Errors
/// Returns [`GraphError::InactiveRoot`] if the root is not an active temporal
/// node (Definition 4 makes every temporal path from it empty), and
/// [`GraphError::TimeOutOfRange`] / [`GraphError::NodeOutOfRange`] if the
/// root lies outside the graph.
pub fn bfs<G: EvolvingGraph>(graph: &G, root: TemporalNode) -> Result<DistanceMap> {
    kernel::distances(graph, root, Direction::Forward, false, usize::MAX)
}

/// Runs Algorithm 1 from `root`, additionally recording BFS-tree parents so
/// shortest temporal paths can be reconstructed.
pub fn bfs_with_parents<G: EvolvingGraph>(graph: &G, root: TemporalNode) -> Result<DistanceMap> {
    kernel::distances(graph, root, Direction::Forward, true, usize::MAX)
}

/// Runs the backward-in-time BFS from `root` (Section V): distances count
/// hops along reversed static edges and backward causal edges.
pub fn backward_bfs<G: EvolvingGraph>(graph: &G, root: TemporalNode) -> Result<DistanceMap> {
    kernel::distances(graph, root, Direction::Backward, false, usize::MAX)
}

/// Backward BFS with parent recording.
pub fn backward_bfs_with_parents<G: EvolvingGraph>(
    graph: &G,
    root: TemporalNode,
) -> Result<DistanceMap> {
    kernel::distances(graph, root, Direction::Backward, true, usize::MAX)
}

/// Validates that `root` is inside the graph and active.
pub fn check_root<G: EvolvingGraph>(graph: &G, root: TemporalNode) -> Result<()> {
    if graph.num_timestamps() == 0 {
        return Err(GraphError::EmptyGraph);
    }
    if root.node.index() >= graph.num_nodes() {
        return Err(GraphError::NodeOutOfRange {
            node: root.node,
            num_nodes: graph.num_nodes(),
        });
    }
    if root.time.index() >= graph.num_timestamps() {
        return Err(GraphError::TimeOutOfRange {
            time: root.time,
            num_timestamps: graph.num_timestamps(),
        });
    }
    if !graph.is_active(root.node, root.time) {
        return Err(GraphError::InactiveRoot { root });
    }
    Ok(())
}

/// Runs a *shared-frontier* multi-source BFS: one traversal seeded with every
/// source at distance 0, instead of one traversal per source.
///
/// For every temporal node the result records the distance to the *nearest*
/// source (`min_s d_s(v, t)`) together with which source that is; ties are
/// broken toward the smallest source index, deterministically, so the result
/// equals the per-source-minimum oracle built from independent single-source
/// runs. Total work is one BFS over the union of the per-source search
/// regions — `O(|E| + |V|)` regardless of the number of sources — where the
/// per-source loop costs `O(k · (|E| + |V|))` for `k` sources.
///
/// Duplicate sources are allowed (the earliest occurrence claims the node).
///
/// # Errors
/// Returns [`GraphError::NoSources`] for an empty source list and the usual
/// [`check_root`] errors for any invalid source.
pub fn multi_source_shared<G: EvolvingGraph>(
    graph: &G,
    sources: &[TemporalNode],
) -> Result<MultiSourceMap> {
    kernel::nearest_sources(graph, sources, usize::MAX)
}

/// Runs BFS from many roots in parallel (one serial BFS per root, roots
/// distributed over the rayon pool). This is the access pattern of the
/// citation-mining workload of Section V, where an influence set is wanted
/// for every author.
pub fn multi_source_bfs<G: EvolvingGraph>(
    graph: &G,
    roots: &[TemporalNode],
) -> Vec<Result<DistanceMap>> {
    roots
        .par_iter()
        .map(|&root| crate::bfs::bfs(graph, root))
        .collect()
}

/// Distance (Definition 6) from `from` to `to`, or `None` if `to` is not
/// reachable from `from`. Note that this notion is not symmetric: paths may
/// only move forward in time.
pub fn distance_between<G: EvolvingGraph>(
    graph: &G,
    from: TemporalNode,
    to: TemporalNode,
) -> Result<Option<u32>> {
    Ok(bfs(graph, from)?.distance(to))
}

/// Whether `to` is reachable from `from` (Definition 7).
pub fn is_reachable<G: EvolvingGraph>(
    graph: &G,
    from: TemporalNode,
    to: TemporalNode,
) -> Result<bool> {
    Ok(distance_between(graph, from, to)?.is_some())
}

/// The set of temporal nodes reachable from `root`, excluding the root
/// itself.
pub fn reachable_set<G: EvolvingGraph>(graph: &G, root: TemporalNode) -> Result<Vec<TemporalNode>> {
    let map = bfs(graph, root)?;
    Ok(map
        .reached()
        .into_iter()
        .filter(|&(tn, _)| tn != root)
        .map(|(tn, _)| tn)
        .collect())
}

/// Runs BFS from every active occurrence of `node` and returns, for each
/// start snapshot, the number of reached temporal nodes. A cheap proxy for
/// "how much influence does this node have if it acts at time t".
pub fn reach_profile<G: EvolvingGraph>(graph: &G, node: NodeId) -> Vec<(TimeIndex, usize)> {
    graph
        .active_times(node)
        .into_iter()
        .map(|t| {
            let count = bfs(graph, TemporalNode::new(node, t))
                .map(|m| m.num_reached() - 1)
                .unwrap_or(0);
            (t, count)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::{introduction_game, paper_figure1, staircase};

    #[test]
    fn bfs_from_paper_root_1_t2_matches_figure3() {
        // Figure 3 traces BFS from (1, t2): frontier {(3,t2)} at k=1, then
        // {(3,t3)} at k=2, then termination.
        let g = paper_figure1();
        let map = bfs(&g, TemporalNode::from_raw(0, 1)).unwrap();
        assert_eq!(map.distance(TemporalNode::from_raw(0, 1)), Some(0));
        assert_eq!(map.distance(TemporalNode::from_raw(2, 1)), Some(1));
        assert_eq!(map.distance(TemporalNode::from_raw(2, 2)), Some(2));
        assert_eq!(map.num_reached(), 3);
        assert_eq!(map.max_distance(), 2);
        // t1 plays no part in the traversal.
        assert!(!map.is_reached(TemporalNode::from_raw(0, 0)));
        assert!(!map.is_reached(TemporalNode::from_raw(1, 0)));
    }

    #[test]
    fn bfs_from_paper_root_1_t1_reaches_everything_active() {
        let g = paper_figure1();
        let map = bfs(&g, TemporalNode::from_raw(0, 0)).unwrap();
        assert_eq!(map.distance(TemporalNode::from_raw(1, 0)), Some(1));
        assert_eq!(map.distance(TemporalNode::from_raw(0, 1)), Some(1));
        assert_eq!(map.distance(TemporalNode::from_raw(2, 1)), Some(2));
        assert_eq!(map.distance(TemporalNode::from_raw(1, 2)), Some(2));
        assert_eq!(map.distance(TemporalNode::from_raw(2, 2)), Some(3));
        assert_eq!(map.num_reached(), 6);
    }

    #[test]
    fn bfs_rejects_inactive_root() {
        let g = paper_figure1();
        let err = bfs(&g, TemporalNode::from_raw(2, 0)).unwrap_err();
        assert!(matches!(err, GraphError::InactiveRoot { .. }));
    }

    #[test]
    fn bfs_rejects_out_of_range_roots() {
        let g = paper_figure1();
        assert!(matches!(
            bfs(&g, TemporalNode::from_raw(9, 0)).unwrap_err(),
            GraphError::NodeOutOfRange { .. }
        ));
        assert!(matches!(
            bfs(&g, TemporalNode::from_raw(0, 9)).unwrap_err(),
            GraphError::TimeOutOfRange { .. }
        ));
    }

    #[test]
    fn shortest_path_reconstruction_is_a_valid_temporal_path() {
        let g = paper_figure1();
        let map = bfs_with_parents(&g, TemporalNode::from_raw(0, 0)).unwrap();
        let path = map.path_to(TemporalNode::from_raw(2, 2)).unwrap();
        assert_eq!(path.len(), 4); // distance 3 => 4 temporal nodes
        assert_eq!(path[0], TemporalNode::from_raw(0, 0));
        assert_eq!(path[3], TemporalNode::from_raw(2, 2));
        // Times never decrease along the path.
        for w in path.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
    }

    #[test]
    fn introduction_game_reachability_depends_on_event_order() {
        let good = introduction_game(true);
        let bad = introduction_game(false);
        // Player 3 at the last time step hears message `a` iff 1 talked first.
        assert!(is_reachable(
            &good,
            TemporalNode::from_raw(0, 0),
            TemporalNode::from_raw(2, 1)
        )
        .unwrap());
        // In the bad ordering, node 0 is only active at t2 and node 2 is not
        // active at any later time, so (3, ·) is unreachable from player 1.
        let map = bfs(&bad, TemporalNode::from_raw(0, 1)).unwrap();
        assert!(!map.reached_node_ids().contains(&NodeId(2)));
    }

    #[test]
    fn staircase_distances_alternate_static_and_causal_hops() {
        let n = 6;
        let g = staircase(n);
        let map = bfs(&g, TemporalNode::from_raw(0, 0)).unwrap();
        // Reaching node i at snapshot i-1 takes i static hops plus i-1 causal
        // hops = 2i - 1.
        for i in 1..n as u32 {
            let tn = TemporalNode::from_raw(i, i - 1);
            assert_eq!(map.distance(tn), Some(2 * i - 1), "node {i}");
        }
    }

    #[test]
    fn distance_is_not_symmetric() {
        let g = paper_figure1();
        let a = TemporalNode::from_raw(0, 0);
        let b = TemporalNode::from_raw(2, 2);
        assert_eq!(distance_between(&g, a, b).unwrap(), Some(3));
        // The reverse direction is not even a valid query from an active root
        // going backward in forward-BFS terms: (3,t3) has no forward
        // neighbors, so nothing but itself is reached.
        assert_eq!(distance_between(&g, b, a).unwrap(), None);
    }

    #[test]
    fn backward_bfs_inverts_forward_reachability() {
        let g = paper_figure1();
        let fwd = bfs(&g, TemporalNode::from_raw(0, 0)).unwrap();
        let bwd = backward_bfs(&g, TemporalNode::from_raw(2, 2)).unwrap();
        // (3,t3) is forward-reachable from (1,t1) iff (1,t1) is
        // backward-reachable from (3,t3).
        assert!(fwd.is_reached(TemporalNode::from_raw(2, 2)));
        assert!(bwd.is_reached(TemporalNode::from_raw(0, 0)));
        // And the distances agree because every temporal path reverses.
        assert_eq!(
            fwd.distance(TemporalNode::from_raw(2, 2)),
            bwd.distance(TemporalNode::from_raw(0, 0))
        );
    }

    #[test]
    fn reachable_set_excludes_root() {
        let g = paper_figure1();
        let set = reachable_set(&g, TemporalNode::from_raw(0, 0)).unwrap();
        assert_eq!(set.len(), 5);
        assert!(!set.contains(&TemporalNode::from_raw(0, 0)));
    }

    #[test]
    fn reach_profile_reports_one_entry_per_active_time() {
        let g = paper_figure1();
        let profile = reach_profile(&g, NodeId(0));
        assert_eq!(profile.len(), 2);
        assert_eq!(profile[0], (TimeIndex(0), 5));
        assert_eq!(profile[1], (TimeIndex(1), 2));
    }

    #[test]
    fn bfs_terminates_on_cyclic_snapshots() {
        // Theorem 3's cyclic case: the visited check prevents revisiting.
        let g = crate::examples::cyclic_example();
        let map = bfs(&g, TemporalNode::from_raw(0, 0)).unwrap();
        assert!(map.num_reached() >= 3);
    }

    #[test]
    fn shared_frontier_matches_per_source_minimum_on_paper_example() {
        let g = paper_figure1();
        let sources = g.active_nodes();
        let shared = multi_source_shared(&g, &sources).unwrap();
        // Theorem 1's oracle: per-source BFS on the equivalent static graph.
        let eq = crate::static_equiv::EquivalentStaticGraph::build(&g);
        let per_source: Vec<_> = sources
            .iter()
            .map(|&s| eq.bfs_distances_from(s).unwrap())
            .collect();
        for tn in g.active_nodes() {
            let oracle = per_source
                .iter()
                .enumerate()
                .filter_map(|(i, m)| m.iter().find(|&&(r, _)| r == tn).map(|&(_, d)| (d, i)))
                .min();
            assert_eq!(
                shared.distance(tn),
                oracle.map(|(d, _)| d),
                "distance at {tn:?}"
            );
            assert_eq!(
                shared.nearest_source_index(tn),
                oracle.map(|(_, i)| i),
                "attribution at {tn:?}"
            );
        }
    }

    #[test]
    fn shared_frontier_handles_duplicate_sources() {
        let g = paper_figure1();
        let a = TemporalNode::from_raw(0, 0);
        let shared = multi_source_shared(&g, &[a, a]).unwrap();
        let single = bfs(&g, a).unwrap();
        assert_eq!(shared.num_reached(), single.num_reached());
        // The first occurrence wins the attribution everywhere.
        for (tn, _, src) in shared.reached_with_sources() {
            assert_eq!(src, 0, "at {tn:?}");
        }
    }

    #[test]
    fn shared_frontier_rejects_bad_inputs() {
        let g = paper_figure1();
        assert!(matches!(
            multi_source_shared(&g, &[]).unwrap_err(),
            GraphError::NoSources
        ));
        assert!(matches!(
            multi_source_shared(&g, &[TemporalNode::from_raw(2, 0)]).unwrap_err(),
            GraphError::InactiveRoot { .. }
        ));
    }

    #[test]
    fn multi_source_runs_every_root() {
        let g = paper_figure1();
        let roots = g.active_nodes();
        let results = multi_source_bfs(&g, &roots);
        assert_eq!(results.len(), roots.len());
        for (root, res) in roots.iter().zip(&results) {
            let map = res.as_ref().unwrap();
            assert_eq!(map.root(), *root);
            assert_eq!(map.distance(*root), Some(0));
        }
    }

    #[test]
    fn undirected_bfs_traverses_edges_both_ways() {
        let mut g = crate::adjacency::AdjacencyListGraph::undirected_with_unit_times(3, 2);
        g.add_edge(NodeId(0), NodeId(1), TimeIndex(0)).unwrap();
        g.add_edge(NodeId(1), NodeId(2), TimeIndex(1)).unwrap();
        // Start from node 1's side of the first edge; the undirected static
        // edge lets us hop to node 0 too.
        let map = bfs(&g, TemporalNode::from_raw(1, 0)).unwrap();
        assert_eq!(map.distance(TemporalNode::from_raw(0, 0)), Some(1));
        assert_eq!(map.distance(TemporalNode::from_raw(1, 1)), Some(1));
        assert_eq!(map.distance(TemporalNode::from_raw(2, 1)), Some(2));
    }
}
