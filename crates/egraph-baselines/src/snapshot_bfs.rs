//! Baseline: per-snapshot static BFS with no cross-time traversal.
//!
//! The opposite failure mode to the flattened baseline: treat each snapshot
//! as an isolated static graph and never follow causal edges. This
//! *under-approximates* temporal reachability — it finds only the nodes
//! reachable within the root's own snapshot — and corresponds to what a
//! conventional static-graph library computes when handed one snapshot at a
//! time. The paper's whole point is that the causal edges this baseline
//! drops are what make the evolving-graph BFS correct.

use egraph_core::graph::EvolvingGraph;
use egraph_core::ids::{NodeId, TemporalNode, TimeIndex};
use egraph_core::static_graph::StaticGraph;

/// The static graph of a single snapshot.
pub fn snapshot_graph<G: EvolvingGraph>(graph: &G, t: TimeIndex) -> StaticGraph {
    let mut s = StaticGraph::new(graph.num_nodes());
    for v in 0..graph.num_nodes() {
        let v_id = NodeId::from_index(v);
        graph.for_each_static_out(v_id, t, &mut |w| {
            s.add_edge(v, w.index());
        });
    }
    s
}

/// BFS restricted to the root's snapshot: distances to nodes within snapshot
/// `root.time`, ignoring every other snapshot and every causal edge.
pub fn snapshot_bfs<G: EvolvingGraph>(graph: &G, root: TemporalNode) -> Vec<(NodeId, u32)> {
    let s = snapshot_graph(graph, root.time);
    s.bfs_distances(root.node.index())
        .iter()
        .enumerate()
        .filter(|&(_, &d)| d != u32::MAX)
        .map(|(v, &d)| (NodeId::from_index(v), d))
        .collect()
}

/// Temporal nodes reachable by the full evolving-graph BFS but invisible to
/// the per-snapshot baseline — the traversals that require causal edges.
pub fn missed_by_snapshot_bfs<G: EvolvingGraph>(
    graph: &G,
    root: TemporalNode,
) -> Vec<TemporalNode> {
    let Ok(full) = egraph_core::kernel::distances(graph, root, false, usize::MAX) else {
        return Vec::new();
    };
    let within: Vec<NodeId> = snapshot_bfs(graph, root)
        .into_iter()
        .map(|(v, _)| v)
        .collect();
    full.reached()
        .into_iter()
        .map(|(tn, _)| tn)
        .filter(|tn| tn.time != root.time || !within.contains(&tn.node))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use egraph_core::examples::paper_figure1;

    #[test]
    fn snapshot_graph_contains_only_that_snapshots_edges() {
        let g = paper_figure1();
        let s0 = snapshot_graph(&g, TimeIndex(0));
        assert!(s0.has_edge(0, 1));
        assert!(!s0.has_edge(0, 2));
        assert_eq!(s0.num_edges(), 1);
    }

    #[test]
    fn snapshot_bfs_sees_only_the_current_snapshot() {
        let g = paper_figure1();
        let within = snapshot_bfs(&g, TemporalNode::from_raw(0, 0));
        // From node 1 at t1 only node 2 is reachable within t1.
        assert_eq!(within, vec![(NodeId(0), 0), (NodeId(1), 1)]);
    }

    #[test]
    fn causal_edges_account_for_everything_the_baseline_misses() {
        let g = paper_figure1();
        let missed = missed_by_snapshot_bfs(&g, TemporalNode::from_raw(0, 0));
        // The full BFS reaches 6 temporal nodes; the snapshot baseline covers
        // the two t1 occurrences, so four are missed.
        assert_eq!(missed.len(), 4);
        assert!(missed.contains(&TemporalNode::from_raw(2, 2)));
        assert!(missed.iter().all(|tn| tn.time != TimeIndex(0)));
    }

    #[test]
    fn missed_set_is_empty_for_single_snapshot_graphs() {
        let mut g = egraph_core::adjacency::AdjacencyListGraph::directed_with_unit_times(3, 1);
        g.add_edge(NodeId(0), NodeId(1), TimeIndex(0)).unwrap();
        g.add_edge(NodeId(1), NodeId(2), TimeIndex(0)).unwrap();
        assert!(missed_by_snapshot_bfs(&g, TemporalNode::from_raw(0, 0)).is_empty());
    }
}
