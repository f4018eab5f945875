//! Baseline: BFS on the time-flattened union graph.
//!
//! A tempting shortcut when handed an evolving graph is to forget time
//! entirely: union all snapshots into one static graph over the node
//! universe and run ordinary BFS. This ignores both causality (paths may use
//! an early edge after a late one) and activeness, so it *over-approximates*
//! temporal reachability: everything temporally reachable is flat-reachable,
//! but not vice versa (the introduction's message-passing game is exactly a
//! case where flat reachability says "yes" and temporal reachability says
//! "no"). The baseline exists to quantify that gap and to serve as a
//! performance yardstick in the ablation benchmarks.

use egraph_core::graph::EvolvingGraph;
use egraph_core::ids::{NodeId, TimeIndex};
use egraph_core::static_graph::StaticGraph;

/// The union static graph: one node per node-universe entry, one directed
/// edge `(u, v)` if the static edge exists at *any* snapshot.
pub fn flatten<G: EvolvingGraph>(graph: &G) -> StaticGraph {
    let mut flat = StaticGraph::new(graph.num_nodes());
    for t in 0..graph.num_timestamps() {
        let ti = TimeIndex::from_index(t);
        for v in 0..graph.num_nodes() {
            let v_id = NodeId::from_index(v);
            graph.for_each_static_out(v_id, ti, &mut |w| {
                flat.add_edge_unique(v, w.index());
            });
        }
    }
    flat
}

/// Node-level reachability according to the flattened graph: the set of
/// nodes reachable from `src` ignoring time.
pub fn flat_reachable_nodes<G: EvolvingGraph>(graph: &G, src: NodeId) -> Vec<NodeId> {
    let flat = flatten(graph);
    flat.bfs_distances(src.index())
        .iter()
        .enumerate()
        .filter(|&(_, &d)| d != u32::MAX)
        .map(|(v, _)| NodeId::from_index(v))
        .collect()
}

/// Node-level reachability according to the *temporal* semantics: the set of
/// nodes reachable from any active occurrence of `src` by a temporal path.
pub fn temporal_reachable_nodes<G: EvolvingGraph>(graph: &G, src: NodeId) -> Vec<NodeId> {
    let mut reachable = vec![false; graph.num_nodes()];
    reachable[src.index()] = true;
    for t in graph.active_times(src) {
        let root = egraph_core::ids::TemporalNode::new(src, t);
        if let Ok(map) = egraph_core::kernel::distances(graph, root, false, usize::MAX) {
            for v in map.reached_node_ids() {
                reachable[v.index()] = true;
            }
        }
    }
    reachable
        .iter()
        .enumerate()
        .filter(|(_, &r)| r)
        .map(|(v, _)| NodeId::from_index(v))
        .collect()
}

/// Nodes the flat baseline claims are reachable from `src` but that no
/// temporal path actually reaches — the baseline's false positives.
pub fn flat_false_positives<G: EvolvingGraph>(graph: &G, src: NodeId) -> Vec<NodeId> {
    let temporal = temporal_reachable_nodes(graph, src);
    flat_reachable_nodes(graph, src)
        .into_iter()
        .filter(|v| !temporal.contains(v))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use egraph_core::examples::{introduction_game, paper_figure1};

    #[test]
    fn flattening_unions_all_snapshots() {
        let g = paper_figure1();
        let flat = flatten(&g);
        assert_eq!(flat.num_edges(), 3);
        assert!(flat.has_edge(0, 1));
        assert!(flat.has_edge(0, 2));
        assert!(flat.has_edge(1, 2));
    }

    #[test]
    fn temporal_reachability_is_a_subset_of_flat_reachability() {
        let g = paper_figure1();
        for v in 0..3u32 {
            let flat = flat_reachable_nodes(&g, NodeId(v));
            for t in temporal_reachable_nodes(&g, NodeId(v)) {
                assert!(flat.contains(&t), "node {t:?} temporal but not flat");
            }
        }
    }

    #[test]
    fn message_game_exposes_the_flat_baselines_false_positive() {
        // When 2 talks to 3 *before* 1 talks to 2, player 3 can never get
        // message a — but the flattened graph still has the path 1 → 2 → 3.
        let bad = introduction_game(false);
        let false_positives = flat_false_positives(&bad, NodeId(0));
        assert!(
            false_positives.contains(&NodeId(2)),
            "flat BFS should wrongly claim player 3 is reachable"
        );
        // With the right ordering there is no discrepancy for player 1.
        let good = introduction_game(true);
        assert!(flat_false_positives(&good, NodeId(0)).is_empty());
    }

    #[test]
    fn flat_and_temporal_agree_on_the_paper_example_roots() {
        // The Figure 1 graph happens to have no false positives from node 1
        // because every flat path is realisable in time order.
        let g = paper_figure1();
        assert!(flat_false_positives(&g, NodeId(0)).is_empty());
    }
}
