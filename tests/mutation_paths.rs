//! Coverage for the mutation paths the live append layer stresses:
//! `grow_nodes` after edges exist, `add_edge_unique` duplicate handling, and
//! appending snapshots/edges to a graph that has already been searched.

use evolving_graphs::prelude::*;

fn two_snapshot_graph() -> AdjacencyListGraph {
    let mut g = AdjacencyListGraph::directed_with_unit_times(4, 2);
    g.add_edge(NodeId(0), NodeId(1), TimeIndex(0)).unwrap();
    g.add_edge(NodeId(1), NodeId(2), TimeIndex(1)).unwrap();
    g
}

#[test]
fn grow_nodes_after_edges_preserves_structure_and_connects_everywhere() {
    let mut g = two_snapshot_graph();
    let before = g.edge_triples();
    g.grow_nodes(8);
    assert_eq!(g.num_nodes(), 8);
    // Existing adjacency, activity and edge counts are untouched.
    assert_eq!(g.edge_triples(), before);
    assert!(g.is_active(NodeId(1), TimeIndex(0)));
    assert!(!g.is_active(NodeId(7), TimeIndex(0)));
    // New nodes are connectable at *every existing* snapshot, not only new
    // ones — growth must have resized every per-snapshot adjacency row.
    g.add_edge(NodeId(7), NodeId(0), TimeIndex(0)).unwrap();
    g.add_edge(NodeId(2), NodeId(6), TimeIndex(1)).unwrap();
    assert!(g.is_active(NodeId(7), TimeIndex(0)));
    let map = Search::from(TemporalNode::from_raw(7, 0)).run(&g).unwrap();
    assert!(map.is_reached(TemporalNode::from_raw(2, 1)));
    // Growing to a smaller or equal size is a no-op.
    g.grow_nodes(3);
    assert_eq!(g.num_nodes(), 8);
}

#[test]
fn grow_nodes_after_edges_works_for_undirected_graphs_too() {
    let mut g = AdjacencyListGraph::undirected_with_unit_times(3, 2);
    g.add_edge(NodeId(0), NodeId(1), TimeIndex(0)).unwrap();
    g.grow_nodes(5);
    g.add_edge(NodeId(4), NodeId(0), TimeIndex(1)).unwrap();
    // Undirected symmetry holds for edges touching grown nodes.
    assert_eq!(g.in_slice(NodeId(4), TimeIndex(1)), &[NodeId(0)]);
    assert_eq!(g.out_slice(NodeId(4), TimeIndex(1)), &[NodeId(0)]);
    let map = Search::from(TemporalNode::from_raw(1, 0)).run(&g).unwrap();
    assert!(map.is_reached(TemporalNode::from_raw(4, 1)));
}

#[test]
fn add_edge_unique_handles_duplicates_per_direction_and_snapshot() {
    let mut g = AdjacencyListGraph::directed_with_unit_times(3, 2);
    assert!(g
        .add_edge_unique(NodeId(0), NodeId(1), TimeIndex(0))
        .unwrap());
    assert!(!g
        .add_edge_unique(NodeId(0), NodeId(1), TimeIndex(0))
        .unwrap());
    // The reversed pair is a *different* directed edge.
    assert!(g
        .add_edge_unique(NodeId(1), NodeId(0), TimeIndex(0))
        .unwrap());
    // The same pair at another snapshot is also distinct.
    assert!(g
        .add_edge_unique(NodeId(0), NodeId(1), TimeIndex(1))
        .unwrap());
    assert_eq!(g.num_static_edges(), 3);
}

#[test]
fn add_edge_unique_sees_undirected_edges_from_both_end_points() {
    let mut g = AdjacencyListGraph::undirected_with_unit_times(3, 1);
    assert!(g
        .add_edge_unique(NodeId(0), NodeId(1), TimeIndex(0))
        .unwrap());
    // Undirected: (1, 0) is the same edge and must be deduplicated.
    assert!(!g
        .add_edge_unique(NodeId(1), NodeId(0), TimeIndex(0))
        .unwrap());
    assert_eq!(g.num_static_edges(), 1);
}

#[test]
fn appending_to_a_searched_graph_only_extends_results() {
    let mut g = two_snapshot_graph();
    let root = TemporalNode::from_raw(0, 0);
    let before = Search::from(root).run(&g).unwrap();
    assert!(!before.reaches_node(NodeId(3)));

    // Append a snapshot and wire node 3 in; the earlier result object stays
    // coherent and a re-run extends strictly.
    let t = g.push_timestamp(2).unwrap();
    g.add_edge(NodeId(2), NodeId(3), t).unwrap();
    let after = Search::from(root).run(&g).unwrap();
    assert!(after.reaches_node(NodeId(3)));
    for (tn, d) in before.reached() {
        assert_eq!(
            after.distance(tn),
            Some(d),
            "appending snapshots must not change existing distances ({tn:?})"
        );
    }
    assert!(after.num_reached() > before.num_reached());
}

#[test]
fn appending_edges_to_an_existing_snapshot_can_change_past_results() {
    // Contrast case: Figure 5-style growth adds edges to *existing*
    // snapshots, which may create shortcuts — re-query semantics, no
    // monotone-extension guarantee. The query cache treats this as
    // impossible by construction (LiveGraph seals snapshots), but the raw
    // mutation path remains available and must stay consistent.
    let mut g = two_snapshot_graph();
    let root = TemporalNode::from_raw(0, 0);
    let before = Search::from(root).run(&g).unwrap();
    assert_eq!(before.distance(TemporalNode::from_raw(2, 1)), Some(3));
    g.add_edge(NodeId(0), NodeId(2), TimeIndex(0)).unwrap();
    let after = Search::from(root).run(&g).unwrap();
    assert_eq!(after.distance(TemporalNode::from_raw(2, 0)), Some(1));
    assert_eq!(after.distance(TemporalNode::from_raw(2, 1)), Some(2));
}

#[test]
fn interleaved_growth_timestamps_and_searches_stay_consistent() {
    let mut g = AdjacencyListGraph::directed(2, vec![0]).unwrap();
    g.add_edge(NodeId(0), NodeId(1), TimeIndex(0)).unwrap();
    for step in 1..5u32 {
        let t = g.push_timestamp(step as i64).unwrap();
        g.grow_nodes(2 + step as usize);
        g.add_edge(NodeId(step), NodeId(step + 1), t).unwrap();
        let result = Search::from(TemporalNode::from_raw(0, 0)).run(&g).unwrap();
        let map = result.distance_map();
        // The chain grows by one node per snapshot, every prefix reachable.
        assert!(map.is_reached(TemporalNode::from_raw(step + 1, step)));
        assert_eq!(map.num_timestamps(), step as usize + 1);
        assert_eq!(map.num_nodes(), 2 + step as usize);
    }
}
