//! End-to-end reproduction of the paper's worked examples (Figures 1–4 and
//! the Section III matrices), exercising the public API of the umbrella
//! crate the way a reader following the paper would.

use evolving_graphs::prelude::*;

fn tn(v: u32, t: u32) -> TemporalNode {
    TemporalNode::from_raw(v, t)
}

/// Figure 1 / Section II-A: the example graph, its active and inactive
/// temporal nodes, and its forward neighbors.
#[test]
fn figure1_active_nodes_and_forward_neighbors() {
    let g = evolving_graphs::core::examples::paper_figure1();

    assert_eq!(g.num_active_nodes(), 6);
    // Paper: (1,t1) and (2,t2)... — (2, t2) is listed as active in the text
    // but the figure shows it inactive; the edge list makes it inactive.
    assert!(g.is_active(NodeId(0), TimeIndex(0)));
    assert!(!g.is_active(NodeId(2), TimeIndex(0)));

    // "the forward neighbors of (1, t1) are (2, t1) and (1, t2)"
    let mut fwd = g.forward_neighbors(tn(0, 0));
    fwd.sort();
    let mut expected = vec![tn(1, 0), tn(0, 1)];
    expected.sort();
    assert_eq!(fwd, expected);

    // "the only forward neighbor of (2, t1) is (2, t3)"
    assert_eq!(g.forward_neighbors(tn(1, 0)), vec![tn(1, 2)]);
}

/// Figure 2: exactly two temporal paths of length 4 from (1,t1) to (3,t3),
/// and the specific invalid sequence through the inactive (2,t2).
#[test]
fn figure2_temporal_paths() {
    let g = evolving_graphs::core::examples::paper_figure1();
    let paths = enumerate_paths(&g, tn(0, 0), tn(2, 2), 4);
    assert_eq!(paths.len(), 2);

    let expected_a = vec![tn(0, 0), tn(0, 1), tn(2, 1), tn(2, 2)];
    let expected_b = vec![tn(0, 0), tn(1, 0), tn(1, 2), tn(2, 2)];
    assert!(paths.contains(&expected_a));
    assert!(paths.contains(&expected_b));

    // The sequence through (2, t2) is not a temporal path.
    assert!(!is_temporal_path(
        &g,
        &[tn(0, 0), tn(0, 1), tn(1, 1), tn(2, 1), tn(2, 2)]
    ));
}

/// Figure 3: the BFS trace from root (1, t2) — t1 plays no part.
#[test]
fn figure3_bfs_trace_from_1_t2() {
    let g = evolving_graphs::core::examples::paper_figure1();
    let result = Search::from(tn(0, 1)).run(&g).unwrap();
    let map = result.distance_map();
    assert_eq!(map.layer(0), vec![tn(0, 1)]);
    assert_eq!(map.layer(1), vec![tn(2, 1)]);
    assert_eq!(map.layer(2), vec![tn(2, 2)]);
    assert!(map.layer(3).is_empty());
    assert!(!map.is_reached(tn(0, 0)));
    assert!(!map.is_reached(tn(1, 0)));

    // Section II-C: BFS from (v, t') ignores all snapshots before t', so the
    // suffix window gives the same answer.
    let w = TimeWindowView::from_start(&g, TimeIndex(1)).unwrap();
    let windowed = Search::from(tn(0, 0)).run(&w).unwrap();
    assert_eq!(windowed.num_reached(), map.num_reached());
}

/// Theorem 1: BFS on the evolving graph equals BFS on the equivalent static
/// graph (V = active nodes, E = static ∪ causal edges).
#[test]
fn theorem1_equivalence_with_static_graph() {
    let g = evolving_graphs::core::examples::paper_figure1();
    let eq = EquivalentStaticGraph::build(&g);
    assert_eq!(eq.num_nodes(), 6);
    assert_eq!(eq.num_edges(), 6);

    for &root in &g.active_nodes() {
        let evolving = Search::from(root).run(&g).unwrap();
        let on_static = eq.bfs_distances_from(root).unwrap();
        assert_eq!(on_static.len(), evolving.num_reached());
        for (node, d) in on_static {
            assert_eq!(evolving.distance(node), Some(d));
        }
    }
}

/// Figure 4 / Section III-C: the A3 matrix, the causal block M[t1,t2] of
/// Equation (4), the iterate sequence and the final path count of 2.
#[test]
fn figure4_block_matrices_and_power_iteration() {
    let g = evolving_graphs::core::examples::paper_figure1();
    let blocks = BlockAdjacency::from_graph(&g);

    // Equation (4).
    let m12 = blocks.causal_block(TimeIndex(0), TimeIndex(1));
    assert_eq!(m12.get(0, 0), 1.0);
    assert_eq!(m12.count_nonzeros(), 1);

    // A3 as printed in the paper (time-major active-node ordering).
    let (an, labels) = blocks.to_dense_an();
    let expected = DenseMatrix::from_ones(6, 6, &[(0, 1), (0, 2), (2, 3), (1, 4), (3, 5), (4, 5)]);
    assert_eq!(an, expected);
    assert_eq!(labels.len(), 6);

    // The printed iterate sequence.
    let (_, iterates) = iterate_sequence(&g, tn(0, 0), 4);
    assert_eq!(iterates[3], vec![0.0, 0.0, 0.0, 0.0, 0.0, 2.0]);
    assert_eq!(iterates[4], vec![0.0; 6]);

    // (A3ᵀ)³ counts the two temporal paths.
    assert_eq!(total_path_count(&g, tn(0, 0), tn(2, 2)), 2.0);

    // Lemma 1: the snapshots are acyclic, so A3 is nilpotent.
    let (acyclic, nilpotent) = lemma1_check(&g);
    assert!(acyclic && nilpotent);
}

/// Algorithms 1 and 2 (both engines) and the parallel variant agree on every
/// root of the example (Theorem 4).
#[test]
fn theorem4_algorithm_equivalence_on_the_example() {
    let g = evolving_graphs::core::examples::paper_figure1();
    for &root in &g.active_nodes() {
        let alg1 = Search::from(root).run(&g).unwrap();
        let alg1 = alg1.distance_map();
        let alg2 = algebraic_bfs(&g, root).unwrap();
        let alg2_dense = algebraic_bfs_dense(&g, root).unwrap();
        let parallel = Search::from(root)
            .strategy(Strategy::Parallel)
            .run(&g)
            .unwrap();
        let parallel = parallel.distance_map();
        assert_eq!(alg1.as_flat_slice(), alg2.as_flat_slice());
        assert_eq!(alg1.as_flat_slice(), alg2_dense.as_flat_slice());
        assert_eq!(alg1.as_flat_slice(), parallel.as_flat_slice());
    }
}

/// The introduction's message-passing game: time ordering decides whether
/// player 3 can collect message a.
#[test]
fn introduction_game_reachability() {
    let good = evolving_graphs::core::examples::introduction_game(true);
    let bad = evolving_graphs::core::examples::introduction_game(false);

    let root = |g: &AdjacencyListGraph| {
        let t = g.active_times(NodeId(0))[0];
        TemporalNode::new(NodeId(0), t)
    };

    let reach_good = Search::from(root(&good)).run(&good).unwrap();
    assert!(reach_good.reached_node_ids().contains(&NodeId(2)));

    let reach_bad = Search::from(root(&bad)).run(&bad).unwrap();
    assert!(!reach_bad.reached_node_ids().contains(&NodeId(2)));
}
