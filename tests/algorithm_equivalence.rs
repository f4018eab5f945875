//! Property-style tests of Theorems 1 and 4 on seeded random graphs: the
//! hop strategies, Algorithm 2 on the dense `A_n` and classical BFS on the
//! Theorem 1 equivalent static graph all give the oracle's distances, and
//! backward search is forward search read the other way in time.
//!
//! The build environment has no proptest, so the suite drives the same
//! properties with a deterministic seeded generator: every case is
//! reproducible from its trial index.

mod common;

use common::oracle;
use evolving_graphs::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const TRIALS: u64 = 64;

/// A seeded instance: 2–13 nodes, 1–4 snapshots, up to 60 directed edges
/// without self-loops.
fn random_graph(seed: u64) -> AdjacencyListGraph {
    let mut rng = SmallRng::seed_from_u64(0xA1B2_0000 ^ seed);
    let n = rng.gen_range(2usize..14);
    let t = rng.gen_range(1usize..5);
    let num_edges = rng.gen_range(0usize..60);
    let mut g = AdjacencyListGraph::directed_with_unit_times(n, t);
    for _ in 0..num_edges {
        let u = rng.gen_range(0..n as u32);
        let v = rng.gen_range(0..n as u32);
        let time = rng.gen_range(0..t as u32);
        if u != v {
            g.add_edge(NodeId(u), NodeId(v), TimeIndex(time)).unwrap();
        }
    }
    g
}

/// Theorem 4: the hop strategies and Algorithm 2 on the dense `A_n`, which
/// is no `Strategy`, give the oracle's distances from every root.
#[test]
fn all_bfs_engines_agree() {
    for trial in 0..TRIALS {
        let g = random_graph(trial);
        for &root in &g.active_nodes() {
            let want = oracle::bfs(&g, root, Direction::Forward, false).unwrap();
            let dense = algebraic_bfs_dense(&g, root).unwrap();
            assert_eq!(dense.as_flat_slice(), want.as_flat_slice(), "trial {trial}");
            for strategy in [Strategy::Serial, Strategy::Parallel, Strategy::Algebraic] {
                let got = Search::from(root).strategy(strategy).run(&g).unwrap();
                let got = got.distance_map().as_flat_slice().to_vec();
                assert_eq!(got, want.as_flat_slice(), "trial {trial}, {strategy:?}");
            }
        }
    }
}

/// Theorem 1: search on the evolving graph equals classical BFS on the
/// equivalent static graph, for every active root.
#[test]
fn evolving_bfs_equals_static_bfs() {
    for trial in 0..TRIALS {
        let g = random_graph(trial);
        let eq = EquivalentStaticGraph::build(&g);
        for &root in &g.active_nodes() {
            let evolving = Search::from(root).run(&g).unwrap();
            let on_static = eq.bfs_distances_from(root).unwrap();
            assert_eq!(on_static.len(), evolving.num_reached(), "trial {trial}");
            for (tn, d) in on_static {
                assert_eq!(evolving.distance(tn), Some(d), "trial {trial}, {tn:?}");
            }
        }
    }
}

/// The dense `A_n` built by the matrix crate has exactly the edges of the
/// Theorem 1 static graph.
#[test]
fn block_matrix_matches_equivalent_graph() {
    for trial in 0..TRIALS {
        let g = random_graph(trial);
        let eq = EquivalentStaticGraph::build(&g);
        let (an, labels) = BlockAdjacency::from_graph(&g).to_dense_an();
        assert_eq!(labels.as_slice(), eq.temporal_nodes(), "trial {trial}");
        for i in 0..labels.len() {
            for j in 0..labels.len() {
                assert_eq!(
                    an.get(i, j) != 0.0,
                    eq.static_graph().has_edge(i, j),
                    "trial {trial}, entry ({i}, {j})"
                );
            }
        }
    }
}

/// Matrix-power walk counts equal the graph-side dynamic program.
#[test]
fn walk_counts_agree() {
    for trial in 0..TRIALS {
        let g = random_graph(trial);
        let hops = (trial % 4) as usize;
        if let Some(&root) = g.active_nodes().first() {
            let via_matrix = matrix_walk_counts(&g, root, hops);
            let via_dp: Vec<f64> = walk_count_vector(&g, root, hops)
                .iter()
                .map(|&x| x as f64)
                .collect();
            assert_eq!(via_matrix, via_dp, "trial {trial}, hops {hops}");
        }
    }
}

/// The backward search from b reaches a iff the forward search from a
/// reaches b, with the same distance.
#[test]
fn forward_backward_duality() {
    for trial in 0..TRIALS {
        let g = random_graph(trial);
        let actives = g.active_nodes();
        for &a in actives.iter().take(4) {
            let fwd = Search::from(a).run(&g).unwrap();
            for &b in actives.iter().take(4) {
                let bwd = Search::from(b).backward().run(&g).unwrap();
                assert_eq!(
                    fwd.distance(b),
                    bwd.distance(a),
                    "trial {trial}, a = {a:?}, b = {b:?}"
                );
            }
        }
    }
}

/// A forward search on the time-reversed view equals the oracle's search
/// over backward neighbours of the original graph, which builds no view.
#[test]
fn reversed_view_duality() {
    for trial in 0..TRIALS {
        let g = random_graph(trial);
        let view = ReversedView::new(&g);
        for &root in g.active_nodes().iter().take(4) {
            let bwd = oracle::bfs(&g, root, Direction::Backward, false).unwrap();
            let fwd = Search::from(view.map_temporal(root)).run(&view).unwrap();
            assert_eq!(bwd.num_reached(), fwd.num_reached(), "trial {trial}");
            for (tn, d) in bwd.reached() {
                assert_eq!(
                    fwd.distance(view.map_temporal(tn)),
                    Some(d),
                    "trial {trial}, {tn:?}"
                );
            }
        }
    }
}
