//! Property-style tests of Theorems 1 and 4: on arbitrary evolving graphs,
//! Algorithm 1, Algorithm 2 (blocked and dense), the frontier-parallel BFS
//! and classical BFS on the Theorem 1 equivalent static graph all compute
//! the same distances.
//!
//! The build environment has no proptest, so the suite drives the same
//! properties with a deterministic seeded generator: every case is
//! reproducible from its trial index.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use evolving_graphs::prelude::*;

const TRIALS: u64 = 64;

/// Deterministic random instance for one trial: 2–13 nodes, 1–4 snapshots,
/// up to 60 directed edges with self-loops dropped.
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

/// Theorem 4 + the parallel variant: all four BFS engines agree.
#[test]
fn all_bfs_engines_agree() {
    for trial in 0..TRIALS {
        let g = random_graph(trial);
        for &root in &g.active_nodes() {
            let alg1 = bfs(&g, root).unwrap();
            let alg2 = algebraic_bfs(&g, root).unwrap();
            let dense = algebraic_bfs_dense(&g, root).unwrap();
            let parallel = Search::from(root)
                .strategy(Strategy::Parallel)
                .run(&g)
                .unwrap();
            let parallel = parallel.distance_map();
            assert_eq!(alg1.as_flat_slice(), alg2.as_flat_slice(), "trial {trial}");
            assert_eq!(alg1.as_flat_slice(), dense.as_flat_slice(), "trial {trial}");
            assert_eq!(
                alg1.as_flat_slice(),
                parallel.as_flat_slice(),
                "trial {trial}"
            );
        }
    }
}

/// Theorem 1: BFS on the evolving graph equals classical BFS on the
/// equivalent static graph, for every active root.
#[test]
fn evolving_bfs_equals_static_bfs() {
    for trial in 0..TRIALS {
        let g = random_graph(trial);
        let eq = EquivalentStaticGraph::build(&g);
        for &root in &g.active_nodes() {
            let evolving = bfs(&g, root).unwrap();
            let on_static = eq.bfs_distances_from(root).unwrap();
            assert_eq!(on_static.len(), evolving.num_reached(), "trial {trial}");
            for (tn, d) in on_static {
                assert_eq!(evolving.distance(tn), Some(d), "trial {trial}, {tn:?}");
            }
        }
    }
}

/// The dense A_n built by the matrix crate has exactly the edges of the
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
        let actives = g.active_nodes();
        if let Some(&root) = actives.first() {
            let via_matrix = matrix_walk_counts(&g, root, hops);
            let via_dp: Vec<f64> = walk_count_vector(&g, root, hops)
                .iter()
                .map(|&x| x as f64)
                .collect();
            assert_eq!(via_matrix, via_dp, "trial {trial}, hops {hops}");
        }
    }
}

/// The backward BFS from b reaches a iff the forward BFS from a reaches b,
/// with the same distance.
#[test]
fn forward_backward_duality() {
    for trial in 0..TRIALS {
        let g = random_graph(trial);
        let actives = g.active_nodes();
        for &a in actives.iter().take(4) {
            let fwd = bfs(&g, a).unwrap();
            for &b in actives.iter().take(4) {
                let bwd = backward_bfs(&g, b).unwrap();
                assert_eq!(
                    fwd.distance(b),
                    bwd.distance(a),
                    "trial {trial}, a = {a:?}, b = {b:?}"
                );
            }
        }
    }
}

/// A forward BFS on the time-reversed view equals a backward BFS on the
/// original graph.
#[test]
fn reversed_view_duality() {
    for trial in 0..TRIALS {
        let g = random_graph(trial);
        let view = ReversedView::new(&g);
        let actives = g.active_nodes();
        for &root in actives.iter().take(4) {
            let bwd = backward_bfs(&g, root).unwrap();
            let mapped_root = view.map_temporal(root);
            let fwd = bfs(&view, mapped_root).unwrap();
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
