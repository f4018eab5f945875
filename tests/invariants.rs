//! Property-style tests of the structural invariants behind the paper's
//! definitions: every BFS distance is witnessed by a valid temporal path,
//! activeness gates reachability, acyclic snapshots give nilpotent block
//! matrices, incremental construction equals batch construction, and the
//! serialisation formats round-trip.
//!
//! The build environment has no proptest, so the suite drives the same
//! properties with a deterministic seeded generator: every case is
//! reproducible from its trial index.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use evolving_graphs::io::{graph_from_json, graph_to_json, read_edge_list, to_edge_list_string};
use evolving_graphs::prelude::*;
use evolving_graphs::query::codec::{search_result_from_json, search_result_to_json};

const TRIALS: u64 = 64;

/// Deterministic random edge set for one trial: 2–11 nodes, 1–4 snapshots,
/// up to 50 directed edges (self-loops excluded).
fn random_edges(seed: u64) -> (usize, usize, Vec<(u32, u32, u32)>) {
    let mut rng = SmallRng::seed_from_u64(0x1A7B_4000 ^ seed);
    let n = rng.gen_range(2usize..12);
    let t = rng.gen_range(1usize..5);
    let num_edges = rng.gen_range(0usize..50);
    let mut edges = Vec::with_capacity(num_edges);
    for _ in 0..num_edges {
        let u = rng.gen_range(0..n as u32);
        let v = rng.gen_range(0..n as u32);
        let time = rng.gen_range(0..t as u32);
        if u != v {
            edges.push((u, v, time));
        }
    }
    (n, t, edges)
}

fn build(n: usize, t: usize, edges: &[(u32, u32, u32)]) -> AdjacencyListGraph {
    AdjacencyListGraph::from_indexed_edges(n, t, edges).unwrap()
}

/// Every reached temporal node has a BFS-tree path that (a) is a valid
/// temporal path per Definition 4 and (b) has exactly `distance + 1` nodes;
/// and distance-1 nodes are exactly the root's forward neighbors.
#[test]
fn bfs_distances_are_witnessed_by_temporal_paths() {
    for trial in 0..TRIALS {
        let (n, t, edges) = random_edges(trial);
        let g = build(n, t, &edges);
        if let Some(&root) = g.active_nodes().first() {
            let map = Search::from(root).with_parents().run(&g).unwrap();
            for (tn, d) in map.reached() {
                let path = map.path_to(tn).unwrap();
                assert_eq!(path.len() as u32, d + 1, "trial {trial}");
                assert!(
                    is_temporal_path(&g, &path),
                    "trial {trial}: invalid path {path:?}"
                );
            }
            let mut layer1 = map.distance_map().layer(1);
            layer1.sort();
            let mut fwd: Vec<TemporalNode> = g.forward_neighbors(root);
            fwd.sort();
            fwd.dedup();
            assert_eq!(layer1, fwd, "trial {trial}");
        }
    }
}

/// Reachability respects activeness and time ordering: nothing strictly
/// earlier than the root is ever reached, and inactive temporal nodes are
/// never reached.
#[test]
fn reached_nodes_are_active_and_not_earlier() {
    for trial in 0..TRIALS {
        let (n, t, edges) = random_edges(trial);
        let g = build(n, t, &edges);
        for &root in g.active_nodes().iter().take(4) {
            let map = Search::from(root).run(&g).unwrap();
            for (tn, _) in map.reached() {
                assert!(g.is_active(tn.node, tn.time), "trial {trial}, {tn:?}");
                assert!(tn.time >= root.time, "trial {trial}, {tn:?}");
            }
        }
    }
}

/// BFS layers are monotone: a node at distance k+1 has some in-neighbor (in
/// the forward-neighbor relation) at distance k.
#[test]
fn bfs_layers_are_consistent() {
    for trial in 0..TRIALS {
        let (n, t, edges) = random_edges(trial);
        let g = build(n, t, &edges);
        if let Some(&root) = g.active_nodes().first() {
            let map = Search::from(root).run(&g).unwrap();
            for (tn, d) in map.reached() {
                if d == 0 {
                    continue;
                }
                let found = g
                    .backward_neighbors(tn)
                    .iter()
                    .any(|&p| map.distance(p) == Some(d - 1));
                assert!(
                    found,
                    "trial {trial}: node {tn:?} at distance {d} has no predecessor"
                );
            }
        }
    }
}

/// Lemma 1: acyclic snapshots ⇒ nilpotent block adjacency matrix; and the
/// algebraic BFS terminates with the same result as Algorithm 1.
#[test]
fn lemma1_nilpotency_on_acyclic_graphs() {
    for trial in 0..TRIALS {
        let (n, t, edges) = random_edges(trial);
        // Orient every edge from the lower to the higher node id, so every
        // snapshot is a DAG (the hypothesis of Lemma 1).
        let dag_edges: Vec<(u32, u32, u32)> = edges
            .into_iter()
            .map(|(u, v, time)| if u < v { (u, v, time) } else { (v, u, time) })
            .collect();
        let g = build(n, t, &dag_edges);
        let (acyclic, nilpotent) = lemma1_check(&g);
        assert!(acyclic, "trial {trial}");
        assert!(nilpotent, "trial {trial}");
    }
}

/// Incremental insertion and batch construction produce identical graphs
/// (same activeness, edges and BFS results).
#[test]
fn incremental_equals_batch_construction() {
    for trial in 0..TRIALS {
        let (n, t, edges) = random_edges(trial);
        let batch = AdjacencyListGraph::from_indexed_edges(n, t, &edges).unwrap();
        let mut incremental = AdjacencyListGraph::directed_with_unit_times(n, t);
        for &(u, v, time) in &edges {
            incremental
                .add_edge(NodeId(u), NodeId(v), TimeIndex(time))
                .unwrap();
        }
        assert_eq!(batch.edge_triples(), incremental.edge_triples());
        assert_eq!(batch.active_nodes(), incremental.active_nodes());
        if let Some(&root) = incremental.active_nodes().first() {
            let search = Search::from(root);
            let (a, b) = (
                search.run(&batch).unwrap(),
                search.run(&incremental).unwrap(),
            );
            assert_eq!(a.reached(), b.reached(), "trial {trial}");
        }
    }
}

/// The adjacency-list storage (built incrementally) and the CSR storage
/// flattened from it (served) agree.
#[test]
fn representations_agree() {
    for trial in 0..TRIALS {
        let (n, t, edges) = random_edges(trial);
        let adj = AdjacencyListGraph::from_indexed_edges(n, t, &edges).unwrap();
        let csr = CsrAdjacency::from_graph(&adj);
        assert_eq!(adj.num_static_edges(), csr.num_static_edges());
        assert_eq!(adj.active_nodes(), csr.active_nodes());
        if let Some(&root) = adj.active_nodes().first() {
            let search = Search::from(root);
            let (a, b) = (search.run(&adj).unwrap(), search.run(&csr).unwrap());
            assert_eq!(a.reached(), b.reached(), "trial {trial}");
        }
    }
}

/// Edge-list and JSON serialisation round-trip graphs and BFS results.
#[test]
fn serialisation_round_trips() {
    for trial in 0..TRIALS {
        let (n, t, edges) = random_edges(trial);
        let g = build(n, t, &edges);
        // Skip graphs with no edges: the inferred universe of an empty edge
        // list is legitimately empty.
        if g.num_static_edges() == 0 {
            continue;
        }

        let text = to_edge_list_string(&g);
        let from_text = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(from_text.num_static_edges(), g.num_static_edges());

        let json = graph_to_json(&g).unwrap();
        let from_json = graph_from_json(&json).unwrap();
        assert_eq!(from_json.edge_triples(), g.edge_triples(), "trial {trial}");

        if let Some(&root) = g.active_nodes().first() {
            let result = Search::from(root).run(&g).unwrap();
            let map = result.distance_map();
            let round = search_result_from_json(&search_result_to_json(&result)).unwrap();
            let round = round.distance_map();
            assert_eq!(round.as_flat_slice(), map.as_flat_slice(), "trial {trial}");
        }
    }
}

/// The time-window view starting at the root's snapshot reproduces the full
/// BFS (Section II-C's "earlier snapshots are irrelevant").
#[test]
fn suffix_window_is_equivalent() {
    for trial in 0..TRIALS {
        let (n, t, edges) = random_edges(trial);
        let g = build(n, t, &edges);
        for &root in g.active_nodes().iter().take(3) {
            let full = Search::from(root).run(&g).unwrap();
            let w = TimeWindowView::from_start(&g, root.time).unwrap();
            let wroot = w.to_window_temporal(root).unwrap();
            let windowed = Search::from(wroot).run(&w).unwrap();
            assert_eq!(full.num_reached(), windowed.num_reached(), "trial {trial}");
            for (tn, d) in windowed.reached() {
                assert_eq!(
                    full.distance(w.to_inner_temporal(tn)),
                    Some(d),
                    "trial {trial}"
                );
            }
        }
    }
}
