//! Uniform random evolving graphs — the workload of the paper's Figure 5.
//!
//! The linear-scaling experiment of Section IV generates "a sequence of
//! random (directed) `IntEvolvingGraph`s with 10⁵ active nodes and 10 time
//! stamps", starting at roughly 10⁸ static edges and consecutively adding
//! more random static edges. The essential shape is: a fixed node universe,
//! a fixed set of snapshots, and a target number of uniformly random
//! `(src, dst, time)` edges. [`uniform_random_graph`] reproduces that shape
//! at a configurable scale; [`extend_with_random_edges`] performs the
//! "consecutively add new random static edges" step used both by Figure 5
//! and by the incremental-update ablation.

use egraph_core::adjacency::AdjacencyListGraph;
use egraph_core::ids::{NodeId, TimeIndex};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Parameters of a uniform random evolving graph.
#[derive(Clone, Debug)]
pub struct UniformRandomConfig {
    /// Size of the node universe.
    pub num_nodes: usize,
    /// Number of snapshots.
    pub num_timestamps: usize,
    /// Number of static edges to draw (uniformly over node pairs and
    /// snapshots). Parallel edges are allowed, as in the paper's generator,
    /// where only the static edge count is controlled.
    pub num_edges: usize,
    /// Whether the graph is directed (Figure 5 uses directed graphs).
    pub directed: bool,
    /// RNG seed, so experiments are reproducible.
    pub seed: u64,
}

impl Default for UniformRandomConfig {
    fn default() -> Self {
        UniformRandomConfig {
            num_nodes: 1_000,
            num_timestamps: 10,
            num_edges: 10_000,
            directed: true,
            seed: 0x5EED,
        }
    }
}

/// Generates a uniform random evolving graph according to `config`.
pub fn uniform_random_graph(config: &UniformRandomConfig) -> AdjacencyListGraph {
    assert!(config.num_nodes >= 2, "need at least two nodes");
    assert!(config.num_timestamps >= 1, "need at least one snapshot");
    let mut g = if config.directed {
        AdjacencyListGraph::directed_with_unit_times(config.num_nodes, config.num_timestamps)
    } else {
        AdjacencyListGraph::undirected_with_unit_times(config.num_nodes, config.num_timestamps)
    };
    let mut rng = SmallRng::seed_from_u64(config.seed);
    add_random_edges(&mut g, config.num_edges, &mut rng);
    g
}

/// The Figure 5 workload at a given scale: a directed uniform random evolving
/// graph with the requested node count, snapshot count and static edge count.
pub fn figure5_workload(
    num_nodes: usize,
    num_timestamps: usize,
    num_edges: usize,
    seed: u64,
) -> AdjacencyListGraph {
    uniform_random_graph(&UniformRandomConfig {
        num_nodes,
        num_timestamps,
        num_edges,
        directed: true,
        seed,
    })
}

/// Adds `count` additional uniformly random static edges to an existing
/// graph — the "consecutively add new random static edges" step of the
/// Figure 5 experiment.
pub fn extend_with_random_edges(graph: &mut AdjacencyListGraph, count: usize, seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    add_random_edges(graph, count, &mut rng);
}

fn add_random_edges(graph: &mut AdjacencyListGraph, count: usize, rng: &mut SmallRng) {
    use egraph_core::graph::EvolvingGraph;
    let n = graph.num_nodes();
    let n_t = graph.num_timestamps();
    let mut added = 0usize;
    while added < count {
        let u = rng.gen_range(0..n) as u32;
        let v = rng.gen_range(0..n) as u32;
        if u == v {
            continue;
        }
        let t = rng.gen_range(0..n_t) as u32;
        graph
            .add_edge(NodeId(u), NodeId(v), TimeIndex(t))
            .expect("generated edge is always in range");
        added += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use egraph_core::graph::EvolvingGraph;

    #[test]
    fn generates_the_requested_number_of_edges() {
        let g = uniform_random_graph(&UniformRandomConfig {
            num_nodes: 50,
            num_timestamps: 5,
            num_edges: 400,
            directed: true,
            seed: 1,
        });
        assert_eq!(g.num_static_edges(), 400);
        assert_eq!(g.num_nodes(), 50);
        assert_eq!(g.num_timestamps(), 5);
    }

    #[test]
    fn same_seed_same_graph_different_seed_different_graph() {
        let c = UniformRandomConfig {
            num_nodes: 30,
            num_timestamps: 3,
            num_edges: 100,
            directed: true,
            seed: 7,
        };
        let a = uniform_random_graph(&c);
        let b = uniform_random_graph(&c);
        assert_eq!(a.edge_triples(), b.edge_triples());
        let c2 = UniformRandomConfig { seed: 8, ..c };
        let d = uniform_random_graph(&c2);
        assert_ne!(a.edge_triples(), d.edge_triples());
    }

    #[test]
    fn no_self_loops_are_generated() {
        let g = uniform_random_graph(&UniformRandomConfig {
            num_nodes: 10,
            num_timestamps: 2,
            num_edges: 300,
            directed: true,
            seed: 3,
        });
        assert!(g.edge_triples().iter().all(|&(u, v, _)| u != v));
    }

    #[test]
    fn extension_adds_exactly_the_requested_edges() {
        let mut g = figure5_workload(40, 4, 200, 11);
        extend_with_random_edges(&mut g, 150, 12);
        assert_eq!(g.num_static_edges(), 350);
    }

    #[test]
    fn undirected_generation_works() {
        let g = uniform_random_graph(&UniformRandomConfig {
            num_nodes: 20,
            num_timestamps: 2,
            num_edges: 50,
            directed: false,
            seed: 5,
        });
        assert!(!g.is_directed());
        assert_eq!(g.num_static_edges(), 50);
    }

    #[test]
    #[should_panic(expected = "at least two nodes")]
    fn rejects_degenerate_universe() {
        let _ = uniform_random_graph(&UniformRandomConfig {
            num_nodes: 1,
            num_timestamps: 1,
            num_edges: 1,
            directed: true,
            seed: 0,
        });
    }
}
