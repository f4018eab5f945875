//! Per-snapshot Erdős–Rényi evolving graphs.
//!
//! Each snapshot is an independent `G(n, p)` directed random graph. Unlike
//! the uniform-edge-count generator of [`crate::random`], the *expected*
//! density is controlled per snapshot, which is the natural null model when
//! studying how activeness and causal edges interact with density (the
//! ABL-A ablation sweeps `p`).

use egraph_core::adjacency::AdjacencyListGraph;
use egraph_core::ids::{NodeId, TimeIndex};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Parameters of a per-snapshot Erdős–Rényi evolving graph.
#[derive(Clone, Debug)]
pub struct ErConfig {
    /// Size of the node universe.
    pub num_nodes: usize,
    /// Number of snapshots.
    pub num_timestamps: usize,
    /// Probability that any given ordered pair `(u, v)`, `u ≠ v`, is an edge
    /// of a given snapshot.
    pub edge_probability: f64,
    /// Whether edges are directed.
    pub directed: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ErConfig {
    fn default() -> Self {
        ErConfig {
            num_nodes: 100,
            num_timestamps: 5,
            edge_probability: 0.05,
            directed: true,
            seed: 0xE12,
        }
    }
}

/// Generates a per-snapshot Erdős–Rényi evolving graph.
///
/// For directed graphs every ordered pair is sampled; for undirected graphs
/// every unordered pair is sampled once.
pub fn erdos_renyi_evolving(config: &ErConfig) -> AdjacencyListGraph {
    assert!(
        (0.0..=1.0).contains(&config.edge_probability),
        "edge_probability must lie in [0, 1]"
    );
    let mut g = if config.directed {
        AdjacencyListGraph::directed_with_unit_times(config.num_nodes, config.num_timestamps)
    } else {
        AdjacencyListGraph::undirected_with_unit_times(config.num_nodes, config.num_timestamps)
    };
    let mut rng = SmallRng::seed_from_u64(config.seed);
    for t in 0..config.num_timestamps {
        for u in 0..config.num_nodes {
            let vs: std::ops::Range<usize> = if config.directed {
                0..config.num_nodes
            } else {
                (u + 1)..config.num_nodes
            };
            for v in vs {
                if u == v {
                    continue;
                }
                if rng.gen_bool(config.edge_probability) {
                    g.add_edge(NodeId(u as u32), NodeId(v as u32), TimeIndex(t as u32))
                        .expect("generated edge is always in range");
                }
            }
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use egraph_core::graph::EvolvingGraph;

    #[test]
    fn extreme_probabilities_give_empty_and_complete_snapshots() {
        let empty = erdos_renyi_evolving(&ErConfig {
            num_nodes: 10,
            num_timestamps: 3,
            edge_probability: 0.0,
            directed: true,
            seed: 1,
        });
        assert_eq!(empty.num_static_edges(), 0);

        let full = erdos_renyi_evolving(&ErConfig {
            num_nodes: 6,
            num_timestamps: 2,
            edge_probability: 1.0,
            directed: true,
            seed: 1,
        });
        assert_eq!(full.num_static_edges(), 2 * 6 * 5);
        // Every node is active at every snapshot in the complete case.
        assert_eq!(full.num_active_nodes(), 12);
    }

    #[test]
    fn undirected_complete_graph_counts_each_edge_once() {
        let full = erdos_renyi_evolving(&ErConfig {
            num_nodes: 5,
            num_timestamps: 1,
            edge_probability: 1.0,
            directed: false,
            seed: 1,
        });
        assert_eq!(full.num_static_edges(), 5 * 4 / 2);
    }

    #[test]
    fn density_is_close_to_the_requested_probability() {
        let p = 0.1;
        let n = 60usize;
        let n_t = 4usize;
        let g = erdos_renyi_evolving(&ErConfig {
            num_nodes: n,
            num_timestamps: n_t,
            edge_probability: p,
            directed: true,
            seed: 99,
        });
        let expected = p * (n * (n - 1) * n_t) as f64;
        let got = g.num_static_edges() as f64;
        assert!(
            (got - expected).abs() < 0.25 * expected,
            "got {got}, expected ≈ {expected}"
        );
    }

    #[test]
    fn deterministic_given_a_seed() {
        let c = ErConfig::default();
        assert_eq!(
            erdos_renyi_evolving(&c).edge_triples(),
            erdos_renyi_evolving(&c).edge_triples()
        );
    }

    #[test]
    #[should_panic(expected = "edge_probability")]
    fn rejects_out_of_range_probability() {
        let _ = erdos_renyi_evolving(&ErConfig {
            edge_probability: 1.5,
            ..ErConfig::default()
        });
    }
}
