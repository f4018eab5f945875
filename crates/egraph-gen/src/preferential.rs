//! Temporal preferential attachment.
//!
//! Citation-style networks are not uniform: highly cited authors attract
//! further citations. This generator grows an evolving graph snapshot by
//! snapshot, attaching each new edge to an existing node with probability
//! proportional to its accumulated in-degree plus one (the "plus one" keeps
//! fresh nodes reachable). The result has the heavy-tailed in-degree
//! distribution that the Section V application assumes qualitatively, and it
//! drives the `citation_mining` benchmark alongside the synthetic corpus of
//! [`crate::citation`].

use egraph_core::adjacency::AdjacencyListGraph;
use egraph_core::ids::{NodeId, TimeIndex};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Parameters of a temporal preferential-attachment graph.
#[derive(Clone, Debug)]
pub struct PreferentialConfig {
    /// Size of the node universe.
    pub num_nodes: usize,
    /// Number of snapshots.
    pub num_timestamps: usize,
    /// Number of edges added per snapshot.
    pub edges_per_timestamp: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PreferentialConfig {
    fn default() -> Self {
        PreferentialConfig {
            num_nodes: 500,
            num_timestamps: 10,
            edges_per_timestamp: 500,
            seed: 0xBA5E,
        }
    }
}

/// Generates a directed evolving graph by temporal preferential attachment.
///
/// At each snapshot, `edges_per_timestamp` edges are added. The source of
/// each edge is a uniformly random node; the destination is sampled with
/// probability proportional to `in_degree + 1`, accumulated over all
/// snapshots generated so far.
pub fn preferential_attachment(config: &PreferentialConfig) -> AdjacencyListGraph {
    assert!(config.num_nodes >= 2, "need at least two nodes");
    let mut g =
        AdjacencyListGraph::directed_with_unit_times(config.num_nodes, config.num_timestamps);
    let mut rng = SmallRng::seed_from_u64(config.seed);

    // in_weight[v] = accumulated in-degree + 1.
    let mut in_weight: Vec<u64> = vec![1; config.num_nodes];
    let mut total_weight: u64 = config.num_nodes as u64;

    for t in 0..config.num_timestamps {
        for _ in 0..config.edges_per_timestamp {
            let src = rng.gen_range(0..config.num_nodes);
            // Weighted sample of the destination.
            let mut target = rng.gen_range(0..total_weight);
            let mut dst = 0usize;
            for (v, &w) in in_weight.iter().enumerate() {
                if target < w {
                    dst = v;
                    break;
                }
                target -= w;
            }
            if dst == src {
                continue;
            }
            g.add_edge(NodeId(src as u32), NodeId(dst as u32), TimeIndex(t as u32))
                .expect("generated edge is always in range");
            in_weight[dst] += 1;
            total_weight += 1;
        }
    }
    g
}

/// The accumulated in-degree of every node over all snapshots — handy for
/// checking the skew the generator produces.
pub fn total_in_degrees(graph: &AdjacencyListGraph) -> Vec<usize> {
    use egraph_core::graph::EvolvingGraph;
    let mut deg = vec![0usize; graph.num_nodes()];
    for (_, dst, _) in graph.edge_triples() {
        deg[dst.index()] += 1;
    }
    deg
}

#[cfg(test)]
mod tests {
    use super::*;
    use egraph_core::graph::EvolvingGraph;

    #[test]
    fn produces_roughly_the_requested_edge_count() {
        let c = PreferentialConfig {
            num_nodes: 100,
            num_timestamps: 5,
            edges_per_timestamp: 200,
            seed: 4,
        };
        let g = preferential_attachment(&c);
        // A small number of draws are discarded as accidental self-loops.
        let requested = c.num_timestamps * c.edges_per_timestamp;
        assert!(g.num_static_edges() <= requested);
        assert!(g.num_static_edges() as f64 >= 0.9 * requested as f64);
    }

    #[test]
    fn in_degree_distribution_is_skewed() {
        let g = preferential_attachment(&PreferentialConfig {
            num_nodes: 200,
            num_timestamps: 8,
            edges_per_timestamp: 400,
            seed: 21,
        });
        let mut deg = total_in_degrees(&g);
        deg.sort_unstable_by(|a, b| b.cmp(a));
        let top_decile: usize = deg[..20].iter().sum();
        let total: usize = deg.iter().sum();
        // Preferential attachment concentrates citations: the top 10% of
        // nodes should hold well over 10% of the in-degree mass.
        assert!(
            top_decile as f64 > 0.2 * total as f64,
            "top decile holds {top_decile} of {total}"
        );
    }

    #[test]
    fn deterministic_given_a_seed() {
        let c = PreferentialConfig::default();
        assert_eq!(
            preferential_attachment(&c).edge_triples(),
            preferential_attachment(&c).edge_triples()
        );
    }

    #[test]
    fn no_self_loops() {
        let g = preferential_attachment(&PreferentialConfig {
            num_nodes: 50,
            num_timestamps: 3,
            edges_per_timestamp: 100,
            seed: 9,
        });
        assert!(g.edge_triples().iter().all(|&(u, v, _)| u != v));
    }
}
