//! Whole-graph metrics built on the evolving-graph BFS.
//!
//! Once the BFS of Algorithm 1 is available, the classical distance-based
//! graph metrics generalise mechanically by replacing "shortest path" with
//! "shortest temporal path" under the paper's distance (Definition 6 — hops
//! over static *and* causal edges). This module provides the ones that are
//! useful when characterising benchmark workloads and citation networks:
//!
//! * mean and maximum per-root reach,
//! * the temporal diameter (largest finite eccentricity),
//! * the reachability ratio (fraction of ordered active-node pairs connected
//!   by some temporal path), and
//! * average temporal distance over reachable pairs.
//!
//! All of them are exact and run one BFS per active root (`O(|V| (|E|+|V|))`
//! total); [`GraphMetrics::compute_sampled`] bounds the number of roots for
//! large graphs, and computation is parallelised over roots with rayon.

use rayon::prelude::*;

use crate::graph::EvolvingGraph;
use crate::ids::TemporalNode;
use crate::kernel::distances;

/// Distance-based summary statistics of an evolving graph.
#[derive(Clone, Debug, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct GraphMetrics {
    /// Number of active temporal nodes used as BFS roots.
    pub num_roots: usize,
    /// Number of active temporal nodes in the graph.
    pub num_active_nodes: usize,
    /// Largest finite temporal eccentricity (the temporal diameter). `None`
    /// when no root reaches anything beyond itself.
    pub diameter: Option<u32>,
    /// Mean temporal distance over all reachable ordered pairs (excluding
    /// the trivial root→root pair).
    pub mean_distance: f64,
    /// Fraction of ordered pairs `(root, other active node)` with a temporal
    /// path from the root to the other node.
    pub reachability_ratio: f64,
    /// Mean number of temporal nodes reached per root (excluding the root).
    pub mean_reach: f64,
    /// The root with the largest reach and its reach count.
    pub max_reach: Option<(TemporalNode, usize)>,
}

impl GraphMetrics {
    /// Computes exact metrics using every active temporal node as a root.
    pub fn compute<G: EvolvingGraph>(graph: &G) -> Self {
        let roots = graph.active_nodes();
        Self::from_roots(graph, &roots)
    }

    /// Computes metrics using at most `max_roots` active roots (the first
    /// ones in time-major order), for graphs where the exact all-pairs sweep
    /// is too expensive.
    pub fn compute_sampled<G: EvolvingGraph>(graph: &G, max_roots: usize) -> Self {
        let mut roots = graph.active_nodes();
        roots.truncate(max_roots);
        Self::from_roots(graph, &roots)
    }

    fn from_roots<G: EvolvingGraph>(graph: &G, roots: &[TemporalNode]) -> Self {
        let num_active_nodes = graph.num_active_nodes();

        // One BFS per root, in parallel; fold the per-root summaries.
        #[derive(Default)]
        struct Acc {
            reach_sum: usize,
            dist_sum: u64,
            pair_count: u64,
            ecc_max: Option<u32>,
            best: Option<(TemporalNode, usize)>,
        }
        let acc = roots
            .par_iter()
            .map(|&root| {
                let map = distances(graph, root, false, usize::MAX)
                    .expect("roots are active by construction");
                let reach = map.num_reached() - 1;
                let ecc = map.max_distance();
                let dist_sum: u64 = map.reached().iter().map(|&(_, d)| d as u64).sum();
                Acc {
                    reach_sum: reach,
                    dist_sum,
                    pair_count: reach as u64,
                    ecc_max: if reach > 0 { Some(ecc) } else { None },
                    best: Some((root, reach)),
                }
            })
            .reduce(Acc::default, |a, b| Acc {
                reach_sum: a.reach_sum + b.reach_sum,
                dist_sum: a.dist_sum + b.dist_sum,
                pair_count: a.pair_count + b.pair_count,
                ecc_max: match (a.ecc_max, b.ecc_max) {
                    (Some(x), Some(y)) => Some(x.max(y)),
                    (x, y) => x.or(y),
                },
                best: match (a.best, b.best) {
                    (Some(x), Some(y)) => Some(if x.1 >= y.1 { x } else { y }),
                    (x, y) => x.or(y),
                },
            });

        let possible_pairs = roots.len() as f64 * (num_active_nodes.saturating_sub(1)) as f64;
        GraphMetrics {
            num_roots: roots.len(),
            num_active_nodes,
            diameter: acc.ecc_max,
            mean_distance: if acc.pair_count == 0 {
                0.0
            } else {
                acc.dist_sum as f64 / acc.pair_count as f64
            },
            reachability_ratio: if possible_pairs == 0.0 {
                0.0
            } else {
                acc.pair_count as f64 / possible_pairs
            },
            mean_reach: if roots.is_empty() {
                0.0
            } else {
                acc.reach_sum as f64 / roots.len() as f64
            },
            max_reach: acc.best.filter(|&(_, r)| r > 0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::{paper_figure1, staircase};

    #[test]
    fn metrics_of_the_paper_example() {
        let g = paper_figure1();
        let m = GraphMetrics::compute(&g);
        assert_eq!(m.num_roots, 6);
        assert_eq!(m.num_active_nodes, 6);
        // The longest shortest temporal path is (1,t1) → … → (3,t3), 3 hops.
        assert_eq!(m.diameter, Some(3));
        // (1,t1) reaches all five other active nodes — the maximum.
        assert_eq!(m.max_reach.unwrap().1, 5);
        assert!(m.reachability_ratio > 0.0 && m.reachability_ratio <= 1.0);
        assert!(m.mean_distance >= 1.0);
    }

    #[test]
    fn staircase_diameter_matches_closed_form() {
        let n = 6;
        let g = staircase(n);
        let m = GraphMetrics::compute(&g);
        // From (0, t0) to (n-1, t_{n-2}): (n-1) static + (n-2) causal hops.
        assert_eq!(m.diameter, Some((2 * n - 3) as u32));
    }

    #[test]
    fn sampled_metrics_use_fewer_roots() {
        let g = paper_figure1();
        let m = GraphMetrics::compute_sampled(&g, 2);
        assert_eq!(m.num_roots, 2);
        assert_eq!(m.num_active_nodes, 6);
    }

    #[test]
    fn empty_graph_metrics_are_all_zero() {
        let g = crate::adjacency::AdjacencyListGraph::directed_with_unit_times(3, 2);
        let m = GraphMetrics::compute(&g);
        assert_eq!(m.num_roots, 0);
        assert_eq!(m.diameter, None);
        assert_eq!(m.mean_reach, 0.0);
        assert_eq!(m.max_reach, None);
    }
}
