//! Incremental edge streams.
//!
//! The Figure 5 experiment grows one evolving graph by repeatedly adding
//! random static edges and re-running BFS after each growth step. The
//! incremental-update ablation (`abl-c` in the `figures` binary) needs the
//! same pattern as a reusable object: a deterministic stream of edge batches
//! that can either be applied incrementally to one [`AdjacencyListGraph`] or
//! replayed from scratch, so the two strategies can be compared.

use egraph_core::adjacency::AdjacencyListGraph;
use egraph_core::ids::{NodeId, TimeIndex};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A deterministic stream of random edge batches over a fixed node universe
/// and snapshot set.
#[derive(Clone, Debug)]
pub struct EdgeStream {
    num_nodes: usize,
    num_timestamps: usize,
    batch_size: usize,
    rng: SmallRng,
}

impl EdgeStream {
    /// Creates a stream producing batches of `batch_size` random edges.
    pub fn new(num_nodes: usize, num_timestamps: usize, batch_size: usize, seed: u64) -> Self {
        assert!(num_nodes >= 2, "need at least two nodes");
        assert!(num_timestamps >= 1, "need at least one snapshot");
        EdgeStream {
            num_nodes,
            num_timestamps,
            batch_size,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Node universe size the stream draws from.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Snapshot count the stream draws from.
    pub fn num_timestamps(&self) -> usize {
        self.num_timestamps
    }

    /// Produces the next batch of `(src, dst, time_index)` edges.
    pub fn next_batch(&mut self) -> Vec<(u32, u32, u32)> {
        let mut batch = Vec::with_capacity(self.batch_size);
        while batch.len() < self.batch_size {
            let u = self.rng.gen_range(0..self.num_nodes) as u32;
            let v = self.rng.gen_range(0..self.num_nodes) as u32;
            if u == v {
                continue;
            }
            let t = self.rng.gen_range(0..self.num_timestamps) as u32;
            batch.push((u, v, t));
        }
        batch
    }

    /// An empty graph matching the stream's universe, ready to apply batches
    /// to.
    pub fn empty_graph(&self) -> AdjacencyListGraph {
        AdjacencyListGraph::directed_with_unit_times(self.num_nodes, self.num_timestamps)
    }
}

/// Applies a batch of edges to an existing graph (the *incremental* strategy).
pub fn apply_batch(graph: &mut AdjacencyListGraph, batch: &[(u32, u32, u32)]) {
    for &(u, v, t) in batch {
        graph
            .add_edge(NodeId(u), NodeId(v), TimeIndex(t))
            .expect("stream edges are always in range");
    }
}

/// Builds a graph from scratch out of all batches seen so far (the *rebuild*
/// strategy the ablation compares against).
pub fn rebuild_from_batches(
    num_nodes: usize,
    num_timestamps: usize,
    batches: &[Vec<(u32, u32, u32)>],
) -> AdjacencyListGraph {
    let mut g = AdjacencyListGraph::directed_with_unit_times(num_nodes, num_timestamps);
    for batch in batches {
        apply_batch(&mut g, batch);
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use egraph_core::graph::EvolvingGraph;

    #[test]
    fn batches_have_the_requested_size_and_no_self_loops() {
        let mut stream = EdgeStream::new(50, 5, 120, 3);
        let batch = stream.next_batch();
        assert_eq!(batch.len(), 120);
        assert!(batch.iter().all(|&(u, v, _)| u != v));
    }

    #[test]
    fn identical_seeds_give_identical_streams() {
        let mut a = EdgeStream::new(30, 3, 40, 9);
        let mut b = EdgeStream::new(30, 3, 40, 9);
        assert_eq!(a.next_batch(), b.next_batch());
        assert_eq!(a.next_batch(), b.next_batch());
    }

    #[test]
    fn incremental_application_equals_rebuild() {
        let mut stream = EdgeStream::new(40, 4, 60, 17);
        let mut incremental = stream.empty_graph();
        let mut batches = Vec::new();
        for _ in 0..5 {
            let batch = stream.next_batch();
            apply_batch(&mut incremental, &batch);
            batches.push(batch);
        }
        let rebuilt = rebuild_from_batches(40, 4, &batches);
        assert_eq!(incremental.num_static_edges(), rebuilt.num_static_edges());
        assert_eq!(incremental.edge_triples(), rebuilt.edge_triples());
        assert_eq!(incremental.active_nodes(), rebuilt.active_nodes());
    }

    #[test]
    #[should_panic(expected = "at least two nodes")]
    fn rejects_degenerate_universe() {
        let _ = EdgeStream::new(1, 1, 10, 0);
    }
}
