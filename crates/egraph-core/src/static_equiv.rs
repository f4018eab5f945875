//! The equivalent static graph `G = (V, E)` of Theorem 1.
//!
//! The proof of Theorem 1 maps an evolving graph `G_n` to an ordinary static
//! graph whose nodes are the *active* temporal nodes of `G_n` and whose edges
//! are the time-labelled static edges `Ẽ` plus the causal edges `E′`. BFS on
//! `G_n` (Algorithm 1) is then literally BFS on `G`, which is how correctness
//! and the `O(|E| + |V|)` bound are obtained.
//!
//! [`EquivalentStaticGraph`] materialises this construction. It is *not* used
//! by the traversal algorithms (which work on the evolving representation
//! directly and never pay for the quadratic causal edge set) — it exists as
//! an executable statement of the theorem, used by tests, the linear-algebra
//! crate, and anyone who wants to hand the flattened graph to conventional
//! static-graph tooling.

use crate::graph::EvolvingGraph;
use crate::ids::{TemporalNode, TimeIndex};
use crate::static_graph::StaticGraph;

/// The static graph `G = (V, Ẽ ∪ E′)` with `V` = active temporal nodes.
#[derive(Clone, Debug)]
pub struct EquivalentStaticGraph {
    graph: StaticGraph,
    /// `nodes[i]` = the temporal node represented by static node `i`.
    nodes: Vec<TemporalNode>,
    /// Flat lookup (time-major) from temporal node to static node index;
    /// `u32::MAX` marks inactive temporal nodes that have no counterpart.
    index: Vec<u32>,
    num_nodes: usize,
    num_static_edges: usize,
    num_causal_edges: usize,
}

/// Sentinel for "this temporal node is inactive and absent from V".
const ABSENT: u32 = u32::MAX;

impl EquivalentStaticGraph {
    /// Builds the equivalent static graph of `graph` following the proof of
    /// Theorem 1: one node per active temporal node, one directed edge per
    /// static edge (two per undirected static edge) and one directed edge per
    /// causal pair `((v, s), (v, t))`, `s < t`.
    pub fn build<G: EvolvingGraph>(graph: &G) -> Self {
        let n = graph.num_nodes();
        let n_t = graph.num_timestamps();

        // Assign indices to active temporal nodes in time-major order so the
        // ordering matches the block adjacency matrix of Section III-C.
        let mut nodes = Vec::new();
        let mut index = vec![ABSENT; n * n_t];
        for t in 0..n_t {
            let t = TimeIndex::from_index(t);
            for v in 0..n {
                let v = crate::ids::NodeId::from_index(v);
                if graph.is_active(v, t) {
                    let tn = TemporalNode::new(v, t);
                    index[tn.flat_index(n)] = nodes.len() as u32;
                    nodes.push(tn);
                }
            }
        }

        let mut g = StaticGraph::new(nodes.len());
        let mut num_static_edges = 0usize;
        let mut num_causal_edges = 0usize;

        // Static edges Ẽ: (u, t) → (w, t) for every static edge at t.
        for t in 0..n_t {
            let t = TimeIndex::from_index(t);
            for v in 0..n {
                let v = crate::ids::NodeId::from_index(v);
                graph.for_each_static_out(v, t, &mut |w| {
                    let src = index[TemporalNode::new(v, t).flat_index(n)];
                    let dst = index[TemporalNode::new(w, t).flat_index(n)];
                    debug_assert!(src != ABSENT && dst != ABSENT);
                    g.add_edge(src as usize, dst as usize);
                    num_static_edges += 1;
                });
            }
        }

        // Causal edges E′: (v, s) → (v, t) for all active s < t.
        for v in 0..n {
            let v = crate::ids::NodeId::from_index(v);
            let times = graph.active_times(v);
            for (i, &s) in times.iter().enumerate() {
                for &t in &times[i + 1..] {
                    let src = index[TemporalNode::new(v, s).flat_index(n)];
                    let dst = index[TemporalNode::new(v, t).flat_index(n)];
                    g.add_edge(src as usize, dst as usize);
                    num_causal_edges += 1;
                }
            }
        }

        EquivalentStaticGraph {
            graph: g,
            nodes,
            index,
            num_nodes: n,
            num_static_edges,
            num_causal_edges,
        }
    }

    /// The underlying static graph.
    pub fn static_graph(&self) -> &StaticGraph {
        &self.graph
    }

    /// Number of nodes `|V|` (active temporal nodes).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges `|E| = |Ẽ| + |E′|` (with undirected static edges
    /// already expanded to two directed edges).
    pub fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }

    /// Number of (directed) edges contributed by the static edge set `Ẽ`.
    pub fn num_static_edges(&self) -> usize {
        self.num_static_edges
    }

    /// Number of causal edges `|E′|`.
    pub fn num_causal_edges(&self) -> usize {
        self.num_causal_edges
    }

    /// The temporal node represented by static node `i`.
    pub fn temporal_node(&self, i: usize) -> TemporalNode {
        self.nodes[i]
    }

    /// All temporal nodes in index order (time-major).
    pub fn temporal_nodes(&self) -> &[TemporalNode] {
        &self.nodes
    }

    /// The static node index of an active temporal node, or `None` if the
    /// temporal node is inactive.
    pub fn node_index(&self, tn: TemporalNode) -> Option<usize> {
        let idx = *self.index.get(tn.flat_index(self.num_nodes))?;
        if idx == ABSENT {
            None
        } else {
            Some(idx as usize)
        }
    }

    /// Classical BFS distances from an active temporal node, keyed by
    /// temporal node. This is the right-hand side of Theorem 1's equivalence.
    pub fn bfs_distances_from(&self, root: TemporalNode) -> Option<Vec<(TemporalNode, u32)>> {
        let root_idx = self.node_index(root)?;
        let dist = self.graph.bfs_distances(root_idx);
        Some(
            dist.iter()
                .enumerate()
                .filter(|(_, &d)| d != u32::MAX)
                .map(|(i, &d)| (self.nodes[i], d))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::paper_figure1;
    use crate::graph::EvolvingGraph;
    use crate::kernel::distances;

    #[test]
    fn figure4_construction_sizes() {
        let g = paper_figure1();
        let eq = EquivalentStaticGraph::build(&g);
        // V has 6 active nodes; E has 3 static + 3 causal edges.
        assert_eq!(eq.num_nodes(), 6);
        assert_eq!(eq.num_static_edges(), 3);
        assert_eq!(eq.num_causal_edges(), 3);
        assert_eq!(eq.num_edges(), 6);
    }

    #[test]
    fn node_ordering_is_time_major_as_in_paper() {
        // The paper orders V as (1,t1), (2,t1), (1,t2), (3,t2), (2,t3), (3,t3).
        let g = paper_figure1();
        let eq = EquivalentStaticGraph::build(&g);
        let order: Vec<TemporalNode> = eq.temporal_nodes().to_vec();
        assert_eq!(
            order,
            vec![
                TemporalNode::from_raw(0, 0),
                TemporalNode::from_raw(1, 0),
                TemporalNode::from_raw(0, 1),
                TemporalNode::from_raw(2, 1),
                TemporalNode::from_raw(1, 2),
                TemporalNode::from_raw(2, 2),
            ]
        );
    }

    #[test]
    fn adjacency_matches_a3_matrix_from_section_iiic() {
        // A3 (paper, Section III-C) in the ordering above:
        // edges: 0->1, 0->2, 2->3, 1->4, 3->5, 4->5.
        let g = paper_figure1();
        let eq = EquivalentStaticGraph::build(&g);
        let expected = [(0, 1), (0, 2), (2, 3), (1, 4), (3, 5), (4, 5)];
        for &(u, v) in &expected {
            assert!(eq.static_graph().has_edge(u, v), "missing edge {u}->{v}");
        }
        assert_eq!(eq.num_edges(), expected.len());
    }

    #[test]
    fn inactive_nodes_are_absent() {
        let g = paper_figure1();
        let eq = EquivalentStaticGraph::build(&g);
        assert_eq!(eq.node_index(TemporalNode::from_raw(2, 0)), None);
        assert_eq!(eq.node_index(TemporalNode::from_raw(1, 1)), None);
        assert_eq!(eq.node_index(TemporalNode::from_raw(0, 2)), None);
    }

    #[test]
    fn theorem1_bfs_equivalence_on_paper_example() {
        let g = paper_figure1();
        let eq = EquivalentStaticGraph::build(&g);
        for &root in &g.active_nodes() {
            let evolving = distances(&g, root, false, usize::MAX).unwrap();
            let static_dists = eq.bfs_distances_from(root).unwrap();
            assert_eq!(static_dists.len(), evolving.num_reached());
            for (tn, d) in static_dists {
                assert_eq!(evolving.distance(tn), Some(d), "root {root:?}, node {tn:?}");
            }
        }
    }

    #[test]
    fn undirected_static_edges_become_two_directed_edges() {
        let mut g = crate::adjacency::AdjacencyListGraph::undirected_with_unit_times(2, 1);
        g.add_edge(crate::ids::NodeId(0), crate::ids::NodeId(1), TimeIndex(0))
            .unwrap();
        let eq = EquivalentStaticGraph::build(&g);
        assert_eq!(eq.num_nodes(), 2);
        assert_eq!(eq.num_static_edges(), 2);
        assert_eq!(eq.num_causal_edges(), 0);
    }
}
