//! Weakly connected temporal components of an evolving graph.
//!
//! Temporal reachability is not symmetric (paths cannot go backward in time),
//! so the usual notion of a connected component splits. A node's forward
//! and backward cones are searches (the `Search` builder's `reached()`,
//! forward or backward); this module computes the relaxation no search
//! gives: **weak components**, the equivalence classes of active temporal
//! nodes under "connected when edge directions and time ordering are
//! ignored". They partition a sparse evolving graph into independent
//! clusters that no traversal can cross.
//!
//! Weak components are computed with a union–find over the static and causal
//! adjacencies, so they cost `O((|Ẽ| + |V|) α)` rather than one BFS per node.

use crate::graph::EvolvingGraph;
use crate::ids::{NodeId, TemporalNode, TimeIndex};

/// A partition of the active temporal nodes into weakly connected components.
#[derive(Clone, Debug)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct WeakComponents {
    /// The components, each a sorted list of active temporal nodes; sorted by
    /// decreasing size.
    pub components: Vec<Vec<TemporalNode>>,
}

impl WeakComponents {
    /// Number of components.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// Whether there are no active nodes at all.
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// Size of the largest component (0 if none).
    pub fn largest_size(&self) -> usize {
        self.components.first().map(|c| c.len()).unwrap_or(0)
    }

    /// The component containing a given temporal node, if it is active.
    pub fn component_of(&self, tn: TemporalNode) -> Option<&[TemporalNode]> {
        self.components
            .iter()
            .find(|c| c.binary_search(&tn).is_ok())
            .map(|c| c.as_slice())
    }
}

/// Union–find with path compression and union by size.
struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
        }
    }

    fn find(&mut self, x: u32) -> u32 {
        let mut root = x;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        // Path compression.
        let mut cur = x;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }

    fn union(&mut self, a: u32, b: u32) {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        if self.size[ra as usize] < self.size[rb as usize] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb as usize] = ra;
        self.size[ra as usize] += self.size[rb as usize];
    }
}

/// Computes the weakly connected components over the active temporal nodes,
/// joining along static edges (within a snapshot) and along consecutive
/// active occurrences of the same node (which is enough: causal edges to
/// later occurrences are unions of consecutive ones).
pub fn weak_components<G: EvolvingGraph>(graph: &G) -> WeakComponents {
    let n = graph.num_nodes();
    let n_t = graph.num_timestamps();
    let mut uf = UnionFind::new(n * n_t);
    let flat = |tn: TemporalNode| tn.flat_index(n) as u32;

    // Static edges.
    for t in 0..n_t {
        let ti = TimeIndex::from_index(t);
        for v in 0..n {
            let v_id = NodeId::from_index(v);
            graph.for_each_static_out(v_id, ti, &mut |w| {
                uf.union(
                    flat(TemporalNode::new(v_id, ti)),
                    flat(TemporalNode::new(w, ti)),
                );
            });
        }
    }
    // Consecutive active occurrences of each node.
    for v in 0..n {
        let v_id = NodeId::from_index(v);
        let times = graph.active_times(v_id);
        for w in times.windows(2) {
            uf.union(
                flat(TemporalNode::new(v_id, w[0])),
                flat(TemporalNode::new(v_id, w[1])),
            );
        }
    }

    // Group active nodes by their representative.
    let mut groups: std::collections::HashMap<u32, Vec<TemporalNode>> =
        std::collections::HashMap::new();
    for tn in graph.active_nodes() {
        let rep = uf.find(flat(tn));
        groups.entry(rep).or_default().push(tn);
    }
    let mut components: Vec<Vec<TemporalNode>> = groups.into_values().collect();
    for c in &mut components {
        c.sort();
    }
    components.sort_by_key(|c| (std::cmp::Reverse(c.len()), c.first().copied()));
    WeakComponents { components }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjacency::AdjacencyListGraph;
    use crate::examples::paper_figure1;
    use crate::kernel::distances;

    fn tn(v: u32, t: u32) -> TemporalNode {
        TemporalNode::from_raw(v, t)
    }

    #[test]
    fn paper_example_is_one_weak_component() {
        let g = paper_figure1();
        let wc = weak_components(&g);
        assert_eq!(wc.len(), 1);
        assert_eq!(wc.largest_size(), 6);
        assert!(wc.component_of(tn(0, 0)).is_some());
        assert!(wc.component_of(tn(2, 0)).is_none()); // inactive
    }

    #[test]
    fn disconnected_clusters_form_separate_components() {
        // Cluster A: nodes 0,1 at t0; cluster B: nodes 2,3 at t1. No overlap.
        let mut g = AdjacencyListGraph::directed_with_unit_times(4, 2);
        g.add_edge(NodeId(0), NodeId(1), TimeIndex(0)).unwrap();
        g.add_edge(NodeId(2), NodeId(3), TimeIndex(1)).unwrap();
        let wc = weak_components(&g);
        assert_eq!(wc.len(), 2);
        assert_eq!(wc.largest_size(), 2);
        // The two clusters are indeed mutually unreachable.
        let reaches = |from, to| {
            distances(&g, from, false, usize::MAX)
                .unwrap()
                .is_reached(to)
        };
        assert!(!reaches(tn(0, 0), tn(2, 1)));
        assert!(!reaches(tn(2, 1), tn(0, 0)));
    }

    #[test]
    fn causal_continuity_joins_occurrences_of_the_same_node() {
        // Node 1 bridges two otherwise separate snapshots.
        let mut g = AdjacencyListGraph::directed_with_unit_times(4, 2);
        g.add_edge(NodeId(0), NodeId(1), TimeIndex(0)).unwrap();
        g.add_edge(NodeId(1), NodeId(2), TimeIndex(1)).unwrap();
        let wc = weak_components(&g);
        assert_eq!(wc.len(), 1);
        assert_eq!(wc.largest_size(), 4);
    }

    #[test]
    fn out_components_never_cross_weak_components() {
        let mut g = AdjacencyListGraph::directed_with_unit_times(6, 3);
        g.add_edge(NodeId(0), NodeId(1), TimeIndex(0)).unwrap();
        g.add_edge(NodeId(1), NodeId(2), TimeIndex(1)).unwrap();
        g.add_edge(NodeId(3), NodeId(4), TimeIndex(0)).unwrap();
        g.add_edge(NodeId(4), NodeId(5), TimeIndex(2)).unwrap();
        let wc = weak_components(&g);
        assert_eq!(wc.len(), 2);
        for &root in &g.active_nodes() {
            let comp = wc.component_of(root).unwrap();
            for (reached, _) in distances(&g, root, false, usize::MAX).unwrap().reached() {
                assert!(comp.contains(&reached));
            }
        }
    }
}
