//! A minimal static directed graph used as a substrate.
//!
//! Three places need an ordinary (non-evolving) graph:
//!
//! * the *equivalent static graph* `G = (V, Ẽ ∪ E′)` constructed in the proof
//!   of Theorem 1, on which classical BFS must agree with the evolving-graph
//!   BFS of Algorithm 1;
//! * the flattened and per-snapshot graphs of the `egraph-baselines` crate;
//! * the acyclicity check of the nilpotency lemma (`egraph-matrix`).
//!
//! The implementation is intentionally small: adjacency lists, degree
//! queries, and a textbook BFS.

use crate::ids::NodeId;

/// A static directed graph over dense node identifiers `0..num_nodes`.
#[derive(Clone, Debug, Default)]
pub struct StaticGraph {
    out_adj: Vec<Vec<u32>>,
    in_adj: Vec<Vec<u32>>,
    num_edges: usize,
}

impl StaticGraph {
    /// Creates an empty graph with `num_nodes` nodes.
    pub fn new(num_nodes: usize) -> Self {
        StaticGraph {
            out_adj: vec![Vec::new(); num_nodes],
            in_adj: vec![Vec::new(); num_nodes],
            num_edges: 0,
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.out_adj.len()
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Grows the node universe to at least `num_nodes`.
    pub fn grow(&mut self, num_nodes: usize) {
        if num_nodes > self.out_adj.len() {
            self.out_adj.resize(num_nodes, Vec::new());
            self.in_adj.resize(num_nodes, Vec::new());
        }
    }

    /// Adds the directed edge `u → v` (parallel edges allowed).
    pub fn add_edge(&mut self, u: usize, v: usize) {
        let needed = u.max(v) + 1;
        self.grow(needed);
        self.out_adj[u].push(v as u32);
        self.in_adj[v].push(u as u32);
        self.num_edges += 1;
    }

    /// Adds the edge only if not already present; returns whether it was new.
    pub fn add_edge_unique(&mut self, u: usize, v: usize) -> bool {
        let needed = u.max(v) + 1;
        self.grow(needed);
        if self.out_adj[u].contains(&(v as u32)) {
            return false;
        }
        self.add_edge(u, v);
        true
    }

    /// Whether the directed edge `u → v` exists.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.out_adj
            .get(u)
            .map(|adj| adj.contains(&(v as u32)))
            .unwrap_or(false)
    }

    /// All edges as `(src, dst)` pairs.
    pub fn edges(&self) -> Vec<(NodeId, NodeId)> {
        let mut out = Vec::with_capacity(self.num_edges);
        for (u, adj) in self.out_adj.iter().enumerate() {
            for &v in adj {
                out.push((NodeId::from_index(u), NodeId(v)));
            }
        }
        out
    }

    /// Classical BFS from `root`: returns `dist[v]` with `u32::MAX` marking
    /// unreachable nodes. This is the reference against which the
    /// evolving-graph BFS is validated (Theorem 1 reduces the latter to the
    /// former on the equivalent static graph).
    pub fn bfs_distances(&self, root: usize) -> Vec<u32> {
        let mut dist = vec![u32::MAX; self.num_nodes()];
        if root >= self.num_nodes() {
            return dist;
        }
        dist[root] = 0;
        let mut frontier = vec![root as u32];
        let mut next = Vec::new();
        let mut level = 0u32;
        while !frontier.is_empty() {
            level += 1;
            next.clear();
            for &u in &frontier {
                for &v in &self.out_adj[u as usize] {
                    if dist[v as usize] == u32::MAX {
                        dist[v as usize] = level;
                        next.push(v);
                    }
                }
            }
            std::mem::swap(&mut frontier, &mut next);
        }
        dist
    }

    /// Whether the graph is acyclic (used by the nilpotency Lemma 1 tests).
    pub fn is_acyclic(&self) -> bool {
        // Kahn's algorithm: the graph is acyclic iff all nodes can be removed
        // in topological order.
        let n = self.num_nodes();
        let mut indeg: Vec<usize> = (0..n).map(|v| self.in_adj[v].len()).collect();
        let mut queue: Vec<usize> = (0..n).filter(|&v| indeg[v] == 0).collect();
        let mut removed = 0usize;
        while let Some(u) = queue.pop() {
            removed += 1;
            for &v in &self.out_adj[u] {
                indeg[v as usize] -= 1;
                if indeg[v as usize] == 0 {
                    queue.push(v as usize);
                }
            }
        }
        removed == n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph_has_no_edges() {
        let g = StaticGraph::new(3);
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 0);
        assert!(g.is_acyclic());
    }

    #[test]
    fn add_edge_grows_universe_as_needed() {
        let mut g = StaticGraph::new(0);
        g.add_edge(2, 5);
        assert_eq!(g.num_nodes(), 6);
        assert!(g.has_edge(2, 5));
        assert!(!g.has_edge(5, 2));
    }

    #[test]
    fn add_edge_unique_deduplicates() {
        let mut g = StaticGraph::new(3);
        assert!(g.add_edge_unique(0, 1));
        assert!(!g.add_edge_unique(0, 1));
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn bfs_distances_on_a_path() {
        let mut g = StaticGraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        assert_eq!(g.bfs_distances(0), vec![0, 1, 2, 3]);
        assert_eq!(g.bfs_distances(2), vec![u32::MAX, u32::MAX, 0, 1]);
    }

    #[test]
    fn bfs_prefers_shortest_route() {
        let mut g = StaticGraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(0, 2);
        g.add_edge(2, 3);
        let d = g.bfs_distances(0);
        assert_eq!(d[2], 1);
        assert_eq!(d[3], 2);
    }

    #[test]
    fn cycle_detection() {
        let mut g = StaticGraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        assert!(g.is_acyclic());
        g.add_edge(2, 0);
        assert!(!g.is_acyclic());
    }

    #[test]
    fn edges_lists_every_directed_edge() {
        let mut g = StaticGraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        let e = g.edges();
        assert_eq!(e.len(), 2);
        assert!(e.contains(&(NodeId(0), NodeId(1))));
    }
}
