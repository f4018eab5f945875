//! The [`EvolvingGraph`] trait: the abstract interface every evolving-graph
//! representation implements.
//!
//! An evolving graph (Definition 1) is a time-ordered sequence of static
//! graphs `G_n = ⟨G[1], …, G[n]⟩` with strictly increasing time labels. The
//! trait exposes exactly the queries the traversal algorithms need:
//!
//! * the node universe and snapshot sequence,
//! * the static edges incident to a node at a snapshot,
//! * the snapshots at which a node is *active* (Definition 3), and
//! * the derived *forward* / *backward* neighbor relations (Definition 5)
//!   that combine static edges with causal edges.
//!
//! Neighbor enumeration uses callback-style visitors (`&mut dyn FnMut`) so
//! that view adaptors (time windows, reversed time) can implement the trait
//! without allocating, while remaining object safe.

use crate::ids::{CausalEdge, NodeId, StaticEdge, TemporalNode, TimeIndex, Timestamp};

/// Abstract interface over evolving-graph representations.
///
/// Implementations must uphold the following invariants, which the traversal
/// algorithms rely on:
///
/// * snapshot labels are strictly increasing in [`TimeIndex`] order;
/// * `for_each_static_out`/`in` never report self-loops;
/// * `for_each_active_time` reports snapshot indices in increasing order and
///   reports exactly the snapshots at which the node has at least one
///   incident static edge (Definition 3).
///
/// Every graph is `Sync`: the traversal kernel ([`crate::kernel`]) may
/// expand a wide BFS level across the rayon pool.
pub trait EvolvingGraph: Sync {
    /// Size of the node universe. Valid node identifiers are `0..num_nodes`.
    fn num_nodes(&self) -> usize;

    /// Number of snapshots `n` in the sequence.
    fn num_timestamps(&self) -> usize;

    /// The time label of snapshot `t`.
    ///
    /// # Panics
    /// May panic if `t` is out of range.
    fn timestamp(&self, t: TimeIndex) -> Timestamp;

    /// Whether edges are directed. Undirected graphs report each static edge
    /// from both end points.
    fn is_directed(&self) -> bool;

    /// Total number of static edges `|Ẽ|` (each undirected edge counted once).
    fn num_static_edges(&self) -> usize;

    /// Visits every node `w` such that the static edge `(v, w)` exists in
    /// snapshot `t` (for undirected graphs: every neighbor of `v` at `t`).
    fn for_each_static_out(&self, v: NodeId, t: TimeIndex, f: &mut dyn FnMut(NodeId));

    /// Visits every node `u` such that the static edge `(u, v)` exists in
    /// snapshot `t` (for undirected graphs this coincides with
    /// [`EvolvingGraph::for_each_static_out`]).
    fn for_each_static_in(&self, v: NodeId, t: TimeIndex, f: &mut dyn FnMut(NodeId));

    /// Visits, in increasing order, every snapshot index at which `v` is an
    /// active node.
    fn for_each_active_time(&self, v: NodeId, f: &mut dyn FnMut(TimeIndex));

    // ------------------------------------------------------------------
    // Provided methods
    // ------------------------------------------------------------------

    /// All snapshot labels, earliest first.
    fn timestamps(&self) -> Vec<Timestamp> {
        (0..self.num_timestamps())
            .map(|i| self.timestamp(TimeIndex::from_index(i)))
            .collect()
    }

    /// Resolves a time label to its snapshot index, if present.
    ///
    /// Labels are strictly increasing in [`TimeIndex`] order (a trait
    /// invariant), so the lookup is a binary search: `O(log n)` calls to
    /// [`EvolvingGraph::timestamp`] instead of a linear scan.
    fn time_index_of(&self, timestamp: Timestamp) -> Option<TimeIndex> {
        let mut lo = 0usize;
        let mut hi = self.num_timestamps();
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.timestamp(TimeIndex::from_index(mid)).cmp(&timestamp) {
                core::cmp::Ordering::Equal => return Some(TimeIndex::from_index(mid)),
                core::cmp::Ordering::Less => lo = mid + 1,
                core::cmp::Ordering::Greater => hi = mid,
            }
        }
        None
    }

    /// Whether the temporal node `(v, t)` is active (Definition 3): it has at
    /// least one incident static edge at snapshot `t`.
    fn is_active(&self, v: NodeId, t: TimeIndex) -> bool {
        let mut active = false;
        self.for_each_active_time(v, &mut |ti| {
            if ti == t {
                active = true;
            }
        });
        active
    }

    /// The snapshots at which `v` is active, in increasing order.
    fn active_times(&self, v: NodeId) -> Vec<TimeIndex> {
        let mut out = Vec::new();
        self.for_each_active_time(v, &mut |t| out.push(t));
        out
    }

    /// All active temporal nodes of the graph — the node set `V` of the
    /// equivalent static graph in Theorem 1.
    fn active_nodes(&self) -> Vec<TemporalNode> {
        let mut out = Vec::new();
        for v in 0..self.num_nodes() {
            let node = NodeId::from_index(v);
            self.for_each_active_time(node, &mut |t| out.push(TemporalNode::new(node, t)));
        }
        out
    }

    /// Number of active temporal nodes `|V|`.
    fn num_active_nodes(&self) -> usize {
        let mut count = 0usize;
        for v in 0..self.num_nodes() {
            self.for_each_active_time(NodeId::from_index(v), &mut |_| count += 1);
        }
        count
    }

    /// The out-neighbors of `v` along static edges of snapshot `t`.
    fn static_out_neighbors(&self, v: NodeId, t: TimeIndex) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.for_each_static_out(v, t, &mut |w| out.push(w));
        out
    }

    /// The in-neighbors of `v` along static edges of snapshot `t`.
    fn static_in_neighbors(&self, v: NodeId, t: TimeIndex) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.for_each_static_in(v, t, &mut |w| out.push(w));
        out
    }

    /// Visits every *forward neighbor* (Definition 5) of the temporal node
    /// `(v, t)`:
    ///
    /// * `(w, t)` for every static edge `(v, w)` in snapshot `t`, and
    /// * `(v, t′)` for every later snapshot `t′ > t` at which `v` is active
    ///   (the causal edges `E′` of Theorem 1).
    ///
    /// If `(v, t)` is inactive nothing is visited — temporal paths cannot
    /// start at an inactive node (Definition 4).
    fn for_each_forward_neighbor(&self, tn: TemporalNode, f: &mut dyn FnMut(TemporalNode)) {
        if !self.is_active(tn.node, tn.time) {
            return;
        }
        self.for_each_static_out(tn.node, tn.time, &mut |w| {
            f(TemporalNode::new(w, tn.time));
        });
        self.for_each_active_time(tn.node, &mut |t| {
            if t > tn.time {
                f(TemporalNode::new(tn.node, t));
            }
        });
    }

    /// Visits every *backward neighbor* of `(v, t)`: the temporal nodes of
    /// which `(v, t)` is a forward neighbor. Used by the backward-in-time
    /// searches of Section V.
    fn for_each_backward_neighbor(&self, tn: TemporalNode, f: &mut dyn FnMut(TemporalNode)) {
        if !self.is_active(tn.node, tn.time) {
            return;
        }
        self.for_each_static_in(tn.node, tn.time, &mut |u| {
            f(TemporalNode::new(u, tn.time));
        });
        self.for_each_active_time(tn.node, &mut |t| {
            if t < tn.time {
                f(TemporalNode::new(tn.node, t));
            }
        });
    }

    /// The forward neighbors of `(v, t)` collected into a vector.
    fn forward_neighbors(&self, tn: TemporalNode) -> Vec<TemporalNode> {
        let mut out = Vec::new();
        self.for_each_forward_neighbor(tn, &mut |x| out.push(x));
        out
    }

    /// The backward neighbors of `(v, t)` collected into a vector.
    fn backward_neighbors(&self, tn: TemporalNode) -> Vec<TemporalNode> {
        let mut out = Vec::new();
        self.for_each_backward_neighbor(tn, &mut |x| out.push(x));
        out
    }

    /// All static edges with their time labels — the set `Ẽ` of Theorem 1.
    /// For undirected graphs each edge appears once, with `src < dst`.
    fn static_edges(&self) -> Vec<StaticEdge> {
        let mut out = Vec::new();
        for t in 0..self.num_timestamps() {
            let t = TimeIndex::from_index(t);
            for v in 0..self.num_nodes() {
                let v = NodeId::from_index(v);
                self.for_each_static_out(v, t, &mut |w| {
                    if self.is_directed() || v < w {
                        out.push(StaticEdge::new(v, w, t));
                    }
                });
            }
        }
        out
    }

    /// All causal edges `E′`: for each node, every ordered pair of distinct
    /// active snapshots `(s, t)` with `s < t` (Theorem 1).
    ///
    /// The size of this set is quadratic in the number of active snapshots
    /// per node; algorithms never materialise it, but it is the ground truth
    /// against which the implicit traversal is tested.
    fn causal_edges(&self) -> Vec<CausalEdge> {
        let mut out = Vec::new();
        for v in 0..self.num_nodes() {
            let v = NodeId::from_index(v);
            let times = self.active_times(v);
            for (i, &s) in times.iter().enumerate() {
                for &t in &times[i + 1..] {
                    out.push(CausalEdge::new(v, s, t));
                }
            }
        }
        out
    }

    /// Number of edges `|E| = |Ẽ| + |E′|` of the equivalent static graph
    /// (directed case; undirected static edges count twice as in the proof of
    /// Theorem 1).
    fn num_equivalent_edges(&self) -> usize {
        let static_edges = if self.is_directed() {
            self.num_static_edges()
        } else {
            2 * self.num_static_edges()
        };
        static_edges + self.causal_edges().len()
    }
}

/// Blanket implementation so `&G` can be handed to algorithms generic over
/// `G: EvolvingGraph`.
impl<G: EvolvingGraph + ?Sized> EvolvingGraph for &G {
    fn num_nodes(&self) -> usize {
        (**self).num_nodes()
    }
    fn num_timestamps(&self) -> usize {
        (**self).num_timestamps()
    }
    fn timestamp(&self, t: TimeIndex) -> Timestamp {
        (**self).timestamp(t)
    }
    fn is_directed(&self) -> bool {
        (**self).is_directed()
    }
    fn num_static_edges(&self) -> usize {
        (**self).num_static_edges()
    }
    fn for_each_static_out(&self, v: NodeId, t: TimeIndex, f: &mut dyn FnMut(NodeId)) {
        (**self).for_each_static_out(v, t, f)
    }
    fn for_each_static_in(&self, v: NodeId, t: TimeIndex, f: &mut dyn FnMut(NodeId)) {
        (**self).for_each_static_in(v, t, f)
    }
    fn for_each_active_time(&self, v: NodeId, f: &mut dyn FnMut(TimeIndex)) {
        (**self).for_each_active_time(v, f)
    }
    fn is_active(&self, v: NodeId, t: TimeIndex) -> bool {
        (**self).is_active(v, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjacency::AdjacencyListGraph;

    fn figure1() -> AdjacencyListGraph {
        crate::examples::paper_figure1()
    }

    #[test]
    fn forward_neighbors_of_paper_example_match_section_ii() {
        let g = figure1();
        // "the forward neighbors of (1, t1) are (2, t1) and (1, t2)"
        let mut fwd = g.forward_neighbors(TemporalNode::from_raw(0, 0));
        fwd.sort();
        assert_eq!(
            fwd,
            vec![TemporalNode::from_raw(1, 0), TemporalNode::from_raw(0, 1)]
                .into_iter()
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect::<Vec<_>>()
        );
        // "the only forward neighbor of (2, t1) is (2, t3)"
        let fwd = g.forward_neighbors(TemporalNode::from_raw(1, 0));
        assert_eq!(fwd, vec![TemporalNode::from_raw(1, 2)]);
    }

    #[test]
    fn inactive_nodes_have_no_forward_neighbors() {
        let g = figure1();
        // (3, t1) is inactive in the paper's example.
        assert!(!g.is_active(NodeId(2), TimeIndex(0)));
        assert!(g.forward_neighbors(TemporalNode::from_raw(2, 0)).is_empty());
        assert!(g
            .backward_neighbors(TemporalNode::from_raw(2, 0))
            .is_empty());
    }

    #[test]
    fn active_nodes_match_paper_listing() {
        let g = figure1();
        let mut active = g.active_nodes();
        active.sort();
        let mut expected = vec![
            TemporalNode::from_raw(0, 0),
            TemporalNode::from_raw(1, 0),
            TemporalNode::from_raw(0, 1),
            TemporalNode::from_raw(2, 1),
            TemporalNode::from_raw(1, 2),
            TemporalNode::from_raw(2, 2),
        ];
        expected.sort();
        assert_eq!(active, expected);
        assert_eq!(g.num_active_nodes(), 6);
    }

    #[test]
    fn causal_edges_match_paper_listing() {
        let g = figure1();
        let mut causal = g.causal_edges();
        causal.sort();
        let mut expected = vec![
            CausalEdge::new(NodeId(0), TimeIndex(0), TimeIndex(1)),
            CausalEdge::new(NodeId(1), TimeIndex(0), TimeIndex(2)),
            CausalEdge::new(NodeId(2), TimeIndex(1), TimeIndex(2)),
        ];
        expected.sort();
        assert_eq!(causal, expected);
    }

    #[test]
    fn equivalent_edge_count_matches_figure4() {
        let g = figure1();
        // |Ẽ| = 3 static edges, |E'| = 3 causal edges.
        assert_eq!(g.num_static_edges(), 3);
        assert_eq!(g.num_equivalent_edges(), 6);
    }

    #[test]
    fn backward_neighbors_invert_forward_neighbors() {
        let g = figure1();
        for &a in &g.active_nodes() {
            for &b in &g.forward_neighbors(a) {
                assert!(
                    g.backward_neighbors(b).contains(&a),
                    "{a:?} -> {b:?} not inverted"
                );
            }
        }
    }

    #[test]
    fn time_index_of_resolves_labels() {
        let g = figure1();
        assert_eq!(g.time_index_of(1), Some(TimeIndex(0)));
        assert_eq!(g.time_index_of(3), Some(TimeIndex(2)));
        assert_eq!(g.time_index_of(99), None);
    }

    #[test]
    fn time_index_of_binary_search_agrees_with_linear_scan() {
        // Sparse labels with gaps exercise every branch of the search.
        let labels: Vec<i64> = vec![-40, -7, 0, 3, 4, 19, 100, 1000];
        let g = AdjacencyListGraph::directed(1, labels.clone()).unwrap();
        for probe in -45i64..1005 {
            let linear = labels
                .iter()
                .position(|&l| l == probe)
                .map(TimeIndex::from_index);
            assert_eq!(g.time_index_of(probe), linear, "label {probe}");
        }
    }

    #[test]
    fn time_index_of_handles_empty_sequences() {
        let g = AdjacencyListGraph::directed(1, Vec::new()).unwrap();
        assert_eq!(g.time_index_of(0), None);
    }
}
