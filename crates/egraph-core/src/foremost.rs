//! Earliest-arrival ("foremost") traversal and Tang-style temporal distance.
//!
//! The paper is explicit that its distance (Definition 6) counts *hops over
//! static and causal edges* and therefore "differs from the notion of
//! temporal distance in the work of Tang and coworkers, which is the number
//! of time steps between t and s (inclusive)". This module implements that
//! alternative notion so the two can be compared on the same graphs:
//!
//! * [`earliest_arrival`] — for every node, the earliest snapshot at which a
//!   temporal path from the root can arrive there (the "foremost" time);
//! * [`temporal_distance_steps`] — Tang's distance: number of time steps from
//!   the root's snapshot to the earliest arrival, inclusive;
//! * [`ForemostResult`] — both quantities for all nodes, computed in a single
//!   time-ordered sweep.
//!
//! The sweep processes snapshots in increasing order and, inside each
//! snapshot, runs a static BFS from all nodes already "infected" (reached at
//! an earlier or equal snapshot). This is the standard earliest-arrival
//! algorithm for interval-less temporal graphs and costs `O(|Ẽ| + N·n)`.

use crate::graph::EvolvingGraph;
use crate::ids::{NodeId, TemporalNode, TimeIndex};

/// Earliest-arrival information from a single root.
#[derive(Clone, Debug)]
pub struct ForemostResult {
    root: TemporalNode,
    /// `arrival[v]` = earliest snapshot index at which node `v` can be
    /// reached, or `None` if unreachable.
    arrival: Vec<Option<TimeIndex>>,
}

impl ForemostResult {
    /// Builds a result from an explicit per-node arrival vector (`arrival[v]`
    /// = arrival snapshot of node `v`, `None` if unreachable). Used by query
    /// layers that run the sweep on a composed view (time window, reversed
    /// time) and re-express the arrivals in the coordinates of the underlying
    /// graph — in which case an arrival may legitimately *precede* the root's
    /// snapshot (a reversed sweep reports latest departures).
    pub fn from_arrivals(root: TemporalNode, arrival: Vec<Option<TimeIndex>>) -> Self {
        ForemostResult { root, arrival }
    }

    /// The root of the sweep.
    pub fn root(&self) -> TemporalNode {
        self.root
    }

    /// The earliest arrival snapshot of `v`, if reachable.
    pub fn arrival(&self, v: NodeId) -> Option<TimeIndex> {
        self.arrival.get(v.index()).copied().flatten()
    }

    /// The raw per-node arrival vector (`arrivals()[v]` = arrival snapshot of
    /// node `v`, `None` if unreachable), indexed by node identifier.
    pub fn arrivals(&self) -> &[Option<TimeIndex>] {
        &self.arrival
    }

    /// Tang-style temporal distance to `v`: the number of time steps from the
    /// root's snapshot to the earliest arrival, inclusive. The root itself
    /// has distance 1 (one time step), matching the "inclusive" convention.
    ///
    /// Returns `None` if `v` is unreachable, and also if its arrival
    /// *precedes* the root's snapshot — possible for results built with
    /// [`ForemostResult::from_arrivals`] from a time-reversed sweep, where
    /// Tang's forward step count is undefined (previously this underflowed).
    pub fn temporal_distance_steps(&self, v: NodeId) -> Option<u32> {
        self.arrival(v)
            .and_then(|t| t.index().checked_sub(self.root.time.index()))
            .map(|steps| steps as u32 + 1)
    }

    /// All reachable nodes with their arrival snapshots.
    pub fn reachable(&self) -> Vec<(NodeId, TimeIndex)> {
        self.arrival
            .iter()
            .enumerate()
            .filter_map(|(v, t)| t.map(|t| (NodeId::from_index(v), t)))
            .collect()
    }

    /// Number of reachable nodes (including the root).
    pub fn num_reachable(&self) -> usize {
        self.arrival.iter().filter(|t| t.is_some()).count()
    }

    /// Re-expresses this result for a grown node universe (the *re-dimension*
    /// repair of the cache-invalidation matrix): existing arrivals keep their
    /// values — they are snapshot indices, not array positions, so appended
    /// snapshots cannot move them — and new nodes start unreachable.
    ///
    /// # Panics
    /// Debug-asserts that the node universe does not shrink.
    pub fn redimensioned(&self, num_nodes: usize) -> Self {
        debug_assert!(num_nodes >= self.arrival.len());
        let mut arrival = self.arrival.clone();
        arrival.resize(num_nodes, None);
        ForemostResult {
            root: self.root,
            arrival,
        }
    }
}

/// Computes earliest arrivals from `root` to every node.
///
/// Unlike [`crate::kernel::distances`], inactivity of the root is tolerated here (an
/// inactive root simply reaches only itself), because the foremost sweep is
/// defined node-wise rather than over active temporal nodes; the comparison
/// tests restrict themselves to active roots where both notions apply.
pub fn earliest_arrival<G: EvolvingGraph>(graph: &G, root: TemporalNode) -> ForemostResult {
    let n = graph.num_nodes();
    let n_t = graph.num_timestamps();
    let mut arrival: Vec<Option<TimeIndex>> = vec![None; n];
    if root.node.index() < n && root.time.index() < n_t {
        arrival[root.node.index()] = Some(root.time);
    } else {
        return ForemostResult { root, arrival };
    }

    // Sweep snapshots forward from the root's time. Inside a snapshot, nodes
    // reached at or before this snapshot can spread along its static edges
    // (multi-hop within the snapshot is allowed — those are same-time static
    // hops in the temporal-path sense).
    for t in root.time.index()..n_t {
        let ti = TimeIndex::from_index(t);
        // Seed: every node already reached by now.
        let mut frontier: Vec<NodeId> = arrival
            .iter()
            .enumerate()
            .filter(|(_, a)| a.map(|at| at <= ti).unwrap_or(false))
            .map(|(v, _)| NodeId::from_index(v))
            .collect();
        while let Some(u) = frontier.pop() {
            graph.for_each_static_out(u, ti, &mut |w| {
                let slot = &mut arrival[w.index()];
                if slot.map(|at| at > ti).unwrap_or(true) {
                    *slot = Some(ti);
                    frontier.push(w);
                }
            });
        }
    }
    ForemostResult { root, arrival }
}

/// Tang-style temporal distance between two nodes given a starting snapshot:
/// the number of time steps (inclusive) until `dst` can first be reached from
/// `(src, start)`.
pub fn temporal_distance_steps<G: EvolvingGraph>(
    graph: &G,
    src: NodeId,
    start: TimeIndex,
    dst: NodeId,
) -> Option<u32> {
    earliest_arrival(graph, TemporalNode::new(src, start)).temporal_distance_steps(dst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::{paper_figure1, staircase};
    use crate::kernel::distances;

    #[test]
    fn earliest_arrivals_on_the_paper_example() {
        let g = paper_figure1();
        let res = earliest_arrival(&g, TemporalNode::from_raw(0, 0));
        // Node 2 (paper 3) is first reachable at t2 via 1 → 3.
        assert_eq!(res.arrival(NodeId(2)), Some(TimeIndex(1)));
        // Node 1 (paper 2) is reached immediately at t1.
        assert_eq!(res.arrival(NodeId(1)), Some(TimeIndex(0)));
        assert_eq!(res.arrival(NodeId(0)), Some(TimeIndex(0)));
        assert_eq!(res.num_reachable(), 3);
    }

    #[test]
    fn tang_distance_differs_from_hop_distance() {
        // The paper's point: the two notions measure different things.
        let g = paper_figure1();
        let root = TemporalNode::from_raw(0, 0);
        let hops = distances(&g, root, false, usize::MAX).unwrap();
        let foremost = earliest_arrival(&g, root);
        // Hop distance to (3, t2) is 2 (causal + static); Tang distance to
        // node 3 is 2 time steps (t1 and t2, inclusive).
        assert_eq!(hops.distance(TemporalNode::from_raw(2, 1)), Some(2));
        assert_eq!(foremost.temporal_distance_steps(NodeId(2)), Some(2));
        // Hop distance to (2, t3) is 2, but Tang distance to node 2 is 1
        // (already reached in the first time step).
        assert_eq!(hops.distance(TemporalNode::from_raw(1, 2)), Some(2));
        assert_eq!(foremost.temporal_distance_steps(NodeId(1)), Some(1));
    }

    #[test]
    fn foremost_reachability_equals_bfs_node_reachability() {
        // The *set* of reachable node identifiers must agree with Algorithm 1
        // even though the distances differ.
        let g = paper_figure1();
        for &root in &g.active_nodes() {
            let via_bfs: std::collections::BTreeSet<NodeId> =
                distances(&g, root, false, usize::MAX)
                    .unwrap()
                    .reached_node_ids()
                    .into_iter()
                    .collect();
            let via_foremost: std::collections::BTreeSet<NodeId> = earliest_arrival(&g, root)
                .reachable()
                .into_iter()
                .map(|(v, _)| v)
                .collect();
            assert_eq!(via_bfs, via_foremost, "root {root:?}");
        }
    }

    #[test]
    fn staircase_arrivals_advance_one_snapshot_per_node() {
        let g = staircase(5);
        let res = earliest_arrival(&g, TemporalNode::from_raw(0, 0));
        for i in 1..5u32 {
            assert_eq!(res.arrival(NodeId(i)), Some(TimeIndex(i - 1)));
            assert_eq!(res.temporal_distance_steps(NodeId(i)), Some(i));
        }
    }

    #[test]
    fn multi_hop_within_one_snapshot_is_allowed() {
        // 0 → 1 and 1 → 2 both at t0: node 2 is reachable already at t0.
        let mut g = crate::adjacency::AdjacencyListGraph::directed_with_unit_times(3, 2);
        g.add_edge(NodeId(0), NodeId(1), TimeIndex(0)).unwrap();
        g.add_edge(NodeId(1), NodeId(2), TimeIndex(0)).unwrap();
        let res = earliest_arrival(&g, TemporalNode::from_raw(0, 0));
        assert_eq!(res.arrival(NodeId(2)), Some(TimeIndex(0)));
        assert_eq!(
            temporal_distance_steps(&g, NodeId(0), TimeIndex(0), NodeId(2)),
            Some(1)
        );
    }

    #[test]
    fn out_of_range_roots_reach_nothing() {
        let g = paper_figure1();
        let res = earliest_arrival(&g, TemporalNode::from_raw(9, 0));
        assert_eq!(res.num_reachable(), 0);
    }

    #[test]
    fn arrivals_before_the_root_snapshot_yield_no_step_count() {
        // Regression: with an arrival earlier than the root's snapshot (as a
        // reversed sweep produces once mapped back to original coordinates),
        // `t.index() - root.time.index()` used to underflow — panicking in
        // debug builds and wrapping to a huge step count in release builds.
        let root = TemporalNode::from_raw(0, 2);
        let res =
            ForemostResult::from_arrivals(root, vec![Some(TimeIndex(2)), Some(TimeIndex(0)), None]);
        assert_eq!(res.temporal_distance_steps(NodeId(0)), Some(1));
        assert_eq!(res.temporal_distance_steps(NodeId(1)), None);
        assert_eq!(res.temporal_distance_steps(NodeId(2)), None);
    }

    #[test]
    fn from_arrivals_round_trips_the_sweep() {
        let g = paper_figure1();
        let root = TemporalNode::from_raw(0, 0);
        let swept = earliest_arrival(&g, root);
        let arrivals: Vec<Option<TimeIndex>> = (0..g.num_nodes())
            .map(|v| swept.arrival(NodeId::from_index(v)))
            .collect();
        let rebuilt = ForemostResult::from_arrivals(root, arrivals);
        assert_eq!(rebuilt.reachable(), swept.reachable());
        assert_eq!(rebuilt.num_reachable(), swept.num_reachable());
    }
}
