//! [`SnapshotSequence`]: an evolving graph stored literally as the paper's
//! Definition 1 — a vector of static graphs with time labels.
//!
//! This representation is convenient when snapshots arrive whole (one static
//! graph per epoch, as in citation networks aggregated by year) and when the
//! per-snapshot adjacency matrices `A[t]` of Section III are needed: each
//! snapshot is already an independent static graph.
//!
//! Activeness information is derived lazily and cached, so query performance
//! matches [`crate::adjacency::AdjacencyListGraph`] once the cache is warm.

use crate::error::{GraphError, Result};
use crate::graph::EvolvingGraph;
use crate::ids::{NodeId, TimeIndex, Timestamp};
use crate::static_graph::StaticGraph;

/// One snapshot of an evolving graph: a static graph plus its time label.
#[derive(Clone, Debug)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Snapshot {
    /// The time label `t`.
    pub label: Timestamp,
    /// The static graph `G[t]`.
    pub graph: StaticGraph,
}

/// An evolving graph as a time-ordered sequence of static graphs.
#[derive(Clone, Debug)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SnapshotSequence {
    snapshots: Vec<Snapshot>,
    num_nodes: usize,
    directed: bool,
    /// Cached sorted active snapshot indices per node.
    active: Vec<Vec<TimeIndex>>,
    num_static_edges: usize,
}

impl SnapshotSequence {
    /// Builds a snapshot sequence from `(label, static graph)` pairs.
    ///
    /// Labels must be strictly increasing. The node universe is the maximum
    /// node universe over all snapshots.
    pub fn new(directed: bool, snapshots: Vec<(Timestamp, StaticGraph)>) -> Result<Self> {
        for (i, w) in snapshots.windows(2).enumerate() {
            if w[0].0 >= w[1].0 {
                return Err(GraphError::UnsortedTimestamps { position: i + 1 });
            }
        }
        let num_nodes = snapshots
            .iter()
            .map(|(_, g)| g.num_nodes())
            .max()
            .unwrap_or(0);
        let num_static_edges = snapshots.iter().map(|(_, g)| g.num_edges()).sum();
        let snapshots: Vec<Snapshot> = snapshots
            .into_iter()
            .map(|(label, graph)| Snapshot { label, graph })
            .collect();

        // Precompute activeness: a node is active at t iff it has at least
        // one incident edge (to a *different* node) in snapshot t.
        let mut active = vec![Vec::new(); num_nodes];
        for (ti, snap) in snapshots.iter().enumerate() {
            let t = TimeIndex::from_index(ti);
            // Indexed on purpose: the loop is bounded by the snapshot's node
            // count, which may be smaller than the universe `active` spans.
            #[allow(clippy::needless_range_loop)]
            for v in 0..snap.graph.num_nodes() {
                let incident = snap
                    .graph
                    .out_neighbors(v)
                    .iter()
                    .chain(snap.graph.in_neighbors(v).iter())
                    .any(|&w| w as usize != v);
                if incident {
                    active[v].push(t);
                }
            }
        }

        Ok(SnapshotSequence {
            snapshots,
            num_nodes,
            directed,
            active,
            num_static_edges,
        })
    }

    /// Builds a directed sequence from `(src, dst, time_index)` triples.
    pub fn from_indexed_edges(
        num_nodes: usize,
        num_timestamps: usize,
        edges: &[(u32, u32, u32)],
    ) -> Result<Self> {
        let mut graphs: Vec<StaticGraph> = (0..num_timestamps)
            .map(|_| {
                let mut g = StaticGraph::new(num_nodes);
                g.grow(num_nodes);
                g
            })
            .collect();
        for &(u, v, t) in edges {
            if t as usize >= num_timestamps {
                return Err(GraphError::TimeOutOfRange {
                    time: TimeIndex(t),
                    num_timestamps,
                });
            }
            if u == v {
                return Err(GraphError::SelfLoop {
                    node: NodeId(u),
                    time: TimeIndex(t),
                });
            }
            graphs[t as usize].add_edge(u as usize, v as usize);
        }
        Self::new(
            true,
            graphs
                .into_iter()
                .enumerate()
                .map(|(i, g)| (i as Timestamp, g))
                .collect(),
        )
    }

    /// Access to one snapshot.
    pub fn snapshot(&self, t: TimeIndex) -> &Snapshot {
        &self.snapshots[t.index()]
    }

    /// All snapshots in time order.
    pub fn snapshots(&self) -> &[Snapshot] {
        &self.snapshots
    }

    /// The per-snapshot static graph (the `G[t]` of Definition 1).
    pub fn static_graph_at(&self, t: TimeIndex) -> &StaticGraph {
        &self.snapshots[t.index()].graph
    }
}

impl EvolvingGraph for SnapshotSequence {
    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    fn num_timestamps(&self) -> usize {
        self.snapshots.len()
    }

    fn timestamp(&self, t: TimeIndex) -> Timestamp {
        self.snapshots[t.index()].label
    }

    fn is_directed(&self) -> bool {
        self.directed
    }

    fn num_static_edges(&self) -> usize {
        self.num_static_edges
    }

    fn for_each_static_out(&self, v: NodeId, t: TimeIndex, f: &mut dyn FnMut(NodeId)) {
        let g = &self.snapshots[t.index()].graph;
        if v.index() < g.num_nodes() {
            for &w in g.out_neighbors(v.index()) {
                f(NodeId(w));
            }
            if !self.directed {
                for &w in g.in_neighbors(v.index()) {
                    f(NodeId(w));
                }
            }
        }
    }

    fn for_each_static_in(&self, v: NodeId, t: TimeIndex, f: &mut dyn FnMut(NodeId)) {
        let g = &self.snapshots[t.index()].graph;
        if v.index() < g.num_nodes() {
            for &w in g.in_neighbors(v.index()) {
                f(NodeId(w));
            }
            if !self.directed {
                for &w in g.out_neighbors(v.index()) {
                    f(NodeId(w));
                }
            }
        }
    }

    fn for_each_active_time(&self, v: NodeId, f: &mut dyn FnMut(TimeIndex)) {
        if v.index() < self.active.len() {
            for &t in &self.active[v.index()] {
                f(t);
            }
        }
    }

    fn is_active(&self, v: NodeId, t: TimeIndex) -> bool {
        v.index() < self.active.len() && self.active[v.index()].binary_search(&t).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::TemporalNode;
    use crate::kernel::distances;

    /// The Figure 1 example expressed as a snapshot sequence.
    fn figure1_snapshots() -> SnapshotSequence {
        let mut g1 = StaticGraph::new(3);
        g1.add_edge(0, 1);
        let mut g2 = StaticGraph::new(3);
        g2.add_edge(0, 2);
        let mut g3 = StaticGraph::new(3);
        g3.add_edge(1, 2);
        SnapshotSequence::new(true, vec![(1, g1), (2, g2), (3, g3)]).unwrap()
    }

    #[test]
    fn construction_computes_activeness() {
        let g = figure1_snapshots();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_static_edges(), 3);
        assert!(g.is_active(NodeId(0), TimeIndex(0)));
        assert!(!g.is_active(NodeId(2), TimeIndex(0)));
        assert_eq!(g.active_times(NodeId(2)), vec![TimeIndex(1), TimeIndex(2)]);
    }

    #[test]
    fn rejects_unsorted_labels() {
        let err = SnapshotSequence::new(
            true,
            vec![(3, StaticGraph::new(1)), (2, StaticGraph::new(1))],
        )
        .unwrap_err();
        assert!(matches!(err, GraphError::UnsortedTimestamps { .. }));
    }

    #[test]
    fn bfs_agrees_with_adjacency_list_representation() {
        let snap = figure1_snapshots();
        let adj = crate::examples::paper_figure1();
        let root = TemporalNode::from_raw(0, 0);
        let a = distances(&snap, root, false, usize::MAX).unwrap();
        let b = distances(&adj, root, false, usize::MAX).unwrap();
        assert_eq!(a.as_flat_slice(), b.as_flat_slice());
    }

    #[test]
    fn from_indexed_edges_matches_manual_construction() {
        let g =
            SnapshotSequence::from_indexed_edges(3, 3, &[(0, 1, 0), (0, 2, 1), (1, 2, 2)]).unwrap();
        let manual = figure1_snapshots();
        assert_eq!(g.num_static_edges(), manual.num_static_edges());
        assert_eq!(g.active_nodes(), manual.active_nodes());
    }

    #[test]
    fn from_indexed_edges_rejects_bad_input() {
        assert!(matches!(
            SnapshotSequence::from_indexed_edges(3, 2, &[(0, 1, 5)]).unwrap_err(),
            GraphError::TimeOutOfRange { .. }
        ));
        assert!(matches!(
            SnapshotSequence::from_indexed_edges(3, 2, &[(1, 1, 0)]).unwrap_err(),
            GraphError::SelfLoop { .. }
        ));
    }

    #[test]
    fn undirected_sequence_reports_edges_both_ways() {
        let mut g0 = StaticGraph::new(2);
        g0.add_edge(0, 1);
        let seq = SnapshotSequence::new(false, vec![(0, g0)]).unwrap();
        assert_eq!(
            seq.static_out_neighbors(NodeId(1), TimeIndex(0)),
            vec![NodeId(0)]
        );
        assert!(seq.is_active(NodeId(1), TimeIndex(0)));
    }

    #[test]
    fn snapshot_accessors_expose_static_graphs() {
        let g = figure1_snapshots();
        assert_eq!(g.snapshot(TimeIndex(0)).label, 1);
        assert!(g.static_graph_at(TimeIndex(2)).has_edge(1, 2));
        assert_eq!(g.snapshots().len(), 3);
    }
}
