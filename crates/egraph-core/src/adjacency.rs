//! [`AdjacencyListGraph`]: the primary evolving-graph representation.
//!
//! This is the Rust analogue of the `IntEvolvingGraph` type from the paper's
//! reference Julia package: nodes are dense integers, each snapshot stores
//! per-node adjacency lists, and each node keeps the sorted list of snapshots
//! at which it is active. Theorem 2's linear-time bound for Algorithm 1 is
//! stated for exactly this layout ("represented using adjacency lists").
//!
//! The structure supports *incremental* growth — new static edges (and new,
//! strictly later snapshots) can be appended at any point — which is what the
//! linear-scaling experiment of Figure 5 does when it "consecutively adds new
//! random static edges".

use core::ops::Range;

use crate::error::{GraphError, Result};
use crate::graph::{ActiveTimes, EvolvingGraph};
use crate::ids::{NodeId, TemporalNode, TimeIndex, Timestamp};

/// An evolving graph stored as per-snapshot adjacency lists plus a per-node
/// active-snapshot index.
#[derive(Clone, Debug)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct AdjacencyListGraph {
    timestamps: Vec<Timestamp>,
    num_nodes: usize,
    directed: bool,
    /// `out_adj[t][v]` = nodes `w` with a static edge `(v, w)` at snapshot `t`
    /// (for undirected graphs: all neighbors of `v` at `t`).
    out_adj: Vec<Vec<Vec<NodeId>>>,
    /// `in_adj[t][v]` = nodes `u` with a static edge `(u, v)` at snapshot `t`.
    /// Empty (and unused) for undirected graphs.
    in_adj: Vec<Vec<Vec<NodeId>>>,
    /// `active[v]` = sorted snapshot indices at which `v` is active.
    active: Vec<Vec<TimeIndex>>,
    num_static_edges: usize,
}

impl AdjacencyListGraph {
    /// Creates an empty evolving graph over `num_nodes` nodes and the given
    /// strictly increasing snapshot labels.
    pub fn new(num_nodes: usize, timestamps: Vec<Timestamp>, directed: bool) -> Result<Self> {
        for (i, w) in timestamps.windows(2).enumerate() {
            if w[0] >= w[1] {
                return Err(GraphError::UnsortedTimestamps { position: i + 1 });
            }
        }
        let n_t = timestamps.len();
        Ok(AdjacencyListGraph {
            timestamps,
            num_nodes,
            directed,
            out_adj: vec![vec![Vec::new(); num_nodes]; n_t],
            in_adj: if directed {
                vec![vec![Vec::new(); num_nodes]; n_t]
            } else {
                Vec::new()
            },
            active: vec![Vec::new(); num_nodes],
            num_static_edges: 0,
        })
    }

    /// Creates an empty *directed* evolving graph.
    pub fn directed(num_nodes: usize, timestamps: Vec<Timestamp>) -> Result<Self> {
        Self::new(num_nodes, timestamps, true)
    }

    /// Creates an empty *undirected* evolving graph.
    pub fn undirected(num_nodes: usize, timestamps: Vec<Timestamp>) -> Result<Self> {
        Self::new(num_nodes, timestamps, false)
    }

    /// Creates a directed evolving graph with snapshot labels `0..n_t` — the
    /// common case for synthetic workloads.
    pub fn directed_with_unit_times(num_nodes: usize, num_timestamps: usize) -> Self {
        Self::directed(num_nodes, (0..num_timestamps as Timestamp).collect())
            .expect("unit timestamps are strictly increasing")
    }

    /// Creates an undirected evolving graph with snapshot labels `0..n_t`.
    pub fn undirected_with_unit_times(num_nodes: usize, num_timestamps: usize) -> Self {
        Self::undirected(num_nodes, (0..num_timestamps as Timestamp).collect())
            .expect("unit timestamps are strictly increasing")
    }

    /// Builds a directed evolving graph from `(src, dst, time_index)` triples.
    pub fn from_indexed_edges(
        num_nodes: usize,
        num_timestamps: usize,
        edges: &[(u32, u32, u32)],
    ) -> Result<Self> {
        let mut g = Self::directed_with_unit_times(num_nodes, num_timestamps);
        for &(u, v, t) in edges {
            g.add_edge(NodeId(u), NodeId(v), TimeIndex(t))?;
        }
        Ok(g)
    }

    /// Builds a directed evolving graph from `(src, dst, timestamp-label)`
    /// triples, inferring the node universe and the snapshot sequence.
    pub fn from_labeled_edges(edges: &[(u32, u32, Timestamp)]) -> Result<Self> {
        let num_nodes = edges
            .iter()
            .map(|&(u, v, _)| u.max(v) as usize + 1)
            .max()
            .unwrap_or(0);
        let mut labels: Vec<Timestamp> = edges.iter().map(|&(_, _, t)| t).collect();
        labels.sort_unstable();
        labels.dedup();
        let mut g = Self::directed(num_nodes, labels)?;
        for &(u, v, t) in edges {
            let ti = g
                .time_index_of(t)
                .expect("label present by construction of the snapshot sequence");
            g.add_edge(NodeId(u), NodeId(v), ti)?;
        }
        Ok(g)
    }

    /// Appends a new snapshot with label `label`, which must be strictly later
    /// than every existing label. Returns the new snapshot's index.
    ///
    /// The snapshot sequence is append-only in time: a label **equal to** the
    /// last one (a duplicate snapshot) is rejected exactly like an earlier
    /// one, preserving the strict ordering invariant of Definition 1 that
    /// every traversal and the incremental re-search layer rely on. Labels
    /// cannot be inserted between existing snapshots retroactively; on an
    /// empty sequence any label (including negative ones) starts the
    /// sequence.
    ///
    /// # Errors
    /// [`GraphError::UnsortedTimestamps`] (with `position` = the would-be
    /// index of the rejected snapshot) if `label` is not strictly later than
    /// the last label. The graph is left unchanged.
    pub fn push_timestamp(&mut self, label: Timestamp) -> Result<TimeIndex> {
        if let Some(&last) = self.timestamps.last() {
            if label <= last {
                return Err(GraphError::UnsortedTimestamps {
                    position: self.timestamps.len(),
                });
            }
        }
        self.timestamps.push(label);
        self.out_adj.push(vec![Vec::new(); self.num_nodes]);
        if self.directed {
            self.in_adj.push(vec![Vec::new(); self.num_nodes]);
        }
        Ok(TimeIndex::from_index(self.timestamps.len() - 1))
    }

    /// Grows the node universe to at least `num_nodes` nodes.
    pub fn grow_nodes(&mut self, num_nodes: usize) {
        if num_nodes <= self.num_nodes {
            return;
        }
        for snap in &mut self.out_adj {
            snap.resize(num_nodes, Vec::new());
        }
        for snap in &mut self.in_adj {
            snap.resize(num_nodes, Vec::new());
        }
        self.active.resize(num_nodes, Vec::new());
        self.num_nodes = num_nodes;
    }

    fn check_node(&self, v: NodeId) -> Result<()> {
        if v.index() >= self.num_nodes {
            Err(GraphError::NodeOutOfRange {
                node: v,
                num_nodes: self.num_nodes,
            })
        } else {
            Ok(())
        }
    }

    fn check_time(&self, t: TimeIndex) -> Result<()> {
        if t.index() >= self.timestamps.len() {
            Err(GraphError::TimeOutOfRange {
                time: t,
                num_timestamps: self.timestamps.len(),
            })
        } else {
            Ok(())
        }
    }

    fn mark_active(&mut self, v: NodeId, t: TimeIndex) {
        let times = &mut self.active[v.index()];
        match times.binary_search(&t) {
            Ok(_) => {}
            Err(pos) => times.insert(pos, t),
        }
    }

    /// Inserts the static edge `(u, v)` at snapshot `t`, marking both end
    /// points active at `t`. Parallel edges are permitted (the structure is a
    /// temporal multigraph); self-loops are rejected because they do not make
    /// a node active (Definition 3).
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, t: TimeIndex) -> Result<()> {
        self.check_node(u)?;
        self.check_node(v)?;
        self.check_time(t)?;
        if u == v {
            return Err(GraphError::SelfLoop { node: u, time: t });
        }
        self.out_adj[t.index()][u.index()].push(v);
        if self.directed {
            self.in_adj[t.index()][v.index()].push(u);
        } else {
            self.out_adj[t.index()][v.index()].push(u);
        }
        self.mark_active(u, t);
        self.mark_active(v, t);
        self.num_static_edges += 1;
        Ok(())
    }

    /// Inserts the edge only if it is not already present; returns `true` if
    /// a new edge was inserted.
    pub fn add_edge_unique(&mut self, u: NodeId, v: NodeId, t: TimeIndex) -> Result<bool> {
        self.check_node(u)?;
        self.check_node(v)?;
        self.check_time(t)?;
        if self.has_static_edge(u, v, t) {
            return Ok(false);
        }
        self.add_edge(u, v, t)?;
        Ok(true)
    }

    /// Whether the static edge `(u, v)` exists at snapshot `t`.
    pub fn has_static_edge(&self, u: NodeId, v: NodeId, t: TimeIndex) -> bool {
        if u.index() >= self.num_nodes || t.index() >= self.timestamps.len() {
            return false;
        }
        self.out_adj[t.index()][u.index()].contains(&v)
    }

    /// Out-neighbors of `v` at snapshot `t` as a slice (no allocation) — the
    /// fast path used by [`crate::kernel::distances`].
    #[inline]
    pub fn out_slice(&self, v: NodeId, t: TimeIndex) -> &[NodeId] {
        &self.out_adj[t.index()][v.index()]
    }

    /// In-neighbors of `v` at snapshot `t` as a slice (no allocation). For
    /// undirected graphs this is the same slice as [`Self::out_slice`].
    #[inline]
    pub fn in_slice(&self, v: NodeId, t: TimeIndex) -> &[NodeId] {
        if self.directed {
            &self.in_adj[t.index()][v.index()]
        } else {
            &self.out_adj[t.index()][v.index()]
        }
    }

    /// The sorted snapshot indices at which `v` is active, as a slice.
    #[inline]
    pub fn active_slice(&self, v: NodeId) -> &[TimeIndex] {
        &self.active[v.index()]
    }

    /// Iterates over all static edges as `(src, dst, time)` triples. Each
    /// undirected edge is reported once with the end point order in which it
    /// was inserted.
    pub fn edge_triples(&self) -> Vec<(NodeId, NodeId, TimeIndex)> {
        let mut out = Vec::with_capacity(self.num_static_edges);
        for (ti, snap) in self.out_adj.iter().enumerate() {
            let t = TimeIndex::from_index(ti);
            for (vi, nbrs) in snap.iter().enumerate() {
                let v = NodeId::from_index(vi);
                for &w in nbrs {
                    if self.directed || v < w {
                        out.push((v, w, t));
                    }
                }
            }
        }
        out
    }

    /// Returns all active temporal nodes at snapshot `t`.
    pub fn active_at(&self, t: TimeIndex) -> Vec<TemporalNode> {
        (0..self.num_nodes)
            .map(NodeId::from_index)
            .filter(|&v| self.is_active(v, t))
            .map(|v| TemporalNode::new(v, t))
            .collect()
    }
}

impl EvolvingGraph for AdjacencyListGraph {
    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    fn num_timestamps(&self) -> usize {
        self.timestamps.len()
    }

    fn timestamp(&self, t: TimeIndex) -> Timestamp {
        self.timestamps[t.index()]
    }

    fn is_directed(&self) -> bool {
        self.directed
    }

    fn num_static_edges(&self) -> usize {
        self.num_static_edges
    }

    fn out_row(&self, v: NodeId, t: TimeIndex) -> &[NodeId] {
        self.out_slice(v, t)
    }

    fn in_row(&self, v: NodeId, t: TimeIndex) -> &[NodeId] {
        self.in_slice(v, t)
    }

    fn active_times_in(&self, v: NodeId, range: Range<TimeIndex>) -> ActiveTimes<'_> {
        ActiveTimes::clip(self.active_slice(v), range)
    }

    fn time_index_of(&self, timestamp: Timestamp) -> Option<TimeIndex> {
        self.timestamps
            .binary_search(&timestamp)
            .ok()
            .map(TimeIndex::from_index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_unsorted_timestamps() {
        let err = AdjacencyListGraph::directed(3, vec![1, 3, 2]).unwrap_err();
        assert_eq!(err, GraphError::UnsortedTimestamps { position: 2 });
    }

    #[test]
    fn rejects_self_loops_and_out_of_range() {
        let mut g = AdjacencyListGraph::directed_with_unit_times(3, 2);
        assert!(matches!(
            g.add_edge(NodeId(1), NodeId(1), TimeIndex(0)),
            Err(GraphError::SelfLoop { .. })
        ));
        assert!(matches!(
            g.add_edge(NodeId(5), NodeId(0), TimeIndex(0)),
            Err(GraphError::NodeOutOfRange { .. })
        ));
        assert!(matches!(
            g.add_edge(NodeId(0), NodeId(1), TimeIndex(9)),
            Err(GraphError::TimeOutOfRange { .. })
        ));
    }

    #[test]
    fn directed_insertion_updates_both_adjacency_and_activity() {
        let mut g = AdjacencyListGraph::directed_with_unit_times(4, 3);
        g.add_edge(NodeId(0), NodeId(1), TimeIndex(1)).unwrap();
        assert_eq!(g.out_slice(NodeId(0), TimeIndex(1)), &[NodeId(1)]);
        assert_eq!(g.in_slice(NodeId(1), TimeIndex(1)), &[NodeId(0)]);
        assert!(g.is_active(NodeId(0), TimeIndex(1)));
        assert!(g.is_active(NodeId(1), TimeIndex(1)));
        assert!(!g.is_active(NodeId(0), TimeIndex(0)));
        assert_eq!(g.num_static_edges(), 1);
    }

    #[test]
    fn undirected_insertion_is_symmetric() {
        let mut g = AdjacencyListGraph::undirected_with_unit_times(3, 1);
        g.add_edge(NodeId(0), NodeId(2), TimeIndex(0)).unwrap();
        assert_eq!(g.out_slice(NodeId(0), TimeIndex(0)), &[NodeId(2)]);
        assert_eq!(g.out_slice(NodeId(2), TimeIndex(0)), &[NodeId(0)]);
        assert_eq!(g.in_slice(NodeId(0), TimeIndex(0)), &[NodeId(2)]);
        assert_eq!(g.num_static_edges(), 1);
        assert_eq!(g.edge_triples().len(), 1);
    }

    #[test]
    fn add_edge_unique_deduplicates() {
        let mut g = AdjacencyListGraph::directed_with_unit_times(3, 1);
        assert!(g
            .add_edge_unique(NodeId(0), NodeId(1), TimeIndex(0))
            .unwrap());
        assert!(!g
            .add_edge_unique(NodeId(0), NodeId(1), TimeIndex(0))
            .unwrap());
        assert_eq!(g.num_static_edges(), 1);
    }

    #[test]
    fn labeled_edge_construction_infers_universe() {
        let g = AdjacencyListGraph::from_labeled_edges(&[(0, 1, 2010), (1, 2, 2012), (0, 2, 2011)])
            .unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_timestamps(), 3);
        assert_eq!(g.timestamps(), vec![2010, 2011, 2012]);
        assert!(g.has_static_edge(NodeId(1), NodeId(2), TimeIndex(2)));
        assert_eq!(g.time_index_of(2011), Some(TimeIndex(1)));
    }

    #[test]
    fn push_timestamp_appends_and_rejects_non_increasing() {
        let mut g = AdjacencyListGraph::directed(2, vec![10]).unwrap();
        let t = g.push_timestamp(20).unwrap();
        assert_eq!(t, TimeIndex(1));
        assert!(g.push_timestamp(15).is_err());
        g.add_edge(NodeId(0), NodeId(1), t).unwrap();
        assert!(g.is_active(NodeId(0), t));
    }

    #[test]
    fn push_timestamp_rejects_duplicate_labels() {
        // The live append path stresses exactly this: a duplicate label must
        // be rejected like a non-monotonic one, with the would-be position.
        let mut g = AdjacencyListGraph::directed(2, vec![10, 20]).unwrap();
        assert_eq!(
            g.push_timestamp(20).unwrap_err(),
            GraphError::UnsortedTimestamps { position: 2 }
        );
        // The failed push leaves the graph unchanged.
        assert_eq!(g.num_timestamps(), 2);
        assert_eq!(g.push_timestamp(21).unwrap(), TimeIndex(2));
    }

    #[test]
    fn push_timestamp_starts_empty_sequences_with_any_label() {
        let mut g = AdjacencyListGraph::directed(2, Vec::new()).unwrap();
        assert_eq!(g.push_timestamp(-5).unwrap(), TimeIndex(0));
        assert_eq!(g.push_timestamp(-4).unwrap(), TimeIndex(1));
        assert_eq!(g.timestamps(), vec![-5, -4]);
    }

    #[test]
    fn grow_nodes_extends_universe() {
        let mut g = AdjacencyListGraph::directed_with_unit_times(2, 2);
        g.grow_nodes(5);
        assert_eq!(g.num_nodes(), 5);
        g.add_edge(NodeId(4), NodeId(0), TimeIndex(1)).unwrap();
        assert!(g.is_active(NodeId(4), TimeIndex(1)));
    }

    #[test]
    fn active_at_reports_only_active_nodes() {
        let g = crate::examples::paper_figure1();
        let at_t1 = g.active_at(TimeIndex(0));
        assert_eq!(
            at_t1,
            vec![TemporalNode::from_raw(0, 0), TemporalNode::from_raw(1, 0)]
        );
    }
}
