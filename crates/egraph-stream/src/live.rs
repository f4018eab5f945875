//! [`LiveGraph`]: an evolving graph that is still evolving.
//!
//! The rest of the workspace searches graphs that were built up front; a
//! `LiveGraph` is the production shape — a CSR-flattened serve graph
//! ([`CsrAdjacency`]) grown through an append-only event API:
//!
//! * [`LiveGraph::apply`] buffers an [`EdgeEvent`] into the *open* snapshot,
//! * [`LiveGraph::seal_snapshot`] publishes the open snapshot under a
//!   strictly later time label, making it visible to every search.
//!
//! Searches (and the [`EvolvingGraph`] view this type implements) only ever
//! see **sealed** data, so a half-ingested batch can never leak into a
//! result. Every seal bumps a monotonically increasing [`version`] stamp —
//! the invalidation token the [`QueryCache`](crate::QueryCache) keys on —
//! and records which nodes the snapshot *touched* (its active set), which is
//! exactly the delta the incremental re-search extension needs.
//!
//! Sealing is also what lets the serve graph be CSR-flat in the first
//! place: a sealed snapshot's neighbor lists never change again, so each
//! seal appends one contiguous region to the flat neighbor pool
//! ([`CsrAdjacency::append_snapshot`]) instead of scattering per-node `Vec`s
//! across the heap. Every traversal a query layer runs against
//! [`LiveGraph::graph`] — BFS, parallel BFS, the foremost sweep, the
//! resumable extensions — walks that contiguous layout.
//!
//! [`version`]: LiveGraph::version

use std::collections::HashSet;
use std::ops::Range;

use egraph_core::csr::CsrAdjacency;
use egraph_core::error::{GraphError, Result};
use egraph_core::graph::{ActiveTimes, EvolvingGraph};
use egraph_core::ids::{NodeId, TimeIndex, Timestamp};

use crate::event::EdgeEvent;

/// An append-only live evolving graph with an open-snapshot event buffer.
#[derive(Debug)]
pub struct LiveGraph {
    graph: CsrAdjacency,
    /// Process-unique instance identity (see [`LiveGraph::graph_id`]).
    graph_id: u64,
    /// Bumped on every successful [`LiveGraph::seal_snapshot`].
    version: u64,
    /// `touched[t]` = sorted, deduplicated nodes active at sealed snapshot
    /// `t` — the per-snapshot delta handed to the resumable engines.
    touched: Vec<Vec<NodeId>>,
    /// Events buffered for the open snapshot.
    pending: Vec<EdgeEvent>,
    /// Node-universe size after the open snapshot's `GrowNodes` events.
    pending_nodes: usize,
}

/// A clone is a *new* live graph that may diverge from the original, so it
/// gets a fresh [`LiveGraph::graph_id`] — a cache bound to the original will
/// not serve (or corrupt itself with) the clone's history.
impl Clone for LiveGraph {
    fn clone(&self) -> Self {
        LiveGraph {
            graph: self.graph.clone(),
            graph_id: next_graph_id(),
            version: self.version,
            touched: self.touched.clone(),
            pending: self.pending.clone(),
            pending_nodes: self.pending_nodes,
        }
    }
}

/// Process-wide counter behind [`LiveGraph::graph_id`].
fn next_graph_id() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl LiveGraph {
    /// Creates a live graph over `num_nodes` nodes with no sealed snapshot
    /// yet. Directed unless [`LiveGraph::undirected`] is used.
    pub fn directed(num_nodes: usize) -> Self {
        Self::from_csr(CsrAdjacency::new(num_nodes, true))
    }

    /// Creates an undirected live graph with no sealed snapshot yet.
    pub fn undirected(num_nodes: usize) -> Self {
        Self::from_csr(CsrAdjacency::new(num_nodes, false))
    }

    /// Adopts an existing graph as the sealed history (version 0),
    /// flattening it into the CSR serve layout and deriving the
    /// per-snapshot touched sets from its activeness index. Subsequent
    /// events append to it.
    pub fn from_graph<G: EvolvingGraph>(graph: &G) -> Self {
        Self::from_csr(CsrAdjacency::from_graph(graph))
    }

    /// Adopts an already-flattened graph as the sealed history (version 0).
    pub fn from_csr(graph: CsrAdjacency) -> Self {
        let touched = (0..graph.num_timestamps())
            .map(|t| {
                graph
                    .active_at(TimeIndex::from_index(t))
                    .into_iter()
                    .map(|tn| tn.node)
                    .collect()
            })
            .collect();
        let pending_nodes = graph.num_nodes();
        LiveGraph {
            graph,
            graph_id: next_graph_id(),
            version: 0,
            touched,
            pending: Vec::new(),
            pending_nodes,
        }
    }

    /// Adopts a graph restored from a checkpoint: like
    /// [`LiveGraph::from_csr`], but pins the version stamp the graph was
    /// serialized at instead of 0, so cached descriptors keyed on the
    /// monotone version re-validate exactly as they would have against the
    /// original instance's history.
    pub fn from_csr_at_version(graph: CsrAdjacency, version: u64) -> Self {
        let mut live = Self::from_csr(graph);
        live.version = version;
        live
    }

    /// A process-unique identity for this live graph *instance*. Two
    /// `LiveGraph`s never share an id — clones included, since a clone may
    /// diverge while keeping the same [`LiveGraph::version`]. The
    /// [`QueryCache`](crate::QueryCache) binds entries to this id so one
    /// graph's results can never answer (or be corrupted by) another's.
    pub fn graph_id(&self) -> u64 {
        self.graph_id
    }

    /// The sealed serve graph — the CSR-flattened layout every search runs
    /// against. The open snapshot's buffered events are *not* part of it.
    pub fn graph(&self) -> &CsrAdjacency {
        &self.graph
    }

    /// Monotonically increasing version stamp: the number of seals applied
    /// to this graph (adopting an existing history counts as version 0).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of sealed snapshots.
    pub fn num_sealed(&self) -> usize {
        self.graph.num_timestamps()
    }

    /// Number of events buffered in the open snapshot.
    pub fn num_pending(&self) -> usize {
        self.pending.len()
    }

    /// The sorted node set sealed snapshot `t` touched (its active nodes).
    ///
    /// # Panics
    /// Panics if `t` is not a sealed snapshot.
    pub fn touched_at(&self, t: TimeIndex) -> &[NodeId] {
        &self.touched[t.index()]
    }

    /// Buffers one event into the open snapshot.
    ///
    /// Validation happens here — against the universe the open snapshot will
    /// have, i.e. including earlier buffered `GrowNodes` events — so a bad
    /// event is rejected immediately instead of poisoning a later seal.
    ///
    /// # Errors
    /// [`GraphError::SelfLoop`] (reported at the open snapshot's index) and
    /// [`GraphError::NodeOutOfRange`] exactly as a direct edge insertion
    /// would report them.
    pub fn apply(&mut self, event: EdgeEvent) -> Result<()> {
        match event {
            EdgeEvent::Insert { src, dst } | EdgeEvent::InsertUnique { src, dst } => {
                if src == dst {
                    return Err(GraphError::SelfLoop {
                        node: src,
                        time: TimeIndex::from_index(self.num_sealed()),
                    });
                }
                for v in [src, dst] {
                    if v.index() >= self.pending_nodes {
                        return Err(GraphError::NodeOutOfRange {
                            node: v,
                            num_nodes: self.pending_nodes,
                        });
                    }
                }
            }
            EdgeEvent::GrowNodes { num_nodes } => {
                self.pending_nodes = self.pending_nodes.max(num_nodes);
            }
        }
        self.pending.push(event);
        Ok(())
    }

    /// Seals the open snapshot under time label `label`, publishing every
    /// buffered event at once: grows the node universe, appends the
    /// snapshot's neighbor lists to the CSR pools in one contiguous region,
    /// records the touched set and bumps [`LiveGraph::version`]. Sealing
    /// with no buffered edges publishes an empty snapshot (every node
    /// inactive there), which is legal.
    ///
    /// Returns the new snapshot's index.
    ///
    /// # Errors
    /// [`GraphError::UnsortedTimestamps`] if `label` is not strictly later
    /// than the last sealed label; the buffer is left untouched so the
    /// caller can retry with a corrected label.
    pub fn seal_snapshot(&mut self, label: Timestamp) -> Result<TimeIndex> {
        // The label rule is `append_snapshot`'s, but it must be re-checked
        // here *before* the universe grows: a rejected seal has to be
        // atomic (buffer, universe and graph untouched), and growth cannot
        // come after the append because the buffered edges may reference
        // grown nodes.
        if !self.can_seal(label) {
            return Err(GraphError::UnsortedTimestamps {
                position: self.num_sealed(),
            });
        }

        // Materialise the snapshot's edge list (the buffer stays intact
        // until the append succeeds), honouring `InsertUnique` exactly like
        // the incremental path did: deduplication is per (src, dst) pair
        // within the snapshot, symmetric for undirected graphs, and also
        // sees edges inserted by earlier plain `Insert`s.
        let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
        // The dedup set is only worth maintaining when something will read
        // it — pure-Insert batches (the common streaming shape) skip the
        // per-edge hashing entirely.
        let any_unique = self
            .pending
            .iter()
            .any(|e| matches!(e, EdgeEvent::InsertUnique { .. }));
        let mut seen: HashSet<(NodeId, NodeId)> = HashSet::new();
        let directed = self.graph.is_directed();
        for event in &self.pending {
            let (src, dst, unique) = match *event {
                EdgeEvent::Insert { src, dst } => (src, dst, false),
                EdgeEvent::InsertUnique { src, dst } => (src, dst, true),
                EdgeEvent::GrowNodes { .. } => continue,
            };
            if unique && seen.contains(&(src, dst)) {
                continue;
            }
            if any_unique {
                seen.insert((src, dst));
                if !directed {
                    seen.insert((dst, src));
                }
            }
            edges.push((src, dst));
        }

        self.graph.grow_nodes(self.pending_nodes);
        let t = self.graph.append_snapshot(label, &edges)?;
        self.pending.clear();

        let mut touched: Vec<NodeId> = edges.iter().flat_map(|&(u, v)| [u, v]).collect();
        touched.sort_unstable();
        touched.dedup();
        self.touched.push(touched);
        self.version += 1;
        Ok(t)
    }

    /// Whether [`LiveGraph::seal_snapshot`] would accept `label` — i.e. it
    /// is strictly later than the last sealed label. This is the *only*
    /// way a seal can fail, so durable callers use it to validate a label
    /// *before* committing the seal to their write-ahead log.
    pub fn can_seal(&self, label: Timestamp) -> bool {
        match self.graph.last_timestamp() {
            None => true,
            Some(last) => label > last,
        }
    }

    /// Convenience: buffers a plain edge insert (see [`LiveGraph::apply`]).
    pub fn insert(&mut self, src: impl Into<NodeId>, dst: impl Into<NodeId>) -> Result<()> {
        self.apply(EdgeEvent::insert(src, dst))
    }
}

/// Searches routed at a `LiveGraph` see exactly the sealed history.
impl EvolvingGraph for LiveGraph {
    fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }
    fn num_timestamps(&self) -> usize {
        self.graph.num_timestamps()
    }
    fn timestamp(&self, t: TimeIndex) -> Timestamp {
        EvolvingGraph::timestamp(&self.graph, t)
    }
    fn is_directed(&self) -> bool {
        self.graph.is_directed()
    }
    fn num_static_edges(&self) -> usize {
        self.graph.num_static_edges()
    }
    fn out_row(&self, v: NodeId, t: TimeIndex) -> &[NodeId] {
        self.graph.out_row(v, t)
    }
    fn in_row(&self, v: NodeId, t: TimeIndex) -> &[NodeId] {
        self.graph.in_row(v, t)
    }
    fn active_times_in(&self, v: NodeId, range: Range<TimeIndex>) -> ActiveTimes<'_> {
        self.graph.active_times_in(v, range)
    }
    fn time_index_of(&self, timestamp: Timestamp) -> Option<TimeIndex> {
        EvolvingGraph::time_index_of(&self.graph, timestamp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use egraph_core::graph::TimeOrder;

    #[test]
    fn ranged_active_times_and_neighbors_match_the_sealed_csr() {
        // The paper example plus one appended seal: for every range (empty,
        // inverted and clipped ones included) and both orders, the live
        // graph's ranged visit is the filter of the node's active times, and
        // its neighbor visitors equal the CSR's.
        let mut live = LiveGraph::from_graph(&egraph_core::examples::paper_figure1());
        live.insert(NodeId(0), NodeId(2)).unwrap();
        live.seal_snapshot(4).unwrap();
        let csr = live.graph().clone();
        let n = live.num_timestamps() as u32;
        for v in (0..live.num_nodes()).map(NodeId::from_index) {
            let all = csr.active_slice(v).to_vec();
            assert_eq!(live.active_times(v), all);
            for t in (0..n + 2).map(TimeIndex) {
                assert_eq!(live.is_active(v, t), all.contains(&t));
                let tn = egraph_core::ids::TemporalNode::new(v, t);
                assert_eq!(live.forward_neighbors(tn), csr.forward_neighbors(tn));
                assert_eq!(live.backward_neighbors(tn), csr.backward_neighbors(tn));
            }
            for (a, b) in (0..n + 2).flat_map(|a| (0..n + 2).map(move |b| (a, b))) {
                let mut want: Vec<TimeIndex> = all
                    .iter()
                    .copied()
                    .filter(|t| (a..b).contains(&t.0))
                    .collect();
                for order in [TimeOrder::Ascending, TimeOrder::Descending] {
                    let mut got = Vec::new();
                    let range = TimeIndex(a)..TimeIndex(b);
                    live.for_each_active_time_in(v, range, order, &mut |t| got.push(t));
                    assert_eq!(got, want, "{v:?} over {a}..{b} {order:?}");
                    want.reverse();
                }
            }
        }
    }

    #[test]
    fn events_stay_invisible_until_sealed() {
        let mut live = LiveGraph::directed(3);
        live.insert(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(live.num_sealed(), 0);
        assert_eq!(live.num_pending(), 1);
        assert_eq!(live.graph().num_static_edges(), 0);

        let t = live.seal_snapshot(10).unwrap();
        assert_eq!(t, TimeIndex(0));
        assert_eq!(live.num_pending(), 0);
        assert_eq!(live.graph().num_static_edges(), 1);
        assert_eq!(live.version(), 1);
        assert_eq!(live.touched_at(t), &[NodeId(0), NodeId(1)]);
    }

    #[test]
    fn apply_validates_against_the_pending_universe() {
        let mut live = LiveGraph::directed(2);
        assert!(matches!(
            live.insert(NodeId(0), NodeId(5)),
            Err(GraphError::NodeOutOfRange { .. })
        ));
        assert!(matches!(
            live.insert(NodeId(1), NodeId(1)),
            Err(GraphError::SelfLoop { .. })
        ));
        // Growing inside the open snapshot legalises the edge immediately.
        live.apply(EdgeEvent::grow_nodes(6)).unwrap();
        live.insert(NodeId(0), NodeId(5)).unwrap();
        let t = live.seal_snapshot(0).unwrap();
        assert_eq!(live.graph().num_nodes(), 6);
        assert!(live.graph().has_static_edge(NodeId(0), NodeId(5), t));
    }

    #[test]
    fn seal_rejects_non_monotonic_labels_and_keeps_the_buffer() {
        let mut live = LiveGraph::directed(3);
        live.seal_snapshot(5).unwrap();
        live.insert(NodeId(0), NodeId(1)).unwrap();
        assert!(matches!(
            live.seal_snapshot(5),
            Err(GraphError::UnsortedTimestamps { .. })
        ));
        // Buffer intact: retry with a later label succeeds.
        assert_eq!(live.num_pending(), 1);
        let t = live.seal_snapshot(6).unwrap();
        assert!(live.graph().has_static_edge(NodeId(0), NodeId(1), t));
        assert_eq!(live.version(), 2);
    }

    #[test]
    fn insert_unique_deduplicates_within_the_open_snapshot() {
        let mut live = LiveGraph::directed(3);
        live.apply(EdgeEvent::insert_unique(NodeId(0), NodeId(1)))
            .unwrap();
        live.apply(EdgeEvent::insert_unique(NodeId(0), NodeId(1)))
            .unwrap();
        live.seal_snapshot(0).unwrap();
        assert_eq!(live.graph().num_static_edges(), 1);
    }

    #[test]
    fn insert_unique_sees_plain_inserts_and_undirected_symmetry() {
        let mut live = LiveGraph::directed(3);
        live.apply(EdgeEvent::insert(NodeId(0), NodeId(1))).unwrap();
        live.apply(EdgeEvent::insert_unique(NodeId(0), NodeId(1)))
            .unwrap();
        // The reversed pair is a different directed edge.
        live.apply(EdgeEvent::insert_unique(NodeId(1), NodeId(0)))
            .unwrap();
        live.seal_snapshot(0).unwrap();
        assert_eq!(live.graph().num_static_edges(), 2);

        let mut live = LiveGraph::undirected(3);
        live.apply(EdgeEvent::insert(NodeId(0), NodeId(1))).unwrap();
        // Undirected: (1, 0) is the same edge and must be deduplicated.
        live.apply(EdgeEvent::insert_unique(NodeId(1), NodeId(0)))
            .unwrap();
        live.seal_snapshot(0).unwrap();
        assert_eq!(live.graph().num_static_edges(), 1);
        assert_eq!(
            live.graph().out_slice(NodeId(1), TimeIndex(0)),
            &[NodeId(0)]
        );
    }

    #[test]
    fn empty_seals_publish_inactive_snapshots() {
        let mut live = LiveGraph::directed(2);
        let t = live.seal_snapshot(1).unwrap();
        assert_eq!(live.num_sealed(), 1);
        assert!(live.touched_at(t).is_empty());
        assert!(!live.graph().is_active(NodeId(0), t));
    }

    #[test]
    fn from_graph_derives_touched_sets() {
        let g = egraph_core::examples::paper_figure1();
        let live = LiveGraph::from_graph(&g);
        assert_eq!(live.version(), 0);
        assert_eq!(live.touched_at(TimeIndex(0)), &[NodeId(0), NodeId(1)]);
        assert_eq!(live.touched_at(TimeIndex(1)), &[NodeId(0), NodeId(2)]);
        assert_eq!(live.touched_at(TimeIndex(2)), &[NodeId(1), NodeId(2)]);
    }

    #[test]
    fn the_evolving_graph_view_matches_the_sealed_graph() {
        let mut live = LiveGraph::directed(3);
        live.insert(NodeId(0), NodeId(1)).unwrap();
        live.seal_snapshot(0).unwrap();
        live.insert(NodeId(1), NodeId(2)).unwrap();
        // Buffered, unsealed: the trait view must not see it.
        assert_eq!(live.num_timestamps(), 1);
        assert_eq!(live.num_static_edges(), 1);
        assert_eq!(
            live.static_out_neighbors(NodeId(0), TimeIndex(0)),
            vec![NodeId(1)]
        );
        live.seal_snapshot(1).unwrap();
        assert_eq!(live.num_timestamps(), 2);
        assert_eq!(live.num_static_edges(), 2);
    }

    #[test]
    fn the_serve_graph_matches_the_nested_builder_layout() {
        // Drive the same event stream into a LiveGraph and a nested
        // AdjacencyListGraph; the sealed serve graph must agree on every
        // primitive the engines use.
        use egraph_core::adjacency::AdjacencyListGraph;
        let mut live = LiveGraph::directed(4);
        let mut nested = AdjacencyListGraph::directed(4, Vec::new()).unwrap();
        for (label, batch) in [
            vec![(0u32, 1u32), (1, 2), (0, 1)],
            vec![(2, 3)],
            vec![(3, 0), (1, 3)],
        ]
        .into_iter()
        .enumerate()
        {
            let t = nested.push_timestamp(label as i64).unwrap();
            for (u, v) in batch {
                live.insert(NodeId(u), NodeId(v)).unwrap();
                nested.add_edge(NodeId(u), NodeId(v), t).unwrap();
            }
            live.seal_snapshot(label as i64).unwrap();
        }
        let csr = live.graph();
        assert_eq!(csr.num_static_edges(), nested.num_static_edges());
        for v in (0..4).map(NodeId::from_index) {
            assert_eq!(csr.active_slice(v), nested.active_slice(v));
            for t in (0..3).map(TimeIndex::from_index) {
                assert_eq!(csr.out_slice(v, t), nested.out_slice(v, t));
                assert_eq!(csr.in_slice(v, t), nested.in_slice(v, t));
            }
        }
    }
}
