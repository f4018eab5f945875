//! [`CsrAdjacency`]: the CSR-flattened serve-path representation.
//!
//! [`AdjacencyListGraph`](crate::adjacency::AdjacencyListGraph) stores
//! neighbors as `Vec<Vec<Vec<NodeId>>>` — three pointer hops and one heap
//! allocation *per (node, snapshot) pair*, which is what a mutable builder
//! wants but not what a serve path wants. Theorem 2's `O(|E| + |V|)` bound
//! only talks about how many list items a traversal inspects; how fast those
//! inspections run is a memory-layout question, and BFS over thousands of
//! tiny heap-scattered `Vec`s is bound by cache misses, not arithmetic.
//!
//! `CsrAdjacency` flattens each snapshot's adjacency into **one contiguous
//! neighbor pool** shared by the whole graph, addressed by per-snapshot
//! offset arrays (the classic compressed-sparse-row layout, applied per
//! snapshot):
//!
//! ```text
//! out_pool:      [ ...snapshot 0 neighbors... | ...snapshot 1... | ... ]
//! out_offsets[t]: num_nodes_at_seal(t) + 1 absolute offsets into out_pool
//! out_slice(v,t) = out_pool[out_offsets[t][v] .. out_offsets[t][v+1]]
//! ```
//!
//! Because the evolving-graph model is append-only in time (Definition 1:
//! labels strictly increase), a sealed snapshot's neighbor lists never change
//! — so appending snapshot `t+1` appends one contiguous region to the pool
//! and one offset row, and every previously returned layout stays valid.
//! [`CsrAdjacency::append_snapshot`] is that sealed-append path; the
//! `egraph-stream` crate's `LiveGraph` builds its serve graph with it, one
//! seal at a time, and every engine (BFS, parallel BFS, the foremost sweep,
//! the resumable extensions) traverses the CSR layout through the ordinary
//! [`EvolvingGraph`] trait — the differential suites pin the answers to the
//! nested-`Vec` layout, and the `serving_throughput` bench pins the work
//! parity (identical [`CountingView`](crate::instrument::CountingView)
//! counters) and records the wall-clock gap.
//!
//! Node growth composes with sealing: growing the universe only affects
//! *future* snapshots (a node cannot retroactively have had edges), so old
//! offset rows keep their sealed length and lookups beyond a row's end
//! simply report no neighbors.

use core::ops::Range;

use crate::error::{GraphError, Result};
use crate::graph::{visit_sorted_times, EvolvingGraph, TimeOrder};
use crate::ids::{NodeId, TemporalNode, TimeIndex, Timestamp};

/// An evolving graph whose per-snapshot adjacency is stored in compressed
/// sparse rows: one contiguous neighbor pool plus per-snapshot offset
/// arrays. Built either all at once ([`CsrAdjacency::from_graph`]) or
/// incrementally, one sealed snapshot at a time
/// ([`CsrAdjacency::append_snapshot`]).
#[derive(Clone, Debug, Default)]
pub struct CsrAdjacency {
    timestamps: Vec<Timestamp>,
    num_nodes: usize,
    directed: bool,
    /// `out_offsets[t]` holds `n_t + 1` absolute offsets into [`Self::out_pool`],
    /// where `n_t` is the node-universe size when snapshot `t` was sealed.
    out_offsets: Vec<Vec<u32>>,
    /// All out-neighbor lists, snapshot-major then node-major — contiguous.
    out_pool: Vec<NodeId>,
    /// Mirror of the out structures for in-neighbors; empty when undirected.
    in_offsets: Vec<Vec<u32>>,
    in_pool: Vec<NodeId>,
    /// `active[v]` = sorted snapshot indices at which `v` is active.
    active: Vec<Vec<TimeIndex>>,
    num_static_edges: usize,
}

impl CsrAdjacency {
    /// An empty graph over `num_nodes` nodes with no snapshot sealed yet.
    pub fn new(num_nodes: usize, directed: bool) -> Self {
        CsrAdjacency {
            timestamps: Vec::new(),
            num_nodes,
            directed,
            out_offsets: Vec::new(),
            out_pool: Vec::new(),
            in_offsets: Vec::new(),
            in_pool: Vec::new(),
            active: vec![Vec::new(); num_nodes],
            num_static_edges: 0,
        }
    }

    /// Flattens any evolving graph into the CSR layout, snapshot by
    /// snapshot. Neighbor lists preserve the source graph's enumeration
    /// order, so traversal answers (parents and tie-breaks included) are
    /// identical.
    pub fn from_graph<G: EvolvingGraph>(graph: &G) -> Self {
        let num_nodes = graph.num_nodes();
        let directed = graph.is_directed();
        let mut csr = CsrAdjacency::new(num_nodes, directed);
        for t in 0..graph.num_timestamps() {
            let t = TimeIndex::from_index(t);
            // Copy the enumerated lists verbatim so neighbor order — and
            // with it every order-dependent answer (BFS-tree parents) — is
            // preserved exactly.
            let mut offsets = Vec::with_capacity(num_nodes + 1);
            offsets.push(pool_offset(csr.out_pool.len()));
            for v in 0..num_nodes {
                graph.for_each_static_out(NodeId::from_index(v), t, &mut |w| csr.out_pool.push(w));
                offsets.push(pool_offset(csr.out_pool.len()));
            }
            let out_added = (offsets[num_nodes] - offsets[0]) as usize;
            csr.out_offsets.push(offsets);
            if directed {
                let mut offsets = Vec::with_capacity(num_nodes + 1);
                offsets.push(pool_offset(csr.in_pool.len()));
                for v in 0..num_nodes {
                    graph
                        .for_each_static_in(NodeId::from_index(v), t, &mut |u| csr.in_pool.push(u));
                    offsets.push(pool_offset(csr.in_pool.len()));
                }
                csr.in_offsets.push(offsets);
            }
            for v in 0..num_nodes {
                let v = NodeId::from_index(v);
                if graph.is_active(v, t) {
                    csr.active[v.index()].push(t);
                }
            }
            // Undirected graphs report each static edge from both ends.
            csr.num_static_edges += if directed { out_added } else { out_added / 2 };
            csr.timestamps.push(graph.timestamp(t));
        }
        csr
    }

    /// The time label of the last sealed snapshot, if any.
    pub fn last_timestamp(&self) -> Option<Timestamp> {
        self.timestamps.last().copied()
    }

    /// Grows the node universe to at least `num_nodes` nodes. Only future
    /// snapshots can have edges at the new nodes; sealed offset rows are
    /// untouched (lookups past a sealed row's end report no neighbors).
    pub fn grow_nodes(&mut self, num_nodes: usize) {
        if num_nodes > self.num_nodes {
            self.active.resize(num_nodes, Vec::new());
            self.num_nodes = num_nodes;
        }
    }

    /// Appends one sealed snapshot: label `label`, static edges `edges`
    /// (each `(src, dst)`; for undirected graphs each edge is listed once
    /// and stored from both end points). This is the live serve path —
    /// counting sort into the contiguous pool, `O(|edges| + num_nodes)`.
    ///
    /// # Errors
    /// [`GraphError::UnsortedTimestamps`] if `label` is not strictly later
    /// than the last sealed label, [`GraphError::SelfLoop`] /
    /// [`GraphError::NodeOutOfRange`] for invalid edges. The graph is left
    /// unchanged on error.
    pub fn append_snapshot(
        &mut self,
        label: Timestamp,
        edges: &[(NodeId, NodeId)],
    ) -> Result<TimeIndex> {
        if let Some(last) = self.last_timestamp() {
            if label <= last {
                return Err(GraphError::UnsortedTimestamps {
                    position: self.timestamps.len(),
                });
            }
        }
        let t = TimeIndex::from_index(self.timestamps.len());
        for &(u, v) in edges {
            if u == v {
                return Err(GraphError::SelfLoop { node: u, time: t });
            }
            for x in [u, v] {
                if x.index() >= self.num_nodes {
                    return Err(GraphError::NodeOutOfRange {
                        node: x,
                        num_nodes: self.num_nodes,
                    });
                }
            }
        }
        // Offsets are u32; validate before any mutation so the counting
        // sort below cannot silently wrap into corrupt slice bounds.
        let out_added = if self.directed {
            edges.len()
        } else {
            2 * edges.len()
        };
        check_offset_headroom(self.out_pool.len(), out_added);
        if self.directed {
            check_offset_headroom(self.in_pool.len(), edges.len());
        }

        // Out lists: counting sort. Undirected graphs store each edge from
        // both end points, exactly like the nested layout's `add_edge`.
        let base = self.out_pool.len() as u32;
        let mut offsets = vec![0u32; self.num_nodes + 1];
        for &(u, v) in edges {
            offsets[u.index() + 1] += 1;
            if !self.directed {
                offsets[v.index() + 1] += 1;
            }
        }
        for i in 0..self.num_nodes {
            offsets[i + 1] += offsets[i];
        }
        let added = offsets[self.num_nodes] as usize;
        let mut cursor = offsets.clone();
        self.out_pool.resize(self.out_pool.len() + added, NodeId(0));
        for &(u, v) in edges {
            self.out_pool[(base + cursor[u.index()]) as usize] = v;
            cursor[u.index()] += 1;
            if !self.directed {
                self.out_pool[(base + cursor[v.index()]) as usize] = u;
                cursor[v.index()] += 1;
            }
        }
        for o in &mut offsets {
            *o += base;
        }
        self.out_offsets.push(offsets);

        // In lists mirror the out lists for directed graphs.
        if self.directed {
            let base = self.in_pool.len() as u32;
            let mut offsets = vec![0u32; self.num_nodes + 1];
            for &(_, v) in edges {
                offsets[v.index() + 1] += 1;
            }
            for i in 0..self.num_nodes {
                offsets[i + 1] += offsets[i];
            }
            let added = offsets[self.num_nodes] as usize;
            let mut cursor = offsets.clone();
            self.in_pool.resize(self.in_pool.len() + added, NodeId(0));
            for &(u, v) in edges {
                self.in_pool[(base + cursor[v.index()]) as usize] = u;
                cursor[v.index()] += 1;
            }
            for o in &mut offsets {
                *o += base;
            }
            self.in_offsets.push(offsets);
        }

        // Activeness: `t` is strictly later than every recorded index, so
        // appending keeps each node's list sorted.
        for &(u, v) in edges {
            for x in [u, v] {
                let times = &mut self.active[x.index()];
                if times.last() != Some(&t) {
                    times.push(t);
                }
            }
        }
        self.num_static_edges += edges.len();
        self.timestamps.push(label);
        Ok(t)
    }

    /// Out-neighbors of `v` at snapshot `t` as one contiguous slice — the
    /// BFS hot path. Nodes grown after `t` was sealed have no neighbors
    /// there.
    #[inline]
    pub fn out_slice(&self, v: NodeId, t: TimeIndex) -> &[NodeId] {
        let offsets = &self.out_offsets[t.index()];
        match offsets.get(v.index() + 1) {
            Some(&end) => &self.out_pool[offsets[v.index()] as usize..end as usize],
            None => &[],
        }
    }

    /// In-neighbors of `v` at snapshot `t` as one contiguous slice. For
    /// undirected graphs this is the same slice as [`Self::out_slice`].
    #[inline]
    pub fn in_slice(&self, v: NodeId, t: TimeIndex) -> &[NodeId] {
        if !self.directed {
            return self.out_slice(v, t);
        }
        let offsets = &self.in_offsets[t.index()];
        match offsets.get(v.index() + 1) {
            Some(&end) => &self.in_pool[offsets[v.index()] as usize..end as usize],
            None => &[],
        }
    }

    /// The sorted snapshot indices at which `v` is active, as a slice.
    #[inline]
    pub fn active_slice(&self, v: NodeId) -> &[TimeIndex] {
        &self.active[v.index()]
    }

    /// Whether the static edge `(u, v)` exists at snapshot `t`.
    pub fn has_static_edge(&self, u: NodeId, v: NodeId, t: TimeIndex) -> bool {
        if u.index() >= self.num_nodes || t.index() >= self.timestamps.len() {
            return false;
        }
        self.out_slice(u, t).contains(&v)
    }

    /// Whether the temporal node `(v, t)` is active (Definition 3).
    pub fn is_active(&self, v: NodeId, t: TimeIndex) -> bool {
        self.active[v.index()].binary_search(&t).is_ok()
    }

    /// Size of the node universe.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of sealed snapshots.
    pub fn num_timestamps(&self) -> usize {
        self.timestamps.len()
    }

    /// Total number of static edges (each undirected edge counted once).
    pub fn num_static_edges(&self) -> usize {
        self.num_static_edges
    }

    /// Whether edges are directed.
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// All active temporal nodes at snapshot `t`.
    pub fn active_at(&self, t: TimeIndex) -> Vec<TemporalNode> {
        (0..self.num_nodes)
            .map(NodeId::from_index)
            .filter(|&v| self.is_active(v, t))
            .map(|v| TemporalNode::new(v, t))
            .collect()
    }
}

/// The raw columns of a [`CsrAdjacency`], exposed for serialization.
///
/// A checkpointing layer (see `egraph-log`) persists a sealed graph by
/// writing these columns out and rebuilds it with
/// [`CsrAdjacency::from_parts`], which re-validates every structural
/// invariant — offset rows must tile the pools exactly, activeness lists
/// must be sorted, labels must be strictly increasing — so bytes that pass
/// a CRC but describe an impossible graph are rejected instead of becoming
/// out-of-bounds slices at query time.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CsrParts {
    /// Snapshot labels, strictly increasing.
    pub timestamps: Vec<Timestamp>,
    /// Size of the node universe.
    pub num_nodes: usize,
    /// Whether edges are directed.
    pub directed: bool,
    /// Per-snapshot absolute offsets into `out_pool`.
    pub out_offsets: Vec<Vec<u32>>,
    /// All out-neighbor lists, snapshot-major then node-major.
    pub out_pool: Vec<NodeId>,
    /// Mirror of `out_offsets` for in-neighbors; empty when undirected.
    pub in_offsets: Vec<Vec<u32>>,
    /// Mirror of `out_pool` for in-neighbors; empty when undirected.
    pub in_pool: Vec<NodeId>,
    /// `active[v]` = sorted snapshot indices at which `v` is active.
    pub active: Vec<Vec<TimeIndex>>,
    /// Total number of static edges (each undirected edge counted once).
    pub num_static_edges: usize,
}

/// The columns of [`CsrParts`], borrowed: what a checkpoint encodes from
/// without copying the graph. Every column is append-only, so the suffix
/// from any snapshot onward is a plain slice of it.
#[derive(Clone, Copy, Debug)]
pub struct CsrColumns<'a> {
    /// Snapshot labels, strictly increasing.
    pub timestamps: &'a [Timestamp],
    /// Size of the node universe.
    pub num_nodes: usize,
    /// Whether edges are directed.
    pub directed: bool,
    /// Per-snapshot absolute offsets into `out_pool`.
    pub out_offsets: &'a [Vec<u32>],
    /// All out-neighbor lists, snapshot-major then node-major.
    pub out_pool: &'a [NodeId],
    /// Mirror of `out_offsets` for in-neighbors; empty when undirected.
    pub in_offsets: &'a [Vec<u32>],
    /// Mirror of `out_pool` for in-neighbors; empty when undirected.
    pub in_pool: &'a [NodeId],
    /// `active[v]` = sorted snapshot indices at which `v` is active.
    pub active: &'a [Vec<TimeIndex>],
    /// Total number of static edges (each undirected edge counted once).
    pub num_static_edges: usize,
}

impl CsrParts {
    /// Borrows the columns.
    pub fn columns(&self) -> CsrColumns<'_> {
        CsrColumns {
            timestamps: &self.timestamps,
            num_nodes: self.num_nodes,
            directed: self.directed,
            out_offsets: &self.out_offsets,
            out_pool: &self.out_pool,
            in_offsets: &self.in_offsets,
            in_pool: &self.in_pool,
            active: &self.active,
            num_static_edges: self.num_static_edges,
        }
    }
}

impl CsrAdjacency {
    /// Borrows the graph's raw columns for serialization.
    pub fn columns(&self) -> CsrColumns<'_> {
        CsrColumns {
            timestamps: &self.timestamps,
            num_nodes: self.num_nodes,
            directed: self.directed,
            out_offsets: &self.out_offsets,
            out_pool: &self.out_pool,
            in_offsets: &self.in_offsets,
            in_pool: &self.in_pool,
            active: &self.active,
            num_static_edges: self.num_static_edges,
        }
    }

    /// Copies the graph's raw columns out for serialization.
    pub fn to_parts(&self) -> CsrParts {
        CsrParts {
            timestamps: self.timestamps.clone(),
            num_nodes: self.num_nodes,
            directed: self.directed,
            out_offsets: self.out_offsets.clone(),
            out_pool: self.out_pool.clone(),
            in_offsets: self.in_offsets.clone(),
            in_pool: self.in_pool.clone(),
            active: self.active.clone(),
            num_static_edges: self.num_static_edges,
        }
    }

    /// Rebuilds a graph from deserialized columns, validating every
    /// invariant the traversal hot paths rely on.
    ///
    /// # Errors
    /// A human-readable description of the first violated invariant. A graph
    /// accepted here is safe to traverse: no offset, node id or time index
    /// can reach out of bounds.
    pub fn from_parts(parts: CsrParts) -> std::result::Result<Self, String> {
        validate_parts(&parts)?;
        Ok(CsrAdjacency {
            timestamps: parts.timestamps,
            num_nodes: parts.num_nodes,
            directed: parts.directed,
            out_offsets: parts.out_offsets,
            out_pool: parts.out_pool,
            in_offsets: parts.in_offsets,
            in_pool: parts.in_pool,
            active: parts.active,
            num_static_edges: parts.num_static_edges,
        })
    }
}

/// Checks all structural invariants of a deserialized [`CsrParts`].
fn validate_parts(parts: &CsrParts) -> std::result::Result<(), String> {
    let snapshots = parts.timestamps.len();
    if let Some(w) = parts.timestamps.windows(2).position(|w| w[1] <= w[0]) {
        return Err(format!("timestamps not strictly increasing at index {w}"));
    }
    validate_offsets("out", &parts.out_offsets, &parts.out_pool, parts, snapshots)?;
    if parts.directed {
        validate_offsets("in", &parts.in_offsets, &parts.in_pool, parts, snapshots)?;
        if parts.in_pool.len() != parts.out_pool.len() {
            return Err(format!(
                "in pool holds {} entries but out pool holds {}",
                parts.in_pool.len(),
                parts.out_pool.len()
            ));
        }
    } else if !parts.in_offsets.is_empty() || !parts.in_pool.is_empty() {
        return Err("undirected graph carries in-neighbor structures".into());
    }
    let expected_pool = if parts.directed {
        parts.num_static_edges
    } else {
        2 * parts.num_static_edges
    };
    if parts.out_pool.len() != expected_pool {
        return Err(format!(
            "num_static_edges {} disagrees with out pool of {} entries",
            parts.num_static_edges,
            parts.out_pool.len()
        ));
    }
    if parts.active.len() != parts.num_nodes {
        return Err(format!(
            "active table covers {} nodes but the universe holds {}",
            parts.active.len(),
            parts.num_nodes
        ));
    }
    for (v, times) in parts.active.iter().enumerate() {
        if times.windows(2).any(|w| w[1] <= w[0]) {
            return Err(format!("active times of node {v} not strictly increasing"));
        }
        if let Some(&t) = times.last() {
            if t.index() >= snapshots {
                return Err(format!(
                    "active time {t} of node {v} exceeds {snapshots} snapshots"
                ));
            }
        }
    }
    Ok(())
}

/// Checks that one side's offset rows tile its pool exactly: each row starts
/// where the previous ended, rows are monotone, and every pool entry is a
/// valid node id.
fn validate_offsets(
    side: &str,
    offsets: &[Vec<u32>],
    pool: &[NodeId],
    parts: &CsrParts,
    snapshots: usize,
) -> std::result::Result<(), String> {
    if offsets.len() != snapshots {
        return Err(format!(
            "{side} offsets cover {} snapshots but the graph has {snapshots}",
            offsets.len()
        ));
    }
    let mut cursor = 0u32;
    for (t, row) in offsets.iter().enumerate() {
        if row.is_empty() || row.len() > parts.num_nodes + 1 {
            return Err(format!(
                "{side} offset row {t} holds {} entries for a universe of {} nodes",
                row.len(),
                parts.num_nodes
            ));
        }
        if row[0] != cursor {
            return Err(format!(
                "{side} offset row {t} starts at {} but the previous row ended at {cursor}",
                row[0]
            ));
        }
        if row.windows(2).any(|w| w[1] < w[0]) {
            return Err(format!("{side} offset row {t} is not monotone"));
        }
        cursor = row[row.len() - 1];
    }
    if cursor as usize != pool.len() {
        return Err(format!(
            "{side} offsets end at {cursor} but the pool holds {} entries",
            pool.len()
        ));
    }
    if let Some(w) = pool.iter().find(|w| w.index() >= parts.num_nodes) {
        return Err(format!(
            "{side} pool entry {w} exceeds the universe of {} nodes",
            parts.num_nodes
        ));
    }
    Ok(())
}

/// A pool length as a stored `u32` offset — failing loudly instead of
/// wrapping if a graph outgrows the offset space.
fn pool_offset(len: usize) -> u32 {
    u32::try_from(len).expect("CSR neighbor pool exceeds u32::MAX entries")
}

/// Asserts that a pool can absorb `added` more entries without its offsets
/// leaving `u32` range.
fn check_offset_headroom(len: usize, added: usize) {
    pool_offset(
        len.checked_add(added)
            .expect("CSR pool size overflows usize"),
    );
}

impl EvolvingGraph for CsrAdjacency {
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

    fn for_each_static_out(&self, v: NodeId, t: TimeIndex, f: &mut dyn FnMut(NodeId)) {
        for &w in self.out_slice(v, t) {
            f(w);
        }
    }

    fn for_each_static_in(&self, v: NodeId, t: TimeIndex, f: &mut dyn FnMut(NodeId)) {
        for &u in self.in_slice(v, t) {
            f(u);
        }
    }

    fn for_each_active_time_in(
        &self,
        v: NodeId,
        range: Range<TimeIndex>,
        order: TimeOrder,
        f: &mut dyn FnMut(TimeIndex),
    ) {
        visit_sorted_times(self.active_slice(v), range, order, f)
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
    use crate::adjacency::AdjacencyListGraph;
    use crate::examples::paper_figure1;
    use crate::foremost::earliest_arrival;
    use crate::kernel::distances;
    use crate::reverse::ReversedView;

    /// Structural equality with a reference graph: every primitive the
    /// traversals use must agree.
    fn assert_same_graph<G: EvolvingGraph>(csr: &CsrAdjacency, reference: &G) {
        assert_eq!(csr.num_nodes, reference.num_nodes());
        assert_eq!(csr.num_timestamps(), reference.num_timestamps());
        assert_eq!(csr.num_static_edges(), reference.num_static_edges());
        assert_eq!(EvolvingGraph::timestamps(csr), reference.timestamps());
        for v in 0..reference.num_nodes() {
            let v = NodeId::from_index(v);
            assert_eq!(
                csr.active_slice(v),
                reference.active_times(v),
                "active times of {v:?}"
            );
            for t in 0..reference.num_timestamps() {
                let t = TimeIndex::from_index(t);
                assert_eq!(
                    csr.out_slice(v, t),
                    reference.static_out_neighbors(v, t),
                    "out of ({v:?}, {t:?})"
                );
                assert_eq!(
                    csr.in_slice(v, t),
                    reference.static_in_neighbors(v, t),
                    "in of ({v:?}, {t:?})"
                );
            }
        }
    }

    #[test]
    fn from_graph_preserves_the_paper_example_exactly() {
        let g = paper_figure1();
        let csr = CsrAdjacency::from_graph(&g);
        assert_same_graph(&csr, &g);
        for &root in &g.active_nodes() {
            assert_eq!(
                distances(&csr, root, false, usize::MAX)
                    .unwrap()
                    .as_flat_slice(),
                distances(&g, root, false, usize::MAX)
                    .unwrap()
                    .as_flat_slice(),
                "root {root:?}"
            );
            // Backward: forward on the reversed views, which read the
            // layouts' in-edges.
            let (csr_back, g_back) = (ReversedView::new(&csr), ReversedView::new(&g));
            let back_root = g_back.map_temporal(root);
            assert_eq!(
                distances(&csr_back, back_root, false, usize::MAX)
                    .unwrap()
                    .as_flat_slice(),
                distances(&g_back, back_root, false, usize::MAX)
                    .unwrap()
                    .as_flat_slice(),
            );
            assert_eq!(
                earliest_arrival(&csr, root).arrivals(),
                earliest_arrival(&g, root).arrivals(),
            );
        }
    }

    #[test]
    fn incremental_append_equals_bulk_conversion() {
        // The sealed-append path must produce byte-identical layout inputs
        // to flattening the finished graph.
        let mut nested = AdjacencyListGraph::directed_with_unit_times(6, 0);
        let mut csr = CsrAdjacency::new(6, true);
        let batches: [&[(u32, u32)]; 3] = [
            &[(0, 1), (1, 2), (0, 2)],
            &[(2, 3), (3, 4), (0, 1)], // parallel edge on purpose
            &[(4, 5), (5, 0)],
        ];
        for (label, batch) in batches.iter().enumerate() {
            let t = nested.push_timestamp(label as i64).unwrap();
            let edges: Vec<(NodeId, NodeId)> =
                batch.iter().map(|&(u, v)| (NodeId(u), NodeId(v))).collect();
            for &(u, v) in &edges {
                nested.add_edge(u, v, t).unwrap();
            }
            csr.append_snapshot(label as i64, &edges).unwrap();
        }
        assert_same_graph(&csr, &nested);
        assert_same_graph(&CsrAdjacency::from_graph(&nested), &nested);
    }

    #[test]
    fn undirected_appends_store_both_end_points() {
        let mut csr = CsrAdjacency::new(3, false);
        csr.append_snapshot(0, &[(NodeId(0), NodeId(2))]).unwrap();
        assert_eq!(csr.out_slice(NodeId(0), TimeIndex(0)), &[NodeId(2)]);
        assert_eq!(csr.out_slice(NodeId(2), TimeIndex(0)), &[NodeId(0)]);
        assert_eq!(csr.in_slice(NodeId(0), TimeIndex(0)), &[NodeId(2)]);
        assert_eq!(csr.num_static_edges(), 1);
        assert!(csr.has_static_edge(NodeId(2), NodeId(0), TimeIndex(0)));
    }

    #[test]
    fn append_rejects_bad_labels_and_edges_atomically() {
        let mut csr = CsrAdjacency::new(3, true);
        csr.append_snapshot(5, &[(NodeId(0), NodeId(1))]).unwrap();
        assert_eq!(
            csr.append_snapshot(5, &[]).unwrap_err(),
            GraphError::UnsortedTimestamps { position: 1 }
        );
        assert!(matches!(
            csr.append_snapshot(6, &[(NodeId(1), NodeId(1))]),
            Err(GraphError::SelfLoop { .. })
        ));
        assert!(matches!(
            csr.append_snapshot(6, &[(NodeId(0), NodeId(7))]),
            Err(GraphError::NodeOutOfRange { .. })
        ));
        // Failed appends leave the graph unchanged.
        assert_eq!(csr.num_timestamps(), 1);
        assert_eq!(csr.num_static_edges(), 1);
        assert_eq!(csr.append_snapshot(6, &[]).unwrap(), TimeIndex(1));
    }

    #[test]
    fn grown_nodes_have_no_neighbors_at_sealed_snapshots() {
        let mut csr = CsrAdjacency::new(2, true);
        csr.append_snapshot(0, &[(NodeId(0), NodeId(1))]).unwrap();
        csr.grow_nodes(5);
        assert_eq!(csr.num_nodes(), 5);
        // Sealed offset rows are shorter than the universe: empty slices.
        assert!(csr.out_slice(NodeId(4), TimeIndex(0)).is_empty());
        assert!(csr.in_slice(NodeId(4), TimeIndex(0)).is_empty());
        assert!(!csr.is_active(NodeId(4), TimeIndex(0)));
        csr.append_snapshot(1, &[(NodeId(4), NodeId(0))]).unwrap();
        assert_eq!(csr.out_slice(NodeId(4), TimeIndex(1)), &[NodeId(0)]);
        assert!(csr.is_active(NodeId(4), TimeIndex(1)));
    }

    #[test]
    fn empty_snapshots_are_legal_and_inactive() {
        let mut csr = CsrAdjacency::new(2, true);
        csr.append_snapshot(3, &[]).unwrap();
        assert_eq!(csr.num_timestamps(), 1);
        assert!(csr.active_at(TimeIndex(0)).is_empty());
        assert!(csr.out_slice(NodeId(1), TimeIndex(0)).is_empty());
    }

    #[test]
    fn parts_round_trip_preserves_the_graph_exactly() {
        let g = paper_figure1();
        let csr = CsrAdjacency::from_graph(&g);
        let rebuilt = CsrAdjacency::from_parts(csr.to_parts()).unwrap();
        assert_same_graph(&rebuilt, &g);
        for &root in &g.active_nodes() {
            assert_eq!(
                distances(&rebuilt, root, false, usize::MAX)
                    .unwrap()
                    .as_flat_slice(),
                distances(&csr, root, false, usize::MAX)
                    .unwrap()
                    .as_flat_slice(),
            );
        }

        // Grown nodes and undirected storage survive the round trip too.
        let mut csr = CsrAdjacency::new(2, false);
        csr.append_snapshot(0, &[(NodeId(0), NodeId(1))]).unwrap();
        csr.grow_nodes(5);
        csr.append_snapshot(4, &[(NodeId(3), NodeId(4))]).unwrap();
        let rebuilt = CsrAdjacency::from_parts(csr.to_parts()).unwrap();
        assert_same_graph(&rebuilt, &csr);
    }

    #[test]
    fn from_parts_rejects_every_broken_invariant() {
        let good = {
            let mut csr = CsrAdjacency::new(3, true);
            csr.append_snapshot(0, &[(NodeId(0), NodeId(1))]).unwrap();
            csr.append_snapshot(7, &[(NodeId(1), NodeId(2))]).unwrap();
            csr.to_parts()
        };
        assert!(CsrAdjacency::from_parts(good.clone()).is_ok());

        type Breakage = (&'static str, Box<dyn Fn(&mut CsrParts)>);
        let mut breakages: Vec<Breakage> = Vec::new();
        breakages.push(("timestamps", Box::new(|p| p.timestamps[1] = 0)));
        breakages.push(("row count", Box::new(|p| p.out_offsets.truncate(1))));
        breakages.push(("row start", Box::new(|p| p.out_offsets[1][0] = 0)));
        breakages.push(("monotone", Box::new(|p| p.out_offsets[0][1] = 9)));
        breakages.push(("pool tile", Box::new(|p| p.out_pool.push(NodeId(0)))));
        breakages.push(("node range", Box::new(|p| p.out_pool[0] = NodeId(9))));
        breakages.push(("in pool", Box::new(|p| p.in_pool.clear())));
        breakages.push(("edge count", Box::new(|p| p.num_static_edges = 5)));
        breakages.push((
            "active len",
            Box::new(|p| p.active.pop().map(|_| ()).unwrap()),
        ));
        breakages.push((
            "active sorted",
            Box::new(|p| p.active[0] = vec![TimeIndex(1), TimeIndex(0)]),
        ));
        breakages.push((
            "active range",
            Box::new(|p| p.active[2] = vec![TimeIndex(7)]),
        ));
        breakages.push((
            "undirected extras",
            Box::new(|p| {
                p.directed = false;
                p.num_static_edges = 1;
            }),
        ));
        for (what, breakage) in breakages {
            let mut bad = good.clone();
            breakage(&mut bad);
            assert!(
                CsrAdjacency::from_parts(bad).is_err(),
                "{what} breakage must be rejected"
            );
        }
    }

    #[test]
    fn pool_stays_contiguous_across_appends() {
        // The zero-copy claim: every slice is a window into one Vec.
        let mut csr = CsrAdjacency::new(4, true);
        csr.append_snapshot(0, &[(NodeId(0), NodeId(1)), (NodeId(0), NodeId(2))])
            .unwrap();
        csr.append_snapshot(1, &[(NodeId(1), NodeId(3))]).unwrap();
        let pool_range = csr.out_pool.as_ptr_range();
        for t in 0..2 {
            for v in 0..4 {
                let s = csr.out_slice(NodeId(v), TimeIndex(t));
                if !s.is_empty() {
                    assert!(pool_range.contains(&s.as_ptr()));
                }
            }
        }
        assert_eq!(csr.out_pool.len(), 3);
    }
}
