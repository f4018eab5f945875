//! Identifier types for nodes, time stamps and temporal nodes.
//!
//! The paper (Definitions 1–2) works with an evolving graph
//! `G_n = ⟨G[1], …, G[n]⟩` whose snapshots carry time labels `t_1 < … < t_n`,
//! and with *temporal nodes* `(v, t)` — a node paired with the time at which
//! it is observed. Internally we separate the two roles a "time" plays:
//!
//! * [`Timestamp`] is the user-facing time *label* (publication year, epoch
//!   number,…). Labels only need to be totally ordered.
//! * [`TimeIndex`] is the position of a snapshot inside the ordered snapshot
//!   sequence. All algorithms operate on indices so that the hot loops use
//!   dense `usize` arithmetic instead of label lookups.

use core::fmt;

/// A node identifier inside the node universe `0..num_nodes`.
///
/// Node identifiers are dense small integers; this mirrors the
/// `IntEvolvingGraph` type of the reference Julia implementation and keeps
/// per-node state addressable by plain indexing.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the identifier as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `NodeId` from a `usize` index.
    ///
    /// # Panics
    /// Panics if `i` does not fit in `u32`.
    #[inline]
    pub fn from_index(i: usize) -> Self {
        debug_assert!(i <= u32::MAX as usize, "node index {i} exceeds u32::MAX");
        NodeId(i as u32)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl From<NodeId> for u32 {
    fn from(v: NodeId) -> Self {
        v.0
    }
}

/// Position of a snapshot in the time-ordered snapshot sequence (0-based).
///
/// `TimeIndex(0)` is the earliest snapshot. Algorithms never compare raw
/// [`Timestamp`] labels in their inner loops; they compare indices, which is
/// equivalent because the snapshot sequence is sorted by label.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimeIndex(pub u32);

impl TimeIndex {
    /// Returns the index as a `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `TimeIndex` from a `usize`.
    ///
    /// # Panics
    /// Panics (in debug builds) if `i` does not fit in `u32`.
    #[inline]
    pub fn from_index(i: usize) -> Self {
        debug_assert!(i <= u32::MAX as usize, "time index {i} exceeds u32::MAX");
        TimeIndex(i as u32)
    }
}

impl fmt::Debug for TimeIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl fmt::Display for TimeIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for TimeIndex {
    fn from(v: u32) -> Self {
        TimeIndex(v)
    }
}

/// A user-facing time label attached to a snapshot.
///
/// Only the ordering of labels matters to the algorithms; `i64` covers
/// calendar years, Unix seconds and synthetic epoch counters alike.
pub type Timestamp = i64;

/// A temporal node `(v, t)` — a node observed at a particular snapshot
/// (Definition 2 of the paper).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TemporalNode {
    /// The node component `v`.
    pub node: NodeId,
    /// The snapshot index holding the time component `t`.
    pub time: TimeIndex,
}

impl TemporalNode {
    /// Creates a temporal node from a node and a snapshot index.
    #[inline]
    pub fn new(node: NodeId, time: TimeIndex) -> Self {
        TemporalNode { node, time }
    }

    /// Convenience constructor from raw `u32` components.
    #[inline]
    pub fn from_raw(node: u32, time: u32) -> Self {
        TemporalNode {
            node: NodeId(node),
            time: TimeIndex(time),
        }
    }

    /// Flattens the temporal node to a dense index in row-major
    /// `time * num_nodes + node` order, the layout used by distance maps and
    /// by the block adjacency matrix of Section III-C.
    #[inline]
    pub fn flat_index(self, num_nodes: usize) -> usize {
        self.time.index() * num_nodes + self.node.index()
    }

    /// Inverse of [`TemporalNode::flat_index`].
    #[inline]
    pub fn from_flat_index(flat: usize, num_nodes: usize) -> Self {
        TemporalNode {
            node: NodeId::from_index(flat % num_nodes),
            time: TimeIndex::from_index(flat / num_nodes),
        }
    }
}

impl fmt::Debug for TemporalNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, t{})", self.node.0, self.time.0)
    }
}

impl From<(u32, u32)> for TemporalNode {
    fn from((node, time): (u32, u32)) -> Self {
        TemporalNode::from_raw(node, time)
    }
}

/// A static edge `(u, v)` existing at snapshot `t` — an element of the
/// time-labelled static edge set `Ẽ` of Theorem 1.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct StaticEdge {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Snapshot at which the edge exists.
    pub time: TimeIndex,
}

impl StaticEdge {
    /// Creates a static edge.
    #[inline]
    pub fn new(src: NodeId, dst: NodeId, time: TimeIndex) -> Self {
        StaticEdge { src, dst, time }
    }
}

/// A causal edge `((v, s), (v, t))` with `s < t` connecting two active
/// occurrences of the same node — an element of `E′` in Theorem 1.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CausalEdge {
    /// The node that persists through time.
    pub node: NodeId,
    /// Earlier active snapshot.
    pub from_time: TimeIndex,
    /// Later active snapshot.
    pub to_time: TimeIndex,
}

impl CausalEdge {
    /// Creates a causal edge; `from_time` must precede `to_time`.
    #[inline]
    pub fn new(node: NodeId, from_time: TimeIndex, to_time: TimeIndex) -> Self {
        debug_assert!(from_time < to_time, "causal edges must advance in time");
        CausalEdge {
            node,
            from_time,
            to_time,
        }
    }

    /// The temporal node at the tail of the edge.
    #[inline]
    pub fn source(self) -> TemporalNode {
        TemporalNode::new(self.node, self.from_time)
    }

    /// The temporal node at the head of the edge.
    #[inline]
    pub fn target(self) -> TemporalNode {
        TemporalNode::new(self.node, self.to_time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_round_trips_through_index() {
        let n = NodeId::from_index(42);
        assert_eq!(n.index(), 42);
        assert_eq!(u32::from(n), 42);
        assert_eq!(NodeId::from(42u32), n);
    }

    #[test]
    fn time_index_ordering_matches_raw_ordering() {
        assert!(TimeIndex(0) < TimeIndex(1));
        assert!(TimeIndex(5) > TimeIndex(2));
        assert_eq!(TimeIndex::from_index(7).index(), 7);
    }

    #[test]
    fn temporal_node_flat_index_round_trips() {
        let num_nodes = 13;
        for t in 0..5u32 {
            for v in 0..13u32 {
                let tn = TemporalNode::from_raw(v, t);
                let flat = tn.flat_index(num_nodes);
                assert_eq!(TemporalNode::from_flat_index(flat, num_nodes), tn);
            }
        }
    }

    #[test]
    fn temporal_node_flat_index_is_row_major_by_time() {
        let num_nodes = 10;
        let a = TemporalNode::from_raw(9, 0);
        let b = TemporalNode::from_raw(0, 1);
        assert_eq!(a.flat_index(num_nodes) + 1, b.flat_index(num_nodes));
    }

    #[test]
    fn causal_edge_endpoints() {
        let e = CausalEdge::new(NodeId(3), TimeIndex(1), TimeIndex(4));
        assert_eq!(e.source(), TemporalNode::from_raw(3, 1));
        assert_eq!(e.target(), TemporalNode::from_raw(3, 4));
    }

    #[test]
    fn debug_formats_are_compact() {
        assert_eq!(format!("{:?}", NodeId(7)), "n7");
        assert_eq!(format!("{:?}", TimeIndex(2)), "t2");
        assert_eq!(format!("{:?}", TemporalNode::from_raw(1, 2)), "(1, t2)");
    }
}
