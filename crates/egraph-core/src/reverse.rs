//! [`ReversedView`]: an evolving graph with time (and edge direction)
//! reversed.
//!
//! Section V notes that "the backward search in time follows straightforwardly
//! from the forward time traversal simply by reversing the time labels, e.g.
//! by the transformation t → −t". This adaptor implements exactly that
//! transformation lazily: snapshot `t` of the view is snapshot `n − 1 − t` of
//! the underlying graph with every static edge reversed, so a *forward* BFS on
//! the view is a *backward* BFS on the original graph.
//!
//! The query builder runs every backward search as a forward search on this
//! view, and any other forward-only algorithm can run backwards on it
//! without modification.
//!
//! The view costs a backward search nothing per step. Its static edges are
//! the inner graph's in-edges (and vice versa), and its ranged active-time
//! visit maps the range through `t → n − 1 − t` and flips the order, so the
//! inner storage answers it with the same binary search and slice walk as a
//! forward search, and nothing is allocated per call.

use core::ops::Range;

use crate::graph::{EvolvingGraph, TimeOrder};
use crate::ids::{NodeId, TemporalNode, TimeIndex, Timestamp};

/// A time- and direction-reversed view over an evolving graph.
#[derive(Clone, Copy, Debug)]
pub struct ReversedView<G> {
    inner: G,
}

impl<G: EvolvingGraph> ReversedView<G> {
    /// Wraps `inner` in a reversed view.
    pub fn new(inner: G) -> Self {
        ReversedView { inner }
    }

    /// The underlying graph.
    pub fn inner(&self) -> &G {
        &self.inner
    }

    /// Maps a snapshot index of the view to the corresponding index of the
    /// underlying graph (and vice versa — the map is an involution).
    #[inline]
    pub fn map_time(&self, t: TimeIndex) -> TimeIndex {
        TimeIndex::from_index(self.inner.num_timestamps() - 1 - t.index())
    }

    /// Maps a temporal node of the view to the underlying graph.
    #[inline]
    pub fn map_temporal(&self, tn: TemporalNode) -> TemporalNode {
        TemporalNode::new(tn.node, self.map_time(tn.time))
    }
}

impl<G: EvolvingGraph> EvolvingGraph for ReversedView<G> {
    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn num_timestamps(&self) -> usize {
        self.inner.num_timestamps()
    }

    fn timestamp(&self, t: TimeIndex) -> Timestamp {
        // t → −t keeps labels strictly increasing after the index reversal.
        -self.inner.timestamp(self.map_time(t))
    }

    fn is_directed(&self) -> bool {
        self.inner.is_directed()
    }

    fn num_static_edges(&self) -> usize {
        self.inner.num_static_edges()
    }

    fn for_each_static_out(&self, v: NodeId, t: TimeIndex, f: &mut dyn FnMut(NodeId)) {
        // Out-edges of the view are in-edges of the original snapshot.
        self.inner.for_each_static_in(v, self.map_time(t), f)
    }

    fn for_each_static_in(&self, v: NodeId, t: TimeIndex, f: &mut dyn FnMut(NodeId)) {
        self.inner.for_each_static_out(v, self.map_time(t), f)
    }

    /// View range `[a, b)`, clipped to the view, is inner range
    /// `[n − b, n − a)`; ascending view time is descending inner time.
    fn for_each_active_time_in(
        &self,
        v: NodeId,
        range: Range<TimeIndex>,
        order: TimeOrder,
        f: &mut dyn FnMut(TimeIndex),
    ) {
        let n = self.num_timestamps();
        let (a, b) = (range.start.index().min(n), range.end.index().min(n));
        if a >= b {
            return;
        }
        let inner = TimeIndex::from_index(n - b)..TimeIndex::from_index(n - a);
        self.inner.for_each_active_time_in(
            v,
            inner,
            order.reversed(),
            &mut |t| f(self.map_time(t)),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::paper_figure1;
    use crate::kernel::distances;

    #[test]
    fn time_mapping_is_an_involution() {
        let g = paper_figure1();
        let view = ReversedView::new(&g);
        for t in 0..3u32 {
            let t = TimeIndex(t);
            assert_eq!(view.map_time(view.map_time(t)), t);
        }
    }

    #[test]
    fn labels_remain_strictly_increasing() {
        let g = paper_figure1();
        let view = ReversedView::new(&g);
        let labels = view.timestamps();
        assert_eq!(labels, vec![-3, -2, -1]);
    }

    #[test]
    fn activeness_is_preserved_under_reversal() {
        let g = paper_figure1();
        let view = ReversedView::new(&g);
        // (3, t1) inactive in the original → (3, reversed t1 = view t2) inactive.
        assert!(!view.is_active(NodeId(2), TimeIndex(2)));
        // (2, t3) active in the original → active at view time 0.
        assert!(view.is_active(NodeId(1), TimeIndex(0)));
        assert_eq!(view.num_active_nodes(), g.num_active_nodes());
    }

    #[test]
    fn forward_bfs_on_view_is_backward_bfs_on_original() {
        let g = paper_figure1();
        let view = ReversedView::new(&g);
        // Backward from (3, t3) in the original is forward from
        // (3, view-time 0) in the view. By hand: (2, t3) by the reversed
        // static edge and (3, t2) by the backward causal edge at 1, then
        // (2, t1) and (1, t2) at 2, and (1, t1) at 3.
        let fwd = distances(&view, TemporalNode::from_raw(2, 0), false, usize::MAX).unwrap();
        let expected = [
            ((2, 2), 0),
            ((1, 2), 1),
            ((2, 1), 1),
            ((1, 0), 2),
            ((0, 1), 2),
            ((0, 0), 3),
        ];
        for ((v, t), d) in expected {
            let mapped = view.map_temporal(TemporalNode::from_raw(v, t));
            assert_eq!(fwd.distance(mapped), Some(d), "at ({v}, {t})");
        }
        assert_eq!(fwd.num_reached(), expected.len());
    }

    #[test]
    fn static_edges_are_reversed() {
        let g = paper_figure1();
        let view = ReversedView::new(&g);
        // Original: 1→2 (nodes 0→1) at t1 (index 0) = view index 2.
        assert_eq!(
            view.static_out_neighbors(NodeId(1), TimeIndex(2)),
            vec![NodeId(0)]
        );
        assert!(view
            .static_out_neighbors(NodeId(0), TimeIndex(2))
            .is_empty());
    }
}
