//! [`TimeWindowView`]: an evolving graph restricted to a contiguous range of
//! snapshots.
//!
//! The paper observes (Section II-C) that "all `G[t]` with time stamps
//! `t < t′` for a starting node `(v, t′)` are irrelevant to the BFS
//! traversal", so BFS may always be treated as rooted at the earliest
//! snapshot. A time window makes that observation a first-class object: a BFS
//! on the window `[t_lo, t_hi]` sees only the snapshots inside the window,
//! which is also the natural way to ask "who was influenced between 2010 and
//! 2014" in the citation application.

use crate::error::{GraphError, Result};
use crate::graph::EvolvingGraph;
use crate::ids::{NodeId, TemporalNode, TimeIndex, Timestamp};

/// A contiguous-in-time view `[start, end]` (inclusive) over an evolving
/// graph.
#[derive(Clone, Copy, Debug)]
pub struct TimeWindowView<G> {
    inner: G,
    start: TimeIndex,
    end: TimeIndex,
}

impl<G: EvolvingGraph> TimeWindowView<G> {
    /// Restricts `inner` to snapshot indices `start..=end`.
    pub fn new(inner: G, start: TimeIndex, end: TimeIndex) -> Result<Self> {
        if end.index() >= inner.num_timestamps() || start > end {
            return Err(GraphError::TimeOutOfRange {
                time: end,
                num_timestamps: inner.num_timestamps(),
            });
        }
        Ok(TimeWindowView { inner, start, end })
    }

    /// Restricts `inner` to the suffix starting at `start` — the "drop the
    /// irrelevant prefix" transformation of Section II-C.
    pub fn from_start(inner: G, start: TimeIndex) -> Result<Self> {
        if inner.num_timestamps() == 0 {
            return Err(GraphError::EmptyGraph);
        }
        let end = TimeIndex::from_index(inner.num_timestamps() - 1);
        Self::new(inner, start, end)
    }

    /// The underlying graph.
    pub fn inner(&self) -> &G {
        &self.inner
    }

    /// First snapshot (in the underlying graph's indexing) of the window.
    pub fn start(&self) -> TimeIndex {
        self.start
    }

    /// Last snapshot (inclusive) of the window.
    pub fn end(&self) -> TimeIndex {
        self.end
    }

    /// Maps a window-relative snapshot index to the underlying index.
    #[inline]
    pub fn to_inner_time(&self, t: TimeIndex) -> TimeIndex {
        TimeIndex::from_index(self.start.index() + t.index())
    }

    /// Maps an underlying snapshot index into the window, if it lies inside.
    #[inline]
    pub fn to_window_time(&self, t: TimeIndex) -> Option<TimeIndex> {
        if t >= self.start && t <= self.end {
            Some(TimeIndex::from_index(t.index() - self.start.index()))
        } else {
            None
        }
    }

    /// Maps a window-relative temporal node to the underlying graph.
    #[inline]
    pub fn to_inner_temporal(&self, tn: TemporalNode) -> TemporalNode {
        TemporalNode::new(tn.node, self.to_inner_time(tn.time))
    }

    /// Maps an underlying temporal node into the window, if its snapshot lies
    /// inside.
    #[inline]
    pub fn to_window_temporal(&self, tn: TemporalNode) -> Option<TemporalNode> {
        self.to_window_time(tn.time)
            .map(|t| TemporalNode::new(tn.node, t))
    }
}

impl<G: EvolvingGraph> EvolvingGraph for TimeWindowView<G> {
    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn num_timestamps(&self) -> usize {
        self.end.index() - self.start.index() + 1
    }

    fn timestamp(&self, t: TimeIndex) -> Timestamp {
        self.inner.timestamp(self.to_inner_time(t))
    }

    fn is_directed(&self) -> bool {
        self.inner.is_directed()
    }

    fn num_static_edges(&self) -> usize {
        // Count only edges whose snapshot lies inside the window.
        let mut count = 0usize;
        for t in self.start.index()..=self.end.index() {
            let t = TimeIndex::from_index(t);
            for v in 0..self.inner.num_nodes() {
                let v = NodeId::from_index(v);
                self.inner.for_each_static_out(v, t, &mut |w| {
                    if self.inner.is_directed() || v < w {
                        count += 1;
                    }
                });
            }
        }
        count
    }

    fn for_each_static_out(&self, v: NodeId, t: TimeIndex, f: &mut dyn FnMut(NodeId)) {
        self.inner.for_each_static_out(v, self.to_inner_time(t), f)
    }

    fn for_each_static_in(&self, v: NodeId, t: TimeIndex, f: &mut dyn FnMut(NodeId)) {
        self.inner.for_each_static_in(v, self.to_inner_time(t), f)
    }

    fn for_each_active_time(&self, v: NodeId, f: &mut dyn FnMut(TimeIndex)) {
        let start = self.start;
        let end = self.end;
        self.inner.for_each_active_time(v, &mut |t| {
            if t >= start && t <= end {
                f(TimeIndex::from_index(t.index() - start.index()));
            }
        });
    }

    fn is_active(&self, v: NodeId, t: TimeIndex) -> bool {
        self.inner.is_active(v, self.to_inner_time(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::paper_figure1;
    use crate::kernel::distances;

    #[test]
    fn rejects_invalid_windows() {
        let g = paper_figure1();
        assert!(TimeWindowView::new(&g, TimeIndex(0), TimeIndex(9)).is_err());
        assert!(TimeWindowView::new(&g, TimeIndex(2), TimeIndex(1)).is_err());
    }

    #[test]
    fn window_remaps_times_and_labels() {
        let g = paper_figure1();
        let w = TimeWindowView::new(&g, TimeIndex(1), TimeIndex(2)).unwrap();
        assert_eq!(w.num_timestamps(), 2);
        assert_eq!(w.timestamps(), vec![2, 3]);
        assert_eq!(w.to_inner_time(TimeIndex(0)), TimeIndex(1));
        assert_eq!(w.to_window_time(TimeIndex(2)), Some(TimeIndex(1)));
        assert_eq!(w.to_window_time(TimeIndex(0)), None);
    }

    #[test]
    fn window_counts_only_inside_edges() {
        let g = paper_figure1();
        let w = TimeWindowView::new(&g, TimeIndex(1), TimeIndex(2)).unwrap();
        assert_eq!(w.num_static_edges(), 2);
        let w0 = TimeWindowView::new(&g, TimeIndex(0), TimeIndex(0)).unwrap();
        assert_eq!(w0.num_static_edges(), 1);
    }

    #[test]
    fn suffix_window_reproduces_section_iic_observation() {
        // BFS from (1, t2) on the full graph ignores t1; BFS from the same
        // node on the suffix window [t2, t3] must give identical distances.
        let g = paper_figure1();
        let full = distances(&g, TemporalNode::from_raw(0, 1), false, usize::MAX).unwrap();
        let w = TimeWindowView::from_start(&g, TimeIndex(1)).unwrap();
        let windowed = distances(&w, TemporalNode::from_raw(0, 0), false, usize::MAX).unwrap();
        for (tn, d) in windowed.reached() {
            let inner = w.to_inner_temporal(tn);
            assert_eq!(full.distance(inner), Some(d));
        }
        assert_eq!(full.num_reached(), windowed.num_reached());
    }

    #[test]
    fn activeness_respects_window_bounds() {
        let g = paper_figure1();
        let w = TimeWindowView::new(&g, TimeIndex(1), TimeIndex(2)).unwrap();
        // Node 1 (paper node 2) is active at t1 and t3; inside the window only
        // the t3 occurrence remains, at window index 1.
        assert_eq!(w.active_times(NodeId(1)), vec![TimeIndex(1)]);
        assert!(!w.is_active(NodeId(1), TimeIndex(0)));
    }
}
