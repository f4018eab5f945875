//! [`CountingView`]: a transparent [`EvolvingGraph`] adaptor that counts how
//! much graph work a traversal performs.
//!
//! Wall-clock comparisons between engines are noisy, so the benchmark suite
//! compares *work counters* instead: the number of neighbor-enumeration
//! calls an engine issues and the number of neighbors those calls deliver.
//! Because every engine is generic over [`EvolvingGraph`], wrapping the
//! workload in a `CountingView` instruments any engine without touching it —
//! the provided trait methods (`for_each_forward_neighbor`, `is_active`, …)
//! route through the counted primitives.
//!
//! Counters are atomics so the view also instruments the frontier-parallel
//! engines, which since PR 5 genuinely run across the thread pool: each
//! worker's increments land in the shared counters, and the pool's
//! completion latch orders them before any [`CountingView::counters`] read
//! that follows the traversal. Counting costs one relaxed increment per
//! event — enough contention to perturb parallel *wall-clock* numbers, so
//! benches measure time on the bare graph and work on the counted view.
//! Note the view instruments the *provided* neighbor visitors: a layout's
//! own fast-path overrides (e.g. [`crate::csr::CsrAdjacency`]'s
//! slice-direct `for_each_forward_neighbor`) are bypassed under counting,
//! which is exactly what makes counters layout-independent.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::graph::EvolvingGraph;
use crate::ids::{NodeId, TimeIndex, Timestamp};

/// A snapshot of the work counters of a [`CountingView`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraversalCounters {
    /// Calls to `for_each_static_out` — one per (node, snapshot) expansion.
    pub static_out_calls: u64,
    /// Calls to `for_each_static_in` (backward traversals).
    pub static_in_calls: u64,
    /// Calls to `for_each_active_time` (activeness checks and causal-edge
    /// enumeration).
    pub active_time_calls: u64,
    /// Total neighbors / active times delivered across all calls — the edge
    /// work of the traversal.
    pub neighbors_delivered: u64,
}

impl TraversalCounters {
    /// Total work units: every enumeration call plus every delivered item.
    pub fn total(&self) -> u64 {
        self.static_out_calls
            + self.static_in_calls
            + self.active_time_calls
            + self.neighbors_delivered
    }

    /// Expansion calls only (node work, excluding delivered items).
    pub fn expansions(&self) -> u64 {
        self.static_out_calls + self.static_in_calls + self.active_time_calls
    }
}

/// Wraps an [`EvolvingGraph`] and counts every primitive enumeration the
/// traversal performs. See the [module docs](self) for the methodology.
#[derive(Debug)]
pub struct CountingView<'g, G> {
    inner: &'g G,
    static_out_calls: AtomicU64,
    static_in_calls: AtomicU64,
    active_time_calls: AtomicU64,
    neighbors_delivered: AtomicU64,
}

impl<'g, G: EvolvingGraph> CountingView<'g, G> {
    /// Wraps `inner` with all counters at zero.
    pub fn new(inner: &'g G) -> Self {
        CountingView {
            inner,
            static_out_calls: AtomicU64::new(0),
            static_in_calls: AtomicU64::new(0),
            active_time_calls: AtomicU64::new(0),
            neighbors_delivered: AtomicU64::new(0),
        }
    }

    /// The wrapped graph.
    pub fn inner(&self) -> &G {
        self.inner
    }

    /// A snapshot of the counters accumulated so far.
    pub fn counters(&self) -> TraversalCounters {
        TraversalCounters {
            static_out_calls: self.static_out_calls.load(Ordering::Relaxed),
            static_in_calls: self.static_in_calls.load(Ordering::Relaxed),
            active_time_calls: self.active_time_calls.load(Ordering::Relaxed),
            neighbors_delivered: self.neighbors_delivered.load(Ordering::Relaxed),
        }
    }

    /// Resets every counter to zero (e.g. between the warm-up and measured
    /// runs of a benchmark).
    pub fn reset(&self) {
        self.static_out_calls.store(0, Ordering::Relaxed);
        self.static_in_calls.store(0, Ordering::Relaxed);
        self.active_time_calls.store(0, Ordering::Relaxed);
        self.neighbors_delivered.store(0, Ordering::Relaxed);
    }
}

impl<G: EvolvingGraph> EvolvingGraph for CountingView<'_, G> {
    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn num_timestamps(&self) -> usize {
        self.inner.num_timestamps()
    }

    fn timestamp(&self, t: TimeIndex) -> Timestamp {
        self.inner.timestamp(t)
    }

    fn is_directed(&self) -> bool {
        self.inner.is_directed()
    }

    fn num_static_edges(&self) -> usize {
        self.inner.num_static_edges()
    }

    fn for_each_static_out(&self, v: NodeId, t: TimeIndex, f: &mut dyn FnMut(NodeId)) {
        self.static_out_calls.fetch_add(1, Ordering::Relaxed);
        self.inner.for_each_static_out(v, t, &mut |w| {
            self.neighbors_delivered.fetch_add(1, Ordering::Relaxed);
            f(w);
        });
    }

    fn for_each_static_in(&self, v: NodeId, t: TimeIndex, f: &mut dyn FnMut(NodeId)) {
        self.static_in_calls.fetch_add(1, Ordering::Relaxed);
        self.inner.for_each_static_in(v, t, &mut |w| {
            self.neighbors_delivered.fetch_add(1, Ordering::Relaxed);
            f(w);
        });
    }

    fn for_each_active_time(&self, v: NodeId, f: &mut dyn FnMut(TimeIndex)) {
        self.active_time_calls.fetch_add(1, Ordering::Relaxed);
        self.inner.for_each_active_time(v, &mut |t| {
            self.neighbors_delivered.fetch_add(1, Ordering::Relaxed);
            f(t);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::paper_figure1;
    use crate::foremost::earliest_arrival;
    use crate::ids::TemporalNode;
    use crate::kernel::distances;

    #[test]
    fn counting_view_is_transparent_to_traversals() {
        let g = paper_figure1();
        let view = CountingView::new(&g);
        let root = TemporalNode::from_raw(0, 0);
        let direct = distances(&g, root, false, usize::MAX).unwrap();
        let counted = distances(&view, root, false, usize::MAX).unwrap();
        assert_eq!(direct.as_flat_slice(), counted.as_flat_slice());
        let c = view.counters();
        assert!(c.static_out_calls > 0);
        assert!(c.active_time_calls > 0);
        assert!(c.neighbors_delivered > 0);
        assert_eq!(c.total(), c.expansions() + c.neighbors_delivered);
    }

    #[test]
    fn reset_clears_every_counter() {
        let g = paper_figure1();
        let view = CountingView::new(&g);
        let _ = earliest_arrival(&view, TemporalNode::from_raw(0, 0));
        assert!(view.counters().total() > 0);
        view.reset();
        assert_eq!(view.counters(), TraversalCounters::default());
    }

    #[test]
    fn sweep_counts_less_than_hop_bfs_even_on_the_paper_example() {
        // The inequality the foremost_vs_hops bench pins at scale holds on
        // the 3-node example already: the sweep never enumerates causal
        // edges or re-checks activeness.
        let g = paper_figure1();
        let root = TemporalNode::from_raw(0, 0);
        let hop_view = CountingView::new(&g);
        let _ = distances(&hop_view, root, false, usize::MAX).unwrap();
        let sweep_view = CountingView::new(&g);
        let _ = earliest_arrival(&sweep_view, root);
        assert!(sweep_view.counters().total() < hop_view.counters().total());
    }
}
