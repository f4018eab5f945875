//! The [`EvolvingGraph`] trait: the abstract interface every evolving-graph
//! representation implements.
//!
//! An evolving graph (Definition 1) is a time-ordered sequence of static
//! graphs `G_n = ⟨G[1], …, G[n]⟩` with strictly increasing time labels. The
//! trait exposes exactly the queries the traversal algorithms need:
//!
//! * the node universe and snapshot sequence,
//! * the static edges incident to a node at a snapshot,
//! * the snapshots at which a node is *active* (Definition 3), visited over
//!   any half-open range of snapshot indices in either order, and
//! * the derived *forward* / *backward* neighbor relations (Definition 5)
//!   that combine static edges with causal edges.
//!
//! Three required methods are the whole storage contract, and each returns
//! a slice: a node's static out-row and in-row at a snapshot
//! ([`EvolvingGraph::out_row`], [`EvolvingGraph::in_row`]) and its active
//! times inside a range ([`EvolvingGraph::active_times_in`], a slice of the
//! storage's sorted times plus the affine map a view applies to them). The
//! traversal kernel loops over these slices directly, so a hop costs a slice
//! walk and a search can stop a row early. Views map them without copying:
//! a time window clips and shifts, a reversal swaps in- and out-rows and
//! flips the time map. The callback visitors (`for_each_static_out`,
//! `for_each_active_time_in`, ...), activeness checks and the neighbor
//! relations are provided on top, for the oracle and the baselines.

use core::ops::Range;

use crate::ids::{CausalEdge, NodeId, StaticEdge, TemporalNode, TimeIndex, Timestamp};

/// The order in which [`EvolvingGraph::for_each_active_time_in`] visits
/// active times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimeOrder {
    /// Earliest snapshot first.
    Ascending,
    /// Latest snapshot first.
    Descending,
}

/// One node's active times inside a range of snapshots: a slice of a
/// storage's sorted snapshot indices plus the affine map from storage time
/// to the time of the view that handed it out. The map is `s − offset`, or
/// `offset − s` when `flipped` (a time-reversed view), in wrapping `u32`
/// arithmetic, so composed views never leave the slice.
#[derive(Clone, Copy, Debug)]
pub struct ActiveTimes<'a> {
    times: &'a [TimeIndex],
    offset: u32,
    flipped: bool,
}

impl<'a> ActiveTimes<'a> {
    /// No active times.
    pub const EMPTY: ActiveTimes<'static> = ActiveTimes {
        times: &[],
        offset: 0,
        flipped: false,
    };

    /// The times of a storage's sorted per-node `times` that lie in the
    /// half-open `range`: two `partition_point`s, no allocation. An
    /// inverted range yields none.
    pub fn clip(times: &'a [TimeIndex], range: Range<TimeIndex>) -> Self {
        let lo = times.partition_point(|&t| t < range.start);
        let hi = lo + times[lo..].partition_point(|&t| t < range.end);
        ActiveTimes {
            times: &times[lo..hi],
            offset: 0,
            flipped: false,
        }
    }

    /// The same times seen from a window starting at inner time `start`.
    pub fn shifted(self, start: u32) -> Self {
        let offset = if self.flipped {
            self.offset.wrapping_sub(start)
        } else {
            self.offset.wrapping_add(start)
        };
        ActiveTimes { offset, ..self }
    }

    /// The same times seen from a reversed view whose last snapshot is
    /// `last`: view time `last − t`.
    pub fn flipped(self, last: u32) -> Self {
        let offset = if self.flipped {
            self.offset.wrapping_sub(last)
        } else {
            self.offset.wrapping_add(last)
        };
        ActiveTimes {
            offset,
            flipped: !self.flipped,
            ..self
        }
    }

    /// Number of active times.
    #[inline]
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether there are none.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// The active times in the view's time, earliest first.
    #[inline]
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = TimeIndex> + ExactSizeIterator + 'a {
        let ActiveTimes {
            times,
            offset,
            flipped,
        } = *self;
        let last = times.len().wrapping_sub(1);
        (0..times.len()).map(move |i| {
            if flipped {
                TimeIndex(offset.wrapping_sub(times[last - i].0))
            } else {
                TimeIndex(times[i].0.wrapping_sub(offset))
            }
        })
    }
}

/// Abstract interface over evolving-graph representations.
///
/// Definition 1 reads an evolving graph as a time-ordered sequence of static
/// graphs `G_n = ⟨G[1], …, G[n]⟩`. The trait keeps that reading without
/// storing a graph per snapshot: snapshot `t` is the static graph whose
/// out-rows [`EvolvingGraph::out_row`] returns at `t`, and
/// [`EvolvingGraph::timestamp`] is its label. Two storages implement it:
/// [`crate::adjacency::AdjacencyListGraph`], built incrementally, and
/// [`crate::csr::CsrAdjacency`], flattened from it to serve.
///
/// The required surface is slices: the two rows and the ranged active
/// times. Every other method, the callback visitors included, is provided
/// on top of them, and no implementor overrides one except
/// `time_index_of`.
///
/// Implementations must uphold the following invariants, which the traversal
/// algorithms rely on:
///
/// * snapshot labels are strictly increasing in [`TimeIndex`] order;
/// * rows never hold self-loops;
/// * `active_times_in(v, range)` holds exactly the snapshots in `range` at
///   which `v` has at least one incident static edge (Definition 3), each
///   once. The range is half-open over snapshot indices and may be empty,
///   inverted (`start > end`, which holds nothing) or reach past
///   `num_timestamps()` (clipped);
/// * outside `0..num_timestamps()` a node is inactive, and a view returns
///   empty rows there (a storage may panic instead), never those of an
///   inner snapshot the view does not hold;
/// * the neighbor visitors report static edges first, then causal edges in
///   increasing snapshot order (of the view, for a view).
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

    /// The out-row of `v` at snapshot `t`: every node `w` such that the
    /// static edge `(v, w)` exists there (for undirected graphs: every
    /// neighbor of `v` at `t`).
    fn out_row(&self, v: NodeId, t: TimeIndex) -> &[NodeId];

    /// The in-row of `v` at snapshot `t`: every node `u` such that the
    /// static edge `(u, v)` exists there (for undirected graphs the out-row).
    fn in_row(&self, v: NodeId, t: TimeIndex) -> &[NodeId];

    /// The snapshots inside the half-open `range` at which `v` is active.
    /// An empty or inverted range holds none; a range reaching past the last
    /// snapshot is clipped to it.
    fn active_times_in(&self, v: NodeId, range: Range<TimeIndex>) -> ActiveTimes<'_>;

    // ------------------------------------------------------------------
    // Provided methods
    // ------------------------------------------------------------------

    /// Visits every node of [`EvolvingGraph::out_row`].
    fn for_each_static_out(&self, v: NodeId, t: TimeIndex, f: &mut dyn FnMut(NodeId)) {
        self.out_row(v, t).iter().for_each(|&w| f(w));
    }

    /// Visits every node of [`EvolvingGraph::in_row`].
    fn for_each_static_in(&self, v: NodeId, t: TimeIndex, f: &mut dyn FnMut(NodeId)) {
        self.in_row(v, t).iter().for_each(|&u| f(u));
    }

    /// Visits, in `order`, every snapshot index inside the half-open `range`
    /// at which `v` is an active node: [`EvolvingGraph::active_times_in`]
    /// walked one way or the other.
    fn for_each_active_time_in(
        &self,
        v: NodeId,
        range: Range<TimeIndex>,
        order: TimeOrder,
        f: &mut dyn FnMut(TimeIndex),
    ) {
        let times = self.active_times_in(v, range).iter();
        match order {
            TimeOrder::Ascending => times.for_each(f),
            TimeOrder::Descending => times.rev().for_each(f),
        }
    }

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

    /// Visits, in increasing order, every snapshot index at which `v` is an
    /// active node: the full range, ascending.
    fn for_each_active_time(&self, v: NodeId, f: &mut dyn FnMut(TimeIndex)) {
        let all = TimeIndex(0)..TimeIndex::from_index(self.num_timestamps());
        self.for_each_active_time_in(v, all, TimeOrder::Ascending, f);
    }

    /// Whether the temporal node `(v, t)` is active (Definition 3): it has at
    /// least one incident static edge at snapshot `t`. A one-slot range.
    fn is_active(&self, v: NodeId, t: TimeIndex) -> bool {
        !self
            .active_times_in(v, t..TimeIndex(t.0.saturating_add(1)))
            .is_empty()
    }

    /// The snapshots at which `v` is active, in increasing order.
    fn active_times(&self, v: NodeId) -> Vec<TimeIndex> {
        let all = TimeIndex(0)..TimeIndex::from_index(self.num_timestamps());
        self.active_times_in(v, all).iter().collect()
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
    /// * `(w, t)` for every static edge `(v, w)` in snapshot `t`, then
    /// * `(v, t′)` for every later snapshot `t′ > t` at which `v` is active
    ///   (the causal edges `E′` of Theorem 1), earliest first.
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
        let later = TimeIndex(tn.time.0 + 1)..TimeIndex::from_index(self.num_timestamps());
        self.for_each_active_time_in(tn.node, later, TimeOrder::Ascending, &mut |t| {
            f(TemporalNode::new(tn.node, t));
        });
    }

    /// Visits every *backward neighbor* of `(v, t)`: the temporal nodes of
    /// which `(v, t)` is a forward neighbor. Static in-edges at `t` come
    /// first, then the earlier active snapshots of `v`, earliest first.
    fn for_each_backward_neighbor(&self, tn: TemporalNode, f: &mut dyn FnMut(TemporalNode)) {
        if !self.is_active(tn.node, tn.time) {
            return;
        }
        self.for_each_static_in(tn.node, tn.time, &mut |u| {
            f(TemporalNode::new(u, tn.time));
        });
        let earlier = TimeIndex(0)..tn.time;
        self.for_each_active_time_in(tn.node, earlier, TimeOrder::Ascending, &mut |t| {
            f(TemporalNode::new(tn.node, t));
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
/// `G: EvolvingGraph`. It forwards the required methods and the one
/// provided method a storage overrides (`time_index_of`), so wrapping a
/// reference loses no fast path.
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
    fn out_row(&self, v: NodeId, t: TimeIndex) -> &[NodeId] {
        (**self).out_row(v, t)
    }
    fn in_row(&self, v: NodeId, t: TimeIndex) -> &[NodeId] {
        (**self).in_row(v, t)
    }
    fn active_times_in(&self, v: NodeId, range: Range<TimeIndex>) -> ActiveTimes<'_> {
        (**self).active_times_in(v, range)
    }
    fn time_index_of(&self, timestamp: Timestamp) -> Option<TimeIndex> {
        (**self).time_index_of(timestamp)
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

    /// The primitive's contract on `g`: `active_times` is Definition 3
    /// (some static edge at the snapshot); for every node, every range with
    /// ends in `0..=n + 2` (empty, inverted and clipped ones included) and
    /// both orders, the ranged visit is the matching filter of
    /// `active_times`; `is_active` is membership, false past the end; and
    /// the neighbor visitors deliver static edges first, then causal edges
    /// earliest first.
    fn assert_ranged_contract<G: EvolvingGraph>(g: &G, label: &str) {
        let n = g.num_timestamps() as u32;
        for v in (0..g.num_nodes()).map(NodeId::from_index) {
            let all = g.active_times(v);
            let definition: Vec<TimeIndex> = (0..n)
                .map(TimeIndex)
                .filter(|&t| {
                    let static_edges = g.static_out_neighbors(v, t).len();
                    static_edges + g.static_in_neighbors(v, t).len() > 0
                })
                .collect();
            assert_eq!(all, definition, "{label}: active times of {v:?}");
            for t in (0..n + 3).map(TimeIndex) {
                assert_eq!(
                    g.is_active(v, t),
                    all.contains(&t),
                    "{label}: {v:?} at {t:?}"
                );
            }
            for a in 0..n + 3 {
                for b in 0..n + 3 {
                    let mut want: Vec<TimeIndex> = all
                        .iter()
                        .copied()
                        .filter(|t| (a..b).contains(&t.0))
                        .collect();
                    for order in [TimeOrder::Ascending, TimeOrder::Descending] {
                        let mut got = Vec::new();
                        let range = TimeIndex(a)..TimeIndex(b);
                        g.for_each_active_time_in(v, range, order, &mut |t| got.push(t));
                        assert_eq!(got, want, "{label}: {v:?} over {a}..{b} {order:?}");
                        want.reverse();
                    }
                }
            }
            for t in (0..n).map(TimeIndex) {
                let tn = TemporalNode::new(v, t);
                let (mut fwd, mut bwd) = (Vec::new(), Vec::new());
                if all.contains(&t) {
                    let out = g.static_out_neighbors(v, t).into_iter();
                    fwd.extend(out.map(|w| TemporalNode::new(w, t)));
                    let later = all.iter().filter(|&&s| s > t);
                    fwd.extend(later.map(|&s| TemporalNode::new(v, s)));
                    let inn = g.static_in_neighbors(v, t).into_iter();
                    bwd.extend(inn.map(|u| TemporalNode::new(u, t)));
                    let earlier = all.iter().filter(|&&s| s < t);
                    bwd.extend(earlier.map(|&s| TemporalNode::new(v, s)));
                }
                assert_eq!(g.forward_neighbors(tn), fwd, "{label}: forward of {tn:?}");
                assert_eq!(g.backward_neighbors(tn), bwd, "{label}: backward of {tn:?}");
            }
        }
    }

    /// A directed graph of seeded random edges, with a sparse snapshot so
    /// that some nodes skip snapshots.
    fn random_edges(num_nodes: u32, num_timestamps: u32, count: usize) -> Vec<(u32, u32, u32)> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |m: u32| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % u64::from(m)) as u32
        };
        let edges = (0..count).map(|_| (next(num_nodes), next(num_nodes), next(num_timestamps)));
        edges.filter(|&(u, v, t)| u != v && t != 3).collect()
    }

    #[test]
    fn every_implementor_keeps_the_ranged_visit_contract() {
        use crate::csr::CsrAdjacency;
        use crate::instrument::CountingView;
        use crate::reverse::ReversedView;
        use crate::window::TimeWindowView;

        let edges = random_edges(24, 9, 90);
        let graphs = [
            ("paper", figure1()),
            (
                "random",
                AdjacencyListGraph::from_indexed_edges(24, 9, &edges).unwrap(),
            ),
        ];
        for (name, g) in &graphs {
            let csr = CsrAdjacency::from_graph(g);
            let last = TimeIndex::from_index(g.num_timestamps() - 1);
            let window = TimeWindowView::new(&csr, TimeIndex(1), last).unwrap();
            let inner = TimeWindowView::new(g, TimeIndex(0), TimeIndex(1)).unwrap();
            assert_ranged_contract(g, &format!("{name} adjacency"));
            assert_ranged_contract(&csr, &format!("{name} csr"));
            assert_ranged_contract(&&csr, &format!("{name} &csr"));
            assert_ranged_contract(&window, &format!("{name} window"));
            assert_ranged_contract(&inner, &format!("{name} first two snapshots"));
            assert_ranged_contract(&ReversedView::new(g), &format!("{name} reversed"));
            let reversed_window = ReversedView::new(window);
            assert_ranged_contract(&reversed_window, &format!("{name} reversed window"));
            let counted = CountingView::new(&reversed_window);
            assert_ranged_contract(&counted, &format!("{name} counted"));
        }
    }

    /// Where view time `t` lies in the storage under a view: the storage
    /// snapshot, and whether the view swaps in- and out-rows there.
    type ToBase<'a> = &'a dyn Fn(u32) -> Option<(u32, bool)>;

    /// The slice contract on `g`, a view over `base` whose time map is
    /// `to_base`: for every node and snapshot (past the end included) the
    /// rows are the base's rows at the mapped snapshot, swapped where the
    /// view reverses time, and empty outside the view; for every range
    /// (empty, inverted and clipped ones included) the active-time slice
    /// holds the view times whose mapped snapshot is active, earliest first;
    /// and the provided visitors report exactly the slices. Rows past the
    /// end are checked on a `view` only: a storage may panic there.
    fn assert_slice_contract<G: EvolvingGraph>(
        g: &G,
        base: &AdjacencyListGraph,
        to_base: ToBase<'_>,
        view: bool,
        label: &str,
    ) {
        let n = g.num_timestamps() as u32;
        let past_end = if view { 2 } else { 0 };
        for v in (0..g.num_nodes()).map(NodeId::from_index) {
            for t in 0..n + past_end {
                let (out, inn) = match to_base(t) {
                    Some((b, false)) => (
                        base.out_slice(v, TimeIndex(b)),
                        base.in_slice(v, TimeIndex(b)),
                    ),
                    Some((b, true)) => (
                        base.in_slice(v, TimeIndex(b)),
                        base.out_slice(v, TimeIndex(b)),
                    ),
                    None => (&[][..], &[][..]),
                };
                let t = TimeIndex(t);
                assert_eq!(g.out_row(v, t), out, "{label}: out-row of {v:?} at {t:?}");
                assert_eq!(g.in_row(v, t), inn, "{label}: in-row of {v:?} at {t:?}");
                let (mut visited_out, mut visited_in) = (Vec::new(), Vec::new());
                g.for_each_static_out(v, t, &mut |w| visited_out.push(w));
                g.for_each_static_in(v, t, &mut |u| visited_in.push(u));
                assert_eq!(visited_out, out, "{label}: out-visitor of {v:?} at {t:?}");
                assert_eq!(visited_in, inn, "{label}: in-visitor of {v:?} at {t:?}");
            }
            let active = base.active_slice(v);
            for a in 0..n + 2 {
                for b in 0..n + 2 {
                    let want: Vec<TimeIndex> = (a..b.min(n))
                        .filter(|&t| {
                            to_base(t).is_some_and(|(s, _)| active.contains(&TimeIndex(s)))
                        })
                        .map(TimeIndex)
                        .collect();
                    let range = TimeIndex(a)..TimeIndex(b);
                    let slice = g.active_times_in(v, range.clone());
                    assert_eq!(slice.len(), want.len(), "{label}: {v:?} over {a}..{b}");
                    let got: Vec<TimeIndex> = slice.iter().collect();
                    assert_eq!(got, want, "{label}: {v:?} over {a}..{b}");
                    let mut visited = Vec::new();
                    g.for_each_active_time_in(v, range, TimeOrder::Descending, &mut |t| {
                        visited.push(t)
                    });
                    visited.reverse();
                    assert_eq!(
                        visited, want,
                        "{label}: descending visit of {v:?} over {a}..{b}"
                    );
                }
            }
        }
    }

    #[test]
    fn every_storage_and_view_hands_out_the_rows_and_times_its_visitors_report() {
        use crate::csr::CsrAdjacency;
        use crate::instrument::CountingView;
        use crate::reverse::ReversedView;
        use crate::window::TimeWindowView;

        let edges = random_edges(24, 9, 90);
        let graphs = [
            ("paper", figure1()),
            (
                "random",
                AdjacencyListGraph::from_indexed_edges(24, 9, &edges).unwrap(),
            ),
        ];
        for (name, g) in &graphs {
            let csr = CsrAdjacency::from_graph(g);
            let n = g.num_timestamps() as u32;
            let (start, last) = (1, n - 1);
            let len = last - start + 1;
            let same: ToBase<'_> = &|t| (t < n).then_some((t, false));
            let shifted: ToBase<'_> = &|t| (t < len).then_some((start + t, false));
            let flipped: ToBase<'_> = &|t| (t < n).then(|| (n - 1 - t, true));
            let flipped_window: ToBase<'_> = &|t| (t < len).then(|| (last - t, true));
            let window_of_flipped: ToBase<'_> = &|t| (t < len).then(|| (n - 1 - (start + t), true));
            let window = TimeWindowView::new(&csr, TimeIndex(start), TimeIndex(last)).unwrap();
            let reversed = ReversedView::new(g);
            let window_first = TimeWindowView::new(&reversed, TimeIndex(start), TimeIndex(last));
            let window_first = window_first.unwrap();
            let counted_window = CountingView::new(&window);
            assert_slice_contract(g, g, same, false, &format!("{name} adjacency"));
            assert_slice_contract(&csr, g, same, false, &format!("{name} csr"));
            assert_slice_contract(&&csr, g, same, false, &format!("{name} &csr"));
            assert_slice_contract(&window, g, shifted, true, &format!("{name} window"));
            assert_slice_contract(
                &counted_window,
                g,
                shifted,
                true,
                &format!("{name} counted window"),
            );
            assert_slice_contract(&reversed, g, flipped, true, &format!("{name} reversed"));
            let reversed_window = ReversedView::new(window);
            assert_slice_contract(
                &reversed_window,
                g,
                flipped_window,
                true,
                &format!("{name} reversed window"),
            );
            assert_slice_contract(
                &window_first,
                g,
                window_of_flipped,
                true,
                &format!("{name} window of reversed"),
            );
            let twice = ReversedView::new(ReversedView::new(&csr));
            assert_slice_contract(&twice, g, same, true, &format!("{name} reversed twice"));
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
