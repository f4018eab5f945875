//! The [`Search`] builder: a fluent, typed description of an evolving-graph
//! search, independent of the engine that executes it.

use std::sync::Arc;

use egraph_core::error::{GraphError, Result};
use egraph_core::foremost::{earliest_arrival, ForemostResult};
use egraph_core::graph::EvolvingGraph;
use egraph_core::ids::{NodeId, TemporalNode, TimeIndex};
use egraph_core::kernel::{check_root, default_parallel_threshold, distances, nearest_sources};
use egraph_core::reverse::ReversedView;
use egraph_core::window::TimeWindowView;
use egraph_matrix::algebraic_bfs::algebraic_bfs;

use crate::descriptor::{QueryDescriptor, QueryExecutor};
use crate::result::SearchResult;
use crate::view_map::ViewMap;

/// Direction of a temporal traversal.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Follow forward neighbors: static edges plus causal edges to later
    /// snapshots. Computes the influence set `T(a, t)` of Section V.
    Forward,
    /// Follow backward neighbors: reversed static edges plus causal edges to
    /// earlier snapshots. Computes `T⁻¹(a, t)`. Runs as a forward traversal
    /// on the time-reversed view.
    Backward,
}

/// Which engine executes the traversal.
///
/// The hop-distance strategies (`Serial`, `Parallel`, `Algebraic`) compute
/// identical distances (Theorem 4 of the paper) and differ only in
/// execution profile. The query-shaped strategies (`Foremost`,
/// `SharedFrontier`) answer a *restriction* of the query natively — arrival
/// times only, or nearest-source distances only — with strictly less work
/// than deriving the same answers from full per-source hop maps. The
/// workspace's `tests/kernel_oracle.rs` checks all five against one
/// independent Algorithm 1 oracle. See the crate-level "choosing a
/// strategy" table.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Strategy {
    /// Algorithm 1: serial adjacency-list BFS, `O(|E| + |V|)` (Theorem 2).
    /// The default, and the only engine that records BFS-tree parents.
    #[default]
    Serial,
    /// Frontier-parallel Algorithm 1: the same `egraph-core::kernel` loop
    /// as `Serial`, with each BFS level wide enough to pay for scheduling
    /// (see [`Search::parallel_threshold`]) chunked across the thread pool
    /// and per-chunk next-frontier buffers spliced once per level. Narrower
    /// levels, and every level on a one-thread pool, run the serial
    /// expansion. Results are bit-for-bit identical to `Serial` at every
    /// pool size (pinned by `tests/kernel_oracle.rs` under pools of 1, 2
    /// and 8 threads).
    Parallel,
    /// Algorithm 2 (`egraph-matrix::algebraic_bfs`): BFS as power iteration
    /// of the transposed block adjacency matrix of Section III-C.
    Algebraic,
    /// The earliest-arrival sweep (`egraph-core::foremost`): a time-ordered
    /// pass in `O(|Ẽ| + N·n)` that never expands the temporal-node product
    /// space. The result carries arrival snapshots, not hop distances;
    /// composed with `Backward` direction or [`Search::reverse`], the sweep
    /// runs on the reversed view and reports *latest departures*.
    Foremost,
    /// Shared-frontier multi-source BFS (`egraph-core::kernel` on packed
    /// `(distance, source)` keys): one traversal seeded with every source,
    /// recording per temporal node the nearest source and its distance —
    /// `O(|E| + |V|)` total regardless of the number of sources, where the
    /// per-source strategies cost that *per source*. Levels above the
    /// parallel threshold expand across the thread pool; the `fetch_min`
    /// claim keeps the result — distances *and* smallest-index tie-breaks —
    /// bit-for-bit equal to the serial expansion at every pool size. The
    /// result carries a single nearest-source map instead of per-source
    /// maps.
    SharedFrontier,
}

/// A snapshot-range restriction, produced from the range expressions accepted
/// by [`Search::window`]. Bounds are in the *original* graph's snapshot
/// indices and inclusive once resolved.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct WindowSpec {
    start: Option<u32>,
    end_inclusive: Option<u32>,
    empty: bool,
}

impl WindowSpec {
    /// The whole graph (no restriction).
    pub fn full() -> Self {
        WindowSpec {
            start: None,
            end_inclusive: None,
            empty: false,
        }
    }

    pub(crate) fn new(start: Option<u32>, end_inclusive: Option<u32>) -> Self {
        // Canonicalise: a start bound of 0 restricts nothing, so `0..x` and
        // `..x` (and `0..` and `..`) are the *same* window and must compare,
        // hash and cache identically. End bounds cannot be canonicalised
        // without a graph (`..=last` equals `..` only for one length).
        let start = start.filter(|&s| s != 0);
        let empty = matches!((start, end_inclusive), (Some(s), Some(e)) if e < s);
        WindowSpec {
            start,
            end_inclusive,
            empty,
        }
    }

    pub(crate) fn empty() -> Self {
        WindowSpec {
            start: None,
            end_inclusive: None,
            empty: true,
        }
    }

    /// Reassembles a spec from its serialized parts (the wire codec's
    /// deserialization path), refusing non-canonical combinations so a
    /// decoded spec always equals — compares, hashes, caches as — the spec
    /// the builder would have produced: a start of `0` must have
    /// canonicalised away, and the `empty` bit must be either derived
    /// (`end < start`) or the bare statically-empty marker.
    pub(crate) fn from_parts(
        start: Option<u32>,
        end_inclusive: Option<u32>,
        empty: bool,
    ) -> Option<Self> {
        if start == Some(0) {
            return None;
        }
        let derived = matches!((start, end_inclusive), (Some(s), Some(e)) if e < s);
        let bare_empty_marker = empty && start.is_none() && end_inclusive.is_none();
        if empty != derived && !bare_empty_marker {
            return None;
        }
        Some(WindowSpec {
            start,
            end_inclusive,
            empty,
        })
    }

    /// The inclusive start bound, if one was given.
    pub fn start_bound(&self) -> Option<u32> {
        self.start
    }

    /// The inclusive end bound, if one was given. A spec without an end
    /// bound keeps covering snapshots appended after the query was built —
    /// the property the incremental re-search layer keys on.
    pub fn end_bound(&self) -> Option<u32> {
        self.end_inclusive
    }

    /// Whether the spec was built from a statically empty range (e.g.
    /// `3..3`) and will always resolve to [`GraphError::EmptyWindow`].
    pub fn is_empty_spec(&self) -> bool {
        self.empty
    }

    /// Resolves the spec against a graph with `num_timestamps` snapshots,
    /// returning inclusive `(start, end)` indices.
    fn resolve(&self, num_timestamps: usize) -> Result<(usize, usize)> {
        if num_timestamps == 0 {
            return Err(GraphError::EmptyGraph);
        }
        if self.empty {
            return Err(GraphError::EmptyWindow);
        }
        let start = self.start.unwrap_or(0) as usize;
        let end = self
            .end_inclusive
            .map(|e| e as usize)
            .unwrap_or(num_timestamps - 1);
        if end >= num_timestamps {
            return Err(GraphError::TimeOutOfRange {
                time: TimeIndex::from_index(end),
                num_timestamps,
            });
        }
        if start > end {
            return Err(GraphError::EmptyWindow);
        }
        Ok((start, end))
    }
}

macro_rules! impl_window_from_ranges {
    ($t:ty, $get:expr) => {
        impl From<core::ops::Range<$t>> for WindowSpec {
            fn from(r: core::ops::Range<$t>) -> Self {
                let (start, end) = ($get(r.start), $get(r.end));
                match end.checked_sub(1) {
                    Some(e) => WindowSpec::new(Some(start), Some(e)),
                    None => WindowSpec::empty(),
                }
            }
        }
        impl From<core::ops::RangeInclusive<$t>> for WindowSpec {
            fn from(r: core::ops::RangeInclusive<$t>) -> Self {
                WindowSpec::new(Some($get(*r.start())), Some($get(*r.end())))
            }
        }
        impl From<core::ops::RangeFrom<$t>> for WindowSpec {
            fn from(r: core::ops::RangeFrom<$t>) -> Self {
                WindowSpec::new(Some($get(r.start)), None)
            }
        }
        impl From<core::ops::RangeTo<$t>> for WindowSpec {
            fn from(r: core::ops::RangeTo<$t>) -> Self {
                match $get(r.end).checked_sub(1) {
                    Some(e) => WindowSpec::new(None, Some(e)),
                    None => WindowSpec::empty(),
                }
            }
        }
        impl From<core::ops::RangeToInclusive<$t>> for WindowSpec {
            fn from(r: core::ops::RangeToInclusive<$t>) -> Self {
                WindowSpec::new(None, Some($get(r.end)))
            }
        }
    };
}

impl_window_from_ranges!(TimeIndex, |t: TimeIndex| t.0);
impl_window_from_ranges!(u32, |t: u32| t);

impl From<core::ops::RangeFull> for WindowSpec {
    fn from(_: core::ops::RangeFull) -> Self {
        WindowSpec::full()
    }
}

/// A fluent description of an evolving-graph search.
///
/// A `Search` is built from one or more source temporal nodes, optionally
/// refined with a [`Direction`], a [`Strategy`], a time [window](Search::window)
/// and/or [time reversal](Search::reverse), and then executed against any
/// [`EvolvingGraph`] with [`Search::run`]. Sources and results are always in
/// the coordinates of the graph handed to `run`, regardless of the views the
/// builder composes internally.
#[derive(Clone, Debug)]
pub struct Search {
    sources: Vec<TemporalNode>,
    direction: Direction,
    strategy: Strategy,
    window: WindowSpec,
    reversed: bool,
    with_parents: bool,
    parallel_threshold: Option<usize>,
}

impl Search {
    /// Starts a single-source search from `source`.
    #[allow(clippy::should_implement_trait)] // deliberate fluent entry point
    pub fn from(source: impl Into<TemporalNode>) -> Self {
        Search {
            sources: vec![source.into()],
            direction: Direction::Forward,
            strategy: Strategy::Serial,
            window: WindowSpec::full(),
            reversed: false,
            with_parents: false,
            parallel_threshold: None,
        }
    }

    /// Starts a multi-source search (the citation-mining access pattern of
    /// Section V). The hop-distance strategies run one independent traversal
    /// per source and the [`SearchResult`] exposes both per-source maps and
    /// union views; [`Strategy::SharedFrontier`] instead runs a single
    /// traversal seeded with every source and records nearest-source
    /// distances.
    pub fn from_sources<I, T>(sources: I) -> Self
    where
        I: IntoIterator<Item = T>,
        T: Into<TemporalNode>,
    {
        Search {
            sources: sources.into_iter().map(Into::into).collect(),
            direction: Direction::Forward,
            strategy: Strategy::Serial,
            window: WindowSpec::full(),
            reversed: false,
            with_parents: false,
            parallel_threshold: None,
        }
    }

    /// Sets the traversal direction. [`Direction::Backward`] follows reversed
    /// static edges and causal edges to *earlier* snapshots, computing the
    /// influencer set `T⁻¹(a, t)` of Section V.
    pub fn direction(mut self, direction: Direction) -> Self {
        self.direction = direction;
        self
    }

    /// Shorthand for [`Search::direction`]`(Direction::Backward)`.
    pub fn backward(self) -> Self {
        self.direction(Direction::Backward)
    }

    /// Selects the execution engine. Defaults to [`Strategy::Serial`].
    ///
    /// If [`Search::with_parents`] is requested, the serial engine is used
    /// regardless, because it is the only one that records BFS-tree parents;
    /// distances are identical either way (Theorem 4).
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Restricts the traversal to a contiguous snapshot range, given as any
    /// standard range expression over [`TimeIndex`] or raw `u32` snapshot
    /// indices — `t0..t1`, `t0..=t1`, `t0..`, `..t1`, `..` — in the
    /// coordinates of the graph handed to [`Search::run`]. This folds the
    /// `TimeWindowView` composition of Section II-C into the builder.
    pub fn window(mut self, window: impl Into<WindowSpec>) -> Self {
        self.window = window.into();
        self
    }

    /// Runs the query on the time-reversed graph (the `t → −t`
    /// transformation of Section V), composing with [`Search::window`] and
    /// [`Search::direction`]. A reversed forward search equals a backward
    /// search on the original graph, and vice versa; sources and results stay
    /// in the original coordinates.
    pub fn reverse(mut self) -> Self {
        self.reversed = !self.reversed;
        self
    }

    /// Sets the frontier width at which the parallel engines
    /// ([`Strategy::Parallel`], [`Strategy::SharedFrontier`]) start
    /// expanding a BFS level across the thread pool; narrower levels run
    /// serially because scheduling costs more than it saves. `0` forces
    /// every level onto the pool, `usize::MAX` forces the whole traversal
    /// serial. Defaults to `egraph_core::kernel::default_parallel_threshold`
    /// (the `EGRAPH_PAR_THRESHOLD` environment variable, or
    /// `egraph_core::kernel::PARALLEL_FRONTIER_THRESHOLD`, 65 536, which
    /// records the sweep behind it).
    ///
    /// The threshold changes only the execution profile, never the answer,
    /// so it is deliberately **not** part of [`Search::descriptor`]: cached
    /// results are shared across threshold settings.
    pub fn parallel_threshold(mut self, threshold: usize) -> Self {
        self.parallel_threshold = Some(threshold);
        self
    }

    /// Records BFS-tree parents so shortest temporal paths can be
    /// reconstructed with [`SearchResult::path_to`]. Forces the serial
    /// engine (see [`Search::strategy`]).
    pub fn with_parents(mut self) -> Self {
        self.with_parents = true;
        self
    }

    /// The configured sources.
    pub fn sources(&self) -> &[TemporalNode] {
        &self.sources
    }

    /// Whether the traversal executes on time-reversed coordinates: a
    /// backward traversal is a forward traversal on the time-reversed
    /// graph, and composing with an explicit [`Search::reverse`] toggles
    /// once more. The single source of truth for [`Search::run`] and
    /// [`Search::descriptor`] alike — the cache key must never
    /// desynchronise from actual execution.
    fn effective_reverse(&self) -> bool {
        self.reversed ^ (self.direction == Direction::Backward)
    }

    /// The canonical identity of this query — root(s) × strategy ×
    /// direction × window × reverse, with the builder's dispatch rules
    /// applied (`with_parents` forces the serial engine; backward direction
    /// and explicit reversal collapse into one *effective reverse* bit).
    /// Caching layers key memoised results on this.
    pub fn descriptor(&self) -> QueryDescriptor {
        let strategy = if self.with_parents {
            Strategy::Serial
        } else {
            self.strategy
        };
        QueryDescriptor::new(
            self.sources.clone(),
            strategy,
            self.effective_reverse(),
            self.window,
            self.with_parents,
        )
    }

    /// Routes this search through an alternative execution back end — a
    /// [`QueryExecutor`] such as `egraph-stream`'s cached live-graph
    /// session — instead of traversing a graph directly. Equivalent to
    /// `exec.run_search(self)`; provided so call sites keep the fluent
    /// shape: `Search::from(root).run_via(&mut session)`.
    pub fn run_via<E: QueryExecutor + ?Sized>(&self, exec: &mut E) -> Result<Arc<SearchResult>> {
        exec.run_search(self)
    }

    /// Executes the search against `graph`.
    ///
    /// The result arrives behind an [`Arc`] so execution layers that share
    /// results (the `egraph-stream` query cache serves hits as `O(1)` `Arc`
    /// clones of one materialisation) and direct callers go through one
    /// signature; a fresh run is the sole owner, so
    /// [`Arc::unwrap_or_clone`] recovers an owned [`SearchResult`] for free.
    ///
    /// # Errors
    ///
    /// * [`GraphError::NoSources`] if the builder holds no source;
    /// * [`GraphError::EmptyGraph`] / [`GraphError::EmptyWindow`] /
    ///   [`GraphError::TimeOutOfRange`] for degenerate windows;
    /// * [`GraphError::OutsideWindow`] for the first source whose snapshot
    ///   lies outside the window;
    /// * else the engine's validation error for the first invalid source
    ///   ([`GraphError::InactiveRoot`], in the graph's own coordinates, or
    ///   [`GraphError::NodeOutOfRange`]).
    ///
    /// Every strategy returns the same error for the same query.
    pub fn run<G: EvolvingGraph>(&self, graph: &G) -> Result<Arc<SearchResult>> {
        self.run_owned(graph).map(Arc::new)
    }

    /// [`Search::run`] before the [`Arc`] wrap — the single execution path
    /// both entry points share.
    fn run_owned<G: EvolvingGraph>(&self, graph: &G) -> Result<SearchResult> {
        if self.sources.is_empty() {
            return Err(GraphError::NoSources);
        }
        let num_timestamps = graph.num_timestamps();
        let (start, end) = self.window.resolve(num_timestamps)?;
        let effective_reverse = self.effective_reverse();
        let map = ViewMap {
            window_start: start,
            view_len: end - start + 1,
            reversed: effective_reverse,
        };
        // Every source is placed in the window before any engine runs, so
        // every strategy reports the first source outside it; the engines
        // then reject the first invalid root, named below in the graph's
        // own coordinates.
        let sources = self.sources_to_view(map)?;
        let windowed = start != 0 || end != num_timestamps - 1;
        let result = match (windowed, effective_reverse) {
            (false, false) => self.run_on(graph, &sources, map, num_timestamps),
            (true, false) => {
                let view = TimeWindowView::new(
                    graph,
                    TimeIndex::from_index(start),
                    TimeIndex::from_index(end),
                )?;
                self.run_on(&view, &sources, map, num_timestamps)
            }
            (false, true) => self.run_on(&ReversedView::new(graph), &sources, map, num_timestamps),
            (true, true) => {
                let view = TimeWindowView::new(
                    graph,
                    TimeIndex::from_index(start),
                    TimeIndex::from_index(end),
                )?;
                self.run_on(&ReversedView::new(view), &sources, map, num_timestamps)
            }
        };
        result.map_err(|e| match e {
            GraphError::InactiveRoot { root } => GraphError::InactiveRoot {
                root: map.node_to_original(root),
            },
            e => e,
        })
    }

    /// Maps every source into the view's coordinates, or reports the first
    /// one outside the window.
    fn sources_to_view(&self, map: ViewMap) -> Result<Vec<TemporalNode>> {
        let to_view = |source: &TemporalNode| {
            map.node_to_view(*source).ok_or(GraphError::OutsideWindow {
                time: source.time,
                start: TimeIndex::from_index(map.window_start),
                end: TimeIndex::from_index(map.window_start + map.view_len - 1),
            })
        };
        self.sources.iter().map(to_view).collect()
    }

    /// Runs the configured engine on the composed `view` from the sources
    /// in view coordinates, and maps results back into original
    /// coordinates.
    fn run_on<V: EvolvingGraph>(
        &self,
        view: &V,
        view_sources: &[TemporalNode],
        map: ViewMap,
        original_timestamps: usize,
    ) -> Result<SearchResult> {
        let strategy = if self.with_parents {
            // Parents require the serial hop engine (see `with_parents`).
            Strategy::Serial
        } else {
            self.strategy
        };
        match strategy {
            Strategy::Foremost => self.run_foremost_on(view, view_sources, map),
            Strategy::SharedFrontier => {
                self.run_shared_on(view, view_sources, map, original_timestamps)
            }
            _ => self.run_hops_on(view, view_sources, map, original_timestamps, strategy),
        }
    }

    /// The per-source hop-distance path (`Serial` / `Parallel` /
    /// `Algebraic`): one traversal per source.
    fn run_hops_on<V: EvolvingGraph>(
        &self,
        view: &V,
        view_sources: &[TemporalNode],
        map: ViewMap,
        original_timestamps: usize,
        strategy: Strategy,
    ) -> Result<SearchResult> {
        let mut maps = Vec::with_capacity(self.sources.len());
        for (&source, &view_source) in self.sources.iter().zip(view_sources) {
            let view_result = match strategy {
                // One kernel: the strategies differ only in the width at
                // which a level may go to the pool (`run_on` forces Serial
                // when parents are recorded).
                Strategy::Serial | Strategy::Parallel => {
                    let threshold = match strategy {
                        Strategy::Parallel => self
                            .parallel_threshold
                            .unwrap_or_else(default_parallel_threshold),
                        _ => usize::MAX,
                    };
                    distances(view, view_source, self.with_parents, threshold)?
                }
                Strategy::Algebraic => algebraic_bfs(view, view_source)?,
                Strategy::Foremost | Strategy::SharedFrontier => {
                    unreachable!("dispatched in run_on")
                }
            };
            maps.push(view_result.into_original(
                source,
                original_timestamps,
                map.window_start,
                map.reversed,
            ));
        }
        Ok(SearchResult::from_maps(maps, map.reversed))
    }

    /// The arrival-only path (`Strategy::Foremost`): one time-ordered sweep
    /// per source, `O(|Ẽ| + N·n)` each, with arrivals re-expressed in
    /// original snapshot indices. On a reversed view the sweep's "earliest
    /// arrival" is the original graph's *latest departure*.
    fn run_foremost_on<V: EvolvingGraph>(
        &self,
        view: &V,
        view_sources: &[TemporalNode],
        map: ViewMap,
    ) -> Result<SearchResult> {
        let num_nodes = view.num_nodes();
        let mut tables = Vec::with_capacity(self.sources.len());
        for (&source, &view_source) in self.sources.iter().zip(view_sources) {
            // The sweep itself tolerates inactive roots; validate like every
            // other engine so strategies agree on errors too.
            check_root(view, view_source)?;
            let swept = earliest_arrival(view, view_source);
            let arrivals: Vec<Option<TimeIndex>> = (0..num_nodes)
                .map(|v| {
                    swept
                        .arrival(NodeId::from_index(v))
                        .map(|t| map.time_to_original(t))
                })
                .collect();
            tables.push(ForemostResult::from_arrivals(source, arrivals));
        }
        Ok(SearchResult::from_arrivals(tables, map.reversed))
    }

    /// The shared-frontier path (`Strategy::SharedFrontier`): one traversal
    /// seeded with every source, nearest-source distances re-expressed in
    /// original coordinates.
    fn run_shared_on<V: EvolvingGraph>(
        &self,
        view: &V,
        view_sources: &[TemporalNode],
        map: ViewMap,
        original_timestamps: usize,
    ) -> Result<SearchResult> {
        // Wide levels go to the pool, narrow ones run the kernel's serial
        // expansion. The packed-key claim makes the answer independent of
        // both the threshold and the pool size (differential suites pin it
        // to an independent serial oracle).
        let shared = nearest_sources(
            view,
            view_sources,
            self.parallel_threshold
                .unwrap_or_else(default_parallel_threshold),
        )?;
        let shared = shared.into_original(
            self.sources.clone(),
            original_timestamps,
            map.window_start,
            map.reversed,
        );
        Ok(SearchResult::from_shared(shared, map.reversed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use egraph_core::examples::paper_figure1;

    #[test]
    fn strategies_agree_on_the_paper_example() {
        let g = paper_figure1();
        for &root in &g.active_nodes() {
            let serial = Search::from(root).run(&g).unwrap();
            for strategy in [Strategy::Parallel, Strategy::Algebraic] {
                let other = Search::from(root).strategy(strategy).run(&g).unwrap();
                assert_eq!(
                    serial.distance_map().as_flat_slice(),
                    other.distance_map().as_flat_slice(),
                    "strategy {strategy:?}, root {root:?}"
                );
            }
        }
    }

    #[test]
    fn double_reversal_is_the_identity() {
        let g = paper_figure1();
        let root = TemporalNode::from_raw(0, 0);
        let forward = Search::from(root).run(&g).unwrap();
        let double = Search::from(root).backward().reverse().run(&g).unwrap();
        assert_eq!(
            forward.distance_map().as_flat_slice(),
            double.distance_map().as_flat_slice()
        );
    }

    #[test]
    fn window_expressions_resolve_consistently() {
        let g = paper_figure1();
        let root = TemporalNode::from_raw(0, 1);
        let half_open = Search::from(root).window(1u32..3).run(&g).unwrap();
        let inclusive = Search::from(root).window(1u32..=2).run(&g).unwrap();
        let suffix = Search::from(root).window(TimeIndex(1)..).run(&g).unwrap();
        assert_eq!(
            half_open.distance_map().as_flat_slice(),
            inclusive.distance_map().as_flat_slice()
        );
        assert_eq!(
            half_open.distance_map().as_flat_slice(),
            suffix.distance_map().as_flat_slice()
        );
    }

    #[test]
    fn suffix_window_reproduces_the_full_search() {
        // Section II-C: snapshots before the root are irrelevant.
        let g = paper_figure1();
        let root = TemporalNode::from_raw(0, 1);
        let full = Search::from(root).run(&g).unwrap();
        let windowed = Search::from(root).window(1u32..).run(&g).unwrap();
        assert_eq!(
            full.distance_map().as_flat_slice(),
            windowed.distance_map().as_flat_slice()
        );
    }

    #[test]
    fn windowed_results_stay_in_original_coordinates() {
        let g = paper_figure1();
        let root = TemporalNode::from_raw(0, 1);
        let windowed = Search::from(root).window(1u32..=2).run(&g).unwrap();
        // (3, t3) = (2, 2) in original coordinates must be reported as such.
        assert_eq!(windowed.distance(TemporalNode::from_raw(2, 2)), Some(2));
        assert_eq!(windowed.distance_map().num_timestamps(), 3);
    }

    #[test]
    fn sources_outside_the_window_are_rejected() {
        let g = paper_figure1();
        let err = Search::from(TemporalNode::from_raw(0, 0))
            .window(1u32..=2)
            .run(&g)
            .unwrap_err();
        assert!(matches!(err, GraphError::OutsideWindow { .. }), "{err:?}");
    }

    #[test]
    #[allow(clippy::reversed_empty_ranges)] // deliberately empty windows
    fn degenerate_windows_are_rejected() {
        let g = paper_figure1();
        let root = TemporalNode::from_raw(0, 0);
        assert!(matches!(
            Search::from(root).window(1u32..1).run(&g).unwrap_err(),
            GraphError::EmptyWindow
        ));
        assert!(matches!(
            Search::from(root).window(2u32..=1).run(&g).unwrap_err(),
            GraphError::EmptyWindow
        ));
        assert!(matches!(
            Search::from(root).window(0u32..=9).run(&g).unwrap_err(),
            GraphError::TimeOutOfRange { .. }
        ));
    }

    #[test]
    fn empty_source_lists_are_rejected() {
        let g = paper_figure1();
        let err = Search::from_sources(Vec::<TemporalNode>::new())
            .run(&g)
            .unwrap_err();
        assert!(matches!(err, GraphError::NoSources));
    }

    #[test]
    fn invalid_sources_propagate_engine_errors() {
        let g = paper_figure1();
        assert!(matches!(
            Search::from(TemporalNode::from_raw(2, 0))
                .run(&g)
                .unwrap_err(),
            GraphError::InactiveRoot { .. }
        ));
        assert!(matches!(
            Search::from(TemporalNode::from_raw(9, 0))
                .run(&g)
                .unwrap_err(),
            GraphError::NodeOutOfRange { .. }
        ));
    }

    #[test]
    fn with_parents_reconstructs_paths_through_views() {
        let g = paper_figure1();
        // Windowed + parents: path must be a valid temporal path in original
        // coordinates.
        let result = Search::from(TemporalNode::from_raw(0, 1))
            .window(1u32..=2)
            .with_parents()
            .strategy(Strategy::Algebraic) // ignored: parents force serial
            .run(&g)
            .unwrap();
        let path = result.path_to(TemporalNode::from_raw(2, 2)).unwrap();
        assert_eq!(path.first().copied(), Some(TemporalNode::from_raw(0, 1)));
        assert_eq!(path.last().copied(), Some(TemporalNode::from_raw(2, 2)));
        for w in path.windows(2) {
            assert!(w[0].time <= w[1].time, "path moves backward: {path:?}");
        }
    }

    #[test]
    fn multi_source_unions_per_source_results() {
        let g = paper_figure1();
        let a = TemporalNode::from_raw(0, 1);
        let b = TemporalNode::from_raw(1, 0);
        let multi = Search::from_sources([a, b]).run(&g).unwrap();
        assert_eq!(multi.distance_maps().len(), 2);
        let single_a = Search::from(a).run(&g).unwrap();
        let single_b = Search::from(b).run(&g).unwrap();
        for tn in g.active_nodes() {
            let expected = match (single_a.distance(tn), single_b.distance(tn)) {
                (Some(x), Some(y)) => Some(x.min(y)),
                (x, y) => x.or(y),
            };
            assert_eq!(multi.distance(tn), expected, "at {tn:?}");
        }
    }
}
