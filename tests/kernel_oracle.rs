//! Every strategy against an independent oracle, on one matrix.
//!
//! `common::matrix` defines the axes: workloads and their source sets,
//! windows, forward/backward × reverse, the five strategies, parallel
//! thresholds and pools of 1, 2 and 8 threads, and the builder-level error
//! cells. Each cell's expected answer comes from `common::oracle` — the
//! literal Algorithm 1 with its own root validation — and the oracle is in
//! turn checked against Theorem 1's `EquivalentStaticGraph` and, on
//! time-reversed shapes, against a backward-neighbour search that never
//! builds a `ReversedView`.
//!
//! Every cell runs twice against the same expectation: on the workload's
//! `AdjacencyListGraph` and on its `CsrAdjacency::from_graph` copy, so
//! backward and windowed views over the CSR layout are pinned too.
//!
//! A cell compares the strategy's payload exactly: per-source distances,
//! BFS-tree parents (`with_parents`), nearest-source attributions, or
//! per-source arrival tables. Once per strategy it also compares the
//! derived accessors: `arrival` (the latest departure when time-reversed)
//! and `reached_node_ids` on every payload, plus `reachable_set`,
//! `eccentricity` and `nearest_source` on the distance payloads.
//!
//! The tests after the sweep check what compares no two strategies.

mod common;

use common::matrix::{error_cells, pools, windows, workloads, STRATEGIES, THRESHOLDS};
use common::oracle;
use evolving_graphs::core::examples::{paper_figure1, staircase};
use evolving_graphs::prelude::*;

/// One reached temporal node in original coordinates: distance plus the
/// BFS-tree parent (hop maps) or the nearest-source index (shared maps).
/// An arrival table lists `(node, arrival)` at distance 0.
type Entry = (TemporalNode, u32, Option<TemporalNode>, Option<usize>);

/// The payload a strategy returns.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    Hops,
    Parents,
    Shared,
    Arrivals,
}

impl Kind {
    fn of(strategy: Strategy) -> Kind {
        match strategy {
            Strategy::Serial | Strategy::Parallel | Strategy::Algebraic => Kind::Hops,
            Strategy::SharedFrontier => Kind::Shared,
            Strategy::Foremost => Kind::Arrivals,
        }
    }
}

/// What the accessors derive from a payload. The distance fields are
/// `None` for arrival tables, which have no distances.
#[derive(Debug, PartialEq)]
struct Derived {
    arrival: Vec<Option<TimeIndex>>,
    reached_node_ids: Vec<NodeId>,
    reachable_set: Option<Vec<TemporalNode>>,
    eccentricity: Option<u32>,
    nearest_source: Option<Vec<Option<(TemporalNode, u32)>>>,
}

/// One run's answer: sorted entries per source (one list for a shared
/// map) and, when asked for, the derived accessors.
#[derive(Debug, PartialEq)]
struct Answer {
    entries: Vec<Vec<Entry>>,
    derived: Option<Derived>,
}

fn sorted(mut entries: Vec<Entry>) -> Vec<Entry> {
    entries.sort_unstable();
    entries
}

fn temporal_nodes(num_nodes: usize, num_timestamps: usize) -> Vec<TemporalNode> {
    (0..num_nodes * num_timestamps)
        .map(|i| TemporalNode::from_flat_index(i, num_nodes))
        .collect()
}

/// The builder's answer, read through the public accessors.
fn project(result: &SearchResult, kind: Kind, g: &AdjacencyListGraph, derive: bool) -> Answer {
    let entries = match kind {
        Kind::Hops | Kind::Parents => {
            let maps = result.distance_maps();
            let project = |map: &DistanceMap| {
                let mut entries = Vec::new();
                map.for_each_reached(|tn, d, p| entries.push((tn, d, p, None)));
                sorted(entries)
            };
            maps.iter().map(project).collect()
        }
        Kind::Shared => {
            let reached = result.shared_map().reached_with_sources().into_iter();
            vec![sorted(
                reached.map(|(tn, d, s)| (tn, d, None, Some(s))).collect(),
            )]
        }
        Kind::Arrivals => {
            let tables = result.foremost_results().iter();
            tables.map(|table| arrival_row(table.arrivals())).collect()
        }
    };
    let derived = derive.then(|| {
        let nodes = (0..g.num_nodes()).map(NodeId::from_index);
        let distances = kind != Kind::Arrivals;
        let all = temporal_nodes(g.num_nodes(), g.num_timestamps());
        Derived {
            arrival: nodes.map(|v| result.arrival(v)).collect(),
            reached_node_ids: result.reached_node_ids(),
            reachable_set: distances.then(|| result.reachable_set()),
            eccentricity: distances.then(|| result.eccentricity()),
            nearest_source: distances
                .then(|| all.iter().map(|&tn| result.nearest_source(tn)).collect()),
        }
    });
    Answer { entries, derived }
}

/// Each node's first reached snapshot, or its last when the traversal runs
/// backward in time.
fn arrivals<'a>(
    reached: impl IntoIterator<Item = &'a Entry>,
    reversed: bool,
    num_nodes: usize,
) -> Vec<Option<TimeIndex>> {
    let mut arrival = vec![None; num_nodes];
    for &(tn, ..) in reached {
        let a: &mut Option<TimeIndex> = &mut arrival[tn.node.index()];
        *a = Some(match *a {
            Some(t) if reversed => tn.time.max(t),
            Some(t) => tn.time.min(t),
            None => tn.time,
        });
    }
    arrival
}

/// An arrival table as entries `((node, arrival), 0)`, in node order.
fn arrival_row(arrivals: &[Option<TimeIndex>]) -> Vec<Entry> {
    let row = arrivals.iter().enumerate();
    let row = row.filter_map(|(v, t)| t.map(|t| TemporalNode::new(NodeId::from_index(v), t)));
    row.map(|tn| (tn, 0, None, None)).collect()
}

/// The oracle's Algorithm 1 from `s` on `view`, as sorted entries mapped by
/// `back`.
fn search<G: EvolvingGraph>(
    view: &G,
    s: TemporalNode,
    direction: Direction,
    with_parents: bool,
    back: impl Fn(TemporalNode) -> TemporalNode,
) -> Vec<Entry> {
    let map = oracle::bfs(view, s, direction, with_parents).unwrap();
    let mut entries = Vec::new();
    map.for_each_reached(|tn, d, p| entries.push((back(tn), d, p.map(&back), None)));
    sorted(entries)
}

/// Theorem 1's BFS from `s` on `view`'s equivalent static graph, sorted
/// and mapped by `back`.
fn static_distances<G: EvolvingGraph>(
    view: &G,
    s: TemporalNode,
    back: impl Fn(TemporalNode) -> TemporalNode,
) -> Vec<(TemporalNode, u32)> {
    let reached = EquivalentStaticGraph::build(view).bfs_distances_from(s);
    let mut reached: Vec<_> = reached
        .unwrap()
        .into_iter()
        .map(|(tn, d)| (back(tn), d))
        .collect();
    reached.sort_unstable();
    reached
}

/// The oracle's answers to one query shape, in original coordinates.
struct Expected {
    hops: Vec<Vec<Entry>>,
    parents: Vec<Vec<Entry>>,
    shared: Vec<Entry>,
    arrivals: Vec<Vec<Entry>>,
    sources: Vec<TemporalNode>,
    reversed: bool,
}

fn oracle_answers(
    g: &AdjacencyListGraph,
    sources: &[TemporalNode],
    (start, end): (u32, u32),
    reversed: bool,
) -> Result<Expected> {
    // Every source is checked against the window first, then each as a
    // root of the original graph: a window keeps every edge of the
    // snapshots it holds, so activeness does not depend on it.
    if let Some(s) = sources.iter().find(|s| s.time.0 < start || s.time.0 > end) {
        return Err(GraphError::OutsideWindow {
            time: s.time,
            start: TimeIndex(start),
            end: TimeIndex(end),
        });
    }
    for &s in sources {
        oracle::check_root(g, s)?;
    }
    let window = TimeWindowView::new(g, TimeIndex(start), TimeIndex(end)).unwrap();
    let len = end - start + 1;
    let shift = |tn: TemporalNode, by: i64| {
        TemporalNode::from_raw(tn.node.0, (i64::from(tn.time.0) + by) as u32)
    };
    let to_window = |tn| shift(tn, -i64::from(start));
    let to_original = |tn| shift(tn, i64::from(start));
    let flip = |tn: TemporalNode| TemporalNode::from_raw(tn.node.0, len - 1 - tn.time.0);
    let reversed_view = ReversedView::new(&window);
    let direction = if reversed {
        Direction::Backward
    } else {
        Direction::Forward
    };
    let window_sources: Vec<TemporalNode> = sources.iter().map(|&s| to_window(s)).collect();
    let mut hops = Vec::new();
    let mut parents = Vec::new();
    for &s in &window_sources {
        let entries = search(&window, s, direction, false, to_original);
        // Parents follow the traversal's own neighbour order, so a reversed
        // traversal's come from a forward search on the reversed view. Its
        // distances must equal the backward search's, and both Theorem 1's
        // static BFS.
        let (tree, on_static) = if reversed {
            let back = |tn| to_original(flip(tn));
            let tree = search(&reversed_view, flip(s), Direction::Forward, true, back);
            (tree, static_distances(&reversed_view, flip(s), back))
        } else {
            let tree = search(&window, s, Direction::Forward, true, to_original);
            (tree, static_distances(&window, s, to_original))
        };
        let distances = |e: &[Entry]| e.iter().map(|&(tn, d, ..)| (tn, d)).collect::<Vec<_>>();
        assert_eq!(distances(&tree), distances(&entries), "duality from {s:?}");
        assert_eq!(on_static, distances(&entries), "static oracle from {s:?}");
        hops.push(entries);
        parents.push(tree);
    }
    let shared = oracle::multi_source_shared(&window, &window_sources, direction).unwrap();
    let shared = shared.reached_with_sources().into_iter();
    let shared = sorted(
        shared
            .map(|(tn, d, s)| (to_original(tn), d, None, Some(s)))
            .collect(),
    );
    let arrivals = hops
        .iter()
        .map(|entries| arrival_row(&arrivals(entries, reversed, g.num_nodes())))
        .collect();
    Ok(Expected {
        hops,
        parents,
        shared,
        arrivals,
        sources: sources.to_vec(),
        reversed,
    })
}

impl Expected {
    /// The answer a strategy of payload `kind` must give.
    fn answer(&self, kind: Kind, g: &AdjacencyListGraph, derive: bool) -> Answer {
        let entries = match kind {
            Kind::Hops => self.hops.clone(),
            Kind::Parents => self.parents.clone(),
            Kind::Shared => vec![self.shared.clone()],
            Kind::Arrivals => self.arrivals.clone(),
        };
        Answer {
            entries,
            derived: derive.then(|| self.derived(kind, g)),
        }
    }

    fn derived(&self, kind: Kind, g: &AdjacencyListGraph) -> Derived {
        let (num_nodes, num_timestamps) = (g.num_nodes(), g.num_timestamps());
        // Every payload reaches the temporal nodes the shared map holds.
        let union: Vec<TemporalNode> = self.shared.iter().map(|e| e.0).collect();
        let arrival = arrivals(&self.shared, self.reversed, num_nodes);
        let reached_node_ids = (0..num_nodes)
            .filter(|&v| arrival[v].is_some())
            .map(NodeId::from_index)
            .collect();
        let mut reachable_set: Vec<TemporalNode> = union
            .iter()
            .copied()
            .filter(|tn| !self.sources.contains(tn))
            .collect();
        reachable_set.sort_by_key(|tn| tn.flat_index(num_nodes));
        let eccentricity = match kind {
            Kind::Shared => self.shared.iter().map(|e| e.1).max(),
            _ => self.hops.iter().flatten().map(|e| e.1).max(),
        };
        let nearest: std::collections::HashMap<TemporalNode, (TemporalNode, u32)> = self
            .shared
            .iter()
            .map(|&(tn, d, _, s)| (tn, (self.sources[s.unwrap()], d)))
            .collect();
        let distances = kind != Kind::Arrivals;
        Derived {
            arrival,
            reached_node_ids,
            reachable_set: distances.then_some(reachable_set),
            eccentricity: distances.then(|| eccentricity.unwrap_or(0)),
            nearest_source: distances.then(|| {
                let all = temporal_nodes(num_nodes, num_timestamps);
                all.iter().map(|tn| nearest.get(tn).copied()).collect()
            }),
        }
    }
}

/// Forward, reversed, backward, and backward reversed (forward again).
const ORIENTATIONS: [(bool, bool); 4] =
    [(false, false), (false, true), (true, false), (true, true)];

/// Applies direction and reversal to a search.
fn orient(mut search: Search, (backward, reversed): (bool, bool)) -> Search {
    if backward {
        search = search.backward();
    }
    if reversed {
        search = search.reverse();
    }
    search
}

/// The runs of one shape: `with_parents` (the serial expansion records
/// parents whatever the strategy), then every strategy at every threshold
/// it takes.
fn runs(base: &Search) -> Vec<(Search, Kind, &'static [usize])> {
    let mut runs = vec![(
        base.clone().with_parents(),
        Kind::Parents,
        &[usize::MAX][..],
    )];
    for strategy in STRATEGIES {
        let thresholds: &'static [usize] = match strategy {
            Strategy::Parallel | Strategy::SharedFrontier => &THRESHOLDS,
            _ => &[usize::MAX],
        };
        runs.push((
            base.clone().strategy(strategy),
            Kind::of(strategy),
            thresholds,
        ));
    }
    runs
}

#[test]
fn every_engine_matches_the_oracle_on_every_shape() {
    let pools = pools();
    for workload in workloads() {
        let g = &workload.graph;
        let csr = CsrAdjacency::from_graph(g);
        for sources in &workload.source_sets {
            for (start, end, window) in windows(g.num_timestamps() as u32) {
                for orientation in ORIENTATIONS {
                    let base = Search::from_sources(sources.iter().copied()).window(window);
                    let reversed = orientation.0 ^ orientation.1;
                    let expected = oracle_answers(g, sources, (start, end), reversed);
                    let shape = format!(
                        "{}: {sources:?} window {start}..={end} (backward, reversed) = \
                         {orientation:?}",
                        workload.name
                    );
                    for (search, kind, thresholds) in runs(&orient(base, orientation)) {
                        let want = |derive| match &expected {
                            Ok(e) => Ok(e.answer(kind, g, derive)),
                            Err(e) => Err(e.clone()),
                        };
                        let (plain, full) = (want(false), want(true));
                        for &threshold in thresholds {
                            let search = search.clone().parallel_threshold(threshold);
                            for (threads, pool) in &pools {
                                // The accessors read the payload alone:
                                // check them once per strategy.
                                let derive = threshold == thresholds[0] && *threads == 1;
                                let got = pool.install(|| search.run(g));
                                let got = got.map(|r| project(&r, kind, g, derive));
                                assert_eq!(
                                    &got,
                                    if derive { &full } else { &plain },
                                    "{shape}: {:?} threshold {threshold}, {threads} threads",
                                    search.descriptor().strategy(),
                                );
                                // The same cell over the CSR layout.
                                let got = pool.install(|| search.run(&csr));
                                let got = got.map(|r| project(&r, kind, g, derive));
                                assert_eq!(
                                    &got,
                                    if derive { &full } else { &plain },
                                    "{shape} on CSR: {:?} threshold {threshold}, {threads} \
                                     threads",
                                    search.descriptor().strategy(),
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn builder_errors_are_the_same_for_every_strategy() {
    let pools = pools();
    for cell in error_cells() {
        for orientation in ORIENTATIONS {
            for (search, _, thresholds) in runs(&orient(cell.search.clone(), orientation)) {
                for &threshold in thresholds {
                    let search = search.clone().parallel_threshold(threshold);
                    for (threads, pool) in &pools {
                        let got = pool.install(|| search.run(&cell.graph)).unwrap_err();
                        assert_eq!(
                            got,
                            cell.error,
                            "{}: {:?} {orientation:?} threshold {threshold}, {threads} threads",
                            cell.label,
                            search.descriptor().strategy(),
                        );
                    }
                }
            }
        }
    }
}

/// `staircase(6)`: node `i` links to `i + 1` at snapshot `i`, so node `i`
/// is active at `i − 1` and `i`, and every path alternates static and
/// causal hops.
#[test]
fn staircase_distances_alternate_static_and_causal_hops() {
    let g = staircase(6);
    let early = TemporalNode::from_raw(0, 0);
    let late = TemporalNode::from_raw(5, 4);
    let result = Search::from(early).run(&g).unwrap();
    for i in 1..6u32 {
        // i static hops and i − 1 causal hops, then one causal hop more.
        assert_eq!(
            result.distance(TemporalNode::from_raw(i, i - 1)),
            Some(2 * i - 1)
        );
        if i < 5 {
            assert_eq!(result.distance(TemporalNode::from_raw(i, i)), Some(2 * i));
        }
    }
    // Seeded at both ends, the late root claims only itself: nothing
    // leaves node 5.
    let split = Search::from_sources([early, late])
        .strategy(Strategy::SharedFrontier)
        .run(&g)
        .unwrap();
    for (tn, _) in split.reached() {
        let owner = if tn == late { 1 } else { 0 };
        assert_eq!(split.nearest_source_index(tn), Some(owner), "at {tn:?}");
    }
    assert_eq!(split.distance(late), Some(0));
}

#[test]
fn duplicate_roots_attribute_to_the_first_occurrence() {
    // On the paper example, (1, t1) twice around (1, t2): the copy at index
    // 2 never wins. (1, t2) owns itself and reaches (3, t2) and (3, t3) a
    // hop sooner than (1, t1) does; (1, t1) owns the rest.
    let g = paper_figure1();
    let tn = TemporalNode::from_raw;
    let (a, b) = (tn(0, 0), tn(0, 1));
    for strategy in [Strategy::Serial, Strategy::SharedFrontier] {
        let result = Search::from_sources([a, b, a])
            .strategy(strategy)
            .run(&g)
            .unwrap();
        assert_eq!(result.num_sources(), 3);
        assert_eq!(result.num_reached(), 6);
        for (node, _) in result.reached() {
            let want = usize::from([b, tn(2, 1), tn(2, 2)].contains(&node));
            let got = result.nearest_source_index(node);
            assert_eq!(got, Some(want), "{strategy:?} at {node:?}");
        }
    }
}

#[test]
fn backward_foremost_reports_latest_departures() {
    // Backward from (3, t3) on the paper example: the latest snapshot from
    // which each node can still reach the root.
    let g = paper_figure1();
    let root = TemporalNode::from_raw(2, 2);
    let sweep = Search::from(root)
        .backward()
        .strategy(Strategy::Foremost)
        .run(&g)
        .unwrap();
    assert!(sweep.is_time_reversed());
    // Node 1 (paper 2) can depart for (3, t3) as late as t3 itself.
    assert_eq!(sweep.arrival(NodeId(1)), Some(TimeIndex(2)));
    // Node 0 (paper 1) must depart by t2 (1 → 3 at t2, then wait).
    assert_eq!(sweep.arrival(NodeId(0)), Some(TimeIndex(1)));
    assert_eq!(sweep.arrival(NodeId(2)), Some(TimeIndex(2)));
}
