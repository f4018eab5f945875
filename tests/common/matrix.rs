//! The test matrices, each asserted in exactly one place.
//!
//! **The oracle sweep's axes**, consumed by `kernel_oracle`: the five
//! [`STRATEGIES`], parallel [`THRESHOLDS`], [`POOL_SIZES`], the
//! [`workloads`] with their source sets, the [`windows`] of each, and the
//! builder-level [`error_cells`] whose expected error no oracle computes.
//!
//! **The cache-invalidation matrix.** Three suites consume it:
//! `live_stream_differential` (standing + random query streams),
//! `cache_matrix_fuzz` (the seeded harness that sweeps every matrix cell
//! after every seal) and `chaos`. They need the same two ingredients, so
//! they live here rather than drifting apart:
//!
//! * [`expected_outcome`] — the expected-[`CacheOutcome`] table, derived
//!   from the descriptor's *shape* independently of the production
//!   classification (`QueryDescriptor::append_repair`), so a bug that
//!   misroutes a row in the cache cannot also rewrite the expectation;
//! * [`assert_equivalent`] — payload-for-payload equality of a cached
//!   answer against a from-scratch run, with the one deliberate weakening
//!   the incremental paths force: parent *pointers* are checked for
//!   validity (one hop closer, edge exists in the effective direction),
//!   not pointer-for-pointer equality, because extension settles the
//!   appended snapshot in a different first-discoverer order than a
//!   from-scratch run while remaining a correct BFS tree.

use std::sync::Arc;

use evolving_graphs::citation::CitationNetwork;
use evolving_graphs::core::examples::{cyclic_example, paper_figure1, staircase};
use evolving_graphs::prelude::*;
use evolving_graphs::stream::CacheOutcome;
use rayon::{ThreadPool, ThreadPoolBuilder};

/// Every strategy the builder dispatches to.
pub const STRATEGIES: [Strategy; 5] = [
    Strategy::Serial,
    Strategy::Parallel,
    Strategy::Algebraic,
    Strategy::Foremost,
    Strategy::SharedFrontier,
];

/// Parallel thresholds for the strategies that take one: every level wide
/// (0 and 1), narrow levels serial (256), every level serial (`MAX`).
pub const THRESHOLDS: [usize; 4] = [0, 1, 256, usize::MAX];

/// Pool sizes every sweep cell runs under: a one-thread pool runs inline.
pub const POOL_SIZES: [usize; 3] = [1, 2, 8];

/// One pool per entry of [`POOL_SIZES`].
pub fn pools() -> Vec<(usize, ThreadPool)> {
    POOL_SIZES
        .iter()
        .map(|&n| (n, ThreadPoolBuilder::new().num_threads(n).build().unwrap()))
        .collect()
}

/// A graph of the oracle sweep and the source sets searched on it.
pub struct Workload {
    pub name: &'static str,
    pub graph: AdjacencyListGraph,
    pub source_sets: Vec<Vec<TemporalNode>>,
}

impl Workload {
    /// A workload searched from two single roots and one three-source set
    /// spanning snapshots, with a duplicate, plus `extra` sets.
    fn new(name: &'static str, graph: AdjacencyListGraph, extra: &[&[(u32, u32)]]) -> Self {
        let actives = graph.active_nodes();
        let step = (actives.len() / 3).max(1);
        let spread: Vec<TemporalNode> = actives.iter().copied().step_by(step).take(3).collect();
        let (first, last) = (spread[0], *spread.last().unwrap());
        let mut source_sets = vec![vec![first], vec![last]];
        if spread.len() == 3 {
            source_sets.push(vec![spread[0], spread[1], spread[2], spread[1]]);
        }
        for set in extra {
            let set = set.iter().map(|&(v, t)| TemporalNode::from_raw(v, t));
            source_sets.push(set.collect());
        }
        Workload {
            name,
            graph,
            source_sets,
        }
    }
}

/// The sweep's graphs: the paper's examples, degenerate shapes and seeded
/// generator output, directed and undirected.
pub fn workloads() -> Vec<Workload> {
    let uniform = |num_nodes, num_timestamps, num_edges, directed, seed| {
        uniform_random_graph(&UniformRandomConfig {
            num_nodes,
            num_timestamps,
            num_edges,
            directed,
            seed,
        })
    };
    let indexed = |n, t, edges: &[(u32, u32, u32)]| {
        AdjacencyListGraph::from_indexed_edges(n, t, edges).unwrap()
    };
    let corpus = synthetic_citation_corpus(&CitationConfig {
        num_authors: 60,
        num_epochs: 8,
        papers_per_epoch: 12,
        citations_per_paper: 3,
        preferential_bias: 1.0,
        seed: 31,
    });
    vec![
        // Root errors: inactive, node and time out of range, and an
        // inactive source ahead of one outside the windows from t1.
        Workload::new(
            "paper_figure1",
            paper_figure1(),
            &[
                &[(2, 2)],
                &[(2, 0)],
                &[(9, 0)],
                &[(0, 9)],
                &[(1, 1), (0, 0)],
            ],
        ),
        // Roots at both ends split the chain between them.
        Workload::new("staircase", staircase(6), &[&[(0, 0), (5, 4)]]),
        Workload::new("cyclic", cyclic_example(), &[]),
        Workload::new(
            "single_snapshot_path",
            indexed(3, 1, &[(0, 1, 0), (1, 2, 0)]),
            &[],
        ),
        // Sources in one of two components leave the other unreached.
        Workload::new(
            "two_components",
            indexed(4, 2, &[(0, 1, 0), (0, 1, 1), (2, 3, 0)]),
            &[&[(0, 0), (1, 0)]],
        ),
        Workload::new("undirected", uniform(30, 4, 120, false, 53), &[]),
        Workload::new("uniform_random", uniform(50, 5, 320, true, 41), &[]),
        Workload::new("uniform_sparse", uniform(60, 4, 60, true, 77), &[]),
        // Wide enough that some levels reach the 256 threshold.
        Workload::new("wide", uniform(300, 4, 4000, true, 47), &[]),
        Workload::new(
            "preferential",
            preferential_attachment(&PreferentialConfig {
                num_nodes: 40,
                num_timestamps: 6,
                edges_per_timestamp: 30,
                seed: 43,
            }),
            &[],
        ),
        Workload::new(
            "erdos_renyi",
            erdos_renyi_evolving(&ErConfig {
                num_nodes: 36,
                num_timestamps: 5,
                edge_probability: 0.06,
                directed: true,
                seed: 11,
            }),
            &[],
        ),
        Workload::new(
            "citation",
            CitationNetwork::from_corpus(&corpus).graph().clone(),
            &[],
        ),
    ]
}

/// Inclusive windows in original snapshot indices — full, suffix, prefix,
/// inner and the last snapshot alone, as far as `num_timestamps` allows —
/// each with the range expression that asks for it.
pub fn windows(num_timestamps: u32) -> Vec<(u32, u32, WindowSpec)> {
    let last = num_timestamps - 1;
    let mut out = vec![(0, last, WindowSpec::from(..))];
    if last >= 1 {
        out.push((1, last, WindowSpec::from(1u32..)));
        out.push((0, last - 1, WindowSpec::from(..last)));
    }
    if last >= 2 {
        out.push((1, last - 1, WindowSpec::from(1..=last - 1)));
        out.push((last, last, WindowSpec::from(last..)));
    }
    out
}

/// A query every strategy must reject with `error`, before any source is
/// looked at: the builder's own checks, which the oracle does not model.
pub struct ErrorCell {
    pub label: &'static str,
    pub graph: AdjacencyListGraph,
    pub search: Search,
    pub error: GraphError,
}

/// The builder-level error cells: degenerate windows, a graph without
/// snapshots and a search without sources.
#[allow(clippy::reversed_empty_ranges)] // deliberately empty windows
pub fn error_cells() -> Vec<ErrorCell> {
    let root = TemporalNode::from_raw(0, 0);
    let cell = |label, graph, search, error| ErrorCell {
        label,
        graph,
        search,
        error,
    };
    let paper = |label, window: WindowSpec, error| {
        cell(
            label,
            paper_figure1(),
            Search::from(root).window(window),
            error,
        )
    };
    vec![
        paper(
            "half-open empty",
            WindowSpec::from(1u32..1),
            GraphError::EmptyWindow,
        ),
        paper(
            "inverted",
            WindowSpec::from(2u32..=1),
            GraphError::EmptyWindow,
        ),
        paper(
            "zero prefix",
            WindowSpec::from(..0u32),
            GraphError::EmptyWindow,
        ),
        paper(
            "end out of range",
            WindowSpec::from(0u32..=9),
            GraphError::TimeOutOfRange {
                time: TimeIndex(9),
                num_timestamps: 3,
            },
        ),
        cell(
            "zero snapshots",
            AdjacencyListGraph::directed(3, Vec::new()).unwrap(),
            Search::from(root),
            GraphError::EmptyGraph,
        ),
        cell(
            "no sources",
            paper_figure1(),
            Search::from_sources(Vec::<TemporalNode>::new()),
            GraphError::NoSources,
        ),
    ]
}

/// The repair outcome a *stale, previously cached* query of this shape must
/// report — the matrix rows, re-derived from the raw descriptor axes:
///
/// | shape | outcome |
/// |---|---|
/// | bounded window end (any strategy / direction) | `Redimensioned` |
/// | effective reversal, unbounded end | `Resettled` |
/// | forward, unbounded end (all five strategies, parents included) | `Extended` |
///
/// Empty-window shapes never reach a repair (they error on every run and
/// errors are not cached), so they have no row here.
pub fn expected_repair_outcome(descriptor: &QueryDescriptor) -> CacheOutcome {
    if descriptor.window().end_bound().is_some() {
        CacheOutcome::Redimensioned
    } else if descriptor.effective_reverse() {
        CacheOutcome::Resettled
    } else {
        CacheOutcome::Extended
    }
}

/// The expected [`CacheOutcome`] of executing a query that *succeeds*, given
/// what the cache last did for its descriptor: `prior` is the graph version
/// of the last successful execution, if any (an errored execution caches
/// nothing and must be passed as `None`).
pub fn expected_outcome(
    descriptor: &QueryDescriptor,
    prior: Option<u64>,
    version: u64,
) -> CacheOutcome {
    match prior {
        Some(v) if v == version => CacheOutcome::Hit,
        Some(_) => expected_repair_outcome(descriptor),
        None => CacheOutcome::Miss,
    }
}

/// Asserts payload-for-payload equality of a cached and a from-scratch
/// outcome of `search`, errors included. `graph` is the sealed graph both
/// ran against; it anchors the parent-validity check.
pub fn assert_equivalent<G: EvolvingGraph>(
    label: &str,
    graph: &G,
    search: &Search,
    cached: Result<Arc<SearchResult>>,
    scratch: Result<Arc<SearchResult>>,
) {
    let descriptor = search.descriptor();
    match (cached, scratch) {
        (Err(a), Err(b)) => assert_eq!(a, b, "{label}: errors disagree"),
        (Ok(a), Ok(b)) => match descriptor.strategy() {
            Strategy::Serial | Strategy::Parallel | Strategy::Algebraic => {
                let (am, bm) = (a.distance_maps(), b.distance_maps());
                assert_eq!(am.len(), bm.len(), "{label}: map count");
                for (x, y) in am.iter().zip(bm) {
                    assert_eq!(x.root(), y.root(), "{label}: roots");
                    assert_eq!(
                        x.as_flat_slice(),
                        y.as_flat_slice(),
                        "{label}: distances for root {:?}",
                        x.root()
                    );
                    if descriptor.with_parents() {
                        assert!(y.has_parents(), "{label}: scratch run lost parents");
                        assert_parents_valid(label, graph, &descriptor, x);
                    }
                }
            }
            Strategy::Foremost => {
                let (at, bt) = (a.foremost_results(), b.foremost_results());
                assert_eq!(at.len(), bt.len(), "{label}: table count");
                for (x, y) in at.iter().zip(bt) {
                    assert_eq!(x.root(), y.root(), "{label}: roots");
                    assert_eq!(
                        x.arrivals(),
                        y.arrivals(),
                        "{label}: arrivals for root {:?}",
                        x.root()
                    );
                }
            }
            Strategy::SharedFrontier => {
                let (am, bm) = (a.shared_map(), b.shared_map());
                assert_eq!(am.sources(), bm.sources(), "{label}: sources");
                assert_eq!(am.as_flat_slice(), bm.as_flat_slice(), "{label}: distances");
                for (tn, _, src) in am.reached_with_sources() {
                    assert_eq!(
                        Some(src),
                        bm.nearest_source_index(tn),
                        "{label}: attribution at {tn:?}"
                    );
                }
            }
        },
        (a, b) => panic!("{label}: cached {a:?} disagrees with scratch {b:?}"),
    }
}

/// Asserts `map`'s parent pointers form a valid BFS tree on `graph`: every
/// reached non-root temporal node has a parent one hop closer to the root,
/// joined by an edge that exists in the traversal's effective direction
/// (reversed traversals follow backward neighbors — `ReversedView` forward
/// edges are original backward edges; a window only *restricts* a view's
/// edges, so validity on the full graph is implied).
fn assert_parents_valid<G: EvolvingGraph>(
    label: &str,
    graph: &G,
    descriptor: &QueryDescriptor,
    map: &DistanceMap,
) {
    assert!(map.has_parents(), "{label}: cached map lost parents");
    let root = map.root();
    for (tn, d) in map.reached() {
        if tn == root {
            continue;
        }
        let p = map
            .parent(tn)
            .unwrap_or_else(|| panic!("{label}: reached non-root {tn:?} lacks a parent"));
        assert_eq!(
            map.distance(p),
            Some(d - 1),
            "{label}: parent {p:?} of {tn:?} is not one hop closer"
        );
        let mut is_neighbor = false;
        if descriptor.effective_reverse() {
            graph.for_each_backward_neighbor(p, &mut |w| is_neighbor |= w == tn);
        } else {
            graph.for_each_forward_neighbor(p, &mut |w| is_neighbor |= w == tn);
        }
        assert!(
            is_neighbor,
            "{label}: parent edge {p:?} -> {tn:?} does not exist in the effective direction"
        );
    }
}
