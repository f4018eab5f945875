//! The traversal kernel against an independent oracle.
//!
//! Serial, Parallel and SharedFrontier all run one level-synchronous
//! kernel, so they can no longer check each other. This suite checks each
//! of them against the literal Algorithm 1 and the serial shared-frontier
//! loop of `common::oracle` — distances, nearest-source attributions and
//! `with_parents` pointers, exactly — and the distances also against
//! Theorem 1's `EquivalentStaticGraph::bfs_distances_from`.
//!
//! The sweep covers every strategy × forward/backward × window × reverse ×
//! parallel thresholds {0, 1, 256, MAX} × pools of {1, 2, 8} threads, for
//! single sources and source sets.

mod common;

use common::oracle;
use evolving_graphs::core::reverse::ReversedView;
use evolving_graphs::prelude::*;
use rayon::{ThreadPool, ThreadPoolBuilder};

const THRESHOLDS: [usize; 4] = [0, 1, 256, usize::MAX];
const POOL_SIZES: [usize; 3] = [1, 2, 8];

/// One reached temporal node in original coordinates: distance plus the
/// BFS-tree parent (hop maps) or the nearest-source index (shared maps).
type Entry = (TemporalNode, u32, Option<TemporalNode>, Option<usize>);

fn workloads() -> Vec<(&'static str, AdjacencyListGraph)> {
    vec![
        (
            "uniform_random",
            uniform_random_graph(&UniformRandomConfig {
                num_nodes: 50,
                num_timestamps: 5,
                num_edges: 320,
                directed: true,
                seed: 41,
            }),
        ),
        (
            "preferential",
            preferential_attachment(&PreferentialConfig {
                num_nodes: 40,
                num_timestamps: 6,
                edges_per_timestamp: 30,
                seed: 43,
            }),
        ),
        // Wide enough that some levels reach the default threshold of 256.
        (
            "wide",
            uniform_random_graph(&UniformRandomConfig {
                num_nodes: 300,
                num_timestamps: 4,
                num_edges: 4000,
                directed: true,
                seed: 47,
            }),
        ),
    ]
}

/// Source sets: two single roots and one three-source set spanning
/// snapshots, with a duplicate.
fn source_sets(g: &AdjacencyListGraph) -> Vec<Vec<TemporalNode>> {
    let actives = g.active_nodes();
    let step = (actives.len() / 3).max(1);
    let spread: Vec<TemporalNode> = actives.iter().copied().step_by(step).take(3).collect();
    vec![
        vec![spread[0]],
        vec![*spread.last().unwrap()],
        vec![spread[0], spread[1], spread[2], spread[1]],
    ]
}

/// Inclusive windows in original snapshot indices.
fn windows(n_t: u32) -> Vec<(u32, u32)> {
    vec![(0, n_t - 1), (1, n_t - 1), (0, n_t - 2), (1, n_t - 2)]
}

/// The traversal view the builder composes — window, then reversal — and
/// the map from its coordinates back to the original graph's.
fn expected<G: EvolvingGraph>(
    view: &G,
    sources: &[TemporalNode],
    shared: bool,
    with_parents: bool,
    to_original: impl Fn(TemporalNode) -> TemporalNode,
    to_view: impl Fn(TemporalNode) -> TemporalNode,
) -> Vec<Vec<Entry>> {
    let view_sources: Vec<TemporalNode> = sources.iter().map(|&s| to_view(s)).collect();
    let eq = EquivalentStaticGraph::build(view);
    let statics: Vec<DistanceMap> = view_sources
        .iter()
        .map(|&s| {
            let reached = eq.bfs_distances_from(s).expect("source is active");
            DistanceMap::from_reached(view.num_nodes(), view.num_timestamps(), s, &reached)
        })
        .collect();
    let mut maps = Vec::new();
    if shared {
        let map = oracle::multi_source_shared(view, &view_sources).unwrap();
        let mut entries: Vec<Entry> = map
            .reached_with_sources()
            .into_iter()
            .map(|(tn, d, s)| (to_original(tn), d, None, Some(s)))
            .collect();
        // Theorem 1: the nearest-source distance is the minimum over the
        // static graph's per-source BFS.
        for &(tn, d, _, _) in &entries {
            let tn = to_view(tn);
            let best = statics.iter().filter_map(|m| m.distance(tn)).min();
            assert_eq!(best, Some(d), "static oracle at {tn:?}");
        }
        entries.sort_unstable();
        maps.push(entries);
    } else {
        for (&s, stat) in view_sources.iter().zip(&statics) {
            let map = oracle::bfs(view, s, Direction::Forward, with_parents).unwrap();
            let mut entries = Vec::new();
            map.for_each_reached(|tn, d, p| {
                entries.push((to_original(tn), d, p.map(&to_original), None))
            });
            assert_eq!(
                map.as_flat_slice(),
                stat.as_flat_slice(),
                "static oracle from {s:?}"
            );
            entries.sort_unstable();
            maps.push(entries);
        }
    }
    maps
}

/// The oracle's answer for one query shape, in original coordinates, or
/// `None` if a source lies outside the window.
fn oracle_answer(
    g: &AdjacencyListGraph,
    sources: &[TemporalNode],
    (start, end): (u32, u32),
    effective_reverse: bool,
    shared: bool,
    with_parents: bool,
) -> Option<Vec<Vec<Entry>>> {
    if sources.iter().any(|s| s.time.0 < start || s.time.0 > end) {
        return None;
    }
    let window = TimeWindowView::new(g, TimeIndex(start), TimeIndex(end)).unwrap();
    let len = end - start + 1;
    let shift = |tn: TemporalNode, by: i64| {
        TemporalNode::from_raw(tn.node.0, (i64::from(tn.time.0) + by) as u32)
    };
    Some(if effective_reverse {
        let flip = |tn: TemporalNode| TemporalNode::from_raw(tn.node.0, len - 1 - tn.time.0);
        expected(
            &ReversedView::new(&window),
            sources,
            shared,
            with_parents,
            |tn| shift(flip(tn), i64::from(start)),
            |tn| flip(shift(tn, -i64::from(start))),
        )
    } else {
        expected(
            &window,
            sources,
            shared,
            with_parents,
            |tn| shift(tn, i64::from(start)),
            |tn| shift(tn, -i64::from(start)),
        )
    })
}

/// The builder's answer in the same sorted-entry form.
fn engine_answer(result: &SearchResult, shared: bool) -> Vec<Vec<Entry>> {
    if shared {
        let mut entries: Vec<Entry> = result
            .shared_map()
            .reached_with_sources()
            .into_iter()
            .map(|(tn, d, s)| (tn, d, None, Some(s)))
            .collect();
        entries.sort_unstable();
        return vec![entries];
    }
    result
        .distance_maps()
        .iter()
        .map(|map| {
            let mut entries = Vec::new();
            map.for_each_reached(|tn, d, p| entries.push((tn, d, p, None)));
            entries.sort_unstable();
            entries
        })
        .collect()
}

fn pools() -> Vec<(usize, ThreadPool)> {
    POOL_SIZES
        .iter()
        .map(|&n| (n, ThreadPoolBuilder::new().num_threads(n).build().unwrap()))
        .collect()
}

#[test]
fn every_engine_matches_the_oracle_on_every_shape() {
    let pools = pools();
    for (name, g) in workloads() {
        let n_t = g.num_timestamps() as u32;
        for sources in source_sets(&g) {
            for window in windows(n_t) {
                for backward in [false, true] {
                    for reversed in [false, true] {
                        let base = {
                            let mut s = Search::from_sources(sources.iter().copied())
                                .window(window.0..=window.1);
                            if backward {
                                s = s.backward();
                            }
                            if reversed {
                                s = s.reverse();
                            }
                            s
                        };
                        let effective = backward ^ reversed;
                        let hops = oracle_answer(&g, &sources, window, effective, false, false);
                        let parents = oracle_answer(&g, &sources, window, effective, false, true);
                        let shared = oracle_answer(&g, &sources, window, effective, true, false);
                        let shape = format!(
                            "{name}: {sources:?} window {window:?} backward={backward} \
                             reversed={reversed}"
                        );
                        // Parent pointers come from the serial expansion
                        // only, whatever strategy was asked for.
                        let with_parents = base.clone().with_parents().run(&g);
                        check(&with_parents, &parents, false, &format!("{shape} parents"));
                        for strategy in [
                            Strategy::Serial,
                            Strategy::Parallel,
                            Strategy::SharedFrontier,
                        ] {
                            let is_shared = strategy == Strategy::SharedFrontier;
                            let want = if is_shared { &shared } else { &hops };
                            for threshold in THRESHOLDS {
                                let search = base
                                    .clone()
                                    .strategy(strategy)
                                    .parallel_threshold(threshold);
                                for (threads, pool) in &pools {
                                    let got = pool.install(|| search.run(&g));
                                    check(
                                        &got,
                                        want,
                                        is_shared,
                                        &format!(
                                            "{shape} {strategy:?} threshold {threshold} \
                                             {threads} threads"
                                        ),
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

fn check(
    got: &Result<std::sync::Arc<SearchResult>>,
    want: &Option<Vec<Vec<Entry>>>,
    shared: bool,
    case: &str,
) {
    match (got, want) {
        (Ok(result), Some(want)) => assert_eq!(&engine_answer(result, shared), want, "{case}"),
        (Err(GraphError::OutsideWindow { .. }), None) => {}
        (got, want) => panic!(
            "{case}: engine {:?} but oracle {}",
            got.as_ref().map(|r| r.num_reached()),
            if want.is_some() {
                "answered"
            } else {
                "expected OutsideWindow"
            }
        ),
    }
}

#[test]
fn free_functions_match_the_oracle_in_both_directions() {
    for (name, g) in workloads() {
        for &root in g.active_nodes().iter().step_by(7) {
            for with_parents in [false, true] {
                let cases = [
                    (
                        Direction::Forward,
                        if with_parents {
                            bfs_with_parents(&g, root)
                        } else {
                            bfs(&g, root)
                        },
                    ),
                    (
                        Direction::Backward,
                        if with_parents {
                            backward_bfs_with_parents(&g, root)
                        } else {
                            backward_bfs(&g, root)
                        },
                    ),
                ];
                for (direction, got) in cases {
                    let got = got.unwrap();
                    let want = oracle::bfs(&g, root, direction, with_parents).unwrap();
                    let case =
                        format!("{name}: {direction:?} from {root:?} parents={with_parents}");
                    assert_eq!(got.as_flat_slice(), want.as_flat_slice(), "{case}");
                    assert_eq!(got.num_reached(), want.num_reached(), "{case}");
                    assert_eq!(got.max_distance(), want.max_distance(), "{case}");
                    for (tn, _) in want.reached() {
                        assert_eq!(got.parent(tn), want.parent(tn), "{case} at {tn:?}");
                    }
                }
            }
        }
        for sources in source_sets(&g) {
            let got = multi_source_shared(&g, &sources).unwrap();
            let want = oracle::multi_source_shared(&g, &sources).unwrap();
            assert_eq!(
                got.reached_with_sources(),
                want.reached_with_sources(),
                "{name}"
            );
            assert_eq!(got.num_reached(), want.num_reached(), "{name}");
            assert_eq!(got.max_distance(), want.max_distance(), "{name}");
        }
    }
}
