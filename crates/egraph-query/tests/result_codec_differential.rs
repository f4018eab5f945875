//! Byte-identity differential for the streaming result writer.
//!
//! Every over-the-wire suite compares bodies against
//! `search_result_to_json` itself, so none of them can see the wire format
//! drift. This suite pins the format: over a seeded sweep of graphs and
//! query shapes, the streamed body must equal the `Value` DOM encoding
//! (`search_result_to_value(r).to_json()`) byte for byte, its length must
//! fit the bound `search_result_json_capacity` reserves (so the writer never
//! regrows its buffer), and it must decode back through
//! `search_result_from_json` to a result that answers identically.

use std::collections::BTreeSet;

use egraph_core::adjacency::AdjacencyListGraph;
use egraph_core::distance::{DistanceMap, MultiSourceMap};
use egraph_core::foremost::ForemostResult;
use egraph_core::graph::EvolvingGraph;
use egraph_core::ids::{NodeId, TemporalNode, TimeIndex};
use egraph_gen::{uniform_random_graph, UniformRandomConfig};
use egraph_query::codec::{
    search_result_from_json, search_result_json_capacity, search_result_to_json,
    search_result_to_value, write_search_result_json,
};
use egraph_query::{Search, SearchResult, Strategy};

const STRATEGIES: [Strategy; 5] = [
    Strategy::Serial,
    Strategy::Parallel,
    Strategy::Algebraic,
    Strategy::Foremost,
    Strategy::SharedFrontier,
];

/// The payload shapes a sweep has produced, so a sweep that silently stops
/// covering one fails instead of passing vacuously.
type Coverage = BTreeSet<&'static str>;

const EVERY_SHAPE: [&str; 6] = [
    "hops",
    "hops with parents",
    "arrivals",
    "shared",
    "reversed",
    "root-only",
];

fn note_shape(coverage: &mut Coverage, result: &SearchResult) {
    if let Some(maps) = result.try_distance_maps() {
        if maps.iter().any(|m| m.has_parents() && m.num_reached() > 1) {
            coverage.insert("hops with parents");
        } else {
            coverage.insert("hops");
        }
        if maps.iter().all(|m| m.num_reached() == 1) {
            coverage.insert("root-only");
        }
    } else if result.try_foremost_results().is_some() {
        coverage.insert("arrivals");
    } else {
        coverage.insert("shared");
    }
    if result.is_time_reversed() {
        coverage.insert("reversed");
    }
}

/// The differential itself: streamed == DOM, a capacity bound the writer
/// never outgrows, appending after existing bytes, and a decode that
/// answers (and re-encodes) identically.
fn assert_byte_identical(result: &SearchResult, what: &str) {
    let oracle = search_result_to_value(result).to_json();
    let streamed = search_result_to_json(result);
    assert_eq!(
        streamed, oracle,
        "{what}: streamed body differs from the DOM"
    );
    let capacity = search_result_json_capacity(result);
    assert!(
        capacity >= oracle.len(),
        "{what}: capacity bound {capacity} below the length {}",
        oracle.len()
    );
    let mut reserved = String::with_capacity(capacity);
    let reserved_capacity = reserved.capacity();
    write_search_result_json(&mut reserved, result);
    assert_eq!(reserved, oracle, "{what}: written into a reserved buffer");
    assert_eq!(
        reserved.capacity(),
        reserved_capacity,
        "{what}: the writer regrew a buffer reserved with the capacity bound"
    );

    let mut framed = String::from("{\"result\": ");
    write_search_result_json(&mut framed, result);
    assert_eq!(&framed["{\"result\": ".len()..], oracle, "{what}: appended");

    let decoded = search_result_from_json(&streamed)
        .unwrap_or_else(|err| panic!("{what}: streamed body does not decode: {err}"));
    assert_eq!(
        search_result_to_json(&decoded),
        streamed,
        "{what}: re-encode"
    );
    assert_eq!(
        decoded.is_time_reversed(),
        result.is_time_reversed(),
        "{what}"
    );
    if let Some(maps) = result.try_distance_maps() {
        let back = decoded.distance_maps();
        assert_eq!(back.len(), maps.len(), "{what}");
        for (orig, dec) in maps.iter().zip(back) {
            assert_eq!(dec.root(), orig.root(), "{what}");
            assert_eq!(dec.as_flat_slice(), orig.as_flat_slice(), "{what}");
            for (tn, _) in orig.reached() {
                assert_eq!(dec.parent(tn), orig.parent(tn), "{what}: parent of {tn:?}");
            }
        }
    } else if let Some(tables) = result.try_foremost_results() {
        let back = decoded.foremost_results();
        assert_eq!(back.len(), tables.len(), "{what}");
        for (orig, dec) in tables.iter().zip(back) {
            assert_eq!(dec.root(), orig.root(), "{what}");
            assert_eq!(dec.arrivals(), orig.arrivals(), "{what}");
        }
    } else {
        let (orig, dec) = (result.shared_map(), decoded.shared_map());
        assert_eq!(dec.sources(), orig.sources(), "{what}");
        assert_eq!(
            dec.reached_with_sources(),
            orig.reached_with_sources(),
            "{what}"
        );
    }
}

/// Every query shape the builder offers over `roots`: each strategy, both
/// directions, time reversal, parents, and full, suffix and bounded
/// windows (the narrowest admits only the roots' snapshot). Rejected
/// combinations (a root outside its window, parents off the serial
/// strategy) are skipped — they produce no result to encode.
fn sweep(g: &AdjacencyListGraph, roots: &[TemporalNode], tag: &str, coverage: &mut Coverage) {
    let last = g.num_timestamps() as u32 - 1;
    let t0 = roots.iter().map(|r| r.time.0).min().unwrap();
    let t1 = roots.iter().map(|r| r.time.0).max().unwrap();
    for strategy in STRATEGIES {
        for backward in [false, true] {
            for reverse in [false, true] {
                for parents in [false, true] {
                    for window in 0..4 {
                        let mut search = Search::from_sources(roots.to_vec()).strategy(strategy);
                        if backward {
                            search = search.backward();
                        }
                        if reverse {
                            search = search.reverse();
                        }
                        if parents {
                            if strategy != Strategy::Serial {
                                continue;
                            }
                            search = search.with_parents();
                        }
                        search = match window {
                            0 => search,
                            1 => search.window(t0..),
                            2 => search.window(..=t1),
                            _ if t0 == t1 && t0 > 0 => search.window(t0..=t1),
                            _ => search.window(t0..=last),
                        };
                        let Ok(result) = search.run(g) else {
                            continue;
                        };
                        let what = format!(
                            "{tag} roots={roots:?} {strategy:?} backward={backward} \
                             reverse={reverse} parents={parents} window#{window}"
                        );
                        assert_byte_identical(&result, &what);
                        note_shape(coverage, &result);
                    }
                }
            }
        }
    }
}

#[test]
fn streamed_bodies_equal_the_dom_over_a_seeded_sweep() {
    let mut coverage = Coverage::new();
    for seed in 0..12u64 {
        // Node universes of 3 to 150 give one- to three-digit ids;
        // sparse and dense graphs give short and long reached lists.
        let num_nodes = [3, 17, 64, 150][seed as usize % 4];
        let num_timestamps = 1 + (seed as usize % 5);
        let g = uniform_random_graph(&UniformRandomConfig {
            num_nodes,
            num_timestamps,
            num_edges: num_nodes * num_timestamps * (1 + seed as usize % 3),
            directed: seed % 3 != 0,
            seed: 0xC0DEC + seed,
        });
        let active = g.active_nodes();
        if active.is_empty() {
            continue;
        }
        let pick = |k: usize| active[(k * 7919 + seed as usize) % active.len()];
        let tag = format!("seed {seed}");
        for roots in [
            vec![pick(0)],
            vec![pick(1), pick(2)],
            vec![pick(3), pick(3), pick(4)],
        ] {
            sweep(&g, &roots, &tag, &mut coverage);
        }
    }

    // Roots with nowhere to go: node 1 only receives an edge, node 0 only
    // sends one, so forward from 1 and backward from 0 reach nothing else.
    let mut isolated = AdjacencyListGraph::directed_with_unit_times(2, 2);
    isolated
        .add_edge(NodeId(0), NodeId(1), TimeIndex(0))
        .unwrap();
    for root in [TemporalNode::from_raw(1, 0), TemporalNode::from_raw(0, 0)] {
        sweep(&isolated, &[root], "isolated", &mut coverage);
    }

    assert_eq!(coverage, Coverage::from(EVERY_SHAPE));
}

#[test]
fn hand_built_edge_results_stream_identically() {
    let root = TemporalNode::from_raw(4, 1);
    let (n, t) = (1000, 12);
    let cases = [
        (
            "root-only hops",
            SearchResult::from_maps(vec![DistanceMap::from_reached(n, t, root, &[])], false),
        ),
        (
            "root-only hops recorded with parents",
            SearchResult::from_maps(
                vec![DistanceMap::from_reached_with_parents(n, t, root, &[])],
                true,
            ),
        ),
        (
            "reached entries missing their parents",
            SearchResult::from_maps(
                vec![DistanceMap::from_reached_with_parents(
                    n,
                    t,
                    root,
                    &[
                        (TemporalNode::from_raw(999, 11), 10, None),
                        (TemporalNode::from_raw(5, 1), 1, Some(root)),
                    ],
                )],
                false,
            ),
        ),
        (
            "arrivals reaching nothing but the root",
            SearchResult::from_arrivals(
                vec![ForemostResult::from_arrivals(
                    root,
                    (0..n).map(|v| (v == 4).then_some(TimeIndex(1))).collect(),
                )],
                false,
            ),
        ),
        (
            "all-null arrivals",
            SearchResult::from_arrivals(
                vec![ForemostResult::from_arrivals(root, vec![None; 3])],
                true,
            ),
        ),
        (
            "root-only shared",
            SearchResult::from_shared(
                MultiSourceMap::from_entries(n, t, vec![root, root], &[(root, 0, 0)]),
                false,
            ),
        ),
    ];
    for (what, result) in &cases {
        assert_byte_identical(result, what);
    }
}

/// Integers on both sides of each digit-count step: 1|2, 2|3, 3|4 and 6|7
/// digits.
const BOUNDARIES: [u32; 8] = [9, 10, 99, 100, 999, 1000, 999_999, 1_000_000];

#[test]
fn digit_boundaries_stream_identically_within_the_bound() {
    // Node ids at every boundary the universe holds, over universes of 1 to
    // 7 digits. Distances run the other way, so every universe with one
    // entry already writes a 7-digit distance; parents point back along
    // the entries, and the last entry has none.
    for num_nodes in [
        1, 9, 10, 99, 100, 999, 1000, 10_000, 100_000, 999_999, 1_000_001,
    ] {
        let root = TemporalNode::from_raw(num_nodes as u32 - 1, 0);
        let nodes: Vec<u32> = BOUNDARIES
            .into_iter()
            .filter(|&v| (v as usize) < num_nodes)
            .collect();
        let entries: Vec<(TemporalNode, u32, Option<TemporalNode>)> = nodes
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                let parent = match i {
                    0 => Some(root),
                    i if i + 1 == nodes.len() => None,
                    i => Some(TemporalNode::from_raw(nodes[i - 1], 1)),
                };
                (TemporalNode::from_raw(v, 1), BOUNDARIES[7 - i], parent)
            })
            .collect();
        let plain: Vec<(TemporalNode, u32)> = entries.iter().map(|&(tn, d, _)| (tn, d)).collect();
        let with_parents = DistanceMap::from_reached_with_parents(num_nodes, 2, root, &entries);
        let without = DistanceMap::from_reached(num_nodes, 2, root, &plain);
        for (map, parents) in [(with_parents, true), (without, false)] {
            let what = format!("{num_nodes} nodes, parents={parents}");
            assert_byte_identical(&SearchResult::from_maps(vec![map], false), &what);
        }
    }

    // Times at every boundary, with parents one boundary earlier.
    let num_timestamps = 1_000_001;
    let root = TemporalNode::from_raw(0, 0);
    let entries: Vec<(TemporalNode, u32, Option<TemporalNode>)> = BOUNDARIES
        .into_iter()
        .enumerate()
        .map(|(i, t)| {
            let parent =
                TemporalNode::from_raw(i as u32 % 2, i.checked_sub(1).map_or(0, |j| BOUNDARIES[j]));
            (TemporalNode::from_raw(1, t), t, Some(parent))
        })
        .collect();
    let map = DistanceMap::from_reached_with_parents(2, num_timestamps, root, &entries);
    assert_byte_identical(&SearchResult::from_maps(vec![map], false), "times");

    // Arrival tables: boundary times among nulls, and short times where
    // `null` is the widest element.
    let wide: Vec<Option<TimeIndex>> = (0..12)
        .map(|v| BOUNDARIES.get(v).map(|&t| TimeIndex(t)))
        .collect();
    let narrow = vec![Some(TimeIndex(1)), None, Some(TimeIndex(9)), None];
    let tables = vec![
        ForemostResult::from_arrivals(TemporalNode::from_raw(11, 999_999), wide),
        ForemostResult::from_arrivals(TemporalNode::from_raw(0, 9), narrow),
        ForemostResult::from_arrivals(TemporalNode::from_raw(1_000_000, 10), vec![None; 10]),
    ];
    assert_byte_identical(&SearchResult::from_arrivals(tables, true), "arrivals");

    // Shared maps whose source counts straddle each boundary up to 1001.
    // The sources sit at distance 0; the entries at time 1 carry boundary
    // node ids and distances, the largest source index included.
    for num_sources in [10u32, 11, 100, 101, 1000, 1001] {
        let sources: Vec<TemporalNode> = (0..num_sources)
            .map(|i| TemporalNode::from_raw(i, 0))
            .collect();
        let mut entries: Vec<(TemporalNode, u32, usize)> = sources
            .iter()
            .enumerate()
            .map(|(i, &tn)| (tn, 0, i))
            .collect();
        entries.extend(BOUNDARIES.into_iter().enumerate().map(|(k, v)| {
            let source = (num_sources as usize - 1) - k % num_sources as usize;
            (TemporalNode::from_raw(v, 1), BOUNDARIES[7 - k], source)
        }));
        let shared = MultiSourceMap::from_entries(1_000_001, 2, sources, &entries);
        let what = format!("{num_sources} sources");
        assert_byte_identical(&SearchResult::from_shared(shared, false), &what);
    }
}
