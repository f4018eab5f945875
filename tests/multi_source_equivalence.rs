//! Oracle suite for the shared-frontier multi-source engines: the single
//! shared traversal (`Strategy::SharedFrontier`, `multi_source_shared`)
//! must agree with the per-source-minimum oracle
//! built from independent `Strategy::{Serial, Parallel, Algebraic}` runs —
//! distances *and* nearest-source attribution (ties to the smallest source
//! index) — including duplicate roots, roots at different snapshots and
//! unreachable components.

mod common;

use evolving_graphs::prelude::*;

const HOP_STRATEGIES: [Strategy; 3] = [Strategy::Serial, Strategy::Parallel, Strategy::Algebraic];

fn workloads() -> Vec<(&'static str, AdjacencyListGraph)> {
    let mut out = Vec::new();
    for seed in [5u64, 6] {
        out.push((
            "uniform_random",
            uniform_random_graph(&UniformRandomConfig {
                num_nodes: 40,
                num_timestamps: 5,
                num_edges: 220,
                directed: true,
                seed,
            }),
        ));
    }
    out.push((
        "preferential",
        preferential_attachment(&PreferentialConfig {
            num_nodes: 45,
            num_timestamps: 6,
            edges_per_timestamp: 35,
            seed: 7,
        }),
    ));
    out
}

/// Deterministic multi-source seed sets, deliberately spanning different
/// snapshots (the generators attach edges at every snapshot, so stepping
/// through `active_nodes` mixes times).
fn sample_sources(g: &AdjacencyListGraph) -> Vec<TemporalNode> {
    let actives = g.active_nodes();
    let step = (actives.len() / 4).max(1);
    actives.into_iter().step_by(step).take(4).collect()
}

/// The per-source-minimum oracle: minimum distance over per-source hop maps,
/// attribution to the smallest source index achieving it.
fn oracle(result: &SearchResult, tn: TemporalNode) -> Option<(u32, usize)> {
    result
        .distance_maps()
        .iter()
        .enumerate()
        .filter_map(|(i, m)| m.distance(tn).map(|d| (d, i)))
        .min()
}

#[test]
fn shared_frontier_matches_per_source_minimum_of_every_hop_strategy() {
    for (name, g) in workloads() {
        let sources = sample_sources(&g);
        let shared = Search::from_sources(sources.iter().copied())
            .strategy(Strategy::SharedFrontier)
            .run(&g)
            .unwrap();
        for strategy in HOP_STRATEGIES {
            let per_source = Search::from_sources(sources.iter().copied())
                .strategy(strategy)
                .run(&g)
                .unwrap();
            for tn in g.active_nodes() {
                let expected = oracle(&per_source, tn);
                assert_eq!(
                    shared.distance(tn),
                    expected.map(|(d, _)| d),
                    "{name}: {strategy:?} distance at {tn:?}"
                );
                assert_eq!(
                    shared.nearest_source_index(tn),
                    expected.map(|(_, i)| i),
                    "{name}: {strategy:?} attribution at {tn:?}"
                );
                assert_eq!(
                    shared.nearest_source(tn),
                    per_source.nearest_source(tn),
                    "{name}: {strategy:?} nearest source at {tn:?}"
                );
            }
            assert_eq!(shared.num_reached(), per_source.num_reached(), "{name}");
            assert_eq!(shared.reached(), per_source.reached(), "{name}");
            assert_eq!(
                shared.reached_node_ids(),
                per_source.reached_node_ids(),
                "{name}"
            );
        }
    }
}

#[test]
fn serial_and_parallel_shared_engines_are_bit_identical() {
    // Both expansions of the kernel — the serial free function and the
    // builder's pooled engine with every level wide — against the
    // independent serial shared-frontier loop.
    for (name, g) in workloads() {
        let sources = sample_sources(&g);
        let oracle = common::oracle::multi_source_shared(&g, &sources).unwrap();
        let serial = multi_source_shared(&g, &sources).unwrap();
        let result = Search::from_sources(sources.iter().copied())
            .strategy(Strategy::SharedFrontier)
            .parallel_threshold(0)
            .run(&g)
            .unwrap();
        for engine in [&serial, result.shared_map()] {
            assert_eq!(engine.as_flat_slice(), oracle.as_flat_slice(), "{name}");
            for tn in g.active_nodes() {
                assert_eq!(
                    engine.nearest_source_index(tn),
                    oracle.nearest_source_index(tn),
                    "{name} at {tn:?}"
                );
            }
        }
    }
}

#[test]
fn shared_frontier_composes_with_windows_backward_and_reverse() {
    for (name, g) in workloads() {
        let n_t = g.num_timestamps() as u32;
        let sources: Vec<TemporalNode> = sample_sources(&g)
            .into_iter()
            .filter(|s| s.time.0 >= 1)
            .collect();
        if sources.len() < 2 {
            continue;
        }
        for direction in [Direction::Forward, Direction::Backward] {
            for reversed in [false, true] {
                let build = || {
                    let mut s = Search::from_sources(sources.iter().copied())
                        .direction(direction)
                        .window(1..=n_t - 1);
                    if reversed {
                        s = s.reverse();
                    }
                    s
                };
                let shared = build().strategy(Strategy::SharedFrontier).run(&g).unwrap();
                let per_source = build().run(&g).unwrap();
                for tn in g.active_nodes() {
                    let expected = oracle(&per_source, tn);
                    assert_eq!(
                        shared.distance(tn).zip(shared.nearest_source_index(tn)),
                        expected,
                        "{name}: {direction:?} reversed={reversed} at {tn:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn duplicate_roots_attribute_to_the_first_occurrence() {
    for (name, g) in workloads() {
        let mut sources = sample_sources(&g);
        let dup = sources[0];
        sources.push(dup); // same temporal node twice, indices 0 and len-1
        let shared = Search::from_sources(sources.iter().copied())
            .strategy(Strategy::SharedFrontier)
            .run(&g)
            .unwrap();
        assert_eq!(shared.num_sources(), sources.len(), "{name}");
        let last = sources.len() - 1;
        for tn in g.active_nodes() {
            if let Some(i) = shared.nearest_source_index(tn) {
                assert_ne!(
                    i, last,
                    "{name}: duplicate source stole attribution at {tn:?}"
                );
            }
        }
    }
}

#[test]
fn roots_at_different_snapshots_claim_their_own_regions() {
    // staircase(n): node i active at snapshots i-1 and i. Seeding the two
    // ends splits the chain: every node is claimed by the nearer end.
    let n = 6u32;
    let g = evolving_graphs::core::examples::staircase(n as usize);
    let early = TemporalNode::from_raw(0, 0);
    let late = TemporalNode::from_raw(n - 1, n - 2);
    let shared = multi_source_shared(&g, &[early, late]).unwrap();
    assert_eq!(shared.nearest_source_index(early), Some(0));
    assert_eq!(shared.nearest_source_index(late), Some(1));
    assert_eq!(shared.distance(early), Some(0));
    assert_eq!(shared.distance(late), Some(0));
    // The oracle agrees everywhere, including interior nodes.
    let a = bfs(&g, early).unwrap();
    let b = bfs(&g, late).unwrap();
    for tn in g.active_nodes() {
        let expected = [a.distance(tn), b.distance(tn)]
            .into_iter()
            .enumerate()
            .filter_map(|(i, d)| d.map(|d| (d, i)))
            .min();
        assert_eq!(shared.distance(tn), expected.map(|(d, _)| d), "at {tn:?}");
        assert_eq!(
            shared.nearest_source_index(tn),
            expected.map(|(_, i)| i),
            "at {tn:?}"
        );
    }
}

#[test]
fn unreachable_components_stay_unreached() {
    // Two disjoint 2-node components across 2 snapshots; sources only in the
    // first component.
    let mut g = AdjacencyListGraph::directed_with_unit_times(4, 2);
    g.add_edge(NodeId(0), NodeId(1), TimeIndex(0)).unwrap();
    g.add_edge(NodeId(0), NodeId(1), TimeIndex(1)).unwrap();
    g.add_edge(NodeId(2), NodeId(3), TimeIndex(0)).unwrap();
    let sources = [TemporalNode::from_raw(0, 0), TemporalNode::from_raw(1, 0)];
    let shared = multi_source_shared(&g, &sources).unwrap();
    for v in [2u32, 3] {
        for t in [0u32, 1] {
            let tn = TemporalNode::from_raw(v, t);
            assert_eq!(shared.distance(tn), None, "at {tn:?}");
            assert_eq!(shared.nearest_source(tn), None, "at {tn:?}");
        }
    }
    let via_builder = Search::from_sources(sources)
        .strategy(Strategy::SharedFrontier)
        .run(&g)
        .unwrap();
    assert!(!via_builder.reaches_node(NodeId(2)));
    assert!(!via_builder.reaches_node(NodeId(3)));
    assert_eq!(via_builder.reached_node_ids(), vec![NodeId(0), NodeId(1)]);
}
