//! Strategy-equivalence suite for the unified `Search` builder: on generated
//! workloads (uniform random and preferential attachment from `egraph-gen`),
//! a `Search` with each `Strategy` must return distances identical to the
//! legacy free functions — for forward and backward directions, for
//! single-source and multi-source queries, and through windowed and
//! time-reversed view compositions.

mod common;

use evolving_graphs::prelude::*;

/// The generated workloads the suite sweeps. Sizes are chosen so every
/// engine (including the dense-adjacent algebraic one) finishes quickly
/// while frontiers are wide enough to exercise the parallel path.
fn workloads() -> Vec<(&'static str, AdjacencyListGraph)> {
    let mut out = Vec::new();
    for seed in [1u64, 2, 3] {
        out.push((
            "uniform_random",
            uniform_random_graph(&UniformRandomConfig {
                num_nodes: 40,
                num_timestamps: 5,
                num_edges: 250,
                directed: true,
                seed,
            }),
        ));
    }
    out.push((
        "uniform_sparse",
        uniform_random_graph(&UniformRandomConfig {
            num_nodes: 60,
            num_timestamps: 4,
            num_edges: 60,
            directed: true,
            seed: 77,
        }),
    ));
    out.push((
        "preferential",
        preferential_attachment(&PreferentialConfig {
            num_nodes: 50,
            num_timestamps: 6,
            edges_per_timestamp: 40,
            seed: 9,
        }),
    ));
    out
}

const STRATEGIES: [Strategy; 3] = [Strategy::Serial, Strategy::Parallel, Strategy::Algebraic];

/// A few active roots spread across the graph, deterministically.
fn sample_roots(g: &AdjacencyListGraph) -> Vec<TemporalNode> {
    let actives = g.active_nodes();
    let step = (actives.len() / 5).max(1);
    actives.into_iter().step_by(step).take(5).collect()
}

#[test]
fn every_strategy_matches_legacy_forward_bfs() {
    for (name, g) in workloads() {
        for root in sample_roots(&g) {
            let legacy = bfs(&g, root).unwrap();
            for strategy in STRATEGIES {
                let result = Search::from(root).strategy(strategy).run(&g).unwrap();
                assert_eq!(
                    result.distance_map().as_flat_slice(),
                    legacy.as_flat_slice(),
                    "{name}: {strategy:?} from {root:?}"
                );
            }
        }
    }
}

#[test]
fn every_strategy_matches_legacy_backward_bfs() {
    for (name, g) in workloads() {
        for root in sample_roots(&g) {
            let legacy = backward_bfs(&g, root).unwrap();
            for strategy in STRATEGIES {
                let result = Search::from(root)
                    .direction(Direction::Backward)
                    .strategy(strategy)
                    .run(&g)
                    .unwrap();
                assert_eq!(
                    result.distance_map().as_flat_slice(),
                    legacy.as_flat_slice(),
                    "{name}: {strategy:?} backward from {root:?}"
                );
            }
        }
    }
}

#[test]
fn windowed_search_matches_legacy_view_composition() {
    for (name, g) in workloads() {
        let n_t = g.num_timestamps();
        // Try every window that keeps at least two snapshots.
        for start in 0..n_t - 1 {
            let end = n_t - 1;
            let view =
                TimeWindowView::new(&g, TimeIndex::from_index(start), TimeIndex::from_index(end))
                    .unwrap();
            for root in sample_roots(&g) {
                let Some(view_root) = view.to_window_temporal(root) else {
                    continue;
                };
                let Ok(legacy) = bfs(&view, view_root) else {
                    continue;
                };
                for strategy in STRATEGIES {
                    let result = Search::from(root)
                        .window(start as u32..=end as u32)
                        .strategy(strategy)
                        .run(&g)
                        .unwrap();
                    // Same reached set and distances, modulo the coordinate
                    // shift the builder undoes.
                    assert_eq!(
                        result.num_reached(),
                        legacy.num_reached(),
                        "{name}: {strategy:?} window {start}..={end} from {root:?}"
                    );
                    for (tn, d) in legacy.reached() {
                        let original = view.to_inner_temporal(tn);
                        assert_eq!(
                            result.distance(original),
                            Some(d),
                            "{name}: {strategy:?} window {start}..={end} at {original:?}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn reversed_search_matches_legacy_view_composition() {
    for (name, g) in workloads() {
        let view = ReversedView::new(&g);
        for root in sample_roots(&g) {
            let legacy = bfs(&view, view.map_temporal(root)).unwrap();
            for strategy in STRATEGIES {
                let result = Search::from(root)
                    .reverse()
                    .strategy(strategy)
                    .run(&g)
                    .unwrap();
                assert_eq!(
                    result.num_reached(),
                    legacy.num_reached(),
                    "{name}: {strategy:?} reversed from {root:?}"
                );
                for (tn, d) in legacy.reached() {
                    let original = view.map_temporal(tn);
                    assert_eq!(
                        result.distance(original),
                        Some(d),
                        "{name}: {strategy:?} reversed at {original:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn reversed_backward_search_equals_forward_bfs() {
    // reverse() composed with Backward is the identity transformation.
    for (name, g) in workloads() {
        for root in sample_roots(&g).into_iter().take(2) {
            let legacy = bfs(&g, root).unwrap();
            for strategy in STRATEGIES {
                let result = Search::from(root)
                    .backward()
                    .reverse()
                    .strategy(strategy)
                    .run(&g)
                    .unwrap();
                assert_eq!(
                    result.distance_map().as_flat_slice(),
                    legacy.as_flat_slice(),
                    "{name}: {strategy:?} double-reversed from {root:?}"
                );
            }
        }
    }
}

#[test]
fn multi_source_search_matches_legacy_multi_source_bfs() {
    // Per-root answers come from the independent Algorithm 1 oracle, and
    // the per-root free function must agree with it too.
    for (name, g) in workloads() {
        let roots = sample_roots(&g);
        let legacy: Vec<Result<DistanceMap>> = roots
            .iter()
            .map(|&root| common::oracle::bfs(&g, root, Direction::Forward, false))
            .collect();
        for (free, oracle) in multi_source_bfs(&g, &roots).iter().zip(&legacy) {
            assert_eq!(
                free.as_ref().unwrap().as_flat_slice(),
                oracle.as_ref().unwrap().as_flat_slice(),
                "{name}: multi_source_bfs"
            );
        }
        for strategy in STRATEGIES {
            let result = Search::from_sources(roots.iter().copied())
                .strategy(strategy)
                .run(&g)
                .unwrap();
            assert_eq!(result.num_sources(), roots.len(), "{name}");
            for (i, per_root) in legacy.iter().enumerate() {
                let legacy_map = per_root.as_ref().unwrap();
                assert_eq!(
                    result.distance_maps()[i].as_flat_slice(),
                    legacy_map.as_flat_slice(),
                    "{name}: {strategy:?} source {i}"
                );
            }
        }
    }
}

#[test]
fn windowed_backward_search_matches_legacy_composition() {
    // Backward traversal inside a window: legacy composition is
    // backward_bfs on a TimeWindowView.
    for (name, g) in workloads() {
        let n_t = g.num_timestamps();
        let start = 1usize.min(n_t - 1);
        let end = n_t - 1;
        let view =
            TimeWindowView::new(&g, TimeIndex::from_index(start), TimeIndex::from_index(end))
                .unwrap();
        for root in sample_roots(&g) {
            let Some(view_root) = view.to_window_temporal(root) else {
                continue;
            };
            let Ok(legacy) = backward_bfs(&view, view_root) else {
                continue;
            };
            for strategy in STRATEGIES {
                let result = Search::from(root)
                    .direction(Direction::Backward)
                    .window(start as u32..=end as u32)
                    .strategy(strategy)
                    .run(&g)
                    .unwrap();
                assert_eq!(
                    result.num_reached(),
                    legacy.num_reached(),
                    "{name}: {strategy:?} backward window from {root:?}"
                );
                for (tn, d) in legacy.reached() {
                    let original = view.to_inner_temporal(tn);
                    assert_eq!(
                        result.distance(original),
                        Some(d),
                        "{name}: {strategy:?} backward window at {original:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn derived_queries_match_their_legacy_free_functions() {
    for (name, g) in workloads() {
        for root in sample_roots(&g).into_iter().take(3) {
            let result = Search::from(root).run(&g).unwrap();
            // reachable_set
            let legacy_set = reachable_set(&g, root).unwrap();
            assert_eq!(result.reachable_set(), legacy_set, "{name} from {root:?}");
            // eccentricity
            assert_eq!(
                Some(result.eccentricity()),
                eccentricity(&g, root),
                "{name} from {root:?}"
            );
            // distance_between / is_reachable on a few probes
            for probe in sample_roots(&g) {
                assert_eq!(
                    result.distance(probe),
                    distance_between(&g, root, probe).unwrap(),
                    "{name} {root:?} -> {probe:?}"
                );
                assert_eq!(
                    result.is_reached(probe),
                    is_reachable(&g, root, probe).unwrap(),
                    "{name} {root:?} -> {probe:?}"
                );
            }
            // earliest arrival agrees with the foremost sweep
            let foremost = earliest_arrival(&g, root);
            for v in 0..g.num_nodes() {
                let v = NodeId::from_index(v);
                assert_eq!(
                    result.earliest_arrival(v),
                    foremost.arrival(v),
                    "{name} from {root:?}, node {v:?}"
                );
            }
        }
    }
}
