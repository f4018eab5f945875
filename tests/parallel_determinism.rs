//! Parallel-determinism suite: now that the rayon shim executes on a real
//! thread pool, every parallel engine must produce **bit-for-bit** the same
//! answer — and the same errors — at every pool size.
//!
//! Two differentials are pinned for every query shape (direction × window ×
//! reverse × single/multi-source):
//!
//! * **engine**: `Strategy::Parallel` vs `Strategy::Serial`, and
//!   `Strategy::SharedFrontier` vs the independent serial loop of
//!   `common::oracle` — at a threshold of 1, so the pool path runs even on
//!   narrow levels;
//! * **schedule**: the same parallel query under pools of 1, 2 and 8
//!   threads must agree exactly (1-thread pools execute inline, so this
//!   also pins the parallel path against purely sequential execution).
//!
//! Determinism is by construction — level-synchronous expansion with
//! first-writer-wins CAS discovery (distances are fixed by the level
//! structure) and packed `(distance, source)` `fetch_min` claims (ties are
//! fixed by the key order) — and this suite is what keeps that argument
//! honest under a real scheduler.

mod common;

use evolving_graphs::prelude::*;
use rayon::ThreadPoolBuilder;

const POOL_SIZES: [usize; 3] = [1, 2, 8];

fn workloads() -> Vec<(&'static str, AdjacencyListGraph)> {
    let mut out = Vec::new();
    for seed in [11u64, 29] {
        out.push((
            "uniform_random",
            uniform_random_graph(&UniformRandomConfig {
                num_nodes: 60,
                num_timestamps: 5,
                num_edges: 400,
                directed: true,
                seed,
            }),
        ));
    }
    out.push((
        "preferential",
        preferential_attachment(&PreferentialConfig {
            num_nodes: 50,
            num_timestamps: 6,
            edges_per_timestamp: 40,
            seed: 13,
        }),
    ));
    out
}

/// Deterministic sample of active roots.
fn sample_roots(g: &AdjacencyListGraph) -> Vec<TemporalNode> {
    let actives = g.active_nodes();
    let step = (actives.len() / 4).max(1);
    actives.into_iter().step_by(step).take(4).collect()
}

/// The window shapes the suite sweeps, including statically valid, empty and
/// out-of-range ones (the latter two must error identically everywhere).
fn window_specs() -> Vec<(&'static str, WindowSpec)> {
    vec![
        ("full", WindowSpec::from(..)),
        ("suffix", WindowSpec::from(1u32..)),
        ("bounded", WindowSpec::from(0u32..=2)),
        ("inner", WindowSpec::from(1u32..=3)),
        #[allow(clippy::reversed_empty_ranges)]
        ("empty", WindowSpec::from(2u32..2)),
        ("out_of_range", WindowSpec::from(0u32..=40)),
    ]
}

/// Every single-source parallel query shape for one root.
fn parallel_shapes(root: TemporalNode) -> Vec<(String, Search)> {
    let mut shapes = Vec::new();
    for (window_name, window) in window_specs() {
        for backward in [false, true] {
            for reversed in [false, true] {
                let mut search = Search::from(root)
                    .strategy(Strategy::Parallel)
                    .parallel_threshold(1)
                    .window(window);
                if backward {
                    search = search.backward();
                }
                if reversed {
                    search = search.reverse();
                }
                shapes.push((
                    format!("parallel/{window_name}/backward={backward}/reversed={reversed}"),
                    search,
                ));
            }
        }
    }
    shapes
}

/// Every shared-frontier query shape for a source set.
fn shared_shapes(sources: &[TemporalNode]) -> Vec<(String, Search)> {
    let mut shapes = Vec::new();
    for (window_name, window) in window_specs() {
        for backward in [false, true] {
            for reversed in [false, true] {
                let mut search = Search::from_sources(sources.iter().copied())
                    .strategy(Strategy::SharedFrontier)
                    .parallel_threshold(1)
                    .window(window);
                if backward {
                    search = search.backward();
                }
                if reversed {
                    search = search.reverse();
                }
                shapes.push((
                    format!("shared/{window_name}/backward={backward}/reversed={reversed}"),
                    search,
                ));
            }
        }
    }
    shapes
}

/// Runs `search` and projects the outcome into a comparable form: the flat
/// distance slice plus reach counters on success, the exact error otherwise.
fn outcome(
    search: &Search,
    g: &AdjacencyListGraph,
) -> std::result::Result<(Vec<u32>, usize, u32), GraphError> {
    search.run(g).map(|result| {
        if search.sources().len() > 1 {
            let shared = result.shared_map();
            (
                shared.as_flat_slice().to_vec(),
                shared.num_reached(),
                shared.max_distance(),
            )
        } else {
            let map = result.distance_map();
            (
                map.as_flat_slice().to_vec(),
                map.num_reached(),
                map.max_distance(),
            )
        }
    })
}

#[test]
fn parallel_strategy_matches_serial_under_every_pool_size() {
    for (name, g) in workloads() {
        for root in sample_roots(&g) {
            for (shape, search) in parallel_shapes(root) {
                let serial = outcome(&search.clone().strategy(Strategy::Serial), &g);
                for threads in POOL_SIZES {
                    let pool = ThreadPoolBuilder::new()
                        .num_threads(threads)
                        .build()
                        .unwrap();
                    let parallel = pool.install(|| outcome(&search, &g));
                    assert_eq!(
                        parallel, serial,
                        "{name}: {shape} from {root:?} under {threads} threads"
                    );
                }
            }
        }
    }
}

#[test]
fn shared_frontier_matches_serial_engine_under_every_pool_size() {
    for (name, g) in workloads() {
        let actives = g.active_nodes();
        let sources: Vec<TemporalNode> = actives.iter().copied().step_by(17).take(6).collect();
        for (shape, search) in shared_shapes(&sources) {
            // The 1-thread pool run *is* sequential execution of the
            // parallel engine; 2 and 8 threads must replicate it exactly.
            let baseline = ThreadPoolBuilder::new()
                .num_threads(1)
                .build()
                .unwrap()
                .install(|| outcome(&search, &g));
            for threads in [2usize, 8] {
                let pool = ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap();
                let parallel = pool.install(|| outcome(&search, &g));
                assert_eq!(
                    parallel, baseline,
                    "{name}: {shape} under {threads} threads"
                );
            }
        }
    }
}

#[test]
fn shared_frontier_attribution_matches_the_serial_free_function() {
    // Full-graph forward shape: the builder's parallel shared-frontier
    // engine against the independent serial shared-frontier loop, source
    // attribution included, under the largest pool.
    for (name, g) in workloads() {
        let actives = g.active_nodes();
        let sources: Vec<TemporalNode> = actives.iter().copied().step_by(11).take(8).collect();
        let serial = common::oracle::multi_source_shared(&g, &sources).unwrap();
        let pool = ThreadPoolBuilder::new().num_threads(8).build().unwrap();
        let result = pool
            .install(|| {
                Search::from_sources(sources.iter().copied())
                    .strategy(Strategy::SharedFrontier)
                    .parallel_threshold(1)
                    .run(&g)
            })
            .unwrap();
        let shared = result.shared_map();
        assert_eq!(shared.as_flat_slice(), serial.as_flat_slice(), "{name}");
        for &tn in &actives {
            assert_eq!(
                shared.nearest_source_index(tn),
                serial.nearest_source_index(tn),
                "{name}: attribution at {tn:?}"
            );
        }
    }
}

#[test]
fn invalid_sources_error_identically_under_every_pool_size() {
    let (_, g) = &workloads()[0];
    let inactive = Search::from(TemporalNode::from_raw(0, 4))
        .strategy(Strategy::Parallel)
        .parallel_threshold(1);
    let out_of_range = Search::from(TemporalNode::from_raw(999, 0))
        .strategy(Strategy::Parallel)
        .parallel_threshold(1);
    let no_sources = Search::from_sources(Vec::<TemporalNode>::new())
        .strategy(Strategy::SharedFrontier)
        .parallel_threshold(1);
    for threads in POOL_SIZES {
        let pool = ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(|| {
            // (0, t4) may be active in some seeds; accept either outcome but
            // require it to match the serial engine exactly.
            assert_eq!(
                inactive.run(g).map(|r| r.num_reached()),
                inactive
                    .clone()
                    .strategy(Strategy::Serial)
                    .run(g)
                    .map(|r| r.num_reached()),
                "inactive root under {threads} threads"
            );
            assert!(matches!(
                out_of_range.run(g).unwrap_err(),
                GraphError::NodeOutOfRange { .. }
            ));
            assert!(matches!(
                no_sources.run(g).unwrap_err(),
                GraphError::NoSources
            ));
        });
    }
}

#[test]
fn multi_source_per_root_parallel_queries_match_serial() {
    // The per-root parallel pattern (one BFS per source distributed over the
    // pool) — the citation-mining access shape — under every pool size.
    for (name, g) in workloads() {
        let sources = sample_roots(&g);
        let serial = Search::from_sources(sources.iter().copied())
            .run(&g)
            .unwrap();
        for threads in POOL_SIZES {
            let pool = ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let result = pool
                .install(|| {
                    Search::from_sources(sources.iter().copied())
                        .strategy(Strategy::Parallel)
                        .parallel_threshold(1)
                        .run(&g)
                })
                .unwrap();
            for (a, b) in serial.distance_maps().iter().zip(result.distance_maps()) {
                assert_eq!(
                    a.as_flat_slice(),
                    b.as_flat_slice(),
                    "{name} under {threads} threads"
                );
            }
        }
    }
}
