//! Edge-case regressions for the `Search` builder's window resolution and
//! degenerate-graph handling — the previously untested corners of
//! `WindowSpec::resolve`: empty windows, single-snapshot graphs, and roots at
//! the boundary snapshots under `Backward` direction. Every strategy must
//! agree on acceptance *and* rejection.

mod common;

use common::matrix::STRATEGIES;
use evolving_graphs::prelude::*;

fn paper() -> AdjacencyListGraph {
    evolving_graphs::core::examples::paper_figure1()
}

#[test]
#[allow(clippy::reversed_empty_ranges)] // deliberately empty windows
fn empty_windows_are_rejected_by_every_strategy() {
    let g = paper();
    let root = TemporalNode::from_raw(0, 0);
    for strategy in STRATEGIES {
        for (label, search) in [
            ("half-open empty", Search::from(root).window(1u32..1)),
            ("inverted inclusive", Search::from(root).window(2u32..=1)),
            ("zero prefix", Search::from(root).window(..0u32)),
        ] {
            let err = search.strategy(strategy).run(&g).unwrap_err();
            assert!(
                matches!(err, GraphError::EmptyWindow),
                "{label} under {strategy:?}: {err:?}"
            );
        }
        // Out-of-range is a different rejection and must stay one.
        let err = Search::from(root)
            .window(0u32..=9)
            .strategy(strategy)
            .run(&g)
            .unwrap_err();
        assert!(
            matches!(err, GraphError::TimeOutOfRange { .. }),
            "{strategy:?}: {err:?}"
        );
    }
}

#[test]
fn zero_snapshot_graphs_report_empty_graph() {
    let g = AdjacencyListGraph::directed(3, Vec::new()).unwrap();
    for strategy in STRATEGIES {
        let err = Search::from(TemporalNode::from_raw(0, 0))
            .strategy(strategy)
            .run(&g)
            .unwrap_err();
        assert!(
            matches!(err, GraphError::EmptyGraph),
            "{strategy:?}: {err:?}"
        );
    }
}

#[test]
fn single_snapshot_graphs_search_within_the_snapshot() {
    // One snapshot, a 3-node path 0 → 1 → 2: no causal edges exist, so every
    // traversal is a static BFS of that snapshot.
    let mut g = AdjacencyListGraph::directed_with_unit_times(3, 1);
    g.add_edge(NodeId(0), NodeId(1), TimeIndex(0)).unwrap();
    g.add_edge(NodeId(1), NodeId(2), TimeIndex(0)).unwrap();
    let root = TemporalNode::from_raw(0, 0);

    for strategy in [Strategy::Serial, Strategy::Parallel, Strategy::Algebraic] {
        let result = Search::from(root).strategy(strategy).run(&g).unwrap();
        assert_eq!(result.distance(TemporalNode::from_raw(2, 0)), Some(2));
        assert_eq!(result.num_reached(), 3, "{strategy:?}");
        // The only window expression a 1-snapshot graph admits is 0..=0,
        // and it must reproduce the full search.
        let windowed = Search::from(root)
            .window(0u32..=0)
            .strategy(strategy)
            .run(&g)
            .unwrap();
        assert_eq!(windowed.num_reached(), 3, "{strategy:?}");
    }
    let sweep = Search::from(root)
        .strategy(Strategy::Foremost)
        .run(&g)
        .unwrap();
    for v in 0..3u32 {
        assert_eq!(sweep.arrival(NodeId(v)), Some(TimeIndex(0)), "node {v}");
    }
    // Backward from the sink inverts the path within the single snapshot.
    let back = Search::from(TemporalNode::from_raw(2, 0))
        .backward()
        .run(&g)
        .unwrap();
    assert_eq!(back.distance(TemporalNode::from_raw(0, 0)), Some(2));
}

#[test]
fn backward_from_the_last_snapshot_works_for_every_strategy() {
    let g = paper();
    let root = TemporalNode::from_raw(2, 2); // (3, t3): the last snapshot
    let serial = Search::from(root).backward().run(&g).unwrap();
    assert!(serial.is_reached(TemporalNode::from_raw(0, 0)));
    for strategy in [
        Strategy::Parallel,
        Strategy::Algebraic,
        Strategy::SharedFrontier,
    ] {
        let other = Search::from(root)
            .backward()
            .strategy(strategy)
            .run(&g)
            .unwrap();
        for tn in g.active_nodes() {
            assert_eq!(
                other.distance(tn),
                serial.distance(tn),
                "{strategy:?} at {tn:?}"
            );
        }
    }
    let sweep = Search::from(root)
        .backward()
        .strategy(Strategy::Foremost)
        .run(&g)
        .unwrap();
    for v in 0..g.num_nodes() {
        let v = NodeId::from_index(v);
        assert_eq!(sweep.arrival(v), serial.arrival(v), "node {v:?}");
    }
}

#[test]
fn backward_root_at_the_last_snapshot_composes_with_windows() {
    let g = paper();
    let root = TemporalNode::from_raw(2, 2);
    // Window ending exactly at the root's snapshot.
    let windowed = Search::from(root)
        .backward()
        .window(1u32..=2)
        .run(&g)
        .unwrap();
    assert!(windowed.is_reached(TemporalNode::from_raw(0, 1)));
    assert!(!windowed.is_reached(TemporalNode::from_raw(0, 0)));
    // Degenerate-but-valid window holding only the last snapshot: the root
    // has no static in-edges at t3... except 2 → 3 exists at t3, so node 1
    // is one hop back.
    let point = Search::from(root)
        .backward()
        .window(2u32..=2)
        .run(&g)
        .unwrap();
    assert_eq!(point.distance(TemporalNode::from_raw(1, 2)), Some(1));
    assert_eq!(point.num_reached(), 2);
}

#[test]
fn window_spec_full_and_suffix_boundaries_resolve() {
    let g = paper();
    let root = TemporalNode::from_raw(0, 1);
    // `..` is the identity window.
    let full = Search::from(root).window(..).run(&g).unwrap();
    let bare = Search::from(root).run(&g).unwrap();
    assert_eq!(
        full.distance_map().as_flat_slice(),
        bare.distance_map().as_flat_slice()
    );
    // A suffix window starting at the final snapshot is valid.
    let last = Search::from(TemporalNode::from_raw(1, 2))
        .window(2u32..)
        .run(&g)
        .unwrap();
    assert_eq!(last.num_reached(), 2); // (2, t3) and its static neighbor (3, t3)
}
