//! EQ2 — Section III-A's demonstration that naïve adjacency-matrix products
//! miscount temporal paths, reproduced as executable assertions and extended
//! to random graphs.

use evolving_graphs::baselines::naive_product::{
    correct_path_count, disagreement_rate, naive_path_count, NaiveScheme,
};
use evolving_graphs::baselines::{flat_false_positives, missed_by_snapshot_bfs};
use evolving_graphs::prelude::*;

/// The exact counter-example of the paper: (S[t3])₁₃ = 1 but the true count
/// of temporal paths from (1,t1) to (3,t3) is 2.
#[test]
fn equation2_undercounts_on_the_paper_example() {
    let g = evolving_graphs::core::examples::paper_figure1();
    assert_eq!(
        naive_path_count(&g, NaiveScheme::PathSum, NodeId(0), NodeId(2)),
        1.0
    );
    assert_eq!(correct_path_count(&g, NodeId(0), NodeId(2)), 2.0);
}

/// The paper's remark that A[t1]·A[t2] = 0, so the plain product misses the
/// path ⟨(1,t1),(1,t2),(3,t2)⟩ entirely.
#[test]
fn plain_product_vanishes_on_the_paper_example() {
    let g = evolving_graphs::core::examples::paper_figure1();
    assert!(plain_product(&g).is_zero());
    // Yet that temporal path exists.
    assert!(is_temporal_path(
        &g,
        &[
            TemporalNode::from_raw(0, 0),
            TemporalNode::from_raw(0, 1),
            TemporalNode::from_raw(2, 1)
        ]
    ));
}

/// Padding the diagonal with ones is still wrong: it counts sequences that
/// wait at inactive nodes.
#[test]
fn identity_padding_overcounts_via_inactive_nodes() {
    let g = evolving_graphs::core::examples::paper_figure1();
    let padded = naive_path_count(&g, NaiveScheme::IdentityPadded, NodeId(2), NodeId(2));
    assert!(padded >= 1.0);
    assert_eq!(correct_path_count(&g, NodeId(2), NodeId(2)), 0.0);
}

/// On random evolving graphs the naïve schemes keep disagreeing with the
/// correct count on a non-trivial fraction of node pairs.
#[test]
fn naive_schemes_disagree_on_random_graphs() {
    let mut total_sum_rate = 0.0;
    let mut total_padded_rate = 0.0;
    let trials = 5;
    for seed in 0..trials {
        let g = figure5_workload(12, 4, 40, 100 + seed);
        total_sum_rate += disagreement_rate(&g, NaiveScheme::PathSum);
        total_padded_rate += disagreement_rate(&g, NaiveScheme::IdentityPadded);
    }
    assert!(
        total_sum_rate > 0.0,
        "Eq.(2) should miscount somewhere across {trials} random graphs"
    );
    assert!(
        total_padded_rate > 0.0,
        "identity padding should miscount somewhere across {trials} random graphs"
    );
}

/// The two BFS baselines bracket the truth: flattening over-approximates
/// (false positives exist for the ordering-sensitive game) and per-snapshot
/// search under-approximates (it misses everything needing causal edges).
#[test]
fn bfs_baselines_over_and_under_approximate() {
    let bad_order = evolving_graphs::core::examples::introduction_game(false);
    assert!(!flat_false_positives(&bad_order, NodeId(0)).is_empty());

    let g = evolving_graphs::core::examples::paper_figure1();
    let missed = missed_by_snapshot_bfs(&g, TemporalNode::from_raw(0, 0));
    assert!(!missed.is_empty());
    // Everything missed lies at a later snapshot or needed a causal hop.
    let full = Search::from(TemporalNode::from_raw(0, 0)).run(&g).unwrap();
    for tn in missed {
        assert!(full.is_reached(tn));
    }
}
