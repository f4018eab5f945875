//! End-to-end tests of the Section V citation-mining pipeline: synthetic
//! corpus → evolving influence graph → influence sets, influencer sets,
//! communities and rankings, with cross-checks between the analyses.

use evolving_graphs::prelude::*;

fn small_corpus(seed: u64) -> CitationNetwork {
    let corpus = synthetic_citation_corpus(&CitationConfig {
        num_authors: 120,
        num_epochs: 12,
        papers_per_epoch: 25,
        citations_per_paper: 3,
        preferential_bias: 1.0,
        seed,
    });
    CitationNetwork::from_corpus(&corpus)
}

#[test]
fn corpus_to_network_preserves_counts() {
    let corpus = synthetic_citation_corpus(&CitationConfig {
        num_authors: 120,
        num_epochs: 12,
        papers_per_epoch: 25,
        citations_per_paper: 3,
        preferential_bias: 1.0,
        seed: 11,
    });
    let net = CitationNetwork::from_corpus(&corpus);
    assert_eq!(net.num_citations(), corpus.num_events());
    assert!(net.num_epochs() <= 12);
    assert!(net.num_authors() <= 120);
}

#[test]
fn influence_and_influencer_sets_are_dual() {
    let net = small_corpus(21);
    let ranking = rank_by_influence(&net);
    let star = ranking[0];
    assert!(
        star.influenced > 0,
        "the corpus should have influence chains"
    );

    // Every author b in T(star) must list star in T⁻¹(b, some epoch at which
    // the influence arrived). Use the forward map's earliest reach times for
    // that epoch.
    let map = influence_map(&net, star.author, star.epoch).unwrap();
    for (b, t) in map.earliest_reach_times().into_iter().take(10) {
        if b == star.author {
            continue;
        }
        let epoch = net.epoch_label(t);
        let influencers = influencer_set(&net, b, epoch).unwrap();
        assert!(
            influencers.contains(&star.author),
            "author {b:?} reached at epoch {epoch} must count {:?} as an influencer",
            star.author
        );
    }
}

#[test]
fn communities_contain_the_query_author_and_its_influencers_sources() {
    let net = small_corpus(33);
    let ranking = rank_by_influence(&net);
    // Pick an author somewhere in the middle of the ranking so it has both
    // influencers and influencees.
    let mid = ranking[ranking.len() / 2];
    let epochs = net.active_epochs(mid.author);
    let epoch = *epochs.last().unwrap();

    let community = community_of(&net, mid.author, epoch).unwrap();
    assert!(
        community.contains(&mid.author),
        "an author belongs to its own community"
    );
    let leaves = influence_leaves(&net, mid.author, epoch).unwrap();
    for (leaf, _) in leaves {
        assert!(
            community.contains(&leaf),
            "community must contain the influence source {leaf:?}"
        );
    }
}

#[test]
fn ranking_is_consistent_with_direct_queries() {
    let net = small_corpus(44);
    let ranking = rank_by_influence(&net);
    // Spot-check the first three entries against direct influence_set calls.
    for score in ranking.iter().take(3) {
        let direct = influence_set(&net, score.author, score.epoch).unwrap();
        assert_eq!(direct.len(), score.influenced);
    }
    // The batch API agrees too.
    let queries: Vec<(AuthorId, Epoch)> = ranking
        .iter()
        .take(3)
        .map(|s| (s.author, s.epoch))
        .collect();
    let sizes = batch_influence_sizes(&net, &queries);
    for (score, size) in ranking.iter().take(3).zip(sizes) {
        assert_eq!(size, Some(score.influenced));
    }
}

#[test]
fn influence_chains_are_valid_temporal_citation_cascades() {
    let net = small_corpus(55);
    let star = rank_by_influence(&net)[0];
    let influenced = influence_set(&net, star.author, star.epoch).unwrap();
    // Check a handful of chains end-to-end.
    for &target in influenced.iter().take(5) {
        let chain = influence_chain(&net, star.author, star.epoch, target)
            .unwrap()
            .expect("target is influenced, so a chain exists");
        assert_eq!(chain.first().unwrap().0, star.author);
        assert_eq!(chain.last().unwrap().0, target);
        for w in chain.windows(2) {
            assert!(w[0].1 <= w[1].1, "epochs never decrease along a chain");
        }
    }
}

#[test]
fn backward_search_equals_forward_search_on_reversed_view() {
    let net = small_corpus(66);
    let star = rank_by_influence(&net)[0];
    let last_epoch = *net.active_epochs(star.author).last().unwrap();
    let influencers = influencer_set(&net, star.author, last_epoch).unwrap();

    // Manually reverse the graph and run a forward BFS; the distinct node
    // sets must agree (Section V's t → −t construction).
    let view = ReversedView::new(net.graph());
    let t = net.epoch_index(last_epoch).unwrap();
    let root = view.map_temporal(TemporalNode::new(star.author, t));
    let fwd = Search::from(root).run(&view).unwrap();
    let mut via_view: Vec<AuthorId> = fwd
        .reached_node_ids()
        .into_iter()
        .filter(|&a| a != star.author)
        .collect();
    via_view.sort();
    let mut direct = influencers;
    direct.sort();
    assert_eq!(direct, via_view);
}
