//! Influence rankings over a whole citation network.
//!
//! Section V motivates the evolving-graph BFS as a mining primitive: "given
//! an author a at time t1, … compute T(a, t1), the set of all the authors
//! that have been influenced by a's work at time t1". Ranking authors by the
//! size of that set is the simplest whole-network analysis built from the
//! primitive, and because every root is an independent BFS it parallelises
//! trivially over the rayon pool (the `citation_mining` benchmark measures
//! exactly this).

use egraph_core::graph::EvolvingGraph;
use egraph_core::ids::TemporalNode;
use egraph_query::Search;
use rayon::prelude::*;

use crate::model::{AuthorId, CitationNetwork, Epoch};

/// One row of an influence ranking.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InfluenceScore {
    /// The author being scored.
    pub author: AuthorId,
    /// The epoch of the scored publication (the author's earliest activity
    /// unless stated otherwise).
    pub epoch: Epoch,
    /// `|T(author, epoch)|` — number of distinct authors influenced.
    pub influenced: usize,
}

/// Scores every author from its *earliest* active epoch (the point of maximal
/// potential influence) and returns the scores sorted by decreasing
/// influence. Runs one BFS per author, distributed over the rayon pool.
pub fn rank_by_influence(network: &CitationNetwork) -> Vec<InfluenceScore> {
    let graph = network.graph();
    let roots: Vec<TemporalNode> = (0..network.num_authors())
        .filter_map(|a| {
            let author = AuthorId::from_index(a);
            graph
                .active_times(author)
                .first()
                .map(|&t| TemporalNode::new(author, t))
        })
        .collect();

    let mut scores: Vec<InfluenceScore> = roots
        .par_iter()
        .map(|&root| {
            let influenced = Search::from(root)
                .run(graph)
                .map(|r| r.reached_node_ids().len().saturating_sub(1))
                .unwrap_or(0);
            InfluenceScore {
                author: root.node,
                epoch: network.epoch_label(root.time),
                influenced,
            }
        })
        .collect();

    scores.sort_by(|a, b| {
        b.influenced
            .cmp(&a.influenced)
            .then(a.author.cmp(&b.author))
    });
    scores
}

/// The `k` most influential authors (ties broken by author id).
pub fn top_influencers(network: &CitationNetwork, k: usize) -> Vec<InfluenceScore> {
    let mut scores = rank_by_influence(network);
    scores.truncate(k);
    scores
}

/// Scores a chosen set of `(author, epoch)` queries in parallel, skipping
/// queries whose temporal node is inactive or whose epoch is unknown.
pub fn batch_influence_sizes(
    network: &CitationNetwork,
    queries: &[(AuthorId, Epoch)],
) -> Vec<Option<usize>> {
    let graph = network.graph();
    queries
        .par_iter()
        .map(|&(author, epoch)| {
            let root = network.temporal_node(author, epoch)?;
            Search::from(root)
                .run(graph)
                .ok()
                .map(|r| r.reached_node_ids().len().saturating_sub(1))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::CitationRecord;
    use egraph_core::ids::NodeId;

    /// epoch 0: 1 cites 0; epoch 1: 2 cites 1; epoch 2: 3 cites 2, 3 cites 0.
    fn toy_network() -> CitationNetwork {
        CitationNetwork::from_records([
            CitationRecord {
                citing: NodeId(1),
                cited: NodeId(0),
                epoch: 0,
            },
            CitationRecord {
                citing: NodeId(2),
                cited: NodeId(1),
                epoch: 1,
            },
            CitationRecord {
                citing: NodeId(3),
                cited: NodeId(2),
                epoch: 2,
            },
            CitationRecord {
                citing: NodeId(3),
                cited: NodeId(0),
                epoch: 2,
            },
        ])
    }

    #[test]
    fn ranking_orders_authors_by_reach() {
        let net = toy_network();
        let ranking = rank_by_influence(&net);
        assert_eq!(ranking.len(), 4);
        // Author 0 (from epoch 0) influences 1, 2 and 3 — the maximum.
        assert_eq!(ranking[0].author, NodeId(0));
        assert_eq!(ranking[0].influenced, 3);
        // Scores never increase down the ranking.
        for w in ranking.windows(2) {
            assert!(w[0].influenced >= w[1].influenced);
        }
        // Author 3 never gets cited, so it influences nobody.
        let last = ranking.iter().find(|s| s.author == NodeId(3)).unwrap();
        assert_eq!(last.influenced, 0);
    }

    #[test]
    fn top_influencers_truncates() {
        let net = toy_network();
        let top = top_influencers(&net, 2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].author, NodeId(0));
    }

    #[test]
    fn batch_queries_handle_invalid_roots() {
        let net = toy_network();
        let sizes = batch_influence_sizes(&net, &[(NodeId(0), 0), (NodeId(3), 0), (NodeId(0), 42)]);
        assert_eq!(sizes[0], Some(3));
        // Author 3 is inactive at epoch 0.
        assert_eq!(sizes[1], None);
        // Epoch 42 does not exist.
        assert_eq!(sizes[2], None);
    }

    #[test]
    fn ranking_on_a_synthetic_corpus_runs_end_to_end() {
        let corpus = egraph_gen::citation::synthetic_citation_corpus(
            &egraph_gen::citation::CitationConfig {
                num_authors: 80,
                num_epochs: 8,
                papers_per_epoch: 15,
                citations_per_paper: 3,
                preferential_bias: 1.0,
                seed: 5,
            },
        );
        let net = CitationNetwork::from_corpus(&corpus);
        let ranking = rank_by_influence(&net);
        assert!(!ranking.is_empty());
        assert!(ranking[0].influenced >= ranking.last().unwrap().influenced);
    }
}
