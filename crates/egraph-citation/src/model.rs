//! The citation-network model of Section V.
//!
//! Nodes are authors; a directed edge `(i, j)` at time `t` records that
//! author `i` cited author `j` in a publication at time `t`. Influence flows
//! the other way — from the cited author to the citing author — so the
//! evolving graph held by [`CitationNetwork`] stores *influence edges*
//! `cited → citing`. With that orientation, the forward evolving-graph BFS
//! from `(a, t)` computes exactly `T(a, t)`, "the set of all the authors that
//! have been influenced by a's work at time t", and the backward BFS computes
//! `T⁻¹(a, t)`, the authors who influenced `a`.

use egraph_core::adjacency::AdjacencyListGraph;
use egraph_core::graph::EvolvingGraph;
use egraph_core::ids::{NodeId, TemporalNode, TimeIndex, Timestamp};
use egraph_gen::citation::{CitationCorpus, CitationEvent};

/// An author identifier (dense, `0..num_authors`).
pub type AuthorId = NodeId;

/// A publication epoch (snapshot label).
pub type Epoch = Timestamp;

/// One citation record: `citing` cites `cited` at `epoch`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CitationRecord {
    /// The citing author `i`.
    pub citing: AuthorId,
    /// The cited author `j`.
    pub cited: AuthorId,
    /// The epoch of the citing publication.
    pub epoch: Epoch,
}

/// A citation network stored as an evolving graph of influence edges.
#[derive(Clone, Debug)]
pub struct CitationNetwork {
    graph: AdjacencyListGraph,
    records: Vec<CitationRecord>,
    num_authors: usize,
}

impl CitationNetwork {
    /// Builds a network from raw `(citing, cited, epoch)` records.
    ///
    /// Self-citations are dropped (they carry no influence information and
    /// the activeness definition excludes self-loops anyway).
    pub fn from_records(records: impl IntoIterator<Item = CitationRecord>) -> Self {
        let records: Vec<CitationRecord> = records
            .into_iter()
            .filter(|r| r.citing != r.cited)
            .collect();
        // Influence edges: cited → citing.
        let edges: Vec<(u32, u32, Timestamp)> = records
            .iter()
            .map(|r| (r.cited.0, r.citing.0, r.epoch))
            .collect();
        let graph = AdjacencyListGraph::from_labeled_edges(&edges)
            .expect("labeled-edge construction cannot fail on filtered records");
        let num_authors = graph.num_nodes();
        CitationNetwork {
            graph,
            records,
            num_authors,
        }
    }

    /// Builds a network from the synthetic corpus generator of `egraph-gen`.
    pub fn from_corpus(corpus: &CitationCorpus) -> Self {
        Self::from_records(
            corpus
                .events
                .iter()
                .map(|e: &CitationEvent| CitationRecord {
                    citing: NodeId(e.citing),
                    cited: NodeId(e.cited),
                    epoch: e.epoch,
                }),
        )
    }

    /// The underlying evolving graph (influence orientation: cited → citing).
    pub fn graph(&self) -> &AdjacencyListGraph {
        &self.graph
    }

    /// The citation records the network was built from (self-citations
    /// removed).
    pub fn records(&self) -> &[CitationRecord] {
        &self.records
    }

    /// Number of authors in the node universe.
    pub fn num_authors(&self) -> usize {
        self.num_authors
    }

    /// Number of citation records.
    pub fn num_citations(&self) -> usize {
        self.records.len()
    }

    /// Number of distinct publication epochs present in the data.
    pub fn num_epochs(&self) -> usize {
        self.graph.num_timestamps()
    }

    /// The snapshot index of an epoch label, if any citation happened then.
    pub fn epoch_index(&self, epoch: Epoch) -> Option<TimeIndex> {
        self.graph.time_index_of(epoch)
    }

    /// The epoch label of a snapshot index.
    pub fn epoch_label(&self, t: TimeIndex) -> Epoch {
        self.graph.timestamp(t)
    }

    /// Whether `author` participates in any citation (as citer or cited) at
    /// `epoch` — i.e. whether `(author, epoch)` is an active temporal node.
    pub fn is_active(&self, author: AuthorId, epoch: Epoch) -> bool {
        match self.epoch_index(epoch) {
            Some(t) => self.graph.is_active(author, t),
            None => false,
        }
    }

    /// The epochs at which `author` is active.
    pub fn active_epochs(&self, author: AuthorId) -> Vec<Epoch> {
        self.graph
            .active_times(author)
            .into_iter()
            .map(|t| self.epoch_label(t))
            .collect()
    }

    /// The temporal node for `(author, epoch)` if that epoch exists in the
    /// network.
    pub fn temporal_node(&self, author: AuthorId, epoch: Epoch) -> Option<TemporalNode> {
        self.epoch_index(epoch)
            .map(|t| TemporalNode::new(author, t))
    }

    /// How many times each author is cited, over all epochs.
    pub fn citation_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_authors];
        for r in &self.records {
            counts[r.cited.index()] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small hand-built corpus:
    ///   epoch 0: author 1 cites author 0
    ///   epoch 1: author 2 cites author 1
    ///   epoch 2: author 3 cites author 2, author 3 cites author 0
    pub(crate) fn toy_network() -> CitationNetwork {
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
    fn construction_counts_and_epochs() {
        let net = toy_network();
        assert_eq!(net.num_authors(), 4);
        assert_eq!(net.num_citations(), 4);
        assert_eq!(net.num_epochs(), 3);
        assert_eq!(net.epoch_index(1), Some(TimeIndex(1)));
        assert_eq!(net.epoch_label(TimeIndex(2)), 2);
        assert_eq!(net.citation_counts(), vec![2, 1, 1, 0]);
    }

    #[test]
    fn influence_edges_are_reversed_citations() {
        let net = toy_network();
        // Author 1 cites author 0 at epoch 0 ⇒ influence edge 0 → 1.
        let t0 = net.epoch_index(0).unwrap();
        assert!(net.graph().has_static_edge(NodeId(0), NodeId(1), t0));
        assert!(!net.graph().has_static_edge(NodeId(1), NodeId(0), t0));
    }

    #[test]
    fn self_citations_are_dropped() {
        let net = CitationNetwork::from_records([
            CitationRecord {
                citing: NodeId(0),
                cited: NodeId(0),
                epoch: 0,
            },
            CitationRecord {
                citing: NodeId(1),
                cited: NodeId(0),
                epoch: 0,
            },
        ]);
        assert_eq!(net.num_citations(), 1);
    }

    #[test]
    fn activeness_tracks_participation() {
        let net = toy_network();
        assert!(net.is_active(NodeId(0), 0));
        assert!(net.is_active(NodeId(0), 2));
        assert!(!net.is_active(NodeId(0), 1));
        assert!(!net.is_active(NodeId(3), 0));
        assert_eq!(net.active_epochs(NodeId(2)), vec![1, 2]);
    }

    #[test]
    fn from_corpus_round_trips_the_generator() {
        let corpus = egraph_gen::citation::synthetic_citation_corpus(
            &egraph_gen::citation::CitationConfig {
                num_authors: 50,
                num_epochs: 5,
                papers_per_epoch: 10,
                citations_per_paper: 2,
                preferential_bias: 1.0,
                seed: 3,
            },
        );
        let net = CitationNetwork::from_corpus(&corpus);
        assert_eq!(net.num_citations(), corpus.num_events());
        assert!(net.num_epochs() <= 5);
    }
}
