//! Synthetic citation corpora for the Section V application.
//!
//! The paper sketches the citation-network use case qualitatively: nodes are
//! authors active at a given time, a directed edge `(i, j)` at time `t` means
//! "author `i` cites author `j` in a publication at time `t`", and the
//! evolving-graph BFS then yields influence sets and communities. The paper
//! reports no dataset, so the reproduction substitutes a synthetic corpus
//! with the qualitative properties that matter for exercising the code path:
//!
//! * authors enter the field over time (each has a debut epoch);
//! * citations point backward in career time (you cite people who have
//!   already published) with a recency bias;
//! * citation targets are preferentially attached, so a few authors become
//!   highly influential.
//!
//! The output is a plain list of [`CitationEvent`]s; `egraph-citation` turns
//! it into an evolving graph and runs the influence analyses.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One citation: `citing` cites `cited` in a publication at `epoch`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CitationEvent {
    /// The citing author.
    pub citing: u32,
    /// The cited author.
    pub cited: u32,
    /// The epoch (snapshot label) of the citing publication.
    pub epoch: i64,
}

/// Parameters of the synthetic citation corpus.
#[derive(Clone, Debug)]
pub struct CitationConfig {
    /// Number of authors in the field.
    pub num_authors: usize,
    /// Number of publication epochs.
    pub num_epochs: usize,
    /// Number of citing publications per epoch.
    pub papers_per_epoch: usize,
    /// Citations emitted by each publication.
    pub citations_per_paper: usize,
    /// Strength of the preferential-attachment bias toward already-cited
    /// authors (0 = uniform, larger = more skewed).
    pub preferential_bias: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CitationConfig {
    fn default() -> Self {
        CitationConfig {
            num_authors: 2_000,
            num_epochs: 30,
            papers_per_epoch: 100,
            citations_per_paper: 5,
            preferential_bias: 1.0,
            seed: 0xC17E,
        }
    }
}

/// A generated corpus: the events plus the debut epoch of every author.
#[derive(Clone, Debug)]
pub struct CitationCorpus {
    /// All citation events, ordered by epoch.
    pub events: Vec<CitationEvent>,
    /// `debut[a]` = first epoch at which author `a` may publish or be cited.
    pub debut: Vec<i64>,
    /// Number of authors.
    pub num_authors: usize,
    /// Number of epochs.
    pub num_epochs: usize,
}

/// Generates a synthetic citation corpus.
pub fn synthetic_citation_corpus(config: &CitationConfig) -> CitationCorpus {
    assert!(config.num_authors >= 2, "need at least two authors");
    assert!(config.num_epochs >= 1, "need at least one epoch");
    let mut rng = SmallRng::seed_from_u64(config.seed);

    // Authors debut uniformly over the first three quarters of the timeline
    // so that late epochs still have newcomers but early epochs are not empty.
    let debut: Vec<i64> = (0..config.num_authors)
        .map(|_| rng.gen_range(0..config.num_epochs.max(1) as i64 * 3 / 4 + 1))
        .collect();

    // cite_weight[a] = 1 + bias * (times cited so far), for preferential
    // target selection.
    let mut cited_counts: Vec<f64> = vec![0.0; config.num_authors];
    let mut events = Vec::new();

    for epoch in 0..config.num_epochs as i64 {
        // Authors eligible to act at this epoch.
        let eligible: Vec<u32> = (0..config.num_authors as u32)
            .filter(|&a| debut[a as usize] <= epoch)
            .collect();
        if eligible.len() < 2 {
            continue;
        }
        for _ in 0..config.papers_per_epoch {
            let citing = eligible[rng.gen_range(0..eligible.len())];
            for _ in 0..config.citations_per_paper {
                let cited =
                    sample_target(&eligible, &cited_counts, config.preferential_bias, &mut rng);
                if cited == citing {
                    continue;
                }
                events.push(CitationEvent {
                    citing,
                    cited,
                    epoch,
                });
                cited_counts[cited as usize] += 1.0;
            }
        }
    }

    CitationCorpus {
        events,
        debut,
        num_authors: config.num_authors,
        num_epochs: config.num_epochs,
    }
}

fn sample_target(eligible: &[u32], cited_counts: &[f64], bias: f64, rng: &mut SmallRng) -> u32 {
    let total: f64 = eligible
        .iter()
        .map(|&a| 1.0 + bias * cited_counts[a as usize])
        .sum();
    let mut target = rng.gen_range(0.0..total);
    for &a in eligible {
        let w = 1.0 + bias * cited_counts[a as usize];
        if target < w {
            return a;
        }
        target -= w;
    }
    *eligible.last().expect("eligible set is non-empty")
}

impl CitationCorpus {
    /// The events as `(citing, cited, epoch)` triples — the input format of
    /// [`egraph_core::adjacency::AdjacencyListGraph::from_labeled_edges`].
    pub fn labeled_edges(&self) -> Vec<(u32, u32, i64)> {
        self.events
            .iter()
            .map(|e| (e.citing, e.cited, e.epoch))
            .collect()
    }

    /// The number of citation events.
    pub fn num_events(&self) -> usize {
        self.events.len()
    }

    /// How many times each author is cited in total.
    pub fn citation_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_authors];
        for e in &self.events {
            counts[e.cited as usize] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> CitationConfig {
        CitationConfig {
            num_authors: 100,
            num_epochs: 10,
            papers_per_epoch: 20,
            citations_per_paper: 3,
            preferential_bias: 1.0,
            seed: 42,
        }
    }

    #[test]
    fn corpus_has_events_in_every_late_epoch() {
        let corpus = synthetic_citation_corpus(&small_config());
        assert!(corpus.num_events() > 0);
        let last_epoch = corpus.num_epochs as i64 - 1;
        assert!(corpus.events.iter().any(|e| e.epoch == last_epoch));
    }

    #[test]
    fn citations_never_point_at_the_citing_author() {
        let corpus = synthetic_citation_corpus(&small_config());
        assert!(corpus.events.iter().all(|e| e.citing != e.cited));
    }

    #[test]
    fn citations_respect_debut_epochs() {
        let corpus = synthetic_citation_corpus(&small_config());
        for e in &corpus.events {
            assert!(corpus.debut[e.citing as usize] <= e.epoch);
            assert!(corpus.debut[e.cited as usize] <= e.epoch);
        }
    }

    #[test]
    fn preferential_bias_skews_citation_counts() {
        let uniform = synthetic_citation_corpus(&CitationConfig {
            preferential_bias: 0.0,
            ..small_config()
        });
        let skewed = synthetic_citation_corpus(&CitationConfig {
            preferential_bias: 5.0,
            ..small_config()
        });
        let max_uniform = *uniform.citation_counts().iter().max().unwrap();
        let max_skewed = *skewed.citation_counts().iter().max().unwrap();
        assert!(
            max_skewed > max_uniform,
            "skewed max {max_skewed} should exceed uniform max {max_uniform}"
        );
    }

    #[test]
    fn deterministic_given_a_seed() {
        let a = synthetic_citation_corpus(&small_config());
        let b = synthetic_citation_corpus(&small_config());
        assert_eq!(a.events, b.events);
        assert_eq!(a.debut, b.debut);
    }

    #[test]
    fn labeled_edges_match_events() {
        let corpus = synthetic_citation_corpus(&small_config());
        let edges = corpus.labeled_edges();
        assert_eq!(edges.len(), corpus.num_events());
        assert_eq!(edges[0].0, corpus.events[0].citing);
    }
}
