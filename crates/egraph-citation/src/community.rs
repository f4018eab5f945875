//! Community extraction (Section V).
//!
//! The paper defines a community as "a group of researchers that have been
//! influenced by the same authors", and gives a concrete procedure: given a
//! paper published by `a` at time `t`,
//!
//! 1. search *backward* in time to find `T⁻¹(a, t)`, the authors that
//!    influenced `a`;
//! 2. take the leaves `(l₁, t₁), …, (l_k, t_k)` of that backward search
//!    tree — the original sources of the influence;
//! 3. search *forward* from every leaf and take the union
//!    `T(l₁, t₁) ∪ … ∪ T(l_k, t_k)`.
//!
//! [`community_of`] implements exactly this pipeline; [`influence_leaves`]
//! exposes step 2 on its own.

use egraph_core::graph::EvolvingGraph;
use egraph_core::ids::TemporalNode;
use egraph_query::Search;

use crate::influence::influencer_map_with_parents;
use crate::model::{AuthorId, CitationNetwork, Epoch};
use egraph_core::error::Result;

/// The leaves of the backward influence tree of `(author, epoch)`: reached
/// temporal nodes that are not the BFS-tree parent of any other reached node.
/// These are the earliest sources from which influence flowed towards the
/// author. The root itself is excluded unless it is the only reached node.
pub fn influence_leaves(
    network: &CitationNetwork,
    author: AuthorId,
    epoch: Epoch,
) -> Result<Vec<(AuthorId, Epoch)>> {
    let map = influencer_map_with_parents(network, author, epoch)?;
    let reached = map.reached();
    if reached.len() == 1 {
        // No influencers at all: the author is its own source.
        return Ok(vec![(author, epoch)]);
    }
    let mut is_parent = vec![false; network.graph().num_nodes() * network.num_epochs()];
    for &(tn, _) in &reached {
        if let Some(parent) = map.parent(tn) {
            is_parent[parent.flat_index(network.graph().num_nodes())] = true;
        }
    }
    let leaves: Vec<(AuthorId, Epoch)> = reached
        .iter()
        .filter(|&&(tn, _)| {
            tn != map.root() && !is_parent[tn.flat_index(network.graph().num_nodes())]
        })
        .map(|&(tn, _)| (tn.node, network.epoch_label(tn.time)))
        .collect();
    Ok(leaves)
}

/// The community of `(author, epoch)`: everyone influenced by any of the
/// sources that influenced the author (including the author itself and the
/// sources, since they are trivially influenced by / identical to a source).
pub fn community_of(
    network: &CitationNetwork,
    author: AuthorId,
    epoch: Epoch,
) -> Result<Vec<AuthorId>> {
    let leaves = influence_leaves(network, author, epoch)?;
    let mut member = vec![false; network.num_authors()];
    for &(leaf, leaf_epoch) in &leaves {
        member[leaf.index()] = true;
        let Some(root) = network.temporal_node(leaf, leaf_epoch) else {
            continue;
        };
        // Forward search from each leaf; leaves are active by construction.
        let result = Search::from(root).run(network.graph())?;
        for reached in result.reached_node_ids() {
            member[reached.index()] = true;
        }
    }
    Ok(member
        .iter()
        .enumerate()
        .filter(|(_, &m)| m)
        .map(|(i, _)| AuthorId::from_index(i))
        .collect())
}

/// Groups every active `(author, epoch)` pair at the given epoch by its
/// community and returns the communities as author sets, largest first.
/// Authors can belong to several communities; this is a per-root grouping,
/// not a partition.
pub fn communities_at_epoch(network: &CitationNetwork, epoch: Epoch) -> Result<Vec<Vec<AuthorId>>> {
    let Some(t) = network.epoch_index(epoch) else {
        return Ok(Vec::new());
    };
    let mut seen = std::collections::BTreeSet::new();
    let mut out = Vec::new();
    for tn in network.graph().active_at(t) {
        let community = community_of(network, tn.node, epoch)?;
        if seen.insert(community.clone()) {
            out.push(community);
        }
    }
    out.sort_by_key(|c| std::cmp::Reverse(c.len()));
    Ok(out)
}

/// Convenience: the temporal nodes of the backward influence tree rooted at
/// `(author, epoch)` (the full tree, not just the leaves), labelled by epoch.
pub fn influencer_tree_nodes(
    network: &CitationNetwork,
    author: AuthorId,
    epoch: Epoch,
) -> Result<Vec<(AuthorId, Epoch, u32)>> {
    let map = influencer_map_with_parents(network, author, epoch)?;
    Ok(map
        .reached()
        .into_iter()
        .map(|(tn, d)| (tn.node, network.epoch_label(tn.time), d))
        .collect())
}

/// Helper mirroring `TemporalNode::flat_index` for this crate's tests.
#[allow(dead_code)]
fn flat(tn: TemporalNode, n: usize) -> usize {
    tn.flat_index(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::CitationRecord;
    use egraph_core::ids::NodeId;

    /// Two influence chains meeting at author 4:
    ///   epoch 0: 1 cites 0          (chain A source: 0)
    ///   epoch 0: 3 cites 2          (chain B source: 2)
    ///   epoch 1: 4 cites 1, 4 cites 3
    ///   epoch 2: 5 cites 4
    fn two_chain_network() -> CitationNetwork {
        CitationNetwork::from_records([
            CitationRecord {
                citing: NodeId(1),
                cited: NodeId(0),
                epoch: 0,
            },
            CitationRecord {
                citing: NodeId(3),
                cited: NodeId(2),
                epoch: 0,
            },
            CitationRecord {
                citing: NodeId(4),
                cited: NodeId(1),
                epoch: 1,
            },
            CitationRecord {
                citing: NodeId(4),
                cited: NodeId(3),
                epoch: 1,
            },
            CitationRecord {
                citing: NodeId(5),
                cited: NodeId(4),
                epoch: 2,
            },
        ])
    }

    #[test]
    fn leaves_are_the_original_sources() {
        let net = two_chain_network();
        let mut leaves = influence_leaves(&net, NodeId(4), 1).unwrap();
        leaves.sort();
        // Both chains trace back to their epoch-0 sources.
        assert_eq!(leaves, vec![(NodeId(0), 0), (NodeId(2), 0)]);
    }

    #[test]
    fn author_without_influencers_is_its_own_leaf() {
        let net = two_chain_network();
        let leaves = influence_leaves(&net, NodeId(0), 0).unwrap();
        assert_eq!(leaves, vec![(NodeId(0), 0)]);
    }

    #[test]
    fn community_unions_forward_reach_of_all_sources() {
        let net = two_chain_network();
        let mut community = community_of(&net, NodeId(4), 1).unwrap();
        community.sort();
        // Sources 0 and 2 jointly influence everyone.
        assert_eq!(
            community,
            vec![
                NodeId(0),
                NodeId(1),
                NodeId(2),
                NodeId(3),
                NodeId(4),
                NodeId(5)
            ]
        );
    }

    #[test]
    fn community_of_a_source_is_its_own_influence_cone() {
        let net = two_chain_network();
        let mut community = community_of(&net, NodeId(1), 0).unwrap();
        community.sort();
        // Author 1's only source is author 0, whose cone is {0,1,4,5}.
        assert_eq!(community, vec![NodeId(0), NodeId(1), NodeId(4), NodeId(5)]);
    }

    #[test]
    fn communities_at_epoch_deduplicates_identical_groups() {
        let net = two_chain_network();
        let communities = communities_at_epoch(&net, 1).unwrap();
        assert!(!communities.is_empty());
        // Largest community first.
        for w in communities.windows(2) {
            assert!(w[0].len() >= w[1].len());
        }
        // No duplicate sets.
        let set: std::collections::BTreeSet<_> = communities.iter().cloned().collect();
        assert_eq!(set.len(), communities.len());
    }

    #[test]
    fn influencer_tree_nodes_report_distances() {
        let net = two_chain_network();
        let tree = influencer_tree_nodes(&net, NodeId(5), 2).unwrap();
        // The root is at distance 0 and every ancestor has positive distance.
        assert!(tree.contains(&(NodeId(5), 2, 0)));
        assert!(tree.iter().any(|&(a, _, d)| a == NodeId(0) && d > 0));
        assert!(tree.iter().any(|&(a, _, d)| a == NodeId(2) && d > 0));
    }

    #[test]
    fn unknown_epoch_yields_no_communities() {
        let net = two_chain_network();
        assert!(communities_at_epoch(&net, 99).unwrap().is_empty());
    }
}
