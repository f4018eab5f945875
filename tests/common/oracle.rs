//! Independent reference engines for the differential suites.
//!
//! Every production hop engine — serial and frontier-parallel BFS, the
//! shared frontier and the resumable extensions — runs one traversal
//! kernel, so comparing two strategies compares the kernel with itself.
//! This module keeps a second implementation outside the library:
//!
//! * [`check_root`] — root validation written from Definitions 3 and 4;
//! * [`bfs`] — Algorithm 1 written out as in the paper: a visited map, a
//!   frontier of distance-`k − 1` nodes, first discoverer wins, over
//!   forward or backward neighbours, with optional BFS-tree parents;
//! * [`multi_source_shared`] — the serial shared-frontier loop on packed
//!   `(distance << 32) | source_index` keys, nearest source first and ties
//!   to the smallest source index.
//!
//! They use plain vectors and build their results through the public
//! constructors, so they share no traversal or validation code with the
//! engines.

use evolving_graphs::prelude::*;

/// Validates `root` as the engines must: inside the graph, and active — by
/// Definition 3, with a static edge at its snapshot (Definition 4 makes
/// every temporal path from an inactive node empty).
pub fn check_root<G: EvolvingGraph>(graph: &G, root: TemporalNode) -> Result<()> {
    let (num_nodes, num_timestamps) = (graph.num_nodes(), graph.num_timestamps());
    if num_timestamps == 0 {
        return Err(GraphError::EmptyGraph);
    }
    if root.node.index() >= num_nodes {
        return Err(GraphError::NodeOutOfRange {
            node: root.node,
            num_nodes,
        });
    }
    if root.time.index() >= num_timestamps {
        return Err(GraphError::TimeOutOfRange {
            time: root.time,
            num_timestamps,
        });
    }
    let mut incident = false;
    graph.for_each_static_out(root.node, root.time, &mut |_| incident = true);
    graph.for_each_static_in(root.node, root.time, &mut |_| incident = true);
    if incident {
        Ok(())
    } else {
        Err(GraphError::InactiveRoot { root })
    }
}

fn for_each_neighbor<G: EvolvingGraph>(
    graph: &G,
    u: TemporalNode,
    direction: Direction,
    f: &mut dyn FnMut(TemporalNode),
) {
    match direction {
        Direction::Forward => graph.for_each_forward_neighbor(u, f),
        Direction::Backward => graph.for_each_backward_neighbor(u, f),
    }
}

/// Algorithm 1 from `root`, following forward or backward neighbours, with
/// BFS-tree parents if asked. Parents follow first-discoverer order.
pub fn bfs<G: EvolvingGraph>(
    graph: &G,
    root: TemporalNode,
    direction: Direction,
    with_parents: bool,
) -> Result<DistanceMap> {
    check_root(graph, root)?;
    let num_nodes = graph.num_nodes();
    let mut dist = vec![u32::MAX; num_nodes * graph.num_timestamps()];
    let mut parent: Vec<Option<TemporalNode>> = vec![None; dist.len()];
    dist[root.flat_index(num_nodes)] = 0;
    let mut frontier = vec![root];
    let mut k = 1;
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for &u in &frontier {
            for_each_neighbor(graph, u, direction, &mut |v: TemporalNode| {
                let i = v.flat_index(num_nodes);
                if dist[i] == u32::MAX {
                    dist[i] = k;
                    parent[i] = Some(u);
                    next.push(v);
                }
            });
        }
        frontier = next;
        k += 1;
    }
    let reached: Vec<(TemporalNode, u32, Option<TemporalNode>)> = dist
        .iter()
        .enumerate()
        .filter(|&(_, &d)| d != u32::MAX)
        .map(|(i, &d)| (TemporalNode::from_flat_index(i, num_nodes), d, parent[i]))
        .collect();
    let (n, t) = (num_nodes, graph.num_timestamps());
    Ok(if with_parents {
        DistanceMap::from_reached_with_parents(n, t, root, &reached)
    } else {
        let reached: Vec<(TemporalNode, u32)> =
            reached.into_iter().map(|(tn, d, _)| (tn, d)).collect();
        DistanceMap::from_reached(n, t, root, &reached)
    })
}

/// The serial shared-frontier loop: one traversal seeded with every source
/// at distance 0, keeping per temporal node the minimum packed key.
pub fn multi_source_shared<G: EvolvingGraph>(
    graph: &G,
    sources: &[TemporalNode],
    direction: Direction,
) -> Result<MultiSourceMap> {
    if sources.is_empty() {
        return Err(GraphError::NoSources);
    }
    for &s in sources {
        check_root(graph, s)?;
    }
    let num_nodes = graph.num_nodes();
    let mut key = vec![u64::MAX; num_nodes * graph.num_timestamps()];
    let mut frontier = Vec::new();
    for (i, &s) in sources.iter().enumerate() {
        let slot = &mut key[s.flat_index(num_nodes)];
        if *slot == u64::MAX {
            frontier.push(s);
        }
        *slot = (*slot).min(i as u64);
    }
    let mut level: u64 = 1;
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for &u in &frontier {
            // `u`'s attribution settled while the previous level expanded.
            let claim = (level << 32) | (key[u.flat_index(num_nodes)] & 0xFFFF_FFFF);
            for_each_neighbor(graph, u, direction, &mut |v: TemporalNode| {
                let slot = &mut key[v.flat_index(num_nodes)];
                if *slot == u64::MAX {
                    next.push(v);
                }
                *slot = (*slot).min(claim);
            });
        }
        frontier = next;
        level += 1;
    }
    let entries: Vec<(TemporalNode, u32, usize)> = key
        .iter()
        .enumerate()
        .filter(|&(_, &k)| k != u64::MAX)
        .map(|(i, &k)| {
            let tn = TemporalNode::from_flat_index(i, num_nodes);
            (tn, (k >> 32) as u32, (k & 0xFFFF_FFFF) as usize)
        })
        .collect();
    Ok(MultiSourceMap::from_entries(
        num_nodes,
        graph.num_timestamps(),
        sources.to_vec(),
        &entries,
    ))
}
