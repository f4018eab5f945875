//! Algorithm 2: the algebraic formulation of BFS on evolving graphs.
//!
//! Algorithm 2 performs BFS by power iteration of the transposed block
//! adjacency matrix: starting from the indicator vector `b` of the root, the
//! iterates `Aᵀ_n b, (Aᵀ_n)² b, …` light up exactly the temporal nodes at
//! distance 1, 2, … from the root, provided already-visited entries are
//! zeroed after each step (lines 8–12 of the pseudocode).
//!
//! Three engines are provided, mirroring the complexity results of
//! Section III-E:
//!
//! * [`algebraic_bfs_dense`] — materialises the dense `A_n` over active
//!   temporal nodes (Theorem 5, `O(k |V|²)`);
//! * [`algebraic_bfs_blocked`] — keeps the matrix implicit as per-snapshot
//!   CSC blocks plus activeness masks, evaluating the off-diagonal `⊙`
//!   products by masking (Theorem 6, `O(k (|Ẽ| + |V|))` per the paper's
//!   accounting);
//! * [`algebraic_bfs`] — convenience wrapper building the blocks from a graph
//!   and running the blocked engine.
//!
//! All three return an ordinary [`DistanceMap`], so equality with Algorithm 1
//! (Theorem 4) is a plain `==` on the flat distance arrays.

use egraph_core::distance::DistanceMap;
use egraph_core::error::Result;
use egraph_core::graph::EvolvingGraph;
use egraph_core::ids::TemporalNode;
use egraph_core::kernel::check_root;

use crate::block::BlockAdjacency;
use crate::dense::DenseMatrix;

/// Runs the blocked algebraic BFS directly from an evolving graph.
pub fn algebraic_bfs<G: EvolvingGraph>(graph: &G, root: TemporalNode) -> Result<DistanceMap> {
    check_root(graph, root)?;
    let blocks = BlockAdjacency::from_graph(graph);
    Ok(algebraic_bfs_blocked(&blocks, root))
}

/// Algorithm 2 on the implicit blocked representation.
///
/// The block vector `b` has one length-`N` segment per snapshot. One
/// iteration computes, for every snapshot `t`,
///
/// ```text
/// b'[t] = A[t]ᵀ b[t]  +  Σ_{s<t} M[s,t]ᵀ b[s]
/// ```
///
/// The causal sum is evaluated with a running prefix accumulator (the mass a
/// node has emitted at earlier active snapshots), so the whole iteration
/// costs `O(|Ẽ| + |V| + N·n)` rather than the naïve `O(n² N)`.
///
/// The caller must have validated the root (see
/// [`egraph_core::kernel::check_root`]); [`algebraic_bfs`] does so.
pub fn algebraic_bfs_blocked(blocks: &BlockAdjacency, root: TemporalNode) -> DistanceMap {
    let n = blocks.num_nodes();
    let n_t = blocks.num_timestamps();
    let dim = n * n_t;

    let mut b = vec![0.0f64; dim];
    b[root.flat_index(n)] = 1.0;

    let mut visited = vec![false; dim];
    visited[root.flat_index(n)] = true;

    let mut reached: Vec<(TemporalNode, u32)> = Vec::new();
    let mut next = vec![0.0f64; dim];
    let mut k: u32 = 1;

    loop {
        next.iter_mut().for_each(|x| *x = 0.0);

        // Running causal accumulator: carry[v] = Σ over earlier snapshots s
        // of b[s*n + v] restricted to nodes active at s.
        let mut carry = vec![0.0f64; n];
        for t in 0..n_t {
            let ti = egraph_core::ids::TimeIndex::from_index(t);
            let mask_t = blocks.active_mask(ti);
            let b_t = &b[t * n..(t + 1) * n];

            // Static contribution: A[t]ᵀ b[t].
            let static_part = blocks.block(ti).transpose_matvec(b_t);

            let out = &mut next[t * n..(t + 1) * n];
            for v in 0..n {
                // Causal contribution: mass emitted earlier by node v, kept
                // only if v is active now (M[s,t] requires both end points).
                let causal = if mask_t[v] { carry[v] } else { 0.0 };
                out[v] = static_part[v] + causal;
            }

            // Fold this snapshot's frontier mass into the accumulator for
            // later snapshots (only active components emit causal edges).
            for v in 0..n {
                if mask_t[v] {
                    carry[v] += b_t[v];
                }
            }
        }

        // Zero out already-visited temporal nodes (lines 8–12 of Algorithm 2)
        // and record the newly reached ones at distance k.
        let mut any = false;
        for (idx, x) in next.iter_mut().enumerate() {
            if *x == 0.0 {
                continue;
            }
            if visited[idx] {
                *x = 0.0;
            } else {
                visited[idx] = true;
                reached.push((TemporalNode::from_flat_index(idx, n), k));
                any = true;
            }
        }
        if !any {
            break;
        }
        std::mem::swap(&mut b, &mut next);
        k += 1;
    }

    DistanceMap::from_reached(n, n_t, root, &reached)
}

/// Algorithm 2 with the dense `A_n` of Theorem 5: the matrix over active
/// temporal nodes is materialised and each iteration is a dense
/// `O(|V|²)` transposed matrix–vector product.
pub fn algebraic_bfs_dense<G: EvolvingGraph>(graph: &G, root: TemporalNode) -> Result<DistanceMap> {
    check_root(graph, root)?;
    let blocks = BlockAdjacency::from_graph(graph);
    let (an, labels) = blocks.to_dense_an();
    Ok(dense_power_iteration(
        &an,
        &labels,
        graph.num_nodes(),
        graph.num_timestamps(),
        root,
    ))
}

/// Power iteration of a dense adjacency matrix whose rows/columns are
/// labelled by `labels`; shared by [`algebraic_bfs_dense`] and the tests.
pub fn dense_power_iteration(
    an: &DenseMatrix,
    labels: &[TemporalNode],
    num_nodes: usize,
    num_timestamps: usize,
    root: TemporalNode,
) -> DistanceMap {
    let dim = labels.len();
    let root_idx = labels
        .iter()
        .position(|&tn| tn == root)
        .expect("root must be an active temporal node");

    let mut b = vec![0.0f64; dim];
    b[root_idx] = 1.0;
    let mut visited = vec![false; dim];
    visited[root_idx] = true;

    let mut reached: Vec<(TemporalNode, u32)> = Vec::new();
    let mut k = 1u32;
    loop {
        let mut next = an.transpose_matvec(&b);
        let mut any = false;
        for (idx, x) in next.iter_mut().enumerate() {
            if *x == 0.0 {
                continue;
            }
            if visited[idx] {
                *x = 0.0;
            } else {
                visited[idx] = true;
                reached.push((labels[idx], k));
                any = true;
            }
        }
        if !any {
            break;
        }
        b = next;
        k += 1;
    }
    DistanceMap::from_reached(num_nodes, num_timestamps, root, &reached)
}

#[cfg(test)]
mod tests {
    use super::*;
    use egraph_core::examples::{cyclic_example, paper_figure1, staircase};
    use egraph_core::kernel::distances;
    use egraph_core::prelude::*;

    #[test]
    fn blocked_engine_matches_algorithm_1_on_the_paper_example() {
        let g = paper_figure1();
        // One block matrix, built once, serves every root.
        let blocks = BlockAdjacency::from_graph(&g);
        for &root in &g.active_nodes() {
            let alg1 = distances(&g, root, false, usize::MAX).unwrap();
            let alg2 = algebraic_bfs(&g, root).unwrap();
            assert_eq!(alg1.as_flat_slice(), alg2.as_flat_slice(), "root {root:?}");
            let prebuilt = algebraic_bfs_blocked(&blocks, root);
            assert_eq!(
                alg1.as_flat_slice(),
                prebuilt.as_flat_slice(),
                "root {root:?}"
            );
        }
    }

    #[test]
    fn dense_engine_matches_algorithm_1_on_the_paper_example() {
        let g = paper_figure1();
        for &root in &g.active_nodes() {
            let alg1 = distances(&g, root, false, usize::MAX).unwrap();
            let alg2 = algebraic_bfs_dense(&g, root).unwrap();
            assert_eq!(alg1.as_flat_slice(), alg2.as_flat_slice(), "root {root:?}");
        }
    }

    #[test]
    fn figure3_trace_from_root_1_t2() {
        let g = paper_figure1();
        let map = algebraic_bfs(&g, TemporalNode::from_raw(0, 1)).unwrap();
        assert_eq!(map.distance(TemporalNode::from_raw(2, 1)), Some(1));
        assert_eq!(map.distance(TemporalNode::from_raw(2, 2)), Some(2));
        assert_eq!(map.num_reached(), 3);
    }

    #[test]
    fn rejects_inactive_roots_like_algorithm_1() {
        let g = paper_figure1();
        assert!(algebraic_bfs(&g, TemporalNode::from_raw(2, 0)).is_err());
        assert!(algebraic_bfs_dense(&g, TemporalNode::from_raw(2, 0)).is_err());
    }

    #[test]
    fn terminates_on_cyclic_snapshots() {
        // Theorem 3's cyclic branch: the visited zeroing forces termination.
        let g = cyclic_example();
        for &root in &g.active_nodes() {
            let alg1 = distances(&g, root, false, usize::MAX).unwrap();
            let alg2 = algebraic_bfs(&g, root).unwrap();
            assert_eq!(alg1.as_flat_slice(), alg2.as_flat_slice(), "root {root:?}");
        }
    }

    #[test]
    fn agrees_with_algorithm_1_on_a_staircase() {
        let g = staircase(7);
        let root = TemporalNode::from_raw(0, 0);
        let alg1 = distances(&g, root, false, usize::MAX).unwrap();
        let alg2 = algebraic_bfs(&g, root).unwrap();
        let dense = algebraic_bfs_dense(&g, root).unwrap();
        assert_eq!(alg1.as_flat_slice(), alg2.as_flat_slice());
        assert_eq!(alg1.as_flat_slice(), dense.as_flat_slice());
    }

    #[test]
    fn agrees_with_algorithm_1_on_random_graphs() {
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..10 {
            let n = 12 + (trial % 5);
            let n_t = 3 + (trial % 3);
            let mut g = AdjacencyListGraph::directed_with_unit_times(n, n_t);
            for _ in 0..(3 * n) {
                let u = (next() % n as u64) as u32;
                let v = (next() % n as u64) as u32;
                let t = (next() % n_t as u64) as u32;
                if u != v {
                    g.add_edge(NodeId(u), NodeId(v), TimeIndex(t)).unwrap();
                }
            }
            let actives = g.active_nodes();
            if actives.is_empty() {
                continue;
            }
            let root = actives[(next() % actives.len() as u64) as usize];
            let alg1 = distances(&g, root, false, usize::MAX).unwrap();
            let alg2 = algebraic_bfs(&g, root).unwrap();
            let dense = algebraic_bfs_dense(&g, root).unwrap();
            assert_eq!(alg1.as_flat_slice(), alg2.as_flat_slice(), "trial {trial}");
            assert_eq!(alg1.as_flat_slice(), dense.as_flat_slice(), "trial {trial}");
        }
    }

    #[test]
    fn undirected_graphs_are_handled() {
        let mut g = AdjacencyListGraph::undirected_with_unit_times(4, 2);
        g.add_edge(NodeId(0), NodeId(1), TimeIndex(0)).unwrap();
        g.add_edge(NodeId(1), NodeId(2), TimeIndex(1)).unwrap();
        g.add_edge(NodeId(2), NodeId(3), TimeIndex(1)).unwrap();
        let root = TemporalNode::from_raw(1, 0);
        let alg1 = distances(&g, root, false, usize::MAX).unwrap();
        let alg2 = algebraic_bfs(&g, root).unwrap();
        assert_eq!(alg1.as_flat_slice(), alg2.as_flat_slice());
    }
}
