//! The block adjacency matrices `M_n` and `A_n` of Section III-C.
//!
//! An evolving graph with `N` nodes and `n` snapshots maps to an `Nn × Nn`
//! block upper-triangular matrix
//!
//! ```text
//!        ⎡ A[t1]  M[t1,t2] …  M[t1,tn] ⎤
//! M_n =  ⎢   0     A[t2]   …  M[t2,tn] ⎥
//!        ⎢   ⋮                    ⋮     ⎥
//!        ⎣   0       0     …   A[tn]   ⎦
//! ```
//!
//! whose diagonal blocks are the per-snapshot adjacency matrices (the static
//! edge set `Ẽ`) and whose off-diagonal blocks `M[ti,tj]` are diagonal 0/1
//! matrices marking nodes active at *both* times (the causal edge set `E′`).
//! Deleting the rows and columns of inactive temporal nodes yields `A_n`, the
//! adjacency matrix of the equivalent static graph `G` of Theorem 1.
//!
//! [`BlockAdjacency`] stores only what the algorithms need — one sparse CSC
//! block per snapshot plus per-snapshot activeness masks — and can expand
//! the dense `M_n` / `A_n` on demand for tests and small examples. The block
//! matrices "need never be instantiated for practical computations"
//! (Section III-C), and indeed [`crate::algebraic_bfs()`] works directly on
//! this implicit form.

use egraph_core::graph::EvolvingGraph;
use egraph_core::ids::{NodeId, TemporalNode, TimeIndex};

use crate::coo::CooMatrix;
use crate::csc::CscMatrix;
use crate::dense::DenseMatrix;

/// Implicit block representation of `M_n`: per-snapshot sparse adjacency
/// blocks plus activeness masks.
#[derive(Clone, Debug)]
pub struct BlockAdjacency {
    num_nodes: usize,
    num_timestamps: usize,
    directed: bool,
    /// `blocks[t]` = the `N × N` adjacency matrix `A[t]` in CSC form.
    blocks: Vec<CscMatrix>,
    /// `active[t][v]` = whether `(v, t)` is an active temporal node.
    active: Vec<Vec<bool>>,
}

impl BlockAdjacency {
    /// Builds the block representation of an evolving graph. Undirected
    /// static edges are stored symmetrically (both `(u,v)` and `(v,u)`), as
    /// in the proof of Theorem 1.
    pub fn from_graph<G: EvolvingGraph>(graph: &G) -> Self {
        let n = graph.num_nodes();
        let n_t = graph.num_timestamps();
        let mut blocks = Vec::with_capacity(n_t);
        let mut active = vec![vec![false; n]; n_t];

        // Indexed on purpose: `v` addresses a column inside a closure that
        // selects the row by snapshot, so no single iterator owns the slot.
        #[allow(clippy::needless_range_loop)]
        for v in 0..n {
            let v_id = NodeId::from_index(v);
            graph.for_each_active_time(v_id, &mut |t| {
                active[t.index()][v] = true;
            });
        }

        for t in 0..n_t {
            let ti = TimeIndex::from_index(t);
            let mut coo = CooMatrix::new(n, n);
            for v in 0..n {
                let v_id = NodeId::from_index(v);
                graph.for_each_static_out(v_id, ti, &mut |w| {
                    coo.push_one(v, w.index());
                });
            }
            blocks.push(coo.to_csc());
        }

        BlockAdjacency {
            num_nodes: n,
            num_timestamps: n_t,
            directed: graph.is_directed(),
            blocks,
            active,
        }
    }

    /// Node universe size `N`.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of snapshots `n`.
    pub fn num_timestamps(&self) -> usize {
        self.num_timestamps
    }

    /// Whether the source graph was directed.
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// Dimension `Nn` of the full block matrix `M_n`.
    pub fn dimension(&self) -> usize {
        self.num_nodes * self.num_timestamps
    }

    /// The diagonal block `A[t]`.
    pub fn block(&self, t: TimeIndex) -> &CscMatrix {
        &self.blocks[t.index()]
    }

    /// The activeness mask of snapshot `t` (`mask[v]` = is `(v,t)` active).
    pub fn active_mask(&self, t: TimeIndex) -> &[bool] {
        &self.active[t.index()]
    }

    /// Whether `(v, t)` is active.
    pub fn is_active(&self, v: NodeId, t: TimeIndex) -> bool {
        self.active[t.index()][v.index()]
    }

    /// Number of active temporal nodes `|V|`.
    pub fn num_active_nodes(&self) -> usize {
        self.active
            .iter()
            .map(|mask| mask.iter().filter(|&&a| a).count())
            .sum()
    }

    /// The off-diagonal block `M[ti,tj]` as a dense matrix: a diagonal 0/1
    /// matrix with a one at `(v, v)` iff `v` is active at both times. Equation
    /// (4) of the paper is `causal_block(t1, t2)` of the Figure 1 graph.
    ///
    /// # Panics
    /// Panics if `ti >= tj` — causal blocks only exist above the diagonal.
    pub fn causal_block(&self, ti: TimeIndex, tj: TimeIndex) -> DenseMatrix {
        assert!(ti < tj, "causal blocks require ti < tj");
        let mut m = DenseMatrix::zeros(self.num_nodes, self.num_nodes);
        for v in 0..self.num_nodes {
            if self.active[ti.index()][v] && self.active[tj.index()][v] {
                m.set(v, v, 1.0);
            }
        }
        m
    }

    /// The active temporal nodes in time-major order — the row/column
    /// labelling of `A_n`.
    pub fn active_temporal_nodes(&self) -> Vec<TemporalNode> {
        let mut out = Vec::new();
        for t in 0..self.num_timestamps {
            for v in 0..self.num_nodes {
                if self.active[t][v] {
                    out.push(TemporalNode::from_raw(v as u32, t as u32));
                }
            }
        }
        out
    }

    /// Expands the full `Nn × Nn` matrix `M_n` (including inactive rows and
    /// columns). Quadratic in memory — intended for tests and small examples.
    pub fn to_dense_mn(&self) -> DenseMatrix {
        let n = self.num_nodes;
        let dim = self.dimension();
        let mut m = DenseMatrix::zeros(dim, dim);
        for t in 0..self.num_timestamps {
            // Diagonal block A[t].
            let block = &self.blocks[t];
            for c in 0..n {
                let (rows, vals) = block.col(c);
                for (&r, &v) in rows.iter().zip(vals) {
                    m.add_to(t * n + r as usize, t * n + c, v);
                }
            }
            // Off-diagonal causal blocks M[t, s] for s > t.
            for s in t + 1..self.num_timestamps {
                for v in 0..n {
                    if self.active[t][v] && self.active[s][v] {
                        m.set(t * n + v, s * n + v, 1.0);
                    }
                }
            }
        }
        m
    }

    /// Expands `A_n`: the dense adjacency matrix restricted to active
    /// temporal nodes, together with the temporal-node labelling of its rows
    /// and columns. This equals the adjacency matrix of
    /// [`egraph_core::static_equiv::EquivalentStaticGraph`].
    pub fn to_dense_an(&self) -> (DenseMatrix, Vec<TemporalNode>) {
        let labels = self.active_temporal_nodes();
        let index: std::collections::HashMap<TemporalNode, usize> =
            labels.iter().enumerate().map(|(i, &tn)| (tn, i)).collect();
        let mut m = DenseMatrix::zeros(labels.len(), labels.len());
        let n = self.num_nodes;
        let mn = self.to_dense_mn();
        for (i, &a) in labels.iter().enumerate() {
            for (j, &b) in labels.iter().enumerate() {
                let v = mn.get(a.flat_index(n), b.flat_index(n));
                if v != 0.0 {
                    m.set(i, j, v);
                }
            }
        }
        debug_assert_eq!(index.len(), labels.len());
        (m, labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use egraph_core::examples::paper_figure1;
    use egraph_core::static_equiv::EquivalentStaticGraph;

    #[test]
    fn diagonal_blocks_match_the_per_time_adjacency_matrices() {
        let g = paper_figure1();
        let blocks = BlockAdjacency::from_graph(&g);
        // A[t1] has a single one at (1,2) (0-based (0,1)).
        assert_eq!(blocks.block(TimeIndex(0)).get(0, 1), 1.0);
        assert_eq!(blocks.block(TimeIndex(0)).nnz(), 1);
        assert_eq!(blocks.block(TimeIndex(1)).get(0, 2), 1.0);
        assert_eq!(blocks.block(TimeIndex(2)).get(1, 2), 1.0);
    }

    #[test]
    fn causal_block_t1_t2_matches_equation_4() {
        let g = paper_figure1();
        let blocks = BlockAdjacency::from_graph(&g);
        // Equation (4): M[t1,t2] has a single one at (1,1) (0-based (0,0)).
        let m = blocks.causal_block(TimeIndex(0), TimeIndex(1));
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.count_nonzeros(), 1);
    }

    #[test]
    #[should_panic(expected = "ti < tj")]
    fn causal_block_rejects_non_increasing_times() {
        let g = paper_figure1();
        let blocks = BlockAdjacency::from_graph(&g);
        let _ = blocks.causal_block(TimeIndex(1), TimeIndex(1));
    }

    #[test]
    fn activeness_masks_match_the_graph() {
        let g = paper_figure1();
        let blocks = BlockAdjacency::from_graph(&g);
        assert!(blocks.is_active(NodeId(0), TimeIndex(0)));
        assert!(!blocks.is_active(NodeId(2), TimeIndex(0)));
        assert_eq!(blocks.num_active_nodes(), 6);
        assert_eq!(blocks.active_mask(TimeIndex(1)), &[true, false, true]);
    }

    #[test]
    fn dense_mn_is_block_upper_triangular() {
        let g = paper_figure1();
        let blocks = BlockAdjacency::from_graph(&g);
        let mn = blocks.to_dense_mn();
        assert_eq!(mn.rows(), 9);
        // Everything strictly below the diagonal blocks must be zero.
        for r in 0..9 {
            for c in 0..9 {
                let (rt, ct) = (r / 3, c / 3);
                if ct < rt {
                    assert_eq!(mn.get(r, c), 0.0, "below-diagonal entry ({r},{c})");
                }
            }
        }
        // Rows/columns of inactive temporal nodes are zero: (3,t1) is flat 2.
        assert!(mn.row(2).iter().all(|&x| x == 0.0));
        assert!((0..9).all(|r| mn.get(r, 2) == 0.0));
    }

    #[test]
    fn dense_an_matches_the_paper_a3_and_the_equivalent_static_graph() {
        let g = paper_figure1();
        let blocks = BlockAdjacency::from_graph(&g);
        let (an, labels) = blocks.to_dense_an();
        assert_eq!(an.rows(), 6);
        // The paper's A3 (Section III-C), in the same time-major ordering.
        let expected =
            DenseMatrix::from_ones(6, 6, &[(0, 1), (0, 2), (2, 3), (1, 4), (3, 5), (4, 5)]);
        assert_eq!(an, expected);
        // Cross-check against the Theorem 1 construction from egraph-core.
        let eq = EquivalentStaticGraph::build(&g);
        assert_eq!(labels, eq.temporal_nodes());
        for (i, _) in labels.iter().enumerate() {
            for (j, _) in labels.iter().enumerate() {
                let has = eq.static_graph().has_edge(i, j);
                assert_eq!(an.get(i, j) != 0.0, has, "entry ({i},{j})");
            }
        }
    }

    #[test]
    fn undirected_graphs_store_symmetric_blocks() {
        let mut g = egraph_core::adjacency::AdjacencyListGraph::undirected_with_unit_times(3, 1);
        g.add_edge(NodeId(0), NodeId(2), TimeIndex(0)).unwrap();
        let blocks = BlockAdjacency::from_graph(&g);
        assert_eq!(blocks.block(TimeIndex(0)).get(0, 2), 1.0);
        assert_eq!(blocks.block(TimeIndex(0)).get(2, 0), 1.0);
        assert!(!blocks.is_directed());
    }
}
