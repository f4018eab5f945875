//! # egraph-matrix
//!
//! Linear-algebra substrate and the algebraic BFS formulation (Section III of
//! *"The Right Way to Search Evolving Graphs"*, Chen & Zhang, IPPS 2016).
//!
//! The crate is built from scratch on top of `egraph-core`:
//!
//! * dense ([`dense::DenseMatrix`]) and sparse ([`csc::CscMatrix`],
//!   [`coo::CooMatrix`]) matrices with serial mat-vec kernels;
//! * the block adjacency matrices `M_n` / `A_n` of Section III-C
//!   ([`block::BlockAdjacency`]) and the `⊙` product of Section III-B
//!   ([`odot`]);
//! * **Algorithm 2** — BFS as power iteration of `A_nᵀ`
//!   ([`algebraic_bfs()`]), in dense (Theorem 5) and blocked-sparse
//!   (Theorem 6) forms, both returning the same [`DistanceMap`] type as
//!   Algorithm 1 so the equivalence of Theorem 4 is directly testable;
//! * temporal walk counting via matrix powers ([`path_count`]), the naïve
//!   (incorrect) path sums of Section III-A ([`naive_sum`]) and the
//!   nilpotency lemma ([`nilpotent`]).
//!
//! ## Example: Algorithm 1 ≡ Algorithm 2
//!
//! ```
//! use egraph_core::kernel::distances;
//! use egraph_core::prelude::*;
//! use egraph_matrix::algebraic_bfs::algebraic_bfs;
//!
//! let g = egraph_core::examples::paper_figure1();
//! let root = TemporalNode::from_raw(0, 0);
//! let alg1 = distances(&g, root, false, usize::MAX).unwrap();
//! let alg2 = algebraic_bfs(&g, root).unwrap();
//! assert_eq!(alg1.as_flat_slice(), alg2.as_flat_slice());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod algebraic_bfs;
pub mod block;
pub mod coo;
pub mod csc;
pub mod dense;
pub mod naive_sum;
pub mod nilpotent;
pub mod odot;
pub mod path_count;

pub use algebraic_bfs::{algebraic_bfs, algebraic_bfs_blocked, algebraic_bfs_dense};
pub use block::BlockAdjacency;
pub use coo::CooMatrix;
pub use csc::CscMatrix;
pub use dense::DenseMatrix;
pub use egraph_core::distance::DistanceMap;

/// Commonly used items, re-exported for glob import.
pub mod prelude {
    pub use crate::algebraic_bfs::{algebraic_bfs, algebraic_bfs_blocked, algebraic_bfs_dense};
    pub use crate::block::BlockAdjacency;
    pub use crate::coo::CooMatrix;
    pub use crate::csc::CscMatrix;
    pub use crate::dense::DenseMatrix;
    pub use crate::naive_sum::{identity_padded_product, naive_path_sum, plain_product};
    pub use crate::nilpotent::{all_snapshots_acyclic, is_nilpotent, lemma1_check};
    pub use crate::odot::{activeness_mask, causal_apply, odot_componentwise, odot_literal};
    pub use crate::path_count::{iterate_sequence, matrix_walk_counts, total_path_count};
}
