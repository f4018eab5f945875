//! Compressed sparse column (CSC) matrices.
//!
//! The complexity analysis of the algebraic BFS (Theorem 6) is stated for a
//! "collection of compressed sparse column matrices for each diagonal block
//! A\[t\]". CSC is convenient there because the transposed product `Aᵀ b`
//! gathers along columns, and because checking "is column `i` empty" — which
//! is how the `⊙` activeness test is evaluated — is a constant-time pointer
//! comparison.

use crate::dense::DenseMatrix;

/// A sparse `rows × cols` matrix in compressed sparse column format.
#[derive(Clone, Debug, PartialEq)]
pub struct CscMatrix {
    rows: usize,
    cols: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<u32>,
    values: Vec<f64>,
}

impl CscMatrix {
    /// Builds a CSC matrix from triplets, summing duplicates.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(u32, u32, f64)]) -> Self {
        let mut sorted: Vec<(u32, u32, f64)> = triplets.to_vec();
        sorted.sort_unstable_by_key(|&(r, c, _)| (c, r));

        let mut merged: Vec<(u32, u32, f64)> = Vec::with_capacity(sorted.len());
        for (r, c, v) in sorted {
            if let Some(last) = merged.last_mut() {
                if last.0 == r && last.1 == c {
                    last.2 += v;
                    continue;
                }
            }
            merged.push((r, c, v));
        }

        let mut col_ptr = vec![0usize; cols + 1];
        for &(_, c, _) in &merged {
            col_ptr[c as usize + 1] += 1;
        }
        for i in 0..cols {
            col_ptr[i + 1] += col_ptr[i];
        }
        let row_idx = merged.iter().map(|&(r, _, _)| r).collect();
        let values = merged.iter().map(|&(_, _, v)| v).collect();
        CscMatrix {
            rows,
            cols,
            col_ptr,
            row_idx,
            values,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Row indices and values of column `c`.
    #[inline]
    pub fn col(&self, c: usize) -> (&[u32], &[f64]) {
        let lo = self.col_ptr[c];
        let hi = self.col_ptr[c + 1];
        (&self.row_idx[lo..hi], &self.values[lo..hi])
    }

    /// Whether column `c` stores no entries — the `O(1)` emptiness check used
    /// when evaluating the `⊙` product (proof of Theorem 6).
    #[inline]
    pub fn col_is_empty(&self, c: usize) -> bool {
        self.col_ptr[c] == self.col_ptr[c + 1]
    }

    /// Marks which rows contain at least one entry, in one `O(nnz)` sweep.
    /// CSC has no row index, so this batched form is how the proof of
    /// Theorem 6's `O(|V[t]|)` row-activeness charge is met.
    pub fn nonempty_rows(&self) -> Vec<bool> {
        let mut mask = vec![false; self.rows];
        for &r in &self.row_idx {
            mask[r as usize] = true;
        }
        mask
    }

    /// Marks which columns contain at least one entry.
    pub fn nonempty_cols(&self) -> Vec<bool> {
        (0..self.cols).map(|c| !self.col_is_empty(c)).collect()
    }

    /// Element lookup (linear in the column length).
    pub fn get(&self, r: usize, c: usize) -> f64 {
        let (rows, vals) = self.col(c);
        rows.iter()
            .position(|&x| x as usize == r)
            .map(|i| vals[i])
            .unwrap_or(0.0)
    }

    /// Sparse matrix–vector product `y = A x` (column-major gaxpy, `2 nnz`
    /// flops).
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "dimension mismatch in matvec");
        let mut y = vec![0.0; self.rows];
        for (c, &xc) in x.iter().enumerate() {
            if xc == 0.0 {
                continue;
            }
            let (rows, vals) = self.col(c);
            for (&r, &v) in rows.iter().zip(vals) {
                y[r as usize] += v * xc;
            }
        }
        y
    }

    /// Transposed product `y = Aᵀ x`: each output component is a dot product
    /// of a column with `x`, which is the access pattern the BFS iteration of
    /// Algorithm 2 performs.
    pub fn transpose_matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows, "dimension mismatch in transpose_matvec");
        let mut y = vec![0.0; self.cols];
        for (c, yc) in y.iter_mut().enumerate() {
            let (rows, vals) = self.col(c);
            let mut acc = 0.0;
            for (&r, &v) in rows.iter().zip(vals) {
                acc += v * x[r as usize];
            }
            *yc = acc;
        }
        y
    }

    /// Expands to a dense matrix.
    pub fn to_dense(&self) -> DenseMatrix {
        let mut m = DenseMatrix::zeros(self.rows, self.cols);
        for c in 0..self.cols {
            let (rows, vals) = self.col(c);
            for (&r, &v) in rows.iter().zip(vals) {
                m.add_to(r as usize, c, v);
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> CscMatrix {
        // [[0, 1, 0],
        //  [2, 0, 3],
        //  [0, 0, 0]]
        CscMatrix::from_triplets(3, 3, &[(0, 1, 1.0), (1, 0, 2.0), (1, 2, 3.0)])
    }

    #[test]
    fn structure_and_lookup() {
        let a = example();
        assert_eq!(a.nnz(), 3);
        assert_eq!(a.get(0, 1), 1.0);
        assert_eq!(a.get(1, 2), 3.0);
        assert_eq!(a.get(2, 0), 0.0);
        assert!(!a.col_is_empty(1));
        assert_eq!(a.nonempty_rows(), vec![true, true, false]);
        assert_eq!(a.nonempty_cols(), vec![true, true, true]);
    }

    #[test]
    fn matvec_matches_dense() {
        let a = example();
        let d = a.to_dense();
        let x = vec![0.5, -1.0, 2.0];
        assert_eq!(a.matvec(&x), d.matvec(&x));
        assert_eq!(a.transpose_matvec(&x), d.transpose_matvec(&x));
    }

    #[test]
    fn duplicates_are_summed() {
        let a = CscMatrix::from_triplets(2, 2, &[(1, 1, 1.0), (1, 1, 4.0)]);
        assert_eq!(a.nnz(), 1);
        assert_eq!(a.get(1, 1), 5.0);
    }

    #[test]
    fn empty_matrix_works() {
        let a = CscMatrix::from_triplets(2, 5, &[]);
        assert_eq!(a.nnz(), 0);
        assert_eq!(a.transpose_matvec(&[1.0, 1.0]), vec![0.0; 5]);
        assert!(a.col_is_empty(4));
    }
}
