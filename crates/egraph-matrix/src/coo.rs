//! Coordinate (triplet) sparse matrix builder.
//!
//! Sparse matrices are most conveniently assembled as `(row, col, value)`
//! triplets and then compressed into CSC form. Duplicate entries are summed
//! during compression, matching the usual sparse-assembly convention.

use crate::csc::CscMatrix;
use crate::dense::DenseMatrix;

/// A sparse matrix under assembly, stored as unsorted triplets.
#[derive(Clone, Debug, Default)]
pub struct CooMatrix {
    rows: usize,
    cols: usize,
    entries: Vec<(u32, u32, f64)>,
}

impl CooMatrix {
    /// Creates an empty `rows × cols` triplet matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        CooMatrix {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// Creates an empty matrix with room for `cap` triplets.
    pub fn with_capacity(rows: usize, cols: usize, cap: usize) -> Self {
        CooMatrix {
            rows,
            cols,
            entries: Vec::with_capacity(cap),
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

    /// Number of stored triplets (before duplicate summing).
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Adds a triplet.
    ///
    /// # Panics
    /// Panics (in debug builds) if the position lies outside the matrix.
    pub fn push(&mut self, row: usize, col: usize, value: f64) {
        debug_assert!(row < self.rows && col < self.cols, "triplet out of range");
        self.entries.push((row as u32, col as u32, value));
    }

    /// Adds a structural one at `(row, col)` — adjacency-matrix assembly.
    pub fn push_one(&mut self, row: usize, col: usize) {
        self.push(row, col, 1.0);
    }

    /// The triplets accumulated so far.
    pub fn entries(&self) -> &[(u32, u32, f64)] {
        &self.entries
    }

    /// Compresses into CSC form, summing duplicates.
    pub fn to_csc(&self) -> CscMatrix {
        CscMatrix::from_triplets(self.rows, self.cols, &self.entries)
    }

    /// Expands into a dense matrix (duplicates summed).
    pub fn to_dense(&self) -> DenseMatrix {
        let mut m = DenseMatrix::zeros(self.rows, self.cols);
        for &(r, c, v) in &self.entries {
            m.add_to(r as usize, c as usize, v);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_convert_to_dense() {
        let mut coo = CooMatrix::new(2, 3);
        coo.push(0, 1, 2.0);
        coo.push_one(1, 2);
        coo.push(0, 1, 3.0); // duplicate: summed
        let d = coo.to_dense();
        assert_eq!(d.get(0, 1), 5.0);
        assert_eq!(d.get(1, 2), 1.0);
        assert_eq!(coo.nnz(), 3);
    }

    #[test]
    fn csr_and_csc_agree_with_dense() {
        let mut coo = CooMatrix::with_capacity(3, 3, 4);
        coo.push_one(0, 1);
        coo.push_one(1, 2);
        coo.push_one(2, 0);
        coo.push(0, 1, 1.0);
        let d = coo.to_dense();
        let csc = coo.to_csc();
        let x = vec![1.0, 2.0, 3.0];
        assert_eq!(csc.matvec(&x), d.matvec(&x));
        assert_eq!(csc.nnz(), 3); // duplicate summed into one stored entry
    }

    #[test]
    #[should_panic(expected = "out of range")]
    #[cfg(debug_assertions)] // debug_assert! is compiled out in release tests
    fn debug_assert_catches_out_of_range() {
        let mut coo = CooMatrix::new(1, 1);
        coo.push(3, 0, 1.0);
    }
}
