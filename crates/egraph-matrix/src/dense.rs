//! Dense row-major matrices.
//!
//! The algebraic formulation of Section III represents an evolving graph by
//! its block adjacency matrix and performs BFS by repeated matrix–vector
//! products. The dense representation is the simplest executable form of
//! that idea and the one Theorem 5 analyses (`O(k |V|²)`); it is also the
//! ground truth the sparse kernels are tested against.

/// A dense `rows × cols` matrix of `f64`, stored row-major.
#[derive(Clone, Debug, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds a 0/1 matrix from a list of `(row, col)` positions.
    pub fn from_ones(rows: usize, cols: usize, ones: &[(usize, usize)]) -> Self {
        let mut m = Self::zeros(rows, cols);
        for &(r, c) in ones {
            m.set(r, c, 1.0);
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols + c] = v;
    }

    /// Adds `v` to element `(r, c)`.
    #[inline]
    pub fn add_to(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols + c] += v;
    }

    /// Row `r` as a slice.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The raw row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Number of structurally non-zero entries.
    pub fn count_nonzeros(&self) -> usize {
        self.data.iter().filter(|&&x| x != 0.0).count()
    }

    /// Whether every entry is exactly zero.
    pub fn is_zero(&self) -> bool {
        self.data.iter().all(|&x| x == 0.0)
    }

    /// Matrix–vector product `y = A x`.
    ///
    /// # Panics
    /// Panics if `x.len() != cols`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "dimension mismatch in matvec");
        let mut y = vec![0.0; self.rows];
        for (r, yr) in y.iter_mut().enumerate() {
            let row = self.row(r);
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(x) {
                acc += a * b;
            }
            *yr = acc;
        }
        y
    }

    /// Transposed matrix–vector product `y = Aᵀ x`.
    ///
    /// The BFS iteration of Algorithm 2 applies `A_nᵀ` repeatedly, so the
    /// transposed product is the hot kernel.
    pub fn transpose_matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows, "dimension mismatch in transpose_matvec");
        let mut y = vec![0.0; self.cols];
        for (r, &xr) in x.iter().enumerate() {
            if xr == 0.0 {
                continue;
            }
            let row = self.row(r);
            for (c, &a) in row.iter().enumerate() {
                y[c] += a * xr;
            }
        }
        y
    }

    /// Matrix–matrix product `A · B`.
    ///
    /// # Panics
    /// Panics if the inner dimensions disagree.
    pub fn matmul(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.cols, other.rows, "dimension mismatch in matmul");
        let mut out = DenseMatrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self.get(i, k);
                if aik == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out.add_to(i, j, aik * other.get(k, j));
                }
            }
        }
        out
    }

    /// Matrix addition `A + B`.
    pub fn add(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }

    /// `A^k` (with `A^0 = I`); the matrix must be square.
    pub fn pow(&self, k: usize) -> DenseMatrix {
        assert_eq!(self.rows, self.cols, "pow requires a square matrix");
        let mut acc = DenseMatrix::identity(self.rows);
        for _ in 0..k {
            acc = acc.matmul(self);
        }
        acc
    }

    /// The transpose `Aᵀ`.
    pub fn transpose(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Whether the matrix is strictly upper triangular (used by the
    /// nilpotency lemma: acyclic snapshots give strictly upper triangular
    /// diagonal blocks once nodes are topologically ordered).
    pub fn is_strictly_upper_triangular(&self) -> bool {
        for r in 0..self.rows {
            for c in 0..=r.min(self.cols.saturating_sub(1)) {
                if c <= r && c < self.cols && self.get(r, c) != 0.0 {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `[[1, 2, 3], [4, 5, 6]]`.
    fn one_to_six() -> DenseMatrix {
        let mut a = DenseMatrix::zeros(2, 3);
        for i in 0..6 {
            a.set(i / 3, i % 3, (i + 1) as f64);
        }
        a
    }

    #[test]
    fn identity_matvec_is_identity() {
        let i = DenseMatrix::identity(4);
        let x = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(i.matvec(&x), x);
        assert_eq!(i.transpose_matvec(&x), x);
    }

    #[test]
    fn matvec_matches_manual_computation() {
        let a = one_to_six();
        assert_eq!(a.matvec(&[1.0, 1.0, 1.0]), vec![6.0, 15.0]);
        assert_eq!(a.transpose_matvec(&[1.0, 1.0]), vec![5.0, 7.0, 9.0]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matvec_rejects_bad_dimensions() {
        let a = DenseMatrix::zeros(2, 3);
        let _ = a.matvec(&[1.0, 2.0]);
    }

    #[test]
    fn matmul_and_pow() {
        // Adjacency matrix of the path 0 -> 1 -> 2.
        let a = DenseMatrix::from_ones(3, 3, &[(0, 1), (1, 2)]);
        let a2 = a.pow(2);
        assert_eq!(a2.get(0, 2), 1.0);
        assert_eq!(a2.count_nonzeros(), 1);
        assert!(a.pow(3).is_zero());
        assert_eq!(a.pow(0), DenseMatrix::identity(3));
    }

    #[test]
    fn transpose_round_trips() {
        let a = one_to_six();
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn add_sums_elementwise() {
        let a = DenseMatrix::from_ones(2, 2, &[(0, 0)]);
        let b = DenseMatrix::from_ones(2, 2, &[(0, 0), (1, 1)]);
        let s = a.add(&b);
        assert_eq!(s.get(0, 0), 2.0);
        assert_eq!(s.get(1, 1), 1.0);
    }

    #[test]
    fn strict_upper_triangular_detection() {
        let upper = DenseMatrix::from_ones(3, 3, &[(0, 1), (0, 2), (1, 2)]);
        assert!(upper.is_strictly_upper_triangular());
        let with_diag = DenseMatrix::from_ones(3, 3, &[(1, 1)]);
        assert!(!with_diag.is_strictly_upper_triangular());
        let lower = DenseMatrix::from_ones(3, 3, &[(2, 0)]);
        assert!(!lower.is_strictly_upper_triangular());
    }
}
