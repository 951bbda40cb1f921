//! Minimal linear algebra: a dense row-major matrix and a CSR sparse one.
//!
//! Sized for the paper's problem scales: design matrices with up to a few
//! thousand rows (training queries) and columns (buckets). No BLAS, no
//! unsafe. A design matrix is mostly zeros — a query overlaps a minority
//! of the buckets — so it is assembled as a [`SparseMatrix`] and FISTA
//! iterates on that; the factoring and pivoting solvers take a
//! [`DenseMatrix`] copy.
//!
//! With the `parallel` feature, `matvec` and `matvec_t` of both layouts
//! fan out across rows / columns on rayon; `residual_sq` and
//! `gram_spectral_norm` inherit that parallelism. Every parallel kernel
//! keeps the serial accumulation order per output element, so results are
//! bitwise identical to the serial build — the FISTA/NNLS iterates (and
//! hence the trained weights) do not change with the feature or the
//! thread count.

use crate::error::SolverError;

#[cfg(feature = "parallel")]
use rayon::prelude::*;

/// Multiply-add count below which parallel dispatch is skipped: scoped
/// thread spawn costs far more than a small matvec.
#[cfg(feature = "parallel")]
const PAR_WORK_THRESHOLD: usize = 32_768;

#[cfg(feature = "parallel")]
fn par_worthwhile(work: usize) -> bool {
    work >= PAR_WORK_THRESHOLD && rayon::current_num_threads() > 1
}

/// A dense row-major matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer size mismatch");
        Self { rows, cols, data }
    }

    /// Creates a matrix from nested rows (for tests and small problems).
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Self {
            rows: r,
            cols: c,
            data,
        }
    }

    /// The identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
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

    /// Borrow of row `i`.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable borrow of row `i`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the row length differs from `cols` (unless the matrix is
    /// empty, in which case it sets the width).
    pub fn push_row(&mut self, row: &[f64]) {
        if self.rows == 0 && self.cols == 0 {
            self.cols = row.len();
        }
        assert_eq!(row.len(), self.cols, "row length mismatch");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// `y = A x`. Each output element is one independent row dot product,
    /// so the parallel build splits over rows with no change in the
    /// per-element summation order.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "dimension mismatch");
        #[cfg(feature = "parallel")]
        if par_worthwhile(self.rows * self.cols) {
            return (0..self.rows)
                .into_par_iter()
                .map(|i| dot(self.row(i), x))
                .collect();
        }
        let mut y = vec![0.0; self.rows];
        for (i, yi) in y.iter_mut().enumerate() {
            *yi = dot(self.row(i), x);
        }
        y
    }

    /// `y = Aᵀ x`. The parallel build computes each column sum
    /// independently, accumulating over rows in ascending order with the
    /// same zero-skip as the serial loop — identical association, so the
    /// floating-point result is bitwise equal to the serial one.
    pub fn matvec_t(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows, "dimension mismatch");
        #[cfg(feature = "parallel")]
        if par_worthwhile(self.rows * self.cols) {
            return (0..self.cols)
                .into_par_iter()
                .map(|j| {
                    let mut yj = 0.0;
                    for (i, &xi) in x.iter().enumerate() {
                        if xi == 0.0 {
                            continue;
                        }
                        yj += self.data[i * self.cols + j] * xi;
                    }
                    yj
                })
                .collect();
        }
        let mut y = vec![0.0; self.cols];
        #[allow(clippy::needless_range_loop)] // indexed form is clearer here
        for i in 0..self.rows {
            let xi = x[i];
            if xi == 0.0 {
                continue;
            }
            for (j, &a) in self.row(i).iter().enumerate() {
                y[j] += a * xi;
            }
        }
        y
    }

    /// Residual `A x − b` (parallel over rows via [`Self::matvec`]).
    pub fn residual(&self, x: &[f64], b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.rows, "dimension mismatch");
        let mut r = self.matvec(x);
        for (ri, bi) in r.iter_mut().zip(b) {
            *ri -= bi;
        }
        r
    }

    /// Squared residual norm `‖A x − b‖²`. The `O(rows·cols)` matvec is
    /// parallel; the `O(rows)` square-and-sum stays serial (it is never the
    /// bottleneck, and the serial fold keeps the reduction order fixed).
    pub fn residual_sq(&self, x: &[f64], b: &[f64]) -> f64 {
        assert_eq!(b.len(), self.rows, "dimension mismatch");
        sq_dist(&self.matvec(x), b)
    }

    /// Largest eigenvalue of `AᵀA` (squared spectral norm of `A`) estimated
    /// by power iteration; used as the Lipschitz constant of the
    /// least-squares gradient in FISTA. Each iteration is one
    /// [`Self::matvec`] plus one [`Self::matvec_t`], so the power method
    /// parallelizes (deterministically) with the `parallel` feature.
    pub fn gram_spectral_norm(&self, iters: usize) -> f64 {
        gram_power_iteration(
            self.rows,
            self.cols,
            iters,
            |v| self.matvec(v),
            |v| self.matvec_t(v),
        )
    }

    /// Index (flat, row-major) and value of the first non-finite entry.
    pub fn first_non_finite(&self) -> Option<(usize, f64)> {
        self.data
            .iter()
            .enumerate()
            .find(|(_, v)| !v.is_finite())
            .map(|(i, &v)| (i, v))
    }

    /// Solves the symmetric positive-definite system `M x = b` via
    /// Cholesky, where `M` is `self` (must be square SPD). Returns
    /// [`SolverError::NotSpd`] when the factorization breaks down (matrix
    /// not SPD to tolerance) and a dimension error on shape mismatches.
    pub fn solve_spd(&self, b: &[f64]) -> Result<Vec<f64>, SolverError> {
        if self.rows != self.cols {
            return Err(SolverError::DimensionMismatch {
                solver: "solve_spd",
                what: "matrix must be square",
                expected: self.rows,
                got: self.cols,
            });
        }
        if b.len() != self.rows {
            return Err(SolverError::DimensionMismatch {
                solver: "solve_spd",
                what: "right-hand side",
                expected: self.rows,
                got: b.len(),
            });
        }
        let n = self.rows;
        // Cholesky factor L (lower), column-oriented.
        let mut l = vec![0.0f64; n * n];
        for j in 0..n {
            let mut diag = self[(j, j)];
            for k in 0..j {
                diag -= l[j * n + k] * l[j * n + k];
            }
            if diag.is_nan() || diag <= 1e-14 {
                // non-positive or NaN pivot: not SPD to tolerance
                return Err(SolverError::NotSpd);
            }
            let dj = diag.sqrt();
            l[j * n + j] = dj;
            for i in (j + 1)..n {
                let mut v = self[(i, j)];
                for k in 0..j {
                    v -= l[i * n + k] * l[j * n + k];
                }
                l[i * n + j] = v / dj;
            }
        }
        // forward substitution L y = b
        let mut y = b.to_vec();
        for i in 0..n {
            for k in 0..i {
                let t = l[i * n + k] * y[k];
                y[i] -= t;
            }
            y[i] /= l[i * n + i];
        }
        // back substitution Lᵀ x = y
        let mut x = y;
        for i in (0..n).rev() {
            for k in (i + 1)..n {
                let t = l[k * n + i] * x[k];
                x[i] -= t;
            }
            x[i] /= l[i * n + i];
        }
        Ok(x)
    }
}

impl std::ops::Index<(usize, usize)> for DenseMatrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for DenseMatrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

/// Dot product of two equal-length slices.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// `‖ax − b‖²` given `ax = A x`: the one definition behind both layouts'
/// `residual_sq` and FISTA's loss.
pub(crate) fn sq_dist(ax: &[f64], b: &[f64]) -> f64 {
    ax.iter()
        .zip(b)
        .map(|(axi, bi)| {
            let r = axi - bi;
            r * r
        })
        .sum()
}

/// Power iteration for `λ_max(AᵀA)` over the two products of a
/// `rows × cols` matrix; shared by the dense and the CSR layout so both
/// run the identical sequence of floating-point operations.
fn gram_power_iteration(
    rows: usize,
    cols: usize,
    iters: usize,
    matvec: impl Fn(&[f64]) -> Vec<f64>,
    matvec_t: impl Fn(&[f64]) -> Vec<f64>,
) -> f64 {
    if rows == 0 || cols == 0 {
        return 0.0;
    }
    // deterministic start vector
    let mut v: Vec<f64> = (0..cols)
        .map(|j| 1.0 + (j as f64 * 0.618_033_988_749).fract())
        .collect();
    let mut lambda = 0.0;
    for _ in 0..iters {
        let atav = matvec_t(&matvec(&v));
        let norm = atav.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm <= f64::MIN_POSITIVE {
            return 0.0;
        }
        lambda = norm;
        for (vi, ai) in v.iter_mut().zip(&atav) {
            *vi = ai / norm;
        }
    }
    lambda
}

/// A compressed-sparse-row (CSR) matrix: the layout the weight solvers
/// iterate over. Row `i` owns the entries `row_ptr[i]..row_ptr[i + 1]` of
/// `col_idx` (ascending) and `values`, so storage and every product cost
/// `O(nnz)` instead of `O(rows · cols)`.
///
/// # Kernel contract
///
/// For finite `x`, [`matvec`](Self::matvec), [`matvec_t`](Self::matvec_t),
/// [`residual_sq`](Self::residual_sq) and
/// [`gram_spectral_norm`](Self::gram_spectral_norm) are bitwise equal to
/// the [`DenseMatrix`] kernels on [`to_dense`](Self::to_dense), serial or
/// parallel. A row dot adds the stored products in ascending column order
/// from the fold identity of [`dot`]; a column sum adds them in ascending
/// row order from `+0.0`. The dense kernels' extra terms are products of
/// zero entries, `±0.0`, which leave every nonzero partial sum unchanged;
/// the one case where they matter — the sign of an all-zero row dot — is
/// reproduced explicitly.
#[derive(Clone, Debug, PartialEq)]
pub struct SparseMatrix {
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl SparseMatrix {
    /// An empty (zero-row) matrix `cols` wide.
    ///
    /// # Panics
    /// Panics if `cols` does not fit the `u32` column index.
    pub fn new(cols: usize) -> Self {
        assert!(
            u32::try_from(cols).is_ok(),
            "too many columns for u32 indices"
        );
        Self {
            cols,
            row_ptr: vec![0],
            col_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// The CSR copy of a dense matrix.
    pub fn from_dense(a: &DenseMatrix) -> Self {
        let mut m = Self::new(a.cols());
        for i in 0..a.rows() {
            m.push_row(a.row(i));
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Column indices (ascending) and values of the stored entries of row `i`.
    pub fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let span = self.row_ptr[i]..self.row_ptr[i + 1];
        (&self.col_idx[span.clone()], &self.values[span])
    }

    /// Appends a dense row, dropping its `+0.0` entries. A `-0.0` entry is
    /// stored: its sign can decide the sign of a zero row dot.
    ///
    /// # Panics
    /// Panics if the row length differs from `cols`.
    pub fn push_row(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.cols, "row length mismatch");
        for (j, &v) in row.iter().enumerate() {
            if v.to_bits() != 0 {
                self.col_idx.push(j as u32);
                self.values.push(v);
            }
        }
        self.row_ptr.push(self.values.len());
    }

    /// Appends every row of `other`.
    ///
    /// # Panics
    /// Panics if the column counts differ.
    pub fn append(&mut self, other: &SparseMatrix) {
        assert_eq!(other.cols, self.cols, "column count mismatch");
        let base = self.values.len();
        self.row_ptr
            .extend(other.row_ptr[1..].iter().map(|&p| base + p));
        self.col_idx.extend_from_slice(&other.col_idx);
        self.values.extend_from_slice(&other.values);
    }

    /// `y = A x`. The parallel build splits over rows; each row dot is
    /// computed whole by one task.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "dimension mismatch");
        #[cfg(feature = "parallel")]
        if par_worthwhile(self.nnz()) {
            return (0..self.rows())
                .into_par_iter()
                .map(|i| self.row_dot(i, x))
                .collect();
        }
        (0..self.rows()).map(|i| self.row_dot(i, x)).collect()
    }

    fn row_dot(&self, i: usize, x: &[f64]) -> f64 {
        let (idx, vals) = self.row(i);
        let sum: f64 = idx.iter().zip(vals).map(|(&j, &v)| v * x[j as usize]).sum();
        if sum == 0.0 && sum.is_sign_negative() && idx.len() < self.cols {
            // Every stored product was -0.0. The dense dot also adds
            // +0.0 · x_j for each dropped entry, and one +0.0 term makes
            // the sum +0.0.
            let mut stored = idx.iter().map(|&j| j as usize).peekable();
            for (j, xj) in x.iter().enumerate() {
                if stored.peek() == Some(&j) {
                    stored.next();
                } else if !xj.is_sign_negative() {
                    return 0.0;
                }
            }
        }
        sum
    }

    /// `y = Aᵀ x`, scattering each row into `y` in ascending row order and
    /// skipping rows with `x_i == 0`. The parallel build splits the columns
    /// into one contiguous range per thread; each task scans every row for
    /// the entries in its range, so every `y_j` still adds in ascending
    /// row order.
    pub fn matvec_t(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows(), "dimension mismatch");
        #[cfg(feature = "parallel")]
        if par_worthwhile(self.nnz()) {
            let tasks = rayon::current_num_threads().min(self.cols);
            let width = self.cols.div_ceil(tasks);
            let blocks: Vec<Vec<f64>> = (0..tasks)
                .into_par_iter()
                .map(|t| self.matvec_t_cols(x, t * width, ((t + 1) * width).min(self.cols)))
                .collect();
            return blocks.concat();
        }
        self.matvec_t_cols(x, 0, self.cols)
    }

    /// Entries `lo..hi` of `Aᵀ x`.
    fn matvec_t_cols(&self, x: &[f64], lo: usize, hi: usize) -> Vec<f64> {
        let mut y = vec![0.0; hi - lo];
        for (i, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            let (idx, vals) = self.row(i);
            let start = idx.partition_point(|&j| (j as usize) < lo);
            for (&j, &v) in idx[start..].iter().zip(&vals[start..]) {
                let j = j as usize;
                if j >= hi {
                    break;
                }
                y[j - lo] += v * xi;
            }
        }
        y
    }

    /// Squared residual norm `‖A x − b‖²`.
    pub fn residual_sq(&self, x: &[f64], b: &[f64]) -> f64 {
        assert_eq!(b.len(), self.rows(), "dimension mismatch");
        sq_dist(&self.matvec(x), b)
    }

    /// Largest eigenvalue of `AᵀA`, by the power iteration of
    /// [`DenseMatrix::gram_spectral_norm`].
    pub fn gram_spectral_norm(&self, iters: usize) -> f64 {
        gram_power_iteration(
            self.rows(),
            self.cols,
            iters,
            |v| self.matvec(v),
            |v| self.matvec_t(v),
        )
    }

    /// Index (flat, row-major, as in [`DenseMatrix::first_non_finite`])
    /// and value of the first non-finite stored entry.
    pub fn first_non_finite(&self) -> Option<(usize, f64)> {
        let k = self.values.iter().position(|v| !v.is_finite())?;
        let i = self.row_ptr.partition_point(|&p| p <= k) - 1;
        Some((i * self.cols + self.col_idx[k] as usize, self.values[k]))
    }

    /// The dense copy, for the solvers that factor or pivot on it.
    pub fn to_dense(&self) -> DenseMatrix {
        let mut a = DenseMatrix::zeros(self.rows(), self.cols);
        for i in 0..self.rows() {
            let (idx, vals) = self.row(i);
            let row = a.row_mut(i);
            for (&j, &v) in idx.iter().zip(vals) {
                row[j as usize] = v;
            }
        }
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matvec_basic() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        assert_eq!(a.matvec(&[1.0, 1.0]), vec![3.0, 7.0, 11.0]);
        assert_eq!(a.matvec_t(&[1.0, 0.0, 1.0]), vec![6.0, 8.0]);
    }

    #[test]
    fn residual_and_norm() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]);
        let r = a.residual(&[2.0, 3.0], &[1.0, 1.0]);
        assert_eq!(r, vec![1.0, 2.0]);
        assert_eq!(a.residual_sq(&[2.0, 3.0], &[1.0, 1.0]), 5.0);
    }

    #[test]
    fn push_row_builds_matrix() {
        let mut m = DenseMatrix::zeros(0, 0);
        m.push_row(&[1.0, 2.0]);
        m.push_row(&[3.0, 4.0]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
        assert_eq!(m[(1, 0)], 3.0);
    }

    #[test]
    fn identity_matvec() {
        let i = DenseMatrix::identity(3);
        assert_eq!(i.matvec(&[1.0, 2.0, 3.0]), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn spd_solve_exact() {
        // M = [[4,1],[1,3]], b = [1,2] → x = [1/11, 7/11]
        let m = DenseMatrix::from_rows(&[vec![4.0, 1.0], vec![1.0, 3.0]]);
        let x = m.solve_spd(&[1.0, 2.0]).unwrap();
        assert!((x[0] - 1.0 / 11.0).abs() < 1e-12);
        assert!((x[1] - 7.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn spd_solve_rejects_indefinite() {
        let m = DenseMatrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        assert_eq!(m.solve_spd(&[1.0, 1.0]), Err(SolverError::NotSpd));
    }

    #[test]
    fn spd_solve_rejects_shape_mismatch() {
        let m = DenseMatrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]);
        assert!(matches!(
            m.solve_spd(&[1.0]),
            Err(SolverError::DimensionMismatch { .. })
        ));
        let rect = DenseMatrix::zeros(2, 3);
        assert!(matches!(
            rect.solve_spd(&[1.0, 1.0]),
            Err(SolverError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn spd_solve_nan_matrix_is_error_not_panic() {
        let m = DenseMatrix::from_rows(&[vec![f64::NAN, 0.0], vec![0.0, 1.0]]);
        assert_eq!(m.solve_spd(&[1.0, 1.0]), Err(SolverError::NotSpd));
    }

    #[test]
    fn spd_solve_larger_system() {
        // Build SPD M = AᵀA + I for a random-ish A and verify M x̂ ≈ b.
        let a = DenseMatrix::from_rows(&[
            vec![1.0, 2.0, 0.5],
            vec![0.0, 1.0, 1.5],
            vec![2.0, 0.0, 1.0],
            vec![1.0, 1.0, 1.0],
        ]);
        let n = a.cols();
        let mut m = DenseMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                let mut s = if i == j { 1.0 } else { 0.0 };
                for k in 0..a.rows() {
                    s += a[(k, i)] * a[(k, j)];
                }
                m[(i, j)] = s;
            }
        }
        let b = vec![1.0, -2.0, 3.0];
        let x = m.solve_spd(&b).unwrap();
        let back = m.matvec(&x);
        for (u, v) in back.iter().zip(&b) {
            assert!((u - v).abs() < 1e-10);
        }
    }

    #[test]
    fn spectral_norm_of_diagonal() {
        let m = DenseMatrix::from_rows(&[vec![3.0, 0.0], vec![0.0, 1.0]]);
        // ‖A‖² = 9 for diag(3,1)
        let s = m.gram_spectral_norm(100);
        assert!((s - 9.0).abs() < 1e-6, "s = {s}");
    }

    #[test]
    fn spectral_norm_upper_bounds_rayleigh() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let s = a.gram_spectral_norm(200);
        // Rayleigh quotient of any unit vector is ≤ s (plus tolerance).
        for v in [[1.0, 0.0], [0.0, 1.0], [0.707, 0.707]] {
            let av = a.matvec(&v);
            let num: f64 = av.iter().map(|x| x * x).sum();
            let den: f64 = v.iter().map(|x| x * x).sum();
            assert!(num / den <= s + 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "buffer size mismatch")]
    fn from_vec_size_mismatch_panics() {
        let _ = DenseMatrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    /// Cross-checks the parallel kernels against hand-rolled serial loops
    /// on a matrix large enough to cross the dispatch threshold. Exact
    /// bitwise equality is required, not an epsilon.
    #[cfg(feature = "parallel")]
    #[test]
    fn parallel_matvecs_bitwise_match_serial() {
        let rows = 300;
        let cols = 200;
        let data: Vec<f64> = (0..rows * cols)
            .map(|k| ((k as f64) * 0.37).sin() / 3.0)
            .collect();
        let a = DenseMatrix::from_vec(rows, cols, data);
        let x: Vec<f64> = (0..cols).map(|j| ((j as f64) * 0.11).cos()).collect();
        // every third entry zero so the zero-skip path is exercised
        let z: Vec<f64> = (0..rows)
            .map(|i| if i % 3 == 0 { 0.0 } else { (i as f64).sqrt() })
            .collect();

        let mut want = vec![0.0; rows];
        for (i, w) in want.iter_mut().enumerate() {
            *w = dot(a.row(i), &x);
        }
        let got = a.matvec(&x);
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.to_bits(), w.to_bits());
        }

        let mut want_t = vec![0.0; cols];
        for (i, &zi) in z.iter().enumerate() {
            if zi == 0.0 {
                continue;
            }
            for (j, &v) in a.row(i).iter().enumerate() {
                want_t[j] += v * zi;
            }
        }
        let got_t = a.matvec_t(&z);
        for (g, w) in got_t.iter().zip(&want_t) {
            assert_eq!(g.to_bits(), w.to_bits());
        }
    }
}
