//! Property-based invariants for the weight solvers.
//!
//! These are the contracts the estimation pipeline (Equation 8) leans on:
//! the simplex projection really lands on the simplex and is idempotent,
//! both simplex-constrained least-squares solvers return distributions,
//! isotonic regression returns the monotone mean-preserving projection,
//! the CSR kernels are bitwise equal to the dense ones, and the two-pass
//! FISTA answers like the three-pass dense loop it replaced.

use proptest::prelude::*;
use selearn_solver::{
    fista_simplex_ls, isotonic_regression, nnls_simplex, simplex_projection, DenseMatrix,
    FistaOptions, NnlsOptions, SparseMatrix,
};

const MAX_ROWS: usize = 12;
const MAX_COLS: usize = 8;

/// Builds an `r × c` design matrix from a fixed-size entry pool.
fn matrix_from(entries: &[f64], r: usize, c: usize) -> DenseMatrix {
    DenseMatrix::from_vec(r, c, entries[..r * c].to_vec())
}

/// Matrix entries and vector components with many exact `+0.0` and
/// `-0.0` values, the inputs where a sparse kernel could differ from a
/// dense one in the sign of a zero.
fn signed_zeros_or(range: std::ops::Range<f64>) -> impl Strategy<Value = f64> {
    (0u32..6, range).prop_map(|(kind, v)| match kind {
        0 | 1 => 0.0,
        2 => -0.0,
        _ => v,
    })
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_on_simplex(w: &[f64], cols: usize) -> Result<(), TestCaseError> {
    prop_assert_eq!(w.len(), cols);
    prop_assert!(w.iter().all(|&x| x >= 0.0), "negative weight in {w:?}");
    let total: f64 = w.iter().sum();
    prop_assert!((total - 1.0).abs() < 1e-8, "sum = {total}");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn simplex_projection_is_on_simplex_and_idempotent(
        v in proptest::collection::vec(-20.0f64..20.0, 1..40)
    ) {
        let mut w = v;
        simplex_projection(&mut w);
        prop_assert!(w.iter().all(|&x| x >= 0.0));
        let s: f64 = w.iter().sum();
        prop_assert!((s - 1.0).abs() < 1e-8, "sum = {s}");
        // idempotency: projecting a point already on the simplex is a no-op
        let mut again = w.clone();
        simplex_projection(&mut again);
        for (a, b) in again.iter().zip(&w) {
            prop_assert!((a - b).abs() < 1e-9, "not idempotent: {a} vs {b}");
        }
    }

    #[test]
    fn fista_output_stays_on_simplex(
        entries in proptest::collection::vec(0.0f64..1.0, MAX_ROWS * MAX_COLS),
        s_pool in proptest::collection::vec(0.0f64..1.0, MAX_ROWS),
        r in 1usize..MAX_ROWS,
        c in 1usize..MAX_COLS,
    ) {
        let a = matrix_from(&entries, r, c);
        let a = SparseMatrix::from_dense(&a);
        let out = fista_simplex_ls(&a, &s_pool[..r], &FistaOptions::default()).unwrap();
        assert_on_simplex(&out.weights, c)?;
        prop_assert!(out.loss >= 0.0);
    }

    #[test]
    fn sparse_kernels_are_bitwise_dense_kernels(
        entries in proptest::collection::vec(signed_zeros_or(-1.0..1.0), MAX_ROWS * MAX_COLS),
        x_pool in proptest::collection::vec(signed_zeros_or(-2.0..2.0), MAX_COLS),
        z_pool in proptest::collection::vec(signed_zeros_or(-2.0..2.0), MAX_ROWS),
        b_pool in proptest::collection::vec(signed_zeros_or(-1.0..1.0), MAX_ROWS),
        r in 1usize..MAX_ROWS,
        c in 1usize..MAX_COLS,
        zero_row in 0usize..MAX_ROWS,
        zero_col in 0usize..MAX_COLS,
        negative_zero in 0u32..2,
    ) {
        let mut dense = matrix_from(&entries, r, c);
        let zero = if negative_zero == 1 { -0.0 } else { 0.0 };
        for j in 0..c {
            dense[(zero_row % r, j)] = zero;
        }
        for i in 0..r {
            dense[(i, zero_col % c)] = zero;
        }
        let sparse = SparseMatrix::from_dense(&dense);
        if zero.is_sign_positive() {
            // the +0.0 row and column are not stored
            prop_assert!(sparse.nnz() <= (r - 1) * (c - 1));
        }
        prop_assert_eq!(sparse.to_dense(), dense.clone());
        let (x, z, b) = (&x_pool[..c], &z_pool[..r], &b_pool[..r]);
        prop_assert_eq!(bits(&sparse.matvec(x)), bits(&dense.matvec(x)));
        prop_assert_eq!(bits(&sparse.matvec_t(z)), bits(&dense.matvec_t(z)));
        prop_assert_eq!(
            sparse.residual_sq(x, b).to_bits(),
            dense.residual_sq(x, b).to_bits()
        );
        prop_assert_eq!(
            sparse.gram_spectral_norm(30).to_bits(),
            dense.gram_spectral_norm(30).to_bits()
        );
    }

    #[test]
    fn nnls_simplex_output_stays_on_simplex(
        entries in proptest::collection::vec(0.0f64..1.0, MAX_ROWS * MAX_COLS),
        s_pool in proptest::collection::vec(0.0f64..1.0, MAX_ROWS),
        r in 1usize..MAX_ROWS,
        c in 1usize..MAX_COLS,
    ) {
        let a = matrix_from(&entries, r, c);
        let w = nnls_simplex(&a, &s_pool[..r], &NnlsOptions::default()).unwrap();
        assert_on_simplex(&w, c)?;
    }

    #[test]
    fn isotonic_regression_monotone_and_mean_preserving(
        y in proptest::collection::vec(-10.0f64..10.0, 1..50),
        w_pool in proptest::collection::vec(0.1f64..5.0, 50),
    ) {
        let w = &w_pool[..y.len()];
        let g = isotonic_regression(&y, w).unwrap();
        prop_assert_eq!(g.len(), y.len());
        for pair in g.windows(2) {
            prop_assert!(pair[0] <= pair[1] + 1e-9, "not monotone: {pair:?}");
        }
        // the projection preserves the weighted mean
        let wy: f64 = y.iter().zip(w).map(|(a, b)| a * b).sum();
        let wg: f64 = g.iter().zip(w).map(|(a, b)| a * b).sum();
        prop_assert!((wy - wg).abs() < 1e-8, "weighted mean moved: {wy} vs {wg}");
    }
}

/// The three-pass dense FISTA loop the CSR solver replaced, kept as the
/// oracle: it recomputes `A·y` from scratch every iteration.
fn dense_three_pass_fista(a: &DenseMatrix, s: &[f64], opts: &FistaOptions) -> (Vec<f64>, usize) {
    let m = a.cols();
    let step = 1.0 / (2.0 * a.gram_spectral_norm(opts.power_iters)).max(1e-12);
    let gradient_step = |x: &[f64]| {
        let g = a.matvec_t(&a.residual(x, s));
        let mut next: Vec<f64> = x
            .iter()
            .zip(&g)
            .map(|(&xi, &gi)| xi - 2.0 * step * gi)
            .collect();
        simplex_projection(&mut next);
        next
    };
    let mut w = vec![1.0 / m as f64; m];
    let mut y = w.clone();
    let mut t = 1.0f64;
    let mut loss_prev = a.residual_sq(&w, s);
    let mut iters = 0;
    for k in 0..opts.max_iters {
        iters = k + 1;
        let w_next = gradient_step(&y);
        let loss = a.residual_sq(&w_next, s);
        if loss > loss_prev {
            t = 1.0;
            y = w.clone();
            let w_pg = gradient_step(&w);
            let loss_pg = a.residual_sq(&w_pg, s);
            if loss_pg <= loss_prev {
                w = w_pg;
                y = w.clone();
                if loss_prev - loss_pg < opts.rel_tol * (loss_prev + 1e-12) {
                    break;
                }
                loss_prev = loss_pg;
            }
            continue;
        }
        let t_next = 0.5 * (1.0 + (1.0 + 4.0 * t * t).sqrt());
        let beta = (t - 1.0) / t_next;
        y = w_next
            .iter()
            .zip(&w)
            .map(|(&wn, &wo)| wn + beta * (wn - wo))
            .collect();
        let improved = loss_prev - loss;
        w = w_next;
        t = t_next;
        if improved >= 0.0 && improved < opts.rel_tol * (loss_prev + 1e-12) {
            break;
        }
        loss_prev = loss;
    }
    (w, iters)
}

/// A design matrix the size and sparsity of the paper's Fig. 12 QuadHist
/// fit (1000 queries × 1122 buckets, about a third nonzero): random boxes
/// over a 34 × 33 grid of cells, entry = overlapped fraction of the cell,
/// labels from a skewed ground-truth distribution plus noise.
fn fig12_sized_fixture() -> (DenseMatrix, Vec<f64>) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let (gx, gy) = (34usize, 33usize);
    let mut rng = StdRng::seed_from_u64(12);
    let truth: Vec<f64> = {
        let raw: Vec<f64> = (0..gx * gy).map(|_| rng.gen::<f64>().powi(4)).collect();
        let total: f64 = raw.iter().sum();
        raw.iter().map(|v| v / total).collect()
    };
    let overlap = |lo: f64, hi: f64, k: usize, n: usize| {
        let (cl, ch) = (k as f64 / n as f64, (k + 1) as f64 / n as f64);
        ((hi.min(ch) - lo.max(cl)).max(0.0)) * n as f64
    };
    let mut a = DenseMatrix::zeros(0, 0);
    let mut s = Vec::new();
    for _ in 0..1000 {
        let (wx, wy) = (rng.gen_range(0.2..1.0), rng.gen_range(0.2..1.0));
        let (x0, y0) = (rng.gen_range(0.0..1.0 - wx), rng.gen_range(0.0..1.0 - wy));
        let row: Vec<f64> = (0..gx * gy)
            .map(|c| overlap(x0, x0 + wx, c % gx, gx) * overlap(y0, y0 + wy, c / gx, gy))
            .collect();
        let exact: f64 = row.iter().zip(&truth).map(|(a, w)| a * w).sum();
        s.push((exact + rng.gen_range(-0.01..0.01)).max(0.0));
        a.push_row(&row);
    }
    (a, s)
}

#[test]
fn two_pass_fista_matches_dense_three_pass_oracle() {
    let (dense, s) = fig12_sized_fixture();
    let sparse = SparseMatrix::from_dense(&dense);
    let density = sparse.nnz() as f64 / (dense.rows() * dense.cols()) as f64;
    assert!((0.2..0.5).contains(&density), "density {density}");

    let opts = FistaOptions::default();
    let got = fista_simplex_ls(&sparse, &s, &opts).unwrap();
    let (want, want_iters) = dense_three_pass_fista(&dense, &s, &opts);
    assert_eq!(got.iters, want_iters);
    let max_diff = got
        .weights
        .iter()
        .zip(&want)
        .map(|(g, w)| (g - w).abs())
        .fold(0.0f64, f64::max);
    assert!(max_diff <= 1e-12, "max |Δw| = {max_diff:e}");
}
