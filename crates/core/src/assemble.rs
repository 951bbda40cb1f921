//! Design-matrix assembly shared by the estimators.
//!
//! Every estimator's phase 2 builds a design matrix with one row per
//! training query (Equations 7 and 8). A query overlaps a minority of the
//! buckets, so each row is compressed into the CSR [`SparseMatrix`] as
//! soon as it is built: the dense `queries × cols` matrix never exists.
//! Rows are mutually independent — row `i` is a pure function of query `i`
//! and the (fixed) bucket layout — so with the `parallel` feature
//! contiguous blocks of queries are assembled concurrently and appended in
//! query order. The same row-builder closure and the same compression run
//! in both paths, so the assembled matrix is bitwise identical either way.

use crate::estimator::TrainingQuery;
use selearn_solver::SparseMatrix;

#[cfg(feature = "parallel")]
use rayon::prelude::*;

/// Entry count below which parallel assembly is skipped: a scoped thread
/// spawn costs more than a handful of cheap rows.
#[cfg(feature = "parallel")]
const PAR_ENTRY_THRESHOLD: usize = 2_048;

/// Builds the `queries.len() × cols` design matrix, one `build_row` call
/// per training query. `build_row` must return a row of exactly `cols`
/// entries and must be a pure function of its query (it runs concurrently
/// under the `parallel` feature).
///
/// Counts `design_matrix_entries` (`rows × cols`) and
/// `design_matrix_nonzeros` (stored entries).
///
/// # Panics
/// Panics if a row has the wrong length.
pub fn assemble_design_matrix<F>(
    queries: &[TrainingQuery],
    cols: usize,
    build_row: F,
) -> SparseMatrix
where
    F: Fn(&TrainingQuery) -> Vec<f64> + Sync,
{
    let _span = selearn_obs::span!("assemble");
    selearn_obs::counter_add("design_matrix_entries", (queries.len() * cols) as u64);
    let assemble = |block: &[TrainingQuery]| {
        let mut a = SparseMatrix::new(cols);
        for q in block {
            a.push_row(&build_row(q));
        }
        a
    };
    #[cfg(feature = "parallel")]
    let a = if queries.len() * cols >= PAR_ENTRY_THRESHOLD && rayon::current_num_threads() > 1 {
        let block = queries.len().div_ceil(rayon::current_num_threads());
        let blocks: Vec<&[TrainingQuery]> = queries.chunks(block).collect();
        let parts: Vec<SparseMatrix> = blocks.par_iter().map(|b| assemble(b)).collect();
        let mut a = SparseMatrix::new(cols);
        for part in &parts {
            a.append(part);
        }
        a
    } else {
        assemble(queries)
    };
    #[cfg(not(feature = "parallel"))]
    let a = assemble(queries);
    selearn_obs::counter_add("design_matrix_nonzeros", a.nnz() as u64);
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use selearn_geom::Rect;

    fn queries(n: usize) -> Vec<TrainingQuery> {
        (0..n)
            .map(|i| TrainingQuery::new(Rect::unit(2), i as f64 / n as f64))
            .collect()
    }

    #[test]
    fn assembles_rows_in_query_order() {
        let qs = queries(50);
        let a = assemble_design_matrix(&qs, 3, |q| vec![q.selectivity, 2.0 * q.selectivity, 1.0])
            .to_dense();
        assert_eq!(a.rows(), 50);
        assert_eq!(a.cols(), 3);
        for (i, q) in qs.iter().enumerate() {
            assert_eq!(a[(i, 0)], q.selectivity);
            assert_eq!(a[(i, 1)], 2.0 * q.selectivity);
        }
    }

    #[test]
    fn zero_entries_are_not_stored() {
        let qs = queries(4);
        let a = assemble_design_matrix(&qs, 3, |q| vec![0.0, q.selectivity, 0.0]);
        // query 0 has selectivity 0: an empty row
        assert_eq!(a.nnz(), 3);
        assert_eq!(a.row(0).0.len(), 0);
        assert_eq!(a.row(1), (&[1u32][..], &[0.25][..]));
    }

    #[test]
    fn empty_workload_yields_empty_matrix() {
        let a = assemble_design_matrix(&[], 4, |_| vec![0.0; 4]);
        assert_eq!(a.rows(), 0);
        assert_eq!(a.cols(), 4);
    }

    /// Crosses the parallel dispatch threshold and demands bitwise equality
    /// with a hand-rolled serial assembly.
    #[cfg(feature = "parallel")]
    #[test]
    fn parallel_assembly_matches_serial_bitwise() {
        let qs = queries(600);
        let build = |q: &TrainingQuery| -> Vec<f64> {
            (0..8)
                .map(|j| ((q.selectivity + j as f64) * 0.37).sin().max(0.0))
                .collect()
        };
        let a = assemble_design_matrix(&qs, 8, build);
        let mut want = SparseMatrix::new(8);
        for q in &qs {
            want.push_row(&build(q));
        }
        assert_eq!(a, want);
    }
}
