//! The kernel abstraction: a two-phase `prepare` / `spmv_into` split.
//!
//! Preparation happens once per matrix (format conversion, partitioning,
//! autotuning) and is assumed to run on *trusted* data; the returned
//! [`PreparedSpmv`] is then invoked once per iteration on the hot path.
//! For products over possibly *corrupted* matrices (the resilient
//! drivers' case) use [`crate::KernelSpec::product_defensive`], which
//! re-materializes the format defensively from the live CSR image.

use ftcg_sparse::parallel::RowBlock;
use ftcg_sparse::{CsrMatrix, MultiVec};

use crate::KernelError;

/// A named SpMV backend that can be selected at runtime through the
/// [`crate::KernelRegistry`].
pub trait SpmvKernel: Send + Sync {
    /// Registry name (also the label used in reports and campaign keys).
    fn name(&self) -> String;

    /// One-line human description for `--kernel list`.
    fn description(&self) -> String;

    /// Converts/partitions `a` into the backend's execution form.
    fn prepare<'a>(&self, a: &'a CsrMatrix) -> Result<Box<dyn PreparedSpmv + 'a>, KernelError>;
}

/// A matrix prepared for repeated products.
pub trait PreparedSpmv: Send + Sync {
    /// `y ← A·x`.
    ///
    /// # Panics
    /// Panics if `x.len() != n_cols` or `y.len() != n_rows`.
    fn spmv_into(&self, x: &[f64], y: &mut [f64]);

    /// Label of the concrete backend executing the products (for `auto`
    /// this is the resolved choice, not `auto`).
    fn backend(&self) -> String;

    /// Number of rows of the prepared matrix.
    fn n_rows(&self) -> usize;

    /// Number of columns of the prepared matrix.
    fn n_cols(&self) -> usize;

    /// Multi-RHS product `Y ← A·X` over a column-major block of `k`
    /// vectors.
    ///
    /// The default runs `k` independent [`PreparedSpmv::spmv_into`]
    /// column loops; format-aware backends (CSR, SELL-C-σ, BCSR)
    /// override it with a fused single-traversal kernel. Either way the
    /// contract is the [`MultiVec`] determinism contract: every output
    /// column is bit-identical to the single-vector product of the
    /// matching input column.
    ///
    /// # Panics
    /// Panics if `x.n() != n_cols`, `y.n() != n_rows`, or the column
    /// counts differ.
    fn spmm_into(&self, x: &MultiVec, y: &mut MultiVec) {
        assert_eq!(x.n(), self.n_cols(), "spmm: x row count mismatch");
        assert_eq!(y.n(), self.n_rows(), "spmm: y row count mismatch");
        assert_eq!(x.k(), y.k(), "spmm: column count mismatch");
        for c in 0..x.k() {
            self.spmv_into(x.col(c), y.col_mut(c));
        }
    }

    /// `y ← A·x` with the ABFT output probe `[Σᵢ yᵢ, Σᵢ (i+1)·yᵢ]`
    /// returned from the same call (see
    /// [`ftcg_sparse::fused::probe_of`] for the exact chain contract).
    ///
    /// The default is the two-pass composition — the backend's product
    /// followed by a separate `probe_of(y)` sweep — which is always
    /// correct. Backends whose traversal finalizes output rows in
    /// ascending index order (serial CSR) override it with a one-pass
    /// kernel that folds each row into the probe as it is written;
    /// permuted-write (SELL-C-σ) and parallel backends keep the
    /// two-pass default. Either way `y` and the probe are bit-identical
    /// to `spmv_into` + `probe_of`.
    ///
    /// # Panics
    /// Panics if `x.len() != n_cols` or `y.len() != n_rows`.
    fn spmv_with_probe_into(&self, x: &[f64], y: &mut [f64]) -> [f64; 2] {
        self.spmv_into(x, y);
        ftcg_sparse::fused::probe_of(y)
    }

    /// The cached balanced row partition, for backends that own one
    /// (the parallel CSR backend computes it once at preparation time).
    /// `None` for serial backends. Callers that want a reusable
    /// partition without re-running the balancing heuristic (see
    /// `ftcg_sparse::parallel::spmv_parallel_auto`'s caveat) read it
    /// from here.
    fn row_blocks(&self) -> Option<&[RowBlock]> {
        None
    }

    /// Allocating convenience wrapper around
    /// [`PreparedSpmv::spmv_into`].
    fn spmv(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.n_rows()];
        self.spmv_into(x, &mut y);
        y
    }
}
