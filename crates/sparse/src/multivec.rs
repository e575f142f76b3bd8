//! [`MultiVec`] — a column-major block of `k` right-hand-side vectors.
//!
//! The batched (multi-RHS) product `Y ← A·X` amortizes one traversal of
//! the matrix across `k` independent vectors: the dominant cost of a
//! sparse product is streaming the matrix arrays, so `k` solves sharing
//! one traversal approach `k×` the arithmetic for the same memory
//! traffic.
//!
//! ## Determinism contract
//!
//! Every multi-RHS product over a `MultiVec` ([`crate::CsrMatrix::spmm_into`]
//! and the SELL/BCSR equivalents) computes **each column
//! independently, as the exact floating-point sum the corresponding
//! single-vector `spmv_into` computes** — same entries, same order, bit
//! for bit. Fusing the traversal reorders only *memory accesses*, never
//! the per-output accumulation chain.

/// A dense `n × k` block of `k` column vectors, stored column-major
/// (`data[c*n + i]` is element `i` of column `c`), so each column is a
/// contiguous `&[f64]` interchangeable with a plain vector.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MultiVec {
    n: usize,
    k: usize,
    data: Vec<f64>,
}

impl MultiVec {
    /// An `n × k` block of zeros.
    pub fn zeros(n: usize, k: usize) -> MultiVec {
        MultiVec {
            n,
            k,
            data: vec![0.0; n * k],
        }
    }

    /// Reshapes in place to `n × k`, reusing the allocation when
    /// capacity suffices (no allocation once grown to the high-water
    /// mark). Existing contents are **unspecified** after a reshape;
    /// callers overwrite every column they read.
    pub fn reshape(&mut self, n: usize, k: usize) {
        self.data.resize(n * k, 0.0);
        self.n = n;
        self.k = k;
    }

    /// Rows per column.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of columns.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Column `c` as a contiguous slice.
    ///
    /// # Panics
    /// Panics if `c >= k`.
    #[inline]
    pub fn col(&self, c: usize) -> &[f64] {
        assert!(c < self.k, "column {c} out of range (k = {})", self.k);
        &self.data[c * self.n..(c + 1) * self.n]
    }

    /// Column `c` as a mutable contiguous slice.
    ///
    /// # Panics
    /// Panics if `c >= k`.
    #[inline]
    pub fn col_mut(&mut self, c: usize) -> &mut [f64] {
        assert!(c < self.k, "column {c} out of range (k = {})", self.k);
        &mut self.data[c * self.n..(c + 1) * self.n]
    }

    /// The raw column-major storage (`n * k` values).
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// The raw column-major storage, mutable.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn columns_are_contiguous_and_disjoint() {
        let mut m = MultiVec::zeros(3, 2);
        m.col_mut(0).copy_from_slice(&[1.0, 2.0, 3.0]);
        m.col_mut(1).copy_from_slice(&[4.0, 5.0, 6.0]);
        assert_eq!(m.col(0), &[1.0, 2.0, 3.0]);
        assert_eq!(m.col(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.data(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn reshape_reuses_capacity() {
        let mut m = MultiVec::zeros(100, 8);
        let cap = m.data.capacity();
        m.reshape(100, 3);
        m.reshape(100, 8);
        assert_eq!(m.data.capacity(), cap);
        assert_eq!((m.n(), m.k()), (100, 8));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn col_out_of_range_panics() {
        let m = MultiVec::zeros(4, 2);
        let _ = m.col(2);
    }
}
