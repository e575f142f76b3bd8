//! The built-in backends and their prepared forms.

use ftcg_sparse::parallel::{partition_rows_balanced, spmv_parallel, RowBlock};
use ftcg_sparse::{BcsrMatrix, CsrMatrix, MultiVec, SellCSigma};

use crate::kernel::{PreparedSpmv, SpmvKernel};
use crate::spec::KernelSpec;
use crate::KernelError;

/// Resolves a thread-count request: 0 means all available cores.
pub(crate) fn effective_threads(requested: usize) -> usize {
    if requested != 0 {
        return requested;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

// ---------------------------------------------------------------- csr

/// The serial CSR reference kernel (bit-for-bit today's behavior).
#[derive(Debug, Clone, Copy, Default)]
pub struct CsrSerial;

/// A CSR matrix prepared for serial products (a borrow — CSR needs no
/// conversion).
pub struct PreparedCsr<'a>(pub &'a CsrMatrix);

impl SpmvKernel for CsrSerial {
    fn name(&self) -> String {
        "csr".into()
    }

    fn description(&self) -> String {
        "serial CSR (reference; bit-for-bit the historical kernel)".into()
    }

    fn prepare<'a>(&self, a: &'a CsrMatrix) -> Result<Box<dyn PreparedSpmv + 'a>, KernelError> {
        Ok(Box::new(PreparedCsr(a)))
    }
}

impl PreparedSpmv for PreparedCsr<'_> {
    fn spmv_into(&self, x: &[f64], y: &mut [f64]) {
        self.0.spmv_into(x, y);
    }

    fn spmm_into(&self, x: &MultiVec, y: &mut MultiVec) {
        self.0.spmm_into(x, y);
    }

    // CSR finalizes rows in ascending order, so the probe fuses into
    // the product traversal (one pass instead of the two-pass default).
    fn spmv_with_probe_into(&self, x: &[f64], y: &mut [f64]) -> [f64; 2] {
        self.0.spmv_with_probe_into(x, y)
    }

    fn backend(&self) -> String {
        "csr".into()
    }

    fn n_rows(&self) -> usize {
        self.0.n_rows()
    }

    fn n_cols(&self) -> usize {
        self.0.n_cols()
    }
}

// ------------------------------------------------------------ csr-par

/// Row-partitioned parallel CSR over crossbeam scoped threads, reusing
/// `partition_rows_balanced` for nnz-balanced blocks.
#[derive(Debug, Clone, Copy, Default)]
pub struct CsrParallel {
    /// Worker threads; 0 = all available cores.
    pub threads: usize,
}

/// A CSR matrix with a precomputed balanced row partition.
pub struct PreparedCsrPar<'a> {
    a: &'a CsrMatrix,
    blocks: Vec<RowBlock>,
}

impl SpmvKernel for CsrParallel {
    fn name(&self) -> String {
        KernelSpec::CsrPar {
            threads: self.threads,
        }
        .label()
    }

    fn description(&self) -> String {
        format!(
            "row-partitioned parallel CSR ({} threads, nnz-balanced blocks)",
            if self.threads == 0 {
                "all".to_string()
            } else {
                self.threads.to_string()
            }
        )
    }

    fn prepare<'a>(&self, a: &'a CsrMatrix) -> Result<Box<dyn PreparedSpmv + 'a>, KernelError> {
        let blocks = partition_rows_balanced(a, effective_threads(self.threads));
        Ok(Box::new(PreparedCsrPar { a, blocks }))
    }
}

impl PreparedSpmv for PreparedCsrPar<'_> {
    fn spmv_into(&self, x: &[f64], y: &mut [f64]) {
        if self.blocks.is_empty() {
            assert_eq!(y.len(), self.a.n_rows(), "csr-par: y length mismatch");
            return;
        }
        spmv_parallel(self.a, x, y, &self.blocks);
    }

    fn row_blocks(&self) -> Option<&[RowBlock]> {
        Some(&self.blocks)
    }

    fn backend(&self) -> String {
        format!("csr-par:{}", self.blocks.len().max(1))
    }

    fn n_rows(&self) -> usize {
        self.a.n_rows()
    }

    fn n_cols(&self) -> usize {
        self.a.n_cols()
    }
}

// --------------------------------------------------------------- bcsr

/// Blocked CSR with `block × block` register tiles.
#[derive(Debug, Clone, Copy)]
pub struct BcsrKernel {
    /// Block edge length (`1..=4`).
    pub block: usize,
}

impl Default for BcsrKernel {
    fn default() -> Self {
        BcsrKernel { block: 2 }
    }
}

impl SpmvKernel for BcsrKernel {
    fn name(&self) -> String {
        KernelSpec::Bcsr { block: self.block }.label()
    }

    fn description(&self) -> String {
        format!(
            "blocked CSR with {0}x{0} register blocks (zero-padded dense tiles)",
            self.block
        )
    }

    fn prepare<'a>(&self, a: &'a CsrMatrix) -> Result<Box<dyn PreparedSpmv + 'a>, KernelError> {
        let m =
            BcsrMatrix::from_csr(a, self.block).map_err(|e| KernelError::Format(e.to_string()))?;
        Ok(Box::new(m))
    }
}

impl PreparedSpmv for BcsrMatrix {
    fn spmv_into(&self, x: &[f64], y: &mut [f64]) {
        BcsrMatrix::spmv_into(self, x, y);
    }

    fn spmm_into(&self, x: &MultiVec, y: &mut MultiVec) {
        BcsrMatrix::spmm_into(self, x, y);
    }

    fn backend(&self) -> String {
        format!("bcsr:{}", self.block_size())
    }

    fn n_rows(&self) -> usize {
        BcsrMatrix::n_rows(self)
    }

    fn n_cols(&self) -> usize {
        BcsrMatrix::n_cols(self)
    }
}

// --------------------------------------------------------------- sell

/// SELL-C-σ sliced ELLPACK.
#[derive(Debug, Clone, Copy)]
pub struct SellKernel {
    /// Chunk height `C`.
    pub chunk: usize,
    /// Sorting window `σ` (1 disables sorting).
    pub sigma: usize,
}

impl Default for SellKernel {
    fn default() -> Self {
        SellKernel {
            chunk: KernelSpec::DEFAULT_SELL_CHUNK,
            sigma: KernelSpec::DEFAULT_SELL_SIGMA,
        }
    }
}

impl SpmvKernel for SellKernel {
    fn name(&self) -> String {
        KernelSpec::Sell {
            chunk: self.chunk,
            sigma: self.sigma,
        }
        .label()
    }

    fn description(&self) -> String {
        format!(
            "SELL-C-σ sliced ELLPACK (C={}, σ={}; padding-aware, lockstep lanes)",
            self.chunk, self.sigma
        )
    }

    fn prepare<'a>(&self, a: &'a CsrMatrix) -> Result<Box<dyn PreparedSpmv + 'a>, KernelError> {
        let m = SellCSigma::from_csr(a, self.chunk, self.sigma)
            .map_err(|e| KernelError::Format(e.to_string()))?;
        Ok(Box::new(m))
    }
}

impl PreparedSpmv for SellCSigma {
    fn spmv_into(&self, x: &[f64], y: &mut [f64]) {
        SellCSigma::spmv_into(self, x, y);
    }

    fn spmm_into(&self, x: &MultiVec, y: &mut MultiVec) {
        SellCSigma::spmm_into(self, x, y);
    }

    fn backend(&self) -> String {
        format!("sell:{}:{}", self.chunk_size(), self.sigma())
    }

    fn n_rows(&self) -> usize {
        SellCSigma::n_rows(self)
    }

    fn n_cols(&self) -> usize {
        SellCSigma::n_cols(self)
    }
}

// --------------------------------------------------------------- auto

/// Per-matrix backend selection: structural heuristic, optionally
/// sharpened by a one-shot micro-benchmark.
#[derive(Debug, Clone, Copy, Default)]
pub struct AutoKernel {
    /// Run the timing calibration instead of trusting the heuristic
    /// alone. Wall-clock based: the *choice* may differ across machines
    /// (never across runs of a fixed choice), so campaigns reject it.
    pub calibrate: bool,
}

impl SpmvKernel for AutoKernel {
    fn name(&self) -> String {
        KernelSpec::Auto {
            calibrate: self.calibrate,
        }
        .label()
    }

    fn description(&self) -> String {
        if self.calibrate {
            "auto with one-shot micro-benchmark calibration (machine-dependent)".into()
        } else {
            "heuristic per-matrix backend choice (row-nnz profile + block fill)".into()
        }
    }

    fn prepare<'a>(&self, a: &'a CsrMatrix) -> Result<Box<dyn PreparedSpmv + 'a>, KernelError> {
        let spec = KernelSpec::Auto {
            calibrate: self.calibrate,
        }
        .resolve(a);
        spec.prepare(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftcg_sparse::gen;

    fn reference(a: &CsrMatrix, x: &[f64]) -> Vec<f64> {
        a.spmv(x)
    }

    #[test]
    fn every_builtin_matches_reference() {
        let a = gen::random_spd(200, 0.04, 7).unwrap();
        let x: Vec<f64> = (0..200).map(|i| (i as f64 * 0.41).sin() * 2.0).collect();
        let want = reference(&a, &x);
        let kernels: Vec<Box<dyn SpmvKernel>> = vec![
            Box::new(CsrSerial),
            Box::new(CsrParallel { threads: 3 }),
            Box::new(BcsrKernel { block: 2 }),
            Box::new(BcsrKernel { block: 4 }),
            Box::new(SellKernel {
                chunk: 8,
                sigma: 32,
            }),
            Box::new(AutoKernel { calibrate: false }),
        ];
        for k in kernels {
            let p = k.prepare(&a).unwrap();
            assert_eq!(p.n_rows(), 200);
            assert_eq!(p.spmv(&x), want, "kernel {}", k.name());
        }
    }

    #[test]
    fn prepared_backend_labels_are_concrete() {
        let a = gen::poisson2d(20).unwrap();
        let p = AutoKernel { calibrate: false }.prepare(&a).unwrap();
        assert_ne!(p.backend(), "auto");
        let p = CsrSerial.prepare(&a).unwrap();
        assert_eq!(p.backend(), "csr");
    }

    #[test]
    fn every_builtin_spmm_is_bit_identical_to_spmv() {
        let a = gen::random_spd(150, 0.05, 9).unwrap();
        let k = 5usize;
        let mut x = MultiVec::zeros(150, k);
        for c in 0..k {
            for (i, v) in x.col_mut(c).iter_mut().enumerate() {
                *v = ((i + 3 * c) as f64 * 0.29).sin();
            }
        }
        let kernels: Vec<Box<dyn SpmvKernel>> = vec![
            Box::new(CsrSerial),
            Box::new(CsrParallel { threads: 3 }),
            Box::new(BcsrKernel { block: 2 }),
            Box::new(BcsrKernel { block: 4 }),
            Box::new(SellKernel {
                chunk: 8,
                sigma: 32,
            }),
        ];
        for kern in kernels {
            let p = kern.prepare(&a).unwrap();
            let mut y = MultiVec::zeros(150, k);
            p.spmm_into(&x, &mut y);
            for c in 0..k {
                let want = p.spmv(x.col(c));
                for (i, w) in want.iter().enumerate() {
                    assert_eq!(
                        y.col(c)[i].to_bits(),
                        w.to_bits(),
                        "kernel {} col {c} row {i}",
                        kern.name()
                    );
                }
            }
        }
    }

    #[test]
    fn every_builtin_probe_is_bit_identical_to_separate_sweeps() {
        let a = gen::random_spd(150, 0.05, 9).unwrap();
        let x: Vec<f64> = (0..150).map(|i| (i as f64 * 0.31).sin() * 2.0).collect();
        let kernels: Vec<Box<dyn SpmvKernel>> = vec![
            Box::new(CsrSerial),
            Box::new(CsrParallel { threads: 3 }),
            Box::new(BcsrKernel { block: 2 }),
            Box::new(SellKernel {
                chunk: 8,
                sigma: 32,
            }),
        ];
        for kern in kernels {
            let p = kern.prepare(&a).unwrap();
            // Single-vector probe vs spmv_into + probe_of.
            let mut y_ref = vec![0.0; 150];
            p.spmv_into(&x, &mut y_ref);
            let want = ftcg_sparse::fused::probe_of(&y_ref);
            let mut y = vec![0.0; 150];
            let probe = p.spmv_with_probe_into(&x, &mut y);
            for i in 0..150 {
                assert_eq!(
                    y[i].to_bits(),
                    y_ref[i].to_bits(),
                    "{} row {i}",
                    kern.name()
                );
            }
            assert_eq!(probe[0].to_bits(), want[0].to_bits(), "{}", kern.name());
            assert_eq!(probe[1].to_bits(), want[1].to_bits(), "{}", kern.name());
        }
    }

    #[test]
    fn csr_par_exposes_cached_row_blocks() {
        let a = gen::poisson2d(12).unwrap();
        let p = CsrParallel { threads: 3 }.prepare(&a).unwrap();
        let blocks = p.row_blocks().expect("csr-par caches its partition");
        assert_eq!(blocks, &partition_rows_balanced(&a, 3)[..]);
        // Serial backends have no partition to share.
        assert!(CsrSerial.prepare(&a).unwrap().row_blocks().is_none());
    }

    #[test]
    fn csr_par_empty_matrix() {
        let a = CsrMatrix::new(0, 0, vec![0], vec![], vec![]).unwrap();
        let p = CsrParallel { threads: 4 }.prepare(&a).unwrap();
        let mut y = vec![];
        p.spmv_into(&[], &mut y);
    }
}
