//! Per-layer microbenchmarks on a workload's own matrices, and the
//! STREAM-triad bandwidth reference they are compared with.
//!
//! Every figure is a median over batches of repeated calls into a
//! crate's public functions, taken after a warm-up call, so a single
//! descheduled batch does not move it.

use std::hint::black_box;
use std::time::Instant;

use ftcg_abft::{SingleChecksum, TmrVector, XRef};
use ftcg_checkpoint::{SnapshotSlot, SolverState};
use ftcg_kernels::{DefensiveProduct, KernelSpec};
use ftcg_solvers::resilient::{AbftCorrection, AbftDetection, OnlineDetection};
use ftcg_sparse::fused::probe_of;
use ftcg_sparse::MultiVec;

use crate::arith::{median, spmv_bytes, triad_bytes};
use crate::workload::LabelledMatrix;

/// Lane width of `mc_batched` (`batch = auto` with 8 repetitions on 2
/// workers), at which the fused multi-RHS product is measured.
pub const SPMM_WIDTH: usize = 8;

const BATCHES: usize = 5;
const BATCH_NS: f64 = 15e6;

/// Median seconds per call of `f`: one warm-up call sizes the batches
/// to about 15 ms each.
fn per_call_s(mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    f();
    let one = t0.elapsed().as_nanos().max(1) as f64;
    let reps = (BATCH_NS / one).ceil().clamp(1.0, 1e6) as usize;
    let mut samples = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let t = Instant::now();
        for _ in 0..reps {
            f();
        }
        samples.push(t.elapsed().as_secs_f64() / reps as f64);
    }
    median(&samples)
}

/// Layer figures summed (times) or pooled (rates) over a workload's
/// distinct matrices.
#[derive(Debug, Default, Clone)]
pub struct LayerFigures {
    pub spmv_ns_per_nnz: f64,
    pub defensive_ns_per_nnz: f64,
    pub spmv_gbps_computed: f64,
    pub spmm_ns_per_nnz_col: f64,
    pub checksum_build_ms: f64,
    pub verify_ns_per_row: f64,
    pub tmr_vote_ns_per_row: f64,
    pub checkpoint_save_us: f64,
    pub checkpoint_restore_us: f64,
}

/// Measures every layer figure on `mats` (matrix, right-hand side).
pub fn measure(mats: &[LabelledMatrix]) -> LayerFigures {
    let (mut nnz, mut rows) = (0f64, 0f64);
    let (mut t_spmv, mut t_def, mut t_spmm, mut bytes) = (0f64, 0f64, 0f64, 0f64);
    let (mut t_build, mut t_verify, mut t_vote) = (0f64, 0f64, 0f64);
    let (mut t_save, mut t_restore) = (0f64, 0f64);
    for (_, a, b) in mats {
        let a = a.as_ref();
        let n = a.n_rows();
        let x = b.as_slice();
        let mut y = vec![0.0; n];
        nnz += a.nnz() as f64;
        rows += n as f64;
        bytes += spmv_bytes(n, a.n_cols(), a.nnz(), std::mem::size_of::<usize>());

        let prepared = KernelSpec::Csr.prepare(a).expect("csr prepares any matrix");
        t_spmv += per_call_s(|| prepared.spmv_into(black_box(x), &mut y));

        let mut def = DefensiveProduct::new(KernelSpec::Csr);
        t_def += per_call_s(|| {
            black_box(def.product_with_probe(a, black_box(x), &mut y));
        });

        let mut xs = MultiVec::zeros(n, SPMM_WIDTH);
        for c in 0..SPMM_WIDTH {
            xs.col_mut(c).copy_from_slice(x);
        }
        let mut ys = MultiVec::zeros(n, SPMM_WIDTH);
        t_spmm += per_call_s(|| prepared.spmm_into(black_box(&xs), &mut ys));

        t_build += per_call_s(|| {
            black_box(AbftCorrection::new(a));
            black_box(AbftDetection::new(a));
            black_box(OnlineDetection::new(a));
        });

        prepared.spmv_into(x, &mut y);
        let probe = probe_of(&y);
        let checksum = SingleChecksum::new(a);
        let xref = XRef::capture(x);
        t_verify += per_call_s(|| {
            black_box(checksum.verify_probed(a, black_box(x), &xref, &probe));
        });

        let mut tmr = TmrVector::new(x);
        t_vote += per_call_s(|| {
            black_box(tmr.vote());
        });

        let state = SolverState::capture(0, x, &y, x, 1.0, a);
        let mut slot = SnapshotSlot::new();
        t_save += per_call_s(|| slot.save(black_box(&state)));
        let mut restored = SolverState::empty();
        t_restore += per_call_s(|| restored.assign_from(black_box(&state)));
    }
    let k = mats.len().max(1) as f64;
    LayerFigures {
        spmv_ns_per_nnz: t_spmv * 1e9 / nnz,
        defensive_ns_per_nnz: t_def * 1e9 / nnz,
        spmv_gbps_computed: bytes / t_spmv / 1e9,
        spmm_ns_per_nnz_col: t_spmm * 1e9 / (nnz * SPMM_WIDTH as f64),
        checksum_build_ms: t_build * 1e3,
        verify_ns_per_row: t_verify * 1e9 / rows,
        tmr_vote_ns_per_row: t_vote * 1e9 / rows,
        checkpoint_save_us: t_save * 1e6 / k,
        checkpoint_restore_us: t_restore * 1e6 / k,
    }
}

/// The last-level cache size in bytes, from sysfs when it is readable.
fn llc_bytes() -> Option<usize> {
    let text = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size").ok()?;
    let t = text.trim();
    let (num, mult) = match t.strip_suffix('K') {
        Some(v) => (v, 1024),
        None => match t.strip_suffix('M') {
            Some(v) => (v, 1024 * 1024),
            None => (t, 1),
        },
    };
    num.parse::<usize>().ok().map(|v| v * mult)
}

/// What the STREAM triad measured.
#[derive(Debug, Clone, Copy)]
pub struct Triad {
    pub llc_bytes: usize,
    pub array_bytes: usize,
    pub gbps: f64,
}

/// Single-thread STREAM triad `a ← b + s·c` (McCalpin), each array at
/// least 4× the last-level cache and never under 420 MiB (4× a 105 MiB
/// L3, assumed when sysfs is unreadable), best of five sweeps as STREAM
/// reports it.
pub fn triad() -> Triad {
    const FALLBACK_LLC: usize = 105 << 20;
    let llc = llc_bytes().unwrap_or(FALLBACK_LLC);
    let n = (4 * llc.max(FALLBACK_LLC)) / 8;
    let mut a = vec![0.0f64; n];
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let s = 3.0;
    // Fault the destination in before timing.
    a.iter_mut().for_each(|v| *v = 0.5);
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t = Instant::now();
        for ((ai, bi), ci) in a.iter_mut().zip(&b).zip(&c) {
            *ai = bi + s * ci;
        }
        black_box(&mut a);
        best = best.min(t.elapsed().as_secs_f64());
    }
    assert!(a[n / 2] == 7.0, "triad produced a wrong value");
    Triad {
        llc_bytes: llc,
        array_bytes: n * 8,
        gbps: triad_bytes(n) / best / 1e9,
    }
}
