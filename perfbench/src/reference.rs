//! The host-speed reference that solve time is expressed in.
//!
//! On a shared host the same pass of solves can take anywhere from 1×
//! to 2.6× its fastest time as other tenants load the machine, over
//! seconds and over minutes, so wall-clock throughput compared across
//! runs mostly measures the neighbours. The benchmark therefore times,
//! between the passes (or solves) of a run, a fixed CG-shaped iteration
//! of its own (SpMV, a dot product, an update, a norm) on the
//! workload's matrices, read in place, on as many threads as the
//! workload uses, and reports solve time in units of that iteration,
//! each side a median over the run. The reference meets the same
//! clock, cache and memory contention as the workload but runs none of
//! the program's code, so a change to the program moves the figure and
//! a change of host speed largely cancels out of it.

use std::hint::black_box;
use std::time::Instant;

use ftcg_sparse::CsrMatrix;

use crate::workload::LabelledMatrix;

/// Wall time one reference sample aims at.
const SAMPLE_S: f64 = 0.25;

/// One thread's `y` and `z` vectors for every matrix.
type Buffers = Vec<(Vec<f64>, Vec<f64>)>;

/// The reference iteration on a workload's matrices, with each
/// thread's work vectors and the iteration count of one sample.
pub struct Reference {
    mats: Vec<LabelledMatrix>,
    buffers: Vec<Buffers>,
    iters: usize,
}

impl Reference {
    /// Sizes a sample on `mats` to about 0.25 s.
    pub fn new(mats: Vec<LabelledMatrix>, threads: usize) -> Reference {
        let buffers = (0..threads.max(1))
            .map(|_| {
                mats.iter()
                    .map(|(_, a, _)| (vec![0.0; a.n_rows()], vec![0.0; a.n_rows()]))
                    .collect()
            })
            .collect();
        let mut r = Reference {
            mats,
            buffers,
            iters: 1,
        };
        // The first call warms the caches; the second sizes samples.
        r.sample();
        let one = r.sample().max(1e-9) * r.mats.len().max(1) as f64;
        r.iters = (SAMPLE_S / one).ceil().clamp(1.0, 1e6) as usize;
        r
    }

    /// Seconds one reference iteration takes now on one core, with
    /// every thread running it at once: each thread times its own
    /// iterations and the threads' times are averaged, so one core
    /// stalled for a moment counts for its share rather than for all.
    pub fn sample(&mut self) -> f64 {
        let (mats, iters) = (&self.mats, self.iters);
        let total: f64 = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .buffers
                .iter_mut()
                .map(|bufs| {
                    s.spawn(move || {
                        let t0 = Instant::now();
                        for _ in 0..iters {
                            for ((_, a, b), (y, z)) in mats.iter().zip(bufs.iter_mut()) {
                                black_box(iteration(a, b, y, z));
                            }
                        }
                        t0.elapsed().as_secs_f64()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or(f64::NAN))
                .sum()
        });
        total / (self.buffers.len() * iters * mats.len().max(1)) as f64
    }
}

/// `y ← A·x`, `s ← x·y`, `z ← z/2 + y/|s|`, `‖z‖²`: the sweeps of a CG
/// iteration, on fixed data so every call does the same work and no
/// value drifts towards overflow or subnormals.
fn iteration(a: &CsrMatrix, x: &[f64], y: &mut [f64], z: &mut [f64]) -> f64 {
    let x = black_box(x);
    let (rowptr, colid, val) = (a.rowptr(), a.colid(), a.val());
    for (i, yi) in y.iter_mut().enumerate() {
        let mut acc = 0.0;
        for k in rowptr[i]..rowptr[i + 1] {
            acc += val[k] * x[colid[k]];
        }
        *yi = acc;
    }
    let s: f64 = x.iter().zip(y.iter()).map(|(a, b)| a * b).sum();
    let scale = 1.0 / s.abs().max(f64::MIN_POSITIVE);
    for (zi, yi) in z.iter_mut().zip(y.iter()) {
        *zi = 0.5 * *zi + scale * yi;
    }
    z.iter().map(|v| v * v).sum()
}
