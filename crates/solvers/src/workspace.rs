//! Per-worker reusable solve memory: the [`SolverWorkspace`].
//!
//! A Monte-Carlo campaign executes the *same shapes* of work thousands
//! of times: one solver machine per (solver, n), one corruptible matrix
//! image per (n, nnz), one checkpoint slot, one TMR shadow pair, one
//! trusted input copy. Allocating those per repetition is pure
//! allocator traffic on the hot path; a `SolverWorkspace` retains them
//! across repetitions and re-initializes them in place:
//!
//! * solver machines are cached per `(SolverKind, n)` and reset through
//!   [`IterativeSolver::reset_zero`] — bit-identical to a fresh
//!   [`SolverKind::start_zero`];
//! * corruptible matrix images come from a per-`(n, nnz)`
//!   [`CsrImagePool`], restored by `copy_from_slice` instead of cloned;
//! * checkpoints live in a double-buffered
//!   [`SnapshotSlot`](ftcg_checkpoint::SnapshotSlot), the pristine
//!   initial state in a retained [`SolverState`], the ABFT shadows in
//!   retained [`TmrVector`]s and [`XRef`]s.
//!
//! ## Reuse contract (why bit-exactness holds)
//!
//! Every reset path is `copy_from_slice`/`fill` plus *exactly* the
//! floating-point operations the corresponding constructor performs, in
//! the same order — no data-dependent branching, no reordered sums. A
//! solve through a reused workspace therefore produces bit-for-bit the
//! `SolveStats`/`ResilientOutcome` of a fresh-allocation solve; the
//! property suite (`snapshot_proptests.rs`) and the allocation gate
//! (`alloc_gate.rs`) pin both halves of the contract.
//!
//! The workspace is deliberately `!Sync`: each worker owns one (see
//! `ftcg-engine`'s `JobWorkspace`), so no locking ever touches the hot
//! path.
//!
//! ## Retention and scope
//!
//! Buffers are retained for the workspace's lifetime with no eviction:
//! peak memory grows with the number of *distinct shape classes* the
//! worker sees (a campaign grid holds a handful — the Table 1 suite has
//! nine), roughly four matrix images per `(n, nnz)` class (the pooled
//! image, the initial state and the two checkpoint buffers). Drop the
//! workspace — or scope one per campaign, as the engine pool does — to
//! release everything. One reuse boundary is deliberate: non-CSR kernel
//! backends (`bcsr`, `sell`) still re-materialize their converted
//! format defensively from the live image inside each solve, because a
//! conversion cached across repetitions could be stale with respect to
//! injected matrix faults; pooling those conversion buffers would need
//! `convert_into`-style APIs on the formats and is future work.

use ftcg_abft::tmr::TmrVector;
use ftcg_abft::XRef;
use ftcg_checkpoint::{SnapshotSlot, SolverState};
use ftcg_fault::FaultEvent;
use ftcg_sparse::{CsrImagePool, CsrMatrix};

use crate::machine::{IterativeSolver, SolverKind};

/// Retained executor-side buffers for one `(n, nnz)` shape class: the
/// pristine initial state, the rolling checkpoint slot, the trusted
/// input copies and the TMR shadows.
#[derive(Debug)]
pub(crate) struct ExecArena {
    /// Pristine initial state (the paper's "read initial data again"
    /// escalation target).
    pub(crate) initial: SolverState,
    /// Rolling verified checkpoint (double-buffered, allocation-free).
    pub(crate) slot: SnapshotSlot,
    /// Trusted copy of the direction vector, re-captured per iteration.
    pub(crate) xref: XRef,
    /// Trusted copy for mid-step products (BiCGStab's second product
    /// captures its reference at call time).
    pub(crate) xref_scratch: XRef,
    /// TMR shadow of the residual (ABFT schemes).
    pub(crate) r_tmr: TmrVector,
    /// TMR shadow of the iterate (ABFT schemes).
    pub(crate) x_tmr: TmrVector,
    /// Product-output faults deferred onto the verified product.
    pub(crate) q_faults: Vec<FaultEvent>,
}

impl ExecArena {
    fn new() -> Self {
        ExecArena {
            initial: SolverState::empty(),
            slot: SnapshotSlot::new(),
            xref: XRef::empty(),
            xref_scratch: XRef::empty(),
            r_tmr: TmrVector::zeros(0),
            x_tmr: TmrVector::zeros(0),
            q_faults: Vec::new(),
        }
    }
}

/// Reusable per-worker solve memory (see the module docs). Create one
/// per worker thread and pass it to
/// [`solve_resilient_in`](crate::resilient::solve_resilient_in) for
/// every repetition it executes.
#[derive(Default)]
pub struct SolverWorkspace {
    machines: Vec<((SolverKind, usize), Box<dyn IterativeSolver>)>,
    images: CsrImagePool,
    arenas: Vec<((usize, usize), ExecArena)>,
}

impl std::fmt::Debug for SolverWorkspace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolverWorkspace")
            .field(
                "machines",
                &self
                    .machines
                    .iter()
                    .map(|((k, n), _)| (*k, *n))
                    .collect::<Vec<_>>(),
            )
            .field("pooled_images", &self.images.len())
            .field("arenas", &self.arenas.len())
            .finish()
    }
}

impl SolverWorkspace {
    /// An empty workspace; buffers are retained as shapes are seen.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of retained solver machines (distinct `(solver, n)`).
    pub fn retained_machines(&self) -> usize {
        self.machines.len()
    }

    /// Number of pooled matrix-image shape classes (distinct `(n, nnz)`).
    pub fn pooled_images(&self) -> usize {
        self.images.len()
    }

    /// Checks out everything one resilient solve needs: a machine reset
    /// to the zero-start state over `(a0, b)` (bit-identical to a fresh
    /// [`SolverKind::start_zero`]), a corruptible image holding a
    /// bit-exact copy of `a0`, and the retained executor arena for this
    /// shape class.
    pub(crate) fn checkout(
        &mut self,
        kind: SolverKind,
        a0: &CsrMatrix,
        b: &[f64],
    ) -> (&mut dyn IterativeSolver, &mut CsrMatrix, &mut ExecArena) {
        let mkey = (kind, a0.n_rows());
        let mi = match self.machines.iter().position(|(k, _)| *k == mkey) {
            Some(i) => {
                self.machines[i].1.reset_zero(a0, b);
                i
            }
            None => {
                self.machines.push((mkey, kind.start_zero(a0, b)));
                self.machines.len() - 1
            }
        };
        let akey = (a0.n_rows(), a0.nnz());
        let ai = match self.arenas.iter().position(|(k, _)| *k == akey) {
            Some(i) => i,
            None => {
                self.arenas.push((akey, ExecArena::new()));
                self.arenas.len() - 1
            }
        };
        (
            self.machines[mi].1.as_mut(),
            self.images.checkout(a0),
            &mut self.arenas[ai].1,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::CanonVec;
    use ftcg_sparse::gen;

    #[test]
    fn checkout_resets_bit_identically_to_start_zero() {
        let a = gen::random_spd(40, 0.08, 11).unwrap();
        let b: Vec<f64> = (0..40).map(|i| 1.0 + (i as f64 * 0.3).sin()).collect();
        let b2: Vec<f64> = (0..40).map(|i| (i as f64 * 0.7).cos()).collect();
        let mut ws = SolverWorkspace::new();
        for kind in SolverKind::ALL {
            // Dirty the retained machine with a different rhs first.
            ws.checkout(kind, &a, &b2);
            let (m, image, _) = ws.checkout(kind, &a, &b);
            let fresh = kind.start_zero(&a, &b);
            for which in [
                CanonVec::Iterate,
                CanonVec::Residual,
                CanonVec::Direction,
                CanonVec::Product,
            ] {
                let got = m.vector(which);
                let want = fresh.vector(which);
                assert_eq!(got.len(), want.len());
                for i in 0..got.len() {
                    assert_eq!(
                        got[i].to_bits(),
                        want[i].to_bits(),
                        "{kind}: {which:?}[{i}] differs after reset"
                    );
                }
            }
            assert_eq!(
                m.residual_norm().to_bits(),
                fresh.residual_norm().to_bits(),
                "{kind}: residual norm differs after reset"
            );
            assert_eq!(*image, a);
        }
        assert_eq!(ws.retained_machines(), 4);
        assert_eq!(ws.pooled_images(), 1);
    }

    #[test]
    fn machines_are_retained_per_kind_and_size() {
        let a1 = gen::tridiagonal(20, 4.0, -1.0).unwrap();
        let a2 = gen::tridiagonal(30, 4.0, -1.0).unwrap();
        let b1 = vec![1.0; 20];
        let b2 = vec![1.0; 30];
        let mut ws = SolverWorkspace::new();
        ws.checkout(SolverKind::Cg, &a1, &b1);
        ws.checkout(SolverKind::Cg, &a1, &b1);
        ws.checkout(SolverKind::Cg, &a2, &b2);
        ws.checkout(SolverKind::Pcg, &a1, &b1);
        assert_eq!(ws.retained_machines(), 3); // (cg,20), (cg,30), (pcg,20)
        assert_eq!(ws.pooled_images(), 2); // two (n, nnz) classes
    }
}
