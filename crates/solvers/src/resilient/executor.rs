//! The scheme-generic resilient executor.
//!
//! One loop implements the paper's protocol for *any*
//! [`IterativeSolver`] × [`VerificationScheme`] combination: work
//! proceeds in chunks ending with a verification; after `s` verified
//! chunks a checkpoint is taken (so the last checkpoint is always
//! valid — claim C1); any detection rolls back to the last checkpoint
//! (or, when the escalation guard flags a tainted checkpoint, to the
//! pristine initial data). For CG this reproduces the historical
//! per-scheme drivers operation for operation; for PCG, BiCGStab and
//! CGNE it is what makes resilient variants exist at all.
//!
//! Per iteration:
//!
//! 1. this iteration's faults strike the unreliable region — the matrix
//!    arrays and the canonical vectors (under the ABFT schemes `r`/`x`
//!    replicas are TMR-held and product-output faults are deferred onto
//!    the verified product's output);
//! 2. the solver steps once; every forward product runs *defensively*
//!    against the live matrix image and is checked by the scheme
//!    ([`VerificationScheme::check_product`] — checksum tests, forward
//!    correction);
//! 3. a rejected product or a numerical breakdown rolls back;
//! 4. under the ABFT schemes the TMR replicas are voted (collisions
//!    roll back, outvoted flips are counted as corrections);
//! 5. at chunk boundaries the scheme verifies the whole state
//!    ([`VerificationScheme::verify_chunk`]); convergence is only
//!    accepted behind a passing verification, and checkpoints are only
//!    taken behind one.
//!
//! ## Memory discipline
//!
//! The executor owns **no** solve-scoped heap state: the solver machine,
//! the corruptible matrix image and the retained buffers (checkpoint
//! slot, pristine initial state, TMR shadows, trusted input copies, the
//! deferred-fault list) all come from the caller's
//! [`SolverWorkspace`](crate::SolverWorkspace) arena. Checkpoints are
//! [`IterativeSolver::snapshot_into`] a double-buffered
//! [`SnapshotSlot`](ftcg_checkpoint::SnapshotSlot); rollback restores
//! the matrix image in place with [`CsrMatrix::copy_image_from`]
//! (fault injection flips bits, it never changes array lengths). A
//! steady-state iteration — no checkpoint, no rollback, no fault —
//! performs zero heap allocations (pinned by the counting-allocator
//! gate in `tests/alloc_gate.rs`).

use ftcg_abft::XRef;
use ftcg_fault::ledger::{FaultLedger, FaultOutcome};
use ftcg_fault::target::{FaultTarget, VectorId};
use ftcg_fault::{FaultEvent, Injector};
use ftcg_kernels::DefensiveProduct;
use ftcg_sparse::{vector, CsrMatrix};
use ftcg_telemetry::event::{target as ev_target, via as ev_via};
use ftcg_telemetry::{Event, Phase, Recorder};

use super::scheme::{ProductCheck, VerificationScheme};
use super::{true_residual, EscalationGuard, ResilientConfig, ResilientOutcome, RunStats, SimTime};
use crate::machine::{CanonVec, IterativeSolver, ProductStatus, StepContext, StepResult};
use crate::workspace::ExecArena;

/// Flips one bit of a value in place.
#[inline]
fn flip(v: &mut f64, bit: u32) {
    *v = f64::from_bits(v.to_bits() ^ (1u64 << bit));
}

/// Maps the injector's fault target onto the telemetry trace's stable
/// target codes.
fn fault_code(target: &FaultTarget) -> u64 {
    match target {
        FaultTarget::MatrixVal => ev_target::A_VALUES,
        FaultTarget::MatrixColid => ev_target::A_COL_IDX,
        FaultTarget::MatrixRowidx => ev_target::A_ROW_PTR,
        FaultTarget::Vector(VectorId::P) => ev_target::P,
        FaultTarget::Vector(VectorId::Q) => ev_target::Q,
        FaultTarget::Vector(VectorId::R) => ev_target::R,
        FaultTarget::Vector(VectorId::X) => ev_target::X,
    }
}

/// The resilient [`StepContext`]: products run defensively against the
/// live (corruptible) matrix image; the scheme verifies each one. The
/// iteration's first product carries the pre-captured input reference
/// and receives the deferred product-output faults; later products
/// (BiCGStab's second) capture their reference at call time — their
/// inputs were computed in-step from already verified data, after this
/// iteration's faults struck — into the retained scratch reference.
struct ResilientCtx<'a, V: VerificationScheme, R: Recorder> {
    a: &'a mut CsrMatrix,
    kernel: &'a mut DefensiveProduct,
    scheme: &'a V,
    /// Trusted input copy for the iteration's first product (ABFT
    /// schemes only).
    xref: Option<&'a XRef>,
    /// Set when a non-clean product check may have rewritten the matrix
    /// arrays (indices included) — ABFT-CORRECTION's repair attempt —
    /// so rollback must restore the full image, not just the values.
    /// Pure detection checks never mutate and leave the flag alone.
    structure_dirty: &'a mut bool,
    /// Retained buffer for call-time captures of later products.
    xref_scratch: &'a mut XRef,
    /// Product-output faults deferred onto the first product.
    q_faults: &'a [FaultEvent],
    stats: &'a mut RunStats,
    ledger: &'a mut FaultLedger,
    first: bool,
    /// Forward products this step actually executed (the `Tverif`
    /// multiplier — a half-step exit or an early breakdown runs fewer
    /// than the solver's nominal count).
    products_run: usize,
    rec: &'a mut R,
}

impl<V: VerificationScheme, R: Recorder> StepContext for ResilientCtx<'_, V, R> {
    fn product(&mut self, x: &mut [f64], y: &mut [f64]) -> ProductStatus {
        self.products_run += 1;
        let first = std::mem::replace(&mut self.first, false);
        let hardened = self.scheme.hardened_vectors();
        // Deferred product-output faults rewrite `y` *after* the
        // kernel, invalidating any probe accumulated alongside it —
        // run the plain product and let the scheme sweep `y` itself.
        let probe_stale = first && !self.q_faults.is_empty();
        let t_prod = self.rec.start();
        let probe = if hardened && !probe_stale {
            Some(self.kernel.product_with_probe(self.a, x, y))
        } else {
            self.kernel.product(self.a, x, y);
            None
        };
        self.rec.phase(Phase::Product, t_prod);
        if !hardened {
            return ProductStatus::Trusted; // ONLINE: unverified products
        }
        if first {
            // Faults in the product's computation/output strike here.
            for e in self.q_faults {
                flip(&mut y[e.offset], e.bit);
            }
        }
        let xref: &XRef = match (first, self.xref) {
            (true, Some(x0)) => x0,
            _ => {
                self.xref_scratch.store(x);
                self.xref_scratch
            }
        };
        let t_check = self.rec.start();
        let check = self
            .scheme
            .check_product(self.a, x, xref, y, probe.as_ref());
        self.rec.phase(Phase::ProductCheck, t_check);
        self.stats.product_checks += 1;
        if check != ProductCheck::Clean && self.scheme.check_may_mutate() {
            *self.structure_dirty = true;
        }
        let it = self.stats.executed as u64;
        match check {
            ProductCheck::Clean => ProductStatus::Trusted,
            ProductCheck::FalseAlarm => {
                self.stats.detections += 1;
                self.rec.event(Event::detect(it, ev_via::PRODUCT));
                // The correction attempt may have touched the arrays.
                self.kernel.invalidate();
                ProductStatus::Trusted
            }
            ProductCheck::Corrected => {
                self.stats.detections += 1;
                self.stats.forward_corrections += 1;
                self.rec.event(Event::detect(it, ev_via::PRODUCT));
                self.rec.event(Event::correct_forward(it));
                self.kernel.invalidate();
                self.ledger.resolve_iteration_where(
                    self.stats.executed,
                    FaultOutcome::Corrected,
                    |rec| {
                        rec.event.target.is_matrix()
                            || matches!(
                                rec.event.target,
                                FaultTarget::Vector(VectorId::P | VectorId::Q)
                            )
                    },
                );
                ProductStatus::Trusted
            }
            ProductCheck::Rejected => {
                self.stats.detections += 1;
                self.rec.event(Event::detect(it, ev_via::PRODUCT));
                self.kernel.invalidate();
                ProductStatus::Rejected
            }
        }
    }

    fn product_transpose(&mut self, x: &[f64], y: &mut [f64]) -> ProductStatus {
        // Defensive (the image may carry wild indices) but never
        // checksum-verified: the paper's checksums protect the row
        // space only. Errors it lets through are caught downstream by
        // the TMR vote, the chunk verification or a breakdown.
        self.a.spmv_transpose_clamped_into(x, y);
        ProductStatus::Trusted
    }
}

/// The protocol state of one resilient solve: [`ExecutorMachine::new`]
/// is the prologue, each `begin_iteration` + `finish_iteration` pair one
/// iteration of the loop, [`ExecutorMachine::finish`] the epilogue —
/// driven by [`run_executor`].
struct ExecutorMachine<'a, V: VerificationScheme, R: Recorder> {
    a0: &'a CsrMatrix,
    b: &'a [f64],
    cfg: &'a ResilientConfig,
    injector: Option<&'a mut Injector>,
    scheme: V,
    solver: &'a mut dyn IterativeSolver,
    /// The live (corruptible) matrix image.
    a: &'a mut CsrMatrix,
    arena: &'a mut ExecArena,
    rec: &'a mut R,
    hardened: bool,
    kernel: DefensiveProduct,
    d: usize,
    threshold: f64,
    guard: EscalationGuard,
    time: SimTime,
    stats: RunStats,
    ledger: FaultLedger,
    productive: usize,
    iters_in_chunk: usize,
    chunks_since_ckpt: usize,
    replica_rot: usize,
    converged: bool,
    /// `true` while the live image's *structure* (`colid`/`rowptr`) may
    /// differ from the latest checkpoint's: set by index-array faults
    /// and by correction attempts, cleared whenever image and checkpoint
    /// are re-synchronized (checkpoint taken, rollback restored).
    /// While clean, rollback takes the cheaper values-only restore
    /// ([`CsrMatrix::copy_values_from`], whose debug-mode pattern check
    /// verifies this very tracking on every test run).
    structure_dirty: bool,
}

impl<'a, V: VerificationScheme, R: Recorder> ExecutorMachine<'a, V, R> {
    /// Sets up the protocol state exactly as the historical executor
    /// prologue did, same operations in the same order.
    #[allow(clippy::too_many_arguments)]
    fn new(
        a0: &'a CsrMatrix,
        b: &'a [f64],
        cfg: &'a ResilientConfig,
        injector: Option<&'a mut Injector>,
        scheme: V,
        solver: &'a mut dyn IterativeSolver,
        image: &'a mut CsrMatrix,
        arena: &'a mut ExecArena,
        rec: &'a mut R,
    ) -> Self {
        let hardened = scheme.hardened_vectors();
        // Pin `auto` against the pristine matrix; conversions are cached
        // and dropped whenever the matrix image mutates.
        let kernel = DefensiveProduct::new(cfg.kernel.resolve(a0));
        let d = scheme.chunk_len(cfg.verif_interval);
        let threshold = cfg
            .stopping
            .threshold(a0, vector::norm2(b), solver.residual_norm());
        solver.set_threshold(threshold);

        // TMR shadows of the canonical r/x (ABFT schemes): replicas
        // receive the injected flips and are voted each iteration; the
        // vote only ever feeds statistics and rollback decisions — an
        // outvoted flip never reaches the trajectory, exactly like the
        // historical triplicated updates.
        if hardened {
            arena.r_tmr.store(solver.vector(CanonVec::Residual));
            arena.x_tmr.store(solver.vector(CanonVec::Iterate));
        }

        // The pristine input data ("for the first frame we recover by
        // reading initial data again") and the rolling checkpoint slot.
        solver.snapshot_into(0, a0, &mut arena.initial);
        arena.slot.save(&arena.initial);

        if hardened {
            arena.xref.store(solver.vector(CanonVec::Direction));
        }
        let converged = solver.residual_norm() <= threshold;
        ExecutorMachine {
            a0,
            b,
            cfg,
            injector,
            scheme,
            solver,
            a: image,
            arena,
            rec,
            hardened,
            kernel,
            d,
            threshold,
            guard: EscalationGuard::default(),
            time: SimTime::default(),
            stats: RunStats::default(),
            ledger: FaultLedger::new(),
            productive: 0,
            iters_in_chunk: 0,
            chunks_since_ckpt: 0,
            replica_rot: 0,
            converged,
            structure_dirty: false,
        }
    }

    /// `true` while the loop condition of the historical executor holds.
    fn active(&self) -> bool {
        !self.converged
            && self.productive < self.cfg.max_productive_iters
            && self.stats.executed < self.cfg.max_executed_iters
    }

    /// Phase 1 of an iteration: count it and let this iteration's
    /// faults strike the unreliable region.
    fn begin_iteration(&mut self) {
        self.stats.executed += 1;
        let events = self
            .injector
            .as_deref_mut()
            .map(|i| i.plan_iteration())
            .unwrap_or_default();
        for e in &events {
            self.ledger.record(self.stats.executed, *e);
            self.rec.event(Event::fault(
                self.stats.executed as u64,
                fault_code(&e.target),
                e.offset as u64,
                e.bit as u64,
            ));
        }
        self.guard.note_faults(events.len());
        self.arena.q_faults.clear();
        for e in &events {
            match e.target {
                FaultTarget::Vector(VectorId::P) => {
                    flip(
                        &mut self.solver.vector_mut(CanonVec::Direction)[e.offset],
                        e.bit,
                    );
                }
                FaultTarget::Vector(VectorId::Q) => {
                    if self.hardened {
                        self.arena.q_faults.push(*e); // deferred onto the product
                    } else {
                        flip(
                            &mut self.solver.vector_mut(CanonVec::Product)[e.offset],
                            e.bit,
                        );
                    }
                }
                FaultTarget::Vector(VectorId::R) => {
                    if self.hardened {
                        let rep = self.replica_rot % 3;
                        self.replica_rot += 1;
                        flip(&mut self.arena.r_tmr.replica_mut(rep)[e.offset], e.bit);
                    } else {
                        flip(
                            &mut self.solver.vector_mut(CanonVec::Residual)[e.offset],
                            e.bit,
                        );
                    }
                }
                FaultTarget::Vector(VectorId::X) => {
                    if self.hardened {
                        let rep = self.replica_rot % 3;
                        self.replica_rot += 1;
                        flip(&mut self.arena.x_tmr.replica_mut(rep)[e.offset], e.bit);
                    } else {
                        flip(
                            &mut self.solver.vector_mut(CanonVec::Iterate)[e.offset],
                            e.bit,
                        );
                    }
                }
                _ => {
                    if matches!(
                        e.target,
                        FaultTarget::MatrixColid | FaultTarget::MatrixRowidx
                    ) {
                        self.structure_dirty = true;
                    }
                    Injector::apply_to_matrix(e, self.a);
                }
            }
        }
        if events.iter().any(|e| e.target.is_matrix()) {
            self.kernel.invalidate();
        }
    }

    /// Phases 2–5 of an iteration: one verified solver step, the TMR
    /// vote, the chunk-boundary verification, convergence acceptance
    /// and checkpointing.
    fn finish_iteration(&mut self) {
        // 2./3. One step, products verified by the scheme. The
        // iteration is charged `1 + Tverif` per product the step
        // actually ran (ABFT schemes; `verified_products` is the
        // nominal count, but half-step exits and early breakdowns run
        // fewer).
        let t_step = self.rec.start();
        let (step, products_run) = {
            let mut ctx = ResilientCtx {
                a: &mut *self.a,
                kernel: &mut self.kernel,
                scheme: &self.scheme,
                xref: self.hardened.then_some(&self.arena.xref),
                structure_dirty: &mut self.structure_dirty,
                xref_scratch: &mut self.arena.xref_scratch,
                q_faults: &self.arena.q_faults,
                stats: &mut self.stats,
                ledger: &mut self.ledger,
                first: true,
                products_run: 0,
                rec: &mut *self.rec,
            };
            let res = self.solver.step(&mut ctx);
            (res, ctx.products_run)
        };
        self.rec.phase(Phase::Step, t_step);
        self.time
            .add(1.0 + self.scheme.iteration_cost(&self.cfg.costs, products_run));
        match step {
            StepResult::Done => {}
            StepResult::Rejected => {
                // Detection already counted by the context.
                self.rollback();
                return;
            }
            StepResult::Breakdown => {
                // Numerical breakdown caused by an undetected
                // perturbation: treat as detection and roll back.
                self.stats.detections += 1;
                self.rec
                    .event(Event::detect(self.stats.executed as u64, ev_via::BREAKDOWN));
                self.rollback();
                return;
            }
        }

        // 4. TMR vote on the vector data (ABFT schemes).
        if self.hardened {
            let t_vote = self.rec.start();
            let vr = self.arena.r_tmr.vote();
            let vx = self.arena.x_tmr.vote();
            self.rec.phase(Phase::TmrVote, t_vote);
            if !vr.is_trusted() || !vx.is_trusted() {
                // Colliding replica faults: detected, not correctable.
                self.stats.detections += 1;
                self.rec
                    .event(Event::detect(self.stats.executed as u64, ev_via::TMR));
                self.rollback();
                return;
            }
            let tmr_fixed = vr.corrected + vx.corrected;
            if tmr_fixed > 0 {
                self.stats.tmr_corrections += tmr_fixed;
                self.rec.event(Event::correct_tmr(
                    self.stats.executed as u64,
                    tmr_fixed as u64,
                ));
                self.ledger.resolve_iteration_where(
                    self.stats.executed,
                    FaultOutcome::Corrected,
                    |rec| {
                        matches!(
                            rec.event.target,
                            FaultTarget::Vector(VectorId::R | VectorId::X)
                        )
                    },
                );
            }
            // Replicas follow the verified update (identical bits to
            // applying the update to each voted replica).
            self.arena
                .r_tmr
                .store(self.solver.vector(CanonVec::Residual));
            self.arena
                .x_tmr
                .store(self.solver.vector(CanonVec::Iterate));
        }

        self.productive += 1;
        self.iters_in_chunk += 1;
        let recursive_converged = self.solver.residual_norm() <= self.threshold;

        // 5. Chunk boundary (or convergence claim): verify, then accept
        // convergence / checkpoint strictly behind the verification.
        if self.iters_in_chunk >= self.d || recursive_converged {
            let chunk_cost = self.scheme.chunk_cost(&self.cfg.costs);
            self.time.add(chunk_cost);
            self.stats.chunk_checks += 1;
            let t_verify = self.rec.start();
            let chunk_ok = self
                .scheme
                .verify_chunk(self.a, &*self.solver, &self.cfg.online_tol);
            self.rec.phase(Phase::ChunkVerify, t_verify);
            // Priced verifications (ONLINE) always leave a trace event;
            // the ABFT schemes' free per-iteration no-op checks only do
            // when they fail (they never should).
            if chunk_cost > 0.0 || !chunk_ok {
                self.rec
                    .event(Event::chunk_verify(self.stats.executed as u64, chunk_ok));
            }
            if !chunk_ok {
                self.stats.detections += 1;
                self.rec
                    .event(Event::detect(self.stats.executed as u64, ev_via::CHUNK));
                self.rollback();
                return;
            }
            self.iters_in_chunk = 0;
            if recursive_converged {
                self.converged = true;
                self.rec.event(Event::converged(
                    self.stats.executed as u64,
                    self.productive as u64,
                ));
                // `break` in the historical loop: the trailing xref
                // re-capture is skipped.
                return;
            }
            self.chunks_since_ckpt += 1;
            if self.chunks_since_ckpt >= self.cfg.checkpoint_interval {
                self.time.add(self.cfg.costs.tcp);
                let t_ckpt = self.rec.start();
                self.solver
                    .snapshot_into(self.productive, self.a, self.arena.slot.begin_save());
                self.arena.slot.commit();
                self.rec.phase(Phase::Checkpoint, t_ckpt);
                self.structure_dirty = false; // checkpoint == live image again
                self.stats.checkpoints += 1;
                self.rec.event(Event::checkpoint(
                    self.stats.executed as u64,
                    self.productive as u64,
                ));
                self.guard.note_checkpoint();
                self.chunks_since_ckpt = 0;
            }
        }
        if self.hardened {
            self.arena
                .xref
                .store(self.solver.vector(CanonVec::Direction));
        }
    }

    /// Restores the latest checkpoint (or, when the escalation guard
    /// flags a tainted one, the pristine initial data) into the solver
    /// and the shadows — all in place, no allocation.
    fn rollback(&mut self) {
        self.time.add(self.cfg.costs.trec);
        self.stats.rollbacks += 1;
        let t_rb = self.rec.start();
        if self.guard.must_escalate() {
            // Re-read input data: discard the tainted checkpoint.
            // The escape target's structure is the pristine one,
            // not the (possibly sub-tolerance-corrupted) structure
            // the discarded checkpoint shared with the live image.
            self.arena.slot.save(&self.arena.initial);
            self.structure_dirty = true;
            self.guard.consecutive_rollbacks = 0;
            self.rec.event(Event::escalate(self.stats.executed as u64));
        }
        self.guard.note_restore();
        let st = self
            .arena
            .slot
            .latest()
            .expect("initial checkpoint always present");
        if self.structure_dirty {
            self.a.copy_image_from(&st.matrix);
        } else {
            self.a.copy_values_from(&st.matrix);
        }
        self.structure_dirty = false;
        self.kernel.invalidate(); // rollback replaced the matrix image
        self.solver.restore(st, self.a);
        if self.hardened {
            self.arena
                .r_tmr
                .store(self.solver.vector(CanonVec::Residual));
            self.arena
                .x_tmr
                .store(self.solver.vector(CanonVec::Iterate));
        }
        self.productive = st.iteration;
        self.iters_in_chunk = 0;
        self.chunks_since_ckpt = 0;
        self.ledger.resolve_all_pending(FaultOutcome::RolledBack);
        if self.hardened {
            self.arena
                .xref
                .store(self.solver.vector(CanonVec::Direction));
        }
        self.rec.phase(Phase::Rollback, t_rb);
        self.rec.event(Event::rollback(
            self.stats.executed as u64,
            self.productive as u64,
        ));
    }

    /// Resolves the ledger and assembles the outcome (the historical
    /// epilogue).
    fn finish(self) -> ResilientOutcome {
        let ExecutorMachine {
            a0,
            b,
            solver,
            mut ledger,
            stats,
            time,
            converged,
            productive,
            ..
        } = self;
        // Whatever is still pending was never detected.
        ledger.resolve_all_pending(FaultOutcome::Undetected);
        let xv = solver.vector(CanonVec::Iterate).to_vec();
        let tr = true_residual(a0, b, &xv);
        ResilientOutcome {
            converged,
            productive_iterations: productive,
            executed_iterations: stats.executed,
            simulated_time: time.total,
            checkpoints: stats.checkpoints,
            rollbacks: stats.rollbacks,
            forward_corrections: stats.forward_corrections,
            tmr_corrections: stats.tmr_corrections,
            detections: stats.detections,
            product_checks: stats.product_checks,
            chunk_checks: stats.chunk_checks,
            ledger,
            true_residual: tr,
            x: xv,
        }
    }
}

/// Runs the protocol for one solver × scheme combination.
///
/// `solver` must be in the zero-start state over `(a0, b)`, `image`
/// must hold a bit-exact copy of `a0` (the corruptible working image),
/// and `arena` provides the retained buffers — all three come from
/// [`SolverWorkspace::checkout`](crate::SolverWorkspace).
#[allow(clippy::too_many_arguments)]
pub(super) fn run_executor<V: VerificationScheme, R: Recorder>(
    a0: &CsrMatrix,
    b: &[f64],
    cfg: &ResilientConfig,
    injector: Option<&mut Injector>,
    scheme: V,
    solver: &mut dyn IterativeSolver,
    image: &mut CsrMatrix,
    arena: &mut ExecArena,
    rec: &mut R,
) -> ResilientOutcome {
    let mut m = ExecutorMachine::new(a0, b, cfg, injector, scheme, solver, image, arena, rec);
    while m.active() {
        m.begin_iteration();
        m.finish_iteration();
    }
    m.finish()
}
