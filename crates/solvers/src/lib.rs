#![forbid(unsafe_code)]
//! Iterative solvers with pluggable silent-error resilience.
//!
//! Every solver ([`cg`], [`pcg`], [`bicgstab`], [`cgne`]) is a
//! steppable state machine ([`machine::IterativeSolver`]); the plain
//! `*_solve` / `*_solve_with` entry points are thin wrappers that drive
//! the machine bit-for-bit identically to the historical monolithic
//! loops. The [`resilient`] module composes any machine with the
//! paper's three schemes through one generic executor:
//!
//! * **ONLINE-DETECTION** — periodic stability tests (Chen's
//!   orthogonality + recomputed residual for CG/PCG; residual-only for
//!   BiCGStab/CGNE) every `d` iterations, checkpoint every `s` chunks,
//!   rollback on detection;
//! * **ABFT-DETECTION** — single-checksum ABFT verification of every
//!   SpMxV (chunk = 1 iteration), rollback on detection;
//! * **ABFT-CORRECTION** — dual-checksum ABFT that corrects single
//!   errors *forward* and rolls back only when two or more errors strike
//!   one iteration.
//!
//! Repetition loops (Monte-Carlo campaigns) should hold a
//! [`SolverWorkspace`] and call [`resilient::solve_resilient_in`]: all
//! solve-scoped memory — machines, matrix images, checkpoints, ABFT
//! shadows — is then retained and reset in place across repetitions,
//! bit-identically to fresh allocation and with zero steady-state heap
//! traffic (see [`workspace`]).

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod bicgstab;
pub mod cg;
pub mod cgne;
pub mod machine;
pub mod pcg;
pub mod resilient;
pub mod stopping;
pub mod verify;
pub mod workspace;

pub use bicgstab::{bicgstab_solve, bicgstab_solve_with, BicgstabMachine};
pub use cg::{cg_solve, cg_solve_with, CgConfig, CgMachine, SolveStats};
pub use cgne::{cgne_solve, cgne_solve_with, CgneMachine};
pub use machine::{
    CanonVec, IterativeSolver, PlainContext, ProductStatus, SolverKind, StepContext, StepResult,
};
pub use pcg::{pcg_jacobi_solve, pcg_jacobi_solve_with, PcgMachine};
pub use resilient::{
    solve_resilient, solve_resilient_in, ResilientConfig, ResilientConfigError, ResilientOutcome,
    VerificationScheme,
};
pub use stopping::StoppingCriterion;
pub use workspace::SolverWorkspace;
