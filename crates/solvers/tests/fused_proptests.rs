//! Property tests for the fused hot-path sweeps.
//!
//! Two layers of the bit-exactness contract from
//! `ftcg_sparse::fused` are pinned here:
//!
//! 1. **Op level** — every fused one-pass kernel produces exactly the
//!    bits of the separate `vector::` sweeps it replaces, on generated
//!    vectors that include the awkward corners (`±0.0`, `NaN`, `±∞`,
//!    subnormal-scale and huge magnitudes). The in-crate unit tests
//!    check hand-picked vectors; these properties search the space.
//! 2. **Solve level** — per solver × scheme × kernel under real fault
//!    injection, a resilient solve through the fused machines, the
//!    probe-carrying product, and the probed verifiers is
//!    bit-reproducible: an identical injector seed
//!    on a dirty, previously-used workspace replays the exact outcome
//!    of a fresh-workspace solve, counters and iterate included. If a
//!    fused sweep ever read stale state, depended on buffer history, or
//!    the probe path diverged from the plain checksum sweeps, the
//!    replay would split at the first differing bit.

use ftcg_fault::Injector;
use ftcg_kernels::KernelSpec;
use ftcg_model::Scheme;
use ftcg_solvers::machine::SolverKind;
use ftcg_solvers::resilient::{solve_resilient_in, ResilientConfig};
use ftcg_solvers::{ResilientOutcome, SolverWorkspace};
use ftcg_sparse::{fused, gen, vector, CsrMatrix};
use proptest::prelude::*;

/// Generated element: mostly finite sign-mixed values across many
/// binades, salted with the IEEE-754 corner cases.
fn element() -> impl Strategy<Value = f64> {
    (0u8..14, -1.0e3f64..1.0e3).prop_map(|(tag, v)| match tag {
        0..=7 => v,
        8 | 9 => v * 1.0e-303, // subnormal scale
        10 => 0.0,
        11 => -0.0,
        12 => f64::NAN,
        _ => {
            if v < 0.0 {
                f64::NEG_INFINITY
            } else {
                f64::INFINITY
            }
        }
    })
}

fn vecs(k: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    (0usize..64).prop_flat_map(move |n| {
        proptest::collection::vec(proptest::collection::vec(element(), n), k)
    })
}

fn scalar() -> impl Strategy<Value = f64> {
    (0u8..8, -4.0f64..4.0).prop_map(|(tag, v)| match tag {
        0..=5 => v,
        6 => 0.0,
        _ => -0.0,
    })
}

/// Bit equality, except any NaN matches any NaN: Rust does not fix
/// which NaN bit pattern an invalid operation produces (a const-folded
/// `∞ + (−∞)` and the executed `addsd` can disagree on the sign bit),
/// so the fused contract's bit-identity only covers non-NaN results.
fn bits_eq(a: f64, b: f64) -> bool {
    (a.is_nan() && b.is_nan()) || a.to_bits() == b.to_bits()
}

fn assert_bits(a: f64, b: f64, what: &str) {
    assert!(bits_eq(a, b), "{what}: {a} vs {b}");
}

fn assert_bits_vec(a: &[f64], b: &[f64], what: &str) {
    for i in 0..a.len() {
        assert!(bits_eq(a[i], b[i]), "{what}[{i}]: {} vs {}", a[i], b[i]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `probe_of` reproduces the ABFT checksum chains (`.sum()` from
    /// `-0.0`, weights `1` and `i+1`) on arbitrary inputs.
    #[test]
    fn probe_matches_checksum_sweeps(v in vecs(1)) {
        let y = &v[0];
        let p = fused::probe_of(y);
        let want0: f64 = y.iter().sum();
        let want1: f64 = y.iter().enumerate().map(|(i, &v)| (i + 1) as f64 * v).sum();
        assert_bits(p[0], want0, "probe[0]");
        assert_bits(p[1], want1, "probe[1]");
    }

    /// `dot2` ≡ two separate `vector::dot` sweeps.
    #[test]
    fn dot2_matches_two_dots(v in vecs(4)) {
        let (d1, d2) = fused::dot2(&v[0], &v[1], &v[2], &v[3]);
        assert_bits(d1, vector::dot(&v[0], &v[1]), "dot2.0");
        assert_bits(d2, vector::dot(&v[2], &v[3]), "dot2.1");
    }

    /// `axpy2_norm2_sq` ≡ `axpy; axpy; norm2_sq` — the CG/CGNE tail.
    #[test]
    fn axpy2_norm2_sq_matches_separate_sweeps(
        v in vecs(4),
        a in scalar(),
        c in scalar(),
    ) {
        let (p, q) = (&v[0], &v[1]);
        let mut x = v[2].clone();
        let mut r = v[3].clone();
        let (mut x_ref, mut r_ref) = (x.clone(), r.clone());
        let got = fused::axpy2_norm2_sq(a, p, &mut x, c, q, &mut r);
        vector::axpy(a, p, &mut x_ref);
        vector::axpy(c, q, &mut r_ref);
        assert_bits_vec(&x, &x_ref, "x");
        assert_bits_vec(&r, &r_ref, "r");
        assert_bits(got, vector::norm2_sq(&r_ref), "norm2_sq");
    }

    /// `axpy2_precond_dot` ≡ `axpy; axpy; z=r∘minv; dot(r,z)` — the
    /// PCG tail.
    #[test]
    fn axpy2_precond_dot_matches_separate_sweeps(
        v in vecs(5),
        a in scalar(),
        c in scalar(),
    ) {
        let (p, q, minv) = (&v[0], &v[1], &v[2]);
        let mut x = v[3].clone();
        let mut r = v[4].clone();
        let mut z = vec![0.0; r.len()];
        let (mut x_ref, mut r_ref, mut z_ref) = (x.clone(), r.clone(), z.clone());
        let got = fused::axpy2_precond_dot(a, p, &mut x, c, q, &mut r, minv, &mut z);
        vector::axpy(a, p, &mut x_ref);
        vector::axpy(c, q, &mut r_ref);
        for i in 0..z_ref.len() {
            z_ref[i] = r_ref[i] * minv[i];
        }
        assert_bits_vec(&x, &x_ref, "x");
        assert_bits_vec(&r, &r_ref, "r");
        assert_bits_vec(&z, &z_ref, "z");
        assert_bits(got, vector::dot(&r_ref, &z_ref), "rz");
    }

    /// `xpay_norm2_sq` ≡ the `y = x + b·y` loop + `norm2_sq(v)`.
    #[test]
    fn xpay_norm2_sq_matches_separate_sweeps(v in vecs(3), b in scalar()) {
        let (x, w) = (&v[0], &v[1]);
        let mut y = v[2].clone();
        let mut y_ref = y.clone();
        let got = fused::xpay_norm2_sq(x, b, &mut y, w);
        for i in 0..y_ref.len() {
            y_ref[i] = x[i] + b * y_ref[i];
        }
        assert_bits_vec(&y, &y_ref, "y");
        assert_bits(got, vector::norm2_sq(w), "norm2_sq");
    }

    /// `sub_scaled_norm2_sq` ≡ the `s = r − a·v` loop + `norm2_sq(s)`
    /// — BiCGStab's half-step residual.
    #[test]
    fn sub_scaled_norm2_sq_matches_separate_sweeps(v in vecs(2), a in scalar()) {
        let (r, w) = (&v[0], &v[1]);
        let mut s = vec![0.0; r.len()];
        let mut s_ref = vec![0.0; r.len()];
        let got = fused::sub_scaled_norm2_sq(r, a, w, &mut s);
        for i in 0..s_ref.len() {
            s_ref[i] = r[i] - a * w[i];
        }
        assert_bits_vec(&s, &s_ref, "s");
        assert_bits(got, vector::norm2_sq(&s_ref), "norm2_sq");
    }

    /// `step_update_dot` ≡ the two BiCGStab update loops + `dot(r̂,r)`.
    #[test]
    fn step_update_dot_matches_separate_sweeps(
        v in vecs(5),
        a in scalar(),
        w in scalar(),
    ) {
        let (p, s, t, rhat) = (&v[0], &v[1], &v[2], &v[3]);
        let mut x = v[4].clone();
        let mut r = vec![0.0; x.len()];
        let (mut x_ref, mut r_ref) = (x.clone(), r.clone());
        let got = fused::step_update_dot(a, p, w, s, t, &mut x, &mut r, rhat);
        for i in 0..x_ref.len() {
            x_ref[i] += a * p[i] + w * s[i];
        }
        for i in 0..r_ref.len() {
            r_ref[i] = s[i] - w * t[i];
        }
        assert_bits_vec(&x, &x_ref, "x");
        assert_bits_vec(&r, &r_ref, "r");
        assert_bits(got, vector::dot(rhat, &r_ref), "rho");
    }

    /// `dir_update_norm2_sq` ≡ the BiCGStab direction loop +
    /// `norm2_sq(r)`.
    #[test]
    fn dir_update_norm2_sq_matches_separate_sweeps(
        v in vecs(3),
        b in scalar(),
        w in scalar(),
    ) {
        let (r, u) = (&v[0], &v[1]);
        let mut p = v[2].clone();
        let mut p_ref = p.clone();
        let got = fused::dir_update_norm2_sq(r, b, w, u, &mut p);
        for i in 0..p_ref.len() {
            p_ref[i] = r[i] + b * (p_ref[i] - w * u[i]);
        }
        assert_bits_vec(&p, &p_ref, "p");
        assert_bits(got, vector::norm2_sq(r), "norm2_sq");
    }
}

/// The paper-model injector (the engine's `paper_injector` recipe).
fn injector_for(a: &CsrMatrix, alpha: f64, seed: u64) -> Injector {
    use ftcg_fault::{target::MemoryLayout, BitRange, FaultRate, InjectorConfig};
    let layout = MemoryLayout::with_vectors(a.nnz(), a.n_rows());
    let cfg = InjectorConfig {
        rate: FaultRate::from_alpha(alpha, layout.total_words()),
        value_bits: BitRange::Full,
        index_bits: BitRange::for_index_bound(a.n_cols().max(a.nnz() + 1)),
        include_vectors: true,
    };
    Injector::for_matrix(cfg, a, seed)
}

fn assert_outcome_bitexact(label: &str, x: &ResilientOutcome, y: &ResilientOutcome) {
    assert_eq!(x.converged, y.converged, "{label}: converged");
    assert_eq!(
        x.productive_iterations, y.productive_iterations,
        "{label}: productive"
    );
    assert_eq!(
        x.executed_iterations, y.executed_iterations,
        "{label}: executed"
    );
    assert_eq!(
        x.simulated_time.to_bits(),
        y.simulated_time.to_bits(),
        "{label}: simulated time"
    );
    assert_eq!(x.checkpoints, y.checkpoints, "{label}: checkpoints");
    assert_eq!(x.rollbacks, y.rollbacks, "{label}: rollbacks");
    assert_eq!(x.detections, y.detections, "{label}: detections");
    assert_eq!(
        x.true_residual.to_bits(),
        y.true_residual.to_bits(),
        "{label}: true residual"
    );
    assert_bits_vec(&x.x, &y.x, label);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Solve-level replay: for every solver × scheme × kernel under
    /// fault injection, a second solve with an identical injector seed
    /// on the (now dirty) workspace reproduces the first outcome bit
    /// for bit — the fused sweeps, probe-carrying products and probed
    /// verifiers leave no history behind.
    #[test]
    fn fused_solves_replay_bitexact_across_the_grid(
        n in 30usize..70,
        density_mil in 40usize..90,
        seed in 0u64..300,
        s in 2usize..8,
    ) {
        const ALPHA: f64 = 1.0 / 16.0;
        let a = gen::random_spd(n, density_mil as f64 / 1000.0, seed).unwrap();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.29).sin()).collect();
        let mut fresh = SolverWorkspace::new();
        let mut dirty = SolverWorkspace::new();
        for scheme in [Scheme::AbftDetection, Scheme::AbftCorrection, Scheme::OnlineDetection] {
            for kind in SolverKind::ALL {
                for kernel in ["csr", "sell:8:32", "bcsr:2"] {
                    let mut cfg = ResilientConfig::new(scheme, s);
                    cfg.solver = kind;
                    cfg.kernel = KernelSpec::parse(kernel).unwrap();
                    cfg.max_productive_iters = 30;
                    cfg.max_executed_iters = 300;
                    let mut inj = injector_for(&a, ALPHA, seed ^ 0xf00d);
                    let first = solve_resilient_in(&a, &b, &cfg, Some(&mut inj), &mut fresh);
                    let mut inj = injector_for(&a, ALPHA, seed ^ 0xf00d);
                    let replay = solve_resilient_in(&a, &b, &cfg, Some(&mut inj), &mut dirty);
                    assert_outcome_bitexact(
                        &format!("{scheme:?} × {kind} × {kernel}"),
                        &first,
                        &replay,
                    );
                }
            }
        }
    }
}
