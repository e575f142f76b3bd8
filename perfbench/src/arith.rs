//! The benchmark's own arithmetic, kept free of I/O so it can be unit
//! tested: order statistics, the per-solve verdict behind
//! `failed_share`, the exclusive phase breakdown, solve time in
//! reference iterations, the computed-bytes formula for SpMV, and the
//! peak-RSS reading.

use ftcg_telemetry::Phase;

/// Relative true-residual tolerance a converged solve must meet:
/// `‖b − A·x‖₂ / ‖b‖₂ ≤ 1e-6`, i.e. 100× the solvers' default relative
/// stopping threshold (1e-8), so rounding drift never counts but a
/// silent corruption that survives to the answer does.
pub const ESCAPE_TOL: f64 = 1e-6;

/// Median (mean of the two middle values for even lengths); 0 for an
/// empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}

/// What a single solve produced, for `failed_share` and its causes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Converged with a relative true residual within [`ESCAPE_TOL`].
    Correct,
    /// Panicked, or finished with a non-finite residual (NaN-poisoned).
    Errored,
    /// Stopped without meeting the stopping criterion.
    Unconverged,
    /// Reported "converged" but the answer is wrong: a silent error
    /// that escaped every check.
    Escape,
}

impl Verdict {
    /// Classifies one finished solve. `None` for `residual` means the
    /// solve never returned (panic / failed record).
    pub fn classify(converged: bool, residual: Option<f64>, rhs_norm: f64) -> Verdict {
        let Some(res) = residual else {
            return Verdict::Errored;
        };
        let rel = res / rhs_norm;
        if !rel.is_finite() {
            Verdict::Errored
        } else if !converged {
            Verdict::Unconverged
        } else if rel > ESCAPE_TOL {
            Verdict::Escape
        } else {
            Verdict::Correct
        }
    }
}

/// Counts of [`Verdict`]s over a set of solves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerdictCounts {
    pub correct: u64,
    pub errored: u64,
    pub unconverged: u64,
    pub escapes: u64,
}

impl VerdictCounts {
    pub fn add(&mut self, v: Verdict) {
        match v {
            Verdict::Correct => self.correct += 1,
            Verdict::Errored => self.errored += 1,
            Verdict::Unconverged => self.unconverged += 1,
            Verdict::Escape => self.escapes += 1,
        }
    }

    pub fn add_counts(&mut self, other: &VerdictCounts) {
        self.correct += other.correct;
        self.errored += other.errored;
        self.unconverged += other.unconverged;
        self.escapes += other.escapes;
    }

    pub fn total(&self) -> u64 {
        self.correct + self.errored + self.unconverged + self.escapes
    }

    pub fn failed(&self) -> u64 {
        self.errored + self.unconverged + self.escapes
    }

    /// Solves without a correct answer ÷ solves attempted.
    pub fn failed_share(&self) -> f64 {
        self.failed() as f64 / self.total().max(1) as f64
    }
}

/// Phase time totals over a set of solves, with the wall time those
/// solves took, in nanoseconds.
///
/// The executor's phases nest: `step` contains every `product` and
/// `product_check` it runs; `tmr_vote`, `chunk_verify`, `checkpoint`
/// and `rollback` are siblings of `step`. Self times subtract the
/// children, and what no top-level phase covers is the unattributed
/// remainder (vector bookkeeping, injection, convergence tests, the
/// final true residual, per-solve set-up).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTotals {
    pub ns: [u64; Phase::COUNT],
    pub calls: [u64; Phase::COUNT],
    pub wall_ns: u64,
}

/// The top-level phases: disjoint in time, together covering every
/// timed part of a solve.
const TOP_LEVEL: [Phase; 5] = [
    Phase::Step,
    Phase::TmrVote,
    Phase::ChunkVerify,
    Phase::Checkpoint,
    Phase::Rollback,
];

impl PhaseTotals {
    pub fn add_job(&mut self, ns: &[u64; Phase::COUNT], calls: &[u64; Phase::COUNT], wall: u64) {
        for p in Phase::ALL {
            self.ns[p.index()] += ns[p.index()];
            self.calls[p.index()] += calls[p.index()];
        }
        self.wall_ns += wall;
    }

    pub fn get(&self, p: Phase) -> u64 {
        self.ns[p.index()]
    }

    /// `step` minus the products and product checks nested in it
    /// (saturating: clock granularity can make children exceed the
    /// parent by a tick).
    pub fn step_self(&self) -> u64 {
        self.get(Phase::Step)
            .saturating_sub(self.get(Phase::Product) + self.get(Phase::ProductCheck))
    }

    /// Wall time not covered by any top-level phase.
    pub fn unattributed(&self) -> i64 {
        let covered: u64 = TOP_LEVEL.iter().map(|&p| self.get(p)).sum();
        self.wall_ns as i64 - covered as i64
    }

    /// `ns` as a share of the wall time.
    pub fn share(&self, ns: f64) -> f64 {
        ns / self.wall_ns.max(1) as f64
    }
}

/// Bytes one CSR SpMV `y ← A·x` moves *as computed from array sizes*
/// (not measured): the values and column indices once each, the row
/// pointers once, `x` once and `y` written once. It is a lower bound on
/// traffic — gathers of `x` that miss the cache are not counted — so
/// the bandwidth derived from it is labelled "computed".
pub fn spmv_bytes(n_rows: usize, n_cols: usize, nnz: usize, index_bytes: usize) -> f64 {
    let values = 8 * nnz;
    let colidx = index_bytes * nnz;
    let rowptr = index_bytes * (n_rows + 1);
    let x = 8 * n_cols;
    let y = 8 * n_rows;
    (values + colidx + rowptr + x + y) as f64
}

/// Solve cost in reference iterations: the median over passes of the
/// worker time per solve (`workers` busy for the pass's wall time),
/// divided by the median of the reference samples taken between the
/// passes (seconds per reference iteration). Both are medians over the
/// whole run, so a host that runs slower for a while moves both alike,
/// and one unlucky pass or sample moves neither.
pub fn cost_in_ref_iters(per_solve_s: &[f64], workers: usize, ref_samples_s: &[f64]) -> f64 {
    workers as f64 * median(per_solve_s) / median(ref_samples_s)
}

/// STREAM triad `a ← b + s·c` traffic per sweep of `n` doubles (STREAM
/// counting: three arrays, no write-allocate).
pub fn triad_bytes(n: usize) -> f64 {
    (3 * 8 * n) as f64
}

/// Parses `VmHWM` (peak resident set) from a `/proc/<pid>/status` text,
/// in bytes.
pub fn parse_vm_hwm(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

/// Resets the process's peak-RSS watermark to its current resident set
/// (Linux `clear_refs` code 5), so a measurement covers only what runs
/// after it. Returns whether the reset took effect.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The process's peak resident set since start (or the last
/// [`reset_peak_rss`]), in MB (10⁶ bytes).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm(&status).map(|b| b as f64 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nan_residual_counts_as_failed() {
        let v = Verdict::classify(true, Some(f64::NAN), 10.0);
        assert_eq!(v, Verdict::Errored);
        assert_eq!(
            Verdict::classify(true, Some(f64::INFINITY), 1.0),
            Verdict::Errored
        );
        assert_eq!(Verdict::classify(false, None, 1.0), Verdict::Errored);
        let mut c = VerdictCounts::default();
        c.add(v);
        c.add(Verdict::Correct);
        assert_eq!(c.failed(), 1);
        assert_eq!(c.failed_share(), 0.5);
    }

    #[test]
    fn converged_above_tolerance_is_an_escape() {
        let b = 2.0;
        // 7.6e-5 relative: "converged" but wrong.
        assert_eq!(
            Verdict::classify(true, Some(7.6e-5 * b), b),
            Verdict::Escape
        );
        // Exactly at the tolerance is still correct.
        assert_eq!(
            Verdict::classify(true, Some(ESCAPE_TOL * b), b),
            Verdict::Correct
        );
        assert_eq!(Verdict::classify(true, Some(1e-9 * b), b), Verdict::Correct);
        // Not converged wins over the residual test.
        assert_eq!(
            Verdict::classify(false, Some(1e-3), b),
            Verdict::Unconverged
        );
        let mut c = VerdictCounts::default();
        for v in [
            Verdict::Escape,
            Verdict::Unconverged,
            Verdict::Correct,
            Verdict::Correct,
        ] {
            c.add(v);
        }
        assert_eq!(
            (c.escapes, c.unconverged, c.correct, c.total()),
            (1, 1, 2, 4)
        );
        assert_eq!(c.failed_share(), 0.5);
    }

    #[test]
    fn self_time_and_unattributed_with_nested_phases() {
        let mut ns = [0u64; Phase::COUNT];
        ns[Phase::Step.index()] = 700;
        ns[Phase::Product.index()] = 400;
        ns[Phase::ProductCheck.index()] = 100;
        ns[Phase::TmrVote.index()] = 50;
        ns[Phase::ChunkVerify.index()] = 20;
        ns[Phase::Checkpoint.index()] = 30;
        ns[Phase::Rollback.index()] = 40;
        let calls = [1u64; Phase::COUNT];
        let mut t = PhaseTotals::default();
        t.add_job(&ns, &calls, 1000);
        // Nested children are not double counted.
        assert_eq!(t.step_self(), 200);
        assert_eq!(t.unattributed(), 1000 - (700 + 50 + 20 + 30 + 40));
        let parts = t.get(Phase::Product) + t.get(Phase::ProductCheck) + t.step_self();
        assert_eq!(parts, t.get(Phase::Step));
        assert!((t.share(t.get(Phase::Product) as f64) - 0.4).abs() < 1e-12);
        // A second job adds its wall time and calls.
        let mut u = t;
        u.add_job(&ns, &calls, 1000);
        assert_eq!(u.wall_ns, 2000);
        assert_eq!(u.calls[Phase::Step.index()], 2);
        assert_eq!(u.unattributed(), 2 * t.unattributed());
        // Children exceeding the parent by a clock tick saturate.
        let mut odd = [0u64; Phase::COUNT];
        odd[Phase::Step.index()] = 10;
        odd[Phase::Product.index()] = 11;
        let mut w = PhaseTotals::default();
        w.add_job(&odd, &calls, 5);
        assert_eq!(w.step_self(), 0);
        assert_eq!(w.unattributed(), -5);
    }

    #[test]
    fn computed_bytes_formula() {
        // 3×3 with 7 nonzeros, 8-byte indices: 7·8 + 7·8 + 4·8 + 3·8 + 3·8.
        assert_eq!(spmv_bytes(3, 3, 7, 8), 192.0);
        // 4-byte indices halve the index arrays only.
        assert_eq!(spmv_bytes(3, 3, 7, 4), 56.0 + 28.0 + 16.0 + 24.0 + 24.0);
        assert_eq!(triad_bytes(1000), 24_000.0);
    }

    #[test]
    fn cost_in_ref_iters_cancels_host_speed() {
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b;
        // 2 workers, 1.5 s per solve, 1 ms per reference iteration.
        let solves = [1.4, 1.5, 1.6];
        let refs = [1e-3, 0.9e-3, 1.1e-3, 1e-3];
        assert!(close(cost_in_ref_iters(&solves, 2, &refs), 3000.0));
        // A host twice as slow doubles both: the figure does not move.
        let slow = |v: &[f64]| v.iter().map(|x| 2.0 * x).collect::<Vec<_>>();
        assert!(close(
            cost_in_ref_iters(&slow(&solves), 2, &slow(&refs)),
            3000.0
        ));
        // One descheduled reference sample does not move it either.
        let outlier = [1e-3, 0.9e-3, 1.1e-3, 1e-3, 9e-3];
        assert!(close(cost_in_ref_iters(&solves, 2, &outlier), 3000.0));
        assert!(close(cost_in_ref_iters(&solves, 1, &refs), 1500.0));
    }

    #[test]
    fn peak_rss_does_not_carry_over_into_the_next_workload() {
        let before = peak_rss_mb().expect("readable /proc/self/status");
        {
            // A previous workload's 256 MB peak, touched page by page.
            let big = vec![1u8; 256 << 20];
            std::hint::black_box(&big);
        }
        let high = peak_rss_mb().unwrap();
        assert!(
            high >= before + 200.0,
            "peak {high} MB did not see the allocation"
        );
        assert!(reset_peak_rss(), "clear_refs is writable");
        let after = peak_rss_mb().unwrap();
        assert!(
            after < high - 200.0,
            "peak {after} MB still holds the old workload"
        );
    }

    #[test]
    fn vm_hwm_parses_kb() {
        let s = "Name:\tx\nVmPeak:\t  100 kB\nVmHWM:\t   2048 kB\nVmRSS:\t 10 kB\n";
        assert_eq!(parse_vm_hwm(s), Some(2048 * 1024));
        assert_eq!(parse_vm_hwm("VmRSS: 1 kB\n"), None);
    }
}
