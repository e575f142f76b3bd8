//! `perfbench` — the ftcg benchmark of record.
//!
//! ```text
//! perfbench --workload table1|large_solve|mc_batched --seed N --seconds S --trace 0|1
//! perfbench --all [--seed N] [--seconds S]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics (set-up time, solve time
//! in reference iterations, peak RSS, share of solves with a correct
//! answer) from untraced runs;
//! `--trace 1` runs the workload traced and untraced and attributes its
//! time to the layers. Human-readable figures go to stderr; the last
//! line of stdout is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. The process exits
//! nonzero when a correctness check fails or the run cannot complete.
//! `--all` runs every workload, each mode in a fresh process so no
//! workload's memory peak carries into the next.
//!
//! See `perfbench/README.md` for the design and the reference figures.

mod arith;
mod layers;
mod rec;
mod reference;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use ftcg_engine::journal::records_equal;
use ftcg_engine::pool::effective_threads;
use ftcg_engine::JobRecord;
use ftcg_solvers::resilient::ResilientOutcome;
use ftcg_solvers::SolverWorkspace;
use ftcg_telemetry::metrics::MetricsFile;
use ftcg_telemetry::{NoopRecorder, Phase};

use crate::arith::{cost_in_ref_iters, median, PhaseTotals, VerdictCounts};
use crate::rec::PhaseRecorder;
use crate::reference::Reference;
use crate::workload::{Setup, Workload};

struct Args {
    workload: Option<Workload>,
    all: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: None,
        all: false,
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag == "--all" {
            args.all = true;
            i += 1;
            continue;
        }
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        match flag {
            "--workload" => {
                args.workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad --seconds `{value}`"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}` (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
        i += 2;
    }
    if !args.all && args.workload.is_none() {
        return Err("give --workload NAME or --all".into());
    }
    Ok(args)
}

/// One run's result: the JSON result line plus the failed checks.
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    problems: Vec<String>,
}

impl Report {
    fn new() -> Report {
        Report {
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            problems: Vec::new(),
        }
    }

    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        if !value.is_finite() {
            self.problems
                .push(format!("metric {name} is not finite ({value})"));
        }
        self.metrics.push((name, value, unit));
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Set-up repetitions per run; the median is reported. More for the
/// short set-ups, whose single timings swing most.
fn setup_reps(w: Workload) -> usize {
    match w {
        Workload::Table1 => 21,
        Workload::LargeSolve => 7,
        Workload::McBatched => 15,
    }
}

/// Runs the set-up `reps` times, keeping the last result and every
/// repetition's wall, generation and planning times.
#[allow(clippy::type_complexity)]
fn timed_setup(
    w: Workload,
    seed: u64,
    reps: usize,
) -> Result<(Setup, Vec<f64>, Vec<f64>, Vec<f64>), String> {
    let (mut walls, mut gens, mut plans) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..reps {
        // Drop the previous set-up first so two never coexist.
        drop(last.take());
        let s = Setup::run(w, seed)?;
        walls.push(s.wall_s);
        gens.push(s.gen_s);
        plans.push(s.plan_s);
        last = Some(s);
    }
    let s = last.ok_or("no set-up ran")?;
    Ok((s, walls, gens, plans))
}

/// Solves every job of `setup` directly and untraced, one after another,
/// handing each job's outcome and wall time to `per_job`.
fn direct_pass(
    setup: &Setup,
    seed: u64,
    ws: &mut SolverWorkspace,
    mut per_job: impl FnMut(usize, Option<&ResilientOutcome>, u64),
) -> (Vec<(usize, JobRecord)>, Vec<Option<ResilientOutcome>>, f64) {
    let t0 = Instant::now();
    let mut records = Vec::with_capacity(setup.total_jobs());
    let mut outcomes = Vec::with_capacity(setup.total_jobs());
    for idx in 0..setup.total_jobs() {
        let (record, out, wall) = setup.direct_solve(seed, idx, ws, &mut NoopRecorder);
        per_job(idx, out.as_ref(), wall);
        records.push((idx, record));
        outcomes.push(out);
    }
    (records, outcomes, t0.elapsed().as_secs_f64())
}

/// One untraced pass with reference samples around it: after an engine
/// pass, and after each solve of a direct pass (`large_solve`, whose
/// passes are few and long). Returns the records and the pass's wall
/// time without the samples.
fn untraced_pass(
    setup: &Setup,
    seed: u64,
    ws: &mut SolverWorkspace,
    reference: &mut Reference,
    ref_samples: &mut Vec<f64>,
) -> Result<(Vec<(usize, JobRecord)>, f64), String> {
    if setup.workload.engine_driven() {
        let out = setup.engine_pass(seed, setup.spec.threads, None)?;
        ref_samples.push(reference.sample());
        Ok(out)
    } else {
        let mut solve_ns = 0u64;
        let (records, _, _) = direct_pass(setup, seed, ws, |idx, out, wall| {
            solve_ns += wall;
            ref_samples.push(reference.sample());
            let key = &setup.config_of(idx).key;
            if let Some(o) = out {
                eprintln!(
                    "[solve] {} {}: {:.3} s, {} executed / {} productive iterations, \
                         {} rollbacks, {} faults",
                    key.matrix,
                    key.scheme.name(),
                    wall as f64 / 1e9,
                    o.executed_iterations,
                    o.productive_iterations,
                    o.rollbacks,
                    o.ledger.len()
                );
            }
        });
        Ok((records, solve_ns as f64 / 1e9))
    }
}

fn print_verdicts(w: Workload, setup: &Setup, records: &[(usize, JobRecord)]) -> VerdictCounts {
    for (idx, r) in records {
        let verdict = setup.verdict(*idx, r);
        if verdict != arith::Verdict::Correct {
            let key = &setup.config_of(*idx).key;
            let detail = match r {
                JobRecord::Done(m) => format!(
                    "converged {} relative true residual {:e}",
                    m.converged,
                    m.true_residual / ftcg_sparse::vector::norm2(&setup.config_of(*idx).rhs)
                ),
                JobRecord::Failed(msg) => msg.clone(),
            };
            eprintln!(
                "[{}] job {idx} {verdict:?}: {} {} alpha {}: {detail}",
                w.name(),
                key.matrix,
                key.scheme.name(),
                key.alpha
            );
        }
    }
    let v = setup.verdicts(records);
    eprintln!(
        "[{}] failed_share {:.6} = {} of {} solves: {} escaped (converged, relative true \
         residual > {:e}), {} unconverged, {} errored (panic/NaN)",
        w.name(),
        v.failed_share(),
        v.failed(),
        v.total(),
        v.escapes,
        arith::ESCAPE_TOL,
        v.unconverged,
        v.errored
    );
    v
}

/// Closed-loop passes whose solves `solved_share` counts: a fixed
/// number, so the share is exact for a seed however fast the host is
/// (a slow host overruns `--seconds` rather than count fewer).
fn counted_passes(w: Workload) -> u64 {
    match w {
        Workload::Table1 => 4,
        Workload::LargeSolve => 2,
        Workload::McBatched => 3,
    }
}

/// `--trace 0`: set-up time, throughput, memory peak and correctness.
fn end_to_end(w: Workload, seed: u64, seconds: f64) -> Result<Report, String> {
    let mut rep = Report::new();
    arith::reset_peak_rss();
    // Half the set-up repetitions run now, the rest after the timed
    // loop, so their median samples the host at both ends of the run.
    let early = setup_reps(w).div_ceil(2);
    let (setup, mut setup_walls, _, _) = timed_setup(w, seed, early)?;
    let threads = setup.spec.threads;
    let mut reference = Reference::new(setup.matrices(), threads);
    let mut ref_samples = vec![reference.sample()];
    let mut ws = SolverWorkspace::new();
    let (mut rates, mut per_solve) = (Vec::new(), Vec::new());
    let mut peak = None;
    let mut counted = VerdictCounts::default();
    let mut first_summary: Option<String> = None;
    let t0 = Instant::now();
    let mut k = 0u64;
    while k < counted_passes(w) || t0.elapsed().as_secs_f64() < seconds {
        let pass_seed = setup.pass_seed(k);
        let (records, wall) =
            untraced_pass(&setup, pass_seed, &mut ws, &mut reference, &mut ref_samples)?;
        // The workload's memory peak: set-up and one pass over its jobs.
        // Later passes only redraw faults, and what they add is the
        // allocator keeping freed blocks of exited pool threads, which
        // depends on thread timing rather than on the program.
        if k == 0 {
            peak = arith::peak_rss_mb();
        }
        rates.push(records.len() as f64 / wall);
        per_solve.push(wall / records.len() as f64);
        rep.attempted += records.len() as u64;
        let v = if k < counted_passes(w) {
            print_verdicts(w, &setup, &records)
        } else {
            setup.verdicts(&records)
        };
        rep.failed += v.errored;
        let faulty_fault_free = setup.fault_free_failures(&records);
        rep.check(faulty_fault_free == 0, || {
            format!("{faulty_fault_free} fault-free (alpha 0) solve(s) without a correct answer")
        });
        if k < counted_passes(w) {
            counted.add_counts(&v);
        }
        // Passes that rerun the same fault draws must agree exactly.
        if pass_seed == setup.pass_seed(0) {
            let summary = setup.fold(&records)?;
            match &first_summary {
                None => first_summary = Some(summary),
                Some(s0) => rep.check(*s0 == summary, || {
                    format!("pass {} folded to a different summary than pass 1", k + 1)
                }),
            }
        }
        k += 1;
    }
    eprintln!(
        "[{}] failed_share over the {} counted pass(es): {:.6} ({} escaped, {} unconverged, \
         {} errored of {})",
        w.name(),
        counted_passes(w),
        counted.failed_share(),
        counted.escapes,
        counted.unconverged,
        counted.errored,
        counted.total()
    );
    let peak = peak.ok_or("cannot read the peak resident set")?;
    for _ in early..setup_reps(w) {
        setup_walls.push(Setup::run(w, seed)?.wall_s);
    }
    eprintln!(
        "[{}] {} pass(es) of {} solves; wall-clock rates {:?} solves/s (median {:.3}); \
         reference iteration {:?} s; set-up walls {:?} s",
        w.name(),
        rates.len(),
        setup.total_jobs(),
        rates,
        median(&rates),
        ref_samples,
        setup_walls
    );
    rep.put("setup_s", median(&setup_walls), "s");
    rep.put(
        "solve_cost_ref",
        cost_in_ref_iters(&per_solve, threads, &ref_samples),
        "ref_iter",
    );
    rep.put("peak_rss_mb", peak, "MB");
    rep.put("solved_share", 1.0 - counted.failed_share(), "ratio");
    Ok(rep)
}

/// Share of `total` jobs the engine runs inside batched lockstep groups,
/// from the same policy calls the engine makes.
fn batched_job_share(setup: &Setup) -> f64 {
    let spec = &setup.spec;
    let total = setup.total_jobs();
    let threads = effective_threads(spec.threads, total);
    let ceiling = spec.batch.resolve(spec.reps, total, threads);
    let mut batched = 0usize;
    for c in &setup.configs {
        let width = spec.batch.width_for_matrix(ceiling, c.matrix.nnz());
        if width > 1 {
            let full = spec.reps / width * width;
            let tail = spec.reps - full;
            batched += full + if tail > 1 { tail } else { 0 };
        }
    }
    batched as f64 / total.max(1) as f64
}

/// Where the engine's metrics sidecar is written for the traced pass.
fn sidecar_path(w: Workload, seed: u64) -> Result<PathBuf, String> {
    let dir = PathBuf::from(".perfbench_run");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let p = dir.join(format!(
        "{}-{seed}-{}.metrics.jsonl",
        w.name(),
        std::process::id()
    ));
    let _ = std::fs::remove_file(&p);
    Ok(p)
}

/// The matrices with the most and the fewest nonzeros per row.
fn wide_and_narrow(setup: &Setup) -> (String, String) {
    let mut m = setup.matrices();
    m.sort_by(|a, b| {
        let d = |x: &ftcg_sparse::CsrMatrix| x.nnz() as f64 / x.n_rows() as f64;
        d(&a.1).total_cmp(&d(&b.1))
    });
    (m[m.len() - 1].0.clone(), m[0].0.clone())
}

fn put_phases(
    rep: &mut Report,
    all: &PhaseTotals,
    by_matrix: &BTreeMap<String, PhaseTotals>,
    setup: &Setup,
) {
    let s = |ns: u64| ns as f64 / 1e9;
    rep.put("phase.solve_wall_s", s(all.wall_ns), "s");
    rep.put("phase.product_s", s(all.get(Phase::Product)), "s");
    rep.put(
        "phase.product_share",
        all.share(all.get(Phase::Product) as f64),
        "ratio",
    );
    rep.put(
        "phase.product_check_s",
        s(all.get(Phase::ProductCheck)),
        "s",
    );
    rep.put("phase.tmr_vote_s", s(all.get(Phase::TmrVote)), "s");
    rep.put("phase.step_self_s", s(all.step_self()), "s");
    rep.put("phase.checkpoint_s", s(all.get(Phase::Checkpoint)), "s");
    rep.put("phase.rollback_s", s(all.get(Phase::Rollback)), "s");
    rep.put("phase.chunk_verify_s", s(all.get(Phase::ChunkVerify)), "s");
    rep.put(
        "phase.unattributed_share",
        all.share(all.unattributed() as f64),
        "ratio",
    );
    for p in Phase::ALL {
        rep.put(
            format!("phase.calls.{}", p.name()),
            all.calls[p.index()] as f64,
            "count",
        );
    }
    let (wide, narrow) = wide_and_narrow(setup);
    for (tag, label) in [("wide", &wide), ("narrow", &narrow)] {
        let t = by_matrix.get(label).copied().unwrap_or_default();
        rep.put(
            format!("phase.product_share.{tag}"),
            t.share(t.get(Phase::Product) as f64),
            "ratio",
        );
        rep.put(
            format!("phase.product_check_share.{tag}"),
            t.share(t.get(Phase::ProductCheck) as f64),
            "ratio",
        );
        rep.put(
            format!("phase.tmr_vote_share.{tag}"),
            t.share(t.get(Phase::TmrVote) as f64),
            "ratio",
        );
        rep.put(
            format!("phase.step_self_share.{tag}"),
            t.share(t.step_self() as f64),
            "ratio",
        );
        rep.put(
            format!("phase.unattributed_share.{tag}"),
            t.share(t.unattributed() as f64),
            "ratio",
        );
    }
    eprintln!("[phases] wide = {wide}, narrow = {narrow}");
    let mut rows: Vec<(&str, &PhaseTotals)> = vec![("all", all)];
    rows.extend(by_matrix.iter().map(|(k, v)| (k.as_str(), v)));
    for (label, t) in rows {
        let pct = |ns: u64| 100.0 * t.share(ns as f64);
        eprintln!(
            "[phases] {label:>14}: wall {:.3} s = product {:.1}% + product_check {:.1}% + step_self {:.1}% \
             + tmr_vote {:.1}% + chunk_verify {:.1}% + checkpoint {:.1}% + rollback {:.1}% \
             + unattributed {:.1}%",
            s(t.wall_ns),
            pct(t.get(Phase::Product)),
            pct(t.get(Phase::ProductCheck)),
            pct(t.step_self()),
            pct(t.get(Phase::TmrVote)),
            pct(t.get(Phase::ChunkVerify)),
            pct(t.get(Phase::Checkpoint)),
            pct(t.get(Phase::Rollback)),
            100.0 * t.share(t.unattributed() as f64),
        );
    }
}

/// `--trace 1`: the layer attribution.
fn traced(w: Workload, seed: u64) -> Result<Report, String> {
    let mut rep = Report::new();
    let triad = layers::triad();
    eprintln!(
        "[host] STREAM triad: LLC {:.1} MiB, each array {:.1} MiB, {:.3} GB/s (1 thread, best of 5)",
        triad.llc_bytes as f64 / (1 << 20) as f64,
        triad.array_bytes as f64 / (1 << 20) as f64,
        triad.gbps
    );
    let (setup, _, gens, plans) = timed_setup(w, seed, setup_reps(w))?;
    let (gen_s, plan_s) = (median(&gens), median(&plans));
    let fig = layers::measure(&setup.matrices());

    let mut all = PhaseTotals::default();
    let mut by_matrix: BTreeMap<String, PhaseTotals> = BTreeMap::new();
    let mut ws = SolverWorkspace::new();
    let seed0 = setup.pass_seed(0);
    let (records, outcomes, solve_wall_s, telemetry_overhead, engine_overhead, scaling, batched);
    let solves_per_s;
    if setup.workload.engine_driven() {
        let threads = setup.spec.threads;
        let sidecar = sidecar_path(w, seed)?;
        // An untimed first pass takes the process's first-touch page
        // faults; the paired timings then run in A-B-B-A order, which
        // cancels a linear drift of the host's speed across the passes.
        let (rec_u, _) = setup.engine_pass(seed0, threads, None)?;
        let summary = setup.fold(&rec_u)?;
        let (_, wall_u1) = setup.engine_pass(seed0, threads, None)?;
        let mut traced_wall = 0.0;
        for round in 0..2 {
            let (rec_t, wall) = setup.engine_pass(seed0, threads, Some(&sidecar))?;
            traced_wall += wall;
            rep.check(setup.fold(&rec_t)? == summary, || {
                "traced and untraced engine passes fold to different summaries".into()
            });
            let mf = MetricsFile::load(&sidecar).map_err(|e| e.to_string());
            let _ = std::fs::remove_file(&sidecar);
            if round > 0 {
                continue;
            }
            let mf = mf?;
            rep.check(mf.jobs.len() == setup.total_jobs(), || {
                format!(
                    "sidecar holds {} of {} jobs",
                    mf.jobs.len(),
                    setup.total_jobs()
                )
            });
            for jp in &mf.jobs {
                let wall = jp.span.map(|s| s.end_ns - s.start_ns).unwrap_or(0);
                all.add_job(&jp.ns, &jp.calls, wall);
                by_matrix
                    .entry(setup.config_of(jp.job).key.matrix.clone())
                    .or_default()
                    .add_job(&jp.ns, &jp.calls, wall);
            }
        }
        let _ = std::fs::remove_dir(".perfbench_run");
        let (_, wall_u2) = setup.engine_pass(seed0, threads, None)?;
        let untraced_wall = wall_u1 + wall_u2;
        solves_per_s = 2.0 * setup.total_jobs() as f64 / untraced_wall;

        let (rec_1, wall_e1) = setup.engine_pass(seed0, 1, None)?;
        rep.check(setup.fold(&rec_1)? == summary, || {
            "1-worker and 2-worker engine passes fold to different summaries".into()
        });
        let (rec_d, outs, wall_d1) = direct_pass(&setup, seed0, &mut ws, |_, _, _| {});
        let same = rec_d.len() == rec_u.len()
            && rec_d
                .iter()
                .zip(&rec_u)
                .all(|((i, a), (j, b))| i == j && records_equal(a, b));
        rep.check(same, || {
            "direct-solve replay differs from the engine's records".into()
        });
        let (_, _, wall_d2) = direct_pass(&setup, seed0, &mut ws, |_, _, _| {});
        let (_, wall_e2) = setup.engine_pass(seed0, 1, None)?;
        let (engine_wall, direct_wall) = (wall_e1 + wall_e2, wall_d1 + wall_d2);
        telemetry_overhead = (traced_wall - untraced_wall) / untraced_wall;
        engine_overhead = (engine_wall - direct_wall) / engine_wall;
        scaling = engine_wall / untraced_wall;
        batched = batched_job_share(&setup);
        records = rec_u;
        outcomes = outs;
        solve_wall_s = wall_d1;
    } else {
        // Each solve runs untraced, then traced, back to back: the pair
        // shares the host's state, so the overhead is a paired figure.
        let mut rec = PhaseRecorder::default();
        let (mut rec_u, mut outs_u) = (Vec::new(), Vec::new());
        let (mut wall_u, mut wall_t, mut mismatched) = (0u64, 0u64, 0usize);
        for idx in 0..setup.total_jobs() {
            let (record_u, out_u, wu) = setup.direct_solve(seed0, idx, &mut ws, &mut NoopRecorder);
            rec.reset();
            let (record_t, out_t, wt) = setup.direct_solve(seed0, idx, &mut ws, &mut rec);
            all.add_job(&rec.ns, &rec.calls, wt);
            by_matrix
                .entry(setup.config_of(idx).key.matrix.clone())
                .or_default()
                .add_job(&rec.ns, &rec.calls, wt);
            let same_x = match (&out_t, &out_u) {
                (Some(a), Some(b)) => {
                    a.x.iter()
                        .zip(&b.x)
                        .all(|(p, q)| p.to_bits() == q.to_bits())
                }
                (None, None) => true,
                _ => false,
            };
            if !same_x || !records_equal(&record_t, &record_u) {
                mismatched += 1;
            }
            wall_u += wu;
            wall_t += wt;
            rec_u.push((idx, record_u));
            outs_u.push(out_u);
        }
        let (wall_u, wall_t) = (wall_u as f64 / 1e9, wall_t as f64 / 1e9);
        solves_per_s = setup.total_jobs() as f64 / wall_u;
        rep.check(mismatched == 0, || {
            format!("{mismatched} traced solve(s) differ from their untraced runs")
        });
        telemetry_overhead = (wall_t - wall_u) / wall_u;
        // The engine is bypassed: no engine overhead, no pool, no batching.
        engine_overhead = 0.0;
        scaling = 1.0;
        batched = 0.0;
        records = rec_u;
        outcomes = outs_u;
        solve_wall_s = wall_u;
    }
    rep.attempted = records.len() as u64;
    let v = print_verdicts(w, &setup, &records);
    rep.failed = v.errored;

    rep.put("sim.matrix_gen_s", gen_s, "s");
    rep.put("model.plan_s", plan_s, "s");
    put_phases(&mut rep, &all, &by_matrix, &setup);
    rep.put("kernels.spmv_ns_per_nnz", fig.spmv_ns_per_nnz, "ns");
    rep.put(
        "kernels.defensive_ns_per_nnz",
        fig.defensive_ns_per_nnz,
        "ns",
    );
    rep.put("kernels.spmv_gbps_computed", fig.spmv_gbps_computed, "GB/s");
    rep.put(
        "kernels.spmv_roofline_frac",
        fig.spmv_gbps_computed / triad.gbps,
        "ratio",
    );
    rep.put("kernels.spmm_ns_per_nnz_col", fig.spmm_ns_per_nnz_col, "ns");
    rep.put("abft.checksum_build_ms", fig.checksum_build_ms, "ms");
    rep.put("abft.verify_ns_per_row", fig.verify_ns_per_row, "ns");
    rep.put("abft.tmr_vote_ns_per_row", fig.tmr_vote_ns_per_row, "ns");
    rep.put("checkpoint.save_us", fig.checkpoint_save_us, "us");
    rep.put("checkpoint.restore_us", fig.checkpoint_restore_us, "us");

    let outs: Vec<&ResilientOutcome> = outcomes.iter().flatten().collect();
    let sum =
        |f: &dyn Fn(&ResilientOutcome) -> usize| outs.iter().map(|o| f(o) as f64).sum::<f64>();
    let executed = sum(&|o| o.executed_iterations);
    let productive = sum(&|o| o.productive_iterations);
    rep.put("solvers.executed_iters", executed, "count");
    rep.put(
        "solvers.useful_iter_ratio",
        productive / executed.max(1.0),
        "ratio",
    );
    rep.put("solvers.iters_per_s", executed / solve_wall_s, "1/s");
    rep.put("solvers.failed_share", v.failed_share(), "ratio");
    rep.put("solvers.escapes", v.escapes as f64, "count");
    rep.put("solvers.unconverged", v.unconverged as f64, "count");
    rep.put("solvers.errored", v.errored as f64, "count");
    rep.put("fault.injected", sum(&|o| o.ledger.len()), "count");
    rep.put(
        "fault.undetected",
        sum(&|o| o.ledger.summary().undetected),
        "count",
    );
    rep.put("abft.detections", sum(&|o| o.detections), "count");
    rep.put(
        "abft.forward_corrections",
        sum(&|o| o.forward_corrections),
        "count",
    );
    rep.put("abft.tmr_corrections", sum(&|o| o.tmr_corrections), "count");
    rep.put("engine.overhead_share", engine_overhead, "ratio");
    rep.put("engine.scaling_2t", scaling, "ratio");
    rep.put("engine.batched_job_share", batched, "ratio");
    rep.put("telemetry.overhead_share", telemetry_overhead, "ratio");
    rep.put("host.triad_gbps", triad.gbps, "GB/s");
    rep.put("solvers.solves_per_s", solves_per_s, "1/s");
    let ref_iter_s = Reference::new(setup.matrices(), setup.spec.threads).sample();
    rep.put("host.ref_iter_us", ref_iter_s * 1e6, "us");
    Ok(rep)
}

/// `--all`: every workload, end-to-end then traced, each in its own
/// process; the children's stderr (the human-readable figures) passes
/// through and their JSON lines are echoed.
fn run_all(seed: u64, seconds: f64) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        for trace in ["0", "1"] {
            eprintln!("== {} (trace {trace}) ==", w.name());
            let out = Command::new(&exe)
                .args(["--workload", w.name(), "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", trace])
                .stderr(Stdio::inherit())
                .output();
            match out {
                Ok(o) => {
                    let text = String::from_utf8_lossy(&o.stdout);
                    println!(
                        "{} trace={trace} {}",
                        w.name(),
                        text.lines().last().unwrap_or("")
                    );
                    ok &= o.status.success();
                }
                Err(e) => {
                    eprintln!("perfbench: cannot run {}: {e}", exe.display());
                    ok = false;
                }
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload table1|large_solve|mc_batched --seed N \
                 --seconds S --trace 0|1\n       perfbench --all [--seed N] [--seconds S]"
            );
            return ExitCode::from(2);
        }
    };
    if args.all {
        return run_all(args.seed, args.seconds);
    }
    let w = args.workload.expect("checked by parse_args");
    let result = if args.trace {
        traced(w, args.seed)
    } else {
        end_to_end(w, args.seed, args.seconds)
    };
    match result {
        Ok(rep) => {
            for (name, v, unit) in &rep.metrics {
                eprintln!("[{}] {name} = {v} {unit}", w.name());
            }
            for p in &rep.problems {
                eprintln!("[{}] CHECK FAILED: {p}", w.name());
            }
            println!("{}", rep.json());
            if rep.problems.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", w.name());
            ExitCode::FAILURE
        }
    }
}
