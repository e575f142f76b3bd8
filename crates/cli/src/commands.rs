//! Subcommand implementations.

use ftcg::kernels::{self, KernelRegistry, KernelSpec};
use ftcg::model::Scheme;
use ftcg::obs::{analyze, perfetto_json, render_analytics};
use ftcg::prelude::*;
use ftcg::sim::figure1::{log_grid, run_panel, Figure1Params};
use ftcg::sim::matrices::PaperMatrixResolver;
use ftcg::sim::report::{figure1_ascii, figure1_csv, table1_csv, table1_markdown};
use ftcg::sim::table1::{run_table1, Table1Params};
use ftcg::sim::PAPER_MATRICES;
use ftcg::solvers::SolverKind;
use ftcg::sparse::stats::MatrixStats;
use ftcg::telemetry::hist::DurationHist;
use ftcg::telemetry::metrics::{JobPhases, MetricsFile, MetricsWriter};
use ftcg::telemetry::report::{
    fold_report, reconcile, render_phase_quantiles, render_report, JobCounts,
};
use ftcg::telemetry::{ActiveRecorder, Event, Phase, Recorder, Trace, TraceMeta, TraceWriter};
use ftcg_engine::{
    merge_journals, run_campaign_sharded, sink, spec, CampaignSpec, JobRecord, Journal, RunOptions,
    Shard,
};

use crate::args::{matrix_source, parse_alpha, parse_or, positionals, value};
use crate::progress::ProgressLine;

/// Top-level usage text.
pub const USAGE: &str = "\
ftcg — fault-tolerant Conjugate Gradient (Fasi, Robert & Uçar, PDSEC 2015)

USAGE:
  ftcg solve    (--matrix F.mtx | --gen SPEC) [--scheme S] [--solver S] [--alpha A]
                [--seed N] [--kernel K] [--threads N] [--trace F] [--metrics F]
  ftcg stats    (--matrix F.mtx | --gen SPEC)
  ftcg campaign (--spec FILE | inline flags) [--out F.jsonl] [--csv F.csv]
                [--reps N] [--seed N] [--threads N] [--quiet]
                [--journal F.jsonl] [--resume] [--shard i/k]
                [--trace F.jsonl] [--metrics F.jsonl]
  ftcg merge    (--spec FILE | inline flags) JOURNAL... [--out F.jsonl]
                [--csv F.csv] [--reps N] [--seed N]
  ftcg report   FILE... [--spec FILE] [--perfetto OUT.json]
  ftcg bench    [--suite S] [--runs N] [--out BENCH.json] [--label S] [--pr N]
                [--against BASELINE.json] [--threshold PCT] [--warn-only]
  ftcg bench migrate LEGACY.json [--out F.json]
  ftcg bench compare NEW.json BASELINE.json [--threshold PCT] [--warn-only]
  ftcg table1   [--scale N] [--reps N] [--threads N] [--kernel K] [--solver S]
                [--journal-dir D] [--trace-dir D] [--metrics-dir D]
  ftcg figure1  [--scale N] [--reps N] [--points N] [--matrices N] [--threads N]
                [--kernel K] [--solver S] [--journal-dir D] [--trace-dir D]
                [--metrics-dir D]

GENERATORS (--gen):
  poisson2d:K              5-point Laplacian on a KxK grid
  poisson3d:K              7-point Laplacian on a KxKxK grid
  random:N:DENSITY[:SEED]  strictly dominant random SPD
  illcond:N:DENS:COND[:S]  badly scaled SPD (paper-like convergence)
  paper:ID[:SCALE]         one of the nine Table 1 matrices (e.g. 341)

OPTIONS:
  --scheme   online | detection | correction (default: correction);
             the paper's full names work too (e.g. abft-correction)
  --solver   cg | pcg | bicgstab | cgne (default: cg) — any solver
             composes with any scheme, kernel and checkpoint policy
  --alpha    expected faults/iteration, float or fraction (e.g. 1/16)
  --seed     injector / campaign seed (default 0)
  --kernel   SpMV backend: csr | csr-par[:T] | bcsr[:B] | sell[:C[:S]]
             | auto | auto:bench (default csr); `--kernel list` prints
             the catalog. `ftcg stats` prints the `auto` heuristic's
             recommendation for a matrix.
  --threads  solve: worker threads for the csr-par kernel;
             campaign/table1/figure1: engine worker-pool size
             (0 = all cores)

CAMPAIGNS:
  A campaign sweeps {matrices x schemes x alphas x solvers x kernels}
  with `--reps` repetitions per configuration, concurrently across
  worker threads, and aggregates per-configuration statistics. Same
  spec + seed => byte-identical JSONL/CSV output.

  --spec FILE   declarative spec: `key = value` lines or a JSON object
                (keys: name seed reps threads max_iters matrices schemes
                alphas solvers kernels interval). `-` reads stdin.
  Inline flags instead of a file:
    --gen SPECS --schemes LIST --alphas LIST [--solvers LIST]
    [--kernels LIST] [--interval model|fixed:N] [--name S]
    [--max-iters N]
  The `solvers` axis sweeps iteration schemes (cg, pcg, bicgstab,
  cgne); variants of one (matrix, scheme, alpha) point draw paired
  fault streams, so solver columns are directly comparable. The
  `kernels` axis sweeps SpMV backends the same way; `auto:bench` is
  rejected there because its choice is wall-clock dependent.
  --out F       write JSONL summaries (default: print to stdout)
  --csv F       also write CSV
  --quiet       suppress the progress ticker

CRASH SAFETY AND SCALE-OUT:
  --journal F   append-only per-job journal, flushed as jobs complete:
                a crash/kill costs at most the job in flight. The
                manifest line pins the grid fingerprint + seed, so a
                stale journal is rejected, never silently mixed in.
  --resume      replay completed jobs from the journal, run only the
                remainder. The resumed artifacts are byte-identical to
                an uninterrupted run. (Missing journal = fresh start,
                so one command line is crash-loop safe.)
  --shard i/k   run only shard i of k (job index mod k == i); requires
                --journal, forbids --out/--csv. k processes/machines
                with i = 0..k-1 split one spec; fold their journals
                with `ftcg merge`.
  ftcg merge    folds shard journals into the same byte-deterministic
                JSONL/CSV artifacts a single-process run of the spec
                produces. Journals are validated against the spec
                (fingerprint, seed, shape) and must cover every job.
  table1/figure1 accept --journal-dir D: one auto-resumed journal per
                (matrix, scheme) campaign under D — re-running after a
                crash skips finished repetitions.

OBSERVABILITY:
  --trace F     append-only protocol-event trace (JSONL): faults,
                detections, corrections, TMR votes, chunk verifies,
                checkpoints, rollbacks, escalations, per job. Keyed by
                (job, seq), never wall-clock, and canonicalized when
                the run completes, so the file is byte-identical across
                threads, shards, and kill/--resume cycles — and the
                campaign's JSONL/CSV artifacts are byte-identical with
                tracing on or off.
  --metrics F   non-deterministic sidecar: per-job phase wall times
                (step/product/checks/checkpoint/rollback) and merged
                log-scale duration histograms. Separate file because
                timings are not reproducible.
  table1/figure1 take --trace-dir/--metrics-dir D: one trace/sidecar
                per (matrix, scheme) campaign under D, next to its
                journal.
  ftcg report   folds any mix of trace, metrics, and journal files
                into per-configuration event and phase-time tables
                (--spec labels rows with the campaign grid), phase
                duration quantiles (p50/p90/p99 from the sidecar's
                log-scale histograms), and protocol analytics computed
                from the deterministic trace alone (detection-latency
                distribution, rollback wasted work, empirical fault
                pressure — byte-identical across threads/shards/
                resume), and reconciles trace event counts against
                journal records — exits nonzero on any mismatch.
                --perfetto OUT.json additionally writes a Chrome
                trace_event timeline (per-worker tracks, phase spans,
                fault/detect/rollback instants) for ui.perfetto.dev or
                chrome://tracing.

PERFORMANCE OBSERVATORY (ftcg bench):
  Runs a standardized suite through the real pipeline (telemetry
  enabled) and records a schema-versioned entry: host info, the exact
  suite spec, and min-of-N measurements with every raw sample kept so
  later diffs know the noise floor. Suites:
    quick        small campaign (poisson2d:24, 2 schemes x 2 alphas) —
                 seconds; the CI advisory gate
    table1       the paper's Table 1 campaign throughput suite
                 (--scale, --reps forwarded; minutes)
    kernels      SpMV microkernels, ns/nonzero: reference CSR vs
                 SELL-8 vs BCSR-2, plus the fused multi-RHS traversal
                 per column and its speedup over k separate products
    solver-step  CG state machine vs the legacy inlined loop, ns/iter
                 (warmed, pair-interleaved samples; min-of-pair ratio)
    telemetry    recording overhead: baseline vs noop vs active
    all          quick + kernels + solver-step + telemetry
  --out F        append the entry to a BENCH_*.json file (created if
                 missing); without --out the entry prints to stdout
  --against F    diff the fresh entry against F's latest entry for the
                 same suite; a measurement that moved in the worse
                 direction by more than max(--threshold, 2x observed
                 sample spread) is a regression => exit 1
  --threshold P  regression threshold percent (default 5)
  --warn-only    print the diff but always exit 0 (advisory CI gate on
                 noisy/1-core hosts; pin strict thresholds on real,
                 idle, many-core machines)
  migrate F      convert a legacy hand-written bench file to the
                 schema (one entry per recognized section), in place
                 unless --out names a different file
  compare A B    diff two recorded files without running anything
                 (deterministic exit codes: self-vs-self is 0)
";

fn load_matrix(args: &[String]) -> Result<CsrMatrix, String> {
    use ftcg_engine::MatrixResolver;
    let source = matrix_source(args)?;
    // One resolver everywhere: built-in generators + MatrixMarket files
    // + the paper's Table 1 test set (`paper:ID[:SCALE]`).
    PaperMatrixResolver
        .resolve(&source)
        .map_err(|e| e.to_string())
}

fn parse_scheme(args: &[String]) -> Result<Scheme, String> {
    // One scheme grammar for the whole workspace (accepts both the
    // short names and the paper's full spellings).
    spec::parse_scheme(value(args, "--scheme").unwrap_or("correction")).map_err(|e| e.to_string())
}

fn parse_solver_flag(args: &[String]) -> Result<SolverKind, String> {
    match value(args, "--solver") {
        None => Ok(SolverKind::Cg),
        Some(s) => SolverKind::parse(s),
    }
}

/// Prints the kernel catalog (the `--kernel list` escape hatch).
fn print_kernel_list() {
    println!("available kernels:");
    for (name, desc) in KernelRegistry::builtin().catalog() {
        println!("  {name:<10} {desc}");
    }
    println!("  (parameterized forms work too: bcsr:4, sell:16:64, csr-par:8, auto:bench)");
}

/// Parses a directory-valued flag (`--journal-dir`, `--trace-dir`,
/// `--metrics-dir`) for the experiment commands, creating the directory
/// so the per-(matrix, scheme) files have somewhere to land on first
/// use.
fn parse_dir_flag(args: &[String], flag: &str) -> Result<Option<std::path::PathBuf>, String> {
    match value(args, flag) {
        None => Ok(None),
        Some(d) => {
            std::fs::create_dir_all(d).map_err(|e| format!("{flag} {d}: {e}"))?;
            Ok(Some(std::path::PathBuf::from(d)))
        }
    }
}

/// The three telemetry/journal directories of `table1`/`figure1`.
fn parse_experiment_dirs(args: &[String]) -> Result4Dirs {
    match (
        parse_dir_flag(args, "--journal-dir"),
        parse_dir_flag(args, "--trace-dir"),
        parse_dir_flag(args, "--metrics-dir"),
    ) {
        (Ok(j), Ok(t), Ok(m)) => Ok((j, t, m)),
        (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => Err(e),
    }
}

type OptDir = Option<std::path::PathBuf>;
type Result4Dirs = Result<(OptDir, OptDir, OptDir), String>;

/// Parses `--kernel` as given; thread-count policy is per command
/// (`solve` feeds `--threads` into the kernel, the experiment commands
/// reserve `--threads` for the engine worker pool).
fn parse_kernel_flag(args: &[String]) -> Result<KernelSpec, String> {
    match value(args, "--kernel") {
        None => Ok(KernelSpec::Csr),
        Some(s) => KernelSpec::parse(s).map_err(|e| e.to_string()),
    }
}

/// `ftcg solve`.
pub fn solve(args: &[String]) -> i32 {
    if value(args, "--kernel") == Some("list") {
        print_kernel_list();
        return 0;
    }
    let result = (|| -> Result<(), String> {
        let a = load_matrix(args)?;
        if !a.is_square() {
            return Err("matrix must be square".into());
        }
        let scheme = parse_scheme(args)?;
        let solver = parse_solver_flag(args)?;
        if solver == SolverKind::Pcg && a.diag().contains(&0.0) {
            // Surface the Jacobi precondition as a diagnostic, not the
            // machine constructor's panic.
            return Err(
                "matrix has a zero diagonal entry; the Jacobi preconditioner \
                 (--solver pcg) is undefined — pick another solver"
                    .into(),
            );
        }
        let alpha = match value(args, "--alpha") {
            Some(s) => parse_alpha(s).ok_or_else(|| format!("bad --alpha `{s}`"))?,
            None => 0.0,
        };
        let seed: u64 = parse_or(args, "--seed", 0u64);
        // Pin `auto` here so the banner names the backend that runs;
        // `--threads` applies after resolution so it reaches a csr-par
        // backend the heuristic picked, not just an explicit one.
        let kernel =
            parse_kernel_flag(args)?
                .resolve(&a)
                .with_threads(parse_or(args, "--threads", 0usize));
        let n = a.n_rows();
        let b = vec![1.0; n];
        eprintln!(
            "solving: n={n} nnz={} scheme={} solver={} alpha={alpha} seed={seed} kernel={}",
            a.nnz(),
            scheme.name(),
            solver.label(),
            kernel.label()
        );
        let mut builder = ftcg::ResilientCg::new(&a)
            .scheme(scheme)
            .solver(solver)
            .seed(seed)
            .kernel(kernel);
        if alpha > 0.0 {
            builder = builder.fault_alpha(alpha);
        }
        let trace = value(args, "--trace").map(std::path::PathBuf::from);
        let metrics = value(args, "--metrics").map(std::path::PathBuf::from);
        let mut recorder = (trace.is_some() || metrics.is_some()).then(ActiveRecorder::new);
        let out = match recorder.as_mut() {
            Some(rec) => {
                rec.event(Event::job_start());
                let out = builder.solve_recorded(&b, rec);
                rec.finish_job(
                    out.executed_iterations as u64,
                    out.productive_iterations as u64,
                    out.converged,
                );
                out
            }
            None => builder.solve(&b),
        };
        if let Some(rec) = recorder.as_mut() {
            // A one-job "campaign": job 0, rep 1, identified by the
            // injector seed. Unlike campaign traces these are one-shot
            // files, so an existing one is replaced, not resumed.
            let meta = TraceMeta {
                name: "solve".into(),
                fingerprint: 0,
                seed,
                reps: 1,
                total_jobs: 1,
            };
            let tele = rec.drain(0);
            if let Some(path) = &trace {
                let _ = std::fs::remove_file(path);
                let mut w = TraceWriter::create(path, &meta)?;
                w.append_job(0, &tele.events)?;
                drop(w);
                ftcg::telemetry::trace::canonicalize(path)?;
                eprintln!("wrote trace {}", path.display());
            }
            if let Some(path) = &metrics {
                let _ = std::fs::remove_file(path);
                let mut w = MetricsWriter::create(path, &meta)?;
                w.append_job(&tele)?;
                w.finish()?;
                eprintln!("wrote metrics {}", path.display());
            }
        }
        println!("converged            {}", out.converged);
        println!("productive iters     {}", out.productive_iterations);
        println!("executed iters       {}", out.executed_iterations);
        println!("simulated time       {:.1} Titer", out.simulated_time);
        println!("checkpoints          {}", out.checkpoints);
        println!("rollbacks            {}", out.rollbacks);
        println!(
            "corrections          {} (ABFT {}, TMR {})",
            out.forward_corrections + out.tmr_corrections,
            out.forward_corrections,
            out.tmr_corrections
        );
        println!("injected faults      {}", out.ledger.len());
        let s = out.ledger.summary();
        println!(
            "fault outcomes       corrected {} / rolled-back {} / undetected {}",
            s.corrected, s.rolled_back, s.undetected
        );
        println!("true residual        {:.3e}", out.true_residual);
        if !out.converged {
            return Err("did not converge".into());
        }
        Ok(())
    })();
    match result {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

/// `ftcg stats`.
pub fn stats(args: &[String]) -> i32 {
    if value(args, "--kernel") == Some("list") {
        print_kernel_list();
        return 0;
    }
    match load_matrix(args) {
        Ok(a) => {
            let st = MatrixStats::compute(&a);
            println!("{}", st.summary_line());
            println!(
                "memory words (fault-model M contribution): {}",
                st.memory_words
            );
            // The same decision the `auto` kernel makes, with its why —
            // derived from the statistics printed above plus the block
            // fill ratios.
            let rec = kernels::recommend(&a);
            println!(
                "kernel recommendation: {} — {}",
                rec.spec.label(),
                rec.reason
            );
            0
        }
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

/// Grid-axis flags: the inline alternative to a `--spec` file.
const GRID_FLAGS: [&str; 8] = [
    "--gen",
    "--schemes",
    "--alphas",
    "--solvers",
    "--kernels",
    "--interval",
    "--name",
    "--max-iters",
];

/// Every value-taking flag of the campaign/merge grammar (grid flags,
/// `campaign_spec` overrides, artifact/journal destinations). `ftcg
/// merge` skips exactly these (and their values) when collecting its
/// positional journal paths — one list, so a flag added to the grammar
/// can never be half-parsed as a journal path.
fn campaign_value_flags() -> Vec<&'static str> {
    let mut flags = GRID_FLAGS.to_vec();
    flags.extend([
        "--spec",
        "--reps",
        "--seed",
        "--threads",
        "--out",
        "--csv",
        "--journal",
        "--shard",
        "--trace",
        "--metrics",
        "--perfetto",
    ]);
    flags
}

fn campaign_spec(args: &[String]) -> Result<CampaignSpec, String> {
    let mut cs = if let Some(path) = value(args, "--spec") {
        // Grid flags only apply to inline campaigns; silently ignoring
        // them next to --spec would let users run the wrong grid.
        if let Some(flag) = GRID_FLAGS.iter().find(|f| args.iter().any(|a| a == *f)) {
            return Err(format!(
                "{flag} cannot be combined with --spec (edit the spec file instead; \
                 only --reps/--seed/--threads override a file)"
            ));
        }
        let text = if path == "-" {
            use std::io::Read;
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .map_err(|e| format!("stdin: {e}"))?;
            buf
        } else {
            std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?
        };
        CampaignSpec::parse(&text).map_err(|e| e.to_string())?
    } else {
        // Inline flags. List flags use the engine's list grammar
        // (trimmed, trailing commas harmless) — same as spec files.
        let gens = value(args, "--gen")
            .ok_or_else(|| "need --spec FILE or --gen SPECS (try `ftcg help`)".to_string())?;
        let mut cs = CampaignSpec {
            matrices: spec::split_list(gens)
                .map(|s| spec::MatrixSource::parse(s).map_err(|e| e.to_string()))
                .collect::<Result<_, _>>()?,
            ..CampaignSpec::default()
        };
        cs.name = value(args, "--name").unwrap_or("campaign").to_string();
        if let Some(list) = value(args, "--schemes") {
            cs.schemes = spec::split_list(list)
                .map(spec::parse_scheme)
                .collect::<Result<_, _>>()
                .map_err(|e| e.to_string())?;
        }
        if let Some(list) = value(args, "--alphas") {
            cs.alphas = spec::split_list(list)
                .map(spec::parse_alpha)
                .collect::<Result<_, _>>()
                .map_err(|e| e.to_string())?;
        }
        if let Some(list) = value(args, "--solvers") {
            cs.solvers = spec::split_list(list)
                .map(spec::parse_solver)
                .collect::<Result<_, _>>()
                .map_err(|e| e.to_string())?;
        }
        if let Some(list) = value(args, "--kernels") {
            cs.kernels = spec::split_list(list)
                .map(spec::parse_kernel)
                .collect::<Result<_, _>>()
                .map_err(|e| e.to_string())?;
        }
        cs.max_iters = parse_strict(args, "--max-iters", cs.max_iters)?;
        if let Some(iv) = value(args, "--interval") {
            cs.interval = spec::parse_interval(iv).map_err(|e| e.to_string())?;
        }
        cs
    };
    // Command-line overrides apply to file specs too. A malformed value
    // is a hard error — silently running the spec's value would produce
    // an artifact the user believes came from different parameters.
    cs.reps = parse_strict(args, "--reps", cs.reps)?;
    cs.seed = parse_strict(args, "--seed", cs.seed)?;
    cs.threads = parse_strict(args, "--threads", cs.threads)?;
    Ok(cs)
}

/// Like [`parse_or`], but a present-yet-unparseable value errors
/// instead of silently keeping the default.
fn parse_strict<T: std::str::FromStr>(
    args: &[String],
    flag: &str,
    default: T,
) -> Result<T, String> {
    match value(args, flag) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad {flag} `{v}`")),
    }
}

/// Writes campaign summaries to `--out`/`--csv` (stdout by default).
fn write_artifacts(
    args: &[String],
    summaries: &[ftcg_engine::ConfigSummary],
) -> Result<(), String> {
    match value(args, "--out") {
        Some(path) => {
            sink::save_jsonl(path, summaries).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        None => {
            print!("{}", sink::jsonl_string(summaries));
        }
    }
    if let Some(path) = value(args, "--csv") {
        sink::save_csv(path, summaries).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

/// `ftcg campaign`.
pub fn campaign(args: &[String]) -> i32 {
    let result = (|| -> Result<(), String> {
        let cs = campaign_spec(args)?;
        let quiet = args.iter().any(|a| a == "--quiet");
        let resume = args.iter().any(|a| a == "--resume");
        let shard = match value(args, "--shard") {
            None => Shard::FULL,
            Some(s) => Shard::parse(s).map_err(|e| e.to_string())?,
        };
        let journal = value(args, "--journal").map(std::path::PathBuf::from);
        if resume && journal.is_none() {
            return Err("--resume requires --journal FILE (nothing to replay)".into());
        }
        if shard.count > 1 {
            if journal.is_none() {
                return Err(
                    "--shard requires --journal FILE: a shard's artifact is its journal; \
                     fold the shards with `ftcg merge`"
                        .into(),
                );
            }
            if value(args, "--out").is_some() || value(args, "--csv").is_some() {
                return Err(
                    "--out/--csv cannot be combined with --shard (partial summaries would \
                     not be the campaign's artifacts); fold the shard journals with \
                     `ftcg merge` instead"
                        .into(),
                );
            }
        }
        eprintln!(
            "campaign `{}`: {} configurations x {} reps = {} jobs (seed {}, shard {})",
            cs.name,
            cs.n_configs(),
            cs.reps,
            cs.n_jobs(),
            cs.seed,
            shard.label(),
        );
        let trace = value(args, "--trace").map(std::path::PathBuf::from);
        let metrics = value(args, "--metrics").map(std::path::PathBuf::from);
        let ticker = ProgressLine::new();
        let opts = RunOptions {
            shard,
            journal: journal.as_deref(),
            resume,
            progress: if quiet { None } else { Some(&ticker) },
            trace: trace.as_deref(),
            metrics: metrics.as_deref(),
            ..RunOptions::default()
        };
        let (outcome, folded) =
            run_campaign_sharded(&cs, &PaperMatrixResolver, &opts).map_err(|e| e.to_string())?;
        if let Some(path) = &journal {
            eprintln!(
                "journal {}: {} job(s) replayed, {} executed",
                path.display(),
                outcome.replayed,
                outcome.executed
            );
        }
        if let Some(path) = &trace {
            eprintln!("wrote trace {}", path.display());
        }
        if let Some(path) = &metrics {
            eprintln!("wrote metrics {}", path.display());
        }
        let failed = outcome
            .records
            .iter()
            .filter(|(_, r)| matches!(r, JobRecord::Failed(_)))
            .count();
        match folded {
            Some(result) => {
                write_artifacts(args, &result.summaries)?;
                eprintln!(
                    "{} jobs on {} threads in {:.2}s",
                    result.total_jobs, result.threads, result.elapsed_secs
                );
            }
            None => {
                eprintln!(
                    "shard {} complete: {} of {} jobs journaled ({} threads, {:.2}s); \
                     fold all shards with `ftcg merge`",
                    shard.label(),
                    outcome.records.len(),
                    outcome.manifest.total_jobs,
                    outcome.threads,
                    outcome.elapsed_secs
                );
            }
        }
        // Degraded artifacts are still written (for debugging), but a
        // campaign with failed jobs is not a successful reproduction —
        // scripts must see a failing exit code.
        if failed > 0 {
            return Err(format!(
                "{failed} job(s) failed (panic or NaN-poisoned metrics); summaries cover \
                 the surviving repetitions only"
            ));
        }
        Ok(())
    })();
    match result {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

/// `ftcg merge` — folds shard journals into the campaign's artifacts.
pub fn merge(args: &[String]) -> i32 {
    let result = (|| -> Result<(), String> {
        let cs = campaign_spec(args)?;
        // Journal paths are the positional arguments; every value flag
        // the campaign grammar understands is skipped with its value.
        let journals = positionals(args, &campaign_value_flags());
        if journals.is_empty() {
            return Err(
                "need at least one journal: ftcg merge --spec FILE shard0.jsonl shard1.jsonl ..."
                    .into(),
            );
        }
        let merged =
            merge_journals(&cs, &PaperMatrixResolver, &journals).map_err(|e| e.to_string())?;
        write_artifacts(args, &merged.summaries)?;
        eprintln!(
            "merged {} journal(s) covering {} jobs",
            journals.len(),
            merged.total_jobs
        );
        if merged.panics > 0 {
            return Err(format!(
                "{} job(s) failed (panic or NaN-poisoned metrics); summaries cover the \
                 surviving repetitions only",
                merged.panics
            ));
        }
        Ok(())
    })();
    match result {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

/// Reads the first line of a telemetry/journal file (for
/// classification by its header key).
fn first_line(path: &std::path::Path) -> Result<String, String> {
    use std::io::{BufRead, BufReader};
    let f = std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut line = String::new();
    BufReader::new(f)
        .read_line(&mut line)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(line)
}

/// Builds one display label per configuration from the campaign spec,
/// validating the grid against the telemetry header identity.
fn report_labels(args: &[String], meta: &TraceMeta) -> Result<Vec<String>, String> {
    let n_configs = meta.total_jobs / meta.reps.max(1);
    if value(args, "--spec").is_none() && !args.iter().any(|a| a == "--gen") {
        return Ok((0..n_configs).map(|i| format!("config {i}")).collect());
    }
    let cs = campaign_spec(args)?;
    let jobs = ftcg_engine::grid::expand(&cs, &PaperMatrixResolver).map_err(|e| e.to_string())?;
    let fp = ftcg_engine::journal::fingerprint(&cs.name, cs.seed, cs.reps, &jobs);
    if fp != meta.fingerprint || cs.reps != meta.reps {
        return Err(format!(
            "spec does not match the telemetry files (spec fingerprint {fp:#018x}, \
             file header {:#018x}) — pass the spec the campaign actually ran",
            meta.fingerprint
        ));
    }
    Ok(jobs
        .iter()
        .map(|j| {
            format!(
                "{} {} a={} {} {}",
                j.key.matrix,
                j.key.scheme.name(),
                j.key.alpha,
                j.key.solver.label(),
                j.key.kernel
            )
        })
        .collect())
}

/// `ftcg report` — folds traces, metrics sidecars, and journals into
/// per-configuration tables and reconciles trace counts against
/// journal records.
pub fn report(args: &[String]) -> i32 {
    use std::collections::BTreeMap;
    let result = (|| -> Result<(), String> {
        let files = positionals(args, &campaign_value_flags());
        if files.is_empty() {
            return Err(
                "need at least one file: ftcg report run.trace.jsonl [run.metrics.jsonl] \
                 [run.jsonl] [--spec FILE]"
                    .into(),
            );
        }
        // Classify each positional file by its header line; any mix of
        // traces (shards merge), metrics sidecars, and journals works.
        let mut traces: Vec<Trace> = Vec::new();
        let mut metrics_files: Vec<MetricsFile> = Vec::new();
        let mut journals: Vec<Journal> = Vec::new();
        for path in &files {
            let p = std::path::Path::new(path);
            let head = first_line(p)?;
            if head.contains("\"ftcg_trace\"") {
                traces.push(Trace::load(p)?);
            } else if head.contains("\"ftcg_metrics\"") {
                metrics_files.push(MetricsFile::load(p)?);
            } else if head.contains("\"ftcg_journal\"") {
                journals.push(Journal::load(p).map_err(|e| e.to_string())?);
            } else {
                return Err(format!(
                    "{path}: not a ftcg trace, metrics sidecar, or journal \
                     (unrecognized header line)"
                ));
            }
        }
        let merged_trace = if traces.is_empty() {
            None
        } else {
            Some(Trace::merge(traces)?)
        };
        // One campaign identity across every telemetry file.
        let mut meta: Option<TraceMeta> = merged_trace.as_ref().map(|t| t.meta.clone());
        let mut by_job: BTreeMap<usize, JobPhases> = BTreeMap::new();
        for mf in &metrics_files {
            match &meta {
                None => meta = Some(mf.meta.clone()),
                Some(m) if *m != mf.meta => {
                    return Err(format!(
                        "metrics sidecar for campaign `{}` does not match the other \
                         telemetry files (campaign `{}`)",
                        mf.meta.name, m.name
                    ));
                }
                _ => {}
            }
            for jp in &mf.jobs {
                by_job.insert(jp.job, jp.clone()); // later files win
            }
        }
        let metrics_jobs: Vec<JobPhases> = by_job.into_values().collect();
        let meta = meta
            .ok_or("need at least one trace or metrics file (journals alone carry no telemetry)")?;
        for j in &journals {
            let m = &j.manifest;
            if m.name != meta.name
                || m.fingerprint != meta.fingerprint
                || m.seed != meta.seed
                || m.reps != meta.reps
                || m.total_jobs != meta.total_jobs
            {
                return Err(format!(
                    "journal for campaign `{}` (fingerprint {:#018x}) does not match the \
                     telemetry files (campaign `{}`, fingerprint {:#018x})",
                    m.name, m.fingerprint, meta.name, meta.fingerprint
                ));
            }
        }
        let labels = report_labels(args, &meta)?;
        let trace_events = match &merged_trace {
            Some(t) => t.parsed()?,
            None => Vec::new(),
        };
        let rows = fold_report(&labels, meta.reps, &trace_events, &metrics_jobs)?;
        print!("{}", render_report(&rows));
        // Phase duration quantiles from the sidecars' merged summary
        // histograms (p50/p90/p99 at log2-bucket resolution).
        let mut merged_hist: Option<[DurationHist; Phase::COUNT]> = None;
        for mf in &metrics_files {
            if let Some(h) = &mf.hist {
                let acc = merged_hist.get_or_insert([DurationHist::new(); Phase::COUNT]);
                for (a, b) in acc.iter_mut().zip(h.iter()) {
                    a.merge(b);
                }
            }
        }
        if let Some(h) = &merged_hist {
            if h.iter().any(|d| !d.is_empty()) {
                print!("\n{}", render_phase_quantiles(h));
            }
        }
        // Protocol analytics need only the deterministic trace, so the
        // tables are byte-identical across any decomposition of the run.
        if merged_trace.is_some() {
            let analytics = analyze(&labels, meta.reps, &trace_events)?;
            print!("\n{}", render_analytics(&analytics));
        }
        // Perfetto / chrome://tracing timeline: trace instants placed
        // inside the sidecar's wall-clock job spans.
        if let Some(path) = value(args, "--perfetto") {
            let text = perfetto_json(&meta.name, &trace_events, &metrics_jobs);
            std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
            eprintln!(
                "wrote perfetto timeline {path} (open in ui.perfetto.dev or chrome://tracing)"
            );
        }
        // Reconcile trace event counts against journal records when both
        // sides are present; any disagreement is a failing exit code.
        if merged_trace.is_some() && !journals.is_empty() {
            let mut counts: BTreeMap<usize, JobCounts> = BTreeMap::new();
            for j in &journals {
                for (idx, rec) in &j.records {
                    if let JobRecord::Done(m) = rec {
                        counts.insert(
                            *idx,
                            JobCounts {
                                faults: m.faults as u64,
                                rollbacks: m.rollbacks as u64,
                                corrections: m.corrections as u64,
                                converged: m.converged,
                            },
                        );
                    }
                }
            }
            let rec = reconcile(&trace_events, &counts);
            eprintln!(
                "reconciliation: {} job(s) ok, {} skipped (ring overflow), {} mismatch(es)",
                rec.jobs_ok,
                rec.jobs_skipped,
                rec.mismatches.len()
            );
            if !rec.ok() {
                for m in rec.mismatches.iter().take(10) {
                    eprintln!("  {m}");
                }
                if rec.mismatches.len() > 10 {
                    eprintln!("  ... and {} more", rec.mismatches.len() - 10);
                }
                return Err("trace does not reconcile with the journal records".into());
            }
        }
        Ok(())
    })();
    match result {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

/// `ftcg table1`.
pub fn table1(args: &[String]) -> i32 {
    if value(args, "--kernel") == Some("list") {
        print_kernel_list();
        return 0;
    }
    let kernel = match parse_kernel_flag(args) {
        Ok(k) => k,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let solver = match parse_solver_flag(args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let (journal_dir, trace_dir, metrics_dir) = match parse_experiment_dirs(args) {
        Ok(dirs) => dirs,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let params = Table1Params {
        scale: parse_or(args, "--scale", 32),
        reps: parse_or(args, "--reps", 20),
        threads: parse_or(args, "--threads", 8),
        kernel,
        solver,
        journal_dir,
        trace_dir,
        metrics_dir,
        ..Table1Params::default()
    };
    eprintln!(
        "Table 1: scale=1/{}, reps={}, alpha=1/16, solver={}, kernel={}",
        params.scale,
        params.reps,
        params.solver.label(),
        params.kernel.label()
    );
    let rows = run_table1(&PAPER_MATRICES, &params);
    println!("{}", table1_markdown(&rows));
    std::fs::write("table1.csv", table1_csv(&rows)).ok();
    eprintln!("wrote table1.csv");
    0
}

/// `ftcg figure1`.
pub fn figure1(args: &[String]) -> i32 {
    if value(args, "--kernel") == Some("list") {
        print_kernel_list();
        return 0;
    }
    let kernel = match parse_kernel_flag(args) {
        Ok(k) => k,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let solver = match parse_solver_flag(args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let (journal_dir, trace_dir, metrics_dir) = match parse_experiment_dirs(args) {
        Ok(dirs) => dirs,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let params = Figure1Params {
        scale: parse_or(args, "--scale", 32),
        reps: parse_or(args, "--reps", 20),
        mtbf_grid: log_grid(2e1, 2e4, parse_or(args, "--points", 6)),
        threads: parse_or(args, "--threads", 8),
        kernel,
        solver,
        journal_dir,
        trace_dir,
        metrics_dir,
        ..Figure1Params::default()
    };
    let n_matrices = parse_or(args, "--matrices", PAPER_MATRICES.len());
    let mut panels = Vec::new();
    for spec in PAPER_MATRICES.iter().take(n_matrices) {
        eprintln!("running matrix #{} ...", spec.id);
        let panel = run_panel(spec, &params);
        println!("{}", figure1_ascii(&panel, 64, 14));
        panels.push(panel);
    }
    std::fs::write("figure1.csv", figure1_csv(&panels)).ok();
    eprintln!("wrote figure1.csv");
    0
}
