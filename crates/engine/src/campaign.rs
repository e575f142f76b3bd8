//! Campaign orchestration: spec → configs → jobs → pool → summaries.
//!
//! Execution is organized around the crash-safe journal (see
//! [`crate::journal`]): a campaign is a set of jobs identified by
//! *global job index* (`config × reps + rep`), each job is a pure
//! function of its configuration and derived seed, and a run executes
//! some subset of the index space — everything (the classic path), one
//! shard of `k` (`--shard i/k`), or the not-yet-journaled remainder
//! (`--resume`). Summaries are *folded* from `(job_index, record)`
//! pairs in index order, never in completion order, so every
//! decomposition of a campaign into threads, shards, processes, and
//! resumed sessions produces byte-identical artifacts.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use ftcg_fault::Injector;
use ftcg_solvers::resilient::{solve_resilient_in, solve_resilient_recorded};
use ftcg_telemetry::metrics::MetricsWriter;
use ftcg_telemetry::{Event, JobSpan, Recorder, TraceMeta, TraceWriter};
use parking_lot::Mutex;

use crate::aggregate::{Aggregator, ConfigSummary, JobMetrics};
use crate::grid::{expand, ConfigJob, InjectorSpec};
use crate::inject::{calibrated_injector, paper_injector};
use crate::journal::{
    fingerprint, records_equal, JobRecord, Journal, JournalWriter, Manifest, Shard,
};
use crate::pool::{effective_threads, panic_message, run_indices_ctx, ProgressFn};
use crate::seedstream::derive_seed;
use crate::spec::{BatchPolicy, CampaignSpec, MatrixResolver};
use crate::workspace::JobWorkspace;
use crate::EngineError;

/// The outcome of a campaign run.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Campaign name.
    pub name: String,
    /// Per-configuration summaries, in grid order.
    pub summaries: Vec<ConfigSummary>,
    /// Jobs executed (configurations × repetitions).
    pub total_jobs: usize,
    /// Jobs lost to panics or NaN-poisoned metrics.
    pub panics: usize,
    /// Worker threads used (0 when folded from journals only).
    pub threads: usize,
    /// Wall-clock seconds (not part of any serialized artifact —
    /// artifacts stay byte-deterministic).
    pub elapsed_secs: f64,
}

/// How a campaign run is decomposed and journaled.
#[derive(Clone, Copy)]
pub struct RunOptions<'a> {
    /// The slice of the job space this process runs.
    pub shard: Shard,
    /// Append-only journal to write as jobs complete (and to replay on
    /// resume). `None` keeps the classic in-memory-only path.
    pub journal: Option<&'a Path>,
    /// Replay completed jobs from an existing journal and run only the
    /// remainder. Without this flag, an existing journal file is an
    /// error (stale journals are never silently overwritten); with it,
    /// a missing journal file simply starts fresh — so one command line
    /// is idempotent across crashes.
    pub resume: bool,
    /// Progress callback over the jobs this process actually executes.
    pub progress: Option<ProgressFn<'a>>,
    /// Deterministic protocol-event trace (JSONL) to append as jobs
    /// complete. Follows the journal's crash discipline — a job's trace
    /// block is flushed *before* its journal record, so a journal
    /// record always implies a durable trace block — and is rewritten
    /// in canonical `(job, seq)` order when the run completes, making
    /// the file byte-identical across threads, shards, and resumes.
    pub trace: Option<&'a Path>,
    /// Non-deterministic phase-timing sidecar (JSONL): per-job phase
    /// wall times and merged duration histograms. Kept separate from
    /// the trace precisely because timings are not reproducible.
    pub metrics: Option<&'a Path>,
    /// The spec's retired `batch` key. Every policy runs one repetition
    /// per pool job (see [`BatchPolicy`]), so it has no effect on
    /// execution or artifacts.
    pub batch: BatchPolicy,
}

impl Default for RunOptions<'_> {
    fn default() -> Self {
        RunOptions {
            shard: Shard::FULL,
            journal: None,
            resume: false,
            progress: None,
            trace: None,
            metrics: None,
            batch: BatchPolicy::Auto,
        }
    }
}

/// What one process contributed to a campaign: the records of its
/// shard (replayed + freshly executed), with the manifest identifying
/// the campaign they belong to.
#[derive(Debug)]
pub struct ShardOutcome {
    /// The identity this run (and its journal, if any) carries.
    pub manifest: Manifest,
    /// All records this process knows for its shard, sorted by job
    /// index.
    pub records: Vec<(usize, JobRecord)>,
    /// Records replayed from the journal instead of executed.
    pub replayed: usize,
    /// Jobs actually executed by this process.
    pub executed: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock seconds.
    pub elapsed_secs: f64,
}

/// Builds the fault injector one repetition would use — the single
/// place the (injector spec, α, seed) → injector mapping lives, shared
/// by the untraced and traced paths so both draw identical fault
/// streams.
fn injector_for(job: &ConfigJob, seed: u64) -> Option<Injector> {
    let a = job.matrix.as_ref();
    let alpha = job.key.alpha;
    match job.injector {
        InjectorSpec::Paper if alpha > 0.0 => Some(paper_injector(a, alpha, seed)),
        InjectorSpec::Calibrated if alpha > 0.0 => Some(calibrated_injector(a, alpha, seed)),
        _ => None,
    }
}

/// Runs one repetition of one configuration with a derived seed,
/// drawing all solve-scoped memory from the worker's retained
/// workspace (bit-identical to fresh allocation — the reuse contract).
fn run_one(job: &ConfigJob, seed: u64, ws: &mut JobWorkspace) -> JobMetrics {
    let a = job.matrix.as_ref();
    let sw = ws.solver_workspace();
    let out = match injector_for(job, seed) {
        Some(mut inj) => solve_resilient_in(a, &job.rhs, &job.cfg, Some(&mut inj), sw),
        None => solve_resilient_in(a, &job.rhs, &job.cfg, None, sw),
    };
    JobMetrics::from(&out)
}

/// [`run_one`] with the worker's [`ActiveRecorder`] threaded through
/// the solve: resets the recorder, brackets the solve with
/// `job_start`/`job_finish` events, and leaves the drained-but-pending
/// telemetry in the recorder for the campaign loop to flush. Identical
/// solve results to [`run_one`] — the recorder never influences
/// control flow (pinned by the solvers crate's bit-identity test).
///
/// [`ActiveRecorder`]: ftcg_telemetry::ActiveRecorder
fn run_one_traced(job: &ConfigJob, seed: u64, ws: &mut JobWorkspace) -> JobMetrics {
    let a = job.matrix.as_ref();
    let (sw, rec) = ws.solver_and_recorder();
    rec.reset();
    rec.event(Event::job_start());
    let out = match injector_for(job, seed) {
        Some(mut inj) => solve_resilient_recorded(a, &job.rhs, &job.cfg, Some(&mut inj), sw, rec),
        None => solve_resilient_recorded(a, &job.rhs, &job.cfg, None, sw, rec),
    };
    rec.finish_job(
        out.executed_iterations as u64,
        out.productive_iterations as u64,
        out.converged,
    );
    JobMetrics::from(&out)
}

/// Opens the deterministic trace file under the same create/resume
/// rules as the journal: an existing file without `resume` is an
/// error, a resumed file must carry this campaign's header (torn tails
/// are truncated), and a file killed before its header became durable
/// is started fresh.
fn open_trace(path: &Path, meta: &TraceMeta, resume: bool) -> Result<TraceWriter, EngineError> {
    if resume && path.exists() {
        if !Journal::is_unstarted(path)? {
            let (w, _prior) =
                TraceWriter::resume(path, meta).map_err(|e| EngineError::Telemetry(e.into()))?;
            return Ok(w);
        }
        std::fs::remove_file(path)
            .map_err(|e| EngineError::Telemetry(format!("{}: {e}", path.display())))?;
    }
    TraceWriter::create(path, meta).map_err(|e| EngineError::Telemetry(e.into()))
}

/// Opens the phase-timing sidecar; same rules as [`open_trace`].
fn open_metrics(path: &Path, meta: &TraceMeta, resume: bool) -> Result<MetricsWriter, EngineError> {
    if resume && path.exists() {
        if !Journal::is_unstarted(path)? {
            return MetricsWriter::resume(path, meta).map_err(|e| EngineError::Telemetry(e.into()));
        }
        std::fs::remove_file(path)
            .map_err(|e| EngineError::Telemetry(format!("{}: {e}", path.display())))?;
    }
    MetricsWriter::create(path, meta).map_err(|e| EngineError::Telemetry(e.into()))
}

/// A repetition whose aggregate metrics are non-finite is a *failed*
/// repetition (folded into the `panics` column), not a poison pill for
/// the whole campaign's statistics. `true_residual` is exempt: a NaN
/// residual on a diverged-but-completed solve deliberately poisons the
/// `max_true_residual` column only.
fn failure_reason(m: &JobMetrics) -> Option<String> {
    if !m.simulated_time.is_finite() {
        return Some(format!(
            "non-finite simulated_time ({}): NaN-poisoned metrics count as a \
             failed repetition",
            m.simulated_time
        ));
    }
    None
}

/// Executes one shard of a campaign's job space, optionally journaled.
///
/// Job results are deterministic functions of `(configs, campaign_seed,
/// job_index)`; neither the shard decomposition, the thread count, nor
/// a resume boundary can change a single record.
pub fn run_configs_sharded(
    name: &str,
    campaign_seed: u64,
    reps: usize,
    threads: usize,
    configs: &[ConfigJob],
    opts: &RunOptions<'_>,
) -> Result<ShardOutcome, EngineError> {
    let started = Instant::now();
    // reps = 0 would "succeed" with one all-zero row per configuration —
    // a complete-looking but fabricated result table. Fail loudly, like
    // the declarative path does via EmptyGrid.
    assert!(reps >= 1, "run_configs: reps must be >= 1");
    let total = configs.len() * reps;
    let manifest = Manifest {
        name: name.to_string(),
        fingerprint: fingerprint(name, campaign_seed, reps, configs),
        seed: campaign_seed,
        reps,
        total_jobs: total,
        shard: opts.shard,
    };
    let mut replayed_records: Vec<(usize, JobRecord)> = Vec::new();
    let writer: Option<Mutex<JournalWriter>> = match opts.journal {
        None => None,
        Some(path) if opts.resume && path.exists() && Journal::is_unstarted(path)? => {
            // A kill during journal creation (before the manifest line
            // became durable) leaves an empty or torn-manifest file with
            // nothing to replay; resume must start fresh, not wedge.
            std::fs::remove_file(path)
                .map_err(|e| EngineError::Journal(format!("{}: {e}", path.display())))?;
            Some(Mutex::new(JournalWriter::create(path, &manifest)?))
        }
        Some(path) if opts.resume && path.exists() => {
            let journal = Journal::load(path)?;
            journal
                .manifest
                .ensure_matches(&manifest, true)
                .map_err(|m| EngineError::Journal(format!("{}: {m}", path.display())))?;
            let w = JournalWriter::resume(path, &journal)?;
            replayed_records = journal.records;
            Some(Mutex::new(w))
        }
        Some(path) => Some(Mutex::new(JournalWriter::create(path, &manifest)?)),
    };
    // Telemetry sinks carry the shard-free campaign identity so shard
    // traces of one campaign share a header and merge cleanly.
    let trace_meta = TraceMeta {
        name: manifest.name.clone(),
        fingerprint: manifest.fingerprint,
        seed: manifest.seed,
        reps: manifest.reps,
        total_jobs: manifest.total_jobs,
    };
    let tracer: Option<Mutex<TraceWriter>> = match opts.trace {
        None => None,
        Some(path) => Some(Mutex::new(open_trace(path, &trace_meta, opts.resume)?)),
    };
    let metrics: Option<Mutex<MetricsWriter>> = match opts.metrics {
        None => None,
        Some(path) => Some(Mutex::new(open_metrics(path, &trace_meta, opts.resume)?)),
    };
    let have: HashSet<usize> = replayed_records.iter().map(|&(j, _)| j).collect();
    let todo: Vec<usize> = manifest
        .shard
        .job_indices(total)
        .into_iter()
        .filter(|j| !have.contains(j))
        .collect();
    let threads = effective_threads(threads, todo.len());
    // First journal/trace/metrics-write failure, if any: workers keep
    // solving (the results still come back in memory) but stop
    // appending, and the run as a whole errors out rather than claim a
    // durable artifact.
    let io_error: Mutex<Option<EngineError>> = Mutex::new(None);
    let traced = tracer.is_some() || metrics.is_some();
    // Each worker context gets a distinct ordinal, so metrics-sidecar
    // span records can name the worker that ran each job (the Perfetto
    // export's per-worker tracks). The ordinal labels timelines only —
    // it never reaches a deterministic artifact.
    let next_worker = AtomicU64::new(0);
    let results = run_indices_ctx(
        threads,
        &todo,
        || JobWorkspace::for_worker(next_worker.fetch_add(1, Ordering::Relaxed)),
        |ws, idx| {
            let (config, rep) = (idx / reps, idx % reps);
            let job = &configs[config];
            // Seeds derive from the job's seed group (its own index by
            // default): configs sharing a group — e.g. the kernel
            // variants of one grid point — draw identical fault
            // streams (common random numbers).
            let group = job.seed_group.unwrap_or(config as u64);
            let seed = derive_seed(campaign_seed, group, rep as u64);
            // Panics are caught *here*, inside the job, so the failure
            // reaches the journal as a record — a resumed run must not
            // re-run a deterministically panicking repetition forever.
            let job_start_ns = started.elapsed().as_nanos() as u64;
            let record = match catch_unwind(AssertUnwindSafe(|| {
                if traced {
                    run_one_traced(job, seed, ws)
                } else {
                    run_one(job, seed, ws)
                }
            })) {
                Ok(m) => match failure_reason(&m) {
                    None => JobRecord::Done(m),
                    Some(reason) => JobRecord::Failed(reason),
                },
                Err(payload) => JobRecord::Failed(panic_message(payload.as_ref())),
            };
            // Trace/metrics blocks go out *before* the journal record:
            // a journal record must imply a durable trace block, so a
            // kill between the two re-runs the job on resume and the
            // re-run's block deduplicates byte-identically. Failed jobs
            // (panics, NaN-poisoned metrics) write no telemetry — the
            // recorder resets at the next job's start.
            if traced && matches!(record, JobRecord::Done(_)) {
                let mut tele = ws.recorder().drain(idx);
                // Stamp the wall-clock execution window (sidecar only;
                // the trace appender never sees it).
                tele.span = Some(JobSpan {
                    worker: ws.worker(),
                    start_ns: job_start_ns,
                    end_ns: started.elapsed().as_nanos() as u64,
                });
                if let Some(t) = &tracer {
                    let mut err = io_error.lock();
                    if err.is_none() {
                        if let Err(e) = t.lock().append_job(idx, &tele.events) {
                            *err = Some(EngineError::Telemetry(e.into()));
                        }
                    }
                }
                if let Some(m) = &metrics {
                    let mut err = io_error.lock();
                    if err.is_none() {
                        if let Err(e) = m.lock().append_job(&tele) {
                            *err = Some(EngineError::Telemetry(e.into()));
                        }
                    }
                }
            }
            if let Some(w) = &writer {
                let mut err = io_error.lock();
                if err.is_none() {
                    if let Err(e) = w.lock().append(idx, &record) {
                        *err = Some(EngineError::Journal(format!(
                            "{}: append failed: {e}",
                            opts.journal
                                .map(|p| p.display().to_string())
                                .unwrap_or_default()
                        )));
                    }
                }
            }
            if let JobRecord::Done(m) = &record {
                if let Some(obs) = opts.progress {
                    obs.job_stats(m.faults as u64, m.rollbacks as u64);
                }
            }
            record
        },
        opts.progress,
    );
    if let Some(e) = io_error.into_inner() {
        return Err(e);
    }
    if let Some(m) = metrics {
        m.into_inner()
            .finish()
            .map_err(|e| EngineError::Telemetry(e.into()))?;
    }
    if let Some(t) = tracer {
        // Close the append handle, then rewrite the file in canonical
        // (job, seq) order — this is what makes the on-disk trace
        // byte-identical across every threads × shards × resume
        // decomposition of the campaign.
        drop(t);
        ftcg_telemetry::trace::canonicalize(opts.trace.expect("tracer implies a path"))
            .map_err(|e| EngineError::Telemetry(e.into()))?;
    }
    let executed = results.len();
    let replayed = replayed_records.len();
    let mut records = replayed_records;
    for (pos, result) in results.into_iter().enumerate() {
        // Pool-level panics are unreachable (the job catches its own),
        // but fold them into Failed records rather than unwrap.
        let record = result.unwrap_or_else(|p| JobRecord::Failed(p.message));
        records.push((todo[pos], record));
    }
    records.sort_by_key(|&(j, _)| j);
    Ok(ShardOutcome {
        manifest,
        records,
        replayed,
        executed,
        threads,
        elapsed_secs: started.elapsed().as_secs_f64(),
    })
}

/// Folds a *complete* set of job records into per-configuration
/// summaries. Records are keyed by job index, so any arrival order —
/// any `{threads × shards}` decomposition, any resume boundary — folds
/// to identical summaries. Missing or duplicate indices are errors.
pub fn fold_records(
    name: &str,
    reps: usize,
    configs: &[ConfigJob],
    records: &[(usize, JobRecord)],
) -> Result<(Vec<ConfigSummary>, usize), EngineError> {
    let total = configs.len() * reps;
    let agg = Aggregator::new(configs.len(), reps);
    let mut covered = vec![false; total];
    let mut panics = 0usize;
    for &(idx, ref record) in records {
        if idx >= total {
            return Err(EngineError::Journal(format!(
                "record for job {idx} out of range (campaign has {total} jobs)"
            )));
        }
        if std::mem::replace(&mut covered[idx], true) {
            return Err(EngineError::Journal(format!(
                "duplicate record for job {idx}"
            )));
        }
        match record {
            JobRecord::Done(m) => agg.push(idx / reps, idx % reps, *m),
            JobRecord::Failed(_) => panics += 1,
        }
    }
    let missing = covered.iter().filter(|&&c| !c).count();
    if missing > 0 {
        let first = covered.iter().position(|&c| !c).unwrap_or(0);
        return Err(EngineError::Journal(format!(
            "incomplete campaign: {missing} of {total} jobs have no record \
             (first missing: job {first}); run the remaining shards or --resume"
        )));
    }
    Ok((agg.finish(name, configs), panics))
}

/// Executes `reps` repetitions of each configuration on the worker
/// pool. This is the programmatic entry point used by the `ftcg-sim`
/// harness; [`run_campaign`] wraps it for declarative specs and
/// [`run_configs_sharded`] exposes the journal/shard machinery.
pub fn run_configs(
    name: &str,
    campaign_seed: u64,
    reps: usize,
    threads: usize,
    configs: Vec<ConfigJob>,
    progress: Option<ProgressFn<'_>>,
) -> CampaignResult {
    let opts = RunOptions {
        progress,
        ..RunOptions::default()
    };
    let outcome = run_configs_sharded(name, campaign_seed, reps, threads, &configs, &opts)
        .expect("unjournaled full run cannot fail on journal I/O");
    fold_outcome(name, reps, &configs, outcome).expect("full shard covers every job")
}

/// Folds a full-coverage [`ShardOutcome`] into a [`CampaignResult`].
pub fn fold_outcome(
    name: &str,
    reps: usize,
    configs: &[ConfigJob],
    outcome: ShardOutcome,
) -> Result<CampaignResult, EngineError> {
    let (summaries, panics) = fold_records(name, reps, configs, &outcome.records)?;
    Ok(CampaignResult {
        name: name.to_string(),
        summaries,
        total_jobs: outcome.manifest.total_jobs,
        panics,
        threads: outcome.threads,
        elapsed_secs: outcome.elapsed_secs,
    })
}

/// Expands and executes a declarative campaign.
pub fn run_campaign(
    spec: &CampaignSpec,
    resolver: &dyn MatrixResolver,
    progress: Option<ProgressFn<'_>>,
) -> Result<CampaignResult, EngineError> {
    let configs = expand(spec, resolver)?;
    let opts = RunOptions {
        progress,
        ..RunOptions::default()
    };
    let outcome = run_configs_sharded(
        &spec.name,
        spec.seed,
        spec.reps,
        spec.threads,
        &configs,
        &opts,
    )?;
    fold_outcome(&spec.name, spec.reps, &configs, outcome)
}

/// Expands and executes a declarative campaign under [`RunOptions`]:
/// journaled, shardable, resumable. Returns this process's shard
/// outcome plus the folded campaign result when the shard covers the
/// whole job space (`shard.count == 1`); multi-shard runs fold later
/// via [`merge_journals`].
pub fn run_campaign_sharded(
    spec: &CampaignSpec,
    resolver: &dyn MatrixResolver,
    opts: &RunOptions<'_>,
) -> Result<(ShardOutcome, Option<CampaignResult>), EngineError> {
    let configs = expand(spec, resolver)?;
    let outcome = run_configs_sharded(
        &spec.name,
        spec.seed,
        spec.reps,
        spec.threads,
        &configs,
        opts,
    )?;
    if opts.shard.count == 1 {
        let elapsed = outcome.elapsed_secs;
        let threads = outcome.threads;
        let (summaries, panics) = fold_records(&spec.name, spec.reps, &configs, &outcome.records)?;
        let result = CampaignResult {
            name: spec.name.clone(),
            summaries,
            total_jobs: spec.n_jobs(),
            panics,
            threads,
            elapsed_secs: elapsed,
        };
        Ok((outcome, Some(result)))
    } else {
        Ok((outcome, None))
    }
}

/// Folds shard journals into the campaign's deterministic artifacts.
///
/// Every journal must carry the manifest of the same campaign (grid
/// fingerprint, seed, shape); shard fields may differ and overlap.
/// Records are unioned by job index — identical duplicates (e.g. from
/// an overlapping re-run) are benign, conflicting ones are an error —
/// and the union must cover every job. The folded summaries are
/// byte-identical to a single-process run of the same spec.
pub fn merge_journals(
    spec: &CampaignSpec,
    resolver: &dyn MatrixResolver,
    paths: &[impl AsRef<Path>],
) -> Result<CampaignResult, EngineError> {
    let started = Instant::now();
    if paths.is_empty() {
        return Err(EngineError::Journal("no journals to merge".into()));
    }
    let configs = expand(spec, resolver)?;
    let total = spec.n_jobs();
    let expected = Manifest {
        name: spec.name.clone(),
        fingerprint: fingerprint(&spec.name, spec.seed, spec.reps, &configs),
        seed: spec.seed,
        reps: spec.reps,
        total_jobs: total,
        shard: Shard::FULL,
    };
    let mut by_index: Vec<Option<JobRecord>> = vec![None; total];
    for path in paths {
        let path = path.as_ref();
        let journal = Journal::load(path)?;
        journal
            .manifest
            .ensure_matches(&expected, false)
            .map_err(|m| EngineError::Journal(format!("{}: {m}", path.display())))?;
        for (idx, record) in journal.records {
            match &by_index[idx] {
                None => by_index[idx] = Some(record),
                Some(prev) if records_equal(prev, &record) => {}
                Some(_) => {
                    return Err(EngineError::Journal(format!(
                        "{}: conflicting records for job {idx} across journals",
                        path.display()
                    )));
                }
            }
        }
    }
    let records: Vec<(usize, JobRecord)> = by_index
        .into_iter()
        .enumerate()
        .filter_map(|(idx, r)| r.map(|r| (idx, r)))
        .collect();
    let (summaries, panics) = fold_records(&spec.name, spec.reps, &configs, &records)?;
    Ok(CampaignResult {
        name: spec.name.clone(),
        summaries,
        total_jobs: total,
        panics,
        threads: 0,
        elapsed_secs: started.elapsed().as_secs_f64(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DefaultResolver;

    fn tiny_spec() -> CampaignSpec {
        CampaignSpec::parse(
            "name = tiny\n\
             seed = 9\n\
             reps = 3\n\
             threads = 4\n\
             matrices = poisson2d:8\n\
             schemes = correction\n\
             alphas = 1/16\n",
        )
        .unwrap()
    }

    #[test]
    fn runs_and_aggregates() {
        let r = run_campaign(&tiny_spec(), &DefaultResolver, None).unwrap();
        assert_eq!(r.total_jobs, 3);
        assert_eq!(r.panics, 0);
        assert_eq!(r.summaries.len(), 1);
        let s = &r.summaries[0];
        assert_eq!(s.reps, 3);
        assert!(s.time.mean > 0.0);
        assert!(s.convergence_rate > 0.0);
    }

    #[test]
    fn reruns_are_identical() {
        let a = run_campaign(&tiny_spec(), &DefaultResolver, None).unwrap();
        let b = run_campaign(&tiny_spec(), &DefaultResolver, None).unwrap();
        assert_eq!(a.summaries, b.summaries);
    }

    #[test]
    fn different_campaign_seeds_differ() {
        let mut spec2 = tiny_spec();
        spec2.seed = 10;
        let a = run_campaign(&tiny_spec(), &DefaultResolver, None).unwrap();
        let b = run_campaign(&spec2, &DefaultResolver, None).unwrap();
        assert_ne!(a.summaries, b.summaries);
    }

    #[test]
    fn shards_partition_the_work_and_fold_to_the_full_result() {
        let spec = tiny_spec();
        let full = run_campaign(&spec, &DefaultResolver, None).unwrap();
        let configs = expand(&spec, &DefaultResolver).unwrap();
        let mut records = Vec::new();
        for index in 0..3 {
            let opts = RunOptions {
                shard: Shard { index, count: 3 },
                ..RunOptions::default()
            };
            let out =
                run_configs_sharded(&spec.name, spec.seed, spec.reps, 1, &configs, &opts).unwrap();
            assert_eq!(out.executed, out.records.len());
            assert_eq!(out.replayed, 0);
            records.extend(out.records);
        }
        let (summaries, panics) = fold_records(&spec.name, spec.reps, &configs, &records).unwrap();
        assert_eq!(panics, 0);
        assert_eq!(summaries, full.summaries);
    }

    #[test]
    fn incomplete_records_are_rejected() {
        let spec = tiny_spec();
        let configs = expand(&spec, &DefaultResolver).unwrap();
        let opts = RunOptions {
            shard: Shard { index: 0, count: 2 },
            ..RunOptions::default()
        };
        let out =
            run_configs_sharded(&spec.name, spec.seed, spec.reps, 1, &configs, &opts).unwrap();
        let err = fold_records(&spec.name, spec.reps, &configs, &out.records).unwrap_err();
        match err {
            EngineError::Journal(m) => assert!(m.contains("incomplete"), "{m}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn panicking_jobs_become_failed_records_not_aborts() {
        use crate::grid::ConfigJob;
        use ftcg_model::Scheme;
        use ftcg_solvers::resilient::ResilientConfig;
        use ftcg_sparse::gen;
        use std::sync::Arc;

        let a = Arc::new(gen::poisson2d(4).unwrap());
        // A wrong-length RHS makes the solve panic deterministically.
        let rhs = Arc::new(vec![1.0; 3]);
        let job = ConfigJob::new(
            "poisson2d:4",
            a,
            rhs,
            ResilientConfig::new(Scheme::AbftDetection, 5),
            0.0,
            InjectorSpec::None,
        );
        let out = run_configs_sharded(
            "p",
            0,
            2,
            1,
            std::slice::from_ref(&job),
            &RunOptions::default(),
        )
        .unwrap();
        assert_eq!(out.records.len(), 2);
        assert!(out
            .records
            .iter()
            .all(|(_, r)| matches!(r, JobRecord::Failed(_))));
        let (summaries, panics) = fold_records("p", 2, &[job], &out.records).unwrap();
        assert_eq!(panics, 2);
        assert_eq!(summaries[0].reps, 0);
        assert_eq!(summaries[0].panics, 2);
    }
}
