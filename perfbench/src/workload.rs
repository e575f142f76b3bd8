//! The three workloads: pinned campaign texts, their set-up, and the
//! passes that solve them — through the engine (`table1`,
//! `mc_batched`) or by calling the solver layer directly
//! (`large_solve`, and the replay that checks the engine).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ftcg_engine::grid::expand;
use ftcg_engine::inject::paper_injector;
use ftcg_engine::seedstream::{derive_seed, mix};
use ftcg_engine::sink::jsonl_string;
use ftcg_engine::{
    fold_records, plan_config, run_configs_sharded, CampaignSpec, ConfigJob, EngineError,
    InjectorSpec, JobMetrics, JobRecord, MatrixResolver, MatrixSource, RunOptions,
};
use ftcg_sim::matrices::PaperMatrixResolver;
use ftcg_solvers::resilient::{solve_resilient_recorded, ResilientOutcome};
use ftcg_solvers::SolverWorkspace;
use ftcg_sparse::{vector, CsrMatrix};
use ftcg_telemetry::Recorder;

use crate::arith::{Verdict, VerdictCounts};

/// The paper's nine Table 1 matrices, as `paper:ID` sources.
const PAPER_IDS: [u32; 9] = [341, 752, 924, 1288, 1289, 1311, 1312, 1848, 2213];

/// The campaign seed of the fault streams of `large_solve` and
/// `mc_batched`, pinned: their passes are too few to average
/// heavy-tailed rollback and restart work over fault draws, so neither
/// has seeded inputs. On run seeds 1–6 the same six `large_solve` solves
/// took 11.3–20.5 s (even a 1e-3 relative perturbation of the
/// right-hand sides moved single solves by 2×). A `mc_batched` pass is
/// two lockstep groups of eight lanes, each as long as its slowest
/// lane, so with fresh draws per pass its passes within one run varied
/// by ±18% on a steady host and ten seeded runs spread by 22%. Seed 2
/// is the draw under which `poisson2d:300` with ABFT-DETECTION reports
/// "converged" at a relative true residual of 7.6e-5.
pub const PINNED_FAULT_SEED: u64 = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Table 1 experiment at scale 16 through the engine.
    Table1,
    /// One large resilient solve per scheme, solver layer called directly.
    LargeSolve,
    /// Monte-Carlo repetitions through the batched lockstep solve path (`solve_resilient_batch_recorded`).
    McBatched,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Table1, Workload::LargeSolve, Workload::McBatched];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Table1 => "table1",
            Workload::LargeSolve => "large_solve",
            Workload::McBatched => "mc_batched",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Whether the workload's solves run through the engine's pool.
    pub fn engine_driven(self) -> bool {
        self != Workload::LargeSolve
    }

    /// Whether `--seed` drives the workload's fault streams (see
    /// [`PINNED_FAULT_SEED`]).
    pub fn seeded(self) -> bool {
        self == Workload::Table1
    }

    /// The pinned campaign text. For `table1`, `seed` drives every
    /// fault stream; the other workloads ignore it (see
    /// [`PINNED_FAULT_SEED`]).
    pub fn spec_text(self, seed: u64) -> String {
        match self {
            Workload::Table1 => {
                let matrices: Vec<String> = PAPER_IDS
                    .iter()
                    .map(|id| format!("paper:{id}:16"))
                    .collect();
                format!(
                    "name = perfbench-table1\nseed = {seed}\nreps = 4\nthreads = 2\n\
                     batch = auto\nmax_iters = 10000\ninterval = model\n\
                     matrices = {}\nschemes = detection, correction, online\nalphas = 1/16\n",
                    matrices.join(", ")
                )
            }
            Workload::LargeSolve => format!(
                "name = perfbench-large_solve\nseed = {PINNED_FAULT_SEED}\nreps = 1\nthreads = 1\n\
                 batch = 1\nmax_iters = 10000\ninterval = model\n\
                 matrices = paper:341:1, poisson2d:300\n\
                 schemes = detection, correction, online\nalphas = 1/16\n"
            ),
            Workload::McBatched => format!(
                "name = perfbench-mc_batched\nseed = {PINNED_FAULT_SEED}\nreps = 8\nthreads = 2\n\
                 batch = auto\nmax_iters = 10000\ninterval = model\n\
                 matrices = paper:341:2\nschemes = correction\nalphas = 0, 1/16\n"
            ),
        }
    }
}

/// A [`MatrixResolver`] that times the paper resolver's calls.
struct TimedResolver {
    ns: AtomicU64,
}

impl MatrixResolver for TimedResolver {
    fn resolve(&self, source: &MatrixSource) -> Result<CsrMatrix, EngineError> {
        let t0 = Instant::now();
        let out = PaperMatrixResolver.resolve(source);
        self.ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }
}

/// A matrix with its label and right-hand side.
pub type LabelledMatrix = (String, Arc<CsrMatrix>, Arc<Vec<f64>>);

/// Everything a workload needs before its first solve.
pub struct Setup {
    pub workload: Workload,
    pub spec: CampaignSpec,
    pub configs: Vec<ConfigJob>,
    /// `grid::expand` wall time: generation, right-hand sides, eq. 6.
    pub wall_s: f64,
    /// Time inside `MatrixResolver::resolve`.
    pub gen_s: f64,
    /// Time of the `plan_config` calls the grid makes, timed on their own.
    pub plan_s: f64,
}

impl Setup {
    pub fn run(w: Workload, seed: u64) -> Result<Setup, String> {
        let spec = CampaignSpec::parse(&w.spec_text(seed)).map_err(|e| e.to_string())?;
        let resolver = TimedResolver {
            ns: AtomicU64::new(0),
        };
        let t0 = Instant::now();
        let configs = expand(&spec, &resolver).map_err(|e| e.to_string())?;
        let wall_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        for _ in &spec.matrices {
            for &scheme in &spec.schemes {
                for &alpha in &spec.alphas {
                    std::hint::black_box(plan_config(scheme, alpha, spec.interval, spec.max_iters));
                }
            }
        }
        let plan_s = t1.elapsed().as_secs_f64();
        Ok(Setup {
            workload: w,
            spec,
            configs,
            wall_s,
            gen_s: resolver.ns.load(Ordering::Relaxed) as f64 / 1e9,
            plan_s,
        })
    }

    pub fn total_jobs(&self) -> usize {
        self.configs.len() * self.spec.reps
    }

    /// The configuration job `idx` belongs to.
    pub fn config_of(&self, idx: usize) -> &ConfigJob {
        &self.configs[idx / self.spec.reps]
    }

    /// The workload's distinct matrices, in grid order.
    pub fn matrices(&self) -> Vec<LabelledMatrix> {
        let mut out: Vec<LabelledMatrix> = Vec::new();
        for c in &self.configs {
            if !out.iter().any(|(_, a, _)| Arc::ptr_eq(a, &c.matrix)) {
                out.push((c.key.matrix.clone(), c.matrix.clone(), c.rhs.clone()));
            }
        }
        out
    }

    /// Classifies job `idx`'s record.
    pub fn verdict(&self, idx: usize, record: &JobRecord) -> Verdict {
        let rhs_norm = vector::norm2(&self.config_of(idx).rhs);
        match record {
            JobRecord::Done(m) => Verdict::classify(m.converged, Some(m.true_residual), rhs_norm),
            JobRecord::Failed(_) => Verdict::Errored,
        }
    }

    pub fn verdicts(&self, records: &[(usize, JobRecord)]) -> VerdictCounts {
        let mut c = VerdictCounts::default();
        for (idx, r) in records {
            c.add(self.verdict(*idx, r));
        }
        c
    }

    /// Solves run without fault injection that still lack a correct
    /// answer: with no faults there is nothing to excuse, so any is a
    /// defect, not a measurement.
    pub fn fault_free_failures(&self, records: &[(usize, JobRecord)]) -> usize {
        records
            .iter()
            .filter(|(idx, r)| {
                self.config_of(*idx).key.alpha == 0.0 && self.verdict(*idx, r) != Verdict::Correct
            })
            .count()
    }

    /// Folds records into the campaign's JSONL summary text — the
    /// artifact the determinism contract keeps byte-identical.
    pub fn fold(&self, records: &[(usize, JobRecord)]) -> Result<String, String> {
        let (rows, _) = fold_records(&self.spec.name, self.spec.reps, &self.configs, records)
            .map_err(|e| e.to_string())?;
        Ok(jsonl_string(&rows))
    }

    /// The campaign seed of closed-loop pass `k`. Pass 0 runs the
    /// spec's own seed; later passes of `table1` draw fresh fault
    /// streams derived from it, so a run averages over more draws than
    /// one pass holds; the pinned workloads rerun the same draws.
    pub fn pass_seed(&self, k: u64) -> u64 {
        if k == 0 || !self.workload.seeded() {
            self.spec.seed
        } else {
            mix(self.spec.seed ^ mix(k))
        }
    }

    /// One pass of every job through the engine's pool.
    pub fn engine_pass(
        &self,
        seed: u64,
        threads: usize,
        metrics: Option<&Path>,
    ) -> Result<(Vec<(usize, JobRecord)>, f64), String> {
        let opts = RunOptions {
            metrics,
            batch: self.spec.batch,
            ..RunOptions::default()
        };
        let t0 = Instant::now();
        let out = run_configs_sharded(
            &self.spec.name,
            seed,
            self.spec.reps,
            threads,
            &self.configs,
            &opts,
        )
        .map_err(|e| e.to_string())?;
        Ok((out.records, t0.elapsed().as_secs_f64()))
    }

    /// Solves job `idx` directly through the solver layer, exactly as
    /// the engine would: same derived seed, same injector, same config.
    /// Returns the record the engine would journal, the full outcome
    /// (`None` if the solve panicked) and the solve's wall time.
    pub fn direct_solve<R: Recorder>(
        &self,
        seed: u64,
        idx: usize,
        ws: &mut SolverWorkspace,
        rec: &mut R,
    ) -> (JobRecord, Option<ResilientOutcome>, u64) {
        let job = self.config_of(idx);
        let config = idx / self.spec.reps;
        let coord = job.seed_group.unwrap_or(config as u64);
        let seed = derive_seed(seed, coord, (idx % self.spec.reps) as u64);
        let a = job.matrix.as_ref();
        let t0 = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| {
            let mut inj = match job.injector {
                InjectorSpec::Paper if job.key.alpha > 0.0 => {
                    Some(paper_injector(a, job.key.alpha, seed))
                }
                _ => None,
            };
            solve_resilient_recorded(a, &job.rhs, &job.cfg, inj.as_mut(), ws, rec)
        }));
        let wall = t0.elapsed().as_nanos() as u64;
        match out {
            Ok(out) => {
                let m = JobMetrics::from(&out);
                // The engine journals NaN-poisoned metrics as failures.
                let record = if m.simulated_time.is_finite() {
                    JobRecord::Done(m)
                } else {
                    JobRecord::Failed("non-finite simulated_time".into())
                };
                (record, Some(out), wall)
            }
            Err(_) => (JobRecord::Failed("panicked".into()), None, wall),
        }
    }
}
