//! The declarative campaign specification.
//!
//! A [`CampaignSpec`] names a grid: matrix sources × schemes × fault
//! rates α (× solvers × kernels), with a repetition count, one campaign
//! seed, and interval policy. Specs can be built programmatically or
//! parsed from text in either of two formats:
//!
//! * **key=value** — one `key = value` per line, `#` comments, lists
//!   comma-separated:
//!
//!   ```text
//!   name     = demo
//!   seed     = 42
//!   reps     = 10
//!   matrices = poisson2d:16, random:300:0.02:1
//!   schemes  = online, detection, correction
//!   alphas   = 0, 1/32, 1/16
//!   solvers  = cg, pcg, bicgstab       # optional solver axis
//!   kernels  = csr, bcsr:2, sell       # optional SpMV-backend axis
//!   ```
//!
//! * **JSON** — the same keys as an object; lists as arrays
//!   (`{"name": "demo", "matrices": ["poisson2d:16"], ...}`).

use ftcg_kernels::KernelSpec;
use ftcg_model::Scheme;
use ftcg_solvers::SolverKind;
use ftcg_sparse::{gen, io, CsrMatrix};
use serde::json::{self, Value};

use crate::EngineError;

/// Where a configuration's matrix comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum MatrixSource {
    /// `poisson2d:K` — 5-point Laplacian on a K×K grid.
    Poisson2d(usize),
    /// `poisson3d:K` — 7-point Laplacian on a K×K×K grid.
    Poisson3d(usize),
    /// `random:N:DENSITY[:SEED]` — strictly dominant random SPD.
    Random(usize, f64, u64),
    /// `illcond:N:DENSITY:COND[:SEED]` — badly scaled SPD.
    IllCond(usize, f64, f64, u64),
    /// `file:PATH` — a MatrixMarket file.
    File(String),
    /// Anything else (`paper:341:16`, …): handed to the campaign's
    /// [`MatrixResolver`] — the extension point for providers the
    /// engine itself does not know about.
    Named(String),
}

impl MatrixSource {
    /// Parses a generator spec string.
    pub fn parse(s: &str) -> Result<MatrixSource, EngineError> {
        let s = s.trim();
        if s.is_empty() {
            return Err(EngineError::Spec("empty matrix source".into()));
        }
        let parts: Vec<&str> = s.split(':').collect();
        let bad = || EngineError::Spec(format!("bad matrix source `{s}`"));
        let num = |i: usize| -> Result<usize, EngineError> {
            parts.get(i).and_then(|p| p.parse().ok()).ok_or_else(bad)
        };
        let flt = |i: usize| -> Result<f64, EngineError> {
            parts.get(i).and_then(|p| p.parse().ok()).ok_or_else(bad)
        };
        // Optional trailing seed: absent ⇒ 0, present-but-malformed (or
        // followed by junk segments) ⇒ error, never silently 0.
        let arity = |required: usize, with_seed: usize| -> Result<(), EngineError> {
            if parts.len() == required || parts.len() == with_seed {
                Ok(())
            } else {
                Err(bad())
            }
        };
        let seed = |i: usize| -> Result<u64, EngineError> {
            match parts.get(i) {
                None => Ok(0),
                Some(p) => p.parse().map_err(|_| bad()),
            }
        };
        match parts[0] {
            "poisson2d" => {
                arity(2, 2)?;
                Ok(MatrixSource::Poisson2d(num(1)?))
            }
            "poisson3d" => {
                arity(2, 2)?;
                Ok(MatrixSource::Poisson3d(num(1)?))
            }
            "random" => {
                arity(3, 4)?;
                Ok(MatrixSource::Random(num(1)?, flt(2)?, seed(3)?))
            }
            "illcond" => {
                arity(4, 5)?;
                Ok(MatrixSource::IllCond(num(1)?, flt(2)?, flt(3)?, seed(4)?))
            }
            "file" => Ok(MatrixSource::File(parts[1..].join(":"))),
            _ => Ok(MatrixSource::Named(s.to_string())),
        }
    }

    /// Canonical label used in config keys and reports.
    pub fn label(&self) -> String {
        match self {
            MatrixSource::Poisson2d(k) => format!("poisson2d:{k}"),
            MatrixSource::Poisson3d(k) => format!("poisson3d:{k}"),
            MatrixSource::Random(n, d, s) => format!("random:{n}:{d}:{s}"),
            MatrixSource::IllCond(n, d, c, s) => format!("illcond:{n}:{d}:{c}:{s}"),
            MatrixSource::File(p) => format!("file:{p}"),
            MatrixSource::Named(n) => n.clone(),
        }
    }
}

/// Resolves matrix sources into matrices. Implement this to plug custom
/// providers (e.g. the paper's Table 1 test set in `ftcg-sim`) into the
/// engine; chain to [`DefaultResolver`] for the built-in generators.
pub trait MatrixResolver: Sync {
    /// Builds the matrix for `source`.
    fn resolve(&self, source: &MatrixSource) -> Result<CsrMatrix, EngineError>;
}

/// The built-in generators (`poisson2d`, `poisson3d`, `random`,
/// `illcond`, `file`). [`MatrixSource::Named`] sources are rejected.
#[derive(Debug, Clone, Copy, Default)]
pub struct DefaultResolver;

impl MatrixResolver for DefaultResolver {
    fn resolve(&self, source: &MatrixSource) -> Result<CsrMatrix, EngineError> {
        let err =
            |e: &dyn std::fmt::Display| EngineError::Matrix(format!("{}: {e}", source.label()));
        match source {
            MatrixSource::Poisson2d(k) => gen::poisson2d(*k).map_err(|e| err(&e)),
            MatrixSource::Poisson3d(k) => gen::poisson3d(*k).map_err(|e| err(&e)),
            MatrixSource::Random(n, d, s) => gen::random_spd(*n, *d, *s).map_err(|e| err(&e)),
            MatrixSource::IllCond(n, d, c, s) => {
                gen::random_spd_illcond(*n, *d, *c, *s).map_err(|e| err(&e))
            }
            MatrixSource::File(p) => io::read_matrix_market_file(p).map_err(|e| err(&e)),
            MatrixSource::Named(n) => Err(EngineError::Matrix(format!(
                "unknown matrix source `{n}` (no resolver registered for it)"
            ))),
        }
    }
}

/// The `batch` spec key, retired: every repetition runs as its own job
/// on the engine's work-stealing pool.
///
/// Repetitions of one configuration used to be advanced as lockstep
/// lanes sharing one multi-RHS traversal of the matrix. On `paper:341:2`
/// (6.9 MB image, 8 repetitions, 2 workers) that cost more than it saved:
/// each lane carried its own corruptible image, checkpoint slot and TMR
/// shadows (~30 MB per lane, far past the last-level cache a single
/// solve fits in), lockstep groups of unequal length idled workers, and
/// solving the same jobs one by one was 26% cheaper per solve (median
/// of 10 paired benchmark runs) with a memory peak of 132 MB instead of
/// 605 MB. The key still parses `auto` and `1`, so existing spec files
/// keep working; wider widths are a spec error. Like `threads`, it is
/// not part of the campaign fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchPolicy {
    /// `batch = auto`, the default.
    Auto,
    /// `batch = 1`.
    Sequential,
}

impl BatchPolicy {
    /// Repetitions a worker runs per pool job for a run of `todo` jobs
    /// over `threads` workers with `reps` repetitions per
    /// configuration: always `1`.
    pub fn resolve(self, _reps: usize, _todo: usize, _threads: usize) -> usize {
        1
    }

    /// Repetitions per pool job for one configuration whose matrix
    /// stores `nnz` entries, under a `ceiling` from
    /// [`resolve`](Self::resolve): always `1`.
    pub fn width_for_matrix(self, _ceiling: usize, _nnz: usize) -> usize {
        1
    }
}

impl std::fmt::Display for BatchPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatchPolicy::Auto => write!(f, "auto"),
            BatchPolicy::Sequential => write!(f, "1"),
        }
    }
}

impl std::str::FromStr for BatchPolicy {
    type Err = EngineError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        parse_batch(s)
    }
}

/// Parses the `batch` key: `auto` or `1`. Any other width names the
/// removed lockstep driver and fails with a spec error that says why.
pub fn parse_batch(s: &str) -> Result<BatchPolicy, EngineError> {
    let s = s.trim();
    if s.eq_ignore_ascii_case("auto") {
        return Ok(BatchPolicy::Auto);
    }
    match s.parse::<usize>() {
        Ok(1) => Ok(BatchPolicy::Sequential),
        Ok(k) => Err(EngineError::Spec(format!(
            "batch = {k} is not supported: the lockstep batched driver was removed \
             because its lanes (one matrix image, checkpoint and TMR shadows each) \
             outgrew the cache and ran slower than one-by-one solves; every \
             repetition now runs as its own pool job (use `batch = 1` or `auto`, \
             or drop the key)"
        ))),
        Err(_) => Err(EngineError::Spec(format!("bad batch `{s}` (auto | 1)"))),
    }
}

/// How each configuration's checkpoint/verification intervals are set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntervalPolicy {
    /// Model-optimal `s` (and `d` for ONLINE-DETECTION) at each α
    /// — eq. 6 of the paper.
    ModelOptimal,
    /// A fixed checkpoint interval for every configuration.
    Fixed(usize),
}

/// A declarative campaign: the full experiment grid.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Campaign name (used in output rows).
    pub name: String,
    /// The one seed all per-job streams derive from.
    pub seed: u64,
    /// Repetitions per configuration.
    pub reps: usize,
    /// Worker threads; 0 = all available cores.
    pub threads: usize,
    /// Cap on productive iterations per solve.
    pub max_iters: usize,
    /// Matrix axis.
    pub matrices: Vec<MatrixSource>,
    /// Scheme axis.
    pub schemes: Vec<Scheme>,
    /// Fault-rate axis (expected faults per iteration).
    pub alphas: Vec<f64>,
    /// Solver axis (default: CG only).
    pub solvers: Vec<SolverKind>,
    /// SpMV-backend axis (default: serial CSR only).
    pub kernels: Vec<KernelSpec>,
    /// Interval policy.
    pub interval: IntervalPolicy,
    /// The retired `batch` key (see [`BatchPolicy`]); no effect on
    /// execution or artifacts.
    pub batch: BatchPolicy,
}

impl Default for CampaignSpec {
    fn default() -> Self {
        CampaignSpec {
            name: "campaign".into(),
            seed: 0,
            reps: 10,
            threads: 0,
            max_iters: 10_000,
            matrices: Vec::new(),
            schemes: vec![Scheme::AbftDetection, Scheme::AbftCorrection],
            alphas: vec![1.0 / 16.0],
            solvers: vec![SolverKind::Cg],
            kernels: vec![KernelSpec::Csr],
            interval: IntervalPolicy::ModelOptimal,
            batch: BatchPolicy::Auto,
        }
    }
}

/// Parses a scheme name (`online`, `detection`, `correction`, or the
/// paper's full names).
pub fn parse_scheme(s: &str) -> Result<Scheme, EngineError> {
    match s.trim().to_ascii_lowercase().as_str() {
        "online" | "online-detection" => Ok(Scheme::OnlineDetection),
        "detection" | "abft-detection" => Ok(Scheme::AbftDetection),
        "correction" | "abft-correction" => Ok(Scheme::AbftCorrection),
        other => Err(EngineError::Spec(format!(
            "unknown scheme `{other}` (online | detection | correction)"
        ))),
    }
}

/// Parses a fault rate: plain float (`0.0625`) or fraction (`1/16`).
pub fn parse_alpha(s: &str) -> Result<f64, EngineError> {
    let bad = || EngineError::Spec(format!("bad alpha `{s}`"));
    let v = if let Some((num, den)) = s.split_once('/') {
        let n: f64 = num.trim().parse().map_err(|_| bad())?;
        let d: f64 = den.trim().parse().map_err(|_| bad())?;
        if d == 0.0 {
            return Err(bad());
        }
        n / d
    } else {
        s.trim().parse().map_err(|_| bad())?
    };
    if !v.is_finite() || v < 0.0 {
        return Err(bad());
    }
    Ok(v)
}

/// Parses a solver name (`cg`, `pcg` | `pcg-jacobi`, `bicgstab`,
/// `cgne`) for the campaign grid.
pub fn parse_solver(s: &str) -> Result<SolverKind, EngineError> {
    SolverKind::parse(s).map_err(EngineError::Spec)
}

/// Parses a kernel name for the campaign grid. The machine-dependent
/// `auto:bench` is rejected: its backend *choice* depends on wall-clock
/// timing, which would break the byte-deterministic artifact contract.
pub fn parse_kernel(s: &str) -> Result<KernelSpec, EngineError> {
    let spec = KernelSpec::parse(s).map_err(|e| EngineError::Spec(e.to_string()))?;
    if spec.is_machine_dependent() {
        return Err(EngineError::Spec(format!(
            "kernel `{s}` is machine-dependent (timing-calibrated) and cannot be a \
             campaign axis; use `auto` for the deterministic heuristic"
        )));
    }
    Ok(spec)
}

/// Parses an interval policy: `model` or `fixed:N`.
pub fn parse_interval(s: &str) -> Result<IntervalPolicy, EngineError> {
    let s = s.trim();
    if s.eq_ignore_ascii_case("model") {
        return Ok(IntervalPolicy::ModelOptimal);
    }
    if let Some(n) = s.strip_prefix("fixed:") {
        let v: usize = n
            .trim()
            .parse()
            .map_err(|_| EngineError::Spec(format!("bad interval `{s}`")))?;
        if v == 0 {
            // Historically clamped to 1 silently; surface the solver
            // layer's typed rejection instead of masking a bad spec.
            return Err(EngineError::Spec(format!(
                "bad interval `{s}`: {}",
                ftcg_solvers::ResilientConfigError::ZeroCheckpointInterval
            )));
        }
        return Ok(IntervalPolicy::Fixed(v));
    }
    Err(EngineError::Spec(format!(
        "bad interval `{s}` (model | fixed:N)"
    )))
}

impl CampaignSpec {
    /// Parses spec text: JSON if it starts with `{`, key=value
    /// otherwise.
    pub fn parse(text: &str) -> Result<CampaignSpec, EngineError> {
        let trimmed = text.trim_start();
        if trimmed.starts_with('{') {
            Self::parse_json(text)
        } else {
            Self::parse_key_value(text)
        }
    }

    /// Parses the key=value format.
    pub fn parse_key_value(text: &str) -> Result<CampaignSpec, EngineError> {
        let mut spec = CampaignSpec::default();
        for (lineno, raw) in text.lines().enumerate() {
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(EngineError::Spec(format!(
                    "line {}: expected `key = value`, got `{line}`",
                    lineno + 1
                )));
            };
            spec.apply(key.trim(), value.trim())?;
        }
        spec.validate()
    }

    /// Parses the JSON object format.
    pub fn parse_json(text: &str) -> Result<CampaignSpec, EngineError> {
        let v = json::parse(text).map_err(|e| EngineError::Spec(e.to_string()))?;
        let Value::Obj(pairs) = &v else {
            return Err(EngineError::Spec("top-level JSON must be an object".into()));
        };
        let mut spec = CampaignSpec::default();
        for (key, val) in pairs {
            let scalar;
            let joined;
            let value: &str = match val {
                Value::Str(s) => s,
                Value::Num(n) => {
                    scalar = format!("{n}");
                    &scalar
                }
                Value::Arr(items) => {
                    let parts: Result<Vec<String>, EngineError> = items
                        .iter()
                        .map(|it| match it {
                            Value::Str(s) => Ok(s.clone()),
                            Value::Num(n) => Ok(format!("{n}")),
                            other => Err(EngineError::Spec(format!(
                                "key `{key}`: unsupported array element ({})",
                                other.kind()
                            ))),
                        })
                        .collect();
                    joined = parts?.join(",");
                    &joined
                }
                other => {
                    return Err(EngineError::Spec(format!(
                        "key `{key}`: unsupported value ({})",
                        other.kind()
                    )));
                }
            };
            spec.apply(key, value)?;
        }
        spec.validate()
    }

    fn apply(&mut self, key: &str, value: &str) -> Result<(), EngineError> {
        match key {
            "name" => self.name = value.to_string(),
            "seed" => self.seed = parse_num("seed", value)?,
            "reps" => self.reps = parse_count("reps", value)?,
            "threads" => self.threads = parse_count("threads", value)?,
            "max_iters" => self.max_iters = parse_count("max_iters", value)?,
            "matrices" => {
                self.matrices = split_list(value)
                    .map(MatrixSource::parse)
                    .collect::<Result<_, _>>()?;
            }
            "schemes" => {
                self.schemes = split_list(value)
                    .map(parse_scheme)
                    .collect::<Result<_, _>>()?;
            }
            "alphas" => {
                self.alphas = split_list(value)
                    .map(parse_alpha)
                    .collect::<Result<_, _>>()?;
            }
            "solvers" => {
                self.solvers = split_list(value)
                    .map(parse_solver)
                    .collect::<Result<_, _>>()?;
            }
            "kernels" => {
                self.kernels = split_list(value)
                    .map(parse_kernel)
                    .collect::<Result<_, _>>()?;
            }
            "interval" => self.interval = parse_interval(value)?,
            "batch" => self.batch = parse_batch(value)?,
            other => {
                return Err(EngineError::Spec(format!("unknown key `{other}`")));
            }
        }
        Ok(())
    }

    fn validate(self) -> Result<CampaignSpec, EngineError> {
        if self.matrices.is_empty()
            || self.schemes.is_empty()
            || self.alphas.is_empty()
            || self.solvers.is_empty()
            || self.kernels.is_empty()
            || self.reps == 0
        {
            return Err(EngineError::EmptyGrid);
        }
        Ok(self)
    }

    /// Number of configurations the grid expands to.
    pub fn n_configs(&self) -> usize {
        self.matrices.len()
            * self.schemes.len()
            * self.alphas.len()
            * self.solvers.len()
            * self.kernels.len()
    }

    /// Total jobs (configurations × repetitions).
    pub fn n_jobs(&self) -> usize {
        self.n_configs() * self.reps
    }
}

/// Parses a non-negative integer spec value into `u64`, with explicit
/// diagnostics for the historically silent coercions: a fractional
/// value (`threads = 2.9`) and a negative value (`threads = -2`) are
/// spec errors, never truncated or wrapped.
fn parse_num(what: &str, v: &str) -> Result<u64, EngineError> {
    let v = v.trim();
    // Direct u64 first: going through f64 would silently round
    // seeds above 2^53. Fall back to f64 for JSON-ish forms
    // (e.g. `1e3`) but only when exactly representable.
    if let Ok(n) = v.parse::<u64>() {
        return Ok(n);
    }
    match v.parse::<f64>() {
        Ok(x) if x.fract() == 0.0 && (0.0..9.007199254740992e15).contains(&x) => Ok(x as u64),
        Ok(x) if x.is_finite() && x.fract() != 0.0 => Err(EngineError::Spec(format!(
            "bad {what} `{v}`: must be an integer (not silently truncated)"
        ))),
        Ok(x) if x < 0.0 => Err(EngineError::Spec(format!(
            "bad {what} `{v}`: must be non-negative"
        ))),
        _ => Err(EngineError::Spec(format!("bad {what} `{v}`"))),
    }
}

/// [`parse_num`] narrowed to `usize` with a checked conversion — no
/// `as usize` truncation on any platform.
fn parse_count(what: &str, v: &str) -> Result<usize, EngineError> {
    usize::try_from(parse_num(what, v)?)
        .map_err(|_| EngineError::Spec(format!("bad {what} `{v}`: too large for this platform")))
}

/// Strips a `#` comment: only at line start or preceded by whitespace,
/// so values that legitimately contain `#` (file paths, names) are not
/// silently truncated.
fn strip_comment(line: &str) -> &str {
    let bytes = line.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'#' && (i == 0 || bytes[i - 1].is_ascii_whitespace()) {
            return &line[..i];
        }
    }
    line
}

/// Splits a comma-separated list value, trimming whitespace and
/// dropping empty items (so trailing commas are harmless). The one list
/// grammar for spec files and CLI flags alike.
pub fn split_list(value: &str) -> impl Iterator<Item = &str> {
    value.split(',').map(str::trim).filter(|s| !s.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    const KV: &str = "\
        # a demo campaign\n\
        name = demo\n\
        seed = 42\n\
        reps = 5\n\
        matrices = poisson2d:8, random:100:0.05:3\n\
        schemes = online, correction\n\
        alphas = 0, 1/16, 0.25\n\
        interval = fixed:12\n";

    #[test]
    fn key_value_roundtrip() {
        let spec = CampaignSpec::parse(KV).unwrap();
        assert_eq!(spec.name, "demo");
        assert_eq!(spec.seed, 42);
        assert_eq!(spec.reps, 5);
        assert_eq!(spec.matrices.len(), 2);
        assert_eq!(
            spec.schemes,
            vec![Scheme::OnlineDetection, Scheme::AbftCorrection]
        );
        assert_eq!(spec.alphas, vec![0.0, 1.0 / 16.0, 0.25]);
        assert_eq!(spec.interval, IntervalPolicy::Fixed(12));
        assert_eq!(spec.n_configs(), 12);
        assert_eq!(spec.n_jobs(), 60);
    }

    #[test]
    fn json_equivalent() {
        let j = r#"{
            "name": "demo", "seed": 42, "reps": 5,
            "matrices": ["poisson2d:8", "random:100:0.05:3"],
            "schemes": ["online", "correction"],
            "alphas": [0, "1/16", 0.25],
            "interval": "fixed:12"
        }"#;
        assert_eq!(
            CampaignSpec::parse(j).unwrap(),
            CampaignSpec::parse(KV).unwrap()
        );
    }

    #[test]
    fn matrix_source_labels_roundtrip() {
        for s in [
            "poisson2d:16",
            "poisson3d:5",
            "random:100:0.05:3",
            "illcond:50:0.1:400:2",
            "file:m.mtx",
            "paper:341:16",
        ] {
            let src = MatrixSource::parse(s).unwrap();
            assert_eq!(MatrixSource::parse(&src.label()).unwrap(), src);
        }
    }

    #[test]
    fn default_resolver_builds_generators() {
        let a = DefaultResolver
            .resolve(&MatrixSource::parse("poisson2d:6").unwrap())
            .unwrap();
        assert_eq!(a.n_rows(), 36);
        assert!(DefaultResolver
            .resolve(&MatrixSource::Named("paper:341".into()))
            .is_err());
    }

    #[test]
    fn alpha_forms() {
        assert_eq!(parse_alpha("1/16").unwrap(), 0.0625);
        assert_eq!(parse_alpha("0.5").unwrap(), 0.5);
        assert!(parse_alpha("1/0").is_err());
        assert!(parse_alpha("-1").is_err());
        assert!(parse_alpha("x").is_err());
    }

    #[test]
    fn kernel_axis_parses_in_both_formats() {
        let kv = CampaignSpec::parse(
            "matrices = poisson2d:8\nkernels = csr, bcsr:2, sell:8:32, csr-par\n",
        )
        .unwrap();
        assert_eq!(
            kv.kernels,
            vec![
                KernelSpec::Csr,
                KernelSpec::Bcsr { block: 2 },
                KernelSpec::Sell {
                    chunk: 8,
                    sigma: 32
                },
                KernelSpec::CsrPar { threads: 0 },
            ]
        );
        // 1 matrix × 2 default schemes × 1 default alpha × 4 kernels.
        assert_eq!(kv.n_configs(), 8);
        let json = CampaignSpec::parse(
            r#"{"matrices": ["poisson2d:8"], "kernels": ["csr", "bcsr:2", "sell:8:32", "csr-par"]}"#,
        )
        .unwrap();
        assert_eq!(json.kernels, kv.kernels);
        // Default axis is the serial reference kernel only.
        let plain = CampaignSpec::parse("matrices = poisson2d:8\n").unwrap();
        assert_eq!(plain.kernels, vec![KernelSpec::Csr]);
    }

    #[test]
    fn solver_axis_parses_in_both_formats() {
        let kv = CampaignSpec::parse("matrices = poisson2d:8\nsolvers = cg, pcg, bicgstab, cgne\n")
            .unwrap();
        assert_eq!(kv.solvers, SolverKind::ALL.to_vec());
        // 1 matrix × 2 default schemes × 1 default alpha × 4 solvers.
        assert_eq!(kv.n_configs(), 8);
        let json =
            CampaignSpec::parse(r#"{"matrices": ["poisson2d:8"], "solvers": ["cg", "pcg"]}"#)
                .unwrap();
        assert_eq!(json.solvers, vec![SolverKind::Cg, SolverKind::Pcg]);
        // Default axis is CG only — old specs keep their grids.
        let plain = CampaignSpec::parse("matrices = poisson2d:8\n").unwrap();
        assert_eq!(plain.solvers, vec![SolverKind::Cg]);
        // Unknown solvers are spec errors, empty lists an empty grid.
        assert!(CampaignSpec::parse("matrices = poisson2d:8\nsolvers = gmres\n").is_err());
        assert!(matches!(
            CampaignSpec::parse("matrices = poisson2d:8\nsolvers = ,\n"),
            Err(EngineError::EmptyGrid)
        ));
    }

    #[test]
    fn batch_key_parses_in_both_formats() {
        let auto = CampaignSpec::parse("matrices = poisson2d:8\nbatch = auto\n").unwrap();
        assert_eq!(auto.batch, BatchPolicy::Auto);
        let one = CampaignSpec::parse("matrices = poisson2d:8\nbatch = 1\n").unwrap();
        assert_eq!(one.batch, BatchPolicy::Sequential);
        let json =
            CampaignSpec::parse(r#"{"matrices": ["poisson2d:8"], "batch": "auto"}"#).unwrap();
        assert_eq!(json.batch, BatchPolicy::Auto);
        // Default is auto.
        let plain = CampaignSpec::parse("matrices = poisson2d:8\n").unwrap();
        assert_eq!(plain.batch, BatchPolicy::Auto);
        // Lockstep widths name the removed driver; junk is a plain
        // spec error.
        for bad in ["8", "0"] {
            match CampaignSpec::parse(&format!("matrices = poisson2d:8\nbatch = {bad}\n")) {
                Err(EngineError::Spec(msg)) => {
                    assert!(msg.contains("lockstep batched driver was removed"), "{msg}")
                }
                other => panic!("batch = {bad}: expected a spec error, got {other:?}"),
            }
        }
        assert!(matches!(
            CampaignSpec::parse("matrices = poisson2d:8\nbatch = wide\n"),
            Err(EngineError::Spec(_))
        ));
    }

    #[test]
    fn batch_policy_resolution() {
        // Every policy runs one repetition per pool job, whatever the
        // run shape or matrix size.
        for p in [BatchPolicy::Auto, BatchPolicy::Sequential] {
            assert_eq!(p.resolve(100, 64, 4), 1);
            assert_eq!(p.resolve(100, 0, 0), 1);
            assert_eq!(p.width_for_matrix(p.resolve(8, 16, 2), usize::MAX), 1);
            // Display/FromStr roundtrip.
            assert_eq!(p.to_string().parse::<BatchPolicy>().unwrap(), p);
        }
    }

    #[test]
    fn zero_fixed_interval_is_a_typed_spec_error() {
        let e = CampaignSpec::parse("matrices = poisson2d:8\ninterval = fixed:0\n");
        match e {
            Err(EngineError::Spec(msg)) => {
                assert!(msg.contains("s must be >= 1"), "{msg}");
            }
            other => panic!("expected Spec error, got {other:?}"),
        }
        assert_eq!(parse_interval("fixed:1").unwrap(), IntervalPolicy::Fixed(1));
    }

    #[test]
    fn machine_dependent_kernel_rejected_in_grid() {
        let e = CampaignSpec::parse("matrices = poisson2d:8\nkernels = auto:bench\n");
        assert!(matches!(e, Err(EngineError::Spec(_))), "{e:?}");
        // The deterministic heuristic is fine.
        assert!(CampaignSpec::parse("matrices = poisson2d:8\nkernels = auto\n").is_ok());
    }

    #[test]
    fn empty_kernel_list_is_empty_grid() {
        assert!(matches!(
            CampaignSpec::parse("matrices = poisson2d:8\nkernels = ,\n"),
            Err(EngineError::EmptyGrid)
        ));
    }

    #[test]
    fn hash_in_values_survives_comment_stripping() {
        let spec = CampaignSpec::parse(
            "name = sweep#2\n\
             matrices = file:run#3.mtx   # trailing comment still works\n",
        )
        .unwrap();
        assert_eq!(spec.name, "sweep#2");
        assert_eq!(spec.matrices, vec![MatrixSource::File("run#3.mtx".into())]);
    }

    #[test]
    fn fractional_and_negative_counts_are_spec_errors() {
        // Historically `threads = 2.9` could truncate to 2 and a
        // negative wrap; both are now explicit diagnostics, in the
        // key=value and JSON formats alike.
        for key in ["threads", "reps", "max_iters"] {
            let e = CampaignSpec::parse(&format!("matrices = poisson2d:8\n{key} = 2.9\n"));
            match e {
                Err(EngineError::Spec(msg)) => {
                    assert!(msg.contains("must be an integer"), "{key}: {msg}")
                }
                other => panic!("{key}: expected Spec error, got {other:?}"),
            }
            let e = CampaignSpec::parse(&format!("matrices = poisson2d:8\n{key} = -2\n"));
            match e {
                Err(EngineError::Spec(msg)) => {
                    assert!(msg.contains("must be non-negative"), "{key}: {msg}")
                }
                other => panic!("{key}: expected Spec error, got {other:?}"),
            }
        }
        let e = CampaignSpec::parse(r#"{"matrices": ["poisson2d:8"], "threads": 2.9}"#);
        assert!(matches!(e, Err(EngineError::Spec(_))), "{e:?}");
        let e = CampaignSpec::parse(r#"{"matrices": ["poisson2d:8"], "reps": -3}"#);
        assert!(matches!(e, Err(EngineError::Spec(_))), "{e:?}");
        // Exactly representable scientific forms still work.
        let ok = CampaignSpec::parse("matrices = poisson2d:8\nreps = 1e3\n").unwrap();
        assert_eq!(ok.reps, 1000);
    }

    #[test]
    fn rejects_unknown_key_and_bad_lines() {
        assert!(CampaignSpec::parse("bogus = 1\nmatrices = poisson2d:4\n").is_err());
        assert!(CampaignSpec::parse("no equals sign here\n").is_err());
    }

    #[test]
    fn empty_grid_rejected() {
        assert!(matches!(
            CampaignSpec::parse("name = x\n"),
            Err(EngineError::EmptyGrid)
        ));
        assert!(matches!(
            CampaignSpec::parse("matrices = poisson2d:4\nreps = 0\n"),
            Err(EngineError::EmptyGrid)
        ));
    }
}
