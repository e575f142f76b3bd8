//! Integration tests: a small real campaign on `poisson2d`, checking
//! the engine's two headline contracts — determinism and correctness of
//! the aggregated results.

use ftcg_engine::prelude::*;
use ftcg_engine::sink;

const SPEC: &str = "name     = itest\n\
                    seed     = 2026\n\
                    reps     = 5\n\
                    threads  = 4\n\
                    matrices = poisson2d:14\n\
                    schemes  = detection, correction\n\
                    alphas   = 0, 1/16\n";

fn spec() -> CampaignSpec {
    CampaignSpec::parse(SPEC).expect("spec parses")
}

#[test]
fn same_spec_and_seed_is_deterministic() {
    let a = run_campaign(&spec(), &DefaultResolver, None).unwrap();
    let b = run_campaign(&spec(), &DefaultResolver, None).unwrap();
    // Identical aggregated summaries...
    assert_eq!(a.summaries, b.summaries);
    // ...and byte-identical serialized artifacts.
    assert_eq!(
        sink::jsonl_string(&a.summaries),
        sink::jsonl_string(&b.summaries)
    );
    assert_eq!(
        sink::csv_string(&a.summaries),
        sink::csv_string(&b.summaries)
    );
    // Both values the retired `batch` key still accepts run the same
    // jobs: `auto` and `1` write byte-identical artifacts.
    let [auto, one] = ["auto", "1"].map(|batch| {
        let cs = CampaignSpec::parse(&format!("{SPEC}batch    = {batch}\n")).unwrap();
        let r = run_campaign(&cs, &DefaultResolver, None).unwrap();
        (
            sink::jsonl_string(&r.summaries),
            sink::csv_string(&r.summaries),
        )
    });
    assert_eq!(auto, one);
    assert_eq!(auto.0, sink::jsonl_string(&a.summaries));
}

#[test]
fn thread_count_never_changes_results() {
    let mut one = spec();
    one.threads = 1;
    let mut eight = spec();
    eight.threads = 8;
    let a = run_campaign(&one, &DefaultResolver, None).unwrap();
    let b = run_campaign(&eight, &DefaultResolver, None).unwrap();
    assert_eq!(a.summaries, b.summaries);
}

#[test]
fn fault_free_configs_always_converge() {
    let r = run_campaign(&spec(), &DefaultResolver, None).unwrap();
    assert_eq!(r.summaries.len(), 4); // 1 matrix × 2 schemes × 2 α
    assert_eq!(r.total_jobs, 20);
    assert_eq!(r.panics, 0);
    for row in &r.summaries {
        assert_eq!(row.reps, 5, "{}", row.scheme);
        assert_eq!(row.panics, 0);
        if row.alpha == 0.0 {
            assert_eq!(
                row.convergence_rate, 1.0,
                "α=0 must always converge ({})",
                row.scheme
            );
            assert_eq!(row.mean_faults, 0.0);
            // No injection ⇒ zero spread across repetitions.
            assert_eq!(row.time.std, 0.0);
            assert_eq!(row.time.min, row.time.max);
        } else {
            assert!(row.mean_faults > 0.0, "α=1/16 should inject faults");
        }
        assert!(row.time.mean > 0.0);
        assert!(row.max_true_residual < 1e-5);
    }
}

#[test]
fn faulty_configs_cost_more_time_than_clean_ones() {
    let r = run_campaign(&spec(), &DefaultResolver, None).unwrap();
    // Rows are in grid order: (detection, 0), (detection, 1/16),
    // (correction, 0), (correction, 1/16).
    let s = &r.summaries;
    assert!(s[1].time.mean >= s[0].time.mean);
    assert!(s[3].time.mean >= s[2].time.mean);
}

#[test]
fn changing_the_seed_changes_faulty_results_only() {
    let mut reseeded = spec();
    reseeded.seed = 9999;
    let a = run_campaign(&spec(), &DefaultResolver, None).unwrap();
    let b = run_campaign(&reseeded, &DefaultResolver, None).unwrap();
    // α=0 rows carry no randomness at all.
    assert_eq!(a.summaries[0], b.summaries[0]);
    assert_eq!(a.summaries[2], b.summaries[2]);
    // The injected rows see different fault streams.
    assert_ne!(a.summaries[1], b.summaries[1]);
}

#[test]
fn kernel_axis_sweeps_and_stays_deterministic() {
    let kspec = CampaignSpec::parse(
        "name     = ktest\n\
         seed     = 7\n\
         reps     = 4\n\
         threads  = 4\n\
         matrices = poisson2d:14\n\
         schemes  = correction\n\
         alphas   = 0, 1/16\n\
         kernels  = csr, bcsr:2, sell:8:32, csr-par:2\n",
    )
    .expect("spec parses");
    let a = run_campaign(&kspec, &DefaultResolver, None).unwrap();
    assert_eq!(a.summaries.len(), 8); // 1 matrix × 1 scheme × 2 α × 4 kernels
    assert_eq!(a.panics, 0);
    // Rows carry the kernel label, kernels innermost in grid order.
    let kernels: Vec<&str> = a.summaries.iter().map(|r| r.kernel.as_str()).collect();
    assert_eq!(
        kernels,
        [
            "csr",
            "bcsr:2",
            "sell:8:32",
            "csr-par:2",
            "csr",
            "bcsr:2",
            "sell:8:32",
            "csr-par:2"
        ]
    );
    // Every backend solves the fault-free configs...
    for row in &a.summaries {
        if row.alpha == 0.0 {
            assert_eq!(row.convergence_rate, 1.0, "kernel {}", row.kernel);
        }
        assert!(row.max_true_residual < 1e-5, "kernel {}", row.kernel);
    }
    // ...fault-free rows are identical across backends (same ordered
    // floating-point sums on clean data)...
    for row in &a.summaries[1..4] {
        assert_eq!(a.summaries[0].time, row.time, "kernel {}", row.kernel);
    }
    // ...and the artifacts are byte-deterministic across reruns.
    let b = run_campaign(&kspec, &DefaultResolver, None).unwrap();
    assert_eq!(
        sink::jsonl_string(&a.summaries),
        sink::jsonl_string(&b.summaries)
    );
    assert_eq!(
        sink::csv_string(&a.summaries),
        sink::csv_string(&b.summaries)
    );
}

#[test]
fn auto_kernel_rows_report_the_resolved_backend() {
    let kspec = CampaignSpec::parse(
        "matrices = poisson2d:12\nschemes = correction\nalphas = 0\nkernels = auto\nreps = 2\n",
    )
    .expect("spec parses");
    let r = run_campaign(&kspec, &DefaultResolver, None).unwrap();
    assert_eq!(r.summaries.len(), 1);
    // The artifact names the backend the heuristic picked, never the
    // literal `auto`.
    assert_ne!(r.summaries[0].kernel, "auto");
    assert!(!r.summaries[0].kernel.is_empty());
}

#[test]
fn kernel_variants_share_fault_streams() {
    // Common-random-numbers pairing: the kernel axis must not change
    // the injected faults, so kernel columns are comparable under
    // injection (seeds derive from a kernel-free grid coordinate).
    let kspec = CampaignSpec::parse(
        "name     = paired\n\
         seed     = 7\n\
         reps     = 4\n\
         matrices = poisson2d:14\n\
         schemes  = correction\n\
         alphas   = 1/16\n\
         kernels  = csr, bcsr:2, sell:8:32, csr-par:2\n",
    )
    .expect("spec parses");
    let r = run_campaign(&kspec, &DefaultResolver, None).unwrap();
    assert_eq!(r.summaries.len(), 4);
    let reference = &r.summaries[0];
    assert!(reference.mean_faults > 0.0, "rate too low to pair anything");
    for row in &r.summaries[1..] {
        assert_eq!(
            row.mean_faults, reference.mean_faults,
            "kernel {}",
            row.kernel
        );
        // Identical fault streams + order-identical products ⇒ the whole
        // trajectory (and thus simulated time) matches on clean layouts.
        assert_eq!(row.time, reference.time, "kernel {}", row.kernel);
    }
}
