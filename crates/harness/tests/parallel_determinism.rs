//! The parallel experiment runner must be an observably pure
//! optimization: byte-identical figure output versus the serial path,
//! and one failing workload must not take the rest of the matrix down.

use gmt_harness::{figures, run_all, run_workloads, Scale, SchedulerKind};
use gmt_workloads::{by_benchmark, catalog};

/// Parallel `run_all` (8 workers) produces the same results, in the
/// same order, as the serial path (1 worker) — compared both
/// structurally and as rendered figure text.
#[test]
fn parallel_run_all_is_byte_identical_to_serial() {
    let kind = SchedulerKind::Dswp;
    let results = |jobs| -> Vec<_> {
        run_workloads(catalog(), kind, false, Scale::Quick, jobs)
            .into_iter()
            .map(|r| r.map(|e| e.result))
            .collect()
    };
    let (serial, parallel) = (results(1), results(8));
    assert_eq!(
        format!("{serial:?}"),
        format!("{parallel:?}"),
        "structural results differ between serial and parallel runs"
    );
    assert_eq!(
        figures::render_figure1(&serial, kind),
        figures::render_figure1(&parallel, kind),
        "figure 1 text differs between serial and parallel runs"
    );
    assert_eq!(
        figures::render_figure7(&serial, kind),
        figures::render_figure7(&parallel, kind),
        "figure 7 text differs between serial and parallel runs"
    );
}

/// The `GMT_JOBS` environment override reaches the figure renderers:
/// the env-driven path produces the same bytes as explicit job counts.
#[test]
fn gmt_jobs_env_override_is_deterministic() {
    // This is the only test in this binary touching GMT_JOBS, so the
    // set/remove cannot race another reader.
    std::env::set_var("GMT_JOBS", "4");
    let kind = SchedulerKind::Dswp;
    let figure1 = || figures::render_figure1(&run_all(kind, false, Scale::Quick), kind);
    let with_env = figure1();
    std::env::set_var("GMT_JOBS", "1");
    let serial = figure1();
    std::env::remove_var("GMT_JOBS");
    assert_eq!(with_env, serial);
}

/// A synthetically failing workload errors out with its benchmark and
/// phase named, while every sibling in the queue still completes —
/// and the rendered figure prints the partial results plus the
/// failure line.
#[test]
fn failing_workload_does_not_abort_the_matrix() {
    let mut broken = by_benchmark("ks").expect("ks exists");
    broken.train_args = Vec::new(); // interpreter: MissingArguments
    let workloads = vec![
        by_benchmark("adpcmdec").expect("adpcmdec exists"),
        broken,
        by_benchmark("adpcmenc").expect("adpcmenc exists"),
    ];
    let out = run_workloads(workloads, SchedulerKind::Dswp, false, Scale::Quick, 4);
    assert_eq!(out.len(), 3, "no result slot is dropped");
    assert!(out[0].is_ok(), "sibling before the failure completes");
    assert!(out[2].is_ok(), "sibling after the failure completes");
    let err = out[1].as_ref().expect_err("doctored workload fails");
    assert_eq!(err.benchmark, "ks", "the failure names its benchmark");
    assert_eq!(err.phase, "train run", "the failure names its phase");

    let rows: Vec<_> = out.into_iter().map(|r| r.map(|e| e.result)).collect();
    let text = figures::render_figure1(&rows, SchedulerKind::Dswp);
    assert!(text.contains("adpcmdec"), "partial results print: {text}");
    assert!(text.contains("adpcmenc"), "partial results print: {text}");
    assert!(text.contains("ks") && text.contains("FAILED"), "failure line prints: {text}");
    assert!(text.contains("average"), "average over successes prints: {text}");
}
