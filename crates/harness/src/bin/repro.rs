//! `repro` — regenerate the paper's figures from the command line.
//!
//! ```text
//! repro --fig 1|6a|6b|7|8|scaling|ablations|all [--quick] [--scheduler gremio|dswp|both]
//! repro --metrics [--quick] [--scheduler gremio|dswp|both]
//! repro --verify-mt
//! repro --fuzz SECS
//! repro --trace out.json [--bench ks] [--scheduler gremio|dswp] \
//!       [--variant mtcg|coco] [--quick]
//! repro --explain ks|all [--scheduler gremio|dswp|both] \
//!       [--variant mtcg|coco] [--quick] [--json]
//! ```
//!
//! The six modes are mutually exclusive; conflicting or repeated
//! flags exit 2 with usage. The experiment matrix runs on the
//! `gmt-testkit` worker pool; set `GMT_JOBS=N` to pin the worker count
//! (`GMT_JOBS=1` is the serial reference path — output is
//! byte-identical either way).
//!
//! `--fig all` prints Figures 6a, 6b, 1, 7 and 8. `--fig scaling` (the
//! thread-scaling extension) and `--fig ablations` (the design-choice
//! ablations, always on train inputs and over both schedulers, so
//! `--quick` and `--scheduler` do not change it) print only on request.
//!
//! `--metrics` evaluates the full timed matrix and emits one JSON-line
//! per (benchmark, scheduler, variant) — wall-clock, instruction and
//! cycle counts, compile-phase timings, per-reason stall cycles — to
//! stdout, then summary and stall-breakdown tables.
//!
//! `--fuzz SECS` runs the differential pipeline fuzzer (the `fuzz` bin
//! from `gmt-fuzz`) for the given wall-clock budget: corpus replay
//! first, then fresh cases; findings shrink, persist to
//! `tests/fuzz_corpus/corpus.txt`, and fail the run.
//!
//! `--trace` runs one kernel × scheduler × variant cell on the decoded
//! engine with tracing attached, writes Chrome-trace-format JSON (open
//! in `chrome://tracing` or Perfetto; one track per core, one counter
//! track per SA queue, 1 µs = 1 cycle) to the given path, and prints
//! the comm-attribution and per-queue communication tables (see
//! EXPERIMENTS.md).
//!
//! `--explain` joins the pipeline's static schedule estimate against a
//! traced run with the critical-path sink attached: per-thread and
//! per-queue estimate-vs-measurement, the dynamic critical path by
//! edge kind, the top path segments, and a one-line verdict
//! (recurrence- / queue- / balance- / mispredict-bound). `--json`
//! emits one JSON object per cell instead of the human report.

use gmt_harness::figures;
use gmt_harness::{
    comm_attribution_table, explain_cell, explain_json, explain_report, metrics_table,
    queue_comm_table, run_all, run_workloads, stall_table, trace_cell, verify_matrix,
    verify_table, Scale, SchedulerKind,
};
use std::collections::HashSet;

const KNOWN_FIGS: &[&str] = &["1", "6a", "6b", "7", "8", "scaling", "ablations", "all"];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut fig: Option<String> = None;
    let mut scale = Scale::Full;
    let mut metrics = false;
    let mut verify = false;
    let mut fuzz_secs: Option<u64> = None;
    let mut trace: Option<String> = None;
    let mut explain: Option<String> = None;
    let mut json = false;
    let mut bench: Option<String> = None;
    let mut variant: Option<String> = None;
    let mut scheds: Option<Vec<SchedulerKind>> = None;
    let mut seen: HashSet<&'static str> = HashSet::new();
    // Every option may appear at most once — a repeated flag is a
    // typo or a mangled invocation, not a request.
    let mut once = |flag: &'static str| {
        if !seen.insert(flag) {
            usage(&format!("duplicate flag {flag}"));
        }
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--fig" => {
                once("--fig");
                fig = Some(it.next().cloned().unwrap_or_else(|| usage("missing figure id")));
            }
            "--quick" => {
                once("--quick");
                scale = Scale::Quick;
            }
            "--metrics" => {
                once("--metrics");
                metrics = true;
            }
            "--verify-mt" => {
                once("--verify-mt");
                verify = true;
            }
            "--fuzz" => {
                once("--fuzz");
                let v = it.next().cloned().unwrap_or_else(|| usage("missing --fuzz seconds"));
                fuzz_secs =
                    Some(v.parse().unwrap_or_else(|_| usage(&format!("bad --fuzz seconds {v:?}"))));
            }
            "--trace" => {
                once("--trace");
                trace =
                    Some(it.next().cloned().unwrap_or_else(|| usage("missing --trace path")));
            }
            "--explain" => {
                once("--explain");
                explain = Some(
                    it.next().cloned().unwrap_or_else(|| usage("missing --explain benchmark")),
                );
            }
            "--json" => {
                once("--json");
                json = true;
            }
            "--bench" => {
                once("--bench");
                bench =
                    Some(it.next().cloned().unwrap_or_else(|| usage("missing benchmark name")));
            }
            "--variant" => {
                once("--variant");
                variant = Some(it.next().cloned().unwrap_or_else(|| usage("missing variant")));
            }
            "--scheduler" => {
                once("--scheduler");
                scheds = match it.next().map(String::as_str) {
                    Some("gremio") => Some(vec![SchedulerKind::Gremio]),
                    Some("dswp") => Some(vec![SchedulerKind::Dswp]),
                    Some("both") => Some(vec![SchedulerKind::Gremio, SchedulerKind::Dswp]),
                    other => usage(&format!("bad scheduler {other:?}")),
                };
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown argument {other}")),
        }
    }
    // Mode conflicts: --fig / --metrics / --trace are mutually
    // exclusive; --bench and --variant only mean something under
    // --trace.
    if metrics && fig.is_some() {
        usage("--fig conflicts with --metrics");
    }
    if trace.is_some() && (metrics || fig.is_some()) {
        usage("--trace conflicts with --fig and --metrics");
    }
    if explain.is_some() && (metrics || fig.is_some() || trace.is_some()) {
        usage("--explain conflicts with --fig, --metrics, and --trace");
    }
    if verify && (metrics || fig.is_some() || trace.is_some() || explain.is_some()) {
        usage("--verify-mt conflicts with --fig, --metrics, --trace, and --explain");
    }
    if fuzz_secs.is_some()
        && (verify || metrics || fig.is_some() || trace.is_some() || explain.is_some())
    {
        usage("--fuzz conflicts with --fig, --metrics, --trace, --explain, and --verify-mt");
    }
    if trace.is_none() && bench.is_some() {
        usage("--bench requires --trace");
    }
    if trace.is_none() && explain.is_none() && variant.is_some() {
        usage("--variant requires --trace or --explain");
    }
    if explain.is_none() && json {
        usage("--json requires --explain");
    }
    // Default scheduler set: gremio alone under --trace (one cell),
    // both for the figure/metrics matrix.
    let scheds = scheds.unwrap_or_else(|| {
        if trace.is_some() {
            vec![SchedulerKind::Gremio]
        } else {
            vec![SchedulerKind::Gremio, SchedulerKind::Dswp]
        }
    });
    if let Some(f) = &fig {
        if !KNOWN_FIGS.contains(&f.as_str()) {
            usage(&format!("unknown figure id {f} (known: {})", KNOWN_FIGS.join(", ")));
        }
    }

    if let Some(target) = explain {
        let coco = match variant.as_deref() {
            None | Some("coco") => true,
            Some("mtcg") => false,
            Some(v) => usage(&format!("bad variant {v} (known: mtcg, coco)")),
        };
        run_explain(&target, &scheds, coco, scale, json);
        return;
    }

    if let Some(path) = trace {
        if scheds.len() != 1 {
            usage("--trace needs a single --scheduler (gremio or dswp)");
        }
        let coco = match variant.as_deref() {
            None | Some("coco") => true,
            Some("mtcg") => false,
            Some(v) => usage(&format!("bad variant {v} (known: mtcg, coco)")),
        };
        run_trace(&path, bench.as_deref().unwrap_or("ks"), scheds[0], coco, scale);
        return;
    }

    if verify {
        run_verify();
        return;
    }

    if let Some(secs) = fuzz_secs {
        run_fuzz(secs);
        return;
    }

    if metrics {
        run_metrics(&scheds, scale);
        return;
    }

    let fig = fig.unwrap_or_else(|| String::from("all"));
    let want = |id: &str| fig == "all" || fig == id;
    if want("6a") {
        print!("{}", figures::figure6a());
        println!();
    }
    if want("6b") {
        print!("{}", figures::figure6b());
        println!();
    }
    // One evaluation of the matrix per scheduler serves whichever of
    // Figures 1, 7 and 8 were asked for; only Figure 8 needs it timed.
    if want("1") || want("7") || want("8") {
        let rows: Vec<_> = scheds.iter().map(|&k| (k, run_all(k, want("8"), scale))).collect();
        let print_figure = |id, render: fn(&[figures::FigureRow], SchedulerKind) -> String| {
            if want(id) {
                for (k, rows) in &rows {
                    print!("{}", render(rows, *k));
                    println!();
                }
            }
        };
        print_figure("1", figures::render_figure1);
        print_figure("7", figures::render_figure7);
        print_figure("8", figures::render_figure8);
    }
    if fig == "scaling" {
        for &k in &scheds {
            print!("{}", figures::thread_scaling_table(k));
            println!();
        }
    }
    if fig == "ablations" {
        print!("{}", figures::ablation_tables());
    }
}

/// The `--trace` mode: one traced cell, Chrome JSON to `path`, tables
/// to stdout.
fn run_trace(path: &str, bench: &str, kind: SchedulerKind, coco: bool, scale: Scale) {
    let Some(w) = gmt_workloads::by_benchmark(bench) else {
        usage(&format!("unknown benchmark {bench}"));
    };
    let cell = match trace_cell(&w, kind, coco, scale) {
        Ok(cell) => cell,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    if let Err(e) = std::fs::write(path, &cell.chrome_json) {
        eprintln!("error: writing {path}: {e}");
        std::process::exit(1);
    }
    print!("{}", comm_attribution_table(&cell));
    println!();
    print!("{}", queue_comm_table(&cell));
    println!("trace written to {path}");
}

/// The `--explain` mode: the estimate-vs-measurement join for one
/// benchmark (or `all`), per requested scheduler. Human report by
/// default, one JSON line per cell with `--json`. Exits 1 if any cell
/// fails (including a trace-invariant violation).
fn run_explain(target: &str, scheds: &[SchedulerKind], coco: bool, scale: Scale, json: bool) {
    let workloads = if target == "all" {
        gmt_workloads::catalog()
    } else {
        match gmt_workloads::by_benchmark(target) {
            Some(w) => vec![w],
            None => usage(&format!("unknown benchmark {target} (or \"all\")")),
        }
    };
    let mut failed = false;
    for &kind in scheds {
        for w in &workloads {
            match explain_cell(w, kind, coco, scale) {
                Ok(cell) => {
                    if json {
                        println!("{}", explain_json(&cell));
                    } else {
                        print!("{}", explain_report(&cell));
                        println!();
                    }
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    failed = true;
                }
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// The `--verify-mt` mode: the static queue-protocol validator over the
/// full kernel × scheduler × ±COCO matrix at the paper's queue depths.
/// Exits 1 if any configuration fails to parallelize or violates the
/// protocol.
fn run_verify() {
    let results = verify_matrix(gmt_testkit::num_jobs());
    print!("{}", verify_table(&results));
    let cells = results.len();
    let bad = results.iter().filter(|r| !matches!(r, Ok(c) if c.ok())).count();
    if bad > 0 {
        eprintln!("error: {bad}/{cells} configurations failed queue-protocol verification");
        std::process::exit(1);
    }
    println!("all {cells} configurations verify");
}

/// The `--fuzz` mode: the time-budgeted differential pipeline fuzzer.
/// Exits 1 on any finding (which is also shrunk and persisted to the
/// corpus by the driver).
fn run_fuzz(secs: u64) {
    let opts = gmt_fuzz::FuzzOptions { secs: Some(secs), ..gmt_fuzz::FuzzOptions::default() };
    match gmt_fuzz::fuzz_run(&opts) {
        Ok(stats) => {
            println!("{}", stats.summary());
            println!("modes: {}", stats.mode_breakdown());
            if stats.findings > 0 {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

/// The `--metrics` mode: full timed matrix, JSON-lines, summary table.
fn run_metrics(scheds: &[SchedulerKind], scale: Scale) {
    let jobs = gmt_testkit::num_jobs();
    let mut records = Vec::new();
    let mut failures = Vec::new();
    for &k in scheds {
        for outcome in run_workloads(gmt_workloads::catalog(), k, true, scale, jobs) {
            match outcome {
                Ok(e) => records.extend(e.metrics),
                Err(e) => failures.push(e),
            }
        }
    }
    for m in &records {
        println!("{}", m.to_json());
    }
    println!();
    print!("{}", metrics_table(&records));
    println!();
    print!("{}", stall_table(&records));
    let executed = || records.iter().filter(|m| !m.shared_run);
    println!("shared runs: {} of {} records", records.len() - executed().count(), records.len());
    // Aggregate fast-forward ratio over the runs the timed engine
    // actually made (no ratio exists for engine_steps == 0): a shared
    // run is one execution reported by two records and counts once.
    let steps: u64 = executed().map(|m| m.engine_steps).sum();
    let skipped: u64 = executed().map(|m| m.skipped_cycles).sum();
    if steps > 0 {
        println!(
            "stall fast-forward: {skipped}/{} cycles skipped ({:.1}%)",
            steps + skipped,
            skipped as f64 * 100.0 / (steps + skipped) as f64
        );
    }
    for e in &failures {
        eprintln!("error: {e}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: repro [--fig 1|6a|6b|7|8|scaling|ablations|all] [--metrics] [--verify-mt] \
         [--fuzz SECS] \
         [--quick] [--scheduler gremio|dswp|both]\n\
         \x20      repro --trace <out.json> [--bench NAME] [--scheduler gremio|dswp] \
         [--variant mtcg|coco] [--quick]\n\
         \x20      repro --explain <NAME|all> [--scheduler gremio|dswp|both] \
         [--variant mtcg|coco] [--quick] [--json]\n\
         modes --fig / --metrics / --trace / --explain / --verify-mt / --fuzz are mutually \
         exclusive; each flag may appear once\n\
         env: GMT_JOBS=N pins the worker-pool size (default: available parallelism)"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}
