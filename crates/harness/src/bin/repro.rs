//! `repro` — regenerate the paper's figures from the command line.
//!
//! ```text
//! repro --fig 1|6a|6b|7|8|scaling|ablations|all [--quick] [--scheduler gremio|dswp|both]
//! repro --metrics [--quick] [--scheduler gremio|dswp|both]
//! repro --fuzz SECS
//! repro --explain ks|all [--scheduler gremio|dswp|both] \
//!       [--variant mtcg|coco] [--quick] [--json] [--trace out.json]
//! ```
//!
//! The four modes are mutually exclusive, and `--fuzz` takes no other
//! flag; conflicting, ignored or repeated flags exit 2 with usage. The
//! experiment matrix runs on the `gmt-testkit` worker pool; set
//! `GMT_JOBS=N` to pin the worker count (`GMT_JOBS=1` is the serial
//! reference path — output is byte-identical either way). A malformed
//! `GMT_JOBS` exits 2 before any mode runs.
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
//! `--explain` joins the scheduler's static schedule estimate, under
//! the profile of the measured input, against a traced run with the
//! critical-path sink attached: per-thread cycle attribution (compute,
//! per-reason stalls, idle) and per-queue communication counters tied
//! to the plan, each against the estimate,
//! the dynamic critical path by edge kind, the top path segments, and
//! a one-line verdict (recurrence- / queue- / balance- /
//! mispredict-bound). `--json` emits one JSON object per cell instead
//! of the human report. `--trace PATH` (one benchmark, one
//! `--scheduler`) also writes the same run as Chrome-trace-format JSON
//! (open in `chrome://tracing` or Perfetto; one track per core, one
//! counter track per SA queue, 1 µs = 1 cycle; see EXPERIMENTS.md).

use gmt_harness::figures;
use gmt_harness::{
    explain_cell_with, explain_json, explain_report, metrics_table, run_all, run_workloads,
    stall_table, CompiledVariant, Scale, SchedulerKind,
};
use gmt_sim::{ChromeTraceSink, NoTrace, TraceSink};
use std::collections::HashSet;

const KNOWN_FIGS: &[&str] = &["1", "6a", "6b", "7", "8", "scaling", "ablations", "all"];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut fig: Option<String> = None;
    let mut scale = Scale::Full;
    let mut metrics = false;
    let mut fuzz_secs: Option<u64> = None;
    let mut trace: Option<String> = None;
    let mut explain: Option<String> = None;
    let mut json = false;
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
    // Mode conflicts: the four modes are mutually exclusive, and each
    // flag below only means something under the modes it names.
    if metrics && fig.is_some() {
        usage("--fig conflicts with --metrics");
    }
    if explain.is_some() && (metrics || fig.is_some()) {
        usage("--explain conflicts with --fig and --metrics");
    }
    if fuzz_secs.is_some() && (metrics || fig.is_some() || explain.is_some()) {
        usage("--fuzz conflicts with --fig, --metrics, and --explain");
    }
    // --fuzz generates its own programs, so a scale or a scheduler
    // would go unread.
    if fuzz_secs.is_some() && (matches!(scale, Scale::Quick) || scheds.is_some()) {
        usage("--fuzz takes neither --quick nor --scheduler");
    }
    let explain_only =
        [(variant.is_some(), "--variant"), (json, "--json"), (trace.is_some(), "--trace")];
    for (given, flag) in explain_only {
        if given && explain.is_none() {
            usage(&format!("{flag} requires --explain"));
        }
    }
    // A trace file holds one run.
    if trace.is_some() && explain.as_deref() == Some("all") {
        usage("--trace needs one benchmark, not all");
    }
    if trace.is_some() && scheds.as_ref().is_none_or(|s| s.len() != 1) {
        usage("--trace needs a single --scheduler (gremio or dswp)");
    }
    let scheds = scheds.unwrap_or_else(|| vec![SchedulerKind::Gremio, SchedulerKind::Dswp]);
    if let Some(f) = &fig {
        if !KNOWN_FIGS.contains(&f.as_str()) {
            usage(&format!("unknown figure id {f} (known: {})", KNOWN_FIGS.join(", ")));
        }
    }
    // Checked once, before any mode prints or computes anything.
    let jobs = gmt_testkit::num_jobs();

    if let Some(target) = explain {
        let coco = match variant.as_deref() {
            None | Some("coco") => true,
            Some("mtcg") => false,
            Some(v) => usage(&format!("bad variant {v} (known: mtcg, coco)")),
        };
        let Some(path) = trace else {
            run_explain(&target, &scheds, coco, scale, json, |_| NoTrace);
            return;
        };
        let chrome = |v: &CompiledVariant| {
            ChromeTraceSink::new(v.program.threads().len(), v.machine.sa.num_queues)
        };
        // The checks above leave one cell, so one trace.
        for chrome in run_explain(&target, &scheds, coco, scale, json, chrome) {
            if let Err(e) = std::fs::write(&path, chrome.into_json()) {
                eprintln!("error: writing {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("trace written to {path}");
        }
        return;
    }

    if let Some(secs) = fuzz_secs {
        run_fuzz(secs);
        return;
    }

    if metrics {
        run_metrics(&scheds, scale, jobs);
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

/// The `--explain` mode: the estimate-vs-measurement join for one
/// benchmark (or `all`), per requested scheduler. Human report by
/// default, one JSON line per cell with `--json`. Each cell's run also
/// feeds the sink `sink` builds for it; the sinks come back in cell
/// order. Exits 1 if any cell fails (including a trace-invariant
/// violation).
fn run_explain<S: TraceSink>(
    target: &str,
    scheds: &[SchedulerKind],
    coco: bool,
    scale: Scale,
    json: bool,
    sink: impl Fn(&CompiledVariant) -> S,
) -> Vec<S> {
    let workloads = if target == "all" {
        gmt_workloads::catalog()
    } else {
        match gmt_workloads::by_benchmark(target) {
            Some(w) => vec![w],
            None => usage(&format!("unknown benchmark {target} (or \"all\")")),
        }
    };
    let mut failed = false;
    let mut sinks = Vec::new();
    for &kind in scheds {
        for w in &workloads {
            match explain_cell_with(w, kind, coco, scale, &sink) {
                Ok((cell, extra)) => {
                    if json {
                        println!("{}", explain_json(&cell));
                    } else {
                        print!("{}", explain_report(&cell));
                        println!();
                    }
                    sinks.push(extra);
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
    sinks
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
fn run_metrics(scheds: &[SchedulerKind], scale: Scale, jobs: usize) {
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
        "usage: repro [--fig 1|6a|6b|7|8|scaling|ablations|all] [--metrics] \
         [--quick] [--scheduler gremio|dswp|both]\n\
         \x20      repro --fuzz SECS\n\
         \x20      repro --explain <NAME|all> [--scheduler gremio|dswp|both] \
         [--variant mtcg|coco] [--quick] [--json] [--trace <out.json>]\n\
         modes --fig / --metrics / --explain / --fuzz are mutually exclusive; \
         --fuzz takes no other flag; --trace needs one NAME and one \
         --scheduler; each flag may appear once\n\
         env: GMT_JOBS=N pins the worker-pool size (default: available parallelism)"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}
