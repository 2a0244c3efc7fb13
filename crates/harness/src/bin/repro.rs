//! `repro` — regenerate the paper's figures from the command line.
//!
//! ```text
//! repro --fig 1|6a|6b|7|8|ablations|all [--quick] [--scheduler gremio|dswp|both]
//! repro --fuzz SECS
//! repro --explain ks|all [--scheduler gremio|dswp|both] \
//!       [--variant mtcg|coco] [--quick] [--json] [--trace out.json]
//! ```
//!
//! The three modes are mutually exclusive, and `--fuzz` takes no other
//! flag; conflicting, ignored or repeated flags exit 2 with usage. The
//! experiment matrix runs on the `gmt-testkit` worker pool; set
//! `GMT_JOBS=N` to pin the worker count (`GMT_JOBS=1` is the serial
//! reference path — output is byte-identical either way). A malformed
//! `GMT_JOBS` exits 2 before any mode runs.
//!
//! `--fig all` prints Figures 6a, 6b, 1, 7 and 8. `--fig ablations`
//! prints only on request: the design-choice ablations and the
//! thread-scaling extension (COCO at two and four threads), always on
//! train inputs and over both schedulers, so `--quick` and
//! `--scheduler` do not change it.
//!
//! `--fuzz SECS` runs the differential pipeline fuzzer (the `fuzz` bin
//! from `gmt-fuzz`) for the given wall-clock budget: corpus replay
//! first, then fresh cases; findings shrink, persist to
//! `tests/fuzz_corpus/corpus.txt`, and fail the run.
//!
//! `--explain` compiles each cell once and joins the scheduler's
//! static schedule estimate for the requested variant, under the
//! profile of the measured input, against a traced run with the
//! critical-path sink attached: per-thread cycle attribution (compute,
//! per-reason stalls, idle) and per-queue communication counters tied
//! to the plan, each against the estimate, the dynamic critical path by
//! edge kind, the top path segments, and a one-line verdict
//! (recurrence- / queue- / balance- / mispredict-bound). `--json`
//! emits one JSON object per cell instead of the human report: the
//! run's record (`"schema":1`, identity, wall-clock, instruction and
//! cycle counts, compile-phase timings, per-reason stall cycles, engine
//! steps), then the join's keys. `--trace PATH` (one benchmark, one
//! `--scheduler`) also writes the same run as Chrome-trace-format JSON,
//! from a sink sized to the explained variant
//! (open in `chrome://tracing` or Perfetto; one track per core, one
//! counter track per SA queue, 1 µs = 1 cycle; see EXPERIMENTS.md).

use gmt_harness::figures;
use gmt_harness::{
    compile_cell, explain_json, explain_report, explain_variant, run_all, Scale, SchedulerKind,
};
use gmt_sim::{ChromeTraceSink, NoTrace};
use std::collections::HashSet;

const KNOWN_FIGS: &[&str] = &["1", "6a", "6b", "7", "8", "ablations", "all"];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut fig: Option<String> = None;
    let mut scale = Scale::Full;
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
    // Mode conflicts: the three modes are mutually exclusive, and each
    // flag below only means something under the modes it names.
    if explain.is_some() && fig.is_some() {
        usage("--explain conflicts with --fig");
    }
    if fuzz_secs.is_some() && (fig.is_some() || explain.is_some()) {
        usage("--fuzz conflicts with --fig and --explain");
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
    // Checked once, before any mode prints or computes anything: a
    // malformed `GMT_JOBS` exits 2 here.
    gmt_testkit::num_jobs();

    if let Some(target) = explain {
        let coco = match variant.as_deref() {
            None | Some("coco") => true,
            Some("mtcg") => false,
            Some(v) => usage(&format!("bad variant {v} (known: mtcg, coco)")),
        };
        run_explain(&target, &scheds, coco, scale, json, trace.as_deref());
        return;
    }

    if let Some(secs) = fuzz_secs {
        run_fuzz(secs);
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
    if fig == "ablations" {
        print!("{}", figures::ablation_tables());
    }
}

/// The `--explain` mode: the estimate-vs-measurement join for one
/// benchmark (or `all`), per requested scheduler, each cell compiled
/// once. Human report by default, one JSON line per cell with `--json`.
/// With a `trace` path the run also feeds a Chrome-trace sink sized to
/// the explained variant, written there after the report (the option
/// checks leave one cell then). Exits 1 if any cell fails (including a
/// trace-invariant violation) or the trace cannot be written.
fn run_explain(
    target: &str,
    scheds: &[SchedulerKind],
    coco: bool,
    scale: Scale,
    json: bool,
    trace: Option<&str>,
) {
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
            let explained = compile_cell(w, kind, scale, 2).and_then(|cell| match trace {
                None => Ok((explain_variant(&cell, coco, &mut NoTrace)?, None)),
                Some(path) => {
                    let v = cell.variant(coco);
                    let (threads, queues) = (v.program.threads().len(), v.machine.sa.num_queues);
                    let mut chrome = ChromeTraceSink::new(threads, queues);
                    let explained = explain_variant(&cell, coco, &mut chrome)?;
                    Ok((explained, Some((path, chrome.into_json()))))
                }
            });
            match explained {
                Ok((cell, chrome)) => {
                    if json {
                        println!("{}", explain_json(&cell));
                    } else {
                        print!("{}", explain_report(&cell));
                        println!();
                    }
                    if let Some((path, chrome)) = chrome {
                        if let Err(e) = std::fs::write(path, chrome) {
                            eprintln!("error: writing {path}: {e}");
                            std::process::exit(1);
                        }
                        eprintln!("trace written to {path}");
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

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: repro [--fig 1|6a|6b|7|8|ablations|all] \
         [--quick] [--scheduler gremio|dswp|both]\n\
         \x20      repro --fuzz SECS\n\
         \x20      repro --explain <NAME|all> [--scheduler gremio|dswp|both] \
         [--variant mtcg|coco] [--quick] [--json] [--trace <out.json>]\n\
         modes --fig / --explain / --fuzz are mutually exclusive; \
         --fuzz takes no other flag; --trace needs one NAME and one \
         --scheduler; each flag may appear once\n\
         env: GMT_JOBS=N pins the worker-pool size (default: available parallelism)"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}
