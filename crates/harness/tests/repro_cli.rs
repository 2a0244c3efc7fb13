//! Bin-level tests of the `repro` CLI contract: conflicting, repeated,
//! and malformed invocations exit 2 with usage on stderr; valid ones
//! succeed. Every case here runs the real binary
//! (`CARGO_BIN_EXE_repro`), so the tests cover argument parsing,
//! `GMT_JOBS` validation, and the `--explain --trace` pipeline end to
//! end.
//!
//! Regression tests for earlier CLI faults: a second mode beside
//! `--fig 7` silently ignored the figure, a repeated `--scheduler`
//! silently kept the last value, and `GMT_JOBS=0` silently ran at full
//! parallelism.

use std::collections::HashMap;
use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .env_remove("GMT_JOBS")
        .output()
        .expect("repro runs")
}

fn assert_usage_exit(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "exit 2 expected; stderr: {stderr}");
    assert!(stderr.contains("usage:"), "usage on stderr: {stderr}");
    assert!(stderr.contains(needle), "diagnosis names the problem (`{needle}`): {stderr}");
}

#[test]
fn help_exits_zero_with_usage() {
    let out = repro(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage:"), "{stderr}");
    assert!(stderr.contains("modes --fig / --explain / --fuzz are mutually exclusive"), "{stderr}");
}

#[test]
fn unknown_argument_exits_2() {
    assert_usage_exit(&repro(&["--fig", "7", "trailing-junk"]), "trailing-junk");
    assert_usage_exit(&repro(&["--bogus"]), "--bogus");
    // `--explain` names the kernel; there is no second way to.
    assert_usage_exit(&repro(&["--bench", "ks"]), "unknown argument --bench");
    // The verification matrix is a test, not a mode.
    assert_usage_exit(&repro(&["--verify-mt"]), "unknown argument --verify-mt");
    // The run records are `--explain --json`'s first keys, not a mode.
    assert_usage_exit(&repro(&["--metrics"]), "unknown argument --metrics");
    assert_usage_exit(&repro(&["--metrics", "--quick"]), "unknown argument --metrics");
}

#[test]
fn unknown_figure_exits_2() {
    assert_usage_exit(&repro(&["--fig", "9"]), "unknown figure id 9");
    // The thread-scaling rows are `--fig ablations`' first table.
    assert_usage_exit(&repro(&["--fig", "scaling"]), "unknown figure id scaling");
}

#[test]
fn conflicting_modes_exit_2() {
    assert_usage_exit(&repro(&["--explain", "ks", "--fig", "7"]), "--explain conflicts with --fig");
    let traced = ["--explain", "ks", "--scheduler", "dswp", "--trace", "/tmp/x.json", "--fig", "7"];
    assert_usage_exit(&repro(&traced), "--explain conflicts with --fig");
    for mode in [&["--fig", "7"][..], &["--explain", "ks"]] {
        let args = [&["--fuzz", "1"], mode].concat();
        assert_usage_exit(&repro(&args), "--fuzz conflicts with --fig and --explain");
    }
    // Flags the mode would silently ignore: the parsing rejects them
    // before any work, so these cases cost no fuzzing.
    for args in [
        &["--fuzz", "1", "--quick"][..],
        &["--fuzz", "1", "--scheduler", "both"],
        &["--fuzz", "1", "--scheduler", "dswp", "--quick"],
    ] {
        assert_usage_exit(&repro(args), "takes neither --quick nor --scheduler");
    }
}

#[test]
fn explain_option_validation_exits_2() {
    assert_usage_exit(&repro(&["--json"]), "--json requires --explain");
    assert_usage_exit(&repro(&["--explain"]), "missing --explain benchmark");
    assert_usage_exit(&repro(&["--explain", "nosuch", "--quick"]), "unknown benchmark nosuch");
    assert_usage_exit(&repro(&["--explain", "ks", "--variant", "fast"]), "bad variant fast");
}

/// The text of the first `"key":` value in a flat JSON object rendered
/// by `repro`, up to the next `,`, `}` or `]` — the scalar values read
/// here hold none (no JSON crate in this workspace).
fn json_value<'a>(obj: &'a str, key: &str) -> &'a str {
    let needle = format!("\"{key}\":");
    let at = obj.find(&needle).unwrap_or_else(|| panic!("missing {key}: {obj}")) + needle.len();
    let rest = &obj[at..];
    &rest[..rest.find([',', '}', ']']).unwrap_or(rest.len())]
}

/// [`json_value`] as an unsigned integer.
fn json_u64(obj: &str, key: &str) -> u64 {
    json_value(obj, key).parse().unwrap_or_else(|_| panic!("{key} is not a number: {obj}"))
}

fn stdout_of(args: &[&str]) -> String {
    success_stdout(repro(args))
}

/// [`stdout_of`] with `GMT_JOBS` set to `jobs`.
fn stdout_on(jobs: &str, args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .env("GMT_JOBS", jobs)
        .output()
        .expect("repro runs");
    success_stdout(out)
}

fn success_stdout(out: Output) -> String {
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// The whole kernel × scheduler matrix explains cleanly, every record
/// carries the full schema, and the conservation laws of DESIGN.md
/// invariant 9 hold: the critical path sums to the cycle count, its
/// edge-kind decomposition sums to the path, and every thread's
/// compute + stall + idle covers every cycle.
#[test]
fn explain_emits_conserving_json() {
    const CP_KINDS: [&str; 10] = [
        "in_order", "dataflow", "load", "queue_data", "queue_space", "sa_port", "structural",
        "load_limit", "refill", "retire",
    ];
    const VERDICTS: [&str; 4] =
        ["recurrence-bound", "queue-bound", "mispredict-bound", "balance-bound"];
    let stdout = stdout_of(&["--explain", "all", "--scheduler", "both", "--quick", "--json"]);
    let rows: Vec<&str> = stdout.lines().filter(|l| !l.trim().is_empty()).collect();
    assert_eq!(rows.len(), 22, "11 kernels x 2 schedulers");
    for line in rows {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        for key in [
            "benchmark", "scheduler", "variant", "cycles", "verdict",
            "est_bottleneck", "est_total", "max_share_pct", "cut_register", "cut_memory",
            "cut_control", "sync_points", "cp_total", "cp_edges", "cp_crossings", "threads",
            "queues",
        ] {
            assert!(line.contains(&format!("\"{key}\":")), "missing {key}: {line}");
        }
        assert!(
            VERDICTS.iter().any(|v| line.contains(&format!("\"verdict\":\"{v}\""))),
            "unknown verdict: {line}"
        );
        let cycles = json_u64(line, "cycles");
        assert_eq!(json_u64(line, "cp_total"), cycles, "path != cycles: {line}");
        let kinds: u64 = CP_KINDS.iter().map(|k| json_u64(line, &format!("cp_{k}"))).sum();
        assert_eq!(kinds, cycles, "kinds don't sum: {line}");
        let threads = line.split("\"threads\":[").nth(1).expect("threads array");
        let threads = threads.split(']').next().expect("threads array closes");
        assert!(!threads.is_empty(), "at least one thread: {line}");
        for t in threads.split("},{") {
            let sum = json_u64(t, "compute") + json_u64(t, "stall") + json_u64(t, "idle");
            assert_eq!(sum, cycles, "thread decomposition: {line}");
        }
    }
}

/// `line` without its wall-clock fields (`"..._ns":N,`), the only ones
/// that differ from run to run.
fn without_ns(line: &str) -> String {
    let mut out = String::new();
    let mut rest = line;
    while let Some(at) = rest.find("_ns\":") {
        let key = rest[..at].rfind('"').expect("the key opens");
        let end = at + rest[at..].find(',').expect("another field follows") + 1;
        out.push_str(&rest[..key]);
        rest = &rest[end..];
    }
    out + rest
}

/// Every `--explain --json` line of the quick matrix — cycles, stall
/// counters, the estimate, the critical path by kind, per-thread and
/// per-queue tables — as recorded before the critical-path sink was
/// rebuilt (PR 21).
#[test]
fn explain_json_matches_golden() {
    let stdout = stdout_of(&["--explain", "all", "--scheduler", "both", "--quick", "--json"]);
    let golden = include_str!("../../../tests/golden/explain_all_quick_json.txt");
    assert_eq!(stdout.lines().count(), golden.lines().count());
    for (line, want) in stdout.lines().zip(golden.lines()) {
        assert_eq!(without_ns(line), want);
    }
}

/// The nesting law of the run record, end to end: every
/// `--explain --json` line of the quick matrix, in both variants,
/// opens with exactly the run's record keys in their order, `"schema":1`
/// first, and the join's deeper keys follow. The run-determined values
/// of a cell are the same whether `all` explains it among the matrix or
/// alone (a shared pool does not change what the engine does).
#[test]
fn explain_json_nests_the_metrics_line() {
    const RECORD: [&str; 22] = [
        "schema", "benchmark", "scheduler", "variant", "wall_ns", "instrs", "cycles",
        "pdg_build_ns", "partition_ns", "coco_ns", "mtcg_ns", "arb_probes", "stall_operand",
        "stall_structural", "stall_sa_port", "stall_queue_full", "stall_queue_empty",
        "stall_load_limit", "stall_mispredict", "engine_steps", "skipped_cycles", "shared_run",
    ];
    const RUN_DETERMINED: [&str; 14] = [
        "benchmark", "scheduler", "variant", "instrs", "cycles", "stall_operand",
        "stall_structural", "stall_sa_port", "stall_queue_full", "stall_queue_empty",
        "stall_load_limit", "stall_mispredict", "engine_steps", "skipped_cycles",
    ];
    for variant in ["mtcg", "coco"] {
        let all = ["--explain", "all", "--scheduler", "both", "--quick", "--json"];
        let stdout = stdout_of(&[&all[..], &["--variant", variant]].concat());
        let lines: Vec<&str> = stdout.lines().filter(|l| !l.trim().is_empty()).collect();
        assert_eq!(lines.len(), 22, "11 kernels x 2 schedulers");
        for line in &lines {
            assert!(line.starts_with("{\"schema\":1,\"benchmark\":"), "{line}");
            assert_eq!(json_value(line, "variant"), format!("\"{variant}\""), "{line}");
            let (record, deeper) = line.split_once(",\"verdict\":").expect("the join follows");
            let keys: Vec<&str> = record[1..]
                .split(',')
                .map(|kv| kv.split_once("\":").expect("a key").0.trim_start_matches('"'))
                .collect();
            assert_eq!(keys, RECORD, "{line}");
            assert!(deeper.contains("\"cp_total\":"), "deeper keys follow: {line}");
        }
        let alone = stdout_of(&[
            "--explain", "ks", "--scheduler", "dswp", "--quick", "--json", "--variant", variant,
        ]);
        let alone = alone.trim();
        let among = lines
            .iter()
            .find(|l| {
                json_value(l, "benchmark") == "\"ks\"" && json_value(l, "scheduler") == "\"DSWP\""
            })
            .expect("ks / DSWP explained");
        for key in RUN_DETERMINED {
            assert_eq!(json_value(among, key), json_value(alone, key), "{key}:\n{among}\n{alone}");
        }
    }
}

/// The pinned quick Figure 7, byte for byte.
#[test]
fn quick_figure7_matches_golden() {
    assert_eq!(
        stdout_of(&["--quick", "--fig", "7"]),
        include_str!("../../../tests/golden/fig7_quick.txt")
    );
}

/// Every figure on ref inputs (`--fig all`: Figures 6, 1, 7 and 8), on
/// an 8-worker pool whatever the host's CPU count, byte for byte.
#[test]
fn full_figures_match_golden() {
    assert_eq!(stdout_on("8", &["--fig", "all"]), include_str!("../../../repro_full.txt"));
}

/// The ablation and thread-scaling claims of EXPERIMENTS.md, byte for
/// byte: over the partitions the pipeline ships, neither the
/// control-flow penalties nor the shared memory multicut changes any
/// cell at two or four threads; the two-thread rows are Figure 7's
/// quick rows (GREMIO falls back on adpcmenc, 177.mesa and 183.equake)
/// and at four threads GREMIO falls back on adpcmdec, 177.mesa,
/// 183.equake and 458.sjeng; depth 32 beats depth 1 on all DSWP
/// kernels but mpeg2enc (equal) and 177.mesa (slower); and a 16-queue
/// budget folds ks's 27 points onto 16 queues at 7189 → 7184 cycles.
#[test]
fn ablations_match_golden() {
    assert_eq!(
        stdout_of(&["--fig", "ablations"]),
        include_str!("../../../tests/golden/ablations.txt")
    );
}

/// The pinned human explain report, byte for byte.
#[test]
fn explain_report_matches_golden() {
    assert_eq!(
        stdout_of(&["--explain", "adpcmdec", "--scheduler", "dswp", "--quick"]),
        include_str!("../../../tests/golden/explain_adpcmdec_dswp_quick.txt")
    );
}

#[test]
fn repeated_flags_exit_2() {
    assert_usage_exit(
        &repro(&["--scheduler", "gremio", "--scheduler", "dswp"]),
        "duplicate flag --scheduler",
    );
    assert_usage_exit(&repro(&["--fig", "7", "--fig", "8"]), "duplicate flag --fig");
    assert_usage_exit(&repro(&["--quick", "--quick"]), "duplicate flag --quick");
}

/// `--trace` is an option of `--explain` and writes one run: one
/// benchmark under one scheduler.
#[test]
fn trace_option_validation_exits_2() {
    assert_usage_exit(&repro(&["--variant", "coco"]), "--variant requires --explain");
    assert_usage_exit(&repro(&["--trace", "/tmp/x.json"]), "--trace requires --explain");
    assert_usage_exit(
        &repro(&["--trace", "/tmp/x.json", "--scheduler", "dswp", "--fig", "7"]),
        "--trace requires --explain",
    );
    let explain =
        |args: &[&str]| repro(&[&["--explain"], args, &["--trace", "/tmp/x.json"]].concat());
    assert_usage_exit(&explain(&["all", "--scheduler", "dswp"]), "one benchmark, not all");
    assert_usage_exit(&explain(&["ks", "--scheduler", "both"]), "single --scheduler");
    assert_usage_exit(&explain(&["ks"]), "single --scheduler");
    assert_usage_exit(
        &explain(&["ks", "--scheduler", "dswp", "--variant", "fast"]),
        "bad variant fast",
    );
    assert_usage_exit(&explain(&["nosuch", "--scheduler", "dswp"]), "unknown benchmark nosuch");
    assert_usage_exit(&repro(&["--explain", "ks", "--trace"]), "missing --trace path");
}

/// Every mode checks `GMT_JOBS` before it prints or computes anything:
/// `--fig all` used to print Figure 6 first, and `--fig 6a`, which
/// needs no pool, used to ignore the value.
#[test]
fn invalid_gmt_jobs_exits_2_before_any_work() {
    for args in [
        &["--explain", "ks", "--quick"][..],
        &["--fig", "all"],
        &["--fig", "6a"],
        &["--fuzz", "1"],
    ] {
        for bad in ["0", "zero", "-1"] {
            let out = Command::new(env!("CARGO_BIN_EXE_repro"))
                .args(args)
                .env("GMT_JOBS", bad)
                .output()
                .expect("repro runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{args:?} GMT_JOBS={bad}: {stderr}");
            assert!(stderr.contains("GMT_JOBS"), "names the variable: {stderr}");
            assert!(
                out.stdout.is_empty(),
                "{args:?}: rejected before producing output: {}",
                String::from_utf8_lossy(&out.stdout)
            );
        }
    }
}

/// `--explain … --trace PATH` prints the pinned report of the cell and
/// writes the same run as Chrome-trace JSON with the expected schema:
/// core spans on pid 1, queue counters on pid 2, both processes named,
/// and a cycle count.
#[test]
fn explain_trace_writes_chrome_json() {
    let (stdout, json) = explain_with_trace("adpcmdec", "dswp", "explain_trace");
    assert_eq!(stdout, include_str!("../../../tests/golden/explain_adpcmdec_dswp_quick.txt"));
    assert!(json.contains("\"traceEvents\""));
    let event = |ph: &str, pid: u32| {
        json.lines().any(|l| {
            l.contains(&format!("\"ph\":\"{ph}\"")) && l.contains(&format!("\"pid\":{pid},"))
        })
    };
    assert!(event("X", 1), "core spans on pid 1");
    assert!(event("C", 2), "queue counters on pid 2");
    let process_names: Vec<&str> =
        json.lines().filter(|l| l.contains("\"name\":\"process_name\"")).collect();
    assert_eq!(process_names.len(), 2, "{process_names:?}");
    assert!(process_names[0].contains("\"args\":{\"name\":\"cores\"}"), "{process_names:?}");
    assert!(process_names[1].contains("\"args\":{\"name\":\"sa queues\"}"), "{process_names:?}");
    let other = json.split("\"otherData\":").nth(1).expect("otherData");
    assert!(json_u64(other, "cycles") > 0, "cycle count recorded");
}

/// Runs `--explain BENCH --scheduler SCHED --quick --trace PATH` and
/// returns its stdout and the trace file it wrote (`tag` names the
/// file, so tests running in parallel do not share one).
fn explain_with_trace(bench: &str, sched: &str, tag: &str) -> (String, String) {
    let dir = std::env::temp_dir().join("gmt_repro_cli_trace");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}_{bench}_{sched}.json"));
    let path_str = path.to_str().unwrap();
    let stdout =
        stdout_of(&["--explain", bench, "--scheduler", sched, "--quick", "--trace", path_str]);
    let json = std::fs::read_to_string(&path).expect("trace file written");
    std::fs::remove_file(&path).ok();
    (stdout, json)
}

/// The `--explain` per-thread table's stall headings and the Chrome
/// span names of the same reasons.
const SPAN_OF_COLUMN: [(&str, &str); 8] = [
    ("compute", "compute"),
    ("operand", "operand"),
    ("struct", "structural"),
    ("sa-port", "sa-port"),
    ("q-full", "queue-full"),
    ("q-empty", "queue-empty"),
    ("load-lim", "load-limit"),
    ("mispred", "mispredict"),
];

/// The rows of the report's table whose header line starts with
/// `first`: one map from heading to cell per row (`t` or `qN` first).
/// The last column, `plan`, keeps only its first word.
fn report_table(report: &str, first: &str) -> Vec<HashMap<String, String>> {
    let mut lines = report.lines().skip_while(|l| !l.starts_with(first));
    let header: Vec<&str> = lines.next().expect("table present").split_whitespace().collect();
    lines
        .take_while(|l| l.trim_start_matches('q').starts_with(|c: char| c.is_ascii_digit()))
        .map(|l| {
            let cells = l.split_whitespace().map(String::from);
            header.iter().map(|h| h.to_string()).zip(cells).collect()
        })
        .collect()
}

/// The Chrome export law: the file `--explain … --trace` writes is the
/// run its report explains. Per core, the pid-1 span durations summed
/// by span name are that thread's `compute` and per-reason stall
/// columns (idle cycles draw no span); each pid-2 queue track peaks at
/// that queue's `max-occ`; `otherData.cycles` is the report's cycle
/// count.
#[test]
fn chrome_trace_agrees_with_the_explain_report() {
    for (bench, sched) in [("ks", "gremio"), ("adpcmdec", "dswp")] {
        let (report, json) = explain_with_trace(bench, sched, "law");
        let tag = format!("{bench}/{sched}");
        let cycles: u64 = report
            .lines()
            .next()
            .and_then(|l| l.rsplit('(').next())
            .and_then(|c| c.strip_suffix(" cycles)"))
            .and_then(|c| c.parse().ok())
            .unwrap_or_else(|| panic!("{tag}: no cycle count in {report}"));
        let other = json.split("\"otherData\":").nth(1).expect("otherData");
        assert_eq!(json_u64(other, "cycles"), cycles, "{tag}: otherData.cycles");

        // Span cycles by (core, name), and each queue track's peak.
        let mut spans: HashMap<(u64, String), u64> = HashMap::new();
        let mut peaks: HashMap<String, u64> = HashMap::new();
        for l in json.lines().filter(|l| l.starts_with("{\"name\":")) {
            let name = json_value(l, "name").trim_matches('"').to_string();
            match (json_value(l, "ph"), json_u64(l, "pid")) {
                ("\"X\"", 1) => {
                    *spans.entry((json_u64(l, "tid"), name)).or_default() += json_u64(l, "dur");
                }
                ("\"C\"", 2) => {
                    let peak = peaks.entry(name).or_default();
                    *peak = (*peak).max(json_u64(l, "occupancy"));
                }
                ("\"M\"", _) => {}
                other => panic!("{tag}: unexpected event {other:?}: {l}"),
            }
        }

        let threads = report_table(&report, "thread");
        assert!(!threads.is_empty(), "{tag}: {report}");
        for row in &threads {
            let core: u64 = row["thread"].parse().unwrap();
            for (column, span) in SPAN_OF_COLUMN {
                let want: u64 = row[column].parse().unwrap();
                let got = spans.remove(&(core, span.to_string())).unwrap_or(0);
                assert_eq!(got, want, "{tag}: core {core} {span} spans vs the `{column}` column");
            }
        }
        assert!(spans.is_empty(), "{tag}: spans the report has no column for: {spans:?}");

        let queues = report_table(&report, "queue");
        assert!(!queues.is_empty(), "{tag}: {report}");
        for row in &queues {
            let want: u64 = row["max-occ"].parse().unwrap();
            let got = peaks.remove(&row["queue"]).unwrap_or(0);
            assert_eq!(got, want, "{tag}: {} track peak vs `max-occ`", row["queue"]);
        }
        assert!(peaks.is_empty(), "{tag}: queue tracks the report has no row for: {peaks:?}");
    }
}
