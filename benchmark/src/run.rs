//! One workload in one process: set-up, warm-up, timed passes, checks,
//! and the metrics of either the end-to-end or the traced run.

use crate::api;
use crate::metrics::{self, Group};
use crate::oracle::{Expected, PINNED};
use crate::spans::{self, Recorder, Span};
use crate::stats::{cv_pct, median, percentile, percentile_supported, samples_beyond};
use crate::workloads::{self, Tally, Workload, SIDE_PASS};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Set-up is repeated, and the median repetition reported: at least
/// this many times and for at least this long.
const MIN_SETUPS: usize = 5;
const SETUP_BUDGET: Duration = Duration::from_secs(1);
const MAX_SETUPS: usize = 2000;
/// A fastest sample needs a few to choose from.
const MIN_PASSES: usize = 3;
/// Repetitions of the measurements taken outside the op list.
const SIDE_REPS: u32 = 3;

/// What to run.
#[derive(Clone, Debug)]
pub struct Config {
    pub workload: String,
    pub seconds: f64,
    pub trace: bool,
    /// One pass, one set-up, no warm-up.
    pub smoke: bool,
    /// Flip one pinned checksum in memory (`--self-test-oracle`).
    pub plant_mismatch: bool,
}

/// What a run found.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Metric values in report order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Free-form lines for the human reader.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line the driver reads.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v)| {
                let unit = metrics::find(name).map_or("", |m| m.unit);
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// One executed pass.
struct Pass {
    wall_ns: u64,
    op_ns: Vec<u64>,
    tally: Tally,
    values: BTreeMap<&'static str, f64>,
}

fn run_pass(w: &mut dyn Workload, rec: &mut Recorder, number: u32) -> Pass {
    let mut tally = Tally::default();
    let mut op_ns = Vec::with_capacity(w.ops());
    let started = Instant::now();
    for i in 0..w.ops() {
        rec.at(number, i as u32);
        let t = Instant::now();
        rec.span("bench.op", |rec| w.op(i, rec, &mut tally));
        op_ns.push(t.elapsed().as_nanos() as u64);
    }
    let wall_ns = started.elapsed().as_nanos() as u64;
    w.end_pass(&mut tally);
    Pass {
        wall_ns,
        op_ns,
        tally,
        values: rec.take_values(),
    }
}

/// Runs passes until `budget` is spent, and at least `at_least`.
fn run_passes(
    w: &mut dyn Workload,
    rec: &mut Recorder,
    budget: Duration,
    at_least: usize,
) -> Vec<Pass> {
    let started = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < at_least || started.elapsed() < budget {
        passes.push(run_pass(w, rec, passes.len() as u32));
    }
    passes
}

/// Folds the passes' checks into the outcome and requires the exact
/// counts to repeat from pass to pass.
fn fold_checks(out: &mut Outcome, passes: &[Pass]) -> Result<(), String> {
    for p in passes {
        out.attempted += p.tally.attempted;
        out.failed += p.tally.failed;
        out.failures.extend(p.tally.failures.iter().cloned());
        if let Some(fatal) = &p.tally.fatal {
            return Err(fatal.clone());
        }
    }
    if let Some(first) = passes.first() {
        out.attempted += 1;
        if passes
            .iter()
            .any(|p| p.tally.exact() != first.tally.exact())
        {
            out.failed += 1;
            out.failures
                .push("cycle, communication or code-size totals differ between passes".into());
        }
    }
    Ok(())
}

fn fold_tally(out: &mut Outcome, t: Tally) -> Result<(), String> {
    out.attempted += t.attempted;
    out.failed += t.failed;
    out.failures.extend(t.failures);
    t.fatal.map_or(Ok(()), Err)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Each op's fastest sample over the passes, in milliseconds.
fn best_op_ms(passes: &[Pass]) -> Vec<f64> {
    let ops = passes.first().map_or(0, |p| p.op_ns.len());
    (0..ops)
        .map(|i| {
            passes
                .iter()
                .map(|p| ms(p.op_ns[i]))
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// Every per-op sample of every pass, in milliseconds.
fn all_op_ms(passes: &[Pass]) -> Vec<f64> {
    passes
        .iter()
        .flat_map(|p| p.op_ns.iter().map(|&ns| ms(ns)))
        .collect()
}

/// How far the percentiles over `samples` can be trusted.
fn percentile_note(samples: &[f64]) -> String {
    format!(
        "over all {} per-op samples: op_ms_p50 {:.4} ms, op_ms_p95 {:.4} ms, {} samples beyond it{}",
        samples.len(),
        percentile(samples, 0.50),
        percentile(samples, 0.95),
        samples_beyond(samples.len(), 0.95),
        if percentile_supported(samples.len(), 0.95) {
            ""
        } else {
            " (fewer than the ten a resolved percentile needs)"
        },
    )
}

/// The code-quality counts this workload measures: those of the last
/// pass together with those the checks after it took. The ones the
/// driver cannot see are held to `expected/counts.txt`.
fn quality_counts(
    workload: &str,
    passes: &[Pass],
    after: &Tally,
    expected: &Expected,
    out: &mut Outcome,
) -> BTreeMap<&'static str, f64> {
    let mut t = passes.last().map(|p| p.tally.clone()).unwrap_or_default();
    t.add_counts(after);
    let mut counts = BTreeMap::from([
        ("sim_cycles_total", t.sim_cycles as f64),
        ("comm_instrs_total", t.comm_instrs as f64),
        ("static_instrs_total", t.static_instrs as f64),
        ("geomean_speedup", api::geo_mean(t.speedups.iter().copied())),
    ]);
    counts.retain(|name, _| metrics::find(name).is_some_and(|m| m.measured_on(workload)));
    for name in PINNED {
        if let Some(&got) = counts.get(name) {
            out.attempted += 1;
            if let Err(e) = expected.check_count(workload, name, got) {
                out.failed += 1;
                out.failures.push(e);
            }
        }
    }
    counts
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Runs one workload.
///
/// # Errors
///
/// Set-up failed outright, the fuzz population is mostly rejections, or
/// the host lacks `/proc`. Failed ops are not errors: they are counted
/// in the outcome.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut expected = Expected::load()?;
    if cfg.plant_mismatch {
        expected.plant_mismatch();
    }
    let mut out = Outcome::default();
    let mut rec = Recorder::new(cfg.trace);

    // Set-up, repeated; the traced run sets up once, for its spans.
    let mut setup_s = Vec::new();
    let started = Instant::now();
    let (mut w, setup_tally) = loop {
        let t = Instant::now();
        rec.at(SIDE_PASS, setup_s.len() as u32);
        let made = rec.span("bench.setup", |rec| {
            workloads::setup(&cfg.workload, &expected, rec)
        })?;
        setup_s.push(t.elapsed().as_secs_f64());
        let enough = setup_s.len() >= MIN_SETUPS && started.elapsed() >= SETUP_BUDGET;
        if cfg.smoke || cfg.trace || enough || setup_s.len() >= MAX_SETUPS {
            break made;
        }
    };
    fold_tally(&mut out, setup_tally)?;
    if cfg.trace {
        traced_run(cfg, w.as_mut(), rec, &expected, &mut out)?;
    } else {
        end_to_end_run(cfg, w.as_mut(), &mut rec, &setup_s, &expected, &mut out)?;
    }
    Ok(out)
}

/// Warm-up, timed passes with the recorder off, output checks, and the
/// end-to-end metrics.
fn end_to_end_run(
    cfg: &Config,
    w: &mut dyn Workload,
    rec: &mut Recorder,
    setup_s: &[f64],
    expected: &Expected,
    out: &mut Outcome,
) -> Result<(), String> {
    let (budget, at_least) = if cfg.smoke {
        (Duration::ZERO, 1)
    } else {
        run_pass(w, rec, 0);
        (Duration::from_secs_f64(cfg.seconds), MIN_PASSES)
    };
    let passes = run_passes(w, rec, budget, at_least);
    fold_checks(out, &passes)?;
    let mut tally = Tally::default();
    w.verify(&mut tally);
    let counts = quality_counts(&cfg.workload, &passes, &tally, expected, out);
    fold_tally(out, tally)?;
    let pinned: Vec<String> = PINNED
        .iter()
        .filter_map(|name| Some(format!("{name} {}", counts.get(name)?)))
        .collect();
    if !pinned.is_empty() {
        out.notes.push(format!(
            "held to expected/counts.txt: {}",
            pinned.join(", ")
        ));
    }

    // The host adds time to an op in bursts that last from milliseconds
    // to minutes, and has an idle and a busy speed level ~14 % apart.
    // Between identical runs on the 2-CPU container, medians over the
    // passes moved by up to 26 % in an hour of frequent bursts; each
    // op's fastest sample moves by 2-9 % then and by at most the gap
    // between the levels otherwise (README, "Run-to-run spread"). So an
    // op's time is its fastest sample, and the gated latencies are the
    // median over the ops and the slowest op.
    let best_ms = best_op_ms(&passes);
    let pass_s: Vec<f64> = passes.iter().map(|p| p.wall_ns as f64 / 1e9).collect();
    let values = BTreeMap::from([
        (
            "ops_per_s",
            best_ms.len() as f64 / (best_ms.iter().sum::<f64>() / 1e3),
        ),
        ("op_best_ms_median", median(&best_ms)),
        (
            "op_best_ms_max",
            best_ms.iter().copied().fold(0.0, f64::max),
        ),
        ("peak_rss_mb", peak_rss_mb()?),
        ("setup_s", median(setup_s)),
        ("sim_cycles_total", counts["sim_cycles_total"]),
    ]);
    out.metrics = metrics::group(Group::EndToEnd)
        .map(|m| (m.name, values[m.name]))
        .collect();
    out.notes.push(format!(
        "{} passes of {} ops, {} set-ups; median pass {:.4} s, pass cv {:.1} %",
        passes.len(),
        w.ops(),
        setup_s.len(),
        median(&pass_s),
        cv_pct(&pass_s),
    ));
    out.notes.push(percentile_note(&all_op_ms(&passes)));
    Ok(())
}

/// Warm-up, then untraced and traced passes by turns (so that drift of
/// the host hits both alike) with the measurements that are no op of
/// the pass in between, and the layer metrics.
fn traced_run(
    cfg: &Config,
    w: &mut dyn Workload,
    mut rec: Recorder,
    expected: &Expected,
    out: &mut Outcome,
) -> Result<(), String> {
    let budget = Duration::from_secs_f64(cfg.seconds);
    rec.set_on(false);
    run_pass(w, &mut rec, 0);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let started = Instant::now();
    let mut tally = Tally::default();
    let mut added = Vec::new();
    while traced.len() < MIN_PASSES || started.elapsed() < budget {
        // The measurements outside the op list are spread over the
        // run, so that one slow stretch of the host cannot hit them all.
        let due = budget.mul_f64(added.len() as f64 / f64::from(SIDE_REPS));
        if added.len() < SIDE_REPS as usize && started.elapsed() >= due {
            rec.set_on(true);
            w.side_measurements(SIDE_PASS + added.len() as u32, &mut rec, &mut tally);
            added.push(rec.take_values());
        }
        rec.set_on(false);
        untraced.push(run_pass(w, &mut rec, 0));
        rec.set_on(true);
        traced.push(run_pass(w, &mut rec, traced.len() as u32));
    }
    fold_checks(out, &untraced)?;
    fold_checks(out, &traced)?;
    w.verify(&mut tally);
    let counts = quality_counts(&cfg.workload, &traced, &tally, expected, out);
    added.extend(traced.iter().map(|p| p.values.clone()));
    fold_tally(out, tally)?;

    let mut values = layer_values(&cfg.workload, out, &untraced, &traced, &added, rec.spans());
    values.extend(counts);
    let samples = all_op_ms(&untraced);
    values.insert("op_ms_p50", percentile(&samples, 0.50));
    values.insert("op_ms_p95", percentile(&samples, 0.95));
    out.notes.push(percentile_note(&samples));
    out.metrics = metrics::group(Group::Layer)
        .map(|m| (m.name, values.get(m.name).copied().unwrap_or(0.0)))
        .collect();
    out.notes.push(write_spans(&cfg.workload, rec.spans())?);
    out.notes.extend(layer_table_lines(rec.spans(), &traced));
    Ok(())
}

/// Every layer metric this run measured, by name.
fn layer_values(
    workload: &str,
    out: &Outcome,
    untraced: &[Pass],
    traced: &[Pass],
    added: &[BTreeMap<&'static str, f64>],
    spans: &[Span],
) -> BTreeMap<&'static str, f64> {
    // Busy and self time per span name, per pass.
    let durations: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    let busy = spans::per_pass_ms(spans, &durations);
    let own = spans::per_pass_ms(spans, &spans::self_times(spans));
    let busy_of = |name: &str| busy.get(name).copied().unwrap_or(0.0);
    // Values the ops and the side measurements added: exact counts
    // repeat from pass to pass, and of a returned duration the
    // smallest is kept, as for spans.
    let mut smallest: BTreeMap<&'static str, f64> = BTreeMap::new();
    for values in added {
        for (&name, &value) in values {
            let kept = smallest.entry(name).or_insert(f64::INFINITY);
            *kept = value.min(*kept);
        }
    }
    let get = |name: &str| smallest.get(name).copied().unwrap_or(0.0);
    let pct = |part: f64, whole: f64| {
        if whole > 0.0 {
            part / whole * 100.0
        } else {
            0.0
        }
    };
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();

    v.insert(
        "failed_ops_pct",
        pct(out.failed as f64, out.attempted as f64),
    );
    // Simulated instructions per host second inside cycle-simulator
    // calls: each call's fastest sample, summed.
    let mut calls: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
    for p in traced {
        for &(op, instrs, host_ns) in &p.tally.sim_calls {
            let e = calls.entry(op).or_insert((instrs, u64::MAX));
            e.1 = e.1.min(host_ns);
        }
    }
    let sim_instrs: f64 = calls.values().map(|&(instrs, _)| instrs as f64).sum();
    let sim_ns: f64 = calls.values().map(|&(_, ns)| ns as f64).sum();
    v.insert("sim_minstr_per_s", per(sim_instrs * 1e3, sim_ns));

    for (metric, span) in [
        ("workloads.catalog_ms", "workloads.catalog"),
        ("workloads.train_ms", "workloads.train"),
        ("ir.st_interp_ms", "ir.st_interp"),
        ("ir.mt_interp_ms", "ir.mt_interp"),
        ("ir.decode_ms", "ir.decode"),
        ("pdg.build_ms", "pdg.build"),
        ("sched.gremio_ms", "sched.gremio"),
        ("sched.gremio_n4_ms", "sched.gremio_n4"),
        ("sched.dswp_ms", "sched.dswp"),
        ("sched.dswp_n4_ms", "sched.dswp_n4"),
        ("mtcg.plan_ms", "mtcg.plan"),
        ("mtcg.codegen_ms", "mtcg.codegen"),
        ("mtcg.alloc_depths_ms", "mtcg.alloc_depths"),
        ("core.coco_ms", "core.coco"),
        ("core.verify_mt_ms", "core.verify_mt"),
        ("graph.mincut_ms", "graph.mincut"),
        ("sim.run_ms", "sim.run"),
        ("sim.seq_run_ms", "sim.seq_run"),
        ("sim.noskip_ms", "sim.noskip"),
        ("sim.agg_ms", "sim.agg"),
        ("sim.critpath_ms", "sim.critpath"),
        ("sim.chrome_ms", "sim.chrome"),
        ("fuzz.gen_ms", "fuzz.gen"),
        ("fuzz.oracle_ms", "fuzz.oracle"),
        ("harness.evaluate_ms", "harness.evaluate"),
        ("harness.verify_matrix_ms", "harness.verify_matrix"),
        ("harness.explain_ms", "harness.explain"),
    ] {
        v.insert(metric, busy_of(span));
    }
    // `parallelize_with_partition` outside COCO and code generation:
    // planning, depth allocation and the static estimate. Only
    // compile_only's op list has it.
    if workload == workloads::COMPILE_ONLY {
        v.insert(
            "core.parallelize_other_ms",
            own.get("core.parallelize").copied().unwrap_or(0.0),
        );
    }
    for (metric, ns) in [
        ("harness.compile_ms", "harness.compile_ns"),
        ("harness.exec_ms", "harness.exec_ns"),
        ("harness.arb_ms", "harness.arb_ns"),
    ] {
        v.insert(metric, get(ns) / 1e6);
    }
    for name in [
        "ir.decode_ops",
        "pdg.nodes",
        "pdg.arcs",
        "sched.gremio_candidates",
        "sched.cut_deps",
        "mtcg.queues",
        "mtcg.static_comm_instrs",
        "core.coco_iterations",
        "core.verify_mt_violations",
        "sim.engine_steps",
        "sim.skipped_cycles",
        "sim.cycles",
        "sim.stall_cycles",
        "sim.critpath_nodes",
        "sim.chrome_bytes",
        "sim.dropped_events",
        "fuzz.rejected",
        "fuzz.findings",
        "fuzz.seq_steps",
        "harness.arb_probes",
        "harness.arb_hits",
    ] {
        v.insert(name, get(name));
    }
    v.insert("ir.dyn_instrs", get("ir.st_instrs") + get("ir.mt_instrs"));
    v.insert(
        "ir.st_interp_minstr_per_s",
        per(get("ir.st_instrs") * 1e-3, busy_of("ir.st_interp")),
    );
    v.insert(
        "ir.mt_interp_minstr_per_s",
        per(get("ir.mt_instrs") * 1e-3, busy_of("ir.mt_interp")),
    );
    v.insert(
        "core.coco_cut_success_pct",
        pct(
            get("core.coco_cuts"),
            get("core.coco_cuts") + get("core.coco_fallbacks"),
        ),
    );
    v.insert(
        "core.coco_comm_reduction_pct",
        pct(
            get("core.baseline_comm_cost") - get("core.coco_comm_cost"),
            get("core.baseline_comm_cost"),
        ),
    );
    v.insert(
        "sim.ns_per_step",
        per(busy_of("sim.run") * 1e6, get("sim.engine_steps")),
    );
    v.insert(
        "sim.skip_pct",
        pct(
            get("sim.skipped_cycles"),
            get("sim.skipped_cycles") + get("sim.engine_steps"),
        ),
    );
    v.insert(
        "sim.l1_hit_pct",
        pct(get("sim.l1_hits"), get("sim.mem_accesses")),
    );
    v.insert(
        "sim.agg_overhead_x",
        per(busy_of("sim.agg"), busy_of("sim.untraced")),
    );
    v.insert(
        "sim.critpath_overhead_x",
        per(busy_of("sim.critpath"), busy_of("sim.untraced")),
    );
    v.insert(
        "harness.arb_hit_pct",
        pct(get("harness.arb_hits"), get("harness.arb_probes")),
    );

    // Like the end-to-end metrics, the overhead compares each op's
    // fastest samples; the spread is that of whole untraced passes.
    let best = |passes: &[Pass]| best_op_ms(passes).iter().sum::<f64>();
    v.insert(
        "bench.trace_overhead_pct",
        (per(best(traced), best(untraced)) - 1.0) * 100.0,
    );
    let walls: Vec<f64> = untraced.iter().map(|p| p.wall_ns as f64).collect();
    v.insert("bench.pass_cv_pct", cv_pct(&walls));
    v
}

/// Where the benchmark writes: `out/` beside its manifest.
pub fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_spans(workload: &str, spans: &[Span]) -> Result<String, String> {
    let dir = out_dir();
    let path = dir.join(format!("spans_{workload}.json"));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, spans::chrome_json(workload, spans)))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(format!(
        "{} spans written to {}",
        spans.len(),
        path.display()
    ))
}

/// The per-layer table of the traced passes, and how much of their
/// wall-clock the layers' self times account for.
fn layer_table_lines(spans: &[Span], traced: &[Pass]) -> Vec<String> {
    let in_passes: Vec<Span> = {
        // Re-index parents after dropping set-up and side spans.
        let mut new_index = vec![None; spans.len()];
        let mut kept = Vec::new();
        for (i, s) in spans.iter().enumerate() {
            if s.pass < SIDE_PASS {
                new_index[i] = Some(kept.len());
                let mut s = s.clone();
                s.parent = s.parent.and_then(|p| new_index[p]);
                kept.push(s);
            }
        }
        kept
    };
    let table = spans::layer_table(&in_passes);
    let wall_ms: f64 = traced.iter().map(|p| ms(p.wall_ns)).sum();
    let mut lines = vec![format!(
        "{:<12} {:>8} {:>12} {:>12} {:>7}",
        "layer", "spans", "busy ms", "self ms", "self %"
    )];
    let mut self_sum = 0.0;
    for (layer, row) in &table {
        self_sum += row.self_ms;
        lines.push(format!(
            "{layer:<12} {:>8} {:>12.3} {:>12.3} {:>6.1}%",
            row.spans,
            row.busy_ms,
            row.self_ms,
            if wall_ms > 0.0 {
                row.self_ms / wall_ms * 100.0
            } else {
                0.0
            }
        ));
    }
    lines.push(format!(
        "layer self times sum to {self_sum:.3} ms of {wall_ms:.3} ms traced pass wall-clock ({:.1} %)",
        if wall_ms > 0.0 { self_sum / wall_ms * 100.0 } else { 0.0 }
    ));
    lines
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    fn smoke(workload: &str, plant_mismatch: bool) -> Outcome {
        run(&Config {
            workload: workload.to_string(),
            seconds: 1.0,
            trace: false,
            smoke: true,
            plant_mismatch,
        })
        .expect("the run completes")
    }

    #[test]
    fn a_planted_checksum_mismatch_fails_the_run() {
        let clean = smoke(workloads::EVAL_QUICK, false);
        assert!(clean.correct(), "{:?}", clean.failures);
        let planted = smoke(workloads::EVAL_QUICK, true);
        assert!(!planted.correct());
        assert_eq!(planted.failed, 1);
        assert!(
            planted.failures[0].contains("checksum"),
            "{:?}",
            planted.failures
        );
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let outcome = smoke(workloads::FUZZ_DIFF, false);
        let line = json::parse(&outcome.result_line()).expect("the result line is JSON");
        let keys: Vec<&str> = line.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        let printed: Vec<&str> = line
            .get("metrics")
            .and_then(Json::as_obj)
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        let mut expected: Vec<&str> = metrics::group(Group::EndToEnd).map(|m| m.name).collect();
        expected.sort_unstable();
        assert_eq!(printed, expected);
        for (name, value) in &outcome.metrics {
            assert!(*value > 0.0, "{name} must never be 0");
        }
    }

    #[test]
    fn an_unknown_workload_is_an_error() {
        let cfg = Config {
            workload: "nope".into(),
            seconds: 1.0,
            trace: false,
            smoke: true,
            plant_mismatch: false,
        };
        assert!(run(&cfg).unwrap_err().contains("unknown workload"));
    }
}
