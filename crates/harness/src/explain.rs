//! The static↔dynamic "explain" layer (`repro --explain`), the one
//! traced-cell mode of the harness.
//!
//! [`explain_variant`] reads one variant of a [`CompiledCell`] the
//! caller compiled — the cell every other harness mode reads — and
//! evaluates it twice, both times on the input the cell was compiled
//! to measure (train for [`Scale::Quick`], ref for [`Scale::Full`]):
//!
//! - **statically** — the partitioners' own cost model
//!   ([`gmt_sched::thread_loads`]: per-thread compute plus
//!   communication occupancy) of the compiled partition, its cut edges
//!   and the plan's per-queue traffic, all under that input's profile;
//!   on train inputs that is the profile the cell was partitioned with;
//! - **dynamically** — a traced run of the decoded engine with the
//!   [`TraceAggregator`] (cycle attribution, queue counters, occupancy
//!   distributions) and the [`CritPathSink`] (the run's dynamic
//!   critical path, reconstructed from last-arrival edges) attached,
//!   plus one sink the caller lends: `repro --explain … --trace PATH`
//!   lends a [`gmt_sim::ChromeTraceSink`] sized to the variant and
//!   writes the timeline of the very run the report explains.
//!   [`explain_cell`] compiles the two-thread cell itself and lends
//!   [`NoTrace`].
//!
//! [`explain_report`] joins the two sides into one deterministic
//! human-readable report: per-thread estimated vs. measured cycles
//! (compute, one column per [`StallReason`], idle), per-queue
//! estimated vs. measured traffic, stall pressure and occupancy tied
//! back to the plan's [`QueueLabel`]s, the critical path decomposed by
//! edge kind, the top path segments with their static positions, and a
//! one-line verdict naming what limits the schedule. [`explain_json`]
//! emits the same join as one JSON object for machine consumers,
//! opening with the run's [`RunMetrics`] keys: the traced run is the
//! run a timed evaluation of the same variant makes (a sink does not
//! change what the engine does), so on every field the run determines
//! its record is that evaluation's.
//!
//! Both trace invariants are enforced on every cell:
//! [`check_attribution`] (per-core decompositions sum to the cycle
//! count) and [`check_critical_path`] (the walked path edges sum to the
//! cycle count exactly) — a violation is an engine bug and surfaces as
//! a [`HarnessError`].

use crate::metrics::stall_column;
use crate::{
    compile_cell, fail, run_record, sim_counts, CompiledCell, HarnessError, RunMetrics, Scale,
    SchedulerKind,
};
use gmt_ir::interp::run_with_memory;
use gmt_mtcg::{CommKind, CommPoint, QueueLabel};
use gmt_sched::{cut_summary, thread_loads, CutSummary};
use gmt_sim::{
    check_attribution, check_critical_path, simulate_decoded_traced_opts, CpKind, CritPath,
    CritPathSink, CycleAttribution, NoTrace, OccupancySummary, QueueTraceStats, SimOptions,
    StallReason, TraceAggregator, TraceSink,
};
use gmt_workloads::{exec_config, Workload};
use std::fmt::Write as _;
use std::time::Instant;

/// Path segments printed in the report's top-segments table.
pub const EXPLAIN_TOP_K: usize = 8;

/// The raw-event capacity the [`TraceAggregator`] is built with. It
/// stores no event: its summary tables cover the whole run.
pub const TRACE_RING_CAPACITY: usize = 4096;

/// One kernel × scheduler × variant, measured both ways: the record
/// every mode reports for the run, what the traced run saw, and what
/// the scheduler estimated for the same input.
#[derive(Clone, Debug)]
pub struct ExplainCell {
    /// The run level: identity, counts, cycles, raw stall counters.
    pub run: RunMetrics,
    /// Per-thread cycle decomposition; each entry sums to `run.cycles`.
    pub attribution: Vec<CycleAttribution>,
    /// Per-queue communication counters (indexed by queue id).
    pub queues: Vec<QueueTraceStats>,
    /// Per-queue time-weighted occupancy distribution (p50/p95/max
    /// dwell levels; indexed by queue id, parallel to `queues`).
    pub occupancy: Vec<OccupancySummary>,
    /// Static queue labels from MTCG (one per scheduled occurrence).
    pub labels: Vec<QueueLabel>,
    /// The run's dynamic critical path (conservation-checked).
    pub critpath: CritPath,
    /// Per-thread load of the partition under the partitioners' cost
    /// model and the measured input's profile
    /// ([`gmt_sched::thread_loads`]): the static estimate.
    pub(crate) loads: Vec<u64>,
    /// Estimated values per queue under the same profile
    /// ([`gmt_mtcg::estimated_traffic`]), indexed by queue id.
    pub(crate) traffic: Vec<u64>,
    /// Inter-thread dependence arcs the partition cuts, by kind.
    pub(crate) cut: CutSummary,
}

impl ExplainCell {
    /// The heaviest thread's estimated load: the score the partitioner
    /// ranked the partition by, the static prediction of the run's
    /// cycles.
    fn bottleneck(&self) -> u64 {
        self.loads.iter().copied().max().unwrap_or(0)
    }

    /// The heaviest thread's share of the summed loads, percent (100
    /// when nothing is loaded).
    fn max_share_pct(&self) -> u64 {
        self.bottleneck().saturating_mul(100).checked_div(self.loads.iter().sum()).unwrap_or(100)
    }

    /// How many of the plan's communicated items are memory
    /// synchronization tokens rather than register values.
    fn sync_points(&self) -> usize {
        self.labels.iter().filter(|l| l.kind == CommKind::Memory).count()
    }
}

/// Compiles one kernel × scheduler cell at two threads
/// ([`compile_cell`]) and explains one of its variants
/// ([`explain_variant`]).
///
/// # Errors
///
/// As [`compile_cell`] and [`explain_variant`].
pub fn explain_cell(
    w: &Workload,
    kind: SchedulerKind,
    coco: bool,
    scale: Scale,
) -> Result<ExplainCell, HarnessError> {
    explain_variant(&compile_cell(w, kind, scale, 2)?, coco, &mut NoTrace)
}

/// Runs one variant of a compiled cell on the input the cell measures,
/// with the aggregator and critical-path sinks and the caller's `sink`
/// attached (say, a [`gmt_sim::ChromeTraceSink`] sized to
/// `cell.variant(coco)`), and joins the result with the scheduler's
/// static estimate for the same input.
///
/// # Errors
///
/// Returns a [`HarnessError`] naming the benchmark and failing phase —
/// including a violation of either trace invariant (attribution or
/// critical-path conservation), which would mean the engine emitted an
/// inconsistent event stream.
pub fn explain_variant<S: TraceSink>(
    cell: &CompiledCell,
    coco: bool,
    sink: &mut S,
) -> Result<ExplainCell, HarnessError> {
    let w = cell.workload;
    let b = w.benchmark;
    let v = cell.variant(coco);
    // On train inputs the cell already holds the measured input's
    // profile: the one it was partitioned with.
    let ref_profile;
    let profile = match cell.scale {
        Scale::Quick => &cell.profile,
        Scale::Full => {
            ref_profile = run_with_memory(&w.function, cell.args(), w.init, &exec_config())
                .map_err(fail(b, "explain profile run"))?
                .profile;
            &ref_profile
        }
    };
    let (f, p) = (&w.function, &v.parallelized);
    let loads = thread_loads(f, &cell.pdg, profile, &p.partition)
        .map_err(|i| format!("{i:?} unassigned"))
        .map_err(fail(b, "explain estimate"))?;
    let traffic =
        gmt_mtcg::estimated_traffic(f, &profile.block_weights(f), p.queue_labels(), p.num_queues());
    let num_queues = v.machine.sa.num_queues;
    let walker = CritPathSink::new(&v.program, num_queues);
    let started = Instant::now();
    let aggregator =
        TraceAggregator::new(v.program.threads().len(), num_queues, TRACE_RING_CAPACITY);
    let mut sinks = (aggregator, (walker, sink));
    let opts = SimOptions::default();
    let result =
        simulate_decoded_traced_opts(&v.program, cell.args(), w.init, &v.machine, &mut sinks, opts)
            .map_err(fail(b, "traced sim"))?;
    let (aggregator, (walker, _)) = sinks;
    check_attribution(&aggregator, &result).map_err(fail(b, "attribution check"))?;
    let critpath = check_critical_path(&walker, &result).map_err(fail(b, "critical-path check"))?;
    Ok(ExplainCell {
        run: run_record(cell, v, Some(started), sim_counts(&result), Some(&result)),
        attribution: aggregator.core_attribution(),
        queues: aggregator.queue_stats().to_vec(),
        occupancy: aggregator.queue_occupancy(),
        labels: p.queue_labels().to_vec(),
        critpath,
        loads,
        traffic,
        cut: cut_summary(&cell.pdg, &p.partition),
    })
}

/// What limits the schedule, by critical-path edge-kind groups.
///
/// - `recurrence-bound` — dataflow, memory, and cross-thread value
///   latency dominates: the schedule is chasing a dependence
///   recurrence, and only cutting it (or hiding its latency) helps;
/// - `queue-bound` — produce backpressure and SA-port contention
///   dominate: deeper queues, more ports, or fewer communicated
///   values help;
/// - `mispredict-bound` — front-end refills dominate;
/// - `balance-bound` — in-order issue, structural limits, and
///   end-of-run waiting dominate: the partition itself (or the issue
///   width) is the limit, not any single dependence.
///
/// Ties break in that order, so the verdict is deterministic.
pub fn verdict(cp: &CritPath) -> &'static str {
    let groups = verdict_groups(cp);
    let mut best = 0usize;
    for (i, g) in groups.iter().enumerate() {
        if g.1 > groups[best].1 {
            best = i;
        }
    }
    groups[best].0
}

/// The verdict groups with their critical-path cycle totals, in
/// tie-break order.
fn verdict_groups(cp: &CritPath) -> [(&'static str, u64); 4] {
    [
        (
            "recurrence-bound",
            cp.kind_cycles(CpKind::Dataflow)
                + cp.kind_cycles(CpKind::Load)
                + cp.kind_cycles(CpKind::QueueData),
        ),
        ("queue-bound", cp.kind_cycles(CpKind::QueueSpace) + cp.kind_cycles(CpKind::SaPort)),
        ("mispredict-bound", cp.kind_cycles(CpKind::Refill)),
        (
            "balance-bound",
            cp.kind_cycles(CpKind::InOrder)
                + cp.kind_cycles(CpKind::Structural)
                + cp.kind_cycles(CpKind::LoadLimit)
                + cp.kind_cycles(CpKind::Retire),
        ),
    ]
}

/// Integer percent of `part` in `total` (0 when `total` is 0).
fn pct(part: u64, total: u64) -> u64 {
    if total == 0 {
        0
    } else {
        part * 100 / total
    }
}

/// The human-readable explain report: deterministic (no wall-clock
/// quantities), so it goldens.
pub fn explain_report(cell: &ExplainCell) -> String {
    let mut out = String::new();
    let cp = &cell.critpath;
    let run = &cell.run;
    let _ = writeln!(
        out,
        "explain: {} / {} / {} ({} cycles)",
        run.benchmark, run.scheduler, run.variant, run.cycles
    );
    let groups = verdict_groups(cp);
    let v = verdict(cp);
    let share = groups.iter().find(|g| g.0 == v).map_or(0, |g| pct(g.1, cp.total));
    let _ = writeln!(out, "verdict: {v} ({share}% of the critical path)");
    let _ = writeln!(out);

    // Per-thread: the partitioner's estimated load against the
    // measured decomposition, which sums to the cycle count. A thread
    // whose measured compute sits far under its estimate spent its life
    // stalled (by reason) or idle.
    let _ = write!(out, "{:<7} {:>10} {:>10}", "thread", "est", "compute");
    for reason in StallReason::ALL {
        let (heading, width) = stall_column(reason);
        let _ = write!(out, " {heading:>width$}");
    }
    let _ = writeln!(out, " {:>10}", "idle");
    for (t, a) in cell.attribution.iter().enumerate() {
        let est_t = cell.loads.get(t).copied().unwrap_or(0);
        let _ = write!(out, "{t:<7} {est_t:>10} {:>10}", a.compute);
        for (reason, cycles) in a.stalls.iter() {
            let _ = write!(out, " {cycles:>width$}", width = stall_column(reason).1);
        }
        let _ = writeln!(out, " {:>10}", a.idle);
    }
    let _ = writeln!(
        out,
        "estimated bottleneck {} cycles; measured {} ({}% of estimate)",
        cell.bottleneck(),
        run.cycles,
        pct(run.cycles, cell.bottleneck().max(1)),
    );
    let _ = writeln!(
        out,
        "cut: {} register / {} memory / {} control arcs; {} sync tokens; \
         max thread share {}%",
        cell.cut.register,
        cell.cut.memory,
        cell.cut.control,
        cell.sync_points(),
        cell.max_share_pct(),
    );
    let _ = writeln!(out);

    // Per-queue: estimated traffic (occurrence weight) vs. measured
    // produces and consumes, stall pressure, the occupancy high-water
    // mark and dwell-time distribution (p50/p95/max of the cycles
    // dwelled; its max can undershoot max-occ when a level lasted zero
    // cycles), and the plan occurrence(s) MTCG assigned to the queue.
    let _ = writeln!(
        out,
        "{:<6} {:>11} {:>9} {:>9} {:>9} {:>11} {:>11} {:>8} {:>11}  plan",
        "queue", "est-traffic", "produces", "consumes", "deferred", "full-stall", "empty-stall",
        "max-occ", "occ-dwell"
    );
    let mut any = false;
    for (q, qs) in cell.queues.iter().enumerate() {
        let est_q = cell.traffic.get(q).copied().unwrap_or(0);
        if !qs.is_active() && est_q == 0 {
            continue;
        }
        any = true;
        let occ = cell.occupancy.get(q).copied().unwrap_or_default();
        let labels: Vec<String> =
            cell.labels.iter().filter(|l| l.queue.0 as usize == q).map(label_text).collect();
        let _ = writeln!(
            out,
            "{:<6} {:>11} {:>9} {:>9} {:>9} {:>11} {:>11} {:>8} {:>11}  {}",
            format!("q{q}"),
            est_q,
            qs.produces,
            qs.consumes,
            qs.deferred_consumes,
            qs.full_stall_cycles,
            qs.empty_stall_cycles,
            qs.max_occupancy,
            format!("{}/{}/{}", occ.p50, occ.p95, occ.max),
            labels.join("; "),
        );
    }
    if !any {
        let _ = writeln!(out, "(no queue traffic)");
    }
    let _ = writeln!(out);

    // The critical path by edge kind — sums to the cycle count.
    let _ = writeln!(
        out,
        "critical path: {} edges, {} core crossings, {} cycles",
        cp.edges, cp.crossings, cp.total
    );
    for kind in CpKind::ALL {
        let c = cp.kind_cycles(kind);
        if c > 0 {
            let _ = writeln!(out, "  {:<12} {:>10} {:>4}%", kind.name(), c, pct(c, cp.total));
        }
    }
    let _ = writeln!(out);

    // Top segments: where (statically) the path's cycles accumulate.
    let _ = writeln!(
        out,
        "{:<5} {:<7} {:<7} {:<12} {:>6} {:>7} {:>10} {:>4}%",
        "core", "instr", "block", "kind", "queue", "count", "cycles", ""
    );
    for s in cp.segments.iter().take(EXPLAIN_TOP_K) {
        let _ = writeln!(
            out,
            "{:<5} {:<7} {:<7} {:<12} {:>6} {:>7} {:>10} {:>4}%",
            s.core,
            format!("i{}", s.src.0),
            format!("B{}", s.block.index()),
            s.kind.name(),
            s.queue.map_or("-".to_string(), |q| format!("q{q}")),
            s.count,
            s.cycles,
            pct(s.cycles, cp.total),
        );
    }
    out
}

/// Renders one queue label compactly: what travels, between which
/// threads, at which original-CFG point.
fn label_text(l: &QueueLabel) -> String {
    let what = match l.kind {
        CommKind::Register(r) => format!("r{}", r.0),
        CommKind::Memory => "sync".to_string(),
    };
    let at = match l.point {
        CommPoint::Before(i) => format!("before i{}", i.0),
        CommPoint::After(i) => format!("after i{}", i.0),
        CommPoint::BlockStart(b) => format!("start B{}", b.index()),
    };
    format!("{what} t{}->t{} {at}", l.from.0, l.to.0)
}

/// The explain join as one JSON object (one line): the run's
/// [`RunMetrics`] keys, `"schema":1` first, then the join's own —
/// scalars flat, per-thread and per-queue data as arrays of flat
/// objects, the critical-path kind decomposition as `cp_<kind>` keys.
pub fn explain_json(cell: &ExplainCell) -> String {
    let cp = &cell.critpath;
    let mut out = String::from("{");
    cell.run.write_keys(&mut out);
    let _ = write!(
        out,
        ",\"verdict\":\"{}\",\
         \"est_bottleneck\":{},\"est_total\":{},\"max_share_pct\":{},\
         \"cut_register\":{},\"cut_memory\":{},\"cut_control\":{},\"sync_points\":{},\
         \"cp_total\":{},\"cp_edges\":{},\"cp_crossings\":{}",
        verdict(cp),
        cell.bottleneck(),
        cell.loads.iter().sum::<u64>(),
        cell.max_share_pct(),
        cell.cut.register,
        cell.cut.memory,
        cell.cut.control,
        cell.sync_points(),
        cp.total,
        cp.edges,
        cp.crossings,
    );
    for kind in CpKind::ALL {
        let _ = write!(
            out,
            ",\"cp_{}\":{}",
            kind.name().replace('-', "_"),
            cp.kind_cycles(kind)
        );
    }
    let _ = write!(out, ",\"threads\":[");
    for (t, a) in cell.attribution.iter().enumerate() {
        if t > 0 {
            let _ = write!(out, ",");
        }
        let _ = write!(
            out,
            "{{\"thread\":{t},\"est\":{},\"compute\":{},\"stall\":{},\"idle\":{}}}",
            cell.loads.get(t).copied().unwrap_or(0),
            a.compute,
            a.stalls.total(),
            a.idle,
        );
    }
    let _ = write!(out, "],\"queues\":[");
    let mut first = true;
    for (q, qs) in cell.queues.iter().enumerate() {
        let est_q = cell.traffic.get(q).copied().unwrap_or(0);
        if !qs.is_active() && est_q == 0 {
            continue;
        }
        if !first {
            let _ = write!(out, ",");
        }
        first = false;
        let occ = cell.occupancy.get(q).copied().unwrap_or_default();
        let _ = write!(
            out,
            "{{\"queue\":{q},\"est_traffic\":{est_q},\"produces\":{},\"consumes\":{},\
             \"full_stall\":{},\"empty_stall\":{},\"occ_p50\":{},\"occ_p95\":{},\
             \"occ_max\":{}}}",
            qs.produces,
            qs.consumes,
            qs.full_stall_cycles,
            qs.empty_stall_cycles,
            occ.p50,
            occ.p95,
            occ.max,
        );
    }
    let _ = write!(out, "]}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmt_sim::ChromeTraceSink;

    fn explained(bench: &str, kind: SchedulerKind, coco: bool) -> ExplainCell {
        let w = gmt_workloads::by_benchmark(bench).unwrap();
        explain_cell(&w, kind, coco, Scale::Quick).expect("explains")
    }

    /// One variant of `cell` explained with a [`ChromeTraceSink`] sized
    /// to it attached beside the explain sinks; returns the explained
    /// cell and the trace JSON.
    fn explained_with_chrome(cell: &CompiledCell, coco: bool) -> (ExplainCell, String) {
        let v = cell.variant(coco);
        let mut chrome = ChromeTraceSink::new(v.program.threads().len(), v.machine.sa.num_queues);
        let explained = explain_variant(cell, coco, &mut chrome).unwrap();
        (explained, chrome.into_json())
    }

    #[test]
    fn conservation_holds_and_report_is_complete() {
        let cell = explained("adpcmdec", SchedulerKind::Dswp, true);
        let cp = &cell.critpath;
        let cycles = cell.run.cycles;
        assert_eq!(cp.total, cycles, "path edges sum to the run");
        let kinds: u64 = CpKind::ALL.iter().map(|&k| cp.kind_cycles(k)).sum();
        assert_eq!(kinds, cp.total);
        // The path can never beat the busiest core.
        let busy = cell.attribution.iter().map(|a| a.compute).max().unwrap_or(0);
        assert!(cp.total >= busy, "{} >= {busy}", cp.total);
        let report = explain_report(&cell);
        assert!(report.contains("verdict:"));
        assert!(report.contains("critical path:"));
        assert!(report.contains("est-traffic"));
        assert!(report.contains(&cycles.to_string()));
    }

    #[test]
    fn explain_agrees_with_untraced_timing() {
        let w = gmt_workloads::by_benchmark("ks").unwrap();
        let cell = explain_cell(&w, SchedulerKind::Dswp, false, Scale::Quick).unwrap();
        let r = crate::evaluate_full(&w, SchedulerKind::Dswp, true, Scale::Quick).unwrap().result;
        assert_eq!(cell.run.cycles, r.mtcg.cycles, "observer effect: explain changed timing");
    }

    /// The nesting law of the run record: on every quick cell, in both
    /// variants, the explained run's record is the timed quick
    /// evaluation's record of the same variant on the 14 fields the run
    /// itself determines — identity, `instrs`, `cycles`, the seven raw
    /// stall counters, `engine_steps` and `skipped_cycles` — because a
    /// sink does not change what the engine does, and a shared or a
    /// handed-over run is the same run. The wall clock, the compile
    /// timings, `arb_probes`, `arb_hits` and `shared_run` say how each
    /// side came by its run and are masked. Each cell is compiled once
    /// and read by both sides, as `repro` reads it.
    #[test]
    fn an_explained_run_is_the_timed_evaluations_run() {
        let run_determined = |m: &RunMetrics| RunMetrics {
            wall_ns: 0,
            timings: gmt_core::CompileTimings::default(),
            arb_probes: 0,
            arb_hits: 0,
            shared_run: false,
            ..*m
        };
        let mut cells = Vec::new();
        for kind in [SchedulerKind::Gremio, SchedulerKind::Dswp] {
            cells.extend(gmt_workloads::catalog().into_iter().map(|w| (w, kind)));
        }
        let pairs = gmt_testkit::par_map(cells, gmt_testkit::num_jobs(), |_, (w, kind)| {
            let cell = compile_cell(&w, kind, Scale::Quick, 2).expect("compiles");
            let timed = crate::evaluate_cell(&cell, true).expect("evaluates").metrics;
            let explained = [false, true]
                .map(|coco| explain_variant(&cell, coco, &mut NoTrace).expect("explains").run);
            timed.into_iter().zip(explained).collect::<Vec<_>>()
        });
        let mut records = 0;
        for (want, got) in pairs.into_iter().flatten() {
            let at = format!("{} / {} / {}", want.benchmark, want.scheduler, want.variant);
            assert!(want.cycles > 0, "{at}: a timed record");
            assert_eq!(run_determined(&got), run_determined(&want), "{at}");
            records += 1;
        }
        assert_eq!(records, 44, "11 kernels x 2 schedulers x 2 variants");
    }

    #[test]
    fn json_shape_is_machine_readable() {
        let cell = explained("ks", SchedulerKind::Dswp, true);
        let json = explain_json(&cell);
        assert!(json.starts_with("{\"schema\":1,\"benchmark\":") && json.ends_with('}'), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        for key in [
            "\"benchmark\":", "\"verdict\":", "\"cp_total\":", "\"cp_dataflow\":",
            "\"cp_queue_data\":", "\"threads\":[", "\"queues\":[", "\"est_bottleneck\":",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(!json.contains('\n'), "one JSON line");
    }

    /// On ref inputs the estimate is of the ref input's profile, the
    /// input the run measures, and not of the train profile the cell
    /// was partitioned with: adpcmdec / GREMIO / mtcg estimates a
    /// 135 171-cycle bottleneck for its 182 039-cycle ref run, where
    /// the train profile gave 8 451.
    #[test]
    fn a_ref_input_report_estimates_from_the_ref_profile() {
        let w = gmt_workloads::by_benchmark("adpcmdec").unwrap();
        let compiled = compile_cell(&w, SchedulerKind::Gremio, Scale::Full, 2).unwrap();
        let cell = explain_variant(&compiled, false, &mut NoTrace).unwrap();
        let partition = &compiled.mtcg.parallelized.partition;
        let loads = |profile: &gmt_ir::Profile| {
            thread_loads(&w.function, &compiled.pdg, profile, partition).unwrap()
        };
        let on_ref = loads(&w.run_ref().unwrap().profile);
        let on_train = loads(&w.run_train().unwrap().profile);
        assert_eq!(cell.loads, on_ref);
        let peak = |loads: &[u64]| loads.iter().copied().max().unwrap_or(0);
        assert_ne!(peak(&on_ref), peak(&on_train));
        let line = format!(
            "estimated bottleneck {} cycles; measured {} ({}% of estimate)\n",
            peak(&on_ref),
            cell.run.cycles,
            pct(cell.run.cycles, peak(&on_ref)),
        );
        assert!(explain_report(&cell).contains(&line), "{}", explain_report(&cell));
    }

    #[test]
    fn verdict_tie_breaks_deterministically() {
        let cp = CritPath::default();
        assert_eq!(verdict(&cp), "recurrence-bound", "all-zero path takes the first group");
    }

    /// Pinned critical-path summaries: 2 kernels × both schedulers.
    /// The engine and the walk are deterministic, so these are exact;
    /// a change here means the machine model or the path semantics
    /// moved, which must be a conscious decision.
    #[test]
    fn pinned_cp_summaries() {
        for (bench, kind, cycles, edges, crossings, v) in [
            ("adpcmdec", SchedulerKind::Dswp, 8682u64, 8426u64, 1u64, "recurrence-bound"),
            ("adpcmdec", SchedulerKind::Gremio, 12488, 9992, 513, "recurrence-bound"),
            ("ks", SchedulerKind::Dswp, 7100, 7321, 3, "recurrence-bound"),
            ("ks", SchedulerKind::Gremio, 9727, 9784, 13, "recurrence-bound"),
        ] {
            let cell = explained(bench, kind, true);
            let cp = &cell.critpath;
            let tag = format!("{bench}/{}", kind.name());
            assert_eq!(cp.total, cell.run.cycles, "{tag}");
            assert_eq!(cell.run.cycles, cycles, "{tag} cycles");
            assert_eq!(cp.edges, edges, "{tag} edges");
            assert_eq!(cp.crossings, crossings, "{tag} crossings");
            assert_eq!(verdict(cp), v, "{tag} verdict");
        }
    }

    #[test]
    fn attribution_rows_sum_to_total_cycles() {
        let cell = explained("ks", SchedulerKind::Dswp, true);
        let cycles = cell.run.cycles;
        assert!(cycles > 0);
        assert!(!cell.attribution.is_empty());
        for a in &cell.attribution {
            assert_eq!(a.total(), cycles, "decomposition covers every cycle");
        }
        let report = explain_report(&cell);
        assert!(report.contains("thread"));
        assert!(report.contains(&cycles.to_string()));
    }

    /// Attaching the Chrome sink beside the explain sinks leaves the
    /// run's timing alone.
    #[test]
    fn traced_cycles_match_untraced_run() {
        let w = gmt_workloads::by_benchmark("ks").unwrap();
        let cell = compile_cell(&w, SchedulerKind::Dswp, Scale::Quick, 2).unwrap();
        let (explained, _) = explained_with_chrome(&cell, false);
        let r = crate::evaluate_cell(&cell, true).unwrap().result;
        let cycles = explained.run.cycles;
        assert_eq!(cycles, r.mtcg.cycles, "observer effect: tracing changed timing");
    }

    #[test]
    fn chrome_json_has_core_and_queue_tracks() {
        let w = gmt_workloads::by_benchmark("ks").unwrap();
        let cell = compile_cell(&w, SchedulerKind::Dswp, Scale::Quick, 2).unwrap();
        let (_, json) = explained_with_chrome(&cell, true);
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"name\":\"compute\""));
        assert!(json.contains("\"name\":\"core 0\""));
        assert!(json.contains("\"name\":\"core 1\""));
        assert!(json.contains("\"ph\":\"C\""), "queue counter track present");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn queue_table_ties_traffic_to_plan_labels() {
        let cell = explained("ks", SchedulerKind::Gremio, false);
        let active: Vec<usize> = cell
            .queues
            .iter()
            .enumerate()
            .filter(|(_, q)| q.produces > 0)
            .map(|(i, _)| i)
            .collect();
        if active.is_empty() {
            return; // single-threaded arbitration outcome: no traffic
        }
        let report = explain_report(&cell);
        for q in active {
            assert!(report.contains(&format!("q{q}")), "active queue {q} has a row");
            assert!(
                cell.labels.iter().any(|l| l.queue.0 as usize == q),
                "active queue {q} is labeled by the plan"
            );
        }
        assert!(report.contains("->"), "labels name the thread pair");
    }

    #[test]
    fn queue_table_carries_occupancy_distribution() {
        let cell = explained("ks", SchedulerKind::Dswp, false);
        let report = explain_report(&cell);
        assert_eq!(cell.occupancy.len(), cell.queues.len(), "one summary per queue");
        assert!(report.contains("occ-dwell"), "distribution column present:\n{report}");
        for (q, qs) in cell.queues.iter().enumerate() {
            if qs.is_active() {
                let occ = cell.occupancy[q];
                assert!(
                    report.contains(&format!("{}/{}/{}", occ.p50, occ.p95, occ.max)),
                    "queue {q} row shows its p50/p95/max"
                );
                assert!(occ.p50 <= occ.p95 && occ.p95 <= occ.max.max(occ.p95));
            }
        }
    }
}
