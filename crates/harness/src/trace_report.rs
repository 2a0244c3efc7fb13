//! Traced evaluation of one kernel × scheduler cell (`repro --trace`).
//!
//! Compiles one workload under one scheduler, runs the chosen variant
//! on the decoded engine with both shipped sinks attached
//! ([`gmt_sim::TraceAggregator`] + [`ChromeTraceSink`]), and packages
//! the result as a [`TracedCell`]: the Chrome-trace JSON, the per-thread cycle
//! attribution (compute / per-[`StallReason`] / idle — the exact
//! decomposition needed to evaluate a COCO cut), and the per-queue
//! communication counters tied back to `gmt-mtcg`'s [`QueueLabel`]s.
//!
//! The attribution invariant — every thread's decomposition sums to the
//! run's total cycle count — is checked by
//! [`gmt_sim::check_attribution`] on every traced run; a violation is
//! an engine bug and surfaces as a [`HarnessError`].
//!
//! [`StallReason`]: gmt_sim::StallReason

use crate::metrics::stall_column;
use crate::{compile_cell, HarnessError, Scale, SchedulerKind, TracedRun};
use gmt_mtcg::{CommKind, CommPoint, QueueLabel};
use gmt_sim::{ChromeTraceSink, StallReason};
use gmt_workloads::Workload;
use std::fmt::Write as _;

/// Everything one traced run produces.
#[derive(Clone, Debug)]
pub struct TracedCell {
    /// The run, its attribution and its queue counters.
    pub traced: TracedRun,
    /// The run as Chrome-trace-format JSON.
    pub chrome_json: String,
}

/// Runs one kernel × scheduler × variant cell with tracing attached.
///
/// # Errors
///
/// Returns a [`HarnessError`] naming the benchmark and failing phase —
/// including an attribution-invariant violation, which would mean the
/// engine emitted an inconsistent event stream.
pub fn trace_cell(
    w: &Workload,
    kind: SchedulerKind,
    coco: bool,
    scale: Scale,
) -> Result<TracedCell, HarnessError> {
    let cell = compile_cell(w, kind, scale)?;
    let v = cell.variant(coco);
    let chrome = ChromeTraceSink::new(v.program.threads().len(), v.machine.sa.num_queues);
    let (traced, _, chrome) = cell.simulate_traced(v, chrome)?;
    Ok(TracedCell { traced, chrome_json: chrome.into_json() })
}

/// The comm-attribution report: one row per thread splitting the run's
/// total cycles into compute / operand-stall / queue-full / queue-empty
/// / other stalls / idle. Rows sum to the total cycle count — compare
/// the mtcg and coco variants of a cell to see exactly which stall
/// bucket a COCO cut reclaimed.
pub fn comm_attribution_table(cell: &TracedCell) -> String {
    // The stalls a communication placement moves get a column each;
    // the rest are summed under `other`.
    use StallReason::{Operand, QueueEmpty, QueueFull};
    let run = &cell.traced.run;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "comm attribution: {} / {} / {} ({} cycles)",
        run.benchmark, run.scheduler, run.variant, run.cycles
    );
    let heading = |r| stall_column(r).0;
    let _ = writeln!(
        out,
        "{:<7} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "thread", "compute", heading(Operand), heading(QueueFull), heading(QueueEmpty), "other", "idle", "total"
    );
    for (t, a) in cell.traced.attribution.iter().enumerate() {
        let s = &a.stalls;
        let other = s.total() - s[Operand] - s[QueueFull] - s[QueueEmpty];
        let _ = writeln!(
            out,
            "{:<7} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
            t, a.compute, s[Operand], s[QueueFull], s[QueueEmpty], other, a.idle,
            a.total()
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

/// The per-queue communication table: dynamic produce/consume counts,
/// stall pressure, occupancy high-water mark, and time-weighted
/// occupancy distribution (the cycles-dwelled p50/p95 levels) per
/// active queue, each tied back to the plan occurrence(s) MTCG
/// assigned to it.
pub fn queue_comm_table(cell: &TracedCell) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<6} {:>9} {:>9} {:>9} {:>11} {:>11} {:>8} {:>11}  {}",
        "queue", "produces", "consumes", "deferred", "full-stall", "empty-stall", "max-occ",
        "occ-dwell", "plan"
    );
    let mut any = false;
    let cell = &cell.traced;
    for (q, qs) in cell.queues.iter().enumerate() {
        if !qs.is_active() {
            continue;
        }
        any = true;
        let labels: Vec<String> = cell
            .labels
            .iter()
            .filter(|l| l.queue.0 as usize == q)
            .map(label_text)
            .collect();
        // p50/p95/max of the dwell-time distribution; the dwell max
        // can undershoot max-occ when a level lasted zero cycles.
        let occ = cell.occupancy.get(q).copied().unwrap_or_default();
        let _ = writeln!(
            out,
            "{:<6} {:>9} {:>9} {:>9} {:>11} {:>11} {:>8} {:>11}  {}",
            format!("q{q}"),
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
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traced(kind: SchedulerKind, coco: bool) -> TracedCell {
        let w = gmt_workloads::by_benchmark("ks").unwrap();
        trace_cell(&w, kind, coco, Scale::Quick).expect("traces")
    }

    #[test]
    fn attribution_rows_sum_to_total_cycles() {
        let cell = traced(SchedulerKind::Dswp, true);
        let cycles = cell.traced.run.cycles;
        assert!(cycles > 0);
        assert!(!cell.traced.attribution.is_empty());
        for a in &cell.traced.attribution {
            assert_eq!(a.total(), cycles, "decomposition covers every cycle");
        }
        let table = comm_attribution_table(&cell);
        assert!(table.contains("thread"));
        assert!(table.contains(&cycles.to_string()));
    }

    #[test]
    fn traced_cycles_match_untraced_run() {
        let w = gmt_workloads::by_benchmark("ks").unwrap();
        let cell = trace_cell(&w, SchedulerKind::Dswp, false, Scale::Quick).unwrap();
        let r = crate::evaluate_full(&w, SchedulerKind::Dswp, true, Scale::Quick).unwrap().result;
        assert_eq!(cell.traced.run.cycles, r.mtcg.cycles, "observer effect: tracing changed timing");
    }

    #[test]
    fn chrome_json_has_core_and_queue_tracks() {
        let cell = traced(SchedulerKind::Dswp, true);
        let json = &cell.chrome_json;
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"name\":\"compute\""));
        assert!(json.contains("\"name\":\"core 0\""));
        assert!(json.contains("\"name\":\"core 1\""));
        assert!(json.contains("\"ph\":\"C\""), "queue counter track present");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn queue_table_ties_traffic_to_plan_labels() {
        let cell = traced(SchedulerKind::Gremio, false);
        let active: Vec<usize> = cell
            .traced
            .queues
            .iter()
            .enumerate()
            .filter(|(_, q)| q.produces > 0)
            .map(|(i, _)| i)
            .collect();
        if active.is_empty() {
            return; // single-threaded arbitration outcome: no traffic
        }
        let table = queue_comm_table(&cell);
        for q in active {
            assert!(table.contains(&format!("q{q}")), "active queue {q} has a row");
            assert!(
                cell.traced.labels.iter().any(|l| l.queue.0 as usize == q),
                "active queue {q} is labeled by the plan"
            );
        }
        assert!(table.contains("->"), "labels name the thread pair");
    }

    #[test]
    fn queue_table_carries_occupancy_distribution() {
        let cell = traced(SchedulerKind::Dswp, false);
        let table = queue_comm_table(&cell);
        let cell = cell.traced;
        assert_eq!(cell.occupancy.len(), cell.queues.len(), "one summary per queue");
        assert!(table.contains("occ-dwell"), "distribution column present:\n{table}");
        for (q, qs) in cell.queues.iter().enumerate() {
            if qs.is_active() {
                let occ = cell.occupancy[q];
                assert!(
                    table.contains(&format!("{}/{}/{}", occ.p50, occ.p95, occ.max)),
                    "queue {q} row shows its p50/p95/max"
                );
                assert!(occ.p50 <= occ.p95 && occ.p95 <= occ.max.max(occ.p95));
            }
        }
        // The summary tables cover the whole run however many raw
        // events it had; the count is surfaced, not hidden.
        let _ = cell.dropped_events;
    }
}
