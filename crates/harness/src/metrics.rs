//! Per-run observability records for the experiment matrix.
//!
//! Every (benchmark, scheduler, variant) evaluation produces one
//! [`RunMetrics`]: wall-clock time, dynamic-instruction and cycle
//! counts, and the compile-phase breakdown (PDG build, partition,
//! COCO, MTCG) measured by `gmt-core`'s pipeline. `repro --metrics`
//! prints the records as JSON-lines followed by a summary table.

use gmt_core::CompileTimings;
use gmt_sim::{StallCycles, StallReason};
use gmt_testkit::json_escape;
use std::fmt::Write as _;

/// One (benchmark, scheduler, variant) evaluation's observability
/// record: the run level of the nested record. An explained run
/// ([`crate::ExplainCell`]) carries one of these and appends its own
/// keys to its JSON object.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunMetrics {
    /// Benchmark name (Figure 6b).
    pub benchmark: &'static str,
    /// Scheduler display name (`"GREMIO"` / `"DSWP"`).
    pub scheduler: &'static str,
    /// Variant: `"mtcg"` (baseline) or `"coco"`.
    pub variant: &'static str,
    /// Wall-clock nanoseconds spent evaluating this variant (compile
    /// phases + its one execution: the timed simulation when
    /// requested, the functional run otherwise; compile phases only
    /// for a [`RunMetrics::shared_run`] and for a run GREMIO's
    /// arbitration handed over, whose host time `partition_ns` holds).
    pub wall_ns: u64,
    /// Dynamic instructions, summed over threads.
    pub instrs: u64,
    /// Cycle count from the machine model (0 if not timed).
    pub cycles: u64,
    /// Compile-phase wall-clock breakdown.
    pub timings: CompileTimings,
    /// Programs GREMIO's arbitration timed on the train input — its
    /// candidate schedules and the sequential program (carried by the
    /// `mtcg` record, 0 elsewhere).
    pub arb_probes: u64,
    /// Always 0; kept for its only reader, `benchmark/src/workloads.rs`.
    pub arb_hits: u64,
    /// Per-reason stall cycles summed over cores (all zero if not
    /// timed). These are the engine's raw counters — a cycle that both
    /// issued and then stalled counts here, unlike in a
    /// [`gmt_sim::CycleAttribution`] — so they need no trace sink.
    pub stalls: StallCycles,
    /// Engine main-loop iterations actually evaluated by the timed
    /// simulation (0 if not timed). With the event-driven fast-forward
    /// on, `engine_steps + skipped_cycles` equals what a per-cycle run
    /// would have stepped.
    pub engine_steps: u64,
    /// Cycles the timed simulation's fast-forward jumped over instead
    /// of ticking (0 if not timed).
    pub skipped_cycles: u64,
    /// Whether this variant is the cell's other variant with its queues
    /// renamed, so that the two shared one execution: the counts,
    /// cycles, stalls and engine steps here are that run's, reported by
    /// both records, and were produced once.
    pub shared_run: bool,
}

impl RunMetrics {
    /// The record as one JSON object (one JSON-line).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        self.write_keys(&mut out);
        out + "}"
    }

    /// Opens the one flat record object every mode emits: the schema
    /// version, then the run-level keys. Deeper levels append theirs.
    pub(crate) fn write_keys(&self, out: &mut String) {
        let id = [self.benchmark, self.scheduler, self.variant].map(json_escape);
        let t = self.timings;
        let _ = write!(
            out,
            "\"schema\":1,\"benchmark\":\"{}\",\"scheduler\":\"{}\",\"variant\":\"{}\",\
             \"wall_ns\":{},\"instrs\":{},\"cycles\":{},\"pdg_build_ns\":{},\
             \"partition_ns\":{},\"coco_ns\":{},\"mtcg_ns\":{},\"arb_probes\":{}",
            id[0], id[1], id[2], self.wall_ns, self.instrs, self.cycles,
            t.pdg_build_ns, t.partition_ns, t.coco_ns, t.mtcg_ns, self.arb_probes,
        );
        for (reason, cycles) in self.stalls.iter() {
            let _ = write!(out, ",\"stall_{}\":{cycles}", reason.name().replace('-', "_"));
        }
        let _ = write!(
            out,
            ",\"engine_steps\":{},\"skipped_cycles\":{},\"shared_run\":{}",
            self.engine_steps, self.skipped_cycles, self.shared_run,
        );
    }

    /// Fraction of simulated cycles the fast-forward skipped, or `None`
    /// when the run was not timed (`engine_steps == 0`) — callers must
    /// not print a ratio for untimed records.
    pub fn skip_ratio(&self) -> Option<f64> {
        if self.engine_steps == 0 {
            return None;
        }
        let total = self.engine_steps + self.skipped_cycles;
        Some(self.skipped_cycles as f64 / total as f64)
    }
}

/// Heading and width of a reason's column in the report tables (the
/// labels of [`StallReason::name`], shortened to keep rows narrow).
pub(crate) fn stall_column(reason: StallReason) -> (&'static str, usize) {
    match reason {
        StallReason::Operand => ("operand", 10),
        StallReason::Structural => ("struct", 10),
        StallReason::SaPort => ("sa-port", 8),
        StallReason::QueueFull => ("q-full", 10),
        StallReason::QueueEmpty => ("q-empty", 10),
        StallReason::LoadLimit => ("load-lim", 9),
        StallReason::Mispredict => ("mispred", 9),
    }
}

/// A per-kernel stall-breakdown table (one row per record, one column
/// per [`StallReason`]); printed by `repro --metrics` after the main
/// summary table. All-zero on untimed runs.
pub fn stall_table(metrics: &[RunMetrics]) -> String {
    let mut out = format!("{:<14} {:<7} {:<7}", "benchmark", "sched", "variant");
    for reason in StallReason::ALL {
        let (heading, width) = stall_column(reason);
        let _ = write!(out, " {heading:>width$}");
    }
    out.push('\n');
    for m in metrics {
        let _ = write!(out, "{:<14} {:<7} {:<7}", m.benchmark, m.scheduler, m.variant);
        for (reason, cycles) in m.stalls.iter() {
            let _ = write!(out, " {cycles:>width$}", width = stall_column(reason).1);
        }
        out.push('\n');
    }
    out
}

fn fmt_ms(ns: u64) -> String {
    format!("{:.2}", ns as f64 / 1e6)
}

/// A human-readable summary table of a metrics batch (one row per
/// record, milliseconds for all wall-clock columns). The `run` column
/// marks a [`RunMetrics::shared_run`] with `=mtcg`: its counts, cycles
/// and skip ratio repeat the baseline row's one execution.
pub fn metrics_table(metrics: &[RunMetrics]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:<7} {:<7} {:>9} {:>12} {:>12} {:>8} {:>9} {:>8} {:>8} {:>4} {:>6} run",
        "benchmark", "sched", "variant", "wall ms", "instrs", "cycles", "pdg ms", "part ms", "coco ms", "mtcg ms", "arb", "skip"
    );
    for m in metrics {
        // Untimed records have no engine run to express a ratio of.
        let skip = match m.skip_ratio() {
            Some(r) => format!("{:.0}%", r * 100.0),
            None => "-".to_string(),
        };
        let _ = writeln!(
            out,
            "{:<14} {:<7} {:<7} {:>9} {:>12} {:>12} {:>8} {:>9} {:>8} {:>8} {:>4} {:>6}{}",
            m.benchmark,
            m.scheduler,
            m.variant,
            fmt_ms(m.wall_ns),
            m.instrs,
            m.cycles,
            fmt_ms(m.timings.pdg_build_ns),
            fmt_ms(m.timings.partition_ns),
            fmt_ms(m.timings.coco_ns),
            fmt_ms(m.timings.mtcg_ns),
            m.arb_probes,
            skip,
            // A shared run is the row above's, not one of its own.
            if m.shared_run { " =mtcg" } else { "" },
        );
    }
    let total_ns: u64 = metrics.iter().map(|m| m.wall_ns).sum();
    let _ = writeln!(
        out,
        "{:<14} {:<7} {:<7} {:>9}  ({} records)",
        "total",
        "",
        "",
        fmt_ms(total_ns),
        metrics.len()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunMetrics {
        // 11 operand cycles, 12 structural, … 17 mispredict.
        let mut stalls = StallCycles::default();
        for (n, reason) in (11..).zip(StallReason::ALL) {
            stalls[reason] = n;
        }
        RunMetrics {
            benchmark: "ks",
            scheduler: "GREMIO",
            variant: "coco",
            wall_ns: 1_500_000,
            instrs: 1234,
            cycles: 5678,
            timings: CompileTimings {
                pdg_build_ns: 100,
                partition_ns: 200,
                coco_ns: 300,
                mtcg_ns: 400,
            },
            arb_probes: 8,
            arb_hits: 0,
            stalls,
            engine_steps: 1420,
            skipped_cycles: 4258,
            shared_run: false,
        }
    }

    #[test]
    fn json_line_shape() {
        // One flat object, the schema version first; the seven stall
        // keys are the reasons' names in `StallReason::ALL` order.
        let line = concat!(
            r#"{"schema":1,"benchmark":"ks","scheduler":"GREMIO","variant":"coco","wall_ns":1500000,"#,
            r#""instrs":1234,"cycles":5678,"pdg_build_ns":100,"partition_ns":200,"coco_ns":300,"#,
            r#""mtcg_ns":400,"arb_probes":8,"stall_operand":11,"stall_structural":12,"#,
            r#""stall_sa_port":13,"stall_queue_full":14,"stall_queue_empty":15,"stall_load_limit":16,"#,
            r#""stall_mispredict":17,"engine_steps":1420,"skipped_cycles":4258,"shared_run":false}"#,
        );
        assert_eq!(sample().to_json(), line);
        let shared = RunMetrics { shared_run: true, ..sample() }.to_json();
        assert!(shared.ends_with(",\"shared_run\":true}"), "{shared}");
    }

    #[test]
    fn skip_ratio_only_for_timed_runs() {
        let m = sample();
        assert_eq!(m.skip_ratio(), Some(4258.0 / 5678.0));
        let mut untimed = sample();
        untimed.engine_steps = 0;
        untimed.skipped_cycles = 0;
        assert_eq!(untimed.skip_ratio(), None, "no engine run, no ratio");
    }

    #[test]
    fn stall_table_has_row_per_record() {
        let t = stall_table(&[sample()]);
        assert_eq!(t.lines().count(), 2, "header + row");
        assert!(t.contains("q-full"));
        assert!(t.contains("14"));
        assert!(t.contains("15"));
    }

    #[test]
    fn stall_breakdown_sums_cores() {
        use StallReason::{Operand, QueueEmpty, QueueFull};
        let (mut a, mut b) = (gmt_sim::CoreStats::default(), gmt_sim::CoreStats::default());
        a.record_stalls(Operand, 2);
        a.record_stalls(QueueEmpty, 3);
        b.record_stalls(Operand, 5);
        b.record_stalls(QueueFull, 7);
        let mut s = a.stalls();
        s += b.stalls();
        assert_eq!((s[Operand], s[QueueFull], s[QueueEmpty]), (7, 7, 3));
        assert_eq!(s.total(), 17);
        let listed: Vec<_> = s.iter().filter(|&(_, n)| n > 0).collect();
        assert_eq!(listed, [(Operand, 7), (QueueFull, 7), (QueueEmpty, 3)], "ALL order");
    }

    #[test]
    fn table_has_row_per_record() {
        let t = metrics_table(&[sample(), RunMetrics { shared_run: true, ..sample() }]);
        assert_eq!(t.lines().count(), 1 + 2 + 1, "header + rows + total");
        let rows: Vec<&str> = t.lines().collect();
        assert!(rows[0].ends_with(" run"), "mark column:\n{t}");
        assert!(rows[1].ends_with("75%"), "a run of its own is unmarked:\n{t}");
        assert!(rows[2].ends_with("75% =mtcg"), "a shared run is marked:\n{t}");
        assert!(t.contains("benchmark"));
        assert!(t.contains(" arb "));
        assert!(t.lines().nth(1).unwrap().contains("    8 "), "probe count column:\n{t}");
        assert!(t.contains("(2 records)"));
        assert!(t.contains("skip"));
        assert!(t.contains("75%"), "4258 of 5678 cycles skipped:\n{t}");
    }

    #[test]
    fn table_prints_dash_for_untimed_skip() {
        let mut m = sample();
        m.engine_steps = 0;
        m.skipped_cycles = 0;
        let t = metrics_table(&[m]);
        let row = t.lines().nth(1).unwrap();
        assert!(row.trim_end().ends_with('-'), "untimed row shows no ratio: {row:?}");
    }
}
