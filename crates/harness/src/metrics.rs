//! Per-run observability records for the experiment matrix.
//!
//! Every (benchmark, scheduler, variant) evaluation produces one
//! [`RunMetrics`]: wall-clock time, dynamic-instruction and cycle
//! counts, and the compile-phase breakdown (PDG build, partition,
//! COCO, MTCG) measured by `gmt-core`'s pipeline. `repro --metrics`
//! prints the records as JSON-lines (and appends them to the
//! `gmt-testkit` bench JSON sink) followed by a summary table.

use gmt_core::CompileTimings;
use gmt_sim::CoreStats;
use gmt_testkit::json_escape;
use std::fmt::Write as _;

/// Stall cycles by [`gmt_sim::StallReason`], summed over a run's
/// cores. Unlike [`gmt_sim::CycleAttribution`] these are the engine's
/// raw stall counters (a cycle that both issued and then stalled counts
/// here), so they need no trace sink — `repro --metrics` gets them for
/// free from the timed simulation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StallBreakdown {
    /// Stall-on-use operand waits.
    pub operand: u64,
    /// Issue-slot / FU exhaustion.
    pub structural: u64,
    /// SA request-port contention.
    pub sa_port: u64,
    /// Produce backpressure (full queue).
    pub queue_full: u64,
    /// `consume.sync` token waits (empty queue).
    pub queue_empty: u64,
    /// Outstanding-load limit.
    pub load_limit: u64,
    /// Front-end refill after a mispredict.
    pub mispredict: u64,
}

impl StallBreakdown {
    /// Sums the per-core stall counters of one run.
    pub fn from_cores(cores: &[CoreStats]) -> StallBreakdown {
        let mut b = StallBreakdown::default();
        for c in cores {
            b.operand += c.stall_operand;
            b.structural += c.stall_structural;
            b.sa_port += c.stall_sa_port;
            b.queue_full += c.stall_queue_full;
            b.queue_empty += c.stall_queue_empty;
            b.load_limit += c.stall_load_limit;
            b.mispredict += c.stall_mispredict;
        }
        b
    }

    /// All stall cycles.
    pub fn total(&self) -> u64 {
        self.operand
            + self.structural
            + self.sa_port
            + self.queue_full
            + self.queue_empty
            + self.load_limit
            + self.mispredict
    }
}

/// One (benchmark, scheduler, variant) evaluation's observability
/// record.
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
    /// for a [`RunMetrics::shared_run`]).
    pub wall_ns: u64,
    /// Dynamic instructions, summed over threads.
    pub instrs: u64,
    /// Cycle count from the machine model (0 if not timed).
    pub cycles: u64,
    /// Compile-phase wall-clock breakdown.
    pub timings: CompileTimings,
    /// Candidate schedules GREMIO's arbitration timed on the train
    /// input (carried by the `mtcg` record, 0 elsewhere).
    pub arb_probes: u64,
    /// Always 0; kept for its only reader, `benchmark/src/workloads.rs`.
    pub arb_hits: u64,
    /// Per-reason stall cycles summed over cores (all zero if not
    /// timed).
    pub stalls: StallBreakdown,
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
        format!(
            "{{\"benchmark\":\"{}\",\"scheduler\":\"{}\",\"variant\":\"{}\",\
             \"wall_ns\":{},\"instrs\":{},\"cycles\":{},\"pdg_build_ns\":{},\
             \"partition_ns\":{},\"coco_ns\":{},\"mtcg_ns\":{},\
             \"arb_probes\":{},\
             \"stall_operand\":{},\"stall_structural\":{},\"stall_sa_port\":{},\
             \"stall_queue_full\":{},\"stall_queue_empty\":{},\
             \"stall_load_limit\":{},\"stall_mispredict\":{},\
             \"engine_steps\":{},\"skipped_cycles\":{},\"shared_run\":{}}}",
            json_escape(self.benchmark),
            json_escape(self.scheduler),
            json_escape(self.variant),
            self.wall_ns,
            self.instrs,
            self.cycles,
            self.timings.pdg_build_ns,
            self.timings.partition_ns,
            self.timings.coco_ns,
            self.timings.mtcg_ns,
            self.arb_probes,
            self.stalls.operand,
            self.stalls.structural,
            self.stalls.sa_port,
            self.stalls.queue_full,
            self.stalls.queue_empty,
            self.stalls.load_limit,
            self.stalls.mispredict,
            self.engine_steps,
            self.skipped_cycles,
            self.shared_run,
        )
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

/// A per-kernel stall-breakdown table (one row per record, cycles per
/// [`gmt_sim::StallReason`]); printed by `repro --metrics` after the
/// main summary table. All-zero on untimed runs.
pub fn stall_table(metrics: &[RunMetrics]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:<7} {:<7} {:>10} {:>10} {:>8} {:>10} {:>10} {:>9} {:>9}",
        "benchmark", "sched", "variant", "operand", "struct", "sa-port", "q-full", "q-empty", "load-lim", "mispred"
    );
    for m in metrics {
        let s = m.stalls;
        let _ = writeln!(
            out,
            "{:<14} {:<7} {:<7} {:>10} {:>10} {:>8} {:>10} {:>10} {:>9} {:>9}",
            m.benchmark,
            m.scheduler,
            m.variant,
            s.operand,
            s.structural,
            s.sa_port,
            s.queue_full,
            s.queue_empty,
            s.load_limit,
            s.mispredict,
        );
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
            stalls: StallBreakdown {
                operand: 11,
                structural: 12,
                sa_port: 13,
                queue_full: 14,
                queue_empty: 15,
                load_limit: 16,
                mispredict: 17,
            },
            engine_steps: 1420,
            skipped_cycles: 4258,
            shared_run: false,
        }
    }

    #[test]
    fn json_line_shape() {
        let line = sample().to_json();
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"benchmark\":\"ks\""));
        assert!(line.contains("\"scheduler\":\"GREMIO\""));
        assert!(line.contains("\"variant\":\"coco\""));
        assert!(line.contains("\"wall_ns\":1500000"));
        assert!(line.contains("\"instrs\":1234"));
        assert!(line.contains("\"cycles\":5678"));
        assert!(line.contains("\"pdg_build_ns\":100"));
        assert!(line.contains("\"partition_ns\":200"));
        assert!(line.contains("\"coco_ns\":300"));
        assert!(line.contains("\"mtcg_ns\":400"));
        assert!(line.contains("\"arb_probes\":8"));
        assert!(!line.contains("arb_hits"), "the dead counter left the record");
        assert!(line.contains("\"stall_operand\":11"));
        assert!(line.contains("\"stall_queue_full\":14"));
        assert!(line.contains("\"stall_mispredict\":17"));
        assert!(line.contains("\"engine_steps\":1420"));
        assert!(line.contains("\"skipped_cycles\":4258"));
        assert!(line.ends_with(",\"shared_run\":false}"), "{line}");
        let shared = RunMetrics { shared_run: true, ..sample() }.to_json();
        assert!(shared.ends_with(",\"shared_run\":true}"), "{shared}");
        assert_eq!(line.matches('{').count(), 1, "flat object");
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
        let mut a = gmt_sim::CoreStats::default();
        a.stall_operand = 2;
        a.stall_queue_empty = 3;
        let mut b = gmt_sim::CoreStats::default();
        b.stall_operand = 5;
        b.stall_queue_full = 7;
        let s = StallBreakdown::from_cores(&[a, b]);
        assert_eq!(s.operand, 7);
        assert_eq!(s.queue_full, 7);
        assert_eq!(s.queue_empty, 3);
        assert_eq!(s.total(), 17);
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
