//! Per-run observability records for the experiment matrix.
//!
//! Every (benchmark, scheduler, variant) evaluation produces one
//! [`RunMetrics`]: wall-clock time, dynamic-instruction and cycle
//! counts, and the compile-phase breakdown (PDG build, partition,
//! COCO, MTCG) measured by `gmt-core`'s pipeline, with the raw stall
//! counters and the engine's step accounting of its one run. `repro
//! --explain --json` prints a record as the first keys of each line.

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
    /// Opens the one flat record object: the schema version, then the
    /// run-level keys. Deeper levels append theirs.
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
}

/// Heading and width of a reason's column in the explain report's
/// per-thread table (the labels of [`StallReason::name`], shortened to
/// keep rows narrow).
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
        let json = |m: RunMetrics| {
            let mut out = String::from("{");
            m.write_keys(&mut out);
            out + "}"
        };
        assert_eq!(json(sample()), line);
        let shared = json(RunMetrics { shared_run: true, ..sample() });
        assert!(shared.ends_with(",\"shared_run\":true}"), "{shared}");
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
}
