//! The evidence that keeps general run-ahead out of the cycle engine.
//!
//! Between two *global events* — a memory access (a peer's store can
//! invalidate the line a "local" L1 hit would read), an output, or a
//! queue operation — a core's timing depends on its own state alone, so
//! a core could run ahead to its next global event in a one-core loop
//! and merge with its peers only there. That pays only if the windows
//! between global events are long. This test measures them on the 22
//! two-core programs of the quick evaluation matrix (11 kernels ×
//! {GREMIO, DSWP}, COCO variant, on the cell's own machine) with a
//! test-only [`TraceSink`] that maps each `Issue` to its op, and pins
//! the parking criterion: the median gap between a core's consecutive
//! global events is under 8 cycles. A change that makes the windows
//! long fails here, which is the signal to reconsider run-ahead. The
//! engine keeps no counter for this; the untraced path pays nothing.

use gmt_harness::{compile_cell, Scale, SchedulerKind};
use gmt_ir::Function;
use gmt_sim::{simulate_decoded_traced_opts, SimOptions, TraceEvent, TraceSink};

/// Gaps of this many cycles or more share the last histogram bucket.
const CAP: usize = 64;

/// Per core, the cycle gap between consecutive issues of memory,
/// output and queue operations, histogrammed over every core it sees.
struct Windows<'a> {
    threads: &'a [Function],
    last: Vec<Option<u64>>,
    gaps: &'a mut [u64; CAP + 1],
}

impl TraceSink for Windows<'_> {
    fn event(&mut self, ev: &TraceEvent) {
        if let TraceEvent::Issue { cycle, core, src, .. } = *ev {
            let op = self.threads[core].instr(src);
            if op.is_mem_op() || op.is_communication() {
                if let Some(prev) = self.last[core] {
                    self.gaps[((cycle - prev) as usize).min(CAP)] += 1;
                }
                self.last[core] = Some(cycle);
            }
        }
    }

    fn run_end(&mut self, _cycles: u64) {}
}

#[test]
fn global_events_are_too_close_for_run_ahead() {
    let mut gaps = [0u64; CAP + 1];
    let mut programs = 0;
    for w in gmt_workloads::catalog() {
        for kind in [SchedulerKind::Gremio, SchedulerKind::Dswp] {
            let tag = format!("{}/{}", w.benchmark, kind.name());
            let cell =
                compile_cell(&w, kind, Scale::Quick, 2).unwrap_or_else(|e| panic!("{tag}: {e}"));
            let v = &cell.coco;
            let threads = v.parallelized.threads();
            assert_eq!(threads.len(), 2, "{tag}");
            let mut sink = Windows { threads, last: vec![None; threads.len()], gaps: &mut gaps };
            simulate_decoded_traced_opts(&v.program, cell.args, w.init, &v.machine, &mut sink, SimOptions::default())
                .unwrap_or_else(|e| panic!("{tag}: {e}"));
            programs += 1;
        }
    }
    assert_eq!(programs, 22);

    let total: u64 = gaps.iter().sum();
    let within = |g: usize| gaps[..=g].iter().sum::<u64>();
    let median = (0..=CAP).find(|&g| 2 * within(g) >= total).unwrap_or(CAP);
    eprintln!(
        "{total} gaps between global events: median {median} cycles, {:.1} % within 3, {:.1} % at 8 or more",
        100.0 * within(3) as f64 / total as f64,
        100.0 * (total - within(7)) as f64 / total as f64,
    );
    assert!(total > 10_000, "too few global events to judge: {total}");
    assert!(median < 8, "the median window is {median} cycles: run-ahead may pay now");
}
