//! Cycle-level structured tracing of the decoded engine.
//!
//! The paper's evaluation is an argument about *where cycles go*:
//! communication instructions, queue-full/queue-empty stalls, and the
//! synchronization-array interconnect. End-of-run [`crate::CoreStats`]
//! aggregates cannot answer "which queue backed up, when" — this
//! module can. The decoded engine
//! ([`simulate_decoded_traced_opts`](crate::simulate_decoded_traced_opts))
//! narrates every issue, stall, and queue operation to a [`TraceSink`];
//! the sink decides what to keep.
//!
//! Tracing is **zero-cost when off**: the engine is generic over the
//! sink and gates every event behind the associated constant
//! [`TraceSink::ENABLED`]. The [`NoTrace`] sink sets it to `false`, so
//! the untraced instantiation compiles to exactly the code it had
//! before this module existed — the figure goldens and the repository
//! benchmark's `exec_only` / `exec_traced` workloads hold that path to
//! the pre-trace behavior.
//!
//! Two sinks ship with the crate:
//!
//! - [`TraceAggregator`] — running tables: a per-core *cycle
//!   attribution* (every cycle of every core classified as compute, one
//!   of the [`StallReason`]s, or idle — the decomposition sums exactly
//!   to the run's cycle count) and per-queue communication counters
//!   (produces, consumes, deferred consumes, occupancy high-water
//!   mark).
//! - [`ChromeTraceSink`] — emits Chrome-trace-format JSON (the
//!   `chrome://tracing` / Perfetto interchange format): one track per
//!   core carrying compute/stall spans, one counter track per active
//!   queue carrying its occupancy over time.
//!
//! Both read what a core did on a cycle off one private fold
//! (`CycleFold`), so the attribution's buckets are the summed lengths
//! of the spans the viewer draws.

use crate::core::{StallCycles, StallReason};
use crate::sim::SimResult;
use gmt_ir::InstrId;
use std::fmt::Write as _;

/// The *last-arrival edge* of an issued instruction: which predecessor
/// event determined its issue cycle. The engine derives it from the
/// stall (if any) recorded for the instruction on the cycles before it
/// issued — the constraint that was still unmet latest is the one that
/// set the issue time. [`crate::critpath::CritPathSink`] chains these
/// edges into the run's dynamic critical path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arrival {
    /// No recorded wait: the instruction issued as soon as the in-order
    /// front end reached it. Predecessor: the previous instruction
    /// issued on the same core.
    InOrder,
    /// The last-arriving source operand bound the issue cycle.
    Data {
        /// Per-core issue index of the instruction that wrote the
        /// last-arriving operand (`u64::MAX` when it was never written
        /// — a parameter — in which case the edge degrades to
        /// [`Arrival::InOrder`] semantics).
        writer: u64,
    },
    /// A `consume.sync` waited for the queue's front token to become
    /// visible — the matching produce bound the issue cycle.
    QueueVisible {
        /// The queue waited on.
        queue: u32,
    },
    /// A produce waited for queue space — the consume that freed the
    /// slot bound the issue cycle (backpressure).
    QueueSpace {
        /// The queue waited on.
        queue: u32,
    },
    /// The front end was refilling after a branch mispredict.
    Refill,
    /// A shared-resource stall bound the issue cycle: structural
    /// (FU/issue width), SA request ports, or the outstanding-load
    /// limit.
    Resource(StallReason),
}

/// One engine event. `cycle` is the cycle the event occurred on;
/// `core` is the issuing core's index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// An instruction issued on `core` (any kind, including the
    /// communication ops, which additionally raise a queue event).
    Issue {
        /// Cycle of issue.
        cycle: u64,
        /// Issuing core.
        core: usize,
        /// The original-program instruction (pre-decode id).
        src: InstrId,
        /// The last-arrival edge that determined this issue cycle.
        arrival: Arrival,
    },
    /// A `produce`/`produce.sync` put a value into `queue` (or handed
    /// it straight to a pending consume).
    Produce {
        /// Cycle of the produce.
        cycle: u64,
        /// Producing core.
        core: usize,
        /// Target queue.
        queue: u32,
        /// Entries in the queue after the operation.
        occupancy: usize,
    },
    /// A `consume`/`consume.sync` took a value from `queue` (or
    /// registered as pending when the queue was empty).
    Consume {
        /// Cycle of the consume.
        cycle: u64,
        /// Consuming core.
        core: usize,
        /// Source queue.
        queue: u32,
        /// Entries in the queue after the operation.
        occupancy: usize,
        /// Whether the queue was empty and the consume went pending
        /// (the register delivery happens later, on the matching
        /// produce).
        deferred: bool,
    },
    /// `core` could not issue its next instruction, for the same
    /// reason, on every cycle of `from..until`. A cycle the engine
    /// evaluated is the one-cycle span `now..now + 1`; the fast-forward
    /// follows it with one span over the window of dead ticks it skips.
    StallSpan {
        /// First stalled cycle (inclusive).
        from: u64,
        /// One past the last stalled cycle (exclusive; `until > from`).
        until: u64,
        /// Stalled core.
        core: usize,
        /// Why issue stopped.
        reason: StallReason,
        /// The queue involved, for [`StallReason::QueueFull`] and
        /// [`StallReason::QueueEmpty`]; `None` otherwise.
        queue: Option<u32>,
    },
    /// `core` retired its `ret` (`finished_at = cycle + 1`).
    Finish {
        /// Cycle the return issued.
        cycle: u64,
        /// Finishing core.
        core: usize,
    },
}

impl TraceEvent {
    /// The cycle the event occurred on (the first covered cycle for
    /// [`TraceEvent::StallSpan`]).
    pub fn cycle(&self) -> u64 {
        match *self {
            TraceEvent::Issue { cycle, .. }
            | TraceEvent::Produce { cycle, .. }
            | TraceEvent::Consume { cycle, .. }
            | TraceEvent::Finish { cycle, .. } => cycle,
            TraceEvent::StallSpan { from, .. } => from,
        }
    }
}

/// A consumer of engine events.
///
/// The engine calls [`TraceSink::event`] once per event, in cycle
/// order per core, and [`TraceSink::run_end`] exactly once after the
/// last core retires. Implementations must not assume global cycle
/// monotonicity across cores within a cycle (the engine rotates its
/// core-service order for SA-port fairness).
pub trait TraceSink {
    /// Compile-time switch: when `false` the engine emits no events at
    /// all and the whole tracing layer vanishes from the generated
    /// code. Leave `true` for real sinks.
    const ENABLED: bool = true;

    /// Receives one event.
    fn event(&mut self, ev: &TraceEvent);

    /// Called once, after the run completes, with the final cycle
    /// count (`SimResult::cycles`).
    fn run_end(&mut self, cycles: u64);
}

/// The disabled sink: `ENABLED = false`, every call a no-op. This is
/// what [`simulate`](crate::simulate) and
/// [`simulate_decoded_opts`](crate::simulate_decoded_opts) instantiate the
/// engine with.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoTrace;

impl TraceSink for NoTrace {
    const ENABLED: bool = false;

    #[inline(always)]
    fn event(&mut self, _ev: &TraceEvent) {}

    #[inline(always)]
    fn run_end(&mut self, _cycles: u64) {}
}

/// Where one core's cycles went: every cycle of the run is classified
/// as compute, one [`StallReason`], or idle, so [`CycleAttribution::total`]
/// equals the run's cycle count. This is the per-thread decomposition
/// needed to evaluate a COCO cut: cycles COCO can reclaim show up under
/// the queue-full / queue-empty / operand stalls, not `compute`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CycleAttribution {
    /// Cycles on which the core issued at least one instruction.
    pub compute: u64,
    /// Cycles on which issue was blocked, by what blocked it.
    pub stalls: StallCycles,
    /// Cycles after the core retired its `ret` (a finished core waits
    /// for its siblings).
    pub idle: u64,
}

impl CycleAttribution {
    /// Sum of all buckets; equals the run's cycle count.
    pub fn total(&self) -> u64 {
        self.compute + self.stalls.total() + self.idle
    }

    fn add(&mut self, class: CycleClass, cycles: u64) {
        match class {
            CycleClass::Compute => self.compute += cycles,
            CycleClass::Stalled(r) => self.stalls[r] += cycles,
        }
    }
}

/// Per-queue communication counters observed by a trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueTraceStats {
    /// Values produced into the queue.
    pub produces: u64,
    /// Values consumed from the queue.
    pub consumes: u64,
    /// Consumes that found the queue empty and went pending.
    pub deferred_consumes: u64,
    /// Produce attempts stalled on a full queue (cycles, not ops).
    pub full_stall_cycles: u64,
    /// `consume.sync` attempts stalled on an empty queue (cycles).
    pub empty_stall_cycles: u64,
    /// Occupancy high-water mark.
    pub max_occupancy: usize,
}

impl QueueTraceStats {
    /// Whether the queue saw any traffic or contention at all.
    pub fn is_active(&self) -> bool {
        self.produces + self.consumes + self.full_stall_cycles + self.empty_stall_cycles > 0
    }
}

/// Time-weighted occupancy distribution of one queue over the whole
/// run: on what fraction of the run's cycles did the queue hold ≤ N
/// entries. Unlike [`QueueTraceStats::max_occupancy`] (a high-water
/// mark of post-op occupancy, which may last zero cycles), these are
/// dwell-time percentiles — the numbers that say whether a depth-32
/// queue actually *used* its depth.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OccupancySummary {
    /// Smallest occupancy level at or below which the queue spent at
    /// least half the run's cycles.
    pub p50: usize,
    /// Smallest occupancy level at or below which the queue spent at
    /// least 95% of the run's cycles.
    pub p95: usize,
    /// Highest occupancy level the queue dwelled at for ≥ 1 cycle.
    pub max: usize,
}

/// Per-queue occupancy-over-time fold: dwell cycles per occupancy
/// level, updated on every queue event (occupancy only changes on
/// produce/consume, so the fold is exact — including under the
/// engine's stall fast-forward, which never skips across a queue op).
#[derive(Clone, Debug, Default)]
struct OccupancyFold {
    last: usize,
    since: u64,
    hist: Vec<u64>,
}

impl OccupancyFold {
    fn observe(&mut self, cycle: u64, occupancy: usize) {
        self.credit(cycle);
        self.last = occupancy;
        self.since = cycle;
    }

    fn credit(&mut self, until: u64) {
        let dwell = until.saturating_sub(self.since);
        if dwell > 0 {
            if self.hist.len() <= self.last {
                self.hist.resize(self.last + 1, 0);
            }
            self.hist[self.last] += dwell;
        }
    }

    fn summary(&self, cycles: u64) -> OccupancySummary {
        let total: u64 = self.hist.iter().sum::<u64>().max(cycles);
        let mut s = OccupancySummary::default();
        let mut cum = 0u64;
        let mut p50_done = false;
        let mut p95_done = false;
        for (level, &dwell) in self.hist.iter().enumerate() {
            cum += dwell;
            if dwell > 0 {
                s.max = level;
            }
            // Levels past the end of the histogram never occurred;
            // cycles before the first event dwell at level 0 and are
            // covered because `since` starts at 0.
            if !p50_done && cum * 2 >= total {
                s.p50 = level;
                p50_done = true;
            }
            if !p95_done && cum * 20 >= total * 19 {
                s.p95 = level;
                p95_done = true;
            }
        }
        s
    }
}

/// What one core did on one cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CycleClass {
    Compute,
    Stalled(StallReason),
}

/// The core-cycles an event classifies: `(core, from, until, class)`.
fn classified(ev: &TraceEvent) -> Option<(usize, u64, u64, CycleClass)> {
    match *ev {
        TraceEvent::Issue { cycle, core, .. } => Some((core, cycle, cycle + 1, CycleClass::Compute)),
        TraceEvent::StallSpan { from, until, core, reason, .. } => {
            Some((core, from, until, CycleClass::Stalled(reason)))
        }
        _ => None,
    }
}

/// One core's events folded into runs of consecutive same-class
/// cycles — the only code that decides a core-cycle's class. Issue
/// wins over stall (a core that issued three ops and then hit a
/// structural limit had a compute cycle, not a structural-stall one);
/// otherwise the first class recorded for a cycle stands — among
/// stalls, the reason that actually blocked the *next* instruction.
/// One run is open per core; `closed(from, until, class)` receives
/// each run once no later event can change it, so a sink that sums
/// run lengths and one that draws runs as spans cannot disagree.
#[derive(Clone, Copy, Debug, Default)]
struct CycleFold {
    open: Option<(u64, u64, CycleClass)>,
}

impl CycleFold {
    /// Classifies `from..until` (events arrive in cycle order per
    /// core; a cycle with no event belongs to no run).
    fn observe(
        &mut self,
        from: u64,
        until: u64,
        class: CycleClass,
        mut closed: impl FnMut(u64, u64, CycleClass),
    ) {
        let Some((start, end, open)) = self.open else {
            self.open = Some((from, until, class));
            return;
        };
        debug_assert!(start <= from, "events arrive in cycle order per core");
        if class == CycleClass::Compute && open != class && from + 1 == end {
            // Issue wins: the open run's last cycle, recorded as a
            // stall, issued after all.
            if start < from {
                closed(start, from, open);
            }
            self.open = Some((from, until, class));
            return;
        }
        // Cycles classified already keep their class.
        let from = from.max(end);
        if from >= until {
            return;
        }
        if class == open && from == end {
            self.open = Some((start, until, open));
        } else {
            closed(start, end, open);
            self.open = Some((from, until, class));
        }
    }

    /// Closes the open run at the end of the run.
    fn finish(&mut self, mut closed: impl FnMut(u64, u64, CycleClass)) {
        if let Some((start, end, class)) = self.open.take() {
            closed(start, end, class);
        }
    }
}

/// A [`TraceSink`] that folds the full event stream into summary
/// tables: [`CycleAttribution`] per core and [`QueueTraceStats`] per
/// queue. It stores no event, so its memory does not grow with the
/// run; [`TraceAggregator::dropped_events`] counts the events a log of
/// `ring_capacity` entries would have had to discard.
#[derive(Debug)]
pub struct TraceAggregator {
    capacity: usize,
    seen: u64,
    cores: Vec<(CycleFold, CycleAttribution)>,
    queues: Vec<QueueTraceStats>,
    occ: Vec<OccupancyFold>,
    cycles: u64,
    ended: bool,
    /// The first event naming a core or queue the tables were not
    /// sized for; [`check_attribution`] returns it.
    out_of_range: Option<String>,
}

impl TraceAggregator {
    /// An aggregator for `ncores` cores and `nqueues` queues whose
    /// [`TraceAggregator::dropped_events`] is counted against a log of
    /// `ring_capacity` raw events.
    pub fn new(ncores: usize, nqueues: usize, ring_capacity: usize) -> TraceAggregator {
        TraceAggregator {
            capacity: ring_capacity,
            seen: 0,
            cores: vec![Default::default(); ncores],
            queues: vec![QueueTraceStats::default(); nqueues],
            occ: vec![OccupancyFold::default(); nqueues],
            cycles: 0,
            ended: false,
            out_of_range: None,
        }
    }

    /// Events beyond the `ring_capacity` most recent ones (the summary
    /// tables still cover them).
    pub fn dropped_events(&self) -> u64 {
        self.seen.saturating_sub(self.capacity as u64)
    }

    /// Total cycles reported by [`TraceSink::run_end`].
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// The finished per-core cycle attributions. Call after the run;
    /// each attribution's [`CycleAttribution::total`] equals
    /// [`TraceAggregator::cycles`].
    pub fn core_attribution(&self) -> Vec<CycleAttribution> {
        assert!(self.ended, "core_attribution before run_end");
        self.cores.iter().map(|&(_, attr)| attr).collect()
    }

    /// The per-queue communication counters.
    pub fn queue_stats(&self) -> &[QueueTraceStats] {
        &self.queues
    }

    /// Time-weighted occupancy percentiles per queue. Call after the
    /// run (the final dwell is closed by [`TraceSink::run_end`]).
    pub fn queue_occupancy(&self) -> Vec<OccupancySummary> {
        assert!(self.ended, "queue_occupancy before run_end");
        self.occ.iter().map(|o| o.summary(self.cycles)).collect()
    }

    /// Remembers the first event the tables have no row for.
    #[cold]
    fn out_of_range(&mut self, what: &str, index: usize, built_for: usize) {
        if self.out_of_range.is_none() {
            self.out_of_range =
                Some(format!("event on {what} {index}: the aggregator was built for {built_for}"));
        }
    }

    /// The rows of `queue`, or the fault if there are none.
    fn queue(&mut self, queue: u32) -> Option<(&mut QueueTraceStats, &mut OccupancyFold)> {
        let (q, nqueues) = (queue as usize, self.queues.len());
        if q >= nqueues {
            self.out_of_range("queue", q, nqueues);
            return None;
        }
        Some((&mut self.queues[q], &mut self.occ[q]))
    }
}

impl TraceSink for TraceAggregator {
    fn event(&mut self, ev: &TraceEvent) {
        self.seen += 1;
        if let Some((core, from, until, class)) = classified(ev) {
            let ncores = self.cores.len();
            match self.cores.get_mut(core) {
                Some((fold, attr)) => fold.observe(from, until, class, |a, b, c| attr.add(c, b - a)),
                None => self.out_of_range("core", core, ncores),
            }
        }
        match *ev {
            TraceEvent::StallSpan { from, until, reason, queue: Some(q), .. } => {
                if let Some((qs, _)) = self.queue(q) {
                    match reason {
                        StallReason::QueueFull => qs.full_stall_cycles += until - from,
                        StallReason::QueueEmpty => qs.empty_stall_cycles += until - from,
                        _ => {}
                    }
                }
            }
            TraceEvent::Produce { cycle, queue, occupancy, .. } => {
                if let Some((qs, occ)) = self.queue(queue) {
                    qs.produces += 1;
                    qs.max_occupancy = qs.max_occupancy.max(occupancy);
                    occ.observe(cycle, occupancy);
                }
            }
            TraceEvent::Consume { cycle, queue, occupancy, deferred, .. } => {
                if let Some((qs, occ)) = self.queue(queue) {
                    qs.consumes += 1;
                    if deferred {
                        qs.deferred_consumes += 1;
                    }
                    qs.max_occupancy = qs.max_occupancy.max(occupancy);
                    occ.observe(cycle, occupancy);
                }
            }
            _ => {}
        }
    }

    fn run_end(&mut self, cycles: u64) {
        self.cycles = cycles;
        self.ended = true;
        for occ in &mut self.occ {
            occ.credit(cycles);
        }
        for (fold, attr) in &mut self.cores {
            fold.finish(|a, b, c| attr.add(c, b - a));
            // A finished core idles until the last sibling retires.
            attr.idle += cycles.saturating_sub(attr.total());
        }
    }
}

/// A [`TraceSink`] emitting [Chrome trace format] JSON: per-core
/// tracks of compute/stall spans (`"X"` complete events, one `pid` for
/// all cores) and per-queue occupancy counter tracks (`"C"` events,
/// a second `pid`). Load the file in `chrome://tracing` or
/// [Perfetto](https://ui.perfetto.dev).
///
/// Cycles map to microseconds (`ts`/`dur` are cycle numbers) — the
/// viewers have no "cycle" unit, so read `1 us = 1 cycle`.
///
/// Each run of consecutive same-class cycles (compute, or one stall
/// reason) is one span, so trace size is proportional to
/// state *changes*, not cycles. Queue counters are likewise emitted
/// only when occupancy changes, and only for queues that see traffic.
///
/// [Chrome trace format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
#[derive(Debug)]
pub struct ChromeTraceSink {
    cores: Vec<CycleFold>,
    queues: Vec<QueueCounter>,
    /// The JSON so far: the header and every event closed to date.
    /// Each event is written here once, straight from its fields.
    json: String,
    ended: bool,
}

#[derive(Clone, Copy, Debug, Default)]
struct QueueCounter {
    last_occupancy: Option<usize>,
    last_cycle: u64,
}

/// `pid` of the core tracks in the emitted trace.
pub const TRACE_PID_CORES: u32 = 1;
/// `pid` of the queue counter tracks in the emitted trace.
pub const TRACE_PID_QUEUES: u32 = 2;

impl ChromeTraceSink {
    /// A sink for `ncores` cores and `nqueues` queues.
    pub fn new(ncores: usize, nqueues: usize) -> ChromeTraceSink {
        ChromeTraceSink {
            cores: vec![CycleFold::default(); ncores],
            queues: vec![QueueCounter::default(); nqueues],
            json: String::from(JSON_HEADER),
            ended: false,
        }
    }

    /// The complete trace as a JSON string. Call after the run.
    pub fn into_json(self) -> String {
        assert!(self.ended, "into_json before run_end");
        self.json
    }
}

/// What the trace opens with; the events follow, comma-separated.
const JSON_HEADER: &str = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";

/// Appends one trace event, written by `body`, to the comma-separated
/// event list.
fn raw_event(json: &mut String, body: std::fmt::Arguments<'_>) {
    if json.len() > JSON_HEADER.len() {
        json.push(',');
    }
    json.push('\n');
    // Writing to a `String` cannot fail.
    let _ = json.write_fmt(body);
}

/// Appends one closed run of `core` as a complete (`"X"`) event.
fn span_event(json: &mut String, core: usize, from: u64, until: u64, class: CycleClass) {
    let name = match class {
        CycleClass::Compute => "compute",
        CycleClass::Stalled(r) => r.name(),
    };
    raw_event(
        json,
        format_args!(
            "{{\"name\":\"{name}\",\"ph\":\"X\",\"ts\":{from},\"dur\":{dur},\
             \"pid\":{pid},\"tid\":{core}}}",
            dur = until - from,
            pid = TRACE_PID_CORES,
        ),
    );
}

/// Appends one occupancy sample of `queue` as a counter (`"C"`) event.
fn counter_event(json: &mut String, queue: usize, cycle: u64, occupancy: usize) {
    raw_event(
        json,
        format_args!(
            "{{\"name\":\"q{queue}\",\"ph\":\"C\",\"ts\":{cycle},\"pid\":{pid},\
             \"tid\":{queue},\"args\":{{\"occupancy\":{occupancy}}}}}",
            pid = TRACE_PID_QUEUES,
        ),
    );
}

/// The row of `table` at `index`, grown with defaults to hold it: a
/// sink built for fewer cores or queues than the run uses draws the
/// extra tracks rather than indexing out of bounds.
fn row<T: Default>(table: &mut Vec<T>, index: usize) -> &mut T {
    if index >= table.len() {
        table.resize_with(index + 1, T::default);
    }
    &mut table[index]
}

impl TraceSink for ChromeTraceSink {
    fn event(&mut self, ev: &TraceEvent) {
        let json = &mut self.json;
        if let Some((core, from, until, class)) = classified(ev) {
            row(&mut self.cores, core)
                .observe(from, until, class, |a, b, c| span_event(json, core, a, b, c));
        }
        if let TraceEvent::Produce { cycle, queue, occupancy, .. }
        | TraceEvent::Consume { cycle, queue, occupancy, .. } = *ev
        {
            let q = queue as usize;
            let counter = row(&mut self.queues, q);
            if counter.last_occupancy != Some(occupancy) {
                // Emit a leading zero sample so the counter does
                // not interpolate from the start of time.
                if counter.last_occupancy.is_none() && cycle > 0 {
                    counter_event(json, q, 0, 0);
                }
                counter_event(json, q, cycle, occupancy);
                counter.last_occupancy = Some(occupancy);
                counter.last_cycle = cycle;
            }
        }
    }

    fn run_end(&mut self, cycles: u64) {
        let json = &mut self.json;
        for (core, fold) in self.cores.iter_mut().enumerate() {
            fold.finish(|a, b, c| span_event(json, core, a, b, c));
        }
        // Close each active counter at the end of the run so the last
        // plateau renders with its real width.
        for (q, counter) in self.queues.iter().enumerate() {
            if let Some(occ) = counter.last_occupancy {
                if counter.last_cycle < cycles {
                    counter_event(json, q, cycles, occ);
                }
            }
        }
        // Track-naming metadata, then the footer.
        for core in 0..self.cores.len() {
            raw_event(
                json,
                format_args!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{core},\
                     \"args\":{{\"name\":\"core {core}\"}}}}",
                    pid = TRACE_PID_CORES,
                ),
            );
        }
        for (pid, name) in [(TRACE_PID_CORES, "cores"), (TRACE_PID_QUEUES, "sa queues")] {
            raw_event(
                json,
                format_args!(
                    "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\
                     \"args\":{{\"name\":\"{name}\"}}}}"
                ),
            );
        }
        let _ = write!(json, "\n],\"otherData\":{{\"cycles\":{cycles}}}}}\n");
        self.ended = true;
    }
}

/// A pair of sinks driven from one engine run — aggregate *and* dump
/// Chrome JSON in a single pass.
impl<A: TraceSink, B: TraceSink> TraceSink for (A, B) {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    fn event(&mut self, ev: &TraceEvent) {
        if A::ENABLED {
            self.0.event(ev);
        }
        if B::ENABLED {
            self.1.event(ev);
        }
    }

    fn run_end(&mut self, cycles: u64) {
        if A::ENABLED {
            self.0.run_end(cycles);
        }
        if B::ENABLED {
            self.1.run_end(cycles);
        }
    }
}

/// A borrowed sink, so a caller's sink can sit inside a pair without
/// being moved in; a borrowed [`NoTrace`] stays compiled out.
impl<S: TraceSink + ?Sized> TraceSink for &mut S {
    const ENABLED: bool = S::ENABLED;

    fn event(&mut self, ev: &TraceEvent) {
        (**self).event(ev);
    }

    fn run_end(&mut self, cycles: u64) {
        (**self).run_end(cycles);
    }
}

/// Checks the tracing invariant on a finished aggregator against the
/// run it observed: every core's attribution sums to the run's cycle
/// count.
///
/// # Errors
///
/// Returns the first event that named a core or queue the aggregator
/// was not built for, or a description of the first core whose
/// decomposition does not sum to `result.cycles`.
pub fn check_attribution(agg: &TraceAggregator, result: &SimResult) -> Result<(), String> {
    if let Some(event) = &agg.out_of_range {
        return Err(event.clone());
    }
    for (i, attr) in agg.core_attribution().iter().enumerate() {
        if attr.total() != result.cycles {
            return Err(format!(
                "core {i}: attribution sums to {} but the run took {} cycles: {attr:?}",
                attr.total(),
                result.cycles
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn issue(cycle: u64, core: usize) -> TraceEvent {
        TraceEvent::Issue { cycle, core, src: InstrId(0), arrival: Arrival::InOrder }
    }

    /// A stalled cycle as the engine narrates it: a one-cycle span.
    fn stall_on(cycle: u64, core: usize, reason: StallReason, queue: Option<u32>) -> TraceEvent {
        TraceEvent::StallSpan { from: cycle, until: cycle + 1, core, reason, queue }
    }

    fn stall(cycle: u64, core: usize, reason: StallReason) -> TraceEvent {
        stall_on(cycle, core, reason, None)
    }

    #[test]
    fn attribution_sums_to_cycles() {
        let mut agg = TraceAggregator::new(2, 1, 16);
        // Core 0: compute, operand stall, compute, finish at 3.
        agg.event(&issue(0, 0));
        agg.event(&stall(1, 0, StallReason::Operand));
        agg.event(&issue(2, 0));
        agg.event(&TraceEvent::Finish { cycle: 2, core: 0 });
        // Core 1: queue-empty stalls all the way, finishes at 5.
        for c in 0..4 {
            agg.event(&stall_on(c, 1, StallReason::QueueEmpty, Some(0)));
        }
        agg.event(&issue(4, 1));
        agg.run_end(5);
        let attr = agg.core_attribution();
        assert_eq!(attr[0].compute, 2);
        assert_eq!(attr[0].stalls[StallReason::Operand], 1);
        assert_eq!(attr[0].idle, 2);
        assert_eq!(attr[0].total(), 5);
        assert_eq!(attr[1].stalls[StallReason::QueueEmpty], 4);
        assert_eq!(attr[1].compute, 1);
        assert_eq!(attr[1].total(), 5);
        assert_eq!(agg.queue_stats()[0].empty_stall_cycles, 4);
    }

    #[test]
    fn issue_wins_over_stall_within_a_cycle() {
        let mut agg = TraceAggregator::new(1, 0, 16);
        // Issue then structural stall on the same cycle: compute.
        agg.event(&issue(0, 0));
        agg.event(&stall(0, 0, StallReason::Structural));
        // Stall arriving before an issue on the same cycle cannot
        // happen in the engine (a stall ends the issue group), but the
        // fold is defensive: issue still wins.
        agg.event(&stall(1, 0, StallReason::Operand));
        agg.event(&issue(1, 0));
        agg.run_end(2);
        let attr = agg.core_attribution();
        assert_eq!(attr[0].compute, 2);
        assert_eq!(attr[0].total(), 2);
    }

    #[test]
    fn ring_buffer_drops_oldest() {
        let mut agg = TraceAggregator::new(1, 0, 2);
        agg.event(&issue(0, 0));
        agg.event(&issue(1, 0));
        agg.event(&issue(2, 0));
        agg.run_end(3);
        assert_eq!(agg.dropped_events(), 1);
        assert_eq!(agg.core_attribution()[0].compute, 3, "summary covers dropped events");
    }

    #[test]
    fn aggregator_reports_an_event_outside_its_tables() {
        // Built for one core and one queue, fed queue 5 and core 3.
        let result = |cycles| SimResult {
            cycles,
            cores: Vec::new(),
            output: Vec::new(),
            return_value: None,
            hits_l1: 0,
            hits_l2: 0,
            hits_l3: 0,
            hits_mem: 0,
            engine_steps: cycles,
            skipped_cycles: 0,
        };
        let mut agg = TraceAggregator::new(1, 1, 8);
        agg.event(&issue(0, 0));
        agg.event(&TraceEvent::Produce { cycle: 0, core: 0, queue: 5, occupancy: 1 });
        agg.event(&stall_on(1, 3, StallReason::QueueFull, Some(7)));
        agg.run_end(2);
        let err = check_attribution(&agg, &result(2)).unwrap_err();
        assert!(err.contains("queue 5") && err.contains("built for 1"), "the first one: {err}");
        assert_eq!(agg.core_attribution()[0].total(), 2, "in-range events still counted");

        let mut agg = TraceAggregator::new(1, 1, 8);
        agg.event(&issue(0, 3));
        agg.run_end(1);
        let err = check_attribution(&agg, &result(1)).unwrap_err();
        assert!(err.contains("core 3"), "{err}");
    }

    #[test]
    fn chrome_sink_grows_to_the_run_it_sees() {
        let mut sink = ChromeTraceSink::new(1, 1);
        sink.event(&issue(0, 2));
        sink.event(&TraceEvent::Produce { cycle: 1, core: 2, queue: 5, occupancy: 1 });
        sink.run_end(2);
        let json = sink.into_json();
        assert!(json.contains("\"name\":\"compute\",\"ph\":\"X\",\"ts\":0,\"dur\":1,\"pid\":1,\"tid\":2"), "{json}");
        assert!(json.contains("\"name\":\"q5\""), "{json}");
        assert!(json.contains("\"args\":{\"name\":\"core 2\"}"), "the grown track is named: {json}");
    }

    #[test]
    fn queue_stats_track_occupancy_and_deferral() {
        let mut agg = TraceAggregator::new(1, 2, 16);
        agg.event(&TraceEvent::Produce { cycle: 0, core: 0, queue: 1, occupancy: 1 });
        agg.event(&TraceEvent::Produce { cycle: 1, core: 0, queue: 1, occupancy: 2 });
        agg.event(&TraceEvent::Consume { cycle: 2, core: 0, queue: 1, occupancy: 1, deferred: false });
        agg.event(&TraceEvent::Consume { cycle: 3, core: 0, queue: 0, occupancy: 0, deferred: true });
        agg.run_end(4);
        let q1 = agg.queue_stats()[1];
        assert_eq!(q1.produces, 2);
        assert_eq!(q1.consumes, 1);
        assert_eq!(q1.max_occupancy, 2);
        assert_eq!(q1.deferred_consumes, 0);
        let q0 = agg.queue_stats()[0];
        assert_eq!(q0.consumes, 1);
        assert_eq!(q0.deferred_consumes, 1);
    }

    #[test]
    fn occupancy_summary_is_time_weighted() {
        let mut agg = TraceAggregator::new(1, 2, 16);
        // Queue 0: empty for 10 cycles, at 1 for 85, at 2 for 5.
        agg.event(&TraceEvent::Produce { cycle: 10, core: 0, queue: 0, occupancy: 1 });
        agg.event(&TraceEvent::Produce { cycle: 95, core: 0, queue: 0, occupancy: 2 });
        agg.run_end(100);
        let occ = agg.queue_occupancy();
        assert_eq!(occ[0], OccupancySummary { p50: 1, p95: 1, max: 2 });
        // Queue 1 saw no events: level 0 for the whole run.
        assert_eq!(occ[1], OccupancySummary { p50: 0, p95: 0, max: 0 });
    }

    #[test]
    fn occupancy_max_is_dwell_based() {
        // A produce immediately consumed the same cycle dwells zero
        // cycles at level 1: the high-water mark sees it, the
        // dwell-time summary does not.
        let mut agg = TraceAggregator::new(1, 1, 16);
        agg.event(&TraceEvent::Produce { cycle: 3, core: 0, queue: 0, occupancy: 1 });
        agg.event(&TraceEvent::Consume { cycle: 3, core: 0, queue: 0, occupancy: 0, deferred: false });
        agg.run_end(8);
        assert_eq!(agg.queue_stats()[0].max_occupancy, 1);
        assert_eq!(agg.queue_occupancy()[0], OccupancySummary { p50: 0, p95: 0, max: 0 });
    }

    #[test]
    fn chrome_sink_emits_valid_shape() {
        let mut sink = ChromeTraceSink::new(1, 1);
        sink.event(&issue(0, 0));
        sink.event(&issue(1, 0));
        sink.event(&stall(2, 0, StallReason::QueueFull));
        sink.event(&TraceEvent::Produce { cycle: 3, core: 0, queue: 0, occupancy: 1 });
        sink.event(&issue(3, 0));
        sink.run_end(4);
        let json = sink.into_json();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"name\":\"compute\""));
        assert!(json.contains("\"name\":\"queue-full\""));
        assert!(json.contains("\"name\":\"q0\""));
        assert!(json.contains("\"occupancy\":1"));
        assert!(json.contains("\"cycles\":4"));
        // Spans fold: the two leading compute cycles are one event.
        assert_eq!(json.matches("\"name\":\"compute\"").count(), 2, "folded spans");
        // Balanced braces — cheap structural sanity without a JSON
        // parser in-tree (ci.sh runs a real parser over the file).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn paired_sinks_both_observe() {
        let mut pair = (TraceAggregator::new(1, 0, 4), ChromeTraceSink::new(1, 0));
        pair.event(&issue(0, 0));
        pair.run_end(1);
        assert_eq!(pair.0.core_attribution()[0].compute, 1);
        assert!(pair.1.into_json().contains("compute"));
    }

    /// A borrowed sink observes what it would owned, and a borrowed
    /// `NoTrace` stays switched off inside a pair.
    #[test]
    fn borrowed_sinks_forward_events_and_the_switch() {
        let mut chrome = ChromeTraceSink::new(1, 0);
        let mut pair = (TraceAggregator::new(1, 0, 4), &mut chrome);
        pair.event(&issue(0, 0));
        pair.run_end(1);
        assert!(chrome.into_json().contains("compute"));
        assert!(!<(NoTrace, &mut NoTrace) as TraceSink>::ENABLED);
        assert!(<(NoTrace, &mut ChromeTraceSink) as TraceSink>::ENABLED);
    }

    fn span(from: u64, until: u64, reason: StallReason, queue: Option<u32>) -> TraceEvent {
        TraceEvent::StallSpan { from, until, core: 0, reason, queue }
    }

    #[test]
    fn stall_span_attribution_matches_per_cycle() {
        // The engine's fast-forward shape — one per-cycle stall, then a
        // span over the skipped window — must aggregate exactly like
        // ticking every cycle.
        let mut a = TraceAggregator::new(1, 1, 64);
        a.event(&issue(0, 0));
        for c in 1..6 {
            a.event(&stall_on(c, 0, StallReason::QueueEmpty, Some(0)));
        }
        a.event(&issue(6, 0));
        a.run_end(8);

        let mut b = TraceAggregator::new(1, 1, 64);
        b.event(&issue(0, 0));
        b.event(&stall_on(1, 0, StallReason::QueueEmpty, Some(0)));
        b.event(&span(2, 6, StallReason::QueueEmpty, Some(0)));
        b.event(&issue(6, 0));
        b.run_end(8);

        assert_eq!(a.core_attribution(), b.core_attribution());
        assert_eq!(a.queue_stats(), b.queue_stats());
        assert_eq!(b.core_attribution()[0].stalls[StallReason::QueueEmpty], 5);
        assert_eq!(b.core_attribution()[0].total(), 8);
        assert_eq!(b.queue_stats()[0].empty_stall_cycles, 5);
    }

    #[test]
    fn stall_span_with_no_open_cycle_commits_directly() {
        let mut agg = TraceAggregator::new(1, 0, 4);
        agg.event(&span(0, 3, StallReason::Mispredict, None));
        agg.event(&issue(3, 0));
        agg.run_end(4);
        let attr = agg.core_attribution()[0];
        assert_eq!(attr.stalls[StallReason::Mispredict], 3);
        assert_eq!(attr.compute, 1);
        assert_eq!(attr.total(), 4);
    }

    #[test]
    fn chrome_span_folding_is_byte_identical_to_per_cycle() {
        let mut a = ChromeTraceSink::new(1, 0);
        a.event(&issue(0, 0));
        for c in 1..6 {
            a.event(&stall(c, 0, StallReason::Operand));
        }
        a.event(&issue(6, 0));
        a.run_end(7);

        let mut b = ChromeTraceSink::new(1, 0);
        b.event(&issue(0, 0));
        b.event(&stall(1, 0, StallReason::Operand));
        b.event(&span(2, 6, StallReason::Operand, None));
        b.event(&issue(6, 0));
        b.run_end(7);

        assert_eq!(a.into_json(), b.into_json(), "span must merge into the open stall span");
    }

    #[test]
    fn chrome_span_after_compute_flushes_previous_span() {
        // Defensive: a span arriving without a preceding same-class
        // stall still renders correctly (flush + new span).
        let mut sink = ChromeTraceSink::new(1, 0);
        sink.event(&issue(0, 0));
        sink.event(&span(1, 4, StallReason::QueueFull, Some(0)));
        sink.run_end(4);
        let json = sink.into_json();
        assert!(json.contains("\"name\":\"compute\",\"ph\":\"X\",\"ts\":0,\"dur\":1"), "{json}");
        assert!(json.contains("\"name\":\"queue-full\",\"ph\":\"X\",\"ts\":1,\"dur\":3"), "{json}");
    }

    // ---- the fold against a per-cycle reference (property) ----

    /// One step of a generated stream: `(core, shape, length, reason)`.
    type Step = (u8, u8, u8, u8);
    const CORES: usize = 3;

    fn steps() -> gmt_testkit::Gen<Vec<Step>> {
        use gmt_testkit::ranged;
        let step = ranged(0u8, CORES as u8)
            .zip(ranged(0u8, 7))
            .zip(ranged(1u8, 6).zip(ranged(0u8, StallReason::ALL.len() as u8)))
            .map(|((core, shape), (len, reason))| (core, shape, len, reason));
        gmt_testkit::vec_of(step, 0, 40)
    }

    /// Expands steps into the interleaved event stream of `CORES`
    /// cores, each in cycle order, and the run's length. Every shape
    /// the fold distinguishes occurs: issue then stall and stall then
    /// issue within a cycle, multi-issue, multi-cycle spans, a span
    /// starting on a cycle that is classified already, an issue on the
    /// last cycle of a span, and cycles with no event at all.
    fn narrate(steps: &[Step]) -> (Vec<TraceEvent>, u64) {
        let mut now = [0u64; CORES];
        let mut events = Vec::new();
        for &(core, shape, len, reason) in steps {
            let (core, len) = (core as usize, u64::from(len).max(1)); // shrinking reaches 0
            let reason = StallReason::ALL[reason as usize];
            let at = now[core];
            let stalled = |from, until| TraceEvent::StallSpan { from, until, core, reason, queue: None };
            now[core] += match shape {
                0 => {
                    events.extend([issue(at, core), issue(at, core)]);
                    1
                }
                1 => {
                    events.extend([issue(at, core), stalled(at, at + 1)]);
                    1
                }
                2 => {
                    events.extend([stalled(at, at + 1), issue(at, core)]);
                    1
                }
                3 => {
                    events.push(stalled(at, at + len));
                    len
                }
                4 => len, // nothing happens
                5 => {
                    events.push(stalled(at.saturating_sub(1), at + len));
                    len
                }
                _ => {
                    events.extend([stalled(at, at + len), issue(at + len - 1, core)]);
                    len
                }
            };
        }
        (events, now.into_iter().max().unwrap_or(0))
    }

    /// The naive reference: one slot per core-cycle, written event by
    /// event. An issue takes the slot; a stall only an empty one.
    fn per_cycle(events: &[TraceEvent], cycles: u64) -> Vec<Vec<Option<CycleClass>>> {
        let mut grid = vec![vec![None; cycles as usize]; CORES];
        for ev in events {
            match *ev {
                TraceEvent::Issue { cycle, core, .. } => {
                    grid[core][cycle as usize] = Some(CycleClass::Compute);
                }
                TraceEvent::StallSpan { from, until, core, reason, .. } => {
                    for slot in &mut grid[core][from as usize..until as usize] {
                        slot.get_or_insert(CycleClass::Stalled(reason));
                    }
                }
                _ => {}
            }
        }
        grid
    }

    /// Both sinks, fed `fed`, against the reference's reading of
    /// `events`: the aggregator's buckets and the summed durations of
    /// the Chrome spans, per core and class, and every core's total.
    fn sinks_agree(fed: &[TraceEvent], events: &[TraceEvent], cycles: u64) -> gmt_testkit::PropResult {
        use gmt_testkit::prop_assert_eq;
        let mut sinks = (TraceAggregator::new(CORES, 0, 8), ChromeTraceSink::new(CORES, 0));
        for ev in fed {
            sinks.event(ev);
        }
        sinks.run_end(cycles);
        let mut want = vec![CycleAttribution::default(); CORES];
        for (attr, row) in want.iter_mut().zip(per_cycle(events, cycles)) {
            for slot in row {
                match slot {
                    Some(class) => attr.add(class, 1),
                    None => attr.idle += 1,
                }
            }
        }
        let buckets = sinks.0.core_attribution();
        prop_assert_eq!(buckets, want, "aggregator buckets");
        for attr in &buckets {
            prop_assert_eq!(attr.total(), cycles, "a core's buckets cover the run");
        }
        let mut drawn = vec![CycleAttribution::default(); CORES];
        let json = sinks.1.into_json();
        for span in json.lines().filter(|l| l.contains("\"ph\":\"X\"")) {
            let field = |key: &str| {
                let rest = &span[span.find(key).expect("field") + key.len()..];
                &rest[..rest.find([',', '"', '}']).expect("field end")]
            };
            let name = field("\"name\":\"");
            let class = StallReason::ALL
                .into_iter()
                .find(|r| r.name() == name)
                .map_or(CycleClass::Compute, CycleClass::Stalled);
            let core: usize = field("\"tid\":").parse().expect("tid");
            drawn[core].add(class, field("\"dur\":").parse().expect("dur"));
        }
        for (attr, want) in drawn.iter_mut().zip(&want) {
            attr.idle = want.idle; // idle cycles are drawn as no span
        }
        prop_assert_eq!(drawn, want, "summed Chrome span durations");
        Ok(())
    }

    #[test]
    fn sinks_agree_with_a_per_cycle_reference() {
        gmt_testkit::Checker::new("trace::sinks_agree_with_a_per_cycle_reference").cases(300).run(
            &steps(),
            |steps| {
                let (events, cycles) = narrate(steps);
                sinks_agree(&events, &events, cycles)
            },
        );
    }

    /// The property above can fail: without the issue-wins rule the
    /// fold would discard an issue that lands on a cycle it has
    /// recorded as a stall, like any other late-comer. Feeding the
    /// sinks the stream minus exactly those issues is that fold, and
    /// the reference tells the two apart.
    #[test]
    fn dropping_the_issue_wins_rule_is_caught() {
        let caught = (0..300u64)
            .filter(|&seed| {
                let steps = steps().sample(&mut gmt_testkit::TestRng::new(seed));
                let (events, cycles) = narrate(&steps);
                let mut seen = Vec::new();
                let mut fed = events.clone();
                fed.retain(|ev| {
                    let lost = matches!(*ev, TraceEvent::Issue { cycle, core, .. }
                        if matches!(per_cycle(&seen, cycles)[core][cycle as usize], Some(CycleClass::Stalled(_))));
                    seen.push(*ev);
                    !lost
                });
                fed.len() < events.len() && sinks_agree(&fed, &events, cycles).is_err()
            })
            .count();
        assert!(caught > 50, "only {caught} of 300 streams tell the mutant from the fold");
    }

    #[test]
    fn no_trace_is_disabled() {
        assert!(!NoTrace::ENABLED);
        assert!(TraceAggregator::ENABLED);
        assert!(!<(NoTrace, NoTrace) as TraceSink>::ENABLED);
        assert!(<(NoTrace, TraceAggregator) as TraceSink>::ENABLED);
    }
}
