//! Cycle-level structured tracing of the decoded engine.
//!
//! The paper's evaluation is an argument about *where cycles go*:
//! communication instructions, queue-full/queue-empty stalls, and the
//! synchronization-array interconnect. End-of-run [`CoreStats`]
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
//! before this module existed — the CI golden-figure diff and the
//! `exec_throughput` bench hold that path to the pre-trace behavior.
//!
//! Two sinks ship with the crate:
//!
//! - [`TraceAggregator`] — a bounded ring buffer of recent events plus
//!   running tables: a per-core *cycle attribution* (every cycle of
//!   every core classified as compute, one of the [`StallReason`]s, or
//!   idle — the decomposition sums exactly to the run's cycle count)
//!   and per-queue communication counters (produces, consumes,
//!   deferred consumes, occupancy high-water mark).
//! - [`ChromeTraceSink`] — emits Chrome-trace-format JSON (the
//!   `chrome://tracing` / Perfetto interchange format): one track per
//!   core carrying compute/stall spans, one counter track per active
//!   queue carrying its occupancy over time.

use crate::core::StallReason;
use crate::sim::SimResult;
use gmt_ir::InstrId;
use std::collections::VecDeque;
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
    /// `core` could not issue its next instruction this cycle.
    Stall {
        /// Cycle of the stall.
        cycle: u64,
        /// Stalled core.
        core: usize,
        /// Why issue stopped.
        reason: StallReason,
        /// The queue involved, for [`StallReason::QueueFull`] and
        /// [`StallReason::QueueEmpty`]; `None` otherwise.
        queue: Option<u32>,
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
    /// `core` stalled for the same reason on every cycle of
    /// `from..until` — the event-driven engine's batched form of
    /// [`TraceEvent::Stall`], emitted when the fast-forward skips a
    /// window of dead ticks. The engine emits a per-cycle `Stall` for
    /// the cycle it actually evaluated, then one `StallSpan` covering
    /// the skipped cycles, so `from` always follows a `Stall` of the
    /// same core and reason at `from - 1`.
    StallSpan {
        /// First skipped cycle (inclusive).
        from: u64,
        /// One past the last skipped cycle (exclusive; `until > from`).
        until: u64,
        /// Stalled core.
        core: usize,
        /// Why issue stayed blocked across the whole window.
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
            | TraceEvent::Stall { cycle, .. }
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
/// as exactly one of these buckets, so the fields sum to the run's
/// total cycle count. This is the per-thread decomposition needed to
/// evaluate a COCO cut: cycles COCO can reclaim show up under
/// `queue_full`/`queue_empty`/`operand`, not `compute`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CycleAttribution {
    /// Cycles on which the core issued at least one instruction.
    pub compute: u64,
    /// Issue blocked on an unready source operand.
    pub operand: u64,
    /// Issue blocked on an exhausted FU or issue slot.
    pub structural: u64,
    /// Issue blocked on the shared SA request ports.
    pub sa_port: u64,
    /// Issue blocked on a full queue (produce backpressure).
    pub queue_full: u64,
    /// Issue blocked waiting for a `consume.sync` token.
    pub queue_empty: u64,
    /// Issue blocked on the outstanding-load limit.
    pub load_limit: u64,
    /// Front end refilling after a branch mispredict.
    pub mispredict: u64,
    /// Cycles after the core retired its `ret` (a finished core waits
    /// for its siblings).
    pub idle: u64,
}

impl CycleAttribution {
    /// Sum of all buckets; equals the run's cycle count.
    pub fn total(&self) -> u64 {
        self.compute
            + self.operand
            + self.structural
            + self.sa_port
            + self.queue_full
            + self.queue_empty
            + self.load_limit
            + self.mispredict
            + self.idle
    }

    /// All stall buckets (everything but `compute` and `idle`).
    pub fn stalled(&self) -> u64 {
        self.total() - self.compute - self.idle
    }

    fn bucket(&mut self, r: StallReason) -> &mut u64 {
        match r {
            StallReason::Operand => &mut self.operand,
            StallReason::Structural => &mut self.structural,
            StallReason::SaPort => &mut self.sa_port,
            StallReason::QueueFull => &mut self.queue_full,
            StallReason::QueueEmpty => &mut self.queue_empty,
            StallReason::LoadLimit => &mut self.load_limit,
            StallReason::Mispredict => &mut self.mispredict,
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

/// What one core did on one cycle, folded from that cycle's events.
/// Issue wins over stall (a core that issued three ops and then hit a
/// structural limit had a compute cycle, not a structural-stall one);
/// among stalls the first recorded reason — the one that actually
/// blocked the *next* instruction — wins.
#[derive(Clone, Copy, Debug)]
enum CycleClass {
    Compute,
    Stalled(StallReason),
}

/// A [`TraceSink`] that keeps a bounded ring buffer of the most recent
/// events and folds the full stream into summary tables:
/// [`CycleAttribution`] per core and [`QueueTraceStats`] per queue.
///
/// The ring buffer bounds memory on arbitrarily long runs — when full,
/// the oldest event is dropped ([`TraceAggregator::dropped_events`]
/// counts how many). The summary tables always cover the *whole* run.
#[derive(Debug)]
pub struct TraceAggregator {
    ring: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
    cores: Vec<CycleAttributionFold>,
    queues: Vec<QueueTraceStats>,
    occ: Vec<OccupancyFold>,
    cycles: u64,
    ended: bool,
}

#[derive(Debug)]
struct CycleAttributionFold {
    attr: CycleAttribution,
    cur: Option<(u64, CycleClass)>,
    finished_at: Option<u64>,
}

impl TraceAggregator {
    /// An aggregator for `ncores` cores and `nqueues` queues keeping at
    /// most `ring_capacity` raw events.
    pub fn new(ncores: usize, nqueues: usize, ring_capacity: usize) -> TraceAggregator {
        TraceAggregator {
            ring: VecDeque::with_capacity(ring_capacity.min(1 << 16)),
            capacity: ring_capacity,
            dropped: 0,
            cores: (0..ncores)
                .map(|_| CycleAttributionFold {
                    attr: CycleAttribution::default(),
                    cur: None,
                    finished_at: None,
                })
                .collect(),
            queues: vec![QueueTraceStats::default(); nqueues],
            occ: vec![OccupancyFold::default(); nqueues],
            cycles: 0,
            ended: false,
        }
    }

    /// The most recent events, oldest first (bounded by the ring
    /// capacity).
    pub fn recent_events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.ring.iter()
    }

    /// Events discarded from the ring because the run outgrew it (the
    /// summary tables still cover them).
    pub fn dropped_events(&self) -> u64 {
        self.dropped
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
        self.cores.iter().map(|c| c.attr).collect()
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

    fn push_ring(&mut self, ev: &TraceEvent) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.ring.len() >= self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(*ev);
    }

    fn fold_core(&mut self, core: usize, cycle: u64, class: CycleClass) {
        let fold = &mut self.cores[core];
        match fold.cur {
            None => fold.cur = Some((cycle, class)),
            Some((c, prev)) if c == cycle => {
                // Issue wins over stall; first stall reason wins
                // among stalls.
                if matches!(prev, CycleClass::Stalled(_))
                    && matches!(class, CycleClass::Compute)
                {
                    fold.cur = Some((c, class));
                }
            }
            Some((c, prev)) => {
                debug_assert!(c < cycle, "events arrive in cycle order per core");
                Self::commit(&mut fold.attr, prev);
                fold.cur = Some((cycle, class));
            }
        }
    }

    fn commit(attr: &mut CycleAttribution, class: CycleClass) {
        Self::commit_n(attr, class, 1);
    }

    fn commit_n(attr: &mut CycleAttribution, class: CycleClass, n: u64) {
        match class {
            CycleClass::Compute => attr.compute += n,
            CycleClass::Stalled(r) => *attr.bucket(r) += n,
        }
    }

    /// Batched form of [`TraceAggregator::fold_core`] for a
    /// [`TraceEvent::StallSpan`]: the span's cycles are all one class
    /// and can never be reclassified (the engine evaluated nothing on
    /// them), so they commit directly. Any cycle still pending in `cur`
    /// precedes the span and commits first.
    fn fold_core_span(&mut self, core: usize, from: u64, until: u64, class: CycleClass) {
        let fold = &mut self.cores[core];
        if let Some((c, prev)) = fold.cur.take() {
            debug_assert!(c < from, "span starts after the committed cycles");
            Self::commit(&mut fold.attr, prev);
        }
        Self::commit_n(&mut fold.attr, class, until.saturating_sub(from));
    }
}

impl TraceSink for TraceAggregator {
    fn event(&mut self, ev: &TraceEvent) {
        self.push_ring(ev);
        match *ev {
            TraceEvent::Issue { cycle, core, .. } => {
                self.fold_core(core, cycle, CycleClass::Compute);
            }
            TraceEvent::Stall { cycle, core, reason, queue } => {
                self.fold_core(core, cycle, CycleClass::Stalled(reason));
                if let Some(q) = queue {
                    let qs = &mut self.queues[q as usize];
                    match reason {
                        StallReason::QueueFull => qs.full_stall_cycles += 1,
                        StallReason::QueueEmpty => qs.empty_stall_cycles += 1,
                        _ => {}
                    }
                }
            }
            TraceEvent::StallSpan { from, until, core, reason, queue } => {
                self.fold_core_span(core, from, until, CycleClass::Stalled(reason));
                if let Some(q) = queue {
                    let n = until.saturating_sub(from);
                    let qs = &mut self.queues[q as usize];
                    match reason {
                        StallReason::QueueFull => qs.full_stall_cycles += n,
                        StallReason::QueueEmpty => qs.empty_stall_cycles += n,
                        _ => {}
                    }
                }
            }
            TraceEvent::Produce { cycle, queue, occupancy, .. } => {
                let qs = &mut self.queues[queue as usize];
                qs.produces += 1;
                qs.max_occupancy = qs.max_occupancy.max(occupancy);
                self.occ[queue as usize].observe(cycle, occupancy);
            }
            TraceEvent::Consume { cycle, queue, occupancy, deferred, .. } => {
                let qs = &mut self.queues[queue as usize];
                qs.consumes += 1;
                if deferred {
                    qs.deferred_consumes += 1;
                }
                qs.max_occupancy = qs.max_occupancy.max(occupancy);
                self.occ[queue as usize].observe(cycle, occupancy);
            }
            TraceEvent::Finish { cycle, core } => {
                self.cores[core].finished_at = Some(cycle + 1);
            }
        }
    }

    fn run_end(&mut self, cycles: u64) {
        self.cycles = cycles;
        self.ended = true;
        for occ in &mut self.occ {
            occ.credit(cycles);
        }
        for fold in &mut self.cores {
            if let Some((_, class)) = fold.cur.take() {
                Self::commit(&mut fold.attr, class);
            }
            // A finished core idles until the last sibling retires; a
            // core that never finished (impossible on a completed run)
            // would under-attribute, caught by the total() invariant.
            let attributed = fold.attr.total();
            fold.attr.idle += cycles.saturating_sub(attributed);
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
/// Spans are folded: consecutive cycles of the same class (compute, or
/// one stall reason) become one span, so trace size is proportional to
/// state *changes*, not cycles. Queue counters are likewise emitted
/// only when occupancy changes, and only for queues that see traffic.
///
/// [Chrome trace format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
#[derive(Debug)]
pub struct ChromeTraceSink {
    cores: Vec<SpanFold>,
    queues: Vec<QueueCounter>,
    events: String,
    first: bool,
    cycles: u64,
    ended: bool,
}

#[derive(Clone, Copy, Debug)]
struct SpanFold {
    start: u64,
    last: u64,
    class: Option<CycleClass>,
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
            cores: vec![SpanFold { start: 0, last: 0, class: None }; ncores],
            queues: vec![QueueCounter::default(); nqueues],
            events: String::new(),
            first: true,
            cycles: 0,
            ended: false,
        }
    }

    fn raw_event(&mut self, body: &str) {
        if !self.first {
            self.events.push(',');
        }
        self.first = false;
        self.events.push('\n');
        self.events.push_str(body);
    }

    fn span_event(&mut self, core: usize, start: u64, end_exclusive: u64, class: CycleClass) {
        let name = match class {
            CycleClass::Compute => "compute",
            CycleClass::Stalled(r) => r.name(),
        };
        let body = format!(
            "{{\"name\":\"{name}\",\"ph\":\"X\",\"ts\":{start},\"dur\":{dur},\
             \"pid\":{pid},\"tid\":{core}}}",
            dur = end_exclusive - start,
            pid = TRACE_PID_CORES,
        );
        self.raw_event(&body);
    }

    fn counter_event(&mut self, queue: usize, cycle: u64, occupancy: usize) {
        let body = format!(
            "{{\"name\":\"q{queue}\",\"ph\":\"C\",\"ts\":{cycle},\"pid\":{pid},\
             \"tid\":{queue},\"args\":{{\"occupancy\":{occupancy}}}}}",
            pid = TRACE_PID_QUEUES,
        );
        self.raw_event(&body);
    }

    fn fold_core(&mut self, core: usize, cycle: u64, class: CycleClass) {
        let fold = self.cores[core];
        match fold.class {
            Some(prev) if same_class(prev, class) && cycle <= fold.last + 1 => {
                self.cores[core].last = cycle;
            }
            Some(prev) => {
                // Class changed, or a gap (issue-priority fold: a
                // compute event may overwrite a stall on the same
                // cycle — handled below).
                if cycle == fold.last
                    && matches!(prev, CycleClass::Stalled(_))
                    && matches!(class, CycleClass::Compute)
                {
                    // Same cycle reclassified: issue wins. Shrink the
                    // stall span by one cycle (dropping it if empty)
                    // and start/extend a compute span.
                    if fold.start < fold.last {
                        self.span_event(core, fold.start, fold.last, prev);
                    }
                    self.cores[core] = SpanFold { start: cycle, last: cycle, class: Some(class) };
                    return;
                }
                if cycle == fold.last {
                    // Stall event on a cycle already classified
                    // (compute first, or an earlier stall): keep the
                    // first classification.
                    return;
                }
                self.span_event(core, fold.start, fold.last + 1, prev);
                self.cores[core] = SpanFold { start: cycle, last: cycle, class: Some(class) };
            }
            None => {
                self.cores[core] = SpanFold { start: cycle, last: cycle, class: Some(class) };
            }
        }
    }

    /// Range form of [`ChromeTraceSink::fold_core`] for a
    /// [`TraceEvent::StallSpan`] covering `from..until`. The engine
    /// emits the span right after the per-cycle stall at `from - 1`, so
    /// the common case merges into the open span of the same class —
    /// the rendered JSON is byte-identical to per-cycle ticking.
    fn fold_core_span(&mut self, core: usize, from: u64, until: u64, class: CycleClass) {
        let fold = self.cores[core];
        match fold.class {
            Some(prev) if same_class(prev, class) && from <= fold.last + 1 => {
                self.cores[core].last = until - 1;
            }
            Some(prev) => {
                self.span_event(core, fold.start, fold.last + 1, prev);
                self.cores[core] = SpanFold { start: from, last: until - 1, class: Some(class) };
            }
            None => {
                self.cores[core] = SpanFold { start: from, last: until - 1, class: Some(class) };
            }
        }
    }

    /// The complete trace as a JSON string. Call after the run.
    pub fn into_json(mut self) -> String {
        assert!(self.ended, "into_json before run_end");
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        // Track-naming metadata.
        let ncores = self.cores.len();
        for core in 0..ncores {
            let body = format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{core},\
                 \"args\":{{\"name\":\"core {core}\"}}}}",
                pid = TRACE_PID_CORES,
            );
            self.raw_event(&body);
        }
        let body = format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\
             \"args\":{{\"name\":\"cores\"}}}}",
            pid = TRACE_PID_CORES,
        );
        self.raw_event(&body);
        let body = format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\
             \"args\":{{\"name\":\"sa queues\"}}}}",
            pid = TRACE_PID_QUEUES,
        );
        self.raw_event(&body);
        out.push_str(&self.events);
        let _ = write!(out, "\n],\"otherData\":{{\"cycles\":{}}}}}\n", self.cycles);
        out
    }
}

fn same_class(a: CycleClass, b: CycleClass) -> bool {
    match (a, b) {
        (CycleClass::Compute, CycleClass::Compute) => true,
        (CycleClass::Stalled(x), CycleClass::Stalled(y)) => x == y,
        _ => false,
    }
}

impl TraceSink for ChromeTraceSink {
    fn event(&mut self, ev: &TraceEvent) {
        match *ev {
            TraceEvent::Issue { cycle, core, .. } => {
                self.fold_core(core, cycle, CycleClass::Compute);
            }
            TraceEvent::Stall { cycle, core, reason, .. } => {
                self.fold_core(core, cycle, CycleClass::Stalled(reason));
            }
            TraceEvent::StallSpan { from, until, core, reason, .. } => {
                self.fold_core_span(core, from, until, CycleClass::Stalled(reason));
            }
            TraceEvent::Produce { cycle, queue, occupancy, .. }
            | TraceEvent::Consume { cycle, queue, occupancy, .. } => {
                let q = queue as usize;
                if self.queues[q].last_occupancy != Some(occupancy) {
                    // Emit a leading zero sample so the counter does
                    // not interpolate from the start of time.
                    if self.queues[q].last_occupancy.is_none() && cycle > 0 {
                        self.counter_event(q, 0, 0);
                    }
                    self.counter_event(q, cycle, occupancy);
                    self.queues[q].last_occupancy = Some(occupancy);
                    self.queues[q].last_cycle = cycle;
                }
            }
            TraceEvent::Finish { .. } => {}
        }
    }

    fn run_end(&mut self, cycles: u64) {
        self.cycles = cycles;
        for core in 0..self.cores.len() {
            if let Some(class) = self.cores[core].class.take() {
                let fold = self.cores[core];
                self.span_event(core, fold.start, fold.last + 1, class);
            }
        }
        // Close each active counter at the end of the run so the last
        // plateau renders with its real width.
        for q in 0..self.queues.len() {
            if let Some(occ) = self.queues[q].last_occupancy {
                if self.queues[q].last_cycle < cycles {
                    self.counter_event(q, cycles, occ);
                }
            }
        }
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

/// Checks the tracing invariant on a finished aggregator against the
/// run it observed: every core's attribution sums to the run's cycle
/// count.
///
/// # Errors
///
/// Returns a description of the first core whose decomposition does
/// not sum to `result.cycles`.
pub fn check_attribution(agg: &TraceAggregator, result: &SimResult) -> Result<(), String> {
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

    fn stall(cycle: u64, core: usize, reason: StallReason) -> TraceEvent {
        TraceEvent::Stall { cycle, core, reason, queue: None }
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
            agg.event(&TraceEvent::Stall {
                cycle: c,
                core: 1,
                reason: StallReason::QueueEmpty,
                queue: Some(0),
            });
        }
        agg.event(&issue(4, 1));
        agg.run_end(5);
        let attr = agg.core_attribution();
        assert_eq!(attr[0].compute, 2);
        assert_eq!(attr[0].operand, 1);
        assert_eq!(attr[0].idle, 2);
        assert_eq!(attr[0].total(), 5);
        assert_eq!(attr[1].queue_empty, 4);
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
        let cycles: Vec<u64> = agg.recent_events().map(TraceEvent::cycle).collect();
        assert_eq!(cycles, vec![1, 2], "oldest dropped");
        assert_eq!(agg.core_attribution()[0].compute, 3, "summary covers dropped events");
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
            a.event(&TraceEvent::Stall {
                cycle: c,
                core: 0,
                reason: StallReason::QueueEmpty,
                queue: Some(0),
            });
        }
        a.event(&issue(6, 0));
        a.run_end(8);

        let mut b = TraceAggregator::new(1, 1, 64);
        b.event(&issue(0, 0));
        b.event(&TraceEvent::Stall {
            cycle: 1,
            core: 0,
            reason: StallReason::QueueEmpty,
            queue: Some(0),
        });
        b.event(&span(2, 6, StallReason::QueueEmpty, Some(0)));
        b.event(&issue(6, 0));
        b.run_end(8);

        assert_eq!(a.core_attribution(), b.core_attribution());
        assert_eq!(a.queue_stats(), b.queue_stats());
        assert_eq!(b.core_attribution()[0].queue_empty, 5);
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
        assert_eq!(attr.mispredict, 3);
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

    #[test]
    fn no_trace_is_disabled() {
        assert!(!NoTrace::ENABLED);
        assert!(TraceAggregator::ENABLED);
        assert!(!<(NoTrace, NoTrace) as TraceSink>::ENABLED);
        assert!(<(NoTrace, TraceAggregator) as TraceSink>::ENABLED);
    }
}
