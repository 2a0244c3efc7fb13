//! The pre-decoded cycle-level simulation engine.
//!
//! [`simulate`] lowers the thread functions once into flat
//! [`DecodedProgram`] streams and then runs the same in-order,
//! multi-issue, stall-on-use machine model as
//! [`simulate_reference`](crate::simulate_reference) — without the
//! per-issue `Op` clone or the block/instruction ID indirection of the
//! reference path. The `decoded_equivalence` integration tests hold the
//! two engines byte-identical (cycles, outputs, stall and hit
//! statistics).
//!
//! What the engine shares with the functional interpreter is the
//! [`DecodedProgram`] and its load-time queue-id scan
//! ([`DecodedProgram::check_queue_ids`]) — nothing of the execution
//! loop, which is why per-core retired counts can be checked against
//! the interpreter's per-thread counts (the fuzz oracle does). The
//! reference simulator scans and runs the `Function`s themselves.
//!
//! # The cost of a step
//!
//! At an IPC near one a core-step issues little more than one
//! instruction, so what the loop does *around* an instruction costs as
//! much as the instruction. Everything that does not depend on the
//! cycle is therefore computed once per run (the functional-unit
//! limits, [`DecodedFunction`]'s per-slot
//! [`SlotTiming`](gmt_ir::decoded::SlotTiming) table, which the 3–33
//! simulations of one decoded program share); the start core of a step
//! is a mask of the cycle number at power-of-two core counts, and the
//! walk from it wraps with a compare; a finished core is counted out
//! once and never visited again; the structural, operand and SA-port
//! checks read one 16-byte record, and the 40-byte [`DecodedOp`] is
//! fetched only for an instruction that passed them; the cross-core
//! delivery list is drained only when a produce put something on it.
//! None of this changes which steps run or what a step decides.
//!
//! The loop itself is compiled for the two machines every figure
//! simulates. A one-core run with the fast-forward on steps in
//! `Run::solo`: no rotation, no sleep table, no per-core stall vector
//! and no delivery drain (a lone core's produce delivers in place), and
//! an all-stall cycle jumps straight to the core's self-wakeup under the
//! same credit and clamp rules as the lockstep loop. Everything else
//! steps in `Run::lockstep::<N>`, with the core count a compile-time
//! constant for two cores, so the rotation, the walk and the bulk
//! credit unroll; three and more cores (the fuzzer's N = 3 and 4) keep
//! the count read at run time (`N = 0`), since one instance per count
//! would multiply the code for machines no figure times. `issue_core` is inlined into each loop, so each loop is one
//! function the optimizer sees whole. Neither half pays alone: on the
//! 22 two-core runs of the `exec_only` benchmark, the N = 2 instance
//! without the inline, or the inline without the instance, was no
//! faster than the loop before either (EXPERIMENTS.md, "cycle-engine
//! loops compiled per machine").
//!
//! # Event-driven stall fast-forward
//!
//! Queue-coupled executions spend most of their simulated cycles in
//! ticks where *no* core can issue: queue-empty/queue-full waits at
//! DSWP's depth-32 configurations, mispredict refills, and load-miss
//! latencies. On such a cycle the engine computes, per core, the
//! earliest cycle it could possibly issue again — the mispredict
//! refill deadline, the scoreboard's operand-ready times, in-flight
//! load completion, or the synchronization array's next token
//! visibility ([`crate::SyncArray::next_visible_at`]) — and jumps
//! straight to the minimum wakeup, bulk-crediting every skipped cycle
//! to the same per-reason stall counter the per-cycle engine would
//! have ticked. Cores blocked only on *peer* progress (a full queue, a
//! truly empty queue, an operand pending on an outstanding consume)
//! have no self-wakeup; when every core is in that state nothing is
//! skipped and the existing deadlock window fires unchanged. The jump
//! target is clamped to the deadlock and `max_cycles` boundaries, so
//! results — cycles, [`CoreStats`], traces, and errors — stay
//! byte-identical to per-cycle execution ([`SimOptions::fast_forward`]
//! = false is the A/B escape hatch).
//!
//! The fast-forward also memoizes *individual* stalled cores: when a
//! core's recorded stall has a **stable** self-wakeup — one no peer
//! action can move earlier or re-label (mispredict refill, operand
//! readiness, load completion) — its whole stall span is credited up
//! front and the core sleeps until that cycle, skipping its
//! re-evaluation on every tick in between. A `consume.sync` waiting
//! for an in-flight token is not stable even though its token's
//! visibility cycle is fixed: its `QueueEmpty` check comes after the
//! SA-port check, so on a cycle where issuing peers took the last port
//! first the per-cycle engine records `SaPort` for it; such a core is
//! re-evaluated every cycle. This is what makes mixed cycles cheap: one
//! core issuing no longer forces full stall re-checks of its blocked
//! peers. Sleeping is transparent to the global jump (a sleeper's
//! wakeup is exactly what `skip_target` would compute, and the bulk
//! credit loop skips cores already credited), so the byte-identity
//! guarantee is unchanged.

use crate::cache::{Hierarchy, HitLevel};
use crate::config::MachineConfig;
use crate::core::{CoreStats, StallReason, MAX_OUTSTANDING_LOADS};
use crate::sa::{PendingConsume, SyncArray};
use crate::sim::SimResult;
use crate::trace::{Arrival, NoTrace, TraceEvent, TraceSink};
use gmt_ir::decoded::{DecodedFunction, DecodedOp, DecodedProgram, NO_USE};
use gmt_ir::interp::{BlockedOp, DeadlockInfo, ExecError, Memory, MemoryLayout};
use gmt_ir::{Function, Operand, QueueId, Reg};

/// Engine execution knobs, orthogonal to the machine description.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimOptions {
    /// Event-driven stall fast-forward: on an all-stall cycle, jump to
    /// the earliest core wakeup instead of ticking through the dead
    /// window. On by default; results are byte-identical either way —
    /// turn off only for A/B debugging of the engine itself.
    pub fast_forward: bool,
}

impl Default for SimOptions {
    fn default() -> SimOptions {
        SimOptions { fast_forward: true }
    }
}

/// Runs `threads` (one per core) to completion on the machine, through
/// the pre-decoded engine. Drop-in replacement for the reference
/// simulator — same results, same errors.
///
/// # Errors
///
/// See [`simulate_reference`](crate::simulate_reference).
pub fn simulate(
    threads: &[Function],
    args: &[i64],
    init: impl FnOnce(&MemoryLayout, &mut Memory),
    config: &MachineConfig,
) -> Result<SimResult, ExecError> {
    if threads.is_empty() {
        return Err(ExecError::InvalidConfig("at least one thread required".to_string()));
    }
    config.validate().map_err(ExecError::InvalidConfig)?;
    let program = DecodedProgram::decode(threads)?;
    simulate_decoded_opts(&program, args, init, config, SimOptions::default())
}

/// [`simulate`] on an already-decoded program, with explicit
/// [`SimOptions`] (what GREMIO arbitration uses to avoid re-decoding
/// candidate schedules).
///
/// # Errors
///
/// See [`simulate_reference`](crate::simulate_reference).
pub fn simulate_decoded_opts(
    program: &DecodedProgram,
    args: &[i64],
    init: impl FnOnce(&MemoryLayout, &mut Memory),
    config: &MachineConfig,
    opts: SimOptions,
) -> Result<SimResult, ExecError> {
    run_engine(program, args, init, config, &mut NoTrace, opts)
}

/// [`simulate_decoded_opts`] with a [`TraceSink`] observing every
/// issue, stall, and queue operation (see [`crate::trace`]). The sink
/// is statically dispatched; passing [`NoTrace`] is exactly
/// [`simulate_decoded_opts`].
///
/// # Errors
///
/// See [`simulate_reference`](crate::simulate_reference).
pub fn simulate_decoded_traced_opts<S: TraceSink>(
    program: &DecodedProgram,
    args: &[i64],
    init: impl FnOnce(&MemoryLayout, &mut Memory),
    config: &MachineConfig,
    sink: &mut S,
    opts: SimOptions,
) -> Result<SimResult, ExecError> {
    run_engine(program, args, init, config, sink, opts)
}

fn run_engine<S: TraceSink>(
    program: &DecodedProgram,
    args: &[i64],
    init: impl FnOnce(&MemoryLayout, &mut Memory),
    config: &MachineConfig,
    sink: &mut S,
    opts: SimOptions,
) -> Result<SimResult, ExecError> {
    let threads = program.threads();
    if threads.is_empty() {
        return Err(ExecError::InvalidConfig("at least one thread required".to_string()));
    }
    config.validate().map_err(ExecError::InvalidConfig)?;
    program.check_queue_ids(config.sa.num_queues)?;
    let mut memory = Memory::for_layout(program.layout())?;
    init(program.layout(), &mut memory);

    let cores: Vec<DCore> = threads.iter().map(|d| DCore::new(d, args)).collect();
    for d in threads {
        d.check_args(args)?;
    }
    let mut run = Run {
        threads,
        config,
        // The functional-unit limits hold for the whole run, so they
        // are computed here, not per step or per `issue_core` call.
        limits: [config.alu_units, config.mem_ports, config.fp_units, config.branch_units],
        sink,
        cores,
        memory,
        // `Memory::for_layout` bounds the cell count, so the byte size
        // cannot overflow; every access the hierarchy sees is below it.
        hierarchy: Hierarchy::new(threads.len(), config, program.layout().total_cells() * 8),
        sa: SyncArray::new(config.sa.num_queues, config.sa.depth, config.sa.latency),
        output: Vec::new(),
        return_value: None,
        hits: [0; 4],
        deliveries: Vec::new(),
    };
    // The one- and two-core machines every figure simulates each get a
    // loop compiled for them (see "The cost of a step").
    let steps = match threads.len() {
        1 if opts.fast_forward => run.solo()?,
        2 => run.lockstep::<2>(opts.fast_forward)?,
        _ => run.lockstep::<0>(opts.fast_forward)?,
    };

    let cycles = run.cores.iter().map(|c| c.stats.finished_at).max().unwrap_or(0);
    if S::ENABLED {
        run.sink.run_end(cycles);
    }
    Ok(SimResult {
        cycles,
        cores: run.cores.into_iter().map(|c| c.stats).collect(),
        output: run.output,
        return_value: run.return_value,
        hits_l1: run.hits[0],
        hits_l2: run.hits[1],
        hits_l3: run.hits[2],
        hits_mem: run.hits[3],
        engine_steps: steps.engine,
        skipped_cycles: steps.skipped,
    })
}

const NO_PROGRESS_WINDOW: u64 = 100_000;

/// One run's machine state and the facts that hold for all of it. The
/// loops ([`Run::solo`], [`Run::lockstep`]) keep the cycle and the work
/// counters in locals and hand the counters back as [`Steps`].
struct Run<'a, S> {
    threads: &'a [DecodedFunction],
    config: &'a MachineConfig,
    limits: [usize; 4],
    sink: &'a mut S,
    cores: Vec<DCore>,
    memory: Memory,
    hierarchy: Hierarchy,
    sa: SyncArray,
    output: Vec<i64>,
    return_value: Option<i64>,
    hits: [u64; 4],
    /// Cross-core consume deliveries handed back by `issue_core` (which
    /// borrows only its own core) — drained after every call.
    deliveries: Vec<CrossDelivery>,
}

/// The engine's work counters: [`SimResult::engine_steps`] and
/// [`SimResult::skipped_cycles`].
struct Steps {
    engine: u64,
    skipped: u64,
}

impl<S: TraceSink> Run<'_, S> {
    /// The checks at the top of every step of both loops: the fuel
    /// bound, then the no-progress window.
    #[inline]
    fn check_bounds(&self, cycle: u64, last_progress: u64) -> Result<(), ExecError> {
        if cycle >= self.config.max_cycles {
            return Err(ExecError::OutOfFuel);
        }
        if cycle - last_progress > NO_PROGRESS_WINDOW {
            return Err(ExecError::Deadlock(deadlock_info(&self.cores, self.threads, &self.sa, cycle)));
        }
        Ok(())
    }

    /// The one-core loop, for a sequential run with the fast-forward on.
    /// With one core there is no rotation, no peer to sleep beside and
    /// no delivery to another core, so the core's stall of an all-stall
    /// cycle is the only one: the loop jumps straight to its
    /// [`self_wakeup`], clamped by [`jump_bound`] as in [`skip_target`],
    /// and credits the span exactly as [`Run::lockstep`] would with one
    /// core — through the wakeup for a stable stall (its per-core
    /// sleep), through the jump target for `QueueEmpty` (the global jump
    /// alone). The two differ only when a clamp cuts the span short,
    /// and then the run ends in an error on arrival either way.
    fn solo(&mut self) -> Result<Steps, ExecError> {
        let config = self.config;
        let mut cycle: u64 = 0;
        let mut last_progress: u64 = 0;
        let mut steps = Steps { engine: 0, skipped: 0 };
        loop {
            self.check_bounds(cycle, last_progress)?;
            steps.engine += 1;
            let mut sa_ports_left = config.sa.ports;
            let outcome = issue_core(self, 0, &mut sa_ports_left, cycle)?;
            debug_assert!(self.deliveries.is_empty(), "a lone core's produce delivers in place");
            if outcome.progressed {
                if self.cores[0].finished {
                    return Ok(steps);
                }
                last_progress = cycle;
                cycle += 1;
                continue;
            }
            if let Some((reason, queue)) = outcome.stall {
                let core = &mut self.cores[0];
                if let Some(w) = self_wakeup(core, &self.threads[0], &self.sa, reason, queue) {
                    debug_assert!(w > cycle, "stale self-wakeup {w} at {cycle}");
                    let target = w.min(jump_bound(last_progress, config));
                    let until = if reason == StallReason::QueueEmpty { target } else { w };
                    if until > cycle + 1 {
                        core.stats.record_stalls(reason, until - cycle - 1);
                        if S::ENABLED {
                            self.sink.event(&TraceEvent::StallSpan {
                                from: cycle + 1,
                                until,
                                core: 0,
                                reason,
                                queue: queue.map(|q| q.0),
                            });
                        }
                    }
                    if target > cycle + 1 {
                        steps.skipped += target - cycle - 1;
                        cycle = target;
                        continue;
                    }
                }
            }
            cycle += 1;
        }
    }

    /// The lockstep loop: every cycle evaluates the running cores in
    /// rotation, and an all-stall cycle jumps to the earliest wakeup of
    /// any of them. `N` is the core count as a compile-time constant —
    /// the two-core machine — or 0 for a count read at run time: three
    /// and more cores, and a one-core run with the fast-forward off.
    fn lockstep<const N: usize>(&mut self, fast_forward: bool) -> Result<Steps, ExecError> {
        let ncores = if N == 0 { self.cores.len() } else { N };
        debug_assert_eq!(ncores, self.cores.len());
        let config = self.config;
        let mut cycle: u64 = 0;
        let mut last_progress: u64 = 0;
        let mut steps = Steps { engine: 0, skipped: 0 };
        // What blocked each core on the cycle just evaluated (reason +
        // queue, exactly as recorded in its stall counters) — the input
        // to the fast-forward's wakeup computation.
        let mut stalls: Vec<Option<(StallReason, Option<QueueId>)>> = vec![None; ncores];
        // Per-core stall memoization (fast-forward only): a core whose
        // recorded stall has a *stable* self-wakeup — one no peer
        // action can move earlier — would replay the identical stall on
        // every cycle before that wakeup, so its whole span is credited
        // up front and the core sleeps until `asleep_until[ci]` while
        // its peers keep issuing. Stable are the stalls whose check
        // comes before the SA-port check and that read only the core's
        // own state: Mispredict, Operand (pending-consume operands,
        // which peers *can* deliver, are excluded by `self_wakeup`) and
        // LoadLimit.
        let mut asleep_until: Vec<u64> = vec![0; ncores];
        // The number of cores still running: a finished core is never
        // evaluated again, so the count only changes where a `ret`
        // retires.
        let mut live = ncores;

        while live > 0 {
            self.check_bounds(cycle, last_progress)?;
            steps.engine += 1;
            let mut sa_ports_left = config.sa.ports;
            let mut any_progress = false;
            // Rotate the start core for SA-port fairness: core
            // `cycle % ncores` goes first. The start is derived from the
            // cycle number itself, so it is right after a fast-forward
            // jump too; the walk from it wraps with a compare.
            let start = rotation_start(cycle, ncores);
            for k in 0..ncores {
                let ci = if start + k >= ncores { start + k - ncores } else { start + k };
                // A finished core issues nothing and records nothing. A
                // sleeping core replays `stalls[ci]` (already credited
                // through its wakeup) without re-evaluation; it issues
                // nothing and touches no shared state, exactly like the
                // per-cycle engine's early-out would.
                if self.cores[ci].finished || asleep_until[ci] > cycle {
                    continue;
                }
                let outcome = issue_core(self, ci, &mut sa_ports_left, cycle)?;
                // Only a produce that found a peer's consume waiting
                // leaves anything here.
                if !self.deliveries.is_empty() {
                    for del in self.deliveries.drain(..) {
                        self.cores[del.core].deliver(del.dst, del.token, del.value, del.ready_at);
                    }
                }
                if outcome.progressed {
                    last_progress = cycle;
                    any_progress = true;
                    if self.cores[ci].finished {
                        live -= 1;
                    }
                }
                stalls[ci] = outcome.stall;
                // Memoize the stall when its wakeup is stable (see
                // `asleep_until`): credit the whole span now and skip
                // re-evaluating this core until the wakeup. Cycles that
                // also issued are left alone — their trailing stall is
                // usually a one-cycle stall-on-use bubble, so attempting
                // to memoize there would tax every issuing cycle for
                // nothing; a window worth sleeping through re-records
                // the same stall on the next, progress-free evaluation.
                if fast_forward && !outcome.progressed {
                    if let Some((reason, queue)) = outcome.stall {
                        // A `QueueEmpty` stall is not stable: its check
                        // comes after the SA-port check, so a cycle on
                        // which peers take the last port first records
                        // `SaPort` instead.
                        if reason != StallReason::QueueEmpty {
                            let core = &mut self.cores[ci];
                            if let Some(w) =
                                self_wakeup(core, &self.threads[ci], &self.sa, reason, queue)
                            {
                                debug_assert!(w > cycle, "core {ci}: stale self-wakeup {w} at {cycle}");
                                if w > cycle + 1 {
                                    core.stats.record_stalls(reason, w - cycle - 1);
                                    if S::ENABLED {
                                        self.sink.event(&TraceEvent::StallSpan {
                                            from: cycle + 1,
                                            until: w,
                                            core: ci,
                                            reason,
                                            queue: queue.map(|q| q.0),
                                        });
                                    }
                                    asleep_until[ci] = w;
                                }
                            }
                        }
                    }
                }
            }
            if fast_forward && !any_progress {
                if let Some(target) = skip_target(
                    &self.cores,
                    self.threads,
                    &self.sa,
                    &stalls,
                    cycle,
                    last_progress,
                    config,
                ) {
                    // Every cycle in (cycle, target) would replay
                    // exactly the stalls just recorded: nothing issued
                    // anywhere, so no queue, scoreboard, or memory state
                    // can change before the earliest wakeup. Credit the
                    // whole window at once and resume at the wakeup (or
                    // at the deadlock / fuel boundary, whichever comes
                    // first — the loop-top checks then fire exactly as
                    // the per-cycle engine's would).
                    let span = target - cycle - 1;
                    for (ci, core) in self.cores.iter_mut().enumerate() {
                        if core.finished {
                            continue;
                        }
                        // A sleeping core was already credited through
                        // its wakeup when it was memoized, and the jump
                        // target cannot pass that wakeup (`skip_target`
                        // minimizes over the same stable per-core
                        // wakeups) — crediting it again here would
                        // double-count the window.
                        if asleep_until[ci] > cycle {
                            debug_assert!(target <= asleep_until[ci]);
                            continue;
                        }
                        // `skip_target` returned Some, so every
                        // unfinished core has a recorded stall.
                        if let Some((reason, queue)) = stalls[ci] {
                            core.stats.record_stalls(reason, span);
                            if S::ENABLED {
                                self.sink.event(&TraceEvent::StallSpan {
                                    from: cycle + 1,
                                    until: target,
                                    core: ci,
                                    reason,
                                    queue: queue.map(|q| q.0),
                                });
                            }
                        }
                    }
                    steps.skipped += span;
                    cycle = target;
                    continue;
                }
            }
            cycle += 1;
        }
        Ok(steps)
    }
}

/// Which core is evaluated first on a cycle: `cycle % ncores`, so the
/// synchronization-array ports are handed out round-robin. The one- and
/// two-core machines every figure simulates (and any power of two) get
/// it from a mask; other core counts pay the division.
#[inline]
fn rotation_start(cycle: u64, ncores: usize) -> usize {
    let n = ncores as u64;
    (if n.is_power_of_two() { cycle & (n - 1) } else { cycle % n }) as usize
}

/// The earliest cycle at which `core`, stalled at `now` for `reason`,
/// could possibly issue again *without any peer action* — or `None`
/// when no such self-wakeup exists (the stall is peer-driven or the
/// wakeup is unbounded). Shared by the global all-stall fast-forward
/// and the per-core stall memoization; both require the returned cycle
/// to be strictly after `now`.
///
/// Per-reason wakeups:
///
/// - `Mispredict` — the refill deadline `fetch_stalled_until`;
/// - `Operand` — the latest scoreboard ready-time among the stalled
///   instruction's uses, unless one is pending on an outstanding
///   consume (`u64::MAX`): that delivery needs a peer's produce;
/// - `QueueEmpty` — the in-flight front token's visibility cycle
///   ([`SyncArray::next_visible_at`]); an empty queue has none. The
///   global jump only: a peer that issues can take the SA port first
///   and re-label the stall, so this core never sleeps on it;
/// - `LoadLimit` — the earliest in-flight load completion (the set was
///   pruned to `> now` when the stall was recorded);
/// - `QueueFull` — none: only a peer's consume frees an entry.
///   `Structural`/`SaPort` cannot be recorded on an all-stall cycle
///   (no issue consumed a unit or port before the stall) and depend on
///   per-cycle shared state anyway, so they never self-wake.
fn self_wakeup(
    core: &DCore,
    d: &DecodedFunction,
    sa: &SyncArray,
    reason: StallReason,
    queue: Option<QueueId>,
) -> Option<u64> {
    match reason {
        StallReason::Mispredict => Some(core.fetch_stalled_until),
        StallReason::Operand => {
            let mut latest = 0u64;
            for &u in d.uses(core.pc).iter() {
                if u != NO_USE {
                    latest = latest.max(core.ready[u as usize]);
                }
            }
            (latest != u64::MAX).then_some(latest)
        }
        StallReason::QueueEmpty => queue.and_then(|q| sa.next_visible_at(q.index())),
        StallReason::LoadLimit => core.inflight_loads.iter().copied().min(),
        StallReason::QueueFull | StallReason::Structural | StallReason::SaPort => None,
    }
}

/// Computes the fast-forward target after an all-stall cycle at `now`:
/// the minimum over every unfinished core's earliest possible next
/// issue cycle ([`self_wakeup`]), clamped to the deadlock-window and
/// `max_cycles` boundaries. Returns `None` when skipping is impossible
/// or useless — some core's stall went unrecorded (defensive), every
/// core waits only on peer progress (no self-wakeup exists at all), or
/// the target is within one tick. Queues popped by several cores need
/// no special case here: nothing can be consumed during an all-stall
/// window, so every front entry stays put until the jump target.
fn skip_target(
    cores: &[DCore],
    threads: &[DecodedFunction],
    sa: &SyncArray,
    stalls: &[Option<(StallReason, Option<QueueId>)>],
    now: u64,
    last_progress: u64,
    config: &MachineConfig,
) -> Option<u64> {
    let mut min_wakeup: Option<u64> = None;
    for (ci, core) in cores.iter().enumerate() {
        if core.finished {
            continue;
        }
        // An unfinished, unprogressed core always records exactly one
        // stall; if that invariant ever broke, skipping would
        // under-credit it — refuse instead.
        let (reason, queue) = stalls[ci]?;
        if let Some(w) = self_wakeup(core, &threads[ci], sa, reason, queue) {
            debug_assert!(w > now, "core {ci}: self-wakeup {w} not after stall cycle {now}");
            if w <= now {
                return None; // defensive: never skip on a broken wakeup
            }
            min_wakeup = Some(min_wakeup.map_or(w, |m| m.min(w)));
        }
    }
    let target = min_wakeup?.min(jump_bound(last_progress, config));
    (target > now + 1).then_some(target)
}

/// The furthest a fast-forward jump may land: the cycle on which the
/// deadlock window closes or the fuel runs out, whichever comes first,
/// so that the loop-top checks fire there exactly as the per-cycle
/// engine's would.
#[inline]
fn jump_bound(last_progress: u64, config: &MachineConfig) -> u64 {
    (last_progress + NO_PROGRESS_WINDOW + 1).min(config.max_cycles)
}

fn sa_overflow() -> String {
    "synchronization array produce overran the configured queue depth".to_string()
}

/// A produce's delivery to an outstanding consume on a *different*
/// core, handed back to the engine loop because [`issue_core`] holds a
/// mutable borrow of its own core only. Applied immediately after the
/// producing core's call returns — before any other core is evaluated
/// that cycle — which is observably the same instant as the in-place
/// delivery the reference engine performs.
struct CrossDelivery {
    core: usize,
    dst: Reg,
    token: u64,
    value: i64,
    ready_at: u64,
}

/// Attributes a no-progress timeout to the first unfinished core whose
/// next operation is provably queue-blocked: a produce against a full
/// queue, a `consume.sync` against an empty one, or an operand still
/// pending on an outstanding consume delivery.
fn deadlock_info(
    cores: &[DCore],
    threads: &[DecodedFunction],
    sa: &SyncArray,
    now: u64,
) -> Option<DeadlockInfo> {
    for (ci, core) in cores.iter().enumerate() {
        if core.finished {
            continue;
        }
        let d = &threads[ci];
        let pc = core.pc;
        match d.op(pc) {
            DecodedOp::Produce { queue, .. } | DecodedOp::ProduceSync { queue }
                if queue.index() < sa.len() && !sa.can_produce(queue.index()) =>
            {
                return Some(DeadlockInfo { core: ci, queue, op: BlockedOp::ProduceFull });
            }
            DecodedOp::ConsumeSync { queue }
                if queue.index() < sa.len() && !sa.has_visible_entry(queue.index(), now) =>
            {
                return Some(DeadlockInfo { core: ci, queue, op: BlockedOp::ConsumeEmpty });
            }
            _ => {}
        }
        for &u in d.uses(pc).iter() {
            if u != NO_USE && core.ready[u as usize] == u64::MAX {
                if let Some(queue) = core.pending_queue[u as usize] {
                    return Some(DeadlockInfo { core: ci, queue, op: BlockedOp::ConsumeEmpty });
                }
            }
        }
    }
    None
}

/// Core state for the decoded engine: same microarchitectural model as
/// [`Core`](crate::Core), with the block/pos cursor replaced by a flat
/// pc and no per-core layout (leas are pre-folded at decode time).
struct DCore {
    regs: Vec<i64>,
    /// Cycle at which each register's value becomes usable;
    /// `u64::MAX` marks a pending (outstanding consume) register.
    ready: Vec<u64>,
    /// Monotonic write token per register, guarding late consume
    /// deliveries against intervening redefinitions.
    token: Vec<u64>,
    /// Queue each pending register's outstanding consume issued
    /// against (deadlock attribution only).
    pending_queue: Vec<Option<QueueId>>,
    next_token: u64,
    pc: u32,
    finished: bool,
    /// Completion cycles of issued loads, pruned lazily by
    /// [`DCore::at_load_limit`].
    inflight_loads: Vec<u64>,
    fetch_stalled_until: u64,
    stats: CoreStats,
    /// Per-core issue index of the last instruction to write each
    /// register (`u64::MAX` = never written), feeding [`Arrival::Data`]
    /// edges. Trace-only: maintained when a sink is attached.
    writer: Vec<u64>,
    /// Instructions issued so far on this core (trace-only).
    issued_nodes: u64,
    /// The stall most recently recorded for this core, consumed by the
    /// next issue to derive its last-arrival edge (trace-only).
    last_stall: Option<(StallReason, Option<QueueId>)>,
}

impl DCore {
    fn new(d: &DecodedFunction, args: &[i64]) -> DCore {
        let n = d.num_regs() as usize;
        let mut regs = vec![0i64; n];
        for (r, &v) in d.params().iter().zip(args) {
            regs[r.index()] = v;
        }
        DCore {
            regs,
            ready: vec![0; n],
            token: vec![0; n],
            pending_queue: vec![None; n],
            next_token: 1,
            pc: d.entry_pc(),
            finished: false,
            inflight_loads: Vec::new(),
            fetch_stalled_until: 0,
            stats: CoreStats::default(),
            writer: vec![u64::MAX; n],
            issued_nodes: 0,
            last_stall: None,
        }
    }

    #[inline]
    fn operands_ready(&self, uses: [u32; 2], now: u64) -> bool {
        uses.iter().all(|&u| u == NO_USE || self.ready[u as usize] <= now)
    }

    #[inline]
    fn operand(&self, o: Operand) -> i64 {
        match o {
            Operand::Reg(r) => self.regs[r.index()],
            Operand::Imm(v) => v,
        }
    }

    #[inline]
    fn cell_addr(&self, a: gmt_ir::AddrMode) -> i64 {
        self.regs[a.base.index()].wrapping_add(a.offset)
    }

    #[inline]
    fn byte_addr(&self, a: gmt_ir::AddrMode) -> i64 {
        self.cell_addr(a).wrapping_mul(8)
    }

    #[inline]
    fn write(&mut self, dst: Reg, value: i64, ready_at: u64) -> u64 {
        self.regs[dst.index()] = value;
        self.ready[dst.index()] = ready_at;
        self.pending_queue[dst.index()] = None;
        let t = self.next_token;
        self.next_token += 1;
        self.token[dst.index()] = t;
        t
    }

    #[inline]
    fn mark_pending(&mut self, dst: Reg, queue: QueueId) -> u64 {
        self.ready[dst.index()] = u64::MAX;
        self.pending_queue[dst.index()] = Some(queue);
        let t = self.next_token;
        self.next_token += 1;
        self.token[dst.index()] = t;
        t
    }

    #[inline]
    fn deliver(&mut self, dst: Reg, token: u64, value: i64, ready_at: u64) {
        if self.token[dst.index()] == token {
            self.regs[dst.index()] = value;
            self.ready[dst.index()] = ready_at;
            self.pending_queue[dst.index()] = None;
        }
    }

    /// Whether [`MAX_OUTSTANDING_LOADS`] loads are still in flight at
    /// `now`. Completed loads are pruned only here, and only once the
    /// set has reached the cap — so it never outgrows the cap, and
    /// holds only completions `> now` whenever this returns true.
    #[inline]
    fn at_load_limit(&mut self, now: u64) -> bool {
        if self.inflight_loads.len() < MAX_OUTSTANDING_LOADS {
            return false;
        }
        self.inflight_loads.retain(|&t| t > now);
        self.inflight_loads.len() >= MAX_OUTSTANDING_LOADS
    }
}

/// The register an op defines, if any — the scoreboard entry the
/// tracing layer tags with the writer's issue index.
#[inline]
fn def_of(op: DecodedOp) -> Option<Reg> {
    match op {
        DecodedOp::Const(dst, _)
        | DecodedOp::LeaAbs(dst, _)
        | DecodedOp::Bin(_, dst, _, _)
        | DecodedOp::Un(_, dst, _)
        | DecodedOp::Load(dst, _)
        | DecodedOp::Consume { dst, .. } => Some(dst),
        _ => None,
    }
}

/// Converts the stall recorded for the instruction at `pc` — if any —
/// into its last-arrival edge, consuming it. Called right before the
/// op executes, so for an operand stall the scoreboard still holds the
/// pre-issue ready times and writer tags of the uses (a def may alias
/// one of its own uses). No recorded stall means the in-order front
/// end was the only constraint.
#[inline]
fn take_arrival(core: &mut DCore, d: &DecodedFunction, pc: u32) -> Arrival {
    match core.last_stall.take() {
        None => Arrival::InOrder,
        Some((StallReason::Operand, _)) => {
            // The binding operand is the one that became ready last.
            let mut best: Option<(u64, u64)> = None;
            for &u in d.uses(pc).iter() {
                if u != NO_USE {
                    let ready = core.ready[u as usize];
                    if best.map_or(true, |(r, _)| ready > r) {
                        best = Some((ready, core.writer[u as usize]));
                    }
                }
            }
            match best {
                Some((_, w)) if w != u64::MAX => Arrival::Data { writer: w },
                _ => Arrival::InOrder,
            }
        }
        Some((StallReason::QueueEmpty, q)) => {
            q.map_or(Arrival::InOrder, |q| Arrival::QueueVisible { queue: q.0 })
        }
        Some((StallReason::QueueFull, q)) => {
            q.map_or(Arrival::InOrder, |q| Arrival::QueueSpace { queue: q.0 })
        }
        Some((StallReason::Mispredict, _)) => Arrival::Refill,
        Some((r, _)) => Arrival::Resource(r),
    }
}

/// What one core did in one cycle: whether anything issued, and — when
/// the issue group ended on a stall — the reason and queue that were
/// recorded, exactly as written to the stall counters and trace. On an
/// all-stall cycle (no core progressed) the `stall` fields are the
/// fast-forward's wakeup inputs.
#[derive(Clone, Copy, Debug)]
struct IssueOutcome {
    progressed: bool,
    stall: Option<(StallReason, Option<QueueId>)>,
}

/// Issues as many instructions as possible on core `ci` this cycle;
/// returns whether at least one instruction issued and what (if
/// anything) ended the issue group. Mirrors the reference `issue_core`
/// decision-for-decision (stall order, stat updates, issue-group
/// breaks). Inlined into each loop, so every loop is one function the
/// optimizer sees whole (see "The cost of a step").
#[inline(always)]
fn issue_core<S: TraceSink>(
    run: &mut Run<'_, S>,
    ci: usize,
    sa_ports_left: &mut usize,
    now: u64,
) -> Result<IssueOutcome, ExecError> {
    let Run {
        threads,
        config,
        limits,
        sink,
        cores,
        memory,
        hierarchy,
        sa,
        output,
        return_value,
        hits,
        deliveries,
    } = run;
    let d = &threads[ci];
    let core = &mut cores[ci];
    // Event emission is gated on the sink's compile-time switch, so
    // the NoTrace instantiation carries no tracing code at all.
    macro_rules! trace {
        ($ev:expr) => {
            if S::ENABLED {
                sink.event(&$ev);
            }
        };
    }
    if core.fetch_stalled_until > now {
        core.stats.record_stall(StallReason::Mispredict);
        trace!(TraceEvent::StallSpan { from: now, until: now + 1, core: ci, reason: StallReason::Mispredict, queue: None });
        if S::ENABLED {
            core.last_stall = Some((StallReason::Mispredict, None));
        }
        return Ok(IssueOutcome {
            progressed: false,
            stall: Some((StallReason::Mispredict, None)),
        });
    }
    let mut issued = 0usize;
    let mut used = [0usize; 4]; // alu, mem, fp, branch
    let mut progressed = false;
    let mut stall: Option<(StallReason, Option<QueueId>)> = None;
    // Records a stall (counter + trace) and remembers it for the
    // outcome — every `break` below goes through this. The traced
    // engine also keeps it as the pending last-arrival edge of the
    // instruction that eventually issues at this pc.
    macro_rules! stall {
        ($reason:expr, $queue:expr) => {{
            let (r, q): (StallReason, Option<QueueId>) = ($reason, $queue);
            core.stats.record_stall(r);
            trace!(TraceEvent::StallSpan { from: now, until: now + 1, core: ci, reason: r, queue: q.map(|q| q.0) });
            if S::ENABLED {
                core.last_stall = Some((r, q));
            }
            stall = Some((r, q));
        }};
    }
    // Emits the Issue event with the pending last-arrival edge and
    // tags the def's scoreboard entry with this issue's per-core
    // index. Compiled out entirely for the NoTrace sink.
    macro_rules! issue_ev {
        ($pc:expr, $op:expr, $arrival:expr) => {
            if S::ENABLED {
                sink.event(&TraceEvent::Issue {
                    cycle: now,
                    core: ci,
                    src: d.src($pc),
                    arrival: $arrival,
                });
                if let Some(dst) = def_of($op) {
                    core.writer[dst.index()] = core.issued_nodes;
                }
                core.issued_nodes += 1;
            }
        };
    }

    while !core.finished && issued < config.issue_width {
        let pc = core.pc;
        // The three checks that most often end an issue group read one
        // 16-byte record; the op itself is fetched only past them.
        let timing = d.timing(pc);
        let ui = timing.unit as usize;
        if used[ui] >= limits[ui] {
            stall!(StallReason::Structural, None);
            break;
        }
        if !core.operands_ready(timing.uses, now) {
            stall!(StallReason::Operand, None);
            break;
        }
        // SA port check for communication instructions.
        if timing.communication && *sa_ports_left == 0 {
            stall!(StallReason::SaPort, None);
            break;
        }
        let op = d.op(pc);
        // The last-arrival edge of the instruction about to issue —
        // taken before the op executes (a def may overwrite the
        // scoreboard entry of one of its own uses). Discarded
        // harmlessly when a later check in this iteration stalls
        // instead: that stall re-records `last_stall`, which is the
        // binding constraint from then on.
        let arrival = if S::ENABLED { take_arrival(core, d, pc) } else { Arrival::InOrder };
        let mut end_group = false;
        match op {
            DecodedOp::Const(dst, v) => {
                core.write(dst, v, now + 1);
                core.pc += 1;
            }
            DecodedOp::LeaAbs(dst, addr) => {
                core.write(dst, addr, now + 1);
                core.pc += 1;
            }
            DecodedOp::Bin(b, dst, x, y) => {
                let v = b.eval(core.operand(x), core.operand(y));
                core.write(dst, v, now + timing.latency as u64);
                core.pc += 1;
            }
            DecodedOp::Un(u, dst, x) => {
                let v = u.eval(core.operand(x));
                core.write(dst, v, now + 1);
                core.pc += 1;
            }
            DecodedOp::Load(dst, a) => {
                if core.at_load_limit(now) {
                    stall!(StallReason::LoadLimit, None);
                    break;
                }
                let cell = core.cell_addr(a);
                let v = memory.read(cell)?;
                let (lat, level) = hierarchy.load(ci, core.byte_addr(a) as u64);
                hits[match level {
                    HitLevel::L1 => 0,
                    HitLevel::L2 => 1,
                    HitLevel::L3 => 2,
                    HitLevel::Memory => 3,
                }] += 1;
                let ready = now + lat;
                core.write(dst, v, ready);
                core.inflight_loads.push(ready);
                core.pc += 1;
            }
            DecodedOp::Store(a, v) => {
                let cell = core.cell_addr(a);
                let value = core.operand(v);
                memory.write(cell, value)?;
                let _ = hierarchy.store(ci, core.byte_addr(a) as u64);
                core.pc += 1;
            }
            DecodedOp::Output(v) => {
                output.push(core.operand(v));
                core.pc += 1;
            }
            DecodedOp::Produce { queue, value } => {
                if queue.index() >= sa.len() {
                    return Err(ExecError::BadQueue(d.src(pc)));
                }
                if !sa.can_produce(queue.index()) {
                    stall!(StallReason::QueueFull, Some(queue));
                    break;
                }
                *sa_ports_left -= 1;
                let v = core.operand(value);
                match sa.produce(queue.index(), v, now) {
                    Ok(Some(del)) => {
                        if let Some(dst) = del.pending.dst {
                            // A delivery to this very core lands now (a
                            // later op in this group may observe the
                            // scoreboard entry); a peer's is applied by
                            // the caller right after this call returns,
                            // before any other core is evaluated —
                            // observably the same instant.
                            if del.pending.core == ci {
                                core.deliver(dst, del.pending.token, del.value, del.ready_at);
                            } else {
                                deliveries.push(CrossDelivery {
                                    core: del.pending.core,
                                    dst,
                                    token: del.pending.token,
                                    value: del.value,
                                    ready_at: del.ready_at,
                                });
                            }
                        }
                    }
                    Ok(None) => {}
                    // `can_produce` held above; losing the value here
                    // would corrupt the run, so refuse to continue.
                    Err(_) => return Err(ExecError::InvalidConfig(sa_overflow())),
                }
                issue_ev!(pc, op, arrival);
                trace!(TraceEvent::Produce { cycle: now, core: ci, queue: queue.0, occupancy: sa.occupancy(queue.index()) });
                core.stats.communication += 1;
                core.pc += 1;
                issued += 1;
                used[ui] += 1;
                progressed = true;
                continue;
            }
            DecodedOp::Consume { dst, queue } => {
                if queue.index() >= sa.len() {
                    return Err(ExecError::BadQueue(d.src(pc)));
                }
                *sa_ports_left -= 1;
                let token = core.mark_pending(dst, queue);
                let pending = PendingConsume { core: ci, dst: Some(dst), token };
                let mut deferred = true;
                if let Ok((v, ready)) = sa.consume(queue.index(), now, pending) {
                    core.deliver(dst, token, v, ready);
                    deferred = false;
                }
                issue_ev!(pc, op, arrival);
                trace!(TraceEvent::Consume { cycle: now, core: ci, queue: queue.0, occupancy: sa.occupancy(queue.index()), deferred });
                core.stats.communication += 1;
                core.pc += 1;
                issued += 1;
                used[ui] += 1;
                progressed = true;
                continue;
            }
            DecodedOp::ProduceSync { queue } => {
                if queue.index() >= sa.len() {
                    return Err(ExecError::BadQueue(d.src(pc)));
                }
                if !sa.can_produce(queue.index()) {
                    stall!(StallReason::QueueFull, Some(queue));
                    break;
                }
                *sa_ports_left -= 1;
                if sa.produce(queue.index(), 1, now).is_err() {
                    return Err(ExecError::InvalidConfig(sa_overflow()));
                }
                issue_ev!(pc, op, arrival);
                trace!(TraceEvent::Produce { cycle: now, core: ci, queue: queue.0, occupancy: sa.occupancy(queue.index()) });
                core.stats.synchronization += 1;
                core.pc += 1;
                issued += 1;
                used[ui] += 1;
                progressed = true;
                continue;
            }
            DecodedOp::ConsumeSync { queue } => {
                if queue.index() >= sa.len() {
                    return Err(ExecError::BadQueue(d.src(pc)));
                }
                // Acquire semantics: block issue until the token is
                // visible.
                if !sa.has_visible_entry(queue.index(), now) {
                    stall!(StallReason::QueueEmpty, Some(queue));
                    break;
                }
                *sa_ports_left -= 1;
                // Gated on `has_visible_entry` above; an empty pop is
                // harmless but counts as no token consumed.
                let _ = sa.pop_token(queue.index(), now);
                issue_ev!(pc, op, arrival);
                trace!(TraceEvent::Consume { cycle: now, core: ci, queue: queue.0, occupancy: sa.occupancy(queue.index()), deferred: false });
                core.stats.synchronization += 1;
                core.pc += 1;
                issued += 1;
                used[ui] += 1;
                progressed = true;
                continue;
            }
            DecodedOp::Branch { cond, then_pc, else_pc, backward } => {
                let taken = core.regs[cond.index()] != 0;
                // Static backward-taken/forward-not-taken prediction:
                // predict taken iff the taken target does not move
                // forward in block order (a loop back edge) — folded
                // into `backward` at decode time.
                if let crate::config::BranchModel::StaticBtfn { penalty } = config.branch_model {
                    let predict_taken = backward;
                    if predict_taken != taken {
                        core.stats.mispredicts += 1;
                        core.fetch_stalled_until = now + penalty;
                    }
                }
                core.pc = if taken { then_pc } else { else_pc };
                end_group = true;
            }
            DecodedOp::Jump(t) => {
                core.pc = t;
                end_group = true;
            }
            DecodedOp::Ret(v) => {
                if let Some(v) = v {
                    *return_value = Some(core.operand(v));
                }
                core.finished = true;
                core.stats.finished_at = now + 1;
                trace!(TraceEvent::Finish { cycle: now, core: ci });
                end_group = true;
            }
            DecodedOp::Nop => {
                core.pc += 1;
            }
            DecodedOp::Unterminated => {
                return Err(gmt_ir::interp::unterminated(d.block(pc)));
            }
        }
        issue_ev!(pc, op, arrival);
        core.stats.computation += 1;
        issued += 1;
        used[ui] += 1;
        progressed = true;
        if end_group {
            break; // simple front end: nothing issues past a taken redirect
        }
    }
    Ok(IssueOutcome { progressed, stall })
}

#[cfg(test)]
mod tests {
    use super::rotation_start;

    /// The start core is a function of the cycle number alone, so a
    /// fast-forward jump lands on the same core the per-cycle engine
    /// would have rotated to.
    #[test]
    fn rotation_start_is_cycle_mod_ncores() {
        for ncores in 1..=5usize {
            let mut cycle = 0u64;
            // Single steps interleaved with jumps of every residue,
            // then the far end of the range.
            for step in (0..200u64).map(|i| if i % 7 == 0 { i * 13 + 2 } else { 1 }) {
                assert_eq!(rotation_start(cycle, ncores), (cycle % ncores as u64) as usize, "{ncores} @ {cycle}");
                cycle += step;
            }
            for cycle in [u64::MAX - 5, u64::MAX - 1, u64::MAX] {
                assert_eq!(rotation_start(cycle, ncores), (cycle % ncores as u64) as usize, "{ncores} @ {cycle}");
            }
        }
    }
}
