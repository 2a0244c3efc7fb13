//! The cycle-level simulation driver.

use crate::cache::{Hierarchy, HitLevel};
use crate::config::MachineConfig;
use crate::core::{Core, CoreStats, StallReason, MAX_OUTSTANDING_LOADS};
use crate::sa::{PendingConsume, SyncArray};
use gmt_ir::interp::{BlockedOp, DeadlockInfo, ExecError, Memory, MemoryLayout};
use gmt_ir::{BinOp, Function, Op};

/// The result of a timed simulation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimResult {
    /// Total cycles until the last core retired.
    pub cycles: u64,
    /// Per-core statistics.
    pub cores: Vec<CoreStats>,
    /// The observable output trace.
    pub output: Vec<i64>,
    /// The returned value, if any thread returned one.
    pub return_value: Option<i64>,
    /// Cache accesses served per level, across all cores.
    pub hits_l1: u64,
    /// See [`SimResult::hits_l1`].
    pub hits_l2: u64,
    /// See [`SimResult::hits_l1`].
    pub hits_l3: u64,
    /// Accesses served by main memory.
    pub hits_mem: u64,
    /// Main-loop iterations the engine actually evaluated. The
    /// per-cycle reference engine steps once per cycle
    /// (`engine_steps == cycles` unless the run errored); the
    /// event-driven engine steps once per *non-skipped* cycle, so
    /// `engine_steps + skipped_cycles` equals the per-cycle step count.
    pub engine_steps: u64,
    /// Cycles the event-driven fast-forward jumped over instead of
    /// ticking (0 for the reference engine and the per-cycle engine).
    /// Every skipped cycle is still credited to the stalled cores'
    /// counters — results are byte-identical either way.
    pub skipped_cycles: u64,
}

/// How an instruction classifies for issue resources.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Unit {
    Alu,
    Mem,
    Fp,
    Branch,
}

fn unit_of(op: &Op) -> Unit {
    match op {
        Op::Bin(b, ..) if b.is_float_class() => Unit::Fp,
        Op::Load(..)
        | Op::Store(..)
        | Op::Produce { .. }
        | Op::Consume { .. }
        | Op::ProduceSync { .. }
        | Op::ConsumeSync { .. } => Unit::Mem,
        Op::Branch { .. } | Op::Jump(_) | Op::Ret(_) => Unit::Branch,
        _ => Unit::Alu,
    }
}

fn exec_latency(op: &Op) -> u64 {
    match op {
        Op::Bin(b, ..) => match b {
            BinOp::Mul => 3,
            BinOp::Div | BinOp::Rem => 12,
            BinOp::FAdd | BinOp::FSub | BinOp::FMul => 4,
            BinOp::FDiv => 16,
            _ => 1,
        },
        _ => 1,
    }
}

/// Runs `threads` (one per core) to completion on the machine through
/// the ID-walking reference engine.
///
/// This is the semantic oracle for the pre-decoded engine
/// ([`simulate`](crate::simulate)), which produces byte-identical
/// results without the per-issue `Op` clone and ID indirection.
///
/// All cores receive the same `args`; memory is laid out from
/// `threads[0]`'s object table and initialized by `init`.
///
/// # Errors
///
/// - [`ExecError::InvalidConfig`] when `threads` is empty or
///   [`MachineConfig::validate`] rejects the machine;
/// - [`ExecError::Deadlock`] when no core makes progress for an entire
///   no-progress window (every latency in the machine is far smaller);
/// - [`ExecError::OutOfFuel`] when `config.max_cycles` elapses;
/// - [`ExecError::MemoryFault`] on wild accesses.
pub fn simulate_reference(
    threads: &[Function],
    args: &[i64],
    init: impl FnOnce(&MemoryLayout, &mut Memory),
    config: &MachineConfig,
) -> Result<SimResult, ExecError> {
    if threads.is_empty() {
        return Err(ExecError::InvalidConfig("at least one thread required".to_string()));
    }
    config.validate().map_err(ExecError::InvalidConfig)?;
    check_queue_ids(threads, config.sa.num_queues)?;
    let layout = MemoryLayout::of(&threads[0]);
    let mut memory = Memory::for_layout(&layout)?;
    init(&layout, &mut memory);

    let ncores = threads.len();
    let mut cores: Vec<Core> = threads.iter().map(|f| Core::new(f, args, &layout)).collect();
    for (f, _) in threads.iter().zip(&cores) {
        if args.len() < f.params.len() {
            return Err(ExecError::MissingArguments);
        }
    }
    let mut hierarchy = Hierarchy::new(ncores, config, layout.total_cells() * 8);
    let mut sa = SyncArray::new(config.sa.num_queues, config.sa.depth, config.sa.latency);
    let mut output = Vec::new();
    let mut return_value = None;
    let mut hits = [0u64; 4];

    let mut cycle: u64 = 0;
    let mut last_progress: u64 = 0;
    const NO_PROGRESS_WINDOW: u64 = 100_000;

    while cores.iter().any(|c| !c.finished) {
        if cycle >= config.max_cycles {
            return Err(ExecError::OutOfFuel);
        }
        if cycle - last_progress > NO_PROGRESS_WINDOW {
            return Err(ExecError::Deadlock(deadlock_info(&cores, threads, &sa, cycle)));
        }
        let mut sa_ports_left = config.sa.ports;
        // Rotate the start core for SA-port fairness.
        for k in 0..ncores {
            let ci = (k + cycle as usize % ncores) % ncores;
            let progressed = issue_core(
                ci,
                &mut cores,
                threads,
                &mut memory,
                &mut hierarchy,
                &mut sa,
                &mut sa_ports_left,
                &mut output,
                &mut return_value,
                &mut hits,
                config,
                cycle,
            )?;
            if progressed {
                last_progress = cycle;
            }
        }
        cycle += 1;
    }

    let cycles = cores.iter().map(|c| c.stats.finished_at).max().unwrap_or(cycle);
    Ok(SimResult {
        cycles,
        cores: cores.into_iter().map(|c| c.stats).collect(),
        output,
        return_value,
        hits_l1: hits[0],
        hits_l2: hits[1],
        hits_l3: hits[2],
        hits_mem: hits[3],
        engine_steps: cycle,
        skipped_cycles: 0,
    })
}

/// Rejects programs whose communication instructions target a queue the
/// synchronization array does not have, *before* the first cycle runs.
/// Without this, a bad queue id only surfaced as
/// [`ExecError::BadQueue`] when (and if) the instruction issued
/// mid-simulation.
pub(crate) fn check_queue_ids(threads: &[Function], num_queues: usize) -> Result<(), ExecError> {
    for f in threads {
        for b in f.blocks() {
            for i in f.block(b).all_instrs() {
                let q = match *f.instr(i) {
                    Op::Produce { queue, .. }
                    | Op::Consume { queue, .. }
                    | Op::ProduceSync { queue }
                    | Op::ConsumeSync { queue } => queue,
                    _ => continue,
                };
                if q.index() >= num_queues {
                    return Err(ExecError::InvalidConfig(format!(
                        "{i:?} targets queue {} but the synchronization array has {num_queues} queues",
                        q.0
                    )));
                }
            }
        }
    }
    Ok(())
}

fn sa_overflow() -> String {
    "synchronization array produce overran the configured queue depth".to_string()
}

/// Attributes a no-progress timeout to the first unfinished core whose
/// next operation is provably queue-blocked: a produce against a full
/// queue, a `consume.sync` against an empty one, or an operand still
/// pending on an outstanding consume delivery. Mirrors the decoded
/// engine's attribution decision-for-decision.
fn deadlock_info(
    cores: &[Core],
    threads: &[Function],
    sa: &SyncArray,
    now: u64,
) -> Option<DeadlockInfo> {
    for (ci, core) in cores.iter().enumerate() {
        if core.finished {
            continue;
        }
        let f = &threads[ci];
        let Ok(instr) = core.current_instr(f) else { continue };
        let op = f.instr(instr);
        match *op {
            Op::Produce { queue, .. } | Op::ProduceSync { queue }
                if queue.index() < sa.len() && !sa.can_produce(queue.index()) =>
            {
                return Some(DeadlockInfo { core: ci, queue, op: BlockedOp::ProduceFull });
            }
            Op::ConsumeSync { queue }
                if queue.index() < sa.len() && !sa.has_visible_entry(queue.index(), now) =>
            {
                return Some(DeadlockInfo { core: ci, queue, op: BlockedOp::ConsumeEmpty });
            }
            _ => {}
        }
        for r in op.use_slots().into_iter().flatten() {
            if core.ready[r.index()] == u64::MAX {
                if let Some(queue) = core.pending_queue[r.index()] {
                    return Some(DeadlockInfo { core: ci, queue, op: BlockedOp::ConsumeEmpty });
                }
            }
        }
    }
    None
}

/// Issues as many instructions as possible on core `ci` this cycle;
/// returns whether at least one instruction issued.
#[allow(clippy::too_many_arguments)]
fn issue_core(
    ci: usize,
    cores: &mut [Core],
    threads: &[Function],
    memory: &mut Memory,
    hierarchy: &mut Hierarchy,
    sa: &mut SyncArray,
    sa_ports_left: &mut usize,
    output: &mut Vec<i64>,
    return_value: &mut Option<i64>,
    hits: &mut [u64; 4],
    config: &MachineConfig,
    now: u64,
) -> Result<bool, ExecError> {
    let f = &threads[ci];
    if cores[ci].fetch_stalled_until > now {
        cores[ci].stats.record_stall(StallReason::Mispredict);
        return Ok(false);
    }
    let mut issued = 0usize;
    let mut used = [0usize; 4]; // alu, mem, fp, branch
    let limits = [config.alu_units, config.mem_ports, config.fp_units, config.branch_units];
    let mut progressed = false;

    while !cores[ci].finished && issued < config.issue_width {
        let instr = cores[ci].current_instr(f)?;
        let op = f.instr(instr).clone();
        let unit = unit_of(&op);
        let ui = unit as usize;
        if used[ui] >= limits[ui] {
            cores[ci].stats.record_stall(StallReason::Structural);
            break;
        }
        if !cores[ci].operands_ready(&op, now) {
            cores[ci].stats.record_stall(StallReason::Operand);
            break;
        }
        // SA port check for communication instructions.
        if op.is_communication()
            && *sa_ports_left == 0 {
                cores[ci].stats.record_stall(StallReason::SaPort);
                break;
            }
        let mut end_group = false;
        match op {
            Op::Const(d, v) => {
                cores[ci].write(d, v, now + 1);
                cores[ci].advance();
            }
            Op::Lea(d, obj, off) => {
                let v = cores[ci].lea(obj, off);
                cores[ci].write(d, v, now + 1);
                cores[ci].advance();
            }
            Op::Bin(b, d, x, y) => {
                let v = b.eval(cores[ci].operand(x), cores[ci].operand(y));
                let lat = exec_latency(&op);
                cores[ci].write(d, v, now + lat);
                cores[ci].advance();
            }
            Op::Un(u, d, x) => {
                let v = u.eval(cores[ci].operand(x));
                cores[ci].write(d, v, now + 1);
                cores[ci].advance();
            }
            Op::Load(d, a) => {
                if cores[ci].outstanding_loads(now) >= MAX_OUTSTANDING_LOADS {
                    cores[ci].stats.record_stall(StallReason::LoadLimit);
                    break;
                }
                let cell = cores[ci].cell_addr(a);
                let v = memory.read(cell)?;
                let (lat, level) = hierarchy.load(ci, cores[ci].byte_addr(a) as u64);
                hits[match level {
                    HitLevel::L1 => 0,
                    HitLevel::L2 => 1,
                    HitLevel::L3 => 2,
                    HitLevel::Memory => 3,
                }] += 1;
                let ready = now + lat;
                cores[ci].write(d, v, ready);
                cores[ci].inflight_loads.push(ready);
                cores[ci].advance();
            }
            Op::Store(a, v) => {
                let cell = cores[ci].cell_addr(a);
                let value = cores[ci].operand(v);
                memory.write(cell, value)?;
                let _ = hierarchy.store(ci, cores[ci].byte_addr(a) as u64);
                cores[ci].advance();
            }
            Op::Output(v) => {
                output.push(cores[ci].operand(v));
                cores[ci].advance();
            }
            Op::Produce { queue, value } => {
                if queue.index() >= sa.len() {
                    return Err(ExecError::BadQueue(instr));
                }
                if !sa.can_produce(queue.index()) {
                    cores[ci].stats.record_stall(StallReason::QueueFull);
                    break;
                }
                *sa_ports_left -= 1;
                let v = cores[ci].operand(value);
                match sa.produce(queue.index(), v, now) {
                    Ok(Some(d)) => {
                        if let Some(dst) = d.pending.dst {
                            cores[d.pending.core]
                                .deliver(dst, d.pending.token, d.value, d.ready_at);
                        }
                    }
                    Ok(None) => {}
                    // `can_produce` held above; losing the value here
                    // would corrupt the run, so refuse to continue.
                    Err(_) => return Err(ExecError::InvalidConfig(sa_overflow())),
                }
                cores[ci].stats.communication += 1;
                cores[ci].advance();
                issued += 1;
                used[ui] += 1;
                progressed = true;
                continue;
            }
            Op::Consume { dst, queue } => {
                if queue.index() >= sa.len() {
                    return Err(ExecError::BadQueue(instr));
                }
                *sa_ports_left -= 1;
                let token = cores[ci].mark_pending(dst, queue);
                let pending = PendingConsume { core: ci, dst: Some(dst), token };
                if let Ok((v, ready)) = sa.consume(queue.index(), now, pending) {
                    cores[ci].deliver(dst, token, v, ready);
                }
                cores[ci].stats.communication += 1;
                cores[ci].advance();
                issued += 1;
                used[ui] += 1;
                progressed = true;
                continue;
            }
            Op::ProduceSync { queue } => {
                if queue.index() >= sa.len() {
                    return Err(ExecError::BadQueue(instr));
                }
                if !sa.can_produce(queue.index()) {
                    cores[ci].stats.record_stall(StallReason::QueueFull);
                    break;
                }
                *sa_ports_left -= 1;
                if sa.produce(queue.index(), 1, now).is_err() {
                    return Err(ExecError::InvalidConfig(sa_overflow()));
                }
                cores[ci].stats.synchronization += 1;
                cores[ci].advance();
                issued += 1;
                used[ui] += 1;
                progressed = true;
                continue;
            }
            Op::ConsumeSync { queue } => {
                if queue.index() >= sa.len() {
                    return Err(ExecError::BadQueue(instr));
                }
                // Acquire semantics: block issue until the token is
                // visible.
                if !sa.has_visible_entry(queue.index(), now) {
                    cores[ci].stats.record_stall(StallReason::QueueEmpty);
                    break;
                }
                *sa_ports_left -= 1;
                // Gated on `has_visible_entry` above; an empty pop is
                // harmless but counts as no token consumed.
                let _ = sa.pop_token(queue.index(), now);
                cores[ci].stats.synchronization += 1;
                cores[ci].advance();
                issued += 1;
                used[ui] += 1;
                progressed = true;
                continue;
            }
            Op::Branch { cond, then_bb, else_bb } => {
                let taken = cores[ci].regs[cond.index()] != 0;
                // Static backward-taken/forward-not-taken prediction:
                // predict taken iff the taken target does not move
                // forward in block order (a loop back edge).
                if let crate::config::BranchModel::StaticBtfn { penalty } = config.branch_model {
                    let predict_taken = then_bb <= cores[ci].block;
                    if predict_taken != taken {
                        cores[ci].stats.mispredicts += 1;
                        cores[ci].fetch_stalled_until = now + penalty;
                    }
                }
                cores[ci].jump_to(if taken { then_bb } else { else_bb });
                end_group = true;
            }
            Op::Jump(t) => {
                cores[ci].jump_to(t);
                end_group = true;
            }
            Op::Ret(v) => {
                if let Some(v) = v {
                    *return_value = Some(cores[ci].operand(v));
                }
                cores[ci].finished = true;
                cores[ci].stats.finished_at = now + 1;
                end_group = true;
            }
            Op::Nop => {
                cores[ci].advance();
            }
        }
        cores[ci].stats.computation += 1;
        issued += 1;
        used[ui] += 1;
        progressed = true;
        if end_group {
            break; // simple front end: nothing issues past a taken redirect
        }
    }
    Ok(progressed)
}
