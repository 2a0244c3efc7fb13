//! A single-threaded interpreter: the functional reference semantics,
//! the edge profiler, and the dynamic-instruction counter.
//!
//! [`run`] executes through the pre-decoded flat instruction stream
//! ([`crate::decoded`]); [`run_with_memory_reference`] keeps the original
//! ID-walking stepper, which the `decoded_equivalence` tests hold
//! byte-identical to the decoded path.
//!
//! There is no single-threaded scheduler: every entry point here hands
//! the multi-threaded one (`interp_mt::drive`) one thread, `NoQueues`
//! and an edge observer that fills the [`Profile`], and since nothing
//! can block that thread, the run is one `Thread::run` from entry to
//! `ret`. Each code form executes its own loop: the decoded form one
//! flat loop over the stream, the reference form one step at a time.
//! Each charges its own fuel and counts its own instructions, so
//! decoded ≡ reference compares the decoder, both loops and both
//! classifications; only the run order and the deadlock witness are
//! shared.

use crate::decoded::{DecodedFunction, DecodedThread, InstrKind};
use crate::function::Function;
use crate::instr::Op;
use crate::interp_mt::{drive, Running};
use crate::profile::{EdgeCounts, Profile};
use crate::types::{AddrMode, BlockId, InstrId, ObjectId, Operand, QueueId, Reg};
use std::error::Error;
use std::fmt;

/// Interpreter limits.
#[derive(Clone, Debug)]
pub struct ExecConfig {
    /// Maximum dynamic instructions before the run is aborted with
    /// [`ExecError::OutOfFuel`].
    pub max_steps: u64,
}

impl Default for ExecConfig {
    fn default() -> ExecConfig {
        ExecConfig { max_steps: 500_000_000 }
    }
}

/// The memory layout of a function's objects: each object is placed at
/// a fixed base address in one flat cell array, in declaration order,
/// with a one-cell red zone between objects so off-by-one indexing is
/// caught rather than silently corrupting a neighbor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MemoryLayout {
    bases: Vec<u64>,
    total: u64,
}

/// Largest layout (in cells) any executor will materialize. Untrusted
/// object tables — a parsed function can declare sizes up to
/// `u64::MAX` — must produce [`ExecError::InvalidConfig`] rather than
/// an allocation abort, so every run path checks against this budget
/// before touching the allocator.
pub const MAX_MEMORY_CELLS: u64 = 1 << 30;

impl MemoryLayout {
    /// Computes the layout of `f`'s objects. Address arithmetic
    /// saturates: an object table whose total overflows `u64` yields a
    /// layout over [`MAX_MEMORY_CELLS`], which every executor rejects
    /// as [`ExecError::InvalidConfig`] at memory-creation time.
    pub fn of(f: &Function) -> MemoryLayout {
        let mut bases = Vec::with_capacity(f.objects().len());
        // Address 0 is reserved so a zero "null" base faults.
        let mut next = 1u64;
        for obj in f.objects() {
            bases.push(next);
            // +1 red-zone cell (also keeps zero-sized objects at
            // distinct addresses).
            next = next.saturating_add(obj.size).saturating_add(1);
        }
        MemoryLayout { bases, total: next }
    }

    /// Base address of object `o`.
    pub fn base(&self, o: ObjectId) -> u64 {
        self.bases[o.index()]
    }

    /// Total number of cells (including red zones).
    pub fn total_cells(&self) -> u64 {
        self.total
    }
}

/// Flat data memory shared by all threads of a run.
#[derive(Clone, Debug)]
pub struct Memory {
    cells: Vec<i64>,
}

impl Memory {
    /// Zero-initialized memory sized for `layout`.
    ///
    /// # Errors
    ///
    /// [`ExecError::InvalidConfig`] when the layout exceeds
    /// [`MAX_MEMORY_CELLS`] (including the saturated total of an
    /// overflowing object table) — the typed rejection for hostile
    /// object sizes.
    pub fn for_layout(layout: &MemoryLayout) -> Result<Memory, ExecError> {
        let total = layout.total_cells();
        if total > MAX_MEMORY_CELLS {
            return Err(ExecError::InvalidConfig(format!(
                "memory layout of {total} cells exceeds the executor budget of {MAX_MEMORY_CELLS}"
            )));
        }
        Ok(Memory { cells: vec![0; total as usize] })
    }

    /// Reads the cell at `addr`.
    ///
    /// # Errors
    ///
    /// [`ExecError::MemoryFault`] if out of bounds.
    #[inline]
    pub fn read(&self, addr: i64) -> Result<i64, ExecError> {
        self.cells
            .get(usize::try_from(addr).map_err(|_| ExecError::MemoryFault { addr })?)
            .copied()
            .ok_or(ExecError::MemoryFault { addr })
    }

    /// Writes the cell at `addr`.
    ///
    /// # Errors
    ///
    /// [`ExecError::MemoryFault`] if out of bounds.
    #[inline]
    pub fn write(&mut self, addr: i64, value: i64) -> Result<(), ExecError> {
        let idx = usize::try_from(addr).map_err(|_| ExecError::MemoryFault { addr })?;
        match self.cells.get_mut(idx) {
            Some(cell) => {
                *cell = value;
                Ok(())
            }
            None => Err(ExecError::MemoryFault { addr }),
        }
    }

    /// Bulk view of the cells (for workload initialization).
    pub fn cells_mut(&mut self) -> &mut [i64] {
        &mut self.cells
    }

    /// Read-only view of the cells.
    pub fn cells(&self) -> &[i64] {
        &self.cells
    }
}

/// The kind of queue operation a deadlocked thread was blocked on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlockedOp {
    /// A `produce`/`produce.sync` found its queue full.
    ProduceFull,
    /// A `consume`/`consume.sync` waited on an empty queue.
    ConsumeEmpty,
}

impl BlockedOp {
    /// Stable kebab-case label used in diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            BlockedOp::ProduceFull => "produce-full",
            BlockedOp::ConsumeEmpty => "consume-empty",
        }
    }
}

/// Where a multi-threaded deadlock was detected: the first blocked
/// unfinished core in index order, the queue its stalled operation
/// addresses, and the blocking direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeadlockInfo {
    /// The blocked core (thread index).
    pub core: usize,
    /// The queue the blocking operation addresses.
    pub queue: QueueId,
    /// Whether the core was producing into a full queue or consuming
    /// from an empty one.
    pub op: BlockedOp,
}

/// Dynamic-execution failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// The step budget ran out (probable infinite loop).
    OutOfFuel,
    /// An out-of-bounds memory access.
    MemoryFault {
        /// The faulting address.
        addr: i64,
    },
    /// A communication instruction was executed outside a
    /// multi-threaded run (single-threaded code must not contain
    /// produce/consume).
    CommunicationOutsideMt(InstrId),
    /// Fewer arguments than parameters were supplied.
    MissingArguments,
    /// Multi-threaded execution deadlocked: every unfinished thread is
    /// blocked on a queue. The payload (when attributable) names the
    /// first blocked core, its queue, and the blocking op kind.
    Deadlock(Option<DeadlockInfo>),
    /// A queue id outside the configured queue count was referenced.
    BadQueue(InstrId),
    /// The run was configured with values the executor cannot model
    /// (no threads, a zero-way cache, a zero-width core, ...). The
    /// string names the offending parameter.
    InvalidConfig(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::OutOfFuel => write!(f, "execution exceeded the step budget"),
            ExecError::MemoryFault { addr } => write!(f, "memory fault at address {addr}"),
            ExecError::CommunicationOutsideMt(i) => {
                write!(f, "communication instruction {i:?} in single-threaded run")
            }
            ExecError::MissingArguments => write!(f, "fewer arguments than parameters"),
            ExecError::Deadlock(None) => write!(f, "deadlock: all unfinished threads blocked"),
            ExecError::Deadlock(Some(d)) => write!(
                f,
                "deadlock: all unfinished threads blocked; core {} {} on queue {}",
                d.core,
                d.op.name(),
                d.queue.0
            ),
            ExecError::BadQueue(i) => write!(f, "instruction {i:?} references bad queue"),
            ExecError::InvalidConfig(what) => write!(f, "invalid configuration: {what}"),
        }
    }
}

impl Error for ExecError {}

/// Dynamic instruction counts of a run, split the way Figure 1 of the
/// paper splits them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DynCounts {
    /// Original program ("computation") instructions.
    pub computation: u64,
    /// `produce`/`consume` register/control communication instructions.
    pub communication: u64,
    /// `produce.sync`/`consume.sync` memory synchronization
    /// instructions.
    pub synchronization: u64,
}

impl DynCounts {
    /// All dynamic instructions.
    pub fn total(&self) -> u64 {
        self.computation + self.communication + self.synchronization
    }

    /// Communication plus synchronization (the quantity Figure 7
    /// reports).
    pub fn comm_total(&self) -> u64 {
        self.communication + self.synchronization
    }

    /// Adds another count.
    pub fn add(&mut self, other: DynCounts) {
        self.computation += other.computation;
        self.communication += other.communication;
        self.synchronization += other.synchronization;
    }
}

/// The result of a single-threaded run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// The value returned by `ret`, if any.
    pub return_value: Option<i64>,
    /// The observable output trace.
    pub output: Vec<i64>,
    /// Dynamic instruction counts.
    pub counts: DynCounts,
    /// The edge profile collected during the run.
    pub profile: Profile,
    /// Final memory state.
    pub memory: Memory,
}

/// Runs `f` to completion with zeroed memory.
///
/// # Errors
///
/// See [`ExecError`].
pub fn run(f: &Function, args: &[i64], config: &ExecConfig) -> Result<RunResult, ExecError> {
    run_with_memory(f, args, |_, _| {}, config)
}

/// Runs `f` after letting `init` populate memory (given the layout).
///
/// # Errors
///
/// See [`ExecError`].
pub fn run_with_memory(
    f: &Function,
    args: &[i64],
    init: impl FnOnce(&MemoryLayout, &mut Memory),
    config: &ExecConfig,
) -> Result<RunResult, ExecError> {
    let d = DecodedFunction::decode(f);
    run_single::<DecodedThread>(&d, d.layout(), d.num_blocks(), args, init, config)
}

/// The ID-walking reference executor ([`run_with_memory`] without
/// pre-decoding). Kept as the semantic oracle for the decoded engine.
///
/// # Errors
///
/// See [`ExecError`].
pub fn run_with_memory_reference(
    f: &Function,
    args: &[i64],
    init: impl FnOnce(&MemoryLayout, &mut Memory),
    config: &ExecConfig,
) -> Result<RunResult, ExecError> {
    run_single::<ThreadState>(f, &MemoryLayout::of(f), f.num_blocks(), args, init, config)
}

/// A single-threaded run is a multi-threaded run of one thread that has
/// no queues, with the edge observer filling the profile: one
/// [`Thread::run`] to `ret`, fuel or a fault.
fn run_single<'a, T: Thread<'a>>(
    code: &'a T::Code,
    layout: &'a MemoryLayout,
    blocks: usize,
    args: &[i64],
    init: impl FnOnce(&MemoryLayout, &mut Memory),
    config: &ExecConfig,
) -> Result<RunResult, ExecError> {
    let mut memory = Memory::for_layout(layout)?;
    init(layout, &mut memory);
    let mut thread = [Running::new(T::start(code, args, layout)?)];
    let mut edges = EdgeCounts::new(blocks);
    let on_edge = |from, to| edges.count(from, to);
    let (return_value, output) =
        drive(&mut thread, &mut memory, &mut NoQueues, config, on_edge)?;
    let [Running { counts, .. }] = thread;
    Ok(RunResult { return_value, output, counts, profile: edges.into_profile(), memory })
}

/// Queue access used by [`Thread::run`]; single-threaded runs use
/// [`NoQueues`], the multi-threaded interpreter supplies real queues.
/// `instr` is the executing instruction, for the error a bad access
/// reports.
pub(crate) trait QueueAccess {
    /// Attempts to push; `Ok(true)` on success, `Ok(false)` when full.
    fn try_produce(&mut self, queue: usize, value: i64, instr: InstrId)
        -> Result<bool, ExecError>;
    /// Attempts to pop; `Ok(Some(v))` on success, `Ok(None)` when empty.
    fn try_consume(&mut self, queue: usize, instr: InstrId) -> Result<Option<i64>, ExecError>;
}

/// Queue access that rejects all communication (single-threaded runs).
pub(crate) struct NoQueues;

impl QueueAccess for NoQueues {
    fn try_produce(&mut self, _q: usize, _v: i64, instr: InstrId) -> Result<bool, ExecError> {
        Err(ExecError::CommunicationOutsideMt(instr))
    }
    fn try_consume(&mut self, _q: usize, instr: InstrId) -> Result<Option<i64>, ExecError> {
        Err(ExecError::CommunicationOutsideMt(instr))
    }
}

/// Why a [`Thread::run`] stopped without an error.
pub(crate) enum Stop {
    /// Blocked on a queue; the program counter stays on the blocking
    /// op.
    Blocked,
    /// Executed `ret`.
    Returned(Option<i64>),
}

/// One thread of a functional run, in either code form: what
/// [`drive`] needs of it. The two implementations — [`DecodedThread`]
/// over the flat stream, [`ThreadState`] walking block and instruction
/// ids — share nothing below this trait, which is what the
/// decoded ≡ reference comparison relies on: each keeps its own fuel
/// and its own count of what it executed.
pub(crate) trait Thread<'a>: Sized {
    /// The code form the thread executes.
    type Code;

    /// A thread at the entry of `code` with `args` in its parameters.
    fn start(
        code: &'a Self::Code,
        args: &[i64],
        layout: &'a MemoryLayout,
    ) -> Result<Self, ExecError>;

    /// Executes instructions until the thread blocks on a queue or
    /// executes `ret`. Each executed instruction takes one unit of
    /// `fuel` and is added to `counts` by its kind (`ret` and every
    /// branch and jump are computation); a poll that finds its queue
    /// blocked executes nothing and costs nothing. `on_edge` sees every
    /// CFG edge a branch or jump takes.
    ///
    /// # Errors
    ///
    /// [`ExecError::OutOfFuel`] when `fuel` is 0 before an instruction,
    /// including a poll, and whatever fault an instruction raises. An
    /// error ends the whole execution: nothing reads `fuel`, `counts`
    /// or the thread after one.
    fn run<Q: QueueAccess, E: FnMut(BlockId, BlockId)>(
        &mut self,
        memory: &mut Memory,
        output: &mut Vec<i64>,
        queues: &mut Q,
        fuel: &mut u64,
        counts: &mut DynCounts,
        on_edge: &mut E,
    ) -> Result<Stop, ExecError>;

    /// The queue the next instruction addresses and the direction it
    /// blocks in, when it is a communication instruction.
    fn next_queue_op(&self) -> Option<(QueueId, BlockedOp)>;
}

/// What one step of the reference stepper did.
enum StepOutcome {
    /// Executed a straight-line instruction of the given kind.
    Continue(InstrKind),
    /// Executed a terminator, traversing the given CFG edge.
    TookEdge(BlockId, BlockId),
    /// Blocked on a queue; the program counter did not advance.
    Blocked,
    /// Executed `ret`.
    Returned(Option<i64>),
}

/// Architectural state of one thread walking a [`Function`] by block
/// and instruction id. Borrows the run's shared [`MemoryLayout`] rather
/// than cloning it per thread.
pub(crate) struct ThreadState<'a> {
    f: &'a Function,
    regs: Vec<i64>,
    block: BlockId,
    /// Index into the block: `< len` body, `== len` terminator.
    pos: usize,
    layout: &'a MemoryLayout,
}

impl ThreadState<'_> {
    fn reg(&self, r: Reg) -> i64 {
        self.regs[r.index()]
    }

    fn operand(&self, o: Operand) -> i64 {
        match o {
            Operand::Reg(r) => self.reg(r),
            Operand::Imm(v) => v,
        }
    }

    fn addr(&self, a: AddrMode) -> i64 {
        self.reg(a.base).wrapping_add(a.offset)
    }

    /// The instruction the thread will execute next.
    ///
    /// # Errors
    ///
    /// [`ExecError::InvalidConfig`] when control sits at the end of a
    /// block with no terminator — an unverified function handed
    /// straight to the executor instead of a panic.
    fn current_instr(&self) -> Result<InstrId, ExecError> {
        let block = self.f.block(self.block);
        if self.pos < block.instrs.len() {
            Ok(block.instrs[self.pos])
        } else {
            block.terminator.ok_or_else(|| unterminated(self.block))
        }
    }
}

impl<'a> Thread<'a> for ThreadState<'a> {
    type Code = Function;

    fn start(
        f: &'a Function,
        args: &[i64],
        layout: &'a MemoryLayout,
    ) -> Result<ThreadState<'a>, ExecError> {
        if args.len() < f.params.len() {
            return Err(ExecError::MissingArguments);
        }
        let mut regs = vec![0i64; f.num_regs() as usize];
        for (r, &v) in f.params.iter().zip(args) {
            regs[r.index()] = v;
        }
        Ok(ThreadState { f, regs, block: f.entry(), pos: 0, layout })
    }

    fn next_queue_op(&self) -> Option<(QueueId, BlockedOp)> {
        let op = self.f.instr(self.current_instr().ok()?);
        let blocked = match op {
            Op::Produce { .. } | Op::ProduceSync { .. } => BlockedOp::ProduceFull,
            _ => BlockedOp::ConsumeEmpty,
        };
        Some((op.queue()?, blocked))
    }

    /// One [`ThreadState::step`] at a time, with the fuel and count
    /// rules applied to each outcome.
    fn run<Q: QueueAccess, E: FnMut(BlockId, BlockId)>(
        &mut self,
        memory: &mut Memory,
        output: &mut Vec<i64>,
        queues: &mut Q,
        fuel: &mut u64,
        counts: &mut DynCounts,
        on_edge: &mut E,
    ) -> Result<Stop, ExecError> {
        loop {
            if *fuel == 0 {
                return Err(ExecError::OutOfFuel);
            }
            let kind = match self.step(memory, output, queues)? {
                StepOutcome::Blocked => return Ok(Stop::Blocked),
                StepOutcome::Continue(kind) => kind,
                StepOutcome::TookEdge(from, to) => {
                    on_edge(from, to);
                    InstrKind::Computation
                }
                StepOutcome::Returned(v) => {
                    *fuel -= 1;
                    counts.computation += 1;
                    return Ok(Stop::Returned(v));
                }
            };
            *fuel -= 1;
            match kind {
                InstrKind::Computation => counts.computation += 1,
                InstrKind::Communication => counts.communication += 1,
                InstrKind::Synchronization => counts.synchronization += 1,
            }
        }
    }
}

impl ThreadState<'_> {
    /// Executes one instruction (or reports a queue block).
    fn step<Q: QueueAccess>(
        &mut self,
        memory: &mut Memory,
        output: &mut Vec<i64>,
        queues: &mut Q,
    ) -> Result<StepOutcome, ExecError> {
        let instr_id = self.current_instr()?;
        let mut kind = InstrKind::Computation;
        match *self.f.instr(instr_id) {
            Op::Const(d, v) => self.regs[d.index()] = v,
            Op::Lea(d, obj, off) => self.regs[d.index()] = self.layout.base(obj) as i64 + off,
            Op::Bin(op, d, a, b) => {
                self.regs[d.index()] = op.eval(self.operand(a), self.operand(b));
            }
            Op::Un(op, d, a) => self.regs[d.index()] = op.eval(self.operand(a)),
            Op::Load(d, a) => self.regs[d.index()] = memory.read(self.addr(a))?,
            Op::Store(a, v) => memory.write(self.addr(a), self.operand(v))?,
            Op::Output(v) => output.push(self.operand(v)),
            Op::Branch { cond, then_bb, else_bb } => {
                let from = self.block;
                self.block = if self.reg(cond) != 0 { then_bb } else { else_bb };
                self.pos = 0;
                return Ok(StepOutcome::TookEdge(from, self.block));
            }
            Op::Jump(t) => {
                let from = self.block;
                self.block = t;
                self.pos = 0;
                return Ok(StepOutcome::TookEdge(from, t));
            }
            Op::Ret(v) => return Ok(StepOutcome::Returned(v.map(|o| self.operand(o)))),
            Op::Produce { queue, value } => {
                if !queues.try_produce(queue.index(), self.operand(value), instr_id)? {
                    return Ok(StepOutcome::Blocked);
                }
                kind = InstrKind::Communication;
            }
            Op::Consume { dst, queue } => {
                match queues.try_consume(queue.index(), instr_id)? {
                    Some(v) => self.regs[dst.index()] = v,
                    None => return Ok(StepOutcome::Blocked),
                }
                kind = InstrKind::Communication;
            }
            Op::ProduceSync { queue } => {
                if !queues.try_produce(queue.index(), 1, instr_id)? {
                    return Ok(StepOutcome::Blocked);
                }
                kind = InstrKind::Synchronization;
            }
            Op::ConsumeSync { queue } => {
                if queues.try_consume(queue.index(), instr_id)?.is_none() {
                    return Ok(StepOutcome::Blocked);
                }
                kind = InstrKind::Synchronization;
            }
            Op::Nop => {}
        }
        // Every straight-line instruction falls through to the next.
        self.pos += 1;
        Ok(StepOutcome::Continue(kind))
    }
}

/// Rejects a queue id outside the configured queue file at load time,
/// so a misallocated program fails before any thread runs instead of
/// faulting mid-run.
pub(crate) fn check_queue_id(queue: QueueId, num_queues: usize) -> Result<(), ExecError> {
    if queue.index() >= num_queues {
        return Err(ExecError::InvalidConfig(format!(
            "program targets queue {} but the configuration has {num_queues} queues",
            queue.0
        )));
    }
    Ok(())
}

/// The typed rejection for reaching the end of a terminator-less block
/// (only possible on functions that never passed [`crate::verify`]).
pub fn unterminated(b: BlockId) -> ExecError {
    ExecError::InvalidConfig(format!("block {b:?} has no terminator (function not verified)"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::types::{BinOp, QueueId};

    #[test]
    fn profile_matches_trip_counts() {
        // Loop of 7 iterations.
        let mut b = FunctionBuilder::new("l");
        let i = b.fresh_reg();
        let header = b.block("h");
        let body = b.block("b");
        let exit = b.block("x");
        b.const_into(i, 0);
        b.jump(header);
        b.switch_to(header);
        let c = b.bin(BinOp::Lt, i, 7i64);
        b.branch(c, body, exit);
        b.switch_to(body);
        b.bin_into(BinOp::Add, i, i, 1i64);
        b.jump(header);
        b.switch_to(exit);
        b.ret(None);
        let f = b.finish().unwrap();
        let r = run(&f, &[], &ExecConfig::default()).unwrap();
        use crate::types::BlockId;
        assert_eq!(r.profile.edge(BlockId(1), BlockId(2)), 7);
        assert_eq!(r.profile.edge(BlockId(1), BlockId(3)), 1);
        assert_eq!(r.profile.edge(BlockId(2), BlockId(1)), 7);
        assert_eq!(r.profile.block_weight(&f, BlockId(1)), 8);
    }

    #[test]
    fn output_trace_is_ordered() {
        let mut b = FunctionBuilder::new("o");
        b.output(1i64);
        b.output(2i64);
        b.output(3i64);
        b.ret(None);
        let f = b.finish().unwrap();
        let r = run(&f, &[], &ExecConfig::default()).unwrap();
        assert_eq!(r.output, vec![1, 2, 3]);
        assert_eq!(r.counts.computation, 4);
        assert_eq!(r.counts.comm_total(), 0);
    }

    #[test]
    fn out_of_fuel_detected() {
        let mut b = FunctionBuilder::new("spin");
        let header = b.block("h");
        let exit = b.block("x");
        let z = b.const_(0);
        b.jump(header);
        b.switch_to(header);
        let one = b.bin(BinOp::Eq, z, 0i64);
        b.branch(one, header, exit);
        b.switch_to(exit);
        b.ret(None);
        let f = b.finish().unwrap();
        let err = run(&f, &[], &ExecConfig { max_steps: 100 }).unwrap_err();
        assert_eq!(err, ExecError::OutOfFuel);
    }

    /// A memory layout whose object sizes overflow or exceed the
    /// executor budget is rejected with a typed error, not an OOM abort
    /// or an arithmetic panic.
    #[test]
    fn oversized_memory_layout_rejected() {
        let mut b = FunctionBuilder::new("huge");
        b.object("a", u64::MAX - 1);
        b.object("b", u64::MAX - 1); // total saturates instead of overflowing
        b.ret(None);
        let f = b.finish().unwrap();
        let err = run(&f, &[], &ExecConfig::default()).unwrap_err();
        assert!(
            matches!(&err, ExecError::InvalidConfig(m) if m.contains("budget")),
            "{err:?}"
        );

        // Just over the budget, no overflow involved.
        let mut b = FunctionBuilder::new("big");
        b.object("a", MAX_MEMORY_CELLS);
        b.ret(None);
        let f = b.finish().unwrap();
        let err = run(&f, &[], &ExecConfig::default()).unwrap_err();
        assert!(matches!(err, ExecError::InvalidConfig(_)), "{err:?}");
    }

    /// An unverified function whose entry block lacks a terminator is a
    /// typed error from the single-threaded engines, not a panic.
    #[test]
    fn unterminated_block_is_typed_error() {
        let b = FunctionBuilder::new("stub");
        let f = b.finish_unverified();
        let err = run(&f, &[], &ExecConfig::default()).unwrap_err();
        assert!(
            matches!(&err, ExecError::InvalidConfig(m) if m.contains("terminator")),
            "decoded: {err:?}"
        );
        let err =
            run_with_memory_reference(&f, &[], |_, _| {}, &ExecConfig::default()).unwrap_err();
        assert!(
            matches!(&err, ExecError::InvalidConfig(m) if m.contains("terminator")),
            "reference: {err:?}"
        );
    }

    #[test]
    fn memory_fault_on_wild_address() {
        let mut b = FunctionBuilder::new("wild");
        let p = b.const_(999_999);
        let v = b.load(p, 0);
        b.ret(Some(v.into()));
        let f = b.finish().unwrap();
        let err = run(&f, &[], &ExecConfig::default()).unwrap_err();
        assert!(matches!(err, ExecError::MemoryFault { .. }));
    }

    #[test]
    fn negative_address_faults() {
        let mut b = FunctionBuilder::new("neg");
        let p = b.const_(-5);
        b.store(p, 0, 1i64);
        b.ret(None);
        let f = b.finish().unwrap();
        assert!(matches!(
            run(&f, &[], &ExecConfig::default()),
            Err(ExecError::MemoryFault { addr: -5 })
        ));
    }

    #[test]
    fn communication_rejected_single_threaded() {
        let mut b = FunctionBuilder::new("comm");
        b.emit(Op::ProduceSync { queue: QueueId(0) });
        b.ret(None);
        let f = b.finish().unwrap();
        assert!(matches!(
            run(&f, &[], &ExecConfig::default()),
            Err(ExecError::CommunicationOutsideMt(_))
        ));
    }

    #[test]
    fn missing_arguments_detected() {
        let mut b = FunctionBuilder::new("p");
        let x = b.param();
        b.ret(Some(x.into()));
        let f = b.finish().unwrap();
        assert_eq!(run(&f, &[], &ExecConfig::default()).unwrap_err(), ExecError::MissingArguments);
    }

    #[test]
    fn red_zone_separates_objects() {
        let mut b = FunctionBuilder::new("rz");
        let a = b.object("a", 2);
        let c = b.object("c", 2);
        let pa = b.lea(a, 0);
        let pc = b.lea(c, 0);
        b.store(pa, 0, 11i64);
        b.store(pc, 0, 22i64);
        let va = b.load(pa, 0);
        b.ret(Some(va.into()));
        let f = b.finish().unwrap();
        let layout = MemoryLayout::of(&f);
        assert!(layout.base(crate::types::ObjectId(1)) >= layout.base(crate::types::ObjectId(0)) + 3);
        let r = run(&f, &[], &ExecConfig::default()).unwrap();
        assert_eq!(r.return_value, Some(11));
    }
}
