//! Pre-decoded flat instruction streams: the execution engine behind
//! the interpreters and the cycle simulator.
//!
//! The ID-walking executors pay three indirections per dynamic
//! instruction — `Function::block` to find the block, a bounds check to
//! pick body vs terminator, and `Function::instr` to fetch the `Op` —
//! plus a per-issue `Op` clone in the simulator.
//! [`DecodedFunction::decode`] pays all of that **once** per function:
//! blocks are laid out into one dense `Vec<DecodedOp>`, branch/jump
//! targets are resolved to flat stream indices (pcs), `lea`s are folded
//! to absolute addresses against the memory layout, and every slot
//! carries a [`SlotTiming`] record — functional-unit class, execution
//! latency, register-use slots, whether it communicates — so the hot
//! loops of `interp`, `interp_mt`, and `gmt-sim` are a single array
//! index per step.
//!
//! Executors built on this module are behaviorally *identical* to the
//! ID-walking reference paths (`interp::run_with_memory_reference`,
//! `interp_mt::run_mt_reference`, `gmt_sim::simulate_reference`): same
//! outputs, same counts, same cycle-level stall statistics. The
//! `decoded_equivalence` integration tests pin that equivalence over
//! random programs and the whole workload catalog.

use crate::function::Function;
use crate::instr::Op;
use crate::interp::{
    BlockedOp, DynCounts, ExecError, Memory, MemoryLayout, QueueAccess, Stop, Thread,
};
use crate::types::{AddrMode, BinOp, BlockId, InstrId, Operand, QueueId, Reg, UnOp};

/// One pre-decoded instruction: operands inline, control-flow targets
/// resolved to flat pcs, `lea` folded against the memory layout.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DecodedOp {
    /// `dst = imm`.
    Const(Reg, i64),
    /// `dst = addr` — a `lea` with the object base already folded in.
    LeaAbs(Reg, i64),
    /// `dst = a <op> b`.
    Bin(BinOp, Reg, Operand, Operand),
    /// `dst = <op> a`.
    Un(UnOp, Reg, Operand),
    /// `dst = mem[addr]`.
    Load(Reg, AddrMode),
    /// `mem[addr] = value`.
    Store(AddrMode, Operand),
    /// Emit to the output trace.
    Output(Operand),
    /// Conditional branch to flat pcs. `backward` records whether the
    /// taken target does not move forward in block order (the static
    /// BTFN prediction the simulator models).
    Branch {
        /// Condition register.
        cond: Reg,
        /// Flat pc when `cond != 0`.
        then_pc: u32,
        /// Flat pc when `cond == 0`.
        else_pc: u32,
        /// Taken target is a back edge in block order.
        backward: bool,
    },
    /// Unconditional jump to a flat pc.
    Jump(u32),
    /// Return with an optional value.
    Ret(Option<Operand>),
    /// Send into a queue.
    Produce {
        /// Destination queue.
        queue: QueueId,
        /// Value sent.
        value: Operand,
    },
    /// Receive from a queue.
    Consume {
        /// Destination register.
        dst: Reg,
        /// Source queue.
        queue: QueueId,
    },
    /// Send a synchronization token.
    ProduceSync {
        /// Destination queue.
        queue: QueueId,
    },
    /// Receive a synchronization token.
    ConsumeSync {
        /// Source queue.
        queue: QueueId,
    },
    /// No operation.
    Nop,
    /// Placeholder for a block left unterminated by its builder;
    /// executing it panics exactly like the ID-walking path does.
    Unterminated,
}

/// Functional-unit class of an instruction (the simulator's issue
/// resources: ALU, memory port, FP unit, branch unit).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecUnit {
    /// Integer ALU.
    Alu = 0,
    /// Memory port (loads, stores, and all produce/consume traffic).
    Mem = 1,
    /// Floating-point unit.
    Fp = 2,
    /// Branch unit.
    Branch = 3,
}

/// Dynamic-count classification of an instruction (the Figure 1
/// split).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InstrKind {
    /// Original program instruction.
    Computation,
    /// `produce`/`consume` register communication.
    Communication,
    /// `produce.sync`/`consume.sync` memory synchronization.
    Synchronization,
}

/// Sentinel for an unused register-use slot.
pub const NO_USE: u32 = u32::MAX;

/// Everything a cycle model asks about a slot *before* it knows the
/// instruction can issue — register uses for the scoreboard, the
/// functional unit for the structural check, whether it needs a
/// synchronization-array port — plus its execution latency, in one
/// 16-byte record, so the issue loop touches one cache line per
/// attempt and reads the 40-byte [`DecodedOp`] only for instructions
/// that do issue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlotTiming {
    /// Register uses (at most two; [`NO_USE`] fills the rest).
    pub uses: [u32; 2],
    /// Execution latency (cycles).
    pub latency: u32,
    /// Functional-unit class.
    pub unit: ExecUnit,
    /// Whether the op is a communication primitive (either kind).
    pub communication: bool,
}

/// A [`Function`] lowered once into a dense, contiguous instruction
/// stream with all per-instruction metadata pre-computed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecodedFunction {
    params: Vec<Reg>,
    num_regs: u32,
    ops: Vec<DecodedOp>,
    /// Source arena id per slot (error reporting).
    src: Vec<InstrId>,
    /// Containing block per slot (edge profiling).
    block: Vec<BlockId>,
    /// Issue-time facts per slot.
    timing: Vec<SlotTiming>,
    entry_pc: u32,
    layout: MemoryLayout,
}

/// Execution latency table (mirrored by the reference simulator).
fn latency_of(op: &Op) -> u32 {
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

/// Functional-unit table (mirrored by the reference simulator).
fn unit_of(op: &Op) -> ExecUnit {
    match op {
        Op::Bin(b, ..) if b.is_float_class() => ExecUnit::Fp,
        Op::Load(..)
        | Op::Store(..)
        | Op::Produce { .. }
        | Op::Consume { .. }
        | Op::ProduceSync { .. }
        | Op::ConsumeSync { .. } => ExecUnit::Mem,
        Op::Branch { .. } | Op::Jump(_) | Op::Ret(_) => ExecUnit::Branch,
        _ => ExecUnit::Alu,
    }
}

impl DecodedOp {
    /// Dynamic-count classification of this op.
    #[inline]
    pub fn kind(&self) -> InstrKind {
        match self {
            DecodedOp::Produce { .. } | DecodedOp::Consume { .. } => InstrKind::Communication,
            DecodedOp::ProduceSync { .. } | DecodedOp::ConsumeSync { .. } => {
                InstrKind::Synchronization
            }
            _ => InstrKind::Computation,
        }
    }

    /// Whether this op is a communication primitive (either kind).
    #[inline]
    pub fn is_communication(&self) -> bool {
        !matches!(self.kind(), InstrKind::Computation)
    }

    /// The queue a communication op addresses and the direction it
    /// blocks in.
    pub(crate) fn queue_op(&self) -> Option<(QueueId, BlockedOp)> {
        match *self {
            DecodedOp::Produce { queue, .. } | DecodedOp::ProduceSync { queue } => {
                Some((queue, BlockedOp::ProduceFull))
            }
            DecodedOp::Consume { queue, .. } | DecodedOp::ConsumeSync { queue } => {
                Some((queue, BlockedOp::ConsumeEmpty))
            }
            _ => None,
        }
    }

    /// The op with its queue operand, if it has one, replaced by
    /// `queue`.
    fn with_queue(self, queue: QueueId) -> DecodedOp {
        match self {
            DecodedOp::Produce { value, .. } => DecodedOp::Produce { queue, value },
            DecodedOp::Consume { dst, .. } => DecodedOp::Consume { dst, queue },
            DecodedOp::ProduceSync { .. } => DecodedOp::ProduceSync { queue },
            DecodedOp::ConsumeSync { .. } => DecodedOp::ConsumeSync { queue },
            other => other,
        }
    }
}

impl DecodedFunction {
    /// Decodes `f` against its own memory layout.
    pub fn decode(f: &Function) -> DecodedFunction {
        DecodedFunction::decode_with_layout(f, &MemoryLayout::of(f))
    }

    /// Decodes `f` against a caller-supplied layout (multi-threaded
    /// runs lay memory out from thread 0's object table and share it).
    pub fn decode_with_layout(f: &Function, layout: &MemoryLayout) -> DecodedFunction {
        let nb = f.num_blocks();
        let mut block_start = vec![0u32; nb];
        let mut total = 0u32;
        for b in f.blocks() {
            block_start[b.index()] = total;
            // Every block occupies body + exactly one terminator slot
            // (a placeholder when unterminated).
            total += f.block(b).instrs.len() as u32 + 1;
        }

        let n = total as usize;
        let mut d = DecodedFunction {
            params: f.params.clone(),
            num_regs: f.num_regs(),
            ops: Vec::with_capacity(n),
            src: Vec::with_capacity(n),
            block: Vec::with_capacity(n),
            timing: Vec::with_capacity(n),
            entry_pc: block_start[f.entry().index()],
            layout: layout.clone(),
        };

        for b in f.blocks() {
            let blk = f.block(b);
            for i in blk.all_instrs() {
                let op = f.instr(i);
                let lowered = lower(op, b, layout, &block_start);
                d.ops.push(lowered);
                d.src.push(i);
                d.block.push(b);
                d.timing.push(SlotTiming {
                    uses: op.use_slots().map(|r| r.map_or(NO_USE, |r| r.0)),
                    latency: latency_of(op),
                    unit: unit_of(op),
                    communication: op.is_communication(),
                });
            }
            if blk.terminator.is_none() {
                d.ops.push(DecodedOp::Unterminated);
                d.src.push(InstrId(u32::MAX));
                d.block.push(b);
                d.timing.push(SlotTiming {
                    uses: [NO_USE; 2],
                    latency: 1,
                    unit: ExecUnit::Branch,
                    communication: false,
                });
            }
        }
        d
    }

    /// Registers holding the arguments on entry.
    pub fn params(&self) -> &[Reg] {
        &self.params
    }

    /// Number of virtual registers.
    pub fn num_regs(&self) -> u32 {
        self.num_regs
    }

    /// Number of slots in the flat stream.
    pub fn num_slots(&self) -> usize {
        self.ops.len()
    }

    /// Number of blocks: the last slot belongs to the last block.
    pub(crate) fn num_blocks(&self) -> usize {
        self.block.last().map_or(0, |b| b.index() + 1)
    }

    /// The pc of the entry block's first instruction.
    pub fn entry_pc(&self) -> u32 {
        self.entry_pc
    }

    /// The op at `pc`.
    #[inline]
    pub fn op(&self, pc: u32) -> DecodedOp {
        self.ops[pc as usize]
    }

    /// The source arena id of the op at `pc`.
    #[inline]
    pub fn src(&self, pc: u32) -> InstrId {
        self.src[pc as usize]
    }

    /// The block containing the op at `pc`.
    #[inline]
    pub fn block(&self, pc: u32) -> BlockId {
        self.block[pc as usize]
    }

    /// The issue-time facts of the op at `pc`, as one record.
    #[inline]
    pub fn timing(&self, pc: u32) -> SlotTiming {
        self.timing[pc as usize]
    }

    /// The functional-unit class of the op at `pc`.
    #[inline]
    pub fn unit(&self, pc: u32) -> ExecUnit {
        self.timing(pc).unit
    }

    /// The execution latency of the op at `pc`.
    #[inline]
    pub fn latency(&self, pc: u32) -> u32 {
        self.timing(pc).latency
    }

    /// The register-use slots of the op at `pc` ([`NO_USE`]-padded).
    #[inline]
    pub fn uses(&self, pc: u32) -> [u32; 2] {
        self.timing(pc).uses
    }

    /// The memory layout the stream was decoded against.
    pub fn layout(&self) -> &MemoryLayout {
        &self.layout
    }

    /// Checks that `args` covers the parameters, mirroring the
    /// reference executors' argument check.
    ///
    /// # Errors
    ///
    /// [`ExecError::MissingArguments`] when too few arguments are
    /// supplied.
    pub fn check_args(&self, args: &[i64]) -> Result<(), ExecError> {
        if args.len() < self.params.len() {
            return Err(ExecError::MissingArguments);
        }
        Ok(())
    }
}

fn lower(op: &Op, b: BlockId, layout: &MemoryLayout, block_start: &[u32]) -> DecodedOp {
    match *op {
        Op::Const(d, v) => DecodedOp::Const(d, v),
        Op::Lea(d, obj, off) => DecodedOp::LeaAbs(d, layout.base(obj) as i64 + off),
        Op::Bin(o, d, x, y) => DecodedOp::Bin(o, d, x, y),
        Op::Un(o, d, x) => DecodedOp::Un(o, d, x),
        Op::Load(d, a) => DecodedOp::Load(d, a),
        Op::Store(a, v) => DecodedOp::Store(a, v),
        Op::Output(v) => DecodedOp::Output(v),
        Op::Branch { cond, then_bb, else_bb } => DecodedOp::Branch {
            cond,
            then_pc: block_start[then_bb.index()],
            else_pc: block_start[else_bb.index()],
            backward: then_bb <= b,
        },
        Op::Jump(t) => DecodedOp::Jump(block_start[t.index()]),
        Op::Ret(v) => DecodedOp::Ret(v),
        Op::Produce { queue, value } => DecodedOp::Produce { queue, value },
        Op::Consume { dst, queue } => DecodedOp::Consume { dst, queue },
        Op::ProduceSync { queue } => DecodedOp::ProduceSync { queue },
        Op::ConsumeSync { queue } => DecodedOp::ConsumeSync { queue },
        Op::Nop => DecodedOp::Nop,
    }
}

/// A non-empty set of per-thread decoded functions sharing one memory
/// layout (thread 0's, the multi-threaded executors' convention).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecodedProgram {
    threads: Vec<DecodedFunction>,
    layout: MemoryLayout,
}

impl DecodedProgram {
    /// Decodes every thread against thread 0's memory layout.
    ///
    /// # Errors
    ///
    /// [`ExecError::InvalidConfig`] when `threads` is empty.
    pub fn decode(threads: &[Function]) -> Result<DecodedProgram, ExecError> {
        let first = threads
            .first()
            .ok_or_else(|| ExecError::InvalidConfig("at least one thread required".to_string()))?;
        let layout = MemoryLayout::of(first);
        let threads =
            threads.iter().map(|f| DecodedFunction::decode_with_layout(f, &layout)).collect();
        Ok(DecodedProgram { threads, layout })
    }

    /// The decoded threads.
    pub fn threads(&self) -> &[DecodedFunction] {
        &self.threads
    }

    /// Number of threads.
    pub fn len(&self) -> usize {
        self.threads.len()
    }

    /// Whether the program has no threads (never true for a decoded
    /// program; kept for clippy symmetry).
    pub fn is_empty(&self) -> bool {
        self.threads.is_empty()
    }

    /// The shared memory layout (thread 0's).
    pub fn layout(&self) -> &MemoryLayout {
        &self.layout
    }

    /// Whether `self` is `other` up to a bijective renaming of queue
    /// ids, and if so the renaming, as `(queue of self, queue of
    /// other)` pairs in ascending order: the same threads in the same
    /// order, equal in everything an executor reads — parameters,
    /// register count, entry pc, memory layout, source and block
    /// tables, [`SlotTiming`] and every op and operand — except that
    /// the queue operands of the communication ops are related by one
    /// bijection that holds across all threads.
    ///
    /// A queue id names a channel between two program points and
    /// nothing else: queues of equal capacity are interchangeable to
    /// the functional interpreter and to the cycle engine, so two
    /// programs alike under this comparison, run on files that give
    /// every paired queue the same capacity, produce the same outputs,
    /// counts, cycles and stall statistics (DESIGN.md, "queue names are
    /// not observable"). Plain `==` is the special case where every
    /// pair is `(q, q)`.
    pub fn queue_renaming(&self, other: &DecodedProgram) -> Option<Vec<(QueueId, QueueId)>> {
        if self.layout != other.layout || self.threads.len() != other.threads.len() {
            return None;
        }
        let mut pairs: Vec<(QueueId, QueueId)> = Vec::new();
        for (a, b) in self.threads.iter().zip(&other.threads) {
            // Destructured in full, so a field added to the stream
            // cannot be left out of the comparison.
            let DecodedFunction { params, num_regs, ops, src, block, timing, entry_pc, layout } = a;
            let same_but_ops = *params == b.params
                && *num_regs == b.num_regs
                && *src == b.src
                && *block == b.block
                && *timing == b.timing
                && *entry_pc == b.entry_pc
                && *layout == b.layout
                && ops.len() == b.ops.len();
            if !same_but_ops {
                return None;
            }
            for (&x, &y) in ops.iter().zip(&b.ops) {
                match (x.queue_op(), y.queue_op()) {
                    (None, None) if x == y => {}
                    (Some((qx, _)), Some((qy, _))) if x.with_queue(qy) == y => {
                        // One pair per queue on either side: a second
                        // partner breaks the function one way and the
                        // injection the other.
                        match pairs.iter().find(|p| p.0 == qx || p.1 == qy) {
                            Some(&p) if p != (qx, qy) => return None,
                            Some(_) => {}
                            None => pairs.push((qx, qy)),
                        }
                    }
                    _ => return None,
                }
            }
        }
        pairs.sort_unstable();
        Some(pairs)
    }

    /// Rejects a program with a communication slot that targets a queue
    /// outside a file of `num_queues`, so a misallocated program fails
    /// at load time — in the functional interpreter and the cycle
    /// engine alike — instead of as a mid-run [`ExecError::BadQueue`].
    ///
    /// # Errors
    ///
    /// [`ExecError::InvalidConfig`] naming the first offending queue.
    pub fn check_queue_ids(&self, num_queues: usize) -> Result<(), ExecError> {
        let queues = self.threads.iter().flat_map(|d| &d.ops).filter_map(DecodedOp::queue_op);
        for (queue, _) in queues {
            crate::interp::check_queue_id(queue, num_queues)?;
        }
        Ok(())
    }
}

/// Architectural state of one thread executing a decoded stream: a
/// register file and a flat pc. Used by both interpreters.
pub(crate) struct DecodedThread<'a> {
    d: &'a DecodedFunction,
    regs: Vec<i64>,
    pc: u32,
}

#[inline]
fn value(regs: &[i64], o: Operand) -> i64 {
    match o {
        Operand::Reg(r) => regs[r.index()],
        Operand::Imm(v) => v,
    }
}

#[inline]
fn address(regs: &[i64], a: AddrMode) -> i64 {
    regs[a.base.index()].wrapping_add(a.offset)
}

impl<'a> Thread<'a> for DecodedThread<'a> {
    type Code = DecodedFunction;

    fn start(
        d: &'a DecodedFunction,
        args: &[i64],
        _layout: &'a MemoryLayout,
    ) -> Result<DecodedThread<'a>, ExecError> {
        d.check_args(args)?;
        let mut regs = vec![0i64; d.num_regs() as usize];
        for (r, &v) in d.params().iter().zip(args) {
            regs[r.index()] = v;
        }
        Ok(DecodedThread { d, regs, pc: d.entry_pc() })
    }

    fn next_queue_op(&self) -> Option<(QueueId, BlockedOp)> {
        self.d.op(self.pc).queue_op()
    }

    /// One flat loop over the stream. The pc and the fuel left live in
    /// locals and are written back once, when the run stops, with the
    /// computation count they imply; communication and synchronization
    /// are counted where they execute.
    #[inline]
    fn run<Q: QueueAccess, E: FnMut(BlockId, BlockId)>(
        &mut self,
        memory: &mut Memory,
        output: &mut Vec<i64>,
        queues: &mut Q,
        fuel: &mut u64,
        counts: &mut DynCounts,
        on_edge: &mut E,
    ) -> Result<Stop, ExecError> {
        let d = self.d;
        let (ops, regs) = (&d.ops[..], &mut self.regs[..]);
        let mut pc = self.pc as usize;
        let mut left = *fuel;
        let communicated = counts.comm_total();
        let stop = loop {
            if left == 0 {
                return Err(ExecError::OutOfFuel);
            }
            // A straight-line op falls through to `pc + 1`, which is
            // always a slot: every block ends in its terminator's slot,
            // `Unterminated` standing in for a missing terminator.
            pc = match ops[pc] {
                DecodedOp::Const(dst, v) => {
                    regs[dst.index()] = v;
                    pc + 1
                }
                DecodedOp::LeaAbs(dst, addr) => {
                    regs[dst.index()] = addr;
                    pc + 1
                }
                DecodedOp::Bin(op, dst, a, b) => {
                    regs[dst.index()] = op.eval(value(regs, a), value(regs, b));
                    pc + 1
                }
                DecodedOp::Un(op, dst, a) => {
                    regs[dst.index()] = op.eval(value(regs, a));
                    pc + 1
                }
                DecodedOp::Load(dst, a) => {
                    regs[dst.index()] = memory.read(address(regs, a))?;
                    pc + 1
                }
                DecodedOp::Store(a, v) => {
                    memory.write(address(regs, a), value(regs, v))?;
                    pc + 1
                }
                DecodedOp::Output(v) => {
                    output.push(value(regs, v));
                    pc + 1
                }
                DecodedOp::Branch { cond, then_pc, else_pc, .. } => {
                    let to = if regs[cond.index()] != 0 { then_pc } else { else_pc } as usize;
                    on_edge(d.block[pc], d.block[to]);
                    to
                }
                DecodedOp::Jump(to) => {
                    let to = to as usize;
                    on_edge(d.block[pc], d.block[to]);
                    to
                }
                DecodedOp::Ret(v) => {
                    left -= 1;
                    break Stop::Returned(v.map(|o| value(regs, o)));
                }
                DecodedOp::Produce { queue, value: v } => {
                    if !queues.try_produce(queue.index(), value(regs, v), d.src[pc])? {
                        break Stop::Blocked;
                    }
                    counts.communication += 1;
                    pc + 1
                }
                DecodedOp::Consume { dst, queue } => {
                    let Some(v) = queues.try_consume(queue.index(), d.src[pc])? else {
                        break Stop::Blocked;
                    };
                    regs[dst.index()] = v;
                    counts.communication += 1;
                    pc + 1
                }
                DecodedOp::ProduceSync { queue } => {
                    if !queues.try_produce(queue.index(), 1, d.src[pc])? {
                        break Stop::Blocked;
                    }
                    counts.synchronization += 1;
                    pc + 1
                }
                DecodedOp::ConsumeSync { queue } => {
                    if queues.try_consume(queue.index(), d.src[pc])?.is_none() {
                        break Stop::Blocked;
                    }
                    counts.synchronization += 1;
                    pc + 1
                }
                DecodedOp::Nop => pc + 1,
                DecodedOp::Unterminated => return Err(crate::interp::unterminated(d.block[pc])),
            };
            left -= 1;
        };
        self.pc = pc as u32;
        // Every instruction executed took one unit of fuel; those that
        // communicated were counted as they executed, the rest computed.
        counts.computation += (*fuel - left) - (counts.comm_total() - communicated);
        *fuel = left;
        Ok(stop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;

    fn loop_fn() -> Function {
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
        b.finish().unwrap()
    }

    #[test]
    fn layout_is_dense_and_ordered() {
        let f = loop_fn();
        let d = DecodedFunction::decode(&f);
        assert_eq!(d.num_slots(), f.placed_instr_count());
        assert_eq!(d.entry_pc(), 0);
        // Blocks appear contiguously in index order.
        let mut last = d.block(0);
        for pc in 1..d.num_slots() as u32 {
            assert!(d.block(pc) >= last, "block order broken at pc {pc}");
            last = d.block(pc);
        }
    }

    #[test]
    fn branch_targets_resolve_to_block_starts() {
        let f = loop_fn();
        let d = DecodedFunction::decode(&f);
        for pc in 0..d.num_slots() as u32 {
            if let DecodedOp::Branch { then_pc, else_pc, backward, .. } = d.op(pc) {
                // Header branch: body (forward), exit (forward).
                assert_eq!(d.block(then_pc), BlockId(2));
                assert_eq!(d.block(else_pc), BlockId(3));
                assert!(!backward);
            }
        }
    }

    #[test]
    fn lea_folds_layout_base() {
        let mut b = FunctionBuilder::new("lea");
        let o1 = b.object("a", 4);
        let o2 = b.object("c", 4);
        let p = b.lea(o2, 2);
        let _ = b.lea(o1, 0);
        b.ret(Some(p.into()));
        let f = b.finish().unwrap();
        let layout = MemoryLayout::of(&f);
        let d = DecodedFunction::decode(&f);
        assert_eq!(d.op(0), DecodedOp::LeaAbs(Reg(0), layout.base(crate::types::ObjectId(1)) as i64 + 2));
    }

    #[test]
    fn metadata_matches_op_tables() {
        let f = loop_fn();
        let d = DecodedFunction::decode(&f);
        for pc in 0..d.num_slots() as u32 {
            match d.op(pc) {
                DecodedOp::Branch { .. } | DecodedOp::Jump(_) | DecodedOp::Ret(_) => {
                    assert_eq!(d.unit(pc), ExecUnit::Branch)
                }
                DecodedOp::Bin(..) | DecodedOp::Const(..) => assert_eq!(d.unit(pc), ExecUnit::Alu),
                _ => {}
            }
            assert_eq!(d.latency(pc), 1, "loop_fn has only unit-latency ops");
            assert!(!d.timing(pc).communication);
        }
    }

    #[test]
    fn timing_record_carries_uses_unit_latency_and_communication() {
        let mut b = FunctionBuilder::new("t");
        let x = b.param();
        let y = b.bin(BinOp::Div, 7i64, x);
        b.emit(Op::Produce { queue: QueueId(0), value: y.into() });
        b.emit(Op::ConsumeSync { queue: QueueId(1) });
        b.ret(None);
        let d = DecodedFunction::decode(&b.finish().unwrap());
        let timing = |uses, latency, unit, communication| SlotTiming { uses, latency, unit, communication };
        assert_eq!(d.timing(0), timing([x.0, NO_USE], 12, ExecUnit::Alu, false));
        assert_eq!(d.timing(1), timing([y.0, NO_USE], 1, ExecUnit::Mem, true));
        assert_eq!(d.timing(2), timing([NO_USE; 2], 1, ExecUnit::Mem, true));
        assert_eq!(d.timing(3), timing([NO_USE; 2], 1, ExecUnit::Branch, false));
        for pc in 0..d.num_slots() as u32 {
            let t = d.timing(pc);
            assert_eq!((t.unit, t.latency, t.uses), (d.unit(pc), d.latency(pc), d.uses(pc)));
            assert_eq!(t.communication, d.op(pc).is_communication());
        }
    }

    #[test]
    fn decoded_program_shares_thread0_layout() {
        let mut b = FunctionBuilder::new("t0");
        let o = b.object("a", 8);
        let p = b.lea(o, 0);
        b.ret(Some(p.into()));
        let t0 = b.finish().unwrap();
        let mut b = FunctionBuilder::new("t1");
        let o = b.object("a", 8);
        let p = b.lea(o, 1);
        b.ret(Some(p.into()));
        let t1 = b.finish().unwrap();
        let prog = DecodedProgram::decode(&[t0, t1]).unwrap();
        assert_eq!(prog.len(), 2);
        assert!(!prog.is_empty());
        let base = prog.layout().base(crate::types::ObjectId(0)) as i64;
        assert_eq!(prog.threads()[0].op(0), DecodedOp::LeaAbs(Reg(0), base));
        assert_eq!(prog.threads()[1].op(0), DecodedOp::LeaAbs(Reg(0), base + 1));
    }

    /// A producer sending `values` on `queues`, in order, and a
    /// consumer receiving on the same queues in the same order.
    fn pipe(queues: &[u32], values: &[i64]) -> Vec<Function> {
        let mut p = FunctionBuilder::new("p");
        let mut c = FunctionBuilder::new("c");
        for (&q, &v) in queues.iter().zip(values) {
            p.emit(Op::Produce { queue: QueueId(q), value: v.into() });
            let dst = c.fresh_reg();
            c.emit(Op::Consume { dst, queue: QueueId(q) });
        }
        p.emit(Op::ProduceSync { queue: QueueId(queues[0]) });
        c.emit(Op::ConsumeSync { queue: QueueId(queues[0]) });
        p.ret(None);
        c.ret(None);
        vec![p.finish().unwrap(), c.finish().unwrap()]
    }

    fn renaming(a: &[Function], b: &[Function]) -> Option<Vec<(u32, u32)>> {
        let (a, b) = (DecodedProgram::decode(a).unwrap(), DecodedProgram::decode(b).unwrap());
        let pairs = a.queue_renaming(&b)?;
        Some(pairs.into_iter().map(|(x, y)| (x.0, y.0)).collect())
    }

    #[test]
    fn queue_renaming_finds_the_bijection() {
        let a = pipe(&[0, 1, 0], &[7, 8, 9]);
        assert_eq!(renaming(&a, &a), Some(vec![(0, 0), (1, 1)]), "== is the identity renaming");
        assert_eq!(renaming(&a, &pipe(&[1, 0, 1], &[7, 8, 9])), Some(vec![(0, 1), (1, 0)]));
        assert_eq!(renaming(&a, &pipe(&[200, 3, 200], &[7, 8, 9])), Some(vec![(0, 200), (1, 3)]));
    }

    #[test]
    fn queue_renaming_rejects_what_is_not_a_renaming() {
        let a = pipe(&[0, 1, 0], &[7, 8, 9]);
        assert_eq!(renaming(&a, &pipe(&[0, 0, 0], &[7, 8, 9])), None, "two queues merged");
        assert_eq!(renaming(&pipe(&[0, 0, 0], &[7, 8, 9]), &a), None, "one queue split");
        assert_eq!(renaming(&a, &pipe(&[0, 1, 0], &[7, 8, 10])), None, "another value sent");
        let mut swapped = a.clone();
        swapped.swap(0, 1);
        assert_eq!(renaming(&a, &swapped), None, "threads in another order");
        assert_eq!(renaming(&a, &a[..1]), None, "a thread missing");
        // The bijection is one across threads: renaming only the
        // producer's side disconnects the channel.
        let half = vec![pipe(&[1, 0, 1], &[7, 8, 9]).remove(0), a[1].clone()];
        assert_eq!(renaming(&a, &half), None, "one endpoint renamed");
    }

    #[test]
    fn empty_program_rejected() {
        assert!(matches!(
            DecodedProgram::decode(&[]),
            Err(ExecError::InvalidConfig(_))
        ));
    }

    #[test]
    fn unterminated_blocks_get_placeholder_slots() {
        let mut f = Function::new("u");
        let e = f.entry();
        f.push_instr(e, Op::Nop);
        let d = DecodedFunction::decode(&f);
        assert_eq!(d.num_slots(), 2);
        assert_eq!(d.op(1), DecodedOp::Unterminated);
    }
}
