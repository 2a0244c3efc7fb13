//! Instruction definitions and operand queries.

use crate::types::{AddrMode, BinOp, BlockId, ObjectId, Operand, QueueId, Reg, UnOp};
use std::fmt;

/// An instruction opcode with its operands.
///
/// The IR is a low-level, assembly-style representation in the spirit of
/// the VELOCITY compiler's IR: virtual registers, explicit loads/stores,
/// explicit branches, plus the `produce`/`consume` communication
/// primitives of the synchronization-array ISA extension that MTCG
/// inserts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// `dst = imm`.
    Const(Reg, i64),
    /// `dst = &object + offset` — materialize the address of a named
    /// memory object. The only way pointers are born, which is what
    /// makes points-to analysis precise on this IR.
    Lea(Reg, ObjectId, i64),
    /// `dst = lhs <op> rhs`.
    Bin(BinOp, Reg, Operand, Operand),
    /// `dst = <op> src`.
    Un(UnOp, Reg, Operand),
    /// `dst = mem[addr]`.
    Load(Reg, AddrMode),
    /// `mem[addr] = value`.
    Store(AddrMode, Operand),
    /// Conditional branch: to `then_bb` if `cond != 0`, else `else_bb`.
    Branch {
        /// Condition register.
        cond: Reg,
        /// Target when `cond != 0`.
        then_bb: BlockId,
        /// Target when `cond == 0`.
        else_bb: BlockId,
    },
    /// Unconditional jump.
    Jump(BlockId),
    /// Return from the function with an optional value.
    Ret(Option<Operand>),
    /// Emit `value` to the observable output trace. Ordered like a
    /// store (it aliases all other `Output`s), so multi-threaded code
    /// preserves the sequential output order — the correctness oracle.
    Output(Operand),
    /// Send a register value into queue `queue` (blocking when full).
    Produce {
        /// Destination queue.
        queue: QueueId,
        /// Value sent.
        value: Operand,
    },
    /// Receive a value from queue `queue` into `dst` (blocking when
    /// empty).
    Consume {
        /// Destination register.
        dst: Reg,
        /// Source queue.
        queue: QueueId,
    },
    /// Send a synchronization token (memory dependence). Has *release*
    /// semantics: prior memory operations of this thread are ordered
    /// before it.
    ProduceSync {
        /// Destination queue.
        queue: QueueId,
    },
    /// Receive a synchronization token (memory dependence). Has
    /// *acquire* semantics: later memory operations of this thread are
    /// ordered after it.
    ConsumeSync {
        /// Source queue.
        queue: QueueId,
    },
    /// No operation.
    Nop,
}

impl Op {
    /// The register defined by this instruction, if any.
    pub fn def(&self) -> Option<Reg> {
        match *self {
            Op::Const(d, _)
            | Op::Lea(d, _, _)
            | Op::Bin(_, d, _, _)
            | Op::Un(_, d, _)
            | Op::Load(d, _)
            | Op::Consume { dst: d, .. } => Some(d),
            _ => None,
        }
    }

    /// The registers used by this instruction, in operand order: at
    /// most two, held inline (`None` fills the rest), for callers that
    /// ask once per dynamic instruction.
    pub fn use_slots(&self) -> [Option<Reg>; 2] {
        let reg = |o: Operand| match o {
            Operand::Reg(r) => Some(r),
            Operand::Imm(_) => None,
        };
        let slots = match *self {
            Op::Bin(_, _, a, b) => [reg(a), reg(b)],
            Op::Un(_, _, a) | Op::Ret(Some(a)) | Op::Output(a) | Op::Produce { value: a, .. } => {
                [reg(a), None]
            }
            Op::Load(_, addr) => [Some(addr.base), None],
            Op::Store(addr, v) => [Some(addr.base), reg(v)],
            Op::Branch { cond, .. } => [Some(cond), None],
            Op::Const(..)
            | Op::Lea(..)
            | Op::Jump(_)
            | Op::Ret(None)
            | Op::Consume { .. }
            | Op::ProduceSync { .. }
            | Op::ConsumeSync { .. }
            | Op::Nop => [None, None],
        };
        match slots {
            [None, second] => [second, None],
            _ => slots,
        }
    }

    /// Appends the registers used by this instruction to `out`.
    pub fn uses_into(&self, out: &mut Vec<Reg>) {
        out.extend(self.use_slots().into_iter().flatten());
    }

    /// The registers used by this instruction.
    pub fn uses(&self) -> Vec<Reg> {
        self.use_slots().into_iter().flatten().collect()
    }

    /// Whether this instruction reads memory.
    pub fn is_mem_read(&self) -> bool {
        matches!(self, Op::Load(..))
    }

    /// Whether this instruction writes memory (or, like [`Op::Output`],
    /// is ordered as if it did).
    pub fn is_mem_write(&self) -> bool {
        matches!(self, Op::Store(..) | Op::Output(_))
    }

    /// Whether this instruction participates in memory ordering.
    pub fn is_mem_op(&self) -> bool {
        self.is_mem_read() || self.is_mem_write()
    }

    /// Whether this is a block terminator ([`Op::Branch`], [`Op::Jump`],
    /// or [`Op::Ret`]).
    pub fn is_terminator(&self) -> bool {
        matches!(self, Op::Branch { .. } | Op::Jump(_) | Op::Ret(_))
    }

    /// Whether this is a conditional branch.
    pub fn is_branch(&self) -> bool {
        matches!(self, Op::Branch { .. })
    }

    /// Whether this is one of the communication primitives inserted by
    /// MTCG (`produce`, `consume`, and the `.sync` variants).
    pub fn is_communication(&self) -> bool {
        matches!(
            self,
            Op::Produce { .. } | Op::Consume { .. } | Op::ProduceSync { .. } | Op::ConsumeSync { .. }
        )
    }

    /// The queue referenced by a communication instruction.
    pub fn queue(&self) -> Option<QueueId> {
        match *self {
            Op::Produce { queue, .. }
            | Op::Consume { queue, .. }
            | Op::ProduceSync { queue }
            | Op::ConsumeSync { queue } => Some(queue),
            _ => None,
        }
    }

    /// Successor blocks if this is a terminator (taken target first).
    pub fn successors(&self) -> Successors {
        match *self {
            Op::Branch { then_bb, else_bb, .. } if then_bb != else_bb => {
                Successors { blocks: [then_bb, else_bb], len: 2 }
            }
            Op::Branch { then_bb: t, .. } | Op::Jump(t) => Successors { blocks: [t; 2], len: 1 },
            _ => Successors { blocks: [BlockId(0); 2], len: 0 },
        }
    }

    /// Rewrites branch/jump targets through `map`. Used by MTCG when
    /// relocating terminators into per-thread CFGs.
    pub fn retarget(&mut self, map: impl Fn(BlockId) -> BlockId) {
        match self {
            Op::Branch { then_bb, else_bb, .. } => {
                *then_bb = map(*then_bb);
                *else_bb = map(*else_bb);
            }
            Op::Jump(t) => *t = map(*t),
            _ => {}
        }
    }
}

/// The successor blocks of a terminator — at most two, held inline, so
/// the CFG walks that ask for them once per visited block allocate
/// nothing. Dereferences to a `[BlockId]` slice and iterates by value.
#[derive(Clone, Copy, Debug)]
pub struct Successors {
    blocks: [BlockId; 2],
    len: u8,
}

impl std::ops::Deref for Successors {
    type Target = [BlockId];

    fn deref(&self) -> &[BlockId] {
        &self.blocks[..self.len as usize]
    }
}

impl IntoIterator for Successors {
    type Item = BlockId;
    type IntoIter = std::iter::Take<std::array::IntoIter<BlockId, 2>>;

    fn into_iter(self) -> Self::IntoIter {
        self.blocks.into_iter().take(self.len as usize)
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Const(d, v) => write!(f, "{d} = const {v}"),
            Op::Lea(d, o, off) => write!(f, "{d} = lea {o:?}+{off}"),
            Op::Bin(op, d, a, b) => write!(f, "{d} = {op:?} {a}, {b}"),
            Op::Un(op, d, a) => write!(f, "{d} = {op:?} {a}"),
            Op::Load(d, a) => write!(f, "{d} = load {a:?}"),
            Op::Store(a, v) => write!(f, "store {a:?} = {v}"),
            Op::Branch { cond, then_bb, else_bb } => {
                write!(f, "br {cond} ? {then_bb} : {else_bb}")
            }
            Op::Jump(t) => write!(f, "jump {t}"),
            Op::Ret(Some(v)) => write!(f, "ret {v}"),
            Op::Ret(None) => write!(f, "ret"),
            Op::Output(v) => write!(f, "output {v}"),
            Op::Produce { queue, value } => write!(f, "produce {queue:?} = {value}"),
            Op::Consume { dst, queue } => write!(f, "{dst} = consume {queue:?}"),
            Op::ProduceSync { queue } => write!(f, "produce.sync {queue:?}"),
            Op::ConsumeSync { queue } => write!(f, "consume.sync {queue:?}"),
            Op::Nop => write!(f, "nop"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defs_and_uses() {
        let op = Op::Bin(BinOp::Add, Reg(2), Reg(0).into(), Reg(1).into());
        assert_eq!(op.def(), Some(Reg(2)));
        assert_eq!(op.uses(), vec![Reg(0), Reg(1)]);

        let st = Op::Store(AddrMode::base(Reg(3)), Reg(4).into());
        assert_eq!(st.def(), None);
        assert_eq!(st.uses(), vec![Reg(3), Reg(4)]);

        let c = Op::Consume { dst: Reg(9), queue: QueueId(0) };
        assert_eq!(c.def(), Some(Reg(9)));
        assert!(c.uses().is_empty());
    }

    #[test]
    fn immediates_are_not_uses() {
        let op = Op::Bin(BinOp::Add, Reg(2), Reg(0).into(), Operand::Imm(5));
        assert_eq!(op.uses(), vec![Reg(0)]);
        let op = Op::Bin(BinOp::Sub, Reg(2), Operand::Imm(5), Reg(1).into());
        assert_eq!(op.use_slots(), [Some(Reg(1)), None], "uses pack to the front");
    }

    #[test]
    fn memory_classification() {
        assert!(Op::Load(Reg(0), AddrMode::base(Reg(1))).is_mem_read());
        assert!(Op::Store(AddrMode::base(Reg(1)), Operand::Imm(0)).is_mem_write());
        assert!(Op::Output(Operand::Imm(1)).is_mem_write());
        assert!(!Op::Nop.is_mem_op());
    }

    #[test]
    fn terminator_successors() {
        let br = Op::Branch { cond: Reg(0), then_bb: BlockId(1), else_bb: BlockId(2) };
        assert_eq!(*br.successors(), [BlockId(1), BlockId(2)]);
        assert_eq!(br.successors().into_iter().collect::<Vec<_>>(), [BlockId(1), BlockId(2)]);
        assert!(br.is_terminator() && br.is_branch());
        let same = Op::Branch { cond: Reg(0), then_bb: BlockId(3), else_bb: BlockId(3) };
        assert_eq!(*same.successors(), [BlockId(3)]);
        assert_eq!(same.successors().into_iter().count(), 1);
        assert_eq!(*Op::Jump(BlockId(4)).successors(), [BlockId(4)]);
        assert!(Op::Ret(None).successors().is_empty());
        assert_eq!(Op::Ret(None).successors().into_iter().next(), None);
        assert!(Op::Ret(None).is_terminator());
    }

    #[test]
    fn communication_classification() {
        let p = Op::Produce { queue: QueueId(3), value: Reg(1).into() };
        assert!(p.is_communication());
        assert_eq!(p.queue(), Some(QueueId(3)));
        assert!(!Op::Nop.is_communication());
        assert!(Op::ProduceSync { queue: QueueId(0) }.is_communication());
    }

    #[test]
    fn retarget_rewrites_branches() {
        let mut br = Op::Branch { cond: Reg(0), then_bb: BlockId(1), else_bb: BlockId(2) };
        br.retarget(|b| BlockId(b.0 + 10));
        assert_eq!(*br.successors(), [BlockId(11), BlockId(12)]);
        let mut j = Op::Jump(BlockId(0));
        j.retarget(|_| BlockId(7));
        assert_eq!(*j.successors(), [BlockId(7)]);
    }

    #[test]
    fn display_round_trips_key_shapes() {
        assert_eq!(
            Op::Bin(BinOp::Add, Reg(2), Reg(0).into(), Operand::Imm(1)).to_string(),
            "r2 = Add r0, 1"
        );
        assert_eq!(Op::ProduceSync { queue: QueueId(5) }.to_string(), "produce.sync q5");
    }
}
