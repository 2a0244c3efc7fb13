//! Functions: instruction arenas, basic blocks, and memory objects.

use crate::instr::{Op, Successors};
use crate::types::{BlockId, InstrId, ObjectId, Reg};

/// A named memory object (array) owned by a function.
///
/// Workload kernels declare their arrays as objects; the interpreter and
/// simulator lay them out contiguously, and the alias analysis uses
/// object identity as its abstraction of memory locations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MemObject {
    /// Human-readable name (for dumps and diagnostics).
    pub name: String,
    /// Size in 8-byte cells.
    pub size: u64,
}

/// A basic block: an ordered list of non-terminator instructions plus
/// exactly one terminator.
#[derive(Clone, Debug, Default)]
pub struct Block {
    /// Optional label for dumps.
    pub name: String,
    /// Body instructions, in program order (no terminators).
    pub instrs: Vec<InstrId>,
    /// The terminator; `None` only while the block is under
    /// construction.
    pub terminator: Option<InstrId>,
}

impl Block {
    /// Body instructions followed by the terminator.
    pub fn all_instrs(&self) -> impl Iterator<Item = InstrId> + '_ {
        self.instrs.iter().copied().chain(self.terminator)
    }
}

/// A function: the unit on which GMT scheduling operates.
///
/// Instructions live in an arena ([`Function::instr`]) and blocks hold
/// ids into it, so instruction identity is stable under insertion —
/// which is what lets the PDG, partitions, and communication plans refer
/// to instructions across the whole pipeline.
#[derive(Clone, Debug)]
pub struct Function {
    /// Function name.
    pub name: String,
    /// Registers holding the arguments on entry, in order.
    pub params: Vec<Reg>,
    blocks: Vec<Block>,
    instrs: Vec<Op>,
    instr_block: Vec<BlockId>,
    objects: Vec<MemObject>,
    num_regs: u32,
    entry: BlockId,
}

impl Function {
    /// Creates an empty function with a single unterminated entry block.
    /// Prefer [`FunctionBuilder`](crate::FunctionBuilder) for
    /// construction.
    pub fn new(name: impl Into<String>) -> Function {
        Function {
            name: name.into(),
            params: Vec::new(),
            blocks: vec![Block { name: "entry".to_string(), ..Block::default() }],
            instrs: Vec::new(),
            instr_block: Vec::new(),
            objects: Vec::new(),
            num_regs: 0,
            entry: BlockId(0),
        }
    }

    /// The entry block.
    pub fn entry(&self) -> BlockId {
        self.entry
    }

    /// Number of basic blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Number of virtual registers allocated so far.
    pub fn num_regs(&self) -> u32 {
        self.num_regs
    }

    /// Size of the instruction arena (includes instructions removed from
    /// blocks; use for sizing side tables).
    pub fn num_instrs(&self) -> usize {
        self.instrs.len()
    }

    /// All block ids in index order.
    pub fn blocks(&self) -> impl Iterator<Item = BlockId> + '_ {
        (0..self.blocks.len() as u32).map(BlockId)
    }

    /// The block `b`.
    pub fn block(&self, b: BlockId) -> &Block {
        &self.blocks[b.index()]
    }

    /// The instruction `i`.
    pub fn instr(&self, i: InstrId) -> &Op {
        &self.instrs[i.index()]
    }

    /// Mutable access to instruction `i` (used by MTCG to retarget
    /// branches).
    pub fn instr_mut(&mut self, i: InstrId) -> &mut Op {
        &mut self.instrs[i.index()]
    }

    /// The block containing instruction `i`.
    pub fn block_of(&self, i: InstrId) -> BlockId {
        self.instr_block[i.index()]
    }

    /// The memory objects of this function.
    pub fn objects(&self) -> &[MemObject] {
        &self.objects
    }

    /// The object `o`.
    pub fn object(&self, o: ObjectId) -> &MemObject {
        &self.objects[o.index()]
    }

    /// Successor blocks of `b` (empty for return blocks). Taken target
    /// first for conditional branches.
    ///
    /// # Panics
    ///
    /// Panics if `b` is unterminated.
    pub fn successors(&self, b: BlockId) -> Successors {
        let term = self.block(b).terminator.expect("block must be terminated");
        self.instr(term).successors()
    }

    /// Predecessor map: for each block, the blocks that branch to it.
    pub fn predecessors(&self) -> Vec<Vec<BlockId>> {
        let mut preds = vec![Vec::new(); self.num_blocks()];
        for b in self.blocks() {
            for s in self.successors(b) {
                if !preds[s.index()].contains(&b) {
                    preds[s.index()].push(b);
                }
            }
        }
        preds
    }

    /// All instructions of the function in layout order (blocks in index
    /// order, body then terminator).
    pub fn all_instrs(&self) -> impl Iterator<Item = InstrId> + '_ {
        self.blocks().flat_map(move |b| self.block(b).all_instrs())
    }

    /// Reverse post-order of the CFG from the entry block. Unreachable
    /// blocks are appended at the end in index order.
    pub fn reverse_post_order(&self) -> Vec<BlockId> {
        let n = self.num_blocks();
        let mut visited = vec![false; n];
        let mut post = Vec::with_capacity(n);
        let mut stack: Vec<(BlockId, usize)> = vec![(self.entry, 0)];
        visited[self.entry.index()] = true;
        while let Some(&mut (b, ref mut next)) = stack.last_mut() {
            let succs = self.successors(b);
            if *next < succs.len() {
                let s = succs[*next];
                *next += 1;
                if !visited[s.index()] {
                    visited[s.index()] = true;
                    stack.push((s, 0));
                }
            } else {
                post.push(b);
                stack.pop();
            }
        }
        post.reverse();
        for b in self.blocks() {
            if !visited[b.index()] {
                post.push(b);
            }
        }
        post
    }

    // ---- mutation API (used by the builder and MTCG) ----

    /// Allocates a fresh virtual register.
    pub fn fresh_reg(&mut self) -> Reg {
        let r = Reg(self.num_regs);
        self.num_regs += 1;
        r
    }

    /// Notes that register `r` exists (raises the register count).
    pub fn ensure_reg(&mut self, r: Reg) {
        self.num_regs = self.num_regs.max(r.0 + 1);
    }

    /// Adds a new empty block and returns its id.
    pub fn add_block(&mut self, name: impl Into<String>) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(Block { name: name.into(), ..Block::default() });
        id
    }

    /// Declares a memory object of `size` cells.
    pub fn add_object(&mut self, name: impl Into<String>, size: u64) -> ObjectId {
        let id = ObjectId(self.objects.len() as u32);
        self.objects.push(MemObject { name: name.into(), size });
        id
    }

    /// Appends a non-terminator instruction to block `b`.
    ///
    /// # Panics
    ///
    /// Panics if `op` is a terminator or if `b` is already terminated.
    pub fn push_instr(&mut self, b: BlockId, op: Op) -> InstrId {
        assert!(!op.is_terminator(), "use set_terminator for {op}");
        assert!(self.blocks[b.index()].terminator.is_none(), "block {b:?} already terminated");
        let id = self.intern(b, op);
        self.blocks[b.index()].instrs.push(id);
        id
    }

    /// Sets the terminator of block `b`.
    ///
    /// # Panics
    ///
    /// Panics if `op` is not a terminator or `b` already has one.
    pub fn set_terminator(&mut self, b: BlockId, op: Op) -> InstrId {
        assert!(op.is_terminator(), "{op} is not a terminator");
        assert!(self.blocks[b.index()].terminator.is_none(), "block {b:?} already terminated");
        let id = self.intern(b, op);
        self.blocks[b.index()].terminator = Some(id);
        id
    }

    fn intern(&mut self, b: BlockId, op: Op) -> InstrId {
        if let Some(d) = op.def() {
            self.ensure_reg(d);
        }
        let id = InstrId(self.instrs.len() as u32);
        self.instrs.push(op);
        self.instr_block.push(b);
        id
    }

    /// Replaces the terminator of `b` with `op` (same arity rules as
    /// [`Function::set_terminator`]). Used by MTCG's branch-target fixing.
    pub fn replace_terminator(&mut self, b: BlockId, op: Op) -> InstrId {
        assert!(op.is_terminator());
        self.blocks[b.index()].terminator = None;
        self.set_terminator(b, op)
    }

    /// Total number of instructions currently placed in blocks.
    pub fn placed_instr_count(&self) -> usize {
        self.blocks
            .iter()
            .map(|b| b.instrs.len() + usize::from(b.terminator.is_some()))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Operand;

    fn two_block_fn() -> Function {
        let mut f = Function::new("t");
        let entry = f.entry();
        let exit = f.add_block("exit");
        let r0 = f.fresh_reg();
        f.push_instr(entry, Op::Const(r0, 1));
        f.set_terminator(entry, Op::Jump(exit));
        f.set_terminator(exit, Op::Ret(Some(Operand::Reg(r0))));
        f
    }

    #[test]
    fn construction_and_queries() {
        let f = two_block_fn();
        assert_eq!(f.num_blocks(), 2);
        assert_eq!(*f.successors(f.entry()), [BlockId(1)]);
        assert_eq!(f.predecessors()[1], vec![f.entry()]);
        assert_eq!(f.placed_instr_count(), 3);
        let first = f.block(f.entry()).instrs[0];
        assert_eq!(f.block_of(first), f.entry());
    }

    #[test]
    fn reverse_post_order_starts_at_entry() {
        let f = two_block_fn();
        let rpo = f.reverse_post_order();
        assert_eq!(rpo, vec![BlockId(0), BlockId(1)]);
    }

    #[test]
    fn rpo_includes_unreachable_blocks_last() {
        let mut f = two_block_fn();
        let orphan = f.add_block("orphan");
        f.set_terminator(orphan, Op::Ret(None));
        let rpo = f.reverse_post_order();
        assert_eq!(rpo.last(), Some(&orphan));
        assert_eq!(rpo.len(), 3);
    }

    #[test]
    #[should_panic(expected = "already terminated")]
    fn double_terminator_rejected() {
        let mut f = two_block_fn();
        let e = f.entry();
        f.set_terminator(e, Op::Ret(None));
    }

    #[test]
    #[should_panic(expected = "use set_terminator")]
    fn push_rejects_terminators() {
        let mut f = Function::new("t");
        let e = f.entry();
        f.push_instr(e, Op::Ret(None));
    }

    #[test]
    fn fresh_regs_are_distinct() {
        let mut f = Function::new("t");
        let a = f.fresh_reg();
        let b = f.fresh_reg();
        assert_ne!(a, b);
        assert_eq!(f.num_regs(), 2);
        f.ensure_reg(Reg(10));
        assert_eq!(f.num_regs(), 11);
    }

    #[test]
    fn objects_are_recorded() {
        let mut f = Function::new("t");
        let o = f.add_object("arr", 64);
        assert_eq!(f.object(o).size, 64);
        assert_eq!(f.objects().len(), 1);
    }

    #[test]
    fn all_instrs_covers_blocks_in_order() {
        let f = two_block_fn();
        let ids: Vec<_> = f.all_instrs().collect();
        assert_eq!(ids.len(), 3);
        assert_eq!(f.block_of(ids[0]), BlockId(0));
        assert_eq!(f.block_of(ids[2]), BlockId(1));
    }
}
