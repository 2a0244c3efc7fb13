//! An ergonomic builder for IR functions.

use crate::function::Function;
use crate::instr::Op;
use crate::types::{AddrMode, BinOp, BlockId, InstrId, ObjectId, Operand, Reg, UnOp};
use crate::verify::{verify, VerifyError};

/// Builds a [`Function`] block by block.
///
/// The builder keeps a *current block*; instruction-emitting methods
/// append to it and return the defined register, so straight-line code
/// reads like three-address code:
///
/// ```
/// use gmt_ir::{FunctionBuilder, BinOp};
///
/// # fn main() -> Result<(), gmt_ir::VerifyError> {
/// let mut b = FunctionBuilder::new("sum3");
/// let x = b.param();
/// let y = b.param();
/// let t = b.bin(BinOp::Add, x, y);
/// let s = b.bin(BinOp::Add, t, 1i64);
/// b.ret(Some(s.into()));
/// let f = b.finish()?;
/// assert_eq!(f.num_blocks(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct FunctionBuilder {
    func: Function,
    current: BlockId,
}

impl FunctionBuilder {
    /// Starts a new function; the current block is the entry block.
    pub fn new(name: impl Into<String>) -> FunctionBuilder {
        let func = Function::new(name);
        let current = func.entry();
        FunctionBuilder { func, current }
    }

    /// Declares a parameter register (delivered in declaration order).
    pub fn param(&mut self) -> Reg {
        let r = self.func.fresh_reg();
        self.func.params.push(r);
        r
    }

    /// Declares a memory object of `size` cells.
    pub fn object(&mut self, name: impl Into<String>, size: u64) -> ObjectId {
        self.func.add_object(name, size)
    }

    /// Creates a new (empty, unpositioned) block.
    pub fn block(&mut self, name: impl Into<String>) -> BlockId {
        self.func.add_block(name)
    }

    /// Switches the insertion point to `b`.
    pub fn switch_to(&mut self, b: BlockId) {
        self.current = b;
    }

    /// The entry block.
    pub fn entry(&self) -> BlockId {
        self.func.entry()
    }

    /// Allocates a register without defining it (for loop-carried values
    /// that are initialized in one block and updated in another).
    pub fn fresh_reg(&mut self) -> Reg {
        self.func.fresh_reg()
    }

    /// Emits a raw instruction into the current block.
    pub fn emit(&mut self, op: Op) -> InstrId {
        if op.is_terminator() {
            self.func.set_terminator(self.current, op)
        } else {
            self.func.push_instr(self.current, op)
        }
    }

    /// `dst = imm` into a fresh register.
    pub fn const_(&mut self, value: i64) -> Reg {
        let dst = self.func.fresh_reg();
        self.emit(Op::Const(dst, value));
        dst
    }

    /// `dst = imm` into an existing register (for loop-carried updates).
    pub fn const_into(&mut self, dst: Reg, value: i64) -> InstrId {
        self.emit(Op::Const(dst, value))
    }

    /// `dst = &object + offset` into a fresh register.
    pub fn lea(&mut self, object: ObjectId, offset: i64) -> Reg {
        let dst = self.func.fresh_reg();
        self.emit(Op::Lea(dst, object, offset));
        dst
    }

    /// `dst = lhs <op> rhs` into a fresh register.
    pub fn bin(&mut self, op: BinOp, lhs: impl Into<Operand>, rhs: impl Into<Operand>) -> Reg {
        let dst = self.func.fresh_reg();
        self.emit(Op::Bin(op, dst, lhs.into(), rhs.into()));
        dst
    }

    /// `dst = lhs <op> rhs` into an existing register.
    pub fn bin_into(
        &mut self,
        op: BinOp,
        dst: Reg,
        lhs: impl Into<Operand>,
        rhs: impl Into<Operand>,
    ) -> InstrId {
        self.emit(Op::Bin(op, dst, lhs.into(), rhs.into()))
    }

    /// `dst = <op> src` into a fresh register.
    pub fn un(&mut self, op: UnOp, src: impl Into<Operand>) -> Reg {
        let dst = self.func.fresh_reg();
        self.emit(Op::Un(op, dst, src.into()));
        dst
    }

    /// `dst = src` (copy) into an existing register.
    pub fn mov_into(&mut self, dst: Reg, src: impl Into<Operand>) -> InstrId {
        self.emit(Op::Un(UnOp::Mov, dst, src.into()))
    }

    /// `dst = mem[base + offset]` into a fresh register.
    pub fn load(&mut self, base: Reg, offset: i64) -> Reg {
        let dst = self.func.fresh_reg();
        self.emit(Op::Load(dst, AddrMode::with_offset(base, offset)));
        dst
    }

    /// `dst = mem[base + offset]` into an existing register.
    pub fn load_into(&mut self, dst: Reg, base: Reg, offset: i64) -> InstrId {
        self.emit(Op::Load(dst, AddrMode::with_offset(base, offset)))
    }

    /// `mem[base + offset] = value`.
    pub fn store(&mut self, base: Reg, offset: i64, value: impl Into<Operand>) -> InstrId {
        self.emit(Op::Store(AddrMode::with_offset(base, offset), value.into()))
    }

    /// `output value` — append to the observable trace.
    pub fn output(&mut self, value: impl Into<Operand>) -> InstrId {
        self.emit(Op::Output(value.into()))
    }

    /// Conditional branch terminator: `cond != 0 ? then_bb : else_bb`.
    pub fn branch(&mut self, cond: Reg, then_bb: BlockId, else_bb: BlockId) -> InstrId {
        self.emit(Op::Branch { cond, then_bb, else_bb })
    }

    /// Unconditional jump terminator.
    pub fn jump(&mut self, target: BlockId) -> InstrId {
        self.emit(Op::Jump(target))
    }

    /// Return terminator.
    pub fn ret(&mut self, value: Option<Operand>) -> InstrId {
        self.emit(Op::Ret(value))
    }

    /// Finishes the function, verifying its structure.
    ///
    /// # Errors
    ///
    /// Returns any [`VerifyError`] detected (unterminated block, bad
    /// branch target, use of a never-defined register, ...).
    pub fn finish(self) -> Result<Function, VerifyError> {
        verify(&self.func)?;
        Ok(self.func)
    }

    /// Finishes without verification (for tests that intentionally
    /// construct ill-formed functions).
    pub fn finish_unverified(self) -> Function {
        self.func
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{run, ExecConfig};

    #[test]
    fn build_and_run_a_counting_loop() {
        // for (i = 0; i < 5; i++) sum += i; ret sum
        let mut b = FunctionBuilder::new("loop");
        let sum = b.fresh_reg();
        let i = b.fresh_reg();
        let header = b.block("header");
        let body = b.block("body");
        let exit = b.block("exit");
        b.const_into(sum, 0);
        b.const_into(i, 0);
        b.jump(header);
        b.switch_to(header);
        let cond = b.bin(BinOp::Lt, i, 5i64);
        b.branch(cond, body, exit);
        b.switch_to(body);
        b.bin_into(BinOp::Add, sum, sum, i);
        b.bin_into(BinOp::Add, i, i, 1i64);
        b.jump(header);
        b.switch_to(exit);
        b.ret(Some(sum.into()));
        let f = b.finish().expect("verifies");
        let result = run(&f, &[], &ExecConfig::default()).expect("runs");
        assert_eq!(result.return_value, Some(10));
    }

    #[test]
    fn params_arrive_in_order() {
        let mut b = FunctionBuilder::new("sub");
        let x = b.param();
        let y = b.param();
        let d = b.bin(BinOp::Sub, x, y);
        b.ret(Some(d.into()));
        let f = b.finish().unwrap();
        let result = run(&f, &[10, 4], &ExecConfig::default()).unwrap();
        assert_eq!(result.return_value, Some(6));
    }

    #[test]
    fn memory_round_trip() {
        let mut b = FunctionBuilder::new("mem");
        let obj = b.object("cell", 4);
        let p = b.lea(obj, 2);
        b.store(p, 0, 42i64);
        let v = b.load(p, 0);
        b.ret(Some(v.into()));
        let f = b.finish().unwrap();
        let result = run(&f, &[], &ExecConfig::default()).unwrap();
        assert_eq!(result.return_value, Some(42));
    }

    #[test]
    fn finish_rejects_unterminated_blocks() {
        let mut b = FunctionBuilder::new("bad");
        b.const_(1);
        assert!(b.finish().is_err());
    }
}
