//! Core identifier and operand types of the IR.

use std::fmt;

/// A virtual register.
///
/// The IR is register-based and unbounded: the builder allocates fresh
/// registers on demand and there is no register allocation pass (the
/// paper's toolchain runs GMT scheduling *before* register allocation,
/// on virtual registers — §4).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(pub u32);

impl Reg {
    /// The register index as a `usize`, for indexing side tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A basic block id within a [`Function`](crate::Function).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u32);

impl BlockId {
    /// The block index as a `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B{}", self.0)
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A stable instruction id within a [`Function`](crate::Function).
///
/// Instructions live in an arena on the function; ids never move when
/// instructions are inserted into or removed from blocks, so analyses
/// and the PDG can use them as dense side-table keys.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstrId(pub u32);

impl InstrId {
    /// The instruction index as a `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for InstrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

/// A named memory object (array/struct) of a function.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(pub u32);

impl ObjectId {
    /// The object index as a `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj{}", self.0)
    }
}

/// A communication queue id in the synchronization array.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueueId(pub u32);

impl QueueId {
    /// The queue index as a `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for QueueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// An instruction operand: a virtual register or an immediate.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// A register operand.
    Reg(Reg),
    /// A 64-bit immediate.
    Imm(i64),
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Operand {
        Operand::Reg(r)
    }
}

impl From<i64> for Operand {
    fn from(v: i64) -> Operand {
        Operand::Imm(v)
    }
}

impl fmt::Debug for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{:?}", r),
            Operand::Imm(v) => write!(f, "{}", v),
        }
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A memory address: base register plus constant displacement.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct AddrMode {
    /// Base address register.
    pub base: Reg,
    /// Constant displacement in cells.
    pub offset: i64,
}

impl AddrMode {
    /// `base + 0`.
    pub fn base(base: Reg) -> AddrMode {
        AddrMode { base, offset: 0 }
    }

    /// `base + offset`.
    pub fn with_offset(base: Reg, offset: i64) -> AddrMode {
        AddrMode { base, offset }
    }
}

impl fmt::Debug for AddrMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.offset == 0 {
            write!(f, "[{:?}]", self.base)
        } else {
            write!(f, "[{:?}+{}]", self.base, self.offset)
        }
    }
}

/// Binary arithmetic/logic operations.
///
/// The `F*` variants compute with the same two's-complement integer
/// semantics as their integer counterparts (the library's value domain
/// is `i64`; workloads using floating point in the original benchmarks
/// are re-expressed in fixed point), but are *classified* as
/// floating-point for simulator latency and issue-port modeling.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Signed division; division by zero yields 0 (hardware-style
    /// quiet semantics so the interpreter never traps).
    Div,
    /// Signed remainder; remainder by zero yields 0.
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Shift left by `rhs & 63`.
    Shl,
    /// Arithmetic shift right by `rhs & 63`.
    Shr,
    /// Signed less-than, producing 0 or 1.
    Lt,
    /// Signed less-or-equal, producing 0 or 1.
    Le,
    /// Equality, producing 0 or 1.
    Eq,
    /// Inequality, producing 0 or 1.
    Ne,
    /// Signed minimum.
    Min,
    /// Signed maximum.
    Max,
    /// Floating-class addition (integer semantics, FP latency).
    FAdd,
    /// Floating-class subtraction (integer semantics, FP latency).
    FSub,
    /// Floating-class multiplication (integer semantics, FP latency).
    FMul,
    /// Floating-class division (integer semantics, FP latency).
    FDiv,
}

impl BinOp {
    /// Whether this operation is classified floating-point for the
    /// machine model (issue on FP units, longer latency).
    pub fn is_float_class(self) -> bool {
        matches!(self, BinOp::FAdd | BinOp::FSub | BinOp::FMul | BinOp::FDiv)
    }

    /// Evaluates the operation on two values.
    #[inline]
    pub fn eval(self, lhs: i64, rhs: i64) -> i64 {
        match self {
            BinOp::Add | BinOp::FAdd => lhs.wrapping_add(rhs),
            BinOp::Sub | BinOp::FSub => lhs.wrapping_sub(rhs),
            BinOp::Mul | BinOp::FMul => lhs.wrapping_mul(rhs),
            BinOp::Div | BinOp::FDiv => {
                if rhs == 0 {
                    0
                } else {
                    lhs.wrapping_div(rhs)
                }
            }
            BinOp::Rem => {
                if rhs == 0 {
                    0
                } else {
                    lhs.wrapping_rem(rhs)
                }
            }
            BinOp::And => lhs & rhs,
            BinOp::Or => lhs | rhs,
            BinOp::Xor => lhs ^ rhs,
            BinOp::Shl => lhs.wrapping_shl(rhs as u32 & 63),
            BinOp::Shr => lhs.wrapping_shr(rhs as u32 & 63),
            BinOp::Lt => (lhs < rhs) as i64,
            BinOp::Le => (lhs <= rhs) as i64,
            BinOp::Eq => (lhs == rhs) as i64,
            BinOp::Ne => (lhs != rhs) as i64,
            BinOp::Min => lhs.min(rhs),
            BinOp::Max => lhs.max(rhs),
        }
    }
}

/// Unary operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Copy.
    Mov,
    /// Two's-complement negation.
    Neg,
    /// Bitwise complement.
    Not,
}

impl UnOp {
    /// Evaluates the operation.
    pub fn eval(self, v: i64) -> i64 {
        match self {
            UnOp::Mov => v,
            UnOp::Neg => v.wrapping_neg(),
            UnOp::Not => !v,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_semantics() {
        assert_eq!(BinOp::Add.eval(2, 3), 5);
        assert_eq!(BinOp::Sub.eval(2, 3), -1);
        assert_eq!(BinOp::Div.eval(7, 2), 3);
        assert_eq!(BinOp::Div.eval(7, 0), 0);
        assert_eq!(BinOp::Rem.eval(7, 0), 0);
        assert_eq!(BinOp::Lt.eval(1, 2), 1);
        assert_eq!(BinOp::Lt.eval(2, 1), 0);
        assert_eq!(BinOp::Min.eval(4, -2), -2);
        assert_eq!(BinOp::Shl.eval(1, 65), 2, "shift amount is masked");
    }

    #[test]
    fn float_class_ops_share_integer_semantics() {
        assert_eq!(BinOp::FMul.eval(3, 4), BinOp::Mul.eval(3, 4));
        assert!(BinOp::FMul.is_float_class());
        assert!(!BinOp::Mul.is_float_class());
    }

    #[test]
    fn unop_semantics() {
        assert_eq!(UnOp::Mov.eval(9), 9);
        assert_eq!(UnOp::Neg.eval(9), -9);
        assert_eq!(UnOp::Not.eval(0), -1);
    }

    #[test]
    fn wrapping_never_panics() {
        assert_eq!(BinOp::Add.eval(i64::MAX, 1), i64::MIN);
        assert_eq!(BinOp::Mul.eval(i64::MAX, 2), -2);
        assert_eq!(BinOp::Div.eval(i64::MIN, -1), i64::MIN);
        assert_eq!(UnOp::Neg.eval(i64::MIN), i64::MIN);
    }

    #[test]
    fn operand_conversions() {
        let r = Reg(4);
        let o: Operand = r.into();
        assert_eq!(o, Operand::Reg(r));
        let i: Operand = 7i64.into();
        assert_eq!(i, Operand::Imm(7));
    }

    #[test]
    fn debug_formats() {
        assert_eq!(format!("{:?}", Reg(3)), "r3");
        assert_eq!(format!("{:?}", BlockId(1)), "B1");
        assert_eq!(format!("{:?}", Operand::Imm(-2)), "-2");
        assert_eq!(format!("{:?}", AddrMode::with_offset(Reg(1), 8)), "[r1+8]");
        assert_eq!(format!("{:?}", AddrMode::base(Reg(0))), "[r0]");
    }
}
