//! Instruction weight and latency estimates shared by the partitioners.

use gmt_ir::{BinOp, Function, InstrId, Op};

/// Estimated occupancy/latency of one instruction in cycles, loosely
/// modeled on Itanium 2 latencies (the machine of the paper's
/// evaluation): 1 for simple ALU ops and branches, longer for
/// multiplies, loads, and FP.
pub fn latency(op: &Op) -> u64 {
    match op {
        Op::Bin(b, ..) => match b {
            BinOp::Mul => 3,
            BinOp::Div | BinOp::Rem => 12,
            BinOp::FAdd | BinOp::FSub => 4,
            BinOp::FMul => 4,
            BinOp::FDiv => 16,
            _ => 1,
        },
        Op::Load(..) => 2,
        Op::Store(..) | Op::Output(_) => 1,
        Op::Produce { .. } | Op::Consume { .. } => 1,
        Op::ProduceSync { .. } | Op::ConsumeSync { .. } => 1,
        _ => 1,
    }
}

/// Per-instruction dynamic weight: execution count (profile weight of
/// the containing block) times latency.
#[derive(Clone, Debug)]
pub struct InstrWeights {
    weights: Vec<u64>,
    exec_counts: Vec<u64>,
}

impl InstrWeights {
    /// Computes weights for every instruction of `f` from its profile
    /// block weights ([`gmt_ir::Profile::block_weights`]).
    pub fn compute(f: &Function, block_w: &[u64]) -> InstrWeights {
        let mut weights = vec![0u64; f.num_instrs()];
        let mut exec_counts = vec![0u64; f.num_instrs()];
        for b in f.blocks() {
            for i in f.block(b).all_instrs() {
                exec_counts[i.index()] = block_w[b.index()];
                weights[i.index()] = block_w[b.index()].max(1) * latency(f.instr(i));
            }
        }
        InstrWeights { weights, exec_counts }
    }

    /// Dynamic weight (execution count × latency) of `i`.
    pub fn weight(&self, i: InstrId) -> u64 {
        self.weights[i.index()]
    }

    /// Execution count of `i` under the profile.
    pub fn exec_count(&self, i: InstrId) -> u64 {
        self.exec_counts[i.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmt_ir::{FunctionBuilder, Profile, Reg};

    #[test]
    fn latencies_ordered_sensibly() {
        let add = Op::Bin(BinOp::Add, Reg(0), Reg(0).into(), Reg(0).into());
        let mul = Op::Bin(BinOp::Mul, Reg(0), Reg(0).into(), Reg(0).into());
        let div = Op::Bin(BinOp::Div, Reg(0), Reg(0).into(), Reg(0).into());
        assert!(latency(&add) < latency(&mul));
        assert!(latency(&mul) < latency(&div));
    }

    #[test]
    fn weights_scale_with_profile() {
        let mut b = FunctionBuilder::new("w");
        let x = b.const_(3);
        b.ret(Some(x.into()));
        let f = b.finish().unwrap();
        let p = Profile::uniform(&f, 50);
        let w = InstrWeights::compute(&f, &p.block_weights(&f));
        let c = f.block(f.entry()).instrs[0];
        assert_eq!(w.exec_count(c), 50);
        assert_eq!(w.weight(c), 50);
    }
}
