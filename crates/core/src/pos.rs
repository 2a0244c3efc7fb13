//! An instruction-granularity view of the CFG: the positions and arcs
//! from which COCO's flow graphs (`G_f`) are built.

use gmt_ir::{BlockId, Function, InstrId, Profile};
use gmt_mtcg::CommPoint;
use std::collections::HashMap;

/// A program position at instruction granularity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Pos {
    /// The entry of a block (before its first instruction).
    Entry(BlockId),
    /// The slot of an instruction.
    At(InstrId),
}

/// One control-flow arc between positions, annotated with its profile
/// weight and the [`CommPoint`] communication would occupy if placed on
/// it (`None` when the arc is not placeable — an unsplit critical
/// edge).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PosArc {
    /// Tail position.
    pub from: Pos,
    /// Head position.
    pub to: Pos,
    /// Execution count under the profile.
    pub weight: u64,
    /// Concrete insertion point, if placeable.
    pub point: Option<CommPoint>,
}

/// The instruction-granularity control-flow relation of a function.
#[derive(Clone, Debug)]
pub struct PosGraph {
    arcs: Vec<PosArc>,
    /// Block of each position.
    block_of: HashMap<Pos, BlockId>,
}

impl PosGraph {
    /// Builds the position graph of `f` under `profile`, whose
    /// [`Profile::block_weights`] the caller has already derived.
    pub fn build(f: &Function, profile: &Profile, block_weights: &[u64]) -> PosGraph {
        let mut arcs = Vec::new();
        let mut block_of = HashMap::new();
        let mut preds_count = vec![0usize; f.num_blocks()];
        for b in f.blocks() {
            for s in f.successors(b) {
                preds_count[s.index()] += 1;
            }
        }
        for b in f.blocks() {
            let w = block_weights[b.index()];
            let block = f.block(b);
            block_of.insert(Pos::Entry(b), b);
            let mut prev = Pos::Entry(b);
            let mut prev_point: Option<CommPoint> = block
                .instrs
                .first()
                .map(|_| CommPoint::BlockStart(b))
                .or(Some(CommPoint::BlockStart(b)));
            for &i in &block.instrs {
                block_of.insert(Pos::At(i), b);
                arcs.push(PosArc { from: prev, to: Pos::At(i), weight: w, point: prev_point });
                prev = Pos::At(i);
                prev_point = Some(CommPoint::After(i));
            }
            let term = block.terminator.expect("verified function");
            block_of.insert(Pos::At(term), b);
            arcs.push(PosArc { from: prev, to: Pos::At(term), weight: w, point: prev_point });
            // Block-to-block arcs.
            let succs = f.successors(b);
            let single_succ = succs.len() == 1;
            for s in succs {
                let ew = profile.edge(b, s);
                let point = if single_succ {
                    // The edge fires exactly when the block ends.
                    Some(CommPoint::Before(term))
                } else if preds_count[s.index()] == 1 {
                    Some(CommPoint::BlockStart(s))
                } else {
                    None // critical edge: not placeable
                };
                arcs.push(PosArc { from: Pos::At(term), to: Pos::Entry(s), weight: ew, point });
            }
        }
        PosGraph { arcs, block_of }
    }

    /// All arcs.
    pub fn arcs(&self) -> &[PosArc] {
        &self.arcs
    }

    /// The block containing a position.
    pub fn block_of(&self, p: Pos) -> BlockId {
        self.block_of[&p]
    }

    /// All positions (entries and instruction slots).
    pub fn positions(&self) -> impl Iterator<Item = Pos> + '_ {
        self.block_of.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmt_ir::{BinOp, FunctionBuilder};

    #[test]
    fn straight_block_arcs_chain() {
        let mut b = FunctionBuilder::new("s");
        let x = b.const_(1);
        let y = b.bin(BinOp::Add, x, 1i64);
        b.ret(Some(y.into()));
        let f = b.finish().unwrap();
        let profile = Profile::uniform(&f, 5);
        let g = PosGraph::build(&f, &profile, &profile.block_weights(&f));
        // Entry -> const -> add -> ret: 3 arcs, all weight 5.
        assert_eq!(g.arcs().len(), 3);
        assert!(g.arcs().iter().all(|a| a.weight == 5));
        assert!(g.arcs().iter().all(|a| a.point.is_some()));
    }

    #[test]
    fn branch_edges_carry_edge_weights_and_points() {
        let mut b = FunctionBuilder::new("br");
        let x = b.param();
        let t = b.block("t");
        let e = b.block("e");
        let j = b.block("j");
        let c = b.bin(BinOp::Lt, x, 3i64);
        b.branch(c, t, e);
        b.switch_to(t);
        b.jump(j);
        b.switch_to(e);
        b.jump(j);
        b.switch_to(j);
        b.ret(None);
        let f = b.finish().unwrap();
        let profile = Profile::uniform(&f, 2);
        let g = PosGraph::build(&f, &profile, &profile.block_weights(&f));
        // Branch -> Entry(t): single-pred head, so point = BlockStart(t).
        let arc = g
            .arcs()
            .iter()
            .find(|a| a.to == Pos::Entry(BlockId(1)))
            .unwrap();
        assert_eq!(arc.point, Some(CommPoint::BlockStart(BlockId(1))));
        assert_eq!(arc.weight, 2);
        // Jump(t) -> Entry(j): tail has single successor => Before(jump).
        let jt = f.block(BlockId(1)).terminator.unwrap();
        let arc2 = g
            .arcs()
            .iter()
            .find(|a| a.from == Pos::At(jt))
            .unwrap();
        assert_eq!(arc2.point, Some(CommPoint::Before(jt)));
    }

    #[test]
    fn critical_edges_unplaceable() {
        // Hand-build a critical edge: branch to a block with 2 preds.
        let mut b = FunctionBuilder::new("crit");
        let x = b.param();
        let mid = b.block("mid");
        let join = b.block("join");
        let c = b.bin(BinOp::Lt, x, 3i64);
        b.branch(c, join, mid); // branch edge to multi-pred join = critical
        b.switch_to(mid);
        b.jump(join);
        b.switch_to(join);
        b.ret(None);
        let f = b.finish().unwrap();
        assert!(gmt_ir::has_critical_edges(&f));
        let profile = Profile::uniform(&f, 1);
        let g = PosGraph::build(&f, &profile, &profile.block_weights(&f));
        assert!(g.arcs().iter().any(|a| a.point.is_none()));
    }
}
