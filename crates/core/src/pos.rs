//! An instruction-granularity view of the CFG: the positions and arcs
//! from which COCO's flow graphs (`G_f`) are built.

use gmt_ir::{BlockId, Function, InstrId, Profile};
use gmt_mtcg::CommPoint;

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
    /// [`PosGraph::index_of`] the head position.
    pub to_index: u32,
    /// The block `point` lies in — where Property 2 and the §3.1.2
    /// penalty are looked up (the tail's block when there is no point).
    pub point_block: BlockId,
}

/// Index of a position no block holds.
const NO_POS: u32 = u32::MAX;

/// The instruction-granularity control-flow relation of a function.
///
/// Positions carry a dense *layout index*: blocks in index order, each
/// block's entry, body and terminator in program order. Arcs are stored
/// in the order of their tail's index, so the arcs leaving a position
/// are one slice, and the tables COCO keeps per position (live ranges,
/// flow-graph nodes) are plain vectors.
#[derive(Clone, Debug)]
pub struct PosGraph {
    arcs: Vec<PosArc>,
    /// Layout index of `Entry(b)` at `b` and of `At(i)` at
    /// `num_blocks + i`.
    index: Vec<u32>,
    num_blocks: usize,
    /// `arcs[out_start[p]..out_start[p + 1]]` leave layout index `p`.
    out_start: Vec<u32>,
}

impl PosGraph {
    /// Builds the position graph of `f` under `profile`, whose
    /// [`Profile::block_weights`] the caller has already derived.
    pub fn build(f: &Function, profile: &Profile, block_weights: &[u64]) -> PosGraph {
        let num_blocks = f.num_blocks();
        let mut index = vec![NO_POS; num_blocks + f.num_instrs()];
        let mut preds_count = vec![0usize; num_blocks];
        let mut positions = 0u32;
        for b in f.blocks() {
            for s in f.successors(b) {
                preds_count[s.index()] += 1;
            }
            index[b.index()] = positions;
            positions += 1;
            for i in f.block(b).all_instrs() {
                index[num_blocks + i.index()] = positions;
                positions += 1;
            }
        }
        let mut arcs = Vec::new();
        let mut out_start = Vec::with_capacity(positions as usize + 1);
        for b in f.blocks() {
            let w = block_weights[b.index()];
            let block = f.block(b);
            let mut prev = Pos::Entry(b);
            let mut prev_point = CommPoint::BlockStart(b);
            let term = block.terminator.expect("verified function");
            for i in block.all_instrs() {
                out_start.push(arcs.len() as u32);
                arcs.push(PosArc {
                    from: prev,
                    to: Pos::At(i),
                    weight: w,
                    point: Some(prev_point),
                    to_index: index[num_blocks + i.index()],
                    point_block: b,
                });
                prev = Pos::At(i);
                prev_point = CommPoint::After(i);
            }
            // Block-to-block arcs.
            out_start.push(arcs.len() as u32);
            let succs = f.successors(b);
            let single_succ = succs.len() == 1;
            for s in succs {
                let (point, point_block) = if single_succ {
                    // The edge fires exactly when the block ends.
                    (Some(CommPoint::Before(term)), b)
                } else if preds_count[s.index()] == 1 {
                    (Some(CommPoint::BlockStart(s)), s)
                } else {
                    (None, b) // critical edge: not placeable
                };
                arcs.push(PosArc {
                    from: Pos::At(term),
                    to: Pos::Entry(s),
                    weight: profile.edge(b, s),
                    point,
                    to_index: index[s.index()],
                    point_block,
                });
            }
        }
        out_start.push(arcs.len() as u32);
        PosGraph { arcs, index, num_blocks, out_start }
    }

    /// All arcs, in the order of their tail's layout index.
    pub fn arcs(&self) -> &[PosArc] {
        &self.arcs
    }

    /// Number of positions (block entries and instruction slots).
    pub fn num_positions(&self) -> usize {
        self.out_start.len() - 1
    }

    /// The layout index of `p`, in `0..num_positions()`; `None` for a
    /// block or instruction the function does not lay out.
    pub fn index_of(&self, p: Pos) -> Option<usize> {
        let slot = match p {
            Pos::Entry(b) if b.index() < self.num_blocks => b.index(),
            Pos::Entry(_) => return None,
            Pos::At(i) => self.num_blocks + i.index(),
        };
        self.index.get(slot).filter(|&&at| at != NO_POS).map(|&at| at as usize)
    }

    /// The arcs leaving the position of layout index `index`.
    pub fn arcs_from(&self, index: usize) -> &[PosArc] {
        &self.arcs[self.out_start[index] as usize..self.out_start[index + 1] as usize]
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

    /// Layout indices run over the positions in program order, and the
    /// arcs leaving a position are the slice `arcs_from` hands out.
    #[test]
    fn layout_indices_group_the_arcs_by_tail() {
        let mut b = FunctionBuilder::new("br");
        let x = b.param();
        let t = b.block("t");
        let e = b.block("e");
        let c = b.bin(BinOp::Lt, x, 3i64);
        b.branch(c, t, e);
        b.switch_to(t);
        b.ret(None);
        b.switch_to(e);
        b.ret(None);
        let f = b.finish().unwrap();
        let profile = Profile::uniform(&f, 1);
        let g = PosGraph::build(&f, &profile, &profile.block_weights(&f));
        // entry, lt, branch, Entry(t), ret, Entry(e), ret.
        assert_eq!(g.num_positions(), 7);
        let regrouped: Vec<PosArc> =
            (0..g.num_positions()).flat_map(|p| g.arcs_from(p).to_vec()).collect();
        assert_eq!(regrouped, g.arcs());
        for (p, arc) in (0..g.num_positions()).flat_map(|p| g.arcs_from(p).iter().map(move |a| (p, a))) {
            assert_eq!(g.index_of(arc.from), Some(p));
            assert_eq!(g.index_of(arc.to), Some(arc.to_index as usize));
        }
        let branch = f.block(f.entry()).terminator.unwrap();
        assert_eq!(g.index_of(Pos::At(branch)), Some(2));
        assert_eq!(g.arcs_from(2).len(), 2, "a branch has two leaving arcs");
        // Single-pred successors take the point into their own block.
        assert!(g.arcs_from(2).iter().all(|a| Pos::Entry(a.point_block) == a.to));
        assert_eq!(g.index_of(Pos::Entry(BlockId(9))), None);
        assert_eq!(g.index_of(Pos::At(InstrId(99))), None);
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
