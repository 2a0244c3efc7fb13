//! Control-dependence computation (Ferrante–Ottenstein–Warren).

use crate::dom::PostDominators;
use crate::function::Function;
use crate::types::{BlockId, InstrId};

/// One control dependence: block/instruction `X` executes iff branch
/// `branch` (the terminator of `block`) takes its `edge`-th successor.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ControlDep {
    /// The controlling block (whose terminator is the branch).
    pub block: BlockId,
    /// The controlling branch instruction (terminator of `block`).
    pub branch: InstrId,
    /// Which successor edge of the branch leads to the dependent code
    /// (0 = taken, 1 = fallthrough).
    pub edge: usize,
}

/// Control dependences of every block of a function.
///
/// Computed by the classic CFG-edge walk: for each edge `(A, B)` where
/// `B` does not post-dominate `A`, every node on the post-dominator-tree
/// path from `B` up to (but excluding) `ipdom(A)` is control dependent
/// on that edge.
///
/// Alongside the direct dependences it carries their transitive
/// closure — what Definition 1's relevant branches, the partitioners'
/// branch-replication cost and COCO's §3.1.2 penalties all read.
#[derive(Clone, Debug)]
pub struct ControlDeps {
    deps: Vec<Vec<ControlDep>>,
    /// Every branch some block is control dependent on, sorted.
    branches: Vec<InstrId>,
    /// Per block, a bitset row of `words` words over `branches`: the
    /// block's controlling branches, the branches controlling *their*
    /// blocks, and so on.
    closure: Vec<u64>,
    words: usize,
}

impl ControlDeps {
    /// Computes control dependences for `f` using `pdom`.
    pub fn compute(f: &Function, pdom: &PostDominators) -> ControlDeps {
        let mut deps: Vec<Vec<ControlDep>> = vec![Vec::new(); f.num_blocks()];
        for a in f.blocks() {
            let term = f.block(a).terminator.expect("verified function");
            let succs = f.successors(a);
            if succs.len() < 2 {
                continue; // only conditional branches generate control deps
            }
            for (edge, &b) in succs.iter().enumerate() {
                // Skip only if B *strictly* post-dominates A; a self-loop
                // edge (A -> A) makes A control dependent on itself
                // (do-while loops).
                if b != a && pdom.post_dominates(b, a) {
                    continue;
                }
                let dep = ControlDep { block: a, branch: term, edge };
                // Walk B, ipdom(B), ... up to but excluding ipdom(A)
                // (`None` means the virtual exit). Note a loop header is
                // control dependent on its own branch via this walk.
                let stop = pdom.ipdom(a);
                let mut cur = Some(b);
                while let Some(x) = cur {
                    if Some(x) == stop {
                        break;
                    }
                    if !deps[x.index()].contains(&dep) {
                        deps[x.index()].push(dep);
                    }
                    cur = pdom.ipdom(x);
                }
            }
        }

        let mut branches: Vec<InstrId> = deps.iter().flatten().map(|cd| cd.branch).collect();
        branches.sort_unstable();
        branches.dedup();
        let words = branches.len().div_ceil(64);
        let mut closure = vec![0u64; f.num_blocks() * words];
        for (b, cds) in deps.iter().enumerate() {
            for cd in cds {
                if let Ok(k) = branches.binary_search(&cd.branch) {
                    closure[b * words + k / 64] |= 1 << (k % 64);
                }
            }
        }
        // Close transitively: a controlling branch brings in the
        // branches its own block depends on.
        let branch_block: Vec<usize> = branches.iter().map(|&i| f.block_of(i).index()).collect();
        let mut changed = true;
        while changed {
            changed = false;
            for b in 0..f.num_blocks() {
                for (k, &via) in branch_block.iter().enumerate() {
                    if via == b || closure[b * words + k / 64] & (1 << (k % 64)) == 0 {
                        continue;
                    }
                    for w in 0..words {
                        let add = closure[via * words + w] & !closure[b * words + w];
                        if add != 0 {
                            closure[b * words + w] |= add;
                            changed = true;
                        }
                    }
                }
            }
        }
        ControlDeps { deps, branches, closure, words }
    }

    /// The control dependences of block `b`.
    pub fn of_block(&self, b: BlockId) -> &[ControlDep] {
        &self.deps[b.index()]
    }

    /// The control dependences of instruction `i` (those of its block).
    pub fn of_instr(&self, f: &Function, i: InstrId) -> &[ControlDep] {
        self.of_block(f.block_of(i))
    }

    /// Every branch some block is control dependent on, sorted by id:
    /// the index space of [`ControlDeps::closure_row`].
    pub fn branches(&self) -> &[InstrId] {
        &self.branches
    }

    /// The branches `b` is directly or transitively control dependent
    /// on, as a bitset over [`ControlDeps::branches`] (bit `k` of the
    /// row is `branches()[k]`; `branches().len().div_ceil(64)` words).
    pub fn closure_row(&self, b: BlockId) -> &[u64] {
        &self.closure[b.index() * self.words..][..self.words]
    }

    /// The branches a bitset row over [`ControlDeps::branches`] holds,
    /// in increasing order.
    pub fn branches_in<'a>(&'a self, row: &'a [u64]) -> impl Iterator<Item = InstrId> + 'a {
        row.iter().enumerate().flat_map(move |(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let k = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    self.branches[w * 64 + k]
                })
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::types::BinOp;

    /// B0: br -> {B1, B2}; B1,B2 -> B3(ret).
    fn diamond() -> Function {
        let mut b = FunctionBuilder::new("d");
        let x = b.param();
        let t = b.block("t");
        let e = b.block("e");
        let j = b.block("j");
        let c = b.bin(BinOp::Lt, x, 10i64);
        b.branch(c, t, e);
        b.switch_to(t);
        b.jump(j);
        b.switch_to(e);
        b.jump(j);
        b.switch_to(j);
        b.ret(None);
        b.finish().unwrap()
    }

    #[test]
    fn diamond_arms_depend_on_branch() {
        let f = diamond();
        let pdom = PostDominators::compute(&f);
        let cd = ControlDeps::compute(&f, &pdom);
        assert_eq!(cd.of_block(BlockId(1)).len(), 1);
        assert_eq!(cd.of_block(BlockId(1))[0].block, BlockId(0));
        assert_eq!(cd.of_block(BlockId(1))[0].edge, 0);
        assert_eq!(cd.of_block(BlockId(2))[0].edge, 1);
        // The join and the branch block itself depend on nothing.
        assert!(cd.of_block(BlockId(0)).is_empty());
        assert!(cd.of_block(BlockId(3)).is_empty());
    }

    #[test]
    fn loop_header_controls_body_and_itself() {
        // B0 -> B1(header: br body/exit) ; B2(body) -> B1 ; B3 ret.
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
        let pdom = PostDominators::compute(&f);
        let cd = ControlDeps::compute(&f, &pdom);
        // Body depends on the header's taken edge.
        let body_deps = cd.of_block(BlockId(2));
        assert_eq!(body_deps.len(), 1);
        assert_eq!(body_deps[0].block, BlockId(1));
        assert_eq!(body_deps[0].edge, 0);
        // The header depends on itself (loop-carried control).
        let hdr_deps = cd.of_block(BlockId(1));
        assert_eq!(hdr_deps.len(), 1);
        assert_eq!(hdr_deps[0].block, BlockId(1));
        // Exit post-dominates everything: no control deps.
        assert!(cd.of_block(BlockId(3)).is_empty());
    }

    /// B0: br -> {B1, B4}; B1: br -> {B2, B3}; B2 -> B3 -> B4(ret).
    /// B2 depends on B1's branch directly and on B0's through it.
    #[test]
    fn closure_reaches_through_nested_branches() {
        let mut b = FunctionBuilder::new("n");
        let x = b.param();
        let outer = b.block("outer");
        let inner = b.block("inner");
        let inner_join = b.block("inner_join");
        let join = b.block("join");
        let c = b.bin(BinOp::Lt, x, 10i64);
        b.branch(c, outer, join);
        b.switch_to(outer);
        let c2 = b.bin(BinOp::Lt, x, 5i64);
        b.branch(c2, inner, inner_join);
        b.switch_to(inner);
        b.jump(inner_join);
        b.switch_to(inner_join);
        b.jump(join);
        b.switch_to(join);
        b.ret(None);
        let f = b.finish().unwrap();
        let pdom = PostDominators::compute(&f);
        let cd = ControlDeps::compute(&f, &pdom);
        let outer_br = f.block(BlockId(0)).terminator.unwrap();
        let inner_br = f.block(BlockId(1)).terminator.unwrap();
        assert_eq!(cd.branches(), [outer_br, inner_br]);
        let closure = |b: u32| cd.branches_in(cd.closure_row(BlockId(b))).collect::<Vec<_>>();
        assert_eq!(cd.of_block(BlockId(2)).len(), 1, "only the inner branch is direct");
        assert_eq!(closure(2), [outer_br, inner_br]);
        assert_eq!(closure(1), [outer_br]);
        assert_eq!(closure(3), [outer_br]);
        assert!(closure(0).is_empty() && closure(4).is_empty());
    }

    #[test]
    fn instr_deps_match_block_deps() {
        let f = diamond();
        let pdom = PostDominators::compute(&f);
        let cd = ControlDeps::compute(&f, &pdom);
        let i = f.block(BlockId(1)).terminator.unwrap();
        assert_eq!(cd.of_instr(&f, i), cd.of_block(BlockId(1)));
    }
}
