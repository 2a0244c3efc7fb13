//! Natural-loop detection and the loop forest.
//!
//! GREMIO's hierarchical scheduling walks the loop forest bottom-up, and
//! DSWP's heuristics use loop depth; both come from here.

use crate::dom::Dominators;
use crate::function::Function;
use crate::types::BlockId;

/// A natural loop.
#[derive(Clone, Debug)]
pub struct Loop {
    /// The loop header (target of the back edge(s)).
    pub header: BlockId,
    /// All blocks in the loop, header included.
    pub blocks: Vec<BlockId>,
    /// Parent loop index in the forest, if nested.
    pub parent: Option<usize>,
    /// Nesting depth (outermost loop = 1).
    pub depth: u32,
}

impl Loop {
    /// Whether `b` belongs to this loop.
    pub fn contains(&self, b: BlockId) -> bool {
        self.blocks.contains(&b)
    }
}

/// All natural loops of a function, nested into a forest.
#[derive(Clone, Debug)]
pub struct LoopForest {
    /// The loops, outer loops before their inner loops.
    pub loops: Vec<Loop>,
    /// For each block, the index of its innermost containing loop.
    pub innermost: Vec<Option<usize>>,
}

impl LoopForest {
    /// Detects natural loops of `f` using its dominator tree. Back
    /// edges with the same header are merged into one loop.
    pub fn compute(f: &Function, dom: &Dominators) -> LoopForest {
        // Find back edges (n -> h) where h dominates n; collect bodies.
        let mut headers: Vec<BlockId> = Vec::new();
        let mut bodies: Vec<Vec<BlockId>> = Vec::new();
        let preds = f.predecessors();
        for n in f.blocks() {
            for h in f.successors(n) {
                if !dom.dominates(h, n) {
                    continue;
                }
                let idx = match headers.iter().position(|&x| x == h) {
                    Some(i) => i,
                    None => {
                        headers.push(h);
                        bodies.push(vec![h]);
                        headers.len() - 1
                    }
                };
                // Backward walk from n to h.
                let body = &mut bodies[idx];
                let mut stack = vec![n];
                while let Some(x) = stack.pop() {
                    if body.contains(&x) {
                        continue;
                    }
                    body.push(x);
                    for &p in &preds[x.index()] {
                        stack.push(p);
                    }
                }
            }
        }
        // Nest: loop A is inside loop B if A's header is in B's body
        // (and A != B). Sort outer-first by body size (a containing loop
        // is strictly larger).
        let mut order: Vec<usize> = (0..headers.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(bodies[i].len()));
        let mut loops: Vec<Loop> = Vec::with_capacity(headers.len());
        for &i in &order {
            let mut parent: Option<usize> = None;
            let mut depth = 1;
            // The innermost already-placed loop containing this header.
            for (j, l) in loops.iter().enumerate() {
                if l.header != headers[i] && l.contains(headers[i]) && l.contains(bodies[i][0]) {
                    // candidate parent; pick the deepest.
                    if parent.is_none() || l.depth >= loops[parent.unwrap()].depth {
                        parent = Some(j);
                        depth = l.depth + 1;
                    }
                }
            }
            let mut blocks = bodies[i].clone();
            blocks.sort();
            loops.push(Loop { header: headers[i], blocks, parent, depth });
        }
        // Innermost loop per block: the deepest loop containing it.
        let mut innermost: Vec<Option<usize>> = vec![None; f.num_blocks()];
        for (li, l) in loops.iter().enumerate() {
            for &b in &l.blocks {
                match innermost[b.index()] {
                    Some(prev) if loops[prev].depth >= l.depth => {}
                    _ => innermost[b.index()] = Some(li),
                }
            }
        }
        LoopForest { loops, innermost }
    }

    /// The loop-nesting depth of block `b` (0 = not in any loop).
    pub fn depth_of(&self, b: BlockId) -> u32 {
        self.innermost[b.index()].map_or(0, |i| self.loops[i].depth)
    }

}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::types::BinOp;

    /// Two nested loops:
    /// B0 -> H1 -> {H2 -> {Body2 -> H2, AfterInner -> H1}, Exit}.
    fn nested() -> Function {
        let mut b = FunctionBuilder::new("n");
        let i = b.fresh_reg();
        let j = b.fresh_reg();
        let h1 = b.block("h1");
        let h2 = b.block("h2");
        let body2 = b.block("body2");
        let after = b.block("after");
        let exit = b.block("exit");
        b.const_into(i, 0);
        b.jump(h1);
        b.switch_to(h1);
        let c1 = b.bin(BinOp::Lt, i, 3i64);
        b.branch(c1, h2, exit);
        b.switch_to(h2);
        let c2 = b.bin(BinOp::Lt, j, 3i64);
        b.branch(c2, body2, after);
        b.switch_to(body2);
        b.bin_into(BinOp::Add, j, j, 1i64);
        b.jump(h2);
        b.switch_to(after);
        b.const_into(j, 0);
        b.bin_into(BinOp::Add, i, i, 1i64);
        b.jump(h1);
        b.switch_to(exit);
        b.ret(None);
        b.finish().unwrap()
    }

    #[test]
    fn nested_loops_detected() {
        let f = nested();
        let dom = Dominators::compute(&f);
        let forest = LoopForest::compute(&f, &dom);
        assert_eq!(forest.loops.len(), 2);
        let outer = forest.loops.iter().find(|l| l.header == BlockId(1)).unwrap();
        let inner = forest.loops.iter().find(|l| l.header == BlockId(2)).unwrap();
        assert_eq!(outer.depth, 1);
        assert_eq!(inner.depth, 2);
        assert!(outer.contains(BlockId(2)));
        assert!(outer.contains(BlockId(4)));
        assert!(inner.contains(BlockId(3)));
        assert!(!inner.contains(BlockId(4)));
    }

    #[test]
    fn depth_queries() {
        let f = nested();
        let dom = Dominators::compute(&f);
        let forest = LoopForest::compute(&f, &dom);
        assert_eq!(forest.depth_of(BlockId(0)), 0);
        assert_eq!(forest.depth_of(BlockId(1)), 1);
        assert_eq!(forest.depth_of(BlockId(3)), 2);
        assert_eq!(forest.depth_of(BlockId(5)), 0);
    }

    #[test]
    fn no_loops_in_straight_line() {
        let mut b = FunctionBuilder::new("s");
        b.const_(1);
        b.ret(None);
        let f = b.finish().unwrap();
        let dom = Dominators::compute(&f);
        let forest = LoopForest::compute(&f, &dom);
        assert!(forest.loops.is_empty());
        assert_eq!(forest.depth_of(BlockId(0)), 0);
    }

    #[test]
    fn self_loop_detected() {
        let mut b = FunctionBuilder::new("s");
        let i = b.fresh_reg();
        let l = b.block("l");
        let x = b.block("x");
        b.const_into(i, 0);
        b.jump(l);
        b.switch_to(l);
        b.bin_into(BinOp::Add, i, i, 1i64);
        let c = b.bin(BinOp::Lt, i, 4i64);
        b.branch(c, l, x);
        b.switch_to(x);
        b.ret(None);
        let f = b.finish().unwrap();
        let dom = Dominators::compute(&f);
        let forest = LoopForest::compute(&f, &dom);
        assert_eq!(forest.loops.len(), 1);
        assert_eq!(forest.loops[0].blocks, vec![BlockId(1)]);
    }
}
