//! Dominator and post-dominator trees (Cooper–Harvey–Kennedy).

use crate::function::Function;
use crate::types::BlockId;

/// Node indices used internally: block ids, plus one virtual node for
/// the post-dominator computation's unique exit.
const UNDEF: u32 = u32::MAX;

/// The dominator tree of a function's CFG.
#[derive(Clone, Debug)]
pub struct Dominators {
    idom: Vec<u32>, // immediate dominator per block index; UNDEF for entry/unreachable
    entry: BlockId,
}

impl Dominators {
    /// Computes dominators of `f`.
    pub fn compute(f: &Function) -> Dominators {
        let n = f.num_blocks();
        let preds = f.predecessors();
        let rpo = f.reverse_post_order();
        // Only reachable blocks participate.
        let mut rpo_pos = vec![UNDEF; n];
        for (i, &b) in rpo.iter().enumerate() {
            rpo_pos[b.index()] = i as u32;
        }
        let mut idom = vec![UNDEF; n];
        idom[f.entry().index()] = f.entry().0;
        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip_while(|&&b| b != f.entry()).skip(1) {
                let mut new_idom = UNDEF;
                for &p in &preds[b.index()] {
                    if idom[p.index()] == UNDEF {
                        continue;
                    }
                    new_idom = if new_idom == UNDEF {
                        p.0
                    } else {
                        intersect(&idom, &rpo_pos, new_idom, p.0)
                    };
                }
                if new_idom != UNDEF && idom[b.index()] != new_idom {
                    idom[b.index()] = new_idom;
                    changed = true;
                }
            }
        }
        Dominators { idom, entry: f.entry() }
    }

    /// The immediate dominator of `b` (`None` for the entry block and
    /// unreachable blocks).
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        let d = self.idom[b.index()];
        if d == UNDEF || b == self.entry {
            None
        } else {
            Some(BlockId(d))
        }
    }

    /// Whether `a` dominates `b` (reflexively).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.idom(cur) {
                Some(d) => cur = d,
                None => return false,
            }
        }
    }
}

fn intersect(idom: &[u32], rpo_pos: &[u32], mut a: u32, mut b: u32) -> u32 {
    while a != b {
        while rpo_pos[a as usize] > rpo_pos[b as usize] {
            a = idom[a as usize];
        }
        while rpo_pos[b as usize] > rpo_pos[a as usize] {
            b = idom[b as usize];
        }
    }
    a
}

/// The post-dominator tree of a function's CFG, computed against a
/// virtual exit node that succeeds every `ret` block. MTCG's
/// branch-target fixing and the control-dependence computation both
/// consume this.
#[derive(Clone, Debug)]
pub struct PostDominators {
    /// immediate post-dominator per block index; the virtual exit is
    /// index `n`.
    ipdom: Vec<u32>,
    n: usize,
}

impl PostDominators {
    /// Computes post-dominators of `f`.
    ///
    /// # Panics
    ///
    /// Panics if `f` has an unterminated block.
    pub fn compute(f: &Function) -> PostDominators {
        let n = f.num_blocks();
        let exit = n as u32;
        // Reverse CFG: preds(rev) = succs(fwd); exit's rev-succs are ret blocks.
        let mut rev_succs: Vec<Vec<u32>> = vec![Vec::new(); n + 1]; // preds in forward CFG terms
        let mut rev_preds: Vec<Vec<u32>> = vec![Vec::new(); n + 1];
        for b in f.blocks() {
            let succs = f.successors(b);
            if succs.is_empty() {
                // ret block: forward arc to virtual exit.
                rev_succs[exit as usize].push(b.0);
                rev_preds[b.index()].push(exit);
            }
            for s in succs {
                rev_succs[s.index()].push(b.0);
                rev_preds[b.index()].push(s.0);
            }
        }
        // RPO of the reverse CFG from exit.
        let mut visited = vec![false; n + 1];
        let mut post = Vec::with_capacity(n + 1);
        let mut stack: Vec<(u32, usize)> = vec![(exit, 0)];
        visited[exit as usize] = true;
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            let kids = &rev_succs[node as usize];
            if *next < kids.len() {
                let s = kids[*next];
                *next += 1;
                if !visited[s as usize] {
                    visited[s as usize] = true;
                    stack.push((s, 0));
                }
            } else {
                post.push(node);
                stack.pop();
            }
        }
        post.reverse();
        let mut rpo_pos = vec![UNDEF; n + 1];
        for (i, &b) in post.iter().enumerate() {
            rpo_pos[b as usize] = i as u32;
        }
        let mut ipdom = vec![UNDEF; n + 1];
        ipdom[exit as usize] = exit;
        let mut changed = true;
        while changed {
            changed = false;
            for &b in post.iter().skip(1) {
                let mut new_idom = UNDEF;
                for &p in &rev_preds[b as usize] {
                    if ipdom[p as usize] == UNDEF {
                        continue;
                    }
                    new_idom = if new_idom == UNDEF {
                        p
                    } else {
                        intersect(&ipdom, &rpo_pos, new_idom, p)
                    };
                }
                if new_idom != UNDEF && ipdom[b as usize] != new_idom {
                    ipdom[b as usize] = new_idom;
                    changed = true;
                }
            }
        }
        PostDominators { ipdom, n }
    }

    /// The immediate post-dominator of `b`; `None` if it is the virtual
    /// exit (i.e. `b` is a return block) or `b` is unreachable.
    pub fn ipdom(&self, b: BlockId) -> Option<BlockId> {
        let d = self.ipdom[b.index()];
        if d == UNDEF || d as usize == self.n {
            None
        } else {
            Some(BlockId(d))
        }
    }

    /// Whether `a` post-dominates `b` (reflexively).
    pub fn post_dominates(&self, a: BlockId, b: BlockId) -> bool {
        let mut cur = b.0;
        loop {
            if cur == a.0 {
                return true;
            }
            let next = self.ipdom[cur as usize];
            if next == UNDEF || next as usize == self.n {
                return false;
            }
            if next == cur {
                return false;
            }
            cur = next;
        }
    }

    /// Walks up the post-dominator tree from `b` (exclusive), yielding
    /// ancestors until the virtual exit.
    pub fn ancestors(&self, b: BlockId) -> Ancestors<'_> {
        Ancestors { pdom: self, cur: Some(b) }
    }
}

/// Iterator over proper post-dominator-tree ancestors.
pub struct Ancestors<'a> {
    pdom: &'a PostDominators,
    cur: Option<BlockId>,
}

impl Iterator for Ancestors<'_> {
    type Item = BlockId;

    fn next(&mut self) -> Option<BlockId> {
        let cur = self.cur?;
        let next = self.pdom.ipdom(cur);
        self.cur = next;
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::types::BinOp;

    /// entry(B0) -> {B1, B2} -> B3(ret)
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
    fn diamond_dominators() {
        let f = diamond();
        let dom = Dominators::compute(&f);
        assert_eq!(dom.idom(BlockId(0)), None);
        assert_eq!(dom.idom(BlockId(1)), Some(BlockId(0)));
        assert_eq!(dom.idom(BlockId(2)), Some(BlockId(0)));
        assert_eq!(dom.idom(BlockId(3)), Some(BlockId(0)));
        assert!(dom.dominates(BlockId(0), BlockId(3)));
        assert!(!dom.dominates(BlockId(1), BlockId(3)));
        assert!(dom.dominates(BlockId(3), BlockId(3)));
    }

    #[test]
    fn diamond_post_dominators() {
        let f = diamond();
        let pdom = PostDominators::compute(&f);
        assert_eq!(pdom.ipdom(BlockId(0)), Some(BlockId(3)));
        assert_eq!(pdom.ipdom(BlockId(1)), Some(BlockId(3)));
        assert_eq!(pdom.ipdom(BlockId(2)), Some(BlockId(3)));
        assert_eq!(pdom.ipdom(BlockId(3)), None);
        assert!(pdom.post_dominates(BlockId(3), BlockId(0)));
        assert!(!pdom.post_dominates(BlockId(1), BlockId(0)));
        assert!(pdom.post_dominates(BlockId(1), BlockId(1)));
    }

    #[test]
    fn loop_post_dominators() {
        // B0 -> B1(header) -> {B2(body) -> B1, B3(ret)}
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
        let dom = Dominators::compute(&f);
        let pdom = PostDominators::compute(&f);
        assert!(dom.dominates(BlockId(1), BlockId(2)));
        assert_eq!(pdom.ipdom(BlockId(2)), Some(BlockId(1)));
        assert_eq!(pdom.ipdom(BlockId(1)), Some(BlockId(3)));
        // Body does not post-dominate the header (the loop may exit).
        assert!(!pdom.post_dominates(BlockId(2), BlockId(1)));
        let anc: Vec<_> = pdom.ancestors(BlockId(2)).collect();
        assert_eq!(anc, vec![BlockId(1), BlockId(3)]);
    }
}
