//! Data-flow analyses: a dense bit-set, (filtered) liveness, and
//! reaching definitions / def-use chains.

use crate::function::Function;
use crate::types::{InstrId, Reg};
use std::collections::HashMap;

/// A dense bit set over `usize` indices.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// An empty set sized for `n` elements.
    pub fn new(n: usize) -> BitSet {
        BitSet { words: vec![0; n.div_ceil(64)] }
    }

    /// Inserts `i`; returns whether the set changed.
    pub fn insert(&mut self, i: usize) -> bool {
        let (w, b) = (i / 64, i % 64);
        let old = self.words[w];
        self.words[w] |= 1 << b;
        self.words[w] != old
    }

    /// Removes `i`.
    pub fn remove(&mut self, i: usize) {
        let (w, b) = (i / 64, i % 64);
        self.words[w] &= !(1 << b);
    }

    /// Whether `i` is in the set.
    pub fn contains(&self, i: usize) -> bool {
        let (w, b) = (i / 64, i % 64);
        self.words.get(w).is_some_and(|&word| word & (1 << b) != 0)
    }

    /// Unions `other` in; returns whether the set changed.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        let mut changed = false;
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            let old = *a;
            *a |= b;
            changed |= *a != old;
        }
        changed
    }

    /// Intersects `other` in.
    pub fn intersect_with(&mut self, other: &BitSet) {
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// Removes all elements of `other`.
    pub fn subtract(&mut self, other: &BitSet) {
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Iterates over the set elements in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    wi * 64 + b
                })
            })
        })
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The backing words: element `i` is bit `i % 64` of word `i / 64`,
    /// and a set made by [`BitSet::new`]`(n)` has `ceil(n / 64)` words.
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

/// Per-block liveness of registers, with a *use filter*.
///
/// Standard liveness uses every instruction's uses; COCO's thread-aware
/// variant ("the live range of r considering only the uses of r in the
/// instructions assigned to T_t", §3.1.1) passes a filter that accepts
/// only target-thread instructions. Definitions always kill, regardless
/// of thread, because a redefinition anywhere makes the old value stale.
#[derive(Clone, Debug)]
pub struct Liveness {
    /// Live registers at each block entry.
    pub live_in: Vec<BitSet>,
    /// Live registers at each block exit.
    pub live_out: Vec<BitSet>,
}

impl Liveness {
    /// Computes liveness counting the uses of every instruction.
    pub fn compute(f: &Function) -> Liveness {
        Liveness::compute_filtered(f, |_| true)
    }

    /// Computes liveness counting only uses of instructions accepted by
    /// `use_filter`.
    pub fn compute_filtered(f: &Function, use_filter: impl Fn(InstrId) -> bool) -> Liveness {
        let nb = f.num_blocks();
        let nr = f.num_regs() as usize;
        // Per-block gen (upward-exposed filtered uses) and kill (defs).
        let mut gen = vec![BitSet::new(nr); nb];
        let mut kill = vec![BitSet::new(nr); nb];
        let mut uses = Vec::new();
        for b in f.blocks() {
            let (g, k) = (&mut gen[b.index()], &mut kill[b.index()]);
            for i in f.block(b).all_instrs() {
                uses.clear();
                f.instr(i).uses_into(&mut uses);
                if use_filter(i) {
                    for r in &uses {
                        if !k.contains(r.index()) {
                            g.insert(r.index());
                        }
                    }
                }
                if let Some(d) = f.instr(i).def() {
                    k.insert(d.index());
                }
            }
        }
        let mut live_in = vec![BitSet::new(nr); nb];
        let mut live_out = vec![BitSet::new(nr); nb];
        // Backward fixpoint over reverse RPO.
        let mut order = f.reverse_post_order();
        order.reverse();
        let mut changed = true;
        while changed {
            changed = false;
            for &b in &order {
                let mut out = BitSet::new(nr);
                for s in f.successors(b) {
                    out.union_with(&live_in[s.index()]);
                }
                let mut inn = out.clone();
                inn.subtract(&kill[b.index()]);
                inn.union_with(&gen[b.index()]);
                if out != live_out[b.index()] || inn != live_in[b.index()] {
                    live_out[b.index()] = out;
                    live_in[b.index()] = inn;
                    changed = true;
                }
            }
        }
        Liveness { live_in, live_out }
    }

    /// Whether `r` is live at the entry of block `b`.
    pub fn live_at_entry(&self, b: crate::types::BlockId, r: Reg) -> bool {
        self.live_in[b.index()].contains(r.index())
    }

    /// Whether `r` is live at the exit of block `b`.
    pub fn live_at_exit(&self, b: crate::types::BlockId, r: Reg) -> bool {
        self.live_out[b.index()].contains(r.index())
    }
}

/// Def-use chains via reaching definitions.
///
/// For every instruction use `(user, r)` the analysis records which
/// definitions of `r` may reach it — exactly the register data
/// dependences the PDG needs.
#[derive(Clone, Debug)]
pub struct DefUse {
    /// For each (use instruction, register): the reaching definitions.
    reaching: HashMap<(InstrId, Reg), Vec<InstrId>>,
    /// Definitions of each register that may reach function exit.
    live_out_defs: HashMap<Reg, Vec<InstrId>>,
}

impl DefUse {
    /// Computes def-use chains for `f`. Parameters are modeled as
    /// defined by a virtual entry definition which is *not* reported
    /// (uses reached only by the parameter value get no dependence).
    pub fn compute(f: &Function) -> DefUse {
        // Enumerate definitions.
        let mut defs: Vec<(InstrId, Reg)> = Vec::new();
        let mut defs_of_reg: HashMap<Reg, Vec<usize>> = HashMap::new();
        for b in f.blocks() {
            for i in f.block(b).all_instrs() {
                if let Some(d) = f.instr(i).def() {
                    defs_of_reg.entry(d).or_default().push(defs.len());
                    defs.push((i, d));
                }
            }
        }
        let nd = defs.len();
        let nb = f.num_blocks();
        // Per-block gen/kill over definition indices.
        let mut gen = vec![BitSet::new(nd); nb];
        let mut kill = vec![BitSet::new(nd); nb];
        let mut def_index_at: HashMap<InstrId, usize> = HashMap::new();
        for (di, &(i, _)) in defs.iter().enumerate() {
            def_index_at.insert(i, di);
        }
        for b in f.blocks() {
            for i in f.block(b).all_instrs() {
                if let Some(d) = f.instr(i).def() {
                    let di = def_index_at[&i];
                    // This def kills all other defs of d and gens itself.
                    for &other in &defs_of_reg[&d] {
                        if other != di {
                            kill[b.index()].insert(other);
                        }
                        gen[b.index()].remove(other);
                    }
                    gen[b.index()].insert(di);
                }
            }
        }
        // Forward fixpoint.
        let order = f.reverse_post_order();
        let preds = f.predecessors();
        let mut reach_in = vec![BitSet::new(nd); nb];
        let mut reach_out = vec![BitSet::new(nd); nb];
        let mut changed = true;
        while changed {
            changed = false;
            for &b in &order {
                let mut inn = BitSet::new(nd);
                for &p in &preds[b.index()] {
                    inn.union_with(&reach_out[p.index()]);
                }
                let mut out = inn.clone();
                out.subtract(&kill[b.index()]);
                out.union_with(&gen[b.index()]);
                if inn != reach_in[b.index()] || out != reach_out[b.index()] {
                    reach_in[b.index()] = inn;
                    reach_out[b.index()] = out;
                    changed = true;
                }
            }
        }
        // Walk blocks recording reaching defs at each use.
        let mut reaching: HashMap<(InstrId, Reg), Vec<InstrId>> = HashMap::new();
        let mut uses = Vec::new();
        for b in f.blocks() {
            let mut cur = reach_in[b.index()].clone();
            for i in f.block(b).all_instrs() {
                uses.clear();
                f.instr(i).uses_into(&mut uses);
                for &r in &uses {
                    let mut sources: Vec<InstrId> = defs_of_reg
                        .get(&r)
                        .into_iter()
                        .flatten()
                        .filter(|&&di| cur.contains(di))
                        .map(|&di| defs[di].0)
                        .collect();
                    sources.sort();
                    sources.dedup();
                    if !sources.is_empty() {
                        reaching.insert((i, r), sources);
                    }
                }
                if let Some(d) = f.instr(i).def() {
                    for &other in &defs_of_reg[&d] {
                        cur.remove(other);
                    }
                    cur.insert(def_index_at[&i]);
                }
            }
        }
        // Live-out defs: defs reaching the exit of any ret block.
        let mut live_out_defs: HashMap<Reg, Vec<InstrId>> = HashMap::new();
        for b in f.blocks() {
            if !f.successors(b).is_empty() {
                continue;
            }
            for di in reach_out[b.index()].iter() {
                let (i, r) = defs[di];
                let v = live_out_defs.entry(r).or_default();
                if !v.contains(&i) {
                    v.push(i);
                }
            }
        }
        DefUse { reaching, live_out_defs }
    }

    /// Definitions of `r` that may reach the use in `user`.
    pub fn reaching_defs(&self, user: InstrId, r: Reg) -> &[InstrId] {
        self.reaching.get(&(user, r)).map(Vec::as_slice).unwrap_or(&[])
    }

    /// All (use, reg, def) triples, sorted.
    pub fn def_use_pairs(&self) -> Vec<(InstrId, InstrId, Reg)> {
        let mut pairs: Vec<(InstrId, InstrId, Reg)> = Vec::new();
        for (&(user, r), ds) in &self.reaching {
            for &d in ds {
                pairs.push((d, user, r));
            }
        }
        pairs.sort();
        pairs
    }

    /// Definitions of `r` that may reach the function's exit.
    pub fn live_out_defs(&self, r: Reg) -> &[InstrId] {
        self.live_out_defs.get(&r).map(Vec::as_slice).unwrap_or(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::types::{BinOp, BlockId};

    #[test]
    fn bitset_basics() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(129));
        assert!(s.contains(64));
        assert!(!s.contains(63));
        assert_eq!(s.len(), 3);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 64, 129]);
        s.remove(64);
        assert!(!s.contains(64));
        let mut t = BitSet::new(130);
        t.insert(1);
        assert!(s.union_with(&t));
        assert!(!s.union_with(&t));
        t.insert(0);
        s.intersect_with(&t);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 1]);
        s.subtract(&t);
        assert!(s.is_empty());
    }

    /// r0 defined in entry, used in exit: live across the middle block.
    #[test]
    fn liveness_across_blocks() {
        let mut b = FunctionBuilder::new("l");
        let mid = b.block("mid");
        let exit = b.block("exit");
        let v = b.const_(42);
        b.jump(mid);
        b.switch_to(mid);
        b.jump(exit);
        b.switch_to(exit);
        b.ret(Some(v.into()));
        let f = b.finish().unwrap();
        let live = Liveness::compute(&f);
        assert!(live.live_at_entry(BlockId(1), v));
        assert!(live.live_at_exit(BlockId(0), v));
        assert!(!live.live_at_entry(BlockId(0), v));
    }

    #[test]
    fn filtered_liveness_ignores_foreign_uses() {
        let mut b = FunctionBuilder::new("l");
        let exit = b.block("exit");
        let v = b.const_(42);
        b.jump(exit);
        b.switch_to(exit);
        b.output(v);
        b.ret(None);
        let f = b.finish().unwrap();
        let use_instr = f.block(BlockId(1)).instrs[0];
        // Filter rejects the only use: nothing live.
        let live = Liveness::compute_filtered(&f, |i| i != use_instr);
        assert!(!live.live_at_entry(BlockId(1), v));
        // Filter accepts it: live.
        let live = Liveness::compute_filtered(&f, |_| true);
        assert!(live.live_at_entry(BlockId(1), v));
    }

    #[test]
    fn reaching_defs_through_diamond() {
        // r = 1; if (p) r = 2; use(r) — use sees both defs... here: def
        // in entry, redefinition in one arm.
        let mut b = FunctionBuilder::new("d");
        let p = b.param();
        let r = b.fresh_reg();
        let arm = b.block("arm");
        let join = b.block("join");
        b.const_into(r, 1);
        b.branch(p, arm, join);
        b.switch_to(arm);
        b.const_into(r, 2);
        b.jump(join);
        b.switch_to(join);
        b.output(r);
        b.ret(None);
        let f = b.finish().unwrap();
        let du = DefUse::compute(&f);
        let use_instr = f.block(BlockId(2)).instrs[0];
        let defs = du.reaching_defs(use_instr, r);
        assert_eq!(defs.len(), 2, "both definitions reach the join use");
    }

    #[test]
    fn redefinition_kills() {
        let mut b = FunctionBuilder::new("k");
        let r = b.fresh_reg();
        b.const_into(r, 1);
        b.const_into(r, 2);
        b.output(r);
        b.ret(None);
        let f = b.finish().unwrap();
        let du = DefUse::compute(&f);
        let entry = f.entry();
        let second_def = f.block(entry).instrs[1];
        let use_instr = f.block(entry).instrs[2];
        assert_eq!(du.reaching_defs(use_instr, r), &[second_def]);
    }

    #[test]
    fn loop_carried_def_use() {
        // i updated in body, used in header condition: body def reaches
        // header use around the back edge.
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
        let du = DefUse::compute(&f);
        let cond_instr = f.block(BlockId(1)).instrs[0];
        let defs = du.reaching_defs(cond_instr, i);
        assert_eq!(defs.len(), 2, "init and loop update both reach the condition");
    }

    #[test]
    fn live_out_defs_reported() {
        let mut b = FunctionBuilder::new("lo");
        let r = b.const_(5);
        b.ret(Some(r.into()));
        let f = b.finish().unwrap();
        let du = DefUse::compute(&f);
        assert_eq!(du.live_out_defs(r).len(), 1);
    }

    #[test]
    fn def_use_pairs_sorted_and_complete() {
        let mut b = FunctionBuilder::new("p");
        let x = b.const_(1);
        let y = b.bin(BinOp::Add, x, x);
        b.ret(Some(y.into()));
        let f = b.finish().unwrap();
        let du = DefUse::compute(&f);
        let pairs = du.def_use_pairs();
        // x -> add (one pair, even though used twice as operand), add -> ret.
        assert_eq!(pairs.len(), 2);
        assert!(pairs.windows(2).all(|w| w[0] <= w[1]));
    }
}
