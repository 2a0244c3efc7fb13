//! Edge profiles: execution frequencies for CFG arcs and blocks.

use crate::function::Function;
use crate::types::BlockId;
use std::collections::HashMap;

/// An edge profile of one function: how many times each CFG arc was
/// traversed, as collected by the interpreter on a *train* input (§4 of
/// the paper: "The profiles were collected on smaller, train input
/// sets").
///
/// COCO uses these weights as the arc costs of its min-cut flow graphs;
/// the partitioners use the derived block weights for load balancing.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Profile {
    edges: HashMap<(BlockId, BlockId), u64>,
    entries: u64,
}

impl Profile {
    /// An empty profile (all weights zero).
    pub fn new() -> Profile {
        Profile::default()
    }

    /// A synthetic profile assigning every edge of `f` the weight `w`
    /// and entry count `w`. Useful when no training run is available
    /// (the paper notes static estimates also work \[28\]).
    pub fn uniform(f: &Function, w: u64) -> Profile {
        let mut p = Profile::new();
        p.entries = w;
        for b in f.blocks() {
            for s in f.successors(b) {
                p.edges.insert((b, s), w);
            }
        }
        p
    }

    /// Records one traversal of `from -> to`.
    pub fn count_edge(&mut self, from: BlockId, to: BlockId) {
        *self.edges.entry((from, to)).or_insert(0) += 1;
    }

    /// Records one entry into the function.
    pub fn count_entry(&mut self) {
        self.entries += 1;
    }

    /// The weight of arc `from -> to` (zero if never seen).
    pub fn edge(&self, from: BlockId, to: BlockId) -> u64 {
        self.edges.get(&(from, to)).copied().unwrap_or(0)
    }

    /// How many times the function was entered.
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// The execution count of block `b` in `f`: entries for the entry
    /// block plus the weights of all incoming arcs.
    pub fn block_weight(&self, f: &Function, b: BlockId) -> u64 {
        let incoming: u64 = f
            .blocks()
            .map(|p| {
                // An arc exists at most once per (pred, succ) pair.
                if f.successors(p).contains(&b) {
                    self.edge(p, b)
                } else {
                    0
                }
            })
            .sum();
        if b == f.entry() {
            incoming + self.entries
        } else {
            incoming
        }
    }

    /// Block weights for all blocks of `f`, indexed by block id.
    pub fn block_weights(&self, f: &Function) -> Vec<u64> {
        f.blocks().map(|b| self.block_weight(f, b)).collect()
    }
}

/// The edge counts of one run, in a table indexed by source block. A
/// terminator has at most two targets, so two `(target, count)` slots
/// per block hold every edge and counting one is an index and a
/// compare — the interpreter's per-branch cost, where a
/// [`Profile::count_edge`] is a hash-map probe.
pub(crate) struct EdgeCounts {
    /// A slot with count 0 is free.
    slots: Vec<[(BlockId, u64); 2]>,
}

impl EdgeCounts {
    /// An empty table for a function of `blocks` blocks.
    pub(crate) fn new(blocks: usize) -> EdgeCounts {
        EdgeCounts { slots: vec![[(BlockId(0), 0); 2]; blocks] }
    }

    /// Records one traversal of `from -> to`; `from` is one of the
    /// function's blocks.
    #[inline]
    pub(crate) fn count(&mut self, from: BlockId, to: BlockId) {
        let [first, second] = &mut self.slots[from.index()];
        let slot = if first.1 == 0 || first.0 == to { first } else { second };
        debug_assert!(slot.1 == 0 || slot.0 == to, "{from:?} has a third successor {to:?}");
        *slot = (to, slot.1 + 1);
    }

    /// The profile of a run that entered the function once and took
    /// these edges: exactly the arcs traversed, as counting each with
    /// [`Profile::count_edge`] would have left it.
    pub(crate) fn into_profile(self) -> Profile {
        let mut profile = Profile { entries: 1, ..Profile::default() };
        for (from, slots) in self.slots.iter().enumerate() {
            for &(to, count) in slots.iter().filter(|s| s.1 > 0) {
                profile.edges.insert((BlockId(from as u32), to), count);
            }
        }
        profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::types::BinOp;

    fn diamond_fn() -> Function {
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
    fn uniform_profile_weights() {
        let f = diamond_fn();
        let p = Profile::uniform(&f, 3);
        assert_eq!(p.edge(BlockId(0), BlockId(1)), 3);
        assert_eq!(p.block_weight(&f, f.entry()), 3);
        // Join receives both arms.
        assert_eq!(p.block_weight(&f, BlockId(3)), 6);
    }

    #[test]
    fn counting_and_merge() {
        let mut p = Profile::new();
        p.count_entry();
        p.count_edge(BlockId(0), BlockId(1));
        p.count_edge(BlockId(0), BlockId(1));
        assert_eq!(p.entries(), 1);
        assert_eq!(p.edge(BlockId(0), BlockId(1)), 2);
        assert_eq!(p.edge(BlockId(1), BlockId(0)), 0);
    }

    /// The dense table and the hash-map path build the same profile
    /// from the same edge stream (self-loops, a block met first late
    /// in the run, untraversed blocks in between).
    #[test]
    fn dense_counts_equal_count_edge() {
        let stream = [(0, 1), (1, 1), (1, 1), (1, 4), (4, 1), (1, 4), (4, 9), (9, 0), (0, 1), (1, 4)];
        let mut dense = EdgeCounts::new(10);
        let mut hashed = Profile::new();
        hashed.count_entry();
        for (from, to) in stream {
            dense.count(BlockId(from), BlockId(to));
            hashed.count_edge(BlockId(from), BlockId(to));
        }
        let dense = dense.into_profile();
        assert_eq!(dense, hashed);
        assert_eq!(dense.edge(BlockId(1), BlockId(1)), 2);
        assert_eq!(dense.edge(BlockId(1), BlockId(4)), 3);
        assert_eq!(EdgeCounts::new(3).into_profile(), {
            let mut p = Profile::new();
            p.count_entry();
            p
        });
    }
}
