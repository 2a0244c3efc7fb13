//! The thread-aware *safety* data-flow analysis (Property 3, equations
//! (1)–(2) of the paper).
//!
//! A register `r` is *safe to communicate* from thread `T_s` at a
//! program point when `T_s` is guaranteed to hold the latest value of
//! `r` there:
//!
//! ```text
//! SAFE_out(n) = DEF_Ts(n) ∪ USE_Ts(n) ∪ (SAFE_in(n) − DEF(n))
//! SAFE_in(n)  = ⋂ over predecessors p of SAFE_out(p)
//! ```
//!
//! `T_s` gains the value by defining or using `r`; it loses it when any
//! other thread redefines `r`. This is a *must* analysis (intersection
//! confluence): the entry starts empty and all other points start full.

use gmt_ir::{BitSet, BlockId, Function, InstrId, Reg};
use gmt_pdg::{Partition, ThreadId};

/// The safety sets of one source thread over a whole function.
#[derive(Clone, Debug)]
pub struct Safety {
    /// Words per instruction in `safe_out`: `ceil(num_regs / 64)`.
    stride: usize,
    /// SAFE set just after each instruction, one flat table: the set of
    /// instruction `i` is the `BitSet` words
    /// `safe_out[i * stride..(i + 1) * stride]`.
    safe_out: Vec<u64>,
    /// SAFE set at each block entry.
    safe_entry: Vec<BitSet>,
}

impl Safety {
    /// Computes safety for source thread `s`.
    pub fn compute(f: &Function, partition: &Partition, s: ThreadId) -> Safety {
        let nr = f.num_regs() as usize;
        let nb = f.num_blocks();
        let full = {
            let mut b = BitSet::new(nr);
            for i in 0..nr {
                b.insert(i);
            }
            b
        };
        // Parameters are broadcast to every thread, so every thread
        // holds their latest value on entry (until someone redefines).
        let mut entry_in = BitSet::new(nr);
        for p in &f.params {
            entry_in.insert(p.index());
        }

        let mut safe_entry = vec![full.clone(); nb];
        safe_entry[f.entry().index()] = entry_in;
        let mut safe_exit = vec![full.clone(); nb]; // SAFE_out of terminator
        let preds = f.predecessors();
        let order = f.reverse_post_order();

        // Block transfer: run the instruction-level equations.
        let transfer = |f: &Function, partition: &Partition, b: BlockId, inn: &BitSet| -> BitSet {
            let mut cur = inn.clone();
            for i in f.block(b).all_instrs() {
                step(f, partition, s, i, &mut cur);
            }
            cur
        };

        let mut changed = true;
        while changed {
            changed = false;
            for &b in &order {
                let mut inn = if b == f.entry() {
                    safe_entry[f.entry().index()].clone()
                } else if preds[b.index()].is_empty() {
                    // Unreachable block: keep full (vacuous).
                    full.clone()
                } else {
                    let mut acc = full.clone();
                    for &p in &preds[b.index()] {
                        acc.intersect_with(&safe_exit[p.index()]);
                    }
                    acc
                };
                if b == f.entry() {
                    // Entry also meets with back edges into the entry
                    // block, if any.
                    for &p in &preds[b.index()] {
                        inn.intersect_with(&safe_exit[p.index()]);
                    }
                }
                let out = transfer(f, partition, b, &inn);
                if inn != safe_entry[b.index()] || out != safe_exit[b.index()] {
                    safe_entry[b.index()] = inn;
                    safe_exit[b.index()] = out;
                    changed = true;
                }
            }
        }

        // Final pass: per-instruction SAFE_out.
        let stride = nr.div_ceil(64);
        let mut safe_out = vec![0; f.num_instrs() * stride];
        for b in f.blocks() {
            let mut cur = safe_entry[b.index()].clone();
            for i in f.block(b).all_instrs() {
                step(f, partition, s, i, &mut cur);
                safe_out[i.index() * stride..][..stride].copy_from_slice(cur.words());
            }
        }
        Safety { stride, safe_out, safe_entry }
    }

    /// Whether `r` is safe just after instruction `i`.
    pub fn safe_after(&self, i: InstrId, r: Reg) -> bool {
        let (w, b) = (r.index() / 64, r.index() % 64);
        w < self.stride && self.safe_out[i.index() * self.stride + w] & (1 << b) != 0
    }

    /// Whether `r` is safe at the entry of block `b`.
    pub fn safe_at_entry(&self, b: BlockId, r: Reg) -> bool {
        self.safe_entry[b.index()].contains(r.index())
    }
}

/// One application of equation (1).
fn step(f: &Function, partition: &Partition, s: ThreadId, i: InstrId, cur: &mut BitSet) {
    let op = f.instr(i);
    let mine = partition.get(i) == Some(s);
    if let Some(d) = op.def() {
        if mine {
            cur.insert(d.index());
        } else {
            cur.remove(d.index());
        }
    }
    if mine {
        for u in op.uses() {
            cur.insert(u.index());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flowgraph::tests::for_catalog_and_generated_partitions;
    use gmt_ir::{BinOp, FunctionBuilder};
    use gmt_testkit::prop_assert_eq;

    /// Equations (1)–(2) solved per instruction, one `BitSet` each, by
    /// round-robin iteration from "everything safe" (the entry block
    /// starts from the parameters): the layout the flat table replaced.
    /// Returns SAFE_out per instruction id and SAFE_in per block.
    fn per_instruction_reference(
        f: &Function,
        partition: &Partition,
        s: ThreadId,
    ) -> (Vec<BitSet>, Vec<BitSet>) {
        let nr = f.num_regs() as usize;
        let mut full = BitSet::new(nr);
        for r in 0..nr {
            full.insert(r);
        }
        let preds = f.predecessors();
        let mut out = vec![full.clone(); f.num_instrs()];
        let mut entry = vec![full.clone(); f.num_blocks()];
        let mut changed = true;
        while changed {
            changed = false;
            for b in f.blocks() {
                let mut cur = if b == f.entry() {
                    let mut params = BitSet::new(nr);
                    for p in &f.params {
                        params.insert(p.index());
                    }
                    params
                } else {
                    full.clone()
                };
                for &p in &preds[b.index()] {
                    let last = f.block(p).all_instrs().last();
                    cur.intersect_with(last.map_or(&entry[p.index()], |t| &out[t.index()]));
                }
                changed |= cur != entry[b.index()];
                entry[b.index()] = cur.clone();
                for i in f.block(b).all_instrs() {
                    let op = f.instr(i);
                    let mine = partition.get(i) == Some(s);
                    if let Some(d) = op.def() {
                        if mine {
                            cur.insert(d.index());
                        } else {
                            cur.remove(d.index());
                        }
                    }
                    if mine {
                        for u in op.uses() {
                            cur.insert(u.index());
                        }
                    }
                    changed |= cur != out[i.index()];
                    out[i.index()] = cur.clone();
                }
            }
        }
        (out, entry)
    }

    /// The flat SAFE_out table answers exactly as one `BitSet` per
    /// instruction: every register after every instruction and at
    /// every block entry, for every source thread of the catalog's and
    /// generated programs' partitions.
    #[test]
    fn flat_table_matches_a_bitset_per_instruction() {
        let name = "safety::flat_vs_per_instruction";
        for_catalog_and_generated_partitions(name, 40, |f, _, partition, _| {
            for t in 0..partition.num_threads() {
                let s = ThreadId(t);
                let safety = Safety::compute(f, partition, s);
                let (out, entry) = per_instruction_reference(f, partition, s);
                for r in (0..f.num_regs()).map(Reg) {
                    for i in f.all_instrs() {
                        let want = out[i.index()].contains(r.index());
                        prop_assert_eq!(safety.safe_after(i, r), want, "{s:?} after {i:?}, {r:?}");
                    }
                    for b in f.blocks() {
                        let want = entry[b.index()].contains(r.index());
                        prop_assert_eq!(
                            safety.safe_at_entry(b, r),
                            want,
                            "{s:?} entering {b:?}, {r:?}"
                        );
                    }
                }
            }
            Ok(())
        });
    }

    /// r defined by T0, then redefined by T1: safe for T0 only between
    /// its def and T1's redef.
    #[test]
    fn redefinition_by_other_thread_kills_safety() {
        let mut b = FunctionBuilder::new("s");
        let r = b.fresh_reg();
        b.const_into(r, 1); // i0: T0 defines
        b.const_into(r, 2); // i1: T1 redefines
        b.output(r); // i2
        b.ret(None); // i3
        let f = b.finish().unwrap();
        let instrs: Vec<_> = f.all_instrs().collect();
        let mut p = Partition::new(2);
        p.assign(instrs[0], ThreadId(0));
        p.assign(instrs[1], ThreadId(1));
        p.assign(instrs[2], ThreadId(0));
        p.assign(instrs[3], ThreadId(0));
        let safety = Safety::compute(&f, &p, ThreadId(0));
        assert!(safety.safe_after(instrs[0], r));
        assert!(!safety.safe_after(instrs[1], r), "T1 redefined r");
        // A use by T0 re-establishes safety... but only if T0 actually
        // uses it; output(r) is T0's use:
        assert!(safety.safe_after(instrs[2], r));
    }

    /// Join of two paths: safe only if safe on both.
    #[test]
    fn intersection_at_joins() {
        let mut b = FunctionBuilder::new("j");
        let x = b.param();
        let r = b.fresh_reg();
        let t = b.block("t");
        let e = b.block("e");
        let j = b.block("j");
        let c = b.bin(BinOp::Lt, x, 3i64); // i0 (T0)
        b.branch(c, t, e); // i1 (T0)
        b.switch_to(t);
        b.const_into(r, 1); // i2: T0 defines r on then-path
        b.jump(j); // i3
        b.switch_to(e);
        b.const_into(r, 2); // i4: T1 defines r on else-path
        b.jump(j); // i5
        b.switch_to(j);
        b.output(r); // i6 (T1)
        b.ret(None); // i7
        let f = b.finish().unwrap();
        let instrs: Vec<_> = f.all_instrs().collect();
        let mut p = Partition::new(2);
        for &i in &instrs {
            p.assign(i, ThreadId(0));
        }
        p.assign(instrs[4], ThreadId(1));
        p.assign(instrs[6], ThreadId(1));
        let safety = Safety::compute(&f, &p, ThreadId(0));
        // After T0's def in then-block: safe.
        assert!(safety.safe_after(instrs[2], r));
        // After T1's def in else-block: unsafe for T0.
        assert!(!safety.safe_after(instrs[4], r));
        // At join entry: intersection => unsafe.
        assert!(!safety.safe_at_entry(BlockId(3), r));
    }

    #[test]
    fn params_safe_everywhere_until_redefined() {
        let mut b = FunctionBuilder::new("p");
        let x = b.param();
        let y = b.bin(BinOp::Add, x, 1i64); // i0 (T1)
        b.output(y); // i1 (T0)
        b.ret(None); // i2
        let f = b.finish().unwrap();
        let instrs: Vec<_> = f.all_instrs().collect();
        let mut p = Partition::new(2);
        p.assign(instrs[0], ThreadId(1));
        p.assign(instrs[1], ThreadId(0));
        p.assign(instrs[2], ThreadId(0));
        let safety = Safety::compute(&f, &p, ThreadId(0));
        assert!(safety.safe_at_entry(f.entry(), x));
        assert!(safety.safe_after(instrs[0], x), "param x still safe (not redefined)");
        // y is defined by T1: never safe for T0.
        assert!(!safety.safe_after(instrs[0], y));
    }

    /// Use by the source thread re-establishes safety (the thread
    /// observed the value).
    #[test]
    fn use_establishes_safety() {
        let mut b = FunctionBuilder::new("u");
        let r = b.fresh_reg();
        b.const_into(r, 1); // i0: T1 defines
        let s = b.bin(BinOp::Add, r, 0i64); // i1: T0 uses r
        b.output(s); // i2
        b.ret(None); // i3
        let f = b.finish().unwrap();
        let instrs: Vec<_> = f.all_instrs().collect();
        let mut p = Partition::new(2);
        p.assign(instrs[0], ThreadId(1));
        p.assign(instrs[1], ThreadId(0));
        p.assign(instrs[2], ThreadId(0));
        p.assign(instrs[3], ThreadId(0));
        let safety = Safety::compute(&f, &p, ThreadId(0));
        assert!(!safety.safe_after(instrs[0], r), "just defined by T1");
        assert!(safety.safe_after(instrs[1], r), "T0 used r, so it holds the value");
    }
}
