//! The Program Dependence Graph (Ferrante–Ottenstein–Warren) over the
//! IR, with register, memory, and control dependence arcs.

use crate::alias::AliasInfo;
use gmt_graph::{DiGraph, NodeId};
use gmt_ir::{ControlDeps, DefUse, Dominators, Function, InstrId, LoopForest, PostDominators, Reg};
use std::collections::HashMap;
use std::fmt;

/// The kind of a dependence arc.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DepKind {
    /// Data dependence through virtual register `r` (def → use).
    Register(Reg),
    /// Memory dependence (ordering between aliasing accesses where at
    /// least one writes).
    Memory,
    /// Control dependence (branch → controlled instruction).
    Control,
}

/// One PDG arc.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Dep {
    /// Source instruction.
    pub src: InstrId,
    /// Target instruction.
    pub dst: InstrId,
    /// Dependence kind.
    pub kind: DepKind,
    /// Whether the dependence may be carried around a loop back edge.
    pub loop_carried: bool,
}

/// The program dependence graph of one function.
///
/// Nodes are the function's placed instructions; arcs are the
/// dependences a GMT scheduler must respect. "The PDG for an arbitrary
/// global (intraprocedural) region must include both data and control
/// dependences" (§2): register data dependences come from reaching
/// definitions, memory dependences from the points-to analysis (made
/// bi-directional between instructions sharing a loop, since any memory
/// dependence inside a loop is essentially bi-directional — §4), and
/// control dependences from the post-dominance frontier.
///
/// The PDG also owns the analyses of `f` it was built from and hands
/// them to every later compile stage, so one function has one set of
/// CFG facts: partitioning, MTCG, COCO and `verify_mt` read these
/// instead of computing their own.
#[derive(Clone)]
pub struct Pdg {
    deps: Vec<Dep>,
    nodes: Vec<InstrId>,
    dom: Dominators,
    pdom: PostDominators,
    cdeps: ControlDeps,
    defuse: DefUse,
    loops: LoopForest,
}

impl Pdg {
    /// Builds the PDG of `f`, computing the required analyses
    /// (dominators, control dependence, def-use chains, the loop
    /// forest, points-to) once. Cross-iteration memory arcs that affine
    /// array-dependence analysis proves vacuous are dropped (the
    /// loop-aware memory disambiguation the paper's §4 points at).
    pub fn build(f: &Function) -> Pdg {
        let alias = AliasInfo::compute(f);
        let pdom = PostDominators::compute(f);
        let dom = Dominators::compute(f);
        let cdeps = ControlDeps::compute(f, &pdom);
        let defuse = DefUse::compute(f);
        let loops = LoopForest::compute(f, &dom);

        let mut deps: Vec<Dep> = Vec::new();

        // -- Register dependences (def -> use). Loop-carried iff the
        // def does not dominate the use (it reaches around a back edge)
        // or def and use share a loop and the def follows the use.
        for (src, dst, r) in defuse.def_use_pairs() {
            let carried = is_loop_carried(f, &dom, &loops, src, dst);
            deps.push(Dep { src, dst, kind: DepKind::Register(r), loop_carried: carried });
        }

        // -- Memory dependences. An ordering arc `a -> b` exists exactly
        // when `b` can execute after `a` on some path: same block in
        // instruction order, or the CFG reaches b's block from a's.
        // Both arcs exist for accesses inside a common CFG cycle
        // ("inside a loop, any memory dependence is essentially
        // bi-directional" — §4).
        let mem_ops: Vec<InstrId> = f
            .all_instrs()
            .filter(|&i| f.instr(i).is_mem_op())
            .collect();
        let reach = block_reachability(f);
        let pos_in_block: HashMap<InstrId, usize> = f
            .blocks()
            .flat_map(|b| f.block(b).all_instrs().enumerate().map(|(k, i)| (i, k)))
            .collect();
        // Loop-aware disambiguation (affine array dependences) can
        // prove some cross-iteration orderings vacuous.
        let push_mem = |deps: &mut Vec<Dep>, src: InstrId, dst: InstrId| {
            let carried = is_loop_carried(f, &dom, &loops, src, dst);
            if carried && crate::affine::kills_carried_dep(f, &defuse, &loops, src, dst) {
                return;
            }
            deps.push(Dep { src, dst, kind: DepKind::Memory, loop_carried: carried });
        };
        for (ai_idx, &a) in mem_ops.iter().enumerate() {
            for &b in mem_ops.iter().skip(ai_idx + 1) {
                let a_writes = f.instr(a).is_mem_write();
                let b_writes = f.instr(b).is_mem_write();
                if !a_writes && !b_writes {
                    continue;
                }
                if !alias.may_alias(f, a, b) {
                    continue;
                }
                let (ba, bb) = (f.block_of(a), f.block_of(b));
                if ba == bb {
                    let (first, second) =
                        if pos_in_block[&a] <= pos_in_block[&b] { (a, b) } else { (b, a) };
                    push_mem(&mut deps, first, second);
                    if reach[ba.index()].contains(ba.index()) {
                        // The block re-executes: the reverse order is
                        // also possible across iterations.
                        push_mem(&mut deps, second, first);
                    }
                } else {
                    if reach[ba.index()].contains(bb.index()) {
                        push_mem(&mut deps, a, b);
                    }
                    if reach[bb.index()].contains(ba.index()) {
                        push_mem(&mut deps, b, a);
                    }
                    // Mutually unreachable blocks (exclusive arms) need
                    // no ordering.
                }
            }
        }

        // -- Control dependences: branch -> every instruction of each
        // controlled block.
        for b in f.blocks() {
            for cd in cdeps.of_block(b) {
                for i in f.block(b).all_instrs() {
                    if i == cd.branch {
                        continue; // self-control (loop headers): keep? see below
                    }
                    let carried = is_loop_carried(f, &dom, &loops, cd.branch, i);
                    deps.push(Dep { src: cd.branch, dst: i, kind: DepKind::Control, loop_carried: carried });
                }
            }
            // A loop-header branch controlling its own block: add the
            // self-loop arcs for *other* instructions of the block (done
            // above); the branch's self-arc is meaningless.
        }

        deps.sort();
        deps.dedup();

        let nodes: Vec<InstrId> = f.all_instrs().collect();
        Pdg { deps, nodes, dom, pdom, cdeps, defuse, loops }
    }

    /// All dependence arcs, sorted.
    pub fn deps(&self) -> &[Dep] {
        &self.deps
    }

    /// The dominator tree of the function.
    pub fn dominators(&self) -> &Dominators {
        &self.dom
    }

    /// The post-dominator tree of the function.
    pub fn post_dominators(&self) -> &PostDominators {
        &self.pdom
    }

    /// The function's control dependences and their transitive closure.
    pub fn control_deps(&self) -> &ControlDeps {
        &self.cdeps
    }

    /// The function's def-use chains.
    pub fn def_use(&self) -> &DefUse {
        &self.defuse
    }

    /// The function's loop forest.
    pub fn loops(&self) -> &LoopForest {
        &self.loops
    }

    /// The PDG nodes (all placed instructions, in layout order).
    pub fn nodes(&self) -> &[InstrId] {
        &self.nodes
    }

    /// Lowers the PDG to a [`DiGraph`] for SCC/condensation: graph node
    /// `k` is `nodes()[k]`.
    pub fn as_digraph(&self) -> DiGraph {
        self.as_digraph_filtered(|_| true)
    }

    /// Like [`Pdg::as_digraph`], keeping only arcs accepted by `keep`.
    ///
    /// GREMIO schedules over the *intra-iteration* dependence graph
    /// (`keep = |d| !d.loop_carried`): loop-carried arcs do not
    /// constrain the within-iteration schedule, and cyclic inter-thread
    /// dependences are allowed.
    pub fn as_digraph_filtered(&self, keep: impl Fn(&Dep) -> bool) -> DiGraph {
        let mut g = DiGraph::with_nodes(self.nodes.len());
        // The graph node of each instruction, by `InstrId::index()`.
        let len = self.nodes.iter().map(|i| i.index() + 1).max().unwrap_or(0);
        let mut node = vec![NodeId(0); len];
        for (k, &i) in self.nodes.iter().enumerate() {
            node[i.index()] = NodeId(k as u32);
        }
        for d in self.deps.iter().filter(|d| keep(d)) {
            g.add_arc_dedup(node[d.src.index()], node[d.dst.index()]);
        }
        g
    }

    /// Number of arcs.
    pub fn len(&self) -> usize {
        self.deps.len()
    }

    /// Whether the PDG has no arcs.
    pub fn is_empty(&self) -> bool {
        self.deps.is_empty()
    }
}

impl fmt::Debug for Pdg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Pdg({} nodes, {} deps)", self.nodes.len(), self.deps.len())?;
        for d in &self.deps {
            writeln!(
                f,
                "  {:?} -> {:?} [{:?}{}]",
                d.src,
                d.dst,
                d.kind,
                if d.loop_carried { ", carried" } else { "" }
            )?;
        }
        Ok(())
    }
}

/// Whether the `src -> dst` dependence may be carried by a loop back
/// edge: they share a loop and `src` does not strictly precede `dst` on
/// every iteration path (approximated: src's block does not dominate
/// dst's block, or same block with src at/after dst).
fn is_loop_carried(
    f: &Function,
    dom: &Dominators,
    loops: &LoopForest,
    src: InstrId,
    dst: InstrId,
) -> bool {
    if !shares_loop(f, loops, src, dst) {
        return false;
    }
    let (sb, db) = (f.block_of(src), f.block_of(dst));
    if sb == db {
        let block = f.block(sb);
        let pos = |x: InstrId| {
            block
                .all_instrs()
                .position(|i| i == x)
                .expect("instr in its block")
        };
        pos(src) >= pos(dst)
    } else {
        !dom.dominates(sb, db)
    }
}

/// Proper (≥1 edge) CFG reachability between blocks: `result[x]`
/// contains `y` iff some nonempty path leads from `x` to `y`.
fn block_reachability(f: &Function) -> Vec<gmt_ir::BitSet> {
    let n = f.num_blocks();
    let mut reach: Vec<gmt_ir::BitSet> = Vec::with_capacity(n);
    for b in f.blocks() {
        let mut seen = gmt_ir::BitSet::new(n);
        let mut stack: Vec<_> = f.successors(b).to_vec();
        while let Some(x) = stack.pop() {
            if seen.insert(x.index()) {
                stack.extend(f.successors(x));
            }
        }
        reach.push(seen);
    }
    reach
}

/// Whether both instructions are inside some common loop.
fn shares_loop(f: &Function, loops: &LoopForest, a: InstrId, b: InstrId) -> bool {
    let (ba, bb) = (f.block_of(a), f.block_of(b));
    // Walk a's loop ancestry looking for a loop containing b.
    let mut cur = loops.innermost[ba.index()];
    while let Some(li) = cur {
        if loops.loops[li].contains(bb) {
            return true;
        }
        cur = loops.loops[li].parent;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmt_ir::{BinOp, FunctionBuilder};

    /// Build: loop { a[i] = i; s += b[i]; i++ } with disjoint a/b.
    fn loop_kernel() -> Function {
        let mut bld = FunctionBuilder::new("k");
        let a = bld.object("a", 16);
        let c = bld.object("c", 16);
        let i = bld.fresh_reg();
        let s = bld.fresh_reg();
        let header = bld.block("h");
        let body = bld.block("b");
        let exit = bld.block("x");
        bld.const_into(i, 0);
        bld.const_into(s, 0);
        bld.jump(header);
        bld.switch_to(header);
        let cnd = bld.bin(BinOp::Lt, i, 8i64);
        bld.branch(cnd, body, exit);
        bld.switch_to(body);
        let pa = bld.lea(a, 0);
        let ea = bld.bin(BinOp::Add, pa, i);
        bld.store(ea, 0, i);
        let pc = bld.lea(c, 0);
        let ec = bld.bin(BinOp::Add, pc, i);
        let v = bld.load(ec, 0);
        bld.bin_into(BinOp::Add, s, s, v);
        bld.bin_into(BinOp::Add, i, i, 1i64);
        bld.jump(header);
        bld.switch_to(exit);
        bld.ret(Some(s.into()));
        bld.finish().unwrap()
    }

    #[test]
    fn register_deps_present() {
        let f = loop_kernel();
        let pdg = Pdg::build(&f);
        // The i increment feeds the loop condition (loop-carried).
        let has_carried_reg = pdg
            .deps()
            .iter()
            .any(|d| matches!(d.kind, DepKind::Register(_)) && d.loop_carried);
        assert!(has_carried_reg);
    }

    #[test]
    fn disjoint_arrays_no_memory_dep() {
        let f = loop_kernel();
        let pdg = Pdg::build(&f);
        // store a[] vs load c[]: disjoint objects — no memory arc.
        assert!(
            !pdg.deps().iter().any(|d| d.kind == DepKind::Memory),
            "{pdg:?}"
        );
    }

    #[test]
    fn aliasing_accesses_get_bidirectional_arcs_in_loop() {
        // loop { a[0] = load a[0] + 1 }
        let mut bld = FunctionBuilder::new("k");
        let a = bld.object("a", 2);
        let i = bld.fresh_reg();
        let header = bld.block("h");
        let body = bld.block("b");
        let exit = bld.block("x");
        bld.const_into(i, 0);
        bld.jump(header);
        bld.switch_to(header);
        let cnd = bld.bin(BinOp::Lt, i, 4i64);
        bld.branch(cnd, body, exit);
        bld.switch_to(body);
        let p = bld.lea(a, 0);
        let v = bld.load(p, 0);
        let v2 = bld.bin(BinOp::Add, v, 1i64);
        bld.store(p, 0, v2);
        bld.bin_into(BinOp::Add, i, i, 1i64);
        bld.jump(header);
        bld.switch_to(exit);
        bld.ret(None);
        let f = bld.finish().unwrap();
        let pdg = Pdg::build(&f);
        let mem: Vec<_> = pdg.deps().iter().filter(|d| d.kind == DepKind::Memory).collect();
        assert_eq!(mem.len(), 2, "load→store and carried store→load: {pdg:?}");
        assert!(mem.iter().any(|d| d.loop_carried));
        assert!(mem.iter().any(|d| !d.loop_carried));
    }

    #[test]
    fn control_deps_from_branch_to_body() {
        let f = loop_kernel();
        let pdg = Pdg::build(&f);
        let header_branch = f.block(gmt_ir::BlockId(1)).terminator.unwrap();
        let controlled: Vec<_> = pdg
            .deps()
            .iter()
            .filter(|d| d.src == header_branch && d.kind == DepKind::Control)
            .collect();
        // Every instruction of the body block + header's own
        // instructions (self-loop control) are controlled.
        assert!(controlled.len() >= 8, "{controlled:?}");
        // The branch controls itself? Excluded by construction.
        assert!(controlled.iter().all(|d| d.dst != header_branch));
    }

    #[test]
    fn outputs_are_ordered_by_memory_arcs() {
        let mut bld = FunctionBuilder::new("o");
        bld.output(1i64);
        bld.output(2i64);
        bld.ret(None);
        let f = bld.finish().unwrap();
        let pdg = Pdg::build(&f);
        let mem: Vec<_> = pdg.deps().iter().filter(|d| d.kind == DepKind::Memory).collect();
        assert_eq!(mem.len(), 1);
        assert!(!mem[0].loop_carried);
    }

    #[test]
    fn digraph_lowering_matches_nodes() {
        let f = loop_kernel();
        let pdg = Pdg::build(&f);
        let g = pdg.as_digraph();
        assert_eq!(g.len(), pdg.nodes().len());
        assert!(g.arc_count() <= pdg.len());
        // Node `k` is `nodes()[k]`: every arc joins its dependence's ends.
        let at = |i| NodeId(pdg.nodes().iter().position(|&n| n == i).unwrap() as u32);
        for d in pdg.deps() {
            assert!(g.succs(at(d.src)).contains(&at(d.dst)), "{d:?}");
        }
    }
}
