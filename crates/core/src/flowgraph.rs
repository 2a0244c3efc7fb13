//! Construction of the min-cut flow graphs `G_f` (§3.1.1–3.1.3).
//!
//! Everything a graph reads that is a fact of a *thread* rather than of
//! the register at hand — which blocks the source thread can place
//! communication in, what a block costs the target thread in new
//! branches, where each register is live for the target thread — comes
//! in as a dense table ([`BlockTables`], [`LiveTable`]) that Algorithm 2
//! builds once per thread and relevant-branch set, so a register's
//! graph costs the arcs of its live range and nothing else.

use crate::pos::{Pos, PosArc, PosGraph};
use crate::safety::Safety;
use gmt_graph::{Capacity, Commodity, FlowNetwork, FlowNode, MinCut, NodeId};
use gmt_ir::{BitSet, BlockId, ControlDeps, Function, InstrId, Liveness, Reg};
use gmt_mtcg::CommPoint;
use std::collections::BTreeSet;

/// A built flow graph with the bookkeeping to map a cut back to
/// communication points.
pub struct Gf {
    /// The underlying network.
    pub net: FlowNetwork,
    /// For each network arc (by index): the insertion point it
    /// represents (`None` for special S/T arcs and unplaceable arcs).
    pub arc_point: Vec<Option<CommPoint>>,
}

impl Gf {
    /// Translates a min-cut into insertion points.
    ///
    /// # Panics
    ///
    /// Panics if a cut arc has no point (infinite-cost arcs can never be
    /// in a finite cut, so this indicates a solver bug).
    pub fn cut_points(&self, cut: &MinCut) -> BTreeSet<CommPoint> {
        cut.arcs
            .iter()
            .map(|&a| {
                self.arc_point[a.index()]
                    .expect("finite cut arcs always correspond to program points")
            })
            .collect()
    }
}

/// Per-block facts of one thread under its current relevant branches:
/// what Property 2 and the §3.1.2 penalties ask of a block.
#[derive(Clone, Debug, Default)]
pub struct BlockTables {
    /// Whether every branch controlling the block is relevant to the
    /// thread — i.e. the block's execution condition is expressible in
    /// the thread without new branches (Property 2 when the thread is
    /// the source of a communication).
    pub src_ok: Vec<bool>,
    /// The §3.1.2 penalty for placing communication *to* the thread in
    /// the block: the total profile weight of the branches that would
    /// newly become relevant to it — the block's control-dependence
    /// closure less what is relevant already.
    pub penalty: Vec<u64>,
}

impl BlockTables {
    /// The tables of a thread whose relevant branches are `relevant`.
    /// With `control_penalties` off every penalty is zero.
    pub fn build(
        f: &Function,
        cdeps: &ControlDeps,
        relevant: &BTreeSet<InstrId>,
        block_weights: &[u64],
        control_penalties: bool,
    ) -> BlockTables {
        let src_ok = f
            .blocks()
            .map(|b| cdeps.of_block(b).iter().all(|cd| relevant.contains(&cd.branch)))
            .collect();
        let penalty = f
            .blocks()
            .map(|b| {
                if !control_penalties {
                    return 0;
                }
                cdeps
                    .branches_in(cdeps.closure_row(b))
                    .filter(|br| !relevant.contains(br))
                    .map(|br| block_weights[f.block_of(br).index()])
                    .sum()
            })
            .collect();
        BlockTables { src_ok, penalty }
    }
}

/// Where every register is live with respect to one target thread, at
/// instruction granularity: "the live range of r considering only the
/// uses of r in the instructions assigned to T_t" (plus T_t's relevant
/// branches), for all r at once. Per register one [`BitSet`] over the
/// layout indices of the [`PosGraph`]: a block entry is in the row when
/// `r` is live there, an instruction slot when `r` is live just before
/// or just after it (a definition in the source thread starts the range
/// right after itself).
#[derive(Clone, Debug, Default)]
pub struct LiveTable {
    rows: Vec<BitSet>,
}

impl LiveTable {
    /// Expands `live`, the target thread's
    /// [`Liveness::compute_filtered`], to instruction granularity.
    ///
    /// `counts_as_use` is the filter `live` was computed with: which
    /// instructions' uses matter (target thread instructions and
    /// relevant branches).
    pub fn build(
        f: &Function,
        pos_graph: &PosGraph,
        live: &Liveness,
        counts_as_use: impl Fn(InstrId) -> bool,
    ) -> LiveTable {
        let mut rows = vec![BitSet::new(pos_graph.num_positions()); f.num_regs() as usize];
        for b in f.blocks() {
            if let Some(entry) = pos_graph.index_of(Pos::Entry(b)) {
                for r in live.live_in[b.index()].iter() {
                    rows[r].insert(entry);
                }
            }
            // Walk the block backwards from its live-out.
            let block = f.block(b);
            let mut cur = live.live_out[b.index()].clone();
            for &i in block.terminator.iter().chain(block.instrs.iter().rev()) {
                let Some(at) = pos_graph.index_of(Pos::At(i)) else { continue };
                for r in cur.iter() {
                    rows[r].insert(at); // live after i
                }
                let op = f.instr(i);
                if let Some(d) = op.def() {
                    cur.remove(d.index());
                }
                if counts_as_use(i) {
                    // Live before i; what else is, was live after it.
                    for u in op.use_slots().into_iter().flatten() {
                        cur.insert(u.index());
                        rows[u.index()].insert(at);
                    }
                }
            }
        }
        LiveTable { rows }
    }

    /// The live range of `r`: a set of layout indices (`None` for a
    /// register the function does not have).
    fn row(&self, r: Reg) -> Option<&BitSet> {
        self.rows.get(r.index())
    }

    /// Whether the live range of `r` covers the position of layout
    /// index `index`.
    pub fn covers(&self, r: Reg, index: usize) -> bool {
        self.row(r).is_some_and(|row| row.contains(index))
    }
}

/// A flow network under construction over the positions of a
/// [`PosGraph`]: a position gets its node when an arc first touches it.
struct NetBuilder {
    net: FlowNetwork,
    /// Node of each position, by layout index.
    node_of: Vec<u32>,
    arc_point: Vec<Option<CommPoint>>,
}

/// A position no arc has touched.
const NO_NODE: u32 = u32::MAX;

impl NetBuilder {
    fn new(pos_graph: &PosGraph) -> NetBuilder {
        NetBuilder {
            net: FlowNetwork::new(),
            node_of: vec![NO_NODE; pos_graph.num_positions()],
            arc_point: Vec::new(),
        }
    }

    fn node(&mut self, index: usize) -> FlowNode {
        if self.node_of[index] == NO_NODE {
            self.node_of[index] = self.net.add_node().0;
        }
        NodeId(self.node_of[index])
    }

    /// The node of `p`, if an arc touched it.
    fn existing(&self, pos_graph: &PosGraph, p: Pos) -> Option<FlowNode> {
        let node = self.node_of[pos_graph.index_of(p)?];
        (node != NO_NODE).then_some(NodeId(node))
    }

    fn add(&mut self, from: usize, arc: &PosArc, cost: Capacity) {
        let (from, to) = (self.node(from), self.node(arc.to_index as usize));
        self.net.add_arc(from, to, cost);
        self.arc_point.push(arc.point);
    }

    fn special(&mut self, from: FlowNode, to: FlowNode) {
        self.net.add_arc(from, to, Capacity::INFINITE);
        self.arc_point.push(None);
    }

    fn finish(self) -> Gf {
        Gf { net: self.net, arc_point: self.arc_point }
    }
}

/// Shared context for building flow graphs for one (source, target)
/// thread pair.
pub struct GfBuilder<'a> {
    /// Instruction-granularity CFG with weights and points.
    pub pos_graph: &'a PosGraph,
    /// [`BlockTables::src_ok`] of the source thread (Properties 1–2).
    pub src_ok: &'a [bool],
    /// [`BlockTables::penalty`] of the target thread (§3.1.2).
    pub penalty: &'a [u64],
}

impl GfBuilder<'_> {
    /// The cost of a placeable arc: infinite when the point is
    /// irrelevant to the source thread (Property 2); otherwise profile
    /// weight plus the control penalty.
    fn placed_cost(&self, arc: &PosArc, block: BlockId) -> Capacity {
        if !self.src_ok[block.index()] {
            return Capacity::INFINITE;
        }
        Capacity::finite(scaled_cost(arc.weight, self.penalty[block.index()]))
    }

    /// The cost of a normal arc for the register problem: infinite when
    /// the point is unplaceable, unsafe (Property 3), or irrelevant to
    /// the source thread (Property 2); otherwise profile weight plus
    /// the control penalty.
    fn register_arc_cost(&self, arc: &PosArc, safety: &Safety, r: Reg) -> Capacity {
        if arc.point.is_none() {
            return Capacity::INFINITE;
        }
        // Property 3 (safety): the SAFE state at the boundary the arc
        // crosses is the state just after the tail position.
        let safe = match arc.from {
            Pos::At(prev) => safety.safe_after(prev, r),
            Pos::Entry(b) => safety.safe_at_entry(b, r),
        };
        if !safe {
            return Capacity::INFINITE;
        }
        self.placed_cost(arc, arc.point_block)
    }

    /// The cost of a normal arc for the memory problem: no safety
    /// notion; Property 2 for the source thread is a hard constraint,
    /// irrelevance to the target thread is a penalty.
    fn memory_arc_cost(&self, arc: &PosArc) -> Capacity {
        if arc.point.is_none() {
            return Capacity::INFINITE;
        }
        self.placed_cost(arc, arc.point_block)
    }

    /// Builds `G_f` for register `r` (§3.1.1): nodes are positions where
    /// `r` is live with respect to the target thread; special arcs run
    /// from S to every definition of `r` in the source thread and from
    /// every target-side use to T. Only the arcs leaving the positions
    /// of `r`'s live range are looked at.
    ///
    /// Returns the graph with S and T, or `None` when there are no
    /// source definitions or no target uses (nothing to communicate).
    pub fn build_register(
        &self,
        r: Reg,
        safety: &Safety,
        live: &LiveTable,
        defs_in_s: &[InstrId],
        uses_in_t: &[InstrId],
    ) -> Option<(Gf, FlowNode, FlowNode)> {
        if defs_in_s.is_empty() || uses_in_t.is_empty() {
            return None;
        }
        let mut b = NetBuilder::new(self.pos_graph);
        // An arc is in the graph when r is live (w.r.t. t) at both ends.
        let range = live.row(r)?;
        for from in range.iter() {
            for arc in self.pos_graph.arcs_from(from) {
                if range.contains(arc.to_index as usize) {
                    b.add(from, arc, self.register_arc_cost(arc, safety, r));
                }
            }
        }
        let source = b.net.add_node();
        let sink = b.net.add_node();
        let mut connected_source = false;
        for &d in defs_in_s {
            if let Some(n) = b.existing(self.pos_graph, Pos::At(d)) {
                b.special(source, n);
                connected_source = true;
            }
        }
        let mut connected_sink = false;
        for &u in uses_in_t {
            if let Some(n) = b.existing(self.pos_graph, Pos::At(u)) {
                b.special(n, sink);
                connected_sink = true;
            }
        }
        (connected_source && connected_sink).then(|| (b.finish(), source, sink))
    }

    /// Builds `G_f` for the memory dependences of the pair (§3.1.3):
    /// nodes are *all* positions; each dependence arc becomes a
    /// source–sink commodity, in the order of `deps` (an instruction
    /// the function does not lay out gets a node no arc touches: no
    /// path executes it, so its commodities are disconnected as they
    /// stand).
    pub fn build_memory(&self, deps: &[(InstrId, InstrId)]) -> (Gf, Vec<Commodity>) {
        let mut b = NetBuilder::new(self.pos_graph);
        for from in 0..self.pos_graph.num_positions() {
            for arc in self.pos_graph.arcs_from(from) {
                b.add(from, arc, self.memory_arc_cost(arc));
            }
        }
        let mut node = |i: InstrId| {
            b.existing(self.pos_graph, Pos::At(i)).unwrap_or_else(|| b.net.add_node())
        };
        let commodities =
            deps.iter().map(|&(src, dst)| Commodity { source: node(src), sink: node(dst) }).collect();
        (b.finish(), commodities)
    }

    /// Runs the register optimization: min-cut on the register `G_f`.
    /// Returns the chosen points, or `None` when no finite cut exists
    /// (the caller falls back to the MTCG placement).
    pub fn optimize_register(
        &self,
        r: Reg,
        safety: &Safety,
        live: &LiveTable,
        defs_in_s: &[InstrId],
        uses_in_t: &[InstrId],
    ) -> Option<BTreeSet<CommPoint>> {
        let (mut gf, source, sink) = self.build_register(r, safety, live, defs_in_s, uses_in_t)?;
        let cut = gf.net.min_cut_in_place(source, sink);
        if !cut.is_feasible() {
            return None;
        }
        Some(gf.cut_points(&cut))
    }
}

/// Arc cost scaling: profile weight dominates, but every placeable arc
/// costs at least 1. A zero-cost arc would be "cut" by the max-flow
/// solver without appearing in the reported cut set, silently dropping
/// communication on paths the training profile never saw — correct
/// placement must hold on *all* paths, not just profiled ones.
fn scaled_cost(weight: u64, penalty: u64) -> u64 {
    weight
        .saturating_add(penalty)
        .saturating_mul(1024)
        .saturating_add(1)
        .min(u64::MAX - 1)
}

/// The pre-change construction, kept as the differential reference:
/// one whole-function liveness walk per register ([`LiveMap::project`]),
/// a register graph that visits every arc of the function and hashes
/// positions to nodes, Property 2 and the §3.1.2 penalty re-derived per
/// arc, and the cut on a clone of the network.
#[cfg(test)]
pub(crate) mod reference {
    use super::{scaled_cost, Gf};
    use crate::pos::{Pos, PosArc, PosGraph};
    use crate::safety::Safety;
    use gmt_graph::{Capacity, Commodity, FlowNetwork, FlowNode};
    use gmt_ir::{BlockId, ControlDeps, Function, InstrId, Liveness, Reg};
    use gmt_mtcg::CommPoint;
    use gmt_pdg::ThreadId;
    use std::collections::{BTreeSet, HashMap};

    /// Per-position liveness of one register with respect to the
    /// target thread.
    pub(crate) struct LiveMap {
        pub(crate) live_before: Vec<bool>,
        pub(crate) live_after: Vec<bool>,
        pub(crate) live_entry: Vec<bool>,
    }

    impl LiveMap {
        /// Projects the thread-aware live map of `r` out of `live`,
        /// computed with the filter `counts_as_use`.
        pub(crate) fn project(
            f: &Function,
            live: &Liveness,
            r: Reg,
            counts_as_use: impl Fn(InstrId) -> bool,
        ) -> LiveMap {
            let mut live_before = vec![false; f.num_instrs()];
            let mut live_after = vec![false; f.num_instrs()];
            let mut live_entry = vec![false; f.num_blocks()];
            for b in f.blocks() {
                live_entry[b.index()] = live.live_at_entry(b, r);
                let ids: Vec<_> = f.block(b).all_instrs().collect();
                let mut cur = live.live_at_exit(b, r);
                for &i in ids.iter().rev() {
                    live_after[i.index()] = cur;
                    let op = f.instr(i);
                    if op.def() == Some(r) {
                        cur = false;
                    }
                    if counts_as_use(i) && op.uses().contains(&r) {
                        cur = true;
                    }
                    live_before[i.index()] = cur;
                }
            }
            LiveMap { live_before, live_after, live_entry }
        }

        /// Whether the live range of `r` covers `p`.
        pub(crate) fn covers(&self, p: Pos) -> bool {
            match p {
                Pos::Entry(b) => self.live_entry[b.index()],
                Pos::At(i) => self.live_before[i.index()] || self.live_after[i.index()],
            }
        }
    }

    /// The pre-change builder context of one (source, target) pair.
    pub(crate) struct RefBuilder<'a> {
        pub(crate) f: &'a Function,
        pub(crate) pos_graph: &'a PosGraph,
        pub(crate) cdeps: &'a ControlDeps,
        pub(crate) relevant: &'a [BTreeSet<InstrId>],
        pub(crate) block_weights: &'a [u64],
        pub(crate) control_penalties: bool,
        pub(crate) s: ThreadId,
        pub(crate) t: ThreadId,
    }

    impl RefBuilder<'_> {
        fn block_relevant_to(&self, block: BlockId, thread: ThreadId) -> bool {
            self.cdeps
                .of_block(block)
                .iter()
                .all(|cd| self.relevant[thread.index()].contains(&cd.branch))
        }

        fn control_penalty(&self, block: BlockId) -> u64 {
            if !self.control_penalties {
                return 0;
            }
            self.cdeps
                .branches_in(self.cdeps.closure_row(block))
                .filter(|br| !self.relevant[self.t.index()].contains(br))
                .map(|br| self.block_weights[self.f.block_of(br).index()])
                .sum()
        }

        fn arc_cost(&self, arc: &PosArc, safe: bool) -> Capacity {
            let Some(point) = arc.point else { return Capacity::INFINITE };
            let block = point.block(self.f);
            if !safe || !self.block_relevant_to(block, self.s) {
                return Capacity::INFINITE;
            }
            Capacity::finite(scaled_cost(arc.weight, self.control_penalty(block)))
        }

        pub(crate) fn optimize_register(
            &self,
            r: Reg,
            safety: &Safety,
            live: &LiveMap,
            defs_in_s: &[InstrId],
            uses_in_t: &[InstrId],
        ) -> Option<BTreeSet<CommPoint>> {
            if defs_in_s.is_empty() || uses_in_t.is_empty() {
                return None;
            }
            let mut net = FlowNetwork::new();
            let mut node_of: HashMap<Pos, FlowNode> = HashMap::new();
            let mut arc_point = Vec::new();
            let node = |net: &mut FlowNetwork, node_of: &mut HashMap<Pos, FlowNode>, p: Pos| {
                *node_of.entry(p).or_insert_with(|| net.add_node())
            };
            for arc in self.pos_graph.arcs() {
                if !live.covers(arc.from) || !live.covers(arc.to) {
                    continue;
                }
                let safe = match arc.from {
                    Pos::At(prev) => safety.safe_after(prev, r),
                    Pos::Entry(b) => safety.safe_at_entry(b, r),
                };
                let cost = self.arc_cost(arc, safe);
                let from = node(&mut net, &mut node_of, arc.from);
                let to = node(&mut net, &mut node_of, arc.to);
                net.add_arc(from, to, cost);
                arc_point.push(arc.point);
            }
            let source = net.add_node();
            let sink = net.add_node();
            let mut connected = [false; 2];
            for &d in defs_in_s {
                if let Some(&n) = node_of.get(&Pos::At(d)) {
                    net.add_arc(source, n, Capacity::INFINITE);
                    arc_point.push(None);
                    connected[0] = true;
                }
            }
            for &u in uses_in_t {
                if let Some(&n) = node_of.get(&Pos::At(u)) {
                    net.add_arc(n, sink, Capacity::INFINITE);
                    arc_point.push(None);
                    connected[1] = true;
                }
            }
            if connected != [true; 2] {
                return None;
            }
            let cut = net.min_cut(source, sink);
            cut.is_feasible().then(|| Gf { net, arc_point }.cut_points(&cut))
        }

        pub(crate) fn build_memory(&self, deps: &[(InstrId, InstrId)]) -> (Gf, Vec<Commodity>) {
            let mut net = FlowNetwork::new();
            let mut node_of: HashMap<Pos, FlowNode> = HashMap::new();
            let mut arc_point = Vec::new();
            for arc in self.pos_graph.arcs() {
                let cost = self.arc_cost(arc, true);
                let from = *node_of.entry(arc.from).or_insert_with(|| net.add_node());
                let to = *node_of.entry(arc.to).or_insert_with(|| net.add_node());
                net.add_arc(from, to, cost);
                arc_point.push(arc.point);
            }
            let commodities = deps
                .iter()
                .map(|&(src, dst)| Commodity {
                    source: node_of[&Pos::At(src)],
                    sink: node_of[&Pos::At(dst)],
                })
                .collect();
            (Gf { net, arc_point }, commodities)
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::reference::LiveMap;
    use super::*;
    use gmt_integration_tests::{compile, program_gen, seeded_partition};
    use gmt_ir::{interp, Profile};
    use gmt_pdg::{Partition, Pdg};
    use gmt_sched::{dswp, gremio};
    use gmt_testkit::{full_u64, prop_assert, prop_assert_eq, Checker, PropResult};

    /// Runs `prop` on the 11 catalog kernels under both partitioners'
    /// choices at N ∈ {2,3,4} (train profile), and on `cases` generated
    /// functions under seeded partitions of the same widths (the
    /// profile of their one run).
    pub(crate) fn for_catalog_and_generated_partitions(
        name: &str,
        cases: u32,
        prop: impl Fn(&Function, &Pdg, &Partition, &Profile) -> PropResult,
    ) {
        for w in gmt_workloads::catalog() {
            let f = &w.function;
            let profile = w.run_train().expect("train run").profile;
            let pdg = Pdg::build(f);
            for n in [2u32, 3, 4] {
                let dswp = dswp::DswpConfig { num_threads: n };
                let gremio = gremio::GremioConfig { num_threads: n };
                for partition in [
                    dswp::partition(f, &pdg, &profile, &dswp).expect("dswp"),
                    gremio::partition(f, &pdg, &profile, &gremio).expect("gremio"),
                ] {
                    prop(f, &pdg, &partition, &profile)
                        .unwrap_or_else(|e| panic!("{} N={n}: {e}", w.benchmark));
                }
            }
        }
        Checker::new(name).cases(cases).run(&program_gen().zip(full_u64()), |(program, seed)| {
            let f = compile(program);
            let pdg = Pdg::build(&f);
            let profile = interp::run(&f, &[], &interp::ExecConfig::default())
                .map_err(|e| format!("generated program does not run: {e:?}"))?
                .profile;
            (2..=4).try_for_each(|n| prop(&f, &pdg, &seeded_partition(&f, n, *seed), &profile))
        });
    }

    /// [`for_catalog_and_generated_partitions`], each partition with the
    /// relevant branches of the empty plan (where COCO starts) and of
    /// the baseline plan (every dependence placed, foreign branches
    /// duplicated).
    fn for_catalog_and_generated(
        name: &str,
        cases: u32,
        prop: impl Fn(&Function, &Pdg, &Partition, &[BTreeSet<InstrId>]) -> PropResult,
    ) {
        for_catalog_and_generated_partitions(name, cases, |f, pdg, partition, _| {
            let baseline = gmt_mtcg::baseline_plan(f, pdg, partition).map_err(|e| e.to_string())?;
            [gmt_mtcg::CommPlan::new(partition.num_threads()), baseline].iter().try_for_each(|plan| {
                let relevant = gmt_mtcg::relevant_branches(f, pdg.control_deps(), partition, plan);
                prop(f, pdg, partition, &relevant)
            })
        });
    }

    /// The §3.1.2 penalty as it was computed before [`ControlDeps`]
    /// carried the transitive closure: a DFS over the direct
    /// dependences that stops at branches already relevant to the
    /// target thread. Kept as the reference.
    fn penalty_by_dfs(
        cdeps: &ControlDeps,
        relevant: &BTreeSet<InstrId>,
        block_weights: &[u64],
        block: BlockId,
    ) -> u64 {
        let mut seen = BTreeSet::new();
        let mut penalty = 0u64;
        let mut stack = vec![block];
        while let Some(b) = stack.pop() {
            for cd in cdeps.of_block(b) {
                if relevant.contains(&cd.branch) {
                    continue;
                }
                if seen.insert(cd.branch) {
                    penalty += block_weights[cd.block.index()];
                    stack.push(cd.block);
                }
            }
        }
        penalty
    }

    #[test]
    fn closure_penalty_matches_the_dfs_reference() {
        let counted = std::cell::Cell::new((0usize, 0usize));
        for_catalog_and_generated("flowgraph::penalty_vs_dfs", 200, |f, pdg, partition, relevant| {
            // Distinct weights, so a wrong set of branches is a wrong sum.
            let block_weights: Vec<u64> = (1..=f.num_blocks() as u64).map(|k| k * k).collect();
            let cdeps = pdg.control_deps();
            for t in partition.threads() {
                let relevant = &relevant[t.index()];
                let tables = BlockTables::build(f, cdeps, relevant, &block_weights, true);
                let off = BlockTables::build(f, cdeps, relevant, &block_weights, false);
                prop_assert!(off.penalty.iter().all(|&p| p == 0), "penalties off must be zero");
                prop_assert_eq!(&off.src_ok, &tables.src_ok);
                for b in f.blocks() {
                    let penalty = tables.penalty[b.index()];
                    prop_assert_eq!(penalty, penalty_by_dfs(cdeps, relevant, &block_weights, b));
                    // Property 2: expressible without new branches
                    // exactly when nothing would become relevant.
                    let ok = cdeps.of_block(b).iter().all(|cd| relevant.contains(&cd.branch));
                    prop_assert_eq!(tables.src_ok[b.index()], ok);
                    let (nonzero, blocked) = counted.get();
                    counted.set((nonzero + usize::from(penalty > 0), blocked + usize::from(!ok)));
                }
            }
            Ok(())
        });
        let (nonzero, blocked) = counted.get();
        assert!(nonzero > 0, "no case had a branch to penalize");
        assert!(blocked > 0, "no case had a block Property 2 rules out");
    }

    /// One all-register liveness per target thread, expanded to
    /// instruction granularity once, is what a fixpoint over the uses
    /// of `r` alone and a walk per register give — the analysis COCO
    /// ran per (source, target, register) saw nothing of `r` the
    /// hoisted table does not.
    #[test]
    fn projected_live_map_matches_a_per_register_fixpoint() {
        for_catalog_and_generated("flowgraph::projection_vs_fixpoint", 40, |f, _, partition, relevant| {
            let profile = Profile::uniform(f, 1);
            let pos_graph = PosGraph::build(f, &profile, &profile.block_weights(f));
            let positions: Vec<Pos> = f
                .blocks()
                .flat_map(|b| {
                    std::iter::once(Pos::Entry(b)).chain(f.block(b).all_instrs().map(Pos::At))
                })
                .collect();
            for t in partition.threads() {
                let executes =
                    |i: InstrId| partition.thread_of(i) == t || relevant[t.index()].contains(&i);
                let hoisted = Liveness::compute_filtered(f, executes);
                let table = LiveTable::build(f, &pos_graph, &hoisted, executes);
                for r in (0..f.num_regs()).map(Reg) {
                    let uses_r = |i: InstrId| executes(i) && f.instr(i).uses().contains(&r);
                    let alone = Liveness::compute_filtered(f, uses_r);
                    let want = LiveMap::project(f, &alone, r, uses_r);
                    for (index, &p) in positions.iter().enumerate() {
                        prop_assert_eq!(pos_graph.index_of(p), Some(index));
                        prop_assert_eq!(table.covers(r, index), want.covers(p), "{:?} at {:?}", r, p);
                    }
                    prop_assert_eq!(
                        table.row(r).map_or(0, BitSet::len),
                        positions.iter().filter(|&&p| want.covers(p)).count()
                    );
                }
            }
            Ok(())
        });
    }
}
