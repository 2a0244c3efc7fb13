//! Construction of the min-cut flow graphs `G_f` (§3.1.1–3.1.3).

use crate::pos::{Pos, PosGraph};
use crate::safety::Safety;
use gmt_graph::{Capacity, Commodity, FlowNetwork, FlowNode, MaxFlowAlgo, MinCut};
use gmt_ir::{ControlDeps, Function, InstrId, Liveness, Reg};
use gmt_mtcg::CommPoint;
use gmt_pdg::{Partition, ThreadId};
use std::collections::{BTreeSet, HashMap};

/// A built flow graph with the bookkeeping to map a cut back to
/// communication points.
pub struct Gf {
    /// The underlying network.
    pub net: FlowNetwork,
    /// Node of each included position.
    pub node_of: HashMap<Pos, FlowNode>,
    /// For each network arc (by index): the insertion point it
    /// represents (`None` for special S/T arcs and unplaceable arcs).
    pub arc_point: Vec<Option<CommPoint>>,
    /// The super source (register mode only).
    pub source: Option<FlowNode>,
    /// The super sink (register mode only).
    pub sink: Option<FlowNode>,
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

/// Shared context for building flow graphs for one (source, target)
/// thread pair.
pub struct GfBuilder<'a> {
    /// The function being parallelized.
    pub f: &'a Function,
    /// Instruction-granularity CFG with weights and points.
    pub pos_graph: &'a PosGraph,
    /// Control dependences (for Properties 1–2 and §3.1.2 penalties).
    pub cdeps: &'a ControlDeps,
    /// The partition.
    pub partition: &'a Partition,
    /// Current relevant branches per thread.
    pub relevant: &'a [BTreeSet<InstrId>],
    /// Per-block profile weights.
    pub block_weights: &'a [u64],
    /// Apply the §3.1.2 control-flow penalties.
    pub control_penalties: bool,
    /// Source thread.
    pub s: ThreadId,
    /// Target thread.
    pub t: ThreadId,
}

impl GfBuilder<'_> {
    /// Whether every branch controlling `block` is relevant to `thread`
    /// (i.e. the block's execution condition is expressible in that
    /// thread without new branches).
    fn block_relevant_to(&self, block: gmt_ir::BlockId, thread: ThreadId) -> bool {
        self.cdeps
            .of_block(block)
            .iter()
            .all(|cd| self.relevant[thread.index()].contains(&cd.branch))
    }

    /// The §3.1.2 penalty for placing communication in `block`: the
    /// total profile weight of branches that would newly become
    /// relevant to the target thread — the block's control-dependence
    /// closure less what is relevant already.
    fn control_penalty(&self, block: gmt_ir::BlockId) -> u64 {
        if !self.control_penalties {
            return 0;
        }
        self.cdeps
            .branches_in(self.cdeps.closure_row(block))
            .filter(|br| !self.relevant[self.t.index()].contains(br))
            .map(|br| self.block_weights[self.f.block_of(br).index()])
            .sum()
    }

    /// The cost of a normal arc for the register problem: infinite when
    /// the point is unplaceable, unsafe (Property 3), or irrelevant to
    /// the source thread (Property 2); otherwise profile weight plus
    /// the control penalty.
    fn register_arc_cost(
        &self,
        arc: &crate::pos::PosArc,
        safety: &Safety,
        r: Reg,
    ) -> Capacity {
        let Some(point) = arc.point else {
            return Capacity::INFINITE;
        };
        // Property 3 (safety): the SAFE state at the boundary the arc
        // crosses is the state just after the tail position.
        let safe = match arc.from {
            Pos::At(prev) => safety.safe_after(prev, r),
            Pos::Entry(b) => safety.safe_at_entry(b, r),
        };
        if !safe {
            return Capacity::INFINITE;
        }
        // Property 2 (relevance to the source thread).
        let block = point.block(self.f);
        if !self.block_relevant_to(block, self.s) {
            return Capacity::INFINITE;
        }
        Capacity::finite(scaled_cost(arc.weight, self.control_penalty(block)))
    }

    /// The cost of a normal arc for the memory problem: no safety
    /// notion; Property 2 for the source thread is a hard constraint,
    /// irrelevance to the target thread is a penalty.
    fn memory_arc_cost(&self, arc: &crate::pos::PosArc) -> Capacity {
        let Some(point) = arc.point else {
            return Capacity::INFINITE;
        };
        let block = point.block(self.f);
        if !self.block_relevant_to(block, self.s) {
            return Capacity::INFINITE;
        }
        Capacity::finite(scaled_cost(arc.weight, self.control_penalty(block)))
    }

    /// Builds `G_f` for register `r` (§3.1.1): nodes are positions where
    /// `r` is live with respect to the target thread; special arcs run
    /// from S to every definition of `r` in the source thread and from
    /// every target-side use to T.
    ///
    /// Returns `None` when there are no source definitions or no target
    /// uses (nothing to communicate).
    pub fn build_register(
        &self,
        r: Reg,
        safety: &Safety,
        live: &LiveMap,
        defs_in_s: &[InstrId],
        uses_in_t: &[InstrId],
    ) -> Option<Gf> {
        if defs_in_s.is_empty() || uses_in_t.is_empty() {
            return None;
        }
        let mut net = FlowNetwork::new();
        let mut node_of: HashMap<Pos, FlowNode> = HashMap::new();
        let mut arc_point = Vec::new();
        let node = |net: &mut FlowNetwork, node_of: &mut HashMap<Pos, FlowNode>, p: Pos| {
            *node_of.entry(p).or_insert_with(|| net.add_node())
        };
        // Include a position if r is live there (w.r.t. t) or it
        // defines r in s (live starts right after).
        let included = |p: Pos| -> bool {
            match p {
                Pos::Entry(b) => live.live_at_entry(b),
                Pos::At(i) => live.live_before(i) || live.live_after(i),
            }
        };
        for arc in self.pos_graph.arcs() {
            if !included(arc.from) || !included(arc.to) {
                continue;
            }
            let cost = self.register_arc_cost(arc, safety, r);
            let from = node(&mut net, &mut node_of, arc.from);
            let to = node(&mut net, &mut node_of, arc.to);
            net.add_arc(from, to, cost);
            arc_point.push(arc.point);
        }
        let source = net.add_node();
        let sink = net.add_node();
        let mut connected_source = false;
        for &d in defs_in_s {
            if let Some(&n) = node_of.get(&Pos::At(d)) {
                net.add_arc(source, n, Capacity::INFINITE);
                arc_point.push(None);
                connected_source = true;
            }
        }
        let mut connected_sink = false;
        for &u in uses_in_t {
            if let Some(&n) = node_of.get(&Pos::At(u)) {
                net.add_arc(n, sink, Capacity::INFINITE);
                arc_point.push(None);
                connected_sink = true;
            }
        }
        if !connected_source || !connected_sink {
            return None;
        }
        Some(Gf { net, node_of, arc_point, source: Some(source), sink: Some(sink) })
    }

    /// Builds `G_f` for the memory dependences of the pair (§3.1.3):
    /// nodes are *all* positions; each dependence arc becomes a
    /// source–sink commodity.
    pub fn build_memory(&self, deps: &[(InstrId, InstrId)]) -> (Gf, Vec<Commodity>) {
        let mut net = FlowNetwork::new();
        let mut node_of: HashMap<Pos, FlowNode> = HashMap::new();
        let mut arc_point = Vec::new();
        let node = |net: &mut FlowNetwork, node_of: &mut HashMap<Pos, FlowNode>, p: Pos| {
            *node_of.entry(p).or_insert_with(|| net.add_node())
        };
        for arc in self.pos_graph.arcs() {
            let cost = self.memory_arc_cost(arc);
            let from = node(&mut net, &mut node_of, arc.from);
            let to = node(&mut net, &mut node_of, arc.to);
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
        (Gf { net, node_of, arc_point, source: None, sink: None }, commodities)
    }

    /// Runs the register optimization: min-cut on the register `G_f`.
    /// Returns the chosen points, or `None` when no finite cut exists
    /// (the caller falls back to the MTCG placement).
    pub fn optimize_register(
        &self,
        r: Reg,
        safety: &Safety,
        live: &LiveMap,
        defs_in_s: &[InstrId],
        uses_in_t: &[InstrId],
        algo: MaxFlowAlgo,
    ) -> Option<BTreeSet<CommPoint>> {
        let gf = self.build_register(r, safety, live, defs_in_s, uses_in_t)?;
        let cut = gf.net.min_cut_with(gf.source.unwrap(), gf.sink.unwrap(), algo);
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

/// Per-position liveness of one register with respect to the target
/// thread: "the live range of r considering only the uses of r in the
/// instructions assigned to T_t" (plus T_t's relevant branches).
pub struct LiveMap {
    live_before: Vec<bool>,
    live_after: Vec<bool>,
    live_entry: Vec<bool>,
}

impl LiveMap {
    /// Projects the thread-aware live map of `r` out of `live`, the
    /// target thread's [`Liveness::compute_filtered`].
    ///
    /// `counts_as_use` is the filter `live` was computed with: which
    /// instructions' uses matter (target thread instructions and
    /// relevant branches).
    pub fn project(
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
            // Walk the block backwards from its live-out.
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

    /// Whether `r` is live just before instruction `i`.
    pub fn live_before(&self, i: InstrId) -> bool {
        self.live_before[i.index()]
    }

    /// Whether `r` is live just after instruction `i`.
    pub fn live_after(&self, i: InstrId) -> bool {
        self.live_after[i.index()]
    }

    /// Whether `r` is live at the entry of block `b`.
    pub fn live_at_entry(&self, b: gmt_ir::BlockId) -> bool {
        self.live_entry[b.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmt_integration_tests::{compile, program_gen, seeded_partition};
    use gmt_ir::{BlockId, Profile};
    use gmt_pdg::Pdg;
    use gmt_sched::{dswp, gremio};
    use gmt_testkit::{full_u64, prop_assert_eq, Checker, PropResult};

    /// Runs `prop` on the 11 catalog kernels under both partitioners'
    /// choices at N ∈ {2,3,4}, and on `cases` generated functions under
    /// seeded partitions of the same widths — each with the relevant
    /// branches of the empty plan (where COCO starts) and of the
    /// baseline plan (every dependence placed, foreign branches
    /// duplicated).
    fn for_catalog_and_generated(
        name: &str,
        cases: u32,
        prop: impl Fn(&Function, &Pdg, &Partition, &[BTreeSet<InstrId>]) -> PropResult,
    ) {
        let both_plans = |f: &Function, pdg: &Pdg, partition: &Partition| -> PropResult {
            let baseline = gmt_mtcg::baseline_plan(f, pdg, partition).map_err(|e| e.to_string())?;
            [gmt_mtcg::CommPlan::new(partition.num_threads()), baseline].iter().try_for_each(|plan| {
                let relevant = gmt_mtcg::relevant_branches(f, pdg.control_deps(), partition, plan);
                prop(f, pdg, partition, &relevant)
            })
        };
        for w in gmt_workloads::catalog() {
            let f = &w.function;
            let profile = w.run_train().expect("train run").profile;
            let pdg = Pdg::build(f);
            for n in [2u32, 3, 4] {
                let dswp = dswp::DswpConfig { num_threads: n, ..Default::default() };
                let gremio = gremio::GremioConfig { num_threads: n, ..Default::default() };
                for partition in [
                    dswp::partition(f, &pdg, &profile, &dswp).expect("dswp"),
                    gremio::partition(f, &pdg, &profile, &gremio).expect("gremio"),
                ] {
                    both_plans(f, &pdg, &partition)
                        .unwrap_or_else(|e| panic!("{} N={n}: {e}", w.benchmark));
                }
            }
        }
        Checker::new(name).cases(cases).run(&program_gen().zip(full_u64()), |(program, seed)| {
            let f = compile(program);
            let pdg = Pdg::build(&f);
            (2..=4).try_for_each(|n| both_plans(&f, &pdg, &seeded_partition(&f, n, *seed)))
        });
    }

    /// The §3.1.2 penalty as `control_penalty` computed it before
    /// [`ControlDeps`] carried the transitive closure: a DFS over the
    /// direct dependences that stops at branches already relevant to
    /// the target thread. Kept as the reference.
    fn penalty_by_dfs(builder: &GfBuilder<'_>, block: BlockId) -> u64 {
        let mut seen = BTreeSet::new();
        let mut penalty = 0u64;
        let mut stack = vec![block];
        while let Some(b) = stack.pop() {
            for cd in builder.cdeps.of_block(b) {
                if builder.relevant[builder.t.index()].contains(&cd.branch) {
                    continue;
                }
                if seen.insert(cd.branch) {
                    penalty += builder.block_weights[cd.block.index()];
                    stack.push(cd.block);
                }
            }
        }
        penalty
    }

    #[test]
    fn closure_penalty_matches_the_dfs_reference() {
        let nonzero = std::cell::Cell::new(0usize);
        for_catalog_and_generated("flowgraph::penalty_vs_dfs", 200, |f, pdg, partition, relevant| {
            let profile = Profile::uniform(f, 1);
            // Distinct weights, so a wrong set of branches is a wrong sum.
            let block_weights: Vec<u64> = (1..=f.num_blocks() as u64).map(|k| k * k).collect();
            let pos_graph = PosGraph::build(f, &profile, &block_weights);
            for t in partition.threads() {
                let builder = GfBuilder {
                    f,
                    pos_graph: &pos_graph,
                    cdeps: pdg.control_deps(),
                    partition,
                    relevant,
                    block_weights: &block_weights,
                    control_penalties: true,
                    s: t,
                    t,
                };
                for b in f.blocks() {
                    let penalty = builder.control_penalty(b);
                    prop_assert_eq!(penalty, penalty_by_dfs(&builder, b));
                    nonzero.set(nonzero.get() + usize::from(penalty > 0));
                }
            }
            Ok(())
        });
        assert!(nonzero.get() > 0, "no case had a branch to penalize");
    }

    /// One all-register liveness per target thread, projected, is what
    /// a fixpoint over the uses of `r` alone gives — the analysis COCO
    /// ran per (source, target, register) saw nothing of `r` the
    /// hoisted one does not.
    #[test]
    fn projected_live_map_matches_a_per_register_fixpoint() {
        for_catalog_and_generated("flowgraph::projection_vs_fixpoint", 40, |f, _, partition, relevant| {
            for t in partition.threads() {
                let executes =
                    |i: InstrId| partition.thread_of(i) == t || relevant[t.index()].contains(&i);
                let hoisted = Liveness::compute_filtered(f, executes);
                for r in (0..f.num_regs()).map(Reg) {
                    let uses_r = |i: InstrId| executes(i) && f.instr(i).uses().contains(&r);
                    let alone = Liveness::compute_filtered(f, uses_r);
                    let (got, want) =
                        (LiveMap::project(f, &hoisted, r, executes), LiveMap::project(f, &alone, r, uses_r));
                    prop_assert_eq!(&got.live_entry, &want.live_entry);
                    prop_assert_eq!(&got.live_before, &want.live_before);
                    prop_assert_eq!(&got.live_after, &want.live_after);
                }
            }
            Ok(())
        });
    }
}
