//! COCO's Algorithm 2: iterative, pairwise communication optimization
//! over all threads.

use crate::flowgraph::{BlockTables, GfBuilder, LiveTable};
use crate::pos::PosGraph;
use crate::safety::Safety;
use gmt_graph::{multicut, DiGraph, NodeId};
use gmt_ir::{Function, InstrId, Liveness, Profile, Reg};
use gmt_mtcg::{CommKind, CommPlan, CommPoint};
use gmt_pdg::{DepKind, Partition, Pdg, ThreadId};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Bound on the `repeat-until` iterations of Algorithm 2.
const MAX_ITERATIONS: usize = 10;

/// Configuration of the COCO optimizer: the two design choices the
/// ablations switch off.
#[derive(Clone, Debug)]
pub struct CocoConfig {
    /// Apply the §3.1.2 control-flow penalties that steer cuts away
    /// from points requiring extra branches in the target thread.
    pub control_penalties: bool,
    /// Optimize all memory dependences of a pair simultaneously with
    /// the shared multicut heuristic (§3.1.3). When `false`, each
    /// memory dependence is cut independently (ablation).
    pub shared_memory_multicut: bool,
}

impl Default for CocoConfig {
    fn default() -> CocoConfig {
        CocoConfig { control_penalties: true, shared_memory_multicut: true }
    }
}

/// Statistics from one COCO run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CocoStats {
    /// Iterations of the outer repeat-until loop.
    pub iterations: usize,
    /// Register items optimized with a finite min-cut.
    pub registers_optimized: usize,
    /// Register items that fell back to the MTCG placement (no finite
    /// cut).
    pub register_fallbacks: usize,
    /// Memory dependences optimized.
    pub memory_deps_optimized: usize,
    /// Memory dependences that fell back to the MTCG placement.
    pub memory_fallbacks: usize,
}

impl CocoStats {
    /// Adds the four per-problem counters of `other` (not `iterations`).
    fn add(&mut self, other: &CocoStats) {
        self.registers_optimized += other.registers_optimized;
        self.register_fallbacks += other.register_fallbacks;
        self.memory_deps_optimized += other.memory_deps_optimized;
        self.memory_fallbacks += other.memory_fallbacks;
    }
}

/// Runs COCO (Algorithm 2) and returns the optimized plan.
///
/// The plan is a drop-in replacement for the baseline: feed it to
/// [`gmt_mtcg::generate_with_plan`].
///
/// ```
/// use gmt_core::{optimize, CocoConfig};
/// use gmt_ir::{FunctionBuilder, BinOp, Profile};
/// use gmt_pdg::{Pdg, Partition, ThreadId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = FunctionBuilder::new("f");
/// let x = b.param();
/// let y = b.bin(BinOp::Add, x, 1i64);
/// b.output(y);
/// b.ret(None);
/// let f = b.finish()?;
/// let instrs: Vec<_> = f.all_instrs().collect();
/// let mut partition = Partition::new(2);
/// partition.assign(instrs[0], ThreadId(0));
/// partition.assign(instrs[1], ThreadId(1));
/// partition.assign(instrs[2], ThreadId(0));
/// let pdg = Pdg::build(&f);
/// let (plan, stats) = optimize(&f, &pdg, &partition, &Profile::uniform(&f, 5), &CocoConfig::default());
/// let threads = gmt_mtcg::generate_with_plan(&f, &pdg, &partition, plan)?;
/// assert_eq!(threads.threads.len(), 2);
/// assert!(stats.iterations >= 1);
/// # Ok(())
/// # }
/// ```
pub fn optimize(
    f: &Function,
    pdg: &Pdg,
    partition: &Partition,
    profile: &Profile,
    config: &CocoConfig,
) -> (CommPlan, CocoStats) {
    optimize_tracking(f, pdg, partition, profile, config, |_, version| *version += 1)
}

/// A fact of one thread that is a function of its relevant-branch set,
/// with the version of the set it was derived from.
#[derive(Default)]
struct Derived<T> {
    from: Option<u32>,
    value: T,
}

impl<T: Default> Derived<T> {
    fn per_thread(n: u32) -> Vec<Derived<T>> {
        (0..n).map(|_| Derived::default()).collect()
    }

    fn refresh(&mut self, version: u32, derive: impl FnOnce() -> T) {
        if self.from != Some(version) {
            self.value = derive();
            self.from = Some(version);
        }
    }
}

/// One register a thread must receive from another.
struct RegisterNeed {
    from: ThreadId,
    reg: Reg,
    /// Uses of `reg` the receiving thread executes (its own
    /// instructions plus its relevant branches) that a def in `from`
    /// reaches, ascending.
    uses: Vec<InstrId>,
    /// The MTCG points: after each such def.
    fallback: BTreeSet<CommPoint>,
}

/// What thread `t` executes and what it must therefore be sent.
#[derive(Default)]
struct Needs {
    /// Per instruction: `t`'s own, or one of its relevant branches.
    executes: Vec<bool>,
    /// Ascending by `(from, reg)`.
    registers: Vec<RegisterNeed>,
}

impl Needs {
    fn of(
        f: &Function,
        partition: &Partition,
        def_use_pairs: &[(InstrId, InstrId, Reg)],
        t: ThreadId,
        relevant: &BTreeSet<InstrId>,
    ) -> Needs {
        let mut executes = vec![false; f.num_instrs()];
        for i in partition.instrs_of(t).chain(relevant.iter().copied()) {
            if let Some(e) = executes.get_mut(i.index()) {
                *e = true;
            }
        }
        let mut reached: Vec<(ThreadId, Reg, InstrId, InstrId)> = def_use_pairs
            .iter()
            .filter(|&&(_, u, _)| executes[u.index()])
            .map(|&(d, u, r)| (partition.thread_of(d), r, u, d))
            .filter(|&(s, ..)| s != t)
            .collect();
        reached.sort_unstable();
        let mut registers: Vec<RegisterNeed> = Vec::new();
        for (from, reg, u, d) in reached {
            match registers.last_mut() {
                Some(need) if (need.from, need.reg) == (from, reg) => {
                    if need.uses.last() != Some(&u) {
                        need.uses.push(u);
                    }
                    need.fallback.insert(CommPoint::After(d));
                }
                _ => registers.push(RegisterNeed {
                    from,
                    reg,
                    uses: vec![u],
                    fallback: BTreeSet::from([CommPoint::After(d)]),
                }),
            }
        }
        Needs { executes, registers }
    }
}

/// The last solve of one thread pair: the versions of the two relevant
/// sets it read, and what it added to the statistics.
struct Solved {
    versions: (u32, u32),
    stats: CocoStats,
}

/// [`optimize`], with the bookkeeping of grown relevant sets exposed:
/// `grew(t, version)` is called when thread `t`'s set has grown and must
/// advance `version`, or pairs of `t` keep their previous solve.
///
/// **Algorithm 2 re-solves a pair only when its inputs changed.**
/// Within an iteration the relevant sets are fixed, and the problems of
/// a pair `(s, t)` read `relevant[s]` (Property 2: which arcs are
/// feasible), `relevant[t]` (the uses `t` executes, liveness with
/// respect to `t`, the §3.1.2 penalties) and facts of the partition
/// alone (safety, definitions, memory dependences, the position graph)
/// — never the plan. So a pair's points and its contribution to
/// [`CocoStats`] are a function of those two sets: when neither grew
/// since the pair's last solve, its points are the ones the plan
/// already holds and its statistics are added again unsolved. The
/// confirming last iteration of a cell solves nothing.
fn optimize_tracking(
    f: &Function,
    pdg: &Pdg,
    partition: &Partition,
    profile: &Profile,
    config: &CocoConfig,
    grew: impl Fn(ThreadId, &mut u32),
) -> (CommPlan, CocoStats) {
    let n = partition.num_threads();
    let cdeps = pdg.control_deps();
    let def_use_pairs = pdg.def_use().def_use_pairs();
    let block_weights = profile.block_weights(f);
    let pos_graph = PosGraph::build(f, profile, &block_weights);
    let mut stats = CocoStats::default();

    // Safety per source thread (depends only on the partition).
    let safety: Vec<Safety> = partition
        .threads()
        .map(|s| Safety::compute(f, partition, s))
        .collect();

    // All defs of each register, per thread.
    let mut defs_of: HashMap<(Reg, ThreadId), Vec<InstrId>> = HashMap::new();
    for i in f.all_instrs() {
        if let Some(d) = f.instr(i).def() {
            defs_of.entry((d, partition.thread_of(i))).or_default().push(i);
        }
    }

    // Memory dependences per thread pair.
    let mut mem_deps: BTreeMap<(ThreadId, ThreadId), Vec<(InstrId, InstrId)>> = BTreeMap::new();
    for d in pdg.deps() {
        if d.kind == DepKind::Memory {
            let (s, t) = (partition.thread_of(d.src), partition.thread_of(d.dst));
            if s != t {
                let v = mem_deps.entry((s, t)).or_default();
                if !v.contains(&(d.src, d.dst)) {
                    v.push((d.src, d.dst));
                }
            }
        }
    }

    let mut plan = CommPlan::new(n);
    // Relevant branches only grow across iterations (the convergence
    // argument of Algorithm 2); `version[t]` counts the growths.
    let mut relevant: Vec<BTreeSet<InstrId>> =
        gmt_mtcg::relevant_branches(f, cdeps, partition, &plan);
    let mut version = vec![0u32; n as usize];
    // Per thread, derived from its relevant set when a pair needs it.
    let mut needs: Vec<Derived<Needs>> = Derived::per_thread(n);
    let mut blocks: Vec<Derived<BlockTables>> = Derived::per_thread(n);
    let mut live: Vec<Derived<LiveTable>> = Derived::per_thread(n);
    let mut solved: BTreeMap<(ThreadId, ThreadId), Solved> = BTreeMap::new();

    for iter in 0..MAX_ITERATIONS {
        stats.iterations = iter + 1;
        let mut changed = false;

        // ---- current communication requirements: what each thread
        // executes (fixed until the end of the iteration) and so needs.
        for t in partition.threads() {
            needs[t.index()].refresh(version[t.index()], || {
                Needs::of(f, partition, &def_use_pairs, t, &relevant[t.index()])
            });
        }
        let mut pairs: Vec<(ThreadId, ThreadId)> = partition
            .threads()
            .flat_map(|t| needs[t.index()].value.registers.iter().map(move |need| (need.from, t)))
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        pairs.extend(mem_deps.keys());

        // ---- pair processing order: quasi-topological over the thread
        // graph (reduces iterations when the graph is acyclic, §3.2).
        let mut tg = DiGraph::with_nodes(n as usize);
        for &(s, t) in &pairs {
            tg.add_arc_dedup(NodeId(s.0), NodeId(t.0));
        }
        let mut pos_of = vec![0usize; n as usize];
        for (k, v) in tg.quasi_topological_order().into_iter().enumerate() {
            pos_of[v.index()] = k;
        }
        pairs.sort_by_key(|&(s, t)| (pos_of[s.index()], pos_of[t.index()], s.0, t.0));
        pairs.dedup();

        // ---- the pairs whose inputs changed, and the tables they read.
        let stale = |solved: &BTreeMap<_, Solved>, s: ThreadId, t: ThreadId| {
            solved.get(&(s, t)).map(|p| p.versions) != Some((version[s.index()], version[t.index()]))
        };
        for &(s, t) in pairs.iter().filter(|&&(s, t)| stale(&solved, s, t)) {
            for x in [s, t] {
                blocks[x.index()].refresh(version[x.index()], || {
                    BlockTables::build(
                        f,
                        cdeps,
                        &relevant[x.index()],
                        &block_weights,
                        config.control_penalties,
                    )
                });
            }
            // Liveness with respect to the target thread: "the live
            // range of r considering only the uses of r in the
            // instructions assigned to T_t" (§3.1.1), for every r at once.
            let executes = |i: InstrId| needs[t.index()].value.executes[i.index()];
            live[t.index()].refresh(version[t.index()], || {
                LiveTable::build(f, &pos_graph, &Liveness::compute_filtered(f, executes), executes)
            });
        }

        let mut solved_any = false;
        for (s, t) in pairs {
            if !stale(&solved, s, t) {
                // Same inputs, same points (the plan holds them), same
                // statistics.
                if let Some(pair) = solved.get(&(s, t)) {
                    stats.add(&pair.stats);
                }
                continue;
            }
            solved_any = true;
            let mut pair_stats = CocoStats::default();
            let builder = GfBuilder {
                pos_graph: &pos_graph,
                src_ok: &blocks[s.index()].value.src_ok,
                penalty: &blocks[t.index()].value.penalty,
            };

            // ---- registers, each optimized independently (§3.1.1).
            for need in needs[t.index()].value.registers.iter().filter(|need| need.from == s) {
                let r = need.reg;
                let defs = defs_of.get(&(r, s)).map_or(&[][..], Vec::as_slice);
                let points = builder.optimize_register(
                    r,
                    &safety[s.index()],
                    &live[t.index()].value,
                    defs,
                    &need.uses,
                );
                let new_points = match points {
                    Some(p) if !p.is_empty() => {
                        pair_stats.registers_optimized += 1;
                        p
                    }
                    Some(_) | None => {
                        pair_stats.register_fallbacks += 1;
                        need.fallback.clone()
                    }
                };
                if plan.points(CommKind::Register(r), s, t) != new_points {
                    plan.set_points(CommKind::Register(r), s, t, new_points);
                    changed = true;
                }
            }

            // ---- memory, all dependences of the pair together (§3.1.3).
            if let Some(deps) = mem_deps.get(&(s, t)) {
                let (gf, commodities) = builder.build_memory(deps);
                let mut points: BTreeSet<CommPoint> = BTreeSet::new();
                if config.shared_memory_multicut {
                    let result = multicut(&gf.net, &commodities);
                    for &arc in &result.arcs {
                        points.insert(
                            gf.arc_point[arc.index()].expect("finite cut arcs have points"),
                        );
                    }
                    for (k, feasible) in result.feasible.iter().enumerate() {
                        if *feasible {
                            pair_stats.memory_deps_optimized += 1;
                        } else {
                            pair_stats.memory_fallbacks += 1;
                            points.insert(CommPoint::After(deps[k].0));
                        }
                    }
                } else {
                    // Ablation: cut each dependence independently.
                    for (k, c) in commodities.iter().enumerate() {
                        let cut = gf.net.min_cut(c.source, c.sink);
                        if cut.is_feasible() {
                            pair_stats.memory_deps_optimized += 1;
                            points.extend(gf.cut_points(&cut));
                        } else {
                            pair_stats.memory_fallbacks += 1;
                            points.insert(CommPoint::After(deps[k].0));
                        }
                    }
                }
                if plan.points(CommKind::Memory, s, t) != points {
                    plan.set_points(CommKind::Memory, s, t, points);
                    changed = true;
                }
            }

            stats.add(&pair_stats);
            let versions = (version[s.index()], version[t.index()]);
            solved.insert((s, t), Solved { versions, stats: pair_stats });
        }

        // ---- update relevant branches (they only grow). With nothing
        // solved the plan is the one they were last derived from.
        if solved_any {
            let recomputed = gmt_mtcg::relevant_branches(f, cdeps, partition, &plan);
            for (t_idx, brs) in recomputed.into_iter().enumerate() {
                let before = relevant[t_idx].len();
                relevant[t_idx].extend(brs);
                if relevant[t_idx].len() > before {
                    changed = true;
                    grew(ThreadId(t_idx as u32), &mut version[t_idx]);
                }
            }
        }

        if !changed {
            break;
        }
    }

    // Record the final relevant-branch sets in the plan for MTCG.
    for (t_idx, brs) in relevant.iter().enumerate() {
        for &br in brs {
            plan.add_relevant_branch(ThreadId(t_idx as u32), br);
        }
    }
    (plan, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flowgraph::reference::{LiveMap, RefBuilder};
    use crate::flowgraph::tests::for_catalog_and_generated_partitions;
    use gmt_testkit::prop_assert_eq;

    /// Algorithm 2 as it ran before pairs were memoized and the flow
    /// graphs came from tables: every pair solved in every iteration,
    /// the requirement maps rebuilt per iteration, one liveness
    /// projection per (pair, register), the pre-change graph builder.
    fn optimize_every_pair_every_iteration(
        f: &Function,
        pdg: &Pdg,
        partition: &Partition,
        profile: &Profile,
        config: &CocoConfig,
    ) -> (CommPlan, CocoStats) {
        let n = partition.num_threads();
        let cdeps = pdg.control_deps();
        let def_use_pairs = pdg.def_use().def_use_pairs();
        let block_weights = profile.block_weights(f);
        let pos_graph = PosGraph::build(f, profile, &block_weights);
        let mut stats = CocoStats::default();
        let safety: Vec<Safety> =
            partition.threads().map(|s| Safety::compute(f, partition, s)).collect();
        let mut defs_of: HashMap<(Reg, ThreadId), Vec<InstrId>> = HashMap::new();
        for i in f.all_instrs() {
            if let Some(d) = f.instr(i).def() {
                defs_of.entry((d, partition.thread_of(i))).or_default().push(i);
            }
        }
        let mut mem_deps: BTreeMap<(ThreadId, ThreadId), Vec<(InstrId, InstrId)>> = BTreeMap::new();
        for d in pdg.deps() {
            if d.kind == DepKind::Memory {
                let (s, t) = (partition.thread_of(d.src), partition.thread_of(d.dst));
                if s != t {
                    let v = mem_deps.entry((s, t)).or_default();
                    if !v.contains(&(d.src, d.dst)) {
                        v.push((d.src, d.dst));
                    }
                }
            }
        }
        let mut plan = CommPlan::new(n);
        let mut relevant: Vec<BTreeSet<InstrId>> =
            gmt_mtcg::relevant_branches(f, cdeps, partition, &plan);
        for iter in 0..MAX_ITERATIONS {
            stats.iterations = iter + 1;
            let mut changed = false;
            let executes = |t: ThreadId, i: InstrId| {
                partition.thread_of(i) == t || relevant[t.index()].contains(&i)
            };
            let mut sinks: BTreeMap<(ThreadId, ThreadId, Reg), BTreeSet<InstrId>> = BTreeMap::new();
            let mut fallback: BTreeMap<(ThreadId, ThreadId, Reg), BTreeSet<CommPoint>> =
                BTreeMap::new();
            for &(d, u, r) in &def_use_pairs {
                let s = partition.thread_of(d);
                for t in partition.threads() {
                    if s != t && executes(t, u) {
                        sinks.entry((s, t, r)).or_default().insert(u);
                        fallback.entry((s, t, r)).or_default().insert(CommPoint::After(d));
                    }
                }
            }
            let mut tg = DiGraph::with_nodes(n as usize);
            for &(s, t, _) in sinks.keys() {
                tg.add_arc_dedup(NodeId(s.0), NodeId(t.0));
            }
            for &(s, t) in mem_deps.keys() {
                tg.add_arc_dedup(NodeId(s.0), NodeId(t.0));
            }
            let order = tg.quasi_topological_order();
            let pos_of: HashMap<u32, usize> =
                order.iter().enumerate().map(|(k, &v)| (v.0, k)).collect();
            let mut pairs: Vec<(ThreadId, ThreadId)> = sinks
                .keys()
                .map(|&(s, t, _)| (s, t))
                .chain(mem_deps.keys().copied())
                .collect();
            pairs.sort_by_key(|&(s, t)| (pos_of[&s.0], pos_of[&t.0], s.0, t.0));
            pairs.dedup();
            let liveness: Vec<Liveness> = partition
                .threads()
                .map(|t| Liveness::compute_filtered(f, |i| executes(t, i)))
                .collect();
            for (s, t) in pairs {
                let builder = RefBuilder {
                    f,
                    pos_graph: &pos_graph,
                    cdeps,
                    relevant: &relevant,
                    block_weights: &block_weights,
                    control_penalties: config.control_penalties,
                    s,
                    t,
                };
                let regs: Vec<Reg> = sinks
                    .range((s, t, Reg(0))..=(s, t, Reg(u32::MAX)))
                    .map(|(&(_, _, r), _)| r)
                    .collect();
                for r in regs {
                    let uses: Vec<InstrId> = sinks[&(s, t, r)].iter().copied().collect();
                    let defs = defs_of.get(&(r, s)).map_or(&[][..], Vec::as_slice);
                    let live = LiveMap::project(f, &liveness[t.index()], r, |i| executes(t, i));
                    let points =
                        builder.optimize_register(r, &safety[s.index()], &live, defs, &uses);
                    let new_points = match points {
                        Some(p) if !p.is_empty() => {
                            stats.registers_optimized += 1;
                            p
                        }
                        Some(_) | None => {
                            stats.register_fallbacks += 1;
                            fallback[&(s, t, r)].clone()
                        }
                    };
                    if plan.points(CommKind::Register(r), s, t) != new_points {
                        plan.set_points(CommKind::Register(r), s, t, new_points);
                        changed = true;
                    }
                }
                if let Some(deps) = mem_deps.get(&(s, t)) {
                    let (gf, commodities) = builder.build_memory(deps);
                    let mut points: BTreeSet<CommPoint> = BTreeSet::new();
                    if config.shared_memory_multicut {
                        let result = multicut(&gf.net, &commodities);
                        points.extend(result.arcs.iter().filter_map(|a| gf.arc_point[a.index()]));
                        for (k, feasible) in result.feasible.iter().enumerate() {
                            if *feasible {
                                stats.memory_deps_optimized += 1;
                            } else {
                                stats.memory_fallbacks += 1;
                                points.insert(CommPoint::After(deps[k].0));
                            }
                        }
                    } else {
                        for (k, c) in commodities.iter().enumerate() {
                            let cut = gf.net.min_cut(c.source, c.sink);
                            if cut.is_feasible() {
                                stats.memory_deps_optimized += 1;
                                points.extend(gf.cut_points(&cut));
                            } else {
                                stats.memory_fallbacks += 1;
                                points.insert(CommPoint::After(deps[k].0));
                            }
                        }
                    }
                    if plan.points(CommKind::Memory, s, t) != points {
                        plan.set_points(CommKind::Memory, s, t, points);
                        changed = true;
                    }
                }
            }
            let recomputed = gmt_mtcg::relevant_branches(f, cdeps, partition, &plan);
            for (t_idx, brs) in recomputed.into_iter().enumerate() {
                for br in brs {
                    changed |= relevant[t_idx].insert(br);
                }
            }
            if !changed {
                break;
            }
        }
        for (t_idx, brs) in relevant.iter().enumerate() {
            for &br in brs {
                plan.add_relevant_branch(ThreadId(t_idx as u32), br);
            }
        }
        (plan, stats)
    }

    /// Everything a plan says, comparable (`CommPlan` has no `Eq`).
    fn described(plan: &CommPlan) -> (Vec<gmt_mtcg::CommItem>, Vec<BTreeSet<InstrId>>) {
        (plan.items().collect(), plan.all_relevant_branches().to_vec())
    }

    /// The configurations the workspace runs COCO under: the default,
    /// and the two ablations that change which problems are built.
    fn configs() -> [CocoConfig; 3] {
        [
            CocoConfig::default(),
            CocoConfig { control_penalties: false, ..Default::default() },
            CocoConfig { shared_memory_multicut: false, ..Default::default() },
        ]
    }

    /// Over the catalog under both partitioners at N ∈ {2,3,4} and
    /// generated programs under seeded partitions: the memoized,
    /// table-driven Algorithm 2 returns the plan and the statistics of
    /// the one that solves every pair in every iteration.
    #[test]
    fn memoized_pairs_give_the_plan_of_solving_every_pair() {
        let skipped = std::cell::Cell::new(0usize);
        for_catalog_and_generated_partitions("coco::memo_vs_every_pair", 40, |f, pdg, partition, profile| {
            for config in configs() {
                let (plan, stats) = optimize(f, pdg, partition, profile, &config);
                let (want_plan, want_stats) =
                    optimize_every_pair_every_iteration(f, pdg, partition, profile, &config);
                prop_assert_eq!(stats, want_stats);
                prop_assert_eq!(described(&plan), described(&want_plan));
                skipped.set(skipped.get() + usize::from(stats.iterations > 1));
            }
            Ok(())
        });
        assert!(skipped.get() > 100, "only {} runs had a second iteration to skip in", skipped.get());
    }

    /// The planted mutation: a thread whose relevant set grew keeps its
    /// old version, so its pairs are taken for solved. The property
    /// above must tell that from the real thing on some case.
    #[test]
    fn forgetting_to_bump_a_version_is_caught() {
        let caught = std::cell::Cell::new(0usize);
        for_catalog_and_generated_partitions("coco::forgotten_bump", 20, |f, pdg, partition, profile| {
            let config = CocoConfig::default();
            let want = optimize_every_pair_every_iteration(f, pdg, partition, profile, &config);
            for forgotten in partition.threads() {
                let (plan, stats) = optimize_tracking(f, pdg, partition, profile, &config, |t, v| {
                    if t != forgotten {
                        *v += 1;
                    }
                });
                let same = stats == want.1 && described(&plan) == described(&want.0);
                caught.set(caught.get() + usize::from(!same));
            }
            Ok(())
        });
        assert!(caught.get() >= 10, "only {} mutant runs differ from the reference", caught.get());
    }
}
