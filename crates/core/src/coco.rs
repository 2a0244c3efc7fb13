//! COCO's Algorithm 2: iterative, pairwise communication optimization
//! over all threads.

use crate::flowgraph::{GfBuilder, LiveMap};
use crate::pos::PosGraph;
use crate::safety::Safety;
use gmt_graph::{multicut, DiGraph, MaxFlowAlgo, NodeId};
use gmt_ir::{Function, InstrId, Liveness, Profile, Reg};
use gmt_mtcg::{CommKind, CommPlan, CommPoint};
use gmt_pdg::{DepKind, Partition, Pdg, ThreadId};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Configuration of the COCO optimizer.
#[derive(Clone, Debug)]
pub struct CocoConfig {
    /// Max-flow algorithm (the paper uses Edmonds–Karp; Dinic is the
    /// "faster algorithm" suggested for production compilers).
    pub algo: MaxFlowAlgo,
    /// Apply the §3.1.2 control-flow penalties that steer cuts away
    /// from points requiring extra branches in the target thread.
    pub control_penalties: bool,
    /// Optimize all memory dependences of a pair simultaneously with
    /// the shared multicut heuristic (§3.1.3). When `false`, each
    /// memory dependence is cut independently (ablation).
    pub shared_memory_multicut: bool,
    /// Bound on the `repeat-until` iterations of Algorithm 2.
    pub max_iterations: usize,
}

impl Default for CocoConfig {
    fn default() -> CocoConfig {
        CocoConfig {
            algo: MaxFlowAlgo::EdmondsKarp,
            control_penalties: true,
            shared_memory_multicut: true,
            max_iterations: 10,
        }
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
    // argument of Algorithm 2).
    let mut relevant: Vec<BTreeSet<InstrId>> =
        gmt_mtcg::relevant_branches(f, cdeps, partition, &plan);

    for iter in 0..config.max_iterations {
        stats.iterations = iter + 1;
        let mut changed = false;
        // What thread t executes: its own instructions plus its
        // relevant branches, fixed until the end of the iteration.
        let executes = |t: ThreadId, i: InstrId| {
            partition.thread_of(i) == t || relevant[t.index()].contains(&i)
        };

        // ---- current communication requirements.
        // sinks[(s, t, r)] = uses of r that thread t executes (its own
        // instructions plus its relevant branches) reached by a def in s.
        let mut sinks: BTreeMap<(ThreadId, ThreadId, Reg), BTreeSet<InstrId>> = BTreeMap::new();
        // fallback[(s, t, r)] = MTCG points (after each reaching def).
        let mut fallback: BTreeMap<(ThreadId, ThreadId, Reg), BTreeSet<CommPoint>> =
            BTreeMap::new();
        for &(d, u, r) in &def_use_pairs {
            let s = partition.thread_of(d);
            for t in partition.threads() {
                if s == t {
                    continue;
                }
                if executes(t, u) {
                    sinks.entry((s, t, r)).or_default().insert(u);
                    fallback.entry((s, t, r)).or_default().insert(CommPoint::After(d));
                }
            }
        }

        // ---- pair processing order: quasi-topological over the thread
        // graph (reduces iterations when the graph is acyclic, §3.2).
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

        // ---- liveness with respect to each target thread: "the live
        // range of r considering only the uses of r in the instructions
        // assigned to T_t" (§3.1.1), for every r at once.
        let liveness: Vec<Liveness> = partition
            .threads()
            .map(|t| Liveness::compute_filtered(f, |i| executes(t, i)))
            .collect();

        for (s, t) in pairs {
            let builder = GfBuilder {
                f,
                pos_graph: &pos_graph,
                cdeps,
                partition,
                relevant: &relevant,
                block_weights: &block_weights,
                control_penalties: config.control_penalties,
                s,
                t,
            };

            // ---- registers, each optimized independently (§3.1.1).
            let regs: Vec<Reg> = sinks
                .range((s, t, Reg(0))..=(s, t, Reg(u32::MAX)))
                .map(|(&(_, _, r), _)| r)
                .collect();
            for r in regs {
                let use_set = &sinks[&(s, t, r)];
                let uses: Vec<InstrId> = use_set.iter().copied().collect();
                let empty = Vec::new();
                let defs = defs_of.get(&(r, s)).unwrap_or(&empty);
                let live = LiveMap::project(f, &liveness[t.index()], r, |i| executes(t, i));
                let points = builder
                    .optimize_register(r, &safety[s.index()], &live, defs, &uses, config.algo);
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
                            stats.memory_deps_optimized += 1;
                        } else {
                            stats.memory_fallbacks += 1;
                            points.insert(CommPoint::After(deps[k].0));
                        }
                    }
                } else {
                    // Ablation: cut each dependence independently.
                    for (k, c) in commodities.iter().enumerate() {
                        let cut = gf.net.min_cut_with(c.source, c.sink, config.algo);
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

        // ---- update relevant branches (they only grow).
        let recomputed = gmt_mtcg::relevant_branches(f, cdeps, partition, &plan);
        for (t_idx, brs) in recomputed.into_iter().enumerate() {
            for br in brs {
                if relevant[t_idx].insert(br) {
                    changed = true;
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
