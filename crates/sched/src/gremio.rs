//! The GREMIO partitioner: Global REgion Multi-threaded Instruction
//! scheduling — the contribution of the MICRO 2007 paper "Global
//! Multi-Threaded Instruction Scheduling" (Ottoni & August).
//!
//! GREMIO "allows cyclic inter-thread dependences and schedules
//! instructions based on their control relations and an estimate of
//! when instructions will be ready to execute" (§2 of the COCO paper).
//! The implementation follows that description with an explicit
//! hierarchical flavor:
//!
//! 1. **Clustering by control relations.** Candidate clusterings are
//!    derived from the PDG's strongly connected components (recurrences
//!    are never split) at three region granularities: per-SCC (fine),
//!    SCCs merged per *innermost* loop, and SCCs merged per *outermost*
//!    loop. Coarser granularities keep whole loop bodies together —
//!    the hierarchy of the original algorithm.
//! 2. **Ready-time list scheduling.** Each candidate clustering is
//!    list-scheduled onto the threads in quasi-topological order of the
//!    (possibly cyclic) cluster dependence graph, placing every cluster
//!    where its profile-weighted finish time is smallest.
//! 3. **Cost-based selection.** Each schedule is scored by estimated
//!    makespan plus the dynamic communication the partition would
//!    induce (cross-thread dependences pay their source's execution
//!    count); the cheapest candidate wins. Fine granularity wins on
//!    single-loop kernels (intra-loop parallelism), coarse granularity
//!    wins when separate regions can run on separate threads — the
//!    shapes the paper's evaluation exhibits.
//!
//! Unlike DSWP, nothing constrains dependences to flow forward: the
//! chosen partition may have cyclic inter-thread dependences.

use crate::cost::{to_partition, CostModel, Live, SearchWork, COMM_LATENCY};
use crate::weights::InstrWeights;
use crate::SchedError;
use gmt_graph::{Condensation, DiGraph, NodeId};
use gmt_ir::{Function, Profile};
use gmt_pdg::{Partition, Pdg};
use std::collections::HashMap;

/// Configuration of the GREMIO partitioner.
#[derive(Clone, Debug)]
pub struct GremioConfig {
    /// Number of threads to produce.
    pub num_threads: u32,
}

impl Default for GremioConfig {
    fn default() -> GremioConfig {
        GremioConfig { num_threads: 2 }
    }
}

/// Region granularity of a candidate clustering.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Granularity {
    /// One cluster per (intra-iteration) PDG SCC.
    Scc,
    /// SCCs merged when they start in the same basic block.
    Block,
    /// SCCs merged when their blocks share the same control-dependence
    /// region within the same innermost loop (hammock arms stay whole).
    ControlRegion,
    /// SCCs merged when they share an innermost loop.
    InnermostLoop,
    /// SCCs merged when they share an outermost loop.
    OutermostLoop,
}

/// All granularities, fine to coarse.
const GRANULARITIES: [Granularity; 5] = [
    Granularity::Scc,
    Granularity::Block,
    Granularity::ControlRegion,
    Granularity::InnermostLoop,
    Granularity::OutermostLoop,
];

/// Partitions `f` over `config.num_threads` threads, selecting the
/// best candidate by the analytic throughput score.
///
/// # Errors
///
/// [`SchedError::NoThreads`] when `config.num_threads` is zero.
///
/// ```
/// use gmt_ir::{FunctionBuilder, BinOp, Profile};
/// use gmt_pdg::Pdg;
/// use gmt_sched::gremio;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = FunctionBuilder::new("f");
/// let x = b.param();
/// let y = b.bin(BinOp::Mul, x, 3i64);
/// b.output(y);
/// b.ret(None);
/// let f = b.finish()?;
/// let pdg = Pdg::build(&f);
/// let p = gremio::partition(&f, &pdg, &Profile::uniform(&f, 10), &gremio::GremioConfig::default())?;
/// assert!(p.validate(&f).is_ok());
/// # Ok(())
/// # }
/// ```
pub fn partition(
    f: &Function,
    pdg: &Pdg,
    profile: &Profile,
    config: &GremioConfig,
) -> Result<Partition, SchedError> {
    candidates(f, pdg, profile, config)?
        .into_iter()
        .min_by_key(|(s, _)| *s)
        .map(|(_, p)| p)
        .ok_or(SchedError::NoCandidates)
}

/// All candidate partitions GREMIO considers, with their analytic
/// scores: one hill-climbed schedule per region granularity, plus the
/// degenerate everything-on-thread-0 fallback. Exposed so a driver can
/// arbitrate between candidates with a better oracle (e.g. a timed run
/// of the generated code on the train input — profile-guided partition
/// selection).
///
/// # Errors
///
/// [`SchedError::NoThreads`] when `config.num_threads` is zero.
pub fn candidates(
    f: &Function,
    pdg: &Pdg,
    profile: &Profile,
    config: &GremioConfig,
) -> Result<Vec<(u64, Partition)>, SchedError> {
    search(f, pdg, profile, config, true).map(|(cands, _)| cands)
}

/// The search behind [`candidates`], with the work it did. `prune` is
/// `true` outside tests: skipping hill-climb probes by the threads'
/// bounds never changes the result.
fn search(
    f: &Function,
    pdg: &Pdg,
    profile: &Profile,
    config: &GremioConfig,
    prune: bool,
) -> Result<(Vec<(u64, Partition)>, SearchWork), SchedError> {
    if config.num_threads == 0 {
        return Err(SchedError::NoThreads);
    }
    let weights = InstrWeights::compute(f, &profile.block_weights(f));
    let model = CostModel::new(f, pdg, &weights, COMM_LATENCY);
    search_model(f, pdg, &weights, &model, config, prune)
}

/// [`search`] over a given cost model.
fn search_model(
    f: &Function,
    pdg: &Pdg,
    weights: &InstrWeights,
    model: &CostModel,
    config: &GremioConfig,
    prune: bool,
) -> Result<(Vec<(u64, Partition)>, SearchWork), SchedError> {
    // Cluster over the intra-iteration dependence graph: carried arcs
    // do not constrain the schedule (cyclic inter-thread dependences
    // are GREMIO's defining freedom), but they still cost communication
    // and are accounted by the cost model.
    let g = pdg.as_digraph_filtered(|d| !d.loop_carried);
    let cond = g.condensation();
    let mut scc_of = vec![0usize; f.num_instrs()];
    for (k, &i) in pdg.nodes().iter().enumerate() {
        scc_of[i.index()] = cond.component_of[k];
    }
    let cx = Context {
        f,
        pdg,
        config,
        weights,
        model,
        cond: &cond,
        scc_of: &scc_of,
        prune,
    };

    let mut work = SearchWork::default();
    let mut out: Vec<(u64, Partition)> = Vec::new();
    let mut seen: Vec<Vec<usize>> = Vec::with_capacity(GRANULARITIES.len());
    for gran in GRANULARITIES {
        // The schedule depends on the granularity only through the
        // clustering, so a clustering an earlier granularity produced
        // would only rebuild a candidate `out` already holds.
        let cluster_of = clustering(&cx, gran);
        if seen.contains(&cluster_of) {
            continue;
        }
        let (score, thread_of) = schedule(&cx, &cluster_of, &mut work);
        seen.push(cluster_of);
        let candidate = to_partition(pdg, &thread_of, config.num_threads);
        if !out.iter().any(|(_, p)| *p == candidate) {
            out.push((score, candidate));
        }
    }
    // Degenerate fallback: everything on thread 0.
    let everything_on_0 = vec![0u32; f.num_instrs()];
    let single = to_partition(pdg, &everything_on_0, config.num_threads);
    if !out.iter().any(|(_, p)| *p == single) {
        let score = Live::new(model, everything_on_0, config.num_threads as usize).score();
        work.scored += 1;
        out.push((score, single));
    }
    Ok((out, work))
}

/// What the schedules of all granularities share.
struct Context<'a> {
    f: &'a Function,
    pdg: &'a Pdg,
    config: &'a GremioConfig,
    weights: &'a InstrWeights,
    model: &'a CostModel,
    /// Condensation of the intra-iteration dependence graph.
    cond: &'a Condensation,
    /// The component of `cond` each instruction (by index) is in.
    scc_of: &'a [usize],
    prune: bool,
}

/// The cluster of every SCC of `cx.cond` at granularity `gran`:
/// clusters are numbered `0..m` in order of first appearance.
fn clustering(cx: &Context<'_>, gran: Granularity) -> Vec<usize> {
    let Context { f, pdg, cond, .. } = *cx;
    let (loops, cdeps) = (pdg.loops(), pdg.control_deps());
    let nodes = pdg.nodes();

    // ---- merge SCCs into region clusters.
    // cluster_of[scc] = cluster id.
    let scc_count = cond.components.len();
    let mut cluster_of: Vec<usize> = (0..scc_count).collect();
    // Region key of an SCC, from its first instruction's block.
    let region_key = |block: gmt_ir::BlockId| -> Option<u64> {
        match gran {
            Granularity::Scc => None,
            Granularity::Block => Some(block.0 as u64),
            Granularity::ControlRegion => {
                // Key = hash of the control-dependence set (branch
                // instruction ids and edges) — control-equivalent
                // blocks merge, so hammock arms stay whole.
                let mut cds: Vec<(u32, usize)> = cdeps
                    .of_block(block)
                    .iter()
                    .map(|cd| (cd.branch.0, cd.edge))
                    .collect();
                cds.sort_unstable();
                let mut h: u64 = 0xcbf2_9ce4_8422_2325;
                for (b, e) in cds {
                    h = (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3);
                    h = (h ^ e as u64).wrapping_mul(0x1000_0000_01b3);
                }
                Some(h)
            }
            Granularity::InnermostLoop | Granularity::OutermostLoop => {
                let mut li = loops.innermost[block.index()];
                if gran == Granularity::OutermostLoop {
                    while let Some(k) = li {
                        match loops.loops[k].parent {
                            Some(p) => li = Some(p),
                            None => break,
                        }
                    }
                }
                li.map(|k| k as u64)
            }
        }
    };
    let mut key_to_cluster: HashMap<u64, usize> = HashMap::new();
    for (scc_idx, scc) in cond.components.iter().enumerate() {
        let block = f.block_of(nodes[scc.nodes[0].index()]);
        if let Some(k) = region_key(block) {
            cluster_of[scc_idx] = *key_to_cluster.entry(k).or_insert(scc_idx);
        }
    }
    // Normalize cluster ids to 0..m, in order of first appearance.
    let mut remap: Vec<Option<usize>> = vec![None; scc_count];
    let mut m = 0;
    for c in cluster_of.iter_mut() {
        *c = *remap[*c].get_or_insert_with(|| {
            m += 1;
            m - 1
        });
    }
    cluster_of
}

/// List-schedules and hill-climbs one clustering of the SCCs; returns
/// its score and the thread of every instruction (by index).
fn schedule(cx: &Context<'_>, cluster_of: &[usize], work: &mut SearchWork) -> (u64, Vec<u32>) {
    let Context { f, pdg, config, weights, model, scc_of, prune, .. } = *cx;
    let n = config.num_threads as usize;
    let nodes = pdg.nodes();
    let m = cluster_of.iter().max().map_or(0, |&c| c + 1);

    // ---- cluster members, weights and dependence graph (possibly
    // cyclic).
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); m];
    let mut cluster_weight = vec![0u64; m];
    let mut cluster_count = vec![0u64; m]; // max exec count inside
    let mut cluster_of_instr = vec![0u32; f.num_instrs()];
    for &i in nodes {
        let c = cluster_of[scc_of[i.index()]];
        members[c].push(i.index());
        cluster_weight[c] += weights.weight(i);
        cluster_count[c] = cluster_count[c].max(weights.exec_count(i));
        cluster_of_instr[i.index()] = c as u32;
    }
    let mut cg = DiGraph::with_nodes(m);
    for d in pdg.deps() {
        let (cs, ct) = (
            cluster_of[scc_of[d.src.index()]],
            cluster_of[scc_of[d.dst.index()]],
        );
        if cs != ct {
            cg.add_arc_dedup(NodeId(cs as u32), NodeId(ct as u32));
        }
    }

    // ---- list scheduling in quasi-topological order; back arcs are
    // ignored for ready times (cyclic deps allowed).
    let order = cg.quasi_topological_order();
    let mut thread_free = vec![0u64; n];
    let mut finish = vec![0u64; m];
    let mut placed = vec![false; m];
    let mut assignment = vec![0u32; m];
    for &c in &order {
        let ci = c.index();
        let w = cluster_weight[ci];
        let (mut best_t, mut best_finish) = (0usize, u64::MAX);
        #[allow(clippy::needless_range_loop)]
        for t in 0..n {
            let mut ready = thread_free[t];
            for &p in cg.preds(c) {
                let pi = p.index();
                // Back arc (pred later in quasi-topo): skip.
                if !placed[pi] {
                    continue;
                }
                let arrival = if assignment[pi] as usize == t {
                    finish[pi]
                } else {
                    finish[pi] + cluster_count[pi].max(1) * COMM_LATENCY
                };
                ready = ready.max(arrival);
            }
            let fin = ready + w;
            if fin < best_finish {
                best_finish = fin;
                best_t = t;
            }
        }
        placed[ci] = true;
        assignment[ci] = best_t as u32;
        finish[ci] = best_finish;
        thread_free[best_t] = best_finish;
    }

    // ---- hill-climbing refinement. The list schedule models the
    // intra-iteration critical path, which chains serial stages onto
    // one thread; decoupled execution overlaps stages across outer
    // iterations (pipeline parallelism), which the throughput-style
    // score captures. Move clusters between threads while the score
    // improves. `load` (per-thread compute weight) follows `assignment`
    // by delta per probe, `live` by delta per scored probe.
    let joinings = model.joinings(&members, cluster_of_instr);
    let mut thread_of = vec![0u32; f.num_instrs()];
    let mut load = vec![0u64; n];
    for c in 0..m {
        for &i in &members[c] {
            thread_of[i] = assignment[c];
        }
        load[assignment[c] as usize] += cluster_weight[c];
    }
    let mut live = Live::new(model, thread_of, n);
    let mut current_score = live.score();
    work.scored += 1;
    let mut current = live.thread_of().to_vec();
    let mut improved = true;
    while improved {
        improved = false;
        for c in 0..m {
            // KNOWN QUIRK (N > 2), kept on purpose: `original` is the
            // thread `c` had *before* this `for t` loop. After an
            // accepted move a later rejected probe puts `c` back on
            // `original`, not on the accepted thread, so from then on
            // `assignment` (the base later probes start from) lags
            // `current` (what is returned, and what `current_score`
            // scores). Repairing it changes N=4 partitions; see
            // DESIGN.md "Partitioner search cost" and ROADMAP item 3.
            let original = assignment[c];
            let w = cluster_weight[c];
            for t in 0..n as u32 {
                if t == original {
                    continue;
                }
                load[assignment[c] as usize] -= w;
                load[t as usize] += w;
                assignment[c] = t;
                // The probe's bound: a thread other than `t` and the one
                // `live` holds `c` on (`held`) holds what it will hold,
                // so its bound stands; `load` has what `held` and `t`
                // will compute; `t`'s bound follows from `c`'s own arcs. A
                // probe whose bound reaches `current_score` cannot score
                // less. `held` is `original` or a thread probed earlier
                // in this loop, so never `t`.
                let (t, held) = (t as usize, live.thread_of()[members[c][0]] as usize);
                let mut bound = load[held].max(load[t]);
                for u in (0..n).filter(|&u| u != t && u != held) {
                    bound = bound.max(live.bound(u));
                }
                // `t`'s bound is worth working out only if it can reach
                // `current_score`.
                let reach = live.bound(t) + joinings.ceiling(c);
                if !prune || (bound < current_score && reach >= current_score) {
                    bound = bound.max(live.bound_joined(&joinings, c, &members[c], t, held));
                }
                let t = t as u32;
                let score = if prune && bound >= current_score {
                    work.pruned += 1;
                    u64::MAX
                } else {
                    work.scored += 1;
                    live.move_to(&members[c], t);
                    let s = live.score();
                    if s < bound {
                        work.below_bound += 1;
                    }
                    s
                };
                if score < current_score {
                    current_score = score;
                    current.copy_from_slice(live.thread_of());
                    improved = true;
                } else {
                    load[t as usize] -= w;
                    load[original as usize] += w;
                    assignment[c] = original;
                }
            }
            // `live` keeps `c` wherever the last scored probe put it (the
            // next probe moves it anyway) and settles it on its final
            // thread, quirk included, once.
            live.move_to(&members[c], assignment[c]);
        }
    }
    (current_score, current)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmt_ir::{BinOp, FunctionBuilder};

    /// The candidates [`super::search`] returns, without its work: what
    /// pruning must leave alone; and how many scored probes came out
    /// below their bound.
    fn search(
        f: &Function,
        pdg: &Pdg,
        profile: &Profile,
        config: &GremioConfig,
        prune: bool,
    ) -> (Result<Vec<(u64, Partition)>, SchedError>, u64) {
        match super::search(f, pdg, profile, config, prune) {
            Ok((cands, work)) => (Ok(cands), work.below_bound),
            Err(e) => (Err(e), 0),
        }
    }

    /// Two independent reduction loops over disjoint arrays — ideal for
    /// GREMIO: each loop goes to its own thread, no communication in
    /// steady state.
    fn two_independent_loops() -> (Function, Profile) {
        let mut b = FunctionBuilder::new("indep");
        let n = b.param();
        let a = b.object("a", 64);
        let c = b.object("c", 64);
        let i = b.fresh_reg();
        let s1 = b.fresh_reg();
        let j = b.fresh_reg();
        let s2 = b.fresh_reg();
        let h1 = b.block("h1");
        let b1 = b.block("b1");
        let h2 = b.block("h2");
        let b2 = b.block("b2");
        let exit = b.block("exit");
        b.const_into(i, 0);
        b.const_into(s1, 0);
        b.const_into(j, 0);
        b.const_into(s2, 0);
        b.jump(h1);
        b.switch_to(h1);
        let c1 = b.bin(BinOp::Lt, i, n);
        b.branch(c1, b1, h2);
        b.switch_to(b1);
        let pa = b.lea(a, 0);
        let ea = b.bin(BinOp::Add, pa, i);
        let va = b.load(ea, 0);
        b.bin_into(BinOp::Add, s1, s1, va);
        b.bin_into(BinOp::Add, i, i, 1i64);
        b.jump(h1);
        b.switch_to(h2);
        let c2 = b.bin(BinOp::Lt, j, n);
        b.branch(c2, b2, exit);
        b.switch_to(b2);
        let pc = b.lea(c, 0);
        let ec = b.bin(BinOp::Add, pc, j);
        let vc = b.load(ec, 0);
        b.bin_into(BinOp::Mul, s2, s2, vc);
        b.bin_into(BinOp::Add, j, j, 1i64);
        b.jump(h2);
        b.switch_to(exit);
        let r = b.bin(BinOp::Add, s1, s2);
        b.ret(Some(r.into()));
        let mut f = b.finish().unwrap();
        gmt_ir::split_critical_edges(&mut f);
        let profile = Profile::uniform(&f, 64);
        (f, profile)
    }

    #[test]
    fn valid_total_assignment() {
        let (f, profile) = two_independent_loops();
        let pdg = Pdg::build(&f);
        let p = partition(&f, &pdg, &profile, &GremioConfig::default()).unwrap();
        assert!(p.validate(&f).is_ok());
    }

    #[test]
    fn independent_loops_land_on_different_threads() {
        let (f, profile) = two_independent_loops();
        let pdg = Pdg::build(&f);
        let p = partition(&f, &pdg, &profile, &GremioConfig::default()).unwrap();
        let sizes = p.static_sizes();
        assert!(sizes.iter().all(|&s| s > 0), "both threads should get work: {sizes:?}");
        // The two loop bodies must not share a thread: find the two
        // loads and compare their threads.
        let loads: Vec<_> = f
            .all_instrs()
            .filter(|&i| f.instr(i).is_mem_read())
            .collect();
        assert_eq!(loads.len(), 2);
        assert_ne!(
            p.thread_of(loads[0]),
            p.thread_of(loads[1]),
            "each loop on its own thread"
        );
    }

    #[test]
    fn loop_bodies_stay_whole_when_loops_are_independent() {
        let (f, profile) = two_independent_loops();
        let pdg = Pdg::build(&f);
        let p = partition(&f, &pdg, &profile, &GremioConfig::default()).unwrap();
        // Every instruction of block b1 shares b1's thread (the loop
        // body was not scattered).
        for blk in [gmt_ir::BlockId(2), gmt_ir::BlockId(4)] {
            let threads: std::collections::BTreeSet<_> = f
                .block(blk)
                .all_instrs()
                .map(|i| p.thread_of(i))
                .collect();
            assert_eq!(threads.len(), 1, "block {blk:?} scattered: {threads:?}");
        }
    }

    #[test]
    fn single_thread_config_degenerates() {
        let (f, profile) = two_independent_loops();
        let pdg = Pdg::build(&f);
        let p = partition(&f, &pdg, &profile, &GremioConfig { num_threads: 1 }).unwrap();
        assert_eq!(p.static_sizes()[0], f.placed_instr_count());
    }

    #[test]
    fn recurrences_not_split() {
        let (f, profile) = two_independent_loops();
        let pdg = Pdg::build(&f);
        let p = partition(&f, &pdg, &profile, &GremioConfig::default()).unwrap();
        let cond = pdg.as_digraph().condensation();
        let scc = |i| cond.component_of[pdg.nodes().iter().position(|&n| n == i).unwrap()];
        for d in pdg.deps() {
            if scc(d.src) == scc(d.dst) {
                assert_eq!(p.thread_of(d.src), p.thread_of(d.dst), "SCC split: {d:?}");
            }
        }
    }

    /// Pins what the hill climb returns on a 4-thread case where its
    /// known quirk fires (after an accepted move, a rejected probe of
    /// the same cluster resets the probing base to the pre-loop thread
    /// while the returned partition keeps the accepted one): the
    /// vectors below were recorded from the `Partition`-per-probe
    /// implementation. A repaired climb returns different partitions
    /// here and must re-pin them on purpose.
    #[test]
    fn four_thread_hill_climb_is_pinned_quirk_included() {
        let (f, profile) = two_independent_loops();
        let pdg = Pdg::build(&f);
        let config = GremioConfig { num_threads: 4 };
        let got: Vec<(u64, Vec<u32>)> = candidates(&f, &pdg, &profile, &config)
            .unwrap()
            .iter()
            .map(|(s, p)| (*s, f.all_instrs().map(|i| p.thread_of(i).0).collect()))
            .collect();
        let pinned: [(u64, [u32; 24]); 5] = [
            (1152, [1, 0, 3, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 3, 3, 3, 3, 3, 3, 3, 3, 0, 3, 0]),
            (1216, [2, 2, 2, 2, 2, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0]),
            (1024, [2, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 2, 2, 2]),
            (1024, [2, 1, 3, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 3, 3, 3, 3, 3, 3, 3, 3, 0, 0, 0]),
            (2048, [0; 24]),
        ];
        assert_eq!(got.len(), pinned.len());
        for ((score, threads), (pinned_score, pinned_threads)) in got.iter().zip(&pinned) {
            assert_eq!((*score, &threads[..]), (*pinned_score, &pinned_threads[..]));
        }
    }

    /// The threads' bounds only skip probes the climb would have
    /// rejected: with pruning disabled every candidate and score is the
    /// same. No scored probe, pruning on or off, scores below its bound.
    /// And there is one model: [`crate::thread_loads`] of every
    /// candidate peaks at the score the search reports for it.
    #[test]
    fn pruning_never_changes_the_candidates() {
        crate::testutil::for_catalog_and_generated("gremio::pruning", |f, pdg, profile, n| {
            let config = GremioConfig { num_threads: n };
            let (pruned, pruned_below) = search(f, pdg, profile, &config, true);
            let (exhaustive, exhaustive_below) = search(f, pdg, profile, &config, false);
            gmt_testkit::prop_assert_eq!(pruned, exhaustive);
            gmt_testkit::prop_assert_eq!((pruned_below, exhaustive_below), (0, 0));
            for (score, candidate) in pruned.iter().flatten() {
                let peak = crate::testutil::peak_load(f, pdg, profile, candidate)?;
                gmt_testkit::prop_assert_eq!(peak, *score);
            }
            Ok(())
        });
    }

    /// The bound law above can fail: a joining thread's bound that
    /// overcharges the consumer side comes out above some probe's score.
    #[test]
    fn an_overestimating_thread_bound_is_caught() {
        let search =
            |f: &Function, pdg: &Pdg, weights: &InstrWeights, model: &CostModel, n, prune| {
                let config = GremioConfig { num_threads: n };
                super::search_model(f, pdg, weights, model, &config, prune)
                    .map_or_else(|_| SearchWork::default(), |(_, w)| w)
            };
        let caught = crate::testutil::caught(search, crate::cost::tests::overcharge_consumers);
        assert!(caught > 0, "no case distinguished the tampered bound");
    }

    /// Probes scored and skipped by the bound, summed over the 11
    /// catalog kernels at N = 2, 3, 4: a change to what the search
    /// scores or prunes moves them.
    #[test]
    fn search_work_is_pinned_on_the_catalog() {
        let work = crate::testutil::catalog_work(|f, pdg, profile, n| {
            super::search(f, pdg, profile, &GremioConfig { num_threads: n }, true).map(|(_, w)| w)
        });
        assert_eq!(work, [(2, 1403, 1070), (3, 1826, 1808), (4, 2711, 2620)]);
    }
}
