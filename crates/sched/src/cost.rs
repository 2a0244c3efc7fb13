//! The partitioners' shared cost model, compiled once per search, and
//! the live assignment both searches score by delta.
//!
//! Both partitioners rank candidates by a steady-state *throughput*
//! score: every thread's dynamic load is its computation plus the
//! communication instructions it must execute — produce/consume pairs
//! for its cross-thread dependences (at the cheapest point on each
//! def→use path, i.e. assuming COCO-quality placement) and the
//! operand-consume + duplicated branch for every foreign branch its
//! *own instructions* make relevant (a cost no placement can remove).
//! The score is the heaviest thread's load: queue decoupling hides
//! communication latency, so occupancy — not latency — is what bounds
//! pipeline throughput.
//!
//! That premise was measured by simulating the figures' programs again
//! with only the synchronization array's latency raised from 1 to 64
//! cycles (ROADMAP item 17's table). It holds for DSWP, whose 22
//! programs slow by at most 0.73 %, and fails for GREMIO, whose
//! programs slow by up to 575 %: a queue that closes a cross-thread
//! cycle pays its latency on every trip. DSWP's half is pinned
//! statically: every queue of a DSWP program goes forward in stage
//! order (`tests/pipeline_invariants.rs` on the kernels, the fuzz
//! oracle on every DSWP case), so no queue closes a cycle.
//!
//! [`thread_loads`] is the one public view of the model: the per-thread
//! loads of a given partition, whose maximum is the score the searches
//! rank by. `repro --explain` prints them as its static estimate, so
//! the estimate it joins against the measured run is the model the
//! partitioner optimised, not a second one.
//!
//! A search probes thousands of assignments of one function, each a
//! small move away from the last. Everything that does not depend on
//! the assignment is computed once into the flat arrays of
//! [`CostModel`]; [`Live`] holds one assignment with its per-thread
//! loads and re-costs only what a move touches. Communication only ever
//! *adds* to a thread's load, so the heaviest thread's pure compute
//! weight is an exact lower bound on the score — the searches use it to
//! skip candidates that cannot beat their incumbent.
//!
//! Every subtraction in [`Live`] takes off a charge an earlier addition
//! put on, so in a debug build (overflow checks on) the unit tests below
//! are also an underflow detector: taking off a charge that was never
//! made panics there.

use crate::weights::InstrWeights;
use gmt_ir::{Function, InstrId, Profile};
use gmt_pdg::{Partition, Pdg, ThreadId};

/// Estimated one-way communication latency in cycles: the
/// synchronization-array access latency of Figure 6a's machine, which
/// both partitioners assume.
pub(crate) const COMM_LATENCY: u64 = 1;

/// `branch_of` entry of an instruction that is not a controlling branch.
const NOT_A_BRANCH: u32 = u32::MAX;

/// The assignment-independent half of the score, in flat arrays. The
/// per-instruction tables are indexed by [`gmt_ir::InstrId::index`].
pub(crate) struct CostModel {
    /// The placed instructions.
    placed: Vec<u32>,
    /// Compute weight of each instruction.
    weight: Vec<u64>,
    /// Block index of each instruction.
    block_of: Vec<u32>,
    /// Index into `branches` of each instruction, or [`NOT_A_BRANCH`].
    branch_of: Vec<u32>,
    /// PDG arcs as `(dst, occupancy)`, one per `(src, dst)` pair,
    /// self-arcs dropped, grouped by source: the arcs out of `i` are
    /// `arcs[out[i]..out[i + 1]]`. The occupancy is what either end pays
    /// when the arc is the costliest one from `src` into `dst`'s thread.
    arcs: Vec<(u32, u64)>,
    out: Vec<u32>,
    /// The sources with an arc into `i`: `preds[pred_start[i]..pred_start[i + 1]]`.
    preds: Vec<u32>,
    pred_start: Vec<u32>,
    /// Every branch some block is control dependent on, as
    /// `(instruction index, occupancy of one replicated copy)`.
    branches: Vec<(u32, u64)>,
    /// Per block, the set of `branches` (a bitset row of `words` words)
    /// that owning an instruction of the block makes relevant: the
    /// block's row of the PDG's control-dependence closure.
    relevant: Vec<u64>,
    words: usize,
    num_blocks: usize,
}

/// Start offsets of a list sorted by `keys` (each below `n`): the
/// entries with key `k` are `start[k]..start[k + 1]`.
fn offsets(n: usize, keys: impl Iterator<Item = u32>) -> Vec<u32> {
    let mut start = vec![0u32; n + 1];
    for k in keys {
        start[k as usize + 1] += 1;
    }
    for k in 0..n {
        start[k + 1] += start[k];
    }
    start
}

impl CostModel {
    pub(crate) fn new(
        f: &Function,
        pdg: &Pdg,
        weights: &InstrWeights,
        comm_latency: u64,
    ) -> CostModel {
        let lat = comm_latency.max(1);
        let n = f.num_instrs();
        let mut weight = vec![0u64; n];
        let mut block_of = vec![0u32; n];
        for i in f.all_instrs() {
            weight[i.index()] = weights.weight(i);
            block_of[i.index()] = f.block_of(i).0;
        }

        let mut arcs: Vec<(u32, u32, u64)> = pdg
            .deps()
            .iter()
            .filter(|d| d.src != d.dst)
            .map(|d| {
                let count = weights.exec_count(d.src).min(weights.exec_count(d.dst));
                (d.src.0, d.dst.0, count.max(1) * lat)
            })
            .collect();
        arcs.sort_unstable();
        arcs.dedup();
        let out = offsets(n, arcs.iter().map(|a| a.0));
        let mut into: Vec<(u32, u32)> = arcs.iter().map(|&(s, d, _)| (d, s)).collect();
        into.sort_unstable();
        let pred_start = offsets(n, into.iter().map(|a| a.0));

        let cdeps = pdg.control_deps();
        let relevant = f.blocks().flat_map(|b| cdeps.closure_row(b)).copied().collect();
        let mut branch_of = vec![NOT_A_BRANCH; n];
        let branches = (0u32..)
            .zip(cdeps.branches())
            .map(|(k, &br)| {
                branch_of[br.index()] = k;
                (br.0, weights.exec_count(br).max(1) * lat)
            })
            .collect();
        CostModel {
            placed: f.all_instrs().map(|i| i.0).collect(),
            weight,
            block_of,
            branch_of,
            arcs: arcs.into_iter().map(|(_, d, c)| (d, c)).collect(),
            out,
            preds: into.into_iter().map(|(_, s)| s).collect(),
            pred_start,
            branches,
            relevant,
            words: cdeps.branches().len().div_ceil(64),
            num_blocks: f.num_blocks(),
        }
    }

    /// Compute weight of the instruction with index `i`.
    pub(crate) fn weight(&self, i: usize) -> u64 {
        self.weight[i]
    }

    /// The index in `branches` of instruction `i`, if it is one.
    fn branch(&self, i: usize) -> Option<usize> {
        let k = self.branch_of[i];
        (k != NOT_A_BRANCH).then_some(k as usize)
    }
}

/// One assignment of a [`CostModel`]'s function to `nt` threads, with
/// every thread's load kept current across moves.
///
/// A thread's load is its compute weight plus two kinds of charge,
/// each on exactly while its condition holds:
/// - *pair charges*: source `s` charges `site[s][td]` to its own thread
///   and to `td`, the costliest arc from `s` into `td ≠ thread(s)`;
/// - *replication charges*: thread `u` pays `2c` and the owner `c` for
///   branch `k` while `refs[u][k] > 0` and the owner is not `u`.
///
/// The counts behind the second condition are `in_block`, the
/// instructions per `(thread, block)`, and `refs`, per
/// `(thread, branch)` the blocks with `in_block > 0` whose closure row
/// holds the branch.
///
/// [`Live::move_to`] takes off every charge the move can change, moves,
/// and puts them back on from the new assignment, so the loads — and
/// [`Live::score`] — equal a from-scratch evaluation bit for bit: every
/// term is an exact `u64` and addition does not care about order.
pub(crate) struct Live<'m> {
    model: &'m CostModel,
    nt: usize,
    thread_of: Vec<u32>,
    load: Vec<u64>,
    /// Per `(thread, block)`, row-major by thread.
    in_block: Vec<u32>,
    /// Per `(thread, branch)`, row-major by thread.
    refs: Vec<u32>,
    /// Per `(source, thread)`: the pair charge last made, row-major by
    /// source; all zero while the source's charges are off.
    site: Vec<u64>,
    /// Sources whose pair charges the move in progress took off, and a
    /// flag per source for the same set.
    off: Vec<usize>,
    is_off: Vec<bool>,
    /// Per branch: the move in progress took its replication charges
    /// off, because it moves the branch to another owner.
    detached: Vec<bool>,
}

impl<'m> Live<'m> {
    /// The assignment `thread_of` (every placed instruction on a thread
    /// below `nt`) with all its charges on.
    pub(crate) fn new(model: &'m CostModel, thread_of: Vec<u32>, nt: usize) -> Live<'m> {
        let n = thread_of.len();
        let mut live = Live {
            model,
            nt,
            thread_of,
            load: vec![0; nt],
            in_block: vec![0; nt * model.num_blocks],
            refs: vec![0; nt * model.branches.len()],
            site: vec![0; n * nt],
            off: Vec::new(),
            is_off: vec![false; n],
            detached: vec![false; model.branches.len()],
        };
        for &i in &model.placed {
            let t = live.thread_of[i as usize];
            live.load[t as usize] += model.weight[i as usize];
            live.enter(t, model.block_of[i as usize]);
        }
        for s in 0..n {
            live.charge(s);
        }
        live
    }

    /// The heaviest thread's compute weight plus communication occupancy.
    pub(crate) fn score(&self) -> u64 {
        self.load.iter().copied().max().unwrap_or(0)
    }

    /// The thread of every instruction, by index.
    pub(crate) fn thread_of(&self) -> &[u32] {
        &self.thread_of
    }

    /// Moves `members` (instruction indices) to thread `t`; members
    /// already there stay.
    pub(crate) fn move_to(&mut self, members: &[usize], t: u32) {
        let m = self.model;
        // A move changes the pairs of the movers as sources and of every
        // source with an arc into a mover, and the owner of a moving
        // branch: take those charges off first.
        for &i in members {
            if self.thread_of[i] == t {
                continue;
            }
            self.uncharge(i);
            for &s in &m.preds[m.pred_start[i] as usize..m.pred_start[i + 1] as usize] {
                self.uncharge(s as usize);
            }
            if let Some(k) = m.branch(i) {
                if !self.detached[k] {
                    self.replicate(k, false);
                    self.detached[k] = true;
                }
            }
        }
        for &i in members {
            let from = self.thread_of[i];
            if from == t {
                continue;
            }
            let (w, b) = (m.weight[i], m.block_of[i]);
            self.load[from as usize] -= w;
            self.leave(from, b);
            self.thread_of[i] = t;
            self.load[t as usize] += w;
            self.enter(t, b);
        }
        for &i in members {
            if let Some(k) = m.branch(i) {
                if self.detached[k] {
                    self.detached[k] = false;
                    self.replicate(k, true);
                }
            }
        }
        while let Some(s) = self.off.pop() {
            self.charge(s);
        }
    }

    /// Puts source `s`'s pair charges on: one pair per foreign thread at
    /// the costliest arc into it.
    fn charge(&mut self, s: usize) {
        let m = self.model;
        self.is_off[s] = false;
        let ts = self.thread_of[s] as usize;
        let site = &mut self.site[s * self.nt..][..self.nt];
        for &(d, c) in &m.arcs[m.out[s] as usize..m.out[s + 1] as usize] {
            let td = self.thread_of[d as usize] as usize;
            if td != ts {
                site[td] = site[td].max(c);
            }
        }
        for (td, &c) in site.iter().enumerate() {
            self.load[ts] += c;
            self.load[td] += c;
        }
    }

    /// Takes source `s`'s pair charges off until the move in progress
    /// ends; a source without arcs has none.
    fn uncharge(&mut self, s: usize) {
        let m = self.model;
        if self.is_off[s] || m.out[s] == m.out[s + 1] {
            return;
        }
        self.is_off[s] = true;
        self.off.push(s);
        let ts = self.thread_of[s] as usize;
        for (td, c) in self.site[s * self.nt..][..self.nt].iter_mut().enumerate() {
            let c = std::mem::take(c);
            self.load[ts] -= c;
            self.load[td] -= c;
        }
    }

    /// One more instruction of block `b` on thread `t`.
    fn enter(&mut self, t: u32, b: u32) {
        let count = &mut self.in_block[t as usize * self.model.num_blocks + b as usize];
        *count += 1;
        if *count == 1 {
            self.count_row(t as usize, b as usize, true);
        }
    }

    /// One instruction of block `b` fewer on thread `t`.
    fn leave(&mut self, t: u32, b: u32) {
        let count = &mut self.in_block[t as usize * self.model.num_blocks + b as usize];
        *count -= 1;
        if *count == 0 {
            self.count_row(t as usize, b as usize, false);
        }
    }

    /// Counts block `b`'s closure row in (`on`) or out of thread `t`'s
    /// references; a branch whose count crosses zero gains or loses its
    /// replication charge in `t`.
    fn count_row(&mut self, t: usize, b: usize, on: bool) {
        let m = self.model;
        let nb = m.branches.len();
        for (w, &row) in m.relevant[b * m.words..][..m.words].iter().enumerate() {
            let mut bits = row;
            while bits != 0 {
                let k = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let r = &mut self.refs[t * nb + k];
                let crossed = if on {
                    *r += 1;
                    *r == 1
                } else {
                    *r -= 1;
                    *r == 0
                };
                if crossed && !self.detached[k] {
                    self.replica(k, t, on);
                }
            }
        }
    }

    /// Puts on (`on`) or takes off branch `k`'s replication charge in
    /// every thread that references it.
    fn replicate(&mut self, k: usize, on: bool) {
        let nb = self.model.branches.len();
        for u in 0..self.nt {
            if self.refs[u * nb + k] > 0 {
                self.replica(k, u, on);
            }
        }
    }

    /// Puts on (`on`) or takes off branch `k`'s replication charge in
    /// thread `u`: the operand consume and the duplicated branch on `u`,
    /// the produce on the owner. Nothing when `u` owns the branch.
    fn replica(&mut self, k: usize, u: usize, on: bool) {
        let (br, c) = self.model.branches[k];
        let owner = self.thread_of[br as usize] as usize;
        if owner == u {
            return;
        }
        if on {
            self.load[u] += 2 * c;
            self.load[owner] += c;
        } else {
            self.load[u] -= 2 * c;
            self.load[owner] -= c;
        }
    }
}

/// What one partitioner search did: candidates scored, and candidates
/// the compute-weight bound skipped unscored.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct SearchWork {
    pub(crate) scored: u64,
    pub(crate) pruned: u64,
}

/// Every thread's load under the model both partitioners search: the
/// compute weight of `partition`'s threads under `profile`, plus the
/// communication occupancy the assignment induces. The largest entry is
/// the score DSWP's search minimises and [`crate::gremio::candidates`]
/// ranks by; `repro --explain` prints the entries as its `est` column.
///
/// # Errors
///
/// The first instruction of `f` that `partition` leaves unassigned, as
/// [`Partition::validate`] reports it.
pub fn thread_loads(
    f: &Function,
    pdg: &Pdg,
    profile: &Profile,
    partition: &Partition,
) -> Result<Vec<u64>, InstrId> {
    let mut thread_of = vec![0u32; f.num_instrs()];
    for i in f.all_instrs() {
        thread_of[i.index()] = partition.get(i).ok_or(i)?.0;
    }
    let weights = InstrWeights::compute(f, &profile.block_weights(f));
    let model = CostModel::new(f, pdg, &weights, COMM_LATENCY);
    Ok(Live::new(&model, thread_of, partition.num_threads() as usize).load)
}

/// Materialises a dense assignment (indexed by
/// [`gmt_ir::InstrId::index`]) of `pdg`'s instructions as a
/// [`Partition`] over `num_threads` threads.
pub(crate) fn to_partition(pdg: &Pdg, thread_of: &[u32], num_threads: u32) -> Partition {
    let mut p = Partition::new(num_threads);
    for &i in pdg.nodes() {
        p.assign(i, ThreadId(thread_of[i.index()]));
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmt_fuzz::ast::{compile, fprogram_gen, seeded_partition, FStmt};
    use gmt_ir::interp::{run, ExecConfig};
    use gmt_testkit::{full_u64, prop_assert_eq, ranged, Checker, Gen, TestRng};
    use std::collections::{BTreeSet, HashMap};

    /// The score as both partitioners computed it before the model
    /// existed, walking a `Partition` through hash maps and recomputing
    /// the control-dependence closure per thread. Kept as the reference
    /// the live score is checked against.
    fn score(
        f: &Function,
        pdg: &Pdg,
        weights: &InstrWeights,
        partition: &Partition,
        comm_latency: u64,
    ) -> u64 {
        let cdeps = pdg.control_deps();
        let mut load = partition.dynamic_sizes(|i| weights.weight(i));
        let lat = comm_latency.max(1);

        // Communication pairs: cheapest-point estimate per (src, target).
        let mut best_site: HashMap<(gmt_ir::InstrId, u32), u64> = HashMap::new();
        for d in pdg.deps() {
            let (s, t) = (partition.thread_of(d.src), partition.thread_of(d.dst));
            if s == t {
                continue;
            }
            let cost = weights
                .exec_count(d.src)
                .min(weights.exec_count(d.dst))
                .max(1);
            best_site
                .entry((d.src, t.0))
                .and_modify(|c| *c = (*c).max(cost))
                .or_insert(cost);
        }
        for (&(src, t), &c) in &best_site {
            load[partition.thread_of(src).index()] += c * lat;
            load[t as usize] += c * lat;
        }

        // Intrinsic control replication per thread.
        for t_idx in 0..partition.num_threads() as usize {
            let t = ThreadId(t_idx as u32);
            let mut need = vec![false; f.num_blocks()];
            for i in f.all_instrs() {
                if partition.thread_of(i) == t {
                    need[f.block_of(i).index()] = true;
                }
            }
            let mut relevant: BTreeSet<gmt_ir::InstrId> = BTreeSet::new();
            let mut work: Vec<gmt_ir::BlockId> = f.blocks().filter(|b| need[b.index()]).collect();
            while let Some(b) = work.pop() {
                for cd in cdeps.of_block(b) {
                    if relevant.insert(cd.branch) {
                        let bb = f.block_of(cd.branch);
                        if !need[bb.index()] {
                            need[bb.index()] = true;
                            work.push(bb);
                        }
                    }
                }
            }
            for br in relevant {
                if partition.thread_of(br) != t {
                    let c = weights.exec_count(br).max(1) * lat;
                    load[t_idx] += 2 * c;
                    load[partition.thread_of(br).index()] += c;
                }
            }
        }
        load.into_iter().max().unwrap_or(0)
    }

    /// A generated function, the seed of a random assignment and of the
    /// moves applied to it, and raw `(threads, idle, latency)` draws: the
    /// assignment spans N = `1 + threads % 4` threads of which the last
    /// `idle % N` start with nothing. Decoded in [`scores`] so every
    /// shrunken case stays legal.
    type Case = (Vec<FStmt>, u64, (u32, u32, u64));

    fn case_gen() -> Gen<Case> {
        let shape = ranged(0u32, 4).zip(ranged(0u32, 4)).zip(ranged(0u64, 4));
        fprogram_gen()
            .zip(full_u64())
            .zip(shape)
            .map(|((p, seed), ((threads, idle), lat))| (p, seed, (threads, idle, lat)))
    }

    /// Moves applied per case, after the initial assignment.
    const MOVES: usize = 40;

    /// `(reference score, live score)` of one case's initial assignment
    /// and after each of [`MOVES`] seeded moves of 1–4 instructions to a
    /// thread below N, with `tamper` applied to the model first.
    fn scores(
        (program, seed, (threads, idle, lat)): &Case,
        tamper: impl Fn(&mut CostModel),
    ) -> Vec<(u64, u64)> {
        let n = 1 + threads % 4;
        let used = n - idle % n;
        let f = compile(program).expect("generated program verifies");
        let profile = run(
            &f,
            &[],
            &ExecConfig {
                max_steps: 5_000_000,
            },
        )
        .expect("sequential run")
        .profile;
        let pdg = Pdg::build(&f);
        let weights = InstrWeights::compute(&f, &profile.block_weights(&f));

        let narrow = seeded_partition(&f, used, *seed);
        let mut partition = Partition::new(n);
        let mut thread_of = vec![0u32; f.num_instrs()];
        for i in f.all_instrs() {
            partition.assign(i, narrow.thread_of(i));
            thread_of[i.index()] = narrow.thread_of(i).0;
        }

        let mut model = CostModel::new(&f, &pdg, &weights, *lat);
        tamper(&mut model);
        let mut live = Live::new(&model, thread_of, n as usize);
        let mut out = vec![(score(&f, &pdg, &weights, &partition, *lat), live.score())];
        let instrs: Vec<gmt_ir::InstrId> = f.all_instrs().collect();
        let mut rng = TestRng::new(*seed);
        for _ in 0..MOVES {
            let members: Vec<gmt_ir::InstrId> = (0..rng.range_usize(1, 5))
                .map(|_| instrs[rng.range_usize(0, instrs.len())])
                .collect();
            let t = rng.range_u64(0, u64::from(n)) as u32;
            for &i in &members {
                partition.assign(i, ThreadId(t));
            }
            live.move_to(&members.iter().map(|i| i.index()).collect::<Vec<_>>(), t);
            out.push((score(&f, &pdg, &weights, &partition, *lat), live.score()));
        }
        out
    }

    #[test]
    fn model_matches_the_partition_walking_reference() {
        Checker::new("cost::model_matches_reference")
            .cases(256)
            .run(&case_gen(), |case| {
                for (step, (reference, live)) in scores(case, |_| {}).into_iter().enumerate() {
                    prop_assert_eq!((step, live), (step, reference));
                }
                Ok(())
            });
    }

    /// How many of 64 seeded cases a tampered model disagrees with the
    /// reference on, at some step.
    fn caught(tamper: impl Fn(&mut CostModel)) -> usize {
        let gen = case_gen();
        (0..64u64)
            .filter(|&seed| {
                let case = gen.sample(&mut TestRng::new(seed));
                scores(&case, &tamper)
                    .iter()
                    .any(|(reference, live)| live != reference)
            })
            .count()
    }

    /// The oracle above can fail: a model that forgets the
    /// branch-replication term disagrees with the reference.
    #[test]
    fn a_model_without_branch_replication_is_caught() {
        assert!(
            caught(|m| m.relevant.fill(0)) > 0,
            "no case distinguished the tampered model"
        );
    }

    /// ... and so can a live score that re-costs only the movers' own
    /// arcs, not those of the sources with an arc into a mover.
    #[test]
    fn a_live_score_without_in_arc_recharges_is_caught() {
        assert!(
            caught(|m| m.pred_start.fill(0)) > 0,
            "no case distinguished the tampered model"
        );
    }

    /// `thread_loads` names the first unassigned instruction instead of
    /// panicking, and gives a total partition one load per thread, an
    /// idle thread included.
    #[test]
    fn thread_loads_names_an_unassigned_instruction() {
        let mut b = gmt_ir::FunctionBuilder::new("f");
        let x = b.param();
        let y = b.bin(gmt_ir::BinOp::Mul, x, 3i64);
        b.output(y);
        b.ret(None);
        let f = b.finish().unwrap();
        let (pdg, profile) = (Pdg::build(&f), Profile::uniform(&f, 10));
        let instrs: Vec<InstrId> = f.all_instrs().collect();
        let mut partition = Partition::new(2);
        for &i in &instrs[1..] {
            partition.assign(i, ThreadId(0));
        }
        assert_eq!(thread_loads(&f, &pdg, &profile, &partition), Err(instrs[0]));
        partition.assign(instrs[0], ThreadId(0));
        let weights = InstrWeights::compute(&f, &profile.block_weights(&f));
        let compute = instrs.iter().map(|&i| weights.weight(i)).sum::<u64>();
        assert_eq!(thread_loads(&f, &pdg, &profile, &partition), Ok(vec![compute, 0]));
    }
}
