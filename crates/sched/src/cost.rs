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
//! loads and re-costs only what a move touches.
//!
//! Both searches skip candidates that cannot beat their incumbent by one
//! lower bound on a thread's load, [`Live::bound`], that depends only on
//! the instructions the thread holds: its compute weight, the pair
//! charges it pays as a consumer (exact), for each of its own sources
//! the costliest arc that leaves the thread (the load charges the sum
//! over foreign threads, which is no less), and the replication charges
//! it pays as a consumer (exact; the owner side is left out). A
//! candidate whose heaviest bound reaches the incumbent's score scores
//! at least that much, so it cannot win the searches' strict `<`.
//! DSWP reads the bound of each stage from [`StageBounds`], GREMIO the
//! bound of a thread a cluster joins from [`Live::bound_joined`].
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
    /// The same arcs as `(src, occupancy)`, grouped by destination: the
    /// arcs into `i` are `preds[pred_start[i]..pred_start[i + 1]]`.
    preds: Vec<(u32, u64)>,
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
        let mut into: Vec<(u32, u32, u64)> = arcs.iter().map(|&(s, d, c)| (d, s, c)).collect();
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
            preds: into.into_iter().map(|(_, s, c)| (s, c)).collect(),
            pred_start,
            branches,
            relevant,
            words: cdeps.branches().len().div_ceil(64),
            num_blocks: f.num_blocks(),
        }
    }

    /// The index in `branches` of instruction `i`, if it is one.
    fn branch(&self, i: usize) -> Option<usize> {
        let k = self.branch_of[i];
        (k != NOT_A_BRANCH).then_some(k as usize)
    }

    /// The arcs out of instruction `i`, as `(dst, occupancy)`.
    fn arcs_from(&self, i: usize) -> &[(u32, u64)] {
        &self.arcs[self.out[i] as usize..self.out[i + 1] as usize]
    }

    /// The arcs into instruction `i`, as `(src, occupancy)`.
    fn arcs_into(&self, i: usize) -> &[(u32, u64)] {
        &self.preds[self.pred_start[i] as usize..self.pred_start[i + 1] as usize]
    }

    /// Block `b`'s row of the control-dependence closure, as a bitset
    /// over `branches`.
    fn relevant_row(&self, b: u32) -> &[u64] {
        &self.relevant[b as usize * self.words..][..self.words]
    }

    /// What moving each cluster of `members` onto another thread does to
    /// that thread's bound, read from the cluster's own arcs, for
    /// [`Live::bound_joined`]. `cluster_of` gives the cluster of each
    /// member instruction (by index).
    pub(crate) fn joinings(&self, members: &[Vec<usize>], cluster_of: Vec<u32>) -> Joinings {
        let mut j = Joinings {
            weight: Vec::with_capacity(members.len()),
            ceiling: Vec::with_capacity(members.len()),
            feeders: Vec::new(),
            branches: Vec::new(),
            start: Vec::with_capacity(members.len() + 1),
            relevant: vec![0; members.len() * self.words],
            words: self.words,
            cluster_of,
        };
        let mut costliest = vec![0u64; self.weight.len()];
        let mut seen_block = vec![false; self.num_blocks];
        j.start.push((0, 0));
        for (cluster, c) in members.iter().zip(0usize..) {
            let (feeders, branches) = (j.feeders.len(), j.branches.len());
            let relevant = &mut j.relevant[c * self.words..][..self.words];
            let (mut weight, mut ceiling) = (0, 0);
            for &i in cluster {
                weight += self.weight[i];
                for &(s, cost) in self.arcs_into(i) {
                    if j.cluster_of[s as usize] as usize != c {
                        let best = &mut costliest[s as usize];
                        if *best == 0 {
                            j.feeders.push((s, 0));
                        }
                        *best = (*best).max(cost);
                    }
                }
                ceiling += self.arcs_from(i).iter().map(|&(_, cost)| cost).max().unwrap_or(0);
                let b = self.block_of[i];
                if !std::mem::replace(&mut seen_block[b as usize], true) {
                    for (w, &row) in relevant.iter_mut().zip(self.relevant_row(b)) {
                        *w |= row;
                    }
                }
                if let Some(k) = self.branch(i) {
                    j.branches.push(k as u32);
                }
            }
            for (s, best) in &mut j.feeders[feeders..] {
                *best = std::mem::take(&mut costliest[*s as usize]);
                ceiling += *best;
            }
            for &i in cluster {
                seen_block[self.block_of[i] as usize] = false;
            }
            for &k in &j.branches[branches..] {
                relevant[k as usize / 64] &= !(1 << (k % 64));
            }
            for (w, &row) in relevant.iter().enumerate() {
                let mut bits = row;
                while bits != 0 {
                    ceiling += 2 * self.branches[w * 64 + bits.trailing_zeros() as usize].1;
                    bits &= bits - 1;
                }
            }
            j.weight.push(weight);
            j.ceiling.push(weight + ceiling);
            j.start.push((j.feeders.len() as u32, j.branches.len() as u32));
        }
        j
    }
}

/// Per cluster of a clustering, what [`Live::bound_joined`] reads: what
/// the cluster brings to any thread it joins, independent of the
/// assignment. Cluster `c`'s entries of the lists lie between
/// `start[c]` and `start[c + 1]`.
pub(crate) struct Joinings {
    /// The members' compute weight.
    weight: Vec<u64>,
    /// The most the cluster can add to the bound of a thread it joins.
    ceiling: Vec<u64>,
    /// Every source outside the cluster with an arc into it, with the
    /// costliest such arc.
    feeders: Vec<(u32, u64)>,
    /// The cluster's own branches, as indices into `branches`.
    branches: Vec<u32>,
    /// Where each cluster's `feeders` and `branches` start.
    start: Vec<(u32, u32)>,
    /// The branches the members' blocks make relevant, less the
    /// cluster's own, as a bitset row of `words` words per cluster.
    relevant: Vec<u64>,
    words: usize,
    /// The cluster of each clustered instruction, by index.
    cluster_of: Vec<u32>,
}

impl Joinings {
    /// The most cluster `c` can add to the bound of a thread it joins.
    pub(crate) fn ceiling(&self, c: usize) -> u64 {
        self.ceiling[c]
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
    /// Per thread, the part of its load [`Live::bound`] leaves out: the
    /// owner side of replication, and for each of its sources the pair
    /// charges beyond the costliest.
    slack: Vec<u64>,
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
            slack: vec![0; nt],
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

    /// A lower bound on thread `t`'s load that depends only on the
    /// instructions `t` holds (see the module docs): its load less its
    /// slack.
    pub(crate) fn bound(&self, t: usize) -> u64 {
        self.load[t] - self.slack[t]
    }

    /// [`Live::bound`] of thread `t` once cluster `c` of `j` joins it, or
    /// a lower bound on it: the cluster is on a thread `l`
    /// other than `t`, every other instruction where it will be after
    /// the move. Only the cluster's own arcs are read, so one charge is
    /// under-counted: a source on `t` that feeds the cluster and also
    /// feeds the rest of `l` keeps only its arcs to threads other than
    /// `t` and `l`.
    pub(crate) fn bound_joined(
        &self,
        j: &Joinings,
        c: usize,
        members: &[usize],
        t: usize,
        l: usize,
    ) -> u64 {
        let m = self.model;
        let nt = self.nt;
        let site = |s: u32| &self.site[s as usize * nt..][..nt];
        let (from, to) = (j.start[c], j.start[c + 1]);
        let (mut gain, mut loss) = (j.weight[c], 0);
        for &(s, into_cluster) in &j.feeders[from.0 as usize..to.0 as usize] {
            let row = site(s);
            if self.thread_of[s as usize] as usize != t {
                // `t` consumes `s` at its costliest arc into `t` or the
                // cluster.
                gain += into_cluster.saturating_sub(row[t]);
            } else {
                // `s` produces on `t`: its arcs into the cluster stop
                // leaving `t`.
                let leaving = |skip: usize| {
                    (0..nt).filter(|&u| u != t && u != skip).map(|u| row[u]).max().unwrap_or(0)
                };
                loss += leaving(t) - leaving(l);
            }
        }
        for &i in members {
            // A member stops being a source `t` consumes and becomes
            // one it produces from.
            loss += site(i as u32)[t];
            gain += m
                .arcs_from(i)
                .iter()
                .filter(|&&(d, _)| {
                    j.cluster_of[d as usize] as usize != c
                        && self.thread_of[d as usize] as usize != t
                })
                .map(|&(_, cost)| cost)
                .max()
                .unwrap_or(0);
        }
        let refs = &self.refs[t * m.branches.len()..][..m.branches.len()];
        for (w, &row) in j.relevant[c * j.words..][..j.words].iter().enumerate() {
            let mut bits = row;
            while bits != 0 {
                let k = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let (br, c) = m.branches[k];
                if refs[k] == 0 && self.thread_of[br as usize] as usize != t {
                    gain += 2 * c;
                }
            }
        }
        for &k in &j.branches[from.1 as usize..to.1 as usize] {
            if refs[k as usize] > 0 {
                loss += 2 * m.branches[k as usize].1;
            }
        }
        self.bound(t) + gain - loss
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
            for &(s, _) in m.arcs_into(i) {
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
        for &(d, c) in m.arcs_from(s) {
            let td = self.thread_of[d as usize] as usize;
            if td != ts {
                site[td] = site[td].max(c);
            }
        }
        let (mut sum, mut max) = (0, 0);
        for (td, &c) in site.iter().enumerate() {
            self.load[ts] += c;
            self.load[td] += c;
            sum += c;
            max = max.max(c);
        }
        self.slack[ts] += sum - max;
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
        let (mut sum, mut max) = (0, 0);
        for (td, c) in self.site[s * self.nt..][..self.nt].iter_mut().enumerate() {
            let c = std::mem::take(c);
            self.load[ts] -= c;
            self.load[td] -= c;
            sum += c;
            max = max.max(c);
        }
        self.slack[ts] -= sum - max;
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
        for (w, &row) in m.relevant_row(b as u32).iter().enumerate() {
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
            self.slack[owner] += c;
        } else {
            self.load[u] -= 2 * c;
            self.load[owner] -= c;
            self.slack[owner] -= c;
        }
    }
}

/// [`Live::bound`] of every stage a pipeline search can form: a run of
/// consecutive clusters of an order in which every arc between two
/// clusters runs forward, as it does when clusters are unions of SCCs
/// laid out in topological order. The bound depends only on the
/// instructions a thread holds, so a stage's bound depends only on its
/// cluster range, and a range's bound is computed once: the stages that
/// end the order in one backward sweep, the first time one is asked
/// for; the other stages that start at cluster `a` in one forward sweep,
/// the first time one of them is asked for.
pub(crate) struct StageBounds<'m> {
    model: &'m CostModel,
    order: &'m [usize],
    /// The position in `order` of each instruction, by index.
    pos: Vec<u32>,
    /// Where each cluster starts in `order`, and a trailing `order.len()`.
    starts: &'m [usize],
    /// Per first cluster `a`, once swept: the bounds of the stages `a..b`
    /// for `b` in `a + 1..clusters`.
    rows: Vec<Vec<u64>>,
    /// Per first cluster, once swept: the bound of the stage that runs to
    /// the end of the order.
    last: Vec<u64>,
    /// Per source outside the run being swept, its costliest arc into
    /// the run; zero for every other instruction between sweeps.
    costliest: Vec<u64>,
    /// Per source inside the run being swept, its costliest arc out of
    /// the run.
    leaving: Vec<u64>,
    /// Per instruction and per block, the step that last visited it.
    mark: Vec<u32>,
    block_mark: Vec<u32>,
    step: u32,
    /// The branches the run's blocks make relevant, as a bitset.
    refset: Vec<u64>,
}

impl<'m> StageBounds<'m> {
    /// The table for stages over `order`, which holds each instruction at
    /// most once, cut into clusters: cluster `c` is
    /// `order[starts[c]..starts[c + 1]]`, and the last entry of `starts`
    /// is `order.len()`.
    pub(crate) fn new(model: &'m CostModel, order: &'m [usize], starts: &'m [usize]) -> Self {
        let n = model.weight.len();
        let mut pos = vec![u32::MAX; n];
        for (p, &i) in (0u32..).zip(order) {
            pos[i] = p;
        }
        StageBounds {
            model,
            order,
            pos,
            starts,
            rows: vec![Vec::new(); starts.len().saturating_sub(1)],
            last: Vec::new(),
            costliest: vec![0; n],
            leaving: vec![0; n],
            mark: vec![0; n],
            block_mark: vec![0; model.num_blocks],
            step: 0,
            refset: vec![0; model.words],
        }
    }

    /// The bound of the stage of clusters `a..b`; 0 when it is empty.
    pub(crate) fn get(&mut self, a: usize, b: usize) -> u64 {
        let clusters = self.rows.len();
        if a >= b {
            0
        } else if b == clusters {
            if self.last.is_empty() {
                self.last = self.sweep_back();
            }
            self.last[a]
        } else {
            if self.rows[a].is_empty() {
                self.rows[a] = self.sweep_from(a);
            }
            self.rows[a][b - a - 1]
        }
    }

    /// A fresh step number for `mark` and `block_mark`.
    fn next_step(&mut self) -> u32 {
        self.step += 1;
        self.step
    }

    /// Puts on source `s`'s arc of occupancy `c` into the run: the run
    /// consumes `s` at its costliest one.
    fn consume(&mut self, s: u32, c: u64, touched: &mut Vec<u32>) -> u64 {
        let best = &mut self.costliest[s as usize];
        if *best == 0 {
            touched.push(s);
        }
        let more = c.saturating_sub(*best);
        *best += more;
        more
    }

    /// The costliest arc of source `s` to an instruction at position
    /// `end` or later.
    fn leaving_from(&self, s: usize, end: usize) -> u64 {
        let arcs = self.model.arcs_from(s).iter();
        let leaving = arcs.filter(|&&(d, _)| self.pos[d as usize] as usize >= end);
        leaving.map(|&(_, c)| c).max().unwrap_or(0)
    }

    /// Counts the blocks of `order[from..to]` that `sweep` has not seen
    /// into the run's relevant branches, and returns the replication
    /// charges of the branches that become relevant while their owner
    /// lies outside the positions `owned`.
    fn refer(&mut self, from: usize, to: usize, owned: std::ops::Range<usize>, sweep: u32) -> u64 {
        let m = self.model;
        let mut charges = 0;
        for &i in &self.order[from..to] {
            let b = m.block_of[i];
            if std::mem::replace(&mut self.block_mark[b as usize], sweep) == sweep {
                continue;
            }
            for (w, &row) in m.relevant_row(b).iter().enumerate() {
                let mut bits = row & !self.refset[w];
                self.refset[w] |= row;
                while bits != 0 {
                    let k = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let (br, c) = m.branches[k];
                    if !owned.contains(&(self.pos[br as usize] as usize)) {
                        charges += 2 * c;
                    }
                }
            }
        }
        charges
    }

    /// The replication charges the run stops paying when the branches of
    /// `order[from..to]` join it: those it already finds relevant.
    fn owned(&self, from: usize, to: usize) -> u64 {
        let m = self.model;
        let held = |k: usize| self.refset[k / 64] >> (k % 64) & 1 == 1;
        self.order[from..to]
            .iter()
            .filter_map(|&i| m.branch(i))
            .filter(|&k| held(k))
            .map(|k| 2 * m.branches[k].1)
            .sum()
    }

    /// The bounds of the stages `a..b` for `b` in `a + 1..clusters`, in
    /// one sweep that appends cluster after cluster. Arcs into the run
    /// come from before it; a source of the run whose arcs reach an
    /// appended cluster has its costliest leaving arc taken again.
    fn sweep_from(&mut self, a: usize) -> Vec<u64> {
        let (m, order) = (self.model, self.order);
        let clusters = self.rows.len();
        let begin = self.starts[a];
        self.refset.fill(0);
        let sweep = self.next_step();
        let (mut weight, mut consumed, mut produced, mut replicated) = (0, 0, 0, 0);
        let (mut touched, mut dirty) = (Vec::new(), Vec::new());
        let mut row = Vec::with_capacity(clusters - 1 - a);
        for b in a + 1..clusters {
            let (from, to) = (self.starts[b - 1], self.starts[b]);
            let step = self.next_step();
            dirty.clear();
            for &i in &order[from..to] {
                weight += m.weight[i];
                for &(s, c) in m.arcs_into(i) {
                    let at = self.pos[s as usize] as usize;
                    if at < begin {
                        consumed += self.consume(s, c, &mut touched);
                    } else if at < from
                        && c == self.leaving[s as usize]
                        && std::mem::replace(&mut self.mark[s as usize], step) != step
                    {
                        // Only an arc as costly as the source's costliest
                        // leaving one can lower it.
                        dirty.push(s as usize);
                    }
                }
            }
            replicated -= self.owned(from, to);
            replicated += self.refer(from, to, begin..to, sweep);
            for &i in &order[from..to] {
                self.leaving[i] = self.leaving_from(i, to);
                produced += self.leaving[i];
            }
            for &s in &dirty {
                produced -= self.leaving[s];
                self.leaving[s] = self.leaving_from(s, to);
                produced += self.leaving[s];
            }
            row.push(weight + consumed + produced + replicated);
        }
        for s in touched {
            self.costliest[s as usize] = 0;
        }
        row
    }

    /// The bounds of the stages `a..clusters` for every `a`, in one sweep
    /// that prepends cluster after cluster. No arc leaves such a stage.
    fn sweep_back(&mut self) -> Vec<u64> {
        let (m, order) = (self.model, self.order);
        let clusters = self.rows.len();
        self.refset.fill(0);
        let sweep = self.next_step();
        let (mut weight, mut consumed, mut replicated) = (0, 0, 0);
        let mut touched = Vec::new();
        let mut last = vec![0; clusters];
        for a in (0..clusters).rev() {
            let (from, to) = (self.starts[a], self.starts[a + 1]);
            for &i in &order[from..to] {
                weight += m.weight[i];
                consumed -= std::mem::take(&mut self.costliest[i]);
            }
            for &i in &order[from..to] {
                for &(s, c) in m.arcs_into(i) {
                    if (self.pos[s as usize] as usize) < from {
                        consumed += self.consume(s, c, &mut touched);
                    }
                }
            }
            replicated -= self.owned(from, to);
            replicated += self.refer(from, to, from..order.len(), sweep);
            last[a] = weight + consumed + replicated;
        }
        for s in touched {
            self.costliest[s as usize] = 0;
        }
        last
    }
}

/// What one partitioner search did: candidates scored, candidates the
/// bound skipped unscored, and scored candidates whose score came out
/// below the bound the search took for them — 0 unless the bound is
/// wrong.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct SearchWork {
    pub(crate) scored: u64,
    pub(crate) pruned: u64,
    pub(crate) below_bound: u64,
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
pub(crate) mod tests {
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

    /// A planted over-estimate for the searches' bound laws to catch:
    /// every arc read from the destination's side, as only the bounds
    /// read arcs, costs one more than the load charges for it, so a
    /// thread's consumer side comes out above its load's.
    pub(crate) fn overcharge_consumers(m: &mut CostModel) {
        for (_, c) in &mut m.preds {
            *c += 1;
        }
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
