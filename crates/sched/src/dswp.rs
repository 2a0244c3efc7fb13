//! The DSWP partitioner: Decoupled Software Pipelining \[16\].
//!
//! DSWP "creates a pipeline of threads, among which the dependences
//! only flow in one direction" (§2). The algorithm:
//!
//! 1. condense the PDG by strongly connected components — every
//!    dependence recurrence must live inside one stage, otherwise the
//!    pipeline property breaks;
//! 2. lay the SCCs out in topological order, optionally merged into
//!    coarser region clusters (per block / per innermost loop) so a
//!    stage boundary does not slice through the middle of a region;
//! 3. choose the stage cut that minimizes the steady-state throughput
//!    bound: the heaviest stage's computation plus the communication
//!    instructions the cut induces (values crossing forward plus
//!    replicated-branch overhead).
//!
//! Because stages are contiguous chunks of a topological order, every
//! inter-thread dependence flows from an earlier stage to a later one —
//! the defining DSWP invariant, checked by
//! [`is_pipeline`](crate::metrics::is_pipeline).

use crate::cost::{to_partition, CostModel, Live, SearchWork, StageBounds, COMM_LATENCY};
use crate::weights::InstrWeights;
use crate::SchedError;
use gmt_ir::{Function, Profile};
use gmt_pdg::{Partition, Pdg};

/// Configuration of the DSWP partitioner.
#[derive(Clone, Debug)]
pub struct DswpConfig {
    /// Number of pipeline stages (threads) to produce.
    pub num_threads: u32,
}

impl Default for DswpConfig {
    fn default() -> DswpConfig {
        DswpConfig { num_threads: 2 }
    }
}

/// Partitions `f` into a pipeline of `config.num_threads` stages.
///
/// # Errors
///
/// [`SchedError::NoThreads`] when `config.num_threads` is zero.
///
/// ```
/// use gmt_ir::{FunctionBuilder, BinOp, Profile};
/// use gmt_pdg::Pdg;
/// use gmt_sched::{dswp, is_pipeline};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = FunctionBuilder::new("f");
/// let x = b.param();
/// let y = b.bin(BinOp::Mul, x, 3i64);
/// b.output(y);
/// b.ret(None);
/// let f = b.finish()?;
/// let pdg = Pdg::build(&f);
/// let p = dswp::partition(&f, &pdg, &Profile::uniform(&f, 10), &dswp::DswpConfig::default())?;
/// assert!(is_pipeline(&pdg, &p));
/// # Ok(())
/// # }
/// ```
pub fn partition(
    f: &Function,
    pdg: &Pdg,
    profile: &Profile,
    config: &DswpConfig,
) -> Result<Partition, SchedError> {
    search(f, pdg, profile, config, true).map(|((_, p), _)| p)
}

/// The search behind [`partition`], returning the winner's score and
/// the work it did too. `prune` is `true` outside tests: skipping
/// candidates by their stages' bounds never changes the result.
fn search(
    f: &Function,
    pdg: &Pdg,
    profile: &Profile,
    config: &DswpConfig,
    prune: bool,
) -> Result<((u64, Partition), SearchWork), SchedError> {
    if config.num_threads == 0 {
        return Err(SchedError::NoThreads);
    }
    let weights = InstrWeights::compute(f, &profile.block_weights(f));
    let model = CostModel::new(f, pdg, &weights, COMM_LATENCY);
    search_model(f, pdg, &model, config, prune)
}

/// [`search`] over a given cost model.
fn search_model(
    f: &Function,
    pdg: &Pdg,
    model: &CostModel,
    config: &DswpConfig,
    prune: bool,
) -> Result<((u64, Partition), SearchWork), SchedError> {
    let n = config.num_threads as usize;

    let g = pdg.as_digraph();
    let cond = g.condensation();
    let nodes = pdg.nodes();
    let topo = cond
        .dag
        .topological_order()
        .ok_or(SchedError::CyclicCondensation)?;

    // The pipeline order: instructions SCC by SCC in topological order.
    // A stage is a contiguous run of `order`, so a candidate is fully
    // described by where its stages start.
    let mut order: Vec<usize> = Vec::with_capacity(nodes.len());
    let mut scc_start: Vec<usize> = Vec::with_capacity(topo.len());
    for &c in &topo {
        scc_start.push(order.len());
        order.extend(cond.components[c.index()].nodes.iter().map(|k| nodes[k.index()].index()));
    }

    // Candidate cluster sequences: SCCs in topological order, merged at
    // several granularities. A merge key groups *adjacent-in-topo*
    // SCCs that share the region; merging only adjacent runs preserves
    // the topological sequencing needed for contiguous cuts.
    let region_key = |scc_idx: usize, by_loop: bool| -> u64 {
        let block = f.block_of(nodes[cond.components[scc_idx].nodes[0].index()]);
        if by_loop {
            pdg.loops().innermost[block.index()].map_or(u64::MAX, |l| l as u64)
        } else {
            u64::from(block.0)
        }
    };

    // `live` holds the candidate last scored, whose stage `k` is
    // `order[held[k].0..held[k].1]`: a survivor moves only the
    // instructions whose stage differs from it.
    let mut live = Live::new(model, vec![0u32; f.num_instrs()], n);
    let mut held = vec![(order.len(), order.len()); n];
    held[0].0 = 0;
    let mut work = SearchWork::default();
    let mut best: Option<(u64, Vec<u32>)> = None;
    let mut enumerated = false;
    for granularity in [None, Some(false), Some(true)] {
        // `starts[ci]` is the position in `order` where cluster `ci`
        // begins; a trailing entry closes the last cluster.
        let mut starts: Vec<usize> = Vec::new();
        let mut last_key: Option<u64> = None;
        for (&c, &start) in topo.iter().zip(&scc_start) {
            let key = granularity.map(|by_loop| region_key(c.index(), by_loop));
            if key.is_none() || key != last_key {
                starts.push(start);
            }
            last_key = key;
        }
        starts.push(order.len());
        // Cluster boundaries nest (loop ⊂ block ⊂ SCC), so once a finer
        // sequence has had every combination of cuts, each cut vector of
        // a coarser one that has them all too is one already scored.
        let clusters = starts.len() - 1;
        let all = enumerates_all(clusters, n);
        if all {
            if enumerated {
                continue;
            }
            enumerated = true;
        }
        // With three stages or more each stage recurs in many cut
        // vectors, so its bound is worth a table. With two, each prefix
        // and suffix is in one cut vector and consecutive cuts differ by
        // one cluster: scoring one costs a cluster's move, about what
        // working out its bounds would, so two-stage cut vectors, like
        // the one greedy vector, are all scored.
        let mut stages = (all && n > 2).then(|| StageBounds::new(model, &order, &starts));

        // Evaluate every contiguous cut of the sequence.
        for_each_cut_vector(&starts, n, |cuts| {
            // Stage `k` holds the clusters from its cut (the sequence
            // start for stage 0) to the next stage's; a stage past the
            // last cut is empty.
            let range = |k: usize| {
                let at = |j: usize| cuts.get(j).copied().unwrap_or(clusters);
                (if k == 0 { 0 } else { at(k - 1) }, at(k))
            };
            // A candidate whose heaviest stage bound reaches the
            // incumbent's score cannot be strictly better.
            let mut bound = 0;
            if let Some(stages) = &mut stages {
                for k in 0..n {
                    let (a, b) = range(k);
                    bound = bound.max(stages.get(a, b));
                    if let (true, Some((best_score, _))) = (prune, &best) {
                        if bound >= *best_score {
                            work.pruned += 1;
                            return;
                        }
                    }
                }
            }
            for (k, was) in held.iter_mut().enumerate() {
                // What the stage's run gains: its parts before and after
                // the run it held.
                let (a, b) = range(k);
                let (from, to) = (starts[a], starts[b]);
                live.move_to(&order[from..to.min(was.0).max(from)], k as u32);
                live.move_to(&order[from.max(was.1).min(to)..to], k as u32);
                *was = (from, to);
            }
            work.scored += 1;
            let s = live.score();
            if s < bound {
                work.below_bound += 1;
            }
            match &mut best {
                Some((best_score, threads)) if s < *best_score => {
                    *best_score = s;
                    threads.copy_from_slice(live.thread_of());
                }
                Some(_) => {}
                None => best = Some((s, live.thread_of().to_vec())),
            }
        });
    }
    let (score, threads) = best.ok_or(SchedError::NoCandidates)?;
    Ok((
        (score, to_partition(pdg, &threads, config.num_threads)),
        work,
    ))
}

/// Whether [`for_each_cut_vector`] visits every combination of `n - 1`
/// distinct cuts of `clusters` clusters: for two stages always, for
/// more while there are at most 3000 combinations.
fn enumerates_all(clusters: usize, n: usize) -> bool {
    n >= 2 && clusters >= n && (n == 2 || n_choose_k(clusters - 1, n - 1) <= 3000)
}

/// Enumerates pipeline shapes over a sequence of `starts.len() - 1`
/// clusters as *cut vectors*: cluster `ci` is on stage
/// `|{c in cuts : c <= ci}|`. For two stages, every cut position; for
/// more stages, every combination of cut positions while there are at
/// most 3000, otherwise one size-balanced greedy chunking.
fn for_each_cut_vector(starts: &[usize], n: usize, mut visit: impl FnMut(&[usize])) {
    let clusters = starts.len() - 1;
    if n == 1 || clusters < 2 {
        return visit(&[]);
    }
    if n == 2 {
        return (1..clusters).for_each(|cut| visit(&[cut]));
    }
    // Deeper pipelines: enumerate all (n-1)-cut combinations when the
    // search space is small, otherwise fall back to one greedy
    // equal-size chunking.
    let cuts_needed = n - 1;
    let positions = clusters - 1;
    if enumerates_all(clusters, n) {
        let mut cut = (1..=cuts_needed).collect::<Vec<usize>>();
        loop {
            visit(&cut);
            // Next combination of `cuts_needed` positions in 1..=positions.
            let mut k = cuts_needed;
            loop {
                if k == 0 {
                    return;
                }
                k -= 1;
                if cut[k] < positions - (cuts_needed - 1 - k) {
                    cut[k] += 1;
                    for j in k + 1..cuts_needed {
                        cut[j] = cut[j - 1] + 1;
                    }
                    break;
                }
            }
        }
    }
    // Greedy fallback: a cluster goes to the stage its first
    // instruction falls in when the sequence is split into `n` equal
    // instruction counts; a stage nothing starts in stays empty.
    let per = starts[clusters].div_ceil(n).max(1);
    let mut cuts: Vec<usize> = Vec::with_capacity(cuts_needed);
    for (ci, &start) in starts[..clusters].iter().enumerate() {
        while cuts.len() < (start / per).min(cuts_needed) {
            cuts.push(ci);
        }
    }
    visit(&cuts);
}

/// Binomial coefficient, saturating (used only to bound enumeration).
fn n_choose_k(n: usize, k: usize) -> u64 {
    if k > n {
        return 0;
    }
    let mut acc: u64 = 1;
    for j in 0..k {
        acc = acc.saturating_mul((n - j) as u64) / (j as u64 + 1);
        if acc > 1_000_000 {
            return u64::MAX;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::is_pipeline;
    use gmt_ir::{BinOp, FunctionBuilder};

    /// The winner [`super::search`] returns, without its work: what
    /// pruning must leave alone; and how many scored candidates came
    /// out below their bound.
    fn search(
        f: &Function,
        pdg: &Pdg,
        profile: &Profile,
        config: &DswpConfig,
        prune: bool,
    ) -> (Result<(u64, Partition), SchedError>, u64) {
        match super::search(f, pdg, profile, config, prune) {
            Ok((best, work)) => (Ok(best), work.below_bound),
            Err(e) => (Err(e), 0),
        }
    }

    /// Classic DSWP loop: a cheap recurrence feeding an expensive pure
    /// consumer — the recurrence and the consumer must split cleanly.
    fn producer_consumer_loop() -> (Function, Profile) {
        let mut b = FunctionBuilder::new("pc");
        let n = b.param();
        let arr = b.object("arr", 128);
        let i = b.fresh_reg();
        let s = b.fresh_reg();
        let h = b.block("h");
        let body = b.block("body");
        let exit = b.block("exit");
        b.const_into(i, 0);
        b.const_into(s, 0);
        b.jump(h);
        b.switch_to(h);
        let c = b.bin(BinOp::Lt, i, n);
        b.branch(c, body, exit);
        b.switch_to(body);
        let base = b.lea(arr, 0);
        let addr = b.bin(BinOp::Add, base, i);
        let v = b.load(addr, 0);
        let t1 = b.bin(BinOp::Mul, v, v);
        let t2 = b.bin(BinOp::Mul, t1, 3i64);
        b.bin_into(BinOp::Add, s, s, t2);
        b.bin_into(BinOp::Add, i, i, 1i64);
        b.jump(h);
        b.switch_to(exit);
        b.ret(Some(s.into()));
        let mut f = b.finish().unwrap();
        gmt_ir::split_critical_edges(&mut f);
        let profile = Profile::uniform(&f, 100);
        (f, profile)
    }

    #[test]
    fn produces_a_valid_pipeline() {
        let (f, profile) = producer_consumer_loop();
        let pdg = Pdg::build(&f);
        let p = partition(&f, &pdg, &profile, &DswpConfig::default()).unwrap();
        assert!(p.validate(&f).is_ok());
        assert!(is_pipeline(&pdg, &p), "dependences must flow forward only");
    }

    #[test]
    fn both_stages_nonempty_on_balanced_loop() {
        let (f, profile) = producer_consumer_loop();
        let pdg = Pdg::build(&f);
        let p = partition(&f, &pdg, &profile, &DswpConfig::default()).unwrap();
        let sizes = p.static_sizes();
        assert!(sizes.iter().all(|&s| s > 0), "{sizes:?}");
    }

    #[test]
    fn recurrences_never_split_or_flow_backward() {
        let (f, profile) = producer_consumer_loop();
        let pdg = Pdg::build(&f);
        let p = partition(&f, &pdg, &profile, &DswpConfig::default()).unwrap();
        for d in pdg.deps() {
            assert!(p.thread_of(d.src) <= p.thread_of(d.dst), "dep {d:?} flows backward");
        }
        let cond = pdg.as_digraph().condensation();
        let scc = |i| cond.component_of[pdg.nodes().iter().position(|&n| n == i).unwrap()];
        for d in pdg.deps() {
            if scc(d.src) == scc(d.dst) {
                assert_eq!(p.thread_of(d.src), p.thread_of(d.dst));
            }
        }
    }

    #[test]
    fn more_threads_than_sccs_is_fine() {
        let mut b = FunctionBuilder::new("tiny");
        let x = b.const_(1);
        b.ret(Some(x.into()));
        let f = b.finish().unwrap();
        let pdg = Pdg::build(&f);
        let profile = Profile::uniform(&f, 1);
        let p = partition(&f, &pdg, &profile, &DswpConfig { num_threads: 4 }).unwrap();
        assert!(p.validate(&f).is_ok());
        assert!(is_pipeline(&pdg, &p));
    }

    #[test]
    fn single_stage_degenerates_to_single_thread() {
        let (f, profile) = producer_consumer_loop();
        let pdg = Pdg::build(&f);
        let p = partition(&f, &pdg, &profile, &DswpConfig { num_threads: 1 }).unwrap();
        assert_eq!(p.static_sizes()[0], f.placed_instr_count());
    }

    #[test]
    fn four_stage_pipeline_still_valid() {
        let (f, profile) = producer_consumer_loop();
        let pdg = Pdg::build(&f);
        let p = partition(&f, &pdg, &profile, &DswpConfig { num_threads: 4 }).unwrap();
        assert!(p.validate(&f).is_ok());
        assert!(is_pipeline(&pdg, &p));
    }

    /// The stage bounds only skip candidates that could not have won:
    /// with pruning disabled the partition and score are the same. No
    /// scored candidate, pruning on or off, scores below its bound. And
    /// there is one model: [`crate::thread_loads`] of the winner peaks
    /// at the score the search ranked it by.
    #[test]
    fn pruning_never_changes_the_partition() {
        crate::testutil::for_catalog_and_generated("dswp::pruning", |f, pdg, profile, n| {
            let config = DswpConfig { num_threads: n };
            let (pruned, pruned_below) = search(f, pdg, profile, &config, true);
            let (exhaustive, exhaustive_below) = search(f, pdg, profile, &config, false);
            gmt_testkit::prop_assert_eq!(pruned, exhaustive);
            gmt_testkit::prop_assert_eq!((pruned_below, exhaustive_below), (0, 0));
            if let Ok((score, winner)) = &pruned {
                let peak = crate::testutil::peak_load(f, pdg, profile, winner)?;
                gmt_testkit::prop_assert_eq!(peak, *score);
            }
            Ok(())
        });
    }

    /// The bound law above can fail: stage bounds that overcharge the
    /// consumer side come out above some candidate's score.
    #[test]
    fn an_overestimating_stage_bound_is_caught() {
        let search = |f: &Function, pdg: &Pdg, _: &InstrWeights, model: &CostModel, n, prune| {
            let config = DswpConfig { num_threads: n };
            super::search_model(f, pdg, model, &config, prune)
                .map_or_else(|_| SearchWork::default(), |(_, w)| w)
        };
        let caught = crate::testutil::caught(search, crate::cost::tests::overcharge_consumers);
        assert!(caught > 0, "no case distinguished the tampered bound");
    }

    /// Cut vectors scored and skipped by the bound, summed over the 11
    /// catalog kernels at N = 2, 3, 4: a change to what the search
    /// scores or prunes moves them.
    #[test]
    fn search_work_is_pinned_on_the_catalog() {
        let work = crate::testutil::catalog_work(|f, pdg, profile, n| {
            super::search(f, pdg, profile, &DswpConfig { num_threads: n }, true).map(|(_, w)| w)
        });
        assert_eq!(work, [(2, 386, 0), (3, 388, 6853), (4, 1058, 7859)]);
    }
}
