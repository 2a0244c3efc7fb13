//! The partitioners' shared cost model, compiled once per search.
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
//! A search probes thousands of assignments of one function, so
//! everything that does not depend on the assignment is computed once
//! into flat arrays and [`CostModel::eval`] walks them without
//! allocating or hashing. Communication only ever *adds* to a thread's
//! load, so the heaviest thread's pure compute weight is an exact lower
//! bound on the score — the searches use it to skip candidates that
//! cannot beat their incumbent.

use crate::weights::InstrWeights;
use gmt_ir::Function;
use gmt_pdg::{Partition, Pdg, ThreadId};

/// The assignment-independent half of the score, in flat arrays.
pub(crate) struct CostModel {
    /// The placed instructions as `(instruction index, block index)`.
    nodes: Vec<(u32, u32)>,
    /// Compute weight, indexed by [`gmt_ir::InstrId::index`].
    weight: Vec<u64>,
    /// PDG arcs as `(src, dst, occupancy)`, sorted by source, one per
    /// `(src, dst)` pair, self-arcs dropped. The occupancy is what
    /// either end pays when the arc is the costliest one from `src`
    /// into `dst`'s thread.
    arcs: Vec<(u32, u32, u64)>,
    /// Every branch some block is control dependent on, as
    /// `(instruction index, occupancy of one replicated copy)`.
    branches: Vec<(u32, u64)>,
    /// Per block, the set of `branches` (a bitset row of `words` words)
    /// that owning an instruction of the block makes relevant: the
    /// block's row of the PDG's control-dependence closure.
    relevant: Vec<u64>,
    words: usize,
}

/// Working storage of [`CostModel::eval`], reused across calls.
#[derive(Default)]
pub(crate) struct Scratch {
    load: Vec<u64>,
    site: Vec<u64>,
    relevant: Vec<u64>,
}

impl CostModel {
    pub(crate) fn new(
        f: &Function,
        pdg: &Pdg,
        weights: &InstrWeights,
        comm_latency: u64,
    ) -> CostModel {
        let lat = comm_latency.max(1);
        let nodes = f.all_instrs().map(|i| (i.0, f.block_of(i).0)).collect();
        let mut weight = vec![0u64; f.num_instrs()];
        for i in f.all_instrs() {
            weight[i.index()] = weights.weight(i);
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

        let cdeps = pdg.control_deps();
        let relevant = f.blocks().flat_map(|b| cdeps.closure_row(b)).copied().collect();
        let branches = cdeps
            .branches()
            .iter()
            .map(|&br| (br.0, weights.exec_count(br).max(1) * lat))
            .collect();
        CostModel {
            nodes,
            weight,
            arcs,
            branches,
            relevant,
            words: cdeps.branches().len().div_ceil(64),
        }
    }

    /// Compute weight of the instruction with index `i`.
    pub(crate) fn weight(&self, i: usize) -> u64 {
        self.weight[i]
    }

    /// The score of the assignment `thread_of` (indexed by
    /// [`gmt_ir::InstrId::index`], every placed instruction on a thread
    /// below `nt`): the heaviest thread's compute weight plus
    /// communication occupancy.
    pub(crate) fn eval(&self, thread_of: &[u32], nt: usize, scratch: &mut Scratch) -> u64 {
        let Scratch {
            load,
            site,
            relevant,
        } = scratch;
        let words = self.words;
        load.clear();
        load.resize(nt, 0);
        site.clear();
        site.resize(nt, 0);
        relevant.clear();
        relevant.resize(nt * words, 0);

        for &(i, b) in &self.nodes {
            let t = thread_of[i as usize] as usize;
            load[t] += self.weight[i as usize];
            let row = &self.relevant[b as usize * words..][..words];
            for (acc, &bits) in relevant[t * words..][..words].iter_mut().zip(row) {
                *acc |= bits;
            }
        }

        // Communication pairs: one per (source, foreign thread), at the
        // costliest arc between them.
        for group in self.arcs.chunk_by(|a, b| a.0 == b.0) {
            let ts = thread_of[group[0].0 as usize] as usize;
            let mut crosses = false;
            for &(_, dst, cost) in group {
                let td = thread_of[dst as usize] as usize;
                if td != ts {
                    site[td] = site[td].max(cost);
                    crosses = true;
                }
            }
            if crosses {
                for td in 0..nt {
                    let cost = std::mem::take(&mut site[td]);
                    load[ts] += cost;
                    load[td] += cost;
                }
            }
        }

        // Intrinsic control replication per thread: the consume of the
        // operand plus the duplicated branch itself (2 instructions),
        // and the produce on the owning thread.
        for t in 0..nt {
            for w in 0..words {
                let mut bits = relevant[t * words + w];
                while bits != 0 {
                    let (br, cost) = self.branches[w * 64 + bits.trailing_zeros() as usize];
                    bits &= bits - 1;
                    let owner = thread_of[br as usize] as usize;
                    if owner != t {
                        load[t] += 2 * cost;
                        load[owner] += cost;
                    }
                }
            }
        }
        load.iter().copied().max().unwrap_or(0)
    }
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
    use gmt_integration_tests::{compile, program_gen, seeded_partition, Stmt};
    use gmt_ir::interp::{run, ExecConfig};
    use gmt_testkit::{full_u64, prop_assert_eq, ranged, Checker, Gen, TestRng};
    use std::collections::{BTreeSet, HashMap};

    /// The score as both partitioners computed it before the model
    /// existed, walking a `Partition` through hash maps and recomputing
    /// the control-dependence closure per thread. Kept as the reference
    /// the model is checked against.
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

    /// A generated function, the seed of a random assignment, and raw
    /// `(threads, idle, latency)` draws: the assignment spans N =
    /// `1 + threads % 4` threads of which the last `idle % N` own
    /// nothing. Decoded in [`scores`] so every shrunken case stays legal.
    type Case = (Vec<Stmt>, u64, (u32, u32, u64));

    fn case_gen() -> Gen<Case> {
        let shape = ranged(0u32, 4).zip(ranged(0u32, 4)).zip(ranged(0u64, 4));
        program_gen()
            .zip(full_u64())
            .zip(shape)
            .map(|((p, seed), ((threads, idle), lat))| (p, seed, (threads, idle, lat)))
    }

    /// `(reference score, model score)` of one case, with `tamper`
    /// applied to the model before it is evaluated.
    fn scores(
        (program, seed, (threads, idle, lat)): &Case,
        tamper: impl Fn(&mut CostModel),
    ) -> (u64, u64) {
        let n = 1 + threads % 4;
        let used = n - idle % n;
        let f = compile(program);
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
        (
            score(&f, &pdg, &weights, &partition, *lat),
            model.eval(&thread_of, n as usize, &mut Scratch::default()),
        )
    }

    #[test]
    fn model_matches_the_partition_walking_reference() {
        Checker::new("cost::model_matches_reference")
            .cases(256)
            .run(&case_gen(), |case| {
                let (reference, model) = scores(case, |_| {});
                prop_assert_eq!(model, reference);
                Ok(())
            });
    }

    /// The oracle above can fail: a model that forgets the
    /// branch-replication term disagrees with the reference.
    #[test]
    fn a_model_without_branch_replication_is_caught() {
        let gen = case_gen();
        let caught = (0..64u64)
            .filter(|&seed| {
                let case = gen.sample(&mut TestRng::new(seed));
                let (reference, model) = scores(&case, |m| m.relevant.fill(0));
                model != reference
            })
            .count();
        assert!(caught > 0, "no case distinguished the tampered model");
    }
}
