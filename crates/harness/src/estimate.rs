//! The static side of `repro --explain`: the scheduler's
//! profile-weighted view of one compiled variant.
//!
//! The partitioners make their decisions from profile-weighted static
//! quantities — per-thread load balance, cut-edge counts, plan
//! occurrences. [`SchedEstimate`] recomputes them for a fixed partition
//! and queue labeling under the profile of the input the explained run
//! measures, so [`crate::explain_report`] can join "what the scheduler
//! *thought* it was building" against what the timed simulator then
//! measured on that same input. A large estimate-vs-actual gap is the
//! signal that the static model — not the partition heuristic — is
//! what limits the schedule.

use gmt_core::Parallelized;
use gmt_ir::{Function, Profile};
use gmt_mtcg::CommKind;
use gmt_pdg::Pdg;
use gmt_sched::{balance, cut_summary, CutSummary};

/// Profile-weighted static estimates of one parallelization with a
/// fixed partition and communication plan.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct SchedEstimate {
    /// Estimated compute cycles per thread: block profile weight ×
    /// instruction latency, summed over each thread's instructions
    /// (the partitioners' load-balance objective).
    pub(crate) compute_cycles: Vec<u64>,
    /// Estimated communication-instruction cycles added to each
    /// thread: one cycle per produce (on the sending thread) and one
    /// per consume (on the receiving thread), × the occurrence's block
    /// weight.
    pub(crate) comm_cycles: Vec<u64>,
    /// `compute_cycles + comm_cycles`, the per-thread totals an ideal
    /// stall-free machine would take.
    pub(crate) thread_cycles: Vec<u64>,
    /// Heaviest thread's share of the total estimated load, percent.
    pub(crate) max_share_pct: u32,
    /// Inter-thread dependence arcs the partition cut, by kind.
    pub(crate) cut: CutSummary,
    /// Estimated dynamic values per queue (occurrence block weight,
    /// summed per assigned queue) — the static twin of the traced
    /// engine's per-queue produce counts.
    pub(crate) queue_traffic: Vec<u64>,
    /// How many of the plan's communicated items are memory
    /// synchronization tokens (blocking `consume.sync` on the
    /// receiving side) rather than register values.
    pub(crate) sync_points: usize,
}

impl SchedEstimate {
    /// Total estimated cycles across threads (the serial estimate).
    pub(crate) fn total(&self) -> u64 {
        self.thread_cycles.iter().sum()
    }

    /// The bottleneck thread's estimated cycles — the static
    /// prediction of the parallel run time.
    pub(crate) fn bottleneck(&self) -> u64 {
        self.thread_cycles.iter().copied().max().unwrap_or(0)
    }

    /// Computes the estimate of `p`, a parallelization of `f` whose PDG
    /// is `pdg`, under `profile`: one entry per thread of its
    /// partition and per queue of its labeling.
    pub(crate) fn compute(
        f: &Function,
        profile: &Profile,
        pdg: &Pdg,
        p: &Parallelized,
    ) -> SchedEstimate {
        let (partition, labels) = (&p.partition, p.queue_labels());
        let weights = profile.block_weights(f);
        let bal = balance(f, &weights, partition);
        let nthreads = bal.per_thread.len();
        let mut comm_cycles = vec![0u64; nthreads];
        let mut sync_points = 0usize;
        for l in labels {
            let b = l.point.block(f);
            let w = weights.get(b.index()).copied().unwrap_or(0);
            if let Some(c) = comm_cycles.get_mut(l.from.index()) {
                *c = c.saturating_add(w);
            }
            if let Some(c) = comm_cycles.get_mut(l.to.index()) {
                *c = c.saturating_add(w);
            }
            if l.kind == CommKind::Memory {
                sync_points += 1;
            }
        }
        let thread_cycles: Vec<u64> = bal
            .per_thread
            .iter()
            .zip(&comm_cycles)
            .map(|(&c, &m)| c.saturating_add(m))
            .collect();
        let total: u64 = thread_cycles.iter().sum();
        let max = thread_cycles.iter().copied().max().unwrap_or(0);
        let max_share_pct = (max.saturating_mul(100))
            .checked_div(total)
            .map_or(100, |v| u32::try_from(v).unwrap_or(100));
        SchedEstimate {
            compute_cycles: bal.per_thread,
            comm_cycles,
            thread_cycles,
            max_share_pct,
            cut: cut_summary(pdg, partition),
            queue_traffic: gmt_mtcg::estimated_traffic(f, &weights, labels, p.num_queues()),
            sync_points,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmt_core::{Parallelizer, Scheduler};
    use gmt_ir::{BinOp, FunctionBuilder};

    #[test]
    fn estimate_covers_every_thread_and_queue() {
        let mut b = FunctionBuilder::new("f");
        let n = b.param();
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
        let t = b.bin(BinOp::Mul, i, i);
        b.bin_into(BinOp::Add, s, s, t);
        b.bin_into(BinOp::Add, i, i, 1i64);
        b.jump(h);
        b.switch_to(exit);
        b.ret(Some(s.into()));
        let f = b.finish().unwrap();
        let profile = Profile::uniform(&f, 10);

        let p = Parallelizer::new(Scheduler::dswp(2)).parallelize(&f, &profile).unwrap();
        let est = SchedEstimate::compute(&f, &profile, &Pdg::build(&f), &p);
        assert_eq!(est.compute_cycles.len(), 2);
        assert_eq!(est.thread_cycles.len(), 2);
        assert_eq!(est.queue_traffic.len(), p.num_queues() as usize);
        assert!(est.total() > 0);
        assert!(est.bottleneck() <= est.total());
        assert!(est.max_share_pct >= 50, "{}", est.max_share_pct);
        // Every labeled queue's estimated traffic is accounted.
        let traffic: u64 = est.queue_traffic.iter().sum();
        let comm: u64 = est.comm_cycles.iter().sum();
        assert_eq!(comm, traffic * 2, "one produce + one consume per value");
    }
}
