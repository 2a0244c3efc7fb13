//! Global multi-threaded (GMT) instruction-scheduling partitioners.
//!
//! "After the PDG is constructed, a GMT scheduler needs to assign
//! instructions to threads... This phase, the partitioner, is where the
//! GMT scheduling techniques differ" (§2 of the COCO paper). Two
//! published partitioners are implemented:
//!
//! - [`dswp`] — Decoupled Software Pipelining \[16\]: SCC condensation of
//!   the PDG cut into contiguous pipeline stages; dependences flow in
//!   one direction only;
//! - [`gremio`] — GREMIO (MICRO 2007): clustered list scheduling by
//!   estimated ready time over the loop hierarchy; cyclic inter-thread
//!   dependences allowed.
//!
//! Both plug into the same MTCG/COCO back end — the framework shape of
//! Figure 2.
//!
//! # Example
//!
//! ```
//! use gmt_ir::{FunctionBuilder, BinOp, Profile};
//! use gmt_pdg::Pdg;
//! use gmt_sched::{dswp, gremio};
//!
//! # fn main() -> Result<(), gmt_ir::VerifyError> {
//! let mut b = FunctionBuilder::new("f");
//! let x = b.param();
//! let y = b.bin(BinOp::Mul, x, 3i64);
//! b.output(y);
//! b.ret(None);
//! let f = b.finish()?;
//! let pdg = Pdg::build(&f);
//! let profile = Profile::uniform(&f, 10);
//! let pipe = dswp::partition(&f, &pdg, &profile, &dswp::DswpConfig::default()).unwrap();
//! let listed = gremio::partition(&f, &pdg, &profile, &gremio::GremioConfig::default()).unwrap();
//! assert!(pipe.validate(&f).is_ok());
//! assert!(listed.validate(&f).is_ok());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cost;
pub mod dswp;
pub mod gremio;
pub mod metrics;
pub mod weights;

pub use cost::thread_loads;
pub use metrics::{cut_summary, has_cyclic_inter_thread_deps, is_pipeline, CutSummary};

/// Partitioner failures on untrusted configurations, reported rather
/// than panicked on. Under a legal configuration every input
/// partitions: an SCC condensation is acyclic by construction, and each
/// search scores at least one candidate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SchedError {
    /// The configuration asked for zero threads.
    NoThreads,
}

impl std::fmt::Display for SchedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedError::NoThreads => write!(f, "partitioner configured with zero threads"),
        }
    }
}

impl std::error::Error for SchedError {}

#[cfg(test)]
mod testutil {
    use crate::cost::{CostModel, SearchWork, COMM_LATENCY};
    use crate::weights::InstrWeights;
    use crate::SchedError;
    use gmt_fuzz::ast::{compile, fprogram_gen};
    use gmt_ir::interp::{run, ExecConfig};
    use gmt_ir::{Function, Profile};
    use gmt_pdg::{Partition, Pdg};
    use gmt_testkit::{Checker, PropResult, TestRng};

    /// `(N, scored, pruned)` of `search` summed over the 11 catalog
    /// kernels under their train profiles, for N ∈ {2,3,4}.
    pub(crate) fn catalog_work(
        search: impl Fn(&Function, &Pdg, &Profile, u32) -> Result<SearchWork, SchedError>,
    ) -> [(u32, u64, u64); 3] {
        let kernels: Vec<_> = gmt_workloads::catalog()
            .into_iter()
            .map(|w| {
                let profile = w.run_train().expect("train run").profile;
                let pdg = Pdg::build(&w.function);
                (w.function, pdg, profile)
            })
            .collect();
        [2, 3, 4].map(|n| {
            let (mut scored, mut pruned) = (0, 0);
            for (f, pdg, profile) in &kernels {
                let work = search(f, pdg, profile, n).expect("search");
                scored += work.scored;
                pruned += work.pruned;
            }
            (n, scored, pruned)
        })
    }

    /// The largest of [`crate::thread_loads`] of `partition`: the one
    /// model says it equals the score the search gave the partition.
    pub(crate) fn peak_load(
        f: &Function,
        pdg: &Pdg,
        profile: &Profile,
        partition: &Partition,
    ) -> Result<u64, String> {
        let loads = crate::thread_loads(f, pdg, profile, partition)
            .map_err(|i| format!("{i:?} unassigned"))?;
        Ok(loads.into_iter().max().unwrap_or(0))
    }

    /// How many of 24 seeded generated functions `search`, over a model
    /// `tamper` has changed, scores some candidate of below the bound it
    /// took for it, at N ∈ {2,3,4} with pruning on or off.
    pub(crate) fn caught(
        search: impl Fn(&Function, &Pdg, &InstrWeights, &CostModel, u32, bool) -> SearchWork,
        tamper: impl Fn(&mut CostModel),
    ) -> usize {
        let gen = fprogram_gen();
        (0..24u64)
            .filter(|&seed| {
                let Ok(f) = compile(&gen.sample(&mut TestRng::new(seed))) else {
                    return false;
                };
                let Ok(seq) = run(&f, &[], &ExecConfig { max_steps: 5_000_000 }) else {
                    return false;
                };
                let pdg = Pdg::build(&f);
                let weights = InstrWeights::compute(&f, &seq.profile.block_weights(&f));
                let mut model = CostModel::new(&f, &pdg, &weights, COMM_LATENCY);
                tamper(&mut model);
                (2..=4).any(|n| {
                    [true, false]
                        .into_iter()
                        .any(|prune| search(&f, &pdg, &weights, &model, n, prune).below_bound > 0)
                })
            })
            .count()
    }

    /// Runs `prop` on the 11 catalog kernels under their train profiles
    /// and on 200 generated functions under the profile of one
    /// sequential run, each at N ∈ {2,3,4}.
    pub(crate) fn for_catalog_and_generated(
        name: &str,
        prop: impl Fn(&Function, &Pdg, &Profile, u32) -> PropResult,
    ) {
        for w in gmt_workloads::catalog() {
            let profile = w.run_train().expect("train run").profile;
            let pdg = Pdg::build(&w.function);
            for n in [2, 3, 4] {
                if let Err(e) = prop(&w.function, &pdg, &profile, n) {
                    panic!("{} N={n}: {e}", w.benchmark);
                }
            }
        }
        Checker::new(name).cases(200).run(&fprogram_gen(), |program| {
            let f = compile(program)?;
            let profile = run(&f, &[], &ExecConfig { max_steps: 5_000_000 })
                .map_err(|e| e.to_string())?
                .profile;
            let pdg = Pdg::build(&f);
            (2..=4).try_for_each(|n| prop(&f, &pdg, &profile, n))
        });
    }
}
