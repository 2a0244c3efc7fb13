//! The end-to-end parallelization pipeline: PDG → partitioner → (COCO)
//! → MTCG. This is the API a library user drives (Figure 2 of the
//! paper).

use crate::coco::{optimize, CocoConfig, CocoStats};
use crate::estimate::SchedEstimate;
use gmt_ir::{Function, Profile};
use gmt_mtcg::{CommPlan, MtcgError, MtcgOutput, QueueBudget};
use gmt_pdg::{Partition, Pdg};
use gmt_sched::{dswp, gremio, SchedError};
use std::time::Instant;

/// A failure of the end-to-end pipeline: either the partitioner or the
/// code generator rejected its input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PipelineError {
    /// The partitioner failed (e.g. a zero-thread configuration).
    Sched(SchedError),
    /// Code generation failed.
    Mtcg(MtcgError),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Sched(e) => write!(f, "partitioner: {e}"),
            PipelineError::Mtcg(e) => write!(f, "code generation: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Sched(e) => Some(e),
            PipelineError::Mtcg(e) => Some(e),
        }
    }
}

impl From<SchedError> for PipelineError {
    fn from(e: SchedError) -> PipelineError {
        PipelineError::Sched(e)
    }
}

impl From<MtcgError> for PipelineError {
    fn from(e: MtcgError) -> PipelineError {
        PipelineError::Mtcg(e)
    }
}

/// Wall-clock nanoseconds spent in each compile phase of one
/// parallelization run (the §4 compile-time breakdown).
///
/// [`Parallelizer::parallelize`] fills every field;
/// [`Parallelizer::parallelize_with_partition`] only fills `coco_ns`
/// and `mtcg_ns` (the PDG and partition are caller-supplied there —
/// callers that time those phases themselves can patch the fields in).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompileTimings {
    /// PDG construction (dependence analysis).
    pub pdg_build_ns: u64,
    /// Partitioning (DSWP or GREMIO, including candidate arbitration).
    pub partition_ns: u64,
    /// COCO communication optimization (0 for baseline MTCG).
    pub coco_ns: u64,
    /// MTCG code generation.
    pub mtcg_ns: u64,
}

impl CompileTimings {
    /// Total compile time across all phases.
    pub fn total_ns(&self) -> u64 {
        self.pdg_build_ns + self.partition_ns + self.coco_ns + self.mtcg_ns
    }
}

/// Which partitioner to run.
#[derive(Clone, Debug)]
pub enum Scheduler {
    /// Decoupled Software Pipelining \[16\].
    Dswp(dswp::DswpConfig),
    /// GREMIO (MICRO 2007).
    Gremio(gremio::GremioConfig),
}

impl Scheduler {
    /// DSWP with `n` pipeline stages.
    pub fn dswp(n: u32) -> Scheduler {
        Scheduler::Dswp(dswp::DswpConfig { num_threads: n })
    }

    /// GREMIO with `n` threads.
    pub fn gremio(n: u32) -> Scheduler {
        Scheduler::Gremio(gremio::GremioConfig { num_threads: n })
    }

    /// Partitions `f`, whose PDG is `pdg`, under `profile`.
    ///
    /// # Errors
    ///
    /// Propagates [`SchedError`] from the partitioner.
    pub fn partition(
        &self,
        f: &Function,
        pdg: &Pdg,
        profile: &Profile,
    ) -> Result<Partition, SchedError> {
        match self {
            Scheduler::Dswp(cfg) => dswp::partition(f, pdg, profile, cfg),
            Scheduler::Gremio(cfg) => gremio::partition(f, pdg, profile, cfg),
        }
    }

    /// The paper's depth for this scheduler's queues (§4): 1 for
    /// GREMIO's single-element synchronization-array queues, 32 for
    /// DSWP.
    pub fn queue_depth(&self) -> usize {
        match self {
            Scheduler::Gremio(_) => 1,
            Scheduler::Dswp(_) => 32,
        }
    }
}

/// The full GMT parallelization pipeline.
#[derive(Clone, Debug)]
pub struct Parallelizer {
    /// The partitioner.
    pub scheduler: Scheduler,
    /// Run COCO after partitioning (`None` = baseline MTCG).
    pub coco: Option<CocoConfig>,
    /// Depth granted to *hot* queues (those with a communication point
    /// inside a loop) by the per-queue depth allocator; cold queues get
    /// 1 entry. Defaults to the scheduler's paper depth,
    /// [`Scheduler::queue_depth`].
    pub hot_queue_depth: usize,
}

impl Parallelizer {
    /// A pipeline with the given scheduler and no COCO.
    pub fn new(scheduler: Scheduler) -> Parallelizer {
        let hot_queue_depth = scheduler.queue_depth();
        Parallelizer { scheduler, coco: None, hot_queue_depth }
    }

    /// Enables COCO with the given configuration.
    #[must_use]
    pub fn with_coco(mut self, config: CocoConfig) -> Parallelizer {
        self.coco = Some(config);
        self
    }

    /// Parallelizes `f` under `profile`.
    ///
    /// # Errors
    ///
    /// Propagates [`SchedError`] from the partitioner and [`MtcgError`]
    /// from code generation.
    pub fn parallelize(
        &self,
        f: &Function,
        profile: &Profile,
    ) -> Result<Parallelized, PipelineError> {
        let t = Instant::now();
        let pdg = Pdg::build(f);
        let pdg_build_ns = t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        let partition = self.scheduler.partition(f, &pdg, profile)?;
        let partition_ns = t.elapsed().as_nanos() as u64;
        let mut out = self.parallelize_with_partition(f, profile, &pdg, partition)?;
        out.timings.pdg_build_ns = pdg_build_ns;
        out.timings.partition_ns = partition_ns;
        Ok(out)
    }

    /// Parallelizes `f` with a caller-supplied partition (for custom
    /// partitioners — the "plugging different partitioners" framework
    /// property of Figure 2).
    ///
    /// # Errors
    ///
    /// Propagates [`MtcgError`] from code generation.
    pub fn parallelize_with_partition(
        &self,
        f: &Function,
        profile: &Profile,
        pdg: &Pdg,
        partition: Partition,
    ) -> Result<Parallelized, MtcgError> {
        if let Err(i) = partition.validate(f) {
            return Err(MtcgError::Unassigned(i));
        }
        let mut timings = CompileTimings::default();
        let baseline = gmt_mtcg::baseline_plan(f, pdg, &partition)?;
        let (plan, coco_stats, baseline_plan) = match &self.coco {
            None => (baseline, None, None),
            Some(cfg) => {
                let t = Instant::now();
                let (plan, stats) = optimize(f, pdg, &partition, profile, cfg);
                timings.coco_ns = t.elapsed().as_nanos() as u64;
                (plan, Some(stats), Some(baseline))
            }
        };
        // The paper's 256-queue synchronization array; queue allocation
        // folds plans that need more.
        let t = Instant::now();
        let output = gmt_mtcg::generate_with_plan_budgeted(
            f,
            pdg,
            &partition,
            plan,
            QueueBudget::SYNC_ARRAY,
        )?;
        timings.mtcg_ns = t.elapsed().as_nanos() as u64;
        // Allocate per-queue depths from the profile: queues whose
        // points sit in loops get the hot depth, the rest get 1. The
        // timed simulators keep their uniform machine depths; these are
        // the depths the verifier (and a depth-aware SA) would use.
        let queue_depths = gmt_mtcg::allocate_depths(
            f,
            profile,
            &output.queue_labels,
            output.num_queues,
            self.hot_queue_depth,
        );
        // Debug builds statically validate the queue protocol of every
        // generated program at the most conservative uniform depth (1),
        // which subsumes every depth >= 1 (`verify_mt` is
        // depth-monotone) — MTCG output must be correct for any queue
        // depth >= 1.
        #[cfg(debug_assertions)]
        {
            let violations = crate::mtverify::verify_mt(f, &partition, pdg, &output, &[1]);
            debug_assert!(
                violations.is_empty(),
                "generated code violates the queue protocol: {violations:?}"
            );
        }
        // Snapshot the static estimate against the realized labeling:
        // what the scheduler believed each thread and queue would cost,
        // for the harness's estimate-vs-measurement join.
        let estimate = SchedEstimate::compute(
            f,
            profile,
            pdg,
            &partition,
            &output.queue_labels,
            output.num_queues,
        );
        Ok(Parallelized { output, partition, coco_stats, baseline_plan, timings, queue_depths, estimate })
    }
}

/// The result of a parallelization run.
#[derive(Clone, Debug)]
pub struct Parallelized {
    /// The generated threads, queue count, and realized plan.
    pub output: MtcgOutput,
    /// The partition that was used.
    pub partition: Partition,
    /// COCO statistics, if COCO ran.
    pub coco_stats: Option<CocoStats>,
    /// The baseline plan (for comparison), if COCO ran.
    pub baseline_plan: Option<CommPlan>,
    /// Wall-clock compile-phase timings for this run.
    pub timings: CompileTimings,
    /// Profile-weighted per-queue depth allocation (one entry per
    /// queue; hot loop-carried queues get [`Parallelizer::hot_queue_depth`],
    /// cold control queues get 1). No figure, executor or check of the
    /// workspace reads it; the repository benchmark times its
    /// allocation.
    pub queue_depths: Vec<usize>,
    /// Static estimates captured at partition time (per-thread loads,
    /// cut edges, per-queue traffic) — the "what the scheduler
    /// thought" side of an estimate-vs-measurement report.
    pub estimate: SchedEstimate,
}

impl Parallelized {
    /// The generated per-thread functions.
    pub fn threads(&self) -> &[Function] {
        &self.output.threads
    }

    /// Number of queues required.
    pub fn num_queues(&self) -> u32 {
        self.output.num_queues
    }

    /// Static labels for the allocated SA queues (one per scheduled
    /// communication occurrence; see [`gmt_mtcg::QueueLabel`]).
    pub fn queue_labels(&self) -> &[gmt_mtcg::QueueLabel] {
        &self.output.queue_labels
    }
}
