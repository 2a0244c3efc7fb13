//! The one compiled cell of the experiment matrix.
//!
//! The paper's §4 methodology is one recipe per kernel × scheduler:
//! profile on the train input, build the PDG, partition, generate
//! baseline MTCG and MTCG+COCO code over that partition, measure.
//! [`compile_cell`] is that recipe, spelled once; every mode of the
//! harness ([`crate::evaluate_full`], [`crate::explain_cell`],
//! [`crate::verify_matrix`]) obtains its programs, machine and queue
//! file from it, so what the verification matrix verifies and
//! `--explain` explains is exactly what the figures measure.
//!
//! Each distinct program of a cell is compiled once. GREMIO's timed
//! arbitration already compiles the COCO variant of every candidate
//! partition in order to time it, so it hands the winner's over with
//! the partition and only the baseline is left to generate; DSWP, which
//! arbitrates nothing, compiles both variants here.
//!
//! Each distinct run on train inputs is simulated once, too. The
//! arbitration times its candidates against the sequential program
//! itself, and on train inputs ([`Scale::Quick`]) the sequential run
//! and the winner's run are runs the evaluation would make again, so
//! the cell keeps them (`TrainRuns`) and a timed evaluation reads
//! them instead of simulating.

use crate::{fail, run_record, sim_counts, HarnessError, RunMetrics, Scale, SchedulerKind};
use gmt_core::{CocoConfig, Parallelized, Parallelizer, Scheduler};
use gmt_ir::decoded::DecodedProgram;
use gmt_ir::interp_mt::QueueConfig;
use gmt_ir::Profile;
use gmt_mtcg::QueueLabel;
use gmt_pdg::{Partition, Pdg};
use gmt_sched::gremio::GremioConfig;
use gmt_sim::{
    check_attribution, simulate, simulate_decoded_opts, simulate_decoded_traced_opts,
    CycleAttribution, MachineConfig, OccupancySummary, QueueTraceStats, SimOptions, SimResult,
    TraceAggregator, TraceSink,
};
use gmt_workloads::Workload;
use std::fmt::Write as _;
use std::time::Instant;

/// One generated program of a cell, ready for every executor.
#[derive(Clone, Debug)]
pub struct CompiledVariant {
    /// `"mtcg"` (baseline) or `"coco"`.
    pub name: &'static str,
    /// The pipeline's output: threads, plan, timings, static estimate.
    pub parallelized: Parallelized,
    /// The threads lowered once for the decoded executors.
    pub program: DecodedProgram,
    /// The simulated machine: the default machine at the scheduler's
    /// paper queue depth.
    pub machine: MachineConfig,
    /// The functional queue file matching `machine`.
    pub queues: QueueConfig,
}

/// One kernel × scheduler, compiled the way every mode measures it:
/// one PDG, one partition, baseline MTCG and MTCG+COCO over it.
#[derive(Clone, Debug)]
pub struct CompiledCell<'w> {
    /// The kernel.
    pub workload: &'w Workload,
    /// The scheduler that partitioned it.
    pub kind: SchedulerKind,
    /// Arguments of the measured input (train for [`Scale::Quick`], ref
    /// for [`Scale::Full`]); the profile always comes from train.
    pub args: &'w [i64],
    /// The dependence graph both variants were generated from.
    pub pdg: Pdg,
    /// Programs GREMIO's arbitration timed on the train input: every
    /// candidate schedule and the sequential program it is guarded
    /// against (0 for DSWP, which arbitrates nothing).
    pub arb_probes: u64,
    /// Programs GREMIO's arbitration compiled: one per candidate
    /// schedule, plus the single-threaded layout when it wins (0 for
    /// DSWP).
    pub arb_compiles: u64,
    /// Baseline MTCG.
    pub mtcg: CompiledVariant,
    /// MTCG + COCO, over the same partition.
    pub coco: CompiledVariant,
    /// The arbitration's runs of this cell's measured input, for the
    /// evaluation to read instead of simulating them again; empty on
    /// ref inputs, which the arbitration never runs, and for DSWP.
    pub(crate) train_runs: TrainRuns,
}

/// Runs GREMIO's arbitration simulated on the train input that an
/// evaluation on train inputs would otherwise simulate again. Each is
/// the run a fresh simulation of the same program, input and machine
/// reports, field for field.
#[derive(Clone, Debug, Default)]
pub(crate) struct TrainRuns {
    /// The sequential program on the default machine: the baseline the
    /// candidates were timed against.
    pub(crate) seq: Option<SimResult>,
    /// The winning candidate's COCO program on its machine — the run of
    /// the cell's COCO variant; `None` when the single-threaded layout
    /// won, whose program no arbitration run executed.
    pub(crate) coco: Option<SimResult>,
}

/// What GREMIO's arbitration hands to the cell besides the partition.
struct Arbitration {
    /// The COCO variant compiled over the chosen partition.
    coco: CompiledVariant,
    /// See [`CompiledCell::arb_probes`].
    probes: u64,
    /// See [`CompiledCell::arb_compiles`].
    compiles: u64,
    /// The train runs it made that an evaluation would repeat.
    runs: TrainRuns,
}

/// The raw-event log size the aggregator counts `dropped_events`
/// against; it stores no event, and its summary tables cover the whole
/// run.
pub const TRACE_RING_CAPACITY: usize = 4096;

/// One traced execution of a variant: the run-level record every mode
/// reports, plus what the [`TraceAggregator`] saw of the run.
/// `--explain` ([`crate::ExplainCell`]) wraps one.
#[derive(Clone, Debug)]
pub struct TracedRun {
    /// The run level: identity, counts, cycles, raw stall counters.
    pub run: RunMetrics,
    /// Per-thread cycle decomposition; each entry sums to `run.cycles`.
    pub attribution: Vec<CycleAttribution>,
    /// Per-queue communication counters (indexed by queue id).
    pub queues: Vec<QueueTraceStats>,
    /// Per-queue time-weighted occupancy distribution (p50/p95/max
    /// dwell levels; indexed by queue id, parallel to `queues`).
    pub occupancy: Vec<OccupancySummary>,
    /// Static queue labels from MTCG (one per scheduled occurrence).
    pub labels: Vec<QueueLabel>,
    /// Raw events beyond the [`TRACE_RING_CAPACITY`] most recent (the
    /// summaries above and the critical path cover the whole run).
    pub dropped_events: u64,
}

impl TracedRun {
    /// Appends the traced level's keys after the run's (see
    /// [`RunMetrics::to_json`]).
    pub(crate) fn write_keys(&self, out: &mut String) {
        self.run.write_keys(out);
        let _ = write!(out, ",\"dropped_events\":{}", self.dropped_events);
    }
}

impl CompiledCell<'_> {
    /// The COCO variant if `coco`, else baseline MTCG.
    pub fn variant(&self, coco: bool) -> &CompiledVariant {
        if coco {
            &self.coco
        } else {
            &self.mtcg
        }
    }

    /// Simulates `v` on the measured input with a [`TraceAggregator`]
    /// and `extra` attached, and checks the attribution invariant
    /// (every core's decomposition sums to the run's cycle count).
    /// The one place a [`TracedRun`] is built.
    pub(crate) fn simulate_traced<S: TraceSink>(
        &self,
        v: &CompiledVariant,
        extra: S,
    ) -> Result<(TracedRun, SimResult, S), HarnessError> {
        let (w, b) = (self.workload, self.workload.benchmark);
        let started = Instant::now();
        let ncores = v.program.threads().len();
        let aggregator = TraceAggregator::new(ncores, v.machine.sa.num_queues, TRACE_RING_CAPACITY);
        let mut sink = (aggregator, extra);
        let opts = SimOptions::default();
        let result =
            simulate_decoded_traced_opts(&v.program, self.args, w.init, &v.machine, &mut sink, opts)
                .map_err(fail(b, "traced sim"))?;
        let (aggregator, extra) = sink;
        check_attribution(&aggregator, &result).map_err(fail(b, "attribution check"))?;
        let traced = TracedRun {
            run: run_record(self, v, Some(started), sim_counts(&result), Some(&result)),
            attribution: aggregator.core_attribution(),
            queues: aggregator.queue_stats().to_vec(),
            occupancy: aggregator.queue_occupancy(),
            labels: v.parallelized.queue_labels().to_vec(),
            dropped_events: aggregator.dropped_events(),
        };
        Ok((traced, result, extra))
    }
}

/// Compiles one kernel under one scheduler (see the module docs).
///
/// DSWP uses the analytic partitioner directly. For GREMIO — whose
/// candidate schedules' real throughput depends on queue round-trips
/// the analytic score cannot see — the candidates are arbitrated by
/// *timed runs of the generated (COCO) code on the train input*:
/// profile-guided partition selection, with the single-threaded
/// fallback guaranteeing the partitioner never degrades the program.
///
/// # Errors
///
/// Returns a [`HarnessError`] naming the benchmark and the failing
/// phase. A GREMIO candidate that fails to compile simply loses the
/// arbitration; only a failure on the *chosen* partition surfaces.
pub fn compile_cell(
    w: &Workload,
    kind: SchedulerKind,
    scale: Scale,
) -> Result<CompiledCell<'_>, HarnessError> {
    let b = w.benchmark;
    // Only the profile is kept: the run's final memory image (512 KB
    // for mpeg2enc) would otherwise stay live through the arbitration.
    let profile = w.run_train().map_err(fail(b, "train run"))?.profile;
    let profile = &profile;
    let t = Instant::now();
    let pdg = Pdg::build(&w.function);
    let pdg_build_ns = t.elapsed().as_nanos() as u64;
    let t = Instant::now();
    let (partition, arbitrated) = match kind.scheduler() {
        Scheduler::Dswp(cfg) => (
            gmt_sched::dswp::partition(&w.function, &pdg, profile, &cfg)
                .map_err(fail(b, "dswp partition"))?,
            None,
        ),
        Scheduler::Gremio(cfg) => {
            let (partition, arbitrated) = arbitrate(w, profile, &pdg, &cfg)?;
            (partition, Some(arbitrated))
        }
    };
    let partition_ns = t.elapsed().as_nanos() as u64;
    let compile = |coco: bool| compile_variant(w, kind, profile, &pdg, &partition, coco);
    let with_shared_phases = |mut v: CompiledVariant| {
        v.parallelized.timings.pdg_build_ns = pdg_build_ns;
        v.parallelized.timings.partition_ns = partition_ns;
        v
    };
    let mtcg = with_shared_phases(compile(false)?);
    let Arbitration { coco, probes, compiles, runs } = match arbitrated {
        Some(arbitrated) => arbitrated,
        None => {
            let coco = compile(true)?;
            Arbitration { coco, probes: 0, compiles: 0, runs: TrainRuns::default() }
        }
    };
    let (args, train_runs) = match scale {
        Scale::Quick => (&w.train_args[..], runs),
        Scale::Full => (&w.ref_args[..], TrainRuns::default()),
    };
    Ok(CompiledCell {
        workload: w,
        kind,
        args,
        arb_probes: probes,
        arb_compiles: compiles,
        mtcg,
        coco: with_shared_phases(coco),
        train_runs,
        pdg,
    })
}

/// Generates, decodes and configures one variant over `partition`.
fn compile_variant(
    w: &Workload,
    kind: SchedulerKind,
    profile: &Profile,
    pdg: &Pdg,
    partition: &Partition,
    coco: bool,
) -> Result<CompiledVariant, HarnessError> {
    let b = w.benchmark;
    let (name, phase) = if coco {
        ("coco", "coco parallelization")
    } else {
        ("mtcg", "baseline parallelization")
    };
    let mut parallelizer = Parallelizer::new(kind.scheduler());
    if coco {
        parallelizer = parallelizer.with_coco(CocoConfig::default());
    }
    let parallelized = parallelizer
        .parallelize_with_partition(&w.function, profile, pdg, partition.clone())
        .map_err(fail(b, phase))?;
    let program = DecodedProgram::decode(parallelized.threads()).map_err(fail(b, "decode"))?;
    // MTCG's queue allocation (`gmt_mtcg::queues`, the paper's footnote
    // 1) folds every plan into the 256-queue synchronization array, so
    // the default array always fits.
    let machine = MachineConfig::default().with_queue_depth(kind.queue_depth());
    let queues = QueueConfig {
        num_queues: parallelized.num_queues().max(1) as usize,
        capacity: kind.queue_depth(),
    };
    Ok(CompiledVariant { name, parallelized, program, machine, queues })
}

/// GREMIO's timed arbitration: each genuinely parallel candidate is
/// compiled (with COCO) and simulated on the train input once, and so
/// is the sequential program — the function itself, decoded once, on
/// the default machine; the fastest candidate is kept unless it clearly
/// loses (>10% slower) to the sequential run, in which case the
/// single-threaded layout (every instruction on thread 0) is compiled
/// and chosen. That layout's train run equals the sequential run on
/// every kernel (cycles, core-0 statistics, engine steps, hit levels:
/// its thread 0 is the function's op stream, its thread 1 a lone
/// `ret`), so timing the function decides exactly as timing the
/// compiled layout did, and the layout is compiled only when it wins.
///
/// Returns the chosen partition and what the cell takes over: the COCO
/// variant compiled over it — the cell's COCO variant, so nothing
/// compiles it a second time — the work counters, and the sequential
/// and winning runs, which an evaluation on train inputs reads instead
/// of simulating them again.
fn arbitrate(
    w: &Workload,
    profile: &Profile,
    pdg: &Pdg,
    cfg: &GremioConfig,
) -> Result<(Partition, Arbitration), HarnessError> {
    let candidates = gmt_sched::gremio::candidates(&w.function, pdg, profile, cfg)
        .map_err(fail(w.benchmark, "gremio candidate enumeration"))?;
    // "Genuinely parallel" = the lighter thread owns a meaningful share
    // of the code, not a token offload.
    let block_weights = profile.block_weights(&w.function);
    let meaningful = |p: &Partition| {
        let sizes = p.dynamic_sizes(|i| block_weights[w.function.block_of(i).index()].max(1));
        let total: u64 = sizes.iter().sum();
        sizes.iter().filter(|&&s| s > 0).count() > 1
            && sizes.iter().min().copied().unwrap_or(0) * 10 >= total
    };
    let compile = |p: &Partition| compile_variant(w, SchedulerKind::Gremio, profile, pdg, p, true);
    // A program that fails to compile or simulate scores u64::MAX and
    // loses.
    let cycles = |run: &Option<SimResult>| run.as_ref().map_or(u64::MAX, |r| r.cycles);
    let mut compiles = 0;
    let best = candidates
        .into_iter()
        .map(|(_, p)| p)
        .filter(|p| meaningful(p))
        .map(|p| {
            compiles += 1;
            let compiled = compile(&p);
            let run = compiled.as_ref().ok().and_then(|v| {
                let opts = SimOptions::default();
                simulate_decoded_opts(&v.program, &w.train_args, w.init, &v.machine, opts).ok()
            });
            (p, compiled, run)
        })
        .min_by_key(|(.., run)| cycles(run));
    let (mut probes, mut seq) = (compiles, None);
    if let Some((partition, compiled, run)) = best {
        probes += 1;
        let function = std::slice::from_ref(&w.function);
        seq = simulate(function, &w.train_args, w.init, &MachineConfig::default()).ok();
        if cycles(&run) as f64 <= cycles(&seq) as f64 * 1.10 {
            let runs = TrainRuns { seq, coco: run };
            return Ok((partition, Arbitration { coco: compiled?, probes, compiles, runs }));
        }
    }
    // Nothing to time against, or the winner clearly loses: the true
    // single-threaded layout, not a token-offload candidate.
    let single = Partition::single_threaded(&w.function, cfg.num_threads);
    let coco = compile(&single)?;
    let runs = TrainRuns { seq, coco: None };
    Ok((single, Arbitration { coco, probes, compiles: compiles + 1, runs }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmt_pdg::ThreadId;

    /// The deterministic work counters of GREMIO's arbitration: over the
    /// 11-kernel matrix it simulates 22 candidates + 11 sequential runs
    /// on train inputs, each exactly once, and compiles the 22
    /// candidates plus the single-threaded layout on the three kernels
    /// where that layout wins (it is compiled only then). A cell keeps
    /// the train runs only when it measures train inputs.
    #[test]
    fn gremio_arbitration_times_33_candidates() {
        let (mut probes, mut compiles, mut fallbacks) = (0, 0, Vec::new());
        for w in gmt_workloads::catalog() {
            let cell = compile_cell(&w, SchedulerKind::Gremio, Scale::Quick).unwrap();
            probes += cell.arb_probes;
            compiles += cell.arb_compiles;
            assert!(cell.train_runs.seq.is_some(), "{}: the sequential run", w.benchmark);
            let partition = &cell.coco.parallelized.partition;
            if w.function.all_instrs().all(|i| partition.get(i) == Some(ThreadId(0))) {
                assert!(cell.train_runs.coco.is_none(), "{}: no run of the layout", w.benchmark);
                fallbacks.push(w.benchmark);
            } else {
                assert!(cell.train_runs.coco.is_some(), "{}: the winner's run", w.benchmark);
            }
        }
        assert_eq!((probes, compiles), (33, 25));
        assert_eq!(fallbacks, ["adpcmenc", "177.mesa", "183.equake"]);
        let w = gmt_workloads::by_benchmark("ks").unwrap();
        let full = compile_cell(&w, SchedulerKind::Gremio, Scale::Full).unwrap();
        assert_eq!((full.arb_probes, full.arb_compiles), (3, 2));
        assert!(full.train_runs.seq.is_none() && full.train_runs.coco.is_none(), "ref inputs");
    }

    /// What licenses timing the sequential program in place of the
    /// compiled single-threaded layout: on every kernel the layout's
    /// train run (GREMIO's machine, thread 1 a lone `ret`) equals the
    /// sequential run on the default machine in cycles, core-0
    /// statistics, engine steps, hit levels and observables, so the
    /// arbitration decides as it did when it timed the layout.
    #[test]
    fn single_threaded_layout_runs_as_the_sequential_program() {
        for w in gmt_workloads::catalog() {
            let b = w.benchmark;
            let profile = w.run_train().unwrap().profile;
            let pdg = Pdg::build(&w.function);
            let single = Partition::single_threaded(&w.function, 2);
            let v = compile_variant(&w, SchedulerKind::Gremio, &profile, &pdg, &single, true)
                .unwrap();
            let opts = SimOptions::default();
            let layout = simulate_decoded_opts(&v.program, &w.train_args, w.init, &v.machine, opts)
                .unwrap();
            let function = std::slice::from_ref(&w.function);
            let seq = simulate(function, &w.train_args, w.init, &MachineConfig::default()).unwrap();
            assert_eq!(layout.cycles, seq.cycles, "{b}: cycles");
            assert_eq!(layout.cores[0], seq.cores[0], "{b}: core 0");
            assert_eq!(layout.cores.len(), 2, "{b}: thread 1 is there");
            assert_eq!(layout.cores[1].total_instrs(), 1, "{b}: thread 1 retires its `ret` alone");
            let steps = |r: &SimResult| (r.engine_steps, r.skipped_cycles);
            assert_eq!(steps(&layout), steps(&seq), "{b}: engine steps");
            let hits = |r: &SimResult| [r.hits_l1, r.hits_l2, r.hits_l3, r.hits_mem];
            assert_eq!(hits(&layout), hits(&seq), "{b}: hit levels");
            assert_eq!((&layout.output, layout.return_value), (&seq.output, seq.return_value), "{b}");
        }
    }

    /// What arbitration hands over is the cell's COCO variant: on every
    /// GREMIO cell it decodes `==` to compiling the chosen partition
    /// afresh, the way `compile_cell` did before the hand-over.
    #[test]
    fn arbitration_hands_over_the_chosen_partitions_coco_variant() {
        for w in gmt_workloads::catalog() {
            let cell = compile_cell(&w, SchedulerKind::Gremio, Scale::Quick).unwrap();
            let chosen = &cell.mtcg.parallelized.partition;
            assert_eq!(&cell.coco.parallelized.partition, chosen, "{}", w.benchmark);
            let profile = w.run_train().unwrap().profile;
            let afresh =
                compile_variant(&w, SchedulerKind::Gremio, &profile, &cell.pdg, chosen, true).unwrap();
            assert_eq!(cell.coco.program, afresh.program, "{}", w.benchmark);
            assert_eq!(cell.coco.name, "coco");
            assert_eq!((&cell.coco.machine, &cell.coco.queues), (&afresh.machine, &afresh.queues));
            let t = cell.coco.parallelized.timings;
            assert_eq!(
                (t.pdg_build_ns, t.partition_ns),
                (cell.mtcg.parallelized.timings.pdg_build_ns, cell.mtcg.parallelized.timings.partition_ns),
                "{}: the shared phases are patched into the handed-over variant too",
                w.benchmark
            );
            assert!(t.coco_ns > 0 && t.mtcg_ns > 0, "{}: its own compile timings", w.benchmark);
        }
    }

    #[test]
    fn dswp_builds_one_partition_for_both_variants() {
        let w = gmt_workloads::by_benchmark("ks").unwrap();
        let cell = compile_cell(&w, SchedulerKind::Dswp, Scale::Full).unwrap();
        assert_eq!(cell.arb_probes, 0, "DSWP arbitrates nothing");
        assert_eq!(cell.args, &w.ref_args[..]);
        assert_eq!(cell.mtcg.parallelized.partition, cell.coco.parallelized.partition);
        assert_eq!((cell.mtcg.name, cell.coco.name), ("mtcg", "coco"));
        assert_eq!(cell.coco.queues.capacity, 32);
        assert_eq!(cell.coco.machine.sa.depth, 32);
    }
}
