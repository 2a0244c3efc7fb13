//! The one compiled cell of the experiment matrix.
//!
//! The paper's §4 methodology is one recipe per kernel × scheduler:
//! profile on the train input, build the PDG, partition, generate
//! baseline MTCG and MTCG+COCO code over that partition, measure.
//! [`compile_cell`] is that recipe, spelled once, for any thread count;
//! every mode of the harness ([`crate::evaluate_full`],
//! [`crate::explain_cell`], [`crate::verify_matrix`], all at two
//! threads, and [`crate::coco_study`] at two and four) obtains its
//! programs, machine and queue file from it, so what the verification
//! matrix verifies, `--explain` explains and the ablations count is
//! exactly what the figures measure. The
//! profile that guides a cell's partition is always train's; `--explain`
//! estimates under a profile of the input it measures.
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

use crate::{fail, HarnessError, Scale, SchedulerKind};
use gmt_core::{CocoConfig, Parallelized, Parallelizer, Scheduler};
use gmt_ir::decoded::DecodedProgram;
use gmt_ir::interp_mt::QueueConfig;
use gmt_ir::Profile;
use gmt_pdg::{Partition, Pdg};
use gmt_sched::gremio::GremioConfig;
use gmt_sim::{simulate, simulate_decoded_opts, MachineConfig, SimOptions, SimResult};
use gmt_workloads::Workload;
use std::time::Instant;

/// One generated program of a cell, ready for every executor.
#[derive(Clone, Debug)]
pub struct CompiledVariant {
    /// `"mtcg"` (baseline) or `"coco"`.
    pub name: &'static str,
    /// The pipeline's output: threads, plan, partition, timings.
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
    /// for [`Scale::Full`]); the profile that guided the partition
    /// always comes from train.
    pub args: &'w [i64],
    /// The dependence graph both variants were generated from.
    pub pdg: Pdg,
    /// The train profile that guided the partition and COCO.
    pub(crate) profile: Profile,
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

impl CompiledCell<'_> {
    /// The COCO variant if `coco`, else baseline MTCG.
    pub fn variant(&self, coco: bool) -> &CompiledVariant {
        if coco {
            &self.coco
        } else {
            &self.mtcg
        }
    }
}

/// Compiles one kernel under one scheduler for `threads` threads (see
/// the module docs). The figures, `--explain` and the verification
/// matrix compile two-thread cells.
///
/// DSWP uses the analytic partitioner directly. For GREMIO — whose
/// candidate schedules' real throughput depends on queue round-trips
/// the analytic score cannot see — the candidates are arbitrated by
/// *timed runs of the generated (COCO) code on the train input*:
/// profile-guided partition selection, with a single-threaded fallback
/// only when the fastest candidate is more than 10 % slower than the
/// sequential program. A candidate up to 10 % slower is kept, so the
/// chosen partition can lose to sequential: `repro --quick --fig 8`
/// ships ks at 0.95× and 435.gromacs at 0.94×. A candidate is timed
/// only if each of its threads that holds code holds at least 10 % of
/// the dynamic weight; at four threads 4 of the 11 kernels fall back.
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
    threads: u32,
) -> Result<CompiledCell<'_>, HarnessError> {
    let b = w.benchmark;
    // Only the profile is kept: the run's final memory image (512 KB
    // for mpeg2enc) would otherwise stay live through the arbitration.
    let profile = w.run_train().map_err(fail(b, "train run"))?.profile;
    let t = Instant::now();
    let pdg = Pdg::build(&w.function);
    let pdg_build_ns = t.elapsed().as_nanos() as u64;
    let t = Instant::now();
    let (partition, arbitrated) = match kind.scheduler_n(threads) {
        Scheduler::Dswp(cfg) => (
            gmt_sched::dswp::partition(&w.function, &pdg, &profile, &cfg)
                .map_err(fail(b, "dswp partition"))?,
            None,
        ),
        Scheduler::Gremio(cfg) => {
            let (partition, arbitrated) = arbitrate(w, &profile, &pdg, &cfg)?;
            (partition, Some(arbitrated))
        }
    };
    let partition_ns = t.elapsed().as_nanos() as u64;
    let compile = |coco: Option<&CocoConfig>| {
        compile_variant(w, kind, threads, &profile, &pdg, &partition, coco)
    };
    let with_shared_phases = |mut v: CompiledVariant| {
        v.parallelized.timings.pdg_build_ns = pdg_build_ns;
        v.parallelized.timings.partition_ns = partition_ns;
        v
    };
    let mtcg = with_shared_phases(compile(None)?);
    let Arbitration { coco, probes, compiles, runs } = match arbitrated {
        Some(arbitrated) => arbitrated,
        None => {
            let coco = compile(Some(&CocoConfig::default()))?;
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
        profile,
    })
}

/// Generates, decodes and configures one variant over `partition`:
/// baseline MTCG, or MTCG+COCO under `coco`.
pub(crate) fn compile_variant(
    w: &Workload,
    kind: SchedulerKind,
    threads: u32,
    profile: &Profile,
    pdg: &Pdg,
    partition: &Partition,
    coco: Option<&CocoConfig>,
) -> Result<CompiledVariant, HarnessError> {
    let b = w.benchmark;
    let (name, phase) = if coco.is_some() {
        ("coco", "coco parallelization")
    } else {
        ("mtcg", "baseline parallelization")
    };
    let mut parallelizer = Parallelizer::new(kind.scheduler_n(threads));
    if let Some(config) = coco {
        parallelizer = parallelizer.with_coco(config.clone());
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
    // "Genuinely parallel" = at least two threads hold code, and the
    // lightest of them owns a meaningful share of it, not a token
    // offload. Threads left empty do not count: at two threads that is
    // the same rule, at four it keeps a two-thread split.
    let block_weights = profile.block_weights(&w.function);
    let meaningful = |p: &Partition| {
        let sizes = p.dynamic_sizes(|i| block_weights[w.function.block_of(i).index()].max(1));
        let used = || sizes.iter().copied().filter(|&s| s > 0);
        used().count() > 1 && used().min().unwrap_or(0) * 10 >= used().sum::<u64>()
    };
    let (threads, coco) = (cfg.num_threads, CocoConfig::default());
    let compile = |p: &Partition| {
        compile_variant(w, SchedulerKind::Gremio, threads, profile, pdg, p, Some(&coco))
    };
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
    let single = Partition::single_threaded(&w.function, threads);
    let coco = compile(&single)?;
    let runs = TrainRuns { seq, coco: None };
    Ok((single, Arbitration { coco, probes, compiles: compiles + 1, runs }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmt_pdg::ThreadId;

    /// The deterministic work counters of GREMIO's arbitration: over the
    /// 11-kernel matrix at two threads it simulates 22 candidates + 11
    /// sequential runs on train inputs, each exactly once, and compiles
    /// the 22 candidates plus the single-threaded layout on the three
    /// kernels where that layout wins (it is compiled only then). At
    /// four threads it simulates 15 candidates + 10 sequential runs and
    /// compiles the layout on four kernels: the fastest candidate of
    /// adpcmdec, 183.equake and 458.sjeng is more than 10 % slower than
    /// sequential, and 177.mesa has no candidate whose threads that
    /// hold code all hold 10 % of it, so nothing is timed there. A cell
    /// keeps the train runs only when it measures train inputs.
    #[test]
    fn gremio_arbitration_times_33_candidates() {
        // (threads, (probes, compiles), fallbacks, kernels with no
        // candidate to time, whose sequential run is not needed either)
        let pins: [(u32, (u64, u64), &[&str], &[&str]); 2] = [
            (2, (33, 25), &["adpcmenc", "177.mesa", "183.equake"], &[]),
            (4, (25, 19), &["adpcmdec", "177.mesa", "183.equake", "458.sjeng"], &["177.mesa"]),
        ];
        for (threads, work, want, want_untimed) in pins {
            let (mut probes, mut compiles) = (0, 0);
            let (mut fallbacks, mut untimed) = (Vec::new(), Vec::new());
            for w in gmt_workloads::catalog() {
                let cell = compile_cell(&w, SchedulerKind::Gremio, Scale::Quick, threads).unwrap();
                probes += cell.arb_probes;
                compiles += cell.arb_compiles;
                let at = format!("{} at {threads} threads", w.benchmark);
                if cell.train_runs.seq.is_none() {
                    assert_eq!(cell.arb_probes, 0, "{at}: the sequential run");
                    untimed.push(w.benchmark);
                }
                let partition = &cell.coco.parallelized.partition;
                assert_eq!(partition.num_threads(), threads, "{at}");
                if w.function.all_instrs().all(|i| partition.get(i) == Some(ThreadId(0))) {
                    assert!(cell.train_runs.coco.is_none(), "{at}: no run of the layout");
                    fallbacks.push(w.benchmark);
                } else {
                    assert!(cell.train_runs.coco.is_some(), "{at}: the winner's run");
                }
            }
            assert_eq!((probes, compiles), work, "{threads} threads");
            assert_eq!(fallbacks, want, "{threads} threads");
            assert_eq!(untimed, want_untimed, "{threads} threads");
        }
        let w = gmt_workloads::by_benchmark("ks").unwrap();
        let full = compile_cell(&w, SchedulerKind::Gremio, Scale::Full, 2).unwrap();
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
            let coco = Some(&CocoConfig::default());
            let v = compile_variant(&w, SchedulerKind::Gremio, 2, &profile, &pdg, &single, coco)
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
            let cell = compile_cell(&w, SchedulerKind::Gremio, Scale::Quick, 2).unwrap();
            let chosen = &cell.mtcg.parallelized.partition;
            assert_eq!(&cell.coco.parallelized.partition, chosen, "{}", w.benchmark);
            let profile = w.run_train().unwrap().profile;
            let coco = Some(&CocoConfig::default());
            let afresh =
                compile_variant(&w, SchedulerKind::Gremio, 2, &profile, &cell.pdg, chosen, coco)
                    .unwrap();
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
        let cell = compile_cell(&w, SchedulerKind::Dswp, Scale::Full, 2).unwrap();
        assert_eq!(cell.arb_probes, 0, "DSWP arbitrates nothing");
        assert_eq!(cell.args, &w.ref_args[..]);
        assert_eq!(cell.mtcg.parallelized.partition, cell.coco.parallelized.partition);
        assert_eq!((cell.mtcg.name, cell.coco.name), ("mtcg", "coco"));
        assert_eq!(cell.coco.queues.capacity, 32);
        assert_eq!(cell.coco.machine.sa.depth, 32);
    }
}
