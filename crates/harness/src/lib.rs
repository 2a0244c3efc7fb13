//! Experiment drivers that regenerate every table and figure of the
//! paper's evaluation (§4): Figure 1 (communication breakdown under
//! baseline MTCG), Figure 6 (machine and benchmark tables), Figure 7
//! (relative dynamic communication after COCO), and Figure 8 (speedup
//! over single-threaded execution without and with COCO).
//!
//! Every *distinct* measured program is executed **once** per
//! evaluation. An untimed evaluation (Figures 1 and 7 on their own)
//! runs it on the functional interpreter, the faster instrument when
//! only dynamic instruction counts are wanted. A timed evaluation
//! (Figure 8, `--fig all`) runs it on the `gmt-sim`
//! machine model and takes the counts from what the simulated cores
//! retired as well as the cycles — the two executors agree on those
//! counts per thread (the fuzz oracle's interpreter ↔ simulator edge,
//! and this crate's
//! `timed_counts_equal_untimed_counts_on_all_quick_cells`). Where COCO
//! finds nothing cheaper than MTCG's placement (Figure 7's 0.0 % rows,
//! half the matrix) the two variants of a cell are one program whose
//! queues are numbered differently
//! ([`DecodedProgram::queue_renaming`](gmt_ir::decoded::DecodedProgram::queue_renaming));
//! a queue's number is not observable by either executor (law:
//! `tests/queue_renaming.rs`), so the cell runs that program once and
//! the COCO record, flagged [`RunMetrics::shared_run`], is a copy of
//! the baseline's. Once per evaluation means once per *compiled cell*,
//! arbitration included: GREMIO's timed arbitration
//! ([`compile_cell`]) simulates the sequential program and every
//! candidate on the train input, so a timed evaluation on train inputs
//! ([`Scale::Quick`]) takes `seq_instrs`/`seq_cycles` from the
//! arbitration's sequential run and the COCO record — and the baseline
//! record, when the two variants share a run — from the winner's run
//! instead of simulating them again (69 simulations for a timed quick
//! matrix where there were 88; [`Evaluation::simulations`]). A
//! handed-over record reports every field a fresh run would; its
//! `wall_ns` is the compile phases only, because the run's host time
//! is inside `partition_ns`. Profiles are always collected on *train*
//! inputs and measurements on *ref* inputs. Every mode — figures,
//! `--explain`, [`verify_matrix`] and the ablations' [`coco_study`] —
//! obtains its programs from the one [`compile_cell`],
//! so they all measure the same code.
//!
//! The experiment matrix is embarrassingly parallel, so [`run_all`]
//! fans the per-benchmark evaluations out over the
//! [`gmt_testkit::par_map`] worker pool (`GMT_JOBS` workers, default
//! available parallelism). Results come back in catalog order, so the
//! rendered figures are byte-identical to a serial run. A failing
//! workload produces a [`HarnessError`] naming the benchmark and the
//! phase that failed; the remaining rows of the figure still print.
//!
//! A single [`evaluate_full`] call — one cell, as a client that
//! evaluates cell by cell makes it — overlaps one pair of runs instead.
//! Timed on ref inputs, the sequential program's simulation (the
//! Figure 8 baseline, read only when the [`Evaluation`] is assembled)
//! runs on a second thread while the calling thread compiles the cell
//! and measures its MTCG and COCO variants; the result, the
//! [`Evaluation::simulations`] count and the order in which errors are
//! reported are the serial evaluation's. Only ref inputs: on train
//! inputs GREMIO's arbitration hands the sequential run over, and a
//! DSWP helper measured no gain for more peak memory. Only outside the
//! pool: [`run_workloads`] already keeps every CPU busy with one cell
//! per worker, so its evaluations never start the helper, and
//! `GMT_JOBS=1` starts no thread anywhere.
//!
//! Each evaluation also records per-run observability — wall-clock
//! time, dynamic-instruction and cycle counts, and compile-phase
//! timings (PDG build, partition, COCO, MTCG) — as [`RunMetrics`]
//! ([`Evaluation::metrics`]). Records nest by the depth a run was
//! observed at: an [`ExplainCell`] (`--explain`, whose `--trace PATH`
//! also writes the run's Chrome trace) is a traced run's
//! [`RunMetrics`] — on every field the run determines, the timed
//! evaluation's record of the same variant — with what the trace and
//! the scheduler's estimate for the same input add, so `--explain
//! --json` prints the run-level keys followed by the deeper ones, in
//! one flat object that starts with `"schema":1`.
//!
//! The `repro` binary prints any of the figures:
//!
//! ```text
//! repro --fig 7            # Figure 7 rows
//! repro --fig all --quick  # everything, at reduced input sizes
//! repro --explain all --scheduler both --quick --json  # run records
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use gmt_core::{CocoConfig, Scheduler};
use gmt_ir::interp::DynCounts;
use gmt_ir::interp_mt::run_mt_decoded;
use gmt_sim::{
    simulate, simulate_decoded_opts, MachineConfig, SimOptions, SimResult, StallCycles,
};
use gmt_workloads::{catalog, exec_config, Workload};
use std::sync::OnceLock;
use std::time::Instant;

pub use cell::{compile_cell, CompiledCell, CompiledVariant};
pub use explain::{
    explain_cell, explain_cell_with, explain_json, explain_report, verdict, ExplainCell,
    EXPLAIN_TOP_K, TRACE_RING_CAPACITY,
};
pub use metrics::RunMetrics;
pub use verify::{verify_matrix, VerifyCell};

/// Which partitioner an experiment uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedulerKind {
    /// GREMIO with single-element queues.
    Gremio,
    /// DSWP with 32-element queues.
    Dswp,
}

impl SchedulerKind {
    /// The scheduler configuration for `n` threads.
    pub fn scheduler_n(self, n: u32) -> Scheduler {
        match self {
            SchedulerKind::Gremio => Scheduler::gremio(n),
            SchedulerKind::Dswp => Scheduler::dswp(n),
        }
    }

    /// Queue depth per the paper, [`Scheduler::queue_depth`] (the same
    /// at every thread count).
    pub fn queue_depth(self) -> usize {
        self.scheduler_n(2).queue_depth()
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::Gremio => "GREMIO",
            SchedulerKind::Dswp => "DSWP",
        }
    }
}

/// A failure of one benchmark's evaluation: which benchmark, in which
/// phase, and the underlying error rendered as text.
///
/// One failing kernel must not abort a whole figure, so every
/// fallible step of [`evaluate_full`] maps into this type instead of
/// panicking; [`run_all`] returns it per-slot and the figure renderers
/// print a failure line in the benchmark's row position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HarnessError {
    /// The benchmark whose evaluation failed.
    pub benchmark: &'static str,
    /// The phase that failed (e.g. `"train run"`, `"timed MTCG sim"`).
    pub phase: &'static str,
    /// The underlying error, rendered.
    pub source: String,
}

impl std::fmt::Display for HarnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {} failed: {}", self.benchmark, self.phase, self.source)
    }
}

impl std::error::Error for HarnessError {}

/// `map_err` adapter tagging an error with its benchmark and phase.
fn fail<E: std::fmt::Display>(
    benchmark: &'static str,
    phase: &'static str,
) -> impl FnOnce(E) -> HarnessError {
    move |e| HarnessError { benchmark, phase, source: e.to_string() }
}

/// Dynamic results of one parallelized variant of one kernel.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VariantResult {
    /// Dynamic instruction counts, summed over threads.
    pub counts: DynCounts,
    /// Cycle count from the machine model (0 if not timed).
    pub cycles: u64,
}

/// The full measurement of one kernel under one scheduler.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Benchmark name (Figure 6b).
    pub benchmark: &'static str,
    /// Sequential dynamic instructions on the measured input.
    pub seq_instrs: u64,
    /// Sequential cycle count (0 if not timed).
    pub seq_cycles: u64,
    /// Baseline MTCG.
    pub mtcg: VariantResult,
    /// MTCG + COCO.
    pub coco: VariantResult,
}

impl BenchResult {
    /// Figure 7's quantity: dynamic communication with COCO relative to
    /// baseline MTCG, in percent (lower is better; 100 = no change).
    pub fn relative_comm_pct(&self) -> f64 {
        let base = self.mtcg.counts.comm_total();
        if base == 0 {
            100.0
        } else {
            self.coco.counts.comm_total() as f64 * 100.0 / base as f64
        }
    }

    /// Figure 8's first bar: MTCG speedup over single-threaded.
    ///
    /// `None` when either side was not timed (cycle count 0) — a mixed
    /// timed/untimed matrix must not fabricate `inf`/`0x` speedups.
    pub fn speedup_mtcg(&self) -> Option<f64> {
        ratio(self.seq_cycles, self.mtcg.cycles)
    }

    /// Figure 8's second bar: MTCG+COCO speedup over single-threaded.
    ///
    /// `None` when either side was not timed (cycle count 0).
    pub fn speedup_coco(&self) -> Option<f64> {
        ratio(self.seq_cycles, self.coco.cycles)
    }

    /// Figure 1's quantity: communication as a percentage of all
    /// dynamic instructions under baseline MTCG.
    pub fn comm_fraction_pct(&self) -> f64 {
        let total = self.mtcg.counts.total();
        if total == 0 {
            0.0
        } else {
            self.mtcg.counts.comm_total() as f64 * 100.0 / total as f64
        }
    }
}

/// `num / den` as a speedup, or `None` when either count is 0 (an
/// untimed run) — guards the accessors against `inf`/NaN.
fn ratio(num: u64, den: u64) -> Option<f64> {
    if num == 0 || den == 0 {
        None
    } else {
        Some(num as f64 / den as f64)
    }
}

/// Input scaling for experiments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Train-sized inputs everywhere (fast; CI and tests).
    Quick,
    /// Ref inputs (the paper's methodology).
    Full,
}

/// One benchmark's full evaluation: the figure-facing [`BenchResult`]
/// plus the per-variant [`RunMetrics`] observability records.
#[derive(Clone, Debug)]
pub struct Evaluation {
    /// The figure-facing measurement.
    pub result: BenchResult,
    /// One record per variant (baseline MTCG, then MTCG+COCO).
    pub metrics: Vec<RunMetrics>,
    /// Runs of the machine model behind this evaluation, the cell's
    /// arbitration probes included: a deterministic work counter (69
    /// over a timed quick matrix, whose sequential and winning GREMIO
    /// runs the arbitration hands over; 88 over a timed full one).
    pub simulations: u64,
}

/// Evaluates one workload under one scheduler: baseline MTCG and
/// MTCG+COCO, dynamic counts, (when `timed`) cycles, and the
/// per-variant [`RunMetrics`]. With more than one worker (`GMT_JOBS`,
/// default available parallelism), a timed evaluation on ref inputs
/// simulates the sequential program on a second thread while this one
/// compiles and measures the cell (see the module docs).
///
/// # Errors
///
/// Returns a [`HarnessError`] naming the benchmark and the failing
/// phase if parallelization or execution fails. A timed evaluation on
/// ref inputs also fails, in phase `worker count`, when `GMT_JOBS` is
/// set but malformed ([`gmt_testkit::parse_jobs`]).
pub fn evaluate_full(
    w: &Workload,
    kind: SchedulerKind,
    timed: bool,
    scale: Scale,
) -> Result<Evaluation, HarnessError> {
    let helper = timed
        && scale == Scale::Full
        && more_than_one_worker().map_err(fail(w.benchmark, "worker count"))?;
    evaluate_on(w, kind, timed, scale, helper)
}

/// Whether the process has more than one worker
/// ([`gmt_testkit::num_jobs_checked`]). Read once, so that every
/// evaluation of a process decides alike and none re-reads the
/// environment or the machine's CPU limits.
fn more_than_one_worker() -> Result<bool, &'static String> {
    static JOBS: OnceLock<Result<usize, String>> = OnceLock::new();
    JOBS.get_or_init(gmt_testkit::num_jobs_checked).as_ref().map(|&jobs| jobs > 1)
}

/// [`evaluate_full`], with `helper` deciding whether a timed
/// evaluation on ref inputs runs its sequential simulation on a helper
/// thread beside the cell's compile and measurements. Either way the
/// evaluation and its errors are the serial one's: the compile phases
/// fail first, then `sequential sim`, then the variants' runs.
fn evaluate_on(
    w: &Workload,
    kind: SchedulerKind,
    timed: bool,
    scale: Scale,
    helper: bool,
) -> Result<Evaluation, HarnessError> {
    if !helper || !timed || scale == Scale::Quick {
        return evaluate_cell(&compile_cell(w, kind, scale, 2)?, timed);
    }
    std::thread::scope(|s| {
        let helper = s.spawn(|| simulate_sequential(w, &w.ref_args));
        let compiled = compile_cell(w, kind, scale, 2).map(|cell| {
            let variants = measure_variants(&cell, timed);
            (cell, variants)
        });
        // Joined here rather than by the scope, so that the helper has
        // exited — and handed its allocator arena back for the next
        // helper to reuse — before this returns; its panic, if any,
        // unwinds on through the scope.
        let seq = helper.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        let (cell, variants) = compiled?;
        Ok(assemble(&cell, timed, seq?, variants?))
    })
}

/// Measures a compiled cell: the sequential program and each distinct
/// variant, once each. A timed evaluation on train inputs reads the
/// sequential run and the winning variant's run from GREMIO's
/// arbitration, which made them already.
fn evaluate_cell(cell: &CompiledCell, timed: bool) -> Result<Evaluation, HarnessError> {
    let w = cell.workload;
    let seq = match (timed, &cell.train_runs.seq) {
        (true, Some(seq)) => (sim_counts(seq).total(), seq.cycles),
        (true, None) => simulate_sequential(w, cell.args)?,
        (false, _) => {
            let seq =
                gmt_ir::interp::run_with_memory(&w.function, cell.args, w.init, &exec_config())
                    .map_err(fail(w.benchmark, "sequential run"))?;
            (seq.counts.total(), 0)
        }
    };
    Ok(assemble(cell, timed, seq, measure_variants(cell, timed)?))
}

/// The sequential program — the function itself on the default
/// machine — simulated on `args`: its retired instructions and cycles.
fn simulate_sequential(w: &Workload, args: &[i64]) -> Result<(u64, u64), HarnessError> {
    let function = std::slice::from_ref(&w.function);
    let sim = simulate(function, args, w.init, &MachineConfig::default())
        .map_err(fail(w.benchmark, "sequential sim"))?;
    Ok((sim_counts(&sim).total(), sim.cycles))
}

/// A cell's two variants, measured: the figure-facing results, their
/// records (baseline MTCG, then MTCG+COCO) and the simulations run.
struct Variants {
    mtcg: VariantResult,
    coco: VariantResult,
    metrics: Vec<RunMetrics>,
    simulations: u64,
}

/// Measures each distinct variant of `cell` once; a timed evaluation
/// on train inputs reads the winning variant's run from GREMIO's
/// arbitration.
fn measure_variants(cell: &CompiledCell, timed: bool) -> Result<Variants, HarnessError> {
    let mut simulations = 0;
    let shared = same_run(&cell.mtcg, &cell.coco);
    // The winner's run is the COCO variant's, and the baseline's too
    // when the two variants are one program.
    let winner = cell.train_runs.coco.as_ref().filter(|_| timed);
    let mtcg_run = winner.filter(|_| shared);
    let (mtcg, base) =
        measure(cell, &cell.mtcg, timed, mtcg_run, &mut simulations, "MTCG run", "timed MTCG sim")?;
    let (coco, opt) = if shared {
        // The run just measured is this variant's too; only compiling
        // it took time of its own.
        let timings = cell.coco.parallelized.timings;
        let shared = RunMetrics {
            variant: cell.coco.name,
            wall_ns: timings.total_ns(),
            timings,
            arb_probes: 0,
            shared_run: true,
            ..base
        };
        (mtcg, shared)
    } else {
        measure(cell, &cell.coco, timed, winner, &mut simulations, "COCO run", "timed COCO sim")?
    };
    Ok(Variants { mtcg, coco, metrics: vec![base, opt], simulations })
}

/// The evaluation of `cell` from its sequential run's `(instructions,
/// cycles)` and its measured variants. The simulations count the
/// arbitration's probes and the sequential run when it was simulated
/// rather than handed over.
fn assemble(cell: &CompiledCell, timed: bool, seq: (u64, u64), v: Variants) -> Evaluation {
    let seq_simulated = u64::from(timed && cell.train_runs.seq.is_none());
    let (seq_instrs, seq_cycles) = seq;
    Evaluation {
        result: BenchResult {
            benchmark: cell.workload.benchmark,
            seq_instrs,
            seq_cycles,
            mtcg: v.mtcg,
            coco: v.coco,
        },
        metrics: v.metrics,
        simulations: cell.arb_probes + seq_simulated + v.simulations,
    }
}

/// Whether executing `a` and executing `b` on one input are the same
/// run under either executor: one program up to the names of its
/// queues, on equal machines (so every queue has one depth) and equal
/// functional queue files.
fn same_run(a: &CompiledVariant, b: &CompiledVariant) -> bool {
    a.machine == b.machine
        && a.queues == b.queues
        && a.program.queue_renaming(&b.program).is_some()
}

/// The dynamic instruction counts of a timed run: what its cores
/// retired, kind by kind, summed — the same numbers the functional
/// interpreter reports for the same program and input.
fn sim_counts(sim: &SimResult) -> DynCounts {
    let mut total = DynCounts::default();
    for core in &sim.cores {
        total.add(core.counts());
    }
    total
}

/// Measures one variant of a compiled cell by executing it once: on
/// the machine model when `timed` (cycles, stalls and the retired
/// counts), otherwise on the functional interpreter (counts only). A
/// timed run of `v` on the measured input that the arbitration already
/// made is `handed` over and recorded instead of executing `v` again.
/// Adds the simulations it runs to `simulations`.
fn measure(
    cell: &CompiledCell,
    v: &CompiledVariant,
    timed: bool,
    handed: Option<&SimResult>,
    simulations: &mut u64,
    run_phase: &'static str,
    sim_phase: &'static str,
) -> Result<(VariantResult, RunMetrics), HarnessError> {
    let w = cell.workload;
    let t = Instant::now();
    let fresh = if timed && handed.is_none() {
        *simulations += 1;
        let opts = SimOptions::default();
        let sim = simulate_decoded_opts(&v.program, cell.args, w.init, &v.machine, opts)
            .map_err(fail(w.benchmark, sim_phase))?;
        Some(sim)
    } else {
        None
    };
    let sim = handed.or(fresh.as_ref());
    let counts = match sim {
        Some(sim) => sim_counts(sim),
        None => run_mt_decoded(&v.program, cell.args, w.init, &v.queues, &exec_config())
            .map_err(fail(w.benchmark, run_phase))?
            .totals(),
    };
    let metrics = run_record(cell, v, handed.is_none().then_some(t), counts, sim);
    Ok((VariantResult { counts, cycles: metrics.cycles }, metrics))
}

/// The run-level record of the one execution of `v` begun at
/// `started`, which retired `counts`: a timed run `sim` (traced or
/// not — a sink does not change what the engine does), or a functional
/// run (`None`: no cycles, stalls or engine steps). A run the
/// arbitration handed over has no `started`: its host time is inside
/// the `partition_ns` of the compile phases already, as a
/// [`RunMetrics::shared_run`]'s is inside its partner's record.
fn run_record(
    cell: &CompiledCell,
    v: &CompiledVariant,
    started: Option<Instant>,
    counts: DynCounts,
    sim: Option<&SimResult>,
) -> RunMetrics {
    let timings = v.parallelized.timings;
    let mut stalls = StallCycles::default();
    for core in sim.into_iter().flat_map(|sim| &sim.cores) {
        stalls += core.stalls();
    }
    let run_ns = started.map_or(0, |t| t.elapsed().as_nanos() as u64);
    RunMetrics {
        benchmark: cell.workload.benchmark,
        scheduler: cell.kind.name(),
        variant: v.name,
        wall_ns: timings.total_ns() + run_ns,
        instrs: counts.total(),
        cycles: sim.map_or(0, |sim| sim.cycles),
        timings,
        arb_probes: if v.name == cell.mtcg.name { cell.arb_probes } else { 0 },
        arb_hits: 0,
        stalls,
        engine_steps: sim.map_or(0, |sim| sim.engine_steps),
        skipped_cycles: sim.map_or(0, |sim| sim.skipped_cycles),
        shared_run: false,
    }
}

/// Runs a whole figure's worth of measurements on the worker pool
/// (`GMT_JOBS` workers, default available parallelism), in catalog
/// order. A failing benchmark yields an `Err` in its slot; the
/// remaining benchmarks still complete.
pub fn run_all(
    kind: SchedulerKind,
    timed: bool,
    scale: Scale,
) -> Vec<Result<BenchResult, HarnessError>> {
    run_workloads(catalog(), kind, timed, scale, gmt_testkit::num_jobs())
        .into_iter()
        .map(|r| r.map(|e| e.result))
        .collect()
}

/// Evaluates an explicit workload list on `jobs` workers, preserving
/// input order (1 worker = serial in-thread). The building block
/// behind [`run_all`], and what a caller that wants the metrics, an
/// explicit worker count or its own workload list calls directly. The
/// pool keeps the workers busy, so no evaluation here starts
/// [`evaluate_full`]'s sequential helper.
pub fn run_workloads(
    workloads: Vec<Workload>,
    kind: SchedulerKind,
    timed: bool,
    scale: Scale,
    jobs: usize,
) -> Vec<Result<Evaluation, HarnessError>> {
    gmt_testkit::par_map(workloads, jobs, |_i, w| evaluate_on(&w, kind, timed, scale, false))
}

/// The COCO study behind `repro --fig ablations`, on train inputs: per
/// thread count, the [`compile_cell`] cell at [`Scale::Quick`] — at two
/// threads the very cell Figure 7's quick rows measure, GREMIO's
/// partition arbitrated — with its MTCG and COCO variants run on the
/// functional interpreter as an untimed evaluation runs them, and
/// MTCG+COCO compiled again over the cell's PDG and partition under
/// each ablated [`CocoConfig`]. It also measures the paper's
/// conclusion: "we expect the benefits from COCO to be more pronounced
/// when more threads are generated".
///
/// # Errors
///
/// Returns a [`HarnessError`] naming the benchmark and failing phase.
pub fn coco_study(
    w: &Workload,
    kind: SchedulerKind,
    threads: &[u32],
) -> Result<Vec<StudyRow>, HarnessError> {
    threads.iter().map(|&n| study_row(&compile_cell(w, kind, Scale::Quick, n)?, n)).collect()
}

/// The [`coco_study`] row of the [`Scale::Quick`] cell at `n` threads,
/// compiled already.
pub(crate) fn study_row(cell: &CompiledCell<'_>, n: u32) -> Result<StudyRow, HarnessError> {
    let Variants { mtcg, coco, .. } = measure_variants(cell, false)?;
    let (w, kind) = (cell.workload, cell.kind);
    let partition = &cell.mtcg.parallelized.partition;
    let ablated = |config: CocoConfig| -> Result<u64, HarnessError> {
        let (profile, pdg) = (&cell.profile, &cell.pdg);
        let v = cell::compile_variant(w, kind, n, profile, pdg, partition, Some(&config))?;
        let (run, _) = measure(cell, &v, false, None, &mut 0, "COCO run", "COCO sim")?;
        Ok(run.counts.comm_total())
    };
    Ok(StudyRow {
        threads: n,
        mtcg: mtcg.counts,
        coco: coco.counts.comm_total(),
        no_penalties: ablated(CocoConfig {
            control_penalties: false,
            ..CocoConfig::default()
        })?,
        independent_cuts: ablated(CocoConfig {
            shared_memory_multicut: false,
            ..CocoConfig::default()
        })?,
    })
}

/// One thread count of [`coco_study`]: dynamic counts on the train
/// input.
#[derive(Clone, Copy, Debug)]
pub struct StudyRow {
    /// Thread count.
    pub threads: u32,
    /// Baseline MTCG's dynamic instructions.
    pub mtcg: DynCounts,
    /// Dynamic communication under MTCG+COCO.
    pub coco: u64,
    /// Dynamic communication under MTCG+COCO with the §3.1.2
    /// control-flow penalties off.
    pub no_penalties: u64,
    /// Dynamic communication under MTCG+COCO with the §3.1.3 shared
    /// memory multicut replaced by independent per-dependence cuts.
    pub independent_cuts: u64,
}

impl StudyRow {
    /// Communication share of baseline MTCG's dynamic instructions, in
    /// percent.
    pub fn comm_fraction_pct(&self) -> f64 {
        self.mtcg.comm_total() as f64 * 100.0 / self.mtcg.total().max(1) as f64
    }
}

/// Geometric mean (used for speedup averages).
pub fn geo_mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in values {
        if v > 0.0 {
            log_sum += v.ln();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / n as f64).exp()
    }
}

/// Arithmetic mean (used for reduction averages, like the paper's
/// "average reduction of 34.4%").
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

pub mod cell;
pub mod explain;
pub mod figures;
mod metrics;
mod verify;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn means() {
        assert!((mean([1.0, 3.0]) - 2.0).abs() < 1e-9);
        assert!((geo_mean([1.0, 4.0]) - 2.0).abs() < 1e-9);
        assert_eq!(mean(std::iter::empty()), 0.0);
        assert_eq!(geo_mean(std::iter::empty()), 0.0);
    }

    #[test]
    fn evaluate_one_quick() {
        let w = gmt_workloads::by_benchmark("ks").unwrap();
        let r = evaluate_full(&w, SchedulerKind::Gremio, false, Scale::Quick).expect("evaluates").result;
        assert!(r.mtcg.counts.total() > 0);
        assert!(r.relative_comm_pct() <= 100.0);
    }

    #[test]
    fn evaluate_timed_quick() {
        let w = gmt_workloads::by_benchmark("adpcmdec").unwrap();
        let r = evaluate_full(&w, SchedulerKind::Dswp, true, Scale::Quick).expect("evaluates").result;
        assert!(r.seq_cycles > 0);
        assert!(r.mtcg.cycles > 0);
        assert!(r.coco.cycles > 0);
        assert!(r.speedup_mtcg().is_some());
    }

    /// What licenses executing a timed cell once: the counts the
    /// simulator's cores retire are the counts the functional
    /// interpreter reports, on every cell the figures print.
    #[test]
    fn timed_counts_equal_untimed_counts_on_all_quick_cells() {
        for w in catalog() {
            for kind in [SchedulerKind::Gremio, SchedulerKind::Dswp] {
                let timed = evaluate_full(&w, kind, true, Scale::Quick).expect("timed");
                let untimed = evaluate_full(&w, kind, false, Scale::Quick).expect("untimed");
                let cell = format!("{} / {}", w.benchmark, kind.name());
                let (t, u) = (&timed.result, &untimed.result);
                assert_eq!(t.seq_instrs, u.seq_instrs, "{cell}: sequential instructions");
                assert_eq!(t.mtcg.counts, u.mtcg.counts, "{cell}: MTCG counts");
                assert_eq!(t.coco.counts, u.coco.counts, "{cell}: COCO counts");
                for (tm, um) in timed.metrics.iter().zip(&untimed.metrics) {
                    assert_eq!(tm.instrs, um.instrs, "{cell}: {} RunMetrics::instrs", tm.variant);
                }
                assert!(t.seq_cycles > 0 && t.mtcg.cycles > 0 && t.coco.cycles > 0, "{cell}");
                assert_eq!((u.seq_cycles, u.mtcg.cycles, u.coco.cycles), (0, 0, 0), "{cell}");
            }
        }
    }

    /// The cells whose COCO program is the baseline program with its
    /// queues renamed (Figure 7's 0.0 % rows), in matrix order. Programs
    /// do not depend on the input scale, so this is the set at either.
    const SHARED_CELLS: [(&str, &str); 11] = [
        ("GREMIO", "adpcmdec"),
        ("GREMIO", "adpcmenc"),
        ("GREMIO", "177.mesa"),
        ("GREMIO", "183.equake"),
        ("GREMIO", "435.gromacs"),
        ("DSWP", "adpcmdec"),
        ("DSWP", "adpcmenc"),
        ("DSWP", "mpeg2enc"),
        ("DSWP", "183.equake"),
        ("DSWP", "300.twolf"),
        ("DSWP", "435.gromacs"),
    ];

    /// The GREMIO records of a timed quick evaluation whose run the
    /// arbitration handed over, in matrix order: the COCO record of
    /// every cell whose candidate won, or the baseline record where that
    /// cell shares its run (adpcmdec, 435.gromacs). adpcmenc, 177.mesa
    /// and 183.equake fall back to the single-threaded layout, whose
    /// program no arbitration run executed.
    const HANDED_RECORDS: [(&str, &str); 8] = [
        ("adpcmdec", "mtcg"),
        ("ks", "coco"),
        ("mpeg2enc", "coco"),
        ("181.mcf", "coco"),
        ("188.ammp", "coco"),
        ("300.twolf", "coco"),
        ("435.gromacs", "mtcg"),
        ("458.sjeng", "coco"),
    ];

    /// Sharing or handing over a run is invisible: on every quick cell,
    /// timed and untimed, an evaluation reports what simulating the
    /// sequential program and measuring each variant afresh reports, in
    /// every field but the wall clock and the flag — and exactly the
    /// pinned records carry no run of their own (their wall clock is
    /// the compile phases alone): the COCO record of the pinned shared
    /// cells, so a plan change that adds or loses one is seen, and on a
    /// timed evaluation the pinned handed-over GREMIO records.
    #[test]
    fn sharing_a_run_is_invisible_on_all_quick_cells() {
        for timed in [true, false] {
            let (mut shared, mut handed) = (Vec::new(), Vec::new());
            for kind in [SchedulerKind::Gremio, SchedulerKind::Dswp] {
                for w in catalog() {
                    let cell = compile_cell(&w, kind, Scale::Quick, 2).expect("compiles");
                    let at = format!("{} / {} (timed: {timed})", w.benchmark, kind.name());
                    let e = evaluate_cell(&cell, timed).expect("evaluates");
                    let fresh = |v| measure(&cell, v, timed, None, &mut 0, "run", "sim");
                    let (mtcg, base) = fresh(&cell.mtcg).expect("mtcg");
                    let (coco, opt) = fresh(&cell.coco).expect("coco");
                    assert_eq!((e.result.mtcg, e.result.coco), (mtcg, coco), "{at}: BenchResult");
                    if timed {
                        let machine = MachineConfig::default();
                        let seq = simulate(std::slice::from_ref(&w.function), cell.args, w.init, &machine)
                            .expect("sequential");
                        let want = (sim_counts(&seq).total(), seq.cycles);
                        assert_eq!((e.result.seq_instrs, e.result.seq_cycles), want, "{at}: sequential");
                    }
                    for (got, want) in e.metrics.iter().zip([base, opt]) {
                        let want = RunMetrics { wall_ns: got.wall_ns, shared_run: got.shared_run, ..want };
                        assert_eq!(*got, want, "{at}: {} RunMetrics", got.variant);
                        if got.wall_ns == got.timings.total_ns() && !got.shared_run {
                            assert_eq!(kind, SchedulerKind::Gremio, "{at}: only arbitration hands over");
                            handed.push((w.benchmark, got.variant));
                        }
                    }
                    assert!(!e.metrics[0].shared_run, "{at}: the baseline always runs");
                    if e.metrics[1].shared_run {
                        let compile_ns = e.metrics[1].timings.total_ns();
                        assert_eq!(e.metrics[1].wall_ns, compile_ns, "{at}: no run to time");
                        shared.push((kind.name(), w.benchmark));
                    }
                }
            }
            assert_eq!(shared, SHARED_CELLS, "timed: {timed}");
            let want: &[_] = if timed { &HANDED_RECORDS } else { &[] };
            assert_eq!(handed, want, "timed: {timed}");
        }
    }

    /// The sequential helper is invisible: a timed evaluation on ref
    /// inputs reports the same figures, simulation count and records
    /// (but for host time) with the sequential run on a second thread
    /// as without it, on cells whose variants share a run (mpeg2enc
    /// under DSWP) and cells whose variants do not; and a planted
    /// failure surfaces as the same error, in the serial precedence.
    #[test]
    fn the_sequential_helper_changes_no_result_and_no_error() {
        let host_time_masked = |m: &RunMetrics| RunMetrics {
            wall_ns: 0,
            timings: gmt_core::CompileTimings::default(),
            ..*m
        };
        let full = |w: &Workload, kind, helper| evaluate_on(w, kind, true, Scale::Full, helper);
        for name in ["ks", "mpeg2enc", "181.mcf"] {
            let w = gmt_workloads::by_benchmark(name).unwrap();
            for kind in [SchedulerKind::Gremio, SchedulerKind::Dswp] {
                let at = format!("{name} / {}", kind.name());
                let [serial, helper] = [false, true].map(|on| full(&w, kind, on).expect("evaluates"));
                let figures = |e: &Evaluation| {
                    let r = &e.result;
                    (r.benchmark, r.seq_instrs, r.seq_cycles, r.mtcg, r.coco)
                };
                assert_eq!(figures(&helper), figures(&serial), "{at}: BenchResult");
                assert_eq!(helper.simulations, serial.simulations, "{at}: simulations");
                let records = |e: &Evaluation| -> Vec<_> {
                    e.metrics.iter().map(host_time_masked).collect()
                };
                assert_eq!(records(&helper), records(&serial), "{at}: RunMetrics");
            }
        }
        let ks = gmt_workloads::by_benchmark("ks").unwrap();
        let no_ref = Workload { ref_args: Vec::new(), ..ks.clone() };
        let no_train = Workload { train_args: Vec::new(), ..ks };
        for (w, phase) in [(no_ref, "sequential sim"), (no_train, "train run")] {
            let [serial, helper] =
                [false, true].map(|on| full(&w, SchedulerKind::Dswp, on).unwrap_err());
            assert_eq!(serial.phase, phase, "{serial}");
            assert_eq!(helper, serial);
        }
    }

    /// The deterministic work counter of a timed evaluation, arbitration
    /// included. A full matrix runs 33 arbitration probes, 22 sequential
    /// runs and 44 variants less the 11 shared: 88. A quick one reads
    /// the 11 sequential runs and the 8 handed-over records of GREMIO
    /// from its arbitration: 69.
    #[test]
    fn a_timed_matrix_runs_69_simulations_quick_and_88_full() {
        for (scale, want) in [(Scale::Quick, 69), (Scale::Full, 88)] {
            let mut simulations = 0;
            for kind in [SchedulerKind::Gremio, SchedulerKind::Dswp] {
                for w in catalog() {
                    simulations += evaluate_full(&w, kind, true, scale).expect("evaluates").simulations;
                }
            }
            assert_eq!(simulations, want, "{scale:?}");
        }
    }

    /// `same_run` can answer no for each of its conditions: a pair that
    /// shares stops sharing when one side's machine, queue file or
    /// program differs.
    #[test]
    fn same_run_needs_equal_machines_queue_files_and_programs() {
        let w = gmt_workloads::by_benchmark("adpcmdec").unwrap();
        let cell = compile_cell(&w, SchedulerKind::Dswp, Scale::Quick, 2).unwrap();
        let (a, b) = (&cell.mtcg, &cell.coco);
        assert!(same_run(a, b) && same_run(b, a));
        let mut other = b.clone();
        other.machine.sa.ports += 1;
        assert!(!same_run(a, &other), "another machine");
        let mut other = b.clone();
        other.queues.capacity += 1;
        assert!(!same_run(a, &other), "another functional queue file");
        let ks = gmt_workloads::by_benchmark("ks").unwrap();
        let ks = compile_cell(&ks, SchedulerKind::Dswp, Scale::Quick, 2).unwrap();
        assert!(!same_run(&ks.mtcg, &ks.coco), "COCO moved communication: another program");
    }

    /// The oracle above can fail: on a program that synchronizes, a
    /// `sim_counts` that forgets one kind disagrees with the
    /// interpreter.
    #[test]
    fn sim_counts_mutant_dropping_synchronization_is_caught() {
        let w = gmt_workloads::by_benchmark("ks").unwrap();
        let cell = compile_cell(&w, SchedulerKind::Gremio, Scale::Quick, 2).unwrap();
        let v = &cell.mtcg;
        let functional = run_mt_decoded(&v.program, cell.args, w.init, &v.queues, &exec_config())
            .unwrap()
            .totals();
        let sim =
            simulate_decoded_opts(&v.program, cell.args, w.init, &v.machine, SimOptions::default())
                .unwrap();
        assert!(functional.synchronization > 0, "the cell must synchronize for the mutant to bite");
        assert_eq!(sim_counts(&sim), functional);
        let mutant = |sim: &SimResult| DynCounts { synchronization: 0, ..sim_counts(sim) };
        assert_ne!(mutant(&sim), functional);
    }

    /// One GREMIO in the harness: at two threads the COCO study counts
    /// the communication Figure 7's quick rows print, for both
    /// schedulers on every kernel, because its cells are the figures'
    /// cells, GREMIO's arbitrated partition and fallbacks included.
    #[test]
    fn the_study_at_two_threads_counts_figure_7() {
        let mut differ = Vec::new();
        for kind in [SchedulerKind::Gremio, SchedulerKind::Dswp] {
            for (w, row) in catalog().iter().zip(run_all(kind, false, Scale::Quick)) {
                let row = row.expect("evaluates");
                let study = coco_study(w, kind, &[2]).expect("studies");
                let got = (study[0].mtcg.comm_total(), study[0].coco);
                let want = (row.mtcg.counts.comm_total(), row.coco.counts.comm_total());
                if got != want {
                    differ.push((kind.name(), w.benchmark, got, want));
                }
            }
        }
        assert_eq!(differ, [], "(scheduler, kernel, study, Figure 7)");
    }

    #[test]
    fn untimed_speedups_are_none_not_inf() {
        let w = gmt_workloads::by_benchmark("ks").unwrap();
        let r = evaluate_full(&w, SchedulerKind::Dswp, false, Scale::Quick).expect("evaluates").result;
        assert_eq!(r.seq_cycles, 0);
        assert_eq!(r.speedup_mtcg(), None);
        assert_eq!(r.speedup_coco(), None);
        // A mixed timed/untimed result must not fabricate a speedup
        // either direction.
        let mut mixed = r.clone();
        mixed.seq_cycles = 1000;
        assert_eq!(mixed.speedup_mtcg(), None, "untimed variant, timed seq");
    }

    #[test]
    fn metrics_record_phases_and_wall_clock() {
        let w = gmt_workloads::by_benchmark("adpcmdec").unwrap();
        let e = evaluate_full(&w, SchedulerKind::Dswp, true, Scale::Quick).expect("evaluates");
        assert_eq!(e.metrics.len(), 2);
        let (m, c) = (&e.metrics[0], &e.metrics[1]);
        assert_eq!((m.variant, c.variant), ("mtcg", "coco"));
        assert_eq!(m.scheduler, "DSWP");
        assert!(m.wall_ns > 0 && c.wall_ns > 0);
        assert!(m.instrs > 0 && m.cycles > 0);
        assert!(m.timings.mtcg_ns > 0, "MTCG codegen was timed");
        assert_eq!(m.timings.coco_ns, 0, "baseline variant runs no COCO");
        assert!(c.timings.coco_ns > 0, "COCO variant times the optimizer");
        assert!(m.timings.pdg_build_ns > 0 && m.timings.partition_ns > 0);
    }

    #[test]
    fn gremio_metrics_patch_shared_phases() {
        let w = gmt_workloads::by_benchmark("ks").unwrap();
        let e = evaluate_full(&w, SchedulerKind::Gremio, false, Scale::Quick).expect("evaluates");
        for m in &e.metrics {
            assert!(m.timings.pdg_build_ns > 0, "{}: pdg phase recorded", m.variant);
            assert!(m.timings.partition_ns > 0, "{}: partition phase recorded", m.variant);
        }
    }
}
