//! The differential oracle: one [`FuzzCase`] driven through the whole
//! pipeline and every executor, with every observable cross-checked.
//!
//! Per case the oracle runs
//! `compile → verify → profile → PDG → partition → (COCO) → MTCG →
//! verify_mt → executors` and checks:
//!
//! - the decoded and reference **sequential** interpreters agree on
//!   return value, output trace, dynamic counts, edge profile, and
//!   final memory (or return the *same* typed error);
//! - `verify_mt` accepts the generated code at depth 1, which subsumes
//!   every depth ≥ 1 (the check is depth-monotone);
//! - the decoded and reference **functional MT** interpreters agree
//!   with the sequential run (return/output/memory) and with each
//!   other (per-thread dynamic counts) at queue capacities 1 and 32,
//!   and the dynamic totals are capacity-invariant;
//! - the **timed** engines — ID-walking reference, decoded with
//!   fast-forward, decoded without — agree on cycles, outputs, every
//!   per-core `CoreStats` field (stall table included) and the cache
//!   hit levels on the machine at the scheduler's queue depth (1 for
//!   GREMIO, 32 for DSWP), and the fast-forward obeys the conservation
//!   law
//!   `engine_steps + skipped_cycles = noskip steps`;
//! - **interpreter ↔ simulator**: every core of every timed engine
//!   retires exactly the computation / communication / synchronization
//!   instructions the functional MT run counted for that thread (the
//!   counts do not depend on the interleaving of a correctly
//!   synchronized program). The functional interpreters share one
//!   driver loop, the timed engines share none of it, so this edge
//!   does not go through the code the decoded ≡ reference edges share;
//! - on a deterministic third of the cases, the **sequential timed
//!   edge**: the original one-thread program on the same three timed
//!   engines, under the same checks against the sequential run's
//!   counts, so the fast-forward engine's one-core loop is held to the
//!   per-cycle engine and the reference;
//! - on another deterministic third, the **trace layer**: a
//!   traced run reports the same cycle count as
//!   the untraced engines (no observer effect), its per-core cycle
//!   attribution sums to the total ([`check_attribution`]), and its
//!   reconstructed critical path conserves cycles exactly
//!   ([`check_critical_path`]);
//! - nothing panics; every rejection is a typed error
//!   ([`PipelineError`] / [`gmt_mtcg::MtcgError`]), which the oracle
//!   records rather than fails.
//!
//! The caller (fuzz bin / regression tests) wraps [`run_case`] in
//! `catch_unwind`, so a panic anywhere in the pipeline is itself a
//! reported finding.

use crate::ast::{compile, seeded_partition, FuzzCase, Mode};
use gmt_core::{verify_mt, CocoConfig, Parallelized, Parallelizer, PipelineError, Scheduler};
use gmt_ir::decoded::DecodedProgram;
use gmt_ir::interp::{DynCounts, ExecConfig, ExecError, RunResult};
use gmt_ir::interp_mt::{run_mt_decoded, run_mt_reference, MtRunResult, QueueConfig};
use gmt_ir::{Function, Profile};
use gmt_pdg::Pdg;
use gmt_sim::{
    check_attribution, check_critical_path, simulate_decoded_opts, simulate_decoded_traced_opts,
    simulate_reference, CoreStats, CritPathSink, MachineConfig, SimOptions, SimResult,
    TraceAggregator,
};

/// Dynamic-instruction fuel for the functional executors. Generated
/// programs run a few hundred steps; hitting this means livelock.
const FUEL: u64 = 20_000_000;
/// Cycle budget for the timed engines (mem_latency is 141, programs
/// are tiny; hitting this means a scheduling livelock).
const MAX_CYCLES: u64 = 50_000_000;

/// What a case did end to end (when no divergence was found).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CaseReport {
    /// The pipeline rejected the case with a typed error (acceptable;
    /// the sequential cross-check still ran).
    pub rejected: Option<String>,
    /// Queues in the generated program (0 if rejected).
    pub num_queues: u32,
    /// Dynamic instructions of the sequential run.
    pub seq_steps: u64,
    /// Cycles of the timed run at the scheduler's queue depth (0 if
    /// rejected).
    pub cycles: u64,
}

/// Runs the full differential matrix for one case.
///
/// # Errors
///
/// Returns a human-readable divergence description naming the phase
/// and the disagreeing observables. Panics inside the pipeline are
/// *not* caught here — the driver wraps this in `catch_unwind` so the
/// shrinker can walk through panicking candidates.
pub fn run_case(case: &FuzzCase) -> Result<CaseReport, String> {
    let f = compile(&case.program).map_err(|e| format!("[compile] {e}"))?;
    let mut report = CaseReport::default();

    // Phase 1: sequential decoded vs. reference.
    let exec = ExecConfig { max_steps: FUEL };
    let seq = match seq_cross_check(&f, &exec)? {
        Ok(r) => r,
        Err(e) => {
            // Both sequential executors rejected with the same typed
            // error; nothing downstream can run.
            report.rejected = Some(format!("seq: {e:?}"));
            return Ok(report);
        }
    };
    report.seq_steps = seq.counts.total();

    // Phase 1b: the sequential program on the three timed engines — the
    // fast-forward engine's one-core loop against the per-cycle engine
    // and the reference — on a deterministic third of the cases, keyed
    // like the trace-layer third of `sim_cross_check` on another residue.
    if report.seq_steps % 3 == 1 {
        let threads = std::slice::from_ref(&f);
        let program =
            DecodedProgram::decode(threads).map_err(|e| format!("[decode seq] {e:?}"))?;
        sim_cross_check(&program, threads, &seq, &[seq.counts], &machine_for(0, 1), "seq")?;
    }

    // Phase 2: the pipeline (partition → COCO → MTCG). One PDG serves
    // the partitioner of every mode and the validator.
    let pdg = Pdg::build(&f);
    let par = match parallelize(&f, &seq.profile, &pdg, case) {
        Ok(p) => p,
        Err(rejection) => {
            report.rejected = Some(rejection);
            return Ok(report);
        }
    };
    let out = &par.output;
    report.num_queues = out.num_queues;

    // Phase 3: static protocol validation at depth 1, the harshest.
    let violations = verify_mt(&f, &par.partition, &pdg, out, &[1]);
    if !violations.is_empty() {
        return Err(format!("[verify_mt depth=1] {violations:?}"));
    }

    // Phase 4: functional MT at capacities 1 and 32, on the one decoded
    // program every decoded executor of the case runs.
    let program =
        DecodedProgram::decode(par.threads()).map_err(|e| format!("[decode] {e:?}"))?;
    let mt1 = mt_cross_check(&program, &par, &seq, 1, &exec)?;
    let mt32 = mt_cross_check(&program, &par, &seq, 32, &exec)?;
    if mt1.totals().total() != mt32.totals().total() {
        return Err(format!(
            "[mt] dynamic totals depend on queue capacity: {} at capacity 1 vs {} at 32",
            mt1.totals().total(),
            mt32.totals().total()
        ));
    }

    // Phase 5: timed engines at the scheduler's queue depth.
    let machine = machine_for(out.num_queues, scheduler(case).queue_depth());
    let sim = sim_cross_check(&program, par.threads(), &seq, &mt32.per_thread, &machine, "mt")?;
    report.cycles = sim.cycles;

    Ok(report)
}

/// Runs both sequential interpreters; diverging results are an error,
/// identical typed rejections are passed through as `Ok(Err(e))`.
fn seq_cross_check(
    f: &Function,
    exec: &ExecConfig,
) -> Result<Result<RunResult, ExecError>, String> {
    let dec = gmt_ir::interp::run(f, &[], exec);
    let refr = gmt_ir::interp::run_with_memory_reference(f, &[], |_, _| {}, exec);
    match (dec, refr) {
        (Ok(d), Ok(r)) => {
            if d.return_value != r.return_value {
                return Err(format!(
                    "[seq] return value: decoded {:?} vs reference {:?}",
                    d.return_value, r.return_value
                ));
            }
            if d.output != r.output {
                return Err(format!(
                    "[seq] output trace: decoded {:?} vs reference {:?}",
                    d.output, r.output
                ));
            }
            if d.counts != r.counts {
                return Err(format!(
                    "[seq] dynamic counts: decoded {:?} vs reference {:?}",
                    d.counts, r.counts
                ));
            }
            if d.profile != r.profile {
                return Err("[seq] edge profiles diverge".to_string());
            }
            if d.memory.cells() != r.memory.cells() {
                return Err("[seq] final memories diverge".to_string());
            }
            Ok(Ok(d))
        }
        (Err(de), Err(re)) => {
            if err_key(&de) == err_key(&re) {
                Ok(Err(de))
            } else {
                Err(format!("[seq] decoded error {de:?} vs reference error {re:?}"))
            }
        }
        (Ok(_), Err(e)) => Err(format!("[seq] decoded succeeded, reference failed: {e:?}")),
        (Err(e), Ok(_)) => Err(format!("[seq] decoded failed, reference succeeded: {e:?}")),
    }
}

/// The partitioner a case's mode drives; the seeded modes take DSWP's
/// pipeline and queue depth.
fn scheduler(case: &FuzzCase) -> Scheduler {
    match case.mode() {
        Mode::Dswp | Mode::DswpCoco | Mode::SeededMtcg | Mode::SeededCoco => {
            Scheduler::dswp(case.threads)
        }
        Mode::Gremio | Mode::GremioCoco => Scheduler::gremio(case.threads),
    }
}

/// Drives the pipeline for the case's mode. `Err` is a *typed*
/// rejection (acceptable); panics propagate to the driver.
fn parallelize(
    f: &Function,
    profile: &Profile,
    pdg: &Pdg,
    case: &FuzzCase,
) -> Result<Parallelized, String> {
    let mode = case.mode();
    let mut p = Parallelizer::new(scheduler(case));
    if matches!(mode, Mode::DswpCoco | Mode::GremioCoco | Mode::SeededCoco) {
        p = p.with_coco(CocoConfig::default());
    }
    match mode {
        Mode::SeededMtcg | Mode::SeededCoco => {
            let partition = seeded_partition(f, case.threads, case.part_seed);
            p.parallelize_with_partition(f, profile, pdg, partition)
                .map_err(|e| format!("pipeline (seeded): {e:?}"))
        }
        // `Parallelizer::parallelize` on the PDG the case already has;
        // both errors keep the text they have as its `PipelineError`.
        _ => p
            .scheduler
            .partition(f, pdg, profile)
            .map_err(PipelineError::from)
            .and_then(|partition| {
                p.parallelize_with_partition(f, profile, pdg, partition).map_err(PipelineError::from)
            })
            .map_err(|e| format!("pipeline: {e:?}")),
    }
}

/// Runs both functional MT interpreters at the given capacity and
/// cross-checks them against each other and the sequential truth.
fn mt_cross_check(
    program: &DecodedProgram,
    par: &Parallelized,
    seq: &RunResult,
    capacity: usize,
    exec: &ExecConfig,
) -> Result<MtRunResult, String> {
    let qc = QueueConfig {
        num_queues: par.output.num_queues.max(1) as usize,
        capacity,
    };
    let threads = par.threads();
    let dec = run_mt_decoded(program, &[], |_, _| {}, &qc, exec)
        .map_err(|e| format!("[mt cap={capacity}] decoded: {e:?}"))?;
    let refr = run_mt_reference(threads, &[], |_, _| {}, &qc, exec)
        .map_err(|e| format!("[mt cap={capacity}] reference: {e:?}"))?;
    if dec.per_thread != refr.per_thread {
        return Err(format!(
            "[mt cap={capacity}] per-thread counts: decoded {:?} vs reference {:?}",
            dec.per_thread, refr.per_thread
        ));
    }
    if dec.return_value != refr.return_value || dec.output != refr.output {
        return Err(format!("[mt cap={capacity}] decoded and reference observables diverge"));
    }
    if dec.return_value != seq.return_value {
        return Err(format!(
            "[mt cap={capacity}] return value {:?} vs sequential {:?}",
            dec.return_value, seq.return_value
        ));
    }
    if dec.output != seq.output {
        return Err(format!(
            "[mt cap={capacity}] output {:?} vs sequential {:?}",
            dec.output, seq.output
        ));
    }
    // Thread functions carry the same object table as `f`, so the
    // layouts agree cell for cell.
    if dec.memory.cells() != seq.memory.cells() {
        return Err(format!("[mt cap={capacity}] final memory diverges from sequential"));
    }
    Ok(dec)
}

/// A machine sized for the generated program's queue file, `depth`
/// entries per queue, with the fuzzer's cycle budget.
fn machine_for(num_queues: u32, depth: usize) -> MachineConfig {
    let mut m = MachineConfig::default().with_queue_depth(depth);
    m.sa.num_queues = num_queues.max(1) as usize;
    m.max_cycles = MAX_CYCLES;
    m
}

/// The interpreter ↔ simulator edge: core `i` of a timed run must have
/// retired exactly the instructions, kind by kind, that thread `i` of
/// the functional run executed.
fn check_counts(functional: &[DynCounts], cores: &[CoreStats]) -> Result<(), String> {
    let retired: Vec<DynCounts> = cores.iter().map(CoreStats::counts).collect();
    if retired != functional {
        return Err(format!("per-core counts {retired:?} vs functional per-thread {functional:?}"));
    }
    Ok(())
}

/// The timing edge between two timed engines: every [`CoreStats`] field
/// of every core — retired counts, finish cycle, the seven stall
/// counters, mispredicts — and the four cache hit-level counters must
/// agree. Equal cycle totals alone would let an engine credit a stall
/// cycle to the wrong reason.
fn check_timing(a: &SimResult, b: &SimResult) -> Result<(), String> {
    if a.cores != b.cores {
        return Err(format!("per-core stats {:?} vs {:?}", a.cores, b.cores));
    }
    let hits = |s: &SimResult| [s.hits_l1, s.hits_l2, s.hits_l3, s.hits_mem];
    if hits(a) != hits(b) {
        return Err(format!("hit levels (L1, L2, L3, memory) {:?} vs {:?}", hits(a), hits(b)));
    }
    Ok(())
}

/// Runs the three timed engines on `threads` (decoded as `program`) and
/// checks full agreement — with each other (cycles, per-core stats and
/// hit levels), with the sequential observables and with the functional
/// run's per-thread `functional` counts — plus the fast-forward
/// conservation law.
fn sim_cross_check(
    program: &DecodedProgram,
    threads: &[Function],
    seq: &RunResult,
    functional: &[DynCounts],
    machine: &MachineConfig,
    label: &str,
) -> Result<SimResult, String> {
    let refr = simulate_reference(threads, &[], |_, _| {}, machine)
        .map_err(|e| format!("[sim {label}] reference: {e:?}"))?;
    machine.validate().map_err(|e| format!("[sim {label}] config: {e}"))?;
    let ff = simulate_decoded_opts(
        program,
        &[],
        |_, _| {},
        machine,
        SimOptions { fast_forward: true },
    )
    .map_err(|e| format!("[sim {label}] fast-forward: {e:?}"))?;
    let noskip = simulate_decoded_opts(
        program,
        &[],
        |_, _| {},
        machine,
        SimOptions { fast_forward: false },
    )
    .map_err(|e| format!("[sim {label}] no-skip: {e:?}"))?;

    for (name, sim) in [("reference", &refr), ("fast-forward", &ff), ("no-skip", &noskip)] {
        if sim.return_value != seq.return_value || sim.output != seq.output {
            return Err(format!(
                "[sim {label}] {name} observables diverge from sequential (ret {:?} vs {:?})",
                sim.return_value, seq.return_value
            ));
        }
        check_counts(functional, &sim.cores).map_err(|e| format!("[sim {label}] {name} {e}"))?;
    }
    if ff.cycles != refr.cycles || noskip.cycles != refr.cycles {
        return Err(format!(
            "[sim {label}] cycle totals: reference {} / fast-forward {} / no-skip {}",
            refr.cycles, ff.cycles, noskip.cycles
        ));
    }
    for (name, sim) in [("fast-forward", &ff), ("no-skip", &noskip)] {
        check_timing(&refr, sim).map_err(|e| format!("[sim {label}] reference vs {name}: {e}"))?;
    }
    if noskip.skipped_cycles != 0 {
        return Err(format!(
            "[sim {label}] no-skip engine reported {} skipped cycles",
            noskip.skipped_cycles
        ));
    }
    if ff.engine_steps + ff.skipped_cycles != noskip.engine_steps {
        return Err(format!(
            "[sim {label}] conservation law broken: {} steps + {} skipped != {} no-skip steps",
            ff.engine_steps, ff.skipped_cycles, noskip.engine_steps
        ));
    }
    // Trace-layer invariants on a deterministic third of the cases
    // (keyed on the sequential step count, so replays hit the same
    // subset): tracing must not perturb timing, and both trace
    // conservation laws must hold on arbitrary generated programs —
    // every per-core attribution sums to the cycle count, and the
    // reconstructed critical path's edges cover the run exactly.
    if seq.counts.total() % 3 == 0 {
        let mut sink = (
            TraceAggregator::new(threads.len(), machine.sa.num_queues, 256),
            CritPathSink::new(program, machine.sa.num_queues),
        );
        let traced = simulate_decoded_traced_opts(
            program,
            &[],
            |_, _| {},
            machine,
            &mut sink,
            SimOptions { fast_forward: true },
        )
        .map_err(|e| format!("[sim {label}] traced: {e:?}"))?;
        if traced.cycles != refr.cycles {
            return Err(format!(
                "[sim {label}] observer effect: traced {} cycles vs untraced {}",
                traced.cycles, refr.cycles
            ));
        }
        check_attribution(&sink.0, &traced)
            .map_err(|e| format!("[sim {label}] attribution: {e}"))?;
        check_critical_path(&sink.1, &traced)
            .map_err(|e| format!("[sim {label}] critical path: {e}"))?;
    }
    Ok(ff)
}

/// A loose equality key for [`ExecError`]: the variant name only, so
/// decoded and reference paths may differ in diagnostic payloads
/// (instruction ids, deadlock witnesses) but must agree on *what* went
/// wrong.
pub fn err_key(e: &ExecError) -> &'static str {
    match e {
        ExecError::OutOfFuel => "OutOfFuel",
        ExecError::MemoryFault { .. } => "MemoryFault",
        ExecError::CommunicationOutsideMt(_) => "CommunicationOutsideMt",
        ExecError::MissingArguments => "MissingArguments",
        ExecError::Deadlock(_) => "Deadlock",
        ExecError::BadQueue(_) => "BadQueue",
        ExecError::InvalidConfig(_) => "InvalidConfig",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::case_from_seed;

    #[test]
    fn oracle_passes_a_seed_sweep() {
        for seed in 0..24u64 {
            let case = case_from_seed(seed);
            run_case(&case).unwrap_or_else(|e| panic!("seed {seed:#x}: {e}"));
        }
    }

    /// The planted mutation for the interpreter ↔ simulator edge: one
    /// instruction more or fewer of any kind on any core, or a missing
    /// core, must be a finding.
    #[test]
    fn doctored_core_count_is_a_finding() {
        let functional = [
            DynCounts { computation: 9, communication: 2, synchronization: 1 },
            DynCounts { computation: 4, communication: 2, synchronization: 1 },
        ];
        let core = |c: &DynCounts| CoreStats {
            computation: c.computation,
            communication: c.communication,
            synchronization: c.synchronization,
            stall_operand: 7, // timing is not part of the edge
            ..CoreStats::default()
        };
        let cores = functional.each_ref().map(core);
        check_counts(&functional, &cores).expect("equal counts pass");

        let doctor: [fn(&mut CoreStats); 3] = [
            |c| c.computation += 1,
            |c| c.communication -= 1,
            |c| c.synchronization += 1,
        ];
        for (i, doctor) in doctor.iter().enumerate() {
            let mut doctored = cores;
            doctor(&mut doctored[i % 2]);
            check_counts(&functional, &doctored).expect_err("a doctored count must not pass");
        }
        check_counts(&functional, &cores[..1]).expect_err("a missing core must not pass");
    }

    /// The planted mutation for the engine ↔ engine timing edge: equal
    /// cycles and counts, but one stall cycle credited to the SA port
    /// instead of the empty queue (the fast-forward defect the widened
    /// edge was added for), or one access served by another cache
    /// level, must be a finding.
    #[test]
    fn doctored_stall_table_or_hit_level_is_a_finding() {
        let core = CoreStats {
            computation: 40,
            communication: 6,
            finished_at: 300,
            stall_sa_port: 7,
            stall_queue_empty: 158,
            ..CoreStats::default()
        };
        let sim = SimResult {
            cycles: 300,
            cores: vec![core, CoreStats { finished_at: 120, ..core }],
            output: vec![3],
            return_value: Some(1),
            hits_l1: 30,
            hits_l2: 2,
            hits_l3: 1,
            hits_mem: 4,
            engine_steps: 300,
            skipped_cycles: 0,
        };
        check_timing(&sim, &sim.clone()).expect("equal runs pass");

        let mut moved = sim.clone();
        moved.cores[0].stall_queue_empty -= 1;
        moved.cores[0].stall_sa_port += 1;
        assert_eq!((moved.cycles, moved.cores[0].counts()), (sim.cycles, sim.cores[0].counts()));
        assert_eq!(moved.cores[0].stalls().total(), sim.cores[0].stalls().total());
        check_timing(&sim, &moved).expect_err("a stall cycle moved between reasons must not pass");

        let mut level = sim.clone();
        level.hits_l1 -= 1;
        level.hits_l2 += 1;
        check_timing(&sim, &level).expect_err("an access served by another level must not pass");
    }

    #[test]
    fn err_key_collapses_payloads() {
        assert_eq!(
            err_key(&ExecError::InvalidConfig("a".into())),
            err_key(&ExecError::InvalidConfig("b".into()))
        );
        assert_ne!(err_key(&ExecError::OutOfFuel), err_key(&ExecError::Deadlock(None)));
    }
}
