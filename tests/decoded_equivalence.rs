//! The pre-decoded execution engine must be observably identical to
//! the ID-walking reference executors — not just same answers, but
//! same dynamic counts, same profiles, same cycle counts, and same
//! per-core stall/hit statistics. The figure pipeline runs entirely on
//! the decoded engine, so any divergence here would silently corrupt
//! the reproduced results.
//!
//! Three layers are checked, each against its `*_reference` twin:
//! the single-threaded interpreter, the multi-threaded interpreter
//! (over MTCG-generated thread programs), and the cycle-level machine
//! model (single-threaded and multi-threaded, under the default
//! machine and a stressed one: narrow issue, static branch prediction,
//! single-element queues). A final regression sweeps every catalog
//! kernel on its train input.

use gmt_fuzz::ast::{compile, fprogram_gen, seeded_partition, FStmt};
use gmt_ir::decoded::DecodedProgram;
use gmt_ir::interp::{run_with_memory, run_with_memory_reference, ExecConfig};
use gmt_ir::interp_mt::{run_mt_decoded, run_mt_reference, QueueConfig};
use gmt_pdg::Pdg;
use gmt_sim::{
    check_attribution, simulate_decoded_opts, simulate_decoded_traced_opts,
    simulate_reference, BranchModel, MachineConfig, SimOptions, SimResult, TraceAggregator,
};
use gmt_testkit::{full_u64, prop_assert_eq, ranged, Checker, Gen};

fn exec() -> ExecConfig {
    ExecConfig { max_steps: 5_000_000 }
}

/// A stressed machine: narrow issue, static branch prediction, and
/// single-element queues, so structural, mispredict, and queue stalls
/// all fire.
fn stress_machine() -> MachineConfig {
    let mut m = MachineConfig::default().with_queue_depth(1);
    m.issue_width = 2;
    m.branch_model = BranchModel::StaticBtfn { penalty: 3 };
    m
}

fn assert_sim_eq(a: &SimResult, b: &SimResult) -> Result<(), String> {
    prop_assert_eq!(a.cycles, b.cycles);
    prop_assert_eq!(a.return_value, b.return_value);
    prop_assert_eq!(&a.output, &b.output);
    prop_assert_eq!(&a.cores, &b.cores, "per-core stall/issue stats");
    prop_assert_eq!(
        (a.hits_l1, a.hits_l2, a.hits_l3, a.hits_mem),
        (b.hits_l1, b.hits_l2, b.hits_l3, b.hits_mem)
    );
    Ok(())
}

/// Runs the decoded engine with the stall fast-forward on and off,
/// checks both against `reference` (all observable statistics), checks
/// the engine-step conservation law (every skipped cycle is a step the
/// per-cycle run really took), and re-runs the fast-forward engine
/// traced to prove the aggregated stall spans still attribute every
/// cycle of every core.
fn assert_skip_equivalence(
    program: &DecodedProgram,
    args: &[i64],
    init: fn(&gmt_ir::interp::MemoryLayout, &mut gmt_ir::interp::Memory),
    machine: &MachineConfig,
    reference: &SimResult,
) -> Result<(), String> {
    let skip = simulate_decoded_opts(program, args, init, machine, SimOptions {
        fast_forward: true,
    })
    .expect("fast-forward sim");
    let noskip = simulate_decoded_opts(program, args, init, machine, SimOptions {
        fast_forward: false,
    })
    .expect("per-cycle sim");
    assert_sim_eq(&skip, reference)?;
    assert_sim_eq(&noskip, reference)?;
    prop_assert_eq!(noskip.skipped_cycles, 0, "per-cycle engine never skips");
    prop_assert_eq!(
        skip.engine_steps + skip.skipped_cycles,
        noskip.engine_steps,
        "skipped cycles are exactly the steps the per-cycle run took"
    );
    let ncores = reference.cores.len();
    let mut agg = TraceAggregator::new(ncores, machine.sa.num_queues, 16);
    let traced = simulate_decoded_traced_opts(program, args, init, machine, &mut agg, SimOptions {
        fast_forward: true,
    })
    .expect("traced fast-forward sim");
    assert_sim_eq(&traced, reference)?;
    check_attribution(&agg, &traced)
        .map_err(|e| format!("stall spans break cycle attribution: {e}"))?;
    Ok(())
}

/// Single-threaded interpreter: the decoded path reproduces the
/// reference byte for byte — return value, output trace, dynamic
/// counts, edge profile, and final memory.
#[test]
fn st_interpreter_matches_reference() {
    Checker::new("decoded_equivalence::st_interpreter_matches_reference").cases(64).run(
        &fprogram_gen(),
        |program| {
            let f = compile(program)?;
            let reference =
                run_with_memory_reference(&f, &[], |_, _| {}, &exec()).expect("reference run");
            let decoded = run_with_memory(&f, &[], |_, _| {}, &exec()).expect("decoded run");
            prop_assert_eq!(decoded.return_value, reference.return_value);
            prop_assert_eq!(&decoded.output, &reference.output);
            prop_assert_eq!(decoded.counts, reference.counts);
            prop_assert_eq!(&decoded.profile, &reference.profile);
            prop_assert_eq!(decoded.memory.cells(), reference.memory.cells());
            Ok(())
        },
    );
}

/// Multi-threaded interpreter over MTCG-generated threads: identical
/// results, per-thread counts, and memory at both queue depths.
#[test]
fn mt_interpreter_matches_reference() {
    let gen: Gen<(Vec<FStmt>, u64, u32)> =
        fprogram_gen().zip(full_u64()).zip(ranged(2u32, 4)).map(|((p, s), n)| (p, s, n));
    Checker::new("decoded_equivalence::mt_interpreter_matches_reference").cases(48).run(
        &gen,
        |(program, seed, n)| {
            let f = compile(program)?;
            let partition = seeded_partition(&f, *n, *seed);
            let pdg = Pdg::build(&f);
            let out = gmt_mtcg::generate(&f, &pdg, &partition).expect("mtcg");
            let program = DecodedProgram::decode(&out.threads).expect("decode");
            for cap in [1usize, 32] {
                let qc =
                    QueueConfig { num_queues: out.num_queues.max(1) as usize, capacity: cap };
                let reference = run_mt_reference(&out.threads, &[], |_, _| {}, &qc, &exec())
                    .expect("reference mt run");
                let decoded = run_mt_decoded(&program, &[], |_, _| {}, &qc, &exec())
                    .expect("decoded mt run");
                prop_assert_eq!(decoded.return_value, reference.return_value);
                prop_assert_eq!(&decoded.output, &reference.output);
                prop_assert_eq!(&decoded.per_thread, &reference.per_thread);
                prop_assert_eq!(decoded.memory.cells(), reference.memory.cells());
            }
            Ok(())
        },
    );
}

/// Cycle simulator: the decoded engine reproduces cycle counts, core
/// statistics, and cache hit counters exactly — single-threaded and on
/// MTCG-generated thread pairs, under the default and the stressed
/// machine.
#[test]
fn simulator_matches_reference() {
    let gen: Gen<(Vec<FStmt>, u64)> = fprogram_gen().zip(full_u64());
    Checker::new("decoded_equivalence::simulator_matches_reference").cases(32).run(
        &gen,
        |(program, seed)| {
            let f = compile(program)?;
            let partition = seeded_partition(&f, 2, *seed);
            let pdg = Pdg::build(&f);
            let out = gmt_mtcg::generate(&f, &pdg, &partition).expect("mtcg");
            for machine in [MachineConfig::default(), stress_machine()] {
                let mut machine = machine;
                if out.num_queues as usize > machine.sa.num_queues {
                    machine.sa.num_queues = out.num_queues as usize;
                }
                // Single-threaded.
                let st = std::slice::from_ref(&f);
                let reference =
                    simulate_reference(st, &[], |_, _| {}, &machine).expect("reference sim");
                let program = DecodedProgram::decode(st).expect("decode");
                assert_skip_equivalence(&program, &[], |_, _| {}, &machine, &reference)?;
                // Multi-threaded.
                let reference = simulate_reference(&out.threads, &[], |_, _| {}, &machine)
                    .expect("reference mt sim");
                let program = DecodedProgram::decode(&out.threads).expect("decode");
                assert_skip_equivalence(&program, &[], |_, _| {}, &machine, &reference)?;
            }
            Ok(())
        },
    );
}

/// Regression: every catalog kernel, on its train input, is bit-equal
/// between the decoded and reference paths for both the interpreter
/// and the simulator.
#[test]
fn catalog_kernels_match_reference() {
    for w in gmt_workloads::catalog() {
        let cfg = gmt_workloads::exec_config();
        let reference = gmt_ir::interp::run_with_memory_reference(
            &w.function,
            &w.train_args,
            w.init,
            &cfg,
        )
        .unwrap_or_else(|e| panic!("{}: reference run: {e}", w.benchmark));
        let decoded = run_with_memory(&w.function, &w.train_args, w.init, &cfg)
            .unwrap_or_else(|e| panic!("{}: decoded run: {e}", w.benchmark));
        assert_eq!(decoded.return_value, reference.return_value, "{}", w.benchmark);
        assert_eq!(decoded.output, reference.output, "{}", w.benchmark);
        assert_eq!(decoded.counts, reference.counts, "{}", w.benchmark);
        assert_eq!(decoded.profile, reference.profile, "{}", w.benchmark);
        assert_eq!(decoded.memory.cells(), reference.memory.cells(), "{}", w.benchmark);

        let machine = MachineConfig::default();
        let st = std::slice::from_ref(&w.function);
        let ref_sim = simulate_reference(st, &w.train_args, w.init, &machine)
            .unwrap_or_else(|e| panic!("{}: reference sim: {e}", w.benchmark));
        let program = DecodedProgram::decode(st).expect("decode");
        let opts = SimOptions::default();
        let dec_sim = simulate_decoded_opts(&program, &w.train_args, w.init, &machine, opts)
            .unwrap_or_else(|e| panic!("{}: decoded sim: {e}", w.benchmark));
        if let Err(msg) = assert_sim_eq(&dec_sim, &ref_sim) {
            panic!("{}: {msg}", w.benchmark);
        }
        if let Err(msg) = assert_skip_equivalence(&program, &w.train_args, w.init, &machine, &ref_sim)
        {
            panic!("{}: single-threaded: {msg}", w.benchmark);
        }
    }
}

/// Every catalog kernel as the queue-coupled thread pair the figures
/// measure — the fast-forward's target shape — is byte-identical
/// between the fast-forward, per-cycle, and reference engines, with
/// exact trace attribution: the DSWP pair at the paper's uniform
/// depth-32 array and at single-element queues (maximum backpressure),
/// and the GREMIO-arbitrated pair at its single-element queues.
#[test]
fn catalog_mt_kernels_match_reference_with_fast_forward() {
    use gmt_harness::{compile_cell, Scale, SchedulerKind};
    for w in gmt_workloads::catalog() {
        for (kind, depths) in
            [(SchedulerKind::Dswp, &[32usize, 1][..]), (SchedulerKind::Gremio, &[1][..])]
        {
            let tag = format!("{}/{}", w.benchmark, kind.name());
            let cell = compile_cell(&w, kind, Scale::Quick, 2)
                .unwrap_or_else(|e| panic!("{tag}: compile: {e}"));
            let p = &cell.coco;
            for &depth in depths {
                let machine = MachineConfig::default().with_queue_depth(depth);
                let threads = p.parallelized.threads();
                let ref_sim = simulate_reference(threads, cell.args(), w.init, &machine)
                    .unwrap_or_else(|e| panic!("{tag}: reference mt sim: {e}"));
                if let Err(msg) =
                    assert_skip_equivalence(&p.program, cell.args(), w.init, &machine, &ref_sim)
                {
                    panic!("{tag} (depth {depth}): {msg}");
                }
            }
        }
    }
}
