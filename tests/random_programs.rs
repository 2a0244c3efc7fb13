//! Property-based end-to-end testing: random structured programs ×
//! random partitions × {MTCG, MTCG+COCO} must always reproduce the
//! sequential semantics (return value, output trace, final memory).
//!
//! Runs on the in-tree `gmt-testkit` harness. Replay a failure with
//! `GMT_TESTKIT_SEED=<seed from the failure message>`; historical
//! shrunken failures live on as `tests/regression_*.rs`.

use gmt_core::{optimize, CocoConfig};
use gmt_fuzz::ast::{compile, fprogram_gen, seeded_partition, FStmt};
use gmt_ir::interp::{run, ExecConfig};
use gmt_ir::interp_mt::{run_mt, QueueConfig};
use gmt_pdg::Pdg;
use gmt_testkit::{full_u64, prop_assert, prop_assert_eq, ranged, Checker, Gen};

fn exec() -> ExecConfig {
    ExecConfig { max_steps: 5_000_000 }
}

/// MTCG with the baseline plan preserves semantics under arbitrary
/// instruction-granularity partitions and both queue depths.
#[test]
fn mtcg_preserves_semantics() {
    let gen: Gen<(Vec<FStmt>, u64, u32)> =
        fprogram_gen().zip(full_u64()).zip(ranged(2u32, 4)).map(|((p, s), n)| (p, s, n));
    Checker::new("random_programs::mtcg_preserves_semantics").cases(48).run(
        &gen,
        |(program, seed, n)| {
            let f = compile(program)?;
            let seq = run(&f, &[], &exec()).expect("sequential");
            let partition = seeded_partition(&f, *n, *seed);
            let pdg = Pdg::build(&f);
            let out = gmt_mtcg::generate(&f, &pdg, &partition).expect("mtcg");
            for cap in [1usize, 32] {
                let mt = run_mt(
                    &out.threads,
                    &[],
                    |_, _| {},
                    &QueueConfig { num_queues: out.num_queues.max(1) as usize, capacity: cap },
                    &exec(),
                )
                .expect("mt run");
                prop_assert_eq!(mt.return_value, seq.return_value);
                prop_assert_eq!(&mt.output, &seq.output);
                prop_assert_eq!(mt.memory.cells(), seq.memory.cells());
            }
            Ok(())
        },
    );
}

/// COCO-optimized plans preserve semantics and never cost more
/// dynamic communication than the baseline.
#[test]
fn coco_preserves_semantics_and_never_costs_more() {
    let gen: Gen<(Vec<FStmt>, u64, bool)> = fprogram_gen()
        .zip(full_u64())
        .zip(ranged(0u8, 2))
        .map(|((p, s), penalties)| (p, s, penalties != 0));
    Checker::new("random_programs::coco_preserves_semantics_and_never_costs_more")
        .cases(48)
        .run(&gen, |(program, seed, penalties)| {
            let f = compile(program)?;
            let seq = run(&f, &[], &exec()).expect("sequential");
            let partition = seeded_partition(&f, 2, *seed);
            let pdg = Pdg::build(&f);
            let profile = seq.profile.clone();
            let config = CocoConfig { control_penalties: *penalties, shared_memory_multicut: true };
            let (plan, _) = optimize(&f, &pdg, &partition, &profile, &config);
            let coco_out = gmt_mtcg::generate_with_plan(&f, &pdg, &partition, plan).expect("coco codegen");
            let base_out = gmt_mtcg::generate(&f, &pdg, &partition).expect("mtcg");
            let run_one = |out: &gmt_mtcg::MtcgOutput| {
                run_mt(
                    &out.threads,
                    &[],
                    |_, _| {},
                    &QueueConfig { num_queues: out.num_queues.max(1) as usize, capacity: 32 },
                    &exec(),
                )
                .expect("mt run")
            };
            let coco_run = run_one(&coco_out);
            prop_assert_eq!(coco_run.return_value, seq.return_value);
            prop_assert_eq!(&coco_run.output, &seq.output);
            prop_assert_eq!(coco_run.memory.cells(), seq.memory.cells());
            // The profile here is exact (same input), so COCO must not
            // increase dynamic communication.
            let base_run = run_one(&base_out);
            prop_assert!(
                coco_run.totals().comm_total() <= base_run.totals().comm_total(),
                "COCO increased comm: {} -> {}",
                base_run.totals().comm_total(),
                coco_run.totals().comm_total()
            );
            Ok(())
        });
}

/// The full Parallelizer (DSWP and GREMIO partitioners) preserves
/// semantics on random programs.
#[test]
fn partitioners_preserve_semantics() {
    let gen: Gen<(Vec<FStmt>, bool)> =
        fprogram_gen().zip(ranged(0u8, 2)).map(|(p, g)| (p, g != 0));
    Checker::new("random_programs::partitioners_preserve_semantics").cases(48).run(
        &gen,
        |(program, use_gremio)| {
            let f = compile(program)?;
            let seq = run(&f, &[], &exec()).expect("sequential");
            let scheduler = if *use_gremio {
                gmt_core::Scheduler::gremio(2)
            } else {
                gmt_core::Scheduler::dswp(2)
            };
            let result = gmt_core::Parallelizer::new(scheduler)
                .with_coco(CocoConfig::default())
                .parallelize(&f, &seq.profile)
                .expect("parallelize");
            let mt = run_mt(
                result.threads(),
                &[],
                |_, _| {},
                &QueueConfig {
                    num_queues: result.num_queues().max(1) as usize,
                    capacity: if *use_gremio { 1 } else { 32 },
                },
                &exec(),
            )
            .expect("mt run");
            prop_assert_eq!(mt.return_value, seq.return_value);
            prop_assert_eq!(&mt.output, &seq.output);
            Ok(())
        },
    );
}

/// Under an *exact* profile (same input), a plan's estimated
/// dynamic cost must equal the measured dynamic communication —
/// the planner's cost model and the generated code agree, both for
/// baseline MTCG and for COCO plans.
#[test]
fn plan_cost_equals_measured_communication() {
    let gen: Gen<(Vec<FStmt>, u64)> = fprogram_gen().zip(full_u64());
    Checker::new("random_programs::plan_cost_equals_measured_communication").cases(40).run(
        &gen,
        |(program, seed)| {
            let f = compile(program)?;
            let seq = run(&f, &[], &exec()).expect("sequential");
            let partition = seeded_partition(&f, 2, *seed);
            let pdg = Pdg::build(&f);

            let base_plan = gmt_mtcg::baseline_plan(&f, &pdg, &partition).unwrap();
            let (coco_plan, _) =
                optimize(&f, &pdg, &partition, &seq.profile, &CocoConfig::default());
            for plan in [base_plan, coco_plan] {
                let estimated = plan.dynamic_cost(&f, &seq.profile);
                let out = gmt_mtcg::generate_with_plan(&f, &pdg, &partition, plan).expect("codegen");
                let mt = run_mt(
                    &out.threads,
                    &[],
                    |_, _| {},
                    &QueueConfig { num_queues: out.num_queues.max(1) as usize, capacity: 32 },
                    &exec(),
                )
                .expect("mt run");
                prop_assert_eq!(
                    estimated,
                    mt.totals().comm_total(),
                    "plan cost model must match reality"
                );
            }
            Ok(())
        },
    );
}
