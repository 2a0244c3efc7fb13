//! Property tests feeding MTCG untrusted inputs: partial partitions
//! and corrupt communication plans over random programs. Nothing may
//! panic; every malformed input must come back as an [`MtcgError`].
//!
//! Replay a failure with `GMT_TESTKIT_SEED=<seed from the message>`.

use gmt_fuzz::ast::{compile, fprogram_gen, seeded_partition, FStmt};
use gmt_ir::{BlockId, InstrId, Reg};
use gmt_mtcg::{CommKind, CommPlan, CommPoint, MtcgError};
use gmt_pdg::{Partition, Pdg, ThreadId};
use gmt_testkit::{full_u64, prop_assert, ranged, Checker, Gen};

/// Deletes a pseudo-random nonempty subset of assignments by building a
/// fresh partition that skips them.
fn holed_partition(f: &gmt_ir::Function, n: u32, seed: u64) -> Partition {
    let full = seeded_partition(f, n, seed);
    let total = f.num_instrs();
    let mut p = Partition::new(n);
    for (k, i) in f.all_instrs().enumerate() {
        // Always drop instruction `seed % total`; drop others sparsely.
        let drop = k == (seed % total as u64) as usize || seed.rotate_left(k as u32) % 7 == 0;
        if !drop {
            p.assign(i, full.thread_of(i));
        }
    }
    p
}

/// A partition with unassigned instructions is rejected with
/// `Unassigned`, by both the baseline planner and code generation.
#[test]
fn partial_partitions_are_rejected() {
    let gen: Gen<(Vec<FStmt>, u64, u32)> =
        fprogram_gen().zip(full_u64()).zip(ranged(2u32, 4)).map(|((p, s), n)| (p, s, n));
    Checker::new("mtcg_malformed::partial_partitions").cases(32).run(
        &gen,
        |(program, seed, n)| {
            let f = compile(program)?;
            let partition = holed_partition(&f, *n, *seed);
            if partition.validate(&f).is_ok() {
                return Ok(()); // subset happened to be empty: nothing to test
            }
            let pdg = Pdg::build(&f);
            let plan = gmt_mtcg::baseline_plan(&f, &pdg, &partition);
            prop_assert!(
                matches!(plan, Err(MtcgError::Unassigned(_))),
                "baseline_plan accepted holes: {plan:?}"
            );
            let out = gmt_mtcg::generate(&f, &pdg, &partition);
            prop_assert!(
                matches!(out, Err(MtcgError::Unassigned(_))),
                "generate accepted holes: {out:?}"
            );
            Ok(())
        },
    );
}

/// Plans naming threads the partition does not have are rejected with
/// `PlanThreadOutOfRange` before any indexing can panic.
#[test]
fn plan_thread_out_of_range_rejected() {
    let gen: Gen<(Vec<FStmt>, u64)> = fprogram_gen().zip(full_u64());
    Checker::new("mtcg_malformed::plan_thread_oob").cases(24).run(&gen, |(program, seed)| {
        let f = compile(program)?;
        let pdg = Pdg::build(&f);
        let partition = seeded_partition(&f, 2, *seed);
        let ghost = ThreadId(2 + (seed % 7) as u32); // partition has threads 0..2
        let mut plan = CommPlan::new(ghost.0 + 1);
        plan.add_point(
            CommKind::Register(Reg(0)),
            ThreadId(0),
            ghost,
            CommPoint::BlockStart(f.entry()),
        );
        let out = gmt_mtcg::generate_with_plan(&f, &pdg, &partition, plan);
        prop_assert!(
            matches!(out, Err(MtcgError::PlanThreadOutOfRange { thread, .. }) if thread == ghost),
            "ghost thread accepted: {out:?}"
        );
        Ok(())
    });
}

/// Plans placing communication at nonexistent instructions or blocks
/// are rejected with `PlanPointOutOfRange`.
#[test]
fn plan_point_out_of_range_rejected() {
    let gen: Gen<(Vec<FStmt>, u64, u32)> =
        fprogram_gen().zip(full_u64()).zip(ranged(0u32, 3)).map(|((p, s), k)| (p, s, k));
    Checker::new("mtcg_malformed::plan_point_oob").cases(24).run(&gen, |(program, seed, k)| {
        let f = compile(program)?;
        let pdg = Pdg::build(&f);
        let partition = seeded_partition(&f, 2, *seed);
        let beyond = f.num_instrs() as u32 + 1 + (seed % 100) as u32;
        let point = match k {
            0 => CommPoint::Before(InstrId(beyond)),
            1 => CommPoint::After(InstrId(beyond)),
            _ => CommPoint::BlockStart(BlockId(f.num_blocks() as u32 + 1)),
        };
        let mut plan = CommPlan::new(2);
        plan.add_point(CommKind::Memory, ThreadId(0), ThreadId(1), point);
        let out = gmt_mtcg::generate_with_plan(&f, &pdg, &partition, plan);
        prop_assert!(
            matches!(out, Err(MtcgError::PlanPointOutOfRange(p)) if p == point),
            "out-of-range point accepted: {out:?}"
        );
        Ok(())
    });
}

/// Querying relevant branches of an out-of-range thread is total (the
/// empty set), so downstream passes cannot index out of bounds.
#[test]
fn relevant_branch_query_is_total() {
    let plan = CommPlan::new(2);
    assert!(plan.relevant_branches(ThreadId(17)).is_empty());
    assert_eq!(plan.all_relevant_branches().len(), 2);
}
