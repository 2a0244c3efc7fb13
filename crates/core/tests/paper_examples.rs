//! The worked examples of the paper (Figures 3, 4, and 5), asserted at
//! the level of COCO's chosen placements and the resulting dynamic
//! behavior.

use gmt_core::{optimize, verify_mt, CocoConfig, MtVerifyError};
use gmt_ir::interp::{run, ExecConfig};
use gmt_ir::interp_mt::{run_mt, QueueConfig};
use gmt_ir::{BinOp, BlockId, Function, FunctionBuilder, Op, Profile, Reg};
use gmt_mtcg::{CommKind, CommPoint};
use gmt_pdg::{Partition, Pdg, ThreadId};

fn exec() -> ExecConfig {
    ExecConfig { max_steps: 10_000_000 }
}

/// Figure 3: r1 defined in B1 (A) and B2 (E), used in B3 (F, thread 2).
/// MTCG communicates r1 twice on the path B1,B2,B3 and must duplicate
/// branch D; COCO should communicate once at the start of B3 and avoid
/// making B1's branch relevant to thread 2.
///
/// CFG:  B1 { A: r1 = x*2; B: br (x<10) -> B3 | B2 }
///       B2 { C: output x; E: r1 = x+1 } -> B3
///       B3 { F: y = r1+7 (T1); G: output y; ret }
struct Fig3 {
    f: Function,
    partition: Partition,
    r1: Reg,
    branch_b: gmt_ir::InstrId,
    b3: BlockId,
}

fn figure3() -> Fig3 {
    let mut b = FunctionBuilder::new("fig3");
    let x = b.param();
    let r1 = b.fresh_reg();
    let b2 = b.block("B2");
    let b3 = b.block("B3");
    b.bin_into(BinOp::Mul, r1, x, 2i64); // A
    let c1 = b.bin(BinOp::Lt, x, 10i64);
    b.branch(c1, b3, b2); // B
    b.switch_to(b2);
    b.output(x); // C
    b.bin_into(BinOp::Add, r1, x, 1i64); // E
    b.jump(b3);
    b.switch_to(b3);
    let y = b.bin(BinOp::Add, r1, 7i64); // F
    b.output(y); // G
    b.ret(Some(y.into()));
    let f = b.finish().unwrap();
    let branch_b = f.block(f.entry()).terminator.unwrap();
    let f_instr = f
        .all_instrs()
        .find(|&i| matches!(f.instr(i), Op::Bin(BinOp::Add, _, _, gmt_ir::Operand::Imm(7))))
        .unwrap();
    let mut partition = Partition::new(2);
    for i in f.all_instrs() {
        partition.assign(i, ThreadId(0));
    }
    partition.assign(f_instr, ThreadId(1));
    Fig3 { f, partition, r1, branch_b, b3 }
}

#[test]
fn fig3_coco_communicates_once_at_b3() {
    let Fig3 { f, partition, r1, branch_b, b3 } = figure3();
    let pdg = Pdg::build(&f);
    let profile = Profile::uniform(&f, 10);
    let (plan, _) = optimize(&f, &pdg, &partition, &profile, &CocoConfig::default());
    let pts = plan.points(CommKind::Register(r1), ThreadId(0), ThreadId(1));
    assert_eq!(
        pts.into_iter().collect::<Vec<_>>(),
        vec![CommPoint::BlockStart(b3)],
        "r1 should be communicated exactly once, at the start of B3"
    );
    // Branch B must NOT be relevant to thread 1 under COCO.
    assert!(
        !plan.relevant_branches(ThreadId(1)).contains(&branch_b),
        "COCO placement makes the branch duplication unnecessary"
    );
    // And no operand communication for branch B's condition either.
    let Op::Branch { cond, .. } = *f.instr(branch_b) else { unreachable!() };
    assert!(plan.points(CommKind::Register(cond), ThreadId(0), ThreadId(1)).is_empty());
}

#[test]
fn fig3_baseline_communicates_twice_with_branch() {
    let Fig3 { f, partition, r1, branch_b, .. } = figure3();
    let pdg = Pdg::build(&f);
    let baseline = gmt_mtcg::baseline_plan(&f, &pdg, &partition).unwrap();
    let pts = baseline.points(CommKind::Register(r1), ThreadId(0), ThreadId(1));
    assert_eq!(pts.len(), 2, "baseline sends r1 after each def");
    assert!(baseline.relevant_branches(ThreadId(1)).contains(&branch_b));
}

#[test]
fn fig3_coco_code_is_correct_and_cheaper() {
    let Fig3 { f, partition, .. } = figure3();
    let pdg = Pdg::build(&f);
    let profile = Profile::uniform(&f, 10);

    let base_out = gmt_mtcg::generate(&f, &pdg, &partition).unwrap();
    let (plan, _) = optimize(&f, &pdg, &partition, &profile, &CocoConfig::default());
    let coco_out = gmt_mtcg::generate_with_plan(&f, &pdg, &partition, plan).unwrap();

    for x in [3i64, 50] {
        let st = run(&f, &[x], &exec()).unwrap();
        for out in [&base_out, &coco_out] {
            let mt = run_mt(
                &out.threads,
                &[x],
                |_, _| {},
                &QueueConfig { num_queues: out.num_queues.max(1) as usize, capacity: 32 },
                &exec(),
            )
            .unwrap();
            assert_eq!(mt.return_value, st.return_value);
            assert_eq!(mt.output, st.output);
        }
    }
    // Dynamic communication: COCO strictly cheaper on the B2 path.
    let count = |out: &gmt_mtcg::MtcgOutput, x: i64| {
        run_mt(
            &out.threads,
            &[x],
            |_, _| {},
            &QueueConfig { num_queues: out.num_queues.max(1) as usize, capacity: 32 },
            &exec(),
        )
        .unwrap()
        .totals()
        .comm_total()
    };
    assert!(count(&coco_out, 50) < count(&base_out, 50));
    assert!(count(&coco_out, 3) <= count(&base_out, 3));
}

/// Figure 4: loop 1 (A,B,C in T_s) computes r1 each iteration; loop 2
/// (D,E,F in T_t) consumes only the final value. MTCG communicates r1
/// inside loop 1 (10 times) and drags loop 1's control flow into T_t;
/// COCO communicates once after the loop and removes loop 1 from T_t
/// entirely.
struct Fig4 {
    f: Function,
    partition: Partition,
    r1: Reg,
    loop1_branch: gmt_ir::InstrId,
}

fn figure4() -> Fig4 {
    let mut b = FunctionBuilder::new("fig4");
    let n = b.param();
    let i = b.fresh_reg();
    let r1 = b.fresh_reg();
    let j = b.fresh_reg();
    let acc = b.fresh_reg();
    let l1 = b.block("L1");
    let mid = b.block("mid");
    let l2 = b.block("L2");
    let exit = b.block("exit");
    // A: i = 0 (plus r1 init)
    b.const_into(i, 0);
    b.const_into(r1, 0);
    b.jump(l1);
    // L1: B: r1 = r1 + i ; i++ ; C: br i < n
    b.switch_to(l1);
    b.bin_into(BinOp::Add, r1, r1, i);
    b.bin_into(BinOp::Add, i, i, 1i64);
    let c1 = b.bin(BinOp::Lt, i, n);
    b.branch(c1, l1, mid);
    // mid: D: j = 0
    b.switch_to(mid);
    b.const_into(j, 0);
    b.const_into(acc, 0);
    b.jump(l2);
    // L2: E: acc += r1 * j ; j++ ; F: br j < n
    b.switch_to(l2);
    let prod = b.bin(BinOp::Mul, r1, j);
    b.bin_into(BinOp::Add, acc, acc, prod);
    b.bin_into(BinOp::Add, j, j, 1i64);
    let c2 = b.bin(BinOp::Lt, j, n);
    b.branch(c2, l2, exit);
    b.switch_to(exit);
    b.output(acc);
    b.ret(Some(acc.into()));
    let f = b.finish().unwrap();
    let loop1_branch = f.block(BlockId(1)).terminator.unwrap();

    // Threads: loop 1 (entry + L1) on T0; mid/L2/exit on T1.
    let mut partition = Partition::new(2);
    for blk in f.blocks() {
        let t = if blk.index() <= 1 { ThreadId(0) } else { ThreadId(1) };
        for ins in f.block(blk).all_instrs() {
            partition.assign(ins, t);
        }
    }
    Fig4 { f, partition, r1, loop1_branch }
}

#[test]
fn fig4_coco_sinks_communication_below_the_loop() {
    let Fig4 { f, partition, r1, loop1_branch } = figure4();
    let pdg = Pdg::build(&f);
    // Profile with a 10-iteration loop.
    let profile = run(&f, &[10], &exec()).unwrap().profile;
    let (plan, _) = optimize(&f, &pdg, &partition, &profile, &CocoConfig::default());
    let pts = plan.points(CommKind::Register(r1), ThreadId(0), ThreadId(1));
    assert_eq!(pts.len(), 1, "single communication point: {pts:?}");
    // The point must be outside loop 1 (not in block L1).
    let p = *pts.iter().next().unwrap();
    assert_ne!(p.block(&f), BlockId(1), "communication must be after the loop");
    // Loop 1's branch must not be relevant to T1.
    assert!(!plan.relevant_branches(ThreadId(1)).contains(&loop1_branch));
}

#[test]
fn fig4_baseline_communicates_every_iteration() {
    let Fig4 { f, partition, r1, loop1_branch } = figure4();
    let pdg = Pdg::build(&f);
    let baseline = gmt_mtcg::baseline_plan(&f, &pdg, &partition).unwrap();
    let pts = baseline.points(CommKind::Register(r1), ThreadId(0), ThreadId(1));
    assert!(pts
        .iter()
        .any(|p| p.block(&f) == BlockId(1)), "baseline communicates inside the loop");
    assert!(baseline.relevant_branches(ThreadId(1)).contains(&loop1_branch));
}

#[test]
fn fig4_dynamic_reduction_matches_paper_shape() {
    let Fig4 { f, partition, .. } = figure4();
    let pdg = Pdg::build(&f);
    let profile = run(&f, &[10], &exec()).unwrap().profile;

    let base_out = gmt_mtcg::generate(&f, &pdg, &partition).unwrap();
    let (plan, _) = optimize(&f, &pdg, &partition, &profile, &CocoConfig::default());
    let coco_out = gmt_mtcg::generate_with_plan(&f, &pdg, &partition, plan).unwrap();

    let st = run(&f, &[10], &exec()).unwrap();
    let run_and_count = |out: &gmt_mtcg::MtcgOutput| {
        let mt = run_mt(
            &out.threads,
            &[10],
            |_, _| {},
            &QueueConfig { num_queues: out.num_queues.max(1) as usize, capacity: 32 },
            &exec(),
        )
        .unwrap();
        assert_eq!(mt.return_value, st.return_value);
        assert_eq!(mt.output, st.output);
        mt.totals().comm_total()
    };
    let base_comm = run_and_count(&base_out);
    let coco_comm = run_and_count(&coco_out);
    // Paper: from one communication per iteration (plus branch operands)
    // down to one. Expect a large reduction, like ks' 73.7%.
    assert!(
        coco_comm * 3 <= base_comm,
        "expected >=3x reduction, got {base_comm} -> {coco_comm}"
    );
    // T1 must execute fewer total instructions (the loop disappeared).
    let coco_mt = run_mt(
        &coco_out.threads,
        &[10],
        |_, _| {},
        &QueueConfig { num_queues: coco_out.num_queues.max(1) as usize, capacity: 32 },
        &exec(),
    )
    .unwrap();
    let base_mt = run_mt(
        &base_out.threads,
        &[10],
        |_, _| {},
        &QueueConfig { num_queues: base_out.num_queues.max(1) as usize, capacity: 32 },
        &exec(),
    )
    .unwrap();
    assert!(
        coco_mt.per_thread[1].total() < base_mt.per_thread[1].total(),
        "thread 1 should shrink: {} vs {}",
        coco_mt.per_thread[1].total(),
        base_mt.per_thread[1].total()
    );
}

/// Figure 5 (memory part): two memory dependences from T_s to T_t that
/// can share one synchronization point.
#[test]
fn fig5_memory_syncs_are_shared() {
    // T0: store x; store y (in sequence, hot block)
    // T1: load y; load x (later block)
    let mut b = FunctionBuilder::new("fig5m");
    let objx = b.object("x", 2);
    let objy = b.object("y", 2);
    let later = b.block("later");
    let px = b.lea(objx, 0);
    let py = b.lea(objy, 0);
    b.store(px, 0, 11i64); // D: writes x... (paper: y)
    b.store(py, 0, 22i64); // G: writes y
    b.jump(later);
    b.switch_to(later);
    let px2 = b.lea(objx, 0);
    let py2 = b.lea(objy, 0);
    let vy = b.load(py2, 0); // J
    let vx = b.load(px2, 0); // K
    let sum = b.bin(BinOp::Add, vy, vx);
    b.output(sum);
    b.ret(None);
    let f = b.finish().unwrap();

    // Stores on T0; everything in `later` on T1; leas split accordingly.
    let mut partition = Partition::new(2);
    for blk in f.blocks() {
        let t = if blk == f.entry() { ThreadId(0) } else { ThreadId(1) };
        for ins in f.block(blk).all_instrs() {
            partition.assign(ins, t);
        }
    }
    let pdg = Pdg::build(&f);
    let profile = Profile::uniform(&f, 100);
    let (plan, stats) = optimize(&f, &pdg, &partition, &profile, &CocoConfig::default());
    let pts = plan.points(CommKind::Memory, ThreadId(0), ThreadId(1));
    assert_eq!(pts.len(), 1, "both memory deps share one sync point: {pts:?}");
    // Both deps optimized (counted once per Algorithm 2 iteration).
    assert!(stats.memory_deps_optimized >= 2);
    assert_eq!(stats.memory_fallbacks, 0);

    // Baseline uses one sync per source store.
    let baseline = gmt_mtcg::baseline_plan(&f, &pdg, &partition).unwrap();
    let base_pts = baseline.points(CommKind::Memory, ThreadId(0), ThreadId(1));
    assert_eq!(base_pts.len(), 2);

    // Correctness of the shared-sync code.
    let st = run(&f, &[], &exec()).unwrap();
    let out = gmt_mtcg::generate_with_plan(&f, &pdg, &partition, plan).unwrap();
    let mt = run_mt(
        &out.threads,
        &[],
        |_, _| {},
        &QueueConfig { num_queues: out.num_queues.max(1) as usize, capacity: 1 },
        &exec(),
    )
    .unwrap();
    assert_eq!(mt.output, st.output);
}

/// Figure 5 (register part, §3.1.2): r1 is defined in both arms of a
/// hammock in T_s and consumed-and-redefined by F in T_t. Two min-cost
/// cuts exist — at the two arms (B3+B4) or at the join (B6) — but the
/// arm cut drags the hammock branch into T_t. The control-flow
/// penalties must steer the cut to the join.
#[test]
fn fig5_penalties_prefer_the_join() {
    let mut b = FunctionBuilder::new("fig5r");
    let x = b.param();
    let r1 = b.fresh_reg();
    let b3 = b.block("B3");
    let b4 = b.block("B4");
    let b6 = b.block("B6");
    let b7 = b.block("B7");
    // B2: branch B.
    let cond = b.bin(BinOp::Lt, x, 4i64);
    let branch_b = b.branch(cond, b3, b4);
    // B3: C defines r1.
    b.switch_to(b3);
    b.bin_into(BinOp::Add, r1, x, 10i64);
    b.jump(b6);
    // B4: D defines r1.
    b.switch_to(b4);
    b.bin_into(BinOp::Mul, r1, x, 3i64);
    b.jump(b6);
    // B6: G (plain T_s work).
    b.switch_to(b6);
    let g = b.bin(BinOp::Add, x, 1i64);
    b.output(g);
    b.jump(b7);
    // B7: F consumes and redefines r1 (T_t).
    b.switch_to(b7);
    b.bin_into(BinOp::Add, r1, r1, 100i64);
    b.output(r1);
    b.ret(Some(r1.into()));
    let f = b.finish().unwrap();

    // Threads: everything T0 except B7's instructions (T1).
    let mut partition = Partition::new(2);
    for blk in f.blocks() {
        let t = if blk == gmt_ir::BlockId(4) { ThreadId(1) } else { ThreadId(0) };
        for i in f.block(blk).all_instrs() {
            partition.assign(i, t);
        }
    }
    let pdg = Pdg::build(&f);
    let profile = Profile::uniform(&f, 4);

    // With penalties: single point at the join; branch B stays
    // irrelevant to T1.
    let (plan, _) = optimize(&f, &pdg, &partition, &profile, &CocoConfig::default());
    let pts = plan.points(CommKind::Register(r1), ThreadId(0), ThreadId(1));
    assert_eq!(pts.len(), 1, "one communication point: {pts:?}");
    let p = *pts.iter().next().unwrap();
    assert!(
        p.block(&f) != gmt_ir::BlockId(1) && p.block(&f) != gmt_ir::BlockId(2),
        "must not sit in the hammock arms: {p:?}"
    );
    assert!(
        !plan.relevant_branches(ThreadId(1)).contains(&branch_b),
        "branch B must stay irrelevant to T_t"
    );

    // Code is correct on both paths either way.
    let out = gmt_mtcg::generate_with_plan(&f, &pdg, &partition, plan).unwrap();
    for x in [1i64, 9] {
        let st = run(&f, &[x], &exec()).unwrap();
        let mt = run_mt(
            &out.threads,
            &[x],
            |_, _| {},
            &QueueConfig { num_queues: out.num_queues.max(1) as usize, capacity: 1 },
            &exec(),
        )
        .unwrap();
        assert_eq!(mt.return_value, st.return_value);
        assert_eq!(mt.output, st.output);
    }
}

/// The static queue-protocol validator on the paper's worked examples:
/// the generated code of each figure — baseline MTCG and COCO alike —
/// must verify cleanly at the strictest queue depth, and a single
/// mutated communication placement per figure must be rejected with
/// the exact violation class it introduces.
#[test]
fn fig3_verifies_and_rejects_a_hoisted_placement() {
    let Fig3 { f, partition, r1, .. } = figure3();
    let pdg = Pdg::build(&f);
    let profile = Profile::uniform(&f, 10);
    let base_out = gmt_mtcg::generate(&f, &pdg, &partition).unwrap();
    assert!(verify_mt(&f, &partition, &pdg, &base_out, &[1]).is_empty());
    let (plan, _) = optimize(&f, &pdg, &partition, &profile, &CocoConfig::default());
    let mut out = gmt_mtcg::generate_with_plan(&f, &pdg, &partition, plan).unwrap();
    assert!(verify_mt(&f, &partition, &pdg, &out, &[1]).is_empty());

    // Mutation: hoist r1's single point from the start of B3 to the
    // start of B1 — before both defs. The consumer would read garbage.
    let mut pts = std::collections::BTreeSet::new();
    pts.insert(CommPoint::BlockStart(f.entry()));
    out.plan.set_points(CommKind::Register(r1), ThreadId(0), ThreadId(1), pts);
    let errs = verify_mt(&f, &partition, &pdg, &out, &[1]);
    assert!(
        errs.iter().any(|e| matches!(e, MtVerifyError::StaleValue { reg, .. } if *reg == r1)),
        "hoisted placement not rejected: {errs:?}"
    );
}

#[test]
fn fig4_verifies_and_rejects_a_point_inside_the_loop() {
    let Fig4 { f, partition, r1, .. } = figure4();
    let pdg = Pdg::build(&f);
    let profile = run(&f, &[10], &exec()).unwrap().profile;
    let base_out = gmt_mtcg::generate(&f, &pdg, &partition).unwrap();
    assert!(verify_mt(&f, &partition, &pdg, &base_out, &[1]).is_empty());
    let (plan, _) = optimize(&f, &pdg, &partition, &profile, &CocoConfig::default());
    let mut out = gmt_mtcg::generate_with_plan(&f, &pdg, &partition, plan).unwrap();
    assert!(verify_mt(&f, &partition, &pdg, &out, &[1]).is_empty());

    // Mutation: pull COCO's below-the-loop point back up to the start
    // of L1 — the loop body redefines r1 after the send every
    // iteration, so loop 2 would consume a stale partial sum.
    let mut pts = std::collections::BTreeSet::new();
    pts.insert(CommPoint::BlockStart(BlockId(1)));
    out.plan.set_points(CommKind::Register(r1), ThreadId(0), ThreadId(1), pts);
    let errs = verify_mt(&f, &partition, &pdg, &out, &[1]);
    assert!(
        errs.iter().any(|e| matches!(e, MtVerifyError::StaleValue { reg, .. } if *reg == r1)),
        "in-loop placement not rejected: {errs:?}"
    );
}

#[test]
fn fig5_verifies_and_rejects_an_uncovering_sync_move() {
    // Rebuild the Figure 5 memory example.
    let mut b = FunctionBuilder::new("fig5m");
    let objx = b.object("x", 2);
    let objy = b.object("y", 2);
    let later = b.block("later");
    let px = b.lea(objx, 0);
    let py = b.lea(objy, 0);
    b.store(px, 0, 11i64);
    b.store(py, 0, 22i64);
    b.jump(later);
    b.switch_to(later);
    let px2 = b.lea(objx, 0);
    let py2 = b.lea(objy, 0);
    let vy = b.load(py2, 0);
    let vx = b.load(px2, 0);
    let sum = b.bin(BinOp::Add, vy, vx);
    b.output(sum);
    b.ret(None);
    let f = b.finish().unwrap();
    let mut partition = Partition::new(2);
    for blk in f.blocks() {
        let t = if blk == f.entry() { ThreadId(0) } else { ThreadId(1) };
        for ins in f.block(blk).all_instrs() {
            partition.assign(ins, t);
        }
    }
    let pdg = Pdg::build(&f);
    let profile = Profile::uniform(&f, 100);
    let (plan, _) = optimize(&f, &pdg, &partition, &profile, &CocoConfig::default());
    let mut out = gmt_mtcg::generate_with_plan(&f, &pdg, &partition, plan).unwrap();
    assert!(verify_mt(&f, &partition, &pdg, &out, &[1]).is_empty());

    // Mutation: move the shared sync to the start of the entry block —
    // before both stores, so neither store-to-load dependence crosses
    // it anymore.
    let mut pts = std::collections::BTreeSet::new();
    pts.insert(CommPoint::BlockStart(f.entry()));
    out.plan.set_points(CommKind::Memory, ThreadId(0), ThreadId(1), pts);
    let errs = verify_mt(&f, &partition, &pdg, &out, &[1]);
    assert!(
        errs.iter().any(|e| matches!(e, MtVerifyError::UncoveredMemoryDep { .. })),
        "uncovering sync move not rejected: {errs:?}"
    );
}
