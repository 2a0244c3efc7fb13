//! Validator soundness, mutation-tested: seed known-bad MT programs /
//! plans (swapped produce/consume endpoints, off-by-one queue, dropped
//! control duplication, depth-sensitive deadlock, stale register
//! placement, uncovered memory dependence) and assert [`verify_mt`]
//! catches each class with a queue-level witness — and stays silent on
//! the unmutated output. Every output a test verifies goes through
//! [`verify`], which also holds the several-depth-vectors entry point
//! to the answers of separate calls.

use gmt_core::{verify_mt, verify_mt_each, MtVerifyError};
use gmt_ir::{BinOp, Function, FunctionBuilder, InstrId, Op, QueueId};
use gmt_mtcg::{CommKind, CommPlan, CommPoint, MtcgOutput, QueueLabel};
use gmt_pdg::{Partition, Pdg, ThreadId};
use std::collections::BTreeMap;

/// A branchy two-thread kernel with a register dep (y: T0 -> T1), a
/// condition delivery, and a memory dep (output -> output).
fn kernel() -> (Function, Partition) {
    let mut b = FunctionBuilder::new("k");
    let x = b.param();
    let y = b.fresh_reg();
    let b1 = b.block("b1");
    let b2 = b.block("b2");
    b.bin_into(BinOp::Mul, y, x, 2i64); // i1: y = x*2        (T0)
    let c = b.bin(BinOp::Lt, x, 10i64); // i2                  (T0)
    b.branch(c, b1, b2); // i3                                 (T0)
    b.switch_to(b1);
    b.bin_into(BinOp::Add, y, y, 1i64); // i4: y += 1          (T0)
    b.jump(b2); // i5
    b.switch_to(b2);
    b.output(x); // i6                                          (T0)
    b.output(y); // i7                                          (T1)
    b.ret(None); // i8
    let f = b.finish().unwrap();
    let mut p = Partition::new(2);
    for i in f.all_instrs() {
        p.assign(i, ThreadId(0));
    }
    let consumer = f
        .all_instrs()
        .filter(|&i| matches!(f.instr(i), Op::Output(_)))
        .nth(1)
        .unwrap();
    p.assign(consumer, ThreadId(1));
    (f, p)
}

/// [`verify_mt`] — after checking, on this output, that asking
/// [`verify_mt_each`] for several depth vectors at once gives the list
/// each separate call gives, element for element and in order.
fn verify(
    f: &Function,
    p: &Partition,
    pdg: &Pdg,
    out: &MtcgOutput,
    depths: &[usize],
) -> Vec<MtVerifyError> {
    let errs = verify_mt(f, p, pdg, out, depths);
    let per_queue: Vec<usize> = (0..out.num_queues as usize).map(|q| 1 + q % 3).collect();
    let vectors: [&[usize]; 4] = [&[1], depths, &[32], &per_queue];
    let together = verify_mt_each(f, p, pdg, out, vectors);
    for (k, (depths, got)) in vectors.iter().zip(&together).enumerate() {
        assert_eq!(got, &verify_mt(f, p, pdg, out, depths), "vector {k} of {vectors:?}");
    }
    assert_eq!(together[1], errs);
    errs
}

fn generate(f: &Function, p: &Partition) -> (Pdg, MtcgOutput) {
    let pdg = Pdg::build(f);
    let out = gmt_mtcg::generate(f, &pdg, p).unwrap();
    (pdg, out)
}

#[test]
fn clean_output_verifies() {
    let (f, p) = kernel();
    let (pdg, out) = generate(&f, &p);
    for depth in [1, 32] {
        let errs = verify(&f, &p, &pdg, &out, &[depth]);
        assert!(errs.is_empty(), "clean output flagged at depth {depth}: {errs:?}");
    }
}

/// An output whose `origins` is shorter than `threads` used to end in
/// an out-of-bounds panic inside the verifier; a validator answers a
/// malformed output with a typed error. The thread without a table is
/// named, and each of its communication ops — which no image can hold
/// — is reported too.
#[test]
fn missing_origin_table_is_a_typed_error() {
    let (f, p) = kernel();
    let (pdg, mut out) = generate(&f, &p);
    assert!(out.num_queues > 0, "the kernel communicates");
    out.origins.pop();
    let last = ThreadId(out.threads.len() as u32 - 1);
    let comm_ops = out.threads[last.index()]
        .all_instrs()
        .filter(|&i| out.threads[last.index()].instr(i).is_communication())
        .count();
    assert!(comm_ops > 0, "the last thread communicates");
    let errs = verify(&f, &p, &pdg, &out, &[1]);
    assert_eq!(
        errs.iter()
            .filter(|e| **e == MtVerifyError::MissingOriginTable { thread: last })
            .count(),
        1,
        "{errs:?}"
    );
    let outside = errs
        .iter()
        .filter(|e| matches!(e, MtVerifyError::CommOutsideImage { thread, .. } if *thread == last))
        .count();
    assert_eq!(outside, comm_ops, "{errs:?}");
    // No table at all: every thread is named, nothing panics.
    out.origins.clear();
    let errs = verify(&f, &p, &pdg, &out, &[1]);
    for t in 0..out.threads.len() as u32 {
        assert!(errs.contains(&MtVerifyError::MissingOriginTable { thread: ThreadId(t) }), "{errs:?}");
    }
}

#[test]
fn swapped_produce_consume_caught() {
    let (f, p) = kernel();
    let (pdg, mut out) = generate(&f, &p);
    // Turn the consumer's first consume into a produce on the same
    // queue: the queue's label says this thread is the consuming end.
    let tf = &mut out.threads[1];
    let i = tf
        .all_instrs()
        .find(|&i| matches!(tf.instr(i), Op::Consume { .. }))
        .expect("consumer thread has a consume");
    let Op::Consume { dst, queue } = *tf.instr(i) else { unreachable!() };
    *tf.instr_mut(i) = Op::Produce { queue, value: dst.into() };
    let errs = verify(&f, &p, &pdg, &out, &[1]);
    assert!(
        errs.iter().any(|e| matches!(
            e,
            MtVerifyError::EndpointViolation { thread: ThreadId(1), label, .. }
                if label.queue == queue
        )),
        "swap not caught: {errs:?}"
    );
}

#[test]
fn off_by_one_queue_caught() {
    let (f, p) = kernel();
    let (pdg, mut out) = generate(&f, &p);
    assert!(out.num_queues >= 2, "kernel must allocate several queues");
    let tf = &mut out.threads[1];
    let i = tf
        .all_instrs()
        .find(|&i| matches!(tf.instr(i), Op::Consume { .. }))
        .unwrap();
    let Op::Consume { dst, queue } = *tf.instr(i) else { unreachable!() };
    let wrong = QueueId((queue.0 + 1) % out.num_queues);
    *tf.instr_mut(i) = Op::Consume { dst, queue: wrong };
    let errs = verify(&f, &p, &pdg, &out, &[1]);
    assert!(
        errs.iter().any(|e| matches!(
            e,
            MtVerifyError::SequenceMismatch { produced, consumed, .. }
                if produced != consumed
        ) || matches!(e, MtVerifyError::UnlabeledQueue { .. })),
        "queue shift not caught: {errs:?}"
    );
}

#[test]
fn dropped_control_duplication_caught() {
    let (f, p) = kernel();
    let (pdg, mut out) = generate(&f, &p);
    let branch = f.all_instrs().find(|&i| f.instr(i).is_branch()).unwrap();
    assert!(
        out.plan.relevant_branches(ThreadId(1)).contains(&branch),
        "kernel must make T1 duplicate the branch"
    );
    // Rebuild the plan, dropping T1's duplication of the branch.
    let mut stripped = CommPlan::new(2);
    for item in out.plan.items() {
        stripped.set_points(item.kind, item.from, item.to, item.points);
    }
    for (t_idx, brs) in out.plan.all_relevant_branches().iter().enumerate() {
        for &br in brs {
            if !(t_idx == 1 && br == branch) {
                stripped.add_relevant_branch(ThreadId(t_idx as u32), br);
            }
        }
    }
    out.plan = stripped;
    let errs = verify(&f, &p, &pdg, &out, &[1]);
    assert!(
        errs.iter().any(|e| matches!(
            e,
            MtVerifyError::MissingControlDuplication { thread: ThreadId(1), branch: b }
                if *b == branch
        )),
        "dropped duplication not caught: {errs:?}"
    );
}

#[test]
fn stale_register_placement_caught() {
    let (f, p) = kernel();
    let (pdg, mut out) = generate(&f, &p);
    // Move one of y's communication points from after its redefinition
    // to before it: the consumer can now read the pre-increment value.
    let y = gmt_ir::Reg(1);
    let redef = f
        .all_instrs()
        .find(|&i| f.instr(i).def() == Some(y) && matches!(f.instr(i), Op::Bin(BinOp::Add, ..)))
        .expect("y += 1 exists");
    let mut pts = out.plan.points(CommKind::Register(y), ThreadId(0), ThreadId(1));
    assert!(pts.remove(&CommPoint::After(redef)), "baseline communicates after the redef");
    pts.insert(CommPoint::Before(redef));
    out.plan.set_points(CommKind::Register(y), ThreadId(0), ThreadId(1), pts);
    let errs = verify(&f, &p, &pdg, &out, &[1]);
    assert!(
        errs.iter().any(|e| matches!(
            e,
            MtVerifyError::StaleValue { reg, .. } if *reg == y
        )),
        "stale placement not caught: {errs:?}"
    );
}

#[test]
fn uncovered_memory_dep_caught() {
    let (f, p) = kernel();
    let (pdg, mut out) = generate(&f, &p);
    // Push the memory sync past the consuming output: the dependence
    // source -> sink path no longer crosses it.
    let sink = f
        .all_instrs()
        .filter(|&i| matches!(f.instr(i), Op::Output(_)))
        .nth(1)
        .unwrap();
    let mut pts = std::collections::BTreeSet::new();
    pts.insert(CommPoint::After(sink));
    out.plan.set_points(CommKind::Memory, ThreadId(0), ThreadId(1), pts);
    let errs = verify(&f, &p, &pdg, &out, &[1]);
    assert!(
        errs.iter().any(|e| matches!(
            e,
            MtVerifyError::UncoveredMemoryDep { dst, .. } if *dst == sink
        )),
        "uncovered memory dep not caught: {errs:?}"
    );
}

/// Hand-built output whose producer fills queue 0 twice before the
/// consumer's first consume can run: deadlocks when q0 has depth 1,
/// sound at depth >= 2. Returns `(f, partition, pdg, out)`; the
/// producer's burst sits in the (cold) entry block, so the profile-
/// weighted allocator grants every queue depth 1.
fn burst_output() -> (Function, Partition, Pdg, MtcgOutput) {
    // Original function: two T0 constants feeding T1 (conceptually).
    let mut b = FunctionBuilder::new("orig");
    let r1 = b.const_(1); // i0
    let r2 = b.const_(2); // i1
    b.ret(None); // i2
    let f = b.finish().unwrap();
    let mut p = Partition::new(2);
    for i in f.all_instrs() {
        p.assign(i, ThreadId(0));
    }
    let pdg = Pdg::build(&f);

    let q0 = QueueId(0);
    let q1 = QueueId(1);
    let producer = {
        let mut t = FunctionBuilder::new("t0");
        let v = t.const_(7);
        t.emit(Op::Produce { queue: q0, value: v.into() });
        t.emit(Op::Produce { queue: q0, value: v.into() });
        t.emit(Op::Produce { queue: q1, value: v.into() });
        t.ret(None);
        t.finish().unwrap()
    };
    let consumer = {
        let mut t = FunctionBuilder::new("t1");
        let a = t.fresh_reg();
        let b2 = t.fresh_reg();
        let c = t.fresh_reg();
        t.emit(Op::Consume { dst: a, queue: q1 });
        t.emit(Op::Consume { dst: b2, queue: q0 });
        t.emit(Op::Consume { dst: c, queue: q0 });
        t.ret(None);
        t.finish().unwrap()
    };
    let entry = f.entry();
    let origins: Vec<BTreeMap<_, _>> = vec![
        [(producer.entry(), entry)].into_iter().collect(),
        [(consumer.entry(), entry)].into_iter().collect(),
    ];
    let mut plan = CommPlan::new(2);
    let i0 = InstrId(0);
    let i1 = InstrId(1);
    plan.add_point(CommKind::Register(r1), ThreadId(0), ThreadId(1), CommPoint::After(i0));
    plan.add_point(CommKind::Register(r2), ThreadId(0), ThreadId(1), CommPoint::After(i1));
    let label = |queue, point, reg| QueueLabel {
        queue,
        point,
        kind: CommKind::Register(reg),
        from: ThreadId(0),
        to: ThreadId(1),
    };
    let out = MtcgOutput {
        threads: vec![producer, consumer],
        num_queues: 2,
        plan,
        queue_labels: vec![
            label(q0, CommPoint::After(i0), r1),
            label(q0, CommPoint::After(i0), r1),
            label(q1, CommPoint::After(i1), r2),
        ],
        origins,
    };
    (f, p, pdg, out)
}

/// The wait graph must close the burst cycle exactly at depth 1.
#[test]
fn depth_sensitive_deadlock_caught_at_depth_one_only() {
    let (f, p, pdg, out) = burst_output();
    let q0 = QueueId(0);
    let q1 = QueueId(1);

    let deep = verify(&f, &p, &pdg, &out, &[2]);
    assert!(
        !deep.iter().any(|e| matches!(e, MtVerifyError::PotentialDeadlock { .. })),
        "depth 2 buffers the burst; no deadlock expected: {deep:?}"
    );
    let shallow = verify(&f, &p, &pdg, &out, &[1]);
    let dl = shallow
        .iter()
        .find_map(|e| match e {
            MtVerifyError::PotentialDeadlock { witness } => Some(witness),
            _ => None,
        })
        .unwrap_or_else(|| panic!("depth 1 must deadlock: {shallow:?}"));
    // Every hop records the depth its queue was verified at.
    assert!(dl.iter().all(|s| s.depth == 1), "{dl:?}");
    // The witness names both threads and both queues.
    assert!(dl.iter().any(|s| s.thread == ThreadId(0) && s.queue == q0));
    assert!(dl.iter().any(|s| s.thread == ThreadId(1) && s.queue == q1));
}

/// The burst deadlock is depth-*vector* sensitive: a uniform depth-32
/// array hides it, while the profile-weighted allocation (every point
/// sits in the cold entry block, so every queue gets depth 1) exposes
/// it. The verifier must check at the depths the queues actually get.
#[test]
fn depth_sensitive_deadlock_caught_at_allocated_depths() {
    let (f, p, pdg, out) = burst_output();
    let allocated = gmt_mtcg::allocate_depths(
        &f,
        &gmt_ir::Profile::new(),
        &out.queue_labels,
        out.num_queues,
        32,
    );
    assert_eq!(allocated, vec![1, 1], "entry-block-only traffic is cold");

    let uniform = verify(&f, &p, &pdg, &out, &[32]);
    assert!(
        !uniform.iter().any(|e| matches!(e, MtVerifyError::PotentialDeadlock { .. })),
        "uniform depth 32 buffers the burst: {uniform:?}"
    );
    let errs = verify(&f, &p, &pdg, &out, &allocated);
    assert!(
        errs.iter().any(|e| matches!(e, MtVerifyError::PotentialDeadlock { .. })),
        "allocated depths must expose the burst deadlock: {errs:?}"
    );
}

/// Hand-built two-block output pair: each thread owns one block's value
/// and consumes the other's. `swap` reverses the block order of T0's
/// generated CFG — every per-block check still passes (each image in
/// isolation matches the plan), but T0 then holds out for q1 before
/// serving q0 while T1 does the opposite: a circular wait only visible
/// once the wait graph chains communication across block boundaries
/// along each thread's *generated* control flow.
fn cross_block_output(swap: bool) -> (Function, Partition, Pdg, MtcgOutput) {
    // Original: block A defines r0 (T0), block B defines r1 (T1).
    let mut b = FunctionBuilder::new("orig");
    let r0 = b.fresh_reg();
    let r1 = b.fresh_reg();
    let bb = b.block("B");
    b.const_into(r0, 1); // i0 (T0)
    b.jump(bb); // i1
    b.switch_to(bb);
    b.const_into(r1, 2); // i2 (T1)
    b.ret(None); // i3
    let f = b.finish().unwrap();
    let block_a = f.entry();
    let i0 = InstrId(0);
    let i2 = InstrId(2);
    let mut p = Partition::new(2);
    for i in f.all_instrs() {
        p.assign(i, ThreadId(0));
    }
    p.assign(i2, ThreadId(1));
    p.assign(InstrId(3), ThreadId(1));
    let pdg = Pdg::build(&f);

    let q0 = QueueId(0); // r0: T0 -> T1 at After(i0), in A
    let q1 = QueueId(1); // r1: T1 -> T0 at After(i2), in B
    let t0 = {
        let mut t = FunctionBuilder::new("t0");
        let c0 = t.fresh_reg(); // clone of r0
        let c1 = t.fresh_reg(); // consumed r1
        if swap {
            // Visits B's image first: waits on q1 before feeding q0.
            let a_img = t.block("A");
            t.emit(Op::Consume { dst: c1, queue: q1 });
            t.jump(a_img);
            t.switch_to(a_img);
            t.const_into(c0, 1);
            t.emit(Op::Produce { queue: q0, value: c0.into() });
            t.ret(None);
        } else {
            let b_img = t.block("B");
            t.const_into(c0, 1);
            t.emit(Op::Produce { queue: q0, value: c0.into() });
            t.jump(b_img);
            t.switch_to(b_img);
            t.emit(Op::Consume { dst: c1, queue: q1 });
            t.ret(None);
        }
        t.finish().unwrap()
    };
    let t1 = {
        let mut t = FunctionBuilder::new("t1");
        let c0 = t.fresh_reg(); // consumed r0
        let c1 = t.fresh_reg(); // clone of r1
        let b_img = t.block("B");
        t.emit(Op::Consume { dst: c0, queue: q0 });
        t.jump(b_img);
        t.switch_to(b_img);
        t.const_into(c1, 2);
        t.emit(Op::Produce { queue: q1, value: c1.into() });
        t.ret(None);
        t.finish().unwrap()
    };
    // Map generated blocks back to their originals.
    let t0_blocks: Vec<_> = t0.blocks().collect();
    let t0_origin: BTreeMap<_, _> = if swap {
        [(t0_blocks[0], bb), (t0_blocks[1], block_a)].into_iter().collect()
    } else {
        [(t0_blocks[0], block_a), (t0_blocks[1], bb)].into_iter().collect()
    };
    let t1_blocks: Vec<_> = t1.blocks().collect();
    let t1_origin: BTreeMap<_, _> =
        [(t1_blocks[0], block_a), (t1_blocks[1], bb)].into_iter().collect();

    let mut plan = CommPlan::new(2);
    plan.add_point(CommKind::Register(r0), ThreadId(0), ThreadId(1), CommPoint::After(i0));
    plan.add_point(CommKind::Register(r1), ThreadId(1), ThreadId(0), CommPoint::After(i2));
    let out = MtcgOutput {
        threads: vec![t0, t1],
        num_queues: 2,
        plan,
        queue_labels: vec![
            QueueLabel {
                queue: q0,
                point: CommPoint::After(i0),
                kind: CommKind::Register(r0),
                from: ThreadId(0),
                to: ThreadId(1),
            },
            QueueLabel {
                queue: q1,
                point: CommPoint::After(i2),
                kind: CommKind::Register(r1),
                from: ThreadId(1),
                to: ThreadId(0),
            },
        ],
        origins: vec![t0_origin, t1_origin],
    };
    (f, p, pdg, out)
}

/// The straight-order pair is genuinely clean: no check fires.
#[test]
fn cross_block_clean_pair_verifies() {
    let (f, p, pdg, out) = cross_block_output(false);
    let errs = verify(&f, &p, &pdg, &out, &[1]);
    assert!(errs.is_empty(), "clean cross-block pair flagged: {errs:?}");
}

/// Reversing one thread's block order deadlocks — and only the
/// successor arcs of the wait graph can see it (every per-block
/// sequence still matches).
#[test]
fn cross_block_deadlock_caught_via_successor_arcs() {
    let (f, p, pdg, out) = cross_block_output(true);
    let errs = verify(&f, &p, &pdg, &out, &[32]);
    let witness = errs
        .iter()
        .find_map(|e| match e {
            MtVerifyError::PotentialDeadlock { witness } => Some(witness),
            _ => None,
        })
        .unwrap_or_else(|| panic!("cross-block circular wait not caught: {errs:?}"));
    // The cycle crosses both threads and both queues, independent of
    // depth (no queue ever receives its first value).
    assert!(witness.iter().any(|s| s.thread == ThreadId(0) && s.queue == QueueId(1)));
    assert!(witness.iter().any(|s| s.thread == ThreadId(1) && s.queue == QueueId(0)));
}

/// Swapping a produce with the computation that feeds it leaves every
/// per-block queue *sequence* intact — only the positional plan↔code
/// replay notices the produce now precedes the instruction the plan
/// schedules it after.
#[test]
fn plan_code_position_mismatch_caught() {
    let (f, p) = kernel();
    let (pdg, mut out) = generate(&f, &p);
    // Find a produce in T0 whose in-block predecessor is a computation
    // and swap the two instructions.
    let tf = &mut out.threads[0];
    let mut target = None;
    'outer: for b in tf.blocks() {
        let instrs = &tf.block(b).instrs;
        for w in instrs.windows(2) {
            let (prev, cur) = (w[0], w[1]);
            if matches!(tf.instr(cur), Op::Produce { .. })
                && !tf.instr(prev).is_communication()
            {
                target = Some((prev, cur));
                break 'outer;
            }
        }
    }
    let (prev, cur) = target.expect("T0 has a produce fed by a computation");
    let a = tf.instr(prev).clone();
    let b2 = tf.instr(cur).clone();
    *tf.instr_mut(prev) = b2;
    *tf.instr_mut(cur) = a;
    let errs = verify(&f, &p, &pdg, &out, &[1]);
    assert!(
        errs.iter().any(|e| matches!(
            e,
            MtVerifyError::PlanCodeMismatch { thread: ThreadId(0), .. }
        )),
        "position swap not caught: {errs:?}"
    );
}

/// Regression (found by the differential fuzzer): when a duplicated
/// branch's condition is defined on one thread but the branch is
/// *owned* by another, MTCG delivers def-owner -> branch-owner once and
/// lets the branch owner redistribute the condition to every
/// duplicating thread at `Before(branch)`. The staleness analysis used
/// to look only at direct pair deliveries, so the (def-owner ->
/// duplicating-thread) item — whose points predate a redefinition —
/// was flagged `StaleValue` even though the duplicated branch reads the
/// freshly forwarded copy.
#[test]
fn mediated_branch_condition_delivery_is_not_stale() {
    // entry: c = 3 (T2); a = c * 2 (T0, forces an early T2->T0 delivery
    // of c); loop: a += 1 (T0); c -= 1 (T2, redefinition); branch c
    // (T1, duplicated on T0 and T2); exit: output a (T0).
    let mut b = FunctionBuilder::new("mediated");
    let c = b.fresh_reg();
    let loop_b = b.block("loop");
    let exit_b = b.block("exit");
    b.const_into(c, 3);
    let a = b.bin(BinOp::Mul, c, 2i64);
    b.jump(loop_b);
    b.switch_to(loop_b);
    b.bin_into(BinOp::Add, a, a, 1i64);
    b.bin_into(BinOp::Add, c, c, -1i64);
    b.branch(c, loop_b, exit_b);
    b.switch_to(exit_b);
    b.output(a);
    b.ret(None);
    let f = b.finish().unwrap();

    let mut p = Partition::new(3);
    let ids: Vec<InstrId> = f.all_instrs().collect();
    let branch = *ids.iter().find(|&&i| f.instr(i).is_branch()).unwrap();
    for &i in &ids {
        let t = match f.instr(i) {
            _ if i == branch => ThreadId(1),
            Op::Const(r, _) | Op::Bin(_, r, _, _) if *r == c => ThreadId(2),
            _ => ThreadId(0),
        };
        p.assign(i, t);
    }
    let (pdg, out) = generate(&f, &p);

    // The plan must actually have the mediated shape this regression is
    // about: the branch owner (T1) forwards `c` to a duplicating thread
    // at Before(branch), while the def owner's (T2) own item to that
    // thread does not cover the branch. If MTCG's delivery strategy
    // changes, revisit this pin.
    let forwarded = out.plan.items().any(|it| {
        it.kind == CommKind::Register(c)
            && it.from == ThreadId(1)
            && it.points.contains(&CommPoint::Before(branch))
    });
    assert!(forwarded, "expected the branch owner to redistribute the condition");

    for depth in [1, 32] {
        let errs = verify(&f, &p, &pdg, &out, &[depth]);
        assert!(errs.is_empty(), "mediated delivery flagged at depth {depth}: {errs:?}");
    }
}
