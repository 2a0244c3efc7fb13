//! End-to-end MTCG correctness: for a range of CFG shapes and
//! partitions, the multi-threaded code must produce the same return
//! value, output trace, and final memory as the single-threaded
//! original.

use gmt_ir::interp::{run, ExecConfig};
use gmt_ir::interp_mt::{run_mt, QueueConfig};
use gmt_ir::{BinOp, Function, FunctionBuilder, InstrId, Op};
use gmt_pdg::{Partition, Pdg, ThreadId};

fn exec_config() -> ExecConfig {
    ExecConfig { max_steps: 10_000_000 }
}

/// Runs both versions and compares observable behavior.
fn assert_equivalent(f: &Function, partition: &Partition, args: &[i64]) {
    let single = run(f, args, &exec_config()).expect("single-threaded runs");
    let pdg = Pdg::build(f);
    let out = gmt_mtcg::generate(f, &pdg, partition).expect("mtcg");
    for qcap in [1usize, 32] {
        let mt = run_mt(
            &out.threads,
            args,
            |_, _| {},
            &QueueConfig { num_queues: out.num_queues.max(1) as usize, capacity: qcap },
            &exec_config(),
        )
        .unwrap_or_else(|e| panic!("mt run failed (qcap {qcap}): {e}\nplan: {:?}", out.plan));
        assert_eq!(mt.return_value, single.return_value, "return value (qcap {qcap})");
        assert_eq!(mt.output, single.output, "output trace (qcap {qcap})");
        assert_eq!(mt.memory.cells(), single.memory.cells(), "final memory (qcap {qcap})");
    }
}

/// Round-robin partition of all instructions over `n` threads.
fn round_robin(f: &Function, n: u32) -> Partition {
    let mut p = Partition::new(n);
    for (k, i) in f.all_instrs().enumerate() {
        p.assign(i, ThreadId((k as u32) % n));
    }
    p
}

/// Partition assigning instructions by a predicate.
fn split_by(f: &Function, n: u32, pick: impl Fn(&Function, InstrId) -> u32) -> Partition {
    let mut p = Partition::new(n);
    for i in f.all_instrs() {
        p.assign(i, ThreadId(pick(f, i) % n));
    }
    p
}

/// Straight-line arithmetic with output and live-out return.
fn straight_line() -> Function {
    let mut b = FunctionBuilder::new("straight");
    let x = b.param();
    let a = b.bin(BinOp::Mul, x, 3i64);
    let c = b.bin(BinOp::Add, a, 10i64);
    let d = b.bin(BinOp::Sub, c, x);
    b.output(d);
    let e = b.bin(BinOp::Xor, d, 255i64);
    b.ret(Some(e.into()));
    b.finish().unwrap()
}

/// Diamond with computation in both arms (hammock).
fn diamond() -> Function {
    let mut b = FunctionBuilder::new("diamond");
    let x = b.param();
    let r = b.fresh_reg();
    let then_bb = b.block("then");
    let else_bb = b.block("else");
    let join = b.block("join");
    let c = b.bin(BinOp::Lt, x, 10i64);
    b.branch(c, then_bb, else_bb);
    b.switch_to(then_bb);
    b.bin_into(BinOp::Add, r, x, 100i64);
    b.jump(join);
    b.switch_to(else_bb);
    b.bin_into(BinOp::Mul, r, x, 2i64);
    b.jump(join);
    b.switch_to(join);
    b.output(r);
    b.ret(Some(r.into()));
    b.finish().unwrap()
}

/// Counted loop with accumulator and memory writes.
fn counted_loop() -> Function {
    let mut b = FunctionBuilder::new("loop");
    let n = b.param();
    let arr = b.object("arr", 64);
    let i = b.fresh_reg();
    let s = b.fresh_reg();
    let header = b.block("h");
    let body = b.block("b");
    let exit = b.block("x");
    b.const_into(i, 0);
    b.const_into(s, 0);
    b.jump(header);
    b.switch_to(header);
    let c = b.bin(BinOp::Lt, i, n);
    b.branch(c, body, exit);
    b.switch_to(body);
    let base = b.lea(arr, 0);
    let addr = b.bin(BinOp::Add, base, i);
    let sq = b.bin(BinOp::Mul, i, i);
    b.store(addr, 0, sq);
    b.bin_into(BinOp::Add, s, s, sq);
    b.bin_into(BinOp::Add, i, i, 1i64);
    b.jump(header);
    b.switch_to(exit);
    b.output(s);
    b.ret(Some(s.into()));
    b.finish().unwrap()
}

/// Loop followed by a consumer of its live-out (Figure 4 shape).
fn loop_liveout() -> Function {
    let mut b = FunctionBuilder::new("liveout");
    let n = b.param();
    let i = b.fresh_reg();
    let r1 = b.fresh_reg();
    let h = b.block("h");
    let body = b.block("body");
    let after = b.block("after");
    b.const_into(i, 0);
    b.const_into(r1, 0);
    b.jump(h);
    b.switch_to(h);
    let c = b.bin(BinOp::Lt, i, n);
    b.branch(c, body, after);
    b.switch_to(body);
    b.bin_into(BinOp::Add, r1, r1, i); // B: r1 = ...
    b.bin_into(BinOp::Add, i, i, 1i64);
    b.jump(h);
    b.switch_to(after);
    let e = b.bin(BinOp::Mul, r1, 7i64); // E: uses r1 (live-out)
    b.output(e);
    b.ret(Some(e.into()));
    b.finish().unwrap()
}

/// Nested loops with a reduction.
fn nested_loops() -> Function {
    let mut b = FunctionBuilder::new("nested");
    let n = b.param();
    let i = b.fresh_reg();
    let j = b.fresh_reg();
    let s = b.fresh_reg();
    let h1 = b.block("h1");
    let h2 = b.block("h2");
    let b2 = b.block("b2");
    let a1 = b.block("a1");
    let exit = b.block("exit");
    b.const_into(i, 0);
    b.const_into(s, 0);
    b.jump(h1);
    b.switch_to(h1);
    let c1 = b.bin(BinOp::Lt, i, n);
    b.branch(c1, h2, exit);
    b.switch_to(h2);
    b.const_into(j, 0);
    b.jump(b2);
    b.switch_to(b2);
    let prod = b.bin(BinOp::Mul, i, j);
    b.bin_into(BinOp::Add, s, s, prod);
    b.bin_into(BinOp::Add, j, j, 1i64);
    let c2 = b.bin(BinOp::Lt, j, 3i64);
    b.branch(c2, b2, a1);
    b.switch_to(a1);
    b.bin_into(BinOp::Add, i, i, 1i64);
    b.jump(h1);
    b.switch_to(exit);
    b.output(s);
    b.ret(Some(s.into()));
    b.finish().unwrap()
}

/// Memory pipeline: stage 1 fills an array, stage 2 reads it (same
/// object, so memory deps connect the stages).
fn memory_pipeline() -> Function {
    let mut b = FunctionBuilder::new("mempipe");
    let n = b.param();
    let arr = b.object("arr", 32);
    let i = b.fresh_reg();
    let s = b.fresh_reg();
    let h = b.block("h");
    let body = b.block("body");
    let exit = b.block("exit");
    b.const_into(i, 0);
    b.const_into(s, 0);
    b.jump(h);
    b.switch_to(h);
    let c = b.bin(BinOp::Lt, i, n);
    b.branch(c, body, exit);
    b.switch_to(body);
    let base = b.lea(arr, 0);
    let addr = b.bin(BinOp::Add, base, i);
    let v = b.bin(BinOp::Add, i, 5i64);
    b.store(addr, 0, v); // producer store
    let w = b.load(addr, 0); // consumer load (aliases!)
    b.bin_into(BinOp::Add, s, s, w);
    b.bin_into(BinOp::Add, i, i, 1i64);
    b.jump(h);
    b.switch_to(exit);
    b.ret(Some(s.into()));
    b.finish().unwrap()
}

#[test]
fn straight_line_round_robin_2() {
    let f = straight_line();
    for args in [0i64, 7, -3, 1000] {
        assert_equivalent(&f, &round_robin(&f, 2), &[args]);
    }
}

#[test]
fn straight_line_round_robin_3() {
    let f = straight_line();
    assert_equivalent(&f, &round_robin(&f, 3), &[42]);
}

#[test]
fn diamond_both_paths() {
    let f = diamond();
    for args in [5i64, 50] {
        assert_equivalent(&f, &round_robin(&f, 2), &[args]);
    }
}

#[test]
fn diamond_arm_isolated_on_thread1() {
    let f = diamond();
    // Thread 1 holds only the then-arm computation.
    let p = split_by(&f, 2, |f, i| {
        u32::from(matches!(f.instr(i), Op::Bin(BinOp::Add, _, _, _)))
    });
    for args in [5i64, 50] {
        assert_equivalent(&f, &p, &[args]);
    }
}

#[test]
fn counted_loop_round_robin() {
    let f = counted_loop();
    for n in [0i64, 1, 13] {
        assert_equivalent(&f, &round_robin(&f, 2), &[n]);
    }
}

#[test]
fn counted_loop_three_threads() {
    let f = counted_loop();
    assert_equivalent(&f, &round_robin(&f, 3), &[9]);
}

#[test]
fn loop_liveout_consumer_on_other_thread() {
    let f = loop_liveout();
    // Everything on thread 0 except the post-loop consumer + output.
    let p = split_by(&f, 2, |f, i| {
        u32::from(matches!(f.instr(i), Op::Bin(BinOp::Mul, ..) | Op::Output(_)))
    });
    for n in [0i64, 1, 10] {
        assert_equivalent(&f, &p, &[n]);
    }
}

#[test]
fn loop_liveout_round_robin() {
    let f = loop_liveout();
    assert_equivalent(&f, &round_robin(&f, 2), &[10]);
}

#[test]
fn nested_loops_partitions() {
    let f = nested_loops();
    for n in [0i64, 1, 4] {
        assert_equivalent(&f, &round_robin(&f, 2), &[n]);
    }
    assert_equivalent(&f, &round_robin(&f, 4), &[3]);
}

#[test]
fn memory_pipeline_store_load_split() {
    let f = memory_pipeline();
    // Stores on thread 0, loads on thread 1: forces inter-thread
    // memory synchronization.
    let p = split_by(&f, 2, |f, i| u32::from(f.instr(i).is_mem_read()));
    for n in [0i64, 1, 8] {
        assert_equivalent(&f, &p, &[n]);
    }
}

#[test]
fn memory_pipeline_round_robin() {
    let f = memory_pipeline();
    assert_equivalent(&f, &round_robin(&f, 2), &[8]);
}

#[test]
fn output_ordering_across_threads() {
    // Interleaved outputs assigned to alternating threads must appear
    // in original order.
    let mut b = FunctionBuilder::new("outs");
    for v in 0..6 {
        b.output(v as i64);
    }
    b.ret(None);
    let f = b.finish().unwrap();
    assert_equivalent(&f, &round_robin(&f, 2), &[]);
    assert_equivalent(&f, &round_robin(&f, 3), &[]);
}

#[test]
fn single_thread_partition_is_identity_behavior() {
    let f = counted_loop();
    assert_equivalent(&f, &Partition::single_threaded(&f, 1), &[5]);
}

#[test]
fn mtcg_reports_unassigned_instruction() {
    let f = straight_line();
    let p = Partition::new(2); // nothing assigned
    let pdg = Pdg::build(&f);
    assert!(matches!(
        gmt_mtcg::generate(&f, &pdg, &p),
        Err(gmt_mtcg::MtcgError::Unassigned(_))
    ));
}

#[test]
fn baseline_plan_cost_matches_figure1_expectation() {
    // Communication should be a visible fraction of dynamic instructions
    // for a fine-grained partition (Figure 1 reports up to ~25%).
    let f = counted_loop();
    let p = round_robin(&f, 2);
    let pdg = Pdg::build(&f);
    let out = gmt_mtcg::generate(&f, &pdg, &p).unwrap();
    let mt = run_mt(
        &out.threads,
        &[16],
        |_, _| {},
        &QueueConfig { num_queues: out.num_queues.max(1) as usize, capacity: 32 },
        &exec_config(),
    )
    .unwrap();
    let totals = mt.totals();
    assert!(totals.comm_total() > 0, "round-robin split must communicate");
}
