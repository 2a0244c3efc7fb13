//! Regression: COCO communication deadlock, shrunken from the
//! `coco_preserves_semantics_and_never_costs_more` property.
//!
//! Re-encoded from the historical proptest regression entry
//! (`shrinks to program = [Loop(1, [Store(122, 0), Loop(0, [Bin(229,
//! Add, 0, 0)])]), Store(0, 31)], seed = 12601032260667469312,
//! penalties = false, dinic = false`) as an explicit `gmt-testkit`-era
//! case, rebuilt with `FunctionBuilder` in the order that generator's
//! compiler emitted it, so the pinned partition seed still puts every
//! instruction on the same thread (the `structural_hash` pin below).

use gmt_core::{optimize, CocoConfig};
use gmt_integration_tests::structural_hash;
use gmt_ir::interp::{run, ExecConfig};
use gmt_ir::interp_mt::{run_mt, QueueConfig};
use gmt_ir::{BinOp, Function, FunctionBuilder, Reg};
use gmt_pdg::Pdg;

/// `for (c = 0; c < trips; c++) { body }` with the counter and the
/// `loop_h`/`loop_b`/`loop_x` blocks allocated before the body.
fn counted_loop(b: &mut FunctionBuilder, trips: i64, body: impl FnOnce(&mut FunctionBuilder)) {
    let counter = b.fresh_reg();
    let header = b.block("loop_h");
    let body_bb = b.block("loop_b");
    let exit = b.block("loop_x");
    b.const_into(counter, 0);
    b.jump(header);
    b.switch_to(header);
    let c = b.bin(BinOp::Lt, counter, trips);
    b.branch(c, body_bb, exit);
    b.switch_to(body_bb);
    body(b);
    b.bin_into(BinOp::Add, counter, counter, 1i64);
    b.jump(header);
    b.switch_to(exit);
}

/// `for 2 { mem[r0 & 15] = r2; for 1 { r1 = r0 + r0 } } mem[r1 & 15] = r0;
/// return r0` over a six-register pool `r0..r5 = 1..6`.
fn shrunken_program() -> Function {
    let mut b = FunctionBuilder::new("generated");
    let mem = b.object("mem", 16);
    let affmem = b.object("affmem", 16);
    let pool: Vec<Reg> = (0..6).map(|_| b.fresh_reg()).collect();
    for (k, &r) in pool.iter().enumerate() {
        b.const_into(r, k as i64 + 1);
    }
    let base = b.lea(mem, 0);
    b.lea(affmem, 0); // read by nothing; it keeps every later instruction id
    let store_masked = |b: &mut FunctionBuilder, idx: Reg, src: Reg| {
        let masked = b.bin(BinOp::And, idx, 15i64);
        let addr = b.bin(BinOp::Add, base, masked);
        b.store(addr, 0, src);
    };
    counted_loop(&mut b, 2, |b| {
        store_masked(b, pool[0], pool[2]);
        counted_loop(b, 1, |b| {
            b.bin_into(BinOp::Add, pool[1], pool[0], pool[0]);
        });
    });
    store_masked(&mut b, pool[1], pool[0]);
    b.ret(Some(pool[0].into()));
    let mut f = b.finish_unverified();
    gmt_ir::split_critical_edges(&mut f);
    gmt_ir::verify(&f).expect("the shrunken program verifies");
    f
}

#[test]
fn shrunken_coco_deadlock_case() {
    let f = shrunken_program();
    println!("{}", gmt_ir::display(&f));
    let seq = run(&f, &[], &ExecConfig::default()).unwrap();
    let partition = gmt_fuzz::ast::seeded_partition(&f, 2, 12601032260667469312);
    assert_eq!(structural_hash(&f, &partition), 0xfd87_0316_385c_fc17, "instruction layout moved");
    for i in f.all_instrs() {
        println!("{i:?} -> {:?}   {}", partition.thread_of(i), f.instr(i));
    }
    let pdg = Pdg::build(&f);
    let config = CocoConfig { control_penalties: false, ..CocoConfig::default() };
    let (plan, _) = optimize(&f, &pdg, &partition, &seq.profile, &config);
    println!("plan: {plan:#?}");
    let out = gmt_mtcg::generate_with_plan(&f, &pdg, &partition, plan).unwrap();
    for t in &out.threads {
        println!("{}", gmt_ir::display(t));
    }
    let mt = run_mt(
        &out.threads,
        &[],
        |_, _| {},
        &QueueConfig { num_queues: out.num_queues.max(1) as usize, capacity: 32 },
        &ExecConfig { max_steps: 1_000_000 },
    )
    .expect("must not deadlock");
    assert_eq!(mt.return_value, seq.return_value);
    assert_eq!(mt.output, seq.output);
    assert_eq!(mt.memory.cells(), seq.memory.cells());
}
