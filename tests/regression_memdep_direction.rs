//! Regression: output ordering across threads under DSWP + COCO
//! (memory-dependence direction), shrunken from the
//! `partitioners_preserve_semantics` property.
//!
//! Re-encoded from the historical proptest regression entry
//! (`shrinks to program = [Loop(0, [If(19, [], [Load(6, 7)])]),
//! Loop(0, [If(0, [Output(8)], [])]), Output(1)], use_gremio =
//! false`) as an explicit `gmt-testkit`-era case, rebuilt with
//! `FunctionBuilder` in the order that generator's compiler emitted it
//! (the `structural_hash` pin below holds DSWP's partition to the one
//! it picked then).

use gmt_core::{CocoConfig, Parallelizer, Scheduler};
use gmt_integration_tests::structural_hash;
use gmt_ir::interp::{run, ExecConfig};
use gmt_ir::interp_mt::{run_mt, QueueConfig};
use gmt_ir::{BinOp, Function, FunctionBuilder, Reg};
use gmt_pdg::Pdg;

/// `for (c = 0; c < 1; c++) { body }` with the counter and the
/// `loop_h`/`loop_b`/`loop_x` blocks allocated before the body.
fn one_trip_loop(b: &mut FunctionBuilder, body: impl FnOnce(&mut FunctionBuilder)) {
    let counter = b.fresh_reg();
    let header = b.block("loop_h");
    let body_bb = b.block("loop_b");
    let exit = b.block("loop_x");
    b.const_into(counter, 0);
    b.jump(header);
    b.switch_to(header);
    let c = b.bin(BinOp::Lt, counter, 1i64);
    b.branch(c, body_bb, exit);
    b.switch_to(body_bb);
    body(b);
    b.bin_into(BinOp::Add, counter, counter, 1i64);
    b.jump(header);
    b.switch_to(exit);
}

/// `if cond { then } else { else }` over `then`/`else`/`join` blocks.
fn hammock(
    b: &mut FunctionBuilder,
    cond: Reg,
    then_s: impl FnOnce(&mut FunctionBuilder),
    else_s: impl FnOnce(&mut FunctionBuilder),
) {
    let then_bb = b.block("then");
    let else_bb = b.block("else");
    let join = b.block("join");
    b.branch(cond, then_bb, else_bb);
    b.switch_to(then_bb);
    then_s(b);
    b.jump(join);
    b.switch_to(else_bb);
    else_s(b);
    b.jump(join);
    b.switch_to(join);
}

/// `for 1 { if r1 {} else { r0 = mem[r1 & 15] } } for 1 { if r0 { output
/// r2 } } output r1; return r0` over a six-register pool `r0..r5 = 1..6`.
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
    one_trip_loop(&mut b, |b| {
        hammock(b, pool[1], |_| {}, |b| {
            let masked = b.bin(BinOp::And, pool[1], 15i64);
            let addr = b.bin(BinOp::Add, base, masked);
            b.load_into(pool[0], addr, 0);
        });
    });
    one_trip_loop(&mut b, |b| hammock(b, pool[0], |b| { b.output(pool[2]); }, |_| {}));
    b.output(pool[1]);
    b.ret(Some(pool[0].into()));
    let mut f = b.finish_unverified();
    gmt_ir::split_critical_edges(&mut f);
    gmt_ir::verify(&f).expect("the shrunken program verifies");
    f
}

#[test]
fn outputs_stay_ordered_under_dswp_coco() {
    let f = shrunken_program();
    let seq = run(&f, &[], &ExecConfig::default()).unwrap();
    println!("seq output: {:?}", seq.output);
    let pdg = Pdg::build(&f);
    let dpos: Vec<_> = pdg
        .deps()
        .iter()
        .filter(|d| d.kind == gmt_pdg::DepKind::Memory)
        .collect();
    println!("memory deps: {dpos:?}");

    let base = Parallelizer::new(Scheduler::dswp(2))
        .parallelize(&f, &seq.profile)
        .unwrap();
    assert_eq!(structural_hash(&f, &base.partition), 0x17c9_9123_5704_2e26, "partition moved");
    println!("partition sizes: {:?}", base.partition.static_sizes());
    for i in f.all_instrs() {
        if f.instr(i).is_mem_op() {
            println!("  {i:?} {:?} -> {:?}", f.instr(i), base.partition.thread_of(i));
        }
    }
    let coco = Parallelizer::new(Scheduler::dswp(2))
        .with_coco(CocoConfig::default())
        .parallelize(&f, &seq.profile)
        .unwrap();
    println!("baseline plan: {:?}", base.output.plan);
    println!("coco plan: {:?}", coco.output.plan);
    for (name, r) in [("base", &base), ("coco", &coco)] {
        let mt = run_mt(
            r.threads(),
            &[],
            |_, _| {},
            &QueueConfig { num_queues: r.num_queues().max(1) as usize, capacity: 32 },
            &ExecConfig::default(),
        )
        .unwrap();
        println!("{name}: output {:?}", mt.output);
        assert_eq!(mt.output, seq.output, "{name}");
    }
}
