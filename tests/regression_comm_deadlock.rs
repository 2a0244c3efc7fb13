//! Regression: COCO communication deadlock, shrunken from the
//! `coco_preserves_semantics_and_never_costs_more` property.
//!
//! Re-encoded from the historical proptest regression entry
//! (`shrinks to program = [Loop(1, [Store(122, 0), Loop(0, [Bin(229,
//! Add, 0, 0)])]), Store(0, 31)], seed = 12601032260667469312,
//! penalties = false, dinic = false`) as an explicit `gmt-testkit`-era
//! case: the shrunken program and partition seed are pinned below, so
//! the case survives any change to generator draw order.

use gmt_core::{optimize, CocoConfig};
use gmt_integration_tests::{compile, seeded_partition, Stmt};
use gmt_ir::interp::{run, ExecConfig};
use gmt_ir::interp_mt::{run_mt, QueueConfig};
use gmt_ir::BinOp;
use gmt_pdg::Pdg;

#[test]
fn shrunken_coco_deadlock_case() {
    let program = vec![
        Stmt::Loop(
            1,
            vec![
                Stmt::Store(122, 0),
                Stmt::Loop(0, vec![Stmt::Bin(229, BinOp::Add, 0, 0)]),
            ],
        ),
        Stmt::Store(0, 31),
    ];
    let f = compile(&program);
    println!("{}", gmt_ir::display(&f));
    let seq = run(&f, &[], &ExecConfig::default()).unwrap();
    let partition = seeded_partition(&f, 2, 12601032260667469312);
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
