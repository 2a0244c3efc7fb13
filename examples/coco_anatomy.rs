//! COCO anatomy: reconstruct the paper's Figure 4 scenario and show
//! exactly what the min-cut placement changes — the flow graph, the
//! chosen cut, the generated code, and the dynamic instruction counts.
//!
//! ```text
//! cargo run -p gmt-examples --bin coco_anatomy
//! ```

use gmt_core::{optimize, CocoConfig};
use gmt_ir::interp::{run, ExecConfig};
use gmt_ir::interp_mt::{run_mt, QueueConfig};
use gmt_ir::{display, BinOp, FunctionBuilder};
use gmt_mtcg::CommKind;
use gmt_pdg::{Partition, Pdg, ThreadId};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Figure 4 of the paper: loop 1 computes r1 every iteration; only
    // the final value feeds loop 2. T_s = loop 1, T_t = loop 2.
    let mut b = FunctionBuilder::new("figure4");
    let n = b.param();
    let i = b.fresh_reg();
    let r1 = b.fresh_reg();
    let j = b.fresh_reg();
    let acc = b.fresh_reg();
    let l1 = b.block("L1");
    let mid = b.block("mid");
    let l2 = b.block("L2");
    let exit = b.block("exit");
    b.const_into(i, 0);
    b.const_into(r1, 0);
    b.jump(l1);
    b.switch_to(l1);
    b.bin_into(BinOp::Add, r1, r1, i); // B: r1 = ...
    b.bin_into(BinOp::Add, i, i, 1i64);
    let c1 = b.bin(BinOp::Lt, i, n);
    b.branch(c1, l1, mid); // C
    b.switch_to(mid);
    b.const_into(j, 0); // D
    b.const_into(acc, 0);
    b.jump(l2);
    b.switch_to(l2);
    let prod = b.bin(BinOp::Mul, r1, j); // E: uses r1
    b.bin_into(BinOp::Add, acc, acc, prod);
    b.bin_into(BinOp::Add, j, j, 1i64);
    let c2 = b.bin(BinOp::Lt, j, n);
    b.branch(c2, l2, exit); // F
    b.switch_to(exit);
    b.output(acc);
    b.ret(Some(acc.into()));
    let f = b.finish()?;

    // Partition: loop 1 on T0, loop 2 (and the tail) on T1.
    let mut partition = Partition::new(2);
    for blk in f.blocks() {
        let t = if blk.index() <= 1 { ThreadId(0) } else { ThreadId(1) };
        for ins in f.block(blk).all_instrs() {
            partition.assign(ins, t);
        }
    }
    let pdg = Pdg::build(&f);
    let profile = run(&f, &[10], &ExecConfig::default())?.profile;

    // Baseline: MTCG communicates r1 at its definition — inside loop 1.
    let baseline = gmt_mtcg::baseline_plan(&f, &pdg, &partition).unwrap();
    println!("baseline r1 points: {:?}", baseline.points(CommKind::Register(r1), ThreadId(0), ThreadId(1)));
    println!("baseline makes T1 duplicate branches: {:?}", baseline.relevant_branches(ThreadId(1)));

    // COCO: the min-cut on r1's flow graph lands after the loop.
    let (plan, stats) = optimize(&f, &pdg, &partition, &profile, &CocoConfig::default());
    println!("COCO r1 points:     {:?}", plan.points(CommKind::Register(r1), ThreadId(0), ThreadId(1)));
    println!("COCO leaves T1 with branches:       {:?}", plan.relevant_branches(ThreadId(1)));
    println!("stats: {stats:?}");

    // Generate both versions and count dynamic communication.
    let base_out = gmt_mtcg::generate(&f, &pdg, &partition)?;
    let coco_out = gmt_mtcg::generate_with_plan(&f, &pdg, &partition, plan)?;
    let seq = run(&f, &[10], &ExecConfig::default())?;
    for (name, out) in [("MTCG", &base_out), ("MTCG+COCO", &coco_out)] {
        let mt = run_mt(
            &out.threads,
            &[10],
            |_, _| {},
            &QueueConfig { num_queues: out.num_queues.max(1) as usize, capacity: 32 },
            &ExecConfig::default(),
        )?;
        assert_eq!(mt.return_value, seq.return_value);
        println!(
            "{name}: {} communication instructions; thread 1 executed {} instructions",
            mt.totals().comm_total(),
            mt.per_thread[1].total()
        );
        if std::env::var_os("DUMP").is_some() {
            println!("{}", display(&out.threads[1]));
        }
    }
    println!("(set DUMP=1 to see thread 1 shrink: the first loop disappears from it)");
    Ok(())
}
