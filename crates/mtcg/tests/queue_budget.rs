//! Queue allocation under pressure: code generated with a tight queue
//! budget must stay correct (same results, deadlock-free) at both queue
//! depths, while using no more queues than the budget.

use gmt_ir::interp::{run, ExecConfig};
use gmt_ir::interp_mt::{run_mt, QueueConfig};
use gmt_ir::{BinOp, Function, FunctionBuilder};
use gmt_mtcg::QueueBudget;
use gmt_pdg::{Partition, Pdg, ThreadId};

fn exec() -> ExecConfig {
    ExecConfig { max_steps: 10_000_000 }
}

/// A loop communicating many values per iteration (one per unrolled
/// statement), so the unlimited plan wants many queues.
fn chatty_kernel() -> Function {
    let mut b = FunctionBuilder::new("chatty");
    let n = b.param();
    let i = b.fresh_reg();
    let acc = b.fresh_reg();
    let h = b.block("h");
    let body = b.block("body");
    let exit = b.block("exit");
    b.const_into(i, 0);
    b.const_into(acc, 0);
    b.jump(h);
    b.switch_to(h);
    let c = b.bin(BinOp::Lt, i, n);
    b.branch(c, body, exit);
    b.switch_to(body);
    let mut v = i;
    for k in 0..12 {
        v = b.bin(BinOp::Add, v, (k as i64) + 1);
        let w = b.bin(BinOp::Xor, v, i);
        b.bin_into(BinOp::Add, acc, acc, w);
    }
    b.bin_into(BinOp::Add, i, i, 1i64);
    b.jump(h);
    b.switch_to(exit);
    b.output(acc);
    b.ret(Some(acc.into()));
    b.finish().unwrap()
}

fn round_robin(f: &Function, n: u32) -> Partition {
    let mut p = Partition::new(n);
    for (k, i) in f.all_instrs().enumerate() {
        p.assign(i, ThreadId(k as u32 % n));
    }
    p
}

#[test]
fn budgeted_codegen_is_correct_at_both_depths() {
    let f = chatty_kernel();
    let seq = run(&f, &[9], &exec()).unwrap();
    let partition = round_robin(&f, 2);
    let pdg = Pdg::build(&f);
    let plan = gmt_mtcg::baseline_plan(&f, &pdg, &partition).unwrap();
    let unlimited =
        gmt_mtcg::generate_with_plan_budgeted(&f, &pdg, &partition, plan.clone(), QueueBudget::Unlimited)
            .unwrap();
    assert!(unlimited.num_queues > 8, "kernel must be chatty: {}", unlimited.num_queues);

    for budget in [4u32, 2] {
        let out = gmt_mtcg::generate_with_plan_budgeted(
            &f,
            &pdg,
            &partition,
            plan.clone(),
            QueueBudget::Limit(budget),
        )
        .unwrap();
        assert!(out.num_queues <= budget, "{} > {budget}", out.num_queues);
        for depth in [1usize, 32] {
            let mt = run_mt(
                &out.threads,
                &[9],
                |_, _| {},
                &QueueConfig { num_queues: out.num_queues.max(1) as usize, capacity: depth },
                &exec(),
            )
            .unwrap_or_else(|e| panic!("budget {budget} depth {depth}: {e}"));
            assert_eq!(mt.return_value, seq.return_value, "budget {budget} depth {depth}");
            assert_eq!(mt.output, seq.output, "budget {budget} depth {depth}");
        }
    }
}

#[test]
fn sync_array_budget_fits_all_catalog_plans() {
    // With the 256-queue budget, every catalog kernel's plan fits the
    // paper's synchronization array.
    for w in gmt_workloads::catalog() {
        let train = w.run_train().unwrap();
        let pdg = Pdg::build(&w.function);
        let partition = gmt_sched::dswp::partition(
            &w.function,
            &pdg,
            &train.profile,
            &gmt_sched::dswp::DswpConfig::default(),
        ).unwrap();
        let plan = gmt_mtcg::baseline_plan(&w.function, &pdg, &partition).unwrap();
        let out = gmt_mtcg::generate_with_plan_budgeted(
            &w.function,
            &pdg,
            &partition,
            plan,
            QueueBudget::SYNC_ARRAY,
        )
        .unwrap();
        assert!(out.num_queues <= 256, "{}: {}", w.benchmark, out.num_queues);
        let seq = w.run_train().unwrap();
        let mt = run_mt(
            &out.threads,
            &w.train_args,
            w.init,
            &QueueConfig { num_queues: 256, capacity: 32 },
            &exec(),
        )
        .unwrap();
        assert_eq!(mt.return_value, seq.return_value, "{}", w.benchmark);
        assert_eq!(mt.output, seq.output, "{}", w.benchmark);
    }
}

#[test]
fn three_thread_budget() {
    let f = chatty_kernel();
    let seq = run(&f, &[5], &exec()).unwrap();
    let partition = round_robin(&f, 3);
    let pdg = Pdg::build(&f);
    let plan = gmt_mtcg::baseline_plan(&f, &pdg, &partition).unwrap();
    let out =
        gmt_mtcg::generate_with_plan_budgeted(&f, &pdg, &partition, plan, QueueBudget::Limit(8)).unwrap();
    assert!(out.num_queues <= 8);
    let mt = run_mt(
        &out.threads,
        &[5],
        |_, _| {},
        &QueueConfig { num_queues: 8, capacity: 1 },
        &exec(),
    )
    .unwrap();
    assert_eq!(mt.return_value, seq.return_value);
}
