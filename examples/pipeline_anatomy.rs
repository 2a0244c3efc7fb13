//! Pipeline anatomy: walk one benchmark kernel through every stage of
//! the Figure-2 framework — PDG, partition, baseline MTCG plan, COCO
//! plan, generated threads, and a timed run on the machine model.
//!
//! ```text
//! cargo run -p gmt-examples --bin pipeline_anatomy [benchmark]
//! ```

use gmt_core::{optimize, CocoConfig};
use gmt_ir::display;
use gmt_pdg::{DepKind, Pdg};
use gmt_sched::dswp;
use gmt_sim::{simulate, MachineConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bench = std::env::args().nth(1).unwrap_or_else(|| "ks".to_string());
    let w = gmt_workloads::by_benchmark(&bench)
        .unwrap_or_else(|| panic!("unknown benchmark {bench}; try ks, adpcmdec, 183.equake ..."));
    println!("benchmark {} — function {} ({}% of execution)", w.benchmark, w.name, w.exec_pct);

    // Stage 0: profile on the train input.
    let train = w.run_train()?;
    println!(
        "train run: {} dynamic instructions, returned {:?}",
        train.counts.total(),
        train.return_value
    );

    // Stage 1: the Program Dependence Graph.
    let pdg = Pdg::build(&w.function);
    let regs = pdg.deps().iter().filter(|d| matches!(d.kind, DepKind::Register(_))).count();
    let mems = pdg.deps().iter().filter(|d| d.kind == DepKind::Memory).count();
    let ctrls = pdg.deps().iter().filter(|d| d.kind == DepKind::Control).count();
    let carried = pdg.deps().iter().filter(|d| d.loop_carried).count();
    println!(
        "PDG: {} nodes, {} deps ({} register, {} memory, {} control; {} loop-carried)",
        pdg.nodes().len(),
        pdg.len(),
        regs,
        mems,
        ctrls,
        carried
    );

    // Stage 2: the partitioner (DSWP here).
    let cfg = dswp::DswpConfig::default();
    let partition = dswp::partition(&w.function, &pdg, &train.profile, &cfg).unwrap();
    println!(
        "DSWP partition: static sizes {:?}, pipeline = {}",
        partition.static_sizes(),
        gmt_sched::is_pipeline(&pdg, &partition)
    );
    let cut = gmt_sched::cut_summary(&pdg, &partition);
    println!("cut dependences: {cut:?}");

    // Stage 3: baseline MTCG plan vs the COCO plan.
    let baseline = gmt_mtcg::baseline_plan(&w.function, &pdg, &partition).unwrap();
    let (coco_plan, stats) = optimize(
        &w.function,
        &pdg,
        &partition,
        &train.profile,
        &CocoConfig::default(),
    );
    println!(
        "baseline plan: {} points, estimated dynamic cost {}",
        baseline.total_points(),
        baseline.dynamic_cost(&w.function, &train.profile)
    );
    println!(
        "COCO plan:     {} points, estimated dynamic cost {} ({:?})",
        coco_plan.total_points(),
        coco_plan.dynamic_cost(&w.function, &train.profile),
        stats
    );

    // Stage 4: code generation.
    let out = gmt_mtcg::generate_with_plan(&w.function, &pdg, &partition, coco_plan)?;
    for t in &out.threads {
        println!("== thread {} ({} blocks) ==", t.name, t.num_blocks());
        if std::env::var_os("DUMP").is_some() {
            println!("{}", display(t));
        }
    }

    // Stage 5: a timed run on the Figure-6(a) machine.
    let mut machine = MachineConfig::default();
    if out.num_queues as usize > machine.sa.num_queues {
        machine.sa.num_queues = out.num_queues as usize;
    }
    let seq = simulate(std::slice::from_ref(&w.function), &w.train_args, w.init, &machine)?;
    let mt = simulate(&out.threads, &w.train_args, w.init, &machine)?;
    println!(
        "cycles: sequential {}, 2-thread {} => speedup {:.2}x (set DUMP=1 to print thread code)",
        seq.cycles,
        mt.cycles,
        seq.cycles as f64 / mt.cycles as f64
    );
    Ok(())
}
