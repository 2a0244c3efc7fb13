//! Figure 7: relative dynamic communication after COCO.
//!
//! Prints the figure's rows for both schedulers, then times the COCO
//! optimizer itself (the compile-time cost the paper discusses in §4).

use gmt_bench::print_once;
use gmt_core::CocoConfig;
use gmt_harness::figures::render_figure7;
use gmt_harness::{run_all, Scale, SchedulerKind};
use gmt_pdg::Pdg;
use gmt_testkit::BenchGroup;
use std::hint::black_box;

fn figure(kind: SchedulerKind) -> String {
    render_figure7(&run_all(kind, false, Scale::Quick), kind)
}

fn main() {
    print_once("Figure 7 (quick scale)", || {
        format!(
            "{}\n{}",
            figure(SchedulerKind::Gremio),
            figure(SchedulerKind::Dswp)
        )
    });

    let mut group = BenchGroup::new("coco_optimize");
    group.sample_size(20);
    for bench in ["ks", "183.equake", "458.sjeng"] {
        let w = gmt_workloads::by_benchmark(bench).unwrap();
        let train = w.run_train().unwrap();
        let pdg = Pdg::build(&w.function);
        let partition = gmt_sched::dswp::partition(
            &w.function,
            &pdg,
            &train.profile,
            &gmt_sched::dswp::DswpConfig::default(),
        ).unwrap();
        group.bench(bench, || {
            black_box(gmt_core::optimize(
                &w.function,
                &pdg,
                &partition,
                &train.profile,
                &CocoConfig::default(),
            ))
        });
    }
    group.finish();
}
