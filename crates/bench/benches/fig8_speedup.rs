//! Figure 8: speedup over single-threaded execution, without and with
//! COCO, on the cycle-level machine model.
//!
//! Prints the figure's rows, then times the simulator itself
//! (cycles-per-second throughput of the machine model).

use gmt_bench::print_once;
use gmt_harness::figures::render_figure8;
use gmt_harness::{run_all, Scale, SchedulerKind};
use gmt_sim::{simulate, MachineConfig};
use gmt_testkit::BenchGroup;
use std::hint::black_box;

fn figure(kind: SchedulerKind) -> String {
    render_figure8(&run_all(kind, true, Scale::Quick), kind)
}

fn main() {
    print_once("Figure 8 (quick scale)", || {
        format!(
            "{}\n{}",
            figure(SchedulerKind::Gremio),
            figure(SchedulerKind::Dswp)
        )
    });

    let mut group = BenchGroup::new("simulator");
    group.sample_size(10);
    for bench in ["adpcmdec", "181.mcf"] {
        let w = gmt_workloads::by_benchmark(bench).unwrap();
        group.bench(&format!("{bench}_single_core"), || {
            black_box(
                simulate(
                    std::slice::from_ref(&w.function),
                    &w.train_args,
                    w.init,
                    &MachineConfig::default(),
                )
                .unwrap()
                .cycles,
            )
        });
    }
    group.finish();
}
