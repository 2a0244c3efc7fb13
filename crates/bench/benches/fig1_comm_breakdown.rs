//! Figure 1: breakdown of dynamic instructions into computation and
//! communication in baseline MTCG code, for GREMIO and DSWP.
//!
//! Prints the figure's rows, then times the pipeline that produces one
//! row (PDG → partition → MTCG → functional MT run).

use gmt_bench::print_once;
use gmt_harness::figures::render_figure1;
use gmt_harness::{evaluate, run_all, Scale, SchedulerKind};
use gmt_testkit::BenchGroup;
use std::hint::black_box;

fn figure(kind: SchedulerKind) -> String {
    render_figure1(&run_all(kind, false, Scale::Quick), kind)
}

fn main() {
    print_once("Figure 1 (quick scale)", || {
        format!(
            "{}\n{}",
            figure(SchedulerKind::Gremio),
            figure(SchedulerKind::Dswp)
        )
    });

    let mut group = BenchGroup::new("fig1_row");
    group.sample_size(10);
    for bench in ["ks", "adpcmdec"] {
        let w = gmt_workloads::by_benchmark(bench).unwrap();
        group.bench(&format!("{bench}_gremio"), || {
            black_box(evaluate(&w, SchedulerKind::Gremio, false, Scale::Quick).expect("evaluates"))
        });
        group.bench(&format!("{bench}_dswp"), || {
            black_box(evaluate(&w, SchedulerKind::Dswp, false, Scale::Quick).expect("evaluates"))
        });
    }
    group.finish();
}
