//! Pins every communication plan the paper's kernels get: for the 11
//! catalog kernels × {`dswp::partition`, `gremio::partition`} ×
//! N ∈ {2,3,4}, the baseline MTCG plan and the COCO plan — total
//! points, relevant branches per thread, `CocoStats`, and a hash of
//! the whole plan — recorded from the code before the PDG became the
//! owner of the function's analyses. The benchmark's
//! `comm_instrs_total` only sees the N ∈ {2,4} cells it simulates and
//! only their dynamic counts; this sees every plan, item by item.

use gmt_core::{optimize, CocoConfig};
use gmt_mtcg::{baseline_plan, CommKind, CommPlan, CommPoint};
use gmt_pdg::Pdg;
use gmt_sched::{dswp, gremio};
use std::fmt::Write;

/// FNV-1a over the sorted `(kind, from, to, point)` items, then every
/// thread's relevant branches: equal exactly when the plans are.
fn plan_hash(plan: &CommPlan) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u32| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for item in plan.items() {
        for p in &item.points {
            match item.kind {
                CommKind::Register(r) => [0, r.0].map(&mut mix),
                CommKind::Memory => [1, 0].map(&mut mix),
            };
            mix(item.from.0);
            mix(item.to.0);
            match *p {
                CommPoint::Before(i) => [0, i.0].map(&mut mix),
                CommPoint::After(i) => [1, i.0].map(&mut mix),
                CommPoint::BlockStart(b) => [2, b.0].map(&mut mix),
            };
        }
    }
    for (t, branches) in plan.all_relevant_branches().iter().enumerate() {
        mix(u32::MAX);
        mix(t as u32);
        branches.iter().for_each(|br| mix(br.0));
    }
    h
}

fn describe(plan: &CommPlan) -> String {
    let relevant: Vec<usize> = plan.all_relevant_branches().iter().map(|b| b.len()).collect();
    format!("points={} relevant={relevant:?} hash={:016x}", plan.total_points(), plan_hash(plan))
}

fn render() -> String {
    let mut out = String::new();
    for w in gmt_workloads::catalog() {
        let f = &w.function;
        let profile = w.run_train().expect("train run").profile;
        let pdg = Pdg::build(f);
        for n in [2u32, 3, 4] {
            let partitions = [
                (
                    "dswp",
                    dswp::partition(f, &pdg, &profile, &dswp::DswpConfig { num_threads: n, ..Default::default() })
                        .expect("dswp"),
                ),
                (
                    "gremio",
                    gremio::partition(f, &pdg, &profile, &gremio::GremioConfig { num_threads: n, ..Default::default() })
                        .expect("gremio"),
                ),
            ];
            for (name, partition) in partitions {
                let cell = format!("{} N={n} {name}", w.benchmark);
                let baseline = baseline_plan(f, &pdg, &partition).expect("baseline plan");
                writeln!(out, "{cell} baseline {}", describe(&baseline)).unwrap();
                let (coco, s) = optimize(f, &pdg, &partition, &profile, &CocoConfig::default());
                writeln!(
                    out,
                    "{cell} coco {} iterations={} registers={}+{} memory={}+{}",
                    describe(&coco),
                    s.iterations,
                    s.registers_optimized,
                    s.register_fallbacks,
                    s.memory_deps_optimized,
                    s.memory_fallbacks
                )
                .unwrap();
            }
        }
    }
    out
}

#[test]
fn catalog_plans_match_golden() {
    assert_eq!(render(), include_str!("golden/plan_pins.txt"));
}
