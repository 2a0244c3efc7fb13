//! Pins what the two partitioners decide on the paper's kernels: a
//! structural hash of `dswp::partition` and of every
//! `gremio::candidates` entry (with its analytic score) for the 11
//! catalog kernels × N ∈ {2,3,4}, recorded from the code before the
//! dense cost model and the bound-pruned searches replaced the
//! `Partition`-per-candidate search. The simulated-cycle goldens only
//! cover N ∈ {2,4} and only the candidate that survives arbitration;
//! this covers every candidate and N=3.

use gmt_ir::Function;
use gmt_pdg::{Partition, Pdg};
use gmt_sched::{dswp, gremio};
use std::fmt::Write;

/// FNV-1a over `(instruction id, thread)` in layout order: equal
/// exactly when every instruction sits on the same thread.
fn structural_hash(f: &Function, p: &Partition) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u32| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    mix(p.num_threads());
    for i in f.all_instrs() {
        mix(i.0);
        mix(p.thread_of(i).0);
    }
    h
}

fn render() -> String {
    let mut out = String::new();
    for w in gmt_workloads::catalog() {
        let f = &w.function;
        let profile = w.run_train().expect("train run").profile;
        let pdg = Pdg::build(f);
        for n in [2u32, 3, 4] {
            let config = dswp::DswpConfig { num_threads: n };
            let p = dswp::partition(f, &pdg, &profile, &config).expect("dswp");
            writeln!(
                out,
                "{} N={n} dswp sizes={:?} hash={:016x}",
                w.benchmark,
                p.static_sizes(),
                structural_hash(f, &p)
            )
            .unwrap();
            let config = gremio::GremioConfig { num_threads: n };
            let cands = gremio::candidates(f, &pdg, &profile, &config).expect("gremio");
            for (k, (score, p)) in cands.iter().enumerate() {
                writeln!(
                    out,
                    "{} N={n} gremio[{k}] score={score} sizes={:?} hash={:016x}",
                    w.benchmark,
                    p.static_sizes(),
                    structural_hash(f, p)
                )
                .unwrap();
            }
        }
    }
    out
}

#[test]
fn catalog_partitions_match_golden() {
    assert_eq!(render(), include_str!("golden/partition_pins.txt"));
}
