//! Pins what the two partitioners decide on the fuzz population: the
//! first 75 cases of the fuzzer's default seed stream (the cases the
//! repository benchmark's `fuzz_diff` workload measures), each
//! partitioned at N ∈ {2,3,4} under the profile of its sequential run.
//! Per case and N it records the structural hash of `dswp::partition`
//! and the score and structural hash of every `gremio::candidates`
//! entry. `crates/sched/tests/golden/partition_pins.txt` covers the 11
//! catalog kernels; this covers the generated programs, whose PDGs are
//! smaller and more varied. Recorded before the searches moved onto the
//! live cost model.

use gmt_fuzz::runner::DEFAULT_SEED;
use gmt_fuzz::{case_from_seed, compile};
use gmt_integration_tests::structural_hash;
use gmt_ir::interp::{run, ExecConfig};
use gmt_pdg::Pdg;
use gmt_sched::{dswp, gremio};
use gmt_testkit::splitmix64;
use std::fmt::Write;

/// Cases pinned: the `fuzz_diff` population.
const CASES: usize = 75;

fn render() -> String {
    let mut out = String::new();
    let mut state = DEFAULT_SEED;
    for _ in 0..CASES {
        let seed = splitmix64(&mut state);
        let case = case_from_seed(seed);
        let f = match compile(&case.program) {
            Ok(f) => f,
            Err(e) => {
                writeln!(out, "{seed:#018x} compile: {e}").unwrap();
                continue;
            }
        };
        let profile = match run(
            &f,
            &[],
            &ExecConfig {
                max_steps: 20_000_000,
            },
        ) {
            Ok(r) => r.profile,
            Err(e) => {
                writeln!(out, "{seed:#018x} run: {e:?}").unwrap();
                continue;
            }
        };
        let pdg = Pdg::build(&f);
        for n in [2u32, 3, 4] {
            match dswp::partition(&f, &pdg, &profile, &dswp::DswpConfig { num_threads: n }) {
                Ok(p) => writeln!(
                    out,
                    "{seed:#018x} N={n} dswp sizes={:?} hash={:016x}",
                    p.static_sizes(),
                    structural_hash(&f, &p)
                ),
                Err(e) => writeln!(out, "{seed:#018x} N={n} dswp: {e}"),
            }
            .unwrap();
            let config = gremio::GremioConfig { num_threads: n };
            match gremio::candidates(&f, &pdg, &profile, &config) {
                Ok(cands) => {
                    for (k, (score, p)) in cands.iter().enumerate() {
                        writeln!(
                            out,
                            "{seed:#018x} N={n} gremio[{k}] score={score} sizes={:?} hash={:016x}",
                            p.static_sizes(),
                            structural_hash(&f, p)
                        )
                        .unwrap();
                    }
                }
                Err(e) => writeln!(out, "{seed:#018x} N={n} gremio: {e}").unwrap(),
            }
        }
    }
    out
}

#[test]
fn fuzz_population_partitions_match_golden() {
    assert_eq!(render(), include_str!("golden/fuzz_partition_pins.txt"));
}
