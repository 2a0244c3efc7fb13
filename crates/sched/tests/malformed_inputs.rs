//! Property tests feeding the partitioners untrusted configurations
//! over random programs: no input may panic; invalid configurations
//! must come back as a [`SchedError`].
//!
//! Replay a failure with `GMT_TESTKIT_SEED=<seed from the message>`.

use gmt_integration_tests::{compile, program_gen, Stmt};
use gmt_ir::Profile;
use gmt_pdg::Pdg;
use gmt_sched::{dswp, gremio, SchedError};
use gmt_testkit::{prop_assert, ranged, Checker, Gen};

/// A zero-thread configuration is diagnosed, never a panic or an
/// arithmetic underflow inside the partitioner.
#[test]
fn zero_threads_is_an_error_not_a_panic() {
    let gen = program_gen();
    Checker::new("sched_malformed::zero_threads").cases(24).run(&gen, |program| {
        let f = compile(program);
        let pdg = Pdg::build(&f);
        let profile = Profile::uniform(&f, 10);
        let d = dswp::partition(&f, &pdg, &profile, &dswp::DswpConfig { num_threads: 0 });
        prop_assert!(matches!(d, Err(SchedError::NoThreads)), "dswp accepted 0 threads: {d:?}");
        let g = gremio::partition(&f, &pdg, &profile, &gremio::GremioConfig { num_threads: 0 });
        prop_assert!(matches!(g, Err(SchedError::NoThreads)), "gremio accepted 0 threads: {g:?}");
        let c = gremio::candidates(&f, &pdg, &profile, &gremio::GremioConfig { num_threads: 0 });
        prop_assert!(matches!(c, Err(SchedError::NoThreads)), "candidates accepted 0: {c:?}");
        Ok(())
    });
}

/// Any positive thread count yields a complete partition: the
/// partitioners must not fail or leave instructions unassigned on
/// extreme-but-legal configurations.
#[test]
fn arbitrary_positive_configs_always_partition() {
    let gen: Gen<(Vec<Stmt>, u32)> = program_gen().zip(ranged(1u32, 9));
    Checker::new("sched_malformed::positive_configs").cases(32).run(&gen, |(program, n)| {
        let f = compile(program);
        let pdg = Pdg::build(&f);
        let profile = Profile::uniform(&f, 10);
        match dswp::partition(&f, &pdg, &profile, &dswp::DswpConfig { num_threads: *n }) {
            Ok(p) => prop_assert!(p.validate(&f).is_ok(), "dswp left holes"),
            Err(e) => return Err(format!("dswp failed on legal config: {e}")),
        }
        match gremio::partition(&f, &pdg, &profile, &gremio::GremioConfig { num_threads: *n }) {
            Ok(p) => prop_assert!(p.validate(&f).is_ok(), "gremio left holes"),
            Err(e) => return Err(format!("gremio failed on legal config: {e}")),
        }
        Ok(())
    });
}
