//! The interpreter's edge profile, counted in its dense per-run table,
//! is the profile `Profile::count_edge` builds from the same run's edge
//! stream — with the stream taken from somewhere the table is not: the
//! cycle simulator's issue events. Every terminator the simulated core
//! issues is followed by the first instruction of the block control
//! went to, so the sequence of `(block of terminator, block of next
//! issue)` pairs is the run's CFG-edge sequence, and feeding it through
//! `count_edge` must reproduce the interpreter's `RunResult::profile`
//! exactly (the same arcs present, the same counts, no zero-count
//! entries): on the catalog at train and ref sizes, and on a population
//! of generated programs.

use gmt_fuzz::ast::{case_from_seed, compile};
use gmt_ir::decoded::DecodedProgram;
use gmt_ir::interp::{run_with_memory, ExecConfig, Memory, MemoryLayout};
use gmt_ir::{BlockId, Function, Profile};
use gmt_sim::{simulate_decoded_traced_opts, MachineConfig, SimOptions, TraceEvent, TraceSink};
use gmt_testkit::splitmix64;
use gmt_workloads::{catalog, exec_config};

/// Rebuilds the edge profile of a single-threaded run from its issue
/// stream, one `count_edge` per taken edge.
struct EdgeSink<'f> {
    f: &'f Function,
    profile: Profile,
    /// The block whose terminator issued last.
    leaving: Option<BlockId>,
}

impl TraceSink for EdgeSink<'_> {
    fn event(&mut self, ev: &TraceEvent) {
        let TraceEvent::Issue { src, .. } = *ev else { return };
        let block = self.f.block_of(src);
        if let Some(from) = self.leaving.take() {
            self.profile.count_edge(from, block);
        }
        if self.f.instr(src).is_terminator() {
            self.leaving = Some(block);
        }
    }

    fn run_end(&mut self, _cycles: u64) {}
}

fn count_edge_profile(
    f: &Function,
    args: &[i64],
    init: impl FnOnce(&MemoryLayout, &mut Memory),
) -> Profile {
    let program = DecodedProgram::decode(std::slice::from_ref(f)).expect("decodes");
    let mut sink = EdgeSink { f, profile: Profile::new(), leaving: None };
    sink.profile.count_entry();
    let machine = MachineConfig::default();
    simulate_decoded_traced_opts(&program, args, init, &machine, &mut sink, SimOptions::default())
        .expect("simulates");
    sink.profile
}

#[test]
fn dense_profile_equals_count_edge_on_the_catalog() {
    for w in catalog() {
        for (size, args) in [("train", &w.train_args), ("ref", &w.ref_args)] {
            let dense = run_with_memory(&w.function, args, w.init, &exec_config()).expect("runs").profile;
            let hashed = count_edge_profile(&w.function, args, w.init);
            assert_eq!(dense, hashed, "{} ({size})", w.benchmark);
            assert!(dense.block_weights(&w.function).iter().any(|&c| c > 1), "{}: loops", w.benchmark);
        }
    }
}

#[test]
fn dense_profile_equals_count_edge_on_generated_programs() {
    let mut stream = gmt_fuzz::runner::DEFAULT_SEED;
    let mut checked = 0;
    while checked < 200 {
        let seed = splitmix64(&mut stream);
        let Ok(f) = compile(&case_from_seed(seed).program) else { continue };
        let exec = ExecConfig { max_steps: 20_000_000 };
        let Ok(run) = run_with_memory(&f, &[], |_, _| {}, &exec) else { continue };
        assert_eq!(run.profile, count_edge_profile(&f, &[], |_, _| {}), "seed {seed:#x}");
        checked += 1;
    }
}
