//! Execution-engine throughput: the pre-decoded flat instruction
//! streams vs the ID-walking reference executors, on the three
//! largest catalog kernels (by dynamic train-input instructions).
//!
//! Three engines are timed on identical work: the single-threaded
//! interpreter, the multi-threaded interpreter (on DSWP+COCO thread
//! pairs), and the cycle-level simulator. Decoding happens once
//! outside the timed region — that is the engine's contract: decode a
//! verified function once, execute it many times.

use gmt_core::{CocoConfig, Parallelizer, Scheduler};
use gmt_ir::decoded::{DecodedFunction, DecodedProgram};
use gmt_ir::interp::{run_decoded_with_memory, run_with_memory_reference};
use gmt_ir::interp_mt::{run_mt_decoded, run_mt_reference, QueueConfig};
use gmt_sim::{simulate_decoded_opts, simulate_reference, MachineConfig, SimOptions};
use gmt_testkit::BenchGroup;
use gmt_workloads::{exec_config, Workload};
use std::hint::black_box;

/// The three catalog kernels with the most dynamic instructions on
/// their train input.
fn largest_kernels() -> Vec<(Workload, u64)> {
    let mut sized: Vec<(Workload, u64)> = gmt_workloads::catalog()
        .into_iter()
        .map(|w| {
            let instrs = w.run_train().expect("train run").counts.total();
            (w, instrs)
        })
        .collect();
    sized.sort_by_key(|(_, instrs)| std::cmp::Reverse(*instrs));
    sized.truncate(3);
    sized
}

fn st_interp(kernels: &[(Workload, u64)]) {
    let mut group = BenchGroup::new("st_interp");
    for (w, instrs) in kernels {
        let cfg = exec_config();
        group.bench(&format!("{}/reference/{instrs}_instrs", w.benchmark), || {
            black_box(
                run_with_memory_reference(&w.function, &w.train_args, w.init, &cfg)
                    .expect("reference run"),
            )
        });
        let d = DecodedFunction::decode(&w.function);
        group.bench(&format!("{}/decoded/{instrs}_instrs", w.benchmark), || {
            black_box(
                run_decoded_with_memory(&d, &w.train_args, w.init, &cfg).expect("decoded run"),
            )
        });
    }
    group.finish();
}

fn mt_interp(kernels: &[(Workload, u64)]) {
    let mut group = BenchGroup::new("mt_interp");
    for (w, instrs) in kernels {
        let cfg = exec_config();
        let train = w.run_train().expect("train run");
        let p = Parallelizer::new(Scheduler::dswp(2))
            .with_coco(CocoConfig::default())
            .parallelize(&w.function, &train.profile)
            .expect("parallelize");
        let qc = QueueConfig { num_queues: p.num_queues().max(1) as usize, capacity: 32 };
        group.bench(&format!("{}/reference/{instrs}_instrs", w.benchmark), || {
            black_box(
                run_mt_reference(p.threads(), &w.train_args, w.init, &qc, &cfg)
                    .expect("reference mt run"),
            )
        });
        let program = DecodedProgram::decode(p.threads()).expect("decode");
        group.bench(&format!("{}/decoded/{instrs}_instrs", w.benchmark), || {
            black_box(
                run_mt_decoded(&program, &w.train_args, w.init, &qc, &cfg)
                    .expect("decoded mt run"),
            )
        });
    }
    group.finish();
}

fn sim(kernels: &[(Workload, u64)]) {
    let mut group = BenchGroup::new("sim");
    for (w, instrs) in kernels {
        let machine = MachineConfig::default();
        let st = std::slice::from_ref(&w.function);
        group.bench(&format!("{}/reference/{instrs}_instrs", w.benchmark), || {
            black_box(
                simulate_reference(st, &w.train_args, w.init, &machine).expect("reference sim"),
            )
        });
        let program = DecodedProgram::decode(st).expect("decode");
        group.bench(&format!("{}/decoded/{instrs}_instrs", w.benchmark), || {
            black_box(
                simulate_decoded_opts(
                    &program,
                    &w.train_args,
                    w.init,
                    &machine,
                    SimOptions::default(),
                )
                .expect("decoded sim"),
            )
        });
    }
    group.finish();
}

/// The kernels whose DSWP thread pairs spend the majority of their
/// cycles in synchronization-array waits (skip ratio >50% of engine
/// steps), plus the largest kernel overall for scale. These are the
/// queue-bound configurations the stall fast-forward targets.
fn queue_bound_kernels() -> Vec<(Workload, u64)> {
    gmt_workloads::catalog()
        .into_iter()
        .filter(|w| matches!(w.benchmark, "mpeg2enc" | "300.twolf" | "183.equake" | "435.gromacs"))
        .map(|w| {
            let instrs = w.run_train().expect("train run").counts.total();
            (w, instrs)
        })
        .collect()
}

/// Queue-bound MT simulation: DSWP thread pairs whose cycles are
/// dominated by synchronization-array waits — exactly the shape the
/// event-driven stall fast-forward targets. Each kernel is timed at
/// the paper's uniform depth-32 SA and at the profile-allocated
/// per-queue depths, with the fast-forward on and off, so the refreshed
/// `BENCH_exec_throughput.json` records the speedup directly.
fn sim_queue_bound(kernels: &[(Workload, u64)]) {
    let mut group = BenchGroup::new("sim_queue_bound");
    for (w, instrs) in kernels {
        let train = w.run_train().expect("train run");
        let p = Parallelizer::new(Scheduler::dswp(2))
            .with_coco(CocoConfig::default())
            .parallelize(&w.function, &train.profile)
            .expect("parallelize");
        let program = DecodedProgram::decode(p.threads()).expect("decode");
        let mut machine = MachineConfig::default();
        if p.num_queues() as usize > machine.sa.num_queues {
            machine.sa.num_queues = p.num_queues() as usize;
        }
        // The allocated-depth vector holds one entry per plan queue, so
        // that machine's SA is sized to the plan exactly.
        let mut alloc = MachineConfig::default().with_queue_depths(p.queue_depths.clone());
        alloc.sa.num_queues = p.num_queues() as usize;
        let configs = [("depth32", machine.clone().with_queue_depth(32)), ("alloc", alloc)];
        for (depth_name, m) in &configs {
            for (skip_name, opts) in [
                ("skip", SimOptions { fast_forward: true }),
                ("noskip", SimOptions { fast_forward: false }),
            ] {
                group.bench(
                    &format!("{}/{depth_name}/{skip_name}/{instrs}_instrs", w.benchmark),
                    || {
                        black_box(
                            simulate_decoded_opts(&program, &w.train_args, w.init, m, opts)
                                .expect("queue-bound sim"),
                        )
                    },
                );
            }
        }
    }
    group.finish();
}

fn main() {
    let kernels = largest_kernels();
    st_interp(&kernels);
    mt_interp(&kernels);
    sim(&kernels);
    sim_queue_bound(&queue_bound_kernels());
}
