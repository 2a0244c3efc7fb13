//! The bound API surface: every `gmt_*` path the benchmark touches is
//! named here and nowhere else, so a later change to the repository's
//! entry points shows up as an edit to this one file.
//!
//! Only explicit-options entry points are bound. The `*_reference`
//! executors and the environment-reading wrappers (`simulate`,
//! `simulate_decoded`, `simulate_decoded_traced`) are deliberately
//! absent: the repository intends to delete them. `evaluate_full` and
//! `run_case` still call some of them internally, which is why
//! `main` clears `GMT_*` from the environment before anything runs.

pub use gmt_core::{verify_mt, CocoConfig, Parallelized, Parallelizer, Scheduler};
pub use gmt_fuzz::ast::{case_from_seed, FuzzCase};
pub use gmt_fuzz::oracle::run_case;
pub use gmt_fuzz::runner::DEFAULT_SEED as FUZZ_DEFAULT_SEED;
pub use gmt_graph::{Capacity, FlowNetwork, FlowNode};
pub use gmt_harness::explain::explain_cell;
pub use gmt_harness::figures::render_figure7;
pub use gmt_harness::{
    evaluate_full, geo_mean, verify_matrix, BenchResult, HarnessError, Scale, SchedulerKind,
};
pub use gmt_ir::decoded::DecodedProgram;
pub use gmt_ir::interp::{run_with_memory, RunResult};
pub use gmt_ir::interp_mt::{run_mt, QueueConfig};
pub use gmt_mtcg::{allocate_depths, baseline_plan};
pub use gmt_pdg::Pdg;
pub use gmt_sched::{cut_summary, dswp, gremio};
pub use gmt_sim::{
    check_attribution, check_critical_path, simulate_decoded_opts, simulate_decoded_traced_opts,
    ChromeTraceSink, CoreStats, CritPathSink, MachineConfig, SimOptions, SimResult,
    TraceAggregator,
};
pub use gmt_testkit::{json_escape, splitmix64};
pub use gmt_workloads::{catalog, exec_config, Workload as Kernel};

/// The simulator is always driven with the fast-forward stated
/// explicitly, never read from `GMT_SIM_SKIP`.
pub const FAST_FORWARD: SimOptions = SimOptions { fast_forward: true };
/// The per-cycle engine, for the `sim.noskip_ms` side measurement.
pub const NO_FAST_FORWARD: SimOptions = SimOptions {
    fast_forward: false,
};

/// Event-ring size of the aggregator sink (what `repro --trace` uses).
pub const TRACE_RING: usize = gmt_harness::TRACE_RING_CAPACITY;

/// The two partitioners of the paper's evaluation, in figure order.
pub const SCHEDULERS: [SchedulerKind; 2] = [SchedulerKind::Gremio, SchedulerKind::Dswp];

/// The machine the harness simulates a generated program on: the
/// default machine at the scheduler's paper queue depth, with the
/// synchronization array grown to the plan when it needs more queues.
pub fn machine_for(p: &Parallelized, kind: SchedulerKind) -> MachineConfig {
    let mut m = MachineConfig::default().with_queue_depth(kind.queue_depth());
    m.sa.num_queues = m.sa.num_queues.max(p.num_queues() as usize);
    m
}

/// The functional queue file matching [`machine_for`].
pub fn queues_for(p: &Parallelized, kind: SchedulerKind) -> QueueConfig {
    QueueConfig {
        num_queues: p.num_queues().max(1) as usize,
        capacity: kind.queue_depth(),
    }
}

/// A parallelizer for `kind` with `threads` threads, with or without
/// COCO.
pub fn parallelizer(kind: SchedulerKind, threads: u32, coco: bool) -> Parallelizer {
    let p = Parallelizer::new(kind.scheduler_n(threads));
    if coco {
        p.with_coco(CocoConfig::default())
    } else {
        p
    }
}

/// Static instructions over all generated threads (code size).
pub fn static_instrs(p: &Parallelized) -> u64 {
    p.threads()
        .iter()
        .map(|f| f.all_instrs().count() as u64)
        .sum()
}

/// Retired instructions over all cores of a simulation.
pub fn sim_instrs(r: &SimResult) -> u64 {
    r.cores.iter().map(CoreStats::total_instrs).sum()
}

/// Dynamic produce/consume/sync instructions over all cores of a
/// simulation.
pub fn sim_comm_instrs(r: &SimResult) -> u64 {
    r.cores
        .iter()
        .map(|c| c.communication + c.synchronization)
        .sum()
}

/// Stall cycles over all cores of a simulation.
pub fn sim_stall_cycles(r: &SimResult) -> u64 {
    r.cores
        .iter()
        .map(|c| {
            c.stall_operand
                + c.stall_structural
                + c.stall_sa_port
                + c.stall_queue_full
                + c.stall_queue_empty
                + c.stall_load_limit
                + c.stall_mispredict
        })
        .sum()
}
