//! The six workloads. Each is a fixed list of ops executed once per
//! pass; every op checks what it produced and wraps its calls into the
//! layers in spans.

use crate::api::{self, Kernel, Parallelized, RunResult, Scale, SchedulerKind};
use crate::oracle::{Expected, FIG7_QUICK_GOLDEN};
use crate::spans::Recorder;
use crate::stats;

pub const EVAL_FULL: &str = "eval_full";
pub const EVAL_QUICK: &str = "eval_quick";
pub const COMPILE_ONLY: &str = "compile_only";
pub const EXEC_ONLY: &str = "exec_only";
pub const EXEC_TRACED: &str = "exec_traced";
pub const FUZZ_DIFF: &str = "fuzz_diff";

/// Workload names, in the order they are reported.
pub const ALL: [&str; 6] = [
    EVAL_FULL,
    EVAL_QUICK,
    COMPILE_ONLY,
    EXEC_ONLY,
    EXEC_TRACED,
    FUZZ_DIFF,
];

/// Cases in the fuzz population.
pub const FUZZ_CASES: usize = 75;

/// Passes at or above this number hold side measurements, not ops.
pub const SIDE_PASS: u32 = 1_000_000;

/// What one pass produced besides timings.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// A condition that makes the whole run meaningless.
    pub fatal: Option<String>,
    pub sim_cycles: u64,
    pub comm_instrs: u64,
    pub static_instrs: u64,
    /// `seq_cycles / coco_cycles` per cell.
    pub speedups: Vec<f64>,
    /// Simulated instructions and host nanoseconds per cycle-simulator
    /// call, keyed by op.
    pub sim_calls: Vec<(u32, u64, u64)>,
}

impl Tally {
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(msg);
        }
    }

    /// Records a failure, described by `what`, unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    /// Adds the counts of `other`, which were taken somewhere else (the
    /// checks after the last pass) than this tally's.
    pub fn add_counts(&mut self, other: &Tally) {
        self.sim_cycles += other.sim_cycles;
        self.comm_instrs += other.comm_instrs;
        self.static_instrs += other.static_instrs;
        self.speedups.extend(&other.speedups);
    }

    /// The counts that must repeat exactly from pass to pass.
    pub fn exact(&self) -> (u64, u64, u64, Vec<u64>) {
        (
            self.sim_cycles,
            self.comm_instrs,
            self.static_instrs,
            self.speedups.iter().map(|s| s.to_bits()).collect(),
        )
    }
}

/// A workload after set-up.
pub trait Workload {
    /// Ops in one pass.
    fn ops(&self) -> usize;
    /// Executes op `i`.
    fn op(&mut self, i: usize, rec: &mut Recorder, tally: &mut Tally);
    /// Checks that need the whole pass.
    fn end_pass(&mut self, _tally: &mut Tally) {}
    /// Untimed checks after the last pass.
    fn verify(&mut self, _tally: &mut Tally) {}
    /// Layer measurements outside the op list; traced run only.
    /// `pass` numbers the repetition; it is at least [`SIDE_PASS`].
    fn side_measurements(&mut self, _pass: u32, _rec: &mut Recorder, _tally: &mut Tally) {}
}

/// Sets a workload up: everything an op needs that is not the op.
///
/// # Errors
///
/// An unknown workload name, or a set-up step that failed outright.
pub fn setup(
    name: &str,
    expected: &Expected,
    rec: &mut Recorder,
) -> Result<(Box<dyn Workload>, Tally), String> {
    let mut tally = Tally::default();
    let w: Box<dyn Workload> = match name {
        EVAL_FULL => Box::new(Eval::new(Scale::Full, expected, rec, &mut tally)?),
        EVAL_QUICK => Box::new(Eval::new(Scale::Quick, expected, rec, &mut tally)?),
        COMPILE_ONLY => Box::new(CompileOnly::new(expected, rec, &mut tally)?),
        EXEC_ONLY => Box::new(Exec::new(false, expected, rec, &mut tally)?),
        EXEC_TRACED => Box::new(Exec::new(true, expected, rec, &mut tally)?),
        FUZZ_DIFF => Box::new(FuzzDiff::new(rec)),
        other => {
            return Err(format!(
                "unknown workload {other:?}; known: {}",
                ALL.join(", ")
            ))
        }
    };
    Ok((w, tally))
}

// ---------------------------------------------------------------- kernels

/// One catalog kernel with its train profile and the single-threaded
/// interpreter's result on the measured input.
struct KernelRef {
    kernel: Kernel,
    train: RunResult,
    /// `None` when the measured input is the train input.
    reference: Option<RunResult>,
}

impl KernelRef {
    fn reference(&self) -> &RunResult {
        self.reference.as_ref().unwrap_or(&self.train)
    }

    fn args(&self) -> &[i64] {
        if self.reference.is_some() {
            &self.kernel.ref_args
        } else {
            &self.kernel.train_args
        }
    }

    /// Compares an executor's observables with the single-threaded
    /// interpreter's.
    fn check_output(
        &self,
        who: &str,
        output: &[i64],
        return_value: Option<i64>,
        tally: &mut Tally,
    ) {
        let r = self.reference();
        tally.check(
            output == r.output.as_slice() && return_value == r.return_value,
            || {
                format!(
                    "{}: {who} output differs from the single-threaded interpreter",
                    self.kernel.benchmark
                )
            },
        );
    }
}

/// Builds the catalog, profiles every kernel on its train input and,
/// for `Scale::Full`, runs the reference input; every result is
/// checked against its pinned checksum.
fn kernels(
    scale: Scale,
    expected: &Expected,
    rec: &mut Recorder,
    tally: &mut Tally,
) -> Result<Vec<KernelRef>, String> {
    let catalog = rec.span("workloads.catalog", |_| api::catalog());
    let mut out = Vec::with_capacity(catalog.len());
    for kernel in catalog {
        let b = kernel.benchmark;
        let train = rec
            .span("workloads.train", |_| kernel.run_train())
            .map_err(|e| format!("{b}: train run: {e}"))?;
        let reference = match scale {
            Scale::Quick => None,
            Scale::Full => Some(
                rec.span("workloads.reference", |_| kernel.run_ref())
                    .map_err(|e| format!("{b}: reference run: {e}"))?,
            ),
        };
        tally.attempted += 1;
        if let Err(e) = expected.check(b, "train", &train) {
            tally.fail(e);
        }
        if let Some(r) = &reference {
            tally.attempted += 1;
            if let Err(e) = expected.check(b, "ref", r) {
                tally.fail(e);
            }
        }
        out.push(KernelRef {
            kernel,
            train,
            reference,
        });
    }
    Ok(out)
}

// ------------------------------------------------------------------- eval

/// `eval_full` / `eval_quick`: the harness's own evaluation of every
/// kernel under both schedulers.
struct Eval {
    kernels: Vec<KernelRef>,
    scale: Scale,
    /// This pass's rows per scheduler, for the Figure 7 rendering.
    rows: [Vec<Result<api::BenchResult, api::HarnessError>>; 2],
}

impl Eval {
    fn new(
        scale: Scale,
        expected: &Expected,
        rec: &mut Recorder,
        tally: &mut Tally,
    ) -> Result<Eval, String> {
        Ok(Eval {
            kernels: kernels(scale, expected, rec, tally)?,
            scale,
            rows: [Vec::new(), Vec::new()],
        })
    }
}

impl Workload for Eval {
    fn ops(&self) -> usize {
        self.kernels.len() * api::SCHEDULERS.len()
    }

    fn op(&mut self, i: usize, rec: &mut Recorder, tally: &mut Tally) {
        let k = &self.kernels[i / 2];
        let kind = api::SCHEDULERS[i % 2];
        let b = k.kernel.benchmark;
        tally.attempted += 1;
        let started = std::time::Instant::now();
        let evaluated = rec.span("harness.evaluate", |_| {
            api::evaluate_full(&k.kernel, kind, true, self.scale)
        });
        let wall_ns = started.elapsed().as_nanos() as u64;
        let e = match evaluated {
            Ok(e) => e,
            Err(e) => {
                tally.fail(format!("{b}/{}: {e}", kind.name()));
                self.rows[i % 2].push(Err(e));
                return;
            }
        };
        let (base, coco) = (&e.metrics[0], &e.metrics[1]);
        // GREMIO builds the PDG and arbitrates the partition once for
        // both variants and copies those two timings into each record.
        let (compile_ns, arb_ns) = match kind {
            SchedulerKind::Gremio => (
                base.timings.total_ns() + coco.timings.coco_ns + coco.timings.mtcg_ns,
                base.timings.partition_ns,
            ),
            SchedulerKind::Dswp => (base.timings.total_ns() + coco.timings.total_ns(), 0),
        };
        rec.synthesize_children(&[
            ("harness.arbitration", arb_ns),
            ("harness.compile", compile_ns.saturating_sub(arb_ns)),
            ("harness.exec", wall_ns.saturating_sub(compile_ns)),
        ]);
        rec.add("harness.compile_ns", compile_ns as f64);
        rec.add("harness.arb_ns", arb_ns as f64);
        rec.add("harness.exec_ns", wall_ns.saturating_sub(compile_ns) as f64);
        rec.add("harness.arb_probes", base.arb_probes as f64);
        rec.add("harness.arb_hits", base.arb_hits as f64);

        let r = &e.result;
        tally.check(r.seq_instrs == k.reference().counts.total(), || {
            format!(
                "{b}/{}: sequential instruction count {} differs from the interpreter's {}",
                kind.name(),
                r.seq_instrs,
                k.reference().counts.total()
            )
        });
        tally.check(
            r.seq_cycles > 0 && r.mtcg.cycles > 0 && r.coco.cycles > 0,
            || format!("{b}/{}: a variant was not timed", kind.name()),
        );
        tally.sim_cycles += r.coco.cycles;
        tally.comm_instrs += r.coco.counts.comm_total();
        tally.speedups.extend(r.speedup_coco());
        self.rows[i % 2].push(Ok(e.result));
    }

    fn end_pass(&mut self, tally: &mut Tally) {
        let rows = std::mem::take(&mut self.rows);
        if self.scale == Scale::Quick {
            tally.attempted += 1;
            let rendered = format!(
                "{}\n{}\n",
                api::render_figure7(&rows[0], api::SCHEDULERS[0]),
                api::render_figure7(&rows[1], api::SCHEDULERS[1])
            );
            tally.check(rendered == FIG7_QUICK_GOLDEN, || {
                "Figure 7 rendered from this pass differs from tests/golden/fig7_quick.txt"
                    .to_string()
            });
        }
    }

    fn side_measurements(&mut self, pass: u32, rec: &mut Recorder, tally: &mut Tally) {
        if self.scale != Scale::Quick {
            return;
        }
        rec.at(pass, 0);
        let cells = rec.span("harness.verify_matrix", |_| api::verify_matrix(1));
        for cell in cells {
            tally.attempted += 1;
            match cell {
                Ok(c) => tally.check(c.ok(), || {
                    format!(
                        "{}/{}: verify_mt found {} violations",
                        c.benchmark,
                        c.scheduler,
                        c.errors.len()
                    )
                }),
                Err(e) => tally.fail(e.to_string()),
            }
        }
        for (n, k) in self.kernels.iter().enumerate() {
            for kind in api::SCHEDULERS {
                rec.at(pass, 1 + n as u32);
                tally.attempted += 1;
                if let Err(e) = rec.span("harness.explain", |_| {
                    api::explain_cell(&k.kernel, kind, true, self.scale)
                }) {
                    tally.fail(e.to_string());
                }
            }
        }
    }
}

// ----------------------------------------------------------- compile_only

/// One `compile_only` cell.
struct Cell {
    kernel: usize,
    kind: SchedulerKind,
    coco: bool,
    threads: u32,
}

/// `compile_only`: PDG → partition → (COCO) → MTCG → `verify_mt` →
/// decode for every kernel × scheduler × variant × thread count. No
/// executor runs in the timed phase; the compiled programs of the last
/// pass are simulated once afterwards.
struct CompileOnly {
    kernels: Vec<KernelRef>,
    cells: Vec<Cell>,
    compiled: Vec<Option<Parallelized>>,
}

impl CompileOnly {
    fn new(
        expected: &Expected,
        rec: &mut Recorder,
        tally: &mut Tally,
    ) -> Result<CompileOnly, String> {
        let kernels = kernels(Scale::Quick, expected, rec, tally)?;
        let mut cells = Vec::new();
        // The N=2 half is bound by GREMIO's hill-climb, the N=4 half by
        // DSWP and COCO's multi-pair loop, so the halves stay apart.
        for threads in [2, 4] {
            for kernel in 0..kernels.len() {
                for kind in api::SCHEDULERS {
                    for coco in [false, true] {
                        cells.push(Cell {
                            kernel,
                            kind,
                            coco,
                            threads,
                        });
                    }
                }
            }
        }
        let compiled = cells.iter().map(|_| None).collect();
        Ok(CompileOnly {
            kernels,
            cells,
            compiled,
        })
    }

    fn name(&self, c: &Cell) -> String {
        format!(
            "{}/{}/{}/N={}",
            self.kernels[c.kernel].kernel.benchmark,
            c.kind.name(),
            if c.coco { "coco" } else { "mtcg" },
            c.threads
        )
    }
}

impl Workload for CompileOnly {
    fn ops(&self) -> usize {
        self.cells.len()
    }

    fn op(&mut self, i: usize, rec: &mut Recorder, tally: &mut Tally) {
        let c = &self.cells[i];
        let k = &self.kernels[c.kernel];
        let f = &k.kernel.function;
        let profile = &k.train.profile;
        tally.attempted += 1;

        let pdg = rec.span("pdg.build", |_| api::Pdg::build(f));
        rec.add("pdg.nodes", pdg.nodes().len() as f64);
        rec.add("pdg.arcs", pdg.len() as f64);

        let par = api::parallelizer(c.kind, c.threads, c.coco);
        let partition = match (&par.scheduler, c.threads) {
            (api::Scheduler::Gremio(cfg), n) => {
                let name = if n == 2 {
                    "sched.gremio"
                } else {
                    "sched.gremio_n4"
                };
                rec.span(name, |_| api::gremio::partition(f, &pdg, profile, cfg))
            }
            (api::Scheduler::Dswp(cfg), n) => {
                let name = if n == 2 {
                    "sched.dswp"
                } else {
                    "sched.dswp_n4"
                };
                rec.span(name, |_| api::dswp::partition(f, &pdg, profile, cfg))
            }
        };
        let partition = match partition {
            Ok(p) => p,
            Err(e) => return tally.fail(format!("{}: partition: {e}", self.name(c))),
        };
        let cut = api::cut_summary(&pdg, &partition);
        rec.add(
            "sched.cut_deps",
            (cut.register + cut.memory + cut.control) as f64,
        );

        let generated = rec.span("core.parallelize", |_| {
            par.parallelize_with_partition(f, profile, &pdg, partition)
        });
        let p = match generated {
            Ok(p) => p,
            Err(e) => return tally.fail(format!("{}: code generation: {e}", self.name(c))),
        };
        rec.synthesize_children(&[
            ("core.coco", p.timings.coco_ns),
            ("mtcg.codegen", p.timings.mtcg_ns),
        ]);
        rec.add("mtcg.queues", f64::from(p.num_queues()));
        rec.add(
            "mtcg.static_comm_instrs",
            p.output.static_comm_instrs() as f64,
        );
        if let (Some(stats), Some(baseline)) = (&p.coco_stats, &p.baseline_plan) {
            rec.add("core.coco_iterations", stats.iterations as f64);
            rec.add(
                "core.coco_cuts",
                (stats.registers_optimized + stats.memory_deps_optimized) as f64,
            );
            rec.add(
                "core.coco_fallbacks",
                (stats.register_fallbacks + stats.memory_fallbacks) as f64,
            );
            rec.add(
                "core.baseline_comm_cost",
                baseline.dynamic_cost(f, profile) as f64,
            );
            rec.add(
                "core.coco_comm_cost",
                p.output.plan.dynamic_cost(f, profile) as f64,
            );
        }

        let violations = rec.span("core.verify_mt", |_| {
            api::verify_mt(f, &p.partition, &pdg, &p.output, &p.queue_depths)
        });
        rec.add("core.verify_mt_violations", violations.len() as f64);
        tally.check(violations.is_empty(), || {
            format!("{}: verify_mt: {:?}", self.name(c), violations.first())
        });

        match rec.span("ir.decode", |_| api::DecodedProgram::decode(p.threads())) {
            Ok(program) => rec.add(
                "ir.decode_ops",
                program.threads().iter().map(|t| t.num_slots() as f64).sum(),
            ),
            Err(e) => tally.fail(format!("{}: decode: {e}", self.name(c))),
        }
        tally.static_instrs += api::static_instrs(&p);
        self.compiled[i] = Some(p);
    }

    /// Simulates the programs of the last pass: their output must be
    /// the single-threaded interpreter's, and their cycles and
    /// communication are this workload's code quality, so that a
    /// faster compile that generates worse code shows here too.
    fn verify(&mut self, tally: &mut Tally) {
        for (c, p) in self.cells.iter().zip(&self.compiled) {
            let Some(p) = p else { continue };
            let k = &self.kernels[c.kernel];
            tally.attempted += 1;
            let simulated = api::DecodedProgram::decode(p.threads())
                .map_err(|e| e.to_string())
                .and_then(|decoded| {
                    api::simulate_decoded_opts(
                        &decoded,
                        k.args(),
                        k.kernel.init,
                        &api::machine_for(p, c.kind),
                        api::FAST_FORWARD,
                    )
                    .map_err(|e| e.to_string())
                });
            match simulated {
                Ok(r) => {
                    k.check_output(&self.name(c), &r.output, r.return_value, tally);
                    tally.sim_cycles += r.cycles;
                    tally.comm_instrs += api::sim_comm_instrs(&r);
                }
                Err(e) => tally.fail(format!(
                    "{}: generated code failed to run: {e}",
                    self.name(c)
                )),
            }
        }
    }

    fn side_measurements(&mut self, pass: u32, rec: &mut Recorder, _tally: &mut Tally) {
        // The pieces of `parallelize_with_partition` it returns no
        // timing for, and GREMIO's candidate count, called directly.
        for (i, (c, p)) in self.cells.iter().zip(&self.compiled).enumerate() {
            let Some(p) = p else { continue };
            let k = &self.kernels[c.kernel];
            let f = &k.kernel.function;
            rec.at(pass, i as u32);
            let pdg = api::Pdg::build(f);
            let _ = rec.span("mtcg.plan", |_| api::baseline_plan(f, &pdg, &p.partition));
            let par = api::parallelizer(c.kind, c.threads, c.coco);
            rec.span("mtcg.alloc_depths", |_| {
                api::allocate_depths(
                    f,
                    &k.train.profile,
                    p.queue_labels(),
                    p.num_queues(),
                    par.hot_queue_depth,
                )
            });
            if let (api::Scheduler::Gremio(cfg), false) = (&par.scheduler, c.coco) {
                if let Ok(cands) = api::gremio::candidates(f, &pdg, &k.train.profile, cfg) {
                    rec.add("sched.gremio_candidates", cands.len() as f64);
                }
            }
        }
        // COCO's substrate: the default min-cut on the 1024-node ladder
        // network of `benches/mincut_compile_time.rs`.
        let (net, s, t) = ladder(1024);
        rec.at(pass, u32::MAX);
        std::hint::black_box(rec.span("graph.mincut", |_| net.min_cut(s, t)));
    }
}

/// A CFG-shaped flow network: a long spine with periodic diamond
/// detours.
fn ladder(n: usize) -> (api::FlowNetwork, api::FlowNode, api::FlowNode) {
    let mut net = api::FlowNetwork::new();
    let nodes: Vec<api::FlowNode> = (0..n).map(|_| net.add_node()).collect();
    for w in nodes.windows(2) {
        net.add_arc(w[0], w[1], api::Capacity::finite(10));
    }
    for k in (0..n.saturating_sub(4)).step_by(4) {
        let d = net.add_node();
        net.add_arc(nodes[k], d, api::Capacity::finite(3));
        net.add_arc(d, nodes[k + 3], api::Capacity::finite(3));
    }
    (net, nodes[0], nodes[n - 1])
}

// ------------------------------------------------------------------- exec

/// A COCO program compiled in set-up.
struct Program {
    kernel: usize,
    kind: SchedulerKind,
    compiled: Parallelized,
    decoded: api::DecodedProgram,
    machine: api::MachineConfig,
}

enum ExecOp {
    StInterp(usize),
    SeqSim(usize),
    MtInterp(usize),
    Sim(usize),
    Aggregated(usize),
    CritPath(usize),
}

/// `exec_only` and `exec_traced`: executors on programs compiled in
/// set-up.
struct Exec {
    kernels: Vec<KernelRef>,
    /// Each kernel's original function as a one-thread program.
    sequential: Vec<api::DecodedProgram>,
    programs: Vec<Program>,
    ops: Vec<ExecOp>,
    /// `exec_traced` rather than `exec_only`.
    traced: bool,
    /// Sequential cycles per kernel, from this pass's `SeqSim` op.
    seq_cycles: Vec<u64>,
    /// Cycles per program as last simulated by an op.
    cycles: Vec<u64>,
}

impl Exec {
    fn new(
        traced: bool,
        expected: &Expected,
        rec: &mut Recorder,
        tally: &mut Tally,
    ) -> Result<Exec, String> {
        // `exec_only` runs the reference inputs. With sinks attached a
        // reference pass takes ~1.7 s, too few passes in a run for a
        // steady minimum, so `exec_traced` runs the train inputs.
        let scale = if traced { Scale::Quick } else { Scale::Full };
        let kernels = kernels(scale, expected, rec, tally)?;
        let mut sequential = Vec::new();
        let mut programs = Vec::new();
        let mut ops = Vec::new();
        for (n, k) in kernels.iter().enumerate() {
            let b = k.kernel.benchmark;
            let f = &k.kernel.function;
            sequential.push(
                api::DecodedProgram::decode(std::slice::from_ref(f))
                    .map_err(|e| format!("{b}: decode: {e}"))?,
            );
            if !traced {
                ops.push(ExecOp::StInterp(n));
                ops.push(ExecOp::SeqSim(n));
            }
            for kind in api::SCHEDULERS {
                let compiled = rec
                    .span("core.parallelize", |_| {
                        api::parallelizer(kind, 2, true).parallelize(f, &k.train.profile)
                    })
                    .map_err(|e| format!("{b}/{}: {e}", kind.name()))?;
                let decoded = api::DecodedProgram::decode(compiled.threads())
                    .map_err(|e| format!("{b}/{}: decode: {e}", kind.name()))?;
                let machine = api::machine_for(&compiled, kind);
                let p = programs.len();
                programs.push(Program {
                    kernel: n,
                    kind,
                    compiled,
                    decoded,
                    machine,
                });
                if traced {
                    ops.push(ExecOp::Aggregated(p));
                    ops.push(ExecOp::CritPath(p));
                } else {
                    ops.push(ExecOp::MtInterp(p));
                    ops.push(ExecOp::Sim(p));
                }
            }
        }
        let (nk, np) = (kernels.len(), programs.len());
        Ok(Exec {
            kernels,
            sequential,
            programs,
            ops,
            traced,
            seq_cycles: vec![0; nk],
            cycles: vec![0; np],
        })
    }

    fn program_name(&self, p: &Program) -> String {
        format!(
            "{}/{}",
            self.kernels[p.kernel].kernel.benchmark,
            p.kind.name()
        )
    }

    /// Checks and tallies one cycle simulation of program `p`.
    fn simulated(
        &self,
        who: &str,
        op: usize,
        p: &Program,
        host_ns: u64,
        result: Result<api::SimResult, impl std::fmt::Display>,
        tally: &mut Tally,
    ) -> Option<api::SimResult> {
        match result {
            Ok(r) => {
                self.kernels[p.kernel].check_output(who, &r.output, r.return_value, tally);
                tally
                    .sim_calls
                    .push((op as u32, api::sim_instrs(&r), host_ns));
                Some(r)
            }
            Err(e) => {
                tally.fail(format!("{}: {who}: {e}", self.program_name(p)));
                None
            }
        }
    }
}

impl Workload for Exec {
    fn ops(&self) -> usize {
        self.ops.len()
    }

    fn op(&mut self, i: usize, rec: &mut Recorder, tally: &mut Tally) {
        tally.attempted += 1;
        let started = std::time::Instant::now();
        match self.ops[i] {
            ExecOp::StInterp(n) => {
                let k = &self.kernels[n];
                let run = rec.span("ir.st_interp", |_| {
                    api::run_with_memory(
                        &k.kernel.function,
                        k.args(),
                        k.kernel.init,
                        &api::exec_config(),
                    )
                });
                match run {
                    Ok(r) => {
                        k.check_output("ST interpreter", &r.output, r.return_value, tally);
                        rec.add("ir.st_instrs", r.counts.total() as f64);
                    }
                    Err(e) => tally.fail(format!("{}: ST interpreter: {e}", k.kernel.benchmark)),
                }
            }
            ExecOp::SeqSim(n) => {
                let k = &self.kernels[n];
                let run = rec.span("sim.seq_run", |_| {
                    api::simulate_decoded_opts(
                        &self.sequential[n],
                        k.args(),
                        k.kernel.init,
                        &api::MachineConfig::default(),
                        api::FAST_FORWARD,
                    )
                });
                let host_ns = started.elapsed().as_nanos() as u64;
                match run {
                    Ok(r) => {
                        k.check_output("sequential simulation", &r.output, r.return_value, tally);
                        tally
                            .sim_calls
                            .push((i as u32, api::sim_instrs(&r), host_ns));
                        self.seq_cycles[n] = r.cycles;
                    }
                    Err(e) => tally.fail(format!(
                        "{}: sequential simulation: {e}",
                        k.kernel.benchmark
                    )),
                }
            }
            ExecOp::MtInterp(pi) => {
                let p = &self.programs[pi];
                let k = &self.kernels[p.kernel];
                let run = rec.span("ir.mt_interp", |_| {
                    api::run_mt(
                        p.compiled.threads(),
                        k.args(),
                        k.kernel.init,
                        &api::queues_for(&p.compiled, p.kind),
                        &api::exec_config(),
                    )
                });
                match run {
                    Ok(r) => {
                        k.check_output("MT interpreter", &r.output, r.return_value, tally);
                        let totals = r.totals();
                        tally.comm_instrs += totals.comm_total();
                        rec.add("ir.mt_instrs", totals.total() as f64);
                    }
                    Err(e) => tally.fail(format!("{}: MT interpreter: {e}", self.program_name(p))),
                }
            }
            ExecOp::Sim(pi) => {
                let p = &self.programs[pi];
                let k = &self.kernels[p.kernel];
                let run = rec.span("sim.run", |_| {
                    api::simulate_decoded_opts(
                        &p.decoded,
                        k.args(),
                        k.kernel.init,
                        &p.machine,
                        api::FAST_FORWARD,
                    )
                });
                let host_ns = started.elapsed().as_nanos() as u64;
                if let Some(r) = self.simulated("simulation", i, p, host_ns, run, tally) {
                    tally.sim_cycles += r.cycles;
                    if let Some(&seq) = self.seq_cycles.get(p.kernel).filter(|&&c| c > 0) {
                        tally.speedups.push(seq as f64 / r.cycles as f64);
                    }
                    rec.add("sim.engine_steps", r.engine_steps as f64);
                    rec.add("sim.skipped_cycles", r.skipped_cycles as f64);
                    rec.add("sim.cycles", r.cycles as f64);
                    rec.add("sim.stall_cycles", api::sim_stall_cycles(&r) as f64);
                    rec.add("sim.l1_hits", r.hits_l1 as f64);
                    rec.add(
                        "sim.mem_accesses",
                        (r.hits_l1 + r.hits_l2 + r.hits_l3 + r.hits_mem) as f64,
                    );
                    self.cycles[pi] = r.cycles;
                }
            }
            ExecOp::Aggregated(pi) => {
                let p = &self.programs[pi];
                let k = &self.kernels[p.kernel];
                let mut sink = api::TraceAggregator::new(
                    p.compiled.threads().len(),
                    p.machine.sa.num_queues,
                    api::TRACE_RING,
                );
                let run = rec.span("sim.agg", |_| {
                    api::simulate_decoded_traced_opts(
                        &p.decoded,
                        k.args(),
                        k.kernel.init,
                        &p.machine,
                        &mut sink,
                        api::FAST_FORWARD,
                    )
                    .map_err(|e| e.to_string())
                    .and_then(|r| api::check_attribution(&sink, &r).map(|()| r))
                });
                let host_ns = started.elapsed().as_nanos() as u64;
                if let Some(r) = self.simulated("aggregated simulation", i, p, host_ns, run, tally)
                {
                    tally.sim_cycles += r.cycles;
                    tally.comm_instrs += api::sim_comm_instrs(&r);
                    rec.add("sim.dropped_events", sink.dropped_events() as f64);
                    self.cycles[pi] = r.cycles;
                }
            }
            ExecOp::CritPath(pi) => {
                let p = &self.programs[pi];
                let k = &self.kernels[p.kernel];
                let run = rec.span("sim.critpath", |rec| {
                    let mut sink = api::CritPathSink::new(&p.decoded, p.machine.sa.num_queues);
                    let r = api::simulate_decoded_traced_opts(
                        &p.decoded,
                        k.args(),
                        k.kernel.init,
                        &p.machine,
                        &mut sink,
                        api::FAST_FORWARD,
                    )
                    .map_err(|e| e.to_string())?;
                    api::check_critical_path(&sink, &r)?;
                    rec.add("sim.critpath_nodes", sink.num_nodes() as f64);
                    Ok::<_, String>(r)
                });
                let host_ns = started.elapsed().as_nanos() as u64;
                if let Some(r) =
                    self.simulated("critical-path simulation", i, p, host_ns, run, tally)
                {
                    tally.check(r.cycles == self.cycles[pi], || {
                        format!(
                            "{}: the critical-path sink changed the cycle count",
                            self.program_name(p)
                        )
                    });
                }
            }
        }
    }

    /// `exec_traced` only: a sink must never perturb the simulation, so
    /// an untraced run of every program must give the cycles the
    /// traced ops saw.
    fn verify(&mut self, tally: &mut Tally) {
        if !self.traced {
            return;
        }
        for (pi, p) in self.programs.iter().enumerate() {
            let k = &self.kernels[p.kernel];
            tally.attempted += 1;
            match api::simulate_decoded_opts(
                &p.decoded,
                k.args(),
                k.kernel.init,
                &p.machine,
                api::FAST_FORWARD,
            ) {
                Ok(r) => tally.check(r.cycles == self.cycles[pi], || {
                    format!(
                        "{}: traced {} cycles, untraced {}",
                        self.program_name(p),
                        self.cycles[pi],
                        r.cycles
                    )
                }),
                Err(e) => tally.fail(format!(
                    "{}: untraced simulation: {e}",
                    self.program_name(p)
                )),
            }
        }
    }

    fn side_measurements(&mut self, pass: u32, rec: &mut Recorder, tally: &mut Tally) {
        for (pi, p) in self.programs.iter().enumerate() {
            let k = &self.kernels[p.kernel];
            rec.at(pass, pi as u32);
            if self.traced {
                // The denominator of the sink overheads, then the third
                // shipped sink.
                let _ = rec.span("sim.untraced", |_| {
                    api::simulate_decoded_opts(
                        &p.decoded,
                        k.args(),
                        k.kernel.init,
                        &p.machine,
                        api::FAST_FORWARD,
                    )
                });
                let mut sink =
                    api::ChromeTraceSink::new(p.compiled.threads().len(), p.machine.sa.num_queues);
                let run = rec.span("sim.chrome", |_| {
                    api::simulate_decoded_traced_opts(
                        &p.decoded,
                        k.args(),
                        k.kernel.init,
                        &p.machine,
                        &mut sink,
                        api::FAST_FORWARD,
                    )
                });
                match run {
                    Ok(_) => rec.add("sim.chrome_bytes", sink.into_json().len() as f64),
                    Err(e) => tally.fail(format!(
                        "{}: Chrome-trace simulation: {e}",
                        self.program_name(p)
                    )),
                }
            } else {
                let run = rec.span("sim.noskip", |_| {
                    api::simulate_decoded_opts(
                        &p.decoded,
                        k.args(),
                        k.kernel.init,
                        &p.machine,
                        api::NO_FAST_FORWARD,
                    )
                });
                tally.attempted += 1;
                match run {
                    Ok(r) => tally.check(r.cycles == self.cycles[pi], || {
                        format!(
                            "{}: per-cycle engine gives {} cycles, fast-forward {}",
                            self.program_name(p),
                            r.cycles,
                            self.cycles[pi]
                        )
                    }),
                    Err(e) => tally.fail(format!(
                        "{}: per-cycle simulation: {e}",
                        self.program_name(p)
                    )),
                }
            }
        }
    }
}

// ------------------------------------------------------------------- fuzz

/// `fuzz_diff`: generated programs through every stage and executor by
/// way of the fuzzer's differential oracle.
struct FuzzDiff {
    cases: Vec<(u64, api::FuzzCase)>,
    rejected: usize,
}

impl FuzzDiff {
    /// The population is a constant: the first [`FUZZ_CASES`] case seeds
    /// of the fuzzer's default stream, the cases `fuzz --cases 75` runs.
    /// Per-case cost is heavy-tailed (a coefficient of variation near
    /// 1.7), so a population redrawn for every `--seed` would move
    /// every timing by tens of percent with no change to the program.
    fn new(rec: &mut Recorder) -> FuzzDiff {
        let cases = stats::seed_stream(api::FUZZ_DEFAULT_SEED, FUZZ_CASES)
            .into_iter()
            .map(|s| (s, rec.span("fuzz.gen", |_| api::case_from_seed(s))))
            .collect();
        FuzzDiff { cases, rejected: 0 }
    }
}

impl Workload for FuzzDiff {
    fn ops(&self) -> usize {
        self.cases.len()
    }

    fn op(&mut self, i: usize, rec: &mut Recorder, tally: &mut Tally) {
        let (seed, case) = &self.cases[i];
        tally.attempted += 1;
        let outcome = rec.span("fuzz.oracle", |_| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| api::run_case(case)))
        });
        match outcome {
            Ok(Ok(report)) => {
                if report.rejected.is_some() {
                    self.rejected += 1;
                    rec.add("fuzz.rejected", 1.0);
                }
                rec.add("fuzz.seq_steps", report.seq_steps as f64);
                tally.sim_cycles += report.cycles;
            }
            Ok(Err(finding)) => {
                rec.add("fuzz.findings", 1.0);
                tally.fail(format!("fuzz case {seed:#x}: {finding}"));
            }
            Err(_) => {
                rec.add("fuzz.findings", 1.0);
                tally.fail(format!("fuzz case {seed:#x}: panicked"));
            }
        }
    }

    fn end_pass(&mut self, tally: &mut Tally) {
        let rejected = std::mem::take(&mut self.rejected);
        if rejected * 5 > self.cases.len() {
            tally.fatal = Some(format!(
                "{rejected} of {} fuzz cases were rejected with a typed error (more than 20 %): \
                 the population mostly measures the rejection path",
                self.cases.len()
            ));
        }
    }
}
