//! The metamorphic law behind `evaluate_full`'s shared runs: **queue
//! names are not observable**. Renaming the queues of a multi-threaded
//! program through any injection into the synchronization array
//! changes nothing either executor reports on the same machine: every field of the simulator's `SimResult`
//! (cycles, per-core `CoreStats`, output, hit levels, `engine_steps`,
//! `skipped_cycles`) with the fast-forward on and off, and the
//! functional interpreter's return value, output, per-thread counts and
//! final memory.
//!
//! The law needs no second implementation: the program is its own
//! reference. It is checked on the 44 programs the figures measure
//! (every quick cell, both variants) and on a population from
//! `gmt-fuzz`'s generator, and it agrees with
//! `DecodedProgram::queue_renaming`, which must recover exactly the
//! injection applied. The negative controls show that the law and the
//! comparison can both fail.

use gmt_core::{CocoConfig, Parallelizer, Scheduler};
use gmt_fuzz::ast::{case_from_seed, compile, seeded_partition, Mode};
use gmt_harness::{compile_cell, Scale, SchedulerKind};
use gmt_ir::decoded::DecodedProgram;
use gmt_ir::interp::{DynCounts, ExecConfig, Memory, MemoryLayout};
use gmt_ir::interp_mt::{run_mt_decoded, QueueConfig};
use gmt_ir::{BinOp, Function, FunctionBuilder, Op, QueueId};
use gmt_pdg::Pdg;
use gmt_sim::{simulate_decoded_opts, MachineConfig, SimOptions, SimResult};
use gmt_testkit::{splitmix64, TestRng};
use gmt_workloads::{catalog, exec_config};

/// Queues of the synchronization array every renaming maps into.
const FILE: usize = 256;

/// `threads` with every queue operand `q` replaced by `map[q]`.
fn rename(threads: &[Function], map: &[u32]) -> Vec<Function> {
    let mut renamed = threads.to_vec();
    for f in &mut renamed {
        for i in f.all_instrs().collect::<Vec<_>>() {
            match f.instr_mut(i) {
                Op::Produce { queue, .. }
                | Op::Consume { queue, .. }
                | Op::ProduceSync { queue }
                | Op::ConsumeSync { queue } => *queue = QueueId(map[queue.index()]),
                _ => {}
            }
        }
    }
    renamed
}

/// A random injection of queues `0..n` into the file: the first `n`
/// entries of a shuffle of `0..FILE`.
fn injection(rng: &mut TestRng, n: usize) -> Vec<u32> {
    let mut file: Vec<u32> = (0..FILE as u32).collect();
    for i in 0..n {
        file.swap(i, rng.range_usize(i, FILE));
    }
    file.truncate(n);
    file
}

/// Everything the executors report about one program on one input.
#[derive(PartialEq)]
struct Observed {
    /// Fast-forward on, then off.
    sims: [SimResult; 2],
    return_value: Option<i64>,
    output: Vec<i64>,
    per_thread: Vec<DynCounts>,
    memory: Vec<i64>,
}

fn observe(
    program: &DecodedProgram,
    args: &[i64],
    init: impl Fn(&MemoryLayout, &mut Memory) + Copy,
    machine: &MachineConfig,
    queues: &QueueConfig,
) -> Result<Observed, String> {
    let sim = |fast_forward| {
        simulate_decoded_opts(program, args, init, machine, SimOptions { fast_forward })
            .map_err(|e| format!("sim (fast-forward {fast_forward}): {e}"))
    };
    let mt = run_mt_decoded(program, args, init, queues, &exec_config())
        .map_err(|e| format!("functional run: {e}"))?;
    Ok(Observed {
        sims: [sim(true)?, sim(false)?],
        return_value: mt.return_value,
        output: mt.output,
        per_thread: mt.per_thread,
        memory: mt.memory.cells().to_vec(),
    })
}

/// One program and the machines it is measured on.
struct Subject<'a, I> {
    label: String,
    threads: &'a [Function],
    /// Queues the program was allocated (`0..num_queues` are in use).
    num_queues: usize,
    args: &'a [i64],
    init: I,
    /// The machine at the scheduler's depth, 256 queues.
    machine: MachineConfig,
    /// Functional queue capacity.
    capacity: usize,
}

/// Checks the law on `s` under `injections` random renamings.
fn check_law<I: Fn(&MemoryLayout, &mut Memory) + Copy>(
    s: &Subject<'_, I>,
    rng: &mut TestRng,
    injections: usize,
) {
    let label = &s.label;
    let original = DecodedProgram::decode(s.threads).expect("decodes");
    let own_file = QueueConfig { num_queues: s.num_queues.max(1), capacity: s.capacity };
    let whole_file = QueueConfig { num_queues: FILE, capacity: s.capacity };
    let base = observe(&original, s.args, s.init, &s.machine, &own_file)
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    for _ in 0..injections {
        let map = injection(rng, s.num_queues);
        let renamed = DecodedProgram::decode(&rename(s.threads, &map)).expect("decodes");
        // The comparison recovers the injection, on the queues in use.
        let pairs = original
            .queue_renaming(&renamed)
            .unwrap_or_else(|| panic!("{label}: not alike under {map:?}"));
        assert!(pairs.iter().all(|&(q, to)| map[q.index()] == to.0), "{label}: {pairs:?} vs {map:?}");
        let got = observe(&renamed, s.args, s.init, &s.machine, &whole_file)
            .unwrap_or_else(|e| panic!("{label}: renamed by {map:?}: {e}"));
        assert!(got == base, "{label}: observable renaming {map:?}");
    }
}

/// The 22 programs one scheduler contributes to the figures.
fn law_holds_on_quick_cells(kind: SchedulerKind) {
    let mut rng = TestRng::new(0x51AB + kind.queue_depth() as u64);
    for w in catalog() {
        let cell = compile_cell(&w, kind, Scale::Quick, 2).expect("compiles");
        for v in [&cell.mtcg, &cell.coco] {
            let subject = Subject {
                label: format!("{} / {} / {}", w.benchmark, kind.name(), v.name),
                threads: v.parallelized.threads(),
                num_queues: v.parallelized.num_queues() as usize,
                args: cell.args(),
                init: w.init,
                machine: v.machine.clone(),
                capacity: v.queues.capacity,
            };
            check_law(&subject, &mut rng, 2);
        }
    }
}

#[test]
fn law_holds_on_every_gremio_quick_cell() {
    law_holds_on_quick_cells(SchedulerKind::Gremio);
}

#[test]
fn law_holds_on_every_dswp_quick_cell() {
    law_holds_on_quick_cells(SchedulerKind::Dswp);
}

/// 200 accepted multi-threaded programs of the fuzzer's stream, each
/// compiled the way its case's mode says and renamed once.
#[test]
fn law_holds_on_the_generated_population() {
    let mut rng = TestRng::new(0xC0C0);
    let mut stream = gmt_fuzz::runner::DEFAULT_SEED;
    let mut checked = 0;
    while checked < 200 {
        let seed = splitmix64(&mut stream);
        let case = case_from_seed(seed);
        let Ok(f) = compile(&case.program) else { continue };
        let Ok(seq) = gmt_ir::interp::run(&f, &[], &ExecConfig { max_steps: 20_000_000 }) else {
            continue;
        };
        let mode = case.mode();
        let (scheduler, hot) = match mode {
            Mode::Gremio | Mode::GremioCoco => (Scheduler::gremio(case.threads), 1),
            _ => (Scheduler::dswp(case.threads), 32),
        };
        let mut p = Parallelizer::new(scheduler);
        if matches!(mode, Mode::DswpCoco | Mode::GremioCoco | Mode::SeededCoco) {
            p = p.with_coco(CocoConfig::default());
        }
        let par = match mode {
            Mode::SeededMtcg | Mode::SeededCoco => {
                let partition = seeded_partition(&f, case.threads, case.part_seed);
                p.parallelize_with_partition(&f, &seq.profile, &Pdg::build(&f), partition).ok()
            }
            _ => p.parallelize(&f, &seq.profile).ok(),
        };
        // A typed rejection is the oracle's business; a program with no
        // queue has nothing to rename.
        let Some(par) = par else { continue };
        if par.num_queues() == 0 {
            continue;
        }
        let mut machine = MachineConfig::default().with_queue_depth(hot);
        machine.max_cycles = 50_000_000;
        let subject = Subject {
            label: format!("seed {seed:#x} ({})", mode.name()),
            threads: par.threads(),
            num_queues: par.num_queues() as usize,
            args: &[],
            init: |_: &MemoryLayout, _: &mut Memory| {},
            machine,
            capacity: hot,
        };
        check_law(&subject, &mut rng, 1);
        checked += 1;
    }
}

// ---------------------------------------------------------------------
// Negative controls.

/// A producer that bursts `burst` values into queue `data`, signals on
/// `done` and then works through a long dependent chain, and a consumer
/// that works through the same chain *first* and only then drains the
/// burst. With room for the burst the two chains overlap; with a
/// one-entry `data` queue the producer cannot reach its chain until the
/// consumer has finished its own.
fn burst_pair(data: u32, done: u32, burst: i64) -> Vec<Function> {
    let chain = |b: &mut FunctionBuilder| {
        let mut x = b.const_(1_000_003);
        for _ in 0..40 {
            x = b.bin(BinOp::Div, x, 1i64);
        }
        b.emit(Op::Output(x.into()));
    };
    let mut p = FunctionBuilder::new("producer");
    for v in 0..burst {
        p.emit(Op::Produce { queue: QueueId(data), value: v.into() });
    }
    p.emit(Op::ProduceSync { queue: QueueId(done) });
    chain(&mut p);
    p.ret(None);
    let mut c = FunctionBuilder::new("consumer");
    chain(&mut c);
    for _ in 0..burst {
        let v = c.fresh_reg();
        c.emit(Op::Consume { dst: v, queue: QueueId(data) });
        c.emit(Op::Output(v.into()));
    }
    c.emit(Op::ConsumeSync { queue: QueueId(done) });
    c.ret(None);
    vec![p.finish().unwrap(), c.finish().unwrap()]
}

fn observe_pair(threads: &[Function], depth: usize) -> Result<Observed, String> {
    let program = DecodedProgram::decode(threads).unwrap();
    let machine = MachineConfig::default().with_queue_depth(depth);
    let queues = QueueConfig { num_queues: FILE, capacity: 32 };
    observe(&program, &[], |_, _| {}, &machine, &queues)
}

/// The renamed program keeps its observables only on the machine the
/// original ran on: the depth is observable on a depth-sensitive pair,
/// which is why sharing a run needs equal machines, and not only a
/// renaming.
#[test]
fn control_depths_must_follow_the_renaming() {
    let (original, swapped) = (burst_pair(0, 1, 8), burst_pair(1, 0, 8));
    let base = observe_pair(&original, 32).unwrap();
    let followed = observe_pair(&swapped, 32).unwrap();
    assert!(followed == base, "the law holds when the depth follows");
    let dropped = observe_pair(&swapped, 1).unwrap();
    assert_ne!(dropped.sims[0].cycles, base.sims[0].cycles, "the pair is depth-sensitive");
    assert!(dropped.sims[0].cycles > base.sims[0].cycles + 40 * 12 / 2, "the chains serialized");
    assert_eq!(dropped.output, base.output, "only the timing can tell");

    let (a, b) = (DecodedProgram::decode(&original).unwrap(), DecodedProgram::decode(&swapped).unwrap());
    let pairs = a.queue_renaming(&b).expect("one program, two namings");
    assert_eq!(pairs, [(QueueId(0), QueueId(1)), (QueueId(1), QueueId(0))]);
}

/// Merging two queues is not a renaming: the comparison rejects it and
/// the run shows why (values cross between the channels).
#[test]
fn control_merging_two_queues_is_observable() {
    let cross = |first: u32, second: u32| {
        let mut p = FunctionBuilder::new("producer");
        p.emit(Op::Produce { queue: QueueId(first), value: 1i64.into() });
        p.emit(Op::Produce { queue: QueueId(second), value: 2i64.into() });
        p.ret(None);
        let mut c = FunctionBuilder::new("consumer");
        let (x, y) = (c.fresh_reg(), c.fresh_reg());
        c.emit(Op::Consume { dst: x, queue: QueueId(second) });
        c.emit(Op::Consume { dst: y, queue: QueueId(first) });
        c.emit(Op::Output(x.into()));
        c.emit(Op::Output(y.into()));
        c.ret(None);
        vec![p.finish().unwrap(), c.finish().unwrap()]
    };
    let (two, one) = (cross(0, 1), cross(0, 0));
    let (a, b) = (DecodedProgram::decode(&two).unwrap(), DecodedProgram::decode(&one).unwrap());
    assert_eq!(a.queue_renaming(&b), None, "not injective");
    assert_eq!(b.queue_renaming(&a), None, "not a function");
    let two = observe_pair(&two, 32).unwrap();
    let one = observe_pair(&one, 32).unwrap();
    assert_eq!((&two.output[..], &one.output[..]), (&[2, 1][..], &[1, 2][..]));
    assert!(two != one);
}

/// The comparison is of programs, not of queue structure: another value
/// sent, or the same threads in another order, is another program even
/// though the queues line up — and it runs differently.
#[test]
fn control_other_differences_are_not_renamings() {
    let original = burst_pair(0, 1, 4);
    let a = DecodedProgram::decode(&original).unwrap();
    let base = observe_pair(&original, 32).unwrap();

    let mut other_value = original.clone();
    let f = &mut other_value[0];
    let first = f.all_instrs().next().unwrap();
    *f.instr_mut(first) = Op::Produce { queue: QueueId(0), value: 99i64.into() };
    assert_eq!(a.queue_renaming(&DecodedProgram::decode(&other_value).unwrap()), None);
    assert!(observe_pair(&other_value, 32).unwrap() != base, "another value arrives");

    let swapped_threads = vec![original[1].clone(), original[0].clone()];
    assert_eq!(a.queue_renaming(&DecodedProgram::decode(&swapped_threads).unwrap()), None);
    let swapped = observe_pair(&swapped_threads, 32).unwrap();
    assert!(swapped != base, "per-core statistics are per thread position");
    assert_eq!(swapped.sims[0].cores[0], base.sims[0].cores[1], "the cores traded places");
}
