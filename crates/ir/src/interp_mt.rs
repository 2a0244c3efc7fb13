//! A multi-threaded functional interpreter.
//!
//! Executes the set of per-thread CFGs produced by MTCG against one
//! shared memory and a set of blocking scalar queues (the functional
//! semantics of the synchronization array). This is the tool behind
//! Figures 1 and 7: it counts dynamic computation, communication, and
//! synchronization instructions exactly, independent of timing. The
//! cycle-accurate model lives in the `gmt-sim` crate.
//!
//! Scheduling is deterministic: in each round every unfinished thread,
//! in index order, runs until it blocks on a queue or returns. This is
//! exact because produce and consume are blocking FIFOs: any correctly
//! synchronized program executes the same instructions, produces the
//! same memory/output/return results and counts, and deadlocks at the
//! same point under every interleaving, so the scheduler may pick the
//! cheapest one — the one that switches threads only when one must
//! wait. The interpreter ↔ simulator edge of the fuzz oracle holds
//! these counts to a machine that interleaves cycle by cycle.
//!
//! `drive` is the only functional scheduler of the crate. The decoded
//! and the ID-walking reference entry points, here and in
//! [`crate::interp`] (one thread, no queues), differ in the `Thread`
//! implementation they hand it: each executes, charges fuel and counts
//! in its own loop.

use crate::decoded::{DecodedProgram, DecodedThread};
use crate::function::Function;
use crate::interp::{
    check_queue_id, DeadlockInfo, DynCounts, ExecConfig, ExecError, Memory, MemoryLayout,
    QueueAccess, Stop, Thread, ThreadState,
};
use crate::types::{BlockId, InstrId};
use std::collections::VecDeque;

/// Queue configuration for a functional MT run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueueConfig {
    /// Number of queues available.
    pub num_queues: usize,
    /// Capacity of each queue in elements (the paper: 1-element queues
    /// for GREMIO's synchronization array, 32-element for DSWP).
    pub capacity: usize,
}

impl Default for QueueConfig {
    fn default() -> QueueConfig {
        QueueConfig { num_queues: 256, capacity: 32 }
    }
}

struct Queues {
    queues: Vec<VecDeque<i64>>,
    capacity: usize,
}

/// The empty queue file of a run of `threads` threads.
///
/// # Errors
///
/// [`ExecError::InvalidConfig`] for a run shape that cannot execute: no
/// threads, or queues of capacity 0.
fn queue_file(threads: usize, config: &QueueConfig) -> Result<Queues, ExecError> {
    if threads == 0 {
        return Err(ExecError::InvalidConfig("at least one thread required".to_string()));
    }
    if config.capacity == 0 {
        return Err(ExecError::InvalidConfig(
            "queue capacity 0 cannot satisfy any consume".to_string(),
        ));
    }
    Ok(Queues { queues: vec![VecDeque::new(); config.num_queues], capacity: config.capacity })
}

impl QueueAccess for Queues {
    #[inline]
    fn try_produce(&mut self, queue: usize, value: i64, instr: InstrId) -> Result<bool, ExecError> {
        let q = self.queues.get_mut(queue).ok_or(ExecError::BadQueue(instr))?;
        if q.len() >= self.capacity {
            Ok(false)
        } else {
            q.push_back(value);
            Ok(true)
        }
    }

    #[inline]
    fn try_consume(&mut self, queue: usize, instr: InstrId) -> Result<Option<i64>, ExecError> {
        let q = self.queues.get_mut(queue).ok_or(ExecError::BadQueue(instr))?;
        Ok(q.pop_front())
    }
}

/// The result of a multi-threaded functional run.
#[derive(Clone, Debug)]
pub struct MtRunResult {
    /// The return value (from whichever thread returned one).
    pub return_value: Option<i64>,
    /// The merged observable output trace.
    pub output: Vec<i64>,
    /// Dynamic counts per thread.
    pub per_thread: Vec<DynCounts>,
    /// Final memory state.
    pub memory: Memory,
}

impl MtRunResult {
    /// Dynamic counts summed over all threads.
    pub fn totals(&self) -> DynCounts {
        let mut t = DynCounts::default();
        for c in &self.per_thread {
            t.add(*c);
        }
        t
    }
}

/// Runs `threads` concurrently against one shared memory.
///
/// All threads receive the same `args`. Memory is laid out from
/// `threads[0]`'s object table (MTCG copies the object table into every
/// thread, so they agree) and initialized by `init`.
///
/// # Errors
///
/// - [`ExecError::InvalidConfig`] if `threads` is empty.
/// - [`ExecError::Deadlock`] if every unfinished thread is blocked.
/// - [`ExecError::OutOfFuel`] if total steps exceed
///   `config.max_steps`.
/// - Any per-instruction fault ([`ExecError::MemoryFault`], ...).
pub fn run_mt(
    threads: &[Function],
    args: &[i64],
    init: impl FnOnce(&MemoryLayout, &mut Memory),
    queue_config: &QueueConfig,
    config: &ExecConfig,
) -> Result<MtRunResult, ExecError> {
    let program = DecodedProgram::decode(threads)?;
    run_mt_decoded(&program, args, init, queue_config, config)
}

/// [`run_mt`] on an already-decoded program.
///
/// # Errors
///
/// See [`run_mt`].
pub fn run_mt_decoded(
    program: &DecodedProgram,
    args: &[i64],
    init: impl FnOnce(&MemoryLayout, &mut Memory),
    queue_config: &QueueConfig,
    config: &ExecConfig,
) -> Result<MtRunResult, ExecError> {
    let queues = queue_file(program.len(), queue_config)?;
    program.check_queue_ids(queue_config.num_queues)?;
    let (code, layout) = (program.threads(), program.layout());
    run_threads::<DecodedThread, _>(code, layout, args, init, queues, config)
}

/// The ID-walking reference executor ([`run_mt`] without pre-decoding).
/// Kept as the semantic oracle for the decoded engine.
///
/// # Errors
///
/// See [`run_mt`].
pub fn run_mt_reference(
    threads: &[Function],
    args: &[i64],
    init: impl FnOnce(&MemoryLayout, &mut Memory),
    queue_config: &QueueConfig,
    config: &ExecConfig,
) -> Result<MtRunResult, ExecError> {
    let queues = queue_file(threads.len(), queue_config)?;
    for queue in threads.iter().flat_map(|f| f.all_instrs().filter_map(|i| f.instr(i).queue())) {
        check_queue_id(queue, queue_config.num_queues)?;
    }
    let layout = MemoryLayout::of(&threads[0]);
    run_threads::<ThreadState, _>(threads, &layout, args, init, queues, config)
}

/// Starts one thread per element of `code` over one initialized memory
/// and drives them to completion.
fn run_threads<'a, T: Thread<'a>, Q: QueueAccess>(
    code: &'a [T::Code],
    layout: &'a MemoryLayout,
    args: &[i64],
    init: impl FnOnce(&MemoryLayout, &mut Memory),
    mut queues: Q,
    config: &ExecConfig,
) -> Result<MtRunResult, ExecError> {
    let mut memory = Memory::for_layout(layout)?;
    init(layout, &mut memory);
    let mut threads = code
        .iter()
        .map(|c| T::start(c, args, layout).map(Running::new))
        .collect::<Result<Vec<_>, _>>()?;
    let (return_value, output) = drive(&mut threads, &mut memory, &mut queues, config, |_, _| {})?;
    let per_thread = threads.iter().map(|t| t.counts).collect();
    Ok(MtRunResult { return_value, output, per_thread, memory })
}

/// A thread under [`drive`], with what the driver keeps for it.
pub(crate) struct Running<T> {
    thread: T,
    /// The instructions the thread has executed.
    pub(crate) counts: DynCounts,
    finished: bool,
}

impl<T> Running<T> {
    pub(crate) fn new(thread: T) -> Running<T> {
        Running { thread, counts: DynCounts::default(), finished: false }
    }
}

/// The one functional scheduler: `threads` over one shared `memory`,
/// in rounds, each of which runs every unfinished thread in index order
/// until it blocks or returns ([`Thread::run`]), until all have
/// returned. Yields the return value and the merged output trace.
/// `max_steps` bounds the instructions executed over all threads; a
/// poll that finds its queue blocked executes nothing and costs
/// nothing. `on_edge` sees every CFG edge taken.
///
/// Running a thread until it blocks is exact, not an approximation of
/// an instruction-by-instruction interleaving: a produce or consume
/// blocks exactly when its FIFO is full or empty, and a thread sees
/// its peers only through those FIFOs and memory that a correctly
/// synchronized program orders by them. Every interleaving therefore
/// executes the same instructions with the same values, and a
/// deadlock blocks every thread on the same op. Only a faulting run
/// can tell orders apart: which fault it reports, or whether fuel ran
/// out before the fault, can depend on which thread ran first.
///
/// # Errors
///
/// [`ExecError::Deadlock`] when a round executes no instruction,
/// [`ExecError::OutOfFuel`] past the budget, and whatever
/// [`Thread::run`] reports.
#[inline]
pub(crate) fn drive<'a, T: Thread<'a>, Q: QueueAccess>(
    threads: &mut [Running<T>],
    memory: &mut Memory,
    queues: &mut Q,
    config: &ExecConfig,
    mut on_edge: impl FnMut(BlockId, BlockId),
) -> Result<(Option<i64>, Vec<i64>), ExecError> {
    let mut output = Vec::new();
    let mut return_value = None;
    let mut fuel = config.max_steps;
    let mut live = threads.len();

    while live > 0 {
        // Fuel falls by one per instruction executed, so a round that
        // leaves it where it was moved no thread.
        let round_fuel = fuel;
        for t in threads.iter_mut() {
            if t.finished {
                continue;
            }
            let stop =
                t.thread.run(memory, &mut output, queues, &mut fuel, &mut t.counts, &mut on_edge)?;
            if let Stop::Returned(v) = stop {
                t.finished = true;
                live -= 1;
                if v.is_some() {
                    return_value = v;
                }
            }
        }
        if fuel == round_fuel {
            return Err(ExecError::Deadlock(deadlock_info(threads)));
        }
    }
    Ok((return_value, output))
}

/// Attributes a deadlock to the first unfinished thread (every
/// unfinished thread is blocked on its next queue operation when a
/// round executes nothing).
fn deadlock_info<'a, T: Thread<'a>>(threads: &[Running<T>]) -> Option<DeadlockInfo> {
    let core = threads.iter().position(|t| !t.finished)?;
    let (queue, op) = threads[core].thread.next_queue_op()?;
    Some(DeadlockInfo { core, queue, op })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::instr::Op;
    use crate::interp::BlockedOp;
    use crate::types::{BinOp, QueueId, Reg};

    /// Producer thread sends 1..=3; consumer sums and returns.
    fn producer_consumer(capacity: usize) -> (Vec<Function>, QueueConfig) {
        let q = QueueId(0);
        let mut p = FunctionBuilder::new("producer");
        for v in 1..=3 {
            p.emit(Op::Produce { queue: q, value: (v as i64).into() });
        }
        p.ret(None);
        let producer = p.finish().unwrap();

        let mut c = FunctionBuilder::new("consumer");
        let sum = c.fresh_reg();
        c.const_into(sum, 0);
        for _ in 0..3 {
            let v = c.fresh_reg();
            c.emit(Op::Consume { dst: v, queue: q });
            c.bin_into(BinOp::Add, sum, sum, v);
        }
        c.ret(Some(sum.into()));
        let consumer = c.finish().unwrap();
        (vec![producer, consumer], QueueConfig { num_queues: 4, capacity })
    }

    #[test]
    fn producer_consumer_sums() {
        let (threads, qc) = producer_consumer(32);
        let r = run_mt(&threads, &[], |_, _| {}, &qc, &ExecConfig::default()).unwrap();
        assert_eq!(r.return_value, Some(6));
        assert_eq!(r.per_thread[0].communication, 3);
        assert_eq!(r.per_thread[1].communication, 3);
    }

    #[test]
    fn single_element_queues_backpressure() {
        let (threads, qc) = producer_consumer(1);
        let r = run_mt(&threads, &[], |_, _| {}, &qc, &ExecConfig::default()).unwrap();
        assert_eq!(r.return_value, Some(6));
    }

    #[test]
    fn deadlock_detected() {
        // Both threads consume from empty queues first.
        let q = QueueId(0);
        let mk = || {
            let mut b = FunctionBuilder::new("d");
            let v = b.fresh_reg();
            b.emit(Op::Consume { dst: v, queue: q });
            b.ret(None);
            b.finish().unwrap()
        };
        let err = run_mt(
            &[mk(), mk()],
            &[],
            |_, _| {},
            &QueueConfig::default(),
            &ExecConfig::default(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            ExecError::Deadlock(Some(DeadlockInfo {
                core: 0,
                queue: QueueId(0),
                op: BlockedOp::ConsumeEmpty,
            }))
        );
    }

    #[test]
    fn sync_tokens_order_memory() {
        // T0 stores 7 to cell then produce.sync; T1 consume.sync then
        // loads and outputs. Output must be 7 under any schedule.
        let q = QueueId(1);
        let mut t0 = FunctionBuilder::new("t0");
        let obj = t0.object("cell", 1);
        let p0 = t0.lea(obj, 0);
        t0.store(p0, 0, 7i64);
        t0.emit(Op::ProduceSync { queue: q });
        t0.ret(None);
        let t0 = t0.finish().unwrap();

        let mut t1 = FunctionBuilder::new("t1");
        let obj1 = t1.object("cell", 1);
        t1.emit(Op::ConsumeSync { queue: q });
        let p1 = t1.lea(obj1, 0);
        let v = t1.load(p1, 0);
        t1.output(v);
        t1.ret(None);
        let t1 = t1.finish().unwrap();

        let r = run_mt(
            &[t0, t1],
            &[],
            |_, _| {},
            &QueueConfig::default(),
            &ExecConfig::default(),
        )
        .unwrap();
        assert_eq!(r.output, vec![7]);
        let totals = r.totals();
        assert_eq!(totals.synchronization, 2);
    }

    #[test]
    fn bad_queue_rejected_at_load_time() {
        let mut b = FunctionBuilder::new("bad");
        b.emit(Op::ProduceSync { queue: QueueId(99) });
        b.ret(None);
        let f = b.finish().unwrap();
        let qc = QueueConfig { num_queues: 2, capacity: 1 };
        // Both executors reject the misallocated queue id before any
        // thread takes a step.
        let threads = std::slice::from_ref(&f);
        let err = run_mt(threads, &[], |_, _| {}, &qc, &ExecConfig::default()).unwrap_err();
        assert!(matches!(err, ExecError::InvalidConfig(_)));
        let err = run_mt_reference(threads, &[], |_, _| {}, &qc, &ExecConfig::default()).unwrap_err();
        assert!(matches!(err, ExecError::InvalidConfig(_)));
    }

    /// A queue capacity of 0 can never satisfy a consume: both engines
    /// reject it up front with a typed error instead of clamping it or
    /// spinning on a produce that can never land.
    #[test]
    fn zero_capacity_rejected_at_load_time() {
        let (threads, mut qc) = producer_consumer(32);
        qc.capacity = 0;
        let err = run_mt(&threads, &[], |_, _| {}, &qc, &ExecConfig::default()).unwrap_err();
        assert!(matches!(err, ExecError::InvalidConfig(_)), "decoded: {err:?}");
        let err = run_mt_reference(&threads, &[], |_, _| {}, &qc, &ExecConfig::default())
            .unwrap_err();
        assert!(matches!(err, ExecError::InvalidConfig(_)), "reference: {err:?}");
    }

    /// An unverified function whose entry block has no terminator must
    /// surface as a typed error from both MT engines, not a panic.
    #[test]
    fn unterminated_block_is_typed_error() {
        let b = FunctionBuilder::new("stub");
        let f = b.finish_unverified(); // entry block, no terminator
        let qc = QueueConfig::default();
        let threads = std::slice::from_ref(&f);
        let err = run_mt(threads, &[], |_, _| {}, &qc, &ExecConfig::default()).unwrap_err();
        assert!(
            matches!(&err, ExecError::InvalidConfig(m) if m.contains("terminator")),
            "decoded: {err:?}"
        );
        let err = run_mt_reference(threads, &[], |_, _| {}, &qc, &ExecConfig::default()).unwrap_err();
        assert!(
            matches!(&err, ExecError::InvalidConfig(m) if m.contains("terminator")),
            "reference: {err:?}"
        );
    }

    /// The fuel, deadlock, fault and no-queues boundaries, with the
    /// entry point as the input: whatever holds at a decoded entry point
    /// holds at its reference twin, to the instruction.
    #[test]
    fn boundaries_hold_at_every_entry_point() {
        use crate::interp::{run_with_memory, run_with_memory_reference, RunResult};
        type Mt = fn(&[Function], &QueueConfig, &ExecConfig) -> Result<MtRunResult, ExecError>;
        type St = fn(&Function, &ExecConfig) -> Result<RunResult, ExecError>;
        let mt: [(&str, Mt); 2] = [
            ("run_mt", |t, q, c| run_mt(t, &[], |_, _| {}, q, c)),
            ("run_mt_reference", |t, q, c| run_mt_reference(t, &[], |_, _| {}, q, c)),
        ];
        let st: [(&str, St); 2] = [
            ("run_with_memory", |f, c| run_with_memory(f, &[], |_, _| {}, c)),
            ("run_with_memory_reference", |f, c| run_with_memory_reference(f, &[], |_, _| {}, c)),
        ];
        let qc = QueueConfig { num_queues: 4, capacity: 1 };

        // Ping-pong at capacity 1: `ping` waits on every reply while
        // `pong` computes it, so rounds with a blocked poll occur. The
        // budget is exactly the instructions executed: polls are free.
        let (there, back) = (QueueId(0), QueueId(1));
        let mut ping = FunctionBuilder::new("ping");
        let reply = ping.fresh_reg();
        for v in 1..=3i64 {
            ping.emit(Op::Produce { queue: there, value: v.into() });
            ping.emit(Op::Consume { dst: reply, queue: back });
        }
        ping.ret(Some(reply.into()));
        let mut pong = FunctionBuilder::new("pong");
        for _ in 0..3 {
            let v = pong.fresh_reg();
            pong.emit(Op::Consume { dst: v, queue: there });
            let doubled = pong.bin(BinOp::Mul, v, 2i64);
            pong.emit(Op::Produce { queue: back, value: doubled.into() });
        }
        pong.ret(None);
        let threads = [ping.finish().unwrap(), pong.finish().unwrap()];
        let expected = [
            DynCounts { computation: 1, communication: 6, synchronization: 0 },
            DynCounts { computation: 4, communication: 6, synchronization: 0 },
        ];
        let total: u64 = expected.iter().map(DynCounts::total).sum();
        for (name, run) in mt {
            let r = run(&threads, &qc, &ExecConfig { max_steps: total }).expect(name);
            assert_eq!(r.return_value, Some(6), "{name}");
            assert_eq!(r.per_thread, expected, "{name}");
            let short = run(&threads, &qc, &ExecConfig { max_steps: total - 1 });
            assert_eq!(short.unwrap_err(), ExecError::OutOfFuel, "{name}");
        }

        // A blocked thread nobody will unblock: the witness is the first
        // unfinished thread, its queue and its direction.
        let stuck = |op: Op| {
            let mut b = FunctionBuilder::new("stuck");
            b.emit(op.clone());
            b.emit(op);
            b.ret(None);
            b.finish().unwrap()
        };
        let mut done = FunctionBuilder::new("done");
        done.ret(None);
        let done = done.finish().unwrap();
        let r = Reg(0);
        let deadlocks = [
            (Op::Consume { dst: r, queue: QueueId(3) }, BlockedOp::ConsumeEmpty),
            (Op::ConsumeSync { queue: QueueId(2) }, BlockedOp::ConsumeEmpty),
            (Op::Produce { queue: QueueId(1), value: 5i64.into() }, BlockedOp::ProduceFull),
            (Op::ProduceSync { queue: QueueId(0) }, BlockedOp::ProduceFull),
        ];
        for (op, blocked) in deadlocks {
            let queue = op.queue().unwrap();
            let threads = [done.clone(), stuck(op)];
            for (name, run) in mt {
                assert_eq!(
                    run(&threads, &qc, &ExecConfig::default()).unwrap_err(),
                    ExecError::Deadlock(Some(DeadlockInfo { core: 1, queue, op: blocked })),
                    "{name}"
                );
            }
        }

        // Communication with no queues names the instruction itself.
        let mut b = FunctionBuilder::new("lonely");
        let v = b.const_(1);
        let produce = b.emit(Op::Produce { queue: there, value: v.into() });
        b.ret(None);
        let f = b.finish().unwrap();
        for (name, run) in st {
            assert_eq!(
                run(&f, &ExecConfig::default()).unwrap_err(),
                ExecError::CommunicationOutsideMt(produce),
                "{name}"
            );
        }

        // At capacity 32 a producer of 40 values runs ahead of its
        // consumer and fills the queue. The budget is still exactly the
        // instructions executed; one less runs out with both threads
        // unfinished, whatever stretch of a thread it lands in.
        let deep = QueueConfig { num_queues: 4, capacity: 32 };
        let mut p = FunctionBuilder::new("producer");
        counted_loop(&mut p, 40, |p, i| {
            p.emit(Op::Produce { queue: there, value: i.into() });
        });
        p.ret(None);
        let threads = [p.finish().unwrap(), summer(40)];
        let expected = [
            DynCounts { computation: 165, communication: 40, synchronization: 0 },
            DynCounts { computation: 206, communication: 40, synchronization: 0 },
        ];
        let total: u64 = expected.iter().map(DynCounts::total).sum();
        for (name, run) in mt {
            let r = run(&threads, &deep, &ExecConfig { max_steps: total }).expect(name);
            assert_eq!(r.return_value, Some((0..40).sum()), "{name}");
            assert_eq!(r.per_thread, expected, "{name}");
            let short = run(&threads, &deep, &ExecConfig { max_steps: total - 1 });
            assert_eq!(short.unwrap_err(), ExecError::OutOfFuel, "{name}");
        }

        // A deadlock both threads reach only after exchanging a value:
        // `left` then waits on a queue nobody feeds and `right` on a
        // queue nobody drains. The witness is still the first thread.
        let (fed, drained) = (QueueId(2), QueueId(3));
        let mut left = FunctionBuilder::new("left");
        left.emit(Op::Produce { queue: there, value: 1i64.into() });
        let a = left.fresh_reg();
        left.emit(Op::Consume { dst: a, queue: back });
        let c = left.fresh_reg();
        left.emit(Op::Consume { dst: c, queue: fed });
        left.ret(Some(c.into()));
        let mut right = FunctionBuilder::new("right");
        let x = right.fresh_reg();
        right.emit(Op::Consume { dst: x, queue: there });
        let y = right.bin(BinOp::Mul, x, 2i64);
        right.emit(Op::Produce { queue: back, value: y.into() });
        right.emit(Op::Produce { queue: drained, value: y.into() });
        right.emit(Op::Produce { queue: drained, value: y.into() });
        right.ret(None);
        let threads = [left.finish().unwrap(), right.finish().unwrap()];
        for (name, run) in mt {
            assert_eq!(
                run(&threads, &qc, &ExecConfig::default()).unwrap_err(),
                ExecError::Deadlock(Some(DeadlockInfo {
                    core: 0,
                    queue: fed,
                    op: BlockedOp::ConsumeEmpty,
                })),
                "{name}"
            );
        }

        // A store walking down from address 1 faults at -1 on its third
        // iteration, in the middle of a stretch of straight execution:
        // alone, and as a producer whose consumer never faults.
        let walker = |produces: bool| {
            let mut b = FunctionBuilder::new("walker");
            let cell = b.object("cell", 4);
            let base = b.lea(cell, 0);
            counted_loop(&mut b, 10, |b, i| {
                if produces {
                    b.emit(Op::Produce { queue: there, value: i.into() });
                }
                let addr = b.bin(BinOp::Sub, base, i);
                b.store(addr, 0, i);
            });
            b.ret(None);
            b.finish().unwrap()
        };
        let fault = ExecError::MemoryFault { addr: -1 };
        for (name, run) in st {
            assert_eq!(run(&walker(false), &ExecConfig::default()).unwrap_err(), fault, "{name}");
        }
        let threads = [walker(true), summer(10)];
        for (name, run) in mt {
            assert_eq!(run(&threads, &deep, &ExecConfig::default()).unwrap_err(), fault, "{name}");
        }
    }

    /// Emits `for i in 0..n { body(b, i) }` and leaves `b` in the exit
    /// block: 2 + 2(n + 1) + 2n instructions besides the body's.
    fn counted_loop(b: &mut FunctionBuilder, n: i64, body: impl FnOnce(&mut FunctionBuilder, Reg)) {
        let i = b.fresh_reg();
        let (header, looped, exit) = (b.block("h"), b.block("body"), b.block("x"));
        b.const_into(i, 0);
        b.jump(header);
        b.switch_to(header);
        let c = b.bin(BinOp::Lt, i, n);
        b.branch(c, looped, exit);
        b.switch_to(looped);
        body(b, i);
        b.bin_into(BinOp::Add, i, i, 1i64);
        b.jump(header);
        b.switch_to(exit);
    }

    /// A consumer that sums `n` values from queue 0 and returns the sum.
    fn summer(n: i64) -> Function {
        let mut b = FunctionBuilder::new("summer");
        let sum = b.fresh_reg();
        b.const_into(sum, 0);
        counted_loop(&mut b, n, |b, _| {
            let v = b.fresh_reg();
            b.emit(Op::Consume { dst: v, queue: QueueId(0) });
            b.bin_into(BinOp::Add, sum, sum, v);
        });
        b.ret(Some(sum.into()));
        b.finish().unwrap()
    }

    #[test]
    fn totals_sum_threads() {
        let (threads, qc) = producer_consumer(32);
        let r = run_mt(&threads, &[], |_, _| {}, &qc, &ExecConfig::default()).unwrap();
        let t = r.totals();
        assert_eq!(t.communication, 6);
        assert!(t.computation > 0);
    }
}
