//! Synchronization-array edge cases the paper's timing results lean
//! on: same-cycle produce/consume at exactly `depth` occupancy, the
//! register-file token guarding a redefinition that overtakes a
//! pending consume's delivery, and pinned per-`StallReason` counts for
//! one kernel under both engines (the ID-walking reference and the
//! decoded engine must tell the same story, stall for stall). The
//! one-core cases hold the fast-forward engine's one-core loop to the
//! per-cycle engine and the reference on fuel bounds inside a skipped
//! span, deadlocks, and a core stalling on its own queues.

use gmt_ir::decoded::DecodedProgram;
use gmt_ir::interp::{BlockedOp, DeadlockInfo, ExecError};
use gmt_ir::{BinOp, Function, FunctionBuilder, Op, QueueId, Reg};
use gmt_sim::{
    simulate, simulate_decoded_opts, simulate_decoded_traced_opts, simulate_reference,
    BranchModel, MachineConfig, PendingConsume, QueueFull, SaConfig, SimOptions, SimResult,
    StallReason, SyncArray, TraceEvent, TraceSink,
};

fn pc(core: usize) -> PendingConsume {
    PendingConsume { core, dst: Some(Reg(0)), token: 0 }
}

/// Consume-then-produce on the same cycle at exactly `depth` occupancy
/// succeeds (the consume frees the slot within the cycle, matching the
/// engine's rotating core-service order); produce-then-consume on the
/// same cycle refuses the produce without corrupting the queue.
#[test]
fn same_cycle_produce_consume_at_exact_depth() {
    let mut sa = SyncArray::new(1, 2, 1);
    assert!(sa.produce(0, 1, 0).unwrap().is_none());
    assert!(sa.produce(0, 2, 0).unwrap().is_none());
    assert_eq!(sa.occupancy(0), 2, "at exactly depth");
    assert!(!sa.can_produce(0));

    // Consumer core serviced first: its pop makes room for the
    // producer on the very same cycle.
    let (v, _) = sa.consume(0, 5, pc(1)).unwrap();
    assert_eq!(v, 1);
    assert!(sa.can_produce(0));
    assert!(sa.produce(0, 3, 5).unwrap().is_none());
    assert_eq!(sa.occupancy(0), 2, "back at depth after the same-cycle pair");

    // Producer core serviced first: the produce must refuse cleanly
    // (the engine turns this into a queue-full stall cycle) and the
    // queue must stay FIFO-intact for the consume that follows.
    assert_eq!(sa.produce(0, 99, 6).unwrap_err(), QueueFull);
    let (v, _) = sa.consume(0, 6, pc(1)).unwrap();
    assert_eq!(v, 2);
    assert!(sa.produce(0, 4, 6).unwrap().is_none());
    let (v, _) = sa.consume(0, 7, pc(1)).unwrap();
    assert_eq!(v, 3);
    let (v, _) = sa.consume(0, 8, pc(1)).unwrap();
    assert_eq!(v, 4, "the refused produce left no trace");
}

/// A queue with pending consumes delivers produces directly — depth
/// never limits the handoff, because entries and pendings cannot
/// coexist in one queue.
#[test]
fn pending_consumes_bypass_depth_limit() {
    let mut sa = SyncArray::new(1, 1, 1);
    assert!(sa.consume(0, 0, pc(1)).is_err(), "empty queue: consume goes pending");
    assert!(sa.consume(0, 0, pc(1)).is_err(), "two pendings on a depth-1 queue");
    let d1 = sa.produce(0, 10, 3).unwrap().expect("delivers to first pending");
    let d2 = sa.produce(0, 20, 3).unwrap().expect("delivers to second pending");
    assert_eq!((d1.value, d2.value), (10, 20), "FIFO across pendings");
    assert_eq!(sa.occupancy(0), 0, "direct handoff leaves nothing buffered");
    assert!(sa.can_produce(0));
}

/// Consumer thread: `r = consume q0`, immediately redefine `r`, use
/// it. Producer thread: a long dependent chain, then the produce. The
/// late delivery carries a stale register-file token and must be
/// dropped — the redefined value wins under both engines.
#[test]
fn token_guards_redefinition_between_pending_consume_and_delivery() {
    let mut b = FunctionBuilder::new("t0");
    let r = b.fresh_reg();
    b.emit(Op::Consume { dst: r, queue: QueueId(0) });
    b.const_into(r, 5);
    b.output(r);
    b.ret(Some(r.into()));
    let t0 = b.finish().unwrap();

    let mut b = FunctionBuilder::new("t1");
    let mut v = b.const_(3);
    for _ in 0..12 {
        v = b.bin(BinOp::Mul, v, 1i64);
    }
    b.emit(Op::Produce { queue: QueueId(0), value: v.into() });
    b.ret(None);
    let t1 = b.finish().unwrap();

    let threads = [t0, t1];
    let config = MachineConfig::default().with_queue_depth(1);
    let decoded = simulate(&threads, &[], |_, _| {}, &config).unwrap();
    let reference = simulate_reference(&threads, &[], |_, _| {}, &config).unwrap();
    for r in [&decoded, &reference] {
        assert_eq!(r.output, vec![5], "stale delivery must not clobber the redefinition");
        assert_eq!(r.return_value, Some(5));
    }
    assert_eq!(decoded.cycles, reference.cycles, "engines agree cycle-for-cycle");
}

/// One deterministic kernel, both engines, pinned stall counts. The
/// kernel exercises three stall classes at once: a fast producer into
/// a depth-1 queue (queue-full backpressure), the producer's
/// `consume.sync` outrunning the consumer's go token (queue-empty),
/// and the consumer's register consumes — stall-on-use means waiting
/// for data shows up as *operand* stalls on the consumer side, never
/// queue-empty (only `consume.sync` blocks at the queue).
#[test]
fn pinned_stall_counts_for_one_kernel_under_both_engines() {
    let mut b = FunctionBuilder::new("producer");
    b.emit(Op::ConsumeSync { queue: QueueId(1) });
    for k in 0..6 {
        let v = b.const_(k);
        b.emit(Op::Produce { queue: QueueId(0), value: v.into() });
    }
    b.ret(None);
    let t0 = b.finish().unwrap();

    let mut b = FunctionBuilder::new("consumer");
    let mut warm = b.const_(2);
    for _ in 0..3 {
        warm = b.bin(BinOp::Mul, warm, warm);
    }
    b.emit(Op::ProduceSync { queue: QueueId(1) });
    let mut acc = b.const_(0);
    for _ in 0..6 {
        let r = b.fresh_reg();
        b.emit(Op::Consume { dst: r, queue: QueueId(0) });
        let mut t = b.bin(BinOp::Add, r, warm);
        for _ in 0..2 {
            t = b.bin(BinOp::Mul, t, 1i64);
        }
        acc = b.bin(BinOp::Add, acc, t);
    }
    b.output(acc);
    b.ret(Some(acc.into()));
    let t1 = b.finish().unwrap();

    let threads = [t0, t1];
    let config = MachineConfig::default().with_queue_depth(1);
    let program = DecodedProgram::decode(&threads).unwrap();
    let decoded = gmt_sim::simulate_decoded_opts(
        &program,
        &[],
        |_, _| {},
        &config,
        gmt_sim::SimOptions::default(),
    )
    .unwrap();
    let reference = simulate_reference(&threads, &[], |_, _| {}, &config).unwrap();

    assert_eq!(decoded.cycles, reference.cycles);
    assert_eq!(decoded.output, reference.output);
    for (d, r) in decoded.cores.iter().zip(&reference.cores) {
        assert_eq!(d, r, "per-core stats identical across engines");
    }

    // Pinned decomposition. These numbers are part of the machine
    // model's contract: a change here is a timing-model change and
    // must be intentional (update the pins in the same commit that
    // changes the model).
    let p = &decoded.cores[0];
    let c = &decoded.cores[1];
    let pin = |s: &gmt_sim::CoreStats| {
        (
            s.stall_operand,
            s.stall_structural,
            s.stall_sa_port,
            s.stall_queue_full,
            s.stall_queue_empty,
            s.stall_load_limit,
            s.stall_mispredict,
        )
    };
    assert!(p.stall_queue_empty > 0, "producer waits for the go token");
    assert!(p.stall_queue_full > 0, "depth-1 backpressure on the fast producer");
    assert!(c.stall_operand > 0, "consumer waits for data as operand stalls");
    assert_eq!(c.stall_queue_empty, 0, "register consume never stalls at the queue");
    assert_eq!(pin(p), (6, 0, 0, 28, 9, 0, 0), "producer stalls");
    assert_eq!(pin(c), (60, 0, 0, 0, 0, 0, 0), "consumer stalls");
    assert_eq!(decoded.cycles, 61, "pinned total");
}

/// `n` cores and one SA request port: cores 1.. each wait out a
/// dependent divide chain of their own length (all-stall windows for
/// the fast-forward to jump, so rounds start at arbitrary cycles), then
/// push six values into their own depth-2 queue while core 0 drains the
/// queues round-robin. Who gets the port on a contended cycle is the
/// start-core rotation `cycle % n` — the decision this pins for n > 2
/// across the event-driven engine, the per-cycle engine and the
/// ID-walking reference.
fn one_port_contention(n: usize) {
    const ROUNDS: usize = 6;
    let mut b = FunctionBuilder::new("drain");
    let mut acc = b.const_(0);
    for _ in 0..ROUNDS {
        for q in 1..n {
            let r = b.fresh_reg();
            b.emit(Op::Consume { dst: r, queue: QueueId(q as u32) });
            acc = b.bin(BinOp::Add, acc, r);
        }
    }
    b.output(acc);
    b.ret(Some(acc.into()));
    let mut threads = vec![b.finish().unwrap()];
    for q in 1..n {
        let mut b = FunctionBuilder::new("fill");
        let mut v = b.const_(1000 * q as i64);
        for _ in 0..q {
            v = b.bin(BinOp::Div, v, 1i64);
        }
        for k in 0..ROUNDS {
            let x = b.bin(BinOp::Add, v, k as i64);
            b.emit(Op::Produce { queue: QueueId(q as u32), value: x.into() });
        }
        b.ret(None);
        threads.push(b.finish().unwrap());
    }

    let mut config = MachineConfig::default().with_queue_depth(2);
    config.sa.ports = 1;
    let program = DecodedProgram::decode(&threads).unwrap();
    let run = |fast_forward| {
        let opts = gmt_sim::SimOptions { fast_forward };
        gmt_sim::simulate_decoded_opts(&program, &[], |_, _| {}, &config, opts).unwrap()
    };
    let (skip, per_cycle) = (run(true), run(false));
    let reference = simulate_reference(&threads, &[], |_, _| {}, &config).unwrap();

    let contended = reference.cores.iter().filter(|c| c.stall_sa_port > 0).count();
    assert!(contended >= 2, "{n} cores: the port must be fought over ({contended} cores lost it)");
    assert!(skip.skipped_cycles > 0, "{n} cores: the fast-forward must jump at least once");
    let sum: i64 = (1..n as i64).map(|q| (0..ROUNDS as i64).map(|k| 1000 * q + k).sum::<i64>()).sum();
    assert_eq!(reference.output, vec![sum]);
    for (name, r) in [("fast-forward", &skip), ("per-cycle", &per_cycle)] {
        assert_eq!(r.cycles, reference.cycles, "{n} cores, {name}: cycles");
        assert_eq!(r.cores, reference.cores, "{n} cores, {name}: per-core stats");
        assert_eq!(r.output, reference.output, "{n} cores, {name}: output");
    }
}

#[test]
fn three_cores_contending_for_one_sa_port_agree_across_engines() {
    one_port_contention(3);
}

#[test]
fn four_cores_contending_for_one_sa_port_agree_across_engines() {
    one_port_contention(4);
}

/// The machines every one-core case runs under: ideal branches and
/// static BTFN prediction, both with depth-1 queues.
fn one_core_machines() -> [MachineConfig; 2] {
    let ideal = MachineConfig::default().with_queue_depth(1);
    let btfn = MachineConfig { branch_model: BranchModel::StaticBtfn { penalty: 6 }, ..ideal.clone() };
    [ideal, btfn]
}

/// Which stall reasons a decoded run recorded, in first-seen order.
#[derive(Default)]
struct Reasons(Vec<StallReason>);

impl TraceSink for Reasons {
    fn event(&mut self, ev: &TraceEvent) {
        if let TraceEvent::StallSpan { reason, .. } = *ev {
            if !self.0.contains(&reason) {
                self.0.push(reason);
            }
        }
    }

    fn run_end(&mut self, _cycles: u64) {}
}

/// Runs a one-thread program on the fast-forward engine (its one-core
/// loop), the per-cycle engine and the reference. All three must return
/// the same result — cycles, output, every `CoreStats` field and the hit
/// levels, with the conservation law `engine_steps + skipped_cycles` =
/// per-cycle steps — or the same error. Returns the one-core loop's
/// outcome and the stall reasons it traced.
fn one_core(thread: &Function, config: &MachineConfig) -> (Result<SimResult, ExecError>, Vec<StallReason>) {
    let threads = std::slice::from_ref(thread);
    let program = DecodedProgram::decode(threads).unwrap();
    let mut reasons = Reasons::default();
    let opts = SimOptions { fast_forward: true };
    let solo = simulate_decoded_traced_opts(&program, &[], |_, _| {}, config, &mut reasons, opts);
    let untraced = simulate_decoded_opts(&program, &[], |_, _| {}, config, opts);
    let opts = SimOptions { fast_forward: false };
    let per_cycle = simulate_decoded_opts(&program, &[], |_, _| {}, config, opts);
    let reference = simulate_reference(threads, &[], |_, _| {}, config);
    assert_eq!(solo, untraced, "tracing the one-core loop changed it");
    match (&solo, &per_cycle, &reference) {
        (Ok(s), Ok(p), Ok(r)) => {
            let observed = |x: &SimResult| {
                (x.cycles, x.cores.clone(), x.output.clone(), x.return_value, [x.hits_l1, x.hits_l2, x.hits_l3, x.hits_mem])
            };
            assert_eq!(observed(s), observed(r), "one-core loop vs reference");
            assert_eq!(observed(p), observed(r), "per-cycle vs reference");
            assert_eq!(s.engine_steps + s.skipped_cycles, p.engine_steps, "conservation law");
        }
        _ => {
            assert_eq!(solo.as_ref().err(), reference.as_ref().err(), "one-core loop vs reference");
            assert_eq!(per_cycle.as_ref().err(), reference.as_ref().err(), "per-cycle vs reference");
        }
    }
    (solo, reasons.0)
}

/// Three trips of a loop whose body loads a cold line (memory latency)
/// and uses it at once: three long operand-stall spans, which the
/// one-core loop jumps over in one step each.
fn load_miss_chain() -> Function {
    let mut b = FunctionBuilder::new("misses");
    let a = b.object("a", 64);
    let base = b.lea(a, 0);
    let (i, acc) = (b.fresh_reg(), b.fresh_reg());
    let (head, body, exit) = (b.block("head"), b.block("body"), b.block("exit"));
    b.const_into(i, 0);
    b.const_into(acc, 1);
    b.jump(head);
    b.switch_to(head);
    let more = b.bin(BinOp::Lt, i, 3i64);
    b.branch(more, body, exit);
    b.switch_to(body);
    let cell = b.bin(BinOp::Mul, i, 16i64); // a new 128-byte line per trip
    let at = b.bin(BinOp::Add, base, cell);
    let v = b.load(at, 0);
    b.bin_into(BinOp::Add, acc, acc, v);
    b.bin_into(BinOp::Add, i, i, 1i64);
    b.jump(head);
    b.switch_to(exit);
    b.output(acc);
    b.ret(Some(acc.into()));
    b.finish().unwrap()
}

/// A fuel bound that lands inside a skipped stall span stops every
/// engine on the same cycle: with `max_cycles` at each cycle of the run
/// (and one past its end), the run ends in `OutOfFuel` exactly when the
/// bound is below the cycle count, in all three engines alike.
#[test]
fn one_core_out_of_fuel_inside_a_load_miss_span_fires_on_the_same_cycle() {
    let f = load_miss_chain();
    for machine in one_core_machines() {
        let full = one_core(&f, &machine).0.expect("the chain completes");
        assert!(full.cores[0].stall_operand > 3 * 100, "three memory-latency spans: {:?}", full.cores[0]);
        assert!(full.skipped_cycles > 3 * 100, "the one-core loop jumps the spans");
        for max_cycles in 1..=full.cycles + 1 {
            let bounded = MachineConfig { max_cycles, ..machine.clone() };
            match one_core(&f, &bounded).0 {
                Ok(r) => assert!(max_cycles >= full.cycles && r.cycles == full.cycles, "bound {max_cycles}"),
                Err(e) => {
                    assert!(max_cycles < full.cycles, "bound {max_cycles}: {e:?}");
                    assert_eq!(e, ExecError::OutOfFuel, "bound {max_cycles}");
                }
            }
        }
    }
}

/// A stall span longer than the no-progress window (a memory latency of
/// 250k cycles against the 100k-cycle window) ends in `Deadlock` inside
/// the span, not in `OutOfFuel` at the 200k-cycle fuel bound: the jump
/// is clamped to the window before the fuel bound is reached.
#[test]
fn one_core_deadlock_window_closes_inside_a_longer_stall_span() {
    let f = load_miss_chain();
    for machine in one_core_machines() {
        let slow = MachineConfig { mem_latency: 250_000, max_cycles: 200_000, ..machine };
        assert_eq!(one_core(&f, &slow).0, Err(ExecError::Deadlock(None)));
    }
}

/// A lone core waiting on a queue nobody produces deadlocks with the
/// same witness in every engine, whether it blocks at a `consume.sync`
/// or on the use of a register `consume`'s value.
#[test]
fn one_core_consume_deadlocks_report_the_same_witness() {
    let mut b = FunctionBuilder::new("sync");
    let x = b.const_(4);
    b.emit(Op::ConsumeSync { queue: QueueId(0) });
    b.ret(Some(x.into()));
    let sync = b.finish().unwrap();

    let mut b = FunctionBuilder::new("data");
    let r = b.fresh_reg();
    b.emit(Op::Consume { dst: r, queue: QueueId(1) });
    let y = b.bin(BinOp::Add, r, 1i64);
    b.output(y);
    b.ret(Some(y.into()));
    let data = b.finish().unwrap();

    for machine in one_core_machines() {
        for (f, queue, reason) in [(&sync, 0, StallReason::QueueEmpty), (&data, 1, StallReason::Operand)] {
            let (result, reasons) = one_core(f, &machine);
            let witness = DeadlockInfo { core: 0, queue: QueueId(queue), op: BlockedOp::ConsumeEmpty };
            assert_eq!(result, Err(ExecError::Deadlock(Some(witness))), "{}", f.name);
            assert_eq!(reasons, [reason], "{}", f.name);
        }
    }
}

/// One core talking to itself through a depth-1 queue and a sync queue,
/// on a machine with two SA ports and a 4-cycle array: each trip loses
/// the port to its own earlier communication (`SaPort`) and waits for
/// the token it just produced (`QueueEmpty`, a span the one-core loop
/// jumps). With `overfill` the program then produces
/// twice into the depth-1 queue, which only a consume could drain
/// (`QueueFull` until the deadlock window closes).
fn self_talk(overfill: bool) -> Function {
    let (data, sync) = (QueueId(0), QueueId(1));
    let mut b = FunctionBuilder::new(if overfill { "self_talk_overfill" } else { "self_talk" });
    let (i, acc) = (b.fresh_reg(), b.fresh_reg());
    let (head, body, exit) = (b.block("head"), b.block("body"), b.block("exit"));
    b.const_into(i, 0);
    b.const_into(acc, 0);
    b.jump(head);
    b.switch_to(head);
    let more = b.bin(BinOp::Lt, i, 4i64);
    b.branch(more, body, exit);
    b.switch_to(body);
    b.emit(Op::ProduceSync { queue: sync });
    b.emit(Op::ConsumeSync { queue: sync }); // QueueEmpty: the token is a cycle away
    b.emit(Op::Produce { queue: data, value: i.into() });
    let v = b.fresh_reg();
    b.emit(Op::Consume { dst: v, queue: data }); // SaPort: both ports taken this cycle
    b.bin_into(BinOp::Add, acc, acc, v);
    b.bin_into(BinOp::Add, i, i, 1i64);
    b.jump(head);
    b.switch_to(exit);
    if overfill {
        b.emit(Op::Produce { queue: data, value: acc.into() });
        b.emit(Op::Produce { queue: data, value: acc.into() });
    }
    b.output(acc);
    b.ret(Some(acc.into()));
    b.finish().unwrap()
}

#[test]
fn one_core_on_its_own_queues_stalls_on_full_empty_and_port_alike_in_every_engine() {
    for machine in one_core_machines() {
        let machine =
            MachineConfig { sa: SaConfig { ports: 2, latency: 4, ..machine.sa.clone() }, ..machine };
        let (result, reasons) = one_core(&self_talk(false), &machine);
        let r = result.expect("the round trips complete");
        assert_eq!(r.output, vec![6]);
        assert!(r.cores[0].stall_sa_port > 0 && r.cores[0].stall_queue_empty > 4, "{:?}", r.cores[0]);
        assert!(r.skipped_cycles > 0, "the one-core loop jumps the token waits");
        assert!(reasons.contains(&StallReason::SaPort) && reasons.contains(&StallReason::QueueEmpty), "{reasons:?}");

        let (result, reasons) = one_core(&self_talk(true), &machine);
        let witness = DeadlockInfo { core: 0, queue: QueueId(0), op: BlockedOp::ProduceFull };
        assert_eq!(result, Err(ExecError::Deadlock(Some(witness))));
        for reason in [StallReason::QueueFull, StallReason::QueueEmpty, StallReason::SaPort] {
            assert!(reasons.contains(&reason), "{reason:?} missing from {reasons:?}");
        }
    }
}
