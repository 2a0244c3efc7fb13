//! Synchronization-array edge cases the paper's timing results lean
//! on: same-cycle produce/consume at exactly `depth` occupancy, the
//! register-file token guarding a redefinition that overtakes a
//! pending consume's delivery, and pinned per-`StallReason` counts for
//! one kernel under both engines (the ID-walking reference and the
//! decoded engine must tell the same story, stall for stall).

use gmt_ir::decoded::DecodedProgram;
use gmt_ir::{BinOp, FunctionBuilder, Op, QueueId, Reg};
use gmt_sim::{
    simulate, simulate_reference, MachineConfig, PendingConsume, QueueFull, SyncArray,
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
    let mut sa = SyncArray::new(1, &[2], 1);
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
    let mut sa = SyncArray::new(1, &[1], 1);
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
