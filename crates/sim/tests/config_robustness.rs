//! Property: the simulator and the functional MT interpreter return
//! typed errors — never panic, hang, or silently misbehave — on
//! arbitrary machine and queue configurations, including degenerate
//! ones (zero-width cores, zero-way caches, port-less sync arrays,
//! zero queues).
//!
//! Replay a failure with `GMT_TESTKIT_SEED=<seed> cargo test -p
//! gmt-sim --test config_robustness`.

use gmt_ir::interp_mt::{run_mt, QueueConfig};
use gmt_ir::interp::{ExecConfig, ExecError};
use gmt_ir::{BinOp, FunctionBuilder, Op, QueueId};
use gmt_sim::{simulate, BranchModel, CacheConfig, MachineConfig, SaConfig};
use gmt_testkit::{prop_assert, ranged, Checker, Gen};

/// Producer sends 1..=3 on queue 0; consumer sums and returns 6.
fn producer_consumer() -> Vec<gmt_ir::Function> {
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
    vec![producer, consumer]
}

/// (issue_width, alu, mem_ports, assoc), (line_bytes, num_queues, depth, ports)
type RawCfg = ((usize, usize, usize, u64), (u64, usize, usize, usize));

fn cfg_gen() -> Gen<RawCfg> {
    let core = ranged(0usize, 5)
        .zip(ranged(0usize, 4))
        .zip(ranged(0usize, 4))
        .zip(ranged(0u64, 4))
        .map(|(((iw, alu), mp), assoc)| (iw, alu, mp, assoc));
    let rest = ranged(0u64, 130)
        .zip(ranged(0usize, 6))
        .zip(ranged(0usize, 4))
        .zip(ranged(0usize, 4))
        .map(|(((lb, nq), d), p)| (lb, nq, d, p));
    core.zip(rest)
}

fn machine(raw: &RawCfg) -> MachineConfig {
    let ((iw, alu, mp, assoc), (lb, nq, d, p)) = *raw;
    MachineConfig {
        issue_width: iw,
        alu_units: alu,
        mem_ports: mp,
        fp_units: 1,
        branch_units: 1,
        l1d: CacheConfig { size_bytes: 1024, assoc, line_bytes: lb, latency: 1 },
        sa: SaConfig { num_queues: nq, depth: d, latency: 1, ports: p },
        // Bound the run so pathological-but-valid machines terminate
        // through OutOfFuel/Deadlock instead of spinning.
        max_cycles: 500_000,
        ..MachineConfig::default()
    }
}

#[test]
fn arbitrary_machine_configs_never_panic() {
    let threads = producer_consumer();
    Checker::new("arbitrary_machine_configs_never_panic").cases(64).run(&cfg_gen(), |raw| {
        let config = machine(raw);
        let result = simulate(&threads, &[], |_, _| {}, &config);
        if config.validate().is_err() {
            prop_assert!(
                matches!(result, Err(ExecError::InvalidConfig(_))),
                "invalid machine must be rejected up front, got {result:?}"
            );
        } else if config.sa.num_queues == 0 {
            // Queue ids are validated against the synchronization array
            // at load time now, so the fault is an up-front config
            // rejection rather than a mid-run BadQueue.
            prop_assert!(
                matches!(result, Err(ExecError::InvalidConfig(_))),
                "communication with no queues must be rejected at load, got {result:?}"
            );
        } else {
            let r = result.expect("valid config must simulate");
            prop_assert!(r.return_value == Some(6), "wrong sum: {:?}", r.return_value);
        }
        Ok(())
    });
}

#[test]
fn arbitrary_queue_configs_never_panic() {
    let threads = producer_consumer();
    Checker::new("arbitrary_queue_configs_never_panic").cases(64).run(
        &ranged(0usize, 6).zip(ranged(0usize, 5)),
        |&(num_queues, capacity)| {
            let qc = QueueConfig { num_queues, capacity };
            let result = run_mt(&threads, &[], |_, _| {}, &qc, &ExecConfig::default());
            if num_queues == 0 || capacity == 0 {
                // Load-time validation rejects programs whose queues
                // can never carry a token (no queues, or zero
                // capacity) before any thread steps.
                prop_assert!(
                    matches!(result, Err(ExecError::InvalidConfig(_))),
                    "degenerate queue config must be rejected at load, got {result:?}"
                );
            } else {
                let r = result.expect("valid config must complete");
                prop_assert!(r.return_value == Some(6), "wrong sum: {:?}", r.return_value);
            }
            Ok(())
        },
    );
}

/// Regression for the stall fast-forward: a zero mispredict penalty
/// combined with a zero-latency synchronization array is the one
/// machine shape whose wakeup computation would be degenerate (no
/// strictly-future self-wakeup source left), so `validate` must reject
/// exactly that combination and nothing broader.
#[test]
fn zero_penalty_zero_latency_sa_combo_is_rejected_up_front() {
    let threads = producer_consumer();
    let mut config = MachineConfig::default();
    config.branch_model = BranchModel::StaticBtfn { penalty: 0 };

    // Penalty 0 alone: valid, simulates normally.
    let r = simulate(&threads, &[], |_, _| {}, &config).expect("penalty 0 alone is valid");
    assert_eq!(r.return_value, Some(6));

    // Latency 0 alone (ideal branches): valid, simulates normally.
    let mut lat0 = MachineConfig::default();
    lat0.sa.latency = 0;
    let r = simulate(&threads, &[], |_, _| {}, &lat0).expect("latency 0 alone is valid");
    assert_eq!(r.return_value, Some(6));

    // The combination: rejected before the first cycle runs.
    config.sa.latency = 0;
    let err = simulate(&threads, &[], |_, _| {}, &config).unwrap_err();
    assert!(
        matches!(&err, ExecError::InvalidConfig(m) if m.contains("degenerate")),
        "expected up-front rejection, got {err:?}"
    );

    // ...unless the machine has no queues at all — then there are no
    // SA wakeups to degrade. (This program communicates, so it still
    // fails queue-id validation, but as a *different* error.)
    config.sa.num_queues = 0;
    let err = simulate(&threads, &[], |_, _| {}, &config).unwrap_err();
    assert!(
        matches!(&err, ExecError::InvalidConfig(m) if !m.contains("degenerate")),
        "queue-less machines must not trip the wakeup check, got {err:?}"
    );
}

#[test]
fn empty_thread_sets_are_rejected() {
    let err = simulate(&[], &[], |_, _| {}, &MachineConfig::default()).unwrap_err();
    assert!(matches!(err, ExecError::InvalidConfig(_)), "{err}");

    let err = run_mt(&[], &[], |_, _| {}, &QueueConfig::default(), &ExecConfig::default())
        .unwrap_err();
    assert!(matches!(err, ExecError::InvalidConfig(_)), "{err}");
}

/// Direct `SyncArray` misuse — a queue id outside the array — must get
/// conservative answers, never a panic. The simulators validate queue
/// ids at load, so these are backstops for library callers that skip
/// that step.
#[test]
fn sync_array_out_of_range_queue_ids_are_total() {
    use gmt_sim::{PendingConsume, QueueFull, SyncArray};
    let mut sa = SyncArray::new(2, 1, 1);
    let q = 7; // not a queue of this array
    assert_eq!(sa.occupancy(q), 0);
    assert!(!sa.can_produce(q), "a nonexistent queue never accepts a produce");
    assert!(matches!(sa.produce(q, 42, 0), Err(QueueFull)));
    let pending = PendingConsume { core: 0, dst: None, token: 0 };
    assert!(sa.consume(q, 0, pending).is_err(), "a nonexistent queue never delivers");
    assert!(!sa.has_visible_entry(q, u64::MAX));
    assert_eq!(sa.next_visible_at(q), None);
    assert_eq!(sa.pop_token(q, 0), None);
    // The misdirected operations left the real queues untouched.
    assert!(sa.can_produce(0) && sa.can_produce(1));
    assert_eq!(sa.occupancy(0), 0);
}

/// A consume with no producer anywhere is a deadlock, reported as the
/// typed error — in the timed simulator and the functional MT
/// interpreter alike.
#[test]
fn consume_without_producer_deadlocks_with_typed_error() {
    let q = QueueId(0);
    let mut t0 = FunctionBuilder::new("idle");
    t0.ret(None);
    let mut t1 = FunctionBuilder::new("starved");
    let v = t1.fresh_reg();
    t1.emit(Op::Consume { dst: v, queue: q });
    t1.ret(Some(v.into()));
    let threads = vec![t0.finish().unwrap(), t1.finish().unwrap()];

    // The default cycle budget is far beyond the no-progress window,
    // so the run ends in Deadlock (not OutOfFuel).
    let config = MachineConfig::default();
    let err = simulate(&threads, &[], |_, _| {}, &config).unwrap_err();
    assert!(matches!(err, ExecError::Deadlock(_)), "simulator: {err:?}");

    let exec = ExecConfig { max_steps: 100_000 };
    let err = run_mt(&threads, &[], |_, _| {}, &QueueConfig::default(), &exec).unwrap_err();
    assert!(matches!(err, ExecError::Deadlock(_)), "functional MT: {err:?}");
}
