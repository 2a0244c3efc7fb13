//! Microarchitectural unit behavior of the core model: issue-width and
//! functional-unit limits, stall-on-use, outstanding consumes with the
//! write-token guard, and SA port contention.

use gmt_ir::{BinOp, FunctionBuilder, Op, QueueId};
use gmt_sim::{simulate, MachineConfig, StallReason};

#[test]
fn issue_width_bounds_ipc() {
    // 60 independent single-cycle ops: at 6-wide issue, needs >= 10
    // cycles; a narrower machine needs proportionally more.
    let build = || {
        let mut b = FunctionBuilder::new("w");
        let x = b.const_(1);
        for _ in 0..60 {
            b.bin(BinOp::Add, x, 1i64);
        }
        b.ret(None);
        b.finish().unwrap()
    };
    let wide = simulate(&[build()], &[], |_, _| {}, &MachineConfig::default()).unwrap();
    let narrow_cfg =
        MachineConfig { issue_width: 2, alu_units: 2, ..MachineConfig::default() };
    let narrow = simulate(&[build()], &[], |_, _| {}, &narrow_cfg).unwrap();
    assert!(wide.cycles >= 10, "{}", wide.cycles);
    assert!(
        narrow.cycles >= wide.cycles * 2,
        "narrow {} vs wide {}",
        narrow.cycles,
        wide.cycles
    );
}

#[test]
fn fp_unit_limit_throttles_fp_code() {
    // 32 independent FP ops: 2 FP units => >= 16 cycles of FP issue.
    let mut b = FunctionBuilder::new("fp");
    let x = b.const_(3);
    for _ in 0..32 {
        b.bin(BinOp::FAdd, x, 1i64);
    }
    b.ret(None);
    let f = b.finish().unwrap();
    let r = simulate(&[f], &[], |_, _| {}, &MachineConfig::default()).unwrap();
    assert!(r.cycles >= 16, "{}", r.cycles);
    assert!(r.cores[0].stall_structural > 0);
}

#[test]
fn stall_on_use_not_on_issue() {
    // A load's latency hides behind independent work: the load issues,
    // 10 independent adds issue behind it, and only the dependent use
    // stalls.
    let mut b = FunctionBuilder::new("s");
    let obj = b.object("a", 4);
    let p = b.lea(obj, 0);
    let v = b.load(p, 0); // cold: memory latency
    let x = b.const_(1);
    for _ in 0..10 {
        b.bin(BinOp::Add, x, 1i64); // independent of the load
    }
    let use_v = b.bin(BinOp::Add, v, 1i64); // stalls on use
    b.ret(Some(use_v.into()));
    let f = b.finish().unwrap();
    let r = simulate(&[f], &[], |_, _| {}, &MachineConfig::default()).unwrap();
    assert!(r.cores[0].stall_operand > 0, "{:?}", r.cores[0]);
    // Total is about one memory latency, not latency + 10.
    let mem = MachineConfig::default().mem_latency;
    assert!(r.cycles < mem + 20, "{} vs {}", r.cycles, mem);
}

#[test]
fn outstanding_consume_does_not_block_independents() {
    // T1 issues a consume whose producer is slow; 20 independent adds
    // behind the consume retire meanwhile (stall-on-use).
    let q = QueueId(0);
    let producer = {
        let mut b = FunctionBuilder::new("p");
        let mut v = b.const_(1);
        for _ in 0..20 {
            v = b.bin(BinOp::Mul, v, 3i64); // 20 x 3 cycles, serial
        }
        b.emit(Op::Produce { queue: q, value: v.into() });
        b.ret(None);
        b.finish().unwrap()
    };
    let consumer = {
        let mut b = FunctionBuilder::new("c");
        let d = b.fresh_reg();
        b.emit(Op::Consume { dst: d, queue: q });
        let x = b.const_(1);
        for _ in 0..20 {
            b.bin(BinOp::Add, x, 1i64);
        }
        let u = b.bin(BinOp::Add, d, 1i64); // first real use
        b.output(u);
        b.ret(None);
        b.finish().unwrap()
    };
    let r = simulate(&[producer, consumer], &[], |_, _| {}, &MachineConfig::default()).unwrap();
    // The consumer's independent adds issue long before the value
    // arrives; only the use stalls. If consume blocked issue, the
    // consumer would show ~60 cycles of queue-empty stalls instead.
    assert_eq!(r.cores[1].stall_queue_empty, 0, "{:?}", r.cores[1]);
    assert!(r.cores[1].stall_operand > 0);
    assert_eq!(r.output, vec![i64::pow(3, 20) + 1]);
}

#[test]
fn late_delivery_respects_redefinition() {
    // The consume's destination is overwritten by a later local def
    // before the producer delivers: the late value must NOT clobber it.
    let q = QueueId(0);
    let producer = {
        let mut b = FunctionBuilder::new("p");
        let mut v = b.const_(7);
        for _ in 0..10 {
            v = b.bin(BinOp::Mul, v, 1i64); // delay
        }
        b.emit(Op::Produce { queue: q, value: v.into() });
        b.ret(None);
        b.finish().unwrap()
    };
    let consumer = {
        let mut b = FunctionBuilder::new("c");
        let d = b.fresh_reg();
        b.emit(Op::Consume { dst: d, queue: q });
        b.const_into(d, 99); // redefinition wins
        b.output(d);
        b.ret(None);
        b.finish().unwrap()
    };
    let r = simulate(&[producer, consumer], &[], |_, _| {}, &MachineConfig::default()).unwrap();
    assert_eq!(r.output, vec![99]);
}

#[test]
fn sa_ports_are_shared_between_cores() {
    // Two cores each hammering produce/consume pairs compete for the 4
    // shared SA ports.
    let mk_producer = |q0: u32| {
        let mut b = FunctionBuilder::new("p");
        for k in 0..64u32 {
            b.emit(Op::Produce { queue: QueueId(q0 + (k % 4)), value: 1i64.into() });
        }
        b.ret(None);
        b.finish().unwrap()
    };
    let mk_consumer = |q0: u32| {
        let mut b = FunctionBuilder::new("c");
        for k in 0..64u32 {
            let d = b.fresh_reg();
            b.emit(Op::Consume { dst: d, queue: QueueId(q0 + (k % 4)) });
        }
        b.ret(None);
        b.finish().unwrap()
    };
    let r = simulate(
        &[mk_producer(0), mk_consumer(0)],
        &[],
        |_, _| {},
        &MachineConfig::default(),
    )
    .unwrap();
    let total_sa_stalls: u64 = r.cores.iter().map(|c| c.stall_sa_port).sum();
    assert!(total_sa_stalls > 0, "{:?}", r.cores);
    // 128 SA operations through 4 ports/cycle >= 32 cycles.
    assert!(r.cycles >= 32, "{}", r.cycles);
}

#[test]
fn stall_reasons_recorded() {
    // The stall taxonomy through CoreStats: a counter per reason, and
    // the by-reason view reading the same seven in `ALL` order.
    let mut s = gmt_sim::CoreStats::default();
    for (n, r) in (1..).zip(StallReason::ALL) {
        s.record_stalls(r, n);
    }
    let fields = [
        s.stall_operand,
        s.stall_structural,
        s.stall_sa_port,
        s.stall_queue_full,
        s.stall_queue_empty,
        s.stall_load_limit,
        s.stall_mispredict,
    ];
    assert_eq!(fields, [1, 2, 3, 4, 5, 6, 7]);
    let view = s.stalls();
    for (n, r) in (1..).zip(StallReason::ALL) {
        assert_eq!(view[r], n, "{}", r.name());
    }
    assert_eq!(view.total(), 28);
    assert!(view.iter().map(|(r, _)| r).eq(StallReason::ALL));
}

#[test]
fn outstanding_load_limit_enforced() {
    // 32 back-to-back cold loads from distinct lines: more than 16
    // must not be in flight at once.
    let mut b = FunctionBuilder::new("l");
    let obj = b.object("a", 4096);
    let p = b.lea(obj, 0);
    for k in 0..32 {
        b.load(p, k * 16); // distinct cache lines
    }
    b.ret(None);
    let f = b.finish().unwrap();
    let r = simulate(&[f], &[], |_, _| {}, &MachineConfig::default()).unwrap();
    assert!(r.cores[0].stall_load_limit > 0, "{:?}", r.cores[0]);
}

#[test]
fn static_predictor_charges_mispredicts() {
    use gmt_sim::BranchModel;
    // A loop whose exit is mispredicted once per trip-out, and whose
    // back edge predicts correctly: only a handful of mispredicts.
    let build = || {
        let mut b = FunctionBuilder::new("bp");
        let n = b.param();
        let i = b.fresh_reg();
        let h = b.block("h");
        let body = b.block("body");
        let exit = b.block("exit");
        b.const_into(i, 0);
        b.jump(h);
        b.switch_to(h);
        let c = b.bin(BinOp::Lt, i, n);
        b.branch(c, body, exit);
        b.switch_to(body);
        b.bin_into(BinOp::Add, i, i, 1i64);
        b.jump(h);
        b.switch_to(exit);
        b.ret(Some(i.into()));
        b.finish().unwrap()
    };
    let ideal = simulate(&[build()], &[50], |_, _| {}, &MachineConfig::default()).unwrap();
    let cfg = MachineConfig {
        branch_model: BranchModel::StaticBtfn { penalty: 6 },
        ..MachineConfig::default()
    };
    let real = simulate(&[build()], &[50], |_, _| {}, &cfg).unwrap();
    assert_eq!(real.return_value, ideal.return_value);
    assert!(real.cores[0].mispredicts >= 1, "{:?}", real.cores[0]);
    assert!(
        real.cores[0].mispredicts <= 55,
        "the loop-shaped branch should mostly predict: {:?}",
        real.cores[0]
    );
    assert!(real.cycles >= ideal.cycles);
}

#[test]
fn inflight_loads_are_pruned_not_accumulated() {
    // The outstanding-load window must count only loads still in
    // flight: completions at or before `now` are pruned, so the list
    // is bounded by the limit rather than growing for the whole run.
    use gmt_ir::interp::MemoryLayout;
    let mut b = FunctionBuilder::new("l");
    b.ret(None);
    let f = b.finish().unwrap();
    let layout = MemoryLayout::of(&f);
    let mut core = gmt_sim::Core::new(&f, &[], &layout);
    core.inflight_loads.extend([5u64, 10, 10, 20]);
    assert_eq!(core.outstanding_loads(0), 4);
    // A completion time of exactly `now` is no longer outstanding.
    assert_eq!(core.outstanding_loads(10), 1);
    assert_eq!(core.inflight_loads, vec![20], "pruned in place");
    assert_eq!(core.outstanding_loads(20), 0);
    assert!(core.inflight_loads.is_empty());
}

#[test]
fn load_limit_stalls_then_drains() {
    // 64 independent cold loads: the 16-load window fills (LoadLimit
    // stalls observed), then drains as loads complete — the run
    // terminates with every load issued instead of wedging once the
    // window first fills.
    let mut b = FunctionBuilder::new("many_loads");
    let obj = b.object("a", 512);
    let p = b.lea(obj, 0);
    for k in 0..64 {
        // One cell per cache line (64-byte lines, 8-byte cells), so
        // every load is a cold long-latency miss.
        b.load(p, k * 8);
    }
    b.ret(None);
    let f = b.finish().unwrap();
    let r = simulate(&[f], &[], |_, _| {}, &MachineConfig::default()).unwrap();
    assert!(r.cores[0].stall_load_limit > 0, "{:?}", r.cores[0]);
    assert_eq!(r.hits_l1 + r.hits_l2 + r.hits_l3 + r.hits_mem, 64, "all loads issued");
}
