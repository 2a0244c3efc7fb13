//! Cross-crate invariants of the full pipeline, checked on the real
//! benchmark catalog: the paper's structural claims beyond raw
//! correctness. Randomized coverage (partition choice × max-flow
//! algorithm) runs on the `gmt-testkit` harness with fixed default
//! seeds.

use gmt_core::{CocoConfig, Parallelizer, Scheduler};
use gmt_integration_tests::block_partition;
use gmt_ir::interp_mt::{run_mt, QueueConfig};
use gmt_pdg::Pdg;
use gmt_sched::{has_cyclic_inter_thread_deps, is_pipeline};
use gmt_sim::{simulate, MachineConfig};
use gmt_testkit::{full_u64, prop_assert, prop_assert_eq, ranged, Checker};
use gmt_workloads::{catalog, exec_config};

/// The most a DSWP program at two threads may slow down, on its train
/// input at queue depth 32, when the synchronization array's latency
/// goes from 1 to 64 cycles. Measured: 0.02–1.76 % over the 22
/// programs, the most on ks / COCO (7 100 → 7 225 cycles). Each
/// program pays 62–127 cycles more — about one or two crossings of the
/// array at 63 extra cycles each, on filling and draining the pipeline —
/// however long it runs, so the ratio peaks on the shortest runs; the
/// steady state hides the latency behind the queues. Where a
/// cross-thread recurrence pays the latency on every iteration the
/// bound fails at once: GREMIO's two-thread programs (baseline MTCG,
/// no arbitration, the same inputs and depth) slow by 8–515 % on 10 of
/// the 11 kernels.
const LATENCY_64_SLOWDOWN: f64 = 0.02;

/// DSWP output always satisfies the pipeline property (Property 1
/// discussion: a violated pipeline would create inter-thread dependence
/// cycles), and so does the program generated from it: at every thread
/// count and in both variants, every queue goes from an earlier stage
/// to a later one. No queue closes a cross-thread cycle, which is why
/// DSWP's cycles do not depend on the synchronization array's latency:
/// at two threads both variants of every kernel stay within
/// [`LATENCY_64_SLOWDOWN`] of their latency-1 cycles at latency 64.
#[test]
fn dswp_is_always_a_pipeline() {
    for w in catalog() {
        let train = w.run_train().unwrap();
        let (f, profile) = (&w.function, &train.profile);
        let pdg = Pdg::build(f);
        for n in [2, 3, 4] {
            let scheduler = Scheduler::dswp(n);
            let partition = scheduler.partition(f, &pdg, profile).unwrap();
            let at = format!("{} N={n}", w.benchmark);
            assert!(is_pipeline(&pdg, &partition), "{at}");
            assert!(!has_cyclic_inter_thread_deps(&pdg, &partition), "{at}");
            for coco in [false, true] {
                let mut p = Parallelizer::new(scheduler.clone());
                if coco {
                    p = p.with_coco(CocoConfig::default());
                }
                let r = p.parallelize_with_partition(f, profile, &pdg, partition.clone()).unwrap();
                for l in r.queue_labels() {
                    assert!(l.from < l.to, "{at} coco={coco}: queue goes backward: {l:?}");
                }
                if n == 2 {
                    let cycles = |latency| {
                        let mut machine =
                            MachineConfig::default().with_queue_depth(scheduler.queue_depth());
                        machine.sa.latency = latency;
                        simulate(r.threads(), &w.train_args, w.init, &machine).unwrap().cycles
                    };
                    let (fast, slow) = (cycles(1), cycles(64));
                    assert!(
                        slow as f64 <= fast as f64 * (1.0 + LATENCY_64_SLOWDOWN),
                        "{at} coco={coco}: SA latency 1 -> 64 took {fast} -> {slow} cycles"
                    );
                }
            }
        }
    }
}

/// The generated threads always pass the IR verifier and share the
/// original's object table.
#[test]
fn generated_threads_are_well_formed() {
    for w in catalog().into_iter().take(4) {
        let train = w.run_train().unwrap();
        for scheduler in [Scheduler::dswp(2), Scheduler::gremio(2)] {
            let r = Parallelizer::new(scheduler)
                .with_coco(CocoConfig::default())
                .parallelize(&w.function, &train.profile)
                .unwrap();
            for t in r.threads() {
                gmt_ir::verify(t).unwrap_or_else(|e| panic!("{}: {e}", w.benchmark));
                assert_eq!(t.objects().len(), w.function.objects().len());
                assert_eq!(t.params, w.function.params);
            }
        }
    }
}

/// COCO's plan estimate under the training profile never exceeds the
/// baseline's (min-cut optimality relative to MTCG's cut, which is
/// always feasible).
#[test]
fn coco_plan_estimate_never_worse_than_baseline() {
    for w in catalog() {
        let train = w.run_train().unwrap();
        let pdg = Pdg::build(&w.function);
        for scheduler in [Scheduler::dswp(2), Scheduler::gremio(2)] {
            let base = Parallelizer::new(scheduler.clone())
                .parallelize(&w.function, &train.profile)
                .unwrap();
            let coco = Parallelizer::new(scheduler.clone())
                .with_coco(CocoConfig::default())
                .parallelize_with_partition(
                    &w.function,
                    &train.profile,
                    &pdg,
                    base.partition.clone(),
                )
                .unwrap();
            let b = base.output.plan.dynamic_cost(&w.function, &train.profile);
            let c = coco.output.plan.dynamic_cost(&w.function, &train.profile);
            assert!(c <= b, "{} {:?}: {b} -> {c}", w.benchmark, scheduler);
        }
    }
}

/// The cycle-level simulator and the functional MT interpreter agree on
/// all observable results for parallelized code.
#[test]
fn simulator_agrees_with_functional_interpreter() {
    for w in catalog().into_iter().take(5) {
        let train = w.run_train().unwrap();
        let r = Parallelizer::new(Scheduler::dswp(2))
            .with_coco(CocoConfig::default())
            .parallelize(&w.function, &train.profile)
            .unwrap();
        let functional = run_mt(
            r.threads(),
            &w.train_args,
            w.init,
            &QueueConfig { num_queues: r.num_queues().max(1) as usize, capacity: 32 },
            &exec_config(),
        )
        .unwrap();
        let mut machine = MachineConfig::default();
        if r.num_queues() as usize > machine.sa.num_queues {
            machine.sa.num_queues = r.num_queues() as usize;
        }
        let timed = simulate(r.threads(), &w.train_args, w.init, &machine).unwrap();
        assert_eq!(timed.return_value, functional.return_value, "{}", w.benchmark);
        assert_eq!(timed.output, functional.output, "{}", w.benchmark);
        // Instruction counts agree too (issue == execute in both).
        let fi: u64 = functional
            .per_thread
            .iter()
            .map(gmt_ir::interp::DynCounts::total)
            .sum();
        let ti: u64 = timed.cores.iter().map(gmt_sim::CoreStats::total_instrs).sum();
        assert_eq!(fi, ti, "{}", w.benchmark);
    }
}

/// COCO is deterministic: same inputs, same plan (reproducibility).
#[test]
fn coco_is_deterministic() {
    let w = gmt_workloads::by_benchmark("ks").unwrap();
    let train = w.run_train().unwrap();
    let pdg = Pdg::build(&w.function);
    let partition = gmt_sched::gremio::partition(
        &w.function,
        &pdg,
        &train.profile,
        &gmt_sched::gremio::GremioConfig::default(),
    ).unwrap();
    let (p1, s1) = gmt_core::optimize(
        &w.function,
        &pdg,
        &partition,
        &train.profile,
        &CocoConfig::default(),
    );
    let (p2, s2) = gmt_core::optimize(
        &w.function,
        &pdg,
        &partition,
        &train.profile,
        &CocoConfig::default(),
    );
    assert_eq!(s1, s2);
    assert_eq!(format!("{p1:?}"), format!("{p2:?}"));
}

/// Algorithm 2 converges in few iterations on real kernels (the paper
/// argues quasi-topological pair order keeps iteration count low).
#[test]
fn coco_converges_quickly() {
    for w in catalog() {
        let train = w.run_train().unwrap();
        let pdg = Pdg::build(&w.function);
        let partition = gmt_sched::dswp::partition(
            &w.function,
            &pdg,
            &train.profile,
            &gmt_sched::dswp::DswpConfig::default(),
        ).unwrap();
        let (_, stats) = gmt_core::optimize(
            &w.function,
            &pdg,
            &partition,
            &train.profile,
            &CocoConfig::default(),
        );
        assert!(stats.iterations <= 4, "{}: {} iterations", w.benchmark, stats.iterations);
    }
}

/// COCO on *arbitrary* block partitions of the real kernels — not
/// just the partitions DSWP/GREMIO would pick — preserves semantics
/// and never estimates worse than the baseline plan.
#[test]
fn coco_on_random_block_partitions() {
    let workloads = catalog();
    let gen = ranged(0usize, workloads.len()).zip(full_u64());
    Checker::new("pipeline_invariants::coco_on_random_block_partitions")
        .cases(32)
        .run(&gen, |&(widx, seed)| {
            let w = &workloads[widx % workloads.len()];
            let seq = w.run_train().expect("sequential");
            let pdg = Pdg::build(&w.function);
            let partition = block_partition(&w.function, 2, seed);
            let config = CocoConfig::default();
            let base = gmt_mtcg::baseline_plan(&w.function, &pdg, &partition).unwrap();
            let (plan, _) = gmt_core::optimize(&w.function, &pdg, &partition, &seq.profile, &config);
            prop_assert!(
                plan.dynamic_cost(&w.function, &seq.profile)
                    <= base.dynamic_cost(&w.function, &seq.profile),
                "{}: COCO estimate must not exceed baseline",
                w.benchmark
            );
            let out = gmt_mtcg::generate_with_plan(&w.function, &pdg, &partition, plan).expect("codegen");
            let mt = run_mt(
                &out.threads,
                &w.train_args,
                w.init,
                &QueueConfig { num_queues: out.num_queues.max(1) as usize, capacity: 32 },
                &exec_config(),
            )
            .expect("mt run");
            prop_assert_eq!(mt.return_value, seq.return_value, "{}", w.benchmark);
            prop_assert_eq!(&mt.output, &seq.output, "{}", w.benchmark);
            Ok(())
        });
}

/// The paper's conclusion claim: with more threads, the communication
/// fraction grows — and COCO's absolute savings do not shrink.
#[test]
fn more_threads_more_communication() {
    for bench in ["ks", "adpcmdec", "458.sjeng"] {
        let w = gmt_workloads::by_benchmark(bench).unwrap();
        let points = gmt_harness::coco_study(&w, gmt_harness::SchedulerKind::Dswp, &[2, 4])
            .expect("thread scaling");
        assert_eq!(points.len(), 2);
        assert!(
            points[1].comm_fraction_pct() >= points[0].comm_fraction_pct() * 0.8,
            "{bench}: comm fraction should not collapse with more threads: {points:?}"
        );
        for p in &points {
            assert!(p.coco <= p.mtcg.comm_total(), "{bench}: {points:?}");
        }
    }
}
