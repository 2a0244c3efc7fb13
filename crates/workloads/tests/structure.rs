//! Structural self-checks: each kernel must actually carry the
//! features its documentation claims to mirror from the original
//! benchmark — those features are what make the reproduction's
//! partitioning and communication behavior meaningful.

use gmt_ir::{BinOp, Dominators, Function, LoopForest, Op};
use gmt_pdg::{DepKind, Pdg};
use gmt_workloads::by_benchmark;

fn loops_of(f: &Function) -> LoopForest {
    let dom = Dominators::compute(f);
    LoopForest::compute(f, &dom)
}

fn has_hammock(f: &Function) -> bool {
    // A conditional branch whose arms rejoin (neither arm is a loop
    // back edge): detect a branch with two successors that both reach a
    // common block without revisiting the branch block... simplified:
    // any block with two successors each having exactly one predecessor
    // and one successor in common.
    f.blocks().any(|b| {
        let succs = f.successors(b);
        if succs.len() != 2 {
            return false;
        }
        let s0 = f.successors(succs[0]);
        let s1 = f.successors(succs[1]);
        s0.len() == 1 && s1.len() == 1 && s0[0] == s1[0]
    })
}

#[test]
fn adpcm_kernels_have_recurrences_and_sign_hammock() {
    for bench in ["adpcmdec", "adpcmenc"] {
        let w = by_benchmark(bench).unwrap();
        let pdg = Pdg::build(&w.function);
        // Loop-carried register recurrences (valpred, index).
        let carried_regs = pdg
            .deps()
            .iter()
            .filter(|d| d.loop_carried && matches!(d.kind, DepKind::Register(_)))
            .count();
        assert!(carried_regs >= 2, "{bench}: {carried_regs}");
        assert!(has_hammock(&w.function), "{bench}: sign hammock missing");
    }
}

#[test]
fn ks_has_the_figure4_liveout_shape() {
    let w = by_benchmark("ks").unwrap();
    let loops = loops_of(&w.function);
    // Nested structure: pass loop containing two inner loops.
    assert!(loops.loops.iter().any(|l| l.depth == 2), "inner loops");
    let inner_count = loops.loops.iter().filter(|l| l.depth == 2).count();
    assert!(inner_count >= 2, "scan and update loops: {inner_count}");
    // A register defined in an inner loop and used outside it (the
    // live-out maxgp/maxi pattern).
    let pdg = Pdg::build(&w.function);
    let f = &w.function;
    let liveout = pdg.deps().iter().any(|d| {
        if !matches!(d.kind, DepKind::Register(_)) {
            return false;
        }
        let (sb, db) = (f.block_of(d.src), f.block_of(d.dst));
        loops.depth_of(sb) == 2 && loops.depth_of(db) < 2
    });
    assert!(liveout, "inner-loop live-out consumed outside");
}

#[test]
fn mpeg2_has_early_exit_and_redefining_abs_hammock() {
    let w = by_benchmark("mpeg2enc").unwrap();
    let f = &w.function;
    assert!(has_hammock(f), "abs hammock");
    // A register redefined inside a hammock arm (the `if (v<0) v=-v`
    // pattern): some register with defs in a block whose single
    // successor is a join.
    let redef_in_arm = f.blocks().any(|b| {
        let succs = f.successors(b);
        succs.len() == 1
            && f.predecessors()[b.index()].len() == 1
            && f.block(b).instrs.iter().any(|&i| {
                matches!(f.instr(i), Op::Un(gmt_ir::UnOp::Mov, ..))
            })
    });
    assert!(redef_in_arm, "redefinition in the arm");
    // Triple-nested loops (block, row, pixel).
    let loops = loops_of(f);
    assert!(loops.loops.iter().any(|l| l.depth >= 3), "16x16-in-blocks nest");
}

#[test]
fn mcf_is_a_memory_recurrence() {
    let w = by_benchmark("181.mcf").unwrap();
    let pdg = Pdg::build(&w.function);
    // potential[] store feeds later potential[] loads: loop memory deps.
    let mem_carried = pdg
        .deps()
        .iter()
        .any(|d| d.kind == DepKind::Memory && d.loop_carried);
    assert!(mem_carried, "pointer-chase store→load recurrence");
}

#[test]
fn equake_has_symmetric_scatter_memory_deps() {
    let w = by_benchmark("183.equake").unwrap();
    let pdg = Pdg::build(&w.function);
    let mem = pdg.deps().iter().filter(|d| d.kind == DepKind::Memory).count();
    assert!(mem >= 2, "w[] read-modify-write scatter: {mem}");
    // FP-classified arithmetic.
    let fp = w
        .function
        .all_instrs()
        .filter(|&i| matches!(w.function.instr(i), Op::Bin(b, ..) if b.is_float_class()))
        .count();
    assert!(fp >= 3, "{fp}");
}

#[test]
fn ammp_has_cutoff_hammock_and_fp_tail() {
    let w = by_benchmark("188.ammp").unwrap();
    let f = &w.function;
    let fp = f
        .all_instrs()
        .filter(|&i| matches!(f.instr(i), Op::Bin(b, ..) if b.is_float_class()))
        .count();
    assert!(fp >= 5, "LJ-style FP tail: {fp}");
    // The cutoff test guards the FP tail: FP ops live in a block
    // control-dependent on a branch.
    let pdom = gmt_ir::PostDominators::compute(f);
    let cd = gmt_ir::ControlDeps::compute(f, &pdom);
    let guarded_fp = f.all_instrs().any(|i| {
        matches!(f.instr(i), Op::Bin(b, ..) if b.is_float_class())
            && !cd.of_block(f.block_of(i)).is_empty()
    });
    assert!(guarded_fp);
}

#[test]
fn twolf_is_branch_dense() {
    let w = by_benchmark("300.twolf").unwrap();
    let f = &w.function;
    let branches = f
        .all_instrs()
        .filter(|&i| f.instr(i).is_branch())
        .count();
    assert!(branches >= 4, "direction + boundary hammocks: {branches}");
}

#[test]
fn gromacs_working_set_spans_the_l2_cliff() {
    let w = by_benchmark("435.gromacs").unwrap();
    let cells: u64 = w.function.objects().iter().map(|o| o.size).sum();
    let bytes = cells * 8;
    let l2 = 256 * 1024;
    assert!(bytes > l2, "total working set must overflow one L2: {bytes}");
    // Coordinate-side (jlist+pos) and force-side (ftab+force) halves
    // each fit one L2.
    let objs = w.function.objects();
    let coord = (objs[0].size + objs[1].size) * 8;
    let force = (objs[2].size + objs[3].size) * 8;
    assert!(coord <= l2, "{coord}");
    assert!(force <= l2, "{force}");
}

#[test]
fn sjeng_has_a_piece_dispatch() {
    let w = by_benchmark("458.sjeng").unwrap();
    let f = &w.function;
    // A chain of Eq comparisons feeding branches (the switch stand-in).
    let eqs = f
        .all_instrs()
        .filter(|&i| matches!(f.instr(i), Op::Bin(BinOp::Eq, ..)))
        .count();
    assert!(eqs >= 2, "{eqs}");
    let loops = loops_of(f);
    assert!(loops.loops.iter().any(|l| l.depth == 2), "square loop in eval loop");
}

#[test]
fn mesa_ztest_reads_what_the_loop_writes() {
    let w = by_benchmark("177.mesa").unwrap();
    let pdg = Pdg::build(&w.function);
    let f = &w.function;
    // A load of the depth buffer depends on a store to it (z-test).
    let store_to_load = pdg.deps().iter().any(|d| {
        d.kind == DepKind::Memory
            && matches!(f.instr(d.src), Op::Store(..))
            && f.instr(d.dst).is_mem_read()
    });
    assert!(store_to_load);
}

#[test]
fn train_inputs_are_representative() {
    // Train and ref must exercise the same paths (every block with
    // nonzero ref weight has nonzero train weight), otherwise the
    // profile-driven placement would be flying blind.
    for w in gmt_workloads::catalog() {
        let train = w.run_train().unwrap();
        let reference = w.run_ref().unwrap();
        let tw = train.profile.block_weights(&w.function);
        let rw = reference.profile.block_weights(&w.function);
        for b in w.function.blocks() {
            if rw[b.index()] > 0 {
                assert!(
                    tw[b.index()] > 0,
                    "{}: block {b:?} cold in train but hot in ref",
                    w.benchmark
                );
            }
        }
    }
}
