//! Unit-level tests of COCO's building blocks: thread-aware liveness
//! maps, `G_f` construction, safety-driven infinite arcs, and the
//! §3.1.2 penalties, on hand-built CFGs where the expected graphs are
//! known exactly.

use gmt_core::{BlockTables, GfBuilder, LiveTable, Pos, PosGraph, Safety};
use gmt_ir::{BinOp, Function, FunctionBuilder, InstrId, Liveness, Profile, Reg};
use gmt_mtcg::CommPoint;
use gmt_pdg::{Partition, Pdg, ThreadId};
use std::collections::BTreeSet;

/// entry: r1 = x+1 (T0) ; use: output r1 (T1) ; ret (T0).
fn straight() -> (Function, Partition, Reg, InstrId, InstrId) {
    let mut b = FunctionBuilder::new("s");
    let x = b.param();
    let r1 = b.bin(BinOp::Add, x, 1i64);
    b.output(r1);
    b.ret(None);
    let f = b.finish().unwrap();
    let instrs: Vec<_> = f.all_instrs().collect();
    let mut p = Partition::new(2);
    p.assign(instrs[0], ThreadId(0));
    p.assign(instrs[1], ThreadId(1));
    p.assign(instrs[2], ThreadId(0));
    (f, p, r1, instrs[0], instrs[1])
}

fn pos_graph(f: &Function) -> PosGraph {
    let profile = Profile::uniform(f, 10);
    PosGraph::build(f, &profile, &profile.block_weights(f))
}

/// The live ranges of every register counting only the uses
/// `counts_as_use` accepts.
fn live_table(f: &Function, g: &PosGraph, counts_as_use: impl Fn(InstrId) -> bool) -> LiveTable {
    LiveTable::build(f, g, &Liveness::compute_filtered(f, &counts_as_use), &counts_as_use)
}

/// Whether `live` has `r` live at `p`.
fn covers(live: &LiveTable, g: &PosGraph, r: Reg, p: Pos) -> bool {
    live.covers(r, g.index_of(p).expect("a position of the function"))
}

#[test]
fn livemap_tracks_def_to_use() {
    let (f, p, r1, def, usei) = straight();
    let g = pos_graph(&f);
    let live = live_table(&f, &g, |i| p.thread_of(i) == ThreadId(1));
    let ret = f.block(f.entry()).terminator.unwrap();
    assert!(!covers(&live, &g, r1, Pos::Entry(f.entry())), "not live before its def");
    assert!(covers(&live, &g, r1, Pos::At(def)), "live after the def");
    assert!(covers(&live, &g, r1, Pos::At(usei)), "live before the use");
    assert!(!covers(&live, &g, r1, Pos::At(ret)), "dead after the last use");
}

#[test]
fn livemap_ignores_filtered_uses() {
    let (f, _p, r1, def, usei) = straight();
    let g = pos_graph(&f);
    // No instruction counts as a use: r1 never live.
    let live = live_table(&f, &g, |_| false);
    assert!(!covers(&live, &g, r1, Pos::At(def)));
    assert!(!covers(&live, &g, r1, Pos::At(usei)));
}

/// The position graph of `f` and each thread's block tables under the
/// relevant branches of the empty plan.
fn builder_parts(f: &Function, p: &Partition) -> (PosGraph, Vec<BlockTables>) {
    let profile = Profile::uniform(f, 10);
    let block_weights = profile.block_weights(f);
    let pdg = Pdg::build(f);
    let relevant: Vec<BTreeSet<InstrId>> =
        gmt_mtcg::relevant_branches(f, pdg.control_deps(), p, &gmt_mtcg::CommPlan::new(2));
    let tables = relevant
        .iter()
        .map(|r| BlockTables::build(f, pdg.control_deps(), r, &block_weights, true))
        .collect();
    (PosGraph::build(f, &profile, &block_weights), tables)
}

/// The builder for communication from thread `s` to thread `t`.
fn pair_builder<'a>(g: &'a PosGraph, tables: &'a [BlockTables], s: usize, t: usize) -> GfBuilder<'a> {
    GfBuilder { pos_graph: g, src_ok: &tables[s].src_ok, penalty: &tables[t].penalty }
}

#[test]
fn register_gf_min_cut_is_the_single_link() {
    let (f, p, r1, def, usei) = straight();
    let (g, tables) = builder_parts(&f, &p);
    let builder = pair_builder(&g, &tables, 0, 1);
    let safety = Safety::compute(&f, &p, ThreadId(0));
    let live = live_table(&f, &g, |i| p.thread_of(i) == ThreadId(1));
    let points =
        builder.optimize_register(r1, &safety, &live, &[def], &[usei]).expect("feasible");
    assert_eq!(points.len(), 1);
    assert_eq!(points.into_iter().next(), Some(CommPoint::After(def)));
}

#[test]
fn register_gf_respects_safety_kill() {
    // r1 def (T0), then T1 redefines r1, then a T1 use: communication
    // after T1's redefinition is unsafe, so the only cut is before it.
    let mut b = FunctionBuilder::new("k");
    let x = b.param();
    let r1 = b.fresh_reg();
    b.bin_into(BinOp::Add, r1, x, 1i64); // i0: T0 def
    b.bin_into(BinOp::Mul, r1, r1, 2i64); // i1: T1 redefines (consumes)
    b.output(r1); // i2: T1 use
    b.ret(None); // i3
    let f = b.finish().unwrap();
    let instrs: Vec<_> = f.all_instrs().collect();
    let mut p = Partition::new(2);
    p.assign(instrs[0], ThreadId(0));
    p.assign(instrs[1], ThreadId(1));
    p.assign(instrs[2], ThreadId(1));
    p.assign(instrs[3], ThreadId(0));
    let (g, tables) = builder_parts(&f, &p);
    let builder = pair_builder(&g, &tables, 0, 1);
    let safety = Safety::compute(&f, &p, ThreadId(0));
    assert!(safety.safe_after(instrs[0], r1));
    assert!(!safety.safe_after(instrs[1], r1), "stale after T1's redef");
    let live = live_table(&f, &g, |i| p.thread_of(i) == ThreadId(1));
    let points = builder
        .optimize_register(r1, &safety, &live, &[instrs[0]], &[instrs[1]])
        .expect("feasible");
    assert_eq!(points.into_iter().next(), Some(CommPoint::After(instrs[0])));
}

#[test]
fn register_gf_none_when_no_defs_in_source() {
    let (f, p, r1, _def, usei) = straight();
    let (g, tables) = builder_parts(&f, &p);
    let builder = pair_builder(&g, &tables, 1, 0); // wrong direction: T1 has no defs of r1
    let safety = Safety::compute(&f, &p, ThreadId(1));
    let live = live_table(&f, &g, |i| p.thread_of(i) == ThreadId(0));
    assert!(builder.optimize_register(r1, &safety, &live, &[], &[usei]).is_none());
}

#[test]
fn memory_gf_covers_whole_function() {
    let (f, p, _r1, def, usei) = straight();
    let (g, tables) = builder_parts(&f, &p);
    let builder = pair_builder(&g, &tables, 0, 1);
    let (gf, commodities) = builder.build_memory(&[(def, usei)]);
    assert_eq!(commodities.len(), 1);
    // Every position of the function is a node: entry + 3 instrs.
    assert_eq!(gf.net.node_count(), 4);
    let cut = gf.net.min_cut(commodities[0].source, commodities[0].sink);
    assert!(cut.is_feasible());
    assert_eq!(gf.cut_points(&cut).len(), 1);
}
