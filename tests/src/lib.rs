//! Shared helpers for the cross-crate integration tests: a structured
//! random-program generator whose output always terminates, plus
//! compilation of the generated AST to `gmt-ir`.
//!
//! The generator produces *structured* programs (nested fixed-trip
//! loops and if/else over a small register pool and a small memory
//! object), which guarantees termination and verifiability while still
//! exercising every CFG shape the scheduling stack must handle:
//! hammocks, nests, loop-carried recurrences, and memory dependences.

use gmt_ir::{BinOp, Function, FunctionBuilder, Reg};
use gmt_testkit::{one_of, recursive, vec_of, Gen, Shrink};
use std::path::{Path, PathBuf};

/// Number of mutable program registers in the pool.
pub const REG_POOL: u32 = 6;
/// Cells in the single memory object.
pub const MEM_CELLS: u64 = 16;

/// A structured statement.
#[derive(Clone, Debug)]
pub enum Stmt {
    /// `pool[dst] = pool[a] <op> pool[b]`.
    Bin(u8, BinOp, u8, u8),
    /// `pool[dst] = imm`.
    Const(u8, i8),
    /// `pool[dst] = mem[pool[idx] & 15]`.
    Load(u8, u8),
    /// `mem[pool[idx] & 15] = pool[src]`.
    Store(u8, u8),
    /// `output pool[src]`.
    Output(u8),
    /// `if pool[c] != 0 { .. } else { .. }`.
    If(u8, Vec<Stmt>, Vec<Stmt>),
    /// Fixed-trip loop (1..=4 iterations) over the body.
    Loop(u8, Vec<Stmt>),
    /// `affmem[loopvar + (off & 7)] = pool[src]` — an *affine* store
    /// through the innermost loop counter (index 0 at top level),
    /// exercising the loop-aware memory disambiguation.
    StoreAffine(u8, u8),
    /// `pool[dst] = affmem[loopvar + (off & 7)]` — affine load.
    LoadAffine(u8, u8),
}

/// Any byte (indices, sources, trip counts).
fn byte() -> Gen<u8> {
    Gen::new(|rng| rng.next_u64() as u8)
}

/// Every [`BinOp`] the generator may emit.
pub fn bin_op_gen() -> Gen<BinOp> {
    one_of(
        [
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::And,
            BinOp::Or,
            BinOp::Xor,
            BinOp::Lt,
            BinOp::Eq,
            BinOp::Min,
            BinOp::Max,
            BinOp::Div,
            BinOp::Shr,
        ]
        .into_iter()
        .map(Gen::just)
        .collect(),
    )
}

/// A statement tree of bounded depth, covering every CFG shape the
/// scheduling stack must handle.
pub fn stmt_gen() -> Gen<Stmt> {
    let leaf = one_of(vec![
        byte()
            .zip(bin_op_gen())
            .zip(byte())
            .zip(byte())
            .map(|(((d, op), a), b)| Stmt::Bin(d, op, a, b)),
        byte().zip(Gen::new(|rng| rng.next_u64() as i8)).map(|(d, v)| Stmt::Const(d, v)),
        byte().zip(byte()).map(|(d, i)| Stmt::Load(d, i)),
        byte().zip(byte()).map(|(s, i)| Stmt::Store(s, i)),
        byte().zip(byte()).map(|(s, o)| Stmt::StoreAffine(s, o)),
        byte().zip(byte()).map(|(d, o)| Stmt::LoadAffine(d, o)),
        byte().map(Stmt::Output),
    ]);
    recursive(3, leaf, |inner| {
        one_of(vec![
            byte()
                .zip(vec_of(inner.clone(), 0, 4))
                .zip(vec_of(inner.clone(), 0, 4))
                .map(|((c, t), e)| Stmt::If(c, t, e)),
            byte().zip(vec_of(inner, 1, 4)).map(|(n, b)| Stmt::Loop(n, b)),
        ])
    })
}

/// A whole random program: 1–7 top-level statements.
pub fn program_gen() -> Gen<Vec<Stmt>> {
    vec_of(stmt_gen(), 1, 8)
}

impl Shrink for Stmt {
    fn shrinks(&self) -> Vec<Stmt> {
        match self {
            Stmt::Bin(d, op, a, b) => {
                let mut out: Vec<Stmt> =
                    (*d, *a, *b).shrinks().into_iter().map(|(d, a, b)| Stmt::Bin(d, *op, a, b)).collect();
                if *op != BinOp::Add {
                    out.insert(0, Stmt::Bin(*d, BinOp::Add, *a, *b));
                }
                out
            }
            Stmt::Const(d, v) => {
                (*d, *v).shrinks().into_iter().map(|(d, v)| Stmt::Const(d, v)).collect()
            }
            Stmt::Load(d, i) => (*d, *i).shrinks().into_iter().map(|(d, i)| Stmt::Load(d, i)).collect(),
            Stmt::Store(s, i) => (*s, *i).shrinks().into_iter().map(|(s, i)| Stmt::Store(s, i)).collect(),
            Stmt::StoreAffine(s, o) => {
                (*s, *o).shrinks().into_iter().map(|(s, o)| Stmt::StoreAffine(s, o)).collect()
            }
            Stmt::LoadAffine(d, o) => {
                (*d, *o).shrinks().into_iter().map(|(d, o)| Stmt::LoadAffine(d, o)).collect()
            }
            Stmt::Output(s) => s.shrinks().into_iter().map(Stmt::Output).collect(),
            Stmt::If(c, t, e) => {
                // Recurse on the statement lists, and offer each child
                // statement as a whole-node replacement.
                let mut out: Vec<Stmt> = t.iter().chain(e).cloned().collect();
                out.extend(t.shrinks().into_iter().map(|t| Stmt::If(*c, t, e.clone())));
                out.extend(e.shrinks().into_iter().map(|e| Stmt::If(*c, t.clone(), e)));
                out.extend(c.shrinks().into_iter().map(|c| Stmt::If(c, t.clone(), e.clone())));
                out
            }
            Stmt::Loop(n, b) => {
                let mut out: Vec<Stmt> = b.to_vec();
                out.extend(b.shrinks().into_iter().filter(|b| !b.is_empty()).map(|b| Stmt::Loop(*n, b)));
                out.extend(n.shrinks().into_iter().map(|n| Stmt::Loop(n, b.clone())));
                out
            }
        }
    }
}

/// Compiles a statement list into a verified, critical-edge-split
/// function that returns `pool[0]` and outputs along the way.
///
/// # Panics
///
/// Panics if the generated function fails verification (a generator
/// bug).
pub fn compile(program: &[Stmt]) -> Function {
    let mut b = FunctionBuilder::new("generated");
    let obj = b.object("mem", MEM_CELLS);
    let aff = b.object("affmem", MEM_CELLS);
    let pool: Vec<Reg> = (0..REG_POOL).map(|_| b.fresh_reg()).collect();
    for (k, &r) in pool.iter().enumerate() {
        b.const_into(r, k as i64 + 1);
    }
    let base = b.lea(obj, 0);
    let aff_base = b.lea(aff, 0);
    let mut env = Env { pool: pool.clone(), base, aff_base, counters: Vec::new() };
    emit_block(&mut b, program, &mut env);
    b.ret(Some(pool[0].into()));
    let mut f = b.finish_unverified();
    gmt_ir::split_critical_edges(&mut f);
    gmt_ir::verify(&f).expect("generated program verifies");
    f
}

struct Env {
    pool: Vec<Reg>,
    base: Reg,
    aff_base: Reg,
    /// Stack of live loop-counter registers (innermost last).
    counters: Vec<Reg>,
}

fn emit_block(b: &mut FunctionBuilder, stmts: &[Stmt], env: &mut Env) {
    for s in stmts {
        emit_stmt(b, s, env);
    }
}

fn emit_stmt(b: &mut FunctionBuilder, s: &Stmt, env: &mut Env) {
    let pool = env.pool.clone();
    let base = env.base;
    let p = |k: u8| pool[k as usize % pool.len()];
    match s {
        Stmt::Bin(d, op, x, y) => {
            b.bin_into(*op, p(*d), p(*x), p(*y));
        }
        Stmt::Const(d, v) => {
            b.const_into(p(*d), i64::from(*v));
        }
        Stmt::Load(d, idx) => {
            let masked = b.bin(BinOp::And, p(*idx), (MEM_CELLS - 1) as i64);
            let addr = b.bin(BinOp::Add, base, masked);
            b.load_into(p(*d), addr, 0);
        }
        Stmt::Store(src, idx) => {
            let masked = b.bin(BinOp::And, p(*idx), (MEM_CELLS - 1) as i64);
            let addr = b.bin(BinOp::Add, base, masked);
            b.store(addr, 0, p(*src));
        }
        Stmt::Output(src) => {
            b.output(p(*src));
        }
        Stmt::If(c, then_s, else_s) => {
            let then_bb = b.block("then");
            let else_bb = b.block("else");
            let join = b.block("join");
            b.branch(p(*c), then_bb, else_bb);
            b.switch_to(then_bb);
            emit_block(b, then_s, env);
            b.jump(join);
            b.switch_to(else_bb);
            emit_block(b, else_s, env);
            b.jump(join);
            b.switch_to(join);
        }
        Stmt::Loop(trips, body) => {
            let trips = i64::from(*trips % 4 + 1);
            let counter = b.fresh_reg();
            let header = b.block("loop_h");
            let body_bb = b.block("loop_b");
            let exit = b.block("loop_x");
            b.const_into(counter, 0);
            b.jump(header);
            b.switch_to(header);
            let c = b.bin(BinOp::Lt, counter, trips);
            b.branch(c, body_bb, exit);
            b.switch_to(body_bb);
            env.counters.push(counter);
            emit_block(b, body, env);
            env.counters.pop();
            b.bin_into(BinOp::Add, counter, counter, 1i64);
            b.jump(header);
            b.switch_to(exit);
        }
        Stmt::StoreAffine(src, off) => {
            let addr = affine_addr(b, env, *off);
            b.store(addr, 0, p(*src));
        }
        Stmt::LoadAffine(dst, off) => {
            let addr = affine_addr(b, env, *off);
            b.load_into(p(*dst), addr, 0);
        }
    }
}

/// `aff_base + innermost-counter + (off & 7)` — within bounds since
/// trip counts are at most 4 and `MEM_CELLS` is 16.
fn affine_addr(b: &mut FunctionBuilder, env: &Env, off: u8) -> Reg {
    let disp = i64::from(off & 7);
    match env.counters.last() {
        Some(&c) => {
            let t = b.bin(BinOp::Add, env.aff_base, c);
            b.bin(BinOp::Add, t, disp)
        }
        None => b.bin(BinOp::Add, env.aff_base, disp),
    }
}

/// A deterministic pseudo-random partition: instruction `k` goes to
/// thread `hash(seed, k) % n`.
pub fn seeded_partition(f: &Function, n: u32, seed: u64) -> gmt_pdg::Partition {
    let mut p = gmt_pdg::Partition::new(n);
    for (k, i) in f.all_instrs().enumerate() {
        let mut h = seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        p.assign(i, gmt_pdg::ThreadId((h % u64::from(n)) as u32));
    }
    p
}

/// FNV-1a over `(instruction id, thread)` in layout order: equal
/// exactly when every instruction sits on the same thread. The
/// partition goldens pin it.
pub fn structural_hash(f: &Function, p: &gmt_pdg::Partition) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u32| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    mix(p.num_threads());
    for i in f.all_instrs() {
        mix(i.0);
        mix(p.thread_of(i).0);
    }
    h
}

/// A partition assigning whole blocks to threads by seed.
pub fn block_partition(f: &Function, n: u32, seed: u64) -> gmt_pdg::Partition {
    let mut p = gmt_pdg::Partition::new(n);
    for blk in f.blocks() {
        let mut h = (seed ^ u64::from(blk.0)).wrapping_mul(0x2545_F491_4F6C_DD1D);
        h ^= h >> 29;
        let t = gmt_pdg::ThreadId((h % u64::from(n)) as u32);
        for i in f.block(blk).all_instrs() {
            p.assign(i, t);
        }
    }
    p
}

/// Sums `count` over the text of every `.rs` file at or below `path`,
/// leaving out the files and directories in `exempt` — the walk the
/// source-scanning gates (`panic_budget.rs`, `analysis_sites.rs`)
/// share.
///
/// # Panics
///
/// Panics if a directory or source file cannot be read.
pub fn count_in_sources(path: &Path, exempt: &[PathBuf], count: &dyn Fn(&str) -> usize) -> usize {
    if exempt.iter().any(|e| e == path) {
        0
    } else if path.is_dir() {
        std::fs::read_dir(path)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()))
            .map(|entry| count_in_sources(&entry.expect("directory entry").path(), exempt, count))
            .sum()
    } else if path.extension().is_some_and(|e| e == "rs") {
        count(&std::fs::read_to_string(path).expect("source file"))
    } else {
        0
    }
}
