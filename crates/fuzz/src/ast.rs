//! The repository's one program grammar: a statement AST, its
//! [`Gen`]erators, [`Shrink`] candidates, compilation to verified
//! `gmt-ir`, and the seeded instruction partition. The fuzzer's cases
//! and every generated-program property test (the integration tests and
//! the crate-level reference oracles of `gmt-sched`, `gmt-mtcg` and
//! `gmt-core`, through a dev-dependency) draw from it.
//!
//! Every program terminates by construction (all loops have static
//! trip counts), every memory access is masked in bounds, and the
//! compiled function always passes `gmt_ir::verify` — so any failure
//! downstream is a pipeline bug, not a generator artifact. Besides
//! hammocks, fixed-trip nests and register/memory recurrences, the
//! grammar generates:
//!
//! - **multiple arrays** with may-alias index patterns (`arr[k]`
//!   random-indexed, fixed-cell, and affine accesses over the same
//!   three objects), plus a **select-pointer** diamond that gives one
//!   address register a two-object points-to set;
//! - **zero-trip loops** (`Loop` trip counts include 0: the body block
//!   becomes statically dead code with profile weight 0);
//! - **bottom-tested loops** (`DoWhile`) whose empty-body form compiles
//!   to a single self-looping block (a critical self-edge the
//!   normalizer must split);
//! - **profile-skewed branches** (`If` conditions of the form
//!   `(reg & 7) < k`, so arm probabilities range from never to always);
//! - **dead registers** (`Dead` defines a fresh register no one reads)
//!   and empty `If` arms / empty loop bodies (empty blocks after
//!   compilation).

use gmt_ir::{BinOp, Function, FunctionBuilder, Reg};
use gmt_testkit::{one_of, ranged, recursive, vec_of, weighted, Gen, Shrink, TestRng};

/// Number of mutable program registers in the pool.
pub const REG_POOL: u32 = 6;
/// Cells in each memory array.
pub const MEM_CELLS: u64 = 16;
/// Number of plain arrays (`SelectPtr`/`Load`/`Store` address these).
pub const NUM_ARRAYS: u8 = 3;

/// A structured statement of the fuzz grammar.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FStmt {
    /// `pool[dst] = pool[a] <op> pool[b]` — loop-carried register
    /// recurrences when it appears inside a loop body.
    Bin(u8, BinOp, u8, u8),
    /// `pool[dst] = imm`.
    Const(u8, i8),
    /// `pool[dst] = arr[a][pool[idx] & 15]`.
    Load(u8, u8, u8),
    /// `arr[a][pool[idx] & 15] = pool[src]`.
    Store(u8, u8, u8),
    /// `pool[dst] = arr[a][off & 15]` — a fixed cell, so a load/store
    /// pair at the same cell inside a loop is a memory recurrence.
    LoadAt(u8, u8, u8),
    /// `arr[a][off & 15] = pool[src]`.
    StoreAt(u8, u8, u8),
    /// `pool[dst] = arr[a][loopvar + (off & 7)]` — affine load through
    /// the innermost loop counter (offset-only at top level).
    LoadAffine(u8, u8, u8),
    /// `arr[a][loopvar + (off & 7)] = pool[src]` — affine store.
    StoreAffine(u8, u8, u8),
    /// `ptr = pool[c] != 0 ? &arr[a] : &arr[b]` — a diamond that gives
    /// the dedicated pointer register a two-object points-to set.
    SelectPtr(u8, u8, u8),
    /// `pool[dst] = ptr[pool[idx] & 15]` — a may-alias load through the
    /// selected pointer.
    LoadPtr(u8, u8),
    /// `ptr[pool[idx] & 15] = pool[src]`.
    StorePtr(u8, u8),
    /// `output pool[src]`.
    Output(u8),
    /// A fresh register defined to `imm` and never read (dead code).
    Dead(i8),
    /// `if (pool[c] & 7) < (skew % 9) { .. } else { .. }` — arm
    /// probability skews from 0/8 to 8/8; either arm may be empty.
    If(u8, u8, Vec<FStmt>, Vec<FStmt>),
    /// Top-tested loop of `trips % 5` iterations — **zero-trip
    /// possible** (the body is then dead code); the body may be empty.
    Loop(u8, Vec<FStmt>),
    /// Bottom-tested loop of `trips % 4 + 1` iterations; with an empty
    /// body it compiles to one self-looping block.
    DoWhile(u8, Vec<FStmt>),
}

/// Any byte (indices, sources, trip counts, skews).
fn byte() -> Gen<u8> {
    Gen::new(|rng| rng.next_u64() as u8)
}

/// Every [`BinOp`] the generator emits, including the float-class ops
/// (integer semantics, but distinct FU class and latency in the timed
/// model).
pub fn bin_op_gen() -> Gen<BinOp> {
    one_of(
        [
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::Div,
            BinOp::Rem,
            BinOp::And,
            BinOp::Or,
            BinOp::Xor,
            BinOp::Shl,
            BinOp::Shr,
            BinOp::Lt,
            BinOp::Le,
            BinOp::Eq,
            BinOp::Ne,
            BinOp::Min,
            BinOp::Max,
            BinOp::FAdd,
            BinOp::FMul,
        ]
        .into_iter()
        .map(Gen::just)
        .collect(),
    )
}

/// A statement tree of bounded depth covering the full grammar.
pub fn fstmt_gen() -> Gen<FStmt> {
    let imm = Gen::new(|rng: &mut TestRng| rng.next_u64() as i8);
    let leaf = weighted(vec![
        (
            3,
            byte()
                .zip(bin_op_gen())
                .zip(byte())
                .zip(byte())
                .map(|(((d, op), a), b)| FStmt::Bin(d, op, a, b)),
        ),
        (2, byte().zip(imm.clone()).map(|(d, v)| FStmt::Const(d, v))),
        (2, byte().zip(byte()).zip(byte()).map(|((a, d), i)| FStmt::Load(a, d, i))),
        (2, byte().zip(byte()).zip(byte()).map(|((a, s), i)| FStmt::Store(a, s, i))),
        (1, byte().zip(byte()).zip(byte()).map(|((a, d), o)| FStmt::LoadAt(a, d, o))),
        (1, byte().zip(byte()).zip(byte()).map(|((a, s), o)| FStmt::StoreAt(a, s, o))),
        (1, byte().zip(byte()).zip(byte()).map(|((a, d), o)| FStmt::LoadAffine(a, d, o))),
        (1, byte().zip(byte()).zip(byte()).map(|((a, s), o)| FStmt::StoreAffine(a, s, o))),
        (1, byte().zip(byte()).zip(byte()).map(|((c, a), b)| FStmt::SelectPtr(c, a, b))),
        (1, byte().zip(byte()).map(|(d, i)| FStmt::LoadPtr(d, i))),
        (1, byte().zip(byte()).map(|(s, i)| FStmt::StorePtr(s, i))),
        (2, byte().map(FStmt::Output)),
        (1, imm.map(FStmt::Dead)),
    ]);
    recursive(3, leaf, |inner| {
        weighted(vec![
            (
                2,
                byte()
                    .zip(byte())
                    .zip(vec_of(inner.clone(), 0, 4))
                    .zip(vec_of(inner.clone(), 0, 4))
                    .map(|(((c, k), t), e)| FStmt::If(c, k, t, e)),
            ),
            (2, byte().zip(vec_of(inner.clone(), 0, 4)).map(|(n, b)| FStmt::Loop(n, b))),
            (1, byte().zip(vec_of(inner, 0, 3)).map(|(n, b)| FStmt::DoWhile(n, b))),
        ])
    })
}

/// A whole random program: 1–9 top-level statements.
pub fn fprogram_gen() -> Gen<Vec<FStmt>> {
    vec_of(fstmt_gen(), 1, 10)
}

/// Which pipeline configuration a fuzz case drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// DSWP partitioner via the `Parallelizer`.
    Dswp,
    /// DSWP + COCO.
    DswpCoco,
    /// GREMIO partitioner via the `Parallelizer`.
    Gremio,
    /// GREMIO + COCO.
    GremioCoco,
    /// A seeded pseudo-random instruction partition, baseline MTCG.
    SeededMtcg,
    /// A seeded pseudo-random partition, COCO-optimized plan.
    SeededCoco,
}

impl Mode {
    /// All modes, in the `mode % 6` encoding order.
    pub const ALL: [Mode; 6] = [
        Mode::Dswp,
        Mode::DswpCoco,
        Mode::Gremio,
        Mode::GremioCoco,
        Mode::SeededMtcg,
        Mode::SeededCoco,
    ];

    /// Decodes a generated byte.
    pub fn from_byte(b: u8) -> Mode {
        Mode::ALL[b as usize % Mode::ALL.len()]
    }

    /// Stable display label.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Dswp => "dswp",
            Mode::DswpCoco => "dswp+coco",
            Mode::Gremio => "gremio",
            Mode::GremioCoco => "gremio+coco",
            Mode::SeededMtcg => "seeded-mtcg",
            Mode::SeededCoco => "seeded-coco",
        }
    }
}

/// One differential fuzz case: a program plus the pipeline
/// configuration the oracle drives it through.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FuzzCase {
    /// The structured program.
    pub program: Vec<FStmt>,
    /// Thread count for the partitioner / seeded partition (2–4).
    pub threads: u32,
    /// Seed of the pseudo-random partition (seeded modes only).
    pub part_seed: u64,
    /// Which pipeline to drive (`Mode::from_byte`).
    pub mode: u8,
}

impl FuzzCase {
    /// The decoded pipeline mode.
    pub fn mode(&self) -> Mode {
        Mode::from_byte(self.mode)
    }
}

/// The generator for whole fuzz cases. One `u64` seed fully determines
/// a case via [`case_from_seed`].
pub fn case_gen() -> Gen<FuzzCase> {
    fprogram_gen()
        .zip(ranged(2u32, 5))
        .zip(gmt_testkit::full_u64())
        .zip(ranged(0u8, 6))
        .map(|(((program, threads), part_seed), mode)| FuzzCase {
            program,
            threads,
            part_seed,
            mode,
        })
}

/// The case a given seed generates — the whole corpus/replay contract:
/// a corpus entry is just this one number.
pub fn case_from_seed(seed: u64) -> FuzzCase {
    case_gen().sample(&mut TestRng::new(seed))
}

impl Shrink for FStmt {
    fn shrinks(&self) -> Vec<FStmt> {
        match self {
            FStmt::Bin(d, op, a, b) => {
                let mut out: Vec<FStmt> = (*d, *a, *b)
                    .shrinks()
                    .into_iter()
                    .map(|(d, a, b)| FStmt::Bin(d, *op, a, b))
                    .collect();
                if *op != BinOp::Add {
                    out.insert(0, FStmt::Bin(*d, BinOp::Add, *a, *b));
                }
                out
            }
            FStmt::Const(d, v) => {
                (*d, *v).shrinks().into_iter().map(|(d, v)| FStmt::Const(d, v)).collect()
            }
            FStmt::Load(a, d, i) => {
                (*a, *d, *i).shrinks().into_iter().map(|(a, d, i)| FStmt::Load(a, d, i)).collect()
            }
            FStmt::Store(a, s, i) => {
                (*a, *s, *i).shrinks().into_iter().map(|(a, s, i)| FStmt::Store(a, s, i)).collect()
            }
            FStmt::LoadAt(a, d, o) => {
                (*a, *d, *o).shrinks().into_iter().map(|(a, d, o)| FStmt::LoadAt(a, d, o)).collect()
            }
            FStmt::StoreAt(a, s, o) => (*a, *s, *o)
                .shrinks()
                .into_iter()
                .map(|(a, s, o)| FStmt::StoreAt(a, s, o))
                .collect(),
            FStmt::LoadAffine(a, d, o) => (*a, *d, *o)
                .shrinks()
                .into_iter()
                .map(|(a, d, o)| FStmt::LoadAffine(a, d, o))
                .collect(),
            FStmt::StoreAffine(a, s, o) => (*a, *s, *o)
                .shrinks()
                .into_iter()
                .map(|(a, s, o)| FStmt::StoreAffine(a, s, o))
                .collect(),
            FStmt::SelectPtr(c, a, b) => (*c, *a, *b)
                .shrinks()
                .into_iter()
                .map(|(c, a, b)| FStmt::SelectPtr(c, a, b))
                .collect(),
            FStmt::LoadPtr(d, i) => {
                (*d, *i).shrinks().into_iter().map(|(d, i)| FStmt::LoadPtr(d, i)).collect()
            }
            FStmt::StorePtr(s, i) => {
                (*s, *i).shrinks().into_iter().map(|(s, i)| FStmt::StorePtr(s, i)).collect()
            }
            FStmt::Output(s) => s.shrinks().into_iter().map(FStmt::Output).collect(),
            FStmt::Dead(v) => v.shrinks().into_iter().map(FStmt::Dead).collect(),
            FStmt::If(c, k, t, e) => {
                // Offer each child as a whole-node replacement, then
                // recurse on the arms and scalars.
                let mut out: Vec<FStmt> = t.iter().chain(e).cloned().collect();
                out.extend(t.shrinks().into_iter().map(|t| FStmt::If(*c, *k, t, e.clone())));
                out.extend(e.shrinks().into_iter().map(|e| FStmt::If(*c, *k, t.clone(), e)));
                out.extend(
                    (*c, *k).shrinks().into_iter().map(|(c, k)| FStmt::If(c, k, t.clone(), e.clone())),
                );
                out
            }
            FStmt::Loop(n, b) => {
                let mut out: Vec<FStmt> = b.to_vec();
                out.extend(b.shrinks().into_iter().map(|b| FStmt::Loop(*n, b)));
                out.extend(n.shrinks().into_iter().map(|n| FStmt::Loop(n, b.clone())));
                out
            }
            FStmt::DoWhile(n, b) => {
                let mut out: Vec<FStmt> = b.to_vec();
                // A DoWhile simplifies to the plainer top-tested loop.
                out.push(FStmt::Loop(*n, b.clone()));
                out.extend(b.shrinks().into_iter().map(|b| FStmt::DoWhile(*n, b)));
                out.extend(n.shrinks().into_iter().map(|n| FStmt::DoWhile(n, b.clone())));
                out
            }
        }
    }
}

impl Shrink for FuzzCase {
    fn shrinks(&self) -> Vec<FuzzCase> {
        let mut out: Vec<FuzzCase> = self
            .program
            .shrinks()
            .into_iter()
            .map(|program| FuzzCase { program, ..self.clone() })
            .collect();
        if self.threads != 2 {
            out.push(FuzzCase { threads: 2, ..self.clone() });
        }
        if self.part_seed != 0 {
            out.push(FuzzCase { part_seed: 0, ..self.clone() });
        }
        for m in self.mode.shrinks() {
            out.push(FuzzCase { mode: m, ..self.clone() });
        }
        out
    }
}

struct Env {
    pool: Vec<Reg>,
    /// Base address registers, one per plain array.
    bases: Vec<Reg>,
    aff_base: Reg,
    /// The dedicated may-alias pointer register (`SelectPtr` target).
    ptr: Reg,
    /// Stack of live loop-counter registers (innermost last).
    counters: Vec<Reg>,
}

/// Compiles a fuzz program into a verified, critical-edge-split
/// function that returns `pool[0]`.
///
/// # Errors
///
/// Returns the verifier's message if the emitted IR fails verification
/// — by construction that is a generator (or verifier) bug, so the
/// oracle reports it as a finding rather than panicking.
pub fn compile(program: &[FStmt]) -> Result<Function, String> {
    let mut b = FunctionBuilder::new("fuzzed");
    let objs: Vec<_> =
        (0..NUM_ARRAYS).map(|k| b.object(format!("arr{k}"), MEM_CELLS)).collect();
    let aff = b.object("affmem", MEM_CELLS);
    let pool: Vec<Reg> = (0..REG_POOL).map(|_| b.fresh_reg()).collect();
    for (k, &r) in pool.iter().enumerate() {
        b.const_into(r, k as i64 + 1);
    }
    let bases: Vec<Reg> = objs.iter().map(|&o| b.lea(o, 0)).collect();
    let aff_base = b.lea(aff, 0);
    let ptr = b.fresh_reg();
    b.mov_into(ptr, bases[0]);
    let mut env = Env { pool: pool.clone(), bases, aff_base, ptr, counters: Vec::new() };
    emit_block(&mut b, program, &mut env);
    b.ret(Some(pool[0].into()));
    let mut f = b.finish_unverified();
    gmt_ir::split_critical_edges(&mut f);
    gmt_ir::verify(&f).map_err(|e| format!("generated program fails verification: {e:?}"))?;
    Ok(f)
}

fn emit_block(b: &mut FunctionBuilder, stmts: &[FStmt], env: &mut Env) {
    for s in stmts {
        emit_stmt(b, s, env);
    }
}

/// `base + (pool[idx] & 15)` for the given base register.
fn masked_addr(b: &mut FunctionBuilder, base: Reg, idx: Reg) -> Reg {
    let masked = b.bin(BinOp::And, idx, (MEM_CELLS - 1) as i64);
    b.bin(BinOp::Add, base, masked)
}

/// `aff_base(arr) + innermost-counter + (off & 7)` — in bounds since
/// trip counts are at most 4 and arrays hold 16 cells.
fn affine_addr(b: &mut FunctionBuilder, env: &Env, arr: u8, off: u8) -> Reg {
    let base = env.bases[arr as usize % env.bases.len()];
    let base = if arr as u64 & 0x80 != 0 { env.aff_base } else { base };
    let disp = i64::from(off & 7);
    match env.counters.last() {
        Some(&c) => {
            let t = b.bin(BinOp::Add, base, c);
            b.bin(BinOp::Add, t, disp)
        }
        None => b.bin(BinOp::Add, base, disp),
    }
}

fn emit_stmt(b: &mut FunctionBuilder, s: &FStmt, env: &mut Env) {
    let pool = env.pool.clone();
    let p = |k: u8| pool[k as usize % pool.len()];
    let arr_base = |env: &Env, a: u8| env.bases[a as usize % env.bases.len()];
    match s {
        FStmt::Bin(d, op, x, y) => {
            b.bin_into(*op, p(*d), p(*x), p(*y));
        }
        FStmt::Const(d, v) => {
            b.const_into(p(*d), i64::from(*v));
        }
        FStmt::Load(a, d, idx) => {
            let addr = masked_addr(b, arr_base(env, *a), p(*idx));
            b.load_into(p(*d), addr, 0);
        }
        FStmt::Store(a, src, idx) => {
            let addr = masked_addr(b, arr_base(env, *a), p(*idx));
            b.store(addr, 0, p(*src));
        }
        FStmt::LoadAt(a, d, off) => {
            let base = arr_base(env, *a);
            b.load_into(p(*d), base, i64::from(*off & 15));
        }
        FStmt::StoreAt(a, src, off) => {
            let base = arr_base(env, *a);
            b.store(base, i64::from(*off & 15), p(*src));
        }
        FStmt::LoadAffine(a, d, off) => {
            let addr = affine_addr(b, env, *a, *off);
            b.load_into(p(*d), addr, 0);
        }
        FStmt::StoreAffine(a, src, off) => {
            let addr = affine_addr(b, env, *a, *off);
            b.store(addr, 0, p(*src));
        }
        FStmt::SelectPtr(c, x, y) => {
            let then_bb = b.block("sel_t");
            let else_bb = b.block("sel_e");
            let join = b.block("sel_j");
            b.branch(p(*c), then_bb, else_bb);
            b.switch_to(then_bb);
            b.mov_into(env.ptr, arr_base(env, *x));
            b.jump(join);
            b.switch_to(else_bb);
            b.mov_into(env.ptr, arr_base(env, *y));
            b.jump(join);
            b.switch_to(join);
        }
        FStmt::LoadPtr(d, idx) => {
            let addr = masked_addr(b, env.ptr, p(*idx));
            b.load_into(p(*d), addr, 0);
        }
        FStmt::StorePtr(src, idx) => {
            let addr = masked_addr(b, env.ptr, p(*idx));
            b.store(addr, 0, p(*src));
        }
        FStmt::Output(src) => {
            b.output(p(*src));
        }
        FStmt::Dead(v) => {
            let r = b.fresh_reg();
            b.const_into(r, i64::from(*v));
        }
        FStmt::If(c, skew, then_s, else_s) => {
            let masked = b.bin(BinOp::And, p(*c), 7i64);
            let cond = b.bin(BinOp::Lt, masked, i64::from(*skew % 9));
            let then_bb = b.block("then");
            let else_bb = b.block("else");
            let join = b.block("join");
            b.branch(cond, then_bb, else_bb);
            b.switch_to(then_bb);
            emit_block(b, then_s, env);
            b.jump(join);
            b.switch_to(else_bb);
            emit_block(b, else_s, env);
            b.jump(join);
            b.switch_to(join);
        }
        FStmt::Loop(trips, body) => {
            let trips = i64::from(*trips % 5); // 0..=4: zero-trip possible
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
        FStmt::DoWhile(trips, body) => {
            let trips = i64::from(*trips % 4 + 1);
            let counter = b.fresh_reg();
            let body_bb = b.block("dw_b");
            let exit = b.block("dw_x");
            b.const_into(counter, 0);
            b.jump(body_bb);
            b.switch_to(body_bb);
            env.counters.push(counter);
            emit_block(b, body, env);
            env.counters.pop();
            b.bin_into(BinOp::Add, counter, counter, 1i64);
            let c = b.bin(BinOp::Lt, counter, trips);
            b.branch(c, body_bb, exit);
            b.switch_to(exit);
        }
    }
}

/// A deterministic pseudo-random instruction-granularity partition:
/// instruction `k` goes to thread `hash(seed, k) % n` (the shape the
/// seeded MTCG modes feed straight to code generation, bypassing the
/// partitioners).
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_programs_compile_and_verify() {
        let gen = fprogram_gen();
        let mut rng = TestRng::new(0xF00D);
        for _ in 0..200 {
            let p = gen.sample(&mut rng);
            compile(&p).expect("every generated program verifies");
        }
    }

    #[test]
    fn degenerate_shapes_compile() {
        for p in [
            vec![FStmt::Loop(0, vec![FStmt::Output(0)])], // zero-trip
            vec![FStmt::DoWhile(1, vec![])],              // self-loop block
            vec![FStmt::If(0, 0, vec![], vec![])],        // empty diamond
            vec![FStmt::Dead(7)],                         // dead register
            vec![FStmt::SelectPtr(1, 0, 1), FStmt::StorePtr(2, 3), FStmt::LoadPtr(1, 3)],
        ] {
            compile(&p).expect("degenerate shape verifies");
        }
    }

    #[test]
    fn zero_trip_loop_body_never_runs() {
        let f = compile(&[FStmt::Loop(0, vec![FStmt::Output(0)])]).unwrap();
        let r = gmt_ir::interp::run(&f, &[], &gmt_ir::interp::ExecConfig::default()).unwrap();
        assert!(r.output.is_empty(), "zero-trip body must not execute");
    }

    #[test]
    fn mode_decode_is_total() {
        for b in 0..=255u8 {
            let _ = Mode::from_byte(b);
        }
        assert_eq!(Mode::from_byte(0), Mode::Dswp);
        assert_eq!(Mode::from_byte(5), Mode::SeededCoco);
    }

    #[test]
    fn case_from_seed_is_deterministic() {
        assert_eq!(case_from_seed(42), case_from_seed(42));
        assert_ne!(case_from_seed(42), case_from_seed(43));
    }

    #[test]
    fn shrinks_stay_compilable() {
        let case = case_from_seed(0xC0FFEE);
        for cand in case.shrinks().into_iter().take(64) {
            compile(&cand.program).expect("shrink candidates verify");
        }
    }
}
