//! Relevant branches (Definition 1) and the baseline MTCG plan
//! (Algorithm 1's placement strategy).

use crate::plan::{CommKind, CommPlan, CommPoint};
use crate::MtcgError;
use gmt_ir::{ControlDeps, Function, InstrId, Op};
use gmt_pdg::{DepKind, Partition, Pdg, ThreadId};
use std::collections::BTreeSet;

/// Computes the set of *relevant branches* of every thread (Definition
/// 1 of the paper), given the current communication placement:
///
/// 1. branches assigned to the thread are relevant;
/// 2. branches controlling the insertion point of a communication
///    involving the thread — or controlling any of the thread's own
///    instructions — are relevant;
/// 3. branches controlling another relevant branch are relevant.
pub fn relevant_branches(
    f: &Function,
    cdeps: &ControlDeps,
    partition: &Partition,
    plan: &CommPlan,
) -> Vec<BTreeSet<InstrId>> {
    let words = cdeps.branches().len().div_ceil(64);
    partition
        .threads()
        .map(|t| {
            let mut relevant = BTreeSet::new();
            // The closure rows of the blocks whose execution condition
            // thread t must reproduce, unioned (rules 2 and 3).
            let mut row = vec![0u64; words];
            let mut need = |b: gmt_ir::BlockId| {
                for (acc, &bits) in row.iter_mut().zip(cdeps.closure_row(b)) {
                    *acc |= bits;
                }
            };
            for i in f.all_instrs() {
                if partition.get(i) == Some(t) {
                    need(f.block_of(i));
                    // Rule 1: an assigned branch is itself relevant.
                    if f.instr(i).is_branch() {
                        relevant.insert(i);
                    }
                }
            }
            for item in plan.items() {
                if item.from == t || item.to == t {
                    for &p in &item.points {
                        need(p.block(f));
                    }
                }
            }
            relevant.extend(cdeps.branches_in(&row));
            relevant
        })
        .collect()
}

/// Builds the baseline MTCG communication plan (Algorithm 1): every
/// inter-thread dependence is communicated at its source instruction,
/// and every relevant branch owned by another thread has its operand
/// sent immediately before the branch.
///
/// The relevant-branch sets and the branch-operand communications are
/// mutually recursive (an operand communication makes more branches
/// relevant), so this iterates to a fixpoint — mirroring the transitive
/// control dependences of \[16\].
///
/// # Errors
///
/// Returns [`MtcgError::Unassigned`] if some instruction of `f` is
/// unassigned in `partition`.
pub fn baseline_plan(
    f: &Function,
    pdg: &Pdg,
    partition: &Partition,
) -> Result<CommPlan, MtcgError> {
    partition.validate(f).map_err(MtcgError::Unassigned)?;
    let cdeps = pdg.control_deps();
    let mut plan = CommPlan::new(partition.num_threads());

    // Data and memory dependences at their source instructions.
    for dep in pdg.deps() {
        let (s, t) = (partition.thread_of(dep.src), partition.thread_of(dep.dst));
        if s == t {
            continue;
        }
        match dep.kind {
            DepKind::Register(r) => {
                plan.add_point(CommKind::Register(r), s, t, CommPoint::After(dep.src));
            }
            DepKind::Memory => {
                plan.add_point(CommKind::Memory, s, t, CommPoint::After(dep.src));
            }
            // Control dependences are realized through the
            // relevant-branch closure below (branch duplication +
            // operand communication), per lines 16-20 of Algorithm 1.
            DepKind::Control => {}
        }
    }

    // Fixpoint: recompute relevance, add operand communications for
    // duplicated branches, repeat until stable.
    loop {
        let relevant = relevant_branches(f, cdeps, partition, &plan);
        let mut changed = false;
        for (t_idx, branches) in relevant.iter().enumerate() {
            let t = ThreadId(t_idx as u32);
            for &br in branches {
                changed |= plan.add_relevant_branch(t, br);
                let owner = partition.thread_of(br);
                if owner == t {
                    continue;
                }
                let Op::Branch { cond, .. } = *f.instr(br) else {
                    unreachable!("relevant branches are conditional branches")
                };
                changed |= plan.add_point(
                    CommKind::Register(cond),
                    owner,
                    t,
                    CommPoint::Before(br),
                );
            }
        }
        if !changed {
            return Ok(plan);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmt_ir::{BinOp, BlockId, FunctionBuilder};
    use gmt_pdg::Pdg;

    /// The paper's Figure 3: B1{A: r1=..., B(br)}, B2{C output, D(br),
    /// E: r1=...}, B3{F uses r1, G}. Our rendition:
    ///   B1: r1 = x*2 ; br (x<10) -> B3 else B2
    ///   B2: output x ; r1 = x+1 ; br(x<5) -> B3 else B3   (simplified: jump)
    ///   B3: F: y = r1 + 7 (assigned T2) ; output y ; ret
    fn figure3_like() -> (Function, Partition, Pdg) {
        let mut b = FunctionBuilder::new("fig3");
        let x = b.param();
        let r1 = b.fresh_reg();
        let b2 = b.block("B2");
        let b3 = b.block("B3");
        // B1
        let a = b.bin_into(BinOp::Mul, r1, x, 2i64); // A: def r1
        let c1 = b.bin(BinOp::Lt, x, 10i64);
        let br_b = b.branch(c1, b3, b2); // B
        // B2
        b.switch_to(b2);
        let c_i = b.output(x); // C
        let e = b.bin_into(BinOp::Add, r1, x, 1i64); // E: def r1
        let c2 = b.bin(BinOp::Lt, x, 5i64);
        let br_d = b.branch(c2, b3, b3); // D (both arms to B3)
        // B3
        b.switch_to(b3);
        let fi = b.bin(BinOp::Add, r1, 7i64); // F (thread 2)
        let g = b.output(fi); // G
        b.ret(None);
        let f = b.finish().unwrap();
        let mut p = Partition::new(2);
        for i in f.all_instrs() {
            p.assign(i, ThreadId(0));
        }
        // F goes to thread 1.
        let f_instr = f
            .all_instrs()
            .find(|&i| matches!(f.instr(i), Op::Bin(BinOp::Add, _, _, gmt_ir::Operand::Imm(7))))
            .unwrap();
        p.assign(f_instr, ThreadId(1));
        let _ = (a, br_b, c_i, e, br_d, g);
        let pdg = Pdg::build(&f);
        (f, p, pdg)
    }

    /// Definition 1 as this module computed it before [`ControlDeps`]
    /// carried the transitive closure: a worklist over the direct
    /// dependences, per thread. Kept as the reference the closure table
    /// is checked against.
    fn worklist_relevant_branches(
        f: &Function,
        cdeps: &ControlDeps,
        partition: &Partition,
        plan: &CommPlan,
    ) -> Vec<BTreeSet<InstrId>> {
        let nt = partition.num_threads() as usize;
        let mut relevant: Vec<BTreeSet<InstrId>> = vec![BTreeSet::new(); nt];
        for (t_idx, relevant) in relevant.iter_mut().enumerate() {
            let t = ThreadId(t_idx as u32);
            let mut need: Vec<BlockId> = Vec::new();
            let mut seen = vec![false; f.num_blocks()];
            let push = |need: &mut Vec<BlockId>, seen: &mut Vec<bool>, b: BlockId| {
                if !seen[b.index()] {
                    seen[b.index()] = true;
                    need.push(b);
                }
            };
            for i in f.all_instrs() {
                if partition.get(i) == Some(t) {
                    push(&mut need, &mut seen, f.block_of(i));
                    if f.instr(i).is_branch() {
                        relevant.insert(i);
                    }
                }
            }
            for item in plan.items() {
                if item.from == t || item.to == t {
                    for &p in &item.points {
                        push(&mut need, &mut seen, p.block(f));
                    }
                }
            }
            let mut cursor = 0;
            while cursor < need.len() {
                let b = need[cursor];
                cursor += 1;
                for cd in cdeps.of_block(b) {
                    if relevant.insert(cd.branch) {
                        push(&mut need, &mut seen, f.block_of(cd.branch));
                    }
                }
            }
        }
        relevant
    }

    /// The closure-row relevant branches are the worklist's, under the
    /// empty plan and under the baseline plan (whose points sit in
    /// blocks the receiving thread may own nothing in).
    fn check_against_worklist(f: &Function, pdg: &Pdg, partition: &Partition) -> gmt_testkit::PropResult {
        let cdeps = pdg.control_deps();
        let baseline = baseline_plan(f, pdg, partition).map_err(|e| e.to_string())?;
        for plan in [CommPlan::new(partition.num_threads()), baseline] {
            gmt_testkit::prop_assert_eq!(
                relevant_branches(f, cdeps, partition, &plan),
                worklist_relevant_branches(f, cdeps, partition, &plan)
            );
        }
        Ok(())
    }

    #[test]
    fn closure_rows_match_the_worklist_on_the_catalog() {
        let mut transitive = 0;
        for w in gmt_workloads::catalog() {
            let f = &w.function;
            let profile = w.run_train().expect("train run").profile;
            let pdg = Pdg::build(f);
            for n in [2u32, 3, 4] {
                let dswp = gmt_sched::dswp::DswpConfig { num_threads: n };
                let gremio = gmt_sched::gremio::GremioConfig { num_threads: n };
                for partition in [
                    gmt_sched::dswp::partition(f, &pdg, &profile, &dswp).expect("dswp"),
                    gmt_sched::gremio::partition(f, &pdg, &profile, &gremio).expect("gremio"),
                ] {
                    check_against_worklist(f, &pdg, &partition)
                        .unwrap_or_else(|e| panic!("{} N={n}: {e}", w.benchmark));
                }
            }
            let cdeps = pdg.control_deps();
            transitive += f
                .blocks()
                .flat_map(|b| cdeps.branches_in(cdeps.closure_row(b)).map(move |br| (b, br)))
                .filter(|&(b, br)| cdeps.of_block(b).iter().all(|cd| cd.branch != br))
                .count();
        }
        assert!(transitive > 0, "no kernel has a transitive control dependence");
    }

    #[test]
    fn closure_rows_match_the_worklist_on_generated_programs() {
        use gmt_fuzz::ast::{compile, fprogram_gen, seeded_partition};
        let gen = fprogram_gen().zip(gmt_testkit::full_u64());
        gmt_testkit::Checker::new("relevance::closure_vs_worklist").cases(200).run(&gen, |(program, seed)| {
            let f = compile(program)?;
            let pdg = Pdg::build(&f);
            (2..=4).try_for_each(|n| {
                check_against_worklist(&f, &pdg, &seeded_partition(&f, n, *seed))
            })
        });
    }

    #[test]
    fn baseline_communicates_each_def() {
        let (f, p, pdg) = figure3_like();
        let plan = baseline_plan(&f, &pdg, &p).unwrap();
        // r1 has two defs (A and E) with inter-thread deps into F:
        // two communication points.
        let r1 = gmt_ir::Reg(1);
        let pts = plan.points(CommKind::Register(r1), ThreadId(0), ThreadId(1));
        assert_eq!(pts.len(), 2, "{plan:?}");
        assert!(pts.iter().all(|pt| matches!(pt, CommPoint::After(_))));
    }

    #[test]
    fn transitive_control_branch_becomes_relevant() {
        let (f, p, pdg) = figure3_like();
        let plan = baseline_plan(&f, &pdg, &p).unwrap();
        // E (def of r1) is in B2, control dependent on branch B (in B1).
        // Its comm point is in B2 => branch B must be relevant to T1 and
        // its operand communicated.
        let branch_b = f.block(BlockId(0)).terminator.unwrap();
        assert!(plan.relevant_branches(ThreadId(1)).contains(&branch_b));
        let cond = match *f.instr(branch_b) {
            Op::Branch { cond, .. } => cond,
            _ => unreachable!(),
        };
        let pts = plan.points(CommKind::Register(cond), ThreadId(0), ThreadId(1));
        assert!(pts.contains(&CommPoint::Before(branch_b)), "{plan:?}");
    }

    #[test]
    fn thread0_duplicates_nothing_foreign() {
        let (f, p, pdg) = figure3_like();
        let plan = baseline_plan(&f, &pdg, &p).unwrap();
        // Thread 0 owns all branches; its relevant set equals its own.
        for &br in plan.relevant_branches(ThreadId(0)) {
            assert_eq!(p.thread_of(br), ThreadId(0));
        }
    }

    #[test]
    fn single_thread_needs_no_communication() {
        let (f, _, pdg) = figure3_like();
        let p = Partition::single_threaded(&f, 1);
        let plan = baseline_plan(&f, &pdg, &p).unwrap();
        assert_eq!(plan.total_points(), 0);
    }

    #[test]
    fn memory_dep_gets_sync_point() {
        // Two outputs in different threads: ordered via memory sync.
        let mut b = FunctionBuilder::new("m");
        b.output(1i64);
        b.output(2i64);
        b.ret(None);
        let f = b.finish().unwrap();
        let mut p = Partition::new(2);
        let instrs: Vec<_> = f.all_instrs().collect();
        p.assign(instrs[0], ThreadId(0));
        p.assign(instrs[1], ThreadId(1));
        p.assign(instrs[2], ThreadId(0));
        let pdg = Pdg::build(&f);
        let plan = baseline_plan(&f, &pdg, &p).unwrap();
        let pts = plan.points(CommKind::Memory, ThreadId(0), ThreadId(1));
        assert_eq!(pts.len(), 1);
        assert_eq!(pts.iter().next(), Some(&CommPoint::After(instrs[0])));
    }
}
