//! Multi-Threaded Code Generation (MTCG, Algorithm 1 of the paper).
//!
//! Takes the original CFG, a partition, and a communication plan, and
//! produces one new CFG per thread containing: the thread's own
//! instructions, the produce/consume instructions of the plan,
//! duplicated relevant branches (with their consumed operands), and
//! branch/jump targets fixed through the post-dominance relation
//! (§2.2.3 of \[16\]).

use crate::plan::{CommKind, CommPlan, CommPoint};
use gmt_ir::{BlockId, Function, InstrId, Op, PostDominators, QueueId, Reg, VerifyError};
use gmt_pdg::{Partition, Pdg, ThreadId};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::error::Error;
use std::fmt;

/// The output of MTCG: one function per thread plus metadata.
#[derive(Clone, Debug)]
pub struct MtcgOutput {
    /// The per-thread CFGs, indexed by thread id.
    pub threads: Vec<Function>,
    /// Number of queues consumed (one per plan point).
    pub num_queues: u32,
    /// The plan that was realized (baseline or COCO-optimized).
    pub plan: CommPlan,
    /// One label per scheduled communication occurrence, in queue
    /// allocation order: which queue the occurrence uses, at which
    /// point of the original CFG, carrying what, between which
    /// threads. A queue reused under a tight budget appears in several
    /// labels; trace consumers group by [`QueueLabel::queue`].
    pub queue_labels: Vec<QueueLabel>,
    /// Per-thread provenance: which original-CFG block each generated
    /// block realizes. Generated blocks with no original counterpart
    /// (the shared `mt_exit`, an entry stub) are absent. Static
    /// verifiers use this to walk a thread's realization of the
    /// original control flow.
    pub origins: Vec<BTreeMap<BlockId, BlockId>>,
}

/// Static description of one scheduled communication occurrence — the
/// metadata a trace consumer needs to attribute per-queue dynamic
/// produce/consume counts back to the [`CommPlan`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueueLabel {
    /// The SA queue the occurrence was assigned.
    pub queue: QueueId,
    /// The original-CFG point the pair was placed at.
    pub point: CommPoint,
    /// What is communicated (register value or memory token).
    pub kind: CommKind,
    /// Producing thread.
    pub from: ThreadId,
    /// Consuming thread.
    pub to: ThreadId,
}

impl MtcgOutput {
    /// Static count of communication instructions across all threads
    /// (each plan point contributes one produce and one consume).
    pub fn static_comm_instrs(&self) -> usize {
        self.threads
            .iter()
            .map(|f| {
                f.all_instrs()
                    .filter(|&i| f.instr(i).is_communication())
                    .count()
            })
            .sum()
    }
}

/// MTCG failure modes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MtcgError {
    /// An instruction was not assigned to any thread.
    Unassigned(InstrId),
    /// A generated thread failed structural verification — indicates a
    /// plan that does not deliver some value (a register used in a
    /// thread with neither a local definition nor a consume).
    BadThread {
        /// The offending thread.
        thread: ThreadId,
        /// The underlying defect.
        cause: VerifyError,
    },
    /// The queue budget cannot give every distinct (from, to) thread
    /// pair at least one private queue.
    QueueBudget {
        /// The configured budget.
        limit: u32,
        /// Distinct communicating thread pairs in the plan.
        pairs: u32,
    },
    /// The plan communicates with a thread the partition does not have.
    PlanThreadOutOfRange {
        /// The out-of-range thread.
        thread: ThreadId,
        /// The partition's thread count.
        num_threads: u32,
    },
    /// The plan places communication at a point that does not exist in
    /// the function (instruction or block id out of range).
    PlanPointOutOfRange(CommPoint),
}

impl fmt::Display for MtcgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MtcgError::Unassigned(i) => write!(f, "instruction {i:?} unassigned"),
            MtcgError::BadThread { thread, cause } => {
                write!(f, "generated thread {thread:?} is malformed: {cause}")
            }
            MtcgError::QueueBudget { limit, pairs } => {
                write!(f, "queue budget {limit} below the number of thread pairs {pairs}")
            }
            MtcgError::PlanThreadOutOfRange { thread, num_threads } => {
                write!(f, "plan references {thread:?} but the partition has {num_threads} threads")
            }
            MtcgError::PlanPointOutOfRange(p) => {
                write!(f, "plan point {p:?} does not exist in the function")
            }
        }
    }
}

impl Error for MtcgError {}

/// A communication pair scheduled at a specific point with its queue.
#[derive(Clone, Copy, Debug)]
struct Scheduled {
    queue: QueueId,
    kind: CommKind,
    from: ThreadId,
    to: ThreadId,
}

impl Scheduled {
    fn produce_op(&self) -> Op {
        match self.kind {
            CommKind::Register(r) => Op::Produce { queue: self.queue, value: r.into() },
            CommKind::Memory => Op::ProduceSync { queue: self.queue },
        }
    }

    fn consume_op(&self) -> Op {
        match self.kind {
            CommKind::Register(r) => Op::Consume { dst: r, queue: self.queue },
            CommKind::Memory => Op::ConsumeSync { queue: self.queue },
        }
    }
}

/// Runs MTCG with the baseline plan (Algorithm 1's own placement).
///
/// # Errors
///
/// See [`MtcgError`].
pub fn generate(f: &Function, pdg: &Pdg, partition: &Partition) -> Result<MtcgOutput, MtcgError> {
    if let Err(i) = partition.validate(f) {
        return Err(MtcgError::Unassigned(i));
    }
    let plan = crate::relevance::baseline_plan(f, pdg, partition)?;
    generate_with_plan(f, pdg, partition, plan)
}

/// Runs MTCG realizing the given plan (COCO hands its optimized plan
/// here).
///
/// # Errors
///
/// See [`MtcgError`].
pub fn generate_with_plan(
    f: &Function,
    pdg: &Pdg,
    partition: &Partition,
    plan: CommPlan,
) -> Result<MtcgOutput, MtcgError> {
    generate_with_plan_budgeted(f, pdg, partition, plan, crate::QueueBudget::Unlimited)
}

/// Like [`generate_with_plan`], with a bound on the number of hardware
/// queues: when the plan needs more points than queues, points sharing
/// a (from, to) thread pair are folded onto shared queues (see
/// [`crate::queues`] for why that is sound).
///
/// # Errors
///
/// See [`MtcgError`].
pub fn generate_with_plan_budgeted(
    f: &Function,
    pdg: &Pdg,
    partition: &Partition,
    plan: CommPlan,
    budget: crate::QueueBudget,
) -> Result<MtcgOutput, MtcgError> {
    if let Err(i) = partition.validate(f) {
        return Err(MtcgError::Unassigned(i));
    }
    validate_plan(f, partition, &plan)?;
    let pdom = pdg.post_dominators();

    // Queue assignment: one queue per (item, point). All communication
    // at one point is emitted in a single *global* order, identical in
    // every thread — each thread takes the subsequence it participates
    // in. This is what makes the generated code deadlock-free: at any
    // blocked moment, the lowest unfinished operation's producer has
    // already completed everything before it, so it can always fire.
    // (Per-thread "all consumes before all produces" is NOT safe: two
    // opposite-direction items at the same point would each wait for
    // the other's produce.)
    //
    // One ordering constraint is semantic, not just for liveness: when
    // a thread both receives register r and forwards r at the same
    // point, the consume must come first so the forwarded value is the
    // fresh one.
    let mut per_point: BTreeMap<CommPoint, Vec<(CommKind, ThreadId, ThreadId)>> = BTreeMap::new();
    for item in plan.items() {
        for &p in &item.points {
            per_point.entry(p).or_default().push((item.kind, item.from, item.to));
        }
    }
    // Order occurrences first, then run queue allocation over the
    // resulting (from, to) sequence.
    let mut ordered_occurrences: Vec<(CommPoint, CommKind, ThreadId, ThreadId)> = Vec::new();
    for (p, mut items) in per_point {
        // Stable fix-up: for the same register, an item delivering r
        // *into* thread X precedes an item sending r *from* X.
        items.sort();
        let mut ordered: Vec<(CommKind, ThreadId, ThreadId)> = Vec::with_capacity(items.len());
        while !items.is_empty() {
            // Pick the first item whose *register value* is not still
            // being delivered into its source thread by an unplaced
            // item (memory tokens carry no value; no constraint).
            let pick = items
                .iter()
                .position(|&(k, from, _)| {
                    !matches!(k, CommKind::Register(_))
                        || !items.iter().any(|&(k2, _, to2)| k2 == k && to2 == from)
                })
                .unwrap_or(0);
            ordered.push(items.remove(pick));
        }
        for (kind, from, to) in ordered {
            ordered_occurrences.push((p, kind, from, to));
        }
    }
    let pairs: Vec<(ThreadId, ThreadId)> = ordered_occurrences
        .iter()
        .map(|&(_, _, from, to)| (from, to))
        .collect();
    let (queue_of, num_queues) = crate::queues::allocate(&pairs, budget)?;
    let mut comm_at: BTreeMap<CommPoint, Vec<Scheduled>> = BTreeMap::new();
    let mut queue_labels = Vec::with_capacity(ordered_occurrences.len());
    for (k, (p, kind, from, to)) in ordered_occurrences.into_iter().enumerate() {
        let queue = QueueId(queue_of[k]);
        queue_labels.push(QueueLabel { queue, point: p, kind, from, to });
        comm_at.entry(p).or_default().push(Scheduled { queue, kind, from, to });
    }

    let mut threads = Vec::with_capacity(partition.num_threads() as usize);
    let mut origins = Vec::with_capacity(partition.num_threads() as usize);
    for t in partition.threads() {
        let (nf, origin) = generate_thread(f, partition, &plan, pdom, &comm_at, t)?;
        threads.push(nf);
        origins.push(origin);
    }
    Ok(MtcgOutput { threads, num_queues, plan, queue_labels, origins })
}

/// Rejects plans that talk about threads or program points the
/// partition/function do not have; indexing on either would otherwise
/// panic deep inside code generation.
fn validate_plan(f: &Function, partition: &Partition, plan: &CommPlan) -> Result<(), MtcgError> {
    let nt = partition.num_threads();
    let point_ok = |p: &CommPoint| match *p {
        CommPoint::Before(i) | CommPoint::After(i) => (i.0 as usize) < f.num_instrs(),
        CommPoint::BlockStart(b) => (b.0 as usize) < f.num_blocks(),
    };
    for item in plan.items() {
        for &t in [item.from, item.to].iter() {
            if t.0 >= nt {
                return Err(MtcgError::PlanThreadOutOfRange { thread: t, num_threads: nt });
            }
        }
        for p in &item.points {
            if !point_ok(p) {
                return Err(MtcgError::PlanPointOutOfRange(*p));
            }
        }
    }
    for (t, branches) in plan.all_relevant_branches().iter().enumerate() {
        if t as u32 >= nt && !branches.is_empty() {
            return Err(MtcgError::PlanThreadOutOfRange {
                thread: ThreadId(t as u32),
                num_threads: nt,
            });
        }
        for &br in branches {
            if (br.0 as usize) >= f.num_instrs() {
                return Err(MtcgError::PlanPointOutOfRange(CommPoint::Before(br)));
            }
        }
    }
    Ok(())
}

fn generate_thread(
    f: &Function,
    partition: &Partition,
    plan: &CommPlan,
    pdom: &PostDominators,
    comm_at: &BTreeMap<CommPoint, Vec<Scheduled>>,
    t: ThreadId,
) -> Result<(Function, BTreeMap<BlockId, BlockId>), MtcgError> {
    // ---- relevant blocks: the thread's instructions, its communication
    // points, and its relevant branches.
    let mut relevant: BTreeSet<BlockId> = BTreeSet::new();
    for i in f.all_instrs() {
        if partition.get(i) == Some(t) {
            relevant.insert(f.block_of(i));
        }
    }
    for (p, comms) in comm_at {
        if comms.iter().any(|c| c.from == t || c.to == t) {
            relevant.insert(p.block(f));
        }
    }
    for &br in plan.relevant_branches(t) {
        relevant.insert(f.block_of(br));
    }

    let mut nf = Function::new(format!("{}.{}", f.name, t));
    nf.params = f.params.clone();
    if f.num_regs() > 0 {
        nf.ensure_reg(Reg(f.num_regs() - 1));
    }
    for obj in f.objects() {
        nf.add_object(obj.name.clone(), obj.size);
    }

    // Degenerate: a thread with nothing at all.
    if relevant.is_empty() {
        nf.set_terminator(nf.entry(), Op::Ret(None));
        return Ok((nf, BTreeMap::new()));
    }

    // ---- block images.
    let entry_relevant = relevant.contains(&f.entry());
    let mut image: HashMap<BlockId, BlockId> = HashMap::new();
    for &b in &relevant {
        if b == f.entry() && entry_relevant {
            image.insert(b, nf.entry());
        } else {
            let nb = nf.add_block(format!("{}'", f.block(b).name));
            image.insert(b, nb);
        }
    }
    // Shared exit for paths with no further relevant blocks.
    let exit = nf.add_block("mt_exit");
    nf.set_terminator(exit, Op::Ret(None));

    // First relevant block at-or-after `s` on the post-dominator chain
    // (the branch-target fixing of \[16\] §2.2.3).
    let retarget = |s: BlockId| -> BlockId {
        let mut cur = Some(s);
        while let Some(x) = cur {
            if let Some(&img) = image.get(&x) {
                return img;
            }
            cur = pdom.ipdom(x);
        }
        exit
    };

    // Emit the communication scheduled at one point into block `nb`,
    // in the global per-point order (this thread's subsequence of it).
    let emit_point = |nf: &mut Function, nb: BlockId, p: CommPoint| {
        let Some(comms) = comm_at.get(&p) else { return };
        for c in comms {
            if c.to == t {
                nf.push_instr(nb, c.consume_op());
            } else if c.from == t {
                nf.push_instr(nb, c.produce_op());
            }
        }
    };

    for &b in &relevant {
        let nb = image[&b];
        emit_point(&mut nf, nb, CommPoint::BlockStart(b));
        for &i in &f.block(b).instrs {
            emit_point(&mut nf, nb, CommPoint::Before(i));
            if partition.get(i) == Some(t) {
                nf.push_instr(nb, f.instr(i).clone());
            }
            emit_point(&mut nf, nb, CommPoint::After(i));
        }
        let term = f.block(b).terminator.expect("verified input");
        emit_point(&mut nf, nb, CommPoint::Before(term));
        let top = f.instr(term).clone();
        if partition.get(term) == Some(t) {
            match top {
                Op::Branch { cond, then_bb, else_bb } => {
                    nf.set_terminator(
                        nb,
                        Op::Branch {
                            cond,
                            then_bb: retarget(then_bb),
                            else_bb: retarget(else_bb),
                        },
                    );
                }
                Op::Jump(s) => {
                    nf.set_terminator(nb, Op::Jump(retarget(s)));
                }
                Op::Ret(v) => {
                    nf.set_terminator(nb, Op::Ret(v));
                }
                other => unreachable!("terminator expected, found {other}"),
            }
        } else if let (true, Op::Branch { cond, then_bb, else_bb }) =
            (plan.relevant_branches(t).contains(&term), top)
        {
            // Duplicate the relevant branch (Algorithm 1, line 20). Its
            // operand register arrives through a consume placed by the
            // plan at or before this point.
            nf.set_terminator(
                nb,
                Op::Branch {
                    cond,
                    then_bb: retarget(then_bb),
                    else_bb: retarget(else_bb),
                },
            );
        } else {
            // The branch outcome is irrelevant to this thread: skip to
            // the next relevant block on the pdom chain.
            let target = match pdom.ipdom(b) {
                Some(x) => retarget(x),
                None => exit,
            };
            nf.set_terminator(nb, Op::Jump(target));
        }
    }

    // Entry stub when the original entry is not relevant.
    if !entry_relevant {
        let target = retarget(f.entry());
        nf.set_terminator(nf.entry(), Op::Jump(target));
    }

    gmt_ir::verify(&nf).map_err(|cause| MtcgError::BadThread { thread: t, cause })?;
    let origin: BTreeMap<BlockId, BlockId> = image.iter().map(|(&b, &nb)| (nb, b)).collect();
    Ok((nf, origin))
}
