//! Static queue-protocol validation for MT codegen.
//!
//! MTCG's correctness rests on a handful of structural invariants the
//! paper states but a code generator can silently break: every queue's
//! produce sequence must equal its consume sequence (one global
//! per-point emission order, §3.1), communication endpoints must match
//! the plan, every thread must duplicate the branches that control its
//! communication (Definitions 1–2), the inter-thread wait graph must be
//! acyclic under the machine's finite queue depth, and every
//! COCO-moved communication point must still deliver the value its
//! consumers read. [`verify_mt`] checks all of these statically —
//! abstract interpretation over the product of the threads'
//! relevant CFGs, aligned through [`MtcgOutput::origins`] — and
//! reports violations as structured [`MtVerifyError`]s naming the
//! queue, the blocks involved, and the plan label.

use gmt_ir::{BlockId, Function, InstrId, Op, QueueId, Reg, Successors};
use gmt_mtcg::{CommKind, CommPoint, MtcgOutput, QueueLabel};
use gmt_pdg::{DepKind, Partition, Pdg, ThreadId};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// One hop of a potential-deadlock witness: a static communication
/// operation some thread would be blocked at.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WaitStep {
    /// The blocked thread.
    pub thread: ThreadId,
    /// The *original-CFG* block whose image contains the operation.
    pub block: BlockId,
    /// The queue the operation targets.
    pub queue: QueueId,
    /// `true` for produce/produce.sync (blocked on a full queue),
    /// `false` for consume/consume.sync (blocked on an empty one).
    pub produce: bool,
    /// The depth the queue was verified at (its allocated capacity).
    pub depth: usize,
}

/// A violation of the MT queue protocol found by [`verify_mt`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MtVerifyError {
    /// A communication instruction targets a queue no label covers.
    UnlabeledQueue {
        /// Offending thread.
        thread: ThreadId,
        /// Offending instruction (in the generated thread).
        instr: InstrId,
        /// The unknown queue.
        queue: QueueId,
    },
    /// A queue is shared by two different (from, to) thread pairs —
    /// the allocator's cardinal sin (cross-pair order is undefined).
    QueueSharedAcrossPairs {
        /// The shared queue.
        queue: QueueId,
        /// First pair's label.
        first: QueueLabel,
        /// Conflicting label.
        second: QueueLabel,
    },
    /// A produce appears outside the labeled producing thread, or a
    /// consume outside the consuming thread.
    EndpointViolation {
        /// Thread the operation actually appears in.
        thread: ThreadId,
        /// The offending instruction (in the generated thread).
        instr: InstrId,
        /// The queue's label (expected endpoints).
        label: QueueLabel,
    },
    /// A communication instruction sits in a generated block that
    /// realizes no original block (entry stub or `mt_exit`), where no
    /// communication may be placed.
    CommOutsideImage {
        /// Offending thread.
        thread: ThreadId,
        /// Offending instruction.
        instr: InstrId,
        /// Queue targeted.
        queue: QueueId,
    },
    /// Within one original block, the producer's per-pair sequence of
    /// queue operations differs from the consumer's — the FIFOs would
    /// misalign value-for-value (token conservation breaks).
    SequenceMismatch {
        /// The communicating pair (from, to).
        pair: (ThreadId, ThreadId),
        /// The original block whose images disagree.
        block: BlockId,
        /// The producer's generated block image, if any.
        from_block: Option<BlockId>,
        /// The consumer's generated block image, if any.
        to_block: Option<BlockId>,
        /// Queue sequence produced by `pair.0` in this block.
        produced: Vec<QueueId>,
        /// Queue sequence consumed by `pair.1` in this block.
        consumed: Vec<QueueId>,
    },
    /// After a communicating block, the producer and consumer can
    /// reach different next communicating blocks — their relevant
    /// control flow diverges, so the queue sequences are not aligned
    /// on every path.
    ControlDivergence {
        /// The communicating pair (from, to).
        pair: (ThreadId, ThreadId),
        /// The original block (or entry) where the walk started.
        block: BlockId,
        /// Next communicating original blocks per the producer.
        from_next: Vec<BlockId>,
        /// Next communicating original blocks per the consumer.
        to_next: Vec<BlockId>,
    },
    /// Definition 1's closure is incomplete: the branch is relevant to
    /// the thread but the plan never marked it for duplication.
    MissingControlDuplication {
        /// The thread that must duplicate the branch.
        thread: ThreadId,
        /// The relevant branch (original CFG).
        branch: InstrId,
    },
    /// A duplicated branch owned by another thread has no way to
    /// obtain its condition: the duplicating thread neither computes
    /// the register nor receives it through any plan item — the
    /// duplicate could not branch the same way.
    MissingBranchOperand {
        /// The duplicating thread.
        thread: ThreadId,
        /// The duplicated branch (original CFG).
        branch: InstrId,
        /// The branch's owning thread.
        owner: ThreadId,
    },
    /// The inter-thread wait graph (queue dependences plus per-queue
    /// back-pressure at each queue's allocated depth, chained across
    /// blocks along each thread's generated CFG) has a cycle: every
    /// thread on the witness path can block waiting for the next.
    PotentialDeadlock {
        /// The cycle, one blocked operation per hop (each
        /// [`WaitStep::depth`] names the depth its queue was checked
        /// at).
        witness: Vec<WaitStep>,
    },
    /// A queue label (a scheduled communication occurrence the
    /// generated code is supposed to realize) does not correspond
    /// one-to-one with the plan's (item, point) set: either the label
    /// names a (point, kind, from, to) the plan never placed, or a plan
    /// placement has no label. A consistent-but-different pair would
    /// otherwise pass both the plan checks and the code checks.
    PlanLabelMismatch {
        /// The communication point.
        point: CommPoint,
        /// What is communicated.
        kind: CommKind,
        /// Producing thread.
        from: ThreadId,
        /// Consuming thread.
        to: ThreadId,
        /// How many labels carry this placement.
        labels: usize,
        /// How many times the plan places it.
        planned: usize,
    },
    /// A thread's image of an original block does not realize the exact
    /// instruction layout the plan dictates: walking the block's points
    /// in emission order (block start, before/after each instruction,
    /// before the terminator), the expected interleaving of
    /// communication ops and the thread's own instructions differs from
    /// the generated code — a comm instruction has no plan point at its
    /// position, or a plan point has no instruction.
    PlanCodeMismatch {
        /// The thread whose image disagrees.
        thread: ThreadId,
        /// The original block (the thread realizes no image of it when
        /// `actual` is empty and `expected` is not).
        block: BlockId,
        /// (queue, produce?) sequence the plan + labels dictate.
        expected: Vec<(QueueId, bool)>,
        /// (queue, produce?) sequence the generated image contains.
        actual: Vec<(QueueId, bool)>,
    },
    /// A thread's image of a block ends with the wrong terminator kind:
    /// it duplicates a branch the plan never marked (and the thread
    /// does not own), fails to duplicate a branch it must, or branches
    /// on a different condition register than the original.
    BranchDuplicationMismatch {
        /// The offending thread.
        thread: ThreadId,
        /// The original block.
        block: BlockId,
        /// The original terminator instruction.
        branch: InstrId,
        /// Whether the thread was supposed to end the image with a
        /// duplicate of the branch.
        expected_duplicate: bool,
    },
    /// A register communication point no longer dominates a use it
    /// feeds: on some path the producing thread redefines the register
    /// after the last crossing, so the consumer reads a stale value
    /// (violates Definitions 1–2 after a COCO move).
    StaleValue {
        /// The communicated register.
        reg: Reg,
        /// The consuming use (original CFG instruction).
        use_instr: InstrId,
        /// The item's label data: producing and consuming threads.
        pair: (ThreadId, ThreadId),
    },
    /// A memory dependence between the pair's threads is not covered
    /// by any synchronization point on some path from source to sink.
    UncoveredMemoryDep {
        /// The dependence source (original CFG).
        src: InstrId,
        /// The dependence sink (original CFG).
        dst: InstrId,
        /// The communicating pair (from, to).
        pair: (ThreadId, ThreadId),
    },
}

impl std::fmt::Display for MtVerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MtVerifyError::UnlabeledQueue { thread, instr, queue } => {
                write!(f, "thread {thread:?} {instr:?}: queue {} has no label", queue.0)
            }
            MtVerifyError::QueueSharedAcrossPairs { queue, first, second } => write!(
                f,
                "queue {} shared across pairs {:?}->{:?} and {:?}->{:?}",
                queue.0, first.from, first.to, second.from, second.to
            ),
            MtVerifyError::EndpointViolation { thread, instr, label } => write!(
                f,
                "thread {thread:?} {instr:?}: queue {} belongs to {:?}->{:?}",
                label.queue.0, label.from, label.to
            ),
            MtVerifyError::CommOutsideImage { thread, instr, queue } => write!(
                f,
                "thread {thread:?} {instr:?}: queue {} op outside any block image",
                queue.0
            ),
            MtVerifyError::SequenceMismatch { pair, block, produced, consumed, .. } => write!(
                f,
                "pair {:?}->{:?} block {block:?}: produce sequence {:?} != consume sequence {:?}",
                pair.0,
                pair.1,
                produced.iter().map(|q| q.0).collect::<Vec<_>>(),
                consumed.iter().map(|q| q.0).collect::<Vec<_>>()
            ),
            MtVerifyError::ControlDivergence { pair, block, from_next, to_next } => write!(
                f,
                "pair {:?}->{:?} after block {block:?}: producer reaches {from_next:?}, \
                 consumer reaches {to_next:?}",
                pair.0, pair.1
            ),
            MtVerifyError::MissingControlDuplication { thread, branch } => {
                write!(f, "thread {thread:?} must duplicate relevant branch {branch:?}")
            }
            MtVerifyError::MissingBranchOperand { thread, branch, owner } => write!(
                f,
                "thread {thread:?} duplicates {branch:?} but {owner:?} never sends its condition"
            ),
            MtVerifyError::PotentialDeadlock { witness } => {
                write!(f, "potential deadlock at the allocated queue depths:")?;
                for s in witness {
                    write!(
                        f,
                        " [{:?} blocked {} queue {} (depth {}) in {:?}]",
                        s.thread,
                        if s.produce { "producing to" } else { "consuming from" },
                        s.queue.0,
                        s.depth,
                        s.block
                    )?;
                }
                Ok(())
            }
            MtVerifyError::PlanLabelMismatch { point, kind, from, to, labels, planned } => write!(
                f,
                "{kind:?} {from:?}->{to:?} at {point:?}: {labels} label(s) vs {planned} plan \
                 placement(s)"
            ),
            MtVerifyError::PlanCodeMismatch { thread, block, expected, actual } => write!(
                f,
                "thread {thread:?} image of {block:?}: plan dictates comm layout {:?} but the \
                 code realizes {:?} (positions aligned against the thread's own instructions)",
                expected.iter().map(|&(q, p)| (q.0, p)).collect::<Vec<_>>(),
                actual.iter().map(|&(q, p)| (q.0, p)).collect::<Vec<_>>()
            ),
            MtVerifyError::BranchDuplicationMismatch { thread, block, branch, expected_duplicate } => {
                write!(
                    f,
                    "thread {thread:?} image of {block:?}: {}",
                    if *expected_duplicate {
                        format!("must end with a duplicate of branch {branch:?} (same condition)")
                    } else {
                        format!("duplicates branch {branch:?} the plan never marked")
                    }
                )
            }
            MtVerifyError::StaleValue { reg, use_instr, pair } => write!(
                f,
                "pair {:?}->{:?}: {use_instr:?} can read a stale {reg:?} (point fails to \
                 dominate the use after its last def)",
                pair.0, pair.1
            ),
            MtVerifyError::UncoveredMemoryDep { src, dst, pair } => write!(
                f,
                "pair {:?}->{:?}: memory dependence {src:?} -> {dst:?} crosses no sync point",
                pair.0, pair.1
            ),
        }
    }
}

impl std::error::Error for MtVerifyError {}

/// Is `op` a communication instruction? Returns `(queue, is_produce)`.
fn comm_op(op: &Op) -> Option<(QueueId, bool)> {
    match *op {
        Op::Produce { queue, .. } | Op::ProduceSync { queue } => Some((queue, true)),
        Op::Consume { queue, .. } | Op::ConsumeSync { queue } => Some((queue, false)),
        _ => None,
    }
}

/// [`verify_mt`] at one uniform queue depth (every queue gets
/// `queue_depth` entries) — the pre-allocation behavior, still what the
/// pipeline's depth-1 debug gate wants.
pub fn verify_mt_uniform(
    f: &Function,
    partition: &Partition,
    pdg: &Pdg,
    out: &MtcgOutput,
    queue_depth: usize,
) -> Vec<MtVerifyError> {
    verify_mt(f, partition, pdg, out, &[queue_depth])
}

/// Statically validates the queue protocol of `out` against the
/// original function, partition, and PDG, under the *per-queue* hardware
/// depths in `queue_depths` (a single element broadcasts to every queue,
/// matching `SaConfig::depths`; queue `q` otherwise gets
/// `queue_depths[q]`, missing entries defaulting to 1). Returns every
/// violation found (empty = verified).
pub fn verify_mt(
    f: &Function,
    partition: &Partition,
    pdg: &Pdg,
    out: &MtcgOutput,
    queue_depths: &[usize],
) -> Vec<MtVerifyError> {
    let mut errs = Vec::new();
    let nt = out.threads.len();

    // ---- queue labels: group by queue, demand pair consistency.
    let mut labels: HashMap<QueueId, Vec<&QueueLabel>> = HashMap::new();
    for l in &out.queue_labels {
        labels.entry(l.queue).or_default().push(l);
    }
    for ls in labels.values() {
        let first = ls[0];
        if let Some(bad) = ls.iter().find(|l| (l.from, l.to) != (first.from, first.to)) {
            errs.push(MtVerifyError::QueueSharedAcrossPairs {
                queue: first.queue,
                first: first.clone(),
                second: (*bad).clone(),
            });
        }
    }

    // ---- endpoint check + per-thread, per-original-block comm
    // sequences (projected through `origins`).
    // comm_seq[t][b] = ordered (queue, produce?) ops of thread t's
    // image of original block b.
    let mut comm_seq: Vec<BTreeMap<BlockId, Vec<(QueueId, bool)>>> = vec![BTreeMap::new(); nt];
    for (t_idx, tf) in out.threads.iter().enumerate() {
        let t = ThreadId(t_idx as u32);
        let origins = &out.origins[t_idx];
        for g in tf.blocks() {
            let origin = origins.get(&g).copied();
            for i in tf.block(g).all_instrs() {
                let Some((queue, produce)) = comm_op(tf.instr(i)) else { continue };
                let Some(ls) = labels.get(&queue) else {
                    errs.push(MtVerifyError::UnlabeledQueue { thread: t, instr: i, queue });
                    continue;
                };
                let label = ls[0];
                let expected = if produce { label.from } else { label.to };
                if expected != t {
                    errs.push(MtVerifyError::EndpointViolation {
                        thread: t,
                        instr: i,
                        label: label.clone(),
                    });
                    continue;
                }
                match origin {
                    Some(b) => comm_seq[t_idx].entry(b).or_default().push((queue, produce)),
                    None => {
                        errs.push(MtVerifyError::CommOutsideImage { thread: t, instr: i, queue })
                    }
                }
            }
        }
    }

    // ---- per-pair sequence matching over the aligned block images.
    let pair_of = |q: QueueId| labels.get(&q).map(|ls| (ls[0].from, ls[0].to));
    let mut pairs: BTreeSet<(ThreadId, ThreadId)> = BTreeSet::new();
    for ls in labels.values() {
        pairs.insert((ls[0].from, ls[0].to));
    }
    let inv = |t: ThreadId| -> HashMap<BlockId, BlockId> {
        out.origins[t.index()].iter().map(|(&g, &b)| (b, g)).collect()
    };
    for &(from, to) in &pairs {
        if from.index() >= nt || to.index() >= nt {
            continue; // endpoint checks already flagged every op
        }
        let from_img = inv(from);
        let to_img = inv(to);
        let seq_of = |t: ThreadId, b: BlockId, want_produce: bool| -> Vec<QueueId> {
            comm_seq[t.index()]
                .get(&b)
                .map(|ops| {
                    ops.iter()
                        .filter(|(q, p)| *p == want_produce && pair_of(*q) == Some((from, to)))
                        .map(|(q, _)| *q)
                        .collect()
                })
                .unwrap_or_default()
        };
        let mut blocks: BTreeSet<BlockId> = BTreeSet::new();
        for t in [from, to] {
            blocks.extend(comm_seq[t.index()].keys().copied());
        }
        let mut comm_blocks: BTreeSet<BlockId> = BTreeSet::new();
        for &b in &blocks {
            let produced = seq_of(from, b, true);
            let consumed = seq_of(to, b, false);
            if produced.is_empty() && consumed.is_empty() {
                continue;
            }
            comm_blocks.insert(b);
            if produced != consumed {
                errs.push(MtVerifyError::SequenceMismatch {
                    pair: (from, to),
                    block: b,
                    from_block: from_img.get(&b).copied(),
                    to_block: to_img.get(&b).copied(),
                    produced,
                    consumed,
                });
            }
        }

        // ---- product-CFG walk: from each communicating block (and
        // each thread's entry), the set of *next* communicating
        // original blocks must agree between producer and consumer.
        let next_set = |t: ThreadId, start: Option<BlockId>| -> BTreeSet<BlockId> {
            let tf = &out.threads[t.index()];
            let img = if t == from { &from_img } else { &to_img };
            let origins = &out.origins[t.index()];
            let starts: Vec<BlockId> = match start {
                Some(b) => match img.get(&b) {
                    Some(&g) => tf.successors(g).to_vec(),
                    None => return BTreeSet::new(),
                },
                None => vec![tf.entry()],
            };
            let mut seen: BTreeSet<BlockId> = BTreeSet::new();
            let mut found = BTreeSet::new();
            let mut stack = starts;
            while let Some(g) = stack.pop() {
                if !seen.insert(g) {
                    continue;
                }
                if let Some(&ob) = origins.get(&g) {
                    if comm_blocks.contains(&ob) {
                        found.insert(ob);
                        continue;
                    }
                }
                stack.extend(tf.successors(g));
            }
            found
        };
        let mut walk_from: Vec<Option<BlockId>> = vec![None];
        walk_from.extend(comm_blocks.iter().copied().map(Some));
        for start in walk_from {
            let fx = next_set(from, start);
            let tx = next_set(to, start);
            if fx != tx {
                errs.push(MtVerifyError::ControlDivergence {
                    pair: (from, to),
                    block: start.unwrap_or_else(|| f.entry()),
                    from_next: fx.into_iter().collect(),
                    to_next: tx.into_iter().collect(),
                });
            }
        }
    }

    // ---- Definition 1 closure: recompute relevance from the realized
    // plan; everything relevant must be marked for duplication, and
    // foreign duplicated branches must have their condition delivered.
    let required = gmt_mtcg::relevant_branches(f, pdg.control_deps(), partition, &out.plan);
    for (t_idx, branches) in required.iter().enumerate() {
        let t = ThreadId(t_idx as u32);
        for &br in branches {
            if !out.plan.relevant_branches(t).contains(&br) {
                errs.push(MtVerifyError::MissingControlDuplication { thread: t, branch: br });
                continue;
            }
            let owner = partition.thread_of(br);
            if owner == t {
                continue;
            }
            let Op::Branch { cond, .. } = *f.instr(br) else { continue };
            // The duplicate needs the condition: either thread t
            // computes it itself, or some item delivers it (COCO may
            // have moved the point anywhere that still dominates —
            // freshness is the staleness analysis' job below).
            let computes_locally = f
                .all_instrs()
                .any(|i| f.instr(i).def() == Some(cond) && partition.get(i) == Some(t));
            let receives = out
                .plan
                .items()
                .any(|it| it.kind == CommKind::Register(cond) && it.to == t && !it.points.is_empty());
            if !computes_locally && !receives {
                errs.push(MtVerifyError::MissingBranchOperand { thread: t, branch: br, owner });
            }
        }
    }

    // ---- plan <-> code cross-check: labels bijective with the plan's
    // (item, point) placements, comm instructions at the exact plan
    // positions, branch duplication exactly where marked.
    errs.extend(plan_code_check(f, partition, out));

    // ---- wait graph: potential deadlocks under the allocated
    // per-queue depths, with arcs chained across blocks.
    let depth_of = |q: QueueId| -> usize {
        let d = if queue_depths.len() == 1 {
            queue_depths[0]
        } else {
            queue_depths.get(q.index()).copied().unwrap_or(1)
        };
        d.max(1)
    };
    errs.extend(deadlock_check(out, &comm_seq, &labels, &depth_of));

    // ---- Definitions 1–2 for moved points: register staleness and
    // memory-dependence coverage on the original CFG.
    errs.extend(defs12_check(f, partition, pdg, out));

    errs
}

/// One expected slot of a generated block image: either a scheduled
/// communication op or one of the thread's own (cloned) instructions.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Slot {
    Comm { queue: QueueId, produce: bool, kind: CommKind },
    Own(InstrId),
}

/// The plan↔code position cross-check.
///
/// The plan and the generated code were previously validated
/// *separately*, so a consistent-but-different pair — a comm
/// instruction at the wrong position, a produce of the wrong register
/// over the right queue, an extra or missing branch duplicate — passed
/// both. This maps every generated produce/consume/branch-duplication
/// instruction back to a `CommPlan` point *by position* and rejects any
/// instruction without a plan point or plan point without an
/// instruction:
///
/// 1. labels ↔ plan: every `QueueLabel` names a (point, kind, from, to)
///    the plan placed, exactly once each way;
/// 2. per thread, per original block: replaying codegen's emission
///    order (block start, before/after each instruction, before the
///    terminator — comm in label order at each point, the thread's own
///    instructions in between) must reproduce the image exactly,
///    instruction for instruction;
/// 3. per thread, per original block ending in a branch: the image's
///    terminator is a branch on the same condition iff the thread owns
///    the branch or the plan marks it relevant.
fn plan_code_check(f: &Function, partition: &Partition, out: &MtcgOutput) -> Vec<MtVerifyError> {
    let mut errs = Vec::new();
    let nt = out.threads.len();

    // ---- (1) labels <-> plan placements, as multisets.
    let mut label_count: BTreeMap<(CommPoint, CommKind, ThreadId, ThreadId), usize> =
        BTreeMap::new();
    for l in &out.queue_labels {
        *label_count.entry((l.point, l.kind, l.from, l.to)).or_insert(0) += 1;
    }
    let mut plan_count: BTreeMap<(CommPoint, CommKind, ThreadId, ThreadId), usize> =
        BTreeMap::new();
    for item in out.plan.items() {
        for &p in &item.points {
            *plan_count.entry((p, item.kind, item.from, item.to)).or_insert(0) += 1;
        }
    }
    let keys: BTreeSet<_> = label_count.keys().chain(plan_count.keys()).copied().collect();
    for k in keys {
        let labels = label_count.get(&k).copied().unwrap_or(0);
        let planned = plan_count.get(&k).copied().unwrap_or(0);
        if labels != planned {
            let (point, kind, from, to) = k;
            errs.push(MtVerifyError::PlanLabelMismatch { point, kind, from, to, labels, planned });
        }
    }

    // ---- (2) + (3): replay the emission order per thread, per block.
    let mut at_point: HashMap<CommPoint, Vec<&QueueLabel>> = HashMap::new();
    for l in &out.queue_labels {
        at_point.entry(l.point).or_default().push(l);
    }
    for t_idx in 0..nt {
        let t = ThreadId(t_idx as u32);
        let tf = &out.threads[t_idx];
        let Some(origins) = out.origins.get(t_idx) else { continue };
        let img: HashMap<BlockId, BlockId> = origins.iter().map(|(&g, &b)| (b, g)).collect();
        for b in f.blocks() {
            // Expected slots in codegen's emission order.
            let mut expected: Vec<Slot> = Vec::new();
            let push_point = |p: CommPoint, expected: &mut Vec<Slot>| {
                let Some(ls) = at_point.get(&p) else { return };
                for l in ls {
                    if l.to == t {
                        expected.push(Slot::Comm { queue: l.queue, produce: false, kind: l.kind });
                    } else if l.from == t {
                        expected.push(Slot::Comm { queue: l.queue, produce: true, kind: l.kind });
                    }
                }
            };
            push_point(CommPoint::BlockStart(b), &mut expected);
            for &i in &f.block(b).instrs {
                push_point(CommPoint::Before(i), &mut expected);
                if partition.get(i) == Some(t) {
                    expected.push(Slot::Own(i));
                }
                push_point(CommPoint::After(i), &mut expected);
            }
            let term = f.block(b).terminator;
            if let Some(term) = term {
                push_point(CommPoint::Before(term), &mut expected);
            }
            let gb = img.get(&b).copied();
            if gb.is_none() && expected.is_empty() {
                continue; // nothing scheduled here, no image needed
            }

            // Actual slots: the image's non-terminator instructions.
            // `None` marks a missing image (expected comm with nowhere
            // to live).
            let actual: Vec<(InstrId, &Op)> = match gb {
                Some(g) => tf.block(g).instrs.iter().map(|&i| (i, tf.instr(i))).collect(),
                None => Vec::new(),
            };
            let comm_of = |op: &Op| -> Option<(QueueId, bool, Option<CommKind>)> {
                match *op {
                    Op::Produce { queue, value } => Some((
                        queue,
                        true,
                        match value {
                            gmt_ir::Operand::Reg(r) => Some(CommKind::Register(r)),
                            _ => None,
                        },
                    )),
                    Op::Consume { dst, queue } => {
                        Some((queue, false, Some(CommKind::Register(dst))))
                    }
                    Op::ProduceSync { queue } => Some((queue, true, Some(CommKind::Memory))),
                    Op::ConsumeSync { queue } => Some((queue, false, Some(CommKind::Memory))),
                    _ => None,
                }
            };
            let mut ok = gb.is_some() && expected.len() == actual.len();
            if ok {
                for (slot, &(_, op)) in expected.iter().zip(&actual) {
                    match (*slot, comm_of(op)) {
                        (Slot::Comm { queue, produce, kind }, Some((q, p, k))) => {
                            if q != queue || p != produce || k != Some(kind) {
                                ok = false;
                            }
                        }
                        (Slot::Own(i), None) => {
                            if *op != *f.instr(i) {
                                ok = false;
                            }
                        }
                        _ => ok = false,
                    }
                    if !ok {
                        break;
                    }
                }
            }
            if !ok {
                let proj_exp: Vec<(QueueId, bool)> = expected
                    .iter()
                    .filter_map(|s| match *s {
                        Slot::Comm { queue, produce, .. } => Some((queue, produce)),
                        Slot::Own(_) => None,
                    })
                    .collect();
                let proj_act: Vec<(QueueId, bool)> = actual
                    .iter()
                    .filter_map(|&(_, op)| comm_of(op).map(|(q, p, _)| (q, p)))
                    .collect();
                errs.push(MtVerifyError::PlanCodeMismatch {
                    thread: t,
                    block: b,
                    expected: proj_exp,
                    actual: proj_act,
                });
            }

            // ---- (3) terminator: branch duplication by position.
            let (Some(term), Some(g)) = (term, gb) else { continue };
            let orig_branch = matches!(f.instr(term), Op::Branch { .. });
            let gen_term = tf.block(g).terminator;
            let gen_cond = gen_term.and_then(|gt| match *tf.instr(gt) {
                Op::Branch { cond, .. } => Some(cond),
                _ => None,
            });
            if !orig_branch {
                if gen_cond.is_some() {
                    errs.push(MtVerifyError::BranchDuplicationMismatch {
                        thread: t,
                        block: b,
                        branch: term,
                        expected_duplicate: false,
                    });
                }
                continue;
            }
            let should = partition.get(term) == Some(t)
                || out.plan.relevant_branches(t).contains(&term);
            let Op::Branch { cond, .. } = *f.instr(term) else { unreachable!() };
            let ok = match (should, gen_cond) {
                (true, Some(c)) => c == cond,
                (false, None) => true,
                _ => false,
            };
            if !ok {
                errs.push(MtVerifyError::BranchDuplicationMismatch {
                    thread: t,
                    block: b,
                    branch: term,
                    expected_duplicate: should,
                });
            }
        }
    }
    errs
}

/// DFS back edges of a function's CFG (edges into a block still on the
/// DFS stack). Removing them from the successor relation leaves an
/// acyclic graph over the blocks reachable from entry.
fn back_edges(tf: &Function) -> BTreeSet<(BlockId, BlockId)> {
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let mut color = vec![Color::White; tf.num_blocks()];
    let mut back = BTreeSet::new();
    let entry = tf.entry();
    color[entry.index()] = Color::Gray;
    let mut stack: Vec<(BlockId, Successors, usize)> = vec![(entry, tf.successors(entry), 0)];
    loop {
        let Some(frame) = stack.last_mut() else { break };
        if frame.2 >= frame.1.len() {
            color[frame.0.index()] = Color::Black;
            stack.pop();
            continue;
        }
        let from = frame.0;
        let s = frame.1[frame.2];
        frame.2 += 1;
        match color[s.index()] {
            Color::White => {
                color[s.index()] = Color::Gray;
                let succs = tf.successors(s);
                stack.push((s, succs, 0));
            }
            Color::Gray => {
                back.insert((from, s));
            }
            Color::Black => {}
        }
    }
    back
}

/// Builds the inter-thread wait graph over static communication
/// operations and reports each cycle as a potential deadlock.
///
/// Nodes are the per-block communication occurrences (aligned by the
/// sequence check). Arcs mean "must complete first": program order
/// inside a block image, cross-block program order — the last comm op
/// of a block's image chains to the first comm op of each successor
/// comm block along the thread's *generated* CFG (two threads visiting
/// comm blocks in different orders is exactly the cross-block deadlock
/// class) — produce→consume per matched occurrence, and
/// consume(k)→produce(k+depth_of(q)) back-pressure on each queue at its
/// allocated depth. DFS back edges are excluded from the cross-block
/// chaining (one-iteration semantics; without this every loop whose
/// body communicates would close a spurious program-order cycle).
fn deadlock_check(
    out: &MtcgOutput,
    comm_seq: &[BTreeMap<BlockId, Vec<(QueueId, bool)>>],
    labels: &HashMap<QueueId, Vec<&QueueLabel>>,
    depth_of: &dyn Fn(QueueId) -> usize,
) -> Vec<MtVerifyError> {
    use gmt_graph::{strongly_connected_components, DiGraph, NodeId};
    let mut g = DiGraph::new();
    let mut meta: Vec<WaitStep> = Vec::new();
    // (thread, block) -> (first node, last node) of the image's ops.
    let mut bounds: HashMap<(usize, BlockId), (NodeId, NodeId)> = HashMap::new();
    // (block, queue, occurrence-within-block) -> node, per direction.
    let mut produce_occ: HashMap<(BlockId, QueueId), Vec<NodeId>> = HashMap::new();
    let mut consume_occ: HashMap<(BlockId, QueueId), Vec<NodeId>> = HashMap::new();
    for (t_idx, per_block) in comm_seq.iter().enumerate() {
        let t = ThreadId(t_idx as u32);
        for (&b, ops) in per_block {
            let mut prev: Option<NodeId> = None;
            for &(queue, produce) in ops {
                let n = g.add_node();
                meta.push(WaitStep { thread: t, block: b, queue, produce, depth: depth_of(queue) });
                if let Some(p) = prev {
                    g.add_arc(p, n); // program order within the image
                }
                prev = Some(n);
                bounds
                    .entry((t_idx, b))
                    .and_modify(|(_, last)| *last = n)
                    .or_insert((n, n));
                let occ = if produce { &mut produce_occ } else { &mut consume_occ };
                occ.entry((b, queue)).or_default().push(n);
            }
        }
    }
    // Cross-block program order, following each thread's generated CFG
    // projected through `origins`: from each comm block's image, walk
    // forward (skipping DFS back edges) through comm-free blocks to the
    // next comm-bearing images and chain last -> first.
    for (t_idx, per_block) in comm_seq.iter().enumerate() {
        let (Some(tf), Some(origins)) = (out.threads.get(t_idx), out.origins.get(t_idx)) else {
            continue;
        };
        let img: HashMap<BlockId, BlockId> = origins.iter().map(|(&g, &b)| (b, g)).collect();
        let back = back_edges(tf);
        for &b in per_block.keys() {
            let (Some(&gb), Some(&(_, last))) = (img.get(&b), bounds.get(&(t_idx, b))) else {
                continue;
            };
            let mut stack: Vec<BlockId> =
                tf.successors(gb).into_iter().filter(|&s| !back.contains(&(gb, s))).collect();
            let mut seen: BTreeSet<BlockId> = BTreeSet::new();
            while let Some(g2) = stack.pop() {
                if !seen.insert(g2) {
                    continue;
                }
                if let Some(&b2) = origins.get(&g2) {
                    if let Some(&(first, _)) = bounds.get(&(t_idx, b2)) {
                        g.add_arc(last, first);
                        continue;
                    }
                }
                stack.extend(
                    tf.successors(g2).into_iter().filter(|&s| !back.contains(&(g2, s))),
                );
            }
        }
    }
    // Queue arcs, matched per (block, queue) occurrence index. Only
    // queues with consistent labels participate (others already
    // reported).
    for (&(b, q), prods) in &produce_occ {
        if labels.get(&q).is_none() {
            continue;
        }
        let depth = depth_of(q);
        let cons = consume_occ.get(&(b, q)).map(Vec::as_slice).unwrap_or(&[]);
        for (k, &p) in prods.iter().enumerate() {
            if let Some(&c) = cons.get(k) {
                g.add_arc(p, c); // consume k waits on produce k
            }
            // produce k+depth waits on consume k freeing a slot.
            if let Some(&later) = prods.get(k + depth) {
                if let Some(&c) = cons.get(k) {
                    g.add_arc(c, later);
                }
            }
        }
    }
    let mut errs = Vec::new();
    for scc in strongly_connected_components(&g) {
        if !scc.is_nontrivial() {
            continue;
        }
        // Recover one concrete cycle inside the SCC by walking arcs
        // that stay within it.
        let inside: BTreeSet<u32> = scc.nodes.iter().map(|n| n.0).collect();
        let mut path: Vec<NodeId> = vec![scc.nodes[0]];
        let mut at = scc.nodes[0];
        let witness = loop {
            let next = g
                .succs(at)
                .iter()
                .copied()
                .find(|n| inside.contains(&n.0))
                .expect("SCC node keeps an in-SCC successor");
            if let Some(pos) = path.iter().position(|&n| n == next) {
                break path[pos..].to_vec();
            }
            path.push(next);
            at = next;
        };
        errs.push(MtVerifyError::PotentialDeadlock {
            witness: witness.into_iter().map(|n| meta[n.index()].clone()).collect(),
        });
    }
    errs
}

/// Definitions 1–2 on the original CFG: register points must dominate
/// the uses they feed (no def of the register by the producing thread
/// between the last crossing and the use), and every inter-thread
/// memory dependence must cross a sync point of its pair on all paths.
fn defs12_check(
    f: &Function,
    partition: &Partition,
    pdg: &Pdg,
    out: &MtcgOutput,
) -> Vec<MtVerifyError> {
    let mut errs = Vec::new();
    let preds = f.predecessors();
    for item in out.plan.items() {
        match item.kind {
            CommKind::Register(r) => {
                // Forward may-analysis: `dirty[b]` = entering b, some
                // path saw a def of r (by the producing thread) after
                // the last crossing of one of the item's points.
                // Reading a dirty r at a consuming-thread use is a
                // stale value on that path.
                let uses_r = |i: InstrId| f.instr(i).uses().contains(&r);
                // dirty_in[b] = state at b's entry, before a
                // BlockStart(b) point (the transfer handles it).
                let mut dirty_in = vec![false; f.num_blocks()];
                loop {
                    let mut changed = false;
                    for b in f.reverse_post_order() {
                        let new_in = preds[b.index()].iter().any(|p| {
                            block_out(f, partition, &item.points, *p, dirty_in[p.index()], r, item.from)
                        });
                        if new_in && !dirty_in[b.index()] {
                            dirty_in[b.index()] = true;
                            changed = true;
                        }
                    }
                    if !changed {
                        break;
                    }
                }
                // A duplicated branch's condition may be delivered by
                // the branch's *owner* rather than the def's owner:
                // the owner holds the operand (received via its own
                // checked item, or computed locally) and redistributes
                // it to every duplicating thread right before the
                // branch copy. Such a mediated crossing refreshes
                // `to`'s copy at exactly that use, so it must not
                // count as a stale read of this item's channel. The
                // mediator's own freshness at `i` is delegated: if its
                // copy were stale, the (from -> owner) item's analysis
                // reports it at `i` itself (the owned branch is a
                // consumer use there).
                let mediated_fresh_at = |i: InstrId| {
                    out.plan.items().any(|it2| {
                        it2.kind == CommKind::Register(r)
                            && it2.to == item.to
                            && it2.points.contains(&CommPoint::Before(i))
                            && (it2.from == item.from
                                || partition.get(i) == Some(it2.from))
                    })
                };
                // Collection pass: walk each block from its fixpoint
                // in-state, recording stale uses.
                let mut stale: BTreeSet<InstrId> = BTreeSet::new();
                for b in f.blocks() {
                    let mut d = dirty_in[b.index()]
                        && !item.points.contains(&CommPoint::BlockStart(b));
                    for i in f.block(b).all_instrs() {
                        if item.points.contains(&CommPoint::Before(i)) {
                            d = false;
                        }
                        // A "use by the consumer" is an instruction
                        // assigned to it — or a relevant branch it
                        // duplicates (the copy reads the same value).
                        let duplicated_branch = f.instr(i).is_branch()
                            && out.plan.relevant_branches(item.to).contains(&i);
                        let consumer_use =
                            partition.get(i) == Some(item.to) || duplicated_branch;
                        if d
                            && consumer_use
                            && uses_r(i)
                            && !(duplicated_branch && mediated_fresh_at(i))
                        {
                            stale.insert(i);
                        }
                        if f.instr(i).def() == Some(r) {
                            // A producer def makes the value pending; a
                            // def by anyone else supersedes it.
                            d = partition.get(i) == Some(item.from);
                        }
                        if item.points.contains(&CommPoint::After(i)) {
                            d = false;
                        }
                    }
                }
                for use_instr in stale {
                    errs.push(MtVerifyError::StaleValue {
                        reg: r,
                        use_instr,
                        pair: (item.from, item.to),
                    });
                }
            }
            CommKind::Memory => {
                // Every PDG memory dependence between the pair must
                // cross a sync point on all paths src -> dst: search
                // for a path that avoids every point.
                for dep in pdg.deps() {
                    if dep.kind != DepKind::Memory {
                        continue;
                    }
                    if partition.get(dep.src) != Some(item.from)
                        || partition.get(dep.dst) != Some(item.to)
                    {
                        continue;
                    }
                    if uncovered_path_exists(f, &item.points, dep.src, dep.dst) {
                        errs.push(MtVerifyError::UncoveredMemoryDep {
                            src: dep.src,
                            dst: dep.dst,
                            pair: (item.from, item.to),
                        });
                    }
                }
            }
        }
    }
    errs
}

/// Transfer function of the staleness analysis across one whole block.
fn block_out(
    f: &Function,
    partition: &Partition,
    points: &BTreeSet<CommPoint>,
    b: BlockId,
    dirty_in: bool,
    r: Reg,
    from: ThreadId,
) -> bool {
    let mut d = dirty_in && !points.contains(&CommPoint::BlockStart(b));
    for i in f.block(b).all_instrs() {
        if points.contains(&CommPoint::Before(i)) {
            d = false;
        }
        if f.instr(i).def() == Some(r) {
            d = partition.get(i) == Some(from);
        }
        if points.contains(&CommPoint::After(i)) {
            d = false;
        }
    }
    d
}

/// Does a CFG path from (just after) `src` to `dst` exist that crosses
/// none of `points`? Instruction-level DFS; crossing a point severs
/// the corresponding edge.
fn uncovered_path_exists(
    f: &Function,
    points: &BTreeSet<CommPoint>,
    src: InstrId,
    dst: InstrId,
) -> bool {
    // Successor instructions of instruction i.
    let instr_succs = |i: InstrId| -> Vec<InstrId> {
        let b = f.block_of(i);
        let in_block: Vec<InstrId> = f.block(b).all_instrs().collect();
        let pos = in_block.iter().position(|&x| x == i).expect("instr in its block");
        if pos + 1 < in_block.len() {
            return vec![in_block[pos + 1]];
        }
        f.successors(b)
            .into_iter()
            .filter(|s| !points.contains(&CommPoint::BlockStart(*s)))
            .filter_map(|s| f.block(s).all_instrs().next())
            .collect()
    };
    // Entering instruction i crosses Before(i); leaving it crosses
    // After(i).
    let mut stack: Vec<InstrId> = if points.contains(&CommPoint::After(src)) {
        Vec::new()
    } else {
        instr_succs(src)
    };
    let mut seen: BTreeSet<InstrId> = BTreeSet::new();
    while let Some(i) = stack.pop() {
        if points.contains(&CommPoint::Before(i)) {
            continue; // path would cross the point entering i
        }
        if i == dst {
            return true;
        }
        if !seen.insert(i) {
            continue;
        }
        if points.contains(&CommPoint::After(i)) {
            continue; // crossing on the way out
        }
        stack.extend(instr_succs(i));
    }
    false
}
