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

use gmt_graph::{strongly_connected_components, DiGraph, NodeId, VisitSet};
use gmt_ir::{BlockId, Function, InstrId, Op, QueueId, Reg, Successors};
use gmt_mtcg::{CommItem, CommKind, CommPoint, MtcgOutput, QueueLabel};
use gmt_pdg::{DepKind, Partition, Pdg, ThreadId};
use std::collections::hash_map::Entry;
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
    /// `MtcgOutput::origins` has no table for the thread: nothing says
    /// which original block each of its blocks realizes, so none of its
    /// communication can be aligned (each op is also reported as
    /// [`MtVerifyError::CommOutsideImage`]) and its code is not
    /// replayed against the plan.
    MissingOriginTable {
        /// The thread without a table.
        thread: ThreadId,
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
            MtVerifyError::MissingOriginTable { thread } => {
                write!(f, "thread {thread:?} has no origin table: its blocks realize nothing")
            }
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
    let [errs] = verify_mt_each(f, partition, pdg, out, [queue_depths]);
    errs
}

/// [`verify_mt`] under several depth vectors at once: answer `k` is,
/// element for element, what `verify_mt(.., queue_depths[k])` returns.
///
/// Only the wait graph's back-pressure arcs read the depths — labels,
/// endpoints, sequences, control alignment, Definition 1's closure, the
/// plan↔code replay, staleness and memory coverage are facts of the
/// program alone — so everything else, the wait graph's nodes and its
/// other arcs included, is computed once however many vectors are
/// asked.
pub fn verify_mt_each<const N: usize>(
    f: &Function,
    partition: &Partition,
    pdg: &Pdg,
    out: &MtcgOutput,
    queue_depths: [&[usize]; N],
) -> [Vec<MtVerifyError>; N] {
    let mut errs = Vec::new();
    let nt = out.threads.len();
    let items: Vec<CommItem> = out.plan.items().collect();

    // ---- queue labels: the first label of a queue speaks for it; a
    // later one must name the same pair.
    let mut labels: HashMap<QueueId, (&QueueLabel, bool)> = HashMap::new();
    for l in &out.queue_labels {
        match labels.entry(l.queue) {
            Entry::Vacant(e) => {
                e.insert((l, false));
            }
            Entry::Occupied(mut e) => {
                let (first, reported) = e.get_mut();
                if !*reported && (l.from, l.to) != (first.from, first.to) {
                    *reported = true;
                    errs.push(MtVerifyError::QueueSharedAcrossPairs {
                        queue: first.queue,
                        first: **first,
                        second: *l,
                    });
                }
            }
        }
    }

    // ---- endpoint check + per-thread, per-original-block comm
    // sequences (projected through `origins`).
    let images: Vec<Image<'_>> = out
        .threads
        .iter()
        .enumerate()
        .map(|(t_idx, tf)| {
            let t = ThreadId(t_idx as u32);
            let table = out.origins.get(t_idx);
            if table.is_none() {
                errs.push(MtVerifyError::MissingOriginTable { thread: t });
            }
            let mut image = Image::new(tf, table);
            for g in tf.blocks() {
                let origin = image.origin[g.index()];
                for i in tf.block(g).all_instrs() {
                    let Some((queue, produce)) = comm_op(tf.instr(i)) else { continue };
                    let Some(&(label, _)) = labels.get(&queue) else {
                        errs.push(MtVerifyError::UnlabeledQueue { thread: t, instr: i, queue });
                        continue;
                    };
                    let expected = if produce { label.from } else { label.to };
                    if expected != t {
                        errs.push(MtVerifyError::EndpointViolation {
                            thread: t,
                            instr: i,
                            label: *label,
                        });
                        continue;
                    }
                    let op = CommOp { queue, produce, pair: (label.from, label.to) };
                    match origin {
                        Some(b) => image.comm.entry(b).or_default().push(op),
                        None => errs
                            .push(MtVerifyError::CommOutsideImage { thread: t, instr: i, queue }),
                    }
                }
            }
            image
        })
        .collect();

    // ---- per-pair sequence matching over the aligned block images.
    let pairs: BTreeSet<(ThreadId, ThreadId)> =
        labels.values().map(|(l, _)| (l.from, l.to)).collect();
    for &(from, to) in &pairs {
        if from.index() >= nt || to.index() >= nt {
            continue; // endpoint checks already flagged every op
        }
        let (from_img, to_img) = (&images[from.index()], &images[to.index()]);
        let seq_of = |img: &Image<'_>, b: BlockId, want_produce: bool| -> Vec<QueueId> {
            img.comm
                .get(&b)
                .map(|ops| {
                    ops.iter()
                        .filter(|op| op.produce == want_produce && op.pair == (from, to))
                        .map(|op| op.queue)
                        .collect()
                })
                .unwrap_or_default()
        };
        let blocks: BTreeSet<BlockId> =
            from_img.comm.keys().chain(to_img.comm.keys()).copied().collect();
        let mut comm_blocks: BTreeSet<BlockId> = BTreeSet::new();
        for &b in &blocks {
            let produced = seq_of(from_img, b, true);
            let consumed = seq_of(to_img, b, false);
            if produced.is_empty() && consumed.is_empty() {
                continue;
            }
            comm_blocks.insert(b);
            if produced != consumed {
                errs.push(MtVerifyError::SequenceMismatch {
                    pair: (from, to),
                    block: b,
                    from_block: from_img.image.get(&b).copied(),
                    to_block: to_img.image.get(&b).copied(),
                    produced,
                    consumed,
                });
            }
        }

        // ---- product-CFG walk: from each communicating block (and
        // each thread's entry), the set of *next* communicating
        // original blocks must agree between producer and consumer.
        let mut from_walk = NextCommBlocks::new(from_img, &comm_blocks);
        let mut to_walk = NextCommBlocks::new(to_img, &comm_blocks);
        for start in std::iter::once(None).chain(comm_blocks.iter().copied().map(Some)) {
            let fx = from_walk.after(start);
            let tx = to_walk.after(start);
            if fx != tx {
                errs.push(MtVerifyError::ControlDivergence {
                    pair: (from, to),
                    block: start.unwrap_or_else(|| f.entry()),
                    from_next: fx,
                    to_next: tx,
                });
            }
        }
    }

    // ---- Definition 1 closure: recompute relevance from the realized
    // plan; everything relevant must be marked for duplication, and
    // foreign duplicated branches must have their condition delivered.
    let required = gmt_mtcg::relevant_branches(f, pdg.control_deps(), partition, &out.plan);
    // (register, thread) pairs: the thread defines the register itself
    // / some item delivers it there.
    let mut computes: Vec<(Reg, ThreadId)> = f
        .blocks()
        .flat_map(|b| f.block(b).all_instrs())
        .filter_map(|i| Some((f.instr(i).def()?, partition.get(i)?)))
        .collect();
    computes.sort_unstable();
    let mut receives: Vec<(Reg, ThreadId)> = items
        .iter()
        .filter(|it| !it.points.is_empty())
        .filter_map(|it| match it.kind {
            CommKind::Register(r) => Some((r, it.to)),
            CommKind::Memory => None,
        })
        .collect();
    receives.sort_unstable();
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
            let has = |table: &[(Reg, ThreadId)]| table.binary_search(&(cond, t)).is_ok();
            if !has(&computes) && !has(&receives) {
                errs.push(MtVerifyError::MissingBranchOperand { thread: t, branch: br, owner });
            }
        }
    }

    // ---- plan <-> code cross-check: labels bijective with the plan's
    // (item, point) placements, comm instructions at the exact plan
    // positions, branch duplication exactly where marked.
    errs.extend(plan_code_check(f, partition, out, &items, &images));

    // ---- wait graph: potential deadlocks under the allocated
    // per-queue depths, with arcs chained across blocks. The one check
    // that reads the depths; its errors sit between the ones above and
    // the ones below.
    let wait = WaitGraph::build(&images);

    // ---- Definitions 1–2 for moved points: register staleness and
    // memory-dependence coverage on the original CFG.
    let after = defs12_check(f, partition, pdg, out, &items);

    queue_depths.map(|depths| {
        let depth_of = |q: QueueId| -> usize {
            let d = if depths.len() == 1 {
                depths[0]
            } else {
                depths.get(q.index()).copied().unwrap_or(1)
            };
            d.max(1)
        };
        let mut all = errs.clone();
        all.extend(wait.deadlocks(&depth_of));
        all.extend(after.iter().cloned());
        all
    })
}

/// One communication instruction of a block image that passed the
/// endpoint check.
#[derive(Clone, Copy)]
struct CommOp {
    queue: QueueId,
    produce: bool,
    /// The (from, to) pair of the queue's label.
    pair: (ThreadId, ThreadId),
}

/// One generated thread aligned with the original CFG through its
/// `origins` table, built once per verifier call.
struct Image<'a> {
    tf: &'a Function,
    /// The original block each generated block realizes, by generated
    /// block index.
    origin: Vec<Option<BlockId>>,
    /// The generated image of each original block (the last one, when
    /// several generated blocks claim the same original).
    image: HashMap<BlockId, BlockId>,
    /// The communication of each original block's image, in code order.
    comm: BTreeMap<BlockId, Vec<CommOp>>,
}

impl<'a> Image<'a> {
    /// The alignment of `tf` under `table`; a missing table aligns
    /// nothing (every communication op is then outside any image).
    fn new(tf: &'a Function, table: Option<&BTreeMap<BlockId, BlockId>>) -> Image<'a> {
        let mut origin = vec![None; tf.num_blocks()];
        let mut image = HashMap::new();
        for (&g, &b) in table.into_iter().flatten() {
            // An entry for a block the thread does not have aligns
            // nothing.
            if let Some(slot) = origin.get_mut(g.index()) {
                *slot = Some(b);
                image.insert(b, g);
            }
        }
        Image { tf, origin, image, comm: BTreeMap::new() }
    }
}

/// The walk "which communicating original blocks can this thread reach
/// next", for one pair and one of its threads.
struct NextCommBlocks<'a> {
    img: &'a Image<'a>,
    /// Per generated block: the communicating original block it
    /// realizes, if it does.
    stop: Vec<Option<BlockId>>,
    seen: VisitSet,
    stack: Vec<BlockId>,
}

impl<'a> NextCommBlocks<'a> {
    fn new(img: &'a Image<'a>, comm_blocks: &BTreeSet<BlockId>) -> NextCommBlocks<'a> {
        let stop = img.origin.iter().map(|ob| ob.filter(|ob| comm_blocks.contains(ob))).collect();
        NextCommBlocks { img, stop, seen: VisitSet::new(img.origin.len()), stack: Vec::new() }
    }

    /// The communicating blocks reachable from the image of `start`
    /// (from the thread's entry for `None`) through images that do not
    /// communicate, ascending.
    fn after(&mut self, start: Option<BlockId>) -> Vec<BlockId> {
        let tf = self.img.tf;
        self.seen.clear();
        self.stack.clear();
        match start {
            Some(b) => match self.img.image.get(&b) {
                Some(&g) => self.stack.extend(tf.successors(g)),
                None => return Vec::new(),
            },
            None => self.stack.push(tf.entry()),
        }
        let mut found = Vec::new();
        while let Some(g) = self.stack.pop() {
            if !self.seen.insert(g.index()) {
                continue;
            }
            match self.stop[g.index()] {
                Some(ob) => found.push(ob),
                None => self.stack.extend(tf.successors(g)),
            }
        }
        found.sort_unstable();
        found.dedup();
        found
    }
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
fn plan_code_check(
    f: &Function,
    partition: &Partition,
    out: &MtcgOutput,
    items: &[CommItem],
    images: &[Image<'_>],
) -> Vec<MtVerifyError> {
    let mut errs = Vec::new();

    // ---- (1) labels <-> plan placements, as multisets: per
    // placement, (labels carrying it, times the plan places it).
    let mut counts: BTreeMap<(CommPoint, CommKind, ThreadId, ThreadId), (usize, usize)> =
        BTreeMap::new();
    for l in &out.queue_labels {
        counts.entry((l.point, l.kind, l.from, l.to)).or_default().0 += 1;
    }
    for item in items {
        for &p in &item.points {
            counts.entry((p, item.kind, item.from, item.to)).or_default().1 += 1;
        }
    }
    for ((point, kind, from, to), (labels, planned)) in counts {
        if labels != planned {
            errs.push(MtVerifyError::PlanLabelMismatch { point, kind, from, to, labels, planned });
        }
    }

    // ---- (2) + (3): replay the emission order per thread, per block.
    // The labels of a point are one run of `by_point`, in label order.
    let mut by_point: Vec<&QueueLabel> = out.queue_labels.iter().collect();
    by_point.sort_by_key(|l| l.point);
    let at_point = |p: CommPoint| -> &[&QueueLabel] {
        let start = by_point.partition_point(|l| l.point < p);
        let len = by_point[start..].partition_point(|l| l.point == p);
        &by_point[start..start + len]
    };
    for (t_idx, img) in images.iter().enumerate() {
        let t = ThreadId(t_idx as u32);
        let tf = img.tf;
        if out.origins.get(t_idx).is_none() {
            continue; // reported as a missing table
        }
        for b in f.blocks() {
            // Expected slots in codegen's emission order.
            let mut expected: Vec<Slot> = Vec::new();
            let push_point = |p: CommPoint, expected: &mut Vec<Slot>| {
                for l in at_point(p) {
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
            let gb = img.image.get(&b).copied();
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
            let orig_cond = match *f.instr(term) {
                Op::Branch { cond, .. } => Some(cond),
                _ => None,
            };
            let gen_term = tf.block(g).terminator;
            let gen_cond = gen_term.and_then(|gt| match *tf.instr(gt) {
                Op::Branch { cond, .. } => Some(cond),
                _ => None,
            });
            let Some(cond) = orig_cond else {
                if gen_cond.is_some() {
                    errs.push(MtVerifyError::BranchDuplicationMismatch {
                        thread: t,
                        block: b,
                        branch: term,
                        expected_duplicate: false,
                    });
                }
                continue;
            };
            let should = partition.get(term) == Some(t)
                || out.plan.relevant_branches(t).contains(&term);
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
/// DFS stack), flagged per block and successor slot. Removing them
/// from the successor relation leaves an acyclic graph over the blocks
/// reachable from entry.
fn back_edges(tf: &Function) -> Vec<[bool; 2]> {
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let mut color = vec![Color::White; tf.num_blocks()];
    let mut back = vec![[false; 2]; tf.num_blocks()];
    let entry = tf.entry();
    color[entry.index()] = Color::Gray;
    let mut stack: Vec<(BlockId, Successors, usize)> = vec![(entry, tf.successors(entry), 0)];
    while let Some(frame) = stack.last_mut() {
        if frame.2 >= frame.1.len() {
            color[frame.0.index()] = Color::Black;
            stack.pop();
            continue;
        }
        let from = frame.0;
        let slot = frame.2;
        let s = frame.1[slot];
        frame.2 += 1;
        match color[s.index()] {
            Color::White => {
                color[s.index()] = Color::Gray;
                let succs = tf.successors(s);
                stack.push((s, succs, 0));
            }
            Color::Gray => back[from.index()][slot] = true,
            Color::Black => {}
        }
    }
    back
}

/// The occurrences of one queue within one original block: the nodes
/// of its produce ops and of its consume ops, in code order.
struct QueueOccurrences {
    queue: QueueId,
    produces: Vec<NodeId>,
    consumes: Vec<NodeId>,
}

/// The inter-thread wait graph over static communication operations,
/// less its back-pressure arcs — the part no queue depth enters.
///
/// Nodes are the per-block communication occurrences (aligned by the
/// sequence check). Arcs mean "must complete first": program order
/// inside a block image, cross-block program order — the last comm op
/// of a block's image chains to the first comm op of each successor
/// comm block along the thread's *generated* CFG (two threads visiting
/// comm blocks in different orders is exactly the cross-block deadlock
/// class) — and produce→consume per matched occurrence. DFS back edges
/// are excluded from the cross-block chaining (one-iteration
/// semantics; without this every loop whose body communicates would
/// close a spurious program-order cycle).
struct WaitGraph {
    graph: DiGraph,
    /// The operation each node stands for ([`WaitStep::depth`] unset).
    meta: Vec<WaitStep>,
    queues: Vec<QueueOccurrences>,
}

impl WaitGraph {
    fn build(images: &[Image<'_>]) -> WaitGraph {
        let mut g = DiGraph::new();
        let mut meta: Vec<WaitStep> = Vec::new();
        // (block, queue, produce?, node) of every op, in node order.
        let mut occurrences: Vec<(BlockId, QueueId, bool, NodeId)> = Vec::new();
        // Per thread: original block -> (first node, last node) of the
        // image's ops.
        let mut bounds: Vec<BTreeMap<BlockId, (NodeId, NodeId)>> = Vec::new();
        for (t_idx, img) in images.iter().enumerate() {
            let t = ThreadId(t_idx as u32);
            let mut of_thread = BTreeMap::new();
            for (&b, ops) in &img.comm {
                let mut prev: Option<NodeId> = None;
                for op in ops {
                    let n = g.add_node();
                    meta.push(WaitStep {
                        thread: t,
                        block: b,
                        queue: op.queue,
                        produce: op.produce,
                        depth: 0,
                    });
                    if let Some(p) = prev {
                        g.add_arc(p, n); // program order within the image
                    }
                    prev = Some(n);
                    of_thread.entry(b).and_modify(|(_, last)| *last = n).or_insert((n, n));
                    occurrences.push((b, op.queue, op.produce, n));
                }
            }
            bounds.push(of_thread);
        }
        // Cross-block program order, following each thread's generated
        // CFG projected through `origins`: from each comm block's
        // image, walk forward (skipping DFS back edges) through
        // comm-free blocks to the next comm-bearing images and chain
        // last -> first.
        for (img, bounds) in images.iter().zip(&bounds) {
            if bounds.is_empty() {
                continue;
            }
            let tf = img.tf;
            // Per generated block: the first op of the image it is.
            let first_op: Vec<Option<NodeId>> = img
                .origin
                .iter()
                .map(|ob| ob.and_then(|ob| bounds.get(&ob)).map(|&(first, _)| first))
                .collect();
            let back = back_edges(tf);
            let forward = |g2: BlockId| {
                tf.successors(g2)
                    .into_iter()
                    .zip(back[g2.index()])
                    .filter(|&(_, is_back)| !is_back)
                    .map(|(s, _)| s)
            };
            let mut seen = VisitSet::new(tf.num_blocks());
            let mut stack: Vec<BlockId> = Vec::new();
            for (b, &(_, last)) in bounds {
                let Some(&gb) = img.image.get(b) else { continue };
                seen.clear();
                stack.clear();
                stack.extend(forward(gb));
                while let Some(g2) = stack.pop() {
                    if !seen.insert(g2.index()) {
                        continue;
                    }
                    match first_op[g2.index()] {
                        Some(first) => g.add_arc(last, first),
                        None => stack.extend(forward(g2)),
                    }
                }
            }
        }
        // Queue arcs, matched per (block, queue) occurrence index.
        occurrences.sort_by_key(|&(b, q, ..)| (b, q));
        let queues: Vec<QueueOccurrences> = occurrences
            .chunk_by(|x, y| (x.0, x.1) == (y.0, y.1))
            .map(|ops| {
                let nodes = |want: bool| {
                    ops.iter().filter(|op| op.2 == want).map(|op| op.3).collect()
                };
                QueueOccurrences { queue: ops[0].1, produces: nodes(true), consumes: nodes(false) }
            })
            .collect();
        for occ in &queues {
            for (&p, &c) in occ.produces.iter().zip(&occ.consumes) {
                g.add_arc(p, c); // consume k waits on produce k
            }
        }
        WaitGraph { graph: g, meta, queues }
    }

    /// Adds consume(k)→produce(k+depth_of(q)) back-pressure on each
    /// queue at its allocated depth and reports each cycle of the
    /// completed graph as a potential deadlock.
    fn deadlocks(&self, depth_of: &dyn Fn(QueueId) -> usize) -> Vec<MtVerifyError> {
        let mut g = self.graph.clone();
        for occ in &self.queues {
            let depth = depth_of(occ.queue);
            // produce k+depth waits on consume k freeing a slot.
            for (k, &c) in occ.consumes.iter().enumerate() {
                if let Some(&later) = k.checked_add(depth).and_then(|at| occ.produces.get(at)) {
                    g.add_arc(c, later);
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
                witness: witness
                    .into_iter()
                    .map(|n| {
                        let step = &self.meta[n.index()];
                        WaitStep { depth: depth_of(step.queue), ..step.clone() }
                    })
                    .collect(),
            });
        }
        errs
    }
}

/// Where an instruction sits: its block, and its place among the
/// block's instructions (`None` for an id no block holds).
fn layout(f: &Function) -> Vec<Option<(BlockId, u32)>> {
    let mut at = vec![None; f.num_instrs()];
    for b in f.blocks() {
        for (k, i) in f.block(b).all_instrs().enumerate() {
            at[i.index()] = Some((b, k as u32));
        }
    }
    at
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
    items: &[CommItem],
) -> Vec<MtVerifyError> {
    let mut errs = Vec::new();
    // Built once for every item: instruction layout, definitions and
    // using blocks by register, the memory dependences, and the
    // next-instruction relation the coverage search walks.
    let at = layout(f);
    let nr = f.num_regs() as usize;
    let mut defs_of: Vec<Vec<InstrId>> = vec![Vec::new(); nr];
    let mut blocks_using: Vec<Vec<BlockId>> = vec![Vec::new(); nr];
    for b in f.blocks() {
        for i in f.block(b).all_instrs() {
            let op = f.instr(i);
            if let Some(defs) = op.def().and_then(|d| defs_of.get_mut(d.index())) {
                defs.push(i);
            }
            for u in op.use_slots().into_iter().flatten() {
                if let Some(blocks) = blocks_using.get_mut(u.index()) {
                    if blocks.last() != Some(&b) {
                        blocks.push(b);
                    }
                }
            }
        }
    }
    let mem_deps: Vec<(InstrId, InstrId)> = pdg
        .deps()
        .iter()
        .filter(|d| d.kind == DepKind::Memory)
        .map(|d| (d.src, d.dst))
        .collect();
    let mut paths = InstrPaths::new(f);
    let mut staleness = Staleness::new(f, &at);

    for item in items {
        match item.kind {
            CommKind::Register(r) => {
                let defs = defs_of.get(r.index()).map_or(&[][..], Vec::as_slice);
                let users = blocks_using.get(r.index()).map_or(&[][..], Vec::as_slice);
                staleness.solve(partition, item, defs);
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
                    items.iter().any(|it2| {
                        it2.kind == CommKind::Register(r)
                            && it2.to == item.to
                            && it2.points.contains(&CommPoint::Before(i))
                            && (it2.from == item.from
                                || partition.get(i) == Some(it2.from))
                    })
                };
                // Collection pass: walk each block that reads r from
                // its fixpoint in-state, recording stale uses.
                let mut stale: Vec<InstrId> = Vec::new();
                for &b in users {
                    let mut d = staleness.dirty_at_entry(b)
                        && !item.points.contains(&CommPoint::BlockStart(b));
                    for i in f.block(b).all_instrs() {
                        if item.points.contains(&CommPoint::Before(i)) {
                            d = false;
                        }
                        let op = f.instr(i);
                        if d && op.use_slots().contains(&Some(r)) {
                            // A "use by the consumer" is an instruction
                            // assigned to it — or a relevant branch it
                            // duplicates (the copy reads the same value).
                            let duplicated_branch = op.is_branch()
                                && out.plan.relevant_branches(item.to).contains(&i);
                            let consumer_use =
                                partition.get(i) == Some(item.to) || duplicated_branch;
                            if consumer_use && !(duplicated_branch && mediated_fresh_at(i)) {
                                stale.push(i);
                            }
                        }
                        if op.def() == Some(r) {
                            // A producer def makes the value pending; a
                            // def by anyone else supersedes it.
                            d = partition.get(i) == Some(item.from);
                        }
                        if item.points.contains(&CommPoint::After(i)) {
                            d = false;
                        }
                    }
                }
                stale.sort_unstable();
                errs.extend(stale.into_iter().map(|use_instr| MtVerifyError::StaleValue {
                    reg: r,
                    use_instr,
                    pair: (item.from, item.to),
                }));
            }
            CommKind::Memory => {
                // Every PDG memory dependence between the pair must
                // cross a sync point on all paths src -> dst: search
                // for a path that avoids every point.
                for &(src, dst) in &mem_deps {
                    if partition.get(src) == Some(item.from)
                        && partition.get(dst) == Some(item.to)
                        && paths.uncovered_path_exists(&item.points, src, dst)
                    {
                        errs.push(MtVerifyError::UncoveredMemoryDep {
                            src,
                            dst,
                            pair: (item.from, item.to),
                        });
                    }
                }
            }
        }
    }
    errs
}

/// What a whole block does to the staleness state: nothing, or leave
/// it at a constant whatever it was on entry.
#[derive(Clone, Copy, PartialEq)]
enum Summary {
    Identity,
    Leaves(bool),
}

/// The register staleness analysis of one plan item, on block
/// summaries.
///
/// Forward may-analysis: `dirty` at a point = some path to it saw a def
/// of `r` by the producing thread after the last crossing of one of the
/// item's points. Within a block the state is set by events — a point
/// clears it, a def of `r` sets it to "the producer's def?" — so the
/// block's transfer function is the constant its *last* event leaves,
/// or the identity when it has none, and only blocks holding a def of
/// `r` or a point of the item have events at all. The least fixpoint
/// of `dirty_in[b] = ∨ out(pred)` is then plain reachability: from the
/// successors of every block that leaves `true`, through identity
/// blocks.
struct Staleness<'a> {
    f: &'a Function,
    at: &'a [Option<(BlockId, u32)>],
    summary: Vec<Summary>,
    /// Blocks whose summary the current item set.
    touched: Vec<BlockId>,
    dirty_in: VisitSet,
    stack: Vec<BlockId>,
}

impl<'a> Staleness<'a> {
    fn new(f: &'a Function, at: &'a [Option<(BlockId, u32)>]) -> Staleness<'a> {
        Staleness {
            f,
            at,
            summary: vec![Summary::Identity; f.num_blocks()],
            touched: Vec::new(),
            dirty_in: VisitSet::new(f.num_blocks()),
            stack: Vec::new(),
        }
    }

    /// Solves the analysis for `item`, whose register `defs` define.
    fn solve(&mut self, partition: &Partition, item: &CommItem, defs: &[InstrId]) {
        for b in self.touched.drain(..) {
            self.summary[b.index()] = Summary::Identity;
        }
        // (block, place in the block, what the event leaves): a point
        // before instruction k sits at 3k+1, the instruction's own def
        // at 3k+2, a point after it at 3k+3, the block start at 0.
        let place = |i: InstrId, slot: u32| {
            self.at.get(i.index()).copied().flatten().map(|(b, k)| (b, 3 * k + slot))
        };
        let mut events: Vec<(BlockId, u32, bool)> = Vec::new();
        for &p in &item.points {
            let at = match p {
                CommPoint::BlockStart(b) => (b.index() < self.f.num_blocks()).then_some((b, 0)),
                CommPoint::Before(i) => place(i, 1),
                CommPoint::After(i) => place(i, 3),
            };
            events.extend(at.map(|(b, key)| (b, key, false)));
        }
        for &d in defs {
            // A producer def makes the value pending; a def by anyone
            // else supersedes it.
            events.extend(place(d, 2).map(|(b, key)| (b, key, partition.get(d) == Some(item.from))));
        }
        events.sort_unstable();
        for (k, &(b, _, leaves)) in events.iter().enumerate() {
            if events.get(k + 1).is_none_or(|next| next.0 != b) {
                self.summary[b.index()] = Summary::Leaves(leaves);
                self.touched.push(b);
            }
        }
        self.dirty_in.clear();
        self.stack.clear();
        for &b in &self.touched {
            if self.summary[b.index()] == Summary::Leaves(true) {
                self.stack.extend(self.f.successors(b));
            }
        }
        while let Some(b) = self.stack.pop() {
            if self.dirty_in.insert(b.index()) && self.summary[b.index()] == Summary::Identity {
                self.stack.extend(self.f.successors(b));
            }
        }
    }

    /// The state at `b`'s entry, before a `BlockStart(b)` point.
    fn dirty_at_entry(&self, b: BlockId) -> bool {
        self.dirty_in.contains(b.index())
    }
}

/// The instruction-level successor relation of a function, as tables.
struct InstrPaths<'a> {
    f: &'a Function,
    /// The instruction after each instruction in its block.
    next: Vec<Option<InstrId>>,
    /// The first instruction of each block.
    first: Vec<Option<InstrId>>,
    /// Scratch of the coverage search.
    seen: VisitSet,
    stack: Vec<InstrId>,
}

impl<'a> InstrPaths<'a> {
    fn new(f: &'a Function) -> InstrPaths<'a> {
        let mut next = vec![None; f.num_instrs()];
        let mut first = vec![None; f.num_blocks()];
        for b in f.blocks() {
            let mut prev: Option<InstrId> = None;
            for i in f.block(b).all_instrs() {
                match prev {
                    Some(p) => next[p.index()] = Some(i),
                    None => first[b.index()] = Some(i),
                }
                prev = Some(i);
            }
        }
        let seen = VisitSet::new(next.len());
        InstrPaths { f, next, first, seen, stack: Vec::new() }
    }

    /// Does a CFG path from (just after) `src` to `dst` exist that
    /// crosses none of `points`? Instruction-level DFS; crossing a point
    /// severs the corresponding edge.
    fn uncovered_path_exists(
        &mut self,
        points: &BTreeSet<CommPoint>,
        src: InstrId,
        dst: InstrId,
    ) -> bool {
        let InstrPaths { f, next, first, seen, stack } = self;
        // Pushes the successor instructions of instruction i.
        let push_succs = |i: InstrId, stack: &mut Vec<InstrId>| match next[i.index()] {
            Some(n) => stack.push(n),
            None => stack.extend(
                f.successors(f.block_of(i))
                    .into_iter()
                    .filter(|s| !points.contains(&CommPoint::BlockStart(*s)))
                    .filter_map(|s| first[s.index()]),
            ),
        };
        // Entering instruction i crosses Before(i); leaving it crosses
        // After(i).
        seen.clear();
        stack.clear();
        if !points.contains(&CommPoint::After(src)) {
            push_succs(src, stack);
        }
        while let Some(i) = stack.pop() {
            if points.contains(&CommPoint::Before(i)) {
                continue; // path would cross the point entering i
            }
            if i == dst {
                return true;
            }
            if !seen.insert(i.index()) {
                continue;
            }
            if points.contains(&CommPoint::After(i)) {
                continue; // crossing on the way out
            }
            push_succs(i, stack);
        }
        false
    }
}

/// The pre-change Definitions 1–2 check, kept as the differential
/// reference: per plan item a fixpoint over every block that re-walks
/// each predecessor instruction by instruction, a collection pass over
/// every instruction, and a coverage search that finds an
/// instruction's successors by scanning its block.
#[cfg(test)]
mod reference {
    use super::*;

    pub(super) fn defs12_check(
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
                    let uses_r = |i: InstrId| f.instr(i).uses().contains(&r);
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
                    let mediated_fresh_at = |i: InstrId| {
                        out.plan.items().any(|it2| {
                            it2.kind == CommKind::Register(r)
                                && it2.to == item.to
                                && it2.points.contains(&CommPoint::Before(i))
                                && (it2.from == item.from || partition.get(i) == Some(it2.from))
                        })
                    };
                    let mut stale: BTreeSet<InstrId> = BTreeSet::new();
                    for b in f.blocks() {
                        let mut d = dirty_in[b.index()]
                            && !item.points.contains(&CommPoint::BlockStart(b));
                        for i in f.block(b).all_instrs() {
                            if item.points.contains(&CommPoint::Before(i)) {
                                d = false;
                            }
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
                    for dep in pdg.deps() {
                        if dep.kind != DepKind::Memory
                            || partition.get(dep.src) != Some(item.from)
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

    /// Transfer function of the staleness analysis across one whole
    /// block.
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

    fn uncovered_path_exists(
        f: &Function,
        points: &BTreeSet<CommPoint>,
        src: InstrId,
        dst: InstrId,
    ) -> bool {
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
        let mut stack: Vec<InstrId> =
            if points.contains(&CommPoint::After(src)) { Vec::new() } else { instr_succs(src) };
        let mut seen: BTreeSet<InstrId> = BTreeSet::new();
        while let Some(i) = stack.pop() {
            if points.contains(&CommPoint::Before(i)) {
                continue;
            }
            if i == dst {
                return true;
            }
            if !seen.insert(i) {
                continue;
            }
            if points.contains(&CommPoint::After(i)) {
                continue;
            }
            stack.extend(instr_succs(i));
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flowgraph::tests::for_catalog_and_generated_partitions;
    use gmt_mtcg::CommPlan;
    use gmt_testkit::{prop_assert_eq, splitmix64};

    /// `plan` with, per item, a seeded choice of: nothing, one point
    /// dropped, or one point moved up (after an instruction → before
    /// it → the start of its block → the start of the entry block) —
    /// the ways a placement stops dominating the uses it feeds.
    fn disturbed(f: &Function, plan: &CommPlan, mut seed: u64) -> CommPlan {
        let mut out = CommPlan::new(plan.num_threads());
        for item in plan.items() {
            let mut points = item.points.clone();
            let roll = splitmix64(&mut seed);
            let victim = points.iter().nth((roll >> 8) as usize % points.len().max(1)).copied();
            if let (1 | 2, Some(victim)) = (roll % 4, victim) {
                points.remove(&victim);
                if roll % 4 == 2 {
                    points.insert(match victim {
                        CommPoint::After(i) => CommPoint::Before(i),
                        CommPoint::Before(i) => CommPoint::BlockStart(f.block_of(i)),
                        CommPoint::BlockStart(_) => CommPoint::BlockStart(f.entry()),
                    });
                }
            }
            out.set_points(item.kind, item.from, item.to, points);
        }
        for (t, branches) in plan.all_relevant_branches().iter().enumerate() {
            for &br in branches {
                out.add_relevant_branch(ThreadId(t as u32), br);
            }
        }
        out
    }

    /// Block summaries and reachability against the per-instruction
    /// fixpoint, and the table-driven coverage search against the
    /// scanning one: the same `StaleValue` and `UncoveredMemoryDep`
    /// errors, in the same order, on baseline and COCO plans with
    /// points dropped or moved.
    #[test]
    fn block_summary_staleness_matches_the_per_instruction_fixpoint() {
        let seen = std::cell::Cell::new((0usize, 0usize));
        for_catalog_and_generated_partitions("mtverify::summaries_vs_fixpoint", 40, |f, pdg, partition, profile| {
            let baseline = gmt_mtcg::baseline_plan(f, pdg, partition).map_err(|e| e.to_string())?;
            let (coco, _) = crate::optimize(f, pdg, partition, profile, &crate::CocoConfig::default());
            for (k, plan) in [baseline, coco].into_iter().enumerate() {
                let mut out = gmt_mtcg::generate_with_plan(f, pdg, partition, plan)
                    .map_err(|e| format!("codegen: {e}"))?;
                let clean = out.plan.clone();
                for seed in 0..4u64 {
                    if seed > 0 {
                        out.plan = disturbed(f, &clean, seed * 2 + k as u64);
                    }
                    let items: Vec<CommItem> = out.plan.items().collect();
                    let got = defs12_check(f, partition, pdg, &out, &items);
                    prop_assert_eq!(&got, &reference::defs12_check(f, partition, pdg, &out));
                    prop_assert_eq!(seed > 0 || got.is_empty(), true, "clean plan flagged: {:?}", got);
                    let count = |pick: fn(&MtVerifyError) -> bool| got.iter().filter(|e| pick(e)).count();
                    let (stale, uncovered) = seen.get();
                    seen.set((
                        stale + count(|e| matches!(e, MtVerifyError::StaleValue { .. })),
                        uncovered + count(|e| matches!(e, MtVerifyError::UncoveredMemoryDep { .. })),
                    ));
                }
            }
            Ok(())
        });
        let (stale, uncovered) = seen.get();
        assert!(stale > 100 && uncovered > 20, "{stale} stale values, {uncovered} uncovered deps");
    }
}
