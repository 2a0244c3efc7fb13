//! Dynamic critical-path profiling of a traced run.
//!
//! The paper's speedups are bounded by two things the end-of-run
//! aggregates cannot see: the longest dynamic dependence *recurrence*
//! (§2's thesis — the schedule can never beat the slowest cycle in the
//! dependence graph) and the behavior of the synchronization-array
//! queues that stitch the threads together. [`CritPathSink`] makes
//! both visible: the engine tags every issued instruction with its
//! *last-arrival edge* ([`Arrival`]) — the predecessor event that
//! determined its issue cycle — and this sink chains those edges into
//! the run's dynamic critical path.
//!
//! The construction is the classic last-arrival-edge critical-path
//! model for in-order pipelines: each dynamic instruction has exactly
//! one binding predecessor (the constraint that was satisfied last),
//! so the walk backward from the final retire is a single connected
//! path from cycle 0 to the total cycle count. That gives the same
//! kind of exact accounting [`check_attribution`](crate::trace) gives
//! for per-core cycles: the path's segment lengths provably sum to
//! [`SimResult::cycles`] ([`check_critical_path`]), so a report built
//! from it can say "X% of the run is the `adpcmdec` recurrence, Y% is
//! queue 3 backpressure" with nothing left over.
//!
//! Cross-thread edges need the queue pairing the raw events do not
//! carry: the sink mirrors each queue's FIFO discipline (produces
//! enqueue, consumes pop in order, pending register-consumes pair with
//! the next produce) to resolve *which* produce fed a consume and
//! *which* consume freed the slot a backpressured produce waited for.
//! The mirror is exact because the engine emits queue events in global
//! evaluation order and never fast-forwards across a queue operation.

use crate::sim::SimResult;
use crate::trace::{Arrival, TraceEvent, TraceSink};
use gmt_ir::decoded::{DecodedOp, DecodedProgram};
use gmt_ir::{BlockId, InstrId};
use std::collections::VecDeque;

/// Which kind of last-arrival edge a critical-path segment crossed —
/// the "why was this cycle spent" classification of the path walk.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CpKind {
    /// In-order fetch: the instruction issued as soon as the front end
    /// reached it (program-order predecessor).
    InOrder,
    /// Intra-thread dataflow: waiting on an operand's writer (compute
    /// latency, or the SA delivery latency of an earlier consume).
    Dataflow,
    /// Dataflow whose binding writer was a load — memory latency.
    Load,
    /// Cross-thread value/token arrival: the matching produce on the
    /// other end of a queue bound the issue cycle.
    QueueData,
    /// Queue backpressure: the consume that freed a slot in a full
    /// queue bound a produce's issue cycle.
    QueueSpace,
    /// Synchronization-array request-port contention.
    SaPort,
    /// Issue-width or functional-unit contention.
    Structural,
    /// The outstanding-load limit.
    LoadLimit,
    /// Front-end refill after a branch mispredict.
    Refill,
    /// The tail segment from the path's last issue to the run's final
    /// cycle (the retire of the longest-running core).
    Retire,
}

impl CpKind {
    /// Stable kebab-case name (report and JSON key).
    pub fn name(self) -> &'static str {
        match self {
            CpKind::InOrder => "in-order",
            CpKind::Dataflow => "dataflow",
            CpKind::Load => "load",
            CpKind::QueueData => "queue-data",
            CpKind::QueueSpace => "queue-space",
            CpKind::SaPort => "sa-port",
            CpKind::Structural => "structural",
            CpKind::LoadLimit => "load-limit",
            CpKind::Refill => "refill",
            CpKind::Retire => "retire",
        }
    }

    /// Every kind, in display order.
    pub const ALL: [CpKind; 10] = [
        CpKind::InOrder,
        CpKind::Dataflow,
        CpKind::Load,
        CpKind::QueueData,
        CpKind::QueueSpace,
        CpKind::SaPort,
        CpKind::Structural,
        CpKind::LoadLimit,
        CpKind::Refill,
        CpKind::Retire,
    ];

    /// Position in [`CpKind::ALL`]: the discriminant.
    fn index(self) -> usize {
        self as usize
    }
}

/// Sentinel for "no queue involved" in a node.
const NO_QUEUE: u32 = u32::MAX;

/// Sentinel per-core index for "no node".
const NO_NODE: u32 = u32::MAX;

/// Block of an id no decoded slot carries.
const NO_BLOCK: BlockId = BlockId(u32::MAX);

/// What a deferred piece of a core's newest node's last-arrival edge
/// still needs from the queue event that follows its issue. Only the
/// newest node can await anything, so this is state of the core
/// ([`CoreNodes`]), not of the node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Fill {
    /// Edge fully resolved at issue.
    Done,
    /// A `consume.sync` that waited for visibility: the matching
    /// produce (learned when this node's `Consume` event pops the
    /// FIFO) becomes the predecessor.
    Producer,
    /// A produce that waited for space: the queue's most recent pop
    /// (the consume that freed the slot) becomes the predecessor.
    LastPop,
}

/// The address of a node: a narrow core tag and a `u32` per-core
/// index. Only [`NodeRef::new`] narrows, and it checks, so a run too
/// long or too wide for the encoding ends in
/// [`CritPathSink::critical_path`]'s `Err`, never in a truncated index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct NodeRef {
    idx: u32,
    core: u8,
}

impl NodeRef {
    const NONE: NodeRef = NodeRef { idx: NO_NODE, core: 0 };

    fn new(core: usize, idx: usize) -> Option<NodeRef> {
        let idx = u32::try_from(idx).ok().filter(|&i| i != NO_NODE)?;
        Some(NodeRef { idx, core: u8::try_from(core).ok()? })
    }
}

/// One dynamic instruction in the last-arrival graph. A run stores one
/// per issued instruction, so its size is most of the sink's memory:
/// both node addresses it holds are stored flat (index and core tag
/// apart) with [`NO_NODE`] for "none", and the issue cycle is narrowed
/// to a `u32` at issue, checked like [`NodeRef::new`]'s index.
#[derive(Clone, Copy, Debug)]
struct Node {
    cycle: u32,
    src: InstrId,
    queue: u32,
    /// Per-core index of the binding predecessor; [`NO_NODE`] only for
    /// a core's first instruction with no recorded wait.
    pred: u32,
    /// For a consume, per-core index of the produce that fed it — the
    /// queue's FIFO pairing, stored in the consume itself.
    producer: u32,
    pred_core: u8,
    producer_core: u8,
    kind: CpKind,
    is_consume: bool,
}

/// `size_of::<Node>() <= 24`, checked at compile time (the lengths
/// differ otherwise).
const _: [(); 1] = [(); (std::mem::size_of::<Node>() <= 24) as usize];

impl Node {
    fn pred(&self) -> NodeRef {
        NodeRef { idx: self.pred, core: self.pred_core }
    }

    fn set_pred(&mut self, p: NodeRef) {
        (self.pred, self.pred_core) = (p.idx, p.core);
    }

    fn producer(&self) -> NodeRef {
        NodeRef { idx: self.producer, core: self.producer_core }
    }

    fn set_producer(&mut self, p: NodeRef) {
        (self.producer, self.producer_core) = (p.idx, p.core);
    }
}

/// log2 of the nodes per chunk of a [`CoreNodes`] arena.
const CHUNK_BITS: u32 = 11;

/// Nodes per chunk (48 KiB of 24-byte nodes).
const CHUNK: usize = 1 << CHUNK_BITS;

/// One core's nodes, in a chunked arena, and what its newest node
/// still awaits. Every chunk is allocated with room for exactly
/// [`CHUNK`] nodes and never grown, so a push moves no node and the
/// slack is the unfilled part of the chunk being filled (`tail`).
/// Node `i` is slot `i % CHUNK` of chunk `i / CHUNK`; the chunks
/// before `tail` are full.
#[derive(Debug)]
struct CoreNodes {
    full: Vec<Vec<Node>>,
    tail: Vec<Node>,
    awaiting: Fill,
}

impl CoreNodes {
    fn new() -> CoreNodes {
        CoreNodes { full: Vec::new(), tail: Vec::new(), awaiting: Fill::Done }
    }

    fn len(&self) -> usize {
        (self.full.len() << CHUNK_BITS) + self.tail.len()
    }

    fn push(&mut self, node: Node) {
        if self.tail.len() == self.tail.capacity() {
            self.next_chunk();
        }
        self.tail.push(node);
    }

    /// Files the full `tail` away and starts an empty chunk.
    #[cold]
    #[inline(never)]
    fn next_chunk(&mut self) {
        let full = std::mem::replace(&mut self.tail, Vec::with_capacity(CHUNK));
        if !full.is_empty() {
            self.full.push(full);
        }
    }

    fn get(&self, idx: u32) -> Option<&Node> {
        let (chunk, slot) = ((idx >> CHUNK_BITS) as usize, idx as usize % CHUNK);
        if chunk == self.full.len() {
            self.tail.get(slot)
        } else {
            self.full.get(chunk)?.get(slot)
        }
    }

    fn get_mut(&mut self, idx: u32) -> Option<&mut Node> {
        let (chunk, slot) = ((idx >> CHUNK_BITS) as usize, idx as usize % CHUNK);
        if chunk == self.full.len() {
            self.tail.get_mut(slot)
        } else {
            self.full.get_mut(chunk)?.get_mut(slot)
        }
    }
}

/// One aggregated critical-path entry: all walked edges that share a
/// static instruction, edge kind, and queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CpSegment {
    /// Core the bound instruction issued on.
    pub core: usize,
    /// The bound instruction's original-program id.
    pub src: InstrId,
    /// Its basic block in the thread function (best-effort: the first
    /// decoded slot carrying this id).
    pub block: BlockId,
    /// The edge kind.
    pub kind: CpKind,
    /// The queue involved, for queue edges.
    pub queue: Option<u32>,
    /// How many path edges aggregated here.
    pub count: u64,
    /// Total cycles those edges cover.
    pub cycles: u64,
}

/// The reconstructed dynamic critical path of one run, aggregated
/// three ways. All three decompositions sum to [`CritPath::total`].
#[derive(Clone, Debug, Default)]
#[cfg_attr(test, derive(PartialEq, Eq))]
pub struct CritPath {
    /// Total cycles covered — equals `SimResult::cycles` on a
    /// conserving walk ([`check_critical_path`]).
    pub total: u64,
    /// Number of edges walked (dynamic path length).
    pub edges: u64,
    /// Edges that crossed cores (queue pairings).
    pub crossings: u64,
    /// Cycles per edge kind, indexed like [`CpKind::ALL`].
    pub by_kind: [u64; 10],
    /// Per (static instruction, kind, queue) segments, most expensive
    /// first.
    pub segments: Vec<CpSegment>,
    /// Cycles per (core, basic block), most expensive first.
    pub by_block: Vec<((usize, BlockId), u64)>,
    /// Cycles per queue (queue-data + queue-space edges), most
    /// expensive first.
    pub by_queue: Vec<(u32, u64)>,
}

impl CritPath {
    /// Cycles attributed to `kind`.
    pub fn kind_cycles(&self, kind: CpKind) -> u64 {
        self.by_kind[kind.index()]
    }
}

/// What the sink knows of a static instruction, per core and
/// [`InstrId::index`].
#[derive(Clone, Copy, Debug)]
struct InstrInfo {
    /// Its basic block, for report positions.
    block: BlockId,
    /// Whether its decoded op is a load (classifies a binding dataflow
    /// writer as memory latency).
    load: bool,
}

/// One queue's FIFO mirror.
#[derive(Clone, Debug)]
struct QueueMirror {
    /// Producer nodes whose values sit in the queue.
    entries: VecDeque<NodeRef>,
    /// Register consumes that found the queue empty and went pending
    /// (pair with the next produce, oldest first).
    pending: VecDeque<NodeRef>,
    /// The consume node that most recently freed a slot.
    last_pop: NodeRef,
}

/// A [`TraceSink`] that records every issued instruction's last-arrival
/// edge and mirrors the queues' FIFO pairing, then reconstructs the
/// dynamic critical path with [`CritPathSink::critical_path`].
///
/// Ignores `StallSpan` events entirely, so it observes the identical
/// graph whether or not the engine's stall fast-forward is on.
#[derive(Debug)]
pub struct CritPathSink {
    nodes: Vec<CoreNodes>,
    instrs: Vec<Vec<InstrInfo>>,
    queues: Vec<QueueMirror>,
    finished_at: Vec<u64>,
    cycles: u64,
    ended: bool,
    /// The first event the sink could not record: a core or queue it
    /// was not built for, a node its index encoding cannot address, or
    /// an issue cycle past `u32::MAX`.
    fault: Option<String>,
}

impl CritPathSink {
    /// A sink for a run of `program` on `num_queues` queues.
    pub fn new(program: &DecodedProgram, num_queues: usize) -> CritPathSink {
        let ncores = program.threads().len();
        let mut instrs = Vec::with_capacity(ncores);
        for d in program.threads() {
            // The placeholder of an unterminated block carries no arena
            // id (and never issues); every other slot's id indexes the
            // function's instruction arena, which bounds the table.
            let slots =
                || (0..d.num_slots() as u32).filter(|&pc| !matches!(d.op(pc), DecodedOp::Unterminated));
            let len = slots().map(|pc| d.src(pc).index() + 1).max().unwrap_or(0);
            let mut table = vec![InstrInfo { block: NO_BLOCK, load: false }; len];
            // Back to front, so the first slot carrying an id names its
            // block.
            for pc in slots().rev() {
                let info = &mut table[d.src(pc).index()];
                info.block = d.block(pc);
                info.load |= matches!(d.op(pc), DecodedOp::Load(..));
            }
            instrs.push(table);
        }
        let mirror = QueueMirror {
            entries: VecDeque::new(),
            pending: VecDeque::new(),
            last_pop: NodeRef::NONE,
        };
        CritPathSink {
            nodes: (0..ncores).map(|_| CoreNodes::new()).collect(),
            instrs,
            queues: vec![mirror; num_queues],
            finished_at: vec![0; ncores],
            cycles: 0,
            ended: false,
            fault: None,
        }
    }

    /// Dynamic instructions recorded (graph size).
    pub fn num_nodes(&self) -> u64 {
        self.nodes.iter().map(|n| n.len() as u64).sum()
    }

    fn node(&self, at: NodeRef) -> Option<&Node> {
        self.nodes.get(usize::from(at.core))?.get(at.idx)
    }

    fn info(&self, core: usize, src: InstrId) -> InstrInfo {
        let known = self.instrs[core].get(src.index()).copied();
        known.unwrap_or(InstrInfo { block: NO_BLOCK, load: false })
    }

    /// Remembers the first event that could not be recorded;
    /// [`CritPathSink::critical_path`] returns it.
    #[cold]
    fn fail(&mut self, what: std::fmt::Arguments<'_>) {
        if self.fault.is_none() {
            self.fault = Some(what.to_string());
        }
    }

    /// Whether the sink was built for `core`; an event on any other is
    /// the fault.
    fn has_core(&mut self, core: usize) -> bool {
        let ncores = self.nodes.len();
        if core >= ncores {
            self.fail(format_args!("event on core {core}: the sink was built for {ncores}"));
        }
        core < ncores
    }

    /// Resolves an [`Arrival::Data`] edge at issue time: if the
    /// binding writer was a register consume whose value arrived
    /// *after* the consume issued (the stall-on-use deferred-delivery
    /// path), the real constraint is the cross-thread produce — the
    /// edge is redirected through the FIFO pairing. Otherwise the
    /// writer itself binds (memory latency for loads, compute latency
    /// or local SA delivery for the rest).
    fn resolve_data(&self, core: usize, writer: u64, fallback: NodeRef) -> (CpKind, NodeRef, u32) {
        // `u64::MAX` (never written) is no index either.
        let at = usize::try_from(writer).ok().and_then(|w| NodeRef::new(core, w));
        let Some((at, wn)) = at.and_then(|at| Some((at, self.node(at)?))) else {
            return (CpKind::Dataflow, fallback, NO_QUEUE);
        };
        if wn.is_consume {
            if let Some(pn) = self.node(wn.producer()) {
                if pn.cycle >= wn.cycle {
                    return (CpKind::QueueData, wn.producer(), pn.queue);
                }
            }
            return (CpKind::Dataflow, at, wn.queue);
        }
        let kind = if self.info(core, wn.src).load { CpKind::Load } else { CpKind::Dataflow };
        (kind, at, NO_QUEUE)
    }

    fn issue(&mut self, cycle: u64, core: usize, src: InstrId, arrival: Arrival) {
        if !self.has_core(core) {
            return;
        }
        let len = self.nodes[core].len();
        let Some(here) = NodeRef::new(core, len) else {
            return self.fail(format_args!(
                "core {core} node {len} does not fit a u8 core tag and a u32 index"
            ));
        };
        let Ok(cycle) = u32::try_from(cycle) else {
            return self.fail(format_args!("core {core} issue at cycle {cycle} does not fit a u32"));
        };
        let prev = match here.idx.checked_sub(1) {
            Some(idx) => NodeRef { idx, ..here },
            None => NodeRef::NONE,
        };
        let (kind, pred, queue, fill) = match arrival {
            Arrival::InOrder => (CpKind::InOrder, prev, NO_QUEUE, Fill::Done),
            Arrival::Refill => (CpKind::Refill, prev, NO_QUEUE, Fill::Done),
            Arrival::Resource(r) => {
                use crate::core::StallReason;
                let kind = match r {
                    StallReason::Structural => CpKind::Structural,
                    StallReason::SaPort => CpKind::SaPort,
                    StallReason::LoadLimit => CpKind::LoadLimit,
                    // Unreachable via the engine (those reasons
                    // map to dedicated arrivals); classify
                    // sensibly anyway.
                    StallReason::Operand => CpKind::Dataflow,
                    StallReason::QueueEmpty => CpKind::QueueData,
                    StallReason::QueueFull => CpKind::QueueSpace,
                    StallReason::Mispredict => CpKind::Refill,
                };
                (kind, prev, NO_QUEUE, Fill::Done)
            }
            Arrival::Data { writer } => {
                let (kind, pred, queue) = self.resolve_data(core, writer, prev);
                (kind, pred, queue, Fill::Done)
            }
            Arrival::QueueVisible { queue } => (CpKind::QueueData, prev, queue, Fill::Producer),
            Arrival::QueueSpace { queue } => (CpKind::QueueSpace, prev, queue, Fill::LastPop),
        };
        self.nodes[core].push(Node {
            cycle,
            src,
            queue,
            pred: pred.idx,
            producer: NO_NODE,
            pred_core: pred.core,
            producer_core: 0,
            kind,
            is_consume: false,
        });
        self.nodes[core].awaiting = fill;
    }

    /// The queue mirror and the issuing core's nodes of a queue event,
    /// or the fault if the sink was built for fewer of either.
    fn queue_event(&mut self, core: usize, queue: u32) -> Option<(&mut QueueMirror, &mut CoreNodes)> {
        let nqueues = self.queues.len();
        if !self.has_core(core) {
            return None;
        }
        if queue as usize >= nqueues {
            self.fail(format_args!("event on queue {queue}: the sink was built for {nqueues}"));
            return None;
        }
        Some((&mut self.queues[queue as usize], &mut self.nodes[core]))
    }

    fn produce(&mut self, core: usize, queue: u32) {
        let Some((mirror, nodes)) = self.queue_event(core, queue) else { return };
        let pending = mirror.pending.pop_front();
        let Some(here) = nodes.len().checked_sub(1).and_then(|i| NodeRef::new(core, i)) else { return };
        let Some(node) = nodes.tail.last_mut() else { return };
        node.queue = queue;
        if nodes.awaiting == Fill::LastPop {
            // Backpressured produce: the consume that freed the slot
            // binds. Keep the in-order fallback if the mirror has no
            // pop (a defensive case — a full queue can only drain via
            // a pop).
            if mirror.last_pop != NodeRef::NONE {
                node.set_pred(mirror.last_pop);
            }
            nodes.awaiting = Fill::Done;
        }
        match pending {
            // The value bypasses the queue straight into the oldest
            // pending register consume.
            Some(consumer) => {
                let consumer =
                    self.nodes.get_mut(usize::from(consumer.core)).and_then(|n| n.get_mut(consumer.idx));
                if let Some(consumer) = consumer {
                    consumer.set_producer(here);
                }
            }
            None => mirror.entries.push_back(here),
        }
    }

    fn consume(&mut self, core: usize, queue: u32, deferred: bool) {
        let Some((mirror, nodes)) = self.queue_event(core, queue) else { return };
        let popped = if deferred { None } else { mirror.entries.pop_front() };
        let Some(here) = nodes.len().checked_sub(1).and_then(|i| NodeRef::new(core, i)) else { return };
        let Some(node) = nodes.tail.last_mut() else { return };
        node.queue = queue;
        node.is_consume = true;
        if nodes.awaiting == Fill::Producer {
            // A consume.sync that waited for visibility: the matching
            // produce binds.
            if let Some(p) = popped {
                node.set_pred(p);
            }
            nodes.awaiting = Fill::Done;
        }
        if deferred {
            mirror.pending.push_back(here);
        } else if let Some(prod) = popped {
            node.set_producer(prod);
            mirror.last_pop = here;
        }
    }

    /// Reconstructs the critical path: a backward walk over binding
    /// predecessors from the last instruction of the core that retired
    /// last, down to a node with no predecessor. Each edge's length is
    /// the cycle gap it covers, attributed to the *bound* (successor)
    /// instruction; the leading wait of the start node (if its first
    /// issue was not at cycle 0) and the trailing retire close the
    /// accounting, so the segments sum exactly to the run's cycles.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency: called before
    /// `run_end`, an event for a core or queue the sink was not built
    /// for (or a node index or issue cycle past its encoding), an
    /// empty graph, a predecessor later than its successor, or a walk
    /// longer than the node count (a cycle — impossible by
    /// construction, guarded anyway).
    pub fn critical_path(&self) -> Result<CritPath, String> {
        if !self.ended {
            return Err("critical_path before run_end".to_string());
        }
        if let Some(fault) = &self.fault {
            return Err(fault.clone());
        }
        let mut start_core = None;
        for (ci, &fin) in self.finished_at.iter().enumerate() {
            if start_core.map_or(true, |(_, best)| fin > best) {
                start_core = Some((ci, fin));
            }
        }
        let (start_core, _) = start_core.ok_or("no cores in trace")?;
        let last = self.nodes[start_core].len().checked_sub(1);
        let (mut cur, start) = last
            .and_then(|i| NodeRef::new(start_core, i))
            .and_then(|at| Some((at, self.node(at)?)))
            .ok_or_else(|| format!("core {start_core} finished last but issued nothing"))?;

        // Walked edges accumulate in cells found without hashing: per
        // (core, `InstrId::index()`) the head of a short chain of the
        // (kind, queue) cells of that instruction. One extra slot per
        // core chains the ids no decoded slot carries.
        const NO_CELL: usize = usize::MAX;
        struct Cell {
            seg: CpSegment,
            next: usize,
        }
        let mut heads: Vec<Vec<usize>> =
            self.instrs.iter().map(|t| vec![NO_CELL; t.len() + 1]).collect();
        let mut cells: Vec<Cell> = Vec::new();
        let mut add = |node: &Node, at: NodeRef, kind: CpKind, len: u64| {
            let core = usize::from(at.core);
            let queue = (node.queue != NO_QUEUE).then_some(node.queue);
            let chain = &mut heads[core];
            let slot = node.src.index().min(chain.len() - 1);
            let mut c = chain[slot];
            while c != NO_CELL {
                let cell = &mut cells[c];
                if cell.seg.src == node.src && cell.seg.kind == kind && cell.seg.queue == queue {
                    cell.seg.count += 1;
                    cell.seg.cycles += len;
                    return;
                }
                c = cell.next;
            }
            let seg = CpSegment {
                core,
                src: node.src,
                block: self.info(core, node.src).block,
                kind,
                queue,
                count: 1,
                cycles: len,
            };
            cells.push(Cell { seg, next: chain[slot] });
            chain[slot] = cells.len() - 1;
        };

        let mut cp = CritPath::default();
        if u64::from(start.cycle) > self.cycles {
            return Err(format!(
                "last issue at cycle {} past run end {}",
                start.cycle, self.cycles
            ));
        }
        add(start, cur, CpKind::Retire, self.cycles - u64::from(start.cycle));
        let limit = self.num_nodes() + 1;
        let mut hops = 0u64;
        let mut n = start;
        loop {
            match self.node(n.pred()) {
                Some(pn) => {
                    if pn.cycle > n.cycle {
                        return Err(format!(
                            "predecessor at cycle {} after successor at cycle {} \
                             (core {} node {} kind {})",
                            pn.cycle,
                            n.cycle,
                            cur.core,
                            cur.idx,
                            n.kind.name()
                        ));
                    }
                    add(n, cur, n.kind, u64::from(n.cycle - pn.cycle));
                    cp.edges += 1;
                    if n.pred_core != cur.core {
                        cp.crossings += 1;
                    }
                    cur = n.pred();
                    n = pn;
                }
                None => {
                    // The path's origin: any cycles before its issue
                    // were spent waiting on whatever its own edge kind
                    // names (e.g. a peer hogging the SA ports), with
                    // no earlier event to anchor to.
                    if n.cycle > 0 {
                        add(n, cur, n.kind, u64::from(n.cycle));
                        cp.edges += 1;
                    }
                    break;
                }
            }
            hops += 1;
            if hops > limit {
                return Err("last-arrival walk exceeded node count (cycle in graph)".to_string());
            }
        }

        // Every decomposition is a regrouping of the cells.
        for Cell { seg, .. } in &cells {
            cp.total += seg.cycles;
            cp.by_kind[seg.kind.index()] += seg.cycles;
        }
        cp.by_block = summed_desc(cells.iter().map(|c| ((c.seg.core, c.seg.block), c.seg.cycles)));
        let queue_edge = |c: &&Cell| matches!(c.seg.kind, CpKind::QueueData | CpKind::QueueSpace);
        cp.by_queue = summed_desc(
            cells.iter().filter(queue_edge).filter_map(|c| Some((c.seg.queue?, c.seg.cycles))),
        );
        cp.segments = cells.into_iter().map(|c| c.seg).collect();
        cp.segments
            .sort_by(|a, b| b.cycles.cmp(&a.cycles).then_with(|| {
                (a.core, a.src.0, a.kind, a.queue).cmp(&(b.core, b.src.0, b.kind, b.queue))
            }));
        Ok(cp)
    }
}

/// Sums `items` by key; most expensive first, then by key.
fn summed_desc<K: Ord + Copy>(items: impl Iterator<Item = (K, u64)>) -> Vec<(K, u64)> {
    let mut v: Vec<(K, u64)> = items.collect();
    v.sort_by_key(|&(k, _)| k);
    v.dedup_by(|next, sum| {
        let same = next.0 == sum.0;
        if same {
            sum.1 += next.1;
        }
        same
    });
    v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    v
}

impl TraceSink for CritPathSink {
    fn event(&mut self, ev: &TraceEvent) {
        match *ev {
            TraceEvent::Issue { cycle, core, src, arrival } => self.issue(cycle, core, src, arrival),
            TraceEvent::Produce { core, queue, .. } => self.produce(core, queue),
            TraceEvent::Consume { core, queue, deferred, .. } => self.consume(core, queue, deferred),
            TraceEvent::Finish { cycle, core } => {
                if self.has_core(core) {
                    self.finished_at[core] = cycle + 1;
                }
            }
            // The critical path is about issues, not waits: the stall
            // stream (per-cycle or fast-forwarded spans) carries no
            // extra information once each issue knows its binding
            // edge.
            TraceEvent::StallSpan { .. } => {}
        }
    }

    fn run_end(&mut self, cycles: u64) {
        self.cycles = cycles;
        self.ended = true;
    }
}

/// Checks critical-path conservation on a finished sink against the
/// run it observed: the reconstructed path must cover the run's cycle
/// count exactly — the analogue of
/// [`check_attribution`](crate::trace::check_attribution).
///
/// # Errors
///
/// Returns the walk error, or a description of the shortfall if the
/// path's segments do not sum to `result.cycles`.
pub fn check_critical_path(sink: &CritPathSink, result: &SimResult) -> Result<CritPath, String> {
    let cp = sink.critical_path()?;
    if cp.total != result.cycles {
        return Err(format!(
            "critical path covers {} cycles but the run took {}",
            cp.total, result.cycles
        ));
    }
    let by_kind: u64 = cp.by_kind.iter().sum();
    if by_kind != cp.total {
        return Err(format!(
            "by-kind decomposition sums to {by_kind}, path total is {}",
            cp.total
        ));
    }
    Ok(cp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::StallReason;
    use gmt_ir::{BinOp, FunctionBuilder};
    use std::collections::HashMap;

    fn program_one_chain() -> DecodedProgram {
        let mut b = FunctionBuilder::new("chain");
        let x = b.param();
        let y = b.bin(BinOp::Mul, x, 3i64);
        let z = b.bin(BinOp::Add, y, 1i64);
        b.ret(Some(z.into()));
        DecodedProgram::decode(&[b.finish().unwrap()]).unwrap()
    }

    fn issue(cycle: u64, core: usize, src: u32, arrival: Arrival) -> TraceEvent {
        TraceEvent::Issue { cycle, core, src: InstrId(src), arrival }
    }

    #[test]
    fn straight_line_walk_conserves() {
        let p = program_one_chain();
        let mut s = CritPathSink::new(&p, 0);
        s.event(&issue(0, 0, 0, Arrival::InOrder));
        s.event(&issue(3, 0, 1, Arrival::Data { writer: 0 }));
        s.event(&issue(4, 0, 2, Arrival::Data { writer: 1 }));
        s.event(&TraceEvent::Finish { cycle: 4, core: 0 });
        s.run_end(5);
        let cp = s.critical_path().unwrap();
        assert_eq!(cp.total, 5);
        assert_eq!(cp.kind_cycles(CpKind::Dataflow), 4);
        assert_eq!(cp.kind_cycles(CpKind::Retire), 1);
        assert_eq!(cp.crossings, 0);
        assert_eq!(cp.edges, 2);
    }

    #[test]
    fn queue_visible_edge_crosses_to_producer() {
        // Core 0 produces at cycle 2; core 1's consume.sync waits and
        // issues at cycle 4 once the token is visible.
        let p = DecodedProgram::decode(&{
            let mut b = FunctionBuilder::new("t");
            b.ret(None);
            vec![b.finish().unwrap(), {
                let mut b = FunctionBuilder::new("u");
                b.ret(None);
                b.finish().unwrap()
            }]
        })
        .unwrap();
        let mut s = CritPathSink::new(&p, 1);
        s.event(&issue(2, 0, 0, Arrival::InOrder));
        s.event(&TraceEvent::Produce { cycle: 2, core: 0, queue: 0, occupancy: 1 });
        s.event(&issue(3, 0, 1, Arrival::InOrder));
        s.event(&TraceEvent::Finish { cycle: 3, core: 0 });
        s.event(&issue(4, 1, 0, Arrival::QueueVisible { queue: 0 }));
        s.event(&TraceEvent::Consume { cycle: 4, core: 1, queue: 0, occupancy: 0, deferred: false });
        s.event(&issue(5, 1, 1, Arrival::InOrder));
        s.event(&TraceEvent::Finish { cycle: 5, core: 1 });
        s.run_end(6);
        let cp = s.critical_path().unwrap();
        // Walk: retire(6-5=1) <- in-order(5-4=1) <- queue-data(4-2=2)
        // <- [core 0 produce at 2] in-order back to cycle... produce's
        // pred is None at idx 0, so its leading 2 cycles close the sum.
        assert_eq!(cp.total, 6);
        assert_eq!(cp.kind_cycles(CpKind::QueueData), 2);
        assert_eq!(cp.crossings, 1);
        assert_eq!(cp.by_queue, vec![(0, 2)]);
    }

    #[test]
    fn deferred_consume_redirects_to_producer() {
        // Core 1: register consume at cycle 1 (deferred), user stalls
        // on the operand until core 0's produce at cycle 5 delivers
        // (ready at 6); user issues at 6 with a Data edge through the
        // consume — which must redirect to the produce.
        let p = DecodedProgram::decode(&{
            let mut b = FunctionBuilder::new("t");
            b.ret(None);
            vec![b.finish().unwrap(), {
                let mut b = FunctionBuilder::new("u");
                b.ret(None);
                b.finish().unwrap()
            }]
        })
        .unwrap();
        let mut s = CritPathSink::new(&p, 1);
        s.event(&issue(1, 1, 0, Arrival::InOrder));
        s.event(&TraceEvent::Consume { cycle: 1, core: 1, queue: 0, occupancy: 0, deferred: true });
        s.event(&issue(5, 0, 0, Arrival::InOrder));
        s.event(&TraceEvent::Produce { cycle: 5, core: 0, queue: 0, occupancy: 0 });
        s.event(&TraceEvent::Finish { cycle: 5, core: 0 });
        s.event(&issue(6, 1, 1, Arrival::Data { writer: 0 }));
        s.event(&TraceEvent::Finish { cycle: 6, core: 1 });
        s.run_end(7);
        let cp = s.critical_path().unwrap();
        assert_eq!(cp.total, 7);
        // user <- produce is 1 cycle of queue-data; produce's leading
        // 5 cycles close at its in-order origin.
        assert_eq!(cp.kind_cycles(CpKind::QueueData), 1);
        assert_eq!(cp.crossings, 1);
    }

    #[test]
    fn queue_space_edge_points_at_freeing_consume() {
        let p = DecodedProgram::decode(&{
            let mut b = FunctionBuilder::new("t");
            b.ret(None);
            vec![b.finish().unwrap(), {
                let mut b = FunctionBuilder::new("u");
                b.ret(None);
                b.finish().unwrap()
            }]
        })
        .unwrap();
        let mut s = CritPathSink::new(&p, 1);
        // Fill the depth-1 queue at cycle 0, consumer pops at cycle 4,
        // the backpressured second produce issues at cycle 4.
        s.event(&issue(0, 0, 0, Arrival::InOrder));
        s.event(&TraceEvent::Produce { cycle: 0, core: 0, queue: 0, occupancy: 1 });
        s.event(&issue(4, 1, 0, Arrival::QueueVisible { queue: 0 }));
        s.event(&TraceEvent::Consume { cycle: 4, core: 1, queue: 0, occupancy: 0, deferred: false });
        s.event(&TraceEvent::Finish { cycle: 4, core: 1 });
        s.event(&issue(4, 0, 1, Arrival::QueueSpace { queue: 0 }));
        s.event(&TraceEvent::Produce { cycle: 4, core: 0, queue: 0, occupancy: 1 });
        s.event(&issue(5, 0, 2, Arrival::InOrder));
        s.event(&TraceEvent::Finish { cycle: 5, core: 0 });
        s.run_end(6);
        let cp = s.critical_path().unwrap();
        assert_eq!(cp.total, 6);
        // retire(1) <- in-order(1) <- queue-space(0) <- queue-data at
        // the freeing consume (4-0=4) <- produce origin at cycle 0.
        assert_eq!(cp.kind_cycles(CpKind::QueueSpace), 0);
        assert_eq!(cp.kind_cycles(CpKind::QueueData), 4);
        assert_eq!(cp.crossings, 2);
    }

    #[test]
    fn conservation_check_rejects_shortfall() {
        let p = program_one_chain();
        let mut s = CritPathSink::new(&p, 0);
        s.event(&issue(0, 0, 0, Arrival::InOrder));
        s.event(&TraceEvent::Finish { cycle: 0, core: 0 });
        s.run_end(1);
        let cp = s.critical_path().unwrap();
        assert_eq!(cp.total, 1);
        assert_eq!(cp.kind_cycles(CpKind::Retire), 1);
    }

    #[test]
    fn resource_arrival_classifies_by_reason() {
        let p = program_one_chain();
        let mut s = CritPathSink::new(&p, 0);
        s.event(&issue(0, 0, 0, Arrival::InOrder));
        s.event(&issue(3, 0, 1, Arrival::Resource(StallReason::Structural)));
        s.event(&issue(9, 0, 2, Arrival::Resource(StallReason::LoadLimit)));
        s.event(&TraceEvent::Finish { cycle: 9, core: 0 });
        s.run_end(10);
        let cp = s.critical_path().unwrap();
        assert_eq!(cp.total, 10);
        assert_eq!(cp.kind_cycles(CpKind::Structural), 3);
        assert_eq!(cp.kind_cycles(CpKind::LoadLimit), 6);
        assert_eq!(cp.kind_cycles(CpKind::Retire), 1);
    }

    // ---- a sink built for less than the run ----

    #[test]
    fn events_outside_the_sink_end_in_err() {
        let p = program_one_chain();
        let finish = |mut s: CritPathSink| {
            s.event(&issue(0, 0, 0, Arrival::InOrder));
            s.event(&TraceEvent::Finish { cycle: 0, core: 0 });
            s.run_end(1);
            s.critical_path()
        };
        // Built for one queue, fed queue 5.
        let mut s = CritPathSink::new(&p, 1);
        s.event(&issue(0, 0, 0, Arrival::InOrder));
        s.event(&TraceEvent::Produce { cycle: 0, core: 0, queue: 5, occupancy: 1 });
        s.event(&TraceEvent::Consume { cycle: 0, core: 0, queue: 9, occupancy: 0, deferred: false });
        let err = finish(s).unwrap_err();
        assert!(err.contains("queue 5") && err.contains("built for 1"), "the first one: {err}");
        // Built for one core, fed core 1: an issue, a queue event, a finish.
        for ev in [
            issue(0, 1, 0, Arrival::InOrder),
            TraceEvent::Consume { cycle: 0, core: 1, queue: 0, occupancy: 0, deferred: true },
            TraceEvent::Finish { cycle: 0, core: 1 },
        ] {
            let mut s = CritPathSink::new(&p, 1);
            s.event(&ev);
            let err = finish(s).unwrap_err();
            assert!(err.contains("core 1") && err.contains("built for 1"), "{ev:?}: {err}");
        }
        assert!(finish(CritPathSink::new(&p, 1)).is_ok(), "the same stream in range");
    }

    #[test]
    fn node_addresses_narrow_checked() {
        assert_eq!(NodeRef::new(255, 7), Some(NodeRef { idx: 7, core: 255 }));
        assert_eq!(NodeRef::new(256, 7), None, "core tag is a u8");
        let top = NO_NODE as usize;
        assert_eq!(NodeRef::new(0, top - 1).map(|r| r.idx), Some(NO_NODE - 1));
        assert_eq!(NodeRef::new(0, top), None, "the sentinel is no index");
        assert_eq!(NodeRef::new(0, top + 1), None, "never truncated");
    }

    #[test]
    fn issue_cycles_narrow_checked() {
        let p = program_one_chain();
        let run = |last: u64| {
            let mut s = CritPathSink::new(&p, 0);
            s.event(&issue(0, 0, 0, Arrival::InOrder));
            s.event(&issue(last, 0, 1, Arrival::InOrder));
            s.event(&TraceEvent::Finish { cycle: last, core: 0 });
            s.run_end(last + 1);
            s.critical_path()
        };
        let top = u64::from(u32::MAX);
        assert_eq!(run(top).map(|cp| cp.total), Ok(top + 1), "u32::MAX itself fits");
        for past in [top + 1, 1 << 40] {
            let err = run(past).unwrap_err();
            assert!(err.contains(&format!("cycle {past} does not fit a u32")), "never truncated: {err}");
        }
    }

    #[test]
    fn a_core_holds_one_chunk_per_chunk_of_nodes() {
        let p = program_one_chain();
        let mut s = CritPathSink::new(&p, 0);
        s.event(&issue(0, 0, 0, Arrival::InOrder));
        let first = s.nodes[0].tail.as_ptr();
        for n in 2..=3 * CHUNK + 1 {
            s.event(&issue(n as u64, 0, (n % 3) as u32, Arrival::InOrder));
            let CoreNodes { full, tail, .. } = &s.nodes[0];
            assert_eq!(full.len() + 1, n.div_ceil(CHUNK), "after {n} nodes");
            assert!(full.iter().all(|c| c.len() == CHUNK), "after {n} nodes");
            assert_eq!(tail.capacity(), CHUNK, "allocated whole, never grown");
        }
        assert_eq!(s.nodes[0].full[0].as_ptr(), first, "no node moved");
        assert_eq!(s.num_nodes(), 3 * CHUNK as u64 + 1);
    }

    #[test]
    fn kind_index_is_the_position_in_all() {
        for (i, kind) in CpKind::ALL.into_iter().enumerate() {
            assert_eq!(kind.index(), i, "{}", kind.name());
        }
    }

    // ---- the sink against its pre-change implementation (property) ----

    /// A planted defect in the reference.
    #[derive(Clone, Copy, PartialEq, Eq)]
    enum Mutant {
        None,
        /// Redirect a deferred consume to its producer only when the
        /// produce is *strictly* later (the rule is "not earlier").
        StrictRedirect,
        /// A backpressured produce keeps its in-order predecessor.
        NoLastPop,
    }

    /// The sink as it was before the dense rewrite — a 48-byte node
    /// with `Option<(core, index)>` addresses, the FIFO pairing in a
    /// hash map keyed by consume node, and a walk that accumulates in
    /// three more — kept as the differential reference.
    struct Reference {
        nodes: Vec<Vec<RefNode>>,
        loads: Vec<HashMap<InstrId, ()>>,
        blocks: Vec<HashMap<InstrId, BlockId>>,
        entries: Vec<VecDeque<(usize, usize)>>,
        pending: Vec<VecDeque<(usize, usize)>>,
        pairing: HashMap<(usize, usize), (usize, usize)>,
        last_pop: Vec<Option<(usize, usize)>>,
        finished_at: Vec<u64>,
        cycles: u64,
        ended: bool,
        mutant: Mutant,
    }

    #[derive(Clone, Copy)]
    struct RefNode {
        cycle: u64,
        src: InstrId,
        kind: CpKind,
        pred: Option<(usize, usize)>,
        queue: u32,
        is_consume: bool,
        fill: Fill,
    }

    impl Reference {
        fn new(program: &DecodedProgram, num_queues: usize, mutant: Mutant) -> Reference {
            let ncores = program.threads().len();
            let mut loads = Vec::with_capacity(ncores);
            let mut blocks = Vec::with_capacity(ncores);
            for d in program.threads() {
                let mut lm = HashMap::new();
                let mut bm = HashMap::new();
                for pc in 0..d.num_slots() as u32 {
                    if matches!(d.op(pc), DecodedOp::Load(..)) {
                        lm.insert(d.src(pc), ());
                    }
                    bm.entry(d.src(pc)).or_insert_with(|| d.block(pc));
                }
                loads.push(lm);
                blocks.push(bm);
            }
            Reference {
                nodes: vec![Vec::new(); ncores],
                loads,
                blocks,
                entries: vec![VecDeque::new(); num_queues],
                pending: vec![VecDeque::new(); num_queues],
                pairing: HashMap::new(),
                last_pop: vec![None; num_queues],
                finished_at: vec![0; ncores],
                cycles: 0,
                ended: false,
                mutant,
            }
        }

        fn num_nodes(&self) -> u64 {
            self.nodes.iter().map(|n| n.len() as u64).sum()
        }

        fn resolve_data(
            &self,
            core: usize,
            writer: u64,
            fallback: Option<(usize, usize)>,
        ) -> (CpKind, Option<(usize, usize)>, u32) {
            let w = writer as usize;
            if writer == u64::MAX || w >= self.nodes[core].len() {
                return (CpKind::Dataflow, fallback, NO_QUEUE);
            }
            let wn = self.nodes[core][w];
            if wn.is_consume {
                if let Some(&prod) = self.pairing.get(&(core, w)) {
                    let pn = self.nodes[prod.0][prod.1];
                    let later = match self.mutant {
                        Mutant::StrictRedirect => pn.cycle > wn.cycle,
                        _ => pn.cycle >= wn.cycle,
                    };
                    if later {
                        return (CpKind::QueueData, Some(prod), pn.queue);
                    }
                }
                return (CpKind::Dataflow, Some((core, w)), wn.queue);
            }
            let kind = if self.loads[core].contains_key(&wn.src) {
                CpKind::Load
            } else {
                CpKind::Dataflow
            };
            (kind, Some((core, w)), NO_QUEUE)
        }

        fn critical_path(&self) -> Result<CritPath, String> {
            if !self.ended {
                return Err("critical_path before run_end".to_string());
            }
            let mut start_core = None;
            for (ci, &fin) in self.finished_at.iter().enumerate() {
                if start_core.map_or(true, |(_, best)| fin > best) {
                    start_core = Some((ci, fin));
                }
            }
            let (start_core, _) = start_core.ok_or("no cores in trace")?;
            if self.nodes[start_core].is_empty() {
                return Err(format!("core {start_core} finished last but issued nothing"));
            }

            let mut cp = CritPath::default();
            let mut segs: HashMap<(usize, InstrId, CpKind, u32), (u64, u64)> = HashMap::new();
            let mut blocks: HashMap<(usize, BlockId), u64> = HashMap::new();
            let mut queues: HashMap<u32, u64> = HashMap::new();
            let mut add = |cp: &mut CritPath, node: &RefNode, core: usize, kind: CpKind, len: u64| {
                cp.total += len;
                cp.by_kind[CpKind::ALL.iter().position(|&k| k == kind).unwrap()] += len;
                let e = segs.entry((core, node.src, kind, node.queue)).or_insert((0, 0));
                e.0 += 1;
                e.1 += len;
                let block =
                    self.blocks[core].get(&node.src).copied().unwrap_or(BlockId(u32::MAX));
                *blocks.entry((core, block)).or_insert(0) += len;
                if matches!(kind, CpKind::QueueData | CpKind::QueueSpace) && node.queue != NO_QUEUE {
                    *queues.entry(node.queue).or_insert(0) += len;
                }
            };

            let mut cur = (start_core, self.nodes[start_core].len() - 1);
            let start = &self.nodes[cur.0][cur.1];
            if start.cycle > self.cycles {
                return Err(format!(
                    "last issue at cycle {} past run end {}",
                    start.cycle, self.cycles
                ));
            }
            add(&mut cp, start, cur.0, CpKind::Retire, self.cycles - start.cycle);
            let limit = self.num_nodes() + 1;
            let mut hops = 0u64;
            loop {
                let n = self.nodes[cur.0][cur.1];
                match n.pred {
                    Some(p) => {
                        let pn = &self.nodes[p.0][p.1];
                        if pn.cycle > n.cycle {
                            return Err(format!(
                                "predecessor at cycle {} after successor at cycle {} \
                                 (core {} node {} kind {})",
                                pn.cycle,
                                n.cycle,
                                cur.0,
                                cur.1,
                                n.kind.name()
                            ));
                        }
                        add(&mut cp, &n, cur.0, n.kind, n.cycle - pn.cycle);
                        cp.edges += 1;
                        if p.0 != cur.0 {
                            cp.crossings += 1;
                        }
                        cur = p;
                    }
                    None => {
                        if n.cycle > 0 {
                            add(&mut cp, &n, cur.0, n.kind, n.cycle);
                            cp.edges += 1;
                        }
                        break;
                    }
                }
                hops += 1;
                if hops > limit {
                    return Err("last-arrival walk exceeded node count (cycle in graph)".to_string());
                }
            }

            cp.segments = segs
                .into_iter()
                .map(|((core, src, kind, queue), (count, cycles))| CpSegment {
                    core,
                    src,
                    block: self.blocks[core].get(&src).copied().unwrap_or(BlockId(u32::MAX)),
                    kind,
                    queue: (queue != NO_QUEUE).then_some(queue),
                    count,
                    cycles,
                })
                .collect();
            cp.segments
                .sort_by(|a, b| b.cycles.cmp(&a.cycles).then_with(|| {
                    (a.core, a.src.0, a.kind, a.queue).cmp(&(b.core, b.src.0, b.kind, b.queue))
                }));
            cp.by_block = sorted_desc(blocks);
            cp.by_queue = sorted_desc(queues);
            Ok(cp)
        }
    }

    fn sorted_desc<K: Ord + Copy>(m: HashMap<K, u64>) -> Vec<(K, u64)> {
        let mut v: Vec<(K, u64)> = m.into_iter().collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v
    }

    impl TraceSink for Reference {
        fn event(&mut self, ev: &TraceEvent) {
            match *ev {
                TraceEvent::Issue { cycle, core, src, arrival } => {
                    let idx = self.nodes[core].len();
                    let prev = idx.checked_sub(1).map(|i| (core, i));
                    let (kind, pred, queue, fill) = match arrival {
                        Arrival::InOrder => (CpKind::InOrder, prev, NO_QUEUE, Fill::Done),
                        Arrival::Refill => (CpKind::Refill, prev, NO_QUEUE, Fill::Done),
                        Arrival::Resource(r) => {
                            let kind = match r {
                                StallReason::Structural => CpKind::Structural,
                                StallReason::SaPort => CpKind::SaPort,
                                StallReason::LoadLimit => CpKind::LoadLimit,
                                StallReason::Operand => CpKind::Dataflow,
                                StallReason::QueueEmpty => CpKind::QueueData,
                                StallReason::QueueFull => CpKind::QueueSpace,
                                StallReason::Mispredict => CpKind::Refill,
                            };
                            (kind, prev, NO_QUEUE, Fill::Done)
                        }
                        Arrival::Data { writer } => {
                            let (kind, pred, queue) = self.resolve_data(core, writer, prev);
                            (kind, pred, queue, Fill::Done)
                        }
                        Arrival::QueueVisible { queue } => {
                            (CpKind::QueueData, prev, queue, Fill::Producer)
                        }
                        Arrival::QueueSpace { queue } => {
                            (CpKind::QueueSpace, prev, queue, Fill::LastPop)
                        }
                    };
                    self.nodes[core].push(RefNode {
                        cycle,
                        src,
                        kind,
                        pred,
                        queue,
                        is_consume: false,
                        fill,
                    });
                }
                TraceEvent::Produce { core, queue, .. } => {
                    let q = queue as usize;
                    let pop = self.last_pop[q];
                    let pending = self.pending[q].pop_front();
                    let mutant = self.mutant;
                    let idx = match self.nodes[core].last_mut() {
                        Some(node) => {
                            node.queue = queue;
                            if node.fill == Fill::LastPop {
                                if let (Some(p), true) = (pop, mutant != Mutant::NoLastPop) {
                                    node.pred = Some(p);
                                }
                                node.fill = Fill::Done;
                            }
                            self.nodes[core].len() - 1
                        }
                        None => return,
                    };
                    match pending {
                        Some(consumer) => {
                            self.pairing.insert(consumer, (core, idx));
                        }
                        None => self.entries[q].push_back((core, idx)),
                    }
                }
                TraceEvent::Consume { core, queue, deferred, .. } => {
                    let q = queue as usize;
                    let popped = if deferred { None } else { self.entries[q].pop_front() };
                    let idx = match self.nodes[core].last_mut() {
                        Some(node) => {
                            node.queue = queue;
                            node.is_consume = true;
                            if node.fill == Fill::Producer {
                                if let Some(p) = popped {
                                    node.pred = Some(p);
                                }
                                node.fill = Fill::Done;
                            }
                            self.nodes[core].len() - 1
                        }
                        None => return,
                    };
                    if deferred {
                        self.pending[q].push_back((core, idx));
                    } else if let Some(prod) = popped {
                        self.pairing.insert((core, idx), prod);
                        self.last_pop[q] = Some((core, idx));
                    }
                }
                TraceEvent::Finish { cycle, core } => {
                    self.finished_at[core] = cycle + 1;
                }
                TraceEvent::StallSpan { .. } => {}
            }
        }

        fn run_end(&mut self, cycles: u64) {
            self.cycles = cycles;
            self.ended = true;
        }
    }

    const CORES: usize = 3;
    const QUEUES: usize = 2;
    const DEPTH: usize = 2;
    /// Ids 0–3 are decoded slots of every thread (1 is a load); 4 and 5
    /// are carried by no slot.
    const SRCS: u32 = 6;

    fn program_with_a_load() -> DecodedProgram {
        let thread = |name: &str| {
            let mut b = FunctionBuilder::new(name);
            let p = b.param();
            let a = b.bin(BinOp::Add, p, 8i64);
            let v = b.load(a, 0);
            let w = b.bin(BinOp::Mul, v, 3i64);
            b.ret(Some(w.into()));
            b.finish().unwrap()
        };
        DecodedProgram::decode(&[thread("a"), thread("b"), thread("c")]).unwrap()
    }

    /// One step of a generated stream: `(core, shape, queue, pick)`.
    type Step = (u8, u8, u8, u16);

    fn steps() -> gmt_testkit::Gen<Vec<Step>> {
        use gmt_testkit::ranged;
        let step = ranged(0u8, CORES as u8)
            .zip(ranged(0u8, 10))
            .zip(ranged(0u8, QUEUES as u8).zip(ranged(0u16, u16::MAX)))
            .map(|((core, shape), (queue, pick))| (core, shape, queue, pick));
        gmt_testkit::vec_of(step, 0, 120)
    }

    /// What an in-order core that could not issue is waiting to retry.
    #[derive(Clone, Copy)]
    enum Blocked {
        Produce(usize),
        ConsumeSync(usize),
    }

    /// Expands steps into the event stream of a `CORES`-core in-order
    /// machine over `QUEUES` depth-`DEPTH` queues, on one global clock
    /// (the engine narrates in evaluation order), and the run's length.
    /// Every shape the sink distinguishes occurs: each `Arrival`
    /// variant, data edges through loads, through consumes whose value
    /// was there and through deferred ones paired by a later produce
    /// (in the same cycle or a later one), a writer index past the
    /// core's nodes and the never-written `u64::MAX`, a def with the
    /// `src` of the use it binds to, a `consume.sync` that waited for
    /// its token, a produce that waited for a pop, ids no decoded slot
    /// carries, and a core that finishes early.
    fn narrate(steps: &[Step]) -> (Vec<TraceEvent>, u64) {
        let mut now = 0u64;
        let mut events = Vec::new();
        let mut srcs: [Vec<u32>; CORES] = Default::default();
        let mut last_consume = [None; CORES];
        let mut blocked: [Option<Blocked>; CORES] = [None; CORES];
        let mut finished = [false; CORES];
        let mut entries = [0usize; QUEUES];
        let mut pending = [0usize; QUEUES];
        // Two cores or all three.
        let cores = CORES - steps.len() % 2;
        for &(core, shape, queue, pick) in steps {
            // Shrinking leaves the generated ranges.
            let (core, queue, pick) = (core as usize % cores, queue as usize % QUEUES, pick as usize);
            if finished[core] {
                continue;
            }
            // Most steps share a cycle with the one before: a produce
            // and the consume it feeds often issue on the same one.
            now += [0, 0, 0, 0, 2][pick % 5];
            let pick = pick / 5;
            let mut src = (pick as u32 / 3 + u32::from(shape)) % SRCS;
            let idx = srcs[core].len() as u64;
            // A blocked core retries what it could not issue, once (a
            // generated machine may deadlock; the stream goes on).
            let retry = blocked[core].take();
            let (shape, queue, waited) = match retry {
                Some(Blocked::Produce(q)) => (4, q, true),
                Some(Blocked::ConsumeSync(q)) => (6, q, true),
                None => (shape % 10, queue, pick % 5 == 0),
            };
            let q = queue as u32;
            let (arrival, queue_event) = match shape {
                0 => match pick % 3 {
                    0 => (Arrival::InOrder, None),
                    1 => (Arrival::Refill, None),
                    _ => (Arrival::Resource(StallReason::ALL[pick / 3 % StallReason::ALL.len()]), None),
                },
                1 | 2 | 3 | 8 => {
                    let writer = match last_consume[core] {
                        Some(c) if shape != 1 => c,
                        // `idx` itself is past the nodes; one more is
                        // the never-written tag.
                        _ => match pick as u64 / 2 % (idx + 2) {
                            w if w > idx => u64::MAX,
                            w => w,
                        },
                    };
                    if shape == 8 {
                        src = srcs[core].get(writer as usize).copied().unwrap_or(src);
                    }
                    (Arrival::Data { writer }, None)
                }
                4 | 7 => {
                    if entries[queue] >= DEPTH && pending[queue] == 0 {
                        if retry.is_none() {
                            blocked[core] = Some(Blocked::Produce(queue));
                        }
                        continue;
                    }
                    if pending[queue] > 0 {
                        pending[queue] -= 1;
                    } else {
                        entries[queue] += 1;
                    }
                    let arrival =
                        if waited { Arrival::QueueSpace { queue: q } } else { Arrival::InOrder };
                    let occupancy = entries[queue];
                    (arrival, Some(TraceEvent::Produce { cycle: now, core, queue: q, occupancy }))
                }
                5 => {
                    let deferred = entries[queue] == 0;
                    if deferred {
                        pending[queue] += 1;
                    } else {
                        entries[queue] -= 1;
                    }
                    last_consume[core] = Some(idx);
                    let occupancy = entries[queue];
                    let ev = TraceEvent::Consume { cycle: now, core, queue: q, occupancy, deferred };
                    (Arrival::InOrder, Some(ev))
                }
                6 => {
                    if entries[queue] == 0 {
                        if retry.is_none() {
                            blocked[core] = Some(Blocked::ConsumeSync(queue));
                        }
                        continue;
                    }
                    entries[queue] -= 1;
                    // `waited` without having been blocked: the token
                    // was in flight (SA latency) when the core got here.
                    let arrival =
                        if waited { Arrival::QueueVisible { queue: q } } else { Arrival::InOrder };
                    let occupancy = entries[queue];
                    let ev = TraceEvent::Consume { cycle: now, core, queue: q, occupancy, deferred: false };
                    (arrival, Some(ev))
                }
                _ => {
                    // Finish early, now and then, unless this is the
                    // last core running.
                    if pick % 4 == 0 && finished[..cores].iter().filter(|&&f| !f).count() > 1 {
                        finished[core] = true;
                    }
                    (Arrival::InOrder, None)
                }
            };
            events.push(TraceEvent::Issue { cycle: now, core, src: InstrId(src), arrival });
            srcs[core].push(src);
            events.extend(queue_event);
            if finished[core] {
                events.push(TraceEvent::Finish { cycle: now, core });
            }
        }
        for core in (0..cores).filter(|&c| !finished[c]) {
            now += 1;
            events.push(TraceEvent::Issue { cycle: now, core, src: InstrId(3), arrival: Arrival::InOrder });
            events.push(TraceEvent::Finish { cycle: now, core });
        }
        (events, now + 1)
    }

    /// The path (or error) the sink and the reference each reconstruct
    /// from `events`.
    fn both(
        events: &[TraceEvent],
        cycles: u64,
        mutant: Mutant,
    ) -> (Result<CritPath, String>, Result<CritPath, String>) {
        let p = program_with_a_load();
        let mut sinks = (CritPathSink::new(&p, QUEUES), Reference::new(&p, QUEUES, mutant));
        for ev in events {
            sinks.event(ev);
        }
        sinks.run_end(cycles);
        (sinks.0.critical_path(), sinks.1.critical_path())
    }

    #[test]
    fn sink_agrees_with_its_pre_change_implementation() {
        gmt_testkit::Checker::new("critpath::sink_agrees_with_its_pre_change_implementation")
            .cases(400)
            .run(&steps(), |steps| {
                let (events, cycles) = narrate(steps);
                let (new, old) = both(&events, cycles, Mutant::None);
                gmt_testkit::prop_assert_eq!(&new, &old, "sink vs reference");
                if let Ok(cp) = &new {
                    gmt_testkit::prop_assert_eq!(cp.total, cycles, "the path covers the run");
                }
                // Cut short, both must refuse alike.
                let (new, old) = both(&events[..events.len() / 2], cycles, Mutant::None);
                gmt_testkit::prop_assert_eq!(new, old, "sink vs reference on a truncated stream");
                Ok(())
            });
    }

    /// The property above can fail: each planted defect in the
    /// reference changes the path of at least a tenth of the streams.
    #[test]
    fn planted_defects_are_told_apart() {
        for mutant in [Mutant::StrictRedirect, Mutant::NoLastPop] {
            let caught = (0..300u64)
                .filter(|&seed| {
                    let steps = steps().sample(&mut gmt_testkit::TestRng::new(seed));
                    let (events, cycles) = narrate(&steps);
                    let (new, mutated) = both(&events, cycles, mutant);
                    new != mutated
                })
                .count();
            assert!(caught >= 30, "only {caught} of 300 streams tell the mutant from the sink");
        }
    }

    /// Steps of a stream long enough to fill more than three arena
    /// chunks on each of the three cores. No step finishes a core
    /// early (shape 9), so every core keeps issuing to the end.
    fn long_steps(seed: u64) -> Vec<Step> {
        let mut rng = gmt_testkit::TestRng::new(seed);
        // An even length: `narrate` runs all three cores.
        (0..27_000)
            .map(|_| {
                let core = rng.range_u64(0, CORES as u64) as u8;
                let shape = rng.range_u64(0, 9) as u8;
                let queue = rng.range_u64(0, QUEUES as u64) as u8;
                (core, shape, queue, rng.range_u64(0, u64::from(u16::MAX)) as u16)
            })
            .collect()
    }

    /// The sink against the reference on streams of several chunks per
    /// core, whose FIFO pairings, deferred consumes and data edges
    /// reach across chunk boundaries; the property streams above never
    /// fill one chunk.
    #[test]
    fn arena_streams_agree_with_the_reference_across_chunks() {
        for seed in 0..3 {
            let (events, cycles) = narrate(&long_steps(seed));
            let mut nodes = [0u64; CORES];
            let (mut deferred, mut popped) = (0, 0);
            // Data edges from an earlier chunk, and those from the tail
            // of the chunk just before the reader's.
            let (mut across, mut adjacent) = (0, 0);
            for ev in &events {
                match *ev {
                    TraceEvent::Issue { core, arrival, .. } => {
                        let idx = nodes[core];
                        if let Arrival::Data { writer } = arrival {
                            let chunk = |i: u64| i >> CHUNK_BITS;
                            if writer < idx && chunk(writer) < chunk(idx) {
                                across += 1;
                                adjacent += u32::from(idx - writer <= 8);
                            }
                        }
                        nodes[core] += 1;
                    }
                    TraceEvent::Consume { deferred: true, .. } => deferred += 1,
                    TraceEvent::Consume { .. } => popped += 1,
                    _ => {}
                }
            }
            assert!(nodes.iter().all(|&n| n > 3 * CHUNK as u64), "seed {seed}: {nodes:?} nodes");
            assert!(deferred > 100 && popped > 100, "seed {seed}: {deferred} deferred, {popped} popped");
            assert!(across > 1000 && adjacent > 0, "seed {seed}: {across} across, {adjacent} adjacent");
            let (new, old) = both(&events, cycles, Mutant::None);
            assert_eq!(new, old, "seed {seed}: sink vs reference");
            assert_eq!(new.map(|cp| cp.total), Ok(cycles), "seed {seed}: the path covers the run");
        }
    }
}
