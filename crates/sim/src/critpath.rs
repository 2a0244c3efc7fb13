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
use std::collections::{HashMap, VecDeque};

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

    fn index(self) -> usize {
        CpKind::ALL.iter().position(|&k| k == self).unwrap_or(0)
    }
}

/// Sentinel for "no queue involved" in a node.
const NO_QUEUE: u32 = u32::MAX;

/// What a deferred piece of the node's last-arrival edge still needs
/// from the queue event that follows its issue.
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

/// One dynamic instruction in the last-arrival graph.
#[derive(Clone, Copy, Debug)]
struct Node {
    cycle: u64,
    src: InstrId,
    kind: CpKind,
    /// The binding predecessor `(core, per-core index)`; `None` only
    /// for a core's first instruction with no recorded wait.
    pred: Option<(usize, usize)>,
    queue: u32,
    is_consume: bool,
    fill: Fill,
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

/// A [`TraceSink`] that records every issued instruction's last-arrival
/// edge and mirrors the queues' FIFO pairing, then reconstructs the
/// dynamic critical path with [`CritPathSink::critical_path`].
///
/// Ignores `Stall`/`StallSpan` events entirely, so it observes the
/// identical graph whether or not the engine's stall fast-forward is
/// on.
#[derive(Debug)]
pub struct CritPathSink {
    nodes: Vec<Vec<Node>>,
    /// Per-core: original ids whose decoded op is a load (classifies a
    /// binding dataflow writer as memory latency).
    loads: Vec<HashMap<InstrId, ()>>,
    /// Per-core: original id → basic block, for report positions.
    blocks: Vec<HashMap<InstrId, BlockId>>,
    /// Per-queue FIFO mirror: producer nodes whose values sit in the
    /// queue.
    entries: Vec<VecDeque<(usize, usize)>>,
    /// Per-queue: register consumes that found the queue empty and
    /// went pending (pair with the next produce, oldest first).
    pending: Vec<VecDeque<(usize, usize)>>,
    /// Consume node → the produce node that fed it.
    pairing: HashMap<(usize, usize), (usize, usize)>,
    /// Per-queue: the consume node that most recently freed a slot.
    last_pop: Vec<Option<(usize, usize)>>,
    finished_at: Vec<u64>,
    cycles: u64,
    ended: bool,
}

impl CritPathSink {
    /// A sink for a run of `program` on `num_queues` queues.
    pub fn new(program: &DecodedProgram, num_queues: usize) -> CritPathSink {
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
        CritPathSink {
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
        }
    }

    /// Dynamic instructions recorded (graph size).
    pub fn num_nodes(&self) -> u64 {
        self.nodes.iter().map(|n| n.len() as u64).sum()
    }

    /// Resolves an [`Arrival::Data`] edge at issue time: if the
    /// binding writer was a register consume whose value arrived
    /// *after* the consume issued (the stall-on-use deferred-delivery
    /// path), the real constraint is the cross-thread produce — the
    /// edge is redirected through the FIFO pairing. Otherwise the
    /// writer itself binds (memory latency for loads, compute latency
    /// or local SA delivery for the rest).
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
                if pn.cycle >= wn.cycle {
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
    /// `run_end`, an empty graph, a predecessor later than its
    /// successor, or a walk longer than the node count (a cycle —
    /// impossible by construction, guarded anyway).
    pub fn critical_path(&self) -> Result<CritPath, String> {
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
        let mut add = |cp: &mut CritPath, node: &Node, core: usize, kind: CpKind, len: u64| {
            cp.total += len;
            cp.by_kind[kind.index()] += len;
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
                    // The path's origin: any cycles before its issue
                    // were spent waiting on whatever its own edge kind
                    // names (e.g. a peer hogging the SA ports), with
                    // no earlier event to anchor to.
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

    fn last_node(&mut self, core: usize) -> Option<&mut Node> {
        self.nodes[core].last_mut()
    }
}

fn sorted_desc<K: Ord + Copy>(m: HashMap<K, u64>) -> Vec<(K, u64)> {
    let mut v: Vec<(K, u64)> = m.into_iter().collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    v
}

impl TraceSink for CritPathSink {
    fn event(&mut self, ev: &TraceEvent) {
        match *ev {
            TraceEvent::Issue { cycle, core, src, arrival } => {
                let idx = self.nodes[core].len();
                let prev = idx.checked_sub(1).map(|i| (core, i));
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
                    Arrival::QueueVisible { queue } => {
                        (CpKind::QueueData, prev, queue, Fill::Producer)
                    }
                    Arrival::QueueSpace { queue } => {
                        (CpKind::QueueSpace, prev, queue, Fill::LastPop)
                    }
                };
                self.nodes[core].push(Node {
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
                let idx = match self.last_node(core) {
                    Some(node) => {
                        node.queue = queue;
                        if node.fill == Fill::LastPop {
                            // Backpressured produce: the consume that
                            // freed the slot binds. Keep the in-order
                            // fallback if the mirror has no pop (a
                            // defensive case — a full queue can only
                            // drain via a pop).
                            if let Some(p) = pop {
                                node.pred = Some(p);
                            }
                            node.fill = Fill::Done;
                        }
                        self.nodes[core].len() - 1
                    }
                    None => return,
                };
                match pending {
                    // The value bypasses the queue straight into the
                    // oldest pending register consume.
                    Some(consumer) => {
                        self.pairing.insert(consumer, (core, idx));
                    }
                    None => self.entries[q].push_back((core, idx)),
                }
            }
            TraceEvent::Consume { core, queue, deferred, .. } => {
                let q = queue as usize;
                let popped = if deferred { None } else { self.entries[q].pop_front() };
                let idx = match self.last_node(core) {
                    Some(node) => {
                        node.queue = queue;
                        node.is_consume = true;
                        if node.fill == Fill::Producer {
                            // A consume.sync that waited for
                            // visibility: the matching produce binds.
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
}
