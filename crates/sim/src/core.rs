//! One in-order, multi-issue, stall-on-use core.

use gmt_ir::interp::{DynCounts, ExecError, MemoryLayout};
use gmt_ir::{AddrMode, BlockId, Function, InstrId, Op, Operand, QueueId, Reg};

/// Loads one core may have in flight; a further load stalls
/// ([`StallReason::LoadLimit`]) until one completes. Shared by both
/// engines.
pub(crate) const MAX_OUTSTANDING_LOADS: usize = 16;

/// Why a core could not issue its next instruction this cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StallReason {
    /// A source operand was not ready (stall-on-use).
    Operand,
    /// A structural resource (issue slot / FU) was exhausted.
    Structural,
    /// The synchronization array ports were exhausted.
    SaPort,
    /// A produce found its queue full.
    QueueFull,
    /// A `consume.sync` waited for its token.
    QueueEmpty,
    /// The outstanding-load limit was reached.
    LoadLimit,
    /// The front end was refilling after a branch mispredict.
    Mispredict,
}

impl StallReason {
    /// Every reason, in declaration order — the order of a
    /// [`StallCycles`] table and of every report column and JSON key
    /// generated from it.
    pub const ALL: [StallReason; 7] = {
        use StallReason::*;
        [Operand, Structural, SaPort, QueueFull, QueueEmpty, LoadLimit, Mispredict]
    };

    /// Stable kebab-case label used in trace output and reports.
    pub fn name(self) -> &'static str {
        match self {
            StallReason::Operand => "operand",
            StallReason::Structural => "structural",
            StallReason::SaPort => "sa-port",
            StallReason::QueueFull => "queue-full",
            StallReason::QueueEmpty => "queue-empty",
            StallReason::LoadLimit => "load-limit",
            StallReason::Mispredict => "mispredict",
        }
    }
}

/// Stall cycles by [`StallReason`]: the one by-reason table behind
/// [`CoreStats::stalls`], the trace layer's cycle attribution and the
/// harness's per-run records. Index it with a reason; sum tables with
/// `+=`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StallCycles([u64; StallReason::ALL.len()]);

impl StallCycles {
    /// Cycles over all reasons.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// `(reason, cycles)` in [`StallReason::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = (StallReason, u64)> + '_ {
        StallReason::ALL.into_iter().zip(self.0)
    }
}

impl std::ops::Index<StallReason> for StallCycles {
    type Output = u64;

    fn index(&self, r: StallReason) -> &u64 {
        &self.0[r as usize]
    }
}

impl std::ops::IndexMut<StallReason> for StallCycles {
    fn index_mut(&mut self, r: StallReason) -> &mut u64 {
        &mut self.0[r as usize]
    }
}

impl std::ops::AddAssign for StallCycles {
    fn add_assign(&mut self, other: StallCycles) {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a += b;
        }
    }
}

/// Issue statistics of one core.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Computation instructions issued.
    pub computation: u64,
    /// Register communication instructions issued.
    pub communication: u64,
    /// Memory synchronization instructions issued.
    pub synchronization: u64,
    /// Cycle at which the core retired its `ret`.
    pub finished_at: u64,
    /// Stall cycles by cause.
    pub stall_operand: u64,
    /// See [`StallReason::Structural`].
    pub stall_structural: u64,
    /// See [`StallReason::SaPort`].
    pub stall_sa_port: u64,
    /// See [`StallReason::QueueFull`].
    pub stall_queue_full: u64,
    /// See [`StallReason::QueueEmpty`].
    pub stall_queue_empty: u64,
    /// See [`StallReason::LoadLimit`].
    pub stall_load_limit: u64,
    /// See [`StallReason::Mispredict`].
    pub stall_mispredict: u64,
    /// Mispredicted conditional branches.
    pub mispredicts: u64,
}

impl CoreStats {
    /// Total instructions issued.
    pub fn total_instrs(&self) -> u64 {
        self.counts().total()
    }

    /// The instructions issued, kind by kind, in the functional
    /// interpreter's currency: thread `i` of a functional run and core
    /// `i` of a timed run of the same program report equal counts.
    pub fn counts(&self) -> DynCounts {
        DynCounts {
            computation: self.computation,
            communication: self.communication,
            synchronization: self.synchronization,
        }
    }

    /// The seven stall counters as one by-reason table
    /// ([`StallReason::ALL`] order).
    pub fn stalls(&self) -> StallCycles {
        StallCycles([
            self.stall_operand,
            self.stall_structural,
            self.stall_sa_port,
            self.stall_queue_full,
            self.stall_queue_empty,
            self.stall_load_limit,
            self.stall_mispredict,
        ])
    }

    /// Records a stall.
    pub fn record_stall(&mut self, r: StallReason) {
        self.record_stalls(r, 1);
    }

    /// Bulk-credits `n` stall cycles of one reason — what the
    /// event-driven engine's fast-forward uses to account for a whole
    /// skipped window in one write. `record_stalls(r, n)` must leave
    /// the counters exactly as `n` calls to
    /// [`CoreStats::record_stall`] would.
    pub fn record_stalls(&mut self, r: StallReason, n: u64) {
        match r {
            StallReason::Operand => self.stall_operand += n,
            StallReason::Structural => self.stall_structural += n,
            StallReason::SaPort => self.stall_sa_port += n,
            StallReason::QueueFull => self.stall_queue_full += n,
            StallReason::QueueEmpty => self.stall_queue_empty += n,
            StallReason::LoadLimit => self.stall_load_limit += n,
            StallReason::Mispredict => self.stall_mispredict += n,
        }
    }
}

/// Architectural + microarchitectural state of one core. Borrows the
/// run's shared [`MemoryLayout`] rather than cloning it per core.
#[derive(Clone, Debug)]
pub struct Core<'a> {
    /// Register values.
    pub regs: Vec<i64>,
    /// Cycle at which each register's value becomes usable;
    /// `u64::MAX` marks a pending (outstanding consume) register.
    pub ready: Vec<u64>,
    /// Monotonic write token per register, guarding late consume
    /// deliveries against intervening redefinitions.
    pub token: Vec<u64>,
    /// Queue each pending register's outstanding consume issued
    /// against (deadlock attribution only).
    pub pending_queue: Vec<Option<QueueId>>,
    next_token: u64,
    /// Current block.
    pub block: BlockId,
    /// Position within the block (== body length means terminator).
    pub pos: usize,
    /// Whether the core has retired its return.
    pub finished: bool,
    /// Loads still in flight (dest not yet ready).
    pub inflight_loads: Vec<u64>,
    /// The front end is refilling after a branch mispredict until this
    /// cycle.
    pub fetch_stalled_until: u64,
    /// Statistics.
    pub stats: CoreStats,
    layout: &'a MemoryLayout,
}

impl<'a> Core<'a> {
    /// A core about to execute `f` with the given arguments.
    pub fn new(f: &Function, args: &[i64], layout: &'a MemoryLayout) -> Core<'a> {
        let n = f.num_regs() as usize;
        let mut regs = vec![0i64; n];
        for (r, &v) in f.params.iter().zip(args) {
            regs[r.index()] = v;
        }
        Core {
            regs,
            ready: vec![0; n],
            token: vec![0; n],
            pending_queue: vec![None; n],
            next_token: 1,
            block: f.entry(),
            pos: 0,
            finished: false,
            inflight_loads: Vec::new(),
            fetch_stalled_until: 0,
            stats: CoreStats::default(),
            layout,
        }
    }

    /// The instruction the core will issue next.
    ///
    /// # Errors
    ///
    /// [`ExecError::InvalidConfig`] when the core sits at the end of a
    /// terminator-less block (only possible on unverified functions).
    pub fn current_instr(&self, f: &Function) -> Result<InstrId, ExecError> {
        let block = f.block(self.block);
        if self.pos < block.instrs.len() {
            Ok(block.instrs[self.pos])
        } else {
            block.terminator.ok_or_else(|| gmt_ir::interp::unterminated(self.block))
        }
    }

    /// Whether all source registers of `op` are ready at `now`.
    pub fn operands_ready(&self, op: &Op, now: u64) -> bool {
        op.use_slots().into_iter().flatten().all(|r| self.ready[r.index()] <= now)
    }

    /// The value of an operand (operands are checked ready first).
    pub fn operand(&self, o: Operand) -> i64 {
        match o {
            Operand::Reg(r) => self.regs[r.index()],
            Operand::Imm(v) => v,
        }
    }

    /// The effective byte address of a memory operand (cells are 8
    /// bytes wide for cache indexing).
    pub fn byte_addr(&self, a: AddrMode) -> i64 {
        self.cell_addr(a).wrapping_mul(8)
    }

    /// The effective cell address of a memory operand.
    pub fn cell_addr(&self, a: AddrMode) -> i64 {
        self.regs[a.base.index()].wrapping_add(a.offset)
    }

    /// Resolves a `lea`.
    pub fn lea(&self, obj: gmt_ir::ObjectId, off: i64) -> i64 {
        self.layout.base(obj) as i64 + off
    }

    /// Writes `value` into `dst`, ready at `ready_at`; returns the
    /// write token.
    pub fn write(&mut self, dst: Reg, value: i64, ready_at: u64) -> u64 {
        self.regs[dst.index()] = value;
        self.ready[dst.index()] = ready_at;
        self.pending_queue[dst.index()] = None;
        let t = self.next_token;
        self.next_token += 1;
        self.token[dst.index()] = t;
        t
    }

    /// Marks `dst` pending (outstanding consume from `queue`); returns
    /// the token.
    pub fn mark_pending(&mut self, dst: Reg, queue: QueueId) -> u64 {
        self.ready[dst.index()] = u64::MAX;
        self.pending_queue[dst.index()] = Some(queue);
        let t = self.next_token;
        self.next_token += 1;
        self.token[dst.index()] = t;
        t
    }

    /// Applies a late consume delivery if the register has not been
    /// redefined since the consume issued.
    pub fn deliver(&mut self, dst: Reg, token: u64, value: i64, ready_at: u64) {
        if self.token[dst.index()] == token {
            self.regs[dst.index()] = value;
            self.ready[dst.index()] = ready_at;
            self.pending_queue[dst.index()] = None;
        }
    }

    /// Advances past the current (non-terminator) instruction.
    pub fn advance(&mut self) {
        self.pos += 1;
    }

    /// Jumps to the start of `target`.
    pub fn jump_to(&mut self, target: BlockId) {
        self.block = target;
        self.pos = 0;
    }

    /// Drops completed loads from the in-flight set and returns the
    /// number still outstanding.
    pub fn outstanding_loads(&mut self, now: u64) -> usize {
        self.inflight_loads.retain(|&t| t > now);
        self.inflight_loads.len()
    }
}
