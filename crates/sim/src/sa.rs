//! The synchronization array: low-latency inter-core scalar queues
//! (Rangan et al. \[19\]).

use gmt_ir::Reg;
use std::collections::VecDeque;

/// An entry sitting in a queue: a value and the cycle it becomes
/// visible to consumers (producer's commit plus the SA latency).
#[derive(Clone, Copy, Debug)]
struct Entry {
    value: i64,
    avail: u64,
}

/// A consume that issued while its queue was empty: the destination
/// register will be written when the matching produce arrives.
/// `token` guards against the register being redefined in between
/// (write-after-write with a later instruction).
#[derive(Clone, Copy, Debug)]
pub struct PendingConsume {
    /// Core that issued the consume.
    pub core: usize,
    /// Destination register (`None` for `consume.sync`).
    pub dst: Option<Reg>,
    /// Register-file ownership token at issue time.
    pub token: u64,
}

/// A value delivery that the simulator must apply to a core.
#[derive(Clone, Copy, Debug)]
pub struct Delivery {
    /// The satisfied consume.
    pub pending: PendingConsume,
    /// The produced value.
    pub value: i64,
    /// Cycle at which the consumer's register becomes ready.
    pub ready_at: u64,
}

/// Error: a produce was attempted against a queue already holding
/// `depth` entries. Callers that check [`SyncArray::can_produce`] in
/// the same cycle never see this.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueueFull;

/// One queue of the synchronization array.
#[derive(Clone, Debug, Default)]
struct Queue {
    entries: VecDeque<Entry>,
    pending: VecDeque<PendingConsume>,
}

/// The synchronization array.
#[derive(Clone, Debug)]
pub struct SyncArray {
    queues: Vec<Queue>,
    /// Entry capacity of every queue.
    depth: usize,
    latency: u64,
}

impl SyncArray {
    /// An empty array of `num_queues` queues of `depth` entries each. A
    /// zero depth clamps to 1 — a depth-0 queue would stall every
    /// produce forever.
    pub fn new(num_queues: usize, depth: usize, latency: u64) -> SyncArray {
        SyncArray { queues: vec![Queue::default(); num_queues], depth: depth.max(1), latency }
    }

    /// Whether queue `q` can accept a produce this cycle. A queue id
    /// outside the array can never accept one; the simulators reject
    /// such programs at load (the decoded engine through
    /// [`DecodedProgram::check_queue_ids`](gmt_ir::decoded::DecodedProgram::check_queue_ids)),
    /// so this answer is only ever a conservative backstop.
    pub fn can_produce(&self, q: usize) -> bool {
        self.queues.get(q).is_some_and(|queue| queue.entries.len() < self.depth)
    }

    /// Produces `value` into queue `q` at cycle `now` (commit at
    /// `now + 1`). If a consume is pending, returns the delivery to
    /// apply instead of enqueuing.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFull`] when the queue already holds `depth`
    /// entries (callers are expected to check
    /// [`SyncArray::can_produce`] first), or when `q` is not a queue
    /// of this array at all — a nonexistent queue is permanently full.
    pub fn produce(&mut self, q: usize, value: i64, now: u64) -> Result<Option<Delivery>, QueueFull> {
        let avail = now + 1 + self.latency;
        let Some(queue) = self.queues.get_mut(q) else {
            return Err(QueueFull);
        };
        if let Some(pending) = queue.pending.pop_front() {
            return Ok(Some(Delivery { pending, value, ready_at: avail }));
        }
        if queue.entries.len() >= self.depth {
            return Err(QueueFull);
        }
        queue.entries.push_back(Entry { value, avail });
        Ok(None)
    }

    /// Attempts a consume from queue `q` at cycle `now`.
    ///
    /// Returns `Ok((value, ready_at))` when an entry exists; otherwise
    /// registers `pending` and returns `Err(())` — the consume is
    /// outstanding and its destination becomes ready on delivery.
    #[allow(clippy::result_unit_err)]
    pub fn consume(
        &mut self,
        q: usize,
        now: u64,
        pending: PendingConsume,
    ) -> Result<(i64, u64), ()> {
        let Some(queue) = self.queues.get_mut(q) else {
            // A nonexistent queue never delivers; the consume stays
            // blocked forever and deadlock detection reports it.
            return Err(());
        };
        if let Some(e) = queue.entries.pop_front() {
            Ok((e.value, e.avail.max(now + 1)))
        } else {
            queue.pending.push_back(pending);
            Err(())
        }
    }

    /// Whether queue `q` holds a token visible at cycle `now`
    /// (`consume.sync` blocks until this is true).
    pub fn has_visible_entry(&self, q: usize, now: u64) -> bool {
        self.queues
            .get(q)
            .and_then(|queue| queue.entries.front())
            .is_some_and(|e| e.avail <= now)
    }

    /// The cycle at which queue `q`'s front entry becomes visible to a
    /// `consume.sync`, or `None` when the queue holds no entry at all —
    /// in that case the consumer's wakeup depends on a peer's produce,
    /// not on the array. This is the event-driven engine's wakeup
    /// source for [`StallReason::QueueEmpty`](crate::StallReason)
    /// stalls.
    pub fn next_visible_at(&self, q: usize) -> Option<u64> {
        self.queues.get(q).and_then(|queue| queue.entries.front()).map(|e| e.avail)
    }

    /// Pops a token for `consume.sync`, or `None` when the queue is
    /// empty (callers gate on [`SyncArray::has_visible_entry`]).
    pub fn pop_token(&mut self, q: usize, now: u64) -> Option<u64> {
        let e = self.queues.get_mut(q)?.entries.pop_front()?;
        Some(e.avail.max(now))
    }

    /// Entries currently buffered in queue `q` (delivered or still in
    /// flight; pending consumes do not count). A queue id outside the
    /// array holds nothing.
    pub fn occupancy(&self, q: usize) -> usize {
        self.queues.get(q).map_or(0, |queue| queue.entries.len())
    }

    /// Number of queues.
    pub fn len(&self) -> usize {
        self.queues.len()
    }

    /// Whether the array has no queues.
    pub fn is_empty(&self) -> bool {
        self.queues.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pc(core: usize) -> PendingConsume {
        PendingConsume { core, dst: Some(Reg(0)), token: 0 }
    }

    #[test]
    fn produce_then_consume() {
        let mut sa = SyncArray::new(4, 2, 1);
        assert!(sa.can_produce(0));
        assert!(sa.produce(0, 42, 10).unwrap().is_none());
        let (v, ready) = sa.consume(0, 20, pc(1)).unwrap();
        assert_eq!(v, 42);
        assert_eq!(ready, 21, "entry already visible; consume takes 1 cycle");
    }

    #[test]
    fn consume_before_produce_is_pending() {
        let mut sa = SyncArray::new(4, 2, 1);
        assert!(sa.consume(0, 5, pc(1)).is_err());
        let d = sa.produce(0, 7, 9).unwrap().expect("matches pending");
        assert_eq!(d.value, 7);
        assert_eq!(d.ready_at, 11, "commit at 10 + 1 cycle SA latency");
        assert_eq!(d.pending.core, 1);
    }

    #[test]
    fn backpressure_at_depth() {
        let mut sa = SyncArray::new(1, 1, 1);
        assert!(sa.produce(0, 1, 0).unwrap().is_none());
        assert!(!sa.can_produce(0));
        assert!(matches!(sa.produce(0, 2, 0), Err(QueueFull)), "full queue rejects, not panics");
        let _ = sa.consume(0, 5, pc(0)).unwrap();
        assert!(sa.can_produce(0));
    }

    #[test]
    fn sync_token_visibility() {
        let mut sa = SyncArray::new(1, 1, 1);
        assert!(sa.produce(0, 1, 10).unwrap().is_none()); // visible at 12
        assert!(!sa.has_visible_entry(0, 11));
        assert!(sa.has_visible_entry(0, 12));
        assert_eq!(sa.pop_token(0, 15), Some(15));
        assert_eq!(sa.pop_token(0, 16), None, "empty queue yields no token");
    }

    #[test]
    fn next_visible_at_reports_front_entry() {
        let mut sa = SyncArray::new(2, 4, 1);
        assert_eq!(sa.next_visible_at(0), None, "empty queue has no self-wakeup");
        assert!(sa.produce(0, 1, 10).unwrap().is_none()); // visible at 12
        assert!(sa.produce(0, 2, 20).unwrap().is_none()); // behind the first
        assert_eq!(sa.next_visible_at(0), Some(12), "front entry's avail cycle");
        assert!(!sa.has_visible_entry(0, 11));
        assert!(sa.has_visible_entry(0, sa.next_visible_at(0).unwrap()));
        let _ = sa.pop_token(0, 12);
        assert_eq!(sa.next_visible_at(0), Some(22), "second entry surfaces");
        assert_eq!(sa.next_visible_at(1), None, "untouched queue stays empty");
    }

    #[test]
    fn fifo_order() {
        let mut sa = SyncArray::new(1, 4, 1);
        assert!(sa.produce(0, 1, 0).unwrap().is_none());
        assert!(sa.produce(0, 2, 0).unwrap().is_none());
        assert_eq!(sa.consume(0, 9, pc(0)).unwrap().0, 1);
        assert_eq!(sa.consume(0, 9, pc(0)).unwrap().0, 2);
    }
}
