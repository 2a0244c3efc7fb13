//! Thread partitions: the output of a GMT partitioner, the input of
//! MTCG and COCO.

use gmt_ir::{Function, InstrId};
use std::fmt;

/// A thread index.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId(pub u32);

impl ThreadId {
    /// The thread index as a `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// An assignment of every instruction of a function to a thread.
///
/// `ret` terminators are assigned like any other instruction; MTCG gives
/// every generated thread its own return path regardless.
#[derive(Clone, Debug)]
pub struct Partition {
    /// Indexed by [`InstrId::index`]; grows on [`Partition::assign`].
    thread_of: Vec<Option<ThreadId>>,
    num_threads: u32,
}

/// Two partitions are equal when they assign the same instructions to
/// the same threads. Equality is defined on the assignment, not on the
/// backing vector: how far it has grown (trailing unassigned slots) is
/// storage, and GREMIO's candidate de-duplication relies on `==`.
impl PartialEq for Partition {
    fn eq(&self, other: &Partition) -> bool {
        let (short, long) = if self.thread_of.len() <= other.thread_of.len() {
            (&self.thread_of, &other.thread_of)
        } else {
            (&other.thread_of, &self.thread_of)
        };
        self.num_threads == other.num_threads
            && long[..short.len()] == short[..]
            && long[short.len()..].iter().all(Option::is_none)
    }
}

impl Eq for Partition {}

impl Partition {
    /// Creates an empty partition over `num_threads` threads.
    ///
    /// # Panics
    ///
    /// Panics if `num_threads == 0`.
    pub fn new(num_threads: u32) -> Partition {
        assert!(num_threads > 0, "at least one thread required");
        Partition { thread_of: Vec::new(), num_threads }
    }

    /// A partition over `num_threads` threads placing every instruction
    /// of `f` on thread 0 — the degenerate single-threaded layout.
    ///
    /// # Panics
    ///
    /// Panics if `num_threads == 0`.
    pub fn single_threaded(f: &Function, num_threads: u32) -> Partition {
        let mut p = Partition::new(num_threads);
        for i in f.all_instrs() {
            p.assign(i, ThreadId(0));
        }
        p
    }

    /// Number of threads.
    pub fn num_threads(&self) -> u32 {
        self.num_threads
    }

    /// Thread ids, in order.
    pub fn threads(&self) -> impl Iterator<Item = ThreadId> {
        (0..self.num_threads).map(ThreadId)
    }

    /// Assigns instruction `i` to thread `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn assign(&mut self, i: InstrId, t: ThreadId) {
        assert!(t.0 < self.num_threads, "thread {t:?} out of range");
        if i.index() >= self.thread_of.len() {
            self.thread_of.resize(i.index() + 1, None);
        }
        self.thread_of[i.index()] = Some(t);
    }

    /// The thread of instruction `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is unassigned (use [`Partition::get`] for a
    /// non-panicking query).
    pub fn thread_of(&self, i: InstrId) -> ThreadId {
        self.get(i).unwrap_or_else(|| panic!("{i:?} unassigned"))
    }

    /// The thread of instruction `i`, if assigned.
    pub fn get(&self, i: InstrId) -> Option<ThreadId> {
        self.thread_of.get(i.index()).copied().flatten()
    }

    /// Assigned `(instruction, thread)` pairs, in ascending id order.
    fn assigned(&self) -> impl Iterator<Item = (InstrId, ThreadId)> + '_ {
        self.thread_of
            .iter()
            .enumerate()
            .filter_map(|(k, t)| t.map(|t| (InstrId(k as u32), t)))
    }

    /// Instructions assigned to thread `t`, in ascending id order.
    pub fn instrs_of(&self, t: ThreadId) -> impl Iterator<Item = InstrId> + '_ {
        self.assigned().filter(move |&(_, tt)| tt == t).map(|(i, _)| i)
    }

    /// Checks that every placed instruction of `f` is assigned to a
    /// valid thread.
    ///
    /// # Errors
    ///
    /// Returns the first unassigned instruction.
    pub fn validate(&self, f: &Function) -> Result<(), InstrId> {
        for i in f.all_instrs() {
            if self.get(i).is_none() {
                return Err(i);
            }
        }
        Ok(())
    }

    /// Per-thread instruction counts (static balance metric).
    pub fn static_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.num_threads as usize];
        for (_, t) in self.assigned() {
            sizes[t.index()] += 1;
        }
        sizes
    }

    /// Per-thread dynamic weight, given per-instruction weights.
    pub fn dynamic_sizes(&self, weight: impl Fn(InstrId) -> u64) -> Vec<u64> {
        let mut sizes = vec![0u64; self.num_threads as usize];
        for (i, t) in self.assigned() {
            sizes[t.index()] += weight(i);
        }
        sizes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmt_ir::FunctionBuilder;

    fn tiny() -> Function {
        let mut b = FunctionBuilder::new("t");
        let c = b.const_(1);
        b.output(c);
        b.ret(None);
        b.finish().unwrap()
    }

    #[test]
    fn single_threaded_covers_everything() {
        let f = tiny();
        let p = Partition::single_threaded(&f, 1);
        assert!(p.validate(&f).is_ok());
        assert_eq!(p.num_threads(), 1);
        assert_eq!(p.static_sizes(), vec![3]);
    }

    #[test]
    fn missing_assignment_detected() {
        let f = tiny();
        let mut p = Partition::new(2);
        let first = f.block(f.entry()).instrs[0];
        p.assign(first, ThreadId(1));
        assert!(p.validate(&f).is_err());
        assert_eq!(p.thread_of(first), ThreadId(1));
        assert_eq!(p.get(InstrId(99)), None);
    }

    #[test]
    fn dynamic_sizes_use_weights() {
        let f = tiny();
        let mut p = Partition::new(2);
        let instrs: Vec<_> = f.all_instrs().collect();
        p.assign(instrs[0], ThreadId(0));
        p.assign(instrs[1], ThreadId(1));
        p.assign(instrs[2], ThreadId(1));
        let sizes = p.dynamic_sizes(|_| 10);
        assert_eq!(sizes, vec![10, 20]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_thread_rejected() {
        let f = tiny();
        let mut p = Partition::new(1);
        p.assign(f.block(f.entry()).instrs[0], ThreadId(3));
    }

    #[test]
    fn instrs_of_filters_by_thread() {
        let f = tiny();
        let p = Partition::single_threaded(&f, 1);
        let ids: Vec<InstrId> = f.all_instrs().collect();
        assert_eq!(p.instrs_of(ThreadId(0)).collect::<Vec<_>>(), ids);
        let mut q = Partition::new(2);
        for (k, &i) in ids.iter().enumerate().rev() {
            q.assign(i, ThreadId(k as u32 % 2));
        }
        assert_eq!(q.instrs_of(ThreadId(0)).collect::<Vec<_>>(), [ids[0], ids[2]]);
        assert_eq!(q.instrs_of(ThreadId(1)).collect::<Vec<_>>(), [ids[1]]);
    }

    /// Equality is about the assignment, not about how far the backing
    /// vector happened to grow.
    #[test]
    fn equality_ignores_assignment_order_and_trailing_slots() {
        let f = tiny();
        let ids: Vec<InstrId> = f.all_instrs().collect();
        let mut forward = Partition::new(2);
        let mut backward = Partition::new(2);
        for &i in &ids {
            forward.assign(i, ThreadId(1));
        }
        for &i in ids.iter().rev() {
            backward.assign(i, ThreadId(1));
        }
        assert_eq!(forward, backward);

        let mut short = Partition::new(2);
        short.assign(ids[0], ThreadId(0));
        let mut long = short.clone();
        long.thread_of.resize(10, None);
        assert_eq!(short, long);
        assert_eq!(long, short);
        long.assign(ids[2], ThreadId(0));
        assert_ne!(short, long);
        assert_ne!(long, short);

        let mut other_width = Partition::new(3);
        other_width.assign(ids[0], ThreadId(0));
        assert_ne!(short, other_width);
    }
}
