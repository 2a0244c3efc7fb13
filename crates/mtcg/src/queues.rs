//! Queue allocation — the paper's footnote 1: "A separate queue is used
//! just for simplicity. Later, a queue-allocation algorithm can reduce
//! the number of queues necessary."
//!
//! Why sharing is sound: the producing and consuming threads traverse
//! the *same* sequence of communication points (both reproduce the
//! original control flow over their relevant branches), and within a
//! point all communication is emitted in one global order. For any two
//! operations with the same (from, to) thread pair, the producer's
//! produce order therefore equals the consumer's consume order — so any
//! *static* assignment of points to queues within a (from, to) group
//! keeps every FIFO's production and consumption sequences aligned,
//! value for value. Operations with different thread pairs must not
//! share (their relative order across threads is unconstrained).
//!
//! The allocator gives every (item, point) its own queue when the
//! budget allows, and otherwise folds each (from, to) group onto a fair
//! share of the budget, heaviest groups first.

use crate::codegen::QueueLabel;
use crate::MtcgError;
use gmt_ir::{Function, Profile};
use gmt_pdg::ThreadId;

/// How many queues code generation may use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum QueueBudget {
    /// One queue per communication point (the paper's simple scheme).
    #[default]
    Unlimited,
    /// At most this many queues (e.g. the synchronization array's 256).
    Limit(u32),
}

impl QueueBudget {
    /// The synchronization array of the paper's machine.
    pub const SYNC_ARRAY: QueueBudget = QueueBudget::Limit(256);
}

/// Computes the queue id for every communication occurrence.
///
/// `pairs[k]` is the (from, to) of the `k`-th occurrence in canonical
/// order. Returns the queue id per occurrence and the total number of
/// queues used.
///
/// # Errors
///
/// Returns [`MtcgError::QueueBudget`] if the budget is smaller than the
/// number of distinct (from, to) pairs (each pair needs at least one
/// private queue).
pub fn allocate(
    pairs: &[(ThreadId, ThreadId)],
    budget: QueueBudget,
) -> Result<(Vec<u32>, u32), MtcgError> {
    let n = pairs.len();
    let limit = match budget {
        QueueBudget::Unlimited => return Ok(((0..n as u32).collect(), n as u32)),
        QueueBudget::Limit(l) => l as usize,
    };
    if n <= limit {
        return Ok(((0..n as u32).collect(), n as u32));
    }
    // Group occurrences by thread pair.
    let mut groups: Vec<(ThreadId, ThreadId)> = pairs.to_vec();
    groups.sort();
    groups.dedup();
    if groups.len() > limit {
        return Err(MtcgError::QueueBudget {
            limit: limit as u32,
            pairs: groups.len() as u32,
        });
    }
    let counts: Vec<usize> = groups
        .iter()
        .map(|g| pairs.iter().filter(|p| *p == g).count())
        .collect();

    // Fair shares: start with 1 queue per group, hand out the remainder
    // by largest count (largest-remainder style).
    let mut share = vec![1usize; groups.len()];
    let mut left = limit - groups.len();
    let mut order: Vec<usize> = (0..groups.len()).collect();
    order.sort_by_key(|&g| std::cmp::Reverse(counts[g]));
    while left > 0 {
        let mut progressed = false;
        for &g in &order {
            if left == 0 {
                break;
            }
            if share[g] < counts[g] {
                share[g] += 1;
                left -= 1;
                progressed = true;
            }
        }
        if !progressed {
            break; // every group already has one queue per occurrence
        }
    }
    // Base offsets.
    let mut base = vec![0u32; groups.len()];
    let mut acc = 0u32;
    for (g, b) in base.iter_mut().enumerate() {
        *b = acc;
        acc += share[g] as u32;
    }
    // Static round-robin within each group.
    let mut next_in_group = vec![0usize; groups.len()];
    let mut out = Vec::with_capacity(n);
    for p in pairs {
        let g = groups.binary_search(p).expect("pair present");
        let q = base[g] + (next_in_group[g] % share[g]) as u32;
        next_in_group[g] += 1;
        out.push(q);
    }
    Ok((out, acc))
}

/// Profile-weighted per-queue depth allocation.
///
/// A real synchronization array does not give every queue the same
/// slack: queues carrying loop-iterated traffic need entries to
/// decouple the producer from the consumer (the whole point of DSWP's
/// depth-32 array), while queues touched once per invocation — loop
/// live-ins, control tokens on cold paths — work at depth 1.
///
/// A queue is *hot* when any of its communication points sits in a
/// block executed more often than the function entry (i.e. inside a
/// loop); hot queues get `hot_depth` entries, everything else gets 1.
/// The returned vector has one entry per queue, suitable for
/// `verify_mt`'s per-queue wait graph; the simulated machine gives
/// every queue the one depth `SaConfig::depth`.
pub fn allocate_depths(
    f: &Function,
    profile: &Profile,
    labels: &[QueueLabel],
    num_queues: u32,
    hot_depth: usize,
) -> Vec<usize> {
    let weights = profile.block_weights(f);
    let entry_w = weights.get(f.entry().index()).copied().unwrap_or(0);
    let mut depths = vec![1usize; num_queues as usize];
    for l in labels {
        let b = l.point.block(f);
        let w = weights.get(b.index()).copied().unwrap_or(0);
        if w > entry_w {
            if let Some(d) = depths.get_mut(l.queue.index()) {
                *d = (*d).max(hot_depth.max(1));
            }
        }
    }
    depths
}

/// Profile-estimated dynamic traffic per queue: how many values each
/// queue carries over a run, assuming every communication occurrence
/// executes as often as its enclosing block. This is the static side
/// of the estimate-vs-measurement join — the measured counterpart is
/// the traced engine's per-queue produce count. `weights` are the
/// profile's [`gmt_ir::Profile::block_weights`].
pub fn estimated_traffic(
    f: &Function,
    weights: &[u64],
    labels: &[QueueLabel],
    num_queues: u32,
) -> Vec<u64> {
    let mut traffic = vec![0u64; num_queues as usize];
    for l in labels {
        let b = l.point.block(f);
        let w = weights.get(b.index()).copied().unwrap_or(0);
        if let Some(t) = traffic.get_mut(l.queue.index()) {
            *t = t.saturating_add(w);
        }
    }
    traffic
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(k: u32) -> ThreadId {
        ThreadId(k)
    }

    #[test]
    fn unlimited_is_identity() {
        let pairs = vec![(t(0), t(1)); 5];
        let (qs, total) = allocate(&pairs, QueueBudget::Unlimited).unwrap();
        assert_eq!(qs, vec![0, 1, 2, 3, 4]);
        assert_eq!(total, 5);
    }

    #[test]
    fn under_budget_stays_private() {
        let pairs = vec![(t(0), t(1)), (t(1), t(0)), (t(0), t(1))];
        let (qs, total) = allocate(&pairs, QueueBudget::Limit(8)).unwrap();
        assert_eq!(total, 3);
        assert_eq!(qs.len(), 3);
        let mut sorted = qs.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), 3, "all private: {qs:?}");
    }

    #[test]
    fn over_budget_folds_within_pairs_only() {
        // 6 occurrences of pair A, 2 of pair B, budget 4.
        let mut pairs = vec![(t(0), t(1)); 6];
        pairs.extend([(t(1), t(0)); 2]);
        let (qs, total) = allocate(&pairs, QueueBudget::Limit(4)).unwrap();
        assert!(total <= 4, "{total}");
        // Queues of the two groups never overlap.
        let a: std::collections::BTreeSet<u32> = qs[..6].iter().copied().collect();
        let b: std::collections::BTreeSet<u32> = qs[6..].iter().copied().collect();
        assert!(a.is_disjoint(&b), "{qs:?}");
    }

    #[test]
    fn heavier_group_gets_more_queues() {
        let mut pairs = vec![(t(0), t(1)); 10];
        pairs.extend([(t(1), t(0)); 2]);
        let (qs, _) = allocate(&pairs, QueueBudget::Limit(6)).unwrap();
        let a: std::collections::BTreeSet<u32> = qs[..10].iter().copied().collect();
        let b: std::collections::BTreeSet<u32> = qs[10..].iter().copied().collect();
        assert!(a.len() >= b.len(), "{qs:?}");
    }

    #[test]
    fn budget_below_pair_count_rejected() {
        let pairs = vec![(t(0), t(1)), (t(1), t(2)), (t(2), t(0))];
        let err = allocate(&pairs, QueueBudget::Limit(2)).unwrap_err();
        assert_eq!(err, MtcgError::QueueBudget { limit: 2, pairs: 3 });
    }

    #[test]
    fn round_robin_is_static_and_deterministic() {
        let pairs = vec![(t(0), t(1)); 4];
        let (q1, _) = allocate(&pairs, QueueBudget::Limit(2)).unwrap();
        let (q2, _) = allocate(&pairs, QueueBudget::Limit(2)).unwrap();
        assert_eq!(q1, q2);
        assert_eq!(q1, vec![0, 1, 0, 1]);
    }
}
