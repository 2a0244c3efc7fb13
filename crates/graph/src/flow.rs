//! s–t flow networks and minimum cuts.

use crate::capacity::Capacity;
use crate::digraph::NodeId;
use crate::maxflow;
use std::fmt;

/// Index of a *forward* arc in a [`FlowNetwork`], stable across solves.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ArcId(pub u32);

impl ArcId {
    /// The arc index as a `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ArcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// A node of a flow network. Alias of the [`DiGraph`](crate::DiGraph)
/// node id so ids can be shared with companion graphs.
pub type FlowNode = NodeId;

/// A forward arc of a flow network.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowArc {
    /// Tail node.
    pub from: FlowNode,
    /// Head node.
    pub to: FlowNode,
    /// Capacity (cut cost).
    pub capacity: Capacity,
}

/// End of a node's half-arc list.
const NO_HALF: u32 = u32::MAX;

/// A directed flow network on which max-flow / min-cut is solved.
///
/// This is the `G_f` of the COCO paper: nodes are program points of a
/// register live-range (or of the whole region, for memory), arcs are
/// control-flow arcs weighted by profile frequency, and a minimum s–t cut
/// is the cheapest set of program points at which to communicate.
///
/// Arcs are stored in pairs (forward, residual-reverse) as in standard
/// max-flow implementations. Only forward arcs are exposed through
/// [`ArcId`]s. The half-arcs leaving a node form a linked list through
/// flat arrays (`first` / `next` / `last`, insertion order kept), so a
/// node costs no allocation and a clone is seven `memcpy`s.
#[derive(Clone, Default)]
pub struct FlowNetwork {
    /// head node of each half-arc (even = forward, odd = reverse).
    head: Vec<FlowNode>,
    /// residual capacity of each half-arc.
    residual: Vec<Capacity>,
    /// the half-arc after each half-arc in its tail node's list.
    next: Vec<u32>,
    /// original capacity of each *forward* arc.
    original: Vec<Capacity>,
    /// tail node of each forward arc.
    tail: Vec<FlowNode>,
    /// first half-arc leaving each node.
    first: Vec<u32>,
    /// last half-arc leaving each node (where the next one is linked).
    last: Vec<u32>,
}

/// The half-arcs leaving one node, in insertion order.
pub(crate) struct HalfArcs<'a> {
    next: &'a [u32],
    at: u32,
}

impl Iterator for HalfArcs<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        let half = self.at;
        // `NO_HALF` indexes no half-arc, so the list ends here.
        let after = *self.next.get(half as usize)?;
        self.at = after;
        Some(half)
    }
}

impl FlowNetwork {
    /// Creates an empty network.
    pub fn new() -> FlowNetwork {
        FlowNetwork::default()
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self) -> FlowNode {
        self.add_nodes(1)
    }

    /// Adds `n` nodes at once, returning the id of the first.
    pub fn add_nodes(&mut self, n: usize) -> FlowNode {
        let first = NodeId(self.first.len() as u32);
        self.first.resize(self.first.len() + n, NO_HALF);
        self.last.resize(self.last.len() + n, NO_HALF);
        first
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.first.len()
    }

    /// Number of forward arcs.
    pub fn arc_count(&self) -> usize {
        self.original.len()
    }

    /// Adds a directed arc with the given capacity; returns its id.
    ///
    /// Parallel arcs are allowed (their capacities act additively).
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn add_arc(&mut self, from: FlowNode, to: FlowNode, capacity: Capacity) -> ArcId {
        assert!(from.index() < self.node_count() && to.index() < self.node_count());
        let arc = ArcId(self.original.len() as u32);
        let fwd = self.head.len() as u32;
        self.head.extend([to, from]);
        self.residual.extend([capacity, Capacity::ZERO]);
        self.next.extend([NO_HALF, NO_HALF]);
        for (node, half) in [(from, fwd), (to, fwd + 1)] {
            match self.last[node.index()] {
                NO_HALF => self.first[node.index()] = half,
                last => self.next[last as usize] = half,
            }
            self.last[node.index()] = half;
        }
        self.original.push(capacity);
        self.tail.push(from);
        arc
    }

    /// The forward arc `id` as stored (original capacity, not residual).
    pub fn arc(&self, id: ArcId) -> FlowArc {
        FlowArc {
            from: self.tail[id.index()],
            to: self.head[id.index() * 2],
            capacity: self.original[id.index()],
        }
    }

    /// All forward arcs in insertion order.
    pub fn arcs(&self) -> impl Iterator<Item = (ArcId, FlowArc)> + '_ {
        (0..self.arc_count() as u32).map(move |i| (ArcId(i), self.arc(ArcId(i))))
    }

    /// Computes a maximum s–t flow (Edmonds–Karp) and returns its value.
    /// The network's residual state is updated; call
    /// [`FlowNetwork::reset`] to solve again from scratch.
    ///
    /// # Panics
    ///
    /// Panics if `source == sink`.
    pub fn max_flow(&mut self, source: FlowNode, sink: FlowNode) -> Capacity {
        assert_ne!(source, sink, "source and sink must differ");
        maxflow::edmonds_karp(self, source, sink)
    }

    /// Computes a minimum s–t cut: the cheapest set of forward arcs whose
    /// removal disconnects `sink` from `source`.
    ///
    /// The receiver is not mutated; the solve runs on a clone, so a
    /// network can be cut repeatedly. A caller that owns its network and
    /// is done with it after the cut — COCO builds one per register —
    /// uses [`min_cut_in_place`](FlowNetwork::min_cut_in_place) and
    /// saves the copy.
    ///
    /// If every s–t path crosses an infinite-capacity arc the returned
    /// cut has `value == Capacity::INFINITE` and lists no arcs; callers
    /// treat that as "no feasible placement" (COCO then falls back to the
    /// MTCG placement, which the paper proves always yields a finite
    /// cut).
    pub fn min_cut(&self, source: FlowNode, sink: FlowNode) -> MinCut {
        self.clone().min_cut_in_place(source, sink)
    }

    /// [`min_cut`](FlowNetwork::min_cut) on the receiver's own residual
    /// state, which is left at the maximum flow found:
    /// [`reset`](FlowNetwork::reset) before solving again.
    ///
    /// The cut reported is the set of arcs leaving the nodes the source
    /// still reaches in the residual graph. That set is the smallest
    /// source side any minimum cut has, whichever maximum flow the
    /// solver arrived at, so the arcs depend neither on the algorithm
    /// nor on the order arcs were added in.
    pub fn min_cut_in_place(&mut self, source: FlowNode, sink: FlowNode) -> MinCut {
        let value = self.max_flow(source, sink);
        if value.is_infinite() {
            return MinCut {
                value,
                arcs: Vec::new(),
                source_side: Vec::new(),
            };
        }
        // Nodes reachable from the source in the residual graph form the
        // source side of the cut.
        let reachable = self.residual_reachable(source);
        let arcs = (0..self.arc_count())
            .filter(|&a| {
                // Saturated forward arc crossing the cut.
                reachable[self.tail[a].index()]
                    && !reachable[self.head[a * 2].index()]
                    && !self.original[a].is_zero()
            })
            .map(|a| ArcId(a as u32))
            .collect();
        let source_side = (0..self.node_count())
            .map(|i| NodeId(i as u32))
            .filter(|n| reachable[n.index()])
            .collect();
        MinCut {
            value,
            arcs,
            source_side,
        }
    }

    /// Restores all residual capacities to the original arc capacities.
    pub fn reset(&mut self) {
        for i in 0..self.original.len() {
            self.residual[i * 2] = self.original[i];
            self.residual[i * 2 + 1] = Capacity::ZERO;
        }
    }

    /// Nodes reachable from `start` through arcs with positive residual
    /// capacity.
    fn residual_reachable(&self, start: FlowNode) -> Vec<bool> {
        let mut seen = vec![false; self.node_count()];
        let mut stack = vec![start];
        seen[start.index()] = true;
        while let Some(n) = stack.pop() {
            for half in self.half_arcs_from(n) {
                if self.residual[half as usize].is_zero() {
                    continue;
                }
                let to = self.head[half as usize];
                if !seen[to.index()] {
                    seen[to.index()] = true;
                    stack.push(to);
                }
            }
        }
        seen
    }

    // ---- internals shared with the max-flow solver and multicut ----

    /// Whether `to` is reachable from `from` along forward arcs of
    /// positive *capacity* (a zero-capacity arc is no program path).
    /// `seen` and `stack` are the caller's scratch, so a run of queries
    /// allocates once.
    pub(crate) fn reaches(
        &self,
        from: FlowNode,
        to: FlowNode,
        seen: &mut VisitSet,
        stack: &mut Vec<FlowNode>,
    ) -> bool {
        seen.clear();
        stack.clear();
        seen.insert(from.index());
        stack.push(from);
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            for half in self.half_arcs_from(n) {
                if half % 2 == 1 || self.original[half as usize / 2].is_zero() {
                    continue;
                }
                let s = self.head[half as usize];
                if seen.insert(s.index()) {
                    stack.push(s);
                }
            }
        }
        false
    }

    /// Replaces the capacity of forward arc `id` (its residuals follow
    /// at the next [`reset`](FlowNetwork::reset)).
    pub(crate) fn set_capacity(&mut self, id: ArcId, capacity: Capacity) {
        self.original[id.index()] = capacity;
    }

    pub(crate) fn half_arcs_from(&self, n: FlowNode) -> HalfArcs<'_> {
        HalfArcs { next: &self.next, at: self.first[n.index()] }
    }

    pub(crate) fn half_head(&self, half: u32) -> FlowNode {
        self.head[half as usize]
    }

    pub(crate) fn half_residual(&self, half: u32) -> Capacity {
        self.residual[half as usize]
    }

    pub(crate) fn push_flow(&mut self, half: u32, amount: Capacity) {
        let h = half as usize;
        self.residual[h] = self.residual[h] - amount;
        let mate = h ^ 1;
        // Reverse residual of an infinite arc saturates harmlessly.
        self.residual[mate] += amount;
    }
}

/// A set over `0..n` that empties in O(1): an element is in the set
/// while its slot holds the current stamp. The visited set of a graph
/// walk that runs many times over one graph.
#[derive(Clone, Debug)]
pub struct VisitSet {
    mark: Vec<u32>,
    stamp: u32,
}

impl VisitSet {
    /// An empty set over `0..n`.
    pub fn new(n: usize) -> VisitSet {
        VisitSet { mark: vec![0; n], stamp: 1 }
    }

    /// Empties the set.
    pub fn clear(&mut self) {
        if self.stamp == u32::MAX {
            self.mark.fill(0);
            self.stamp = 0;
        }
        self.stamp += 1;
    }

    /// Inserts `i`; returns whether it was absent.
    pub fn insert(&mut self, i: usize) -> bool {
        let absent = self.mark[i] != self.stamp;
        self.mark[i] = self.stamp;
        absent
    }

    /// Whether `i` is in the set.
    pub fn contains(&self, i: usize) -> bool {
        self.mark[i] == self.stamp
    }
}

impl fmt::Debug for FlowNetwork {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "FlowNetwork({} nodes, {} arcs)",
            self.node_count(),
            self.arc_count()
        )?;
        for (id, arc) in self.arcs() {
            writeln!(f, "  {:?}: {:?} -> {:?} cap {:?}", id, arc.from, arc.to, arc.capacity)?;
        }
        Ok(())
    }
}

/// A minimum s–t cut.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MinCut {
    /// Total capacity of the cut (equals the max-flow value).
    pub value: Capacity,
    /// The forward arcs crossing the cut, source side → sink side.
    /// Empty if `value` is infinite (no finite cut exists).
    pub arcs: Vec<ArcId>,
    /// Nodes on the source side of the cut.
    pub source_side: Vec<FlowNode>,
}

impl MinCut {
    /// Whether a finite cut was found.
    pub fn is_feasible(&self) -> bool {
        !self.value.is_infinite()
    }
}

/// The differential reference: per-node adjacency lists, a clone per
/// cut, and two solvers that allocate their search state per augmenting
/// path or phase — the pre-change Edmonds–Karp and Dinic, an algorithm
/// independent of the one the crate ships. The generated-network tests
/// here and in `multicut` hold the flat, in-place solver to their
/// answers.
#[cfg(test)]
pub(crate) mod reference {
    use super::{ArcId, FlowNode, MinCut};
    use crate::capacity::Capacity;
    use crate::digraph::NodeId;
    use std::collections::VecDeque;

    #[derive(Clone, Default)]
    pub(crate) struct RefNetwork {
        head: Vec<FlowNode>,
        residual: Vec<Capacity>,
        pub(crate) original: Vec<Capacity>,
        tail: Vec<FlowNode>,
        adjacency: Vec<Vec<u32>>,
    }

    impl RefNetwork {
        pub(crate) fn with_nodes(n: usize) -> RefNetwork {
            RefNetwork { adjacency: vec![Vec::new(); n], ..RefNetwork::default() }
        }

        pub(crate) fn node_count(&self) -> usize {
            self.adjacency.len()
        }

        pub(crate) fn add_arc(&mut self, from: FlowNode, to: FlowNode, capacity: Capacity) {
            let fwd = self.head.len() as u32;
            self.head.extend([to, from]);
            self.residual.extend([capacity, Capacity::ZERO]);
            self.adjacency[from.index()].push(fwd);
            self.adjacency[to.index()].push(fwd + 1);
            self.original.push(capacity);
            self.tail.push(from);
        }

        /// `(from, to, capacity)` of every forward arc, in insertion order.
        pub(crate) fn arcs(&self) -> impl Iterator<Item = (FlowNode, FlowNode, Capacity)> + '_ {
            (0..self.original.len()).map(|a| (self.tail[a], self.head[a * 2], self.original[a]))
        }

        /// The minimum cut by Dinic.
        pub(crate) fn min_cut(&self, source: FlowNode, sink: FlowNode) -> MinCut {
            self.min_cut_by(source, sink, RefNetwork::dinic)
        }

        /// The minimum cut with the maximum flow `solve` pushes.
        pub(crate) fn min_cut_by(
            &self,
            source: FlowNode,
            sink: FlowNode,
            solve: fn(&mut RefNetwork, FlowNode, FlowNode) -> Capacity,
        ) -> MinCut {
            let mut solved = self.clone();
            let value = solve(&mut solved, source, sink);
            if value.is_infinite() {
                return MinCut { value, arcs: Vec::new(), source_side: Vec::new() };
            }
            let mut reachable = vec![false; self.node_count()];
            let mut stack = vec![source];
            reachable[source.index()] = true;
            while let Some(n) = stack.pop() {
                for &half in &solved.adjacency[n.index()] {
                    let to = solved.head[half as usize];
                    if !solved.residual[half as usize].is_zero() && !reachable[to.index()] {
                        reachable[to.index()] = true;
                        stack.push(to);
                    }
                }
            }
            let arcs = self
                .arcs()
                .enumerate()
                .filter(|&(_, (from, to, cap))| {
                    reachable[from.index()] && !reachable[to.index()] && !cap.is_zero()
                })
                .map(|(a, _)| ArcId(a as u32))
                .collect();
            let source_side =
                (0..self.node_count() as u32).map(NodeId).filter(|n| reachable[n.index()]).collect();
            MinCut { value, arcs, source_side }
        }

        fn push_flow(&mut self, half: u32, amount: Capacity) {
            let h = half as usize;
            self.residual[h] = self.residual[h] - amount;
            self.residual[h ^ 1] += amount;
        }

        pub(crate) fn edmonds_karp(&mut self, source: FlowNode, sink: FlowNode) -> Capacity {
            let mut total = Capacity::ZERO;
            loop {
                let n = self.node_count();
                let mut pred_half: Vec<Option<u32>> = vec![None; n];
                let mut visited = vec![false; n];
                visited[source.index()] = true;
                let mut queue = VecDeque::from([source]);
                'bfs: while let Some(u) = queue.pop_front() {
                    for &half in &self.adjacency[u.index()] {
                        let v = self.head[half as usize];
                        if self.residual[half as usize].is_zero() || visited[v.index()] {
                            continue;
                        }
                        visited[v.index()] = true;
                        pred_half[v.index()] = Some(half);
                        if v == sink {
                            break 'bfs;
                        }
                        queue.push_back(v);
                    }
                }
                if !visited[sink.index()] {
                    return total;
                }
                let path: Vec<u32> = std::iter::successors(pred_half[sink.index()], |&half| {
                    pred_half[self.head[half as usize ^ 1].index()]
                })
                .collect();
                let bottleneck = path
                    .iter()
                    .fold(Capacity::INFINITE, |b, &half| b.min(self.residual[half as usize]));
                if bottleneck.is_infinite() {
                    return Capacity::INFINITE;
                }
                for half in path {
                    self.push_flow(half, bottleneck);
                }
                total += bottleneck;
            }
        }

        pub(crate) fn dinic(&mut self, source: FlowNode, sink: FlowNode) -> Capacity {
            let n = self.node_count();
            let mut total = Capacity::ZERO;
            loop {
                let mut level = vec![u32::MAX; n];
                level[source.index()] = 0;
                let mut queue = VecDeque::from([source]);
                while let Some(u) = queue.pop_front() {
                    for &half in &self.adjacency[u.index()] {
                        let v = self.head[half as usize];
                        if !self.residual[half as usize].is_zero() && level[v.index()] == u32::MAX {
                            level[v.index()] = level[u.index()] + 1;
                            queue.push_back(v);
                        }
                    }
                }
                if level[sink.index()] == u32::MAX {
                    return total;
                }
                let mut cursor = vec![0usize; n];
                loop {
                    let pushed = self.dinic_dfs(source, sink, Capacity::INFINITE, &level, &mut cursor);
                    if pushed.is_zero() {
                        break;
                    }
                    if pushed.is_infinite() {
                        return Capacity::INFINITE;
                    }
                    total += pushed;
                }
            }
        }

        fn dinic_dfs(
            &mut self,
            u: FlowNode,
            sink: FlowNode,
            limit: Capacity,
            level: &[u32],
            cursor: &mut [usize],
        ) -> Capacity {
            if u == sink {
                return limit;
            }
            while cursor[u.index()] < self.adjacency[u.index()].len() {
                let half = self.adjacency[u.index()][cursor[u.index()]];
                let v = self.head[half as usize];
                let res = self.residual[half as usize];
                if !res.is_zero() && level[v.index()] == level[u.index()] + 1 {
                    let pushed = self.dinic_dfs(v, sink, limit.min(res), level, cursor);
                    if !pushed.is_zero() {
                        if !pushed.is_infinite() {
                            self.push_flow(half, pushed);
                        }
                        return pushed;
                    }
                }
                cursor[u.index()] += 1;
            }
            Capacity::ZERO
        }
    }
}

/// Generated networks for the differential tests of this crate: a few
/// nodes, arcs whose capacities include zero and infinity, self-loops
/// and parallel arcs, and source–sink pairs that may coincide or be
/// disconnected from the start.
#[cfg(test)]
pub(crate) mod generated {
    use super::reference::RefNetwork;
    use super::FlowNetwork;
    use crate::capacity::Capacity;
    use crate::digraph::NodeId;
    use gmt_testkit::{ranged, vec_of, Gen, Shrink};

    #[derive(Clone, Debug)]
    pub(crate) struct NetDesc {
        pub(crate) nodes: usize,
        /// `(from, to, capacity code)`: 0 is zero, 1 is infinite.
        pub(crate) arcs: Vec<(usize, usize, u64)>,
        pub(crate) pairs: Vec<(usize, usize)>,
    }

    impl Shrink for NetDesc {
        fn shrinks(&self) -> Vec<NetDesc> {
            let fewer_arcs = self.arcs.shrinks().into_iter().map(|arcs| NetDesc { arcs, ..self.clone() });
            let fewer_pairs =
                self.pairs.shrinks().into_iter().map(|pairs| NetDesc { pairs, ..self.clone() });
            fewer_arcs.chain(fewer_pairs).collect()
        }
    }

    pub(crate) fn net_gen() -> Gen<NetDesc> {
        ranged(2usize, 10).flat_map(|nodes| {
            let node = move || ranged(0usize, nodes);
            vec_of(node().zip(node()).zip(ranged(0u64, 12)), 0, 30)
                .zip(vec_of(node().zip(node()), 1, 5))
                .map(move |(arcs, pairs)| NetDesc {
                    nodes,
                    arcs: arcs.into_iter().map(|((a, b), w)| (a, b, w)).collect(),
                    pairs,
                })
        })
    }

    impl NetDesc {
        pub(crate) fn node(&self, k: usize) -> NodeId {
            NodeId((k % self.nodes) as u32)
        }

        fn capacity(code: u64) -> Capacity {
            match code {
                0 => Capacity::ZERO,
                1 => Capacity::INFINITE,
                w => Capacity::finite(w),
            }
        }

        pub(crate) fn build(&self) -> (FlowNetwork, RefNetwork) {
            let mut net = FlowNetwork::new();
            net.add_nodes(self.nodes);
            let mut reference = RefNetwork::with_nodes(self.nodes);
            for &(a, b, w) in &self.arcs {
                net.add_arc(self.node(a), self.node(b), NetDesc::capacity(w));
                reference.add_arc(self.node(a), self.node(b), NetDesc::capacity(w));
            }
            (net, reference)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_cut(build: impl Fn() -> (FlowNetwork, FlowNode, FlowNode), expect: Capacity) {
        let (net, s, t) = build();
        let cut = net.min_cut(s, t);
        assert_eq!(cut.value, expect);
        if cut.is_feasible() {
            let total: Capacity = cut.arcs.iter().map(|&a| net.arc(a).capacity).sum();
            assert_eq!(total, expect, "cut arcs must sum to cut value");
        }
    }

    #[test]
    fn single_path() {
        check_cut(
            || {
                let mut net = FlowNetwork::new();
                let s = net.add_node();
                let a = net.add_node();
                let t = net.add_node();
                net.add_arc(s, a, Capacity::finite(5));
                net.add_arc(a, t, Capacity::finite(3));
                (net, s, t)
            },
            Capacity::finite(3),
        );
    }

    #[test]
    fn classic_clrs_network() {
        // CLRS figure 26.6-style network, max flow 23.
        check_cut(
            || {
                let mut net = FlowNetwork::new();
                let s = net.add_node();
                let v1 = net.add_node();
                let v2 = net.add_node();
                let v3 = net.add_node();
                let v4 = net.add_node();
                let t = net.add_node();
                net.add_arc(s, v1, Capacity::finite(16));
                net.add_arc(s, v2, Capacity::finite(13));
                net.add_arc(v1, v3, Capacity::finite(12));
                net.add_arc(v2, v1, Capacity::finite(4));
                net.add_arc(v2, v4, Capacity::finite(14));
                net.add_arc(v3, v2, Capacity::finite(9));
                net.add_arc(v3, t, Capacity::finite(20));
                net.add_arc(v4, v3, Capacity::finite(7));
                net.add_arc(v4, t, Capacity::finite(4));
                (net, s, t)
            },
            Capacity::finite(23),
        );
    }

    #[test]
    fn infinite_arcs_never_cut() {
        // s -inf-> a -2-> b -inf-> t : only the middle arc can be cut.
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let a = net.add_node();
        let b = net.add_node();
        let t = net.add_node();
        net.add_arc(s, a, Capacity::INFINITE);
        let middle = net.add_arc(a, b, Capacity::finite(2));
        net.add_arc(b, t, Capacity::INFINITE);
        let cut = net.min_cut(s, t);
        assert_eq!(cut.value, Capacity::finite(2));
        assert_eq!(cut.arcs, vec![middle]);
    }

    #[test]
    fn no_finite_cut_reports_infeasible() {
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let t = net.add_node();
        net.add_arc(s, t, Capacity::INFINITE);
        let cut = net.min_cut(s, t);
        assert!(!cut.is_feasible());
        assert!(cut.arcs.is_empty());
    }

    #[test]
    fn disconnected_sink_has_empty_cut() {
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let a = net.add_node();
        let t = net.add_node();
        net.add_arc(s, a, Capacity::finite(4));
        let cut = net.min_cut(s, t);
        assert_eq!(cut.value, Capacity::ZERO);
        assert!(cut.arcs.is_empty());
    }

    #[test]
    fn parallel_arcs_add() {
        check_cut(
            || {
                let mut net = FlowNetwork::new();
                let s = net.add_node();
                let t = net.add_node();
                net.add_arc(s, t, Capacity::finite(2));
                net.add_arc(s, t, Capacity::finite(3));
                (net, s, t)
            },
            Capacity::finite(5),
        );
    }

    #[test]
    fn min_cut_does_not_mutate_network() {
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let t = net.add_node();
        net.add_arc(s, t, Capacity::finite(2));
        let c1 = net.min_cut(s, t);
        let c2 = net.min_cut(s, t);
        assert_eq!(c1, c2);
    }

    #[test]
    fn source_side_contains_source() {
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let t = net.add_node();
        net.add_arc(s, t, Capacity::finite(1));
        let cut = net.min_cut(s, t);
        assert!(cut.source_side.contains(&s));
        assert!(!cut.source_side.contains(&t));
    }

    #[test]
    fn zero_capacity_arcs_excluded_from_cut() {
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let t = net.add_node();
        net.add_arc(s, t, Capacity::ZERO);
        let cut = net.min_cut(s, t);
        assert_eq!(cut.value, Capacity::ZERO);
        assert!(cut.arcs.is_empty());
    }

    #[test]
    fn reset_allows_resolving() {
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let t = net.add_node();
        net.add_arc(s, t, Capacity::finite(7));
        assert_eq!(net.max_flow(s, t), Capacity::finite(7));
        assert_eq!(net.max_flow(s, t), Capacity::ZERO);
        net.reset();
        assert_eq!(net.max_flow(s, t), Capacity::finite(7));
    }

    #[test]
    #[should_panic(expected = "differ")]
    fn max_flow_rejects_equal_endpoints() {
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        net.max_flow(s, s);
    }

    /// The flat in-place Edmonds–Karp against the reference solvers, on
    /// generated networks: the same value, the same cut arcs and the
    /// same source side from the reference Dinic, the reference
    /// Edmonds–Karp and the crate's solver, on the caller's network and
    /// on a clone of it.
    #[test]
    fn in_place_min_cut_matches_the_reference_solver() {
        use gmt_testkit::{prop_assert_eq, Checker};
        use reference::RefNetwork;
        let cut_some = std::cell::Cell::new(0usize);
        Checker::new("flow::in_place_vs_reference").cases(400).run(&generated::net_gen(), |desc| {
            let (net, reference) = desc.build();
            for &(s, t) in &desc.pairs {
                let (s, t) = (desc.node(s), desc.node(t));
                if s == t {
                    continue;
                }
                let want = reference.min_cut(s, t);
                prop_assert_eq!(&reference.min_cut_by(s, t, RefNetwork::edmonds_karp), &want);
                prop_assert_eq!(&net.min_cut(s, t), &want);
                let mut owned = net.clone();
                prop_assert_eq!(&owned.min_cut_in_place(s, t), &want);
                // The residual state it leaves is a maximum flow: nothing
                // more can be pushed, and a reset solves anew.
                if want.is_feasible() {
                    prop_assert_eq!(owned.max_flow(s, t), Capacity::ZERO);
                }
                owned.reset();
                prop_assert_eq!(&owned.min_cut_in_place(s, t), &want);
                cut_some.set(cut_some.get() + usize::from(!want.arcs.is_empty()));
            }
            Ok(())
        });
        assert!(cut_some.get() > 100, "only {} generated cuts had arcs", cut_some.get());
    }

    #[test]
    fn visit_set_empties_in_one_step() {
        let mut set = VisitSet::new(3);
        assert!(set.insert(1));
        assert!(!set.insert(1));
        assert!(set.contains(1) && !set.contains(2));
        set.clear();
        assert!(!set.contains(1));
        // The stamp wrapping around must not resurrect old members.
        set.stamp = u32::MAX - 1;
        set.insert(2);
        set.clear();
        set.clear();
        assert!(!set.contains(2) && set.insert(2));
    }
}
