//! Max-flow algorithms: Edmonds–Karp and Dinic.
//!
//! Both operate on the residual representation inside
//! [`FlowNetwork`](crate::FlowNetwork). If an augmenting path consists
//! entirely of infinite-capacity arcs the flow value is infinite and the
//! solve returns [`Capacity::INFINITE`] immediately — COCO interprets
//! that as "no feasible communication placement on this graph".

use crate::capacity::Capacity;
use crate::digraph::NodeId;
use crate::flow::{FlowNetwork, FlowNode, VisitSet};

/// Which max-flow algorithm to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MaxFlowAlgo {
    /// BFS augmenting paths; `O(V·E²)`. The algorithm used in the paper
    /// (§4: "Our current implementation of COCO uses Edmonds-Karp's
    /// min-cut algorithm").
    EdmondsKarp,
    /// Level graphs + blocking flows; `O(V²·E)`. The "faster min-cut
    /// algorithm" the paper suggests for production compilers.
    Dinic,
}

/// Edmonds–Karp: repeatedly push along a shortest augmenting path.
pub(crate) fn edmonds_karp(
    net: &mut FlowNetwork,
    source: FlowNode,
    sink: FlowNode,
) -> Capacity {
    let n = net.node_count();
    // The half-arc used to enter each node of the current search; read
    // only for nodes the search visited.
    let mut pred_half = vec![0u32; n];
    let mut visited = VisitSet::new(n);
    let mut queue: Vec<FlowNode> = Vec::with_capacity(n);
    let mut total = Capacity::ZERO;
    loop {
        // BFS for the shortest residual path.
        visited.clear();
        visited.insert(source.index());
        queue.clear();
        queue.push(source);
        let mut at = 0;
        'bfs: while let Some(&u) = queue.get(at) {
            at += 1;
            for half in net.half_arcs_from(u) {
                if net.half_residual(half).is_zero() {
                    continue;
                }
                let v = net.half_head(half);
                if !visited.insert(v.index()) {
                    continue;
                }
                pred_half[v.index()] = half;
                if v == sink {
                    break 'bfs;
                }
                queue.push(v);
            }
        }
        if !visited.contains(sink.index()) {
            return total;
        }
        // Bottleneck along the path.
        let mut bottleneck = Capacity::INFINITE;
        let mut v = sink;
        while v != source {
            let half = pred_half[v.index()];
            bottleneck = bottleneck.min(net.half_residual(half));
            v = net.half_head(half ^ 1);
        }
        if bottleneck.is_infinite() {
            return Capacity::INFINITE;
        }
        // Apply.
        let mut v = sink;
        while v != source {
            let half = pred_half[v.index()];
            net.push_flow(half, bottleneck);
            v = net.half_head(half ^ 1);
        }
        total += bottleneck;
    }
}

/// Dinic: BFS level graph, then DFS blocking flow.
pub(crate) fn dinic(net: &mut FlowNetwork, source: FlowNode, sink: FlowNode) -> Capacity {
    let n = net.node_count();
    let mut level = vec![u32::MAX; n];
    let mut cursor: Vec<Option<u32>> = vec![None; n];
    let mut queue: Vec<FlowNode> = Vec::with_capacity(n);
    let mut total = Capacity::ZERO;
    loop {
        // Level graph via BFS on positive-residual arcs.
        level.fill(u32::MAX);
        level[source.index()] = 0;
        queue.clear();
        queue.push(source);
        let mut at = 0;
        while let Some(&u) = queue.get(at) {
            at += 1;
            for half in net.half_arcs_from(u) {
                if net.half_residual(half).is_zero() {
                    continue;
                }
                let v = net.half_head(half);
                if level[v.index()] == u32::MAX {
                    level[v.index()] = level[u.index()] + 1;
                    queue.push(v);
                }
            }
        }
        if level[sink.index()] == u32::MAX {
            return total;
        }
        // Blocking flow with per-node arc cursors (current-arc heuristic).
        for (u, c) in cursor.iter_mut().enumerate() {
            *c = net.first_half(NodeId(u as u32));
        }
        loop {
            let pushed = dinic_dfs(net, source, sink, Capacity::INFINITE, &level, &mut cursor);
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

/// DFS one augmenting path through the level graph; returns the amount
/// pushed (zero when no path remains).
fn dinic_dfs(
    net: &mut FlowNetwork,
    u: FlowNode,
    sink: FlowNode,
    limit: Capacity,
    level: &[u32],
    cursor: &mut [Option<u32>],
) -> Capacity {
    if u == sink {
        return limit;
    }
    while let Some(half) = cursor[u.index()] {
        let v = net.half_head(half);
        let res = net.half_residual(half);
        if !res.is_zero() && level[v.index()] == level[u.index()] + 1 {
            let pushed = dinic_dfs(net, v, sink, limit.min(res), level, cursor);
            if !pushed.is_zero() {
                if pushed.is_infinite() {
                    return Capacity::INFINITE;
                }
                net.push_flow(half, pushed);
                return pushed;
            }
        }
        cursor[u.index()] = net.half_after(half);
    }
    Capacity::ZERO
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Random-ish deterministic networks; both algorithms must agree.
    #[test]
    fn algorithms_agree_on_grid() {
        // 4x4 grid, capacities derived from position.
        let build = || {
            let mut net = FlowNetwork::new();
            let nodes: Vec<Vec<FlowNode>> = (0..4)
                .map(|_| (0..4).map(|_| net.add_node()).collect())
                .collect();
            for r in 0..4 {
                for c in 0..4 {
                    if c + 1 < 4 {
                        net.add_arc(
                            nodes[r][c],
                            nodes[r][c + 1],
                            Capacity::finite(((r * 7 + c * 3) % 9 + 1) as u64),
                        );
                    }
                    if r + 1 < 4 {
                        net.add_arc(
                            nodes[r][c],
                            nodes[r + 1][c],
                            Capacity::finite(((r * 5 + c * 11) % 9 + 1) as u64),
                        );
                    }
                }
            }
            (net, nodes[0][0], nodes[3][3])
        };
        let (net1, s1, t1) = build();
        let (net2, s2, t2) = build();
        let ek = net1.min_cut_with(s1, t1, MaxFlowAlgo::EdmondsKarp);
        let di = net2.min_cut_with(s2, t2, MaxFlowAlgo::Dinic);
        assert_eq!(ek.value, di.value);
    }

    #[test]
    fn infinite_path_detected_by_both() {
        for algo in [MaxFlowAlgo::EdmondsKarp, MaxFlowAlgo::Dinic] {
            let mut net = FlowNetwork::new();
            let s = net.add_node();
            let a = net.add_node();
            let t = net.add_node();
            net.add_arc(s, a, Capacity::INFINITE);
            net.add_arc(a, t, Capacity::INFINITE);
            assert_eq!(net.max_flow(s, t, algo), Capacity::INFINITE, "{:?}", algo);
        }
    }

    #[test]
    fn finite_and_infinite_mix() {
        // Infinite arc into a finite bottleneck: flow is finite.
        for algo in [MaxFlowAlgo::EdmondsKarp, MaxFlowAlgo::Dinic] {
            let mut net = FlowNetwork::new();
            let s = net.add_node();
            let a = net.add_node();
            let t = net.add_node();
            net.add_arc(s, a, Capacity::INFINITE);
            net.add_arc(a, t, Capacity::finite(4));
            assert_eq!(net.max_flow(s, t, algo), Capacity::finite(4), "{:?}", algo);
        }
    }
}
