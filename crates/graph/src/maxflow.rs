//! Max-flow by Edmonds–Karp, the algorithm the paper uses (§4: "Our
//! current implementation of COCO uses Edmonds-Karp's min-cut
//! algorithm"); `O(V·E²)`.
//!
//! It operates on the residual representation inside
//! [`FlowNetwork`](crate::FlowNetwork). If an augmenting path consists
//! entirely of infinite-capacity arcs the flow value is infinite and the
//! solve returns [`Capacity::INFINITE`] immediately — COCO interprets
//! that as "no feasible communication placement on this graph".

use crate::capacity::Capacity;
use crate::flow::{FlowNetwork, FlowNode, VisitSet};

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

#[cfg(test)]
mod tests {
    use crate::capacity::Capacity;
    use crate::digraph::NodeId;
    use crate::flow::reference::RefNetwork;
    use crate::flow::FlowNetwork;

    /// The same arcs as a flow network and as the reference network.
    fn both(nodes: usize, arcs: &[(u32, u32, Capacity)]) -> (FlowNetwork, RefNetwork) {
        let mut net = FlowNetwork::new();
        net.add_nodes(nodes);
        let mut reference = RefNetwork::with_nodes(nodes);
        for &(a, b, cap) in arcs {
            net.add_arc(NodeId(a), NodeId(b), cap);
            reference.add_arc(NodeId(a), NodeId(b), cap);
        }
        (net, reference)
    }

    /// Edmonds–Karp and the reference's Dinic agree on a 4x4 grid.
    #[test]
    fn algorithms_agree_on_grid() {
        // 4x4 grid, capacities derived from position.
        let at = |r: usize, c: usize| (r * 4 + c) as u32;
        let cap = |k: usize| Capacity::finite((k % 9 + 1) as u64);
        let mut arcs = Vec::new();
        for r in 0..4 {
            for c in 0..4 {
                if c + 1 < 4 {
                    arcs.push((at(r, c), at(r, c + 1), cap(r * 7 + c * 3)));
                }
                if r + 1 < 4 {
                    arcs.push((at(r, c), at(r + 1, c), cap(r * 5 + c * 11)));
                }
            }
        }
        let (net, reference) = both(16, &arcs);
        let (s, t) = (NodeId(at(0, 0)), NodeId(at(3, 3)));
        assert_eq!(net.min_cut(s, t), reference.min_cut(s, t));
    }

    #[test]
    fn infinite_path_detected_by_both() {
        let (mut net, reference) =
            both(3, &[(0, 1, Capacity::INFINITE), (1, 2, Capacity::INFINITE)]);
        assert_eq!(reference.min_cut(NodeId(0), NodeId(2)).value, Capacity::INFINITE);
        assert_eq!(net.max_flow(NodeId(0), NodeId(2)), Capacity::INFINITE);
    }

    #[test]
    fn finite_and_infinite_mix() {
        // Infinite arc into a finite bottleneck: flow is finite.
        let (mut net, _) = both(3, &[(0, 1, Capacity::INFINITE), (1, 2, Capacity::finite(4))]);
        assert_eq!(net.max_flow(NodeId(0), NodeId(2)), Capacity::finite(4));
    }
}
