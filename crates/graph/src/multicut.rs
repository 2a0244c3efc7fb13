//! Multi-commodity min-cut heuristic for memory synchronization placement.
//!
//! COCO §3.1.3: memory dependences from `T_s` to `T_t` can *share*
//! synchronization instructions, so they must be optimized simultaneously
//! — a multi-source/multi-sink ("multicommodity") min-cut, which is
//! NP-hard in general. The paper's heuristic, implemented here: apply the
//! optimal single-pair min-cut to each commodity in turn, and after each
//! pair is disconnected, zero the capacity of its cut arcs so the arcs
//! already paid for help disconnect subsequent pairs for free.

use crate::capacity::Capacity;
use crate::flow::{ArcId, FlowNetwork, FlowNode, VisitSet};
use crate::maxflow::MaxFlowAlgo;

/// One source–sink pair to disconnect: a single memory dependence arc
/// from an instruction in `T_s` (source) to one in `T_t` (sink).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Commodity {
    /// Node of the dependence's source instruction.
    pub source: FlowNode,
    /// Node of the dependence's target instruction.
    pub sink: FlowNode,
}

/// Result of the multicut heuristic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MultiCut {
    /// Union of all arcs cut, in the order they were first cut.
    pub arcs: Vec<ArcId>,
    /// Total original capacity of the cut arcs (each arc counted once).
    pub value: Capacity,
    /// Per-commodity feasibility: `false` where no finite cut existed
    /// (the caller falls back to MTCG's placement for that dependence).
    pub feasible: Vec<bool>,
}

/// Runs the greedy per-pair multicut heuristic over `commodities`.
///
/// Pairs are processed in the given order. For each pair a single-pair
/// min-cut (Edmonds–Karp) is computed on the network with all
/// previously-cut arcs at capacity zero; newly cut arcs are appended to
/// the result and zeroed in the working network. One working copy of
/// `net` serves every solve: its residuals are reset before each.
///
/// A pair whose source equals its sink, or that is already disconnected
/// by earlier cuts, contributes no new arcs and is reported feasible.
///
/// A final *redundancy elimination* pass then drops every cut arc whose
/// restoration leaves all commodities disconnected. This matters when
/// arc costs tie: the per-pair min-cuts may each pick a private arc even
/// though one shared arc downstream covers every pair (the sharing the
/// paper's §3.1.3 is after), and the elimination pass recovers the
/// shared solution.
pub fn multicut(net: &FlowNetwork, commodities: &[Commodity]) -> MultiCut {
    let mut work = net.clone();
    let mut cut_arcs: Vec<ArcId> = Vec::new();
    let mut is_cut = vec![false; net.arc_count()];
    let mut feasible = Vec::with_capacity(commodities.len());
    let mut value = Capacity::ZERO;

    for &Commodity { source, sink } in commodities {
        if source == sink {
            feasible.push(true);
            continue;
        }
        work.reset();
        let cut = work.min_cut_in_place(source, sink, MaxFlowAlgo::EdmondsKarp);
        feasible.push(cut.is_feasible());
        // Empty when infeasible or already disconnected. A cut arc
        // leaves the working network so that it helps disconnect
        // subsequent pairs.
        for id in cut.arcs {
            if !is_cut[id.index()] {
                is_cut[id.index()] = true;
                value += net.arc(id).capacity;
                cut_arcs.push(id);
                work.set_capacity(id, Capacity::ZERO);
            }
        }
    }

    // Redundancy elimination: try restoring each cut arc (cheapest
    // last, so expensive arcs are dropped first when possible); keep
    // the restoration if every feasible commodity stays disconnected.
    let mut order: Vec<usize> = (0..cut_arcs.len()).collect();
    order.sort_by_key(|&k| std::cmp::Reverse(net.arc(cut_arcs[k]).capacity));
    let mut seen = VisitSet::new(net.node_count());
    let mut stack = Vec::new();
    for k in order {
        let arc = cut_arcs[k];
        let capacity = net.arc(arc).capacity;
        work.set_capacity(arc, capacity);
        let still_ok = commodities.iter().zip(&feasible).all(|(c, &ok)| {
            !ok || c.source == c.sink || !work.reaches(c.source, c.sink, &mut seen, &mut stack)
        });
        if still_ok {
            is_cut[arc.index()] = false;
            value = value - capacity;
        } else {
            work.set_capacity(arc, Capacity::ZERO);
        }
    }
    cut_arcs.retain(|a| is_cut[a.index()]);

    MultiCut {
        arcs: cut_arcs,
        value,
        feasible,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::generated::net_gen;
    use crate::flow::reference::RefNetwork;
    use gmt_testkit::{prop_assert_eq, Checker};

    /// A copy of `net` with the flagged arcs' capacities zeroed. Arc ids
    /// are preserved (arcs are kept with zero capacity rather than
    /// removed).
    fn rebuild_without(net: &FlowNetwork, removed: &[bool]) -> FlowNetwork {
        let mut out = FlowNetwork::new();
        out.add_nodes(net.node_count());
        for (id, arc) in net.arcs() {
            let cap = if removed[id.index()] { Capacity::ZERO } else { arc.capacity };
            out.add_arc(arc.from, arc.to, cap);
        }
        out
    }

    /// The pre-change heuristic on the pre-change solver: the working
    /// network is rebuilt after every commodity that cut something, and
    /// every reachability query of the elimination pass builds its own
    /// adjacency lists.
    fn multicut_by_rebuilding(net: &RefNetwork, commodities: &[Commodity]) -> MultiCut {
        let capacity = |a: ArcId| net.original[a.index()];
        let without = |is_cut: &[bool]| {
            let mut out = RefNetwork::with_nodes(net.node_count());
            for (a, (from, to, cap)) in net.arcs().enumerate() {
                out.add_arc(from, to, if is_cut[a] { Capacity::ZERO } else { cap });
            }
            out
        };
        let reaches = |is_cut: &[bool], from: FlowNode, to: FlowNode| {
            let mut adj: Vec<Vec<FlowNode>> = vec![Vec::new(); net.node_count()];
            for (a, (tail, head, cap)) in net.arcs().enumerate() {
                if !is_cut[a] && !cap.is_zero() {
                    adj[tail.index()].push(head);
                }
            }
            let mut seen = vec![false; net.node_count()];
            let mut stack = vec![from];
            seen[from.index()] = true;
            while let Some(n) = stack.pop() {
                if n == to {
                    return true;
                }
                for &s in &adj[n.index()] {
                    if !seen[s.index()] {
                        seen[s.index()] = true;
                        stack.push(s);
                    }
                }
            }
            false
        };
        let mut work = net.clone();
        let mut cut_arcs: Vec<ArcId> = Vec::new();
        let mut is_cut = vec![false; net.original.len()];
        let mut feasible = Vec::new();
        let mut value = Capacity::ZERO;
        for &Commodity { source, sink } in commodities {
            if source == sink {
                feasible.push(true);
                continue;
            }
            let cut = work.min_cut_with(source, sink, MaxFlowAlgo::EdmondsKarp);
            feasible.push(cut.is_feasible());
            if cut.arcs.is_empty() {
                continue;
            }
            for id in cut.arcs {
                if !is_cut[id.index()] {
                    is_cut[id.index()] = true;
                    value += capacity(id);
                    cut_arcs.push(id);
                }
            }
            work = without(&is_cut);
        }
        let mut order: Vec<usize> = (0..cut_arcs.len()).collect();
        order.sort_by_key(|&k| std::cmp::Reverse(capacity(cut_arcs[k])));
        for k in order {
            let arc = cut_arcs[k];
            is_cut[arc.index()] = false;
            let still_ok = commodities.iter().zip(&feasible).all(|(c, &ok)| {
                !ok || c.source == c.sink || !reaches(&is_cut, c.source, c.sink)
            });
            if still_ok {
                value = value - capacity(arc);
            } else {
                is_cut[arc.index()] = true;
            }
        }
        cut_arcs.retain(|a| is_cut[a.index()]);
        MultiCut { arcs: cut_arcs, value, feasible }
    }

    /// One working network, reset and zeroed in place, gives the arcs,
    /// value and feasibility the rebuild-per-commodity heuristic gave —
    /// with infinite arcs, zero-capacity arcs, `source == sink` and
    /// commodities no path connects among the inputs.
    #[test]
    fn in_place_multicut_matches_the_rebuilding_one() {
        let seen = std::cell::Cell::new([0usize; 4]);
        Checker::new("multicut::in_place_vs_rebuilding").cases(600).run(&net_gen(), |desc| {
            let (net, reference) = desc.build();
            let commodities: Vec<Commodity> = desc
                .pairs
                .iter()
                .map(|&(s, t)| Commodity { source: desc.node(s), sink: desc.node(t) })
                .collect();
            let got = multicut(&net, &commodities);
            let want = multicut_by_rebuilding(&reference, &commodities);
            prop_assert_eq!(&got, &want);
            let mut n = seen.get();
            n[0] += usize::from(got.feasible.contains(&false));
            n[1] += usize::from(commodities.iter().any(|c| c.source == c.sink));
            n[2] += usize::from(got.arcs.len() > 1);
            n[3] += usize::from(desc.arcs.iter().any(|a| a.2 == 0));
            seen.set(n);
            Ok(())
        });
        let [infeasible, trivial, several_arcs, zero_arcs] = seen.get();
        assert!(
            infeasible > 20 && trivial > 20 && several_arcs > 20 && zero_arcs > 20,
            "generated inputs too tame: {:?}",
            seen.get()
        );
    }

    /// Two pairs sharing a bottleneck arc: the heuristic should cut the
    /// shared arc once and disconnect both pairs with it.
    #[test]
    fn shared_arc_paid_once() {
        //   s1 --5--> m --3--> n --5--> t1
        //   s2 --5--/            \--5--> t2
        let mut net = FlowNetwork::new();
        let s1 = net.add_node();
        let s2 = net.add_node();
        let m = net.add_node();
        let n = net.add_node();
        let t1 = net.add_node();
        let t2 = net.add_node();
        net.add_arc(s1, m, Capacity::finite(5));
        net.add_arc(s2, m, Capacity::finite(5));
        let shared = net.add_arc(m, n, Capacity::finite(3));
        net.add_arc(n, t1, Capacity::finite(5));
        net.add_arc(n, t2, Capacity::finite(5));
        let result = multicut(
            &net,
            &[
                Commodity { source: s1, sink: t1 },
                Commodity { source: s2, sink: t2 },
            ],
        );
        assert_eq!(result.arcs, vec![shared]);
        assert_eq!(result.value, Capacity::finite(3));
        assert_eq!(result.feasible, vec![true, true]);
    }

    /// Disjoint pairs each get their own cut.
    #[test]
    fn disjoint_pairs() {
        let mut net = FlowNetwork::new();
        let s1 = net.add_node();
        let t1 = net.add_node();
        let s2 = net.add_node();
        let t2 = net.add_node();
        let a1 = net.add_arc(s1, t1, Capacity::finite(2));
        let a2 = net.add_arc(s2, t2, Capacity::finite(7));
        let result = multicut(
            &net,
            &[
                Commodity { source: s1, sink: t1 },
                Commodity { source: s2, sink: t2 },
            ],
        );
        assert_eq!(result.arcs, vec![a1, a2]);
        assert_eq!(result.value, Capacity::finite(9));
    }

    /// A pair with only infinite-capacity paths is infeasible; others are
    /// unaffected.
    #[test]
    fn infeasible_pair_reported() {
        let mut net = FlowNetwork::new();
        let s1 = net.add_node();
        let t1 = net.add_node();
        let s2 = net.add_node();
        let t2 = net.add_node();
        net.add_arc(s1, t1, Capacity::INFINITE);
        let a2 = net.add_arc(s2, t2, Capacity::finite(1));
        let result = multicut(
            &net,
            &[
                Commodity { source: s1, sink: t1 },
                Commodity { source: s2, sink: t2 },
            ],
        );
        assert_eq!(result.feasible, vec![false, true]);
        assert_eq!(result.arcs, vec![a2]);
    }

    /// An already-disconnected pair contributes nothing.
    #[test]
    fn disconnected_pair_is_free() {
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let t = net.add_node();
        let result = multicut(&net, &[Commodity { source: s, sink: t }]);
        assert!(result.arcs.is_empty());
        assert_eq!(result.value, Capacity::ZERO);
        assert_eq!(result.feasible, vec![true]);
    }

    /// Self-pair (source == sink) is trivially satisfied.
    #[test]
    fn self_pair_is_trivial() {
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let result = multicut(&net, &[Commodity { source: s, sink: s }]);
        assert!(result.arcs.is_empty());
        assert_eq!(result.feasible, vec![true]);
    }

    /// Order dependence: the greedy heuristic cuts the first pair's
    /// min-cut even when a globally cheaper shared cut exists — the
    /// documented sub-optimality of the paper's approach.
    #[test]
    fn heuristic_is_greedy_not_optimal() {
        // s1 -> x -> t1 with cheap direct arc s1->t1;
        // a truly optimal multicut over crafted instances may differ,
        // but the invariant we guarantee is: after the run, every
        // feasible pair is disconnected in the residual graph.
        let mut net = FlowNetwork::new();
        let s1 = net.add_node();
        let x = net.add_node();
        let t1 = net.add_node();
        net.add_arc(s1, x, Capacity::finite(1));
        net.add_arc(x, t1, Capacity::finite(4));
        net.add_arc(s1, t1, Capacity::finite(2));
        let result = multicut(&net, &[Commodity { source: s1, sink: t1 }]);
        // Min cut = min(1+2, ...) => cutting s1->x (1) and s1->t1 (2) = 3.
        assert_eq!(result.value, Capacity::finite(3));
        // Verify disconnection: remove cut arcs, re-run min-cut => zero.
        let removed: Vec<bool> = (0..net.arc_count())
            .map(|i| result.arcs.contains(&ArcId(i as u32)))
            .collect();
        let pruned = rebuild_without(&net, &removed);
        assert_eq!(pruned.min_cut(s1, t1).value, Capacity::ZERO);
    }
}
