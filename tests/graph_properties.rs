//! Property tests of the graph substrate: min-cut correctness on
//! random flow networks (duality with disconnection, minimality,
//! multicut soundness), on the `gmt-testkit` harness with fixed default
//! seeds.

use gmt_graph::{multicut, Capacity, Commodity, FlowNetwork, NodeId};
use gmt_testkit::{prop_assert, prop_assert_eq, ranged, vec_of, Checker, Gen, Shrink};

/// A random sparse network description: node count and weighted arcs.
#[derive(Clone, Debug)]
struct NetDesc {
    nodes: usize,
    arcs: Vec<(usize, usize, u64)>,
}

impl Shrink for NetDesc {
    fn shrinks(&self) -> Vec<NetDesc> {
        // Node count stays fixed (arc endpoints are reduced modulo it);
        // shrinking means dropping/simplifying arcs.
        self.arcs
            .shrinks()
            .into_iter()
            .map(|arcs| NetDesc { nodes: self.nodes, arcs })
            .collect()
    }
}

fn net_gen() -> Gen<NetDesc> {
    ranged(3usize, 12).flat_map(|nodes| {
        vec_of(
            ranged(0usize, nodes).zip(ranged(0usize, nodes)).zip(ranged(1u64, 50)),
            1,
            40,
        )
        .map(move |arcs| NetDesc {
            nodes,
            arcs: arcs
                .into_iter()
                .map(|((a, b), w)| (a, b, w))
                .filter(|&(a, b, _)| a != b)
                .collect(),
        })
    })
}

fn build(desc: &NetDesc) -> FlowNetwork {
    let mut net = FlowNetwork::new();
    net.add_nodes(desc.nodes);
    for &(a, b, w) in &desc.arcs {
        // Shrinking may zero a weight or fold endpoints together; keep
        // the built network well-formed regardless.
        if a == b {
            continue;
        }
        net.add_arc(
            NodeId((a % desc.nodes) as u32),
            NodeId((b % desc.nodes) as u32),
            Capacity::finite(w.max(1)),
        );
    }
    net
}

/// Reachability in the network with the given arcs removed.
fn reaches_without(net: &FlowNetwork, removed: &[gmt_graph::ArcId], s: NodeId, t: NodeId) -> bool {
    let mut adj = vec![Vec::new(); net.node_count()];
    for (id, arc) in net.arcs() {
        if !removed.contains(&id) && !arc.capacity.is_zero() {
            adj[arc.from.index()].push(arc.to);
        }
    }
    let mut seen = vec![false; net.node_count()];
    let mut stack = vec![s];
    seen[s.index()] = true;
    while let Some(x) = stack.pop() {
        if x == t {
            return true;
        }
        for &y in &adj[x.index()] {
            if !seen[y.index()] {
                seen[y.index()] = true;
                stack.push(y);
            }
        }
    }
    false
}

/// The extracted cut (a) sums to the max-flow value and (b)
/// disconnects sink from source.
#[test]
fn mincut_duality_and_disconnection() {
    Checker::new("graph_properties::mincut_duality_and_disconnection").cases(128).run(
        &net_gen(),
        |desc| {
            let net = build(desc);
            let s = NodeId(0);
            let t = NodeId((desc.nodes - 1) as u32);
            let cut = net.min_cut(s, t);
            prop_assert_eq!(net.clone().max_flow(s, t), cut.value);
            if cut.is_feasible() {
                let total: Capacity = cut.arcs.iter().map(|&a| net.arc(a).capacity).sum();
                prop_assert_eq!(total, cut.value);
                prop_assert!(!reaches_without(&net, &cut.arcs, s, t), "cut must disconnect");
            }
            Ok(())
        },
    );
}

/// Removing any single arc from a min cut reconnects s to t (cuts
/// are minimal, not just valid).
#[test]
fn mincut_is_minimal() {
    Checker::new("graph_properties::mincut_is_minimal").cases(128).run(&net_gen(), |desc| {
        let net = build(desc);
        let s = NodeId(0);
        let t = NodeId((desc.nodes - 1) as u32);
        let cut = net.min_cut(s, t);
        if cut.is_feasible() && !cut.arcs.is_empty() {
            for k in 0..cut.arcs.len() {
                let mut partial = cut.arcs.clone();
                partial.remove(k);
                prop_assert!(
                    reaches_without(&net, &partial, s, t),
                    "dropping a cut arc must reconnect"
                );
            }
        }
        Ok(())
    });
}

/// The multicut heuristic disconnects every feasible commodity and
/// never costs more than the sum of independent per-pair cuts.
#[test]
fn multicut_soundness() {
    let gen = net_gen().zip(vec_of(ranged(0usize, 12).zip(ranged(0usize, 12)), 1, 4));
    Checker::new("graph_properties::multicut_soundness").cases(128).run(
        &gen,
        |(desc, pair_seeds)| {
            let net = build(desc);
            let commodities: Vec<Commodity> = pair_seeds
                .iter()
                .map(|&(a, b)| Commodity {
                    source: NodeId((a % desc.nodes) as u32),
                    sink: NodeId((b % desc.nodes) as u32),
                })
                .collect();
            let result = multicut(&net, &commodities);
            let mut independent_total = Capacity::ZERO;
            for (c, &feasible) in commodities.iter().zip(&result.feasible) {
                if c.source == c.sink {
                    continue;
                }
                let single = net.min_cut(c.source, c.sink);
                prop_assert_eq!(feasible, single.is_feasible());
                if feasible {
                    prop_assert!(
                        !reaches_without(&net, &result.arcs, c.source, c.sink),
                        "feasible commodity must be disconnected"
                    );
                    independent_total += single.value;
                }
            }
            prop_assert!(result.value <= independent_total, "sharing must not cost extra");
            Ok(())
        },
    );
}
