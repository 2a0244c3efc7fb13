//! A compact directed graph with the traversals GMT scheduling needs.

use std::collections::VecDeque;
use std::fmt;

/// Index of a node in a [`DiGraph`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node index as a `usize`, for indexing side tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A directed graph stored as adjacency lists.
///
/// Used for the PDG's inter-thread *thread graph* (COCO Algorithm 2 walks
/// its arcs in quasi-topological order) and for DSWP's SCC condensation
/// (the pipeline DAG). Parallel arcs are allowed; self-loops are allowed
/// and reported as trivial cycles.
///
/// ```
/// use gmt_graph::DiGraph;
/// let mut g = DiGraph::new();
/// let a = g.add_node();
/// let b = g.add_node();
/// g.add_arc(a, b);
/// assert_eq!(g.topological_order(), Some(vec![a, b]));
/// ```
#[derive(Clone, Default)]
pub struct DiGraph {
    succs: Vec<Vec<NodeId>>,
    preds: Vec<Vec<NodeId>>,
}

impl DiGraph {
    /// Creates an empty graph.
    pub fn new() -> DiGraph {
        DiGraph::default()
    }

    /// Creates a graph with `n` nodes and no arcs.
    pub fn with_nodes(n: usize) -> DiGraph {
        DiGraph {
            succs: vec![Vec::new(); n],
            preds: vec![Vec::new(); n],
        }
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.succs.len() as u32);
        self.succs.push(Vec::new());
        self.preds.push(Vec::new());
        id
    }

    /// Adds a directed arc `from -> to`.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn add_arc(&mut self, from: NodeId, to: NodeId) {
        assert!(from.index() < self.len() && to.index() < self.len());
        self.succs[from.index()].push(to);
        self.preds[to.index()].push(from);
    }

    /// Adds `from -> to` unless that exact arc is already present.
    pub fn add_arc_dedup(&mut self, from: NodeId, to: NodeId) {
        if !self.succs[from.index()].contains(&to) {
            self.add_arc(from, to);
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.succs.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.succs.is_empty()
    }

    /// All node ids, in index order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.succs.len() as u32).map(NodeId)
    }

    /// Successors of `n`, in insertion order.
    pub fn succs(&self, n: NodeId) -> &[NodeId] {
        &self.succs[n.index()]
    }

    /// Predecessors of `n`, in insertion order.
    pub fn preds(&self, n: NodeId) -> &[NodeId] {
        &self.preds[n.index()]
    }

    /// Total number of arcs.
    pub fn arc_count(&self) -> usize {
        self.succs.iter().map(Vec::len).sum()
    }

    /// Kahn's algorithm: a topological order, or `None` if the graph is
    /// cyclic.
    pub fn topological_order(&self) -> Option<Vec<NodeId>> {
        let order = self.kahn();
        (order.len() == self.len()).then_some(order)
    }

    /// Kahn's loop: every node no cycle reaches, in topological order
    /// (all nodes when the graph is acyclic).
    fn kahn(&self) -> Vec<NodeId> {
        let mut indegree: Vec<usize> = self.preds.iter().map(Vec::len).collect();
        let mut queue: VecDeque<NodeId> = self
            .nodes()
            .filter(|n| indegree[n.index()] == 0)
            .collect();
        let mut order = Vec::with_capacity(self.len());
        while let Some(n) = queue.pop_front() {
            order.push(n);
            for &s in self.succs(n) {
                indegree[s.index()] -= 1;
                if indegree[s.index()] == 0 {
                    queue.push_back(s);
                }
            }
        }
        order
    }

    /// A quasi-topological order that is defined even for cyclic graphs:
    /// nodes are emitted in reverse post-order of a DFS over all roots.
    ///
    /// For a DAG this is a topological order; for a cyclic graph, back
    /// arcs are the only arcs that go "backwards". COCO's Algorithm 2 uses
    /// this to process thread-graph arcs so the `repeat-until` loop
    /// converges in few iterations.
    pub fn quasi_topological_order(&self) -> Vec<NodeId> {
        let n = self.len();
        let mut visited = vec![false; n];
        let mut post = Vec::with_capacity(n);
        for root in self.nodes() {
            if visited[root.index()] {
                continue;
            }
            // Iterative DFS emitting post-order.
            let mut stack: Vec<(NodeId, usize)> = vec![(root, 0)];
            visited[root.index()] = true;
            while let Some(&mut (node, ref mut child)) = stack.last_mut() {
                if *child < self.succs(node).len() {
                    let next = self.succs(node)[*child];
                    *child += 1;
                    if !visited[next.index()] {
                        visited[next.index()] = true;
                        stack.push((next, 0));
                    }
                } else {
                    post.push(node);
                    stack.pop();
                }
            }
        }
        post.reverse();
        post
    }

    /// Whether the graph contains a directed cycle (including self-loops).
    pub fn is_cyclic(&self) -> bool {
        self.topological_order().is_none()
    }

    /// Condenses the graph by its strongly connected components.
    pub fn condensation(&self) -> Condensation {
        let sccs = crate::scc::strongly_connected_components(self);
        let mut component_of = vec![0usize; self.len()];
        for (i, scc) in sccs.iter().enumerate() {
            for &n in &scc.nodes {
                component_of[n.index()] = i;
            }
        }
        let mut dag = DiGraph::with_nodes(sccs.len());
        for n in self.nodes() {
            for &s in self.succs(n) {
                let (cf, ct) = (component_of[n.index()], component_of[s.index()]);
                if cf != ct {
                    dag.add_arc_dedup(NodeId(cf as u32), NodeId(ct as u32));
                }
            }
        }
        Condensation {
            components: sccs,
            component_of,
            dag,
        }
    }

}

impl fmt::Debug for DiGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DiGraph({} nodes)", self.len())?;
        for n in self.nodes() {
            if !self.succs(n).is_empty() {
                writeln!(f, "  {:?} -> {:?}", n, self.succs(n))?;
            }
        }
        Ok(())
    }
}

/// The strongly-connected-component condensation of a [`DiGraph`].
#[derive(Clone, Debug)]
pub struct Condensation {
    /// The components, in Tarjan's output order: reverse topological,
    /// so every arc of [`Condensation::dag`] goes from a later-indexed
    /// component to an earlier one.
    pub components: Vec<crate::scc::Scc>,
    /// For each original node, the index of its component in
    /// [`Condensation::components`].
    pub component_of: Vec<usize>,
    /// The acyclic condensed graph; node `i` is `components[i]`.
    pub dag: DiGraph,
}

impl Condensation {
    /// [`DiGraph::topological_order`] of [`Condensation::dag`], which is
    /// acyclic by construction: a cycle would merge its components.
    pub fn topological_order(&self) -> Vec<NodeId> {
        self.dag.kahn()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (DiGraph, [NodeId; 4]) {
        let mut g = DiGraph::new();
        let a = g.add_node();
        let b = g.add_node();
        let c = g.add_node();
        let d = g.add_node();
        g.add_arc(a, b);
        g.add_arc(a, c);
        g.add_arc(b, d);
        g.add_arc(c, d);
        (g, [a, b, c, d])
    }

    #[test]
    fn topological_order_of_diamond() {
        let (g, [a, b, c, d]) = diamond();
        let order = g.topological_order().expect("diamond is acyclic");
        let pos = |n: NodeId| order.iter().position(|&x| x == n).unwrap();
        assert!(pos(a) < pos(b) && pos(a) < pos(c));
        assert!(pos(b) < pos(d) && pos(c) < pos(d));
    }

    #[test]
    fn cycle_has_no_topological_order() {
        let mut g = DiGraph::new();
        let a = g.add_node();
        let b = g.add_node();
        g.add_arc(a, b);
        g.add_arc(b, a);
        assert!(g.topological_order().is_none());
        assert!(g.is_cyclic());
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let mut g = DiGraph::new();
        let a = g.add_node();
        g.add_arc(a, a);
        assert!(g.is_cyclic());
    }

    #[test]
    fn quasi_topological_order_covers_all_nodes() {
        let mut g = DiGraph::new();
        let a = g.add_node();
        let b = g.add_node();
        let c = g.add_node();
        g.add_arc(a, b);
        g.add_arc(b, a); // cycle
        g.add_arc(b, c);
        let order = g.quasi_topological_order();
        assert_eq!(order.len(), 3);
        let pos = |n: NodeId| order.iter().position(|&x| x == n).unwrap();
        assert!(pos(b) < pos(c));
    }

    #[test]
    fn condensation_collapses_cycles() {
        let mut g = DiGraph::new();
        let a = g.add_node();
        let b = g.add_node();
        let c = g.add_node();
        g.add_arc(a, b);
        g.add_arc(b, a);
        g.add_arc(b, c);
        let cond = g.condensation();
        assert_eq!(cond.components.len(), 2);
        assert!(!cond.dag.is_cyclic());
        assert_eq!(cond.component_of[a.index()], cond.component_of[b.index()]);
        assert_ne!(cond.component_of[a.index()], cond.component_of[c.index()]);
        assert_eq!(Some(cond.topological_order()), cond.dag.topological_order());
    }

    #[test]
    fn dedup_arcs() {
        let mut g = DiGraph::new();
        let a = g.add_node();
        let b = g.add_node();
        g.add_arc_dedup(a, b);
        g.add_arc_dedup(a, b);
        assert_eq!(g.arc_count(), 1);
    }
}
