//! Partition quality metrics and structural checks.

use gmt_pdg::{Partition, Pdg};

/// Whether `partition` forms a pipeline over `pdg`: every inter-thread
/// dependence flows from a lower-numbered thread to a higher-numbered
/// one (the DSWP invariant; see Property 1 discussion in §3 — violating
/// it would create dependence cycles among the threads).
pub fn is_pipeline(pdg: &Pdg, partition: &Partition) -> bool {
    pdg.deps().iter().all(|d| {
        let (s, t) = (partition.thread_of(d.src), partition.thread_of(d.dst));
        s <= t
    })
}

/// Whether any dependence cycle crosses threads (GREMIO allows this,
/// DSWP must not).
pub fn has_cyclic_inter_thread_deps(pdg: &Pdg, partition: &Partition) -> bool {
    use gmt_graph::DiGraph;
    // Build the thread graph and look for cycles.
    let mut g = DiGraph::with_nodes(partition.num_threads() as usize);
    for d in pdg.deps() {
        let (s, t) = (partition.thread_of(d.src), partition.thread_of(d.dst));
        if s != t {
            g.add_arc_dedup(
                gmt_graph::NodeId(s.0),
                gmt_graph::NodeId(t.0),
            );
        }
    }
    g.is_cyclic()
}

/// Count of inter-thread dependence arcs, by kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CutSummary {
    /// Register dependences crossing threads.
    pub register: usize,
    /// Memory dependences crossing threads.
    pub memory: usize,
    /// Control dependences crossing threads.
    pub control: usize,
}

/// Summarizes the dependences `partition` cuts in `pdg`.
pub fn cut_summary(pdg: &Pdg, partition: &Partition) -> CutSummary {
    let mut s = CutSummary::default();
    for d in pdg.deps() {
        if partition.thread_of(d.src) == partition.thread_of(d.dst) {
            continue;
        }
        match d.kind {
            gmt_pdg::DepKind::Register(_) => s.register += 1,
            gmt_pdg::DepKind::Memory => s.memory += 1,
            gmt_pdg::DepKind::Control => s.control += 1,
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmt_ir::{BinOp, Function, FunctionBuilder};
    use gmt_pdg::ThreadId;

    fn chain() -> (Function, Pdg) {
        let mut b = FunctionBuilder::new("c");
        let x = b.param();
        let y = b.bin(BinOp::Add, x, 1i64);
        let z = b.bin(BinOp::Mul, y, 2i64);
        b.ret(Some(z.into()));
        let f = b.finish().unwrap();
        let pdg = Pdg::build(&f);
        (f, pdg)
    }

    #[test]
    fn forward_split_is_pipeline() {
        let (f, pdg) = chain();
        let mut p = Partition::new(2);
        let instrs: Vec<_> = f.all_instrs().collect();
        p.assign(instrs[0], ThreadId(0));
        p.assign(instrs[1], ThreadId(1));
        p.assign(instrs[2], ThreadId(1));
        assert!(is_pipeline(&pdg, &p));
        assert!(!has_cyclic_inter_thread_deps(&pdg, &p));
    }

    #[test]
    fn backward_split_is_not_pipeline() {
        let (f, pdg) = chain();
        let mut p = Partition::new(2);
        let instrs: Vec<_> = f.all_instrs().collect();
        p.assign(instrs[0], ThreadId(1));
        p.assign(instrs[1], ThreadId(0));
        p.assign(instrs[2], ThreadId(0));
        assert!(!is_pipeline(&pdg, &p));
    }

    #[test]
    fn cut_summary_counts_kinds() {
        let (f, pdg) = chain();
        let mut p = Partition::new(2);
        let instrs: Vec<_> = f.all_instrs().collect();
        p.assign(instrs[0], ThreadId(0));
        p.assign(instrs[1], ThreadId(1));
        p.assign(instrs[2], ThreadId(1));
        let s = cut_summary(&pdg, &p);
        assert_eq!(s.register, 1); // x+1 -> mul crosses
        assert_eq!(s.memory, 0);
    }
}
