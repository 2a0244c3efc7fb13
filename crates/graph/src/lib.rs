//! Graph algorithms underpinning GMT instruction scheduling and COCO.
//!
//! This crate provides the discrete-math substrate of the COCO framework
//! (Ottoni & August, "Communication Optimizations for Global Multi-Threaded
//! Instruction Scheduling"): directed graphs with condensation and
//! topological orders (used by the DSWP partitioner and the thread graph of
//! COCO's Algorithm 2), and s–t flow networks with max-flow/min-cut solvers
//! (used to place communication instructions).
//!
//! The max-flow solver is Edmonds–Karp, the algorithm the paper uses
//! (worst-case `O(V·E²)`); the repository benchmark's `graph.mincut_ms`
//! row times it.
//!
//! # Example
//!
//! ```
//! use gmt_graph::{FlowNetwork, Capacity};
//!
//! let mut net = FlowNetwork::new();
//! let s = net.add_node();
//! let a = net.add_node();
//! let t = net.add_node();
//! net.add_arc(s, a, Capacity::finite(5));
//! net.add_arc(a, t, Capacity::finite(3));
//! let cut = net.min_cut(s, t);
//! assert_eq!(cut.value, Capacity::finite(3));
//! assert_eq!(cut.arcs.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod capacity;
mod digraph;
mod flow;
mod maxflow;
mod multicut;
mod scc;

pub use capacity::Capacity;
pub use digraph::{Condensation, DiGraph, NodeId};
pub use flow::{ArcId, FlowArc, FlowNetwork, FlowNode, MinCut, VisitSet};
pub use multicut::{multicut, Commodity, MultiCut};
pub use scc::{strongly_connected_components, Scc};
