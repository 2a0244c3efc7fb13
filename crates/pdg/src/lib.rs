//! Program Dependence Graph construction for GMT instruction scheduling.
//!
//! "The first step is to build a Program Dependence Graph (PDG),
//! including all the dependences that need to be respected" (§2 of the
//! COCO paper). This crate provides:
//!
//! - [`AliasInfo`] — a flow-insensitive, Andersen-style points-to
//!   analysis at memory-object granularity, standing in for the
//!   summary-based pointer analysis the paper's toolchain uses;
//! - [`Pdg`] — register, memory, and control dependence arcs over a
//!   function's instructions, with loop-carried arcs flagged;
//! - [`Partition`] / [`ThreadId`] — the assignment of instructions to
//!   threads produced by a partitioner (DSWP, GREMIO) and consumed by
//!   MTCG and COCO.
//!
//! # Example
//!
//! ```
//! use gmt_ir::{FunctionBuilder, BinOp};
//! use gmt_pdg::{Pdg, DepKind};
//!
//! # fn main() -> Result<(), gmt_ir::VerifyError> {
//! let mut b = FunctionBuilder::new("f");
//! let x = b.param();
//! let y = b.bin(BinOp::Add, x, 1i64);
//! b.ret(Some(y.into()));
//! let f = b.finish()?;
//! let pdg = Pdg::build(&f);
//! // add -> ret register dependence
//! assert!(pdg.deps().iter().any(|d| matches!(d.kind, DepKind::Register(_))));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod affine;
mod alias;
mod graph;
mod partition;

pub use alias::{AliasInfo, PointsTo};
pub use graph::{Dep, DepKind, Pdg};
pub use partition::{Partition, ThreadId};
