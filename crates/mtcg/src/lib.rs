//! Multi-Threaded Code Generation (MTCG) — the algorithm of Ottoni,
//! Rangan, Stoler & August \[16\] that turns *any* partition of a
//! function's instructions into threads into provably-correct
//! multi-threaded code, inserting produce/consume communication for
//! every inter-thread dependence.
//!
//! The placement of the communication is captured in a [`CommPlan`]:
//!
//! - [`baseline_plan`] reproduces Algorithm 1 exactly — every register
//!   or memory dependence is communicated at its source instruction,
//!   and every relevant branch owned by another thread has its operand
//!   sent immediately before the branch and the branch duplicated in
//!   the consuming thread;
//! - the COCO crate (`gmt-core`) computes optimized plans with min-cuts
//!   and feeds them to the same code generator via
//!   [`generate_with_plan`].
//!
//! # Example
//!
//! ```
//! use gmt_ir::{FunctionBuilder, BinOp, interp_mt};
//! use gmt_pdg::{Pdg, Partition, ThreadId};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // x*3 on thread 0, output on thread 1.
//! let mut b = FunctionBuilder::new("f");
//! let x = b.param();
//! let y = b.bin(BinOp::Mul, x, 3i64);
//! b.output(y);
//! b.ret(None);
//! let f = b.finish()?;
//! let instrs: Vec<_> = f.all_instrs().collect();
//! let mut p = Partition::new(2);
//! p.assign(instrs[0], ThreadId(0));
//! p.assign(instrs[1], ThreadId(1));
//! p.assign(instrs[2], ThreadId(0));
//! let pdg = Pdg::build(&f);
//! let out = gmt_mtcg::generate(&f, &pdg, &p)?;
//! let result = interp_mt::run_mt(
//!     &out.threads, &[14], |_, _| {},
//!     &interp_mt::QueueConfig::default(),
//!     &gmt_ir::interp::ExecConfig::default(),
//! )?;
//! assert_eq!(result.output, vec![42]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codegen;
mod plan;
pub mod queues;
mod relevance;

pub use codegen::{
    generate, generate_with_plan, generate_with_plan_budgeted, MtcgError, MtcgOutput, QueueLabel,
};
pub use plan::{CommItem, CommKind, CommPlan, CommPoint};
pub use queues::{allocate_depths, estimated_traffic, QueueBudget};
pub use relevance::{baseline_plan, relevant_branches};
