//! COCO — COmpiler Communication Optimizations for global
//! multi-threaded instruction scheduling (Ottoni & August).
//!
//! This crate is the primary contribution of the reproduced paper: a
//! framework that minimizes the produce/consume communication the MTCG
//! algorithm inserts between threads, built from
//!
//! - **thread-aware data-flow analyses** — the safety analysis
//!   ([`Safety`], Property 3 / equations (1)–(2)) and thread-aware
//!   liveness ([`LiveTable`]);
//! - **graph min-cuts** — each register's communication is one min-cut
//!   on a flow graph over its live range (§3.1.1), with cost penalties
//!   steering cuts away from points that would add control flow to the
//!   target thread (§3.1.2); all memory dependences of a thread pair
//!   are optimized together with a multi-commodity cut heuristic
//!   (§3.1.3);
//! - **Algorithm 2** — the iterative pairwise driver over all threads
//!   ([`optimize`]).
//!
//! The convenient entry point is [`Parallelizer`], which chains
//! PDG construction, a partitioner (DSWP or GREMIO), COCO, and MTCG:
//!
//! ```
//! use gmt_core::{Parallelizer, Scheduler, CocoConfig};
//! use gmt_ir::{FunctionBuilder, BinOp, Profile, interp};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Build a small kernel.
//! let mut b = FunctionBuilder::new("axpy");
//! let n = b.param();
//! let i = b.fresh_reg();
//! let s = b.fresh_reg();
//! let h = b.block("h");
//! let body = b.block("body");
//! let exit = b.block("exit");
//! b.const_into(i, 0);
//! b.const_into(s, 0);
//! b.jump(h);
//! b.switch_to(h);
//! let c = b.bin(BinOp::Lt, i, n);
//! b.branch(c, body, exit);
//! b.switch_to(body);
//! let t = b.bin(BinOp::Mul, i, 3i64);
//! b.bin_into(BinOp::Add, s, s, t);
//! b.bin_into(BinOp::Add, i, i, 1i64);
//! b.jump(h);
//! b.switch_to(exit);
//! b.ret(Some(s.into()));
//! let f = b.finish()?;
//!
//! // Profile on a "train" input, then parallelize with DSWP + COCO.
//! let profile = interp::run(&f, &[10], &interp::ExecConfig::default())?.profile;
//! let result = Parallelizer::new(Scheduler::dswp(2))
//!     .with_coco(CocoConfig::default())
//!     .parallelize(&f, &profile)?;
//! assert_eq!(result.threads().len(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coco;
mod estimate;
mod flowgraph;
pub mod mtverify;
mod pipeline;
mod pos;
mod safety;

pub use coco::{optimize, CocoConfig, CocoStats};
pub use estimate::SchedEstimate;
pub use flowgraph::{BlockTables, Gf, GfBuilder, LiveTable};
pub use mtverify::{verify_mt, MtVerifyError, WaitStep};
pub use pipeline::{CompileTimings, Parallelized, Parallelizer, PipelineError, Scheduler};
pub use pos::{Pos, PosArc, PosGraph};
pub use safety::Safety;
