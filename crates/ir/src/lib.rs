//! A low-level, register-based intermediate representation for global
//! multi-threaded (GMT) instruction scheduling, with the analyses,
//! interpreters, and profiler the rest of the toolchain builds on.
//!
//! This crate models the assembly-level IR of the VELOCITY research
//! compiler used by the DSWP/GREMIO/MTCG/COCO line of work: virtual
//! registers, explicit loads/stores against named memory objects,
//! explicit conditional branches, and the `produce`/`consume`
//! communication primitives of the synchronization-array ISA extension.
//!
//! What lives here:
//!
//! - [`Function`], [`FunctionBuilder`], [`Op`] — the IR itself;
//! - [`Dominators`], [`PostDominators`], [`ControlDeps`], [`Liveness`],
//!   [`DefUse`], [`LoopForest`] — the CFG analyses every downstream
//!   phase (PDG construction, MTCG, COCO) consumes;
//! - [`interp::run`] — the single-threaded reference interpreter, which
//!   doubles as the edge profiler;
//! - [`interp_mt::run_mt`] — the functional multi-threaded interpreter
//!   (shared memory + blocking scalar queues) used for exact dynamic
//!   instruction counting.
//!
//! # Example
//!
//! ```
//! use gmt_ir::{FunctionBuilder, BinOp, interp};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = FunctionBuilder::new("double");
//! let x = b.param();
//! let d = b.bin(BinOp::Add, x, x);
//! b.ret(Some(d.into()));
//! let f = b.finish()?;
//! let result = interp::run(&f, &[21], &interp::ExecConfig::default())?;
//! assert_eq!(result.return_value, Some(42));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod ctrldep;
mod dataflow;
mod dom;
mod function;
mod instr;
mod loops;
mod printer;
mod profile;
mod transform;
mod types;
mod verify;

pub mod decoded;
pub mod interp;
pub mod interp_mt;

pub use builder::FunctionBuilder;
pub use ctrldep::{ControlDep, ControlDeps};
pub use dataflow::{BitSet, DefUse, Liveness};
pub use dom::{Dominators, PostDominators};
pub use function::{Block, Function, MemObject};
pub use instr::{Op, Successors};
pub use loops::{Loop, LoopForest};
pub use printer::{display, FunctionDisplay};
pub use profile::Profile;
pub use transform::{has_critical_edges, split_critical_edges};
pub use types::{AddrMode, BinOp, BlockId, InstrId, ObjectId, Operand, QueueId, Reg, UnOp};
pub use verify::{verify, VerifyError};
