//! A cycle-level chip-multiprocessor model in the mold of the paper's
//! evaluation machine (Figure 6a): in-order, 6-issue cores with
//! stall-on-use semantics, a private L1D/L2 + shared L3 hierarchy with
//! snoop write-invalidate coherence, 141-cycle main memory, and a
//! synchronization-array scalar-queue interconnect with 1-cycle access
//! and 4 shared request ports.
//!
//! Key modeled behaviors the paper's results hinge on:
//!
//! - `produce`/`consume` issue on the memory (M-type) ports, competing
//!   with loads and stores (at most 4 such instructions per cycle);
//! - a register `consume` does **not** block the pipeline while its
//!   queue is empty — only a *use* of the consumed register stalls
//!   (stall-on-use), so register communication is comparatively cheap;
//! - `consume.sync` **does** block until its token arrives (acquire
//!   semantics), which is why removing memory synchronizations buys
//!   more than removing register communication (§4);
//! - duplicated branches consume and then *use* their operand, so
//!   control dependences stall — the other big COCO win;
//! - private L2s mean a two-thread split doubles effective L2 capacity
//!   (the `456.gromacs` effect).
//!
//! # Example
//!
//! ```
//! use gmt_ir::{FunctionBuilder, BinOp};
//! use gmt_sim::{simulate, MachineConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = FunctionBuilder::new("f");
//! let x = b.param();
//! let y = b.bin(BinOp::Mul, x, 3i64);
//! b.ret(Some(y.into()));
//! let f = b.finish()?;
//! let r = simulate(&[f], &[5], |_, _| {}, &MachineConfig::default())?;
//! assert_eq!(r.return_value, Some(15));
//! assert!(r.cycles > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod config;
mod core;
pub mod critpath;
mod engine;
mod sa;
mod sim;
pub mod trace;

pub use cache::{Cache, Hierarchy, HitLevel};
pub use config::{BranchModel, CacheConfig, MachineConfig, SaConfig};
pub use core::{Core, CoreStats, StallCycles, StallReason};
pub use engine::{simulate, simulate_decoded_opts, simulate_decoded_traced_opts, SimOptions};
pub use sa::{Delivery, PendingConsume, QueueFull, SyncArray};
pub use sim::{simulate_reference, SimResult};
pub use critpath::{check_critical_path, CpKind, CpSegment, CritPath, CritPathSink};
pub use trace::{
    check_attribution, Arrival, ChromeTraceSink, CycleAttribution, NoTrace, OccupancySummary,
    QueueTraceStats, TraceAggregator, TraceEvent, TraceSink,
};

