//! Hermetic test infrastructure for the GMT workspace.
//!
//! The build needs no registry crates, so this crate provides small
//! in-tree equivalents of the external dev-dependencies a Rust project
//! would usually pull in:
//!
//! - [`TestRng`] — a deterministic splitmix64/xorshift64* PRNG
//!   (replaces `rand`);
//! - [`Gen`] combinators + the [`Checker`] runner with greedy
//!   [`Shrink`]-based minimization, failure persistence to a
//!   `testkit-regressions` file, and `GMT_TESTKIT_SEED` /
//!   `GMT_TESTKIT_CASES` env overrides (replaces `proptest`);
//! - [`json_escape`] for the hand-written JSON-lines records.
//!
//! Performance is measured by the repository benchmark
//! (`benchmark/`), not here.
//!
//! It also hosts the workspace's parallel job runner: [`par_map`], a
//! scoped-thread worker pool with a shared work queue and
//! order-preserving results, sized by [`num_jobs`] (the `GMT_JOBS`
//! environment override, defaulting to available parallelism). The
//! experiment harness routes the paper's figure matrix through it.
//!
//! # Replaying a failure
//!
//! When a property fails, the runner shrinks the input, appends the
//! failing case seed to `testkit-regressions` in the crate under test
//! (re-run automatically on the next `cargo test`), and prints a
//! one-liner of the form:
//!
//! ```text
//! replay with: GMT_TESTKIT_SEED=0x1234abcd cargo test -p <crate> <test>
//! ```
//!
//! Setting `GMT_TESTKIT_SEED` makes every checker run exactly that one
//! case; `GMT_TESTKIT_CASES=N` scales the per-property case budget
//! (useful to cheapen CI or deepen a soak run).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod check;
mod gen;
mod json;
mod pool;
mod rng;
mod shrink;

pub use check::{parse_seed, Checker, PropResult};
pub use gen::{full_u64, one_of, ranged, recursive, vec_of, weighted, Gen};
pub use json::json_escape;
pub use pool::{num_jobs, num_jobs_checked, par_map, parse_jobs};
pub use rng::TestRng;
pub use rng::splitmix64;
pub use shrink::{eval_prop, minimize, Shrink};
