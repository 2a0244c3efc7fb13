//! Differential fuzzing for the whole GMT pipeline.
//!
//! Three pieces:
//!
//! - [`ast`] — the repository's one structured program generator
//!   (nested/sibling loops with register and memory recurrences,
//!   may-alias accesses over multiple arrays and a select-pointer
//!   diamond, profile-skewed branches, and degenerate shapes: empty
//!   blocks, self-loops, dead registers, zero-trip loops), compiled to
//!   *verified* IR so downstream failures are pipeline bugs by
//!   construction; every generated-program property test draws from it
//!   too;
//! - [`oracle`] — per case runs compile → verify → profile → PDG →
//!   {DSWP, GREMIO, seeded} → {baseline, COCO} → MTCG → `verify_mt`
//!   and cross-checks all five executors (sequential decoded +
//!   reference, functional MT decoded + reference, timed reference +
//!   decoded with fast-forward on and off) for identical outputs,
//!   instruction counts, and cycle totals: `verify_mt` at depth 1, the
//!   functional MT interpreters at queue capacities 1 and 32, the
//!   timed engines at the scheduler's queue depth — asserting *no
//!   panic anywhere; every rejection is a typed error*;
//! - [`corpus`] — failing seeds persist to `tests/fuzz_corpus/` and
//!   replay before fresh cases, forever.
//!
//! The `fuzz` bin drives it (time- and case-budgeted), shrinks
//! failures with `gmt_testkit::minimize`, and prints a one-command
//! repro line per finding.
//!
//! This crate depends on the whole pipeline, which is why the
//! generator lives here rather than in `gmt-testkit`: the testkit is
//! deliberately dependency-free (every crate, including `gmt-ir`,
//! uses it for property tests, so an IR generator there would be a
//! dependency cycle). `gmt-sched`, `gmt-mtcg` and `gmt-core` reach
//! [`ast`] through a dev-dependency; only `gmt-ir` and `gmt-pdg` types
//! cross it (DESIGN.md, "Why the generator lives here").

pub mod ast;
pub mod corpus;
pub mod oracle;
pub mod runner;

pub use ast::{case_from_seed, case_gen, compile, FuzzCase, Mode};
pub use corpus::{default_path, CorpusEntry};
pub use oracle::{run_case, CaseReport};
pub use runner::{fuzz_run, FuzzOptions, FuzzStats};
