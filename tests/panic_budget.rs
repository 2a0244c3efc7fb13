//! Panic-site budget: untrusted inputs must surface as typed errors
//! (`SchedError`/`MtcgError`/`ExecError`/`VerifyError`), never a panic.
//! The pinned counts cover the remaining internal-invariant assertions
//! only; a new unwrap/expect/panic/assert in non-test code of a covered
//! crate fails this test. If you removed one, re-pin that budget
//! downward.
//!
//! What is counted, per `.rs` file under a crate's `src/`: matches of
//! `\.unwrap\(\)|\.expect\(|panic!\(|unreachable!\(|\bassert!\(|\bassert_eq!|\bassert_ne!`
//! in the text before the first `#[cfg(test)]`.
//!
//! Beside the budgets sits the environment-knob inventory: the `GMT_*`
//! variables non-test code reads are pinned by name, so a new knob is a
//! deliberate edit here.

use gmt_integration_tests::count_in_sources;
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::path::Path;

/// The ceilings. gmt-mtcg/gmt-sched went 16 -> 13 when the partitioner
/// searches moved onto the dense cost model and shed their
/// `expect("nonempty")`, `expect("placed")` and `unreachable!()`.
/// gmt-pdg/gmt-ir went 33 -> 30 when the fuzzer's panic burn-down
/// converted the reachable sites (unterminated blocks, oversized memory
/// layouts, out-of-range queue and points-to indices) to typed errors,
/// and 30 -> 28 when the single-threaded interpreter loops, each with
/// an `unreachable!("NoQueues never blocks")`, became the one driver,
/// 28 -> 27 when `Profile::scaled`, which had no caller, left with
/// its `assert!(den > 0)`, and 27 -> 19 when the IR text parser, the
/// static profile estimator and `Function::insert_before`/
/// `insert_after`/`insert_at_start`, which no program called, left
/// with their eight sites. gmt-sim entered at 5 — the three
/// `assert!(self.ended, ..)` of `trace.rs` and the two assertions of
/// `lib.rs`'s doc example — so that its sinks' checked narrowings and
/// table look-ups end in `Err`, not in `unwrap`/`expect`. gmt-core
/// entered at 7 (from 11: the register flow graph's source and sink are
/// no longer `Option`s to unwrap, `verify_mt`'s branch check lost its
/// `unreachable!()`) and gmt-graph at 10 (from 12: Edmonds–Karp's
/// predecessor table holds half-arcs, not `Option`s to `expect`), so
/// that the dense tables COCO, the solver and the verifier now index —
/// layout positions, flow-graph nodes, half-arc lists — are narrowed by
/// sentinels and `Option`-returning look-ups, not by `unwrap`; it went
/// 7 -> 6 when its doc examples began checking their runs by returning
/// an error instead of by `assert_eq!`. gmt-harness (library and the `repro` bin under `src/bin`) entered
/// at 0, its count when the arbitration began handing its train
/// runs to the cell: every failure there is a `HarnessError` in its
/// benchmark's row. gmt-fuzz entered at 0, when every generated-program
/// property test began drawing from its grammar: `ast::compile` and the
/// oracle report a failure as a finding, never by panicking. gmt-testkit
/// entered at 9 (the empty-choice assertions of `one_of`/`weighted`,
/// the worker pool's poisoned-lock `expect`s, the checker's failure
/// `panic!`) and gmt-workloads at 6 (the kernels' must-verify `expect`s,
/// the seeded RNG's positive bound, the crate doc's example), their
/// counts when they joined the gate.
const BUDGETS: [(&str, &[&str], usize); 9] = [
    ("gmt-mtcg/gmt-sched", &["crates/mtcg/src", "crates/sched/src"], 13),
    ("gmt-pdg/gmt-ir", &["crates/pdg/src", "crates/ir/src"], 19),
    ("gmt-sim", &["crates/sim/src"], 5),
    ("gmt-core", &["crates/core/src"], 6),
    ("gmt-graph", &["crates/graph/src"], 10),
    ("gmt-harness", &["crates/harness/src"], 0),
    ("gmt-fuzz", &["crates/fuzz/src"], 0),
    ("gmt-testkit", &["crates/testkit/src"], 9),
    ("gmt-workloads", &["crates/workloads/src"], 6),
];

const ANYWHERE: [&str; 4] = [".unwrap()", ".expect(", "panic!(", "unreachable!("];
/// Counted only at a word boundary, so `debug_assert!` is not a site.
const AT_WORD_START: [&str; 3] = ["assert!(", "assert_eq!", "assert_ne!"];

fn sites(text: &str) -> usize {
    let body = text.split("#[cfg(test)]").next().unwrap_or("");
    let at_word_start = |at: usize| {
        !body[..at].chars().next_back().is_some_and(|c| c.is_alphanumeric() || c == '_')
    };
    let anywhere: usize = ANYWHERE.iter().map(|p| body.matches(p).count()).sum();
    let bounded: usize = AT_WORD_START
        .iter()
        .map(|p| body.match_indices(p).filter(|&(at, _)| at_word_start(at)).count())
        .sum();
    anywhere + bounded
}

#[test]
fn panic_sites_stay_within_budget() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("tests/ sits in the repo");
    for (name, roots, budget) in BUDGETS {
        let total: usize = roots.iter().map(|r| count_in_sources(&repo.join(r), &[], &sites)).sum();
        assert!(total <= budget, "panic-site budget exceeded in {name}: {total} > {budget}");
    }
}

/// The gate can fail: every pattern is counted, word boundaries and the
/// test-module cut-off are honoured.
#[test]
fn counter_sees_every_pattern() {
    let all = "a.unwrap(); b.expect(\"x\"); panic!(\"y\"); unreachable!(); \
               assert!(c); assert_eq!(d, e); assert_ne!(f, g);";
    assert_eq!(sites(all), 7);
    assert_eq!(sites("debug_assert!(c); debug_assert_eq!(d, e); x.unwrap_or(1)"), 0);
    assert_eq!(sites("x.unwrap();\n#[cfg(test)]\nmod tests { y.unwrap(); }"), 1);
}

/// The only `GMT_*` environment variables non-test code may read: the
/// worker-pool size and the property-test harness's case count and
/// replay seed (which the `fuzz` bin also honours).
const ENV_KNOBS: [&str; 3] = ["GMT_JOBS", "GMT_TESTKIT_CASES", "GMT_TESTKIT_SEED"];

/// The `GMT_*` names a source file reads: every string literal that is
/// exactly a `GMT_*` name, on a code line (comments skipped) before the
/// first `#[cfg(test)]`. Messages that merely mention a name, such as
/// `"GMT_JOBS must be at least 1"`, are not literals of the name.
fn env_names(text: &str) -> Vec<&str> {
    let body = text.split("#[cfg(test)]").next().unwrap_or("");
    let mut names = Vec::new();
    for line in body.lines().filter(|l| !l.trim_start().starts_with("//")) {
        for (at, _) in line.match_indices("\"GMT_") {
            let name = &line[at + 1..];
            let len = name
                .find(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
                .unwrap_or(name.len());
            if name[len..].starts_with('"') {
                names.push(&name[..len]);
            }
        }
    }
    names
}

#[test]
fn env_knobs_are_exactly_the_inventory() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("tests/ sits in the repo");
    let found = RefCell::new(BTreeSet::new());
    let crates = std::fs::read_dir(repo.join("crates")).expect("crates/ directory");
    for krate in crates {
        let src = krate.expect("directory entry").path().join("src");
        count_in_sources(&src, &[], &|text| {
            let names = env_names(text);
            found.borrow_mut().extend(names.iter().map(|n| n.to_string()));
            names.len()
        });
    }
    let want: BTreeSet<String> = ENV_KNOBS.iter().map(|n| n.to_string()).collect();
    assert_eq!(found.into_inner(), want, "the GMT_* names read under crates/*/src");
}

/// The inventory can fail: a planted read is counted, a mention in a
/// message or a comment is not, and test modules are cut off.
#[test]
fn env_counter_sees_a_planted_read() {
    assert_eq!(env_names("let x = std::env::var(\"GMT_X\");"), ["GMT_X"]);
    assert_eq!(env_names("env_u64(\"GMT_TESTKIT_SEED\")"), ["GMT_TESTKIT_SEED"]);
    assert!(env_names("format!(\"GMT_JOBS must be set\")").is_empty());
    assert!(env_names("// std::env::var(\"GMT_X\")").is_empty());
    assert!(env_names("#[cfg(test)]\nmod tests { std::env::var(\"GMT_X\"); }").is_empty());
}
