//! Panic-site budget: untrusted inputs must surface as typed errors
//! (`SchedError`/`MtcgError`/`PdgError`/`ExecError`), never a panic.
//! The pinned counts cover the remaining internal-invariant assertions
//! only; a new unwrap/expect/panic/assert in non-test code of a covered
//! crate fails this test. If you removed one, re-pin that budget
//! downward.
//!
//! What is counted, per `.rs` file under a crate's `src/`: matches of
//! `\.unwrap\(\)|\.expect\(|panic!\(|unreachable!\(|\bassert!\(|\bassert_eq!|\bassert_ne!`
//! in the text before the first `#[cfg(test)]`.

use gmt_integration_tests::count_in_sources;
use std::path::Path;

/// The ceilings. gmt-mtcg/gmt-sched went 16 -> 13 when the partitioner
/// searches moved onto the dense cost model and shed their
/// `expect("nonempty")`, `expect("placed")` and `unreachable!()`.
/// gmt-pdg/gmt-ir went 33 -> 30 when the fuzzer's panic burn-down
/// converted the reachable sites (unterminated blocks, oversized memory
/// layouts, out-of-range queue and points-to indices) to typed errors,
/// and 30 -> 28 when the single-threaded interpreter loops, each with
/// an `unreachable!("NoQueues never blocks")`, became the one driver,
/// and 28 -> 27 when `Profile::scaled`, which had no caller, left with
/// its `assert!(den > 0)`. gmt-sim entered at 5 — the three
/// `assert!(self.ended, ..)` of `trace.rs` and the two assertions of
/// `lib.rs`'s doc example — so that its sinks' checked narrowings and
/// table look-ups end in `Err`, not in `unwrap`/`expect`. gmt-core
/// entered at 7 (from 11: the register flow graph's source and sink are
/// no longer `Option`s to unwrap, `verify_mt`'s branch check lost its
/// `unreachable!()`) and gmt-graph at 10 (from 12: Edmonds–Karp's
/// predecessor table holds half-arcs, not `Option`s to `expect`), so
/// that the dense tables COCO, the solver and the verifier now index —
/// layout positions, flow-graph nodes, half-arc lists — are narrowed by
/// sentinels and `Option`-returning look-ups, not by `unwrap`.
/// gmt-harness (library and the `repro`/`inspect` bins under `src/bin`)
/// entered at 0, its count when the arbitration began handing its train
/// runs to the cell: every failure there is a `HarnessError` in its
/// benchmark's row.
const BUDGETS: [(&str, &[&str], usize); 6] = [
    ("gmt-mtcg/gmt-sched", &["crates/mtcg/src", "crates/sched/src"], 13),
    ("gmt-pdg/gmt-ir", &["crates/pdg/src", "crates/ir/src"], 27),
    ("gmt-sim", &["crates/sim/src"], 5),
    ("gmt-core", &["crates/core/src"], 7),
    ("gmt-graph", &["crates/graph/src"], 10),
    ("gmt-harness", &["crates/harness/src"], 0),
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
