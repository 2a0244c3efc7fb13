//! One owner for the function's analyses: `Pdg::build` computes the
//! dominators, post-dominators, control dependences, def-use chains
//! and loop forest of a function once, and every later compile stage
//! reads them from the `Pdg`. A new `::compute(` of one of the five in
//! non-test code outside `gmt-ir` (which defines them) and
//! `crates/pdg/src/graph.rs` (which owns them) fails this test: read
//! the fact from the PDG the stage already holds instead.
//!
//! What is counted, per `.rs` file under a crate's `src/`: matches of
//! the five `<Analysis>::compute(` patterns in the text before the
//! first `#[cfg(test)]`.

use gmt_integration_tests::count_in_sources;
use std::path::{Path, PathBuf};

const ANYWHERE: [&str; 4] =
    ["PostDominators::compute(", "ControlDeps::compute(", "DefUse::compute(", "LoopForest::compute("];
/// Counted only at a word start, so it is not also a hit inside
/// `PostDominators::compute(`.
const AT_WORD_START: &str = "Dominators::compute(";

/// Where the analyses are defined and where they are owned.
const EXEMPT: [&str; 2] = ["crates/ir/src", "crates/pdg/src/graph.rs"];

fn sites(text: &str) -> usize {
    let body = text.split("#[cfg(test)]").next().unwrap_or("");
    let at_word_start = |at: usize| {
        !body[..at].chars().next_back().is_some_and(|c| c.is_alphanumeric() || c == '_')
    };
    let anywhere: usize = ANYWHERE.iter().map(|p| body.matches(p).count()).sum();
    anywhere + body.match_indices(AT_WORD_START).filter(|&(at, _)| at_word_start(at)).count()
}

#[test]
fn no_stage_recomputes_an_analysis_the_pdg_owns() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("tests/ sits in the repo");
    let exempt: Vec<PathBuf> = EXEMPT.iter().map(|e| repo.join(e)).collect();
    let total: usize = std::fs::read_dir(repo.join("crates"))
        .expect("crates/")
        .map(|entry| {
            count_in_sources(&entry.expect("directory entry").path().join("src"), &exempt, &sites)
        })
        .sum();
    assert_eq!(total, 0, "{total} analysis re-derivation site(s) outside gmt-ir and pdg/src/graph.rs");
}

/// The gate can fail: every pattern is counted once, and the
/// test-module cut-off is honoured.
#[test]
fn counter_sees_every_pattern() {
    let all = "Dominators::compute(f); PostDominators::compute(f); ControlDeps::compute(f, &p); \
               DefUse::compute(f); gmt_ir::LoopForest::compute(f, &d);";
    assert_eq!(sites(all), 5);
    assert_eq!(sites("PostDominators::compute(f)"), 1);
    assert_eq!(sites("pdg.dominators(); Liveness::compute(f); AliasInfo::compute(f)"), 0);
    assert_eq!(sites("DefUse::compute(f);\n#[cfg(test)]\nmod tests { DefUse::compute(f); }"), 1);
}
