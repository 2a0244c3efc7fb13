//! Every public function has a caller: a `pub fn NAME` in the non-test
//! code of a crate (`crates/*/src`, the text before the first
//! `#[cfg(test)]` of each `.rs` file) must be named in some *other*
//! `.rs` file under `crates/`, `tests/` or `benchmark/src/`, or again
//! in its own file's non-test code (a
//! function only its own module calls is live, merely wider than it
//! needs to be). A function that only its own file's unit tests call
//! fails this test: delete it, or move it into that test module.
//!
//! The scan matches by name only — `NAME` as a whole word anywhere in
//! the other file, comments and strings included — so a dead function
//! whose name also appears elsewhere (a `new`, a `len`, a name that a
//! doc comment mentions) passes. The gate catches the uncalled
//! function with a distinctive name, not every one.

use std::collections::{BTreeSet, HashSet};
use std::path::{Path, PathBuf};

/// The trees whose files count as callers.
const CALLER_ROOTS: [&str; 3] = ["crates", "tests", "benchmark/src"];

struct SourceFile {
    path: PathBuf,
    text: String,
    /// Whether the file's `pub fn`s are checked: it sits under a
    /// crate's `src/`.
    defines: bool,
}

fn walk(path: &Path, files: &mut Vec<PathBuf>) {
    if path.is_dir() {
        for entry in std::fs::read_dir(path).unwrap_or_else(|e| panic!("{}: {e}", path.display())) {
            walk(&entry.expect("directory entry").path(), files);
        }
    } else if path.extension().is_some_and(|e| e == "rs") {
        files.push(path.to_path_buf());
    }
}

fn words(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_')).filter(|w| !w.is_empty())
}

fn non_test(text: &str) -> &str {
    text.split("#[cfg(test)]").next().unwrap_or("")
}

/// The names of the `pub fn`s in the non-test part of `text`.
fn pub_fns(text: &str) -> Vec<&str> {
    let body = non_test(text);
    body.match_indices("pub fn ")
        .filter(|&(at, _)| {
            !body[..at].chars().next_back().is_some_and(|c| c.is_alphanumeric() || c == '_')
        })
        .map(|(at, pattern)| {
            let rest = &body[at + pattern.len()..];
            let len =
                rest.find(|c: char| !(c.is_ascii_alphanumeric() || c == '_')).unwrap_or(rest.len());
            &rest[..len]
        })
        .filter(|name| !name.is_empty())
        .collect()
}

/// `path: name` for every checked `pub fn` that neither another file
/// nor its own file's non-test code names.
fn uncalled(files: &[SourceFile]) -> BTreeSet<String> {
    let vocab: Vec<HashSet<&str>> = files.iter().map(|f| words(&f.text).collect()).collect();
    let mut dead = BTreeSet::new();
    for (i, file) in files.iter().enumerate().filter(|(_, f)| f.defines) {
        for name in pub_fns(&file.text) {
            let at_home = words(non_test(&file.text)).filter(|&w| w == name).count() > 1;
            if !at_home && !vocab.iter().enumerate().any(|(j, v)| j != i && v.contains(name)) {
                dead.insert(format!("{}: {name}", file.path.display()));
            }
        }
    }
    dead
}

#[test]
fn every_public_fn_has_a_caller_outside_its_unit_tests() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("tests/ sits in the repo");
    let mut paths = Vec::new();
    for root in CALLER_ROOTS {
        walk(&repo.join(root), &mut paths);
    }
    let crates = repo.join("crates");
    let files: Vec<SourceFile> = paths
        .into_iter()
        .map(|path| {
            let text = std::fs::read_to_string(&path).expect("source file");
            let in_src = path
                .strip_prefix(&crates)
                .is_ok_and(|rel| rel.components().nth(1).is_some_and(|c| c.as_os_str() == "src"));
            SourceFile { path, text, defines: in_src }
        })
        .collect();
    assert!(files.iter().filter(|f| f.defines).count() > 50, "the scan found the crate sources");
    let dead = uncalled(&files);
    assert!(dead.is_empty(), "public functions only their own unit tests call:\n{dead:#?}");
}

/// The gate can fail: on a planted file set it reports the function
/// only its own unit tests call, honours the test-module cut-off and
/// word boundaries, and does not check files outside a crate's `src/`.
#[test]
fn gate_flags_a_planted_uncalled_function() {
    let file = |path: &str, text: &str, defines: bool| SourceFile {
        path: PathBuf::from(path),
        text: text.to_string(),
        defines,
    };
    let files = [
        file(
            "crates/a/src/lib.rs",
            "pub fn used() {}\npub fn lonely() {}\npub fn local() {}\nfn f() { local(); }\n\
             pub(crate) fn private() {}\n\
             #[cfg(test)]\nmod tests { pub fn helper() { lonely(); } }",
            true,
        ),
        file("crates/a/tests/t.rs", "fn t() { a::used(); a::lonely_not(); }", false),
        file("tests/x.rs", "pub fn example_only() {}", false),
    ];
    assert_eq!(uncalled(&files), BTreeSet::from(["crates/a/src/lib.rs: lonely".to_string()]));
    assert_eq!(pub_fns("pub fn f<T>(x: T) {} pub fn g() {} xpub fn h() {}"), ["f", "g"]);
}
