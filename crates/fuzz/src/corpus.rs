//! The replayable seed corpus: one line per failing case seed, kept
//! under `tests/fuzz_corpus/` so every historical finding re-runs
//! before fresh fuzzing (and in the integration suite) forever.
//!
//! Format (`corpus.txt`): `0x<seed in hex>  # <free-form label>`, one
//! entry per line; `#`-only lines and blanks are comments. A corpus
//! entry is *just a seed* — [`crate::ast::case_from_seed`] maps it back
//! to the exact [`crate::ast::FuzzCase`], so replay needs no
//! serialized program format.

use gmt_testkit::parse_seed;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// One persisted finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CorpusEntry {
    /// The case seed (feed to [`crate::ast::case_from_seed`]).
    pub seed: u64,
    /// Free-form description of what the seed originally triggered.
    pub label: String,
}

/// The in-repo corpus file: `tests/fuzz_corpus/corpus.txt` at the
/// workspace root (the `fuzz` bin's `--corpus` names another).
pub fn default_path() -> PathBuf {
    // crates/fuzz/ -> workspace root. Compile-time, so the binary
    // finds the checkout it was built from regardless of cwd.
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fuzz_corpus/corpus.txt")
}

/// Parses the corpus file. A missing file is an empty corpus; an entry
/// line that does not parse is reported as `Err` (a corrupted corpus
/// should fail loudly, not silently drop regressions).
///
/// # Errors
///
/// Returns the first malformed line with its line number.
pub fn load(path: &Path) -> Result<Vec<CorpusEntry>, String> {
    let Ok(text) = fs::read_to_string(path) else {
        return Ok(Vec::new());
    };
    let mut out = Vec::new();
    for (k, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (seed_part, label) = match line.split_once('#') {
            Some((s, l)) => (s.trim(), l.trim().to_string()),
            None => (line, String::new()),
        };
        let seed = parse_seed(seed_part)
            .ok_or_else(|| format!("{}:{}: bad corpus seed {seed_part:?}", path.display(), k + 1))?;
        out.push(CorpusEntry { seed, label });
    }
    Ok(out)
}

/// Appends a finding unless the seed is already recorded. Creates the
/// directory and file (with a format header) on first use.
///
/// # Errors
///
/// Propagates filesystem errors as strings.
pub fn append(path: &Path, seed: u64, label: &str) -> Result<(), String> {
    let existing = load(path).unwrap_or_default();
    if existing.iter().any(|e| e.seed == seed) {
        return Ok(());
    }
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    let new = !path.exists();
    let mut file = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("open {}: {e}", path.display()))?;
    if new {
        writeln!(
            file,
            "# gmt-fuzz corpus: `0x<case seed>  # <label>` per line.\n\
             # Replay one: GMT_TESTKIT_SEED=<seed> cargo run -p gmt-fuzz --bin fuzz\n\
             # All entries re-run before fresh cases on every fuzz run and in\n\
             # tests/fuzz_corpus.rs. Check this file in."
        )
        .map_err(|e| e.to_string())?;
    }
    writeln!(file, "{seed:#018x}  # {label}").map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_entries() {
        let dir = std::env::temp_dir().join("gmt_fuzz_corpus_test");
        let path = dir.join("corpus.txt");
        let _ = fs::remove_file(&path);
        append(&path, 0xDEAD, "first finding").unwrap();
        append(&path, 0xBEEF, "second").unwrap();
        append(&path, 0xDEAD, "duplicate is dropped").unwrap();
        let got = load(&path).unwrap();
        assert_eq!(
            got,
            vec![
                CorpusEntry { seed: 0xDEAD, label: "first finding".into() },
                CorpusEntry { seed: 0xBEEF, label: "second".into() },
            ]
        );
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn rejects_garbage_lines() {
        let dir = std::env::temp_dir().join("gmt_fuzz_corpus_test_bad");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corpus.txt");
        fs::write(&path, "not-a-seed # hm\n").unwrap();
        assert!(load(&path).is_err());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_empty() {
        assert_eq!(load(Path::new("/nonexistent/corpus.txt")).unwrap(), Vec::new());
    }

    #[test]
    fn seed_parsing_accepts_hex_and_decimal() {
        let dir = std::env::temp_dir().join("gmt_fuzz_corpus_test_formats");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corpus.txt");
        fs::write(&path, "0x10  # hex\n16 # decimal\n").unwrap();
        let seeds: Vec<u64> = load(&path).unwrap().iter().map(|e| e.seed).collect();
        assert_eq!(seeds, [16, 16]);
        let _ = fs::remove_file(&path);
    }
}
