//! Shared helpers for the cross-crate integration tests: the
//! partition fingerprint the goldens pin, a block-granularity seeded
//! partition, and the source walk of the source-scanning gates.
//!
//! Generated programs come from the fuzzer's grammar,
//! `gmt_fuzz::ast` (`fprogram_gen`, `compile`, `seeded_partition`),
//! which every generated-program property draws from.

use gmt_ir::Function;
use std::path::{Path, PathBuf};

/// FNV-1a over `(instruction id, thread)` in layout order: equal
/// exactly when every instruction sits on the same thread. The
/// partition goldens pin it.
pub fn structural_hash(f: &Function, p: &gmt_pdg::Partition) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u32| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    mix(p.num_threads());
    for i in f.all_instrs() {
        mix(i.0);
        mix(p.thread_of(i).0);
    }
    h
}

/// A partition assigning whole blocks to threads by seed.
pub fn block_partition(f: &Function, n: u32, seed: u64) -> gmt_pdg::Partition {
    let mut p = gmt_pdg::Partition::new(n);
    for blk in f.blocks() {
        let mut h = (seed ^ u64::from(blk.0)).wrapping_mul(0x2545_F491_4F6C_DD1D);
        h ^= h >> 29;
        let t = gmt_pdg::ThreadId((h % u64::from(n)) as u32);
        for i in f.block(blk).all_instrs() {
            p.assign(i, t);
        }
    }
    p
}

/// Sums `count` over the text of every `.rs` file at or below `path`,
/// leaving out the files and directories in `exempt` — the walk the
/// source-scanning gates (`panic_budget.rs`, `analysis_sites.rs`)
/// share.
///
/// # Panics
///
/// Panics if a directory or source file cannot be read.
pub fn count_in_sources(path: &Path, exempt: &[PathBuf], count: &dyn Fn(&str) -> usize) -> usize {
    if exempt.iter().any(|e| e == path) {
        0
    } else if path.is_dir() {
        std::fs::read_dir(path)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()))
            .map(|entry| count_in_sources(&entry.expect("directory entry").path(), exempt, count))
            .sum()
    } else if path.extension().is_some_and(|e| e == "rs") {
        count(&std::fs::read_to_string(path).expect("source file"))
    } else {
        0
    }
}
