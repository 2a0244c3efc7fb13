//! The benchmark functions of the paper's evaluation (Figure 6b),
//! re-expressed in the `gmt-ir` intermediate representation.
//!
//! The original evaluation selects one hot function from each of 11
//! MediaBench / SPEC-CPU / Pointer-Intensive benchmarks. Those exact
//! binaries (and the IMPACT front end that lowered them) are not
//! reproducible here, so each kernel is rebuilt *structurally*: the
//! loop nests, branch shapes, recurrences, and memory access patterns
//! that drive partitioning and communication are preserved, per-kernel
//! doc comments state what is mirrored, and inputs come in *train*
//! (profiling) and *ref* (measurement) sizes like the paper's
//! methodology (§4).
//!
//! All kernels have critical edges split
//! ([`gmt_ir::split_critical_edges`]) so every COCO cut arc is a
//! placeable program point.
//!
//! # Example
//!
//! ```
//! let w = gmt_workloads::catalog()
//!     .into_iter()
//!     .find(|w| w.benchmark == "ks")
//!     .expect("ks is in the catalog");
//! let train = w.run_train().expect("runs");
//! assert!(train.counts.total() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod kernels;
mod util;

pub use util::{fill_below, fill_signed, Rng};

use gmt_ir::interp::{run_with_memory, ExecConfig, Memory, MemoryLayout, RunResult};
use gmt_ir::Function;

/// One benchmark function with its inputs.
#[derive(Clone)]
pub struct Workload {
    /// The function name from Figure 6(b) (e.g. `"FindMaxGpAndSwap"`).
    pub name: &'static str,
    /// The benchmark it comes from (e.g. `"ks"`, `"181.mcf"`).
    pub benchmark: &'static str,
    /// The suite (MediaBench / SPEC-CPU / Pointer-Intensive).
    pub suite: &'static str,
    /// The fraction of benchmark execution the function covers (%).
    pub exec_pct: u32,
    /// The kernel in IR, verified and critical-edge-split.
    pub function: Function,
    /// Arguments for the small *train* run (profiling).
    pub train_args: Vec<i64>,
    /// Arguments for the larger *ref* run (measurement).
    pub ref_args: Vec<i64>,
    /// Memory initializer (deterministic).
    pub init: fn(&MemoryLayout, &mut Memory),
}

impl Workload {
    /// Runs the kernel on the train input, producing the profile.
    ///
    /// # Errors
    ///
    /// Propagates interpreter errors (none are expected for catalog
    /// workloads).
    pub fn run_train(&self) -> Result<RunResult, gmt_ir::interp::ExecError> {
        run_with_memory(&self.function, &self.train_args, self.init, &exec_config())
    }

    /// Runs the kernel on the ref input.
    ///
    /// # Errors
    ///
    /// Propagates interpreter errors.
    pub fn run_ref(&self) -> Result<RunResult, gmt_ir::interp::ExecError> {
        run_with_memory(&self.function, &self.ref_args, self.init, &exec_config())
    }
}

impl std::fmt::Debug for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workload")
            .field("name", &self.name)
            .field("benchmark", &self.benchmark)
            .field("exec_pct", &self.exec_pct)
            .finish_non_exhaustive()
    }
}

/// The interpreter budget used for workload runs.
pub fn exec_config() -> ExecConfig {
    ExecConfig { max_steps: 200_000_000 }
}

/// The builder of each Figure 6(b) kernel under its benchmark name, in
/// the paper's order.
const KERNELS: [(&str, fn() -> Workload); 11] = [
    ("adpcmdec", kernels::adpcm::decoder),
    ("adpcmenc", kernels::adpcm::coder),
    ("ks", kernels::ks::find_max_gp_and_swap),
    ("mpeg2enc", kernels::mpeg2::dist1),
    ("177.mesa", kernels::mesa::general_textured_triangle),
    ("181.mcf", kernels::mcf::refresh_potential),
    ("183.equake", kernels::equake::smvp),
    ("188.ammp", kernels::ammp::mm_fv_update_nonbon),
    ("300.twolf", kernels::twolf::new_dbox_a),
    ("435.gromacs", kernels::gromacs::inl1130),
    ("458.sjeng", kernels::sjeng::std_eval),
];

/// All 11 workloads of Figure 6(b), in the paper's order.
pub fn catalog() -> Vec<Workload> {
    KERNELS.iter().map(|(_, build)| build()).collect()
}

/// Looks a workload up by benchmark name (building only that kernel).
pub fn by_benchmark(name: &str) -> Option<Workload> {
    KERNELS.iter().find(|(benchmark, _)| *benchmark == name).map(|(_, build)| build())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_matches_figure_6b() {
        let names: Vec<_> = catalog().iter().map(|w| w.benchmark).collect();
        assert_eq!(
            names,
            vec![
                "adpcmdec",
                "adpcmenc",
                "ks",
                "mpeg2enc",
                "177.mesa",
                "181.mcf",
                "183.equake",
                "188.ammp",
                "300.twolf",
                "435.gromacs",
                "458.sjeng",
            ]
        );
    }

    #[test]
    fn all_kernels_verified_and_split() {
        for w in catalog() {
            assert!(gmt_ir::verify(&w.function).is_ok(), "{}", w.benchmark);
            assert!(
                !gmt_ir::has_critical_edges(&w.function),
                "{} has critical edges",
                w.benchmark
            );
        }
    }

    #[test]
    fn exec_percentages_match_paper() {
        let pct: Vec<_> = catalog().iter().map(|w| w.exec_pct).collect();
        assert_eq!(pct, vec![100, 100, 100, 58, 32, 32, 63, 79, 30, 75, 26]);
    }

    #[test]
    fn lookup_by_benchmark() {
        assert!(by_benchmark("nope").is_none());
        // Every table entry is filed under the name its kernel carries.
        for w in catalog() {
            let found = by_benchmark(w.benchmark).expect("every catalog entry is found");
            let copy = w.clone();
            for other in [&found, &copy] {
                assert_eq!((other.benchmark, other.name), (w.benchmark, w.name));
                assert_eq!((&other.train_args, &other.ref_args), (&w.train_args, &w.ref_args));
            }
        }
    }
}
