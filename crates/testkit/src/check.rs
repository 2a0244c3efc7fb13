//! The property-test runner: seeded case generation, greedy shrinking,
//! failure persistence, and environment-variable replay.
//!
//! Each case is generated from its own derived `u64` seed, so a
//! failure is fully reproducible from that one number. Failing seeds
//! are appended to a `testkit-regressions` file next to the crate's
//! manifest and re-run before fresh cases on every subsequent run.

use crate::gen::Gen;
use crate::rng::{splitmix64, TestRng};
use crate::shrink::Shrink;
use std::fmt::Debug;
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

/// What a property body returns: `Ok(())` on success, a message on
/// failure. Use the [`prop_assert!`](crate::prop_assert) family to
/// produce these.
pub type PropResult = Result<(), String>;

/// Default number of cases when neither the checker nor the
/// environment says otherwise.
const DEFAULT_CASES: u32 = 32;
/// Default base seed: fixed so CI is deterministic run-over-run.
const DEFAULT_SEED: u64 = 0x6D7C_6B5A_4938_2716;
/// Bound on property evaluations spent shrinking one failure.
const MAX_SHRINK_EVALS: u32 = 2048;

/// A configured property check.
pub struct Checker {
    name: String,
    cases: u32,
    seed: u64,
    persist: bool,
}

impl Checker {
    /// A checker named `name` (used in the regressions file and replay
    /// hints; conventionally `"suite::test_fn"`).
    pub fn new(name: &str) -> Checker {
        Checker { name: name.to_string(), cases: DEFAULT_CASES, seed: DEFAULT_SEED, persist: true }
    }

    /// Sets the number of generated cases (overridden by
    /// `GMT_TESTKIT_CASES`).
    #[must_use]
    pub fn cases(mut self, cases: u32) -> Checker {
        self.cases = cases;
        self
    }

    /// Sets the base seed (overridden by `GMT_TESTKIT_SEED`).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Checker {
        self.seed = seed;
        self
    }

    /// Runs `prop` against persisted regression cases, then fresh
    /// generated cases.
    ///
    /// # Panics
    ///
    /// Panics with the shrunken counterexample when the property
    /// fails.
    pub fn run<T>(&self, gen: &Gen<T>, prop: impl Fn(&T) -> PropResult)
    where
        T: Clone + Debug + Shrink + 'static,
    {
        // Explicit replay trumps everything: run exactly that case.
        if let Some(seed) = env_u64("GMT_TESTKIT_SEED") {
            self.run_case(gen, &prop, seed, false);
            return;
        }
        for seed in self.persisted_seeds() {
            self.run_case(gen, &prop, seed, false);
        }
        let cases = env_u64("GMT_TESTKIT_CASES").map_or(self.cases, |c| c as u32);
        let mut base = self.seed ^ fnv1a(self.name.as_bytes());
        for _ in 0..cases {
            let case_seed = splitmix64(&mut base);
            self.run_case(gen, &prop, case_seed, self.persist);
        }
    }

    /// Generates and checks the case for `case_seed`; shrinks,
    /// optionally persists, and panics on failure.
    fn run_case<T>(
        &self,
        gen: &Gen<T>,
        prop: &impl Fn(&T) -> PropResult,
        case_seed: u64,
        persist: bool,
    ) where
        T: Clone + Debug + Shrink + 'static,
    {
        let value = gen.sample(&mut TestRng::new(case_seed));
        let Err(first_err) = crate::shrink::eval_prop(prop, &value) else { return };
        let (min_value, min_err) =
            crate::shrink::minimize(value, first_err, MAX_SHRINK_EVALS, prop);
        if persist {
            self.persist_seed(case_seed);
        }
        panic!(
            "property '{}' failed (case seed {case_seed:#x}).\n\
             minimal input: {min_value:#?}\n\
             error: {min_err}\n\
             replay with: GMT_TESTKIT_SEED={case_seed:#x} cargo test {}",
            self.name,
            self.name.rsplit("::").next().unwrap_or(&self.name),
        );
    }

    /// Seeds recorded by previous failing runs, oldest first.
    fn persisted_seeds(&self) -> Vec<u64> {
        let Ok(text) = fs::read_to_string(regressions_path()) else {
            return Vec::new();
        };
        text.lines()
            .filter_map(|line| {
                let line = line.trim();
                let (name, seed) = line.split_once(' ')?;
                if name != self.name || line.starts_with('#') {
                    return None;
                }
                parse_seed(seed)
            })
            .collect()
    }

    /// Appends a failing case seed to the regressions file.
    fn persist_seed(&self, seed: u64) {
        if self.persisted_seeds().contains(&seed) {
            return;
        }
        let path = regressions_path();
        let new = !path.exists();
        let Ok(mut file) = fs::OpenOptions::new().create(true).append(true).open(&path) else {
            return; // read-only checkout: the panic message still has the seed
        };
        if new {
            let _ = writeln!(
                file,
                "# gmt-testkit regression seeds: `<property name> <case seed>` per line.\n\
                 # Re-run automatically before fresh cases; check this file in."
            );
        }
        let _ = writeln!(file, "{} {seed:#x}", self.name);
    }
}

/// The per-crate regression file, next to the manifest of the crate
/// under test (cargo sets `CARGO_MANIFEST_DIR` for test processes; the
/// fallback covers bare binary invocation).
fn regressions_path() -> PathBuf {
    let dir = std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| ".".into());
    PathBuf::from(dir).join("testkit-regressions")
}

fn env_u64(name: &str) -> Option<u64> {
    parse_seed(&std::env::var(name).ok()?)
}

/// Parses a seed or count: `0x`-prefixed hex or plain decimal,
/// surrounding whitespace ignored. The one parser for every seed a
/// user types — `GMT_TESTKIT_SEED`, the regressions file, the fuzzer's
/// `--seed` and its corpus.
pub fn parse_seed(s: &str) -> Option<u64> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// FNV-1a over bytes: decorrelates per-property case streams so two
/// properties in one file don't see the same inputs.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Fails the property with a message unless the condition holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err(format!("assertion failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!($($fmt)+));
        }
    };
}

/// Fails the property unless the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        if a != b {
            return Err(format!(
                "assertion failed: {} == {}\n  left: {a:?}\n right: {b:?}",
                stringify!($a),
                stringify!($b),
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        if a != b {
            return Err(format!(
                "{}\n  left: {a:?}\n right: {b:?}",
                format!($($fmt)+),
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{ranged, vec_of};

    impl Checker {
        /// Disables writing failing seeds to the regressions file, so a
        /// test of the runner itself leaves no seed behind.
        fn no_persistence(mut self) -> Checker {
            self.persist = false;
            self
        }
    }

    #[test]
    fn passing_property_runs_all_cases() {
        let mut count = 0u32;
        let counter = std::cell::Cell::new(0u32);
        Checker::new("testkit::passing").cases(17).run(&ranged(0u8, 100), |_| {
            counter.set(counter.get() + 1);
            Ok(())
        });
        count += counter.get();
        // At least the 17 fresh cases ran (plus any persisted ones).
        assert!(count >= 17, "{count}");
    }

    #[test]
    fn failing_property_panics_with_minimal_input() {
        let result = std::panic::catch_unwind(|| {
            Checker::new("testkit::failing").cases(50).no_persistence().run(
                &vec_of(ranged(0u64, 1000), 0, 10),
                |v: &Vec<u64>| {
                    if v.iter().any(|&x| x >= 5) {
                        Err("element too big".into())
                    } else {
                        Ok(())
                    }
                },
            );
        });
        let msg = *result.expect_err("must fail").downcast::<String>().unwrap();
        // Greedy shrinking must reach the canonical minimal input [5].
        assert!(msg.contains("minimal input"), "{msg}");
        assert!(msg.contains('5'), "{msg}");
        assert!(msg.contains("GMT_TESTKIT_SEED="), "{msg}");
    }

    #[test]
    fn same_name_same_cases() {
        let collect = || {
            let got = std::cell::RefCell::new(Vec::new());
            Checker::new("testkit::stable").cases(8).run(&crate::gen::full_u64(), |&v| {
                got.borrow_mut().push(v);
                Ok(())
            });
            got.into_inner()
        };
        assert_eq!(collect(), collect());
    }

    #[test]
    fn distinct_names_decorrelate() {
        let collect = |name: &str| {
            let got = std::cell::RefCell::new(Vec::new());
            Checker::new(name).cases(8).run(&crate::gen::full_u64(), |&v| {
                got.borrow_mut().push(v);
                Ok(())
            });
            got.into_inner()
        };
        assert_ne!(collect("testkit::a"), collect("testkit::b"));
    }

    #[test]
    fn seed_parsing() {
        assert_eq!(parse_seed("42"), Some(42));
        assert_eq!(parse_seed("0xff"), Some(255));
        assert_eq!(parse_seed(" 0X10 "), Some(16));
        assert_eq!(parse_seed("nope"), None);
    }
}
