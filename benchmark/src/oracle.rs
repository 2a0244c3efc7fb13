//! Reference results that do not come from the compiler under test:
//! pinned checksums of the single-threaded interpreter's output per
//! kernel and input size, the repository's own Figure 7 golden, and
//! the code-quality counts of the commit that defined the benchmark.

use crate::api::RunResult;
use crate::compare::worsening;
use crate::metrics;
use std::collections::BTreeMap;

/// `expected/outputs.txt`: one `<kernel> <train|ref> <checksum>` line
/// per kernel and input size. Regenerate with `benchmark expected`
/// after changing a kernel or its inputs on purpose.
const OUTPUTS: &str = include_str!("../expected/outputs.txt");

/// `expected/counts.txt`: one `<workload> <metric> <value>` line per
/// quality count that `BENCHMARK.json` cannot list under `end_to_end`
/// because not every workload has it. The driver never sees these, so
/// every run holds them to this table instead: a count worse than its
/// line by more than the metric's bound is a failed check. Every
/// run prints what it measured; move a line only together with the
/// change that earned it.
const COUNTS: &str = include_str!("../expected/counts.txt");

/// The metrics `expected/counts.txt` pins, on every workload that
/// measures them.
pub const PINNED: [&str; 3] = [
    "geomean_speedup",
    "comm_instrs_total",
    "static_instrs_total",
];

/// What `repro --fig 7 --quick` must print; `eval_quick` re-renders it
/// from its own rows.
pub const FIG7_QUICK_GOLDEN: &str = include_str!("../../tests/golden/fig7_quick.txt");

/// FNV-1a over the output trace and the return value.
pub fn checksum(r: &RunResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: i64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(r.output.len() as i64);
    for &v in &r.output {
        eat(v);
    }
    match r.return_value {
        Some(v) => {
            eat(1);
            eat(v);
        }
        None => eat(0),
    }
    h
}

/// The pinned checksums, keyed by (kernel, input size), and the pinned
/// counts, keyed by (workload, metric).
pub struct Expected {
    sums: BTreeMap<(String, String), u64>,
    counts: BTreeMap<(String, String), f64>,
}

/// The `<a> <b> <value>` lines of a pinned table.
fn table(text: &'static str) -> impl Iterator<Item = Option<[&'static str; 3]>> {
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|line| {
            let mut parts = line.split_whitespace();
            match (parts.next(), parts.next(), parts.next(), parts.next()) {
                (Some(a), Some(b), Some(v), None) => Some([a, b, v]),
                _ => None,
            }
        })
}

impl Expected {
    /// Parses the committed table.
    ///
    /// # Errors
    ///
    /// Names the first line that is not `<kernel> <size> <hex>`.
    pub fn load() -> Result<Expected, String> {
        let mut sums = BTreeMap::new();
        for line in table(OUTPUTS) {
            let [kernel, size, sum] = line.ok_or("expected/outputs.txt: malformed line")?;
            let sum = u64::from_str_radix(sum.trim_start_matches("0x"), 16)
                .map_err(|e| format!("expected/outputs.txt: {kernel} {size}: {e}"))?;
            sums.insert((kernel.to_string(), size.to_string()), sum);
        }
        let mut counts = BTreeMap::new();
        for line in table(COUNTS) {
            let [workload, metric, value] = line.ok_or("expected/counts.txt: malformed line")?;
            let value: f64 = value
                .parse()
                .map_err(|e| format!("expected/counts.txt: {workload} {metric}: {e}"))?;
            counts.insert((workload.to_string(), metric.to_string()), value);
        }
        Ok(Expected { sums, counts })
    }

    /// Flips one bit of the first pinned train checksum (every
    /// workload that runs kernels checks those), in memory only: the
    /// planted mismatch of `--self-test-oracle`.
    pub fn plant_mismatch(&mut self) {
        if let Some((_, sum)) = self.sums.iter_mut().find(|((_, size), _)| size == "train") {
            *sum ^= 1;
        }
    }

    /// Checks a single-threaded interpreter result against its pin.
    ///
    /// # Errors
    ///
    /// Describes the mismatch, or the missing pin.
    pub fn check(&self, kernel: &str, size: &str, r: &RunResult) -> Result<(), String> {
        let got = checksum(r);
        match self.sums.get(&(kernel.to_string(), size.to_string())) {
            Some(&want) if want == got => Ok(()),
            Some(&want) => Err(format!(
                "{kernel}/{size}: single-threaded output checksum {got:#018x}, pinned {want:#018x}"
            )),
            None => Err(format!(
                "{kernel}/{size}: no pinned checksum in expected/outputs.txt"
            )),
        }
    }

    /// Holds one of the [`PINNED`] counts of a run to its line.
    ///
    /// # Errors
    ///
    /// The count is worse than pinned by more than the metric's bound,
    /// or has no line.
    pub fn check_count(&self, workload: &str, name: &str, got: f64) -> Result<(), String> {
        let metric = metrics::find(name).ok_or_else(|| format!("{name}: no such metric"))?;
        let bound = metric.bound.unwrap_or(0.0);
        match self.counts.get(&(workload.to_string(), name.to_string())) {
            Some(&pinned) if worsening(metric, pinned, got) <= bound => Ok(()),
            Some(&pinned) => Err(format!(
                "{workload}: {name} is {got}, more than {} % worse than the {pinned} of \
                 expected/counts.txt",
                bound * 100.0
            )),
            None => Err(format!(
                "{workload}: {name} has no line in expected/counts.txt"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_count_worse_than_its_pin_by_more_than_the_bound_fails() {
        let e = Expected::load().unwrap();
        let pinned = e.counts[&("eval_quick".to_string(), "comm_instrs_total".to_string())];
        assert!(e
            .check_count("eval_quick", "comm_instrs_total", pinned)
            .is_ok());
        assert!(e
            .check_count("eval_quick", "comm_instrs_total", pinned * 0.9)
            .is_ok());
        assert!(e
            .check_count("eval_quick", "comm_instrs_total", pinned * 1.005)
            .is_ok());
        assert!(e
            .check_count("eval_quick", "comm_instrs_total", pinned * 1.02)
            .unwrap_err()
            .contains("worse"));
        // Higher is better for the speedup.
        let speedup = e.counts[&("eval_quick".to_string(), "geomean_speedup".to_string())];
        assert!(e
            .check_count("eval_quick", "geomean_speedup", speedup * 0.98)
            .is_err());
        assert!(e
            .check_count("fuzz_diff", "comm_instrs_total", 1.0)
            .unwrap_err()
            .contains("no line"));
    }

    #[test]
    fn every_pinned_count_has_a_line_on_every_workload_that_measures_it() {
        let e = Expected::load().unwrap();
        let mut lines = 0;
        for name in PINNED {
            let m = metrics::find(name).unwrap();
            for w in crate::workloads::ALL.iter().filter(|w| m.measured_on(w)) {
                assert!(
                    e.counts.contains_key(&(w.to_string(), name.to_string())),
                    "{w} {name}"
                );
                lines += 1;
            }
        }
        assert_eq!(lines, e.counts.len(), "a line pins nothing");
    }
}
