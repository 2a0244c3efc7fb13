//! The `repro --verify-mt` mode: run the static queue-protocol
//! validator ([`gmt_core::verify_mt`]) over the full experiment matrix
//! — every catalog kernel × {GREMIO, DSWP} × {baseline MTCG, MTCG+COCO}
//! — at the *allocated* per-queue depths: the profile-weighted
//! allocation where hot loop-carried queues get the scheduler's paper
//! depth (GREMIO 1, DSWP 32) and cold control queues get a single
//! entry.
//!
//! Every cell comes from [`compile_cell`] — the same partition (for
//! GREMIO the timed-arbitration winner, single-thread fallback
//! included) and the same generated code the figures measure. Release
//! builds skip the pipeline's debug-assert validation stage, so this
//! mode is the CI-facing proof that those configurations obey the
//! produce/consume protocol: matching
//! per-queue sequences, plan↔code positions, a cycle-free inter-thread
//! wait graph (cross-block arcs included) at each queue's allocated
//! depth, and fresh values at every communication point (Defs. 1–2 of
//! the paper).

use crate::{compile_cell, CompiledCell, HarnessError, Scale, SchedulerKind};
use gmt_core::MtVerifyError;
use gmt_workloads::{catalog, Workload};

/// One cell of the verification matrix.
#[derive(Clone, Debug)]
pub struct VerifyCell {
    /// Benchmark name.
    pub benchmark: &'static str,
    /// Scheduler display name.
    pub scheduler: &'static str,
    /// Whether COCO ran.
    pub coco: bool,
    /// Depth granted to hot queues by the allocator (the scheduler's
    /// paper depth; cold queues get 1).
    pub hot_depth: usize,
    /// The allocated per-queue depths the wait graph was checked at.
    pub depths: Vec<usize>,
    /// Number of SA queues the plan allocated.
    pub queues: u32,
    /// Protocol violations (empty = the cell verifies).
    pub errors: Vec<MtVerifyError>,
}

impl VerifyCell {
    /// True when the cell verified cleanly.
    pub fn ok(&self) -> bool {
        self.errors.is_empty()
    }

    /// Compact depth-range rendering for the table, e.g. `1` or `1-32`.
    pub fn depth_range(&self) -> String {
        let min = self.depths.iter().min().copied().unwrap_or(1);
        let max = self.depths.iter().max().copied().unwrap_or(1);
        if min == max {
            format!("{min}")
        } else {
            format!("{min}-{max}")
        }
    }
}

/// Verifies one (kernel, scheduler, ±COCO) configuration.
///
/// # Errors
///
/// Returns a [`HarnessError`] if profiling or parallelization itself
/// fails; validator findings are *not* errors here — they come back in
/// [`VerifyCell::errors`].
pub fn verify_cell(
    w: &Workload,
    kind: SchedulerKind,
    coco: bool,
) -> Result<VerifyCell, HarnessError> {
    // Verification runs nothing, so the input scale is moot.
    Ok(verify_variant(&compile_cell(w, kind, Scale::Quick)?, coco))
}

/// Verifies one variant of a compiled cell at its *allocated*
/// per-queue depths (hot loop-carried queues at the scheduler's paper
/// depth, cold ones at 1) — the depths a depth-aware synchronization
/// array would provision, and strictly harsher on back-pressure than a
/// uniform scalar.
fn verify_variant(cell: &CompiledCell, coco: bool) -> VerifyCell {
    let r = &cell.variant(coco).parallelized;
    let errors = gmt_core::verify_mt(
        &cell.workload.function,
        &r.partition,
        &cell.pdg,
        &r.output,
        &r.queue_depths,
    );
    VerifyCell {
        benchmark: cell.workload.benchmark,
        scheduler: cell.kind.name(),
        coco,
        hot_depth: cell.kind.queue_depth(),
        queues: r.num_queues(),
        depths: r.queue_depths.clone(),
        errors,
    }
}

/// Runs the whole matrix — catalog × {GREMIO, DSWP} × {±COCO} — on
/// `jobs` workers, in deterministic (catalog, scheduler, variant)
/// order. Each kernel × scheduler is compiled once for both variants.
pub fn verify_matrix(jobs: usize) -> Vec<Result<VerifyCell, HarnessError>> {
    let mut pairs: Vec<(Workload, SchedulerKind)> = Vec::new();
    for w in catalog() {
        pairs.push((w.clone(), SchedulerKind::Gremio));
        pairs.push((w, SchedulerKind::Dswp));
    }
    gmt_testkit::par_map(pairs, jobs, |_i, (w, kind)| {
        let cell = compile_cell(&w, kind, Scale::Quick);
        [false, true].map(|coco| match &cell {
            Ok(cell) => Ok(verify_variant(cell, coco)),
            Err(e) => Err(e.clone()),
        })
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Renders the matrix results as a fixed-width table, one line per
/// cell, followed by any validator findings in full.
pub fn verify_table(results: &[Result<VerifyCell, HarnessError>]) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = writeln!(s, "{:<12} {:<8} {:<6} {:>6} {:>7}  status", "benchmark", "sched", "coco", "depths", "queues");
    let mut findings = Vec::new();
    for r in results {
        match r {
            Ok(c) => {
                let _ = writeln!(
                    s,
                    "{:<12} {:<8} {:<6} {:>6} {:>7}  {}",
                    c.benchmark,
                    c.scheduler,
                    if c.coco { "yes" } else { "no" },
                    c.depth_range(),
                    c.queues,
                    if c.ok() { "ok" } else { "FAIL" }
                );
                if !c.ok() {
                    findings.push(c);
                }
            }
            Err(e) => {
                let _ = writeln!(s, "{:<12} {:<8} {:<6} {:>6} {:>7}  ERROR: {e}", e.benchmark, "-", "-", "-", "-");
            }
        }
    }
    for c in findings {
        let _ = writeln!(
            s,
            "\n{} / {} / {}:",
            c.benchmark,
            c.scheduler,
            if c.coco { "coco" } else { "mtcg" }
        );
        for e in &c.errors {
            let _ = writeln!(s, "  - {e}");
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_cell_verifies() {
        let w = gmt_workloads::by_benchmark("ks").unwrap();
        for coco in [false, true] {
            let c = verify_cell(&w, SchedulerKind::Dswp, coco).expect("pipeline runs");
            assert!(c.ok(), "ks/DSWP/coco={coco} violates the protocol: {:?}", c.errors);
            assert_eq!(c.hot_depth, 32);
            assert_eq!(c.depths.len(), c.queues as usize, "one depth per queue");
            assert!(c.depths.iter().all(|&d| d == 1 || d == 32), "{:?}", c.depths);
        }
    }

    /// Regression: `--verify-mt` used to verify GREMIO's *analytic*
    /// partition while the figures measure the *arbitrated* one; for
    /// these two kernels arbitration picks a different candidate. The
    /// verified cell must be the evaluated cell — against the compiled
    /// cell directly, and against what `explain_cell` independently
    /// reports for the same configuration.
    #[test]
    fn verified_cell_is_the_evaluated_cell() {
        for bench in ["188.ammp", "300.twolf"] {
            let w = gmt_workloads::by_benchmark(bench).unwrap();
            let cell = compile_cell(&w, SchedulerKind::Gremio, Scale::Quick).unwrap();
            for coco in [false, true] {
                let verified = verify_cell(&w, SchedulerKind::Gremio, coco).unwrap();
                let evaluated = &cell.variant(coco).parallelized;
                assert_eq!(verified.queues, evaluated.num_queues(), "{bench}/coco={coco}");
                assert_eq!(verified.depths, evaluated.queue_depths, "{bench}/coco={coco}");
                let explained =
                    crate::explain_cell(&w, SchedulerKind::Gremio, coco, Scale::Quick).unwrap();
                assert_eq!(
                    verified.queues as usize,
                    explained.estimate.queue_traffic.len(),
                    "{bench}/coco={coco}: verify and explain disagree on the plan"
                );
            }
        }
    }

    #[test]
    fn table_marks_clean_cells_ok() {
        let w = gmt_workloads::by_benchmark("ks").unwrap();
        let cell = verify_cell(&w, SchedulerKind::Gremio, true).unwrap();
        let table = verify_table(&[Ok(cell)]);
        assert!(table.contains("GREMIO"), "{table}");
        assert!(table.contains("ok"), "{table}");
        assert!(!table.contains("FAIL"), "{table}");
    }
}
