//! The static queue-protocol validator ([`gmt_core::verify_mt`]) over
//! the full experiment matrix — every catalog kernel × {GREMIO, DSWP}
//! × {baseline MTCG, MTCG+COCO} — at depth 1, which subsumes every
//! queue depth ≥ 1 because the check is depth-monotone.
//!
//! Every cell comes from [`compile_cell`] — the same partition (for
//! GREMIO the timed-arbitration winner, single-thread fallback
//! included) and the same generated code the figures measure. Release
//! builds skip the pipeline's debug-assert validation stage, so this
//! matrix is the proof that those configurations obey the
//! produce/consume protocol: matching per-queue sequences, plan↔code
//! positions, a cycle-free inter-thread wait graph (cross-block arcs
//! included), and fresh values at every communication point (Defs. 1–2
//! of the paper). The test `every_matrix_cell_verifies` holds all 44
//! cells to it.

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
}

/// Verifies one variant of a compiled cell at depth 1.
fn verify_variant(cell: &CompiledCell, coco: bool) -> VerifyCell {
    let r = &cell.variant(coco).parallelized;
    let errors =
        gmt_core::verify_mt(&cell.workload.function, &r.partition, &cell.pdg, &r.output, &[1]);
    VerifyCell {
        benchmark: cell.workload.benchmark,
        scheduler: cell.kind.name(),
        coco,
        queues: r.num_queues(),
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
        // Verification runs nothing, so the input scale is moot.
        let cell = compile_cell(&w, kind, Scale::Quick, 2);
        [false, true].map(|coco| match &cell {
            Ok(cell) => Ok(verify_variant(cell, coco)),
            Err(e) => Err(e.clone()),
        })
    })
    .into_iter()
    .flatten()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_matrix_cell_verifies() {
        let cells = verify_matrix(2);
        assert_eq!(cells.len(), 44);
        for cell in cells {
            let c = cell.expect("pipeline runs");
            let at = format!("{}/{}/coco={}", c.benchmark, c.scheduler, c.coco);
            assert!(c.ok(), "{at} violates the protocol: {:?}", c.errors);
        }
    }

    /// Regression: the verification matrix used to verify GREMIO's
    /// *analytic* partition while the figures measure the *arbitrated*
    /// one; for these two kernels arbitration picks a different
    /// candidate. The verified cell must be the evaluated cell — what
    /// `explain_cell` independently reports for the same configuration.
    #[test]
    fn verified_cell_is_the_evaluated_cell() {
        for bench in ["188.ammp", "300.twolf"] {
            let w = gmt_workloads::by_benchmark(bench).unwrap();
            let cell = compile_cell(&w, SchedulerKind::Gremio, Scale::Quick, 2).unwrap();
            for coco in [false, true] {
                let verified = verify_variant(&cell, coco);
                let explained =
                    crate::explain_cell(&w, SchedulerKind::Gremio, coco, Scale::Quick).unwrap();
                assert_eq!(
                    verified.queues as usize,
                    explained.traffic.len(),
                    "{bench}/coco={coco}: verify and explain disagree on the plan"
                );
            }
        }
    }
}
