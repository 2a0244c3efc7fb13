//! Formatted reproductions of the paper's figures.
//!
//! The `render_*` functions take the rows of one [`crate::run_all`]
//! evaluation, so one pass over the matrix can feed several figures. A
//! benchmark that failed renders as a `FAILED (<phase>: <error>)` line
//! in its row position; averages are taken over the successful rows.

use crate::{mean, BenchResult, HarnessError, Scale, SchedulerKind};
use gmt_mtcg::QueueBudget;
use gmt_pdg::Pdg;
use gmt_sim::{simulate, simulate_decoded_opts, MachineConfig, SimOptions};
use gmt_workloads::{catalog, Workload};
use std::fmt::Write as _;

/// One benchmark's outcome within a figure.
pub type FigureRow = Result<BenchResult, HarnessError>;

fn failed_line(out: &mut String, e: &HarnessError) {
    let _ = writeln!(out, "{:<14} FAILED ({}: {})", e.benchmark, e.phase, e.source);
}

fn ok_rows(rows: &[FigureRow]) -> impl Iterator<Item = &BenchResult> {
    rows.iter().filter_map(|r| r.as_ref().ok())
}

/// Figure 1: breakdown of dynamic instructions into computation and
/// communication under baseline MTCG, for one scheduler.
pub fn render_figure1(rows: &[FigureRow], kind: SchedulerKind) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 1{}: dynamic instruction breakdown, {} + MTCG",
        match kind {
            SchedulerKind::Gremio => "(a)",
            SchedulerKind::Dswp => "(b)",
        },
        kind.name()
    );
    let _ = writeln!(out, "{:<14} {:>12} {:>14} {:>8}", "benchmark", "computation", "communication", "comm%");
    for row in rows {
        match row {
            Ok(r) => {
                let _ = writeln!(
                    out,
                    "{:<14} {:>12} {:>14} {:>7.1}%",
                    r.benchmark,
                    r.mtcg.counts.computation,
                    r.mtcg.counts.comm_total(),
                    r.comm_fraction_pct()
                );
            }
            Err(e) => failed_line(&mut out, e),
        }
    }
    let avg = mean(ok_rows(rows).map(BenchResult::comm_fraction_pct));
    let _ = writeln!(out, "{:<14} {:>12} {:>14} {:>7.1}%", "average", "", "", avg);
    out
}

/// Figure 6(a): the machine-details table.
pub fn figure6a() -> String {
    format!("Figure 6(a): machine details\n{}\n", MachineConfig::default().describe())
}

/// Figure 6(b): the selected benchmark functions.
pub fn figure6b() -> String {
    let mut out = String::from("Figure 6(b): selected benchmark functions\n");
    let _ = writeln!(out, "{:<14} {:<28} {:>7}", "benchmark", "function", "exec %");
    for w in catalog() {
        let _ = writeln!(out, "{:<14} {:<28} {:>6}%", w.benchmark, w.name, w.exec_pct);
    }
    out
}

/// Figure 7: relative dynamic communication / synchronization after
/// applying COCO, for one scheduler (100% = no reduction).
pub fn render_figure7(rows: &[FigureRow], kind: SchedulerKind) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Figure 7: relative dynamic communication after COCO, {}", kind.name());
    let _ = writeln!(
        out,
        "{:<14} {:>12} {:>12} {:>10} {:>11}   {:>9} {:>9}",
        "benchmark", "MTCG comm", "COCO comm", "relative", "reduction", "MTCG sync", "COCO sync"
    );
    for row in rows {
        match row {
            Ok(r) => {
                let _ = writeln!(
                    out,
                    "{:<14} {:>12} {:>12} {:>9.1}% {:>10.1}%   {:>9} {:>9}",
                    r.benchmark,
                    r.mtcg.counts.comm_total(),
                    r.coco.counts.comm_total(),
                    r.relative_comm_pct(),
                    100.0 - r.relative_comm_pct(),
                    r.mtcg.counts.synchronization,
                    r.coco.counts.synchronization,
                );
            }
            Err(e) => failed_line(&mut out, e),
        }
    }
    let avg = mean(ok_rows(rows).map(BenchResult::relative_comm_pct));
    let _ = writeln!(
        out,
        "{:<14} {:>12} {:>12} {:>9.1}% {:>10.1}%",
        "average", "", "", avg, 100.0 - avg
    );
    out
}

/// `Some(speedup)` as `"1.23x"`, `None` (an untimed side) as `"-"`.
fn fmt_speedup(s: Option<f64>) -> String {
    s.map_or_else(|| "-".to_string(), |v| format!("{v:.2}x"))
}

/// Figure 8: speedup over single-threaded execution, without and with
/// COCO, for one scheduler; needs rows timed with the machine model.
pub fn render_figure8(rows: &[FigureRow], kind: SchedulerKind) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Figure 8: speedup over single-threaded, {}", kind.name());
    let _ = writeln!(
        out,
        "{:<14} {:>10} {:>12} {:>12} {:>12} {:>9}",
        "benchmark", "seq cycles", "MTCG cycles", "COCO cycles", "MTCG speedup", "w/ COCO"
    );
    for row in rows {
        match row {
            Ok(r) => {
                let _ = writeln!(
                    out,
                    "{:<14} {:>10} {:>12} {:>12} {:>12} {:>9}",
                    r.benchmark,
                    r.seq_cycles,
                    r.mtcg.cycles,
                    r.coco.cycles,
                    fmt_speedup(r.speedup_mtcg()),
                    fmt_speedup(r.speedup_coco())
                );
            }
            Err(e) => failed_line(&mut out, e),
        }
    }
    let g_m = crate::geo_mean(ok_rows(rows).filter_map(BenchResult::speedup_mtcg));
    let g_c = crate::geo_mean(ok_rows(rows).filter_map(BenchResult::speedup_coco));
    let _ = writeln!(
        out,
        "{:<14} {:>10} {:>12} {:>12} {:>12} {:>9}  (geomean)",
        "average",
        "",
        "",
        "",
        format!("{g_m:.2}x"),
        format!("{g_c:.2}x")
    );
    out
}

/// Appends a table's rows for every catalog kernel: `study` runs per
/// kernel on the worker pool, and `rows` writes the rows of each kernel
/// in catalog order, or a failure line in their place.
fn kernel_rows<R: Send>(
    out: &mut String,
    study: impl Fn(&Workload) -> Result<R, HarnessError> + Sync,
    rows: impl Fn(&mut String, &str, R),
) {
    let studies =
        gmt_testkit::par_map(catalog(), gmt_testkit::num_jobs(), |_i, w| (w.benchmark, study(&w)));
    for (benchmark, study) in studies {
        match study {
            Ok(r) => rows(out, benchmark, r),
            Err(e) => failed_line(out, &e),
        }
    }
}

/// `after` relative to `before`, in percent (0 when `before` is 0).
fn change_pct(before: u64, after: u64) -> f64 {
    if before == 0 {
        0.0
    } else {
        after as f64 * 100.0 / before as f64 - 100.0
    }
}

/// The ablations of the paper's design choices, all on train inputs:
///
/// 1. COCO with the §3.1.2 control-flow penalties off, and with the
///    §3.1.3 shared memory multicut replaced by independent per-dependence
///    cuts, beside baseline MTCG (and its communication share) and full
///    COCO — dynamic communication of [`crate::coco_study`] at two and
///    four threads, over the partitions [`crate::compile_cell`] ships
///    (at two threads Figure 7's quick rows);
/// 2. uniform queue depth 1 vs §4's 32 under the two-thread DSWP + COCO
///    programs the figures measure — cycles;
/// 3. queue allocation (footnote 1): MTCG's four-thread DSWP baseline
///    plan, one queue per communication point vs folded onto a 16-queue
///    synchronization array — queues and cycles.
///
/// A failing kernel prints a failure line in place of its rows.
pub fn ablation_tables() -> String {
    let mut out = String::from("Ablation: COCO design choices, dynamic communication\n");
    let _ = writeln!(
        out,
        "{:<14} {:>9} {:>7} {:>9} {:>10} {:>9} {:>12} {:>11}",
        "benchmark",
        "scheduler",
        "threads",
        "MTCG",
        "comm frac",
        "COCO",
        "no penalties",
        "indep. cuts"
    );
    for kind in [SchedulerKind::Gremio, SchedulerKind::Dswp] {
        let study = |w: &Workload| crate::coco_study(w, kind, &[2, 4]);
        kernel_rows(&mut out, study, |out, benchmark, rows| {
            for r in rows {
                let _ = writeln!(
                    out,
                    "{:<14} {:>9} {:>7} {:>9} {:>9.1}% {:>9} {:>12} {:>11}",
                    benchmark,
                    kind.name(),
                    r.threads,
                    r.mtcg.comm_total(),
                    r.comm_fraction_pct(),
                    r.coco,
                    r.no_penalties,
                    r.independent_cuts
                );
            }
        });
    }

    out.push_str("\nAblation: queue depth, cycles of the DSWP + COCO programs\n");
    let _ = writeln!(out, "{:<14} {:>9} {:>9} {:>8}", "benchmark", "depth 1", "depth 32", "change");
    kernel_rows(&mut out, queue_depth_cycles, |out, benchmark, (d1, d32)| {
        let _ = writeln!(out, "{benchmark:<14} {d1:>9} {d32:>9} {:>+7.1}%", change_pct(d1, d32));
    });

    out.push_str("\nAblation: queue budget, four-thread DSWP baseline plan\n");
    let _ = writeln!(
        out,
        "{:<14} {:>6} {:>7} {:>10} {:>7} {:>10} {:>8}",
        "benchmark", "points", "queues", "queues@16", "cycles", "cycles@16", "change"
    );
    kernel_rows(&mut out, queue_budget_row, |out, benchmark, (points, [unlimited, budget])| {
        let _ = writeln!(
            out,
            "{benchmark:<14} {points:>6} {:>7} {:>10} {:>7} {:>10} {:>+7.1}%",
            unlimited.0,
            budget.0,
            unlimited.1,
            budget.1,
            change_pct(unlimited.1, budget.1)
        );
    });
    out
}

/// Cycles of `w`'s two-thread DSWP + COCO program on the train input,
/// with every queue 1 and 32 entries deep.
fn queue_depth_cycles(w: &Workload) -> Result<(u64, u64), HarnessError> {
    let cell = crate::compile_cell(w, SchedulerKind::Dswp, Scale::Quick, 2)?;
    let v = &cell.coco;
    let cycles = |depth| {
        let machine = v.machine.clone().with_queue_depth(depth);
        simulate_decoded_opts(&v.program, cell.args, w.init, &machine, SimOptions::default())
            .map(|r| r.cycles)
            .map_err(crate::fail(w.benchmark, "queue depth sim"))
    };
    Ok((cycles(1)?, cycles(32)?))
}

/// `w`'s four-thread DSWP baseline plan: its communication points, and
/// the queues and train-input cycles of the code generated from it with
/// unlimited queues on the default machine, then with at most 16 queues
/// on a 16-queue synchronization array.
fn queue_budget_row(w: &Workload) -> Result<(usize, [(u32, u64); 2]), HarnessError> {
    let (f, b) = (&w.function, w.benchmark);
    let profile = w.run_train().map_err(crate::fail(b, "train run"))?.profile;
    let pdg = Pdg::build(f);
    let partition = SchedulerKind::Dswp
        .scheduler_n(4)
        .partition(f, &pdg, &profile)
        .map_err(crate::fail(b, "partition"))?;
    let plan = gmt_mtcg::baseline_plan(f, &pdg, &partition).map_err(crate::fail(b, "baseline plan"))?;
    let points = plan.total_points();
    let run = |budget, num_queues| -> Result<(u32, u64), HarnessError> {
        let out = gmt_mtcg::generate_with_plan_budgeted(f, &pdg, &partition, plan.clone(), budget)
            .map_err(crate::fail(b, "budgeted MTCG"))?;
        let mut machine = MachineConfig::default();
        machine.sa.num_queues = num_queues;
        let sim = simulate(&out.threads, &w.train_args, w.init, &machine)
            .map_err(crate::fail(b, "queue budget sim"))?;
        Ok((out.num_queues, sim.cycles))
    };
    let unlimited = run(QueueBudget::Unlimited, MachineConfig::default().sa.num_queues)?;
    Ok((points, [unlimited, run(QueueBudget::Limit(16), 16)?]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_tables_render() {
        let a = figure6a();
        assert!(a.contains("6-issue"));
        let b = figure6b();
        assert!(b.contains("FindMaxGpAndSwap"));
        assert!(b.contains("458.sjeng"));
    }

    #[test]
    fn failed_rows_render_in_place() {
        let rows: Vec<FigureRow> = vec![
            Err(HarnessError {
                benchmark: "ks",
                phase: "train run",
                source: "missing arguments".into(),
            }),
        ];
        for text in [
            render_figure1(&rows, SchedulerKind::Dswp),
            render_figure7(&rows, SchedulerKind::Dswp),
            render_figure8(&rows, SchedulerKind::Dswp),
        ] {
            assert!(text.contains("ks"), "failure names the benchmark: {text}");
            assert!(text.contains("FAILED (train run: missing arguments)"), "{text}");
            assert!(text.contains("average"), "summary line still prints: {text}");
        }
    }

    /// The per-kernel tables of `--fig ablations` put a
    /// failing kernel's failure line where its rows would be.
    #[test]
    fn failed_kernel_rows_render_in_place() {
        let mut out = String::new();
        let study = |w: &Workload| match w.benchmark {
            "ks" => Err(HarnessError { benchmark: "ks", phase: "partition", source: "no".into() }),
            _ => Ok(()),
        };
        kernel_rows(&mut out, study, |out, benchmark, ()| {
            let _ = writeln!(out, "{benchmark} ok");
        });
        let lines: Vec<&str> = out.lines().collect();
        let at = catalog().iter().position(|w| w.benchmark == "ks").unwrap();
        assert_eq!(lines.len(), catalog().len());
        assert_eq!(lines[at], format!("{:<14} FAILED (partition: no)", "ks"));
        assert_eq!(lines[at + 1], format!("{} ok", catalog()[at + 1].benchmark));
    }

    #[test]
    fn untimed_speedup_renders_as_dash() {
        let rows: Vec<FigureRow> = vec![Ok(BenchResult {
            benchmark: "synthetic",
            seq_instrs: 10,
            seq_cycles: 100,
            mtcg: crate::VariantResult::default(),
            coco: crate::VariantResult::default(),
        })];
        let text = render_figure8(&rows, SchedulerKind::Dswp);
        assert!(text.contains(" -"), "untimed variants print '-': {text}");
        assert!(!text.contains("inf"), "{text}");
        assert!(!text.contains("NaN"), "{text}");
    }
}

#[cfg(test)]
mod render_tests {
    use super::*;
    use crate::{run_all, Scale};

    #[test]
    fn figure1_renders_all_rows() {
        let rows = run_all(SchedulerKind::Dswp, false, Scale::Quick);
        let t = render_figure1(&rows, SchedulerKind::Dswp);
        for w in catalog() {
            assert!(t.contains(w.benchmark), "missing {}", w.benchmark);
        }
        assert!(t.contains("average"));
    }

    #[test]
    fn figure7_renders_with_sync_columns() {
        let rows = run_all(SchedulerKind::Dswp, false, Scale::Quick);
        let t = render_figure7(&rows, SchedulerKind::Dswp);
        assert!(t.contains("MTCG sync"));
        assert!(t.contains("reduction"));
        assert_eq!(t.lines().count(), 2 + 11 + 1, "header x2 + rows + average");
    }
}
