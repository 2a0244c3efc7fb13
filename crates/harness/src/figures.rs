//! Formatted reproductions of the paper's figures.
//!
//! The `render_*` functions take the rows of one [`crate::run_all`]
//! evaluation, so one pass over the matrix can feed several figures. A
//! benchmark that failed renders as a `FAILED (<phase>: <error>)` line
//! in its row position; averages are taken over the successful rows.

use crate::{mean, BenchResult, HarnessError, SchedulerKind};
use gmt_sim::MachineConfig;
use gmt_workloads::catalog;
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

/// Extension study (paper §6): communication growth and COCO savings as
/// the thread count scales — "as more threads are created, the larger
/// the number of inter-thread dependences to be respected, and
/// therefore the larger the fraction of communication instructions."
///
/// The per-benchmark studies are independent, so they fan out over the
/// worker pool; a failing benchmark prints a failure line in place of
/// its rows.
pub fn thread_scaling_table(kind: SchedulerKind) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Extension: thread scaling, {}", kind.name());
    let _ = writeln!(
        out,
        "{:<14} {:>7} {:>12} {:>12} {:>10} {:>9}",
        "benchmark", "threads", "MTCG comm", "COCO comm", "comm frac", "reduction"
    );
    let studies = gmt_testkit::par_map(catalog(), gmt_testkit::num_jobs(), |_i, w| {
        let points = crate::thread_scaling(&w, kind, &[2, 4]);
        (w.benchmark, points)
    });
    for (benchmark, points) in studies {
        match points {
            Ok(points) => {
                for p in points {
                    let red = if p.mtcg_comm == 0 {
                        0.0
                    } else {
                        100.0 - p.coco_comm as f64 * 100.0 / p.mtcg_comm as f64
                    };
                    let _ = writeln!(
                        out,
                        "{:<14} {:>7} {:>12} {:>12} {:>9.1}% {:>8.1}%",
                        benchmark, p.threads, p.mtcg_comm, p.coco_comm, p.comm_fraction_pct, red
                    );
                }
            }
            Err(e) => failed_line(&mut out, &e),
        }
    }
    out
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
