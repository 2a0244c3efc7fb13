//! `benchmark compare A.json B.json`: every workload × metric of two
//! reports side by side, classified against the metric's bound.

use crate::json::Json;
use crate::metrics::{self, Better, Metric};
use crate::workloads;

/// How B's value of one metric stands against A's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The change is inside the bound, but so is the runs' own
    /// pass-to-pass spread: it cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than `a`, in the metric's unit (negative
/// when better).
fn worsening_abs(metric: &Metric, a: f64, b: f64) -> f64 {
    match metric.better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative when
/// better). A zero baseline compares by sign only.
pub fn worsening(metric: &Metric, a: f64, b: f64) -> f64 {
    let delta = worsening_abs(metric, a, b);
    if a != 0.0 {
        delta / a.abs()
    } else if delta == 0.0 {
        0.0
    } else {
        delta.signum() * f64::INFINITY
    }
}

/// Classifies one pair of values. `noise` is the larger pass-to-pass
/// coefficient of variation of the two runs, as a share.
///
/// Exact counts are `Same` only when identical. Timed metrics are
/// `Worse`/`Better` when they move by more than the bound and by more
/// than the metric's absolute floor; a smaller move is `Same` only if
/// the runs were steadier than the bound.
/// Layer timings have no bound and are never `Worse`: they are evidence
/// for a reader, not a gate.
pub fn classify(metric: &Metric, a: f64, b: f64, noise: f64) -> Verdict {
    let w = worsening(metric, a, b);
    if metric.exact {
        return if w > metric.bound.unwrap_or(0.0) {
            Verdict::Worse
        } else if w >= 0.0 {
            Verdict::Same
        } else {
            Verdict::Better
        };
    }
    if worsening_abs(metric, a, b).abs() <= metric.floor {
        return Verdict::Same;
    }
    match metric.bound {
        Some(bound) if w > bound => Verdict::Worse,
        Some(bound) if w < -bound => Verdict::Better,
        Some(bound) if noise > bound => Verdict::Unresolved,
        _ => Verdict::Same,
    }
}

fn value(report: &Json, workload: &str, metric: &str) -> Option<f64> {
    report
        .get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// Prints the comparison and says whether it passes: no `Worse`, no
/// gated or exact metric missing from either report, and with
/// `same_commit` every exact count identical.
///
/// # Errors
///
/// A report that lacks the `workloads` object.
pub fn compare(a: &Json, b: &Json, same_commit: bool) -> Result<bool, String> {
    for (which, r) in [("first", a), ("second", b)] {
        if r.get("workloads").and_then(Json::as_obj).is_none() {
            return Err(format!(
                "the {which} file is not a benchmark report (no \"workloads\")"
            ));
        }
    }
    let mut pass = true;
    println!(
        "{:<14} {:<28} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "delta", "bound"
    );
    for workload in workloads::ALL {
        let noise = [a, b]
            .into_iter()
            .filter_map(|r| value(r, workload, "bench.pass_cv_pct"))
            .fold(0.0, f64::max)
            / 100.0;
        for m in metrics::METRICS.iter().filter(|m| m.measured_on(workload)) {
            let (Some(va), Some(vb)) = (value(a, workload, m.name), value(b, workload, m.name))
            else {
                // A `--smoke` or truncated report: nothing was compared,
                // which is not the same as nothing got worse.
                if m.bound.is_some() || m.exact {
                    println!(
                        "{workload:<14} {:<28} missing from a report  unresolved",
                        m.name
                    );
                    pass = false;
                }
                continue;
            };
            let verdict = classify(m, va, vb, noise);
            let differs_exactly = m.exact && va != vb;
            let failed = verdict == Verdict::Worse || (same_commit && differs_exactly);
            pass &= !failed;
            // An unchanged layer metric carries no news.
            if m.bound.is_none() && va == vb {
                continue;
            }
            println!(
                "{workload:<14} {:<28} {va:>16.4} {vb:>16.4} {:>+8.2}% {:>7}  {}{}",
                m.name,
                if va == 0.0 {
                    0.0
                } else {
                    (vb - va) / va.abs() * 100.0
                },
                m.bound
                    .map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0)),
                verdict.name(),
                if same_commit && differs_exactly {
                    "  (count differs within one commit)"
                } else {
                    ""
                },
            );
        }
    }
    println!(
        "{}",
        if pass {
            "compare: pass"
        } else {
            "compare: FAIL"
        }
    );
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(name: &str) -> &'static Metric {
        metrics::find(name).unwrap()
    }

    #[test]
    fn timed_metrics_classify_against_their_bound() {
        let ops = m("ops_per_s"); // higher is better, 25 %
        assert_eq!(classify(ops, 100.0, 70.0, 0.02), Verdict::Worse);
        assert_eq!(classify(ops, 100.0, 130.0, 0.02), Verdict::Better);
        assert_eq!(classify(ops, 100.0, 95.0, 0.02), Verdict::Same);
        // The same small move in runs noisier than the bound.
        assert_eq!(classify(ops, 100.0, 95.0, 0.3), Verdict::Unresolved);
        // A move beyond the bound is called even in noisy runs.
        assert_eq!(classify(ops, 100.0, 70.0, 0.3), Verdict::Worse);
        let slowest = m("op_best_ms_max"); // lower is better, 25 %
        assert_eq!(classify(slowest, 10.0, 12.4, 0.0), Verdict::Same);
        assert_eq!(classify(slowest, 10.0, 12.6, 0.0), Verdict::Worse);
    }

    #[test]
    fn setup_time_has_an_absolute_floor() {
        let setup = m("setup_s"); // max(25 %, 0.05 s)
        assert_eq!(classify(setup, 0.00025, 0.0005, 0.0), Verdict::Same);
        assert_eq!(classify(setup, 0.00025, 0.06, 0.0), Verdict::Worse);
        assert_eq!(classify(setup, 1.0, 1.2, 0.0), Verdict::Same);
        assert_eq!(classify(setup, 1.0, 1.3, 0.0), Verdict::Worse);
    }

    #[test]
    fn counts_are_same_only_when_identical() {
        let cycles = m("sim_cycles_total"); // lower is better, 1 %
        assert_eq!(classify(cycles, 1000.0, 1000.0, 0.5), Verdict::Same);
        assert_eq!(classify(cycles, 1000.0, 1005.0, 0.0), Verdict::Same);
        assert_eq!(classify(cycles, 1000.0, 1011.0, 0.0), Verdict::Worse);
        assert_eq!(classify(cycles, 1000.0, 999.0, 0.0), Verdict::Better);
        let failed = m("failed_ops_pct"); // bound 0
        assert_eq!(classify(failed, 0.0, 0.0, 0.0), Verdict::Same);
        assert_eq!(classify(failed, 0.0, 0.5, 0.0), Verdict::Worse);
    }

    #[test]
    fn layer_timings_never_fail_a_comparison() {
        let gremio = m("sched.gremio_ms");
        assert_eq!(classify(gremio, 10.0, 30.0, 0.0), Verdict::Same);
    }

    /// A complete report: every metric reads 1 but `exec_only`'s cycles
    /// and throughput, and whatever `skip` names is left out.
    fn report(cycles: f64, ops: f64, skip: &str) -> Json {
        let workloads: Vec<String> = workloads::ALL
            .iter()
            .map(|w| {
                let values: Vec<String> = metrics::METRICS
                    .iter()
                    .filter(|m| m.measured_on(w) && m.name != skip)
                    .map(|m| {
                        let v = match (*w, m.name) {
                            (workloads::EXEC_ONLY, "sim_cycles_total") => cycles,
                            (workloads::EXEC_ONLY, "ops_per_s") => ops,
                            _ => 1.0,
                        };
                        format!(r#""{}": {{"value": {v}, "unit": "{}"}}"#, m.name, m.unit)
                    })
                    .collect();
                format!(r#""{w}": {{"metrics": {{{}}}}}"#, values.join(", "))
            })
            .collect();
        crate::json::parse(&format!(r#"{{"workloads": {{{}}}}}"#, workloads.join(", "))).unwrap()
    }

    #[test]
    fn same_commit_requires_identical_counts() {
        let a = report(1000.0, 50.0, "");
        assert_eq!(compare(&a, &report(1000.0, 51.0, ""), true), Ok(true));
        // Half a percent more cycles is inside the bound between two
        // commits, but not between two runs of one.
        assert_eq!(compare(&a, &report(1005.0, 50.0, ""), false), Ok(true));
        assert_eq!(compare(&a, &report(1005.0, 50.0, ""), true), Ok(false));
        assert_eq!(compare(&a, &report(1000.0, 30.0, ""), true), Ok(false));
        assert!(compare(&a, &Json::Null, false).is_err());
    }

    #[test]
    fn a_missing_gated_metric_fails_the_comparison() {
        let a = report(1000.0, 50.0, "");
        // What a `--smoke` report lacks.
        assert_eq!(
            compare(&a, &report(1000.0, 50.0, "comm_instrs_total"), false),
            Ok(false)
        );
        // A layer timing carries no bound; its absence fails nothing.
        assert_eq!(
            compare(&a, &report(1000.0, 50.0, "sched.gremio_ms"), false),
            Ok(true)
        );
    }
}
