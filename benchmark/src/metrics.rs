//! Every metric the benchmark reports: name, unit, direction, bound,
//! and the workloads that measure it. `BENCHMARK.json` lists the same
//! names; a unit test keeps the two in step.

use crate::workloads::{COMPILE_ONLY, EVAL_FULL, EVAL_QUICK, EXEC_ONLY, EXEC_TRACED, FUZZ_DIFF};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Group {
    /// Defined on every workload, never 0: printed with `--trace 0`,
    /// listed under `end_to_end` in `BENCHMARK.json` and gated by the
    /// driver.
    EndToEnd,
    /// Printed with `--trace 1` and listed under `per_layer`: the layer
    /// ledger, and the end-to-end metrics that exist only on some
    /// workloads or are 0 when all is well. `compare` gates those that
    /// have a bound; the quality counts among them are also held to
    /// `expected/counts.txt` by every run.
    Layer,
}

/// One metric.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub group: Group,
    /// Share by which the metric may get worse before `compare` calls
    /// it a regression; `None` for layer metrics, which are evidence,
    /// not gates.
    pub bound: Option<f64>,
    /// An absolute worsening up to this is never a regression.
    pub floor: f64,
    /// A count that must repeat exactly between runs of one commit.
    pub exact: bool,
    /// Workloads that measure it; elsewhere it is reported as 0.
    pub on: &'static [&'static str],
}

const ALL: &[&str] = &[
    EVAL_FULL,
    EVAL_QUICK,
    COMPILE_ONLY,
    EXEC_ONLY,
    EXEC_TRACED,
    FUZZ_DIFF,
];
const KERNELS: &[&str] = &[EVAL_FULL, EVAL_QUICK, COMPILE_ONLY, EXEC_ONLY, EXEC_TRACED];
const EVAL: &[&str] = &[EVAL_FULL, EVAL_QUICK];
const EXEC: &[&str] = &[EXEC_ONLY, EXEC_TRACED];
const COMPILE: &[&str] = &[COMPILE_ONLY];
const UNTRACED: &[&str] = &[EXEC_ONLY];
const TRACED: &[&str] = &[EXEC_TRACED];
const FUZZ: &[&str] = &[FUZZ_DIFF];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        group: Group::EndToEnd,
        bound: Some(bound),
        floor: 0.0,
        exact: false,
        on: ALL,
    }
}

const fn quality(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
    on: &'static [&'static str],
) -> Metric {
    Metric {
        name,
        unit,
        better,
        group: Group::Layer,
        bound: Some(bound),
        floor: 0.0,
        exact,
        on,
    }
}

const fn time(
    name: &'static str,
    unit: &'static str,
    better: Better,
    on: &'static [&'static str],
) -> Metric {
    Metric {
        name,
        unit,
        better,
        group: Group::Layer,
        bound: None,
        floor: 0.0,
        exact: false,
        on,
    }
}

const fn count(
    name: &'static str,
    unit: &'static str,
    better: Better,
    on: &'static [&'static str],
) -> Metric {
    Metric {
        name,
        unit,
        better,
        group: Group::Layer,
        bound: None,
        floor: 0.0,
        exact: true,
        on,
    }
}

use Better::{Higher, Lower};

/// The registry, in report order.
pub const METRICS: &[Metric] = &[
    // End to end, on every workload. An op's time is its fastest
    // sample over the passes.
    e2e("ops_per_s", "op/s", Higher, 0.25),
    e2e("op_best_ms_median", "ms", Lower, 0.25),
    e2e("op_best_ms_max", "ms", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.15),
    Metric {
        floor: 0.05,
        ..e2e("setup_s", "s", Lower, 0.25)
    },
    Metric {
        exact: true,
        ..e2e("sim_cycles_total", "cycles", Lower, 0.01)
    },
    // End to end, on the workloads that produce them.
    quality("failed_ops_pct", "%", Lower, 0.0, true, ALL),
    quality("sim_minstr_per_s", "Minstr/s", Higher, 0.10, false, EXEC),
    quality(
        "geomean_speedup",
        "x",
        Higher,
        0.01,
        true,
        &[EVAL_FULL, EVAL_QUICK, EXEC_ONLY],
    ),
    quality("comm_instrs_total", "instrs", Lower, 0.01, true, KERNELS),
    quality("static_instrs_total", "instrs", Lower, 0.01, true, COMPILE),
    // Percentiles over every per-op sample of every timed pass: what a
    // burst on the host and an intermittent slow path both move, so
    // they are reported, not gated.
    time("op_ms_p50", "ms", Lower, ALL),
    time("op_ms_p95", "ms", Lower, ALL),
    // gmt-workloads
    time("workloads.catalog_ms", "ms", Lower, KERNELS),
    time("workloads.train_ms", "ms", Lower, KERNELS),
    // gmt-ir
    time("ir.st_interp_ms", "ms", Lower, UNTRACED),
    time("ir.st_interp_minstr_per_s", "Minstr/s", Higher, UNTRACED),
    time("ir.mt_interp_ms", "ms", Lower, UNTRACED),
    time("ir.mt_interp_minstr_per_s", "Minstr/s", Higher, UNTRACED),
    count("ir.dyn_instrs", "instrs", Lower, UNTRACED),
    time("ir.decode_ms", "ms", Lower, COMPILE),
    count("ir.decode_ops", "ops", Lower, COMPILE),
    // gmt-pdg
    time("pdg.build_ms", "ms", Lower, COMPILE),
    count("pdg.nodes", "nodes", Lower, COMPILE),
    count("pdg.arcs", "arcs", Lower, COMPILE),
    // gmt-sched
    time("sched.gremio_ms", "ms", Lower, COMPILE),
    time("sched.gremio_n4_ms", "ms", Lower, COMPILE),
    count("sched.gremio_candidates", "count", Lower, COMPILE),
    time("sched.dswp_ms", "ms", Lower, COMPILE),
    time("sched.dswp_n4_ms", "ms", Lower, COMPILE),
    count("sched.cut_deps", "deps", Lower, COMPILE),
    // gmt-mtcg
    time("mtcg.plan_ms", "ms", Lower, COMPILE),
    time("mtcg.codegen_ms", "ms", Lower, COMPILE),
    time("mtcg.alloc_depths_ms", "ms", Lower, COMPILE),
    count("mtcg.queues", "queues", Lower, COMPILE),
    count("mtcg.static_comm_instrs", "instrs", Lower, COMPILE),
    // gmt-core
    time("core.coco_ms", "ms", Lower, COMPILE),
    count("core.coco_iterations", "count", Lower, COMPILE),
    count("core.coco_cut_success_pct", "%", Higher, COMPILE),
    count("core.coco_comm_reduction_pct", "%", Higher, COMPILE),
    time("core.parallelize_other_ms", "ms", Lower, COMPILE),
    time("core.verify_mt_ms", "ms", Lower, COMPILE),
    count("core.verify_mt_violations", "count", Lower, COMPILE),
    // gmt-graph
    time("graph.mincut_ms", "ms", Lower, COMPILE),
    // gmt-sim
    time("sim.run_ms", "ms", Lower, UNTRACED),
    time("sim.seq_run_ms", "ms", Lower, UNTRACED),
    time("sim.noskip_ms", "ms", Lower, UNTRACED),
    time("sim.ns_per_step", "ns", Lower, UNTRACED),
    count("sim.engine_steps", "steps", Lower, UNTRACED),
    count("sim.skipped_cycles", "cycles", Higher, UNTRACED),
    count("sim.skip_pct", "%", Higher, UNTRACED),
    count("sim.cycles", "cycles", Lower, UNTRACED),
    count("sim.stall_cycles", "cycles", Lower, UNTRACED),
    count("sim.l1_hit_pct", "%", Higher, UNTRACED),
    time("sim.agg_ms", "ms", Lower, TRACED),
    time("sim.agg_overhead_x", "x", Lower, TRACED),
    time("sim.critpath_ms", "ms", Lower, TRACED),
    time("sim.critpath_overhead_x", "x", Lower, TRACED),
    count("sim.critpath_nodes", "nodes", Lower, TRACED),
    time("sim.chrome_ms", "ms", Lower, TRACED),
    count("sim.chrome_bytes", "bytes", Lower, TRACED),
    count("sim.dropped_events", "events", Lower, TRACED),
    // gmt-fuzz
    time("fuzz.gen_ms", "ms", Lower, FUZZ),
    time("fuzz.oracle_ms", "ms", Lower, FUZZ),
    count("fuzz.rejected", "cases", Lower, FUZZ),
    count("fuzz.findings", "cases", Lower, FUZZ),
    count("fuzz.seq_steps", "instrs", Lower, FUZZ),
    // gmt-harness
    time("harness.evaluate_ms", "ms", Lower, EVAL),
    time("harness.compile_ms", "ms", Lower, EVAL),
    time("harness.exec_ms", "ms", Lower, EVAL),
    time("harness.arb_ms", "ms", Lower, EVAL),
    count("harness.arb_probes", "probes", Lower, EVAL),
    count("harness.arb_hits", "probes", Higher, EVAL),
    count("harness.arb_hit_pct", "%", Higher, EVAL),
    time("harness.verify_matrix_ms", "ms", Lower, &[EVAL_QUICK]),
    time("harness.explain_ms", "ms", Lower, &[EVAL_QUICK]),
    // The benchmark itself: how far to trust the rest.
    time("bench.trace_overhead_pct", "%", Lower, ALL),
    time("bench.pass_cv_pct", "%", Lower, ALL),
];

/// The metrics of one group, in report order.
pub fn group(g: Group) -> impl Iterator<Item = &'static Metric> {
    METRICS.iter().filter(move |m| m.group == g)
}

pub fn find(name: &str) -> Option<&'static Metric> {
    METRICS.iter().find(|m| m.name == name)
}

impl Metric {
    pub fn measured_on(&self, workload: &str) -> bool {
        self.on.contains(&workload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    fn listed(doc: &Json, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        let Some(Json::Arr(items)) = doc.get(key) else {
            panic!("{key} missing")
        };
        items
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).unwrap().to_string(),
                    m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                    m.get("better").and_then(Json::as_str).unwrap().to_string(),
                    m.get("bound").and_then(Json::as_f64),
                )
            })
            .collect()
    }

    fn registered(g: Group) -> Vec<(String, String, String, Option<f64>)> {
        group(g)
            .map(|m| {
                let better = if m.better == Higher {
                    "higher"
                } else {
                    "lower"
                };
                let bound = if g == Group::EndToEnd { m.bound } else { None };
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    better.to_string(),
                    bound,
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_registry() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        assert_eq!(listed(&doc, "end_to_end"), registered(Group::EndToEnd));
        assert_eq!(listed(&doc, "per_layer"), registered(Group::Layer));
        let Some(Json::Arr(w)) = doc.get("workloads") else {
            panic!("workloads missing")
        };
        let names: Vec<&str> = w
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(names, crate::workloads::ALL);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for m in METRICS {
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(m.bound.is_none_or(|b| b <= 0.25));
        }
        assert!(group(Group::Layer).count() <= 128);
        assert!(find("setup_s").is_some_and(|m| m.unit == "s" && m.better == Lower));
    }
}
