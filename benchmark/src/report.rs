//! The human-facing side: one workload's metrics as a table, all six
//! workloads each in a process of its own, and the pinned-output
//! generator.

use crate::api;
use crate::json::{self, Json};
use crate::metrics;
use crate::oracle;
use crate::run::{self, Outcome};
use crate::workloads;
use std::fmt::Write as _;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Prints one workload's metrics by name, with units.
pub fn print_outcome(workload: &str, outcome: &Outcome) {
    println!("== {workload}");
    for (name, value) in &outcome.metrics {
        let m = metrics::find(name).expect("outcome metrics come from the registry");
        if m.measured_on(workload) {
            println!("{name:<30} {value:>18.4} {}", m.unit);
        } else {
            println!("{name:<30} {:>18} {}", "n/a", m.unit);
        }
    }
    println!("{:<30} {:>18}", "attempted", outcome.attempted);
    println!("{:<30} {:>18}", "failed", outcome.failed);
    for f in &outcome.failures {
        println!("FAILED: {f}");
    }
    for n in &outcome.notes {
        println!("{n}");
    }
}

fn command_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// Runs this executable on one workload and returns what its result
/// line says.
fn child(workload: &str, seconds: f64, trace: bool, smoke: bool) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload]).args([
        "--seconds",
        &seconds.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    if smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    // Everything but the result line is the child's own table.
    let (table, line) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    println!("{table}");
    let line = json::parse(line)
        .map_err(|e| format!("{workload}: no result line ({e}); exit {}", output.status))?;
    let count = |key: &str| line.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
    let value = |name: &str| line.get("metrics")?.get(name)?.get("value")?.as_f64();
    Ok(Outcome {
        attempted: count("attempted"),
        failed: count("failed"),
        metrics: metrics::METRICS
            .iter()
            .filter_map(|m| Some((m.name, value(m.name)?)))
            .collect(),
        ..Outcome::default()
    })
}

/// Runs all six workloads, each in its own process so that
/// `peak_rss_mb` is per workload, prints every metric and writes the
/// report `compare` reads.
///
/// # Errors
///
/// A child that printed no result line, or an unwritable report.
pub fn run_all(seconds: f64, smoke: bool, out: Option<&str>) -> Result<bool, String> {
    let started = Instant::now();
    let mut correct = true;
    let mut body = String::new();
    for workload in workloads::ALL {
        let mut merged = child(workload, seconds, false, smoke)?;
        if !smoke {
            let traced = child(workload, seconds, true, false)?;
            merged.attempted += traced.attempted;
            merged.failed += traced.failed;
            merged.metrics.extend(traced.metrics);
        }
        // Of both children, not of the traced one alone.
        merged.metrics.retain(|(name, _)| *name != "failed_ops_pct");
        merged.metrics.push((
            "failed_ops_pct",
            merged.failed as f64 / merged.attempted.max(1) as f64 * 100.0,
        ));
        correct &= merged.correct();
        let _ = write!(
            body,
            "{}\n    {}: {}",
            if body.is_empty() { "" } else { "," },
            json::quote(workload),
            merged.result_line()
        );
    }
    let wall_s = started.elapsed().as_secs_f64();
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let report = format!(
        "{{\n  \"meta\": {{\"nproc\": {nproc}, \"rustc\": {}, \"commit\": {}, \
         \"seconds\": {seconds}, \"smoke\": {smoke}, \"wall_s\": {wall_s}}},\n  \
         \"workloads\": {{{body}\n  }}\n}}\n",
        json::quote(&command_output("rustc", &["-V"])),
        json::quote(&command_output("git", &["rev-parse", "HEAD"])),
    );
    let path = match out {
        Some(p) => std::path::PathBuf::from(p),
        None => run::out_dir().join("report.json"),
    };
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, report).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "all workloads {} in {wall_s:.1} s on {nproc} CPUs; report written to {}",
        if correct { "correct" } else { "INCORRECT" },
        path.display()
    );
    Ok(correct)
}

/// Prints `expected/outputs.txt` from the single-threaded interpreter.
///
/// # Errors
///
/// A kernel that fails to run.
pub fn print_expected() -> Result<(), String> {
    println!("# Checksum of the single-threaded interpreter's output trace and return");
    println!("# value per kernel and input size (FNV-1a, see src/oracle.rs).");
    println!("# Regenerate with `benchmark expected` after changing a kernel on purpose.");
    for k in api::catalog() {
        for (size, result) in [("train", k.run_train()), ("ref", k.run_ref())] {
            let r = result.map_err(|e| format!("{}/{size}: {e}", k.benchmark))?;
            println!("{} {size} {:#018x}", k.benchmark, oracle::checksum(&r));
        }
    }
    Ok(())
}
