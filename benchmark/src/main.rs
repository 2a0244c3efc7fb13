//! The repository benchmark. See `README.md` beside the manifest.
//!
//! ```text
//! benchmark run --workload W --seed N --seconds S --trace 0|1   one workload, one result line
//! benchmark run [--seconds S] [--smoke] [--out F]               all six, each in its own process
//! benchmark run --self-test-oracle                              prove the correctness gate can fail
//! benchmark compare A.json B.json [--same-commit]
//! benchmark expected                                            print expected/outputs.txt
//! ```

mod api;
mod compare;
mod json;
mod metrics;
mod oracle;
mod report;
mod run;
mod spans;
mod stats;
mod workloads;

use std::process::ExitCode;

const USAGE: &str = "usage: benchmark run [--workload W] [--seed N] [--seconds S] \
[--trace 0|1] [--smoke] [--out FILE] [--self-test-oracle]\n       benchmark compare A.json B.json \
[--same-commit]\n       benchmark expected";

/// Flags of `run`.
struct RunArgs {
    workload: Option<String>,
    seconds: f64,
    trace: bool,
    smoke: bool,
    self_test_oracle: bool,
    out: Option<String>,
}

fn parse_u64(flag: &str, v: &str) -> Result<u64, String> {
    let parsed = match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    };
    parsed.map_err(|e| format!("{flag} {v}: {e}"))
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut r = RunArgs {
        workload: None,
        seconds: 15.0,
        trace: false,
        smoke: false,
        self_test_oracle: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => r.workload = Some(value()?.clone()),
            // The driver passes one. No input depends on it: the kernels
            // and their inputs are the paper's, and the fuzz population
            // is a constant.
            "--seed" => {
                parse_u64(flag, value()?)?;
            }
            "--seconds" => {
                let v = value()?;
                r.seconds = v.parse().map_err(|e| format!("{flag} {v}: {e}"))?;
                if !(r.seconds > 0.0 && r.seconds <= 600.0) {
                    return Err(format!("{flag} {v}: must be in (0, 600]"));
                }
            }
            "--trace" => {
                r.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("{flag} {v}: must be 0 or 1")),
                }
            }
            "--smoke" => r.smoke = true,
            "--self-test-oracle" => r.self_test_oracle = true,
            "--out" => r.out = Some(value()?.clone()),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    Ok(r)
}

fn run_command(args: &[String]) -> Result<bool, String> {
    let a = parse_run(args)?;
    let config = |workload: &str| run::Config {
        workload: workload.to_string(),
        seconds: a.seconds,
        trace: a.trace,
        smoke: a.smoke,
        plant_mismatch: a.self_test_oracle,
    };
    if a.self_test_oracle {
        // A run whose pinned checksums are wrong must report failures.
        let mut cfg = config(a.workload.as_deref().unwrap_or(workloads::EVAL_QUICK));
        cfg.smoke = true;
        cfg.trace = false;
        let outcome = run::run(&cfg)?;
        for f in &outcome.failures {
            println!("planted: {f}");
        }
        println!(
            "oracle self-test: {} of {} checks failed with one pinned checksum flipped: {}",
            outcome.failed,
            outcome.attempted,
            if outcome.correct() {
                "NOT DETECTED"
            } else {
                "detected"
            }
        );
        return Ok(!outcome.correct());
    }
    match &a.workload {
        Some(w) => {
            let outcome = run::run(&config(w))?;
            report::print_outcome(w, &outcome);
            println!("{}", outcome.result_line());
            Ok(outcome.correct())
        }
        None => report::run_all(a.seconds, a.smoke, a.out.as_deref()),
    }
}

fn compare_command(args: &[String]) -> Result<bool, String> {
    let same_commit = args.iter().any(|a| a == "--same-commit");
    let files: Vec<&String> = args.iter().filter(|a| *a != "--same-commit").collect();
    let [a, b] = files[..] else {
        return Err(USAGE.to_string());
    };
    let load = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    compare::compare(&load(a)?, &load(b)?, same_commit)
}

fn main() -> ExitCode {
    // The harness and the fuzz oracle still read these; a stray value
    // would change what is measured.
    for (key, _) in std::env::vars_os() {
        let k = key.to_string_lossy();
        if k == "GMT_JOBS" || k == "GMT_SIM_SKIP" || k.starts_with("GMT_TESTKIT_") {
            std::env::remove_var(&key);
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let done = match args.first().map(String::as_str) {
        Some("run") => run_command(&args[1..]),
        Some("compare") => compare_command(&args[1..]),
        Some("expected") => report::print_expected().map(|()| true),
        _ => Err(USAGE.to_string()),
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
