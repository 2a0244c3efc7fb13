//! The differential fuzzing driver.
//!
//! ```text
//! fuzz [--cases N] [--secs S] [--seed BASE] [--corpus PATH] [--quiet]
//! ```
//!
//! Replays every corpus entry first, then generates fresh cases from
//! the base seed until the case or time budget runs out. Each failure
//! is shrunk greedily, persisted to the corpus, and reported with a
//! one-command repro line. Exit status: 0 clean, 1 findings, 2 usage.
//!
//! `GMT_TESTKIT_SEED=<seed>` runs exactly that one case and prints its
//! full report — the replay path for findings and corpus entries.

use gmt_fuzz::ast::{case_from_seed, FuzzCase};
use gmt_fuzz::oracle::run_case;
use gmt_fuzz::{corpus, fuzz_run, FuzzOptions};
use gmt_testkit::eval_prop;
use std::path::PathBuf;

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: fuzz [--cases N] [--secs S] [--seed BASE] [--corpus PATH] [--quiet]");
    std::process::exit(2)
}

fn parse_args() -> FuzzOptions {
    let mut opts = FuzzOptions::default();
    let mut args = std::env::args().skip(1);
    let mut seen: Vec<String> = Vec::new();
    let once = |flag: &str, seen: &mut Vec<String>| {
        if seen.iter().any(|s| s == flag) {
            usage(&format!("duplicate {flag}"));
        }
        seen.push(flag.to_string());
    };
    while let Some(arg) = args.next() {
        let mut value = |name: &str| -> String {
            args.next().unwrap_or_else(|| usage(&format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--cases" => {
                once("--cases", &mut seen);
                let v = value("--cases");
                opts.cases =
                    Some(v.parse().unwrap_or_else(|_| usage(&format!("bad --cases {v:?}"))));
            }
            "--secs" => {
                once("--secs", &mut seen);
                let v = value("--secs");
                opts.secs =
                    Some(v.parse().unwrap_or_else(|_| usage(&format!("bad --secs {v:?}"))));
            }
            "--seed" => {
                once("--seed", &mut seen);
                let v = value("--seed");
                opts.seed = corpus::parse_seed(&v)
                    .unwrap_or_else(|| usage(&format!("bad --seed {v:?}")));
            }
            "--corpus" => {
                once("--corpus", &mut seen);
                opts.corpus = PathBuf::from(value("--corpus"));
            }
            "--quiet" => {
                once("--quiet", &mut seen);
                opts.quiet = true;
            }
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    opts
}

fn main() {
    let opts = parse_args();

    // Replay: exactly the case `GMT_TESTKIT_SEED` names, verbose, no
    // corpus writes.
    let replay = std::env::var("GMT_TESTKIT_SEED").ok().and_then(|s| corpus::parse_seed(&s));
    if let Some(seed) = replay {
        let case = case_from_seed(seed);
        println!("replaying seed {seed:#x}: {case:#?}");
        match eval_prop(&|c: &FuzzCase| run_case(c), &case) {
            Ok(report) => {
                println!("ok: {report:?}");
                return;
            }
            Err(e) => {
                eprintln!("FAILED: {e}");
                std::process::exit(1);
            }
        }
    }

    let stats = match fuzz_run(&opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    println!("{}", stats.summary());
    if !opts.quiet {
        println!("modes: {}", stats.mode_breakdown());
    }
    if stats.findings > 0 {
        std::process::exit(1);
    }
}
