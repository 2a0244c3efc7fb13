//! A zero-dependency scoped worker pool with a shared work queue.
//!
//! The experiment matrix behind the paper's figures is embarrassingly
//! parallel — every (benchmark, scheduler, variant) evaluation is
//! independent — so [`par_map`] fans a job list out over
//! `std::thread::scope` workers pulling indices from a shared atomic
//! counter. Results are written into per-index slots, so the returned
//! vector is **always in input order**: callers that format results
//! sequentially produce byte-identical output whether the map ran on
//! one worker or sixteen.
//!
//! The worker count comes from [`num_jobs`]: the `GMT_JOBS` environment
//! variable when set, otherwise
//! [`std::thread::available_parallelism`]. `GMT_JOBS=1` degrades to a
//! plain in-caller serial loop — the reference path the determinism
//! tests compare against. A set-but-invalid `GMT_JOBS` (0, garbage,
//! non-UTF-8) is a configuration error, not a request for the default:
//! [`num_jobs`] prints the problem to stderr and exits 2, so a typo in
//! a CI pipeline cannot silently fan out to full parallelism (see
//! [`parse_jobs`] for the contract and [`num_jobs_checked`] for the
//! non-exiting form).
//!
//! Jobs that can fail should return `Result`: a failing job fills its
//! own slot and the remaining queue keeps draining, so one bad job
//! neither deadlocks the pool nor drops sibling results. (A *panicking*
//! job is also safe — `std::thread::scope` joins every worker before
//! propagating the panic — but turns the whole map into a panic;
//! prefer `Result`.)

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Parses a `GMT_JOBS` value into a worker count.
///
/// The contract: a worker count is a positive decimal integer
/// (surrounding whitespace tolerated). `0` is rejected — a pool with
/// no workers can never drain its queue — and so is anything that does
/// not parse; the caller asked for an explicit count, so a typo must
/// not silently become "whatever the machine has".
///
/// # Errors
///
/// Returns a human-readable description of the rejected value.
pub fn parse_jobs(value: &str) -> Result<usize, String> {
    match value.trim().parse::<usize>() {
        Ok(0) => Err(format!(
            "GMT_JOBS must be at least 1, got `{value}` (unset it to use available parallelism)"
        )),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("GMT_JOBS must be a positive integer, got `{value}`")),
    }
}

/// The worker count: [`parse_jobs`] of the `GMT_JOBS` environment
/// variable when set, otherwise the machine's available parallelism
/// (1 if that cannot be determined).
///
/// # Errors
///
/// Returns the [`parse_jobs`] rejection for a set-but-invalid
/// `GMT_JOBS` (including non-UTF-8 values).
pub fn num_jobs_checked() -> Result<usize, String> {
    match std::env::var("GMT_JOBS") {
        Ok(v) => parse_jobs(&v),
        Err(std::env::VarError::NotPresent) => {
            Ok(std::thread::available_parallelism().map_or(1, |n| n.get()))
        }
        Err(std::env::VarError::NotUnicode(_)) => {
            Err("GMT_JOBS is set but is not valid UTF-8".to_string())
        }
    }
}

/// [`num_jobs_checked`], exiting with status 2 on an invalid
/// `GMT_JOBS` after printing the problem to stderr — the behavior every
/// `GMT_JOBS`-reading binary (`repro`) wants.
pub fn num_jobs() -> usize {
    num_jobs_checked().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

/// Applies `f` to every item on a pool of `jobs` workers and returns
/// the results **in input order**.
///
/// `f` receives the item's index and the item. With `jobs <= 1` (or a
/// single item) the map runs serially in the caller's thread with no
/// pool at all — identical semantics, zero threading.
pub fn par_map<T, R, F>(items: Vec<T>, jobs: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let jobs = jobs.max(1).min(n.max(1));
    if jobs <= 1 {
        return items.into_iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = slots[i]
                    .lock()
                    .expect("pool slot poisoned")
                    .take()
                    .expect("each index is claimed exactly once");
                let r = f(i, item);
                *results[i].lock().expect("pool result slot poisoned") = Some(r);
            });
        }
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("pool result slot poisoned")
                .expect("every claimed index stores a result")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = par_map(items, 8, |i, x| {
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let f = |_i: usize, x: u64| x.wrapping_mul(0x9e3779b97f4a7c15).rotate_left(17);
        let items: Vec<u64> = (0..257).collect();
        let serial = par_map(items.clone(), 1, f);
        let parallel = par_map(items, 13, f);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn erroring_jobs_keep_sibling_results() {
        // A job failing mid-queue must neither deadlock the pool nor
        // drop any sibling result: every slot comes back, errors where
        // the failing jobs ran, values everywhere else.
        let items: Vec<usize> = (0..64).collect();
        let out: Vec<Result<usize, String>> = par_map(items, 4, |_i, x| {
            if x % 7 == 3 {
                Err(format!("job {x} failed"))
            } else {
                Ok(x + 1)
            }
        });
        assert_eq!(out.len(), 64);
        for (i, r) in out.iter().enumerate() {
            if i % 7 == 3 {
                assert_eq!(r.as_ref().unwrap_err(), &format!("job {i} failed"));
            } else {
                assert_eq!(*r, Ok(i + 1));
            }
        }
    }

    #[test]
    fn more_workers_than_items() {
        let out = par_map(vec![1, 2, 3], 64, |_i, x| x * 10);
        assert_eq!(out, vec![10, 20, 30]);
    }

    #[test]
    fn empty_input() {
        let out: Vec<i32> = par_map(Vec::<i32>::new(), 8, |_i, x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn parse_jobs_contract() {
        assert_eq!(parse_jobs("1"), Ok(1));
        assert_eq!(parse_jobs("16"), Ok(16));
        assert_eq!(parse_jobs(" 4 "), Ok(4), "surrounding whitespace tolerated");
        // Pre-fix, all of these silently fell back to full parallelism.
        assert!(parse_jobs("0").unwrap_err().contains("at least 1"));
        assert!(parse_jobs("").unwrap_err().contains("positive integer"));
        assert!(parse_jobs("lots").unwrap_err().contains("positive integer"));
        assert!(parse_jobs("-3").unwrap_err().contains("positive integer"));
        assert!(parse_jobs("1.5").unwrap_err().contains("positive integer"));
    }

    #[test]
    fn num_jobs_checked_reads_env() {
        // Env mutation is process-global; keep every case in one test
        // so parallel test threads cannot interleave observations.
        let saved = std::env::var("GMT_JOBS").ok();
        std::env::set_var("GMT_JOBS", "3");
        assert_eq!(num_jobs_checked(), Ok(3));
        std::env::set_var("GMT_JOBS", "0");
        assert!(num_jobs_checked().is_err(), "explicit zero is rejected, not defaulted");
        std::env::set_var("GMT_JOBS", "garbage");
        assert!(num_jobs_checked().is_err());
        std::env::remove_var("GMT_JOBS");
        assert!(num_jobs_checked().unwrap() >= 1);
        match saved {
            Some(v) => std::env::set_var("GMT_JOBS", v),
            None => std::env::remove_var("GMT_JOBS"),
        }
    }
}
