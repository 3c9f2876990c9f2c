//! `raa-par` — a deterministic work-pool for whole-compile fan-out.
//!
//! Every compile runs on its calling thread. What fans out is whole
//! compiles: a bench suite's benchmarks, or the leader jobs of one
//! `raa-serve` batch. This crate provides the one primitive both are
//! built from: a *wave* — an indexed scatter of independent jobs over a
//! fixed set of workers, followed by an ordered gather that returns
//! results **in submission order**, no matter which worker finished
//! first.
//!
//! # Determinism model
//!
//! A [`WorkPool`] is a capacity descriptor (worker count), not a set of
//! live threads; [`WorkPool::map_isolated`] spawns scoped workers per
//! wave and joins them before returning, so a wave holds no state
//! beyond its own stack frame and pools nest freely. The contract each
//! caller must uphold, and the pool then guarantees:
//!
//! - **Independent jobs.** `f(i, &jobs[i])` may read shared state but
//!   must not mutate anything another job observes during the wave.
//! - **Indexed scatter.** Job `i` is identified by its submission
//!   index; which worker runs it is unobservable.
//! - **Ordered gather.** Results come back as `out[i] = f(i,
//!   &jobs[i])`, identical to the sequential loop.
//!
//! With one worker, or fewer than two jobs, a wave *is* the sequential
//! loop on the calling thread.
//!
//! # Telemetry
//!
//! Workers are fresh threads with no `raa-trace` session: a job that
//! wants telemetry opens its own session (as `atomique::compile` does
//! when its config enables tracing), so concurrent jobs never share a
//! counter. The caller's session records only the wave's `par.<label>`
//! span.
//!
//! Panics in a job propagate to the caller with the original payload
//! after the remaining workers drain.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::panic::resume_unwind;

/// A deterministic work-pool: a fixed worker count and the wave that
/// scatters jobs over it. Cheap to construct and copy — workers are
/// scoped to each wave, so a pool held by a long-lived structure costs
/// nothing between waves and can be reused across any number of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkPool {
    threads: usize,
}

impl WorkPool {
    /// A pool with `threads` workers; 0 is clamped to 1.
    pub fn new(threads: usize) -> WorkPool {
        WorkPool {
            threads: threads.max(1),
        }
    }

    /// Runs one wave of *self-contained* jobs, returning results in
    /// submission order. Each job manages its own `raa-trace` session
    /// (the whole-compile fan-out case), so every job runs on a freshly
    /// spawned thread with **no** session attached, and nothing merges
    /// into the caller's session beyond the `par.<label>` wave span.
    ///
    /// With one worker or fewer than two jobs this is exactly the
    /// sequential loop `jobs.iter().enumerate().map(..).collect()` on
    /// the calling thread.
    pub fn map_isolated<I, O, F>(&self, label: &'static str, jobs: &[I], f: F) -> Vec<O>
    where
        I: Sync,
        O: Send,
        F: Fn(usize, &I) -> O + Sync,
    {
        if self.threads == 1 || jobs.len() <= 1 {
            return jobs.iter().enumerate().map(|(i, job)| f(i, job)).collect();
        }
        let _wave = raa_trace::span(label);
        let workers = self.threads.min(jobs.len());
        let per = jobs.len().div_ceil(workers);
        let gathered = std::thread::scope(|scope| {
            let f = &f;
            let handles: Vec<_> = (0..workers)
                .map(|w| scope.spawn(move || run_range(w * per, per, jobs, f)))
                .collect();
            let mut gathered = Vec::with_capacity(workers);
            for handle in handles {
                match handle.join() {
                    Ok(results) => gathered.push(results),
                    Err(payload) => resume_unwind(payload),
                }
            }
            gathered
        });
        ordered(jobs.len(), gathered)
    }
}

/// Runs the contiguous chunk `[start, start + len)` (clamped to the job
/// list), tagging each result with its submission index.
///
/// This is the per-worker seam for the `par.worker` fault point: an
/// armed `raa-fault` schedule can delay a chunk or kill it outright.
/// `error` escalates to a panic here — a worker has no error channel,
/// and the wave's join/`resume_unwind` path is exactly what the chaos
/// suite needs to exercise. The sequential fast path in
/// [`WorkPool::map_isolated`] (one worker or ≤ 1 job) deliberately
/// bypasses the seam: it is the reference loop outputs are compared
/// against.
fn run_range<I, O, F>(start: usize, len: usize, jobs: &[I], f: &F) -> Vec<(usize, O)>
where
    F: Fn(usize, &I) -> O,
{
    match raa_fault::evaluate("par.worker") {
        raa_fault::Action::None | raa_fault::Action::Deadline => {}
        raa_fault::Action::Delay(d) => std::thread::sleep(d),
        raa_fault::Action::Error | raa_fault::Action::Panic => {
            panic!("injected fault at par.worker")
        }
    }
    let end = (start + len).min(jobs.len());
    let start = start.min(end);
    (start..end).map(|i| (i, f(i, &jobs[i]))).collect()
}

/// Scatters per-worker `(index, result)` batches into submission order.
fn ordered<O>(n: usize, gathered: Vec<Vec<(usize, O)>>) -> Vec<O> {
    let mut out: Vec<Option<O>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    for (i, result) in gathered.into_iter().flatten() {
        debug_assert!(out[i].is_none(), "job {i} produced two results");
        out[i] = Some(result);
    }
    out.into_iter()
        .map(|slot| slot.expect("ordered gather: every job produces exactly one result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_pool_is_the_plain_loop() {
        let pool = WorkPool::new(1);
        let out = pool.map_isolated("par.test", &[1, 2, 3], |i, x| i as i32 * 10 + x);
        assert_eq!(out, vec![1, 12, 23]);
    }

    #[test]
    fn zero_threads_clamp_to_one() {
        // A zero-worker pool is the one-worker pool: every job runs on
        // the calling thread.
        assert_eq!(WorkPool::new(0), WorkPool::new(1));
        let caller = std::thread::current().id();
        let ran_on =
            WorkPool::new(0).map_isolated("par.test", &[0; 5], |_, _| std::thread::current().id());
        assert_eq!(ran_on, vec![caller; 5]);
    }

    #[test]
    fn parallel_map_preserves_submission_order() {
        let pool = WorkPool::new(4);
        let jobs: Vec<usize> = (0..37).collect();
        let out = pool.map_isolated("par.test", &jobs, |_, &x| x * x);
        assert_eq!(out, jobs.iter().map(|x| x * x).collect::<Vec<_>>());
    }
}
