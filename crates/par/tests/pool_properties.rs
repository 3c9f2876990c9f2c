//! Pool determinism properties, the foundation whole-compile fan-out
//! (bench suites, serve batches) rests on: randomized job sets with
//! injected artificial delays (so completion order is adversarially
//! permuted) must gather to the same merged output at every worker
//! count, a panic in any worker must propagate to the submitter with
//! its original payload, and one pool must be reusable across many
//! waves — including nested waves — without leaking state between
//! them.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use raa_par::WorkPool;
use rand::{rngs::StdRng, RngExt, SeedableRng};

/// A job whose artificial delay decouples completion order from
/// submission order: with delays drawn at random, later-submitted jobs
/// routinely finish first, so any gather that depended on completion
/// order would scramble.
#[derive(Clone)]
struct DelayedJob {
    value: u64,
    delay_us: u64,
}

fn random_jobs(rng: &mut StdRng, n: usize) -> Vec<DelayedJob> {
    (0..n)
        .map(|_| DelayedJob {
            value: rng.random_range(0..1_000_000),
            delay_us: rng.random_range(0..400),
        })
        .collect()
}

fn run_wave(pool: &WorkPool, jobs: &[DelayedJob]) -> Vec<u64> {
    pool.map_isolated("par.test", jobs, |i, job| {
        std::thread::sleep(Duration::from_micros(job.delay_us));
        job.value.wrapping_mul(31).wrapping_add(i as u64)
    })
}

/// Ordered-gather determinism: for random job sets with random delays,
/// the merged output is identical across worker counts 1/2/4/8 and
/// across repeated runs (each run scrambles completion order anew).
#[test]
fn ordered_gather_is_invariant_under_completion_order() {
    let mut rng = StdRng::seed_from_u64(7);
    for round in 0..6 {
        let jobs = random_jobs(&mut rng, 5 + round * 17);
        let baseline = run_wave(&WorkPool::new(1), &jobs);
        for threads in [2, 4, 8] {
            let pool = WorkPool::new(threads);
            for repeat in 0..3 {
                assert_eq!(
                    run_wave(&pool, &jobs),
                    baseline,
                    "round {round}, {threads} threads, repeat {repeat}"
                );
            }
        }
    }
}

/// A panicking job aborts the wave and re-raises on the submitting
/// thread with the worker's original payload; the pool (a value type)
/// remains usable for the next wave.
#[test]
fn worker_panic_propagates_with_payload() {
    let pool = WorkPool::new(4);
    let jobs: Vec<usize> = (0..32).collect();
    let result = catch_unwind(AssertUnwindSafe(|| {
        pool.map_isolated("par.test", &jobs, |_, &x| {
            if x == 19 {
                panic!("job 19 exploded");
            }
            x * 2
        })
    }));
    let payload = result.expect_err("wave must propagate the worker panic");
    let message = payload
        .downcast_ref::<&str>()
        .copied()
        .map(str::to_string)
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    assert_eq!(message, "job 19 exploded");
    // The pool is still good: the next wave runs clean.
    assert_eq!(
        pool.map_isolated("par.test", &[5, 6], |_, &x| x + 1),
        vec![6, 7]
    );
}

/// One pool across many waves: results never bleed between waves.
#[test]
fn pool_reuse_across_waves_is_stateless() {
    let pool = WorkPool::new(3);
    let mut rng = StdRng::seed_from_u64(23);
    for wave in 0..25u64 {
        let jobs: Vec<u64> = (0..rng.random_range(1..40u64)).collect();
        let out = pool.map_isolated("par.test", &jobs, |_, &x| x + wave);
        assert_eq!(out, jobs.iter().map(|x| x + wave).collect::<Vec<_>>());
    }
}

/// Nested pools (a job that itself opens a pool) complete without
/// deadlock and gather deterministically.
#[test]
fn nested_waves_gather_deterministically() {
    let outer = WorkPool::new(4);
    let jobs: Vec<u64> = (0..12).collect();
    let expect: Vec<u64> = jobs.iter().map(|o| (0..20).map(|i| o * i).sum()).collect();
    for _ in 0..3 {
        let out = outer.map_isolated("par.outer", &jobs, |_, &o| {
            let inner = WorkPool::new(2);
            let inner_jobs: Vec<u64> = (0..20).collect();
            inner
                .map_isolated("par.inner", &inner_jobs, |_, &i| o * i)
                .into_iter()
                .sum::<u64>()
        });
        assert_eq!(out, expect);
    }
}

/// Every job runs exactly once per wave, whatever the worker count.
#[test]
fn each_job_runs_exactly_once() {
    for threads in [1, 2, 4, 8] {
        let pool = WorkPool::new(threads);
        let ran = AtomicUsize::new(0);
        let jobs: Vec<usize> = (0..97).collect();
        let out = pool.map_isolated("par.test", &jobs, |i, &x| {
            ran.fetch_add(1, Ordering::Relaxed);
            assert_eq!(i, x);
            x
        });
        assert_eq!(ran.load(Ordering::Relaxed), jobs.len());
        assert_eq!(out, jobs);
    }
}

/// Workers start with no trace session: a job's counters land in the
/// session the job opens itself, never in the submitter's, which
/// records only the wave span.
#[test]
fn workers_record_nothing_into_the_callers_session() {
    static TICKS: raa_trace::Counter = raa_trace::Counter::new("par.test.ticks");
    raa_trace::begin(raa_trace::Level::Detail);
    let jobs: Vec<u64> = (1..=4).collect();
    let own = WorkPool::new(2).map_isolated("par.test", &jobs, |_, &n| {
        TICKS.add(100);
        raa_trace::begin(raa_trace::Level::Detail);
        TICKS.add(n);
        raa_trace::end().counter("par.test.ticks")
    });
    let caller = raa_trace::end();
    assert_eq!(own, jobs);
    assert_eq!(caller.counter("par.test.ticks"), 0);
    assert_eq!(caller.spans.len(), 1);
    assert_eq!(caller.spans[0].name, "par.test");
}
