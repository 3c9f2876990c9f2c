//! Cache-key soundness for the batch-compilation engine.
//!
//! The cache key is `(Circuit::stable_hash, AtomiqueConfig::
//! fingerprint)`; these tests pin the two properties that make it
//! sound: *no staleness* (every distinct compilation axis lands in a
//! distinct entry, each matching its own direct compile) and *single
//! flight* (identical concurrent submissions compile exactly once —
//! proven through the `serve.compile` telemetry counter, not just
//! engine bookkeeping). Each entry's telemetry is its own compile's,
//! however many leaders a batch fans out.

use std::sync::{Arc, Barrier};

use atomique::{trace, AtomiqueConfig, CompiledProgram, OptLevel};
use raa_circuit::{Circuit, Gate, Qubit};
use raa_isa::codec;
use raa_serve::engine::{CacheStatus, Engine, Job, ServeConfig};

fn ghz(n: usize) -> Circuit {
    let mut c = Circuit::new(n);
    c.push(Gate::h(Qubit(0)));
    for i in 0..n - 1 {
        c.push(Gate::cx(Qubit(i as u32), Qubit(i as u32 + 1)));
    }
    c
}

fn job(name: &str, circuit: &Circuit) -> Job {
    Job {
        name: name.into(),
        circuit: circuit.clone(),
    }
}

/// Compiles directly (no cache) under the same forced serving flags
/// the engine applies.
fn direct(circuit: &Circuit, cfg: &AtomiqueConfig) -> CompiledProgram {
    let mut cfg = cfg.clone();
    cfg.emit_isa = true;
    cfg.verify_isa = true;
    cfg.trace = true;
    atomique::compile(circuit, &cfg).expect("direct compile failed")
}

/// The verified ISA bytes of [`direct`].
fn direct_bytes(circuit: &Circuit, cfg: &AtomiqueConfig) -> Vec<u8> {
    codec::to_bytes(direct(circuit, cfg).isa.as_ref().expect("isa attached"))
}

/// Distinct configs must never alias: a cache warmed at one opt level
/// serves the *other* level from a different entry, and each entry is
/// bit-identical to its own direct compile.
#[test]
fn distinct_opt_levels_never_serve_stale_entries() {
    let engine = Engine::new(ServeConfig::default());
    let circuit = ghz(5);

    let mut o0 = engine.base().clone();
    o0.opt_level = OptLevel::None;
    let mut o2 = engine.base().clone();
    o2.opt_level = OptLevel::Aggressive;

    let cold0 = engine.submit(&o0, &[job("g", &circuit)]).unwrap();
    let cold2 = engine.submit(&o2, &[job("g", &circuit)]).unwrap();
    let warm0 = engine.submit(&o0, &[job("g", &circuit)]).unwrap();
    let warm2 = engine.submit(&o2, &[job("g", &circuit)]).unwrap();

    // Both configs compiled (no aliasing), both rehits hit.
    assert_eq!(cold0[0].result.as_ref().unwrap().status, CacheStatus::Miss);
    assert_eq!(cold2[0].result.as_ref().unwrap().status, CacheStatus::Miss);
    assert_eq!(warm0[0].result.as_ref().unwrap().status, CacheStatus::Hit);
    assert_eq!(warm2[0].result.as_ref().unwrap().status, CacheStatus::Hit);

    // Each entry matches its own direct compile — never the other's.
    let b0 = &warm0[0].result.as_ref().unwrap().entry.isa_bytes;
    let b2 = &warm2[0].result.as_ref().unwrap().entry.isa_bytes;
    assert_eq!(*b0, direct_bytes(&circuit, &o0));
    assert_eq!(*b2, direct_bytes(&circuit, &o2));
    assert_eq!(engine.stats().compiles, 2);
}

/// Every value of the one per-request compilation axis, the request's
/// `opt_level`, produces its own cache entry: warming one value never
/// hits on another.
#[test]
fn every_override_axis_gets_its_own_entry() {
    let engine = Engine::new(ServeConfig::default());
    let circuit = ghz(4);
    let levels = [OptLevel::None, OptLevel::Basic, OptLevel::Aggressive];
    let configs: Vec<AtomiqueConfig> = levels
        .iter()
        .map(|&opt_level| AtomiqueConfig {
            opt_level,
            ..engine.base().clone()
        })
        .collect();

    for cfg in &configs {
        let out = engine.submit(cfg, &[job("g", &circuit)]).unwrap();
        assert_eq!(out[0].result.as_ref().unwrap().status, CacheStatus::Miss);
    }
    assert_eq!(engine.stats().compiles, 3);
    assert_eq!(engine.stats().cache_entries, 3);
    for cfg in &configs {
        let out = engine.submit(cfg, &[job("g", &circuit)]).unwrap();
        let warm = out[0].result.as_ref().unwrap();
        assert_eq!(warm.status, CacheStatus::Hit);
        assert_eq!(warm.entry.isa_bytes, direct_bytes(&circuit, cfg));
    }
}

/// Two distinct leaders in one batch, submitted from a thread that holds
/// a trace session: each cached entry reports exactly its own compile's
/// counter table, whoever called. On two workers under a `Detail`
/// caller, neither leader's increments bleed into the other's entry or
/// arrive through the caller's session, while the caller's session
/// still counts every compile attempt the engine ran. On one worker
/// under a `Stages` caller, the leaders compile on the calling thread,
/// and their entries still carry their `Detail` counters.
#[test]
fn leader_counters_stay_with_their_own_entry() {
    for (workers, caller_level) in [(2, trace::Level::Detail), (1, trace::Level::Stages)] {
        let engine = Engine::new(ServeConfig {
            workers,
            ..ServeConfig::default()
        });
        let circuits = [ghz(30), ghz(40)];
        let jobs: Vec<Job> = circuits
            .iter()
            .enumerate()
            .map(|(i, c)| job(&format!("ghz{i}"), c))
            .collect();
        let before = engine.stats().compiles;

        trace::begin(caller_level);
        let out = engine.submit(engine.base(), &jobs).unwrap();
        assert_eq!(trace::level(), caller_level);
        let caller = trace::end();

        for (circuit, outcome) in circuits.iter().zip(&out) {
            let result = outcome.result.as_ref().unwrap();
            assert_eq!(result.status, CacheStatus::Miss);
            let own = direct(circuit, engine.base());
            assert!(own.report.counter("route.try_add") > 0);
            assert_eq!(
                result.entry.counters,
                own.report.counters(),
                "{} on {workers} worker(s) under a {caller_level:?} caller: entry counters \
                 differ from its direct compile",
                outcome.name
            );
        }
        let compiles = engine.stats().compiles - before;
        assert_eq!(compiles, 2);
        let expected = if caller_level == trace::Level::Detail {
            compiles
        } else {
            0
        };
        assert_eq!(caller.counter("serve.compile"), expected);
    }
}

/// Eight identical jobs in one batch over four workers: exactly one
/// compile happens, asserted through the `serve.compile` raa-trace
/// counter, which the engine ticks on the submitting thread.
#[test]
fn identical_jobs_within_a_batch_compile_once() {
    let engine = Engine::new(ServeConfig {
        workers: 4,
        ..ServeConfig::default()
    });
    let circuit = ghz(4);
    let jobs: Vec<Job> = (0..8).map(|i| job(&format!("j{i}"), &circuit)).collect();

    trace::begin(trace::Level::Detail);
    let out = engine.submit(engine.base(), &jobs).unwrap();
    let report = trace::end();

    assert_eq!(report.counter("serve.compile"), 1);
    assert_eq!(report.counter("serve.cache.miss"), 1);
    assert_eq!(report.counter("serve.cache.coalesced"), 7);

    let statuses: Vec<CacheStatus> = out
        .iter()
        .map(|o| o.result.as_ref().unwrap().status)
        .collect();
    assert_eq!(statuses[0], CacheStatus::Miss);
    assert!(statuses[1..].iter().all(|&s| s == CacheStatus::Coalesced));

    // All eight results share the same bytes.
    let first = &out[0].result.as_ref().unwrap().entry.isa_bytes;
    for o in &out[1..] {
        assert_eq!(&o.result.as_ref().unwrap().entry.isa_bytes, first);
    }
}

/// Identical submissions racing from different threads coalesce into
/// one compile: the engine's single-flight map makes the loser wait
/// on the winner instead of duplicating the work.
#[test]
fn racing_identical_submissions_compile_once() {
    let engine = Arc::new(Engine::new(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    }));
    let circuit = ghz(5);
    let barrier = Arc::new(Barrier::new(2));

    let threads: Vec<_> = (0..2)
        .map(|i| {
            let engine = engine.clone();
            let circuit = circuit.clone();
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                barrier.wait();
                let out = engine
                    .submit(engine.base(), &[job(&format!("t{i}"), &circuit)])
                    .unwrap();
                out[0].result.as_ref().unwrap().clone()
            })
        })
        .collect();
    let results: Vec<_> = threads.into_iter().map(|t| t.join().unwrap()).collect();

    assert_eq!(engine.stats().compiles, 1, "single flight was violated");
    assert_eq!(results[0].entry.isa_bytes, results[1].entry.isa_bytes);
    // One thread led; the other either coalesced onto the in-flight
    // compile or arrived after publication and hit the cache.
    let leaders = results
        .iter()
        .filter(|r| r.status == CacheStatus::Miss)
        .count();
    assert_eq!(leaders, 1);
}
