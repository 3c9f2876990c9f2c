//! Chaos gate: the serve/compile stack under deterministic fault
//! injection (`raa-fault`).
//!
//! Three properties turn "the service survived chaos" into a
//! regression test:
//!
//! 1. **Termination** — under every pinned fault schedule, every
//!    request gets a terminal response (a payload or a typed error) —
//!    no follower deadlocks, no wedged flights, no hung connections.
//! 2. **Bit-identity when healthy** — with faults disabled the served
//!    ISA bytes are identical to a direct in-process
//!    `atomique::compile`, and a leader that failed leaves nothing
//!    behind: the next identical request compiles fresh.
//! 3. **Determinism** — the same `RAA_FAULT_SPEC` (same seed)
//!    reproduces the identical fault sequence, identical per-point
//!    counter totals, and identical request outcomes across runs.
//!
//! The fault schedule is process-global, so every test here serializes
//! on one mutex and disarms on exit; this suite is the *only* test
//! binary that ever arms a schedule.

use std::sync::{Mutex, MutexGuard, Once};

use atomique::{AtomiqueConfig, OptLevel};
use raa_circuit::{qasm, Circuit, Gate, Qubit};
use raa_isa::{codec, json};
use raa_serve::engine::{CacheStatus, Engine, Job, ServeConfig};
use raa_serve::{b64, http, request, ServeError};

static FAULTS: Mutex<()> = Mutex::new(());

/// Serializes fault-arming tests and guarantees a disarm on exit (even
/// when an assertion fails, via `Drop`). A poisoned mutex only means a
/// previous test failed — the schedule is reconfigured from scratch
/// here, so recovering the lock is safe.
struct Armed(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Armed {
    fn new(spec: &str) -> Armed {
        quiet_injected_panics();
        let guard = FAULTS.lock().unwrap_or_else(|p| p.into_inner());
        raa_fault::configure(spec).expect("valid fault spec");
        Armed(guard)
    }
}

impl Drop for Armed {
    fn drop(&mut self) {
        raa_fault::disarm();
    }
}

/// Injected panics are *expected* here; keep them out of the test
/// output so a real failure stays visible. Anything else still goes to
/// the default hook.
fn quiet_injected_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let message = info
                .payload()
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| info.payload().downcast_ref::<String>().map(String::as_str))
                .unwrap_or("");
            if message.contains("injected fault") {
                return;
            }
            previous(info);
        }));
    });
}

fn ghz(n: usize) -> Circuit {
    let mut c = Circuit::new(n);
    c.push(Gate::h(Qubit(0)));
    for i in 0..n - 1 {
        c.push(Gate::cx(Qubit(i as u32), Qubit(i as u32 + 1)));
    }
    c
}

fn job(name: &str, circuit: Circuit) -> Job {
    Job {
        name: name.into(),
        circuit,
    }
}

/// Direct in-process reference compile under the serving flags.
fn direct_bytes(circuit: &Circuit, cfg: &AtomiqueConfig) -> Vec<u8> {
    let cfg = AtomiqueConfig {
        emit_isa: true,
        verify_isa: true,
        trace: true,
        ..cfg.clone()
    };
    let out = atomique::compile(circuit, &cfg).expect("direct compile");
    codec::to_bytes(out.isa.as_ref().expect("isa attached"))
}

// ---------------------------------------------------------------------
// Determinism: same spec, same seed → same everything
// ---------------------------------------------------------------------

/// One run's complete observable signature: per-job outcomes (cache
/// status or error kind), the fault registry's per-point hit/fired
/// totals, and the engine's compile and deadline counters.
#[derive(Debug, PartialEq)]
struct RunSignature {
    outcomes: Vec<String>,
    fault_stats: Vec<(String, raa_fault::PointStats)>,
    engine: (u64, u64),
}

/// Runs a fixed mixed workload on a fresh engine under `spec`
/// (re-arming resets the fault counters to zero).
fn chaos_workload(spec: &str) -> RunSignature {
    raa_fault::configure(spec).expect("valid fault spec");
    let engine = Engine::new(ServeConfig::default());
    // -O2 runs every stage, `opt` included; one worker (the default)
    // keeps the whole run on one thread end to end.
    let cfg = AtomiqueConfig {
        opt_level: OptLevel::Aggressive,
        ..AtomiqueConfig::default()
    };
    let jobs: Vec<Job> = (3..9).map(|n| job(&format!("ghz{n}"), ghz(n))).collect();
    let mut outcomes = Vec::new();
    for round in 0..2 {
        let out = engine.submit(&cfg, &jobs).expect("batch admitted");
        for o in out {
            outcomes.push(match &o.result {
                Ok(r) => format!("{round}/{}:{}", o.name, r.status.as_str()),
                Err(e) => format!("{round}/{}:err:{}", o.name, e.kind()),
            });
        }
    }
    let s = engine.stats();
    RunSignature {
        outcomes,
        fault_stats: raa_fault::stats(),
        engine: (s.compiles, s.deadline_exceeded),
    }
}

/// Acceptance gate: the same `RAA_FAULT_SPEC` seed reproduces the
/// identical fault sequence and identical counter totals across two
/// runs — probability triggers included, because they are pure
/// functions of `(seed, point, hit index)`.
#[test]
fn same_spec_and_seed_reproduce_identical_fault_sequences() {
    let spec = "serve.compile:error@0.35;seed=20240808";
    let _armed = Armed::new(spec);
    let first = chaos_workload(spec);
    let second = chaos_workload(spec);
    assert_eq!(first, second, "fault injection is not deterministic");
    // The schedule actually did something: this spec fires on this
    // workload (a fixed fact of the seed, pinned here so the gate
    // cannot silently degenerate into comparing two healthy runs).
    assert!(
        first.fault_stats.iter().any(|(_, s)| s.fired > 0),
        "spec never fired: {:?}",
        first.fault_stats
    );
    // A different seed produces a different firing pattern.
    let reseeded = chaos_workload("serve.compile:error@0.35;seed=7");
    assert_ne!(
        first.fault_stats, reseeded.fault_stats,
        "reseeding changed nothing — probability triggers are not seeded"
    );
}

// ---------------------------------------------------------------------
// Single-flight under leader panic (the bugfix-sweep satellite)
// ---------------------------------------------------------------------

/// A leader panic is caught and surfaces as that job's error after one
/// compile — and the *next* identical request must not see a poisoned
/// `CacheEntry` or a wedged flight: it recompiles fresh and succeeds.
#[test]
fn failed_leader_leaves_nothing_poisoned_for_the_next_request() {
    let _armed = Armed::new("serve.compile:panic@1;seed=1");
    let engine = Engine::new(ServeConfig::default());
    let cfg = engine.base().clone();
    let out = engine.submit(&cfg, &[job("ghz", ghz(4))]).unwrap();
    match out[0].result.as_ref() {
        Err(ServeError::Compile { message }) => {
            assert!(message.contains("panicked"), "{message}")
        }
        other => panic!("expected caught panic, got {other:?}"),
    }
    let stats = engine.stats();
    assert_eq!(stats.compiles, 1, "the failed job compiled once");
    assert_eq!(stats.cache_entries, 0, "failure must not cache");
    // Hit 2 is clean: the identical request compiles fresh.
    let out = engine.submit(&cfg, &[job("ghz", ghz(4))]).unwrap();
    let r = out[0].result.as_ref().expect("recompiled fresh");
    assert_eq!(r.status, CacheStatus::Miss);
    assert_eq!(r.entry.isa_bytes, direct_bytes(&ghz(4), &cfg));
    assert_eq!(engine.stats().compiles, 2);
}

// ---------------------------------------------------------------------
// Counter reconciliation
// ---------------------------------------------------------------------

/// The engine's counters reconcile exactly with the fault registry:
/// every injected `serve.compile` fault is one failed job, and every
/// miss is one compile.
#[test]
fn engine_stats_reconcile_with_injected_fault_counts() {
    let _armed = Armed::new("serve.compile:error@1-2;seed=1");
    let engine = Engine::new(ServeConfig::default());
    let cfg = engine.base().clone();
    let jobs: Vec<Job> = (3..6).map(|n| job(&format!("ghz{n}"), ghz(n))).collect();
    let out = engine.submit(&cfg, &jobs).unwrap();
    for o in &out[..2] {
        let err = o.result.as_ref().expect_err("hits 1-2 are injected");
        assert_eq!(err.kind(), "compile", "{}: {err}", o.name);
    }
    assert!(out[2].result.is_ok(), "hit 3 is clean");
    let failed = out.iter().filter(|o| o.result.is_err()).count() as u64;
    assert_eq!(failed, raa_fault::fired_at("serve.compile"));
    assert_eq!(raa_fault::fired_total(), 2);
    let stats = engine.stats();
    assert_eq!((stats.misses, stats.compiles), (3, 3));
}

// ---------------------------------------------------------------------
// Termination over HTTP under a pinned fault matrix
// ---------------------------------------------------------------------

fn compile_body(names_sizes: &[(&str, usize)]) -> String {
    format!(
        "{{\"jobs\":[{}]}}",
        names_sizes
            .iter()
            .map(|(name, n)| {
                let text = qasm::to_qasm(&ghz(*n));
                format!("{{\"name\":{name:?},\"qasm\":{text:?}}}")
            })
            .collect::<Vec<_>>()
            .join(",")
    )
}

/// The pinned fault matrix (mirrored by the CI chaos leg): each spec
/// kills a different seam. Every request must terminate with a
/// documented status — the panics land in catch_unwind barriers, the
/// wedge-prone publish window is covered by `LeadGuard`, and worker
/// deaths resume on the submitter.
#[test]
fn every_request_terminates_under_the_pinned_fault_matrix() {
    quiet_injected_panics();
    let _serial = FAULTS.lock().unwrap_or_else(|p| p.into_inner());
    struct Case {
        spec: &'static str,
        workers: usize,
        /// Responses that must appear at least once across the case's
        /// requests (beyond plain termination).
        must_see: &'static [u16],
    }
    let matrix = [
        Case {
            // Leader panics, randomly: each is caught and becomes that
            // job's `compile` error inside a 200 — always a response.
            spec: "serve.compile:panic@0.5;seed=7",
            workers: 1,
            must_see: &[200],
        },
        Case {
            // The publish window dies once: LeadGuard must fail the
            // flights fast (500), and the next request recompiles.
            spec: "serve.publish:panic@1;seed=7",
            workers: 1,
            must_see: &[500, 200],
        },
        Case {
            // A whole worker chunk dies mid-wave: the panic resumes on
            // the submitting thread and the handler barrier answers.
            spec: "par.worker:panic@1;seed=7",
            workers: 2,
            must_see: &[500, 200],
        },
        Case {
            // Every leader compile reports a (virtual) deadline overrun
            // at its seam: per-job `deadline` errors, still HTTP 200.
            spec: "serve.compile:deadline;seed=7",
            workers: 1,
            must_see: &[200],
        },
        Case {
            // Slow but healthy.
            spec: "serve.compile:delay=2ms@0.5;seed=7",
            workers: 1,
            must_see: &[200],
        },
    ];

    for case in &matrix {
        raa_fault::configure(case.spec).expect("valid fault spec");
        let engine = std::sync::Arc::new(Engine::new(ServeConfig {
            workers: case.workers,
            ..ServeConfig::default()
        }));
        let server = http::serve(engine, "127.0.0.1:0").expect("bind");
        let mut seen = Vec::new();
        for i in 0..4 {
            let body = compile_body(&[("a", 3 + i), ("b", 4 + i)]);
            let (status, text) =
                request(server.addr(), "POST", "/v1/compile", Some(&body)).expect("response");
            assert!(
                [200, 500].contains(&status),
                "{}: unexpected status {status}: {text}",
                case.spec
            );
            json::parse(&text).unwrap_or_else(|e| panic!("{}: bad body: {e}", case.spec));
            seen.push(status);
        }
        for want in case.must_see {
            assert!(
                seen.contains(want),
                "{}: expected a {want} among {seen:?}",
                case.spec
            );
        }
        // The engine is still coherent: stats answer and no jobs are
        // stuck admitted.
        let (status, text) = request(server.addr(), "GET", "/v1/stats", None).expect("stats");
        assert_eq!(status, 200, "{}", case.spec);
        let stats = json::parse(&text).unwrap();
        assert_eq!(
            stats.field("queue_depth").unwrap().uint(u64::MAX).unwrap(),
            0,
            "{}: jobs stuck in the queue",
            case.spec
        );
        server.stop();
    }
    raa_fault::disarm();

    // Fault-free rerun: the service is bit-identical to direct
    // compiles again (nothing latched, nothing cached wrong).
    assert!(!raa_fault::active());
    let engine = std::sync::Arc::new(Engine::new(ServeConfig::default()));
    let server = http::serve(engine, "127.0.0.1:0").expect("bind");
    let (status, text) = request(
        server.addr(),
        "POST",
        "/v1/compile",
        Some(&compile_body(&[("g", 5)])),
    )
    .expect("response");
    assert_eq!(status, 200);
    let response = json::parse(&text).unwrap();
    let result = &response.field("results").unwrap().arr().unwrap()[0];
    assert_eq!(result.field("ok").unwrap(), &json::Value::Bool(true));
    let bytes = b64::decode(result.field("isa_b64").unwrap().str().unwrap()).unwrap();
    let reference = qasm::from_qasm(&qasm::to_qasm(&ghz(5))).unwrap();
    assert_eq!(bytes, direct_bytes(&reference, &AtomiqueConfig::default()));
    server.stop();
}

/// The HTTP front's own seam: a handler panic becomes a clean 500 on
/// that connection only; the listener and the next request are fine.
#[test]
fn http_handler_fault_is_one_500_not_an_outage() {
    let _armed = Armed::new("serve.http:panic@1;seed=1");
    let engine = std::sync::Arc::new(Engine::new(ServeConfig::default()));
    let server = http::serve(engine, "127.0.0.1:0").expect("bind");
    let (status, text) = request(server.addr(), "GET", "/v1/health", None).expect("response");
    assert_eq!(status, 500, "{text}");
    assert!(text.contains("\"kind\":\"internal\""), "{text}");
    let (status, text) = request(server.addr(), "GET", "/v1/health", None).expect("response");
    assert_eq!(status, 200, "{text}");
    server.stop();
}
