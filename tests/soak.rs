//! Soak gate (release builds only): a live server under a sustained
//! mixed workload — cache hits, unique misses with LRU churn,
//! malformed requests, and low-probability injected faults — from 8
//! client threads for `RAA_SOAK_SECS` seconds (default 30).
//!
//! Asserts the service *stays* a service: every request terminates
//! with a documented status, a 400 answers each malformed body and
//! nothing else, no connection hangs, the queue depth returns to zero,
//! the engine's cache counters reconcile exactly with the jobs the
//! clients saw answered, and process memory is stable (no per-request
//! leak).
//!
//! Debug builds skip this test (`cargo test -q` tier-1 stays fast);
//! CI runs it as a separate release step.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use atomique::AtomiqueConfig;
use raa_circuit::{qasm, Circuit, Gate, Qubit};
use raa_isa::json;
use raa_serve::engine::{Engine, ServeConfig};
use raa_serve::{api, http, request};

fn ghz(n: usize) -> Circuit {
    let mut c = Circuit::new(n);
    c.push(Gate::h(Qubit(0)));
    for i in 0..n - 1 {
        c.push(Gate::cx(Qubit(i as u32), Qubit(i as u32 + 1)));
    }
    c
}

/// A circuit no other (thread, iteration) produces: a GHZ ladder with
/// a thread/iteration-keyed rotation — distinct `stable_hash`, so a
/// guaranteed cache miss driving compile load and LRU churn.
fn unique_circuit(thread: usize, iter: usize) -> Circuit {
    let mut c = ghz(4 + (iter % 3));
    let angle = 1e-4 * (thread * 100_000 + iter + 1) as f64;
    c.push(Gate::rz(Qubit(0), angle));
    c
}

/// Resident-set size in bytes, from `/proc/self/statm`.
#[cfg(target_os = "linux")]
fn rss_bytes() -> u64 {
    let statm = std::fs::read_to_string("/proc/self/statm").expect("statm");
    let pages: u64 = statm
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("statm resident field");
    pages * 4096
}

/// What one client thread observed.
#[derive(Default)]
struct ClientReport {
    /// Jobs inside HTTP 200 responses (each was classified by the
    /// engine exactly once as hit, miss or coalesced).
    jobs_answered: u64,
    requests: u64,
    /// Malformed bodies sent, and the 400s they were answered with (a
    /// 400 to any other request is a problem).
    malformed_sent: u64,
    bad_requests: u64,
    problems: Vec<String>,
}

#[cfg_attr(debug_assertions, ignore = "soak runs in release builds only")]
#[test]
fn sustained_mixed_workload_stays_stable() {
    let secs: u64 = std::env::var("RAA_SOAK_SECS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(30);

    // Low-probability injected faults ride along (this test binary is
    // its own process, so arming the global schedule is safe). Each is
    // one job's error inside a 200; nothing here drains, so a 503 is a
    // failure like any other unexpected status.
    raa_fault::configure("serve.compile:error@0.02;seed=99").expect("valid fault spec");

    let engine = Arc::new(Engine::new(ServeConfig {
        workers: 4,
        queue_capacity: 256,
        cache_capacity: 64, // small: forces steady LRU eviction churn
        ..ServeConfig::default()
    }));
    let server = http::serve(engine.clone(), "127.0.0.1:0").expect("bind");
    let addr = server.addr();

    // Hot bodies (cache hits after round one) are shared by all
    // clients; unique bodies are generated per (thread, iteration).
    let hot_bodies: Vec<String> = (3..7)
        .map(|n| {
            let text = qasm::to_qasm(&ghz(n));
            format!("{{\"jobs\":[{{\"name\":\"hot{n}\",\"qasm\":{text:?}}}]}}")
        })
        .collect();
    let hot_bodies = Arc::new(hot_bodies);

    let stop = Arc::new(AtomicBool::new(false));
    let clients: Vec<_> = (0..8)
        .map(|t| {
            let hot = hot_bodies.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut report = ClientReport::default();
                let mut iter = 0usize;
                while !stop.load(Ordering::Acquire) {
                    iter += 1;
                    let malformed = iter.is_multiple_of(8);
                    let (method, path, body);
                    match iter % 8 {
                        0 => {
                            // Malformed body: must be a clean 400.
                            (method, path) = ("POST", "/v1/compile");
                            body = Some("{\"jobs\"".to_string());
                        }
                        1 => {
                            (method, path) = ("GET", "/v1/stats");
                            body = None;
                        }
                        2 | 3 => {
                            // Unique miss: one fresh circuit plus one
                            // hot sibling in the same batch.
                            let unique = api::circuit_to_json(&unique_circuit(t, iter))
                                .expect("finite angles");
                            let hot_text = qasm::to_qasm(&ghz(3 + (iter % 4)));
                            (method, path) = ("POST", "/v1/compile");
                            body = Some(format!(
                                "{{\"jobs\":[{{\"name\":\"u{t}-{iter}\",\"circuit\":{unique}}},\
                                 {{\"name\":\"sib\",\"qasm\":{hot_text:?}}}]}}"
                            ));
                        }
                        _ => {
                            (method, path) = ("POST", "/v1/compile");
                            body = Some(hot[iter % hot.len()].clone());
                        }
                    }
                    report.requests += 1;
                    report.malformed_sent += u64::from(malformed);
                    let (status, text) = match request(addr, method, path, body.as_deref()) {
                        Ok(r) => r,
                        Err(e) => {
                            report.problems.push(format!("t{t} i{iter}: io: {e}"));
                            continue;
                        }
                    };
                    match status {
                        200 => {
                            if path == "/v1/compile" {
                                match json::parse(&text) {
                                    Ok(v) => {
                                        let n = v
                                            .field("results")
                                            .ok()
                                            .and_then(|r| r.arr().ok())
                                            .map_or(0, |a| a.len());
                                        report.jobs_answered += n as u64;
                                    }
                                    Err(e) => report
                                        .problems
                                        .push(format!("t{t} i{iter}: bad 200 body: {e}")),
                                }
                            }
                        }
                        400 if malformed => report.bad_requests += 1,
                        other => report
                            .problems
                            .push(format!("t{t} i{iter}: unexpected status {other}: {text}")),
                    }
                }
                report
            })
        })
        .collect();

    // Sample memory once the workload is warmed up, then let it soak.
    std::thread::sleep(Duration::from_millis((secs * 1000 / 4).max(500)));
    #[cfg(target_os = "linux")]
    let warm_rss = rss_bytes();
    let remaining =
        Duration::from_secs(secs).saturating_sub(Duration::from_millis((secs * 1000 / 4).max(500)));
    std::thread::sleep(remaining);
    stop.store(true, Ordering::Release);

    // Zero hung connections: every client joins promptly (a wedged
    // request would hang this join and fail the gate by timeout).
    let reports: Vec<ClientReport> = clients
        .into_iter()
        .map(|c| c.join().expect("client thread panicked"))
        .collect();
    for report in &reports {
        assert!(report.problems.is_empty(), "{:?}", report.problems);
    }

    // The service quiesces: admitted jobs drain to zero and no
    // connection stays open.
    let settle = Instant::now();
    loop {
        let stats = engine.stats();
        if stats.queue_depth == 0 && server.active_connections() == 0 {
            break;
        }
        assert!(
            settle.elapsed() < Duration::from_secs(5),
            "did not quiesce: queue_depth={} active_connections={}",
            stats.queue_depth,
            server.active_connections()
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // Reconcile: every job inside a 200 response was classified by the
    // engine exactly once. (Malformed requests never reach
    // classification, and these bodies contain no per-job parse
    // failures.)
    let stats = engine.stats();
    let answered: u64 = reports.iter().map(|r| r.jobs_answered).sum();
    let requests: u64 = reports.iter().map(|r| r.requests).sum();
    let malformed: u64 = reports.iter().map(|r| r.malformed_sent).sum();
    let bad_requests: u64 = reports.iter().map(|r| r.bad_requests).sum();
    assert_eq!(
        bad_requests, malformed,
        "every malformed body must answer 400"
    );
    assert_eq!(
        stats.hits + stats.misses + stats.coalesced,
        answered,
        "engine classification does not reconcile with answered jobs ({stats:?})"
    );
    assert!(
        stats.misses > 0 && stats.hits > 0,
        "workload too thin: {stats:?}"
    );
    assert!(
        requests >= 8 * 4,
        "clients barely ran ({requests} requests in {secs}s)"
    );

    // Memory stable: steady-state growth after warmup stays bounded
    // (the cache is LRU-bounded; anything linear in request count
    // would blow far past this in a soak).
    #[cfg(target_os = "linux")]
    {
        let final_rss = rss_bytes();
        assert!(
            final_rss < warm_rss + (256 << 20),
            "resident set grew {warm_rss} -> {final_rss} bytes over the soak"
        );
    }

    // Fault-free epilogue: disarm, and the served bytes match a direct
    // compile again.
    raa_fault::disarm();
    let reference = qasm::from_qasm(&qasm::to_qasm(&ghz(3))).unwrap();
    let direct = {
        let cfg = AtomiqueConfig {
            emit_isa: true,
            verify_isa: true,
            trace: true,
            ..AtomiqueConfig::default()
        };
        let out = atomique::compile(&reference, &cfg).unwrap();
        raa_isa::codec::to_bytes(out.isa.as_ref().unwrap())
    };
    let text = qasm::to_qasm(&ghz(3));
    let body = format!("{{\"jobs\":[{{\"name\":\"end\",\"qasm\":{text:?}}}]}}");
    let (status, text) = request(addr, "POST", "/v1/compile", Some(&body)).expect("epilogue");
    assert_eq!(status, 200);
    let v = json::parse(&text).unwrap();
    let result = &v.field("results").unwrap().arr().unwrap()[0];
    let bytes = raa_serve::b64::decode(result.field("isa_b64").unwrap().str().unwrap()).unwrap();
    assert_eq!(
        bytes, direct,
        "post-soak served bytes diverge from direct compile"
    );
    server.stop();
}
