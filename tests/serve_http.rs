//! End-to-end differential gate for the batch-compilation service:
//! ISA bytes served over HTTP must be bit-identical to a direct
//! in-process `atomique::compile` — cold (cache miss) *and* warm
//! (cache hit) — for every small-suite benchmark at `opt_level` 0 and
//! 2. Also pins the service's edges: queue-full rejection (429),
//! per-job QASM failures, rejected `config` keys, body caps and the
//! stats endpoint.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;

use atomique::{AtomiqueConfig, OptLevel};
use raa_benchmarks::small_suite;
use raa_circuit::{qasm, Circuit};
use raa_isa::codec;
use raa_isa::json::{self, Value};
use raa_serve::engine::{Engine, ServeConfig};
use raa_serve::{b64, http, request};

/// The served `opt_level` values and the level each compiles at.
const LEVELS: [(u8, OptLevel); 2] = [(0, OptLevel::None), (2, OptLevel::Aggressive)];

fn start_server(config: ServeConfig) -> (Arc<Engine>, http::ServerHandle) {
    let engine = Arc::new(Engine::new(config));
    let server = http::serve(engine.clone(), "127.0.0.1:0").expect("bind");
    (engine, server)
}

fn post_compile(addr: SocketAddr, body: &str) -> (u16, Value) {
    let (status, text) = request(addr, "POST", "/v1/compile", Some(body)).expect("http");
    let value = json::parse(&text).expect("response is valid JSON");
    (status, value)
}

/// Direct in-process compile under the exact flags the engine forces,
/// returning the verified binary-codec bytes.
fn direct_bytes(circuit: &Circuit, opt_level: OptLevel) -> Vec<u8> {
    let cfg = AtomiqueConfig {
        opt_level,
        emit_isa: true,
        verify_isa: true,
        trace: true,
        ..AtomiqueConfig::default()
    };
    let out = atomique::compile(circuit, &cfg).expect("direct compile");
    codec::to_bytes(out.isa.as_ref().expect("isa attached"))
}

/// One result object from a response, by job name.
fn results_by_name(response: &Value) -> HashMap<String, &Value> {
    response
        .field("results")
        .unwrap()
        .arr()
        .unwrap()
        .iter()
        .map(|r| (r.field("name").unwrap().str().unwrap().to_string(), r))
        .collect()
}

fn isa_bytes_of(result: &Value) -> Vec<u8> {
    assert_eq!(result.field("ok").unwrap(), &Value::Bool(true));
    b64::decode(result.field("isa_b64").unwrap().str().unwrap()).expect("valid base64")
}

/// The headline gate. QASM goes over the wire, so the reference for
/// each benchmark is its QASM round trip — the same circuit the
/// server parses.
#[test]
fn served_isa_is_bit_identical_to_direct_compile_cold_and_warm() {
    let (_engine, server) = start_server(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let addr = server.addr();

    let suite: Vec<(String, Circuit, String)> = small_suite()
        .into_iter()
        .map(|b| {
            let text = qasm::to_qasm(&b.circuit);
            let roundtripped = qasm::from_qasm(&text).expect("suite QASM round trip");
            (b.name.to_string(), roundtripped, text)
        })
        .collect();

    let mut reference: HashMap<(String, u8), Vec<u8>> = HashMap::new();
    for (name, circuit, _) in &suite {
        for (level, opt_level) in LEVELS {
            reference.insert((name.clone(), level), direct_bytes(circuit, opt_level));
        }
    }

    for (level, _) in LEVELS {
        let label = format!("opt_level={level}");
        // `{:?}` on a String produces a JSON-compatible escaped
        // literal for the QASM text (quotes and newlines escaped).
        let body = format!(
            "{{\"config\":{{\"opt_level\":{level}}},\"jobs\":[{}]}}",
            suite
                .iter()
                .map(|(name, _, text)| format!("{{\"name\":{name:?},\"qasm\":{text:?}}}"))
                .collect::<Vec<_>>()
                .join(",")
        );

        // Cold pass: every job misses and matches the direct bytes.
        let (status, response) = post_compile(addr, &body);
        assert_eq!(status, 200, "{label}");
        let results = results_by_name(&response);
        assert_eq!(results.len(), suite.len(), "{label}");
        for (name, _, _) in &suite {
            let r = results[name.as_str()];
            assert_eq!(
                r.field("cache").unwrap().str().unwrap(),
                "miss",
                "{label} {name}"
            );
            assert_eq!(
                isa_bytes_of(r),
                reference[&(name.clone(), level)],
                "{label} {name}: served bytes diverge from direct compile"
            );
            // Per-request telemetry is present and non-trivial.
            let sum = r
                .field("timings")
                .unwrap()
                .field("sum_s")
                .unwrap()
                .num()
                .unwrap();
            assert!(sum > 0.0, "{label} {name}: empty stage timings");
            assert!(
                matches!(r.field("counters").unwrap(), Value::Obj(items) if !items.is_empty()),
                "{label} {name}: per-request counters missing"
            );
        }

        // Warm pass: same body, 100% hits, identical bytes.
        let (status, response) = post_compile(addr, &body);
        assert_eq!(status, 200, "{label} warm");
        let results = results_by_name(&response);
        for (name, _, _) in &suite {
            let r = results[name.as_str()];
            assert_eq!(
                r.field("cache").unwrap().str().unwrap(),
                "hit",
                "{label} {name} warm"
            );
            assert_eq!(
                isa_bytes_of(r),
                reference[&(name.clone(), level)],
                "{label} {name}: warm bytes diverge"
            );
        }
    }

    // The stats endpoint agrees with what just happened: 2 levels ×
    // suite misses, the same again in hits, zero rejections.
    let (status, text) = request(addr, "GET", "/v1/stats", None).expect("stats");
    assert_eq!(status, 200);
    let stats = json::parse(&text).unwrap();
    let n = (LEVELS.len() * suite.len()) as u64;
    assert_eq!(stats.field("misses").unwrap().uint(u64::MAX).unwrap(), n);
    assert_eq!(stats.field("compiles").unwrap().uint(u64::MAX).unwrap(), n);
    assert_eq!(stats.field("hits").unwrap().uint(u64::MAX).unwrap(), n);
    assert_eq!(stats.field("rejected").unwrap().uint(u64::MAX).unwrap(), 0);

    server.stop();
}

/// A batch larger than the queue bound is rejected whole with 429 and
/// the documented `queue_full` error kind.
#[test]
fn oversized_batches_get_429_queue_full() {
    let (_engine, server) = start_server(ServeConfig {
        queue_capacity: 2,
        ..ServeConfig::default()
    });
    let ghz = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n";
    let body = format!(
        "{{\"jobs\":[{}]}}",
        (0..3)
            .map(|i| format!("{{\"name\":\"j{i}\",\"qasm\":{ghz:?}}}"))
            .collect::<Vec<_>>()
            .join(",")
    );
    let (status, response) = post_compile(server.addr(), &body);
    assert_eq!(status, 429);
    let error = response.field("error").unwrap();
    assert_eq!(error.field("kind").unwrap().str().unwrap(), "queue_full");

    // A batch that fits still compiles afterwards.
    let small = format!("{{\"jobs\":[{{\"name\":\"ok\",\"qasm\":{ghz:?}}}]}}");
    let (status, response) = post_compile(server.addr(), &small);
    assert_eq!(status, 200);
    let results = results_by_name(&response);
    assert_eq!(results["ok"].field("ok").unwrap(), &Value::Bool(true));
    server.stop();
}

/// One bad job fails alone (ok=false, kind qasm); its batch siblings
/// still compile.
#[test]
fn per_job_qasm_failures_do_not_poison_the_batch() {
    let (_engine, server) = start_server(ServeConfig::default());
    let ghz = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n";
    let body = format!(
        "{{\"jobs\":[{{\"name\":\"good\",\"qasm\":{ghz:?}}},{{\"name\":\"bad\",\"qasm\":\"qreg\"}}]}}"
    );
    let (status, response) = post_compile(server.addr(), &body);
    assert_eq!(status, 200);
    let results = results_by_name(&response);
    assert_eq!(results["good"].field("ok").unwrap(), &Value::Bool(true));
    assert_eq!(results["bad"].field("ok").unwrap(), &Value::Bool(false));
    let error = results["bad"].field("error").unwrap();
    assert_eq!(error.field("kind").unwrap().str().unwrap(), "qasm");
    server.stop();
}

/// A `config` key other than `opt_level` — a retired override or a
/// misspelling — is a 400 `bad_request` naming the key, never a
/// silent compile at the base level.
#[test]
fn config_keys_other_than_opt_level_get_400_naming_the_key() {
    let (engine, server) = start_server(ServeConfig::default());
    let ghz = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n";
    for (config, key) in [
        (r#"{"strategy": "layered"}"#, "strategy"),
        (r#"{"threads": 4}"#, "threads"),
        (r#"{"proximity": "exhaustive"}"#, "proximity"),
        (r#"{"opt-level": 2}"#, "opt-level"),
    ] {
        let body =
            format!("{{\"config\":{config},\"jobs\":[{{\"name\":\"g\",\"qasm\":{ghz:?}}}]}}");
        let (status, response) = post_compile(server.addr(), &body);
        assert_eq!(status, 400, "{config}");
        let error = response.field("error").unwrap();
        assert_eq!(
            error.field("kind").unwrap().str().unwrap(),
            "bad_request",
            "{config}"
        );
        let message = error.field("message").unwrap().str().unwrap();
        assert!(message.contains(&format!("`{key}`")), "{config}: {message}");
    }
    assert_eq!(engine.stats().compiles, 0, "a rejected request compiled");
    server.stop();
}

/// Malformed bodies, unknown paths and oversized payloads map to the
/// documented statuses.
#[test]
fn http_edges_have_the_documented_statuses() {
    let (_engine, server) = start_server(ServeConfig {
        max_body_bytes: 128,
        ..ServeConfig::default()
    });
    let addr = server.addr();

    let (status, text) = request(addr, "POST", "/v1/compile", Some("{\"jobs\"")).unwrap();
    assert_eq!(status, 400);
    assert!(text.contains("\"kind\":\"decode\""), "{text}");

    let (status, _) = request(addr, "GET", "/v1/missing", None).unwrap();
    assert_eq!(status, 404);

    let big = "x".repeat(256);
    let (status, _) = request(addr, "POST", "/v1/compile", Some(&big)).unwrap();
    assert_eq!(status, 413);

    let (status, text) = request(addr, "GET", "/v1/health", None).unwrap();
    assert_eq!(status, 200);
    assert_eq!(text, "{\"ok\":true}");
    server.stop();
}
