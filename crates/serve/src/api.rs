//! The JSON API: request parsing, per-request config overrides, and
//! response rendering. Transport-agnostic — [`crate::http`] moves the
//! bytes, this module gives them meaning.
//!
//! A request is one JSON object:
//!
//! ```json
//! {
//!   "config": {"opt_level": 2},
//!   "jobs": [
//!     {"name": "bell", "qasm": "OPENQASM 2.0; ..."},
//!     {"name": "ghz", "circuit": {"num_qubits": 3,
//!                                 "gates": [["h", 0], ["cx", 0, 1], ["cx", 1, 2]]}}
//!   ]
//! }
//! ```
//!
//! `opt_level` is the only `config` key: every other compile setting
//! comes from the engine's base config, and any other key is a
//! `bad_request`.
//!
//! Gate arrays use the per-gate JSON form of
//! [`raa_isa::codec::gate_from_json`]. The response carries one result
//! per job, in order, each either a payload (base64 ISA bytes, stats,
//! timings, counters, cache status) or an `{kind, message}` error. A
//! batch the engine does not admit fails whole: `queue_full` while the
//! queue is full, `draining` during shutdown.

use std::sync::Arc;

use atomique::{AtomiqueConfig, OptLevel};
use raa_circuit::{qasm, Circuit};
use raa_isa::json::{self, Value};
use raa_isa::{codec, DecodeError};

use crate::engine::{Engine, EngineStats, Job, JobOutcome, JobResult};
use crate::{b64, ServeError};

/// Per-request knobs applied over the engine's base config. An absent
/// field keeps the base value.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Overrides {
    /// ISA optimization level (JSON `opt_level`: 0, 1 or 2).
    pub opt_level: Option<OptLevel>,
}

impl Overrides {
    /// Parses the request's `config` object.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] when `v` is not an object, has a key
    /// other than `opt_level`, or carries an out-of-range level.
    pub fn parse(v: &Value) -> Result<Overrides, ServeError> {
        if let Value::Obj(items) = v {
            if let Some((key, _)) = items.iter().find(|(k, _)| k != "opt_level") {
                return Err(bad(format!(
                    "unknown config key `{key}` (only `opt_level` is accepted)"
                )));
            }
        }
        let mut o = Overrides::default();
        if let Some(level) = v.opt_field("opt_level").map_err(shape)? {
            o.opt_level = Some(match level.uint(2).map_err(shape)? {
                0 => OptLevel::None,
                1 => OptLevel::Basic,
                _ => OptLevel::Aggressive,
            });
        }
        Ok(o)
    }

    /// The base config with these overrides applied.
    pub fn apply(&self, base: &AtomiqueConfig) -> AtomiqueConfig {
        let mut cfg = base.clone();
        if let Some(level) = self.opt_level {
            cfg.opt_level = level;
        }
        cfg
    }
}

/// One job as parsed from the request: the name always parses or the
/// whole request is rejected; the circuit parses per-job, so one bad
/// job does not take down its batch siblings.
#[derive(Debug, Clone)]
pub struct ParsedJob {
    /// The client's label for this job.
    pub name: String,
    /// The parsed circuit, or why it failed.
    pub circuit: Result<Circuit, ServeError>,
}

/// A parsed `/v1/compile` request.
#[derive(Debug, Clone)]
pub struct Request {
    /// The `config` override block (defaults when absent).
    pub overrides: Overrides,
    /// Compile deadline of each job, milliseconds (JSON
    /// `deadline_ms`); `None` uses the engine default.
    pub deadline_ms: Option<u64>,
    /// The jobs, in request order.
    pub jobs: Vec<ParsedJob>,
}

/// Parses a request body.
///
/// # Errors
///
/// [`ServeError::Decode`] on malformed JSON, [`ServeError::
/// BadRequest`] when the document shape or the `config` block is
/// wrong. Job-level circuit problems do **not** fail the request;
/// they surface per job in [`ParsedJob::circuit`].
pub fn parse_request(text: &str) -> Result<Request, ServeError> {
    let root = json::parse(text)?;
    let overrides = match root.opt_field("config").map_err(shape)? {
        Some(config) => Overrides::parse(config)?,
        None => Overrides::default(),
    };
    let deadline_ms = match root.opt_field("deadline_ms").map_err(shape)? {
        Some(v) => {
            let ms = v.uint(u64::MAX).map_err(shape)?;
            if ms == 0 {
                return Err(bad("deadline_ms must be positive"));
            }
            Some(ms)
        }
        None => None,
    };
    let mut jobs = Vec::new();
    for job in root.field("jobs").map_err(shape)?.arr().map_err(shape)? {
        let name = job
            .field("name")
            .and_then(Value::str)
            .map_err(shape)?
            .to_string();
        jobs.push(ParsedJob {
            name,
            circuit: parse_circuit_source(job),
        });
    }
    Ok(Request {
        overrides,
        deadline_ms,
        jobs,
    })
}

/// Extracts a job's circuit from its `qasm` or `circuit` field.
fn parse_circuit_source(job: &Value) -> Result<Circuit, ServeError> {
    let qasm_src = job.opt_field("qasm").map_err(shape)?;
    let circuit_obj = job.opt_field("circuit").map_err(shape)?;
    match (qasm_src, circuit_obj) {
        (Some(_), Some(_)) => Err(bad("job has both `qasm` and `circuit`")),
        (None, None) => Err(bad("job needs a `qasm` or `circuit` field")),
        (Some(src), None) => Ok(qasm::from_qasm(src.str().map_err(shape)?)?),
        (None, Some(obj)) => {
            let n = obj.field("num_qubits")?.uint(u32::MAX as u64)? as usize;
            let mut circuit = Circuit::new(n);
            for gate in obj.field("gates")?.arr()? {
                circuit.try_push(codec::gate_from_json(gate)?)?;
            }
            Ok(circuit)
        }
    }
}

/// Parses, compiles and renders one request end to end: the engine
/// half of the HTTP handler, shared with the CLI's batch mode.
///
/// # Errors
///
/// Batch-level failures only: [`ServeError::Decode`] or
/// [`ServeError::BadRequest`] for a malformed request, and
/// [`ServeError::QueueFull`] or [`ServeError::Draining`] when the
/// engine does not admit the batch.
/// Per-job failures, compile errors and deadline overruns included,
/// are rendered inside the `Ok` body.
pub fn run(engine: &Engine, body: &str) -> Result<String, ServeError> {
    let request = parse_request(body)?;
    let cfg = request.overrides.apply(engine.base());

    // Compile the parseable jobs; merge parse failures back in order.
    let mut good: Vec<Job> = Vec::new();
    let mut slots: Vec<Result<usize, ServeError>> = Vec::new();
    for parsed in &request.jobs {
        match &parsed.circuit {
            Ok(circuit) => {
                slots.push(Ok(good.len()));
                good.push(Job {
                    name: parsed.name.clone(),
                    circuit: circuit.clone(),
                });
            }
            Err(e) => slots.push(Err(e.clone())),
        }
    }
    let compiled = engine.submit_with(&cfg, &good, request.deadline_ms)?;
    let outcomes: Vec<JobOutcome> = request
        .jobs
        .iter()
        .zip(slots)
        .map(|(parsed, slot)| match slot {
            Ok(i) => compiled[i].clone(),
            Err(e) => JobOutcome {
                name: parsed.name.clone(),
                result: Err(e),
            },
        })
        .collect();
    Ok(render_response(&outcomes))
}

// ---------------------------------------------------------------------
// Response rendering
// ---------------------------------------------------------------------

/// Escapes a string for embedding in a JSON document (with quotes).
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats an `f64` as a JSON number (non-finite values become 0,
/// which JSON cannot represent and the pipeline never produces).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Renders one job payload.
fn render_result(out: &mut String, result: &JobResult) {
    let e: &Arc<_> = &result.entry;
    out.push_str(&format!(
        "\"cache\":{},\"isa_b64\":{},\"fidelity\":{}",
        quote(result.status.as_str()),
        quote(&b64::encode(&e.isa_bytes)),
        num(e.fidelity),
    ));
    let t = &e.timings;
    out.push_str(&format!(
        ",\"timings\":{{\"transpile_s\":{},\"map_s\":{},\"route_s\":{},\"lower_s\":{},\"opt_s\":{},\"verify_s\":{},\"sum_s\":{}}}",
        num(t.transpile_s), num(t.map_s), num(t.route_s),
        num(t.lower_s), num(t.opt_s), num(t.verify_s), num(t.sum_s()),
    ));
    let s = &e.stats;
    out.push_str(&format!(
        ",\"stats\":{{\"num_qubits\":{},\"two_qubit_gates\":{},\"one_qubit_gates\":{},\
         \"depth\":{},\"swaps_inserted\":{},\"additional_cnots\":{},\"execution_time_s\":{},\
         \"total_move_distance_mm\":{},\"num_move_stages\":{},\"cooling_events\":{},\
         \"overlap_rejections\":{},\"transfers\":{},\"compile_time_s\":{}}}",
        s.num_qubits,
        s.two_qubit_gates,
        s.one_qubit_gates,
        s.depth,
        s.swaps_inserted,
        s.additional_cnots,
        num(s.execution_time_s),
        num(s.total_move_distance_mm),
        s.num_move_stages,
        s.cooling_events,
        s.overlap_rejections,
        s.transfers,
        num(s.compile_time_s),
    ));
    out.push_str(",\"counters\":{");
    for (i, (name, value)) in e.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{}:{}", quote(name), value));
    }
    out.push('}');
}

/// Renders the `/v1/compile` response body.
pub fn render_response(outcomes: &[JobOutcome]) -> String {
    let mut out = String::from("{\"results\":[");
    for (i, outcome) in outcomes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{{\"name\":{},", quote(&outcome.name)));
        match &outcome.result {
            Ok(result) => {
                out.push_str("\"ok\":true,");
                render_result(&mut out, result);
            }
            Err(e) => {
                out.push_str(&format!("\"ok\":false,\"error\":{}", render_error_obj(e)));
            }
        }
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// Renders a batch-level error body (`{"error": {...}}`).
pub fn render_error(e: &ServeError) -> String {
    format!("{{\"error\":{}}}", render_error_obj(e))
}

fn render_error_obj(e: &ServeError) -> String {
    format!(
        "{{\"kind\":{},\"message\":{}}}",
        quote(e.kind()),
        quote(&e.to_string())
    )
}

/// Renders the `/v1/stats` body.
pub fn render_stats(s: &EngineStats) -> String {
    format!(
        "{{\"hits\":{},\"misses\":{},\"coalesced\":{},\"compiles\":{},\"rejected\":{},\
         \"evictions\":{},\"max_queue_depth\":{},\"deadline_exceeded\":{},\"draining\":{},\
         \"cache_entries\":{},\"queue_depth\":{}}}",
        s.hits,
        s.misses,
        s.coalesced,
        s.compiles,
        s.rejected,
        s.evictions,
        s.max_queue_depth,
        s.deadline_exceeded,
        s.draining,
        s.cache_entries,
        s.queue_depth
    )
}

/// Renders a circuit as the request-side JSON `circuit` object —
/// the inverse of the request parser's gate-list branch, used
/// by clients (and the end-to-end tests) to build request bodies.
///
/// # Errors
///
/// [`ServeError::BadRequest`] if a gate angle is non-finite (JSON
/// cannot carry it).
pub fn circuit_to_json(circuit: &Circuit) -> Result<String, ServeError> {
    let mut out = format!("{{\"num_qubits\":{},\"gates\":[", circuit.num_qubits());
    for (i, gate) in circuit.gates().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&codec::gate_to_json(gate).map_err(|e| bad(e.to_string()))?);
    }
    out.push_str("]}");
    Ok(out)
}

fn bad(message: impl Into<String>) -> ServeError {
    ServeError::BadRequest {
        message: message.into(),
    }
}

/// Downgrades a JSON *shape* problem (well-formed document, wrong
/// structure) to a `bad_request`; true decode problems (syntax,
/// truncation — they carry offsets) stay [`ServeError::Decode`].
fn shape(e: DecodeError) -> ServeError {
    match e {
        DecodeError::Structure { message } => bad(message),
        other => ServeError::Decode(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raa_circuit::{Gate, Qubit};

    #[test]
    fn parses_a_full_request() {
        let body = r#"{
            "config": {"opt_level": 2},
            "jobs": [
                {"name": "gates", "circuit": {"num_qubits": 2, "gates": [["h", 0], ["cz", 0, 1]]}},
                {"name": "broken", "qasm": "not qasm"}
            ]
        }"#;
        let req = parse_request(body).unwrap();
        assert_eq!(req.overrides.opt_level, Some(OptLevel::Aggressive));
        assert_eq!(req.jobs.len(), 2);
        let c = req.jobs[0].circuit.as_ref().unwrap();
        assert_eq!(c.num_qubits(), 2);
        assert_eq!(c.gates().len(), 2);
        assert_eq!(req.jobs[1].circuit.as_ref().unwrap_err().kind(), "qasm");
    }

    #[test]
    fn bad_overrides_are_bad_requests() {
        for (body, want) in [
            (r#"{"config": {"opt_level": 7}, "jobs": []}"#, "bad_request"),
            (
                r#"{"config": {"opt_level": "2"}, "jobs": []}"#,
                "bad_request",
            ),
            (r#"{"config": 2, "jobs": []}"#, "bad_request"),
            (r#"{"jobs": 3}"#, "bad_request"),
            (r#"{}"#, "bad_request"),
            (r#"{"jobs": ["#, "decode"),
        ] {
            let err = parse_request(body).unwrap_err();
            assert_eq!(err.kind(), want, "body {body}");
        }
    }

    /// The retired `strategy`, `threads` and `proximity` overrides and
    /// a misspelt `opt_level` are rejected by name, never ignored.
    #[test]
    fn config_keys_other_than_opt_level_are_rejected_by_name() {
        for (config, key) in [
            (r#"{"strategy": "layered"}"#, "strategy"),
            (r#"{"strategy": "sequential"}"#, "strategy"),
            (r#"{"threads": 4}"#, "threads"),
            (r#"{"proximity": "grid"}"#, "proximity"),
            (r#"{"opt-level": 2}"#, "opt-level"),
            (r#"{"opt_level": 2, "optlevel": 0}"#, "optlevel"),
        ] {
            let body = format!(r#"{{"config": {config}, "jobs": []}}"#);
            let err = parse_request(&body).unwrap_err();
            assert_eq!(err.kind(), "bad_request", "config {config}");
            assert!(
                err.to_string().contains(&format!("`{key}`")),
                "config {config}: {err}"
            );
        }
        // `null` keeps the base level, like an absent key.
        let req = parse_request(r#"{"config": {"opt_level": null}, "jobs": []}"#).unwrap();
        assert_eq!(req.overrides, Overrides::default());
    }

    #[test]
    fn job_level_problems_do_not_fail_the_request() {
        let body = r#"{"jobs": [
            {"name": "both", "qasm": "x", "circuit": {"num_qubits": 1, "gates": []}},
            {"name": "neither"},
            {"name": "oob", "circuit": {"num_qubits": 1, "gates": [["h", 5]]}}
        ]}"#;
        let req = parse_request(body).unwrap();
        assert_eq!(
            req.jobs[0].circuit.as_ref().unwrap_err().kind(),
            "bad_request"
        );
        assert_eq!(
            req.jobs[1].circuit.as_ref().unwrap_err().kind(),
            "bad_request"
        );
        assert_eq!(req.jobs[2].circuit.as_ref().unwrap_err().kind(), "circuit");
    }

    #[test]
    fn circuit_json_round_trips_through_the_request_parser() {
        let mut c = Circuit::new(3);
        c.push(Gate::h(Qubit(0)));
        c.push(Gate::rz(Qubit(1), 0.25));
        c.push(Gate::cx(Qubit(0), Qubit(2)));
        let body = format!(
            "{{\"jobs\":[{{\"name\":\"rt\",\"circuit\":{}}}]}}",
            circuit_to_json(&c).unwrap()
        );
        let req = parse_request(&body).unwrap();
        let parsed = req.jobs[0].circuit.as_ref().unwrap();
        assert_eq!(parsed.stable_hash(), c.stable_hash());
    }
}
