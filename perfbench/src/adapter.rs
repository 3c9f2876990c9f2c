//! Every call the benchmark makes into the compiler and the service.
//!
//! Keeping them in one file means an API change in a layer touches the
//! benchmark in one place. Configurations are built only from
//! `AtomiqueConfig::default()` / `scaled_to(n)` plus `emit_isa`,
//! `verify_isa`, `opt_level` and `trace`; the layer calls pass the
//! config's own field values through and never pick an index, router
//! strategy or thread count of their own.

use std::time::{Duration, Instant};

use atomique::trace::{self, Level};
use atomique::{AtomiqueConfig, CompileStats, CompiledProgram, OptLevel};
use raa_circuit::Circuit;
use raa_par::WorkPool;
use raa_serve::engine::{CacheStatus, Engine, Job, ServeConfig};

pub use raa_circuit::qasm::to_qasm;
pub use raa_serve::b64::decode as b64_decode;

/// The compile configuration of every library workload: `-O2`, the ISA
/// stream attached and verified, tracing off.
pub fn config(qubits: Option<usize>) -> AtomiqueConfig {
    AtomiqueConfig {
        emit_isa: true,
        verify_isa: true,
        opt_level: OptLevel::Aggressive,
        ..qubits.map_or_else(AtomiqueConfig::default, AtomiqueConfig::scaled_to)
    }
}

/// What one compile produced: the verified ISA bytes plus the quality
/// figures the end-to-end metrics sum.
#[derive(Debug, Clone, PartialEq)]
pub struct Output {
    pub bytes: Vec<u8>,
    pub quality: Quality,
    /// The compiler's own wall time (its root `compile` span), seconds.
    pub compile_s: f64,
}

/// Output quality of one compiled circuit.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Quality {
    pub two_qubit_gates: u64,
    pub depth: u64,
    pub exec_time_s: f64,
    /// −ln of the estimated fidelity, summed from its components so it
    /// stays finite where the product underflows.
    pub fidelity_loss: f64,
}

impl Quality {
    fn of(program: &CompiledProgram) -> Quality {
        let stats = &program.stats;
        Quality {
            two_qubit_gates: stats.two_qubit_gates as u64,
            depth: stats.depth as u64,
            exec_time_s: stats.execution_time_s,
            fidelity_loss: program
                .fidelity
                .neg_log_components()
                .iter()
                .map(|(_, v)| v)
                .sum(),
        }
    }
}

/// `atomique::compile` of one circuit, returning its binary ISA bytes.
pub fn compile(circuit: &Circuit, cfg: &AtomiqueConfig) -> Result<Output, String> {
    let out = atomique::compile(circuit, cfg).map_err(|e| e.to_string())?;
    let isa = out.isa.as_ref().ok_or("compile attached no ISA stream")?;
    Ok(Output {
        bytes: raa_isa::codec::to_bytes(isa),
        quality: Quality::of(&out),
        compile_s: out.stats.compile_time_s,
    })
}

/// The benchmark-owned spans of the traced pipeline, in call order,
/// each wrapping exactly one public layer call, with the metric that
/// reports its time.
pub const LAYER_SPANS: [(&str, &str); 10] = [
    ("transpile.peephole", "transpile.peephole_s"),
    ("map.array", "map.array_s"),
    ("transpile.sabre", "transpile.sabre_s"),
    ("map.atom", "map.atom_s"),
    ("route", "route_s"),
    ("lower", "lower_s"),
    ("opt", "opt_s"),
    ("verify.legality", "verify.legality_s"),
    ("verify.replay", "verify.replay_s"),
    ("codec.encode", "codec.encode_s"),
];

/// Counts the traced pipeline reads off the layers' own results.
pub type PipelineCounts = [(&'static str, u64); 4];

/// The compile pipeline assembled from the public layer calls, each
/// under a benchmark-owned span (recorded when the caller holds a
/// `Detail` session). Mirrors `atomique::compile`, so the bytes must
/// equal it.
pub fn traced_pipeline(
    circuit: &Circuit,
    cfg: &AtomiqueConfig,
) -> Result<(Vec<u8>, PipelineCounts), String> {
    let pool = WorkPool::new(cfg.threads);
    let circuit = {
        let _s = trace::span("transpile.peephole");
        raa_circuit::optimize(circuit)
    };
    let arrays = {
        let _s = trace::span("map.array");
        atomique::map_to_arrays_with(
            &circuit,
            &cfg.hardware,
            cfg.array_mapper,
            cfg.gamma,
            cfg.transpile_index,
            &pool,
        )
        .map_err(|e| e.to_string())?
    };
    let transpiled = {
        let _s = trace::span("transpile.sabre");
        atomique::transpile_with(&circuit, &arrays, &cfg.sabre, cfg.transpile_index, &pool)
            .map_err(|e| e.to_string())?
    };
    let atoms = {
        let _s = trace::span("map.atom");
        atomique::map_to_atoms(&transpiled, &cfg.hardware, cfg.atom_mapper, cfg.seed)
            .map_err(|e| e.to_string())?
    };
    let routed = {
        let _s = trace::span("route");
        atomique::route_movements(
            &transpiled,
            &atoms,
            &cfg.hardware,
            &cfg.params,
            cfg.relaxation,
            cfg.router_mode,
            cfg.router_strategy,
            cfg.proximity_index,
        )
        .map_err(|e| e.to_string())?
    };
    let swaps = transpiled.swaps_inserted as u64;
    let stages = routed.stages.len() as u64;
    // Lowering reads only the schedule, the mapping and the reference
    // circuit; the statistics and fidelity fields are left neutral.
    let program = CompiledProgram {
        stages: routed.stages,
        mapping: atoms,
        slot_of_qubit: transpiled.slot_of_qubit,
        slot_circuit: transpiled.circuit,
        stats: neutral_stats(),
        fidelity: raa_physics::FidelityBreakdown {
            one_qubit: 1.0,
            two_qubit: 1.0,
            transfer: 1.0,
            move_heating: 1.0,
            move_cooling: 1.0,
            move_loss: 1.0,
            move_decoherence: 1.0,
        },
        isa: None,
        timings: Default::default(),
        report: Default::default(),
    };
    let raw = {
        let _s = trace::span("lower");
        atomique::emit_isa(&program, &cfg.hardware, "")
    };
    let isa = {
        let _s = trace::span("opt");
        raa_isa::optimize(&raw, cfg.opt_level).0
    };
    {
        let _s = trace::span("verify.legality");
        raa_isa::check_legality(&isa).map_err(|e| e.to_string())?;
    }
    {
        let _s = trace::span("verify.replay");
        raa_isa::replay_verify(&isa).map_err(|e| e.to_string())?;
    }
    let bytes = {
        let _s = trace::span("codec.encode");
        raa_isa::codec::to_bytes(&isa)
    };
    let counts = [
        ("transpile.swaps", swaps),
        ("route.stages", stages),
        ("isa.instrs_raw", raw.instrs.len() as u64),
        ("isa.instrs_opt", isa.instrs.len() as u64),
    ];
    Ok((bytes, counts))
}

fn neutral_stats() -> CompileStats {
    CompileStats {
        num_qubits: 0,
        two_qubit_gates: 0,
        one_qubit_gates: 0,
        depth: 0,
        swaps_inserted: 0,
        additional_cnots: 0,
        execution_time_s: 0.0,
        total_move_distance_mm: 0.0,
        avg_move_distance_mm: 0.0,
        num_move_stages: 0,
        cooling_events: 0,
        overlap_rejections: 0,
        transfers: 0,
        compile_time_s: 0.0,
    }
}

/// Opens a `Detail` trace session on the calling thread.
pub fn trace_begin() {
    trace::begin(Level::Detail);
}

pub use atomique::trace::export::to_chrome_named as export_chrome;
pub use atomique::trace::{
    end as trace_end, mark as trace_mark, report_since as trace_since, span,
};

/// The request body of one serve-mix job: one QASM circuit at `-O2`.
pub fn request_body(name: &str, qasm: &str) -> String {
    let mut escaped = String::with_capacity(qasm.len() + 16);
    for c in qasm.chars() {
        match c {
            '"' => escaped.push_str("\\\""),
            '\\' => escaped.push_str("\\\\"),
            '\n' => escaped.push_str("\\n"),
            '\r' => escaped.push_str("\\r"),
            '\t' => escaped.push_str("\\t"),
            c => escaped.push(c),
        }
    }
    format!("{{\"config\":{{\"opt_level\":2}},\"jobs\":[{{\"name\":\"{name}\",\"qasm\":\"{escaped}\"}}]}}")
}

/// One blocking HTTP exchange with the served front.
pub fn http(
    addr: std::net::SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<(u16, String)> {
    raa_serve::request(addr, method, path, body)
}

/// An in-process engine sized like the served one, for the traced
/// serve-layer calls and the direct-compile output check.
pub fn engine(workers: usize) -> Engine {
    Engine::new(ServeConfig {
        workers,
        ..ServeConfig::default()
    })
}

/// A direct `atomique::compile` of a request body's first job, under
/// the config it is served with: `engine`'s base (with the forced
/// serving flags) plus the request's overrides.
pub fn compile_request(engine: &Engine, body: &str) -> Result<Output, String> {
    let request = raa_serve::api::parse_request(body).map_err(|e| e.to_string())?;
    let job = request.jobs.first().ok_or("request has no job")?;
    let circuit = job.circuit.as_ref().map_err(|e| e.to_string())?;
    compile(circuit, &request.overrides.apply(engine.base()))
}

/// Durations of the three in-process serve layers for one request.
pub struct ServeCall {
    pub parse: Duration,
    pub submit: Duration,
    pub render: Duration,
    /// Whether the engine answered from its cache.
    pub hit: bool,
}

/// Runs `f` under the benchmark-owned span `name`; returns its result
/// and wall time.
fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
    let _s = trace::span(name);
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

/// Parses, submits and renders one request in process, each layer call
/// under a benchmark-owned span.
pub fn serve_call(engine: &Engine, body: &str) -> Result<ServeCall, String> {
    let (request, parse) = timed("api.parse", || raa_serve::api::parse_request(body));
    let request = request.map_err(|e| e.to_string())?;
    let cfg = request.overrides.apply(engine.base());
    let jobs = request
        .jobs
        .into_iter()
        .map(|j| {
            j.circuit.map(|circuit| Job {
                name: j.name,
                circuit,
            })
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let (outcomes, submit) = timed("engine.submit", || {
        engine.submit_with(&cfg, &jobs, request.deadline_ms)
    });
    let outcomes = outcomes.map_err(|e| e.to_string())?;
    let hit = match outcomes.first().map(|o| &o.result) {
        Some(Ok(result)) => result.status == CacheStatus::Hit,
        Some(Err(e)) => return Err(e.to_string()),
        None => return Err("no job outcome".into()),
    };
    let (rendered, render) = timed("api.render", || raa_serve::api::render_response(&outcomes));
    std::hint::black_box(rendered);
    Ok(ServeCall {
        parse,
        submit,
        render,
        hit,
    })
}

/// `api::run`: the whole in-process request path the HTTP front wraps.
pub fn api_run(engine: &Engine, body: &str) -> Result<String, String> {
    raa_serve::api::run(engine, body).map_err(|e| e.to_string())
}
