//! The full Atomique pipeline (paper Fig. 3): qubit-array mapper →
//! multipartite SWAP insertion → qubit-atom mapper → high-parallelism
//! router → fidelity estimation.
//!
//! Timing comes exclusively from `raa-trace` spans: every stage runs
//! under a named span and both `CompileStats::compile_time_s` and
//! `StageTimings` are read back off the span tree, so the trace, the
//! timings struct and the total can never disagree (the pre-trace
//! implementation kept two independent `Instant::now` ladders that
//! could).

use std::time::Instant;

use raa_circuit::Circuit;
use raa_physics::{gate_phase_fidelity, transfer_fidelity, FidelityBreakdown, GatePhaseStats};
use raa_trace::Level;

use crate::array_mapper::map_arrays;
use crate::atom_mapper::map_to_atoms;
use crate::config::AtomiqueConfig;
use crate::error::CompileError;
use crate::program::{CompileReport, CompileStats, CompiledProgram};
use crate::router::route_movements;
use crate::transpile::insert_swaps;

/// Caller-imposed resource limits for one compile.
///
/// Deliberately *not* part of [`AtomiqueConfig`]: limits shape when a
/// compile is allowed to finish, never what it produces, so they must
/// stay out of the config fingerprint that keys the serve cache —
/// otherwise two requests for the same artifact with different
/// deadlines would compile twice.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompileLimits {
    /// Absolute wall-clock deadline. Checked at stage boundaries (the
    /// granularity at which partial work can be abandoned cleanly);
    /// once passed, the compile returns [`CompileError::Deadline`]
    /// naming the stage where the overrun was observed.
    pub deadline: Option<Instant>,
}

impl CompileLimits {
    /// No limits: the compile runs to completion.
    pub const fn none() -> CompileLimits {
        CompileLimits { deadline: None }
    }
}

/// Stage-boundary gate: checks the caller deadline once `stage` has
/// finished. With no deadline set this is one `None` check.
fn stage_gate(stage: &'static str, limits: &CompileLimits) -> Result<(), CompileError> {
    if let Some(deadline) = limits.deadline {
        if Instant::now() >= deadline {
            return Err(CompileError::Deadline { stage });
        }
    }
    Ok(())
}

/// Compiles `circuit` for the configured reconfigurable atom array.
///
/// # Errors
///
/// * [`CompileError::Capacity`] if the circuit exceeds the machine;
/// * [`CompileError::Routing`] if intra-array SWAP insertion fails.
///
/// # Examples
///
/// ```
/// use atomique::{compile, AtomiqueConfig};
/// use raa_circuit::{Circuit, Gate, Qubit};
///
/// let mut bell = Circuit::new(2);
/// bell.push(Gate::h(Qubit(0)));
/// bell.push(Gate::cx(Qubit(0), Qubit(1)));
/// let out = compile(&bell, &AtomiqueConfig::default())?;
/// assert_eq!(out.stats.two_qubit_gates, 1);
/// assert!(out.total_fidelity() > 0.99);
/// # Ok::<(), atomique::CompileError>(())
/// ```
pub fn compile(
    circuit: &Circuit,
    config: &AtomiqueConfig,
) -> Result<CompiledProgram, CompileError> {
    compile_with_limits(circuit, config, CompileLimits::none())
}

/// [`compile`] under caller-imposed [`CompileLimits`].
///
/// The deadline is enforced at stage boundaries: the pipeline finishes
/// the stage it is in, checks the clock, and aborts with
/// [`CompileError::Deadline`] if the deadline has passed. A compile
/// that completes within its deadline is bit-identical to an unlimited
/// one — limits never change what is produced, only whether.
///
/// # Errors
///
/// Everything [`compile`] can return, plus [`CompileError::Deadline`]
/// on overrun.
pub fn compile_with_limits(
    circuit: &Circuit,
    config: &AtomiqueConfig,
    limits: CompileLimits,
) -> Result<CompiledProgram, CompileError> {
    // Record into the caller's raa-trace session when it records at
    // least what this compile asks for (a bench can own one session
    // across a whole suite, so all its compiles share a clock).
    // Otherwise run a session of our own and leave the caller's as it
    // was: the report never depends on who called.
    let level = if config.trace {
        Level::Detail
    } else {
        Level::Stages
    };
    let (result, trace) = if raa_trace::level() >= level {
        let mark = raa_trace::mark();
        let result = compile_under_trace(circuit, config, &limits);
        (result, raa_trace::report_since(&mark))
    } else {
        raa_trace::isolated(level, || compile_under_trace(circuit, config, &limits))
    };
    let report = CompileReport { trace };
    result.map(|mut out| {
        out.stats.compile_time_s = report.total_s();
        out.timings = report.stage_timings();
        out.report = report;
        out
    })
}

/// The pipeline body; every stage runs under its span, and the caller
/// derives all timing from the resulting tree.
fn compile_under_trace(
    circuit: &Circuit,
    config: &AtomiqueConfig,
    limits: &CompileLimits,
) -> Result<CompiledProgram, CompileError> {
    let _compile_span = raa_trace::span_at("compile", Level::Stages);

    // 0. Peephole optimization (the paper preprocesses with Qiskit
    // Optimization Level 3; see raa_circuit::optimize).
    let circuit = &{
        let _s = raa_trace::span_at("transpile", Level::Stages);
        raa_circuit::optimize(circuit)
    };

    // 1. Qubit-array mapper (Alg. 1).
    let array_mapping = {
        let _s = raa_trace::span_at("map", Level::Stages);
        map_arrays(
            circuit,
            &config.hardware,
            config.array_mapper,
            config.gamma,
            config.transpile_index,
        )?
    };

    // 2. SWAP insertion on the complete multipartite graph (Fig. 5).
    let transpiled = {
        let _s = raa_trace::span_at("transpile", Level::Stages);
        insert_swaps(
            circuit,
            &array_mapping,
            &config.sabre,
            config.transpile_index,
        )?
    };
    stage_gate("transpile", limits)?;

    // 3. Qubit-atom mapper (Figs. 6–7).
    let atom_mapping = {
        let _s = raa_trace::span_at("map", Level::Stages);
        map_to_atoms(
            &transpiled,
            &config.hardware,
            config.atom_mapper,
            config.seed,
        )?
    };
    stage_gate("map", limits)?;

    // 4. High-parallelism router (Figs. 8–11).
    let routed = {
        let _s = raa_trace::span_at("route", Level::Stages);
        route_movements(
            &transpiled,
            &atom_mapping,
            &config.hardware,
            &config.params,
            config.relaxation,
            config.router_mode,
            config.router_strategy,
            config.proximity_index,
        )?
    };
    stage_gate("route", limits)?;

    // 5. Fidelity estimation (Sec. V-A).
    let finalize_span = raa_trace::span_at("finalize", Level::Stages);
    let r = &routed.stats;
    let phase = GatePhaseStats {
        num_qubits: circuit.num_qubits(),
        one_qubit_gates: r.one_qubit_gates,
        two_qubit_gates: r.two_qubit_gates,
        one_qubit_time_s: r.one_qubit_layers as f64 * config.params.one_qubit_time_s,
        two_qubit_time_s: r.two_qubit_stages as f64 * config.params.two_qubit_time_s,
    };
    let (one_qubit, two_qubit) = gate_phase_fidelity(&config.params, &phase);
    let transfer = transfer_fidelity(
        &config.params,
        r.transfers,
        r.transfers as f64 * config.params.t_transfer_s,
        circuit.num_qubits(),
    );
    let fidelity = FidelityBreakdown {
        one_qubit,
        two_qubit,
        transfer,
        move_heating: r.f_heating,
        move_cooling: r.f_cooling,
        move_loss: r.f_loss,
        move_decoherence: r.f_decoherence,
    };

    let stats = CompileStats {
        num_qubits: circuit.num_qubits(),
        two_qubit_gates: r.two_qubit_gates,
        one_qubit_gates: r.one_qubit_gates,
        depth: r.two_qubit_stages,
        swaps_inserted: transpiled.swaps_inserted,
        additional_cnots: transpiled.additional_cnots(),
        execution_time_s: r.execution_time_s,
        total_move_distance_mm: r.total_move_distance_um / 1000.0,
        avg_move_distance_mm: if r.num_move_stages > 0 {
            r.total_move_distance_um / 1000.0 / r.num_move_stages as f64
        } else {
            0.0
        },
        num_move_stages: r.num_move_stages,
        cooling_events: r.cooling_events,
        overlap_rejections: r.overlap_rejections,
        transfers: r.transfers,
        // Filled in by `compile` from the root span once it closes.
        compile_time_s: 0.0,
    };
    let mut out = CompiledProgram {
        stages: routed.stages,
        mapping: atom_mapping,
        slot_of_qubit: transpiled.slot_of_qubit.clone(),
        slot_circuit: transpiled.circuit,
        stats,
        fidelity,
        isa: None,
        timings: crate::program::StageTimings::default(),
        report: CompileReport::default(),
    };
    drop(finalize_span);

    // 6. Opt-in ISA lowering, optimization and independent verification.
    if config.emit_isa || config.verify_isa {
        let mut isa = {
            let _s = raa_trace::span_at("lower", Level::Stages);
            crate::lower::emit_isa(&out, &config.hardware, "")
        };
        stage_gate("lower", limits)?;
        // Whether `optimize` already proved the stream with the oracle.
        let mut proven = false;
        // Optimize only when the stream is attached (emit_isa): with
        // verify_isa alone the optimized result would be discarded and
        // the fixpoint run would be pure wasted compile time.
        if config.emit_isa && config.opt_level != raa_isa::OptLevel::None {
            // The optimizer proves its result with the oracle before
            // returning it, so this can only shrink the stream, never
            // corrupt it; an input that fails the oracle comes back
            // untouched and unproven.
            let _s = raa_trace::span_at("opt", Level::Stages);
            let (optimized, report) = raa_isa::optimize(&isa, config.opt_level);
            isa = optimized;
            proven = !report.skipped_unverified;
            stage_gate("opt", limits)?;
        }
        if config.verify_isa {
            let _s = raa_trace::span_at("verify", Level::Stages);
            if !proven {
                raa_isa::check_legality(&isa).map_err(CompileError::IsaLegality)?;
                raa_isa::replay_verify(&isa).map_err(CompileError::IsaReplay)?;
            }
            drop(_s);
            stage_gate("verify", limits)?;
        }
        if config.emit_isa {
            out.isa = Some(isa);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ArrayMapperKind, AtomMapperKind, RouterMode};
    use raa_arch::{ArrayDims, RaaConfig};
    use raa_circuit::{Gate, Qubit};
    use rand::{rngs::StdRng, RngExt, SeedableRng};

    fn random_circuit(n: usize, gates: usize, seed: u64) -> Circuit {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut c = Circuit::new(n);
        for _ in 0..gates {
            let a = rng.random_range(0..n as u32);
            let mut b = rng.random_range(0..n as u32);
            while b == a {
                b = rng.random_range(0..n as u32);
            }
            if rng.random::<f64>() < 0.3 {
                c.push(Gate::rz(Qubit(a), 0.3));
            } else {
                c.push(Gate::cz(Qubit(a), Qubit(b)));
            }
        }
        c
    }

    #[test]
    fn compiles_bell_pair() {
        let mut c = Circuit::new(2);
        c.push(Gate::h(Qubit(0)));
        c.push(Gate::cx(Qubit(0), Qubit(1)));
        let out = compile(&c, &AtomiqueConfig::default()).unwrap();
        assert_eq!(out.stats.two_qubit_gates, 1);
        assert_eq!(out.stats.depth, 1);
        assert!(out.total_fidelity() > 0.99);
        assert!(out.stats.compile_time_s >= 0.0);
    }

    #[test]
    fn compiles_random_20q() {
        let c = random_circuit(20, 100, 1);
        let out = compile(&c, &AtomiqueConfig::default()).unwrap();
        // Every optimized logical CZ plus 3 per swap.
        let logical_2q = raa_circuit::optimize(&c)
            .decompose_to(raa_circuit::NativeGateSet::Cz)
            .two_qubit_count();
        assert_eq!(
            out.stats.two_qubit_gates,
            logical_2q + 3 * out.stats.swaps_inserted
        );
        assert_eq!(out.stats.additional_cnots, 3 * out.stats.swaps_inserted);
        assert!(out.stats.depth >= 1);
        assert!(out.total_fidelity() > 0.0 && out.total_fidelity() <= 1.0);
    }

    #[test]
    fn rejects_oversized_circuit() {
        let c = Circuit::new(400);
        assert!(matches!(
            compile(&c, &AtomiqueConfig::default()),
            Err(CompileError::Capacity { .. })
        ));
    }

    #[test]
    fn small_hardware_works() {
        let hw = RaaConfig::new(
            ArrayDims::new(3, 3),
            vec![ArrayDims::new(3, 3), ArrayDims::new(3, 3)],
        )
        .unwrap();
        let c = random_circuit(12, 40, 2);
        let out = compile(&c, &AtomiqueConfig::for_hardware(hw)).unwrap();
        assert!(out.stats.two_qubit_gates >= c.two_qubit_count());
    }

    #[test]
    fn parallel_router_no_deeper_than_serial() {
        let c = random_circuit(16, 60, 3);
        let cfg = AtomiqueConfig::default();
        let par = compile(&c, &cfg).unwrap();
        let ser = compile(
            &c,
            &AtomiqueConfig {
                router_mode: RouterMode::Serial,
                ..AtomiqueConfig::default()
            },
        )
        .unwrap();
        assert!(par.stats.depth <= ser.stats.depth);
        assert_eq!(par.stats.two_qubit_gates, ser.stats.two_qubit_gates);
    }

    #[test]
    fn max_k_cut_no_more_swaps_than_dense() {
        let c = random_circuit(24, 120, 4);
        let smart = compile(&c, &AtomiqueConfig::default()).unwrap();
        let dense = compile(
            &c,
            &AtomiqueConfig {
                array_mapper: ArrayMapperKind::Dense,
                ..AtomiqueConfig::default()
            },
        )
        .unwrap();
        assert!(
            smart.stats.swaps_inserted <= dense.stats.swaps_inserted,
            "max-k-cut {} swaps vs dense {}",
            smart.stats.swaps_inserted,
            dense.stats.swaps_inserted
        );
    }

    #[test]
    fn load_balance_fidelity_at_least_random() {
        let c = random_circuit(20, 80, 5);
        let lb = compile(&c, &AtomiqueConfig::default()).unwrap();
        let rnd = compile(
            &c,
            &AtomiqueConfig {
                atom_mapper: AtomMapperKind::Random,
                ..AtomiqueConfig::default()
            },
        )
        .unwrap();
        // Same gate counts; load balance should not be worse on depth by
        // more than a small factor (it is a heuristic, so allow slack).
        assert_eq!(lb.stats.two_qubit_gates, rnd.stats.two_qubit_gates);
        assert!(lb.stats.depth as f64 <= rnd.stats.depth as f64 * 1.5 + 5.0);
    }

    #[test]
    fn deterministic_compilation() {
        let c = random_circuit(15, 50, 6);
        let cfg = AtomiqueConfig::default();
        let a = compile(&c, &cfg).unwrap();
        let b = compile(&c, &cfg).unwrap();
        assert_eq!(a.stats.two_qubit_gates, b.stats.two_qubit_gates);
        assert_eq!(a.stats.depth, b.stats.depth);
        assert!((a.total_fidelity() - b.total_fidelity()).abs() < 1e-12);
    }

    #[test]
    fn opt_level_shrinks_the_attached_stream() {
        let c = random_circuit(14, 60, 7);
        let base = AtomiqueConfig {
            emit_isa: true,
            verify_isa: true,
            ..AtomiqueConfig::default()
        };
        let opt = AtomiqueConfig {
            opt_level: raa_isa::OptLevel::Aggressive,
            ..base.clone()
        };
        let plain = compile(&c, &base).unwrap().isa.unwrap();
        let optimized = compile(&c, &opt).unwrap().isa.unwrap();
        let before = raa_isa::IsaStats::of(&plain);
        let after = raa_isa::IsaStats::of(&optimized);
        assert!(after.instructions < before.instructions);
        assert!(after.line_travel_tracks <= before.line_travel_tracks + 1e-9);
        // verify_isa already ran the oracle on the optimized stream
        // inside compile; gate content is intact.
        assert_eq!(after.two_qubit_gates, before.two_qubit_gates);
        assert_eq!(after.one_qubit_gates, before.one_qubit_gates);
    }

    /// With every constraint relaxed the router emits streams the oracle
    /// rejects. At `-O2` `optimize` hands such a stream back unproven,
    /// and the `verify` stage must still run the oracle and fail.
    #[test]
    fn an_unproven_stream_fails_verification_at_every_level() {
        let c = random_circuit(20, 80, 13);
        for opt_level in [raa_isa::OptLevel::None, raa_isa::OptLevel::Aggressive] {
            let cfg = AtomiqueConfig {
                emit_isa: true,
                verify_isa: true,
                opt_level,
                relaxation: crate::config::Relaxation {
                    individual_addressing: true,
                    allow_order_violation: true,
                    allow_overlap: true,
                },
                ..AtomiqueConfig::default()
            };
            assert!(
                matches!(compile(&c, &cfg), Err(CompileError::IsaLegality(_))),
                "{opt_level:?}"
            );
        }
    }

    #[test]
    fn empty_circuit_compiles() {
        let c = Circuit::new(5);
        let out = compile(&c, &AtomiqueConfig::default()).unwrap();
        assert_eq!(out.stats.two_qubit_gates, 0);
        assert_eq!(out.stats.depth, 0);
        assert!((out.total_fidelity() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stage_spans_sum_to_compile_total() {
        let c = random_circuit(20, 100, 8);
        let cfg = AtomiqueConfig {
            emit_isa: true,
            verify_isa: true,
            opt_level: raa_isa::OptLevel::Aggressive,
            ..AtomiqueConfig::default()
        };
        let out = compile(&c, &cfg).unwrap();
        // One source of truth: the struct is exactly the tree-derived
        // view, and the total is exactly the root span.
        assert_eq!(out.timings, out.report.stage_timings());
        assert!((out.stats.compile_time_s - out.report.total_s()).abs() < 1e-12);
        for stage in ["lower", "opt", "verify"] {
            assert!(out.report.trace.find(stage).is_some(), "missing {stage}");
        }
        // The stage spans (plus the finalize glue span) tile the root:
        // their sum reaches the total to within epsilon. This is the
        // property the old double-Instant ladders could violate.
        let attributed = out.timings.sum_s() + out.report.trace.span_total_s("finalize");
        let total = out.stats.compile_time_s;
        assert!(attributed <= total + 1e-9);
        let eps = (total * 0.05).max(0.010);
        assert!(
            total - attributed < eps,
            "unattributed {:.6}s exceeds epsilon {:.6}s",
            total - attributed,
            eps
        );
    }

    #[test]
    fn detail_trace_attaches_counters() {
        let c = random_circuit(15, 50, 9);
        let traced = compile(
            &c,
            &AtomiqueConfig {
                trace: true,
                ..AtomiqueConfig::default()
            },
        )
        .unwrap();
        // Detail mode must have counted the router's admission attempts.
        assert!(traced.report.counter("route.try_add") > 0);
        // Stage-level (default) mode records spans but no counters.
        let plain = compile(&c, &AtomiqueConfig::default()).unwrap();
        assert!(plain.report.counters().is_empty());
        assert!(plain.report.root().is_some());
        assert_eq!(plain.timings, plain.report.stage_timings());
    }

    #[test]
    fn expired_deadline_aborts_at_the_first_stage_boundary() {
        let c = random_circuit(10, 30, 11);
        let limits = CompileLimits {
            deadline: Some(Instant::now()),
        };
        match compile_with_limits(&c, &AtomiqueConfig::default(), limits) {
            Err(CompileError::Deadline { stage }) => assert_eq!(stage, "transpile"),
            other => panic!("expected a deadline overrun, got {other:?}"),
        }
    }

    #[test]
    fn generous_deadline_changes_nothing() {
        let c = random_circuit(12, 40, 12);
        let cfg = AtomiqueConfig {
            emit_isa: true,
            verify_isa: true,
            ..AtomiqueConfig::default()
        };
        let limits = CompileLimits {
            deadline: Some(Instant::now() + std::time::Duration::from_secs(3600)),
        };
        let plain = compile(&c, &cfg).unwrap();
        let limited = compile_with_limits(&c, &cfg, limits).unwrap();
        assert_eq!(
            raa_isa::codec::to_bytes(plain.isa.as_ref().unwrap()),
            raa_isa::codec::to_bytes(limited.isa.as_ref().unwrap()),
        );
    }

    #[test]
    fn compile_records_into_an_enclosing_session() {
        let c = random_circuit(10, 30, 10);
        raa_trace::begin(raa_trace::Level::Detail);
        let first = compile(&c, &AtomiqueConfig::default()).unwrap();
        let second = compile(&c, &AtomiqueConfig::default()).unwrap();
        let outer = raa_trace::end();
        // Each call extracted only its own window...
        assert!(first.report.counter("route.try_add") > 0);
        assert_eq!(
            first.report.counter("route.try_add"),
            second.report.counter("route.try_add"),
            "deterministic compile, identical windows"
        );
        // ...while the enclosing session kept both compiles on one clock.
        assert_eq!(outer.spans.len(), 2);
        assert_eq!(
            outer.counter("route.try_add"),
            first.report.counter("route.try_add") + second.report.counter("route.try_add")
        );
        // The second window's offsets are relative to the outer session,
        // strictly after the first's.
        assert!(second.report.root().unwrap().start_ns > first.report.root().unwrap().start_ns);
    }

    #[test]
    fn compile_below_its_level_records_into_its_own_session() {
        let c = random_circuit(10, 30, 10);
        let cfg = AtomiqueConfig {
            trace: true,
            ..AtomiqueConfig::default()
        };
        let alone = compile(&c, &cfg).unwrap();
        raa_trace::begin(raa_trace::Level::Stages);
        let under = compile(&c, &cfg).unwrap();
        assert_eq!(raa_trace::level(), raa_trace::Level::Stages);
        let outer = raa_trace::end();
        // The detail compile kept its counters under a coarser caller...
        assert!(alone.report.counter("route.try_add") > 0);
        assert_eq!(under.report.counters(), alone.report.counters());
        // ...and left the caller's session untouched.
        assert!(outer.spans.is_empty());
        assert!(outer.counters.is_empty());
    }
}
