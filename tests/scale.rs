//! Large-array scale smoke tests (ROADMAP "Router performance", paper
//! Fig. 20's 1000+-qubit extrapolations): generated 512- and 1024-atom
//! workloads must compile through the full pipeline, pass the ISA
//! legality + replay oracle, and stay within generous *stage-count*
//! bounds. Only the 1024-atom oracle test adds a wall-clock guard, an
//! order of magnitude above a healthy compile, so the tests guard
//! scalability without becoming timing-flaky.
//!
//! The 1024-atom tests and the 1024/2048-atom route-decision pins are
//! ignored in debug builds (the tier-1 `cargo test -q` run) and
//! exercised by CI's `cargo test -q --release --test scale` step. The
//! concurrency tests pin that compiles running side by side — eight OS
//! threads at 1024 atoms, or a bench suite fanned out over a pool —
//! never share telemetry.

use atomique::{compile, AtomiqueConfig, CompiledProgram, LineMove, OptLevel};
use raa_bench::harness::compile_suite_pooled;
use raa_benchmarks::{scaling_pair, small_suite, Benchmark};
use raa_isa::codec;
use raa_par::WorkPool;

fn compile_and_verify(b: &Benchmark, qubits: usize) -> atomique::CompiledProgram {
    let cfg = AtomiqueConfig {
        emit_isa: true,
        verify_isa: true,
        ..AtomiqueConfig::scaled_to(qubits)
    };
    let out = compile(&b.circuit, &cfg).unwrap_or_else(|e| panic!("{}: {e}", b.name));
    assert!(out.isa.is_some(), "{}: stream not attached", b.name);
    assert_disabled_tracing_is_coarse(b, &out);
    out
}

/// Disabled-mode overhead guard: `trace` is off here, so even a
/// 1024-atom compile must attach zero counters and a fixed coarse
/// handful of stage spans — the per-event fast path (one thread-local
/// level load) never materializes per-gate telemetry. A failure means
/// detail instrumentation started running unconditionally, i.e. the
/// "near-free when disabled" contract broke at exactly the scale where
/// it costs the most.
fn assert_disabled_tracing_is_coarse(b: &Benchmark, out: &atomique::CompiledProgram) {
    fn count_spans(spans: &[atomique::trace::SpanNode]) -> usize {
        spans.iter().map(|s| 1 + count_spans(&s.children)).sum()
    }
    assert!(
        out.report.trace.counters.is_empty(),
        "{}: counters recorded with tracing disabled: {:?}",
        b.name,
        out.report.trace.counters
    );
    let n = count_spans(&out.report.trace.spans);
    assert!(
        n <= 16,
        "{}: {n} spans recorded at stage level for a {}-qubit workload",
        b.name,
        out.stats.num_qubits
    );
}

/// Stage-count sanity: every two-qubit stage executes at least one gate,
/// and fallbacks (resets, transfers) stay a bounded multiple of the
/// useful work. The factor is generous — the point is catching
/// super-linear blowups (a stage-per-gate router that stops finding
/// parallelism, or a reset storm), not pinning exact schedules.
fn assert_stage_bounds(b: &Benchmark, out: &atomique::CompiledProgram) {
    let gates = out.stats.two_qubit_gates;
    assert!(gates > 0, "{}: no two-qubit gates routed", b.name);
    assert!(
        out.stats.depth <= gates,
        "{}: {} stages for {} gates",
        b.name,
        out.stats.depth,
        gates
    );
    assert!(
        out.stages.len() <= 4 * gates + out.stats.one_qubit_gates + 16,
        "{}: {} total stages for {} 2Q / {} 1Q gates",
        b.name,
        out.stages.len(),
        gates,
        out.stats.one_qubit_gates
    );
    assert!(
        out.stats.transfers <= gates,
        "{}: {} transfers for {} gates",
        b.name,
        out.stats.transfers,
        gates
    );
}

/// 512 atoms route and verify in every build profile.
#[test]
fn routes_512_atom_workloads() {
    for b in scaling_pair("QSim-512", "QAOA-regu3-512", 512) {
        let out = compile_and_verify(&b, 512);
        assert_eq!(out.stats.num_qubits, 512, "{}", b.name);
        assert_stage_bounds(&b, &out);
    }
}

/// The full 1024-atom scaling workloads compile through
/// `atomique::compile` with ISA legality + replay passing — the
/// acceptance bar for Fig. 20-scale machines — under a wall-clock
/// guard: an accidental O(stages × atoms²) regression in the router
/// would show up as a multi-minute compile long before any stage-count
/// bound trips. The guard is generous (CI machines are slow), but a
/// quadratic blowup at 1024 atoms overshoots it by an order of
/// magnitude. Release builds only.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow in debug; CI runs it via cargo test --release"
)]
fn compiles_1024_atom_workloads_through_the_isa_oracle() {
    const GUARD_S: f64 = 90.0;
    for b in scaling_pair("QSim-1024", "QAOA-regu3-1024", 1024) {
        let t0 = std::time::Instant::now();
        let out = compile_and_verify(&b, 1024);
        let elapsed = t0.elapsed().as_secs_f64();
        assert!(
            elapsed < GUARD_S,
            "{}: compile + verify took {elapsed:.1}s (guard {GUARD_S}s)",
            b.name
        );
        assert_eq!(out.stats.num_qubits, 1024, "{}", b.name);
        assert_stage_bounds(&b, &out);
    }
}

/// Concurrency stress: the 1024-atom QAOA workload compiled 8× at once
/// from 8 plain OS threads. Every compile must produce byte-identical
/// ISA to a reference compile with exactly the reference's counter
/// table: trace sessions are per-thread, so eight concurrent
/// detail-traced compiles may not bleed a single increment into each
/// other. Release builds only.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow in debug; CI runs it via cargo test --release"
)]
fn concurrent_1024_atom_compiles_are_isolated_and_identical() {
    let [_, b] = scaling_pair("QSim-1024", "QAOA-regu3-1024", 1024);
    let cfg = AtomiqueConfig {
        emit_isa: true,
        verify_isa: true,
        trace: true,
        ..AtomiqueConfig::scaled_to(1024)
    };
    let reference = compile(&b.circuit, &cfg).unwrap_or_else(|e| panic!("{}: {e}", b.name));
    let ref_bytes = codec::to_bytes(reference.isa.as_ref().expect("stream attached"));
    let ref_counters = reference.report.counters().to_vec();
    assert!(
        ref_counters.iter().any(|(_, v)| *v > 0),
        "{}: reference compile recorded no counters",
        b.name
    );

    let outputs: Vec<atomique::CompiledProgram> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let (circuit, cfg) = (&b.circuit, &cfg);
                scope.spawn(move || compile(circuit, cfg).expect("concurrent compile"))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("no panic"))
            .collect()
    });
    for (i, out) in outputs.iter().enumerate() {
        assert_eq!(
            codec::to_bytes(out.isa.as_ref().expect("stream attached")),
            ref_bytes,
            "{}: concurrent compile {i} ISA differs",
            b.name
        );
        assert_eq!(
            out.report.counters(),
            &ref_counters[..],
            "{}: concurrent compile {i} counter cross-talk",
            b.name
        );
    }
}

/// Bit-level line-move equality (unpark markers carry NaN coordinates,
/// so `==` on the floats would never match them).
fn moves_eq(a: &[LineMove], b: &[LineMove]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.aod == y.aod
                && x.axis_row == y.axis_row
                && x.line == y.line
                && x.from_track.to_bits() == y.from_track.to_bits()
                && x.to_track.to_bits() == y.to_track.to_bits()
        })
}

/// The names of the compile root's direct children — the stage-span
/// set.
fn stage_span_names(out: &CompiledProgram) -> Vec<String> {
    out.report
        .root()
        .map(|root| root.children.iter().map(|s| s.name.clone()).collect())
        .unwrap_or_default()
}

/// `fanned` must be observably identical to `seq`: the same schedule
/// down to every line move, the same mapping and statistics,
/// byte-identical ISA, the same stage-span set and every counter equal
/// to the last increment. The schedule is compared directly because
/// different -O2 schedules can lower to the same bytes.
fn assert_observably_identical(ctx: &str, seq: &CompiledProgram, fanned: &CompiledProgram) {
    assert_eq!(
        seq.stages.len(),
        fanned.stages.len(),
        "{ctx}: stage counts differ"
    );
    for (i, (s, p)) in seq.stages.iter().zip(fanned.stages.iter()).enumerate() {
        assert_eq!(s.kind, p.kind, "{ctx}: stage {i} kind");
        assert_eq!(s.gate_pairs, p.gate_pairs, "{ctx}: stage {i} gate pairs");
        assert_eq!(
            s.one_qubit_gates, p.one_qubit_gates,
            "{ctx}: stage {i} 1Q gates"
        );
        assert!(moves_eq(&s.moves, &p.moves), "{ctx}: stage {i} moves");
        assert!(
            moves_eq(&s.retract_moves, &p.retract_moves),
            "{ctx}: stage {i} retraction moves"
        );
    }
    assert_eq!(seq.mapping, fanned.mapping, "{ctx}: atom mappings differ");
    assert_eq!(
        seq.stats.two_qubit_gates, fanned.stats.two_qubit_gates,
        "{ctx}: gate counts differ"
    );
    assert_eq!(seq.stats.depth, fanned.stats.depth, "{ctx}: depths differ");
    assert_eq!(
        codec::to_bytes(seq.isa.as_ref().expect("emit_isa set")),
        codec::to_bytes(fanned.isa.as_ref().expect("emit_isa set")),
        "{ctx}: ISA streams differ"
    );
    assert_eq!(
        stage_span_names(seq),
        stage_span_names(fanned),
        "{ctx}: stage-span sets differ"
    );
    assert_eq!(
        seq.report.counters(),
        fanned.report.counters(),
        "{ctx}: counter cross-talk"
    );
}

/// The whole-suite fan-out: every small-suite benchmark compiled
/// concurrently on one 4-worker pool via `compile_suite_pooled`. Each
/// job owns its trace session, so each fanned-out compile must be
/// observably identical to its sequential compile — concurrent sessions
/// may not bleed increments into each other — and results come back in
/// submission order.
#[test]
fn suite_fanout_has_no_counter_cross_talk() {
    let suite = small_suite();
    let cfg = AtomiqueConfig {
        emit_isa: true,
        verify_isa: true,
        opt_level: OptLevel::Aggressive,
        trace: true,
        ..AtomiqueConfig::default()
    };
    let jobs: Vec<(&str, &raa_circuit::Circuit, AtomiqueConfig)> = suite
        .iter()
        .map(|b| (b.name, &b.circuit, cfg.clone()))
        .collect();
    let pooled = compile_suite_pooled(&jobs, &WorkPool::new(4));
    assert_eq!(pooled.len(), suite.len());
    for (b, fanned) in suite.iter().zip(&pooled) {
        let seq = compile(&b.circuit, &cfg).unwrap_or_else(|e| panic!("{}: {e}", b.name));
        assert!(seq.report.counter("route.try_add") > 0, "{}", b.name);
        assert_observably_identical(&format!("{}/suite-fanout", b.name), &seq, fanned);
    }
}

/// FNV-1a-64 over `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The route decision counters [`ROUTE_PINS`] records, in order.
const DECISION_COUNTERS: [&str; 5] = [
    "route.gates_planned",
    "route.reject.target_conflict",
    "route.reject.addressing",
    "route.reject.order",
    "route.reject.overlap",
];

/// Per QAOA-regu3 size: the FNV-1a-64 hash of the encoded ISA stream
/// and the [`DECISION_COUNTERS`]. Any change to an admission decision
/// moves at least one of them.
const ROUTE_PINS: &[(usize, u64, [u64; 5])] = &[
    (1024, 0x1b8415f8d561f181, [1593, 7521, 27298, 43912, 2213]),
    (
        2048,
        0xcb887b824850b4ad,
        [3109, 21627, 106191, 171526, 9216],
    ),
];

/// The router's decisions at 1024 and 2048 atoms stay pinned, and its
/// spatial-grid upkeep stays proportional to the gates it admits — a
/// work bound in place of a wall-clock guard, so it cannot flake on a
/// slow machine. Admission writes the grid only for accepted gates, so
/// re-buckets stay in the hundreds per admitted gate; writing and
/// rolling back every rejected attempt cost tens of thousands per gate
/// at 2048 atoms. Also pins the transfer accounting: every
/// transfer-assisted fallback stage charges exactly two SLM↔AOD
/// transfers, and these workloads do take that fallback. Release
/// builds only.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow in debug; CI runs it via cargo test --release"
)]
fn qaoa_1024_and_2048_route_decisions_are_pinned() {
    let mut actual = Vec::new();
    for n in [1024, 2048] {
        let [_, b] = scaling_pair("QSim", "QAOA-regu3", n);
        let cfg = AtomiqueConfig {
            emit_isa: true,
            verify_isa: true,
            trace: true,
            ..AtomiqueConfig::scaled_to(n)
        };
        let out = compile(&b.circuit, &cfg).unwrap_or_else(|e| panic!("{}-{n}: {e}", b.name));
        let hash = fnv1a64(&codec::to_bytes(out.isa.as_ref().expect("stream attached")));
        let decisions = DECISION_COUNTERS.map(|c| out.report.counter(c));
        let rebuckets = out.report.counter("grid.rebucket");
        assert!(
            rebuckets <= 2_000 * decisions[0],
            "{}-{n}: {rebuckets} grid re-buckets for {} admitted gates",
            b.name,
            decisions[0]
        );
        let fallbacks = out.report.counter("route.transfer_fallbacks");
        assert!(
            out.stats.transfers > 0,
            "{}-{n}: no transfer-assisted fallback",
            b.name
        );
        assert_eq!(
            out.stats.transfers as u64,
            2 * fallbacks,
            "{}-{n}: transfers are not two per fallback stage",
            b.name
        );
        actual.push((n, hash, decisions));
    }
    let render: String = actual
        .iter()
        .map(|(n, h, d)| {
            let cells = d.map(|v| v.to_string()).join(", ");
            format!("    ({n}, {h:#018x}, [{cells}]),\n")
        })
        .collect();
    assert_eq!(
        actual, ROUTE_PINS,
        "\nroute decisions drifted (ISA hash, then {DECISION_COUNTERS:?}).\n\
         If the change is intentional, replace ROUTE_PINS in tests/scale.rs with:\n{render}"
    );
}
