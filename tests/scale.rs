//! Large-array scale smoke tests (ROADMAP "Router performance", paper
//! Fig. 20's 1000+-qubit extrapolations): generated 512- and 1024-atom
//! workloads must compile through the full pipeline, pass the
//! independent stage validator and the ISA legality + replay oracle, and
//! stay within generous *stage-count* bounds — deliberately wall-clock
//! free, so the tests guard scalability without becoming timing-flaky.
//!
//! The 1024-atom tests and the 1024/2048-atom route-decision pins are
//! ignored in debug builds (the tier-1 `cargo test -q` run) and
//! exercised by CI's `cargo test -q --release --test scale` step.

use atomique::{compile, validate_program, AtomiqueConfig, RouterStrategy};
use raa_benchmarks::{scaling_pair, Benchmark};

fn compile_and_verify_with(
    b: &Benchmark,
    qubits: usize,
    strategy: RouterStrategy,
) -> atomique::CompiledProgram {
    let cfg = AtomiqueConfig {
        emit_isa: true,
        verify_isa: true,
        router_strategy: strategy,
        ..AtomiqueConfig::scaled_to(qubits)
    };
    let out =
        compile(&b.circuit, &cfg).unwrap_or_else(|e| panic!("{} ({strategy:?}): {e}", b.name));
    validate_program(&out, &cfg.hardware, &out.mapping.site_of_slot)
        .unwrap_or_else(|e| panic!("{} ({strategy:?}): validator: {e}", b.name));
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

fn compile_and_verify(b: &Benchmark, qubits: usize) -> atomique::CompiledProgram {
    compile_and_verify_with(b, qubits, RouterStrategy::Sequential)
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

/// 512 atoms route, validate and verify in every build profile.
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
/// acceptance bar for Fig. 20-scale machines. Release builds only.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow in debug; CI runs it via cargo test --release"
)]
fn compiles_1024_atom_workloads_through_the_isa_oracle() {
    for b in scaling_pair("QSim-1024", "QAOA-regu3-1024", 1024) {
        let out = compile_and_verify(&b, 1024);
        assert_eq!(out.stats.num_qubits, 1024, "{}", b.name);
        assert_stage_bounds(&b, &out);
    }
}

/// Nested-pool stress: the 1024-atom QAOA workload compiled 8× at once
/// from 8 plain OS threads, each compile running its own 2-worker
/// `raa-par` pool (so pool waves nest inside foreign threads the pool
/// never spawned). Must not deadlock — pools are capacity descriptors
/// whose workers are scoped per wave, so concurrent compiles never
/// contend on shared pool state — and every compile must produce
/// byte-identical ISA to a single-threaded reference with exactly the
/// reference's counter table: trace sessions are per-thread, so eight
/// concurrent detail-traced compiles may not bleed a single increment
/// into each other. Release builds only.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow in debug; CI runs it via cargo test --release"
)]
fn concurrent_1024_atom_compiles_are_isolated_and_identical() {
    use raa_isa::codec;

    let [_, b] = scaling_pair("QSim-1024", "QAOA-regu3-1024", 1024);
    let cfg = AtomiqueConfig {
        emit_isa: true,
        verify_isa: true,
        trace: true,
        threads: 1,
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

    let nested_cfg = AtomiqueConfig {
        threads: 2,
        ..cfg.clone()
    };
    let outputs: Vec<atomique::CompiledProgram> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let circuit = &b.circuit;
                let nested_cfg = &nested_cfg;
                scope.spawn(move || compile(circuit, nested_cfg).expect("concurrent compile"))
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

/// The 1024-atom workloads under *both* router strategies, with a
/// wall-clock guard: layered batching replans the whole schedule
/// (compatibility scan + merged-pulse geometry per candidate) and an
/// accidental O(stages × atoms²) regression there — or in the
/// sequential planner it wraps — would show up as a multi-minute
/// compile long before any stage-count bound trips. The guard is
/// generous (CI machines are slow), but a quadratic blowup at 1024
/// atoms overshoots it by an order of magnitude. Layered must also
/// never schedule worse than sequential. Release builds only.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow in debug; CI runs it via cargo test --release"
)]
fn routes_1024_atom_workloads_under_both_strategies_within_wall_clock() {
    const GUARD_S: f64 = 90.0;
    for b in scaling_pair("QSim-1024", "QAOA-regu3-1024", 1024) {
        let mut depths = Vec::new();
        for strategy in [RouterStrategy::Sequential, RouterStrategy::Layered] {
            let t0 = std::time::Instant::now();
            let out = compile_and_verify_with(&b, 1024, strategy);
            let elapsed = t0.elapsed().as_secs_f64();
            assert!(
                elapsed < GUARD_S,
                "{} ({strategy:?}): compile + verify took {elapsed:.1}s (guard {GUARD_S}s)",
                b.name
            );
            assert_stage_bounds(&b, &out);
            depths.push(out.stats.depth);
        }
        assert!(
            depths[1] <= depths[0],
            "{}: layered depth {} exceeds sequential {}",
            b.name,
            depths[1],
            depths[0]
        );
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
    (1024, 0xb4e2f2ea48cca1cb, [1593, 7521, 27298, 43912, 2213]),
    (
        2048,
        0xb844b2ec354326b7,
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
    use raa_isa::codec;

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
