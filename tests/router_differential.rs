//! Differential router harness: the line-sweep proximity enumeration
//! (`ProximityIndex::Lines`, the default) must be *observably identical*
//! to the exhaustive-scan oracle (`ProximityIndex::Exhaustive`). The
//! sweep only restricts which candidate atom pairs the constraint checks
//! enumerate — never the accept/reject predicates — so any divergence in
//! the compiled schedule is a bug in the enumeration.
//!
//! Coverage: the full small suite compiled under five router-relevant
//! Atomique configurations, asserting stage-for-stage equality (kinds,
//! gate sets, every line move bit-for-bit) and byte-identical lowered
//! ISA streams; plus byte-stability of the three baseline backends,
//! which must not be affected by the proximity-index setting at all.

use atomique::{
    compile, AtomiqueConfig, CompiledProgram, LineMove, ProximityIndex, Relaxation, Stage,
};
use raa_arch::RaaConfig;
use raa_baselines::{
    compile_fixed, geyser_pulses, lower_fixed, lower_geyser, lower_tan, tan_iterp,
    FixedArchitecture,
};
use raa_benchmarks::small_suite;
use raa_circuit::NativeGateSet;
use raa_isa::codec;
use raa_physics::HardwareParams;

/// The five router configurations the differential harness sweeps:
/// paper defaults, serial scheduling, the Fig. 21 all-baselines
/// ablation, a three-AOD machine, and C2/C3 relaxed (Fig. 22) with C1
/// kept, where rows and columns may bunch closer than the Rydberg
/// radius.
fn configs() -> Vec<(&'static str, AtomiqueConfig)> {
    let base = AtomiqueConfig {
        emit_isa: true,
        ..AtomiqueConfig::default()
    };
    vec![
        ("default", base.clone()),
        (
            "serial",
            AtomiqueConfig {
                router_mode: atomique::RouterMode::Serial,
                ..base.clone()
            },
        ),
        ("ablation-baseline", base.clone().ablation_baseline()),
        (
            "three-aods",
            AtomiqueConfig {
                hardware: RaaConfig::square(10, 3).expect("valid machine"),
                ..base.clone()
            },
        ),
        (
            "relaxed-order-overlap",
            AtomiqueConfig {
                relaxation: Relaxation {
                    allow_order_violation: true,
                    allow_overlap: true,
                    ..Relaxation::NONE
                },
                ..base
            },
        ),
    ]
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

fn assert_stage_eq(ctx: &str, i: usize, g: &Stage, s: &Stage) {
    assert_eq!(g.kind, s.kind, "{ctx}: stage {i} kind");
    assert_eq!(g.gate_pairs, s.gate_pairs, "{ctx}: stage {i} gate pairs");
    assert_eq!(
        g.one_qubit_gates, s.one_qubit_gates,
        "{ctx}: stage {i} 1Q gates"
    );
    assert_eq!(g.cooled_aod, s.cooled_aod, "{ctx}: stage {i} cooling");
    assert_eq!(g.kept_aods, s.kept_aods, "{ctx}: stage {i} kept AODs");
    assert!(moves_eq(&g.moves, &s.moves), "{ctx}: stage {i} moves");
    assert!(
        moves_eq(&g.retract_moves, &s.retract_moves),
        "{ctx}: stage {i} retraction moves"
    );
}

fn assert_programs_identical(ctx: &str, lines: &CompiledProgram, scan: &CompiledProgram) {
    assert_eq!(
        lines.stages.len(),
        scan.stages.len(),
        "{ctx}: stage counts differ"
    );
    for (i, (g, s)) in lines.stages.iter().zip(scan.stages.iter()).enumerate() {
        assert_stage_eq(ctx, i, g, s);
    }
    assert_eq!(lines.mapping, scan.mapping, "{ctx}: atom mappings differ");
    assert_eq!(
        lines.stats.two_qubit_gates, scan.stats.two_qubit_gates,
        "{ctx}: gate counts differ"
    );
    assert_eq!(lines.stats.depth, scan.stats.depth, "{ctx}: depths differ");
    assert_eq!(
        lines.stats.transfers, scan.stats.transfers,
        "{ctx}: transfer counts differ"
    );
    assert!(
        (lines.stats.total_move_distance_mm - scan.stats.total_move_distance_mm).abs() < 1e-12,
        "{ctx}: move distances differ"
    );
    // The lowered instruction streams must be byte-identical.
    let gb = codec::to_bytes(lines.isa.as_ref().expect("emit_isa set"));
    let sb = codec::to_bytes(scan.isa.as_ref().expect("emit_isa set"));
    assert_eq!(gb, sb, "{ctx}: ISA streams differ");
}

#[test]
fn grid_router_matches_exhaustive_oracle_on_the_small_suite() {
    for b in small_suite() {
        for (cfg_name, cfg) in configs() {
            let ctx = format!("{}/{cfg_name}", b.name);
            let lines = compile(
                &b.circuit,
                &AtomiqueConfig {
                    proximity_index: ProximityIndex::Lines,
                    ..cfg.clone()
                },
            )
            .unwrap_or_else(|e| panic!("{ctx} (lines): {e}"));
            let scan = compile(
                &b.circuit,
                &AtomiqueConfig {
                    proximity_index: ProximityIndex::Exhaustive,
                    ..cfg
                },
            )
            .unwrap_or_else(|e| panic!("{ctx} (exhaustive): {e}"));
            assert_programs_identical(&ctx, &lines, &scan);
        }
    }
}

/// Tracing is pure observation: compiling with detail tracing enabled
/// (`trace: true`) must produce output bit-identical to a compile with
/// it disabled — same stages, same line moves, byte-identical lowered
/// ISA — across all five router configurations. Counters and spans may
/// only ever *read* pipeline state; a divergence here means an
/// instrumentation site leaked into a scheduling decision.
#[test]
fn tracing_is_output_identical_on_the_small_suite() {
    for b in small_suite() {
        for (cfg_name, cfg) in configs() {
            let ctx = format!("{}/{cfg_name}/trace-identity", b.name);
            let off = compile(
                &b.circuit,
                &AtomiqueConfig {
                    trace: false,
                    ..cfg.clone()
                },
            )
            .unwrap_or_else(|e| panic!("{ctx} (off): {e}"));
            let on = compile(&b.circuit, &AtomiqueConfig { trace: true, ..cfg })
                .unwrap_or_else(|e| panic!("{ctx} (on): {e}"));
            assert_programs_identical(&ctx, &on, &off);
            // The traced compile really did record detail telemetry
            // (otherwise the identity above would be vacuous) …
            assert!(
                on.report.counter("route.try_add") > 0,
                "{ctx}: traced compile recorded no router counters"
            );
            // … and the untraced one recorded none.
            assert!(
                off.report.trace.counters.is_empty(),
                "{ctx}: counters recorded with tracing disabled"
            );
        }
    }
}

/// The three baseline backends never touch the movement router, so their
/// lowered streams must be bitwise-stable regardless of how the Atomique
/// side is configured — pinning down that the proximity index cannot
/// leak into any of the four backends' output.
#[test]
fn baseline_backends_are_byte_stable_across_proximity_modes() {
    let params = HardwareParams::neutral_atom();
    for b in small_suite() {
        let streams = || {
            let tan = tan_iterp(&b.circuit, &params);
            let tan = lower_tan(&b.circuit, &tan, "tan-iterp", b.name).unwrap();
            let fixed = compile_fixed(&b.circuit, FixedArchitecture::FaaRectangular, 0).unwrap();
            let fixed = lower_fixed(&fixed, b.name).unwrap();
            let native = b.circuit.decompose_to(NativeGateSet::Cz);
            let geyser = lower_geyser(&native, &geyser_pulses(&native), b.name).unwrap();
            [
                codec::to_bytes(&tan),
                codec::to_bytes(&fixed),
                codec::to_bytes(&geyser),
            ]
        };
        // One evaluation per proximity mode of the surrounding test run:
        // the baselines take no proximity configuration, so two
        // independent evaluations must agree byte for byte.
        assert_eq!(streams(), streams(), "{}: baselines not stable", b.name);
    }
}
