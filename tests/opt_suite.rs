//! The ISA-optimizer acceptance suite: every named benchmark of the
//! workspace, compiled by Atomique and the lowered baselines, optimized
//! at every `OptLevel`, must
//!
//! * still pass the full oracle (legality + replay + a byte-stable
//!   codec round trip),
//! * keep the exact sequence of gate events: no pass touches a pulse, a
//!   Raman layer, a transfer or a cooling swap,
//! * never gain instructions or line travel at any level, and
//! * at `OptLevel::Aggressive`, *strictly* lose instructions and line
//!   travel on a majority of the movement (Atomique) streams — the
//!   transfer-based baseline lowerings carry no moves, so the optimizer
//!   is a verified identity there.

use atomique::{compile, emit_isa, AtomiqueConfig};
use raa_baselines::{
    compile_fixed, geyser_pulses, lower_fixed, lower_geyser, lower_tan, tan_iterp,
    FixedArchitecture,
};
use raa_benchmarks::{large_suite, relaxation_suite, small_suite, topology_suite, Benchmark};
use raa_circuit::NativeGateSet;
use raa_isa::{
    check_legality, codec, optimize, replay_verify, Instr, IsaProgram, IsaStats, OptLevel,
};
use raa_physics::HardwareParams;

fn full_suite() -> Vec<Benchmark> {
    let mut suite = large_suite();
    for b in small_suite() {
        if !suite.iter().any(|x| x.name == b.name) {
            suite.push(b);
        }
    }
    suite
}

/// All four backends' streams for one benchmark.
fn all_backends(b: &Benchmark) -> Vec<(&'static str, IsaProgram)> {
    let cfg = AtomiqueConfig::default();
    let params = HardwareParams::neutral_atom();

    let ours = compile(&b.circuit, &cfg).unwrap_or_else(|e| panic!("{}: {e}", b.name));
    let atomique = emit_isa(&ours, &cfg.hardware, b.name);

    let tan = tan_iterp(&b.circuit, &params);
    let tan = lower_tan(&b.circuit, &tan, "tan-iterp", b.name).unwrap();

    let fixed = compile_fixed(&b.circuit, FixedArchitecture::FaaRectangular, 0).unwrap();
    let fixed = lower_fixed(&fixed, b.name).unwrap();

    let native = b.circuit.decompose_to(NativeGateSet::Cz);
    let geyser = geyser_pulses(&native);
    let geyser = lower_geyser(&native, &geyser, b.name).unwrap();

    vec![
        ("atomique", atomique),
        ("tan-iterp", tan),
        ("faa-rect", fixed),
        ("geyser", geyser),
    ]
}

fn gate_events(p: &IsaProgram) -> Vec<Instr> {
    p.instrs
        .iter()
        .filter(|i| {
            matches!(
                i,
                Instr::RydbergPulse { .. }
                    | Instr::RamanLayer { .. }
                    | Instr::Transfer { .. }
                    | Instr::Cool { .. }
            )
        })
        .cloned()
        .collect()
}

fn assert_codec_stable(name: &str, backend: &str, program: &IsaProgram) {
    let bytes = codec::to_bytes(program);
    let decoded = codec::from_bytes(&bytes)
        .unwrap_or_else(|e| panic!("{name}/{backend}: binary decode: {e}"));
    assert_eq!(&decoded, program, "{name}/{backend}: binary round-trip");
    assert_eq!(
        codec::to_bytes(&decoded),
        bytes,
        "{name}/{backend}: binary re-encode"
    );
}

#[test]
fn optimizer_is_safe_and_effective_on_the_full_suite() {
    let mut movement_cases = 0usize;
    let mut strict_instr_wins = 0usize;
    let mut strict_travel_wins = 0usize;

    for b in full_suite() {
        for (backend, program) in all_backends(&b) {
            let before = IsaStats::of(&program);
            let trace = gate_events(&program);

            for level in [OptLevel::None, OptLevel::Basic, OptLevel::Aggressive] {
                let (out, report) = optimize(&program, level);
                assert!(
                    !report.skipped_unverified,
                    "{}/{backend}: input failed the oracle",
                    b.name
                );
                assert_eq!(
                    report.rejected_rewrites, 0,
                    "{}/{backend}@{level:?}: a pass produced an unsafe rewrite",
                    b.name
                );
                check_legality(&out)
                    .unwrap_or_else(|e| panic!("{}/{backend}@{level:?}: {e}", b.name));
                replay_verify(&out)
                    .unwrap_or_else(|e| panic!("{}/{backend}@{level:?}: {e}", b.name));
                assert_eq!(
                    gate_events(&out),
                    trace,
                    "{}/{backend}@{level:?}: gate sequence changed",
                    b.name
                );

                let after = IsaStats::of(&out);
                assert!(
                    after.instructions <= before.instructions,
                    "{}/{backend}@{level:?}: instructions grew",
                    b.name
                );
                assert!(
                    after.line_travel_tracks <= before.line_travel_tracks + 1e-9,
                    "{}/{backend}@{level:?}: line travel grew",
                    b.name
                );
                assert_codec_stable(b.name, backend, &out);

                if level == OptLevel::Aggressive && before.moves > 0 {
                    movement_cases += 1;
                    if after.instructions < before.instructions {
                        strict_instr_wins += 1;
                    }
                    if after.line_travel_tracks < before.line_travel_tracks - 1e-9 {
                        strict_travel_wins += 1;
                    }
                }
            }
        }
    }

    // Aggressive must strictly win on a majority of movement streams.
    assert!(movement_cases > 0, "suite produced no movement streams");
    assert!(
        2 * strict_instr_wins > movement_cases,
        "instruction count strictly reduced on only {strict_instr_wins}/{movement_cases} movement cases"
    );
    assert!(
        2 * strict_travel_wins > movement_cases,
        "line travel strictly reduced on only {strict_travel_wins}/{movement_cases} movement cases"
    );
}

#[test]
fn compile_with_opt_level_matches_standalone_optimization() {
    // The `AtomiqueConfig::opt_level` knob must produce exactly the
    // stream `raa_isa::optimize` produces on the unoptimized lowering.
    let b = &small_suite()[0];
    let base = AtomiqueConfig {
        emit_isa: true,
        verify_isa: true,
        ..AtomiqueConfig::default()
    };
    let opt = AtomiqueConfig {
        opt_level: OptLevel::Aggressive,
        ..base.clone()
    };
    let plain = compile(&b.circuit, &base).unwrap().isa.unwrap();
    let wired = compile(&b.circuit, &opt).unwrap().isa.unwrap();
    let (standalone, _) = optimize(&plain, OptLevel::Aggressive);
    assert_eq!(wired, standalone);
}

/// The small suite plus the seed-2024 circuits on which `-O2` used to
/// merge pulses at the default configuration.
fn motion_only_suite() -> Vec<Benchmark> {
    const MERGED: [&str; 4] = ["QAOA-rand-30", "QAOA-rand-50", "QAOA-rand-100", "Arb-100Q"];
    let mut suite = small_suite();
    let small = suite.len();
    suite.extend(
        [large_suite(), relaxation_suite(), topology_suite()]
            .into_iter()
            .flatten()
            .filter(|b| MERGED.contains(&b.name)),
    );
    assert_eq!(suite.len(), small + MERGED.len(), "a suite lost a circuit");
    suite
}

/// `-O2` moves atoms and nothing else: its stream fires exactly the
/// router's pulses, each with the pair list the router gave it, between
/// the same Raman layers, transfers and cooling swaps as the `-O0`
/// stream of the same compile.
#[test]
fn o2_fires_exactly_the_router_pulses() {
    let o0 = AtomiqueConfig {
        emit_isa: true,
        ..AtomiqueConfig::default()
    };
    let o2 = AtomiqueConfig {
        opt_level: OptLevel::Aggressive,
        ..o0.clone()
    };
    for b in motion_only_suite() {
        let stream = |cfg: &AtomiqueConfig| {
            let out = compile(&b.circuit, cfg).unwrap_or_else(|e| panic!("{}: {e}", b.name));
            out.isa.expect("emit_isa set")
        };
        let (raw, optimized) = (stream(&o0), stream(&o2));
        assert_eq!(
            gate_events(&optimized),
            gate_events(&raw),
            "{}: -O2 changed a gate event",
            b.name
        );
    }
}
