//! The ISA-optimizer acceptance suite: every named benchmark of the
//! workspace, compiled by Atomique and the lowered baselines, optimized
//! at every `OptLevel`, must
//!
//! * still pass the full oracle (legality + replay + a byte-stable
//!   codec round trip),
//! * keep the flattened observable gate sequence (exact below
//!   `Aggressive`, where no pass regroups pulses),
//! * never gain instructions, pulses or line travel at any level, and
//! * at `OptLevel::Aggressive`, *strictly* lose instructions and line
//!   travel on a majority of the movement (Atomique) streams — the
//!   transfer-based baseline lowerings carry no moves, so the optimizer
//!   is a verified identity there.
//!
//! The router emits one movement stage per planned gate set; merging
//! stages is the optimizer's job, so the pulses `-O2` recovers from
//! serial schedules are pinned per benchmark.

use atomique::{compile, emit_isa, AtomiqueConfig, RouterMode};
use raa_baselines::{
    compile_fixed, geyser_pulses, lower_fixed, lower_geyser, lower_tan, tan_iterp,
    FixedArchitecture,
};
use raa_benchmarks::{large_suite, small_suite, Benchmark};
use raa_circuit::NativeGateSet;
use raa_isa::{
    check_legality, codec, flat_gate_events, optimize, replay_verify, Instr, IsaProgram, IsaStats,
    OptLevel,
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
            let flat_trace = flat_gate_events(&program.instrs);

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
                    flat_gate_events(&out.instrs),
                    flat_trace,
                    "{}/{backend}@{level:?}: flattened gate sequence changed",
                    b.name
                );
                if level != OptLevel::Aggressive {
                    assert_eq!(
                        gate_events(&out),
                        trace,
                        "{}/{backend}@{level:?}: gate sequence changed",
                        b.name
                    );
                }

                let after = IsaStats::of(&out);
                assert!(
                    after.instructions <= before.instructions,
                    "{}/{backend}@{level:?}: instructions grew",
                    b.name
                );
                assert!(
                    after.pulses <= before.pulses,
                    "{}/{backend}@{level:?}: pulse count grew",
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

/// Per small-suite benchmark under `RouterMode::Serial`: the `-O0`
/// pulse count and the pulses `-O2`'s `parallelize` pass merges.
const SERIAL_MERGES: [(&str, usize, usize); 11] = [
    ("Mermin-Bell-5", 27, 0),
    ("VQE-10", 9, 0),
    ("VQE-20", 19, 0),
    ("Adder-10", 65, 0),
    ("BV-14", 13, 0),
    ("QSim-rand-5", 35, 0),
    ("QSim-rand-10", 88, 0),
    ("H2-4", 42, 0),
    ("QAOA-rand-5", 3, 0),
    ("QAOA-regu3-20", 33, 8),
    ("QAOA-regu4-10", 23, 5),
];

/// Serial scheduling leaves parallelism on the table by construction
/// (one gate per stage); `-O2` must recover exactly the pinned part of
/// it by merging pulses the serial router spread over separate stages.
/// Merging fewer — or more, which would mean the serial stream or the
/// pass changed — fails here.
#[test]
fn o2_recovers_pinned_pulses_from_serial_schedules() {
    let suite = small_suite();
    let names: Vec<&str> = suite.iter().map(|b| b.name).collect();
    let pinned: Vec<&str> = SERIAL_MERGES.iter().map(|&(name, _, _)| name).collect();
    assert_eq!(names, pinned, "small suite changed; re-pin SERIAL_MERGES");

    let cfg = AtomiqueConfig {
        emit_isa: true,
        router_mode: RouterMode::Serial,
        ..AtomiqueConfig::default()
    };
    let mut merged_total = 0;
    for (b, &(name, pulses, merged)) in suite.iter().zip(&SERIAL_MERGES) {
        let out = compile(&b.circuit, &cfg).unwrap_or_else(|e| panic!("{name}: {e}"));
        let raw = out.isa.as_ref().expect("emit_isa set");
        let (opt, report) = optimize(raw, OptLevel::Aggressive);
        assert_eq!(report.rejected_rewrites, 0, "{name}: unsafe rewrite");
        let (before, after) = (IsaStats::of(raw).pulses, IsaStats::of(&opt).pulses);
        assert_eq!(
            (before, report.merged_pulses),
            (pulses, merged),
            "{name}: (serial pulses, -O2 merged pulses)"
        );
        assert_eq!(after, before - merged, "{name}: pulses after -O2");
        merged_total += report.merged_pulses;
    }
    assert!(
        merged_total > 0,
        "-O2 merged no pulses on any serial small-suite stream"
    );
}
