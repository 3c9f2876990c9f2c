//! Full-suite differential tests of the verification fast paths:
//!
//! * the legality checker's `CheckMode::Lines` must return exactly the
//!   verdict of `CheckMode::Exhaustive` — on every raw and every
//!   optimized stream of both benchmark suites across all four
//!   backends, and on the Atomique streams compiled with relaxed
//!   constraints, which are illegal by design;
//! * the optimizer, which proves its result once instead of every
//!   candidate, must refuse no rewrite on any of those streams at `-O0`
//!   or `-O2`, and both modes must accept what it returns. (With no
//!   refusal, proving once and proving every candidate accept the same
//!   rewrites; the `raa-isa` unit tests check that equality on
//!   generated programs, and a deliberately broken pass.)
//!
//! Together with the randomized `crates/isa/tests/check_modes.rs` (which
//! also covers *illegal* streams) this is the evidence that the line
//! sweep is a pure acceleration: it can change how fast a verdict is
//! reached, never the verdict.

use atomique::{compile, emit_isa, AtomiqueConfig, Relaxation};
use raa_baselines::{
    compile_fixed, geyser_pulses, lower_fixed, lower_geyser, lower_tan, tan_iterp,
    FixedArchitecture,
};
use raa_benchmarks::{large_suite, small_suite, Benchmark};
use raa_circuit::NativeGateSet;
use raa_isa::{check_legality_mode, optimize, CheckMode, IsaProgram, LegalityError, OptLevel};
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

fn assert_modes_agree(name: &str, backend: &str, what: &str, p: &IsaProgram) {
    let lines = check_legality_mode(p, CheckMode::Lines);
    let scan = check_legality_mode(p, CheckMode::Exhaustive);
    assert_eq!(lines, scan, "{name}/{backend}: modes disagree on {what}");
    lines.unwrap_or_else(|e| panic!("{name}/{backend}: {what} stream illegal: {e}"));
}

#[test]
fn check_modes_agree_and_no_rewrite_is_refused_on_the_full_suite() {
    for b in full_suite() {
        for (backend, program) in all_backends(&b) {
            assert_modes_agree(b.name, backend, "raw", &program);

            for (level, what) in [(OptLevel::None, "-O0"), (OptLevel::Aggressive, "-O2")] {
                let (out, report) = optimize(&program, level);
                assert!(
                    !report.skipped_unverified,
                    "{}/{backend}@{what}: stream left unproven",
                    b.name
                );
                assert_eq!(
                    report.rejected_rewrites, 0,
                    "{}/{backend}@{what}: a rewrite was refused",
                    b.name
                );
                assert_modes_agree(b.name, backend, what, &out);
            }
        }
    }
}

/// The relaxed router configurations: each of C1, C2 and C3 relaxed
/// alone (paper Fig. 22), and all three at once.
fn relaxations() -> [Relaxation; 4] {
    [
        Relaxation {
            individual_addressing: true,
            ..Relaxation::NONE
        },
        Relaxation {
            allow_order_violation: true,
            ..Relaxation::NONE
        },
        Relaxation {
            allow_overlap: true,
            ..Relaxation::NONE
        },
        Relaxation {
            individual_addressing: true,
            allow_order_violation: true,
            allow_overlap: true,
        },
    ]
}

/// A relaxed router emits streams the checker must reject: unwanted
/// interactions, crossed lines, overlapping lines. Each stream gets the
/// identical verdict from both modes, error fields included.
#[test]
fn check_modes_agree_on_relaxed_atomique_streams() {
    let (mut streams, mut unwanted, mut order, mut overlap) = (0, 0, 0, 0);
    for b in full_suite() {
        for relaxation in relaxations() {
            let cfg = AtomiqueConfig {
                relaxation,
                ..AtomiqueConfig::default()
            };
            let out = compile(&b.circuit, &cfg).unwrap_or_else(|e| panic!("{}: {e}", b.name));
            let isa = emit_isa(&out, &cfg.hardware, b.name);
            let lines = check_legality_mode(&isa, CheckMode::Lines);
            let scan = check_legality_mode(&isa, CheckMode::Exhaustive);
            assert_eq!(
                lines, scan,
                "{} under {relaxation:?}: modes disagree",
                b.name
            );
            streams += 1;
            match lines {
                Ok(()) => {}
                Err(LegalityError::UnwantedInteraction { .. }) => unwanted += 1,
                Err(LegalityError::OrderViolation { .. }) => order += 1,
                Err(LegalityError::LineOverlap { .. }) => overlap += 1,
                Err(e) => panic!("{} under {relaxation:?}: unexpected {e}", b.name),
            }
        }
    }
    println!(
        "{streams} streams: {unwanted} UnwantedInteraction, {order} OrderViolation, \
         {overlap} LineOverlap"
    );
    assert!(
        unwanted > 0 && order > 0 && overlap > 0,
        "the relaxed compiles must exercise every geometric error kind"
    );
}
