//! The ISA acceptance suite: every named benchmark of the workspace
//! (`raa-benchmarks` Table II sets), compiled by the Atomique pipeline
//! *and* by the lowered baselines, must produce instruction streams that
//!
//! * pass the standalone legality checker (C1/C2/C3 re-verified from the
//!   stream alone),
//! * pass the replay verifier (every reference gate exactly once, DAG
//!   order respected), and
//! * round-trip through the binary codec byte-identically.

use atomique::{compile, emit_isa, AtomiqueConfig};
use raa_baselines::{
    compile_fixed, geyser_pulses, lower_fixed, lower_geyser, lower_tan, tan_iterp,
    FixedArchitecture,
};
use raa_benchmarks::{large_suite, small_suite, Benchmark};
use raa_circuit::NativeGateSet;
use raa_isa::{check_legality, codec, replay_verify, IsaProgram, IsaStats};
use raa_physics::HardwareParams;

/// The codec half of the oracle: the stream must round-trip losslessly
/// and re-encode byte-identically.
fn assert_codec_lossless(name: &str, backend: &str, program: &IsaProgram) {
    let bytes = codec::to_bytes(program);
    let decoded = codec::from_bytes(&bytes)
        .unwrap_or_else(|e| panic!("{name}/{backend}: binary decode: {e}"));
    assert_eq!(
        &decoded, program,
        "{name}/{backend}: binary round-trip changed the program"
    );
    assert_eq!(
        codec::to_bytes(&decoded),
        bytes,
        "{name}/{backend}: binary re-encoding not byte-identical"
    );
}

/// The full oracle: legality + replay + codec.
fn assert_stream_ok(name: &str, backend: &str, program: &IsaProgram) {
    check_legality(program).unwrap_or_else(|e| panic!("{name}/{backend}: illegal stream: {e}"));
    let report = replay_verify(program)
        .unwrap_or_else(|e| panic!("{name}/{backend}: unfaithful stream: {e}"));
    let stats = IsaStats::of(program);
    assert_eq!(
        report.two_qubit_gates, stats.two_qubit_gates,
        "{name}/{backend}"
    );
    assert_eq!(
        report.one_qubit_gates, stats.one_qubit_gates,
        "{name}/{backend}"
    );
    assert_codec_lossless(name, backend, program);
}

fn full_suite() -> Vec<Benchmark> {
    let mut suite = large_suite();
    // small_suite repeats H2-4; keep one instance of each name.
    for b in small_suite() {
        if !suite.iter().any(|x| x.name == b.name) {
            suite.push(b);
        }
    }
    suite
}

#[test]
fn atomique_streams_pass_the_oracle_on_the_full_suite() {
    let cfg = AtomiqueConfig {
        emit_isa: true,
        verify_isa: true,
        ..AtomiqueConfig::default()
    };
    for b in full_suite() {
        // verify_isa already ran the oracle inside compile; re-run it on
        // the attached stream plus the codec checks, from the outside.
        let out = compile(&b.circuit, &cfg).unwrap_or_else(|e| panic!("{}: {e}", b.name));
        let isa = out.isa.as_ref().expect("emit_isa attaches the stream");
        assert_stream_ok(b.name, "atomique", isa);
        assert_eq!(
            IsaStats::of(isa).two_qubit_gates,
            out.stats.two_qubit_gates,
            "{}: stream and compiler disagree on gate count",
            b.name
        );
        // emit_isa on the same program is deterministic.
        let again = emit_isa(&out, &cfg.hardware, "");
        assert_eq!(&again, isa, "{}: re-lowering differs", b.name);
    }
}

#[test]
fn tan_streams_pass_the_oracle_on_the_full_suite() {
    let params = HardwareParams::neutral_atom();
    for b in full_suite() {
        let r = tan_iterp(&b.circuit, &params);
        let isa = lower_tan(&b.circuit, &r, "tan-iterp", b.name)
            .unwrap_or_else(|e| panic!("{}: {e}", b.name));
        assert_stream_ok(b.name, "tan-iterp", &isa);
        assert_eq!(
            IsaStats::of(&isa).transfers,
            r.two_qubit_gates,
            "{}",
            b.name
        );
    }
}

#[test]
fn fixed_streams_pass_the_oracle_on_the_full_suite() {
    for b in full_suite() {
        for arch in [
            FixedArchitecture::FaaRectangular,
            FixedArchitecture::Superconducting,
        ] {
            let r = compile_fixed(&b.circuit, arch, 0)
                .unwrap_or_else(|e| panic!("{} on {}: {e}", b.name, arch.name()));
            let isa = lower_fixed(&r, b.name)
                .unwrap_or_else(|e| panic!("{} on {}: {e}", b.name, arch.name()));
            assert_stream_ok(b.name, arch.name(), &isa);
        }
    }
}

#[test]
fn geyser_streams_pass_the_oracle_on_the_full_suite() {
    for b in full_suite() {
        let native = b.circuit.decompose_to(NativeGateSet::Cz);
        let r = geyser_pulses(&native);
        let isa = lower_geyser(&native, &r, b.name).unwrap_or_else(|e| panic!("{}: {e}", b.name));
        assert_stream_ok(b.name, "geyser", &isa);
    }
}
