//! Truncation/corruption fuzzing of the binary codec.
//!
//! The binary codec is the wire format the serving layer hands to and
//! accepts from untrusted clients, so decode must be total: at *every*
//! prefix length of a valid stream it returns `Err` (never panics,
//! never silently succeeds), and the error names the byte offset where
//! the stream went bad.

mod common;

use proptest::prelude::*;
use raa_circuit::{Circuit, Gate, Qubit};
use raa_isa::{codec, DecodeError, Instr, IsaProgram, ProgramHeader, SiteSpec, FORMAT_VERSION};

/// A hand-built program exercising every instruction tag and every
/// gate tag of the format (the generated movement programs cover only
/// the movement subset).
fn full_coverage_program() -> IsaProgram {
    let mut c = Circuit::new(3);
    for g in [
        Gate::h(Qubit(0)),
        Gate::x(Qubit(1)),
        Gate::y(Qubit(2)),
        Gate::z(Qubit(0)),
        Gate::s(Qubit(1)),
        Gate::sdg(Qubit(2)),
        Gate::t(Qubit(0)),
        Gate::tdg(Qubit(1)),
        Gate::rx(Qubit(2), 0.25),
        Gate::ry(Qubit(0), -1.5),
        Gate::rz(Qubit(1), 3.125),
        Gate::u(Qubit(2), 0.1, 0.2, 0.3),
        Gate::cz(Qubit(0), Qubit(1)),
        Gate::cx(Qubit(1), Qubit(2)),
        Gate::zz(Qubit(0), Qubit(2), -2.75),
        Gate::swap(Qubit(0), Qubit(1)),
    ] {
        c.push(g);
    }
    IsaProgram {
        version: FORMAT_VERSION,
        header: ProgramHeader::new("fuzz", "tag coverage \u{1F600}"),
        slot_of_qubit: vec![2, 0, 1],
        sites: vec![
            SiteSpec {
                array: 0,
                row: 0,
                col: 0,
            },
            SiteSpec {
                array: 1,
                row: 0,
                col: 1,
            },
            SiteSpec {
                array: 2,
                row: 3,
                col: 2,
            },
        ],
        reference: c.clone(),
        instrs: vec![
            Instr::InitSlm { rows: 4, cols: 4 },
            Instr::InitAod {
                aod: 0,
                rows: 2,
                cols: 2,
                fx: 0.5,
                fy: 0.25,
            },
            Instr::RamanLayer {
                gates: vec![Gate::h(Qubit(0)), Gate::u(Qubit(1), 0.1, 0.2, 0.3)],
            },
            Instr::MoveRow {
                aod: 0,
                row: 1,
                from: 0.25,
                to: 0.75,
                retract: false,
            },
            Instr::MoveCol {
                aod: 0,
                col: 0,
                from: 0.5,
                to: 0.125,
                retract: true,
            },
            Instr::RydbergPulse {
                pairs: vec![(0, 1), (2, 0xFFFF)],
            },
            Instr::Unpark { aod: 0 },
            Instr::Transfer { a: 1, b: 2 },
            Instr::Cool { aod: 0 },
            Instr::Park { kept: vec![0] },
        ],
    }
}

/// Asserts that decoding every strict prefix of `bytes` fails with an
/// error that points inside the prefix.
fn assert_every_prefix_errs(bytes: &[u8]) {
    for cut in 0..bytes.len() {
        match codec::from_bytes(&bytes[..cut]) {
            Ok(_) => panic!("prefix of {cut}/{} bytes decoded successfully", bytes.len()),
            Err(DecodeError::UnexpectedEnd { offset, context }) => {
                assert!(
                    offset <= cut,
                    "prefix {cut}: error offset {offset} beyond input"
                );
                assert!(!context.is_empty(), "prefix {cut}: empty field context");
            }
            // A cut through a multi-byte UTF-8 character in a string
            // field reports the string's offset instead.
            Err(DecodeError::BadUtf8 { offset }) => {
                assert!(
                    offset <= cut,
                    "prefix {cut}: utf8 offset {offset} beyond input"
                );
            }
            Err(other) => panic!("prefix {cut}: unexpected error kind {other:?}"),
        }
    }
    // The full stream still decodes.
    codec::from_bytes(bytes).expect("untruncated stream must decode");
}

#[test]
fn every_prefix_of_a_full_coverage_stream_errors_with_offsets() {
    let bytes = codec::to_bytes(&full_coverage_program());
    assert_every_prefix_errs(&bytes);
}

#[test]
fn single_byte_corruption_never_panics() {
    let bytes = codec::to_bytes(&full_coverage_program());
    for i in 0..bytes.len() {
        for flip in [0xFF, 0x01, 0x80] {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= flip;
            // Any outcome but a panic is acceptable: some corruptions
            // decode to a different (still well-formed) program.
            let _ = codec::from_bytes(&corrupt);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every prefix of every generated movement program errors with an
    /// in-range offset; the full stream decodes.
    #[test]
    fn every_prefix_of_generated_streams_errors((clean, inflated) in common::programs()) {
        assert_every_prefix_errs(&codec::to_bytes(&clean));
        assert_every_prefix_errs(&codec::to_bytes(&inflated));
    }
}
