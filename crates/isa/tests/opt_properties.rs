//! Property tests of the ISA optimizer on randomized movement programs.
//!
//! The generator (shared with `check_modes.rs`, see `common/mod.rs`)
//! builds legal two-AOD movement programs and *inflates* them with
//! redundancy the passes are supposed to remove: split moves,
//! zero-length moves, redundant unparks, retract/approach round trips,
//! and no-op parks. The properties:
//!
//! * every `OptLevel` preserves `check_legality` + `replay_verify` and
//!   the exact sequence of gate events;
//! * instruction count and line travel never increase;
//! * the binary codec stays byte-stable on optimized programs;
//! * `optimize` is idempotent;
//! * `Aggressive` strips an inflated program back down to (at most) the
//!   size of the clean program it was inflated from;
//! * on every illegal stream the `check_modes.rs` mutations derive,
//!   `optimize` returns a proven stream or the input untouched.
//!
//! That proving the result once equals proving every candidate is a
//! `raa-isa` unit test (`opt::tests`), since the per-candidate loop is
//! private.

mod common;

use common::{gate_events, illegal_streams, programs, travel};
use proptest::prelude::*;
use raa_isa::{check_legality, codec, optimize, replay_verify, OptLevel};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Generated programs are legal and faithful before any optimization
    /// (otherwise the remaining properties would be vacuous).
    #[test]
    fn generated_programs_pass_the_oracle((clean, inflated) in programs()) {
        for p in [&clean, &inflated] {
            check_legality(p).map_err(|e| TestCaseError::fail(e.to_string()))?;
            replay_verify(p).map_err(|e| TestCaseError::fail(e.to_string()))?;
        }
    }

    /// Every level preserves the oracle and the gate events verbatim
    /// (no pass touches one), and never increases instruction count or
    /// line travel.
    #[test]
    fn every_level_is_safe_and_never_inflates((clean, inflated) in programs()) {
        for p in [&clean, &inflated] {
            for level in [OptLevel::None, OptLevel::Basic, OptLevel::Aggressive] {
                let (out, report) = optimize(p, level);
                prop_assert!(!report.skipped_unverified);
                check_legality(&out).map_err(|e| TestCaseError::fail(e.to_string()))?;
                replay_verify(&out).map_err(|e| TestCaseError::fail(e.to_string()))?;
                prop_assert_eq!(gate_events(&out), gate_events(p));
                prop_assert!(out.instrs.len() <= p.instrs.len());
                prop_assert!(travel(&out) <= travel(p) + 1e-9);
                prop_assert_eq!(report.instructions_after, out.instrs.len());
            }
        }
    }

    /// Codec byte-stability survives optimization at every level.
    #[test]
    fn codecs_stay_lossless_on_optimized_programs((_, inflated) in programs()) {
        for level in [OptLevel::Basic, OptLevel::Aggressive] {
            let (out, _) = optimize(&inflated, level);
            let bytes = codec::to_bytes(&out);
            let decoded = codec::from_bytes(&bytes).map_err(|e| TestCaseError::fail(e.to_string()))?;
            prop_assert_eq!(&decoded, &out);
            prop_assert_eq!(codec::to_bytes(&decoded), bytes);
        }
    }

    /// Optimization is idempotent: a second run finds nothing more.
    #[test]
    fn optimization_is_idempotent((_, inflated) in programs()) {
        for level in [OptLevel::Basic, OptLevel::Aggressive] {
            let (once, _) = optimize(&inflated, level);
            let (twice, report) = optimize(&once, level);
            prop_assert_eq!(&twice, &once);
            prop_assert_eq!(report.instructions_saved(), 0);
        }
    }

    /// Aggressive optimization removes all injected redundancy: the
    /// inflated program shrinks to at most the clean program's size.
    #[test]
    fn aggressive_strips_injected_redundancy((clean, inflated) in programs()) {
        let (out, _) = optimize(&inflated, OptLevel::Aggressive);
        prop_assert!(
            out.instrs.len() <= clean.instrs.len(),
            "optimized {} instrs, clean {}",
            out.instrs.len(),
            clean.instrs.len()
        );
        prop_assert!(travel(&out) <= travel(&clean) + 1e-9);
    }

    /// Passes run before anything checks their input. On every illegal
    /// stream the mutation classes generate, `optimize` must not panic,
    /// and must return either a stream that passes the oracle or the
    /// input untouched with `skipped_unverified` set.
    #[test]
    fn illegal_input_is_proven_or_returned_untouched(
        (clean, inflated) in programs(),
        bump in 1.0f64..5.0,
        dup in 0usize..4,
    ) {
        for bad in illegal_streams(&clean, &inflated, bump, dup) {
            prop_assert!(check_legality(&bad).is_err());
            for level in [OptLevel::Basic, OptLevel::Aggressive] {
                let (out, report) = optimize(&bad, level);
                if report.skipped_unverified {
                    prop_assert_eq!(&out, &bad);
                    prop_assert_eq!(report.instructions_saved(), 0);
                } else {
                    check_legality(&out).map_err(|e| TestCaseError::fail(e.to_string()))?;
                    replay_verify(&out).map_err(|e| TestCaseError::fail(e.to_string()))?;
                }
            }
        }
    }
}
