//! Property tests of the ISA optimizer on randomized movement programs.
//!
//! The generator (shared with `check_modes.rs`, see `common/mod.rs`)
//! builds legal two-AOD movement programs and *inflates* them with
//! redundancy the passes are supposed to remove: split moves,
//! zero-length moves, redundant unparks, retract/approach round trips,
//! and no-op parks. The properties:
//!
//! * every `OptLevel` preserves `check_legality` + `replay_verify` and
//!   the observable gate sequence;
//! * instruction count and line travel never increase;
//! * both codecs stay byte-stable on optimized programs;
//! * `optimize` is idempotent;
//! * `Aggressive` strips an inflated program back down to (at most) the
//!   size of the clean program it was inflated from;
//! * the incremental re-verify harness and the full-oracle harness
//!   produce identical results.

mod common;

use common::{gate_events, programs, travel};
use proptest::prelude::*;
use raa_isa::{
    check_legality, check_legality_mode, codec, flat_gate_events, optimize, optimize_with,
    replay_verify, CheckMode, IsaStats, OptLevel, VerifyStrategy,
};

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

    /// Every level preserves the oracle and the flattened gate
    /// sequence, and never increases instruction count, pulse count or
    /// line travel. Below `Aggressive` no pass touches gate events, so
    /// the un-flattened sequence is preserved verbatim too.
    #[test]
    fn every_level_is_safe_and_never_inflates((clean, inflated) in programs()) {
        for p in [&clean, &inflated] {
            for level in [OptLevel::None, OptLevel::Basic, OptLevel::Aggressive] {
                let (out, report) = optimize(p, level);
                prop_assert!(!report.skipped_unverified);
                check_legality(&out).map_err(|e| TestCaseError::fail(e.to_string()))?;
                replay_verify(&out).map_err(|e| TestCaseError::fail(e.to_string()))?;
                prop_assert_eq!(flat_gate_events(&out.instrs), flat_gate_events(&p.instrs));
                if level != OptLevel::Aggressive {
                    prop_assert_eq!(gate_events(&out), gate_events(p));
                }
                prop_assert!(out.instrs.len() <= p.instrs.len());
                prop_assert!(IsaStats::of(&out).pulses <= IsaStats::of(p).pulses);
                prop_assert!(travel(&out) <= travel(p) + 1e-9);
                prop_assert_eq!(report.instructions_after, out.instrs.len());
            }
        }
    }

    /// The `parallelize` pass's contract: every merged pulse deletes
    /// exactly one pulse instruction, the merged stream passes the
    /// legality checker in *both* candidate-enumeration modes with the
    /// flattened gate trace intact, and re-optimizing finds nothing
    /// more (idempotence).
    #[test]
    fn parallelize_merges_are_verified_and_idempotent((_, inflated) in programs()) {
        let before_pulses = IsaStats::of(&inflated).pulses;
        let (out, report) = optimize(&inflated, OptLevel::Aggressive);
        prop_assert_eq!(
            IsaStats::of(&out).pulses,
            before_pulses - report.merged_pulses
        );
        check_legality_mode(&out, CheckMode::Lines)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        check_legality_mode(&out, CheckMode::Exhaustive)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(flat_gate_events(&out.instrs), flat_gate_events(&inflated.instrs));
        replay_verify(&out).map_err(|e| TestCaseError::fail(e.to_string()))?;
        let (again, again_report) = optimize(&out, OptLevel::Aggressive);
        prop_assert_eq!(&again, &out);
        prop_assert_eq!(again_report.merged_pulses, 0);
    }

    /// Codec byte-stability survives optimization at every level.
    #[test]
    fn codecs_stay_lossless_on_optimized_programs((_, inflated) in programs()) {
        for level in [OptLevel::Basic, OptLevel::Aggressive] {
            let (out, _) = optimize(&inflated, level);
            let json = codec::to_json(&out).map_err(|e| TestCaseError::fail(e.to_string()))?;
            let decoded = codec::from_json(&json).map_err(|e| TestCaseError::fail(e.to_string()))?;
            prop_assert_eq!(&decoded, &out);
            prop_assert_eq!(codec::to_json(&decoded).unwrap(), json);
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

    /// The incremental re-verify harness accepts exactly the rewrites
    /// the full-oracle harness accepts: identical output streams and
    /// identical rejection counts at every level.
    #[test]
    fn incremental_and_full_harness_agree((clean, inflated) in programs()) {
        for p in [&clean, &inflated] {
            for level in [OptLevel::Basic, OptLevel::Aggressive] {
                let (inc, inc_report) = optimize_with(p, level, VerifyStrategy::Incremental);
                let (full, full_report) = optimize_with(p, level, VerifyStrategy::Full);
                prop_assert_eq!(&inc, &full);
                prop_assert_eq!(inc_report.rejected_rewrites, full_report.rejected_rewrites);
                prop_assert_eq!(inc_report.instructions_after, full_report.instructions_after);
                prop_assert_eq!(inc_report.iterations, full_report.iterations);
                // The full harness never uses the incremental verifier.
                prop_assert_eq!(full_report.incremental_reverifies, 0);
            }
        }
    }
}
