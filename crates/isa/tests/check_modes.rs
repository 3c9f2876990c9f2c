//! Differential property tests of the legality checker's candidate
//! enumeration modes: on random *legal* and *illegal* streams,
//! `CheckMode::Lines` and `CheckMode::Exhaustive` must return the
//! identical verdict — the same accept, or the same `LegalityError`
//! variant with the same fields.
//!
//! Legal streams come from the shared inflate generator
//! (`common/mod.rs`); illegal streams are derived from them by targeted
//! mutations, also in `common/mod.rs` so that `opt_properties.rs` can
//! run the optimizer on the same streams. Each is designed to trip a
//! specific constraint:
//!
//! * truncating directly after a pulse (no retraction) — C1
//!   `UnwantedInteraction`;
//! * deleting the column approach of the first pulse — C1 `PairTooFar`;
//! * sending an approach 5 tracks long — C1 `PairTooFar` far from home;
//! * parking every AOD just before a pulse — `Malformed` (pulse on a
//!   parked array);
//! * unscheduling the first pulse's pair — C1 `UnwantedInteraction` on a
//!   diagonal near miss, where both the row and the column offset are
//!   nonzero;
//! * bringing the idle AOD's atom exactly one blockade radius from an
//!   SLM atom along one axis — C1 `UnwantedInteraction` at `d = r_b`;
//! * loading a fifth slot on the trap site of an existing one — C1
//!   `UnwantedInteraction` at distance 0.
//!
//! One more family stays legal: a third AOD whose home lines lie on the
//! SLM lines, parked for the whole stream, must not count as in-field.

mod common;

use common::{
    first_pulse, first_pulse_pairs, idle_atom_at_radius, missing_approach, missing_retraction,
    parked_pulse, programs, runaway_move, two_slots_on_one_site, unscheduled_pulse, with_third_aod,
};
use proptest::prelude::*;
use raa_isa::{check_legality_mode, CheckMode, Instr, IsaProgram, LegalityError};

/// Asserts both modes agree and returns the shared verdict.
fn modes_agree(p: &IsaProgram) -> Result<bool, TestCaseError> {
    Ok(shared_verdict(p)?.is_ok())
}

/// Asserts both modes agree and returns the verdict itself.
fn shared_verdict(p: &IsaProgram) -> Result<Result<(), LegalityError>, TestCaseError> {
    let lines = check_legality_mode(p, CheckMode::Lines);
    let scan = check_legality_mode(p, CheckMode::Exhaustive);
    prop_assert_eq!(&lines, &scan);
    Ok(lines)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Legal streams: both modes accept.
    #[test]
    fn modes_agree_on_legal_streams((clean, inflated) in programs()) {
        for p in [&clean, &inflated] {
            prop_assert!(modes_agree(p)?);
        }
    }

    /// Missing retraction: the stream ends with the pulsed pair still
    /// touching. Both modes must reject, with the identical error.
    #[test]
    fn modes_agree_on_missing_retraction((_, p) in programs()) {
        prop_assert!(!modes_agree(&missing_retraction(p))?);
    }

    /// Deleted approach: the pulsed pair never comes within the radius.
    #[test]
    fn modes_agree_on_missing_approach((_, p) in programs()) {
        prop_assert!(!modes_agree(&missing_approach(p))?);
    }

    /// A runaway approach 5 tracks long: the pair is pulsed far apart
    /// (and the atom may land near an unrelated trap site).
    #[test]
    fn modes_agree_on_runaway_move((_, p) in programs(), bump in 1.0f64..5.0) {
        prop_assert!(!modes_agree(&runaway_move(p, bump))?);
    }

    /// Parking everything right before a pulse: the pulse addresses a
    /// parked array, which is malformed in both modes.
    #[test]
    fn modes_agree_on_parked_pulse((_, p) in programs()) {
        prop_assert!(!modes_agree(&parked_pulse(p))?);
    }

    /// An unscheduled diagonal near miss: the first pulse fires with no
    /// scheduled pair while its flying atom sits off its partner on both
    /// axes, within the blockade radius.
    #[test]
    fn modes_agree_on_unscheduled_diagonal_near_miss((_, p) in programs()) {
        let p = unscheduled_pulse(p);
        match shared_verdict(&p)? {
            Err(LegalityError::UnwantedInteraction { distance, .. }) => {
                prop_assert!(distance > 0.0 && distance < p.interaction_radius_tracks());
            }
            other => prop_assert!(false, "expected UnwantedInteraction, got {:?}", other),
        }
    }

    /// A non-partner pair at exactly `r_b` on one axis: right before the
    /// first pulse the idle AOD's atom moves to `(r_b, 0)`, one radius
    /// below SLM slot 0. C1's `<=` must fire on the pair, which is the
    /// smallest violating one.
    #[test]
    fn modes_agree_on_non_partner_pair_at_the_radius((_, mut p) in programs()) {
        let r = p.interaction_radius_tracks();
        let (_, flying) = first_pulse_pairs(&mut p)[0];
        let (p, idle_slot) = idle_atom_at_radius(p);
        prop_assert_ne!(idle_slot, flying);
        match shared_verdict(&p)? {
            Err(LegalityError::UnwantedInteraction { pair, distance, .. }) => {
                prop_assert_eq!(pair, (0, idle_slot));
                prop_assert_eq!(distance, r);
            }
            other => prop_assert!(false, "expected UnwantedInteraction, got {:?}", other),
        }
    }

    /// Two slots on one trap site: a fifth slot is loaded where slot
    /// `dup` sits, and the first pulse must reject a pair with it (the
    /// pair with its site-mate at distance 0, or a smaller violating one).
    #[test]
    fn modes_agree_on_two_slots_on_one_site((_, p) in programs(), dup in 0usize..4) {
        match shared_verdict(&two_slots_on_one_site(p, dup))? {
            Err(LegalityError::UnwantedInteraction { pair, .. }) => prop_assert_eq!(pair.1, 4),
            other => prop_assert!(false, "expected UnwantedInteraction, got {:?}", other),
        }
    }

    /// A parked AOD whose lines lie on SLM lines: a third AOD homed at
    /// offset 0 puts slot 4 exactly on slot 0's trap, and is parked right
    /// after the init prefix. No later instruction unparks it, so the
    /// stream stays legal. The clean stream, which parks nothing, is
    /// rejected when the third AOD stays in the field up to its first
    /// pulse.
    #[test]
    fn modes_agree_on_parked_aod_on_slm_lines((clean, inflated) in programs()) {
        let mut parked = with_third_aod(inflated);
        parked.instrs.insert(4, Instr::Park { kept: vec![0, 1] });
        prop_assert!(modes_agree(&parked)?);
        let mut unparked = with_third_aod(clean);
        prop_assert!(!modes_agree(&unparked)?);
        let pulse = first_pulse(&unparked);
        unparked.instrs.insert(pulse + 1, Instr::Park { kept: vec![0, 1] });
        prop_assert!(!modes_agree(&unparked)?);
    }
}
