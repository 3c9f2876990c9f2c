//! The optimizer's cost model: the predicates the passes share.
//!
//! The pass pipeline's applicability decisions reduce to a small set of
//! predicates: when two moves of one line are one move in disguise
//! ([`coalesce`](mod@crate::opt::coalesce)), when a retract/approach
//! round trip cancels ([`fuse`](mod@crate::opt::fuse)), and when a
//! merged pulse configuration is legal
//! ([`parallelize`](mod@crate::opt::parallelize)).
//!
//! All positions are in track units, exactly as carried by
//! [`Instr::MoveRow`](crate::Instr::MoveRow) /
//! [`Instr::MoveCol`](crate::Instr::MoveCol).

use crate::check::{first_unwanted_pair, AodState};
use crate::program::SiteSpec;

/// Slack applied to strict inequalities, matching the legality checker.
const EPS: f64 = 1e-9;

/// Whether two moves address the same line — the applicability test of
/// move coalescing: consecutive moves of one `(aod, is_row, line)` with
/// no observation between them are indistinguishable from a single
/// move. Keys are `(aod, is_row, line)` as returned by the stream
/// accessors.
#[must_use]
pub(crate) fn coalescible(a: (u8, bool, u16), b: (u8, bool, u16)) -> bool {
    a == b
}

/// Whether a retraction followed by a re-approach of the same line is a
/// cancellable round trip: the approach returns the line *exactly* to
/// its position before the retraction. Exact comparison is deliberate —
/// the router re-approaches a repeated gate at bit-identical targets,
/// and cancelling a near miss would leave the line somewhere the
/// original stream never put it.
#[must_use]
pub(crate) fn round_trip_cancels(pre_retract_pos: f64, approach_to: f64) -> bool {
    approach_to == pre_retract_pos
}

/// The legality checker's pulse predicates over one candidate
/// configuration — the geometry test behind pulse merging
/// (`docs/ISA.md` §4.2), consulted by the
/// [`parallelize`](mod@crate::opt::parallelize) pass. Radii and
/// epsilons mirror [`check_legality`](crate::check_legality) exactly;
/// a configuration accepted here cannot fail the oracle's per-pulse
/// geometry.
///
/// * `interact` — the blockade radius in track units; non-positive or
///   non-finite values reject the configuration.
/// * `aods` — every declared AOD's lines and parked flag. Every AOD is
///   checked for C2 (strictly increasing) and C3 (adjacent lines at
///   least one blockade radius apart), parked ones included: they sit
///   at their legal home spacing.
/// * `sites` — the loading map; a slot on an undeclared trap rejects the
///   configuration.
/// * `desired` — the pulse's scheduled pairs, normalized `(min, max)`
///   and sorted. Every desired pair must be in the field and within
///   the radius; no other in-field pair may be within it, which the
///   checker's own line sweep decides.
#[must_use]
pub(crate) fn pulse_configuration_legal(
    interact: f64,
    aods: &[AodState],
    sites: &[SiteSpec],
    desired: &[(u32, u32)],
) -> bool {
    if !(interact.is_finite() && interact > 0.0) {
        return false;
    }
    debug_assert!(desired.windows(2).all(|w| w[0] <= w[1]), "desired unsorted");

    // C2 (strict order) and C3 (blockade-radius separation) per axis.
    for aod in aods {
        for axis in [&aod.rows, &aod.cols] {
            for w in axis.windows(2) {
                let gap = w[1] - w[0];
                if gap <= EPS || gap < interact - EPS {
                    return false;
                }
            }
        }
    }

    let on_trap = |s: &SiteSpec| {
        s.array == 0
            || aods
                .get(s.array as usize - 1)
                .is_some_and(|a| (s.row as usize) < a.rows.len() && (s.col as usize) < a.cols.len())
    };
    if !sites.iter().all(on_trap) {
        return false;
    }

    // Scheduled pairs: in the field and touching.
    let in_field_pos = |slot: u32| {
        let s = sites.get(slot as usize)?;
        if s.array == 0 {
            return Some((s.row as f64, s.col as f64));
        }
        let aod = &aods[s.array as usize - 1];
        (!aod.parked).then(|| (aod.rows[s.row as usize], aod.cols[s.col as usize]))
    };
    for &(a, b) in desired {
        let (Some(pa), Some(pb)) = (in_field_pos(a), in_field_pos(b)) else {
            return false; // unknown, or parked out of the field
        };
        if dist(pa, pb) > interact + EPS {
            return false;
        }
    }

    // Nothing else interacts.
    first_unwanted_pair(interact, aods, sites, desired).is_none()
}

#[inline]
fn dist(a: (f64, f64), b: (f64, f64)) -> f64 {
    let dr = a.0 - b.0;
    let dc = a.1 - b.1;
    (dr * dr + dc * dc).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalescible_is_key_equality() {
        assert!(coalescible((0, true, 3), (0, true, 3)));
        assert!(!coalescible((0, true, 3), (0, false, 3)));
        assert!(!coalescible((0, true, 3), (1, true, 3)));
    }

    #[test]
    fn round_trips_cancel_only_on_exact_return() {
        assert!(round_trip_cancels(0.05, 0.05));
        assert!(!round_trip_cancels(0.05, 0.05 + 1e-12));
    }

    const R: f64 = 1.0 / 6.0;

    fn aod(rows: &[f64], cols: &[f64], parked: bool) -> AodState {
        AodState {
            rows: rows.to_vec(),
            cols: cols.to_vec(),
            home_rows: rows.to_vec(),
            home_cols: cols.to_vec(),
            parked,
        }
    }

    fn site(array: u8, row: u16, col: u16) -> SiteSpec {
        SiteSpec { array, row, col }
    }

    /// Two SLM atoms at (0,0) and (2,2), one AOD atom parked next to
    /// each's partner spot, at (0.05, 0.08) and (2.05, 2.08).
    fn base_config() -> (Vec<AodState>, Vec<SiteSpec>) {
        (
            vec![aod(&[0.05, 2.05], &[0.08, 2.08], false)],
            vec![site(0, 0, 0), site(1, 0, 0), site(0, 2, 2), site(1, 1, 1)],
        )
    }

    #[test]
    fn legal_merged_configuration_passes() {
        let (aods, sites) = base_config();
        assert!(pulse_configuration_legal(
            R,
            &aods,
            &sites,
            &[(0, 1), (2, 3)],
        ));
    }

    #[test]
    fn unscheduled_proximity_fails() {
        // Pair (2,3) touches but is not desired.
        let (aods, sites) = base_config();
        assert!(!pulse_configuration_legal(R, &aods, &sites, &[(0, 1)]));
    }

    #[test]
    fn parked_desired_atom_fails() {
        // Slot 1 moves to a second AOD, parked out of the field.
        let (mut aods, mut sites) = base_config();
        aods.push(aod(&[0.05], &[0.08], true));
        sites[1] = site(2, 0, 0);
        assert!(!pulse_configuration_legal(
            R,
            &aods,
            &sites,
            &[(0, 1), (2, 3)]
        ));
    }

    #[test]
    fn too_far_desired_pair_fails() {
        let aods = [aod(&[1.0], &[1.0], false)];
        let sites = [site(0, 0, 0), site(1, 0, 0)];
        assert!(!pulse_configuration_legal(R, &aods, &sites, &[(0, 1)]));
    }

    #[test]
    fn order_and_separation_violations_fail() {
        let legal =
            |rows: &[f64]| pulse_configuration_legal(R, &[aod(rows, &[0.5], false)], &[], &[]);
        // C2: not strictly increasing.
        assert!(!legal(&[1.0, 0.5]));
        // C3: ordered but closer than one blockade radius.
        assert!(!legal(&[1.0, 1.1]));
        assert!(legal(&[1.0, 2.0]));
    }
}
