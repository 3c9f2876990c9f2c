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

use raa_spatial::SpatialGrid;

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
/// * `axes` — every declared AOD's row vector and column vector, in
///   track units (parked arrays included: they sit at their legal home
///   spacing). Checked for C2 (strictly increasing) and C3 (adjacent
///   lines at least one blockade radius apart).
/// * `in_field` — `(slot, position)` of every atom in the interaction
///   field, ascending by slot id.
/// * `desired` — the pulse's scheduled pairs, normalized `(min, max)`
///   and sorted. Every desired pair must be in the field and within
///   the radius; no other in-field pair may be within it.
#[must_use]
pub(crate) fn pulse_configuration_legal<'a>(
    interact: f64,
    axes: impl IntoIterator<Item = &'a [f64]>,
    in_field: &[(u32, (f64, f64))],
    desired: &[(u32, u32)],
) -> bool {
    if !(interact.is_finite() && interact > 0.0) {
        return false;
    }
    debug_assert!(desired.windows(2).all(|w| w[0] <= w[1]), "desired unsorted");
    debug_assert!(
        in_field.windows(2).all(|w| w[0].0 < w[1].0),
        "in_field not ascending"
    );

    // C2 (strict order) and C3 (blockade-radius separation) per axis.
    for axis in axes {
        for w in axis.windows(2) {
            let gap = w[1] - w[0];
            if gap <= EPS || gap < interact - EPS {
                return false;
            }
        }
    }

    // Scheduled pairs: in the field and touching.
    let pos_of = |s: u32| {
        in_field
            .binary_search_by_key(&s, |&(id, _)| id)
            .ok()
            .map(|i| in_field[i].1)
    };
    for &(a, b) in desired {
        let (Some(pa), Some(pb)) = (pos_of(a), pos_of(b)) else {
            return false; // a scheduled atom is parked out of the field
        };
        if dist(pa, pb) > interact + EPS {
            return false;
        }
    }

    // Nothing else interacts: no in-field pair outside `desired` within
    // the blockade radius (grid-accelerated, same predicate as the
    // checker's proximity scan).
    let mut grid = SpatialGrid::new(interact);
    for &(s, p) in in_field {
        grid.insert(s, p);
    }
    let mut cand: Vec<u32> = Vec::new();
    for &(x, px) in in_field {
        cand.clear();
        grid.candidates_into(px, interact, &mut cand);
        for &y in &cand {
            if y <= x || desired.binary_search(&(x, y)).is_ok() {
                continue;
            }
            let py = pos_of(y).expect("grid holds in-field slots only");
            if dist(px, py) <= interact {
                return false;
            }
        }
    }
    true
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

    /// Two SLM atoms at (0,0) and (2,2), one AOD atom parked next to
    /// each's partner spot.
    fn base_config() -> Vec<(u32, (f64, f64))> {
        vec![
            (0, (0.0, 0.0)),
            (1, (0.05, 0.08)),
            (2, (2.0, 2.0)),
            (3, (2.05, 2.08)),
        ]
    }

    #[test]
    fn legal_merged_configuration_passes() {
        let axes: [&[f64]; 2] = [&[0.05], &[0.08]];
        assert!(pulse_configuration_legal(
            R,
            axes,
            &base_config(),
            &[(0, 1), (2, 3)],
        ));
    }

    #[test]
    fn unscheduled_proximity_fails() {
        // Pair (2,3) touches but is not desired.
        let axes: [&[f64]; 0] = [];
        assert!(!pulse_configuration_legal(
            R,
            axes,
            &base_config(),
            &[(0, 1)]
        ));
    }

    #[test]
    fn parked_desired_atom_fails() {
        let mut cfg = base_config();
        cfg.remove(1); // slot 1 out of the field
        let axes: [&[f64]; 0] = [];
        assert!(!pulse_configuration_legal(R, axes, &cfg, &[(0, 1), (2, 3)]));
    }

    #[test]
    fn too_far_desired_pair_fails() {
        let cfg = vec![(0, (0.0, 0.0)), (1, (1.0, 1.0))];
        let axes: [&[f64]; 0] = [];
        assert!(!pulse_configuration_legal(R, axes, &cfg, &[(0, 1)]));
    }

    #[test]
    fn order_and_separation_violations_fail() {
        let empty: &[(u32, (f64, f64))] = &[];
        // C2: not strictly increasing.
        assert!(!pulse_configuration_legal(R, [&[1.0, 0.5][..]], empty, &[]));
        // C3: ordered but closer than one blockade radius.
        assert!(!pulse_configuration_legal(R, [&[1.0, 1.1][..]], empty, &[]));
        assert!(pulse_configuration_legal(R, [&[1.0, 2.0][..]], empty, &[]));
    }
}
