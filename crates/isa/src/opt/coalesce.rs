//! Move coalescing: consecutive moves of one AOD line fuse into one
//! instruction.
//!
//! Line positions are only observable at Rydberg pulses and at end of
//! stream, so two moves of the same line with no observation between
//! them — `A→B` followed by `B→C` — are indistinguishable from a single
//! `A→C`. The pass scans past instructions that neither observe nor
//! overwrite positions (Raman layers, unparks, moves of *other* lines)
//! and stops at any barrier (pulse, transfer, park, cooling swap).
//! Triangle inequality guarantees the fused travel `|C−A|` never
//! exceeds `|B−A| + |C−B|`, so both instruction count and line travel
//! are non-increasing.
//!
//! This is the workhorse on Atomique streams: a movement stage's
//! retraction and the next stage's approach of the same line always
//! fuse (no pulse separates them).

use crate::program::Instr;

use super::{is_barrier, move_key, move_retract, move_to, PassEdit};

/// Runs the pass; `None` if no fusion applies.
pub(crate) fn run(instrs: &[Instr]) -> Option<PassEdit> {
    let mut out: Vec<Instr> = instrs.to_vec();
    let mut removed = vec![false; out.len()];
    let mut fused = 0usize;

    for i in 0..out.len() {
        if removed[i] {
            continue;
        }
        let Some(key) = move_key(&out[i]) else {
            continue;
        };
        let mut j = i + 1;
        while j < out.len() {
            if removed[j] {
                j += 1;
                continue;
            }
            if is_barrier(&out[j]) {
                break;
            }
            if move_key(&out[j]) == Some(key) {
                let to = move_to(&out[j])?;
                let retract = move_retract(&out[i])? && move_retract(&out[j])?;
                set_target(&mut out[i], to, retract);
                removed[j] = true;
                fused += 1;
            }
            j += 1;
        }
    }

    if fused == 0 {
        return None;
    }
    Some(PassEdit {
        out,
        removed,
        rewrites: fused,
    })
}

/// Rewrites a move's target and retraction flag in place (the `from`
/// field keeps the original origin, so travel accounting stays honest).
fn set_target(instr: &mut Instr, new_to: f64, new_retract: bool) {
    match instr {
        Instr::MoveRow { to, retract, .. } | Instr::MoveCol { to, retract, .. } => {
            *to = new_to;
            *retract = new_retract;
        }
        _ => unreachable!("set_target on a non-move"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mrow(from: f64, to: f64, retract: bool) -> Instr {
        Instr::MoveRow {
            aod: 0,
            row: 0,
            from,
            to,
            retract,
        }
    }

    #[test]
    fn adjacent_same_line_moves_fuse() {
        let instrs = vec![mrow(0.6, 0.3, false), mrow(0.3, 0.05, false)];
        let (out, n) = run(&instrs).unwrap().into_parts();
        assert_eq!(n, 1);
        assert_eq!(out, vec![mrow(0.6, 0.05, false)]);
    }

    #[test]
    fn fusion_skips_position_neutral_instructions() {
        let instrs = vec![
            mrow(0.6, 0.3, false),
            Instr::RamanLayer { gates: vec![] },
            Instr::MoveCol {
                aod: 0,
                col: 0,
                from: 0.4,
                to: 0.1,
                retract: false,
            },
            Instr::Unpark { aod: 1 },
            mrow(0.3, 0.05, false),
        ];
        let (out, n) = run(&instrs).unwrap().into_parts();
        assert_eq!(n, 1);
        assert_eq!(out.len(), 4);
        assert_eq!(out[0], mrow(0.6, 0.05, false));
    }

    #[test]
    fn chains_fuse_into_one_move() {
        let instrs = vec![
            mrow(0.6, 0.5, true),
            mrow(0.5, 0.4, true),
            mrow(0.4, 0.3, true),
        ];
        let (out, n) = run(&instrs).unwrap().into_parts();
        assert_eq!(n, 2);
        assert_eq!(out, vec![mrow(0.6, 0.3, true)]);
    }

    #[test]
    fn retract_flag_survives_only_pure_retraction_chains() {
        let instrs = vec![mrow(0.05, 0.6, true), mrow(0.6, 0.1, false)];
        let (out, _) = run(&instrs).unwrap().into_parts();
        assert_eq!(out, vec![mrow(0.05, 0.1, false)]);
    }

    #[test]
    fn must_not_fire_across_a_pulse() {
        let instrs = vec![
            mrow(0.6, 0.05, false),
            Instr::RydbergPulse { pairs: vec![] },
            mrow(0.05, 0.6, true),
        ];
        assert!(run(&instrs).is_none());
    }

    #[test]
    fn must_not_fire_across_park_transfer_or_cool() {
        for barrier in [
            Instr::Park { kept: vec![0] },
            Instr::Transfer { a: 0, b: 1 },
            Instr::Cool { aod: 0 },
        ] {
            let instrs = vec![mrow(0.6, 0.3, false), barrier, mrow(0.3, 0.05, false)];
            assert!(run(&instrs).is_none());
        }
    }

    #[test]
    fn must_not_fuse_different_lines() {
        let instrs = vec![
            mrow(0.6, 0.3, false),
            Instr::MoveRow {
                aod: 0,
                row: 1,
                from: 1.6,
                to: 1.3,
                retract: false,
            },
            Instr::MoveRow {
                aod: 1,
                row: 0,
                from: 0.6,
                to: 0.3,
                retract: false,
            },
            Instr::MoveCol {
                aod: 0,
                col: 0,
                from: 0.4,
                to: 0.1,
                retract: false,
            },
        ];
        assert!(run(&instrs).is_none());
    }
}
