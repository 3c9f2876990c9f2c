//! Shared randomized-program generator for the ISA integration tests
//! (`opt_properties.rs`, `check_modes.rs`) and, through a `#[path]`
//! module, the `raa-isa` unit tests.
//!
//! The generator builds legal two-AOD movement programs (approach,
//! pulse, retract per stage, with Raman layers mixed in) and then
//! *inflates* them with redundancy the optimizer passes are supposed to
//! remove: split moves, zero-length moves, redundant unparks,
//! retract/approach round trips, and no-op parks. Targeted mutations
//! then turn a generated program into an illegal one, each designed to
//! trip one constraint ([`illegal_streams`] lists them all).

// Each test binary includes this module separately and uses a different
// subset of it.
#![allow(dead_code)]

use proptest::prelude::*;
use raa_circuit::{Circuit, Gate, Qubit};
use raa_isa::{Instr, IsaProgram, ProgramHeader, SiteSpec, FORMAT_VERSION};

/// One two-qubit stage of the generated program: which AOD flies, where
/// its lines stop, and how many segments each injected split uses.
#[derive(Debug, Clone)]
pub struct StageSpec {
    pub aod: u8,
    pub dy: f64,
    pub dx: f64,
    pub raman_before: bool,
    pub split_approach: usize,
    pub inject_round_trip: bool,
    pub inject_zero_move: bool,
    pub inject_unpark: bool,
    pub inject_noop_park: bool,
    pub inject_park_unpark: bool,
}

/// AOD homes: AOD0 holds slot 1 at (0.6, 0.4), AOD1 holds slot 2 at
/// (2.25, 2.25). Both are clear of every SLM site and of each other.
pub const HOMES: [(f64, f64); 2] = [(0.6, 0.4), (2.25, 2.25)];

pub fn stage_strategy() -> impl Strategy<Value = StageSpec> {
    (0u8..2, 0usize..4, (0u8..2, 1usize..4), (0u8..32, 0u8..2)).prop_map(
        |(aod, offset, (raman, split), (inject, park_kind))| {
            // Targets keep the flying atom within the 1/6-track blockade
            // radius of its partner (s0 at (0,0) for AOD0, SLM (2,2) for
            // AOD1).
            let (base_y, base_x) = if aod == 0 { (0.0, 0.0) } else { (2.0, 2.0) };
            let (dy, dx) = [(0.05, 0.08), (0.08, 0.05), (-0.06, 0.07), (0.1, 0.02)][offset];
            StageSpec {
                aod,
                dy: base_y + dy,
                dx: base_x + dx,
                raman_before: raman == 1,
                split_approach: split,
                inject_round_trip: inject & 1 != 0,
                inject_zero_move: inject & 2 != 0,
                inject_unpark: inject & 4 != 0,
                inject_noop_park: inject & 8 != 0 && park_kind == 0,
                inject_park_unpark: inject & 8 != 0 && park_kind == 1,
            }
        },
    )
}

/// A (clean, inflated) pair built from the same stage sequence.
pub fn programs() -> impl Strategy<Value = (IsaProgram, IsaProgram)> {
    proptest::collection::vec(stage_strategy(), 1..8)
        .prop_map(|stages| (build(&stages, false), build(&stages, true)))
}

/// Emits a move for `aod` along one axis, split into `segments` pieces
/// when `inflate` is set.
pub fn push_move(
    instrs: &mut Vec<Instr>,
    aod: u8,
    is_row: bool,
    from: f64,
    to: f64,
    retract: bool,
    segments: usize,
) {
    let n = segments.max(1);
    for s in 0..n {
        let a = from + (to - from) * s as f64 / n as f64;
        let b = if s + 1 == n {
            to
        } else {
            from + (to - from) * (s + 1) as f64 / n as f64
        };
        let instr = if is_row {
            Instr::MoveRow {
                aod,
                row: 0,
                from: a,
                to: b,
                retract,
            }
        } else {
            Instr::MoveCol {
                aod,
                col: 0,
                from: a,
                to: b,
                retract,
            }
        };
        instrs.push(instr);
    }
}

/// Builds the program for `stages`; with `inflate` the redundancy
/// injections are included, without it the clean stream is produced.
pub fn build(stages: &[StageSpec], inflate: bool) -> IsaProgram {
    let mut circuit = Circuit::new(4);
    let mut instrs = vec![
        Instr::InitSlm { rows: 4, cols: 4 },
        Instr::InitAod {
            aod: 0,
            rows: 1,
            cols: 1,
            fx: HOMES[0].1,
            fy: HOMES[0].0,
        },
        Instr::InitAod {
            aod: 1,
            rows: 1,
            cols: 1,
            fx: HOMES[1].1,
            fy: HOMES[1].0,
        },
    ];

    for (i, st) in stages.iter().enumerate() {
        let aod = st.aod;
        let (hy, hx) = HOMES[aod as usize];
        let flying = 1 + aod as u32; // slot 1 on AOD0, slot 2 on AOD1
        if st.raman_before {
            let g = Gate::rz(Qubit(i as u32 % 3), 0.25 + i as f64 * 0.1);
            circuit.push(g);
            instrs.push(Instr::RamanLayer { gates: vec![g] });
        }
        // Between stages everything is at home: safe spots for no-op
        // park/unpark injections.
        if inflate && st.inject_noop_park {
            instrs.push(Instr::Park { kept: vec![0, 1] });
        }
        if inflate && st.inject_park_unpark {
            let other = 1 - aod;
            instrs.push(Instr::Park { kept: vec![aod] });
            instrs.push(Instr::Unpark { aod: other });
        }
        if inflate && st.inject_unpark {
            instrs.push(Instr::Unpark { aod });
        }
        let split = if inflate { st.split_approach } else { 1 };
        push_move(&mut instrs, aod, true, hy, st.dy, false, split);
        push_move(&mut instrs, aod, false, hx, st.dx, false, 1);
        if inflate && st.inject_round_trip {
            // Retract home and come straight back: pure waste.
            push_move(&mut instrs, aod, true, st.dy, hy, true, 1);
            push_move(&mut instrs, aod, true, hy, st.dy, false, 1);
        }
        if inflate && st.inject_zero_move {
            push_move(&mut instrs, aod, false, st.dx, st.dx, false, 1);
        }
        // The pulse: the flying atom meets its SLM partner.
        let pair_slot = if aod == 0 { 0 } else { 3 };
        circuit.push(Gate::cz(Qubit(pair_slot), Qubit(flying)));
        instrs.push(Instr::RydbergPulse {
            pairs: vec![(pair_slot, flying)],
        });
        // Retract home.
        push_move(&mut instrs, aod, true, st.dy, hy, true, split);
        push_move(&mut instrs, aod, false, st.dx, hx, true, 1);
    }

    IsaProgram {
        version: FORMAT_VERSION,
        header: ProgramHeader::new("proptest", "opt-random"),
        slot_of_qubit: vec![0, 1, 2, 3],
        sites: vec![
            SiteSpec {
                array: 0,
                row: 0,
                col: 0,
            },
            SiteSpec {
                array: 1,
                row: 0,
                col: 0,
            },
            SiteSpec {
                array: 2,
                row: 0,
                col: 0,
            },
            SiteSpec {
                array: 0,
                row: 2,
                col: 2,
            },
        ],
        reference: circuit,
        instrs,
    }
}

/// Summed line travel in track units.
pub fn travel(p: &IsaProgram) -> f64 {
    raa_isa::IsaStats::of(p).line_travel_tracks
}

/// The observable gate events of a stream, in order.
pub fn gate_events(p: &IsaProgram) -> Vec<Instr> {
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

/// Index of the first Rydberg pulse of the stream.
pub fn first_pulse(p: &IsaProgram) -> usize {
    p.instrs
        .iter()
        .position(|i| matches!(i, Instr::RydbergPulse { .. }))
        .expect("generated programs always pulse")
}

/// The pulsed pairs of the first pulse.
pub fn first_pulse_pairs(p: &mut IsaProgram) -> &mut Vec<(u32, u32)> {
    let pulse = first_pulse(p);
    match &mut p.instrs[pulse] {
        Instr::RydbergPulse { pairs } => pairs,
        _ => unreachable!(),
    }
}

/// Truncated directly after the first pulse: with no retraction, the
/// pulsed pair ends the stream touching (C1 `UnwantedInteraction`).
pub fn missing_retraction(mut p: IsaProgram) -> IsaProgram {
    p.instrs.truncate(first_pulse(&p) + 1);
    p
}

/// Every move before the first pulse deleted: the pair is pulsed at
/// home, far outside the blockade radius (C1 `PairTooFar`).
pub fn missing_approach(mut p: IsaProgram) -> IsaProgram {
    let pulse = first_pulse(&p);
    p.instrs = p
        .instrs
        .iter()
        .enumerate()
        .filter(|(i, instr)| {
            *i >= pulse || !matches!(instr, Instr::MoveRow { .. } | Instr::MoveCol { .. })
        })
        .map(|(_, instr)| instr.clone())
        .collect();
    p
}

/// The last approach before the first pulse overshoots by `bump`
/// tracks: the pair is pulsed far apart, and the atom may land near an
/// unrelated trap site.
pub fn runaway_move(mut p: IsaProgram, bump: f64) -> IsaProgram {
    let pulse = first_pulse(&p);
    let target = p.instrs[..pulse]
        .iter()
        .rposition(|i| matches!(i, Instr::MoveRow { .. } | Instr::MoveCol { .. }))
        .expect("an approach precedes the first pulse");
    match &mut p.instrs[target] {
        Instr::MoveRow { to, .. } | Instr::MoveCol { to, .. } => *to += bump,
        _ => unreachable!(),
    }
    p
}

/// Every AOD parked right before the first pulse: the pulse addresses a
/// parked array (`Malformed`).
pub fn parked_pulse(mut p: IsaProgram) -> IsaProgram {
    let pulse = first_pulse(&p);
    p.instrs.insert(pulse, Instr::Park { kept: vec![] });
    p
}

/// The first pulse fires with no scheduled pair while its flying atom
/// sits off its partner on both axes, within the blockade radius (C1
/// `UnwantedInteraction` on a diagonal near miss).
pub fn unscheduled_pulse(mut p: IsaProgram) -> IsaProgram {
    first_pulse_pairs(&mut p).clear();
    p
}

/// Right before the first pulse the idle AOD's atom moves to `(r_b, 0)`,
/// one radius below SLM slot 0: a non-partner pair at exactly `r_b` on
/// one axis (C1 `UnwantedInteraction` at `d = r_b`). Returns the stream
/// and the idle atom's slot.
pub fn idle_atom_at_radius(mut p: IsaProgram) -> (IsaProgram, u32) {
    let r = p.interaction_radius_tracks();
    let (partner, _) = first_pulse_pairs(&mut p)[0];
    let idle = if partner == 0 { 1 } else { 0 };
    let pulse = first_pulse(&p);
    for (i, instr) in [
        Instr::MoveRow {
            aod: idle,
            row: 0,
            from: 0.0,
            to: r,
            retract: false,
        },
        Instr::MoveCol {
            aod: idle,
            col: 0,
            from: 0.0,
            to: 0.0,
            retract: false,
        },
    ]
    .into_iter()
    .enumerate()
    {
        p.instrs.insert(pulse + i, instr);
    }
    (p, 1 + u32::from(idle))
}

/// A fifth slot loaded on the trap site of slot `dup` (C1
/// `UnwantedInteraction` at distance 0, or a smaller violating pair).
pub fn two_slots_on_one_site(mut p: IsaProgram, dup: usize) -> IsaProgram {
    p.sites.push(p.sites[dup]);
    p
}

/// A third AOD homed at offset 0, so its slot 4 sits exactly on slot
/// 0's trap: illegal while the AOD stays in the field up to a pulse,
/// legal when it is parked right after the init prefix.
pub fn with_third_aod(mut p: IsaProgram) -> IsaProgram {
    p.instrs.insert(
        3,
        Instr::InitAod {
            aod: 2,
            rows: 1,
            cols: 1,
            fx: 0.0,
            fy: 0.0,
        },
    );
    p.sites.push(SiteSpec {
        array: 3,
        row: 0,
        col: 0,
    });
    p
}

/// One stream of every illegal mutation class above, derived from a
/// generated `(clean, inflated)` pair as `check_modes.rs` derives them:
/// the third-AOD class from the clean program, which parks nothing
/// before its first pulse, every other class from the inflated one.
pub fn illegal_streams(
    clean: &IsaProgram,
    inflated: &IsaProgram,
    bump: f64,
    dup: usize,
) -> Vec<IsaProgram> {
    vec![
        missing_retraction(inflated.clone()),
        missing_approach(inflated.clone()),
        runaway_move(inflated.clone(), bump),
        parked_pulse(inflated.clone()),
        unscheduled_pulse(inflated.clone()),
        idle_atom_at_radius(inflated.clone()).0,
        two_slots_on_one_site(inflated.clone(), dup),
        with_third_aod(clean.clone()),
    ]
}
