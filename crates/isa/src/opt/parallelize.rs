//! Pulse re-parallelization: two Rydberg pulses separated only by moves
//! merge into one pulse driving both pair sets at once.
//!
//! The router plans gate-by-gate; when two consecutively scheduled gate
//! groups are geometrically independent, the emitted stream still fires
//! two pulses with a retract/approach window between them. The global
//! Rydberg laser does not care: if *both* pair sets can legally sit at
//! their gate positions simultaneously, one pulse executes them all —
//! Arctic-style move batching recovered post hoc. The pass merges
//! `pulse(P₁) … moves … pulse(P₂)` into `approaches, pulse(P₁ ++ P₂),
//! retractions` when
//!
//! * only `MoveRow`/`MoveCol` instructions sit between the pulses (any
//!   gate event, park, unpark, transfer or cooling swap is a barrier),
//! * `P₁` and `P₂` are slot-disjoint (the merged pulse must not reuse an
//!   atom — the replay verifier's `SlotReuseInPulse` rule),
//! * the window moves of lines hosting `P₁`'s AOD atoms (their
//!   retractions) commute with the rest: no line is moved by both
//!   classes, so hoisting `P₂`'s approaches before the merged pulse and
//!   deferring `P₁`'s retractions after it preserves every line's final
//!   position, and
//! * the *merged* configuration — `P₂`'s lines at their approach
//!   targets, `P₁`'s lines still at their gate positions — satisfies the
//!   legality checker's own pulse predicates: C2/C3 on every AOD, every
//!   scheduled pair within the blockade radius, no other in-field pair
//!   within it.
//!
//! The rewrite deletes one instruction (the first pulse) and modifies
//! the survivor plus the window moves in place — one instruction saved
//! per merge, which fits the no-insertion edit-map contract. The
//! merged-configuration geometry is decided by the shared
//! `cost::pulse_configuration_legal` predicate. Line travel is
//! untouched — the moves keep their endpoints, only their order around the pulse
//! changes. This is the one pass that rewrites the gate-event sequence,
//! which the safety harness admits because the *flattened* event
//! sequence (pair lists concatenated in stream order) is preserved and
//! the replay verdict is re-proven on the candidate.

use crate::program::{Instr, IsaProgram, SiteSpec};

use super::{cost, move_key, PassEdit, Tracker};

/// Runs the pass; `None` if no mergeable pulse window exists.
pub(crate) fn run(program: &IsaProgram) -> Option<PassEdit> {
    let instrs = &program.instrs;
    let interact = program.interaction_radius_tracks();
    if !(interact.is_finite() && interact > 0.0) {
        return None;
    }
    let (mut tracker, start) = Tracker::from_init(instrs)?;
    let mut out = instrs.to_vec();
    let mut removed = vec![false; instrs.len()];
    let mut merges = 0usize;
    // Indices below this bound were rewritten by an earlier merge this
    // run; a new window may not start inside one.
    let mut window_end = start;

    for (pc, instr) in instrs.iter().enumerate().skip(start) {
        if pc >= window_end {
            if let Some(k) = try_merge(program, &tracker, pc, interact, &mut out, &mut removed) {
                merges += 1;
                window_end = k + 1;
            }
        }
        // The tracker replays the *original* stream: a merge preserves
        // every line's position at the window's end, so original state
        // and rewritten state agree from there on.
        tracker.apply(instr)?;
    }

    if merges == 0 {
        return None;
    }
    debug_assert_eq!(merges, removed.iter().filter(|&&r| r).count());
    Some(PassEdit {
        out,
        removed,
        rewrites: merges,
    })
}

/// Attempts one merge with the pulse at `pc`; on success rewrites
/// `out`/`removed` and returns the partner pulse's index.
fn try_merge(
    program: &IsaProgram,
    at_first_pulse: &Tracker,
    pc: usize,
    interact: f64,
    out: &mut [Instr],
    removed: &mut [bool],
) -> Option<usize> {
    let instrs = &program.instrs;
    let Instr::RydbergPulse { pairs: p1 } = &instrs[pc] else {
        return None;
    };
    if p1.is_empty() {
        return None;
    }
    // The partner: the next pulse, reachable through moves only.
    let mut k = pc + 1;
    loop {
        match instrs.get(k)? {
            Instr::MoveRow { .. } | Instr::MoveCol { .. } => k += 1,
            Instr::RydbergPulse { .. } => break,
            _ => return None,
        }
    }
    let Instr::RydbergPulse { pairs: p2 } = &instrs[k] else {
        return None;
    };
    if p2.is_empty() || !slots_disjoint(p1, p2) {
        return None;
    }

    // Classify the window moves: moves of lines hosting P1's AOD atoms
    // are its retractions and must execute after the merged pulse;
    // everything else (P2's approaches, bystander repositioning) hoists
    // before it. A line moved by both classes cannot commute — but each
    // move addresses exactly one line, and the classification is by
    // line, so the split is always consistent.
    let p1_lines = pair_lines(&program.sites, p1);
    let window = &instrs[pc + 1..k];
    let mut approaches: Vec<&Instr> = Vec::new();
    let mut retractions: Vec<&Instr> = Vec::new();
    for instr in window {
        let key = move_key(instr).expect("window is moves only");
        if p1_lines.contains(&key) {
            retractions.push(instr);
        } else {
            approaches.push(instr);
        }
    }

    // The merged configuration: the state at the first pulse with the
    // hoisted approaches applied.
    let mut merged = at_first_pulse.clone();
    for instr in &approaches {
        merged.apply(instr)?;
    }
    if !merged_pulse_legal(&merged, &program.sites, p1, p2, interact) {
        return None;
    }

    // Rewrite the window in place: approaches, merged pulse,
    // retractions; the partner pulse's slot is the deleted index.
    let mut pairs = p1.clone();
    pairs.extend_from_slice(p2);
    let mut idx = pc;
    for instr in approaches {
        out[idx] = instr.clone();
        idx += 1;
    }
    out[idx] = Instr::RydbergPulse { pairs };
    idx += 1;
    for instr in retractions {
        out[idx] = instr.clone();
        idx += 1;
    }
    debug_assert_eq!(idx, k);
    removed[k] = true;
    Some(k)
}

/// Whether two pair lists share no slot.
fn slots_disjoint(p1: &[(u32, u32)], p2: &[(u32, u32)]) -> bool {
    p2.iter().all(|&(a, b)| {
        !p1.iter()
            .any(|&(x, y)| a == x || a == y || b == x || b == y)
    })
}

/// The `(aod, is_row, line)` keys hosting the AOD atoms of `pairs`.
fn pair_lines(sites: &[SiteSpec], pairs: &[(u32, u32)]) -> Vec<(u8, bool, u16)> {
    let mut lines = Vec::new();
    for &(a, b) in pairs {
        for s in [a, b] {
            let Some(site) = sites.get(s as usize) else {
                continue;
            };
            if site.array > 0 {
                let aod = site.array - 1;
                for key in [(aod, true, site.row), (aod, false, site.col)] {
                    if !lines.contains(&key) {
                        lines.push(key);
                    }
                }
            }
        }
    }
    lines
}

/// The merged-configuration legality test, delegated to the shared
/// [`cost::pulse_configuration_legal`] predicate: C2/C3 on every AOD,
/// every scheduled pair in the field and in range, no other in-field
/// pair within the blockade radius.
fn merged_pulse_legal(
    merged: &Tracker,
    sites: &[SiteSpec],
    p1: &[(u32, u32)],
    p2: &[(u32, u32)],
    interact: f64,
) -> bool {
    let mut desired: Vec<(u32, u32)> = p1
        .iter()
        .chain(p2)
        .map(|&(a, b)| (a.min(b), a.max(b)))
        .collect();
    desired.sort_unstable();
    cost::pulse_configuration_legal(interact, &merged.aods, sites, &desired)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{ProgramHeader, FORMAT_VERSION};
    use raa_circuit::{Circuit, Gate, Qubit};

    /// Two independent SLM–AOD gates far apart: slot 1 (AOD0) meets slot
    /// 0 at the origin, slot 3 (AOD1) meets slot 2 at (2, 2). The
    /// sequential emission fires two pulses with AOD0's retraction and
    /// AOD1's approach between them.
    fn two_stage_program() -> IsaProgram {
        let mut c = Circuit::new(4);
        c.push(Gate::cz(Qubit(0), Qubit(1)));
        c.push(Gate::cz(Qubit(2), Qubit(3)));
        IsaProgram {
            version: FORMAT_VERSION,
            header: ProgramHeader::new("test", "parallelize"),
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
                    array: 0,
                    row: 2,
                    col: 2,
                },
                SiteSpec {
                    array: 2,
                    row: 0,
                    col: 0,
                },
            ],
            reference: c,
            instrs: vec![
                Instr::InitSlm { rows: 4, cols: 4 },
                Instr::InitAod {
                    aod: 0,
                    rows: 1,
                    cols: 1,
                    fx: 0.4,
                    fy: 0.6,
                },
                Instr::InitAod {
                    aod: 1,
                    rows: 1,
                    cols: 1,
                    fx: 2.25,
                    fy: 2.25,
                },
                Instr::MoveRow {
                    aod: 0,
                    row: 0,
                    from: 0.6,
                    to: 0.05,
                    retract: false,
                },
                Instr::MoveCol {
                    aod: 0,
                    col: 0,
                    from: 0.4,
                    to: 0.08,
                    retract: false,
                },
                Instr::RydbergPulse {
                    pairs: vec![(0, 1)],
                },
                Instr::MoveRow {
                    aod: 0,
                    row: 0,
                    from: 0.05,
                    to: 0.6,
                    retract: true,
                },
                Instr::MoveCol {
                    aod: 0,
                    col: 0,
                    from: 0.08,
                    to: 0.4,
                    retract: true,
                },
                Instr::MoveRow {
                    aod: 1,
                    row: 0,
                    from: 2.25,
                    to: 2.05,
                    retract: false,
                },
                Instr::MoveCol {
                    aod: 1,
                    col: 0,
                    from: 2.25,
                    to: 2.08,
                    retract: false,
                },
                Instr::RydbergPulse {
                    pairs: vec![(2, 3)],
                },
                Instr::MoveRow {
                    aod: 1,
                    row: 0,
                    from: 2.05,
                    to: 2.25,
                    retract: true,
                },
                Instr::MoveCol {
                    aod: 1,
                    col: 0,
                    from: 2.08,
                    to: 2.25,
                    retract: true,
                },
            ],
        }
    }

    #[test]
    fn independent_pulses_merge() {
        let p = two_stage_program();
        crate::check::check_legality(&p).unwrap();
        let edit = run(&p).unwrap();
        assert_eq!(edit.rewrites, 1);
        let kept = edit.kept();
        assert_eq!(kept.len(), p.instrs.len() - 1);
        // AOD1's approach hoists before the merged pulse, AOD0's
        // retraction defers after it; the merged pair list keeps stream
        // order (P1 then P2).
        let expected: Vec<Instr> = p.instrs[..5] // inits + AOD0 approach
            .iter()
            .cloned()
            .chain([
                p.instrs[8].clone(), // AOD1 row approach
                p.instrs[9].clone(), // AOD1 col approach
                Instr::RydbergPulse {
                    pairs: vec![(0, 1), (2, 3)],
                },
                p.instrs[6].clone(),  // AOD0 row retraction
                p.instrs[7].clone(),  // AOD0 col retraction
                p.instrs[11].clone(), // AOD1 retractions
                p.instrs[12].clone(),
            ])
            .collect();
        assert_eq!(kept, expected);
        // The merged stream still passes the oracle.
        let merged = IsaProgram {
            instrs: kept,
            ..p.clone()
        };
        crate::check::check_legality(&merged).unwrap();
        crate::replay::replay_verify(&merged).unwrap();
    }

    #[test]
    fn must_not_merge_overlapping_slots() {
        let mut p = two_stage_program();
        // Second gate reuses slot 1: merging would reuse an atom in one
        // pulse.
        let mut c = Circuit::new(4);
        c.push(Gate::cz(Qubit(0), Qubit(1)));
        c.push(Gate::cz(Qubit(2), Qubit(1)));
        p.reference = c;
        for instr in &mut p.instrs {
            if let Instr::RydbergPulse { pairs } = instr {
                if pairs == &vec![(2, 3)] {
                    *pairs = vec![(2, 1)];
                }
            }
        }
        assert!(run(&p).is_none());
    }

    #[test]
    fn must_not_merge_across_a_barrier() {
        for barrier in [
            Instr::RamanLayer { gates: vec![] },
            Instr::Unpark { aod: 0 },
            Instr::Park { kept: vec![0, 1] },
            Instr::Cool { aod: 0 },
        ] {
            let mut p = two_stage_program();
            p.instrs.insert(7, barrier);
            assert!(run(&p).is_none());
        }
    }

    #[test]
    fn must_not_merge_when_blockade_would_leak() {
        // An AOD1–AOD2 gate whose parked position is legal but whose
        // gate position sits 0.139 tracks from the *un-retracted* AOD0
        // atom: sequentially legal (AOD0 retracts home before the second
        // pulse), but at the merged configuration slot 1 would still be
        // at (0.05, 0.08) — inside the 1/6-track blockade radius of slot
        // 2 at (0.1, 0.21).
        let mut c = Circuit::new(4);
        c.push(Gate::cz(Qubit(0), Qubit(1)));
        c.push(Gate::cz(Qubit(2), Qubit(3)));
        let mrow = |aod: u8, from: f64, to: f64, retract: bool| Instr::MoveRow {
            aod,
            row: 0,
            from,
            to,
            retract,
        };
        let mcol = |aod: u8, from: f64, to: f64, retract: bool| Instr::MoveCol {
            aod,
            col: 0,
            from,
            to,
            retract,
        };
        let p = IsaProgram {
            version: FORMAT_VERSION,
            header: ProgramHeader::new("test", "parallelize-leak"),
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
                    array: 3,
                    row: 0,
                    col: 0,
                },
            ],
            reference: c,
            instrs: vec![
                Instr::InitSlm { rows: 4, cols: 4 },
                Instr::InitAod {
                    aod: 0,
                    rows: 1,
                    cols: 1,
                    fx: 0.4,
                    fy: 0.6,
                },
                Instr::InitAod {
                    aod: 1,
                    rows: 1,
                    cols: 1,
                    fx: 2.25,
                    fy: 2.25,
                },
                Instr::InitAod {
                    aod: 2,
                    rows: 1,
                    cols: 1,
                    fx: 3.4,
                    fy: 3.4,
                },
                mrow(0, 0.6, 0.05, false),
                mcol(0, 0.4, 0.08, false),
                Instr::RydbergPulse {
                    pairs: vec![(0, 1)],
                },
                mrow(0, 0.05, 0.6, true),
                mcol(0, 0.08, 0.4, true),
                mrow(1, 2.25, 0.1, false),
                mcol(1, 2.25, 0.21, false),
                mrow(2, 3.4, 0.15, false),
                mcol(2, 3.4, 0.29, false),
                Instr::RydbergPulse {
                    pairs: vec![(2, 3)],
                },
                mrow(1, 0.1, 2.25, true),
                mcol(1, 0.21, 2.25, true),
                mrow(2, 0.15, 3.4, true),
                mcol(2, 0.29, 3.4, true),
            ],
        };
        crate::check::check_legality(&p).unwrap();
        crate::replay::replay_verify(&p).unwrap();
        assert!(run(&p).is_none());
    }

    #[test]
    fn merge_is_stable_under_reapplication() {
        let p = two_stage_program();
        let kept = run(&p).unwrap().kept();
        let merged = IsaProgram { instrs: kept, ..p };
        assert!(run(&merged).is_none(), "second run found more merges");
    }
}
