//! The standalone legality checker.
//!
//! [`check_legality`] replays atom positions through an instruction
//! stream and re-verifies the three RAA hardware constraints *purely
//! from the stream* — it shares no state with the Atomique router, the
//! baseline compilers, or `atomique::validate_program`, so it catches
//! serialization and bookkeeping bugs none of them can see.
//!
//! Checks performed:
//!
//! * **C1 (exact-pair Rydberg addressing)** — at every
//!   [`Instr::RydbergPulse`], each scheduled pair must sit within the
//!   blockade radius, and *no other* pair of in-field atoms may; at the
//!   end of the stream no pair at all may remain within the radius.
//!   (The global laser fires only at pulses, so between pulses atoms may
//!   transiently pass near each other — what matters is the
//!   configuration whenever a pulse fires, which these two checks cover
//!   exhaustively.)
//! * **C2 (row/column order)** — at every pulse, each AOD's row and
//!   column coordinates must be strictly increasing.
//! * **C3 (line separation)** — at every pulse, adjacent rows/columns of
//!   one AOD must be at least one blockade radius apart.
//!
//! [`Instr::Transfer`] gates are exempt from geometric checks: the
//! re-grabbed atom is carried directly to its partner, which is exactly
//! the transfer-loss-prone mechanism the paper charges separately.
//!
//! # Complexity and check modes
//!
//! The C1 "nothing else interacts" scan is quadratic if done naively —
//! O(atoms²) per pulse — which makes verification of 1000+-atom streams
//! slower than compiling them. [`CheckMode`] selects how proximity
//! candidates are enumerated:
//!
//! * [`CheckMode::Grid`] (the default): the checker's machine maintains
//!   a [`raa_spatial::SpatialGrid`] over the in-field slot positions,
//!   updated incrementally as moves, parks and unparks replay, so each
//!   pulse costs O(atoms) grid queries instead of O(atoms²) pair scans.
//! * [`CheckMode::Exhaustive`]: the original all-pairs scan, kept as the
//!   oracle that differential tests compare against.
//!
//! Both modes share the same distance predicates and visit candidate
//! partners in the same (ascending-slot) order, so they return the
//! *identical* verdict — accept, or the same [`LegalityError`] variant
//! with the same fields — on every stream. This is property-tested on
//! random legal and illegal streams (`crates/isa/tests/check_modes.rs`)
//! and over the full benchmark suites (`tests/verify_differential.rs`).

use raa_spatial::SpatialGrid;

use crate::error::LegalityError;
use crate::program::{Instr, IsaProgram, SiteSpec};

/// Slack applied to strict inequalities, matching the router/validator.
const EPS: f64 = 1e-9;

/// How [`check_legality_mode`] enumerates C1 proximity candidates.
///
/// Both modes are proven verdict-identical (same accept/reject, same
/// error variant and fields); the grid only restricts which atoms a scan
/// *looks at* — to those that can possibly be within range — never the
/// distance predicates themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckMode {
    /// Incremental spatial-hash index over in-field slot positions
    /// (cell side = one blockade radius): O(atoms) per pulse. The
    /// default — required for verification to keep pace with the
    /// spatial-hash router on 1000+-atom streams.
    #[default]
    Grid,
    /// The original exhaustive all-pairs scan: O(atoms²) per pulse.
    /// Kept as the oracle the differential checker tests compare
    /// against.
    Exhaustive,
}

struct AodState {
    rows: Vec<f64>,
    cols: Vec<f64>,
    home_rows: Vec<f64>,
    home_cols: Vec<f64>,
    parked: bool,
}

/// The checker's machine model: replayed AOD line positions and parked
/// flags, plus (in [`CheckMode::Grid`]) an incrementally maintained
/// spatial index over the in-field slot positions. Crate-internal so the
/// optimizer's incremental re-verify harness can replay candidate
/// streams instruction by instruction.
pub(crate) struct Machine {
    aods: Vec<AodState>,
    interact_r: f64,
    /// The loading map (slot → trap site), copied out of the program.
    sites: Vec<SiteSpec>,
    /// Slots hosted by each AOD row: `row_slots[aod][row]`.
    row_slots: Vec<Vec<Vec<u32>>>,
    /// Slots hosted by each AOD column: `col_slots[aod][col]`.
    col_slots: Vec<Vec<Vec<u32>>>,
    /// All slots of each AOD.
    aod_slots: Vec<Vec<u32>>,
    /// In-field slot index ([`CheckMode::Grid`] only).
    grid: Option<SpatialGrid>,
}

impl Machine {
    fn position(&self, site: SiteSpec) -> (f64, f64) {
        if site.array == 0 {
            (site.row as f64, site.col as f64)
        } else {
            let aod = &self.aods[site.array as usize - 1];
            (aod.rows[site.row as usize], aod.cols[site.col as usize])
        }
    }

    fn in_field(&self, site: SiteSpec) -> bool {
        site.array == 0 || !self.aods[site.array as usize - 1].parked
    }

    /// Whether two machines replayed to the same observable state: equal
    /// line positions and parked flags on every AOD. (Sites and physics
    /// are construction-time constants; the grid is a pure function of
    /// the rest.)
    pub(crate) fn state_eq(&self, other: &Machine) -> bool {
        self.aods.len() == other.aods.len()
            && self
                .aods
                .iter()
                .zip(&other.aods)
                .all(|(a, b)| a.parked == b.parked && a.rows == b.rows && a.cols == b.cols)
    }

    /// Re-buckets every slot on one AOD line at its current position.
    fn grid_sync_line(&mut self, aod: usize, is_row: bool, line: usize) {
        let Machine {
            aods,
            sites,
            row_slots,
            col_slots,
            grid,
            ..
        } = self;
        let Some(grid) = grid.as_mut() else { return };
        let slots = if is_row {
            &row_slots[aod][line]
        } else {
            &col_slots[aod][line]
        };
        let a = &aods[aod];
        for &s in slots {
            let site = sites[s as usize];
            grid.update(s, (a.rows[site.row as usize], a.cols[site.col as usize]));
        }
    }

    /// Re-buckets every slot of one AOD at its current position (used
    /// when the AOD enters the field or is re-homed in the field).
    fn grid_sync_aod(&mut self, aod: usize) {
        let Machine {
            aods,
            sites,
            aod_slots,
            grid,
            ..
        } = self;
        let Some(grid) = grid.as_mut() else { return };
        let a = &aods[aod];
        for &s in &aod_slots[aod] {
            let site = sites[s as usize];
            grid.update(s, (a.rows[site.row as usize], a.cols[site.col as usize]));
        }
    }

    /// Drops every slot of one AOD from the index (the AOD parked out of
    /// the interaction field).
    fn grid_remove_aod(&mut self, aod: usize) {
        let Machine {
            aod_slots, grid, ..
        } = self;
        let Some(grid) = grid.as_mut() else { return };
        for &s in &aod_slots[aod] {
            grid.remove(s);
        }
    }

    /// Applies one non-init instruction: structural (`Malformed`)
    /// validation always runs; the geometric pulse checks (C1/C2/C3)
    /// run only when `check` is set. The optimizer's incremental
    /// re-verify harness replays its already-verified reference stream
    /// with `check` off and pays for geometry only where a candidate
    /// diverges.
    pub(crate) fn step(
        &mut self,
        pc: usize,
        instr: &Instr,
        check: bool,
    ) -> Result<(), LegalityError> {
        match instr {
            Instr::InitSlm { .. } | Instr::InitAod { .. } => {
                return Err(malformed(pc, "init instruction after start of program"));
            }
            Instr::MoveRow { aod, row, to, .. } => {
                let k = *aod as usize;
                let aod_state = self
                    .aods
                    .get_mut(k)
                    .ok_or_else(|| malformed(pc, "move on undeclared AOD"))?;
                let slot = aod_state
                    .rows
                    .get_mut(*row as usize)
                    .ok_or_else(|| malformed(pc, "move on nonexistent row"))?;
                if !to.is_finite() {
                    return Err(malformed(pc, "non-finite move target"));
                }
                *slot = *to;
                let was_parked = aod_state.parked;
                aod_state.parked = false;
                if was_parked {
                    self.grid_sync_aod(k);
                } else {
                    self.grid_sync_line(k, true, *row as usize);
                }
            }
            Instr::MoveCol { aod, col, to, .. } => {
                let k = *aod as usize;
                let aod_state = self
                    .aods
                    .get_mut(k)
                    .ok_or_else(|| malformed(pc, "move on undeclared AOD"))?;
                let slot = aod_state
                    .cols
                    .get_mut(*col as usize)
                    .ok_or_else(|| malformed(pc, "move on nonexistent column"))?;
                if !to.is_finite() {
                    return Err(malformed(pc, "non-finite move target"));
                }
                *slot = *to;
                let was_parked = aod_state.parked;
                aod_state.parked = false;
                if was_parked {
                    self.grid_sync_aod(k);
                } else {
                    self.grid_sync_line(k, false, *col as usize);
                }
            }
            Instr::Unpark { aod } => {
                let k = *aod as usize;
                let aod_state = self
                    .aods
                    .get_mut(k)
                    .ok_or_else(|| malformed(pc, "unpark of undeclared AOD"))?;
                if aod_state.parked {
                    aod_state.parked = false;
                    self.grid_sync_aod(k);
                }
            }
            Instr::RydbergPulse { pairs } => {
                if check {
                    check_line_constraints(self, pc)?;
                    check_pulse(self, pc, pairs)?;
                } else {
                    // Structural half of check_pulse (cheap, no geometry).
                    let n = self.sites.len() as u32;
                    for &(a, b) in pairs {
                        if a >= n || b >= n {
                            return Err(malformed(
                                pc,
                                format!("pulse references unknown slot ({a}, {b})"),
                            ));
                        }
                    }
                }
            }
            Instr::RamanLayer { gates } => {
                for g in gates {
                    for q in g.qubits() {
                        if q.index() >= self.sites.len() {
                            return Err(malformed(pc, format!("raman gate on unknown slot {q}")));
                        }
                    }
                }
            }
            Instr::Transfer { a, b } => {
                if *a as usize >= self.sites.len() || *b as usize >= self.sites.len() {
                    return Err(malformed(pc, "transfer on unknown slot"));
                }
            }
            Instr::Cool { aod } => {
                if *aod as usize >= self.aods.len() {
                    return Err(malformed(pc, "cool of undeclared AOD"));
                }
            }
            Instr::Park { kept } => {
                for &k in kept {
                    if k as usize >= self.aods.len() {
                        return Err(malformed(pc, "park keeps undeclared AOD"));
                    }
                }
                for k in 0..self.aods.len() {
                    let aod = &mut self.aods[k];
                    aod.rows.clone_from(&aod.home_rows);
                    aod.cols.clone_from(&aod.home_cols);
                    aod.parked = !kept.contains(&(k as u8));
                    if aod.parked {
                        self.grid_remove_aod(k);
                    } else {
                        self.grid_sync_aod(k);
                    }
                }
            }
        }
        Ok(())
    }

    /// The end-of-stream checks: line constraints hold and no in-field
    /// pair remains within the blockade radius (a further pulse would
    /// re-fire on it).
    pub(crate) fn end_check(&self, end_pc: usize) -> Result<(), LegalityError> {
        check_line_constraints(self, end_pc)?;
        check_no_proximity(self, end_pc, &[])
    }
}

fn dist(a: (f64, f64), b: (f64, f64)) -> f64 {
    let dr = a.0 - b.0;
    let dc = a.1 - b.1;
    (dr * dr + dc * dc).sqrt()
}

fn malformed(pc: usize, message: impl Into<String>) -> LegalityError {
    LegalityError::Malformed {
        pc,
        message: message.into(),
    }
}

/// Scans the init prefix and loading map of `program`, returning the
/// initialized machine and the index of the first non-init instruction.
pub(crate) fn init_machine(
    program: &IsaProgram,
    mode: CheckMode,
) -> Result<(Machine, usize), LegalityError> {
    let interact_r = program.interaction_radius_tracks();
    if !(interact_r.is_finite() && interact_r > 0.0) {
        return Err(malformed(usize::MAX, "non-positive interaction radius"));
    }
    let mut slm: Option<(u16, u16)> = None;
    let mut aods: Vec<AodState> = Vec::new();

    // --- Init section: must prefix the stream. ---
    let mut pc = 0usize;
    while pc < program.instrs.len() {
        match program.instrs[pc] {
            Instr::InitSlm { rows, cols } => {
                if slm.is_some() {
                    return Err(malformed(pc, "duplicate InitSlm"));
                }
                if rows == 0 || cols == 0 {
                    return Err(malformed(pc, "empty SLM array"));
                }
                slm = Some((rows, cols));
            }
            Instr::InitAod {
                aod,
                rows,
                cols,
                fx,
                fy,
            } => {
                if aod as usize != aods.len() {
                    return Err(malformed(pc, "AOD arrays must be declared in index order"));
                }
                if rows == 0 || cols == 0 {
                    return Err(malformed(pc, "empty AOD array"));
                }
                if !(fx.is_finite() && fy.is_finite()) {
                    return Err(malformed(pc, "non-finite AOD home offset"));
                }
                let home_rows: Vec<f64> = (0..rows).map(|r| r as f64 + fy).collect();
                let home_cols: Vec<f64> = (0..cols).map(|c| c as f64 + fx).collect();
                aods.push(AodState {
                    rows: home_rows.clone(),
                    cols: home_cols.clone(),
                    home_rows,
                    home_cols,
                    parked: false,
                });
            }
            _ => break,
        }
        pc += 1;
    }
    if slm.is_none() {
        return Err(malformed(usize::MAX, "stream declares no SLM array"));
    }

    // --- Loading map: every slot on a declared, in-range trap. ---
    let (slm_rows, slm_cols) = slm.unwrap();
    for (slot, site) in program.sites.iter().enumerate() {
        let ok = if site.array == 0 {
            site.row < slm_rows && site.col < slm_cols
        } else if let Some(aod) = aods.get(site.array as usize - 1) {
            (site.row as usize) < aod.rows.len() && (site.col as usize) < aod.cols.len()
        } else {
            false
        };
        if !ok {
            return Err(malformed(
                usize::MAX,
                format!("slot {slot} loaded on unknown trap"),
            ));
        }
    }

    // --- Slot indexes per AOD line (for incremental grid maintenance). ---
    let mut row_slots: Vec<Vec<Vec<u32>>> = aods
        .iter()
        .map(|a| vec![Vec::new(); a.rows.len()])
        .collect();
    let mut col_slots: Vec<Vec<Vec<u32>>> = aods
        .iter()
        .map(|a| vec![Vec::new(); a.cols.len()])
        .collect();
    let mut aod_slots: Vec<Vec<u32>> = vec![Vec::new(); aods.len()];
    for (slot, site) in program.sites.iter().enumerate() {
        if site.array > 0 {
            let k = site.array as usize - 1;
            row_slots[k][site.row as usize].push(slot as u32);
            col_slots[k][site.col as usize].push(slot as u32);
            aod_slots[k].push(slot as u32);
        }
    }

    let mut m = Machine {
        aods,
        interact_r,
        sites: program.sites.clone(),
        row_slots,
        col_slots,
        aod_slots,
        grid: match mode {
            // Cell side = the blockade radius, the only radius the
            // checker ever queries: a query disk overlaps at most 9
            // cells.
            CheckMode::Grid => Some(SpatialGrid::new(interact_r)),
            CheckMode::Exhaustive => None,
        },
    };
    // Seed the index: every slot starts in the field at its trap site.
    if let Some(mut grid) = m.grid.take() {
        for s in 0..m.sites.len() as u32 {
            grid.insert(s, m.position(m.sites[s as usize]));
        }
        m.grid = Some(grid);
    }
    Ok((m, pc))
}

/// Verifies that `program`'s stream satisfies the hardware constraints,
/// using the default [`CheckMode::Grid`] candidate enumeration.
///
/// # Errors
///
/// The first violation or structural problem found, as a
/// [`LegalityError`].
pub fn check_legality(program: &IsaProgram) -> Result<(), LegalityError> {
    check_legality_mode(program, CheckMode::default())
}

/// Verifies that `program`'s stream satisfies the hardware constraints,
/// enumerating C1 proximity candidates per `mode`. Both modes return
/// identical verdicts; [`CheckMode::Grid`] is asymptotically faster on
/// large arrays.
///
/// # Errors
///
/// The first violation or structural problem found, as a
/// [`LegalityError`].
pub fn check_legality_mode(program: &IsaProgram, mode: CheckMode) -> Result<(), LegalityError> {
    let _span = raa_trace::span("isa.check");
    let (mut m, start) = init_machine(program, mode)?;
    // A stray init instruction is reported before any replay-discovered
    // violation, wherever it sits in the stream.
    if let Some(at) = program.instrs[start..]
        .iter()
        .position(|i| matches!(i, Instr::InitSlm { .. } | Instr::InitAod { .. }))
    {
        return Err(malformed(
            start + at,
            "init instruction after start of program",
        ));
    }
    // --- Replay. The C1 exactness check runs at every pulse (the global
    // Rydberg laser fires nowhere else) and once more at the end of the
    // stream, which is where incomplete retraction physically matters.
    for (pc, instr) in program.instrs.iter().enumerate().skip(start) {
        m.step(pc, instr, true)?;
    }
    m.end_check(program.instrs.len())
}

/// C2 and C3 over every declared AOD.
fn check_line_constraints(m: &Machine, pc: usize) -> Result<(), LegalityError> {
    for (k, aod) in m.aods.iter().enumerate() {
        for (lines, rows) in [(&aod.rows, true), (&aod.cols, false)] {
            for w in lines.windows(2) {
                let gap = w[1] - w[0];
                if gap <= EPS {
                    return Err(LegalityError::OrderViolation {
                        pc,
                        aod: k as u8,
                        rows,
                    });
                }
                if gap < m.interact_r - EPS {
                    return Err(LegalityError::LineOverlap {
                        pc,
                        aod: k as u8,
                        rows,
                        gap,
                    });
                }
            }
        }
    }
    Ok(())
}

/// C1 at a pulse: scheduled pairs touch, nothing else does.
fn check_pulse(m: &Machine, pc: usize, pairs: &[(u32, u32)]) -> Result<(), LegalityError> {
    let n = m.sites.len() as u32;
    let mut desired: Vec<(u32, u32)> = Vec::with_capacity(pairs.len());
    for &(a, b) in pairs {
        if a >= n || b >= n {
            return Err(LegalityError::Malformed {
                pc,
                message: format!("pulse references unknown slot ({a}, {b})"),
            });
        }
        for s in [a, b] {
            if !m.in_field(m.sites[s as usize]) {
                return Err(LegalityError::Malformed {
                    pc,
                    message: format!("pulse on slot {s} of a parked array"),
                });
            }
        }
        desired.push((a.min(b), a.max(b)));
        let pa = m.position(m.sites[a as usize]);
        let pb = m.position(m.sites[b as usize]);
        let d = dist(pa, pb);
        if d > m.interact_r + EPS {
            return Err(LegalityError::PairTooFar {
                pc,
                pair: (a, b),
                distance: d,
            });
        }
    }

    // Sorted so the hot proximity loop can binary-search instead of
    // linearly scanning the exempt list for every candidate pair.
    desired.sort_unstable();
    check_no_proximity(m, pc, &desired)
}

/// No in-field pair except the `exempt` (normalized, **sorted**) ones
/// may sit within the blockade radius. `exempt` is a pulse's scheduled
/// pair set, empty for the end-of-stream check.
///
/// Both enumeration modes visit slot pairs in identical
/// (lexicographically ascending) order and share the one distance
/// predicate, so the first violation found — and therefore the returned
/// error — is the same.
fn check_no_proximity(m: &Machine, pc: usize, exempt: &[(u32, u32)]) -> Result<(), LegalityError> {
    debug_assert!(exempt.windows(2).all(|w| w[0] <= w[1]), "exempt not sorted");
    let n = m.sites.len() as u32;
    match &m.grid {
        // The index holds exactly the in-field slots, so a per-slot
        // neighborhood query enumerates every candidate partner that can
        // possibly be within the radius.
        Some(grid) => {
            let mut cand: Vec<u32> = Vec::new();
            for x in 0..n {
                let site = m.sites[x as usize];
                if !m.in_field(site) {
                    continue;
                }
                let px = m.position(site);
                cand.clear();
                grid.candidates_into(px, m.interact_r, &mut cand);
                cand.sort_unstable();
                for &y in &cand {
                    if y <= x || exempt.binary_search(&(x, y)).is_ok() {
                        continue;
                    }
                    let py = m.position(m.sites[y as usize]);
                    let d = dist(px, py);
                    if d <= m.interact_r {
                        return Err(LegalityError::UnwantedInteraction {
                            pc,
                            pair: (x, y),
                            distance: d,
                        });
                    }
                }
            }
        }
        None => {
            let active: Vec<u32> = (0..n)
                .filter(|&s| m.in_field(m.sites[s as usize]))
                .collect();
            for (xi, &x) in active.iter().enumerate() {
                let px = m.position(m.sites[x as usize]);
                for &y in &active[xi + 1..] {
                    if exempt.binary_search(&(x, y)).is_ok() {
                        continue;
                    }
                    let py = m.position(m.sites[y as usize]);
                    let d = dist(px, py);
                    if d <= m.interact_r {
                        return Err(LegalityError::UnwantedInteraction {
                            pc,
                            pair: (x, y),
                            distance: d,
                        });
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{ProgramHeader, SiteSpec, FORMAT_VERSION};
    use raa_circuit::{Circuit, Gate, Qubit};

    /// Two slots: s0 on SLM[0,0], s1 on AOD0[0,0]; one pulse brings s1
    /// next to s0 and retracts it afterwards.
    fn legal_program() -> IsaProgram {
        let mut c = Circuit::new(2);
        c.push(Gate::cz(Qubit(0), Qubit(1)));
        IsaProgram {
            version: FORMAT_VERSION,
            header: ProgramHeader::new("test", "legal"),
            slot_of_qubit: vec![0, 1],
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
            ],
        }
    }

    /// Runs both check modes and asserts they agree before returning the
    /// (shared) verdict.
    fn check_both(p: &IsaProgram) -> Result<(), LegalityError> {
        let grid = check_legality_mode(p, CheckMode::Grid);
        let scan = check_legality_mode(p, CheckMode::Exhaustive);
        assert_eq!(grid, scan, "check modes disagree");
        grid
    }

    #[test]
    fn legal_program_passes() {
        check_both(&legal_program()).unwrap();
    }

    #[test]
    fn pair_too_far_is_c1() {
        let mut p = legal_program();
        // Remove the column approach: the pair stays 0.32 tracks apart.
        p.instrs.remove(3);
        assert!(matches!(
            check_both(&p),
            Err(LegalityError::PairTooFar { .. })
        ));
    }

    #[test]
    fn missing_retraction_is_caught() {
        let mut p = legal_program();
        p.instrs.truncate(5); // pulse with no retraction
        assert!(matches!(
            check_both(&p),
            Err(LegalityError::UnwantedInteraction { .. })
        ));
    }

    #[test]
    fn order_inversion_is_c2() {
        let mut p = legal_program();
        // A second AOD row crossing below the first.
        p.instrs[1] = Instr::InitAod {
            aod: 0,
            rows: 2,
            cols: 1,
            fx: 0.4,
            fy: 0.6,
        };
        p.instrs.insert(
            2,
            Instr::MoveRow {
                aod: 0,
                row: 1,
                from: 1.6,
                to: 0.0,
                retract: false,
            },
        );
        assert!(matches!(
            check_both(&p),
            Err(LegalityError::OrderViolation { rows: true, .. })
        ));
    }

    #[test]
    fn near_lines_are_c3() {
        let mut p = legal_program();
        p.instrs[1] = Instr::InitAod {
            aod: 0,
            rows: 2,
            cols: 1,
            fx: 0.4,
            fy: 0.6,
        };
        // Row 1 parks 0.1 tracks above row 0's target: ordered but within
        // the 1/6-track blockade radius.
        p.instrs.insert(
            4,
            Instr::MoveRow {
                aod: 0,
                row: 1,
                from: 1.6,
                to: 0.15,
                retract: false,
            },
        );
        assert!(matches!(
            check_both(&p),
            Err(LegalityError::LineOverlap { rows: true, .. })
        ));
    }

    #[test]
    fn malformed_streams_are_rejected() {
        // No SLM.
        let mut p = legal_program();
        p.instrs.remove(0);
        assert!(matches!(
            check_both(&p),
            Err(LegalityError::Malformed { .. })
        ));

        // Init after start.
        let mut p = legal_program();
        p.instrs.push(Instr::InitAod {
            aod: 1,
            rows: 1,
            cols: 1,
            fx: 0.2,
            fy: 0.2,
        });
        assert!(matches!(
            check_both(&p),
            Err(LegalityError::Malformed { .. })
        ));

        // Move on undeclared AOD.
        let mut p = legal_program();
        p.instrs.push(Instr::MoveRow {
            aod: 3,
            row: 0,
            from: 0.0,
            to: 1.0,
            retract: false,
        });
        assert!(matches!(
            check_both(&p),
            Err(LegalityError::Malformed { .. })
        ));
    }

    #[test]
    fn parked_arrays_are_exempt_until_unparked() {
        let mut p = legal_program();
        // Park AOD0 away, then pulse nothing: the parked atom must not
        // count as in-field even though its home overlaps nothing anyway.
        p.instrs = vec![
            p.instrs[0].clone(),
            p.instrs[1].clone(),
            Instr::Park { kept: vec![] },
            Instr::RydbergPulse { pairs: vec![] },
        ];
        let mut c = Circuit::new(2);
        c.push(Gate::h(Qubit(0)));
        p.reference = c;
        check_both(&p).unwrap();
    }

    #[test]
    fn pulse_on_parked_atom_is_rejected() {
        let mut p = legal_program();
        // Park AOD0, then pulse the pair anyway: slot 1 is out of the
        // interaction field, so the pulse is malformed even if its home
        // happened to sit near the partner.
        p.instrs = vec![
            p.instrs[0].clone(),
            p.instrs[1].clone(),
            Instr::Park { kept: vec![] },
            Instr::RydbergPulse {
                pairs: vec![(0, 1)],
            },
        ];
        assert!(matches!(
            check_both(&p),
            Err(LegalityError::Malformed { .. })
        ));
    }

    /// A wide many-pair pulse: SLM atoms 0..n on row 0, AOD0 column `c`
    /// flying to SLM column `c`, all pairs pulsed at once. Exercises the
    /// sorted-exempt binary search on a pulse with many scheduled pairs.
    fn many_pair_program(n: u16) -> IsaProgram {
        let mut c = Circuit::new(2 * n as usize);
        let mut sites = Vec::new();
        for i in 0..n {
            sites.push(SiteSpec {
                array: 0,
                row: 0,
                col: i,
            });
        }
        for i in 0..n {
            sites.push(SiteSpec {
                array: 1,
                row: 0,
                col: i,
            });
        }
        let mut instrs = vec![
            Instr::InitSlm { rows: 2, cols: n },
            Instr::InitAod {
                aod: 0,
                rows: 1,
                cols: n,
                fx: 0.4,
                fy: 0.6,
            },
            Instr::MoveRow {
                aod: 0,
                row: 0,
                from: 0.6,
                to: 0.05,
                retract: false,
            },
        ];
        let mut pairs = Vec::new();
        for i in 0..n {
            instrs.push(Instr::MoveCol {
                aod: 0,
                col: i,
                from: i as f64 + 0.4,
                to: i as f64 + 0.08,
                retract: false,
            });
            c.push(Gate::cz(Qubit(i as u32), Qubit((n + i) as u32)));
            pairs.push((i as u32, (n + i) as u32));
        }
        instrs.push(Instr::RydbergPulse { pairs });
        instrs.push(Instr::MoveRow {
            aod: 0,
            row: 0,
            from: 0.05,
            to: 0.6,
            retract: true,
        });
        for i in 0..n {
            instrs.push(Instr::MoveCol {
                aod: 0,
                col: i,
                from: i as f64 + 0.08,
                to: i as f64 + 0.4,
                retract: true,
            });
        }
        IsaProgram {
            version: FORMAT_VERSION,
            header: ProgramHeader::new("test", "many-pair"),
            slot_of_qubit: (0..2 * n as u32).collect(),
            sites,
            reference: c,
            instrs,
        }
    }

    #[test]
    fn many_pair_pulse_is_legal_in_both_modes() {
        check_both(&many_pair_program(24)).unwrap();
    }

    #[test]
    fn many_pair_pulse_with_one_unscheduled_pair_is_rejected_identically() {
        let mut p = many_pair_program(24);
        // Drop pair (5, 29) from the pulse while its approach stays: the
        // pair still touches but is no longer exempt. Both modes must
        // report the same UnwantedInteraction, pair and distance.
        if let Instr::RydbergPulse { pairs } = &mut p.instrs[3 + 24] {
            pairs.retain(|&(a, _)| a != 5);
        } else {
            panic!("pulse not where expected");
        }
        // The reference circuit must drop the gate too, so only C1 fails.
        let mut c = Circuit::new(48);
        for i in 0..24u32 {
            if i != 5 {
                c.push(Gate::cz(Qubit(i), Qubit(24 + i)));
            }
        }
        p.reference = c;
        let grid = check_legality_mode(&p, CheckMode::Grid);
        let scan = check_legality_mode(&p, CheckMode::Exhaustive);
        assert_eq!(grid, scan);
        match grid {
            Err(LegalityError::UnwantedInteraction { pair, .. }) => assert_eq!(pair, (5, 29)),
            other => panic!("expected UnwantedInteraction, got {other:?}"),
        }
    }
}
