//! Independent validation of compiled programs.
//!
//! [`validate_program`] replays a [`CompiledProgram`]'s stage schedule
//! against the hardware description and re-checks, from scratch, that
//! every stage satisfies the three hardware constraints and that every
//! scheduled gate pair actually touches. The validator shares no state
//! with the router — it reconstructs line positions purely from the
//! recorded [`LineMove`]s — so it catches bookkeeping bugs the router
//! itself could not notice.

use std::collections::HashMap;

use raa_arch::{ArrayIndex, RaaConfig, TrapSite};

use crate::program::{CompiledProgram, StageKind};
use raa_spatial::SpatialGrid;

/// Rydberg radius in track units (matches the router).
const INTERACT_R: f64 = 1.0 / 6.0;

/// A constraint violation found by the validator.
#[derive(Debug, Clone, PartialEq)]
pub enum ValidationError {
    /// A scheduled gate pair ended up farther apart than the Rydberg
    /// radius.
    PairTooFar {
        /// Stage index.
        stage: usize,
        /// The slot pair.
        pair: (u32, u32),
        /// Distance in track units.
        distance: f64,
    },
    /// Two atoms not scheduled to interact ended within the Rydberg
    /// radius (an unwanted gate).
    UnwantedInteraction {
        /// Stage index.
        stage: usize,
        /// The offending pair.
        pair: (u32, u32),
        /// Distance in track units.
        distance: f64,
    },
    /// A row/column order inversion within one AOD.
    OrderViolation {
        /// Stage index.
        stage: usize,
        /// AOD index.
        aod: u8,
    },
    /// Two adjacent rows/columns of one AOD closer than the Rydberg
    /// radius (C3: their atoms would blockade each other).
    LineOverlap {
        /// Stage index.
        stage: usize,
        /// AOD index.
        aod: u8,
    },
    /// A recorded move references a line the machine does not have.
    UnknownLine {
        /// Stage index.
        stage: usize,
    },
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationError::PairTooFar {
                stage,
                pair,
                distance,
            } => write!(
                f,
                "stage {stage}: scheduled pair ({}, {}) is {distance:.3} tracks apart",
                pair.0, pair.1
            ),
            ValidationError::UnwantedInteraction {
                stage,
                pair,
                distance,
            } => write!(
                f,
                "stage {stage}: unwanted interaction between {} and {} at {distance:.3} tracks",
                pair.0, pair.1
            ),
            ValidationError::OrderViolation { stage, aod } => {
                write!(f, "stage {stage}: AOD{aod} row/column order violated")
            }
            ValidationError::LineOverlap { stage, aod } => {
                write!(
                    f,
                    "stage {stage}: adjacent AOD{aod} lines within the Rydberg radius"
                )
            }
            ValidationError::UnknownLine { stage } => {
                write!(f, "stage {stage}: move references a nonexistent line")
            }
        }
    }
}

impl std::error::Error for ValidationError {}

/// Replays `program` on `hardware` and re-checks every movement stage.
///
/// `site_of_slot` is the atom mapping the program was compiled with
/// (available from [`CompiledProgram::mapping`]).
///
/// Checks performed per movement stage:
///
/// * every scheduled pair ends within the Rydberg radius;
/// * no unscheduled pair of *tracked* atoms (atoms of arrays touched so
///   far, plus the SLM) ends within the Rydberg radius;
/// * each AOD's row and column coordinates remain strictly increasing.
///
/// # Errors
///
/// The first violation found.
pub fn validate_program(
    program: &CompiledProgram,
    hardware: &RaaConfig,
    site_of_slot: &[TrapSite],
) -> Result<(), ValidationError> {
    let num_aods = hardware.num_aods();
    let mut row_pos: Vec<Vec<f64>> = Vec::with_capacity(num_aods);
    let mut col_pos: Vec<Vec<f64>> = Vec::with_capacity(num_aods);
    // Parked arrays are excluded from interaction checks until they move.
    let mut parked = vec![false; num_aods];
    for k in 0..num_aods {
        let dims = hardware.dims(ArrayIndex::aod(k));
        let fy = hardware.home_y(ArrayIndex::aod(k), 0) / hardware.spacing_um;
        let fx = hardware.home_x(ArrayIndex::aod(k), 0) / hardware.spacing_um;
        row_pos.push((0..dims.rows).map(|r| r as f64 + fy).collect());
        col_pos.push((0..dims.cols).map(|c| c as f64 + fx).collect());
    }

    let pos = |site: TrapSite, row_pos: &[Vec<f64>], col_pos: &[Vec<f64>]| -> (f64, f64) {
        if site.array.is_slm() {
            (site.row as f64, site.col as f64)
        } else {
            let k = site.array.aod_number();
            (row_pos[k][site.row as usize], col_pos[k][site.col as usize])
        }
    };

    // Spatial index over every slot's position, maintained as the replay
    // applies moves: the separation checks below query neighbors within
    // the Rydberg radius instead of scanning all atom pairs (the grid's
    // exactness at radius ≤ its cell size is property-tested in
    // `crates/core/tests/spatial_properties.rs`).
    let mut atoms_on_line: HashMap<(usize, bool, u16), Vec<u32>> = HashMap::new();
    for (slot, site) in site_of_slot.iter().enumerate() {
        if !site.array.is_slm() {
            let k = site.array.aod_number();
            atoms_on_line
                .entry((k, true, site.row))
                .or_default()
                .push(slot as u32);
            atoms_on_line
                .entry((k, false, site.col))
                .or_default()
                .push(slot as u32);
        }
    }
    let mut grid = SpatialGrid::new(2.5 * INTERACT_R);
    for (slot, &site) in site_of_slot.iter().enumerate() {
        grid.insert(slot as u32, pos(site, &row_pos, &col_pos));
    }

    for (i, stage) in program.stages.iter().enumerate() {
        match stage.kind {
            StageKind::OneQubit | StageKind::Cooling | StageKind::TransferAssisted => continue,
            StageKind::Reset => {
                // Reset re-homes everything; parked state is conservative
                // (we simply re-enable all arrays and re-home them).
                for k in 0..num_aods {
                    let dims = hardware.dims(ArrayIndex::aod(k));
                    let fy = hardware.home_y(ArrayIndex::aod(k), 0) / hardware.spacing_um;
                    let fx = hardware.home_x(ArrayIndex::aod(k), 0) / hardware.spacing_um;
                    row_pos[k] = (0..dims.rows).map(|r| r as f64 + fy).collect();
                    col_pos[k] = (0..dims.cols).map(|c| c as f64 + fx).collect();
                    parked[k] = !stage.kept_aods.contains(&(k as u8));
                }
                for (slot, site) in site_of_slot.iter().enumerate() {
                    if !site.array.is_slm() {
                        grid.update(slot as u32, pos(*site, &row_pos, &col_pos));
                    }
                }
                continue;
            }
            StageKind::Movement => {}
        }
        // Apply the recorded moves.
        for mv in &stage.moves {
            let k = mv.aod as usize;
            if k >= num_aods {
                return Err(ValidationError::UnknownLine { stage: i });
            }
            if mv.line == u16::MAX {
                parked[k] = false; // unpark marker
                continue;
            }
            let lines = if mv.axis_row {
                &mut row_pos[k]
            } else {
                &mut col_pos[k]
            };
            let Some(slot) = lines.get_mut(mv.line as usize) else {
                return Err(ValidationError::UnknownLine { stage: i });
            };
            *slot = mv.to_track;
            parked[k] = false;
            if let Some(atoms) = atoms_on_line.get(&(k, mv.axis_row, mv.line)) {
                for &atom in atoms {
                    grid.update(atom, pos(site_of_slot[atom as usize], &row_pos, &col_pos));
                }
            }
        }
        // C2 (strict ordering) and C3 (adjacent lines at least one
        // Rydberg radius apart) at the pulse — the same per-pulse line
        // constraints the ISA legality checker enforces, so a stage
        // cannot pass here and fail there.
        for k in 0..num_aods {
            for lines in [&row_pos[k], &col_pos[k]] {
                if lines.windows(2).any(|w| w[1] <= w[0]) {
                    return Err(ValidationError::OrderViolation {
                        stage: i,
                        aod: k as u8,
                    });
                }
                if lines.windows(2).any(|w| w[1] - w[0] < INTERACT_R - 1e-9) {
                    return Err(ValidationError::LineOverlap {
                        stage: i,
                        aod: k as u8,
                    });
                }
            }
        }
        // Gate pairs touch; no unwanted interactions among active atoms.
        let mut desired: HashMap<(u32, u32), ()> = HashMap::new();
        for &(a, b) in &stage.gate_pairs {
            let key = (a.min(b), a.max(b));
            desired.insert(key, ());
            let pa = pos(site_of_slot[a as usize], &row_pos, &col_pos);
            let pb = pos(site_of_slot[b as usize], &row_pos, &col_pos);
            let d = dist(pa, pb);
            if d > INTERACT_R + 1e-9 {
                return Err(ValidationError::PairTooFar {
                    stage: i,
                    pair: (a, b),
                    distance: d,
                });
            }
        }
        if let Some((pair, distance)) = first_unwanted(
            &grid,
            site_of_slot,
            &parked,
            &desired,
            &pos,
            &row_pos,
            &col_pos,
        ) {
            return Err(ValidationError::UnwantedInteraction {
                stage: i,
                pair,
                distance,
            });
        }
        // Apply the post-pulse retraction. Whether it fully separated the
        // pulsed pairs is checked where it physically matters: at the
        // *next* pulse (the unwanted-interaction check above) and at the
        // end of the schedule (below) — the global Rydberg laser only
        // fires at pulses, and the router may legally restore separation
        // with a reset stage instead of a local retraction.
        for mv in &stage.retract_moves {
            let k = mv.aod as usize;
            let lines = if mv.axis_row {
                &mut row_pos[k]
            } else {
                &mut col_pos[k]
            };
            let Some(slot) = lines.get_mut(mv.line as usize) else {
                return Err(ValidationError::UnknownLine { stage: i });
            };
            *slot = mv.to_track;
            if let Some(atoms) = atoms_on_line.get(&(k, mv.axis_row, mv.line)) {
                for &atom in atoms {
                    grid.update(atom, pos(site_of_slot[atom as usize], &row_pos, &col_pos));
                }
            }
        }
    }
    // End of schedule: no in-field pair may remain within the radius (a
    // further pulse would re-fire on it).
    let no_desired = HashMap::new();
    if let Some((pair, distance)) = first_unwanted(
        &grid,
        site_of_slot,
        &parked,
        &no_desired,
        &pos,
        &row_pos,
        &col_pos,
    ) {
        return Err(ValidationError::UnwantedInteraction {
            stage: program.stages.len(),
            pair,
            distance,
        });
    }
    Ok(())
}

/// Scans every active (non-parked) atom's Rydberg-radius neighborhood
/// for a pair not in `desired`; returns the first such pair in
/// ascending `(x, y)` order, with its distance. Replaces the all-pairs
/// scan: the grid enumeration visits only atoms that can possibly be
/// within the radius, reusing one candidate buffer across the whole
/// sweep (the candidates are sorted so the reported pair stays
/// deterministic).
fn first_unwanted(
    grid: &SpatialGrid,
    site_of_slot: &[TrapSite],
    parked: &[bool],
    desired: &HashMap<(u32, u32), ()>,
    pos: &impl Fn(TrapSite, &[Vec<f64>], &[Vec<f64>]) -> (f64, f64),
    row_pos: &[Vec<f64>],
    col_pos: &[Vec<f64>],
) -> Option<((u32, u32), f64)> {
    let active = |s: u32| {
        let site = site_of_slot[s as usize];
        site.array.is_slm() || !parked[site.array.aod_number()]
    };
    let mut buf: Vec<u32> = Vec::new();
    for x in 0..site_of_slot.len() as u32 {
        if !active(x) {
            continue;
        }
        let px = pos(site_of_slot[x as usize], row_pos, col_pos);
        buf.clear();
        grid.candidates_into(px, INTERACT_R, &mut buf);
        buf.sort_unstable();
        for &y in &buf {
            // Report each pair once (y > x) and skip inactive atoms.
            if y <= x || !active(y) {
                continue;
            }
            let key = (x, y);
            if desired.contains_key(&key) {
                continue;
            }
            let py = pos(site_of_slot[y as usize], row_pos, col_pos);
            let d = dist(px, py);
            if d <= INTERACT_R {
                return Some((key, d));
            }
        }
    }
    None
}

fn dist(a: (f64, f64), b: (f64, f64)) -> f64 {
    let dr = a.0 - b.0;
    let dc = a.1 - b.1;
    (dr * dr + dc * dc).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::compile;
    use crate::config::AtomiqueConfig;
    use raa_circuit::{Circuit, Gate, Qubit};
    use rand::{rngs::StdRng, RngExt, SeedableRng};

    fn random_circuit(n: usize, gates: usize, seed: u64) -> Circuit {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut c = Circuit::new(n);
        for _ in 0..gates {
            let a = rng.random_range(0..n as u32);
            let mut b = rng.random_range(0..n as u32);
            while b == a {
                b = rng.random_range(0..n as u32);
            }
            if rng.random::<f64>() < 0.25 {
                c.push(Gate::h(Qubit(a)));
            } else {
                c.push(Gate::cz(Qubit(a), Qubit(b)));
            }
        }
        c
    }

    #[test]
    fn compiled_programs_validate() {
        let cfg = AtomiqueConfig::default();
        for seed in 0..6 {
            let c = random_circuit(16, 50, seed);
            let out = compile(&c, &cfg).unwrap();
            validate_program(&out, &cfg.hardware, &out.mapping.site_of_slot)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn larger_program_validates() {
        let c = random_circuit(40, 200, 9);
        let cfg = AtomiqueConfig::default();
        let out = compile(&c, &cfg).unwrap();
        validate_program(&out, &cfg.hardware, &out.mapping.site_of_slot).unwrap();
    }

    #[test]
    fn tampered_program_fails() {
        let c = random_circuit(8, 20, 1);
        let cfg = AtomiqueConfig::default();
        let mut out = compile(&c, &cfg).unwrap();
        // Corrupt the first movement stage's first move.
        let Some(stage) = out
            .stages
            .iter_mut()
            .find(|s| s.kind == StageKind::Movement && !s.moves.is_empty())
        else {
            panic!("no movement stage");
        };
        for mv in &mut stage.moves {
            if mv.line != u16::MAX {
                mv.to_track += 3.0;
                break;
            }
        }
        assert!(validate_program(&out, &cfg.hardware, &out.mapping.site_of_slot).is_err());
    }

    #[test]
    fn error_display_is_informative() {
        let e = ValidationError::PairTooFar {
            stage: 3,
            pair: (1, 2),
            distance: 0.9,
        };
        assert!(e.to_string().contains("stage 3"));
        let e = ValidationError::OrderViolation { stage: 1, aod: 0 };
        assert!(e.to_string().contains("AOD0"));
    }
}
