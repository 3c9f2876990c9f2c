//! High-parallelism AOD router (paper Sec. III-C, Figs. 8–11).
//!
//! The router iterates over the circuit DAG's front layer. Each iteration
//! executes all frontier one-qubit gates (Raman laser), then greedily
//! builds a *maximal legal parallel set* of two-qubit gates: starting from
//! one gate, candidates are added while three hardware constraints hold,
//! then the AOD rows/columns move and the global Rydberg laser fires.
//!
//! # Geometry ("track" model)
//!
//! Coordinates are measured in trap-spacing units (1 track = `d` = 15 µm).
//! SLM atom `(r, c)` sits at `(r, c)`; AOD *k*'s row `r` / column `c` rest
//! at `r + fy_k` / `c + fx_k` (staggered fractional homes, see
//! [`raa_arch::RaaConfig`]). Executing a gate parks the movable atom at its
//! partner's position plus a small diagonal offset (`0.05, 0.08`) — within
//! the Rydberg radius `r_b = 1/6` track.
//!
//! # Constraints
//!
//! * **C1 — global Rydberg addressing** (Fig. 9): after the move, the set
//!   of atom pairs within `r_b` must be *exactly* the scheduled gate set;
//!   additionally gate participants must keep the paper's 2.5 `r_b` safety
//!   margin from SLM atoms and from other participants. Resting atoms of
//!   un-involved arrays are treated as parked (see DESIGN.md §5).
//! * **C2 — row/column order** (Fig. 10): within one AOD, row and column
//!   coordinates must remain strictly increasing.
//! * **C3 — no overlap** (Fig. 11): adjacent rows/columns of one AOD must
//!   stay at least one Rydberg radius apart (closer means their atoms
//!   blockade each other); violations are counted as *overlaps* (Fig. 24's
//!   metric).
//!
//! Each constraint can be individually relaxed (Fig. 22).

use std::collections::{HashMap, HashSet};

use raa_arch::{ArrayIndex, RaaConfig, TrapSite};
use raa_circuit::{DagSchedule, Gate, GateIdx};
use raa_physics::{HardwareParams, MovementLedger};

use crate::atom_mapper::AtomMapping;
use crate::config::{ProximityIndex, Relaxation, RouterMode, RouterStrategy};
use crate::error::CompileError;
use crate::program::{LineMove, RouterStats, Stage};
use crate::transpile::TranspiledCircuit;
use raa_spatial::{FastMap, FastSet, SpatialGrid};
use raa_trace::Counter;

// Detail-level telemetry (see docs/OBSERVABILITY.md). `route.try_add`
// counts gate-admission attempts, the `route.reject.*` family splits
// the failures by violated constraint, and `route.c1.*` measures the
// C1 scan, the largest remaining cost of an attempt.
static TRY_ADD: Counter = Counter::new("route.try_add");
static GATES_PLANNED: Counter = Counter::new("route.gates_planned");
static REJECT_TARGET: Counter = Counter::new("route.reject.target_conflict");
static REJECT_ADDRESSING: Counter = Counter::new("route.reject.addressing");
static REJECT_ORDER: Counter = Counter::new("route.reject.order");
static REJECT_OVERLAP: Counter = Counter::new("route.reject.overlap");
static C1_CALLS: Counter = Counter::new("route.c1.calls");
static C1_DIRTY: Counter = Counter::new("route.c1.dirty");
static RETRACT_LINES: Counter = Counter::new("route.retract.lines");
static RETRACT_MEMO_SCANS: Counter = Counter::new("route.retract.memo_scan");
static RETRACT_UNRESOLVED: Counter = Counter::new("route.retract.unresolved");
static RESET_STAGES: Counter = Counter::new("route.reset_stages");
static TRANSFER_FALLBACKS: Counter = Counter::new("route.transfer_fallbacks");

/// Rydberg radius in track units (`r_b = d/6`).
pub(crate) const INTERACT_R: f64 = 1.0 / 6.0;
/// Safety band in track units (2.5 `r_b`).
const BAND_R: f64 = 5.0 / 12.0;
/// Row offset of a parked interacting atom relative to its partner.
const DELTA_ROW: f64 = 0.05;
/// Column offset of a parked interacting atom relative to its partner.
const DELTA_COL: f64 = 0.08;
/// Distance (in tracks) charged for parking or unparking one array.
pub(crate) const PARK_TRAVEL: f64 = 2.0;

/// Identifies one movable line: `(aod index 0-based, axis, line index)`.
type LineKey = (u8, Axis, u16);

/// A moved atom in the C1 pass over moved pairs: its grid cell, slot and
/// virtual position.
type CellEntry = ((i64, i64), u32, (f64, f64));

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum Axis {
    Row,
    Col,
}

/// Why a candidate gate was rejected from the current stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reject {
    /// A required row/column already has a different target.
    TargetConflict,
    /// C1: unwanted Rydberg-range pair or safety-band violation.
    Addressing,
    /// C2: row/column order violation.
    Order,
    /// C3: rows/columns of one AOD would overlap.
    Overlap,
}

/// Output of the movement-routing pass.
#[derive(Debug, Clone)]
pub struct RoutedProgram {
    /// The executed stages, in order.
    pub stages: Vec<Stage>,
    /// Aggregate statistics.
    pub stats: RouterStats,
}

/// The router's machine state during planning.
///
/// Invariant: between gate-admission attempts, `eff_row`/`eff_col` and
/// `grid` hold exactly the committed positions plus the plan accepted so
/// far. An attempt decides on virtual positions computed from the axes
/// it solved into `scratch`, and writes `eff_*` and the grid only when
/// its gate is accepted.
struct RouterState<'a> {
    hw: &'a RaaConfig,
    relax: Relaxation,
    /// Which proximity-candidate enumeration the constraint checks use.
    index: ProximityIndex,
    /// Committed line positions, indexed `[aod][line]`.
    cur_row: Vec<Vec<f64>>,
    cur_col: Vec<Vec<f64>>,
    /// Effective positions = committed plus the accepted plan.
    eff_row: Vec<Vec<f64>>,
    eff_col: Vec<Vec<f64>>,
    parked: Vec<bool>,
    site_of_slot: Vec<TrapSite>,
    /// Atoms grouped by (aod, axis, line) for dirty-set computation.
    atoms_on_line: FastMap<LineKey, Vec<u32>>,
    /// Atoms per AOD array (for parking/cooling).
    atoms_in_aod: Vec<Vec<u32>>,
    /// Spatial index over every slot's *effective* position, kept in sync
    /// with `eff_row`/`eff_col` by the axis-mutation helpers. Cell size is
    /// [`BAND_R`], the largest radius any constraint check queries.
    grid: SpatialGrid,
    /// Per-attempt buffers of [`RouterState::try_add`].
    scratch: Scratch,
}

/// The stage plan accepted so far.
///
/// Explicit `targets` pin the lines that gates need at exact positions;
/// every other line of an affected axis is *repositioned* by
/// [`solve_axis`] so that order (C2) and minimum separation (C3) hold —
/// modelling the physical ability of an AOD to compress or shift its
/// un-involved rows/columns within the same movement. Only accepted
/// gates leave entries here: a rejected attempt removes what it inserted.
#[derive(Default)]
struct Plan {
    /// Explicit line targets required by the planned gates.
    targets: FastMap<LineKey, f64>,
    /// Arrays being unparked this stage.
    unparked: FastSet<u8>,
    gates: Vec<(GateIdx, u32, u32)>,
    participants: FastSet<u32>,
    desired: FastSet<(u32, u32)>,
}

/// Per-attempt buffers of [`RouterState::try_add`], reused across
/// attempts.
#[derive(Default)]
struct Scratch {
    /// The axes this attempt re-solves, sorted; `vals[i]` holds the
    /// solved positions of `axes[i]` (buffers past `axes.len()` are
    /// spares).
    axes: Vec<(u8, Axis)>,
    vals: Vec<Vec<f64>>,
    /// The attempt's dirty atoms, in the order C1 visits them.
    dirty: Vec<u32>,
    /// `mark[slot] == epoch` iff `slot` is dirty in this attempt;
    /// `moved[slot] == epoch` iff it is dirty because a line under it
    /// moved, so the grid does not hold it at its virtual position.
    mark: Vec<u32>,
    moved: Vec<u32>,
    epoch: u32,
    /// Non-parked moved atoms with their virtual positions, sorted by
    /// grid cell: the grid's stand-in for the moved×moved pass of C1.
    by_cell: Vec<CellEntry>,
    /// Grid candidate buffer.
    buf: Vec<u32>,
    /// What this attempt inserted into the plan, removed again on
    /// rejection.
    new_targets: Vec<LineKey>,
    new_unparked: Vec<u8>,
    new_participants: Vec<u32>,
    new_desired: Option<(u32, u32)>,
}

impl Scratch {
    fn new(slots: usize) -> Self {
        Scratch {
            mark: vec![0; slots],
            moved: vec![0; slots],
            ..Scratch::default()
        }
    }

    /// Starts an attempt: clears the per-attempt lists and advances the
    /// epoch, which un-marks every slot at once.
    fn begin(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.mark.fill(0);
            self.moved.fill(0);
            self.epoch = 1;
        }
        self.axes.clear();
        self.dirty.clear();
        self.new_targets.clear();
        self.new_unparked.clear();
        self.new_participants.clear();
        self.new_desired = None;
    }

    fn is_dirty(&self, slot: u32) -> bool {
        self.mark[slot as usize] == self.epoch
    }

    fn is_moved(&self, slot: u32) -> bool {
        self.moved[slot as usize] == self.epoch
    }

    /// Marks `slot` dirty, and also moved when `moved` is set.
    fn mark_dirty(&mut self, slot: u32, moved: bool) {
        if moved {
            self.moved[slot as usize] = self.epoch;
        }
        if !self.is_dirty(slot) {
            self.mark[slot as usize] = self.epoch;
            self.dirty.push(slot);
        }
    }

    /// The solved positions of axis `(k, axis)`, when this attempt
    /// re-solves it.
    fn solved(&self, k: u8, axis: Axis) -> Option<&[f64]> {
        self.axes
            .iter()
            .position(|&a| a == (k, axis))
            .map(|i| &self.vals[i][..])
    }

    /// Removes from `plan` exactly what this attempt inserted.
    fn undo(&self, plan: &mut Plan) {
        for key in &self.new_targets {
            plan.targets.remove(key);
        }
        for k in &self.new_unparked {
            plan.unparked.remove(k);
        }
        for p in &self.new_participants {
            plan.participants.remove(p);
        }
        if let Some(key) = self.new_desired {
            plan.desired.remove(&key);
        }
    }
}

/// Minimum separation between two lines of one AOD (C3): one Rydberg
/// radius plus slack.
const LINE_GAP: f64 = INTERACT_R + 0.01;

/// First candidate of the fallback retraction scan: just beyond the
/// blockade radius — the smallest displacement that can separate a
/// pulsed pair.
const RETRACT_MIN: f64 = INTERACT_R + 0.01;
/// Step of the fallback retraction scan: a sixth of the blockade radius
/// (≈0.028 tracks, denser sampling than the legacy hard-coded
/// 0.03-track ladder, though on a different lattice). Any clear
/// interval wider than one step is guaranteed to contain a candidate;
/// narrower slivers between two blockers can fall between samples —
/// the reset fallback covers those.
const RETRACT_STEP: f64 = INTERACT_R / 6.0;
/// Last candidate of the fallback retraction scan: one trap pitch plus
/// the safety band. A line displaced farther than that sits beyond the
/// adjacent track's safety band, where re-homing the array (the reset
/// fallback) is always the cheaper recovery.
const RETRACT_MAX: f64 = 1.0 + BAND_R;

/// Fallback retraction scan, outward in |amount|: `±(RETRACT_MIN +
/// i·RETRACT_STEP)` up to [`RETRACT_MAX`]. All three bounds are derived
/// from the hardware geometry ([`INTERACT_R`]/[`BAND_R`]) rather than
/// hard-coded; the previous fixed 28-step ladder capped at ±1.02 tracks
/// and missed clear slots that only exist beyond one trap pitch (see the
/// `fallback_ladder_separates_beyond_legacy_cap` regression test).
fn fallback_amounts() -> impl Iterator<Item = f64> {
    let steps = ((RETRACT_MAX - RETRACT_MIN) / RETRACT_STEP).floor() as usize;
    (0..=steps).flat_map(|i| {
        let a = RETRACT_MIN + i as f64 * RETRACT_STEP;
        [a, -a]
    })
}

/// Repositions the untargeted lines of one axis around the pinned targets.
///
/// Writes the full position vector into `out`, or returns the violated
/// constraint. Pinned lines must be strictly increasing in index order
/// (C2); untargeted lines
/// in between are squeezed into the gap with at least [`LINE_GAP`]
/// separation (C3), preferring half-cell offsets that keep their atoms
/// away from the SLM lattice; lines outside the pinned range walk outward
/// at one-cell pitch on half-cell offsets.
fn solve_axis(
    cur: &[f64],
    targets: &FastMap<LineKey, f64>,
    key_of: impl Fn(u16) -> LineKey,
    relax: Relaxation,
    out: &mut Vec<f64>,
) -> Result<(), Reject> {
    let n = cur.len();
    out.clear();
    out.extend_from_slice(cur);
    let pinned: Vec<(usize, f64)> = (0..n)
        .filter_map(|i| targets.get(&key_of(i as u16)).map(|&t| (i, t)))
        .collect();
    if pinned.is_empty() {
        return Ok(());
    }
    // C2 among pinned lines.
    if !relax.allow_order_violation {
        for w in pinned.windows(2) {
            if w[1].1 - w[0].1 <= 1e-9 {
                return Err(Reject::Order);
            }
        }
    }
    // C3 among pinned lines.
    if !relax.allow_overlap {
        for w in pinned.windows(2) {
            if (w[1].1 - w[0].1).abs() < ((w[1].0 - w[0].0) as f64) * LINE_GAP {
                return Err(Reject::Overlap);
            }
        }
    }
    for &(i, t) in &pinned {
        out[i] = t;
    }
    // Left of the first pinned line: keep current when legal, else walk
    // outward at one-cell pitch on a half-cell offset.
    let (first_i, first_t) = pinned[0];
    let mut bound = first_t;
    for i in (0..first_i).rev() {
        if out[i] < bound - LINE_GAP {
            bound = out[i];
        } else {
            out[i] = (bound - 0.55).floor() + 0.5;
            if out[i] >= bound - LINE_GAP {
                out[i] = bound - 1.0;
            }
            bound = out[i];
        }
    }
    // Right of the last pinned line: mirror image.
    let (last_i, last_t) = *pinned.last().expect("nonempty");
    let mut bound = last_t;
    for slot in out.iter_mut().take(n).skip(last_i + 1) {
        if *slot > bound + LINE_GAP {
            bound = *slot;
        } else {
            *slot = (bound + 0.55).ceil() + 0.5;
            if *slot <= bound + LINE_GAP {
                *slot = bound + 1.0;
            }
            bound = *slot;
        }
    }
    // Between consecutive pinned lines: keep current when legal, else
    // spread evenly.
    for w in pinned.windows(2) {
        let (li, lt) = w[0];
        let (ri, rt) = w[1];
        let k = ri - li - 1;
        if k == 0 {
            continue;
        }
        let legal = (li + 1..ri)
            .all(|i| out[i] > out[i - 1] + LINE_GAP && out[i] < rt - LINE_GAP * ((ri - i) as f64));
        if legal {
            continue;
        }
        if !relax.allow_overlap && rt - lt < (k as f64 + 1.0) * LINE_GAP {
            return Err(Reject::Overlap);
        }
        let step = (rt - lt) / (k as f64 + 1.0);
        for (m, i) in (li + 1..ri).enumerate() {
            out[i] = lt + step * (m as f64 + 1.0);
        }
    }
    // Full order re-check (untargeted placements included).
    if !relax.allow_order_violation {
        for i in 1..n {
            if out[i] - out[i - 1] <= 1e-9 {
                return Err(Reject::Order);
            }
        }
    }
    Ok(())
}

/// One hypothetical retraction position being tested for clearance:
/// `atom` (at `site`, on line `key`) moved to `p`.
#[derive(Clone, Copy)]
struct RetractionProbe {
    key: LineKey,
    site: TrapSite,
    p: (f64, f64),
    atom: u32,
}

impl<'a> RouterState<'a> {
    fn new(
        hw: &'a RaaConfig,
        mapping: &AtomMapping,
        relax: Relaxation,
        index: ProximityIndex,
    ) -> Self {
        let num_aods = hw.num_aods();
        let mut cur_row = Vec::with_capacity(num_aods);
        let mut cur_col = Vec::with_capacity(num_aods);
        for k in 0..num_aods {
            let dims = hw.dims(ArrayIndex::aod(k));
            let fy = hw.home_y(ArrayIndex::aod(k), 0) / hw.spacing_um;
            let fx = hw.home_x(ArrayIndex::aod(k), 0) / hw.spacing_um;
            cur_row.push((0..dims.rows).map(|r| r as f64 + fy).collect());
            cur_col.push((0..dims.cols).map(|c| c as f64 + fx).collect());
        }
        let mut atoms_on_line: FastMap<LineKey, Vec<u32>> = FastMap::default();
        let mut atoms_in_aod: Vec<Vec<u32>> = vec![Vec::new(); num_aods];
        for (slot, site) in mapping.site_of_slot.iter().enumerate() {
            if !site.array.is_slm() {
                let k = site.array.aod_number() as u8;
                atoms_on_line
                    .entry((k, Axis::Row, site.row))
                    .or_default()
                    .push(slot as u32);
                atoms_on_line
                    .entry((k, Axis::Col, site.col))
                    .or_default()
                    .push(slot as u32);
                atoms_in_aod[k as usize].push(slot as u32);
            }
        }
        let mut state = RouterState {
            hw,
            relax,
            index,
            eff_row: cur_row.clone(),
            eff_col: cur_col.clone(),
            cur_row,
            cur_col,
            parked: vec![false; num_aods],
            site_of_slot: mapping.site_of_slot.clone(),
            atoms_on_line,
            atoms_in_aod,
            grid: SpatialGrid::new(BAND_R),
            scratch: Scratch::new(mapping.site_of_slot.len()),
        };
        for slot in 0..state.site_of_slot.len() as u32 {
            let p = state.pos(slot);
            state.grid.insert(slot, p);
        }
        state
    }

    /// Effective position (track units) of a slot under the current plan.
    fn pos(&self, slot: u32) -> (f64, f64) {
        let site = self.site_of_slot[slot as usize];
        if site.array.is_slm() {
            (site.row as f64, site.col as f64)
        } else {
            let k = site.array.aod_number();
            (
                self.eff_row[k][site.row as usize],
                self.eff_col[k][site.col as usize],
            )
        }
    }

    fn home_row(&self, k: usize, r: usize) -> f64 {
        r as f64 + self.hw.home_y(ArrayIndex::aod(k), 0) / self.hw.spacing_um
    }

    fn home_col(&self, k: usize, c: usize) -> f64 {
        c as f64 + self.hw.home_x(ArrayIndex::aod(k), 0) / self.hw.spacing_um
    }

    fn is_parked_slot(&self, slot: u32, plan: &Plan) -> bool {
        let site = self.site_of_slot[slot as usize];
        if site.array.is_slm() {
            return false;
        }
        let k = site.array.aod_number();
        self.parked[k] && !plan.unparked.contains(&(k as u8))
    }

    /// Refreshes the spatial index for every atom on line `key` after
    /// the line's effective position changed.
    fn sync_line_grid(&mut self, key: LineKey) {
        let Some(atoms) = self.atoms_on_line.get(&key) else {
            return;
        };
        let grid = &mut self.grid;
        let (eff_row, eff_col) = (&self.eff_row, &self.eff_col);
        let sites = &self.site_of_slot;
        for &atom in atoms {
            let site = sites[atom as usize];
            let k = site.array.aod_number();
            grid.update(
                atom,
                (eff_row[k][site.row as usize], eff_col[k][site.col as usize]),
            );
        }
    }

    /// Replaces one axis's effective positions with `vals`, keeping the
    /// spatial index in sync for every atom whose line actually moved.
    /// The old positions are swapped out into `vals`.
    fn set_eff_axis(&mut self, k: u8, axis: Axis, vals: &mut Vec<f64>) {
        let eff = match axis {
            Axis::Row => &mut self.eff_row[k as usize],
            Axis::Col => &mut self.eff_col[k as usize],
        };
        std::mem::swap(eff, vals);
        for (i, &old) in vals.iter().enumerate() {
            let new = match axis {
                Axis::Row => self.eff_row[k as usize][i],
                Axis::Col => self.eff_col[k as usize][i],
            };
            if (old - new).abs() > 1e-12 {
                self.sync_line_grid((k, axis, i as u16));
            }
        }
    }

    /// Refreshes the spatial index for every atom of AOD `k` (used by the
    /// whole-array re-homing of [`RouterState::reset`]).
    fn resync_aod_grid(&mut self, k: usize) {
        let grid = &mut self.grid;
        let (eff_row, eff_col) = (&self.eff_row, &self.eff_col);
        let sites = &self.site_of_slot;
        for &atom in &self.atoms_in_aod[k] {
            let site = sites[atom as usize];
            let kk = site.array.aod_number();
            grid.update(
                atom,
                (
                    eff_row[kk][site.row as usize],
                    eff_col[kk][site.col as usize],
                ),
            );
        }
    }

    /// The position of `slot` if the attempt in `s` were accepted: its
    /// lines' solved values where the attempt re-solves them, the
    /// accepted `eff_*` elsewhere.
    fn virtual_pos(&self, s: &Scratch, slot: u32) -> (f64, f64) {
        let site = self.site_of_slot[slot as usize];
        if site.array.is_slm() {
            return (site.row as f64, site.col as f64);
        }
        let k = site.array.aod_number();
        let (r, c) = (site.row as usize, site.col as usize);
        (
            s.solved(k as u8, Axis::Row)
                .map_or(self.eff_row[k][r], |v| v[r]),
            s.solved(k as u8, Axis::Col)
                .map_or(self.eff_col[k][c], |v| v[c]),
        )
    }

    /// Marks the atoms on line `j` of the attempt's `i`-th re-solved
    /// axis dirty and moved when its solved value differs from the
    /// accepted one.
    fn mark_line_if_moved(&self, s: &mut Scratch, i: usize, j: u16) {
        let (k, axis) = s.axes[i];
        let old = match axis {
            Axis::Row => self.eff_row[k as usize][j as usize],
            Axis::Col => self.eff_col[k as usize][j as usize],
        };
        if (s.vals[i][j as usize] - old).abs() <= 1e-12 {
            return;
        }
        if let Some(atoms) = self.atoms_on_line.get(&(k, axis, j)) {
            for &atom in atoms {
                s.mark_dirty(atom, true);
            }
        }
    }

    /// Attempts to add gate `g` between slots `a` and `b` to the plan.
    ///
    /// Decides before it writes: [`RouterState::decide`] runs every
    /// check on virtual positions, and only an accepted gate writes its
    /// solved axes into `eff_*` and the grid. A rejected gate removes
    /// from the plan exactly what it inserted, so `eff_*`, the grid and
    /// the plan are untouched by it.
    fn try_add(&mut self, plan: &mut Plan, g: GateIdx, a: u32, b: u32) -> Result<(), Reject> {
        let mut s = std::mem::take(&mut self.scratch);
        let verdict = self.decide(plan, &mut s, a, b);
        match verdict {
            Ok(()) => {
                for i in 0..s.axes.len() {
                    let (k, axis) = s.axes[i];
                    self.set_eff_axis(k, axis, &mut s.vals[i]);
                }
                plan.gates.push((g, a, b));
            }
            Err(_) => s.undo(plan),
        }
        self.scratch = s;
        verdict
    }

    /// Decides whether the gate between slots `a` and `b` joins the plan,
    /// in the order target conflict, C2/C3 per affected axis (sorted, the
    /// first failure wins), C1, desired pairs. Inserts the gate's targets,
    /// unparks, participants and desired pair into `plan`, recording them
    /// in `s` for [`Scratch::undo`]; never writes `eff_*` or the grid.
    fn decide(&self, plan: &mut Plan, s: &mut Scratch, a: u32, b: u32) -> Result<(), Reject> {
        s.begin();
        let site_a = self.site_of_slot[a as usize];
        let site_b = self.site_of_slot[b as usize];
        debug_assert_ne!(
            site_a.array, site_b.array,
            "intra-array gate reached router"
        );

        // Unpark any parked participant arrays.
        for site in [site_a, site_b] {
            if !site.array.is_slm() {
                let k = site.array.aod_number() as u8;
                if self.parked[k as usize] && plan.unparked.insert(k) {
                    s.new_unparked.push(k);
                }
            }
        }

        // Compute explicit movement targets.
        let mut set_target = |key: LineKey, value: f64| match plan.targets.get(&key) {
            Some(&t) => (t - value).abs() < 1e-9,
            None => {
                plan.targets.insert(key, value);
                s.new_targets.push(key);
                true
            }
        };
        let ok = if site_a.array.is_slm() || site_b.array.is_slm() {
            let (slm, aod) = if site_a.array.is_slm() {
                (site_a, site_b)
            } else {
                (site_b, site_a)
            };
            let k = aod.array.aod_number() as u8;
            set_target((k, Axis::Row, aod.row), slm.row as f64 + DELTA_ROW)
                && set_target((k, Axis::Col, aod.col), slm.col as f64 + DELTA_COL)
        } else {
            // AOD–AOD: the lower-indexed array anchors; the other moves to
            // the anchor's effective position plus the interaction offset.
            let (anchor, mover) = if site_a.array.0 < site_b.array.0 {
                (site_a, site_b)
            } else {
                (site_b, site_a)
            };
            let ka = anchor.array.aod_number();
            let km = mover.array.aod_number() as u8;
            let (ar, ac) = (
                self.eff_row[ka][anchor.row as usize],
                self.eff_col[ka][anchor.col as usize],
            );
            // Hold the anchor's lines so later gates can't move them away.
            set_target((ka as u8, Axis::Row, anchor.row), ar)
                && set_target((ka as u8, Axis::Col, anchor.col), ac)
                && set_target((km, Axis::Row, mover.row), ar + DELTA_ROW)
                && set_target((km, Axis::Col, mover.col), ac + DELTA_COL)
        };
        if !ok {
            return Err(Reject::TargetConflict);
        }

        let key = norm_pair(a, b);
        if plan.desired.insert(key) {
            s.new_desired = Some(key);
        }
        for p in [a, b] {
            if plan.participants.insert(p) {
                s.new_participants.push(p);
            }
        }

        // Re-solve every axis touched by the new targets into scratch:
        // C2/C3 plus the repositioning of untargeted lines. Sorted, not
        // hashed: the first unsolvable axis decides the rejection, so a
        // seeded hash order would make the rejection returned (and the
        // work telemetry records) vary run to run.
        s.axes
            .extend(s.new_targets.iter().map(|&(k, axis, _)| (k, axis)));
        s.axes.sort_unstable();
        s.axes.dedup();
        if s.vals.len() < s.axes.len() {
            s.vals.resize_with(s.axes.len(), Vec::new);
        }
        for i in 0..s.axes.len() {
            let (k, axis) = s.axes[i];
            let cur = match axis {
                Axis::Row => &self.eff_row[k as usize],
                Axis::Col => &self.eff_col[k as usize],
            };
            solve_axis(
                cur,
                &plan.targets,
                |j| (k, axis, j),
                self.relax,
                &mut s.vals[i],
            )?;
        }

        // Dirty atoms, in the order C1 visits them: the gate's atoms, the
        // atoms on the gate's own target lines that moved (where most
        // violations are), the atoms on every other line that moved, and
        // the atoms of every unparked array.
        s.mark_dirty(a, false);
        s.mark_dirty(b, false);
        for t in 0..s.new_targets.len() {
            let (k, axis, j) = s.new_targets[t];
            let i = s
                .axes
                .binary_search(&(k, axis))
                .expect("targeted axis is re-solved");
            self.mark_line_if_moved(s, i, j);
        }
        for i in 0..s.axes.len() {
            for j in 0..s.vals[i].len() {
                self.mark_line_if_moved(s, i, j as u16);
            }
        }
        for (k, atoms) in self.atoms_in_aod.iter().enumerate() {
            if plan.unparked.contains(&(k as u8)) {
                for &atom in atoms {
                    s.mark_dirty(atom, false);
                }
            }
        }

        // C1: exact interaction set plus participant safety bands.
        if !self.relax.individual_addressing {
            C1_CALLS.incr();
            C1_DIRTY.add(s.dirty.len() as u64);
            if !self.c1_clear(plan, s) {
                return Err(Reject::Addressing);
            }
        }

        // Desired pairs must all still touch (an anchor may have moved).
        let at = |slot: u32| self.virtual_pos(s, slot);
        if plan
            .desired
            .iter()
            .any(|&(da, db)| dist(at(da), at(db)) > INTERACT_R + 1e-9)
        {
            return Err(Reject::TargetConflict);
        }
        Ok(())
    }

    /// C1 over the attempt's dirty atoms at their virtual positions:
    /// exact interaction set plus participant safety bands. `true` when
    /// clear.
    ///
    /// Every unordered pair with at least one dirty, non-parked atom and
    /// a non-parked partner is tested by [`RouterState::c1_pair_ok`].
    /// [`ProximityIndex::Exhaustive`] scans every slot for every dirty
    /// atom. [`ProximityIndex::Grid`] splits the same pairs in two
    /// passes. First, each dirty atom against the grid hits that have not
    /// moved: the grid holds the accepted plan, which is exact for every
    /// atom the attempt does not move. Then, only if that passes, the
    /// pairs of moved atoms through `by_cell`, a list sorted by grid
    /// cell that enumerates the same cells the grid would. The predicate
    /// is symmetric and passes every pair farther apart than [`BAND_R`],
    /// and every failure is [`Reject::Addressing`], so both modes return
    /// the same verdict.
    fn c1_clear(&self, plan: &Plan, s: &mut Scratch) -> bool {
        let n = self.site_of_slot.len() as u32;
        for i in 0..s.dirty.len() {
            let x = s.dirty[i];
            if self.is_parked_slot(x, plan) {
                continue;
            }
            let px = self.virtual_pos(s, x);
            match self.index {
                ProximityIndex::Exhaustive => {
                    for y in 0..n {
                        // Dirty pairs are tested once, from the lower slot.
                        if y == x || (s.is_dirty(y) && y < x) || self.is_parked_slot(y, plan) {
                            continue;
                        }
                        if !self.c1_pair_ok(plan, x, px, y, self.virtual_pos(s, y)) {
                            return false;
                        }
                    }
                }
                ProximityIndex::Grid => {
                    // A moved `x` tests every unmoved dirty hit; pairs of
                    // unmoved dirty atoms are tested once, from the lower
                    // slot.
                    let x_moved = s.is_moved(x);
                    s.buf.clear();
                    self.grid.candidates_into(px, BAND_R, &mut s.buf);
                    for &y in &s.buf {
                        if y == x
                            || s.is_moved(y)
                            || (!x_moved && y < x && s.is_dirty(y))
                            || self.is_parked_slot(y, plan)
                        {
                            continue;
                        }
                        if !self.c1_pair_ok(plan, x, px, y, self.virtual_pos(s, y)) {
                            return false;
                        }
                    }
                }
            }
        }
        if self.index == ProximityIndex::Exhaustive {
            return true;
        }
        let mut by_cell = std::mem::take(&mut s.by_cell);
        by_cell.clear();
        for &x in &s.dirty {
            if s.is_moved(x) && !self.is_parked_slot(x, plan) {
                let p = self.virtual_pos(s, x);
                by_cell.push((self.grid.cell_of(p), x, p));
            }
        }
        by_cell.sort_unstable_by_key(|&(c, x, _)| (c, x));
        let clear = by_cell.iter().all(|&(_, x, px)| {
            let ((x0, y0), (x1, y1)) = self.grid.cell_span(px, BAND_R);
            (x0..=x1).all(|cx| {
                let lo = by_cell.partition_point(|&(c, _, _)| c < (cx, y0));
                by_cell[lo..]
                    .iter()
                    .take_while(|&&(c, _, _)| c <= (cx, y1))
                    // Each moved pair once, from the lower slot.
                    .all(|&(_, y, py)| y <= x || self.c1_pair_ok(plan, x, px, y, py))
            })
        });
        s.by_cell = by_cell;
        clear
    }

    /// The C1 predicate for one pair at the attempt's virtual positions:
    /// `false` on an unwanted interaction or a safety-band violation.
    /// Symmetric in its two atoms, and every pair farther apart than
    /// [`BAND_R`] passes — which is what makes the grid enumeration in
    /// [`RouterState::c1_clear`] exact.
    #[inline]
    fn c1_pair_ok(&self, plan: &Plan, x: u32, px: (f64, f64), y: u32, py: (f64, f64)) -> bool {
        let d = dist(px, py);
        if d >= BAND_R || plan.desired.contains(&norm_pair(x, y)) {
            return true; // desired pairs are validated separately
        }
        if d <= INTERACT_R {
            return false; // unwanted gate
        }
        let x_part = plan.participants.contains(&x);
        let y_part = plan.participants.contains(&y);
        let y_slm = self.site_of_slot[y as usize].array.is_slm();
        let x_slm = self.site_of_slot[x as usize].array.is_slm();
        !((x_part && (y_part || y_slm)) || (y_part && x_slm))
    }

    /// Commits the plan: updates committed positions and returns the
    /// per-line moves plus per-atom row/column track deltas (the ledger is
    /// fed once by the caller, after retraction is folded in).
    fn commit(&mut self, plan: &Plan) -> (Vec<LineMove>, HashMap<u32, f64>, HashMap<u32, f64>) {
        let mut moves = Vec::new();
        let mut row_delta: HashMap<u32, f64> = HashMap::new();
        let mut col_delta: HashMap<u32, f64> = HashMap::new();

        // Unparked arrays travel from the parking zone. Sorted so the
        // emitted move list (and thus the serialized stream) is
        // deterministic.
        let mut unparked: Vec<u8> = plan.unparked.iter().copied().collect();
        unparked.sort_unstable();
        for k in unparked {
            self.parked[k as usize] = false;
            for &atom in &self.atoms_in_aod[k as usize] {
                row_delta.insert(atom, PARK_TRAVEL);
            }
            moves.push(LineMove {
                aod: k,
                axis_row: true,
                line: u16::MAX,
                from_track: f64::NAN,
                to_track: f64::NAN,
            });
        }

        // Every line whose solved position differs from the committed one
        // moves (explicit targets and repositioned lines alike).
        for k in 0..self.hw.num_aods() {
            for axis in [Axis::Row, Axis::Col] {
                let (cur, eff) = match axis {
                    Axis::Row => (&mut self.cur_row[k], &self.eff_row[k]),
                    Axis::Col => (&mut self.cur_col[k], &self.eff_col[k]),
                };
                for idx in 0..cur.len() {
                    let old = cur[idx];
                    let new = eff[idx];
                    if (old - new).abs() < 1e-12 {
                        continue;
                    }
                    moves.push(LineMove {
                        aod: k as u8,
                        axis_row: axis == Axis::Row,
                        line: idx as u16,
                        from_track: old,
                        to_track: new,
                    });
                    let delta = (new - old).abs();
                    if let Some(atoms) = self.atoms_on_line.get(&(k as u8, axis, idx as u16)) {
                        for &atom in atoms {
                            match axis {
                                Axis::Row => *row_delta.entry(atom).or_insert(0.0) += delta,
                                Axis::Col => *col_delta.entry(atom).or_insert(0.0) += delta,
                            }
                        }
                    }
                    cur[idx] = new;
                }
            }
        }

        (moves, row_delta, col_delta)
    }

    /// Retracts the movable atom of each executed gate out of the Rydberg
    /// radius (move-in, pulse, move-out: the pulse must not re-fire on the
    /// next stage). Retraction distances are clamped so line order and the
    /// minimum separation survive. Returns the retraction moves plus
    /// whether every executed pair actually separated beyond the Rydberg
    /// radius — when dense neighborhoods leave no clear retraction slot,
    /// the caller must restore separation (reset fallback) before the
    /// next pulse.
    fn apply_retraction(
        &mut self,
        plan: &Plan,
        row_delta: &mut HashMap<u32, f64>,
        col_delta: &mut HashMap<u32, f64>,
    ) -> (Vec<LineMove>, bool) {
        /// Preferred retraction offsets; a finer ± scan follows when all
        /// of these are blocked by neighboring lines or resting atoms.
        const AMOUNTS: [f64; 8] = [0.3, -0.3, 0.45, -0.45, 0.2, -0.2, 0.6, -0.6];
        let mut lines: Vec<LineKey> = Vec::new();
        for &(_, a, b) in &plan.gates {
            let sa = self.site_of_slot[a as usize];
            let sb = self.site_of_slot[b as usize];
            let movable = if sa.array.is_slm() {
                sb
            } else if sb.array.is_slm() || sa.array.0 > sb.array.0 {
                sa
            } else {
                sb
            };
            let k = movable.array.aod_number() as u8;
            for key in [(k, Axis::Row, movable.row), (k, Axis::Col, movable.col)] {
                if !lines.contains(&key) {
                    lines.push(key);
                }
            }
        }
        // Lines queued for retraction after the current one: their atoms
        // will still move, so proximity to them is checked on their turn.
        let mut pending: FastSet<LineKey> = lines.iter().copied().collect();
        let mut moves = Vec::new();
        RETRACT_LINES.add(lines.len() as u64);
        for key in lines {
            let (k, axis, idx) = key;
            pending.remove(&key);
            let i = idx as usize;
            let pos = match axis {
                Axis::Row => self.cur_row[k as usize][i],
                Axis::Col => self.cur_col[k as usize][i],
            };
            let (upper, lower) = {
                let arr = match axis {
                    Axis::Row => &self.cur_row[k as usize],
                    Axis::Col => &self.cur_col[k as usize],
                };
                (
                    arr.get(i + 1).copied().unwrap_or(f64::INFINITY),
                    if i > 0 { arr[i - 1] } else { f64::NEG_INFINITY },
                )
            };
            let mut chosen = None;
            match self.index {
                ProximityIndex::Exhaustive => {
                    for amount in AMOUNTS.into_iter().chain(fallback_amounts()) {
                        let new = pos + amount;
                        if new >= upper - LINE_GAP || new <= lower + LINE_GAP {
                            continue;
                        }
                        if self.retraction_clear(key, new, plan, &pending) {
                            chosen = Some(amount);
                            break;
                        }
                    }
                }
                ProximityIndex::Grid => {
                    // Memoized probe scan: collect each atom's possible
                    // blockers once (one wide grid query per atom instead
                    // of one per atom × candidate amount), then test the
                    // exact clearance predicate per amount against those
                    // few positions. Decisions are identical to the
                    // per-probe enumeration — the wide query is a
                    // superset of anything any probe can see, and the
                    // predicate is unchanged.
                    let blockers = self.collect_retraction_blockers(key, plan, &pending);
                    'amounts: for amount in AMOUNTS.into_iter().chain(fallback_amounts()) {
                        let new = pos + amount;
                        if new >= upper - LINE_GAP || new <= lower + LINE_GAP {
                            continue;
                        }
                        for (site, atom_blockers) in &blockers {
                            let p = match axis {
                                Axis::Row => (new, self.eff_col[k as usize][site.col as usize]),
                                Axis::Col => (self.eff_row[k as usize][site.row as usize], new),
                            };
                            if atom_blockers
                                .iter()
                                .any(|&b| dist(p, b) <= INTERACT_R + 1e-9)
                            {
                                continue 'amounts;
                            }
                        }
                        chosen = Some(amount);
                        break;
                    }
                }
            }
            let Some(amount) = chosen else {
                RETRACT_UNRESOLVED.incr();
                continue;
            };
            let new = pos + amount;
            match axis {
                Axis::Row => {
                    self.cur_row[k as usize][i] = new;
                    self.eff_row[k as usize][i] = new;
                }
                Axis::Col => {
                    self.cur_col[k as usize][i] = new;
                    self.eff_col[k as usize][i] = new;
                }
            }
            self.sync_line_grid(key);
            moves.push(LineMove {
                aod: k,
                axis_row: axis == Axis::Row,
                line: idx,
                from_track: pos,
                to_track: new,
            });
            if let Some(atoms) = self.atoms_on_line.get(&key) {
                for &atom in atoms {
                    let map = match axis {
                        Axis::Row => &mut *row_delta,
                        Axis::Col => &mut *col_delta,
                    };
                    *map.entry(atom).or_insert(0.0) += amount.abs();
                }
            }
        }
        // Did every pulsed pair actually separate? A pair is clear when at
        // least one of its atoms' lines moved far enough.
        let separated = plan
            .desired
            .iter()
            .all(|&(a, b)| dist(self.pos(a), self.pos(b)) > INTERACT_R + 1e-9);
        (moves, separated)
    }

    /// Whether moving `key` to `new_pos` keeps every atom on the line out
    /// of the Rydberg radius of every other active atom (atoms on lines
    /// still pending retraction are exempt — they are checked when their
    /// own line retracts).
    fn retraction_clear(
        &self,
        key: LineKey,
        new_pos: f64,
        plan: &Plan,
        pending: &FastSet<LineKey>,
    ) -> bool {
        let (k, axis, _) = key;
        let Some(atoms) = self.atoms_on_line.get(&key) else {
            return true;
        };
        let mut buf: Vec<u32> = Vec::new();
        for &atom in atoms {
            let site = self.site_of_slot[atom as usize];
            let p = match axis {
                Axis::Row => (new_pos, self.eff_col[k as usize][site.col as usize]),
                Axis::Col => (self.eff_row[k as usize][site.row as usize], new_pos),
            };
            let probe = RetractionProbe { key, site, p, atom };
            match self.index {
                ProximityIndex::Exhaustive => {
                    for y in 0..self.site_of_slot.len() as u32 {
                        if self.retraction_blocked_by(&probe, plan, pending, y) {
                            return false;
                        }
                    }
                }
                ProximityIndex::Grid => {
                    buf.clear();
                    self.grid.candidates_into(p, INTERACT_R + 1e-9, &mut buf);
                    for &y in &buf {
                        if self.retraction_blocked_by(&probe, plan, pending, y) {
                            return false;
                        }
                    }
                }
            }
        }
        true
    }

    /// Whether atom `y` is exempt from blocking any retraction of
    /// `atom` (on line `key`, loaded at `site`) — a position-independent
    /// predicate: `y` is the retracting atom itself, parked out of the
    /// field, on a line still pending its own retraction, or rides the
    /// retracting line (and so moves with it).
    #[inline]
    fn retraction_exempt(
        &self,
        key: LineKey,
        site: TrapSite,
        atom: u32,
        plan: &Plan,
        pending: &FastSet<LineKey>,
        y: u32,
    ) -> bool {
        let (k, axis, _) = key;
        if y == atom || self.is_parked_slot(y, plan) {
            return true;
        }
        let ysite = self.site_of_slot[y as usize];
        if !ysite.array.is_slm() {
            let yk = ysite.array.aod_number() as u8;
            if pending.contains(&(yk, Axis::Row, ysite.row))
                || pending.contains(&(yk, Axis::Col, ysite.col))
            {
                return true;
            }
            // Atoms sharing the retracting line move with it.
            if yk == k
                && ((axis == Axis::Row && ysite.row == site.row)
                    || (axis == Axis::Col && ysite.col == site.col))
            {
                return true;
            }
        }
        false
    }

    /// Whether active atom `y` blocks the retraction candidate `probe`.
    /// Atoms farther than `INTERACT_R + 1e-9` from the probed position
    /// never block, so enumerating only the grid candidates within that
    /// radius is exact.
    #[inline]
    fn retraction_blocked_by(
        &self,
        probe: &RetractionProbe,
        plan: &Plan,
        pending: &FastSet<LineKey>,
        y: u32,
    ) -> bool {
        let RetractionProbe { key, site, p, atom } = *probe;
        !self.retraction_exempt(key, site, atom, plan, pending, y)
            && dist(p, self.pos(y)) <= INTERACT_R + 1e-9
    }

    /// Memoization for the grid-mode retraction scan: for every atom on
    /// the retracting line, the positions of every non-exempt atom that
    /// *any* candidate amount could collide with — one grid query of
    /// radius [`RETRACT_MAX`]` + `[`INTERACT_R`] around the atom's
    /// current position per atom, instead of one query per atom ×
    /// candidate probe. A blocker of any probe lies within
    /// `INTERACT_R + 1e-9` of a position at most [`RETRACT_MAX`] from
    /// the atom's current one, so the wide query is a strict superset
    /// and the per-amount exact predicate keeps accept/reject identical
    /// to the unmemoized enumeration.
    fn collect_retraction_blockers(
        &self,
        key: LineKey,
        plan: &Plan,
        pending: &FastSet<LineKey>,
    ) -> Vec<(TrapSite, Vec<(f64, f64)>)> {
        let Some(atoms) = self.atoms_on_line.get(&key) else {
            return Vec::new();
        };
        RETRACT_MEMO_SCANS.add(atoms.len() as u64);
        let mut out = Vec::with_capacity(atoms.len());
        let mut buf: Vec<u32> = Vec::new();
        for &atom in atoms {
            let site = self.site_of_slot[atom as usize];
            let base = self.pos(atom);
            buf.clear();
            self.grid
                .candidates_into(base, RETRACT_MAX + INTERACT_R + 1e-9, &mut buf);
            let blockers: Vec<(f64, f64)> = buf
                .iter()
                .filter(|&&y| !self.retraction_exempt(key, site, atom, plan, pending, y))
                .map(|&y| self.pos(y))
                .collect();
            out.push((site, blockers));
        }
        out
    }

    /// Parks every AOD array except those in `keep`, and homes the kept
    /// ones. Used by the reset fallback when no gate is schedulable.
    fn reset(
        &mut self,
        keep: &HashSet<usize>,
        params: &HardwareParams,
        ledger: &mut MovementLedger<'_>,
        num_qubits: usize,
    ) -> f64 {
        let mut moved: Vec<(u32, f64)> = Vec::new();
        let spacing = self.hw.spacing_um;
        for k in 0..self.hw.num_aods() {
            let keep_this = keep.contains(&k);
            let mut displaced = false;
            for r in 0..self.cur_row[k].len() {
                let home = self.home_row(k, r);
                if (self.cur_row[k][r] - home).abs() > 1e-12 {
                    displaced = true;
                }
                self.cur_row[k][r] = home;
                self.eff_row[k][r] = home;
            }
            for c in 0..self.cur_col[k].len() {
                let home = self.home_col(k, c);
                if (self.cur_col[k][c] - home).abs() > 1e-12 {
                    displaced = true;
                }
                self.cur_col[k][c] = home;
                self.eff_col[k][c] = home;
            }
            let park_transition = if keep_this {
                self.parked[k]
            } else {
                !self.parked[k]
            };
            if displaced {
                self.resync_aod_grid(k);
            }
            if displaced || park_transition {
                for &atom in &self.atoms_in_aod[k] {
                    moved.push((atom, PARK_TRAVEL * spacing * 1e-6));
                }
            }
            self.parked[k] = !keep_this;
        }
        moved.sort_by_key(|&(a, _)| a);
        ledger.record_move(&moved, params.t_move_s, num_qubits);
        moved.len() as f64 * PARK_TRAVEL * spacing
    }
}

#[inline]
fn dist(a: (f64, f64), b: (f64, f64)) -> f64 {
    let dr = a.0 - b.0;
    let dc = a.1 - b.1;
    (dr * dr + dc * dc).sqrt()
}

#[inline]
fn norm_pair(a: u32, b: u32) -> (u32, u32) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Runs the movement router over a transpiled circuit.
///
/// The router is two-phase. Phase one, the *gate planner* (this
/// function's loop), greedily builds maximal legal parallel gate sets
/// and plans one movement stage per set. Phase two depends on
/// `strategy`: [`RouterStrategy::Sequential`] emits the planned stages
/// as-is (the paper's scheduling, and the differential baseline), while
/// [`RouterStrategy::Layered`] re-batches them through the
/// layer-batching module — compatible consecutive stages
/// fuse into one coordinated move group with a merged Rydberg pulse,
/// and retract/approach round trips the ISA optimizer would cancel are
/// elided up front.
///
/// `index` selects how the constraint checks enumerate proximity
/// candidates: [`ProximityIndex::Grid`] (the default in
/// [`AtomiqueConfig`](crate::AtomiqueConfig)) maintains a spatial-hash
/// index and queries only neighboring cells;
/// [`ProximityIndex::Exhaustive`] is the original all-atoms scan, kept as
/// the oracle for the differential router tests. Both produce identical
/// schedules — the grid only restricts candidate enumeration, never the
/// accept/reject predicates.
///
/// # Errors
///
/// Never fails for valid inputs: a gate that cannot be scheduled even from
/// a reset configuration falls back to a transfer-assisted stage (the atom
/// is re-grabbed next to its partner, charging two SLM↔AOD transfers to the
/// fidelity model). [`CompileError::RouterStuck`] is reserved for internal
/// inconsistencies.
#[allow(clippy::too_many_arguments)]
pub fn route_movements(
    transpiled: &TranspiledCircuit,
    mapping: &AtomMapping,
    hw: &RaaConfig,
    params: &HardwareParams,
    relax: Relaxation,
    mode: RouterMode,
    strategy: RouterStrategy,
    index: ProximityIndex,
) -> Result<RoutedProgram, CompileError> {
    let routed = plan_and_route(transpiled, mapping, hw, params, relax, mode, index)?;
    Ok(match strategy {
        RouterStrategy::Sequential => routed,
        RouterStrategy::Layered => {
            crate::layers::rebatch(routed, mapping, hw, params, transpiled.circuit.num_qubits())
        }
    })
}

/// Phase one: the greedy per-frontier gate planner, emitting one
/// movement stage per planned gate set with sequential accounting.
fn plan_and_route(
    transpiled: &TranspiledCircuit,
    mapping: &AtomMapping,
    hw: &RaaConfig,
    params: &HardwareParams,
    relax: Relaxation,
    mode: RouterMode,
    index: ProximityIndex,
) -> Result<RoutedProgram, CompileError> {
    let circuit = &transpiled.circuit;
    let num_qubits = circuit.num_qubits();
    let mut state = RouterState::new(hw, mapping, relax, index);
    let mut sched = DagSchedule::new(circuit);
    let mut ledger = MovementLedger::new(params);
    let mut stages: Vec<Stage> = Vec::new();

    let mut exec_time = 0.0f64;
    let mut one_q = 0usize;
    let mut two_q = 0usize;
    let mut one_q_layers = 0usize;
    let mut two_q_stages = 0usize;
    let mut overlap_rejections = 0usize;
    let mut transfers = 0usize;
    let mut total_move_um = 0.0f64;
    let mut last_was_reset = false;

    while !sched.is_done() {
        // --- one-qubit frontier (Raman laser, fully parallel) ---
        loop {
            let ones: Vec<GateIdx> = sched
                .front()
                .iter()
                .copied()
                .filter(|&g| circuit.gates()[g].is_one_qubit())
                .collect();
            if ones.is_empty() {
                break;
            }
            let gates: Vec<Gate> = ones.iter().map(|&g| circuit.gates()[g]).collect();
            one_q += gates.len();
            one_q_layers += 1;
            exec_time += params.one_qubit_time_s;
            sched.execute_all(&ones);
            stages.push(Stage::one_qubit(gates));
        }
        if sched.is_done() {
            break;
        }

        // --- two-qubit frontier: greedy maximal legal set ---
        let front: Vec<GateIdx> = sched.front().to_vec();
        let mut plan = Plan::default();
        {
            let _planning = raa_trace::span("route.plan");
            for &g in &front {
                if mode == RouterMode::Serial && !plan.gates.is_empty() {
                    break;
                }
                let (a, b) = circuit.gates()[g].pair().expect("front is 2Q only here");
                TRY_ADD.incr();
                match state.try_add(&mut plan, g, a.0, b.0) {
                    Ok(()) => GATES_PLANNED.incr(),
                    Err(rej) => {
                        match rej {
                            Reject::TargetConflict => REJECT_TARGET.incr(),
                            Reject::Addressing => REJECT_ADDRESSING.incr(),
                            Reject::Order => REJECT_ORDER.incr(),
                            Reject::Overlap => REJECT_OVERLAP.incr(),
                        }
                        if rej == Reject::Overlap {
                            overlap_rejections += 1;
                        }
                    }
                }
            }
        }

        if plan.gates.is_empty() {
            if !last_was_reset {
                // Reset fallback: park everything except the arrays of the
                // first pending gate, homing those.
                let (a, b) = circuit.gates()[front[0]].pair().expect("2Q");
                let keep: HashSet<usize> = [a.0, b.0]
                    .iter()
                    .filter_map(|&s| {
                        let site = state.site_of_slot[s as usize];
                        (!site.array.is_slm()).then(|| site.array.aod_number())
                    })
                    .collect();
                let moved_um = state.reset(&keep, params, &mut ledger, num_qubits);
                total_move_um += moved_um;
                exec_time += params.t_move_s;
                let mut kept: Vec<u8> = keep.iter().map(|&k| k as u8).collect();
                kept.sort_unstable();
                RESET_STAGES.incr();
                stages.push(Stage::reset(kept));
                last_was_reset = true;
                continue;
            }
            // Transfer-assisted fallback: re-grab the movable atom directly
            // next to its partner (2 transfers, paper Sec. V-A's
            // F_transfer model).
            let g = front[0];
            let (a, b) = circuit.gates()[g].pair().expect("2Q");
            TRANSFER_FALLBACKS.incr();
            transfers += 2;
            exec_time += 2.0 * params.t_transfer_s + params.two_qubit_time_s;
            let aod_atoms = aod_participants(&state, a.0, b.0);
            ledger.record_two_qubit_gate(&aod_atoms);
            two_q += 1;
            two_q_stages += 1;
            sched.execute(g);
            stages.push(Stage::transfer_assisted(a.0, b.0));
            last_was_reset = false;
            continue;
        }
        last_was_reset = false;

        // Commit: move in, fire the Rydberg laser, retract.
        let (moves, mut row_delta, mut col_delta) = {
            let _committing = raa_trace::span("route.commit");
            state.commit(&plan)
        };
        let (retract_moves, separated) = {
            let _retracting = raa_trace::span("route.retract");
            state.apply_retraction(&plan, &mut row_delta, &mut col_delta)
        };
        let spacing = state.hw.spacing_um;
        let mut moved: Vec<(u32, f64)> = Vec::new();
        let all_atoms: HashSet<u32> = row_delta.keys().chain(col_delta.keys()).copied().collect();
        for atom in all_atoms {
            let dr = row_delta.get(&atom).copied().unwrap_or(0.0);
            let dc = col_delta.get(&atom).copied().unwrap_or(0.0);
            let d_um = (dr * dr + dc * dc).sqrt() * spacing;
            if d_um > 0.0 {
                moved.push((atom, d_um * 1e-6));
                total_move_um += d_um;
            }
        }
        moved.sort_by_key(|&(a, _)| a);
        ledger.record_move(&moved, params.t_move_s, num_qubits);
        exec_time += params.t_move_s + params.two_qubit_time_s;
        two_q_stages += 1;
        let mut gate_pairs = Vec::with_capacity(plan.gates.len());
        for &(g, a, b) in &plan.gates {
            let aod_atoms = aod_participants(&state, a, b);
            ledger.record_two_qubit_gate(&aod_atoms);
            two_q += 1;
            sched.execute(g);
            gate_pairs.push((a, b));
        }
        stages.push(Stage::movement(moves, retract_moves, gate_pairs));

        // Retraction fallback: in dense neighborhoods every clear
        // retraction slot can be blocked, leaving a pulsed pair inside
        // the Rydberg radius. Re-home the in-field arrays before the
        // next pulse fires (home positions are mutually clear by
        // construction); parked arrays stay parked.
        if !separated {
            let keep: HashSet<usize> = (0..hw.num_aods()).filter(|&k| !state.parked[k]).collect();
            let moved_um = state.reset(&keep, params, &mut ledger, num_qubits);
            total_move_um += moved_um;
            exec_time += params.t_move_s;
            let mut kept: Vec<u8> = keep.iter().map(|&k| k as u8).collect();
            kept.sort_unstable();
            RESET_STAGES.incr();
            stages.push(Stage::reset(kept));
            last_was_reset = true;
        }

        // --- cooling (paper Sec. IV): swap any overheated AOD array with a
        // pre-cooled spare. ---
        for k in 0..hw.num_aods() {
            let atoms = &state.atoms_in_aod[k];
            if ledger.needs_cooling(atoms.iter().copied()) {
                ledger.cool_array(atoms);
                exec_time += params.t_move_s + 2.0 * params.two_qubit_time_s;
                stages.push(Stage::cooling(k as u8));
            }
        }
    }

    let stats = RouterStats {
        one_qubit_gates: one_q,
        two_qubit_gates: two_q,
        one_qubit_layers: one_q_layers,
        two_qubit_stages: two_q_stages,
        execution_time_s: exec_time,
        total_move_distance_um: total_move_um,
        num_move_stages: ledger.num_stages(),
        cooling_events: ledger.cooling_events(),
        overlap_rejections,
        transfers,
        f_heating: ledger.f_heating(),
        f_loss: ledger.f_loss(),
        f_cooling: ledger.f_cooling(),
        f_decoherence: ledger.f_decoherence(),
        max_n_vib: ledger.max_n_vib(),
    };
    Ok(RoutedProgram { stages, stats })
}

fn aod_participants(state: &RouterState<'_>, a: u32, b: u32) -> Vec<u32> {
    [a, b]
        .into_iter()
        .filter(|&s| !state.site_of_slot[s as usize].array.is_slm())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array_mapper::ArrayMapping;
    use crate::atom_mapper::{map_to_atoms, AtomMapping};
    use crate::config::AtomMapperKind;
    use crate::program::StageKind;
    use crate::transpile::transpile;
    use raa_arch::ArrayDims;
    use raa_circuit::Circuit;
    use raa_circuit::Qubit;
    use raa_sabre::SabreConfig;

    fn setup(c: &Circuit, array_of: Vec<u8>) -> (TranspiledCircuit, AtomMapping, RaaConfig) {
        let hw = RaaConfig::default();
        let mapping = ArrayMapping {
            array_of,
            num_arrays: hw.num_arrays(),
        };
        let t = transpile(c, &mapping, &SabreConfig::default()).unwrap();
        let am = map_to_atoms(&t, &hw, AtomMapperKind::LoadBalance, 0).unwrap();
        (t, am, hw)
    }

    fn run(c: &Circuit, array_of: Vec<u8>) -> RoutedProgram {
        let (t, am, hw) = setup(c, array_of);
        let params = HardwareParams::neutral_atom();
        route_movements(
            &t,
            &am,
            &hw,
            &params,
            Relaxation::NONE,
            RouterMode::Parallel,
            RouterStrategy::Sequential,
            ProximityIndex::Grid,
        )
        .unwrap()
    }

    #[test]
    fn single_slm_aod_gate_executes_in_one_stage() {
        let mut c = Circuit::new(2);
        c.push(Gate::cz(Qubit(0), Qubit(1)));
        let out = run(&c, vec![0, 1]);
        assert_eq!(out.stats.two_qubit_gates, 1);
        assert_eq!(out.stats.two_qubit_stages, 1);
        assert_eq!(out.stats.transfers, 0);
        assert!(out.stats.execution_time_s > 0.0);
        assert!(out.stats.total_move_distance_um > 0.0);
    }

    #[test]
    fn independent_aligned_gates_run_in_parallel() {
        // Four disjoint SLM–AOD pairs; aligned mapping puts partners at the
        // same grid positions, so one stage should cover several gates.
        let mut c = Circuit::new(8);
        for i in 0..4 {
            c.push(Gate::cz(Qubit(i), Qubit(i + 4)));
        }
        let out = run(&c, vec![0, 0, 0, 0, 1, 1, 1, 1]);
        assert_eq!(out.stats.two_qubit_gates, 4);
        assert!(
            out.stats.two_qubit_stages < 4,
            "no parallelism: {} stages for 4 gates",
            out.stats.two_qubit_stages
        );
    }

    #[test]
    fn serial_mode_runs_one_gate_per_stage() {
        let mut c = Circuit::new(8);
        for i in 0..4 {
            c.push(Gate::cz(Qubit(i), Qubit(i + 4)));
        }
        let (t, am, hw) = setup(&c, vec![0, 0, 0, 0, 1, 1, 1, 1]);
        let params = HardwareParams::neutral_atom();
        let out = route_movements(
            &t,
            &am,
            &hw,
            &params,
            Relaxation::NONE,
            RouterMode::Serial,
            RouterStrategy::Sequential,
            ProximityIndex::Grid,
        )
        .unwrap();
        assert_eq!(out.stats.two_qubit_gates, 4);
        assert_eq!(out.stats.two_qubit_stages, 4);
    }

    #[test]
    fn dependent_gates_are_ordered() {
        // q1 interacts with q0 then q2: two stages minimum.
        let mut c = Circuit::new(3);
        c.push(Gate::cz(Qubit(0), Qubit(1)));
        c.push(Gate::cz(Qubit(1), Qubit(2)));
        let out = run(&c, vec![0, 1, 0]);
        assert_eq!(out.stats.two_qubit_gates, 2);
        assert!(out.stats.two_qubit_stages >= 2);
    }

    #[test]
    fn one_qubit_gates_execute_in_layers() {
        let mut c = Circuit::new(4);
        for q in 0..4 {
            c.push(Gate::h(Qubit(q)));
        }
        c.push(Gate::cz(Qubit(0), Qubit(2)));
        let out = run(&c, vec![0, 0, 1, 1]);
        assert_eq!(out.stats.one_qubit_gates, 4);
        assert_eq!(out.stats.one_qubit_layers, 1);
    }

    #[test]
    fn aod_aod_gate_executes() {
        let mut c = Circuit::new(2);
        c.push(Gate::cz(Qubit(0), Qubit(1)));
        let out = run(&c, vec![1, 2]);
        assert_eq!(out.stats.two_qubit_gates, 1);
        assert_eq!(out.stats.transfers, 0);
    }

    #[test]
    fn same_row_conflicting_targets_serialize() {
        // Two gates whose AOD atoms share a row but need different SLM rows
        // cannot share a stage (target conflict).
        let hw = RaaConfig::default();
        let mut c = Circuit::new(4);
        c.push(Gate::cz(Qubit(0), Qubit(2)));
        c.push(Gate::cz(Qubit(1), Qubit(3)));
        let mapping = ArrayMapping {
            array_of: vec![0, 0, 1, 1],
            num_arrays: 3,
        };
        let t = transpile(&c, &mapping, &SabreConfig::default()).unwrap();
        // Hand-build an atom mapping forcing the conflict: SLM atoms on
        // different rows, both AOD atoms on AOD row 0 with the same column
        // alignment requirement.
        let slm0 = t.slot_of_qubit[0];
        let slm1 = t.slot_of_qubit[1];
        let aod0 = t.slot_of_qubit[2];
        let aod1 = t.slot_of_qubit[3];
        let mut site_of_slot = vec![TrapSite::new(ArrayIndex::SLM, 0, 0); 4];
        site_of_slot[slm0 as usize] = TrapSite::new(ArrayIndex::SLM, 0, 0);
        site_of_slot[slm1 as usize] = TrapSite::new(ArrayIndex::SLM, 5, 0);
        site_of_slot[aod0 as usize] = TrapSite::new(ArrayIndex::aod(0), 0, 0);
        site_of_slot[aod1 as usize] = TrapSite::new(ArrayIndex::aod(0), 0, 1);
        let am = AtomMapping { site_of_slot };
        let params = HardwareParams::neutral_atom();
        let out = route_movements(
            &t,
            &am,
            &hw,
            &params,
            Relaxation::NONE,
            RouterMode::Parallel,
            RouterStrategy::Sequential,
            ProximityIndex::Grid,
        )
        .unwrap();
        assert_eq!(out.stats.two_qubit_gates, 2);
        assert_eq!(
            out.stats.two_qubit_stages, 2,
            "row-target conflict must serialize"
        );
    }

    #[test]
    fn order_constraint_blocks_row_crossing() {
        // AOD row 1 must not move above row 0: gate that requires crossing
        // is deferred to another stage (after repositioning) or transfers.
        let hw = RaaConfig::default();
        let mut c = Circuit::new(4);
        c.push(Gate::cz(Qubit(0), Qubit(2))); // SLM row 5 ← AOD row 0
        c.push(Gate::cz(Qubit(1), Qubit(3))); // SLM row 0 ← AOD row 1 (cross!)
        let mapping = ArrayMapping {
            array_of: vec![0, 0, 1, 1],
            num_arrays: 3,
        };
        let t = transpile(&c, &mapping, &SabreConfig::default()).unwrap();
        let slm0 = t.slot_of_qubit[0];
        let slm1 = t.slot_of_qubit[1];
        let aod0 = t.slot_of_qubit[2];
        let aod1 = t.slot_of_qubit[3];
        let mut site_of_slot = vec![TrapSite::new(ArrayIndex::SLM, 0, 0); 4];
        site_of_slot[slm0 as usize] = TrapSite::new(ArrayIndex::SLM, 5, 0);
        site_of_slot[slm1 as usize] = TrapSite::new(ArrayIndex::SLM, 0, 3);
        site_of_slot[aod0 as usize] = TrapSite::new(ArrayIndex::aod(0), 0, 0);
        site_of_slot[aod1 as usize] = TrapSite::new(ArrayIndex::aod(0), 1, 3);
        let am = AtomMapping { site_of_slot };
        let params = HardwareParams::neutral_atom();
        let out = route_movements(
            &t,
            &am,
            &hw,
            &params,
            Relaxation::NONE,
            RouterMode::Parallel,
            RouterStrategy::Sequential,
            ProximityIndex::Grid,
        )
        .unwrap();
        // Both gates still execute (correctness), but not in one stage.
        assert_eq!(out.stats.two_qubit_gates, 2);
        assert!(out.stats.two_qubit_stages >= 2);
    }

    #[test]
    fn relaxing_constraints_never_increases_stages() {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let n = 16;
        let mut c = Circuit::new(n);
        for _ in 0..40 {
            let a = rng.random_range(0..n as u32);
            let mut b = rng.random_range(0..n as u32);
            while b == a {
                b = rng.random_range(0..n as u32);
            }
            c.push(Gate::cz(Qubit(a), Qubit(b)));
        }
        let array_of: Vec<u8> = (0..n).map(|i| (i % 3) as u8).collect();
        let (t, am, hw) = setup(&c, array_of);
        let params = HardwareParams::neutral_atom();
        let strict = route_movements(
            &t,
            &am,
            &hw,
            &params,
            Relaxation::NONE,
            RouterMode::Parallel,
            RouterStrategy::Sequential,
            ProximityIndex::Grid,
        )
        .unwrap();
        let relaxed = Relaxation {
            individual_addressing: true,
            allow_order_violation: true,
            allow_overlap: true,
        };
        let free = route_movements(
            &t,
            &am,
            &hw,
            &params,
            relaxed,
            RouterMode::Parallel,
            RouterStrategy::Sequential,
            ProximityIndex::Grid,
        )
        .unwrap();
        assert_eq!(strict.stats.two_qubit_gates, free.stats.two_qubit_gates);
        assert!(free.stats.two_qubit_stages <= strict.stats.two_qubit_stages);
    }

    #[test]
    fn fidelity_factors_within_bounds() {
        let mut c = Circuit::new(6);
        for i in 0..3 {
            c.push(Gate::cz(Qubit(i), Qubit(i + 3)));
        }
        let out = run(&c, vec![0, 0, 0, 1, 1, 2]);
        for f in [
            out.stats.f_heating,
            out.stats.f_loss,
            out.stats.f_cooling,
            out.stats.f_decoherence,
        ] {
            assert!(f > 0.0 && f <= 1.0, "factor {f} out of range");
        }
    }

    /// Regression test for the fallback retraction ladder's range
    /// (previously a hard-coded 28-step scan capped at ±1.02 tracks).
    ///
    /// Construction: one SLM–AOD0 gate pair just pulsed at (5.05, 5.08),
    /// with a dense curtain of AOD1 atoms positioned so that *every*
    /// retraction offset of the movable atom's row up to ±1.167 tracks
    /// lands within the blockade radius of some curtain atom (a column
    /// of blockers exactly aligned with the atom's x, at 0.3-track row
    /// pitch — tighter than 2·r_b, so the blocked windows overlap into a
    /// continuous band). The first clear slot is at +1.177 tracks —
    /// beyond the legacy ±1.02 cap, but within the geometry-derived
    /// [`RETRACT_MAX`]. The old ladder left the pair un-separated
    /// (forcing a whole-machine reset stage); the derived ladder must
    /// find the slot, in both proximity-index modes identically.
    #[test]
    fn fallback_ladder_separates_beyond_legacy_cap() {
        const LEGACY_CAP: f64 = 1.02;
        let hw = RaaConfig::new(
            ArrayDims::new(10, 10),
            vec![ArrayDims::new(1, 1), ArrayDims::new(8, 21)],
        )
        .unwrap();
        let mut sites = vec![
            TrapSite::new(ArrayIndex::SLM, 5, 5),
            TrapSite::new(ArrayIndex::aod(0), 0, 0),
        ];
        for r in 0..8u16 {
            for c in 0..21u16 {
                sites.push(TrapSite::new(ArrayIndex::aod(1), r, c));
            }
        }
        let am = AtomMapping {
            site_of_slot: sites,
        };
        let mut results = Vec::new();
        for index in [ProximityIndex::Grid, ProximityIndex::Exhaustive] {
            let mut state = RouterState::new(&hw, &am, Relaxation::NONE, index);
            // The movable atom sits at the gate position next to its SLM
            // partner (5, 5).
            state.cur_row[0][0] = 5.0 + DELTA_ROW;
            state.eff_row[0][0] = 5.0 + DELTA_ROW;
            state.cur_col[0][0] = 5.0 + DELTA_COL;
            state.eff_col[0][0] = 5.0 + DELTA_COL;
            // The curtain: AOD1 rows at 0.3-track pitch around the gate
            // row (top blocker at +1.0 ends the blocked band at +1.167),
            // one column exactly aligned with the movable atom's x and
            // the rest at 0.145-track pitch filling ±1.45.
            let row_offsets = [-1.05, -0.75, -0.45, -0.15, 0.15, 0.45, 0.75, 1.00];
            for (r, o) in row_offsets.iter().enumerate() {
                state.cur_row[1][r] = 5.0 + DELTA_ROW + o;
                state.eff_row[1][r] = 5.0 + DELTA_ROW + o;
            }
            for j in 0..21 {
                let x = 5.0 + DELTA_COL - 1.45 + 0.145 * j as f64;
                state.cur_col[1][j] = x;
                state.eff_col[1][j] = x;
            }
            state.resync_aod_grid(0);
            state.resync_aod_grid(1);

            let mut plan = Plan::default();
            plan.gates.push((0, 0, 1));
            plan.desired.insert(norm_pair(0, 1));
            plan.participants.insert(0);
            plan.participants.insert(1);

            let mut row_delta = HashMap::new();
            let mut col_delta = HashMap::new();
            let (moves, separated) = state.apply_retraction(&plan, &mut row_delta, &mut col_delta);
            assert!(separated, "{index:?}: pulsed pair failed to separate");
            let row_move = moves
                .iter()
                .find(|m| m.aod == 0 && m.axis_row)
                .expect("movable atom's row retracted");
            let amount = row_move.to_track - row_move.from_track;
            assert!(
                amount.abs() > LEGACY_CAP,
                "{index:?}: clear slot at {amount:+.3} is within the legacy \
                 ±{LEGACY_CAP} cap — curtain no longer blocks it"
            );
            assert!(
                amount.abs() <= RETRACT_MAX + 1e-9,
                "{index:?}: retraction {amount:+.3} beyond derived max"
            );
            let d = dist(state.pos(0), state.pos(1));
            assert!(d > INTERACT_R, "{index:?}: pair still at {d:.3}");
            results.push(
                moves
                    .iter()
                    .map(|m| (m.aod, m.axis_row, m.line, m.to_track.to_bits()))
                    .collect::<Vec<_>>(),
            );
        }
        assert_eq!(
            results[0], results[1],
            "grid and exhaustive modes retracted differently"
        );
    }

    const MODES: [ProximityIndex; 2] = [ProximityIndex::Grid, ProximityIndex::Exhaustive];

    /// A hand-placed machine for driving `try_add` directly: a 10×10
    /// SLM plus the given AOD arrays, with the listed sites as slots.
    fn hand_placed(aods: Vec<ArrayDims>, sites: Vec<TrapSite>) -> (RaaConfig, AtomMapping) {
        let hw = RaaConfig::new(ArrayDims::new(10, 10), aods).unwrap();
        (
            hw,
            AtomMapping {
                site_of_slot: sites,
            },
        )
    }

    /// Moves AOD `k`'s lines to the given committed positions.
    fn place(state: &mut RouterState<'_>, k: usize, rows: &[f64], cols: &[f64]) {
        state.cur_row[k] = rows.to_vec();
        state.eff_row[k] = rows.to_vec();
        state.cur_col[k] = cols.to_vec();
        state.eff_col[k] = cols.to_vec();
        state.resync_aod_grid(k);
    }

    /// Everything a rejected attempt must leave untouched, floats as
    /// bits and hashed collections sorted.
    #[derive(Debug, PartialEq)]
    struct Snapshot {
        eff_row: Vec<Vec<u64>>,
        eff_col: Vec<Vec<u64>>,
        grid: Vec<Option<(u64, u64)>>,
        targets: Vec<(LineKey, u64)>,
        unparked: Vec<u8>,
        gates: Vec<(GateIdx, u32, u32)>,
        participants: Vec<u32>,
        desired: Vec<(u32, u32)>,
    }

    fn snapshot(state: &RouterState<'_>, plan: &Plan) -> Snapshot {
        fn sorted<T: Ord>(it: impl Iterator<Item = T>) -> Vec<T> {
            let mut v: Vec<T> = it.collect();
            v.sort();
            v
        }
        let bits = |v: &Vec<Vec<f64>>| -> Vec<Vec<u64>> {
            v.iter()
                .map(|axis| axis.iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        Snapshot {
            eff_row: bits(&state.eff_row),
            eff_col: bits(&state.eff_col),
            grid: (0..state.site_of_slot.len() as u32)
                .map(|s| {
                    state
                        .grid
                        .position(s)
                        .map(|(r, c)| (r.to_bits(), c.to_bits()))
                })
                .collect(),
            targets: sorted(plan.targets.iter().map(|(&k, v)| (k, v.to_bits()))),
            unparked: sorted(plan.unparked.iter().copied()),
            gates: plan.gates.clone(),
            participants: sorted(plan.participants.iter().copied()),
            desired: sorted(plan.desired.iter().copied()),
        }
    }

    /// The only C1 violation is between two dirty atoms: the gate's SLM
    /// atom, which does not move, and an atom on the AOD row the gate
    /// re-solves. The grid holds the SLM atom exactly, so the moved atom
    /// must test it in the first pass.
    #[test]
    fn c1_catches_a_violation_between_a_moved_and_an_unmoved_dirty_atom() {
        let (hw, am) = hand_placed(
            vec![ArrayDims::new(1, 2)],
            vec![
                TrapSite::new(ArrayIndex::SLM, 5, 5),
                TrapSite::new(ArrayIndex::aod(0), 0, 1),
                TrapSite::new(ArrayIndex::aod(0), 0, 0),
            ],
        );
        for index in MODES {
            for individual_addressing in [false, true] {
                let relax = Relaxation {
                    individual_addressing,
                    ..Relaxation::NONE
                };
                let mut state = RouterState::new(&hw, &am, relax, index);
                // Column 0 sits just left of where column 1 must go.
                place(&mut state, 0, &[0.6], &[4.90, 6.0]);
                let mut plan = Plan::default();
                let verdict = state.try_add(&mut plan, 0, 0, 1);
                assert!(state.scratch.is_dirty(0) && state.scratch.is_dirty(2));
                let z = if individual_addressing {
                    state.pos(2)
                } else {
                    state.virtual_pos(&state.scratch, 2)
                };
                assert!(dist(z, (5.0, 5.0)) <= INTERACT_R, "{index:?}: z at {z:?}");
                if individual_addressing {
                    assert_eq!(verdict, Ok(()), "{index:?}: only C1 may reject");
                } else {
                    assert_eq!(verdict, Err(Reject::Addressing), "{index:?}");
                }
            }
        }
    }

    /// The only C1 violation is between two atoms the attempt moves: with
    /// overlap relaxed, re-solving squeezes six rows between two pinned
    /// ones closer than the Rydberg radius. The grid holds neither atom at
    /// its virtual position, so only the second pass, over moved pairs,
    /// can find it.
    #[test]
    fn c1_catches_a_violation_between_two_moved_atoms() {
        let (hw, am) = hand_placed(
            vec![ArrayDims::new(8, 2)],
            vec![
                TrapSite::new(ArrayIndex::SLM, 5, 5),
                TrapSite::new(ArrayIndex::aod(0), 0, 0),
                TrapSite::new(ArrayIndex::SLM, 6, 7),
                TrapSite::new(ArrayIndex::aod(0), 7, 1),
                TrapSite::new(ArrayIndex::aod(0), 3, 1),
                TrapSite::new(ArrayIndex::aod(0), 4, 1),
            ],
        );
        let relax = Relaxation {
            allow_overlap: true,
            ..Relaxation::NONE
        };
        for index in MODES {
            let mut state = RouterState::new(&hw, &am, relax, index);
            let mut plan = Plan::default();
            assert_eq!(state.try_add(&mut plan, 0, 0, 1), Ok(()), "{index:?}");
            let verdict = state.try_add(&mut plan, 1, 2, 3);
            assert!(state.scratch.is_moved(4) && state.scratch.is_moved(5));
            let (z1, z2) = (
                state.virtual_pos(&state.scratch, 4),
                state.virtual_pos(&state.scratch, 5),
            );
            assert!(dist(z1, z2) <= INTERACT_R, "{index:?}: {z1:?} {z2:?}");
            assert_eq!(verdict, Err(Reject::Addressing), "{index:?}");
        }
    }

    /// An array that this attempt unparks takes part in C1: its atom
    /// that the gate does not move still collides with a resting SLM atom.
    #[test]
    fn c1_treats_an_array_unparked_by_the_attempt_as_unparked() {
        for with_blocker in [true, false] {
            let mut sites = vec![
                TrapSite::new(ArrayIndex::SLM, 5, 5),
                TrapSite::new(ArrayIndex::aod(0), 1, 1),
                TrapSite::new(ArrayIndex::aod(0), 0, 0),
            ];
            if with_blocker {
                sites.push(TrapSite::new(ArrayIndex::SLM, 2, 2));
            }
            let (hw, am) = hand_placed(vec![ArrayDims::new(2, 2)], sites);
            for index in MODES {
                let mut state = RouterState::new(&hw, &am, Relaxation::NONE, index);
                place(&mut state, 0, &[2.05, 3.0], &[2.08, 3.0]);
                state.parked[0] = true;
                let mut plan = Plan::default();
                let verdict = state.try_add(&mut plan, 0, 0, 1);
                if with_blocker {
                    assert_eq!(verdict, Err(Reject::Addressing), "{index:?}");
                    assert!(plan.unparked.is_empty(), "{index:?}: unpark kept");
                } else {
                    assert_eq!(verdict, Ok(()), "{index:?}");
                    assert!(plan.unparked.contains(&0), "{index:?}: unpark lost");
                }
            }
        }
    }

    /// A target equal to one the plan already holds is not inserted
    /// again and does not re-solve its axis; an AOD–AOD anchor holds
    /// the position the accepted plan gave its lines.
    #[test]
    fn shared_targets_add_nothing_and_anchors_read_the_accepted_plan() {
        let (hw, am) = hand_placed(
            vec![ArrayDims::new(1, 2), ArrayDims::new(1, 1)],
            vec![
                TrapSite::new(ArrayIndex::SLM, 5, 5),
                TrapSite::new(ArrayIndex::aod(0), 0, 0),
                TrapSite::new(ArrayIndex::aod(0), 0, 1),
                TrapSite::new(ArrayIndex::aod(1), 0, 0),
            ],
        );
        for index in MODES {
            let mut state = RouterState::new(&hw, &am, Relaxation::NONE, index);
            let mut plan = Plan::default();
            assert_eq!(state.try_add(&mut plan, 0, 0, 1), Ok(()), "{index:?}");
            // Accepting the first gate repositioned AOD 0's column 1.
            let anchor = state.pos(2);
            assert_eq!(anchor.0, 5.0 + DELTA_ROW);
            assert!(
                anchor.1 > 5.0 + DELTA_COL + LINE_GAP,
                "{index:?}: {anchor:?}"
            );

            assert_eq!(state.try_add(&mut plan, 1, 2, 3), Ok(()), "{index:?}");
            // Row 0 of AOD 0 was already pinned at the same value.
            assert!(!state.scratch.new_targets.contains(&(0, Axis::Row, 0)));
            assert!(state.scratch.solved(0, Axis::Row).is_none(), "{index:?}");
            assert_eq!(plan.targets.len(), 5, "{index:?}");
            assert_eq!(plan.targets[&(0, Axis::Col, 1)], anchor.1);
            assert_eq!(
                state.pos(3),
                (anchor.0 + DELTA_ROW, anchor.1 + DELTA_COL),
                "{index:?}: mover ignored the accepted anchor"
            );
        }
    }

    /// Rejections on a target conflict, while solving an axis and in C1
    /// leave `eff_*`, the grid and the plan exactly as the accepted plan
    /// left them.
    #[test]
    fn rejected_attempts_leave_state_and_plan_untouched() {
        let (hw, am) = hand_placed(
            vec![ArrayDims::new(2, 2), ArrayDims::new(2, 2)],
            vec![
                TrapSite::new(ArrayIndex::SLM, 5, 5),
                TrapSite::new(ArrayIndex::aod(0), 0, 0),
                TrapSite::new(ArrayIndex::SLM, 6, 6),
                TrapSite::new(ArrayIndex::aod(0), 1, 0),
                TrapSite::new(ArrayIndex::SLM, 3, 8),
                TrapSite::new(ArrayIndex::aod(0), 1, 1),
                TrapSite::new(ArrayIndex::SLM, 5, 6),
                TrapSite::new(ArrayIndex::aod(1), 0, 0),
                TrapSite::new(ArrayIndex::aod(1), 1, 1),
                TrapSite::new(ArrayIndex::SLM, 8, 8),
            ],
        );
        // (slot a, slot b, expected rejection)
        let attempts = [
            // Row 1 is newly pinned, then column 0 conflicts.
            (2, 3, Reject::TargetConflict),
            // Row 1 would have to pass row 0.
            (4, 5, Reject::Order),
            // Unparks AOD 1, whose resting atom 8 sits on SLM atom 9.
            (6, 7, Reject::Addressing),
        ];
        for index in MODES {
            let mut state = RouterState::new(&hw, &am, Relaxation::NONE, index);
            place(&mut state, 1, &[0.3, 8.05], &[0.6, 8.08]);
            state.parked[1] = true;
            let mut plan = Plan::default();
            assert_eq!(state.try_add(&mut plan, 0, 0, 1), Ok(()), "{index:?}");
            let before = snapshot(&state, &plan);
            for (g, &(a, b, want)) in attempts.iter().enumerate() {
                assert_eq!(
                    state.try_add(&mut plan, g + 1, a, b),
                    Err(want),
                    "{index:?}: attempt {a}-{b}"
                );
                assert_eq!(snapshot(&state, &plan), before, "{index:?}: {want:?}");
            }
        }
    }

    #[test]
    fn every_gate_is_executed_exactly_once() {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let n = 12;
        let mut c = Circuit::new(n);
        for _ in 0..30 {
            let a = rng.random_range(0..n as u32);
            let mut b = rng.random_range(0..n as u32);
            while b == a {
                b = rng.random_range(0..n as u32);
            }
            if rng.random::<f64>() < 0.3 {
                c.push(Gate::h(Qubit(a)));
            } else {
                c.push(Gate::cz(Qubit(a), Qubit(b)));
            }
        }
        let array_of: Vec<u8> = (0..n).map(|i| (i % 3) as u8).collect();
        let (t, am, hw) = setup(&c, array_of);
        let params = HardwareParams::neutral_atom();
        let out = route_movements(
            &t,
            &am,
            &hw,
            &params,
            Relaxation::NONE,
            RouterMode::Parallel,
            RouterStrategy::Sequential,
            ProximityIndex::Grid,
        )
        .unwrap();
        assert_eq!(
            out.stats.two_qubit_gates + out.stats.one_qubit_gates,
            t.circuit.len()
        );
        // Stage gate lists cover every 2Q gate exactly once.
        let staged: usize = out
            .stages
            .iter()
            .map(|s| {
                if s.kind == StageKind::TransferAssisted {
                    1
                } else {
                    s.gate_pairs.len()
                }
            })
            .sum();
        assert_eq!(staged, t.circuit.two_qubit_count());
    }
}
