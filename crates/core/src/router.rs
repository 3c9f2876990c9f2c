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
//!   un-involved arrays are treated as parked (see docs/ISA.md §1).
//! * **C2 — row/column order** (Fig. 10): within one AOD, row and column
//!   coordinates must remain strictly increasing.
//! * **C3 — no overlap** (Fig. 11): adjacent rows/columns of one AOD must
//!   stay at least one Rydberg radius apart (closer means their atoms
//!   blockade each other); violations are counted as *overlaps* (Fig. 24's
//!   metric).
//!
//! Each constraint can be individually relaxed (Fig. 22).
//!
//! # C1 over lines
//!
//! Every atom sits where one row line of its array crosses one column
//! line, SLM lines at integer track positions and AOD lines wherever the
//! plan puts them. Two atoms can be within `r_b` only if their rows are
//! that close and their columns are too, so C1 enumerates close *line*
//! pairs instead of querying each atom's neighborhood
//! ([`RouterState::c1_clear`]). Per axis it sorts the occupied lines of
//! every in-field AOD at the attempt's virtual positions, sweeps them for
//! pairs at most `r_b` apart, and distance-tests only the atoms where a
//! close row pair crosses a close column pair of the same two arrays,
//! plus the same-array cases where the two atoms share a line. An AOD
//! line's only SLM partner within `r_b` is the nearest integer line, so
//! SLM lines never enter the sweep. The 2.5 `r_b` band involves a gate
//! participant, and since 5/12 < 1/2 an AOD participant can be that close
//! only to the single SLM site nearest it: the band tests that site and
//! every other participant. Retraction enumerates its blockers the same
//! way. The line sweep only chooses which pairs to test; the predicates
//! are those of [`ProximityIndex::Exhaustive`], the all-slots scan kept
//! as the reference, and `tests/router_differential.rs` asserts that both
//! produce identical schedules.

use std::collections::HashSet;

use raa_arch::{ArrayIndex, RaaConfig, TrapSite};
use raa_circuit::{DagSchedule, Gate, GateIdx};
use raa_physics::{HardwareParams, MovementLedger};

use crate::atom_mapper::AtomMapping;
use crate::config::{ProximityIndex, Relaxation, RouterMode, RouterStrategy};
use crate::error::CompileError;
use crate::program::{LineMove, RouterStats, Stage};
use crate::transpile::TranspiledCircuit;
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
static C1_TESTED: Counter = Counter::new("route.c1.tested");
static RETRACT_LINES: Counter = Counter::new("route.retract.lines");
static RETRACT_UNRESOLVED: Counter = Counter::new("route.retract.unresolved");
static RESET_STAGES: Counter = Counter::new("route.reset_stages");
static TRANSFER_FALLBACKS: Counter = Counter::new("route.transfer_fallbacks");

/// Rydberg radius in track units (`r_b = d/6`).
const INTERACT_R: f64 = 1.0 / 6.0;
/// Safety band in track units (2.5 `r_b`).
const BAND_R: f64 = 5.0 / 12.0;
/// How far apart two lines of one axis may be and still host a pair
/// within [`INTERACT_R`]: a pair that close can exceed it on one axis by
/// a rounding ulp.
const REACH: f64 = INTERACT_R + 1e-9;
/// The same slack around [`BAND_R`].
const BAND_REACH: f64 = BAND_R + 1e-9;
/// Row offset of a parked interacting atom relative to its partner.
const DELTA_ROW: f64 = 0.05;
/// Column offset of a parked interacting atom relative to its partner.
const DELTA_COL: f64 = 0.08;
/// Distance (in tracks) charged for parking or unparking one array.
const PARK_TRAVEL: f64 = 2.0;
/// Marks an empty trap site in [`RouterState::slot_at`].
const NO_SLOT: u32 = u32::MAX;

/// Identifies one movable line: `(aod index 0-based, axis, line index)`.
type LineKey = (u8, Axis, u16);

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Axis {
    Row,
    Col,
}

impl Axis {
    fn other(self) -> Axis {
        match self {
            Axis::Row => Axis::Col,
            Axis::Col => Axis::Row,
        }
    }
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
/// Invariant: between gate-admission attempts, `eff_row`/`eff_col` hold
/// exactly the committed positions plus the plan accepted so far. An
/// attempt decides on virtual positions computed from the axes it solved
/// into `scratch`, and writes `eff_*` only when its gate is accepted.
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
    /// `line_base[2k]` / `line_base[2k + 1]` is the line id of AOD `k`'s
    /// row 0 / column 0: ids number every AOD line, AODs × 2 axes × lines.
    line_base: Vec<usize>,
    /// Atoms per line id.
    atoms_on_line: Vec<Vec<u32>>,
    /// Per AOD and axis (index `2k + axis`), the lines that host an atom,
    /// ascending.
    occupied: Vec<Vec<u16>>,
    /// Per array (0 = SLM, `k + 1` = AOD `k`), the slot on each trap site,
    /// row-major, [`NO_SLOT`] where the site is empty.
    slot_at: Vec<Vec<u32>>,
    /// Atoms per AOD array (for parking/cooling).
    atoms_in_aod: Vec<Vec<u32>>,
    /// Per-attempt buffers of [`RouterState::try_add`].
    scratch: Scratch,
    /// Track travel of each line id in the stage being committed. Every
    /// atom on a line travels with it.
    line_travel: Vec<f64>,
}

/// The stage plan accepted so far.
///
/// Explicit `targets` pin the lines that gates need at exact positions;
/// every other line of an affected axis is *repositioned* by
/// [`solve_axis`] so that order (C2) and minimum separation (C3) hold —
/// modelling the physical ability of an AOD to compress or shift its
/// un-involved rows/columns within the same movement. Only accepted
/// gates leave entries here: a rejected attempt removes what it inserted.
struct Plan {
    /// Explicit line targets required by the planned gates, by line id.
    targets: Vec<Option<f64>>,
    /// Per AOD: unparked this stage.
    unparked: Vec<bool>,
    gates: Vec<(GateIdx, u32, u32)>,
    /// The gate atoms, each once; `is_participant` flags them per slot.
    participants: Vec<u32>,
    is_participant: Vec<bool>,
    /// The gates' atom pairs, normalized.
    desired: Vec<(u32, u32)>,
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
    /// The attempt's gate atoms.
    gate: (u32, u32),
    /// `moved[line id] == epoch` iff this attempt moves the line by more
    /// than 1e-12.
    moved: Vec<u32>,
    epoch: u32,
    /// Buffers of the C1 line sweep.
    sweep: Sweep,
    /// What this attempt inserted into the plan, removed again on
    /// rejection.
    new_targets: Vec<LineKey>,
    new_unparked: Vec<u8>,
    new_participants: usize,
    new_desired: bool,
}

/// One occupied AOD line at its position in a sweep.
#[derive(Clone, Copy)]
struct Line {
    pos: f64,
    aod: u8,
    index: u16,
}

/// Two AOD lines of one axis at most [`REACH`] apart, ordered so
/// `aods.0 <= aods.1`.
#[derive(Clone, Copy)]
struct LinePair {
    aods: (u8, u8),
    lines: (u16, u16),
}

/// The buffers one C1 line sweep fills, per axis (`[rows, cols]`).
#[derive(Default)]
struct Sweep {
    lines: Vec<Line>,
    pairs: [Vec<LinePair>; 2],
    /// `(aod, line, slm line)`: AOD lines within [`REACH`] of their
    /// nearest SLM line.
    near_slm: [Vec<(u8, u16, u16)>; 2],
}

impl Scratch {
    fn new(lines: usize) -> Self {
        Scratch {
            moved: vec![0; lines],
            ..Scratch::default()
        }
    }

    /// Starts an attempt on the gate between `a` and `b`: clears the
    /// per-attempt lists and advances the epoch, which un-marks every
    /// line at once.
    fn begin(&mut self, a: u32, b: u32) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.moved.fill(0);
            self.epoch = 1;
        }
        self.gate = (a, b);
        self.axes.clear();
        self.new_targets.clear();
        self.new_unparked.clear();
        self.new_participants = 0;
        self.new_desired = false;
    }

    /// The solved positions of axis `(k, axis)`, when this attempt
    /// re-solves it.
    fn solved(&self, k: u8, axis: Axis) -> Option<&[f64]> {
        self.axes
            .iter()
            .position(|&a| a == (k, axis))
            .map(|i| &self.vals[i][..])
    }
}

impl Plan {
    /// Removes from the plan exactly what attempt `s` inserted. The
    /// attempt pushed its participants and desired pair last, so they
    /// pop off the end.
    fn undo(&mut self, s: &Scratch, line_id: impl Fn(LineKey) -> usize) {
        for &key in &s.new_targets {
            self.targets[line_id(key)] = None;
        }
        for &k in &s.new_unparked {
            self.unparked[k as usize] = false;
        }
        for _ in 0..s.new_participants {
            let p = self.participants.pop().expect("inserted participant");
            self.is_participant[p as usize] = false;
        }
        if s.new_desired {
            self.desired.pop();
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
/// `targets[i]` is line `i`'s pinned position, if any. Writes the full
/// position vector into `out`, or returns the violated constraint.
/// Pinned lines must be strictly increasing in index order (C2);
/// untargeted lines in between are squeezed into the gap with at least
/// [`LINE_GAP`] separation (C3), preferring half-cell offsets that keep
/// their atoms away from the SLM lattice; lines outside the pinned range
/// walk outward at one-cell pitch on half-cell offsets.
fn solve_axis(
    cur: &[f64],
    targets: &[Option<f64>],
    relax: Relaxation,
    out: &mut Vec<f64>,
) -> Result<(), Reject> {
    let n = cur.len();
    out.clear();
    out.extend_from_slice(cur);
    let pinned: Vec<(usize, f64)> = targets
        .iter()
        .enumerate()
        .filter_map(|(i, t)| t.map(|t| (i, t)))
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

/// The integer line nearest `pos` among `0..n`, when it is within
/// `reach`.
fn nearest_line(pos: f64, reach: f64, n: usize) -> Option<u16> {
    let i = pos.round();
    ((pos - i).abs() <= reach && i >= 0.0 && i < n as f64).then_some(i as u16)
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
        let mut line_base = vec![0];
        for k in 0..num_aods {
            let dims = hw.dims(ArrayIndex::aod(k));
            let fy = hw.home_y(ArrayIndex::aod(k), 0) / hw.spacing_um;
            let fx = hw.home_x(ArrayIndex::aod(k), 0) / hw.spacing_um;
            cur_row.push((0..dims.rows).map(|r| r as f64 + fy).collect());
            cur_col.push((0..dims.cols).map(|c| c as f64 + fx).collect());
            line_base.push(line_base[2 * k] + dims.rows);
            line_base.push(line_base[2 * k + 1] + dims.cols);
        }
        let mut slot_at: Vec<Vec<u32>> = hw
            .arrays()
            .map(|a| vec![NO_SLOT; hw.dims(a).capacity()])
            .collect();
        let mut atoms_on_line: Vec<Vec<u32>> = vec![Vec::new(); line_base[2 * num_aods]];
        let mut atoms_in_aod: Vec<Vec<u32>> = vec![Vec::new(); num_aods];
        for (slot, site) in mapping.site_of_slot.iter().enumerate() {
            let slot = slot as u32;
            let cols = hw.dims(site.array).cols;
            let cell =
                &mut slot_at[site.array.0 as usize][site.row as usize * cols + site.col as usize];
            assert_eq!(*cell, NO_SLOT, "two slots loaded on trap site {site:?}");
            *cell = slot;
            if !site.array.is_slm() {
                let k = site.array.aod_number();
                atoms_on_line[line_base[2 * k] + site.row as usize].push(slot);
                atoms_on_line[line_base[2 * k + 1] + site.col as usize].push(slot);
                atoms_in_aod[k].push(slot);
            }
        }
        let occupied = line_base
            .windows(2)
            .map(|w| {
                (w[0]..w[1])
                    .filter(|&id| !atoms_on_line[id].is_empty())
                    .map(|id| (id - w[0]) as u16)
                    .collect()
            })
            .collect();
        RouterState {
            hw,
            relax,
            index,
            eff_row: cur_row.clone(),
            eff_col: cur_col.clone(),
            cur_row,
            cur_col,
            parked: vec![false; num_aods],
            site_of_slot: mapping.site_of_slot.clone(),
            scratch: Scratch::new(atoms_on_line.len()),
            line_travel: vec![0.0; atoms_on_line.len()],
            line_base,
            atoms_on_line,
            occupied,
            slot_at,
            atoms_in_aod,
        }
    }

    /// An empty plan for a new stage.
    fn new_plan(&self) -> Plan {
        Plan {
            targets: vec![None; self.atoms_on_line.len()],
            unparked: vec![false; self.parked.len()],
            gates: Vec::new(),
            participants: Vec::new(),
            is_participant: vec![false; self.site_of_slot.len()],
            desired: Vec::new(),
        }
    }

    /// The dense id of line `key`.
    fn line_id(&self, (k, axis, j): LineKey) -> usize {
        self.line_base[2 * k as usize + axis as usize] + j as usize
    }

    /// The slot on trap site `(row, col)` of `array` (0 = SLM, `k + 1` =
    /// AOD `k`), if one is loaded there.
    fn slot_at(&self, array: usize, row: u16, col: u16) -> Option<u32> {
        let cols = self.hw.dims(ArrayIndex(array as u8)).cols;
        let slot = self.slot_at[array][row as usize * cols + col as usize];
        (slot != NO_SLOT).then_some(slot)
    }

    /// The effective positions of one axis of AOD `k`.
    fn eff(&self, k: usize, axis: Axis) -> &[f64] {
        match axis {
            Axis::Row => &self.eff_row[k],
            Axis::Col => &self.eff_col[k],
        }
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

    /// Whether AOD `k` is in the interaction field under `plan`.
    fn in_field(&self, k: usize, plan: &Plan) -> bool {
        !self.parked[k] || plan.unparked[k]
    }

    fn is_parked_slot(&self, slot: u32, plan: &Plan) -> bool {
        let site = self.site_of_slot[slot as usize];
        !site.array.is_slm() && !self.in_field(site.array.aod_number(), plan)
    }

    /// Replaces one axis's effective positions with `vals`; the old
    /// positions are swapped out into `vals`.
    fn set_eff_axis(&mut self, k: u8, axis: Axis, vals: &mut Vec<f64>) {
        let eff = match axis {
            Axis::Row => &mut self.eff_row[k as usize],
            Axis::Col => &mut self.eff_col[k as usize],
        };
        std::mem::swap(eff, vals);
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

    /// Flags line `j` of the attempt's `i`-th re-solved axis as moved
    /// when its solved value differs from the accepted one by more than
    /// 1e-12. A line within 1e-12 counts as unmoved, and `commit` emits
    /// no move for it, so its solved value is reset to the accepted one
    /// bit for bit: C1's virtual positions, `eff_*` and the stream then
    /// agree on it. [`RouterState::decide`] visits every line of every
    /// re-solved axis before C1 runs.
    fn mark_line_if_moved(&self, s: &mut Scratch, i: usize, j: u16) {
        let (k, axis) = s.axes[i];
        let old = self.eff(k as usize, axis)[j as usize];
        let solved = &mut s.vals[i][j as usize];
        if (*solved - old).abs() <= 1e-12 {
            *solved = old;
            return;
        }
        s.moved[self.line_id((k, axis, j))] = s.epoch;
    }

    /// Whether C1 tests the pairs of `slot` in attempt `s`: it is a gate
    /// atom, sits on a line the attempt moves, or belongs to an array
    /// unparked this stage. A pair of clean atoms was decided when the
    /// plan accepted their positions.
    fn is_dirty(&self, plan: &Plan, s: &Scratch, slot: u32) -> bool {
        if slot == s.gate.0 || slot == s.gate.1 {
            return true;
        }
        let site = self.site_of_slot[slot as usize];
        if site.array.is_slm() {
            return false;
        }
        let k = site.array.aod_number();
        plan.unparked[k]
            || s.moved[self.line_id((k as u8, Axis::Row, site.row))] == s.epoch
            || s.moved[self.line_id((k as u8, Axis::Col, site.col))] == s.epoch
    }

    /// Attempts to add gate `g` between slots `a` and `b` to the plan.
    ///
    /// Decides before it writes: [`RouterState::decide`] runs every
    /// check on virtual positions, and only an accepted gate writes its
    /// solved axes into `eff_*`. A rejected gate removes from the plan
    /// exactly what it inserted, so `eff_*` and the plan are untouched by
    /// it.
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
            Err(_) => plan.undo(&s, |key| self.line_id(key)),
        }
        self.scratch = s;
        verdict
    }

    /// Decides whether the gate between slots `a` and `b` joins the plan,
    /// in the order target conflict, C2/C3 per affected axis (sorted, the
    /// first failure wins), C1, desired pairs. Inserts the gate's targets,
    /// unparks, participants and desired pair into `plan`, recording them
    /// in `s` for [`Plan::undo`]; never writes `eff_*`.
    fn decide(&self, plan: &mut Plan, s: &mut Scratch, a: u32, b: u32) -> Result<(), Reject> {
        s.begin(a, b);
        let site_a = self.site_of_slot[a as usize];
        let site_b = self.site_of_slot[b as usize];
        debug_assert_ne!(
            site_a.array, site_b.array,
            "intra-array gate reached router"
        );

        // Unpark any parked participant arrays.
        for site in [site_a, site_b] {
            if !site.array.is_slm() {
                let k = site.array.aod_number();
                if !self.in_field(k, plan) {
                    plan.unparked[k] = true;
                    s.new_unparked.push(k as u8);
                }
            }
        }

        // Compute explicit movement targets.
        let mut set_target = |key: LineKey, value: f64| {
            let target = &mut plan.targets[self.line_id(key)];
            match *target {
                Some(t) => (t - value).abs() < 1e-9,
                None => {
                    *target = Some(value);
                    s.new_targets.push(key);
                    true
                }
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
        if !plan.desired.contains(&key) {
            plan.desired.push(key);
            s.new_desired = true;
        }
        for p in [a, b] {
            if !plan.is_participant[p as usize] {
                plan.is_participant[p as usize] = true;
                plan.participants.push(p);
                s.new_participants += 1;
            }
        }

        // Re-solve every axis touched by the new targets into scratch:
        // C2/C3 plus the repositioning of untargeted lines. Sorted: the
        // first unsolvable axis decides the rejection, so the rejection
        // returned (and the work telemetry records) must not depend on
        // the order targets were inserted in.
        s.axes
            .extend(s.new_targets.iter().map(|&(k, axis, _)| (k, axis)));
        s.axes.sort_unstable();
        s.axes.dedup();
        if s.vals.len() < s.axes.len() {
            s.vals.resize_with(s.axes.len(), Vec::new);
        }
        for i in 0..s.axes.len() {
            let (k, axis) = s.axes[i];
            let cur = self.eff(k as usize, axis);
            let base = self.line_id((k, axis, 0));
            solve_axis(
                cur,
                &plan.targets[base..base + cur.len()],
                self.relax,
                &mut s.vals[i],
            )?;
        }
        for i in 0..s.axes.len() {
            for j in 0..s.vals[i].len() {
                self.mark_line_if_moved(s, i, j as u16);
            }
        }

        // C1: exact interaction set plus participant safety bands.
        if !self.relax.individual_addressing {
            C1_CALLS.incr();
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

    /// C1 at the attempt's virtual positions: exact interaction set plus
    /// participant safety bands. `true` when clear.
    ///
    /// The pairs that decide are the unordered pairs of in-field atoms
    /// with at least one dirty atom ([`RouterState::is_dirty`]), judged by
    /// [`RouterState::c1_pair_ok`]. [`ProximityIndex::Exhaustive`] scans
    /// every slot for every dirty atom. [`ProximityIndex::Lines`]
    /// enumerates only the pairs the predicate can fail (module docs,
    /// "C1 over lines"): within `r_b`, the atoms where close AOD line
    /// pairs cross and where AOD lines close to their nearest SLM lines
    /// cross; within the band, the participants' pairs and each AOD
    /// participant with its nearest SLM site. Every failure is
    /// [`Reject::Addressing`], so both modes return the same verdict.
    fn c1_clear(&self, plan: &Plan, s: &mut Scratch) -> bool {
        let mut sweep = std::mem::take(&mut s.sweep);
        let mut test = C1Test {
            state: self,
            plan,
            s,
            tested: 0,
        };
        let clear = match self.index {
            ProximityIndex::Exhaustive => test.all_slots(),
            ProximityIndex::Lines => {
                self.sweep_lines(plan, s, &mut sweep);
                test.lines(&sweep)
            }
        };
        C1_TESTED.add(test.tested);
        s.sweep = sweep;
        clear
    }

    /// Fills `sw` for attempt `s`: per axis, the pairs of occupied lines
    /// of in-field AODs at most [`REACH`] apart at their virtual
    /// positions, sorted by their AODs, and the lines within [`REACH`] of
    /// their nearest SLM line.
    fn sweep_lines(&self, plan: &Plan, s: &Scratch, sw: &mut Sweep) {
        let slm = self.hw.dims(ArrayIndex::SLM);
        for (a, axis, slm_lines) in [(0, Axis::Row, slm.rows), (1, Axis::Col, slm.cols)] {
            sw.lines.clear();
            sw.near_slm[a].clear();
            for k in 0..self.parked.len() {
                if !self.in_field(k, plan) {
                    continue;
                }
                let pos = s.solved(k as u8, axis).unwrap_or(self.eff(k, axis));
                for &j in &self.occupied[2 * k + a] {
                    let p = pos[j as usize];
                    sw.lines.push(Line {
                        pos: p,
                        aod: k as u8,
                        index: j,
                    });
                    if let Some(i) = nearest_line(p, REACH, slm_lines) {
                        sw.near_slm[a].push((k as u8, j, i));
                    }
                }
            }
            // Stable: each AOD's lines arrive in index order, which C2
            // keeps increasing, so the sort merges presorted runs.
            sw.lines.sort_by(|x, y| x.pos.total_cmp(&y.pos));
            let pairs = &mut sw.pairs[a];
            pairs.clear();
            for (i, x) in sw.lines.iter().enumerate() {
                for y in &sw.lines[i + 1..] {
                    if y.pos - x.pos > REACH {
                        break;
                    }
                    let (lo, hi) = if x.aod <= y.aod { (x, y) } else { (y, x) };
                    pairs.push(LinePair {
                        aods: (lo.aod, hi.aod),
                        lines: (lo.index, hi.index),
                    });
                }
            }
            pairs.sort_by_key(|p| p.aods);
        }
    }

    /// The C1 predicate for one pair at the attempt's virtual positions:
    /// `false` on an unwanted interaction or a safety-band violation.
    /// Symmetric in its two atoms, and every pair farther apart than
    /// [`BAND_R`] passes; a pair within it fails only within `r_b` or
    /// with a participant — which is what makes the line enumeration in
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
        let x_part = plan.is_participant[x as usize];
        let y_part = plan.is_participant[y as usize];
        let y_slm = self.site_of_slot[y as usize].array.is_slm();
        let x_slm = self.site_of_slot[x as usize].array.is_slm();
        !((x_part && (y_part || y_slm)) || (y_part && x_slm))
    }

    /// Commits the plan: updates committed positions, adds every line's
    /// travel to [`RouterState::line_travel`] and returns the per-line
    /// moves (the ledger is fed once by the caller, after retraction is
    /// folded in).
    fn commit(&mut self, plan: &Plan) -> Vec<LineMove> {
        let mut moves = Vec::new();

        // Unparked arrays travel from the parking zone, in array order so
        // the emitted move list (and thus the serialized stream) is
        // deterministic.
        for k in 0..self.parked.len() {
            if !plan.unparked[k] {
                continue;
            }
            self.parked[k] = false;
            for t in &mut self.line_travel[self.line_base[2 * k]..self.line_base[2 * k + 1]] {
                *t += PARK_TRAVEL;
            }
            moves.push(LineMove {
                aod: k as u8,
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
                let base = self.line_base[2 * k + axis as usize];
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
                    self.line_travel[base + idx] += (new - old).abs();
                    cur[idx] = new;
                }
            }
        }

        moves
    }

    /// Retracts the movable atom of each executed gate out of the Rydberg
    /// radius (move-in, pulse, move-out: the pulse must not re-fire on the
    /// next stage). Retraction distances are clamped so line order and the
    /// minimum separation survive, and added to
    /// [`RouterState::line_travel`].
    /// Returns the retraction moves plus whether every executed pair
    /// actually separated beyond the Rydberg radius — when dense
    /// neighborhoods leave no clear retraction slot, the caller must
    /// restore separation (reset fallback) before the next pulse.
    fn apply_retraction(&mut self, plan: &Plan) -> (Vec<LineMove>, bool) {
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
        // Lines queued for retraction after the current one, by line id:
        // their atoms will still move, so proximity to them is checked on
        // their turn.
        let mut pending = vec![false; self.atoms_on_line.len()];
        for &key in &lines {
            pending[self.line_id(key)] = true;
        }
        let mut moves = Vec::new();
        RETRACT_LINES.add(lines.len() as u64);
        for key in lines {
            let (k, axis, idx) = key;
            let id = self.line_id(key);
            pending[id] = false;
            let i = idx as usize;
            let arr = match axis {
                Axis::Row => &self.cur_row[k as usize],
                Axis::Col => &self.cur_col[k as usize],
            };
            let pos = arr[i];
            let upper = arr.get(i + 1).copied().unwrap_or(f64::INFINITY);
            let lower = if i > 0 { arr[i - 1] } else { f64::NEG_INFINITY };
            // Each atom's possible blockers are collected once, then the
            // exact clearance predicate is tested per amount against them.
            let blockers = self.retraction_blockers(key, plan, &pending);
            let chosen = AMOUNTS
                .into_iter()
                .chain(fallback_amounts())
                .find(|&amount| {
                    let new = pos + amount;
                    if new >= upper - LINE_GAP || new <= lower + LINE_GAP {
                        return false;
                    }
                    blockers.iter().all(|(site, near)| {
                        let p = match axis {
                            Axis::Row => (new, self.eff_col[k as usize][site.col as usize]),
                            Axis::Col => (self.eff_row[k as usize][site.row as usize], new),
                        };
                        !near.iter().any(|&b| dist(p, b) <= INTERACT_R + 1e-9)
                    })
                });
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
            moves.push(LineMove {
                aod: k,
                axis_row: axis == Axis::Row,
                line: idx,
                from_track: pos,
                to_track: new,
            });
            self.line_travel[id] += amount.abs();
        }
        // Did every pulsed pair actually separate? A pair is clear when at
        // least one of its atoms' lines moved far enough.
        let separated = plan
            .desired
            .iter()
            .all(|&(a, b)| dist(self.pos(a), self.pos(b)) > INTERACT_R + 1e-9);
        (moves, separated)
    }

    /// The stage's `(slot, distance)` pairs in slot order, for the AOD
    /// slots that moved, with distances in µm; the line travel is reset
    /// for the next stage.
    fn take_travel(&mut self) -> Vec<(u32, f64)> {
        let mut moved = Vec::new();
        for (slot, site) in self.site_of_slot.iter().enumerate() {
            if site.array.is_slm() {
                continue;
            }
            let k = site.array.aod_number();
            let dr = self.line_travel[self.line_base[2 * k] + site.row as usize];
            let dc = self.line_travel[self.line_base[2 * k + 1] + site.col as usize];
            if dr == 0.0 && dc == 0.0 {
                continue; // every travel added is positive: this atom stayed
            }
            moved.push((slot as u32, (dr * dr + dc * dc).sqrt() * self.hw.spacing_um));
        }
        self.line_travel.fill(0.0);
        moved
    }

    /// For every atom on the retracting line `key`: its site, and the
    /// positions of the atoms that could block one of its retractions,
    /// leaving out the exempt ones ([`RouterState::retraction_exempt`]).
    /// An atom blocks a retraction when it lies within `r_b + 1e-9` of
    /// the retracted position.
    ///
    /// [`ProximityIndex::Exhaustive`] lists every other atom.
    /// [`ProximityIndex::Lines`] lists the atoms where a line parallel to
    /// `key` within [`RETRACT_MAX`]` + r_b` of it crosses a line within
    /// `r_b` of the atom's other coordinate. No retraction moves a line
    /// farther than [`RETRACT_MAX`], so that misses no blocker, and the
    /// caller tests the same predicate against either list.
    fn retraction_blockers(
        &self,
        key: LineKey,
        plan: &Plan,
        pending: &[bool],
    ) -> Vec<(TrapSite, Vec<(f64, f64)>)> {
        let (k, axis, idx) = key;
        let atoms = &self.atoms_on_line[self.line_id(key)];
        let exempt = |atom: u32, site: TrapSite, y: u32| {
            self.retraction_exempt(key, site, atom, plan, pending, y)
        };
        if self.index == ProximityIndex::Exhaustive {
            return atoms
                .iter()
                .map(|&atom| {
                    let site = self.site_of_slot[atom as usize];
                    let near = (0..self.site_of_slot.len() as u32)
                        .filter(|&y| !exempt(atom, site, y))
                        .map(|y| self.pos(y))
                        .collect();
                    (site, near)
                })
                .collect();
        }
        // The blocking predicate allows 1e-9 over r_b, and `REACH` adds
        // the same again for rounding.
        let reach = REACH + 1e-9;
        let slm = self.hw.dims(ArrayIndex::SLM);
        let (slm_along, slm_across) = match axis {
            Axis::Row => (slm.rows, slm.cols),
            Axis::Col => (slm.cols, slm.rows),
        };
        let pos = self.eff(k as usize, axis)[idx as usize];
        let window = RETRACT_MAX + reach;
        // `(array, line)`: the lines parallel to `key` that a retraction
        // can bring within `r_b` of.
        let mut parallel: Vec<(usize, u16)> = (0..slm_along)
            .filter(|&i| (i as f64 - pos).abs() <= window)
            .map(|i| (0, i as u16))
            .collect();
        // The lines across `key`, by position.
        let mut across: Vec<Line> = Vec::new();
        for kk in (0..self.parked.len()).filter(|&kk| self.in_field(kk, plan)) {
            let along = self.eff(kk, axis);
            parallel.extend(
                self.occupied[2 * kk + axis as usize]
                    .iter()
                    .filter(|&&j| (along[j as usize] - pos).abs() <= window)
                    .map(|&j| (kk + 1, j)),
            );
            let other = self.eff(kk, axis.other());
            across.extend(
                self.occupied[2 * kk + axis.other() as usize]
                    .iter()
                    .map(|&j| Line {
                        pos: other[j as usize],
                        aod: kk as u8,
                        index: j,
                    }),
            );
        }
        across.sort_by(|x, y| x.pos.total_cmp(&y.pos));
        atoms
            .iter()
            .map(|&atom| {
                let site = self.site_of_slot[atom as usize];
                let p = self.pos(atom);
                let x = match axis {
                    Axis::Row => p.1,
                    Axis::Col => p.0,
                };
                let mut near = Vec::new();
                let mut cross = |array: usize, along: u16, across: u16| {
                    let (row, col) = match axis {
                        Axis::Row => (along, across),
                        Axis::Col => (across, along),
                    };
                    if let Some(y) = self.slot_at(array, row, col) {
                        if !exempt(atom, site, y) {
                            near.push(self.pos(y));
                        }
                    }
                };
                if let Some(j) = nearest_line(x, reach, slm_across) {
                    for &(_, i) in parallel.iter().filter(|p| p.0 == 0) {
                        cross(0, i, j);
                    }
                }
                let from = across.partition_point(|l| l.pos < x - reach);
                for l in across[from..].iter().take_while(|l| l.pos <= x + reach) {
                    let array = l.aod as usize + 1;
                    for &(_, i) in parallel.iter().filter(|p| p.0 == array) {
                        cross(array, i, l.index);
                    }
                }
                (site, near)
            })
            .collect()
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
        pending: &[bool],
        y: u32,
    ) -> bool {
        let (k, axis, _) = key;
        if y == atom || self.is_parked_slot(y, plan) {
            return true;
        }
        let ysite = self.site_of_slot[y as usize];
        if !ysite.array.is_slm() {
            let yk = ysite.array.aod_number() as u8;
            if pending[self.line_id((yk, Axis::Row, ysite.row))]
                || pending[self.line_id((yk, Axis::Col, ysite.col))]
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

/// The distance tests of one C1 evaluation.
struct C1Test<'r, 'a> {
    state: &'r RouterState<'a>,
    plan: &'r Plan,
    s: &'r Scratch,
    /// Pairs handed to [`RouterState::c1_pair_ok`].
    tested: u64,
}

impl C1Test<'_, '_> {
    /// Whether the pair `(x, y)` passes C1; a pair of clean atoms passes
    /// untested.
    fn pair(&mut self, x: u32, y: u32) -> bool {
        let (st, plan, s) = (self.state, self.plan, self.s);
        if !st.is_dirty(plan, s, x) && !st.is_dirty(plan, s, y) {
            return true;
        }
        self.tested += 1;
        st.c1_pair_ok(plan, x, st.virtual_pos(s, x), y, st.virtual_pos(s, y))
    }

    /// [`C1Test::pair`] for the slots on two trap sites, each
    /// `(array, row, col)` as in [`RouterState::slot_at`]; an empty site
    /// passes.
    fn sites(&mut self, p: (usize, u16, u16), q: (usize, u16, u16)) -> bool {
        match (
            self.state.slot_at(p.0, p.1, p.2),
            self.state.slot_at(q.0, q.1, q.2),
        ) {
            (Some(x), Some(y)) => self.pair(x, y),
            _ => true,
        }
    }

    /// [`ProximityIndex::Exhaustive`]: every dirty in-field atom against
    /// every other in-field slot.
    fn all_slots(&mut self) -> bool {
        let (st, plan, s) = (self.state, self.plan, self.s);
        let n = st.site_of_slot.len() as u32;
        let dirty: Vec<bool> = (0..n).map(|x| st.is_dirty(plan, s, x)).collect();
        for x in (0..n).filter(|&x| dirty[x as usize] && !st.is_parked_slot(x, plan)) {
            let px = st.virtual_pos(s, x);
            for y in 0..n {
                // Dirty pairs are tested once, from the lower slot.
                if y == x || (y < x && dirty[y as usize]) || st.is_parked_slot(y, plan) {
                    continue;
                }
                self.tested += 1;
                if !st.c1_pair_ok(plan, x, px, y, st.virtual_pos(s, y)) {
                    return false;
                }
            }
        }
        true
    }

    /// [`ProximityIndex::Lines`] over the close line pairs in `sw`.
    fn lines(&mut self, sw: &Sweep) -> bool {
        let (st, plan) = (self.state, self.plan);
        let [rows, cols] = &sw.pairs;
        // Distinct lines on both axes: the AODs of the row pair must be
        // those of the column pair. Both lists are sorted by AODs.
        let mut from = 0;
        for group in rows.chunk_by(|x, y| x.aods == y.aods) {
            let key = group[0].aods;
            from += cols[from..].partition_point(|c| c.aods < key);
            let to = from + cols[from..].partition_point(|c| c.aods == key);
            let (a, b) = (key.0 as usize + 1, key.1 as usize + 1);
            for r in group {
                for c in &cols[from..to] {
                    if !self.sites((a, r.lines.0, c.lines.0), (b, r.lines.1, c.lines.1))
                        || (a == b
                            && !self.sites((a, r.lines.0, c.lines.1), (a, r.lines.1, c.lines.0)))
                    {
                        return false;
                    }
                }
            }
        }
        // Two close lines of one AOD, and an atom of each on one line
        // across them.
        for (axis, pairs) in [(Axis::Row, rows), (Axis::Col, cols)] {
            for p in pairs.iter().filter(|p| p.aods.0 == p.aods.1) {
                let k = p.aods.0;
                for &x in &st.atoms_on_line[st.line_id((k, axis, p.lines.0))] {
                    let site = st.site_of_slot[x as usize];
                    let (row, col) = match axis {
                        Axis::Row => (p.lines.1, site.col),
                        Axis::Col => (site.row, p.lines.1),
                    };
                    if let Some(y) = st.slot_at(k as usize + 1, row, col) {
                        if !self.pair(x, y) {
                            return false;
                        }
                    }
                }
            }
        }
        // An AOD atom where a row and a column close to their nearest SLM
        // lines cross, against the SLM atom there.
        for &(k, r, i) in &sw.near_slm[0] {
            for &(_, c, j) in sw.near_slm[1].iter().filter(|n| n.0 == k) {
                if !self.sites((k as usize + 1, r, c), (0, i, j)) {
                    return false;
                }
            }
        }
        // The band: the participants' pairs, and each AOD participant
        // against the SLM site nearest it.
        let slm = st.hw.dims(ArrayIndex::SLM);
        let parts = &plan.participants;
        for (i, &x) in parts.iter().enumerate() {
            let px = st.virtual_pos(self.s, x);
            for &y in &parts[i + 1..] {
                let py = st.virtual_pos(self.s, y);
                if (px.0 - py.0).abs() <= BAND_REACH
                    && (px.1 - py.1).abs() <= BAND_REACH
                    && !self.pair(x, y)
                {
                    return false;
                }
            }
            if st.site_of_slot[x as usize].array.is_slm() {
                continue;
            }
            let site = (
                nearest_line(px.0, BAND_REACH, slm.rows),
                nearest_line(px.1, BAND_REACH, slm.cols),
            );
            if let (Some(i), Some(j)) = site {
                if let Some(y) = st.slot_at(0, i, j) {
                    if !self.pair(x, y) {
                        return false;
                    }
                }
            }
        }
        true
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
/// The router walks the DAG front, greedily builds a maximal legal
/// parallel gate set per iteration and emits one movement stage (move
/// in, pulse, retract) per set: the paper's Sec. III-C scheduling. The
/// ISA optimizer only moves atoms, so every stage's pulse reaches the
/// optimized stream as it is; at `-O2` it fuses each retraction with
/// the next approach of the same line.
///
/// `strategy` is [`RouterStrategy::Sequential`], the only strategy.
///
/// `index` selects how the constraint checks enumerate proximity
/// candidates: [`ProximityIndex::Lines`] (the default in
/// [`AtomiqueConfig`](crate::AtomiqueConfig)) sweeps the sorted line
/// positions of each axis for close line pairs and tests only the atoms
/// where they cross (module docs, "C1 over lines");
/// [`ProximityIndex::Exhaustive`] is the all-atoms scan, kept as the
/// oracle for the differential router tests. Both produce identical
/// schedules — the sweep only restricts candidate enumeration, never the
/// accept/reject predicates.
///
/// `mapping` must load at most one slot per trap site, as
/// [`map_to_atoms`](crate::map_to_atoms) does.
///
/// # Panics
///
/// Panics if `mapping` loads two slots on one trap site.
///
/// # Errors
///
/// Never fails for valid inputs: a gate that cannot be scheduled even from
/// a reset configuration falls back to a transfer-assisted stage (the atom
/// is re-grabbed next to its partner, charging two SLM↔AOD transfers to the
/// fidelity model).
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
    let RouterStrategy::Sequential = strategy;
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
        let mut plan = state.new_plan();
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
        let moves = {
            let _committing = raa_trace::span("route.commit");
            state.commit(&plan)
        };
        let (retract_moves, separated) = {
            let _retracting = raa_trace::span("route.retract");
            state.apply_retraction(&plan)
        };
        let mut moved = state.take_travel();
        for (_, d) in &mut moved {
            total_move_um += *d;
            *d *= 1e-6;
        }
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
            ProximityIndex::Lines,
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
            ProximityIndex::Lines,
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
            ProximityIndex::Lines,
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
            ProximityIndex::Lines,
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
            ProximityIndex::Lines,
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
            ProximityIndex::Lines,
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
        for index in MODES {
            let mut state = RouterState::new(&hw, &am, Relaxation::NONE, index);
            // The movable atom sits at the gate position next to its SLM
            // partner (5, 5).
            place(&mut state, 0, &[5.0 + DELTA_ROW], &[5.0 + DELTA_COL]);
            // The curtain: AOD1 rows at 0.3-track pitch around the gate
            // row (top blocker at +1.0 ends the blocked band at +1.167),
            // one column exactly aligned with the movable atom's x and
            // the rest at 0.145-track pitch filling ±1.45.
            let row_offsets = [-1.05, -0.75, -0.45, -0.15, 0.15, 0.45, 0.75, 1.00];
            let rows: Vec<f64> = row_offsets.iter().map(|o| 5.0 + DELTA_ROW + o).collect();
            let cols: Vec<f64> = (0..21)
                .map(|j| 5.0 + DELTA_COL - 1.45 + 0.145 * j as f64)
                .collect();
            place(&mut state, 1, &rows, &cols);
            let plan = pulsed_plan(&state, &[(0, 1)]);

            let (moves, separated) = state.apply_retraction(&plan);
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
            results.push(move_bits(&moves));
        }
        assert_eq!(
            results[0], results[1],
            "line and exhaustive modes retracted differently"
        );
    }

    /// An SLM atom blocks the preferred retraction: the mover of an
    /// AOD–AOD gate shares its row with a bystander that a +0.3 step
    /// would bring onto SLM site (5, 8), so the row retracts by −0.3.
    #[test]
    fn retraction_steps_around_an_slm_atom() {
        for with_blocker in [true, false] {
            let mut sites = vec![
                TrapSite::new(ArrayIndex::aod(0), 0, 0),
                TrapSite::new(ArrayIndex::aod(1), 0, 0),
                TrapSite::new(ArrayIndex::aod(1), 0, 1),
            ];
            if with_blocker {
                sites.push(TrapSite::new(ArrayIndex::SLM, 5, 8));
            }
            let (hw, am) = hand_placed(vec![ArrayDims::new(1, 1), ArrayDims::new(1, 2)], sites);
            let mut results = Vec::new();
            for index in MODES {
                let mut state = RouterState::new(&hw, &am, Relaxation::NONE, index);
                place(&mut state, 0, &[4.70], &[3.50]);
                place(&mut state, 1, &[2.3], &[1.0, 8.0]);
                let mut plan = state.new_plan();
                assert_eq!(state.try_add(&mut plan, 0, 0, 1), Ok(()), "{index:?}");
                state.commit(&plan);
                let (moves, separated) = state.apply_retraction(&plan);
                assert!(separated, "{index:?}");
                let row = moves
                    .iter()
                    .find(|m| m.aod == 1 && m.axis_row)
                    .expect("mover's row retracted");
                let want = if with_blocker { -0.3 } else { 0.3 };
                assert!(
                    (row.to_track - row.from_track - want).abs() < 1e-9,
                    "{index:?}: row retracted {} → {}",
                    row.from_track,
                    row.to_track
                );
                results.push(move_bits(&moves));
            }
            assert_eq!(results[0], results[1], "modes retracted differently");
        }
    }

    const MODES: [ProximityIndex; 2] = [ProximityIndex::Lines, ProximityIndex::Exhaustive];

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
    }

    /// A plan whose `gates` were just pulsed at the committed positions.
    fn pulsed_plan(state: &RouterState<'_>, gates: &[(u32, u32)]) -> Plan {
        let mut plan = state.new_plan();
        for (g, &(a, b)) in gates.iter().enumerate() {
            plan.gates.push((g, a, b));
            plan.desired.push(norm_pair(a, b));
            for p in [a, b] {
                plan.participants.push(p);
                plan.is_participant[p as usize] = true;
            }
        }
        plan
    }

    /// Line moves as comparable bits.
    fn move_bits(moves: &[LineMove]) -> Vec<(u8, bool, u16, u64)> {
        moves
            .iter()
            .map(|m| (m.aod, m.axis_row, m.line, m.to_track.to_bits()))
            .collect()
    }

    /// In both modes: admits the `accepted` gates, then returns the
    /// verdict on `last`, on a fresh state that `prepare` set up.
    fn verdicts(
        hw: &RaaConfig,
        am: &AtomMapping,
        relax: Relaxation,
        prepare: impl Fn(&mut RouterState<'_>),
        accepted: &[(u32, u32)],
        last: (u32, u32),
    ) -> [Result<(), Reject>; 2] {
        MODES.map(|index| {
            let mut state = RouterState::new(hw, am, relax, index);
            prepare(&mut state);
            let mut plan = state.new_plan();
            for (g, &(a, b)) in accepted.iter().enumerate() {
                assert_eq!(
                    state.try_add(&mut plan, g, a, b),
                    Ok(()),
                    "{index:?}: {a}-{b}"
                );
            }
            state.try_add(&mut plan, accepted.len(), last.0, last.1)
        })
    }

    /// Everything a rejected attempt must leave untouched, floats as
    /// bits and participant lists sorted.
    #[derive(Debug, PartialEq)]
    struct Snapshot {
        eff_row: Vec<Vec<u64>>,
        eff_col: Vec<Vec<u64>>,
        targets: Vec<Option<u64>>,
        unparked: Vec<bool>,
        gates: Vec<(GateIdx, u32, u32)>,
        participants: Vec<u32>,
        is_participant: Vec<bool>,
        desired: Vec<(u32, u32)>,
    }

    fn snapshot(state: &RouterState<'_>, plan: &Plan) -> Snapshot {
        let bits = |v: &Vec<Vec<f64>>| -> Vec<Vec<u64>> {
            v.iter()
                .map(|axis| axis.iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        let mut participants = plan.participants.clone();
        participants.sort_unstable();
        Snapshot {
            eff_row: bits(&state.eff_row),
            eff_col: bits(&state.eff_col),
            targets: plan.targets.iter().map(|t| t.map(f64::to_bits)).collect(),
            unparked: plan.unparked.clone(),
            gates: plan.gates.clone(),
            participants,
            is_participant: plan.is_participant.clone(),
            desired: plan.desired.clone(),
        }
    }

    /// The only C1 violation is between the gate's SLM atom and an atom
    /// that the gate moves onto it: the gate moves AOD row 0, whose
    /// other atom then sits where a row and a column close to their
    /// nearest SLM lines cross.
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
                let mut plan = state.new_plan();
                let verdict = state.try_add(&mut plan, 0, 0, 1);
                assert!(state.is_dirty(&plan, &state.scratch, 2));
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
    /// ones closer than the Rydberg radius, and two of them carry an
    /// atom on one column.
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
            let mut plan = state.new_plan();
            assert_eq!(state.try_add(&mut plan, 0, 0, 1), Ok(()), "{index:?}");
            let verdict = state.try_add(&mut plan, 1, 2, 3);
            let s = &state.scratch;
            for line in [3, 4] {
                assert_eq!(s.moved[state.line_id((0, Axis::Row, line))], s.epoch);
            }
            let (z1, z2) = (state.virtual_pos(s, 4), state.virtual_pos(s, 5));
            assert!(dist(z1, z2) <= INTERACT_R, "{index:?}: {z1:?} {z2:?}");
            assert_eq!(verdict, Err(Reject::Addressing), "{index:?}");
        }
    }

    /// The other same-array cases, with overlap relaxed so re-solving
    /// squeezes lines closer than the Rydberg radius: two close columns
    /// with an atom of each on one row, and two close rows crossing two
    /// close columns in either diagonal. The control pair sits two
    /// squeezed lines apart on each axis.
    #[test]
    fn c1_finds_same_array_pairs_on_every_branch() {
        let relax = Relaxation {
            allow_overlap: true,
            ..Relaxation::NONE
        };
        let gates =
            |aod_dims: ArrayDims, far: TrapSite, pinned: TrapSite, pair: [(u16, u16); 2]| {
                let mut sites = vec![
                    TrapSite::new(ArrayIndex::SLM, 5, 5),
                    TrapSite::new(ArrayIndex::aod(0), 0, 0),
                    far,
                    pinned,
                ];
                sites.extend(pair.map(|(r, c)| TrapSite::new(ArrayIndex::aod(0), r, c)));
                hand_placed(vec![aod_dims], sites)
            };
        let slm = |r, c| TrapSite::new(ArrayIndex::SLM, r, c);
        let aod0 = |r, c| TrapSite::new(ArrayIndex::aod(0), r, c);
        let cases = [
            (
                "one row, close columns",
                gates(
                    ArrayDims::new(2, 8),
                    slm(7, 6),
                    aod0(1, 7),
                    [(1, 3), (1, 4)],
                ),
                Err(Reject::Addressing),
            ),
            (
                "crossing, same diagonal",
                gates(
                    ArrayDims::new(10, 10),
                    slm(6, 6),
                    aod0(9, 9),
                    [(4, 4), (5, 5)],
                ),
                Err(Reject::Addressing),
            ),
            (
                "crossing, other diagonal",
                gates(
                    ArrayDims::new(10, 10),
                    slm(6, 6),
                    aod0(9, 9),
                    [(4, 5), (5, 4)],
                ),
                Err(Reject::Addressing),
            ),
            (
                "control",
                gates(
                    ArrayDims::new(10, 10),
                    slm(6, 6),
                    aod0(9, 9),
                    [(4, 4), (6, 6)],
                ),
                Ok(()),
            ),
        ];
        for (name, (hw, am), want) in cases {
            let got = verdicts(&hw, &am, relax, |_| {}, &[(0, 1)], (2, 3));
            assert_eq!(got, [want; 2], "{name}");
        }
    }

    /// An unwanted pair across two AODs: the gate moves AOD 0's atom
    /// next to its SLM partner, within `r_b` of a resting AOD 1 atom
    /// that is more than `r_b` from the SLM atom.
    #[test]
    fn c1_catches_an_unwanted_pair_across_two_aods() {
        for with_blocker in [true, false] {
            let mut sites = vec![
                TrapSite::new(ArrayIndex::SLM, 5, 5),
                TrapSite::new(ArrayIndex::aod(0), 0, 0),
            ];
            if with_blocker {
                sites.push(TrapSite::new(ArrayIndex::aod(1), 0, 0));
            }
            let (hw, am) = hand_placed(vec![ArrayDims::new(1, 1), ArrayDims::new(1, 1)], sites);
            let got = verdicts(
                &hw,
                &am,
                Relaxation::NONE,
                |state| place(state, 1, &[5.15], &[5.18]),
                &[],
                (0, 1),
            );
            let want = if with_blocker {
                Err(Reject::Addressing)
            } else {
                Ok(())
            };
            assert_eq!(got, [want; 2], "blocker {with_blocker}");
        }
    }

    /// The band around an SLM atom: an AOD–AOD gate whose anchor rests
    /// 0.3 tracks from SLM site (5, 5), outside `r_b` but inside 2.5 `r_b`.
    #[test]
    fn c1_keeps_participants_out_of_the_band_of_the_nearest_slm_site() {
        for with_slm in [true, false] {
            let mut sites = vec![
                TrapSite::new(ArrayIndex::aod(0), 0, 0),
                TrapSite::new(ArrayIndex::aod(1), 0, 0),
            ];
            if with_slm {
                sites.push(TrapSite::new(ArrayIndex::SLM, 5, 5));
            }
            let (hw, am) = hand_placed(vec![ArrayDims::new(1, 1), ArrayDims::new(1, 1)], sites);
            let got = verdicts(
                &hw,
                &am,
                Relaxation::NONE,
                |state| place(state, 0, &[5.30], &[5.00]),
                &[],
                (0, 1),
            );
            let want = if with_slm {
                Err(Reject::Addressing)
            } else {
                Ok(())
            };
            assert_eq!(got, [want; 2], "SLM atom {with_slm}");
        }
    }

    /// The band between participants: the second gate's anchor rests
    /// 0.39 tracks from the first gate's AOD atom, and no SLM atom is
    /// within the band of either. The control anchor rests 0.56 away.
    #[test]
    fn c1_keeps_participants_out_of_each_others_band() {
        let (hw, am) = hand_placed(
            vec![ArrayDims::new(2, 2), ArrayDims::new(1, 1)],
            vec![
                TrapSite::new(ArrayIndex::SLM, 5, 5),
                TrapSite::new(ArrayIndex::aod(0), 0, 0),
                TrapSite::new(ArrayIndex::aod(0), 1, 1),
                TrapSite::new(ArrayIndex::aod(1), 0, 0),
            ],
        );
        for (anchor_row, want) in [(5.35, Err(Reject::Addressing)), (5.55, Ok(()))] {
            let got = verdicts(
                &hw,
                &am,
                Relaxation::NONE,
                |state| place(state, 0, &[4.6, anchor_row], &[4.7, 5.33]),
                &[(0, 1)],
                (2, 3),
            );
            assert_eq!(got, [want; 2], "anchor row {anchor_row}");
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
                let mut plan = state.new_plan();
                let verdict = state.try_add(&mut plan, 0, 0, 1);
                if with_blocker {
                    assert_eq!(verdict, Err(Reject::Addressing), "{index:?}");
                    assert!(!plan.unparked[0], "{index:?}: unpark kept");
                } else {
                    assert_eq!(verdict, Ok(()), "{index:?}");
                    assert!(plan.unparked[0], "{index:?}: unpark lost");
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
            let mut plan = state.new_plan();
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
            assert_eq!(plan.targets.iter().flatten().count(), 5, "{index:?}");
            assert_eq!(
                plan.targets[state.line_id((0, Axis::Col, 1))],
                Some(anchor.1)
            );
            assert_eq!(
                state.pos(3),
                (anchor.0 + DELTA_ROW, anchor.1 + DELTA_COL),
                "{index:?}: mover ignored the accepted anchor"
            );
        }
    }

    /// Rejections on a target conflict, while solving an axis and in C1
    /// leave `eff_*` and the plan exactly as the accepted plan left them.
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
            let mut plan = state.new_plan();
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

    /// A `serve-mix` fresh instance (workload seed 23, instance 1 257) on
    /// which a re-solved line used to drift by less than 1e-12: C1
    /// skipped the line as unmoved, `eff_*` stored the drifted value and
    /// the stream kept the old one, leaving an unscheduled pair
    /// 0.16666666666666607 tracks apart, inside `r_b`.
    #[test]
    fn sub_threshold_resolves_keep_the_accepted_position() {
        let c = raa_benchmarks::qaoa_regular(100, 3, 23 * 1_000_003 + 1_257);
        let cfg = crate::AtomiqueConfig {
            verify_isa: true,
            ..crate::AtomiqueConfig::default()
        };
        crate::compile(&c, &cfg).unwrap();
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
            ProximityIndex::Lines,
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
