//! The standalone legality checker.
//!
//! [`check_legality`] replays atom positions through an instruction
//! stream and re-verifies the three RAA hardware constraints *purely
//! from the stream* — it shares no state with the Atomique router or the
//! baseline compilers, so it catches serialization and bookkeeping bugs
//! neither can see.
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
//! # C1 over lines
//!
//! The C1 "nothing else interacts" scan is quadratic if done naively —
//! O(atoms²) per pulse. [`CheckMode::Lines`] (the default) uses the
//! array geometry instead: every atom sits where one row line of its
//! array crosses one column line, so two atoms can be within `r_b` only
//! if their rows are within `r_b` of each other *and* their columns are.
//! At each C1 evaluation, per axis, the checker
//!
//! 1. collects the lines that host a slot: SLM lines at their integer
//!    track positions, lines of every in-field AOD at their replayed
//!    positions (a parked AOD's lines are skipped);
//! 2. sorts them by position — explicitly, so the verdict does not lean
//!    on C2 having held;
//! 3. sweeps the sorted list for *close* line pairs, at most
//!    `r_b + EPS` apart;
//!
//! and then distance-tests only the atoms where a close row pair crosses
//! a close column pair of the same two arrays, plus the same-array cases
//! where the two atoms share a line: one row with two close columns, two
//! close rows with one column, and two slots loaded on one trap site.
//! Those cases cover every way two atoms can be close, so the sweep
//! enumerates a superset of the violating pairs.
//!
//! The sweep decides nothing: each enumerated pair goes through the same
//! distance predicate (`dist ≤ r_b`) as [`CheckMode::Exhaustive`], the
//! all-pairs scan kept as the reference. The per-axis prefilter has
//! slack because a pair within `r_b` can exceed `r_b` on one axis by a
//! rounding ulp. The sweep keeps the lexicographically smallest
//! violating `(x, y)`, which is the pair the ascending all-pairs scan
//! reports first, so both modes return the *identical* verdict — accept,
//! or the same [`LegalityError`] variant with the same fields — on every
//! stream. This is property-tested on random legal and illegal streams
//! (`crates/isa/tests/check_modes.rs`) and over the benchmark suites,
//! including relaxed-constraint compiles (`tests/verify_differential.rs`).
//!
//! Cost: a move writes one line position and does no per-atom work. A
//! C1 evaluation costs O(L log L) over the L occupied lines, plus one
//! test per atom pair at a close crossing. The buffers it uses live in
//! the machine, so a pulse allocates nothing.

use raa_trace::Counter;

use crate::error::LegalityError;
use crate::program::{Instr, IsaProgram, SiteSpec};

/// Slack applied to strict inequalities, matching the router.
const EPS: f64 = 1e-9;

/// An in-field pair within the blockade radius, and its distance.
type Violation = ((u32, u32), f64);

/// Close line pairs a [`CheckMode::Lines`] C1 evaluation found, both
/// axes together.
static C1_LINE_PAIRS: Counter = Counter::new("isa.c1.line_pairs");
/// Atom pairs a [`CheckMode::Lines`] C1 evaluation distance-tested.
static C1_TESTED: Counter = Counter::new("isa.c1.tested");

/// How [`check_legality_mode`] enumerates C1 proximity candidates.
///
/// Both modes are proven verdict-identical (same accept/reject, same
/// error variant and fields); the line sweep only restricts which atom
/// pairs a scan *looks at* — to those that can possibly be within range
/// — never the distance predicate itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckMode {
    /// Sweep the sorted occupied lines of each axis for close pairs and
    /// distance-test only the atoms at their crossings: O(L log L) over
    /// the occupied lines per pulse, plus the close crossings. The
    /// default.
    #[default]
    Lines,
    /// The original exhaustive all-pairs scan: O(atoms²) per pulse.
    /// Kept as the reference the differential checker tests compare
    /// against.
    Exhaustive,
}

/// One AOD's replayed line positions, home positions and parked flag;
/// the optimizer's `Tracker` replays the same state.
pub(crate) struct AodState {
    pub(crate) rows: Vec<f64>,
    pub(crate) cols: Vec<f64>,
    pub(crate) home_rows: Vec<f64>,
    pub(crate) home_cols: Vec<f64>,
    pub(crate) parked: bool,
}

/// Where the loading map put the slots; fixed for the whole stream.
/// Arrays are numbered as in [`SiteSpec::array`]: 0 is the SLM, `k + 1`
/// is AOD `k`.
struct Layout {
    /// Per array, the row lines that host a slot, ascending.
    rows_used: Vec<Vec<u32>>,
    /// Per array, the column lines that host a slot, ascending.
    cols_used: Vec<Vec<u32>>,
    /// The occupied trap sites as [`site_key`]s, ascending.
    site_keys: Vec<u64>,
    /// `site_slots[site_start[i]..site_start[i + 1]]` are the slots
    /// loaded on site `i`, ascending.
    site_start: Vec<u32>,
    site_slots: Vec<u32>,
    /// Sites that host more than one slot.
    shared_sites: Vec<usize>,
}

/// One trap site as a sortable key (rows and columns are `u16`).
fn site_key(array: u32, row: u32, col: u32) -> u64 {
    (u64::from(array) << 32) | (u64::from(row) << 16) | u64::from(col)
}

impl Layout {
    fn new(sites: &[SiteSpec], arrays: usize) -> Layout {
        let mut rows_used = vec![Vec::new(); arrays];
        let mut cols_used = vec![Vec::new(); arrays];
        let mut by_site: Vec<(u64, u32)> = Vec::with_capacity(sites.len());
        for (slot, s) in sites.iter().enumerate() {
            let array = u32::from(s.array);
            rows_used[array as usize].push(u32::from(s.row));
            cols_used[array as usize].push(u32::from(s.col));
            by_site.push((
                site_key(array, u32::from(s.row), u32::from(s.col)),
                slot as u32,
            ));
        }
        for used in rows_used.iter_mut().chain(cols_used.iter_mut()) {
            used.sort_unstable();
            used.dedup();
        }
        by_site.sort_unstable();
        let mut layout = Layout {
            rows_used,
            cols_used,
            site_keys: Vec::new(),
            site_start: Vec::new(),
            site_slots: by_site.iter().map(|&(_, slot)| slot).collect(),
            shared_sites: Vec::new(),
        };
        for (i, &(key, _)) in by_site.iter().enumerate() {
            if layout.site_keys.last() == Some(&key) {
                continue;
            }
            layout.site_keys.push(key);
            layout.site_start.push(i as u32);
        }
        layout.site_start.push(by_site.len() as u32);
        layout.shared_sites = (0..layout.site_keys.len())
            .filter(|&i| layout.site_start[i + 1] - layout.site_start[i] > 1)
            .collect();
        layout
    }

    fn slots_of(&self, site: usize) -> &[u32] {
        &self.site_slots[self.site_start[site] as usize..self.site_start[site + 1] as usize]
    }

    /// The slots loaded on `(array, row, col)`.
    fn slots_at(&self, (array, row, col): (u32, u32, u32)) -> &[u32] {
        match self.site_keys.binary_search(&site_key(array, row, col)) {
            Ok(i) => self.slots_of(i),
            Err(_) => &[],
        }
    }
}

/// One occupied line of a C1 sweep.
#[derive(Clone, Copy)]
struct Line {
    pos: f64,
    array: u32,
    index: u32,
}

/// Two lines of one axis at most the sweep's reach apart, ordered so
/// `arrays.0 <= arrays.1`.
#[derive(Clone, Copy)]
struct LinePair {
    arrays: (u32, u32),
    lines: (u32, u32),
}

/// The buffers one [`CheckMode::Lines`] C1 evaluation fills.
#[derive(Default)]
struct Sweep {
    lines: Vec<Line>,
    rows: Vec<LinePair>,
    cols: Vec<LinePair>,
}

/// The checker's machine model: replayed AOD line positions and parked
/// flags, the static slot layout, and the C1 scratch buffers.
struct Machine {
    aods: Vec<AodState>,
    interact_r: f64,
    /// How far apart two lines of one axis may be and still host a pair
    /// within `interact_r`. Beyond the `EPS` slack, the relative term
    /// covers the rounding of `dist` at any radius.
    reach: f64,
    /// The loading map (slot → trap site), copied out of the program.
    sites: Vec<SiteSpec>,
    mode: CheckMode,
    layout: Layout,
    /// A pulse's scheduled pairs, normalized and sorted.
    exempt: Vec<(u32, u32)>,
    sweep: Sweep,
}

impl Machine {
    fn new(interact_r: f64, aods: Vec<AodState>, sites: &[SiteSpec], mode: CheckMode) -> Machine {
        Machine {
            layout: Layout::new(sites, aods.len() + 1),
            aods,
            interact_r,
            reach: interact_r * (1.0 + 4.0 * f64::EPSILON) + EPS,
            sites: sites.to_vec(),
            mode,
            exempt: Vec::new(),
            sweep: Sweep::default(),
        }
    }

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

    /// Applies one non-init instruction: structural (`Malformed`)
    /// validation, plus the geometric checks (C1/C2/C3) at a pulse.
    fn step(&mut self, pc: usize, instr: &Instr) -> Result<(), LegalityError> {
        match instr {
            Instr::InitSlm { .. } | Instr::InitAod { .. } => {
                return Err(malformed(pc, "init instruction after start of program"));
            }
            Instr::MoveRow { aod, row, to, .. } => {
                let aod_state = self
                    .aods
                    .get_mut(*aod as usize)
                    .ok_or_else(|| malformed(pc, "move on undeclared AOD"))?;
                let slot = aod_state
                    .rows
                    .get_mut(*row as usize)
                    .ok_or_else(|| malformed(pc, "move on nonexistent row"))?;
                if !to.is_finite() {
                    return Err(malformed(pc, "non-finite move target"));
                }
                *slot = *to;
                aod_state.parked = false;
            }
            Instr::MoveCol { aod, col, to, .. } => {
                let aod_state = self
                    .aods
                    .get_mut(*aod as usize)
                    .ok_or_else(|| malformed(pc, "move on undeclared AOD"))?;
                let slot = aod_state
                    .cols
                    .get_mut(*col as usize)
                    .ok_or_else(|| malformed(pc, "move on nonexistent column"))?;
                if !to.is_finite() {
                    return Err(malformed(pc, "non-finite move target"));
                }
                *slot = *to;
                aod_state.parked = false;
            }
            Instr::Unpark { aod } => {
                self.aods
                    .get_mut(*aod as usize)
                    .ok_or_else(|| malformed(pc, "unpark of undeclared AOD"))?
                    .parked = false;
            }
            Instr::RydbergPulse { pairs } => {
                check_line_constraints(self, pc)?;
                self.check_pulse(pc, pairs)?;
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
                for (k, aod) in self.aods.iter_mut().enumerate() {
                    aod.rows.clone_from(&aod.home_rows);
                    aod.cols.clone_from(&aod.home_cols);
                    aod.parked = !kept.contains(&(k as u8));
                }
            }
        }
        Ok(())
    }

    /// The end-of-stream checks: line constraints hold and no in-field
    /// pair remains within the blockade radius (a further pulse would
    /// re-fire on it).
    fn end_check(&mut self, end_pc: usize) -> Result<(), LegalityError> {
        check_line_constraints(self, end_pc)?;
        self.check_no_proximity(end_pc, &[])
    }

    /// C1 at a pulse: scheduled pairs touch, nothing else does.
    fn check_pulse(&mut self, pc: usize, pairs: &[(u32, u32)]) -> Result<(), LegalityError> {
        let n = self.sites.len() as u32;
        let mut exempt = std::mem::take(&mut self.exempt);
        exempt.clear();
        for &(a, b) in pairs {
            if a >= n || b >= n {
                return Err(malformed(
                    pc,
                    format!("pulse references unknown slot ({a}, {b})"),
                ));
            }
            for s in [a, b] {
                if !self.in_field(self.sites[s as usize]) {
                    return Err(malformed(
                        pc,
                        format!("pulse on slot {s} of a parked array"),
                    ));
                }
            }
            exempt.push((a.min(b), a.max(b)));
            let pa = self.position(self.sites[a as usize]);
            let pb = self.position(self.sites[b as usize]);
            let d = dist(pa, pb);
            if d > self.interact_r + EPS {
                return Err(LegalityError::PairTooFar {
                    pc,
                    pair: (a, b),
                    distance: d,
                });
            }
        }
        // Sorted so the proximity scans can binary-search instead of
        // linearly scanning the exempt list for every candidate pair.
        exempt.sort_unstable();
        let verdict = self.check_no_proximity(pc, &exempt);
        self.exempt = exempt;
        verdict
    }

    /// No in-field pair except the `exempt` (normalized, **sorted**)
    /// ones may sit within the blockade radius. `exempt` is a pulse's
    /// scheduled pair set, empty for the end-of-stream check.
    ///
    /// Both modes report the lexicographically smallest violating pair,
    /// with the distance the one shared predicate computed.
    fn check_no_proximity(
        &mut self,
        pc: usize,
        exempt: &[(u32, u32)],
    ) -> Result<(), LegalityError> {
        debug_assert!(exempt.windows(2).all(|w| w[0] <= w[1]), "exempt not sorted");
        let first = match self.mode {
            CheckMode::Lines => self.c1_over_lines(exempt),
            CheckMode::Exhaustive => self.c1_all_pairs(exempt),
        };
        match first {
            Some((pair, distance)) => {
                Err(LegalityError::UnwantedInteraction { pc, pair, distance })
            }
            None => Ok(()),
        }
    }

    /// [`CheckMode::Exhaustive`]: every in-field pair, ascending, up to
    /// the first violation.
    fn c1_all_pairs(&self, exempt: &[(u32, u32)]) -> Option<Violation> {
        let active: Vec<u32> = (0..self.sites.len() as u32)
            .filter(|&s| self.in_field(self.sites[s as usize]))
            .collect();
        for (xi, &x) in active.iter().enumerate() {
            let px = self.position(self.sites[x as usize]);
            for &y in &active[xi + 1..] {
                if exempt.binary_search(&(x, y)).is_ok() {
                    continue;
                }
                let d = dist(px, self.position(self.sites[y as usize]));
                if d <= self.interact_r {
                    return Some(((x, y), d));
                }
            }
        }
        None
    }

    /// [`CheckMode::Lines`]: sweep each axis for close line pairs, then
    /// test the atoms where they cross (see the module docs). Returns the
    /// first violation, and counts the close line pairs found and the
    /// atom pairs tested.
    fn c1_over_lines(&mut self, exempt: &[(u32, u32)]) -> Option<Violation> {
        let mut sweep = std::mem::take(&mut self.sweep);
        for rows in [true, false] {
            self.occupied_lines(rows, &mut sweep.lines);
            let pairs = if rows {
                &mut sweep.rows
            } else {
                &mut sweep.cols
            };
            close_pairs(&mut sweep.lines, self.reach, pairs);
        }
        let mut scan = PairScan {
            m: self,
            exempt,
            tested: 0,
            first: None,
        };
        // Distinct lines on both axes: the arrays of the row pair must be
        // the arrays of the column pair. Both lists are sorted by arrays.
        let mut from = 0;
        for group in sweep.rows.chunk_by(|a, b| a.arrays == b.arrays) {
            let key = group[0].arrays;
            from += sweep.cols[from..].partition_point(|c| c.arrays < key);
            let to = from + sweep.cols[from..].partition_point(|c| c.arrays == key);
            let (a, b) = key;
            for r in group {
                for c in &sweep.cols[from..to] {
                    scan.sites((a, r.lines.0, c.lines.0), (b, r.lines.1, c.lines.1));
                    if a == b {
                        scan.sites((a, r.lines.0, c.lines.1), (a, r.lines.1, c.lines.0));
                    }
                }
            }
        }
        let layout = &self.layout;
        // One row line, two close columns of its array.
        for c in sweep.cols.iter().filter(|c| c.arrays.0 == c.arrays.1) {
            let a = c.arrays.0;
            for &row in &layout.rows_used[a as usize] {
                scan.sites((a, row, c.lines.0), (a, row, c.lines.1));
            }
        }
        // Two close rows, one column line of their array.
        for r in sweep.rows.iter().filter(|r| r.arrays.0 == r.arrays.1) {
            let a = r.arrays.0;
            for &col in &layout.cols_used[a as usize] {
                scan.sites((a, r.lines.0, col), (a, r.lines.1, col));
            }
        }
        // Two slots loaded on one in-field trap site.
        for &site in &layout.shared_sites {
            let array = (layout.site_keys[site] >> 32) as usize;
            if array > 0 && self.aods[array - 1].parked {
                continue;
            }
            let slots = layout.slots_of(site);
            for (i, &x) in slots.iter().enumerate() {
                for &y in &slots[i + 1..] {
                    scan.pair(x, y);
                }
            }
        }
        C1_LINE_PAIRS.add((sweep.rows.len() + sweep.cols.len()) as u64);
        C1_TESTED.add(scan.tested);
        let first = scan.first;
        self.sweep = sweep;
        first
    }

    /// Fills `out` with the lines of one axis that host a slot, at their
    /// current positions; a parked AOD contributes none.
    fn occupied_lines(&self, rows: bool, out: &mut Vec<Line>) {
        let used = if rows {
            &self.layout.rows_used
        } else {
            &self.layout.cols_used
        };
        out.clear();
        out.extend(used[0].iter().map(|&index| Line {
            pos: index as f64,
            array: 0,
            index,
        }));
        for (k, aod) in self.aods.iter().enumerate() {
            if aod.parked {
                continue;
            }
            let pos = if rows { &aod.rows } else { &aod.cols };
            out.extend(used[k + 1].iter().map(|&index| Line {
                pos: pos[index as usize],
                array: k as u32 + 1,
                index,
            }));
        }
    }
}

/// Sorts `lines` by position and fills `pairs` with every two of them at
/// most `reach` apart, sorted by their arrays.
fn close_pairs(lines: &mut [Line], reach: f64, pairs: &mut Vec<LinePair>) {
    lines.sort_unstable_by(|a, b| a.pos.total_cmp(&b.pos));
    pairs.clear();
    for (i, a) in lines.iter().enumerate() {
        for b in &lines[i + 1..] {
            if b.pos - a.pos > reach {
                break;
            }
            let (lo, hi) = if a.array <= b.array { (a, b) } else { (b, a) };
            pairs.push(LinePair {
                arrays: (lo.array, hi.array),
                lines: (lo.index, hi.index),
            });
        }
    }
    pairs.sort_unstable_by_key(|p| p.arrays);
}

/// The distance tests of one [`CheckMode::Lines`] evaluation, keeping
/// the lexicographically smallest violating pair.
struct PairScan<'a> {
    m: &'a Machine,
    exempt: &'a [(u32, u32)],
    tested: u64,
    first: Option<Violation>,
}

impl PairScan<'_> {
    /// Tests every slot on site `p` against every slot on site `q`.
    fn sites(&mut self, p: (u32, u32, u32), q: (u32, u32, u32)) {
        let xs = self.m.layout.slots_at(p);
        if xs.is_empty() {
            return;
        }
        for &y in self.m.layout.slots_at(q) {
            for &x in xs {
                self.pair(x, y);
            }
        }
    }

    /// Distance-tests one pair, unless it is scheduled or cannot come
    /// before the smallest violation already found.
    fn pair(&mut self, x: u32, y: u32) {
        let pair = (x.min(y), x.max(y));
        if self.first.is_some_and(|(f, _)| f <= pair) || self.exempt.binary_search(&pair).is_ok() {
            return;
        }
        self.tested += 1;
        let m = self.m;
        let d = dist(
            m.position(m.sites[pair.0 as usize]),
            m.position(m.sites[pair.1 as usize]),
        );
        if d <= m.interact_r {
            self.first = Some((pair, d));
        }
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
fn init_machine(program: &IsaProgram, mode: CheckMode) -> Result<(Machine, usize), LegalityError> {
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

    Ok((Machine::new(interact_r, aods, &program.sites, mode), pc))
}

/// Verifies that `program`'s stream satisfies the hardware constraints,
/// using the default [`CheckMode::Lines`] candidate enumeration.
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
/// identical verdicts; [`CheckMode::Lines`] is asymptotically faster on
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
        m.step(pc, instr)?;
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
        let lines = check_legality_mode(p, CheckMode::Lines);
        let scan = check_legality_mode(p, CheckMode::Exhaustive);
        assert_eq!(lines, scan, "check modes disagree");
        lines
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
        let lines = check_legality_mode(&p, CheckMode::Lines);
        let scan = check_legality_mode(&p, CheckMode::Exhaustive);
        assert_eq!(lines, scan);
        match lines {
            Err(LegalityError::UnwantedInteraction { pair, .. }) => assert_eq!(pair, (5, 29)),
            other => panic!("expected UnwantedInteraction, got {other:?}"),
        }
    }

    fn slm(row: u16, col: u16) -> SiteSpec {
        SiteSpec { array: 0, row, col }
    }

    fn aod0(row: u16, col: u16) -> SiteSpec {
        SiteSpec { array: 1, row, col }
    }

    /// `sites` loaded on a 4×4 SLM under a blockade radius of `radius`
    /// tracks, with no instruction after the SLM declaration: the end of
    /// stream is its only C1 evaluation.
    fn static_program(sites: Vec<SiteSpec>, radius: f64) -> IsaProgram {
        let n = sites.len();
        IsaProgram {
            version: FORMAT_VERSION,
            header: ProgramHeader::new("test", "static").with_physics(1.0, radius),
            slot_of_qubit: (0..n as u32).collect(),
            sites,
            reference: Circuit::new(n),
            instrs: vec![Instr::InitSlm { rows: 4, cols: 4 }],
        }
    }

    /// The pair and distance of the `UnwantedInteraction` both modes
    /// report for `p`.
    fn unwanted(p: &IsaProgram) -> ((u32, u32), f64) {
        match check_both(p) {
            Err(LegalityError::UnwantedInteraction { pair, distance, .. }) => (pair, distance),
            other => panic!("expected UnwantedInteraction, got {other:?}"),
        }
    }

    /// Under a 1.5-track radius, SLM lines one track apart are close line
    /// pairs of one array, which C2/C3 never constrain, so each
    /// same-array case of the sweep is the only one that can see its pair.
    #[test]
    fn same_array_pairs_are_found_on_every_branch() {
        // One row line, two close columns.
        let p = static_program(vec![slm(0, 0), slm(2, 3), slm(0, 1)], 1.5);
        assert_eq!(unwanted(&p), ((0, 2), 1.0));
        // Two close rows, one column line.
        let p = static_program(vec![slm(3, 3), slm(1, 0), slm(0, 0)], 1.5);
        assert_eq!(unwanted(&p), ((1, 2), 1.0));
        // Two close rows and two close columns, on either diagonal.
        let p = static_program(vec![slm(0, 0), slm(1, 1)], 1.5);
        assert_eq!(unwanted(&p), ((0, 1), 2f64.sqrt()));
        let p = static_program(vec![slm(0, 1), slm(1, 0)], 1.5);
        assert_eq!(unwanted(&p), ((0, 1), 2f64.sqrt()));
        // Occupied lines two tracks apart are not close.
        check_both(&static_program(vec![slm(0, 0), slm(2, 0), slm(0, 2)], 1.5)).unwrap();
    }

    /// Two lines of one AOD exactly one blockade radius apart pass C3,
    /// so C1 alone decides the two atoms they carry on a shared line.
    #[test]
    fn aod_lines_at_the_c3_boundary_are_decided_by_c1() {
        let r = 2.5 / 15.0;
        for rows in [false, true] {
            let (sites, (rows_n, cols_n)) = if rows {
                (vec![aod0(0, 0), aod0(1, 0)], (2, 1))
            } else {
                (vec![aod0(0, 0), aod0(0, 1)], (1, 2))
            };
            let mut p = static_program(sites, r);
            let mv = |line: u16, to: f64| {
                if rows {
                    Instr::MoveRow {
                        aod: 0,
                        row: line,
                        from: 0.5 + line as f64,
                        to,
                        retract: false,
                    }
                } else {
                    Instr::MoveCol {
                        aod: 0,
                        col: line,
                        from: 0.5 + line as f64,
                        to,
                        retract: false,
                    }
                }
            };
            p.instrs.extend([
                Instr::InitAod {
                    aod: 0,
                    rows: rows_n,
                    cols: cols_n,
                    fx: 0.5,
                    fy: 0.5,
                },
                mv(0, 0.0),
                mv(1, r),
            ]);
            assert_eq!(unwanted(&p), ((0, 1), r), "rows: {rows}");
        }
    }

    /// Two slots loaded on one trap site sit at distance 0: a violation
    /// while their array is in the field, none while it is parked.
    #[test]
    fn slots_sharing_a_site_interact_unless_parked() {
        let r = 2.5 / 15.0;
        let p = static_program(vec![slm(1, 1), slm(2, 2), slm(1, 1)], r);
        assert_eq!(unwanted(&p), ((0, 2), 0.0));

        let mut p = static_program(vec![slm(1, 1), aod0(0, 0), aod0(0, 0)], r);
        p.instrs.extend([
            Instr::InitAod {
                aod: 0,
                rows: 1,
                cols: 1,
                fx: 0.5,
                fy: 0.5,
            },
            Instr::Park { kept: vec![] },
        ]);
        check_both(&p).unwrap();
        p.instrs.push(Instr::Unpark { aod: 0 });
        assert_eq!(unwanted(&p), ((1, 2), 0.0));
    }

    /// The C1 counters add once per evaluation: the pulse of the stream
    /// without retraction finds the pulsed row and column pair and tests
    /// nothing (the pair is scheduled); the end check finds both again
    /// and tests the now unscheduled pair.
    #[test]
    fn c1_counters_count_line_pairs_and_tested_atom_pairs() {
        let mut p = legal_program();
        p.instrs.truncate(5);
        raa_trace::begin(raa_trace::Level::Detail);
        let verdict = check_legality(&p);
        let report = raa_trace::end();
        assert!(matches!(
            verdict,
            Err(LegalityError::UnwantedInteraction { pair: (0, 1), .. })
        ));
        assert_eq!(report.counter("isa.c1.line_pairs"), 4);
        assert_eq!(report.counter("isa.c1.tested"), 1);
    }
}
