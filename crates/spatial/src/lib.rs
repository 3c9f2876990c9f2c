//! `raa-spatial` — a uniform spatial-hash index over atom positions,
//! used by the Atomique movement router and the `raa-isa` optimizer's
//! pulse-merge geometry (`opt::cost`). The ISA legality checker keeps no
//! index: it decides C1 from close line pairs.
//!
//! The router's constraint checks (C1 addressing, retraction
//! clearance) and the pulse-merge test are all of the form "which atoms
//! lie within radius *r* of this point?". The exhaustive answer scans
//! every atom — O(atoms) per query, O(atoms²) per stage — which caps
//! compilation well below the 1000+-atom machines of the Atomique
//! paper's Fig. 20 extrapolations. [`SpatialGrid`] buckets atoms into
//! square cells of a fixed size (each consumer picks the largest radius
//! it ever queries: the router uses the 2.5 `r_b` addressing band,
//! `opt::cost` the blockade radius itself) so a query only visits the
//! handful of cells overlapping the query disk.
//!
//! Two query flavors:
//!
//! * [`SpatialGrid::candidates_into`] returns a cheap *superset* of the
//!   in-radius set (every atom in an overlapping cell). The router
//!   uses this and applies its own distance predicates, so its
//!   accept/reject logic stays literally identical to the exhaustive
//!   scan it replaces — restricted to candidates that can possibly
//!   matter.
//! * [`SpatialGrid::neighbors_within`] applies the Euclidean filter and
//!   returns *exactly* the atoms at distance ≤ `r`, sorted by id.
//!
//! Exactness is property-tested against brute force under random
//! insert/move/remove interleavings in
//! `crates/core/tests/spatial_properties.rs`; the router's grid mode is
//! proven schedule- and ISA-byte-identical to the exhaustive oracle by
//! `tests/router_differential.rs`.
//!
//! When a `raa-trace` session at [`raa_trace::Level::Detail`] is
//! active, the grid reports two counters: `grid.query` (one per
//! [`SpatialGrid::candidates_into`] call — every proximity question
//! asked of the index) and `grid.rebucket` (one per
//! [`SpatialGrid::update`] that crosses a cell boundary). The router's
//! grid holds only the accepted stage plan: a gate-admission attempt
//! decides on virtual positions and writes the grid only when the gate
//! is accepted, so none of the router's re-buckets come from rejected
//! attempts. See `docs/OBSERVABILITY.md` for the full counter glossary.

#![deny(missing_docs)]

use raa_trace::Counter;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// One per [`SpatialGrid::candidates_into`] call.
static GRID_QUERY: Counter = Counter::new("grid.query");
/// One per [`SpatialGrid::update`] that crosses a cell boundary.
static GRID_REBUCKET: Counter = Counter::new("grid.rebucket");

/// An FxHash-style multiply-xor hasher for the small integer keys
/// (cell coordinates, atom ids, line keys) that dominate the router's
/// hot paths. The std `HashMap` default (SipHash with a
/// per-process random seed) is DoS-resistant but ~10× slower on 8-byte
/// keys, and its per-process seed makes iteration order vary between
/// runs; this hasher is fast and deterministic. Not collision-resistant
/// against adversarial keys — use only for trusted, machine-generated
/// ids.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

/// The multiplier from FxHash (Firefox's hasher): a large odd constant
/// with well-mixed bits.
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn write_i64(&mut self, v: i64) {
        self.add(v as u64);
    }
}

/// [`std::collections::HashMap`] keyed through [`FxHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// [`std::collections::HashSet`] keyed through [`FxHasher`].
pub type FastSet<T> = std::collections::HashSet<T, BuildHasherDefault<FxHasher>>;

/// A uniform grid ("spatial hash") over 2-D points keyed by `u32` ids.
///
/// Coordinates are in the router's track units and may be negative
/// (parked or retracted lines walk below zero). Cells are half-open
/// squares of side [`SpatialGrid::cell_size`].
///
/// # Examples
///
/// ```
/// use raa_spatial::SpatialGrid;
///
/// let mut g = SpatialGrid::new(0.5);
/// g.insert(0, (0.0, 0.0));
/// g.insert(1, (0.3, 0.4)); // distance 0.5
/// g.insert(2, (5.0, 5.0));
/// assert_eq!(g.neighbors_within((0.0, 0.0), 0.5), vec![0, 1]);
/// g.update(1, (6.0, 6.0));
/// assert_eq!(g.neighbors_within((0.0, 0.0), 0.5), vec![0]);
/// g.remove(0);
/// assert!(g.neighbors_within((0.0, 0.0), 0.5).is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct SpatialGrid {
    cell: f64,
    /// Cell → ids of the points inside it.
    cells: FastMap<(i64, i64), Vec<u32>>,
    /// Position of each id (dense; `None` for absent ids).
    pos_of: Vec<Option<(f64, f64)>>,
}

impl SpatialGrid {
    /// Creates an empty grid with the given cell side length.
    ///
    /// # Panics
    ///
    /// Panics unless `cell_size` is positive and finite.
    pub fn new(cell_size: f64) -> Self {
        assert!(
            cell_size.is_finite() && cell_size > 0.0,
            "cell size must be positive and finite, got {cell_size}"
        );
        SpatialGrid {
            cell: cell_size,
            cells: FastMap::default(),
            pos_of: Vec::new(),
        }
    }

    /// The cell side length this grid was built with.
    pub fn cell_size(&self) -> f64 {
        self.cell
    }

    /// Number of points currently stored.
    pub fn len(&self) -> usize {
        self.pos_of.iter().filter(|p| p.is_some()).count()
    }

    /// Whether the grid holds no points.
    pub fn is_empty(&self) -> bool {
        self.pos_of.iter().all(|p| p.is_none())
    }

    /// The stored position of `id`, if present.
    pub fn position(&self, id: u32) -> Option<(f64, f64)> {
        self.pos_of.get(id as usize).copied().flatten()
    }

    /// The cell containing `p`.
    pub fn cell_of(&self, p: (f64, f64)) -> (i64, i64) {
        (
            (p.0 / self.cell).floor() as i64,
            (p.1 / self.cell).floor() as i64,
        )
    }

    /// The corners `(lo, hi)` of the inclusive block of cells that
    /// [`SpatialGrid::candidates_into`] visits for the disk of radius
    /// `r` around `p`. A caller that buckets extra points with
    /// [`SpatialGrid::cell_of`] enumerates them exactly as the grid
    /// would.
    pub fn cell_span(&self, p: (f64, f64), r: f64) -> ((i64, i64), (i64, i64)) {
        (
            self.cell_of((p.0 - r, p.1 - r)),
            self.cell_of((p.0 + r, p.1 + r)),
        )
    }

    /// Inserts `id` at `p`, replacing any previous position.
    pub fn insert(&mut self, id: u32, p: (f64, f64)) {
        if self.pos_of.len() <= id as usize {
            self.pos_of.resize(id as usize + 1, None);
        }
        if let Some(old) = self.pos_of[id as usize] {
            self.detach(id, old);
        }
        self.pos_of[id as usize] = Some(p);
        self.cells.entry(self.cell_of(p)).or_default().push(id);
    }

    /// Moves `id` to `p` (inserting it if absent). Staying within the
    /// same cell is O(1); crossing a cell boundary re-buckets the id.
    pub fn update(&mut self, id: u32, p: (f64, f64)) {
        match self.pos_of.get(id as usize).copied().flatten() {
            Some(old) if self.cell_of(old) == self.cell_of(p) => {
                self.pos_of[id as usize] = Some(p);
            }
            Some(_) => {
                GRID_REBUCKET.incr();
                self.insert(id, p);
            }
            None => self.insert(id, p),
        }
    }

    /// Removes `id`; a no-op when absent.
    pub fn remove(&mut self, id: u32) {
        if let Some(Some(p)) = self.pos_of.get(id as usize).copied() {
            self.detach(id, p);
            self.pos_of[id as usize] = None;
        }
    }

    fn detach(&mut self, id: u32, p: (f64, f64)) {
        let key = self.cell_of(p);
        let bucket = self.cells.get_mut(&key).expect("stored id has a bucket");
        let i = bucket
            .iter()
            .position(|&x| x == id)
            .expect("stored id is in its bucket");
        bucket.swap_remove(i);
        if bucket.is_empty() {
            self.cells.remove(&key);
        }
    }

    /// Appends to `out` every id stored in a cell overlapping the disk of
    /// radius `r` around `p` — a superset of the ids within distance `r`.
    /// `out` is not cleared, not deduplicated (ids are stored in exactly
    /// one cell, so duplicates cannot occur) and not sorted.
    pub fn candidates_into(&self, p: (f64, f64), r: f64, out: &mut Vec<u32>) {
        GRID_QUERY.incr();
        let ((x0, y0), (x1, y1)) = self.cell_span(p, r);
        for cx in x0..=x1 {
            for cy in y0..=y1 {
                if let Some(bucket) = self.cells.get(&(cx, cy)) {
                    out.extend_from_slice(bucket);
                }
            }
        }
    }

    /// The ids at Euclidean distance ≤ `r` from `p`, sorted ascending.
    pub fn neighbors_within(&self, p: (f64, f64), r: f64) -> Vec<u32> {
        let mut out = Vec::new();
        self.candidates_into(p, r, &mut out);
        out.retain(|&id| {
            let q = self.pos_of[id as usize].expect("bucketed id has a position");
            let (dx, dy) = (q.0 - p.0, q.1 - p.1);
            dx * dx + dy * dy <= r * r
        });
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_query_roundtrip() {
        let mut g = SpatialGrid::new(0.5);
        g.insert(3, (1.0, 1.0));
        g.insert(7, (1.2, 1.0));
        g.insert(9, (-3.0, 4.0));
        assert_eq!(g.len(), 3);
        assert_eq!(g.position(7), Some((1.2, 1.0)));
        assert_eq!(g.position(4), None);
        assert_eq!(g.neighbors_within((1.0, 1.0), 0.25), vec![3, 7]);
        assert_eq!(g.neighbors_within((1.0, 1.0), 0.1), vec![3]);
        assert_eq!(g.neighbors_within((-3.0, 4.0), 0.0), vec![9]);
    }

    #[test]
    fn update_moves_between_cells() {
        let mut g = SpatialGrid::new(0.5);
        g.insert(0, (0.0, 0.0));
        g.update(0, (10.0, -10.0));
        assert!(g.neighbors_within((0.0, 0.0), 1.0).is_empty());
        assert_eq!(g.neighbors_within((10.0, -10.0), 0.01), vec![0]);
        // In-cell nudge keeps the bucket but refreshes the position.
        g.update(0, (10.1, -10.1));
        assert_eq!(g.position(0), Some((10.1, -10.1)));
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn remove_is_idempotent() {
        let mut g = SpatialGrid::new(1.0);
        g.insert(5, (2.0, 2.0));
        g.remove(5);
        g.remove(5);
        g.remove(99);
        assert!(g.is_empty());
        assert_eq!(g.position(5), None);
    }

    #[test]
    fn candidates_are_a_superset() {
        let mut g = SpatialGrid::new(0.4);
        let pts = [(0.0, 0.0), (0.39, 0.39), (0.41, 0.0), (-0.2, 0.3)];
        for (i, &p) in pts.iter().enumerate() {
            g.insert(i as u32, p);
        }
        let mut cand = Vec::new();
        g.candidates_into((0.0, 0.0), 0.4, &mut cand);
        for id in g.neighbors_within((0.0, 0.0), 0.4) {
            assert!(cand.contains(&id));
        }
    }

    #[test]
    fn boundary_distance_is_inclusive() {
        let mut g = SpatialGrid::new(0.5);
        g.insert(0, (3.0, 4.0)); // distance exactly 5 from origin
        assert_eq!(g.neighbors_within((0.0, 0.0), 5.0), vec![0]);
        assert!(g.neighbors_within((0.0, 0.0), 4.999).is_empty());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_cell_size_rejected() {
        SpatialGrid::new(0.0);
    }

    #[test]
    fn counters_record_under_detail_sessions() {
        // Sessions are thread-local; use a fresh thread so this test is
        // independent of whatever runs on the harness thread.
        std::thread::spawn(|| {
            raa_trace::begin(raa_trace::Level::Detail);
            let mut g = SpatialGrid::new(0.5);
            g.insert(0, (0.0, 0.0));
            g.update(0, (0.1, 0.1)); // in-cell: no rebucket
            g.update(0, (5.0, 5.0)); // crossing: one rebucket
            g.update(1, (1.0, 1.0)); // fresh insert: no rebucket
            let mut out = Vec::new();
            g.candidates_into((0.0, 0.0), 1.0, &mut out);
            g.neighbors_within((5.0, 5.0), 0.1); // queries through candidates_into
            let report = raa_trace::end();
            assert_eq!(report.counter("grid.rebucket"), 1);
            assert_eq!(report.counter("grid.query"), 2);
        })
        .join()
        .unwrap();
    }
}
