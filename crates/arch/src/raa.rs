//! Reconfigurable-atom-array hardware description: one SLM array of fixed
//! traps plus one or more movable AOD arrays (paper Sec. II).
//!
//! Geometry conventions (specified in `docs/ISA.md` §1):
//!
//! * SLM trap `(r, c)` sits at `(c·d, r·d)` where `d` is the trap spacing
//!   (default 15 µm, i.e. 6 Rydberg radii — the paper's setting).
//! * AOD array *k*'s home position for trap `(r, c)` is
//!   `((c + fx_k)·d, (r + fy_k)·d)` where `(fx_k, fy_k)` is a per-array
//!   fractional offset chosen by farthest-point sampling on the unit cell so
//!   that resting atoms of different arrays stay out of the Rydberg radius
//!   of each other and of the SLM atoms.
//! * An atom pair interacts (CZ) when within the Rydberg radius `r_b`
//!   (default 2.5 µm); pairs in the band `(r_b, 2.5·r_b)` partially
//!   interact and are forbidden by the router's constraint C1.

use std::fmt;

use crate::error::ArchError;

/// Rows × columns of one trap array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArrayDims {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
}

impl ArrayDims {
    /// Creates dimensions.
    pub fn new(rows: usize, cols: usize) -> Self {
        ArrayDims { rows, cols }
    }

    /// Number of traps in the array.
    pub fn capacity(&self) -> usize {
        self.rows * self.cols
    }
}

impl fmt::Display for ArrayDims {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.rows, self.cols)
    }
}

/// Identifies one of the trap arrays: index 0 is the SLM, `1..=num_aods`
/// are the AOD arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ArrayIndex(pub u8);

impl ArrayIndex {
    /// The SLM array.
    pub const SLM: ArrayIndex = ArrayIndex(0);

    /// Constructs the index of the `k`-th AOD array (0-based).
    pub fn aod(k: usize) -> Self {
        ArrayIndex(k as u8 + 1)
    }

    /// Whether this is the (fixed) SLM array.
    pub fn is_slm(self) -> bool {
        self.0 == 0
    }

    /// For AOD arrays, the 0-based AOD number.
    ///
    /// # Panics
    ///
    /// Panics when called on the SLM.
    pub fn aod_number(self) -> usize {
        assert!(!self.is_slm(), "the SLM array has no AOD number");
        self.0 as usize - 1
    }
}

impl fmt::Display for ArrayIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_slm() {
            write!(f, "SLM")
        } else {
            write!(f, "AOD{}", self.0 - 1)
        }
    }
}

/// A trap site: array plus row/column within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TrapSite {
    /// Which array the trap belongs to.
    pub array: ArrayIndex,
    /// Row within the array.
    pub row: u16,
    /// Column within the array.
    pub col: u16,
}

impl TrapSite {
    /// Creates a trap site.
    pub fn new(array: ArrayIndex, row: u16, col: u16) -> Self {
        TrapSite { array, row, col }
    }
}

impl fmt::Display for TrapSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{},{}]", self.array, self.row, self.col)
    }
}

/// Full hardware description of one RAA machine.
///
/// # Examples
///
/// ```
/// use raa_arch::RaaConfig;
/// let hw = RaaConfig::default(); // 10×10 SLM + two 10×10 AODs (paper default)
/// assert_eq!(hw.num_arrays(), 3);
/// assert_eq!(hw.total_capacity(), 300);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RaaConfig {
    /// Dimensions of the fixed SLM array.
    pub slm: ArrayDims,
    /// Dimensions of each movable AOD array (at least one).
    pub aods: Vec<ArrayDims>,
    /// Trap spacing `d` in µm (paper: 15 µm).
    pub spacing_um: f64,
    /// Rydberg (blockade) radius `r_b` in µm (paper: 2.5 µm = d/6).
    pub rydberg_radius_um: f64,
    /// Per-AOD fractional home offsets within a unit cell.
    home_offsets: Vec<(f64, f64)>,
}

impl Default for RaaConfig {
    /// The paper's default configuration: 10×10 topology with 1 SLM array
    /// and 2 AOD arrays, 15 µm spacing, 2.5 µm Rydberg radius.
    fn default() -> Self {
        RaaConfig::new(
            ArrayDims::new(10, 10),
            vec![ArrayDims::new(10, 10), ArrayDims::new(10, 10)],
        )
        .expect("default configuration is valid")
    }
}

impl RaaConfig {
    /// Creates a configuration with the paper's physical constants
    /// (15 µm spacing, 2.5 µm Rydberg radius).
    ///
    /// # Errors
    ///
    /// Returns [`ArchError`] if any array is empty or no AOD is provided.
    pub fn new(slm: ArrayDims, aods: Vec<ArrayDims>) -> Result<Self, ArchError> {
        Self::with_physics(slm, aods, 15.0, 2.5)
    }

    /// Creates a configuration with explicit spacing and Rydberg radius.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::EmptyArray`] for zero-sized arrays,
    /// [`ArchError::NoAods`] when `aods` is empty, and
    /// [`ArchError::SpacingTooSmall`] when the spacing is not at least six
    /// Rydberg radii (the paper's minimum separation requirement).
    pub fn with_physics(
        slm: ArrayDims,
        aods: Vec<ArrayDims>,
        spacing_um: f64,
        rydberg_radius_um: f64,
    ) -> Result<Self, ArchError> {
        if slm.capacity() == 0 {
            return Err(ArchError::EmptyArray {
                which: "SLM".into(),
            });
        }
        if aods.is_empty() {
            return Err(ArchError::NoAods);
        }
        for (k, a) in aods.iter().enumerate() {
            if a.capacity() == 0 {
                return Err(ArchError::EmptyArray {
                    which: format!("AOD{k}"),
                });
            }
        }
        if spacing_um < 6.0 * rydberg_radius_um {
            return Err(ArchError::SpacingTooSmall {
                spacing_um,
                min_um: 6.0 * rydberg_radius_um,
            });
        }
        let home_offsets = fractional_offsets(aods.len());
        Ok(RaaConfig {
            slm,
            aods,
            spacing_um,
            rydberg_radius_um,
            home_offsets,
        })
    }

    /// Builds the paper's default machine scaled to `side`×`side` arrays
    /// with `num_aods` AODs.
    ///
    /// # Errors
    ///
    /// Same as [`RaaConfig::new`].
    pub fn square(side: usize, num_aods: usize) -> Result<Self, ArchError> {
        RaaConfig::new(
            ArrayDims::new(side, side),
            vec![ArrayDims::new(side, side); num_aods],
        )
    }

    /// Total number of arrays (SLM + AODs).
    pub fn num_arrays(&self) -> usize {
        1 + self.aods.len()
    }

    /// Number of AOD arrays.
    pub fn num_aods(&self) -> usize {
        self.aods.len()
    }

    /// Dimensions of the given array.
    ///
    /// # Panics
    ///
    /// Panics for an out-of-range index.
    pub fn dims(&self, array: ArrayIndex) -> ArrayDims {
        if array.is_slm() {
            self.slm
        } else {
            self.aods[array.aod_number()]
        }
    }

    /// Sum of all array capacities (number of physical traps).
    pub fn total_capacity(&self) -> usize {
        self.slm.capacity() + self.aods.iter().map(|a| a.capacity()).sum::<usize>()
    }

    /// All array indices, SLM first.
    pub fn arrays(&self) -> impl Iterator<Item = ArrayIndex> + '_ {
        (0..self.num_arrays()).map(|i| ArrayIndex(i as u8))
    }

    /// The home x-coordinate (µm) of column `col` of `array`.
    pub fn home_x(&self, array: ArrayIndex, col: u16) -> f64 {
        if array.is_slm() {
            col as f64 * self.spacing_um
        } else {
            let (fx, _) = self.home_offsets[array.aod_number()];
            (col as f64 + fx) * self.spacing_um
        }
    }

    /// The home y-coordinate (µm) of row `row` of `array`.
    pub fn home_y(&self, array: ArrayIndex, row: u16) -> f64 {
        if array.is_slm() {
            row as f64 * self.spacing_um
        } else {
            let (_, fy) = self.home_offsets[array.aod_number()];
            (row as f64 + fy) * self.spacing_um
        }
    }

    /// The home position `(x, y)` in µm of a trap site.
    pub fn home_position(&self, site: TrapSite) -> (f64, f64) {
        (
            self.home_x(site.array, site.col),
            self.home_y(site.array, site.row),
        )
    }

    /// Distance below which two atoms interact (perform a CZ).
    pub fn interaction_radius_um(&self) -> f64 {
        self.rydberg_radius_um
    }

    /// Minimum allowed separation between non-interacting atoms
    /// (2.5 Rydberg radii, paper Sec. II).
    pub fn safe_radius_um(&self) -> f64 {
        2.5 * self.rydberg_radius_um
    }

    /// The offset, in µm, that an interacting AOD atom parks at relative to
    /// its partner: `0.6·r_b` in each coordinate, i.e. distance
    /// `≈ 0.85·r_b < r_b` while spectators stay clear.
    pub fn interaction_offset_um(&self) -> f64 {
        0.6 * self.rydberg_radius_um
    }

    /// Validates a trap site against this configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::SiteOutOfRange`] if the site does not exist.
    pub fn check_site(&self, site: TrapSite) -> Result<(), ArchError> {
        if site.array.0 as usize >= self.num_arrays() {
            return Err(ArchError::SiteOutOfRange {
                site: site.to_string(),
            });
        }
        let dims = self.dims(site.array);
        if (site.row as usize) < dims.rows && (site.col as usize) < dims.cols {
            Ok(())
        } else {
            Err(ArchError::SiteOutOfRange {
                site: site.to_string(),
            })
        }
    }
}

/// Staggered fractional home offsets for up to seven AOD arrays.
///
/// Properties required by the movement router's constraint model (see
/// `docs/ISA.md` §1):
///
/// * every coordinate lies in `[0.1875, 0.8125]`, so atoms in a row/column
///   that slides onto an SLM line keep a clear Rydberg margin from the SLM
///   lattice in the other coordinate;
/// * any two arrays differ by ≥ 0.104 in *both* coordinates, with pairwise
///   Euclidean separation ≥ 0.23 cells (> one Rydberg radius at the paper's
///   15 µm spacing), so resting atoms of different arrays never blockade
///   each other.
///
/// The construction places the x-fractions on a 7-point grid and permutes
/// the y-fractions so that arrays adjacent in x are far apart in y.
const AOD_HOME_OFFSETS: [(f64, f64); 7] = [
    (0.395_833, 0.604_167),
    (0.604_167, 0.291_667),
    (0.291_667, 0.395_833),
    (0.708_333, 0.500_000),
    (0.187_500, 0.187_500),
    (0.500_000, 0.812_500),
    (0.812_500, 0.708_333),
];

/// Home offsets for `k` AOD arrays (prefixes of the staggered table keep
/// all pairwise guarantees).
///
/// # Panics
///
/// Panics if `k` exceeds the supported seven arrays — the paper's Fig. 20c
/// sensitivity sweep tops out at seven.
fn fractional_offsets(k: usize) -> Vec<(f64, f64)> {
    assert!(
        k <= AOD_HOME_OFFSETS.len(),
        "at most 7 AOD arrays are supported, got {k}"
    );
    AOD_HOME_OFFSETS[..k].to_vec()
}

#[cfg(test)]
fn torus_dist(a: (f64, f64), b: (f64, f64)) -> f64 {
    let dx = (a.0 - b.0).abs().min(1.0 - (a.0 - b.0).abs());
    let dy = (a.1 - b.1).abs().min(1.0 - (a.1 - b.1).abs());
    (dx * dx + dy * dy).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper_configuration() {
        let hw = RaaConfig::default();
        assert_eq!(hw.slm, ArrayDims::new(10, 10));
        assert_eq!(hw.num_aods(), 2);
        assert_eq!(hw.total_capacity(), 300);
        assert!((hw.spacing_um - 15.0).abs() < 1e-12);
        assert!((hw.rydberg_radius_um - 2.5).abs() < 1e-12);
        assert!((hw.safe_radius_um() - 6.25).abs() < 1e-12);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(matches!(
            RaaConfig::new(ArrayDims::new(0, 5), vec![ArrayDims::new(2, 2)]),
            Err(ArchError::EmptyArray { .. })
        ));
        assert!(matches!(
            RaaConfig::new(ArrayDims::new(2, 2), vec![]),
            Err(ArchError::NoAods)
        ));
        assert!(matches!(
            RaaConfig::with_physics(ArrayDims::new(2, 2), vec![ArrayDims::new(2, 2)], 10.0, 2.5),
            Err(ArchError::SpacingTooSmall { .. })
        ));
    }

    #[test]
    fn slm_positions_are_integer_lattice() {
        let hw = RaaConfig::default();
        let (x, y) = hw.home_position(TrapSite::new(ArrayIndex::SLM, 2, 3));
        assert!((x - 45.0).abs() < 1e-9);
        assert!((y - 30.0).abs() < 1e-9);
    }

    #[test]
    fn aod_homes_clear_of_slm_and_each_other() {
        for num_aods in 1..=7 {
            let hw = RaaConfig::square(10, num_aods).unwrap();
            let rb = hw.rydberg_radius_um;
            // Every AOD home offset is more than one Rydberg radius (torus
            // metric) from the SLM lattice and from every other AOD home.
            for k1 in 0..num_aods {
                let p1 = (
                    hw.home_x(ArrayIndex::aod(k1), 0) / hw.spacing_um,
                    hw.home_y(ArrayIndex::aod(k1), 0) / hw.spacing_um,
                );
                let d_slm = torus_dist(p1, (0.0, 0.0)) * hw.spacing_um;
                assert!(d_slm > rb, "AOD{k1} home within r_b of SLM ({d_slm:.2} µm)");
                for k2 in k1 + 1..num_aods {
                    let p2 = (
                        hw.home_x(ArrayIndex::aod(k2), 0) / hw.spacing_um,
                        hw.home_y(ArrayIndex::aod(k2), 0) / hw.spacing_um,
                    );
                    let d = torus_dist(p1, p2) * hw.spacing_um;
                    assert!(d > rb, "AOD{k1}/AOD{k2} homes {d:.2} µm apart");
                }
            }
        }
    }

    #[test]
    fn two_aod_homes_clear_of_rydberg_radius() {
        // Resting atoms of different arrays must never blockade each other
        // (> r_b apart). The 2.5 r_b band for resting pairs is handled by
        // the router's tiered constraint model, not by home geometry.
        let hw = RaaConfig::default();
        let p0 = (
            hw.home_x(ArrayIndex::aod(0), 0),
            hw.home_y(ArrayIndex::aod(0), 0),
        );
        let p1 = (
            hw.home_x(ArrayIndex::aod(1), 0),
            hw.home_y(ArrayIndex::aod(1), 0),
        );
        let d = ((p0.0 - p1.0).powi(2) + (p0.1 - p1.1).powi(2)).sqrt();
        assert!(d > hw.rydberg_radius_um, "AOD homes {d:.2} µm apart");
    }

    #[test]
    fn home_offsets_keep_slm_margin_in_each_coordinate() {
        // Each fractional coordinate must be ≥ 0.16 cells from the SLM
        // lattice lines so that a row/column sliding onto an SLM line keeps
        // its spectator atoms out of the Rydberg radius.
        for k in 0..7 {
            let (fx, fy) = super::AOD_HOME_OFFSETS[k];
            for f in [fx, fy] {
                assert!(
                    (0.16..=0.84).contains(&f),
                    "offset {f} too close to lattice"
                );
            }
        }
    }

    #[test]
    fn home_offsets_pairwise_separated_in_both_coordinates() {
        for a in 0..7 {
            for b in a + 1..7 {
                let (ax, ay) = super::AOD_HOME_OFFSETS[a];
                let (bx, by) = super::AOD_HOME_OFFSETS[b];
                assert!((ax - bx).abs() >= 0.10, "arrays {a},{b} x-close");
                assert!((ay - by).abs() >= 0.10, "arrays {a},{b} y-close");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at most 7")]
    fn eight_aods_rejected() {
        RaaConfig::square(4, 8).unwrap();
    }

    #[test]
    fn site_validation() {
        let hw = RaaConfig::default();
        assert!(hw.check_site(TrapSite::new(ArrayIndex::SLM, 9, 9)).is_ok());
        assert!(hw
            .check_site(TrapSite::new(ArrayIndex::SLM, 10, 0))
            .is_err());
        assert!(hw
            .check_site(TrapSite::new(ArrayIndex::aod(1), 0, 0))
            .is_ok());
        assert!(hw.check_site(TrapSite::new(ArrayIndex(5), 0, 0)).is_err());
    }

    #[test]
    fn array_index_helpers() {
        assert!(ArrayIndex::SLM.is_slm());
        assert!(!ArrayIndex::aod(0).is_slm());
        assert_eq!(ArrayIndex::aod(1).aod_number(), 1);
        assert_eq!(ArrayIndex::SLM.to_string(), "SLM");
        assert_eq!(ArrayIndex::aod(0).to_string(), "AOD0");
        assert_eq!(
            TrapSite::new(ArrayIndex::aod(0), 1, 2).to_string(),
            "AOD0[1,2]"
        );
    }

    #[test]
    #[should_panic(expected = "no AOD number")]
    fn slm_aod_number_panics() {
        ArrayIndex::SLM.aod_number();
    }

    #[test]
    fn interaction_offset_within_rydberg() {
        let hw = RaaConfig::default();
        let off = hw.interaction_offset_um();
        let dist = (2.0_f64).sqrt() * off;
        assert!(dist < hw.interaction_radius_um());
    }

    #[test]
    fn varied_aod_sizes_supported() {
        // Fig. 23: SLM 10×10 with 8×8 and 6×6 AODs.
        let hw = RaaConfig::new(
            ArrayDims::new(10, 10),
            vec![ArrayDims::new(8, 8), ArrayDims::new(6, 6)],
        )
        .unwrap();
        assert_eq!(hw.total_capacity(), 100 + 64 + 36);
        assert_eq!(hw.dims(ArrayIndex::aod(1)), ArrayDims::new(6, 6));
    }
}
