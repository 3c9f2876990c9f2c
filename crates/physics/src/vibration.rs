//! Vibrational heating, atom loss and the movement ledger (paper Sec. IV).
//!
//! Movement heats atoms: each move adds
//! `Δn_vib = ½·(6D/(x_zpf·ω₀²·T_mov²))²` to the moved atom's vibrational
//! quantum number. Heating degrades two-qubit fidelity
//! (`1 − λ(1−f_2Q)·n_vib` per gate), raises the loss probability (erf
//! model), and is reset by a cooling procedure costing two CZ gates per
//! atom of the cooled AOD array.
//!
//! [`MovementLedger`] accumulates all four overhead factors
//! (`F_mov = F_heating · F_loss · F_cooling · F_decoherence`) while a
//! router executes, so the compiler never re-derives physics.

use std::collections::HashMap;

use crate::math::erf;
use crate::params::HardwareParams;

/// The heating increment of a single move of distance `distance_m` over
/// `duration_s` (paper Sec. IV):
/// `Δn_vib = ½·(6D/(x_zpf·ω₀²·T²))²`.
///
/// With the Table I constants, one 15 µm hop in 300 µs gives 0.0054.
pub fn delta_n_vib(params: &HardwareParams, distance_m: f64, duration_s: f64) -> f64 {
    if distance_m <= 0.0 {
        return 0.0;
    }
    let denom = params.x_zpf_m * params.omega0_rad_s.powi(2) * duration_s.powi(2);
    0.5 * (6.0 * distance_m / denom).powi(2)
}

/// Probability that an atom with vibrational number `n_vib` is lost during
/// a move: `P = 1 − ½(1 + erf[(n_max − n_vib)/√(2·n_vib)])`.
///
/// At `n_vib = 0` the probability is 0 by continuity.
pub fn loss_probability(params: &HardwareParams, n_vib: f64) -> f64 {
    if n_vib <= 0.0 {
        return 0.0;
    }
    let arg = (params.n_vib_max - n_vib) / (2.0 * n_vib).sqrt();
    1.0 - 0.5 * (1.0 + erf(arg))
}

/// Per-atom movement bookkeeping plus the four `F_mov` factors.
///
/// Atoms are identified by caller-chosen `u32` ids (the Atomique router
/// uses a dense id per trapped atom). All four factors are tracked in log
/// space so very deep circuits don't underflow intermediate products.
///
/// # Examples
///
/// ```
/// use raa_physics::{HardwareParams, MovementLedger};
/// let p = HardwareParams::neutral_atom();
/// let mut ledger = MovementLedger::new(&p);
/// ledger.record_move(&[(0, 15e-6)], 300e-6, 10); // atom 0 hops one site
/// assert!((ledger.n_vib(0) - 0.0054).abs() < 1e-3);
/// ledger.record_two_qubit_gate(&[0]);
/// assert!(ledger.f_mov() < 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct MovementLedger<'p> {
    params: &'p HardwareParams,
    n_vib: HashMap<u32, f64>,
    ln_heating: f64,
    ln_loss: f64,
    ln_cooling: f64,
    ln_decoherence: f64,
    num_stages: usize,
    cooling_events: usize,
}

impl<'p> MovementLedger<'p> {
    /// Creates an empty ledger over the given parameters.
    pub fn new(params: &'p HardwareParams) -> Self {
        MovementLedger {
            params,
            n_vib: HashMap::new(),
            ln_heating: 0.0,
            ln_loss: 0.0,
            ln_cooling: 0.0,
            ln_decoherence: 0.0,
            num_stages: 0,
            cooling_events: 0,
        }
    }

    /// Records one movement stage.
    ///
    /// `moved` lists `(atom id, distance in metres)` for every atom whose
    /// row or column moved; `duration_s` is the stage's move time (`T_mov`)
    /// and `active_qubits` the number of circuit qubits decohering during
    /// the stage (paper: `F_mov_deco = Π exp(−N_i·T_mov,i / T1)`).
    pub fn record_move(&mut self, moved: &[(u32, f64)], duration_s: f64, active_qubits: usize) {
        if moved.is_empty() {
            return;
        }
        self.num_stages += 1;
        for &(atom, dist) in moved {
            if dist <= 0.0 {
                continue;
            }
            let dn = delta_n_vib(self.params, dist, duration_s);
            let n = self.n_vib.entry(atom).or_insert(0.0);
            *n += dn;
            // Loss is evaluated at the post-move n_vib, per atom per move.
            let p = loss_probability(self.params, *n);
            self.ln_loss += ln_clamped(1.0 - p);
        }
        self.ln_decoherence -= active_qubits as f64 * duration_s / self.params.coherence_time_s;
    }

    /// Records a two-qubit gate's heating penalty.
    ///
    /// `aod_atoms` are the AOD-trapped atoms participating in the gate
    /// (one for SLM–AOD gates, two for AOD–AOD: the paper sums their
    /// n_vib). The factor per gate is `1 − λ(1−f_2Q)·n_vib`.
    pub fn record_two_qubit_gate(&mut self, aod_atoms: &[u32]) {
        let n: f64 = aod_atoms.iter().map(|a| self.n_vib(*a)).sum();
        let factor = 1.0 - self.params.lambda * (1.0 - self.params.two_qubit_fidelity) * n;
        self.ln_heating += ln_clamped(factor);
    }

    /// Whether any of `atoms` exceeds the cooling threshold.
    pub fn needs_cooling(&self, atoms: impl IntoIterator<Item = u32>) -> bool {
        atoms
            .into_iter()
            .any(|a| self.n_vib(a) > self.params.n_vib_cool_threshold)
    }

    /// Cools an entire AOD array: swaps its quantum state into a
    /// pre-cooled spare array at a cost of two CZ gates per atom
    /// (`F_cooling = f_2Q^{2·N}`), resetting every listed atom's n_vib.
    pub fn cool_array(&mut self, atoms: &[u32]) {
        self.cooling_events += 1;
        self.ln_cooling += 2.0 * atoms.len() as f64 * ln_clamped(self.params.two_qubit_fidelity);
        for a in atoms {
            self.n_vib.insert(*a, 0.0);
        }
    }

    /// The current vibrational quantum number of `atom` (0 if never moved).
    pub fn n_vib(&self, atom: u32) -> f64 {
        self.n_vib.get(&atom).copied().unwrap_or(0.0)
    }

    /// The maximum n_vib across all tracked atoms.
    pub fn max_n_vib(&self) -> f64 {
        self.n_vib.values().copied().fold(0.0, f64::max)
    }

    /// `F_mov_heating`.
    pub fn f_heating(&self) -> f64 {
        self.ln_heating.exp()
    }

    /// `F_mov_loss`.
    pub fn f_loss(&self) -> f64 {
        self.ln_loss.exp()
    }

    /// `F_mov_cooling`.
    pub fn f_cooling(&self) -> f64 {
        self.ln_cooling.exp()
    }

    /// `F_mov_deco`.
    pub fn f_decoherence(&self) -> f64 {
        self.ln_decoherence.exp()
    }

    /// The combined movement factor
    /// `F_mov = F_heating·F_loss·F_cooling·F_deco` (paper Eq. 1).
    pub fn f_mov(&self) -> f64 {
        (self.ln_heating + self.ln_loss + self.ln_cooling + self.ln_decoherence).exp()
    }

    /// Number of recorded movement stages.
    pub fn num_stages(&self) -> usize {
        self.num_stages
    }

    /// Number of cooling procedures performed.
    pub fn cooling_events(&self) -> usize {
        self.cooling_events
    }
}

fn ln_clamped(x: f64) -> f64 {
    x.max(1e-300).ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> HardwareParams {
        HardwareParams::neutral_atom()
    }

    #[test]
    fn delta_n_vib_matches_paper_constants() {
        let p = p();
        // Paper Sec. IV: 0.0054 for 1 hop (15 µm), 0.13 for 5, 0.54 for 10.
        let one = delta_n_vib(&p, 15e-6, 300e-6);
        assert!((one - 0.0054).abs() < 2e-4, "one hop: {one}");
        let five = delta_n_vib(&p, 75e-6, 300e-6);
        assert!((five - 0.13).abs() < 0.01, "five hops: {five}");
        let ten = delta_n_vib(&p, 150e-6, 300e-6);
        assert!((ten - 0.54).abs() < 0.03, "ten hops: {ten}");
    }

    #[test]
    fn loss_matches_paper_reference_points() {
        let p = p();
        // Paper: per-atom survival 0.708 at n_vib=30, 0.998 at 20,
        // 0.999998 at 15.
        assert!((1.0 - loss_probability(&p, 30.0) - 0.708).abs() < 5e-3);
        assert!((1.0 - loss_probability(&p, 20.0) - 0.998).abs() < 1e-3);
        assert!(1.0 - loss_probability(&p, 15.0) > 0.99999);
        assert_eq!(loss_probability(&p, 0.0), 0.0);
    }

    #[test]
    fn ledger_accumulates_n_vib() {
        let p = p();
        let mut l = MovementLedger::new(&p);
        l.record_move(&[(0, 15e-6)], 300e-6, 5);
        l.record_move(&[(0, 15e-6)], 300e-6, 5);
        assert!((l.n_vib(0) - 2.0 * 0.0054).abs() < 4e-4);
        assert_eq!(l.num_stages(), 2);
    }

    #[test]
    fn heating_penalty_grows_with_n_vib() {
        let p = p();
        let mut l = MovementLedger::new(&p);
        l.record_two_qubit_gate(&[0]); // cold atom: no penalty
        assert!((l.f_heating() - 1.0).abs() < 1e-12);
        l.record_move(&[(0, 150e-6)], 300e-6, 5); // hot
        let before = l.f_heating();
        l.record_two_qubit_gate(&[0]);
        assert!(l.f_heating() < before);
    }

    #[test]
    fn cooling_resets_and_costs_gates() {
        let p = p();
        let mut l = MovementLedger::new(&p);
        // heat atom 0 past the threshold
        for _ in 0..40 {
            l.record_move(&[(0, 150e-6)], 300e-6, 5);
        }
        assert!(l.needs_cooling([0]));
        l.cool_array(&[0, 1, 2]);
        assert_eq!(l.n_vib(0), 0.0);
        assert!(!l.needs_cooling([0]));
        assert_eq!(l.cooling_events(), 1);
        let expected = p.two_qubit_fidelity.powi(6);
        assert!((l.f_cooling() - expected).abs() < 1e-12);
    }

    #[test]
    fn decoherence_matches_closed_form() {
        let p = p();
        let mut l = MovementLedger::new(&p);
        l.record_move(&[(0, 15e-6)], 300e-6, 10);
        let expected = (-10.0 * 300e-6 / p.coherence_time_s).exp();
        assert!((l.f_decoherence() - expected).abs() < 1e-12);
        // Paper's example: one move, 10-qubit circuit → 0.998 at T1 = 1.5 s.
        let p2 = HardwareParams::neutral_atom().with_coherence_time(1.5);
        let mut l2 = MovementLedger::new(&p2);
        l2.record_move(&[(0, 15e-6)], 300e-6, 10);
        assert!((l2.f_decoherence() - 0.998).abs() < 1e-3);
    }

    #[test]
    fn f_mov_is_product_of_components() {
        let p = p();
        let mut l = MovementLedger::new(&p);
        for i in 0..5 {
            l.record_move(&[(i, 30e-6)], 300e-6, 8);
            l.record_two_qubit_gate(&[i]);
        }
        let prod = l.f_heating() * l.f_loss() * l.f_cooling() * l.f_decoherence();
        assert!((l.f_mov() - prod).abs() < 1e-12);
        assert!(l.f_mov() > 0.0 && l.f_mov() <= 1.0);
    }

    #[test]
    fn empty_move_is_ignored() {
        let p = p();
        let mut l = MovementLedger::new(&p);
        l.record_move(&[], 300e-6, 10);
        assert_eq!(l.num_stages(), 0);
        assert!((l.f_mov() - 1.0).abs() < 1e-12);
    }
}
