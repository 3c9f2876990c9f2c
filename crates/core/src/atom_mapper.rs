//! Qubit-atom mapper: choosing the concrete trap inside each array
//! (paper Sec. III-B, Figs. 6–7).
//!
//! Two sub-passes:
//!
//! 1. **Load-balance SLM mapping** — SLM qubits sorted by two-qubit gate
//!    involvement are placed along a diagonal-first spiral so that the
//!    per-row/per-column interaction load stays balanced, which minimizes
//!    later conflicts with the order (C2) and overlap (C3) constraints.
//! 2. **Aligned AOD mapping** — the most frequent interaction pairs get the
//!    *same* (row, column) position in their respective arrays, so a single
//!    small aligned displacement of the whole AOD executes many gates in
//!    parallel.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use raa_arch::{ArrayIndex, RaaConfig, TrapSite};
use raa_circuit::InteractionGraph;

use crate::config::AtomMapperKind;
use crate::error::CompileError;
use crate::transpile::TranspiledCircuit;

/// The result of the atom-mapping pass: a trap site for every slot.
#[derive(Debug, Clone, PartialEq)]
pub struct AtomMapping {
    /// Trap site of each slot.
    pub site_of_slot: Vec<TrapSite>,
}

/// Visit order for placing qubits in one array: main diagonal first, then
/// increasingly distant off-diagonals (paper Fig. 6's spiral).
pub fn diagonal_spiral_order(rows: usize, cols: usize) -> Vec<(u16, u16)> {
    let mut cells: Vec<(u16, u16)> = (0..rows)
        .flat_map(|r| (0..cols).map(move |c| (r as u16, c as u16)))
        .collect();
    cells.sort_by_key(|&(r, c)| {
        let d = (r as i32 - c as i32).unsigned_abs();
        (d, r.max(c), r)
    });
    cells
}

/// Runs the configured atom mapper.
///
/// # Errors
///
/// [`CompileError::Capacity`] if any array holds more slots than traps
/// (cannot happen after a capacity-respecting array mapper).
pub fn map_to_atoms(
    transpiled: &TranspiledCircuit,
    hardware: &RaaConfig,
    kind: AtomMapperKind,
    seed: u64,
) -> Result<AtomMapping, CompileError> {
    // Group slots by array and verify capacity.
    let num_arrays = hardware.num_arrays();
    let mut slots_by_array: Vec<Vec<u32>> = vec![Vec::new(); num_arrays];
    for (slot, &a) in transpiled.slot_array.iter().enumerate() {
        slots_by_array[a as usize].push(slot as u32);
    }
    for (a, slots) in slots_by_array.iter().enumerate() {
        let cap = hardware.dims(ArrayIndex(a as u8)).capacity();
        if slots.len() > cap {
            return Err(CompileError::Capacity {
                required: slots.len(),
                available: cap,
            });
        }
    }
    match kind {
        AtomMapperKind::LoadBalance => Ok(load_balance(transpiled, hardware, &slots_by_array)),
        AtomMapperKind::Random => Ok(random(hardware, &slots_by_array, seed)),
    }
}

fn load_balance(
    transpiled: &TranspiledCircuit,
    hardware: &RaaConfig,
    slots_by_array: &[Vec<u32>],
) -> AtomMapping {
    let n = transpiled.num_slots();
    let counts = InteractionGraph::involvement_counts(&transpiled.circuit);
    let mut site_of_slot: Vec<Option<TrapSite>> = vec![None; n];

    // --- Pass 1: SLM load-balance mapping (Fig. 6). ---
    let slm = ArrayIndex::SLM;
    let dims = hardware.dims(slm);
    let mut slm_slots = slots_by_array[0].clone();
    slm_slots.sort_by_key(|&s| std::cmp::Reverse(counts[s as usize]));
    for (&slot, &(r, c)) in slm_slots
        .iter()
        .zip(diagonal_spiral_order(dims.rows, dims.cols).iter())
    {
        site_of_slot[slot as usize] = Some(TrapSite::new(slm, r, c));
    }

    // Pair frequencies over the transpiled circuit, sorted descending
    // (rank order of Fig. 7).
    let mut pair_freq: HashMap<(u32, u32), usize> = HashMap::new();
    for (a, b) in transpiled.circuit.two_qubit_pairs() {
        *pair_freq.entry((a.0, b.0)).or_insert(0) += 1;
    }
    let mut ranked: Vec<((u32, u32), usize)> = pair_freq.into_iter().collect();
    ranked.sort_by_key(|&((a, b), f)| (std::cmp::Reverse(f), a, b));

    // --- Pass 2: aligned AOD mapping, one AOD at a time (Fig. 7). ---
    for (k, array_slots) in slots_by_array.iter().enumerate().skip(1) {
        let array = ArrayIndex(k as u8);
        let dims = hardware.dims(array);
        let mut free = vec![vec![true; dims.cols]; dims.rows];
        let mut remaining: Vec<u32> = array_slots.clone();

        for &((a, b), _) in &ranked {
            // One endpoint placed (anywhere), the other an unplaced slot of
            // this array.
            let (anchor, cand) = match (site_of_slot[a as usize], site_of_slot[b as usize]) {
                (Some(site), None) if transpiled.slot_array[b as usize] as usize == k => (site, b),
                (None, Some(site)) if transpiled.slot_array[a as usize] as usize == k => (site, a),
                _ => continue,
            };
            if site_of_slot[cand as usize].is_some() {
                continue;
            }
            let target = (
                (anchor.row as usize).min(dims.rows - 1),
                (anchor.col as usize).min(dims.cols - 1),
            );
            if let Some((r, c)) = nearest_free(&free, target) {
                free[r][c] = false;
                site_of_slot[cand as usize] = Some(TrapSite::new(array, r as u16, c as u16));
                remaining.retain(|&s| s != cand);
            }
        }

        // Leftovers (qubits with no placed partner): diagonal order, by
        // involvement.
        remaining.sort_by_key(|&s| std::cmp::Reverse(counts[s as usize]));
        let mut order = diagonal_spiral_order(dims.rows, dims.cols).into_iter();
        for slot in remaining {
            let site = loop {
                let (r, c) = order.next().expect("capacity was validated");
                if free[r as usize][c as usize] {
                    free[r as usize][c as usize] = false;
                    break TrapSite::new(array, r, c);
                }
            };
            site_of_slot[slot as usize] = Some(site);
        }
    }

    AtomMapping {
        site_of_slot: site_of_slot
            .into_iter()
            .map(|s| s.expect("every slot placed"))
            .collect(),
    }
}

/// The free cell minimizing Euclidean distance to `target` (ties: lowest
/// row, then column). `None` if the grid is full.
fn nearest_free(free: &[Vec<bool>], target: (usize, usize)) -> Option<(usize, usize)> {
    let mut best: Option<((usize, usize), f64)> = None;
    for (r, row) in free.iter().enumerate() {
        for (c, &is_free) in row.iter().enumerate() {
            if !is_free {
                continue;
            }
            let d = ((r as f64 - target.0 as f64).powi(2) + (c as f64 - target.1 as f64).powi(2))
                .sqrt();
            let better = match best {
                None => true,
                Some((_, bd)) => d < bd - 1e-12,
            };
            if better {
                best = Some(((r, c), d));
            }
        }
    }
    best.map(|(cell, _)| cell)
}

/// Fig. 21 ablation baseline: uniformly random placement per array.
fn random(hardware: &RaaConfig, slots_by_array: &[Vec<u32>], seed: u64) -> AtomMapping {
    let n: usize = slots_by_array.iter().map(|s| s.len()).sum();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut site_of_slot = vec![TrapSite::new(ArrayIndex::SLM, 0, 0); n];
    for (a, slots) in slots_by_array.iter().enumerate() {
        let array = ArrayIndex(a as u8);
        let dims = hardware.dims(array);
        let mut cells: Vec<(u16, u16)> = (0..dims.rows as u16)
            .flat_map(|r| (0..dims.cols as u16).map(move |c| (r, c)))
            .collect();
        cells.shuffle(&mut rng);
        for (&slot, &(r, c)) in slots.iter().zip(cells.iter()) {
            site_of_slot[slot as usize] = TrapSite::new(array, r, c);
        }
    }
    AtomMapping { site_of_slot }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array_mapper::ArrayMapping;
    use crate::transpile::transpile;
    use raa_circuit::Qubit;
    use raa_circuit::{Circuit, Gate};
    use raa_sabre::SabreConfig;

    fn make_transpiled(c: &Circuit, array_of: Vec<u8>) -> TranspiledCircuit {
        let mapping = ArrayMapping {
            array_of,
            num_arrays: 3,
        };
        transpile(c, &mapping, &SabreConfig::default()).unwrap()
    }

    #[test]
    fn diagonal_spiral_starts_on_diagonal() {
        let order = diagonal_spiral_order(4, 4);
        assert_eq!(&order[..4], &[(0, 0), (1, 1), (2, 2), (3, 3)]);
        assert_eq!(order.len(), 16);
        // Every cell exactly once.
        let mut set: Vec<_> = order.clone();
        set.sort_unstable();
        set.dedup();
        assert_eq!(set.len(), 16);
    }

    #[test]
    fn diagonal_spiral_balances_rows() {
        // Load balance is approximate: after placing any prefix, the
        // per-row occupancy spread stays small (≤ 3 on a 5×5 array).
        let order = diagonal_spiral_order(5, 5);
        for k in 1..=25 {
            let mut per_row = [0usize; 5];
            for &(r, _) in &order[..k] {
                per_row[r as usize] += 1;
            }
            let max = *per_row.iter().max().unwrap();
            let min = *per_row.iter().min().unwrap();
            assert!(max - min <= 3, "imbalance {max}-{min} at k={k}");
        }
    }

    #[test]
    fn busiest_slm_qubit_gets_top_left_diagonal() {
        let mut c = Circuit::new(4);
        // Slot for qubit 1 (SLM) is the busiest.
        for _ in 0..5 {
            c.push(Gate::cz(Qubit(1), Qubit(2)));
        }
        c.push(Gate::cz(Qubit(0), Qubit(3)));
        let t = make_transpiled(&c, vec![0, 0, 1, 1]);
        let m = map_to_atoms(&t, &RaaConfig::default(), AtomMapperKind::LoadBalance, 0).unwrap();
        let busiest_slot = t.slot_of_qubit[1] as usize;
        let site = m.site_of_slot[busiest_slot];
        assert_eq!((site.row, site.col), (0, 0));
        assert!(site.array.is_slm());
    }

    #[test]
    fn frequent_pair_is_aligned() {
        let mut c = Circuit::new(4);
        for _ in 0..5 {
            c.push(Gate::cz(Qubit(1), Qubit(2)));
        }
        c.push(Gate::cz(Qubit(0), Qubit(3)));
        let t = make_transpiled(&c, vec![0, 0, 1, 1]);
        let m = map_to_atoms(&t, &RaaConfig::default(), AtomMapperKind::LoadBalance, 0).unwrap();
        let s1 = m.site_of_slot[t.slot_of_qubit[1] as usize];
        let s2 = m.site_of_slot[t.slot_of_qubit[2] as usize];
        // The hot pair shares (row, col) across arrays.
        assert_eq!((s1.row, s1.col), (s2.row, s2.col));
        assert_ne!(s1.array, s2.array);
    }

    #[test]
    fn all_slots_placed_uniquely() {
        let mut c = Circuit::new(9);
        for i in 0..8u32 {
            c.push(Gate::cz(Qubit(i), Qubit(i + 1)));
        }
        let t = make_transpiled(&c, vec![0, 0, 0, 1, 1, 1, 2, 2, 2]);
        for kind in [AtomMapperKind::LoadBalance, AtomMapperKind::Random] {
            let m = map_to_atoms(&t, &RaaConfig::default(), kind, 7).unwrap();
            assert_eq!(m.site_of_slot.len(), 9);
            let mut sites = m.site_of_slot.clone();
            sites.sort_by_key(|s| (s.array.0, s.row, s.col));
            sites.dedup();
            assert_eq!(sites.len(), 9, "duplicate trap assignment");
            // Every slot in its assigned array.
            for (slot, site) in m.site_of_slot.iter().enumerate() {
                assert_eq!(site.array.0, t.slot_array[slot]);
            }
        }
    }

    #[test]
    fn random_mapper_is_seed_deterministic() {
        let mut c = Circuit::new(6);
        c.push(Gate::cz(Qubit(0), Qubit(5)));
        let t = make_transpiled(&c, vec![0, 0, 1, 1, 2, 2]);
        let hw = RaaConfig::default();
        let a = map_to_atoms(&t, &hw, AtomMapperKind::Random, 42).unwrap();
        let b = map_to_atoms(&t, &hw, AtomMapperKind::Random, 42).unwrap();
        let c2 = map_to_atoms(&t, &hw, AtomMapperKind::Random, 43).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c2);
    }

    #[test]
    fn nearest_free_prefers_exact_cell() {
        let mut free = vec![vec![true; 3]; 3];
        assert_eq!(nearest_free(&free, (1, 1)), Some((1, 1)));
        free[1][1] = false;
        let (r, c) = nearest_free(&free, (1, 1)).unwrap();
        assert_eq!((r as i32 - 1).abs() + (c as i32 - 1).abs(), 1);
        let full = vec![vec![false; 2]; 2];
        assert_eq!(nearest_free(&full, (0, 0)), None);
    }
}
