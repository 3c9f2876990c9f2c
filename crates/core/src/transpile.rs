//! Intra-array SWAP insertion over the complete multipartite coupling
//! graph (paper Fig. 5), followed by decomposition to the RAA native gate
//! set.
//!
//! After the qubit-array mapper, every two-qubit gate between different
//! arrays is directly executable via movement; a gate inside one array is
//! not. The paper "leverage[s] the default SABRE in Qiskit with the
//! multipartite coupling graph" to insert the needed SWAPs — we run our
//! SABRE on the same graph. The result is a circuit over *atom slots*
//! (one slot per trapped atom) in which every two-qubit gate is a CZ
//! between slots of different arrays.

use raa_arch::CouplingGraph;
use raa_circuit::{Circuit, NativeGateSet};
use raa_par::WorkPool;
use raa_sabre::{route_pooled, SabreConfig, SabreError};

use crate::array_mapper::ArrayMapping;
use crate::config::TranspileIndex;
use crate::error::CompileError;

/// Output of the transpilation pass.
#[derive(Debug, Clone)]
pub struct TranspiledCircuit {
    /// Circuit over slots: only CZ + one-qubit gates, every CZ inter-array.
    pub circuit: Circuit,
    /// Array index of each slot.
    pub slot_array: Vec<u8>,
    /// Initial slot of each logical qubit.
    pub slot_of_qubit: Vec<u32>,
    /// SWAPs the router had to insert (each became 3 CZ + one-qubit gates).
    pub swaps_inserted: usize,
}

impl TranspiledCircuit {
    /// Number of atom slots (equals the logical qubit count).
    pub fn num_slots(&self) -> usize {
        self.slot_array.len()
    }

    /// Additional CNOT-equivalents caused by SWAP insertion (Fig. 25's
    /// metric: 3 per SWAP).
    pub fn additional_cnots(&self) -> usize {
        3 * self.swaps_inserted
    }
}

/// Runs SWAP insertion for `circuit` under the given array mapping.
///
/// # Errors
///
/// * [`CompileError::Routing`] with [`SabreError::InvalidLayout`] if
///   `mapping` does not assign every qubit of `circuit` exactly one array
///   below `mapping.num_arrays`.
/// * Other SABRE failures (e.g. a mapping whose multipartite graph cannot
///   realize the circuit).
pub fn transpile(
    circuit: &Circuit,
    mapping: &ArrayMapping,
    sabre: &SabreConfig,
) -> Result<TranspiledCircuit, CompileError> {
    transpile_pooled(circuit, mapping, sabre, &WorkPool::sequential())
}

/// [`transpile`] with SABRE's candidate scoring fanned out over `pool`
/// (see [`raa_sabre::route_pooled`]); bit-identical output at every
/// worker count.
///
/// # Errors
///
/// Exactly those of [`transpile`].
pub fn transpile_pooled(
    circuit: &Circuit,
    mapping: &ArrayMapping,
    sabre: &SabreConfig,
    pool: &WorkPool,
) -> Result<TranspiledCircuit, CompileError> {
    transpile_with(circuit, mapping, sabre, TranspileIndex::Naive, pool)
}

/// `transpile_pooled` with the transpile-index mode selected
/// explicitly. Both modes route through the same SABRE router
/// ([`route_pooled`]); the mode only picks how the complete-multipartite
/// coupling graph is built: [`TranspileIndex::Naive`] runs the generic
/// constructor's all-pairs BFS, [`TranspileIndex::Indexed`] emits the
/// field-for-field identical graph analytically
/// ([`CouplingGraph::complete_multipartite_indexed`]), skipping the BFS
/// that dominates large-register transpiles. Outputs are bit-identical
/// across modes (`tests/transpile_differential.rs`).
///
/// # Errors
///
/// Exactly those of [`transpile`].
pub fn transpile_with(
    circuit: &Circuit,
    mapping: &ArrayMapping,
    sabre: &SabreConfig,
    index: TranspileIndex,
    pool: &WorkPool,
) -> Result<TranspiledCircuit, CompileError> {
    let n = circuit.num_qubits();
    validate_mapping(mapping, n)?;

    // Slots grouped by array, qubit-index order within each array.
    let mut slot_of_qubit = vec![0u32; n];
    let mut slot_array = Vec::with_capacity(n);
    let mut part_sizes = vec![0usize; mapping.num_arrays];
    {
        let mut next_slot = 0u32;
        for a in 0..mapping.num_arrays as u8 {
            for (q, &qa) in mapping.array_of.iter().enumerate() {
                if qa == a {
                    slot_of_qubit[q] = next_slot;
                    slot_array.push(a);
                    part_sizes[a as usize] += 1;
                    next_slot += 1;
                }
            }
        }
    }

    let native = circuit.decompose_to(NativeGateSet::Cz);
    let graph = match index {
        TranspileIndex::Naive => CouplingGraph::complete_multipartite(&part_sizes),
        TranspileIndex::Indexed => CouplingGraph::complete_multipartite_indexed(&part_sizes),
    };
    let routed = route_pooled(&native, &graph, &slot_of_qubit, sabre, pool)?;
    let out = routed.circuit.decompose_to(NativeGateSet::Cz);

    Ok(TranspiledCircuit {
        circuit: out,
        slot_array,
        slot_of_qubit,
        swaps_inserted: routed.swaps_inserted,
    })
}

/// Checks that `mapping` gives each of the circuit's `n` qubits one
/// array below `num_arrays`, naming the first bad entry otherwise.
fn validate_mapping(mapping: &ArrayMapping, n: usize) -> Result<(), CompileError> {
    let invalid = |reason: String| CompileError::Routing(SabreError::InvalidLayout { reason });
    if mapping.array_of.len() != n {
        return Err(invalid(format!(
            "array mapping has {} entries for {n} qubits",
            mapping.array_of.len()
        )));
    }
    match mapping
        .array_of
        .iter()
        .position(|&a| a as usize >= mapping.num_arrays)
    {
        Some(q) => Err(invalid(format!(
            "qubit {q} mapped to array {} of {}",
            mapping.array_of[q], mapping.num_arrays
        ))),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array_mapper::{map_to_arrays, ArrayMapping};
    use crate::config::ArrayMapperKind;
    use raa_arch::RaaConfig;
    use raa_circuit::{Gate, Qubit};

    fn transpiled(c: &Circuit, mapping: &ArrayMapping) -> TranspiledCircuit {
        transpile(c, mapping, &SabreConfig::default()).unwrap()
    }

    fn assert_all_gates_inter_array(t: &TranspiledCircuit) {
        for (a, b) in t.circuit.two_qubit_pairs() {
            assert_ne!(
                t.slot_array[a.index()],
                t.slot_array[b.index()],
                "intra-array gate between slots {a} and {b}"
            );
        }
    }

    #[test]
    fn cross_array_circuit_needs_no_swaps() {
        let mut c = Circuit::new(4);
        c.push(Gate::cz(Qubit(0), Qubit(2)));
        c.push(Gate::cz(Qubit(1), Qubit(3)));
        let mapping = ArrayMapping {
            array_of: vec![0, 0, 1, 1],
            num_arrays: 3,
        };
        let t = transpiled(&c, &mapping);
        assert_eq!(t.swaps_inserted, 0);
        assert_eq!(t.circuit.two_qubit_count(), 2);
        assert_all_gates_inter_array(&t);
    }

    #[test]
    fn intra_array_gate_costs_one_swap() {
        let mut c = Circuit::new(4);
        c.push(Gate::cz(Qubit(0), Qubit(1))); // same array under this mapping
        let mapping = ArrayMapping {
            array_of: vec![0, 0, 1, 1],
            num_arrays: 3,
        };
        let t = transpiled(&c, &mapping);
        assert_eq!(t.swaps_inserted, 1);
        // 1 logical CZ + 3 CZs from the SWAP.
        assert_eq!(t.circuit.two_qubit_count(), 4);
        assert_eq!(t.additional_cnots(), 3);
        assert_all_gates_inter_array(&t);
    }

    #[test]
    fn non_native_gates_become_rydberg_native() {
        let mut c = Circuit::new(4);
        c.push(Gate::cx(Qubit(0), Qubit(2)));
        c.push(Gate::zz(Qubit(1), Qubit(3), 0.4));
        let mapping = ArrayMapping {
            array_of: vec![0, 0, 1, 1],
            num_arrays: 3,
        };
        let t = transpiled(&c, &mapping);
        // CX → 1 CZ; ZZ is native (1 pulse); all inter-array so no swaps.
        assert_eq!(t.swaps_inserted, 0);
        assert_eq!(t.circuit.two_qubit_count(), 2);
        assert!(t.circuit.gates().iter().all(|g| !g.is_swap()));
        assert_all_gates_inter_array(&t);
    }

    #[test]
    fn end_to_end_with_max_k_cut() {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let n = 12;
        let mut c = Circuit::new(n);
        for _ in 0..60 {
            let a = rng.random_range(0..n as u32);
            let mut b = rng.random_range(0..n as u32);
            while b == a {
                b = rng.random_range(0..n as u32);
            }
            c.push(Gate::cz(Qubit(a), Qubit(b)));
        }
        let hw = RaaConfig::default();
        let mapping = map_to_arrays(&c, &hw, ArrayMapperKind::MaxKCut, 0.9).unwrap();
        let t = transpiled(&c, &mapping);
        assert_all_gates_inter_array(&t);
        assert_eq!(t.num_slots(), n);
        // Slot assignment is a permutation of qubits.
        let mut seen = vec![false; n];
        for &s in &t.slot_of_qubit {
            assert!(!seen[s as usize]);
            seen[s as usize] = true;
        }
    }

    #[test]
    fn indexed_transpile_is_bit_identical_to_naive() {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let n = 24;
        let mut c = Circuit::new(n);
        for _ in 0..120 {
            let a = rng.random_range(0..n as u32);
            let mut b = rng.random_range(0..n as u32);
            while b == a {
                b = rng.random_range(0..n as u32);
            }
            c.push(Gate::cz(Qubit(a), Qubit(b)));
        }
        let hw = RaaConfig::default();
        let mapping = map_to_arrays(&c, &hw, ArrayMapperKind::MaxKCut, 0.9).unwrap();
        let sabre = SabreConfig::default();
        let naive = transpile(&c, &mapping, &sabre).unwrap();
        for threads in [1, 4] {
            let pool = WorkPool::new(threads);
            let indexed =
                transpile_with(&c, &mapping, &sabre, TranspileIndex::Indexed, &pool).unwrap();
            assert_eq!(indexed.circuit.gates(), naive.circuit.gates());
            assert_eq!(indexed.slot_array, naive.slot_array);
            assert_eq!(indexed.slot_of_qubit, naive.slot_of_qubit);
            assert_eq!(indexed.swaps_inserted, naive.swaps_inserted);
        }
    }

    fn invalid_layout_reason(c: &Circuit, mapping: &ArrayMapping) -> String {
        match transpile(c, mapping, &SabreConfig::default()) {
            Err(CompileError::Routing(SabreError::InvalidLayout { reason })) => reason,
            other => panic!("expected an invalid-layout error, got {other:?}"),
        }
    }

    #[test]
    fn mapping_longer_than_circuit_is_rejected() {
        let mut c = Circuit::new(2);
        c.push(Gate::cz(Qubit(0), Qubit(1)));
        let mapping = ArrayMapping {
            array_of: vec![0, 1, 1],
            num_arrays: 3,
        };
        let reason = invalid_layout_reason(&c, &mapping);
        assert!(reason.contains("3 entries for 2 qubits"), "{reason}");
    }

    #[test]
    fn mapping_to_missing_array_is_rejected() {
        let mut c = Circuit::new(3);
        c.push(Gate::cz(Qubit(0), Qubit(2)));
        let mapping = ArrayMapping {
            array_of: vec![0, 5, 1],
            num_arrays: 3,
        };
        let reason = invalid_layout_reason(&c, &mapping);
        assert!(
            reason.contains("qubit 1 mapped to array 5 of 3"),
            "{reason}"
        );
    }

    #[test]
    fn slots_grouped_by_array() {
        let mapping = ArrayMapping {
            array_of: vec![1, 0, 1, 0],
            num_arrays: 3,
        };
        let c = Circuit::new(4);
        let t = transpiled(&c, &mapping);
        // Slot array indices are sorted ascending by construction.
        assert!(t.slot_array.windows(2).all(|w| w[0] <= w[1]));
        // Qubit 1 and 3 (array 0) get the first two slots.
        assert_eq!(t.slot_of_qubit[1], 0);
        assert_eq!(t.slot_of_qubit[3], 1);
        assert_eq!(t.slot_of_qubit[0], 2);
        assert_eq!(t.slot_of_qubit[2], 3);
    }
}
