//! Benchmark circuit generators for the Atomique (ISCA 2024) reproduction.
//!
//! The paper evaluates on three workload families (Table II):
//!
//! * **Generic / algorithmic** — QASMBench and SupermarQ circuits
//!   ([`bv`], [`qv`], [`adder`], [`hhl`], [`mermin_bell`], [`vqe`],
//!   [`phase_code`]) plus structured random circuits
//!   ([`arbitrary_circuit`], Fig. 15/21);
//! * **QSim** — trotterized random Pauli strings ([`qsim_random`]) and
//!   molecular Hamiltonians ([`h2`], [`lih`]);
//! * **QAOA** — Erdős–Rényi ([`qaoa_random`]) and d-regular
//!   ([`qaoa_regular`]) cost graphs.
//!
//! The original benchmarks are Python/QASM artifacts; these generators
//! rebuild the same circuit structures, matched to Table II's gate counts
//! (see the "Deviations log" of `EXPERIMENTS.md`). Named suites used by the
//! figures live in [`large_suite`], [`small_suite`], [`topology_suite`]
//! and [`relaxation_suite`]. All generators are deterministic in their
//! seed.
//!
//! # Examples
//!
//! ```
//! use raa_benchmarks::{qaoa_regular, large_suite};
//! use raa_circuit::CircuitStats;
//!
//! let qaoa = qaoa_regular(40, 5, 0); // QAOA-regu5-40
//! assert_eq!(CircuitStats::of(&qaoa).two_qubit_gates, 100);
//! assert_eq!(large_suite().len(), 17);
//! ```

#![warn(missing_docs)]

mod arbitrary;
mod generic;
mod qaoa;
mod qsim;
mod suite;

pub use arbitrary::arbitrary_circuit;
pub use generic::{adder, bv, ghz, grover, hhl, mermin_bell, phase_code, qft, qv, vqe, w_state};
pub use qaoa::{qaoa_random, qaoa_regular, random_regular_graph};
pub use qsim::{append_pauli_rotation, h2, lih, qsim_random, Pauli};
pub use suite::{
    large_suite, relaxation_suite, scaling_pair, scaling_suite, small_suite, topology_suite,
    Benchmark, BenchmarkKind,
};
