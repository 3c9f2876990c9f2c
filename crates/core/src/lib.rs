//! **Atomique** — a quantum compiler for reconfigurable neutral atom
//! arrays (Wang et al., ISCA 2024). This crate is the paper's primary
//! contribution, reimplemented from scratch in Rust.
//!
//! The pipeline (paper Fig. 3):
//!
//! 1. **Qubit-array mapper** ([`map_to_arrays`]) — greedy MAX k-Cut on a
//!    γ-decayed gate-frequency graph decides which array (SLM or one of the
//!    AODs) hosts each qubit, minimizing SWAP overhead (Alg. 1).
//! 2. **SWAP insertion** ([`transpile`]) — SABRE on the complete
//!    multipartite coupling graph makes every two-qubit gate inter-array
//!    (Fig. 5).
//! 3. **Qubit-atom mapper** ([`map_to_atoms`]) — load-balance
//!    diagonal-spiral placement for SLM qubits and frequency-aligned
//!    placement for AOD qubits (Figs. 6–7).
//! 4. **High-parallelism router** ([`route_movements`]) — schedules atom
//!    movements and Rydberg pulses under the three hardware constraints
//!    (Figs. 8–11), with per-constraint relaxation (Fig. 22).
//! 5. **Fidelity estimation** — the Sec. IV/V-A model via `raa-physics`.
//!
//! Most users call [`compile`] with an [`AtomiqueConfig`]:
//!
//! ```
//! use atomique::{compile, AtomiqueConfig};
//! use raa_circuit::{Circuit, Gate, Qubit};
//!
//! let mut ghz = Circuit::new(4);
//! ghz.push(Gate::h(Qubit(0)));
//! for i in 0..3 {
//!     ghz.push(Gate::cx(Qubit(i), Qubit(i + 1)));
//! }
//! let out = compile(&ghz, &AtomiqueConfig::default())?;
//! assert_eq!(out.stats.two_qubit_gates, 3);
//! println!("depth {} fidelity {:.4}", out.stats.depth, out.total_fidelity());
//! # Ok::<(), atomique::CompileError>(())
//! ```

#![warn(missing_docs)]

mod array_mapper;
mod atom_mapper;
mod compiler;
mod config;
mod error;
mod lower;
mod program;
mod render;
mod router;
mod transpile;

pub use array_mapper::{map_to_arrays, map_to_arrays_with, ArrayMapping};
pub use atom_mapper::{diagonal_spiral_order, map_to_atoms, AtomMapping};
pub use compiler::{compile, compile_with_limits, CompileLimits};
pub use config::{
    ArrayMapperKind, AtomMapperKind, AtomiqueConfig, ProximityIndex, Relaxation, RouterMode,
    RouterStrategy, TranspileIndex,
};
pub use error::CompileError;
pub use lower::emit_isa;
pub use program::{
    CompileReport, CompileStats, CompiledProgram, LineMove, RouterStats, Stage, StageKind,
    StageTimings,
};
pub use raa_isa::{OptLevel, OptReport};
// Re-exported so downstream crates can drive sessions and export traces
// without naming raa-trace themselves.
pub use raa_trace as trace;
pub use render::{render_schedule, summarize};
pub use router::{route_movements, RoutedProgram};
pub use transpile::{transpile, transpile_with, TranspiledCircuit};
