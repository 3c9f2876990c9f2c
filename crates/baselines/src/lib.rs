//! Baseline architectures and compilers the Atomique paper evaluates
//! against.
//!
//! * [`compile_fixed`] — the four fixed-topology baselines of Fig. 13
//!   (IBM superconducting heavy-hex, FAA-Rectangular, FAA-Triangular,
//!   Baker long-range FAA), all routed with SABRE;
//! * [`tan_solver`] / [`tan_iterp`] — the solver-based RAA compilers of
//!   Fig. 14 (OLSQ-DPQA), reproduced as exhaustive branch-and-bound with
//!   timeout and greedy peeling respectively;
//! * [`geyser_pulses`] — Geyser's 3-qubit-block pulse counting
//!   (Table III);
//! * [`qpilot`] — the flying-ancilla compiler of Fig. 19.
//!
//! Substitutions relative to the original artifacts are documented in
//! the "Deviations log" of `EXPERIMENTS.md`.

#![warn(missing_docs)]

mod fixed;
mod geyser;
mod isa;
mod qpilot;
mod tan;

pub use fixed::{
    compile_fixed, compile_fixed_with, coupling_for, FixedArchitecture, FixedCompileResult,
};
pub use geyser::{atomique_pulses, geyser_pulses, geyser_pulses_routed, GeyserResult};
pub use isa::{lower_fixed, lower_geyser, lower_tan};
pub use qpilot::{qpilot, QPilotResult};
pub use tan::{tan_iterp, tan_solver, TanResult};
