//! `raa-isa` — the hardware instruction stream for reconfigurable-atom-array
//! programs, with codecs and an independent correctness oracle.
//!
//! The Atomique compiler (and the baseline compilers it is evaluated
//! against) produce in-memory schedules. This crate defines the
//! *serializable boundary* between those compilers and whatever consumes
//! their output — a control system, a visualizer, a batch service:
//!
//! * [`Instr`] / [`IsaProgram`] — a flat, versioned instruction stream in
//!   the style of the DPQA compiler family's output: AOD row/column moves
//!   interleaved with global Rydberg pulses, Raman one-qubit layers,
//!   SLM↔AOD transfers, cooling swaps and parking;
//! * [`codec`] — the compact binary wire format, losslessly
//!   round-tripping (re-encoding a decoded program is byte-identical);
//! * [`json`] — the dependency-free JSON reader behind the serving
//!   layer's requests;
//! * [`check_legality`] — a standalone legality checker that replays atom
//!   positions through the stream and re-verifies the three hardware
//!   constraints (C1 exact-pair Rydberg addressing, C2 row/column order,
//!   C3 line separation) with no state shared with any compiler;
//! * [`replay_verify`] — a replay verifier proving that every gate of the
//!   program's embedded reference circuit executes exactly once, in an
//!   order consistent with the circuit's dependency DAG;
//! * [`lower_gate_schedule`] — the generic lowering used by the baseline
//!   compilers (Tan, fixed-topology, Geyser), which realize two-qubit
//!   gates by atom re-grabs ([`Instr::Transfer`]) rather than pure
//!   movement;
//! * [`opt`] — a verified optimizer: peephole/dataflow passes (move
//!   coalescing, park elision, dead-move elimination) that shave
//!   instruction count and line travel without touching a gate event,
//!   whose result is proven by the oracle before it is returned;
//! * [`disassemble`] / [`IsaStats`] — a human-readable listing and
//!   stream-level statistics (instruction counts, move distance,
//!   encoded sizes).
//!
//! Together the legality checker and the replay verifier form an
//! end-to-end oracle: a stream that passes both is a hardware-legal
//! program that computes its reference circuit. The Atomique pipeline and
//! all lowered baselines are validated against this single oracle (see
//! `atomique::compile`'s `emit_isa`/`verify_isa` options).
//!
//! # Examples
//!
//! ```
//! use raa_circuit::{Circuit, Gate, Qubit};
//! use raa_isa::{codec, lower_gate_schedule, replay_verify, check_legality, ProgramHeader};
//!
//! // A two-gate circuit executed in one abstract stage per gate.
//! let mut c = Circuit::new(2);
//! c.push(Gate::h(Qubit(0)));
//! c.push(Gate::cz(Qubit(0), Qubit(1)));
//! let program = lower_gate_schedule(&c, &[vec![1]], ProgramHeader::new("example", "doc"))?;
//!
//! check_legality(&program)?;
//! let report = replay_verify(&program)?;
//! assert_eq!(report.two_qubit_gates, 1);
//!
//! // The binary codec round-trips losslessly.
//! let bytes = codec::to_bytes(&program);
//! assert_eq!(codec::from_bytes(&bytes)?, program);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]

// Lets the `#[path]`-included test generator name this crate as its
// integration tests do.
#[cfg(test)]
extern crate self as raa_isa;

pub mod codec;
pub mod json;
pub mod opt;

mod check;
#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod common;
mod error;
mod lower;
mod program;
mod replay;
mod stats;

pub use check::{check_legality, check_legality_mode, CheckMode};
pub use error::{DecodeError, EncodeError, LegalityError, LowerError, ReplayError};
pub use lower::lower_gate_schedule;
pub use opt::{optimize, OptLevel, OptReport};
pub use program::{disassemble, Instr, IsaProgram, ProgramHeader, SiteSpec, FORMAT_VERSION};
pub use replay::{replay_verify, ReplayReport};
pub use stats::IsaStats;
