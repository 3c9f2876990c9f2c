//! SABRE qubit mapping and SWAP routing for the Atomique (ISCA 2024)
//! reproduction.
//!
//! A from-scratch implementation of the SABRE algorithm (Li, Ding, Xie —
//! ASPLOS 2019) over arbitrary [`raa_arch::CouplingGraph`]s. The paper runs
//! every fixed-topology baseline through "Qiskit Optimization Level 3 with
//! SABRE"; this crate is the workspace equivalent, and Atomique itself uses
//! it on the complete multipartite coupling graph to insert the SWAPs of
//! paper Fig. 5.
//!
//! # Examples
//!
//! ```
//! use raa_arch::CouplingGraph;
//! use raa_circuit::{Circuit, Gate, Qubit};
//! use raa_sabre::{layout_and_route, LayoutConfig};
//!
//! let mut c = Circuit::new(4);
//! c.push(Gate::cz(Qubit(0), Qubit(3)));
//! let grid = CouplingGraph::grid(2, 2);
//! let routed = layout_and_route(&c, &grid, &LayoutConfig::default())?;
//! assert_eq!(routed.circuit.two_qubit_count(), 1 + routed.swaps_inserted);
//! # Ok::<(), raa_sabre::SabreError>(())
//! ```

#![warn(missing_docs)]

mod error;
mod layout;
#[cfg(test)]
#[path = "../tests/reference/mod.rs"]
mod reference;
mod route;

pub use error::SabreError;
pub use layout::{layout_and_route, LayoutConfig};
pub use route::{
    reference_swap_score, route, route_pooled, route_probed, verify_routing, CandidateEval,
    RoundProbe, RoutedCircuit, SabreConfig,
};
