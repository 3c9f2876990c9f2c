//! Umbrella crate for the Atomique (ISCA 2024) reproduction.
//!
//! Re-exports the public API of every workspace crate so that examples and
//! downstream users can depend on a single crate.
//!
//! See `README.md` for a quickstart and its "Workspace layout" table for
//! the system inventory.

pub use atomique;
pub use raa_arch as arch;
pub use raa_baselines as baselines;
pub use raa_benchmarks as benchmarks;
pub use raa_circuit as circuit;
pub use raa_physics as physics;
pub use raa_sabre as sabre;
