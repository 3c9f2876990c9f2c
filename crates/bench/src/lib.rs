//! Experiment harness regenerating every table and figure of the Atomique
//! paper's evaluation (Sec. V).
//!
//! Each experiment is exposed as a function (and a binary of the same
//! name, e.g. `cargo run --release -p raa-bench --bin fig13`). The
//! `figures` bench target (`cargo bench -p raa-bench --bench figures`)
//! runs all of them in quick mode and prints paper-vs-measured rows; see
//! `EXPERIMENTS.md` for recorded results.

#![warn(missing_docs)]

pub mod harness;
pub mod paper;

mod figs_main;
mod figs_sweeps;

pub use figs_main::{
    fig12, fig13, fig13_measure, fig14, fig19, fig25, table1, table2, table3, Fig13,
};
pub use figs_sweeps::{
    fig15, fig16, fig17, fig18, fig20a, fig20b, fig20c, fig21, fig22, fig23, fig24,
};

/// Parses the conventional `--quick` flag used by every figure binary.
pub fn quick_from_args() -> bool {
    std::env::args().any(|a| a == "--quick" || a == "-q")
}
