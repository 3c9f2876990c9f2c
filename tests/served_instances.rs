//! Served-instances gate (release builds only): every fresh QAOA
//! instance that a `serve-mix` benchmark run at seed 23 can draw
//! compiles and verifies under the serving flags at `-O2`.
//!
//! The `k`-th fresh miss of `serve-mix` is `qaoa_regular(100, 3, seed ·
//! 1_000_003 + k)` on the default machine, sent as OpenQASM with
//! `opt_level` 2, and the server forces `emit_isa`, `verify_isa` and
//! `trace` on. This test compiles instances k < 1 500 the same way. The
//! range includes k = 1 257, where the router once left an unscheduled
//! pair 6e-16 inside the blockade radius, so the stream failed its
//! legality check.
//!
//! Debug builds skip this test (`cargo test -q` tier-1 stays fast); CI
//! runs it as a separate release step.

use atomique::{AtomiqueConfig, OptLevel};
use raa_benchmarks::qaoa_regular;
use raa_circuit::qasm;

/// The `serve-mix` workload seed whose fresh instances are swept.
const SEED: u64 = 23;
/// Fresh instances swept, `k = 0..INSTANCES`.
const INSTANCES: u64 = 1_500;

#[cfg_attr(debug_assertions, ignore = "the sweep runs in release builds only")]
#[test]
fn every_served_miss_instance_compiles_and_verifies() {
    let cfg = AtomiqueConfig {
        emit_isa: true,
        verify_isa: true,
        trace: true,
        opt_level: OptLevel::Aggressive,
        ..AtomiqueConfig::default()
    };
    for k in 0..INSTANCES {
        let seed = SEED.wrapping_mul(1_000_003).wrapping_add(k);
        let text = qasm::to_qasm(&qaoa_regular(100, 3, seed));
        let circuit = qasm::from_qasm(&text).expect("generated QASM parses");
        let out = atomique::compile(&circuit, &cfg)
            .unwrap_or_else(|e| panic!("instance {k} (seed {seed}): {e}"));
        assert!(out.isa.is_some(), "instance {k} (seed {seed}): no stream");
    }
}
