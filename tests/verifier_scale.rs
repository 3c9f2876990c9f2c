//! Release-mode verifier-scaling smoke (CI's `cargo test -q --release
//! --test verifier_scale` step): the 1024-atom scaling workloads must be
//! ISA-verifiable under *both* check modes with identical verdicts, and
//! the default line-sweep mode must finish well inside a generous
//! wall-clock guard. The guard is deliberately loose (an order of
//! magnitude above the measured sweep time, far below the
//! exhaustive-scan time at this size) — its job is to fail the build on
//! an accidental O(atoms²) regression in the checker, not to pin exact
//! timings.

use std::time::{Duration, Instant};

use atomique::{compile, emit_isa, AtomiqueConfig};
use raa_benchmarks::scaling_pair;
use raa_isa::{check_legality_mode, optimize, CheckMode, OptLevel};

/// Generous wall-clock ceiling for line-sweep verification of one
/// 1024-atom stream. Measured ≲1 s in release (EXPERIMENTS.md "Verifier
/// scaling"); an O(atoms²) checker lands at exhaustive-scan cost, well
/// above this.
const LINES_VERIFY_GUARD: Duration = Duration::from_secs(30);

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow in debug; CI runs it via cargo test --release"
)]
fn verifier_handles_1024_atom_streams_in_both_modes() {
    for b in scaling_pair("QSim-1024", "QAOA-regu3-1024", 1024) {
        let cfg = AtomiqueConfig {
            emit_isa: true,
            ..AtomiqueConfig::scaled_to(1024)
        };
        let out = compile(&b.circuit, &cfg).unwrap_or_else(|e| panic!("{}: {e}", b.name));
        let raw = emit_isa(&out, &cfg.hardware, b.name);

        let t0 = Instant::now();
        let lines = check_legality_mode(&raw, CheckMode::Lines);
        let lines_t = t0.elapsed();
        let scan = check_legality_mode(&raw, CheckMode::Exhaustive);
        assert_eq!(
            lines, scan,
            "{}: check modes disagree at 1024 atoms",
            b.name
        );
        lines.unwrap_or_else(|e| panic!("{}: 1024-atom stream illegal: {e}", b.name));
        assert!(
            lines_t < LINES_VERIFY_GUARD,
            "{}: line-sweep verification took {lines_t:?} (guard {LINES_VERIFY_GUARD:?}) — \
             checker complexity regressed",
            b.name
        );

        // -O2 must also stay tractable at this size and prove the
        // stream it returns.
        let (opt, report) = optimize(&raw, OptLevel::Aggressive);
        assert!(
            !report.skipped_unverified,
            "{}: optimized stream unproven",
            b.name
        );
        assert!(
            report.instructions_after <= report.instructions_before,
            "{}: optimizer grew the stream",
            b.name
        );
        check_legality_mode(&opt, CheckMode::Lines)
            .unwrap_or_else(|e| panic!("{}: optimized stream illegal: {e}", b.name));
    }
}
