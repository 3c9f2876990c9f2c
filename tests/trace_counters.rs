//! Counter-based regression gates: the telemetry counters the compile
//! pipeline emits under detail tracing are *exactly* reproducible —
//! compilation is deterministic (seeded, no ambient randomness, no
//! wall-clock-dependent decisions), so the committed per-benchmark
//! baselines below must match to the last increment on every machine
//! and build profile. A drift means the pipeline's work profile changed
//! (more grid queries, a pass suddenly rejected, the incremental
//! verifier falling back to the oracle) — exactly the class of silent
//! regression wall-clock benchmarks cannot catch.
//!
//! On intentional pipeline changes, regenerate the table: the failure
//! message prints the new rows as Rust source ready to paste.
//!
//! The companion guard [`disabled_tracing_records_no_counters`] pins
//! the off-path: without `trace: true` a compile must attach zero
//! counters and only the fixed handful of coarse stage spans, so the
//! instrumentation stays near-free when disabled.

use atomique::{compile, AtomiqueConfig, OptLevel};
use raa_benchmarks::small_suite;

/// The gated columns, in order: spatial-grid queries, router admission
/// attempts, optimizer candidate rewrites, optimizer rejections,
/// incremental-verifier full-oracle fallbacks, and the two SABRE
/// columns (candidates scored, duplicate candidate enumerations
/// skipped).
const COLUMNS: [&str; 7] = [
    "grid.query",
    "route.try_add",
    "opt.candidates",
    "opt.rejected",
    "opt.verify.full",
    "transpile.score_recompute",
    "transpile.score_dedup",
];

/// Committed counter baselines for [`traced_config`] over the small
/// suite. Regenerate by running this test and pasting the printed rows.
const BASELINES: &[(&str, [u64; 7])] = &[
    ("Mermin-Bell-5", [423, 30, 3, 0, 0, 18, 0]),
    ("VQE-10", [265, 10, 3, 0, 0, 0, 0]),
    ("VQE-20", [923, 23, 3, 0, 0, 0, 0]),
    ("Adder-10", [1772, 83, 3, 0, 0, 0, 0]),
    ("BV-14", [521, 15, 1, 0, 0, 0, 0]),
    ("QSim-rand-5", [549, 39, 3, 0, 0, 6, 0]),
    ("QSim-rand-10", [2384, 103, 3, 0, 0, 24, 0]),
    ("H2-4", [512, 42, 2, 0, 0, 0, 0]),
    ("QAOA-rand-5", [42, 3, 0, 0, 0, 0, 0]),
    ("QAOA-regu3-20", [934, 60, 3, 0, 0, 24, 0]),
    ("QAOA-regu4-10", [479, 30, 2, 0, 0, 14, 0]),
];

/// The fixed workload configuration the baselines were recorded under:
/// full pipeline through aggressive ISA optimization with the
/// legality + replay oracle, detail tracing on.
fn traced_config() -> AtomiqueConfig {
    AtomiqueConfig {
        emit_isa: true,
        verify_isa: true,
        opt_level: OptLevel::Aggressive,
        trace: true,
        ..AtomiqueConfig::default()
    }
}

fn render_rows(rows: &[(String, [u64; 7])]) -> String {
    let mut s = String::new();
    for (name, vals) in rows {
        let cells = vals.map(|v| v.to_string()).join(", ");
        s.push_str(&format!("    (\"{name}\", [{cells}]),\n"));
    }
    s
}

#[test]
fn counters_match_committed_baselines_exactly() {
    let mut actual: Vec<(String, [u64; 7])> = Vec::new();
    for b in small_suite() {
        let out =
            compile(&b.circuit, &traced_config()).unwrap_or_else(|e| panic!("{}: {e}", b.name));
        let mut vals = [0u64; 7];
        for (v, col) in vals.iter_mut().zip(COLUMNS) {
            *v = out.report.counter(col);
        }
        actual.push((b.name.to_string(), vals));
    }
    let expected: Vec<(String, [u64; 7])> =
        BASELINES.iter().map(|(n, v)| (n.to_string(), *v)).collect();
    assert_eq!(
        actual,
        expected,
        "\ncounter baselines drifted (columns: {COLUMNS:?}).\n\
         If the pipeline change is intentional, replace BASELINES in\n\
         tests/trace_counters.rs with:\n{}",
        render_rows(&actual)
    );
}

/// The zero-fault case of the chaos work: with no `RAA_FAULT_SPEC`
/// armed (the only state this binary ever runs in), the fault seams
/// compiled into the pipeline are completely inert — no fault counter
/// ticks, no registry state accumulates, and the exact baselines above
/// hold with the gates compiled in. This pins the "free when off"
/// claim the tier-1 suites rest on.
#[test]
fn fault_instrumentation_is_inert_when_disarmed() {
    assert!(!raa_fault::active(), "no test in this binary arms faults");
    for b in small_suite().into_iter().take(3) {
        let out =
            compile(&b.circuit, &traced_config()).unwrap_or_else(|e| panic!("{}: {e}", b.name));
        assert_eq!(
            out.report.counter("compile.fault.injected"),
            0,
            "{}: fault injected with no schedule armed",
            b.name
        );
    }
    assert!(
        raa_fault::stats().is_empty(),
        "disarmed evaluation recorded registry state: {:?}",
        raa_fault::stats()
    );
    assert_eq!(raa_fault::fired_total(), 0);
}

/// With tracing off (the default), a compile still derives its stage
/// timings from the span tree but must record *no* counters and only
/// the coarse stage spans — a fixed handful of nodes regardless of
/// workload size, so the disabled path cannot accumulate per-gate cost.
#[test]
fn disabled_tracing_records_no_counters() {
    fn count_spans(spans: &[atomique::trace::SpanNode]) -> usize {
        spans.iter().map(|s| 1 + count_spans(&s.children)).sum()
    }
    for b in small_suite() {
        let cfg = AtomiqueConfig {
            trace: false,
            ..traced_config()
        };
        let out = compile(&b.circuit, &cfg).unwrap_or_else(|e| panic!("{}: {e}", b.name));
        assert!(
            out.report.trace.counters.is_empty(),
            "{}: counters recorded with tracing disabled: {:?}",
            b.name,
            out.report.trace.counters
        );
        let n = count_spans(&out.report.trace.spans);
        assert!(
            n <= 16,
            "{}: {n} spans at stage level (expected a fixed coarse handful)",
            b.name
        );
    }
}
