//! Counter-based regression gates: the telemetry counters the compile
//! pipeline emits under detail tracing are *exactly* reproducible —
//! compilation is deterministic (seeded, no ambient randomness, no
//! wall-clock-dependent decisions), so the committed per-benchmark
//! baselines below must match to the last increment on every machine
//! and build profile. A drift means the pipeline's work profile changed
//! (more atom pairs tested by the router's C1 or the ISA checker, a pass
//! suddenly rejected) — exactly the class of silent regression
//! wall-clock benchmarks cannot catch. The same compiles pin that the
//! stream oracle runs once per compile: one `isa.check` and one
//! `isa.replay` span.
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

/// The gated columns, in order: router admission attempts, optimizer
/// candidate rewrites, optimizer rejections, the two SABRE columns
/// (candidates scored, duplicate candidate enumerations skipped), the
/// router's admissions and its four rejection kinds (together they pin
/// every admission decision), the atom pairs the router's C1
/// distance-tested, and those the ISA checker's C1 distance-tested.
const COLUMNS: [&str; 12] = [
    "route.try_add",
    "opt.candidates",
    "opt.rejected",
    "transpile.score_recompute",
    "transpile.score_dedup",
    "route.gates_planned",
    "route.reject.target_conflict",
    "route.reject.addressing",
    "route.reject.order",
    "route.reject.overlap",
    "route.c1.tested",
    "isa.c1.tested",
];

/// Committed counter baselines for [`traced_config`] over the small
/// suite, plus the FNV-1a-64 hash of each benchmark's encoded ISA
/// stream. Regenerate by running this test and pasting the printed
/// rows.
const BASELINES: &[(&str, [u64; 12], u64)] = &[
    (
        "Mermin-Bell-5",
        [30, 3, 0, 18, 0, 27, 1, 2, 0, 0, 83, 0],
        0x099d2c85b752a705,
    ),
    (
        "VQE-10",
        [10, 3, 0, 0, 0, 9, 0, 1, 0, 0, 30, 0],
        0x59c8e2ec6be68e6e,
    ),
    (
        "VQE-20",
        [23, 3, 0, 0, 0, 19, 0, 4, 0, 0, 60, 0],
        0x27af8fb30e5d765e,
    ),
    (
        "Adder-10",
        [83, 3, 0, 0, 0, 65, 8, 10, 0, 0, 206, 0],
        0x665d762795a20ece,
    ),
    (
        "BV-14",
        [15, 1, 0, 0, 0, 13, 0, 2, 0, 0, 41, 0],
        0x468ee47f0ebfbb99,
    ),
    (
        "QSim-rand-5",
        [39, 3, 0, 6, 0, 35, 3, 1, 0, 0, 102, 0],
        0x3e36f40e260839c4,
    ),
    (
        "QSim-rand-10",
        [103, 3, 0, 24, 0, 88, 8, 6, 1, 0, 266, 0],
        0x281db4f5d4ea3cee,
    ),
    (
        "H2-4",
        [42, 2, 0, 0, 0, 42, 0, 0, 0, 0, 126, 0],
        0x96c01c13eac651a0,
    ),
    (
        "QAOA-rand-5",
        [3, 0, 0, 0, 0, 3, 0, 0, 0, 0, 9, 0],
        0x32de1f71cf415ed2,
    ),
    (
        "QAOA-regu3-20",
        [60, 3, 0, 24, 0, 33, 5, 10, 12, 0, 109, 2],
        0xca6abdbec10d023b,
    ),
    (
        "QAOA-regu4-10",
        [30, 2, 0, 14, 0, 23, 2, 3, 2, 0, 69, 0],
        0x2d6d81b0da85b4d5,
    ),
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

/// FNV-1a-64 over `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

type Row = (String, [u64; 12], u64);

fn render_rows(rows: &[Row]) -> String {
    let mut s = String::new();
    for (name, vals, hash) in rows {
        let cells = vals.map(|v| v.to_string()).join(", ");
        s.push_str(&format!(
            "    (\n        \"{name}\",\n        [{cells}],\n        {hash:#018x},\n    ),\n"
        ));
    }
    s
}

/// How many spans in the tree are named `name`.
fn count_spans_named(spans: &[atomique::trace::SpanNode], name: &str) -> usize {
    spans
        .iter()
        .map(|s| usize::from(s.name == name) + count_spans_named(&s.children, name))
        .sum()
}

#[test]
fn counters_match_committed_baselines_exactly() {
    let mut actual: Vec<Row> = Vec::new();
    for b in small_suite() {
        let out =
            compile(&b.circuit, &traced_config()).unwrap_or_else(|e| panic!("{}: {e}", b.name));
        for span in ["isa.check", "isa.replay"] {
            assert_eq!(
                count_spans_named(&out.report.trace.spans, span),
                1,
                "{}: the stream oracle ran more than once ({span})",
                b.name
            );
        }
        let mut vals = [0u64; 12];
        for (v, col) in vals.iter_mut().zip(COLUMNS) {
            *v = out.report.counter(col);
        }
        let isa = out.isa.as_ref().expect("emit_isa attaches the stream");
        let hash = fnv1a64(&raa_isa::codec::to_bytes(isa));
        actual.push((b.name.to_string(), vals, hash));
    }
    let expected: Vec<Row> = BASELINES
        .iter()
        .map(|(n, v, h)| (n.to_string(), *v, *h))
        .collect();
    assert_eq!(
        actual,
        expected,
        "\ncounter baselines drifted (columns: {COLUMNS:?}, then the ISA hash).\n\
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
