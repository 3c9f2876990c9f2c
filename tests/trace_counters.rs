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
//! `isa.replay` span. [`figures_match_committed_pins_bit_for_bit`]
//! pins the float figures (execution time, move distances, fidelity
//! factors) of the same compiles to their exact bits.
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
        [30, 2, 0, 18, 0, 27, 1, 2, 0, 0, 83, 0],
        0x099d2c85b752a705,
    ),
    (
        "VQE-10",
        [10, 2, 0, 0, 0, 9, 0, 1, 0, 0, 30, 0],
        0x59c8e2ec6be68e6e,
    ),
    (
        "VQE-20",
        [23, 2, 0, 0, 0, 19, 0, 4, 0, 0, 60, 0],
        0x27af8fb30e5d765e,
    ),
    (
        "Adder-10",
        [83, 2, 0, 0, 0, 65, 8, 10, 0, 0, 206, 0],
        0x665d762795a20ece,
    ),
    (
        "BV-14",
        [15, 1, 0, 0, 0, 13, 0, 2, 0, 0, 41, 0],
        0x468ee47f0ebfbb99,
    ),
    (
        "QSim-rand-5",
        [39, 2, 0, 6, 0, 35, 3, 1, 0, 0, 102, 0],
        0x3e36f40e260839c4,
    ),
    (
        "QSim-rand-10",
        [103, 2, 0, 24, 0, 88, 8, 6, 1, 0, 266, 0],
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
        [60, 2, 0, 24, 0, 33, 5, 10, 12, 0, 109, 2],
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

/// Committed FNV-1a-64 hashes of each small-suite benchmark's float
/// figures under [`traced_config`] (see [`figure_hash`]). The counters
/// and ISA bytes above cannot see a move distance or a fidelity factor
/// that drifts in its last bits; these can. Regenerate like
/// [`BASELINES`].
const FIGURE_PINS: &[(&str, u64)] = &[
    ("Mermin-Bell-5", 0xfda212e7cc077cbc),
    ("VQE-10", 0x3e6769c465800071),
    ("VQE-20", 0xbd1d9d9d0dedb2dc),
    ("Adder-10", 0xbaef594f04f22eee),
    ("BV-14", 0x18c6407f67e649e7),
    ("QSim-rand-5", 0x32f1a44d9ceee6f7),
    ("QSim-rand-10", 0xb224f8fb94f3a473),
    ("H2-4", 0x06fafdfce3dc8c9b),
    ("QAOA-rand-5", 0xa60fbb6fd8c8e458),
    ("QAOA-regu3-20", 0xa84591d562d35069),
    ("QAOA-regu4-10", 0xa493820f11bf7450),
];

/// FNV-1a-64 over the exact bits of the execution time, the total and
/// average move distance and the seven fidelity factors, then the
/// cooling events and movement stages.
fn figure_hash(out: &atomique::CompiledProgram) -> u64 {
    let (s, f) = (&out.stats, &out.fidelity);
    let floats = [
        s.execution_time_s,
        s.total_move_distance_mm,
        s.avg_move_distance_mm,
        f.one_qubit,
        f.two_qubit,
        f.transfer,
        f.move_heating,
        f.move_cooling,
        f.move_loss,
        f.move_decoherence,
    ];
    let words = floats
        .iter()
        .map(|v| v.to_bits())
        .chain([s.cooling_events as u64, s.num_move_stages as u64]);
    let bytes: Vec<u8> = words.flat_map(u64::to_le_bytes).collect();
    fnv1a64(&bytes)
}

#[test]
fn figures_match_committed_pins_bit_for_bit() {
    let actual: Vec<(String, u64)> = small_suite()
        .iter()
        .map(|b| {
            let out =
                compile(&b.circuit, &traced_config()).unwrap_or_else(|e| panic!("{}: {e}", b.name));
            (b.name.to_string(), figure_hash(&out))
        })
        .collect();
    let expected: Vec<(String, u64)> = FIGURE_PINS
        .iter()
        .map(|(n, h)| (n.to_string(), *h))
        .collect();
    let rows: String = actual
        .iter()
        .map(|(n, h)| format!("    (\"{n}\", {h:#018x}),\n"))
        .collect();
    assert_eq!(
        actual, expected,
        "\nfigure pins drifted. If the change is intentional, replace\n\
         FIGURE_PINS in tests/trace_counters.rs with:\n{rows}"
    );
}

/// The zero-fault case of the chaos work: with no `RAA_FAULT_SPEC`
/// armed (the only state this binary ever runs in), fault injection is
/// completely inert — compiles leave no registry state behind, and the
/// exact baselines above hold. The compiler has no fault points of its
/// own (the seams live in `raa-serve` and `raa-par`), so its counters
/// name none.
#[test]
fn fault_instrumentation_is_inert_when_disarmed() {
    assert!(!raa_fault::active(), "no test in this binary arms faults");
    for b in small_suite().into_iter().take(3) {
        let out =
            compile(&b.circuit, &traced_config()).unwrap_or_else(|e| panic!("{}: {e}", b.name));
        let counters = out.report.counters();
        assert!(
            counters.iter().all(|(name, _)| !name.contains("fault")),
            "{}: fault counter in {counters:?}",
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
