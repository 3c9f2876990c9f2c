//! The Chrome trace export read back by an independent reader: the
//! general JSON parser [`raa_isa::json::parse`], not an inverse of the
//! writer. Every span of a report must appear as one `"X"` event, in
//! depth-first order, with its exact name, start, duration and tree
//! depth; every counter as one `"C"` event with its exact value. The
//! reports come from randomized span scripts run against a live
//! detail session, and from a real traced compile.

use atomique::trace::export::{to_chrome, to_chrome_named};
use atomique::trace::{Counter, Level, SpanGuard, SpanNode, TraceReport};
use atomique::{compile, AtomiqueConfig, OptLevel};
use proptest::prelude::*;
use raa_isa::json::parse;

/// Span names scripts draw from, including ones the writer must escape.
const NAMES: [&str; 4] = [
    "export.alpha",
    "export \"quoted\"",
    "export\\path\n",
    "export.\u{7}bell",
];

static COUNTERS: [Counter; 2] = [
    Counter::new("export.count.a"),
    Counter::new("export.count\tb"),
];

/// Runs a script of `(op, name, amount)` steps in a fresh detail session
/// on its own thread (sessions are thread-local) and returns its report.
/// Ops 0–2 open a span named `NAMES[name]`, 3–5 close the innermost
/// open one, 6 and 7 add `amount` to one of the two counters.
fn run_script(script: Vec<(usize, usize, u64)>) -> TraceReport {
    std::thread::spawn(move || {
        atomique::trace::begin(Level::Detail);
        let mut open: Vec<SpanGuard> = Vec::new();
        for (op, name, amount) in script {
            match op {
                0..=2 => open.push(atomique::trace::span(NAMES[name])),
                3..=5 => drop(open.pop()),
                _ => COUNTERS[op - 6].add(amount),
            }
        }
        drop(open);
        atomique::trace::end()
    })
    .join()
    .expect("script thread panicked")
}

/// `(name, start_ns, dur_ns, depth)` of every span, depth-first.
fn flatten(spans: &[SpanNode], depth: u64, out: &mut Vec<(String, u64, u64, u64)>) {
    for s in spans {
        out.push((s.name.clone(), s.start_ns, s.dur_ns, depth));
        flatten(&s.children, depth + 1, out);
    }
}

/// Asserts that the events of process `pid` in the Chrome export `text`
/// are exactly `report`'s spans, then its counters.
fn assert_section(text: &str, pid: u64, report: &TraceReport) {
    let doc = parse(text).expect("the export is valid JSON");
    let (mut spans, mut counters) = (Vec::new(), Vec::new());
    for e in doc.field("traceEvents").unwrap().arr().unwrap() {
        let field = |key| e.field(key).expect(key);
        let nanos = |key| (field(key).num().unwrap() * 1000.0).round() as u64;
        if field("pid").uint(u64::MAX).unwrap() != pid {
            continue;
        }
        let name = field("name").str().unwrap().to_string();
        let args = field("args");
        match field("ph").str().unwrap() {
            "X" => {
                let depth = args.field("depth").unwrap().uint(u64::MAX).unwrap();
                spans.push((name, nanos("ts"), nanos("dur"), depth));
            }
            "C" => counters.push((name, args.field("value").unwrap().uint(u64::MAX).unwrap())),
            "M" => assert_eq!(name, "process_name"),
            ph => panic!("unexpected event phase {ph}"),
        }
    }
    let mut expected = Vec::new();
    flatten(&report.spans, 0, &mut expected);
    assert_eq!(spans, expected);
    assert_eq!(counters, report.counters);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn scripted_reports_export_losslessly(
        script in proptest::collection::vec((0usize..8, 0..NAMES.len(), 0u64..100), 0..48)
    ) {
        let report = run_script(script);
        assert_section(&to_chrome(&report), 0, &report);
    }
}

#[test]
fn a_traced_compile_exports_losslessly() {
    let config = AtomiqueConfig {
        emit_isa: true,
        opt_level: OptLevel::Aggressive,
        trace: true,
        ..AtomiqueConfig::default()
    };
    let out = compile(&raa_benchmarks::qaoa_regular(10, 3, 7), &config).unwrap();
    let trace = &out.report.trace;
    assert!(trace.find("route.plan").is_some() && !trace.counters.is_empty());
    assert_section(&to_chrome(trace), 0, trace);

    let scripted = run_script(vec![(0, 1, 0), (7, 0, 5), (3, 0, 0)]);
    let named = to_chrome_named(&[("compile", trace), ("script", &scripted)]);
    assert_section(&named, 0, trace);
    assert_section(&named, 1, &scripted);
}
