//! Property tests of the tracing runtime under randomized nesting
//! scripts.
//!
//! A script is a sequence of `Open`, `Close` and `Add` operations
//! executed against a detail-level session on a dedicated thread
//! (sessions are thread-local). The properties:
//!
//! * the report's span tree is well-formed: one node per `Open`
//!   (unbalanced scripts are healed — stray `Close`s ignored, spans
//!   still open at `end()` closed at the session's end instant), every
//!   child interval nested inside its parent's, durations non-negative;
//! * counter totals equal the sums the script performed, zero-delta
//!   counters are omitted, and windowed deltas ([`raa_trace::mark`] /
//!   [`raa_trace::report_since`]) never exceed session totals
//!   (monotonicity).
//!
//! The root crate's `tests/trace_export.rs` checks the Chrome export of
//! the same kind of scripts with an independent JSON reader.

use proptest::prelude::*;
use raa_trace::{Counter, Level, SpanGuard, TraceReport};

/// Span names scripts draw from. Repeats are deliberate: sibling spans
/// with equal names exercise `span_total_s`'s outermost-only summation.
const NAMES: [&str; 4] = ["prop.alpha", "prop.beta", "prop.gamma", "prop.alpha"];

static PROP_A: Counter = Counter::new("prop.count.a");
static PROP_B: Counter = Counter::new("prop.count.b");

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Open a span with `NAMES[i]`.
    Open(usize),
    /// Close the innermost still-open scripted span (no-op when none).
    Close,
    /// `PROP_A` += n when false, `PROP_B` += n when true.
    Add(bool, u64),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    // (selector, name index, amount) → Op. Selectors 0–2 open, 3–5
    // close, 6–7 bump one of the two counters — vendored proptest has
    // no `prop_oneof`, so the choice is encoded as a range.
    let op = (0usize..8, 0..NAMES.len(), 0u64..100).prop_map(|(sel, name, n)| match sel {
        0..=2 => Op::Open(name),
        3..=5 => Op::Close,
        6 => Op::Add(false, n),
        _ => Op::Add(true, n),
    });
    proptest::collection::vec(op, 0..48)
}

/// Runs `script` against a fresh detail session on its own thread and
/// returns (full report, windowed report from the script's midpoint,
/// expected totals for the two counters, number of `Open` ops).
fn run_script(script: Vec<Op>) -> (TraceReport, TraceReport, [u64; 2], usize) {
    std::thread::spawn(move || {
        raa_trace::begin(Level::Detail);
        let mut stack: Vec<SpanGuard> = Vec::new();
        let mut expected = [0u64; 2];
        let mut opens = 0usize;
        let mid = script.len() / 2;
        let mut mark = raa_trace::mark();
        for (i, op) in script.into_iter().enumerate() {
            if i == mid {
                mark = raa_trace::mark();
            }
            match op {
                Op::Open(name) => {
                    stack.push(raa_trace::span(NAMES[name]));
                    opens += 1;
                }
                Op::Close => {
                    stack.pop();
                }
                Op::Add(which, n) => {
                    let c = if which { &PROP_B } else { &PROP_A };
                    c.add(n);
                    expected[usize::from(which)] += n;
                }
            }
        }
        let window = raa_trace::report_since(&mark);
        // `end()` must close whatever the script left open.
        drop(stack);
        (raa_trace::end(), window, expected, opens)
    })
    .join()
    .expect("script thread panicked")
}

/// (node count, deepest violation) over a span forest: every child
/// interval must nest inside its parent's.
fn check_nesting(spans: &[raa_trace::SpanNode]) -> usize {
    let mut count = 0;
    for s in spans {
        count += 1;
        let end = s.start_ns + s.dur_ns;
        for c in &s.children {
            assert!(
                c.start_ns >= s.start_ns && c.start_ns + c.dur_ns <= end,
                "child {} [{}, {}] escapes parent {} [{}, {}]",
                c.name,
                c.start_ns,
                c.start_ns + c.dur_ns,
                s.name,
                s.start_ns,
                end
            );
        }
        count += check_nesting(&s.children);
    }
    count
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn span_tree_is_well_formed_and_counters_exact(script in ops()) {
        let opens_expected = script.iter().filter(|o| matches!(o, Op::Open(_))).count();
        let (report, window, expected, opens) = run_script(script);
        prop_assert_eq!(opens, opens_expected);
        // Balanced enter/exit: every Open produced exactly one node,
        // stray Closes produced none.
        prop_assert_eq!(check_nesting(&report.spans), opens);
        prop_assert_eq!(report.counter("prop.count.a"), expected[0]);
        prop_assert_eq!(report.counter("prop.count.b"), expected[1]);
        // Zero-delta counters are omitted entirely.
        for (name, value) in report.counters.iter() {
            prop_assert!(*value > 0, "zero-delta counter {} reported", name);
        }
        // Monotonicity: a window's deltas never exceed the session's.
        prop_assert!(window.counter("prop.count.a") <= expected[0]);
        prop_assert!(window.counter("prop.count.b") <= expected[1]);
        check_nesting(&window.spans);
    }
}
