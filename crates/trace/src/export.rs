//! Serialization for [`TraceReport`]s as Chrome trace-event JSON,
//! loadable in Perfetto / `chrome://tracing`.
//!
//! The writers are deterministic: the same report always yields the
//! same bytes. Span timestamps are nanoseconds internally; the Chrome
//! format's microsecond `ts`/`dur` fields are written with three
//! decimals, so the conversion is exact and lossless. The root crate's
//! `tests/trace_export.rs` reads the export back with an independent
//! JSON parser and checks every span and counter against the report.
//!
//! # Examples
//!
//! ```
//! use raa_trace::{begin, end, span, Level};
//! use raa_trace::export::to_chrome;
//!
//! begin(Level::Detail);
//! {
//!     let _s = span("route");
//! }
//! let report = end();
//! assert!(to_chrome(&report).contains("\"traceEvents\""));
//! ```

use crate::{SpanNode, TraceReport};

/// Serializes `report` as a Chrome trace-event JSON object (open the
/// file in <https://ui.perfetto.dev> or `chrome://tracing`). Spans
/// become `"X"` complete events in depth-first order with the tree
/// depth in `args` (Perfetto nests by timestamps; the explicit depth is
/// what lets a reader rebuild the tree even through zero-duration
/// spans), counters become one `"C"` event each at the trace-end
/// timestamp.
pub fn to_chrome(report: &TraceReport) -> String {
    let mut events = Vec::new();
    chrome_events(&mut events, report, 0);
    wrap_chrome(&events)
}

/// Like [`to_chrome`], but lays several named reports side by side as
/// separate Perfetto "processes": section `i` gets `pid` `i` and a
/// `process_name` metadata event, so e.g. one trace file can carry
/// every workload × strategy cell of the scaling suite.
pub fn to_chrome_named(sections: &[(&str, &TraceReport)]) -> String {
    let mut events = Vec::new();
    for (pid, (name, report)) in sections.iter().enumerate() {
        let mut line = String::from("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":");
        line.push_str(&format!("{pid},\"tid\":0,\"args\":{{\"name\":\""));
        escape_into(&mut line, name);
        line.push_str("\"}}");
        events.push(line);
        chrome_events(&mut events, report, pid);
    }
    wrap_chrome(&events)
}

fn wrap_chrome(events: &[String]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    out.push_str(&events.join(",\n"));
    out.push_str("\n]}\n");
    out
}

fn chrome_events(events: &mut Vec<String>, report: &TraceReport, pid: usize) {
    fn walk(events: &mut Vec<String>, node: &SpanNode, depth: usize, pid: usize) {
        let mut line = String::from("{\"name\":\"");
        escape_into(&mut line, &node.name);
        line.push_str(&format!(
            "\",\"ph\":\"X\",\"pid\":{pid},\"tid\":0,\"ts\":{},\"dur\":{},\"args\":{{\"depth\":{depth}}}}}",
            micros(node.start_ns),
            micros(node.dur_ns)
        ));
        events.push(line);
        for child in &node.children {
            walk(events, child, depth + 1, pid);
        }
    }
    for root in &report.spans {
        walk(events, root, 0, pid);
    }
    let end_ns = report
        .spans
        .iter()
        .map(|s| s.start_ns + s.dur_ns)
        .max()
        .unwrap_or(0);
    for (name, value) in &report.counters {
        let mut line = String::from("{\"name\":\"");
        escape_into(&mut line, name);
        line.push_str(&format!(
            "\",\"ph\":\"C\",\"pid\":{pid},\"tid\":0,\"ts\":{},\"args\":{{\"value\":{value}}}}}",
            micros(end_ns)
        ));
        events.push(line);
    }
}

/// Nanoseconds as a microsecond decimal with exactly three fractional
/// digits: lossless and byte-stable.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// JSON string escape for span/counter names: canonical (one spelling
/// per string) so serialization stays byte-stable.
fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TraceReport {
        TraceReport {
            spans: vec![
                SpanNode {
                    name: "compile".into(),
                    start_ns: 0,
                    dur_ns: 5_500,
                    children: vec![
                        SpanNode {
                            name: "route".into(),
                            start_ns: 100,
                            dur_ns: 4_000,
                            children: vec![SpanNode {
                                name: "route.plan".into(),
                                start_ns: 100,
                                dur_ns: 0, // zero-duration child
                                children: Vec::new(),
                            }],
                        },
                        SpanNode {
                            name: "verify".into(),
                            start_ns: 4_200,
                            dur_ns: 1_000,
                            children: Vec::new(),
                        },
                    ],
                },
                SpanNode {
                    name: "tail \"quoted\"\n".into(),
                    start_ns: 6_000,
                    dur_ns: 1,
                    children: Vec::new(),
                },
            ],
            counters: vec![("opt.rejected".into(), 3), ("route.try_add".into(), 42)],
        }
    }

    /// The exact bytes of [`to_chrome`] on [`sample`]: a nested
    /// zero-duration span, an escaped name, sub-microsecond timestamps
    /// and counters at the trace end.
    #[test]
    fn chrome_shape_is_loadable() {
        let expected = r#"{"displayTimeUnit":"ms","traceEvents":[
{"name":"compile","ph":"X","pid":0,"tid":0,"ts":0.000,"dur":5.500,"args":{"depth":0}},
{"name":"route","ph":"X","pid":0,"tid":0,"ts":0.100,"dur":4.000,"args":{"depth":1}},
{"name":"route.plan","ph":"X","pid":0,"tid":0,"ts":0.100,"dur":0.000,"args":{"depth":2}},
{"name":"verify","ph":"X","pid":0,"tid":0,"ts":4.200,"dur":1.000,"args":{"depth":1}},
{"name":"tail \"quoted\"\n","ph":"X","pid":0,"tid":0,"ts":6.000,"dur":0.001,"args":{"depth":0}},
{"name":"opt.rejected","ph":"C","pid":0,"tid":0,"ts":6.001,"args":{"value":3}},
{"name":"route.try_add","ph":"C","pid":0,"tid":0,"ts":6.001,"args":{"value":42}}
]}
"#;
        assert_eq!(to_chrome(&sample()), expected);
    }

    /// The exact bytes of [`to_chrome_named`]: one `process_name`
    /// metadata event per section, then that section's events under its
    /// pid, an empty report contributing only its metadata.
    #[test]
    fn named_sections_get_pids() {
        let counters_only = TraceReport {
            spans: Vec::new(),
            counters: vec![("a".into(), 0), ("b".into(), u64::MAX)],
        };
        let expected = r#"{"displayTimeUnit":"ms","traceEvents":[
{"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"empty"}},
{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"counters \"only\""}},
{"name":"a","ph":"C","pid":1,"tid":0,"ts":0.000,"args":{"value":0}},
{"name":"b","ph":"C","pid":1,"tid":0,"ts":0.000,"args":{"value":18446744073709551615}},
{"name":"process_name","ph":"M","pid":2,"tid":0,"args":{"name":"sample"}},
{"name":"compile","ph":"X","pid":2,"tid":0,"ts":0.000,"dur":5.500,"args":{"depth":0}},
{"name":"route","ph":"X","pid":2,"tid":0,"ts":0.100,"dur":4.000,"args":{"depth":1}},
{"name":"route.plan","ph":"X","pid":2,"tid":0,"ts":0.100,"dur":0.000,"args":{"depth":2}},
{"name":"verify","ph":"X","pid":2,"tid":0,"ts":4.200,"dur":1.000,"args":{"depth":1}},
{"name":"tail \"quoted\"\n","ph":"X","pid":2,"tid":0,"ts":6.000,"dur":0.001,"args":{"depth":0}},
{"name":"opt.rejected","ph":"C","pid":2,"tid":0,"ts":6.001,"args":{"value":3}},
{"name":"route.try_add","ph":"C","pid":2,"tid":0,"ts":6.001,"args":{"value":42}}
]}
"#;
        let text = to_chrome_named(&[
            ("empty", &TraceReport::default()),
            ("counters \"only\"", &counters_only),
            ("sample", &sample()),
        ]);
        assert_eq!(text, expected);
    }
}
