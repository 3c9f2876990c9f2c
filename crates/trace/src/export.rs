//! Serialization for [`TraceReport`]s: JSONL (this crate's native
//! line-oriented format) and Chrome trace-event JSON, loadable in
//! Perfetto / `chrome://tracing`.
//!
//! Both writers are deterministic — the same report always yields the
//! same bytes — and both formats round-trip: [`from_jsonl`] /
//! [`from_chrome`] are strict parsers for exactly what [`to_jsonl`] /
//! [`to_chrome`] emit (field order fixed, no whitespace variants), and
//! `crates/trace/tests/trace_properties.rs` proves
//! `to(from(to(r))) == to(r)` byte-for-byte under randomized reports.
//! They are *not* general JSON parsers; feeding them third-party trace
//! files yields a [`ParseError`], not a lenient guess.
//!
//! Span timestamps are nanoseconds internally; the Chrome format's
//! microsecond `ts`/`dur` fields are written with three decimals, so
//! the conversion is exact and lossless.
//!
//! # Examples
//!
//! ```
//! use raa_trace::{begin, end, span, Level};
//! use raa_trace::export::{from_jsonl, to_chrome, to_jsonl};
//!
//! begin(Level::Detail);
//! {
//!     let _s = span("route");
//! }
//! let report = end();
//! let jsonl = to_jsonl(&report);
//! assert_eq!(from_jsonl(&jsonl).unwrap(), report);
//! assert!(to_chrome(&report).contains("\"traceEvents\""));
//! ```

use crate::{SpanNode, TraceReport};

/// A strict-parse failure from [`from_jsonl`] or [`from_chrome`]:
/// the line (1-based) and what was expected there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending input line.
    pub line: usize,
    /// What the parser expected at the failure point.
    pub expected: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "trace parse error at line {}: {}",
            self.line, self.expected
        )
    }
}

impl std::error::Error for ParseError {}

/// Serializes `report` as JSONL: one span record per line in
/// depth-first order (`depth` encodes the tree), then one counter
/// record per line in name order.
pub fn to_jsonl(report: &TraceReport) -> String {
    let mut out = String::new();
    fn walk(out: &mut String, node: &SpanNode, depth: usize) {
        out.push_str("{\"type\":\"span\",\"name\":\"");
        escape_into(out, &node.name);
        out.push_str(&format!(
            "\",\"depth\":{},\"start_ns\":{},\"dur_ns\":{}}}\n",
            depth, node.start_ns, node.dur_ns
        ));
        for child in &node.children {
            walk(out, child, depth + 1);
        }
    }
    for root in &report.spans {
        walk(&mut out, root, 0);
    }
    for (name, value) in &report.counters {
        out.push_str("{\"type\":\"counter\",\"name\":\"");
        escape_into(&mut out, name);
        out.push_str(&format!("\",\"value\":{value}}}\n"));
    }
    out
}

/// Parses [`to_jsonl`] output back into a report. Strict: exact field
/// order, no extra whitespace, depths must nest (a record at depth `d`
/// needs an open ancestor chain of length `d`), counters must follow
/// spans in sorted order.
pub fn from_jsonl(text: &str) -> Result<TraceReport, ParseError> {
    let mut report = TraceReport::default();
    // Open ancestor chain: stack[d] is the index path to the node a
    // depth-(d+1) record attaches under.
    let mut stack: Vec<usize> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let mut cur = Cursor::new(line, i + 1);
        cur.expect("{\"type\":\"")?;
        if cur.eat("span\",\"name\":\"") {
            let name = cur.string()?;
            cur.expect("\",\"depth\":")?;
            let depth = cur.u64()? as usize;
            cur.expect(",\"start_ns\":")?;
            let start_ns = cur.u64()?;
            cur.expect(",\"dur_ns\":")?;
            let dur_ns = cur.u64()?;
            cur.expect("}")?;
            cur.finish()?;
            if depth > stack.len() {
                return Err(cur.err("a depth nested under an open ancestor"));
            }
            stack.truncate(depth);
            let siblings = follow(&mut report.spans, &stack);
            siblings.push(SpanNode {
                name,
                start_ns,
                dur_ns,
                children: Vec::new(),
            });
            stack.push(siblings.len() - 1);
        } else if cur.eat("counter\",\"name\":\"") {
            let name = cur.string()?;
            cur.expect("\",\"value\":")?;
            let value = cur.u64()?;
            cur.expect("}")?;
            cur.finish()?;
            if let Some((last, _)) = report.counters.last() {
                if *last >= name {
                    return Err(cur.err("counter names in strictly ascending order"));
                }
            }
            report.counters.push((name, value));
        } else {
            return Err(cur.err("record type `span` or `counter`"));
        }
    }
    Ok(report)
}

/// The sibling list reached by following `path` child indices from the
/// roots.
fn follow<'a>(roots: &'a mut Vec<SpanNode>, path: &[usize]) -> &'a mut Vec<SpanNode> {
    let mut nodes = roots;
    for &i in path {
        nodes = &mut nodes[i].children;
    }
    nodes
}

/// Serializes `report` as a Chrome trace-event JSON object (open the
/// file in <https://ui.perfetto.dev> or `chrome://tracing`). Spans
/// become `"X"` complete events in depth-first order with the tree
/// depth in `args` (Perfetto nests by timestamps; the explicit depth is
/// what lets [`from_chrome`] rebuild the tree even through
/// zero-duration spans), counters become one `"C"` event each at the
/// trace-end timestamp.
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
/// digits — lossless, and byte-stable for round-tripping.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

fn parse_micros(cur: &mut Cursor) -> Result<u64, ParseError> {
    let whole = cur.u64()?;
    cur.expect(".")?;
    let frac = cur.digits(3)?;
    Ok(whole * 1000 + frac)
}

/// Parses single-report [`to_chrome`] output back into a report.
/// Strict: exactly the events, fields and ordering [`to_chrome`]
/// writes (so multi-process [`to_chrome_named`] files are rejected).
pub fn from_chrome(text: &str) -> Result<TraceReport, ParseError> {
    let mut report = TraceReport::default();
    let mut stack: Vec<usize> = Vec::new();
    let mut lines = text.lines().enumerate();
    {
        let (i, first) = lines
            .next()
            .ok_or_else(|| Cursor::new("", 1).err("a chrome trace header"))?;
        let mut cur = Cursor::new(first, i + 1);
        cur.expect("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
        cur.finish()?;
    }
    for (i, line) in lines {
        if line == "]}" || line.is_empty() {
            continue;
        }
        let line = line.strip_suffix(',').unwrap_or(line);
        let mut cur = Cursor::new(line, i + 1);
        cur.expect("{\"name\":\"")?;
        let name = cur.string()?;
        cur.expect("\",\"ph\":\"")?;
        if cur.eat("X\",\"pid\":0,\"tid\":0,\"ts\":") {
            let start_ns = parse_micros(&mut cur)?;
            cur.expect(",\"dur\":")?;
            let dur_ns = parse_micros(&mut cur)?;
            cur.expect(",\"args\":{\"depth\":")?;
            let depth = cur.u64()? as usize;
            cur.expect("}}")?;
            cur.finish()?;
            if depth > stack.len() {
                return Err(cur.err("a depth nested under an open ancestor"));
            }
            stack.truncate(depth);
            let siblings = follow(&mut report.spans, &stack);
            siblings.push(SpanNode {
                name,
                start_ns,
                dur_ns,
                children: Vec::new(),
            });
            stack.push(siblings.len() - 1);
        } else if cur.eat("C\",\"pid\":0,\"tid\":0,\"ts\":") {
            parse_micros(&mut cur)?;
            cur.expect(",\"args\":{\"value\":")?;
            let value = cur.u64()?;
            cur.expect("}}")?;
            cur.finish()?;
            if let Some((last, _)) = report.counters.last() {
                if *last >= name {
                    return Err(cur.err("counter names in strictly ascending order"));
                }
            }
            report.counters.push((name, value));
        } else {
            return Err(cur.err("event phase `X` or `C` with pid 0"));
        }
    }
    Ok(report)
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

/// A strict left-to-right scanner over one input line.
struct Cursor<'a> {
    rest: &'a str,
    line: usize,
}

impl<'a> Cursor<'a> {
    fn new(line: &'a str, number: usize) -> Cursor<'a> {
        Cursor {
            rest: line,
            line: number,
        }
    }

    fn err(&self, expected: &str) -> ParseError {
        ParseError {
            line: self.line,
            expected: expected.to_string(),
        }
    }

    /// Consumes `lit` if it is next; returns whether it was.
    fn eat(&mut self, lit: &str) -> bool {
        match self.rest.strip_prefix(lit) {
            Some(rest) => {
                self.rest = rest;
                true
            }
            None => false,
        }
    }

    fn expect(&mut self, lit: &str) -> Result<(), ParseError> {
        if self.eat(lit) {
            Ok(())
        } else {
            Err(self.err(&format!("`{lit}`")))
        }
    }

    fn finish(&mut self) -> Result<(), ParseError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(self.err("end of line"))
        }
    }

    fn u64(&mut self) -> Result<u64, ParseError> {
        let digits = self.rest.len()
            - self
                .rest
                .trim_start_matches(|c: char| c.is_ascii_digit())
                .len();
        if digits == 0 {
            return Err(self.err("a decimal number"));
        }
        let (num, rest) = self.rest.split_at(digits);
        self.rest = rest;
        num.parse().map_err(|_| self.err("a u64-range number"))
    }

    /// Exactly `n` digits (the fixed-width microsecond fraction).
    fn digits(&mut self, n: usize) -> Result<u64, ParseError> {
        if self.rest.len() < n || !self.rest[..n].bytes().all(|b| b.is_ascii_digit()) {
            return Err(self.err(&format!("{n} fraction digits")));
        }
        let (num, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(num.parse().expect("checked digits"))
    }

    /// A JSON string body up to its closing quote (which is left for the
    /// caller's `expect`, since the writer's field order includes it).
    fn string(&mut self) -> Result<String, ParseError> {
        let mut out = String::new();
        let mut chars = self.rest.char_indices();
        while let Some((i, c)) = chars.next() {
            match c {
                '"' => {
                    self.rest = &self.rest[i..];
                    return Ok(out);
                }
                '\\' => match chars.next() {
                    Some((_, '"')) => out.push('"'),
                    Some((_, '\\')) => out.push('\\'),
                    Some((_, 'n')) => out.push('\n'),
                    Some((_, 'r')) => out.push('\r'),
                    Some((_, 't')) => out.push('\t'),
                    Some((j, 'u')) => {
                        let hex = self
                            .rest
                            .get(j + 1..j + 5)
                            .ok_or_else(|| self.err("4 hex digits after \\u"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| self.err("4 hex digits after \\u"))?;
                        out.push(
                            char::from_u32(code).ok_or_else(|| self.err("a scalar \\u escape"))?,
                        );
                        for _ in 0..4 {
                            chars.next();
                        }
                    }
                    _ => return Err(self.err("a valid escape sequence")),
                },
                c => out.push(c),
            }
        }
        Err(self.err("a closing quote"))
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
            counters: vec![("grid.query".into(), 42), ("opt.rejected".into(), 3)],
        }
    }

    #[test]
    fn jsonl_round_trips() {
        let report = sample();
        let text = to_jsonl(&report);
        let back = from_jsonl(&text).unwrap();
        assert_eq!(back, report);
        assert_eq!(to_jsonl(&back), text, "byte-stable");
    }

    #[test]
    fn chrome_round_trips() {
        let report = sample();
        let text = to_chrome(&report);
        let back = from_chrome(&text).unwrap();
        assert_eq!(back, report);
        assert_eq!(to_chrome(&back), text, "byte-stable");
    }

    #[test]
    fn chrome_shape_is_loadable() {
        let text = to_chrome(&sample());
        assert!(text.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"));
        assert!(text.ends_with("\n]}\n"));
        assert!(text.contains("\"ph\":\"X\""));
        assert!(text.contains("\"ph\":\"C\""));
        assert!(text.contains("\"ts\":0.100")); // 100 ns exactly
    }

    #[test]
    fn named_sections_get_pids() {
        let a = sample();
        let b = TraceReport::default();
        let text = to_chrome_named(&[("qaoa-1024", &a), ("qaoa-1024 4-threads", &b)]);
        assert!(text.contains("\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0"));
        assert!(text.contains("\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1"));
        assert!(text.contains("\"ph\":\"X\",\"pid\":0"));
    }

    #[test]
    fn strict_parsers_reject_noise() {
        assert!(from_jsonl("{\"type\":\"span\" ,\"name\":\"x\"}").is_err());
        assert!(from_jsonl(
            "{\"type\":\"span\",\"name\":\"x\",\"depth\":2,\"start_ns\":0,\"dur_ns\":0}"
        )
        .is_err());
        assert!(from_chrome("[]").is_err());
        let named = to_chrome_named(&[("only", &sample())]);
        assert!(
            from_chrome(&named).is_err(),
            "multi-process format rejected"
        );
    }

    #[test]
    fn counters_alone_round_trip() {
        let report = TraceReport {
            spans: Vec::new(),
            counters: vec![("a".into(), 0), ("b".into(), u64::MAX)],
        };
        assert_eq!(from_jsonl(&to_jsonl(&report)).unwrap(), report);
        assert_eq!(from_chrome(&to_chrome(&report)).unwrap(), report);
    }
}
