//! `raa-trace` — zero-dependency hierarchical span tracing and counter
//! telemetry for the Atomique compile pipeline.
//!
//! Coarse wall-clock numbers actively mislead performance work: PR 5's
//! QAOA-1024 hot spot lived in speculative `try_add` grid churn while
//! the stage timings pointed at the retraction scan. This crate is the
//! shared substrate that makes such findings reproducible instead of
//! hand-derived: a *span tree* (nested wall-clock regions with RAII
//! guards) plus *named monotonic counters* (algorithmic event counts
//! that are machine-independent), recorded per thread and exportable as
//! Chrome trace-event JSON (loadable in Perfetto) via [`export`].
//!
//! # Model
//!
//! Tracing is organized around per-thread *sessions*. [`begin`] opens a
//! session on the calling thread at a [`Level`]; [`span`]/[`span_at`]
//! guards and [`Counter::add`] record into the innermost active session
//! of *their own* thread; [`end`] closes the session and returns the
//! accumulated [`TraceReport`]. A long-running session can be sampled
//! without closing it: [`mark`] takes a cursor and [`report_since`]
//! builds a report of everything recorded after it (the Atomique
//! compiler uses this so `compile` can attach a per-call report whether
//! or not the caller owns an enclosing session).
//!
//! Thread safety: all session state is thread-local, so concurrent
//! threads trace independently and never contend; the only shared state
//! is the lock-protected counter-name registry, touched once per
//! counter per process. Work on another thread records into that
//! thread's own session (or nowhere), never into the caller's.
//!
//! # The disabled fast path
//!
//! Every recording operation first reads one thread-local byte (the
//! current session level) and compares it against the operation's
//! level. With no session active — or a session at a lower level — a
//! span guard or counter increment is a load, a compare and a return:
//! cheap enough to leave in the router's innermost loops
//! (`tests/trace_counters.rs` holds a released-mode budget on the
//! disabled path, and the tracing-identity differential proves compiled
//! output is bit-identical with tracing on and off).
//!
//! Two levels record: [`Level::Stages`] is always on inside
//! `atomique::compile` (a dozen coarse pipeline spans, the source of
//! truth for its `StageTimings`), and [`Level::Detail`] additionally
//! records inner router/optimizer/checker phases and all counters.
//!
//! # Examples
//!
//! ```
//! use raa_trace::{begin, end, span, Counter, Level};
//!
//! static ATTEMPTS: Counter = Counter::new("route.try_add");
//!
//! begin(Level::Detail);
//! {
//!     let _outer = span("route");
//!     let _inner = span("route.plan");
//!     ATTEMPTS.add(3);
//! }
//! let report = end();
//! assert_eq!(report.spans.len(), 1);
//! assert_eq!(report.spans[0].name, "route");
//! assert_eq!(report.spans[0].children[0].name, "route.plan");
//! assert_eq!(report.counter("route.try_add"), 3);
//! ```

#![deny(missing_docs)]

pub mod export;

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// How much a session records. Ordered: a session at some level records
/// every operation at that level or below.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
#[repr(u8)]
pub enum Level {
    /// No session (or a muted one): every operation is a no-op.
    #[default]
    Off = 0,
    /// Coarse pipeline spans only — the `atomique::compile` stage
    /// ladder. Always on inside `compile`; near-free.
    Stages = 1,
    /// Everything: inner phase spans and all counters.
    Detail = 2,
}

impl Level {
    fn from_u8(v: u8) -> Level {
        match v {
            1 => Level::Stages,
            2 => Level::Detail,
            _ => Level::Off,
        }
    }
}

/// A begin/end event as recorded, before tree assembly.
enum RawEvent {
    Begin { name: &'static str, at_ns: u64 },
    End { at_ns: u64 },
}

impl RawEvent {
    fn at_ns(&self) -> u64 {
        match self {
            RawEvent::Begin { at_ns, .. } | RawEvent::End { at_ns } => *at_ns,
        }
    }
}

/// One thread's active recording session.
struct Session {
    t0: Instant,
    events: Vec<RawEvent>,
    /// Open span depth (guards against stray `End`s from guards that
    /// outlived the session they were opened in).
    depth: usize,
    /// Counter totals, indexed by registry id.
    counts: Vec<u64>,
}

impl Session {
    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }
}

thread_local! {
    /// The active session's level, duplicated out of [`SESSION`] so the
    /// disabled path is one `Cell` read instead of a `RefCell` borrow.
    static LEVEL: Cell<u8> = const { Cell::new(0) };
    static SESSION: RefCell<Option<Session>> = const { RefCell::new(None) };
}

/// Global counter-name registry: assigns each [`Counter`] a dense id so
/// an increment is a vector index, not a map lookup.
static REGISTRY: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());

/// [`Counter::new`] sentinel for "no id assigned yet".
const UNREGISTERED: usize = usize::MAX;

/// A named monotonic event counter.
///
/// Declare one as a `static` and bump it from anywhere; increments
/// record into the calling thread's session when it is at
/// [`Level::Detail`], and are a single-branch no-op otherwise. Counts
/// are monotonic within a session: there is no API to decrement or
/// reset short of ending the session.
///
/// Two `Counter` statics may share a name (e.g. the same event counted
/// from two crates); reports merge them by name.
pub struct Counter {
    name: &'static str,
    slot: AtomicUsize,
}

impl Counter {
    /// Creates a counter. `const`, so it can initialize a `static`.
    pub const fn new(name: &'static str) -> Counter {
        Counter {
            name,
            slot: AtomicUsize::new(UNREGISTERED),
        }
    }

    /// This counter's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds `n` to the counter in the calling thread's session; no-op
    /// unless a session at [`Level::Detail`] is active.
    #[inline]
    pub fn add(&self, n: u64) {
        if LEVEL.with(|l| l.get()) < Level::Detail as u8 {
            return;
        }
        let id = self.id();
        SESSION.with(|s| {
            if let Some(session) = s.borrow_mut().as_mut() {
                if session.counts.len() <= id {
                    session.counts.resize(id + 1, 0);
                }
                session.counts[id] += n;
            }
        });
    }

    /// [`Counter::add`]`(1)`.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// The registry id, assigned on first use.
    fn id(&self) -> usize {
        let cached = self.slot.load(Ordering::Relaxed);
        if cached != UNREGISTERED {
            return cached;
        }
        let mut registry = REGISTRY.lock().expect("counter registry poisoned");
        // Re-check under the lock: another thread may have registered
        // this counter while we waited.
        let cached = self.slot.load(Ordering::Relaxed);
        if cached != UNREGISTERED {
            return cached;
        }
        registry.push(self.name);
        let id = registry.len() - 1;
        self.slot.store(id, Ordering::Relaxed);
        id
    }
}

/// An RAII span guard: records a begin event on construction (when the
/// session level admits it) and the matching end event on drop.
/// Create via [`span`] or [`span_at`]; drop order gives well-nested
/// trees by construction.
#[must_use = "a span measures the scope holding its guard"]
pub struct SpanGuard {
    armed: bool,
}

/// Opens a [`Level::Detail`] span named `name`.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    span_at(name, Level::Detail)
}

/// Opens a span recorded at sessions of `level` or above.
#[inline]
pub fn span_at(name: &'static str, level: Level) -> SpanGuard {
    if LEVEL.with(|l| l.get()) < level as u8 {
        return SpanGuard { armed: false };
    }
    SESSION.with(|s| {
        if let Some(session) = s.borrow_mut().as_mut() {
            let at_ns = session.now_ns();
            session.events.push(RawEvent::Begin { name, at_ns });
            session.depth += 1;
        }
    });
    SpanGuard { armed: true }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        SESSION.with(|s| {
            if let Some(session) = s.borrow_mut().as_mut() {
                if session.depth > 0 {
                    let at_ns = session.now_ns();
                    session.events.push(RawEvent::End { at_ns });
                    session.depth -= 1;
                }
            }
        });
    }
}

/// Opens a session on the calling thread at `level`, replacing (and
/// discarding) any session already active on this thread.
pub fn begin(level: Level) {
    LEVEL.with(|l| l.set(level as u8));
    SESSION.with(|s| {
        *s.borrow_mut() = Some(Session {
            t0: Instant::now(),
            events: Vec::new(),
            depth: 0,
            counts: Vec::new(),
        });
    });
}

/// Closes the calling thread's session and returns everything it
/// recorded. Returns an empty report when no session is active. Spans
/// still open are closed at the session's end instant.
pub fn end() -> TraceReport {
    LEVEL.with(|l| l.set(Level::Off as u8));
    let session = SESSION.with(|s| s.borrow_mut().take());
    match session {
        Some(mut session) => {
            close_open_spans(&mut session);
            build_report(&session.events, &session.counts, &[])
        }
        None => TraceReport::default(),
    }
}

/// Runs `f` in a fresh session at `level` on the calling thread and
/// returns its result with everything that session recorded. The
/// caller's session, if any, is set aside meanwhile and restored
/// afterwards, also when `f` unwinds: nothing `f` records reaches it,
/// and it records on as before.
pub fn isolated<R>(level: Level, f: impl FnOnce() -> R) -> (R, TraceReport) {
    /// Puts the caller's session back on drop.
    struct Restore {
        level: u8,
        session: Option<Session>,
    }
    impl Drop for Restore {
        fn drop(&mut self) {
            LEVEL.with(|l| l.set(self.level));
            SESSION.with(|s| *s.borrow_mut() = self.session.take());
        }
    }
    let _restore = Restore {
        level: LEVEL.with(|l| l.get()),
        session: SESSION.with(|s| s.borrow_mut().take()),
    };
    begin(level);
    let result = f();
    (result, end())
}

/// Whether the calling thread has an active session.
pub fn active() -> bool {
    LEVEL.with(|l| l.get()) != Level::Off as u8
}

/// The calling thread's session level ([`Level::Off`] when none).
pub fn level() -> Level {
    Level::from_u8(LEVEL.with(|l| l.get()))
}

/// A cursor into the calling thread's session, for [`report_since`].
#[derive(Debug, Clone)]
pub struct Mark {
    events: usize,
    counts: Vec<u64>,
}

/// Takes a cursor at the session's current position. With no active
/// session the mark is empty (and [`report_since`] returns an empty
/// report).
pub fn mark() -> Mark {
    SESSION.with(|s| match s.borrow().as_ref() {
        Some(session) => Mark {
            events: session.events.len(),
            counts: session.counts.clone(),
        },
        None => Mark {
            events: 0,
            counts: Vec::new(),
        },
    })
}

/// Builds a report of everything recorded after `mark`, without closing
/// the session: the span tree from spans begun at or after the mark
/// (spans still open are closed at the current instant) and counter
/// *deltas* since the mark. Span offsets stay relative to the session
/// start, so successive samples of one session share a clock.
pub fn report_since(mark: &Mark) -> TraceReport {
    SESSION.with(|s| match s.borrow().as_ref() {
        Some(session) => {
            let now = session.now_ns();
            let from = mark.events.min(session.events.len());
            build_report_closing(&session.events[from..], &session.counts, &mark.counts, now)
        }
        None => TraceReport::default(),
    })
}

/// Closes still-open spans at the end instant so every begin has an end.
fn close_open_spans(session: &mut Session) {
    let at_ns = session.now_ns();
    for _ in 0..session.depth {
        session.events.push(RawEvent::End { at_ns });
    }
    session.depth = 0;
}

fn build_report(events: &[RawEvent], counts: &[u64], baseline: &[u64]) -> TraceReport {
    let now = events.iter().map(RawEvent::at_ns).max().unwrap_or(0);
    build_report_closing(events, counts, baseline, now)
}

/// Assembles the span tree from a balanced-or-prefix event slice
/// (unmatched begins close at `now_ns`; stray ends are ignored) and the
/// counter deltas `counts - baseline`.
fn build_report_closing(
    events: &[RawEvent],
    counts: &[u64],
    baseline: &[u64],
    now_ns: u64,
) -> TraceReport {
    let mut roots: Vec<SpanNode> = Vec::new();
    let mut stack: Vec<SpanNode> = Vec::new();
    let attach = |stack: &mut Vec<SpanNode>, roots: &mut Vec<SpanNode>, node: SpanNode| match stack
        .last_mut()
    {
        Some(parent) => parent.children.push(node),
        None => roots.push(node),
    };
    for event in events {
        match event {
            RawEvent::Begin { name, at_ns } => stack.push(SpanNode {
                name: (*name).to_string(),
                start_ns: *at_ns,
                dur_ns: 0,
                children: Vec::new(),
            }),
            RawEvent::End { at_ns } => {
                if let Some(mut node) = stack.pop() {
                    node.dur_ns = at_ns.saturating_sub(node.start_ns);
                    attach(&mut stack, &mut roots, node);
                }
            }
        }
    }
    while let Some(mut node) = stack.pop() {
        node.dur_ns = now_ns.saturating_sub(node.start_ns);
        attach(&mut stack, &mut roots, node);
    }

    let registry = REGISTRY.lock().expect("counter registry poisoned");
    let mut merged: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    for (id, &total) in counts.iter().enumerate() {
        let before = baseline.get(id).copied().unwrap_or(0);
        let delta = total.saturating_sub(before);
        if delta > 0 {
            *merged.entry(registry[id].to_string()).or_insert(0) += delta;
        }
    }
    TraceReport {
        spans: roots,
        counters: merged.into_iter().collect(),
    }
}

/// One node of the span tree: a named wall-clock region and its nested
/// children. Offsets and durations are nanoseconds from the session
/// start; children are listed in begin order and lie within their
/// parent's interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// The span's name, as passed to [`span`]/[`span_at`].
    pub name: String,
    /// Begin offset, ns from session start.
    pub start_ns: u64,
    /// Wall-clock duration, ns.
    pub dur_ns: u64,
    /// Nested spans, in begin order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Duration in seconds.
    pub fn dur_s(&self) -> f64 {
        self.dur_ns as f64 / 1e9
    }
}

/// Everything one session (or one [`report_since`] window) recorded:
/// the top-level spans and the counter totals, sorted by name.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceReport {
    /// Top-level spans, in begin order.
    pub spans: Vec<SpanNode>,
    /// `(name, total)` counter pairs, sorted by name; zero counters are
    /// omitted.
    pub counters: Vec<(String, u64)>,
}

impl TraceReport {
    /// The total of counter `name` (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .map(|i| self.counters[i].1)
            .unwrap_or(0)
    }

    /// Depth-first search for the first span named `name`.
    pub fn find(&self, name: &str) -> Option<&SpanNode> {
        fn walk<'a>(nodes: &'a [SpanNode], name: &str) -> Option<&'a SpanNode> {
            for node in nodes {
                if node.name == name {
                    return Some(node);
                }
                if let Some(found) = walk(&node.children, name) {
                    return Some(found);
                }
            }
            None
        }
        walk(&self.spans, name)
    }

    /// Summed duration (seconds) of every *outermost* span named
    /// `name`: a match's children are not searched, so nested same-name
    /// spans are never double-counted.
    pub fn span_total_s(&self, name: &str) -> f64 {
        fn walk(nodes: &[SpanNode], name: &str) -> u64 {
            nodes
                .iter()
                .map(|n| {
                    if n.name == name {
                        n.dur_ns
                    } else {
                        walk(&n.children, name)
                    }
                })
                .sum()
        }
        walk(&self.spans, name) as f64 / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static TEST_COUNTER_A: Counter = Counter::new("test.alpha");
    static TEST_COUNTER_B: Counter = Counter::new("test.beta");
    static TEST_COUNTER_A2: Counter = Counter::new("test.alpha");

    #[test]
    fn no_session_records_nothing() {
        // Sessions are thread-local; run on a fresh thread to be
        // independent of other tests on this thread.
        std::thread::spawn(|| {
            assert!(!active());
            TEST_COUNTER_A.incr();
            let _g = span("ignored");
            assert_eq!(end(), TraceReport::default());
        })
        .join()
        .unwrap();
    }

    #[test]
    fn nesting_and_counters_round_trip() {
        std::thread::spawn(|| {
            begin(Level::Detail);
            {
                let _a = span("a");
                {
                    let _b = span("a.b");
                    TEST_COUNTER_A.add(2);
                    TEST_COUNTER_A2.add(3); // same name, distinct static
                }
                TEST_COUNTER_B.incr();
            }
            let report = end();
            assert_eq!(report.spans.len(), 1);
            let a = &report.spans[0];
            assert_eq!(a.name, "a");
            assert_eq!(a.children.len(), 1);
            assert!(a.children[0].start_ns >= a.start_ns);
            assert!(a.children[0].dur_ns <= a.dur_ns);
            assert_eq!(report.counter("test.alpha"), 5);
            assert_eq!(report.counter("test.beta"), 1);
            assert_eq!(report.counter("test.gamma"), 0);
            assert!(!active());
        })
        .join()
        .unwrap();
    }

    #[test]
    fn stages_session_mutes_detail() {
        std::thread::spawn(|| {
            begin(Level::Stages);
            assert_eq!(level(), Level::Stages);
            let _coarse = span_at("stage", Level::Stages);
            let _fine = span("detail");
            TEST_COUNTER_A.incr();
            drop(_fine);
            drop(_coarse);
            let report = end();
            assert_eq!(report.spans.len(), 1);
            assert_eq!(report.spans[0].name, "stage");
            assert!(report.spans[0].children.is_empty());
            assert!(report.counters.is_empty());
        })
        .join()
        .unwrap();
    }

    #[test]
    fn isolated_session_sets_the_caller_aside_and_restores_it() {
        std::thread::spawn(|| {
            begin(Level::Stages);
            let _outer = span_at("outer", Level::Stages);
            let ((), inner) = isolated(Level::Detail, || {
                let _s = span("inner");
                TEST_COUNTER_A.add(3);
            });
            assert_eq!(inner.counter("test.alpha"), 3);
            assert_eq!(inner.spans[0].name, "inner");
            assert_eq!(level(), Level::Stages);

            // A panic inside restores the caller's session too.
            let unwound = std::panic::catch_unwind(|| {
                isolated(Level::Detail, || {
                    let _s = span("doomed");
                    panic!("injected");
                })
            });
            assert!(unwound.is_err());
            assert_eq!(level(), Level::Stages);
            drop(_outer);
            let caller = end();
            assert_eq!(caller.spans.len(), 1);
            assert_eq!(caller.spans[0].name, "outer");
            assert!(caller.spans[0].children.is_empty());
            assert!(caller.counters.is_empty());

            // With no caller session, none is left behind.
            let (_, report) = isolated(Level::Detail, || TEST_COUNTER_B.incr());
            assert_eq!(report.counter("test.beta"), 1);
            assert!(!active());
        })
        .join()
        .unwrap();
    }

    #[test]
    fn mark_and_report_since_window() {
        std::thread::spawn(|| {
            begin(Level::Detail);
            TEST_COUNTER_A.add(10);
            {
                let _early = span("early");
            }
            let m = mark();
            TEST_COUNTER_A.add(4);
            {
                let _late = span("late");
            }
            let windowed = report_since(&m);
            assert_eq!(windowed.spans.len(), 1);
            assert_eq!(windowed.spans[0].name, "late");
            assert_eq!(windowed.counter("test.alpha"), 4);
            // The session is still live and holds everything.
            let full = end();
            assert_eq!(full.spans.len(), 2);
            assert_eq!(full.counter("test.alpha"), 14);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn unclosed_spans_are_closed_at_end() {
        std::thread::spawn(|| {
            begin(Level::Detail);
            let guard = span("open");
            let report = end();
            assert_eq!(report.spans.len(), 1);
            assert_eq!(report.spans[0].name, "open");
            drop(guard); // stray drop after the session closed: no-op
            assert_eq!(end(), TraceReport::default());
        })
        .join()
        .unwrap();
    }

    #[test]
    fn span_total_skips_nested_same_name() {
        let report = TraceReport {
            spans: vec![SpanNode {
                name: "x".into(),
                start_ns: 0,
                dur_ns: 100,
                children: vec![SpanNode {
                    name: "x".into(),
                    start_ns: 10,
                    dur_ns: 50,
                    children: Vec::new(),
                }],
            }],
            counters: Vec::new(),
        };
        assert!((report.span_total_s("x") - 100e-9).abs() < 1e-15);
        assert_eq!(report.find("x").unwrap().dur_ns, 100);
    }

    #[test]
    fn threads_do_not_share_sessions() {
        std::thread::spawn(|| {
            begin(Level::Detail);
            TEST_COUNTER_B.add(7);
            let other = std::thread::spawn(|| {
                assert!(!active());
                TEST_COUNTER_B.add(99); // no session on that thread
            });
            other.join().unwrap();
            assert_eq!(end().counter("test.beta"), 7);
        })
        .join()
        .unwrap();
    }
}
