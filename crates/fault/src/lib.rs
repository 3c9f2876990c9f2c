//! `raa-fault` — deterministic fault injection for the Atomique
//! compile service.
//!
//! A production service must stay correct and available when things
//! fail *inside* it: a worker panic mid-wave, a compile blowing its
//! deadline, a cache leader dying between registration and publish.
//! Because the Atomique pipeline is fully deterministic, its fault
//! injection can be deterministic too: a *fault spec* is a seeded
//! schedule over named *fault points*, and the same spec reproduces
//! the identical fault sequence — and identical per-point counter
//! totals — on every run. That turns "the service survived chaos" from
//! an anecdote into a regression test (`tests/chaos.rs`).
//!
//! # Model
//!
//! Library code registers seams by evaluating a point:
//!
//! ```
//! match raa_fault::evaluate("serve.compile") {
//!     raa_fault::Action::None => { /* healthy path */ }
//!     action => { /* injected: panic, delay, error, deadline */ }
//! }
//! ```
//!
//! With no spec armed (the default, and the only state tier-1 tests
//! ever see) [`evaluate`] is one relaxed atomic load and a return —
//! nothing is recorded, nothing allocates. Arming happens explicitly
//! via [`configure`] (tests) or [`configure_from_env`] (the
//! `raa-serve` binary honors `RAA_FAULT_SPEC` at startup); the
//! library never reads the environment on its own.
//!
//! # Spec grammar
//!
//! A spec is `;`-separated entries, e.g.
//! `serve.compile:panic@3;par.worker:delay=50ms@0.1;seed=7`:
//!
//! ```text
//! spec    := entry (';' entry)*
//! entry   := 'seed=' u64            -- PRNG seed for probability triggers
//!          | point ':' action trigger?
//! action  := 'panic' | 'error' | 'deadline'
//!          | 'delay=' u64 ('ms' | 's')
//! trigger := '@' u64                -- exactly the Nth hit (1-based)
//!          | '@' u64 '-' u64        -- hits N..=M
//!          | '@' u64 '+'            -- hit N and every later hit
//!          | '@' float-in-(0,1)     -- each hit independently, seeded
//!          (absent)                 -- every hit
//! ```
//!
//! Probability triggers are *pure functions* of `(seed, point, hit
//! index)` — no ambient RNG — so the set of firing hit indices is
//! fixed by the spec alone. Per-point hit counters are atomic; on a
//! single-threaded workload the full fault sequence is bit-for-bit
//! reproducible, and on a multi-threaded one the per-point totals
//! still are.
//!
//! What each action *means* is decided by the seam that evaluates it
//! (documented per seam in `docs/ROBUSTNESS.md`). The leader-compile
//! seam (`serve.compile`) turns `error` into the job's compile error
//! and `deadline` into its deadline overrun; the HTTP, publish and
//! worker seams have no error channel and escalate `error` to a panic.
//! The compiler library itself has no fault points.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Duration;

/// What an armed schedule injects at a fault point for one hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Action {
    /// Healthy: inject nothing.
    #[default]
    None,
    /// Sleep for the given duration at the seam, then continue.
    Delay(Duration),
    /// Fail the operation with a typed error.
    Error,
    /// Panic at the seam (the payload names the point).
    Panic,
    /// Force the seam's deadline check to report an overrun (seams
    /// without a deadline treat this as [`Action::Error`] or ignore
    /// it, per their documentation).
    Deadline,
}

/// Why a fault spec failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// The offending entry, verbatim.
    pub entry: String,
    /// What was wrong with it.
    pub message: String,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad fault spec entry `{}`: {}", self.entry, self.message)
    }
}

impl std::error::Error for SpecError {}

/// When, within a point's hit sequence, an entry fires.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Trigger {
    /// Every hit.
    Always,
    /// Exactly the Nth hit (1-based).
    Nth(u64),
    /// Hits `N..=M` (1-based, inclusive).
    Range(u64, u64),
    /// Hit N and every hit after it.
    From(u64),
    /// Each hit independently with probability `p`, decided by a pure
    /// hash of `(seed, point, hit index)`.
    Prob(f64),
}

impl Trigger {
    fn fires(&self, seed: u64, point: &str, hit: u64) -> bool {
        match *self {
            Trigger::Always => true,
            Trigger::Nth(n) => hit == n,
            Trigger::Range(lo, hi) => (lo..=hi).contains(&hit),
            Trigger::From(n) => hit >= n,
            Trigger::Prob(p) => unit_hash(seed, point, hit) < p,
        }
    }
}

#[derive(Debug, Clone)]
struct Entry {
    action: Action,
    trigger: Trigger,
}

#[derive(Default)]
struct PointState {
    hits: AtomicU64,
    fired: AtomicU64,
}

/// One armed schedule plus its counters. Counters live *inside* the
/// schedule so [`configure`] starts every run from zero — the property
/// the determinism gate in `tests/chaos.rs` rests on.
struct Schedule {
    seed: u64,
    entries: BTreeMap<String, Vec<Entry>>,
    /// Hit/fired counters per point, lazily extended to points the
    /// spec never names (their hits still count toward [`stats`]).
    points: RwLock<BTreeMap<&'static str, Arc<PointState>>>,
}

/// Lifetime counts for one fault point under the current schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PointStats {
    /// Times the point was evaluated while armed.
    pub hits: u64,
    /// Times an action (anything but [`Action::None`]) was injected.
    pub fired: u64,
}

static ARMED: AtomicBool = AtomicBool::new(false);

fn schedule_slot() -> &'static RwLock<Option<Arc<Schedule>>> {
    static SLOT: OnceLock<RwLock<Option<Arc<Schedule>>>> = OnceLock::new();
    SLOT.get_or_init(|| RwLock::new(None))
}

/// Arms `spec`, replacing any previous schedule and resetting all
/// hit/fired counters. An empty (or all-whitespace) spec disarms,
/// exactly like [`disarm`].
///
/// # Errors
///
/// [`SpecError`] naming the first malformed entry; the previous
/// schedule stays armed untouched.
///
/// # Examples
///
/// ```
/// raa_fault::configure("serve.compile:error@1;seed=9").unwrap();
/// assert!(raa_fault::active());
/// raa_fault::disarm();
/// assert!(!raa_fault::active());
/// ```
pub fn configure(spec: &str) -> Result<(), SpecError> {
    let schedule = parse_spec(spec)?;
    let mut slot = schedule_slot().write().expect("fault schedule poisoned");
    match schedule {
        Some(s) => {
            *slot = Some(Arc::new(s));
            ARMED.store(true, Ordering::Release);
        }
        None => {
            *slot = None;
            ARMED.store(false, Ordering::Release);
        }
    }
    Ok(())
}

/// Arms the schedule in `RAA_FAULT_SPEC`, if the variable is set.
/// Returns whether a spec was found. This is the only environment
/// coupling the crate has, and only callers who invoke it opt in (the
/// `raa-serve` binary and the chaos/soak tests do; the library near
/// the seams never does).
///
/// # Errors
///
/// [`SpecError`] if the variable is set but malformed — a typo'd
/// chaos schedule must fail loudly, not silently test nothing.
pub fn configure_from_env() -> Result<bool, SpecError> {
    match std::env::var("RAA_FAULT_SPEC") {
        Ok(spec) if !spec.trim().is_empty() => {
            configure(&spec)?;
            Ok(true)
        }
        _ => Ok(false),
    }
}

/// Disarms fault injection. Counters of the last schedule remain
/// readable through [`stats`] until the next [`configure`].
pub fn disarm() {
    ARMED.store(false, Ordering::Release);
}

/// Whether a schedule is currently armed.
pub fn active() -> bool {
    ARMED.load(Ordering::Acquire)
}

/// Evaluates a fault point: records a hit and returns the action the
/// armed schedule injects for it, first matching entry wins. With no
/// schedule armed this is one atomic load and an immediate
/// [`Action::None`] — nothing recorded, nothing allocated.
pub fn evaluate(point: &'static str) -> Action {
    if !ARMED.load(Ordering::Relaxed) {
        return Action::None;
    }
    let Some(schedule) = schedule_slot()
        .read()
        .expect("fault schedule poisoned")
        .clone()
    else {
        return Action::None;
    };
    let state = schedule.point_state(point);
    let hit = state.hits.fetch_add(1, Ordering::Relaxed) + 1;
    let action = schedule
        .entries
        .get(point)
        .and_then(|entries| {
            entries
                .iter()
                .find(|e| e.trigger.fires(schedule.seed, point, hit))
        })
        .map(|e| e.action)
        .unwrap_or(Action::None);
    if action != Action::None {
        state.fired.fetch_add(1, Ordering::Relaxed);
    }
    action
}

/// Per-point hit/fired counters of the current (or last) schedule,
/// sorted by point name. Empty when [`configure`] has never armed one.
pub fn stats() -> Vec<(String, PointStats)> {
    let Some(schedule) = schedule_slot()
        .read()
        .expect("fault schedule poisoned")
        .clone()
    else {
        return Vec::new();
    };
    let points = schedule.points.read().expect("fault points poisoned");
    points
        .iter()
        .map(|(name, state)| {
            (
                name.to_string(),
                PointStats {
                    hits: state.hits.load(Ordering::Relaxed),
                    fired: state.fired.load(Ordering::Relaxed),
                },
            )
        })
        .collect()
}

/// Total injected actions across all points under the current (or
/// last) schedule.
pub fn fired_total() -> u64 {
    stats().iter().map(|(_, s)| s.fired).sum()
}

/// Injected actions at one point under the current (or last) schedule.
pub fn fired_at(point: &str) -> u64 {
    stats()
        .iter()
        .find(|(name, _)| name == point)
        .map(|(_, s)| s.fired)
        .unwrap_or(0)
}

impl Schedule {
    fn point_state(&self, point: &'static str) -> Arc<PointState> {
        if let Some(state) = self
            .points
            .read()
            .expect("fault points poisoned")
            .get(point)
        {
            return state.clone();
        }
        self.points
            .write()
            .expect("fault points poisoned")
            .entry(point)
            .or_default()
            .clone()
    }
}

/// `None` means the spec was empty (disarm).
fn parse_spec(spec: &str) -> Result<Option<Schedule>, SpecError> {
    let mut seed = 0u64;
    let mut entries: BTreeMap<String, Vec<Entry>> = BTreeMap::new();
    for raw in spec.split(';') {
        let raw = raw.trim();
        if raw.is_empty() {
            continue;
        }
        if let Some(value) = raw.strip_prefix("seed=") {
            seed = value.trim().parse::<u64>().map_err(|_| SpecError {
                entry: raw.to_string(),
                message: "seed must be an unsigned integer".into(),
            })?;
            continue;
        }
        let (point, rest) = raw.split_once(':').ok_or_else(|| SpecError {
            entry: raw.to_string(),
            message: "expected `point:action[@trigger]` or `seed=N`".into(),
        })?;
        let point = point.trim();
        if point.is_empty() {
            return Err(SpecError {
                entry: raw.to_string(),
                message: "empty fault-point name".into(),
            });
        }
        let (action_text, trigger_text) = match rest.split_once('@') {
            Some((a, t)) => (a.trim(), Some(t.trim())),
            None => (rest.trim(), None),
        };
        let action = parse_action(action_text).map_err(|message| SpecError {
            entry: raw.to_string(),
            message,
        })?;
        let trigger = match trigger_text {
            None => Trigger::Always,
            Some(t) => parse_trigger(t).map_err(|message| SpecError {
                entry: raw.to_string(),
                message,
            })?,
        };
        entries
            .entry(point.to_string())
            .or_default()
            .push(Entry { action, trigger });
    }
    if entries.is_empty() {
        return Ok(None);
    }
    Ok(Some(Schedule {
        seed,
        entries,
        points: RwLock::new(BTreeMap::new()),
    }))
}

fn parse_action(text: &str) -> Result<Action, String> {
    match text {
        "panic" => Ok(Action::Panic),
        "error" => Ok(Action::Error),
        "deadline" => Ok(Action::Deadline),
        _ => {
            let Some(amount) = text.strip_prefix("delay=") else {
                return Err(format!(
                    "unknown action `{text}` (expected panic, error, deadline or delay=<N>ms)"
                ));
            };
            let amount = amount.trim();
            let (digits, scale_ms) = match amount.strip_suffix("ms") {
                Some(d) => (d, 1u64),
                None => match amount.strip_suffix('s') {
                    Some(d) => (d, 1000u64),
                    None => (amount, 1u64),
                },
            };
            let n = digits.trim().parse::<u64>().map_err(|_| {
                format!("bad delay amount `{amount}` (expected e.g. delay=50ms or delay=2s)")
            })?;
            Ok(Action::Delay(Duration::from_millis(n * scale_ms)))
        }
    }
}

fn parse_trigger(text: &str) -> Result<Trigger, String> {
    if text.contains('.') {
        let p = text
            .parse::<f64>()
            .map_err(|_| format!("bad probability `{text}`"))?;
        if !(0.0..=1.0).contains(&p) {
            return Err(format!("probability {p} is outside [0, 1]"));
        }
        return Ok(Trigger::Prob(p));
    }
    if let Some(n) = text.strip_suffix('+') {
        let n = n
            .parse::<u64>()
            .map_err(|_| format!("bad trigger `{text}`"))?;
        return Ok(Trigger::From(n.max(1)));
    }
    if let Some((lo, hi)) = text.split_once('-') {
        let lo = lo
            .parse::<u64>()
            .map_err(|_| format!("bad trigger `{text}`"))?;
        let hi = hi
            .parse::<u64>()
            .map_err(|_| format!("bad trigger `{text}`"))?;
        if lo == 0 || hi < lo {
            return Err(format!("bad hit range `{text}` (1-based, lo <= hi)"));
        }
        return Ok(Trigger::Range(lo, hi));
    }
    let n = text
        .parse::<u64>()
        .map_err(|_| format!("bad trigger `{text}` (expected N, N-M, N+ or a probability)"))?;
    if n == 0 {
        return Err("hit indices are 1-based; `@0` never fires".into());
    }
    Ok(Trigger::Nth(n))
}

/// A pure hash of `(seed, point, hit)` mapped to `[0, 1)` — the
/// deterministic coin behind probability triggers (splitmix64 over an
/// FNV-1a digest of the inputs).
fn unit_hash(seed: u64, point: &str, hit: u64) -> f64 {
    let mut h = 0xcbf29ce484222325u64;
    let mut eat = |b: u8| h = (h ^ b as u64).wrapping_mul(0x100000001b3);
    for b in seed.to_le_bytes() {
        eat(b);
    }
    for b in point.bytes() {
        eat(b);
    }
    for b in hit.to_le_bytes() {
        eat(b);
    }
    let mut z = h.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, OnceLock};

    /// The schedule is process-global; tests that arm one serialize on
    /// this lock and disarm on drop.
    fn armed_guard() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(Mutex::default)
            .lock()
            .unwrap_or_else(|p| p.into_inner())
    }

    struct Armed(#[allow(dead_code)] MutexGuard<'static, ()>);
    impl Armed {
        fn new(spec: &str) -> Armed {
            let guard = armed_guard();
            configure(spec).unwrap();
            Armed(guard)
        }
    }
    impl Drop for Armed {
        fn drop(&mut self) {
            disarm();
        }
    }

    #[test]
    fn disarmed_is_inert() {
        let _guard = armed_guard();
        disarm();
        assert!(!active());
        assert_eq!(evaluate("any.point"), Action::None);
    }

    #[test]
    fn nth_trigger_fires_exactly_once() {
        let _armed = Armed::new("p.x:error@2");
        assert_eq!(evaluate("p.x"), Action::None);
        assert_eq!(evaluate("p.x"), Action::Error);
        assert_eq!(evaluate("p.x"), Action::None);
        assert_eq!(fired_at("p.x"), 1);
        let stats = stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].1, PointStats { hits: 3, fired: 1 });
    }

    #[test]
    fn range_and_from_triggers() {
        let _armed = Armed::new("a.b:error@2-3;c.d:error@3+");
        let fires: Vec<bool> = (0..5).map(|_| evaluate("a.b") == Action::Error).collect();
        assert_eq!(fires, [false, true, true, false, false]);
        let fires: Vec<bool> = (0..5).map(|_| evaluate("c.d") == Action::Error).collect();
        assert_eq!(fires, [false, false, true, true, true]);
    }

    #[test]
    fn first_matching_entry_wins() {
        let _armed = Armed::new("p.q:panic@1;p.q:error");
        assert_eq!(evaluate("p.q"), Action::Panic);
        assert_eq!(evaluate("p.q"), Action::Error);
    }

    #[test]
    fn delay_parses_ms_and_s() {
        let _armed = Armed::new("d.ms:delay=50ms;d.s:delay=2s;d.bare:delay=7");
        assert_eq!(evaluate("d.ms"), Action::Delay(Duration::from_millis(50)));
        assert_eq!(evaluate("d.s"), Action::Delay(Duration::from_secs(2)));
        assert_eq!(evaluate("d.bare"), Action::Delay(Duration::from_millis(7)));
    }

    #[test]
    fn probability_is_seed_deterministic_and_roughly_calibrated() {
        let _armed = Armed::new("roll.x:error@0.25;seed=42");
        let first: Vec<bool> = (0..400)
            .map(|_| evaluate("roll.x") == Action::Error)
            .collect();
        let fired = first.iter().filter(|&&f| f).count();
        assert!(
            (50..=150).contains(&fired),
            "p=0.25 over 400 hits fired {fired} times"
        );
        // Re-arming the identical spec replays the identical sequence.
        configure("roll.x:error@0.25;seed=42").unwrap();
        let second: Vec<bool> = (0..400)
            .map(|_| evaluate("roll.x") == Action::Error)
            .collect();
        assert_eq!(first, second);
        // A different seed gives a different sequence.
        configure("roll.x:error@0.25;seed=43").unwrap();
        let third: Vec<bool> = (0..400)
            .map(|_| evaluate("roll.x") == Action::Error)
            .collect();
        assert_ne!(first, third);
    }

    #[test]
    fn unnamed_points_still_count_hits() {
        let _armed = Armed::new("some.point:error@1");
        evaluate("other.point");
        evaluate("other.point");
        let stats = stats();
        let other = stats.iter().find(|(n, _)| n == "other.point").unwrap();
        assert_eq!(other.1, PointStats { hits: 2, fired: 0 });
    }

    #[test]
    fn each_action_is_returned_for_its_seam_to_read() {
        let _armed = Armed::new("e.p:error@1;d.p:deadline@1;x.p:panic@1");
        assert_eq!(evaluate("e.p"), Action::Error);
        assert_eq!(evaluate("d.p"), Action::Deadline);
        assert_eq!(evaluate("x.p"), Action::Panic);
        assert_eq!(evaluate("e.p"), Action::None);
        assert_eq!(fired_total(), 3);
    }

    #[test]
    fn empty_spec_disarms() {
        let _guard = armed_guard();
        configure("p:error").unwrap();
        assert!(active());
        configure("  ").unwrap();
        assert!(!active());
        assert!(stats().is_empty());
    }

    #[test]
    fn malformed_specs_are_rejected_with_the_entry_named() {
        for (spec, needle) in [
            ("p.x", "expected `point:action"),
            (":error", "empty fault-point name"),
            ("p:explode", "unknown action"),
            ("p:delay=abcms", "bad delay amount"),
            ("p:error@0", "1-based"),
            ("p:error@5-2", "bad hit range"),
            ("p:error@1.5", "outside [0, 1]"),
            ("p:error@x", "bad trigger"),
            ("seed=xyz", "unsigned integer"),
        ] {
            let err = configure(spec).unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "spec `{spec}`: got `{err}`, wanted `{needle}`"
            );
        }
    }

    #[test]
    fn configure_resets_counters() {
        let _armed = Armed::new("r.p:error");
        evaluate("r.p");
        evaluate("r.p");
        assert_eq!(fired_at("r.p"), 2);
        configure("r.p:error").unwrap();
        assert_eq!(fired_at("r.p"), 0);
        assert_eq!(fired_total(), 0);
    }

    #[test]
    fn configure_from_env_without_variable_is_a_no_op() {
        let _guard = armed_guard();
        // The test runner never sets RAA_FAULT_SPEC for unit tests.
        if std::env::var("RAA_FAULT_SPEC").is_err() {
            disarm();
            assert_eq!(configure_from_env(), Ok(false));
            assert!(!active());
        }
    }
}
