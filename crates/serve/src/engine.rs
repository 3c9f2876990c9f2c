//! The batch-compilation engine: a bounded admission queue, a
//! single-flight compile cache keyed on circuit hash × config
//! fingerprint, and worker fan-out over [`raa_par::WorkPool`].
//!
//! The engine is transport-agnostic — the HTTP front
//! ([`crate::http`]) and the CLI both drive [`Engine::submit`]
//! directly, so every invariant (backpressure, single-flight, LRU
//! eviction, telemetry counters) is testable without a socket.
//!
//! # Resilience
//!
//! Every leader compile runs through a resilience ladder
//! (`docs/ROBUSTNESS.md`): a per-attempt wall-clock deadline enforced
//! at stage boundaries, bounded retry-with-backoff for transient
//! failures (panics and `raa-fault` injections), then a degradation
//! ladder that retries on progressively cheaper configs
//! (`-O2`→`-O1`→`-O0`) and labels the result degraded. Degraded
//! results are served and shared with coalesced followers but never
//! cached, so later identical requests retry the primary config. A
//! circuit breaker sheds whole batches after repeated terminal
//! failures that say something about compile health — an error the
//! request's own input decided (an oversized circuit, say) is not one
//! — and [`Engine::begin_drain`] rejects new batches while in-flight
//! ones finish.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use atomique::{AtomiqueConfig, CompileError, CompileLimits, CompileStats, StageTimings};
use raa_circuit::Circuit;
use raa_isa::codec;
use raa_par::WorkPool;
use raa_trace::Counter;

use crate::ServeError;

static HIT: Counter = Counter::new("serve.cache.hit");
static MISS: Counter = Counter::new("serve.cache.miss");
static COALESCED: Counter = Counter::new("serve.cache.coalesced");
static COMPILE: Counter = Counter::new("serve.compile");
static REJECT: Counter = Counter::new("serve.queue.reject");
static EVICT: Counter = Counter::new("serve.cache.evict");
static RETRY: Counter = Counter::new("serve.retry");
static DEGRADED: Counter = Counter::new("serve.degraded");
static DEADLINE: Counter = Counter::new("serve.deadline_exceeded");
static BREAKER_OPEN: Counter = Counter::new("serve.breaker.open");
static SHED: Counter = Counter::new("serve.breaker.shed");

/// Sizing knobs for an [`Engine`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads compiling a batch's leader jobs concurrently;
    /// each compile runs on one of them.
    pub workers: usize,
    /// Maximum jobs admitted at once across all batches; a batch that
    /// would push the in-flight count past this bound is rejected
    /// whole with [`ServeError::QueueFull`].
    pub queue_capacity: usize,
    /// Maximum cached compile results; least-recently-used entries are
    /// evicted past this bound. `0` disables caching.
    pub cache_capacity: usize,
    /// Maximum accepted HTTP request-body size, bytes.
    pub max_body_bytes: usize,
    /// The compilation config jobs start from; per-request overrides
    /// are applied on top. `emit_isa` and `verify_isa` are forced on —
    /// the service only ever returns verified ISA streams.
    pub base: AtomiqueConfig,
    /// Extra attempts after a transient compile failure (a caught
    /// panic or an injected fault) before the degradation ladder is
    /// consulted. `0` disables retries.
    pub max_retries: u32,
    /// Backoff before the first retry, milliseconds; doubles per
    /// attempt.
    pub retry_backoff_ms: u64,
    /// Whether exhausted/timed-out compiles fall down the degradation
    /// ladder (lower opt levels) instead of failing outright.
    pub degrade: bool,
    /// Per-attempt compile deadline applied when a request does not
    /// carry its own `deadline_ms`. `None` means unlimited.
    pub default_deadline_ms: Option<u64>,
    /// Consecutive terminal leader failures that open the circuit
    /// breaker. Errors the request's own input decided (capacity,
    /// circuit, architecture, routing, a stuck router) do not count.
    /// `0` disables the breaker.
    pub breaker_threshold: u32,
    /// How long an open breaker sheds load before letting one probe
    /// batch through, milliseconds.
    pub breaker_cooldown_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 1,
            queue_capacity: 64,
            cache_capacity: 256,
            max_body_bytes: 16 << 20,
            base: AtomiqueConfig::default(),
            max_retries: 2,
            retry_backoff_ms: 10,
            degrade: true,
            default_deadline_ms: None,
            breaker_threshold: 8,
            breaker_cooldown_ms: 1_000,
        }
    }
}

/// How a job's result was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStatus {
    /// Served from the compile cache without compiling.
    Hit,
    /// Compiled by this batch (the single-flight leader).
    Miss,
    /// Waited on an identical in-flight compile instead of repeating
    /// it.
    Coalesced,
}

impl CacheStatus {
    /// The wire name used in JSON responses (`"hit"` / `"miss"` /
    /// `"coalesced"`).
    pub fn as_str(self) -> &'static str {
        match self {
            CacheStatus::Hit => "hit",
            CacheStatus::Miss => "miss",
            CacheStatus::Coalesced => "coalesced",
        }
    }
}

/// One cached compile result: the verified ISA stream (binary-codec
/// bytes) plus the telemetry captured while producing it.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheEntry {
    /// `raa_isa::codec::to_bytes` of the verified stream.
    pub isa_bytes: Vec<u8>,
    /// Per-stage wall-clock breakdown of the original compile.
    pub timings: StageTimings,
    /// Estimated total fidelity.
    pub fidelity: f64,
    /// The compile's summary statistics.
    pub stats: CompileStats,
    /// Every telemetry counter the compile incremented (detail tracing
    /// is forced on for served compiles), sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `None` for a primary-config result; `Some(label)` when the
    /// result came from a degradation-ladder rung, naming the
    /// cumulative config diff (e.g. `"opt=0"`).
    /// Degraded entries are served but never cached.
    pub degraded: Option<String>,
}

/// One named compilation job.
#[derive(Debug, Clone)]
pub struct Job {
    /// Client-chosen label, echoed back in the response.
    pub name: String,
    /// The circuit to compile.
    pub circuit: Circuit,
}

/// A job's result: where it came from and the cached payload.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Hit / miss / coalesced.
    pub status: CacheStatus,
    /// The (possibly shared) compile result.
    pub entry: Arc<CacheEntry>,
}

/// One job's outcome within a batch. Per-job failures (compile errors)
/// land here; batch-level failures (queue full) fail
/// [`Engine::submit`] itself.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The job's `name`, echoed from the request.
    pub name: String,
    /// The result or the per-job error.
    pub result: Result<JobResult, ServeError>,
}

/// A monotonic snapshot of the engine's lifetime counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Jobs served from cache.
    pub hits: u64,
    /// Jobs that led a compile.
    pub misses: u64,
    /// Jobs that waited on an identical in-flight compile.
    pub coalesced: u64,
    /// Compile attempts actually executed (first attempts plus retries
    /// plus ladder rungs; equals `misses` when nothing fails).
    pub compiles: u64,
    /// Jobs rejected by queue backpressure.
    pub rejected: u64,
    /// Cache entries evicted by the LRU bound.
    pub evictions: u64,
    /// High-water mark of concurrently admitted jobs.
    pub max_queue_depth: u64,
    /// Same-config retry attempts after transient failures.
    pub retries: u64,
    /// Jobs answered from a degradation-ladder rung.
    pub degraded: u64,
    /// Jobs that exhausted every rung within their deadline budget.
    pub deadline_exceeded: u64,
    /// Times the circuit breaker tripped open.
    pub breaker_opens: u64,
    /// Jobs shed while the breaker was open (or mid-probe).
    pub shed: u64,
    /// The breaker's current position.
    pub breaker_state: BreakerState,
    /// Whether the engine is draining for shutdown.
    pub draining: bool,
    /// Entries currently cached.
    pub cache_entries: usize,
    /// Jobs currently admitted.
    pub queue_depth: usize,
}

/// A snapshot of the circuit breaker's position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BreakerState {
    /// Healthy: batches flow normally.
    #[default]
    Closed,
    /// Tripped: batches are shed until the cooldown elapses.
    Open,
    /// Cooldown elapsed: one probe batch is in flight, everything else
    /// is still shed.
    HalfOpen,
}

impl BreakerState {
    /// The wire name used in `/v1/stats` (`"closed"` / `"open"` /
    /// `"half_open"`).
    pub fn as_str(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

type Key = (u64, u64);

/// The single-flight rendezvous for one cache key: the leader fills
/// `slot` and notifies; followers wait instead of recompiling.
struct Flight {
    slot: Mutex<Option<Result<Arc<CacheEntry>, ServeError>>>,
    ready: Condvar,
}

impl Flight {
    fn new() -> Flight {
        Flight {
            slot: Mutex::new(None),
            ready: Condvar::new(),
        }
    }

    fn publish(&self, result: Result<Arc<CacheEntry>, ServeError>) {
        *self.slot.lock().expect("flight slot poisoned") = Some(result);
        self.ready.notify_all();
    }

    fn wait(&self) -> Result<Arc<CacheEntry>, ServeError> {
        let mut slot = self.slot.lock().expect("flight slot poisoned");
        loop {
            if let Some(result) = slot.as_ref() {
                return result.clone();
            }
            slot = self.ready.wait(slot).expect("flight slot poisoned");
        }
    }
}

struct State {
    cache: HashMap<Key, Arc<CacheEntry>>,
    /// Keys of `cache` in recency order: front = coldest, back =
    /// hottest.
    lru: Vec<Key>,
    in_flight: HashMap<Key, Arc<Flight>>,
}

#[derive(Default)]
struct Tallies {
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    compiles: AtomicU64,
    rejected: AtomicU64,
    evictions: AtomicU64,
    max_depth: AtomicU64,
    retries: AtomicU64,
    degraded: AtomicU64,
    deadline_exceeded: AtomicU64,
    breaker_opens: AtomicU64,
    shed: AtomicU64,
}

/// The circuit breaker: counts consecutive terminal leader failures
/// and sheds whole batches once they pass the threshold. Classic
/// three-state machine — Closed (healthy), Open (shedding until the
/// cooldown elapses), HalfOpen (exactly one probe batch in flight;
/// its outcome closes or re-opens the breaker).
enum BreakerInner {
    Closed {
        consecutive: u32,
    },
    Open {
        since: Instant,
    },
    HalfOpen {
        /// Whether the single probe slot is taken.
        probing: bool,
    },
}

struct Breaker {
    inner: Mutex<BreakerInner>,
    threshold: u32,
    cooldown: Duration,
}

/// What the breaker decided about an arriving batch.
enum BreakerAdmit {
    /// Proceed normally.
    Allow,
    /// Shed: the breaker is open (or a probe is already in flight);
    /// retry after the given delay.
    Shed { retry_after_ms: u64 },
}

impl Breaker {
    fn new(threshold: u32, cooldown: Duration) -> Breaker {
        Breaker {
            inner: Mutex::new(BreakerInner::Closed { consecutive: 0 }),
            threshold,
            cooldown,
        }
    }

    fn lock(&self) -> MutexGuard<'_, BreakerInner> {
        // The breaker must keep working even if a panic unwound through
        // a hold: every transition below restores a coherent state
        // before releasing, so recovering a poisoned lock is safe.
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Gate for an arriving batch.
    fn admit(&self) -> BreakerAdmit {
        if self.threshold == 0 {
            return BreakerAdmit::Allow;
        }
        let mut inner = self.lock();
        match *inner {
            BreakerInner::Closed { .. } => BreakerAdmit::Allow,
            BreakerInner::Open { since } => {
                let elapsed = since.elapsed();
                if elapsed >= self.cooldown {
                    *inner = BreakerInner::HalfOpen { probing: true };
                    BreakerAdmit::Allow
                } else {
                    BreakerAdmit::Shed {
                        retry_after_ms: (self.cooldown - elapsed).as_millis().max(1) as u64,
                    }
                }
            }
            BreakerInner::HalfOpen { probing: false } => {
                *inner = BreakerInner::HalfOpen { probing: true };
                BreakerAdmit::Allow
            }
            BreakerInner::HalfOpen { probing: true } => BreakerAdmit::Shed {
                retry_after_ms: self.cooldown.as_millis().max(1) as u64,
            },
        }
    }

    /// Records one terminal leader success; closes a half-open breaker.
    fn record_success(&self) {
        if self.threshold == 0 {
            return;
        }
        let mut inner = self.lock();
        match *inner {
            BreakerInner::Closed {
                ref mut consecutive,
            } => *consecutive = 0,
            BreakerInner::HalfOpen { .. } => *inner = BreakerInner::Closed { consecutive: 0 },
            BreakerInner::Open { .. } => {}
        }
    }

    /// Records one terminal leader failure. Returns `true` when this
    /// transition tripped the breaker open.
    fn record_failure(&self) -> bool {
        if self.threshold == 0 {
            return false;
        }
        let mut inner = self.lock();
        match *inner {
            BreakerInner::Closed {
                ref mut consecutive,
            } => {
                *consecutive += 1;
                if *consecutive >= self.threshold {
                    *inner = BreakerInner::Open {
                        since: Instant::now(),
                    };
                    return true;
                }
                false
            }
            BreakerInner::HalfOpen { .. } => {
                *inner = BreakerInner::Open {
                    since: Instant::now(),
                };
                true
            }
            BreakerInner::Open { .. } => false,
        }
    }

    /// Releases the probe slot when a probe batch ends without evidence
    /// either way — only hits, coalesced followers, or leaders whose
    /// errors their own input decided — so the next batch probes
    /// again.
    fn release_probe(&self) {
        if self.threshold == 0 {
            return;
        }
        let mut inner = self.lock();
        if let BreakerInner::HalfOpen { ref mut probing } = *inner {
            *probing = false;
        }
    }

    fn state(&self) -> BreakerState {
        if self.threshold == 0 {
            return BreakerState::Closed;
        }
        match *self.lock() {
            BreakerInner::Closed { .. } => BreakerState::Closed,
            BreakerInner::Open { .. } => BreakerState::Open,
            BreakerInner::HalfOpen { .. } => BreakerState::HalfOpen,
        }
    }
}

/// Decrements the admission count when a batch leaves the engine,
/// whatever path it took out.
struct AdmitGuard<'a> {
    depth: &'a AtomicUsize,
    n: usize,
}

impl Drop for AdmitGuard<'_> {
    fn drop(&mut self) {
        self.depth.fetch_sub(self.n, Ordering::AcqRel);
    }
}

/// Unwind protection for the window between registering lead flights
/// and publishing their results: if [`Engine::submit`] panics in that
/// window (a worker-pool bug, a poisoned publish), every still-
/// registered lead flight gets an error published and is removed from
/// `in_flight`, so followers — and every future identical job — fail
/// fast instead of blocking forever on an abandoned flight.
struct LeadGuard<'a> {
    engine: &'a Engine,
    keys: Vec<Key>,
    armed: bool,
}

impl Drop for LeadGuard<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        // Recover the state even if the panic poisoned the lock —
        // in_flight removal must happen regardless.
        let mut st = self
            .engine
            .state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        for key in &self.keys {
            if let Some(flight) = st.in_flight.remove(key) {
                flight.publish(Err(ServeError::Compile {
                    message: "compile abandoned: the submitting batch panicked".into(),
                }));
            }
        }
    }
}

/// What [`Engine::submit`] decided to do with one job, in batch order.
enum Plan {
    Ready(Arc<CacheEntry>),
    Lead(Arc<Flight>),
    Follow(Arc<Flight>),
}

/// The batch-compilation engine. Cheap to share behind an [`Arc`];
/// every method takes `&self`.
pub struct Engine {
    base: AtomiqueConfig,
    queue_capacity: usize,
    cache_capacity: usize,
    pool: WorkPool,
    state: Mutex<State>,
    depth: AtomicUsize,
    tallies: Tallies,
    max_body_bytes: usize,
    max_retries: u32,
    retry_backoff: Duration,
    degrade: bool,
    default_deadline_ms: Option<u64>,
    breaker: Breaker,
    draining: AtomicBool,
}

impl Engine {
    /// Builds an engine. The base config's `emit_isa`, `verify_isa`
    /// and `trace` flags are forced on (the service only returns
    /// verified streams, with per-request telemetry).
    pub fn new(config: ServeConfig) -> Engine {
        Engine {
            base: force_serving_flags(config.base),
            queue_capacity: config.queue_capacity.max(1),
            cache_capacity: config.cache_capacity,
            pool: WorkPool::new(config.workers),
            state: Mutex::new(State {
                cache: HashMap::new(),
                lru: Vec::new(),
                in_flight: HashMap::new(),
            }),
            depth: AtomicUsize::new(0),
            tallies: Tallies::default(),
            max_body_bytes: config.max_body_bytes,
            max_retries: config.max_retries,
            retry_backoff: Duration::from_millis(config.retry_backoff_ms),
            degrade: config.degrade,
            default_deadline_ms: config.default_deadline_ms,
            breaker: Breaker::new(
                config.breaker_threshold,
                Duration::from_millis(config.breaker_cooldown_ms.max(1)),
            ),
            draining: AtomicBool::new(false),
        }
    }

    /// Stops admitting new batches; in-flight jobs run to completion.
    /// [`Engine::submit`] fails with [`ServeError::Draining`] from this
    /// point on. Irreversible for the engine's lifetime (drains exist
    /// only on the way to shutdown).
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::Release);
    }

    /// Whether [`Engine::begin_drain`] has been called.
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// The engine state, recovering from lock poisoning: every section
    /// that holds this lock restores the cache/LRU/in-flight invariants
    /// before any operation that could panic (fault points are placed
    /// outside it), so a poisoned lock only means a panic unwound
    /// *past* a release point — continuing is safe, and wedging every
    /// future request on `PoisonError` would trade a survived fault for
    /// a total outage.
    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The effective base config (with the serving flags forced on);
    /// per-request overrides are applied on top of this.
    pub fn base(&self) -> &AtomiqueConfig {
        &self.base
    }

    /// The HTTP request-body cap, bytes.
    pub fn max_body_bytes(&self) -> usize {
        self.max_body_bytes
    }

    /// Compiles a batch of jobs under `config` (usually
    /// [`Engine::base`] with request overrides applied).
    ///
    /// Jobs whose `(circuit, config)` pair is cached are served
    /// without compiling; identical uncached jobs — within this batch
    /// or racing across batches — compile exactly once (single
    /// flight), with every duplicate waiting on the leader. Results
    /// come back in batch order.
    ///
    /// # Errors
    ///
    /// [`ServeError::QueueFull`] if admitting the whole batch would
    /// exceed the queue bound — no job in the batch runs;
    /// [`ServeError::Draining`] after [`Engine::begin_drain`];
    /// [`ServeError::BreakerOpen`] while the circuit breaker sheds
    /// load. Per-job compile failures are reported inside the returned
    /// outcomes (and are never cached).
    pub fn submit(
        &self,
        config: &AtomiqueConfig,
        jobs: &[Job],
    ) -> Result<Vec<JobOutcome>, ServeError> {
        self.submit_with(config, jobs, None)
    }

    /// [`Engine::submit`] with an explicit per-attempt compile deadline
    /// (milliseconds); `None` falls back to the engine's configured
    /// default. Each compile attempt — the primary and every
    /// retry/ladder rung — gets a fresh budget of `deadline_ms`,
    /// checked at stage boundaries.
    ///
    /// # Errors
    ///
    /// As [`Engine::submit`]; jobs that overrun every rung report
    /// [`ServeError::DeadlineExceeded`] in their outcome.
    pub fn submit_with(
        &self,
        config: &AtomiqueConfig,
        jobs: &[Job],
        deadline_ms: Option<u64>,
    ) -> Result<Vec<JobOutcome>, ServeError> {
        let n = jobs.len();
        if self.draining() {
            return Err(ServeError::Draining);
        }
        let probe = match self.breaker.admit() {
            BreakerAdmit::Allow => matches!(self.breaker.state(), BreakerState::HalfOpen),
            BreakerAdmit::Shed { retry_after_ms } => {
                SHED.add(n as u64);
                self.tallies.shed.fetch_add(n as u64, Ordering::Relaxed);
                return Err(ServeError::BreakerOpen { retry_after_ms });
            }
        };
        let deadline_ms = deadline_ms.or(self.default_deadline_ms);
        let _guard = match self.admit(n) {
            Ok(guard) => guard,
            Err(e) => {
                // A probe batch bounced by the queue is no evidence
                // about compile health — free the slot for the next one.
                if probe {
                    self.breaker.release_probe();
                }
                return Err(e);
            }
        };

        let cfg = force_serving_flags(config.clone());
        let fp = cfg.fingerprint();

        // Classify each job under one lock pass. A duplicate inside
        // the batch sees the leader's flight already in `in_flight`
        // and becomes a follower, exactly like a cross-batch race.
        let mut plans: Vec<Plan> = Vec::with_capacity(n);
        let mut leads: Vec<(usize, Key)> = Vec::new();
        {
            let mut st = self.state();
            for (i, job) in jobs.iter().enumerate() {
                let key = (job.circuit.stable_hash(), fp);
                if let Some(entry) = st.cache.get(&key).cloned() {
                    touch(&mut st.lru, key);
                    HIT.incr();
                    self.tallies.hits.fetch_add(1, Ordering::Relaxed);
                    plans.push(Plan::Ready(entry));
                } else if let Some(flight) = st.in_flight.get(&key).cloned() {
                    COALESCED.incr();
                    self.tallies.coalesced.fetch_add(1, Ordering::Relaxed);
                    plans.push(Plan::Follow(flight));
                } else {
                    let flight = Arc::new(Flight::new());
                    st.in_flight.insert(key, flight.clone());
                    MISS.incr();
                    self.tallies.misses.fetch_add(1, Ordering::Relaxed);
                    leads.push((i, key));
                    plans.push(Plan::Lead(flight));
                }
            }
        }

        // Compile the leaders, fanned out over the worker pool. When
        // the wave fans out, each leader compile owns its trace
        // session; with one worker or one leader it runs here and
        // joins the caller's session only if that one records at
        // `Detail`. The `serve.*` trace counters are ticked below, on
        // this thread, so a caller's session sees them either way.
        let mut lead_guard = LeadGuard {
            engine: self,
            keys: leads.iter().map(|&(_, key)| key).collect(),
            armed: true,
        };
        let attempts = self.pool.map_isolated("par.serve", &leads, |_, &(i, _)| {
            let mut tally = Attempts::default();
            let result = self.compile_resilient(&jobs[i].circuit, &cfg, deadline_ms, &mut tally);
            (result, tally)
        });

        // Tally every attempt and feed the breaker from terminal leader
        // outcomes (followers and hits carry no new evidence about
        // compile health, and neither do errors the input decided).
        let mut evidence = false;
        let results: Vec<Result<Arc<CacheEntry>, ServeError>> = attempts
            .into_iter()
            .map(|(result, tally)| {
                COMPILE.add(tally.compiles);
                RETRY.add(tally.retries);
                match result {
                    Ok(entry) => {
                        if entry.degraded.is_some() {
                            DEGRADED.incr();
                            self.tallies.degraded.fetch_add(1, Ordering::Relaxed);
                        }
                        evidence = true;
                        self.breaker.record_success();
                        Ok(entry)
                    }
                    Err(failure) => {
                        if !matches!(failure, Failure::Input(_)) {
                            evidence = true;
                            if self.breaker.record_failure() {
                                BREAKER_OPEN.incr();
                                self.tallies.breaker_opens.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Err(self.terminal_error(failure))
                    }
                }
            })
            .collect();
        if probe && !evidence {
            self.breaker.release_probe();
        }

        // The publish seam: a panic here (fault-injected or real) lands
        // *before* the state lock, so LeadGuard can still recover and
        // fail the flights fast instead of wedging followers.
        match raa_fault::evaluate("serve.publish") {
            raa_fault::Action::None | raa_fault::Action::Deadline => {}
            raa_fault::Action::Delay(d) => std::thread::sleep(d),
            raa_fault::Action::Error | raa_fault::Action::Panic => {
                panic!("injected fault at serve.publish")
            }
        }

        // Publish: fill caches, resolve flights, wake followers.
        // Degraded results are shared with this key's followers but
        // never cached — a later identical request should retry the
        // primary config.
        {
            let mut st = self.state();
            for (&(_, key), result) in leads.iter().zip(results) {
                if let Ok(entry) = &result {
                    if self.cache_capacity > 0 && entry.degraded.is_none() {
                        st.cache.insert(key, entry.clone());
                        st.lru.push(key);
                        while st.cache.len() > self.cache_capacity {
                            let coldest = st.lru.remove(0);
                            st.cache.remove(&coldest);
                            EVICT.incr();
                            self.tallies.evictions.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                let flight = st
                    .in_flight
                    .remove(&key)
                    .expect("single-flight entry vanished");
                flight.publish(result);
            }
        }
        lead_guard.armed = false;

        Ok(jobs
            .iter()
            .zip(plans)
            .map(|(job, plan)| {
                let result = match plan {
                    Plan::Ready(entry) => Ok(JobResult {
                        status: CacheStatus::Hit,
                        entry,
                    }),
                    Plan::Lead(flight) => flight.wait().map(|entry| JobResult {
                        status: CacheStatus::Miss,
                        entry,
                    }),
                    Plan::Follow(flight) => flight.wait().map(|entry| JobResult {
                        status: CacheStatus::Coalesced,
                        entry,
                    }),
                };
                JobOutcome {
                    name: job.name.clone(),
                    result,
                }
            })
            .collect())
    }

    /// A point-in-time snapshot of the lifetime counters.
    pub fn stats(&self) -> EngineStats {
        let cache_entries = self.state().cache.len();
        EngineStats {
            hits: self.tallies.hits.load(Ordering::Relaxed),
            misses: self.tallies.misses.load(Ordering::Relaxed),
            coalesced: self.tallies.coalesced.load(Ordering::Relaxed),
            compiles: self.tallies.compiles.load(Ordering::Relaxed),
            rejected: self.tallies.rejected.load(Ordering::Relaxed),
            evictions: self.tallies.evictions.load(Ordering::Relaxed),
            max_queue_depth: self.tallies.max_depth.load(Ordering::Relaxed),
            retries: self.tallies.retries.load(Ordering::Relaxed),
            degraded: self.tallies.degraded.load(Ordering::Relaxed),
            deadline_exceeded: self.tallies.deadline_exceeded.load(Ordering::Relaxed),
            breaker_opens: self.tallies.breaker_opens.load(Ordering::Relaxed),
            shed: self.tallies.shed.load(Ordering::Relaxed),
            breaker_state: self.breaker.state(),
            draining: self.draining(),
            cache_entries,
            queue_depth: self.depth.load(Ordering::Acquire),
        }
    }

    /// Admits `n` jobs or rejects the whole batch.
    fn admit(&self, n: usize) -> Result<AdmitGuard<'_>, ServeError> {
        let mut cur = self.depth.load(Ordering::Relaxed);
        loop {
            if cur + n > self.queue_capacity {
                REJECT.add(n as u64);
                self.tallies.rejected.fetch_add(n as u64, Ordering::Relaxed);
                return Err(ServeError::QueueFull {
                    depth: cur,
                    capacity: self.queue_capacity,
                });
            }
            match self.depth.compare_exchange_weak(
                cur,
                cur + n,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
        self.tallies
            .max_depth
            .fetch_max((cur + n) as u64, Ordering::Relaxed);
        Ok(AdmitGuard {
            depth: &self.depth,
            n,
        })
    }

    /// One leader job, end to end: the primary config with bounded
    /// retries for transient failures, then (when enabled) the
    /// degradation ladder. Every attempt gets a fresh `deadline_ms`
    /// budget — the ladder exists precisely so a config that cannot
    /// finish in budget can be answered by a cheaper one that can.
    /// Attempts are counted into [`EngineStats`] as they run and into
    /// `tally`, which the submitting thread turns into `serve.*` trace
    /// counters.
    fn compile_resilient(
        &self,
        circuit: &Circuit,
        cfg: &AtomiqueConfig,
        deadline_ms: Option<u64>,
        tally: &mut Attempts,
    ) -> Result<Arc<CacheEntry>, Failure> {
        let mut last = match self.compile_retrying(circuit, cfg, deadline_ms, tally) {
            Ok(entry) => return Ok(entry),
            Err(f @ (Failure::Input(_) | Failure::Permanent(_))) => return Err(f),
            Err(f) => f,
        };
        if self.degrade {
            for (label, rung) in degradation_ladder(cfg) {
                self.count_attempt(tally);
                match self.compile_once(circuit, &rung, deadline_ms) {
                    Ok(entry) => {
                        let mut entry = Arc::try_unwrap(entry).unwrap_or_else(|arc| (*arc).clone());
                        entry.degraded = Some(label);
                        return Ok(Arc::new(entry));
                    }
                    // A deterministic error on a rung (e.g. capacity)
                    // will not improve further down: fail now.
                    Err(f @ (Failure::Input(_) | Failure::Permanent(_))) => return Err(f),
                    Err(f) => last = f,
                }
            }
        }
        Err(last)
    }

    /// A leader's terminal failure as the error its flight publishes;
    /// a deadline overrun is counted here.
    fn terminal_error(&self, failure: Failure) -> ServeError {
        match failure {
            Failure::Deadline { stage } => {
                DEADLINE.incr();
                self.tallies
                    .deadline_exceeded
                    .fetch_add(1, Ordering::Relaxed);
                ServeError::DeadlineExceeded { stage }
            }
            Failure::Transient(e) | Failure::Input(e) | Failure::Permanent(e) => e,
        }
    }

    /// The primary config with up to `max_retries` extra attempts after
    /// transient failures, doubling the backoff each time. Deadline
    /// overruns are not retried on the same config — the same budget
    /// would blow the same way — and fall through to the ladder.
    fn compile_retrying(
        &self,
        circuit: &Circuit,
        cfg: &AtomiqueConfig,
        deadline_ms: Option<u64>,
        tally: &mut Attempts,
    ) -> Result<Arc<CacheEntry>, Failure> {
        let mut backoff = self.retry_backoff;
        for attempt in 0..=self.max_retries {
            self.count_attempt(tally);
            match self.compile_once(circuit, cfg, deadline_ms) {
                Ok(entry) => return Ok(entry),
                Err(Failure::Transient(_)) if attempt < self.max_retries => {
                    tally.retries += 1;
                    self.tallies.retries.fetch_add(1, Ordering::Relaxed);
                    if !backoff.is_zero() {
                        std::thread::sleep(backoff);
                        backoff *= 2;
                    }
                }
                Err(f) => return Err(f),
            }
        }
        unreachable!("retry loop returns on its final attempt")
    }

    /// Counts one compile attempt, in [`EngineStats`] at once so a
    /// wave killed later still reports it.
    fn count_attempt(&self, tally: &mut Attempts) {
        tally.compiles += 1;
        self.tallies.compiles.fetch_add(1, Ordering::Relaxed);
    }

    /// One compile attempt under one deadline budget, classified.
    fn compile_once(
        &self,
        circuit: &Circuit,
        cfg: &AtomiqueConfig,
        deadline_ms: Option<u64>,
    ) -> Result<Arc<CacheEntry>, Failure> {
        let limits = CompileLimits {
            deadline: deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms)),
        };
        // A panic — adversarial circuit or injected fault — must become
        // a per-job error, not unwind through the worker wave and
        // `submit`: an escaped panic would skip the publish step and
        // leave this key's flight wedged in `in_flight` forever.
        let out = catch_unwind(AssertUnwindSafe(|| {
            // The leader seam: `RAA_FAULT_SPEC` kills, delays or fails
            // leader compiles here, inside the unwind barrier.
            match raa_fault::evaluate("serve.compile") {
                raa_fault::Action::None => {}
                raa_fault::Action::Delay(d) => std::thread::sleep(d),
                raa_fault::Action::Error => {
                    return Err(CompileError::Injected {
                        point: "serve.compile",
                    })
                }
                raa_fault::Action::Panic => panic!("injected fault at serve.compile"),
                raa_fault::Action::Deadline => {
                    return Err(CompileError::Deadline { stage: "serve" })
                }
            }
            atomique::compile_with_limits(circuit, cfg, limits)
        }))
        .map_err(|payload| {
            Failure::Transient(ServeError::Compile {
                message: format!("compiler panicked: {}", panic_message(payload.as_ref())),
            })
        })?
        .map_err(classify)?;
        let isa = out.isa.as_ref().ok_or_else(|| {
            Failure::Permanent(ServeError::Compile {
                message: "compiler did not attach an ISA stream".into(),
            })
        })?;
        Ok(Arc::new(CacheEntry {
            isa_bytes: codec::to_bytes(isa),
            timings: out.timings,
            fidelity: out.total_fidelity(),
            stats: out.stats,
            counters: out.report.counters().to_vec(),
            degraded: None,
        }))
    }
}

/// Compile attempts one leader made, counted on its worker and ticked
/// into the `serve.*` trace counters by the submitting thread.
#[derive(Default)]
struct Attempts {
    /// Every attempt: the first, same-config retries and ladder rungs.
    compiles: u64,
    /// Same-config retries after transient failures.
    retries: u64,
}

/// How one compile attempt failed, for the retry/ladder and breaker
/// policies.
enum Failure {
    /// Worth retrying on the same config (caught panic, injected
    /// fault).
    Transient(ServeError),
    /// The attempt overran its deadline budget; retrying the same
    /// config is pointless but a cheaper rung may fit.
    Deadline {
        /// Stage boundary where the overrun was observed.
        stage: String,
    },
    /// Decided by the request's own input (capacity, circuit,
    /// architecture, routing, a stuck router): retries and cheaper
    /// configs cannot help, and the failure says nothing about the
    /// compiler's health, so it never feeds the breaker.
    Input(ServeError),
    /// Deterministic rejection by the compiler's own checks (ISA
    /// legality or replay, a missing stream): retries and cheaper
    /// configs cannot help, but it is a compiler fault.
    Permanent(ServeError),
}

fn classify(e: CompileError) -> Failure {
    let error = |e: CompileError| ServeError::Compile {
        message: e.to_string(),
    };
    match e {
        CompileError::Injected { .. } => Failure::Transient(error(e)),
        CompileError::Deadline { stage } => Failure::Deadline {
            stage: stage.to_string(),
        },
        CompileError::Capacity { .. }
        | CompileError::Circuit(_)
        | CompileError::Arch(_)
        | CompileError::Routing(_)
        | CompileError::RouterStuck { .. } => Failure::Input(error(e)),
        CompileError::IsaLegality(_) | CompileError::IsaReplay(_) => Failure::Permanent(error(e)),
    }
}

/// The degradation ladder for `cfg`: cumulative downgrades, cheapest
/// last. Each rung's label names the *full* diff from the primary
/// config, so a `degraded` response is self-describing.
fn degradation_ladder(cfg: &AtomiqueConfig) -> Vec<(String, AtomiqueConfig)> {
    let mut rungs = Vec::new();
    let mut cur = cfg.clone();
    while cur.opt_level != raa_isa::OptLevel::None {
        cur.opt_level = match cur.opt_level {
            raa_isa::OptLevel::Aggressive => raa_isa::OptLevel::Basic,
            _ => raa_isa::OptLevel::None,
        };
        rungs.push((diff_label(cfg, &cur), cur.clone()));
    }
    rungs
}

/// The config fields a ladder rung changed, as `key=value` pairs.
fn diff_label(base: &AtomiqueConfig, cur: &AtomiqueConfig) -> String {
    let mut parts: Vec<String> = Vec::new();
    if cur.opt_level != base.opt_level {
        parts.push(format!(
            "opt={}",
            match cur.opt_level {
                raa_isa::OptLevel::None => 0,
                raa_isa::OptLevel::Basic => 1,
                raa_isa::OptLevel::Aggressive => 2,
            }
        ));
    }
    parts.join(",")
}

/// Extracts the human-readable message from a caught panic payload
/// (`panic!` produces `&str` or `String`; anything else gets a
/// placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&'static str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// The invariants the service imposes on every compile: the stream is
/// attached, independently verified, and detail-traced (per-request
/// counters).
fn force_serving_flags(mut cfg: AtomiqueConfig) -> AtomiqueConfig {
    cfg.emit_isa = true;
    cfg.verify_isa = true;
    cfg.trace = true;
    cfg
}

/// Moves `key` to the hot end of the recency order.
fn touch(lru: &mut Vec<Key>, key: Key) {
    if let Some(pos) = lru.iter().position(|&k| k == key) {
        lru.remove(pos);
    }
    lru.push(key);
}

#[cfg(test)]
mod tests {
    use super::*;
    use raa_circuit::{Gate, Qubit};

    fn ghz(n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        c.push(Gate::h(Qubit(0)));
        for i in 0..n - 1 {
            c.push(Gate::cx(Qubit(i as u32), Qubit(i as u32 + 1)));
        }
        c
    }

    fn job(name: &str, circuit: Circuit) -> Job {
        Job {
            name: name.into(),
            circuit,
        }
    }

    #[test]
    fn hit_after_miss_returns_identical_bytes_without_recompiling() {
        let engine = Engine::new(ServeConfig::default());
        let cfg = engine.base().clone();
        let jobs = [job("ghz", ghz(4))];
        let cold = engine.submit(&cfg, &jobs).unwrap();
        let warm = engine.submit(&cfg, &jobs).unwrap();
        let cold = cold[0].result.as_ref().unwrap();
        let warm = warm[0].result.as_ref().unwrap();
        assert_eq!(cold.status, CacheStatus::Miss);
        assert_eq!(warm.status, CacheStatus::Hit);
        assert_eq!(cold.entry.isa_bytes, warm.entry.isa_bytes);
        let stats = engine.stats();
        assert_eq!((stats.hits, stats.misses, stats.compiles), (1, 1, 1));
        assert_eq!(stats.cache_entries, 1);
        assert_eq!(stats.queue_depth, 0);
    }

    #[test]
    fn batches_beyond_the_queue_bound_are_rejected_whole() {
        let engine = Engine::new(ServeConfig {
            queue_capacity: 2,
            ..ServeConfig::default()
        });
        let cfg = engine.base().clone();
        let jobs = [job("a", ghz(3)), job("b", ghz(4)), job("c", ghz(5))];
        match engine.submit(&cfg, &jobs) {
            Err(ServeError::QueueFull { depth, capacity }) => {
                assert_eq!((depth, capacity), (0, 2));
            }
            other => panic!("expected QueueFull, got {other:?}"),
        }
        let stats = engine.stats();
        assert_eq!(stats.rejected, 3);
        assert_eq!(stats.compiles, 0);
        // A batch that fits still goes through afterwards.
        assert!(engine.submit(&cfg, &jobs[..2]).is_ok());
        assert_eq!(engine.stats().queue_depth, 0);
    }

    #[test]
    fn compile_errors_propagate_and_are_never_cached() {
        let engine = Engine::new(ServeConfig::default());
        let cfg = engine.base().clone();
        // A circuit far larger than the default machine fails the
        // capacity check inside `compile`.
        let huge = Circuit::new(100_000);
        let out = engine.submit(&cfg, &[job("too-big", huge)]).unwrap();
        let err = out[0].result.as_ref().unwrap_err();
        assert_eq!(err.kind(), "compile");
        assert_eq!(engine.stats().cache_entries, 0);
        // The failure was not cached: submitting again compiles again.
        let before = engine.stats().compiles;
        let huge = Circuit::new(100_000);
        let _ = engine.submit(&cfg, &[job("too-big", huge)]).unwrap();
        assert_eq!(engine.stats().compiles, before + 1);
    }

    #[test]
    fn abandoned_lead_flights_fail_fast_instead_of_wedging() {
        // Simulates `submit` unwinding between flight registration and
        // publication: dropping an armed LeadGuard must publish an
        // error to the flight and clear `in_flight`, so followers (and
        // future identical jobs) never block forever.
        let engine = Engine::new(ServeConfig::default());
        let key = (1u64, 2u64);
        let flight = Arc::new(Flight::new());
        engine
            .state
            .lock()
            .unwrap()
            .in_flight
            .insert(key, flight.clone());
        drop(LeadGuard {
            engine: &engine,
            keys: vec![key],
            armed: true,
        });
        match flight.wait() {
            Err(ServeError::Compile { message }) => assert!(message.contains("abandoned")),
            other => panic!("expected published compile error, got {other:?}"),
        }
        assert!(engine.state.lock().unwrap().in_flight.is_empty());
        // A disarmed guard (the normal path) touches nothing.
        let flight = Arc::new(Flight::new());
        engine
            .state
            .lock()
            .unwrap()
            .in_flight
            .insert(key, flight.clone());
        drop(LeadGuard {
            engine: &engine,
            keys: vec![key],
            armed: false,
        });
        assert!(engine.state.lock().unwrap().in_flight.contains_key(&key));
    }

    #[test]
    fn panic_messages_are_extracted_from_common_payloads() {
        let s: Box<dyn std::any::Any + Send> = Box::new("boom");
        assert_eq!(panic_message(s.as_ref()), "boom");
        let owned: Box<dyn std::any::Any + Send> = Box::new(String::from("kaboom"));
        assert_eq!(panic_message(owned.as_ref()), "kaboom");
        let other: Box<dyn std::any::Any + Send> = Box::new(42u32);
        assert_eq!(panic_message(other.as_ref()), "non-string panic payload");
    }

    #[test]
    fn breaker_opens_sheds_and_recovers_via_probe() {
        let engine = Engine::new(ServeConfig {
            breaker_threshold: 2,
            breaker_cooldown_ms: 50,
            max_retries: 0,
            degrade: false,
            ..ServeConfig::default()
        });
        let cfg = engine.base().clone();
        // Two consecutive terminal failures (a 0 ms deadline overruns
        // at the first stage boundary) trip the breaker.
        for n in [3, 4] {
            let out = engine
                .submit_with(&cfg, &[job("slow", ghz(n))], Some(0))
                .unwrap();
            assert!(out[0].result.is_err());
        }
        let stats = engine.stats();
        assert_eq!(stats.breaker_opens, 1);
        assert_eq!(stats.breaker_state, BreakerState::Open);
        // While open, whole batches are shed with a retry hint.
        match engine.submit(&cfg, &[job("ghz", ghz(3))]) {
            Err(ServeError::BreakerOpen { retry_after_ms }) => assert!(retry_after_ms >= 1),
            other => panic!("expected BreakerOpen, got {other:?}"),
        }
        assert_eq!(engine.stats().shed, 1);
        // After the cooldown one probe goes through; success closes.
        std::thread::sleep(std::time::Duration::from_millis(60));
        let out = engine.submit(&cfg, &[job("ghz", ghz(3))]).unwrap();
        assert!(out[0].result.is_ok());
        assert_eq!(engine.stats().breaker_state, BreakerState::Closed);
    }

    #[test]
    fn oversized_jobs_never_open_the_breaker() {
        // 400 qubits on the default 300-atom machine: `Capacity`, an
        // error the request's own input decides. Eight of them (the
        // default threshold) say nothing about compile health, so the
        // breaker stays closed and the next valid job is served.
        let engine = Engine::new(ServeConfig::default());
        let cfg = engine.base().clone();
        for i in 0..8 {
            let out = engine
                .submit(&cfg, &[job(&format!("big{i}"), ghz(400))])
                .unwrap();
            let err = out[0].result.as_ref().unwrap_err();
            assert!(err.to_string().contains("400"), "{err}");
        }
        assert_eq!(engine.stats().breaker_state, BreakerState::Closed);
        let out = engine.submit(&cfg, &[job("ghz", ghz(5))]).unwrap();
        assert!(out[0].result.is_ok());
        let stats = engine.stats();
        assert_eq!(stats.breaker_state, BreakerState::Closed);
        assert_eq!((stats.breaker_opens, stats.shed), (0, 0));
    }

    #[test]
    fn input_errors_release_a_probe_without_closing_the_breaker() {
        let engine = Engine::new(ServeConfig {
            breaker_threshold: 1,
            breaker_cooldown_ms: 20,
            max_retries: 0,
            degrade: false,
            ..ServeConfig::default()
        });
        let cfg = engine.base().clone();
        let out = engine
            .submit_with(&cfg, &[job("slow", ghz(4))], Some(0))
            .unwrap();
        assert!(out[0].result.is_err());
        assert_eq!(engine.stats().breaker_state, BreakerState::Open);
        std::thread::sleep(std::time::Duration::from_millis(30));
        // The probe batch's only leader fails on its own input: no
        // evidence, so the breaker stays half-open and frees the slot
        // for the next batch, which probes and closes it.
        let out = engine.submit(&cfg, &[job("big", ghz(400))]).unwrap();
        assert!(out[0].result.is_err());
        assert_eq!(engine.stats().breaker_state, BreakerState::HalfOpen);
        let out = engine.submit(&cfg, &[job("ghz", ghz(5))]).unwrap();
        assert!(out[0].result.is_ok());
        assert_eq!(engine.stats().breaker_state, BreakerState::Closed);
    }

    #[test]
    fn draining_rejects_new_batches() {
        let engine = Engine::new(ServeConfig::default());
        let cfg = engine.base().clone();
        engine.begin_drain();
        assert!(matches!(
            engine.submit(&cfg, &[job("late", ghz(3))]),
            Err(ServeError::Draining)
        ));
        assert!(engine.stats().draining);
    }

    #[test]
    fn exhausted_deadline_is_reported_after_the_ladder() {
        // A deadline of 0 ms expires at every stage boundary of every
        // rung, deterministically: the default config has no cheaper
        // rungs (it is already -O0), so exactly one attempt runs and
        // the job reports `deadline`.
        let engine = Engine::new(ServeConfig::default());
        let cfg = engine.base().clone();
        let out = engine
            .submit_with(&cfg, &[job("slow", ghz(4))], Some(0))
            .unwrap();
        match out[0].result.as_ref() {
            Err(ServeError::DeadlineExceeded { stage }) => assert!(!stage.is_empty()),
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        let stats = engine.stats();
        assert_eq!(stats.deadline_exceeded, 1);
        assert_eq!(stats.compiles, 1);
        assert_eq!(stats.cache_entries, 0);
    }

    #[test]
    fn ladder_rungs_are_cumulative_with_self_describing_labels() {
        let cfg = AtomiqueConfig {
            opt_level: raa_isa::OptLevel::Aggressive,
            ..AtomiqueConfig::default()
        };
        let rungs = degradation_ladder(&cfg);
        let labels: Vec<&str> = rungs.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(labels, ["opt=1", "opt=0"]);
        let last = &rungs.last().unwrap().1;
        assert_eq!(last.opt_level, raa_isa::OptLevel::None);
        // Nothing to shed for an already-minimal config.
        assert!(degradation_ladder(&AtomiqueConfig::default()).is_empty());
    }

    #[test]
    fn lru_eviction_respects_capacity_and_recency() {
        let engine = Engine::new(ServeConfig {
            cache_capacity: 2,
            ..ServeConfig::default()
        });
        let cfg = engine.base().clone();
        for (name, n) in [("a", 3), ("b", 4), ("a", 3), ("c", 5)] {
            engine.submit(&cfg, &[job(name, ghz(n))]).unwrap();
        }
        // a, b cached; touching a made b the coldest; c evicted b.
        let stats = engine.stats();
        assert_eq!(stats.cache_entries, 2);
        assert_eq!(stats.evictions, 1);
        let out = engine.submit(&cfg, &[job("a", ghz(3))]).unwrap();
        assert_eq!(out[0].result.as_ref().unwrap().status, CacheStatus::Hit);
        let out = engine.submit(&cfg, &[job("b", ghz(4))]).unwrap();
        assert_eq!(out[0].result.as_ref().unwrap().status, CacheStatus::Miss);
    }
}
