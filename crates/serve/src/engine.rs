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
//! A batch passes admission (drain, queue bound), then the
//! single-flight cache. Each leader job compiles exactly once, inside a
//! `catch_unwind` barrier and under the job's wall-clock deadline,
//! checked at stage boundaries; that result, success or error, is the
//! job's answer (`docs/ROBUSTNESS.md`). The pipeline is deterministic,
//! so a failure is decided by the job itself: compiling it again on the
//! same config would repeat it, and it says nothing about any other
//! job. The engine therefore keeps no failure history, and
//! [`Engine::begin_drain`] rejects new batches while in-flight ones
//! finish.

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
static DEADLINE: Counter = Counter::new("serve.deadline_exceeded");

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
    /// Compile deadline applied when a request does not carry its own
    /// `deadline_ms`. `None` means unlimited.
    pub default_deadline_ms: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 1,
            queue_capacity: 64,
            cache_capacity: 256,
            max_body_bytes: 16 << 20,
            base: AtomiqueConfig::default(),
            default_deadline_ms: None,
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
    /// Leader compiles run, one per miss: equals `misses` unless a
    /// worker wave died before it started a leader (an injected
    /// `par.worker` fault).
    pub compiles: u64,
    /// Jobs rejected by queue backpressure.
    pub rejected: u64,
    /// Cache entries evicted by the LRU bound.
    pub evictions: u64,
    /// High-water mark of concurrently admitted jobs.
    pub max_queue_depth: u64,
    /// Leader compiles that overran their deadline.
    pub deadline_exceeded: u64,
    /// Whether the engine is draining for shutdown.
    pub draining: bool,
    /// Entries currently cached.
    pub cache_entries: usize,
    /// Jobs currently admitted.
    pub queue_depth: usize,
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
    deadline_exceeded: AtomicU64,
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
    default_deadline_ms: Option<u64>,
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
            default_deadline_ms: config.default_deadline_ms,
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
    /// [`ServeError::Draining`] after [`Engine::begin_drain`]. Per-job
    /// compile failures are reported inside the returned outcomes (and
    /// are never cached).
    pub fn submit(
        &self,
        config: &AtomiqueConfig,
        jobs: &[Job],
    ) -> Result<Vec<JobOutcome>, ServeError> {
        self.submit_with(config, jobs, None)
    }

    /// [`Engine::submit`] with an explicit compile deadline
    /// (milliseconds); `None` falls back to the engine's configured
    /// default. Each leader compile gets one budget of `deadline_ms`,
    /// checked at stage boundaries.
    ///
    /// # Errors
    ///
    /// As [`Engine::submit`]; jobs whose compile overruns the budget
    /// report [`ServeError::DeadlineExceeded`] in their outcome.
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
        let deadline_ms = deadline_ms.or(self.default_deadline_ms);
        let _guard = self.admit(n)?;

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
        let compiled = self.pool.map_isolated("par.serve", &leads, |_, &(i, _)| {
            self.compile_once(&jobs[i].circuit, &cfg, deadline_ms)
        });

        for result in &compiled {
            COMPILE.incr();
            if let Err(ServeError::DeadlineExceeded { .. }) = result {
                DEADLINE.incr();
                self.tallies
                    .deadline_exceeded
                    .fetch_add(1, Ordering::Relaxed);
            }
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
        {
            let mut st = self.state();
            for (&(_, key), result) in leads.iter().zip(compiled) {
                if let Ok(entry) = &result {
                    if self.cache_capacity > 0 {
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
            deadline_exceeded: self.tallies.deadline_exceeded.load(Ordering::Relaxed),
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

    /// A leader job's one compile, under one deadline budget. Counted
    /// in [`EngineStats`] as it starts, so a wave killed later still
    /// reports it.
    fn compile_once(
        &self,
        circuit: &Circuit,
        cfg: &AtomiqueConfig,
        deadline_ms: Option<u64>,
    ) -> Result<Arc<CacheEntry>, ServeError> {
        self.tallies.compiles.fetch_add(1, Ordering::Relaxed);
        let limits = CompileLimits {
            deadline: deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms)),
        };
        let error = |message: String| ServeError::Compile { message };
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
                    return Err(error("injected fault at serve.compile".into()))
                }
                raa_fault::Action::Panic => panic!("injected fault at serve.compile"),
                raa_fault::Action::Deadline => {
                    return Err(ServeError::DeadlineExceeded {
                        stage: "serve".into(),
                    })
                }
            }
            atomique::compile_with_limits(circuit, cfg, limits).map_err(|e| match e {
                CompileError::Deadline { stage } => ServeError::DeadlineExceeded {
                    stage: stage.into(),
                },
                e => error(e.to_string()),
            })
        }))
        .map_err(|payload| {
            error(format!(
                "compiler panicked: {}",
                panic_message(payload.as_ref())
            ))
        })??;
        let isa = out
            .isa
            .as_ref()
            .ok_or_else(|| error("compiler did not attach an ISA stream".into()))?;
        Ok(Arc::new(CacheEntry {
            isa_bytes: codec::to_bytes(isa),
            timings: out.timings,
            fidelity: out.total_fidelity(),
            stats: out.stats,
            counters: out.report.counters().to_vec(),
        }))
    }
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
    fn one_clients_failures_never_refuse_anothers_cached_job() {
        // Client B's job is compiled and cached. Client A then sends
        // eight distinct jobs whose 0 ms deadline overruns at the first
        // stage boundary. Each failure is A's answer alone: B's resend
        // is still served from the cache, byte for byte.
        let engine = Engine::new(ServeConfig::default());
        let cfg = engine.base().clone();
        let b = [job("b", ghz(5))];
        let cold = engine.submit(&cfg, &b).unwrap();
        let cold = cold[0].result.as_ref().unwrap();
        assert_eq!(cold.status, CacheStatus::Miss);
        for n in 6..14 {
            let out = engine
                .submit_with(&cfg, &[job("a", ghz(n))], Some(0))
                .unwrap();
            assert_eq!(out[0].result.as_ref().unwrap_err().kind(), "deadline");
        }
        let warm = engine.submit(&cfg, &b).unwrap();
        let warm = warm[0].result.as_ref().unwrap();
        assert_eq!(warm.status, CacheStatus::Hit);
        assert_eq!(warm.entry.isa_bytes, cold.entry.isa_bytes);
        let stats = engine.stats();
        assert_eq!((stats.compiles, stats.deadline_exceeded), (9, 8));
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
    fn exhausted_deadline_is_reported_without_a_recompile() {
        // A deadline of 0 ms expires at the first stage boundary,
        // deterministically. At -O2 the job still compiles once and
        // reports `deadline`: nothing recompiles it at a lower level.
        let engine = Engine::new(ServeConfig::default());
        let cfg = AtomiqueConfig {
            opt_level: raa_isa::OptLevel::Aggressive,
            ..engine.base().clone()
        };
        let out = engine
            .submit_with(&cfg, &[job("slow", ghz(4))], Some(0))
            .unwrap();
        match out[0].result.as_ref() {
            Err(ServeError::DeadlineExceeded { stage }) => assert!(!stage.is_empty()),
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        let stats = engine.stats();
        assert_eq!((stats.compiles, stats.deadline_exceeded), (1, 1));
        assert_eq!(stats.cache_entries, 0);
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
