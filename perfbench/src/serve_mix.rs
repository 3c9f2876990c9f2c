//! The `serve-mix` workload: a closed loop of client threads against the
//! real `raa-serve` binary, 90 % Zipf(1) catalogue hits and 10 % fresh
//! QAOA misses, every served stream checked against a direct compile.

use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::adapter::{self, Output};
use crate::circuits::{self, Named, Scale};
use crate::library::{self, SETUP_REPS};
use crate::report::{max, median, min, peak_rss_mib, percentile, Metrics, Outcome, Tally, WINDOWS};

/// Closed-loop clients, one connection at a time each.
const CLIENTS: usize = 2;
/// Compile workers of the served engine.
const WORKERS: usize = 2;
/// Share of requests that are fresh (uncacheable) circuits.
const MISS_SHARE: f64 = 0.1;
/// Requests pre-generated per client per measured second; a client that
/// runs out ends the window early.
const MAX_RPS_PER_CLIENT: usize = 750;
/// Sequential requests of the front-end latency probe.
const PROBE_REQUESTS: usize = 200;

/// A running `raa-serve serve` child; killed and reaped on drop.
struct Server {
    child: Child,
    addr: SocketAddr,
    _stdout: BufReader<ChildStdout>,
}

impl Server {
    /// Spawns the binary on an ephemeral port and waits for
    /// `/v1/health` to answer.
    fn spawn(bin: &Path) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .args(["serve", "--addr", "127.0.0.1:0", "--workers"])
            .arg(WORKERS.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let _ = stdout.read_line(&mut line);
        let Some(addr) = line
            .trim()
            .rsplit("http://")
            .next()
            .and_then(|a| a.parse().ok())
        else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("no listening address in `{}`", line.trim()));
        };
        let mut server = Server {
            child,
            addr,
            _stdout: stdout,
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok((200, _)) = adapter::http(server.addr, "GET", "/v1/health", None) {
                return Ok(server);
            }
            if Instant::now() > deadline || server.child.try_wait().ok().flatten().is_some() {
                return Err("raa-serve never answered /v1/health".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn stats(&self) -> Result<HashMap<String, f64>, String> {
        match adapter::http(self.addr, "GET", "/v1/stats", None) {
            Ok((200, body)) => Ok(numeric_fields(&body)),
            Ok((status, _)) => Err(format!("/v1/stats answered {status}")),
            Err(e) => Err(format!("/v1/stats: {e}")),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Every top-level `"name":number` pair of a flat JSON object.
fn numeric_fields(body: &str) -> HashMap<String, f64> {
    body.trim_matches(|c| c == '{' || c == '}')
        .split(',')
        .filter_map(|pair| {
            let (k, v) = pair.split_once(':')?;
            Some((
                k.trim().trim_matches('"').to_string(),
                v.trim().parse().ok()?,
            ))
        })
        .collect()
}

/// The string value of `"key":"…"` in `body`.
fn string_field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let start = body.find(&format!("\"{key}\":\""))? + key.len() + 4;
    let len = body[start..].find('"')?;
    Some(&body[start..start + len])
}

/// The number after `"key":` in `body`.
fn number_field(body: &str, key: &str) -> Option<f64> {
    let start = body.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &body[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// splitmix64: a small seeded generator for the request sequence.
struct Rng(u64);

impl Rng {
    fn next_f64(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One distinct circuit of the mix and its request body.
struct Entry {
    circuit: Named,
    body: String,
}

/// The generated inputs: the catalogue, the fresh instances and each
/// client's request sequence (indices into `entries`).
struct Inputs {
    entries: Vec<Entry>,
    catalogue: usize,
    sequences: Vec<Vec<usize>>,
}

impl Inputs {
    fn generate(seed: u64, scale: Scale, seconds: f64) -> Inputs {
        let entry = |circuit: Named| Entry {
            body: adapter::request_body(&circuit.name, &adapter::to_qasm(&circuit.circuit)),
            circuit,
        };
        let mut entries: Vec<Entry> = circuits::paper_suite(seed, scale)
            .into_iter()
            .map(entry)
            .collect();
        let catalogue = entries.len();
        // Zipf(1) over the catalogue, in catalogue order.
        let weights: Vec<f64> = (1..=catalogue).map(|r| 1.0 / r as f64).collect();
        let total: f64 = weights.iter().sum();
        let per_client = (MAX_RPS_PER_CLIENT as f64 * seconds).ceil() as usize;
        let mut sequences = Vec::new();
        for client in 0..CLIENTS as u64 {
            let mut rng = Rng(seed ^ (client + 1).wrapping_mul(0xa076_1d64_78bd_642f));
            let mut seq = Vec::with_capacity(per_client);
            for _ in 0..per_client {
                if rng.next_f64() < MISS_SHARE {
                    let k = (entries.len() - catalogue) as u64;
                    entries.push(entry(circuits::miss_instance(seed, k, scale)));
                    seq.push(entries.len() - 1);
                } else {
                    let mut u = rng.next_f64() * total;
                    let rank = weights
                        .iter()
                        .position(|w| {
                            u -= w;
                            u < 0.0
                        })
                        .unwrap_or(catalogue - 1);
                    seq.push(rank);
                }
            }
            sequences.push(seq);
        }
        Inputs {
            entries,
            catalogue,
            sequences,
        }
    }
}

/// One answered request.
struct Sample {
    done: Instant,
    latency_ms: f64,
    cache: String,
    response_bytes: usize,
    compile_s: Option<f64>,
}

/// What one client thread saw.
#[derive(Default)]
struct ClientLog {
    samples: Vec<Sample>,
    /// The first `isa_b64` served per entry; later ones must equal it.
    first: HashMap<usize, String>,
    tally: Tally,
}

impl ClientLog {
    /// Sends one request and checks its response.
    fn request(&mut self, addr: SocketAddr, inputs: &Inputs, id: usize) {
        let t = Instant::now();
        let response = adapter::http(addr, "POST", "/v1/compile", Some(&inputs.entries[id].body));
        let latency_ms = t.elapsed().as_secs_f64() * 1e3;
        let name = &inputs.entries[id].circuit.name;
        let body = match response {
            Ok((200, body)) if body.contains("\"ok\":true") => body,
            Ok((status, body)) => {
                let head: String = body.chars().take(200).collect();
                return self
                    .tally
                    .check(false, || format!("{name}: {status} {head}"));
            }
            Err(e) => return self.tally.check(false, || format!("{name}: {e}")),
        };
        let (Some(cache), Some(isa)) =
            (string_field(&body, "cache"), string_field(&body, "isa_b64"))
        else {
            return self
                .tally
                .check(false, || format!("{name}: malformed response"));
        };
        let first = self.first.entry(id).or_insert_with(|| isa.to_string());
        let same = first == isa;
        self.tally.check(same, || {
            format!("{name}: served bytes changed between requests")
        });
        self.samples.push(Sample {
            done: Instant::now(),
            latency_ms,
            cache: cache.to_string(),
            response_bytes: body.len(),
            compile_s: (cache == "miss")
                .then(|| number_field(&body, "compile_time_s"))
                .flatten(),
        });
    }
}

/// The closed loop: each client walks its sequence until `seconds`
/// elapse or the sequence ends. Returns the logs, the start and the
/// window's length.
fn drive(addr: SocketAddr, inputs: &Inputs, seconds: f64) -> (Vec<ClientLog>, Instant, f64) {
    let window = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = inputs
            .sequences
            .iter()
            .map(|seq| {
                scope.spawn(move || {
                    let mut log = ClientLog::default();
                    for &id in seq {
                        if start.elapsed() >= window {
                            break;
                        }
                        log.request(addr, inputs, id);
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    (logs, start, start.elapsed().as_secs_f64())
}

/// Per sub-window of the measured interval: throughput, p50 and p99
/// latency, and the median server-reported compile time of its misses.
fn windowed(samples: &[Sample], start: Instant, window_s: f64) -> [Vec<f64>; 4] {
    let width = window_s / WINDOWS as f64;
    let mut windows: Vec<Vec<&Sample>> = vec![Vec::new(); WINDOWS];
    for s in samples {
        let w = ((s.done - start).as_secs_f64() / width) as usize;
        windows[w.min(WINDOWS - 1)].push(s);
    }
    let mut out: [Vec<f64>; 4] = Default::default();
    for w in windows.iter().filter(|w| !w.is_empty()) {
        let latencies: Vec<f64> = w.iter().map(|s| s.latency_ms).collect();
        let compile: Vec<f64> = w.iter().filter_map(|s| s.compile_s).collect();
        out[0].push(w.len() as f64 / width);
        out[1].push(median(&latencies));
        out[2].push(percentile(&latencies, 99.0));
        if !compile.is_empty() {
            out[3].push(median(&compile));
        }
    }
    out
}

/// Spawns the server and warms its cache with the catalogue,
/// `SETUP_REPS` times (keeping the last server); the median is
/// `setup_s`.
fn setup(bin: &Path, inputs: &Inputs, log: &mut ClientLog) -> Result<(Server, f64), String> {
    let mut times = Vec::new();
    let mut server = None;
    for _ in 0..SETUP_REPS {
        drop(server.take());
        *log = ClientLog::default();
        let t = Instant::now();
        let s = Server::spawn(bin)?;
        for id in 0..inputs.catalogue {
            log.request(s.addr, inputs, id);
        }
        times.push(t.elapsed().as_secs_f64());
        server = Some(s);
    }
    Ok((server.expect("at least one set-up"), median(&times)))
}

/// Checks every distinct served stream against a direct compile of the
/// same request under the engine's serving flags, on `CLIENTS` threads.
/// Returns the direct outputs of the catalogue.
fn verify(inputs: &Inputs, served: &HashMap<usize, String>, tally: &mut Tally) -> Vec<Output> {
    let engine = adapter::engine(1);
    let mut ids: Vec<usize> = served.keys().copied().collect();
    ids.sort_unstable();
    let chunk = ids.len().div_ceil(CLIENTS).max(1);
    let results: Vec<(usize, Result<Output, String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = ids
            .chunks(chunk)
            .map(|part| {
                let engine = &engine;
                scope.spawn(move || {
                    part.iter()
                        .map(|&id| {
                            let body = &inputs.entries[id].body;
                            (id, adapter::compile_request(engine, body))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("verify thread panicked"))
            .collect()
    });
    let mut catalogue = Vec::new();
    for (id, direct) in results {
        let name = &inputs.entries[id].circuit.name;
        match direct {
            Ok(direct) => {
                let bytes = adapter::b64_decode(&served[&id]).unwrap_or_default();
                tally.check(bytes == direct.bytes, || {
                    format!("{name}: served bytes differ from a direct compile")
                });
                if id < inputs.catalogue {
                    catalogue.push(direct);
                }
            }
            Err(e) => tally.check(false, || format!("{name}: direct compile: {e}")),
        }
    }
    catalogue
}

/// The workload's parameters.
pub struct ServeMix<'a> {
    pub seed: u64,
    pub scale: Scale,
    pub seconds: f64,
    pub serve_bin: &'a Path,
}

impl ServeMix<'_> {
    /// The end-to-end (`traced == false`) or per-layer run.
    pub fn run(&self, traced: bool, trace_path: &Path) -> Result<Outcome, String> {
        let inputs = Inputs::generate(self.seed, self.scale, self.seconds);
        let mut warm = ClientLog::default();
        let (server, setup_s) = setup(self.serve_bin, &inputs, &mut warm)?;
        let before = server.stats()?;
        let (logs, start, window_s) = drive(server.addr, &inputs, self.seconds);
        let after = server.stats()?;
        // The front-end probe: the most popular hit, sequentially.
        let mut probe_ms = Vec::new();
        if traced {
            let from = warm.samples.len();
            for _ in 0..PROBE_REQUESTS {
                warm.request(server.addr, &inputs, 0);
            }
            probe_ms.extend(warm.samples[from..].iter().map(|s| s.latency_ms));
        }
        let rss = peak_rss_mib(&server.child.id().to_string());
        drop(server);

        let mut tally = warm.tally;
        let mut served = warm.first;
        let mut samples = Vec::new();
        for log in logs {
            tally.attempted += log.tally.attempted;
            tally.failed += log.tally.failed;
            for (id, isa) in log.first {
                let first = served.entry(id).or_insert_with(|| isa.clone());
                let same = *first == isa;
                tally.check(same, || format!("entry {id}: clients saw different bytes"));
            }
            samples.extend(log.samples);
        }
        let catalogue = verify(&inputs, &served, &mut tally);
        let misses = samples.iter().filter(|s| s.cache == "miss").count();
        eprintln!(
            "{} requests ({misses} misses) in {window_s:.2}s, {} distinct streams verified",
            samples.len(),
            served.len()
        );

        let mut m = Metrics::default();
        if !traced {
            let [rps, p50, p99, compile] = windowed(&samples, start, window_s);
            m.push("compile_s", min(&compile), "s");
            m.push("req_p50_ms", min(&p50), "ms");
            m.push("req_p99_ms", min(&p99), "ms");
            m.push("throughput_rps", max(&rps), "1/s");
            m.push("setup_s", setup_s, "s");
            m.push("peak_rss_mib", rss, "MiB");
            library::push_quality(&mut m, &catalogue.iter().collect::<Vec<_>>());
            return Ok(tally.outcome(m));
        }

        // Per-layer: the compile layers over this workload's compile mix
        // (the catalogue plus as many fresh instances), then the
        // service's own layers.
        let mix: Vec<Named> = inputs
            .entries
            .iter()
            .take(inputs.catalogue)
            .chain(
                inputs
                    .entries
                    .iter()
                    .skip(inputs.catalogue)
                    .take(inputs.catalogue),
            )
            .map(|e| e.circuit.clone())
            .collect();
        let cfg = adapter::config(None);
        let compile_report = library::traced(&mix, &cfg, &mut tally, &mut m);

        let delta =
            |k: &str| after.get(k).copied().unwrap_or(0.0) - before.get(k).copied().unwrap_or(0.0);
        let lookups = delta("hits") + delta("misses") + delta("coalesced");
        m.push("serve.hit_ratio", delta("hits") / lookups.max(1.0), "ratio");
        m.push("serve.evictions", delta("evictions"), "count");
        m.push("serve.compiles", delta("compiles"), "count");
        m.push("serve.coalesced", delta("coalesced"), "count");
        m.push("serve.rejected", delta("rejected"), "count");
        m.push(
            "serve.max_queue_depth",
            after.get("max_queue_depth").copied().unwrap_or(0.0),
            "count",
        );
        let split = |cache: &str| -> Vec<f64> {
            samples
                .iter()
                .filter(|s| s.cache == cache)
                .map(|s| s.latency_ms)
                .collect()
        };
        m.push("serve.hit_p50_ms", median(&split("hit")), "ms");
        m.push("serve.miss_p50_ms", median(&split("miss")), "ms");
        let response_bytes: usize = samples.iter().map(|s| s.response_bytes).sum();
        m.push(
            "serve.response_kib",
            response_bytes as f64 / samples.len().max(1) as f64 / 1024.0,
            "KiB",
        );

        let serve_report = self.in_process(&inputs, &probe_ms, &mut tally, &mut m);
        library::write_trace(
            trace_path,
            &[
                ("compile layers", &compile_report),
                ("serve layers", &serve_report),
            ],
        );
        Ok(tally.outcome(m))
    }

    /// Replays client 0's sequence through an in-process engine, each
    /// serve layer call under a benchmark-owned span, and derives the
    /// HTTP front's share from `probe_ms`.
    fn in_process(
        &self,
        inputs: &Inputs,
        probe_ms: &[f64],
        tally: &mut Tally,
        m: &mut Metrics,
    ) -> atomique::trace::TraceReport {
        let engine = adapter::engine(WORKERS);
        for entry in &inputs.entries[..inputs.catalogue] {
            let ok =
                adapter::api_run(&engine, &entry.body).is_ok_and(|r| r.contains("\"ok\":true"));
            tally.check(ok, || {
                format!("{}: in-process warm-up failed", entry.circuit.name)
            });
        }
        let calls = match self.scale {
            Scale::Full => 1000,
            Scale::Tiny => 50,
        };
        let (mut parse, mut hit, mut miss, mut render) = (vec![], vec![], vec![], vec![]);
        adapter::trace_begin();
        for &id in inputs.sequences[0].iter().take(calls) {
            match adapter::serve_call(&engine, &inputs.entries[id].body) {
                Ok(call) => {
                    tally.check(true, String::new);
                    parse.push(call.parse.as_secs_f64());
                    render.push(call.render.as_secs_f64());
                    if call.hit {
                        hit.push(call.submit.as_secs_f64());
                    } else {
                        miss.push(call.submit.as_secs_f64());
                    }
                }
                Err(e) => tally.check(false, || format!("in-process request: {e}")),
            }
        }
        let report = adapter::trace_end();
        m.push("api.parse_s", median(&parse), "s");
        m.push("engine.hit_s", median(&hit), "s");
        m.push("engine.miss_s", median(&miss), "s");
        m.push("api.render_s", median(&render), "s");

        let mut run_ms = Vec::new();
        for _ in 0..PROBE_REQUESTS {
            let t = Instant::now();
            let ok = adapter::api_run(&engine, &inputs.entries[0].body).is_ok();
            run_ms.push(t.elapsed().as_secs_f64() * 1e3);
            tally.check(ok, || "in-process api::run failed".into());
        }
        m.push("http.front_ms", median(probe_ms) - median(&run_ms), "ms");
        report
    }
}

/// The serve-layer metrics of a workload that bypasses the service.
pub fn push_bypassed_serve(m: &mut Metrics) {
    for (name, unit) in SERVE_LAYER_METRICS {
        m.push(name, 0.0, unit);
    }
}

/// Every serve-layer per-layer metric, in report order.
const SERVE_LAYER_METRICS: [(&str, &str); 14] = [
    ("serve.hit_ratio", "ratio"),
    ("serve.evictions", "count"),
    ("serve.compiles", "count"),
    ("serve.coalesced", "count"),
    ("serve.rejected", "count"),
    ("serve.max_queue_depth", "count"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.miss_p50_ms", "ms"),
    ("serve.response_kib", "KiB"),
    ("api.parse_s", "s"),
    ("engine.hit_s", "s"),
    ("engine.miss_s", "s"),
    ("api.render_s", "s"),
    ("http.front_ms", "ms"),
];
