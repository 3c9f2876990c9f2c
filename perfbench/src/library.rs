//! The library workloads (`qaoa-route`, `paper-suite`): circuits through
//! `atomique::compile`, and the traced per-layer run.

use std::collections::BTreeMap;
use std::time::Instant;

use atomique::trace::TraceReport;
use atomique::AtomiqueConfig;

use crate::adapter::{self, Output, LAYER_SPANS};
use crate::circuits::Named;
use crate::report::{max, median, min, peak_rss_mib, percentile, Metrics, Outcome, Tally, WINDOWS};

/// Set-up repetitions whose median is `setup_s`.
pub const SETUP_REPS: usize = 3;
/// Timed passes made however short the measuring window.
const MIN_PASSES: usize = 2;

/// A library workload: how to generate its circuit set and the config
/// it compiles under.
pub struct Library {
    pub generate: Box<dyn Fn() -> Vec<Named>>,
    pub config: AtomiqueConfig,
}

/// Compiles every circuit once; `None` for a circuit that failed.
fn pass(circuits: &[Named], cfg: &AtomiqueConfig, tally: &mut Tally) -> Vec<Option<Output>> {
    circuits
        .iter()
        .map(|c| {
            let out = adapter::compile(&c.circuit, cfg);
            tally.check(out.is_ok(), || {
                format!("{}: {:?}", c.name, out.as_ref().err())
            });
            out.ok()
        })
        .collect()
}

/// Set-up: generate the circuit set and compile its largest circuit,
/// `SETUP_REPS` times; returns the circuits and the median set-up time.
fn setup(lib: &Library, tally: &mut Tally) -> (Vec<Named>, f64) {
    let mut times = Vec::new();
    let mut circuits = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        circuits = (lib.generate)();
        let largest = circuits
            .iter()
            .max_by_key(|c| c.circuit.gates().len())
            .expect("a workload has circuits");
        let warm = adapter::compile(&largest.circuit, &lib.config);
        times.push(t.elapsed().as_secs_f64());
        tally.check(warm.is_ok(), || {
            format!("warm-up {}: {:?}", largest.name, warm.err())
        });
    }
    (circuits, median(&times))
}

/// The end-to-end run: timed passes over the circuit set with tracing
/// off, every pass's bytes checked against the first pass. A request is
/// one pass, the batch a caller hands the compiler; the passes are
/// grouped into `WINDOWS` sub-windows and each timing is reported from
/// its best one. `compile_s` sums, per circuit, the compiler's own
/// reported time in its fastest pass.
pub fn run(lib: &Library, seconds: f64) -> Outcome {
    let mut tally = Tally::default();
    let (circuits, setup_s) = setup(lib, &mut tally);

    let mut pass_ms = Vec::new();
    let mut best_s = vec![f64::INFINITY; circuits.len()];
    let mut reference: Vec<Option<Output>> = Vec::new();
    let start = Instant::now();
    while pass_ms.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let outputs = pass(&circuits, &lib.config, &mut tally);
        pass_ms.push(t.elapsed().as_secs_f64() * 1e3);
        for (best, out) in best_s.iter_mut().zip(&outputs) {
            if let Some(out) = out {
                *best = best.min(out.compile_s);
            }
        }
        if reference.is_empty() {
            reference = outputs;
            continue;
        }
        for ((c, first), now) in circuits.iter().zip(&reference).zip(&outputs) {
            if let (Some(first), Some(now)) = (first, now) {
                tally.check(first.bytes == now.bytes, || {
                    format!("{}: ISA bytes differ from the first pass", c.name)
                });
            }
        }
    }
    let window_s = start.elapsed().as_secs_f64();
    let compiles = pass_ms.len() * circuits.len();
    let (mut p50, mut p99, mut rps) = (Vec::new(), Vec::new(), Vec::new());
    for window in pass_ms.chunks_exact((pass_ms.len() / WINDOWS).max(1)) {
        p50.push(median(window));
        p99.push(percentile(window, 99.0));
        rps.push((window.len() * circuits.len()) as f64 * 1e3 / window.iter().sum::<f64>());
    }

    let outputs: Vec<&Output> = reference.iter().flatten().collect();
    let mut m = Metrics::default();
    m.push("compile_s", best_s.iter().sum(), "s");
    m.push("req_p50_ms", min(&p50), "ms");
    m.push("req_p99_ms", min(&p99), "ms");
    m.push("throughput_rps", max(&rps), "1/s");
    m.push("setup_s", setup_s, "s");
    m.push("peak_rss_mib", peak_rss_mib("self"), "MiB");
    push_quality(&mut m, &outputs);
    eprintln!(
        "{} passes, {compiles} compiles in {window_s:.2}s",
        pass_ms.len()
    );
    tally.outcome(m)
}

/// The output-quality metrics, summed over a workload's compile set
/// (`fidelity_loss` is the mean −ln fidelity, i.e. −ln of the
/// geometric-mean fidelity).
pub fn push_quality(m: &mut Metrics, outputs: &[&Output]) {
    let sum = |f: fn(&Output) -> f64| outputs.iter().map(|o| f(o)).sum::<f64>();
    m.push(
        "two_qubit_gates",
        sum(|o| o.quality.two_qubit_gates as f64),
        "count",
    );
    m.push("depth", sum(|o| o.quality.depth as f64), "count");
    m.push("exec_time_us", sum(|o| o.quality.exec_time_s) * 1e6, "us");
    m.push("isa_kib", sum(|o| o.bytes.len() as f64) / 1024.0, "KiB");
    m.push(
        "fidelity_loss",
        sum(|o| o.quality.fidelity_loss) / outputs.len().max(1) as f64,
        "nats",
    );
}

/// One traced pass: per-layer wall time, the pass wall and every count.
struct TracedPass {
    wall_s: f64,
    layer_s: BTreeMap<&'static str, f64>,
    counts: BTreeMap<String, u64>,
}

/// Runs the layer-call pipeline over `circuits` inside the calling
/// thread's `Detail` session, under a `pass` span, checking each
/// circuit's bytes against `reference`.
fn traced_pass(
    circuits: &[Named],
    cfg: &AtomiqueConfig,
    reference: &[Option<Output>],
    tally: &mut Tally,
) -> TracedPass {
    let mark = adapter::trace_mark();
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    let t = Instant::now();
    {
        let _pass = adapter::span("pass");
        for (c, want) in circuits.iter().zip(reference) {
            let _circuit = adapter::span("circuit");
            match adapter::traced_pipeline(&c.circuit, cfg) {
                Ok((bytes, pipeline)) => {
                    tally.check(want.as_ref().is_some_and(|w| w.bytes == bytes), || {
                        format!("{}: layer pipeline bytes differ from compile", c.name)
                    });
                    for (name, n) in pipeline {
                        *counts.entry(name.to_string()).or_default() += n;
                    }
                }
                Err(e) => tally.check(false, || format!("{}: {e}", c.name)),
            }
        }
    }
    let wall_s = t.elapsed().as_secs_f64();
    let window = adapter::trace_since(&mark);
    counts.extend(window.counters.iter().cloned());
    let mut layer_s: BTreeMap<&'static str, f64> =
        LAYER_SPANS.iter().map(|&(span, _)| (span, 0.0)).collect();
    if let Some(pass) = window.spans.iter().find(|s| s.name == "pass") {
        for circuit in &pass.children {
            for layer in &circuit.children {
                if let Some(total) = layer_s.get_mut(layer.name.as_str()) {
                    *total += layer.dur_s();
                }
            }
        }
    }
    TracedPass {
        wall_s,
        layer_s,
        counts,
    }
}

/// The counters every traced run reports (zero when a layer did no
/// such work).
pub const COUNTS: [&str; 17] = [
    "transpile.swaps",
    "transpile.score_recompute",
    "transpile.score_cache_hit",
    "route.try_add",
    "route.gates_planned",
    "route.reject.target_conflict",
    "route.reject.addressing",
    "route.reject.order",
    "route.reject.overlap",
    "route.stages",
    "grid.query",
    "grid.rebucket",
    "opt.candidates",
    "opt.accepted",
    "opt.verify.full",
    "isa.instrs_raw",
    "isa.instrs_opt",
];

/// The traced per-layer run over `circuits`: one untraced reference
/// pass through `atomique::compile`, then two traced layer-call passes
/// whose bytes must equal it and whose counts must equal each other.
/// Returns the per-layer metrics and the session's span tree.
pub fn traced(
    circuits: &[Named],
    cfg: &AtomiqueConfig,
    tally: &mut Tally,
    m: &mut Metrics,
) -> TraceReport {
    let t = Instant::now();
    let reference = pass(circuits, cfg, tally);
    let untraced_s = t.elapsed().as_secs_f64();

    adapter::trace_begin();
    let runs = [
        traced_pass(circuits, cfg, &reference, tally),
        traced_pass(circuits, cfg, &reference, tally),
    ];
    let report = adapter::trace_end();
    tally.check(runs[0].counts == runs[1].counts, || {
        format!(
            "counts differ between two traced passes: {:?} vs {:?}",
            runs[0].counts, runs[1].counts
        )
    });

    let traced_s = (runs[0].wall_s + runs[1].wall_s) / 2.0;
    let layer = |name: &str| (runs[0].layer_s[name] + runs[1].layer_s[name]) / 2.0;
    let attributed: f64 = LAYER_SPANS.iter().map(|(span, _)| layer(span)).sum();
    for (span, metric) in LAYER_SPANS {
        m.push(metric, layer(span), "s");
    }
    let count = |name: &str| runs[0].counts.get(name).copied().unwrap_or(0);
    for name in COUNTS {
        m.push(name, count(name) as f64, "count");
    }
    m.push(
        "route.admit_ratio",
        count("route.gates_planned") as f64 / count("route.try_add").max(1) as f64,
        "ratio",
    );
    m.push("trace_overhead", traced_s / untraced_s - 1.0, "ratio");
    m.push(
        "trace.unattributed_share",
        (traced_s - attributed) / traced_s,
        "ratio",
    );
    eprintln!(
        "untraced pass {untraced_s:.3}s, traced passes {:.3}s / {:.3}s, layers {attributed:.3}s",
        runs[0].wall_s, runs[1].wall_s
    );
    report
}

/// The traced run of a library workload; the serve-layer metrics read 0
/// because this workload bypasses the service.
pub fn run_traced(lib: &Library, trace_path: &std::path::Path, label: &str) -> Outcome {
    let mut tally = Tally::default();
    let circuits = (lib.generate)();
    let mut m = Metrics::default();
    let report = traced(&circuits, &lib.config, &mut tally, &mut m);
    crate::serve_mix::push_bypassed_serve(&mut m);
    write_trace(trace_path, &[(label, &report)]);
    tally.outcome(m)
}

/// Writes span trees for Perfetto, one named process each; a failure to
/// write is reported but does not fail the run.
pub fn write_trace(path: &std::path::Path, sections: &[(&str, &TraceReport)]) {
    let json = adapter::export_chrome(sections);
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, json));
    match written {
        Ok(()) => eprintln!("span tree written to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}
