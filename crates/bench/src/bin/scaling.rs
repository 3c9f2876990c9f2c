//! Compiler + verifier scaling study (ROADMAP "Router performance" and
//! the PR 4 verifier work, paper Fig. 20's compilation-scalability
//! regime): sparse QSim and 3-regular QAOA workloads from 64 to 1024
//! qubits, compiled at `-O2` with ISA verification, reporting
//!
//! * a per-stage wall-clock breakdown
//!   (transpile / map / route / lower / opt / verify),
//! * router compile time with the spatial-grid proximity index vs the
//!   exhaustive-scan oracle (schedules asserted stage-identical),
//! * ISA legality checking under `CheckMode::Lines` vs
//!   `CheckMode::Exhaustive` (verdicts asserted identical), and
//! * the baseline rows pushed through the `raa-serve`
//!   batch-compilation engine cold and warm (schema 5 `serve`
//!   columns): served bytes asserted bit-identical to the direct
//!   compile, cache hit/miss and queue-depth counters recorded, and
//! * every baseline row re-compiled with `TranspileIndex::Naive`
//!   (schema 6): ISA bytes asserted bit-identical across index modes,
//!   the naive transpile-stage wall clock recorded next to the indexed
//!   one (`compile.transpile_naive_s`), and the SABRE counters
//!   (`transpile.score_recompute` / `score_dedup`) added to the counter
//!   columns.
//!
//! Run with `cargo run --release -p raa-bench --bin scaling
//! [-- --oracle-max=N] [--serve-max=N] [--naive-max=N] [--sizes=N,N,…]
//! [--trace <path>] [--counters]`.
//! The exhaustive paths are O(atoms²) per stage/pulse, so they only run
//! up to `--oracle-max` qubits (default 1024 — pass a smaller value for
//! a quick look). `--naive-max` likewise bounds the naive-transpile
//! twin compile (default unbounded — the naive path is quadratic in
//! atoms at graph construction, so cap it for quick sweeps). `--sizes`
//! restricts the size sweep (default 64,128,256,512,1024,2048,4096; entries
//! must be 2..=65536). `--trace` writes every
//! workload's compile span tree to one Chrome trace-event file — each
//! compile its own named process, loadable in Perfetto — and
//! `--counters` prints the per-compile telemetry counter tables (see
//! `docs/OBSERVABILITY.md`).
//!
//! The whole study is also emitted as `BENCH_scaling.json` in the
//! working directory, so the perf trajectory stays machine-readable
//! from PR 4 onward. Schema 3 added a `counters` object per row —
//! grid queries, router admissions, optimizer rejections and
//! incremental-verifier fallbacks — recorded from the same compile the
//! timings came from. Schema 4 added a `threads` column and
//! per-thread-count rows. Schema 5 adds a `serve` object (cold/warm
//! service round trips, cache hit/miss counts, queue high-water mark;
//! `null` above `--serve-max`). Schema 6 adds the `transpile_index`
//! column, `compile.transpile_naive_s` (the naive-twin transpile wall
//! clock; `null` above `--naive-max`) and the SABRE counter columns,
//! plus the 4096-qubit default rows. Schema 7 drops the
//! `score_cache_hit` and `extset_incremental` columns with the score
//! cache they measured (zero on every row). Schema 8 drops the
//! `threads` column and the thread-sweep rows: every compile runs on
//! one thread. Every row's `strategy` is `"sequential"`, the one
//! router strategy. Schema 9 renames `verifier.grid_s` to
//! `verifier.lines_s`: the checker's C1 sweeps line pairs and keeps no
//! spatial grid. Schema 10 drops the `opt_harness` object and the
//! `verify_fallback` counter with the per-candidate re-verify harness
//! they measured: `optimize` now proves its result once and `compile`
//! reuses that proof, so on these `-O2` rows `compile.verify_s` reads
//! about 0 and the one oracle run sits inside `compile.opt_s`.
//! Measured numbers are recorded in EXPERIMENTS.md
//! ("Router scaling", "Verifier scaling", "Counter telemetry",
//! "Intra-compile parallelism retired", "Batch-compilation service"
//! and "Transpile indexing").

use std::fmt::Write as _;
use std::time::Instant;

use atomique::trace::{export, TraceReport};
use atomique::{
    compile, AtomiqueConfig, CompiledProgram, OptLevel, ProximityIndex, StageKind, TranspileIndex,
};
use raa_bench::harness::{row, scaling_row, section, serve_probe, SCALING_COLUMNS};
use raa_benchmarks::scaling_pair;
use raa_isa::{check_legality_mode, codec, CheckMode, IsaStats};

struct Args {
    oracle_max: usize,
    serve_max: usize,
    naive_max: usize,
    sizes: Vec<usize>,
    trace_path: Option<String>,
    counters: bool,
}

/// Largest `--sizes` entry accepted: past 65536 qubits a single naive
/// row would run for hours, which is always a typo, not a study.
const MAX_SIZE: usize = 65536;

fn parse_args() -> Args {
    let mut parsed = Args {
        oracle_max: 1024,
        serve_max: 1024,
        naive_max: usize::MAX,
        sizes: vec![64, 128, 256, 512, 1024, 2048, 4096],
        trace_path: None,
        counters: false,
    };
    let die = |msg: String| -> ! {
        eprintln!("{msg}");
        std::process::exit(2);
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if let Some(v) = arg.strip_prefix("--oracle-max=") {
            parsed.oracle_max = v
                .parse()
                .unwrap_or_else(|_| die(format!("invalid --oracle-max value `{v}`")));
        } else if let Some(v) = arg.strip_prefix("--serve-max=") {
            parsed.serve_max = v
                .parse()
                .unwrap_or_else(|_| die(format!("invalid --serve-max value `{v}`")));
        } else if let Some(v) = arg.strip_prefix("--naive-max=") {
            parsed.naive_max = v
                .parse()
                .unwrap_or_else(|_| die(format!("invalid --naive-max value `{v}`")));
        } else if let Some(v) = arg.strip_prefix("--sizes=") {
            parsed.sizes = v
                .split(',')
                .map(|s| {
                    let n: usize = s
                        .trim()
                        .parse()
                        .unwrap_or_else(|_| die(format!("invalid --sizes entry `{s}`")));
                    if !(2..=MAX_SIZE).contains(&n) {
                        die(format!("--sizes entry `{s}` out of range (2..={MAX_SIZE})"));
                    }
                    n
                })
                .collect();
            if parsed.sizes.is_empty() {
                die("--sizes needs at least one qubit count".into());
            }
        } else if arg == "--trace" {
            match args.next() {
                Some(path) => parsed.trace_path = Some(path),
                None => die("--trace requires a file path".into()),
            }
        } else if arg == "--counters" {
            parsed.counters = true;
        } else {
            die(format!("unknown argument `{arg}`"));
        }
    }
    parsed
}

/// The two compiles must agree stage for stage — kind, gates and moves.
fn assert_stage_identical(name: &str, grid: &CompiledProgram, scan: &CompiledProgram) {
    assert_eq!(
        grid.stages.len(),
        scan.stages.len(),
        "{name}: stage counts differ"
    );
    for (i, (g, s)) in grid.stages.iter().zip(scan.stages.iter()).enumerate() {
        assert_eq!(g.kind, s.kind, "{name}: stage {i} kind differs");
        assert_eq!(g.gate_pairs, s.gate_pairs, "{name}: stage {i} gates differ");
        assert_eq!(
            g.moves.len(),
            s.moves.len(),
            "{name}: stage {i} move counts differ"
        );
    }
}

/// One workload's measurements, mirrored into `BENCH_scaling.json`.
struct Measurement {
    name: String,
    qubits: usize,
    timings: atomique::StageTimings,
    /// The `AtomiqueConfig::transpile_index` mode the row compiled
    /// under (schema 6). Every row runs the `Indexed` default; the
    /// naive path appears as the `transpile_naive_s` twin column, not
    /// as rows of its own.
    transpile_index: &'static str,
    /// Transpile-stage wall clock of the same workload re-compiled
    /// with `TranspileIndex::Naive`, ISA bytes asserted bit-identical
    /// first (schema 6). `None` above `--naive-max`.
    transpile_naive_s: Option<f64>,
    /// End-to-end compile wall clock with the grid proximity index
    /// (`compile.total_s` = `router.grid_compile_s` in the JSON; the
    /// pure router stage is `timings.route_s`).
    compile_total_s: f64,
    /// End-to-end compile wall clock with the exhaustive index.
    router_scan_s: Option<f64>,
    isa_instrs: usize,
    isa_pulses: usize,
    verify_lines_s: f64,
    verify_exhaustive_s: Option<f64>,
    counters: CounterRow,
    /// Schema-5 serving columns: the same workload pushed through the
    /// `raa-serve` engine cold (miss) and warm (hit), served bytes
    /// asserted bit-identical to this row's direct compile. `None`
    /// above `--serve-max`.
    serve: Option<ServeRow>,
}

/// The `serve` object of one schema-5 row.
struct ServeRow {
    cold_s: f64,
    warm_s: f64,
    cache_hits: u64,
    cache_misses: u64,
    max_queue_depth: u64,
}

impl ServeRow {
    /// Probes the service with this row's workload and asserts the
    /// served bytes match the direct compile's attached stream.
    fn probed(
        name: &str,
        qubits: usize,
        circuit: &raa_circuit::Circuit,
        cfg: &AtomiqueConfig,
        direct: &CompiledProgram,
    ) -> ServeRow {
        let probe = serve_probe(name, circuit, cfg);
        let direct_bytes = codec::to_bytes(direct.isa.as_ref().expect("emit_isa attached"));
        assert_eq!(
            probe.isa_bytes, direct_bytes,
            "{name}-{qubits}: served bytes diverge from direct compile"
        );
        assert_eq!(
            (probe.cache_misses, probe.cache_hits),
            (1, 1),
            "{name}-{qubits}: serve probe cache counters off"
        );
        println!(
            "  serve: cold {:.2}s, warm {:.4}s (hit; bytes bit-identical), queue depth {}",
            probe.cold_s, probe.warm_s, probe.max_queue_depth
        );
        ServeRow {
            cold_s: probe.cold_s,
            warm_s: probe.warm_s,
            cache_hits: probe.cache_hits,
            cache_misses: probe.cache_misses,
            max_queue_depth: probe.max_queue_depth,
        }
    }
}

/// The schema-3 counter columns, recorded from the same traced compile
/// the stage timings came from (see `docs/OBSERVABILITY.md` for the
/// full glossary — these four are the regression-gated headline set).
struct CounterRow {
    /// `grid.query` — spatial-index proximity queries.
    grid_query: u64,
    /// `route.try_add` — router gate-admission attempts.
    route_try_add: u64,
    /// `opt.rejected` — optimizer candidates refused.
    pass_rejected: u64,
    /// `transpile.score_recompute` — SABRE swap candidates scored
    /// (schema 6).
    score_recompute: u64,
    /// `transpile.score_dedup` — duplicate swap candidates skipped per
    /// round (schema 6).
    score_dedup: u64,
}

impl CounterRow {
    fn of(report: &atomique::CompileReport) -> CounterRow {
        CounterRow {
            grid_query: report.counter("grid.query"),
            route_try_add: report.counter("route.try_add"),
            pass_rejected: report.counter("opt.rejected"),
            score_recompute: report.counter("transpile.score_recompute"),
            score_dedup: report.counter("transpile.score_dedup"),
        }
    }
}

fn json_f(v: f64) -> String {
    format!("{v:.6}")
}

fn json_opt_f(v: Option<f64>) -> String {
    v.map_or_else(|| "null".into(), json_f)
}

fn json_serve(serve: &Option<ServeRow>) -> String {
    match serve {
        None => "null".into(),
        Some(s) => format!(
            "{{\"cold_s\": {}, \"warm_s\": {}, \"cache_hit\": {}, \"cache_miss\": {}, \
             \"queue_depth\": {}}}",
            json_f(s.cold_s),
            json_f(s.warm_s),
            s.cache_hits,
            s.cache_misses,
            s.max_queue_depth,
        ),
    }
}

fn write_json(measurements: &[Measurement]) {
    let mut out = String::from("{\n  \"schema\": 10,\n  \"workloads\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        let t = &m.timings;
        let _ = write!(
            out,
            concat!(
                "    {{\"name\": \"{}\", \"qubits\": {}, \"strategy\": \"sequential\", ",
                "\"transpile_index\": \"{}\",\n",
                "     \"compile\": {{\"total_s\": {}, \"transpile_s\": {}, ",
                "\"transpile_naive_s\": {}, \"map_s\": {}, ",
                "\"route_s\": {}, \"lower_s\": {}, \"opt_s\": {}, \"verify_s\": {}}},\n",
                "     \"router\": {{\"grid_compile_s\": {}, \"scan_compile_s\": {}}},\n",
                "     \"isa\": {{\"instrs\": {}, \"pulses\": {}}},\n",
                "     \"verifier\": {{\"lines_s\": {}, \"exhaustive_s\": {}}},\n",
                "     \"counters\": {{\"grid_query\": {}, \"route_try_add\": {}, ",
                "\"pass_rejected\": {}, ",
                "\"score_recompute\": {}, \"score_dedup\": {}}},\n",
                "     \"serve\": {}}}"
            ),
            m.name,
            m.qubits,
            m.transpile_index,
            json_f(m.compile_total_s),
            json_f(t.transpile_s),
            json_opt_f(m.transpile_naive_s),
            json_f(t.map_s),
            json_f(t.route_s),
            json_f(t.lower_s),
            json_f(t.opt_s),
            json_f(t.verify_s),
            json_f(m.compile_total_s),
            json_opt_f(m.router_scan_s),
            m.isa_instrs,
            m.isa_pulses,
            json_f(m.verify_lines_s),
            json_opt_f(m.verify_exhaustive_s),
            m.counters.grid_query,
            m.counters.route_try_add,
            m.counters.pass_rejected,
            m.counters.score_recompute,
            m.counters.score_dedup,
            json_serve(&m.serve),
        );
        out.push_str(if i + 1 < measurements.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ]\n}\n");
    std::fs::write("BENCH_scaling.json", &out).expect("write BENCH_scaling.json");
    println!(
        "\nwrote BENCH_scaling.json ({} workloads)",
        measurements.len()
    );
}

/// Prints a compile's counter table, indented under its section.
fn print_counters(report: &atomique::CompileReport) {
    for (name, value) in report.counters() {
        println!("    {name:<28}: {value}");
    }
}

fn main() {
    let args = parse_args();
    let oracle_max = args.oracle_max;
    section("Compiler + verifier scaling: grid vs exhaustive, lines vs exhaustive");
    println!("(exhaustive oracles run up to {oracle_max} qubits; results asserted identical)");

    let mut measurements = Vec::new();
    // One span tree per compile, exported as named Perfetto processes
    // when `--trace` is set.
    let mut traces: Vec<(String, TraceReport)> = Vec::new();
    for &n in &args.sizes {
        let pair = scaling_pair("QSim", "QAOA-regu3", n);
        for b in &pair {
            section(&format!("{}-{n}", b.name));
            row(
                "",
                &SCALING_COLUMNS
                    .iter()
                    .map(|c| c.to_string())
                    .collect::<Vec<_>>(),
            );
            // The headline configuration: -O2 with the stream attached
            // and independently verified. Detail tracing is always on —
            // the schema-3 counter columns come from the same compile
            // the timings do (tracing is output-identity-proven by
            // `tests/router_differential.rs`).
            let cfg = AtomiqueConfig {
                emit_isa: true,
                verify_isa: true,
                opt_level: OptLevel::Aggressive,
                trace: true,
                ..AtomiqueConfig::scaled_to(n)
            };
            let t0 = Instant::now();
            let grid = compile(&b.circuit, &cfg).unwrap_or_else(|e| panic!("{}-{n}: {e}", b.name));
            let grid_s = t0.elapsed().as_secs_f64();

            let scan_s = (n <= oracle_max).then(|| {
                let cfg = AtomiqueConfig {
                    proximity_index: ProximityIndex::Exhaustive,
                    ..cfg.clone()
                };
                let t0 = Instant::now();
                let scan =
                    compile(&b.circuit, &cfg).unwrap_or_else(|e| panic!("{}-{n}: {e}", b.name));
                let s = t0.elapsed().as_secs_f64();
                assert_stage_identical(b.name, &grid, &scan);
                s
            });
            row(b.name, &scaling_row(&grid, grid_s, scan_s));
            let resets = grid
                .stages
                .iter()
                .filter(|s| s.kind == StageKind::Reset)
                .count();
            println!("  (ISA legality + replay verified; {resets} reset stages)");

            let t = grid.timings;
            println!(
                "  stage breakdown: transpile {:.2}s  map {:.2}s  route {:.2}s  \
                 lower {:.2}s  opt {:.2}s  verify {:.2}s",
                t.transpile_s, t.map_s, t.route_s, t.lower_s, t.opt_s, t.verify_s
            );
            if args.counters {
                println!("  counters:");
                print_counters(&grid.report);
            }
            if args.trace_path.is_some() {
                traces.push((format!("{}-{n}", b.name), grid.report.trace.clone()));
            }

            // --- The naive-transpile twin (schema 6): the same
            // workload with `TranspileIndex::Naive` — BFS-built
            // coupling graph, rescanned k-Cut degrees — must
            // produce byte-identical ISA; only the transpile wall
            // clock may differ. Verification and tracing are off for
            // the twin (they burn identical time on both paths and the
            // bytes are what the assertion needs).
            let transpile_naive_s = (n <= args.naive_max).then(|| {
                let naive_cfg = AtomiqueConfig {
                    transpile_index: TranspileIndex::Naive,
                    verify_isa: false,
                    trace: false,
                    ..cfg.clone()
                };
                let naive = compile(&b.circuit, &naive_cfg)
                    .unwrap_or_else(|e| panic!("{}-{n} (naive transpile): {e}", b.name));
                assert_eq!(
                    codec::to_bytes(naive.isa.as_ref().expect("emit_isa attached")),
                    codec::to_bytes(grid.isa.as_ref().expect("emit_isa attached")),
                    "{}-{n}: ISA bytes differ across transpile-index modes",
                    b.name
                );
                let s = naive.timings.transpile_s;
                println!(
                    "  transpile: indexed {:.2}s, naive {s:.2}s ({:.1}x; ISA bit-identical)",
                    t.transpile_s,
                    s / t.transpile_s.max(1e-9),
                );
                s
            });

            // --- Verifier scaling: the raw (unoptimized) stream checked
            // under both modes.
            let raw = atomique::emit_isa(&grid, &cfg.hardware, b.name);
            let stats = IsaStats::of(&raw);

            let t0 = Instant::now();
            check_legality_mode(&raw, CheckMode::Lines)
                .unwrap_or_else(|e| panic!("{}-{n}: lines check: {e}", b.name));
            let verify_lines_s = t0.elapsed().as_secs_f64();
            let verify_exhaustive_s = (n <= oracle_max).then(|| {
                let t0 = Instant::now();
                check_legality_mode(&raw, CheckMode::Exhaustive)
                    .unwrap_or_else(|e| panic!("{}-{n}: exhaustive check: {e}", b.name));
                t0.elapsed().as_secs_f64()
            });

            println!(
                "  isa verify ({} instrs, {} pulses): lines {:.2}s, exhaustive {}",
                stats.instructions,
                stats.pulses,
                verify_lines_s,
                verify_exhaustive_s.map_or_else(|| "-".into(), |s| format!("{s:.2}s")),
            );
            // --- The service probe (schema 5): the same workload
            // through the raa-serve engine cold and warm, served bytes
            // asserted bit-identical to the compile above.
            let serve =
                (n <= args.serve_max).then(|| ServeRow::probed(b.name, n, &b.circuit, &cfg, &grid));

            measurements.push(Measurement {
                name: b.name.to_string(),
                qubits: n,
                timings: t,
                transpile_index: "indexed",
                transpile_naive_s,
                compile_total_s: grid_s,
                router_scan_s: scan_s,
                isa_instrs: stats.instructions,
                isa_pulses: stats.pulses,
                verify_lines_s,
                verify_exhaustive_s,
                counters: CounterRow::of(&grid.report),
                serve,
            });
        }
    }
    write_json(&measurements);
    if let Some(path) = &args.trace_path {
        let sections: Vec<(&str, &TraceReport)> = traces
            .iter()
            .map(|(name, report)| (name.as_str(), report))
            .collect();
        std::fs::write(path, export::to_chrome_named(&sections))
            .unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!(
            "wrote {path} ({} compiles; load in https://ui.perfetto.dev)",
            sections.len()
        );
    }
}
