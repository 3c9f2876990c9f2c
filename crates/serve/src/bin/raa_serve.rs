//! The `raa-serve` command-line front.
//!
//! ```text
//! raa-serve serve [--addr 127.0.0.1:7417] [--workers N] [--queue N] [--cache N]
//!                 [--deadline-ms N] [--drain-ms N]
//! raa-serve batch [--opt 0|1|2] [--workers N] [--out DIR]
//!                 circuit.qasm [more.qasm ...]
//! ```
//!
//! `serve` binds the HTTP/JSON front and runs until SIGTERM/SIGINT,
//! then drains: the listener stops accepting first, in-flight requests
//! finish (bounded by `--drain-ms`, default 10 s), and the process
//! exits 0 on a clean drain. `batch` drives the same engine
//! in-process: it compiles each OpenQASM file and writes the verified
//! binary ISA stream next to it (or into `--out DIR`) as `<stem>.isa`.
//! Two inputs that would write one file are refused before anything
//! compiles.
//!
//! Both commands honor `RAA_FAULT_SPEC` (see `docs/ROBUSTNESS.md`): a
//! valid spec arms deterministic fault injection before any work runs;
//! a malformed one is a startup error, not a silent no-op.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use atomique::OptLevel;
use raa_circuit::qasm;
use raa_serve::engine::{Engine, Job, ServeConfig};
use raa_serve::http;

fn usage() -> ExitCode {
    eprintln!(
        "usage: raa-serve serve [--addr A] [--workers N] [--queue N] [--cache N] \
         [--deadline-ms N] [--drain-ms N]\n\
         \x20      raa-serve batch [--opt N] [--workers N] [--out DIR] FILE..."
    );
    ExitCode::from(2)
}

/// Set by the signal handler; polled by the serve loop.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Installs SIGTERM/SIGINT handlers that flip [`SHUTDOWN`]. Uses the
/// libc `signal(2)` std already links — storing to a static atomic is
/// async-signal-safe, and no new dependency is pulled in.
#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" fn on_signal(_signum: i32) {
        SHUTDOWN.store(true, Ordering::Release);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal as extern "C" fn(i32) as usize);
        signal(SIGTERM, on_signal as extern "C" fn(i32) as usize);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

/// Parses `--flag value` into `out`; returns whether `arg` consumed
/// the flag.
fn flag_value<T: std::str::FromStr>(
    args: &mut std::iter::Peekable<std::vec::IntoIter<String>>,
    arg: &str,
    name: &str,
    out: &mut T,
) -> Result<bool, String> {
    if arg != name {
        return Ok(false);
    }
    let value = args.next().ok_or_else(|| format!("{name} needs a value"))?;
    *out = value
        .parse()
        .map_err(|_| format!("bad value `{value}` for {name}"))?;
    Ok(true)
}

fn cmd_serve(args: Vec<String>) -> Result<(), String> {
    let mut addr = "127.0.0.1:7417".to_string();
    let mut cfg = ServeConfig::default();
    let mut deadline_ms = 0u64;
    let mut drain_ms = 10_000u64;
    let mut args = args.into_iter().peekable();
    while let Some(arg) = args.next() {
        if flag_value(&mut args, &arg, "--addr", &mut addr)?
            || flag_value(&mut args, &arg, "--workers", &mut cfg.workers)?
            || flag_value(&mut args, &arg, "--queue", &mut cfg.queue_capacity)?
            || flag_value(&mut args, &arg, "--cache", &mut cfg.cache_capacity)?
            || flag_value(&mut args, &arg, "--deadline-ms", &mut deadline_ms)?
            || flag_value(&mut args, &arg, "--drain-ms", &mut drain_ms)?
        {
            continue;
        }
        return Err(format!("unknown argument `{arg}`"));
    }
    if deadline_ms > 0 {
        cfg.default_deadline_ms = Some(deadline_ms);
    }
    install_signal_handlers();
    let engine = Arc::new(Engine::new(cfg));
    let server = http::serve(engine.clone(), &addr).map_err(|e| format!("bind {addr}: {e}"))?;
    println!("raa-serve listening on http://{}", server.addr());
    // Serve until SIGTERM/SIGINT, then drain: engine first (new
    // batches get 503), then the listener, then wait out in-flight
    // connections up to the drain deadline.
    while !SHUTDOWN.load(Ordering::Acquire) {
        std::thread::park_timeout(Duration::from_millis(50));
    }
    eprintln!("raa-serve: shutdown signal received, draining");
    engine.begin_drain();
    let drained = server.drain(Duration::from_millis(drain_ms));
    if drained {
        eprintln!("raa-serve: drained cleanly");
        Ok(())
    } else {
        Err("drain deadline elapsed with connections still in flight".into())
    }
}

/// Where `batch` writes the stream compiled from `file`: next to it as
/// `<file>.isa`, or as `DIR/<stem>.isa` under `--out DIR`.
fn batch_target(file: &str, out_dir: &str) -> PathBuf {
    let file = Path::new(file);
    if out_dir.is_empty() {
        return file.with_extension("isa");
    }
    let stem = file
        .file_stem()
        .map_or_else(|| "out".into(), |s| s.to_string_lossy());
    Path::new(out_dir).join(format!("{stem}.isa"))
}

fn cmd_batch(args: Vec<String>) -> Result<(), String> {
    let mut cfg = ServeConfig::default();
    let mut opt = 0usize;
    let mut out_dir = String::new();
    let mut files: Vec<String> = Vec::new();
    let mut args = args.into_iter().peekable();
    while let Some(arg) = args.next() {
        if flag_value(&mut args, &arg, "--opt", &mut opt)?
            || flag_value(&mut args, &arg, "--workers", &mut cfg.workers)?
            || flag_value(&mut args, &arg, "--out", &mut out_dir)?
        {
            continue;
        }
        if arg.starts_with('-') {
            return Err(format!("unknown argument `{arg}`"));
        }
        files.push(arg);
    }
    if files.is_empty() {
        return Err("batch needs at least one QASM file".into());
    }
    cfg.base.opt_level = match opt {
        0 => OptLevel::None,
        1 => OptLevel::Basic,
        2 => OptLevel::Aggressive,
        other => return Err(format!("bad --opt {other} (expected 0, 1 or 2)")),
    };
    let targets: Vec<PathBuf> = files.iter().map(|f| batch_target(f, &out_dir)).collect();
    for (i, target) in targets.iter().enumerate() {
        if let Some(j) = targets[..i].iter().position(|t| t == target) {
            return Err(format!(
                "{} and {} would both write {}",
                files[j],
                files[i],
                target.display()
            ));
        }
    }

    let mut jobs = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file).map_err(|e| format!("read {file}: {e}"))?;
        let circuit = qasm::from_qasm(&text).map_err(|e| format!("parse {file}: {e}"))?;
        jobs.push(Job {
            name: file.clone(),
            circuit,
        });
    }

    let engine = Engine::new(cfg);
    let outcomes = engine
        .submit(engine.base(), &jobs)
        .map_err(|e| e.to_string())?;
    let mut failed = false;
    for (outcome, target) in outcomes.iter().zip(&targets) {
        match &outcome.result {
            Ok(result) => {
                std::fs::write(target, &result.entry.isa_bytes)
                    .map_err(|e| format!("write {}: {e}", target.display()))?;
                println!(
                    "{}: {} bytes -> {} ({}, fidelity {:.4}, {:.2}s)",
                    outcome.name,
                    result.entry.isa_bytes.len(),
                    target.display(),
                    result.status.as_str(),
                    result.entry.fidelity,
                    result.entry.stats.compile_time_s,
                );
            }
            Err(e) => {
                eprintln!("{}: error: {e}", outcome.name);
                failed = true;
            }
        }
    }
    let stats = engine.stats();
    println!(
        "batch done: {} compiled, {} hits, {} coalesced",
        stats.compiles, stats.hits, stats.coalesced
    );
    if failed {
        Err("some jobs failed".into())
    } else {
        Ok(())
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return usage();
    }
    // Arm deterministic fault injection before any work runs; a
    // malformed spec must fail loudly, not silently serve unfaulted.
    match raa_fault::configure_from_env() {
        Ok(true) => eprintln!("raa-serve: RAA_FAULT_SPEC armed"),
        Ok(false) => {}
        Err(e) => {
            eprintln!("raa-serve: {e}");
            return ExitCode::from(2);
        }
    }
    let cmd = args.remove(0);
    let run = match cmd.as_str() {
        "serve" => cmd_serve(args),
        "batch" => cmd_batch(args),
        _ => return usage(),
    };
    match run {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("raa-serve: {message}");
            ExitCode::FAILURE
        }
    }
}
