//! The repository benchmark: one workload per run, every end-to-end
//! metric (`--trace 0`) or every per-layer metric (`--trace 1`) printed
//! as the last line of stdout, one JSON object.
//!
//! ```text
//! perfbench --workload qaoa-route|paper-suite|serve-mix --seed N --seconds S --trace 0|1
//!           [--scale full|tiny] [--serve-bin PATH] [--trace-out PATH]
//! ```
//!
//! `serve-mix` spawns `raa-serve` from `--serve-bin` (default: next to
//! this executable). The traced run writes its span tree as Chrome
//! trace-event JSON to `--trace-out` (default: `traces/` next to this
//! executable). The process exits 1 when any output check fails and 2
//! on a usage error.

mod adapter;
mod circuits;
mod library;
mod report;
mod serve_mix;

use std::path::PathBuf;
use std::process::ExitCode;

use circuits::Scale;
use library::Library;
use report::Outcome;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    serve_bin: PathBuf,
    trace_out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let exe_dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(PathBuf::from))
        .unwrap_or_default();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut scale = Scale::Full;
    let mut serve_bin = exe_dir.join("raa-serve");
    let mut trace_out = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--scale" => {
                scale = match value.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => return Err(bad()),
                }
            }
            "--serve-bin" => serve_bin = PathBuf::from(value),
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    Ok(Args {
        trace_out: trace_out.unwrap_or_else(|| {
            exe_dir
                .join("traces")
                .join(format!("{workload}-s{seed}.json"))
        }),
        workload,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        scale,
        serve_bin,
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    let (seed, scale) = (args.seed, args.scale);
    let library = match args.workload.as_str() {
        "qaoa-route" => Library {
            generate: Box::new(move || circuits::qaoa_route(seed, scale)),
            config: adapter::config(Some(circuits::route_qubits(scale))),
        },
        "paper-suite" => Library {
            generate: Box::new(move || circuits::paper_suite(seed, scale)),
            config: adapter::config(None),
        },
        "serve-mix" => {
            let mix = serve_mix::ServeMix {
                seed,
                scale,
                seconds: args.seconds,
                serve_bin: &args.serve_bin,
            };
            return mix.run(args.trace, &args.trace_out);
        }
        other => return Err(format!("unknown workload `{other}`")),
    };
    Ok(if args.trace {
        library::run_traced(&library, &args.trace_out, &args.workload)
    } else {
        library::run(&library, args.seconds)
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(outcome) => {
            println!("{}", outcome.to_json());
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
