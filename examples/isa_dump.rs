//! Compile a small circuit and print its hardware instruction stream —
//! the serializable program an RAA control system would consume — plus
//! what the ISA optimizer saves on it.
//!
//! Run with `cargo run --release --example isa_dump [-- -O{0,1,2}]
//! [--stage-timings] [--trace <path>] [--counters]`
//! (default `-O2`; `--stage-timings` prints the per-stage compile
//! wall-clock breakdown, `--trace` writes the compile's span tree to
//! `<path>` as Chrome trace-event JSON loadable in Perfetto, and
//! `--counters` prints the telemetry counter table; see `docs/ISA.md`
//! for the instruction set and `docs/OBSERVABILITY.md` for the tracing
//! surface).

use atomique::{compile, emit_isa, trace, AtomiqueConfig, OptLevel};
use raa_benchmarks::qaoa_regular;
use raa_isa::{check_legality, codec, disassemble, optimize, replay_verify, IsaStats};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut level = OptLevel::Aggressive;
    let mut stage_timings = false;
    let mut trace_path: Option<String> = None;
    let mut counters = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--stage-timings" => stage_timings = true,
            "--counters" => counters = true,
            "--trace" => match args.next() {
                Some(path) => trace_path = Some(path),
                None => return Err("--trace requires a file path".into()),
            },
            flag if flag.starts_with("-O") => match OptLevel::parse_flag(flag) {
                Some(l) => level = l,
                None => {
                    return Err(
                        format!("unknown optimization flag `{flag}` (use -O0, -O1 or -O2)").into(),
                    )
                }
            },
            other => return Err(format!("unknown argument `{other}`").into()),
        }
    }

    // A 10-qubit 3-regular QAOA instance.
    let circuit = qaoa_regular(10, 3, 7);
    let config = AtomiqueConfig {
        emit_isa: true,
        verify_isa: true,
        // Optimize inside compile too, so the trace and counters cover
        // the passes at the chosen level (the display re-run below is
        // separate and untraced).
        opt_level: level,
        // Detail telemetry only when someone asked to see it.
        trace: trace_path.is_some() || counters,
        ..AtomiqueConfig::default()
    };
    // verify_isa already ran the oracle inside compile; re-lower with a
    // display name (the stream attached by compile carries an empty one).
    let program = compile(&circuit, &config)?;
    assert!(program.isa.is_some(), "emit_isa attaches the stream");
    let raw = emit_isa(&program, &config.hardware, "qaoa-regu3-10");
    let (isa, report) = optimize(&raw, level);

    println!("{}", disassemble(&isa));

    let stats = IsaStats::of(&isa);
    println!("--- stream statistics ---");
    println!("instructions      : {}", stats.instructions);
    println!("row/col moves     : {}", stats.moves);
    println!("rydberg pulses    : {}", stats.pulses);
    println!("raman layers      : {}", stats.raman_layers);
    println!("transfers         : {}", stats.transfers);
    println!("two-qubit gates   : {}", stats.two_qubit_gates);
    println!("one-qubit gates   : {}", stats.one_qubit_gates);
    println!(
        "line travel       : {:.1} tracks ({:.2} mm)",
        stats.line_travel_tracks,
        stats.line_travel_um / 1000.0
    );
    println!("max parallel pulse: {}", stats.max_parallel_pulse);

    if level != OptLevel::None {
        println!("--- optimizer ({level:?}) ---");
        println!(
            "instructions      : {} -> {} ({} saved)",
            report.instructions_before,
            report.instructions_after,
            report.instructions_saved()
        );
        println!(
            "line travel       : {:.1} -> {:.1} tracks ({:.1} saved)",
            report.line_travel_before,
            report.line_travel_after,
            report.line_travel_saved()
        );
        println!(
            "passes            : {} coalesced, {} parks elided, {} dead moves",
            report.coalesced_moves, report.elided_parks, report.dead_moves
        );
    }

    if stage_timings {
        let t = program.timings;
        println!("--- stage timings (compile wall clock) ---");
        println!("transpile         : {:.4}s", t.transpile_s);
        println!("map               : {:.4}s", t.map_s);
        println!("route             : {:.4}s", t.route_s);
        println!("lower             : {:.4}s", t.lower_s);
        println!("opt               : {:.4}s", t.opt_s);
        println!("verify            : {:.4}s", t.verify_s);
        println!(
            "total             : {:.4}s (glue unattributed)",
            program.stats.compile_time_s
        );
    }

    if counters {
        println!("--- telemetry counters ---");
        for (name, value) in program.report.counters() {
            println!("{name:<28}: {value}");
        }
    }

    if let Some(path) = trace_path {
        std::fs::write(&path, trace::export::to_chrome(&program.report.trace))?;
        println!("trace written     : {path} (load in https://ui.perfetto.dev)");
    }

    let bytes = codec::to_bytes(&isa);
    println!("binary stream     : {} bytes", bytes.len());
    assert_eq!(codec::from_bytes(&bytes)?, isa);
    println!("codec round-trip  : lossless");

    check_legality(&isa)?;
    let report = replay_verify(&isa)?;
    println!(
        "oracle            : legal (C1/C2/C3) and faithful ({} 2Q + {} 1Q gates replayed)",
        report.two_qubit_gates, report.one_qubit_gates
    );
    Ok(())
}
