//! Quickstart: compile a GHZ-state circuit for a reconfigurable atom
//! array and inspect its instruction stream.
//!
//! Run with `cargo run --release --example quickstart`.

use atomique::{compile, AtomiqueConfig};
use raa_benchmarks::ghz;
use raa_isa::disassemble;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 12-qubit GHZ state: H + a CX chain.
    let circuit = ghz(12);
    println!(
        "input: {} qubits, {} two-qubit gates",
        circuit.num_qubits(),
        circuit.two_qubit_count()
    );

    // The paper's default machine: 10×10 SLM plus two 10×10 AODs. The
    // compile also lowers its schedule to the hardware instruction stream.
    let config = AtomiqueConfig {
        emit_isa: true,
        ..AtomiqueConfig::default()
    };
    let program = compile(&circuit, &config)?;

    println!("\ncompiled program:");
    println!("  two-qubit gates : {}", program.stats.two_qubit_gates);
    println!("  depth (2Q stages): {}", program.stats.depth);
    println!("  SWAPs inserted  : {}", program.stats.swaps_inserted);
    println!("  movement stages : {}", program.stats.num_move_stages);
    println!(
        "  total move dist : {:.3} mm",
        program.stats.total_move_distance_mm
    );
    println!(
        "  execution time  : {:.2} ms",
        program.stats.execution_time_s * 1e3
    );
    println!("  est. fidelity   : {:.4}", program.total_fidelity());

    println!("\nfidelity breakdown (-log F):");
    for (source, v) in program.fidelity.neg_log_components() {
        println!("  {source:<18} {v:.5}");
    }

    println!("\nfirst instructions of the stream:");
    let listing = disassemble(program.isa.as_ref().expect("emit_isa attaches the stream"));
    // Instruction lines start with their pc; the header and loads do not.
    let is_instr = |l: &&str| l.starts_with(|c: char| c.is_ascii_digit());
    for line in listing.lines().filter(is_instr).take(10) {
        println!("  {line}");
    }
    Ok(())
}
