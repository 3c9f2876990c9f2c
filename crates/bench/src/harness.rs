//! Shared experiment-harness utilities: compiling one benchmark on every
//! architecture, geometric means, and aligned table printing.

use atomique::{compile, AtomiqueConfig, CompiledProgram};
use raa_baselines::{compile_fixed, FixedArchitecture, FixedCompileResult};
use raa_circuit::Circuit;

/// Geometric mean (values clamped away from zero as the paper's plots do).
pub fn gmean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let logs: f64 = xs.iter().map(|&x| x.max(1e-9).ln()).sum();
    (logs / xs.len() as f64).exp()
}

/// One benchmark compiled on every architecture of Fig. 13.
#[derive(Debug)]
pub struct ArchComparison {
    /// Benchmark name.
    pub name: String,
    /// Baseline results, in [`FixedArchitecture::ALL`] order.
    pub fixed: Vec<FixedCompileResult>,
    /// Atomique's result.
    pub atomique: CompiledProgram,
}

/// Compiles `circuit` on the four fixed baselines and on Atomique.
///
/// # Panics
///
/// Panics if any compilation fails (the harness benchmarks are all sized
/// to fit every architecture).
pub fn compare_architectures(
    name: &str,
    circuit: &Circuit,
    cfg: &AtomiqueConfig,
) -> ArchComparison {
    let fixed = FixedArchitecture::ALL
        .iter()
        .map(|&arch| {
            compile_fixed(circuit, arch, 0)
                .unwrap_or_else(|e| panic!("{name} on {}: {e}", arch.name()))
        })
        .collect();
    let atomique = compile(circuit, cfg).unwrap_or_else(|e| panic!("{name} on Atomique: {e}"));
    ArchComparison {
        name: name.to_string(),
        fixed,
        atomique,
    }
}

/// Compiles independent benchmark circuits concurrently on `pool`.
///
/// Each compile is a *self-contained* job — it opens (and closes) its
/// own `raa-trace` session when its config enables tracing — so the
/// wave runs through [`raa_par::WorkPool::map_isolated`]: workers get
/// fresh threads with no session attached, per-compile counters and
/// timings stay unpolluted by their neighbours, and results come back
/// in submission order. With one worker this is exactly the sequential
/// compile loop.
///
/// # Panics
///
/// Panics if any compilation fails.
pub fn compile_suite_pooled(
    jobs: &[(&str, &Circuit, AtomiqueConfig)],
    pool: &raa_par::WorkPool,
) -> Vec<CompiledProgram> {
    pool.map_isolated("par.suite", jobs, |_, (name, circuit, cfg)| {
        compile(circuit, cfg).unwrap_or_else(|e| panic!("{name}: {e}"))
    })
}

/// Prints a section header.
pub fn section(title: &str) {
    println!();
    println!("=== {title} ===");
}

/// Prints one aligned row: a label plus formatted cells.
pub fn row(label: &str, cells: &[String]) {
    print!("{label:<22}");
    for c in cells {
        print!(" {c:>12}");
    }
    println!();
}

/// Formats a float with three significant decimals, or an integer-like
/// value without decimals.
pub fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

/// Prints a paper-vs-measured metric block: one line per series.
pub fn paper_vs_measured(metric: &str, labels: &[&str], paper: &[f64], measured: &[f64]) {
    println!("--- {metric} ---");
    row(
        "",
        &labels.iter().map(|l| l.to_string()).collect::<Vec<_>>(),
    );
    row("paper", &paper.iter().map(|&v| fmt(v)).collect::<Vec<_>>());
    row(
        "measured",
        &measured.iter().map(|&v| fmt(v)).collect::<Vec<_>>(),
    );
}

/// Column labels matching [`isa_row`].
pub const ISA_COLUMNS: [&str; 7] = [
    "instrs",
    "moves",
    "pulses",
    "xfers",
    "travel(mm)",
    "json(KB)",
    "bin(KB)",
];

/// ISA-level statistics of one instruction stream, formatted for
/// [`row`]: instruction count, moves, pulses, transfers, summed line
/// travel, and both encoded stream sizes.
pub fn isa_row(program: &raa_isa::IsaProgram) -> Vec<String> {
    let s = raa_isa::IsaStats::of(program);
    let json_bytes = raa_isa::codec::to_json(program)
        .unwrap_or_else(|e| panic!("unencodable stream for `{}`: {e}", program.header.name))
        .len();
    let bin_bytes = raa_isa::codec::to_bytes(program).len();
    vec![
        s.instructions.to_string(),
        s.moves.to_string(),
        s.pulses.to_string(),
        s.transfers.to_string(),
        fmt(s.line_travel_um / 1000.0),
        fmt(json_bytes as f64 / 1024.0),
        fmt(bin_bytes as f64 / 1024.0),
    ]
}

/// Column labels matching [`isa_opt_row`].
pub const ISA_OPT_COLUMNS: [&str; 6] = [
    "instrs",
    "instrs-opt",
    "Δinstr%",
    "travel(mm)",
    "travel-opt",
    "Δtravel%",
];

/// Percentage saved going from `before` to `after` (0 when `before` is
/// zero).
pub fn saved_pct(before: f64, after: f64) -> f64 {
    if before <= 0.0 {
        0.0
    } else {
        (before - after) / before * 100.0
    }
}

/// Optimizer before/after deltas of one stream, formatted for [`row`]:
/// instruction count and line travel of the unoptimized and optimized
/// streams, plus the percentage saved by each.
pub fn isa_opt_row(before: &raa_isa::IsaProgram, after: &raa_isa::IsaProgram) -> Vec<String> {
    let b = raa_isa::IsaStats::of(before);
    let a = raa_isa::IsaStats::of(after);
    vec![
        b.instructions.to_string(),
        a.instructions.to_string(),
        fmt(saved_pct(b.instructions as f64, a.instructions as f64)),
        fmt(b.line_travel_um / 1000.0),
        fmt(a.line_travel_um / 1000.0),
        fmt(saved_pct(b.line_travel_um, a.line_travel_um)),
    ]
}

/// Column labels matching [`scaling_row`].
pub const SCALING_COLUMNS: [&str; 7] = [
    "qubits",
    "2q-gates",
    "stages",
    "transfers",
    "lines(s)",
    "scan(s)",
    "speedup",
];

/// One row of the router-scaling study (`isa_stats`-style): circuit
/// size, routed stage count, and wall-clock compile time with the
/// line-sweep proximity enumeration vs. the exhaustive-scan oracle
/// (`scan_s` is `None` when the oracle run was skipped).
pub fn scaling_row(out: &CompiledProgram, lines_s: f64, scan_s: Option<f64>) -> Vec<String> {
    vec![
        out.stats.num_qubits.to_string(),
        out.stats.two_qubit_gates.to_string(),
        out.stats.depth.to_string(),
        out.stats.transfers.to_string(),
        format!("{lines_s:.2}"),
        scan_s.map_or_else(|| "-".into(), |s| format!("{s:.2}")),
        scan_s.map_or_else(|| "-".into(), |s| format!("{:.1}x", s / lines_s.max(1e-9))),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gmean_basics() {
        assert!((gmean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((gmean(&[5.0]) - 5.0).abs() < 1e-9);
        assert_eq!(gmean(&[]), 0.0);
        // Zero-clamping keeps the result finite.
        assert!(gmean(&[0.0, 1.0]).is_finite());
    }

    #[test]
    fn fmt_ranges() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(1234.0), "1234");
        assert_eq!(fmt(3.25), "3.2");
        assert_eq!(fmt(0.123), "0.123");
    }

    #[test]
    fn isa_opt_row_reports_savings() {
        use atomique::{compile, emit_isa, OptLevel};
        let c = raa_benchmarks::ghz(8);
        let cfg = AtomiqueConfig::default();
        let out = compile(&c, &cfg).unwrap();
        let before = emit_isa(&out, &cfg.hardware, "ghz-8");
        let (after, _) = raa_isa::optimize(&before, OptLevel::Aggressive);
        let cells = isa_opt_row(&before, &after);
        assert_eq!(cells.len(), ISA_OPT_COLUMNS.len());
        let b: usize = cells[0].parse().unwrap();
        let a: usize = cells[1].parse().unwrap();
        assert!(a <= b);
    }

    #[test]
    fn compare_architectures_runs() {
        let c = raa_benchmarks::ghz(6);
        let out = compare_architectures("ghz", &c, &AtomiqueConfig::default());
        assert_eq!(out.fixed.len(), 4);
        assert!(out.atomique.stats.two_qubit_gates >= 5);
    }
}
