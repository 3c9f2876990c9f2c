//! Main-result experiments: Tables I–III, Fig. 12 (kinematics), Fig. 13
//! (architecture comparison), Fig. 14 (solver compilers), Fig. 19
//! (Q-Pilot) and Fig. 25 (SWAP-inserted CNOTs).

use std::time::Duration;

use atomique::{compile, AtomiqueConfig};
use raa_arch::{ArrayDims, RaaConfig};
use raa_baselines::{atomique_pulses, geyser_pulses_routed, qpilot, tan_iterp, tan_solver};
use raa_benchmarks::{large_suite, qaoa_random, qaoa_regular, qsim_random, small_suite};
use raa_physics::{HardwareParams, MovementProfile};

use crate::harness::{compare_architectures, fmt, gmean, row, section};
use crate::paper;

/// Table I: the hardware constants (printed for the record; they are
/// compile-time constants of `raa-physics`).
pub fn table1() {
    section("Table I: hardware parameters");
    let n = HardwareParams::neutral_atom();
    let s = HardwareParams::superconducting();
    println!(
        "neutral atom : f2Q {:.4}  f1Q {:.5}  t2Q {:.0} ns  t1Q {:.0} ns  T1 {:.0} s",
        n.two_qubit_fidelity,
        n.one_qubit_fidelity,
        n.two_qubit_time_s * 1e9,
        n.one_qubit_time_s * 1e9,
        n.coherence_time_s
    );
    println!("               d {:.0} um  Tmove {:.0} us  Ttransfer {:.0} us  Ploss {:.4}  xzpf {:.0} nm  w0 2pi*{:.0} kHz  lambda {:.3}",
        n.atom_distance_um, n.t_move_s * 1e6, n.t_transfer_s * 1e6, n.transfer_loss_prob,
        n.x_zpf_m * 1e9, n.omega0_rad_s / (2.0 * std::f64::consts::PI) / 1e3, n.lambda);
    println!(
        "superconduct : f2Q {:.4}  f1Q {:.5}  t2Q {:.0} ns  t1Q {:.1} ns  T1 {:.1} us",
        s.two_qubit_fidelity,
        s.one_qubit_fidelity,
        s.two_qubit_time_s * 1e9,
        s.one_qubit_time_s * 1e9,
        s.coherence_time_s * 1e6
    );
}

/// Table II: benchmark characteristics.
pub fn table2() {
    section("Table II: benchmarks");
    row(
        "name",
        &["qubits", "2Q", "1Q", "2Q/Q", "deg/Q"]
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>(),
    );
    for b in large_suite().into_iter().chain(small_suite()) {
        let s = b.stats();
        row(
            b.name,
            &[
                s.num_qubits.to_string(),
                s.two_qubit_gates.to_string(),
                s.one_qubit_gates.to_string(),
                format!("{:.1}", s.two_qubit_gates_per_qubit),
                format!("{:.1}", s.degree_per_qubit),
            ],
        );
    }
}

/// Table III: multi-qubit pulse counts, Geyser vs Atomique.
pub fn table3(quick: bool) {
    section("Table III: multi-qubit pulses (lower is better)");
    let suite = large_suite();
    let mut names = Vec::new();
    let mut geyser_row = Vec::new();
    let mut atomique_row = Vec::new();
    for label in paper::TABLE3_LABELS {
        if quick && label == "QV-32" {
            continue;
        }
        let b = suite
            .iter()
            .find(|b| b.name == label)
            .expect("table 3 benchmark in suite");
        let g = geyser_pulses_routed(&b.circuit).expect("geyser routes");
        let a = compile(&b.circuit, &AtomiqueConfig::default()).expect("atomique compiles");
        names.push(label);
        geyser_row.push(g.pulses as f64);
        atomique_row.push(atomique_pulses(a.stats.two_qubit_gates) as f64);
    }
    row("", &names.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    row(
        "Geyser (measured)",
        &geyser_row.iter().map(|&v| fmt(v)).collect::<Vec<_>>(),
    );
    row(
        "Atomique (measured)",
        &atomique_row.iter().map(|&v| fmt(v)).collect::<Vec<_>>(),
    );
    let pg: Vec<f64> = paper::TABLE3_PULSES[0].to_vec();
    let pa: Vec<f64> = paper::TABLE3_PULSES[1].to_vec();
    row(
        "Geyser (paper)",
        &pg.iter().map(|&v| fmt(v)).collect::<Vec<_>>(),
    );
    row(
        "Atomique (paper)",
        &pa.iter().map(|&v| fmt(v)).collect::<Vec<_>>(),
    );
    let ratios: Vec<f64> = geyser_row
        .iter()
        .zip(&atomique_row)
        .map(|(g, a)| g / a.max(1.0))
        .collect();
    println!(
        "measured Geyser/Atomique pulse ratio: up to {:.1}x (paper: up to 6.5x)",
        ratios.iter().copied().fold(0.0f64, f64::max)
    );
}

/// Fig. 12: the constant-negative-jerk movement profile.
pub fn fig12() {
    section("Fig. 12: atom movement pattern (15 um in 300 us)");
    let m = MovementProfile::new(15e-6, 300e-6);
    row(
        "t (us)",
        &["jerk", "accel", "velocity", "distance"]
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>(),
    );
    for s in m.sample(13) {
        row(
            &format!("{:.0}", s.t_s * 1e6),
            &[
                format!("{:+.3e}", s.jerk),
                format!("{:+.4}", s.accel),
                format!("{:.4}", s.velocity),
                format!("{:.2}", s.distance * 1e6),
            ],
        );
    }
    println!(
        "peak velocity {:.3} m/s (paper profile peaks at 3D/2T = {:.3})",
        m.peak_velocity(),
        1.5 * 15e-6 / 300e-6
    );
}

/// Fig. 13's measured numbers: depth, two-qubit gates and fidelity of
/// each benchmark on each architecture.
#[derive(Debug, Clone)]
pub struct Fig13 {
    /// The compiled benchmarks, in suite order.
    pub names: Vec<&'static str>,
    /// Two-qubit depth, one row per [`paper::FIG13_ARCHS`] entry, one
    /// value per benchmark in [`Fig13::names`] order.
    pub depth: Vec<Vec<f64>>,
    /// Two-qubit gate counts, laid out like [`Fig13::depth`].
    pub two_q: Vec<Vec<f64>>,
    /// Total fidelities, laid out like [`Fig13::depth`].
    pub fidelity: Vec<Vec<f64>>,
}

impl Fig13 {
    /// The entries of a paper row (e.g. a row of [`paper::FIG13_DEPTH`])
    /// for the measured benchmarks, in [`Fig13::names`] order.
    pub fn paper_values(&self, paper_row: &[f64; 18]) -> Vec<f64> {
        paper::FIG13_LABELS
            .iter()
            .zip(paper_row.iter())
            .filter(|(l, _)| self.names.contains(l))
            .map(|(_, &v)| v)
            .collect()
    }
}

/// Compiles Fig. 13's 17 benchmarks (15 with `quick`, which skips
/// QV-32 and LiH-6) on the five architectures and returns the measured
/// rows.
pub fn fig13_measure(quick: bool) -> Fig13 {
    let cfg = AtomiqueConfig::default();
    let mut fig = Fig13 {
        names: Vec::new(),
        depth: vec![Vec::new(); 5],
        two_q: vec![Vec::new(); 5],
        fidelity: vec![Vec::new(); 5],
    };
    for b in &large_suite() {
        if quick && matches!(b.name, "QV-32" | "LiH-6") {
            continue;
        }
        let out = compare_architectures(b.name, &b.circuit, &cfg);
        fig.names.push(b.name);
        for (i, f) in out.fixed.iter().enumerate() {
            fig.depth[i].push(f.depth as f64);
            fig.two_q[i].push(f.two_qubit_gates as f64);
            fig.fidelity[i].push(f.total_fidelity());
        }
        fig.depth[4].push(out.atomique.stats.depth as f64);
        fig.two_q[4].push(out.atomique.stats.two_qubit_gates as f64);
        fig.fidelity[4].push(out.atomique.total_fidelity());
    }
    fig
}

/// Fig. 13: depth, two-qubit gates and fidelity on 17 benchmarks × 5
/// architectures, measured by [`fig13_measure`] and printed against the
/// paper's values.
pub fn fig13(quick: bool) {
    section("Fig. 13: architecture comparison");
    let fig = fig13_measure(quick);
    for (metric, measured, paper_rows) in [
        ("depth", &fig.depth, &paper::FIG13_DEPTH),
        ("2Q gates", &fig.two_q, &paper::FIG13_TWO_Q),
        ("fidelity", &fig.fidelity, &paper::FIG13_FIDELITY),
    ] {
        println!("--- {metric} ---");
        let mut hdr = vec!["".to_string()];
        hdr.extend(fig.names.iter().map(|s| s.to_string()));
        hdr.push("GMean".into());
        row(&hdr[0], &hdr[1..]);
        for (i, arch) in paper::FIG13_ARCHS.iter().enumerate() {
            let mut cells: Vec<String> = measured[i].iter().map(|&v| fmt(v)).collect();
            cells.push(fmt(gmean(&measured[i])));
            row(&format!("{arch} (meas)"), &cells);
            let paper_vals = fig.paper_values(&paper_rows[i]);
            let mut cells: Vec<String> = paper_vals.iter().map(|&v| fmt(v)).collect();
            cells.push(fmt(gmean(&paper_vals)));
            row(&format!("{arch} (paper)"), &cells);
        }
    }
    // Headline ratios.
    for (i, arch) in paper::FIG13_ARCHS[..4].iter().enumerate() {
        println!(
            "{arch}: measured 2Q x{:.1} / depth x{:.1} vs Atomique (paper: x{:.1} / x{:.1})",
            gmean(&fig.two_q[i]) / gmean(&fig.two_q[4]),
            gmean(&fig.depth[i]) / gmean(&fig.depth[4]),
            paper::FIG13_TWO_Q[i][17] / paper::FIG13_TWO_Q[4][17],
            paper::FIG13_DEPTH[i][17] / paper::FIG13_DEPTH[4][17],
        );
    }
}

/// Fig. 14: Tan-Solver / Tan-IterP / Atomique on the small suite.
///
/// Atomique runs with a single AOD, matching the paper's setting.
pub fn fig14(quick: bool) {
    section("Fig. 14: solver-based compilers (Atomique with 1 AOD)");
    let solver_timeout = Duration::from_secs(if quick { 2 } else { 30 });
    let params = HardwareParams::neutral_atom();
    let hw = RaaConfig::new(ArrayDims::new(10, 10), vec![ArrayDims::new(10, 10)])
        .expect("valid 1-AOD machine");
    let cfg = AtomiqueConfig::for_hardware(hw);

    let mut names = Vec::new();
    let mut fid = vec![Vec::new(); 3];
    let mut twoq = vec![Vec::new(); 3];
    let mut time = vec![Vec::new(); 3];
    for b in small_suite() {
        let solver = tan_solver(&b.circuit, &params, solver_timeout);
        let iterp = tan_iterp(&b.circuit, &params);
        let ours = compile(&b.circuit, &cfg).expect("atomique compiles");
        names.push(b.name);
        fid[0].push(solver.total_fidelity());
        fid[1].push(iterp.total_fidelity());
        fid[2].push(ours.total_fidelity());
        twoq[0].push(solver.two_qubit_gates as f64);
        twoq[1].push(iterp.two_qubit_gates as f64);
        twoq[2].push(ours.stats.two_qubit_gates as f64);
        time[0].push(solver.compile_time_s.max(1e-4));
        time[1].push(iterp.compile_time_s.max(1e-4));
        time[2].push(ours.stats.compile_time_s.max(1e-4));
        if solver.timed_out {
            println!("  note: Tan-Solver timed out on {}", b.name);
        }
    }
    let series = ["Tan-Solver", "Tan-IterP", "Atomique"];
    for (metric, measured, paper_rows) in [
        ("fidelity", &fid, &paper::FIG14_FIDELITY),
        ("2Q gates", &twoq, &paper::FIG14_TWO_Q),
        ("compile time (s)", &time, &paper::FIG14_COMPILE_S),
    ] {
        println!("--- {metric} ---");
        let mut hdr: Vec<String> = names.iter().map(|s| s.to_string()).collect();
        hdr.push("Mean".into());
        row("", &hdr);
        for (i, s) in series.iter().enumerate() {
            let mut cells: Vec<String> = measured[i].iter().map(|&v| fmt(v)).collect();
            cells.push(fmt(gmean(&measured[i])));
            row(&format!("{s} (meas)"), &cells);
            row(
                &format!("{s} (paper)"),
                &paper_rows[i].iter().map(|&v| fmt(v)).collect::<Vec<_>>(),
            );
        }
    }
    println!(
        "compile-time ratio solver/Atomique: measured {:.0}x (paper >1000x; solver timeout capped at {:?})",
        gmean(&time[0]) / gmean(&time[2]),
        solver_timeout
    );
}

/// Fig. 19: Atomique vs Q-Pilot on QAOA/QSim workloads.
pub fn fig19(quick: bool) {
    section("Fig. 19: Atomique vs Q-Pilot");
    let params = HardwareParams::neutral_atom();
    let cfg = AtomiqueConfig::default();
    let seed = 2024;
    let mut workloads = vec![
        ("QAOA-rand-10", qaoa_random(10, 0.5, seed)),
        ("QAOA-rand-20", qaoa_random(20, 0.5, seed)),
        ("QAOA-regu5-40", qaoa_regular(40, 5, seed)),
        ("QAOA-regu6-100", qaoa_regular(100, 6, seed)),
        ("QSim-rand-10", qsim_random(10, 0.5, 10, seed)),
        ("QSim-rand-20", qsim_random(20, 0.5, 10, seed)),
        ("QSim-rand-40", qsim_random(40, 0.5, 10, seed)),
    ];
    if !quick {
        workloads.push(("QSim-rand-100", qsim_random(100, 0.5, 10, seed)));
    }
    let mut names = Vec::new();
    let mut depth = vec![Vec::new(); 2];
    let mut twoq = vec![Vec::new(); 2];
    let mut fid = vec![Vec::new(); 2];
    for (name, c) in &workloads {
        let ours = compile(c, &cfg).expect("atomique compiles");
        let qp = qpilot(c, &params);
        names.push(*name);
        depth[0].push(ours.stats.depth as f64);
        depth[1].push(qp.depth as f64);
        twoq[0].push(ours.stats.two_qubit_gates as f64);
        twoq[1].push(qp.two_qubit_gates as f64);
        fid[0].push(ours.total_fidelity());
        fid[1].push(qp.total_fidelity());
    }
    let series = ["Atomique", "Q-Pilot"];
    for (metric, measured, paper_rows) in [
        ("depth", &depth, &paper::FIG19_DEPTH),
        ("2Q gates", &twoq, &paper::FIG19_TWO_Q),
        ("fidelity", &fid, &paper::FIG19_FIDELITY),
    ] {
        println!("--- {metric} ---");
        let mut hdr: Vec<String> = names.iter().map(|s| s.to_string()).collect();
        hdr.push("GMean".into());
        row("", &hdr);
        for (i, s) in series.iter().enumerate() {
            let mut cells: Vec<String> = measured[i].iter().map(|&v| fmt(v)).collect();
            cells.push(fmt(gmean(&measured[i])));
            row(&format!("{s} (meas)"), &cells);
            row(
                &format!("{s} (paper)"),
                &paper_rows[i].iter().map(|&v| fmt(v)).collect::<Vec<_>>(),
            );
        }
    }
    println!("expected shape: Q-Pilot shallower but ~2-3x more 2Q gates and lower fidelity");
}

/// Fig. 25: additional CNOTs from SWAP insertion across architectures.
pub fn fig25(quick: bool) {
    section("Fig. 25: additional CNOT from SWAP insertion");
    let cfg = AtomiqueConfig::default();
    let suite = large_suite();
    let keep: Vec<&str> = paper::FIG25_LABELS[..13]
        .iter()
        .copied()
        .filter(|l| !quick || !matches!(*l, "QV-32" | "LiH-6"))
        .collect();
    let mut names = Vec::new();
    let mut rows = vec![Vec::new(); 5];
    for label in keep {
        let Some(b) = suite.iter().find(|b| b.name == label) else {
            continue;
        };
        let out = compare_architectures(b.name, &b.circuit, &cfg);
        names.push(label);
        for (i, f) in out.fixed.iter().enumerate() {
            rows[i].push(f.additional_cnots as f64);
        }
        rows[4].push(out.atomique.stats.additional_cnots as f64);
    }
    let mut hdr: Vec<String> = names.iter().map(|s| s.to_string()).collect();
    hdr.push("GMean".into());
    row("", &hdr);
    for (i, arch) in paper::FIG13_ARCHS.iter().enumerate() {
        let mut cells: Vec<String> = rows[i].iter().map(|&v| fmt(v)).collect();
        cells.push(fmt(gmean(&rows[i])));
        row(&format!("{arch} (meas)"), &cells);
        if i < 4 {
            let paper_vals: Vec<f64> = paper::FIG25_LABELS
                .iter()
                .zip(paper::FIG25_ADDITIONAL_CNOT[i].iter())
                .filter(|(l, _)| names.contains(l))
                .map(|(_, &v)| v)
                .collect();
            row(
                &format!("{arch} (paper)"),
                &paper_vals.iter().map(|&v| fmt(v)).collect::<Vec<_>>(),
            );
        }
    }
    println!("expected shape: Atomique adds far fewer CNOTs than every fixed architecture");
}
