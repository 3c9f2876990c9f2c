//! Stress and configuration-matrix tests for the Atomique compiler:
//! multi-AOD machines, varied array sizes, relaxation combinations, and
//! algorithmic workloads, each compiled with `verify_isa` so the ISA
//! legality + replay oracle checks every stream.

use atomique::{compile, AtomiqueConfig, OptLevel, Relaxation};
use raa_arch::{ArrayDims, RaaConfig};
use raa_circuit::{Circuit, Gate, Qubit};
use raa_isa::{disassemble, Instr};
use rand::{rngs::StdRng, RngExt, SeedableRng};

fn random_circuit(n: usize, gates: usize, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(n);
    for _ in 0..gates {
        let a = rng.random_range(0..n as u32);
        let mut b = rng.random_range(0..n as u32);
        while b == a {
            b = rng.random_range(0..n as u32);
        }
        if rng.random::<f64>() < 0.25 {
            c.push(Gate::ry(Qubit(a), 0.7));
        } else {
            c.push(Gate::cz(Qubit(a), Qubit(b)));
        }
    }
    c
}

/// `cfg` with the ISA oracle on: the compile fails unless its stream
/// passes `check_legality` and `replay_verify`.
fn verified(cfg: AtomiqueConfig) -> AtomiqueConfig {
    AtomiqueConfig {
        verify_isa: true,
        ..cfg
    }
}

/// Every AOD count the paper sweeps (Fig. 20c) compiles and validates.
#[test]
fn one_through_seven_aods() {
    let c = random_circuit(24, 80, 1);
    let mut prev_swaps = usize::MAX;
    for aods in 1..=7 {
        let hw = RaaConfig::square(8, aods).expect("valid machine");
        let cfg = verified(AtomiqueConfig::for_hardware(hw));
        let out = compile(&c, &cfg).unwrap_or_else(|e| panic!("{aods} AODs: {e}"));
        // More partitions can only help the cut (weak monotonicity check
        // against the 1-AOD case).
        if aods >= 2 {
            assert!(
                out.stats.swaps_inserted <= prev_swaps.max(1) * 2,
                "{aods} AODs regressed badly on swaps"
            );
        }
        prev_swaps = prev_swaps.min(out.stats.swaps_inserted);
    }
}

/// Varied AOD dimensions (Fig. 23's configuration) compile and validate.
#[test]
fn varied_aod_dimensions() {
    let hw = RaaConfig::new(
        ArrayDims::new(10, 10),
        vec![ArrayDims::new(8, 8), ArrayDims::new(6, 6)],
    )
    .unwrap();
    let cfg = verified(AtomiqueConfig::for_hardware(hw));
    let c = random_circuit(40, 150, 2);
    let out = compile(&c, &cfg).unwrap();
    assert!(out.total_fidelity() > 0.0);
}

/// Rectangular (non-square) arrays work (Fig. 20a's shapes).
#[test]
fn extreme_aspect_ratios() {
    for (r, cdim) in [(16, 3), (3, 16), (24, 2)] {
        let hw = RaaConfig::new(ArrayDims::new(r, cdim), vec![ArrayDims::new(r, cdim); 2]).unwrap();
        let cfg = verified(AtomiqueConfig::for_hardware(hw));
        let c = random_circuit(30, 60, 3);
        compile(&c, &cfg).unwrap_or_else(|e| panic!("{r}x{cdim}: {e}"));
    }
}

/// Every single-constraint relaxation compiles; gate counts never change.
#[test]
fn relaxation_matrix() {
    let c = random_circuit(20, 70, 4);
    let base = compile(&c, &AtomiqueConfig::default()).unwrap();
    let settings = [
        Relaxation {
            individual_addressing: true,
            ..Relaxation::NONE
        },
        Relaxation {
            allow_order_violation: true,
            ..Relaxation::NONE
        },
        Relaxation {
            allow_overlap: true,
            ..Relaxation::NONE
        },
        Relaxation {
            individual_addressing: true,
            allow_order_violation: true,
            allow_overlap: false,
        },
    ];
    for relax in settings {
        let out = compile(
            &c,
            &AtomiqueConfig {
                relaxation: relax,
                ..AtomiqueConfig::default()
            },
        )
        .unwrap();
        assert_eq!(
            out.stats.two_qubit_gates, base.stats.two_qubit_gates,
            "{relax:?}"
        );
        assert!(out.stats.depth <= base.stats.depth + 5, "{relax:?}");
    }
}

/// Algorithmic workloads (QFT, Grover, W-state) compile and validate —
/// these exercise all-to-all, ladder, and chain interaction patterns.
#[test]
fn algorithmic_workloads_validate() {
    let cfg = verified(AtomiqueConfig::default());
    for (name, c) in [
        ("qft-12", raa_benchmarks::qft(12)),
        ("grover-8", raa_benchmarks::grover(8, 2)),
        ("wstate-16", raa_benchmarks::w_state(16)),
    ] {
        let out = compile(&c, &cfg).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(out.total_fidelity() > 0.0, "{name}");
    }
}

/// Near-capacity occupancy (Fig. 24's regime): 100 qubits on 172 traps.
#[test]
fn near_capacity_compiles() {
    let hw = RaaConfig::new(
        ArrayDims::new(10, 10),
        vec![ArrayDims::new(6, 6), ArrayDims::new(6, 6)],
    )
    .unwrap();
    let cfg = verified(AtomiqueConfig::for_hardware(hw));
    let c = random_circuit(100, 200, 5);
    let out = compile(&c, &cfg).unwrap();
    assert_eq!(
        out.stats.two_qubit_gates,
        raa_circuit::optimize(&c).two_qubit_count() + 3 * out.stats.swaps_inserted
    );
}

/// The `-O0` stream accounts for every stage of the schedule: one pulse
/// or transfer per two-qubit stage and one `cool` per cooling event, in
/// the stream and in its `disassemble` listing, which lists every
/// instruction once, in pc order. The pc field widens past 9999, so the
/// verb is read after it, not at a fixed column.
#[test]
fn stream_listing_covers_every_stage() {
    let cfg = verified(AtomiqueConfig {
        emit_isa: true,
        opt_level: OptLevel::None,
        ..AtomiqueConfig::default()
    });
    let circuits = raa_benchmarks::small_suite()
        .into_iter()
        .map(|b| (b.name, b.circuit))
        .chain([("random-30", random_circuit(30, 120, 6))]);
    for (name, c) in circuits {
        let out = compile(&c, &cfg).unwrap_or_else(|e| panic!("{name}: {e}"));
        let isa = out.isa.as_ref().expect("emit_isa attaches the stream");
        let listing = disassemble(isa);
        let listed: Vec<(usize, &str)> = listing
            .lines()
            .filter_map(|line| {
                let (pc, rest) = line.split_once("  ")?;
                Some((pc.parse().ok()?, rest.split_whitespace().next()?))
            })
            .collect();
        assert!(listed.iter().map(|l| l.0).eq(0..isa.instrs.len()), "{name}");
        let listed_as = |verbs: &[&str]| listed.iter().filter(|l| verbs.contains(&l.1)).count();
        let streamed = |f: fn(&Instr) -> bool| isa.instrs.iter().filter(|i| f(i)).count();
        let s = &out.stats;
        let pulses = streamed(|i| matches!(i, Instr::RydbergPulse { .. } | Instr::Transfer { .. }));
        assert_eq!(pulses, s.depth, "{name}");
        assert_eq!(listed_as(&["pulse", "xfer"]), s.depth, "{name}");
        assert_eq!(
            streamed(|i| matches!(i, Instr::Cool { .. })),
            s.cooling_events,
            "{name}"
        );
        assert_eq!(listed_as(&["cool"]), s.cooling_events, "{name}");
    }
}
