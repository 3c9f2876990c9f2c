//! Property-based tests over the whole pipeline: randomized circuits must
//! always compile to conserving, constraint-respecting programs.

use atomique::{compile, AtomiqueConfig, Relaxation, RouterMode};
use proptest::prelude::*;
use raa_circuit::{Circuit, CircuitStats, Gate, NativeGateSet, Qubit};
use raa_sabre::{route, verify_routing, SabreConfig};

/// Strategy: a random circuit over `n ∈ [2, 16]` qubits with up to 60
/// mixed gates.
fn circuits() -> impl Strategy<Value = Circuit> {
    (2usize..=16).prop_flat_map(|n| {
        let gate = (0u8..4, 0..n as u32, 1..n.max(2) as u32, -3.0f64..3.0).prop_map(
            move |(kind, a, off, theta)| {
                let b = (a + off) % n as u32;
                match kind {
                    0 => Gate::h(Qubit(a)),
                    1 => Gate::rz(Qubit(a), theta),
                    2 if b != a => Gate::cz(Qubit(a), Qubit(b)),
                    3 if b != a => Gate::zz(Qubit(a), Qubit(b), theta),
                    _ => Gate::x(Qubit(a)),
                }
            },
        );
        proptest::collection::vec(gate, 1..60)
            .prop_map(move |gates| Circuit::with_gates(n, gates).expect("generated gates valid"))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Gate accounting: compiled 2Q = logical (CZ-native) + 3 per SWAP;
    /// every 1Q gate survives; fidelity is a probability.
    #[test]
    fn compile_conserves_gates(c in circuits()) {
        let out = compile(&c, &AtomiqueConfig::default()).unwrap();
        // The pipeline pre-optimizes, so the reference count comes from
        // the optimized native circuit.
        let native = raa_circuit::optimize(&raa_circuit::optimize(&c).decompose_to(NativeGateSet::Cz));
        prop_assert_eq!(
            out.stats.two_qubit_gates,
            native.two_qubit_count() + 3 * out.stats.swaps_inserted
        );
        let f = out.total_fidelity();
        prop_assert!(f > 0.0 && f <= 1.0);
    }

    /// Every compiled stream passes the ISA legality + replay oracle
    /// (`verify_isa` fails the compile otherwise).
    #[test]
    fn compiled_programs_validate(c in circuits()) {
        let cfg = AtomiqueConfig { verify_isa: true, ..AtomiqueConfig::default() };
        compile(&c, &cfg).map_err(|e| TestCaseError::fail(e.to_string()))?;
    }

    /// Depth is bounded below by the dependency structure and above by
    /// full serialization.
    #[test]
    fn depth_bounds(c in circuits()) {
        let out = compile(&c, &AtomiqueConfig::default()).unwrap();
        let native = c.decompose_to(NativeGateSet::Cz);
        let stats = CircuitStats::of(&native);
        if stats.two_qubit_gates > 0 {
            prop_assert!(out.stats.depth >= 1);
            prop_assert!(out.stats.depth <= out.stats.two_qubit_gates);
        }
    }

    /// The serial router is never shallower than the parallel router.
    #[test]
    fn serial_vs_parallel(c in circuits()) {
        let par = compile(&c, &AtomiqueConfig::default()).unwrap();
        let ser = compile(
            &c,
            &AtomiqueConfig { router_mode: RouterMode::Serial, ..AtomiqueConfig::default() },
        )
        .unwrap();
        prop_assert!(par.stats.depth <= ser.stats.depth);
        prop_assert_eq!(par.stats.two_qubit_gates, ser.stats.two_qubit_gates);
    }

    /// Fully relaxed constraints never increase depth.
    #[test]
    fn relaxation_monotone(c in circuits()) {
        let strict = compile(&c, &AtomiqueConfig::default()).unwrap();
        let relaxed = compile(
            &c,
            &AtomiqueConfig {
                relaxation: Relaxation {
                    individual_addressing: true,
                    allow_order_violation: true,
                    allow_overlap: true,
                },
                ..AtomiqueConfig::default()
            },
        )
        .unwrap();
        prop_assert!(relaxed.stats.depth <= strict.stats.depth);
    }

    /// SABRE routing over a grid is always a faithful rewrite of the
    /// original circuit (checked by the independent verifier).
    #[test]
    fn sabre_routing_is_faithful(c in circuits()) {
        let side = (c.num_qubits() as f64).sqrt().ceil() as usize;
        let g = raa_arch::CouplingGraph::grid(side.max(2), side.max(2));
        let layout: Vec<u32> = (0..c.num_qubits() as u32).collect();
        let routed = route(&c, &g, &layout, &SabreConfig::default()).unwrap();
        let verified = verify_routing(&c, &routed, &g).unwrap();
        prop_assert_eq!(verified, c.len());
    }

    /// Movement accounting: distance and stages are zero iff no 2Q gates.
    #[test]
    fn movement_iff_two_qubit_gates(c in circuits()) {
        let out = compile(&c, &AtomiqueConfig::default()).unwrap();
        if out.stats.two_qubit_gates == 0 {
            prop_assert_eq!(out.stats.num_move_stages, 0);
            prop_assert!(out.stats.total_move_distance_mm < 1e-12);
        } else {
            prop_assert!(out.stats.num_move_stages >= 1);
            prop_assert!(out.stats.total_move_distance_mm > 0.0);
        }
    }

    /// Every compiled program lowers to an instruction stream that the
    /// independent oracle accepts (C1/C2/C3 legality + exactly-once
    /// DAG-consistent replay), and the binary codec round-trips the
    /// stream bit-identically.
    #[test]
    fn isa_oracle_and_codecs(c in circuits()) {
        let cfg = AtomiqueConfig {
            emit_isa: true,
            verify_isa: true,
            ..AtomiqueConfig::default()
        };
        // verify_isa makes compile itself fail on an illegal/unfaithful
        // stream.
        let out = compile(&c, &cfg).unwrap();
        let isa = out.isa.as_ref().expect("emit_isa attaches the stream");
        let report = raa_isa::replay_verify(isa)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(report.two_qubit_gates, out.stats.two_qubit_gates);
        prop_assert_eq!(report.one_qubit_gates, out.stats.one_qubit_gates);

        let bytes = raa_isa::codec::to_bytes(isa);
        let from_bytes = raa_isa::codec::from_bytes(&bytes).unwrap();
        prop_assert_eq!(&from_bytes, isa);
        prop_assert_eq!(raa_isa::codec::to_bytes(&from_bytes), bytes);
    }

    /// Baseline schedules lower through the same ISA and pass the same
    /// oracle as the Atomique pipeline.
    #[test]
    fn baseline_lowerings_pass_the_oracle(c in circuits()) {
        let tan = raa_baselines::tan_iterp(&c, &raa_physics::HardwareParams::neutral_atom());
        let isa = raa_baselines::lower_tan(&c, &tan, "tan-iterp", "prop")
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        raa_isa::check_legality(&isa).map_err(|e| TestCaseError::fail(e.to_string()))?;
        let report = raa_isa::replay_verify(&isa)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(report.two_qubit_gates, tan.two_qubit_gates);

        let native = c.decompose_to(NativeGateSet::Cz);
        let geyser = raa_baselines::geyser_pulses(&native);
        let isa = raa_baselines::lower_geyser(&native, &geyser, "prop")
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        raa_isa::check_legality(&isa).map_err(|e| TestCaseError::fail(e.to_string()))?;
        let report = raa_isa::replay_verify(&isa)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(report.two_qubit_gates, native.two_qubit_count());
    }
}
