//! Reference differential: the SABRE router must route exactly like the
//! naive reference loop (`tests/reference/mod.rs`), which rescores every
//! enumerated candidate from scratch with
//! [`raa_sabre::reference_swap_score`] — same gate stream, same final
//! layout, same swap count — on every coupling-graph family the
//! workspace routes on.
//!
//! Every routed case also runs through the probe hook
//! ([`raa_sabre::route_probed`]), which exposes each round's front
//! layer, extended set, layout, decay vector and candidate evaluations
//! *before* the chosen swap is applied: every compared score must be
//! bit-identical to the reference recomputation on the same inputs,
//! including across decay-reset epochs.

mod reference;

use std::collections::HashSet;

use proptest::prelude::*;
use raa_arch::CouplingGraph;
use raa_circuit::{Circuit, Gate, Qubit};
use raa_sabre::{
    layout_and_route, reference_swap_score, route_probed, LayoutConfig, RoutedCircuit, SabreConfig,
    SabreError,
};
use raa_trace::Level;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

/// A random two-qubit circuit over `n` qubits.
fn random_circuit(n: usize, gates: usize, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(n);
    for _ in 0..gates {
        let a = rng.random_range(0..n as u32);
        let mut b = rng.random_range(0..n as u32);
        while b == a {
            b = rng.random_range(0..n as u32);
        }
        c.push(Gate::cz(Qubit(a), Qubit(b)));
    }
    c
}

/// A seeded injective layout of `n_log` logical qubits onto `n_phys`
/// physical ones.
fn random_layout(n_log: usize, n_phys: usize, seed: u64) -> Vec<u32> {
    let mut layout: Vec<u32> = (0..n_phys as u32).collect();
    layout.shuffle(&mut StdRng::seed_from_u64(seed));
    layout.truncate(n_log);
    layout
}

/// Routes through the probed router and asserts, for every round, that each candidate is evaluated once, that the
/// score the selection compared is bit-identical to the reference
/// recomputation, and that the chosen swap was evaluated. Returns the
/// number of audited evaluations and the routed output.
fn audit_route(
    circuit: &Circuit,
    graph: &CouplingGraph,
    layout: &[u32],
    config: &SabreConfig,
) -> (usize, RoutedCircuit) {
    let mut audited = 0usize;
    let routed = route_probed(circuit, graph, layout, config, &mut |probe| {
        let distinct: HashSet<(u32, u32)> = probe.evals.iter().map(|e| e.cand).collect();
        assert_eq!(
            distinct.len(),
            probe.evals.len(),
            "a candidate was scored twice"
        );
        for eval in probe.evals {
            let fresh = reference_swap_score(
                eval.cand,
                graph,
                probe.front_pairs,
                probe.ext_pairs,
                probe.log_to_phys,
                probe.decay,
                config,
            );
            assert_eq!(
                eval.score.to_bits(),
                fresh.to_bits(),
                "candidate {:?} scored {} but recomputes to {}",
                eval.cand,
                eval.score,
                fresh,
            );
            audited += 1;
        }
        assert!(
            distinct.contains(&probe.chosen),
            "chosen swap {:?} was never evaluated",
            probe.chosen
        );
    })
    .expect("routes");
    (audited, routed)
}

fn assert_same_routing(ctx: &str, got: &RoutedCircuit, want: &RoutedCircuit) {
    assert_eq!(got.circuit.gates(), want.circuit.gates(), "{ctx}: gates");
    assert_eq!(
        got.initial_layout, want.initial_layout,
        "{ctx}: initial layout"
    );
    assert_eq!(got.final_layout, want.final_layout, "{ctx}: final layout");
    assert_eq!(got.swaps_inserted, want.swaps_inserted, "{ctx}: swaps");
}

/// Routes a random circuit from a random layout through the reference
/// and through the audited router; both must agree.
fn check_against_reference(graph: &CouplingGraph, n_log: usize, gates: usize, seed: u64) {
    let c = random_circuit(n_log, gates, seed);
    let layout = random_layout(n_log, graph.num_qubits(), seed.wrapping_mul(0x9e37));
    let config = SabreConfig::default();
    let want = reference::route(&c, graph, &layout, &config).expect("reference routes");
    let (audited, got) = audit_route(&c, graph, &layout, &config);
    assert_same_routing(&format!("seed {seed}"), &got, &want);
    assert_eq!(audited > 0, got.swaps_inserted > 0);
}

/// The layout search of `layout_and_route`, step for step, over the
/// reference router.
fn reference_layout_and_route(
    circuit: &Circuit,
    graph: &CouplingGraph,
    config: &LayoutConfig,
) -> RoutedCircuit {
    let n_log = circuit.num_qubits();
    let mut rev = Circuit::new(n_log);
    for g in circuit.gates().iter().rev() {
        rev.push(*g);
    }
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut best: Option<RoutedCircuit> = None;
    for trial in 0..config.trials.max(1) {
        let mut layout: Vec<u32> = (0..graph.num_qubits() as u32).collect();
        if trial > 0 {
            layout.shuffle(&mut rng);
        }
        layout.truncate(n_log);
        for _ in 0..config.passes {
            let fwd = reference::route(circuit, graph, &layout, &config.routing).unwrap();
            layout = reference::route(&rev, graph, &fwd.final_layout, &config.routing)
                .unwrap()
                .final_layout;
        }
        let routed = reference::route(circuit, graph, &layout, &config.routing).unwrap();
        if best
            .as_ref()
            .is_none_or(|b| routed.swaps_inserted < b.swaps_inserted)
        {
            best = Some(routed);
        }
    }
    best.expect("at least one trial ran")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The family Atomique routes on.
    #[test]
    fn router_matches_reference_on_multipartite(seed in 0u64..1_000, gates in 20usize..60) {
        check_against_reference(&CouplingGraph::complete_multipartite(&[8, 8, 8]), 24, gates, seed);
    }

    /// Lines stall for many consecutive rounds (every swap shortens a
    /// distance-k front pair by one), through several decay epochs.
    #[test]
    fn router_matches_reference_on_line(seed in 0u64..1_000, gates in 3usize..12) {
        check_against_reference(&CouplingGraph::line(10), 10, gates, seed);
    }

    /// Grids with padding slots (12 logical qubits on 16 slots).
    #[test]
    fn router_matches_reference_on_grid(seed in 0u64..1_000, gates in 5usize..40) {
        check_against_reference(&CouplingGraph::grid(4, 4), 12, gates, seed);
    }

    #[test]
    fn router_matches_reference_on_heavy_hex(seed in 0u64..1_000, gates in 5usize..40) {
        check_against_reference(&CouplingGraph::heavy_hex(3, 7), 16, gates, seed);
    }

    #[test]
    fn router_matches_reference_on_long_range_grid(seed in 0u64..1_000, gates in 5usize..40) {
        check_against_reference(&CouplingGraph::long_range_grid(4, 4, 1.6), 16, gates, seed);
    }

    /// The baselines' entry point: the whole layout search must pick and
    /// route exactly what the search over the reference router does.
    #[test]
    fn layout_and_route_matches_reference(seed in 0u64..1_000, gates in 5usize..40) {
        let c = random_circuit(10, gates, seed);
        let config = LayoutConfig { seed, ..LayoutConfig::default() };
        for graph in [CouplingGraph::grid(3, 4), CouplingGraph::heavy_hex(2, 7)] {
            let got = layout_and_route(&c, &graph, &config).expect("routes");
            let want = reference_layout_and_route(&c, &graph, &config);
            assert_same_routing(&format!("seed {seed}"), &got, &want);
        }
    }

    /// The invariant the router's design rests on: on a complete
    /// multipartite graph every chosen swap couples at least one front
    /// pair, so every round retires a gate.
    #[test]
    fn multipartite_swaps_always_couple_a_front_pair(seed in 0u64..1_000, gates in 10usize..60) {
        for parts in [&[8usize, 8, 8][..], &[5, 4, 3], &[2, 2]] {
            let graph = CouplingGraph::complete_multipartite(parts);
            let n = graph.num_qubits();
            let c = random_circuit(n, gates, seed);
            let layout = random_layout(n, n, seed);
            route_probed(&c, &graph, &layout, &SabreConfig::default(), &mut |probe| {
                let (a, b) = probe.chosen;
                let remap = |p: u32| if p == a { b } else if p == b { a } else { p };
                assert!(
                    probe.front_pairs.iter().any(|&(x, y)| graph.are_coupled(remap(x), remap(y))),
                    "swap {:?} coupled no front pair of {:?}",
                    probe.chosen,
                    probe.front_pairs
                );
            })
            .expect("routes");
        }
    }
}

/// Decay-reset boundary, deterministically: routing CZ(0, 9) on a
/// 10-line inserts 8 swaps — past the default reset interval of 5 —
/// and every round's scores (audited inside `audit_route`) must stay
/// reference-identical through the epoch where all decay factors snap
/// back to 1.0.
#[test]
fn scores_stay_exact_across_decay_reset_epochs() {
    let graph = CouplingGraph::line(10);
    let mut c = Circuit::new(10);
    c.push(Gate::cz(Qubit(0), Qubit(9)));
    let layout: Vec<u32> = (0..10).collect();
    let config = SabreConfig::default();
    let want = reference::route(&c, &graph, &layout, &config).expect("routes");
    assert!(
        want.swaps_inserted > config.decay_reset_interval,
        "workload too small to cross a reset epoch"
    );
    let (audited, got) = audit_route(&c, &graph, &layout, &config);
    assert!(audited > 0);
    assert_same_routing("CZ(0, 9) on a 10-line", &got, &want);
}

/// On multipartite graphs, a candidate swapping two front-gate
/// endpoints in different parts is enumerated from both endpoints'
/// neighbor lists. Skipping the repeat must leave every pick identical
/// to the reference (which scores both) while scoring strictly fewer
/// candidates than the raw enumeration: `transpile.score_recompute`
/// counts the scored candidates, `transpile.score_dedup` the skips.
#[test]
fn dedup_preserves_picks_and_strictly_lowers_recomputes() {
    let graph = CouplingGraph::complete_multipartite(&[4, 4, 4]);
    // Two same-part gates so the front layer holds ≥ 2 stalled pairs.
    let mut c = Circuit::new(12);
    c.push(Gate::cz(Qubit(0), Qubit(1)));
    c.push(Gate::cz(Qubit(4), Qubit(5)));
    let layout: Vec<u32> = (0..12).collect();
    let config = SabreConfig::default();
    let want = reference::route(&c, &graph, &layout, &config).expect("routes");

    raa_trace::begin(Level::Detail);
    let (audited, got) = audit_route(&c, &graph, &layout, &config);
    let report = raa_trace::end();
    assert_same_routing("dedup", &got, &want);

    let scored = report.counter("transpile.score_recompute");
    let dupes = report.counter("transpile.score_dedup");
    assert_eq!(scored, audited as u64, "counter disagrees with the probe");
    assert!(scored > 0, "no round ever scored a candidate");
    assert!(dupes > 0, "workload enumerated no duplicate candidates");
}

/// Baseline scale, release builds only: QAOA-100 through the
/// superconducting baseline's full layout search on the 129-qubit
/// heavy-hex device, and a 1024-slot multipartite QAOA — the regime
/// Atomique's large-register transpiles run in.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow in debug; CI runs it via cargo test --release"
)]
fn baseline_scale_routes_match_reference() {
    let qaoa = raa_benchmarks::qaoa_regular(100, 3, 7);
    let heavy_hex = CouplingGraph::heavy_hex(7, 15);
    let config = LayoutConfig::default();
    let got = layout_and_route(&qaoa, &heavy_hex, &config).expect("routes");
    let want = reference_layout_and_route(&qaoa, &heavy_hex, &config);
    assert_same_routing("QAOA-100 on heavy-hex", &got, &want);

    let qaoa = raa_benchmarks::qaoa_regular(1024, 3, 7);
    let graph = CouplingGraph::complete_multipartite_indexed(&[342, 341, 341]);
    let layout = random_layout(1024, 1024, 7);
    let config = SabreConfig::default();
    let want = reference::route(&qaoa, &graph, &layout, &config).expect("routes");
    assert!(want.swaps_inserted > 0);
    let got = raa_sabre::route(&qaoa, &graph, &layout, &config).expect("routes");
    assert_same_routing("QAOA-1024", &got, &want);
}
