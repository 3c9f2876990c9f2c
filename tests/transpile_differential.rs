//! Transpile-index differential harness: a compile running with
//! `TranspileIndex::Indexed` (analytic multipartite graph construction,
//! O(Δ) MAX k-Cut degree maintenance) must be *observably identical* to
//! the naive path it accelerates — same schedule down to every line
//! move, byte-identical lowered ISA, the same stage-span set, and every
//! counter matching to the last increment (both modes route through the
//! same SABRE router, so its `transpile.*` counters included). The index
//! only changes *how* each distance or degree is obtained, never the
//! values or the visit order, so any divergence here is a correctness
//! bug.
//!
//! Coverage: the full small suite at Naive vs Indexed × `threads` ∈
//! {1, 4}, plus release-only 1024-atom full-pipeline identity on both
//! scaling families and the QSim-4096 transpile-stage speedup gate from
//! the roadmap (indexed ≥ 3× faster, outputs identical).

use atomique::{
    compile, map_to_arrays_with, transpile_with, AtomiqueConfig, CompiledProgram, LineMove,
    OptLevel, TranspileIndex,
};
use raa_benchmarks::{scaling_pair, small_suite};
use raa_isa::codec;
use raa_par::WorkPool;
use raa_sabre::SabreConfig;

/// Bit-level line-move equality (unpark markers carry NaN coordinates,
/// so `==` on the floats would never match them).
fn moves_eq(a: &[LineMove], b: &[LineMove]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.aod == y.aod
                && x.axis_row == y.axis_row
                && x.line == y.line
                && x.from_track.to_bits() == y.from_track.to_bits()
                && x.to_track.to_bits() == y.to_track.to_bits()
        })
}

/// The names of the compile root's direct children — the stage-span set.
fn stage_span_names(out: &CompiledProgram) -> Vec<String> {
    out.report
        .root()
        .map(|root| root.children.iter().map(|s| s.name.clone()).collect())
        .unwrap_or_default()
}

/// Everything observable must match: schedules, mappings, statistics,
/// ISA bytes, stage spans and every counter.
fn assert_observably_identical(ctx: &str, seq: &CompiledProgram, par: &CompiledProgram) {
    assert_eq!(
        seq.stages.len(),
        par.stages.len(),
        "{ctx}: stage counts differ"
    );
    for (i, (s, p)) in seq.stages.iter().zip(par.stages.iter()).enumerate() {
        assert_eq!(s.kind, p.kind, "{ctx}: stage {i} kind");
        assert_eq!(s.gate_pairs, p.gate_pairs, "{ctx}: stage {i} gate pairs");
        assert_eq!(
            s.one_qubit_gates, p.one_qubit_gates,
            "{ctx}: stage {i} 1Q gates"
        );
        assert!(moves_eq(&s.moves, &p.moves), "{ctx}: stage {i} moves");
        assert!(
            moves_eq(&s.retract_moves, &p.retract_moves),
            "{ctx}: stage {i} retraction moves"
        );
    }
    assert_eq!(seq.mapping, par.mapping, "{ctx}: atom mappings differ");
    assert_eq!(
        seq.stats.two_qubit_gates, par.stats.two_qubit_gates,
        "{ctx}: gate counts differ"
    );
    assert_eq!(seq.stats.depth, par.stats.depth, "{ctx}: depths differ");
    let sb = codec::to_bytes(seq.isa.as_ref().expect("emit_isa set"));
    let pb = codec::to_bytes(par.isa.as_ref().expect("emit_isa set"));
    assert_eq!(sb, pb, "{ctx}: ISA streams differ");
    assert_eq!(
        stage_span_names(seq),
        stage_span_names(par),
        "{ctx}: stage-span sets differ"
    );
    assert_eq!(
        seq.report.counters(),
        par.report.counters(),
        "{ctx}: counters differ"
    );
}

fn traced(index: TranspileIndex, threads: usize) -> AtomiqueConfig {
    AtomiqueConfig {
        emit_isa: true,
        verify_isa: true,
        opt_level: OptLevel::Aggressive,
        trace: true,
        threads,
        transpile_index: index,
        ..AtomiqueConfig::default()
    }
}

/// The core differential: Naive vs Indexed on every small-suite
/// benchmark, and the indexed path against itself at 4 threads.
#[test]
fn indexed_compiles_are_bit_identical_to_naive_on_the_small_suite() {
    let mut swapped = 0usize;
    for b in small_suite() {
        let naive = compile(&b.circuit, &traced(TranspileIndex::Naive, 1))
            .unwrap_or_else(|e| panic!("{}/naive: {e}", b.name));
        let indexed = compile(&b.circuit, &traced(TranspileIndex::Indexed, 1))
            .unwrap_or_else(|e| panic!("{}/indexed: {e}", b.name));
        assert_observably_identical(&format!("{}/naive-vs-indexed", b.name), &naive, &indexed);
        let indexed_par = compile(&b.circuit, &traced(TranspileIndex::Indexed, 4))
            .unwrap_or_else(|e| panic!("{}/indexed/threads=4: {e}", b.name));
        assert_observably_identical(
            &format!("{}/indexed-threads-1-vs-4", b.name),
            &indexed,
            &indexed_par,
        );
        if naive.stats.swaps_inserted > 0 && indexed.stats.swaps_inserted > 0 {
            swapped += 1;
        }
    }
    // The differential is vacuous if SABRE never inserted a swap: part
    // of the suite must need intra-array SWAPs in both modes.
    assert!(
        swapped > 0,
        "no small-suite benchmark inserted a swap in both modes"
    );
}

/// Full-pipeline identity at 1024 atoms on both scaling families —
/// the indexed analytic graph constructor and k-Cut degrees at the scale
/// where the naive path's all-pairs BFS starts to dominate. Release
/// builds only.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow in debug; CI runs it via cargo test --release"
)]
fn indexed_1024_atom_compiles_match_naive_byte_for_byte() {
    for b in scaling_pair("QSim-1024", "QAOA-regu3-1024", 1024) {
        let base = AtomiqueConfig {
            emit_isa: true,
            verify_isa: true,
            trace: true,
            threads: 1,
            ..AtomiqueConfig::scaled_to(1024)
        };
        let naive = compile(
            &b.circuit,
            &AtomiqueConfig {
                transpile_index: TranspileIndex::Naive,
                ..base.clone()
            },
        )
        .unwrap_or_else(|e| panic!("{}/naive: {e}", b.name));
        for threads in [1usize, 4] {
            let indexed = compile(
                &b.circuit,
                &AtomiqueConfig {
                    transpile_index: TranspileIndex::Indexed,
                    threads,
                    ..base.clone()
                },
            )
            .unwrap_or_else(|e| panic!("{}/indexed/threads={threads}: {e}", b.name));
            assert_observably_identical(
                &format!("{}/1024/threads={threads}", b.name),
                &naive,
                &indexed,
            );
        }
    }
}

/// The roadmap acceptance gate: QSim-4096's transpile stage (array
/// mapping + multipartite SWAP insertion, the naive path's dominant
/// cost at this scale) must run ≥ 3× faster indexed, with gate-level
/// identical output. The naive all-pairs BFS alone is ~45 s here, so
/// the wall-clock guard on the indexed leg is the real scalability
/// assertion. Release builds only.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow in debug; CI runs it via cargo test --release"
)]
fn qsim_4096_transpile_is_3x_faster_indexed_and_identical() {
    const INDEXED_GUARD_S: f64 = 60.0;
    let [qsim, _] = scaling_pair("QSim-4096", "QAOA-regu3-4096", 4096);
    let cfg = AtomiqueConfig::scaled_to(4096);
    let pool = WorkPool::sequential();
    let sabre = SabreConfig::default();

    let mut outputs = Vec::new();
    let mut times = Vec::new();
    for index in [TranspileIndex::Naive, TranspileIndex::Indexed] {
        let t0 = std::time::Instant::now();
        let mapping = map_to_arrays_with(
            &qsim.circuit,
            &cfg.hardware,
            cfg.array_mapper,
            cfg.gamma,
            index,
            &pool,
        )
        .unwrap_or_else(|e| panic!("QSim-4096/{index:?}: mapper: {e}"));
        let transpiled = transpile_with(&qsim.circuit, &mapping, &sabre, index, &pool)
            .unwrap_or_else(|e| panic!("QSim-4096/{index:?}: transpile: {e}"));
        times.push(t0.elapsed().as_secs_f64());
        outputs.push((mapping, transpiled));
    }

    let (naive_map, naive_t) = &outputs[0];
    let (idx_map, idx_t) = &outputs[1];
    assert_eq!(naive_map, idx_map, "QSim-4096: array mappings differ");
    assert_eq!(
        naive_t.circuit.gates(),
        idx_t.circuit.gates(),
        "QSim-4096: transpiled gate streams differ"
    );
    assert_eq!(
        naive_t.slot_of_qubit, idx_t.slot_of_qubit,
        "QSim-4096: slot assignments differ"
    );
    assert_eq!(
        naive_t.slot_array, idx_t.slot_array,
        "QSim-4096: slot arrays differ"
    );
    assert_eq!(
        naive_t.swaps_inserted, idx_t.swaps_inserted,
        "QSim-4096: swap counts differ"
    );

    let (naive_s, indexed_s) = (times[0], times[1]);
    assert!(
        indexed_s < INDEXED_GUARD_S,
        "QSim-4096: indexed transpile took {indexed_s:.1}s (guard {INDEXED_GUARD_S}s)"
    );
    assert!(
        indexed_s * 3.0 <= naive_s,
        "QSim-4096: indexed transpile {indexed_s:.1}s is not 3x faster than naive {naive_s:.1}s"
    );
}
