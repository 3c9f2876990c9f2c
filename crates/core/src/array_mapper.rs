//! Qubit-array mapper: greedy MAX k-Cut over the gate-frequency graph
//! (paper Alg. 1 and Fig. 4).
//!
//! Two-qubit gates are only executable *between* arrays (intra-SLM pairs
//! are never within Rydberg range; intra-AOD pairs are avoided because of
//! atom-loss risk), so a mapping that maximizes the total weight of
//! inter-array edges minimizes SWAP overhead. This is MAX k-Cut with
//! `k = 1 + #AODs`; the greedy vertex-by-vertex algorithm achieves the
//! `1 − 1/k` approximation bound.

use raa_arch::RaaConfig;
use raa_circuit::{Circuit, InteractionGraph, Qubit};
use raa_par::WorkPool;

use crate::config::{ArrayMapperKind, TranspileIndex};
use crate::error::CompileError;

/// Minimum register size before the pooled mapper fans the per-vertex
/// degree refinement out over the pool's workers; smaller graphs cost
/// less to score than a wave costs to spawn.
const PAR_MIN_VERTICES: usize = 256;

/// The result of the array-mapping pass: `array_of[q]` is the array index
/// (0 = SLM, `1..` = AODs) hosting logical qubit `q`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayMapping {
    /// Per-qubit array assignment.
    pub array_of: Vec<u8>,
    /// Number of arrays (SLM + AODs).
    pub num_arrays: usize,
}

impl ArrayMapping {
    /// Qubits assigned to `array`, ascending.
    pub fn qubits_in(&self, array: u8) -> Vec<Qubit> {
        self.array_of
            .iter()
            .enumerate()
            .filter(|&(_, &a)| a == array)
            .map(|(q, _)| Qubit(q as u32))
            .collect()
    }

    /// The weight of the cut: total interaction weight between qubits in
    /// *different* arrays.
    pub fn cut_weight(&self, graph: &InteractionGraph) -> f64 {
        graph
            .edges()
            .filter(|((u, v), _)| self.array_of[u.index()] != self.array_of[v.index()])
            .map(|(_, w)| w)
            .sum()
    }

    /// Number of two-qubit gates in `circuit` whose endpoints share an
    /// array (each needs SWAP help).
    pub fn intra_array_gates(&self, circuit: &Circuit) -> usize {
        circuit
            .two_qubit_pairs()
            .filter(|(a, b)| self.array_of[a.index()] == self.array_of[b.index()])
            .count()
    }
}

/// Runs the configured array mapper.
///
/// # Errors
///
/// [`CompileError::Capacity`] if the circuit has more qubits than the
/// machine holds.
pub fn map_to_arrays(
    circuit: &Circuit,
    hardware: &RaaConfig,
    kind: ArrayMapperKind,
    gamma: f64,
) -> Result<ArrayMapping, CompileError> {
    map_to_arrays_pooled(circuit, hardware, kind, gamma, &WorkPool::sequential())
}

/// [`map_to_arrays`] with the per-vertex refinement scoring of the MAX
/// k-Cut mapper fanned out over `pool`. The greedy assignment itself
/// stays sequential (each placement depends on all earlier ones); only
/// the weighted-degree ordering pass — a pure per-vertex function of
/// the immutable interaction graph, scattered over its independent
/// connected gate groups — runs in parallel, so the mapping is
/// bit-identical at every worker count.
///
/// # Errors
///
/// Exactly those of [`map_to_arrays`].
pub fn map_to_arrays_pooled(
    circuit: &Circuit,
    hardware: &RaaConfig,
    kind: ArrayMapperKind,
    gamma: f64,
    pool: &WorkPool,
) -> Result<ArrayMapping, CompileError> {
    let n = circuit.num_qubits();
    let capacity = hardware.total_capacity();
    if n > capacity {
        return Err(CompileError::Capacity {
            required: n,
            available: capacity,
        });
    }
    let caps: Vec<usize> = (0..hardware.num_arrays())
        .map(|a| hardware.dims(raa_arch::ArrayIndex(a as u8)).capacity())
        .collect();
    match kind {
        ArrayMapperKind::MaxKCut => Ok(max_k_cut(circuit, &caps, gamma, pool)),
        ArrayMapperKind::Dense => Ok(dense(n, &caps)),
    }
}

/// `map_to_arrays_pooled` with the transpile-index mode selected
/// explicitly (for the mapper the mode picks only the MAX k-Cut degree
/// method): [`TranspileIndex::Naive`] is the path above;
/// [`TranspileIndex::Indexed`] replaces the MAX k-Cut's per-vertex
/// rescans with adjacency-list degree sums and incrementally-maintained
/// per-array weights — O(E) total instead of O(n·E) — while producing
/// the bit-identical mapping (see `max_k_cut_indexed` for why the
/// floats agree; proven by the unit tests here and
/// `tests/transpile_differential.rs`).
///
/// # Errors
///
/// Exactly those of [`map_to_arrays`].
pub fn map_to_arrays_with(
    circuit: &Circuit,
    hardware: &RaaConfig,
    kind: ArrayMapperKind,
    gamma: f64,
    index: TranspileIndex,
    pool: &WorkPool,
) -> Result<ArrayMapping, CompileError> {
    match index {
        TranspileIndex::Naive => map_to_arrays_pooled(circuit, hardware, kind, gamma, pool),
        TranspileIndex::Indexed => {
            let n = circuit.num_qubits();
            let capacity = hardware.total_capacity();
            if n > capacity {
                return Err(CompileError::Capacity {
                    required: n,
                    available: capacity,
                });
            }
            let caps: Vec<usize> = (0..hardware.num_arrays())
                .map(|a| hardware.dims(raa_arch::ArrayIndex(a as u8)).capacity())
                .collect();
            match kind {
                ArrayMapperKind::MaxKCut => Ok(max_k_cut_indexed(circuit, &caps, gamma)),
                ArrayMapperKind::Dense => Ok(dense(n, &caps)),
            }
        }
    }
}

/// Paper Alg. 1: assign each vertex, one by one, to the array maximizing
/// its cut against already-assigned vertices, respecting array capacities.
///
/// Vertices are visited in descending weighted-degree order (heaviest
/// qubits choose first), which can only improve on the arbitrary order the
/// pseudo-code shows while keeping the same greedy structure.
fn max_k_cut(circuit: &Circuit, caps: &[usize], gamma: f64, pool: &WorkPool) -> ArrayMapping {
    let n = circuit.num_qubits();
    let k = caps.len();
    let graph = InteractionGraph::with_layer_decay(circuit, gamma);

    let mut order: Vec<usize> = (0..n).collect();
    let mut degree: Vec<f64> = if pool.is_parallel() && n >= PAR_MIN_VERTICES {
        // Scatter the O(n·E) degree refinement over the graph's
        // independent gate groups (connected components, split further
        // so one giant component still fans out). Each weighted degree
        // is a pure per-vertex sum over the immutable graph, gathered
        // back by vertex id — bit-identical to the sequential loop.
        let cap = n.div_ceil(4 * pool.threads()).max(1);
        let groups: Vec<Vec<u32>> = graph
            .components()
            .iter()
            .flat_map(|comp| comp.chunks(cap).map(<[u32]>::to_vec))
            .collect();
        let parts = pool.map("par.map.degree", &groups, |_, group| {
            group
                .iter()
                .map(|&q| graph.weighted_degree(Qubit(q)))
                .collect::<Vec<f64>>()
        });
        let mut degree = vec![0.0f64; n];
        for (group, part) in groups.iter().zip(parts) {
            for (&q, d) in group.iter().zip(part) {
                degree[q as usize] = d;
            }
        }
        degree
    } else {
        (0..n)
            .map(|q| graph.weighted_degree(Qubit(q as u32)))
            .collect()
    };
    order.sort_by(|&a, &b| {
        degree[b]
            .partial_cmp(&degree[a])
            .expect("finite weights")
            .then(a.cmp(&b))
    });

    let mut array_of = vec![u8::MAX; n];
    let mut members: Vec<Vec<Qubit>> = vec![Vec::new(); k];
    for &q in &order {
        let qb = Qubit(q as u32);
        // Total interaction of q with every already-assigned vertex.
        let total: f64 = (0..k).map(|a| graph.weight_to_set(qb, &members[a])).sum();
        let mut best_array = None;
        let mut best_cut = f64::NEG_INFINITY;
        for a in 0..k {
            if members[a].len() >= caps[a] {
                continue;
            }
            // Cut gained by placing q in array a = weight to all other arrays.
            let cut = total - graph.weight_to_set(qb, &members[a]);
            // Tie-break toward the emptier array for load balance.
            let cut = cut - 1e-9 * members[a].len() as f64;
            if cut > best_cut {
                best_cut = cut;
                best_array = Some(a);
            }
        }
        let a = best_array.expect("capacity was validated");
        array_of[q] = a as u8;
        members[a].push(qb);
    }
    degree.clear(); // explicit: degrees only needed for ordering
    ArrayMapping {
        array_of,
        num_arrays: k,
    }
}

/// [`max_k_cut`] with indexed degree/weight maintenance — the
/// `TranspileIndex::Indexed` twin.
///
/// Two rescans disappear: (1) weighted degrees are summed over
/// per-vertex adjacency lists built in one pass over the graph's
/// `BTreeMap` edge order, and (2) the greedy loop maintains
/// `w_to[q][a]` — qubit `q`'s interaction weight into array `a` —
/// updated along `q`'s adjacency when a neighbor is assigned, instead
/// of rescanning every member per placement.
///
/// # Why the floats are bit-identical to the naive pass
///
/// *Degrees*: an edge `(u, v)` with `u < v` lands in `adj[q]` in
/// `BTreeMap` key order, which for fixed `q` is "partners `< q`
/// ascending, then partners `> q` ascending" — exactly the order
/// `weighted_degree`'s filter visits, so the left-to-right sums agree
/// bitwise. *Greedy weights*: `weight_to_set` sums over an array's
/// members in membership (= assignment) order, adding `0.0` for
/// non-neighbors; `w_to` receives the same neighbor contributions in
/// assignment order and skips the zeros — and `x + 0.0 == x` bitwise
/// for every partial sum here (weights are positive, sums start at
/// `+0.0` and never produce `-0.0`). The per-array totals, the
/// `total - w_to - 1e-9·len` cut expression and the strict `>`
/// comparison are then the identical float operations.
fn max_k_cut_indexed(circuit: &Circuit, caps: &[usize], gamma: f64) -> ArrayMapping {
    let n = circuit.num_qubits();
    let k = caps.len();
    let graph = InteractionGraph::with_layer_decay(circuit, gamma);

    let mut adj: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
    for ((u, v), w) in graph.edges() {
        adj[u.index()].push((v.0, w));
        adj[v.index()].push((u.0, w));
    }
    let degree: Vec<f64> = adj
        .iter()
        .map(|nbrs| nbrs.iter().map(|&(_, w)| w).sum())
        .collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        degree[b]
            .partial_cmp(&degree[a])
            .expect("finite weights")
            .then(a.cmp(&b))
    });

    let mut array_of = vec![u8::MAX; n];
    let mut members_len = vec![0usize; k];
    // Row-major n×k: qubit q's already-assigned interaction weight into
    // each array.
    let mut w_to = vec![0.0f64; n * k];
    for &q in &order {
        let total: f64 = w_to[q * k..q * k + k].iter().sum();
        let mut best_array = None;
        let mut best_cut = f64::NEG_INFINITY;
        for a in 0..k {
            if members_len[a] >= caps[a] {
                continue;
            }
            let cut = total - w_to[q * k + a];
            let cut = cut - 1e-9 * members_len[a] as f64;
            if cut > best_cut {
                best_cut = cut;
                best_array = Some(a);
            }
        }
        let a = best_array.expect("capacity was validated");
        array_of[q] = a as u8;
        members_len[a] += 1;
        for &(u, w) in &adj[q] {
            w_to[u as usize * k + a] += w;
        }
    }
    ArrayMapping {
        array_of,
        num_arrays: k,
    }
}

/// Fig. 21 baseline, modelling Qiskit's dense layout: qubits gravitate to
/// the largest contiguous region — the SLM — with only the remainder
/// spread over the AODs. Interaction structure is ignored entirely. (A
/// 100%-SLM mapping could execute no gate at all, so two thirds go to the
/// SLM and the rest split evenly — the worst *legal* concentration.)
fn dense(n: usize, caps: &[usize]) -> ArrayMapping {
    let k = caps.len();
    let slm_share = ((2 * n).div_ceil(3))
        .min(caps[0])
        .min(n.saturating_sub(1).max(1));
    let rest = n - slm_share;
    let per_aod = rest.div_ceil((k - 1).max(1));
    let mut array_of = Vec::with_capacity(n);
    array_of.resize(slm_share, 0u8);
    let mut a = 1usize;
    let mut used = 0usize;
    for _ in 0..rest {
        while used >= per_aod.min(caps[a]) {
            a += 1;
            used = 0;
        }
        array_of.push(a as u8);
        used += 1;
    }
    ArrayMapping {
        array_of,
        num_arrays: k,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raa_arch::{ArrayDims, RaaConfig};
    use raa_circuit::Gate;

    fn hw() -> RaaConfig {
        RaaConfig::default()
    }

    /// A circuit whose interaction graph is bipartite: qubits {0,1} talk
    /// only to {2,3}.
    fn bipartite() -> Circuit {
        let mut c = Circuit::new(4);
        for _ in 0..3 {
            c.push(Gate::cz(Qubit(0), Qubit(2)));
            c.push(Gate::cz(Qubit(1), Qubit(3)));
            c.push(Gate::cz(Qubit(0), Qubit(3)));
        }
        c
    }

    #[test]
    fn max_k_cut_separates_bipartite_halves() {
        let c = bipartite();
        let m = map_to_arrays(&c, &hw(), ArrayMapperKind::MaxKCut, 1.0).unwrap();
        // Every gate must cross arrays: zero intra-array gates.
        assert_eq!(m.intra_array_gates(&c), 0);
        let g = InteractionGraph::of(&c);
        assert!((m.cut_weight(&g) - 9.0).abs() < 1e-9);
    }

    #[test]
    fn dense_mapper_concentrates_in_slm() {
        let c = Circuit::new(120);
        let m = map_to_arrays(&c, &hw(), ArrayMapperKind::Dense, 0.9).unwrap();
        // Two thirds (80) in the SLM, capped by its 100-trap capacity.
        let slm = m.array_of.iter().filter(|&&a| a == 0).count();
        assert_eq!(slm, 80);
        // Contiguity: array index is monotone.
        assert!(m.array_of.windows(2).all(|w| w[0] <= w[1]));
        // Capacity respected even at 250 qubits.
        let m = map_to_arrays(&Circuit::new(250), &hw(), ArrayMapperKind::Dense, 0.9).unwrap();
        for a in 0..3u8 {
            assert!(m.qubits_in(a).len() <= 100, "array {a} over capacity");
        }
    }

    #[test]
    fn max_k_cut_beats_dense_on_structured_circuit() {
        let c = bipartite();
        let g = InteractionGraph::of(&c);
        let kcut = map_to_arrays(&c, &hw(), ArrayMapperKind::MaxKCut, 1.0).unwrap();
        let dense = map_to_arrays(&c, &hw(), ArrayMapperKind::Dense, 1.0).unwrap();
        assert!(kcut.cut_weight(&g) >= dense.cut_weight(&g));
    }

    #[test]
    fn capacity_respected() {
        // Tiny machine: 2x1 SLM + one 2x1 AOD = 4 traps, 4-qubit circuit.
        let hw = RaaConfig::new(ArrayDims::new(2, 1), vec![ArrayDims::new(2, 1)]).unwrap();
        let mut c = Circuit::new(4);
        // Star around qubit 0: greedy wants everyone opposite 0.
        for q in 1..4 {
            c.push(Gate::cz(Qubit(0), Qubit(q)));
        }
        let m = map_to_arrays(&c, &hw, ArrayMapperKind::MaxKCut, 1.0).unwrap();
        for a in 0..2u8 {
            assert!(m.qubits_in(a).len() <= 2, "array {a} over capacity");
        }
    }

    #[test]
    fn too_many_qubits_rejected() {
        let c = Circuit::new(301);
        assert!(matches!(
            map_to_arrays(&c, &hw(), ArrayMapperKind::MaxKCut, 0.9),
            Err(CompileError::Capacity {
                required: 301,
                available: 300
            })
        ));
    }

    #[test]
    fn every_qubit_is_assigned() {
        let c = bipartite();
        for kind in [ArrayMapperKind::MaxKCut, ArrayMapperKind::Dense] {
            let m = map_to_arrays(&c, &hw(), kind, 0.9).unwrap();
            assert_eq!(m.array_of.len(), 4);
            assert!(m.array_of.iter().all(|&a| (a as usize) < m.num_arrays));
        }
    }

    #[test]
    fn pooled_mapping_is_bit_identical() {
        use rand::{RngExt, SeedableRng};
        // Large enough to clear PAR_MIN_VERTICES so the parallel degree
        // scatter actually engages.
        let n = 280usize;
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let mut c = Circuit::new(n);
        for _ in 0..800 {
            let a = rng.random_range(0..n as u32);
            let mut b = rng.random_range(0..n as u32);
            while b == a {
                b = rng.random_range(0..n as u32);
            }
            c.push(Gate::cz(Qubit(a), Qubit(b)));
        }
        let base = map_to_arrays(&c, &hw(), ArrayMapperKind::MaxKCut, 0.9).unwrap();
        for threads in [2, 4, 8] {
            let pool = raa_par::WorkPool::new(threads);
            let m = map_to_arrays_pooled(&c, &hw(), ArrayMapperKind::MaxKCut, 0.9, &pool).unwrap();
            assert_eq!(m, base, "{threads} threads");
        }
    }

    #[test]
    fn indexed_mapping_is_bit_identical_to_naive() {
        use rand::{RngExt, SeedableRng};
        for (seed, n, gates, gamma) in [(17u64, 280usize, 800usize, 0.9f64), (5, 40, 120, 0.5)] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut c = Circuit::new(n);
            for _ in 0..gates {
                let a = rng.random_range(0..n as u32);
                let mut b = rng.random_range(0..n as u32);
                while b == a {
                    b = rng.random_range(0..n as u32);
                }
                c.push(Gate::cz(Qubit(a), Qubit(b)));
            }
            let base = map_to_arrays(&c, &hw(), ArrayMapperKind::MaxKCut, gamma).unwrap();
            for threads in [1, 4] {
                let pool = raa_par::WorkPool::new(threads);
                let idx = map_to_arrays_with(
                    &c,
                    &hw(),
                    ArrayMapperKind::MaxKCut,
                    gamma,
                    TranspileIndex::Indexed,
                    &pool,
                )
                .unwrap();
                assert_eq!(idx, base, "seed {seed}, {threads} threads");
            }
            let naive = map_to_arrays_with(
                &c,
                &hw(),
                ArrayMapperKind::MaxKCut,
                gamma,
                TranspileIndex::Naive,
                &raa_par::WorkPool::sequential(),
            )
            .unwrap();
            assert_eq!(naive, base, "seed {seed}: Naive mode must be the old path");
        }
    }

    #[test]
    fn gamma_affects_weights_not_validity() {
        let c = bipartite();
        let m = map_to_arrays(&c, &hw(), ArrayMapperKind::MaxKCut, 0.5).unwrap();
        assert_eq!(m.intra_array_gates(&c), 0);
    }
}
