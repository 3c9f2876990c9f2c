//! The reference SABRE router: the original naive round loop, kept in
//! test scope as the oracle the production router is differentially
//! tested against. Every round rebuilds the front and extended sets
//! from scratch and scores every enumerated candidate — duplicates
//! included — with [`reference_swap_score`]; the first strict
//! `(score, candidate)` minimum wins. Sequential only, and inputs are
//! assumed valid (the production router validates them).
//!
//! Shared by `reference_differential.rs` and, through a `#[path]`
//! module, the `raa-sabre` unit tests; both provide the imported names
//! below at their crate root.

use std::collections::{HashSet, VecDeque};

use raa_arch::CouplingGraph;
use raa_circuit::{Circuit, DagSchedule, Gate, GateIdx, Qubit};

use super::{reference_swap_score, RoutedCircuit, SabreConfig, SabreError};

/// Logical ↔ physical map with padding ids on unused slots.
struct Layout {
    log_to_phys: Vec<u32>,
    phys_to_log: Vec<u32>,
}

impl Layout {
    fn new(initial: &[u32], num_phys: usize) -> Self {
        let mut log_to_phys = vec![u32::MAX; num_phys];
        let mut phys_to_log = vec![u32::MAX; num_phys];
        for (l, &p) in initial.iter().enumerate() {
            log_to_phys[l] = p;
            phys_to_log[p as usize] = l as u32;
        }
        let mut next = initial.len() as u32;
        for p in 0..num_phys as u32 {
            if phys_to_log[p as usize] == u32::MAX {
                log_to_phys[next as usize] = p;
                phys_to_log[p as usize] = next;
                next += 1;
            }
        }
        Layout {
            log_to_phys,
            phys_to_log,
        }
    }

    fn phys(&self, l: Qubit) -> u32 {
        self.log_to_phys[l.index()]
    }

    fn apply_swap(&mut self, a: u32, b: u32) {
        let la = self.phys_to_log[a as usize];
        let lb = self.phys_to_log[b as usize];
        self.phys_to_log.swap(a as usize, b as usize);
        self.log_to_phys[la as usize] = b;
        self.log_to_phys[lb as usize] = a;
    }
}

/// Routes `circuit` with the naive SABRE loop.
pub fn route(
    circuit: &Circuit,
    graph: &CouplingGraph,
    initial_layout: &[u32],
    config: &SabreConfig,
) -> Result<RoutedCircuit, SabreError> {
    let n_log = circuit.num_qubits();
    let n_phys = graph.num_qubits();
    let mut layout = Layout::new(initial_layout, n_phys);
    let mut sched = DagSchedule::new(circuit);
    let mut out = Circuit::new(n_phys);
    let mut swaps = 0usize;
    let mut decay = vec![1.0f64; n_phys];
    let mut swaps_since_reset = 0usize;
    let stall_limit = 4 * n_phys + 64;
    let mut stall = 0usize;

    while !sched.is_done() {
        // 1. Execute everything currently executable.
        let mut progressed = true;
        while progressed {
            progressed = false;
            let front: Vec<GateIdx> = sched.front().to_vec();
            for g in front {
                let gate = circuit.gates()[g];
                match gate.pair() {
                    None => {
                        out.push(gate.map_qubits(|q| Qubit(layout.phys(q))));
                        sched.execute(g);
                        progressed = true;
                    }
                    Some((a, b)) => {
                        let (pa, pb) = (layout.phys(a), layout.phys(b));
                        if graph.are_coupled(pa, pb) {
                            out.push(gate.map_qubits(|q| Qubit(layout.phys(q))));
                            sched.execute(g);
                            progressed = true;
                        }
                    }
                }
            }
            if progressed {
                stall = 0;
                decay.iter_mut().for_each(|d| *d = 1.0);
                swaps_since_reset = 0;
            }
        }
        if sched.is_done() {
            break;
        }

        // 2. Pick the best swap among edges touching front-layer qubits.
        let front_pairs: Vec<(u32, u32)> = sched
            .front()
            .iter()
            .filter_map(|&g| circuit.gates()[g].pair())
            .map(|(a, b)| (layout.phys(a), layout.phys(b)))
            .collect();
        let ext_pairs: Vec<(Qubit, Qubit)> =
            extended_set(circuit, &sched, config.extended_set_size)
                .iter()
                .filter_map(|&g| circuit.gates()[g].pair())
                .collect();

        let mut best: Option<(f64, (u32, u32))> = None;
        for &(fa, fb) in &front_pairs {
            for p in [fa, fb] {
                for &q in graph.neighbors(p) {
                    let cand = if p < q { (p, q) } else { (q, p) };
                    let score = reference_swap_score(
                        cand,
                        graph,
                        &front_pairs,
                        &ext_pairs,
                        &layout.log_to_phys,
                        &decay,
                        config,
                    );
                    if best.is_none_or(|(s, c)| score < s || (score == s && cand < c)) {
                        best = Some((score, cand));
                    }
                }
            }
        }
        let Some((_, (a, b))) = best else {
            return Err(SabreError::Disconnected);
        };

        layout.apply_swap(a, b);
        out.push(Gate::swap(Qubit(a), Qubit(b)));
        swaps += 1;
        stall += 1;
        if stall > stall_limit {
            return Err(SabreError::Disconnected);
        }
        decay[a as usize] += config.decay_increment;
        decay[b as usize] += config.decay_increment;
        swaps_since_reset += 1;
        if swaps_since_reset >= config.decay_reset_interval {
            decay.iter_mut().for_each(|d| *d = 1.0);
            swaps_since_reset = 0;
        }
    }

    let final_layout = (0..n_log).map(|l| layout.phys(Qubit(l as u32))).collect();
    Ok(RoutedCircuit {
        circuit: out,
        initial_layout: initial_layout.to_vec(),
        final_layout,
        swaps_inserted: swaps,
    })
}

/// Up to `cap` two-qubit gates reachable from the front layer, in BFS
/// order: SABRE's extended set.
fn extended_set(circuit: &Circuit, sched: &DagSchedule, cap: usize) -> Vec<GateIdx> {
    let mut out = Vec::new();
    let mut queue: VecDeque<GateIdx> = sched.front().iter().copied().collect();
    let mut seen: HashSet<GateIdx> = queue.iter().copied().collect();
    while let Some(g) = queue.pop_front() {
        for &s in sched.dag().succs(g) {
            if seen.insert(s) {
                if circuit.gates()[s].is_two_qubit() {
                    out.push(s);
                    if out.len() >= cap {
                        return out;
                    }
                }
                queue.push_back(s);
            }
        }
    }
    out
}
