//! SABRE SWAP routing (Li, Ding, Xie — ASPLOS 2019).
//!
//! Given a circuit over logical qubits, a coupling graph over physical
//! qubits, and an initial layout, inserts SWAPs so every two-qubit gate
//! executes on coupled physical qubits. The heuristic is the published one:
//! front-layer distance plus a weighted extended-set (lookahead) term,
//! multiplied by a decay factor that discourages serializing swaps on the
//! same qubits.
//!
//! The paper uses "Qiskit Optimization Level 3 with SABRE" for every
//! baseline; this module is the workspace's from-scratch equivalent.
//! Every caller — Atomique's multipartite SWAP insertion and the
//! fixed-architecture baselines through
//! [`layout_and_route`](crate::layout_and_route) — runs the same round
//! loop.

use std::collections::{HashSet, VecDeque};

use raa_arch::CouplingGraph;
use raa_circuit::{Circuit, DagSchedule, Gate, GateIdx, Qubit};
use raa_trace::Counter;

use crate::error::SabreError;

/// Swap candidates scored, one per distinct candidate per round.
static SCORE_RECOMPUTE: Counter = Counter::new("transpile.score_recompute");
/// Candidate enumerations skipped because the swap joins two front
/// endpoints and was already enumerated from the smaller one.
static SCORE_DEDUP: Counter = Counter::new("transpile.score_dedup");

/// Tunables for the SABRE heuristic. Defaults follow the published
/// implementation (extended-set size 20, weight 0.5, decay 0.001 reset
/// every 5 swaps).
#[derive(Debug, Clone, PartialEq)]
pub struct SabreConfig {
    /// Maximum number of lookahead gates in the extended set.
    pub extended_set_size: usize,
    /// Weight of the extended-set term in the heuristic.
    pub extended_set_weight: f64,
    /// Additive decay applied to a qubit each time it participates in a
    /// swap.
    pub decay_increment: f64,
    /// Number of swaps after which decay factors reset.
    pub decay_reset_interval: usize,
}

impl Default for SabreConfig {
    fn default() -> Self {
        SabreConfig {
            extended_set_size: 20,
            extended_set_weight: 0.5,
            decay_increment: 0.001,
            decay_reset_interval: 5,
        }
    }
}

/// The output of routing: a physical circuit plus layout bookkeeping.
#[derive(Debug, Clone)]
pub struct RoutedCircuit {
    /// The routed circuit over *physical* qubits; contains the original
    /// gates (relabelled) plus inserted SWAPs.
    pub circuit: Circuit,
    /// Logical → physical map used at circuit start.
    pub initial_layout: Vec<u32>,
    /// Logical → physical map after the last gate.
    pub final_layout: Vec<u32>,
    /// Number of SWAP gates inserted.
    pub swaps_inserted: usize,
}

/// Bidirectional mapping between logical and physical qubits.
///
/// Physical slots without a program qubit hold "padding" logical ids
/// `n..N` so that swaps are total permutations.
#[derive(Debug, Clone)]
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
        // Pad unused physical qubits with virtual logical ids.
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

    #[inline]
    fn phys(&self, l: Qubit) -> u32 {
        self.log_to_phys[l.index()]
    }

    /// Swaps the logical occupants of physical qubits `a` and `b`.
    fn apply_swap(&mut self, a: u32, b: u32) {
        let la = self.phys_to_log[a as usize];
        let lb = self.phys_to_log[b as usize];
        self.phys_to_log.swap(a as usize, b as usize);
        self.log_to_phys[la as usize] = b;
        self.log_to_phys[lb as usize] = a;
    }
}

/// Routes `circuit` on `graph` starting from `initial_layout`
/// (logical qubit `i` starts on physical qubit `initial_layout[i]`).
///
/// # Errors
///
/// * [`SabreError::TooManyQubits`] if the circuit has more qubits than the
///   graph.
/// * [`SabreError::InvalidLayout`] if the layout is not injective or
///   references missing physical qubits.
/// * [`SabreError::Disconnected`] if routing stalls because needed qubits
///   are in different connected components.
pub fn route(
    circuit: &Circuit,
    graph: &CouplingGraph,
    initial_layout: &[u32],
    config: &SabreConfig,
) -> Result<RoutedCircuit, SabreError> {
    route_inner(circuit, graph, initial_layout, config, None)
}

/// [`route`] invoking `probe` once per swap round with the round's
/// inputs and every candidate evaluation, before the chosen swap is
/// applied — the hook the per-score audit
/// (`crates/sabre/tests/reference_differential.rs`) checks every
/// compared score through.
///
/// # Errors
///
/// Exactly those of [`route`].
pub fn route_probed(
    circuit: &Circuit,
    graph: &CouplingGraph,
    initial_layout: &[u32],
    config: &SabreConfig,
    probe: &mut dyn FnMut(RoundProbe<'_>),
) -> Result<RoutedCircuit, SabreError> {
    route_inner(circuit, graph, initial_layout, config, Some(probe))
}

/// Recomputes a candidate's swap score from scratch without a layout:
/// the published heuristic written out term by term, and the oracle the
/// router's O(Δ) scores are compared against bit for bit
/// (`crates/sabre/tests/reference_differential.rs`).
///
/// `front_pairs` hold pre-swap physical endpoints, `ext_pairs` logical
/// endpoints, `log_to_phys` the pre-swap layout (length = physical
/// qubits, padding entries included). The tentative swap is applied
/// algebraically (endpoint remapping); lower is better.
pub fn reference_swap_score(
    (a, b): (u32, u32),
    graph: &CouplingGraph,
    front_pairs: &[(u32, u32)],
    ext_pairs: &[(Qubit, Qubit)],
    log_to_phys: &[u32],
    decay: &[f64],
    config: &SabreConfig,
) -> f64 {
    let remap = |p: u32| -> u32 {
        if p == a {
            b
        } else if p == b {
            a
        } else {
            p
        }
    };
    let mut front_cost = 0.0;
    for &(pa, pb) in front_pairs {
        front_cost += graph.distance(remap(pa), remap(pb)) as f64;
    }
    front_cost /= front_pairs.len().max(1) as f64;

    let mut ext_cost = 0.0;
    if !ext_pairs.is_empty() {
        for &(la, lb) in ext_pairs {
            let (pa, pb) = (log_to_phys[la.index()], log_to_phys[lb.index()]);
            ext_cost += graph.distance(remap(pa), remap(pb)) as f64;
        }
        ext_cost = config.extended_set_weight * ext_cost / ext_pairs.len() as f64;
    }
    decay[a as usize].max(decay[b as usize]) * (front_cost + ext_cost)
}

/// One scored candidate as observed through [`route_probed`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateEval {
    /// The normalized candidate swap (smaller physical qubit first).
    pub cand: (u32, u32),
    /// The score the selection compared (identical bits to
    /// [`reference_swap_score`] on the same round inputs).
    pub score: f64,
}

/// A snapshot of one swap round, handed to the [`route_probed`]
/// callback *before* the chosen swap is applied. All slices borrow the
/// router's live state.
#[derive(Debug)]
pub struct RoundProbe<'a> {
    /// Physical endpoint pairs of the front layer's two-qubit gates.
    pub front_pairs: &'a [(u32, u32)],
    /// Logical endpoint pairs of the extended (lookahead) set.
    pub ext_pairs: &'a [(Qubit, Qubit)],
    /// Logical → physical map before the chosen swap (padding entries
    /// for unoccupied physical qubits included).
    pub log_to_phys: &'a [u32],
    /// Per-physical-qubit decay factors the scores were weighted by.
    pub decay: &'a [f64],
    /// Every candidate evaluated this round, each exactly once.
    pub evals: &'a [CandidateEval],
    /// The swap the round selected.
    pub chosen: (u32, u32),
}

/// A scored candidate: `(score, normalized swap)`.
type Scored = (f64, (u32, u32));

/// The selection order: strictly lower score wins, ties broken by the
/// smaller normalized pair — a total order over one round's candidates,
/// so the minimum does not depend on enumeration order.
fn less(a: &Scored, b: &Scored) -> bool {
    a.0 < b.0 || (a.0 == b.0 && a.1 < b.1)
}

/// One swap round's scoring state: the front and extended pairs, their
/// exact integer distance sums, and per-slot touch lists — the pairs
/// incident to each physical slot, the only pairs a swap on that slot
/// can change. Rebuilt every round; the buffers are reused.
///
/// # Why the scores are the reference floats
///
/// Distances are `u16`; every front/extended sum is an exact integer
/// far below 2⁵³, so [`reference_swap_score`]'s left-to-right `f64`
/// accumulation is exact — equal to the integer sum in any order. The
/// router applies a candidate's integer deltas to the integer sums and
/// converts once before replaying the reference's division/multiply
/// sequence, producing bit-identical floats.
///
/// # Why nothing is carried across rounds
///
/// On Atomique's complete multipartite graph a front pair still waiting
/// after the execute step is a same-part pair, and every candidate
/// `(p, q)` moves endpoint `p` into `q`'s part, coupling `p`'s pair. So
/// every round retires a gate and changes the front: per-candidate
/// state kept from one round would be stale before the next could read
/// it.
struct Round<'g> {
    graph: &'g CouplingGraph,
    /// Physical endpoints of the front layer's 2Q gates (front gates
    /// are qubit-disjoint, so each slot hosts at most one front pair).
    front_pairs: Vec<(u32, u32)>,
    /// Logical endpoints of the extended set.
    ext_pairs: Vec<(Qubit, Qubit)>,
    /// The same extended pairs through the current layout.
    ext_phys: Vec<(u32, u32)>,
    /// Per-slot indices into `front_pairs` / `ext_phys` of the pairs
    /// incident to that slot.
    touch_front: Vec<Vec<u32>>,
    touch_ext: Vec<Vec<u32>>,
    /// Slots with potentially nonempty touch lists (for O(touched)
    /// clearing).
    touched: Vec<u32>,
    /// Exact integer Σ distance over `front_pairs` / `ext_phys`.
    s_front: i64,
    s_ext: i64,
    /// Scratch: the round's candidates and extended-set gates.
    cands: Vec<(u32, u32)>,
    ext_gates: Vec<GateIdx>,
}

impl<'g> Round<'g> {
    fn new(graph: &'g CouplingGraph) -> Round<'g> {
        let n = graph.num_qubits();
        Round {
            graph,
            front_pairs: Vec::new(),
            ext_pairs: Vec::new(),
            ext_phys: Vec::new(),
            touch_front: vec![Vec::new(); n],
            touch_ext: vec![Vec::new(); n],
            touched: Vec::new(),
            s_front: 0,
            s_ext: 0,
            cands: Vec::new(),
            ext_gates: Vec::new(),
        }
    }

    /// Collects the round's front and extended pairs from the schedule,
    /// then indexes them.
    fn rebuild(
        &mut self,
        circuit: &Circuit,
        sched: &DagSchedule,
        layout: &Layout,
        config: &SabreConfig,
    ) {
        self.front_pairs.clear();
        self.front_pairs.extend(
            sched
                .front()
                .iter()
                .filter_map(|&g| circuit.gates()[g].pair())
                .map(|(a, b)| (layout.phys(a), layout.phys(b))),
        );
        extended_set(
            circuit,
            sched,
            config.extended_set_size,
            &mut self.ext_gates,
        );
        self.ext_pairs.clear();
        self.ext_pairs.extend(
            self.ext_gates
                .iter()
                .filter_map(|&g| circuit.gates()[g].pair()),
        );
        self.index(layout);
    }

    /// Recomputes the physical extended pairs, both integer sums and the
    /// touch lists from `front_pairs` and `ext_pairs`.
    fn index(&mut self, layout: &Layout) {
        for &s in &self.touched {
            self.touch_front[s as usize].clear();
            self.touch_ext[s as usize].clear();
        }
        self.touched.clear();
        self.ext_phys.clear();
        self.ext_phys.extend(
            self.ext_pairs
                .iter()
                .map(|&(la, lb)| (layout.phys(la), layout.phys(lb))),
        );

        self.s_front = 0;
        for (i, &(x, y)) in self.front_pairs.iter().enumerate() {
            self.s_front += self.graph.distance(x, y) as i64;
            self.touch_front[x as usize].push(i as u32);
            self.touch_front[y as usize].push(i as u32);
            self.touched.push(x);
            self.touched.push(y);
        }
        self.s_ext = 0;
        for (i, &(x, y)) in self.ext_phys.iter().enumerate() {
            self.s_ext += self.graph.distance(x, y) as i64;
            self.touch_ext[x as usize].push(i as u32);
            self.touch_ext[y as usize].push(i as u32);
            self.touched.push(x);
            self.touched.push(y);
        }
    }

    /// The integer distance deltas swap `(a, b)` applies to the front
    /// and extended sums: only pairs incident to `a` or `b` can change,
    /// so this is O(Δ) — the incidence degree of the two slots — not
    /// O(front + extended).
    fn deltas(&self, a: u32, b: u32) -> (i64, i64) {
        let g = self.graph;
        let pair_delta = |(pa, pb): (u32, u32)| -> i64 {
            let remap = |p: u32| -> u32 {
                if p == a {
                    b
                } else if p == b {
                    a
                } else {
                    p
                }
            };
            g.distance(remap(pa), remap(pb)) as i64 - g.distance(pa, pb) as i64
        };
        let sum = |touch: &[Vec<u32>], pairs: &[(u32, u32)]| -> i64 {
            let mut d = 0i64;
            for &i in &touch[a as usize] {
                d += pair_delta(pairs[i as usize]);
            }
            for &i in &touch[b as usize] {
                let p = pairs[i as usize];
                if p.0 == a || p.1 == a {
                    continue; // incident to both endpoints: already counted
                }
                d += pair_delta(p);
            }
            d
        };
        (
            sum(&self.touch_front, &self.front_pairs),
            sum(&self.touch_ext, &self.ext_phys),
        )
    }

    /// Candidate `(a, b)`'s score: its deltas turned into the comparison
    /// float with the exact arithmetic of [`reference_swap_score`].
    fn score(&self, (a, b): (u32, u32), decay: &[f64], w: f64) -> f64 {
        let (df, de) = self.deltas(a, b);
        let front_cost = (self.s_front + df) as f64 / self.front_pairs.len().max(1) as f64;
        let ext_cost = if self.ext_phys.is_empty() {
            0.0
        } else {
            w * (self.s_ext + de) as f64 / self.ext_phys.len() as f64
        };
        decay[a as usize].max(decay[b as usize]) * (front_cost + ext_cost)
    }

    /// Selects the round's swap among edges touching front-layer slots,
    /// returning it with the candidate evaluations (recorded only when
    /// `collect_evals` is set).
    ///
    /// Each candidate is enumerated once: a swap joining two front
    /// endpoints is met from both, and only the visit from the smaller
    /// slot is kept.
    fn pick_swap(
        &mut self,
        decay: &[f64],
        config: &SabreConfig,
        collect_evals: bool,
    ) -> (Option<Scored>, Vec<CandidateEval>) {
        self.cands.clear();
        let mut dupes = 0u64;
        for &(fa, fb) in &self.front_pairs {
            for p in [fa, fb] {
                for &q in self.graph.neighbors(p) {
                    if q < p && !self.touch_front[q as usize].is_empty() {
                        dupes += 1;
                    } else {
                        self.cands.push(if p < q { (p, q) } else { (q, p) });
                    }
                }
            }
        }
        SCORE_DEDUP.add(dupes);
        SCORE_RECOMPUTE.add(self.cands.len() as u64);

        let w = config.extended_set_weight;
        let mut best: Option<Scored> = None;
        let mut evals = Vec::new();
        for &cand in &self.cands {
            let score = self.score(cand, decay, w);
            if collect_evals {
                evals.push(CandidateEval { cand, score });
            }
            if best.is_none_or(|b| less(&(score, cand), &b)) {
                best = Some((score, cand));
            }
        }
        (best, evals)
    }
}

/// The SABRE round loop behind [`route`] and [`route_probed`]: execute
/// everything executable, then rebuild the round, pick the best swap and
/// apply it, until the circuit is done.
fn route_inner(
    circuit: &Circuit,
    graph: &CouplingGraph,
    initial_layout: &[u32],
    config: &SabreConfig,
    mut probe: Option<&mut dyn FnMut(RoundProbe<'_>)>,
) -> Result<RoutedCircuit, SabreError> {
    let n_log = circuit.num_qubits();
    let n_phys = graph.num_qubits();
    if n_log > n_phys {
        return Err(SabreError::TooManyQubits {
            logical: n_log,
            physical: n_phys,
        });
    }
    validate_layout(initial_layout, n_log, n_phys)?;

    let mut layout = Layout::new(initial_layout, n_phys);
    let mut sched = DagSchedule::new(circuit);
    let mut out = Circuit::new(n_phys);
    let mut swaps = 0usize;
    let mut decay = vec![1.0f64; n_phys];
    let mut swaps_since_reset = 0usize;
    // If no progress happens for this many consecutive swap rounds, the
    // needed qubits cannot be brought together (disconnected graph).
    let stall_limit = 4 * n_phys + 64;
    let mut stall = 0usize;
    let mut round = Round::new(graph);

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
        round.rebuild(circuit, &sched, &layout, config);
        let (best, evals) = round.pick_swap(&decay, config, probe.is_some());
        let Some((_, (a, b))) = best else {
            return Err(SabreError::Disconnected);
        };
        if let Some(cb) = probe.as_deref_mut() {
            cb(RoundProbe {
                front_pairs: &round.front_pairs,
                ext_pairs: &round.ext_pairs,
                log_to_phys: &layout.log_to_phys,
                decay: &decay,
                evals: &evals,
                chosen: (a, b),
            });
        }

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

/// Collects up to `cap` two-qubit gates reachable from the front layer
/// (successor closure in BFS order) into `out`, cleared first: SABRE's
/// extended set.
fn extended_set(circuit: &Circuit, sched: &DagSchedule, cap: usize, out: &mut Vec<GateIdx>) {
    out.clear();
    let mut queue: VecDeque<GateIdx> = sched.front().iter().copied().collect();
    let mut seen: HashSet<GateIdx> = queue.iter().copied().collect();
    while let Some(g) = queue.pop_front() {
        for &s in sched.dag().succs(g) {
            if seen.insert(s) {
                if circuit.gates()[s].is_two_qubit() {
                    out.push(s);
                    if out.len() >= cap {
                        return;
                    }
                }
                queue.push_back(s);
            }
        }
    }
}

fn validate_layout(layout: &[u32], n_log: usize, n_phys: usize) -> Result<(), SabreError> {
    if layout.len() != n_log {
        return Err(SabreError::InvalidLayout {
            reason: format!(
                "layout has {} entries for {} logical qubits",
                layout.len(),
                n_log
            ),
        });
    }
    let mut used = vec![false; n_phys];
    for &p in layout {
        if p as usize >= n_phys {
            return Err(SabreError::InvalidLayout {
                reason: format!("physical qubit {p} out of range ({n_phys})"),
            });
        }
        if used[p as usize] {
            return Err(SabreError::InvalidLayout {
                reason: format!("physical qubit {p} assigned twice"),
            });
        }
        used[p as usize] = true;
    }
    Ok(())
}

/// Verifies that `routed` is a faithful routing of `original`: every
/// non-SWAP gate appears once, in a dependency-respecting order, on coupled
/// physical qubits, and operand tracking through SWAPs matches the original
/// logical operands. Returns the number of verified gates.
///
/// Used by tests and by the property-based suite.
///
/// # Errors
///
/// Returns a human-readable description of the first violation.
pub fn verify_routing(
    original: &Circuit,
    routed: &RoutedCircuit,
    graph: &CouplingGraph,
) -> Result<usize, String> {
    let mut layout = Layout::new(&routed.initial_layout, graph.num_qubits());
    let mut sched = DagSchedule::new(original);
    let mut count = 0usize;
    for g in routed.circuit.gates() {
        if g.is_swap() {
            let (a, b) = g.pair().expect("swap is a 2Q gate");
            if !graph.are_coupled(a.0, b.0) {
                return Err(format!("swap on uncoupled pair ({}, {})", a.0, b.0));
            }
            layout.apply_swap(a.0, b.0);
            continue;
        }
        // Find the matching original gate in the front layer.
        let logical = g.map_qubits(|p| Qubit(layout.phys_to_log[p.index()]));
        let front = sched.front().to_vec();
        let matched = front
            .iter()
            .copied()
            .find(|&idx| original.gates()[idx] == logical);
        let Some(idx) = matched else {
            return Err(format!("gate {g} (logical {logical}) is not executable"));
        };
        if let Some((a, b)) = g.pair() {
            if !graph.are_coupled(a.0, b.0) {
                return Err(format!("2Q gate on uncoupled pair ({}, {})", a.0, b.0));
            }
        }
        sched.execute(idx);
        count += 1;
    }
    if !sched.is_done() {
        return Err(format!(
            "routed circuit only covers {} of {} gates",
            sched.num_done(),
            original.len()
        ));
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;

    fn trivial_layout(n: usize) -> Vec<u32> {
        (0..n as u32).collect()
    }

    fn random_circuit(n: usize, gates: usize, seed: u64) -> Circuit {
        use rand::{RngExt, SeedableRng};
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
        c
    }

    #[test]
    fn already_routable_circuit_gets_no_swaps() {
        let mut c = Circuit::new(3);
        c.push(Gate::cz(Qubit(0), Qubit(1)));
        c.push(Gate::cz(Qubit(1), Qubit(2)));
        let g = CouplingGraph::line(3);
        let r = route(&c, &g, &trivial_layout(3), &SabreConfig::default()).unwrap();
        assert_eq!(r.swaps_inserted, 0);
        assert_eq!(r.circuit.two_qubit_count(), 2);
        verify_routing(&c, &r, &g).unwrap();
    }

    #[test]
    fn distant_gate_needs_swaps() {
        let mut c = Circuit::new(4);
        c.push(Gate::cz(Qubit(0), Qubit(3)));
        let g = CouplingGraph::line(4);
        let r = route(&c, &g, &trivial_layout(4), &SabreConfig::default()).unwrap();
        assert!(r.swaps_inserted >= 2);
        verify_routing(&c, &r, &g).unwrap();
    }

    #[test]
    fn one_qubit_gates_pass_through() {
        let mut c = Circuit::new(2);
        c.push(Gate::h(Qubit(0)));
        c.push(Gate::rz(Qubit(1), 0.3));
        let g = CouplingGraph::line(2);
        let r = route(&c, &g, &trivial_layout(2), &SabreConfig::default()).unwrap();
        assert_eq!(r.swaps_inserted, 0);
        assert_eq!(r.circuit.one_qubit_count(), 2);
        verify_routing(&c, &r, &g).unwrap();
    }

    #[test]
    fn routes_random_circuit_on_grid() {
        let n = 9;
        let c = random_circuit(n, 40, 7);
        let g = CouplingGraph::grid(3, 3);
        let r = route(&c, &g, &trivial_layout(n), &SabreConfig::default()).unwrap();
        assert_eq!(verify_routing(&c, &r, &g).unwrap(), 40);
        assert_eq!(r.circuit.two_qubit_count(), 40 + r.swaps_inserted);
    }

    #[test]
    fn fewer_physical_than_logical_fails() {
        let c = Circuit::new(5);
        let g = CouplingGraph::line(3);
        assert!(matches!(
            route(&c, &g, &trivial_layout(5), &SabreConfig::default()),
            Err(SabreError::TooManyQubits { .. })
        ));
    }

    #[test]
    fn bad_layouts_rejected() {
        let mut c = Circuit::new(2);
        c.push(Gate::cz(Qubit(0), Qubit(1)));
        let g = CouplingGraph::line(3);
        assert!(matches!(
            route(&c, &g, &[0, 0], &SabreConfig::default()),
            Err(SabreError::InvalidLayout { .. })
        ));
        assert!(matches!(
            route(&c, &g, &[0, 9], &SabreConfig::default()),
            Err(SabreError::InvalidLayout { .. })
        ));
        assert!(matches!(
            route(&c, &g, &[0], &SabreConfig::default()),
            Err(SabreError::InvalidLayout { .. })
        ));
    }

    #[test]
    fn disconnected_graph_errors() {
        let mut c = Circuit::new(4);
        c.push(Gate::cz(Qubit(0), Qubit(3)));
        let g = CouplingGraph::from_edges(4, &[(0, 1), (2, 3)]);
        assert!(matches!(
            route(&c, &g, &trivial_layout(4), &SabreConfig::default()),
            Err(SabreError::Disconnected)
        ));
    }

    #[test]
    fn routing_on_multipartite_graph() {
        // Atomique's coarse model: 2 parts of 2; a same-part gate needs one
        // swap through the other part.
        let mut c = Circuit::new(4);
        c.push(Gate::cz(Qubit(0), Qubit(1))); // both in part 0
        let g = CouplingGraph::complete_multipartite(&[2, 2]);
        let r = route(&c, &g, &trivial_layout(4), &SabreConfig::default()).unwrap();
        assert_eq!(r.swaps_inserted, 1);
        verify_routing(&c, &r, &g).unwrap();
    }

    /// The O(Δ)-indexed router against the naive reference loop, which
    /// rescores every enumerated candidate from scratch.
    #[test]
    fn indexed_routing_is_bit_identical_to_naive() {
        let g = CouplingGraph::complete_multipartite(&[8, 8, 8]);
        let n = 24usize;
        let c = random_circuit(n, 60, 41);
        let cfg = SabreConfig::default();
        let naive = reference::route(&c, &g, &trivial_layout(n), &cfg).unwrap();
        let r = route(&c, &g, &trivial_layout(n), &cfg).unwrap();
        assert_eq!(r.circuit.gates(), naive.circuit.gates());
        assert_eq!(r.final_layout, naive.final_layout);
        assert_eq!(r.swaps_inserted, naive.swaps_inserted);
    }

    #[test]
    fn indexed_routing_matches_on_sparse_graphs_too() {
        // Nothing multipartite-specific: on a line, many rounds pass
        // without a retirement.
        let mut c = Circuit::new(8);
        c.push(Gate::cz(Qubit(0), Qubit(7)));
        c.push(Gate::cz(Qubit(3), Qubit(4)));
        c.push(Gate::cz(Qubit(1), Qubit(6)));
        let g = CouplingGraph::line(8);
        let cfg = SabreConfig::default();
        let naive = reference::route(&c, &g, &trivial_layout(8), &cfg).unwrap();
        let r = route(&c, &g, &trivial_layout(8), &cfg).unwrap();
        assert_eq!(r.circuit.gates(), naive.circuit.gates());
        assert_eq!(r.final_layout, naive.final_layout);
        verify_routing(&c, &r, &g).unwrap();
    }

    #[test]
    fn indexed_routing_propagates_errors() {
        let mut c = Circuit::new(4);
        c.push(Gate::cz(Qubit(0), Qubit(3)));
        let g = CouplingGraph::from_edges(4, &[(0, 1), (2, 3)]);
        let cfg = SabreConfig::default();
        assert!(matches!(
            route(&c, &g, &trivial_layout(4), &cfg),
            Err(SabreError::Disconnected)
        ));
        assert!(matches!(
            route(
                &Circuit::new(5),
                &CouplingGraph::line(3),
                &trivial_layout(5),
                &cfg
            ),
            Err(SabreError::TooManyQubits { .. })
        ));
        assert!(matches!(
            route(&c, &g, &[0, 0, 1, 2], &cfg),
            Err(SabreError::InvalidLayout { .. })
        ));
    }

    /// The router's internal O(Δ) score against the from-scratch oracle
    /// on random round states, including front pairs that share slots.
    #[test]
    fn reference_swap_score_matches_internal_swap_score() {
        use rand::{RngExt, SeedableRng};
        let g = CouplingGraph::complete_multipartite(&[3, 3, 2]);
        let n = 8usize;
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let mut round = Round::new(&g);
        for _ in 0..200 {
            let mut layout = Layout::new(&trivial_layout(n), n);
            // Shuffle via random swaps.
            for _ in 0..6 {
                let a = rng.random_range(0..n as u32);
                let b = rng.random_range(0..n as u32);
                if a != b {
                    layout.apply_swap(a, b);
                }
            }
            let mk_pair = |rng: &mut rand::rngs::StdRng| {
                let a = rng.random_range(0..n as u32);
                let mut b = rng.random_range(0..n as u32);
                while b == a {
                    b = rng.random_range(0..n as u32);
                }
                (a, b)
            };
            round.front_pairs = (0..rng.random_range(1..4))
                .map(|_| mk_pair(&mut rng))
                .collect();
            round.ext_pairs = (0..rng.random_range(0..5))
                .map(|_| {
                    let (a, b) = mk_pair(&mut rng);
                    (Qubit(a), Qubit(b))
                })
                .collect();
            round.index(&layout);
            let decay: Vec<f64> = (0..n)
                .map(|_| 1.0 + rng.random_range(0..5) as f64 * 0.001)
                .collect();
            let cfg = SabreConfig::default();
            let cand = mk_pair(&mut rng);
            let cand = if cand.0 < cand.1 {
                cand
            } else {
                (cand.1, cand.0)
            };
            let internal = round.score(cand, &decay, cfg.extended_set_weight);
            let reference = reference_swap_score(
                cand,
                &g,
                &round.front_pairs,
                &round.ext_pairs,
                &layout.log_to_phys,
                &decay,
                &cfg,
            );
            assert_eq!(internal.to_bits(), reference.to_bits());
        }
    }

    #[test]
    fn final_layout_tracks_swaps() {
        let mut c = Circuit::new(3);
        c.push(Gate::cz(Qubit(0), Qubit(2)));
        let g = CouplingGraph::line(3);
        let r = route(&c, &g, &trivial_layout(3), &SabreConfig::default()).unwrap();
        // After routing, logical 0 and 2 must be adjacent; the layout must
        // be a permutation.
        let mut seen = [false; 3];
        for &p in &r.final_layout {
            assert!(!seen[p as usize]);
            seen[p as usize] = true;
        }
        verify_routing(&c, &r, &g).unwrap();
    }
}
