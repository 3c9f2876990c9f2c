//! Solver-based RAA compilers: Tan-Solver and Tan-IterP (paper Fig. 14).
//!
//! OLSQ-DPQA (Tan et al.) compiles reconfigurable-array circuits with an
//! SMT solver (optimal, exponential time) or with an "iterative peeling"
//! relaxation (greedy). Both freely re-grab atoms between the SLM and the
//! AOD, which Atomique's paper criticizes for its transfer-induced atom
//! loss.
//!
//! Substitution (`EXPERIMENTS.md` "Deviations log"): instead of Z3 we
//! run an exhaustive branch-and-bound over stage schedules with the same
//! objective (minimum stage count) and a wall-clock timeout — reproducing
//! both relevant behaviours: near-optimal schedules on small circuits and
//! exponential compile-time blow-up (the paper's 1000× speed-up claim).
//!
//! A *stage* executes any set of qubit-disjoint frontier gates (DPQA can
//! realize such sets by re-grabbing atoms); each gate whose movable atom
//! was not already in an AOD trap costs a pick-up transfer, and every
//! trapped atom is eventually dropped back (one more transfer).

use std::collections::HashSet;
use std::time::{Duration, Instant};

use raa_circuit::{Circuit, DagSchedule, GateIdx, Layering};
use raa_physics::{
    gate_phase_fidelity, transfer_fidelity, FidelityBreakdown, GatePhaseStats, HardwareParams,
    MovementLedger,
};

/// Result of a solver-based compilation.
#[derive(Debug, Clone)]
pub struct TanResult {
    /// Number of movement/gate stages.
    pub stages: usize,
    /// Two-qubit gates executed.
    pub two_qubit_gates: usize,
    /// One-qubit gates executed.
    pub one_qubit_gates: usize,
    /// SLM↔AOD transfers performed.
    pub transfers: usize,
    /// Fidelity estimate (includes transfer loss).
    pub fidelity: FidelityBreakdown,
    /// Wall-clock compile time, seconds.
    pub compile_time_s: f64,
    /// Whether the solver hit its timeout (greedy fallback reported).
    pub timed_out: bool,
    /// The stage schedule: per stage, the executed two-qubit gate
    /// indices of the input circuit. Consumed by the ISA lowering
    /// ([`crate::lower_tan`]).
    pub schedule: Vec<Vec<GateIdx>>,
}

impl TanResult {
    /// Total estimated fidelity.
    pub fn total_fidelity(&self) -> f64 {
        self.fidelity.total()
    }
}

/// The greedy iterative-peeling compiler (Tan-IterP).
pub fn tan_iterp(circuit: &Circuit, params: &HardwareParams) -> TanResult {
    let start = Instant::now();
    let schedule = greedy_schedule(circuit);
    let mut r = evaluate(circuit, &schedule, params);
    r.compile_time_s = start.elapsed().as_secs_f64();
    r
}

/// The exhaustive optimal compiler (Tan-Solver) with a wall-clock timeout.
///
/// Searches branch-and-bound for the minimum-stage schedule; on timeout
/// the best schedule found so far is evaluated and `timed_out` is set.
pub fn tan_solver(circuit: &Circuit, params: &HardwareParams, timeout: Duration) -> TanResult {
    let start = Instant::now();
    let deadline = start + timeout;
    let greedy = greedy_schedule(circuit);
    let mut best = greedy.clone();
    let mut timed_out = false;

    let twoq: Vec<(GateIdx, u32, u32)> = two_qubit_skeleton(circuit);
    if !twoq.is_empty() {
        // OLSQ-style iterative deepening: for increasing stage budgets K,
        // exhaustively decide whether a K-stage schedule exists. Proving
        // unsatisfiability of K−1 before accepting K is what makes real
        // SMT-based compilation exponential; the same happens here.
        let root = DagSchedule::new(circuit);
        let mut searcher = Searcher {
            circuit,
            twoq: &twoq,
            budget: 0,
            found: None,
            deadline,
            timed_out: &mut timed_out,
            nodes: 0,
        };
        let lb = searcher.lower_bound(&root);
        for k in lb..=greedy.len() {
            searcher.budget = k;
            searcher.found = None;
            searcher.dfs(root.clone(), Vec::new());
            if *searcher.timed_out {
                break;
            }
            if let Some(schedule) = searcher.found.take() {
                best = schedule;
                break;
            }
        }
        // Second solver phase (as in OLSQ-DPQA): among all minimum-stage
        // schedules, exhaustively minimize the transfer count. This is the
        // genuinely exponential part for non-trivial circuits.
        if !timed_out {
            let mut refiner = Refiner {
                circuit,
                budget: best.len(),
                best_transfers: count_transfers(circuit, &best),
                best: &mut best,
                deadline,
                timed_out: &mut timed_out,
                nodes: 0,
            };
            refiner.dfs(root, Vec::new());
        }
    }

    let mut r = evaluate(circuit, &best, params);
    r.compile_time_s = start.elapsed().as_secs_f64();
    r.timed_out = timed_out;
    r
}

/// A schedule: per stage, the executed two-qubit gate indices.
type Schedule = Vec<Vec<GateIdx>>;

fn two_qubit_skeleton(circuit: &Circuit) -> Vec<(GateIdx, u32, u32)> {
    circuit
        .gates()
        .iter()
        .enumerate()
        .filter_map(|(i, g)| g.pair().map(|(a, b)| (i, a.0, b.0)))
        .collect()
}

/// DPQA grid side used to place qubits for the movement-compatibility
/// check (Tan et al. use 16×16 arrays).
const TAN_GRID: i32 = 16;

/// Static grid position of a qubit in the DPQA layout.
fn tan_pos(q: u32) -> (i32, i32) {
    (q as i32 % TAN_GRID, q as i32 / TAN_GRID)
}

/// The mover/target geometry of a gate: the higher-indexed qubit rides the
/// AOD toward its partner.
fn gate_geometry(circuit: &Circuit, g: GateIdx) -> ((i32, i32), (i32, i32)) {
    let (a, b) = circuit.gates()[g].pair().expect("2Q gate");
    let mover = a.0.max(b.0);
    let anchor = a.0.min(b.0);
    (tan_pos(mover), tan_pos(anchor))
}

/// Whether two gates can share a DPQA stage: their movers' source and
/// target coordinates must not cross in either axis (the AOD row/column
/// order-preservation constraint of the DPQA formulation).
fn stage_compatible(circuit: &Circuit, g1: GateIdx, g2: GateIdx) -> bool {
    let (s1, t1) = gate_geometry(circuit, g1);
    let (s2, t2) = gate_geometry(circuit, g2);
    // Per axis: the relative order of the two movers must be the same
    // before and after the move (equal stays equal, less stays less).
    let ok = |s_a: i32, s_b: i32, t_a: i32, t_b: i32| (s_a - s_b).signum() == (t_a - t_b).signum();
    ok(s1.0, s2.0, t1.0, t2.0) && ok(s1.1, s2.1, t1.1, t2.1)
}

/// Greedy maximal frontier peeling under qubit-disjointness and the
/// movement-compatibility constraint (Tan-IterP).
fn greedy_schedule(circuit: &Circuit) -> Schedule {
    let mut sched = DagSchedule::new(circuit);
    let mut out = Vec::new();
    while !sched.is_done() {
        // Drain one-qubit gates (they do not occupy stages).
        drain_one_qubit(circuit, &mut sched);
        if sched.is_done() {
            break;
        }
        let mut used: HashSet<u32> = HashSet::new();
        let mut stage: Vec<GateIdx> = Vec::new();
        for g in sched.front().to_vec() {
            let (a, b) = circuit.gates()[g].pair().expect("front is 2Q after drain");
            if !used.contains(&a.0)
                && !used.contains(&b.0)
                && stage.iter().all(|&h| stage_compatible(circuit, g, h))
            {
                used.insert(a.0);
                used.insert(b.0);
                stage.push(g);
            }
        }
        sched.execute_all(&stage);
        out.push(stage);
    }
    out
}

fn drain_one_qubit(circuit: &Circuit, sched: &mut DagSchedule) {
    loop {
        let ones: Vec<GateIdx> = sched
            .front()
            .iter()
            .copied()
            .filter(|&g| circuit.gates()[g].is_one_qubit())
            .collect();
        if ones.is_empty() {
            return;
        }
        sched.execute_all(&ones);
    }
}

struct Searcher<'a> {
    circuit: &'a Circuit,
    twoq: &'a [(GateIdx, u32, u32)],
    /// Current stage budget K of the iterative-deepening pass.
    budget: usize,
    /// A schedule within budget, if one was found.
    found: Option<Schedule>,
    deadline: Instant,
    timed_out: &'a mut bool,
    nodes: usize,
}

impl Searcher<'_> {
    /// Lower bound on remaining stages: the busiest qubit's remaining gate
    /// count (one gate per qubit per stage).
    fn lower_bound(&self, sched: &DagSchedule) -> usize {
        let mut per_qubit = std::collections::HashMap::new();
        for &(g, a, b) in self.twoq {
            if !sched.is_executed(g) {
                *per_qubit.entry(a).or_insert(0usize) += 1;
                *per_qubit.entry(b).or_insert(0usize) += 1;
            }
        }
        per_qubit.values().copied().max().unwrap_or(0)
    }

    fn dfs(&mut self, mut sched: DagSchedule, stages: Schedule) {
        if self.found.is_some() || *self.timed_out {
            return;
        }
        self.nodes += 1;
        if self.nodes.is_multiple_of(256) && Instant::now() >= self.deadline {
            *self.timed_out = true;
            return;
        }
        drain_one_qubit(self.circuit, &mut sched);
        if sched.is_done() {
            self.found = Some(stages);
            return;
        }
        // Infeasible within the budget K?
        if stages.len() + self.lower_bound(&sched) > self.budget {
            return;
        }
        // Enumerate maximal qubit-disjoint subsets of the frontier (capped).
        let front: Vec<GateIdx> = sched
            .front()
            .iter()
            .copied()
            .filter(|&g| self.circuit.gates()[g].is_two_qubit())
            .collect();
        let subsets = maximal_disjoint_subsets(self.circuit, &front, 24);
        for subset in subsets {
            if self.found.is_some() || *self.timed_out {
                return;
            }
            let mut next = sched.clone();
            next.execute_all(&subset);
            let mut st = stages.clone();
            st.push(subset);
            self.dfs(next, st);
        }
    }
}

/// Phase-2 searcher: exhaustively enumerates minimum-stage schedules and
/// keeps the one with the fewest transfers.
struct Refiner<'a> {
    circuit: &'a Circuit,
    budget: usize,
    best_transfers: usize,
    best: &'a mut Schedule,
    deadline: Instant,
    timed_out: &'a mut bool,
    nodes: usize,
}

impl Refiner<'_> {
    fn dfs(&mut self, mut sched: DagSchedule, stages: Schedule) {
        if *self.timed_out {
            return;
        }
        self.nodes += 1;
        if self.nodes.is_multiple_of(256) && Instant::now() >= self.deadline {
            *self.timed_out = true;
            return;
        }
        drain_one_qubit(self.circuit, &mut sched);
        if sched.is_done() {
            let t = count_transfers(self.circuit, &stages);
            if t < self.best_transfers {
                self.best_transfers = t;
                *self.best = stages;
            }
            return;
        }
        if stages.len() >= self.budget {
            return;
        }
        let front: Vec<GateIdx> = sched
            .front()
            .iter()
            .copied()
            .filter(|&g| self.circuit.gates()[g].is_two_qubit())
            .collect();
        for subset in maximal_disjoint_subsets(self.circuit, &front, 24) {
            if *self.timed_out {
                return;
            }
            let mut next = sched.clone();
            next.execute_all(&subset);
            let mut st = stages.clone();
            st.push(subset);
            self.dfs(next, st);
        }
    }
}

/// Transfer count of a schedule under the pick-up/drop model of
/// [`evaluate`].
fn count_transfers(circuit: &Circuit, schedule: &Schedule) -> usize {
    let mut in_aod: HashSet<u32> = HashSet::new();
    let mut transfers = 0usize;
    for stage in schedule {
        for &g in stage {
            let (a, b) = circuit.gates()[g].pair().expect("2Q");
            if !in_aod.contains(&a.0) && !in_aod.contains(&b.0) {
                transfers += 1;
                in_aod.insert(a.0);
            }
        }
    }
    transfers + in_aod.len()
}

/// Enumerates maximal stage-compatible subsets of `front`, at most `cap`.
fn maximal_disjoint_subsets(circuit: &Circuit, front: &[GateIdx], cap: usize) -> Vec<Vec<GateIdx>> {
    let mut out = Vec::new();
    let mut chosen = Vec::new();
    let mut used = HashSet::new();
    enumerate(circuit, front, 0, &mut chosen, &mut used, &mut out, cap);
    if out.is_empty() && !front.is_empty() {
        // Degenerate safety: a single gate is always a valid stage.
        out.push(vec![front[0]]);
    }
    out
}

fn enumerate(
    circuit: &Circuit,
    front: &[GateIdx],
    i: usize,
    chosen: &mut Vec<GateIdx>,
    used: &mut HashSet<u32>,
    out: &mut Vec<Vec<GateIdx>>,
    cap: usize,
) {
    if out.len() >= cap {
        return;
    }
    if i == front.len() {
        if !chosen.is_empty() {
            out.push(chosen.clone());
        }
        return;
    }
    let g = front[i];
    let (a, b) = circuit.gates()[g].pair().expect("2Q front");
    let fits = !used.contains(&a.0)
        && !used.contains(&b.0)
        && chosen.iter().all(|&h| stage_compatible(circuit, g, h));
    if fits {
        chosen.push(g);
        used.insert(a.0);
        used.insert(b.0);
        enumerate(circuit, front, i + 1, chosen, used, out, cap);
        chosen.pop();
        used.remove(&a.0);
        used.remove(&b.0);
        // Excluding a fitting gate is only useful if it conflicts with a
        // later front gate (qubit overlap or movement incompatibility).
        let conflicts_later = front[i + 1..]
            .iter()
            .any(|&h| !stage_compatible(circuit, g, h));
        if conflicts_later {
            enumerate(circuit, front, i + 1, chosen, used, out, cap);
        }
    } else {
        enumerate(circuit, front, i + 1, chosen, used, out, cap);
    }
}

/// Evaluates a schedule with the paper's fidelity model, including the
/// transfer accounting the Tan compilers incur.
fn evaluate(circuit: &Circuit, schedule: &Schedule, params: &HardwareParams) -> TanResult {
    let two_q: usize = schedule.iter().map(|s| s.len()).sum();
    let one_q = circuit.one_qubit_count();

    // Transfer accounting: each gate's movable atom must be in an AOD
    // trap; picking up costs one transfer, and every picked-up atom is
    // dropped at the end (one more). The atom with more future gates
    // stays trapped across stages.
    let mut in_aod: HashSet<u32> = HashSet::new();
    let mut transfers = 0usize;
    let mut ledger = MovementLedger::new(params);
    let hop = params.atom_distance_um * 1e-6;
    for stage in schedule {
        let mut moved: Vec<(u32, f64)> = Vec::new();
        for &g in stage {
            let (a, b) = circuit.gates()[g].pair().expect("schedule holds 2Q gates");
            let mover = if in_aod.contains(&a.0) {
                a.0
            } else if in_aod.contains(&b.0) {
                b.0
            } else {
                transfers += 1; // pick-up
                in_aod.insert(a.0);
                a.0
            };
            moved.push((mover, hop));
        }
        ledger.record_move(&moved, params.t_move_s, circuit.num_qubits());
        for &(mover, _) in &moved {
            ledger.record_two_qubit_gate(&[mover]);
        }
        // Cooling, as for any atom-array machine.
        let hot: Vec<u32> = in_aod.iter().copied().collect();
        if ledger.needs_cooling(hot.iter().copied()) {
            ledger.cool_array(&hot);
        }
    }
    transfers += in_aod.len(); // final drops

    let one_q_layers = {
        let l = Layering::new(circuit);
        (l.depth() as usize).saturating_sub(l.two_qubit_depth() as usize)
    };
    let phase = GatePhaseStats {
        num_qubits: circuit.num_qubits(),
        one_qubit_gates: one_q,
        two_qubit_gates: two_q,
        one_qubit_time_s: one_q_layers as f64 * params.one_qubit_time_s,
        two_qubit_time_s: schedule.len() as f64 * params.two_qubit_time_s,
    };
    let (f1, f2) = gate_phase_fidelity(params, &phase);
    let transfer = transfer_fidelity(
        params,
        transfers,
        transfers as f64 * params.t_transfer_s,
        circuit.num_qubits(),
    );
    let fidelity = FidelityBreakdown {
        one_qubit: f1,
        two_qubit: f2,
        transfer,
        move_heating: ledger.f_heating(),
        move_cooling: ledger.f_cooling(),
        move_loss: ledger.f_loss(),
        move_decoherence: ledger.f_decoherence(),
    };
    TanResult {
        stages: schedule.len(),
        two_qubit_gates: two_q,
        one_qubit_gates: one_q,
        transfers,
        fidelity,
        compile_time_s: 0.0,
        timed_out: false,
        schedule: schedule.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raa_circuit::{Gate, Qubit};

    fn params() -> HardwareParams {
        HardwareParams::neutral_atom()
    }

    fn chain(n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        for i in 0..n - 1 {
            c.push(Gate::cz(Qubit(i as u32), Qubit(i as u32 + 1)));
        }
        c
    }

    #[test]
    fn iterp_parallelizes_disjoint_gates() {
        let mut c = Circuit::new(6);
        c.push(Gate::cz(Qubit(0), Qubit(1)));
        c.push(Gate::cz(Qubit(2), Qubit(3)));
        c.push(Gate::cz(Qubit(4), Qubit(5)));
        let r = tan_iterp(&c, &params());
        assert_eq!(r.stages, 1);
        assert_eq!(r.two_qubit_gates, 3);
        assert!(r.transfers >= 3);
    }

    #[test]
    fn solver_matches_or_beats_greedy() {
        // Interleaved chain: greedy peeling can be suboptimal; the solver
        // must never be worse.
        let c = chain(8);
        let g = tan_iterp(&c, &params());
        let s = tan_solver(&c, &params(), Duration::from_secs(5));
        assert!(
            s.stages <= g.stages,
            "solver {} > greedy {}",
            s.stages,
            g.stages
        );
        assert!(!s.timed_out);
        assert_eq!(s.two_qubit_gates, g.two_qubit_gates);
    }

    #[test]
    fn solver_is_slower_than_greedy() {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(2);
        let mut c = Circuit::new(10);
        for _ in 0..30 {
            let a = rng.random_range(0..10u32);
            let mut b = rng.random_range(0..10u32);
            while b == a {
                b = rng.random_range(0..10u32);
            }
            c.push(Gate::cz(Qubit(a), Qubit(b)));
        }
        let g = tan_iterp(&c, &params());
        let s = tan_solver(&c, &params(), Duration::from_millis(500));
        assert!(s.compile_time_s >= g.compile_time_s);
    }

    #[test]
    fn solver_timeout_reports_flag() {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        let mut c = Circuit::new(20);
        for _ in 0..120 {
            let a = rng.random_range(0..20u32);
            let mut b = rng.random_range(0..20u32);
            while b == a {
                b = rng.random_range(0..20u32);
            }
            c.push(Gate::cz(Qubit(a), Qubit(b)));
        }
        let s = tan_solver(&c, &params(), Duration::from_millis(50));
        assert!(s.timed_out);
        // Still returns a valid (greedy-or-better) schedule.
        assert_eq!(s.two_qubit_gates, 120);
    }

    #[test]
    fn transfers_drive_fidelity_below_gate_only() {
        let c = chain(10);
        let r = tan_iterp(&c, &params());
        assert!(r.transfers > 0);
        assert!(r.fidelity.transfer < 1.0);
        let f = r.total_fidelity();
        assert!(f > 0.0 && f < 1.0);
    }

    #[test]
    fn one_qubit_gates_pass_through() {
        let mut c = Circuit::new(3);
        c.push(Gate::h(Qubit(0)));
        c.push(Gate::cz(Qubit(0), Qubit(1)));
        c.push(Gate::h(Qubit(2)));
        let r = tan_iterp(&c, &params());
        assert_eq!(r.one_qubit_gates, 2);
        assert_eq!(r.stages, 1);
    }

    #[test]
    fn empty_circuit() {
        let c = Circuit::new(4);
        let r = tan_solver(&c, &params(), Duration::from_secs(1));
        assert_eq!(r.stages, 0);
        assert!((r.total_fidelity() - 1.0).abs() < 1e-12);
    }
}
