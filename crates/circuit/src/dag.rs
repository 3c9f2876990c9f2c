//! Dependency-DAG view of a circuit: front layers, ASAP leveling, depth.
//!
//! The Atomique router (paper Sec. III-C) repeatedly takes the *front layer*
//! — the set of gates whose predecessors have all executed — schedules a
//! legal subset, and advances. [`DagSchedule`] provides exactly that
//! interface; [`Layering`] provides the static ASAP leveling used for the
//! γ-decay weights of the qubit-array mapper (Alg. 1) and for depth metrics.

use crate::circuit::Circuit;

/// Index of a gate within its circuit.
pub type GateIdx = usize;

/// Static dependency structure of a circuit.
///
/// Gate *g* depends on gate *h* iff they share a qubit and *h* precedes *g*
/// in program order with no intervening gate on that qubit (the standard
/// circuit-DAG definition).
#[derive(Debug, Clone)]
pub struct CircuitDag {
    preds: Vec<Vec<GateIdx>>,
    succs: Vec<Vec<GateIdx>>,
    num_gates: usize,
}

impl CircuitDag {
    /// Builds the DAG for `circuit` in O(gates).
    pub fn new(circuit: &Circuit) -> Self {
        let n = circuit.len();
        let mut preds: Vec<Vec<GateIdx>> = vec![Vec::new(); n];
        let mut succs: Vec<Vec<GateIdx>> = vec![Vec::new(); n];
        let mut last_on_qubit: Vec<Option<GateIdx>> = vec![None; circuit.num_qubits()];
        for (i, g) in circuit.gates().iter().enumerate() {
            for q in g.qubits() {
                if let Some(p) = last_on_qubit[q.index()] {
                    // Avoid duplicate edges when both operands were last
                    // touched by the same predecessor.
                    if !preds[i].contains(&p) {
                        preds[i].push(p);
                        succs[p].push(i);
                    }
                }
                last_on_qubit[q.index()] = Some(i);
            }
        }
        CircuitDag {
            preds,
            succs,
            num_gates: n,
        }
    }

    /// The predecessor gates of `g`.
    pub fn preds(&self, g: GateIdx) -> &[GateIdx] {
        &self.preds[g]
    }

    /// The successor gates of `g`.
    pub fn succs(&self, g: GateIdx) -> &[GateIdx] {
        &self.succs[g]
    }

    /// Number of gates (DAG nodes).
    pub fn len(&self) -> usize {
        self.num_gates
    }

    /// Whether the DAG has no nodes.
    pub fn is_empty(&self) -> bool {
        self.num_gates == 0
    }
}

/// Mutable scheduling state over a [`CircuitDag`]: tracks which gates have
/// executed and exposes the current front layer.
///
/// # Examples
///
/// ```
/// use raa_circuit::{Circuit, Gate, Qubit, DagSchedule};
/// let mut c = Circuit::new(3);
/// c.push(Gate::cz(Qubit(0), Qubit(1)));
/// c.push(Gate::cz(Qubit(1), Qubit(2)));
/// let mut s = DagSchedule::new(&c);
/// assert_eq!(s.front().to_vec(), vec![0]);
/// s.execute(0);
/// assert_eq!(s.front().to_vec(), vec![1]);
/// s.execute(1);
/// assert!(s.is_done());
/// ```
#[derive(Debug, Clone)]
pub struct DagSchedule {
    dag: CircuitDag,
    remaining_preds: Vec<u32>,
    executed: Vec<bool>,
    front: Vec<GateIdx>,
    num_done: usize,
}

impl DagSchedule {
    /// Initializes the schedule with every zero-predecessor gate in front.
    pub fn new(circuit: &Circuit) -> Self {
        let dag = CircuitDag::new(circuit);
        Self::from_dag(dag)
    }

    /// Initializes from a prebuilt DAG.
    pub fn from_dag(dag: CircuitDag) -> Self {
        let n = dag.len();
        let remaining_preds: Vec<u32> = (0..n).map(|i| dag.preds(i).len() as u32).collect();
        let front: Vec<GateIdx> = (0..n).filter(|&i| remaining_preds[i] == 0).collect();
        DagSchedule {
            dag,
            remaining_preds,
            executed: vec![false; n],
            front,
            num_done: 0,
        }
    }

    /// The gates currently executable (all predecessors done), in ascending
    /// gate-index order.
    pub fn front(&self) -> &[GateIdx] {
        &self.front
    }

    /// Marks `g` executed and promotes newly-freed successors to the front.
    ///
    /// # Panics
    ///
    /// Panics if `g` is not currently in the front layer (predecessors
    /// outstanding or already executed).
    pub fn execute(&mut self, g: GateIdx) {
        assert!(
            !self.executed[g] && self.remaining_preds[g] == 0,
            "gate {g} is not executable"
        );
        self.executed[g] = true;
        self.num_done += 1;
        let pos = self
            .front
            .iter()
            .position(|&x| x == g)
            .expect("executable gate must be in front");
        self.front.swap_remove(pos);
        for s in 0..self.dag.succs(g).len() {
            let succ = self.dag.succs(g)[s];
            self.remaining_preds[succ] -= 1;
            if self.remaining_preds[succ] == 0 {
                self.front.push(succ);
            }
        }
        self.front.sort_unstable();
    }

    /// Executes every gate in `gates` (each must be in the front layer).
    pub fn execute_all(&mut self, gates: &[GateIdx]) {
        for &g in gates {
            self.execute(g);
        }
    }

    /// Whether every gate has executed.
    pub fn is_done(&self) -> bool {
        self.num_done == self.dag.len()
    }

    /// Number of gates executed so far.
    pub fn num_done(&self) -> usize {
        self.num_done
    }

    /// Whether gate `g` has been executed.
    pub fn is_executed(&self, g: GateIdx) -> bool {
        self.executed[g]
    }

    /// The underlying DAG.
    pub fn dag(&self) -> &CircuitDag {
        &self.dag
    }
}

/// ASAP layer assignment of a circuit.
///
/// Two layer notions are provided:
/// * [`Layering::layer`] — conventional depth where every gate counts;
/// * [`Layering::two_qubit_layer`] — the paper's depth metric, counting
///   only two-qubit gates ("number of parallel two-qubit layers").
#[derive(Debug, Clone)]
pub struct Layering {
    layer: Vec<u32>,
    layer_2q: Vec<u32>,
    depth: u32,
    depth_2q: u32,
}

impl Layering {
    /// Computes ASAP layers for `circuit`.
    pub fn new(circuit: &Circuit) -> Self {
        let dag = CircuitDag::new(circuit);
        let n = dag.len();
        let mut layer = vec![0u32; n];
        let mut layer_2q = vec![0u32; n];
        let mut depth = 0;
        let mut depth_2q = 0;
        for g in 0..n {
            let mut l = 0;
            let mut l2 = 0;
            for &p in dag.preds(g) {
                l = l.max(layer[p] + 1);
                l2 = l2.max(layer_2q[p]);
            }
            let is2q = circuit.gates()[g].is_two_qubit();
            if is2q {
                l2 += 1;
            }
            layer[g] = l;
            layer_2q[g] = l2;
            depth = depth.max(l + 1);
            depth_2q = depth_2q.max(l2);
        }
        Layering {
            layer,
            layer_2q,
            depth,
            depth_2q,
        }
    }

    /// The ASAP layer of gate `g` (0-based).
    pub fn layer(&self, g: GateIdx) -> u32 {
        self.layer[g]
    }

    /// The two-qubit layer of gate `g`: how many two-qubit gates lie on the
    /// longest dependency path ending at (and including, if 2Q) `g`.
    pub fn two_qubit_layer(&self, g: GateIdx) -> u32 {
        self.layer_2q[g]
    }

    /// Conventional circuit depth (all gates).
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// The paper's depth metric: number of parallel two-qubit layers.
    pub fn two_qubit_depth(&self) -> u32 {
        self.depth_2q
    }
}

/// Convenience: the two-qubit depth of a circuit.
pub fn two_qubit_depth(circuit: &Circuit) -> u32 {
    Layering::new(circuit).two_qubit_depth()
}

/// Convenience: the all-gate depth of a circuit.
pub fn depth(circuit: &Circuit) -> u32 {
    Layering::new(circuit).depth()
}

/// Groups gate indices into ASAP layers (all gates).
pub fn layers(circuit: &Circuit) -> Vec<Vec<GateIdx>> {
    let l = Layering::new(circuit);
    let mut out: Vec<Vec<GateIdx>> = vec![Vec::new(); l.depth() as usize];
    for g in 0..circuit.len() {
        out[l.layer(g) as usize].push(g);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{Gate, Qubit};

    fn chain(n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        for i in 0..n - 1 {
            c.push(Gate::cz(Qubit(i as u32), Qubit(i as u32 + 1)));
        }
        c
    }

    #[test]
    fn dag_structure_of_chain() {
        let c = chain(4);
        let dag = CircuitDag::new(&c);
        assert_eq!(dag.len(), 3);
        assert!(dag.preds(0).is_empty());
        assert_eq!(dag.preds(1), &[0]);
        assert_eq!(dag.preds(2), &[1]);
        assert_eq!(dag.succs(0), &[1]);
    }

    #[test]
    fn dag_no_duplicate_edges() {
        // Two gates on the same pair: second depends once on first, not twice.
        let mut c = Circuit::new(2);
        c.push(Gate::cz(Qubit(0), Qubit(1)));
        c.push(Gate::cz(Qubit(0), Qubit(1)));
        let dag = CircuitDag::new(&c);
        assert_eq!(dag.preds(1), &[0]);
        assert_eq!(dag.succs(0), &[1]);
    }

    #[test]
    fn schedule_chain_runs_sequentially() {
        let c = chain(4);
        let mut s = DagSchedule::new(&c);
        assert_eq!(s.front(), &[0]);
        s.execute(0);
        assert_eq!(s.front(), &[1]);
        s.execute(1);
        s.execute(2);
        assert!(s.is_done());
        assert_eq!(s.num_done(), 3);
    }

    #[test]
    fn schedule_parallel_gates_all_in_front() {
        let mut c = Circuit::new(4);
        c.push(Gate::cz(Qubit(0), Qubit(1)));
        c.push(Gate::cz(Qubit(2), Qubit(3)));
        let s = DagSchedule::new(&c);
        assert_eq!(s.front(), &[0, 1]);
    }

    #[test]
    #[should_panic(expected = "not executable")]
    fn schedule_rejects_blocked_gate() {
        let c = chain(3);
        let mut s = DagSchedule::new(&c);
        s.execute(1);
    }

    #[test]
    fn layering_depths() {
        let c = chain(4); // 3 sequential CZs
        let l = Layering::new(&c);
        assert_eq!(l.depth(), 3);
        assert_eq!(l.two_qubit_depth(), 3);

        let mut p = Circuit::new(4);
        p.push(Gate::cz(Qubit(0), Qubit(1)));
        p.push(Gate::cz(Qubit(2), Qubit(3)));
        assert_eq!(two_qubit_depth(&p), 1);
        assert_eq!(depth(&p), 1);
    }

    #[test]
    fn one_qubit_gates_do_not_count_toward_2q_depth() {
        let mut c = Circuit::new(2);
        c.push(Gate::h(Qubit(0)));
        c.push(Gate::cz(Qubit(0), Qubit(1)));
        c.push(Gate::h(Qubit(1)));
        c.push(Gate::cz(Qubit(0), Qubit(1)));
        let l = Layering::new(&c);
        assert_eq!(l.two_qubit_depth(), 2);
        assert_eq!(l.depth(), 4);
    }

    #[test]
    fn layers_partition_all_gates() {
        let c = chain(5);
        let ls = layers(&c);
        let total: usize = ls.iter().map(|l| l.len()).sum();
        assert_eq!(total, c.len());
        assert_eq!(ls.len(), depth(&c) as usize);
    }

    #[test]
    fn empty_circuit() {
        let c = Circuit::new(3);
        assert_eq!(depth(&c), 0);
        assert_eq!(two_qubit_depth(&c), 0);
        assert!(DagSchedule::new(&c).is_done());
        assert!(CircuitDag::new(&c).is_empty());
    }
}
