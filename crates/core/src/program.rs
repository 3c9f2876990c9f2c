//! Compiled-program representation: the movement/gate schedule the router
//! emits, plus aggregate statistics and the fidelity estimate.

use raa_circuit::Gate;
use raa_physics::FidelityBreakdown;

use crate::atom_mapper::AtomMapping;

/// What one stage of the schedule does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageKind {
    /// A layer of simultaneous one-qubit (Raman) gates.
    OneQubit,
    /// AOD movement followed by a global Rydberg pulse.
    Movement,
    /// Reset fallback: AOD arrays park / return home, no gates.
    Reset,
    /// A gate executed by re-grabbing an atom (two SLM↔AOD transfers).
    TransferAssisted,
    /// An AOD array is swapped with a pre-cooled spare.
    Cooling,
}

/// One row/column movement within a stage. For unpark events the line is
/// `u16::MAX` and the track coordinates are NaN.
#[derive(Debug, Clone, Copy)]
pub struct LineMove {
    /// Which AOD (0-based).
    pub aod: u8,
    /// `true` for a row (y) move, `false` for a column (x) move.
    pub axis_row: bool,
    /// Row/column index within the AOD.
    pub line: u16,
    /// Position before the move, in track units.
    pub from_track: f64,
    /// Position after the move, in track units.
    pub to_track: f64,
}

/// One step of the compiled schedule.
#[derive(Debug, Clone)]
pub struct Stage {
    /// The stage kind.
    pub kind: StageKind,
    /// Row/column moves performed before the Rydberg pulse (empty for
    /// one-qubit layers).
    pub moves: Vec<LineMove>,
    /// Retraction moves after the pulse: gate atoms step back out of the
    /// Rydberg radius so the next pulse does not re-execute the pair.
    pub retract_moves: Vec<LineMove>,
    /// Two-qubit gates executed, as slot pairs.
    pub gate_pairs: Vec<(u32, u32)>,
    /// One-qubit gates executed (only for [`StageKind::OneQubit`]).
    pub one_qubit_gates: Vec<Gate>,
    /// The cooled AOD (only for [`StageKind::Cooling`]).
    pub cooled_aod: Option<u8>,
    /// For [`StageKind::Reset`]: the AODs kept in the field (all others
    /// park).
    pub kept_aods: Vec<u8>,
}

impl Stage {
    fn empty(kind: StageKind) -> Self {
        Stage {
            kind,
            moves: Vec::new(),
            retract_moves: Vec::new(),
            gate_pairs: Vec::new(),
            one_qubit_gates: Vec::new(),
            cooled_aod: None,
            kept_aods: Vec::new(),
        }
    }

    /// A one-qubit layer.
    pub fn one_qubit(gates: Vec<Gate>) -> Self {
        Stage {
            one_qubit_gates: gates,
            ..Stage::empty(StageKind::OneQubit)
        }
    }

    /// A movement stage executing `gate_pairs` after `moves`, with the
    /// post-pulse `retract_moves`.
    pub fn movement(
        moves: Vec<LineMove>,
        retract_moves: Vec<LineMove>,
        gate_pairs: Vec<(u32, u32)>,
    ) -> Self {
        Stage {
            moves,
            retract_moves,
            gate_pairs,
            ..Stage::empty(StageKind::Movement)
        }
    }

    /// A reset (re-homing/parking) stage keeping `kept_aods` in the field.
    pub fn reset(kept_aods: Vec<u8>) -> Self {
        Stage {
            kept_aods,
            ..Stage::empty(StageKind::Reset)
        }
    }

    /// A transfer-assisted gate between two slots.
    pub fn transfer_assisted(a: u32, b: u32) -> Self {
        Stage {
            gate_pairs: vec![(a, b)],
            ..Stage::empty(StageKind::TransferAssisted)
        }
    }

    /// A cooling stage for AOD `k`.
    pub fn cooling(k: u8) -> Self {
        Stage {
            cooled_aod: Some(k),
            ..Stage::empty(StageKind::Cooling)
        }
    }
}

/// Aggregate counters produced by the movement router.
#[derive(Debug, Clone, PartialEq)]
pub struct RouterStats {
    /// One-qubit gates executed.
    pub one_qubit_gates: usize,
    /// Two-qubit (CZ) gates executed, including SWAP decompositions.
    pub two_qubit_gates: usize,
    /// Number of parallel one-qubit layers.
    pub one_qubit_layers: usize,
    /// Number of stages that executed ≥ 1 two-qubit gate — the paper's
    /// depth metric for RAA.
    pub two_qubit_stages: usize,
    /// Estimated wall-clock execution time, seconds.
    pub execution_time_s: f64,
    /// Total distance moved by all atoms, µm.
    pub total_move_distance_um: f64,
    /// Number of movement stages recorded by the physics ledger.
    pub num_move_stages: usize,
    /// Cooling procedures performed.
    pub cooling_events: usize,
    /// Gates rejected because rows/columns would overlap (Fig. 24).
    pub overlap_rejections: usize,
    /// SLM↔AOD transfers performed: two per transfer-assisted fallback
    /// stage (`route.transfer_fallbacks`), which large arrays do reach.
    pub transfers: usize,
    /// Movement-heating fidelity factor.
    pub f_heating: f64,
    /// Movement atom-loss fidelity factor.
    pub f_loss: f64,
    /// Cooling-overhead fidelity factor.
    pub f_cooling: f64,
    /// Movement-decoherence fidelity factor.
    pub f_decoherence: f64,
    /// Hottest vibrational quantum number reached.
    pub max_n_vib: f64,
}

/// Wall-clock breakdown of one [`compile`](crate::compile) call,
/// seconds per pipeline stage. Derived from the compile's trace span
/// tree ([`CompileReport::stage_timings`]); sums to slightly less than
/// [`CompileStats::compile_time_s`] (inter-stage glue — fidelity
/// estimation, stats assembly — is accounted by the `finalize` span
/// rather than any of these fields).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StageTimings {
    /// Peephole optimization + multipartite SABRE SWAP insertion.
    pub transpile_s: f64,
    /// Qubit-array mapping (MAX k-Cut) + qubit-atom mapping.
    pub map_s: f64,
    /// The high-parallelism movement router.
    pub route_s: f64,
    /// Lowering the routed schedule to the `raa-isa` stream
    /// (0 unless `emit_isa`/`verify_isa` is set).
    pub lower_s: f64,
    /// ISA optimization (0 unless `opt_level` > `None` with `emit_isa`).
    pub opt_s: f64,
    /// The independent ISA oracle — `check_legality` + `replay_verify`
    /// (0 unless `verify_isa` is set).
    pub verify_s: f64,
}

impl StageTimings {
    /// Sum of every attributed stage, seconds.
    pub fn sum_s(&self) -> f64 {
        self.transpile_s + self.map_s + self.route_s + self.lower_s + self.opt_s + self.verify_s
    }
}

/// The `raa-trace` record of one [`compile`](crate::compile) call: the
/// span tree rooted at the `compile` span plus every telemetry counter
/// the compile incremented. Always attached to the output; the coarse
/// stage spans are recorded unconditionally, while inner phase spans
/// and counters need [`AtomiqueConfig::trace`](crate::AtomiqueConfig)
/// (or an enclosing caller-owned `raa-trace` session at
/// [`raa_trace::Level::Detail`]). Span and counter names are catalogued
/// in `docs/OBSERVABILITY.md`; export with
/// [`raa_trace::export::to_chrome`] / [`raa_trace::export::to_jsonl`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CompileReport {
    /// The raw trace window of this compile. When the caller owned an
    /// enclosing session, span offsets are relative to *that* session's
    /// start (so multi-compile traces share one clock); otherwise to
    /// this compile's start.
    pub trace: raa_trace::TraceReport,
}

impl CompileReport {
    /// The root `compile` span.
    pub fn root(&self) -> Option<&raa_trace::SpanNode> {
        self.trace.find("compile")
    }

    /// Wall-clock duration of the whole compile, seconds — the root
    /// span's duration, the same number as
    /// [`CompileStats::compile_time_s`].
    pub fn total_s(&self) -> f64 {
        self.root().map(raa_trace::SpanNode::dur_s).unwrap_or(0.0)
    }

    /// [`StageTimings`] re-derived from the span tree — the single
    /// source of truth for the per-stage breakdown (the `transpile` and
    /// `map` spans each occur twice — peephole + SABRE, array + atom
    /// mapper — and sum).
    pub fn stage_timings(&self) -> StageTimings {
        StageTimings {
            transpile_s: self.trace.span_total_s("transpile"),
            map_s: self.trace.span_total_s("map"),
            route_s: self.trace.span_total_s("route"),
            lower_s: self.trace.span_total_s("lower"),
            opt_s: self.trace.span_total_s("opt"),
            verify_s: self.trace.span_total_s("verify"),
        }
    }

    /// The total of counter `name` within this compile (0 when absent —
    /// in particular, whenever detail tracing was off).
    pub fn counter(&self, name: &str) -> u64 {
        self.trace.counter(name)
    }

    /// All `(name, value)` counters, sorted by name.
    pub fn counters(&self) -> &[(String, u64)] {
        &self.trace.counters
    }
}

/// Everything [`compile`](crate::compile) returns.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// The full stage schedule (movements, pulses, cooling).
    pub stages: Vec<Stage>,
    /// The atom mapping the schedule refers to (slot → trap site).
    pub mapping: AtomMapping,
    /// Initial slot of each logical qubit.
    pub slot_of_qubit: Vec<u32>,
    /// The transpiled slot-level circuit the schedule executes (every
    /// two-qubit gate inter-array, SWAPs decomposed). This is the
    /// reference the ISA replay verifier checks the stream against.
    pub slot_circuit: raa_circuit::Circuit,
    /// Compilation and execution statistics.
    pub stats: CompileStats,
    /// The per-source fidelity estimate.
    pub fidelity: FidelityBreakdown,
    /// The lowered instruction stream, when requested via
    /// [`AtomiqueConfig::emit_isa`](crate::AtomiqueConfig).
    pub isa: Option<raa_isa::IsaProgram>,
    /// Per-stage wall-clock breakdown of this compile (derived from
    /// [`CompiledProgram::report`]).
    pub timings: StageTimings,
    /// The full trace of this compile: stage span tree, plus inner
    /// phase spans and counters when detail tracing was on.
    pub report: CompileReport,
}

impl CompiledProgram {
    /// The estimated total circuit fidelity.
    pub fn total_fidelity(&self) -> f64 {
        self.fidelity.total()
    }
}

/// Statistics of one compilation (the quantities the paper's figures
/// report).
#[derive(Debug, Clone, PartialEq)]
pub struct CompileStats {
    /// Logical qubits in the input circuit.
    pub num_qubits: usize,
    /// Two-qubit gates executed (after SWAP decomposition).
    pub two_qubit_gates: usize,
    /// One-qubit gates executed.
    pub one_qubit_gates: usize,
    /// The paper's depth metric: parallel two-qubit stages.
    pub depth: usize,
    /// SWAPs inserted by the multipartite router.
    pub swaps_inserted: usize,
    /// Additional CNOT-equivalents from SWAP insertion (3 per SWAP,
    /// Fig. 25).
    pub additional_cnots: usize,
    /// Estimated execution time, seconds.
    pub execution_time_s: f64,
    /// Total atom movement distance, mm (Fig. 20/22's "Move Dist.").
    pub total_move_distance_mm: f64,
    /// Mean movement distance per movement stage, mm.
    pub avg_move_distance_mm: f64,
    /// Movement stages performed.
    pub num_move_stages: usize,
    /// Cooling procedures performed.
    pub cooling_events: usize,
    /// Overlap-caused scheduling rejections (Fig. 24).
    pub overlap_rejections: usize,
    /// SLM↔AOD transfers: two per transfer-assisted fallback stage
    /// (`route.transfer_fallbacks`), which large arrays do reach.
    pub transfers: usize,
    /// Wall-clock compile time, seconds.
    pub compile_time_s: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use raa_circuit::Qubit;

    #[test]
    fn stage_constructors_set_kinds() {
        assert_eq!(
            Stage::one_qubit(vec![Gate::h(Qubit(0))]).kind,
            StageKind::OneQubit
        );
        assert_eq!(
            Stage::movement(vec![], vec![], vec![(0, 1)]).kind,
            StageKind::Movement
        );
        let r = Stage::reset(vec![1]);
        assert_eq!(r.kind, StageKind::Reset);
        assert_eq!(r.kept_aods, vec![1]);
        let t = Stage::transfer_assisted(2, 5);
        assert_eq!(t.kind, StageKind::TransferAssisted);
        assert_eq!(t.gate_pairs, vec![(2, 5)]);
        assert_eq!(Stage::cooling(1).cooled_aod, Some(1));
    }
}
