//! ISA-level optimization passes over [`IsaProgram`] instruction streams.
//!
//! The instruction stream is a stable IR: the legality checker
//! ([`check_legality`]) and the replay verifier ([`replay_verify`])
//! define its observable semantics *purely from the stream*, so
//! rewrites can be validated with no reference to any compiler's
//! internal state. Movement time dominates both duration and fidelity
//! on reconfigurable arrays (Atomique, ISCA 2024), and post-schedule
//! move fusion is the scheduling-layer win (Arctic, 2024) — these
//! passes shave instruction count and line travel without touching a
//! single gate. The router already packs each stage with a maximal
//! legal gate set, so an optimized stream fires exactly the router's
//! pulses.
//!
//! # Passes
//!
//! | Pass | Level | Rewrite |
//! |---|---|---|
//! | [mod@coalesce] | `Basic` | fuses consecutive moves of one AOD line into one instruction |
//! | [mod@dead] | `Basic` | drops moves whose displacement is never observed |
//! | [mod@park] | `Aggressive` | elides park–unpark pairs and redundant unparks |
//!
//! A retraction that the next approach exactly undoes needs no pass of
//! its own: [mod@coalesce] folds the round trip into a zero move, and
//! [mod@dead] deletes it.
//!
//! # Proving the result once
//!
//! Every candidate rewrite a pass returns must pass three cheap guards:
//! it shrinks the stream, it adds no line travel, and it keeps the
//! sequence of gate events — pulses with their pair lists, Raman layers,
//! transfers and cooling swaps — exactly. A candidate that fails a guard
//! is discarded and its pass disabled for the rest of the run.
//!
//! The stream oracle ([`check_legality`] + [`replay_verify`]) then runs
//! once, on the fixpoint's result, and a result that passes is
//! returned. A result that fails means either the input was already
//! illegal, in which case [`optimize`] returns the input untouched with
//! [`OptReport::skipped_unverified`] set, or a pass broke a legal
//! stream. In the second case the fixpoint re-runs with the oracle on
//! every candidate, which refuses the broken rewrite and disables its
//! pass. A buggy pass therefore costs time and its own savings, never
//! correctness.
//!
//! # How to write a safe pass
//!
//! A pass is a function `fn(&[Instr]) -> Option<PassEdit>` returning an
//! edit map — a same-length copy of the input with entries modified in
//! place, a deletion flag per entry, and a rewrite count — or `None`
//! when it finds nothing (or encounters a stream it does not understand
//! — returning `None` is always safe). Passes must never *insert*
//! instructions, and they may run on an input nothing has checked yet,
//! so they must not panic on a malformed or illegal stream. To stay
//! inside the oracle's notion of equivalence, obey three rules:
//!
//! 1. **Never touch a gate event.** Rydberg pulses, Raman layers,
//!    transfers and cooling swaps are the program; the guards compare
//!    their sequence before and after, so a pass that reorders, merges,
//!    drops or edits one is rejected.
//! 2. **Positions are only observable at pulses and at end of stream.**
//!    Between those points atom trajectories are free: moves may be
//!    fused, re-timed or deleted as long as every line holds the same
//!    value at each pulse and at the end. [`Instr::Park`] both writes
//!    positions (re-home) and parks arrays, so treat it as a barrier
//!    unless the pass models it explicitly.
//! 3. **Track the parked flag.** Moves and [`Instr::Unpark`] bring an
//!    AOD into the interaction field; deleting them may leave atoms
//!    parked at a later pulse, which changes which proximity checks
//!    apply. The (crate-private) `Tracker` used by the built-in passes
//!    replays positions and parked flags exactly like the legality
//!    checker.
//!
//! # Examples
//!
//! ```
//! use raa_circuit::{Circuit, Gate, Qubit};
//! use raa_isa::{optimize, Instr, IsaProgram, OptLevel, ProgramHeader, SiteSpec, FORMAT_VERSION};
//!
//! // One CZ, with the approach split into two row moves.
//! let mut c = Circuit::new(2);
//! c.push(Gate::cz(Qubit(0), Qubit(1)));
//! let program = IsaProgram {
//!     version: FORMAT_VERSION,
//!     header: ProgramHeader::new("example", "opt-doc"),
//!     slot_of_qubit: vec![0, 1],
//!     sites: vec![
//!         SiteSpec { array: 0, row: 0, col: 0 },
//!         SiteSpec { array: 1, row: 0, col: 0 },
//!     ],
//!     reference: c,
//!     instrs: vec![
//!         Instr::InitSlm { rows: 4, cols: 4 },
//!         Instr::InitAod { aod: 0, rows: 1, cols: 1, fx: 0.4, fy: 0.6 },
//!         Instr::MoveRow { aod: 0, row: 0, from: 0.6, to: 0.3, retract: false },
//!         Instr::MoveRow { aod: 0, row: 0, from: 0.3, to: 0.05, retract: false },
//!         Instr::MoveCol { aod: 0, col: 0, from: 0.4, to: 0.08, retract: false },
//!         Instr::RydbergPulse { pairs: vec![(0, 1)] },
//!         Instr::MoveRow { aod: 0, row: 0, from: 0.05, to: 0.6, retract: true },
//!         Instr::MoveCol { aod: 0, col: 0, from: 0.08, to: 0.4, retract: true },
//!     ],
//! };
//!
//! let (optimized, report) = optimize(&program, OptLevel::Aggressive);
//! assert_eq!(report.instructions_before, 8);
//! assert_eq!(report.instructions_after, 7); // split approach coalesced
//! assert!(report.line_travel_after <= report.line_travel_before);
//! raa_isa::check_legality(&optimized)?;
//! raa_isa::replay_verify(&optimized)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod coalesce;
pub mod dead;
pub mod park;

use crate::check::{check_legality, AodState};
use crate::program::{Instr, IsaProgram};
use crate::replay::replay_verify;
use crate::stats::IsaStats;
use raa_trace::Counter;

/// Candidate rewrites produced by passes (accepted + rejected).
static OPT_CANDIDATES: Counter = Counter::new("opt.candidates");
/// Candidates that passed the guards (and, when proving each, the
/// oracle) and were committed.
static OPT_ACCEPTED: Counter = Counter::new("opt.accepted");
/// Candidates refused (the pass is then disabled).
static OPT_REJECTED: Counter = Counter::new("opt.rejected");

/// How hard [`optimize`] works on a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum OptLevel {
    /// `-O0`: no rewriting; [`optimize`] returns a verbatim copy.
    #[default]
    None,
    /// `-O1`: local move cleanups only — [mod@coalesce] and [mod@dead].
    Basic,
    /// `-O2`: all passes ([mod@coalesce], [mod@park], [mod@dead]),
    /// iterated to a fixpoint.
    Aggressive,
}

impl OptLevel {
    /// Parses a `-O` flag value: `0`/`none`, `1`/`basic`,
    /// `2`/`aggressive` (an optional leading `-O` is accepted).
    pub fn parse_flag(flag: &str) -> Option<OptLevel> {
        let v = flag.strip_prefix("-O").unwrap_or(flag);
        match v {
            "0" | "none" => Some(OptLevel::None),
            "1" | "basic" => Some(OptLevel::Basic),
            "2" | "aggressive" => Some(OptLevel::Aggressive),
            _ => None,
        }
    }

    /// The pass pipeline of this level, in execution order.
    fn passes(self) -> &'static [PassKind] {
        match self {
            OptLevel::None => &[],
            OptLevel::Basic => &[PassKind::Coalesce, PassKind::DeadMove],
            OptLevel::Aggressive => &[PassKind::Coalesce, PassKind::ElidePark, PassKind::DeadMove],
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum PassKind {
    Coalesce,
    ElidePark,
    DeadMove,
    /// A deliberately broken pass that the fallback must refuse.
    #[cfg(test)]
    DropFinalRetraction,
}

impl PassKind {
    fn name(self) -> &'static str {
        match self {
            PassKind::Coalesce => "coalesce-moves",
            PassKind::ElidePark => "elide-parks",
            PassKind::DeadMove => "dead-moves",
            #[cfg(test)]
            PassKind::DropFinalRetraction => "drop-final-retraction",
        }
    }

    /// Span name for one run of this pass: its candidate search and the
    /// cheap acceptance guards (size, line travel, gate trace), plus the
    /// oracle only on the fallback's proving re-run.
    fn span_name(self) -> &'static str {
        match self {
            PassKind::Coalesce => "opt.coalesce-moves",
            PassKind::ElidePark => "opt.elide-parks",
            PassKind::DeadMove => "opt.dead-moves",
            #[cfg(test)]
            PassKind::DropFinalRetraction => "opt.drop-final-retraction",
        }
    }

    fn run(self, instrs: &[Instr]) -> Option<PassEdit> {
        match self {
            PassKind::Coalesce => coalesce::run(instrs),
            PassKind::ElidePark => park::run(instrs),
            PassKind::DeadMove => dead::run(instrs),
            #[cfg(test)]
            PassKind::DropFinalRetraction => tests::drop_final_retraction(instrs),
        }
    }
}

/// The edit map a pass returns: a same-length rewritten copy of the
/// input plus per-entry deletion flags. Passes only modify entries in
/// place or delete them — never insert — so old index `i` and `out[i]`
/// always describe the same stream position.
pub(crate) struct PassEdit {
    /// Same length as the input; kept entries may be modified in place.
    pub(crate) out: Vec<Instr>,
    /// Which entries of `out` are deleted.
    pub(crate) removed: Vec<bool>,
    /// How many rewrites the pass performed.
    pub(crate) rewrites: usize,
}

impl PassEdit {
    /// The surviving stream plus the rewrite count (test convenience).
    #[cfg(test)]
    pub(crate) fn into_parts(self) -> (Vec<Instr>, usize) {
        (self.kept(), self.rewrites)
    }

    /// The surviving instruction stream.
    pub(crate) fn kept(&self) -> Vec<Instr> {
        self.out
            .iter()
            .zip(&self.removed)
            .filter(|(_, &r)| !r)
            .map(|(instr, _)| instr.clone())
            .collect()
    }
}

/// What [`optimize`] did to a stream.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OptReport {
    /// The level the optimizer ran at.
    pub level: OptLevel,
    /// Fixpoint iterations executed (0 at [`OptLevel::None`]).
    pub iterations: usize,
    /// Instruction count of the input stream.
    pub instructions_before: usize,
    /// Instruction count of the optimized stream.
    pub instructions_after: usize,
    /// Summed line travel of the input stream, in track units.
    pub line_travel_before: f64,
    /// Summed line travel of the optimized stream, in track units.
    pub line_travel_after: f64,
    /// Moves fused by [mod@coalesce].
    pub coalesced_moves: usize,
    /// Park/unpark instructions elided by [mod@park].
    pub elided_parks: usize,
    /// Moves deleted by [mod@dead].
    pub dead_moves: usize,
    /// Candidates refused: one failed a guard (it did not shrink the
    /// stream, added line travel or changed a gate event)
    /// or, when the fixpoint re-ran with the oracle on every candidate,
    /// failed the oracle. The stream before the candidate was kept and
    /// the pass disabled for the rest of the run, so refusals cost
    /// performance, never correctness.
    pub rejected_rewrites: usize,
    /// `true` if the returned stream was not proven by this call: the
    /// input failed the oracle and is returned untouched. At every level
    /// but [`OptLevel::None`], which returns a verbatim copy and proves
    /// nothing, `false` means the returned stream passed
    /// [`check_legality`] and [`replay_verify`] inside [`optimize`].
    pub skipped_unverified: bool,
}

impl OptReport {
    /// The report of a run that has changed nothing (yet).
    fn unchanged(program: &IsaProgram, level: OptLevel) -> OptReport {
        let stats = IsaStats::of(program);
        OptReport {
            level,
            instructions_before: stats.instructions,
            instructions_after: stats.instructions,
            line_travel_before: stats.line_travel_tracks,
            line_travel_after: stats.line_travel_tracks,
            ..OptReport::default()
        }
    }

    /// Instructions removed by optimization.
    pub fn instructions_saved(&self) -> usize {
        self.instructions_before - self.instructions_after
    }

    /// Line travel removed by optimization, in track units.
    pub fn line_travel_saved(&self) -> f64 {
        self.line_travel_before - self.line_travel_after
    }
}

/// Upper bound on fixpoint iterations; every accepted rewrite strictly
/// shrinks the stream, so this is never reached in practice.
const MAX_ITERATIONS: usize = 64;

/// Optimizes `program` at `level`, returning the rewritten program and
/// a report of what changed.
///
/// Safety is enforced, not assumed. Every candidate rewrite must keep
/// the exact sequence of gate events and may not add instructions or
/// line travel, and the result must pass [`check_legality`] +
/// [`replay_verify`] before it is returned (see the module docs for the
/// fallback when it does not). An input that fails the oracle is
/// returned untouched with [`OptReport::skipped_unverified`] set.
///
/// # Examples
///
/// ```
/// use raa_circuit::{Circuit, Gate, Qubit};
/// use raa_isa::{lower_gate_schedule, optimize, OptLevel, ProgramHeader};
///
/// let mut c = Circuit::new(2);
/// c.push(Gate::h(Qubit(0)));
/// c.push(Gate::cz(Qubit(0), Qubit(1)));
/// let program = lower_gate_schedule(&c, &[vec![1]], ProgramHeader::new("example", "doc"))?;
///
/// // Transfer-based streams are already minimal: optimization is a no-op.
/// let (optimized, report) = optimize(&program, OptLevel::Aggressive);
/// assert_eq!(optimized, program);
/// assert_eq!(report.instructions_saved(), 0);
/// assert!(!report.skipped_unverified); // proven inside `optimize`
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn optimize(program: &IsaProgram, level: OptLevel) -> (IsaProgram, OptReport) {
    if level == OptLevel::None {
        return (program.clone(), OptReport::unchanged(program, level));
    }
    prove_once(program, level, level.passes())
}

/// Runs `passes` to a fixpoint under the cheap guards, then proves the
/// result once; falls back to proving every candidate if that fails on
/// a legal input.
fn prove_once(
    program: &IsaProgram,
    level: OptLevel,
    passes: &[PassKind],
) -> (IsaProgram, OptReport) {
    let (out, report) = fixpoint(program, level, passes, false);
    if passes_oracle(&out) {
        return (out, report);
    }
    // Every accepted candidate shrinks the stream, so an unchanged
    // length means nothing was accepted and the input itself just failed.
    if out.instrs.len() == program.instrs.len() || !passes_oracle(program) {
        let report = OptReport {
            skipped_unverified: true,
            ..OptReport::unchanged(program, level)
        };
        return (program.clone(), report);
    }
    fixpoint(program, level, passes, true)
}

/// Whether `program` passes both halves of the stream oracle.
fn passes_oracle(program: &IsaProgram) -> bool {
    check_legality(program).is_ok() && replay_verify(program).is_ok()
}

/// Runs `passes` over `program` until none of them finds a rewrite. A
/// candidate is accepted only if it passes the guards and, with
/// `prove_each`, the oracle; a refused candidate disables its pass.
/// With `prove_each` on an oracle-clean input, every stream the loop
/// holds is oracle-clean.
fn fixpoint(
    program: &IsaProgram,
    level: OptLevel,
    passes: &[PassKind],
    prove_each: bool,
) -> (IsaProgram, OptReport) {
    let mut report = OptReport::unchanged(program, level);
    let mut current = program.clone();
    // A pass whose candidate is refused is disabled for the rest of the
    // run: re-running it would deterministically rebuild (and re-pay the
    // checks of) the same unsafe rewrite every iteration.
    let mut disabled = vec![false; passes.len()];
    while report.iterations < MAX_ITERATIONS {
        report.iterations += 1;
        let mut changed = false;
        for (k, &pass) in passes.iter().enumerate() {
            if disabled[k] {
                continue;
            }
            let _pass_span = raa_trace::span(pass.span_name());
            let Some(edit) = pass.run(&current.instrs) else {
                continue;
            };
            debug_assert!(edit.rewrites > 0, "{}: rewrite without count", pass.name());
            OPT_CANDIDATES.incr();
            let previous = std::mem::replace(&mut current.instrs, edit.kept());
            let accepted = current.instrs.len() < previous.len()
                && line_travel(&current.instrs) <= line_travel(&previous) + 1e-12
                && gate_events(&current.instrs).eq(gate_events(&program.instrs))
                && (!prove_each || passes_oracle(&current));
            if accepted {
                OPT_ACCEPTED.incr();
                match pass {
                    PassKind::Coalesce => report.coalesced_moves += edit.rewrites,
                    PassKind::ElidePark => report.elided_parks += edit.rewrites,
                    PassKind::DeadMove => report.dead_moves += edit.rewrites,
                    #[cfg(test)]
                    PassKind::DropFinalRetraction => report.dead_moves += edit.rewrites,
                }
                changed = true;
            } else {
                current.instrs = previous;
                report.rejected_rewrites += 1;
                OPT_REJECTED.incr();
                disabled[k] = true;
            }
        }
        if !changed {
            break;
        }
    }

    let after = IsaStats::of(&current);
    report.instructions_after = after.instructions;
    report.line_travel_after = after.line_travel_tracks;
    (current, report)
}

/// Summed `|to - from|` of all moves — the same accumulation (stream
/// order, track units) as [`IsaStats::of`].
fn line_travel(instrs: &[Instr]) -> f64 {
    instrs
        .iter()
        .map(|i| match i {
            Instr::MoveRow { from, to, .. } | Instr::MoveCol { from, to, .. } => (to - from).abs(),
            _ => 0.0,
        })
        .sum()
}

/// The gate events of a stream in order: pulses with their pair lists,
/// Raman layers, transfers and cooling swaps. Optimization must keep
/// this sequence exactly.
fn gate_events(instrs: &[Instr]) -> impl Iterator<Item = &Instr> {
    instrs.iter().filter(|i| {
        matches!(
            i,
            Instr::RydbergPulse { .. }
                | Instr::RamanLayer { .. }
                | Instr::Transfer { .. }
                | Instr::Cool { .. }
        )
    })
}

// ---------------------------------------------------------------------
// Shared pass infrastructure
// ---------------------------------------------------------------------

/// An instruction that observes or overwrites line positions (or
/// executes a gate): no move-motion rewrite may look past one.
pub(crate) fn is_barrier(instr: &Instr) -> bool {
    matches!(
        instr,
        Instr::RydbergPulse { .. }
            | Instr::Transfer { .. }
            | Instr::Park { .. }
            | Instr::Cool { .. }
    )
}

/// The line a move instruction writes: `(aod, is_row, line)`.
pub(crate) fn move_key(instr: &Instr) -> Option<(u8, bool, u16)> {
    match instr {
        Instr::MoveRow { aod, row, .. } => Some((*aod, true, *row)),
        Instr::MoveCol { aod, col, .. } => Some((*aod, false, *col)),
        _ => None,
    }
}

/// A move's target track position.
pub(crate) fn move_to(instr: &Instr) -> Option<f64> {
    match instr {
        Instr::MoveRow { to, .. } | Instr::MoveCol { to, .. } => Some(*to),
        _ => None,
    }
}

/// A move's retraction flag.
pub(crate) fn move_retract(instr: &Instr) -> Option<bool> {
    match instr {
        Instr::MoveRow { retract, .. } | Instr::MoveCol { retract, .. } => Some(*retract),
        _ => None,
    }
}

/// Replays line positions and parked flags through a stream, exactly
/// like the legality checker's machine model. Passes use it to reason
/// about the *output* stream: apply only the instructions they keep.
///
/// All accessors return `Option` so a pass can abort (`None` = rewrite
/// nothing) on a stream it does not understand, rather than panic.
pub(crate) struct Tracker {
    aods: Vec<AodState>,
}

impl Tracker {
    /// Builds a tracker from the stream's init prefix; returns the
    /// tracker and the index of the first non-init instruction.
    pub(crate) fn from_init(instrs: &[Instr]) -> Option<(Tracker, usize)> {
        let mut aods = Vec::new();
        let mut saw_slm = false;
        let mut pc = 0;
        while pc < instrs.len() {
            match instrs[pc] {
                Instr::InitSlm { .. } => {
                    if saw_slm {
                        return None;
                    }
                    saw_slm = true;
                }
                Instr::InitAod {
                    aod,
                    rows,
                    cols,
                    fx,
                    fy,
                } => {
                    if aod as usize != aods.len() || !(fx.is_finite() && fy.is_finite()) {
                        return None;
                    }
                    let home_rows: Vec<f64> = (0..rows).map(|r| r as f64 + fy).collect();
                    let home_cols: Vec<f64> = (0..cols).map(|c| c as f64 + fx).collect();
                    aods.push(AodState {
                        rows: home_rows.clone(),
                        cols: home_cols.clone(),
                        home_rows,
                        home_cols,
                        parked: false,
                    });
                }
                _ => break,
            }
            pc += 1;
        }
        if !saw_slm {
            return None;
        }
        Some((Tracker { aods }, pc))
    }

    /// Applies one instruction's state effect.
    pub(crate) fn apply(&mut self, instr: &Instr) -> Option<()> {
        match instr {
            Instr::InitSlm { .. } | Instr::InitAod { .. } => return None,
            Instr::MoveRow { aod, row, to, .. } => {
                let aod = self.aods.get_mut(*aod as usize)?;
                *aod.rows.get_mut(*row as usize)? = *to;
                aod.parked = false;
            }
            Instr::MoveCol { aod, col, to, .. } => {
                let aod = self.aods.get_mut(*aod as usize)?;
                *aod.cols.get_mut(*col as usize)? = *to;
                aod.parked = false;
            }
            Instr::Unpark { aod } => self.aods.get_mut(*aod as usize)?.parked = false,
            Instr::Park { kept } => {
                for (k, aod) in self.aods.iter_mut().enumerate() {
                    aod.rows.clone_from(&aod.home_rows);
                    aod.cols.clone_from(&aod.home_cols);
                    aod.parked = !kept.contains(&(k as u8));
                }
            }
            Instr::RydbergPulse { .. }
            | Instr::RamanLayer { .. }
            | Instr::Transfer { .. }
            | Instr::Cool { .. } => {}
        }
        Some(())
    }

    /// Current track position of one AOD line.
    pub(crate) fn line(&self, aod: u8, is_row: bool, line: u16) -> Option<f64> {
        let aod = self.aods.get(aod as usize)?;
        let lines = if is_row { &aod.rows } else { &aod.cols };
        lines.get(line as usize).copied()
    }

    /// Whether one AOD is currently parked out of the field.
    pub(crate) fn is_parked(&self, aod: u8) -> Option<bool> {
        Some(self.aods.get(aod as usize)?.parked)
    }

    /// Whether every declared AOD is unparked and at its home positions.
    pub(crate) fn all_home_in_field(&self) -> bool {
        self.aods
            .iter()
            .all(|a| !a.parked && a.rows == a.home_rows && a.cols == a.home_cols)
    }

    /// Number of declared AODs.
    pub(crate) fn num_aods(&self) -> usize {
        self.aods.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{ProgramHeader, SiteSpec, FORMAT_VERSION};
    use raa_circuit::{Circuit, Gate, Qubit};

    fn mrow(from: f64, to: f64, retract: bool) -> Instr {
        Instr::MoveRow {
            aod: 0,
            row: 0,
            from,
            to,
            retract,
        }
    }

    fn mcol(from: f64, to: f64, retract: bool) -> Instr {
        Instr::MoveCol {
            aod: 0,
            col: 0,
            from,
            to,
            retract,
        }
    }

    fn cz_pulse() -> Instr {
        Instr::RydbergPulse {
            pairs: vec![(0, 1)],
        }
    }

    /// Brings AOD0's atom from home (0.6, 0.4) next to the SLM atom.
    fn approach() -> [Instr; 2] {
        [mrow(0.6, 0.05, false), mcol(0.4, 0.08, false)]
    }

    /// Takes AOD0's atom home again.
    fn retract() -> [Instr; 2] {
        [mrow(0.05, 0.6, true), mcol(0.08, 0.4, true)]
    }

    /// Two slots, s0 on SLM[0,0] and s1 on AOD0[0,0], running `body`
    /// after the init prefix; the reference circuit has one CZ per
    /// scheduled pair.
    fn two_slot_program(body: Vec<Instr>) -> IsaProgram {
        let mut c = Circuit::new(2);
        for instr in &body {
            if let Instr::RydbergPulse { pairs } = instr {
                for _ in pairs {
                    c.push(Gate::cz(Qubit(0), Qubit(1)));
                }
            }
        }
        let mut instrs = vec![
            Instr::InitSlm { rows: 4, cols: 4 },
            Instr::InitAod {
                aod: 0,
                rows: 1,
                cols: 1,
                fx: 0.4,
                fy: 0.6,
            },
        ];
        instrs.extend(body);
        IsaProgram {
            version: FORMAT_VERSION,
            header: ProgramHeader::new("test", "opt"),
            slot_of_qubit: vec![0, 1],
            sites: vec![
                SiteSpec {
                    array: 0,
                    row: 0,
                    col: 0,
                },
                SiteSpec {
                    array: 1,
                    row: 0,
                    col: 0,
                },
            ],
            reference: c,
            instrs,
        }
    }

    /// `stages` CZ pulses, each approached with `split`-segment row
    /// moves and retracted home.
    fn movement_program(stages: usize, split: usize) -> IsaProgram {
        let mut body = Vec::new();
        for _ in 0..stages {
            let mut at = 0.6;
            for s in 0..split {
                let to = if s + 1 == split {
                    0.05
                } else {
                    at - (at - 0.05) / 2.0
                };
                body.push(mrow(at, to, false));
                at = to;
            }
            body.extend([mcol(0.4, 0.08, false), cz_pulse()]);
            body.extend(retract());
        }
        two_slot_program(body)
    }

    /// One AOD's row positions, column positions and parked flag.
    type AodView = (Vec<f64>, Vec<f64>, bool);

    /// Every AOD's view at each pulse and at the end of the stream,
    /// where the checker observes them.
    fn observed(p: &IsaProgram) -> Vec<Vec<AodView>> {
        let snapshot = |t: &Tracker| -> Vec<AodView> {
            t.aods
                .iter()
                .map(|a| (a.rows.clone(), a.cols.clone(), a.parked))
                .collect()
        };
        let (mut tracker, start) = Tracker::from_init(&p.instrs).unwrap();
        let mut out = Vec::new();
        for instr in &p.instrs[start..] {
            if matches!(instr, Instr::RydbergPulse { .. }) {
                out.push(snapshot(&tracker));
            }
            tracker.apply(instr).unwrap();
        }
        out.push(snapshot(&tracker));
        out
    }

    /// Optimizes the legal two-slot program of `body` at `-O2` and
    /// checks that the result keeps every observed position and parked
    /// flag.
    fn aggressive_keeps_observations(body: Vec<Instr>) -> (IsaProgram, OptReport) {
        let p = two_slot_program(body);
        let (out, report) = optimize(&p, OptLevel::Aggressive);
        assert!(!report.skipped_unverified);
        assert_eq!(observed(&out), observed(&p));
        (out, report)
    }

    #[test]
    fn none_level_copies_verbatim() {
        let p = movement_program(2, 3);
        let (out, report) = optimize(&p, OptLevel::None);
        assert_eq!(out, p);
        assert_eq!(report.iterations, 0);
        assert_eq!(report.instructions_saved(), 0);
    }

    #[test]
    fn aggressive_reaches_a_fixpoint_and_shrinks() {
        let p = movement_program(3, 4);
        check_legality(&p).unwrap();
        let (out, report) = optimize(&p, OptLevel::Aggressive);
        assert!(report.instructions_after < report.instructions_before);
        assert!(report.line_travel_after <= report.line_travel_before + 1e-12);
        check_legality(&out).unwrap();
        replay_verify(&out).unwrap();
        // Idempotence: a second run finds nothing.
        let (again, r2) = optimize(&out, OptLevel::Aggressive);
        assert_eq!(again, out);
        assert_eq!(r2.instructions_saved(), 0);
    }

    #[test]
    fn optimization_preserves_the_gate_events() {
        let p = movement_program(4, 2);
        let (out, _) = optimize(&p, OptLevel::Aggressive);
        assert!(gate_events(&out.instrs).eq(gate_events(&p.instrs)));
    }

    #[test]
    fn unverified_input_is_returned_untouched() {
        let mut p = movement_program(1, 1);
        p.instrs.truncate(5); // pulse with no retraction: illegal
        let (out, report) = optimize(&p, OptLevel::Aggressive);
        assert_eq!(out, p);
        assert!(report.skipped_unverified);
        assert_eq!(report.instructions_saved(), 0);
    }

    /// A deliberately broken pass: deletes every move after the last
    /// pulse, so the final retraction never happens and the last pulsed
    /// pair ends the stream within the blockade radius. It shrinks the
    /// stream, cuts travel and keeps the gate trace, so only the oracle
    /// can refuse it.
    pub(super) fn drop_final_retraction(instrs: &[Instr]) -> Option<PassEdit> {
        let last_pulse = instrs
            .iter()
            .rposition(|i| matches!(i, Instr::RydbergPulse { .. }))?;
        let removed: Vec<bool> = instrs
            .iter()
            .enumerate()
            .map(|(i, instr)| i > last_pulse && move_key(instr).is_some())
            .collect();
        let rewrites = removed.iter().filter(|&&r| r).count();
        (rewrites > 0).then(|| PassEdit {
            out: instrs.to_vec(),
            removed,
            rewrites,
        })
    }

    #[test]
    fn a_broken_pass_is_refused_by_the_fallback() {
        let p = movement_program(3, 2);
        let mut passes = vec![PassKind::DropFinalRetraction];
        passes.extend_from_slice(OptLevel::Aggressive.passes());
        // Under the guards alone the broken rewrite is accepted...
        let (unproven, _) = fixpoint(&p, OptLevel::Aggressive, &passes, false);
        assert!(check_legality(&unproven).is_err());
        // ...so the proof fails, and the fallback refuses it.
        let (out, report) = prove_once(&p, OptLevel::Aggressive, &passes);
        let (each, each_report) = fixpoint(&p, OptLevel::Aggressive, &passes, true);
        assert_eq!(out, each);
        assert_eq!(report, each_report);
        assert_eq!(report.rejected_rewrites, 1);
        assert!(!report.skipped_unverified);
        check_legality(&out).unwrap();
        replay_verify(&out).unwrap();
        // The sound passes keep their savings.
        assert_eq!(out, optimize(&p, OptLevel::Aggressive).0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// Proving the result once equals proving every candidate on the
        /// generated legal and inflated programs: the same stream, the
        /// same refusals and the same fixpoint iterations.
        #[test]
        fn prove_once_equals_prove_each((clean, inflated) in crate::common::programs()) {
            for p in [&clean, &inflated] {
                for level in [OptLevel::Basic, OptLevel::Aggressive] {
                    let (once, once_report) = optimize(p, level);
                    let (each, each_report) = fixpoint(p, level, level.passes(), true);
                    proptest::prop_assert_eq!(&once, &each);
                    proptest::prop_assert_eq!(once_report.rejected_rewrites, each_report.rejected_rewrites);
                    proptest::prop_assert_eq!(once_report.iterations, each_report.iterations);
                    proptest::prop_assert!(!once_report.skipped_unverified);
                }
            }
        }
    }

    #[test]
    fn basic_is_a_subset_of_aggressive() {
        let p = movement_program(3, 3);
        let (basic, _) = optimize(&p, OptLevel::Basic);
        let (aggressive, _) = optimize(&p, OptLevel::Aggressive);
        assert!(aggressive.instrs.len() <= basic.instrs.len());
        assert!(basic.instrs.len() <= p.instrs.len());
    }

    // Retract/approach round trips: coalescing folds one into a zero
    // move and dead-move elimination deletes it, so no pass of their own
    // cancels them.

    #[test]
    fn round_trip_retraction_is_cancelled() {
        let body = [
            &approach()[..],
            &[
                cz_pulse(),
                mrow(0.05, 0.6, true),  // retract home...
                mrow(0.6, 0.05, false), // ...and come straight back
                cz_pulse(),
            ],
            &retract(),
        ]
        .concat();
        let (out, report) = aggressive_keeps_observations(body);
        let kept = [&approach()[..], &[cz_pulse(), cz_pulse()], &retract()].concat();
        assert_eq!(out.instrs[2..], kept[..]);
        assert_eq!(report.instructions_saved(), 2);
    }

    #[test]
    fn approach_to_a_new_offset_keeps_observed_positions() {
        let body = [
            &approach()[..],
            &[
                cz_pulse(),
                mrow(0.05, 0.6, true),
                mrow(0.6, 0.1, false), // a different target: travel is real
                cz_pulse(),
                mrow(0.1, 0.6, true),
                mcol(0.08, 0.4, true),
            ],
        ]
        .concat();
        let (_, report) = aggressive_keeps_observations(body);
        assert_eq!(report.instructions_saved(), 1);
    }

    #[test]
    fn retraction_across_a_pulse_is_kept() {
        let stage = [&approach()[..], &[cz_pulse()], &retract()].concat();
        let body = [&stage[..], &[Instr::RydbergPulse { pairs: vec![] }], &stage].concat();
        let (_, report) = aggressive_keeps_observations(body);
        assert_eq!(report.instructions_saved(), 0);
    }

    #[test]
    fn plain_approach_pairs_keep_observed_positions() {
        let body = vec![mrow(0.6, 0.3, false), mrow(0.3, 0.6, false)];
        let (_, report) = aggressive_keeps_observations(body);
        assert_eq!(report.instructions_saved(), 2);
    }

    #[test]
    fn moves_of_a_parked_aod_keep_the_parked_flag() {
        // The moves of a parked AOD also unpark it: the pulse after them
        // must still see it in the field.
        let body = vec![
            Instr::Park { kept: vec![] },
            mrow(0.6, 0.3, true),
            mrow(0.3, 0.6, false),
            Instr::RydbergPulse { pairs: vec![] },
        ];
        aggressive_keeps_observations(body);
    }

    #[test]
    fn parse_flag_accepts_both_spellings() {
        assert_eq!(OptLevel::parse_flag("-O2"), Some(OptLevel::Aggressive));
        assert_eq!(OptLevel::parse_flag("0"), Some(OptLevel::None));
        assert_eq!(OptLevel::parse_flag("basic"), Some(OptLevel::Basic));
        assert_eq!(OptLevel::parse_flag("-O9"), None);
    }
}
