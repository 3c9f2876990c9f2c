//! ISA-level optimization passes over [`IsaProgram`] instruction streams.
//!
//! The instruction stream is a stable IR: the legality checker
//! ([`check_legality`]) and the replay verifier ([`replay_verify`])
//! define its observable semantics *purely from the stream*, so
//! rewrites can be validated with no reference to any compiler's
//! internal state. Movement time dominates both duration and fidelity
//! on reconfigurable arrays (Atomique, ISCA 2024), and post-schedule
//! rewriting of move sequences recovers parallelism the scheduler left
//! behind (Arctic, 2024) — these passes shave instruction count and
//! line travel without touching a single gate.
//!
//! # Passes
//!
//! | Pass | Level | Rewrite |
//! |---|---|---|
//! | [mod@coalesce] | `Basic` | fuses consecutive moves of one AOD line into one instruction |
//! | [mod@dead] | `Basic` | drops moves whose displacement is never observed |
//! | [mod@parallelize] | `Aggressive` | merges two pulses separated only by commuting moves |
//! | [mod@fuse] | `Aggressive` | cancels a retraction undone by the next approach |
//! | [mod@park] | `Aggressive` | elides park–unpark pairs and redundant unparks |
//!
//! The applicability predicates the passes share live in the
//! crate-private `cost` module.
//!
//! Every pass runs under a harness that refuses unsafe rewrites: after
//! each pass the candidate stream must (1) keep the *flattened*
//! sequence of observable gate events — each pulse contributing its
//! pairs in order, plus Raman layers, transfers and cooling swaps as
//! whole events — so gates may be regrouped across merged pulses but
//! never reordered, dropped or duplicated, (2) still pass
//! [`check_legality`], and (3) still pass [`replay_verify`]. A
//! candidate failing any of the three is discarded and the input kept,
//! so a buggy pass can cost performance but never correctness.
//!
//! # Incremental re-verification
//!
//! Re-running the full oracle on the whole stream for every candidate
//! makes `-O2` superlinear in stream length. Passes therefore return an
//! *edit map* (a same-length rewritten copy plus deletion flags — passes
//! only modify in place or delete, never insert), and the default
//! [`VerifyStrategy::Incremental`] harness exploits it: it replays the
//! already-verified input and the candidate in lockstep, runs the
//! geometric pulse checks only while the two machine states diverge
//! (from the first edit until line positions and parked flags converge
//! again), and runs the end-of-stream check only if the divergence
//! reaches the end. When no edit touches a gate event (every pass
//! except [mod@parallelize]) the trace is proven untouched
//! index-by-index, which pins the [`replay_verify`] verdict to the
//! input's without re-running it; when gate events *are* edited the
//! harness requires the flattened event sequence to be preserved and
//! re-proves the replay verdict on the candidate (pulse regrouping can
//! trip the verifier's slot-reuse and DAG-order rules, so it cannot be
//! pinned). Whenever the edit map cannot bound a candidate's effect the
//! harness falls back to [`VerifyStrategy::Full`], the original
//! whole-stream oracle, so every accepted rewrite is exactly as safe as
//! before — only cheaper to prove.
//! `tests/verify_differential.rs` checks that both strategies accept
//! identical rewrites across the benchmark suites.
//!
//! # How to write a safe pass
//!
//! A pass is a function `fn(&[Instr]) -> Option<PassEdit>` returning an
//! edit map — a same-length copy of the input with entries modified in
//! place, a deletion flag per entry, and a rewrite count — or `None`
//! when it finds nothing (or encounters a stream it does not understand
//! — returning `None` is always safe). Passes must never *insert*
//! instructions; the index-preserving edit-map shape is what lets the
//! harness re-verify only where the candidate diverges. To stay inside
//! the oracle's notion of equivalence, obey three rules:
//!
//! 1. **Never reorder, drop or duplicate a gate.** Rydberg pulse
//!    pairs, Raman layers, transfers and cooling swaps are the program;
//!    the harness compares their flattened sequence before and after.
//!    Adjacent pulses may merge (their pair lists concatenate in stream
//!    order — [mod@parallelize] does this), but a pass that moves a
//!    gate past another, drops one or fires one twice is rejected.
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
pub(crate) mod cost;
pub mod dead;
pub mod fuse;
pub mod parallelize;
pub mod park;

use crate::check::{check_legality, init_machine, CheckMode};
use crate::program::{Instr, IsaProgram};
use crate::replay::replay_verify;
use crate::stats::IsaStats;
use raa_circuit::Gate;
use raa_trace::Counter;

/// Candidate rewrites produced by passes (accepted + rejected).
static OPT_CANDIDATES: Counter = Counter::new("opt.candidates");
/// Candidates that survived re-verification and were committed.
static OPT_ACCEPTED: Counter = Counter::new("opt.accepted");
/// Candidates refused by the harness (the pass is then disabled).
static OPT_REJECTED: Counter = Counter::new("opt.rejected");
/// Candidates proven safe by the incremental harness alone.
static OPT_VERIFY_INCREMENTAL: Counter = Counter::new("opt.verify.incremental");
/// Whole-stream oracle runs: incremental fallbacks plus every
/// [`VerifyStrategy::Full`] candidate.
static OPT_VERIFY_FULL: Counter = Counter::new("opt.verify.full");

/// How hard [`optimize`] works on a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum OptLevel {
    /// `-O0`: no rewriting; [`optimize`] returns a verbatim copy.
    #[default]
    None,
    /// `-O1`: local move cleanups only — [mod@coalesce] and [mod@dead].
    Basic,
    /// `-O2`: all passes ([mod@fuse], [mod@coalesce], [mod@park],
    /// [mod@dead]), iterated to a fixpoint.
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
    /// `Aggressive` runs pulse merging first: merged windows turn
    /// inter-pulse round trips into plain round trips that
    /// [mod@fuse] and [mod@coalesce] then clean up in the same
    /// fixpoint iteration.
    fn passes(self) -> &'static [PassKind] {
        match self {
            OptLevel::None => &[],
            OptLevel::Basic => &[PassKind::Coalesce, PassKind::DeadMove],
            OptLevel::Aggressive => &[
                PassKind::Parallelize,
                PassKind::CancelRetract,
                PassKind::Coalesce,
                PassKind::ElidePark,
                PassKind::DeadMove,
            ],
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum PassKind {
    Parallelize,
    CancelRetract,
    Coalesce,
    ElidePark,
    DeadMove,
}

/// Number of [`PassKind`] variants (sizes the per-run disable table).
const NUM_PASSES: usize = 5;

impl PassKind {
    fn name(self) -> &'static str {
        match self {
            PassKind::Parallelize => "parallelize-pulses",
            PassKind::CancelRetract => "cancel-retract",
            PassKind::Coalesce => "coalesce-moves",
            PassKind::ElidePark => "elide-parks",
            PassKind::DeadMove => "dead-moves",
        }
    }

    /// Span name for this pass's candidate search + re-verification.
    fn span_name(self) -> &'static str {
        match self {
            PassKind::Parallelize => "opt.parallelize-pulses",
            PassKind::CancelRetract => "opt.cancel-retract",
            PassKind::Coalesce => "opt.coalesce-moves",
            PassKind::ElidePark => "opt.elide-parks",
            PassKind::DeadMove => "opt.dead-moves",
        }
    }

    fn run(self, program: &IsaProgram) -> Option<PassEdit> {
        match self {
            PassKind::Parallelize => parallelize::run(program),
            PassKind::CancelRetract => fuse::run(&program.instrs),
            PassKind::Coalesce => coalesce::run(&program.instrs),
            PassKind::ElidePark => park::run(&program.instrs),
            PassKind::DeadMove => dead::run(&program.instrs),
        }
    }
}

/// How [`optimize_with`] re-proves safety after each candidate rewrite.
/// Both strategies accept exactly the same rewrites (checked by
/// `tests/verify_differential.rs`); they differ only in how much of the
/// stream they re-examine per candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VerifyStrategy {
    /// Re-verify incrementally from the pass's edit map: lockstep
    /// replay of input and candidate, geometric pulse checks only while
    /// the machine states diverge, and the gate trace proven untouched
    /// index-by-index (pinning the replay verdict without re-running
    /// it) — or, for pulse-merging edits, the flattened trace proven
    /// preserved with the replay verdict re-run on the candidate.
    /// Falls back to [`VerifyStrategy::Full`] whenever the edit map
    /// cannot bound the candidate's effect.
    #[default]
    Incremental,
    /// Re-run the whole-stream oracle ([`check_legality`] +
    /// [`replay_verify`] + full gate-trace comparison) on every
    /// candidate — the original harness, kept as the incremental
    /// harness's differential baseline and fallback.
    Full,
}

/// The edit map a pass returns: a same-length rewritten copy of the
/// input plus per-entry deletion flags. Passes only modify entries in
/// place or delete them — never insert — so old index `i` and `out[i]`
/// always describe the same stream position, which is what lets the
/// incremental harness re-verify only the indices that changed.
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
    /// Pulse pairs merged by [mod@parallelize].
    pub merged_pulses: usize,
    /// Retract/approach pairs cancelled by [mod@fuse].
    pub cancelled_retractions: usize,
    /// Park/unpark instructions elided by [mod@park].
    pub elided_parks: usize,
    /// Moves deleted by [mod@dead].
    pub dead_moves: usize,
    /// Passes the safety harness refused (a refusal means a pass
    /// produced a stream that failed the oracle or grew it; the input
    /// was kept and the pass disabled for the rest of the run, so
    /// refusals cost performance, never correctness).
    pub rejected_rewrites: usize,
    /// Candidates whose verdict came from the windowed incremental
    /// re-verifier (0 under [`VerifyStrategy::Full`]).
    pub incremental_reverifies: usize,
    /// Candidates re-verified by the whole-stream oracle — every
    /// candidate under [`VerifyStrategy::Full`], incremental fallbacks
    /// otherwise.
    pub full_reverifies: usize,
    /// `true` if the *input* already failed the oracle, in which case
    /// the optimizer returned it untouched.
    pub skipped_unverified: bool,
}

impl OptReport {
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
/// Safety is enforced, not assumed: the input must pass
/// [`check_legality`] + [`replay_verify`] (otherwise it is returned
/// untouched with [`OptReport::skipped_unverified`] set), and after
/// every pass the candidate stream must keep the exact observable gate
/// sequence and still pass both oracle halves, or the candidate is
/// discarded. The result therefore never has more instructions or more
/// line travel than the input, and passes the oracle whenever the input
/// does.
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
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn optimize(program: &IsaProgram, level: OptLevel) -> (IsaProgram, OptReport) {
    optimize_with(program, level, VerifyStrategy::default())
}

/// [`optimize`] with an explicit re-verification strategy. The result is
/// identical under both strategies; [`VerifyStrategy::Full`] exists as
/// the differential baseline and costs a whole-stream oracle run per
/// candidate.
pub fn optimize_with(
    program: &IsaProgram,
    level: OptLevel,
    strategy: VerifyStrategy,
) -> (IsaProgram, OptReport) {
    let before = IsaStats::of(program);
    let mut report = OptReport {
        level,
        instructions_before: before.instructions,
        instructions_after: before.instructions,
        line_travel_before: before.line_travel_tracks,
        line_travel_after: before.line_travel_tracks,
        ..OptReport::default()
    };
    if level == OptLevel::None {
        return (program.clone(), report);
    }
    if check_legality(program).is_err() || replay_verify(program).is_err() {
        report.skipped_unverified = true;
        return (program.clone(), report);
    }

    let reference_trace = flat_trace(&program.instrs);
    let mut current = program.clone();
    // A pass whose candidate is refused is disabled for the rest of the
    // run: re-running it would deterministically rebuild (and re-pay the
    // oracle cost of) the same unsafe rewrite every iteration.
    let mut disabled = [false; NUM_PASSES];
    while report.iterations < MAX_ITERATIONS {
        report.iterations += 1;
        let mut changed = false;
        for &pass in level.passes() {
            if disabled[pass as usize] {
                continue;
            }
            let _pass_span = raa_trace::span(pass.span_name());
            let Some(edit) = pass.run(&current) else {
                continue;
            };
            debug_assert!(edit.rewrites > 0, "{}: rewrite without count", pass.name());
            OPT_CANDIDATES.incr();
            let kept = edit.kept();
            // The acceptance check enforces the documented guarantees
            // directly, so a buggy pass cannot break them: exact gate
            // sequence, oracle-clean, and never more instructions or
            // line travel than before the pass.
            let accepted = kept.len() < current.instrs.len()
                && match strategy {
                    VerifyStrategy::Incremental => {
                        let incremental = {
                            let _s = raa_trace::span("opt.verify.incremental");
                            verify_incremental(&current, &edit, &kept)
                        };
                        match incremental {
                            Some(verdict) => {
                                report.incremental_reverifies += 1;
                                OPT_VERIFY_INCREMENTAL.incr();
                                verdict
                            }
                            None => {
                                report.full_reverifies += 1;
                                OPT_VERIFY_FULL.incr();
                                let _s = raa_trace::span("opt.verify.full");
                                verify_full(&current, &kept, &reference_trace)
                            }
                        }
                    }
                    VerifyStrategy::Full => {
                        report.full_reverifies += 1;
                        OPT_VERIFY_FULL.incr();
                        let _s = raa_trace::span("opt.verify.full");
                        verify_full(&current, &kept, &reference_trace)
                    }
                };
            if accepted {
                OPT_ACCEPTED.incr();
                match pass {
                    PassKind::Parallelize => report.merged_pulses += edit.rewrites,
                    PassKind::CancelRetract => report.cancelled_retractions += edit.rewrites,
                    PassKind::Coalesce => report.coalesced_moves += edit.rewrites,
                    PassKind::ElidePark => report.elided_parks += edit.rewrites,
                    PassKind::DeadMove => report.dead_moves += edit.rewrites,
                }
                current.instrs = kept;
                changed = true;
            } else {
                report.rejected_rewrites += 1;
                OPT_REJECTED.incr();
                disabled[pass as usize] = true;
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
/// order, track units) as [`IsaStats::of`], shared by both verify
/// strategies so their travel comparisons cannot disagree.
fn line_travel(instrs: &[Instr]) -> f64 {
    instrs
        .iter()
        .map(|i| match i {
            Instr::MoveRow { from, to, .. } | Instr::MoveCol { from, to, .. } => (to - from).abs(),
            _ => 0.0,
        })
        .sum()
}

/// Whether `instr` is part of the observable gate-event sequence.
fn is_gate_event(instr: &Instr) -> bool {
    matches!(
        instr,
        Instr::RydbergPulse { .. }
            | Instr::RamanLayer { .. }
            | Instr::Transfer { .. }
            | Instr::Cool { .. }
    )
}

/// One atom of the flattened gate-event sequence: a pulse contributes
/// each of its pairs in order (so merging adjacent pulses with
/// concatenated pair lists preserves the sequence); Raman layers,
/// transfers and cooling swaps are whole events.
#[derive(Debug, PartialEq)]
enum FlatEvent<'a> {
    Pair(u32, u32),
    Raman(&'a [Gate]),
    Transfer(u32, u32),
    Cool(u8),
}

/// The flattened observable gate-event sequence of a stream, as
/// normalized instructions: each [`Instr::RydbergPulse`] expands to one
/// single-pair pulse per scheduled pair (in list order); Raman layers,
/// transfers and cooling swaps pass through whole. This is the
/// equivalence relation the optimizer preserves — two streams with
/// equal flattened sequences execute the same gates in the same order,
/// differing only in how pulses are grouped.
///
/// # Examples
///
/// ```
/// use raa_isa::{flat_gate_events, Instr};
///
/// let split = [
///     Instr::RydbergPulse { pairs: vec![(0, 1)] },
///     Instr::MoveRow { aod: 0, row: 0, from: 0.0, to: 1.0, retract: true },
///     Instr::RydbergPulse { pairs: vec![(2, 3)] },
/// ];
/// let merged = [Instr::RydbergPulse { pairs: vec![(0, 1), (2, 3)] }];
/// assert_eq!(flat_gate_events(&split), flat_gate_events(&merged));
/// ```
pub fn flat_gate_events(instrs: &[Instr]) -> Vec<Instr> {
    flat_trace(instrs)
        .into_iter()
        .map(|e| match e {
            FlatEvent::Pair(a, b) => Instr::RydbergPulse {
                pairs: vec![(a, b)],
            },
            FlatEvent::Raman(gates) => Instr::RamanLayer {
                gates: gates.to_vec(),
            },
            FlatEvent::Transfer(a, b) => Instr::Transfer { a, b },
            FlatEvent::Cool(aod) => Instr::Cool { aod },
        })
        .collect()
}

/// The flattened observable gate-event sequence of a stream.
/// Optimization must preserve this sequence exactly — pulses may be
/// regrouped, but no gate may be reordered, dropped or duplicated.
/// (The borrowing twin of [`flat_gate_events`], used on the hot
/// per-candidate harness path.)
fn flat_trace(instrs: &[Instr]) -> Vec<FlatEvent<'_>> {
    let mut out = Vec::new();
    for instr in instrs {
        match instr {
            Instr::RydbergPulse { pairs } => {
                out.extend(pairs.iter().map(|&(a, b)| FlatEvent::Pair(a, b)));
            }
            Instr::RamanLayer { gates } => out.push(FlatEvent::Raman(gates)),
            Instr::Transfer { a, b } => out.push(FlatEvent::Transfer(*a, *b)),
            Instr::Cool { aod } => out.push(FlatEvent::Cool(*aod)),
            _ => {}
        }
    }
    out
}

/// The original whole-stream acceptance check: travel non-increasing,
/// flattened gate trace preserved, and both oracle halves on the full
/// candidate (the replay half re-proves DAG order and exactly-once
/// execution under any pulse regrouping).
fn verify_full(current: &IsaProgram, kept: &[Instr], reference_trace: &[FlatEvent<'_>]) -> bool {
    let candidate = IsaProgram {
        instrs: kept.to_vec(),
        ..current.clone()
    };
    line_travel(&candidate.instrs) <= line_travel(&current.instrs) + 1e-12
        && flat_trace(&candidate.instrs) == reference_trace
        && check_legality(&candidate).is_ok()
        && replay_verify(&candidate).is_ok()
}

/// The incremental acceptance check.
///
/// Returns `Some(verdict)` when the edit map bounds the candidate's
/// effect, `None` when it cannot (the caller falls back to
/// [`verify_full`]). Soundness rests on `current` being oracle-verified
/// (an invariant of [`optimize_with`]: the input is checked up front and
/// every accepted candidate is proven before replacing it) and on the
/// lockstep argument: once the candidate's machine state re-converges
/// with the input's and the remaining instructions are identical, every
/// later check must reproduce the input's passing verdict.
fn verify_incremental(current: &IsaProgram, edit: &PassEdit, kept: &[Instr]) -> Option<bool> {
    let old = &current.instrs;
    if edit.out.len() != old.len() || edit.removed.len() != old.len() {
        return None; // malformed edit map: effect unbounded
    }
    let edits: Vec<usize> = (0..old.len())
        .filter(|&i| edit.removed[i] || edit.out[i] != old[i])
        .collect();
    if edits.is_empty() {
        return Some(false); // claimed a rewrite but changed nothing
    }
    // Gate-trace preservation. When no edit touches a gate event the
    // trace is untouched index-for-index, which also pins the replay
    // verdict to the input's. When gate events are edited (pulse
    // merging) the flattened sequence must be preserved and the replay
    // verdict re-proven on the candidate below — regrouping can trip
    // the verifier's slot-reuse and DAG-order rules.
    let events_edited = edits
        .iter()
        .any(|&i| is_gate_event(&old[i]) || (!edit.removed[i] && is_gate_event(&edit.out[i])));
    if events_edited && flat_trace(kept) != flat_trace(old) {
        return Some(false);
    }
    // Line travel: the same comparison as the full harness.
    if line_travel(kept) > line_travel(old) + 1e-12 {
        return Some(false);
    }
    // Lockstep legality. The init prefix and loading map are shared with
    // the (verified) input, so both machines start from the same state;
    // edits inside the init prefix cannot be bounded this way.
    let Ok((mut m_old, start)) = init_machine(current, CheckMode::Lines) else {
        return None;
    };
    if edits[0] < start {
        return None;
    }
    let Ok((mut m_new, _)) = init_machine(current, CheckMode::Lines) else {
        return None;
    };
    let mut diverged = false;
    let mut next_edit = 0usize;
    for (i, instr) in old.iter().enumerate().skip(start) {
        if next_edit < edits.len() && edits[next_edit] == i {
            diverged = true;
            next_edit += 1;
        }
        if m_old.step(i, instr, false).is_err() {
            return None; // the verified input failed to replay: bail out
        }
        if !edit.removed[i] && m_new.step(i, &edit.out[i], diverged).is_err() {
            return Some(false);
        }
        if diverged && m_new.state_eq(&m_old) {
            diverged = false;
        }
    }
    // Converged before the end: the end-of-stream checks replay the
    // input's passing verdict. Still diverged: run them on the candidate.
    if diverged && m_new.end_check(kept.len()).is_err() {
        return Some(false);
    }
    // Edited gate events: legality is proven by the lockstep replay
    // above, but the replay verdict cannot be pinned — re-prove it.
    if events_edited {
        let candidate = IsaProgram {
            instrs: kept.to_vec(),
            ..current.clone()
        };
        if replay_verify(&candidate).is_err() {
            return Some(false);
        }
    }
    Some(true)
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

#[derive(Clone)]
struct AodTrack {
    rows: Vec<f64>,
    cols: Vec<f64>,
    home_rows: Vec<f64>,
    home_cols: Vec<f64>,
    parked: bool,
}

/// Replays line positions and parked flags through a stream, exactly
/// like the legality checker's machine model. Passes use it to reason
/// about the *output* stream: apply only the instructions they keep.
///
/// All accessors return `Option` so a pass can abort (`None` = rewrite
/// nothing) on a stream it does not understand, rather than panic.
#[derive(Clone)]
pub(crate) struct Tracker {
    aods: Vec<AodTrack>,
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
                    aods.push(AodTrack {
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

    /// Two slots: s0 on SLM[0,0], s1 on AOD0[0,0]; `stages` CZ pulses,
    /// each approached with `split`-segment moves and retracted home.
    pub(crate) fn movement_program(stages: usize, split: usize) -> IsaProgram {
        let mut c = Circuit::new(2);
        for _ in 0..stages {
            c.push(Gate::cz(Qubit(0), Qubit(1)));
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
        for _ in 0..stages {
            let mut at = 0.6;
            for s in 0..split {
                let to = if s + 1 == split {
                    0.05
                } else {
                    at - (at - 0.05) / 2.0
                };
                instrs.push(Instr::MoveRow {
                    aod: 0,
                    row: 0,
                    from: at,
                    to,
                    retract: false,
                });
                at = to;
            }
            instrs.push(Instr::MoveCol {
                aod: 0,
                col: 0,
                from: 0.4,
                to: 0.08,
                retract: false,
            });
            instrs.push(Instr::RydbergPulse {
                pairs: vec![(0, 1)],
            });
            instrs.push(Instr::MoveRow {
                aod: 0,
                row: 0,
                from: 0.05,
                to: 0.6,
                retract: true,
            });
            instrs.push(Instr::MoveCol {
                aod: 0,
                col: 0,
                from: 0.08,
                to: 0.4,
                retract: true,
            });
        }
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
    fn optimization_preserves_the_flattened_gate_trace() {
        let p = movement_program(4, 2);
        let (out, _) = optimize(&p, OptLevel::Aggressive);
        assert_eq!(flat_trace(&out.instrs), flat_trace(&p.instrs));
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

    #[test]
    fn basic_is_a_subset_of_aggressive() {
        let p = movement_program(3, 3);
        let (basic, _) = optimize(&p, OptLevel::Basic);
        let (aggressive, _) = optimize(&p, OptLevel::Aggressive);
        assert!(aggressive.instrs.len() <= basic.instrs.len());
        assert!(basic.instrs.len() <= p.instrs.len());
    }

    #[test]
    fn parse_flag_accepts_both_spellings() {
        assert_eq!(OptLevel::parse_flag("-O2"), Some(OptLevel::Aggressive));
        assert_eq!(OptLevel::parse_flag("0"), Some(OptLevel::None));
        assert_eq!(OptLevel::parse_flag("basic"), Some(OptLevel::Basic));
        assert_eq!(OptLevel::parse_flag("-O9"), None);
    }
}
