//! Error types of the ISA subsystem.

use std::fmt;

/// A gate could not be encoded as JSON
/// ([`codec::gate_to_json`](crate::codec::gate_to_json)). The binary
/// codec stores raw bits and never fails.
#[derive(Debug, Clone, PartialEq)]
pub enum EncodeError {
    /// A float field is NaN or infinite, which JSON cannot represent.
    NonFiniteNumber {
        /// Which field held the value.
        field: &'static str,
    },
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::NonFiniteNumber { field } => {
                write!(f, "cannot encode non-finite number in field `{field}`")
            }
        }
    }
}

impl std::error::Error for EncodeError {}

/// A byte stream or JSON document could not be decoded.
#[derive(Debug, Clone, PartialEq)]
pub enum DecodeError {
    /// The binary magic bytes did not match.
    BadMagic,
    /// The format version is not [`crate::FORMAT_VERSION`].
    UnsupportedVersion {
        /// The version found.
        found: u32,
    },
    /// The input ended mid-value.
    UnexpectedEnd {
        /// Byte offset at which more input was needed (for truncated
        /// input this is the input length).
        offset: usize,
        /// Which field or structure was being decoded.
        context: &'static str,
    },
    /// Bytes remained after the program was fully decoded.
    TrailingData {
        /// How many bytes remained.
        bytes: usize,
    },
    /// An unknown instruction or gate tag was found.
    BadTag {
        /// The offending tag byte or name.
        tag: String,
        /// Byte offset of the tag.
        offset: usize,
    },
    /// A string field held invalid UTF-8.
    BadUtf8 {
        /// Byte offset of the string field.
        offset: usize,
    },
    /// JSON-level syntax or structure problem.
    Json {
        /// Byte offset of the problem.
        offset: usize,
        /// What went wrong.
        message: String,
    },
    /// The decoded program is structurally invalid (e.g. a gate
    /// referencing a slot outside the register).
    Structure {
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "not a raa-isa binary stream (bad magic)"),
            DecodeError::UnsupportedVersion { found } => {
                write!(f, "unsupported raa-isa format version {found}")
            }
            DecodeError::UnexpectedEnd { offset, context } => {
                write!(f, "unexpected end of input at byte {offset} (in {context})")
            }
            DecodeError::TrailingData { bytes } => {
                write!(f, "{bytes} trailing bytes after program")
            }
            DecodeError::BadTag { tag, offset } => {
                write!(f, "unknown tag `{tag}` at byte {offset}")
            }
            DecodeError::BadUtf8 { offset } => {
                write!(f, "invalid UTF-8 in string field at byte {offset}")
            }
            DecodeError::Json { offset, message } => {
                write!(f, "JSON error at byte {offset}: {message}")
            }
            DecodeError::Structure { message } => write!(f, "invalid program: {message}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// A hardware-constraint violation found by
/// [`check_legality`](crate::check_legality).
#[derive(Debug, Clone, PartialEq)]
pub enum LegalityError {
    /// A non-init instruction appeared before the machine was declared,
    /// an init appeared twice, or the stream references an undeclared
    /// array/line/slot.
    Malformed {
        /// Instruction index (`usize::MAX` for header problems).
        pc: usize,
        /// What went wrong.
        message: String,
    },
    /// C1: a pulsed pair was farther apart than the blockade radius.
    PairTooFar {
        /// Instruction index of the pulse.
        pc: usize,
        /// The slot pair.
        pair: (u32, u32),
        /// Their distance in track units.
        distance: f64,
    },
    /// C1: two slots not scheduled to interact were within the blockade
    /// radius at a pulse (or after the post-pulse retraction).
    UnwantedInteraction {
        /// Instruction index at which the proximity was detected.
        pc: usize,
        /// The offending pair.
        pair: (u32, u32),
        /// Their distance in track units.
        distance: f64,
    },
    /// C2: a row/column order inversion within one AOD.
    OrderViolation {
        /// Instruction index of the pulse that observed the inversion.
        pc: usize,
        /// AOD index.
        aod: u8,
        /// `true` for rows, `false` for columns.
        rows: bool,
    },
    /// C3: two adjacent rows/columns of one AOD closer than the blockade
    /// radius (their atoms would interact).
    LineOverlap {
        /// Instruction index of the pulse that observed the overlap.
        pc: usize,
        /// AOD index.
        aod: u8,
        /// `true` for rows, `false` for columns.
        rows: bool,
        /// The offending gap in track units.
        gap: f64,
    },
}

impl fmt::Display for LegalityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LegalityError::Malformed { pc, message } => {
                write!(f, "instr {pc}: malformed stream: {message}")
            }
            LegalityError::PairTooFar { pc, pair, distance } => write!(
                f,
                "instr {pc}: C1 violated: pulsed pair (s{}, s{}) is {distance:.3} tracks apart",
                pair.0, pair.1
            ),
            LegalityError::UnwantedInteraction { pc, pair, distance } => write!(
                f,
                "instr {pc}: C1 violated: unwanted interaction between s{} and s{} at {distance:.3} tracks",
                pair.0, pair.1
            ),
            LegalityError::OrderViolation { pc, aod, rows } => write!(
                f,
                "instr {pc}: C2 violated: AOD{aod} {} order inverted",
                if *rows { "row" } else { "column" }
            ),
            LegalityError::LineOverlap { pc, aod, rows, gap } => write!(
                f,
                "instr {pc}: C3 violated: AOD{aod} adjacent {} only {gap:.3} tracks apart",
                if *rows { "rows" } else { "columns" }
            ),
        }
    }
}

impl std::error::Error for LegalityError {}

/// A gate-equivalence failure found by
/// [`replay_verify`](crate::replay_verify).
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayError {
    /// A pulsed/transferred slot pair matches no executable gate of the
    /// reference circuit (unknown pair, dependency not yet satisfied, or
    /// the gate already executed).
    UnmatchedPair {
        /// Instruction index.
        pc: usize,
        /// The slot pair.
        pair: (u32, u32),
    },
    /// A Raman gate matches no executable one-qubit gate of the
    /// reference circuit.
    UnmatchedOneQubit {
        /// Instruction index.
        pc: usize,
        /// The gate, rendered.
        gate: String,
    },
    /// A slot appeared more than once within a single pulse.
    SlotReuseInPulse {
        /// Instruction index.
        pc: usize,
        /// The slot.
        slot: u32,
    },
    /// A slot index outside the register appeared.
    SlotOutOfRange {
        /// Instruction index.
        pc: usize,
        /// The slot.
        slot: u32,
    },
    /// The stream ended with reference gates still unexecuted.
    MissingGates {
        /// How many gates never executed.
        remaining: usize,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::UnmatchedPair { pc, pair } => write!(
                f,
                "instr {pc}: pair (s{}, s{}) matches no executable reference gate",
                pair.0, pair.1
            ),
            ReplayError::UnmatchedOneQubit { pc, gate } => {
                write!(
                    f,
                    "instr {pc}: `{gate}` matches no executable reference gate"
                )
            }
            ReplayError::SlotReuseInPulse { pc, slot } => {
                write!(f, "instr {pc}: slot s{slot} pulsed twice in one stage")
            }
            ReplayError::SlotOutOfRange { pc, slot } => {
                write!(f, "instr {pc}: slot s{slot} outside the register")
            }
            ReplayError::MissingGates { remaining } => {
                write!(
                    f,
                    "stream ended with {remaining} reference gates unexecuted"
                )
            }
        }
    }
}

impl std::error::Error for ReplayError {}

/// An abstract schedule could not be lowered to an instruction stream.
#[derive(Debug, Clone, PartialEq)]
pub enum LowerError {
    /// A scheduled gate index does not exist or is not a two-qubit gate.
    NotTwoQubit {
        /// The gate index.
        gate: usize,
    },
    /// A scheduled gate was not executable at its position (dependencies
    /// not yet satisfied or executed twice).
    NotExecutable {
        /// The gate index.
        gate: usize,
    },
    /// The schedule ended with two-qubit gates still unexecuted.
    Incomplete {
        /// How many gates remained.
        remaining: usize,
    },
    /// The lowerer's own bookkeeping went inconsistent (e.g. the
    /// replay tracker and the stage list disagree on how many gates
    /// executed). Always a bug in the caller or the lowerer, never a
    /// property of the input circuit.
    Internal {
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LowerError::NotTwoQubit { gate } => {
                write!(
                    f,
                    "scheduled gate {gate} is not a two-qubit gate of the circuit"
                )
            }
            LowerError::NotExecutable { gate } => write!(
                f,
                "scheduled gate {gate} is not executable at its schedule position"
            ),
            LowerError::Incomplete { remaining } => {
                write!(f, "schedule left {remaining} two-qubit gates unexecuted")
            }
            LowerError::Internal { message } => {
                write!(f, "lowering invariant violated: {message}")
            }
        }
    }
}

impl std::error::Error for LowerError {}
