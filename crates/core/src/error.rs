//! Error type for the Atomique compiler pipeline.

use std::error::Error;
use std::fmt;

use raa_arch::ArchError;
use raa_circuit::CircuitError;
use raa_sabre::SabreError;

/// Errors produced by [`compile`](crate::compile).
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// The circuit does not fit on the configured hardware.
    Capacity {
        /// Qubits in the circuit.
        required: usize,
        /// Total traps available.
        available: usize,
    },
    /// Hardware description problem.
    Arch(ArchError),
    /// Circuit validation problem.
    Circuit(CircuitError),
    /// Intra-array SWAP insertion failed.
    Routing(SabreError),
    /// The emitted instruction stream failed the independent legality
    /// checker (requested via `AtomiqueConfig::verify_isa`).
    IsaLegality(raa_isa::LegalityError),
    /// The emitted instruction stream failed the replay verifier
    /// (requested via `AtomiqueConfig::verify_isa`).
    IsaReplay(raa_isa::ReplayError),
    /// The compile exceeded the caller-imposed wall-clock deadline
    /// (see [`CompileLimits`](crate::CompileLimits)); names the stage
    /// boundary where the overrun was observed.
    Deadline {
        /// Stage boundary at which the overrun was detected.
        stage: &'static str,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Capacity {
                required,
                available,
            } => write!(
                f,
                "circuit needs {required} qubits but the machine holds {available} atoms"
            ),
            CompileError::Arch(e) => write!(f, "hardware error: {e}"),
            CompileError::Circuit(e) => write!(f, "circuit error: {e}"),
            CompileError::Routing(e) => write!(f, "swap insertion failed: {e}"),
            CompileError::IsaLegality(e) => write!(f, "ISA legality check failed: {e}"),
            CompileError::IsaReplay(e) => write!(f, "ISA replay verification failed: {e}"),
            CompileError::Deadline { stage } => {
                write!(f, "compile deadline exceeded at stage `{stage}`")
            }
        }
    }
}

impl Error for CompileError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CompileError::Arch(e) => Some(e),
            CompileError::Circuit(e) => Some(e),
            CompileError::Routing(e) => Some(e),
            CompileError::IsaLegality(e) => Some(e),
            CompileError::IsaReplay(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ArchError> for CompileError {
    fn from(e: ArchError) -> Self {
        CompileError::Arch(e)
    }
}

impl From<CircuitError> for CompileError {
    fn from(e: CircuitError) -> Self {
        CompileError::Circuit(e)
    }
}

impl From<SabreError> for CompileError {
    fn from(e: SabreError) -> Self {
        CompileError::Routing(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = CompileError::Capacity {
            required: 400,
            available: 300,
        };
        assert!(e.to_string().contains("400"));
        assert!(e.source().is_none());
        let e: CompileError = SabreError::Disconnected.into();
        assert!(e.source().is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CompileError>();
    }
}
