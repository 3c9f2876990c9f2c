//! The service's error taxonomy. Every failure a client can observe is
//! one of these variants; [`ServeError::kind`] is the stable
//! machine-readable tag the JSON front puts in `error.kind`.

use raa_circuit::qasm::QasmError;
use raa_circuit::CircuitError;
use raa_isa::DecodeError;

/// Anything that can go wrong between accepting a request and handing
/// back verified ISA bytes.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The bounded job queue cannot admit the batch; the client should
    /// back off and retry (HTTP 429).
    QueueFull {
        /// Jobs in flight when the batch arrived.
        depth: usize,
        /// The configured queue bound.
        capacity: usize,
    },
    /// The request document is well-formed JSON but violates the API
    /// shape (missing fields, bad override values, …).
    BadRequest {
        /// What was wrong.
        message: String,
    },
    /// A job's `qasm` source failed to parse.
    Qasm(QasmError),
    /// A job's gate list was structurally valid but built an invalid
    /// circuit (e.g. a gate index past `num_qubits`).
    Circuit(CircuitError),
    /// The request body (or an embedded gate list) failed to decode;
    /// carries the byte offset via [`DecodeError`].
    Decode(DecodeError),
    /// The compiler rejected the job, or panicked on it. Reported per
    /// job, inside an HTTP 200.
    Compile {
        /// The rendered [`atomique::CompileError`].
        message: String,
    },
    /// The job's compile overran its deadline. Reported per job,
    /// inside an HTTP 200.
    DeadlineExceeded {
        /// The stage boundary where the compile overran.
        stage: String,
    },
    /// The engine is draining for shutdown and no longer admits new
    /// batches (HTTP 503); in-flight jobs still complete.
    Draining,
}

impl ServeError {
    /// The stable machine-readable tag for this error class, as used in
    /// the JSON `error.kind` field and documented in `docs/SERVICE.md`.
    pub fn kind(&self) -> &'static str {
        match self {
            ServeError::QueueFull { .. } => "queue_full",
            ServeError::BadRequest { .. } => "bad_request",
            ServeError::Qasm(_) => "qasm",
            ServeError::Circuit(_) => "circuit",
            ServeError::Decode(_) => "decode",
            ServeError::Compile { .. } => "compile",
            ServeError::DeadlineExceeded { .. } => "deadline",
            ServeError::Draining => "draining",
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::QueueFull { depth, capacity } => write!(
                f,
                "job queue full ({depth} in flight, capacity {capacity}); retry later"
            ),
            ServeError::BadRequest { message } => write!(f, "bad request: {message}"),
            ServeError::Qasm(e) => write!(f, "qasm error: {e}"),
            ServeError::Circuit(e) => write!(f, "circuit error: {e}"),
            ServeError::Decode(e) => write!(f, "decode error: {e}"),
            ServeError::Compile { message } => write!(f, "compile error: {message}"),
            ServeError::DeadlineExceeded { stage } => {
                write!(
                    f,
                    "compile deadline exceeded (last overrun at stage `{stage}`)"
                )
            }
            ServeError::Draining => {
                write!(f, "service draining for shutdown; not accepting new work")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<QasmError> for ServeError {
    fn from(e: QasmError) -> Self {
        ServeError::Qasm(e)
    }
}

impl From<CircuitError> for ServeError {
    fn from(e: CircuitError) -> Self {
        ServeError::Circuit(e)
    }
}

impl From<DecodeError> for ServeError {
    fn from(e: DecodeError) -> Self {
        ServeError::Decode(e)
    }
}
