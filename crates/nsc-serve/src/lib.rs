//! # nsc-serve — an adaptive micro-batching request server
//!
//! PR 4's runtime made batches *cheap* (`nsc_runtime::BatchRunner`
//! amortizes the compiled program's `T'` across `B` requests); this crate
//! makes batches *form*.  Real traffic arrives one request at a time, so
//! the server sits between callers and the batch runner:
//!
//! * [`server::Server`] — the function registry and shard directory.
//!   Callers [`Server::submit`](server::Server::submit) one request
//!   (function name + NSC value literal text) and get the reply through a
//!   callback; requests are routed to a **shard** per function.
//! * [`shard`] — each shard owns a *bounded* MPSC admission queue (a full
//!   queue rejects with [`ServeError::Overloaded`] instead of growing
//!   without bound) and a batcher thread with **one flush rule**: block
//!   for one request, take whatever else is already queued (up to
//!   `max_batch`), execute, repeat — batches form from the backlog, never
//!   from waiting.  Flushed batches run on
//!   [`BatchRunner::run_batch`](nsc_runtime::BatchRunner::run_batch),
//!   which runs the shard's static discipline (pack for straight-line
//!   programs, lanes — on the rayon worker pool — for everything else).
//! * [`metrics`] — per-shard counters (queue depth, batch-size histogram,
//!   p50/p99 latency, pack-vs-lanes-vs-fused counts) exposed as a
//!   [`metrics::Snapshot`].
//! * [`front`] — the newline-delimited-JSON front ends: a `std::net` TCP
//!   listener (`nsc serve --addr …`) and a pipe-driven reader
//!   (`nsc serve --stdin`), both with graceful drain on shutdown.
//! * [`json`] / [`protocol`] — the (dependency-free) wire format:
//!   `{"fn": …, "input": …}` → `{"output": …}` / `{"error": …, "kind": …}`.
//!
//! Batching stays **semantically invisible**: a request routed through
//! the server returns the same pretty-printed value — and the same
//! `Ω`-vs-machine-fault error classification — as a direct single run of
//! the compiled program (property-tested over the runnable stdlib in
//! `tests/serve_equiv.rs`, with FIFO reply order per shard locked down in
//! `tests/serve_props.rs`).
//!
//! ### Threading
//!
//! `Func` and `Type` are `Arc`-based, so a registered function is handed
//! to its shard's batcher thread as it is; the batcher compiles it on its
//! own big stack through the shared [`nsc_runtime::CompiledCache`] and
//! owns the resulting `BatchRunner`.  `Value`s stay `Rc`-based and never
//! cross a thread: inputs travel as value-literal *text* (parsed on the
//! batcher thread), outputs travel pretty-printed, and the lanes pool is
//! fed plain `u64` registers.
#![warn(missing_docs)]

pub mod front;
pub mod json;
pub mod metrics;
pub mod protocol;
pub mod server;
pub mod shard;

pub use metrics::Snapshot;
pub use server::{ServeConfig, Server};
pub use shard::Reply;

use nsc_core::error::EvalError;
use std::fmt;

/// Why a request was not answered with an output.
///
/// [`ServeError::kind`] is the wire-level classification (`"kind"` in
/// error responses); the `Eval` variant preserves the runtime's exact
/// error so `Ω`-vs-machine-fault classification survives the trip
/// through the server bit-identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The shard's admission queue is full — backpressure, try later.
    Overloaded,
    /// The server is draining; no new requests are admitted.
    ShuttingDown,
    /// No function with that name is registered.
    UnknownFunction(String),
    /// The request line is not a well-formed protocol message.
    BadRequest(String),
    /// The `input` field does not parse as an NSC value literal.
    InvalidInput(String),
    /// The input value does not inhabit the function's domain type.
    Domain {
        /// The offending input, as submitted.
        value: String,
        /// The function's domain type.
        dom: String,
    },
    /// The function failed to compile (negatively cached; every request
    /// to this shard reports the same error).
    Compile(String),
    /// The compiled program's verdict for this request — `Ω` divergence,
    /// a machine fault, or another evaluation error, exactly as a single
    /// run would classify it.
    Eval(EvalError),
    /// The batch this request ran in panicked; the shard keeps serving.
    Internal(String),
}

impl ServeError {
    /// The wire-level error class (the `"kind"` field of error replies).
    pub fn kind(&self) -> &'static str {
        match self {
            ServeError::Overloaded => "overloaded",
            ServeError::ShuttingDown => "shutdown",
            ServeError::UnknownFunction(_) => "unknown-fn",
            ServeError::BadRequest(_) => "bad-request",
            ServeError::InvalidInput(_) => "parse",
            ServeError::Domain { .. } => "domain",
            ServeError::Compile(_) => "compile",
            ServeError::Eval(EvalError::Omega) => "omega",
            ServeError::Eval(EvalError::MachineFault(_)) => "fault",
            ServeError::Eval(_) => "eval",
            ServeError::Internal(_) => "internal",
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded => write!(f, "admission queue full"),
            ServeError::ShuttingDown => write!(f, "server is draining"),
            ServeError::UnknownFunction(name) => write!(f, "unknown function `{name}`"),
            ServeError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServeError::InvalidInput(msg) => write!(f, "unparseable input: {msg}"),
            ServeError::Domain { value, dom } => {
                write!(f, "input {value} does not inhabit the domain {dom}")
            }
            ServeError::Compile(msg) => write!(f, "compilation failed: {msg}"),
            ServeError::Eval(e) => write!(f, "{e}"),
            ServeError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_classify_omega_vs_fault() {
        assert_eq!(ServeError::Eval(EvalError::Omega).kind(), "omega");
        assert_eq!(
            ServeError::Eval(EvalError::MachineFault("bad route".into())).kind(),
            "fault"
        );
        assert_eq!(ServeError::Eval(EvalError::DivisionByZero).kind(), "eval");
        assert_eq!(ServeError::Overloaded.kind(), "overloaded");
    }

    #[test]
    fn serve_error_is_send() {
        fn assert_send<T: Send + Sync>() {}
        assert_send::<ServeError>();
    }
}
