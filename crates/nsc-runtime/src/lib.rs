//! # nsc-runtime — the batched execution runtime
//!
//! The Theorem 7.1 pipeline compiles one NSC function into one BVRAM
//! program; this crate is the serving layer that makes compiled programs
//! *cheap at scale*:
//!
//! * [`cache::CompiledCache`] — a thread-safe compile-once cache keyed by
//!   `(function, opt level)`.  Each entry holds the optimized
//!   program **and** the function's Map-Lemma batch kernel `map(f)`,
//!   compiled alongside it.
//! * [`batch::BatchRunner`] — executes `B` independent requests against
//!   one cached entry, either *packed* (one fused BVRAM run of `map(f)`
//!   over lane-offset registers — the paper's flattening aggregation
//!   applied to request batching) or as *lanes* (rayon-parallel
//!   per-request runs).  Which one is a static property of the cache
//!   entry: pack iff the compiled program and its kernel are
//!   straight-line (no jumps), lanes otherwise; `nsc run --batch N`
//!   prints it with the structural fact that chose it.
//! * [`workloads`] — the shared program builders every test and
//!   experiment constructs its subjects from.
//!
//! This crate keeps no clock: how fast a discipline serves is measured
//! end to end by `bench/` (declared by `BENCHMARK.json`).
//!
//! The batch modes are **semantically invisible**: per-request results —
//! values and error classification — are bit-identical to a loop of
//! single runs (property-tested over random programs in
//! `tests/batch_equiv.rs` and over the whole stdlib in the workspace's
//! `tests/roster/batch_equiv.rs`).
#![warn(missing_docs)]

pub mod batch;
pub mod cache;
pub mod workloads;

pub use batch::{BatchMode, BatchOutcome, BatchRunner};
pub use cache::{CacheKey, CachedProgram, CompileHook, CompiledCache, KERNEL_OPT_BUDGET};
