//! # nsc — reproduction of *Efficient Compilation of High-Level Data
//! Parallel Algorithms* (Suciu & Tannen, 1994)
//!
//! This facade crate re-exports the whole system:
//!
//! * [`core`] — the NSC calculus: AST, type checker, the
//!   Definition 3.1 cost-instrumented evaluator, the section-3 standard
//!   library, the Theorem 4.2 map-recursion translation, and the surface
//!   syntax (`core::parse`, the inverse of the pretty-printer — see the
//!   `nsc` CLI in `src/bin/nsc.rs` for the `.nsc` file driver);
//! * [`algebra`] — NSA (Appendix C), the flat Sequence
//!   Algebra (Appendix D), the `SEQ` encoding and Map Lemma (Lemma 7.2),
//!   and the flattening translation (Proposition 7.4);
//! * [`compile`] — SA → BVRAM code generation
//!   (Proposition 7.5) and the full Theorem 7.1 pipeline;
//! * [`runtime`] — the serving layer: the compile-once
//!   program cache and the pack/lanes batch runner (see the README's
//!   "Serving and batching" section);
//! * [`serve`] — the adaptive micro-batching request server
//!   (`nsc serve`): bounded admission queues, batcher shards that batch
//!   what is queued, per-shard metrics, and the newline-delimited JSON
//!   fronts;
//! * [`machine`] — the Bounded Vector Random Access Machine: one
//!   interpreter, and lanes that run one program over many requests on
//!   worker threads;
//! * [`net`] — the Proposition 2.1 butterfly-network bound;
//! * [`sched`] — the Proposition 3.2 CREW-with-scan Brent
//!   simulation;
//! * [`algorithms`] — Valiant's `O(log n log log n)`
//!   mergesort (Figures 1–3) and friends.
//!
//! See `README.md` for a tour; `cargo run --release -p nsc-bench --bin
//! exp all` prints the paper-vs-measured record.

pub use butterfly as net;
pub use bvram as machine;
pub use nsc_algebra as algebra;
pub use nsc_algorithms as algorithms;
pub use nsc_compile as compile;
pub use nsc_core as core;
pub use nsc_runtime as runtime;
pub use nsc_serve as serve;
pub use pram as sched;
