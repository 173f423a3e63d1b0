//! # nsc-compile — code generation and the Theorem 7.1 pipeline
//!
//! The back half of Suciu & Tannen 1994's compilation: the Sequence
//! Algebra is lowered onto the BVRAM ([`codegen`], Proposition 7.5) behind
//! the fixed register layout of [`layout`], and [`pipeline`] chains the
//! entire Theorem 7.1 translation NSC → NSA → SA → BVRAM with
//! encode/decode plumbing and differential testing against the NSC
//! evaluator.
#![warn(missing_docs)]

pub mod codegen;
pub mod layout;
pub mod opt;
pub mod pipeline;

pub use codegen::compile_sa;
pub use opt::{optimize, optimize_checked, OptLevel, PassError};
pub use pipeline::{
    compile_nsc, compile_nsc_with, decode_result, differential, encode_arg, eval_error_of,
    run_compiled, run_encoded, run_program_on, Backend, Compiled, OPT_BUDGET,
};
