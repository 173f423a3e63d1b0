//! # bvram — the Bounded Vector Random Access Machine
//!
//! The target machine of Suciu & Tannen 1994 (section 2): a vector
//! parallel model with
//!
//! * a **fixed number of vector registers** (no run-time vector stack —
//!   the motivation for the paper's whole compilation strategy), and
//! * **weak communication primitives**: monotone routing (`bm_route`,
//!   `sbm_route`), `append`, packing selection `σ` — no general
//!   permutation, so every instruction runs in `O(log n)` steps on a
//!   butterfly with oblivious routing (Proposition 2.1, see the
//!   `butterfly` crate).
//!
//! Cost model: `T` = instructions executed, `W` = Σ lengths of the input
//! and output registers of each executed instruction.
//!
//! One interpreter, [`exec::Machine`], runs every program.  Host
//! parallelism is across requests ([`lanes`]: one warm machine per worker
//! thread), not inside an instruction.
#![warn(missing_docs)]

pub mod analysis;
pub mod cfg;
pub mod cost;
pub mod exec;
pub mod fuzz;
pub mod instr;
pub mod lanes;
pub mod program;
pub mod verify;

pub use cost::{cost_program, CostBound, CostReport, Poly};
pub use exec::{run_program, Machine, MachineError, RunOutcome, Stats, Vector};
pub use instr::{Inputs, Instr, Label, Op, Reg};
pub use lanes::{run_lanes_rayon, run_lanes_seq};
pub use program::{BuildError, Builder, Program, TripBound, TripHint};
pub use verify::{verify_program, verify_program_basic, Report, Violation};
