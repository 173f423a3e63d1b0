//! # nsc-algebra — the intermediate languages of the compilation pipeline
//!
//! Section 7 and Appendices C/D of Suciu & Tannen 1994:
//!
//! * [`nsa`] — the variable-free **Nested Sequence Algebra** and the
//!   NSC → NSA translation (Proposition C.1);
//! * [`sa`] — the flat **Sequence Algebra**, the `SEQ(t)`
//!   segment-descriptor encoding, the **Map Lemma** (Lemma 7.2), and the
//!   flattening translation `COMPILE` (Proposition 7.4).
//!
//! [`fuse`] holds only a pin: an identity stand-in for the deleted
//! source-level map-fusion pass.
#![warn(missing_docs)]

pub mod fuse;
pub mod nsa;
pub mod sa;
pub mod trip;

pub use nsa::{apply as nsa_apply, Nsa};
pub use sa::{apply_sa, Sa};
pub use trip::{Step, Trip};
