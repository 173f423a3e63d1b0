//! Loop trip-count certificates carried through the pipeline.
//!
//! The symbolic cost analyzer (`bvram::cost`) needs an upper bound on
//! how many times each compiled loop iterates.  Those bounds originate
//! at the *source* level — a front end can prove a `while` terminates in
//! a bounded number of steps (e.g. a counter halved each iteration, or a
//! sequence shrunk by one element) — and must survive the NSC → NSA →
//! SA → BVRAM translations.  A [`Trip`] rides on each `while` node and
//! is rewritten at each stage:
//!
//! * In **NSA** the bound may reference a component of the loop state by
//!   a projection *path* ([`Trip::LenPath`]); the NSC → NSA translation
//!   re-roots paths under `π₁` because the NSA loop state is `(x, ⟨Γ⟩)`.
//! * The flattening translation passes the path through unchanged.
//! * Code generation walks the path over the flat state type to the
//!   register block of the addressed component, using the invariant that
//!   the first register of any sequence encoding has length exactly the
//!   source sequence's length, and turns the certificate into a
//!   `bvram::program::TripHint` on the loop's back-edge jump.
//!
//! `Unknown` is always a sound default (the analyzer reports `⊤`).

/// One step of a projection path into a product-typed loop state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// First component.
    P1,
    /// Second component.
    P2,
}

/// An upper bound on a loop's back-edge traversals per entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Trip {
    /// At most `n` iterations, independent of input (e.g. a 64-bit
    /// counter halved each trip).
    Const(u64),
    /// At most `length(π(state)) + 1` iterations, where `π` is a
    /// projection path to a sequence component of the loop state at
    /// entry (code generation resolves the path to a register).
    LenPath(Vec<Step>),
    /// No certificate; the cost analyzer reports `⊤` for the loop.
    Unknown,
}

impl Trip {
    /// Re-roots a path-based bound under an extra leading step (used by
    /// the NSC → NSA translation, whose loop state is `(x, ⟨Γ⟩)`).
    pub fn under(self, step: Step) -> Trip {
        match self {
            Trip::LenPath(mut p) => {
                p.insert(0, step);
                Trip::LenPath(p)
            }
            other => other,
        }
    }
}
