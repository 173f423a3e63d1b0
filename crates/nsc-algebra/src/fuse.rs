//! An identity stand-in for the deleted source-level map-fusion pass.
//!
//! The compiler is the paper's three translations plus the BVRAM
//! optimizer; nothing rewrites NSC source before variable elimination.
//! [`fuse_func`] is kept only because `bench/src/replay.rs` names it as a
//! span of its staged lowering and `bench/` is frozen; ROADMAP item 1
//! removes it.

use nsc_core::ast::Func;

/// [`fuse_func`]'s result: the function, unchanged.
#[derive(Debug, Clone)]
pub struct Fused {
    /// The function passed to [`fuse_func`].
    pub func: Func,
}

/// Returns `f` unchanged.
pub fn fuse_func(f: &Func) -> Fused {
    Fused { func: f.clone() }
}
