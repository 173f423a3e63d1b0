//! BVRAM programs and a label-resolving builder.
//!
//! A program `P` is a sequence of labeled instructions together with its
//! input/output register conventions `r_in`, `r_out` (the paper: "P expects
//! r_i inputs in the registers V1, …, V_{r_i} and returns r_o outputs in
//! V1, …, V_{r_o}").  We index registers from 0.

use crate::instr::{Instr, Label, Reg};
use std::collections::HashMap;
use std::fmt;

/// A complete BVRAM program.
#[derive(Debug, Clone)]
pub struct Program {
    /// The instruction sequence (labels resolved to indices).
    pub instrs: Vec<Instr>,
    /// Number of registers the program uses.
    pub n_regs: usize,
    /// Number of input registers (`V0 … V_{r_in - 1}`).
    pub r_in: usize,
    /// Number of output registers (`V0 … V_{r_out - 1}`).
    pub r_out: usize,
    /// Loop trip-count certificates emitted by a compiler (see
    /// [`TripHint`]).  Metadata only: execution ignores them, the
    /// symbolic cost analyzer ([`crate::cost`]) consumes them.  An empty
    /// vector is always valid (every loop is then treated as unbounded).
    pub trip_hints: Vec<TripHint>,
}

/// An upper bound on how many times a loop back edge is traversed per
/// entry to the loop, in terms of the machine state *at loop entry*.
///
/// Soundness contract (on the emitter): on every run of the program
/// that terminates successfully, the back edge executes at most this
/// many times per loop entry.  Runs that fault or diverge are
/// unconstrained — the cost analyzer only bounds successful runs,
/// mirroring how [`crate::Stats`] are only produced on success.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TripBound {
    /// At most `n` traversals, independent of input.
    Const(u64),
    /// At most `len(reg) + 1` traversals, where `len(reg)` is the
    /// length of `reg` when control first enters the loop head.
    Len {
        /// The register whose entry length bounds the trip count.
        reg: Reg,
    },
}

/// A trip-count certificate: `pc` is the program counter of a loop's
/// back-edge jump (`Goto`/`IfEmptyGoto`), `bound` caps how often that
/// edge is traversed per loop entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TripHint {
    /// Program counter of the back-edge jump instruction.
    pub pc: u32,
    /// The traversal bound.
    pub bound: TripBound,
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "; bvram program: {} instrs, {} regs, in={}, out={}",
            self.instrs.len(),
            self.n_regs,
            self.r_in,
            self.r_out
        )?;
        for (i, ins) in self.instrs.iter().enumerate() {
            writeln!(f, "{i:5}: {ins}")?;
        }
        Ok(())
    }
}

/// A malformed program caught at [`Builder::build`] time.
///
/// Label resolution used to `panic!` on these, which meant any consumer
/// feeding the builder untrusted or generated input (the fuzzer, a surface
/// front end) aborted the process instead of getting an error value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// A jump references a label that was never defined.
    UndefinedLabel(String),
    /// The same label was defined at two positions.
    DuplicateLabel(String),
    /// A pending label points at an instruction that is not a jump
    /// (internal builder misuse).
    PendingOnNonJump {
        /// Index of the offending instruction.
        at: usize,
        /// Its rendering.
        instr: String,
    },
    /// The resolved program failed the verifier's structural checks
    /// ([`crate::verify::check_structure`] — the single source of truth
    /// for what "well-formed" means, shared with the static verifier).
    Malformed(String),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::UndefinedLabel(name) => write!(f, "undefined label `{name}`"),
            BuildError::DuplicateLabel(name) => write!(f, "duplicate label `{name}`"),
            BuildError::PendingOnNonJump { at, instr } => {
                write!(f, "pending label on non-jump instruction {at}: {instr}")
            }
            BuildError::Malformed(what) => write!(f, "malformed program: {what}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// A builder with symbolic labels and automatic register counting.
#[derive(Debug, Default)]
pub struct Builder {
    instrs: Vec<Instr>,
    /// Placeholders: instruction index → label name to patch.
    pending: Vec<(usize, String)>,
    labels: HashMap<String, Label>,
    /// Labels defined more than once (reported at build time).
    duplicates: Vec<String>,
    max_reg: Reg,
    r_in: usize,
    r_out: usize,
    hints: Vec<TripHint>,
}

impl Builder {
    /// Creates a builder declaring the input/output register conventions.
    pub fn new(r_in: usize, r_out: usize) -> Self {
        Builder {
            r_in,
            r_out,
            max_reg: (r_in.max(r_out)).saturating_sub(1) as Reg,
            ..Default::default()
        }
    }

    fn track(&mut self, ins: &Instr) {
        for r in ins.inputs() {
            self.max_reg = self.max_reg.max(r);
        }
        if let Some(r) = ins.output() {
            self.max_reg = self.max_reg.max(r);
        }
    }

    /// Appends an instruction.
    pub fn push(&mut self, ins: Instr) -> &mut Self {
        self.track(&ins);
        self.instrs.push(ins);
        self
    }

    /// Defines a label at the current position.  A duplicate definition is
    /// recorded and reported by [`Builder::build`].
    pub fn label(&mut self, name: &str) -> &mut Self {
        let at = self.instrs.len() as Label;
        if self.labels.insert(name.to_string(), at).is_some() {
            self.duplicates.push(name.to_string());
        }
        self
    }

    /// Records a [`TripHint`] for the *next* appended instruction, which
    /// must be the loop's back-edge jump.  Call immediately before the
    /// [`Builder::goto`]/[`Builder::if_empty_goto`] that closes the loop.
    pub fn trip_hint(&mut self, bound: TripBound) -> &mut Self {
        self.hints.push(TripHint {
            pc: self.instrs.len() as u32,
            bound,
        });
        self
    }

    /// Appends `goto label` (resolved at build time).
    pub fn goto(&mut self, label: &str) -> &mut Self {
        self.pending.push((self.instrs.len(), label.to_string()));
        self.instrs.push(Instr::Goto { target: 0 });
        self
    }

    /// Appends `if empty?(reg) goto label`.
    pub fn if_empty_goto(&mut self, reg: Reg, label: &str) -> &mut Self {
        self.pending.push((self.instrs.len(), label.to_string()));
        self.max_reg = self.max_reg.max(reg);
        self.instrs.push(Instr::IfEmptyGoto { reg, target: 0 });
        self
    }

    /// Resolves labels and produces the program.
    ///
    /// Malformed label usage (a jump to a label never defined, a label
    /// defined twice, a pending patch landing on a non-jump) is returned as
    /// a [`BuildError`] rather than aborting the process, so generated or
    /// untrusted programs can be validated by library consumers.
    pub fn build(mut self) -> Result<Program, BuildError> {
        if let Some(name) = self.duplicates.first() {
            return Err(BuildError::DuplicateLabel(name.clone()));
        }
        for (at, name) in &self.pending {
            let target = *self
                .labels
                .get(name)
                .ok_or_else(|| BuildError::UndefinedLabel(name.clone()))?;
            match &mut self.instrs[*at] {
                Instr::Goto { target: t } | Instr::IfEmptyGoto { target: t, .. } => *t = target,
                other => {
                    return Err(BuildError::PendingOnNonJump {
                        at: *at,
                        instr: other.to_string(),
                    });
                }
            }
        }
        let prog = Program {
            instrs: self.instrs,
            n_regs: self.max_reg as usize + 1,
            r_in: self.r_in,
            r_out: self.r_out,
            trip_hints: self.hints,
        };
        // One source of truth for structural well-formedness: the
        // verifier's check.  The builder's own bookkeeping (register
        // tracking, label resolution) should make these unreachable;
        // this catches builder bugs instead of letting them surface as
        // interpreter panics.
        if let Some(v) = crate::verify::check_structure(&prog).into_iter().next() {
            return Err(BuildError::Malformed(v.to_string()));
        }
        Ok(prog)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Op;

    #[test]
    fn builder_resolves_labels() {
        let mut b = Builder::new(1, 1);
        b.label("loop")
            .if_empty_goto(0, "done")
            .push(Instr::Select { dst: 0, src: 0 })
            .goto("loop")
            .label("done")
            .push(Instr::Halt);
        let p = b.build().unwrap();
        assert_eq!(p.instrs.len(), 4);
        assert!(matches!(p.instrs[0], Instr::IfEmptyGoto { target: 3, .. }));
        assert!(matches!(p.instrs[2], Instr::Goto { target: 0 }));
    }

    #[test]
    fn register_count_tracks_all_uses() {
        let mut b = Builder::new(1, 1);
        b.push(Instr::Arith {
            dst: 7,
            op: Op::Add,
            a: 0,
            b: 3,
        })
        .push(Instr::Halt);
        let p = b.build().unwrap();
        assert_eq!(p.n_regs, 8);
    }

    #[test]
    fn undefined_label_is_an_error_not_a_panic() {
        let mut b = Builder::new(0, 0);
        b.goto("nowhere");
        assert_eq!(
            b.build().unwrap_err(),
            BuildError::UndefinedLabel("nowhere".into())
        );
    }

    #[test]
    fn duplicate_label_is_an_error_not_a_panic() {
        let mut b = Builder::new(0, 0);
        b.label("here").push(Instr::Halt).label("here");
        assert_eq!(
            b.build().unwrap_err(),
            BuildError::DuplicateLabel("here".into())
        );
    }

    #[test]
    fn build_errors_display_helpfully() {
        assert_eq!(
            BuildError::UndefinedLabel("x".into()).to_string(),
            "undefined label `x`"
        );
        assert!(BuildError::PendingOnNonJump {
            at: 3,
            instr: "halt".into()
        }
        .to_string()
        .contains("non-jump"));
    }

    #[test]
    fn display_lists_instructions() {
        let mut b = Builder::new(1, 1);
        b.push(Instr::Halt);
        let p = b.build().unwrap();
        let s = p.to_string();
        assert!(s.contains("halt"));
        assert!(s.contains("bvram program"));
    }
}
