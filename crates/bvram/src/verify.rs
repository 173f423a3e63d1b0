//! Static verification of BVRAM programs: a gate with three checks —
//! structure, definite initialization, reachability/fall-off — reported
//! as machine-checkable diagnostics, plus the generic forward dataflow
//! framework the initialization check (and `crate::cost`) runs on.
//!
//! The verifier splits its results by severity:
//!
//! * [`Violation`]s are structural defects no legal program exhibits:
//!   register operands outside the declared register file (the
//!   interpreter would panic on the access) and trip certificates
//!   naming such registers, jump targets beyond
//!   one-past-the-end, I/O conventions wider than the register file.
//!   A program with violations is rejected outright ([`Report::ok`]
//!   is `false`).
//! * Findings are defined-but-suspect behaviors: reads of registers
//!   with no dominating write (the machine reads an empty vector
//!   there), reachable paths that fall off the end (`FellOffEnd` at
//!   runtime, which `jump_target_one_past_the_end` programs do
//!   legally), and unreachable instructions.
//!
//! The side conditions of the instructions themselves (equal operand
//! lengths, `Σ counts = |bound|`, `Σ segs = |data|`, partial arithmetic)
//! are not the verifier's business: the interpreter checks every one at
//! run time and [`crate::analysis::can_fault`] is the static
//! over-approximation the optimizer needs.
//!
//! Compiled code is held to the stricter [`Report::clean`] standard by
//! translation validation in `nsc-compile`; generated stress programs
//! (`crate::fuzz`) deliberately read unwritten registers and are only
//! required to be [`Report::ok`].
//!
//! All three checks run on every structurally valid program, whatever
//! its size.  Definite initialization is exact and sparse: compiled
//! code is almost single-assignment, so a read is usually decided by
//! one dominance query against the register's definitions
//! ([`Cfg::pc_dominates`]), and only the registers some read finds
//! undominated — temporaries merged across the arms of a branch — get a
//! must-dataflow, over those registers alone.
//!
//! # The dataflow framework
//!
//! [`ForwardAnalysis`] + [`run_forward`] solve arbitrary forward
//! problems over the program's shared block graph ([`crate::cfg::Cfg`],
//! built once by the caller): an analysis supplies an entry state, a
//! per-instruction transfer function, an optional per-edge refinement
//! (how `if_empty` branch facts enter the taken block), and a join.
//! States are kept only at basic-block entries (compiled programs reach
//! millions of instructions but only a handful of blocks), and
//! [`replay`] walks a converged solution through each reachable block
//! to visit the state *before* every instruction.

use crate::analysis::RegSet;
use crate::cfg::Cfg;
use crate::instr::{Instr, Reg};
use crate::program::{Program, TripBound};
use std::fmt;

// ---------------------------------------------------------------------------
// Violations and findings
// ---------------------------------------------------------------------------

/// A structural defect: the program is malformed, independent of input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// An instruction references a register outside the declared file
    /// (the interpreter indexes the register vector and would panic).
    RegisterOutOfBounds {
        /// The instruction index.
        pc: usize,
        /// The rendered instruction.
        instr: String,
        /// The out-of-bounds register.
        reg: Reg,
        /// The declared register-file size.
        n_regs: usize,
    },
    /// A jump target beyond one-past-the-end.  A target *equal* to the
    /// program length is legal (the machine faults `FellOffEnd` when
    /// the branch is taken) and reported as a finding instead.
    JumpOutOfRange {
        /// The instruction index.
        pc: usize,
        /// The rendered instruction.
        instr: String,
        /// The offending target.
        target: usize,
        /// The program length.
        len: usize,
    },
    /// A length-relative trip certificate names a register outside the
    /// declared file (the cost analyzer and the optimizer index by it).
    TripHintRegisterOutOfBounds {
        /// The back-edge pc the certificate is anchored to.
        pc: usize,
        /// The out-of-bounds register.
        reg: Reg,
        /// The declared register-file size.
        n_regs: usize,
    },
    /// The I/O conventions name more registers than the file holds.
    IoExceedsRegisters {
        /// Declared input-register count.
        r_in: usize,
        /// Declared output-register count.
        r_out: usize,
        /// The declared register-file size.
        n_regs: usize,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::RegisterOutOfBounds {
                pc,
                instr,
                reg,
                n_regs,
            } => write!(
                f,
                "pc {pc}: `{instr}` references v{reg}, but the program declares \
                 only {n_regs} registers"
            ),
            Violation::JumpOutOfRange {
                pc,
                instr,
                target,
                len,
            } => write!(
                f,
                "pc {pc}: `{instr}` jumps to {target}, past the program end \
                 ({len} instructions)"
            ),
            Violation::TripHintRegisterOutOfBounds { pc, reg, n_regs } => write!(
                f,
                "pc {pc}: the trip certificate bounds by v{reg}, but the program \
                 declares only {n_regs} registers"
            ),
            Violation::IoExceedsRegisters {
                r_in,
                r_out,
                n_regs,
            } => write!(
                f,
                "program declares r_in={r_in}, r_out={r_out} but only \
                 {n_regs} registers"
            ),
        }
    }
}

// ---------------------------------------------------------------------------
// The report
// ---------------------------------------------------------------------------

/// The verifier's full output for one program.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Program length, for context in renderings.
    pub n_instrs: usize,
    /// Structural defects; any entry makes the program malformed.
    pub violations: Vec<Violation>,
    /// `(pc, reg)` pairs where `reg` is read with no dominating write.
    /// Defined behavior (the machine zero-initializes every register),
    /// but in compiled code it means a temporary was consumed before it
    /// was produced.  `Halt`'s implicit reads of the output registers
    /// `0 .. r_out` are included.
    pub uninit_reads: Vec<(usize, Reg)>,
    /// Reachable pcs from which execution can leave the program without
    /// `halt` (runtime `FellOffEnd`).
    pub fall_off: Vec<usize>,
    /// Instruction indices unreachable from the entry.
    pub unreachable: Vec<usize>,
}

impl Report {
    /// No structural violations: the machine can run this program
    /// without panicking, whatever the inputs.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// [`Report::ok`], and additionally no use-before-def and no path
    /// that falls off the end — the standard compiled code is held to.
    pub fn clean(&self) -> bool {
        self.ok() && self.uninit_reads.is_empty() && self.fall_off.is_empty()
    }
}

/// Caps finding lists in the rendering.
const RENDER_CAP: usize = 8;

fn render_capped<T: fmt::Display>(
    f: &mut fmt::Formatter<'_>,
    label: &str,
    items: &[T],
) -> fmt::Result {
    for it in items.iter().take(RENDER_CAP) {
        writeln!(f, "  {label}: {it}")?;
    }
    if items.len() > RENDER_CAP {
        writeln!(f, "  {label}: ... and {} more", items.len() - RENDER_CAP)?;
    }
    Ok(())
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "verify: {} instrs, {} unreachable, {} violations",
            self.n_instrs,
            self.unreachable.len(),
            self.violations.len(),
        )?;
        render_capped(f, "violation", &self.violations)?;
        let uninit: Vec<String> = self
            .uninit_reads
            .iter()
            .map(|(pc, r)| format!("pc {pc}: v{r} is read before any write"))
            .collect();
        render_capped(f, "uninit read", &uninit)?;
        let fall: Vec<String> = self
            .fall_off
            .iter()
            .map(|pc| format!("pc {pc}: execution can fall off the end"))
            .collect();
        render_capped(f, "fall-off", &fall)
    }
}

// ---------------------------------------------------------------------------
// Structural checks (shared with `Builder::build`)
// ---------------------------------------------------------------------------

/// The structural half of verification: every register operand in
/// bounds, and every register a trip certificate names, every jump
/// target at most one-past-the-end, I/O conventions within the register
/// file.  [`crate::program::Builder::build`] calls this, so
/// builder-produced and verifier-accepted programs agree on what
/// "well-formed" means.
pub fn check_structure(prog: &Program) -> Vec<Violation> {
    let mut out = Vec::new();
    let len = prog.instrs.len();
    if prog.r_in > prog.n_regs || prog.r_out > prog.n_regs {
        out.push(Violation::IoExceedsRegisters {
            r_in: prog.r_in,
            r_out: prog.r_out,
            n_regs: prog.n_regs,
        });
    }
    for (pc, ins) in prog.instrs.iter().enumerate() {
        for r in ins.inputs().into_iter().chain(ins.output()) {
            if r as usize >= prog.n_regs {
                out.push(Violation::RegisterOutOfBounds {
                    pc,
                    instr: ins.to_string(),
                    reg: r,
                    n_regs: prog.n_regs,
                });
            }
        }
        if let Instr::Goto { target } | Instr::IfEmptyGoto { target, .. } = ins {
            if *target as usize > len {
                out.push(Violation::JumpOutOfRange {
                    pc,
                    instr: ins.to_string(),
                    target: *target as usize,
                    len,
                });
            }
        }
    }
    for h in &prog.trip_hints {
        if let TripBound::Len { reg } = h.bound {
            if reg as usize >= prog.n_regs {
                out.push(Violation::TripHintRegisterOutOfBounds {
                    pc: h.pc as usize,
                    reg,
                    n_regs: prog.n_regs,
                });
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// The forward dataflow framework
// ---------------------------------------------------------------------------

/// A forward dataflow problem over a BVRAM [`Program`].
///
/// Implementations supply the lattice operations; [`run_forward`] owns
/// the worklist, keeping one state per basic-block entry.  The
/// contract mirrors textbook forward analysis:
///
/// * [`ForwardAnalysis::entry_state`] is the state before pc 0 (the
///   machine's boundary conventions: inputs in `0 .. r_in`, every
///   other register empty);
/// * [`ForwardAnalysis::transfer`] updates the state across one
///   instruction, *assuming it completed without faulting* — sound for
///   anything downstream, since a fault ends execution;
/// * [`ForwardAnalysis::refine_edge`] sharpens the state along a
///   specific CFG edge (e.g. `if_empty v goto t`: on the taken edge
///   `v` is known empty);
/// * [`ForwardAnalysis::join`] merges an incoming edge state into a
///   block-entry state, returning whether it changed.  Joins must be
///   monotone with finite ascent for termination.
pub trait ForwardAnalysis {
    /// The dataflow state.
    type State: Clone;

    /// State on entry to the program.
    fn entry_state(&self, prog: &Program) -> Self::State;

    /// Effect of one (non-faulting) instruction.
    fn transfer(&self, pc: usize, ins: &Instr, state: &mut Self::State);

    /// Sharpen `state` along the edge `from → to` (no-op by default).
    fn refine_edge(&self, from: usize, ins: &Instr, to: usize, state: &mut Self::State) {
        let _ = (from, ins, to, state);
    }

    /// Merge `incoming` into `state`; `true` iff `state` changed.
    fn join(&self, state: &mut Self::State, incoming: &Self::State) -> bool;
}

/// Runs `analysis` to fixpoint over the blocks of `cfg` (the CFG of
/// `prog`), returning the state at each block's entry — `None` for
/// blocks unreachable from the program entry.
///
/// The program must be structurally valid ([`check_structure`] empty):
/// transfer functions index registers without bounds checks.
pub fn run_forward<A: ForwardAnalysis>(
    prog: &Program,
    cfg: &Cfg,
    analysis: &A,
) -> Vec<Option<A::State>> {
    let nb = cfg.n_blocks();
    let mut entry: Vec<Option<A::State>> = (0..nb).map(|_| None).collect();
    // Lowest block first: codegen emits blocks in program order, so this
    // approximates reverse postorder — inner loops converge before their
    // outer continuation is revisited, which keeps the visit count near
    // linear where a LIFO stack re-propagates every inner wave.
    let mut work: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();
    if nb > 0 {
        entry[0] = Some(analysis.entry_state(prog));
        work.insert(0);
    }
    while let Some(b) = work.pop_first() {
        let mut st = entry[b].clone();
        for pc in cfg.range(b) {
            analysis.transfer(pc, &prog.instrs[pc], st.as_mut().expect("state present"));
        }
        let last = cfg.last(b);
        let succs = cfg.succs(b);
        for (k, &tb) in succs.iter().enumerate() {
            let tb = tb as usize;
            // The last edge takes the state by move; earlier edges clone.
            let mut es = if k + 1 == succs.len() {
                st.take().expect("state present")
            } else {
                st.as_ref().expect("state present").clone()
            };
            analysis.refine_edge(last, &prog.instrs[last], cfg.leader(tb), &mut es);
            let changed = match &mut entry[tb] {
                Some(cur) => analysis.join(cur, &es),
                slot @ None => {
                    *slot = Some(es);
                    true
                }
            };
            if changed {
                work.insert(tb);
            }
        }
    }
    entry
}

/// Walks a converged solution through every reachable block, calling
/// `visit(pc, instr, state)` with the state *before* each instruction.
pub fn replay<A: ForwardAnalysis>(
    prog: &Program,
    cfg: &Cfg,
    analysis: &A,
    states: &[Option<A::State>],
    mut visit: impl FnMut(usize, &Instr, &A::State),
) {
    for (b, st0) in states.iter().enumerate() {
        let Some(st0) = st0 else {
            continue;
        };
        let mut st = st0.clone();
        for pc in cfg.range(b) {
            visit(pc, &prog.instrs[pc], &st);
            analysis.transfer(pc, &prog.instrs[pc], &mut st);
        }
    }
}

// ---------------------------------------------------------------------------
// Definite initialization
// ---------------------------------------------------------------------------

/// No pc, or no dataflow slot.
const NONE: u32 = u32::MAX;

/// Must-analysis over the registers `slot` numbers densely (`0 .. n`):
/// a register is in the state iff every path from the entry writes it
/// before this point.  Nothing starts initialized — inputs are never
/// among the tracked registers; joins intersect.
struct DefiniteInit<'a> {
    slot: &'a [u32],
    n: usize,
}

impl ForwardAnalysis for DefiniteInit<'_> {
    type State = RegSet;

    fn entry_state(&self, _prog: &Program) -> RegSet {
        RegSet::new(self.n)
    }

    fn transfer(&self, _pc: usize, ins: &Instr, state: &mut RegSet) {
        if let Some(s) = ins.output().map(|d| self.slot[d as usize]) {
            if s != NONE {
                state.insert(s);
            }
        }
    }

    fn join(&self, state: &mut RegSet, incoming: &RegSet) -> bool {
        state.intersect_with(incoming)
    }
}

/// The reachable reads `(pc, reg)` that some path reaches without
/// having written `reg`, in program order (`Halt` reads the outputs
/// `0 .. r_out`).
///
/// A read of an input register, or one that a single definition of its
/// register dominates, is initialized — in near-single-assignment code
/// that decides almost every read.  The registers of the remaining
/// reads (written on several paths, by no one instruction on all of
/// them) are exactly where "every path writes it" needs dataflow, so
/// [`DefiniteInit`] tracks those and nothing else.
fn uninit_reads(prog: &Program, cfg: &Cfg) -> Vec<(usize, Reg)> {
    let reachable = || (0..prog.instrs.len()).filter(|&pc| cfg.reachable(pc));
    // Each register's first defining pc, and the further definitions of
    // the few registers that have them, grouped by register.  (A
    // definition in dead code initializes nothing.)
    let mut first = vec![NONE; prog.n_regs];
    let mut more: Vec<(Reg, u32)> = Vec::new();
    for pc in reachable() {
        match prog.instrs[pc].output() {
            Some(d) if first[d as usize] == NONE => first[d as usize] = pc as u32,
            Some(d) => more.push((d, pc as u32)),
            None => {}
        }
    }
    more.sort_unstable();
    let dominated = |r: Reg, pc: usize| {
        let by = |d: u32| d != NONE && cfg.pc_dominates(d as usize, pc);
        by(first[r as usize])
            || more[more.partition_point(|&(q, _)| q < r)..]
                .iter()
                .take_while(|&&(q, _)| q == r)
                .any(|&(_, d)| by(d))
    };

    let mut slot = vec![NONE; prog.n_regs];
    let mut n = 0;
    let mut open: Vec<(usize, Reg)> = Vec::new();
    for pc in reachable() {
        let reads = match &prog.instrs[pc] {
            Instr::Halt => (0..prog.r_out as Reg).collect(),
            ins => ins.inputs().to_vec(),
        };
        for r in reads {
            if (r as usize) < prog.r_in || dominated(r, pc) {
                continue;
            }
            open.push((pc, r));
            if slot[r as usize] == NONE {
                slot[r as usize] = n as u32;
                n += 1;
            }
        }
    }

    let analysis = DefiniteInit { slot: &slot, n };
    let init = run_forward(prog, cfg, &analysis);
    let mut next = 0;
    let mut uninit = Vec::new();
    replay(prog, cfg, &analysis, &init, |pc, _, st| {
        // `replay` and `open` both run through the reachable pcs in
        // ascending order.
        while let Some(&(_, r)) = open.get(next).filter(|(at, _)| *at == pc) {
            if !st.contains(slot[r as usize]) {
                uninit.push((pc, r));
            }
            next += 1;
        }
    });
    uninit
}

// ---------------------------------------------------------------------------
// The entry point
// ---------------------------------------------------------------------------

/// Verifies `prog`: structural checks, then (if structurally valid)
/// definite initialization and reachability/fall-off.
pub fn verify_program(prog: &Program) -> Report {
    let mut report = Report {
        n_instrs: prog.instrs.len(),
        violations: check_structure(prog),
        ..Report::default()
    };
    let n = prog.instrs.len();
    if !report.ok() || n == 0 {
        return report; // the analyses would index out of bounds
    }

    // The block graph first: every check below reads it.
    let cfg = Cfg::build(prog);
    report.uninit_reads = uninit_reads(prog, &cfg);

    // Reachability-derived findings.
    for pc in 0..n {
        if !cfg.reachable(pc) {
            report.unreachable.push(pc);
            continue;
        }
        let falls = match &prog.instrs[pc] {
            Instr::Halt => false,
            Instr::Goto { target } => *target as usize == n,
            Instr::IfEmptyGoto { target, .. } => *target as usize == n || pc + 1 == n,
            _ => pc + 1 == n,
        };
        if falls {
            report.fall_off.push(pc);
        }
    }

    report
}

/// Alias of [`verify_program`], kept only because `bench/src/replay.rs`
/// imports it and `bench/` is frozen; ROADMAP item 1 removes it.
pub fn verify_program_basic(prog: &Program) -> Report {
    verify_program(prog)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Instr::*;
    use crate::program::Builder;

    #[test]
    fn straight_line_program_is_clean() {
        let mut b = Builder::new(1, 1);
        b.push(Enumerate { dst: 1, src: 0 })
            .push(Select { dst: 0, src: 1 })
            .push(Halt);
        let r = verify_program(&b.build().unwrap());
        assert!(r.ok() && r.clean(), "{r}");
        assert!(r.unreachable.is_empty());
    }

    #[test]
    fn uninit_read_is_a_finding_not_a_violation() {
        // v3 is never written: defined behavior (reads empty), flagged.
        let mut b = Builder::new(1, 1);
        b.push(Append { dst: 0, a: 0, b: 3 }).push(Halt);
        let r = verify_program(&b.build().unwrap());
        assert!(r.ok(), "{r}");
        assert!(!r.clean(), "{r}");
        assert_eq!(r.uninit_reads, vec![(0, 3)]);
    }

    #[test]
    fn init_joins_over_branches() {
        // v1 is written on only one side of the branch: not definitely
        // initialized at the join point.
        let mut b = Builder::new(1, 1);
        b.if_empty_goto(0, "skip")
            .push(Singleton { dst: 1, n: 7 })
            .label("skip")
            .push(Move { dst: 0, src: 1 })
            .push(Halt);
        let r = verify_program(&b.build().unwrap());
        assert_eq!(r.uninit_reads, vec![(2, 1)], "{r}");

        // Written on *both* sides: definitely initialized.
        let mut b = Builder::new(1, 1);
        b.if_empty_goto(0, "other")
            .push(Singleton { dst: 1, n: 7 })
            .goto("join")
            .label("other")
            .push(Singleton { dst: 1, n: 8 })
            .label("join")
            .push(Move { dst: 0, src: 1 })
            .push(Halt);
        let r = verify_program(&b.build().unwrap());
        assert!(r.clean(), "{r}");
    }

    #[test]
    fn loop_carried_register_is_clean() {
        // v1 is written before the loop and again in the latch: the
        // first write dominates every read, the second changes nothing.
        let mut b = Builder::new(1, 1);
        b.push(Move { dst: 1, src: 0 })
            .label("loop")
            .if_empty_goto(1, "done")
            .push(Select { dst: 2, src: 1 })
            .push(Move { dst: 1, src: 2 })
            .goto("loop")
            .label("done")
            .push(Move { dst: 0, src: 1 })
            .push(Halt);
        let r = verify_program(&b.build().unwrap());
        assert!(r.clean(), "{r}");
    }

    #[test]
    fn a_definition_does_not_dominate_its_own_operands() {
        // v1 <- v1 + v1 on a never-written v1 reads it twice, in a loop
        // or not; the read after the write is fine.
        let add = Arith {
            dst: 1,
            op: crate::instr::Op::Add,
            a: 1,
            b: 1,
        };
        let mut b = Builder::new(1, 1);
        b.push(add.clone()).push(Move { dst: 0, src: 1 }).push(Halt);
        let r = verify_program(&b.build().unwrap());
        assert_eq!(r.uninit_reads, vec![(0, 1), (0, 1)], "{r}");

        let mut b = Builder::new(1, 1);
        b.label("loop")
            .if_empty_goto(0, "done")
            .push(add)
            .push(Select { dst: 0, src: 0 })
            .goto("loop")
            .label("done")
            .push(Halt);
        let r = verify_program(&b.build().unwrap());
        assert_eq!(r.uninit_reads, vec![(1, 1), (1, 1)], "{r}");
    }

    #[test]
    fn a_definition_in_unreachable_code_initializes_nothing() {
        let mut b = Builder::new(1, 1);
        b.goto("live")
            .push(Singleton { dst: 1, n: 7 })
            .label("live")
            .push(Move { dst: 0, src: 1 })
            .push(Halt);
        let r = verify_program(&b.build().unwrap());
        assert_eq!(r.uninit_reads, vec![(2, 1)], "{r}");
        assert_eq!(r.unreachable, vec![1]);
    }

    #[test]
    fn jump_past_end_is_a_violation_with_pc_and_instr() {
        let p = Program {
            instrs: vec![Goto { target: 99 }, Halt],
            n_regs: 1,
            r_in: 0,
            r_out: 0,
            trip_hints: vec![],
        };
        let r = verify_program(&p);
        assert!(!r.ok());
        let msg = r.violations[0].to_string();
        assert!(msg.contains("pc 0") && msg.contains("goto 99"), "{msg}");
    }

    #[test]
    fn jump_to_one_past_end_is_a_fall_off_finding() {
        // The optimizer test `jump_target_one_past_the_end_is_tolerated`
        // relies on this staying legal.
        let mut b = Builder::new(1, 2);
        b.push(Move { dst: 1, src: 0 })
            .if_empty_goto(0, "off")
            .push(Halt)
            .label("off");
        let r = verify_program(&b.build().unwrap());
        assert!(r.ok(), "{r}");
        assert_eq!(r.fall_off, vec![1], "{r}");
        assert!(!r.clean());
    }

    #[test]
    fn register_out_of_bounds_is_a_violation() {
        let p = Program {
            instrs: vec![Move { dst: 0, src: 7 }, Halt],
            n_regs: 2,
            r_in: 1,
            r_out: 1,
            trip_hints: vec![],
        };
        let r = verify_program(&p);
        assert!(!r.ok());
        let msg = r.violations[0].to_string();
        assert!(msg.contains("v7") && msg.contains("2 registers"), "{msg}");
    }

    #[test]
    fn trip_hint_register_out_of_bounds_is_a_violation() {
        let mut b = Builder::new(1, 1);
        b.label("head")
            .if_empty_goto(0, "end")
            .push(Move { dst: 1, src: 0 })
            .trip_hint(TripBound::Len { reg: 99 })
            .goto("head")
            .label("end")
            .push(Halt);
        let e = b.build().unwrap_err().to_string();
        assert!(
            e.contains("pc 2") && e.contains("v99") && e.contains("2 registers"),
            "{e}"
        );
    }

    #[test]
    fn unreachable_code_is_reported() {
        let mut b = Builder::new(0, 0);
        b.goto("end")
            .push(Singleton { dst: 0, n: 1 })
            .label("end")
            .push(Halt);
        let r = verify_program(&b.build().unwrap());
        assert_eq!(r.unreachable, vec![1]);
        assert!(r.clean(), "unreachable code alone is not unclean: {r}");
    }

    #[test]
    fn builder_rejects_malformed_programs_via_the_verifier() {
        use crate::program::BuildError;
        // The builder's own bookkeeping can't produce these, so drive
        // check_structure directly and via a hand-rolled program.
        let p = Program {
            instrs: vec![Goto { target: 5 }],
            n_regs: 1,
            r_in: 0,
            r_out: 0,
            trip_hints: vec![],
        };
        assert_eq!(check_structure(&p).len(), 1);
        let e = BuildError::Malformed(check_structure(&p)[0].to_string());
        assert!(e.to_string().contains("malformed program"), "{e}");
    }

    #[test]
    fn fuzz_programs_verify_ok() {
        for seed in 0..24u64 {
            let words: Vec<u64> = (0..40u64)
                .map(|i| {
                    (seed + 1)
                        .wrapping_mul(i.wrapping_add(7))
                        .wrapping_mul(0x2545_f491_4f6c_dd1d)
                })
                .collect();
            let p = crate::fuzz::decode_program(&words, [5, 2, 1], crate::fuzz::FUZZ_REGS);
            let r = verify_program(&p);
            assert!(r.ok(), "seed {seed}:\n{p}\n{r}");
        }
    }

    #[test]
    fn report_renders_a_summary() {
        let mut b = Builder::new(1, 1);
        b.push(Append { dst: 0, a: 0, b: 3 }).push(Halt);
        let r = verify_program(&b.build().unwrap());
        let s = r.to_string();
        assert!(s.contains("verify: 2 instrs"), "{s}");
        assert!(s.contains("v3 is read before any write"), "{s}");
    }
}
