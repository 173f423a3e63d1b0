//! Static verification of BVRAM programs: a generic forward dataflow
//! framework plus three analyses — definite initialization, an abstract
//! length/shape domain, and control-flow structure — reported as
//! machine-checkable diagnostics.
//!
//! The verifier splits its results by severity:
//!
//! * [`Violation`]s are structural defects no legal program exhibits:
//!   register operands outside the declared register file (the
//!   interpreter would panic on the access), jump targets beyond
//!   one-past-the-end, I/O conventions wider than the register file.
//!   A program with violations is rejected outright ([`Report::ok`]
//!   is `false`).
//! * Findings are defined-but-suspect behaviors: reads of registers
//!   with no dominating write (the machine reads an empty vector
//!   there), reachable paths that fall off the end (`FellOffEnd` at
//!   runtime, which `jump_target_one_past_the_end` programs do
//!   legally), unreachable instructions, and the classified *residual
//!   fault sites* — the [`can_fault`] instructions the length analysis
//!   could not prove safe, each tagged with a [`FaultReason`].
//!
//! Compiled code is held to the stricter [`Report::clean`] standard by
//! translation validation in `nsc-compile`; generated stress programs
//! (`crate::fuzz`) deliberately read unwritten registers and are only
//! required to be [`Report::ok`].
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
//!
//! # The length domain
//!
//! Abstract lengths are equality classes: each register maps to a
//! `Key` that is either a known constant length or an opaque symbol,
//! where two registers provably have equal lengths iff their keys are
//! equal.  A second fact, `Σ r = |k|` ("the elementwise sum of `r`
//! equals the length `k` denotes"), is minted by `length`, singletons,
//! and the all-ones idiom `v ← eq a a`, and is exactly what discharges
//! the routing invariants `Σ counts = |bound|` and `Σ segs = |data|`.
//! Joins intersect equality classes (partition join), so the domain has
//! finite height and the worklist terminates.

use crate::analysis::{can_fault, RegSet};
use crate::cfg::Cfg;
use crate::instr::{Instr, Op, Reg};
use crate::program::Program;
use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// A multiply-xor hasher for the join-time key maps.  The length
/// analysis performs a few hash operations per register per join, so
/// the default SipHash is the dominant verification cost on large
/// programs; the keys are symbol ids we mint ourselves, so a cheap
/// well-mixing hash is safe.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.write_u64(n as u64);
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(n as u64);
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(29) ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 31)
    }
}

type KeyMap<K, V> = HashMap<K, V, BuildHasherDefault<KeyHasher>>;

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

/// Why a fault-capable instruction could not be proven safe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultReason {
    /// Genuinely value-dependent partial arithmetic (overflow, division
    /// by zero): statically undecidable, deferred to runtime.
    PartialOp,
    /// Elementwise operand lengths could not be proven equal.
    UnprovenLength,
    /// A routing invariant (named) could not be proven.
    UnprovenRoute(&'static str),
    /// Proven to fault whenever reached (named invariant).  The
    /// compiled `Ω` idiom — a deliberate division fault — is a *legal*
    /// definite fault, so this is a finding, not a violation.
    Definite(&'static str),
}

impl fmt::Display for FaultReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultReason::PartialOp => write!(f, "value-dependent partial arithmetic"),
            FaultReason::UnprovenLength => write!(f, "operand lengths not proven equal"),
            FaultReason::UnprovenRoute(what) => write!(f, "unproven route invariant: {what}"),
            FaultReason::Definite(what) => write!(f, "faults whenever reached: {what}"),
        }
    }
}

/// A reachable fault-capable instruction the verifier could not prove
/// safe, with the reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSite {
    /// The instruction index.
    pub pc: usize,
    /// The rendered instruction.
    pub instr: String,
    /// Why it was not proven safe.
    pub reason: FaultReason,
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pc {}: `{}` — {}", self.pc, self.instr, self.reason)
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
    /// Reachable fault-capable instructions ([`can_fault`]).
    pub fault_capable: usize,
    /// How many of those the length analysis proved can never fault.
    pub proven_safe: usize,
    /// The residual fault-capable sites, classified.
    pub residual: Vec<FaultSite>,
    /// The length analysis was skipped because `blocks × n_regs`
    /// exceeded the memory budget (huge uncompacted kernels); residual
    /// classification then falls back to register-identity reasoning.
    pub length_analysis_skipped: bool,
    /// The definite-initialization analysis was skipped because
    /// `blocks × n_regs` exceeded `INIT_BUDGET`; `uninit_reads` is
    /// then empty vacuously, not as a guarantee.
    pub init_analysis_skipped: bool,
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

    /// The residual sites proven to fault whenever reached (the
    /// compiled `Ω` idiom shows up here).
    pub fn definite_faults(&self) -> impl Iterator<Item = &FaultSite> {
        self.residual
            .iter()
            .filter(|s| matches!(s.reason, FaultReason::Definite(_)))
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
            "verify: {} instrs, {} unreachable, {} fault-capable \
             ({} proven safe, {} residual), {} violations{}",
            self.n_instrs,
            self.unreachable.len(),
            self.fault_capable,
            self.proven_safe,
            self.residual.len(),
            self.violations.len(),
            if self.length_analysis_skipped {
                " [length analysis skipped: over budget]"
            } else {
                ""
            }
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
        render_capped(f, "fall-off", &fall)?;
        render_capped(f, "residual fault", &self.residual)?;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Structural checks (shared with `Builder::build`)
// ---------------------------------------------------------------------------

/// The structural half of verification: every register operand in
/// bounds, every jump target at most one-past-the-end, I/O conventions
/// within the register file.  [`crate::program::Builder::build`] calls
/// this, so builder-produced and verifier-accepted programs agree on
/// what "well-formed" means.
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

    /// Accelerates convergence once a block's entry state has changed
    /// `WIDEN_LIMIT` times: coarsen `state` far enough that further
    /// joins stabilize quickly (classic widening).  Must move the state
    /// *up* the lattice so soundness is preserved.  No-op by default,
    /// which is correct for lattices with short ascending chains.
    fn widen(&self, state: &mut Self::State) {
        let _ = state;
    }
}

/// How many times a block's entry state may change before
/// [`ForwardAnalysis::widen`] is applied to it.  Domains with long
/// ascending chains (the length partition can split `n_regs` times per
/// block) would otherwise make the fixpoint quadratic in `n_regs`.
const WIDEN_LIMIT: u32 = 4;

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
    let mut changes = vec![0u32; nb];
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
                changes[tb] += 1;
                if changes[tb] > WIDEN_LIMIT {
                    let cur = entry[tb].as_mut().expect("changed blocks have states");
                    analysis.widen(cur);
                }
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
// Analysis 1: definite initialization
// ---------------------------------------------------------------------------

/// Must-analysis over [`RegSet`]: a register is in the state iff every
/// path from the entry writes it before this point.  Inputs
/// `0 .. r_in` start initialized; joins intersect.
struct DefiniteInit;

impl ForwardAnalysis for DefiniteInit {
    type State = RegSet;

    fn entry_state(&self, prog: &Program) -> RegSet {
        let mut s = RegSet::new(prog.n_regs);
        for r in 0..prog.r_in {
            s.insert(r as Reg);
        }
        s
    }

    fn transfer(&self, _pc: usize, ins: &Instr, state: &mut RegSet) {
        if let Some(d) = ins.output() {
            state.insert(d);
        }
    }

    fn join(&self, state: &mut RegSet, incoming: &RegSet) -> bool {
        state.intersect_with(incoming)
    }
}

// ---------------------------------------------------------------------------
// Analysis 2: abstract lengths
// ---------------------------------------------------------------------------

/// An abstract length: a known constant, or an opaque symbol where
/// equal symbols mean provably equal lengths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Key {
    Const(u64),
    Sym(u32),
}

/// Two keys denote provably equal lengths.
fn keys_equal(a: Key, b: Key) -> bool {
    a == b
}

/// Two keys denote provably *unequal* lengths.
fn keys_unequal(a: Key, b: Key) -> bool {
    matches!((a, b), (Key::Const(x), Key::Const(y)) if x != y)
}

/// Post-success unification of two keys known equal afterwards.
fn unify(a: Key, b: Key) -> Key {
    match (a, b) {
        (Key::Const(_), _) => a,
        (_, Key::Const(_)) => b,
        _ => a,
    }
}

/// Per-register length facts: `key[r]` is the abstract length of `r`,
/// `sum[r] = Some(k)` records `Σ r` equals the length `k` denotes
/// (minted by `length`, singletons and the all-ones `eq a a` idiom).
#[derive(Debug, Clone, PartialEq)]
struct LenState {
    key: Vec<Key>,
    sum: Vec<Option<Key>>,
}

struct LengthAnalysis {
    next_sym: Cell<u32>,
}

impl LengthAnalysis {
    fn new() -> Self {
        LengthAnalysis {
            next_sym: Cell::new(0),
        }
    }

    fn fresh(&self) -> Key {
        let s = self.next_sym.get();
        self.next_sym.set(s + 1);
        Key::Sym(s)
    }
}

/// Incremental equivalence check for fixpoint detection: two states are
/// equivalent iff a bijection on symbols maps one onto the other
/// slot-for-slot (constants must map to themselves).  Fed one slot pair
/// at a time so the join can detect "unchanged" in the same pass that
/// builds the joined state.
struct SameState {
    fwd: KeyMap<Key, Key>,
    bwd: KeyMap<Key, Key>,
    same: bool,
}

impl SameState {
    fn new() -> Self {
        SameState {
            fwd: KeyMap::default(),
            bwd: KeyMap::default(),
            same: true,
        }
    }

    fn slot(&mut self, old: Key, new: Key) {
        if !self.same {
            return;
        }
        if let (Key::Const(_), _) | (_, Key::Const(_)) = (old, new) {
            self.same = old == new;
            return;
        }
        self.same = *self.fwd.entry(old).or_insert(new) == new
            && *self.bwd.entry(new).or_insert(old) == old;
    }

    fn opt_slot(&mut self, old: Option<Key>, new: Option<Key>) {
        match (old, new) {
            (Some(a), Some(b)) => self.slot(a, b),
            (None, None) => {}
            _ => self.same = false,
        }
    }
}

impl ForwardAnalysis for LengthAnalysis {
    type State = LenState;

    fn entry_state(&self, prog: &Program) -> LenState {
        let mut key = Vec::with_capacity(prog.n_regs);
        let mut sum = Vec::with_capacity(prog.n_regs);
        for r in 0..prog.n_regs {
            if r < prog.r_in {
                key.push(self.fresh()); // unknown input length
                sum.push(None);
            } else {
                key.push(Key::Const(0)); // machine clears at entry
                sum.push(Some(Key::Const(0)));
            }
        }
        LenState { key, sum }
    }

    fn transfer(&self, _pc: usize, ins: &Instr, st: &mut LenState) {
        match *ins {
            Instr::Move { dst, src } => {
                st.key[dst as usize] = st.key[src as usize];
                st.sum[dst as usize] = st.sum[src as usize];
            }
            Instr::Arith { dst, op, a, b } => {
                // Success implies |a| = |b|: unify their classes.
                let k = unify(st.key[a as usize], st.key[b as usize]);
                st.key[a as usize] = k;
                st.key[b as usize] = k;
                let sum = if a == b && matches!(op, Op::Eq | Op::Le) {
                    Some(k) // all-ones vector: Σ = |a|
                } else {
                    None
                };
                st.key[dst as usize] = k;
                st.sum[dst as usize] = sum;
            }
            Instr::Empty { dst } => {
                st.key[dst as usize] = Key::Const(0);
                st.sum[dst as usize] = Some(Key::Const(0));
            }
            Instr::Singleton { dst, n } => {
                st.key[dst as usize] = Key::Const(1);
                st.sum[dst as usize] = Some(Key::Const(n));
            }
            Instr::Append { dst, a, b } => {
                let (ka, kb) = (st.key[a as usize], st.key[b as usize]);
                let (sa, sb) = (st.sum[a as usize], st.sum[b as usize]);
                let (key, sum) = match (ka, kb) {
                    (Key::Const(0), _) => (kb, sb),
                    (_, Key::Const(0)) => (ka, sa),
                    (Key::Const(x), Key::Const(y)) => (
                        x.checked_add(y)
                            .map(Key::Const)
                            .unwrap_or_else(|| self.fresh()),
                        match (sa, sb) {
                            (Some(Key::Const(p)), Some(Key::Const(q))) => {
                                p.checked_add(q).map(Key::Const)
                            }
                            _ => None,
                        },
                    ),
                    _ => (self.fresh(), None),
                };
                st.key[dst as usize] = key;
                st.sum[dst as usize] = sum;
            }
            Instr::Length { dst, src } => {
                let k = st.key[src as usize];
                st.key[dst as usize] = Key::Const(1);
                st.sum[dst as usize] = Some(k); // Σ [length v] = |v|
            }
            Instr::Enumerate { dst, src } => {
                st.key[dst as usize] = st.key[src as usize];
                st.sum[dst as usize] = None;
            }
            Instr::BmRoute {
                dst,
                bound,
                counts,
                values,
            } => {
                // Success implies |counts| = |values| and Σ counts = |bound|.
                let k = unify(st.key[counts as usize], st.key[values as usize]);
                st.key[counts as usize] = k;
                st.key[values as usize] = k;
                let kb = st.key[bound as usize];
                if st.sum[counts as usize].is_none() {
                    st.sum[counts as usize] = Some(kb);
                }
                st.key[dst as usize] = st.key[bound as usize];
                st.sum[dst as usize] = None;
            }
            Instr::SbmRoute {
                dst,
                bound,
                counts,
                data,
                segs,
            } => {
                let k = unify(st.key[counts as usize], st.key[segs as usize]);
                st.key[counts as usize] = k;
                st.key[segs as usize] = k;
                let kb = st.key[bound as usize];
                if st.sum[counts as usize].is_none() {
                    st.sum[counts as usize] = Some(kb);
                }
                let kd = st.key[data as usize];
                if st.sum[segs as usize].is_none() {
                    st.sum[segs as usize] = Some(kd);
                }
                st.key[dst as usize] = self.fresh();
                st.sum[dst as usize] = None;
            }
            Instr::Select { dst, .. } => {
                st.key[dst as usize] = self.fresh();
                st.sum[dst as usize] = None;
            }
            Instr::Goto { .. } | Instr::IfEmptyGoto { .. } | Instr::Halt => {}
        }
    }

    fn refine_edge(&self, _from: usize, ins: &Instr, to: usize, st: &mut LenState) {
        if let Instr::IfEmptyGoto { reg, target } = ins {
            if to == *target as usize {
                st.key[*reg as usize] = Key::Const(0);
                st.sum[*reg as usize] = Some(Key::Const(0));
            }
        }
    }

    fn join(&self, state: &mut LenState, incoming: &LenState) -> bool {
        // Partition join: slots keep a common key iff they agree in both
        // states (pairwise map), so equalities only ever coarsen and the
        // fixpoint terminates.
        let mut map: KeyMap<(Key, Key), Key> = KeyMap::default();
        let mut join_key = |a: Key, b: Key| -> Key {
            if let (Key::Const(x), Key::Const(y)) = (a, b) {
                if x == y {
                    return a;
                }
            }
            *map.entry((a, b)).or_insert_with(|| self.fresh())
        };
        let n = state.key.len();
        let mut joined = LenState {
            key: Vec::with_capacity(n),
            sum: Vec::with_capacity(n),
        };
        let mut cmp = SameState::new();
        for r in 0..n {
            let k = join_key(state.key[r], incoming.key[r]);
            cmp.slot(state.key[r], k);
            joined.key.push(k);
        }
        for r in 0..n {
            let s = match (state.sum[r], incoming.sum[r]) {
                (Some(a), Some(b)) => Some(join_key(a, b)),
                _ => None,
            };
            cmp.opt_slot(state.sum[r], s);
            joined.sum.push(s);
        }
        if cmp.same {
            false
        } else {
            *state = joined;
            true
        }
    }

    fn widen(&self, state: &mut LenState) {
        // ⊤ of the partition domain: every register's length is a
        // distinct unknown and no sum facts survive.  Joining anything
        // into ⊤ leaves it all-distinct, so the block stabilizes on the
        // next visit.
        for k in state.key.iter_mut() {
            *k = self.fresh();
        }
        for s in state.sum.iter_mut() {
            *s = None;
        }
    }
}

// ---------------------------------------------------------------------------
// Fault-site classification
// ---------------------------------------------------------------------------

/// Classifies a fault-capable instruction given the length facts before
/// it: `None` means proven safe, `Some(reason)` residual.  `st` is
/// `None` when the length analysis was skipped; identical registers
/// still have trivially equal lengths then, but nothing else is known.
fn classify_fault(ins: &Instr, st: Option<&LenState>) -> Option<FaultReason> {
    let key_of = |r: Reg| match st {
        Some(s) => s.key[r as usize],
        None => Key::Sym(r),
    };
    let sum_of = |r: Reg| st.and_then(|s| s.sum[r as usize]);
    match *ins {
        Instr::Arith { op, a, b, .. } => {
            let (ka, kb) = (key_of(a), key_of(b));
            if keys_unequal(ka, kb) {
                Some(FaultReason::Definite("elementwise operand lengths differ"))
            } else if !keys_equal(ka, kb) {
                Some(FaultReason::UnprovenLength)
            } else if op.is_partial() {
                Some(FaultReason::PartialOp)
            } else {
                None
            }
        }
        Instr::BmRoute {
            bound,
            counts,
            values,
            ..
        } => {
            let (kb, kc, kv) = (key_of(bound), key_of(counts), key_of(values));
            let sc = sum_of(counts);
            if keys_unequal(kc, kv) {
                Some(FaultReason::Definite("bm_route: |counts| != |values|"))
            } else if matches!(sc, Some(s) if keys_unequal(s, kb)) {
                Some(FaultReason::Definite("bm_route: sum(counts) != |bound|"))
            } else if !keys_equal(kc, kv) {
                Some(FaultReason::UnprovenRoute("bm_route: |counts| = |values|"))
            } else if !matches!(sc, Some(s) if keys_equal(s, kb)) {
                Some(FaultReason::UnprovenRoute(
                    "bm_route: sum(counts) = |bound|",
                ))
            } else {
                None
            }
        }
        Instr::SbmRoute {
            bound,
            counts,
            data,
            segs,
            ..
        } => {
            let (kb, kc, kd, ks) = (key_of(bound), key_of(counts), key_of(data), key_of(segs));
            let (sc, ss) = (sum_of(counts), sum_of(segs));
            if keys_unequal(kc, ks) {
                Some(FaultReason::Definite("sbm_route: |counts| != |segs|"))
            } else if matches!(sc, Some(s) if keys_unequal(s, kb)) {
                Some(FaultReason::Definite("sbm_route: sum(counts) != |bound|"))
            } else if matches!(ss, Some(s) if keys_unequal(s, kd)) {
                Some(FaultReason::Definite("sbm_route: sum(segs) != |data|"))
            } else if !keys_equal(kc, ks) {
                Some(FaultReason::UnprovenRoute("sbm_route: |counts| = |segs|"))
            } else if !matches!(sc, Some(s) if keys_equal(s, kb)) {
                Some(FaultReason::UnprovenRoute(
                    "sbm_route: sum(counts) = |bound|",
                ))
            } else if !matches!(ss, Some(s) if keys_equal(s, kd)) {
                Some(FaultReason::UnprovenRoute("sbm_route: sum(segs) = |data|"))
            } else {
                None
            }
        }
        _ => {
            debug_assert!(!can_fault(ins));
            None
        }
    }
}

/// Folds one classification into the report.
fn record_fault(report: &mut Report, pc: usize, ins: &Instr, st: Option<&LenState>) {
    report.fault_capable += 1;
    match classify_fault(ins, st) {
        None => report.proven_safe += 1,
        Some(reason) => report.residual.push(FaultSite {
            pc,
            instr: ins.to_string(),
            reason,
        }),
    }
}

// ---------------------------------------------------------------------------
// The entry point
// ---------------------------------------------------------------------------

/// Work budget for the length analysis, as a cap on
/// `basic blocks × n_regs`.  Joins are dense — O(`n_regs`) hash-map
/// work per CFG edge visit — so this product tracks both the state
/// memory and the fixpoint time; the cap is calibrated to keep full
/// verification sub-second even in debug builds.  Programs over budget
/// (huge uncompacted kernels) fall back to register-identity reasoning
/// with [`Report::length_analysis_skipped`] set; straight-line programs
/// (one block) fit at any size.
const LEN_BUDGET: usize = 1 << 18;

/// Work budget for the definite-initialization analysis, as a cap on
/// `basic blocks × n_regs`.  The bitset states are two orders of
/// magnitude cheaper per slot than the length domain's, so this cap is
/// correspondingly higher; programs over it (the Theorem 4.2
/// translations reach millions of registers across tens of thousands of
/// blocks) skip init tracking with [`Report::init_analysis_skipped`]
/// set.  Structure, reachability, and fall-off checks always run — they
/// need no per-register state.
const INIT_BUDGET: usize = 1 << 25;

/// Verifies `prog`: structural checks, then (if structurally valid)
/// definite initialization, reachability/fall-off, and fault-site
/// classification under the abstract length domain.
pub fn verify_program(prog: &Program) -> Report {
    verify_with(prog, true)
}

/// Like [`verify_program`] but skips the abstract length analysis:
/// fault sites are classified by register identity only (and
/// [`Report::length_analysis_skipped`] is set).  Everything
/// [`Report::ok`] and [`Report::clean`] depend on is still computed, at
/// a fraction of the cost — this is the right tool for hot paths such
/// as per-pass translation validation.
pub fn verify_program_basic(prog: &Program) -> Report {
    verify_with(prog, false)
}

fn verify_with(prog: &Program, lengths: bool) -> Report {
    let mut report = Report {
        n_instrs: prog.instrs.len(),
        violations: check_structure(prog),
        ..Report::default()
    };
    let n = prog.instrs.len();
    if !report.ok() || n == 0 {
        return report; // dataflow would index out of bounds
    }

    // The block graph first: O(edges), meaningful at any size, and
    // every analysis below runs on it.
    let cfg = Cfg::build(prog);
    let work = cfg.n_blocks().saturating_mul(prog.n_regs);

    // Definite initialization.
    report.init_analysis_skipped = work > INIT_BUDGET;
    if !report.init_analysis_skipped {
        let init = run_forward(prog, &cfg, &DefiniteInit);
        replay(prog, &cfg, &DefiniteInit, &init, |pc, ins, st| {
            for r in ins.inputs() {
                if !st.contains(r) {
                    report.uninit_reads.push((pc, r));
                }
            }
            if matches!(ins, Instr::Halt) {
                for r in 0..prog.r_out as Reg {
                    if !st.contains(r) {
                        report.uninit_reads.push((pc, r));
                    }
                }
            }
        });
    }

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

    // Abstract lengths + fault-site classification.
    report.length_analysis_skipped = !lengths || work > LEN_BUDGET;
    if report.length_analysis_skipped {
        for pc in 0..n {
            if cfg.reachable(pc) && can_fault(&prog.instrs[pc]) {
                record_fault(&mut report, pc, &prog.instrs[pc], None);
            }
        }
    } else {
        let analysis = LengthAnalysis::new();
        let lens = run_forward(prog, &cfg, &analysis);
        replay(prog, &cfg, &analysis, &lens, |pc, ins, st| {
            if can_fault(ins) {
                record_fault(&mut report, pc, ins, Some(st));
            }
        });
    }
    debug_assert_eq!(
        report.fault_capable,
        report.proven_safe + report.residual.len()
    );
    report
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
        assert_eq!(r.fault_capable, 0);
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
    fn proven_length_mismatch_is_a_definite_fault_finding() {
        let mut b = Builder::new(0, 1);
        b.push(Singleton { dst: 1, n: 1 })
            .push(Empty { dst: 2 })
            .push(Arith {
                dst: 0,
                op: Op::Monus,
                a: 1,
                b: 2,
            })
            .push(Halt);
        let r = verify_program(&b.build().unwrap());
        assert!(r.ok(), "a definite fault is legal (the Ω idiom): {r}");
        assert_eq!(r.definite_faults().count(), 1);
        assert_eq!(
            r.residual[0].reason,
            FaultReason::Definite("elementwise operand lengths differ")
        );
    }

    #[test]
    fn omega_idiom_is_a_partial_op_residual() {
        // singleton 1 / singleton 0 — equal lengths, value-dependent.
        let mut b = Builder::new(0, 1);
        b.push(Singleton { dst: 1, n: 1 })
            .push(Singleton { dst: 2, n: 0 })
            .push(Arith {
                dst: 0,
                op: Op::Div,
                a: 1,
                b: 2,
            })
            .push(Halt);
        let r = verify_program(&b.build().unwrap());
        assert!(r.ok(), "{r}");
        assert_eq!(r.residual.len(), 1);
        assert_eq!(r.residual[0].reason, FaultReason::PartialOp);
    }

    #[test]
    fn ones_counts_route_is_proven_safe() {
        // The fuzz generator's valid-by-construction idiom: counts is
        // `eq v0 v0` (all ones over v0), so Σ counts = |v0| = |bound|.
        let mut b = Builder::new(1, 1);
        b.push(Arith {
            dst: 2,
            op: Op::Eq,
            a: 0,
            b: 0,
        })
        .push(BmRoute {
            dst: 0,
            bound: 0,
            counts: 2,
            values: 0,
        })
        .push(Halt);
        let r = verify_program(&b.build().unwrap());
        assert_eq!(r.fault_capable, 2, "{r}");
        assert_eq!(r.proven_safe, 2, "eq + bm_route both proven: {r}");
        assert!(r.residual.is_empty(), "{r}");
    }

    #[test]
    fn length_broadcast_route_is_proven_safe() {
        // counts = [length v0] routes a singleton over v0: |counts| =
        // |values| = 1 and Σ counts = |v0| = |bound|.
        let mut b = Builder::new(1, 1);
        b.push(Length { dst: 1, src: 0 })
            .push(Singleton { dst: 2, n: 42 })
            .push(BmRoute {
                dst: 0,
                bound: 0,
                counts: 1,
                values: 2,
            })
            .push(Halt);
        let r = verify_program(&b.build().unwrap());
        assert_eq!(r.proven_safe, 1, "{r}");
        assert!(r.residual.is_empty(), "{r}");
    }

    #[test]
    fn unconstrained_route_is_residual() {
        let mut b = Builder::new(2, 1);
        b.push(BmRoute {
            dst: 2,
            bound: 0,
            counts: 1,
            values: 1,
        })
        .push(Move { dst: 0, src: 2 })
        .push(Halt);
        let r = verify_program(&b.build().unwrap());
        assert_eq!(r.proven_safe, 0);
        assert_eq!(
            r.residual[0].reason,
            FaultReason::UnprovenRoute("bm_route: sum(counts) = |bound|"),
            "{r}"
        );
    }

    #[test]
    fn branch_refinement_proves_emptiness_facts() {
        // On the taken edge of `if_empty v0`, |v0| = 0 = |v1| (v1 is
        // never written, hence empty), so the monus is proven safe.
        let mut b = Builder::new(1, 1);
        b.if_empty_goto(0, "empty")
            .push(Halt)
            .label("empty")
            .push(Arith {
                dst: 0,
                op: Op::Monus,
                a: 0,
                b: 1,
            })
            .push(Halt);
        let r = verify_program(&b.build().unwrap());
        assert_eq!(r.proven_safe, 1, "{r}");
        assert!(r.residual.is_empty(), "{r}");
    }

    #[test]
    fn loop_keeps_loop_invariant_length_classes() {
        // v0 halves in length each iteration (select of alternating
        // pattern is data-dependent — fresh each time), but the arith
        // `v0 op v0` stays trivially proven across the back edge.
        let mut b = Builder::new(1, 1);
        b.label("loop")
            .if_empty_goto(0, "done")
            .push(Arith {
                dst: 1,
                op: Op::Monus,
                a: 0,
                b: 0,
            })
            .push(Select { dst: 0, src: 1 })
            .goto("loop")
            .label("done")
            .push(Halt);
        let r = verify_program(&b.build().unwrap());
        assert!(r.ok(), "{r}");
        assert_eq!(r.proven_safe, 1, "{r}");
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

    /// The verifier's fault lattice and `analysis::can_fault` must
    /// classify every opcode identically — this enumerates the whole
    /// instruction set, so a new opcode can't silently diverge (the
    /// `match` below is non-exhaustive the moment a variant is added).
    #[test]
    fn fault_classification_matches_can_fault_for_every_opcode() {
        let all: Vec<Instr> = vec![
            Move { dst: 0, src: 1 },
            Arith {
                dst: 0,
                op: Op::Add,
                a: 1,
                b: 2,
            },
            Empty { dst: 0 },
            Singleton { dst: 0, n: 3 },
            Append { dst: 0, a: 1, b: 2 },
            Length { dst: 0, src: 1 },
            Enumerate { dst: 0, src: 1 },
            BmRoute {
                dst: 0,
                bound: 1,
                counts: 2,
                values: 3,
            },
            SbmRoute {
                dst: 0,
                bound: 1,
                counts: 2,
                data: 3,
                segs: 4,
            },
            Select { dst: 0, src: 1 },
            Goto { target: 1 },
            IfEmptyGoto { reg: 0, target: 1 },
            Halt,
        ];
        for ins in &all {
            // Compile-time exhaustiveness: adding an opcode breaks this
            // match, forcing the new case into `all` and the verifier.
            match ins {
                Move { .. }
                | Arith { .. }
                | Empty { .. }
                | Singleton { .. }
                | Append { .. }
                | Length { .. }
                | Enumerate { .. }
                | BmRoute { .. }
                | SbmRoute { .. }
                | Select { .. }
                | Goto { .. }
                | IfEmptyGoto { .. }
                | Halt => {}
            }
            // With no length facts, classification must flag exactly
            // the can_fault instructions (inputs here are distinct
            // registers, so nothing is trivially proven).
            let classified = classify_fault(ins, None).is_some();
            assert_eq!(
                classified,
                can_fault(ins),
                "verifier and can_fault disagree on {ins}"
            );
        }
    }

    #[test]
    fn fuzz_programs_verify_ok() {
        let mut proven = 0usize;
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
            proven += r.proven_safe;
            // A definite fault can only come from the deliberately
            // unconstrained route variant (valid-by-construction routes
            // and length-tracked arithmetic never statically fault).
            for site in r.definite_faults() {
                assert!(
                    site.instr.contains("bm_route"),
                    "seed {seed}: unexpected definite fault: {site}\n{p}"
                );
            }
        }
        assert!(
            proven > 0,
            "the ones-counts idiom should be proven safe somewhere"
        );
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
