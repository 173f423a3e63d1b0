//! Symbolic cost analysis: parametric `W'`/`T'` bounds.
//!
//! Theorem 7.1 bounds the compiled program's work and time in terms of
//! the source costs; this module recovers machine-checkable *per-program*
//! versions of those bounds.  [`cost_program`] derives, for a compiled
//! BVRAM program, upper bounds on the [`crate::Stats`] a successful run
//! can report — as multivariate polynomials over the **lengths of the
//! input registers** (`n0` = length of `V0`, …, one symbol per input
//! register).  Runs that fault, diverge, or hit a step limit return no
//! `Stats`, so they are outside the contract — the bound speaks about
//! successful runs.
//!
//! The analysis has three steps.  The natural loops of the shared
//! [`Cfg`]'s back edges take their trip counts from the compiler-emitted
//! [`TripHint`](crate::program::TripHint) certificates; a loop with no
//! certificate makes the whole report [`CostBound::Top`] at its jump, and
//! the trip counts give each block a multiplier, which is all `T'`
//! needs.  For `W'`, an abstract interpretation on the verifier's
//! [`ForwardAnalysis`]/[`run_forward`] framework bounds every register's
//! length by a polynomial (`None` = unbounded).  Its one widening rule:
//! at each block entry a register's bound may grow twice, and a third
//! growth, or an unbounded incoming value, makes it unbounded.  A register that accumulates across a loop (a buffer grown
//! by `append` every trip) therefore widens, and an instruction that
//! reads or writes it makes `W'` — and only `W'` — `⊤`, reported with
//! its program counter and a reason.
//!
//! Soundness: for every successful run with input lengths `ℓ`,
//! `stats.time ≤ T'(ℓ)` and `stats.work ≤ W'(ℓ)` (`Top` evaluates to
//! "unbounded" and is vacuously sound).  The sweeps in
//! `tests/cost_soundness.rs` and `tests/roster/cost_soundness.rs`
//! enforce this against the interpreter.

use crate::cfg::Cfg;
use crate::instr::{Instr, Reg};
use crate::program::{Program, TripBound};
use crate::verify::{check_structure, run_forward, ForwardAnalysis};
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

// ---------------------------------------------------------------------------
// Polynomials
// ---------------------------------------------------------------------------

/// Maximum total degree a bound may reach before the analysis gives up
/// (nested routing can square lengths; past this the bound is useless
/// as a budget anyway).
pub const MAX_DEGREE: u32 = 8;

/// Maximum number of monomials in a bound.
pub const MAX_TERMS: usize = 64;

/// A multivariate polynomial with saturating `u64` coefficients over the
/// input-length symbols `n0 … n_{r_in-1}`.  All coefficients are
/// non-negative, so the polynomial is monotone in every symbol — which
/// is what makes coefficient-wise `max` a sound join.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Poly {
    /// Exponent vector (one entry per symbol) → coefficient.  Zero
    /// coefficients are never stored.
    terms: BTreeMap<Vec<u32>, u64>,
    /// Number of symbols (the program's `r_in`).
    n_syms: usize,
}

impl Poly {
    /// The zero polynomial.
    pub fn zero(n_syms: usize) -> Poly {
        Poly {
            terms: BTreeMap::new(),
            n_syms,
        }
    }

    /// The constant polynomial `c`.
    pub fn constant(c: u64, n_syms: usize) -> Poly {
        let mut p = Poly::zero(n_syms);
        if c > 0 {
            p.terms.insert(vec![0; n_syms], c);
        }
        p
    }

    /// The symbol `n_i`.
    pub fn sym(i: usize, n_syms: usize) -> Poly {
        let mut e = vec![0; n_syms];
        e[i] = 1;
        let mut p = Poly::zero(n_syms);
        p.terms.insert(e, 1);
        p
    }

    /// Whether this is the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    /// Total degree (0 for constants).
    pub fn degree(&self) -> u32 {
        self.terms
            .keys()
            .map(|e| e.iter().sum::<u32>())
            .max()
            .unwrap_or(0)
    }

    /// Degree in symbol `i` alone.
    pub fn degree_in(&self, i: usize) -> u32 {
        self.terms.keys().map(|e| e[i]).max().unwrap_or(0)
    }

    /// `self + other` (saturating coefficients).
    pub fn add(&self, other: &Poly) -> Poly {
        let mut out = self.clone();
        out.add_assign(other);
        out
    }

    /// `self += other` in place (saturating coefficients).
    pub fn add_assign(&mut self, other: &Poly) {
        debug_assert_eq!(self.n_syms, other.n_syms);
        for (e, c) in &other.terms {
            let slot = self.terms.entry(e.clone()).or_insert(0);
            *slot = slot.saturating_add(*c);
        }
    }

    /// `self * other`, or `None` when the product busts the degree or
    /// term caps (callers widen to `Top`/unbounded).
    pub fn mul(&self, other: &Poly) -> Option<Poly> {
        debug_assert_eq!(self.n_syms, other.n_syms);
        let mut out = Poly::zero(self.n_syms);
        for (ea, ca) in &self.terms {
            for (eb, cb) in &other.terms {
                let e: Vec<u32> = ea.iter().zip(eb).map(|(a, b)| a + b).collect();
                if e.iter().sum::<u32>() > MAX_DEGREE {
                    return None;
                }
                let slot = out.terms.entry(e).or_insert(0);
                *slot = slot.saturating_add(ca.saturating_mul(*cb));
            }
        }
        (out.terms.len() <= MAX_TERMS).then_some(out)
    }

    /// Coefficient-wise maximum: an upper bound of both operands (sound
    /// because coefficients and symbols are non-negative).
    pub fn join(&self, other: &Poly) -> Poly {
        debug_assert_eq!(self.n_syms, other.n_syms);
        let mut out = self.clone();
        for (e, c) in &other.terms {
            let slot = out.terms.entry(e.clone()).or_insert(0);
            *slot = (*slot).max(*c);
        }
        out
    }

    /// Evaluates at concrete input lengths (saturating arithmetic;
    /// missing trailing lengths default to 0).
    pub fn eval(&self, lens: &[u64]) -> u64 {
        let mut total: u64 = 0;
        for (e, c) in &self.terms {
            let mut t = *c;
            for (i, k) in e.iter().enumerate() {
                let v = lens.get(i).copied().unwrap_or(0);
                for _ in 0..*k {
                    t = t.saturating_mul(v);
                }
            }
            total = total.saturating_add(t);
        }
        total
    }

    /// Whether the polynomial is ω(n) in symbol `i`: degree ≥ 2 in `i`,
    /// or `i` appearing in a mixed term with another symbol.
    pub fn superlinear_in(&self, i: usize) -> bool {
        self.terms.keys().any(|e| {
            e[i] >= 2 || (e[i] >= 1 && e.iter().enumerate().any(|(j, k)| j != i && *k > 0))
        })
    }
}

impl fmt::Display for Poly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.terms.is_empty() {
            return write!(f, "0");
        }
        // Highest total degree first, then reverse-lex on exponents, so
        // the rendering is deterministic and reads like a polynomial.
        let mut terms: Vec<(&Vec<u32>, &u64)> = self.terms.iter().collect();
        terms.sort_by(|(ea, _), (eb, _)| {
            let (da, db) = (ea.iter().sum::<u32>(), eb.iter().sum::<u32>());
            db.cmp(&da).then(eb.cmp(ea))
        });
        for (idx, (e, c)) in terms.iter().enumerate() {
            if idx > 0 {
                write!(f, " + ")?;
            }
            let is_const = e.iter().all(|k| *k == 0);
            if **c != 1 || is_const {
                write!(f, "{c}")?;
                if !is_const {
                    write!(f, "*")?;
                }
            }
            let mut first = true;
            for (i, k) in e.iter().enumerate() {
                if *k == 0 {
                    continue;
                }
                if !first {
                    write!(f, "*")?;
                }
                first = false;
                write!(f, "n{i}")?;
                if *k > 1 {
                    write!(f, "^{k}")?;
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// CostBound / CostReport
// ---------------------------------------------------------------------------

/// A symbolic upper bound: a polynomial over the input-register lengths,
/// or `⊤` with the program counter and reason that forced the widening.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CostBound {
    /// A finite parametric bound.
    Poly(Poly),
    /// Unbounded: the analysis could not certify a finite bound.
    Top {
        /// The program counter where precision was lost.
        pc: usize,
        /// Why (e.g. `no trip certificate for back edge`).
        reason: String,
    },
}

impl CostBound {
    /// Evaluates at concrete input lengths; `None` means unbounded.
    pub fn eval(&self, lens: &[u64]) -> Option<u64> {
        match self {
            CostBound::Poly(p) => Some(p.eval(lens)),
            CostBound::Top { .. } => None,
        }
    }

    /// The polynomial, if finite.
    pub fn as_poly(&self) -> Option<&Poly> {
        match self {
            CostBound::Poly(p) => Some(p),
            CostBound::Top { .. } => None,
        }
    }

    /// Whether the bound is `⊤`.
    pub fn is_top(&self) -> bool {
        matches!(self, CostBound::Top { .. })
    }
}

impl fmt::Display for CostBound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CostBound::Poly(p) => write!(f, "{p}"),
            CostBound::Top { pc, reason } => write!(f, "⊤ (pc {pc}: {reason})"),
        }
    }
}

/// The derived cost certificate of one program: parametric bounds on
/// [`crate::Stats::time`] and [`crate::Stats::work`] for successful runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostReport {
    /// Upper bound on `T'` (instructions executed).
    pub time: CostBound,
    /// Upper bound on `W'` (Σ input+output register lengths per step).
    pub work: CostBound,
    /// Number of length symbols (= the program's `r_in`).
    pub n_syms: usize,
}

impl CostReport {
    /// An all-`⊤` report with one shared reason.
    fn top(pc: usize, reason: &str, n_syms: usize) -> CostReport {
        let t = CostBound::Top {
            pc,
            reason: reason.to_string(),
        };
        CostReport {
            time: t.clone(),
            work: t,
            n_syms,
        }
    }

    /// `true` iff both bounds are finite polynomials.
    pub fn is_finite(&self) -> bool {
        !self.time.is_top() && !self.work.is_top()
    }
}

impl fmt::Display for CostReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T' <= {}\nW' <= {}", self.time, self.work)
    }
}

// ---------------------------------------------------------------------------
// The register-length abstract domain
// ---------------------------------------------------------------------------

/// The growth of a register's bound at one block entry that widens it
/// to unbounded (the widening of Cousot & Cousot, POPL 1977).  Over
/// every program the repo compiles (the stdlib roster and the goldens
/// at `O0` and `O1`, the workload suite at `O1`, each as single program
/// and `map(f)` kernel), every cap from 3 to 6 yields the same
/// certificates; a cap of 2 loses the `O1` certificates of `sigma1` and
/// `sigma2`.
const GROWTH_CAP: u8 = 3;

/// Analysis budget: blocks × registers beyond which the analyzer
/// returns `⊤` immediately instead of running a fixpoint that could
/// take minutes on million-instruction pack kernels.
pub const COST_BUDGET: usize = 1 << 22;

type LenVal = Option<Rc<Poly>>;

/// Abstract state: an upper bound on each register's length (`None` =
/// unbounded), and how often each bound has grown at this block entry.
#[derive(Clone)]
struct LenState {
    regs: Vec<LenVal>,
    growths: Vec<u8>,
}

struct LenPolys {
    n_syms: usize,
    /// Shared `0` and `1` polynomials: the most common transfer outputs
    /// stay pointer-identical across visits, so `join`'s `Rc::ptr_eq`
    /// fast path fires instead of a structural compare per register.
    zero: Rc<Poly>,
    one: Rc<Poly>,
}

impl LenPolys {
    fn new(n_syms: usize) -> LenPolys {
        LenPolys {
            n_syms,
            zero: Rc::new(Poly::zero(n_syms)),
            one: Rc::new(Poly::constant(1, n_syms)),
        }
    }

    fn out_len(&self, ins: &Instr, regs: &[LenVal]) -> LenVal {
        let get = |r: Reg| regs[r as usize].clone();
        match ins {
            Instr::Move { src, .. } | Instr::Select { src, .. } => get(*src),
            // On a successful run `|a| = |b|`; either operand's bound is
            // an upper bound of the result length.
            Instr::Arith { a, b, .. } => get(*a).or_else(|| get(*b)),
            Instr::Empty { .. } => Some(self.zero.clone()),
            Instr::Singleton { .. } | Instr::Length { .. } => Some(self.one.clone()),
            Instr::Append { a, b, .. } => {
                let (a, b) = (get(*a)?, get(*b)?);
                Some(Rc::new(a.add(&b)))
            }
            Instr::Enumerate { src, .. } => get(*src),
            // validate_bm: the output length is exactly `|bound|`.
            Instr::BmRoute { bound, .. } => get(*bound),
            // validate_sbm: `Σ counts = |bound|`, `Σ segs = |data|`, so
            // the output `Σ cᵢ·sᵢ ≤ |bound|·|data|`.
            Instr::SbmRoute { bound, data, .. } => {
                let (b, d) = (get(*bound)?, get(*data)?);
                b.mul(&d).map(Rc::new)
            }
            Instr::Goto { .. } | Instr::IfEmptyGoto { .. } | Instr::Halt => None,
        }
    }
}

impl ForwardAnalysis for LenPolys {
    type State = LenState;

    fn entry_state(&self, prog: &Program) -> LenState {
        let mut regs: Vec<LenVal> = vec![Some(self.zero.clone()); prog.n_regs];
        for (i, r) in regs.iter_mut().enumerate().take(prog.r_in) {
            *r = Some(Rc::new(Poly::sym(i, self.n_syms)));
        }
        LenState {
            regs,
            growths: vec![0; prog.n_regs],
        }
    }

    fn transfer(&self, _pc: usize, ins: &Instr, st: &mut LenState) {
        if let Some(dst) = ins.output() {
            let v = self.out_len(ins, &st.regs);
            st.regs[dst as usize] = v;
        }
    }

    fn refine_edge(&self, _from: usize, ins: &Instr, to: usize, st: &mut LenState) {
        if let Instr::IfEmptyGoto { reg, target } = ins {
            if *target as usize == to {
                st.regs[*reg as usize] = Some(self.zero.clone());
            }
        }
    }

    // Terminates: each register's bound at a block changes at most
    // `GROWTH_CAP` times, the last time to unbounded, which absorbs.
    fn join(&self, state: &mut LenState, incoming: &LenState) -> bool {
        let mut changed = false;
        for (i, inc) in incoming.regs.iter().enumerate() {
            let joined = match (&state.regs[i], inc) {
                (None, _) => continue,
                (Some(a), Some(b)) => {
                    if Rc::ptr_eq(a, b) || a == b {
                        continue;
                    }
                    let j = a.join(b);
                    if j == **a {
                        continue;
                    }
                    state.growths[i] += 1;
                    (state.growths[i] < GROWTH_CAP).then(|| Rc::new(j))
                }
                (Some(_), None) => None,
            };
            state.regs[i] = joined;
            changed = true;
        }
        changed
    }
}

// ---------------------------------------------------------------------------
// Natural loops
// ---------------------------------------------------------------------------

/// One natural loop: the back edge and its body blocks.
struct Loop {
    /// pc of the back-edge jump (the hint key).
    jump_pc: usize,
    /// Head block index.
    head: usize,
    /// Membership bitset over blocks.
    body: Vec<bool>,
}

// ---------------------------------------------------------------------------
// The analyzer
// ---------------------------------------------------------------------------

/// Derives the symbolic cost certificate of `prog`.
///
/// Never panics on well-formed programs; structurally invalid programs
/// and programs past [`COST_BUDGET`] get an all-`⊤` report.
pub fn cost_program(prog: &Program) -> CostReport {
    let n_syms = prog.r_in;
    if !check_structure(prog).is_empty() {
        return CostReport::top(0, "structurally invalid program", n_syms);
    }
    if prog.instrs.is_empty() {
        return CostReport::top(0, "empty program (every run falls off the end)", n_syms);
    }
    let cfg = Cfg::build(prog);
    let nb = cfg.n_blocks();
    if nb.saturating_mul(prog.n_regs) > COST_BUDGET {
        return CostReport::top(0, "over analysis budget", n_syms);
    }
    // --- structure: back edges and their natural loops -----------------
    // A retreating edge that is not a dominator back edge is irreducible
    // control flow, outside this analysis.
    for b in 0..nb {
        let retreats = |&s: &u32| s as usize <= b && !cfg.dominates(s as usize, b);
        if cfg.succs(b).iter().any(retreats) {
            return CostReport::top(cfg.last(b), "irreducible control flow", n_syms);
        }
    }
    let loops: Vec<Loop> = cfg
        .back_edges()
        .map(|(b, s)| {
            // Natural loop of b → s: s + reverse-reachable from b
            // without passing through s.
            let mut body = vec![false; nb];
            body[s] = true;
            let mut stack = vec![b];
            while let Some(x) = stack.pop() {
                if body[x] {
                    continue;
                }
                body[x] = true;
                stack.extend(cfg.preds(x).iter().map(|&p| p as usize));
            }
            Loop {
                jump_pc: cfg.last(b),
                head: s,
                body,
            }
        })
        .collect();

    let hints: BTreeMap<usize, TripBound> = prog
        .trip_hints
        .iter()
        .map(|h| (h.pc as usize, h.bound))
        .collect();

    // A loop without a certificate leaves its blocks' execution counts
    // unbounded, and every loop is reachable (back edges join reachable
    // blocks), so the report is ⊤ whatever the length fixpoint would
    // find: skip it, and name the loop that holds the lowest such block.
    if let Some((_, l)) = loops
        .iter()
        .filter(|l| !hints.contains_key(&l.jump_pc))
        .filter_map(|l| Some((l.body.iter().position(|&x| x)?, l)))
        .min_by_key(|&(b, _)| b)
    {
        return CostReport::top(l.jump_pc, "no trip certificate for back edge", n_syms);
    }

    // --- the length fixpoint -------------------------------------------
    let analysis = LenPolys::new(n_syms);
    let states = run_forward(prog, &cfg, &analysis);

    // Exit state of block `b` along the edge to block `t`.
    let exit_state = |b: usize, t: usize| -> Option<LenState> {
        let mut st = states[b].clone()?;
        for pc in cfg.range(b) {
            analysis.transfer(pc, &prog.instrs[pc], &mut st);
        }
        let last = cfg.last(b);
        analysis.refine_edge(last, &prog.instrs[last], cfg.leader(t), &mut st);
        Some(st)
    };

    // --- trip bound of each loop, as a polynomial -----------------------
    // `Len` hints are evaluated at the loop *entry* state: the join of
    // the exit states of the head's non-back-edge predecessors.
    let one = Poly::constant(1, n_syms);
    let mut trips: Vec<Result<Poly, String>> = Vec::with_capacity(loops.len());
    for l in &loops {
        let trip = match hints[&l.jump_pc] {
            TripBound::Const(c) => Ok(Poly::constant(c, n_syms)),
            TripBound::Len { reg } => {
                let mut entry_len: Option<Poly> = None;
                let mut from_outside = l.head == 0; // program entry
                if l.head == 0 {
                    let e = analysis.entry_state(prog);
                    entry_len = e.regs[reg as usize].as_deref().cloned();
                }
                for &p in cfg.preds(l.head) {
                    let p = p as usize;
                    if l.body[p] {
                        continue; // edge from inside the loop
                    }
                    from_outside = true;
                    match exit_state(p, l.head).and_then(|st| st.regs[reg as usize].clone()) {
                        Some(len) => {
                            entry_len = Some(match entry_len {
                                None => (*len).clone(),
                                Some(cur) => cur.join(&len),
                            });
                        }
                        None => {
                            entry_len = None;
                            from_outside = false;
                            break;
                        }
                    }
                }
                match (entry_len, from_outside) {
                    (Some(len), true) => Ok(len.add(&one)),
                    _ => Err(format!("entry length of v{reg} unbounded")),
                }
            }
        };
        trips.push(trip);
    }

    // --- per-block execution multipliers --------------------------------
    // A block inside loops L1…Lk executes at most Π (trip(Li)+1) times
    // (the +1 covers the final, guard-failing head evaluation).
    let mut mult: Vec<Result<Poly, (usize, String)>> = vec![Ok(one.clone()); nb];
    for (l, trip) in loops.iter().zip(&trips) {
        for (b, slot) in mult.iter_mut().enumerate() {
            if !l.body[b] {
                continue;
            }
            let cur = match slot {
                Ok(p) => p.clone(),
                Err(_) => continue,
            };
            *slot = match trip {
                Ok(t) => match cur.mul(&t.add(&one)) {
                    Some(p) => Ok(p),
                    None => Err((l.jump_pc, "trip-product degree cap".to_string())),
                },
                Err(reason) => Err((l.jump_pc, reason.clone())),
            };
        }
    }

    // --- totals ----------------------------------------------------------
    // Replay each reachable block from its converged entry state; charge
    // time 1 and work Σ|inputs| + |output| per instruction, times the
    // block multiplier (mirrors `Machine::exec_loop` accounting).  `T'`
    // needs only the multipliers; `W'` turns ⊤ at the first instruction
    // whose lengths are unbounded, and `T'` stays finite.
    let top = |pc: usize, reason: &str| CostBound::Top {
        pc,
        reason: reason.to_string(),
    };
    let mut time = Poly::zero(n_syms);
    let mut work: Result<Poly, CostBound> = Ok(Poly::zero(n_syms));
    for (b, block_mult) in mult.iter().enumerate() {
        let Some(entry) = &states[b] else {
            continue; // unreachable: executes zero times
        };
        let m = match block_mult {
            Ok(m) => m,
            Err((pc, reason)) => {
                return CostReport {
                    time: top(*pc, reason),
                    work: work.err().unwrap_or_else(|| top(*pc, reason)),
                    n_syms,
                }
            }
        };
        for _ in cfg.range(b) {
            time.add_assign(m);
        }
        work = work.and_then(|mut w| {
            let mut st = entry.clone();
            for pc in cfg.range(b) {
                let ins = &prog.instrs[pc];
                let output = ins.output().map(|_| analysis.out_len(ins, &st.regs));
                let lens = ins
                    .inputs()
                    .into_iter()
                    .map(|r| st.regs[r as usize].clone());
                let mut step = Poly::zero(n_syms);
                for len in lens.chain(output) {
                    let len = len.ok_or_else(|| top(pc, "unbounded register length"))?;
                    step.add_assign(&len);
                }
                let charge = step
                    .mul(m)
                    .ok_or_else(|| top(pc, "work-product degree cap"))?;
                w.add_assign(&charge);
                analysis.transfer(pc, ins, &mut st);
            }
            Ok(w)
        });
    }

    CostReport {
        time: CostBound::Poly(time),
        work: work.map_or_else(|t| t, CostBound::Poly),
        n_syms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Op;
    use crate::program::TripBound;
    use crate::{run_program, Builder, Vector};

    fn vec_of(n: usize) -> Vector {
        (0..n as u64).collect()
    }

    #[test]
    fn straight_line_bounds_are_exact_enough() {
        // v1 <- enumerate v0 ; v0 <- add v0 v1 ; halt
        let mut b = Builder::new(1, 1);
        b.push(Instr::Enumerate { dst: 1, src: 0 })
            .push(Instr::Arith {
                dst: 0,
                op: Op::Add,
                a: 0,
                b: 1,
            })
            .push(Instr::Halt);
        let p = b.build().unwrap();
        let r = cost_program(&p);
        assert!(r.is_finite(), "{r}");
        for n in [0usize, 1, 5, 100] {
            let out = run_program(&p, &[vec_of(n)]).unwrap();
            let t = r.time.eval(&[n as u64]).unwrap();
            let w = r.work.eval(&[n as u64]).unwrap();
            assert!(out.stats.time <= t, "time {} > bound {t}", out.stats.time);
            assert!(out.stats.work <= w, "work {} > bound {w}", out.stats.work);
        }
    }

    #[test]
    fn unhinted_loop_is_top_with_pc_and_reason() {
        let mut b = Builder::new(1, 1);
        b.label("l")
            .push(Instr::Select { dst: 2, src: 0 })
            .if_empty_goto(2, "done")
            .push(Instr::Select { dst: 0, src: 2 })
            .goto("l")
            .label("done")
            .push(Instr::Halt);
        let p = b.build().unwrap();
        let r = cost_program(&p);
        assert!(r.time.is_top() && r.work.is_top(), "{r}");
        let text = r.to_string();
        assert!(
            text.contains("pc 3") && text.contains("no trip certificate"),
            "{text}"
        );
    }

    /// The doubling-loop shape the code generator emits for scans, up to
    /// and including its `Halt`.
    fn hinted_const_loop() -> Builder {
        let mut b = Builder::new(1, 1);
        b.push(Instr::Singleton { dst: 1, n: 1 });
        b.label("l");
        b.push(Instr::Length { dst: 2, src: 0 })
            .push(Instr::Arith {
                dst: 3,
                op: Op::Lt,
                a: 1,
                b: 2,
            })
            .push(Instr::Select { dst: 4, src: 3 })
            .if_empty_goto(4, "done")
            .push(Instr::Arith {
                dst: 1,
                op: Op::Add,
                a: 1,
                b: 1,
            })
            .trip_hint(TripBound::Const(66))
            .goto("l")
            .label("done")
            .push(Instr::Halt);
        b
    }

    fn assert_finite_and_sound(p: &Program) {
        let r = cost_program(p);
        assert!(r.is_finite(), "{r}");
        for n in [0usize, 1, 2, 7, 1000] {
            let out = run_program(p, &[vec_of(n)]).unwrap();
            let lens = [n as u64];
            assert!(out.stats.time <= r.time.eval(&lens).unwrap());
            assert!(out.stats.work <= r.work.eval(&lens).unwrap());
        }
    }

    /// The hinted constant trip yields a finite bound that dominates the
    /// measured stats.
    #[test]
    fn hinted_const_loop_is_finite_and_sound() {
        assert_finite_and_sound(&hinted_const_loop().build().unwrap());
    }

    /// Dead code jumping to the loop head is no predecessor of it: the
    /// head still dominates its latch, the loop stays a natural loop,
    /// and the certificate stays finite.
    #[test]
    fn dead_jump_to_a_loop_head_keeps_the_loop_certifiable() {
        let mut b = hinted_const_loop();
        b.push(Instr::Singleton { dst: 5, n: 0 }).goto("l");
        assert_finite_and_sound(&b.build().unwrap());
    }

    /// A buffer that `append` grows by `|v0|` on every trip of a
    /// constant-trip loop outgrows the widening: `W'` is ⊤ at the first
    /// instruction that reads it, while `T'` needs only the trip count
    /// and stays finite and sound.
    #[test]
    fn accumulating_register_makes_only_work_top() {
        let mut b = Builder::new(1, 1);
        b.push(Instr::Singleton { dst: 1, n: 1 })
            .push(Instr::Empty { dst: 5 });
        b.label("l");
        b.push(Instr::Length { dst: 2, src: 0 })
            .push(Instr::Arith {
                dst: 3,
                op: Op::Lt,
                a: 1,
                b: 2,
            })
            .push(Instr::Select { dst: 4, src: 3 })
            .if_empty_goto(4, "done")
            .push(Instr::Arith {
                dst: 1,
                op: Op::Add,
                a: 1,
                b: 1,
            })
            .push(Instr::Append { dst: 5, a: 5, b: 0 })
            .trip_hint(TripBound::Const(66))
            .goto("l")
            .label("done")
            .push(Instr::Halt);
        let p = b.build().unwrap();
        let r = cost_program(&p);
        assert_eq!(r.work.to_string(), "⊤ (pc 7: unbounded register length)");
        for n in [0usize, 1, 7, 1000] {
            let out = run_program(&p, &[vec_of(n)]).unwrap();
            assert!(out.stats.time <= r.time.eval(&[n as u64]).expect("finite T'"));
        }
    }

    /// An uncertified loop after a certified one: the report is ⊤ at the
    /// uncertified loop's back-edge jump.
    #[test]
    fn uncertified_loop_is_top_at_its_jump() {
        let mut b = Builder::new(1, 1);
        b.label("l")
            .push(Instr::Length { dst: 1, src: 0 })
            .if_empty_goto(1, "m")
            .trip_hint(TripBound::Const(1))
            .goto("l")
            .label("m")
            .push(Instr::Select { dst: 6, src: 0 })
            .if_empty_goto(6, "end")
            .push(Instr::Select { dst: 0, src: 6 })
            .goto("m")
            .label("end")
            .push(Instr::Halt);
        let r = cost_program(&b.build().unwrap());
        let top = "⊤ (pc 6: no trip certificate for back edge)";
        assert_eq!(r.to_string(), format!("T' <= {top}\nW' <= {top}"));
    }

    /// An uncertified loop that only unreachable code enters runs zero
    /// times: the report stays finite.
    #[test]
    fn unreachable_uncertified_loop_keeps_the_report_finite() {
        let mut b = Builder::new(1, 1);
        b.push(Instr::Move { dst: 1, src: 0 }).push(Instr::Halt);
        b.push(Instr::Move { dst: 2, src: 0 });
        b.label("l")
            .push(Instr::Select { dst: 2, src: 2 })
            .if_empty_goto(2, "end")
            .goto("l")
            .label("end")
            .push(Instr::Halt);
        assert_finite_and_sound(&b.build().unwrap());
    }

    /// A length-hinted loop: drop one element per iteration via select
    /// on an enumerate-derived mask is hard to build by hand, so model
    /// the shape with a select that strictly shrinks (fuzz-style) and
    /// check the `Len` hint path: trip = |v0| + 1 at entry.
    #[test]
    fn hinted_len_loop_uses_entry_length() {
        // Shrink v0 by selecting its nonzero elements of enumerate:
        // enumerate keeps 0 at the head, select drops exactly one per
        // round until empty.
        let mut b = Builder::new(1, 1);
        b.label("l");
        b.if_empty_goto(0, "done");
        b.push(Instr::Enumerate { dst: 1, src: 0 })
            .push(Instr::Select { dst: 0, src: 1 })
            .trip_hint(TripBound::Len { reg: 0 })
            .goto("l")
            .label("done")
            .push(Instr::Halt);
        let p = b.build().unwrap();
        let r = cost_program(&p);
        assert!(r.is_finite(), "{r}");
        // Degree: each of ≤ n+1 iterations touches O(n) registers → O(n²).
        let tp = r.time.as_poly().unwrap();
        assert!(tp.degree() >= 1, "{tp}");
        for n in [0usize, 1, 3, 10] {
            let out = run_program(&p, &[vec_of(n)]).unwrap();
            let lens = [n as u64];
            assert!(out.stats.time <= r.time.eval(&lens).unwrap());
            assert!(out.stats.work <= r.work.eval(&lens).unwrap());
        }
    }

    #[test]
    fn trip_hint_register_out_of_bounds_is_structural_top() {
        // `Builder::build` rejects this certificate; a struct literal
        // bypasses it, and must get the structural ⊤, not a panic.
        use crate::program::TripHint;
        let p = Program {
            instrs: vec![
                Instr::IfEmptyGoto { reg: 0, target: 3 },
                Instr::Move { dst: 1, src: 0 },
                Instr::Goto { target: 0 },
                Instr::Halt,
            ],
            n_regs: 2,
            r_in: 1,
            r_out: 1,
            trip_hints: vec![TripHint {
                pc: 2,
                bound: TripBound::Len { reg: 99 },
            }],
        };
        let r = cost_program(&p);
        assert!(r.time.is_top() && r.work.is_top(), "{r}");
        assert!(r.to_string().contains("structurally invalid"), "{r}");
    }

    #[test]
    fn join_le_display_laws() {
        let a = Poly::sym(0, 2);
        let b = Poly::constant(3, 2);
        let j = a.join(&b);
        for lens in [[0, 0], [2, 5], [9, 1]] {
            assert!(a.eval(&lens) <= j.eval(&lens) && b.eval(&lens) <= j.eval(&lens));
        }
        assert_eq!(j.to_string(), "n0 + 3");
    }

    #[test]
    fn display_is_deterministic_and_sorted() {
        let n0 = Poly::sym(0, 2);
        let n1 = Poly::sym(1, 2);
        let p = n0
            .mul(&n0)
            .unwrap()
            .mul(&Poly::constant(3, 2))
            .unwrap()
            .add(&n1.add(&n1))
            .add(&Poly::constant(5, 2))
            .add(&n0.mul(&n1).unwrap());
        assert_eq!(p.to_string(), "3*n0^2 + n0*n1 + 2*n1 + 5");
    }

    #[test]
    fn superlinear_detection() {
        let n0 = Poly::sym(0, 2);
        let n1 = Poly::sym(1, 2);
        assert!(!n0.superlinear_in(0));
        assert!(n0.mul(&n0).unwrap().superlinear_in(0));
        let mixed = n0.mul(&n1).unwrap();
        assert!(mixed.superlinear_in(0) && mixed.superlinear_in(1));
        assert!(!n0.add(&n1).superlinear_in(0));
    }
}
