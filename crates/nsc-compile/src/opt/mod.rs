//! A post-lowering optimizer for compiled BVRAM programs.
//!
//! Theorem 7.1 guarantees the compilation preserves *asymptotic* `(T, W)`;
//! this module attacks the constant factors.  The code generator emits
//! naive straight-line blocks — staging `Move` chains, one fresh register
//! per temporary, recomputed `Length`s — and a handful of classic
//! dataflow passes over the flat IR recovers most of the slack (cf. the
//! post-flattening optimizations of Hielscher's data-parallel locality
//! work and the rewrite-driven lowerings of Rasch's MDH line):
//!
//! * [`vn`] — value numbering in one dominance-scoped walk: global
//!   numbers for single-definition registers their definition dominates,
//!   per-block versions for the rest, each number carrying constant-fill
//!   and symbolic-length facts.  One rewrite step does copy propagation,
//!   CSE (which hoists the segment descriptors and broadcasts the Map
//!   Lemma recomputes per block) and strength reduction (`x+0`, `x·1`,
//!   `x·0`, identity `bm_route` → `Move`);
//! * [`dce`] — global liveness-based dead-instruction elimination
//!   (removing only instructions that can never fault, so a deliberate
//!   `Ω`-fault or a latent route violation is *never* optimized away),
//!   plus fallthrough `goto` removal;
//! * [`coalesce`] — move coalescing: merging the live ranges of
//!   move-related registers so staging and loop-carried `Move`s vanish;
//! * [`regs`] — register allocation after the last round: a linear scan
//!   over live intervals shrinks `n_regs` to about the most registers
//!   live at once.  The module owns every register name.
//!
//! Every pass preserves semantics *exactly*: optimized programs produce
//! bit-identical outputs (and identical machine errors) on every input,
//! and never cost more — `T′` and `W′` are non-increasing under every
//! pass.  The only observable difference is through
//! [`bvram::Machine::with_step_limit`]: a run that previously exceeded a
//! step budget may now fit inside it.
//!
//! In a debug build every pass is also translation-validated, like a
//! debug assertion: the static verifier re-runs after each pass
//! application and the first pass to break an invariant is reported by
//! name ([`PassError`]).  Release builds run no per-pass check; the
//! compile gate in [`crate::pipeline`] verifies every finished program
//! in every build.

pub mod coalesce;
pub mod dce;
pub mod regs;
pub mod vn;

use bvram::{cost_program, verify_program, CostBound, CostReport, Instr, Program, Report};
use std::fmt;

/// How hard [`optimize`] works.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OptLevel {
    /// No optimization: the program exactly as the code generator emitted
    /// it (useful as a differential baseline).
    O0,
    /// The full pass pipeline (the default).
    #[default]
    O1,
}

/// A translation-validation failure: the named stage left the program
/// in a state the static verifier rejects.
#[derive(Debug, Clone)]
pub struct PassError {
    /// The stage that broke the invariant (`"codegen"`, a pass `NAME`,
    /// or [`regs::NAME`]).
    pub pass: &'static str,
    /// The violated invariant(s), rendered with pc + instruction.
    pub detail: String,
}

impl fmt::Display for PassError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "translation validation failed after `{}`: {}",
            self.pass,
            self.detail.trim_end()
        )
    }
}

impl std::error::Error for PassError {}

/// The invariants a verified stage must preserve, snapshotted from the
/// stage input: structural validity always, plus init-cleanliness and
/// no-fall-off when the input had them (a pass must not *introduce*
/// use-before-def or a path off the end).
#[derive(Debug, Clone, Copy)]
struct Baseline {
    init_clean: bool,
    no_fall_off: bool,
}

impl Baseline {
    fn of(report: &Report) -> Baseline {
        Baseline {
            init_clean: report.uninit_reads.is_empty(),
            no_fall_off: report.fall_off.is_empty(),
        }
    }
}

fn check_stage(pass: &'static str, prog: &Program, base: Baseline) -> Result<(), PassError> {
    let report = verify_program(prog);
    let broken = !report.ok()
        || (base.init_clean && !report.uninit_reads.is_empty())
        || (base.no_fall_off && !report.fall_off.is_empty());
    if broken {
        return Err(PassError {
            pass,
            detail: report.to_string(),
        });
    }
    Ok(())
}

/// Maximum pass-pipeline rounds before giving up on reaching a fixpoint
/// (each round strictly shrinks the program or leaves it unchanged, so
/// this is a defensive bound, not a tuning knob).
const MAX_ROUNDS: usize = 8;

/// Instruction-count ceiling for the per-pass cost-regression check:
/// symbolic cost analysis of a large kernel costs more than the pass
/// pipeline itself, so debug builds only cross-check `T'`/`W'`
/// bounds on programs this size or smaller.
const COST_CHECK_MAX_INSTRS: usize = 4096;

/// Deterministic sample grid for comparing two parametric bounds:
/// uniform lengths at several scales plus one asymmetric point.
fn cost_samples(n_syms: usize) -> Vec<Vec<u64>> {
    let mut grid: Vec<Vec<u64>> = [0u64, 1, 2, 3, 8, 64, 1000]
        .iter()
        .map(|&k| vec![k; n_syms])
        .collect();
    grid.push((0..n_syms).map(|i| 7 * (i as u64 + 1)).collect());
    grid
}

/// Checks that `post` does not exceed `pre` — the pass contract says
/// `T'` and `W'` are non-increasing, so the *derived bounds* must not
/// grow either.  Polynomials are compared on [`cost_samples`] (exact
/// coefficient dominance is too strict: passes legitimately move cost
/// between monomials); a finite bound widening to `⊤` always fails.
fn check_cost_regression(
    pass: &'static str,
    pre: &CostReport,
    post: &CostReport,
) -> Result<(), PassError> {
    let grid = cost_samples(pre.n_syms);
    for (what, b_pre, b_post) in [("T'", &pre.time, &post.time), ("W'", &pre.work, &post.work)] {
        match (b_pre, b_post) {
            (CostBound::Top { .. }, _) => {} // was unbounded: nothing to regress
            (CostBound::Poly(_), CostBound::Top { pc, reason }) => {
                return Err(PassError {
                    pass,
                    detail: format!(
                        "{what} bound widened from a polynomial to ⊤ (pc {pc}: {reason})"
                    ),
                });
            }
            (CostBound::Poly(p), CostBound::Poly(q)) => {
                for lens in &grid {
                    let (a, b) = (p.eval(lens), q.eval(lens));
                    if b > a {
                        return Err(PassError {
                            pass,
                            detail: format!(
                                "{what} bound increased at input lengths {lens:?}: {a} -> {b} \
                                 (before: {p}, after: {q})"
                            ),
                        });
                    }
                }
            }
        }
    }
    Ok(())
}

/// Optimizes a compiled BVRAM program.  Semantics-preserving and
/// cost-non-increasing; see the module docs for the pass list.  Takes
/// the program by value (compiled programs reach millions of
/// instructions; callers holding a borrow can clone at the call site).
///
/// # Panics
///
/// In a debug build, if a pass breaks a verifier invariant; the message
/// names the pass (see [`optimize_checked`]).
pub fn optimize(prog: Program, level: OptLevel) -> Program {
    optimize_checked(prog, level, "input").unwrap_or_else(|e| panic!("{e}"))
}

/// [`optimize`], returning a translation-validation failure instead of
/// panicking.  In a debug build the static verifier runs on the input
/// (stage `input_stage` — callers name it `"codegen"` when handing over
/// fresh codegen output) and again after every pass application, and
/// the first pass to break an invariant is reported by name with pc +
/// instruction diagnostics.  A release build checks nothing and always
/// returns `Ok`.
pub fn optimize_checked(
    p: Program,
    level: OptLevel,
    input_stage: &'static str,
) -> Result<Program, PassError> {
    match level {
        OptLevel::O0 => validate_input(&p, input_stage).map(|_| p),
        OptLevel::O1 => run_rounds(p, &PASSES, input_stage),
    }
}

/// A rewrite pass: mutates the program, returns whether anything changed.
pub type Pass = fn(&mut Program) -> bool;

/// The pass pipeline [`optimize`] runs each round, in order, with the
/// name translation validation reports.
pub const PASSES: [(&str, Pass); 3] = [
    (vn::NAME, vn::number),
    (dce::NAME, dce::eliminate_dead),
    (coalesce::NAME, coalesce::coalesce_moves),
];

/// [`optimize`] at [`OptLevel::O1`] over an arbitrary pass list — the
/// pass census of `exp opt` drops one [`PASSES`] row at a time to count
/// what each row earns.  Validated like [`optimize`], and panics like it.
pub fn optimize_with(prog: Program, passes: &[(&'static str, Pass)]) -> Program {
    run_rounds(prog, passes, "input").unwrap_or_else(|e| panic!("{e}"))
}

/// The input's verifier baseline, or a [`PassError`] naming
/// `input_stage` if the input is structurally invalid.  `None` in a
/// release build, which validates nothing.
fn validate_input(p: &Program, input_stage: &'static str) -> Result<Option<Baseline>, PassError> {
    if !cfg!(debug_assertions) {
        return Ok(None);
    }
    let report = verify_program(p);
    if !report.ok() {
        return Err(PassError {
            pass: input_stage,
            detail: report.to_string(),
        });
    }
    Ok(Some(Baseline::of(&report)))
}

/// The round loop: runs `passes` in order until a round changes nothing
/// (or stops paying), then allocates registers.  In a debug build every
/// stage's output is validated against the input's baseline.
fn run_rounds(
    mut p: Program,
    passes: &[(&'static str, Pass)],
    input_stage: &'static str,
) -> Result<Program, PassError> {
    let base = validate_input(&p, input_stage)?;
    // Cost-regression validation: snapshot the symbolic `T'`/`W'` bounds
    // of the input and require every pass to keep them non-increasing.
    let mut prev_cost = base
        .filter(|_| p.instrs.len() <= COST_CHECK_MAX_INSTRS)
        .map(|_| cost_program(&p));
    let mut after = |pass: &'static str, p: &Program| -> Result<(), PassError> {
        let Some(base) = base else {
            return Ok(());
        };
        check_stage(pass, p, base)?;
        if let Some(pre) = &mut prev_cost {
            let post = cost_program(p);
            check_cost_regression(pass, pre, &post)?;
            *pre = post;
        }
        Ok(())
    };
    for round in 0..MAX_ROUNDS {
        let before = p.instrs.len();
        let mut changed = false;
        for &(name, pass) in passes {
            changed |= pass(&mut p);
            after(name, &p)?;
        }
        if !changed {
            break;
        }
        // Rounds after the first typically shave well under a percent;
        // stop once the shrink rate no longer pays for the pass cost.
        if round >= 1 && before - p.instrs.len() < before / 512 {
            break;
        }
    }
    regs::allocate(&mut p);
    after(regs::NAME, &p)?;
    Ok(p)
}

/// Removes the instructions flagged in `delete`, remapping jump targets.
/// A target pointing at a deleted instruction lands on the next surviving
/// one (deleted instructions are always no-ops or unreachable, so this
/// preserves control flow).
pub(crate) fn remove_marked(prog: &mut Program, delete: &[bool]) -> bool {
    if !delete.iter().any(|d| *d) {
        return false;
    }
    let n = prog.instrs.len();
    // new_index[i] = number of surviving instructions before i, which is
    // also the post-compaction index of the first survivor at or after i.
    let mut new_index = vec![0u32; n + 1];
    let mut kept = 0u32;
    for i in 0..n {
        new_index[i] = kept;
        if !delete[i] {
            kept += 1;
        }
    }
    new_index[n] = kept;
    let old = std::mem::take(&mut prog.instrs);
    prog.instrs = old
        .into_iter()
        .enumerate()
        .filter(|(i, _)| !delete[*i])
        .map(|(_, mut ins)| {
            if let Instr::Goto { target } | Instr::IfEmptyGoto { target, .. } = &mut ins {
                *target = new_index[*target as usize];
            }
            ins
        })
        .collect();
    // Trip certificates are anchored to back-edge pcs: remap them with the
    // jump targets, and drop any whose anchor instruction was itself
    // removed (its loop is gone or unreachable).
    prog.trip_hints.retain_mut(|h| {
        let pc = h.pc as usize;
        if pc >= n || delete[pc] {
            return false;
        }
        h.pc = new_index[pc];
        true
    });
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use bvram::{run_program, Builder, Instr::*, Op, Vector};

    /// Masks the instruction index of a fault: optimization legitimately
    /// shifts `pc`s, but the fault kind *and payload* must be preserved.
    pub(crate) fn mask_fault_pc(e: bvram::MachineError) -> bvram::MachineError {
        use bvram::MachineError as ME;
        match e {
            ME::LengthMismatch { a, b, .. } => ME::LengthMismatch { at: 0, a, b },
            ME::RouteInvariant { what, .. } => ME::RouteInvariant { at: 0, what },
            ME::Arithmetic { .. } => ME::Arithmetic { at: 0 },
            other => other,
        }
    }

    /// Differential harness: the optimized program must agree with the
    /// original on outputs (or fault identically, up to the shifted
    /// instruction index) and never cost more.
    pub(crate) fn check_optimized(prog: &Program, inputs: &[Vector]) -> Program {
        let opt = optimize(prog.clone(), OptLevel::O1);
        match (run_program(prog, inputs), run_program(&opt, inputs)) {
            (Ok(a), Ok(b)) => {
                assert_eq!(
                    a.outputs, b.outputs,
                    "optimizer changed outputs\n{prog}\n{opt}"
                );
                assert!(
                    b.stats.time <= a.stats.time && b.stats.work <= a.stats.work,
                    "optimizer made the program costlier: {:?} -> {:?}\n{prog}\n{opt}",
                    a.stats,
                    b.stats
                );
            }
            (Err(a), Err(b)) => {
                assert_eq!(
                    mask_fault_pc(a),
                    mask_fault_pc(b),
                    "optimizer changed the fault\n{prog}\n{opt}"
                );
            }
            (a, b) => panic!("optimizer changed fault behavior: {a:?} vs {b:?}\n{prog}\n{opt}"),
        }
        opt
    }

    #[test]
    fn staging_move_chains_collapse() {
        // t <- length v0 ; u <- t ; v0 <- u ; halt   ==>   v0 <- length v0
        let mut b = Builder::new(1, 1);
        b.push(Length { dst: 5, src: 0 })
            .push(Move { dst: 6, src: 5 })
            .push(Move { dst: 0, src: 6 })
            .push(Halt);
        let p = b.build().unwrap();
        let opt = check_optimized(&p, &[vec![1, 2, 3]]);
        assert_eq!(opt.instrs.len(), 2, "{opt}");
        assert!(opt.n_regs <= 2, "registers should compact: {}", opt.n_regs);
    }

    #[test]
    fn duplicate_lengths_are_numbered_away() {
        let mut b = Builder::new(1, 2);
        b.push(Length { dst: 2, src: 0 })
            .push(Length { dst: 3, src: 0 })
            .push(Move { dst: 0, src: 2 })
            .push(Move { dst: 1, src: 3 })
            .push(Halt);
        let p = b.build().unwrap();
        let opt = check_optimized(&p, &[vec![9; 7]]);
        // One length feeds both outputs; the second is dead and removed.
        let lengths = opt
            .instrs
            .iter()
            .filter(|i| matches!(i, Length { .. }))
            .count();
        assert_eq!(lengths, 1, "{opt}");
    }

    #[test]
    fn omega_fault_is_never_optimized_away() {
        // The deliberate division fault writes a dead register; DCE must
        // keep it because it faults.
        let mut b = Builder::new(0, 1);
        b.push(Singleton { dst: 1, n: 1 })
            .push(Singleton { dst: 2, n: 0 })
            .push(Arith {
                dst: 3,
                op: Op::Div,
                a: 1,
                b: 2,
            })
            .push(Empty { dst: 0 })
            .push(Halt);
        let p = b.build().unwrap();
        check_optimized(&p, &[]);
        let opt = optimize(p.clone(), OptLevel::O1);
        assert!(
            opt.instrs
                .iter()
                .any(|i| matches!(i, Arith { op: Op::Div, .. })),
            "fault-capable instruction must survive: {opt}"
        );
    }

    #[test]
    fn loop_carried_move_coalesces() {
        // while v0 nonempty: v1 <- enumerate v0 ; v2 <- select v1 ; v0 <- v2
        // The v0 <- v2 move coalesces into select writing v0 directly.
        let mut b = Builder::new(1, 1);
        b.label("loop")
            .if_empty_goto(0, "done")
            .push(Enumerate { dst: 1, src: 0 })
            .push(Select { dst: 2, src: 1 })
            .push(Move { dst: 0, src: 2 })
            .goto("loop")
            .label("done")
            .push(Halt);
        let p = b.build().unwrap();
        let opt = check_optimized(&p, &[vec![7; 6]]);
        assert!(
            opt.instrs.iter().all(|i| !matches!(i, Move { .. })),
            "loop-carried move should coalesce: {opt}"
        );
    }

    #[test]
    fn jump_target_one_past_the_end_is_tolerated() {
        // A trailing label makes a conditional jump target one past the
        // end — a legal program that faults FellOffEnd when the branch is
        // taken.  The optimizer must neither panic nor change either
        // behavior (regression: coalesce indexed block_of[n]).
        let mut b = Builder::new(1, 2);
        b.push(Move { dst: 1, src: 0 })
            .if_empty_goto(0, "off")
            .push(Halt)
            .label("off");
        let p = b.build().unwrap();
        check_optimized(&p, &[vec![4, 5]]); // halts normally
        check_optimized(&p, &[vec![]]); // branch taken: falls off the end
    }

    #[test]
    fn cost_pessimizing_mutant_pass_is_caught_by_name() {
        // A mutant pass that pads the program with redundant vector work:
        // the structural verifier accepts the result (it is well-formed
        // and semantics-preserving), so only the cost-regression check
        // can object — and it must name the offending pass, like every
        // other translation-validation failure.  Debug builds run the
        // same check on every optimization.
        let mut b = Builder::new(1, 1);
        b.push(Enumerate { dst: 1, src: 0 })
            .push(Move { dst: 0, src: 1 })
            .push(Halt);
        let p = b.build().unwrap();
        let pre = cost_program(&p);
        let mut mutated = p.clone();
        let halt = mutated.instrs.pop().unwrap();
        mutated.instrs.push(Append { dst: 2, a: 0, b: 0 });
        mutated.instrs.push(halt);
        mutated.n_regs = mutated.n_regs.max(3);
        let post = cost_program(&mutated);
        let err = check_cost_regression("mutant_pad_work", &pre, &post).unwrap_err();
        assert_eq!(err.pass, "mutant_pad_work");
        assert!(err.to_string().contains("increased"), "{err}");

        // The genuine pipeline (validated in a debug build) stays clean
        // and keeps the bounds finite.
        let opt = optimize_checked(p, OptLevel::O1, "input").unwrap();
        assert!(cost_program(&opt).is_finite());
    }

    #[test]
    fn undominated_merge_mutant_is_caught_by_name() {
        // A mutant value numbering that merges duplicates without the
        // dominance check rewrites the join-point read to a register only
        // defined on one path.  The init-cleanliness baseline catches the
        // introduced use-before-def and names the pass.
        let mut b = Builder::new(1, 1);
        b.if_empty_goto(0, "skip")
            .push(Length { dst: 2, src: 0 })
            .label("skip")
            .push(Length { dst: 3, src: 0 })
            .push(Move { dst: 0, src: 3 })
            .push(Halt);
        let p = b.build().unwrap();
        let report = verify_program(&p);
        assert!(report.ok());
        let base = Baseline::of(&report);
        assert!(base.init_clean);
        let mut mutated = p.clone();
        mutated.instrs[3] = Move { dst: 0, src: 2 };
        let err = check_stage("mutant_vn_undominated", &mutated, base).unwrap_err();
        assert_eq!(err.pass, "mutant_vn_undominated");
        // The real pass leaves the program alone (see vn's own tests)
        // and the pipeline, validated in a debug build, stays clean on it.
        optimize_checked(p, OptLevel::O1, "input").unwrap();
    }

    #[test]
    fn inverse_strength_mutant_is_caught_by_name() {
        // A mutant that rewrites a 2·len Move into an equivalent 3·len
        // arith (`max(x,x)`) preserves semantics and structure, so only
        // the cost-regression gate can object — and it must name the
        // offending pass.
        let mut b = Builder::new(1, 1);
        b.push(Enumerate { dst: 1, src: 0 })
            .push(Move { dst: 0, src: 1 })
            .push(Halt);
        let p = b.build().unwrap();
        let pre = cost_program(&p);
        let mut mutated = p.clone();
        mutated.instrs[1] = Arith {
            dst: 0,
            op: Op::Max,
            a: 1,
            b: 1,
        };
        let post = cost_program(&mutated);
        let err = check_cost_regression("mutant_strength_inverse", &pre, &post).unwrap_err();
        assert_eq!(err.pass, "mutant_strength_inverse");
        assert!(err.to_string().contains("increased"), "{err}");
    }

    #[test]
    fn trip_hints_survive_optimization() {
        use bvram::TripBound;
        // A length-hinted shrinking loop: the optimizer deletes staging
        // moves and renumbers pcs/registers, and the certificate must
        // follow along — the optimized program still gets a finite,
        // sound bound.
        let mut b = Builder::new(1, 1);
        b.label("loop")
            .if_empty_goto(0, "done")
            .push(Enumerate { dst: 1, src: 0 })
            .push(Select { dst: 2, src: 1 })
            .push(Move { dst: 0, src: 2 })
            .trip_hint(TripBound::Len { reg: 0 })
            .goto("loop")
            .label("done")
            .push(Halt);
        let p = b.build().unwrap();
        assert!(cost_program(&p).is_finite());
        let opt = optimize_checked(p.clone(), OptLevel::O1, "input").unwrap();
        assert_eq!(opt.trip_hints.len(), 1, "certificate lost: {opt}");
        let hint = &opt.trip_hints[0];
        assert!(
            matches!(
                opt.instrs[hint.pc as usize],
                Goto { .. } | IfEmptyGoto { .. }
            ),
            "hint pc must still anchor the back edge: {opt}"
        );
        let r = cost_program(&opt);
        assert!(r.is_finite(), "{r}");
        for n in [0usize, 1, 4, 9] {
            let input: Vector = (0..n as u64).collect();
            let out = run_program(&opt, &[input]).unwrap();
            let lens = [n as u64];
            assert!(out.stats.time <= r.time.eval(&lens).unwrap());
            assert!(out.stats.work <= r.work.eval(&lens).unwrap());
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    fn broken_pass_is_named_by_the_round_loop() {
        // A mutant pass that redirects the output move to a register
        // nothing writes: structurally valid, but it introduces a
        // use-before-def, which the shared round loop reports by name.
        fn mutant(p: &mut Program) -> bool {
            p.instrs[1] = Move { dst: 0, src: 2 };
            p.n_regs = p.n_regs.max(3);
            true
        }
        let mut b = Builder::new(1, 1);
        b.push(Length { dst: 1, src: 0 })
            .push(Move { dst: 0, src: 1 })
            .push(Halt);
        let p = b.build().unwrap();
        let err = run_rounds(p, &[("mutant_uninit_read", mutant)], "input").unwrap_err();
        assert_eq!(err.pass, "mutant_uninit_read");
        assert!(
            err.to_string().contains("v2 is read before any write"),
            "{err}"
        );
    }

    #[test]
    fn o0_is_identity() {
        let mut b = Builder::new(1, 1);
        b.push(Move { dst: 3, src: 0 })
            .push(Move { dst: 0, src: 3 })
            .push(Halt);
        let p = b.build().unwrap();
        let same = optimize(p.clone(), OptLevel::O0);
        assert_eq!(same.instrs, p.instrs);
        assert_eq!(same.n_regs, p.n_regs);
    }
}
