//! **Theorem 7.1** end to end: NSC → NSA → SA → BVRAM.
//!
//! [`compile_nsc`] chains the paper's whole compilation:
//!
//! 1. variable elimination (Proposition C.1, `nsc_algebra::nsa`),
//! 2. flattening with the Map Lemma (Proposition 7.4, `nsc_algebra::sa`),
//! 3. code generation onto the bounded-register machine
//!    (Proposition 7.5, [`crate::codegen`]).
//!
//! [`run_compiled`] executes a compiled program on an NSC value (encoding
//! through `COMPILE(s)` and the register layout) and reports the BVRAM
//! `T'/W'` next to the NSC source costs, which is what EXP-T71 sweeps.

use crate::codegen::compile_sa;
use crate::layout::{regs_to_value, value_to_regs};
use crate::opt::{optimize_checked, OptLevel};
use bvram::{verify_program, Machine, MachineError, Program, RunOutcome, Vector};
use nsc_algebra::nsa::from_nsc::func_to_nsa;
use nsc_algebra::sa::flatten::{compile, compile_type, decode, encode};
use nsc_core::cost::Cost;
use nsc_core::error::EvalError as E;
use nsc_core::types::Type;
use nsc_core::value::Value;
use nsc_core::Func;

/// A fully compiled NSC function.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The BVRAM program.
    pub program: Program,
    /// NSC domain type.
    pub dom: Type,
    /// NSC codomain type.
    pub cod: Type,
}

/// Compiles a closed NSC function `f : dom → cod` down to the BVRAM at
/// the default optimization level ([`OptLevel::O1`]).
pub fn compile_nsc(f: &Func, dom: &Type) -> Result<Compiled, E> {
    compile_nsc_with(f, dom, OptLevel::default())
}

/// Lowerings above this instruction count ship **unoptimized**.
///
/// Flattening multiplies program size (a `while`-heavy function's
/// `map(f)` kernel reaches millions of instructions), and the optimizer
/// walks the program several times per round: seconds of compile
/// latency for a constant-factor run-time win that a serving path
/// cannot amortize on first request.  Measured before the optimizer,
/// the largest program of the stdlib roster, the workload suite and the
/// goldens is `combine_flags` at 216,324 instructions, well under the
/// budget; past it are the `while`-heavy stdlib `map(f)` kernels (up to
/// 9.4M instructions) and the Theorem 4.2 translations of the
/// map-recursion fixtures (`range_sum` 1,295,309, `staircase`
/// 2,548,260, `range_sum3` 2,565,462).
pub const OPT_BUDGET: usize = 1 << 20;

/// Compiles a closed NSC function `f : dom → cod` down to the BVRAM,
/// running the [`crate::opt`] pass pipeline at the requested level.  The
/// compile policy is the same for every caller: a lowering over
/// [`OPT_BUDGET`] skips the optimizer, and every returned program
/// verifies clean under `bvram::verify` (no structural violation, no
/// use-before-def, no path off the end), or the call fails with
/// [`E::MachineFault`].  A debug build also translation-validates the
/// codegen output and every optimizer pass ([`optimize_checked`]), so a
/// broken invariant is reported naming the pass, the pc and the
/// instruction — a miscompile can never masquerade as a legitimate
/// runtime `Ω`.
pub fn compile_nsc_with(f: &Func, dom: &Type, level: OptLevel) -> Result<Compiled, E> {
    let nsa = func_to_nsa(f).map_err(E::Translation)?;
    let (sa, cod) = compile(&nsa, dom)?;
    let (program, sa_cod) = compile_sa(&sa, &compile_type(dom))?;
    // Internal invariant: the BVRAM register layout must describe exactly
    // the flattened codomain, or every output the program writes will be
    // decoded under the wrong shape.  This was a `debug_assert_eq!`, which
    // vanishes in `--release` — the one build users actually run — so a
    // miscompiled layout would silently produce garbage there.
    if sa_cod != compile_type(&cod) {
        return Err(E::MachineFault(format!(
            "compiled codomain layout {sa_cod} does not match the flattened \
             source codomain {} (internal error)",
            compile_type(&cod)
        )));
    }
    // Free the translation's terms before the optimizer runs: a `map(f)`
    // kernel's are tens of MiB, and would add to the optimizer's peak.
    drop((nsa, sa));
    let level = if program.instrs.len() > OPT_BUDGET {
        OptLevel::O0
    } else {
        level
    };
    let program =
        optimize_checked(program, level, "codegen").map_err(|e| E::MachineFault(e.to_string()))?;
    Ok(Compiled {
        program: verified(program)?,
        dom: dom.clone(),
        cod,
    })
}

/// The compile gate: `program` if it verifies clean, else a
/// [`E::MachineFault`] carrying the verifier's report.
fn verified(program: Program) -> Result<Program, E> {
    let report = verify_program(&program);
    if !report.clean() {
        return Err(E::MachineFault(format!(
            "compiled program failed verification:\n{report}"
        )));
    }
    Ok(program)
}

/// Maps a machine error onto the NSC-level error semantics.
///
/// Public so execution paths outside this module (the `nsc-runtime`
/// batch runner) classify machine faults identically to [`run_compiled`].
///
/// Only two machine faults correspond to source-level behavior: an
/// arithmetic fault is how the code generator models `Ω` (and division by
/// zero), and a step-limit trip is the divergence guard.  Everything else
/// — routing invariant violations, length mismatches, bad arity, falling
/// off the end — means the *compiler* emitted bad code and is reported as
/// [`E::MachineFault`] so it can never masquerade as legitimate
/// nontermination.
pub fn eval_error_of(e: MachineError) -> E {
    match e {
        MachineError::Arithmetic { .. } | MachineError::StepLimit => E::Omega,
        other => E::MachineFault(other.to_string()),
    }
}

/// Runs a compiled program on an NSC value; returns the decoded NSC result
/// and the machine's `(T, W)`.
pub fn run_compiled(c: &Compiled, arg: &Value) -> Result<(Value, Cost), E> {
    let regs = encode_arg(arg, &c.dom)?;
    let out = run_encoded(&c.program, regs)?;
    let val = decode_result(&out.outputs, &c.cod)?;
    Ok((val, Cost::new(out.stats.time, out.stats.work)))
}

/// Encodes an NSC argument of type `dom` into the program's input
/// registers (`COMPILE(dom)` flattening + the fixed register layout).
///
/// Split out of [`run_compiled`] so callers that run the same program
/// many times — the batch runtime — can encode on one thread and execute
/// elsewhere (register vectors are plain `Vec<u64>`s, hence `Send`,
/// unlike [`Value`]).
pub fn encode_arg(arg: &Value, dom: &Type) -> Result<Vec<Vector>, E> {
    let enc = encode(arg, dom)?;
    value_to_regs(&enc, &compile_type(dom))
}

/// Decodes a program's output registers back into an NSC value of type
/// `cod` (the inverse half of [`encode_arg`]).
pub fn decode_result(outputs: &[Vector], cod: &Type) -> Result<Value, E> {
    let flat = regs_to_value(outputs, &compile_type(cod))?;
    decode(&flat, cod)
}

/// Executes a program on already-encoded input registers, mapping
/// machine faults onto NSC error semantics.
pub fn run_encoded(prog: &Program, regs: Vec<Vector>) -> Result<RunOutcome, E> {
    Machine::new(prog.n_regs)
        .run_owned(prog, regs)
        .map_err(eval_error_of)
}

/// The machine argument of [`run_program_on`].  There is one BVRAM
/// interpreter, and both paths name it: `Backend::Seq` and `Backend::Par`
/// are the same value.  Kept only because `bench/src/replay.rs` spells
/// both and `bench/` is frozen; ROADMAP item 1 removes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// The one interpreter, [`Machine`].
    #[default]
    Seq,
}

impl Backend {
    /// Another name for [`Backend::Seq`]: the one interpreter.
    #[allow(non_upper_case_globals)]
    pub const Par: Backend = Backend::Seq;
}

/// [`run_encoded`] with an unused machine argument, kept only because
/// `bench/src/replay.rs` calls it and `bench/` is frozen; ROADMAP item 1
/// removes it.  Everything else calls [`run_encoded`].
pub fn run_program_on(prog: &Program, regs: Vec<Vector>, _: Backend) -> Result<RunOutcome, E> {
    run_encoded(prog, regs)
}

/// Differential run: NSC evaluator vs compiled BVRAM; returns
/// `(value, source cost, target cost)` after asserting the values agree.
pub fn differential(f: &Func, dom: &Type, arg: Value) -> Result<(Value, Cost, Cost), E> {
    let (want, src) = nsc_core::eval::apply_func(f, arg.clone())?;
    let c = compile_nsc(f, dom)?;
    let (got, tgt) = run_compiled(&c, &arg)?;
    if got != want {
        return Err(E::Stuck("compiled program disagrees with NSC semantics"));
    }
    Ok((got, src, tgt))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsc_core::ast as a;
    use nsc_core::stdlib;

    #[test]
    fn scalar_function_end_to_end() {
        let f = a::lam("x", a::add(a::mul(a::var("x"), a::var("x")), a::nat(1)));
        let (v, _, _) = differential(&f, &Type::Nat, Value::nat(6)).unwrap();
        assert_eq!(v, Value::nat(37));
    }

    #[test]
    fn map_end_to_end() {
        let f = a::map(a::lam("x", a::mul(a::var("x"), a::nat(3))));
        let (v, _, _) = differential(&f, &Type::seq(Type::Nat), Value::nat_seq(0..8)).unwrap();
        assert_eq!(v, Value::nat_seq((0..8).map(|x| 3 * x)));
    }

    #[test]
    fn nested_sequences_end_to_end() {
        let f = a::lam("x", a::flatten(a::var("x")));
        let arg = Value::seq(vec![
            Value::nat_seq([1, 2]),
            Value::nat_seq([]),
            Value::nat_seq([3]),
        ]);
        let (v, _, _) = differential(&f, &Type::seq(Type::seq(Type::Nat)), arg).unwrap();
        assert_eq!(v, Value::nat_seq([1, 2, 3]));
    }

    #[test]
    fn while_under_map_end_to_end() {
        // The full Theorem 7.1 pipeline on the Map Lemma's hard case.
        let f = a::map(a::while_(
            a::lam("x", a::lt(a::nat(0), a::var("x"))),
            a::lam("x", a::rshift(a::var("x"), a::nat(1))),
        ));
        let (v, _src, _tgt) =
            differential(&f, &Type::seq(Type::Nat), Value::nat_seq([9, 0, 100, 3])).unwrap();
        assert_eq!(v, Value::nat_seq([0, 0, 0, 0]));
    }

    #[test]
    fn stdlib_sum_end_to_end() {
        let f = a::lam("x", stdlib::numeric::sum_seq(a::var("x")));
        let (v, src, tgt) = differential(&f, &Type::seq(Type::Nat), Value::nat_seq(0..20)).unwrap();
        assert_eq!(v, Value::nat(190));
        assert!(tgt.time > 0 && src.time > 0);
    }

    #[test]
    fn compiled_time_tracks_source_time() {
        // T' = O(T): the ratio stays bounded as n doubles.
        let f = a::lam("x", stdlib::numeric::sum_seq(a::var("x")));
        let c = compile_nsc(&f, &Type::seq(Type::Nat)).unwrap();
        let ratio = |n: u64| {
            let arg = Value::nat_seq(0..n);
            let (_, src) = nsc_core::eval::apply_func(&f, arg.clone()).unwrap();
            let (_, tgt) = run_compiled(&c, &arg).unwrap();
            tgt.time as f64 / src.time as f64
        };
        let r64 = ratio(64);
        let r512 = ratio(512);
        assert!(
            r512 < r64 * 1.5 + 1.0,
            "T'/T should stay bounded: {r64:.2} -> {r512:.2}"
        );
    }

    #[test]
    fn errors_propagate_as_machine_faults() {
        let f = a::lam("x", a::get(a::var("x"))); // Omega on non-singletons
        let c = compile_nsc(&f, &Type::seq(Type::Nat)).unwrap();
        assert!(run_compiled(&c, &Value::nat_seq([1, 2])).is_err());
        let (v, _) = run_compiled(&c, &Value::nat_seq([7])).unwrap();
        assert_eq!(v, Value::nat(7));
    }

    #[test]
    fn compiler_bugs_are_not_reported_as_omega() {
        // A deliberately broken program: a bm_route whose counts cannot
        // sum to the bound length.  A compiler emitting this has a bug,
        // and run_compiled must say so instead of claiming divergence.
        use bvram::{Builder, Instr};
        let good = compile_nsc(
            &a::map(a::lam("x", a::add(a::var("x"), a::nat(1)))),
            &Type::seq(Type::Nat),
        )
        .unwrap();
        let mut b = Builder::new(1, 1);
        b.push(Instr::Singleton { dst: 1, n: 99 })
            .push(Instr::BmRoute {
                dst: 0,
                bound: 0,
                counts: 1,
                values: 1,
            })
            .push(Instr::Halt);
        let broken = Compiled {
            program: b.build().unwrap(),
            ..good
        };
        let err = run_compiled(&broken, &Value::nat_seq([1, 2, 3])).unwrap_err();
        assert!(
            matches!(err, E::MachineFault(_)),
            "a route-invariant violation is a compiler bug, not Omega: got {err:?}"
        );
        assert_ne!(err, E::Omega);
    }

    #[test]
    fn omega_still_reports_as_omega() {
        // The deliberate division fault modelling Ω must keep mapping to
        // E::Omega (it is genuine source-level error semantics).
        let f = a::lam("x", a::get(a::var("x")));
        let c = compile_nsc(&f, &Type::seq(Type::Nat)).unwrap();
        let err = run_compiled(&c, &Value::nat_seq([1, 2])).unwrap_err();
        assert_eq!(err, E::Omega);
    }

    #[test]
    fn translation_errors_carry_the_real_cause() {
        // An open function: `y` is unbound, and variable elimination is
        // where that surfaces.  The error must name the variable, not be
        // a generic "translation failed".
        let f = a::lam("x", a::add(a::var("x"), a::var("y")));
        let err = compile_nsc(&f, &Type::Nat).unwrap_err();
        match &err {
            E::Translation(nsc_core::TypeError::UnboundVariable(name)) => {
                assert_eq!(name, "y");
            }
            other => panic!("expected Translation(UnboundVariable), got {other:?}"),
        }
        assert!(err.to_string().contains("unbound variable `y`"), "{err}");

        // An unresolved named function is the other translation failure
        // a front end can trigger.
        let g = a::named("not_a_definition");
        let err = compile_nsc(&g, &Type::Nat).unwrap_err();
        assert!(
            matches!(&err, E::Translation(_)),
            "expected Translation, got {err:?}"
        );
    }

    #[test]
    fn optimizer_is_semantics_preserving_and_profitable() {
        // For each end-to-end program: O0 and O1 agree bit-for-bit on the
        // decoded value, and O1 never costs more in T' or W'.
        let suite: Vec<(&str, nsc_core::Func)> = vec![
            (
                "square+1",
                a::map(a::lam(
                    "x",
                    a::add(a::mul(a::var("x"), a::var("x")), a::nat(1)),
                )),
            ),
            (
                "tree-sum",
                a::lam("x", stdlib::numeric::sum_seq(a::var("x"))),
            ),
            (
                "prefix-sum",
                a::lam("x", stdlib::numeric::prefix_sum(a::var("x"))),
            ),
            (
                "halve-all",
                a::map(a::while_(
                    a::lam("x", a::lt(a::nat(0), a::var("x"))),
                    a::lam("x", a::rshift(a::var("x"), a::nat(1))),
                )),
            ),
            ("flatten", a::lam("x", a::flatten(a::var("x")))),
        ];
        for (name, f) in suite {
            let dom = if name == "flatten" {
                Type::seq(Type::seq(Type::Nat))
            } else {
                Type::seq(Type::Nat)
            };
            let c0 = compile_nsc_with(&f, &dom, OptLevel::O0).expect(name);
            let c1 = compile_nsc_with(&f, &dom, OptLevel::O1).expect(name);
            assert!(
                c1.program.n_regs <= c0.program.n_regs,
                "{name}: registers grew"
            );
            for n in [0u64, 1, 5, 32] {
                let arg = if name == "flatten" {
                    Value::seq((0..n).map(|i| Value::nat_seq(0..i % 4)).collect())
                } else {
                    Value::nat_seq((0..n).map(|i| (i * 7) % 23))
                };
                let (v0, t0) = run_compiled(&c0, &arg).expect(name);
                let (v1, t1) = run_compiled(&c1, &arg).expect(name);
                assert_eq!(v0, v1, "{name} at n={n}: optimized output differs");
                assert!(
                    t1.time <= t0.time && t1.work <= t0.work,
                    "{name} at n={n}: optimizer regressed cost {t0:?} -> {t1:?}"
                );
            }
        }
    }

    #[test]
    fn lowerings_over_the_budget_ship_unoptimized() {
        // Compiling while-loop kernels recurses with program depth; give
        // the test the same roomy stack the CLI driver uses.
        std::thread::Builder::new()
            .stack_size(256 * 1024 * 1024)
            .spawn(budget_body)
            .unwrap()
            .join()
            .unwrap();
    }

    fn budget_body() {
        let inc = || a::map(a::lam("y", a::add(a::var("y"), a::nat(1))));
        // Under the budget the optimizer runs.
        let seq_n = Type::seq(Type::Nat);
        let c0 = compile_nsc_with(&inc(), &seq_n, OptLevel::O0).unwrap();
        let c1 = compile_nsc_with(&inc(), &seq_n, OptLevel::O1).unwrap();
        assert!(c1.program.instrs.len() < c0.program.instrs.len());

        // `map(sum)` of a two-stage map chain lowers past the budget: it
        // comes back exactly as lowered, verified.
        let dbl = a::map(a::lam("y", a::mul(a::var("y"), a::nat(2))));
        let chain = a::app(inc(), a::app(dbl, a::var("x")));
        let f = a::map(a::lam("x", stdlib::numeric::sum_seq(chain)));
        let dom = Type::seq(seq_n);
        let o0 = compile_nsc_with(&f, &dom, OptLevel::O0).unwrap();
        assert!(o0.program.instrs.len() > OPT_BUDGET, "workload choice");
        let c = compile_nsc_with(&f, &dom, OptLevel::O1).unwrap();
        assert_eq!(c.program.instrs, o0.program.instrs);
        assert!(verify_program(&c.program).clean());
    }

    #[test]
    fn programs_that_do_not_verify_clean_are_compile_errors() {
        // v3 is never written, so the read of it at pc 0 is flagged.
        use bvram::{Builder, Instr};
        let mut b = Builder::new(1, 1);
        b.push(Instr::Append { dst: 0, a: 0, b: 3 })
            .push(Instr::Halt);
        let err = verified(b.build().unwrap()).unwrap_err();
        let E::MachineFault(what) = err else {
            panic!("expected MachineFault, got {err:?}")
        };
        assert!(what.contains("pc 0: v3 is read before any write"), "{what}");
    }

    #[test]
    fn register_count_independent_of_input_size() {
        let f = a::map(a::lam("x", a::add(a::var("x"), a::nat(1))));
        let c = compile_nsc(&f, &Type::seq(Type::Nat)).unwrap();
        let n_regs = c.program.n_regs;
        for n in [0u64, 1, 100, 10_000] {
            let (_, _) = run_compiled(&c, &Value::nat_seq(0..n)).unwrap();
        }
        assert_eq!(c.program.n_regs, n_regs);
    }
}
