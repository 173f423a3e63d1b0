//! Shared workload builders for benchmarks and experiments.
//!
//! Every criterion bench and batch experiment constructs its programs
//! here, so "the sum workload" means the same AST in `benches/*.rs`,
//! `exp_t71`, `exp_opt`, `exp_batch`, and `bench_report` — apples to
//! apples across the whole perf surface.
//!
//! **Machine-reuse policy for benchmarks**: construct machines *once per
//! benchmark* and reuse them across iterations (warm register buffers) —
//! that is the serving runtime's steady state, which is what the benches
//! model.  A bench that wants cold-start numbers must say so in its name.

use nsc_core::ast as a;
use nsc_core::stdlib;
use nsc_core::{Func, Type, Value};

/// A raw-BVRAM kernel: `y ← 3x²-ish` through a few registers (the
/// backend-crossover workload of `benches/wallclock.rs`).
pub fn saxpy_like() -> bvram::Program {
    use bvram::{Builder, Instr::*, Op};
    let mut b = Builder::new(2, 1);
    b.push(Arith {
        dst: 2,
        op: Op::Mul,
        a: 0,
        b: 0,
    })
    .push(Arith {
        dst: 3,
        op: Op::Add,
        a: 2,
        b: 1,
    })
    .push(Arith {
        dst: 2,
        op: Op::Mul,
        a: 3,
        b: 0,
    })
    .push(Arith {
        dst: 0,
        op: Op::Add,
        a: 2,
        b: 3,
    })
    .push(Halt);
    b.build().expect("static kernel")
}

/// `map(λx. x·x + 1) : [N] → [N]`.
pub fn map_square_plus_one() -> Func {
    a::map(a::lam(
        "x",
        a::add(a::mul(a::var("x"), a::var("x")), a::nat(1)),
    ))
}

/// Tree sum via the stdlib `while` loop: `λx. sum(x) : [N] → N`.
pub fn sum_while() -> Func {
    a::lam("x", stdlib::numeric::sum_seq(a::var("x")))
}

/// `λx. prefix_sum(x) : [N] → [N]`.
pub fn prefix_sum() -> Func {
    a::lam("x", stdlib::numeric::prefix_sum(a::var("x")))
}

/// The Map Lemma's hard case: a data-dependent `while` under `map`.
pub fn halve_all() -> Func {
    a::map(a::while_(
        a::lam("x", a::lt(a::nat(0), a::var("x"))),
        a::lam("x", a::rshift(a::var("x"), a::nat(1))),
    ))
}

/// A three-stage `map` chain (`(+1) ∘ (x·x) ∘ (+2)` elementwise) the
/// source-level fusion rewrite collapses to one stage — the
/// `exp_fusion` differential workload.  Every stage materializes an
/// intermediate sequence unfused, so the Map-Lemma encoding is paid
/// three times instead of once.
pub fn chained_maps() -> Func {
    let add = |k: u64| a::lam("x", a::add(a::var("x"), a::nat(k)));
    let sq = a::lam("x", a::mul(a::var("x"), a::var("x")));
    a::lam(
        "v",
        a::app(
            a::map(add(1)),
            a::app(a::map(sq), a::app(a::map(add(2)), a::var("v"))),
        ),
    )
}

/// Like [`chained_maps`], but the middle stage divides by the element:
/// `Ω` exactly when the input contains a zero — the fault-classification
/// side of the fusion differential.
pub fn chained_maps_faulting() -> Func {
    let add = |k: u64| a::lam("x", a::add(a::var("x"), a::nat(k)));
    let inv = a::lam("x", a::div(a::nat(100), a::var("x")));
    a::lam(
        "v",
        a::app(
            a::map(add(1)),
            a::app(a::map(inv), a::app(a::map(add(0)), a::var("v"))),
        ),
    )
}

/// The shared `EXP-T71`/`EXP-OPT`/`EXP-BATCH` suite over `[N]`.
pub fn suite() -> Vec<(&'static str, Func)> {
    vec![
        ("map(x*x+1)", map_square_plus_one()),
        ("sum (while)", sum_while()),
        ("prefix-sum", prefix_sum()),
        ("map(while halve)", halve_all()),
    ]
}

/// The five golden `examples/*.nsc` in file-name order: `(file stem,
/// inlined `main`, its domain, the file's `input`)`.  Read from the
/// source checkout, so for benches, experiments and tests only.
pub fn goldens() -> Vec<(&'static str, Func, Type, Value)> {
    [
        "classify",
        "dot_product",
        "halve_all",
        "regroup",
        "square_plus_one",
    ]
    .into_iter()
    .map(|stem| {
        let path = format!("{}/../../examples/{stem}.nsc", env!("CARGO_MANIFEST_DIR"));
        let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let module = nsc_core::parse::parse_module(&src).unwrap_or_else(|e| panic!("{path}: {e}"));
        module.check().unwrap_or_else(|e| panic!("{path}: {e}"));
        let dom = module.get("main").expect("goldens define main").dom.clone();
        let pure = module.inlined("main").expect("inlinable main");
        let input = module.input.clone().expect("goldens ship an input");
        (stem, pure, dom, input)
    })
    .collect()
}

/// The optimizer-ablation pair (`benches/optimizer.rs`).
pub fn optimizer_pair() -> Vec<(&'static str, Func)> {
    vec![("map_sq", map_square_plus_one()), ("sum", sum_while())]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_suite_workload_compiles_and_runs() {
        for (name, f) in suite() {
            let c = nsc_compile::compile_nsc(&f, &Type::seq(Type::Nat)).expect(name);
            let arg = Value::nat_seq(0..8);
            let (got, _) = nsc_compile::run_compiled(&c, &arg).expect(name);
            let (want, _) = nsc_core::eval::apply_func(&f, arg).expect(name);
            assert_eq!(got, want, "{name}");
        }
    }

    #[test]
    fn saxpy_kernel_runs() {
        let p = saxpy_like();
        let out = bvram::run_program(&p, &[vec![1, 2, 3], vec![4, 5, 6]]).unwrap();
        assert_eq!(out.outputs[0].len(), 3);
    }
}
