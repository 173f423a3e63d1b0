//! Shared workload builders for experiments and tests.
//!
//! Every experiment constructs its programs here, so "the sum workload"
//! means the same AST in `exp_t71`, `exp_opt`, `exp_batch`, `exp_fusion`
//! and `exp_cost` — apples to apples across the whole model-cost surface.

use nsc_core::ast as a;
use nsc_core::stdlib;
use nsc_core::{Func, Type, Value};

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
/// source checkout, so for experiments and tests only.
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
}
