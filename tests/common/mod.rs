//! Shared fixtures for the integration-test binaries.
//!
//! Each test binary compiles this module independently and uses the
//! subset it needs, so unused helpers are expected, not dead code.
#![allow(dead_code)]

use nsc::core::ast as a;
use nsc::core::stdlib;
use nsc::core::types::Type;
use nsc::core::value::Value;
use nsc::core::Func;

/// Runs `f` on a thread with enough stack for the deepest stdlib
/// compilations (`map(combine_flags)` and friends), mirroring
/// `src/bin/nsc.rs`.
pub fn on_big_stack(f: fn()) {
    std::thread::Builder::new()
        .stack_size(512 * 1024 * 1024)
        .spawn(f)
        .expect("spawn worker")
        .join()
        .expect("worker panicked");
}

/// A deterministic inhabitant of `t` whose sequences have length `n`.
/// Scalars stay small (`1..=3`) so index/take/drop-style arguments are
/// usually in range at the sweeps' sizes; runs that still fault (e.g.
/// `bm_route` with counts that don't sum to the bound) are the callers'
/// to skip.
pub fn sample(t: &Type, n: u64) -> Value {
    match t {
        Type::Unit => Value::unit(),
        Type::Nat => Value::nat(n % 3 + 1),
        Type::Prod(a, b) => Value::pair(sample(a, n), sample(b, n)),
        Type::Sum(a, b) => {
            if n.is_multiple_of(2) {
                Value::inl(sample(a, n))
            } else {
                Value::inr(sample(b, n))
            }
        }
        Type::Seq(s) => Value::seq((0..n).map(|i| sample(s, i)).collect()),
    }
}

/// Every runnable stdlib function with its domain — shared by the
/// static-verification suite (`tests/static_verify.rs`) and the
/// cost-soundness suite (`tests/cost_soundness.rs`), so "the stdlib
/// roster" means the same ASTs in both.
pub fn typed_suite() -> Vec<(&'static str, Func, Type)> {
    let nn = Type::prod(Type::Nat, Type::Nat);
    let seq_n = Type::seq(Type::Nat);
    let gt0 = a::lam("p0", a::lt(a::nat(0), a::var("p0")));
    vec![
        ("pi1", stdlib::pi1(), Type::seq(nn.clone())),
        ("pi2", stdlib::pi2(), Type::seq(nn.clone())),
        (
            "broadcast",
            stdlib::broadcast(),
            Type::prod(Type::Nat, seq_n.clone()),
        ),
        (
            "sigma1",
            stdlib::sigma1(&Type::Nat),
            Type::seq(Type::sum(Type::Nat, Type::Nat)),
        ),
        (
            "sigma2",
            stdlib::sigma2(&Type::Nat),
            Type::seq(Type::sum(Type::Nat, Type::Nat)),
        ),
        ("filter(>0)", stdlib::filter(gt0, &Type::Nat), seq_n.clone()),
        (
            "index",
            a::lam(
                "p",
                stdlib::index(a::fst(a::var("p")), a::snd(a::var("p")), &Type::Nat),
            ),
            Type::prod(seq_n.clone(), seq_n.clone()),
        ),
        (
            "index_split",
            a::lam(
                "p",
                stdlib::index_split(a::fst(a::var("p")), a::snd(a::var("p"))),
            ),
            Type::prod(seq_n.clone(), seq_n.clone()),
        ),
        (
            "nth",
            a::lam(
                "p",
                stdlib::nth(a::fst(a::var("p")), a::snd(a::var("p")), &Type::Nat),
            ),
            Type::prod(seq_n.clone(), Type::Nat),
        ),
        (
            "take",
            a::lam(
                "p",
                stdlib::take(a::fst(a::var("p")), a::snd(a::var("p")), &Type::Nat),
            ),
            Type::prod(seq_n.clone(), Type::Nat),
        ),
        (
            "drop",
            a::lam(
                "p",
                stdlib::drop(a::fst(a::var("p")), a::snd(a::var("p")), &Type::Nat),
            ),
            Type::prod(seq_n.clone(), Type::Nat),
        ),
        (
            "first",
            a::lam("x", stdlib::first(a::var("x"), &Type::Nat)),
            seq_n.clone(),
        ),
        (
            "last",
            a::lam("x", stdlib::last(a::var("x"), &Type::Nat)),
            seq_n.clone(),
        ),
        (
            "tail",
            a::lam("x", stdlib::tail(a::var("x"), &Type::Nat)),
            seq_n.clone(),
        ),
        (
            "remove_last",
            a::lam("x", stdlib::remove_last(a::var("x"), &Type::Nat)),
            seq_n.clone(),
        ),
        (
            "isqrt_pow2",
            a::lam("x", stdlib::isqrt_pow2(a::var("x"))),
            Type::Nat,
        ),
        (
            "sum_seq",
            a::lam("x", stdlib::numeric::sum_seq(a::var("x"))),
            seq_n.clone(),
        ),
        (
            "maximum",
            a::lam("x", stdlib::maximum(a::var("x"))),
            seq_n.clone(),
        ),
        (
            "prefix_sum",
            a::lam("x", stdlib::prefix_sum(a::var("x"))),
            seq_n.clone(),
        ),
        (
            "bm_route",
            a::lam(
                "p",
                stdlib::bm_route(
                    a::fst(a::fst(a::var("p"))),
                    a::snd(a::fst(a::var("p"))),
                    a::snd(a::var("p")),
                ),
            ),
            Type::prod(Type::prod(seq_n.clone(), seq_n.clone()), seq_n.clone()),
        ),
        (
            "m_route",
            a::lam(
                "p",
                stdlib::m_route(a::fst(a::var("p")), a::snd(a::var("p"))),
            ),
            Type::prod(seq_n.clone(), seq_n.clone()),
        ),
        (
            "combine_flags",
            a::lam(
                "p",
                stdlib::combine_flags(
                    a::fst(a::var("p")),
                    a::fst(a::snd(a::var("p"))),
                    a::snd(a::snd(a::var("p"))),
                    &Type::Nat,
                ),
            ),
            Type::prod(
                Type::seq(Type::bool_()),
                Type::prod(seq_n.clone(), seq_n.clone()),
            ),
        ),
    ]
}
