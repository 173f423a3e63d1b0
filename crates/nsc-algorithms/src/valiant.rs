//! Valiant's `O(log n log log n)` mergesort in NSC — Figures 1–3.
//!
//! Both `merge` and `mergesort` are **map-recursive** (section 5: "the
//! main function mergesort has the same recursion schema as the function
//! g … The fast, O(log log m) time merge function exhibits a more
//! complicated kind of map-recursion"), so both are [`MapRecDef`]s and
//! compile to pure NSC through Theorem 4.2.
//!
//! Deviations from the figures:
//!
//! * block sizes use the `O(1)`-time power-of-two `√`-approximation
//!   [`isqrt_pow2`] (`∈ [√m, 2√m]`) — this is exactly why the paper's `Σ`
//!   must contain `log2` and `right-shift`; the complexity is unchanged up
//!   to constants;
//! * `sqrt_split`'s leading cut at position 0 gives both `AA` and `BB` an
//!   extra head segment (empty for `AA`), which conveniently makes them
//!   `zip`-compatible and routes the "B-elements before A₀" block through
//!   the base case.

use nsc_core::ast::*;
use nsc_core::maprec::{translate::translate, MapRecDef};
use nsc_core::stdlib::indexing::{index, index_split};
use nsc_core::stdlib::lists::nth;
use nsc_core::stdlib::numeric::isqrt_pow2;
use nsc_core::stdlib::util::gensym;
use nsc_core::types::Type;
use nsc_core::Func;

/// `[N]` — the sequences being sorted.
pub fn seq_ty() -> Type {
    Type::seq(Type::Nat)
}

/// `rank_one(a, B) = length(filter(λb. b ≤ a)(B))` (Figure 2).
pub fn rank_one(a: Term, b: Term) -> Term {
    let av = gensym("a");
    let bv = gensym("b");
    let body = length(app(
        nsc_core::stdlib::basic::filter(lam(&bv, le(var(&bv), var(&av))), &Type::Nat),
        b,
    ));
    let_in(&av, a, body)
}

/// `direct_rank(A, B) = map(λa. rank_one(a, B))(A)` (Figure 2).
pub fn direct_rank(a: Term, b: Term) -> Term {
    let bv = gensym("B");
    let x = gensym("x");
    let_in(&bv, b, app(map(lam(&x, rank_one(var(&x), var(&bv)))), a))
}

/// `sqrt_positions(C)` — every `bs`-th element of `C`,
/// `bs = isqrt_pow2(|C|)` (Figure 2).
pub fn sqrt_positions(c: Term) -> Term {
    let cv = gensym("C");
    let bs = gensym("bs");
    let i = gensym("i");
    let positions = app(
        nsc_core::stdlib::basic::filter(lam(&i, eq(modulo(var(&i), var(&bs)), nat(0))), &Type::Nat),
        enumerate(var(&cv)),
    );
    let_in(
        &cv,
        c,
        let_in(
            &bs,
            isqrt_pow2(length(var(&cv))),
            index(var(&cv), positions, &Type::Nat),
        ),
    )
}

/// Sample *positions* (not values): `[0, bs, 2bs, …]`.
fn sample_positions(c: Term) -> Term {
    let cv = gensym("C");
    let bs = gensym("bs");
    let i = gensym("i");
    let_in(
        &cv,
        c,
        let_in(
            &bs,
            isqrt_pow2(length(var(&cv))),
            app(
                nsc_core::stdlib::basic::filter(
                    lam(&i, eq(modulo(var(&i), var(&bs)), nat(0))),
                    &Type::Nat,
                ),
                enumerate(var(&cv)),
            ),
        ),
    )
}

/// `sqrt_split(C)` — cut `C` before every sample position (Figure 2);
/// yields an empty head segment plus the `√`-blocks.
pub fn sqrt_split(c: Term) -> Term {
    let cv = gensym("C");
    let_in(&cv, c, index_split(var(&cv), sample_positions(var(&cv))))
}

/// `direct_merge(A, B)` (Figure 2): rank every `aᵢ` in `B`, cut `B` at the
/// ranks, and interleave.
pub fn direct_merge(a: Term, b: Term) -> Term {
    let av = gensym("A");
    let bv = gensym("B");
    let bb = gensym("BB");
    let q = gensym("q");
    let body = let_in(
        &bb,
        index_split(var(&bv), direct_rank(var(&av), var(&bv))),
        append(
            nsc_core::stdlib::lists::first(var(&bb), &seq_ty()),
            flatten(app(
                map(lam(&q, append(singleton(fst(var(&q))), snd(var(&q))))),
                zip(var(&av), nsc_core::stdlib::lists::tail(var(&bb), &seq_ty())),
            )),
        ),
    );
    let_in(&av, a, let_in(&bv, b, body))
}

/// The map-recursive `merge : [N] × [N] → [N]` (Figure 1).
///
/// Base case `|A| ≤ 2`: `direct_merge`.  Otherwise the two-level ranking:
/// rank the `√m` samples `A'` among the `√n` samples `B'` (block index),
/// refine each within its block, cut `B` at the global ranks, and recurse
/// on `zip(AA, BB)` — the "more complicated kind of map-recursion".
pub fn merge_def() -> MapRecDef {
    let dom = Type::prod(seq_ty(), seq_ty());
    let pred = lam("p", le(length(fst(var("p"))), nat(2)));
    let solve = lam("p", direct_merge(fst(var("p")), snd(var("p"))));

    // divide((A, B)) = zip(sqrt_split(A), index_split(B, R))
    let divide = {
        let p = gensym("p");
        let a = gensym("A");
        let b = gensym("B");
        let bs_b = gensym("bsb");
        let a_s = gensym("As"); // A' samples
        let bb_s = gensym("BBs"); // B split at its sample positions
        let r_s = gensym("Rs"); // sample ranks among B'
        let blocks = gensym("blk"); // block of each sample
        let rr = gensym("RR"); // rank within block
        let r = gensym("R"); // global ranks
        let q = gensym("q");

        let body = let_in(
            &a,
            fst(var(&p)),
            let_in(
                &b,
                snd(var(&p)),
                let_in(
                    &bs_b,
                    isqrt_pow2(length(var(&b))),
                    let_in(
                        &a_s,
                        sqrt_positions(var(&a)),
                        let_in(
                            &r_s,
                            direct_rank(var(&a_s), sqrt_positions(var(&b))),
                            let_in(
                                &bb_s,
                                sqrt_split(var(&b)),
                                let_in(
                                    &blocks,
                                    index(var(&bb_s), var(&r_s), &seq_ty()),
                                    let_in(
                                        &rr,
                                        app(
                                            map(lam(&q, rank_one(fst(var(&q)), snd(var(&q))))),
                                            zip(var(&a_s), var(&blocks)),
                                        ),
                                        let_in(
                                            &r,
                                            // R = (R' −̇ 1)·bs + RR
                                            app(
                                                map(lam(
                                                    &q,
                                                    add(
                                                        mul(
                                                            monus(fst(var(&q)), nat(1)),
                                                            var(&bs_b),
                                                        ),
                                                        snd(var(&q)),
                                                    ),
                                                )),
                                                zip(var(&r_s), var(&rr)),
                                            ),
                                            zip(sqrt_split(var(&a)), index_split(var(&b), var(&r))),
                                        ),
                                    ),
                                ),
                            ),
                        ),
                    ),
                ),
            ),
        );
        lam(&p, body)
    };

    let combine = lam("rs", flatten(var("rs")));
    MapRecDef {
        name: ident("merge"),
        dom,
        cod: seq_ty(),
        pred,
        solve,
        divide,
        combine,
    }
}

/// The map-recursive `mergesort : [N] → [N]` (Figure 1), parameterised by
/// the merge function used in the combine phase.
fn mergesort_def_with(merge_f: Func, name: &str) -> MapRecDef {
    let pred = lam("x", le(length(var("x")), nat(1)));
    let solve = lam("x", var("x"));
    let divide = {
        let x = gensym("x");
        let h = gensym("h");
        lam(
            &x,
            let_in(
                &h,
                rshift(length(var(&x)), nat(1)),
                append(
                    singleton(nsc_core::stdlib::lists::take(var(&x), var(&h), &Type::Nat)),
                    singleton(nsc_core::stdlib::lists::drop(var(&x), var(&h), &Type::Nat)),
                ),
            ),
        )
    };
    let combine = {
        let rs = gensym("rs");
        lam(
            &rs,
            app(
                merge_f,
                pair(
                    nth(var(&rs), nat(0), &seq_ty()),
                    nth(var(&rs), nat(1), &seq_ty()),
                ),
            ),
        )
    };
    MapRecDef {
        name: ident(name),
        dom: seq_ty(),
        cod: seq_ty(),
        pred,
        solve,
        divide,
        combine,
    }
}

/// Valiant's mergesort: divide-and-conquer sort whose combine is the
/// Theorem 4.2 translation of the `O(log log)` merge.
pub fn mergesort_def() -> MapRecDef {
    mergesort_def_with(translate(&merge_def()), "mergesort")
}

/// Baseline: the same sort with `direct_merge` (`O(log m)`-ish ranks per
/// level via the quadratic direct rank) as the combine.
pub fn direct_mergesort_def() -> MapRecDef {
    let f = {
        let p = gensym("p");
        lam(&p, direct_merge(fst(var(&p)), snd(var(&p))))
    };
    mergesort_def_with(f, "direct_mergesort")
}

/// Baseline: one-shot `O(n²)`-work, `O(1)`-time rank sort (section 3's
/// "arbitrary permutation in O(1) parallel time … with an increase of the
/// work complexity to O(n²)").
pub fn rank_sort(xs: Term) -> Term {
    let x = gensym("x");
    let e = gensym("e");
    let j = gensym("j");
    let q = gensym("q");
    let k = gensym("k");
    // rank of element (i, v) = #{(k, w) : w < v or (w = v and k < i)}
    let rank = |iv: Term| {
        let ivv = gensym("iv");
        let_in(
            &ivv,
            iv,
            length(app(
                nsc_core::stdlib::basic::filter(
                    lam(
                        &k,
                        cond(
                            lt(snd(var(&k)), snd(var(&ivv))),
                            tt(),
                            cond(
                                eq(snd(var(&k)), snd(var(&ivv))),
                                lt(fst(var(&k)), fst(var(&ivv))),
                                ff(),
                            ),
                        ),
                    ),
                    &Type::prod(Type::Nat, Type::Nat),
                ),
                var(&e),
            )),
        )
    };
    let ranked = app(map(lam(&q, pair(rank(var(&q)), snd(var(&q))))), var(&e));
    // output position j takes the element with rank j
    let body = let_in(
        &e,
        zip(enumerate(var(&x)), var(&x)),
        app(
            map(lam(
                &j,
                get(app(
                    nsc_core::stdlib::basic::filter(
                        lam(&q, eq(fst(var(&q)), var(&j))),
                        &Type::prod(Type::Nat, Type::Nat),
                    ),
                    ranked,
                )),
            )),
            enumerate(var(&x)),
        ),
    );
    let_in(&x, xs, app(map(lam(&q, snd(var(&q)))), body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsc_core::eval::{apply_func, eval_term};
    use nsc_core::maprec::direct::eval_maprec;
    use nsc_core::value::Value;

    fn nats(ns: &[u64]) -> Value {
        Value::nat_seq(ns.iter().copied())
    }

    #[test]
    fn rank_and_direct_merge() {
        let t = direct_merge(
            nsc_core::ast::append(
                singleton(nat(2)),
                append(singleton(nat(5)), singleton(nat(9))),
            ),
            append(
                singleton(nat(1)),
                append(singleton(nat(6)), singleton(nat(7))),
            ),
        );
        assert_eq!(eval_term(&t).unwrap().0, nats(&[1, 2, 5, 6, 7, 9]));
    }

    #[test]
    fn merge_def_merges() {
        let def = merge_def();
        def.check().unwrap();
        let a: Vec<u64> = (0..20).map(|i| i * 3).collect();
        let b: Vec<u64> = (0..15).map(|i| i * 4 + 1).collect();
        let mut want = [a.clone(), b.clone()].concat();
        want.sort();
        let arg = Value::pair(nats(&a), nats(&b));
        let out = eval_maprec(&def, arg.clone()).unwrap();
        assert_eq!(out.value, nats(&want));
        // and through the Theorem 4.2 translation
        let f = translate(&def);
        let (v, _) = apply_func(&f, arg).unwrap();
        assert_eq!(v, nats(&want));
    }

    #[test]
    fn mergesort_sorts() {
        let def = mergesort_def();
        let xs: Vec<u64> = (0..32).map(|i| (i * 37 + 11) % 64).collect();
        let mut want = xs.clone();
        want.sort();
        let out = eval_maprec(&def, nats(&xs)).unwrap();
        assert_eq!(out.value, nats(&want));
    }

    #[test]
    fn mergesort_edge_cases() {
        let def = mergesort_def();
        for xs in [vec![], vec![5], vec![2, 1], vec![3, 3, 3]] {
            let mut want = xs.clone();
            want.sort();
            let out = eval_maprec(&def, nats(&xs)).unwrap();
            assert_eq!(out.value, nats(&want), "{xs:?}");
        }
    }

    #[test]
    fn direct_mergesort_baseline_sorts() {
        let def = direct_mergesort_def();
        let xs: Vec<u64> = (0..24).rev().collect();
        let out = eval_maprec(&def, nats(&xs)).unwrap();
        assert_eq!(out.value, nats(&(0..24).collect::<Vec<_>>()));
    }

    #[test]
    fn rank_sort_baseline() {
        let xs = vec![5u64, 1, 4, 1, 5, 9, 2, 6];
        let mut want = xs.clone();
        want.sort();
        let lit = xs
            .iter()
            .fold(empty(Type::Nat), |acc, &n| append(acc, singleton(nat(n))));
        let (v, c) = eval_term(&rank_sort(lit)).unwrap();
        assert_eq!(v, nats(&want));
        // O(1)-ish parallel time: compare against doubling the input
        let xs2: Vec<u64> = xs.iter().chain(&xs).copied().collect();
        let lit2 = xs2
            .iter()
            .fold(empty(Type::Nat), |acc, &n| append(acc, singleton(nat(n))));
        let (_, c2) = eval_term(&rank_sort(lit2)).unwrap();
        // literal construction is linear-depth; allow slack but require
        // far-sublinear growth of the sort itself
        assert!(c2.time < c.time * 2, "rank sort time near-constant");
    }

    #[test]
    fn valiant_merge_is_sublogarithmic_in_time() {
        // Shape claim: T(merge) grows like log log m (vs log m for a
        // sequential-ish merge): quadrupling m should barely move T.
        let def = merge_def();
        let t = |m: u64| {
            let a: Vec<u64> = (0..m).map(|i| i * 2).collect();
            let b: Vec<u64> = (0..m).map(|i| i * 2 + 1).collect();
            eval_maprec(&def, Value::pair(nats(&a), nats(&b)))
                .unwrap()
                .cost
                .time as f64
        };
        let t64 = t(64);
        let t1024 = t(1024);
        assert!(
            t1024 / t64 < 2.0,
            "log log growth expected: T(64)={t64}, T(1024)={t1024}"
        );
    }
}
