//! The Theorem 4.2 translation: map-recursion → pure NSC.
//!
//! Given `f(x) = if p(x) then s(x) else c(map(f)(d(x)))`, the translation
//! produces a *recursion-free* NSC function built from two `while` loops,
//! following the paper's divide phase / combine phase (credited to
//! Mou & Hudak 1988's algebraic divide-and-conquer model, the paper's citation MH88):
//!
//! **Divide phase.**  A frontier of pending subproblems is expanded level
//! by level.  Processing a frontier resolves each pending `x` into either a
//! *leaf* `inl(s(x))` (base case) or a *marker* `inr(length(d(x)))`
//! recording the node's arity, with the children `d(x)` becoming the next
//! frontier.  The resolved entries of each round are recorded as one
//! *level*, so the loop state is `(levels : [[t + N]], frontier : [s])` —
//! a flattened, preorder-by-levels representation of the divide-and-conquer
//! tree.  This is the "additional bookkeeping" the paper alludes to: with
//! per-level grouping, the children of the markers of level `k` are
//! *exactly* level `k+1` in order, so no sorting is ever needed.
//!
//! **Combine phase.**  The deepest level always consists solely of leaves
//! (a marker at the deepest level would have children one level deeper).
//! One round merges the deepest level into its parent level: `split` the
//! children by the parents' arities (leaves have arity 0), apply `c` to
//! each group *in parallel* (`map`), and replace markers by the combined
//! leaves.  Rounds repeat until a single level with a single leaf remains.
//!
//! Time: each divide/combine round is `O(1)` NSC steps plus the `p/s/d/c`
//! applications of that tree level, and there is one round per level, so
//! `T' = O(T)`.  Work: every round also touches the whole `levels` value
//! (NSC's `while` charges its state each iteration), which is the
//! unbalanced-tree overhead Theorem 4.2 bounds; [`super::staged`] adds the
//! ε-staging that caps it at `O(W^{1+ε})`.

use super::def::MapRecDef;
use crate::ast::*;
use crate::stdlib::lists::{first, nth, take};
use crate::stdlib::util::gensym;
use crate::types::Type;

/// The per-entry type of a recorded level: `leaf(result) + marker(arity)`.
pub fn entry_type(def: &MapRecDef) -> Type {
    Type::sum(def.cod.clone(), Type::Nat)
}

/// `[t + N]` — one recorded level.
pub fn level_type(def: &MapRecDef) -> Type {
    Type::seq(entry_type(def))
}

/// `[[t + N]]` — the list of recorded levels.
pub fn levels_type(def: &MapRecDef) -> Type {
    Type::seq(level_type(def))
}

/// One divide round as a term transformer:
/// `(levels, frontier) ↦ (levels @ [level], children)`.
pub fn divide_round(def: &MapRecDef, st: Term) -> Term {
    let stv = gensym("dst");
    let pairs = gensym("pairs");
    let x = gensym("x");
    let ch = gensym("ch");
    let q = gensym("q");

    // Resolve one pending subproblem, returning (entry, children).
    let resolve = lam(
        &x,
        cond(
            app(def.pred.clone(), var(&x)),
            pair(
                inl(app(def.solve.clone(), var(&x)), Type::Nat),
                empty(def.dom.clone()),
            ),
            let_in(
                &ch,
                app(def.divide.clone(), var(&x)),
                pair(inr(length(var(&ch)), def.cod.clone()), var(&ch)),
            ),
        ),
    );

    let body = let_in(
        &pairs,
        app(map(resolve), snd(var(&stv))),
        pair(
            append(
                fst(var(&stv)),
                singleton(app(map(lam(&q, fst(var(&q)))), var(&pairs))),
            ),
            flatten(app(map(lam(&q, snd(var(&q)))), var(&pairs))),
        ),
    );
    let_in(&stv, st, body)
}

/// The divide-phase `while` loop: iterate [`divide_round`] until the
/// frontier is empty.
pub fn divide_loop(def: &MapRecDef) -> Func {
    let st = gensym("dw");
    let pred = lam(&st, lt(nat(0), length(snd(var(&st)))));
    let body = lam(&st, divide_round(def, var(&st)));
    while_(pred, body)
}

/// One combine round: merge the deepest level into its parent level.
///
/// The last level of `lv` must consist solely of leaves (the divide phase
/// guarantees this once an empty level is appended, and the invariant is
/// preserved by every round).
pub fn combine_round(def: &MapRecDef, lv: Term) -> Term {
    let lvv = gensym("clv");
    let n = gensym("n");
    let parents = gensym("par");
    let children = gensym("chl");
    let groups = gensym("grp");
    let e = gensym("e");
    let r = gensym("r");
    let m = gensym("m");
    let q = gensym("q");
    let lv_ty = level_type(def);

    let arities = app(
        map(lam(&e, case(var(&e), &r, nat(0), &m, var(&m)))),
        var(&parents),
    );
    let child_vals = app(
        map(lam(
            &e,
            case(var(&e), &r, var(&r), &m, omega(def.cod.clone())),
        )),
        var(&children),
    );
    // parents' = leaves pass through; each marker becomes the combined
    // leaf c(its group of child results).
    let merged = app(
        map(lam(
            &q,
            case(
                fst(var(&q)),
                &r,
                inl(var(&r), Type::Nat),
                &m,
                inl(app(def.combine.clone(), snd(var(&q))), Type::Nat),
            ),
        )),
        zip(var(&parents), var(&groups)),
    );

    let body = let_in(
        &n,
        length(var(&lvv)),
        let_in(
            &parents,
            nth(var(&lvv), monus(var(&n), nat(2)), &lv_ty),
            let_in(
                &children,
                nth(var(&lvv), monus(var(&n), nat(1)), &lv_ty),
                let_in(
                    &groups,
                    split(child_vals, arities),
                    append(
                        take(var(&lvv), monus(var(&n), nat(2)), &lv_ty),
                        singleton(merged),
                    ),
                ),
            ),
        ),
    );
    let_in(&lvv, lv, body)
}

/// The combine-phase `while` loop: iterate [`combine_round`] while more
/// than one level remains.
pub fn combine_loop(def: &MapRecDef) -> Func {
    let lv = gensym("cw");
    let pred = lam(&lv, lt(nat(1), length(var(&lv))));
    let body = lam(&lv, combine_round(def, var(&lv)));
    while_(pred, body)
}

/// Extracts the final result from the fully-combined levels list `[[inl r]]`.
pub fn extract_result(def: &MapRecDef, lv: Term) -> Term {
    let e = gensym("e");
    let r = gensym("r");
    let m = gensym("m");
    let entry = first(first(lv, &level_type(def)), &entry_type(def));
    let_in(
        &e,
        entry,
        case(var(&e), &r, var(&r), &m, omega(def.cod.clone())),
    )
}

/// **Theorem 4.2 (plain variant)**: translates a map-recursive definition
/// into an equivalent pure-NSC function (no recursion, two `while`s).
///
/// `T' = O(T)`; `W'` carries the unbalanced-tree overhead `O(v · W)`
/// (`v` = number of leaf levels), which is `O(W)` for balanced trees.
/// See [`super::staged::translate_staged`] for the `O(W^{1+ε})` variant.
pub fn translate(def: &MapRecDef) -> Func {
    let x = gensym("arg");
    let dv = gensym("divres");
    let cv = gensym("lvls");
    let body = let_in(
        &dv,
        app(
            divide_loop(def),
            pair(empty(level_type(def)), singleton(var(&x))),
        ),
        let_in(
            &cv,
            app(
                combine_loop(def),
                // Append one empty level so arity-0 markers at the deepest
                // real level have a (vacuous) child level to combine with.
                append(fst(var(&dv)), singleton(empty(entry_type(def)))),
            ),
            extract_result(def, var(&cv)),
        ),
    );
    lam(&x, body)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::eval::apply_func;
    use crate::maprec::direct::eval_maprec;
    use crate::tyck::check_closed;
    use crate::value::Value;

    pub(crate) use crate::maprec::fixtures::{range, range_sum};

    #[test]
    fn translated_function_type_checks() {
        let def = range_sum();
        let f = translate(&def);
        let cod = check_closed(&f, &def.dom).unwrap();
        assert_eq!(cod, def.cod);
    }

    #[test]
    fn translated_agrees_with_direct_on_base_case() {
        let def = range_sum();
        let f = translate(&def);
        let (v, _) = apply_func(&f, range(5, 6)).unwrap();
        assert_eq!(v, Value::nat(5));
    }

    #[test]
    fn translated_agrees_with_direct_semantics() {
        let def = range_sum();
        let f = translate(&def);
        for (lo, hi) in [(0, 2), (0, 8), (3, 17), (0, 33), (7, 100)] {
            let direct = eval_maprec(&def, range(lo, hi)).unwrap();
            let (v, _) = apply_func(&f, range(lo, hi)).unwrap();
            assert_eq!(v, direct.value, "rangesum {lo}..{hi}");
        }
    }

    #[test]
    fn translated_time_within_constant_factor() {
        // Theorem 4.2: T' = O(T).  The ratio must not grow with n.
        let def = range_sum();
        let f = translate(&def);
        let ratio = |n: u64| -> f64 {
            let direct = eval_maprec(&def, range(0, n)).unwrap();
            let (_, c) = apply_func(&f, range(0, n)).unwrap();
            c.time as f64 / direct.cost.time as f64
        };
        let r64 = ratio(64);
        let r512 = ratio(512);
        assert!(
            r512 <= r64 * 1.5 + 1.0,
            "T'/T must stay bounded: {r64:.2} -> {r512:.2}"
        );
    }

    #[test]
    fn translated_work_within_constant_factor_for_balanced() {
        // Balanced divide-and-conquer: W' = O(W).
        let def = range_sum();
        let f = translate(&def);
        let ratio = |n: u64| -> f64 {
            let direct = eval_maprec(&def, range(0, n)).unwrap();
            let (_, c) = apply_func(&f, range(0, n)).unwrap();
            c.work as f64 / direct.cost.work as f64
        };
        let r64 = ratio(64);
        let r1024 = ratio(1024);
        assert!(
            r1024 <= r64 * 2.0,
            "W'/W bounded for balanced trees: {r64:.2} -> {r1024:.2}"
        );
    }

    #[test]
    fn zero_arity_divide_is_supported() {
        // f(x) = if x = 0 then 1 else c(map f []) with c([]) = 7:
        // an internal node with no children combines against the appended
        // empty level.
        let def = MapRecDef {
            name: ident("zeroary"),
            dom: Type::Nat,
            cod: Type::Nat,
            pred: lam("x", eq(var("x"), nat(0))),
            solve: lam("x", nat(1)),
            divide: lam("x", empty(Type::Nat)),
            combine: lam(
                "rs",
                add(nat(7), crate::stdlib::numeric::sum_seq(var("rs"))),
            ),
        };
        def.check().unwrap();
        let f = translate(&def);
        let (v, _) = apply_func(&f, Value::nat(3)).unwrap();
        assert_eq!(v, Value::nat(7), "c([]) = 7 + sum([]) = 7");
        let (v, _) = apply_func(&f, Value::nat(0)).unwrap();
        assert_eq!(v, Value::nat(1));
    }

    #[test]
    fn variable_arity_three_way_divide() {
        // Three-way rangesum exercises arity > 2 grouping.
        let base = range_sum();
        let divide = lam(
            "r",
            let_in(
                "lo",
                fst(var("r")),
                let_in(
                    "hi",
                    snd(var("r")),
                    let_in(
                        "w",
                        // max(1, width/3) so every child strictly shrinks
                        max(nat(1), div(monus(var("hi"), var("lo")), nat(3))),
                        append(
                            singleton(pair(var("lo"), add(var("lo"), var("w")))),
                            append(
                                singleton(pair(
                                    add(var("lo"), var("w")),
                                    add(var("lo"), mul(nat(2), var("w"))),
                                )),
                                singleton(pair(add(var("lo"), mul(nat(2), var("w"))), var("hi"))),
                            ),
                        ),
                    ),
                ),
            ),
        );
        let combine = lam("rs", crate::stdlib::numeric::sum_seq(var("rs")));
        let def = MapRecDef {
            name: ident("rangesum3"),
            divide,
            combine,
            ..base
        };
        def.check().unwrap();
        let f = translate(&def);
        for (lo, hi) in [(0u64, 9), (0, 27), (2, 30)] {
            let (v, _) = apply_func(&f, range(lo, hi)).unwrap();
            let expect: u64 = (lo..hi).sum();
            assert_eq!(v, Value::nat(expect), "3-way {lo}..{hi}");
        }
    }
}
