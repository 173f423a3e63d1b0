//! Variable elimination: NSC → NSA (Proposition C.1).
//!
//! A term `Γ ⊳ M : t` with `Γ = x₁:s₁, …, xₙ:sₙ` becomes an NSA function
//! `⟦M⟧ : ⟨Γ⟩ → t`, where `⟨Γ⟩ = s₁ × (s₂ × (… × unit))` is the
//! right-nested environment tuple.  The rules are the standard categorical
//! combinator translation:
//!
//! * variables become projection chains;
//! * `case` distributes the environment with `δ`;
//! * `map(F)(M)` broadcasts the environment with `ρ₂` — "this replaces the
//!   free variables present in NSC" (Appendix C) — and maps the translated
//!   body over the paired sequence; the environment is first trimmed to
//!   the free variables of `F`, so the broadcast copies only what the
//!   body reads;
//! * `while(P, F)(M)` threads the environment through the loop state
//!   (`⟨Γ⟩ × t`), projecting it away at the end.
//!
//! Each NSC rule maps to O(1) combinators, so `T` and `W` are preserved up
//! to constants — the differential tests check values exactly and cost
//! ratios empirically.

use super::build::*;
use super::Nsa;
use crate::trip::{Step, Trip};
use nsc_core::ast::{ArithOp, CmpOp, Func, FuncK, FvSet, Ident, Term, TermK};
use nsc_core::error::TypeError;
use nsc_core::value::Value;

/// An ordered environment layout (innermost binding first).
#[derive(Clone, Debug, Default)]
pub struct EnvLayout {
    vars: Vec<Ident>,
}

impl EnvLayout {
    /// The empty layout (environment value `()`).
    pub fn empty() -> Self {
        EnvLayout::default()
    }

    /// Push a binder (becomes the first pair component).
    pub fn bind(&self, x: Ident) -> Self {
        let mut vars = vec![x];
        vars.extend(self.vars.iter().cloned());
        EnvLayout { vars }
    }

    /// The projection chain for a variable: `π₂ⁱ` then `π₁`.
    fn project(&self, x: &str) -> Option<Nsa> {
        let idx = self.vars.iter().position(|v| &**v == x)?;
        let mut f = Nsa::Pi1;
        for _ in 0..idx {
            f = comp(f, Nsa::Pi2);
        }
        Some(f)
    }

    /// The sub-layout that keeps the innermost binding of each name in
    /// `fv`, with the projection `⟨Γ⟩ → ⟨Γ'⟩` onto it; `None` when nothing
    /// would be dropped.
    fn trim(&self, fv: &FvSet) -> Option<(EnvLayout, Nsa)> {
        let vars: Vec<Ident> = self
            .vars
            .iter()
            .enumerate()
            .filter(|&(i, x)| fv.contains(x) && !self.vars[..i].contains(x))
            .map(|(_, x)| x.clone())
            .collect();
        if vars.len() == self.vars.len() {
            return None;
        }
        let proj = vars.iter().rev().fold(Nsa::Bang, |rest, x| {
            pair(self.project(x).expect("a kept name is bound"), rest)
        });
        Some((EnvLayout { vars }, proj))
    }

    /// Packs an `nsc_core` runtime environment into the tuple value this
    /// layout expects (for differential testing).
    pub fn pack(&self, env: &nsc_core::env::Env) -> Option<Value> {
        let mut out = Value::unit();
        for x in self.vars.iter().rev() {
            out = Value::pair(env.lookup(x)?.clone(), out);
        }
        Some(out)
    }
}

/// Translates a closed NSC function `F : s → t` into NSA.
pub fn func_to_nsa(f: &Func) -> Result<Nsa, TypeError> {
    // A closed function sees the empty environment: build F over
    // (arg, ()) and pre-pair the argument.
    let inner = trans_func(f, &EnvLayout::empty())?;
    Ok(comp(inner, pair(Nsa::Id, Nsa::Bang)))
}

/// Translates a term under a layout: `⟦M⟧ : ⟨Γ⟩ → t`.
pub fn term_to_nsa(m: &Term, env: &EnvLayout) -> Result<Nsa, TypeError> {
    match m.kind() {
        TermK::Var(x) => env
            .project(x)
            .ok_or_else(|| TypeError::UnboundVariable(x.to_string())),
        TermK::Error(t) => Ok(Nsa::OmegaF(t.clone())),
        TermK::Const(n) => Ok(comp(Nsa::ConstNat(*n), Nsa::Bang)),
        TermK::Arith(op, a, b) => Ok(comp(
            Nsa::Arith(*op),
            pair(term_to_nsa(a, env)?, term_to_nsa(b, env)?),
        )),
        TermK::Cmp(op, a, b) => Ok(comp(
            Nsa::Cmp(*op),
            pair(term_to_nsa(a, env)?, term_to_nsa(b, env)?),
        )),
        TermK::Unit => Ok(Nsa::Bang),
        TermK::Pair(a, b) => Ok(pair(term_to_nsa(a, env)?, term_to_nsa(b, env)?)),
        TermK::Proj1(a) => Ok(comp(Nsa::Pi1, term_to_nsa(a, env)?)),
        TermK::Proj2(a) => Ok(comp(Nsa::Pi2, term_to_nsa(a, env)?)),
        TermK::Inl(a, right) => Ok(comp(Nsa::InlF(right.clone()), term_to_nsa(a, env)?)),
        TermK::Inr(a, left) => Ok(comp(Nsa::InrF(left.clone()), term_to_nsa(a, env)?)),
        TermK::Case(scrut, x, n, y, p) => {
            // δ ∘ ⟨⟦M⟧, id⟩ : ⟨Γ⟩ → t₁×⟨Γ⟩ + t₂×⟨Γ⟩, then branch.
            let n_f = term_to_nsa(n, &env.bind(x.clone()))?;
            let p_f = term_to_nsa(p, &env.bind(y.clone()))?;
            Ok(comp(
                sum(n_f, p_f),
                comp(Nsa::Dist, pair(term_to_nsa(scrut, env)?, Nsa::Id)),
            ))
        }
        TermK::Apply(f, arg) => {
            let arg_f = term_to_nsa(arg, env)?;
            apply_func_nsa(f, env, arg_f)
        }
        TermK::Empty(t) => Ok(comp(Nsa::EmptyF(t.clone()), Nsa::Bang)),
        TermK::Singleton(a) => Ok(comp(Nsa::SingletonF, term_to_nsa(a, env)?)),
        TermK::Append(a, b) => Ok(comp(
            Nsa::AppendF,
            pair(term_to_nsa(a, env)?, term_to_nsa(b, env)?),
        )),
        TermK::Flatten(a) => Ok(comp(Nsa::FlattenF, term_to_nsa(a, env)?)),
        TermK::Length(a) => Ok(comp(Nsa::LengthF, term_to_nsa(a, env)?)),
        TermK::Get(a) => Ok(comp(Nsa::GetF, term_to_nsa(a, env)?)),
        TermK::Zip(a, b) => Ok(comp(
            Nsa::ZipF,
            pair(term_to_nsa(a, env)?, term_to_nsa(b, env)?),
        )),
        TermK::Enumerate(a) => Ok(comp(Nsa::EnumerateF, term_to_nsa(a, env)?)),
        TermK::Split(a, b) => Ok(comp(
            Nsa::SplitF,
            pair(term_to_nsa(a, env)?, term_to_nsa(b, env)?),
        )),
    }
}

/// Translates `F(·)` applied to a compiled argument:
/// returns `⟦F(arg)⟧ : ⟨Γ⟩ → t`.
fn apply_func_nsa(f: &Func, env: &EnvLayout, arg_f: Nsa) -> Result<Nsa, TypeError> {
    Ok(comp(trans_func(f, env)?, pair(arg_f, Nsa::Id)))
}

/// Translates a function to operate on `(arg, ⟨Γ⟩)`.
fn trans_func(f: &Func, env: &EnvLayout) -> Result<Nsa, TypeError> {
    match f.kind() {
        FuncK::Lambda(x, _, body) => term_to_nsa(body, &env.bind(x.clone())),
        FuncK::Map(g) => {
            // (xs, Γ) → ρ₂(Γ, xs) = [(Γ, x)…] → map over swapped pairs.
            // Only what `g` reads is broadcast: `Γ` is first trimmed to
            // `fv(g)`, so no element carries a copy of a sequence the
            // body never reads (Theorem 7.1's `W' = O(W)`).
            let trimmed = env.trim(g.fv());
            let g_f = trans_func(g, trimmed.as_ref().map_or(env, |(inner, _)| inner))?;
            let mapped = comp(mapf(comp(g_f, swap())), comp(Nsa::Broadcast, swap()));
            Ok(match trimmed {
                Some((_, proj)) => comp(mapped, pair(Nsa::Pi1, comp(proj, Nsa::Pi2))),
                None => mapped,
            })
        }
        FuncK::While(p, body) => {
            // State (x, Γ): predicate on the state, body preserves Γ.
            // A trip certificate inferred on the source state re-roots
            // under π₁ to address the same component of the NSA state.
            let trip = source_while_trip(p, body).under(Step::P1);
            let p_f = trans_func(p, env)?;
            let b_f = trans_func(body, env)?;
            Ok(comp(Nsa::Pi1, whilef_trip(p_f, pair(b_f, Nsa::Pi2), trip)))
        }
        FuncK::Named(n) => Err(TypeError::UnknownFunction(format!(
            "named function `{n}` must be translated away (Theorem 4.2) before NSA"
        ))),
    }
}

// ---------------------------------------------------------------------------
// Trip-count inference on source `while`s.
//
// Two syntactic termination patterns are recognized; anything else is
// `Trip::Unknown` (always sound — the cost analyzer reports `⊤`).
// Matching is alpha-insensitive: binder identity is tracked, never
// compared against fixed names.
// ---------------------------------------------------------------------------

/// Unwraps a chain of projections around a variable:
/// `snd(fst(x))` → `("x", [P1, P2])` (root-first path).
fn proj_path(mut t: &Term) -> Option<(&str, Vec<Step>)> {
    let mut rev = Vec::new();
    loop {
        match t.kind() {
            TermK::Var(x) => {
                rev.reverse();
                return Some((x, rev));
            }
            TermK::Proj1(a) => {
                rev.push(Step::P1);
                t = a;
            }
            TermK::Proj2(a) => {
                rev.push(Step::P2);
                t = a;
            }
            _ => return None,
        }
    }
}

/// Walks a syntactic `Pair` tree to the component a path addresses.
fn component<'t>(mut t: &'t Term, path: &[Step]) -> Option<&'t Term> {
    for s in path {
        t = match (t.kind(), s) {
            (TermK::Pair(a, _), Step::P1) => a,
            (TermK::Pair(_, b), Step::P2) => b,
            _ => return None,
        };
    }
    Some(t)
}

/// `proj_path` matching a specific binder and path.
fn is_proj_of(t: &Term, var: &str, path: &[Step]) -> bool {
    proj_path(t).is_some_and(|(v, p)| v == var && p == path)
}

/// Recognizes the canonical one-element-shorter body the stdlib `tail`
/// idiom produces:
/// `flatten(map(λq. if fst(q) = 0 then [] else [snd(q)])(zip(enumerate(xs), xs)))`.
/// Each application removes exactly the (unique) index-0 element, so the
/// sequence length strictly decreases while it is nonempty.
fn is_drop_head_body(t: &Term, xs: &str) -> bool {
    let TermK::Flatten(inner) = t.kind() else {
        return false;
    };
    let TermK::Apply(mf, arg) = inner.kind() else {
        return false;
    };
    let TermK::Zip(e, x2) = arg.kind() else {
        return false;
    };
    let ok_arg = matches!(e.kind(), TermK::Enumerate(x1) if is_proj_of(x1, xs, &[]))
        && is_proj_of(x2, xs, &[]);
    if !ok_arg {
        return false;
    }
    let FuncK::Map(elem) = mf.kind() else {
        return false;
    };
    let FuncK::Lambda(q, _, ct) = elem.kind() else {
        return false;
    };
    let TermK::Case(scrut, _, nil, b2, one) = ct.kind() else {
        return false;
    };
    let scrut_ok = matches!(
        scrut.kind(),
        TermK::Cmp(CmpOp::Eq, l, r)
            if matches!(l.kind(), TermK::Proj1(v) if is_proj_of(v, q, &[]))
                && matches!(r.kind(), TermK::Const(0))
    );
    let one_ok = b2 != q
        && matches!(
            one.kind(),
            TermK::Singleton(s)
                if matches!(s.kind(), TermK::Proj2(v) if is_proj_of(v, q, &[]))
        );
    scrut_ok && matches!(nil.kind(), TermK::Empty(_)) && one_ok
}

/// Infers a trip bound for the source loop `while(p, g)`.
///
/// * **Halving counter**: `p = λx. c < π(x)` and the `π` component of
///   `g`'s body is `π(x) >> k` with `k ≥ 1`.  A `u64` halves to zero in
///   64 steps, after which the guard fails: at most 65 trips.
/// * **Shrinking sequence**: `p = λx. c < length(π(x))` and the `π`
///   component of `g`'s body drops the head element
///   ([`is_drop_head_body`]).  The length strictly decreases while the
///   guard holds: at most `length(π(x₀)) + 1` trips.
pub(crate) fn source_while_trip(p: &Func, g: &Func) -> Trip {
    let (FuncK::Lambda(px, _, pb), FuncK::Lambda(gx, _, gb)) = (p.kind(), g.kind()) else {
        return Trip::Unknown;
    };
    let TermK::Cmp(CmpOp::Lt, lhs, rhs) = pb.kind() else {
        return Trip::Unknown;
    };
    if !matches!(lhs.kind(), TermK::Const(_)) {
        return Trip::Unknown;
    }
    // Halving counter.
    if let Some((v, path)) = proj_path(rhs) {
        if v == &**px {
            if let Some(c) = component(gb, &path) {
                if matches!(
                    c.kind(),
                    TermK::Arith(ArithOp::Rshift, a, k)
                        if is_proj_of(a, gx, &path)
                            && matches!(k.kind(), TermK::Const(s) if *s >= 1)
                ) {
                    return Trip::Const(65);
                }
            }
        }
    }
    // Shrinking sequence.
    if let TermK::Length(seq) = rhs.kind() {
        if let Some((v, path)) = proj_path(seq) {
            if v == &**px {
                if let Some(c) = component(gb, &path) {
                    if let TermK::Apply(tf, arg) = c.kind() {
                        if is_proj_of(arg, gx, &path) {
                            if let FuncK::Lambda(xs, _, tb) = tf.kind() {
                                if is_drop_head_body(tb, xs) {
                                    return Trip::LenPath(path);
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    Trip::Unknown
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nsa::apply;
    use nsc_core::ast::{self, *};
    // Explicit import disambiguates from the NSA combinator `pair`.
    use nsc_core::ast::pair;
    use nsc_core::eval::eval_term;
    use nsc_core::stdlib;
    use nsc_core::types::Type;
    use nsc_core::value::Value;

    /// Differential check: a closed NSC term against its NSA translation.
    fn check_term(t: &Term) {
        let (nsc_val, nsc_cost) = eval_term(t).unwrap();
        let f = term_to_nsa(t, &EnvLayout::empty()).unwrap();
        let (nsa_val, nsa_cost) = apply(&f, &Value::unit()).unwrap();
        assert_eq!(nsc_val, nsa_val, "values agree for {t}");
        // Proposition C.1: same T and W up to constants.
        let tr = nsa_cost.time as f64 / nsc_cost.time.max(1) as f64;
        let wr = nsa_cost.work as f64 / nsc_cost.work.max(1) as f64;
        assert!(
            tr < 20.0 && wr < 20.0,
            "cost blowup {tr:.1}x/{wr:.1}x for {t}"
        );
    }

    fn check_func(f: &Func, arg: Value) {
        let (nsc_val, _) = nsc_core::eval::apply_func(f, arg.clone()).unwrap();
        let g = func_to_nsa(f).unwrap();
        let (nsa_val, _) = apply(&g, &arg).unwrap();
        assert_eq!(nsc_val, nsa_val);
    }

    #[test]
    fn scalars_and_pairs() {
        check_term(&add(nat(2), nat(3)));
        check_term(&pair(nat(1), pair(nat(2), unit())));
        check_term(&fst(pair(nat(1), nat(2))));
        check_term(&cond(le(nat(1), nat(2)), nat(10), nat(20)));
    }

    #[test]
    fn let_bindings_project_correctly() {
        check_term(&let_in(
            "x",
            nat(5),
            let_in("y", nat(7), monus(var("y"), var("x"))),
        ));
        // Shadowing
        check_term(&let_in("x", nat(5), let_in("x", nat(7), var("x"))));
    }

    #[test]
    fn sequences_round_trip() {
        check_term(&append(singleton(nat(1)), singleton(nat(2))));
        check_term(&enumerate(append(singleton(nat(5)), singleton(nat(6)))));
        check_term(&flatten(singleton(singleton(nat(3)))));
        check_term(&split(
            append(singleton(nat(1)), singleton(nat(2))),
            append(singleton(nat(1)), singleton(nat(1))),
        ));
    }

    #[test]
    fn map_with_captured_variable() {
        // let k = 10 in map(\x. x + k)([0,1,2]) — the broadcast case.
        let body = let_in(
            "k",
            nat(10),
            app(
                map(lam("x", add(var("x"), var("k")))),
                append(
                    singleton(nat(0)),
                    append(singleton(nat(1)), singleton(nat(2))),
                ),
            ),
        );
        check_term(&body);
    }

    #[test]
    fn while_with_captured_variable() {
        // let step = 3 in while(\x. x < 10, \x. x + step)(0) = 12
        let body = let_in(
            "step",
            nat(3),
            app(
                while_(
                    lam("x", lt(var("x"), nat(10))),
                    lam("x", add(var("x"), var("step"))),
                ),
                nat(0),
            ),
        );
        check_term(&body);
        assert_eq!(eval_term(&body).unwrap().0, Value::nat(12));
    }

    #[test]
    fn closed_functions_translate() {
        let f = map(lam("x", mul(var("x"), var("x"))));
        check_func(&f, Value::nat_seq(0..8));
        let sumf = lam("xs", stdlib::numeric::sum_seq(ast::var("xs")));
        check_func(&sumf, Value::nat_seq(0..20));
    }

    #[test]
    fn stdlib_routing_translates() {
        // bm_route through the full NSA pipeline.
        let f = lam(
            "x",
            stdlib::routing::bm_route(
                var("x"),
                append(singleton(nat(2)), singleton(nat(1))),
                append(singleton(nat(7)), singleton(nat(9))),
            ),
        );
        let arg = Value::seq(vec![Value::unit(), Value::unit(), Value::unit()]);
        check_func(&f, arg.clone());
        let g = func_to_nsa(&f).unwrap();
        let (v, _) = apply(&g, &arg).unwrap();
        assert_eq!(v, Value::nat_seq([7, 7, 9]));
    }

    #[test]
    fn nested_maps_translate() {
        // map(map(+1)) over [[1,2],[3]]
        let f = map(map(lam("x", add(var("x"), nat(1)))));
        let arg = Value::seq(vec![Value::nat_seq([1, 2]), Value::nat_seq([3])]);
        check_func(&f, arg);
    }

    #[test]
    fn named_functions_are_rejected() {
        let f = named("mystery");
        assert!(func_to_nsa(&f).is_err());
        let _ = Type::Nat;
    }

    #[test]
    fn translated_maprec_program_runs_in_nsa() {
        // End-to-end: map-recursion -> NSC (Thm 4.2) -> NSA (Prop C.1).
        use nsc_core::maprec::translate::translate;
        let def = nsc_core::maprec::fixtures::range_sum();
        let f = translate(&def);
        let arg = Value::pair(Value::nat(0), Value::nat(16));
        check_func(&f, arg.clone());
        let g = func_to_nsa(&f).unwrap();
        let (v, _) = apply(&g, &arg).unwrap();
        assert_eq!(v, Value::nat((0..16).sum::<u64>()));
    }
}
