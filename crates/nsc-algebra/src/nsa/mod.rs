//! The Nested Sequence Algebra **NSA** (Appendix C).
//!
//! NSA is the variable-free counterpart of NSC: only functions, no terms.
//! Free variables are replaced by the broadcast `ρ₂` (the paper: "This
//! replaces the 'free variables' present in NSC"), and a term `M : t` with
//! free variables `x₁:s₁, …, xₙ:sₙ` becomes a function
//! `s₁ × (… × (sₙ × unit)) → t` ([`from_nsc`], Proposition C.1).
//!
//! The evaluator mirrors Definition 3.1 without environments: every
//! combinator application costs `T = 1` plus its premises, and
//! `W = size(input) + size(output)` plus its premises; `map` takes the
//! `max` of its premise times; `while` excludes the final output.
//! Proposition C.1's claim — same expressive power, same `T`/`W` up to
//! constants — is exercised by differential tests against `nsc-core`.

pub mod from_nsc;

use nsc_core::ast::{ArithOp, CmpOp};
use nsc_core::cost::Cost;
use nsc_core::value::{Kind, Value};
use std::fmt;
use std::rc::Rc;

/// An NSA function (all combinators are functions `s → t`).
#[derive(Clone, Debug)]
pub enum Nsa {
    /// Identity.
    Id,
    /// Composition `g ∘ f` (apply `f` first).
    Compose(Rc<Nsa>, Rc<Nsa>),
    /// The terminal map `!t : t → unit`.
    Bang,
    /// Pairing `⟨f, g⟩ : s → t₁ × t₂`.
    PairF(Rc<Nsa>, Rc<Nsa>),
    /// First projection.
    Pi1,
    /// Second projection.
    Pi2,
    /// Left injection; annotated with the (absent) right side's type.
    InlF(nsc_core::types::Type),
    /// Right injection; annotated with the (absent) left side's type.
    InrF(nsc_core::types::Type),
    /// Sum elimination `f₁ + f₂ : t₁ + t₂ → t`.
    SumCase(Rc<Nsa>, Rc<Nsa>),
    /// Distributivity `δ : (t₁ + t₂) × t → t₁ × t + t₂ × t`.
    Dist,
    /// The error function `Ω : s → t`, annotated with its codomain.
    OmegaF(nsc_core::types::Type),
    /// Constant `n : unit → N` (paper: `n : unit → N`).
    ConstNat(u64),
    /// Arithmetic `op : N × N → N`.
    Arith(ArithOp),
    /// Comparison `= / ≤ / < : N × N → B`.
    Cmp(CmpOp),
    /// `while(p, f) : t → t`, carrying an optional trip-count
    /// certificate (see [`crate::trip::Trip`]; evaluation ignores it).
    /// Boxed to keep the enum small — translation recurses deeply.
    While(Rc<Nsa>, Rc<Nsa>, Box<crate::trip::Trip>),
    /// `map(f) : [s] → [t]` — nested parallelism lives here.
    MapF(Rc<Nsa>),
    /// The empty sequence `∅ : unit → [t]`, annotated with the element type.
    EmptyF(nsc_core::types::Type),
    /// `singleton : t → [t]`.
    SingletonF,
    /// `@ : [t] × [t] → [t]`.
    AppendF,
    /// `flatten : [[t]] → [t]`.
    FlattenF,
    /// `length : [t] → N`.
    LengthF,
    /// `get : [t] → t`.
    GetF,
    /// `zip : [s] × [t] → [s × t]`.
    ZipF,
    /// `enumerate : [t] → [N]`.
    EnumerateF,
    /// `split : [t] × [N] → [[t]]`.
    SplitF,
    /// Broadcast `ρ₂ : s × [t] → [s × t]`.
    Broadcast,
}

/// Errors raised by NSA evaluation (shape violations correspond to NSC's
/// `Ω`-partiality).
pub type NsaError = nsc_core::error::EvalError;

use nsc_core::error::EvalError as E;

/// Shorthand constructors used by the translator and tests.
pub mod build {
    use super::*;

    /// `g ∘ f`.
    pub fn comp(g: Nsa, f: Nsa) -> Nsa {
        Nsa::Compose(Rc::new(g), Rc::new(f))
    }

    /// Composition chain, applied right-to-left: `comps([h, g, f]) = h∘g∘f`.
    pub fn comps(fs: Vec<Nsa>) -> Nsa {
        let mut it = fs.into_iter();
        let first = it.next().expect("comps of empty chain");
        it.fold(first, comp)
    }

    /// `⟨f, g⟩`.
    pub fn pair(f: Nsa, g: Nsa) -> Nsa {
        Nsa::PairF(Rc::new(f), Rc::new(g))
    }

    /// `f + g`.
    pub fn sum(f: Nsa, g: Nsa) -> Nsa {
        Nsa::SumCase(Rc::new(f), Rc::new(g))
    }

    /// `map(f)`.
    pub fn mapf(f: Nsa) -> Nsa {
        Nsa::MapF(Rc::new(f))
    }

    /// `while(p, f)` with no trip certificate.
    pub fn whilef(p: Nsa, f: Nsa) -> Nsa {
        whilef_trip(p, f, crate::trip::Trip::Unknown)
    }

    /// `while(p, f)` carrying a trip-count certificate.
    pub fn whilef_trip(p: Nsa, f: Nsa, trip: crate::trip::Trip) -> Nsa {
        Nsa::While(Rc::new(p), Rc::new(f), Box::new(trip))
    }

    /// `⟨π₂, π₁⟩` — swap.
    pub fn swap() -> Nsa {
        pair(Nsa::Pi2, Nsa::Pi1)
    }
}

/// Applies an NSA function to a value, returning the result and its cost.
pub fn apply(f: &Nsa, x: &Value) -> Result<(Value, Cost), NsaError> {
    let mut fuel = u64::MAX;
    apply_fueled(f, x, &mut fuel)
}

fn local(x: &Value, out: &Value) -> Cost {
    Cost::rule(x.size() + out.size())
}

/// Fuel-bounded application (guards divergent `while`s in tests).
pub fn apply_fueled(f: &Nsa, x: &Value, fuel: &mut u64) -> Result<(Value, Cost), NsaError> {
    if *fuel == 0 {
        return Err(E::FuelExhausted);
    }
    *fuel -= 1;
    match f {
        Nsa::Id => Ok((x.clone(), local(x, x))),
        Nsa::Compose(g, f1) => {
            let (y, c1) = apply_fueled(f1, x, fuel)?;
            let (z, c2) = apply_fueled(g, &y, fuel)?;
            // The composition node itself is bookkeeping: charge one step.
            Ok((z, Cost::rule(0) + c1 + c2))
        }
        Nsa::Bang => Ok((Value::unit(), local(x, &Value::unit()))),
        Nsa::PairF(f1, f2) => {
            let (a, c1) = apply_fueled(f1, x, fuel)?;
            let (b, c2) = apply_fueled(f2, x, fuel)?;
            let out = Value::pair(a, b);
            Ok((out.clone(), local(x, &out) + c1 + c2))
        }
        Nsa::Pi1 => match x.kind() {
            Kind::Pair(a, _) => Ok((a.clone(), local(x, a))),
            _ => Err(E::Stuck("pi1 on non-pair")),
        },
        Nsa::Pi2 => match x.kind() {
            Kind::Pair(_, b) => Ok((b.clone(), local(x, b))),
            _ => Err(E::Stuck("pi2 on non-pair")),
        },
        Nsa::InlF(_) => {
            let out = Value::inl(x.clone());
            Ok((out.clone(), local(x, &out)))
        }
        Nsa::InrF(_) => {
            let out = Value::inr(x.clone());
            Ok((out.clone(), local(x, &out)))
        }
        Nsa::SumCase(f1, f2) => match x.kind() {
            Kind::Inl(v) => {
                let (out, c) = apply_fueled(f1, v, fuel)?;
                Ok((out.clone(), local(x, &out) + c))
            }
            Kind::Inr(v) => {
                let (out, c) = apply_fueled(f2, v, fuel)?;
                Ok((out.clone(), local(x, &out) + c))
            }
            _ => Err(E::Stuck("sum case on non-sum")),
        },
        Nsa::Dist => match x.kind() {
            Kind::Pair(s, t) => {
                let out = match s.kind() {
                    Kind::Inl(v) => Value::inl(Value::pair(v.clone(), t.clone())),
                    Kind::Inr(v) => Value::inr(Value::pair(v.clone(), t.clone())),
                    _ => return Err(E::Stuck("dist on non-sum first component")),
                };
                Ok((out.clone(), local(x, &out)))
            }
            _ => Err(E::Stuck("dist on non-pair")),
        },
        Nsa::OmegaF(_) => Err(E::Omega),
        Nsa::ConstNat(n) => {
            let out = Value::nat(*n);
            Ok((out.clone(), local(x, &out)))
        }
        Nsa::Arith(op) => match x.kind() {
            Kind::Pair(a, b) => match (a.as_nat(), b.as_nat()) {
                (Some(m), Some(n)) => {
                    let r = op.apply(m, n).ok_or(E::DivisionByZero)?;
                    let out = Value::nat(r);
                    Ok((out.clone(), local(x, &out)))
                }
                _ => Err(E::Stuck("arith on non-numbers")),
            },
            _ => Err(E::Stuck("arith on non-pair")),
        },
        Nsa::Cmp(op) => match x.kind() {
            Kind::Pair(a, b) => match (a.as_nat(), b.as_nat()) {
                (Some(m), Some(n)) => {
                    let out = Value::bool_(op.apply(m, n));
                    Ok((out.clone(), local(x, &out)))
                }
                _ => Err(E::Stuck("cmp on non-numbers")),
            },
            _ => Err(E::Stuck("cmp on non-pair")),
        },
        Nsa::While(p, body, _) => {
            let mut cur = x.clone();
            let mut total = Cost::ZERO;
            loop {
                if *fuel == 0 {
                    return Err(E::FuelExhausted);
                }
                *fuel -= 1;
                let (b, cp) = apply_fueled(p, &cur, fuel)?;
                match b.as_bool() {
                    Some(true) => {
                        let (next, cf) = apply_fueled(body, &cur, fuel)?;
                        // Definition 3.1: charge size(C) + size(C'); the
                        // eventual output is not re-charged per iteration.
                        total += Cost::rule(cur.size() + next.size()) + cp + cf;
                        cur = next;
                    }
                    Some(false) => {
                        total += Cost::rule(cur.size()) + cp;
                        return Ok((cur, total));
                    }
                    None => return Err(E::Stuck("while predicate not boolean")),
                }
            }
        }
        Nsa::MapF(g) => match x.kind() {
            Kind::Seq(vs) => {
                let mut outs = Vec::with_capacity(vs.len());
                let mut par = Cost::ZERO;
                for v in vs {
                    let (d, c) = apply_fueled(g, v, fuel)?;
                    outs.push(d);
                    par = par.par(c);
                }
                let out = Value::seq(outs);
                Ok((out.clone(), local(x, &out) + par))
            }
            _ => Err(E::Stuck("map on non-sequence")),
        },
        Nsa::EmptyF(_) => {
            let out = Value::seq(vec![]);
            Ok((out.clone(), local(x, &out)))
        }
        Nsa::SingletonF => {
            let out = Value::seq(vec![x.clone()]);
            Ok((out.clone(), local(x, &out)))
        }
        Nsa::AppendF => match x.kind() {
            Kind::Pair(a, b) => match (a.as_seq(), b.as_seq()) {
                (Some(xs), Some(ys)) => {
                    let mut out = Vec::with_capacity(xs.len() + ys.len());
                    out.extend_from_slice(xs);
                    out.extend_from_slice(ys);
                    let out = Value::seq(out);
                    Ok((out.clone(), local(x, &out)))
                }
                _ => Err(E::Stuck("append on non-sequences")),
            },
            _ => Err(E::Stuck("append on non-pair")),
        },
        Nsa::FlattenF => match x.kind() {
            Kind::Seq(vs) => {
                let mut out = Vec::new();
                for v in vs {
                    out.extend_from_slice(v.as_seq().ok_or(E::Stuck("flatten inner"))?);
                }
                let out = Value::seq(out);
                Ok((out.clone(), local(x, &out)))
            }
            _ => Err(E::Stuck("flatten on non-sequence")),
        },
        Nsa::LengthF => match x.kind() {
            Kind::Seq(vs) => {
                let out = Value::nat(vs.len() as u64);
                Ok((out.clone(), local(x, &out)))
            }
            _ => Err(E::Stuck("length on non-sequence")),
        },
        Nsa::GetF => match x.kind() {
            Kind::Seq(vs) if vs.len() == 1 => Ok((vs[0].clone(), local(x, &vs[0]))),
            Kind::Seq(vs) => Err(E::GetNonSingleton(vs.len())),
            _ => Err(E::Stuck("get on non-sequence")),
        },
        Nsa::ZipF => match x.kind() {
            Kind::Pair(a, b) => match (a.as_seq(), b.as_seq()) {
                (Some(xs), Some(ys)) => {
                    if xs.len() != ys.len() {
                        return Err(E::ZipLengthMismatch(xs.len(), ys.len()));
                    }
                    let out = Value::seq(
                        xs.iter()
                            .zip(ys)
                            .map(|(u, v)| Value::pair(u.clone(), v.clone()))
                            .collect(),
                    );
                    Ok((out.clone(), local(x, &out)))
                }
                _ => Err(E::Stuck("zip on non-sequences")),
            },
            _ => Err(E::Stuck("zip on non-pair")),
        },
        Nsa::EnumerateF => match x.kind() {
            Kind::Seq(vs) => {
                let out = Value::seq((0..vs.len() as u64).map(Value::nat).collect());
                Ok((out.clone(), local(x, &out)))
            }
            _ => Err(E::Stuck("enumerate on non-sequence")),
        },
        Nsa::SplitF => match x.kind() {
            Kind::Pair(a, b) => {
                let xs = a.as_seq().ok_or(E::Stuck("split data"))?;
                let lens = b.as_nat_seq().ok_or(E::Stuck("split lengths"))?;
                // Saturating: a sum past u64::MAX can never match.
                let want = lens.iter().fold(0u64, |s, &l| s.saturating_add(l));
                if want != xs.len() as u64 {
                    return Err(E::SplitSumMismatch {
                        have: xs.len() as u64,
                        want,
                    });
                }
                let mut out = Vec::with_capacity(lens.len());
                let mut pos = 0usize;
                for &l in &lens {
                    out.push(Value::seq(xs[pos..pos + l as usize].to_vec()));
                    pos += l as usize;
                }
                let out = Value::seq(out);
                Ok((out.clone(), local(x, &out)))
            }
            _ => Err(E::Stuck("split on non-pair")),
        },
        Nsa::Broadcast => match x.kind() {
            Kind::Pair(s, t) => match t.as_seq() {
                Some(ys) => {
                    let out = Value::seq(
                        ys.iter()
                            .map(|y| Value::pair(s.clone(), y.clone()))
                            .collect(),
                    );
                    Ok((out.clone(), local(x, &out)))
                }
                None => Err(E::Stuck("broadcast on non-sequence")),
            },
            _ => Err(E::Stuck("broadcast on non-pair")),
        },
    }
}

impl fmt::Display for Nsa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Nsa::Id => write!(f, "id"),
            Nsa::Compose(g, h) => write!(f, "({g} . {h})"),
            Nsa::Bang => write!(f, "!"),
            Nsa::PairF(a, b) => write!(f, "<{a}, {b}>"),
            Nsa::Pi1 => write!(f, "pi1"),
            Nsa::Pi2 => write!(f, "pi2"),
            Nsa::InlF(_) => write!(f, "inl"),
            Nsa::InrF(_) => write!(f, "inr"),
            Nsa::SumCase(a, b) => write!(f, "[{a} + {b}]"),
            Nsa::Dist => write!(f, "dist"),
            Nsa::OmegaF(_) => write!(f, "omega"),
            Nsa::ConstNat(n) => write!(f, "const {n}"),
            Nsa::Arith(op) => write!(f, "{}", op.symbol()),
            Nsa::Cmp(op) => write!(f, "{}", op.symbol()),
            Nsa::While(p, b, _) => write!(f, "while({p}, {b})"),
            Nsa::MapF(g) => write!(f, "map({g})"),
            Nsa::EmptyF(_) => write!(f, "empty"),
            Nsa::SingletonF => write!(f, "singleton"),
            Nsa::AppendF => write!(f, "append"),
            Nsa::FlattenF => write!(f, "flatten"),
            Nsa::LengthF => write!(f, "length"),
            Nsa::GetF => write!(f, "get"),
            Nsa::ZipF => write!(f, "zip"),
            Nsa::EnumerateF => write!(f, "enumerate"),
            Nsa::SplitF => write!(f, "split"),
            Nsa::Broadcast => write!(f, "rho2"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::build::*;
    use super::*;

    #[test]
    fn basic_combinators() {
        let v = Value::pair(Value::nat(3), Value::nat(4));
        let (out, _) = apply(&Nsa::Arith(ArithOp::Add), &v).unwrap();
        assert_eq!(out, Value::nat(7));
        let (out, _) = apply(&swap(), &v).unwrap();
        assert_eq!(out, Value::pair(Value::nat(4), Value::nat(3)));
    }

    #[test]
    fn composition_order_is_right_to_left() {
        // (length . singleton)(x) = length([x]) = 1
        let f = comp(Nsa::LengthF, Nsa::SingletonF);
        let (out, _) = apply(&f, &Value::nat(9)).unwrap();
        assert_eq!(out, Value::nat(1));
    }

    #[test]
    fn sum_case_and_dist() {
        let f = sum(
            Nsa::Id,
            comp(Nsa::Arith(ArithOp::Add), pair(Nsa::Id, Nsa::Id)),
        );
        let (out, _) = apply(&f, &Value::inl(Value::nat(5))).unwrap();
        assert_eq!(out, Value::nat(5));
        let (out, _) = apply(&f, &Value::inr(Value::nat(5))).unwrap();
        assert_eq!(out, Value::nat(10));

        let d = Nsa::Dist;
        let v = Value::pair(Value::inl(Value::nat(1)), Value::nat(2));
        let (out, _) = apply(&d, &v).unwrap();
        assert_eq!(out, Value::inl(Value::pair(Value::nat(1), Value::nat(2))));
    }

    #[test]
    fn map_parallel_time() {
        let f = mapf(comp(Nsa::Arith(ArithOp::Mul), pair(Nsa::Id, Nsa::Id)));
        let (o1, c1) = apply(&f, &Value::nat_seq(0..4)).unwrap();
        assert_eq!(o1, Value::nat_seq([0, 1, 4, 9]));
        let (_, c2) = apply(&f, &Value::nat_seq(0..256)).unwrap();
        assert_eq!(c1.time, c2.time, "map time independent of n");
        assert!(c2.work > c1.work);
    }

    #[test]
    fn while_halves_to_zero() {
        use nsc_core::ast::CmpOp;
        let p = comp(
            Nsa::Cmp(CmpOp::Lt),
            pair(comp(Nsa::ConstNat(0), Nsa::Bang), Nsa::Id),
        );
        let f = comp(
            Nsa::Arith(ArithOp::Rshift),
            pair(Nsa::Id, comp(Nsa::ConstNat(1), Nsa::Bang)),
        );
        let (out, _) = apply(&whilef(p, f), &Value::nat(37)).unwrap();
        assert_eq!(out, Value::nat(0));
    }

    #[test]
    fn broadcast_rho2() {
        let v = Value::pair(Value::nat(7), Value::nat_seq([1, 2]));
        let (out, _) = apply(&Nsa::Broadcast, &v).unwrap();
        assert_eq!(
            out,
            Value::seq(vec![
                Value::pair(Value::nat(7), Value::nat(1)),
                Value::pair(Value::nat(7), Value::nat(2)),
            ])
        );
    }

    #[test]
    fn split_and_get_partiality() {
        let v = Value::pair(Value::nat_seq([1, 2, 3]), Value::nat_seq([2, 2]));
        assert!(matches!(
            apply(&Nsa::SplitF, &v),
            Err(E::SplitSumMismatch { .. })
        ));
        assert!(matches!(
            apply(&Nsa::GetF, &Value::nat_seq([])),
            Err(E::GetNonSingleton(0))
        ));
    }

    #[test]
    fn split_lengths_that_overflow_mismatch() {
        // 2^64 - 1 + 3 wraps to 2, the data length: still a mismatch.
        let v = Value::pair(Value::nat_seq([1, 2]), Value::nat_seq([u64::MAX, 3]));
        assert!(matches!(
            apply(&Nsa::SplitF, &v),
            Err(E::SplitSumMismatch {
                have: 2,
                want: u64::MAX
            })
        ));
    }

    #[test]
    fn fuel_guards_divergent_while() {
        let p = comp(Nsa::InlF(nsc_core::types::Type::Unit), Nsa::Bang); // always true
        let w = whilef(p, Nsa::Id);
        let mut fuel = 1000u64;
        assert!(matches!(
            apply_fueled(&w, &Value::nat(0), &mut fuel),
            Err(E::FuelExhausted)
        ));
    }
}
