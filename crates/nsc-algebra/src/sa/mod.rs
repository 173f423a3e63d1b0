//! The flat **Sequence Algebra** SA (Appendix D).
//!
//! SA has only *flat* types `t ::= unit | [s] | t × t | t + t` over scalar
//! `s`, and its only map is [`Sa::MapScalar`] — there is **no nested
//! parallelism** in SA, which is what makes it equivalent to the BVRAM
//! (Proposition 7.5; see the `nsc-compile` crate for the code generator).
//!
//! The combinator set follows the paper's, plus one *derived* operation:
//! [`Sa::PrefixSum`], the recursive-doubling inclusive scan.  It is
//! expressible with the core set (`while` over shift-and-add rounds, shifts
//! being `bm_route`s), and the evaluator charges exactly that derivation's
//! cost (`T = O(log n)`, `W = O(n log n)`); keeping it as one node keeps
//! the Map-Lemma constructions and the code generator readable.  Segmented
//! operations built on it (`SEQ(σᵢ)`, batched `enumerate`, `sbm_route`
//! segment totals) therefore cost `O(log n)` parallel time here, where the
//! paper's sketch asserts `O(1)`; this honest deviation is measured in
//! EXP-L72 (`exp l72`).

pub mod flatten;
pub mod map_lemma;
pub mod scalar;
pub mod seq;

use nsc_core::cost::Cost;
use nsc_core::error::EvalError as E;
use nsc_core::types::Type;
use nsc_core::value::{Kind, Value};
use scalar::{apply_scalar, Scalar};
use std::fmt;
use std::rc::Rc;

/// An SA function.
#[derive(Clone, Debug)]
pub enum Sa {
    /// Identity.
    Id,
    /// Composition `g ∘ f`.
    Compose(Rc<Sa>, Rc<Sa>),
    /// `! : t → unit`.
    Bang,
    /// Pairing `⟨f, g⟩`.
    PairF(Rc<Sa>, Rc<Sa>),
    /// First projection.
    Pi1,
    /// Second projection.
    Pi2,
    /// Left injection (flat sums); annotated with the right side's type.
    InlF(Type),
    /// Right injection; annotated with the left side's type.
    InrF(Type),
    /// Sum elimination `f + g`.
    SumCase(Rc<Sa>, Rc<Sa>),
    /// Distributivity `δ : (t₁+t₂) × t → t₁×t + t₂×t`.
    Dist,
    /// Error, annotated with its codomain.
    OmegaF(Type),
    /// `map(φ) : [s] → [s']` of a scalar function — SA's only map.
    MapScalar(Scalar),
    /// `∅ : t → [s]`, annotated with the element (scalar) type.
    EmptyF(Type),
    /// `singleton : unit → [unit]` (the paper's typing; constants are
    /// `map(const n) ∘ singleton`).
    SingletonUnit,
    /// `@ : [s] × [s] → [s]`.
    AppendF,
    /// `length : [s] → [N]` (a singleton).
    LengthF,
    /// `empty? : [s] → B`.
    EmptyTest,
    /// `σ₁ : [s₁ + s₂] → [s₁]` — keep and unwrap the `inl` elements.
    Sigma1,
    /// `σ₂ : [s₁ + s₂] → [s₂]`.
    Sigma2,
    /// `zip : [s] × [s'] → [s × s']`.
    ZipF,
    /// `enumerate : [s] → [N]`.
    EnumerateF,
    /// `bm_route : ([s] × [N]) × [s'] → [s']`.
    BmRouteF,
    /// `sbm_route : ([s] × [N]) × ([s'] × [N]) → [s']`.
    SbmRouteF,
    /// `while(p, f) : t → t`, carrying an optional trip-count
    /// certificate (see [`crate::trip::Trip`]; evaluation ignores it).
    /// Boxed to keep the enum small — translation recurses deeply.
    While(Rc<Sa>, Rc<Sa>, Box<crate::trip::Trip>),
    /// Derived: inclusive prefix sums `[N] → [N]` (see module docs).
    PrefixSum,
}

/// Builders.
pub mod b {
    use super::*;

    /// `g ∘ f`.
    pub fn comp(g: Sa, f: Sa) -> Sa {
        Sa::Compose(Rc::new(g), Rc::new(f))
    }

    /// Composition chain applied right-to-left: `comps([h,g,f]) = h∘g∘f`.
    pub fn comps(fs: Vec<Sa>) -> Sa {
        let mut it = fs.into_iter();
        let first = it.next().expect("comps of empty chain");
        it.fold(first, comp)
    }

    /// `⟨f, g⟩`.
    pub fn pair(f: Sa, g: Sa) -> Sa {
        Sa::PairF(Rc::new(f), Rc::new(g))
    }

    /// `f + g`.
    pub fn sum(f: Sa, g: Sa) -> Sa {
        Sa::SumCase(Rc::new(f), Rc::new(g))
    }

    /// `while(p, f)` with no trip certificate.
    pub fn whilef(p: Sa, f: Sa) -> Sa {
        whilef_trip(p, f, crate::trip::Trip::Unknown)
    }

    /// `while(p, f)` carrying a trip-count certificate.
    pub fn whilef_trip(p: Sa, f: Sa, trip: crate::trip::Trip) -> Sa {
        Sa::While(Rc::new(p), Rc::new(f), Box::new(trip))
    }

    /// `map(φ)`.
    pub fn maps(phi: Scalar) -> Sa {
        Sa::MapScalar(phi)
    }

    /// `⟨π₂, π₁⟩`.
    pub fn swap() -> Sa {
        pair(Sa::Pi2, Sa::Pi1)
    }

    /// `if p then f else g` over flat values:
    /// `(f∘π₂ + g∘π₂) ∘ δ ∘ ⟨p, id⟩`.
    pub fn iff(p: Sa, f: Sa, g: Sa) -> Sa {
        comp(
            sum(comp(f, Sa::Pi2), comp(g, Sa::Pi2)),
            comp(Sa::Dist, pair(p, Sa::Id)),
        )
    }

    /// The constant singleton `[n] : t → [N]`.
    pub fn const_seq(n: u64) -> Sa {
        comp(
            Sa::MapScalar(Scalar::Const(n)),
            comp(Sa::SingletonUnit, Sa::Bang),
        )
    }
}

fn local(x: &Value, out: &Value) -> Cost {
    Cost::rule(x.size() + out.size())
}

fn as_scalar_seq<'v>(x: &'v Value, what: &'static str) -> Result<&'v [Value], E> {
    x.as_seq().ok_or(E::Stuck(what))
}

/// Applies an SA function to a flat value.
pub fn apply_sa(f: &Sa, x: &Value) -> Result<(Value, Cost), E> {
    let mut fuel = u64::MAX;
    apply_sa_fueled(f, x, &mut fuel)
}

/// Fuel-bounded application.
pub fn apply_sa_fueled(f: &Sa, x: &Value, fuel: &mut u64) -> Result<(Value, Cost), E> {
    if *fuel == 0 {
        return Err(E::FuelExhausted);
    }
    *fuel -= 1;
    match f {
        Sa::Id => Ok((x.clone(), local(x, x))),
        Sa::Compose(g, f1) => {
            let (y, c1) = apply_sa_fueled(f1, x, fuel)?;
            let (z, c2) = apply_sa_fueled(g, &y, fuel)?;
            Ok((z, Cost::rule(0) + c1 + c2))
        }
        Sa::Bang => Ok((Value::unit(), local(x, &Value::unit()))),
        Sa::PairF(f1, f2) => {
            let (a, c1) = apply_sa_fueled(f1, x, fuel)?;
            let (b, c2) = apply_sa_fueled(f2, x, fuel)?;
            let out = Value::pair(a, b);
            Ok((out.clone(), local(x, &out) + c1 + c2))
        }
        Sa::Pi1 => match x.kind() {
            Kind::Pair(a, _) => Ok((a.clone(), local(x, a))),
            _ => Err(E::Stuck("sa pi1")),
        },
        Sa::Pi2 => match x.kind() {
            Kind::Pair(_, b) => Ok((b.clone(), local(x, b))),
            _ => Err(E::Stuck("sa pi2")),
        },
        Sa::InlF(_) => {
            let out = Value::inl(x.clone());
            Ok((out.clone(), local(x, &out)))
        }
        Sa::InrF(_) => {
            let out = Value::inr(x.clone());
            Ok((out.clone(), local(x, &out)))
        }
        Sa::SumCase(f1, f2) => match x.kind() {
            Kind::Inl(v) => {
                let (out, c) = apply_sa_fueled(f1, v, fuel)?;
                Ok((out.clone(), local(x, &out) + c))
            }
            Kind::Inr(v) => {
                let (out, c) = apply_sa_fueled(f2, v, fuel)?;
                Ok((out.clone(), local(x, &out) + c))
            }
            _ => Err(E::Stuck("sa sum case")),
        },
        Sa::Dist => match x.kind() {
            Kind::Pair(s, t) => {
                let out = match s.kind() {
                    Kind::Inl(v) => Value::inl(Value::pair(v.clone(), t.clone())),
                    Kind::Inr(v) => Value::inr(Value::pair(v.clone(), t.clone())),
                    _ => return Err(E::Stuck("sa dist non-sum")),
                };
                Ok((out.clone(), local(x, &out)))
            }
            _ => Err(E::Stuck("sa dist non-pair")),
        },
        Sa::OmegaF(_) => Err(E::Omega),
        Sa::MapScalar(phi) => {
            let xs = as_scalar_seq(x, "map scalar on non-sequence")?;
            let mut out = Vec::with_capacity(xs.len());
            for v in xs {
                out.push(apply_scalar(phi, v)?);
            }
            let out = Value::seq(out);
            // One parallel step regardless of n.
            Ok((out.clone(), local(x, &out)))
        }
        Sa::EmptyF(_) => {
            let out = Value::seq(vec![]);
            Ok((out.clone(), local(x, &out)))
        }
        Sa::SingletonUnit => {
            let out = Value::seq(vec![Value::unit()]);
            Ok((out.clone(), local(x, &out)))
        }
        Sa::AppendF => match x.kind() {
            Kind::Pair(a, b) => {
                let (xs, ys) = (
                    as_scalar_seq(a, "append lhs")?,
                    as_scalar_seq(b, "append rhs")?,
                );
                let mut out = Vec::with_capacity(xs.len() + ys.len());
                out.extend_from_slice(xs);
                out.extend_from_slice(ys);
                let out = Value::seq(out);
                Ok((out.clone(), local(x, &out)))
            }
            _ => Err(E::Stuck("sa append non-pair")),
        },
        Sa::LengthF => {
            let xs = as_scalar_seq(x, "length")?;
            let out = Value::seq(vec![Value::nat(xs.len() as u64)]);
            Ok((out.clone(), local(x, &out)))
        }
        Sa::EmptyTest => {
            let xs = as_scalar_seq(x, "empty?")?;
            let out = Value::bool_(xs.is_empty());
            Ok((out.clone(), local(x, &out)))
        }
        Sa::Sigma1 => {
            let xs = as_scalar_seq(x, "sigma1")?;
            let mut out = Vec::new();
            for v in xs {
                match v.kind() {
                    Kind::Inl(u) => out.push(u.clone()),
                    Kind::Inr(_) => {}
                    _ => return Err(E::Stuck("sigma1 on non-sum element")),
                }
            }
            let out = Value::seq(out);
            Ok((out.clone(), local(x, &out)))
        }
        Sa::Sigma2 => {
            let xs = as_scalar_seq(x, "sigma2")?;
            let mut out = Vec::new();
            for v in xs {
                match v.kind() {
                    Kind::Inr(u) => out.push(u.clone()),
                    Kind::Inl(_) => {}
                    _ => return Err(E::Stuck("sigma2 on non-sum element")),
                }
            }
            let out = Value::seq(out);
            Ok((out.clone(), local(x, &out)))
        }
        Sa::ZipF => match x.kind() {
            Kind::Pair(a, b) => {
                let (xs, ys) = (as_scalar_seq(a, "zip lhs")?, as_scalar_seq(b, "zip rhs")?);
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
            _ => Err(E::Stuck("sa zip non-pair")),
        },
        Sa::EnumerateF => {
            let xs = as_scalar_seq(x, "enumerate")?;
            let out = Value::seq((0..xs.len() as u64).map(Value::nat).collect());
            Ok((out.clone(), local(x, &out)))
        }
        Sa::BmRouteF => {
            // ((bound, counts), values)
            let Kind::Pair(bc, values) = x.kind() else {
                return Err(E::Stuck("bm_route shape"));
            };
            let Kind::Pair(bound, counts) = bc.kind() else {
                return Err(E::Stuck("bm_route bound shape"));
            };
            let bound = as_scalar_seq(bound, "bm_route bound")?;
            let counts = counts.as_nat_seq().ok_or(E::Stuck("bm_route counts"))?;
            let values = as_scalar_seq(values, "bm_route values")?;
            if counts.len() != values.len() {
                return Err(E::Stuck("bm_route: |counts| != |values|"));
            }
            let total: u64 = counts.iter().sum();
            if total != bound.len() as u64 {
                return Err(E::SplitSumMismatch {
                    have: bound.len() as u64,
                    want: total,
                });
            }
            let mut out = Vec::with_capacity(bound.len());
            for (c, v) in counts.iter().zip(values) {
                for _ in 0..*c {
                    out.push(v.clone());
                }
            }
            let out = Value::seq(out);
            Ok((out.clone(), local(x, &out)))
        }
        Sa::SbmRouteF => {
            // ((bound, counts), (data, segs))
            let Kind::Pair(bc, ds) = x.kind() else {
                return Err(E::Stuck("sbm_route shape"));
            };
            let Kind::Pair(bound, counts) = bc.kind() else {
                return Err(E::Stuck("sbm_route bound shape"));
            };
            let Kind::Pair(data, segs) = ds.kind() else {
                return Err(E::Stuck("sbm_route values shape"));
            };
            let bound = as_scalar_seq(bound, "sbm_route bound")?;
            let counts = counts.as_nat_seq().ok_or(E::Stuck("sbm_route counts"))?;
            let data = as_scalar_seq(data, "sbm_route data")?;
            let segs = segs.as_nat_seq().ok_or(E::Stuck("sbm_route segs"))?;
            if counts.len() != segs.len() {
                return Err(E::Stuck("sbm_route: |counts| != |segs|"));
            }
            let total: u64 = counts.iter().sum();
            if total != bound.len() as u64 {
                return Err(E::SplitSumMismatch {
                    have: bound.len() as u64,
                    want: total,
                });
            }
            let dtotal: u64 = segs.iter().sum();
            if dtotal != data.len() as u64 {
                return Err(E::SplitSumMismatch {
                    have: data.len() as u64,
                    want: dtotal,
                });
            }
            let mut out = Vec::new();
            let mut pos = 0usize;
            for (c, s) in counts.iter().zip(&segs) {
                let s = *s as usize;
                for _ in 0..*c {
                    out.extend_from_slice(&data[pos..pos + s]);
                }
                pos += s;
            }
            let out = Value::seq(out);
            Ok((out.clone(), local(x, &out)))
        }
        Sa::While(p, body, _) => {
            let mut cur = x.clone();
            let mut total = Cost::ZERO;
            loop {
                if *fuel == 0 {
                    return Err(E::FuelExhausted);
                }
                *fuel -= 1;
                let (bv, cp) = apply_sa_fueled(p, &cur, fuel)?;
                match bv.as_bool() {
                    Some(true) => {
                        let (next, cf) = apply_sa_fueled(body, &cur, fuel)?;
                        total += Cost::rule(cur.size() + next.size()) + cp + cf;
                        cur = next;
                    }
                    Some(false) => {
                        total += Cost::rule(cur.size()) + cp;
                        return Ok((cur, total));
                    }
                    None => return Err(E::Stuck("sa while predicate")),
                }
            }
        }
        Sa::PrefixSum => {
            let ns = x.as_nat_seq().ok_or(E::Stuck("prefix_sum"))?;
            // An overflowing partial sum is Ω, as the machine's scan faults.
            let mut acc = 0u64;
            let out = ns
                .iter()
                .map(|v| {
                    acc = acc.checked_add(*v)?;
                    Some(Value::nat(acc))
                })
                .collect::<Option<Vec<_>>>()
                .ok_or(E::Omega)?;
            let out = Value::seq(out);
            // Cost of the recursive-doubling derivation: ceil(log2 n)
            // rounds, each a shift (bm_route) + elementwise add over n
            // elements: T = O(log n), W = O(n log n).
            let n = ns.len() as u64;
            let rounds = if n <= 1 {
                0
            } else {
                64 - (n - 1).leading_zeros() as u64
            };
            let c = Cost::new(1 + 3 * rounds, (x.size() + out.size()) * (1 + rounds));
            Ok((out, c))
        }
    }
}

impl fmt::Display for Sa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sa::Id => write!(f, "id"),
            Sa::Compose(g, h) => write!(f, "({g} . {h})"),
            Sa::Bang => write!(f, "!"),
            Sa::PairF(a, b) => write!(f, "<{a}, {b}>"),
            Sa::Pi1 => write!(f, "pi1"),
            Sa::Pi2 => write!(f, "pi2"),
            Sa::InlF(_) => write!(f, "inl"),
            Sa::InrF(_) => write!(f, "inr"),
            Sa::SumCase(a, b) => write!(f, "[{a} + {b}]"),
            Sa::Dist => write!(f, "dist"),
            Sa::OmegaF(_) => write!(f, "omega"),
            Sa::MapScalar(phi) => write!(f, "map({phi:?})"),
            Sa::EmptyF(_) => write!(f, "empty"),
            Sa::SingletonUnit => write!(f, "singleton"),
            Sa::AppendF => write!(f, "append"),
            Sa::LengthF => write!(f, "length"),
            Sa::EmptyTest => write!(f, "empty?"),
            Sa::Sigma1 => write!(f, "sigma1"),
            Sa::Sigma2 => write!(f, "sigma2"),
            Sa::ZipF => write!(f, "zip"),
            Sa::EnumerateF => write!(f, "enumerate"),
            Sa::BmRouteF => write!(f, "bm_route"),
            Sa::SbmRouteF => write!(f, "sbm_route"),
            Sa::While(p, b, _) => write!(f, "while({p}, {b})"),
            Sa::PrefixSum => write!(f, "prefix_sum"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::b::*;
    use super::*;
    use nsc_core::ast::{ArithOp, CmpOp};

    fn nats(ns: &[u64]) -> Value {
        Value::nat_seq(ns.iter().copied())
    }

    #[test]
    fn map_scalar_is_one_step() {
        let f = maps(scalar::b::comp(
            Scalar::Arith(ArithOp::Mul),
            scalar::b::pairs(Scalar::Id, Scalar::Id),
        ));
        let (out, c1) = apply_sa(&f, &nats(&[1, 2, 3])).unwrap();
        assert_eq!(out, nats(&[1, 4, 9]));
        let (_, c2) = apply_sa(&f, &Value::nat_seq(0..500)).unwrap();
        assert_eq!(c1.time, c2.time);
    }

    #[test]
    fn sigma_selections() {
        let mixed = Value::seq(vec![
            Value::inl(Value::nat(1)),
            Value::inr(Value::nat(2)),
            Value::inl(Value::nat(3)),
        ]);
        let (o, _) = apply_sa(&Sa::Sigma1, &mixed).unwrap();
        assert_eq!(o, nats(&[1, 3]));
        let (o, _) = apply_sa(&Sa::Sigma2, &mixed).unwrap();
        assert_eq!(o, nats(&[2]));
    }

    #[test]
    fn bm_route_flat() {
        let arg = Value::pair(
            Value::pair(nats(&[0, 0, 0, 0, 0]), nats(&[2, 0, 3])),
            nats(&[7, 8, 9]),
        );
        let (o, _) = apply_sa(&Sa::BmRouteF, &arg).unwrap();
        assert_eq!(o, nats(&[7, 7, 9, 9, 9]));
    }

    #[test]
    fn sbm_route_flat() {
        let arg = Value::pair(
            Value::pair(nats(&[0; 5]), nats(&[2, 0, 3])),
            Value::pair(nats(&[1, 2, 10, 11, 12, 20, 21, 22]), nats(&[2, 3, 3])),
        );
        let (o, _) = apply_sa(&Sa::SbmRouteF, &arg).unwrap();
        assert_eq!(o, nats(&[1, 2, 1, 2, 20, 21, 22, 20, 21, 22, 20, 21, 22]));
    }

    #[test]
    fn prefix_sum_values_and_cost() {
        let (o, c16) = apply_sa(&Sa::PrefixSum, &Value::nat_seq(0..16)).unwrap();
        assert_eq!(
            o.as_nat_seq().unwrap(),
            (0..16)
                .scan(0u64, |a, x| {
                    *a += x;
                    Some(*a)
                })
                .collect::<Vec<_>>()
        );
        let (_, c256) = apply_sa(&Sa::PrefixSum, &Value::nat_seq(0..256)).unwrap();
        assert!(c256.time > c16.time, "log-time derivation charged");
        assert!(c256.time < 2 * c16.time);
    }

    #[test]
    fn prefix_sum_overflow_is_omega() {
        let r = apply_sa(&Sa::PrefixSum, &nats(&[u64::MAX, 1]));
        assert_eq!(r.unwrap_err(), E::Omega);
    }

    #[test]
    fn while_counts_down() {
        // state [N] singleton; while head > 0: decrement (predicate via
        // tagging the head and testing the packed selection).
        let positive = maps(scalar::b::ifs(
            scalar::b::comp(
                Scalar::Cmp(CmpOp::Lt),
                scalar::b::pairs(Scalar::Const(0), Scalar::Id),
            ),
            Scalar::InlS(Type::Unit),
            Scalar::InrS(Type::Unit),
        ));
        // head > 0  <=>  sigma1(tagged) nonempty  <=>  not(empty?)
        let not = sum(
            comp(Sa::InrF(Type::Unit), Sa::Bang),
            comp(Sa::InlF(Type::Unit), Sa::Bang),
        );
        let pred = comp(not, comp(Sa::EmptyTest, comp(Sa::Sigma1, positive)));
        let dec = maps(scalar::b::comp(
            Scalar::Arith(ArithOp::Monus),
            scalar::b::pairs(Scalar::Id, Scalar::Const(1)),
        ));
        let w = whilef(pred, dec);
        let (o, c) = apply_sa(&w, &nats(&[5])).unwrap();
        assert_eq!(o, nats(&[0]));
        assert!(c.time >= 5);
    }

    #[test]
    fn const_seq_builds_singletons() {
        let (o, _) = apply_sa(&const_seq(42), &Value::unit()).unwrap();
        assert_eq!(o, nats(&[42]));
    }

    #[test]
    fn iff_dispatches() {
        let f = iff(Sa::EmptyTest, const_seq(1), const_seq(0));
        let (o, _) = apply_sa(&f, &nats(&[])).unwrap();
        assert_eq!(o, nats(&[1]));
        let (o, _) = apply_sa(&f, &nats(&[9])).unwrap();
        assert_eq!(o, nats(&[0]));
    }
}
