//! Register layouts: flat SA types ↔ BVRAM vector registers.
//!
//! The paper: "encoding of SA types into BVRAM types is straightforward."
//! Concretely:
//!
//! * a scalar `s` spans [`scalar_fields`]`(s)` *fields* per element
//!   (`unit` = one all-zero field, `N` = one field, products concatenate,
//!   a scalar sum adds a 0/1 tag field with the inactive side padded — we
//!   pad with `1`s so padded lanes can never fault a division);
//! * `[s]` occupies `scalar_fields(s)` registers of equal length;
//! * flat products concatenate their registers;
//! * a flat sum `t₁ + t₂` adds one singleton tag register (`[1]` = `inl`,
//!   `[0]` = `inr`) with the inactive side's registers left empty.

use nsc_core::error::EvalError as E;
use nsc_core::types::Type;
use nsc_core::value::{Kind, Value};

/// A register's runtime contents.
pub type Vector = Vec<u64>;

/// Padding value for the inactive side of *scalar* sums (never `0`, so a
/// padded lane cannot fault `div`/`mod`).
pub const PAD: u64 = 1;

/// Fields per element of a scalar type.
pub fn scalar_fields(s: &Type) -> usize {
    match s {
        Type::Unit | Type::Nat => 1,
        Type::Prod(a, b) => scalar_fields(a) + scalar_fields(b),
        Type::Sum(a, b) => 1 + scalar_fields(a) + scalar_fields(b),
        Type::Seq(_) => unreachable!("sequence inside scalar"),
    }
}

/// Registers occupied by a flat type.
pub fn reg_count(t: &Type) -> usize {
    match t {
        Type::Unit => 0,
        Type::Seq(s) => scalar_fields(s),
        Type::Prod(a, b) => reg_count(a) + reg_count(b),
        Type::Sum(a, b) => 1 + reg_count(a) + reg_count(b),
        Type::Nat => unreachable!("N is not flat"),
    }
}

/// Flattens one scalar value into fields (inactive sum sides padded).
pub fn scalar_to_fields(v: &Value, s: &Type, out: &mut Vec<u64>) -> Result<(), E> {
    match (s, v.kind()) {
        (Type::Unit, Kind::Unit) => {
            out.push(0);
            Ok(())
        }
        (Type::Nat, Kind::Nat(n)) => {
            out.push(*n);
            Ok(())
        }
        (Type::Prod(a, b), Kind::Pair(x, y)) => {
            scalar_to_fields(x, a, out)?;
            scalar_to_fields(y, b, out)
        }
        (Type::Sum(a, b), Kind::Inl(x)) => {
            out.push(1);
            scalar_to_fields(x, a, out)?;
            out.extend(std::iter::repeat_n(PAD, scalar_fields(b)));
            Ok(())
        }
        (Type::Sum(a, b), Kind::Inr(y)) => {
            out.push(0);
            out.extend(std::iter::repeat_n(PAD, scalar_fields(a)));
            scalar_to_fields(y, b, out)
        }
        _ => Err(E::Stuck("scalar_to_fields shape")),
    }
}

/// Reads one scalar value back from fields.
pub fn scalar_from_fields(fields: &[u64], s: &Type) -> Result<(Value, usize), E> {
    match s {
        Type::Unit => Ok((Value::unit(), 1)),
        Type::Nat => Ok((
            Value::nat(*fields.first().ok_or(E::Stuck("field underrun"))?),
            1,
        )),
        Type::Prod(a, b) => {
            let (x, na) = scalar_from_fields(fields, a)?;
            let (y, nb) = scalar_from_fields(&fields[na..], b)?;
            Ok((Value::pair(x, y), na + nb))
        }
        Type::Sum(a, b) => {
            let tag = *fields.first().ok_or(E::Stuck("field underrun"))?;
            let fa = scalar_fields(a);
            let fb = scalar_fields(b);
            let v = if tag != 0 {
                Value::inl(scalar_from_fields(&fields[1..], a)?.0)
            } else {
                Value::inr(scalar_from_fields(&fields[1 + fa..], b)?.0)
            };
            Ok((v, 1 + fa + fb))
        }
        Type::Seq(_) => Err(E::Stuck("sequence inside scalar")),
    }
}

/// Encodes a flat value into its register vectors.
pub fn value_to_regs(v: &Value, t: &Type) -> Result<Vec<Vector>, E> {
    match t {
        Type::Unit => Ok(vec![]),
        Type::Seq(s) => {
            let xs = v.as_seq().ok_or(E::Stuck("value_to_regs seq"))?;
            let nf = scalar_fields(s);
            let mut regs = vec![Vec::with_capacity(xs.len()); nf];
            let mut buf = Vec::with_capacity(nf);
            for x in xs {
                buf.clear();
                scalar_to_fields(x, s, &mut buf)?;
                for (r, f) in regs.iter_mut().zip(&buf) {
                    r.push(*f);
                }
            }
            Ok(regs)
        }
        Type::Prod(a, b) => {
            let (x, y) = v.as_pair().ok_or(E::Stuck("value_to_regs pair"))?;
            let mut regs = value_to_regs(x, a)?;
            regs.extend(value_to_regs(y, b)?);
            Ok(regs)
        }
        Type::Sum(a, b) => {
            let (na, nb) = (reg_count(a), reg_count(b));
            match v.kind() {
                Kind::Inl(x) => {
                    let mut regs = vec![vec![1]];
                    regs.extend(value_to_regs(x, a)?);
                    regs.extend(vec![Vec::new(); nb]);
                    Ok(regs)
                }
                Kind::Inr(y) => {
                    let mut regs = vec![vec![0]];
                    regs.extend(vec![Vec::new(); na]);
                    regs.extend(value_to_regs(y, b)?);
                    Ok(regs)
                }
                _ => Err(E::Stuck("value_to_regs sum")),
            }
        }
        Type::Nat => Err(E::Stuck("value_to_regs: N is not flat")),
    }
}

/// Decodes register vectors back into a flat value.
pub fn regs_to_value(regs: &[Vector], t: &Type) -> Result<Value, E> {
    match t {
        Type::Unit => Ok(Value::unit()),
        Type::Seq(s) => {
            let nf = scalar_fields(s);
            if regs.len() < nf {
                return Err(E::Stuck("regs_to_value underrun"));
            }
            let n = regs[0].len();
            let mut out = Vec::with_capacity(n);
            let mut buf = Vec::with_capacity(nf);
            for i in 0..n {
                buf.clear();
                for r in &regs[..nf] {
                    buf.push(*r.get(i).ok_or(E::Stuck("ragged registers"))?);
                }
                out.push(scalar_from_fields(&buf, s)?.0);
            }
            Ok(Value::seq(out))
        }
        Type::Prod(a, b) => {
            let na = reg_count(a);
            Ok(Value::pair(
                regs_to_value(&regs[..na], a)?,
                regs_to_value(&regs[na..], b)?,
            ))
        }
        Type::Sum(a, b) => {
            let tag = regs
                .first()
                .and_then(|r| r.first())
                .copied()
                .ok_or(E::Stuck("sum tag missing"))?;
            let na = reg_count(a);
            if tag != 0 {
                Ok(Value::inl(regs_to_value(&regs[1..1 + na], a)?))
            } else {
                Ok(Value::inr(regs_to_value(&regs[1 + na..], b)?))
            }
        }
        Type::Nat => Err(E::Stuck("regs_to_value: N is not flat")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: Value, t: Type) {
        let regs = value_to_regs(&v, &t).unwrap();
        assert_eq!(regs.len(), reg_count(&t));
        assert_eq!(regs_to_value(&regs, &t).unwrap(), v, "{t}");
    }

    #[test]
    fn nat_seq_layout() {
        roundtrip(Value::nat_seq([1, 2, 3]), Type::seq(Type::Nat));
        roundtrip(Value::nat_seq([]), Type::seq(Type::Nat));
    }

    #[test]
    fn scalar_sum_layout_pads() {
        let s = Type::sum(Type::Nat, Type::prod(Type::Nat, Type::Nat));
        assert_eq!(scalar_fields(&s), 4);
        let v = Value::seq(vec![
            Value::inl(Value::nat(7)),
            Value::inr(Value::pair(Value::nat(8), Value::nat(9))),
        ]);
        roundtrip(v, Type::seq(s));
    }

    #[test]
    fn flat_product_and_sum_layout() {
        let t = Type::prod(Type::seq(Type::Nat), Type::seq(Type::bool_()));
        let v = Value::pair(
            Value::nat_seq([4]),
            Value::seq(vec![Value::bool_(true), Value::bool_(false)]),
        );
        roundtrip(v, t);

        let t = Type::sum(Type::seq(Type::Nat), Type::Unit);
        roundtrip(Value::inl(Value::nat_seq([1, 2])), t.clone());
        roundtrip(Value::inr(Value::unit()), t);
    }

    #[test]
    fn unit_occupies_no_registers() {
        assert_eq!(reg_count(&Type::Unit), 0);
        assert_eq!(reg_count(&Type::bool_()), 1);
        roundtrip(Value::bool_(true), Type::bool_());
    }
}
