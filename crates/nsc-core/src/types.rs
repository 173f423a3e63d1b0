//! The type system of NSC.
//!
//! Types are given by the grammar `t ::= unit | N | t × t | t + t | [t]`
//! (section 3).  The boolean type is the abbreviation `B = unit + unit`.
//! Function "types" `s → t` are *not* types: NSC is deliberately
//! first-order, so a function's domain and codomain are tracked separately
//! (see [`crate::ast::Func`]).

use crate::value::{Kind, Value};
use std::fmt;
use std::sync::Arc;

/// An NSC type.
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum Type {
    /// `unit`, with the single value `()`.
    Unit,
    /// `N`, nonnegative integers.
    Nat,
    /// Product `s × t`.
    Prod(Arc<Type>, Arc<Type>),
    /// Disjoint union `s + t`.
    Sum(Arc<Type>, Arc<Type>),
    /// Finite sequences `[t]`.
    Seq(Arc<Type>),
}

impl Type {
    /// Product type `a × b`.
    pub fn prod(a: Type, b: Type) -> Type {
        Type::Prod(Arc::new(a), Arc::new(b))
    }

    /// Sum type `a + b`.
    pub fn sum(a: Type, b: Type) -> Type {
        Type::Sum(Arc::new(a), Arc::new(b))
    }

    /// Sequence type `[t]`.
    pub fn seq(t: Type) -> Type {
        Type::Seq(Arc::new(t))
    }

    /// The paper's boolean type `B = unit + unit`.
    pub fn bool_() -> Type {
        Type::sum(Type::Unit, Type::Unit)
    }

    /// True iff this is `B = unit + unit`.
    pub fn is_bool(&self) -> bool {
        matches!(self, Type::Sum(a, b)
            if **a == Type::Unit && **b == Type::Unit)
    }

    /// Element type of a sequence type, if this is `[t]`.
    pub fn elem(&self) -> Option<&Type> {
        match self {
            Type::Seq(t) => Some(t),
            _ => None,
        }
    }

    /// Checks that a runtime value inhabits this type.
    ///
    /// Used for interpreter sanity checks and differential testing between
    /// the NSC evaluator and the compiled pipeline.
    pub fn admits(&self, v: &Value) -> bool {
        match (self, v.kind()) {
            (Type::Unit, Kind::Unit) => true,
            (Type::Nat, Kind::Nat(_)) => true,
            (Type::Prod(a, b), Kind::Pair(x, y)) => a.admits(x) && b.admits(y),
            (Type::Sum(a, _), Kind::Inl(x)) => a.admits(x),
            (Type::Sum(_, b), Kind::Inr(y)) => b.admits(y),
            (Type::Seq(t), Kind::Seq(vs)) => vs.iter().all(|x| t.admits(x)),
            _ => false,
        }
    }

    /// A canonical inhabitant of the type, used by the compiler to pad the
    /// inactive side of sum encodings.
    pub fn default_value(&self) -> Value {
        match self {
            Type::Unit => Value::unit(),
            Type::Nat => Value::nat(0),
            Type::Prod(a, b) => Value::pair(a.default_value(), b.default_value()),
            Type::Sum(a, _) => Value::inl(a.default_value()),
            Type::Seq(_) => Value::seq(vec![]),
        }
    }
}

impl fmt::Debug for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Unit => write!(f, "unit"),
            Type::Nat => write!(f, "N"),
            Type::Prod(a, b) => write!(f, "({a} x {b})"),
            Type::Sum(a, b) => {
                if self.is_bool() {
                    write!(f, "B")
                } else {
                    write!(f, "({a} + {b})")
                }
            }
            Type::Seq(t) => write!(f, "[{t}]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bool_is_unit_plus_unit() {
        assert!(Type::bool_().is_bool());
        assert!(!Type::sum(Type::Nat, Type::Unit).is_bool());
        assert_eq!(Type::bool_().to_string(), "B");
    }

    #[test]
    fn admits_checks_structure() {
        let t = Type::seq(Type::prod(Type::Nat, Type::bool_()));
        let good = Value::seq(vec![Value::pair(Value::nat(1), Value::bool_(true))]);
        let bad = Value::seq(vec![Value::nat(1)]);
        assert!(t.admits(&good));
        assert!(!t.admits(&bad));
        assert!(Type::Nat.admits(&Value::nat(0)));
        assert!(!Type::Nat.admits(&Value::unit()));
    }

    #[test]
    fn default_values_inhabit() {
        for t in [
            Type::Unit,
            Type::Nat,
            Type::bool_(),
            Type::prod(Type::Nat, Type::seq(Type::Nat)),
            Type::sum(Type::seq(Type::Unit), Type::Nat),
        ] {
            assert!(t.admits(&t.default_value()), "{t}");
        }
    }

    #[test]
    fn display_round_trip_shapes() {
        let t = Type::seq(Type::prod(Type::Nat, Type::seq(Type::Nat)));
        assert_eq!(t.to_string(), "[(N x [N])]");
    }
}
