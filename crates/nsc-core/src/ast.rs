//! Abstract syntax of NSC (section 3 and Appendix A).
//!
//! NSC expressions belong to two distinct syntactic categories:
//!
//! * **terms** ([`Term`]), which have a type `t`, and
//! * **functions** ([`Func`]), which have a domain `s` and codomain `t`.
//!
//! `s → t` is *not* a type, so there are no higher-order functions: a
//! [`Func`] can only appear applied to a term, under `map`, or inside
//! `while`.  This mirrors the paper's restriction exactly.
//!
//! Every node caches its free-variable set.  The evaluator charges, at each
//! rule, the size of the environment *restricted to the free variables* of
//! the node — the tightest cost the paper's weakening rule permits, since
//! weakening may drop every binding the node does not mention.
//!
//! [`FuncK::Named`] supports the paper's section-4 extension of NSC with
//! recursive definitions; pure NSC programs simply never use it, and the
//! Theorem 4.2 translation eliminates it.

use crate::types::Type;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// An interned identifier.
pub type Ident = Arc<str>;

/// A set of free variables, shared across nodes.
pub type FvSet = Arc<BTreeSet<Ident>>;

/// Binary arithmetic operations from the paper's parameter set `Σ`.
///
/// The paper leaves `Σ` open but requires `+, −̇ (monus), *, /, right-shift,
/// log2` for Theorems 4.2 and 7.1, and membership in NC for Proposition 6.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArithOp {
    /// Addition.
    Add,
    /// Monus: `m −̇ n = m − n` if `m ≥ n`, else `0`.
    Monus,
    /// Multiplication.
    Mul,
    /// Division (division by zero is an error).
    Div,
    /// Remainder (modulo zero is an error).
    Mod,
    /// Right shift `m >> n` (`0` for `n ≥ 64`).
    Rshift,
    /// Left shift `m << n`; errors when the result would not fit in 64 bits.
    Lshift,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Binary floor-log: `log2(m, _) = floor(log2 m)` for `m ≥ 1`, `0` for `m = 0`.
    ///
    /// Kept binary so every arithmetic op has the BVRAM shape `Vi ← Vj op Vk`;
    /// the second operand is ignored.
    Log2,
}

impl ArithOp {
    /// Applies the operation; `None` encodes the partial cases.
    pub fn apply(self, m: u64, n: u64) -> Option<u64> {
        match self {
            ArithOp::Add => m.checked_add(n),
            ArithOp::Monus => Some(m.saturating_sub(n)),
            ArithOp::Mul => m.checked_mul(n),
            ArithOp::Div => m.checked_div(n),
            ArithOp::Mod => m.checked_rem(n),
            ArithOp::Rshift => Some(if n >= 64 { 0 } else { m >> n }),
            // Errors iff a set bit is shifted out: `m ≠ 0` and `m·2ⁿ ≥ 2⁶⁴`.
            ArithOp::Lshift => match m {
                0 => Some(0),
                _ if n > u64::from(m.leading_zeros()) => None,
                _ => Some(m << n),
            },
            ArithOp::Min => Some(m.min(n)),
            ArithOp::Max => Some(m.max(n)),
            ArithOp::Log2 => Some(if m == 0 {
                0
            } else {
                63 - m.leading_zeros() as u64
            }),
        }
    }

    /// The operator's display symbol.
    pub fn symbol(self) -> &'static str {
        match self {
            ArithOp::Add => "+",
            ArithOp::Monus => "-.",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
            ArithOp::Mod => "%",
            ArithOp::Rshift => ">>",
            ArithOp::Lshift => "<<",
            ArithOp::Min => "min",
            ArithOp::Max => "max",
            ArithOp::Log2 => "log2",
        }
    }
}

/// Comparison operations returning `B` (equality is the paper's `M = N`;
/// `≤`/`<` are NC-safe conveniences definable from `Σ`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equality on `N`.
    Eq,
    /// Less-or-equal on `N`.
    Le,
    /// Strictly-less on `N`.
    Lt,
}

impl CmpOp {
    /// Applies the comparison.
    pub fn apply(self, m: u64, n: u64) -> bool {
        match self {
            CmpOp::Eq => m == n,
            CmpOp::Le => m <= n,
            CmpOp::Lt => m < n,
        }
    }

    /// The operator's display symbol.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Le => "<=",
            CmpOp::Lt => "<",
        }
    }
}

/// The shape of a term.
#[derive(Debug)]
pub enum TermK {
    /// A variable.
    Var(Ident),
    /// The error constant `Ω` at a type.
    Error(Type),
    /// A numeral `n : N`.
    Const(u64),
    /// `M op N` for `op ∈ Σ`.
    Arith(ArithOp, Term, Term),
    /// `M = N`, `M ≤ N`, `M < N` : `B`.
    Cmp(CmpOp, Term, Term),
    /// The empty tuple `() : unit`.
    Unit,
    /// Pairing `(M, N)`.
    Pair(Term, Term),
    /// First projection `π₁ M`.
    Proj1(Term),
    /// Second projection `π₂ M`.
    Proj2(Term),
    /// Left injection; the annotation is the type of the *right* side.
    Inl(Term, Type),
    /// Right injection; the annotation is the type of the *left* side.
    Inr(Term, Type),
    /// `case M of inl(x) ⇒ N | inr(y) ⇒ P`.
    Case(Term, Ident, Term, Ident, Term),
    /// Function application `F(M)`.
    Apply(Func, Term),
    /// The empty sequence `[] : [t]`.
    Empty(Type),
    /// The singleton sequence `[M]`.
    Singleton(Term),
    /// Append `M @ N`.
    Append(Term, Term),
    /// `flatten : [[t]] → [t]`.
    Flatten(Term),
    /// `length : [t] → N`.
    Length(Term),
    /// `get([x]) = x`; error on any other length.
    Get(Term),
    /// `zip : [s] × [t] → [s × t]` (error on length mismatch).
    Zip(Term, Term),
    /// `enumerate([x0..xn-1]) = [0..n-1]`.
    Enumerate(Term),
    /// `split(M, N)` splits `M` into segments of the lengths listed in `N`.
    Split(Term, Term),
}

#[derive(Debug)]
struct TermNode {
    kind: TermK,
    fv: FvSet,
}

/// A term of NSC, with cached free variables.
#[derive(Clone)]
pub struct Term(Arc<TermNode>);

/// The shape of a function.
#[derive(Debug)]
pub enum FuncK {
    /// Lambda abstraction `λx : s. M` (the annotation may be omitted where
    /// inferable, as the paper allows).
    Lambda(Ident, Option<Type>, Term),
    /// `map(F) : [s] → [t]`.
    Map(Func),
    /// `while(P, F) : t → t` with `P : t → B` and `F : t → t`.
    While(Func, Func),
    /// A reference to a named definition (the section-4 recursion extension).
    Named(Ident),
}

#[derive(Debug)]
struct FuncNode {
    kind: FuncK,
    fv: FvSet,
}

/// A function of NSC, with cached free variables.
#[derive(Clone)]
pub struct Func(Arc<FuncNode>);

fn empty_fv() -> FvSet {
    static EMPTY: OnceLock<FvSet> = OnceLock::new();
    Arc::clone(EMPTY.get_or_init(FvSet::default))
}

fn union(sets: &[&FvSet]) -> FvSet {
    let nonempty: Vec<&&FvSet> = sets.iter().filter(|s| !s.is_empty()).collect();
    match nonempty.len() {
        0 => empty_fv(),
        1 => Arc::clone(nonempty[0]),
        _ => {
            let mut out = BTreeSet::new();
            for s in nonempty {
                out.extend(s.iter().cloned());
            }
            Arc::new(out)
        }
    }
}

fn minus(set: &FvSet, bound: &[&Ident]) -> FvSet {
    if bound.iter().all(|x| !set.contains(*x)) {
        return Arc::clone(set);
    }
    let mut out = (**set).clone();
    for x in bound {
        out.remove(*x);
    }
    Arc::new(out)
}

impl Term {
    fn mk(kind: TermK) -> Term {
        let fv = match &kind {
            TermK::Var(x) => {
                let mut s = BTreeSet::new();
                s.insert(Arc::clone(x));
                Arc::new(s)
            }
            TermK::Error(_) | TermK::Const(_) | TermK::Unit | TermK::Empty(_) => empty_fv(),
            TermK::Arith(_, a, b)
            | TermK::Cmp(_, a, b)
            | TermK::Pair(a, b)
            | TermK::Append(a, b)
            | TermK::Zip(a, b)
            | TermK::Split(a, b) => union(&[a.fv(), b.fv()]),
            TermK::Proj1(a)
            | TermK::Proj2(a)
            | TermK::Inl(a, _)
            | TermK::Inr(a, _)
            | TermK::Singleton(a)
            | TermK::Flatten(a)
            | TermK::Length(a)
            | TermK::Get(a)
            | TermK::Enumerate(a) => Arc::clone(a.fv()),
            TermK::Case(m, x, n, y, p) => {
                let n_fv = minus(n.fv(), &[x]);
                let p_fv = minus(p.fv(), &[y]);
                union(&[m.fv(), &n_fv, &p_fv])
            }
            TermK::Apply(f, m) => union(&[f.fv(), m.fv()]),
        };
        Term(Arc::new(TermNode { kind, fv }))
    }

    /// The shape of this term.
    pub fn kind(&self) -> &TermK {
        &self.0.kind
    }

    /// The cached free-variable set.
    pub fn fv(&self) -> &FvSet {
        &self.0.fv
    }
}

impl Func {
    fn mk(kind: FuncK) -> Func {
        let fv = match &kind {
            FuncK::Lambda(x, _, body) => minus(body.fv(), &[x]),
            FuncK::Map(f) => Arc::clone(f.fv()),
            FuncK::While(p, f) => union(&[p.fv(), f.fv()]),
            FuncK::Named(_) => empty_fv(),
        };
        Func(Arc::new(FuncNode { kind, fv }))
    }

    /// The shape of this function.
    pub fn kind(&self) -> &FuncK {
        &self.0.kind
    }

    /// The cached free-variable set.
    pub fn fv(&self) -> &FvSet {
        &self.0.fv
    }
}

// ---------------------------------------------------------------------------
// Constructor API.  Programs are built with these; the examples and the
// standard library read like the paper's notation.
// ---------------------------------------------------------------------------

/// Interns an identifier.
pub fn ident(name: &str) -> Ident {
    Arc::from(name)
}

/// Variable reference.
pub fn var(name: &str) -> Term {
    Term::mk(TermK::Var(ident(name)))
}

/// The error constant `Ω : t`.
pub fn omega(t: Type) -> Term {
    Term::mk(TermK::Error(t))
}

/// Numeral `n : N`.
pub fn nat(n: u64) -> Term {
    Term::mk(TermK::Const(n))
}

/// `M op N`.
pub fn arith(op: ArithOp, a: Term, b: Term) -> Term {
    Term::mk(TermK::Arith(op, a, b))
}

/// `M + N`.
pub fn add(a: Term, b: Term) -> Term {
    arith(ArithOp::Add, a, b)
}

/// Monus `M −̇ N`.
pub fn monus(a: Term, b: Term) -> Term {
    arith(ArithOp::Monus, a, b)
}

/// `M * N`.
pub fn mul(a: Term, b: Term) -> Term {
    arith(ArithOp::Mul, a, b)
}

/// `M / N`.
pub fn div(a: Term, b: Term) -> Term {
    arith(ArithOp::Div, a, b)
}

/// `M % N`.
pub fn modulo(a: Term, b: Term) -> Term {
    arith(ArithOp::Mod, a, b)
}

/// `M >> N`.
pub fn rshift(a: Term, b: Term) -> Term {
    arith(ArithOp::Rshift, a, b)
}

/// `floor(log2(M))`.
pub fn log2(a: Term) -> Term {
    arith(ArithOp::Log2, a, nat(0))
}

/// `min(M, N)`.
pub fn min(a: Term, b: Term) -> Term {
    arith(ArithOp::Min, a, b)
}

/// `max(M, N)`.
pub fn max(a: Term, b: Term) -> Term {
    arith(ArithOp::Max, a, b)
}

/// `M = N : B`.
pub fn eq(a: Term, b: Term) -> Term {
    Term::mk(TermK::Cmp(CmpOp::Eq, a, b))
}

/// `M ≤ N : B`.
pub fn le(a: Term, b: Term) -> Term {
    Term::mk(TermK::Cmp(CmpOp::Le, a, b))
}

/// `M < N : B`.
pub fn lt(a: Term, b: Term) -> Term {
    Term::mk(TermK::Cmp(CmpOp::Lt, a, b))
}

/// The empty tuple `()`.
pub fn unit() -> Term {
    Term::mk(TermK::Unit)
}

/// Pairing `(M, N)`.
pub fn pair(a: Term, b: Term) -> Term {
    Term::mk(TermK::Pair(a, b))
}

/// First projection.
pub fn fst(a: Term) -> Term {
    Term::mk(TermK::Proj1(a))
}

/// Second projection.
pub fn snd(a: Term) -> Term {
    Term::mk(TermK::Proj2(a))
}

/// `inl(M) : ty(M) + right`.
pub fn inl(a: Term, right: Type) -> Term {
    Term::mk(TermK::Inl(a, right))
}

/// `inr(M) : left + ty(M)`.
pub fn inr(a: Term, left: Type) -> Term {
    Term::mk(TermK::Inr(a, left))
}

/// `case M of inl(x) ⇒ N | inr(y) ⇒ P`.
pub fn case(m: Term, x: &str, n: Term, y: &str, p: Term) -> Term {
    Term::mk(TermK::Case(m, ident(x), n, ident(y), p))
}

/// `true = inl(()) : B`.
pub fn tt() -> Term {
    inl(unit(), Type::Unit)
}

/// `false = inr(()) : B`.
pub fn ff() -> Term {
    inr(unit(), Type::Unit)
}

/// The derived conditional: `if c then t else e` is
/// `case c of inl(u) ⇒ t | inr(v) ⇒ e` with fresh `u, v` (section 3).
pub fn cond(c: Term, t: Term, e: Term) -> Term {
    case(c, "__if_t", t, "__if_f", e)
}

/// Function application `F(M)`.
pub fn app(f: Func, m: Term) -> Term {
    Term::mk(TermK::Apply(f, m))
}

/// `let x = M in N`, desugared as `(λx. N)(M)` (the paper's block structure).
pub fn let_in(x: &str, m: Term, n: Term) -> Term {
    app(lam(x, n), m)
}

/// The empty sequence `[] : [t]`.
pub fn empty(elem_ty: Type) -> Term {
    Term::mk(TermK::Empty(elem_ty))
}

/// The singleton `[M]`.
pub fn singleton(m: Term) -> Term {
    Term::mk(TermK::Singleton(m))
}

/// Append `M @ N`.
pub fn append(a: Term, b: Term) -> Term {
    Term::mk(TermK::Append(a, b))
}

/// `flatten(M)`.
pub fn flatten(m: Term) -> Term {
    Term::mk(TermK::Flatten(m))
}

/// `length(M)`.
pub fn length(m: Term) -> Term {
    Term::mk(TermK::Length(m))
}

/// `get(M)`.
pub fn get(m: Term) -> Term {
    Term::mk(TermK::Get(m))
}

/// `zip(M, N)`.
pub fn zip(a: Term, b: Term) -> Term {
    Term::mk(TermK::Zip(a, b))
}

/// `enumerate(M)`.
pub fn enumerate(m: Term) -> Term {
    Term::mk(TermK::Enumerate(m))
}

/// `split(M, N)`.
pub fn split(m: Term, n: Term) -> Term {
    Term::mk(TermK::Split(m, n))
}

/// Annotated lambda `λx : s. M`.
pub fn lam_t(x: &str, ty: Type, body: Term) -> Func {
    Func::mk(FuncK::Lambda(ident(x), Some(ty), body))
}

/// Unannotated lambda `λx. M` (domain inferred from the use site).
pub fn lam(x: &str, body: Term) -> Func {
    Func::mk(FuncK::Lambda(ident(x), None, body))
}

/// `map(F)`.
pub fn map(f: Func) -> Func {
    Func::mk(FuncK::Map(f))
}

/// `while(P, F)`.
pub fn while_(p: Func, f: Func) -> Func {
    Func::mk(FuncK::While(p, f))
}

/// A named function from the recursion extension's definition table.
pub fn named(name: &str) -> Func {
    Func::mk(FuncK::Named(ident(name)))
}

// ---------------------------------------------------------------------------
// Structural equality.  Two terms are equal iff their syntax trees are
// identical (same binder names, same annotations) — this is the relation the
// round-trip law `parse(pretty(f)) == f` is stated in.  Pointer-equal nodes
// short-circuit, so comparing a term against a rebuilt copy of itself stays
// linear in the tree size despite shared `Arc` subtrees.
// ---------------------------------------------------------------------------

impl PartialEq for Term {
    fn eq(&self, other: &Term) -> bool {
        if Arc::ptr_eq(&self.0, &other.0) {
            return true;
        }
        match (self.kind(), other.kind()) {
            (TermK::Var(a), TermK::Var(b)) => a == b,
            (TermK::Error(a), TermK::Error(b)) => a == b,
            (TermK::Const(a), TermK::Const(b)) => a == b,
            (TermK::Arith(o1, a1, b1), TermK::Arith(o2, a2, b2)) => {
                o1 == o2 && a1 == a2 && b1 == b2
            }
            (TermK::Cmp(o1, a1, b1), TermK::Cmp(o2, a2, b2)) => o1 == o2 && a1 == a2 && b1 == b2,
            (TermK::Unit, TermK::Unit) => true,
            (TermK::Pair(a1, b1), TermK::Pair(a2, b2)) => a1 == a2 && b1 == b2,
            (TermK::Proj1(a), TermK::Proj1(b)) => a == b,
            (TermK::Proj2(a), TermK::Proj2(b)) => a == b,
            (TermK::Inl(a, s), TermK::Inl(b, t)) => s == t && a == b,
            (TermK::Inr(a, s), TermK::Inr(b, t)) => s == t && a == b,
            (TermK::Case(m1, x1, n1, y1, p1), TermK::Case(m2, x2, n2, y2, p2)) => {
                x1 == x2 && y1 == y2 && m1 == m2 && n1 == n2 && p1 == p2
            }
            (TermK::Apply(f1, m1), TermK::Apply(f2, m2)) => f1 == f2 && m1 == m2,
            (TermK::Empty(a), TermK::Empty(b)) => a == b,
            (TermK::Singleton(a), TermK::Singleton(b)) => a == b,
            (TermK::Append(a1, b1), TermK::Append(a2, b2)) => a1 == a2 && b1 == b2,
            (TermK::Flatten(a), TermK::Flatten(b)) => a == b,
            (TermK::Length(a), TermK::Length(b)) => a == b,
            (TermK::Get(a), TermK::Get(b)) => a == b,
            (TermK::Zip(a1, b1), TermK::Zip(a2, b2)) => a1 == a2 && b1 == b2,
            (TermK::Enumerate(a), TermK::Enumerate(b)) => a == b,
            (TermK::Split(a1, b1), TermK::Split(a2, b2)) => a1 == a2 && b1 == b2,
            _ => false,
        }
    }
}

impl Eq for Term {}

impl PartialEq for Func {
    fn eq(&self, other: &Func) -> bool {
        if Arc::ptr_eq(&self.0, &other.0) {
            return true;
        }
        match (self.kind(), other.kind()) {
            (FuncK::Lambda(x1, t1, b1), FuncK::Lambda(x2, t2, b2)) => {
                x1 == x2 && t1 == t2 && b1 == b2
            }
            (FuncK::Map(a), FuncK::Map(b)) => a == b,
            (FuncK::While(p1, f1), FuncK::While(p2, f2)) => p1 == p2 && f1 == f2,
            (FuncK::Named(a), FuncK::Named(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Func {}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::pretty::fmt_term(self, f)
    }
}

impl fmt::Debug for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::pretty::fmt_term(self, f)
    }
}

impl fmt::Display for Func {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::pretty::fmt_func(self, f)
    }
}

impl fmt::Debug for Func {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::pretty::fmt_func(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_variables_of_terms() {
        let t = add(var("x"), var("y"));
        let fv: Vec<&str> = t.fv().iter().map(|i| &**i).collect();
        assert_eq!(fv, ["x", "y"]);
    }

    #[test]
    fn lambda_binds() {
        let f = lam("x", add(var("x"), var("y")));
        let fv: Vec<&str> = f.fv().iter().map(|i| &**i).collect();
        assert_eq!(fv, ["y"]);
    }

    #[test]
    fn case_binds_each_branch() {
        let t = case(var("c"), "a", var("a"), "b", add(var("b"), var("z")));
        let fv: Vec<&str> = t.fv().iter().map(|i| &**i).collect();
        assert_eq!(fv, ["c", "z"]);
    }

    #[test]
    fn let_in_desugars_to_application() {
        let t = let_in("x", nat(1), add(var("x"), var("x")));
        assert!(matches!(t.kind(), TermK::Apply(_, _)));
        assert!(t.fv().is_empty());
    }

    #[test]
    fn arith_op_semantics() {
        assert_eq!(ArithOp::Monus.apply(3, 5), Some(0));
        assert_eq!(ArithOp::Monus.apply(5, 3), Some(2));
        assert_eq!(ArithOp::Div.apply(7, 0), None);
        assert_eq!(ArithOp::Log2.apply(1, 0), Some(0));
        assert_eq!(ArithOp::Log2.apply(8, 0), Some(3));
        assert_eq!(ArithOp::Log2.apply(9, 0), Some(3));
        assert_eq!(ArithOp::Log2.apply(0, 0), Some(0));
        assert_eq!(ArithOp::Rshift.apply(13, 1), Some(6));
        assert_eq!(ArithOp::Rshift.apply(13, 200), Some(0));
    }

    #[test]
    fn shifts_at_the_64_bit_edge() {
        const MAX: u64 = u64::MAX;
        assert_eq!(ArithOp::Rshift.apply(MAX, 63), Some(1));
        assert_eq!(ArithOp::Rshift.apply(MAX, 64), Some(0));
        assert_eq!(ArithOp::Rshift.apply(MAX, 1 << 32), Some(0));
        assert_eq!(ArithOp::Lshift.apply(1, 63), Some(1 << 63));
        assert_eq!(ArithOp::Lshift.apply(3, 62), Some(3 << 62));
        assert_eq!(ArithOp::Lshift.apply(3, 63), None);
        assert_eq!(ArithOp::Lshift.apply(1, 64), None);
        assert_eq!(ArithOp::Lshift.apply(5, 1 << 32), None);
        assert_eq!(ArithOp::Lshift.apply(MAX, 1), None);
        assert_eq!(ArithOp::Lshift.apply(0, 64), Some(0));
        assert_eq!(ArithOp::Lshift.apply(0, MAX), Some(0));
    }

    #[test]
    fn cmp_op_semantics() {
        assert!(CmpOp::Eq.apply(4, 4));
        assert!(CmpOp::Le.apply(4, 4));
        assert!(!CmpOp::Lt.apply(4, 4));
        assert!(CmpOp::Lt.apply(3, 4));
    }

    #[test]
    fn structural_equality_is_syntactic() {
        let a = lam("x", add(var("x"), nat(1)));
        let b = lam("x", add(var("x"), nat(1)));
        assert_eq!(a, b);
        // Alpha-variants are NOT equal: equality is on the syntax tree.
        let c = lam("y", add(var("y"), nat(1)));
        assert_ne!(a, c);
        // Annotations participate.
        assert_ne!(
            inl(unit(), crate::types::Type::Unit),
            inl(unit(), crate::types::Type::Nat)
        );
        assert_ne!(
            lam("x", var("x")),
            lam_t("x", crate::types::Type::Nat, var("x"))
        );
    }

    #[test]
    fn shared_fv_sets_are_reused() {
        // Singleton wrapping should share the child's set, not rebuild it.
        let x = var("x");
        let s = singleton(x.clone());
        assert!(Arc::ptr_eq(x.fv(), s.fv()));
    }
}
