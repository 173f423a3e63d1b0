//! Runtime environments (Appendix B).
//!
//! An environment is a finite map from variables to S-objects.  The
//! operational semantics mentions the environment in every rule, and
//! Definition 3.1 charges the size of every mentioned S-object *including
//! the environments*; the weakening rule lets a program drop unused
//! bindings first.  [`Env::restricted_size`] computes the size of the
//! environment restricted to a free-variable set — the cost an optimally
//! weakened derivation pays.
//!
//! Environments are persistent linked lists so extension is O(1) and
//! sharing between the branches of a derivation is free.

use crate::ast::{FvSet, Ident};
use crate::value::Value;
use std::rc::Rc;

#[derive(Debug)]
struct EnvNode {
    name: Ident,
    value: Value,
    rest: Env,
}

/// A persistent runtime environment.
#[derive(Clone, Debug, Default)]
pub struct Env(Option<Rc<EnvNode>>);

impl Env {
    /// The empty environment.
    pub fn empty() -> Env {
        Env(None)
    }

    /// Extends the environment with a binding (shadowing any earlier one).
    pub fn bind(&self, name: Ident, value: Value) -> Env {
        Env(Some(Rc::new(EnvNode {
            name,
            value,
            rest: self.clone(),
        })))
    }

    /// Looks up a variable (innermost binding wins).
    pub fn lookup(&self, name: &str) -> Option<&Value> {
        let mut cur = self;
        while let Some(node) = &cur.0 {
            if &*node.name == name {
                return Some(&node.value);
            }
            cur = &node.rest;
        }
        None
    }

    /// Total size of the environment restricted to the given free variables.
    ///
    /// This is the `SIZE` contribution of the environment under optimal
    /// weakening: each free variable's innermost binding is charged once.
    pub fn restricted_size(&self, fv: &FvSet) -> u64 {
        fv.iter()
            .filter_map(|x| self.lookup(x))
            .map(Value::size)
            .sum()
    }

    /// Number of bindings (including shadowed ones); used in tests.
    pub fn depth(&self) -> usize {
        let mut n = 0;
        let mut cur = self;
        while let Some(node) = &cur.0 {
            n += 1;
            cur = &node.rest;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::ident;
    use std::collections::BTreeSet;

    fn fv(names: &[&str]) -> FvSet {
        FvSet::new(names.iter().map(|n| ident(n)).collect::<BTreeSet<_>>())
    }

    #[test]
    fn bind_and_lookup() {
        let env = Env::empty()
            .bind(ident("x"), Value::nat(1))
            .bind(ident("y"), Value::nat_seq([1, 2, 3]));
        assert_eq!(env.lookup("x"), Some(&Value::nat(1)));
        assert_eq!(env.lookup("z"), None);
        assert_eq!(env.depth(), 2);
    }

    #[test]
    fn shadowing_inner_wins() {
        let env = Env::empty()
            .bind(ident("x"), Value::nat(1))
            .bind(ident("x"), Value::nat(2));
        assert_eq!(env.lookup("x"), Some(&Value::nat(2)));
    }

    #[test]
    fn restricted_size_counts_only_free_vars() {
        let env = Env::empty()
            .bind(ident("x"), Value::nat(1)) // size 1
            .bind(ident("y"), Value::nat_seq([1, 2, 3])) // size 4
            .bind(ident("z"), Value::pair(Value::nat(0), Value::nat(0))); // size 3
        assert_eq!(env.restricted_size(&fv(&["x"])), 1);
        assert_eq!(env.restricted_size(&fv(&["x", "y"])), 5);
        assert_eq!(env.restricted_size(&fv(&["missing"])), 0);
        assert_eq!(env.restricted_size(&fv(&[])), 0);
    }

    #[test]
    fn restricted_size_uses_innermost_binding() {
        let env = Env::empty()
            .bind(ident("x"), Value::nat_seq([1, 2, 3, 4, 5])) // size 6, shadowed
            .bind(ident("x"), Value::nat(1)); // size 1
        assert_eq!(env.restricted_size(&fv(&["x"])), 1);
    }
}
