//! Register sets and the fault classification of BVRAM instructions.
//!
//! The primitives every program-transformation client shares that are
//! *not* control flow (that is [`crate::cfg`]): the dense [`RegSet`]
//! bitset and the [`can_fault`] classification.

use crate::instr::Instr;

/// A dense bitset over register indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegSet {
    words: Vec<u64>,
}

impl RegSet {
    /// The empty set over a universe of `n` registers.
    pub fn new(n: usize) -> Self {
        RegSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    /// Inserts `r`; returns `true` if it was newly inserted.
    pub fn insert(&mut self, r: u32) -> bool {
        let (w, b) = (r as usize / 64, r as usize % 64);
        let old = self.words[w];
        self.words[w] |= 1 << b;
        self.words[w] != old
    }

    /// Removes `r`.
    pub fn remove(&mut self, r: u32) {
        let (w, b) = (r as usize / 64, r as usize % 64);
        self.words[w] &= !(1 << b);
    }

    /// Membership test.
    pub fn contains(&self, r: u32) -> bool {
        let (w, b) = (r as usize / 64, r as usize % 64);
        self.words.get(w).is_some_and(|x| x >> b & 1 == 1)
    }

    /// `self |= other`; returns `true` if `self` changed.
    pub fn union_with(&mut self, other: &RegSet) -> bool {
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let old = *a;
            *a |= b;
            changed |= *a != old;
        }
        changed
    }

    /// `self &= other` (set intersection); returns `true` if `self`
    /// changed.  The join of must-analyses like definite initialization
    /// (`crate::verify`).
    pub fn intersect_with(&mut self, other: &RegSet) -> bool {
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let old = *a;
            *a &= b;
            changed |= *a != old;
        }
        changed
    }

    /// `self &= !other` (set difference), word-wise.
    pub fn difference_with(&mut self, other: &RegSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Reuses this set's storage to become a copy of `other`.
    pub fn clone_from_set(&mut self, other: &RegSet) {
        self.words.copy_from_slice(&other.words);
    }

    /// Iterates over the members in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(w, bits)| {
            (0..64)
                .filter(move |b| bits >> b & 1 == 1)
                .map(move |b| (w * 64 + b) as u32)
        })
    }
}

/// Whether an instruction can fault at runtime (and therefore must never
/// be removed even when its result is dead): elementwise arithmetic can
/// overflow, divide by zero, or hit a length mismatch, and the routing
/// instructions check their monotonicity invariants.  Everything else is
/// total.
pub fn can_fault(ins: &Instr) -> bool {
    matches!(
        ins,
        Instr::Arith { .. } | Instr::BmRoute { .. } | Instr::SbmRoute { .. }
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{Instr::*, Op};

    #[test]
    fn fault_classification() {
        assert!(can_fault(&Arith {
            dst: 0,
            op: Op::Add,
            a: 0,
            b: 0
        }));
        assert!(!can_fault(&Move { dst: 0, src: 1 }));
        assert!(!can_fault(&Select { dst: 0, src: 1 }));
        assert!(can_fault(&BmRoute {
            dst: 0,
            bound: 1,
            counts: 2,
            values: 3
        }));
    }

    #[test]
    fn regset_basics() {
        let mut s = RegSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(129));
        assert!(!s.insert(129));
        assert!(s.contains(129) && !s.contains(64));
        let mut t = RegSet::new(130);
        t.insert(64);
        assert!(s.union_with(&t));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 64, 129]);
        s.remove(64);
        assert!(!s.contains(64));
    }
}
