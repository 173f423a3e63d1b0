//! Algebraic strength reduction over *fill* and *length* facts.
//!
//! Packed kernels are full of broadcast arithmetic against constant
//! vectors: the lowering of conditionals multiplies by 0/1 tag vectors,
//! adds all-zero padding, and shifts by broadcast zeros.  Each such
//! `Arith` costs `3·len`; when one operand is a known constant fill that
//! makes the operation the identity (or the constant), the instruction
//! collapses to a `2·len` `Move` — which copy propagation and DCE then
//! shrink further.
//!
//! Two fact families are inferred for single-definition registers:
//!
//! * **fill facts** — "every element of `r`'s value equals `c`".  These
//!   are sound flow-insensitively: a read before the definition sees the
//!   empty vector, which satisfies the fact vacuously.
//! * **length numbers** — hash-consed symbolic lengths (`len r`, `1`,
//!   `0`, `a + b`), valid only where the register's definition
//!   *dominates* the use (a pre-definition read has length 0 instead).
//!   Equal numbers at a use site prove equal lengths there.
//!
//! A rewrite `Arith{op, a, b} → Move` fires only when the length numbers
//! of `a` and `b` agree *and* both definitions dominate the site, so the
//! arith could not have faulted on a length mismatch; and only for
//! `(op, fill)` pairs that are total on the remaining operand (`x + 0`,
//! `x · 1`, `x · 0`, `x / 1`, `x ≫ 0`, `x ≪ 0`, monus/min/max against
//! zero), so it could not have faulted on values either.  `min`/`max` of
//! a register with itself fold unconditionally.  A `bm_route` whose
//! counts are all-ones and whose counts/values/bound lengths agree is the
//! identity routing and becomes a `Move` of its values (`2·len` vs
//! `4·len`).
//!
//! Every rewrite reproduces the exact output value and removes a
//! fault-free instruction, so per-input `T'` is unchanged and `W'` never
//! increases.

use super::dom::Defs;
use bvram::cfg::Cfg;
use bvram::{Instr, Op, Program, Reg};
use std::collections::HashMap;

/// Pass name used by translation-validation diagnostics.
pub const NAME: &str = "strength";

/// Hash-consing key for symbolic lengths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum LKey {
    /// The (stable) length of a leaf input or first-seen definition.
    Leaf(Reg),
    /// Length 1 (`Singleton`, `Length`).
    One,
    /// Length 0 (`Empty`, `Select` of an all-zero vector).
    Zero,
    /// Sum of two lengths, operands sorted (length addition commutes).
    Append(u32, u32),
}

struct Facts {
    /// `fill[r] = Some(c)`: every element of `r`'s defined value is `c`.
    fill: Vec<Option<u64>>,
    /// Length number of `r`'s defined value (valid under dominance).
    len: Vec<Option<u32>>,
    cons: HashMap<LKey, u32>,
    next: u32,
}

impl Facts {
    fn intern(&mut self, key: LKey) -> u32 {
        *self.cons.entry(key).or_insert_with(|| {
            let v = self.next;
            self.next += 1;
            v
        })
    }
}

/// Infers facts and rewrites identity arithmetic and identity routes to
/// `Move`s.  Returns `true` if anything changed.
pub fn reduce(prog: &mut Program) -> bool {
    let n = prog.instrs.len();
    if n == 0 {
        return false;
    }
    let cfg = Cfg::build(prog);
    let defs = Defs::build(prog, &cfg);

    let mut f = Facts {
        fill: vec![None; prog.n_regs],
        len: vec![None; prog.n_regs],
        cons: HashMap::new(),
        next: 0,
    };
    let one = f.intern(LKey::One);
    let zero = f.intern(LKey::Zero);
    // Entry lengths of the input registers; valid at uses their (single)
    // redefinition cannot reach.
    let leaf_len: Vec<u32> = (0..prog.r_in as u32)
        .map(|r| f.intern(LKey::Leaf(r)))
        .collect();

    // Fact pass, program order: facts only attach to single-definition
    // registers, so later rewrites can rely on them anywhere (fills) or
    // under dominance (lengths).
    for pc in 0..n {
        if !cfg.reachable(pc) {
            continue;
        }
        let ins = prog.instrs[pc].clone();
        let Some(dst) = ins.output() else { continue };
        if !defs.is_single_def(dst) || defs.pc[dst as usize] != pc {
            continue;
        }
        let d = dst as usize;
        // A length number transfers only when this read observes one
        // fixed value: the entry value of an input, or a single
        // dominating definition (otherwise the read may see length 0).
        let lv = |r: Reg, f: &Facts| -> Option<u32> {
            if defs.entry_reaches(r, pc) {
                return Some(leaf_len[r as usize]);
            }
            let v = f.len[r as usize]?;
            defs.def_dominates(r, pc).then_some(v)
        };
        match ins {
            Instr::Move { src, .. } => {
                f.fill[d] = f.fill[src as usize];
                f.len[d] = lv(src, &f);
            }
            Instr::Singleton { n, .. } => {
                f.fill[d] = Some(n);
                f.len[d] = Some(one);
            }
            Instr::Empty { .. } => {
                // Vacuous fill: `[]` is all-zeros (and all-anything).
                f.fill[d] = Some(0);
                f.len[d] = Some(zero);
            }
            Instr::Length { src, .. } => {
                f.fill[d] = (lv(src, &f) == Some(zero)).then_some(0);
                f.len[d] = Some(one);
            }
            Instr::Enumerate { src, .. } => {
                // enumerate of a singleton is `[0]`.
                let slen = lv(src, &f);
                f.fill[d] = (slen == Some(one)).then_some(0);
                f.len[d] = slen;
            }
            Instr::Arith { op, a, b, .. } => {
                // Same-operand identities are post-execution facts: if
                // the arith completed, every element is the constant
                // (`m −̇ m = 0`, `m = m`, `m ≤ m`, and for div/mod the
                // zero divisor would have faulted instead).
                f.fill[d] = if a == b {
                    match op {
                        Op::Monus | Op::Mod => Some(0),
                        Op::Eq | Op::Le | Op::Div => Some(1),
                        _ => None,
                    }
                } else {
                    match (f.fill[a as usize], f.fill[b as usize]) {
                        (Some(x), Some(y)) => op.apply(x, y),
                        _ => None,
                    }
                };
                // Post-execution the lengths of a, b, dst all agree.
                f.len[d] = lv(a, &f).or_else(|| lv(b, &f));
            }
            Instr::Append { a, b, .. } => {
                f.fill[d] = match (f.fill[a as usize], f.fill[b as usize]) {
                    (Some(x), Some(y)) if x == y => Some(x),
                    _ => None,
                };
                f.len[d] = match (lv(a, &f), lv(b, &f)) {
                    (Some(x), Some(y)) => {
                        let key = LKey::Append(x.min(y), x.max(y));
                        Some(f.intern(key))
                    }
                    _ => None,
                };
            }
            Instr::Select { src, .. } => {
                let s = f.fill[src as usize];
                f.fill[d] = s;
                f.len[d] = match s {
                    // All-zero source selects to the empty vector.
                    Some(0) => Some(zero),
                    // Nonzero fill: select is the identity.
                    Some(_) => lv(src, &f),
                    None => None,
                };
            }
            Instr::BmRoute {
                bound,
                counts: _,
                values,
                ..
            } => {
                f.fill[d] = f.fill[values as usize];
                f.len[d] = lv(bound, &f);
            }
            Instr::SbmRoute { data, .. } => {
                f.fill[d] = f.fill[data as usize];
            }
            Instr::Goto { .. } | Instr::IfEmptyGoto { .. } | Instr::Halt => {}
        }
    }

    // Rewrite pass.  Rewrites preserve values and lengths exactly, so
    // the facts stay valid as instructions change under them.
    let mut changed = false;
    for pc in 0..n {
        if !cfg.reachable(pc) {
            continue;
        }
        // Length number of `r` as observed at this pc, if fixed here.
        let lv_at = |r: Reg, f: &Facts| -> Option<u32> {
            if defs.entry_reaches(r, pc) {
                return Some(leaf_len[r as usize]);
            }
            let v = f.len[r as usize]?;
            defs.def_dominates(r, pc).then_some(v)
        };
        let same_len = |x: Reg, y: Reg, f: &Facts| -> bool {
            match (lv_at(x, f), lv_at(y, f)) {
                (Some(a), Some(b)) => a == b,
                _ => false,
            }
        };
        match prog.instrs[pc].clone() {
            Instr::Arith { dst, op, a, b } => {
                // min/max of a register with itself: identity, any length.
                if a == b && matches!(op, Op::Min | Op::Max) {
                    prog.instrs[pc] = Instr::Move { dst, src: a };
                    changed = true;
                    continue;
                }
                if !same_len(a, b, &f) {
                    continue;
                }
                let (fa, fb) = (f.fill[a as usize], f.fill[b as usize]);
                // Each row is total on the surviving operand: no
                // overflow (`x+0`, `x·1`, `x·0`, `x≪0`), no division by
                // zero (`x/1`), monus/min/max/rshift are always total.
                let src = match (op, fa, fb) {
                    (Op::Add, _, Some(0)) => Some(a),
                    (Op::Add, Some(0), _) => Some(b),
                    (Op::Monus, _, Some(0)) => Some(a),
                    (Op::Monus, Some(0), _) => Some(a), // 0 −̇ x = 0 = a
                    (Op::Mul, _, Some(1)) => Some(a),
                    (Op::Mul, Some(1), _) => Some(b),
                    (Op::Mul, _, Some(0)) => Some(b), // x · 0 = 0 = b
                    (Op::Mul, Some(0), _) => Some(a),
                    (Op::Div, _, Some(1)) => Some(a),
                    (Op::Rshift, _, Some(0)) => Some(a),
                    (Op::Lshift, _, Some(0)) => Some(a),
                    (Op::Min, _, Some(0)) => Some(b), // min(x, 0) = 0 = b
                    (Op::Min, Some(0), _) => Some(a),
                    (Op::Max, _, Some(0)) => Some(a),
                    (Op::Max, Some(0), _) => Some(b),
                    _ => None,
                };
                if let Some(src) = src {
                    prog.instrs[pc] = Instr::Move { dst, src };
                    changed = true;
                }
            }
            // All-one counts with agreeing lengths: identity routing.
            Instr::BmRoute {
                dst,
                bound,
                counts,
                values,
            } if f.fill[counts as usize] == Some(1)
                && same_len(counts, values, &f)
                && same_len(counts, bound, &f) =>
            {
                prog.instrs[pc] = Instr::Move { dst, src: values };
                changed = true;
            }
            _ => {}
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opt::tests::check_optimized;
    use bvram::{Builder, Instr::*};

    #[test]
    fn adding_a_broadcast_zero_collapses_to_a_move() {
        // The conditional-lowering idiom: broadcast a zero over the data
        // vector, add it.  The broadcast and the add both die (the add
        // here, the broadcast via DCE).
        let mut b = Builder::new(1, 1);
        b.push(Length { dst: 2, src: 0 })
            .push(Singleton { dst: 3, n: 0 })
            .push(BmRoute {
                dst: 4,
                bound: 0,
                counts: 2,
                values: 3,
            })
            .push(Arith {
                dst: 5,
                op: Op::Add,
                a: 0,
                b: 4,
            })
            .push(Move { dst: 0, src: 5 })
            .push(Halt);
        let p = b.build().unwrap();
        let mut after = p.clone();
        assert!(reduce(&mut after));
        assert_eq!(after.instrs[3], Move { dst: 5, src: 0 }, "{after}");
        check_optimized(&p, &[vec![1, 2, 3]]);
        check_optimized(&p, &[vec![]]);
        let opt = check_optimized(&p, &[vec![9, 8]]);
        assert!(
            opt.instrs.iter().all(|i| !matches!(i, Arith { .. })),
            "the identity add should vanish entirely: {opt}"
        );
    }

    #[test]
    fn identity_route_collapses_to_a_move() {
        // bm_route with all-one counts over agreeing lengths replicates
        // every element once: it is the identity.
        let mut b = Builder::new(1, 1);
        b.push(Length { dst: 2, src: 0 })
            .push(Singleton { dst: 3, n: 1 })
            .push(BmRoute {
                dst: 4,
                bound: 0,
                counts: 2,
                values: 3,
            })
            .push(BmRoute {
                dst: 5,
                bound: 0,
                counts: 4,
                values: 0,
            })
            .push(Move { dst: 0, src: 5 })
            .push(Halt);
        let p = b.build().unwrap();
        let mut after = p.clone();
        assert!(reduce(&mut after));
        assert_eq!(after.instrs[3], Move { dst: 5, src: 0 }, "{after}");
        check_optimized(&p, &[vec![4, 0, 6]]);
        check_optimized(&p, &[vec![]]);
    }

    #[test]
    fn same_register_min_max_and_monus_fold() {
        let mut b = Builder::new(1, 1);
        b.push(Arith {
            dst: 2,
            op: Op::Min,
            a: 0,
            b: 0,
        })
        .push(Arith {
            dst: 3,
            op: Op::Monus,
            a: 0,
            b: 0,
        })
        .push(Arith {
            dst: 4,
            op: Op::Add,
            a: 2,
            b: 3,
        })
        .push(Move { dst: 0, src: 4 })
        .push(Halt);
        let p = b.build().unwrap();
        let mut after = p.clone();
        assert!(reduce(&mut after));
        // min(x,x) folds outright; monus(x,x) is an all-zero fill that
        // then kills the add.
        assert_eq!(after.instrs[0], Move { dst: 2, src: 0 }, "{after}");
        assert_eq!(after.instrs[2], Move { dst: 4, src: 2 }, "{after}");
        check_optimized(&p, &[vec![3, 1, 2]]);
        check_optimized(&p, &[vec![]]);
    }

    #[test]
    fn mismatched_lengths_keep_the_fault() {
        // fill(b) = 0, but b is a singleton: the add faults on any input
        // of length ≠ 1 and must keep doing so.
        let mut b = Builder::new(1, 1);
        b.push(Singleton { dst: 2, n: 0 })
            .push(Arith {
                dst: 3,
                op: Op::Add,
                a: 0,
                b: 2,
            })
            .push(Move { dst: 0, src: 3 })
            .push(Halt);
        let p = b.build().unwrap();
        let mut after = p.clone();
        assert!(!reduce(&mut after));
        check_optimized(&p, &[vec![1, 2, 3]]); // faults identically
        check_optimized(&p, &[vec![9]]); // runs identically
    }
}
