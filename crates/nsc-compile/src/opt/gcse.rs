//! Global (cross-block) common-subexpression elimination over invariant
//! registers — the segment-descriptor hoisting pass.
//!
//! The Map Lemma lowering recomputes the same segment-descriptor plumbing
//! (`Length`/`Enumerate`/`Singleton` of the lane layout, broadcasts of
//! batch-invariant scalars via `bm_route`) in every one of the thousands
//! of straight-line blocks a packed kernel compiles to, so the per-block
//! value numbering of [`super::local`] never sees the redundancy.  This
//! pass numbers values *globally*, restricted to a fragment where
//! flow-insensitive reasoning is sound:
//!
//! * only **single-definition** registers are numbered (plus untouched
//!   input registers, which are leaves fixed at machine entry);
//! * an operand only feeds a value number if its unique definition
//!   **dominates** the consumer, so the consumer can never observe the
//!   operand's initial empty value.
//!
//! By induction over the numbering, two instructions with the same key
//! compute the identical value on every execution that reaches them.  A
//! duplicate whose representative's definition dominates it is then
//! rewritten exactly as in the local pass:
//!
//! * fallible duplicates (`Arith`, `bm_route`) become a `Move` from the
//!   representative — the identical dominating computation already
//!   executed, so the duplicate could not have faulted, and `Move` is
//!   never costlier (`2·len` vs `3·len` / `≥ 2·len`);
//! * infallible duplicates stay in place, and their *uses* are rewritten
//!   to the representative — but only at use sites dominated by the
//!   duplicate's own definition, which preserves reads of the
//!   pre-definition empty value in arbitrary programs.  DCE then collects
//!   the dup if it went dead.
//! * `sbm_route` duplicates share a value number but are never rewritten
//!   (a `Move` of a cartesian-sized output can exceed the route's cost).
//!
//! Every rewrite preserves values, lengths, and fault behavior exactly,
//! so per-input `T'`/`W'` never increase.

use super::dom::Defs;
use bvram::cfg::Cfg;
use bvram::{Instr, Op, Program, Reg};
use std::collections::HashMap;

/// Pass name used by translation-validation diagnostics.
pub const NAME: &str = "gcse";

/// Global value-number key: opcode + operand value numbers + immediates.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Key {
    Arith(Op, u32, u32),
    Append(u32, u32),
    Length(u32),
    Enumerate(u32),
    Select(u32),
    Empty,
    Singleton(u64),
    BmRoute(u32, u32, u32),
    SbmRoute(u32, u32, u32, u32),
}

/// `m op n = n op m` for values *and* faults, so operand numbers can be
/// sorted into a canonical order.
fn commutative(op: Op) -> bool {
    matches!(op, Op::Add | Op::Mul | Op::Min | Op::Max | Op::Eq)
}

/// Runs global value numbering and rewrites dominated duplicates.
/// Returns `true` if anything changed.
pub fn eliminate(prog: &mut Program) -> bool {
    let n = prog.instrs.len();
    if n == 0 {
        return false;
    }
    let cfg = Cfg::build(prog);
    let defs = Defs::build(prog, &cfg);

    // vn[r] = value number of the (run-invariant) value `r`'s unique
    // instruction definition computes; `None` when unknown/varying.
    // Entry values of input registers get their own leaf numbers, valid
    // at uses no redefinition can reach.
    let mut vn: Vec<Option<u32>> = vec![None; prog.n_regs];
    let leaf_vn: Vec<u32> = (0..prog.r_in as u32).collect();
    let mut next_vn: u32 = prog.r_in as u32;
    // First occurrence of each key: (value number, defining pc, register).
    let mut avail: HashMap<Key, (u32, usize, Reg)> = HashMap::new();
    // Infallible duplicate -> (representative, dup's defining pc).
    let mut replace: HashMap<Reg, (Reg, usize)> = HashMap::new();
    let mut changed = false;

    for pc in 0..n {
        if !cfg.reachable(pc) {
            continue;
        }
        let ins = prog.instrs[pc].clone();
        let Some(dst) = ins.output() else { continue };
        if !defs.is_single_def(dst) || defs.pc[dst as usize] != pc {
            continue;
        }
        // An operand's number only counts if every execution of this
        // instruction reads one fixed value: the entry value of an input
        // (at pcs its redefinition can't reach), or a single dominating
        // definition's (hence invariant) value.
        let operand = |r: Reg, vn: &[Option<u32>]| -> Option<u32> {
            if defs.entry_reaches(r, pc) {
                return Some(leaf_vn[r as usize]);
            }
            let v = vn[r as usize]?;
            defs.def_dominates(r, pc).then_some(v)
        };
        if let Instr::Move { src, .. } = &ins {
            vn[dst as usize] = operand(*src, &vn);
            continue;
        }
        let key = match &ins {
            Instr::Arith { op, a, b, .. } => {
                let (mut x, mut y) = (operand(*a, &vn), operand(*b, &vn));
                if commutative(*op) && x > y {
                    std::mem::swap(&mut x, &mut y);
                }
                match (x, y) {
                    (Some(x), Some(y)) => Some(Key::Arith(*op, x, y)),
                    _ => None,
                }
            }
            Instr::Append { a, b, .. } => match (operand(*a, &vn), operand(*b, &vn)) {
                (Some(x), Some(y)) => Some(Key::Append(x, y)),
                _ => None,
            },
            Instr::Length { src, .. } => operand(*src, &vn).map(Key::Length),
            Instr::Enumerate { src, .. } => operand(*src, &vn).map(Key::Enumerate),
            Instr::Select { src, .. } => operand(*src, &vn).map(Key::Select),
            Instr::Empty { .. } => Some(Key::Empty),
            Instr::Singleton { n, .. } => Some(Key::Singleton(*n)),
            Instr::BmRoute {
                bound,
                counts,
                values,
                ..
            } => match (
                operand(*bound, &vn),
                operand(*counts, &vn),
                operand(*values, &vn),
            ) {
                (Some(x), Some(y), Some(z)) => Some(Key::BmRoute(x, y, z)),
                _ => None,
            },
            Instr::SbmRoute {
                bound,
                counts,
                data,
                segs,
                ..
            } => match (
                operand(*bound, &vn),
                operand(*counts, &vn),
                operand(*data, &vn),
                operand(*segs, &vn),
            ) {
                (Some(x), Some(y), Some(z), Some(w)) => Some(Key::SbmRoute(x, y, z, w)),
                _ => None,
            },
            Instr::Move { .. } | Instr::Goto { .. } | Instr::IfEmptyGoto { .. } | Instr::Halt => {
                None
            }
        };
        let Some(key) = key else { continue };
        match avail.get(&key).copied() {
            Some((v, rep_pc, rep)) => {
                // Same key ⇒ same value wherever executed; the rewrite
                // additionally needs the representative's definition to
                // dominate the duplicate's.
                vn[dst as usize] = Some(v);
                if cfg.pc_dominates(rep_pc, pc) {
                    match ins {
                        Instr::Arith { .. } | Instr::BmRoute { .. } => {
                            prog.instrs[pc] = Instr::Move { dst, src: rep };
                            changed = true;
                        }
                        Instr::SbmRoute { .. } => {}
                        _ => {
                            replace.insert(dst, (rep, pc));
                        }
                    }
                }
            }
            None => {
                vn[dst as usize] = Some(next_vn);
                avail.insert(key, (next_vn, pc, dst));
                next_vn += 1;
            }
        }
    }

    // Rewrite uses of infallible duplicates to their representatives, at
    // use sites the duplicate's definition dominates.
    if !replace.is_empty() {
        for pc in 0..n {
            if !cfg.reachable(pc) {
                continue;
            }
            let ins = &mut prog.instrs[pc];
            let out = ins.output();
            ins.rename_regs(|r| {
                if Some(r) == out {
                    return r;
                }
                match replace.get(&r) {
                    Some(&(rep, def_pc)) if cfg.pc_dominates(def_pc, pc) => {
                        changed = true;
                        rep
                    }
                    _ => r,
                }
            });
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
    fn dominated_cross_block_duplicates_merge() {
        // The duplicate Length/Arith pair sits in a separate block the
        // first pair dominates: the per-block pass can't see it, gcse
        // rewrites the arith to a Move and redirects the Length's uses.
        let mut b = Builder::new(1, 1);
        b.push(Length { dst: 2, src: 0 })
            .push(Arith {
                dst: 3,
                op: Op::Add,
                a: 2,
                b: 2,
            })
            .goto("next")
            .label("next")
            .push(Length { dst: 4, src: 0 })
            .push(Arith {
                dst: 5,
                op: Op::Add,
                a: 4,
                b: 4,
            })
            .push(Move { dst: 0, src: 5 })
            .push(Halt);
        let p = b.build().unwrap();
        let mut after = p.clone();
        assert!(eliminate(&mut after));
        assert_eq!(after.instrs[4], Move { dst: 5, src: 3 }, "{after}");
        let opt = check_optimized(&p, &[vec![1, 2, 3]]);
        assert_eq!(
            opt.instrs
                .iter()
                .filter(|i| matches!(i, Length { .. }))
                .count(),
            1,
            "{opt}"
        );
        assert_eq!(
            opt.instrs
                .iter()
                .filter(|i| matches!(i, Arith { .. }))
                .count(),
            1,
            "{opt}"
        );
    }

    #[test]
    fn undominated_duplicates_are_left_alone() {
        // The first Length only executes on the nonempty path; merging
        // the join-point duplicate into it would read an uninitialized
        // register on the empty path.
        let mut b = Builder::new(1, 1);
        b.if_empty_goto(0, "skip")
            .push(Length { dst: 2, src: 0 })
            .label("skip")
            .push(Length { dst: 3, src: 0 })
            .push(Move { dst: 0, src: 3 })
            .push(Halt);
        let p = b.build().unwrap();
        let mut after = p.clone();
        eliminate(&mut after);
        assert_eq!(after.instrs, p.instrs, "{after}");
        check_optimized(&p, &[vec![]]);
        check_optimized(&p, &[vec![4, 5]]);
    }

    #[test]
    fn loop_invariant_duplicate_becomes_a_move() {
        // The arith recomputed every iteration duplicates the one before
        // the loop; its definition dominates the loop body, so each trip
        // pays 2·len for a Move instead of 3·len.
        let mut b = Builder::new(1, 1);
        b.push(Singleton { dst: 2, n: 7 })
            .push(Arith {
                dst: 3,
                op: Op::Add,
                a: 2,
                b: 2,
            })
            .label("loop")
            .if_empty_goto(0, "done")
            .push(Arith {
                dst: 4,
                op: Op::Add,
                a: 2,
                b: 2,
            })
            .push(Enumerate { dst: 5, src: 0 })
            .push(Select { dst: 0, src: 5 })
            .goto("loop")
            .label("done")
            .push(Move { dst: 0, src: 4 })
            .push(Halt);
        let p = b.build().unwrap();
        let mut after = p.clone();
        assert!(eliminate(&mut after));
        assert_eq!(after.instrs[3], Move { dst: 4, src: 3 }, "{after}");
        check_optimized(&p, &[vec![]]);
        check_optimized(&p, &[vec![5, 6, 7]]);
    }
}
