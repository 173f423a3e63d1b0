//! Value numbering: one dominance-scoped walk that does copy
//! propagation, common-subexpression elimination and algebraic strength
//! reduction.
//!
//! The walk visits the reachable blocks once, in reverse postorder, and
//! gives every register read a *value number*:
//!
//! * a **single-definition** register whose definition dominates the read
//!   gets the one *global* number of that definition, and an input the
//!   read can only see at its entry value gets its entry number — the
//!   code generator allocates one fresh register per temporary, so this
//!   covers almost every read.  A global number is run-invariant: it is
//!   built from entry values and constants through global operands only,
//!   so two computations with the same key yield the same value wherever
//!   they execute.  This is what hoists the segment descriptors and
//!   broadcasts the Map Lemma recomputes in every block of a kernel;
//! * every other register gets a *per-block version*, valid from its
//!   first read or definition in the block until it is redefined;
//! * a `Move` gives its destination its source's number.
//!
//! Each number carries two facts: a **constant fill** ("every element is
//! `c`", vacuously true of the empty vector, so a single-definition
//! register keeps its fill even at reads its definition does not
//! dominate) and a hash-consed **symbolic length** (`1`, `0`, `a + b`, or
//! the length of some number), exact at every read that gets the number.
//!
//! The rewrites, each value-preserving, fault-preserving and never
//! costlier:
//!
//! * a read is redirected to the first (or latest) register that holds
//!   the same number at that pc — reading an equal value costs the same;
//!   a `Move` made a self-move this way is deleted;
//! * a duplicate of a **fallible** computation (`Arith`, `bm_route`) whose
//!   number some register already holds becomes a `Move` from it: that
//!   register got the value from the identical computation on every path
//!   here, so the duplicate cannot fault, and a `Move` (`2·len`) is never
//!   costlier than `3·len` / `≥ 2·len`.  Infallible duplicates stay in
//!   place; their reads are redirected and DCE collects them.  `sbm_route`
//!   is never replaced (a `Move` of a cartesian-sized output can exceed
//!   the route's cost);
//! * identity arithmetic becomes a `Move` when the operand lengths are
//!   provably equal (so the arith could not fault on lengths) and the
//!   `(op, fill)` pair is total on the remaining operand (`x + 0`, `x · 1`,
//!   `x · 0`, `x / 1`, `x ≫ 0`, `x ≪ 0`, monus/min/max against zero);
//!   `min`/`max` of a value with itself fold at any length;
//! * a `bm_route` whose counts are all ones and whose counts, values and
//!   bound lengths agree is the identity routing: a `Move` of its values
//!   (`2·len` vs `4·len`).

use super::remove_marked;
use bvram::cfg::Cfg;
use bvram::{Instr, Op, Program, Reg};
use std::collections::hash_map::{Entry, HashMap};

/// Pass name used by translation-validation diagnostics.
pub const NAME: &str = "vn";

const NONE: u32 = u32::MAX;
/// [`Numbering::def`] of a register with several reachable definitions.
const MANY: u32 = u32::MAX - 1;

/// A value-number key: opcode + operand numbers + immediates.
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

/// A symbolic length; equal lengths at one pc are equal values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum Len {
    /// The length of value number `v` (nothing better known).
    Of(u32),
    One,
    Zero,
    /// A hash-consed sum of two lengths ([`sum`]).
    Sum(u32),
}

/// The length `a + b`, hash-consed (length addition commutes).
fn sum(sums: &mut HashMap<(Len, Len), u32>, a: Len, b: Len) -> Len {
    let next = sums.len() as u32;
    Len::Sum(*sums.entry((a.min(b), a.max(b))).or_insert(next))
}

/// What is known about one value number.
#[derive(Debug, Clone, Copy)]
struct Val {
    /// Run-invariant (see the module docs).
    global: bool,
    /// Every element equals this constant.
    fill: Option<u64>,
    len: Len,
    /// The first register given this number, and the latest one that
    /// held it where the first did not: the candidates a read of the
    /// number is redirected to.
    first: Reg,
    leader: Reg,
}

/// `m op n = n op m` for values *and* faults, so operand numbers can be
/// sorted into a canonical order.
fn commutative(op: Op) -> bool {
    matches!(op, Op::Add | Op::Mul | Op::Min | Op::Max | Op::Eq)
}

/// Rewrites the registers `ins` reads, in [`Instr::inputs`] order.
fn map_inputs(ins: &mut Instr, mut f: impl FnMut(Reg) -> Reg) {
    match ins {
        Instr::Move { src, .. }
        | Instr::Length { src, .. }
        | Instr::Enumerate { src, .. }
        | Instr::Select { src, .. } => *src = f(*src),
        Instr::Arith { a, b, .. } | Instr::Append { a, b, .. } => {
            *a = f(*a);
            *b = f(*b);
        }
        Instr::BmRoute {
            bound,
            counts,
            values,
            ..
        } => {
            *bound = f(*bound);
            *counts = f(*counts);
            *values = f(*values);
        }
        Instr::SbmRoute {
            bound,
            counts,
            data,
            segs,
            ..
        } => {
            *bound = f(*bound);
            *counts = f(*counts);
            *data = f(*data);
            *segs = f(*segs);
        }
        Instr::IfEmptyGoto { reg, .. } => *reg = f(*reg),
        Instr::Empty { .. } | Instr::Singleton { .. } | Instr::Goto { .. } | Instr::Halt => {}
    }
}

/// The key of a value-computing instruction over its operand numbers
/// (`v`, in [`Instr::inputs`] order).
fn key_of(ins: &Instr, v: &[u32]) -> Option<Key> {
    Some(match *ins {
        Instr::Arith { op, .. } if commutative(op) && v[0] > v[1] => Key::Arith(op, v[1], v[0]),
        Instr::Arith { op, .. } => Key::Arith(op, v[0], v[1]),
        Instr::Append { .. } => Key::Append(v[0], v[1]),
        Instr::Length { .. } => Key::Length(v[0]),
        Instr::Enumerate { .. } => Key::Enumerate(v[0]),
        Instr::Select { .. } => Key::Select(v[0]),
        Instr::Empty { .. } => Key::Empty,
        Instr::Singleton { n, .. } => Key::Singleton(n),
        Instr::BmRoute { .. } => Key::BmRoute(v[0], v[1], v[2]),
        Instr::SbmRoute { .. } => Key::SbmRoute(v[0], v[1], v[2], v[3]),
        Instr::Move { .. } | Instr::Goto { .. } | Instr::IfEmptyGoto { .. } | Instr::Halt => {
            return None
        }
    })
}

/// The value-numbering state of one walk.
struct Numbering<'a> {
    cfg: &'a Cfg,
    r_in: usize,
    /// The defining pc of a register with one reachable definition,
    /// [`MANY`] with several, [`NONE`] with none.
    def: Vec<u32>,
    /// For an input with exactly one definition: the blocks enterable
    /// after it executes, where the entry value may already be gone.
    post_def: Vec<Option<Box<[bool]>>>,
    vals: Vec<Val>,
    /// `(number, block stamp)`: what the register holds in the block
    /// being walked, valid while the stamp is current.
    cur: Vec<(u32, u32)>,
    stamp: u32,
    /// The number a single-definition register's definition leaves
    /// (`NONE` until the walk reaches it).
    def_vn: Vec<u32>,
    sums: HashMap<(Len, Len), u32>,
}

impl<'a> Numbering<'a> {
    fn new(prog: &Program, cfg: &'a Cfg) -> Numbering<'a> {
        let mut def = vec![NONE; prog.n_regs];
        for (pc, ins) in prog.instrs.iter().enumerate() {
            if let (true, Some(d)) = (cfg.reachable(pc), ins.output()) {
                let d = &mut def[d as usize];
                *d = if *d == NONE { pc as u32 } else { MANY };
            }
        }
        let post_def = (0..prog.r_in)
            .map(|r| {
                (def[r] < MANY).then(|| {
                    let mut seen = vec![false; cfg.n_blocks()].into_boxed_slice();
                    let mut stack = cfg.succs(cfg.block_of(def[r] as usize)).to_vec();
                    while let Some(b) = stack.pop() {
                        if !std::mem::replace(&mut seen[b as usize], true) {
                            stack.extend(cfg.succs(b as usize));
                        }
                    }
                    seen
                })
            })
            .collect();
        let mut n = Numbering {
            cfg,
            r_in: prog.r_in,
            def,
            post_def,
            vals: Vec::new(),
            cur: vec![(NONE, 0); prog.n_regs],
            stamp: 0,
            def_vn: vec![NONE; prog.n_regs],
            sums: HashMap::new(),
        };
        // Entry numbers of the inputs are the first `r_in` numbers.
        for r in 0..prog.r_in as Reg {
            n.fresh(r, true, None, None);
        }
        n
    }

    /// A new number first held by `r`.
    fn fresh(&mut self, r: Reg, global: bool, fill: Option<u64>, len: Option<Len>) -> u32 {
        let v = self.vals.len() as u32;
        self.vals.push(Val {
            global,
            fill,
            len: len.unwrap_or(Len::Of(v)),
            first: r,
            leader: r,
        });
        v
    }

    /// Whether a read of input `r` at `pc` always observes its entry
    /// value: `r` is never rewritten, or rewritten by a single
    /// instruction no path carries to `pc`.
    fn entry_reaches(&self, r: usize, pc: usize) -> bool {
        match (self.def[r], &self.post_def[r]) {
            (NONE, _) => true,
            (d, Some(post)) => {
                let (bd, bu) = (self.cfg.block_of(d as usize), self.cfg.block_of(pc));
                !(post[bu] || (bd == bu && pc > d as usize))
            }
            _ => false,
        }
    }

    /// The defining pc of a single-definition register.
    fn single_def(&self, r: usize) -> Option<usize> {
        (self.def[r] < MANY).then_some(self.def[r] as usize)
    }

    /// The number `r` holds at `pc`, if known without a new version.
    fn peek(&self, r: Reg, pc: usize) -> Option<u32> {
        let i = r as usize;
        let (v, stamp) = self.cur[i];
        if stamp == self.stamp {
            Some(v)
        } else if self
            .single_def(i)
            .is_some_and(|d| self.cfg.pc_dominates(d, pc))
        {
            let v = self.def_vn[i];
            self.vals[v as usize].global.then_some(v)
        } else {
            (i < self.r_in && self.entry_reaches(i, pc)).then_some(i as u32)
        }
    }

    /// A register holding number `v` at `pc`, preferring its first.
    fn holder(&self, v: u32, pc: usize) -> Option<Reg> {
        let Val { first, leader, .. } = self.vals[v as usize];
        [first, leader]
            .into_iter()
            .find(|&r| self.peek(r, pc) == Some(v))
    }

    /// Numbers the read of `r` at `pc` and returns the register to read
    /// instead (a holder of the same number) with the number.
    fn read(&mut self, r: Reg, pc: usize) -> (Reg, u32) {
        let v = match self.peek(r, pc) {
            Some(v) => v,
            None => {
                // A new per-block version; a single-definition register
                // keeps its definition's fill (a read its definition does
                // not dominate sees that value or the empty vector).
                let i = r as usize;
                let def = self.def_vn[i];
                let fill = (i >= self.r_in && def != NONE)
                    .then(|| self.vals[def as usize].fill)
                    .flatten();
                let v = self.fresh(r, false, fill, None);
                self.cur[r as usize] = (v, self.stamp);
                v
            }
        };
        match self.holder(v, pc) {
            Some(h) => (h, v),
            None => {
                self.vals[v as usize].leader = r;
                (r, v)
            }
        }
    }

    /// Records that the instruction at `pc` leaves number `v` in `dst`.
    fn define(&mut self, dst: Reg, v: u32, pc: usize) {
        let d = dst as usize;
        self.cur[d] = (v, self.stamp);
        if self.single_def(d) == Some(pc) {
            self.def_vn[d] = v;
        }
        if self.holder(v, pc).is_none() {
            self.vals[v as usize].leader = dst;
        }
    }

    /// Whether numbers `v` are all run-invariant.
    fn all_global(&self, v: &[u32]) -> bool {
        v.iter().all(|&x| self.vals[x as usize].global)
    }

    /// A new number for a computation missing from the table, with the
    /// fill and length facts its operands (`v`) imply.
    fn compute(&mut self, ins: &Instr, v: &[u32], global: bool) -> u32 {
        let arg = |i: usize| self.vals[v[i] as usize];
        let (fill, len) = match *ins {
            Instr::Singleton { n, .. } => (Some(n), Some(Len::One)),
            // Vacuous fill: `[]` is all-zeros (and all-anything).
            Instr::Empty { .. } => (Some(0), Some(Len::Zero)),
            Instr::Length { .. } => ((arg(0).len == Len::Zero).then_some(0), Some(Len::One)),
            // enumerate of a singleton is `[0]`.
            Instr::Enumerate { .. } => ((arg(0).len == Len::One).then_some(0), Some(arg(0).len)),
            Instr::Arith { op, .. } => {
                // Same-operand identities hold once the arith completed
                // (`m −̇ m = 0`, `m = m`, `m ≤ m`; for div/mod a zero
                // divisor would have faulted instead).
                let fill = if v[0] == v[1] {
                    match op {
                        Op::Monus | Op::Mod => Some(0),
                        Op::Eq | Op::Le | Op::Div => Some(1),
                        _ => None,
                    }
                } else {
                    match (arg(0).fill, arg(1).fill) {
                        (Some(x), Some(y)) => op.apply(x, y),
                        _ => None,
                    }
                };
                // Once the arith completed, all lengths agree.
                (fill, Some(arg(0).len))
            }
            Instr::Append { .. } => {
                let (a, b) = (arg(0), arg(1));
                let fill = a.fill.filter(|_| a.fill == b.fill);
                (fill, Some(sum(&mut self.sums, a.len, b.len)))
            }
            Instr::Select { .. } => {
                let s = arg(0);
                let len = match s.fill {
                    // All-zero source selects to the empty vector.
                    Some(0) => Some(Len::Zero),
                    // Nonzero fill: select is the identity.
                    Some(_) => Some(s.len),
                    None => None,
                };
                (s.fill, len)
            }
            Instr::BmRoute { .. } => (arg(2).fill, Some(arg(0).len)),
            Instr::SbmRoute { .. } => (arg(2).fill, None),
            Instr::Move { .. } | Instr::Goto { .. } | Instr::IfEmptyGoto { .. } | Instr::Halt => {
                unreachable!("no value computed")
            }
        };
        self.fresh(ins.output().expect("computes a value"), global, fill, len)
    }

    /// The operand an identity `Arith`/`bm_route` reduces to, with its
    /// number (`v` are the operand numbers).
    fn identity(&self, ins: &Instr, v: &[u32]) -> Option<(Reg, u32)> {
        let val = |x: u32| self.vals[x as usize];
        match *ins {
            // min/max of a value with itself: the identity, any length.
            Instr::Arith {
                op: Op::Min | Op::Max,
                a,
                ..
            } if v[0] == v[1] => Some((a, v[0])),
            Instr::Arith { op, a, b, .. } if val(v[0]).len == val(v[1]).len => {
                let (fa, fb) = (val(v[0]).fill, val(v[1]).fill);
                // Each row is total on the surviving operand: no
                // overflow (`x+0`, `x·1`, `x·0`, `x≪0`), no division by
                // zero (`x/1`); monus/min/max/rshift are always total.
                let left = match (op, fa, fb) {
                    (Op::Add, _, Some(0)) => true,
                    (Op::Add, Some(0), _) => false,
                    (Op::Monus, _, Some(0)) => true,
                    (Op::Monus, Some(0), _) => true, // 0 −̇ x = 0 = a
                    (Op::Mul, _, Some(1)) => true,
                    (Op::Mul, Some(1), _) => false,
                    (Op::Mul, _, Some(0)) => false, // x · 0 = 0 = b
                    (Op::Mul, Some(0), _) => true,
                    (Op::Div, _, Some(1)) => true,
                    (Op::Rshift, _, Some(0)) => true,
                    (Op::Lshift, _, Some(0)) => true,
                    (Op::Min, _, Some(0)) => false, // min(x, 0) = 0 = b
                    (Op::Min, Some(0), _) => true,
                    (Op::Max, _, Some(0)) => true,
                    (Op::Max, Some(0), _) => false,
                    _ => return None,
                };
                Some(if left { (a, v[0]) } else { (b, v[1]) })
            }
            // All-one counts with agreeing lengths: identity routing.
            Instr::BmRoute { values, .. }
                if val(v[1]).fill == Some(1)
                    && val(v[1]).len == val(v[2]).len
                    && val(v[1]).len == val(v[0]).len =>
            {
                Some((values, v[2]))
            }
            _ => None,
        }
    }
}

/// Runs value numbering and its rewrites over the reachable blocks.
/// Returns `true` if anything changed.
pub fn number(prog: &mut Program) -> bool {
    if prog.instrs.is_empty() {
        return false;
    }
    let cfg = Cfg::build(prog);
    let mut st = Numbering::new(prog, &cfg);
    // Keys over a per-block version only ever match inside their block:
    // they live in a table cleared per block, global keys in their own.
    let (mut block_keys, mut global_keys) = (HashMap::new(), HashMap::new());
    let mut delete = vec![false; prog.instrs.len()];
    let mut changed = false;
    let mut v = Vec::with_capacity(4);
    for &b in cfg.rpo() {
        st.stamp += 1;
        block_keys.clear();
        for pc in cfg.range(b as usize) {
            let ins = &mut prog.instrs[pc];
            v.clear();
            map_inputs(ins, |r| {
                let (h, x) = st.read(r, pc);
                v.push(x);
                changed |= h != r;
                h
            });
            let Some(dst) = ins.output() else { continue };
            let (src, num) = if let Instr::Move { src, .. } = *ins {
                (Some(src), v[0])
            } else {
                let key = key_of(ins, &v).expect("computes a value");
                let global = st.all_global(&v);
                let keys = if global {
                    &mut global_keys
                } else {
                    &mut block_keys
                };
                match keys.entry(key) {
                    Entry::Occupied(k) => {
                        let fallible = matches!(ins, Instr::Arith { .. } | Instr::BmRoute { .. });
                        (st.holder(*k.get(), pc).filter(|_| fallible), *k.get())
                    }
                    Entry::Vacant(slot) => match st.identity(ins, &v) {
                        Some((src, x)) => (Some(src), x),
                        None => (None, *slot.insert(st.compute(ins, &v, global))),
                    },
                }
            };
            match src {
                Some(src) if src == dst => {
                    delete[pc] = true;
                    changed = true;
                }
                Some(src) if !matches!(ins, Instr::Move { .. }) => {
                    *ins = Instr::Move { dst, src };
                    changed = true;
                }
                _ => {}
            }
            st.define(dst, num, pc);
        }
    }
    remove_marked(prog, &delete) | changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opt::tests::check_optimized;
    use bvram::{Builder, Instr::*};

    #[test]
    fn dominated_cross_block_duplicates_merge() {
        // The duplicate Length/Arith pair sits in a block the first pair
        // dominates: the arith becomes a Move and the Length's uses read
        // the first Length.
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
        assert!(number(&mut after));
        assert_eq!(after.instrs[4], Move { dst: 5, src: 3 }, "{after}");
        let opt = check_optimized(&p, &[vec![1, 2, 3]]);
        let count = |f: fn(&Instr) -> bool| opt.instrs.iter().filter(|i| f(i)).count();
        assert_eq!(count(|i| matches!(i, Length { .. })), 1, "{opt}");
        assert_eq!(count(|i| matches!(i, Arith { .. })), 1, "{opt}");
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
        assert!(!number(&mut after));
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
        assert!(number(&mut after));
        assert_eq!(after.instrs[3], Move { dst: 4, src: 3 }, "{after}");
        check_optimized(&p, &[vec![]]);
        check_optimized(&p, &[vec![5, 6, 7]]);
    }

    #[test]
    fn redefined_registers_get_new_versions() {
        // v1 changes length between the two Lengths: neither may read the
        // other, in the block or across the loop's back edge.
        let mut b = Builder::new(1, 1);
        b.push(Move { dst: 1, src: 0 })
            .label("loop")
            .push(Length { dst: 2, src: 1 })
            .push(Append { dst: 1, a: 1, b: 1 })
            .push(Length { dst: 3, src: 1 })
            .push(Arith {
                dst: 4,
                op: Op::Lt,
                a: 3,
                b: 2,
            })
            .push(Select { dst: 5, src: 4 })
            .if_empty_goto(5, "done")
            .goto("loop")
            .label("done")
            .push(Append { dst: 0, a: 2, b: 3 })
            .push(Halt);
        let p = b.build().unwrap();
        let opt = check_optimized(&p, &[vec![1, 2]]);
        let lengths = opt.instrs.iter().filter(|i| matches!(i, Length { .. }));
        assert_eq!(lengths.count(), 2, "{opt}");
        check_optimized(&p, &[vec![]]);
    }

    #[test]
    fn copies_propagate_into_dominated_blocks() {
        // v2 is a copy of the input; the dominated block reads v0 itself,
        // so the copy dies.
        let mut b = Builder::new(1, 1);
        b.push(Move { dst: 2, src: 0 })
            .goto("next")
            .label("next")
            .push(Enumerate { dst: 3, src: 2 })
            .push(Move { dst: 0, src: 3 })
            .push(Halt);
        let p = b.build().unwrap();
        let mut after = p.clone();
        assert!(number(&mut after));
        assert_eq!(after.instrs[2], Enumerate { dst: 3, src: 0 }, "{after}");
        let opt = check_optimized(&p, &[vec![4, 4, 4]]);
        assert!(
            opt.instrs.iter().all(|i| !matches!(i, Move { .. })),
            "{opt}"
        );
    }

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
        assert!(number(&mut after));
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
        assert!(number(&mut after));
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
        assert!(number(&mut after));
        // min(x,x) folds outright; monus(x,x) is an all-zero fill that
        // then kills the add, whose left operand now reads x itself.
        assert_eq!(after.instrs[0], Move { dst: 2, src: 0 }, "{after}");
        assert_eq!(after.instrs[2], Move { dst: 4, src: 0 }, "{after}");
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
        assert!(!number(&mut after));
        check_optimized(&p, &[vec![1, 2, 3]]); // faults identically
        check_optimized(&p, &[vec![9]]); // runs identically
    }
}
