//! Register names: the one place the optimizer decides them.
//!
//! [`super::coalesce`] merges move-related registers inside the round
//! loop, and [`allocate`] renumbers every register once after it.  Both
//! read one block liveness (`liveness`) over a `Universe` of
//! registers (all of a kernel's are too many for a bitset per block),
//! leave the `positional` registers (inputs and outputs) their numbers
//! and rewrite through one `rename`.  `liveness` models a
//! `TripBound::Len` certificate as a read at the top of its loop-head
//! block, so its register stays live through the loop.
//!
//! [`allocate`] is a linear scan over live intervals in pc order
//! (Poletto & Sarkar, TOPLAS 1999) on the upward-exposed registers (read
//! in some block before it writes them), the only ones live across a
//! block boundary.  An interval runs from the first to the last pc where
//! its register is live or touched, both ends included, so a destination
//! never takes the number of an input its instruction reads for the last
//! time; a number is reused once its interval has ended.  Liveness keeps
//! the registers the entry gives a value: a read-before-def register's
//! interval starts at pc 0, before any number is free, and a certified
//! one spans its loop.

use bvram::analysis::RegSet;
use bvram::cfg::Cfg;
use bvram::{Instr, Program, Reg, TripBound};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Pass name of [`allocate`] in translation-validation diagnostics.
pub const NAME: &str = "allocate_registers";

const NONE: u32 = u32::MAX;

/// Registers read by `ins`, plus `Halt`'s implicit use of the outputs.
pub(crate) fn uses_of(ins: &Instr, r_out: usize) -> impl Iterator<Item = Reg> {
    let halt = if matches!(ins, Instr::Halt) { r_out } else { 0 };
    ins.inputs().into_iter().chain(0..halt as Reg)
}

/// A set of registers, numbered densely in first-seen order.
pub(crate) struct Universe {
    slot: Vec<u32>,
    /// The register of each slot.
    pub regs: Vec<Reg>,
}

impl Universe {
    pub fn of(n_regs: usize, regs: impl IntoIterator<Item = Reg>) -> Universe {
        let (mut slot, mut seen) = (vec![NONE; n_regs], Vec::new());
        for r in regs {
            if slot[r as usize] == NONE {
                slot[r as usize] = seen.len() as u32;
                seen.push(r);
            }
        }
        Universe { slot, regs: seen }
    }

    pub fn slot(&self, r: Reg) -> Option<u32> {
        Some(self.slot[r as usize]).filter(|&s| s != NONE)
    }
}

/// Each `TripBound::Len` certificate's register, with the block of the
/// loop head that reads it (the back edge's target).
fn certified_reads<'a>(prog: &'a Program, cfg: &'a Cfg) -> impl Iterator<Item = (Reg, usize)> + 'a {
    let n = prog.instrs.len();
    prog.trip_hints
        .iter()
        .filter_map(move |h| match (h.bound, prog.instrs.get(h.pc as usize)?) {
            (
                TripBound::Len { reg },
                Instr::Goto { target } | Instr::IfEmptyGoto { target, .. },
            ) if (*target as usize) < n => Some((reg, cfg.block_of(*target as usize))),
            _ => None,
        })
}

/// Backward block liveness over `u`, with every certificate's read at
/// its loop head: each block's live-in and live-out sets.
pub(crate) fn liveness(prog: &Program, cfg: &Cfg, u: &Universe) -> (Vec<RegSet>, Vec<RegSet>) {
    let (nblocks, n) = (cfg.n_blocks(), u.regs.len());
    let mut gen = vec![RegSet::new(n); nblocks];
    let mut kill = vec![RegSet::new(n); nblocks];
    for (pc, ins) in prog.instrs.iter().enumerate() {
        let b = cfg.block_of(pc);
        for c in uses_of(ins, prog.r_out).filter_map(|r| u.slot(r)) {
            if !kill[b].contains(c) {
                gen[b].insert(c);
            }
        }
        if let Some(c) = ins.output().and_then(|d| u.slot(d)) {
            kill[b].insert(c);
        }
    }
    for (c, head) in certified_reads(prog, cfg).filter_map(|(r, h)| Some((u.slot(r)?, h))) {
        gen[head].insert(c);
    }
    // Predecessor-driven worklist fixpoint: a block is revisited only
    // when a successor's live-in grows.  (The CFG has no edge for a jump
    // one past the end, and none out of unreachable blocks: nothing a
    // dead block reads stays live on its account.)
    let mut live_in = vec![RegSet::new(n); nblocks];
    let mut live_out = vec![RegSet::new(n); nblocks];
    let mut on_list = vec![true; nblocks];
    let mut worklist: Vec<usize> = (0..nblocks).collect();
    let mut inn = RegSet::new(n);
    while let Some(b) = worklist.pop() {
        on_list[b] = false;
        for &s in cfg.succs(b) {
            live_out[b].union_with(&live_in[s as usize]);
        }
        inn.clone_from_set(&live_out[b]);
        inn.difference_with(&kill[b]);
        inn.union_with(&gen[b]);
        if inn != live_in[b] {
            live_in[b].clone_from_set(&inn);
            for &p in cfg.preds(b) {
                if !on_list[p as usize] {
                    on_list[p as usize] = true;
                    worklist.push(p as usize);
                }
            }
        }
    }
    (live_in, live_out)
}

/// How many registers are positional (the inputs and the outputs):
/// no rename moves them.
pub(crate) fn positional(prog: &Program) -> usize {
    prog.r_in.max(prog.r_out)
}

/// Renames every register `r` to `to(r)` in the instructions and the
/// trip certificates, and sets `n_regs`.  A certificate whose register
/// gets no name (nothing reads it any more) is dropped.
pub(crate) fn rename(prog: &mut Program, n_regs: usize, mut to: impl FnMut(Reg) -> Option<Reg>) {
    for ins in prog.instrs.iter_mut() {
        ins.rename_regs(|r| to(r).expect("every register an instruction names has a name"));
    }
    prog.trip_hints.retain_mut(|h| match &mut h.bound {
        TripBound::Len { reg } => to(*reg).map(|r| *reg = r).is_some(),
        TripBound::Const(_) => true,
    });
    prog.n_regs = n_regs;
}

/// Gives two registers one number only when their live intervals are
/// disjoint (see the module docs): `n_regs` shrinks to the most
/// intervals that overlap at one pc, plus the positional registers.
pub fn allocate(prog: &mut Program) {
    let fixed = positional(prog);
    let cfg = Cfg::build(prog);
    let (mut wrote, mut exposed) = (vec![NONE; prog.n_regs], Vec::new());
    for (pc, ins) in prog.instrs.iter().enumerate() {
        let b = cfg.block_of(pc) as u32;
        exposed.extend(ins.inputs().into_iter().filter(|&r| wrote[r as usize] != b));
        if let Some(d) = ins.output() {
            wrote[d as usize] = b;
        }
    }
    exposed.extend(certified_reads(prog, &cfg).map(|(r, _)| r));
    exposed.retain(|&r| r as usize >= fixed);
    let u = Universe::of(prog.n_regs, exposed);
    let (live_in, live_out) = liveness(prog, &cfg, &u);

    // An interval covers its register's touches, and the ends of the
    // blocks where it is live.
    let mut span = vec![(NONE, 0); prog.n_regs];
    let mut touch = |r: Reg, pc: usize| {
        let s = &mut span[r as usize];
        *s = (s.0.min(pc as u32), s.1.max(pc as u32));
    };
    for (pc, ins) in prog.instrs.iter().enumerate() {
        for r in ins.inputs().into_iter().chain(ins.output()) {
            touch(r, pc);
        }
    }
    for b in 0..cfg.n_blocks() {
        for c in live_in[b].iter() {
            touch(u.regs[c as usize], cfg.leader(b));
        }
        for c in live_out[b].iter() {
            touch(u.regs[c as usize], cfg.last(b));
        }
    }

    let mut order: Vec<usize> = (fixed..prog.n_regs).collect();
    order.retain(|&r| span[r].0 != NONE);
    order.sort_unstable_by_key(|&r| (span[r].0, r));
    let (mut to, mut active, mut free) = (vec![NONE; prog.n_regs], BinaryHeap::new(), Vec::new());
    let mut next = fixed as u32;
    for r in order {
        let (start, end) = span[r];
        while let Some(&Reverse((_, num))) = active.peek().filter(|Reverse((e, _))| *e < start) {
            active.pop();
            free.push(num);
        }
        to[r] = free.pop().unwrap_or_else(|| {
            next += 1;
            next - 1
        });
        active.push(Reverse((end, to[r])));
    }
    rename(prog, next as usize, |r| match r as usize {
        p if p < fixed => Some(r),
        _ => Some(to[r as usize]).filter(|&n| n != NONE),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use bvram::{run_program, Builder, Instr::*, Vector};

    /// `allocate` on a clone of `p`, checked to keep outputs and costs.
    fn allocated(p: &Program, inputs: &[Vector]) -> Program {
        let mut q = p.clone();
        allocate(&mut q);
        let (a, b) = (run_program(p, inputs), run_program(&q, inputs));
        let (a, b) = (a.unwrap(), b.unwrap());
        assert_eq!((a.outputs, a.stats), (b.outputs, b.stats), "{p}\n{q}");
        q
    }

    #[test]
    fn destination_never_takes_a_dying_input() {
        // Each temporary dies where the next one is defined.
        let mut b = Builder::new(1, 1);
        b.push(Length { dst: 1, src: 0 })
            .push(Enumerate { dst: 2, src: 1 })
            .push(Enumerate { dst: 3, src: 2 })
            .push(Append { dst: 0, a: 3, b: 0 })
            .push(Halt);
        let p = b.build().unwrap();
        let q = allocated(&p, &[vec![4, 5, 6]]);
        for ins in &q.instrs {
            if let Some(d) = ins.output().filter(|&d| d != 0) {
                assert!(
                    !ins.inputs().contains(&d),
                    "{ins} reads its destination\n{q}"
                );
            }
        }
        // Two numbers suffice: the chain alternates between them.
        assert_eq!(q.n_regs, 3, "{q}");
    }

    #[test]
    fn certified_register_is_not_reused_inside_its_loop() {
        // v5's entry length certifies the loop, and nothing but the
        // certificate reads it after its definition.
        let mut b = Builder::new(1, 1);
        b.push(Enumerate { dst: 5, src: 0 })
            .push(Move { dst: 6, src: 0 })
            .label("loop")
            .if_empty_goto(6, "done")
            .push(Enumerate { dst: 7, src: 6 })
            .push(Select { dst: 8, src: 7 })
            .push(Move { dst: 6, src: 8 })
            .trip_hint(TripBound::Len { reg: 5 })
            .goto("loop")
            .label("done")
            .push(Move { dst: 0, src: 6 })
            .push(Halt);
        let p = b.build().unwrap();
        let q = allocated(&p, &[vec![1, 2, 3]]);
        let [hint] = q.trip_hints[..] else {
            panic!("certificate lost: {q}")
        };
        let TripBound::Len { reg } = hint.bound else {
            unreachable!()
        };
        assert_eq!(q.instrs[0].output(), Some(reg), "{q}");
        let body = 2..=hint.pc as usize;
        assert!(
            q.instrs[body].iter().all(|i| i.output() != Some(reg)),
            "v{reg} is written inside its loop\n{q}"
        );
        assert!(bvram::cost_program(&q).is_finite(), "{q}");
    }

    #[test]
    fn read_before_def_register_stays_empty() {
        // v5 is read before any write: it must not share a number that
        // holds a value by then.
        let mut b = Builder::new(1, 1);
        b.push(Length { dst: 2, src: 0 })
            .push(Append { dst: 3, a: 2, b: 2 })
            .push(Length { dst: 4, src: 5 })
            .push(Append { dst: 0, a: 3, b: 4 })
            .push(Halt);
        let p = b.build().unwrap();
        let q = allocated(&p, &[vec![7, 8]]);
        assert_eq!(
            run_program(&q, &[vec![7, 8]]).unwrap().outputs[0],
            vec![2, 2, 0]
        );
    }
}
