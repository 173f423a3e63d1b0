//! Global dead-instruction elimination.
//!
//! An instruction is removed when its result register is never read
//! anywhere in the program (and is not an output register) **and** the
//! instruction can never fault.  Fault-capable instructions (`Arith`,
//! `bm_route`, `sbm_route`) are kept even when dead: the code generator
//! compiles `Ω` to a deliberate division fault into a dead register, and
//! a latent invariant violation is part of a program's observable
//! behavior.
//!
//! A `goto` to the next instruction is a no-op and goes too: value
//! numbering and `dce` can empty an `if` arm and leave one behind
//! (`stdlib::isqrt_pow2`).  Jump threading and unreachable-code removal
//! never fire on compiled code, so the optimizer has neither.
//!
//! Deadness is tracked by reference counting with a worklist, so chains
//! of dead definitions collapse in one linear-time pass — compiled
//! programs reach tens of thousands of instructions (one fresh register
//! per temporary), which rules out a dense per-instruction liveness
//! fixpoint here.

use super::remove_marked;
use bvram::analysis::can_fault;
use bvram::{Instr, Program};

/// Pass name used by translation-validation diagnostics.
pub const NAME: &str = "dce";

/// Removes dead infallible instructions until none remain, and
/// fallthrough `goto`s.  Returns `true` if anything was removed.
pub fn eliminate_dead(prog: &mut Program) -> bool {
    let mut uses = vec![0usize; prog.n_regs];
    let mut defs: Vec<Vec<usize>> = vec![Vec::new(); prog.n_regs];
    for (i, ins) in prog.instrs.iter().enumerate() {
        for r in ins.inputs() {
            uses[r as usize] += 1;
        }
        if let Some(d) = ins.output() {
            defs[d as usize].push(i);
        }
    }
    // A length-relative trip certificate reads its register at loop
    // entry: treat that as a use, or the defining chain would be deleted
    // and the certificate would silently bound by an empty vector.
    for h in &prog.trip_hints {
        if let bvram::TripBound::Len { reg } = h.bound {
            uses[reg as usize] += 1;
        }
    }
    let mut deleted: Vec<bool> = prog
        .instrs
        .iter()
        .enumerate()
        .map(|(pc, ins)| matches!(ins, Instr::Goto { target } if *target as usize == pc + 1))
        .collect();
    let mut worklist: Vec<usize> = (prog.r_out..prog.n_regs)
        .filter(|r| uses[*r] == 0)
        .collect();
    while let Some(r) = worklist.pop() {
        for &i in &defs[r] {
            if deleted[i] || can_fault(&prog.instrs[i]) {
                continue;
            }
            deleted[i] = true;
            for u in prog.instrs[i].inputs() {
                let u = u as usize;
                uses[u] -= 1;
                if uses[u] == 0 && u >= prog.r_out {
                    worklist.push(u);
                }
            }
        }
    }
    remove_marked(prog, &deleted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bvram::{Builder, Instr::*, Op, TripBound};

    #[test]
    fn cascading_dead_defs_all_die() {
        // v1 feeds v2 feeds v3; none reach the output.
        let mut b = Builder::new(1, 1);
        b.push(Length { dst: 1, src: 0 })
            .push(Enumerate { dst: 2, src: 1 })
            .push(Select { dst: 3, src: 2 })
            .push(Halt);
        let mut p = b.build().unwrap();
        assert!(eliminate_dead(&mut p));
        assert_eq!(p.instrs.len(), 1);
    }

    #[test]
    fn dead_but_fallible_survives() {
        let mut b = Builder::new(2, 1);
        b.push(Arith {
            dst: 2,
            op: Op::Add,
            a: 0,
            b: 1,
        })
        .push(Halt);
        let mut p = b.build().unwrap();
        assert!(!eliminate_dead(&mut p));
        assert_eq!(p.instrs.len(), 2);
    }

    #[test]
    fn live_through_loop_survives() {
        let mut b = Builder::new(1, 1);
        b.label("l")
            .if_empty_goto(0, "d")
            .push(Enumerate { dst: 1, src: 0 })
            .push(Select { dst: 0, src: 1 })
            .goto("l")
            .label("d")
            .push(Halt);
        let mut p = b.build().unwrap();
        assert!(!eliminate_dead(&mut p));
        assert_eq!(p.instrs.len(), 5);
    }

    #[test]
    fn output_registers_are_roots() {
        let mut b = Builder::new(0, 2);
        b.push(Singleton { dst: 0, n: 1 })
            .push(Singleton { dst: 1, n: 2 })
            .push(Singleton { dst: 2, n: 3 }) // dead: beyond r_out, unread
            .push(Halt);
        let mut p = b.build().unwrap();
        assert!(eliminate_dead(&mut p));
        assert_eq!(p.instrs.len(), 3);
    }

    #[test]
    fn fallthrough_goto_dies_with_its_trip_hint() {
        let mut b = Builder::new(1, 1);
        b.trip_hint(TripBound::Len { reg: 0 })
            .goto("next")
            .label("next")
            .push(Halt);
        let mut p = b.build().unwrap();
        assert_eq!(p.trip_hints.len(), 1);
        assert!(eliminate_dead(&mut p));
        assert!(matches!(p.instrs[..], [Halt]), "{p}");
        assert!(p.trip_hints.is_empty());
    }

    #[test]
    fn self_loop_survives() {
        let mut b = Builder::new(0, 0);
        b.label("x").goto("x");
        let mut p = b.build().unwrap();
        assert!(!eliminate_dead(&mut p));
        assert!(matches!(p.instrs[..], [Goto { target: 0 }]));
    }
}
