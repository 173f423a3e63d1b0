//! Jump threading and unreachable-code elimination.
//!
//! * a jump whose target is a `Goto` is retargeted at the final
//!   destination of the chain (cycles are left alone — an empty `goto`
//!   loop is a legitimate divergence);
//! * a `Goto` to the next instruction is a fallthrough and is deleted;
//! * instructions unreachable from the entry are deleted.

use super::remove_marked;
use bvram::cfg::Cfg;
use bvram::{Instr, Program};

/// Pass name used by translation-validation diagnostics.
///
/// On compiled code the pass is nearly idle: counted over the stdlib
/// roster, `workloads::suite()`, the five goldens and their `map(f)`
/// kernels at `O1`, it changes exactly one program —
/// `stdlib::isqrt_pow2`, 32 → 31 instructions, where value numbering and
/// `dce` empty an `if` arm and leave `goto` to the next instruction.
pub const NAME: &str = "jumps";

/// Follows a `Goto` chain from `t` to its final destination.  Returns
/// `t` unchanged if the chain cycles or leaves the program.
fn chase(prog: &Program, t: u32) -> u32 {
    let mut seen = 0usize;
    let mut cur = t;
    while let Some(Instr::Goto { target }) = prog.instrs.get(cur as usize) {
        cur = *target;
        seen += 1;
        if seen > prog.instrs.len() {
            return t; // cycle: an intentional divergence loop
        }
    }
    cur
}

/// Runs jump threading + fallthrough removal + unreachability.  Returns
/// `true` if anything changed.
pub fn thread_jumps(prog: &mut Program) -> bool {
    let mut changed = false;
    // 1. Retarget jump chains.
    let n = prog.instrs.len();
    for pc in 0..n {
        let retarget = match &prog.instrs[pc] {
            Instr::Goto { target } | Instr::IfEmptyGoto { target, .. } => {
                let t = chase(prog, *target);
                (t != *target).then_some(t)
            }
            _ => None,
        };
        if let Some(t) = retarget {
            match &mut prog.instrs[pc] {
                Instr::Goto { target } | Instr::IfEmptyGoto { target, .. } => *target = t,
                _ => unreachable!(),
            }
            changed = true;
        }
    }
    // 2. Delete fallthrough gotos and unreachable instructions.
    let cfg = Cfg::build(prog);
    let delete: Vec<bool> = prog
        .instrs
        .iter()
        .enumerate()
        .map(|(pc, ins)| {
            !cfg.reachable(pc)
                || matches!(ins, Instr::Goto { target } if *target as usize == pc + 1)
        })
        .collect();
    remove_marked(prog, &delete) | changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use bvram::{Builder, Instr::*};

    #[test]
    fn chains_collapse_to_final_target() {
        // 0: goto 2 ; 1: halt ; 2: goto 4 ; 3: halt ; 4: halt
        let mut b = Builder::new(0, 0);
        b.goto("a")
            .push(Halt)
            .label("a")
            .goto("b")
            .push(Halt)
            .label("b")
            .push(Halt);
        let mut p = b.build().unwrap();
        assert!(thread_jumps(&mut p));
        // Everything threads to the final halt; only it survives... the
        // entry goto threads to the last halt, the rest is unreachable.
        assert!(p.instrs.len() <= 2, "{p}");
        assert!(bvram::run_program(&p, &[]).is_ok());
    }

    #[test]
    fn self_loop_survives() {
        let mut b = Builder::new(0, 0);
        b.label("x").goto("x");
        let mut p = b.build().unwrap();
        thread_jumps(&mut p);
        assert_eq!(p.instrs.len(), 1);
        assert!(matches!(p.instrs[0], Goto { target: 0 }));
    }

    #[test]
    fn conditional_targets_thread_too() {
        let mut b = Builder::new(1, 1);
        b.if_empty_goto(0, "hop")
            .push(Halt)
            .label("hop")
            .goto("end")
            .label("end")
            .push(Halt);
        let mut p = b.build().unwrap();
        assert!(thread_jumps(&mut p));
        let Instr::IfEmptyGoto { target, .. } = p.instrs[0] else {
            panic!("expected conditional: {p}");
        };
        assert!(matches!(p.instrs[target as usize], Instr::Halt));
    }
}
