//! Single-definition register facts for the cross-block passes
//! ([`super::gcse`], [`super::strength`]), on top of the shared block
//! graph and dominator tree of [`bvram::cfg::Cfg`].
//!
//! Both passes reason about *single-definition* registers — the code
//! generator allocates one fresh register per temporary, so almost every
//! register has exactly one defining instruction — and need the same two
//! facts fast:
//!
//! * does the (unique) definition of a register dominate a given use, so
//!   the use can never observe the register's initial empty value
//!   ([`Cfg::pc_dominates`] on the defining pc recorded here);
//! * is a register an untouched input (defined at machine entry, never
//!   written), which dominates everything trivially.

use bvram::cfg::Cfg;
use bvram::{Program, Reg};

/// Definition counts over the reachable instructions, classifying the
/// single-definition registers the cross-block passes track.
pub(crate) struct Defs<'a> {
    cfg: &'a Cfg,
    count: Vec<u32>,
    /// Defining pc for single-def registers (last seen otherwise).
    pub pc: Vec<usize>,
    r_in: usize,
    /// For input registers with exactly one instruction definition
    /// (output staging typically rewrites the low registers at the very
    /// end): the blocks enterable *after* that definition executes,
    /// where the entry value may already be gone.
    post_def: Vec<Option<Box<[bool]>>>,
}

impl<'a> Defs<'a> {
    /// Counts reachable definitions of every register.
    pub fn build(prog: &Program, cfg: &'a Cfg) -> Defs<'a> {
        let mut count = vec![0u32; prog.n_regs];
        let mut pc = vec![usize::MAX; prog.n_regs];
        for (i, ins) in prog.instrs.iter().enumerate() {
            if !cfg.reachable(i) {
                continue;
            }
            if let Some(d) = ins.output() {
                count[d as usize] += 1;
                pc[d as usize] = i;
            }
        }
        let mut post_def = vec![None; prog.r_in];
        for r in 0..prog.r_in {
            if count[r] != 1 {
                continue;
            }
            let mut seen = vec![false; cfg.n_blocks()].into_boxed_slice();
            let mut stack = cfg.succs(cfg.block_of(pc[r])).to_vec();
            while let Some(b) = stack.pop() {
                if !std::mem::replace(&mut seen[b as usize], true) {
                    stack.extend(cfg.succs(b as usize));
                }
            }
            post_def[r] = Some(seen);
        }
        Defs {
            cfg,
            count,
            pc,
            r_in: prog.r_in,
            post_def,
        }
    }

    /// Whether a read of `r` at `use_pc` always observes `r`'s *entry*
    /// value: `r` is an input register that is either never rewritten,
    /// or rewritten by a single instruction no path carries to `use_pc`.
    pub fn entry_reaches(&self, r: Reg, use_pc: usize) -> bool {
        let i = r as usize;
        if i >= self.r_in {
            return false;
        }
        match (self.count[i], &self.post_def[i]) {
            (0, _) => true,
            (1, Some(post)) => {
                // After the definition: the rest of its own block, and
                // every block enterable from there.
                let (bd, bu) = (self.cfg.block_of(self.pc[i]), self.cfg.block_of(use_pc));
                !(post[bu] || (bd == bu && use_pc > self.pc[i]))
            }
            _ => false,
        }
    }

    /// A register with exactly one defining instruction and no entry
    /// definition shadowing it.
    pub fn is_single_def(&self, r: Reg) -> bool {
        (r as usize) >= self.r_in && self.count[r as usize] == 1
    }

    /// Whether `r` is single-definition and that definition dominates
    /// the use at `use_pc`, so the use reads one run-invariant value.
    pub fn def_dominates(&self, r: Reg, use_pc: usize) -> bool {
        self.is_single_def(r) && self.cfg.pc_dominates(self.pc[r as usize], use_pc)
    }
}
