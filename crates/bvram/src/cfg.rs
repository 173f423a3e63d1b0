//! The control-flow graph of a BVRAM [`Program`] — the one block
//! structure every analysis and optimizer pass reads.
//!
//! [`Cfg::build`] derives, once per client:
//!
//! * the **basic blocks** (maximal straight-line runs: a leader is the
//!   entry, every jump target, and every instruction following a jump
//!   or `Halt`) — *all* of them, reachable or not, so per-block passes
//!   can still walk dead code;
//! * the **edges** between **entry-reachable** blocks only.  Code no
//!   execution reaches contributes no successor and no predecessor, so
//!   a dead jump into a loop head cannot cost the head its dominance
//!   over the latch.  A jump target one past the end is legal (the
//!   machine faults `FellOffEnd` when the branch is taken) and is no
//!   edge either, exactly like a fallthrough off the end.  An
//!   `if_empty` whose target is its own fallthrough yields that edge
//!   twice (edges are a multiset; dataflow joins are idempotent);
//! * a **reverse postorder** and the **immediate dominators** of the
//!   reachable blocks (Cooper–Harvey–Kennedy), flattened to an Euler
//!   interval on the dominator tree so [`Cfg::dominates`] is O(1) —
//!   compiled kernels reach hundreds of thousands of instructions
//!   across thousands of blocks;
//! * the **back edges** (`b → h` with `h` dominating `b`).
//!
//! Clients: the forward-dataflow framework of [`crate::verify`], the
//! loop analysis of [`crate::cost`], and the block-local and
//! cross-block optimizer passes in `nsc-compile`.

use crate::instr::Instr;
use crate::program::Program;
use std::ops::Range;

const NONE: u32 = u32::MAX;

/// Basic blocks, reachable-only edges, and the dominator tree of one
/// program (see the module docs).  Blocks are numbered in program order.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Block leaders, ascending, plus the program length as a sentinel.
    leaders: Vec<usize>,
    /// `block_of[pc]` = index of the block containing `pc`.
    block_of: Vec<u32>,
    succs: Vec<Vec<u32>>,
    preds: Vec<Vec<u32>>,
    /// Reverse postorder over the reachable blocks (entry first).
    rpo: Vec<u32>,
    /// Immediate dominator per block (the entry's is itself; `NONE` for
    /// unreachable blocks).
    idom: Vec<u32>,
    /// Euler-tour entry/exit times on the dominator tree (`NONE` for
    /// unreachable blocks).
    tin: Vec<u32>,
    tout: Vec<u32>,
}

/// Instruction indices that start a basic block: the entry, every jump
/// target, and every instruction following a jump or `Halt`.
fn block_leaders(prog: &Program) -> Vec<usize> {
    let n = prog.instrs.len();
    let mut leader = vec![false; n];
    if n > 0 {
        leader[0] = true;
    }
    for (pc, ins) in prog.instrs.iter().enumerate() {
        match ins {
            Instr::Goto { target } | Instr::IfEmptyGoto { target, .. } => {
                if (*target as usize) < n {
                    leader[*target as usize] = true;
                }
                if pc + 1 < n {
                    leader[pc + 1] = true;
                }
            }
            Instr::Halt if pc + 1 < n => leader[pc + 1] = true,
            _ => {}
        }
    }
    (0..n).filter(|&i| leader[i]).collect()
}

impl Cfg {
    /// Builds the CFG and dominator tree of `prog`.  Jump targets must
    /// be at most one past the end ([`crate::verify::check_structure`]).
    pub fn build(prog: &Program) -> Cfg {
        let n = prog.instrs.len();
        let mut leaders = block_leaders(prog);
        let nb = leaders.len();
        leaders.push(n);
        let mut block_of = vec![0u32; n];
        for b in 0..nb {
            block_of[leaders[b]..leaders[b + 1]].fill(b as u32);
        }
        // Successor blocks of `b`: jump target first, then fallthrough.
        let edges_of = |b: usize| -> Vec<u32> {
            let last = leaders[b + 1] - 1;
            let (target, falls) = match &prog.instrs[last] {
                Instr::Halt => (None, false),
                Instr::Goto { target } => (Some(*target as usize), false),
                Instr::IfEmptyGoto { target, .. } => (Some(*target as usize), true),
                _ => (None, true),
            };
            target
                .into_iter()
                .chain(falls.then_some(last + 1))
                .filter(|&pc| pc < n)
                .map(|pc| block_of[pc])
                .collect()
        };
        // One DFS from the entry discovers the reachable blocks, gives
        // them (and only them) successors, and yields the postorder.
        let mut succs: Vec<Vec<u32>> = vec![Vec::new(); nb];
        let mut rpo: Vec<u32> = Vec::new();
        let mut seen = vec![false; nb];
        let mut stack: Vec<(u32, usize)> = Vec::new();
        if nb > 0 {
            seen[0] = true;
            succs[0] = edges_of(0);
            stack.push((0, 0));
        }
        while let Some((b, i)) = stack.last_mut() {
            if let Some(&s) = succs[*b as usize].get(*i) {
                *i += 1;
                if !seen[s as usize] {
                    seen[s as usize] = true;
                    succs[s as usize] = edges_of(s as usize);
                    stack.push((s, 0));
                }
            } else {
                rpo.push(*b);
                stack.pop();
            }
        }
        rpo.reverse();
        let mut preds: Vec<Vec<u32>> = vec![Vec::new(); nb];
        for (b, ss) in succs.iter().enumerate() {
            for &s in ss {
                preds[s as usize].push(b as u32);
            }
        }
        let mut rpo_num = vec![NONE; nb];
        for (i, &b) in rpo.iter().enumerate() {
            rpo_num[b as usize] = i as u32;
        }
        // Cooper–Harvey–Kennedy iterative immediate dominators.
        let mut idom = vec![NONE; nb];
        if let Some(&entry) = rpo.first() {
            idom[entry as usize] = entry;
        }
        let intersect = |idom: &[u32], mut a: u32, mut b: u32| -> u32 {
            while a != b {
                while rpo_num[a as usize] > rpo_num[b as usize] {
                    a = idom[a as usize];
                }
                while rpo_num[b as usize] > rpo_num[a as usize] {
                    b = idom[b as usize];
                }
            }
            a
        };
        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let mut new = NONE;
                for &p in &preds[b as usize] {
                    if idom[p as usize] == NONE {
                        continue;
                    }
                    new = if new == NONE {
                        p
                    } else {
                        intersect(&idom, new, p)
                    };
                }
                if new != NONE && idom[b as usize] != new {
                    idom[b as usize] = new;
                    changed = true;
                }
            }
        }
        // Dominator-tree children, then an Euler tour for O(1) queries.
        let mut children: Vec<Vec<u32>> = vec![Vec::new(); nb];
        for &b in rpo.iter().skip(1) {
            children[idom[b as usize] as usize].push(b);
        }
        let mut tin = vec![NONE; nb];
        let mut tout = vec![NONE; nb];
        let mut clock = 0u32;
        if let Some(&entry) = rpo.first() {
            tin[entry as usize] = clock;
            clock += 1;
            stack.push((entry, 0));
        }
        while let Some((b, i)) = stack.last_mut() {
            if let Some(&k) = children[*b as usize].get(*i) {
                *i += 1;
                tin[k as usize] = clock;
                clock += 1;
                stack.push((k, 0));
            } else {
                tout[*b as usize] = clock;
                clock += 1;
                stack.pop();
            }
        }
        Cfg {
            leaders,
            block_of,
            succs,
            preds,
            rpo,
            idom,
            tin,
            tout,
        }
    }

    /// Number of basic blocks, unreachable ones included.
    pub fn n_blocks(&self) -> usize {
        self.leaders.len() - 1
    }

    /// The pcs of block `b`, in program order.
    pub fn range(&self, b: usize) -> Range<usize> {
        self.leaders[b]..self.leaders[b + 1]
    }

    /// The first pc of block `b`.
    pub fn leader(&self, b: usize) -> usize {
        self.leaders[b]
    }

    /// The last pc of block `b` (its jump, `Halt`, or the instruction
    /// before the next leader).
    pub fn last(&self, b: usize) -> usize {
        self.leaders[b + 1] - 1
    }

    /// The block containing `pc`.
    pub fn block_of(&self, pc: usize) -> usize {
        self.block_of[pc] as usize
    }

    /// Successor blocks of `b` — jump target first, then fallthrough;
    /// empty for unreachable blocks.
    pub fn succs(&self, b: usize) -> &[u32] {
        &self.succs[b]
    }

    /// Reachable predecessor blocks of `b`, ascending.
    pub fn preds(&self, b: usize) -> &[u32] {
        &self.preds[b]
    }

    /// Whether block `b` is reachable from the entry.
    pub fn block_reachable(&self, b: usize) -> bool {
        self.tin[b] != NONE
    }

    /// Whether `pc` is reachable from the entry (blocks are
    /// straight-line, so an instruction is reachable iff its block is).
    pub fn reachable(&self, pc: usize) -> bool {
        self.block_reachable(self.block_of(pc))
    }

    /// The reachable blocks in reverse postorder (entry first).
    pub fn rpo(&self) -> &[u32] {
        &self.rpo
    }

    /// The immediate dominator of `b`: `None` for the entry and for
    /// unreachable blocks.
    pub fn idom(&self, b: usize) -> Option<usize> {
        let d = self.idom[b];
        (d != NONE && d as usize != b).then_some(d as usize)
    }

    /// Whether block `a` dominates block `b` (reflexive): every path
    /// from the entry to `b` passes through `a`.  `false` when either is
    /// unreachable.
    pub fn dominates(&self, a: usize, b: usize) -> bool {
        self.tin[a] != NONE
            && self.tin[b] != NONE
            && self.tin[a] <= self.tin[b]
            && self.tout[b] <= self.tout[a]
    }

    /// Whether every execution reaching pc `u` has already executed pc
    /// `d`.  Within a block this is program order; across blocks it is
    /// block dominance (blocks are straight-line, so entering a block
    /// executes all of it or faults before reaching anything it
    /// dominates).  `false` when either is unreachable.
    pub fn pc_dominates(&self, d: usize, u: usize) -> bool {
        let (bd, bu) = (self.block_of(d), self.block_of(u));
        if bd == bu {
            d < u && self.block_reachable(bd)
        } else {
            self.dominates(bd, bu)
        }
    }

    /// The back edges `(latch, head)` — edges whose target dominates
    /// their source — by ascending latch, then successor order.
    pub fn back_edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.succs.iter().enumerate().flat_map(move |(b, ss)| {
            ss.iter()
                .map(move |&s| (b, s as usize))
                .filter(|&(b, s)| self.dominates(s, b))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Instr::*;
    use crate::program::Builder;

    fn loop_prog() -> Program {
        // 0: if_empty v0 goto 4
        // 1: enumerate v1 <- v0
        // 2: select v0 <- v1
        // 3: goto 0
        // 4: halt
        let mut b = Builder::new(1, 1);
        b.label("loop")
            .if_empty_goto(0, "done")
            .push(Enumerate { dst: 1, src: 0 })
            .push(Select { dst: 0, src: 1 })
            .goto("loop")
            .label("done")
            .push(Halt);
        b.build().unwrap()
    }

    #[test]
    fn leaders_are_entry_targets_and_post_jumps() {
        let cfg = Cfg::build(&loop_prog());
        assert_eq!(cfg.n_blocks(), 3);
        let leaders: Vec<usize> = (0..3).map(|b| cfg.leader(b)).collect();
        assert_eq!(leaders, vec![0, 1, 4]);
        assert_eq!(cfg.range(1), 1..4);
        assert_eq!((cfg.last(0), cfg.last(1), cfg.last(2)), (0, 3, 4));
        assert_eq!(cfg.block_of(2), 1);
    }

    #[test]
    fn successors_follow_jumps() {
        let cfg = Cfg::build(&loop_prog());
        assert_eq!(cfg.succs(0), &[2, 1], "target first, then fallthrough");
        assert_eq!(cfg.succs(1), &[0]);
        assert_eq!(cfg.succs(2), &[] as &[u32], "halt has no successor");
        assert_eq!(cfg.preds(0), &[1]);
        assert_eq!(cfg.preds(2), &[0]);
        assert_eq!(cfg.rpo()[0], 0);
        assert_eq!(cfg.back_edges().collect::<Vec<_>>(), vec![(1, 0)]);
        assert_eq!(
            (cfg.idom(0), cfg.idom(1), cfg.idom(2)),
            (None, Some(0), Some(0))
        );
        assert!(cfg.dominates(0, 1) && cfg.dominates(1, 1) && !cfg.dominates(1, 2));
        assert!(cfg.pc_dominates(1, 3) && !cfg.pc_dominates(3, 1));
        assert!(cfg.pc_dominates(0, 4) && !cfg.pc_dominates(2, 4));
    }

    #[test]
    fn reachability_skips_jumped_over_code() {
        let mut b = Builder::new(0, 0);
        b.goto("end")
            .push(Singleton { dst: 0, n: 1 })
            .label("end")
            .push(Halt);
        let cfg = Cfg::build(&b.build().unwrap());
        let reach: Vec<bool> = (0..3).map(|pc| cfg.reachable(pc)).collect();
        assert_eq!(reach, vec![true, false, true]);
        // The dead block falls through into `end`, but contributes no edge.
        assert_eq!(cfg.succs(1), &[] as &[u32]);
        assert_eq!(cfg.preds(2), &[0]);
        assert!(!cfg.dominates(1, 2) && !cfg.dominates(1, 1));
        assert_eq!(cfg.rpo(), &[0, 2]);
    }

    #[test]
    fn empty_program_has_no_blocks() {
        let cfg = Cfg::build(&Builder::new(0, 0).build().unwrap());
        assert_eq!(cfg.n_blocks(), 0);
        assert!(cfg.rpo().is_empty());
    }
}
