//! Move coalescing: merging the live ranges of move-related registers.
//!
//! For each `Move x ← y`, if the two registers' live ranges do not
//! interfere — neither register is *defined* at a point where the other
//! is live, apart from the move itself — then the pair is merged (classic
//! Chaitin-style conservative coalescing) and the move disappears.  This
//! deletes the code generator's staging moves into output registers and,
//! more profitably, the loop-carried `state ← body-result` moves inside
//! `while`/scan loops, which cost `Θ(register length)` *per iteration*.
//!
//! Compiled programs have tens of thousands of registers but only a few
//! hundred appear in moves, so the analysis runs over the *move-related*
//! registers only: block-level backward liveness on that small universe,
//! then one backward sweep per block building the interference graph, and
//! union-find with adjacency merging for the coalescing itself.
//!
//! A register cannot be renamed away ("pinned") when it is positionally
//! pinned — an input or output register — or when some path reads it
//! before any definition (its implicit entry value, input contents or the
//! empty vector, would change under renaming).  Two pinned registers
//! never merge.

use super::remove_marked;
use bvram::analysis::RegSet;
use bvram::cfg::Cfg;
use bvram::{Instr, Program, Reg};

/// Pass name used by translation-validation diagnostics.
pub const NAME: &str = "coalesce";

/// Registers read by `ins`, plus `Halt`'s implicit use of the outputs.
fn uses_of(ins: &Instr, r_out: usize) -> Vec<Reg> {
    match ins {
        Instr::Halt => (0..r_out as Reg).collect(),
        _ => ins.inputs().to_vec(),
    }
}

struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    fn find(&mut self, x: u32) -> u32 {
        let mut root = x;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        let mut cur = x;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }
}

/// Coalesces move-related registers.  Returns `true` if anything changed.
pub fn coalesce_moves(prog: &mut Program) -> bool {
    let n = prog.instrs.len();
    if n == 0 {
        return false;
    }
    // 1. Candidate universe: registers appearing in a Move.
    let moves: Vec<(usize, Reg, Reg)> = prog
        .instrs
        .iter()
        .enumerate()
        .filter_map(|(pc, ins)| match ins {
            Instr::Move { dst, src } => Some((pc, *dst, *src)),
            _ => None,
        })
        .collect();
    if moves.is_empty() {
        return false;
    }
    let mut cand_of: Vec<u32> = vec![u32::MAX; prog.n_regs];
    let mut reg_of: Vec<Reg> = Vec::new();
    for &(_, d, s) in &moves {
        for r in [d, s] {
            if cand_of[r as usize] == u32::MAX {
                cand_of[r as usize] = reg_of.len() as u32;
                reg_of.push(r);
            }
        }
    }
    let ncand = reg_of.len();
    let cand = |r: Reg| -> Option<u32> {
        let c = cand_of[r as usize];
        (c != u32::MAX).then_some(c)
    };

    // 2. Block structure.
    let cfg = Cfg::build(prog);
    let nblocks = cfg.n_blocks();

    // 3. Block-level backward liveness over the candidate universe.
    let mut gen = vec![RegSet::new(ncand); nblocks];
    let mut kill = vec![RegSet::new(ncand); nblocks];
    for b in 0..nblocks {
        for pc in cfg.range(b) {
            let ins = &prog.instrs[pc];
            for u in uses_of(ins, prog.r_out) {
                if let Some(c) = cand(u) {
                    if !kill[b].contains(c) {
                        gen[b].insert(c);
                    }
                }
            }
            if let Some(d) = ins.output() {
                if let Some(c) = cand(d) {
                    kill[b].insert(c);
                }
            }
        }
    }
    // A length-relative trip certificate reads its register at loop
    // entry: model that as a phantom read at the top of the loop-head
    // block (the back edge's target), so the register stays live across
    // the loop and nothing merges over its certified value.
    for h in &prog.trip_hints {
        if let bvram::TripBound::Len { reg } = h.bound {
            if let Some(c) = cand(reg) {
                if let Some(Instr::Goto { target } | Instr::IfEmptyGoto { target, .. }) =
                    prog.instrs.get(h.pc as usize)
                {
                    let t = *target as usize;
                    if t < n {
                        gen[cfg.block_of(t)].insert(c);
                    }
                }
            }
        }
    }
    // Predecessor-driven worklist fixpoint: a block is revisited only
    // when a successor's live-in grows.  (The CFG has no edge for a jump
    // one past the end, and none out of unreachable blocks: nothing a
    // dead block reads stays live on its account.)
    let mut live_in = vec![RegSet::new(ncand); nblocks];
    let mut live_out = vec![RegSet::new(ncand); nblocks];
    let mut on_list = vec![true; nblocks];
    let mut worklist: Vec<usize> = (0..nblocks).collect();
    let mut inn = RegSet::new(ncand);
    while let Some(b) = worklist.pop() {
        on_list[b] = false;
        let mut out = std::mem::replace(&mut live_out[b], RegSet::new(0));
        for &s in cfg.succs(b) {
            out.union_with(&live_in[s as usize]);
        }
        inn.clone_from_set(&out);
        live_out[b] = out;
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

    // 4. Interference graph over candidates: a def of one while the other
    // is live, except at the move between exactly that pair.  Only pairs
    // inside the same *move-relation component* can ever merge, so edges
    // are recorded for those pairs only — this keeps the walk linear even
    // when thousands of candidates are simultaneously live.
    let mut comp = UnionFind {
        parent: (0..ncand as u32).collect(),
    };
    for &(_, d, s) in &moves {
        let (cd, cs) = (cand(d).unwrap(), cand(s).unwrap());
        let (rd, rs) = (comp.find(cd), comp.find(cs));
        if rd != rs {
            comp.parent[rd as usize] = rs;
        }
    }
    let mut members: Vec<Vec<u32>> = vec![Vec::new(); ncand];
    for c in 0..ncand as u32 {
        members[comp.find(c) as usize].push(c);
    }
    let mut adj: Vec<std::collections::HashSet<u32>> =
        vec![std::collections::HashSet::new(); ncand];
    fn add_edge(adj: &mut [std::collections::HashSet<u32>], a: u32, b: u32) {
        if a != b {
            adj[a as usize].insert(b);
            adj[b as usize].insert(a);
        }
    }
    for (b, out) in live_out.iter().enumerate() {
        let mut live = out.clone();
        for pc in cfg.range(b).rev() {
            let ins = &prog.instrs[pc];
            if let Some(d) = ins.output() {
                if let Some(cd) = cand(d) {
                    let excluded = match ins {
                        Instr::Move { src, .. } => cand(*src),
                        _ => None,
                    };
                    let rep = comp.find(cd) as usize;
                    for &c in &members[rep] {
                        if c != cd && Some(c) != excluded && live.contains(c) {
                            add_edge(&mut adj, cd, c);
                        }
                    }
                    live.remove(cd);
                }
            }
            for u in uses_of(ins, prog.r_out) {
                if let Some(c) = cand(u) {
                    live.insert(c);
                }
            }
        }
    }
    // The entry implicitly defines every register (inputs get their
    // values, the rest become empty) while the entry block's live-in
    // candidates hold those very values: pin the read-before-def ones and
    // make the input registers interfere with them.
    let entry_live = live_in[0].clone();
    let mut pinned = vec![false; ncand];
    for (c, &r) in reg_of.iter().enumerate() {
        if (r as usize) < prog.r_in.max(prog.r_out) || entry_live.contains(c as u32) {
            pinned[c] = true;
        }
    }
    // Registers named by length-relative trip certificates must keep
    // their names (a pinned candidate is always its group's
    // representative, so the certificate stays valid after renaming).
    for h in &prog.trip_hints {
        if let bvram::TripBound::Len { reg } = h.bound {
            if let Some(c) = cand(reg) {
                pinned[c as usize] = true;
            }
        }
    }
    for r in 0..prog.r_in as Reg {
        if let Some(cr) = cand(r) {
            let rep = comp.find(cr) as usize;
            for &c in &members[rep] {
                if entry_live.contains(c) {
                    add_edge(&mut adj, cr, c);
                }
            }
        }
    }

    // 5. Conservative coalescing: union move-related, non-interfering
    // groups; a pinned register must stay the representative.
    let mut uf = UnionFind {
        parent: (0..ncand as u32).collect(),
    };
    let mut delete = vec![false; n];
    let mut did = false;
    for &(pc, d, s) in &moves {
        let (cd, cs) = (cand(d).unwrap(), cand(s).unwrap());
        let (rd, rs) = (uf.find(cd), uf.find(cs));
        if rd == rs {
            // Already the same register (or a literal self-move): the
            // move is a no-op.
            delete[pc] = true;
            did = true;
            continue;
        }
        if (pinned[rd as usize] && pinned[rs as usize]) || adj[rd as usize].contains(&rs) {
            continue;
        }
        let (rep, gone) = if pinned[rd as usize] {
            (rd, rs)
        } else {
            (rs, rd)
        };
        uf.parent[gone as usize] = rep;
        pinned[rep as usize] |= pinned[gone as usize];
        // Merge adjacency: everything touching `gone` now touches `rep`.
        let gone_adj: Vec<u32> = adj[gone as usize].iter().copied().collect();
        for x in gone_adj {
            adj[x as usize].remove(&gone);
            add_edge(&mut adj, x, rep);
        }
        delete[pc] = true;
        did = true;
    }
    if !did {
        return false;
    }

    // 6. Apply: rename every candidate to its representative register.
    for ins in prog.instrs.iter_mut() {
        ins.rename_regs(|r| match cand(r) {
            Some(c) => reg_of[uf.find(c) as usize],
            None => r,
        });
    }
    remove_marked(prog, &delete);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use bvram::{run_program, Builder, Instr::*, Op};

    #[test]
    fn staging_move_into_output_coalesces() {
        // v2 <- v0 + v1 ; v0 <- v2  ==>  v0 <- v0 + v1
        let mut b = Builder::new(2, 1);
        b.push(Arith {
            dst: 2,
            op: Op::Add,
            a: 0,
            b: 1,
        })
        .push(Move { dst: 0, src: 2 })
        .push(Halt);
        let mut p = b.build().unwrap();
        assert!(coalesce_moves(&mut p));
        assert_eq!(p.instrs.len(), 2);
        let out = run_program(&p, &[vec![1, 2], vec![3, 4]]).unwrap();
        assert_eq!(out.outputs[0], vec![4, 6]);
    }

    #[test]
    fn loop_carried_move_coalesces() {
        let mut b = Builder::new(1, 1);
        b.label("loop")
            .if_empty_goto(0, "done")
            .push(Enumerate { dst: 1, src: 0 })
            .push(Select { dst: 2, src: 1 })
            .push(Move { dst: 0, src: 2 })
            .goto("loop")
            .label("done")
            .push(Halt);
        let mut p = b.build().unwrap();
        assert!(coalesce_moves(&mut p));
        assert!(p.instrs.iter().all(|i| !matches!(i, Move { .. })), "{p}");
        let out = run_program(&p, &[vec![7; 6]]).unwrap();
        assert!(out.outputs[0].is_empty());
    }

    #[test]
    fn interfering_registers_do_not_coalesce() {
        // v2 <- v0 ; v0 <- enumerate v0 ; v1 <- v2  — v2 carries the old
        // v0 across its redefinition, so v2 cannot merge with v0.
        let mut b = Builder::new(1, 2);
        b.push(Move { dst: 2, src: 0 })
            .push(Enumerate { dst: 0, src: 0 })
            .push(Move { dst: 1, src: 2 })
            .push(Halt);
        let mut p = b.build().unwrap();
        coalesce_moves(&mut p);
        let out = run_program(&p, &[vec![7, 8, 9]]).unwrap();
        assert_eq!(out.outputs[0], vec![0, 1, 2]);
        assert_eq!(out.outputs[1], vec![7, 8, 9]);
    }

    #[test]
    fn read_before_def_register_is_not_renamed() {
        // v2 is read (implicitly empty) before being defined; renaming it
        // into v0 would make that read see the input instead.
        let mut b = Builder::new(1, 1);
        b.push(Length { dst: 3, src: 2 }) // reads v2 while still empty
            .push(Move { dst: 2, src: 0 })
            .push(Append { dst: 0, a: 2, b: 3 })
            .push(Halt);
        let mut p = b.build().unwrap();
        coalesce_moves(&mut p);
        let out = run_program(&p, &[vec![5, 5]]).unwrap();
        assert_eq!(
            out.outputs[0],
            vec![5, 5, 0],
            "the appended length is of the pre-move empty v2"
        );
    }

    #[test]
    fn two_pinned_registers_never_merge() {
        // v1 <- v0 with both pinned (input and output): the move stays.
        let mut b = Builder::new(2, 2);
        b.push(Move { dst: 1, src: 0 }).push(Halt);
        let mut p = b.build().unwrap();
        coalesce_moves(&mut p);
        let out = run_program(&p, &[vec![1], vec![2]]).unwrap();
        assert_eq!(out.outputs, vec![vec![1], vec![1]]);
    }
}
