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
//! The analysis runs over the *move-related* registers only, with the
//! shared block liveness of [`super::regs`]; then one backward sweep per
//! block builds the interference graph, and union-find with adjacency
//! merging does the coalescing.  A `pinned` register cannot be renamed
//! away: two pinned registers never merge, and a pinned one is always
//! its group's representative.

use super::regs::{liveness, positional, rename, uses_of, Universe};
use super::remove_marked;
use bvram::analysis::RegSet;
use bvram::cfg::Cfg;
use bvram::{Instr, Program, Reg, TripBound};
use std::collections::HashSet;

/// Pass name used by translation-validation diagnostics.
pub const NAME: &str = "coalesce";

/// The root of `x`'s union-find tree, halving the path on the way.
fn find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        parent[x as usize] = parent[parent[x as usize] as usize];
        x = parent[x as usize];
    }
    x
}

/// Which registers of `u` keep their names: the positional ones, those
/// live into the entry block (the entry gives them their input or the
/// empty vector), and those a `TripBound::Len` certificate names.
fn pinned(prog: &Program, u: &Universe, entry_live: &RegSet) -> Vec<bool> {
    let certified: HashSet<Reg> = (prog.trip_hints.iter())
        .filter_map(|h| match h.bound {
            TripBound::Len { reg } => Some(reg),
            TripBound::Const(_) => None,
        })
        .collect();
    let pin = |(c, r): (usize, &Reg)| {
        (*r as usize) < positional(prog) || entry_live.contains(c as u32) || certified.contains(r)
    };
    u.regs.iter().enumerate().map(pin).collect()
}

/// Coalesces move-related registers.  Returns `true` if anything changed.
pub fn coalesce_moves(prog: &mut Program) -> bool {
    // 1. Candidate universe: registers appearing in a Move.
    let mut moves = Vec::new();
    for (pc, ins) in prog.instrs.iter().enumerate() {
        if let Instr::Move { dst, src } = *ins {
            moves.push((pc, dst, src));
        }
    }
    if moves.is_empty() {
        return false;
    }
    let u = Universe::of(prog.n_regs, moves.iter().flat_map(|&(_, d, s)| [d, s]));
    let ncand = u.regs.len();

    // 2. Block structure and liveness over the candidates.
    let cfg = Cfg::build(prog);
    let (live_in, live_out) = liveness(prog, &cfg, &u);

    // 3. Interference graph over candidates: a def of one while the other
    // is live, except at the move between exactly that pair.  Only pairs
    // inside the same *move-relation component* can ever merge, so edges
    // are recorded for those pairs only — this keeps the walk linear even
    // when thousands of candidates are simultaneously live.
    let mut comp: Vec<u32> = (0..ncand as u32).collect();
    for &(_, d, s) in &moves {
        let (cd, cs) = (u.slot(d).unwrap(), u.slot(s).unwrap());
        let (rd, rs) = (find(&mut comp, cd), find(&mut comp, cs));
        if rd != rs {
            comp[rd as usize] = rs;
        }
    }
    let mut members: Vec<Vec<u32>> = vec![Vec::new(); ncand];
    for c in 0..ncand as u32 {
        members[find(&mut comp, c) as usize].push(c);
    }
    let mut adj = vec![HashSet::new(); ncand];
    fn add_edge(adj: &mut [HashSet<u32>], a: u32, b: u32) {
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
                if let Some(cd) = u.slot(d) {
                    let excluded = match ins {
                        Instr::Move { src, .. } => u.slot(*src),
                        _ => None,
                    };
                    let rep = find(&mut comp, cd) as usize;
                    for &c in &members[rep] {
                        if c != cd && Some(c) != excluded && live.contains(c) {
                            add_edge(&mut adj, cd, c);
                        }
                    }
                    live.remove(cd);
                }
            }
            for c in uses_of(ins, prog.r_out).filter_map(|r| u.slot(r)) {
                live.insert(c);
            }
        }
    }
    // The entry implicitly defines every register (inputs get their
    // values, the rest become empty) while the entry block's live-in
    // candidates hold those very values: make the input registers
    // interfere with them.
    let entry_live = &live_in[0];
    let mut pinned = pinned(prog, &u, entry_live);
    for r in 0..prog.r_in as Reg {
        if let Some(cr) = u.slot(r) {
            let rep = find(&mut comp, cr) as usize;
            for &c in &members[rep] {
                if entry_live.contains(c) {
                    add_edge(&mut adj, cr, c);
                }
            }
        }
    }

    // 4. Conservative coalescing: union move-related, non-interfering
    // groups; a pinned register must stay the representative.
    let mut uf: Vec<u32> = (0..ncand as u32).collect();
    let mut delete = vec![false; prog.instrs.len()];
    let mut did = false;
    for &(pc, d, s) in &moves {
        let (cd, cs) = (u.slot(d).unwrap(), u.slot(s).unwrap());
        let (rd, rs) = (find(&mut uf, cd), find(&mut uf, cs));
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
        uf[gone as usize] = rep;
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

    // 5. Apply: rename every candidate to its representative register.
    let n_regs = prog.n_regs;
    rename(prog, n_regs, |r| {
        Some(u.slot(r).map_or(r, |c| u.regs[find(&mut uf, c) as usize]))
    });
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
