//! The shared block graph (`bvram::cfg::Cfg`) against an independent
//! reference.  Every analysis and optimizer pass reads its block
//! structure and dominance facts from that one type, so it is checked
//! block for block against a from-scratch reconstruction — leaders,
//! reachable-only edges, and the iterative *bitset* dominator sets the
//! cost analyzer computed privately before the CFG was shared — on
//! everything the repo compiles (the stdlib roster and the five golden
//! examples, at `O0` and `O1`) and on three hand-built shapes: nested
//! loops, a genuinely irreducible pair of loop entries, and a jump
//! target one past the end.

use bvram::cfg::Cfg;
use bvram::{cost_program, Builder, Instr, Op, Program, TripBound};
use nsc_compile::{compile_nsc_with, optimize, OptLevel};

mod common;
use common::typed_suite;
use nsc_runtime::workloads::goldens;

/// Leaders, edges between entry-reachable blocks, and dominator sets,
/// rebuilt from the instruction stream alone.
struct Reference {
    leaders: Vec<usize>,
    succs: Vec<Vec<usize>>,
    reach: Vec<bool>,
    /// `dom[b][a]` ⇔ block `a` dominates block `b` (reachable `b` only).
    dom: Vec<Vec<bool>>,
}

impl Reference {
    fn of(prog: &Program) -> Reference {
        let n = prog.instrs.len();
        let mut is_leader = vec![false; n];
        if n > 0 {
            is_leader[0] = true;
        }
        for (pc, ins) in prog.instrs.iter().enumerate() {
            let ends_block = match ins {
                Instr::Goto { target } | Instr::IfEmptyGoto { target, .. } => {
                    if (*target as usize) < n {
                        is_leader[*target as usize] = true;
                    }
                    true
                }
                Instr::Halt => true,
                _ => false,
            };
            if ends_block && pc + 1 < n {
                is_leader[pc + 1] = true;
            }
        }
        let leaders: Vec<usize> = (0..n).filter(|&pc| is_leader[pc]).collect();
        let nb = leaders.len();
        let block_of = |pc: usize| leaders.partition_point(|&l| l <= pc) - 1;
        let all_succs: Vec<Vec<usize>> = (0..nb)
            .map(|b| {
                let last = leaders.get(b + 1).copied().unwrap_or(n) - 1;
                let pcs = match &prog.instrs[last] {
                    Instr::Halt => vec![],
                    Instr::Goto { target } => vec![*target as usize],
                    Instr::IfEmptyGoto { target, .. } => vec![*target as usize, last + 1],
                    _ => vec![last + 1],
                };
                pcs.into_iter().filter(|&t| t < n).map(block_of).collect()
            })
            .collect();
        let mut reach = vec![false; nb];
        let mut stack = if nb > 0 { vec![0] } else { vec![] };
        while let Some(b) = stack.pop() {
            if !std::mem::replace(&mut reach[b], true) {
                stack.extend(&all_succs[b]);
            }
        }
        let succs: Vec<Vec<usize>> = (0..nb)
            .map(|b| {
                if reach[b] {
                    all_succs[b].clone()
                } else {
                    vec![]
                }
            })
            .collect();
        let mut preds = vec![Vec::new(); nb];
        for (b, ss) in succs.iter().enumerate() {
            for &s in ss {
                preds[s].push(b);
            }
        }
        // dom(entry) = {entry}; dom(b) = {b} ∪ ⋂ dom(preds(b)), iterated
        // from "everything" down to the greatest fixpoint.
        let mut dom = vec![vec![true; nb]; nb];
        if nb > 0 {
            dom[0] = vec![false; nb];
            dom[0][0] = true;
        }
        let mut changed = true;
        while changed {
            changed = false;
            for b in (1..nb).filter(|&b| reach[b]) {
                let mut new = vec![true; nb];
                for &p in &preds[b] {
                    for (x, y) in new.iter_mut().zip(&dom[p]) {
                        *x &= *y;
                    }
                }
                new[b] = true;
                if new != dom[b] {
                    dom[b] = new;
                    changed = true;
                }
            }
        }
        Reference {
            leaders,
            succs,
            reach,
            dom,
        }
    }

    fn dominates(&self, a: usize, b: usize) -> bool {
        self.reach[a] && self.reach[b] && self.dom[b][a]
    }
}

/// Asserts `Cfg::build(prog)` agrees with the reference on blocks,
/// edges, reachability, dominance (every ordered pair), immediate
/// dominators and back edges.
fn assert_matches_reference(what: &str, prog: &Program) {
    let cfg = Cfg::build(prog);
    let r = Reference::of(prog);
    let nb = r.leaders.len();
    assert_eq!(cfg.n_blocks(), nb, "{what}: block count");
    let mut back = Vec::new();
    for b in 0..nb {
        assert_eq!(cfg.leader(b), r.leaders[b], "{what}: leader of block {b}");
        assert_eq!(cfg.block_reachable(b), r.reach[b], "{what}: reach {b}");
        let succs: Vec<usize> = cfg.succs(b).iter().map(|&s| s as usize).collect();
        assert_eq!(succs, r.succs[b], "{what}: successors of block {b}");
        for a in 0..nb {
            assert_eq!(
                cfg.dominates(a, b),
                r.dominates(a, b),
                "{what}: does block {a} dominate block {b}?"
            );
        }
        // The immediate dominator is the strict dominator every other
        // strict dominator dominates.
        let strict: Vec<usize> = (0..nb).filter(|&a| a != b && r.dominates(a, b)).collect();
        let idom = strict
            .iter()
            .copied()
            .find(|&d| strict.iter().all(|&a| r.dominates(a, d)));
        assert_eq!(cfg.idom(b), idom, "{what}: idom of block {b}");
        back.extend(
            r.succs[b]
                .iter()
                .filter(|&&s| r.dominates(s, b))
                .map(|&s| (b, s)),
        );
    }
    assert_eq!(cfg.back_edges().collect::<Vec<_>>(), back, "{what}");
    for &p in cfg.rpo() {
        assert!(r.reach[p as usize], "{what}: rpo lists a dead block");
    }
    assert_eq!(
        cfg.rpo().len(),
        r.reach.iter().filter(|&&x| x).count(),
        "{what}"
    );
}

/// The quadratic reference is affordable on everything compiled here
/// (the largest, `combine_flags` at `O0`, has ~2000 blocks).
#[test]
fn cfg_agrees_with_reference_on_the_roster_and_goldens() {
    std::thread::Builder::new()
        .stack_size(512 * 1024 * 1024)
        .spawn(|| {
            for (name, f, dom) in typed_suite() {
                for level in [OptLevel::O0, OptLevel::O1] {
                    let c = compile_nsc_with(&f, &dom, level)
                        .unwrap_or_else(|e| panic!("compiling {name} at {level:?}: {e}"));
                    assert_matches_reference(&format!("{name} at {level:?}"), &c.program);
                }
            }
            for (name, pure, dom, _) in goldens() {
                for level in [OptLevel::O0, OptLevel::O1] {
                    let c = compile_nsc_with(&pure, &dom, level)
                        .unwrap_or_else(|e| panic!("compiling {name} at {level:?}: {e}"));
                    assert_matches_reference(&format!("{name} at {level:?}"), &c.program);
                }
            }
        })
        .expect("spawn worker")
        .join()
        .expect("worker panicked");
}

/// The doubling loop codegen emits for scans (`v1` doubles until it
/// reaches `|v0|`; constant trip certificate), falling out at `done`.
fn doubling_loop(b: &mut Builder, head: &str, done: &str) {
    b.push(Instr::Singleton { dst: 1, n: 1 });
    b.label(head);
    b.push(Instr::Length { dst: 2, src: 0 })
        .push(Instr::Arith {
            dst: 3,
            op: Op::Lt,
            a: 1,
            b: 2,
        })
        .push(Instr::Select { dst: 4, src: 3 })
        .if_empty_goto(4, done)
        .push(Instr::Arith {
            dst: 1,
            op: Op::Add,
            a: 1,
            b: 1,
        })
        .trip_hint(TripBound::Const(66))
        .goto(head);
    b.label(done);
}

#[test]
fn nested_loops_have_two_back_edges_and_a_finite_bound() {
    // outer: while v5 nonempty { inner doubling loop; v5 <- select(enumerate v5) }
    let mut b = Builder::new(2, 1);
    b.push(Instr::Move { dst: 5, src: 1 });
    b.label("outer").if_empty_goto(5, "exit");
    doubling_loop(&mut b, "inner", "inner_done");
    b.push(Instr::Enumerate { dst: 6, src: 5 })
        .push(Instr::Select { dst: 5, src: 6 })
        .trip_hint(TripBound::Len { reg: 5, add: 1 })
        .goto("outer")
        .label("exit")
        .push(Instr::Halt);
    let p = b.build().unwrap();
    assert_matches_reference("nested loops", &p);
    let cfg = Cfg::build(&p);
    let back: Vec<(usize, usize)> = cfg.back_edges().collect();
    assert_eq!(back.len(), 2, "{back:?}");
    let (inner, outer) = (back[0], back[1]);
    assert!(
        cfg.dominates(outer.1, inner.1),
        "outer head dominates inner"
    );
    assert!(!cfg.dominates(inner.1, outer.1));
    assert!(
        cfg.dominates(inner.1, outer.0),
        "the outer latch is past the inner loop"
    );
    let r = cost_program(&p);
    assert!(r.is_finite(), "{r}");
    for n in [0usize, 1, 3, 9] {
        let v: Vec<u64> = (0..n as u64).collect();
        let out = bvram::run_program(&p, &[v.clone(), v]).unwrap();
        let lens = [n as u64, n as u64];
        assert!(out.stats.time <= r.time.eval(&lens).unwrap());
        assert!(out.stats.work <= r.work.eval(&lens).unwrap());
    }
}

#[test]
fn irreducible_pair_of_entries_is_still_top_with_pc_and_reason() {
    // The entry branches into either half of the cycle a ⇄ b, so
    // neither half dominates the other: the retreating edge b → a is no
    // back edge, and no natural loop exists to certify.
    let mut b = Builder::new(2, 1);
    b.if_empty_goto(0, "b")
        .label("a")
        .push(Instr::Select { dst: 0, src: 0 })
        .if_empty_goto(1, "done")
        .label("b")
        .push(Instr::Enumerate { dst: 1, src: 0 })
        .trip_hint(TripBound::Const(4))
        .goto("a")
        .label("done")
        .push(Instr::Halt);
    let p = b.build().unwrap();
    assert_matches_reference("irreducible", &p);
    let cfg = Cfg::build(&p);
    assert_eq!(cfg.back_edges().count(), 0);
    assert_eq!((cfg.idom(1), cfg.idom(2)), (Some(0), Some(0)));
    let r = cost_program(&p);
    assert_eq!(
        r.to_string(),
        "T' <= ⊤ (pc 4: irreducible control flow)\nW' <= ⊤ (pc 4: irreducible control flow)"
    );
}

#[test]
fn jump_target_one_past_the_end_is_no_edge() {
    // `end` labels the position after the last instruction: taking the
    // branch faults `FellOffEnd`.  No block exists there, so the CFG
    // must not index one (the move-coalescer's `block_of[n]` panic).
    let mut b = Builder::new(1, 1);
    b.if_empty_goto(0, "end")
        .push(Instr::Move { dst: 1, src: 0 })
        .push(Instr::Move { dst: 0, src: 1 })
        .push(Instr::Halt)
        .label("end");
    let p = b.build().unwrap();
    assert!(matches!(p.instrs[0], Instr::IfEmptyGoto { target: 4, .. }));
    assert_matches_reference("one past the end", &p);
    let cfg = Cfg::build(&p);
    assert_eq!(cfg.n_blocks(), 2);
    assert_eq!(cfg.succs(0), &[1], "only the fallthrough is an edge");
    let opt = optimize(p.clone(), OptLevel::O1);
    let out = bvram::run_program(&opt, &[vec![7, 8]]).unwrap();
    assert_eq!(out.outputs[0], vec![7, 8]);
    assert!(bvram::run_program(&opt, &[vec![]]).is_err(), "FellOffEnd");
}
