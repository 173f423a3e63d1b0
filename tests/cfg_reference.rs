//! The shared block graph (`bvram::cfg::Cfg`) against an independent
//! reference (`common::reference`) on three hand-built shapes: nested
//! loops, a genuinely irreducible pair of loop entries, and a jump target
//! one past the end.  The sweep over everything the repo compiles (the
//! stdlib roster and the five golden examples, at `O0` and `O1`) lives in
//! `tests/roster/cfg_reference.rs`, over the shared program cache.

use bvram::cfg::Cfg;
use bvram::{cost_program, Builder, Instr, Op, TripBound};
use nsc_compile::{optimize, OptLevel};

mod common;
use common::reference::assert_cfg_matches_reference;

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
        .trip_hint(TripBound::Len { reg: 5 })
        .goto("outer")
        .label("exit")
        .push(Instr::Halt);
    let p = b.build().unwrap();
    assert_cfg_matches_reference("nested loops", &p);
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
    assert_cfg_matches_reference("irreducible", &p);
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
    assert_cfg_matches_reference("one past the end", &p);
    let cfg = Cfg::build(&p);
    assert_eq!(cfg.n_blocks(), 2);
    assert_eq!(cfg.succs(0), &[1], "only the fallthrough is an edge");
    let opt = optimize(p.clone(), OptLevel::O1);
    let out = bvram::run_program(&opt, &[vec![7, 8]]).unwrap();
    assert_eq!(out.outputs[0], vec![7, 8]);
    assert!(bvram::run_program(&opt, &[vec![]]).is_err(), "FellOffEnd");
}
