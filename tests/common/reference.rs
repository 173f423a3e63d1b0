//! Independent references the repo's analyses are checked against, each
//! shared by a sweep over compiled programs (`tests/roster`) and by the
//! synthetic or fuzz-generated programs of the analysis's own binary.

use bvram::analysis::RegSet;
use bvram::cfg::Cfg;
use bvram::instr::{Instr, Reg};
use bvram::verify::{replay, run_forward, ForwardAnalysis};
use bvram::{verify_program, CostReport, Program, Stats};

/// The reference for the verifier's definite-initialization check: the
/// textbook must-dataflow over *all* `n_regs` registers at every block
/// entry.  Affordable on single programs, not on `map(f)` kernels
/// (hundreds of thousands of registers times thousands of blocks).
struct DenseInit;

impl ForwardAnalysis for DenseInit {
    type State = RegSet;

    fn entry_state(&self, prog: &Program) -> RegSet {
        let mut s = RegSet::new(prog.n_regs);
        for r in 0..prog.r_in {
            s.insert(r as Reg);
        }
        s
    }

    fn transfer(&self, _pc: usize, ins: &Instr, state: &mut RegSet) {
        if let Some(d) = ins.output() {
            state.insert(d);
        }
    }

    fn join(&self, state: &mut RegSet, incoming: &RegSet) -> bool {
        state.intersect_with(incoming)
    }
}

/// `verify_program(prog).uninit_reads` must be the reference's list:
/// same `(pc, reg)` pairs, same order.
pub fn assert_init_matches_reference(what: &str, prog: &Program) {
    let cfg = Cfg::build(prog);
    let init = run_forward(prog, &cfg, &DenseInit);
    let mut want = Vec::new();
    replay(prog, &cfg, &DenseInit, &init, |pc, ins, st| {
        let reads = match ins {
            Instr::Halt => (0..prog.r_out as Reg).collect(),
            _ => ins.inputs().to_vec(),
        };
        want.extend(
            reads
                .into_iter()
                .filter(|&r| !st.contains(r))
                .map(|r| (pc, r)),
        );
    });
    assert_eq!(verify_program(prog).uninit_reads, want, "{what}\n{prog}");
}

/// Leaders, edges between entry-reachable blocks, and dominator sets,
/// rebuilt from the instruction stream alone: the iterative *bitset*
/// dominator sets the cost analyzer computed privately before the CFG
/// was shared.
struct CfgReference {
    leaders: Vec<usize>,
    succs: Vec<Vec<usize>>,
    reach: Vec<bool>,
    /// `dom[b][a]` ⇔ block `a` dominates block `b` (reachable `b` only).
    dom: Vec<Vec<bool>>,
}

impl CfgReference {
    fn of(prog: &Program) -> CfgReference {
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
        CfgReference {
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
pub fn assert_cfg_matches_reference(what: &str, prog: &Program) {
    let cfg = Cfg::build(prog);
    let r = CfgReference::of(prog);
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

/// The lengths the machine sees: what cost certificates are evaluated at.
pub fn reg_lens(regs: &[Vec<u64>]) -> Vec<u64> {
    regs.iter().map(|r| r.len() as u64).collect()
}

/// Checks one successful run against its certificate: the measured stats
/// must sit under each finite bound evaluated at `lens` (a `⊤` bound
/// constrains nothing — that's what the precision tests are for).
pub fn assert_sound(what: &str, report: &CostReport, lens: &[u64], stats: &Stats) {
    assert_eq!(
        lens.len(),
        report.n_syms,
        "{what}: certificate arity disagrees with the calling convention"
    );
    if let Some(t) = report.time.eval(lens) {
        assert!(
            stats.time <= t,
            "{what}: measured T {} exceeds bound {} at lens {lens:?}",
            stats.time,
            t
        );
    }
    if let Some(w) = report.work.eval(lens) {
        assert!(
            stats.work <= w,
            "{what}: measured W {} exceeds bound {} at lens {lens:?}",
            stats.work,
            w
        );
    }
}

/// The most registers live at once before any instruction of `prog`, by
/// the textbook backward liveness over *all* `n_regs` registers at every
/// block (`Halt` reads the outputs): the floor for any register
/// allocation.  Affordable once registers are allocated, as they are at
/// `O1`.
pub fn max_live(prog: &Program) -> usize {
    let cfg = Cfg::build(prog);
    let step = |live: &mut RegSet, ins: &Instr| {
        if let Some(d) = ins.output() {
            live.remove(d);
        }
        let reads = match ins {
            Instr::Halt => (0..prog.r_out as Reg).collect(),
            _ => ins.inputs().to_vec(),
        };
        for r in reads {
            live.insert(r);
        }
    };
    let live_out = |live_in: &[RegSet], b: usize| {
        let mut live = RegSet::new(prog.n_regs);
        for &s in cfg.succs(b) {
            live.union_with(&live_in[s as usize]);
        }
        live
    };
    let mut live_in = vec![RegSet::new(prog.n_regs); cfg.n_blocks()];
    let mut changed = true;
    while changed {
        changed = false;
        for b in (0..cfg.n_blocks()).rev() {
            let mut live = live_out(&live_in, b);
            for pc in cfg.range(b).rev() {
                step(&mut live, &prog.instrs[pc]);
            }
            changed |= live != live_in[b];
            live_in[b] = live;
        }
    }
    let mut most = 0;
    for b in 0..cfg.n_blocks() {
        let mut live = live_out(&live_in, b);
        for pc in cfg.range(b).rev() {
            step(&mut live, &prog.instrs[pc]);
            most = most.max(live.iter().count());
        }
    }
    most
}
