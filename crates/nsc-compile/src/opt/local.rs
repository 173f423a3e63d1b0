//! Per-basic-block copy propagation and local value numbering.
//!
//! Within a block, every register definition gets a *version*; a `Move`
//! records that its destination is a copy of (a specific version of) its
//! source, and later uses read the canonical register directly.  Value
//! numbering keys each computation on its opcode plus the versions of its
//! operands, so a recomputed `Length`/`Enumerate`/arith/route is
//! recognized as available.
//!
//! Rewrites are chosen so no execution can get costlier:
//!
//! * rewriting a *use* to the canonical copy reads an equal value (equal
//!   length ⇒ identical work);
//! * a literal self-`Move` (after canonicalization) is deleted outright;
//! * a redundant **fallible** computation (`Arith`, `bm_route`) is
//!   replaced by a `Move` from the available result — safe because the
//!   identical instruction already executed earlier in the same block
//!   (same operand values: had it faulted, control would never reach the
//!   duplicate), and never costlier (`Move` costs `2·len` against `3·len`
//!   for arith and `≥ 2·len` for `bm_route`);
//! * a redundant **infallible** computation is left in place and merely
//!   recorded as a copy; if the copy propagation makes it dead, global
//!   DCE removes it.  (`sbm_route` is also left in place: a `Move` of its
//!   output can exceed the route's own cost, e.g. for cartesian products.)

use super::remove_marked;
use bvram::cfg::Cfg;
use bvram::{Instr, Op, Program, Reg};
use std::collections::HashMap;

/// Pass name used by translation-validation diagnostics.
pub const NAME: &str = "local";

/// A register at a specific definition version.
type Versioned = (Reg, u32);

/// A value-number key: opcode + versioned operands + immediates.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Expr {
    Arith(Op, Versioned, Versioned),
    Append(Versioned, Versioned),
    Length(Versioned),
    Enumerate(Versioned),
    Select(Versioned),
    Empty,
    Singleton(u64),
    BmRoute(Versioned, Versioned, Versioned),
    SbmRoute(Versioned, Versioned, Versioned, Versioned),
}

struct BlockState {
    /// Definition versions, global across blocks (never reset: stale
    /// versioned references simply stop matching).
    ver: Vec<u32>,
    /// `copy[r] = (s, v)`: `r` currently holds the same value as `s`,
    /// provided `s` is still at version `v`.  Cleared per block.
    copy: HashMap<Reg, Versioned>,
    /// Available expressions.  Cleared per block.
    avail: HashMap<Expr, Versioned>,
}

impl BlockState {
    fn new(n_regs: usize) -> Self {
        BlockState {
            ver: vec![0; n_regs],
            copy: HashMap::new(),
            avail: HashMap::new(),
        }
    }

    fn reset_block(&mut self) {
        self.copy.clear();
        self.avail.clear();
    }

    /// Canonical representative of `r` (one hop: copies are recorded
    /// against canonical sources).
    fn resolve(&self, r: Reg) -> Reg {
        match self.copy.get(&r) {
            Some(&(s, v)) if self.ver[s as usize] == v => s,
            _ => r,
        }
    }

    fn versioned(&self, r: Reg) -> Versioned {
        (r, self.ver[r as usize])
    }

    /// Records a definition of `dst`, optionally as a copy of `src`.
    fn define(&mut self, dst: Reg, copy_of: Option<Reg>) {
        self.ver[dst as usize] += 1;
        match copy_of {
            Some(s) => {
                let v = self.versioned(s);
                self.copy.insert(dst, v);
            }
            None => {
                self.copy.remove(&dst);
            }
        }
    }
}

/// The value-number key for a (use-rewritten) instruction, if it computes
/// a value.
fn expr_of(st: &BlockState, ins: &Instr) -> Option<Expr> {
    Some(match ins {
        Instr::Arith { op, a, b, .. } => Expr::Arith(*op, st.versioned(*a), st.versioned(*b)),
        Instr::Append { a, b, .. } => Expr::Append(st.versioned(*a), st.versioned(*b)),
        Instr::Length { src, .. } => Expr::Length(st.versioned(*src)),
        Instr::Enumerate { src, .. } => Expr::Enumerate(st.versioned(*src)),
        Instr::Select { src, .. } => Expr::Select(st.versioned(*src)),
        Instr::Empty { .. } => Expr::Empty,
        Instr::Singleton { n, .. } => Expr::Singleton(*n),
        Instr::BmRoute {
            bound,
            counts,
            values,
            ..
        } => Expr::BmRoute(
            st.versioned(*bound),
            st.versioned(*counts),
            st.versioned(*values),
        ),
        Instr::SbmRoute {
            bound,
            counts,
            data,
            segs,
            ..
        } => Expr::SbmRoute(
            st.versioned(*bound),
            st.versioned(*counts),
            st.versioned(*data),
            st.versioned(*segs),
        ),
        Instr::Move { .. } | Instr::Goto { .. } | Instr::IfEmptyGoto { .. } | Instr::Halt => {
            return None
        }
    })
}

/// Replacing a redundant computation with a `Move` from the available
/// result: only for fallible instructions (the `Move` both saves work and
/// licenses later DCE), and only where `Move` is provably never costlier.
fn move_replacement_profitable(ins: &Instr) -> bool {
    matches!(ins, Instr::Arith { .. } | Instr::BmRoute { .. })
}

/// Runs copy propagation + value numbering over every basic block.
/// Returns `true` if anything changed.
pub fn propagate_and_number(prog: &mut Program) -> bool {
    let n = prog.instrs.len();
    if n == 0 {
        return false;
    }
    let cfg = Cfg::build(prog);
    let mut delete = vec![false; n];
    let mut changed = false;

    let mut st = BlockState::new(prog.n_regs);
    for b in 0..cfg.n_blocks() {
        st.reset_block();
        for pc in cfg.range(b) {
            let ins = &mut prog.instrs[pc];
            // 1. Rewrite uses through the copy map.
            let out = ins.output();
            let mut rewrote = false;
            ins.rename_regs(|r| {
                if Some(r) == out {
                    // rename_regs visits the output too; leave it alone.
                    r
                } else {
                    let c = st.resolve(r);
                    rewrote |= c != r;
                    c
                }
            });
            changed |= rewrote;

            // 2. Self-moves are no-ops: delete.
            if let Instr::Move { dst, src } = ins {
                if dst == src {
                    delete[pc] = true;
                    changed = true;
                    continue;
                }
            }

            // 3. Moves record a copy; computations are value-numbered.
            match prog.instrs[pc].clone() {
                Instr::Move { dst, src } => st.define(dst, Some(src)),
                ins2 => {
                    let Some(dst) = ins2.output() else { continue };
                    match expr_of(&st, &ins2) {
                        Some(key) => {
                            let hit = st
                                .avail
                                .get(&key)
                                .copied()
                                .filter(|(r, v)| st.ver[*r as usize] == *v && *r != dst);
                            match hit {
                                Some((rep, _)) => {
                                    if move_replacement_profitable(&ins2) {
                                        prog.instrs[pc] = Instr::Move { dst, src: rep };
                                        changed = true;
                                    }
                                    st.define(dst, Some(rep));
                                }
                                None => {
                                    st.define(dst, None);
                                    let vdst = st.versioned(dst);
                                    st.avail.insert(key, vdst);
                                }
                            }
                        }
                        None => st.define(dst, None),
                    }
                }
            }
        }
    }
    remove_marked(prog, &delete) | changed
}
