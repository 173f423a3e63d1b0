//! The BVRAM interpreter with exact cost accounting — the only code in
//! the workspace that fetches, dispatches and costs instructions.
//!
//! Per section 2: the **parallel time complexity** `T` is the number of
//! instructions executed (each instruction is one parallel step), and the
//! **work complexity** `W` is the sum over executed instructions of the
//! lengths of their input and output registers.
//!
//! One machine, one loop: every instruction body runs sequentially on the
//! calling thread.  Parallelism on a real host is across requests — one
//! warm machine per worker thread ([`crate::lanes`]) — not inside one
//! instruction.

use crate::instr::{Instr, Op};
use crate::program::Program;
use std::fmt;

/// A vector register value.
pub type Vector = Vec<u64>;

/// Execution statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// Parallel time: instructions executed.  The final `Halt` counts as
    /// one executed instruction.
    pub time: u64,
    /// Work: Σ lengths of input and output registers per instruction.
    pub work: u64,
    /// Largest register length *written* during the run (memory
    /// high-water mark): the maximum, over executed instructions with an
    /// output register, of the output's length after the write.  Input
    /// registers that are never written do not contribute, so a program
    /// that only reads its inputs reports `max_len == 0`.
    pub max_len: usize,
}

/// Machine-level runtime errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MachineError {
    /// Elementwise op on registers of different lengths.
    LengthMismatch {
        /// The instruction index.
        at: usize,
        /// Length of the first operand.
        a: usize,
        /// Length of the second operand.
        b: usize,
    },
    /// `bm_route`/`sbm_route` invariant violation.
    RouteInvariant {
        /// The instruction index.
        at: usize,
        /// Description of the violated invariant.
        what: &'static str,
    },
    /// Arithmetic fault (division by zero / overflow).
    Arithmetic {
        /// The instruction index.
        at: usize,
    },
    /// The program ran past its instruction budget.
    StepLimit,
    /// The program counter left the program without `halt`.
    FellOffEnd,
    /// Wrong number of input vectors supplied.
    BadInputArity {
        /// Expected input count.
        expected: usize,
        /// Provided input count.
        got: usize,
    },
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::LengthMismatch { at, a, b } => {
                write!(f, "instr {at}: elementwise op on lengths {a} != {b}")
            }
            MachineError::RouteInvariant { at, what } => {
                write!(f, "instr {at}: routing invariant violated: {what}")
            }
            MachineError::Arithmetic { at } => write!(f, "instr {at}: arithmetic fault"),
            MachineError::StepLimit => write!(f, "step limit exceeded"),
            MachineError::FellOffEnd => write!(f, "program counter fell off the end"),
            MachineError::BadInputArity { expected, got } => {
                write!(f, "expected {expected} inputs, got {got}")
            }
        }
    }
}

impl std::error::Error for MachineError {}

/// Result of a run: the output registers plus statistics.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The contents of the output registers `V0 … V_{r_out-1}`.
    pub outputs: Vec<Vector>,
    /// Time/work statistics.
    pub stats: Stats,
}

/// The BVRAM interpreter.
#[derive(Debug)]
pub struct Machine {
    regs: Vec<Vector>,
    step_limit: u64,
}

/// Computes `bm_route`.
pub fn bm_route(bound_len: usize, counts: &[u64], values: &[u64]) -> Result<Vector, &'static str> {
    let mut out = Vec::new();
    bm_route_into(&mut out, bound_len, counts, values)?;
    Ok(out)
}

/// [`bm_route`] into a caller-supplied buffer so the interpreter hot path
/// can recycle allocations.
fn bm_route_into(
    out: &mut Vector,
    bound_len: usize,
    counts: &[u64],
    values: &[u64],
) -> Result<(), &'static str> {
    validate_bm(bound_len, counts, values)?;
    out.clear();
    out.reserve(bound_len);
    for (c, v) in counts.iter().zip(values) {
        for _ in 0..*c {
            out.push(*v);
        }
    }
    Ok(())
}

/// Computes `sbm_route`: replicate subsequence `i` of `(data, segs)`
/// exactly `counts[i]` times.
pub fn sbm_route(
    bound_len: usize,
    counts: &[u64],
    data: &[u64],
    segs: &[u64],
) -> Result<Vector, &'static str> {
    let mut out = Vec::new();
    sbm_route_into(&mut out, bound_len, counts, data, segs)?;
    Ok(out)
}

/// [`sbm_route`] into a caller-supplied buffer.
fn sbm_route_into(
    out: &mut Vector,
    bound_len: usize,
    counts: &[u64],
    data: &[u64],
    segs: &[u64],
) -> Result<(), &'static str> {
    validate_sbm(bound_len, counts, data, segs)?;
    out.clear();
    let mut pos = 0usize;
    for (c, s) in counts.iter().zip(segs) {
        let s = *s as usize;
        let seg = &data[pos..pos + s];
        for _ in 0..*c {
            out.extend_from_slice(seg);
        }
        pos += s;
    }
    Ok(())
}

/// The `bm_route` invariants, checked in a fixed order so a violation
/// always reports the same fault message.
fn validate_bm(bound_len: usize, counts: &[u64], values: &[u64]) -> Result<(), &'static str> {
    if counts.len() != values.len() {
        return Err("bm_route: |counts| != |values|");
    }
    let total: u64 = counts.iter().sum();
    if total != bound_len as u64 {
        return Err("bm_route: sum(counts) != |bound|");
    }
    Ok(())
}

/// The `sbm_route` invariants, checked in a fixed order so a violation
/// always reports the same fault message.
fn validate_sbm(
    bound_len: usize,
    counts: &[u64],
    data: &[u64],
    segs: &[u64],
) -> Result<(), &'static str> {
    if counts.len() != segs.len() {
        return Err("sbm_route: |counts| != |segs|");
    }
    let total: u64 = counts.iter().sum();
    if total != bound_len as u64 {
        return Err("sbm_route: sum(counts) != |bound|");
    }
    let data_total: u64 = segs.iter().sum();
    if data_total != data.len() as u64 {
        return Err("sbm_route: sum(segs) != |data|");
    }
    Ok(())
}

/// Splits mutable access: `(&mut regs[i], &regs[j])` for `i != j`.
fn reg_pair_mut(regs: &mut [Vector], i: usize, j: usize) -> (&mut Vector, &Vector) {
    debug_assert_ne!(i, j);
    if i < j {
        let (lo, hi) = regs.split_at_mut(j);
        (&mut lo[i], &hi[0])
    } else {
        let (lo, hi) = regs.split_at_mut(i);
        (&mut hi[0], &lo[j])
    }
}

// Aliasing-aware instruction bodies: each recycles the destination buffer
// instead of allocating.

/// `dst[i] ← op(a[i], b[i])`; `dst` is the destination's
/// own buffer and a `None` operand aliases it (updated in place).  `None`
/// on an arithmetic fault.
fn arith_fill(op: Op, dst: &mut Vector, a: Option<&[u64]>, b: Option<&[u64]>) -> Option<()> {
    match (a, b) {
        (None, None) => {
            for x in dst.iter_mut() {
                *x = op.apply(*x, *x)?;
            }
        }
        (None, Some(b)) => {
            for (x, y) in dst.iter_mut().zip(b) {
                *x = op.apply(*x, *y)?;
            }
        }
        (Some(a), None) => {
            for (y, x) in dst.iter_mut().zip(a) {
                *y = op.apply(*x, *y)?;
            }
        }
        (Some(a), Some(b)) => {
            dst.clear();
            dst.reserve(a.len());
            for (x, y) in a.iter().zip(b) {
                dst.push(op.apply(*x, *y)?);
            }
        }
    }
    Some(())
}

/// `Vdst ← Vsrc` (no-op when `dst == src`; the cost is still charged by
/// the caller).
fn exec_move(regs: &mut [Vector], dst: usize, src: usize) {
    if dst != src {
        let (d, s) = reg_pair_mut(regs, dst, src);
        d.clear();
        d.extend_from_slice(s);
    }
}

/// `Vdst ← Va @ Vb`.
fn exec_append(regs: &mut [Vector], dst: usize, a: usize, b: usize) {
    if dst == a && dst == b {
        let d = &mut regs[dst];
        d.extend_from_within(..);
    } else if dst == a {
        let (d, vb) = reg_pair_mut(regs, dst, b);
        d.extend_from_slice(vb);
    } else if dst == b {
        let (d, va) = reg_pair_mut(regs, dst, a);
        d.splice(0..0, va.iter().copied());
    } else {
        let mut out = std::mem::take(&mut regs[dst]);
        out.clear();
        out.extend_from_slice(&regs[a]);
        out.extend_from_slice(&regs[b]);
        regs[dst] = out;
    }
}

/// `Vdst ← σ(Vsrc)` (in-place `retain` when aliased).
fn exec_select(regs: &mut [Vector], dst: usize, src: usize) {
    if dst == src {
        regs[dst].retain(|x| *x != 0);
    } else {
        let mut out = std::mem::take(&mut regs[dst]);
        out.clear();
        out.extend(regs[src].iter().copied().filter(|x| *x != 0));
        regs[dst] = out;
    }
}

impl Machine {
    /// A machine sized for the program, with no step limit.
    pub fn new(n_regs: usize) -> Self {
        Machine {
            regs: vec![Vec::new(); n_regs],
            step_limit: u64::MAX,
        }
    }

    /// Caps the number of executed instructions (guards divergence).
    ///
    /// The contract is inclusive: a run may execute **at most `limit`
    /// instructions** (the final `Halt` counts as one).  A program that
    /// halts in exactly `limit` steps succeeds; the `limit + 1`-th
    /// instruction is never fetched and the run returns
    /// [`MachineError::StepLimit`] instead.
    pub fn with_step_limit(mut self, limit: u64) -> Self {
        self.step_limit = limit;
        self
    }

    /// Checks the input arity, then resizes and clears the register file
    /// (capacity is retained, so a reused machine does not reallocate).
    fn prepare(&mut self, prog: &Program, got: usize) -> Result<(), MachineError> {
        if got != prog.r_in {
            return Err(MachineError::BadInputArity {
                expected: prog.r_in,
                got,
            });
        }
        if self.regs.len() < prog.n_regs {
            self.regs.resize(prog.n_regs, Vec::new());
        }
        for r in self.regs.iter_mut() {
            r.clear();
        }
        Ok(())
    }

    /// Runs a program on borrowed inputs (copied into the register file,
    /// reusing its buffers).  Prefer [`Machine::run_owned`] when the
    /// caller owns the input vectors — it skips the copy entirely.
    pub fn run(&mut self, prog: &Program, inputs: &[Vector]) -> Result<RunOutcome, MachineError> {
        self.run_observed(prog, inputs, |_, _, _| {})
    }

    /// [`Machine::run`] with a per-step observer: `observe(pc, instr,
    /// work)` is called once per executed instruction, after it executed,
    /// with exactly the work the step added to [`Stats::work`] — so an
    /// observer sees `stats.time` calls whose works sum to `stats.work`.
    /// The observer is a type parameter: `run`/`run_owned` pass an empty
    /// closure and compile to the unobserved loop.
    pub fn run_observed(
        &mut self,
        prog: &Program,
        inputs: &[Vector],
        observe: impl FnMut(usize, &Instr, u64),
    ) -> Result<RunOutcome, MachineError> {
        self.prepare(prog, inputs.len())?;
        for (i, v) in inputs.iter().enumerate() {
            self.regs[i].extend_from_slice(v);
        }
        self.exec_loop(prog, observe)
    }

    /// Runs a program taking ownership of the inputs: the vectors are
    /// moved into the register file with no copy or allocation.
    pub fn run_owned(
        &mut self,
        prog: &Program,
        inputs: Vec<Vector>,
    ) -> Result<RunOutcome, MachineError> {
        self.prepare(prog, inputs.len())?;
        for (i, v) in inputs.into_iter().enumerate() {
            self.regs[i] = v;
        }
        self.exec_loop(prog, |_, _, _| {})
    }

    fn exec_loop(
        &mut self,
        prog: &Program,
        mut observe: impl FnMut(usize, &Instr, u64),
    ) -> Result<RunOutcome, MachineError> {
        let mut stats = Stats::default();
        let mut pc = 0usize;
        loop {
            if stats.time >= self.step_limit {
                return Err(MachineError::StepLimit);
            }
            let Some(ins) = prog.instrs.get(pc) else {
                return Err(MachineError::FellOffEnd);
            };
            stats.time += 1;
            // Work: lengths of inputs now + output after execution.
            let in_work: u64 = ins
                .inputs()
                .iter()
                .map(|r| self.regs[*r as usize].len() as u64)
                .sum();

            let mut next = pc + 1;
            match ins {
                Instr::Move { dst, src } => {
                    exec_move(&mut self.regs, *dst as usize, *src as usize);
                }
                Instr::Arith { dst, op, a, b } => {
                    let [dst, a, b] = [*dst, *a, *b].map(|r| r as usize);
                    let (la, lb) = (self.regs[a].len(), self.regs[b].len());
                    if la != lb {
                        return Err(MachineError::LengthMismatch {
                            at: pc,
                            a: la,
                            b: lb,
                        });
                    }
                    // dst's own buffer is the destination; an operand
                    // aliasing it (`None`) is read from the slot about to
                    // be overwritten.
                    let mut out = std::mem::take(&mut self.regs[dst]);
                    let va = (a != dst).then(|| &self.regs[a][..]);
                    let vb = (b != dst).then(|| &self.regs[b][..]);
                    let done = arith_fill(*op, &mut out, va, vb);
                    self.regs[dst] = out;
                    done.ok_or(MachineError::Arithmetic { at: pc })?;
                }
                Instr::Empty { dst } => self.regs[*dst as usize].clear(),
                Instr::Singleton { dst, n } => {
                    let d = &mut self.regs[*dst as usize];
                    d.clear();
                    d.push(*n);
                }
                Instr::Append { dst, a, b } => {
                    exec_append(&mut self.regs, *dst as usize, *a as usize, *b as usize);
                }
                Instr::Length { dst, src } => {
                    let n = self.regs[*src as usize].len() as u64;
                    let d = &mut self.regs[*dst as usize];
                    d.clear();
                    d.push(n);
                }
                Instr::Enumerate { dst, src } => {
                    let n = self.regs[*src as usize].len();
                    let d = &mut self.regs[*dst as usize];
                    d.clear();
                    d.extend(0..n as u64);
                }
                Instr::BmRoute {
                    dst,
                    bound,
                    counts,
                    values,
                } => {
                    let [dst, bound, counts, values] =
                        [*dst, *bound, *counts, *values].map(|r| r as usize);
                    // Only the *length* of bound matters, so read it before
                    // recycling dst's buffer (dst may alias bound).  A dst
                    // aliasing a data operand routes into a fresh buffer.
                    let bound_len = self.regs[bound].len();
                    let mut out = if dst == counts || dst == values {
                        Vec::new()
                    } else {
                        std::mem::take(&mut self.regs[dst])
                    };
                    let (counts, values) = (&self.regs[counts], &self.regs[values]);
                    bm_route_into(&mut out, bound_len, counts, values)
                        .map_err(|what| MachineError::RouteInvariant { at: pc, what })?;
                    self.regs[dst] = out;
                }
                Instr::SbmRoute {
                    dst,
                    bound,
                    counts,
                    data,
                    segs,
                } => {
                    let [dst, bound, counts, data, segs] =
                        [*dst, *bound, *counts, *data, *segs].map(|r| r as usize);
                    let bound_len = self.regs[bound].len();
                    let mut out = if dst == counts || dst == data || dst == segs {
                        Vec::new()
                    } else {
                        std::mem::take(&mut self.regs[dst])
                    };
                    let (counts, data, segs) =
                        (&self.regs[counts], &self.regs[data], &self.regs[segs]);
                    sbm_route_into(&mut out, bound_len, counts, data, segs)
                        .map_err(|what| MachineError::RouteInvariant { at: pc, what })?;
                    self.regs[dst] = out;
                }
                Instr::Select { dst, src } => {
                    exec_select(&mut self.regs, *dst as usize, *src as usize);
                }
                Instr::Goto { target } => next = *target as usize,
                Instr::IfEmptyGoto { reg, target } => {
                    if self.regs[*reg as usize].is_empty() {
                        next = *target as usize;
                    }
                }
                Instr::Halt => {
                    stats.work += in_work;
                    observe(pc, ins, in_work);
                    let outputs = self.regs[..prog.r_out]
                        .iter_mut()
                        .map(std::mem::take)
                        .collect();
                    return Ok(RunOutcome { outputs, stats });
                }
            }
            let out_len = ins.output().map_or(0, |r| self.regs[r as usize].len());
            let work = in_work + out_len as u64;
            stats.work += work;
            stats.max_len = stats.max_len.max(out_len);
            observe(pc, ins, work);
            pc = next;
        }
    }
}

/// Convenience: run a program on inputs with a fresh machine.
pub fn run_program(prog: &Program, inputs: &[Vector]) -> Result<RunOutcome, MachineError> {
    Machine::new(prog.n_regs).run(prog, inputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Instr::*;
    use crate::program::Builder;

    #[test]
    fn bm_route_matches_paper_example() {
        // bm_route with bound [x0..x4], counts [2,0,3], values [a,b,c]
        // gives [a, a, c, c, c].
        let out = bm_route(5, &[2, 0, 3], &[10, 20, 30]).unwrap();
        assert_eq!(out, vec![10, 10, 30, 30, 30]);
    }

    #[test]
    fn sbm_route_matches_paper_example() {
        // Vj=[x0..x4], Vk=[2,0,3], Vl=[a0,a1,b0,b1,b2,c0,c1,c2], Vm=[2,3,3]
        // => [a0,a1,a0,a1,c0,c1,c2,c0,c1,c2,c0,c1,c2]
        let out = sbm_route(5, &[2, 0, 3], &[1, 2, 10, 11, 12, 20, 21, 22], &[2, 3, 3]).unwrap();
        assert_eq!(out, vec![1, 2, 1, 2, 20, 21, 22, 20, 21, 22, 20, 21, 22]);
    }

    #[test]
    fn sbm_route_cartesian_product() {
        // Singleton counts/segs: cartesian product of [5,6] and [1,2,3].
        // bound length must be 3 (counts [3] over values nested [1,2,3]...):
        // replicate the single subsequence [1,2,3] twice for the two x's?
        // Cartesian [x;2] x [y;3]: counts=[2], segs=[3], bound len 2.
        let out = sbm_route(2, &[2], &[1, 2, 3], &[3]).unwrap();
        assert_eq!(out, vec![1, 2, 3, 1, 2, 3]);
    }

    #[test]
    fn select_packs_nonzero() {
        let mut b = Builder::new(1, 1);
        b.push(Select { dst: 0, src: 0 }).push(Halt);
        let p = b.build().unwrap();
        let out = run_program(&p, &[vec![3, 0, 1, 0, 0, 4]]).unwrap();
        assert_eq!(out.outputs[0], vec![3, 1, 4]);
    }

    #[test]
    fn loop_with_jumps_halves_until_empty() {
        // v0: strip one element per iteration using enumerate+select.
        // body: v1 <- enumerate v0 ; v0 <- select v1 (drops the leading 0...)
        // Simpler: count iterations of halving a counter vector:
        // while v0 nonempty: v1 <- enumerate(v0); v0 <- select(v1) keeps
        // nonzero indices -> length shrinks by one each round.
        let mut b = Builder::new(1, 1);
        b.label("loop")
            .if_empty_goto(0, "done")
            .push(Enumerate { dst: 1, src: 0 })
            .push(Select { dst: 0, src: 1 })
            .goto("loop")
            .label("done")
            .push(Halt);
        let p = b.build().unwrap();
        let out = run_program(&p, &[vec![7; 5]]).unwrap();
        assert!(out.outputs[0].is_empty());
        // 5 iterations of 4 instrs (incl. jump) + final test + halt.
        assert_eq!(out.stats.time, 5 * 4 + 2);
    }

    #[test]
    fn work_counts_register_lengths() {
        let mut b = Builder::new(2, 1);
        b.push(Arith {
            dst: 0,
            op: Op::Add,
            a: 0,
            b: 1,
        })
        .push(Halt);
        let p = b.build().unwrap();
        let out = run_program(&p, &[vec![1; 10], vec![2; 10]]).unwrap();
        assert_eq!(out.outputs[0], vec![3; 10]);
        // add: inputs 10+10, output 10 => 30; halt: 0.
        assert_eq!(out.stats.work, 30);
        assert_eq!(out.stats.time, 2);
    }

    #[test]
    fn arith_length_mismatch_errors() {
        let mut b = Builder::new(2, 1);
        b.push(Arith {
            dst: 0,
            op: Op::Add,
            a: 0,
            b: 1,
        })
        .push(Halt);
        let p = b.build().unwrap();
        let err = run_program(&p, &[vec![1, 2], vec![3]]).unwrap_err();
        assert!(matches!(err, MachineError::LengthMismatch { .. }));
    }

    #[test]
    fn step_limit_boundary_is_inclusive_of_final_halt() {
        // The documented contract: at most `limit` instructions execute,
        // and a program halting in *exactly* `limit` steps succeeds.
        let mut b = Builder::new(0, 1);
        b.push(Singleton { dst: 0, n: 7 }).push(Halt);
        let p = b.build().unwrap();
        let out = Machine::new(p.n_regs)
            .with_step_limit(2)
            .run(&p, &[])
            .unwrap();
        assert_eq!(out.stats.time, 2);
        assert_eq!(out.outputs[0], vec![7]);
        // One step fewer cuts the run off before the halt.
        let err = Machine::new(p.n_regs)
            .with_step_limit(1)
            .run(&p, &[])
            .unwrap_err();
        assert_eq!(err, MachineError::StepLimit);
    }

    #[test]
    fn aliased_operands_hit_in_place_paths_with_identical_stats() {
        // dst == src / dst == a / dst == b aliasing takes the in-place,
        // allocation-free paths; outputs and Stats must equal the
        // hand-computed values of the naive semantics.
        let mut b = Builder::new(2, 2);
        b.push(Move { dst: 0, src: 0 }) // self-move: no-op, still costed
            .push(Arith {
                dst: 0,
                op: Op::Add,
                a: 0,
                b: 1,
            }) // dst == a
            .push(Arith {
                dst: 1,
                op: Op::Mul,
                a: 0,
                b: 1,
            }) // dst == b
            .push(Append { dst: 0, a: 0, b: 0 }) // self-append doubles
            .push(Select { dst: 1, src: 1 }) // in-place retain
            .push(Halt);
        let p = b.build().unwrap();
        let out = run_program(&p, &[vec![1, 2, 3], vec![4, 5, 6]]).unwrap();
        assert_eq!(out.outputs[0], vec![5, 7, 9, 5, 7, 9]);
        assert_eq!(out.outputs[1], vec![20, 35, 54]);
        // move 6 + add 9 + mul 9 + append 12 + select 6 + halt 0
        assert_eq!(out.stats.work, 42);
        assert_eq!(out.stats.time, 6);
        assert_eq!(out.stats.max_len, 6);
    }

    #[test]
    fn append_with_dst_aliasing_b_prepends() {
        let mut b = Builder::new(2, 2);
        b.push(Append { dst: 1, a: 0, b: 1 }).push(Halt);
        let p = b.build().unwrap();
        let out = run_program(&p, &[vec![1, 2], vec![3, 4]]).unwrap();
        assert_eq!(out.outputs[1], vec![1, 2, 3, 4]);
    }

    #[test]
    fn machine_reuse_and_run_owned_match_fresh_runs() {
        // A reused machine (warm buffers) and `run_owned` must agree with
        // a fresh `run` on both outputs and stats.
        let mut b = Builder::new(1, 1);
        b.push(Enumerate { dst: 1, src: 0 })
            .push(Arith {
                dst: 0,
                op: Op::Add,
                a: 0,
                b: 1,
            })
            .push(Halt);
        let p = b.build().unwrap();
        let i1 = vec![vec![5; 8]];
        let i2 = vec![vec![9; 3]];
        let fresh1 = run_program(&p, &i1).unwrap();
        let fresh2 = run_program(&p, &i2).unwrap();
        let mut m = Machine::new(p.n_regs);
        let warm1 = m.run(&p, &i1).unwrap();
        let warm2 = m.run(&p, &i2).unwrap();
        let owned2 = m.run_owned(&p, i2.clone()).unwrap();
        assert_eq!(fresh1.outputs, warm1.outputs);
        assert_eq!(fresh1.stats, warm1.stats);
        assert_eq!(fresh2.outputs, warm2.outputs);
        assert_eq!(fresh2.stats, warm2.stats);
        assert_eq!(fresh2.outputs, owned2.outputs);
        assert_eq!(fresh2.stats, owned2.stats);
    }

    #[test]
    fn step_limit_guards_divergence() {
        let mut b = Builder::new(0, 0);
        b.label("x").goto("x");
        let p = b.build().unwrap();
        let err = Machine::new(p.n_regs)
            .with_step_limit(100)
            .run(&p, &[])
            .unwrap_err();
        assert_eq!(err, MachineError::StepLimit);
    }

    #[test]
    fn singleton_and_append_and_length() {
        let mut b = Builder::new(0, 1);
        b.push(Singleton { dst: 0, n: 5 })
            .push(Singleton { dst: 1, n: 6 })
            .push(Append { dst: 0, a: 0, b: 1 })
            .push(Length { dst: 1, src: 0 })
            .push(Append { dst: 0, a: 0, b: 1 })
            .push(Halt);
        let p = b.build().unwrap();
        let out = run_program(&p, &[]).unwrap();
        assert_eq!(out.outputs[0], vec![5, 6, 2]);
    }

    use crate::instr::Op;
}
