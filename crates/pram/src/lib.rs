//! # pram — Proposition 3.2
//!
//! A CREW PRAM **with scan primitives** executing BVRAM programs under
//! Brent scheduling: an instruction of work `w` is striped over `p`
//! processors in `⌈w/p⌉` element cycles plus `O(1)` dispatch, and the
//! routing instructions use the scan primitive for their offsets (constant
//! scan cost in Blelloch's scan model).  Proposition 3.2's bound — any NSC
//! function of complexity `(T, W)` runs in `O(T + W/p)` PRAM cycles — then
//! follows by composing with the Theorem 7.1 compilation; the EXP-P32
//! harness sweeps `p` and reports `cycles / (T + W/p)`.

#![warn(missing_docs)]

use bvram::{Machine, MachineError, Program, Vector};

/// Accounting result of a Brent-scheduled run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PramStats {
    /// Total cycles on the `p`-processor CREW machine.
    pub cycles: u64,
    /// Processor count.
    pub p: u64,
    /// The executed program's parallel time `T` (instructions).
    pub time: u64,
    /// The executed program's work `W`.
    pub work: u64,
}

impl PramStats {
    /// The paper's bound denominator `T + W/p`.
    pub fn brent_bound(&self) -> f64 {
        self.time as f64 + self.work as f64 / self.p as f64
    }

    /// The simulation constant `cycles / (T + W/p)` — Proposition 3.2
    /// says this stays `O(1)` across `p`.
    pub fn ratio(&self) -> f64 {
        self.cycles as f64 / self.brent_bound()
    }
}

/// Executes a BVRAM program on a `p`-processor CREW-with-scan PRAM.
///
/// Per executed instruction of work `w` (sum of operand/result register
/// lengths): `⌈w/p⌉` cycles of striped elementwise/copy work, plus one
/// dispatch cycle, plus one scan cycle for the routing/packing
/// instructions ([`bvram::Instr::is_routing`]) whose offsets come from
/// the scan primitive.
pub fn run_brent(prog: &Program, inputs: &[Vector], p: u64) -> Result<PramStats, MachineError> {
    assert!(p >= 1);
    let trace = run_traced(prog, inputs)?;
    let cycles = trace
        .per_instr
        .iter()
        .map(|(routing, w)| 1 + w.div_ceil(p) + u64::from(*routing))
        .sum();
    Ok(PramStats {
        cycles,
        p,
        time: trace.stats.time,
        work: trace.stats.work,
    })
}

/// A per-instruction execution trace.
#[derive(Debug, Clone)]
pub struct Trace {
    /// `(is_routing, work)` per executed instruction.
    pub per_instr: Vec<(bool, u64)>,
    /// Totals.
    pub stats: bvram::Stats,
}

/// Runs `prog` on the reference machine, recording each executed
/// instruction through the machine's per-step observer — the trace is
/// the real run's, so `per_instr.len() == stats.time` and the works sum
/// to `stats.work` exactly.
pub fn run_traced(prog: &Program, inputs: &[Vector]) -> Result<Trace, MachineError> {
    let mut per_instr = Vec::new();
    let out = Machine::new(prog.n_regs).run_observed(prog, inputs, |_, ins, work| {
        per_instr.push((ins.is_routing(), work));
    })?;
    Ok(Trace {
        per_instr,
        stats: out.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bvram::{Builder, Instr::*, Op};

    fn demo() -> Program {
        let mut b = Builder::new(2, 1);
        b.push(Arith {
            dst: 2,
            op: Op::Add,
            a: 0,
            b: 1,
        })
        .push(Enumerate { dst: 3, src: 2 })
        .push(Arith {
            dst: 0,
            op: Op::Mul,
            a: 2,
            b: 3,
        })
        .push(Halt);
        b.build().unwrap()
    }

    #[test]
    fn trace_is_the_real_run_on_a_select_loop() {
        // `select` shrinks v0 by a data-dependent amount each round, so
        // only the real run knows when `if_empty_goto` leaves the loop.
        let mut b = Builder::new(1, 1);
        b.label("loop")
            .if_empty_goto(0, "done")
            .push(Enumerate { dst: 1, src: 0 })
            .push(Select { dst: 0, src: 1 })
            .goto("loop")
            .label("done")
            .push(Halt);
        let p = b.build().unwrap();
        let t = run_traced(&p, &[vec![7; 5]]).unwrap();
        assert_eq!((t.stats.time, t.stats.work), (22, 70));
        assert_eq!(t.per_instr.len() as u64, t.stats.time);
        assert_eq!(
            t.per_instr.iter().map(|(_, w)| w).sum::<u64>(),
            t.stats.work
        );
        assert_eq!(t.per_instr.iter().filter(|(r, _)| *r).count(), 5);
        // p = 1: one dispatch per step, one scan per select, all the work.
        let s = run_brent(&p, &[vec![7; 5]], 1).unwrap();
        assert_eq!(s.cycles, 22 + 5 + 70);
    }

    #[test]
    fn one_processor_cycles_near_work() {
        let p = demo();
        let n = 1000u64;
        let inputs = vec![(0..n).collect(), (0..n).collect()];
        let s = run_brent(&p, &inputs, 1).unwrap();
        assert!(s.cycles >= s.work, "p=1 pays all the work");
        assert!(
            s.ratio() < 3.0,
            "constant-factor Brent bound: {}",
            s.ratio()
        );
    }

    #[test]
    fn many_processors_cycles_near_time() {
        let p = demo();
        let n = 1000u64;
        let inputs = vec![(0..n).collect(), (0..n).collect()];
        let s = run_brent(&p, &inputs, 1 << 20).unwrap();
        assert!(s.cycles < 4 * s.time + 8, "huge p pays ~T: {s:?}");
    }

    #[test]
    fn ratio_bounded_across_p_sweep() {
        let p = demo();
        let n = 4096u64;
        let inputs = vec![(0..n).collect(), (0..n).collect()];
        for procs in [1u64, 2, 4, 16, 64, 256, 1024] {
            let s = run_brent(&p, &inputs, procs).unwrap();
            assert!(
                s.ratio() < 4.0,
                "cycles = O(T + W/p) violated at p={procs}: {}",
                s.ratio()
            );
        }
    }

    #[test]
    fn speedup_is_monotone() {
        let p = demo();
        let n = 1 << 14;
        let inputs = vec![(0..n).collect(), (0..n).collect()];
        let c1 = run_brent(&p, &inputs, 1).unwrap().cycles;
        let c16 = run_brent(&p, &inputs, 16).unwrap().cycles;
        let c256 = run_brent(&p, &inputs, 256).unwrap().cycles;
        assert!(c1 > c16 && c16 > c256);
        // near-linear speedup while W/p dominates
        let speedup = c1 as f64 / c16 as f64;
        assert!(speedup > 8.0, "speedup at p=16 was {speedup:.1}");
    }
}
