//! Threaded fills for the `par` backend.
//!
//! The BVRAM is an abstract SIMD machine; these kernels are how
//! [`crate::exec::Machine`] (built with `Machine::par(_, true)`) runs one
//! instruction's elementwise pass on real cores (the paper: "this needs
//! to be tested in practice").  Each fills an already-sized destination
//! slice in [`GRAIN`]-sized chunks over rayon's `par_chunks_mut`; chunks
//! are disjoint, so results are bit-for-bit those of the sequential
//! bodies.  Everything else — fetch, costing, aliasing, invariant checks,
//! control flow — is the one loop in [`crate::exec`].

use crate::instr::Op;
use rayon::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};

/// Destinations shorter than this are filled by the sequential bodies
/// (avoids thread overhead dominating small vectors).
pub const GRAIN: usize = 4096;

/// `dst[i] ← op(a[i], b[i])`; a `None` operand aliases `dst` itself and
/// is read from the slot about to be overwritten.  `None` if any element
/// faulted (`dst` is then partially written).
pub(crate) fn arith_fill(
    op: Op,
    dst: &mut [u64],
    a: Option<&[u64]>,
    b: Option<&[u64]>,
) -> Option<()> {
    let ok = AtomicBool::new(true);
    dst.par_chunks_mut(GRAIN)
        .enumerate()
        .for_each(|(i, chunk)| {
            let span = i * GRAIN..i * GRAIN + chunk.len();
            let (a, b) = (a.map(|a| &a[span.clone()]), b.map(|b| &b[span]));
            for (j, slot) in chunk.iter_mut().enumerate() {
                let (x, y) = (a.map_or(*slot, |a| a[j]), b.map_or(*slot, |b| b[j]));
                match op.apply(x, y) {
                    Some(v) => *slot = v,
                    None => return ok.store(false, Ordering::Relaxed),
                }
            }
        });
    ok.into_inner().then_some(())
}

/// `dst[i] ← i`.
pub(crate) fn enumerate_fill(dst: &mut [u64]) {
    dst.par_chunks_mut(GRAIN)
        .enumerate()
        .for_each(|(i, chunk)| {
            for (slot, n) in chunk.iter_mut().zip((i * GRAIN) as u64..) {
                *slot = n;
            }
        });
}

/// Exclusive prefix sums `[0, x₀, x₀+x₁, …]` (one entry more than `xs`).
pub(crate) fn offsets(xs: impl Iterator<Item = u64>) -> Vec<u64> {
    let mut offs = vec![0];
    let mut acc = 0u64;
    for x in xs {
        acc += x;
        offs.push(acc);
    }
    offs
}

/// The routing expansion shared by `bm_route` and `sbm_route`: output
/// slot `pos` belongs to the source segment `seg` with `offs[seg] <= pos
/// < offs[seg + 1]` and receives `src(seg, pos - offs[seg])`.  Each chunk
/// locates the segment of its first slot by binary search, then walks
/// forward.  `offs` must end at `out.len()`.
pub(crate) fn route_fill(out: &mut [u64], offs: &[u64], src: impl Fn(usize, u64) -> u64 + Sync) {
    out.par_chunks_mut(GRAIN)
        .enumerate()
        .for_each(|(i, chunk)| {
            let base = (i * GRAIN) as u64;
            let mut seg = offs.partition_point(|o| *o <= base).saturating_sub(1);
            for (slot, pos) in chunk.iter_mut().zip(base..) {
                while offs[seg + 1] <= pos {
                    seg += 1;
                }
                *slot = src(seg, pos - offs[seg]);
            }
        });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{run_program, Machine, MachineError, RunOutcome, Vector};
    use crate::instr::Instr::*;
    use crate::program::{Builder, Program};

    fn run_par(p: &Program, inputs: &[Vector]) -> Result<RunOutcome, MachineError> {
        Machine::par(p.n_regs, true).run(p, inputs)
    }

    /// Both backends succeed with identical outputs and `Stats`.
    fn assert_agree(p: &Program, inputs: &[Vector]) {
        let (seq, par) = (run_program(p, inputs).unwrap(), run_par(p, inputs).unwrap());
        assert_eq!(seq.outputs, par.outputs);
        assert_eq!(seq.stats, par.stats);
    }

    fn demo_program() -> Program {
        let mut b = Builder::new(2, 1);
        b.push(Arith {
            dst: 2,
            op: Op::Mul,
            a: 0,
            b: 1,
        })
        .push(Enumerate { dst: 3, src: 2 })
        .push(Arith {
            dst: 0,
            op: Op::Add,
            a: 2,
            b: 3,
        })
        .push(Halt);
        b.build().unwrap()
    }

    #[test]
    fn par_matches_sequential_small() {
        let p = demo_program();
        assert_agree(&p, &[vec![1, 2, 3, 4], vec![5, 6, 7, 8]]);
    }

    #[test]
    fn par_matches_sequential_large() {
        let p = demo_program();
        let n = 3 * GRAIN + 17;
        let a: Vec<u64> = (0..n as u64).collect();
        let b: Vec<u64> = (0..n as u64).map(|x| x % 97).collect();
        assert_agree(&p, &[a, b]);
    }

    fn bm_prog() -> Program {
        let mut b = Builder::new(3, 1);
        b.push(BmRoute {
            dst: 0,
            bound: 0,
            counts: 1,
            values: 2,
        })
        .push(Halt);
        b.build().unwrap()
    }

    #[test]
    fn par_bm_route_matches_sequential() {
        let p = bm_prog();
        // large: n values each replicated twice
        let n = 2 * GRAIN as u64;
        let counts: Vec<u64> = (0..n).map(|_| 2).collect();
        let values: Vec<u64> = (0..n).collect();
        let bound: Vec<u64> = vec![0; 2 * n as usize];
        assert_agree(&p, &[bound, counts, values]);
    }

    #[test]
    fn par_bm_route_uneven_counts() {
        let p = bm_prog();
        // Uneven counts incl. zeros, crossing the GRAIN boundary.
        let counts: Vec<u64> = (0..3000u64).map(|i| i % 5).collect();
        let total: u64 = counts.iter().sum();
        let values: Vec<u64> = (0..3000u64).map(|i| i * 7).collect();
        assert_agree(&p, &[vec![0; total as usize], counts, values]);
    }

    #[test]
    fn par_step_limit_boundary_is_inclusive_of_final_halt() {
        let mut b = Builder::new(0, 1);
        b.push(Singleton { dst: 0, n: 7 }).push(Halt);
        let p = b.build().unwrap();
        let out = Machine::par(p.n_regs, true)
            .with_step_limit(2)
            .run(&p, &[])
            .unwrap();
        assert_eq!(out.stats.time, 2);
        let err = Machine::par(p.n_regs, true)
            .with_step_limit(1)
            .run(&p, &[])
            .unwrap_err();
        assert_eq!(err, MachineError::StepLimit);
    }

    fn sbm_prog() -> Program {
        let mut b = Builder::new(4, 1);
        b.push(SbmRoute {
            dst: 0,
            bound: 0,
            counts: 1,
            data: 2,
            segs: 3,
        })
        .push(Halt);
        b.build().unwrap()
    }

    #[test]
    fn par_sbm_route_matches_sequential_large() {
        let p = sbm_prog();
        // 1000 segments of 3 elements, each replicated twice: out 6000 > GRAIN.
        let k = 1000u64;
        let counts = vec![2u64; k as usize];
        let segs = vec![3u64; k as usize];
        let data: Vec<u64> = (0..3 * k).collect();
        let bound = vec![0u64; 2 * k as usize];
        assert_agree(&p, &[bound, counts, data, segs]);
    }

    #[test]
    fn par_sbm_route_uneven_segments_and_zero_counts() {
        let p = sbm_prog();
        let k = 3000u64;
        let counts: Vec<u64> = (0..k).map(|i| i % 3).collect();
        let segs: Vec<u64> = (0..k).map(|i| (i * 7) % 5).collect();
        let total_c: u64 = counts.iter().sum();
        let total_s: u64 = segs.iter().sum();
        let data: Vec<u64> = (0..total_s).map(|i| i * 13).collect();
        let bound = vec![0u64; total_c as usize];
        assert_agree(&p, &[bound, counts, data, segs]);
    }

    #[test]
    fn par_sbm_route_invariant_faults_match_sequential() {
        let p = sbm_prog();
        // sum(segs) != |data|
        let inputs = vec![vec![0; 2], vec![2], vec![1, 2, 3], vec![2]];
        let seq = run_program(&p, &inputs).unwrap_err();
        let par = run_par(&p, &inputs).unwrap_err();
        assert_eq!(seq, par);
        assert!(matches!(seq, MachineError::RouteInvariant { .. }));
    }

    #[test]
    fn arithmetic_error_surfaces_in_parallel_path() {
        let mut b = Builder::new(2, 1);
        b.push(Arith {
            dst: 0,
            op: Op::Div,
            a: 0,
            b: 1,
        })
        .push(Halt);
        let p = b.build().unwrap();
        let n = GRAIN + 5;
        let a = vec![1u64; n];
        let mut bb = vec![1u64; n];
        bb[n - 1] = 0; // one divide-by-zero deep in the vector
        let err = run_par(&p, &[a, bb]).unwrap_err();
        assert_eq!(err, MachineError::Arithmetic { at: 0 });
    }
}
