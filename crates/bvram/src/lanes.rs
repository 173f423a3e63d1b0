//! Multi-lane entry points: one [`Program`], many independent input sets.
//!
//! A *lane* is one complete set of input registers for a program.  A
//! serving system that has compiled a request handler once wants to
//! execute it against `B` independent requests without paying `B` machine
//! constructions (or, on a multicore host, without serializing the
//! requests at all).  The two entry points here are the machine-level
//! half of that story:
//!
//! * [`run_lanes_seq`] — run the lanes one after another on a **single
//!   reused [`Machine`]**: the register file's buffers stay warm across
//!   lanes, so per-lane allocation drops to near zero.  This is the
//!   sequential baseline every batching mode is measured against.
//! * [`run_lanes_rayon`] — distribute the lanes over worker threads
//!   (rayon), **one machine per worker**, optionally with threaded fills
//!   inside each lane ([`Machine::par`]).  Results are returned in lane
//!   order and are bit-for-bit identical to [`run_lanes_seq`] — including
//!   per-lane faults, which never abort the other lanes.
//!
//! The *pack* alternative — fusing the lanes into a single program run
//! over lane-offset registers — is not expressible at this level for an
//! arbitrary program (`append`, `length` and control flow all observe
//! the lane boundaries), so it lives where the boundaries are known: the
//! `nsc-runtime` crate builds it from the source-level Map Lemma.

use crate::exec::{Machine, MachineError, RunOutcome, Vector};
use crate::program::Program;
use rayon::prelude::*;

/// Runs every lane on one reused sequential [`Machine`], in order.
///
/// Each element of `lanes` must hold exactly `prog.r_in` input vectors
/// (a lane with the wrong arity gets [`MachineError::BadInputArity`],
/// like a single run would).  A faulting lane reports its own error and
/// leaves the remaining lanes unaffected.
pub fn run_lanes_seq(
    prog: &Program,
    lanes: Vec<Vec<Vector>>,
) -> Vec<Result<RunOutcome, MachineError>> {
    let mut m = Machine::new(prog.n_regs);
    lanes
        .into_iter()
        .map(|inputs| m.run_owned(prog, inputs))
        .collect()
}

/// Runs the lanes in parallel across worker threads, one machine per
/// worker; with `inner_par` each lane's machine additionally fills long
/// destinations on worker threads ([`Machine::par`]; nested parallelism —
/// worth it only when individual lanes are large).
///
/// Semantics are identical to [`run_lanes_seq`]: results come back in
/// lane order and a faulting lane never disturbs its neighbours.
pub fn run_lanes_rayon(
    prog: &Program,
    lanes: Vec<Vec<Vector>>,
    inner_par: bool,
) -> Vec<Result<RunOutcome, MachineError>> {
    let n = lanes.len();
    if n == 0 {
        return Vec::new();
    }
    // Each slot carries its lane's inputs in and its result out, so the
    // parallel loop needs no shared mutable state beyond disjoint chunks.
    type Slot = (
        Option<Vec<Vector>>,
        Option<Result<RunOutcome, MachineError>>,
    );
    let mut slots: Vec<Slot> = lanes.into_iter().map(|l| (Some(l), None)).collect();
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let chunk = n.div_ceil(workers).max(1);
    slots.par_chunks_mut(chunk).for_each(|chunk_slots| {
        // One machine per worker chunk, reused across its lanes (warm
        // buffers), mirroring run_lanes_seq within the chunk.
        let mut m = Machine::par(prog.n_regs, inner_par);
        for s in chunk_slots {
            let inputs = s.0.take().expect("lane inputs present");
            s.1 = Some(m.run_owned(prog, inputs));
        }
    });
    slots
        .into_iter()
        .map(|(_, r)| r.expect("every lane executed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{Instr::*, Op};
    use crate::program::Builder;

    fn square_plus_index() -> Program {
        let mut b = Builder::new(1, 1);
        b.push(Enumerate { dst: 1, src: 0 })
            .push(Arith {
                dst: 0,
                op: Op::Mul,
                a: 0,
                b: 0,
            })
            .push(Arith {
                dst: 0,
                op: Op::Add,
                a: 0,
                b: 1,
            })
            .push(Halt);
        b.build().unwrap()
    }

    fn lanes_of(sizes: &[usize]) -> Vec<Vec<Vector>> {
        sizes
            .iter()
            .enumerate()
            .map(|(i, n)| vec![(0..*n as u64).map(|x| x + i as u64).collect()])
            .collect()
    }

    #[test]
    fn both_entry_points_match_a_loop_of_single_runs() {
        let p = square_plus_index();
        let lanes = lanes_of(&[0, 1, 7, 64, 3]);
        let singles: Vec<_> = lanes
            .iter()
            .map(|l| crate::exec::run_program(&p, l))
            .collect();
        let seq = run_lanes_seq(&p, lanes.clone());
        let par = run_lanes_rayon(&p, lanes.clone(), false);
        let par2 = run_lanes_rayon(&p, lanes, true);
        for (i, s) in singles.iter().enumerate() {
            let s = s.as_ref().unwrap();
            for got in [&seq[i], &par[i], &par2[i]] {
                let got = got.as_ref().unwrap();
                assert_eq!(got.outputs, s.outputs, "lane {i}");
                assert_eq!(got.stats, s.stats, "lane {i}");
            }
        }
    }

    #[test]
    fn faulting_lanes_do_not_disturb_their_neighbours() {
        // Div faults exactly on the lanes containing a zero divisor.
        let mut b = Builder::new(2, 1);
        b.push(Arith {
            dst: 0,
            op: Op::Div,
            a: 0,
            b: 1,
        })
        .push(Halt);
        let p = b.build().unwrap();
        let lanes: Vec<Vec<Vector>> = vec![
            vec![vec![6, 9], vec![2, 3]],
            vec![vec![6], vec![0]], // faults
            vec![vec![8], vec![4]],
        ];
        for results in [
            run_lanes_seq(&p, lanes.clone()),
            run_lanes_rayon(&p, lanes.clone(), false),
            run_lanes_rayon(&p, lanes, true),
        ] {
            assert_eq!(results[0].as_ref().unwrap().outputs[0], vec![3, 3]);
            assert!(matches!(
                results[1].as_ref().unwrap_err(),
                MachineError::Arithmetic { .. }
            ));
            assert_eq!(results[2].as_ref().unwrap().outputs[0], vec![2]);
        }
    }

    #[test]
    fn empty_batch_and_bad_arity() {
        let p = square_plus_index();
        assert!(run_lanes_seq(&p, Vec::new()).is_empty());
        assert!(run_lanes_rayon(&p, Vec::new(), false).is_empty());
        let results = run_lanes_seq(&p, vec![vec![]]);
        assert!(matches!(
            results[0].as_ref().unwrap_err(),
            MachineError::BadInputArity { .. }
        ));
    }
}
