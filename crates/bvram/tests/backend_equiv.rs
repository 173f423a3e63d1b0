//! Differential property test: the sequential [`Machine`] and the
//! threaded-fill machine (`Machine::par(_, true)`) agree **bit-for-bit**
//! — outputs *and* `Stats` — on random straight-line programs, with
//! register lengths straddling the parallel grain size so both the
//! sequential and chunked fills of every instruction are exercised.
//! Faulting programs must fault with the *same* error on both backends.

use bvram::fuzz::{decode_program, FUZZ_REGS};
use bvram::par::GRAIN;
use bvram::{Builder, Instr::*, Machine, Op, Program, Vector};
use proptest::prelude::*;

/// Runs both backends; returns whether they (identically) faulted.
fn assert_backends_agree(prog: &Program, inputs: &[Vector]) -> Result<bool, TestCaseError> {
    let seq = Machine::new(prog.n_regs).run(prog, inputs);
    let par = Machine::par(prog.n_regs, true).run(prog, inputs);
    match (seq, par) {
        (Ok(s), Ok(p)) => {
            prop_assert_eq!(&s.outputs, &p.outputs, "outputs diverge\n{}", prog);
            prop_assert_eq!(s.stats, p.stats, "stats diverge\n{}", prog);
            Ok(false)
        }
        (Err(s), Err(p)) => {
            prop_assert_eq!(s, p, "faults diverge\n{}", prog);
            Ok(true)
        }
        (s, p) => Err(TestCaseError::fail(format!(
            "one backend faulted: {s:?} vs {p:?}\n{prog}"
        ))),
    }
}

/// Every aliasing shape of the four threaded fills, on inputs
/// `x, y, divisor : [n]`, `counts, values, segs : [k]`, `bound : [Σcounts]`,
/// `data : [Σsegs]`; every register is an output.
fn aliased_fills() -> Program {
    let arith = |dst, op, a, b| Arith { dst, op, a, b };
    let bm = |dst, bound, counts, values| BmRoute {
        dst,
        bound,
        counts,
        values,
    };
    let sbm = |dst, bound, counts, data| SbmRoute {
        dst,
        bound,
        counts,
        data,
        segs: 5,
    };
    let mut b = Builder::new(8, 14);
    for ins in [
        arith(0, Op::Monus, 0, 1), // dst == a
        arith(1, Op::Monus, 0, 1), // dst == b
        arith(0, Op::Add, 0, 0),   // dst == a == b
        Enumerate { dst: 8, src: 0 },
        Enumerate { dst: 8, src: 8 }, // dst == src
        bm(9, 6, 3, 4),
        Move { dst: 10, src: 6 },
        bm(10, 10, 3, 4), // dst == bound
        Move { dst: 11, src: 4 },
        bm(11, 6, 3, 11), // dst == values
        sbm(12, 6, 3, 7),
        sbm(6, 6, 3, 7), // dst == bound
        Move { dst: 13, src: 3 },
        sbm(13, 10, 13, 7),      // dst == counts
        sbm(7, 10, 3, 7),        // dst == data
        arith(2, Op::Div, 1, 2), // dst == b; faults on a zero divisor
        Halt,
    ] {
        b.push(ins);
    }
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Lengths chosen around GRAIN = 4096: the first input straddles the
    /// parallel/sequential switch, the others stay small so appends and
    /// routes mix both regimes.
    #[test]
    fn machine_and_par_machine_agree_bit_for_bit(
        words in proptest::collection::vec(0u64..u64::MAX, 1..40),
        big in proptest::collection::vec(0u64..50, (GRAIN - 60)..(GRAIN + 120)),
        med in proptest::collection::vec(0u64..50, 0..600),
        small in proptest::collection::vec(0u64..5, 0..8),
    ) {
        let prog = decode_program(&words, [big.len(), med.len(), small.len()], FUZZ_REGS);
        assert_backends_agree(&prog, &[big, med, small])?;
    }

    /// The same property in the small-length regime (pure sequential
    /// paths, lots of empty registers and zero-length edge cases).
    #[test]
    fn machine_and_par_machine_agree_small(
        words in proptest::collection::vec(0u64..u64::MAX, 1..60),
        a in proptest::collection::vec(0u64..9, 0..12),
        b in proptest::collection::vec(0u64..9, 0..12),
        c in proptest::collection::vec(0u64..3, 0..4),
    ) {
        let prog = decode_program(&words, [a.len(), b.len(), c.len()], FUZZ_REGS);
        assert_backends_agree(&prog, &[a, b, c])?;
    }

    /// Registers of several `GRAIN`s through every aliased fill
    /// (`dst == a`, `dst == b`, `dst == a == b`, routes whose `dst`
    /// aliases `bound` or a data operand), half the cases ending in a
    /// divide-by-zero on the very last element — i.e. in the last chunk.
    #[test]
    fn threaded_fills_agree_under_aliasing(
        x in proptest::collection::vec(0u64..1000, (GRAIN + 1)..(3 * GRAIN)),
        y_seed in 1u64..1000,
        counts in proptest::collection::vec(0u64..6, GRAIN..(GRAIN + 500)),
        seg_seed in 1u64..1000,
        fault in false..true,
    ) {
        let (n, k) = (x.len() as u64, counts.len() as u64);
        let y: Vector = (0..n).map(|i| i * y_seed % 1000).collect();
        let mut divisor: Vector = (0..n).map(|i| 1 + i % 7).collect();
        if fault {
            divisor[n as usize - 1] = 0;
        }
        let values: Vector = (0..k).map(|i| i * 13).collect();
        let segs: Vector = (0..k).map(|i| i * seg_seed % 5).collect();
        let bound = vec![0; counts.iter().sum::<u64>() as usize];
        let data: Vector = (0..segs.iter().sum::<u64>()).map(|i| i * 3).collect();
        let inputs = [x, y, divisor, counts, values, segs, bound, data];
        prop_assert_eq!(assert_backends_agree(&aliased_fills(), &inputs)?, fault);
    }
}
