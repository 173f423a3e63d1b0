//! The batch runtime's raw-program face, property-tested: random
//! straight-line BVRAM programs from `bvram::fuzz` through the multi-lane
//! entry points (pack is source-level — the Map Lemma — so raw programs
//! batch via lanes; see `nsc_runtime::batch` docs) are bit-identical to a
//! loop of single runs, in per-lane outputs, stats and faults.
//!
//! The source-level contract — `run_batch` in both pack and lanes modes
//! against single runs, over every runnable stdlib function and a wide
//! packed batch — lives in the root `tests/roster/batch_equiv.rs`, over
//! the program cache every roster sweep shares.

use bvram::fuzz::{decode_program, FUZZ_INPUTS, FUZZ_REGS};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Random straight-line BVRAM programs: the multi-lane entry points
    /// (the raw-program face of lanes mode) against a loop of single
    /// runs — outputs, stats, and per-lane faults.
    #[test]
    fn fuzz_program_lanes_match_single_run_loops(
        words in proptest::collection::vec(0u64..u64::MAX, 1..30),
        lanes in proptest::collection::vec(
            proptest::collection::vec(proptest::collection::vec(0u64..50, 0..12), FUZZ_INPUTS),
            1..10,
        ),
    ) {
        // One program, same input arity for every lane (the serving shape).
        let shape = [lanes[0][0].len(), lanes[0][1].len(), lanes[0][2].len()];
        let prog = decode_program(&words, shape, FUZZ_REGS);
        let singles: Vec<_> = lanes
            .iter()
            .map(|l| bvram::run_program(&prog, l))
            .collect();
        let seq = bvram::run_lanes_seq(&prog, lanes.clone());
        let ray = bvram::run_lanes_rayon(&prog, lanes);
        for (i, want) in singles.iter().enumerate() {
            for (which, got) in [("seq", &seq[i]), ("rayon", &ray[i])] {
                match (want, got) {
                    (Ok(a), Ok(b)) => {
                        prop_assert_eq!(&a.outputs, &b.outputs, "lane {} outputs ({})", i, which);
                        prop_assert_eq!(a.stats, b.stats, "lane {} stats ({})", i, which);
                    }
                    (Err(a), Err(b)) => prop_assert_eq!(a, b, "lane {} fault ({})", i, which),
                    (a, b) => prop_assert!(false, "lane {} ({}): {:?} vs {:?}", i, which, a, b),
                }
            }
        }
    }
}
