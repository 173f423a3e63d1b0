//! Soundness of the symbolic cost analyzer (`bvram::cost_program`) on
//! programs nobody hand-shaped: for each fuzz-generated straight-line
//! program that runs to completion, the measured [`bvram::Stats`] must
//! sit under the symbolic certificate evaluated at the *actual*
//! input-register lengths — `T ≤ T'(lens)` and `W ≤ W'(lens)`.  The
//! sweeps over everything the repo compiles (the stdlib roster and the
//! goldens at `O0` and `O1`, with the goldens' precision pins) live in
//! `tests/roster/cost_soundness.rs`, over the shared program cache.

use bvram::cost_program;

mod common;
use common::reference::assert_sound;

/// Fuzz-generated straight-line programs: the analyzer's per-instruction
/// transfer functions (append growth, route output bounds, select's
/// data dependence) must stay sound on programs nobody hand-shaped.
/// Finiteness can't be demanded of every program — an unconstrained
/// `bm_route`'s output length is genuinely not a function of its input
/// lengths, so `⊤` is the *correct* answer there — but the decoder emits
/// valid-by-construction routes most of the time, so the bulk of the
/// corpus must still get polynomial bounds.
#[test]
fn fuzz_bounds_are_sound() {
    let mut ran = 0usize;
    let mut finite = 0usize;
    for seed in 0..200u64 {
        let words: Vec<u64> = (0..40u64)
            .map(|i| {
                (seed + 1)
                    .wrapping_mul(i.wrapping_add(3))
                    .wrapping_mul(0x2545_f491_4f6c_dd1d)
            })
            .collect();
        let input_lens = [5 + (seed % 4) as usize, 2, 1 + (seed % 3) as usize];
        let p = bvram::fuzz::decode_program(&words, input_lens, bvram::fuzz::FUZZ_REGS);
        let report = cost_program(&p);
        if report.is_finite() {
            finite += 1;
        }
        let inputs: Vec<Vec<u64>> = input_lens
            .iter()
            .map(|&l| (0..l as u64).map(|i| i % 7 + 1).collect())
            .collect();
        let lens: Vec<u64> = input_lens.iter().map(|&l| l as u64).collect();
        let Ok(out) = bvram::Machine::new(p.n_regs).run(&p, &inputs) else {
            continue;
        };
        ran += 1;
        assert_sound(&format!("fuzz seed {seed}"), &report, &lens, &out.stats);
    }
    assert!(ran >= 50, "only {ran}/200 fuzz runs completed");
    assert!(
        finite >= 100,
        "only {finite}/200 fuzz programs got finite bounds"
    );
}
