//! Soundness of the symbolic cost analyzer (`bvram::cost_program`) over
//! everything the repo can run: every runnable stdlib function, every
//! golden `.nsc` example, and a battery of fuzz-generated straight-line
//! programs.  For each program that runs to completion, the measured
//! [`bvram::Stats`] must sit under the symbolic certificate evaluated at
//! the *actual* input-register lengths — `T ≤ T'(lens)` and
//! `W ≤ W'(lens)` — at both optimization levels.
//!
//! Soundness alone is satisfiable by `⊤` everywhere, so a precision
//! sweep then pins the five golden examples (and the scalar-map stdlib
//! workloads) to finite polynomial bounds.

use bvram::{cost_program, CostReport, Stats};
use nsc_compile::pipeline::{encode_arg, run_encoded};
use nsc_compile::{compile_nsc_with, OptLevel};
use nsc_core::types::Type;

mod common;
use common::{on_big_stack, sample, typed_suite};
use nsc_runtime::workloads::goldens;

/// The lengths the machine sees: what the certificates are evaluated at.
fn reg_lens(regs: &[Vec<u64>]) -> Vec<u64> {
    regs.iter().map(|r| r.len() as u64).collect()
}

/// Checks one successful run against its certificate: the measured stats
/// must sit under each finite bound evaluated at `lens` (a `⊤` bound
/// constrains nothing — that's what the precision tests are for).
fn assert_sound(what: &str, report: &CostReport, lens: &[u64], stats: &Stats) {
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

/// Every runnable stdlib function: measured cost under the symbolic
/// bound, `O0` and `O1`, across an input-size sweep.
#[test]
fn stdlib_bounds_are_sound() {
    on_big_stack(|| {
        let mut ran = 0usize;
        let mut skipped = Vec::new();
        for (name, f, dom) in typed_suite() {
            for level in [OptLevel::O0, OptLevel::O1] {
                let c = compile_nsc_with(&f, &dom, level)
                    .unwrap_or_else(|e| panic!("compiling {name} at {level:?}: {e}"));
                let report = cost_program(&c.program);
                let mut succeeded = false;
                for n in [0u64, 1, 4, 9] {
                    let arg = sample(&dom, n);
                    let regs = encode_arg(&arg, &dom).unwrap();
                    let lens = reg_lens(&regs);
                    let Ok(out) = run_encoded(&c.program, regs) else {
                        // Partial functions (indexing past the end, route
                        // invariants) may fault on generic inputs;
                        // soundness only speaks about runs that complete.
                        continue;
                    };
                    succeeded = true;
                    ran += 1;
                    assert_sound(
                        &format!("{name} at {level:?} n={n}"),
                        &report,
                        &lens,
                        &out.stats,
                    );
                }
                if !succeeded {
                    skipped.push(format!("{name} at {level:?}"));
                }
            }
        }
        // The sweep must actually exercise the analyzer: nearly every
        // roster entry completes on the sampled inputs (only bm_route's
        // data-dependent count invariant can reject them all).
        assert!(
            skipped.len() <= 2,
            "too many stdlib functions never ran: {skipped:?}"
        );
        assert!(ran >= 50, "only {ran} successful runs across the roster");
    });
}

/// Every golden `.nsc` example on its shipped `input`: measured cost
/// under the symbolic bound, `O0` and `O1` — and the
/// precision half: each example's bounds must be finite polynomials at
/// both levels (a sound-but-`⊤` analyzer fails here).
#[test]
fn golden_example_bounds_are_sound_and_finite() {
    on_big_stack(|| {
        for (name, pure, dom, input) in goldens() {
            for level in [OptLevel::O0, OptLevel::O1] {
                let c = compile_nsc_with(&pure, &dom, level)
                    .unwrap_or_else(|e| panic!("compiling {name} at {level:?}: {e}"));
                let report = cost_program(&c.program);
                assert!(
                    report.is_finite(),
                    "{name} at {level:?}: golden examples must get polynomial \
                     bounds, got\n{report}"
                );
                let regs = encode_arg(&input, &dom).unwrap();
                let lens = reg_lens(&regs);
                let out = run_encoded(&c.program, regs)
                    .unwrap_or_else(|e| panic!("{name} at {level:?}: {e}"));
                assert_sound(&format!("{name} at {level:?}"), &report, &lens, &out.stats);
            }
        }
    });
}

/// Old-vs-new degree comparison: going from the unoptimized, unfused
/// `O0` lowering to the full `O1` pipeline (fusion + the BVRAM pass
/// stack) may tighten a certified bound but must never raise its
/// polynomial degree or collapse it to `⊤` — a rewrite that turns an
/// `O(n)` certificate into `O(n²)` (or loses it entirely) would silently
/// corrupt everything that reads these bounds (`nsc cost`, the
/// superlinear lint, the optimizer's no-regression gate).
/// Swept over the golden examples and the runnable stdlib roster, on
/// both `T'` and `W'`, checking total degree and per-symbol degrees.
#[test]
fn optimization_never_raises_certified_degrees() {
    on_big_stack(|| {
        let mut programs: Vec<(String, nsc_core::Func, Type)> = typed_suite()
            .into_iter()
            .map(|(n, f, d)| (n.to_string(), f, d))
            .collect();
        programs.extend(
            goldens()
                .into_iter()
                .map(|(n, f, d, _)| (n.to_string(), f, d)),
        );
        let mut compared = 0usize;
        for (name, f, dom) in &programs {
            let old = compile_nsc_with(f, dom, OptLevel::O0)
                .unwrap_or_else(|e| panic!("compiling {name} at O0: {e}"));
            let new = compile_nsc_with(f, dom, OptLevel::O1)
                .unwrap_or_else(|e| panic!("compiling {name} at O1: {e}"));
            let r_old = cost_program(&old.program);
            let r_new = cost_program(&new.program);
            for (what, b_old, b_new) in [
                ("T'", &r_old.time, &r_new.time),
                ("W'", &r_old.work, &r_new.work),
            ] {
                let Some(p_old) = b_old.as_poly() else {
                    continue; // O0 already ⊤: nothing to preserve.
                };
                let p_new = b_new.as_poly().unwrap_or_else(|| {
                    panic!("{name}: {what} was {p_old} at O0 but ⊤ at O1:\n{b_new}")
                });
                compared += 1;
                assert!(
                    p_new.degree() <= p_old.degree(),
                    "{name}: optimization raised the {what} degree: \
                     {p_old} (deg {}) -> {p_new} (deg {})",
                    p_old.degree(),
                    p_new.degree()
                );
                for i in 0..r_old.n_syms.min(r_new.n_syms) {
                    assert!(
                        p_new.degree_in(i) <= p_old.degree_in(i),
                        "{name}: optimization raised the {what} degree in n{i}: \
                         {p_old} -> {p_new}"
                    );
                }
            }
        }
        // The comparison must have real coverage: most roster entries
        // carry finite O0 certificates on at least one component.
        assert!(
            compared >= 20,
            "only {compared} finite old-vs-new degree comparisons ran"
        );
    });
}

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
