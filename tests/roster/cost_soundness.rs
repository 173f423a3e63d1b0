//! Soundness of the symbolic cost analyzer (`bvram::cost_program`) over
//! everything the repo compiles, from `tests/cost_soundness.rs`: for
//! every stdlib function and golden example that runs to completion, the
//! measured [`bvram::Stats`] must sit under the symbolic certificate
//! evaluated at the *actual* input-register lengths — `T ≤ T'(lens)` and
//! `W ≤ W'(lens)` — at both optimization levels.
//!
//! Soundness alone is satisfiable by `⊤` everywhere, so the five golden
//! examples are also pinned to finite polynomial bounds, and optimizing
//! may never raise a certified degree.

use super::common::reference::{assert_sound, reg_lens};
use super::common::{on_big_stack, roster, sample};
use super::{entry, goldens};
use bvram::{cost_program, CostReport};
use nsc::compile::{encode_arg, run_encoded, OptLevel};
use nsc::core::{Func, Type};
use nsc::runtime::CacheKey;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// The certificate of `f`'s shared single program at `opt`, derived once
/// per run: the soundness sweeps and the degree comparison read the same
/// reports.  A second reader of a key waits for the first's analysis
/// instead of running its own: half the analyses, and a lower memory
/// peak.
fn certificate(name: &str, f: &Func, dom: &Type, opt: OptLevel) -> Arc<CostReport> {
    type Slot = Arc<OnceLock<Arc<CostReport>>>;
    static REPORTS: OnceLock<Mutex<HashMap<CacheKey, Slot>>> = OnceLock::new();
    let e = entry(name, f, dom, opt);
    let slot = Arc::clone(
        REPORTS
            .get_or_init(Default::default)
            .lock()
            .unwrap()
            .entry(e.key.clone())
            .or_default(),
    );
    Arc::clone(slot.get_or_init(|| Arc::new(cost_program(&e.single.program))))
}

/// Every runnable stdlib function: measured cost under the symbolic
/// bound, `O0` and `O1`, across an input-size sweep.
#[test]
fn stdlib_bounds_are_sound() {
    on_big_stack(|| {
        let mut ran = 0usize;
        let mut skipped = Vec::new();
        for s in roster() {
            for level in [OptLevel::O0, OptLevel::O1] {
                let c = &entry(s.name, &s.f, &s.dom, level).single;
                let report = certificate(s.name, &s.f, &s.dom, level);
                let mut succeeded = false;
                for n in [0u64, 1, 4, 9] {
                    let arg = sample(&s.dom, n);
                    let regs = encode_arg(&arg, &s.dom).unwrap();
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
                        &format!("{} at {level:?} n={n}", s.name),
                        &report,
                        &lens,
                        &out.stats,
                    );
                }
                if !succeeded {
                    skipped.push(format!("{} at {level:?}", s.name));
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
                let c = &entry(name, pure, dom, level).single;
                let report = certificate(name, pure, dom, level);
                assert!(
                    report.is_finite(),
                    "{name} at {level:?}: golden examples must get polynomial \
                     bounds, got\n{report}"
                );
                let regs = encode_arg(&input, dom).unwrap();
                let lens = reg_lens(&regs);
                let out = run_encoded(&c.program, regs)
                    .unwrap_or_else(|e| panic!("{name} at {level:?}: {e}"));
                assert_sound(&format!("{name} at {level:?}"), &report, &lens, &out.stats);
            }
        }
    });
}

/// Old-vs-new degree comparison: going from the unoptimized `O0`
/// lowering to the full `O1` pipeline (the BVRAM pass stack) may tighten
/// a certified bound but must never raise its polynomial degree or
/// collapse it to `⊤` — a rewrite that turns an
/// `O(n)` certificate into `O(n²)` (or loses it entirely) would silently
/// corrupt everything that reads these bounds (`nsc cost`, the
/// superlinear lint, the optimizer's no-regression gate).
/// Swept over the golden examples and the runnable stdlib roster, on
/// both `T'` and `W'`, checking total degree and per-symbol degrees.
#[test]
fn optimization_never_raises_certified_degrees() {
    on_big_stack(|| {
        let roster = roster().iter().map(|s| (s.name, &s.f, &s.dom));
        let goldens = goldens().into_iter().map(|(n, f, d, _)| (n, f, d));
        let mut compared = 0usize;
        for (name, f, dom) in roster.chain(goldens) {
            let r_old = certificate(name, f, dom, OptLevel::O0);
            let r_new = certificate(name, f, dom, OptLevel::O1);
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
