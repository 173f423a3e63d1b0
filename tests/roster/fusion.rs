//! Fusion semantics preservation over the stdlib roster and the workload
//! suite, from `tests/fusion.rs`: the shared `O1` program (the fused
//! pipeline every other sweep runs) against the unfused pipeline, both
//! translation-validated pass by pass in a debug build, bit-identical in
//! value *and* fault classification at every sample size.

use super::common::{on_big_stack, roster, sample};
use super::{entry, suite};
use nsc::compile::{compile_nsc_unfused, compile_nsc_with, run_compiled, Compiled, OptLevel};
use nsc::core::{Func, Type};
use nsc::runtime::workloads;

/// Asserts the fused pipeline and the unfused one give bit-identical
/// `Result`s at every sample size.  The
/// fused side is `shared`, the cache's `O1` program, where `f` has a
/// cache entry, checked to be what the validated pipeline compiles.
fn assert_fusion_invisible(name: &str, f: &Func, dom: &Type, shared: Option<&Compiled>) {
    let cu = compile_nsc_unfused(f, dom, OptLevel::O1)
        .unwrap_or_else(|e| panic!("{name}: unfused compile failed: {e}"));
    let validated;
    let cf = match shared {
        // Fusion left the program alone: `cu`'s validation covered it.
        Some(c) if c.program.instrs == cu.program.instrs => c,
        _ => {
            validated = compile_nsc_with(f, dom, OptLevel::O1)
                .unwrap_or_else(|e| panic!("{name}: fused compile failed: {e}"));
            if let Some(c) = shared {
                assert!(
                    c.program.instrs == validated.program.instrs,
                    "{name}: the shared O1 program is not the validated one"
                );
            }
            &validated
        }
    };
    for n in [0u64, 1, 4, 9] {
        let arg = sample(dom, n);
        let rf = run_compiled(cf, &arg).map(|p| p.0);
        let ru = run_compiled(&cu, &arg).map(|p| p.0);
        assert_eq!(
            rf, ru,
            "{name}: fused and unfused pipelines diverge at n={n}"
        );
    }
}

/// Fusion must be invisible on every runnable stdlib function.
#[test]
fn fusion_is_invisible_over_the_stdlib_roster() {
    on_big_stack(|| {
        for s in roster() {
            let shared = &entry(s.name, &s.f, &s.dom, OptLevel::O1).single;
            assert_fusion_invisible(s.name, &s.f, &s.dom, Some(shared));
        }
    });
}

/// ... and on the shared workload suite plus the chained-map
/// differential workloads, where fusion actually fires.
#[test]
fn fusion_is_invisible_over_the_workload_suite() {
    on_big_stack(|| {
        let dom = Type::seq(Type::Nat);
        for (name, f) in suite() {
            let shared = &entry(name, f, &dom, OptLevel::O1).single;
            assert_fusion_invisible(name, f, &dom, Some(shared));
        }
        for (name, f) in [
            ("map-chain x3", workloads::chained_maps()),
            ("map-chain omega", workloads::chained_maps_faulting()),
        ] {
            assert_fusion_invisible(name, &f, &dom, None);
        }
    });
}
