//! Fusion semantics preservation, deterministically.
//!
//! The `map(f) ∘ map(g) ⇒ map(f ∘ g)` rewrite (`nsc::algebra::fuse`)
//! runs on NSC source before translation, so a bug in it would
//! miscompile *everything downstream* while still producing a
//! verifier-clean BVRAM program.  These tests pin the chained-map
//! workloads, where fusion fires, and check the differential harness
//! itself has teeth by feeding it a deliberately unsound rewrite.  The
//! sweeps over the stdlib roster and the workload suite live in
//! `tests/roster/fusion.rs`, over the shared program cache.
//!
//! The randomized counterpart (fuzz functions, random map chains) lives
//! in `tests/properties.rs`.

use nsc::compile::{compile_nsc_unfused, compile_nsc_with, run_compiled, Compiled, OptLevel};
use nsc::core::ast as a;
use nsc::core::value::Value;
use nsc::core::{EvalError, Func, Type};

/// The chained workloads fuse (two collapsed stages each), and the
/// faulting chain's division by zero classifies as `Ω` — not a machine
/// fault — on the fused pipeline exactly as on the unfused one.
#[test]
fn chained_workloads_fuse_and_classify_omega() {
    let dom = Type::seq(Type::Nat);
    for (name, f) in [
        ("map-chain x3", nsc::runtime::workloads::chained_maps()),
        (
            "map-chain omega",
            nsc::runtime::workloads::chained_maps_faulting(),
        ),
    ] {
        let c = compile_nsc_with(&f, &dom, OptLevel::O1).expect(name);
        assert_eq!(c.fused_stages, 2, "{name}: expected both seams to fuse");
    }
    let faulting = nsc::runtime::workloads::chained_maps_faulting();
    let c = compile_nsc_with(&faulting, &dom, OptLevel::O1).unwrap();
    let err = run_compiled(&c, &Value::nat_seq(0..4))
        .expect_err("input contains a zero, the middle stage divides by it");
    assert_eq!(err, EvalError::Omega, "fault misclassified: {err:?}");
}

/// Differential check used by the mutation test below: compiles the
/// *rewritten* function through the unfused pipeline (so the real fuser
/// cannot mask the mutation) and compares it against the original on a
/// spread of inputs, reporting the first divergence by rewrite name.
fn check_rewrite(rewrite: &str, original: &Func, rewritten: &Func) -> Result<(), String> {
    let dom = Type::seq(Type::Nat);
    let co = compile_nsc_unfused(original, &dom, OptLevel::O1)
        .map_err(|e| format!("fuse rewrite `{rewrite}`: original no longer compiles: {e}"))?;
    let cr = compile_nsc_unfused(rewritten, &dom, OptLevel::O1)
        .map_err(|e| format!("fuse rewrite `{rewrite}`: rewritten form does not compile: {e}"))?;
    for n in [0u64, 1, 4, 9] {
        let arg = Value::nat_seq((0..n).map(|i| i * 5 % 13));
        let ro = run_compiled(&co, &arg).map(|p| p.0);
        let rr = run_compiled(&cr, &arg).map(|p| p.0);
        if ro != rr {
            return Err(format!(
                "fuse rewrite `{rewrite}` is unsound at n={n}: {ro:?} vs {rr:?}"
            ));
        }
    }
    Ok(())
}

/// The differential harness has teeth: a deliberately unsound fusion
/// rewrite — composing the two stages in the wrong order — is caught
/// and reported *by name*, while the real fuser's output passes.  This
/// is the fusion analogue of the optimizer's mutation tests: it proves
/// the tests above would actually fail if `nsc::algebra::fuse` broke.
#[test]
fn unsound_fusion_rewrite_is_caught_by_name() {
    // map(+1) ∘ map(×2): order matters (2x+1 vs 2x+2).
    let chain = a::lam(
        "v",
        a::app(
            a::map(a::lam("x", a::add(a::var("x"), a::nat(1)))),
            a::app(
                a::map(a::lam("x", a::mul(a::var("x"), a::nat(2)))),
                a::var("v"),
            ),
        ),
    );

    // The real rewrite passes the differential.
    let fused = nsc::algebra::fuse::fuse_func(&chain);
    assert_eq!(fused.stages, 1);
    check_rewrite("map-compose", &chain, &fused.func).expect("sound fusion flagged as unsound");

    // The mutated rewrite — f and g swapped — is caught, naming itself.
    let wrong = a::lam(
        "v",
        a::app(
            a::map(a::lam(
                "x",
                a::mul(a::add(a::var("x"), a::nat(1)), a::nat(2)),
            )),
            a::var("v"),
        ),
    );
    let err = check_rewrite("map-compose-wrong-order", &chain, &wrong)
        .expect_err("wrong-order composition must not pass the differential");
    assert!(
        err.contains("fuse rewrite `map-compose-wrong-order` is unsound"),
        "divergence report does not name the rewrite: {err}"
    );
}

/// `Compiled::from_parts` documents `fused_stages: 0`; the unfused
/// entry point must agree so `nsc run --batch` and serving metrics can
/// never report phantom stages.
#[test]
fn unfused_pipeline_reports_zero_stages() {
    let c: Compiled = compile_nsc_unfused(
        &nsc::runtime::workloads::chained_maps(),
        &Type::seq(Type::Nat),
        OptLevel::O1,
    )
    .unwrap();
    assert_eq!(c.fused_stages, 0);
}
