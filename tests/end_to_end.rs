//! Cross-crate integration tests: the paper's whole pipeline exercised
//! from the facade crate, plus property-based differential testing.

use common::suite;
use nsc::core::ast as a;
use nsc::core::value::Value;
use nsc::core::Type;
use proptest::prelude::*;

mod common;

#[test]
fn whole_pipeline_agrees_on_suite() {
    let dom = Type::seq(Type::Nat);
    for (name, f) in suite() {
        let c = nsc::compile::compile_nsc(&f, &dom).expect(name);
        for n in [0u64, 1, 7, 33] {
            let arg = Value::nat_seq((0..n).map(|i| (i * 31) % 17));
            let (want, _) = nsc::core::eval::apply_func(&f, arg.clone()).expect(name);
            let (got, _) = nsc::compile::run_compiled(&c, &arg).expect(name);
            assert_eq!(got, want, "{name} at n={n}");
        }
    }
}

#[test]
fn optimizer_differential_on_suite() {
    // For every suite program: the O0 and O1 compilations produce
    // bit-identical machine-level outputs, O1 never costs more in T'/W',
    // and its register file is no larger.
    use nsc::compile::OptLevel;
    let dom = Type::seq(Type::Nat);
    for (name, f) in suite() {
        let c0 = nsc::compile::compile_nsc_with(&f, &dom, OptLevel::O0).expect(name);
        let c1 = nsc::compile::compile_nsc_with(&f, &dom, OptLevel::O1).expect(name);
        assert!(
            c1.program.n_regs <= c0.program.n_regs,
            "{name}: optimizer grew the register file"
        );
        assert!(
            c1.program.instrs.len() <= c0.program.instrs.len(),
            "{name}: optimizer grew the program"
        );
        for n in [0u64, 1, 7, 33] {
            let arg = Value::nat_seq((0..n).map(|i| (i * 31) % 17));
            let (v0, t0) = nsc::compile::run_compiled(&c0, &arg).expect(name);
            let (v1, t1) = nsc::compile::run_compiled(&c1, &arg).expect(name);
            assert_eq!(v0, v1, "{name} at n={n}: optimized output differs");
            assert!(
                t1.time <= t0.time && t1.work <= t0.work,
                "{name} at n={n}: optimizer regressed cost {t0:?} -> {t1:?}"
            );
        }
    }
}

#[test]
fn brent_trace_is_exact_on_a_compiled_while_under_map() {
    // The flattened `while` loops on a `select`-packed active set, so its
    // trip count is data-dependent: the Proposition 3.2 trace must be the
    // real run's, step for step.
    let (_, f) = suite()
        .into_iter()
        .find(|(n, _)| *n == "halve-all")
        .unwrap();
    let dom = Type::seq(Type::Nat);
    let c = nsc::compile::compile_nsc(&f, &dom).unwrap();
    let regs = nsc::compile::encode_arg(&Value::nat_seq([5, 0, 1000, 3, 64]), &dom).unwrap();
    let t = nsc::sched::run_traced(&c.program, &regs).unwrap();
    let stats = nsc::machine::run_program(&c.program, &regs).unwrap().stats;
    assert_eq!(t.stats, stats);
    assert_eq!(t.per_instr.len() as u64, stats.time);
    assert_eq!(t.per_instr.iter().map(|(_, w)| w).sum::<u64>(), stats.work);
}

#[test]
fn maprec_to_machine_grand_tour() {
    // map-recursion -> Theorem 4.2 -> Theorem 7.1 -> BVRAM execution.
    use nsc::core::maprec::fixtures::{range, range_sum};
    let def = range_sum();
    let f = nsc::core::maprec::translate::translate(&def);
    let c = nsc::compile::compile_nsc(&f, &def.dom).unwrap();
    let (v, _) = nsc::compile::run_compiled(&c, &range(0, 12)).unwrap();
    assert_eq!(v, Value::nat(66));
}

#[test]
fn valiant_mergesort_through_translation() {
    let def = nsc::algorithms::valiant::mergesort_def();
    let f = nsc::core::maprec::translate::translate(&def);
    let xs: Vec<u64> = (0..48).map(|i| (i * 53 + 7) % 100).collect();
    let mut want = xs.clone();
    want.sort();
    let (v, _) = nsc::core::eval::apply_func(&f, Value::nat_seq(xs)).unwrap();
    assert_eq!(v.as_nat_seq().unwrap(), want);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The compiled pipeline agrees with NSC semantics on arbitrary inputs.
    #[test]
    fn prop_compiled_map_agrees(xs in proptest::collection::vec(0u64..1000, 0..40)) {
        let f = a::map(a::lam("x", a::add(a::mul(a::var("x"), a::nat(3)), a::nat(1))));
        let dom = Type::seq(Type::Nat);
        let c = nsc::compile::compile_nsc(&f, &dom).unwrap();
        let arg = Value::nat_seq(xs);
        let (want, _) = nsc::core::eval::apply_func(&f, arg.clone()).unwrap();
        let (got, _) = nsc::compile::run_compiled(&c, &arg).unwrap();
        prop_assert_eq!(got, want);
    }

    /// Batched while (Map Lemma) matches per-element iteration on
    /// arbitrary iteration counts, including the extraction + reorder.
    #[test]
    fn prop_batched_while_agrees(xs in proptest::collection::vec(0u64..64, 0..24)) {
        let f = a::map(a::while_(
            a::lam("x", a::lt(a::nat(0), a::var("x"))),
            a::lam("x", a::monus(a::var("x"), a::nat(2))),
        ));
        let dom = Type::seq(Type::Nat);
        let c = nsc::compile::compile_nsc(&f, &dom).unwrap();
        let arg = Value::nat_seq(xs);
        let (want, _) = nsc::core::eval::apply_func(&f, arg.clone()).unwrap();
        let (got, _) = nsc::compile::run_compiled(&c, &arg).unwrap();
        prop_assert_eq!(got, want);
    }

    /// Both sorting algorithms sort, and agree with std.
    #[test]
    fn prop_sorts_agree(xs in proptest::collection::vec(0u64..500, 0..32)) {
        use nsc::core::maprec::direct::eval_maprec;
        let mut want = xs.clone();
        want.sort();
        let arg = Value::nat_seq(xs);
        let v = eval_maprec(&nsc::algorithms::valiant::mergesort_def(), arg.clone()).unwrap();
        prop_assert_eq!(v.value.as_nat_seq().unwrap(), want.clone());
        let q = eval_maprec(&nsc::algorithms::schemas::quicksort_def(), arg).unwrap();
        prop_assert_eq!(q.value.as_nat_seq().unwrap(), want);
    }

    /// Theorem 4.2 translations (plain and staged) agree with the direct
    /// recursion on random range-sum inputs.
    #[test]
    fn prop_translations_agree(lo in 0u64..40, width in 1u64..60) {
        use nsc::core::maprec::fixtures::{range, range_sum};
        let def = range_sum();
        let arg = range(lo, lo + width);
        let want = nsc::core::maprec::direct::eval_maprec(&def, arg.clone()).unwrap().value;
        let plain = nsc::core::maprec::translate::translate(&def);
        let (v, _) = nsc::core::eval::apply_func(&plain, arg.clone()).unwrap();
        prop_assert_eq!(v, want.clone());
        let staged = nsc::core::maprec::staged::translate_staged(&def, 2);
        let (v, _) = nsc::core::eval::apply_func(&staged, arg).unwrap();
        prop_assert_eq!(v, want);
    }
}
