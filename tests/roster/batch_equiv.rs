//! The batch runtime's core contract, property-tested (from
//! `crates/nsc-runtime/tests/batch_equiv.rs`): `run_batch` — in **both**
//! pack and lanes modes — is bit-identical to a loop of single runs, in
//! per-request *outputs* and per-request *fault/divergence
//! classification*, over every stdlib function driven by its roster
//! generator, and over a batch whose packed registers are far longer than
//! any one request's.  The runners read the shared cache entries — the
//! runtime's intended usage pattern.

use super::common::{on_big_stack, roster, Words};
use super::{entry, suite};
use nsc::compile::OptLevel;
use nsc::core::value::Value;
use nsc::core::Type;
use nsc::runtime::{BatchMode, BatchRunner};
use proptest::prelude::*;

/// For one batch of inputs, both modes must reproduce the single-run
/// loop exactly.  (`run_batch` dispatches to the entry's static mode, one
/// of these two, so there is no third execution to check.)
fn check_batch(name: &str, runner: &BatchRunner, inputs: &[Value]) {
    let singles: Vec<_> = inputs
        .iter()
        .map(|v| runner.run_single(v).map(|p| p.0))
        .collect();
    for mode in [BatchMode::Pack, BatchMode::Lanes] {
        let out = runner.run_batch_mode(inputs, mode);
        assert_eq!(
            out.results, singles,
            "{name}/{mode:?}: batch diverges from single runs"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Every stdlib function, random batches (size 0..7) of random
    /// valid-and-faulting inputs, both modes.  No `#[test]`
    /// attribute: the generated fn is driven by the big-stack wrapper
    /// below.
    fn stdlib_batches_inner(
        words in proptest::collection::vec(0u64..u64::MAX, 8..40),
    ) {
        let mut w = Words::new(&words);
        for s in roster() {
            let runner = BatchRunner::of(entry(s.name, &s.f, &s.dom, OptLevel::O1));
            let b = w.pick(7) as usize;
            let inputs: Vec<Value> = (0..b).map(|_| (s.gen)(&mut w)).collect();
            check_batch(s.name, &runner, &inputs);
        }
    }
}

#[test]
fn stdlib_batches_match_single_run_loops() {
    on_big_stack(stdlib_batches_inner);
}

/// A wide batch: 18 requests of 257 elements pack into registers of
/// 4,626, far longer than any one request's, and both modes still agree
/// with the single runs.
#[test]
fn wide_packed_batches_match_single_runs() {
    on_big_stack(|| {
        let (name, f) = suite()
            .iter()
            .find(|(n, _)| *n == "map(x*x+1)")
            .expect("the scalar-map workload");
        let runner = BatchRunner::of(entry(name, f, &Type::seq(Type::Nat), OptLevel::O1));
        let inputs: Vec<Value> = (0..18u64)
            .map(|i| Value::nat_seq((0..257).map(move |j| (i * 31 + j) % 97)))
            .collect();
        check_batch(name, &runner, &inputs);
    });
}
