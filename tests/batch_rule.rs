//! The static batching rule (`BatchMode::of`, stored per cache entry):
//! pack iff the compiled program and its `map(f)` kernel are
//! straight-line.  Everything here is model cost (`W'`), so it is
//! deterministic.
//!
//! * the small branchy cells where a certified-`W'` threshold would say
//!   pack (`classify` at B = 2, `regroup` at B = 8);
//! * a soundness sweep over the 22-function stdlib roster, the
//!   `nsc::runtime::workloads` suite and the five goldens: every program
//!   with a jump plans lanes, and wherever the rule says pack the fused
//!   kernel does at most 1.25x the work of the single runs it replaces.

mod common;
use common::{on_big_stack, sample, typed_suite};

use nsc::compile::{Backend, OptLevel};
use nsc::core::parse::parse_value;
use nsc::core::value::Value;
use nsc::core::{Func, Type};
use nsc::machine::cfg::Cfg;
use nsc::runtime::workloads::{self, goldens};
use nsc::runtime::{BatchMode, BatchRunner, CompiledCache};

fn runner(cache: &CompiledCache, name: &str, f: &Func, dom: &Type) -> BatchRunner {
    BatchRunner::from_cache(cache, f, dom, OptLevel::O1, Backend::Seq)
        .unwrap_or_else(|e| panic!("compiling {name}: {e}"))
}

#[test]
fn small_branchy_golden_batches_plan_lanes() {
    on_big_stack(|| {
        let cache = CompiledCache::new();
        for (name, f, dom, input) in goldens() {
            let (b, input) = match name {
                // A two-request flush of `dispatch_small`-sized traffic.
                "classify" => (2, parse_value("[0, 3, 0, 7]").unwrap()),
                "regroup" => (8, input),
                _ => continue,
            };
            let r = runner(&cache, name, &f, &dom);
            let inputs = vec![input; b];
            assert_eq!(r.plan(&inputs), BatchMode::Lanes, "{name} B={b}");
            assert_eq!(r.run_batch(&inputs).mode, BatchMode::Lanes, "{name} B={b}");
        }
    });
}

#[test]
fn rule_is_sound_over_stdlib_workloads_and_goldens() {
    on_big_stack(|| {
        const B: u64 = 8;
        let seq_n = Type::seq(Type::Nat);
        let mut subjects: Vec<(String, Func, Type, Vec<Value>)> = Vec::new();
        for (name, f, dom) in typed_suite() {
            let inputs = (0..B).map(|i| sample(&dom, i + 1)).collect();
            subjects.push((format!("stdlib {name}"), f, dom, inputs));
        }
        for (name, f) in workloads::suite() {
            let inputs = (0..B)
                .map(|i| Value::nat_seq((0..16).map(move |j| (i * 17 + j * 3) % 29)))
                .collect();
            subjects.push((format!("workload {name}"), f, seq_n.clone(), inputs));
        }
        for (name, f, dom, input) in goldens() {
            subjects.push((format!("golden {name}"), f, dom, vec![input; B as usize]));
        }

        let cache = CompiledCache::new();
        let mut packed = Vec::new();
        for (name, f, dom, inputs) in &subjects {
            let r = runner(&cache, name, f, dom);
            let entry = r.cached();
            let blocks = Cfg::build(&entry.single.program).n_blocks();
            let kernel_blocks = Cfg::build(&entry.batch.program).n_blocks();
            if blocks > 1 || kernel_blocks > 1 {
                assert_eq!(entry.mode(), BatchMode::Lanes, "{name}: has a jump");
            }
            // `broadcast` is why the rule reads the kernel too: its
            // single program is one block, but `map(broadcast)` is not
            // (49 blocks, 16.9x the work of the single runs).
            if name == "stdlib broadcast" {
                assert!(blocks == 1 && kernel_blocks > 1, "{blocks}/{kernel_blocks}");
            }
            if entry.mode() == BatchMode::Lanes {
                continue;
            }
            packed.push(name.as_str());
            // Only completed runs have a cost to compare.
            let ok: Vec<Value> = inputs
                .iter()
                .filter(|v| r.run_single(v).is_ok())
                .cloned()
                .collect();
            assert!(!ok.is_empty(), "{name}: no sampled input runs");
            let singles: u64 = ok.iter().map(|v| r.run_single(v).unwrap().1.work).sum();
            let pack = r.run_batch_mode(&ok, BatchMode::Pack);
            assert!(pack.fused, "{name}: clean batch must fuse");
            assert!(
                4 * pack.cost.work <= 5 * singles,
                "{name}: fused W' {} is over 1.25x the single runs' {singles}",
                pack.cost.work
            );
        }
        assert_eq!(
            packed,
            [
                "stdlib pi1",
                "stdlib pi2",
                "workload map(x*x+1)",
                "golden square_plus_one"
            ]
        );
    });
}
