//! The static batching rule (`BatchMode::of`, stored per cache entry),
//! from `tests/batch_rule.rs`: pack iff the compiled program and its
//! `map(f)` kernel are straight-line.  Everything here is model cost
//! (`W'`), so it is deterministic.
//!
//! * the small branchy cells where a certified-`W'` threshold would say
//!   pack (`classify` at B = 2, `regroup` at B = 8);
//! * a soundness sweep over the stdlib roster, the
//!   `nsc::runtime::workloads` suite and the five goldens: every program
//!   with a jump plans lanes, and wherever the rule says pack the fused
//!   kernel does at most 1.25x the work of the single runs it replaces.

use super::common::{on_big_stack, roster, sample};
use super::{entry, goldens, suite};
use nsc::compile::OptLevel;
use nsc::core::parse::parse_value;
use nsc::core::value::Value;
use nsc::core::{Func, Type};
use nsc::machine::cfg::Cfg;
use nsc::runtime::{BatchMode, BatchRunner};

fn runner(name: &str, f: &Func, dom: &Type) -> BatchRunner {
    BatchRunner::of(entry(name, f, dom, OptLevel::O1))
}

#[test]
fn small_branchy_golden_batches_plan_lanes() {
    on_big_stack(|| {
        for (name, f, dom, input) in goldens() {
            let (b, input) = match name {
                // A two-request flush of `dispatch_small`-sized traffic.
                "classify" => (2, parse_value("[0, 3, 0, 7]").unwrap()),
                "regroup" => (8, input),
                _ => continue,
            };
            let r = runner(name, f, dom);
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
        let mut subjects: Vec<(String, &Func, &Type, Vec<Value>)> = Vec::new();
        for s in roster() {
            let inputs = (0..B).map(|i| sample(&s.dom, i + 1)).collect();
            subjects.push((format!("stdlib {}", s.name), &s.f, &s.dom, inputs));
        }
        for (name, f) in suite() {
            let inputs = (0..B)
                .map(|i| Value::nat_seq((0..16).map(move |j| (i * 17 + j * 3) % 29)))
                .collect();
            subjects.push((format!("workload {name}"), f, &seq_n, inputs));
        }
        for (name, f, dom, input) in goldens() {
            subjects.push((format!("golden {name}"), f, dom, vec![input; B as usize]));
        }

        let mut packed = Vec::new();
        for (name, f, dom, inputs) in &subjects {
            let r = runner(name, f, dom);
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
