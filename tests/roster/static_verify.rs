//! `bvram::verify` over everything the repo compiles (from
//! `tests/static_verify.rs`): every stdlib function, every golden
//! example, and the Map-Lemma pack kernels must verify **clean** — no
//! structural violations, no uninit reads, no fall-off-the-end paths — at
//! `O0` and `O1`, however large the program, with the verifier's sparse
//! definite-initialization check matching the dense reference finding for
//! finding.  The `O1` kernels are re-derived through the pipeline, which
//! a debug build translation-validates pass by pass.

use super::common::reference::assert_init_matches_reference;
use super::common::{on_big_stack, roster};
use super::{entry, goldens};
use bvram::instr::{Instr, Reg};
use bvram::{verify_program, Program};
use nsc::compile::{compile_nsc_with, OptLevel, OPT_BUDGET};
use nsc::core::ast as a;
use nsc::core::Type;

fn assert_clean(what: &str, prog: &Program) {
    let report = verify_program(prog);
    assert!(
        report.clean(),
        "{what} failed static verification:\n{report}"
    );
}

/// Every stdlib function compiles to a clean program, unoptimized and
/// optimized alike.
#[test]
fn stdlib_verifies_clean_at_o0_and_o1() {
    on_big_stack(|| {
        for s in roster() {
            for level in [OptLevel::O0, OptLevel::O1] {
                let what = format!("{} at {level:?}", s.name);
                let single = &entry(s.name, &s.f, &s.dom, level).single.program;
                assert_clean(&what, single);
                assert_init_matches_reference(&what, single);
            }
        }
    });
}

/// The Map-Lemma pack kernels `map(f) : [s] → [t]` — what the batch
/// runtime actually executes — verify clean as lowered, and the shared
/// `O1` kernel is, instruction for instruction, what the pipeline makes
/// of `map(f)` (translation-validated pass by pass in a debug build).
#[test]
fn map_kernels_verify_clean() {
    on_big_stack(|| {
        for s in roster() {
            let k0 = &entry(s.name, &s.f, &s.dom, OptLevel::O0).batch.program;
            assert_clean(&format!("map({}) at O0", s.name), k0);
            // Lowerings past the budget ship unoptimized, so there is no
            // pass to validate.
            if k0.instrs.len() > OPT_BUDGET {
                continue;
            }
            let validated = compile_nsc_with(
                &a::map(s.f.clone()),
                &Type::seq(s.dom.clone()),
                OptLevel::O1,
            )
            .unwrap_or_else(|e| panic!("compiling map({}): {e}", s.name))
            .program;
            assert_clean(&format!("map({}) at O1", s.name), &validated);
            let k1 = &entry(s.name, &s.f, &s.dom, OptLevel::O1).batch.program;
            assert!(
                validated.instrs == k1.instrs,
                "map({}): the shared O1 kernel is not the validated one",
                s.name
            );
        }
    });
}

/// Every golden example module compiles to a clean program at both
/// optimization levels.
#[test]
fn golden_examples_verify_clean() {
    on_big_stack(|| {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples");
        let mut files: Vec<String> = std::fs::read_dir(dir)
            .expect("examples/ directory")
            .filter_map(|e| {
                let p = e.ok()?.path();
                (p.extension()? == "nsc").then(|| p.file_stem().unwrap().to_string_lossy().into())
            })
            .collect();
        files.sort();
        let stems: Vec<&str> = goldens().iter().map(|g| g.0).collect();
        assert_eq!(files, stems, "expected the five golden examples");
        for (name, f, dom, _) in goldens() {
            for level in [OptLevel::O0, OptLevel::O1] {
                let what = format!("{name} at {level:?}");
                let single = &entry(name, f, dom, level).single.program;
                assert_clean(&what, single);
                assert_init_matches_reference(&what, single);
            }
        }
    });
}

/// The cache's own `map(main)` kernel of `examples/classify.nsc` — over
/// 100k instructions — with one temporary consumed before it is
/// produced: whatever the program's size, the read is named.
#[test]
fn use_before_def_in_a_large_kernel_is_caught() {
    on_big_stack(|| {
        let (name, f, dom, _) = goldens()
            .into_iter()
            .find(|g| g.0 == "classify")
            .expect("examples/classify.nsc");
        let kernel = &entry(name, f, dom, OptLevel::O1).batch.program;
        assert!(kernel.instrs.len() > 100_000, "workload choice");
        let n_defs = |r: Reg| {
            kernel
                .instrs
                .iter()
                .filter(|i| i.output() == Some(r))
                .count()
        };
        let (pc, tmp) = (kernel.instrs.len() / 2..)
            .find_map(|pc| match kernel.instrs[pc] {
                Instr::Arith { a, .. } if n_defs(a) == 1 => Some((pc, a)),
                _ => None,
            })
            .expect("an Arith reading a single-definition temporary");

        // Its one definition never runs (a jump to the next pc keeps
        // every other pc where it was).
        let mut bad = kernel.clone();
        let def = bad
            .instrs
            .iter()
            .position(|i| i.output() == Some(tmp))
            .unwrap();
        bad.instrs[def] = Instr::Goto {
            target: def as u32 + 1,
        };
        let report = verify_program(&bad);
        assert!(report.ok() && !report.clean(), "{report}");
        assert!(report.uninit_reads.contains(&(pc, tmp)), "{report}");
        assert!(
            report.uninit_reads.iter().all(|&(_, r)| r == tmp),
            "{report}"
        );

        // The read is redirected to a register nothing writes.
        let mut bad = kernel.clone();
        let ghost = bad.n_regs as Reg;
        bad.n_regs += 1;
        let Instr::Arith { a, .. } = &mut bad.instrs[pc] else {
            unreachable!()
        };
        *a = ghost;
        let report = verify_program(&bad);
        assert_eq!(report.uninit_reads, vec![(pc, ghost)], "{report}");
        assert!(report.ok() && !report.clean());
    });
}
