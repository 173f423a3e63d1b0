//! `bvram::verify` over everything the repo compiles (from
//! `tests/static_verify.rs`): every stdlib function, every golden
//! example, and the Map-Lemma pack kernels must verify **clean** — no
//! structural violations, no uninit reads, no fall-off-the-end paths — at
//! `O0` and `O1`, however large the program, with the verifier's sparse
//! definite-initialization check matching the dense reference finding for
//! finding.  A debug build translation-validated every optimized program
//! pass by pass when it filled the shared cache.

use super::common::reference::assert_init_matches_reference;
use super::common::{on_big_stack, roster};
use super::{entry, goldens};
use bvram::cfg::Cfg;
use bvram::instr::{Instr, Reg};
use bvram::{verify_program, Program};
use nsc::compile::{OptLevel, OPT_BUDGET};

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
/// runtime actually executes — verify clean at `O0` and `O1`.
#[test]
fn map_kernels_verify_clean() {
    on_big_stack(|| {
        for s in roster() {
            let e0 = entry(s.name, &s.f, &s.dom, OptLevel::O0);
            let k0 = &e0.batch.get().unwrap().program;
            assert_clean(&format!("map({}) at O0", s.name), k0);
            // Lowerings past the budget ship unoptimized: the `O1` kernel
            // is the one just checked.
            if k0.instrs.len() > OPT_BUDGET {
                continue;
            }
            let e1 = entry(s.name, &s.f, &s.dom, OptLevel::O1);
            let k1 = &e1.batch.get().unwrap().program;
            assert_clean(&format!("map({}) at O1", s.name), k1);
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
        let entry = entry(name, f, dom, OptLevel::O1);
        let kernel = &entry.batch.get().unwrap().program;
        assert!(kernel.instrs.len() > 100_000, "workload choice");
        // The optimizer reuses register numbers, so take a register's
        // first definition, read later in its own block before any other
        // write: with it gone, no path from the entry writes the register
        // before that read.
        let mut first_def = vec![None; kernel.n_regs];
        for (pc, ins) in kernel.instrs.iter().enumerate() {
            if let Some(d) = ins.output() {
                first_def[d as usize].get_or_insert(pc);
            }
        }
        let cfg = Cfg::build(kernel);
        let (pc, tmp, def) = (0..kernel.instrs.len())
            .rev()
            .find_map(|pc| match kernel.instrs[pc] {
                Instr::Arith { a, .. } if a as usize >= kernel.r_in => first_def[a as usize]
                    .filter(|&d| d < pc && cfg.block_of(d) == cfg.block_of(pc))
                    .filter(|&d| {
                        kernel.instrs[d + 1..pc]
                            .iter()
                            .all(|i| i.output() != Some(a))
                    })
                    .map(|d| (pc, a, d)),
                _ => None,
            })
            .expect("an Arith reading its operand's first definition");

        // That definition never runs (a jump to the next pc keeps every
        // other pc where it was).
        let mut bad = kernel.clone();
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
