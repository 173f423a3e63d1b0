//! `bvram::verify` over everything the repo ships: every runnable
//! stdlib function, every golden `.nsc` example, and the Map-Lemma
//! pack kernels must verify **clean** — no structural violations, no
//! uninit reads, no fall-off-the-end paths — at `O0` and at the
//! default optimization level.  The verifier skips definite
//! initialization past its `INIT_BUDGET` (most branchy `map(f)` kernels
//! are: "clean" means structure + fall-off only there), so the golden
//! test also pins that the programs the lanes discipline actually runs —
//! each golden's `O1` single program — get the whole check.  A mutation
//! check then corrupts a verified program one instruction at a time and
//! demands the verifier name the program counter and the broken
//! invariant, so the suite would notice a verifier that "passes" by
//! checking nothing.

use bvram::instr::Instr;
use bvram::{verify_program, Program, Report};
use nsc_compile::{compile_nsc_with, optimize_checked, OptLevel, VerifyLevel};
use nsc_core::ast as a;
use nsc_core::parse::parse_module;
use nsc_core::types::Type;
use std::path::PathBuf;

mod common;
use common::{on_big_stack, typed_suite as suite};

fn assert_clean(what: &str, prog: &Program) -> Report {
    let report = verify_program(prog);
    assert!(
        report.clean(),
        "{what} failed static verification:\n{report}"
    );
    report
}

/// Every stdlib function compiles to a clean program, unoptimized and
/// optimized alike.
#[test]
fn stdlib_verifies_clean_at_o0_and_o1() {
    on_big_stack(|| {
        for (name, f, dom) in suite() {
            for level in [OptLevel::O0, OptLevel::O1] {
                let c = compile_nsc_with(&f, &dom, level)
                    .unwrap_or_else(|e| panic!("compiling {name} at {level:?}: {e}"));
                assert_clean(&format!("{name} at {level:?}"), &c.program);
            }
        }
    });
}

/// The Map-Lemma pack kernels `map(f) : [s] → [t]` — what the batch
/// runtime actually executes — verify clean as lowered and after the
/// per-pass-validated optimizer run the compiled-program cache performs.
#[test]
fn map_kernels_verify_clean() {
    on_big_stack(|| {
        for (name, f, dom) in suite() {
            let k0 = compile_nsc_with(&a::map(f), &Type::seq(dom), OptLevel::O0)
                .unwrap_or_else(|e| panic!("lowering map({name}): {e}"));
            assert_clean(&format!("map({name}) at O0"), &k0.program);
            // Mirror the cache's compile-latency guard: kernels past the
            // budget ship unoptimized, so optimizing them here would
            // verify a program no caller ever runs (and cost minutes).
            if k0.program.instrs.len() > nsc::runtime::KERNEL_OPT_BUDGET {
                continue;
            }
            let opt = optimize_checked(k0.program, OptLevel::O1, VerifyLevel::Full, name)
                .unwrap_or_else(|e| panic!("optimizing map({name}): {e}"));
            assert_clean(&format!("map({name}) at O1"), &opt);
        }
    });
}

/// Every golden example module compiles to a clean program at both
/// optimization levels — and at `O1`, the program `nsc serve` runs per
/// lane, clean includes use-before-def: the day a golden's single
/// program outgrows `INIT_BUDGET`, this fails rather than the check
/// silently thinning out.
#[test]
fn golden_examples_verify_clean() {
    on_big_stack(|| {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples");
        let mut seen = 0;
        for entry in std::fs::read_dir(dir).expect("examples/ directory") {
            let path = entry.expect("dir entry").path();
            if path.extension().is_none_or(|e| e != "nsc") {
                continue;
            }
            seen += 1;
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let src = std::fs::read_to_string(&path).expect("read example");
            let module = parse_module(&src).unwrap_or_else(|e| panic!("parsing {name}: {e}"));
            let def = module.get("main").expect("examples define main");
            let pure = module
                .inlined("main")
                .unwrap_or_else(|e| panic!("inlining {name}: {e}"));
            for level in [OptLevel::O0, OptLevel::O1] {
                let c = compile_nsc_with(&pure, &def.dom, level)
                    .unwrap_or_else(|e| panic!("compiling {name} at {level:?}: {e}"));
                let report = assert_clean(&format!("{name} at {level:?}"), &c.program);
                if level == OptLevel::O1 {
                    assert!(
                        !report.init_analysis_skipped,
                        "{name} at O1 is over the verifier's init budget:\n{report}"
                    );
                }
            }
        }
        assert_eq!(seen, 5, "expected the five golden examples");
    });
}

/// A compiled, verified program with one corrupted instruction must
/// fail verification — and the report must name the corrupted pc and
/// the invariant it breaks, or the diagnostic is useless for hunting
/// miscompiles.
#[test]
fn mutation_is_caught_with_pc_and_invariant() {
    let inc = a::lam("x", a::add(a::var("x"), a::nat(1)));
    let clean = compile_nsc_with(&a::map(inc), &Type::seq(Type::Nat), OptLevel::O1)
        .expect("compile map(+1)")
        .program;
    assert!(verify_program(&clean).clean(), "baseline must be clean");

    // Miscompile 1: an operand outside the declared register file (a
    // structural violation — the machine would panic indexing it).
    let mut bad = clean.clone();
    let pc = bad
        .instrs
        .iter()
        .position(|i| matches!(i, Instr::Arith { .. }))
        .expect("optimized kernel has an Arith");
    let rogue = bad.n_regs as u32 + 7;
    let Instr::Arith { a, .. } = &mut bad.instrs[pc] else {
        unreachable!()
    };
    *a = rogue;
    let report = verify_program(&bad);
    assert!(!report.ok(), "out-of-bounds register must be a violation");
    let text = report.to_string();
    assert!(
        text.contains(&format!("pc {pc}")) && text.contains(&format!("v{rogue}")),
        "diagnostic must name the pc and the rogue register:\n{text}"
    );

    // Miscompile 2: a jump past one-past-the-end (a target *equal* to
    // the length is a legal fall-off; one past it is malformed).
    let mut bad = clean.clone();
    let pc = bad.instrs.len();
    bad.instrs.push(Instr::Goto {
        target: pc as u32 + 7,
    });
    let report = verify_program(&bad);
    assert!(!report.ok(), "out-of-range jump must be a violation");
    let text = report.to_string();
    assert!(
        text.contains(&format!("pc {pc}")) && text.contains("past the program end"),
        "diagnostic must name the pc and the invariant:\n{text}"
    );

    // Miscompile 3: a read of a register no path ever writes (the
    // machine zero-clears, so this silently computes on garbage — the
    // classic register-renaming bug a differential test can miss).
    let mut bad = clean.clone();
    let ghost = bad.n_regs as u32;
    bad.n_regs += 1;
    let pc = bad
        .instrs
        .iter()
        .position(|i| matches!(i, Instr::Arith { .. }))
        .expect("optimized kernel has an Arith");
    let Instr::Arith { a, .. } = &mut bad.instrs[pc] else {
        unreachable!()
    };
    *a = ghost;
    let report = verify_program(&bad);
    assert!(
        report.ok() && !report.clean(),
        "uninit read is a finding, not a structural violation:\n{report}"
    );
    assert!(
        report.uninit_reads.contains(&(pc, ghost)),
        "uninit read must be pinned to pc {pc}, register {ghost}:\n{report}"
    );
    assert!(
        report.to_string().contains("uninit read"),
        "rendered report must name the invariant"
    );
}
