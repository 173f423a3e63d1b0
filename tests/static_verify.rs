//! `bvram::verify` against its own references, on programs nobody
//! compiled: the sparse definite-initialization check is compared,
//! finding for finding, with the dense all-register dataflow it replaced
//! (`common::reference`) on fuzz programs with jumps spliced in, and
//! mutation checks corrupt a verified program one instruction at a time
//! and demand the verifier name the program counter and the broken
//! invariant, so the suite would notice a verifier that "passes" by
//! checking nothing.  The sweeps over everything the repo compiles — the
//! stdlib roster, the goldens and their `map(f)` kernels — live in
//! `tests/roster/static_verify.rs`, over the shared program cache.

use bvram::instr::{Instr, Reg};
use bvram::verify_program;
use nsc_compile::{compile_nsc_with, OptLevel};
use nsc_core::ast as a;
use nsc_core::types::Type;

mod common;
use common::reference::assert_init_matches_reference;

/// Programs with findings: `bvram::fuzz` programs read unwritten
/// registers on purpose, and splicing jumps to arbitrary targets into
/// them adds what straight-line code cannot have — registers written on
/// some paths only, loops entered at two places, dead code that
/// "defines" a register.  Findings must match the reference on all.
#[test]
fn init_check_matches_the_dense_reference_on_fuzz_programs() {
    let mut with_findings = 0;
    for seed in 1..=200u64 {
        let words: Vec<u64> = (0..40u64)
            .map(|i| seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_mul(i + 7) >> 7)
            .collect();
        let mut p = bvram::fuzz::decode_program(&words, [5, 2, 1], bvram::fuzz::FUZZ_REGS);
        assert_init_matches_reference(&format!("fuzz seed {seed}"), &p);
        // One jump per eight words; targets may be one past the end.
        for w in words.iter().step_by(8) {
            let len = p.instrs.len();
            let target = ((w >> 20) as usize % (len + 2)) as u32;
            let jump = match w % 3 {
                0 => Instr::Goto { target },
                _ => Instr::IfEmptyGoto {
                    reg: (w >> 8) as Reg % p.n_regs as Reg,
                    target,
                },
            };
            p.instrs.insert((w >> 40) as usize % len, jump);
        }
        assert_init_matches_reference(&format!("fuzz seed {seed} with jumps"), &p);
        with_findings += usize::from(!verify_program(&p).uninit_reads.is_empty());
    }
    assert!(with_findings >= 50, "only {with_findings}/200 had findings");
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
