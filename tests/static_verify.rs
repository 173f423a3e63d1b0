//! `bvram::verify` over everything the repo ships: every runnable
//! stdlib function, every golden `.nsc` example, and the Map-Lemma
//! pack kernels must verify **clean** — no structural violations, no
//! uninit reads, no fall-off-the-end paths — at `O0` and at the
//! default optimization level, however large the program.  The
//! verifier's sparse definite-initialization check is compared, finding
//! for finding, with the dense all-register dataflow it replaced (kept
//! here as the reference).  Mutation checks then corrupt a verified
//! program one instruction at a time and demand the verifier name the
//! program counter and the broken invariant, so the suite would notice
//! a verifier that "passes" by checking nothing.

use bvram::analysis::RegSet;
use bvram::cfg::Cfg;
use bvram::instr::{Instr, Reg};
use bvram::verify::{replay, run_forward, ForwardAnalysis};
use bvram::{verify_program, Program};
use nsc_compile::{compile_nsc_with, optimize_checked, Backend, OptLevel, VerifyLevel};
use nsc_core::ast as a;
use nsc_core::parse::parse_module;
use nsc_core::types::Type;
use nsc_runtime::workloads::goldens;
use nsc_runtime::CompiledCache;
use std::path::PathBuf;

mod common;
use common::{on_big_stack, typed_suite as suite};

fn assert_clean(what: &str, prog: &Program) {
    let report = verify_program(prog);
    assert!(
        report.clean(),
        "{what} failed static verification:\n{report}"
    );
}

/// The reference for the verifier's definite-initialization check: the
/// textbook must-dataflow over *all* `n_regs` registers at every block
/// entry.  Affordable on single programs, not on `map(f)` kernels
/// (hundreds of thousands of registers times thousands of blocks).
struct DenseInit;

impl ForwardAnalysis for DenseInit {
    type State = RegSet;

    fn entry_state(&self, prog: &Program) -> RegSet {
        let mut s = RegSet::new(prog.n_regs);
        for r in 0..prog.r_in {
            s.insert(r as Reg);
        }
        s
    }

    fn transfer(&self, _pc: usize, ins: &Instr, state: &mut RegSet) {
        if let Some(d) = ins.output() {
            state.insert(d);
        }
    }

    fn join(&self, state: &mut RegSet, incoming: &RegSet) -> bool {
        state.intersect_with(incoming)
    }
}

/// `verify_program(prog).uninit_reads` must be the reference's list:
/// same `(pc, reg)` pairs, same order.
fn assert_init_matches_reference(what: &str, prog: &Program) {
    let cfg = Cfg::build(prog);
    let init = run_forward(prog, &cfg, &DenseInit);
    let mut want = Vec::new();
    replay(prog, &cfg, &DenseInit, &init, |pc, ins, st| {
        let reads = match ins {
            Instr::Halt => (0..prog.r_out as Reg).collect(),
            _ => ins.inputs(),
        };
        want.extend(
            reads
                .into_iter()
                .filter(|&r| !st.contains(r))
                .map(|r| (pc, r)),
        );
    });
    assert_eq!(verify_program(prog).uninit_reads, want, "{what}\n{prog}");
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
                assert_init_matches_reference(&format!("{name} at {level:?}"), &c.program);
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
/// optimization levels.
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
                assert_clean(&format!("{name} at {level:?}"), &c.program);
                assert_init_matches_reference(&format!("{name} at {level:?}"), &c.program);
            }
        }
        assert_eq!(seen, 5, "expected the five golden examples");
    });
}

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

/// The cache's own `map(main)` kernel of `examples/classify.nsc` —
/// 156k instructions, 151k registers, 4k blocks — with one temporary
/// consumed before it is produced: whatever the program's size, the
/// read is named.
#[test]
fn use_before_def_in_a_large_kernel_is_caught() {
    on_big_stack(|| {
        let (_, f, dom, _) = goldens()
            .into_iter()
            .find(|g| g.0 == "classify")
            .expect("examples/classify.nsc");
        let entry = CompiledCache::new()
            .get_or_compile(&f, &dom, OptLevel::O1, Backend::Seq)
            .expect("classify compiles and passes the cache's insert check");
        let kernel = &entry.batch.program;
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
