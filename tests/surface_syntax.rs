//! The surface-syntax contract, end to end:
//!
//! * `parse(pretty(f)) == f` over the whole standard library, the maprec
//!   fixtures (direct bodies *and* their Theorem 4.2 translations), and
//!   Valiant's mergesort;
//! * every `examples/*.nsc` golden file parses, type checks, evaluates,
//!   and compiles to the same value on the BVRAM;
//! * common syntax/type mistakes produce the snapshot error messages;
//! * the `nsc` CLI binary drives all of the above from the command line.

use nsc::compile::{compile_nsc, run_compiled};
use nsc::core::ast as a;
use nsc::core::eval::Evaluator;
use nsc::core::parse::{parse_func, parse_module, parse_term};
use nsc::core::stdlib;
use nsc::core::{Func, Type, Value};
use std::path::PathBuf;

mod common;

fn roundtrip(name: &str, f: &Func) {
    let printed = f.to_string();
    let back = parse_func(&printed)
        .unwrap_or_else(|e| panic!("{name}: printed form does not re-parse: {e}\n{printed}"));
    assert_eq!(&back, f, "{name}: parse(pretty(f)) != f");
}

/// Every roster function, and the `util` helper `lam2` the roster
/// leaves out.
#[test]
fn stdlib_round_trips() {
    for s in common::roster() {
        roundtrip(s.name, &s.f);
    }
    roundtrip(
        "lam2",
        &stdlib::util::lam2("a", "b", a::monus(a::var("a"), a::var("b"))),
    );
}

#[test]
fn maprec_fixtures_round_trip() {
    use nsc::core::maprec::{fixtures, translate::translate};
    for def in [
        fixtures::range_sum(),
        fixtures::range_sum3(),
        fixtures::staircase(),
    ] {
        roundtrip(&format!("maprec body {}", def.name), &def.body());
        roundtrip(&format!("maprec translated {}", def.name), &translate(&def));
    }
}

#[test]
fn valiant_mergesort_round_trips() {
    use nsc::core::maprec::translate::translate;
    for def in [
        nsc::algorithms::valiant::mergesort_def(),
        nsc::algorithms::valiant::direct_mergesort_def(),
    ] {
        roundtrip(&format!("{} body", def.name), &def.body());
        roundtrip(&format!("{} translated", def.name), &translate(&def));
    }
}

// ---------------------------------------------------------------------------
// Golden `.nsc` example files.
// ---------------------------------------------------------------------------

fn examples_src_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples")
}

/// Every golden file with its expected output on its embedded input.
fn golden() -> Vec<(&'static str, Value)> {
    vec![
        (
            "square_plus_one.nsc",
            Value::nat_seq([1, 2, 5, 10, 17, 26, 37, 50]),
        ),
        ("halve_all.nsc", Value::nat_seq([0, 0, 0, 0, 0, 0])),
        ("dot_product.nsc", Value::nat(300)),
        (
            "regroup.nsc",
            Value::seq(vec![
                Value::nat_seq([3, 5]),
                Value::nat_seq([]),
                Value::nat_seq([7, 9, 11]),
                Value::nat_seq([13]),
            ]),
        ),
        (
            "classify.nsc",
            Value::seq(vec![
                Value::bool_(true),
                Value::inr(Value::nat(3)),
                Value::bool_(true),
                Value::inr(Value::nat(7)),
                Value::bool_(true),
            ]),
        ),
    ]
}

#[test]
fn golden_list_is_exhaustive() {
    let mut found: Vec<String> = std::fs::read_dir(examples_src_dir())
        .expect("examples/ directory")
        .filter_map(|e| {
            let p = e.ok()?.path();
            (p.extension()? == "nsc").then(|| p.file_name().unwrap().to_string_lossy().into_owned())
        })
        .collect();
    found.sort();
    let mut expected: Vec<String> = golden().iter().map(|(n, _)| n.to_string()).collect();
    expected.sort();
    assert_eq!(
        found, expected,
        "examples/*.nsc and the golden() table disagree; update both together"
    );
}

#[test]
fn golden_examples_run_on_the_bvram() {
    for (name, want) in golden() {
        let src = std::fs::read_to_string(examples_src_dir().join(name)).unwrap();
        let module = parse_module(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        module.check().unwrap_or_else(|e| panic!("{name}: {e}"));
        let def = module
            .get("main")
            .unwrap_or_else(|| panic!("{name}: no main"));
        let input = module
            .input
            .clone()
            .unwrap_or_else(|| panic!("{name}: no input directive"));

        // Source semantics.
        let table = module.func_table();
        let (evaled, _) = Evaluator::new(&table)
            .apply_closed(&def.func, input.clone())
            .unwrap_or_else(|e| panic!("{name}: evaluator: {e}"));
        assert_eq!(evaled, want, "{name}: evaluator output");

        // Theorem 7.1 pipeline on the machine.
        let pure = module
            .inlined("main")
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let compiled = compile_nsc(&pure, &def.dom).unwrap_or_else(|e| panic!("{name}: {e}"));
        let (got, _) =
            run_compiled(&compiled, &input).unwrap_or_else(|e| panic!("{name}: bvram: {e}"));
        assert_eq!(got, want, "{name}: bvram output");
    }
}

#[test]
fn golden_examples_round_trip_through_the_printer() {
    // Re-printing every definition of every example and re-parsing it
    // reproduces the AST — the .nsc files live inside the printable
    // fragment plus sugar, and sugar desugars to printable ASTs.
    for (name, _) in golden() {
        let src = std::fs::read_to_string(examples_src_dir().join(name)).unwrap();
        let module = parse_module(&src).unwrap();
        for def in &module.defs {
            roundtrip(&format!("{name}:{}", def.name), &def.func);
        }
    }
}

// ---------------------------------------------------------------------------
// Error-message snapshots.
// ---------------------------------------------------------------------------

#[test]
fn syntax_error_snapshots() {
    let cases: &[(&str, &str)] = &[
        (
            "[]",
            "parse error at 1:3: expected `:` in empty-sequence annotation `[]:t`, \
             found end of input",
        ),
        (
            "(xs @@ ys)",
            "parse error at 1:6: expected a term, found `@`",
        ),
        (
            "(1 - 2)",
            "parse error at 1:4: stray `-`: NSC has no subtraction, use monus `-.`",
        ),
        (
            "inl(3)",
            "parse error at 1:4: expected `:` in `inl:t(M)` (the annotation is the other \
             summand's type), found `(`",
        ),
        (
            "(case x of inl(y) => 1)",
            "parse error at 1:23: expected `|` in case, found `)`",
        ),
        (
            "(\\while. 1)",
            "parse error at 1:3: `while` is a reserved word and cannot name a lambda binder",
        ),
    ];
    for (src, want) in cases {
        let got = parse_term(src).unwrap_err().to_string();
        assert_eq!(&got, want, "snapshot changed for {src:?}");
    }
}

#[test]
fn module_error_snapshots() {
    // Type errors come from the module checker, positioned by definition.
    let m = parse_module("fn f : N -> B = (\\x. x)").unwrap();
    assert_eq!(
        m.check().unwrap_err().to_string(),
        "in `f`: declared codomain B but the body returns N"
    );
    let m = parse_module("fn f : N -> N = (\\x. (x + y))").unwrap();
    assert_eq!(
        m.check().unwrap_err().to_string(),
        "in `f`: unbound variable `y`"
    );
    let m = parse_module("fn f : [N] -> [N] = map((\\x. x)) fn f : N -> N = (\\x. x)");
    assert_eq!(
        m.unwrap_err().to_string(),
        "parse error at 1:37: duplicate definition of `f`"
    );
}

#[test]
fn compile_errors_surface_the_translation_cause() {
    // The satellite bugfix: an unbound variable must survive the trip
    // through compile_nsc instead of collapsing to "translation failed".
    let f = a::lam("x", a::add(a::var("x"), a::var("oops")));
    let err = compile_nsc(&f, &Type::Nat).unwrap_err();
    assert_eq!(
        err.to_string(),
        "NSC -> NSA translation failed: unbound variable `oops`"
    );
}

// ---------------------------------------------------------------------------
// The CLI binary.
// ---------------------------------------------------------------------------

/// The `target/<profile>/` directory holding the `nsc` binary.
fn nsc_bin() -> PathBuf {
    let mut p = std::env::current_exe().expect("test binary path");
    p.pop(); // deps/
    p.pop(); // <profile>/
    p.push("nsc");
    if !p.exists() {
        p.set_extension("exe");
    }
    p
}

fn run_fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/run")
}

/// `nsc run <file> --batch 8`: the output must match
/// `tests/fixtures/run/<stem>.out` byte for byte — source `T`/`W`, the
/// compiled `T'`/`W'`, the batch row and the discipline line — so every
/// compiler or optimizer change shows its cost delta in the diff.
#[test]
fn cli_runs_every_example() {
    let bin = nsc_bin();
    assert!(bin.exists(), "nsc binary not found at {}", bin.display());
    for (name, want) in golden() {
        let path = examples_src_dir().join(name);
        let stem = name.trim_end_matches(".nsc");
        let golden_path = run_fixture_dir().join(format!("{stem}.out"));
        let golden_out = std::fs::read_to_string(&golden_path)
            .unwrap_or_else(|e| panic!("missing run golden {}: {e}", golden_path.display()));
        let out = std::process::Command::new(&bin)
            .arg("run")
            .arg(&path)
            .args(["--batch", "8"])
            .output()
            .expect("spawn nsc");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(
            out.status.success(),
            "nsc run {name} failed\n--- stdout ---\n{stdout}\n--- stderr ---\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            stdout.contains(&format!("result = {want}")),
            "nsc run {name}: expected `result = {want}` in\n{stdout}"
        );
        assert_eq!(
            stdout,
            golden_out,
            "nsc run {name} --batch 8 diverged from {}",
            golden_path.display()
        );
    }
}

/// Every discipline line README.md quotes (`` `batch/seq: …` ``) is one
/// `nsc run --batch` really prints: it is a line of some
/// `tests/fixtures/run/*.out`, whitespace normalized.
#[test]
fn readme_quotes_only_real_discipline_lines() {
    let norm = |s: &str| s.split_whitespace().collect::<Vec<_>>().join(" ");
    let readme = std::fs::read_to_string(examples_src_dir().with_file_name("README.md")).unwrap();
    let quotes: Vec<String> = readme
        .match_indices("`batch/seq: ")
        .map(|(i, _)| {
            let rest = &readme[i + 1..];
            norm(&rest[..rest.find('`').expect("closing backtick")])
        })
        .collect();
    assert!(!quotes.is_empty(), "README.md quotes no discipline line");
    let mut printed = Vec::new();
    for entry in std::fs::read_dir(run_fixture_dir()).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "out") {
            printed.extend(std::fs::read_to_string(path).unwrap().lines().map(norm));
        }
    }
    for q in &quotes {
        assert!(
            printed.contains(q),
            "README.md quotes `{q}`, which no tests/fixtures/run/*.out prints"
        );
    }
}

#[test]
fn cli_check_and_compile_work() {
    let bin = nsc_bin();
    let path = examples_src_dir().join("square_plus_one.nsc");
    let out = std::process::Command::new(&bin)
        .arg("check")
        .arg(&path)
        .output()
        .unwrap();
    assert!(out.status.success());
    assert_eq!(
        String::from_utf8_lossy(&out.stdout).trim(),
        "fn main : [N] -> [N]"
    );
    let out = std::process::Command::new(&bin)
        .arg("compile")
        .arg(&path)
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("bvram program"), "{text}");
    assert!(text.contains("halt"), "{text}");
}

#[test]
fn cli_run_reports_split_lengths_whose_sum_overflows() {
    // 2^64 - 1 + 3 wraps to 2, the data length: the reference evaluator
    // must report the mismatch, not slice past the end and panic.
    let path = std::env::temp_dir().join(format!("__nsc_split_wrap_{}.nsc", std::process::id()));
    std::fs::write(
        &path,
        "fn main : ([N] x [N]) -> [[N]] = (\\p. split(fst(p), snd(p))) \
         input ([1, 2], [18446744073709551615, 3])",
    )
    .unwrap();
    for extra in [&[][..], &["--source-only"]] {
        let out = std::process::Command::new(nsc_bin())
            .arg("run")
            .arg(&path)
            .args(extra)
            .output()
            .unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{extra:?}: {err}");
        assert!(
            err.contains("split: segment lengths sum to 18446744073709551615")
                && !err.contains("panicked"),
            "{extra:?}: {err}"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn cli_reports_errors_with_nonzero_exit() {
    let bin = nsc_bin();
    // Unique per process: concurrent `cargo test` runs share temp_dir().
    let dir = std::env::temp_dir();
    let bad = dir.join(format!("__nsc_bad_example_{}.nsc", std::process::id()));
    std::fs::write(&bad, "fn main : N -> B = (\\x. x)").unwrap();
    let out = std::process::Command::new(&bin)
        .arg("run")
        .arg(&bad)
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("declared codomain B"), "{err}");
    std::fs::remove_file(&bad).ok();

    let out = std::process::Command::new(&bin)
        .arg("run")
        .arg(examples_src_dir().join("square_plus_one.nsc"))
        .arg("--input")
        .arg("(1, 2)")
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("does not inhabit"),
        "wrong-type input must be rejected"
    );

    // A non-recursive inlining failure must be a hard error, not a
    // "note: not compiled" with exit 0 — otherwise a golden diff
    // compares an empty cost table and can pass vacuously.
    let chain = dir.join(format!("__nsc_chain_example_{}.nsc", std::process::id()));
    let mut src = String::new();
    let (defs, per) = (60usize, 30usize);
    for i in 0..defs {
        let call = if i + 1 == defs {
            "x".to_string()
        } else {
            format!("c{}(x)", i + 1)
        };
        let body = format!("{}{call}{}", "fst((".repeat(per), ", 0))".repeat(per));
        src.push_str(&format!("fn c{i} : N -> N = (\\x. {body}) "));
    }
    src.push_str("input 1");
    std::fs::write(&chain, src).unwrap();
    let out = std::process::Command::new(&bin)
        .arg("run")
        .arg(&chain)
        .arg("--entry")
        .arg("c0")
        .output()
        .unwrap();
    assert!(
        !out.status.success(),
        "an uncompilable non-recursive entry must fail nsc run"
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("inlining"),
        "stderr must explain the inlining failure"
    );
    std::fs::remove_file(&chain).ok();

    // Run-only flags on other subcommands are rejected, not ignored.
    let out = std::process::Command::new(&bin)
        .arg("check")
        .arg(examples_src_dir().join("square_plus_one.nsc"))
        .arg("--backend")
        .arg("par")
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("does not accept `--backend`"),
        "check must reject run-only flags"
    );

    // The in-process sampler and its `--explain` are deleted, not
    // deprecated: both fail like any unknown command or flag.
    let spo = examples_src_dir().join("square_plus_one.nsc");
    let out = std::process::Command::new(&bin)
        .arg("bench")
        .arg(&spo)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command `bench`"));
    let out = std::process::Command::new(&bin)
        .args(["run", spo.to_str().unwrap(), "--batch", "8", "--explain"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("does not accept `--explain`"));

    // There is one BVRAM interpreter: the machine-choice flag is deleted
    // on `run` and `serve` too, not defaulted.
    let spo = spo.to_str().unwrap();
    for args in [
        &["run", spo, "--backend", "par"][..],
        &["serve", spo, "--stdin", "--backend", "seq"],
    ] {
        let out = std::process::Command::new(&bin)
            .args(args)
            .stdin(std::process::Stdio::null())
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "nsc {args:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("does not accept `--backend`"),
            "nsc {args:?}"
        );
    }

    // Shards compile at the default level: `serve` has no `--opt`.
    let out = std::process::Command::new(&bin)
        .args(["serve", spo, "--stdin", "--opt", "0"])
        .stdin(std::process::Stdio::null())
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("does not accept `--opt`"));

    // Per-pass translation validation follows the build: no subcommand
    // takes `--verify`.
    for cmd in ["check", "run", "compile"] {
        let out = std::process::Command::new(&bin)
            .args([cmd, spo, "--verify"])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "nsc {cmd} --verify");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("does not accept `--verify`"),
            "nsc {cmd} --verify"
        );
    }

    // Source-level map fusion is deleted, and its report with it.
    let out = std::process::Command::new(&bin)
        .args(["compile", spo, "--explain-fusion"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("does not accept `--explain-fusion`"));
}

// ---------------------------------------------------------------------------
// `nsc lint` golden files and `nsc check`.
// ---------------------------------------------------------------------------

fn lint_fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/lint")
}

/// Every lint fixture's `nsc lint` output must match its `.expected`
/// golden byte-for-byte, and lints must not affect the exit status.
#[test]
fn cli_lint_matches_goldens() {
    let bin = nsc_bin();
    let mut fixtures: Vec<PathBuf> = std::fs::read_dir(lint_fixture_dir())
        .expect("tests/fixtures/lint directory")
        .filter_map(|e| {
            let p = e.ok()?.path();
            (p.extension()? == "nsc").then_some(p)
        })
        .collect();
    fixtures.sort();
    assert_eq!(fixtures.len(), 4, "expected exactly four lint fixtures");
    for path in fixtures {
        let golden = std::fs::read_to_string(path.with_extension("expected"))
            .unwrap_or_else(|e| panic!("missing golden for {}: {e}", path.display()));
        let out = std::process::Command::new(&bin)
            .arg("lint")
            .arg(&path)
            .output()
            .expect("spawn nsc");
        assert!(
            out.status.success(),
            "nsc lint {} must exit 0 even with warnings",
            path.display()
        );
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            golden,
            "nsc lint {} diverged from its golden",
            path.display()
        );
    }
}

/// `⊤` is the analyzer giving up, not a proof of unbounded work: the
/// `superlinear-work` lint says so and passes on the analyzer's pc and
/// reason.  The stdlib `index` mapped over a sequence of pairs, at `O1`,
/// is over the analysis budget.
#[test]
fn cli_lint_words_top_as_uncertified_not_unbounded() {
    let bin = nsc_bin();
    let index = a::map(a::lam(
        "p",
        stdlib::index(a::fst(a::var("p")), a::snd(a::var("p")), &Type::Nat),
    ));
    let dom = Type::seq(Type::prod(Type::seq(Type::Nat), Type::seq(Type::Nat)));
    let path = std::env::temp_dir().join(format!("__nsc_index_{}.nsc", std::process::id()));
    std::fs::write(&path, format!("fn main : {dom} -> [[N]] = {index}")).unwrap();
    let out = std::process::Command::new(&bin)
        .arg("lint")
        .arg(&path)
        .output()
        .expect("spawn nsc");
    std::fs::remove_file(&path).ok();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains(
            "warning[superlinear-work]: in `main`: no finite work bound certified \
             (pc 0: over analysis budget)"
        ),
        "{stdout}"
    );
    assert!(!stdout.contains("unbounded"), "{stdout}");
}

fn cost_fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/cost")
}

/// Each shipped example's `nsc cost` output must match its golden under
/// `tests/fixtures/cost/` byte-for-byte.  The symbolic W'/T' bounds are
/// part of the CLI contract, so an analyzer
/// precision regression — a bound collapsing to ⊤ or its degree jumping
/// — shows up here as a golden mismatch rather than passing silently.
#[test]
fn cli_cost_matches_goldens() {
    let bin = nsc_bin();
    for (name, _) in golden() {
        let stem = name.trim_end_matches(".nsc");
        let golden_path = cost_fixture_dir().join(format!("{stem}.cost"));
        let want = std::fs::read_to_string(&golden_path)
            .unwrap_or_else(|e| panic!("missing cost golden {}: {e}", golden_path.display()));
        let out = std::process::Command::new(&bin)
            .arg("cost")
            .arg(examples_src_dir().join(name))
            .output()
            .expect("spawn nsc");
        assert!(
            out.status.success(),
            "nsc cost {name} failed\n--- stderr ---\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            want,
            "nsc cost {name} diverged from its golden",
        );
    }
}

/// `nsc check` compiles every definition, and the compile gate runs the
/// static verifier on the result; all shipped examples must come back
/// clean, and lint warnings must stay on stderr so stdout remains
/// exactly the signature listing.
#[test]
fn cli_check_accepts_every_example() {
    let bin = nsc_bin();
    for (name, _) in golden() {
        let out = std::process::Command::new(&bin)
            .arg("check")
            .arg(examples_src_dir().join(name))
            .output()
            .expect("spawn nsc");
        assert!(
            out.status.success(),
            "nsc check {name} failed\n--- stderr ---\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        for line in stdout.lines() {
            assert!(
                line.starts_with("fn "),
                "nsc check {name}: unexpected stdout line {line:?}"
            );
        }
    }
}

/// Lint warnings ride along with `nsc check`, but on stderr: tooling
/// that consumes the signature listing must not see them.
#[test]
fn cli_check_reports_lints_on_stderr() {
    let bin = nsc_bin();
    let path = lint_fixture_dir().join("unused_def.nsc");
    let out = std::process::Command::new(&bin)
        .arg("check")
        .arg(&path)
        .output()
        .expect("spawn nsc");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !stdout.contains("warning["),
        "lint warnings leaked onto check's stdout:\n{stdout}"
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("warning[unused-def]"),
        "check must surface lint warnings on stderr"
    );
}
