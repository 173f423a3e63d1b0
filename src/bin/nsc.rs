//! `nsc` — the NSC surface-language driver.
//!
//! Parses a `.nsc` module (see `nsc_core::parse`), type checks it, and
//! either evaluates it under the Definition 3.1 cost semantics or compiles
//! it through the full Theorem 7.1 pipeline and runs it on the BVRAM,
//! printing the source `T`/`W` next to the machine `T'`/`W'`.
//!
//! ```text
//! nsc check   file.nsc                 parse + type check + compile, print signatures
//! nsc run     file.nsc [options]       evaluate + compile + run, cost table
//! nsc compile file.nsc [options]       print the compiled BVRAM program
//! nsc serve   file.nsc [options]       micro-batching request server
//! ```
//!
//! `nsc run --batch N` additionally serves the input `N` times through
//! the batched runtime (`nsc::runtime`), cross-checking every batched
//! result against the single-run answer, and says which discipline ran
//! and the structural fact that chose it; `nsc serve` exposes
//! the module's functions over newline-delimited JSON (TCP via `--addr`,
//! or a pipe via `--stdin`) through the adaptive micro-batching server in
//! `nsc::serve` — see the README's "Serving" section for the protocol.

use nsc::compile::{compile_nsc_with, run_compiled, OptLevel};
use nsc::core::eval::Evaluator;
use nsc::core::parse::{parse_module, parse_value, Module};
use nsc::core::{Cost, EvalError};
use nsc::machine::cfg::Cfg;
use nsc::runtime::{BatchMode, BatchRunner, CachedProgram};
use nsc::serve::{front, ServeConfig, Server};
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "\
nsc — surface-language driver for the Suciu & Tannen compilation pipeline

USAGE:
    nsc check   <file.nsc>             parse and type check, print signatures
                                       (lint warnings go to stderr), and
                                       compile every non-recursive definition
    nsc lint    <file.nsc>             print lint warnings (unused definitions,
                                       shadowed binders, unreachable case arms,
                                       non-compilable recursion, superlinear
                                       compiled work)
    nsc run     <file.nsc> [OPTIONS]   evaluate, compile, run; print T/W vs T'/W'
    nsc compile <file.nsc> [OPTIONS]   print the compiled BVRAM program
    nsc cost    <file.nsc> [OPTIONS]   print each definition's symbolic cost
                                       bounds: T'/W' as polynomials over the
                                       input register lengths (or ⊤ with the
                                       program counter and reason)
    nsc serve   <file.nsc> [OPTIONS]   adaptive micro-batching server speaking
                                       newline-delimited JSON (requests like
                                       {\"fn\": \"main\", \"input\": \"[1, 2]\"})

OPTIONS:
    --entry <name>      entry function (default: `main`, or the sole definition)
    --input <value>     argument, e.g. '[1, 2, 3]' (default: the file's `input`)
    --opt <0|1>         (run/compile/cost) BVRAM optimization level (default: 1)
    --source-only       (run) skip compilation, evaluate only
    --fuel <n>          abort source evaluation after n rule applications
    --batch <n>         (run) also serve the input n times through the batch
                        runtime, and print the discipline that ran and
                        the structural rule that chose it (pack iff
                        the compiled program and its map(f) kernel are
                        straight-line)
    --addr <host:port>  (serve) listen for TCP connections; a client line
                        {\"cmd\": \"shutdown\"} drains and stops the server
    --stdin             (serve) read requests from stdin, answer on stdout,
                        drain at EOF (pipe-driven use)
    --max-batch <n>     (serve) the most queued requests one batch may take
                        (default 32); 1 disables batching.  A shard batches
                        what is already queued and never waits for more
    --queue-cap <n>     (serve) per-shard admission queue capacity
                        (default 1024); a full queue answers
                        {\"error\": ..., \"kind\": \"overloaded\"}
";

struct Opts {
    cmd: String,
    file: String,
    entry: Option<String>,
    input: Option<String>,
    opt: OptLevel,
    source_only: bool,
    fuel: Option<u64>,
    batch: Option<usize>,
    addr: Option<String>,
    stdin: bool,
    max_batch: usize,
    queue_cap: usize,
}

fn parse_args(mut args: Vec<String>) -> Result<Opts, String> {
    if args.len() < 2 {
        return Err("expected a command and a file".into());
    }
    let cmd = args.remove(0);
    if !["check", "lint", "run", "compile", "cost", "serve"].contains(&cmd.as_str()) {
        return Err(format!("unknown command `{cmd}`"));
    }
    let file = args.remove(0);
    let mut opts = Opts {
        cmd,
        file,
        entry: None,
        input: None,
        opt: OptLevel::default(),
        source_only: false,
        fuel: None,
        batch: None,
        addr: None,
        stdin: false,
        max_batch: 32,
        queue_cap: 1024,
    };
    // Silently dropping a flag hides typos; each subcommand accepts only
    // the options it actually reads.
    let allowed: &[&str] = match opts.cmd.as_str() {
        "check" | "lint" => &[],
        "compile" | "cost" => &["--entry", "--opt"],
        "serve" => &["--addr", "--stdin", "--max-batch", "--queue-cap"],
        _ => &[
            "--entry",
            "--input",
            "--opt",
            "--source-only",
            "--fuel",
            "--batch",
        ],
    };
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        if flag.starts_with("--") && !allowed.contains(&flag.as_str()) {
            return Err(format!("`nsc {}` does not accept `{flag}`", opts.cmd));
        }
        let mut val = |name: &str| it.next().ok_or_else(|| format!("{name} expects a value"));
        match flag.as_str() {
            "--entry" => opts.entry = Some(val("--entry")?),
            "--input" => opts.input = Some(val("--input")?),
            "--opt" => {
                opts.opt = match val("--opt")?.as_str() {
                    "0" => OptLevel::O0,
                    "1" => OptLevel::O1,
                    other => return Err(format!("--opt expects 0 or 1, got `{other}`")),
                }
            }
            "--source-only" => opts.source_only = true,
            "--fuel" => {
                opts.fuel = Some(
                    val("--fuel")?
                        .parse()
                        .map_err(|_| "--fuel expects a number".to_string())?,
                )
            }
            "--batch" => {
                let n: usize = val("--batch")?
                    .parse()
                    .map_err(|_| "--batch expects a number".to_string())?;
                if n == 0 {
                    return Err("--batch expects a positive number".into());
                }
                opts.batch = Some(n);
            }
            "--addr" => opts.addr = Some(val("--addr")?),
            "--stdin" => opts.stdin = true,
            "--max-batch" => {
                opts.max_batch = val("--max-batch")?
                    .parse()
                    .map_err(|_| "--max-batch expects a number".to_string())?;
                if opts.max_batch == 0 {
                    return Err("--max-batch expects a positive number".into());
                }
            }
            "--queue-cap" => {
                opts.queue_cap = val("--queue-cap")?
                    .parse()
                    .map_err(|_| "--queue-cap expects a number".to_string())?;
                if opts.queue_cap == 0 {
                    return Err("--queue-cap expects a positive number".into());
                }
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") || args.is_empty() {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let opts = match parse_args(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The evaluator and the NSC -> NSA translation recurse with program
    // depth (and with `--input`-controlled recursion depth for recursive
    // definitions), so the real work runs on a thread with a much larger
    // stack than main's: deep-but-legitimate programs finish instead of
    // aborting.  For untrusted recursive input, pair with `--fuel`.
    const WORKER_STACK: usize = 512 * 1024 * 1024;
    let worker = std::thread::Builder::new()
        .name("nsc-driver".into())
        .stack_size(WORKER_STACK)
        .spawn(move || drive(&opts))
        .expect("spawn driver thread");
    match worker.join() {
        Ok(Ok(())) => ExitCode::SUCCESS,
        Ok(Err(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
        Err(_) => {
            eprintln!("error: internal panic while driving the pipeline");
            ExitCode::FAILURE
        }
    }
}

fn drive(opts: &Opts) -> Result<(), String> {
    let src = std::fs::read_to_string(&opts.file)
        .map_err(|e| format!("cannot read `{}`: {e}", opts.file))?;
    let module = parse_module(&src).map_err(|e| format!("{}: {e}", opts.file))?;
    if module.defs.is_empty() {
        return Err(format!("{}: no definitions", opts.file));
    }
    module.check().map_err(|e| format!("{}: {e}", opts.file))?;

    match opts.cmd.as_str() {
        "check" => cmd_check(&module),
        "lint" => {
            // Warnings on stdout (they are this command's output), one
            // per line, deterministic order; findings do not fail the
            // command — `check` is the pass/fail gate.
            use std::io::Write;
            let mut out = std::io::stdout().lock();
            for l in nsc::core::lint_module(&module) {
                let _ = writeln!(out, "{l}");
            }
            for l in superlinear_lints(&module) {
                let _ = writeln!(out, "{l}");
            }
            Ok(())
        }
        "compile" => cmd_compile(opts, &module),
        "cost" => cmd_cost(opts, &module),
        "run" => cmd_run(opts, &module),
        "serve" => cmd_serve(opts, &module),
        _ => unreachable!(),
    }
}

fn entry_name(opts: &Opts, module: &Module) -> Result<String, String> {
    if let Some(e) = &opts.entry {
        return Ok(e.clone());
    }
    if module.get("main").is_some() {
        return Ok("main".into());
    }
    if module.defs.len() == 1 {
        return Ok(module.defs[0].name.to_string());
    }
    Err("no `main` and several definitions; pick one with --entry".into())
}

fn cmd_check(module: &Module) -> Result<(), String> {
    // One line per definition on stdout; lint warnings go to stderr so
    // scripted consumers of the signature listing never see them.
    use std::io::Write;
    let mut out = std::io::stdout().lock();
    for d in &module.defs {
        let _ = writeln!(out, "fn {} : {} -> {}", d.name, d.dom, d.cod);
    }
    drop(out);
    for l in nsc::core::lint_module(module) {
        eprintln!("{l}");
    }
    // Compile every pure-NSC definition: a program that fails the
    // compile gate (or, in a debug build, a pass that breaks a verifier
    // invariant) fails the check.  Recursive definitions have no
    // compiled form to verify.
    for d in &module.defs {
        let pure = match module.inlined(&d.name) {
            Ok(p) => p,
            Err(nsc::core::parse::ModuleError::Recursive(_)) => continue,
            Err(e) => return Err(e.to_string()),
        };
        compile_nsc_with(&pure, &d.dom, OptLevel::default())
            .map_err(|e| format!("compiling `{}`: {e}", d.name))?;
    }
    Ok(())
}

fn cmd_compile(opts: &Opts, module: &Module) -> Result<(), String> {
    let entry = entry_name(opts, module)?;
    let def = module
        .get(&entry)
        .ok_or_else(|| format!("no definition named `{entry}`"))?;
    let pure = module.inlined(&entry).map_err(|e| e.to_string())?;
    let compiled = compile_nsc_with(&pure, &def.dom, opts.opt)
        .map_err(|e| format!("compiling `{entry}`: {e}"))?;
    // Listings are long; tolerate a closed pipe (`nsc compile … | head`).
    use std::io::Write;
    let mut out = std::io::stdout().lock();
    let _ = writeln!(
        out,
        "-- {} : {} -> {} (opt {:?})",
        entry, def.dom, def.cod, opts.opt
    );
    let _ = write!(out, "{}", compiled.program);
    Ok(())
}

/// The `superlinear-work` lint: compile each pure definition at the
/// default level and flag it when the symbolic work bound is ω(n) in any
/// input register length, or when the analyzer certified no finite bound
/// (`⊤`, reported with its pc and reason, not as "unbounded").  A serving
/// system that registers such a definition gets per-request cost growing
/// faster than its input, or no certificate that it does not.
fn superlinear_lints(module: &Module) -> Vec<nsc::core::Lint> {
    let mut lints = Vec::new();
    for d in &module.defs {
        // Recursive (non-inlinable) definitions are already flagged by
        // the syntactic linter; anything else that fails to compile is
        // not this lint's business either.
        let Ok(pure) = module.inlined(&d.name) else {
            continue;
        };
        let Ok(compiled) = compile_nsc_with(&pure, &d.dom, OptLevel::default()) else {
            continue;
        };
        let report = nsc::machine::cost_program(&compiled.program);
        let message = match &report.work {
            nsc::machine::CostBound::Top { pc, reason } => {
                format!("no finite work bound certified (pc {pc}: {reason})")
            }
            nsc::machine::CostBound::Poly(p) => {
                let syms: Vec<String> = (0..report.n_syms)
                    .filter(|&i| p.superlinear_in(i))
                    .map(|i| format!("n{i}"))
                    .collect();
                if syms.is_empty() {
                    continue;
                }
                format!(
                    "compiled work grows superlinearly in input length {}: W' <= {p}",
                    syms.join(", ")
                )
            }
        };
        lints.push(nsc::core::Lint {
            code: "superlinear-work",
            def: d.name.to_string(),
            message,
        });
    }
    lints
}

fn cmd_cost(opts: &Opts, module: &Module) -> Result<(), String> {
    use std::io::Write;
    let mut out = std::io::stdout().lock();
    let only = opts.entry.as_deref();
    if let Some(e) = only {
        if module.get(e).is_none() {
            return Err(format!("no definition named `{e}`"));
        }
    }
    for d in &module.defs {
        if only.is_some_and(|e| e != d.name.as_ref()) {
            continue;
        }
        let _ = writeln!(
            out,
            "fn {} : {} -> {} (opt {:?})",
            d.name, d.dom, d.cod, opts.opt
        );
        let pure = match module.inlined(&d.name) {
            Ok(p) => p,
            Err(e @ nsc::core::parse::ModuleError::Recursive(_)) => {
                let _ = writeln!(out, "  not compiled: {e}");
                continue;
            }
            Err(e) => return Err(e.to_string()),
        };
        let compiled = compile_nsc_with(&pure, &d.dom, opts.opt)
            .map_err(|e| format!("compiling `{}`: {e}", d.name))?;
        let report = nsc::machine::cost_program(&compiled.program);
        for line in report.to_string().lines() {
            let _ = writeln!(out, "  {line}");
        }
    }
    Ok(())
}

fn cmd_run(opts: &Opts, module: &Module) -> Result<(), String> {
    let entry = entry_name(opts, module)?;
    let def = module
        .get(&entry)
        .ok_or_else(|| format!("no definition named `{entry}`"))?;
    let input = match &opts.input {
        Some(src) => parse_value(src).map_err(|e| format!("--input: {e}"))?,
        None => module.input.clone().ok_or_else(|| {
            "no input: pass --input '<value>' or add an `input <value>` directive".to_string()
        })?,
    };
    if !def.dom.admits(&input) {
        return Err(format!(
            "input {input} does not inhabit `{entry}`'s domain {}",
            def.dom
        ));
    }

    // Source semantics (Definition 3.1 costs), with named definitions
    // resolved through the function table.
    let table = module.func_table();
    let mut ev = Evaluator::new(&table);
    if let Some(fuel) = opts.fuel {
        ev = ev.with_fuel(fuel);
    }
    let (value, src_cost) = ev
        .apply_closed(&def.func, input.clone())
        .map_err(|e| format!("evaluating `{entry}`: {e}"))?;
    // Result values can be huge; tolerate a closed pipe (`nsc run … | head`)
    // like cmd_compile does.
    use std::io::Write;
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "{entry} : {} -> {}", def.dom, def.cod);
    let _ = writeln!(out, "input  = {input}");
    let _ = writeln!(out, "result = {value}");
    let mut rows: Vec<(String, Cost)> = vec![("source (Def 3.1)".into(), src_cost)];

    if !opts.source_only {
        match module.inlined(&entry) {
            // Recursive entries still evaluate; they only skip the
            // (pure-NSC) compiler.  Every *other* inlining failure is a
            // hard error — exiting 0 with a note would let a program that
            // stopped compiling sail through scripts and CI.
            Err(e @ nsc::core::parse::ModuleError::Recursive(_)) => {
                let _ = writeln!(out, "note: not compiled: {e}");
            }
            Err(e) => return Err(e.to_string()),
            Ok(pure) => {
                let compiled = compile_nsc_with(&pure, &def.dom, opts.opt)
                    .map_err(|e| format!("compiling `{entry}`: {e}"))?;
                // `seq` names the one machine in the rows below; the
                // committed `tests/fixtures/run/*.out` goldens spell it so.
                let (got, cost) = match run_compiled(&compiled, &input) {
                    Ok(x) => x,
                    Err(EvalError::MachineFault(what)) => {
                        return Err(format!("bvram/seq: compiler bug: {what}"))
                    }
                    Err(e) => return Err(format!("bvram/seq: {e}")),
                };
                if got != value {
                    return Err(format!(
                        "bvram/seq disagrees with the evaluator: {got} != {value}"
                    ));
                }
                rows.push(("bvram/seq (T'/W')".into(), cost));
                // Serve the input --batch times through the batched
                // runtime; every result must equal the single-run answer.
                if let Some(b) = opts.batch {
                    let cached = CachedProgram::from_single(&pure, &def.dom, opts.opt, compiled)
                        .map_err(|e| format!("batch compile `{entry}`: {e}"))?;
                    let mode = explain_mode(&cached);
                    let outcome =
                        BatchRunner::of(Arc::new(cached)).run_batch(&vec![input.clone(); b]);
                    for (i, r) in outcome.results.iter().enumerate() {
                        match r {
                            Ok(v) if *v == value => {}
                            Ok(v) => {
                                return Err(format!(
                                    "batch/seq request {i} disagrees: {v} != {value}"
                                ))
                            }
                            Err(e) => return Err(format!("batch/seq request {i}: {e}")),
                        }
                    }
                    rows.push((
                        format!(
                            "batch/seq B={b} {}{}",
                            outcome.mode.name(),
                            if outcome.fused { " (fused)" } else { "" }
                        ),
                        outcome.cost,
                    ));
                    let _ = writeln!(out, "batch/seq: {mode}");
                }
            }
        }
    }

    let name_w = rows.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
    let _ = writeln!(out, "{:name_w$}  {:>12}  {:>12}", "", "time", "work");
    for (name, c) in &rows {
        let _ = writeln!(out, "{name:name_w$}  {:>12}  {:>12}", c.time, c.work);
    }
    Ok(())
}

/// The discipline every batch of `cached` runs under, the structural
/// fact that chose it (pack iff the single program and its `map(f)`
/// kernel are straight-line).  The kernel is read only when the single
/// program is straight-line, the one case its entry compiled it.
fn explain_mode(cached: &CachedProgram) -> String {
    let kernel = || {
        &cached
            .batch
            .get()
            .expect("a straight-line entry compiled its kernel")
            .program
    };
    let blocks = |p| Cfg::build(p).n_blocks();
    let why = match (cached.mode(), blocks(&cached.single.program)) {
        (BatchMode::Pack, _) => format!("straight-line, kernel {} instrs", kernel().instrs.len()),
        (BatchMode::Lanes, 1) => format!(
            "control flow in the map(f) kernel, {} blocks",
            blocks(kernel())
        ),
        (BatchMode::Lanes, n) => format!("control flow, {n} blocks"),
    };
    format!("{}: {why}", cached.mode().name())
}

fn cmd_serve(opts: &Opts, module: &Module) -> Result<(), String> {
    if opts.addr.is_some() == opts.stdin {
        return Err("serve needs exactly one front end: --addr <host:port> or --stdin".into());
    }
    let cfg = ServeConfig {
        max_batch: opts.max_batch,
        queue_cap: opts.queue_cap,
        on_flush: None,
    };
    let mut server = Server::new(cfg);
    let skipped = server.register_module(module);
    for (name, why) in &skipped {
        eprintln!("note: not serving `{name}`: {why}");
    }
    if server.functions().is_empty() {
        return Err("no servable definitions (every definition was skipped)".into());
    }
    eprintln!(
        "serving {} on {} (max_batch {}, queue_cap {})",
        server.functions().join(", "),
        opts.addr.as_deref().unwrap_or("stdin"),
        opts.max_batch,
        opts.queue_cap,
    );
    let server = Arc::new(server);
    if let Some(addr) = &opts.addr {
        let listener = std::net::TcpListener::bind(addr)
            .map_err(|e| format!("cannot listen on `{addr}`: {e}"))?;
        front::serve_tcp(&server, listener).map_err(|e| format!("serving `{addr}`: {e}"))
    } else {
        let stdin = std::io::stdin().lock();
        front::serve_lines(&server, stdin, std::io::stdout()).map_err(|e| format!("serving: {e}"))
    }
}
