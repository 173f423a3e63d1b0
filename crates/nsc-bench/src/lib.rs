//! # nsc-bench — experiment harnesses
//!
//! One function per evaluation artifact of the paper; each prints a
//! markdown table of paper-claim vs measured shape and asserts its claim.
//! [`EXPERIMENTS`] names them for the `exp` binary: `exp <name>` runs one,
//! `exp all` every one (see the README's "Building and testing").

#![warn(missing_docs)]
#![allow(clippy::type_complexity)]

use nsc_core::maprec::direct::eval_maprec;
use nsc_core::maprec::fixtures;
use nsc_core::maprec::staged::translate_staged;
use nsc_core::maprec::translate::translate;
use nsc_core::value::Value;
use nsc_core::Type;

fn row(cols: &[String]) {
    println!("| {} |", cols.join(" | "));
}

fn header(cols: &[&str]) {
    row(&cols.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    println!(
        "|{}|",
        cols.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
}

/// EXP-FIG123 — Valiant's mergesort (Figures 1–3, section 5):
/// `T(n)/(log n · log log n)` and `W(n)/(n log n)` should flatten; the
/// direct-merge baseline's `T(n)/log² n` flattens instead.
fn exp_fig123() {
    println!("\n## EXP-FIG123: Valiant mergesort (Figures 1-3)\n");
    println!("claim: T = O(log n log log n); direct-merge baseline T = O(log^2 n)\n");
    let val = nsc_algorithms::valiant::mergesort_def();
    let dir = nsc_algorithms::valiant::direct_mergesort_def();
    header(&[
        "n",
        "T_valiant",
        "T/(lg n lglg n)",
        "W/(n lg n)",
        "T_direct",
        "T_direct/lg^2 n",
    ]);
    for n in [16u64, 32, 64, 128, 256] {
        let xs: Vec<u64> = (0..n).map(|i| (i * 2654435761) % 1000).collect();
        let arg = Value::nat_seq(xs.clone());
        let v = eval_maprec(&val, arg.clone()).unwrap();
        let d = eval_maprec(&dir, arg).unwrap();
        let lg = (n as f64).log2();
        let lglg = lg.log2().max(1.0);
        row(&[
            n.to_string(),
            v.cost.time.to_string(),
            format!("{:.1}", v.cost.time as f64 / (lg * lglg)),
            format!("{:.1}", v.cost.work as f64 / (n as f64 * lg)),
            d.cost.time.to_string(),
            format!("{:.1}", d.cost.time as f64 / (lg * lg)),
        ]);
    }
}

/// EXP-T42 — Theorem 4.2: map-recursion → NSC preserves `T` and bounds
/// `W'`; balanced trees keep `W' = O(W)`, and on the unbalanced staircase
/// the ε-staged variant grows strictly slower than the plain one.
fn exp_t42() {
    println!("\n## EXP-T42: Theorem 4.2 (map-recursion translation)\n");
    println!("claim: T' = O(T); W' = O(W) balanced; staged W' = O(W^(1+eps)) unbalanced\n");
    println!("### balanced (rangesum)\n");
    let def = fixtures::range_sum();
    let plain = translate(&def);
    header(&["n", "T", "T'", "T'/T", "W", "W'", "W'/W"]);
    for n in [64u64, 256, 1024] {
        let arg = fixtures::range(0, n);
        let d = eval_maprec(&def, arg.clone()).unwrap();
        let (_, c) = nsc_core::eval::apply_func(&plain, arg).unwrap();
        row(&[
            n.to_string(),
            d.cost.time.to_string(),
            c.time.to_string(),
            format!("{:.2}", c.time as f64 / d.cost.time as f64),
            d.cost.work.to_string(),
            c.work.to_string(),
            format!("{:.2}", c.work as f64 / d.cost.work as f64),
        ]);
    }
    println!("\n### unbalanced (staircase, v = depth): plain vs staged\n");
    let def = fixtures::staircase();
    let plain = translate(&def);
    header(&["n", "W_source", "W'_plain", "W'_k2", "W'_k3"]);
    for n in [32u64, 64, 128, 256] {
        let arg = fixtures::range(0, n);
        let d = eval_maprec(&def, arg.clone()).unwrap();
        let wp = nsc_core::eval::apply_func(&plain, arg.clone())
            .unwrap()
            .1
            .work;
        let w2 = nsc_core::eval::apply_func(&translate_staged(&def, 2), arg.clone())
            .unwrap()
            .1
            .work;
        let w3 = nsc_core::eval::apply_func(&translate_staged(&def, 3), arg)
            .unwrap()
            .1
            .work;
        row(&[
            n.to_string(),
            d.cost.work.to_string(),
            wp.to_string(),
            w2.to_string(),
            w3.to_string(),
        ]);
    }
}

/// The shared EXP-T71 / EXP-OPT / EXP-BATCH workload suite over `[N]`
/// (built by the runtime's shared builders so benches and experiments
/// measure the identical ASTs).
fn t71_suite() -> Vec<(&'static str, nsc_core::Func)> {
    nsc_runtime::workloads::suite()
}

/// EXP-T71 — Theorem 7.1: the full NSC → BVRAM compilation agrees with the
/// source semantics, keeps `T' = O(T)`, and its register count is fixed.
/// The optimizer ablation columns report the unoptimized (`·₀`) next to
/// the default-optimized (`·₁`) target costs.
fn exp_t71() {
    println!("\n## EXP-T71: Theorem 7.1 (compilation to the BVRAM)\n");
    println!("claim: outputs agree; T' = O(T); registers independent of input");
    println!("(T'0/W'0 = unoptimized, T'1/W'1 = default optimizer)\n");
    use nsc_compile::OptLevel;
    header(&[
        "program", "n", "T", "T'0", "T'1", "T'1/T", "W", "W'0", "W'1", "regs",
    ]);
    for (name, f) in t71_suite() {
        let dom = Type::seq(Type::Nat);
        let c0 = nsc_compile::compile_nsc_with(&f, &dom, OptLevel::O0).unwrap();
        let c = nsc_compile::compile_nsc(&f, &dom).unwrap();
        for n in [32u64, 128, 512] {
            let arg = Value::nat_seq(0..n);
            let (want, src) = nsc_core::eval::apply_func(&f, arg.clone()).unwrap();
            let (got0, tgt0) = nsc_compile::run_compiled(&c0, &arg).unwrap();
            let (got, tgt) = nsc_compile::run_compiled(&c, &arg).unwrap();
            assert_eq!(got, want, "{name} disagrees at n={n}");
            assert_eq!(got0, want, "{name} (O0) disagrees at n={n}");
            row(&[
                name.to_string(),
                n.to_string(),
                src.time.to_string(),
                tgt0.time.to_string(),
                tgt.time.to_string(),
                format!("{:.2}", tgt.time as f64 / src.time as f64),
                src.work.to_string(),
                tgt0.work.to_string(),
                tgt.work.to_string(),
                c.program.n_regs.to_string(),
            ]);
        }
    }
}

/// EXP-OPT — the optimizer ablation (the bvram::opt acceptance gate):
/// for every workload, optimized output is bit-identical, `T'`/`W'` are
/// never worse, and at least one workload shows a ≥ 15% `W'` cut.
fn exp_opt() {
    println!("\n## EXP-OPT: BVRAM optimizer ablation (O0 vs O1)\n");
    println!("claim: bit-identical outputs; T'/W' never worse; >= 15% W' cut somewhere\n");
    use nsc_compile::OptLevel;
    header(&[
        "program",
        "n",
        "T'0",
        "T'1",
        "T' cut",
        "W'0",
        "W'1",
        "W' cut",
        "instrs 0/1",
        "regs 0/1",
    ]);
    let mut best_w_cut = f64::MIN;
    for (name, f) in t71_suite() {
        let dom = Type::seq(Type::Nat);
        let c0 = nsc_compile::compile_nsc_with(&f, &dom, OptLevel::O0).unwrap();
        let c1 = nsc_compile::compile_nsc_with(&f, &dom, OptLevel::O1).unwrap();
        assert!(
            c1.program.n_regs <= c0.program.n_regs,
            "{name}: optimizer grew the register file"
        );
        for n in [32u64, 512] {
            let arg = Value::nat_seq(0..n);
            let (v0, t0) = nsc_compile::run_compiled(&c0, &arg).unwrap();
            let (v1, t1) = nsc_compile::run_compiled(&c1, &arg).unwrap();
            assert_eq!(v0, v1, "{name}: optimized output differs at n={n}");
            assert!(
                t1.time <= t0.time && t1.work <= t0.work,
                "{name}: optimizer regressed cost at n={n}: {t0:?} -> {t1:?}"
            );
            let w_cut = 1.0 - t1.work as f64 / t0.work.max(1) as f64;
            best_w_cut = best_w_cut.max(w_cut);
            row(&[
                name.to_string(),
                n.to_string(),
                t0.time.to_string(),
                t1.time.to_string(),
                format!(
                    "{:.1}%",
                    100.0 * (1.0 - t1.time as f64 / t0.time.max(1) as f64)
                ),
                t0.work.to_string(),
                t1.work.to_string(),
                format!("{w_cut:.1}%", w_cut = 100.0 * w_cut),
                format!("{}/{}", c0.program.instrs.len(), c1.program.instrs.len()),
                format!("{}/{}", c0.program.n_regs, c1.program.n_regs),
            ]);
        }
    }
    println!("\nbest W' cut: {:.1}%", 100.0 * best_w_cut);
    assert!(
        best_w_cut >= 0.15,
        "optimizer must cut W' by >= 15% on at least one workload (best {:.1}%)",
        100.0 * best_w_cut
    );
    pass_census();
}

/// The pass census: what each `PASSES` row earns, counted by dropping
/// that row alone and re-optimizing every census program — the goldens
/// and the workload suite, each as its single program and as its
/// `map(f)` kernel (kernels over [`nsc_compile::OPT_BUDGET`] ship
/// unoptimized and are skipped).  `T'` is measured on the golden input
/// (a batch of one for kernels; `[0 .. 32)` for the suite).
fn pass_census() {
    use nsc_compile::opt::{optimize_with, PASSES};
    use nsc_compile::{compile_nsc_with, run_compiled, Compiled, OptLevel};
    let mut programs: Vec<(Compiled, Value)> = Vec::new();
    let suite = t71_suite()
        .into_iter()
        .map(|(name, f)| (name, f, Type::seq(Type::Nat), Value::nat_seq(0..32)));
    let goldens = nsc_runtime::workloads::goldens().into_iter();
    for (name, f, dom, input) in goldens.chain(suite) {
        let o0 =
            |f: &nsc_core::Func, dom: &Type| compile_nsc_with(f, dom, OptLevel::O0).expect(name);
        let kernel = o0(&nsc_core::ast::map(f.clone()), &Type::seq(dom.clone()));
        programs.push((o0(&f, &dom), input.clone()));
        if kernel.program.instrs.len() <= nsc_compile::OPT_BUDGET {
            programs.push((kernel, Value::seq(vec![input])));
        }
    }
    let measure =
        |c: &Compiled, input: &Value, passes: &[(&'static str, nsc_compile::opt::Pass)]| {
            let p = optimize_with(c.program.clone(), passes);
            let c = Compiled {
                program: p,
                dom: c.dom.clone(),
                cod: c.cod.clone(),
            };
            let t = run_compiled(&c, input).map_or(0, |(_, cost)| cost.time);
            (c.program.instrs.len() as i64, t as i64)
        };
    let full: Vec<(i64, i64)> = programs
        .iter()
        .map(|(c, input)| measure(c, input, &PASSES))
        .collect();
    println!(
        "\n### pass census: each PASSES row dropped alone, over {} programs\n",
        programs.len()
    );
    header(&["dropped row", "programs changed", "instrs lost", "T' lost"]);
    for (dropped, _) in PASSES {
        let rest: Vec<_> = PASSES.into_iter().filter(|(n, _)| *n != dropped).collect();
        let (mut changed, mut instrs, mut time) = (0, 0i64, 0i64);
        for ((c, input), &(n1, t1)) in programs.iter().zip(&full) {
            let (n, t) = measure(c, input, &rest);
            changed += usize::from((n, t) != (n1, t1));
            instrs += n - n1;
            time += t - t1;
        }
        row(&[
            dropped.to_string(),
            changed.to_string(),
            instrs.to_string(),
            time.to_string(),
        ]);
    }
}

/// EXP-BATCH — the batched execution runtime: for each suite workload
/// and batch size, the aggregate machine cost of a loop of `B` single
/// runs vs the pack (fused `map(f)` kernel) and lanes disciplines.
///
/// Deterministic acceptance gates (machine costs, not wall-clock, so
/// this is CI-stable):
///
/// * every batch mode is bit-identical to the loop of single runs;
/// * pack amortizes `T'`: at `B = 64` the fused run's `T'` beats the
///   sequential loop's `Σ T'` on every *loop-free* workload (and on at
///   least one workload overall);
/// * the cached entry is compiled once per workload;
/// * the static plan never loses: per golden at `B = 8`, the planned
///   discipline's `W'` is at most 1.25x the other's.
fn exp_batch() {
    println!("\n## EXP-BATCH: batched execution (pack vs lanes vs B single runs)\n");
    println!("claim: bit-identical outputs; fused T' ~ amortized; compile-once cache\n");
    use nsc_compile::OptLevel;
    use nsc_runtime::{BatchMode, BatchRunner, CompiledCache};
    header(&[
        "program",
        "B",
        "T' loop",
        "T' pack",
        "T' lanes",
        "W' loop",
        "W' pack",
        "W' lanes",
        "pack fused",
    ]);
    let cache = CompiledCache::new();
    let mut amortized = 0usize;
    for (name, f) in t71_suite() {
        let dom = Type::seq(Type::Nat);
        let runner = BatchRunner::from_cache(&cache, &f, &dom, OptLevel::O1).expect(name);
        let mut packed_beats_loop_at_64 = false;
        for b in [1usize, 8, 64] {
            let inputs: Vec<Value> = (0..b as u64)
                .map(|i| Value::nat_seq((0..16).map(move |j| (i * 17 + j * 3) % 29)))
                .collect();
            let singles: Vec<_> = inputs
                .iter()
                .map(|v| runner.run_single(v).expect(name))
                .collect();
            let loop_cost = singles
                .iter()
                .fold(nsc_core::Cost::ZERO, |acc, (_, c)| acc + *c);
            let pack = runner.run_batch_mode(&inputs, BatchMode::Pack);
            let lanes = runner.run_batch_mode(&inputs, BatchMode::Lanes);
            for (mode, out) in [("pack", &pack), ("lanes", &lanes)] {
                for (i, r) in out.results.iter().enumerate() {
                    assert_eq!(
                        r.as_ref().ok(),
                        Some(&singles[i].0),
                        "{name} B={b} {mode}: request {i} diverges"
                    );
                }
            }
            if b == 64 && pack.fused && pack.cost.time < loop_cost.time {
                packed_beats_loop_at_64 = true;
            }
            row(&[
                name.to_string(),
                b.to_string(),
                loop_cost.time.to_string(),
                pack.cost.time.to_string(),
                lanes.cost.time.to_string(),
                loop_cost.work.to_string(),
                pack.cost.work.to_string(),
                lanes.cost.work.to_string(),
                pack.fused.to_string(),
            ]);
        }
        if packed_beats_loop_at_64 {
            amortized += 1;
        }
    }
    println!("\nworkloads where fused T' beats the B=64 loop: {amortized}/4");
    assert!(
        amortized >= 1,
        "pack must amortize T' on at least one workload"
    );
    assert_eq!(
        cache.compiles(),
        t71_suite().len(),
        "one compilation per workload"
    );

    println!("\nplanned mode per golden at B=8 (must not do > 1.25x the other's W'):\n");
    header(&["golden", "planned", "W' pack", "W' lanes"]);
    for (stem, f, dom, input) in nsc_runtime::workloads::goldens() {
        let runner = BatchRunner::from_cache(&cache, &f, &dom, OptLevel::O1).expect(stem);
        let inputs = vec![input; 8];
        let planned = runner.plan(&inputs);
        let pack = runner.run_batch_mode(&inputs, BatchMode::Pack).cost.work;
        let lanes = runner.run_batch_mode(&inputs, BatchMode::Lanes).cost.work;
        row(&[
            stem.to_string(),
            planned.name().to_string(),
            pack.to_string(),
            lanes.to_string(),
        ]);
        let (chosen, other) = match planned {
            BatchMode::Pack => (pack, lanes),
            BatchMode::Lanes => (lanes, pack),
        };
        assert!(
            4 * chosen <= 5 * other,
            "{stem}: planned {} does W' {chosen}, over 1.25x the other's {other}",
            planned.name()
        );
    }
}

/// The opcode an [`bvram::Instr`] executes: the mnemonic for
/// arithmetic, the instruction kind otherwise.
fn opcode(ins: &bvram::Instr) -> &'static str {
    use bvram::Instr::*;
    match ins {
        Arith { op, .. } => op.mnemonic(),
        Move { .. } => "move",
        Empty { .. } => "empty",
        Singleton { .. } => "singleton",
        Append { .. } => "append",
        Length { .. } => "length",
        Enumerate { .. } => "enumerate",
        BmRoute { .. } => "bm_route",
        SbmRoute { .. } => "sbm_route",
        Select { .. } => "select",
        Goto { .. } => "goto",
        IfEmptyGoto { .. } => "if_empty",
        Halt => "halt",
    }
}

/// EXP-INTERP — what one executed BVRAM instruction costs on the host:
/// for every golden and the shared suite at `n = 64`, the O1 single
/// program runs on one reused warm [`bvram::Machine`], and the table
/// reports wall-clock ns per instruction and per unit of work, next to
/// each opcode's share of the executed steps and of the work (counted
/// through [`bvram::Machine::run_observed`], never timed per step).  A
/// fresh machine per run, as a single request and a lanes chunk get on
/// the served path, is timed next to the warm one.
///
/// Asserts only identities: the warm run, a fresh machine's run and the
/// observed run return the same outputs and `Stats`, and the observer's
/// counts sum to `T'` and `W'`.  The timings are a record, not a gate.
fn exp_interp() {
    println!("\n## EXP-INTERP: BVRAM interpreter cost per executed instruction\n");
    println!("claim: none (a record); warm, fresh and observed runs agree bit for bit\n");
    use bvram::Machine;
    use nsc_compile::{compile_nsc_with, encode_arg, OptLevel};
    use std::collections::BTreeMap;
    use std::time::{Duration, Instant};
    let share = |part: u64, whole: u64| format!("{:.1}%", 100.0 * part as f64 / whole as f64);
    let suite = t71_suite()
        .into_iter()
        .map(|(name, f)| (name, f, Type::seq(Type::Nat), Value::nat_seq(0..64)));
    let goldens = nsc_runtime::workloads::goldens().into_iter();
    header(&[
        "program",
        "instrs",
        "regs",
        "T'",
        "W'",
        "fresh µs",
        "warm µs",
        "ns/instr",
        "ns/work",
        "top opcode (steps)",
        "top opcode (work)",
    ]);
    let mut all: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for (name, f, dom, input) in goldens.chain(suite) {
        let c = compile_nsc_with(&f, &dom, OptLevel::O1).expect(name);
        let (p, regs) = (&c.program, encode_arg(&input, &dom).expect(name));
        let fresh = Machine::new(p.n_regs).run(p, &regs).expect(name);
        let mut warm = Machine::new(p.n_regs);
        let mut kinds: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        let observed = warm
            .run_observed(p, &regs, |_, ins, work| {
                let k = kinds.entry(opcode(ins)).or_default();
                k.0 += 1;
                k.1 += work;
            })
            .expect(name);
        let run = warm.run(p, &regs).expect(name);
        for (what, other) in [("fresh", &fresh), ("observed", &observed)] {
            assert_eq!(run.outputs, other.outputs, "{name}: warm vs {what} outputs");
            assert_eq!(run.stats, other.stats, "{name}: warm vs {what} stats");
        }
        let stats = run.stats;
        let counted = kinds
            .values()
            .fold((0, 0), |acc, k| (acc.0 + k.0, acc.1 + k.1));
        assert_eq!(counted, (stats.time, stats.work), "{name}: observer totals");
        // Best of five rounds, each at least ~20 ms of runs.
        let t0 = Instant::now();
        warm.run(p, &regs).expect(name);
        let reps = (Duration::from_millis(20).as_nanos() / t0.elapsed().as_nanos().max(1))
            .clamp(1, 10_000);
        let best_of = |run: &mut dyn FnMut()| {
            (0..5)
                .map(|_| {
                    let t0 = Instant::now();
                    (0..reps).for_each(|_| run());
                    t0.elapsed().as_nanos() as f64 / reps as f64
                })
                .fold(f64::INFINITY, f64::min)
        };
        let ns = best_of(&mut || {
            std::hint::black_box(warm.run(p, &regs).expect(name));
        });
        let fresh_ns = best_of(&mut || {
            let mut m = Machine::new(p.n_regs);
            std::hint::black_box(m.run(p, &regs).expect(name));
        });
        let top = |key: fn(&(u64, u64)) -> u64, whole: u64| {
            let (op, k) = kinds
                .iter()
                .max_by_key(|(_, k)| key(k))
                .expect("halt executes");
            format!("{op} {}", share(key(k), whole))
        };
        row(&[
            name.to_string(),
            p.instrs.len().to_string(),
            p.n_regs.to_string(),
            stats.time.to_string(),
            stats.work.to_string(),
            format!("{:.1}", fresh_ns / 1e3),
            format!("{:.1}", ns / 1e3),
            format!("{:.1}", ns / stats.time as f64),
            format!("{:.2}", ns / stats.work.max(1) as f64),
            top(|k| k.0, stats.time),
            top(|k| k.1, stats.work),
        ]);
        for (op, k) in kinds {
            let a = all.entry(op).or_default();
            a.0 += k.0;
            a.1 += k.1;
        }
    }
    let (steps, work) = all
        .values()
        .fold((0, 0), |acc, k| (acc.0 + k.0, acc.1 + k.1));
    println!("\nopcode shares over every program above:\n");
    header(&["opcode", "steps", "share of steps", "work", "share of work"]);
    let mut by_steps: Vec<_> = all.into_iter().collect();
    by_steps.sort_by_key(|(op, k)| (std::cmp::Reverse(k.0), *op));
    for (op, k) in by_steps {
        row(&[
            op.to_string(),
            k.0.to_string(),
            share(k.0, steps),
            k.1.to_string(),
            share(k.1, work),
        ]);
    }
}

/// EXP-COST — the symbolic cost analyzer's own budget.  `cost_program`
/// runs on demand (`nsc cost`, the lint, the optimizer's gate), so it
/// must stay interactive on every program the cache holds.  Analyzes
/// both cached programs of every shared-suite entry — the single
/// program and the `map(f)` pack kernel — timing each run, and asserts
/// that the slowest analysis finishes under 2 s.  The largest kernels
/// (the while-heavy `sum` workload's blows past
/// [`nsc_compile::OPT_BUDGET`] and ships at full unoptimized size) are
/// cut off by the analyzer's own budget ([`bvram::cost::COST_BUDGET`],
/// blocks × registers).  Every kernel the batching rule packs
/// ([`BatchMode::Pack`]) must additionally carry a finite (non-`⊤`)
/// bound; a lanes entry's kernel never runs, and a loop in it may
/// leave `W'` at `⊤`.
fn exp_cost() {
    println!("\n## EXP-COST: symbolic cost analyzer budget\n");
    println!("claim: analyzing any cached program stays under 2s\n");
    use nsc_compile::OptLevel;
    use nsc_runtime::{BatchMode, BatchRunner, CompiledCache};
    header(&[
        "program",
        "artifact",
        "instrs",
        "analysis ms",
        "finite",
        "T' bound",
    ]);
    let cache = CompiledCache::new();
    let mut slowest = (0.0f64, "", "");
    let mut finite_maps = 0usize;
    let mut packed = 0usize;
    for (name, f) in t71_suite() {
        let dom = Type::seq(Type::Nat);
        let runner = BatchRunner::from_cache(&cache, &f, &dom, OptLevel::O1).expect(name);
        let entry = runner.cached();
        let kernel = entry.batch.get().expect(name);
        for (what, art) in [("single", &entry.single), ("pack", kernel)] {
            let t0 = std::time::Instant::now();
            let report = bvram::cost_program(&art.program);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            if ms > slowest.0 {
                slowest = (ms, name, what);
            }
            // The finite-bound requirement applies to the kernels the
            // batching rule packs: straight-line, so the analysis has no
            // loop to certify.
            if what == "pack" && entry.mode() == BatchMode::Pack {
                packed += 1;
                if report.is_finite() {
                    finite_maps += 1;
                }
            }
            row(&[
                name.to_string(),
                what.to_string(),
                art.program.instrs.len().to_string(),
                format!("{ms:.1}"),
                report.is_finite().to_string(),
                format!("{}", report.time),
            ]);
        }
    }
    let (ms, name, what) = slowest;
    println!("\nslowest analysis: {name} ({what}) at {ms:.1}ms");
    assert!(
        ms < 2000.0,
        "cost analysis of every cached program must stay under 2s \
         ({name} ({what}) took {ms:.1}ms)"
    );
    assert!(
        finite_maps == packed && packed > 0,
        "every kernel the batching rule packs must carry a finite bound \
         ({finite_maps}/{packed} finite)"
    );
}

/// EXP-P21 — Proposition 2.1: each BVRAM instruction class runs in
/// `O(log n)` butterfly steps with oblivious (congestion-1) routing.
fn exp_p21() {
    println!("\n## EXP-P21: Proposition 2.1 (butterfly implementation)\n");
    println!("claim: steps = O(log n) on n log n nodes; congestion 1 (oblivious)\n");
    use butterfly::{simulate_instr, InstrClass};
    header(&["class", "n", "steps", "steps/lg n", "max congestion"]);
    for class in [
        InstrClass::Arith,
        InstrClass::Append,
        InstrClass::BmRoute,
        InstrClass::SbmRoute,
        InstrClass::Select,
    ] {
        for n in [1usize << 8, 1 << 12, 1 << 16] {
            let s = simulate_instr(class, n);
            row(&[
                format!("{class:?}"),
                n.to_string(),
                s.steps.to_string(),
                format!("{:.2}", s.steps as f64 / (n as f64).log2()),
                s.max_congestion.to_string(),
            ]);
        }
    }
}

/// EXP-P32 — Proposition 3.2: Brent-scheduled CREW-with-scan cycles stay
/// within a constant of `T + W/p` across a `p` sweep.
fn exp_p32() {
    println!("\n## EXP-P32: Proposition 3.2 (CREW+scan simulation)\n");
    println!("claim: cycles = O(T + W/p) for every p\n");
    let f = nsc_core::ast::lam(
        "x",
        nsc_core::stdlib::numeric::prefix_sum(nsc_core::ast::var("x")),
    );
    let c = nsc_compile::compile_nsc(&f, &Type::seq(Type::Nat)).unwrap();
    let regs = nsc_compile::encode_arg(&Value::nat_seq(0..2048), &c.dom).unwrap();
    header(&["p", "cycles", "T", "W", "T + W/p", "ratio"]);
    for p in [1u64, 4, 16, 64, 256, 1024, 1 << 16] {
        let s = pram::run_brent(&c.program, &regs, p).unwrap();
        row(&[
            p.to_string(),
            s.cycles.to_string(),
            s.time.to_string(),
            s.work.to_string(),
            format!("{:.0}", s.brent_bound()),
            format!("{:.2}", s.ratio()),
        ]);
    }
}

/// EXP-P62 — Propositions 6.1/6.2: NC-style scaling — polylog `T(n)` and
/// polynomial `W(n)` for the suite (growth per 4× n reported).
fn exp_p62() {
    println!("\n## EXP-P62: Proposition 6.2 (NC scaling)\n");
    println!("claim: polylog T, polynomial W (growth per 4x n shown)\n");
    let sum = nsc_core::ast::lam(
        "x",
        nsc_core::stdlib::numeric::sum_seq(nsc_core::ast::var("x")),
    );
    let scan = nsc_core::ast::lam(
        "x",
        nsc_core::stdlib::numeric::prefix_sum(nsc_core::ast::var("x")),
    );
    header(&["program", "n", "T", "W", "T growth", "W growth"]);
    for (name, f) in [("tree sum", &sum), ("prefix scan", &scan)] {
        let mut prev: Option<(u64, u64)> = None;
        for n in [64u64, 256, 1024, 4096] {
            let (_, c) = nsc_core::eval::apply_func(f, Value::nat_seq(0..n)).unwrap();
            let (tg, wg) = prev
                .map(|(t, w)| {
                    (
                        format!("{:.2}", c.time as f64 / t as f64),
                        format!("{:.2}", c.work as f64 / w as f64),
                    )
                })
                .unwrap_or(("-".into(), "-".into()));
            row(&[
                name.to_string(),
                n.to_string(),
                c.time.to_string(),
                c.work.to_string(),
                tg,
                wg,
            ]);
            prev = Some((c.time, c.work));
        }
    }
}

/// EXP-L72 — Lemma 7.2: `SEQ(while)` batches per-element loops with a
/// fixed structure; work scales with the true iteration mass, time with
/// the deepest element (plus the documented `O(log n)` reorder).
fn exp_l72() {
    println!("\n## EXP-L72: Lemma 7.2 (the Map Lemma on while)\n");
    println!("claim: SEQ(while) time ~ max iterations + O(log n); work ~ total iterations\n");
    use nsc_algebra::nsa::from_nsc::func_to_nsa;
    use nsc_algebra::sa::flatten::{compile, encode};
    let f = nsc_core::ast::map(nsc_core::ast::while_(
        nsc_core::ast::lam(
            "x",
            nsc_core::ast::lt(nsc_core::ast::nat(0), nsc_core::ast::var("x")),
        ),
        nsc_core::ast::lam(
            "x",
            nsc_core::ast::monus(nsc_core::ast::var("x"), nsc_core::ast::nat(1)),
        ),
    ));
    let dom = Type::seq(Type::Nat);
    let nsa = func_to_nsa(&f).unwrap();
    let (sa, _) = compile(&nsa, &dom).unwrap();
    header(&["workload", "n", "max t_i", "SA time", "SA work"]);
    let workloads: Vec<(&str, Box<dyn Fn(u64) -> Value>)> = vec![
        (
            "uniform t_i = 8",
            Box::new(|n: u64| Value::nat_seq((0..n).map(|_| 8))),
        ),
        (
            "one straggler t=64",
            Box::new(|n: u64| Value::nat_seq((0..n).map(|i| if i == 0 { 64 } else { 2 }))),
        ),
        (
            "skewed t_i = i mod 16",
            Box::new(|n: u64| Value::nat_seq((0..n).map(|i| i % 16))),
        ),
    ];
    for (name, mk) in workloads {
        for n in [64u64, 256] {
            let arg = mk(n);
            let maxt = arg.as_nat_seq().unwrap().iter().copied().max().unwrap_or(0);
            let enc = encode(&arg, &dom).unwrap();
            let (_, c) = nsc_algebra::sa::apply_sa(&sa, &enc).unwrap();
            row(&[
                name.to_string(),
                n.to_string(),
                maxt.to_string(),
                c.time.to_string(),
                c.work.to_string(),
            ]);
        }
    }
}

/// EXP-L72b — Lemma 7.2's ε-staging ablation: simple (per-round buffer
/// churn) vs the two-buffer staged batched while on a straggler workload
/// with payload-heavy early finishers.
fn exp_l72_staging() {
    println!("\n## EXP-L72b: Lemma 7.2 staging ablation (simple vs V1/V2)\n");
    println!("claim: staging trades a 2x probe for per-stage (not per-round) buffer flushes\n");
    use nsc_algebra::sa::b::*;
    use nsc_algebra::sa::map_lemma::{seq_lift, seq_while_staged};
    use nsc_algebra::sa::scalar::{b as sb, Scalar};
    use nsc_algebra::sa::seq::encode_batch;
    use nsc_algebra::sa::Sa;
    use nsc_core::ast::{ArithOp, CmpOp};
    let t = Type::seq(Type::Nat);
    let gt0 = sb::comp(
        Scalar::Cmp(CmpOp::Lt),
        sb::pairs(sb::comp(Scalar::Const(0), Scalar::Bang), Scalar::Id),
    );
    let p = comp(
        nsc_algebra::sa::map_lemma::not_flat(),
        comp(
            Sa::EmptyTest,
            comp(
                Sa::Sigma1,
                maps(sb::comp(
                    sb::cases(Scalar::InlS(Type::Unit), Scalar::InrS(Type::Unit)),
                    sb::comp(gt0, Scalar::Id),
                )),
            ),
        ),
    );
    let g = maps(sb::comp(
        Scalar::Arith(ArithOp::Monus),
        sb::pairs(Scalar::Id, sb::comp(Scalar::Const(1), Scalar::Bang)),
    ));
    let (sp, _) = seq_lift(&p, &t).unwrap();
    let (sg, _) = seq_lift(&g, &t).unwrap();
    let (simple, _) =
        nsc_algebra::sa::map_lemma::seq_while_simple(&t, sp.clone(), sg.clone()).unwrap();
    let (staged, _) = seq_while_staged(&t, sp, sg, 2).unwrap();
    header(&[
        "fat payload",
        "straggler R",
        "W simple",
        "W staged k=2",
        "staged/simple",
    ]);
    for (fat, rounds) in [(60u64, 200u64), (60, 800), (200, 800), (200, 2000)] {
        let batch: Vec<Value> = (0..16u64)
            .map(|i| {
                if i == 7 {
                    Value::nat_seq([rounds])
                } else {
                    Value::nat_seq(std::iter::repeat_n(1u64, fat as usize))
                }
            })
            .collect();
        let enc = encode_batch(&batch, &t).unwrap();
        let (_, cs) = nsc_algebra::sa::apply_sa(&simple, &enc).unwrap();
        let (_, cg) = nsc_algebra::sa::apply_sa(&staged, &enc).unwrap();
        row(&[
            fat.to_string(),
            rounds.to_string(),
            cs.work.to_string(),
            cg.work.to_string(),
            format!("{:.2}", cg.work as f64 / cs.work as f64),
        ]);
    }
}

/// EXP-D1 — Example D.1: `combine` in SA on the paper's shape, plus its
/// `T = O(1)`, `W = O(n)` scaling.
fn exp_d1() {
    println!("\n## EXP-D1: Example D.1 (combine in SA)\n");
    println!("claim: combine is O(1) time, O(n) work\n");
    use nsc_algebra::sa::map_lemma::merge_leaf;
    let f = merge_leaf();
    header(&["n", "time", "work", "work/n"]);
    for n in [8u64, 64, 512, 4096] {
        let flags = Value::seq((0..n).map(|i| Value::bool_(i % 3 != 0)).collect());
        let x = Value::nat_seq((0..n).filter(|i| i % 3 != 0));
        let y = Value::nat_seq((0..n).filter(|i| i % 3 == 0));
        let arg = Value::pair(flags, Value::pair(x, y));
        let (_, c) = nsc_algebra::sa::apply_sa(&f, &arg).unwrap();
        row(&[
            n.to_string(),
            c.time.to_string(),
            c.work.to_string(),
            format!("{:.1}", c.work as f64 / n as f64),
        ]);
    }
}

/// Every experiment, in `exp all` order: the name `exp` takes and the
/// function it runs.  A new experiment is one row here.
pub const EXPERIMENTS: [(&str, fn()); 13] = [
    ("fig123", exp_fig123),
    ("t42", exp_t42),
    ("t71", exp_t71),
    ("opt", exp_opt),
    ("batch", exp_batch),
    ("interp", exp_interp),
    ("cost", exp_cost),
    ("p21", exp_p21),
    ("p32", exp_p32),
    ("p62", exp_p62),
    ("l72", exp_l72),
    ("l72b", exp_l72_staging),
    ("d1", exp_d1),
];

/// Runs every experiment in order.
pub fn run_all() {
    for (_, run) in EXPERIMENTS {
        run();
    }
}
