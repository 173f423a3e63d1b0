//! The traced in-process replay: the same seeded requests driven through
//! each layer's public functions, every call wrapped in a span.
//!
//! Three paths, each under its own root span: `compile` (module source →
//! verified program with its cost certificate, stage by stage, for the
//! single program and the `map(f)` pack kernel), `request` (request line
//! → reply line, the nine stages a served request passes through), and
//! `batch` (the planner and both batching disciplines at `B = 16`).
//! Span names are the metric names.  Every output is checked against the
//! evaluator's, like the replies of the load run.

use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::Pool;
use crate::Metric;
use bvram::{cost_program, verify_program_basic, Program};
use nsc_algebra::fuse::fuse_func;
use nsc_algebra::nsa::from_nsc::func_to_nsa;
use nsc_algebra::sa::flatten::{compile, compile_type};
use nsc_compile::{
    compile_sa, decode_result, encode_arg, optimize, run_program_on, Backend, OptLevel,
};
use nsc_core::types::Type;
use nsc_core::value::Value;
use nsc_core::{ast, parse_module, parse_value, Func};
use nsc_runtime::{BatchMode, BatchRunner, CompiledCache, KERNEL_OPT_BUDGET};
use nsc_serve::protocol::{self, Request};
use std::time::{Duration, Instant};

/// Requests per batch on the batch path.
const BATCH: usize = 16;

/// Span (= metric) names of the per-program compile stages.
struct Stages {
    fuse: &'static str,
    to_nsa: &'static str,
    flatten: &'static str,
    codegen: &'static str,
    optimize: &'static str,
    verify: &'static str,
    cost: &'static str,
    instrs_o0: &'static str,
    instrs: &'static str,
    n_regs: &'static str,
}

macro_rules! stages {
    ($program:literal) => {
        Stages {
            fuse: concat!("nsc-algebra.fuse_ns.", $program),
            to_nsa: concat!("nsc-algebra.to_nsa_ns.", $program),
            flatten: concat!("nsc-algebra.flatten_ns.", $program),
            codegen: concat!("nsc-compile.codegen_ns.", $program),
            optimize: concat!("nsc-compile.optimize_ns.", $program),
            verify: concat!("bvram.verify_ns.", $program),
            cost: concat!("bvram.cost_ns.", $program),
            instrs_o0: concat!("nsc-compile.instrs_O0.", $program),
            instrs: concat!("nsc-compile.instrs.", $program),
            n_regs: concat!("nsc-compile.n_regs.", $program),
        }
    };
}

/// `f` itself and the pack kernel `map(f)`.
const SINGLE: Stages = stages!("single");
const KERNEL: Stages = stages!("kernel");

const MODULE_STAGES: [&str; 3] = [
    "nsc-core.parse_module_ns",
    "nsc-core.check_ns",
    "nsc-core.inline_ns",
];

const REQUEST_STAGES: [&str; 9] = [
    "nsc-serve.parse_request_ns",
    "nsc-core.parse_value_ns",
    "nsc-core.admit_ns",
    "nsc-compile.encode_arg_ns",
    "bvram.exec_ns",
    "bvram.exec_par_ns",
    "nsc-compile.decode_result_ns",
    "nsc-core.value_print_ns",
    "nsc-serve.render_output_ns",
];

/// The request stages a shard runs per request (the front end parses the
/// line and renders the reply on other threads; `exec_par` is not on the
/// served `seq` path at all).
const SERVICE_STAGES: [&str; 6] = [
    "nsc-core.parse_value_ns",
    "nsc-core.admit_ns",
    "nsc-compile.encode_arg_ns",
    "bvram.exec_ns",
    "nsc-compile.decode_result_ns",
    "nsc-core.value_print_ns",
];

/// Runs `f` at least `min` times, then up to `max` times while the total
/// stays under `budget` — cheap stages get a real median, a 1.5 s compile
/// is not repeated past what the run's time allows.
fn repeat<T>(
    min: usize,
    max: usize,
    budget: Duration,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let t0 = Instant::now();
    let mut last = f()?;
    let mut done = 1;
    while done < min || (done < max && t0.elapsed() < budget) {
        last = f()?;
        done += 1;
    }
    Ok(last)
}

/// One program lowered stage by stage, mirroring `compile_nsc_opts` and
/// the cache's kernel-size gate, each stage in a span under `root`.
fn lower(
    t: &mut Tracer,
    root: Option<usize>,
    s: &Stages,
    f: &Func,
    dom: &Type,
) -> Result<(Program, usize), String> {
    let fused = t.span(s.fuse, root, || fuse_func(f));
    let nsa = t
        .span(s.to_nsa, root, || func_to_nsa(&fused.func))
        .map_err(|e| format!("{}: {e}", s.to_nsa))?;
    let (sa, _cod) = t
        .span(s.flatten, root, || compile(&nsa, dom))
        .map_err(|e| format!("{}: {e}", s.flatten))?;
    let (o0, _) = t
        .span(s.codegen, root, || compile_sa(&sa, &compile_type(dom)))
        .map_err(|e| format!("{}: {e}", s.codegen))?;
    let instrs_o0 = o0.instrs.len();
    let program = if instrs_o0 <= KERNEL_OPT_BUDGET {
        t.span(s.optimize, root, || optimize(o0, OptLevel::O1))
    } else {
        o0
    };
    let report = t.span(s.verify, root, || verify_program_basic(&program));
    if !report.clean() {
        return Err(format!("{}: program is not clean:\n{report}", s.verify));
    }
    t.span(s.cost, root, || cost_program(&program));
    Ok((program, instrs_o0))
}

/// The compile path, cold: source text → both programs.
fn compile_path(t: &mut Tracer, src: &str) -> Result<[(Program, usize); 2], String> {
    let root = t.open("compile", None, None);
    let module = t
        .span(MODULE_STAGES[0], root, || parse_module(src))
        .map_err(|e| e.to_string())?;
    t.span(MODULE_STAGES[1], root, || module.check())
        .map_err(|e| e.to_string())?;
    let main = t
        .span(MODULE_STAGES[2], root, || module.inlined("main"))
        .map_err(|e| e.to_string())?;
    let dom = &module.get("main").ok_or("module has no `main`")?.dom;
    let single = lower(t, root, &SINGLE, &main, dom)?;
    let kernel = lower(t, root, &KERNEL, &ast::map(main), &Type::seq(dom.clone()))?;
    t.close(root);
    Ok([single, kernel])
}

/// Input-independent per-request counts, taken on the first pass.
#[derive(Default)]
struct Counts {
    t_prime: Vec<f64>,
    w_prime: Vec<f64>,
    register_elems: Vec<f64>,
    request_bytes: Vec<f64>,
    reply_bytes: Vec<f64>,
}

/// One pass over the pool along the request path.  Returns how many
/// replies differed from the oracle's.
fn request_pass(
    t: &mut Tracer,
    runner: &BatchRunner,
    pool: &Pool,
    mut counts: Option<&mut Counts>,
) -> Result<u64, String> {
    let program = &runner.cached().single.program;
    let (dom, cod) = (runner.dom(), runner.cod());
    let mut wrong = 0;
    let mut line = Vec::new();
    for k in 0..pool.items.len() as u64 {
        line.clear();
        pool.request_line(k, &mut line);
        let text = std::str::from_utf8(&line[..line.len() - 1]).map_err(|e| e.to_string())?;

        let root = t.open("request", None, Some(k));
        let request = t
            .span(REQUEST_STAGES[0], root, || protocol::parse_request(text))
            .map_err(|e| e.to_string())?;
        let Request::Call { input, id, .. } = request else {
            return Err("request line parsed as a command".into());
        };
        let value = t
            .span(REQUEST_STAGES[1], root, || parse_value(&input))
            .map_err(|e| e.to_string())?;
        if !t.span(REQUEST_STAGES[2], root, || dom.admits(&value)) {
            return Err(format!("domain does not admit pool input {k}"));
        }
        let regs = t
            .span(REQUEST_STAGES[3], root, || encode_arg(&value, dom))
            .map_err(|e| e.to_string())?;
        let regs_in: usize = regs.iter().map(Vec::len).sum();
        let regs_par = regs.clone();
        let out = t
            .span(REQUEST_STAGES[4], root, || {
                run_program_on(program, regs, Backend::Seq)
            })
            .map_err(|e| e.to_string())?;
        let out_par = t
            .span(REQUEST_STAGES[5], root, || {
                run_program_on(program, regs_par, Backend::Par)
            })
            .map_err(|e| e.to_string())?;
        let result = t
            .span(REQUEST_STAGES[6], root, || decode_result(&out.outputs, cod))
            .map_err(|e| e.to_string())?;
        let printed = t.span(REQUEST_STAGES[7], root, || result.to_string());
        let reply = t.span(REQUEST_STAGES[8], root, || {
            protocol::render_output(id.as_ref(), &printed)
        });
        t.close(root);

        if !pool.reply_ok(k, reply.as_bytes()) || out_par.outputs != out.outputs {
            wrong += 1;
        }
        if let Some(c) = counts.as_deref_mut() {
            let regs_out: usize = out.outputs.iter().map(Vec::len).sum();
            c.t_prime.push(out.stats.time as f64);
            c.w_prime.push(out.stats.work as f64);
            c.register_elems.push((regs_in + regs_out) as f64);
            c.request_bytes.push(line.len() as f64);
            c.reply_bytes.push(reply.len() as f64 + 1.0);
        }
    }
    Ok(wrong)
}

/// What the replay hands back to the run.
pub struct Replay {
    pub metrics: Vec<Metric>,
    pub tracer: Tracer,
    /// Mean shard-side service time of one request, ms.
    pub service_mean_ms: f64,
    pub attempted: u64,
    pub failed: u64,
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// Runs the three traced paths; `seconds` bounds the repeated parts.
pub fn run(src: &str, pool: &Pool, seconds: f64) -> Result<Replay, String> {
    let mut t = Tracer::new();
    let mut metrics = Vec::new();
    let mut push = |name: &str, unit: &'static str, value: f64, n: usize| {
        metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
            n: n as u64,
        })
    };
    let budget = Duration::from_secs_f64(seconds / 12.0);
    let (mut attempted, mut failed) = (0u64, 0u64);

    // Compile path, cold every time: nothing is cached between reps.
    let [(single, single_o0), (kernel, kernel_o0)] =
        repeat(1, 3, budget, || compile_path(&mut t, src))?;

    // The cache, cold: the one call a shard makes on its first request.
    let module = parse_module(src).map_err(|e| e.to_string())?;
    let main = module.inlined("main").map_err(|e| e.to_string())?;
    let dom = module
        .get("main")
        .ok_or("module has no `main`")?
        .dom
        .clone();
    let cache_cold = |t: &mut Tracer| {
        let cache = CompiledCache::new();
        let entry = t.span("nsc-runtime.cache_cold_ns", None, || {
            cache.get_or_compile(&main, &dom, OptLevel::O1, Backend::Seq)
        });
        entry.map(|e| (cache, e)).map_err(|e| e.to_string())
    };
    let (cache, entry) = repeat(1, 3, budget, || cache_cold(&mut t))?;
    if entry.single.program.instrs.len() != single.instrs.len()
        || entry.batch.program.instrs.len() != kernel.instrs.len()
    {
        return Err("the staged lowering no longer mirrors the cache's pipeline".into());
    }
    for _ in 0..200 {
        t.span("nsc-runtime.cache_hit_ns", None, || {
            cache.get_or_compile(&main, &dom, OptLevel::O1, Backend::Seq)
        })
        .map_err(|e| e.to_string())?;
    }
    let runner = BatchRunner::new(entry, Backend::Seq);

    // Request path: a warm-up pass, then traced and untraced passes in
    // alternation; their wall-clock difference is the tracing overhead.
    let mut counts = Counts::default();
    t.on = false;
    failed += request_pass(&mut t, &runner, pool, Some(&mut counts))?;
    attempted += pool.items.len() as u64;
    let (mut traced_s, mut untraced_s) = (0.0, 0.0);
    let mut pairs = 0;
    repeat(2, 20, budget, || {
        for on in [true, false] {
            t.on = on;
            let t0 = Instant::now();
            failed += request_pass(&mut t, &runner, pool, None)?;
            *(if on { &mut traced_s } else { &mut untraced_s }) += t0.elapsed().as_secs_f64();
            attempted += pool.items.len() as u64;
        }
        pairs += 1;
        Ok(())
    })?;
    t.on = true;

    // Batch path: the planner, its choice, and both disciplines forced.
    let inputs: Vec<Value> = pool.items[..BATCH]
        .iter()
        .map(|item| parse_value(&item.input).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let mut pack_work = 0.0;
    repeat(3, 9, budget, || {
        let root = t.open("batch", None, None);
        t.span("nsc-runtime.plan_ns", root, || runner.plan(&inputs));
        let outcomes = [
            t.span("nsc-runtime.run_batch_ns_per_req", root, || {
                runner.run_batch(&inputs)
            }),
            t.span("nsc-runtime.pack_ns_per_req", root, || {
                runner.run_batch_mode(&inputs, BatchMode::Pack)
            }),
            t.span("nsc-runtime.lanes_ns_per_req", root, || {
                runner.run_batch_mode(&inputs, BatchMode::Lanes)
            }),
        ];
        t.close(root);
        pack_work = outcomes[1].cost.work as f64;
        for outcome in &outcomes {
            for (result, item) in outcome.results.iter().zip(&pool.items) {
                attempted += 1;
                if !matches!(result, Ok(v) if v.to_string() == item.expected) {
                    failed += 1;
                }
            }
        }
        Ok(())
    })?;

    // Metrics, in the order the README lists them.
    let stage = |name: &str, per: f64| {
        let d = t.durations_ns(name);
        let n = d.len();
        (if n == 0 { 0.0 } else { median(d) / per }, n)
    };
    for name in REQUEST_STAGES {
        let (v, n) = stage(name, 1.0);
        push(name, "ns", v, n);
    }
    let exec_ns: f64 = t.durations_ns("bvram.exec_ns").iter().sum::<f64>() / pairs as f64;
    let n = counts.t_prime.len();
    push("bvram.t_prime", "count", mean(&counts.t_prime), n);
    push("bvram.w_prime", "count", mean(&counts.w_prime), n);
    let per = |total: &[f64]| exec_ns / total.iter().sum::<f64>().max(1.0);
    push("bvram.ns_per_instr", "ns", per(&counts.t_prime), n);
    push("bvram.ns_per_work", "ns", per(&counts.w_prime), n);
    push(
        "nsc-compile.register_elems",
        "count",
        mean(&counts.register_elems),
        n,
    );
    push(
        "nsc-serve.request_bytes",
        "B",
        mean(&counts.request_bytes),
        n,
    );
    push("nsc-serve.reply_bytes", "B", mean(&counts.reply_bytes), n);

    let (v, n) = stage("nsc-runtime.plan_ns", 1.0);
    push("nsc-runtime.plan_ns", "ns", v, n);
    for name in [
        "nsc-runtime.run_batch_ns_per_req",
        "nsc-runtime.pack_ns_per_req",
        "nsc-runtime.lanes_ns_per_req",
    ] {
        let (v, n) = stage(name, BATCH as f64);
        push(name, "ns", v, n);
    }
    let singles_work: f64 = counts.w_prime[..BATCH].iter().sum();
    push(
        "nsc-runtime.pack_work_ratio",
        "ratio",
        pack_work / singles_work.max(1.0),
        BATCH,
    );
    for name in ["nsc-runtime.cache_cold_ns", "nsc-runtime.cache_hit_ns"] {
        let (v, n) = stage(name, 1.0);
        push(name, "ns", v, n);
    }

    for name in MODULE_STAGES {
        let (v, n) = stage(name, 1.0);
        push(name, "ns", v, n);
    }
    for (s, program, o0) in [(&SINGLE, &single, single_o0), (&KERNEL, &kernel, kernel_o0)] {
        for name in [
            s.fuse, s.to_nsa, s.flatten, s.codegen, s.optimize, s.verify, s.cost,
        ] {
            let (v, n) = stage(name, 1.0);
            push(name, "ns", v, n);
        }
        push(s.instrs_o0, "count", o0 as f64, 1);
        push(s.instrs, "count", program.instrs.len() as f64, 1);
        push(s.n_regs, "count", program.n_regs as f64, 1);
    }

    push(
        "trace_overhead_share",
        "ratio",
        (traced_s - untraced_s) / untraced_s,
        pairs,
    );
    push("trace_coverage", "ratio", t.coverage("request"), pairs);

    let service_ns: f64 = SERVICE_STAGES
        .iter()
        .map(|name| mean(&t.durations_ns(name)))
        .sum();
    Ok(Replay {
        metrics,
        tracer: t,
        service_mean_ms: service_ns / 1e6,
        attempted,
        failed,
    })
}
