//! `nsc-loadbench` — the repo's benchmark.
//!
//! Spawns the real release `nsc serve` binary and drives it over TCP
//! (end-to-end metrics, tracing off), or replays the same seeded requests
//! in-process through each layer's public functions wrapped in spans
//! (per-layer metrics).  See `bench/README.md` for the glossary.
//!
//! ```text
//! nsc-loadbench --workload W --seed N --seconds S --trace 0|1   one run; last stdout line is the result JSON
//! nsc-loadbench [--workload W] [--seed N] [--quick] [--sets K] [--out FILE]   full set(s) -> bench/out/run.json
//! nsc-loadbench --compare a.json b.json                         verdict per workload x end-to-end metric
//! ```

mod child;
mod compare;
mod load;
mod replay;
mod stats;
mod trace;
mod workload;

use nsc_serve::json::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workload::{Pool, Workload, WORKLOADS};

/// Seconds one run measures unless `--seconds` says otherwise (the
/// `run_seconds` of `BENCHMARK.json`).
const RUN_SECONDS: f64 = 30.0;
/// What the contract allows one run, build excluded.
const RUN_CAP_S: f64 = 180.0;
/// A run alternates this many closed and open phases (at 50 rps an open
/// phase of the default run still leaves 10 samples beyond its p95).
const ROUNDS: u64 = 5;
/// The gated p50 and p95 are each this percentile of the rounds' own, i.e.
/// the second lowest of five: like the closed phases' figures (see
/// `load::QUIET_CHUNKS`) they are read off the run's quiet end, and not
/// off the single quietest round.
const QUIET_ROUNDS: f64 = 25.0;
/// An open-loop generator later than this at its p99 gets the run stamped
/// `late`.  Latencies are timed from due times, so lateness inflates them
/// rather than hiding anything; the stamp says how much of a tail is the
/// harness's own.  It does not fail the run: on a shared VM a lone sleeper
/// is already descheduled for tens of ms now and then.
const GEN_LATE_LIMIT_MS: f64 = 1.0;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value.
    pub n: u64,
}

/// Which way an end-to-end metric improves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Higher,
    Lower,
}

/// The end-to-end metrics: name, unit, direction, and the share of the
/// baseline by which each may worsen before it counts as a regression
/// (`BENCHMARK.json` carries the same table; a test keeps them equal).
pub const END_TO_END: [(&str, &str, Better, f64); 6] = [
    ("throughput_rps", "1/s", Better::Higher, 0.25),
    ("cpu_ms_per_req", "ms", Better::Lower, 0.25),
    ("latency_p50_ms", "ms", Better::Lower, 0.25),
    ("latency_p95_ms", "ms", Better::Lower, 0.25),
    ("setup_s", "s", Better::Lower, 0.25),
    ("peak_rss_mib", "MiB", Better::Lower, 0.10),
];

/// Per-layer metrics observed from outside the running child: wire
/// `metrics` snapshot deltas and client clocks.
const OUTSIDE_IN: [(&str, &str); 8] = [
    ("nsc-serve.mean_batch", "count"),
    ("nsc-serve.pack_share", "ratio"),
    ("nsc-serve.fused_share", "ratio"),
    ("nsc-serve.pack_slower", "count"),
    ("nsc-serve.rejected", "count"),
    ("nsc-serve.front_ms", "ms"),
    ("nsc-serve.shard_wait_ms", "ms"),
    ("nsc-serve.latency_p99_ms", "ms"),
];

/// Where things are: the repo root and the served binary.
struct Env {
    root: PathBuf,
    nsc: PathBuf,
}

/// One run's result.
struct Report {
    attempted: u64,
    failed: u64,
    /// The open-loop generator overran [`GEN_LATE_LIMIT_MS`].
    late: bool,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    metrics: Vec<Metric>,
    /// Printed, never gated.
    diagnostics: Vec<Metric>,
}

fn metric(name: &str, unit: &'static str, value: f64, n: u64) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value,
        n,
    }
}

/// One run of one workload: the load run alone (`trace` off), or the
/// traced in-process replay followed by a shorter load run for the
/// outside-in numbers.
fn run_one(
    env: &Env,
    index: usize,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Report, String> {
    let wl: &Workload = &WORKLOADS[index];
    let module = env
        .root
        .join("examples")
        .join(format!("{}.nsc", wl.example));
    let src = std::fs::read_to_string(&module).map_err(|e| format!("{}: {e}", module.display()))?;
    let main = nsc_core::parse_module(&src)
        .map_err(|e| e.to_string())?
        .inlined("main")
        .map_err(|e| e.to_string())?;
    let pool = Pool::build(seed, index, &main)?;

    let replayed = if trace {
        let r = replay::run(&src, &pool, seconds)?;
        let out = env.root.join("bench/out");
        std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
        let file = out.join(format!("trace-{}.json", wl.name));
        std::fs::write(&file, r.tracer.to_json(wl.name, seed))
            .map_err(|e| format!("{}: {e}", file.display()))?;
        Some(r)
    } else {
        None
    };

    // A third closed, two thirds open: throughput and CPU per reply settle
    // within seconds, the latency percentiles need the samples.  The
    // traced run only wants the outside-in numbers and halves both.
    let round_s = if trace { 0.5 } else { 1.0 } * seconds / ROUNDS as f64;
    let phases = load::Phases {
        repeat_starts: !trace,
        closed_s: round_s / 3.0,
    };
    let rounds: Vec<Vec<f64>> = (0..ROUNDS)
        .map(|round| workload::schedule(seed, index, round, wl.open_rps, round_s * 2.0 / 3.0))
        .collect();
    let o = load::run(&env.nsc, &module, &pool, &rounds, phases)?;

    let starts = o.setup_s.len() as u64;
    // The tail diagnostics pool every round.
    let part = |q: f64| {
        let of_round = |round: &Vec<f64>| {
            let mut round = round.clone();
            stats::sort(&mut round);
            stats::percentile(&round, q)
        };
        stats::quantile(o.open_ms.iter().map(of_round).collect(), QUIET_ROUNDS)
    };
    let mut pooled = o.open_ms.concat();
    let open_n = pooled.len();
    stats::sort(&mut pooled);
    let p = |q: f64| stats::percentile(&pooled, q);
    let mut report = Report {
        attempted: o.attempted,
        failed: o.failed,
        late: o.gen_late_p99_ms > GEN_LATE_LIMIT_MS,
        metrics: Vec::new(),
        diagnostics: vec![
            metric(
                "error_share",
                "ratio",
                o.failed as f64 / o.attempted as f64,
                o.attempted,
            ),
            metric("gen_late_p99_ms", "ms", o.gen_late_p99_ms, open_n as u64),
            metric("latency_max_ms", "ms", p(100.0), open_n as u64),
        ],
    };
    if let Some(q) = stats::highest_supported(open_n).filter(|&q| q > 95.0) {
        report.diagnostics.push(metric(
            &format!("latency_p{q}_ms"),
            "ms",
            p(q),
            open_n as u64,
        ));
    }

    match replayed {
        None => {
            let values = [
                (o.throughput_rps, o.closed_n),
                (o.cpu_ms_per_req, o.closed_n),
                (part(50.0), open_n as u64),
                (part(95.0), open_n as u64),
                (stats::median(o.setup_s.clone()), starts),
                (o.peak_rss_mib, 1),
            ];
            for ((name, unit, _, _), (value, n)) in END_TO_END.into_iter().zip(values) {
                report.metrics.push(metric(name, unit, value, n));
            }
            report.diagnostics.extend([
                metric("nsc-serve.mean_batch", "count", o.mean_batch, o.closed_n),
                metric("nsc-serve.pack_share", "ratio", o.pack_share, o.closed_n),
            ]);
        }
        Some(r) => {
            report.attempted += r.attempted;
            report.failed += r.failed;
            report.metrics = r.metrics;
            let values = [
                (o.mean_batch, o.closed_n),
                (o.pack_share, o.closed_n),
                (o.fused_share, o.closed_n),
                (o.pack_slower, o.closed_n),
                (o.rejected, o.closed_n),
                (o.open_client_mean_ms - o.open_shard_mean_ms, open_n as u64),
                (o.open_shard_mean_ms - r.service_mean_ms, open_n as u64),
                (p(99.0), open_n as u64),
            ];
            for ((name, unit), (value, n)) in OUTSIDE_IN.into_iter().zip(values) {
                report.metrics.push(metric(name, unit, value, n));
            }
        }
    }
    Ok(report)
}

fn metrics_json(metrics: &[Metric], with_n: bool) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let mut o = BTreeMap::new();
                let value = if m.value.is_finite() {
                    Json::Num(m.value)
                } else {
                    Json::Null
                };
                o.insert("value".to_string(), value);
                o.insert("unit".to_string(), Json::Str(m.unit.to_string()));
                if with_n {
                    o.insert("n".to_string(), Json::Num(m.n as f64));
                }
                (m.name.clone(), Json::Obj(o))
            })
            .collect(),
    )
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        eprintln!(
            "  {:<38} {:<6} {:>14.4} ({} samples)",
            m.name, m.unit, m.value, m.n
        );
    }
}

fn print_report(wl: &Workload, trace: bool, r: &Report, wall_s: f64) {
    eprintln!("{}: {}", wl.name, wl.why);
    eprintln!(
        "{} ({}): {} attempted, {} failed, generator {}, {wall_s:.1} s of the {RUN_CAP_S:.0} s a run may take",
        wl.name,
        if trace { "traced" } else { "untraced" },
        r.attempted,
        r.failed,
        if r.late { "LATE" } else { "on schedule" },
    );
    print_metrics(&r.metrics);
    print_metrics(&r.diagnostics);
}

/// The contract run: one workload, result JSON as the last stdout line.
fn contract_run(
    env: &Env,
    name: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<bool, String> {
    let (index, wl) = workload::find(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let t0 = Instant::now();
    let r = run_one(env, index, seed, seconds, trace)?;
    print_report(wl, trace, &r, t0.elapsed().as_secs_f64());
    let correct = r.failed == 0;
    if correct {
        let mut o = BTreeMap::new();
        o.insert("correct".to_string(), Json::Bool(true));
        o.insert("attempted".to_string(), Json::Num(r.attempted as f64));
        o.insert("failed".to_string(), Json::Num(0.0));
        o.insert("metrics".to_string(), metrics_json(&r.metrics, false));
        println!("{}", Json::Obj(o).render());
    }
    Ok(correct)
}

/// Full sets: every (or one) workload untraced then traced, written to
/// `out` as one JSON document.
fn suite(
    env: &Env,
    only: Option<&str>,
    seed: u64,
    seconds: f64,
    sets: usize,
    out: &Path,
) -> Result<bool, String> {
    if let Some(name) = only {
        workload::find(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    }
    let t0 = Instant::now();
    let mut all_ok = true;
    let mut runs = 0;
    let mut set_docs = Vec::new();
    for _ in 0..sets {
        let mut docs = Vec::new();
        for (index, wl) in WORKLOADS.iter().enumerate() {
            if only.is_some_and(|name| name != wl.name) {
                continue;
            }
            let mut doc = BTreeMap::new();
            doc.insert("name".to_string(), Json::Str(wl.name.to_string()));
            for trace in [false, true] {
                let t1 = Instant::now();
                let r = run_one(env, index, seed, seconds, trace)?;
                print_report(wl, trace, &r, t1.elapsed().as_secs_f64());
                runs += 1;
                all_ok &= r.failed == 0;
                let prefix = if trace { "traced" } else { "untraced" };
                let key = if trace { "per_layer" } else { "end_to_end" };
                doc.insert(key.to_string(), metrics_json(&r.metrics, true));
                doc.insert(
                    format!("{prefix}_diagnostics"),
                    metrics_json(&r.diagnostics, true),
                );
                doc.insert(format!("{prefix}_attempted"), Json::Num(r.attempted as f64));
                doc.insert(format!("{prefix}_failed"), Json::Num(r.failed as f64));
                doc.insert(format!("{prefix}_late"), Json::Bool(r.late));
            }
            docs.push(Json::Obj(doc));
        }
        set_docs.push(Json::Arr(docs));
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut doc = BTreeMap::new();
    doc.insert("schema".to_string(), Json::Num(1.0));
    // Numbers taken at another run length do not compare with the
    // committed ones.
    doc.insert("comparable".to_string(), Json::Bool(seconds == RUN_SECONDS));
    doc.insert("seed".to_string(), Json::Num(seed as f64));
    doc.insert("seconds".to_string(), Json::Num(seconds));
    doc.insert("nproc".to_string(), Json::Num(nproc as f64));
    doc.insert("wall_s".to_string(), Json::Num(wall_s));
    doc.insert("sets".to_string(), Json::Arr(set_docs));
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(out, Json::Obj(doc).render() + "\n")
        .map_err(|e| format!("{}: {e}", out.display()))?;
    eprintln!(
        "{runs} runs in {wall_s:.1} s ({:.1} s per run; the contract caps a run at {RUN_CAP_S:.0} s){} -> {}",
        wall_s / runs.max(1) as f64,
        if seconds == RUN_SECONDS { "" } else { " [NOT COMPARABLE: non-default run length]" },
        out.display()
    );
    Ok(all_ok)
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    sets: usize,
    out: Option<PathBuf>,
    root: PathBuf,
    nsc: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: None,
        sets: 1,
        out: None,
        root: PathBuf::from("."),
        nsc: None,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        fn num<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag}: bad value `{v}`"))
        }
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = num(&flag, value()?)?,
            "--seconds" => a.seconds = num(&flag, value()?)?,
            "--trace" => a.trace = Some(num::<u8>(&flag, value()?)? != 0),
            "--quick" => a.seconds = 3.0,
            "--sets" => a.sets = num(&flag, value()?)?,
            "--out" => a.out = Some(value()?.into()),
            "--root" => a.root = value()?.into(),
            "--nsc" => a.nsc = Some(value()?.into()),
            "--compare" => a.compare = Some((value()?.into(), value()?.into())),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(a.seconds >= 1.0 && a.seconds <= 60.0) {
        return Err("--seconds must be between 1 and 60".into());
    }
    Ok(a)
}

fn drive(a: Args) -> Result<bool, String> {
    if let Some((base, new)) = &a.compare {
        return compare::run(base, new);
    }
    let nsc = match a.nsc {
        Some(p) => p,
        // By default the served binary sits next to this one: both are
        // built into the same target directory by `bench/run.sh`.
        None => std::env::current_exe()
            .map_err(|e| e.to_string())?
            .with_file_name("nsc"),
    };
    if !nsc.is_file() {
        return Err(format!(
            "{} not found (build it with bench/run.sh)",
            nsc.display()
        ));
    }
    let env = Env { root: a.root, nsc };
    match (a.trace, &a.workload) {
        (Some(trace), Some(name)) => contract_run(&env, name, a.seed, a.seconds, trace),
        (Some(_), None) => Err("--trace needs --workload".into()),
        (None, only) => {
            let out = a.out.unwrap_or_else(|| env.root.join("bench/out/run.json"));
            suite(&env, only.as_deref(), a.seed, a.seconds, a.sets, &out)
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    // The evaluator, the compiler and the inliner recurse with program
    // and value depth; run on a stack as large as the `nsc` CLI's.
    let worker = std::thread::Builder::new()
        .name("nsc-loadbench".into())
        .stack_size(512 * 1024 * 1024)
        .spawn(move || drive(args))
        .expect("spawn driver thread");
    match worker.join() {
        Ok(Ok(true)) => ExitCode::SUCCESS,
        Ok(Ok(false)) => ExitCode::FAILURE,
        Ok(Err(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
        Err(_) => ExitCode::FAILURE,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the harness must name the same workloads and
    /// metrics, with the same units, directions and bounds.
    #[test]
    fn benchmark_json_matches_the_harness() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let text = std::fs::read_to_string(root.join("BENCHMARK.json")).unwrap();
        let doc = nsc_serve::json::parse(&text).unwrap();
        let field =
            |row: &Json, key: &str| row.get(key).and_then(Json::as_str).unwrap().to_string();
        let rows = |key: &str| doc.get(key).and_then(Json::as_arr).unwrap().to_vec();

        let listed: Vec<(String, String)> = rows("workloads")
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(listed, ours);
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(RUN_SECONDS)
        );

        let listed: Vec<(String, String, String, f64)> = rows("end_to_end")
            .iter()
            .map(|m| {
                let bound = m.get("bound").and_then(Json::as_f64).unwrap();
                (
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better"),
                    bound,
                )
            })
            .collect();
        let ours: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|&(name, unit, better, bound)| {
                let better = if better == Better::Higher {
                    "higher"
                } else {
                    "lower"
                };
                (
                    name.to_string(),
                    unit.to_string(),
                    better.to_string(),
                    bound,
                )
            })
            .collect();
        assert_eq!(listed, ours);

        // The per-layer names come out of an actual (tiny) replay.
        let src = std::fs::read_to_string(root.join("examples/square_plus_one.nsc")).unwrap();
        let main = nsc_core::parse_module(&src)
            .unwrap()
            .inlined("main")
            .unwrap();
        let pool = Pool::build(1, 0, &main).unwrap();
        let replayed = replay::run(&src, &pool, 1.0).unwrap();
        assert_eq!(replayed.failed, 0);
        let mut ours: Vec<(String, String)> = replayed
            .metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect();
        ours.extend(OUTSIDE_IN.map(|(name, unit)| (name.to_string(), unit.to_string())));
        let listed: Vec<(String, String)> = rows("per_layer")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect();
        assert_eq!(listed, ours);
    }
}
