//! `bench_report` — the machine-readable batching benchmark behind CI's
//! `perf-smoke` job.
//!
//! Drives every golden `.nsc` example through the batched execution
//! runtime on both backends at batch sizes {1, 8, 64}, measuring the
//! sequential baseline (a loop of `B` single runs) against the pack and
//! lanes disciplines, and writes the records as `BENCH_batch.json` at
//! the repository root (schema v2, which records the measuring host —
//! see `nsc_runtime::bench`).
//!
//! Two consumers: the committed repo-root file is the **perf-trend
//! baseline** (regenerate it with this binary when re-baselining with
//! `[bench-reset]`), while CI's `perf-smoke` job writes a fresh report
//! to a scratch path (`--out`) and hands both to `perf_trend`, which
//! compares their speedup *ratios* — never raw `wall_ns`, which is
//! machine-dependent.
//!
//! Exit status is the perf gate:
//!
//! * every batch mode must be bit-identical to the loop of single runs
//!   (asserted inside `measure_batches` — a wrong runtime never reports
//!   a speedup), and
//! * at `B ≥ 8`, some batch mode must reach ≥ 1.0× over sequential on at
//!   least one example (batching must never be the *only* option and
//!   always a loss).
//!
//! Usage: `bench_report [--out <path>]` (default `<repo root>/BENCH_batch.json`).

use nsc_compile::{Backend, OptLevel};
use nsc_runtime::workloads::goldens;
use nsc_runtime::{json_report, measure_batches, BatchRunner, BenchRecord, CompiledCache};
use std::path::{Path, PathBuf};

const BATCH_SIZES: [usize; 3] = [1, 8, 64];

/// Minimum wall-clock repetitions per cell (median kept; the runtime
/// adds repetitions up to its sampling-time floor).
const REPS: u32 = 5;

fn repo_root() -> PathBuf {
    // crates/nsc-bench -> crates -> repo root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repository root")
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut out_path = repo_root().join("BENCH_batch.json");
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--out" => out_path = PathBuf::from(args.next().expect("--out expects a path")),
            other => panic!("unknown option `{other}` (usage: bench_report [--out <path>])"),
        }
    }

    let cache = CompiledCache::new();
    let mut records: Vec<BenchRecord> = Vec::new();
    let examples = goldens();
    for (stem, pure, dom, input) in &examples {
        for backend in [Backend::Seq, Backend::Par] {
            let runner = BatchRunner::from_cache(&cache, pure, dom, OptLevel::O1, backend)
                .unwrap_or_else(|e| panic!("compiling {stem}: {e}"));
            records.extend(measure_batches(stem, &runner, input, &BATCH_SIZES, REPS));
        }
    }

    // Write the report *before* gating: a failed gate must still leave
    // the full measurement record behind (CI uploads it `if: always()`),
    // or the regression that tripped the gate cannot be diagnosed.
    std::fs::write(&out_path, json_report(&records))
        .unwrap_or_else(|e| panic!("writing {}: {e}", out_path.display()));
    println!(
        "wrote {} records ({} examples x 2 backends x {} batch sizes x 3 modes) to {}",
        records.len(),
        examples.len(),
        BATCH_SIZES.len(),
        out_path.display()
    );

    // The perf gate: at B >= 8, batching reaches parity somewhere.
    let best = records
        .iter()
        .filter(|r| r.batch >= 8 && r.mode != "sequential")
        .max_by(|a, b| a.speedup_vs_sequential.total_cmp(&b.speedup_vs_sequential))
        .expect("records exist");
    println!(
        "best batch speedup at B>=8: {:.2}x ({} {} B={} {})",
        best.speedup_vs_sequential, best.example, best.backend, best.batch, best.mode
    );
    assert!(
        best.speedup_vs_sequential >= 1.0,
        "no example reached parity with B sequential runs at B>=8"
    );
}
