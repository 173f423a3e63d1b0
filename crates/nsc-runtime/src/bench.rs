//! Wall-clock measurement of the batching disciplines (the `nsc bench`
//! side of the runtime).
//!
//! [`measure_batches`] times one example at several batch sizes under
//! every discipline — a loop of `B` single runs (the `"sequential"`
//! baseline), [`BatchMode::Pack`] and [`BatchMode::Lanes`] — *verifying
//! bit-identical per-request results before trusting any number*, and
//! returns [`BenchRecord`]s for `nsc bench` to tabulate.
//!
//! `wall_ns` is the *median* over the measured repetitions — robust
//! against scheduler noise in both directions, unlike a minimum, whose
//! lower-tail bias destabilizes speedup ratios once the sampling-time
//! floor drives repetition counts into the thousands.  `t_prime`/`w_prime`
//! are the *exact* machine costs of the measured discipline (summed over
//! the loop for `"sequential"`, the aggregate [`crate::BatchOutcome`] cost
//! otherwise).  `speedup_vs_sequential` is
//! `wall(sequential at the same B) / wall(mode)` — the `"sequential"`
//! rows carry `1.0` by construction.
//!
//! This is an operator's in-process tool ("which discipline, and why");
//! the repository's wall-clock numbers of record are end to end, from
//! `bench/` (see `bench/README.md`).

use crate::batch::{BatchMode, BatchRunner};
use nsc_core::cost::Cost;
use nsc_core::value::Value;
use std::time::Instant;

/// One measured (example, backend, batch size, mode) cell.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Example name (`.nsc` file stem or workload label).
    pub example: String,
    /// Backend name (`seq`/`par`).
    pub backend: String,
    /// Batch size `B`.
    pub batch: usize,
    /// Discipline: `sequential`, `pack`, or `lanes`.
    pub mode: String,
    /// Median wall-clock over the measured repetitions, in nanoseconds.
    pub wall_ns: u128,
    /// Exact machine `T'` of the measured discipline.
    pub t_prime: u64,
    /// Exact machine `W'` of the measured discipline.
    pub w_prime: u64,
    /// `wall(sequential) / wall(this mode)` at the same batch size.
    pub speedup_vs_sequential: f64,
}

/// Floor on *total* sampling time per measured discipline at one batch
/// size.  A handful of µs-scale repetitions is pure scheduler noise
/// (observed: the same cell's speedup ratio swinging 0.9x–1.7x between
/// runs); re-sampling until this much wall time has accumulated gives
/// small cells hundreds of samples, while ms-scale cells already exceed
/// the floor within their normal repetitions.
const MIN_SAMPLE_NANOS: u128 = 50_000_000;

/// Hard cap on sampling rounds per batch size (a backstop so a
/// pathologically cheap workload cannot loop unboundedly toward the
/// time floor).
const MAX_ROUNDS: u32 = 3_000;

/// Median of a non-empty sample set (upper median for even counts).
fn median(walls: &mut [u128]) -> u128 {
    walls.sort_unstable();
    walls[walls.len() / 2]
}

/// Measures `example` on `runner` at each batch size: the sequential
/// baseline plus both batch modes.  Batches replicate `input` `B`
/// times.
///
/// The three disciplines are sampled **interleaved** — each round times
/// one sequential loop, one pack run, and one lanes run back-to-back —
/// for at least `reps` rounds and then until every discipline has
/// accumulated the 50ms sampling-time floor of wall time.  The kept statistic
/// per discipline is the **median** round.  Both choices keep the
/// speedup *ratios* stable: interleaving makes every discipline's
/// samples span the same wall-clock window (a CPU frequency step or
/// noisy neighbor between two disciplines' windows otherwise skews the
/// ratio — observed as 60% swings under one-discipline-at-a-time
/// sampling), and the median, unlike a best-of-N minimum, does not walk
/// into the distribution's lower tail as the time floor drives sample
/// counts into the hundreds.
///
/// # Panics
///
/// If any batch mode's per-request results are not bit-identical to the
/// loop of single runs — a wrong runtime must never report a speedup.
pub fn measure_batches(
    example: &str,
    runner: &BatchRunner,
    input: &Value,
    batches: &[usize],
    reps: u32,
) -> Vec<BenchRecord> {
    let backend = runner.backend().name().to_string();
    let mut records = Vec::new();
    for &b in batches {
        let inputs: Vec<Value> = std::iter::repeat_n(input.clone(), b).collect();
        let mut seq_cost = Cost::ZERO;
        let expected: Vec<_> = inputs
            .iter()
            .map(|v| {
                runner.run_single(v).map(|(out, c)| {
                    seq_cost += c;
                    out
                })
            })
            .collect();
        // B identical requests: the per-round loop re-runs them for the
        // wall clock only, so the cost sum is over one round's worth.

        const MODES: [BatchMode; 2] = [BatchMode::Pack, BatchMode::Lanes];
        let mut seq_walls: Vec<u128> = Vec::new();
        let mut mode_walls: [Vec<u128>; 2] = [Vec::new(), Vec::new()];
        let mut totals = [0u128; 3];
        let mut outcomes = [None, None];
        let mut rounds = 0u32;
        loop {
            let t = Instant::now();
            for v in &inputs {
                let _ = runner.run_single(v);
            }
            let e = t.elapsed().as_nanos();
            seq_walls.push(e);
            totals[0] += e;
            for (m, mode) in MODES.into_iter().enumerate() {
                let t = Instant::now();
                let outcome = runner.run_batch_mode(&inputs, mode);
                let e = t.elapsed().as_nanos();
                mode_walls[m].push(e);
                totals[m + 1] += e;
                assert_eq!(
                    outcome.results,
                    expected,
                    "{example}/{backend}/B={b}/{}: batch results diverge from single runs",
                    mode.name()
                );
                outcomes[m] = Some(outcome);
            }
            rounds += 1;
            if rounds >= reps.max(1)
                && (totals.iter().all(|&t| t >= MIN_SAMPLE_NANOS) || rounds >= MAX_ROUNDS)
            {
                break;
            }
        }
        let seq_wall = median(&mut seq_walls);
        records.push(BenchRecord {
            example: example.to_string(),
            backend: backend.clone(),
            batch: b,
            mode: "sequential".into(),
            wall_ns: seq_wall,
            t_prime: seq_cost.time,
            w_prime: seq_cost.work,
            speedup_vs_sequential: 1.0,
        });
        for (m, mode) in MODES.into_iter().enumerate() {
            let wall = median(&mut mode_walls[m]);
            let outcome = outcomes[m].take().expect("at least one round ran");
            records.push(BenchRecord {
                example: example.to_string(),
                backend: backend.clone(),
                batch: b,
                mode: mode.name().into(),
                wall_ns: wall,
                t_prime: outcome.cost.time,
                w_prime: outcome.cost.work,
                speedup_vs_sequential: seq_wall as f64 / wall.max(1) as f64,
            });
        }
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CompiledCache;
    use nsc_compile::{Backend, OptLevel};
    use nsc_core::Type;

    #[test]
    fn measurements_cover_every_mode() {
        let cache = CompiledCache::new();
        let runner = BatchRunner::from_cache(
            &cache,
            &crate::workloads::map_square_plus_one(),
            &Type::seq(Type::Nat),
            OptLevel::O1,
            Backend::Seq,
        )
        .unwrap();
        let recs = measure_batches("unit", &runner, &Value::nat_seq(0..8), &[1, 4], 2);
        assert_eq!(recs.len(), 6); // 2 sizes x {sequential, pack, lanes}
        for mode in ["sequential", "pack", "lanes"] {
            assert_eq!(recs.iter().filter(|r| r.mode == mode).count(), 2);
        }
        // Sequential rows are the 1.0 baseline.
        for r in recs.iter().filter(|r| r.mode == "sequential") {
            assert_eq!(r.speedup_vs_sequential, 1.0);
        }
    }
}
