//! EXP-WALL: wall-clock behaviour of the BVRAM backends — the paper's
//! "needs to be tested in practice".  Criterion compares the sequential
//! interpreter against the rayon backend across vector sizes; the
//! crossover (where parallelism starts paying) is visible in the report.
//!
//! Machine-reuse policy (shared by all three benches, see
//! `nsc_runtime::workloads`): each machine is constructed **once per
//! benchmark** and reused across `b.iter` iterations — warm register
//! buffers, the serving runtime's steady state.  Nothing here measures
//! cold-start machine construction.

use bvram::Machine;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nsc_runtime::workloads;

fn bench_backends(c: &mut Criterion) {
    let prog = workloads::saxpy_like();
    let mut g = c.benchmark_group("bvram_backends");
    for n in [1usize << 10, 1 << 14, 1 << 18, 1 << 21] {
        let x: Vec<u64> = (0..n as u64).collect();
        let y: Vec<u64> = (0..n as u64).map(|v| v % 97).collect();
        let inputs = vec![x, y];
        g.bench_with_input(BenchmarkId::new("sequential", n), &inputs, |b, inp| {
            let mut m = Machine::new(prog.n_regs);
            b.iter(|| m.run(&prog, inp).unwrap());
        });
        g.bench_with_input(BenchmarkId::new("rayon", n), &inputs, |b, inp| {
            let mut m = Machine::par(prog.n_regs, true);
            b.iter(|| m.run(&prog, inp).unwrap());
        });
    }
    g.finish();
}

criterion_group! {name = benches; config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_millis(600)).warm_up_time(std::time::Duration::from_millis(200)); targets = bench_backends}
criterion_main!(benches);
