//! The batch runtime's core contract, property-tested: `run_batch` —
//! in **both** pack and lanes modes — is bit-identical to a loop of single runs, in per-request *outputs* and
//! per-request *fault/divergence classification*.
//!
//! Coverage:
//!
//! * every runnable stdlib function (projections, broadcast, selections,
//!   filter, indexing, list accessors, numeric reductions, routing),
//!   driven with word-stream randomized inputs that mix valid shapes
//!   with `Ω`-triggering ones (empty sequences, out-of-range indices,
//!   inconsistent routing counts);
//! * random straight-line BVRAM programs from `bvram::fuzz` through the
//!   multi-lane entry points (pack is source-level — the Map Lemma — so
//!   raw programs batch via lanes; see `nsc_runtime::batch` docs);
//! * a batch whose packed registers are far longer than any one
//!   request's.
//!
//! The suite (18 compiled functions, each with its `map(f)` pack kernel)
//! is compiled once per
//! test thread through a `CompiledCache` and reused across proptest
//! cases — which is also the runtime's intended usage pattern.  The
//! compiler recurses with program depth, so the stdlib sweep runs on a
//! dedicated big-stack worker thread exactly like the `nsc` CLI driver.

use nsc_core::ast as a;
use nsc_core::stdlib;
use nsc_core::types::Type;
use nsc_core::value::Value;
use nsc_runtime::{BatchMode, BatchRunner, CompiledCache};
use proptest::prelude::*;
use std::cell::OnceCell;

/// Runs `f` on a thread with enough stack for the deepest stdlib
/// compilations (`map(combine_flags)` and friends), mirroring
/// `src/bin/nsc.rs`.
fn on_big_stack(f: fn()) {
    std::thread::Builder::new()
        .name("batch-equiv-worker".into())
        .stack_size(512 * 1024 * 1024)
        .spawn(f)
        .expect("spawn worker")
        .join()
        .expect("worker panicked");
}

// --------------------------------------------------------------------------
// Word-stream randomization (the `tests/properties.rs` idiom): proptest
// supplies a word vector, a deterministic decoder turns it into inputs.
// --------------------------------------------------------------------------

struct Words<'a> {
    ws: &'a [u64],
    i: usize,
}

impl Words<'_> {
    fn new(ws: &[u64]) -> Words<'_> {
        Words { ws, i: 0 }
    }

    fn next(&mut self) -> u64 {
        let w = self.ws[self.i % self.ws.len()];
        self.i += 1;
        w.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(self.i as u64))
    }

    fn pick(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

fn nat_vec(w: &mut Words, max_len: u64, max: u64) -> Vec<u64> {
    let n = w.pick(max_len + 1);
    (0..n).map(|_| w.pick(max)).collect()
}

fn nat_seq(w: &mut Words, max_len: u64, max: u64) -> Value {
    Value::nat_seq(nat_vec(w, max_len, max))
}

// --------------------------------------------------------------------------
// The stdlib suite: every runnable stdlib function with a domain and a
// generator mixing valid and fault-triggering inputs.
// --------------------------------------------------------------------------

type Gen = Box<dyn Fn(&mut Words) -> Value>;

struct Subject {
    name: &'static str,
    runner: BatchRunner,
    gen: Gen,
}

fn subject(
    cache: &CompiledCache,
    name: &'static str,
    f: nsc_core::Func,
    dom: Type,
    gen: Gen,
) -> Subject {
    let runner = BatchRunner::from_cache(cache, &f, &dom, nsc_compile::OptLevel::O1)
        .unwrap_or_else(|e| panic!("compiling {name}: {e}"));
    Subject { name, runner, gen }
}

fn pair_seq(w: &mut Words) -> Value {
    let n = w.pick(7);
    Value::seq(
        (0..n)
            .map(|_| Value::pair(Value::nat(w.pick(50)), Value::nat(w.pick(50))))
            .collect(),
    )
}

fn sum_elem_seq(w: &mut Words) -> Value {
    let n = w.pick(7);
    Value::seq(
        (0..n)
            .map(|_| {
                if w.pick(2) == 0 {
                    Value::inl(Value::nat(w.pick(50)))
                } else {
                    Value::inr(Value::nat(w.pick(50)))
                }
            })
            .collect(),
    )
}

/// Ascending, mostly-valid index sequence into a length-`n` sequence
/// (deliberately out of range once in a while).
fn indices(w: &mut Words, n: u64) -> Vec<u64> {
    let k = w.pick(n + 2);
    let mut out: Vec<u64> = (0..k).map(|_| w.pick(n.max(1) + 1)).collect();
    out.sort_unstable();
    out.dedup();
    out
}

fn suite(cache: &CompiledCache) -> Vec<Subject> {
    let nn = Type::prod(Type::Nat, Type::Nat);
    let seq_n = Type::seq(Type::Nat);
    let gt0 = a::lam("p0", a::lt(a::nat(0), a::var("p0")));
    vec![
        subject(
            cache,
            "pi1",
            stdlib::pi1(),
            Type::seq(nn.clone()),
            Box::new(pair_seq),
        ),
        subject(
            cache,
            "pi2",
            stdlib::pi2(),
            Type::seq(nn.clone()),
            Box::new(pair_seq),
        ),
        subject(
            cache,
            "broadcast",
            stdlib::broadcast(),
            Type::prod(Type::Nat, seq_n.clone()),
            Box::new(|w| Value::pair(Value::nat(w.pick(90)), nat_seq(w, 6, 50))),
        ),
        subject(
            cache,
            "sigma1",
            stdlib::sigma1(&Type::Nat),
            Type::seq(Type::sum(Type::Nat, Type::Nat)),
            Box::new(sum_elem_seq),
        ),
        subject(
            cache,
            "sigma2",
            stdlib::sigma2(&Type::Nat),
            Type::seq(Type::sum(Type::Nat, Type::Nat)),
            Box::new(sum_elem_seq),
        ),
        subject(
            cache,
            "filter(>0)",
            stdlib::filter(gt0, &Type::Nat),
            seq_n.clone(),
            Box::new(|w| nat_seq(w, 8, 5)),
        ),
        subject(
            cache,
            "index",
            a::lam(
                "p",
                stdlib::index(a::fst(a::var("p")), a::snd(a::var("p")), &Type::Nat),
            ),
            Type::prod(seq_n.clone(), seq_n.clone()),
            Box::new(|w| {
                let c = nat_vec(w, 6, 90);
                let i = indices(w, c.len() as u64);
                Value::pair(Value::nat_seq(c), Value::nat_seq(i))
            }),
        ),
        subject(
            cache,
            "index_split",
            a::lam(
                "p",
                stdlib::index_split(a::fst(a::var("p")), a::snd(a::var("p"))),
            ),
            Type::prod(seq_n.clone(), seq_n.clone()),
            Box::new(|w| {
                let c = nat_vec(w, 6, 90);
                let i = indices(w, c.len() as u64);
                Value::pair(Value::nat_seq(c), Value::nat_seq(i))
            }),
        ),
        subject(
            cache,
            "nth",
            a::lam(
                "p",
                stdlib::nth(a::fst(a::var("p")), a::snd(a::var("p")), &Type::Nat),
            ),
            Type::prod(seq_n.clone(), Type::Nat),
            Box::new(|w| {
                let xs = nat_vec(w, 6, 90);
                // In range mostly; one past the end sometimes (Ω).
                let i = w.pick(xs.len() as u64 + 2);
                Value::pair(Value::nat_seq(xs), Value::nat(i))
            }),
        ),
        subject(
            cache,
            "take",
            a::lam(
                "p",
                stdlib::take(a::fst(a::var("p")), a::snd(a::var("p")), &Type::Nat),
            ),
            Type::prod(seq_n.clone(), Type::Nat),
            Box::new(|w| {
                let xs = nat_vec(w, 6, 90);
                let m = w.pick(xs.len() as u64 + 2);
                Value::pair(Value::nat_seq(xs), Value::nat(m))
            }),
        ),
        subject(
            cache,
            "drop",
            a::lam(
                "p",
                stdlib::drop(a::fst(a::var("p")), a::snd(a::var("p")), &Type::Nat),
            ),
            Type::prod(seq_n.clone(), Type::Nat),
            Box::new(|w| {
                let xs = nat_vec(w, 6, 90);
                let m = w.pick(xs.len() as u64 + 2);
                Value::pair(Value::nat_seq(xs), Value::nat(m))
            }),
        ),
        subject(
            cache,
            "first",
            a::lam("x", stdlib::first(a::var("x"), &Type::Nat)),
            seq_n.clone(),
            Box::new(|w| nat_seq(w, 4, 90)), // empty => Ω
        ),
        subject(
            cache,
            "last",
            a::lam("x", stdlib::last(a::var("x"), &Type::Nat)),
            seq_n.clone(),
            Box::new(|w| nat_seq(w, 4, 90)),
        ),
        subject(
            cache,
            "tail",
            a::lam("x", stdlib::tail(a::var("x"), &Type::Nat)),
            seq_n.clone(),
            Box::new(|w| nat_seq(w, 4, 90)),
        ),
        subject(
            cache,
            "remove_last",
            a::lam("x", stdlib::remove_last(a::var("x"), &Type::Nat)),
            seq_n.clone(),
            Box::new(|w| nat_seq(w, 4, 90)),
        ),
        subject(
            cache,
            "isqrt_pow2",
            a::lam("x", stdlib::isqrt_pow2(a::var("x"))),
            Type::Nat,
            Box::new(|w| Value::nat(w.pick(1 << 12))),
        ),
        // The reductions are `while` loops whose fused pack kernels do
        // heavy segmented staging — keep their inputs tiny so the sweep
        // exercises semantics, not the debug-build interpreter's patience.
        subject(
            cache,
            "sum_seq",
            a::lam("x", stdlib::numeric::sum_seq(a::var("x"))),
            seq_n.clone(),
            Box::new(|w| nat_seq(w, 4, 16)),
        ),
        subject(
            cache,
            "maximum",
            a::lam("x", stdlib::maximum(a::var("x"))),
            seq_n.clone(),
            Box::new(|w| nat_seq(w, 4, 16)),
        ),
        subject(
            cache,
            "prefix_sum",
            a::lam("x", stdlib::prefix_sum(a::var("x"))),
            seq_n.clone(),
            Box::new(|w| nat_seq(w, 4, 16)),
        ),
        subject(
            cache,
            "bm_route",
            a::lam(
                "p",
                stdlib::bm_route(
                    a::fst(a::fst(a::var("p"))),
                    a::snd(a::fst(a::var("p"))),
                    a::snd(a::var("p")),
                ),
            ),
            Type::prod(Type::prod(seq_n.clone(), seq_n.clone()), seq_n.clone()),
            Box::new(|w| {
                let x = nat_vec(w, 4, 90);
                let d: Vec<u64> = x.iter().map(|_| w.pick(3)).collect();
                let mut total: u64 = d.iter().sum();
                if w.pick(5) == 0 {
                    total += 1; // break Σd = |u| sometimes (error path)
                }
                let u: Vec<u64> = (0..total).collect();
                Value::pair(
                    Value::pair(Value::nat_seq(u), Value::nat_seq(d)),
                    Value::nat_seq(x),
                )
            }),
        ),
        subject(
            cache,
            "m_route",
            a::lam(
                "p",
                stdlib::m_route(a::fst(a::var("p")), a::snd(a::var("p"))),
            ),
            Type::prod(seq_n.clone(), seq_n.clone()),
            Box::new(|w| {
                let x = nat_vec(w, 3, 16);
                let d: Vec<u64> = x.iter().map(|_| w.pick(3)).collect();
                Value::pair(Value::nat_seq(d), Value::nat_seq(x))
            }),
        ),
        subject(
            cache,
            "combine_flags",
            a::lam(
                "p",
                stdlib::combine_flags(
                    a::fst(a::var("p")),
                    a::fst(a::snd(a::var("p"))),
                    a::snd(a::snd(a::var("p"))),
                    &Type::Nat,
                ),
            ),
            Type::prod(
                Type::seq(Type::bool_()),
                Type::prod(seq_n.clone(), seq_n.clone()),
            ),
            Box::new(|w| {
                let flags: Vec<bool> = (0..w.pick(5)).map(|_| w.pick(2) == 1).collect();
                let mut t = flags.iter().filter(|b| **b).count() as u64;
                let mut f = flags.len() as u64 - t;
                if w.pick(5) == 0 {
                    t += 1; // wrong payload length sometimes (error path)
                }
                if w.pick(5) == 0 {
                    f += 1;
                }
                Value::pair(
                    Value::seq(flags.iter().map(|b| Value::bool_(*b)).collect()),
                    Value::pair(
                        Value::nat_seq((0..t).map(|i| i * 3)),
                        Value::nat_seq((0..f).map(|i| 100 + i)),
                    ),
                )
            }),
        ),
    ]
}

thread_local! {
    static SUITE: OnceCell<(CompiledCache, Vec<Subject>)> = const { OnceCell::new() };
}

fn with_suite<R>(f: impl FnOnce(&[Subject]) -> R) -> R {
    SUITE.with(|cell| {
        let (_, subjects) = cell.get_or_init(|| {
            let cache = CompiledCache::new();
            let subjects = suite(&cache);
            (cache, subjects)
        });
        f(subjects)
    })
}

/// The per-subject equivalence check: for one batch of inputs, both
/// modes must reproduce the single-run loop exactly.
fn check_batch(s: &Subject, inputs: &[Value]) {
    let singles: Vec<_> = inputs
        .iter()
        .map(|v| s.runner.run_single(v).map(|p| p.0))
        .collect();
    for mode in [BatchMode::Pack, BatchMode::Lanes] {
        let out = s.runner.run_batch_mode(inputs, mode);
        assert_eq!(
            out.results, singles,
            "{}/{:?}: batch diverges from single runs",
            s.name, mode
        );
    }
    // `run_batch` dispatches to the entry's static mode — both candidate
    // disciplines are verified above, so there is no third execution to
    // check.
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Every stdlib function, random batches (size 0..7) of random
    /// valid-and-faulting inputs, both modes.  No `#[test]`
    /// attribute: the generated fn is driven by the big-stack wrapper
    /// below (the suite's compilations out-recurse the default stack).
    fn stdlib_batches_inner(
        words in proptest::collection::vec(0u64..u64::MAX, 8..40),
    ) {
        with_suite(|subjects| {
            let mut w = Words::new(&words);
            for s in subjects {
                let b = w.pick(7) as usize;
                let inputs: Vec<Value> = (0..b).map(|_| (s.gen)(&mut w)).collect();
                check_batch(s, &inputs);
            }
        });
    }
}

#[test]
fn stdlib_batches_match_single_run_loops() {
    on_big_stack(stdlib_batches_inner);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Random straight-line BVRAM programs: the multi-lane entry points
    /// (the raw-program face of lanes mode) against a loop of single
    /// runs — outputs, stats, and per-lane faults.
    #[test]
    fn fuzz_program_lanes_match_single_run_loops(
        words in proptest::collection::vec(0u64..u64::MAX, 1..30),
        lens in proptest::collection::vec(0usize..12, 1..10),
    ) {
        use bvram::fuzz::{decode_program, FUZZ_REGS, FUZZ_INPUTS};
        let mut w = Words::new(&words);
        let lanes: Vec<Vec<Vec<u64>>> = lens
            .iter()
            .map(|len| {
                let mut lane = vec![(0..*len as u64).map(|_| w.pick(50)).collect::<Vec<u64>>()];
                for _ in 1..FUZZ_INPUTS {
                    lane.push((0..w.pick(8)).map(|_| w.pick(50)).collect());
                }
                lane
            })
            .collect();
        // One program, same input arity for every lane (the serving shape).
        let shape = [lanes[0][0].len(), lanes[0][1].len(), lanes[0][2].len()];
        let prog = decode_program(&words, shape, FUZZ_REGS);
        let singles: Vec<_> = lanes
            .iter()
            .map(|l| bvram::run_program(&prog, l))
            .collect();
        let seq = bvram::run_lanes_seq(&prog, lanes.clone());
        let ray = bvram::run_lanes_rayon(&prog, lanes);
        for (i, want) in singles.iter().enumerate() {
            for (which, got) in [("seq", &seq[i]), ("rayon", &ray[i])] {
                match (want, got) {
                    (Ok(a), Ok(b)) => {
                        prop_assert_eq!(&a.outputs, &b.outputs, "lane {} outputs ({})", i, which);
                        prop_assert_eq!(a.stats, b.stats, "lane {} stats ({})", i, which);
                    }
                    (Err(a), Err(b)) => prop_assert_eq!(a, b, "lane {} fault ({})", i, which),
                    (a, b) => prop_assert!(false, "lane {} ({}): {:?} vs {:?}", i, which, a, b),
                }
            }
        }
    }
}

/// A wide batch: 18 requests of 257 elements pack into registers of
/// 4,626, far longer than any one request's, and both modes still agree
/// with the single runs.
#[test]
fn wide_packed_batches_match_single_runs() {
    let cache = CompiledCache::new();
    let f = nsc_runtime::workloads::map_square_plus_one();
    let dom = Type::seq(Type::Nat);
    let inputs: Vec<Value> = (0..18u64)
        .map(|i| Value::nat_seq((0..257).map(move |j| (i * 31 + j) % 97)))
        .collect();
    let runner = BatchRunner::from_cache(&cache, &f, &dom, nsc_compile::OptLevel::O1).unwrap();
    let singles: Vec<_> = inputs
        .iter()
        .map(|v| runner.run_single(v).map(|p| p.0))
        .collect();
    for mode in [BatchMode::Pack, BatchMode::Lanes] {
        let out = runner.run_batch_mode(&inputs, mode);
        assert_eq!(out.results, singles, "{mode:?}");
    }
}
