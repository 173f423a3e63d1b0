//! Server-routed requests are bit-identical to direct single runs, for
//! every runnable stdlib function.
//!
//! Each subject is registered with one [`Server`] and served through the
//! full path — value literal in, the shard batcher, `run_batch`,
//! pretty-printed value out — while the oracle runs the same input
//! through [`BatchRunner::run_single`] (exactly what `nsc run` executes
//! per request).  Outputs must match as strings and errors must carry
//! the same `Ω`-vs-machine-fault classification, over randomized batches
//! that mix valid shapes with fault-triggering ones.
//!
//! The server and the oracle share one `CompiledCache`
//! ([`Server::with_cache`]), so each subject compiles once; the sweep
//! runs on a big-stack worker thread like the `nsc` CLI driver because
//! the compiler recurses with program depth.

use nsc_core::ast as a;
use nsc_core::error::EvalError;
use nsc_core::stdlib;
use nsc_core::types::Type;
use nsc_core::value::Value;
use nsc_runtime::{BatchRunner, CompiledCache};
use nsc_serve::{Reply, ServeConfig, ServeError, Server};
use proptest::prelude::*;
use std::cell::OnceCell;
use std::sync::{mpsc, Arc};
use std::time::Duration;

fn on_big_stack(f: fn()) {
    std::thread::Builder::new()
        .name("serve-equiv-worker".into())
        .stack_size(512 * 1024 * 1024)
        .spawn(f)
        .expect("spawn worker")
        .join()
        .expect("worker panicked");
}

// Word-stream randomization, the `tests/properties.rs` idiom.
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

fn indices(w: &mut Words, n: u64) -> Vec<u64> {
    let k = w.pick(n + 2);
    let mut out: Vec<u64> = (0..k).map(|_| w.pick(n.max(1) + 1)).collect();
    out.sort_unstable();
    out.dedup();
    out
}

type Gen = Box<dyn Fn(&mut Words) -> Value>;

/// Every runnable stdlib function with a generator mixing valid and
/// `Ω`/fault-triggering inputs (the `batch_equiv` suite, served).
fn subjects() -> Vec<(&'static str, nsc_core::Func, Type, Gen)> {
    let nn = Type::prod(Type::Nat, Type::Nat);
    let seq_n = Type::seq(Type::Nat);
    let gt0 = a::lam("p0", a::lt(a::nat(0), a::var("p0")));
    let idx_pair_gen = |w: &mut Words| {
        let c = nat_vec(w, 6, 90);
        let i = indices(w, c.len() as u64);
        Value::pair(Value::nat_seq(c), Value::nat_seq(i))
    };
    let seq_nat_gen = |w: &mut Words| {
        let xs = nat_vec(w, 6, 90);
        let m = w.pick(xs.len() as u64 + 2);
        Value::pair(Value::nat_seq(xs), Value::nat(m))
    };
    vec![
        (
            "pi1",
            stdlib::pi1(),
            Type::seq(nn.clone()),
            Box::new(pair_seq),
        ),
        (
            "pi2",
            stdlib::pi2(),
            Type::seq(nn.clone()),
            Box::new(pair_seq),
        ),
        (
            "broadcast",
            stdlib::broadcast(),
            Type::prod(Type::Nat, seq_n.clone()),
            Box::new(|w| Value::pair(Value::nat(w.pick(90)), nat_seq(w, 6, 50))),
        ),
        (
            "sigma1",
            stdlib::sigma1(&Type::Nat),
            Type::seq(Type::sum(Type::Nat, Type::Nat)),
            Box::new(sum_elem_seq),
        ),
        (
            "sigma2",
            stdlib::sigma2(&Type::Nat),
            Type::seq(Type::sum(Type::Nat, Type::Nat)),
            Box::new(sum_elem_seq),
        ),
        (
            "filter_gt0",
            stdlib::filter(gt0, &Type::Nat),
            seq_n.clone(),
            Box::new(|w| nat_seq(w, 8, 5)),
        ),
        (
            "index",
            a::lam(
                "p",
                stdlib::index(a::fst(a::var("p")), a::snd(a::var("p")), &Type::Nat),
            ),
            Type::prod(seq_n.clone(), seq_n.clone()),
            Box::new(idx_pair_gen),
        ),
        (
            "index_split",
            a::lam(
                "p",
                stdlib::index_split(a::fst(a::var("p")), a::snd(a::var("p"))),
            ),
            Type::prod(seq_n.clone(), seq_n.clone()),
            Box::new(idx_pair_gen),
        ),
        (
            "nth",
            a::lam(
                "p",
                stdlib::nth(a::fst(a::var("p")), a::snd(a::var("p")), &Type::Nat),
            ),
            Type::prod(seq_n.clone(), Type::Nat),
            Box::new(|w| {
                let xs = nat_vec(w, 6, 90);
                let i = w.pick(xs.len() as u64 + 2);
                Value::pair(Value::nat_seq(xs), Value::nat(i))
            }),
        ),
        (
            "take",
            a::lam(
                "p",
                stdlib::take(a::fst(a::var("p")), a::snd(a::var("p")), &Type::Nat),
            ),
            Type::prod(seq_n.clone(), Type::Nat),
            Box::new(seq_nat_gen),
        ),
        (
            "drop",
            a::lam(
                "p",
                stdlib::drop(a::fst(a::var("p")), a::snd(a::var("p")), &Type::Nat),
            ),
            Type::prod(seq_n.clone(), Type::Nat),
            Box::new(seq_nat_gen),
        ),
        (
            "first",
            a::lam("x", stdlib::first(a::var("x"), &Type::Nat)),
            seq_n.clone(),
            Box::new(|w| nat_seq(w, 4, 90)),
        ),
        (
            "last",
            a::lam("x", stdlib::last(a::var("x"), &Type::Nat)),
            seq_n.clone(),
            Box::new(|w| nat_seq(w, 4, 90)),
        ),
        (
            "tail",
            a::lam("x", stdlib::tail(a::var("x"), &Type::Nat)),
            seq_n.clone(),
            Box::new(|w| nat_seq(w, 4, 90)),
        ),
        (
            "remove_last",
            a::lam("x", stdlib::remove_last(a::var("x"), &Type::Nat)),
            seq_n.clone(),
            Box::new(|w| nat_seq(w, 4, 90)),
        ),
        (
            "isqrt_pow2",
            a::lam("x", stdlib::isqrt_pow2(a::var("x"))),
            Type::Nat,
            Box::new(|w| Value::nat(w.pick(1 << 12))),
        ),
        (
            "sum_seq",
            a::lam("x", stdlib::numeric::sum_seq(a::var("x"))),
            seq_n.clone(),
            Box::new(|w| nat_seq(w, 4, 16)),
        ),
        (
            "maximum",
            a::lam("x", stdlib::maximum(a::var("x"))),
            seq_n.clone(),
            Box::new(|w| nat_seq(w, 4, 16)),
        ),
        (
            "prefix_sum",
            a::lam("x", stdlib::prefix_sum(a::var("x"))),
            seq_n.clone(),
            Box::new(|w| nat_seq(w, 4, 16)),
        ),
        (
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
        (
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
        (
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

struct Suite {
    server: Arc<Server>,
    /// `(name, oracle runner, generator)` per subject.
    oracles: Vec<(&'static str, BatchRunner, Gen)>,
}

thread_local! {
    static SUITE: OnceCell<Suite> = const { OnceCell::new() };
}

fn with_suite<R>(f: impl FnOnce(&Suite) -> R) -> R {
    SUITE.with(|cell| {
        let suite = cell.get_or_init(|| {
            let cache = Arc::new(CompiledCache::new());
            let mut server = Server::with_cache(
                ServeConfig {
                    max_batch: 8,
                    queue_cap: 4096,
                    ..ServeConfig::default()
                },
                Arc::clone(&cache),
            );
            let mut oracles = Vec::new();
            for (name, f, dom, gen) in subjects() {
                server.register(name, &f, &dom);
                let runner = BatchRunner::from_cache(&cache, &f, &dom, nsc_compile::OptLevel::O1)
                    .unwrap_or_else(|e| panic!("compiling {name}: {e}"));
                oracles.push((name, runner, gen));
            }
            Suite {
                server: Arc::new(server),
                oracles,
            }
        });
        f(suite)
    })
}

/// What the server must answer for one oracle verdict.
fn expect_of(oracle: Result<(Value, nsc_core::Cost), EvalError>) -> Result<String, &'static str> {
    match oracle {
        Ok((v, _)) => Ok(v.to_string()),
        Err(EvalError::Omega) => Err("omega"),
        Err(EvalError::MachineFault(_)) => Err("fault"),
        Err(_) => Err("eval"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// No `#[test]` attribute: driven by the big-stack wrapper below.
    fn served_stdlib_matches_single_runs_inner(
        words in proptest::collection::vec(0u64..u64::MAX, 8..40),
    ) {
        with_suite(|suite| -> Result<(), proptest::test_runner::TestCaseError> {
            let mut w = Words::new(&words);
            for (name, runner, gen) in &suite.oracles {
                let b = w.pick(5) as usize;
                let inputs: Vec<Value> = (0..b).map(|_| gen(&mut w)).collect();
                let (tx, rx) = mpsc::channel::<(usize, Reply)>();
                for (i, v) in inputs.iter().enumerate() {
                    let tx = tx.clone();
                    suite
                        .server
                        .submit(
                            name,
                            v.to_string(),
                            Box::new(move |r| {
                                let _ = tx.send((i, r));
                            }),
                        )
                        .unwrap_or_else(|e| panic!("{name}: admission failed: {e}"));
                }
                drop(tx);
                let mut got: Vec<Option<Result<String, ServeError>>> =
                    (0..b).map(|_| None).collect();
                for _ in 0..b {
                    let (i, r) = rx
                        .recv_timeout(Duration::from_secs(300))
                        .expect("served reply");
                    got[i] = Some(r.result);
                }
                for (i, v) in inputs.iter().enumerate() {
                    let want = expect_of(runner.run_single(v));
                    match (got[i].as_ref().unwrap(), &want) {
                        (Ok(out), Ok(exp)) => prop_assert_eq!(
                            out, exp, "{}: request {} output diverges", name, i
                        ),
                        (Err(e), Err(kind)) => prop_assert_eq!(
                            e.kind(), *kind, "{}: request {} classification", name, i
                        ),
                        (got, want) => prop_assert!(
                            false, "{}: request {}: served {:?} vs single-run {:?}",
                            name, i, got, want
                        ),
                    }
                }
            }
            Ok(())
        })?;
    }
}

#[test]
fn served_stdlib_matches_single_runs() {
    on_big_stack(served_stdlib_matches_single_runs_inner);
}
