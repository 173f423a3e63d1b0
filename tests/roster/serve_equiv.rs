//! Server-routed requests are bit-identical to direct single runs, for
//! every stdlib function (from `crates/nsc-serve/tests/serve_equiv.rs`).
//!
//! Each roster function is registered with one [`Server`] and served
//! through the full path — value literal in, the shard batcher,
//! `run_batch`, pretty-printed value out — while the oracle runs the
//! same input through [`BatchRunner::run_single`] (exactly what `nsc run`
//! executes per request).  Outputs must match as strings and errors must
//! carry the same `Ω`-vs-machine-fault classification, over randomized
//! batches that mix valid shapes with fault-triggering ones.  The server
//! and the oracle read the shared cache ([`Server::with_cache`]), so
//! nothing here compiles.

use super::common::{on_big_stack, roster, Subject, Words};
use super::{cache, entry};
use nsc::compile::OptLevel;
use nsc::core::error::EvalError;
use nsc::core::value::Value;
use nsc::core::Cost;
use nsc::runtime::BatchRunner;
use nsc::serve::{Reply, ServeConfig, ServeError, Server};
use proptest::prelude::*;
use std::cell::OnceCell;
use std::sync::{mpsc, Arc};
use std::time::Duration;

struct Suite {
    server: Arc<Server>,
    /// Each roster function with its oracle runner.
    oracles: Vec<(&'static Subject, BatchRunner)>,
}

thread_local! {
    static SUITE: OnceCell<Suite> = const { OnceCell::new() };
}

fn with_suite<R>(f: impl FnOnce(&Suite) -> R) -> R {
    SUITE.with(|cell| {
        let suite = cell.get_or_init(|| {
            let mut server = Server::with_cache(
                ServeConfig {
                    max_batch: 8,
                    queue_cap: 4096,
                    ..ServeConfig::default()
                },
                Arc::clone(cache()),
            );
            let mut oracles = Vec::new();
            for s in roster() {
                server.register(s.name, &s.f, &s.dom);
                let runner = BatchRunner::of(entry(s.name, &s.f, &s.dom, OptLevel::O1));
                oracles.push((s, runner));
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
fn expect_of(oracle: Result<(Value, Cost), EvalError>) -> Result<String, &'static str> {
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
            for (s, runner) in &suite.oracles {
                let name = s.name;
                let b = w.pick(5) as usize;
                let inputs: Vec<Value> = (0..b).map(|_| (s.gen)(&mut w)).collect();
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
