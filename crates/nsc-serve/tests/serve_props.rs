//! Server behavior under randomized traffic and adversarial timing:
//!
//! * **No reorder** (the satellite property): within a shard, replies are
//!   delivered in strictly increasing admission-sequence order, for every
//!   combination of flush thresholds, batch shapes, and mixed
//!   valid/`Ω`/malformed inputs — and each reply's payload matches the
//!   source-semantics evaluator's verdict for that request.
//! * **Backpressure**: a full admission queue rejects with `Overloaded`
//!   (deterministically, using the flush hook to hold the batcher), and
//!   every *accepted* request is still answered, in order.
//! * **Dual-threshold flushes**: the size threshold flushes a full batch
//!   without waiting out `max_wait`; the age threshold flushes a partial
//!   batch once the oldest request is old enough.
//! * **TCP front end**: pipelined requests across several shards come
//!   back in request order per connection; `{"cmd": "shutdown"}` drains
//!   gracefully (every queued request answered first).

use nsc_core::ast as a;
use nsc_core::types::Type;
use nsc_core::value::Value;
use nsc_serve::{Reply, ServeConfig, Server};
use proptest::prelude::*;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// `map (λx. x·x + 1)` — and `get` of the whole sequence to manufacture
/// `Ω` on non-singletons.
fn sq1() -> nsc_core::Func {
    a::map(a::lam(
        "x",
        a::add(a::mul(a::var("x"), a::var("x")), a::nat(1)),
    ))
}

fn get_fn() -> nsc_core::Func {
    a::lam("x", a::get(a::var("x")))
}

fn server_with(cfg: ServeConfig) -> Arc<Server> {
    let mut s = Server::new(cfg);
    s.register("sq1", &sq1(), &Type::seq(Type::Nat));
    s.register("get", &get_fn(), &Type::seq(Type::Nat));
    Arc::new(s)
}

/// The source-semantics oracle for one request: what should the server
/// answer for `input` to `fn_name`?
fn oracle(fn_name: &str, input: &Value) -> Result<String, &'static str> {
    let f = match fn_name {
        "sq1" => sq1(),
        "get" => get_fn(),
        _ => unreachable!(),
    };
    match nsc_core::eval::apply_func(&f, input.clone()) {
        Ok((v, _)) => Ok(v.to_string()),
        Err(_) => Err("omega"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The no-reorder property: whatever the thresholds and the traffic,
    /// a shard's replies come back in admission order with the right
    /// payloads.
    #[test]
    fn replies_never_reorder_within_a_shard(
        max_batch in 1usize..6,
        max_wait_ms in 0u64..4,
        words in proptest::collection::vec(0u64..1000, 1..30),
    ) {
        let server = server_with(ServeConfig {
            max_batch,
            max_wait: Duration::from_millis(max_wait_ms),
            queue_cap: 4096,
            ..ServeConfig::default()
        });
        let (tx, rx) = mpsc::channel::<Reply>();
        // One shard ("sq1"), randomized inputs: valid sequences, the
        // occasional literal that does not parse, inputs outside the
        // domain.  All are answered through the same FIFO.
        let mut expected = Vec::new();
        for (i, w) in words.iter().enumerate() {
            let input = match w % 7 {
                0 => "[1, ".to_string(),                   // parse error
                1 => "(1, 2)".to_string(),                 // domain error
                _ => Value::nat_seq((0..w % 5).map(|j| j + i as u64)).to_string(),
            };
            let tx = tx.clone();
            let seq = server
                .submit("sq1", None, input.clone(), Box::new(move |r| {
                    let _ = tx.send(r);
                }))
                .expect("queue_cap is larger than the workload");
            prop_assert_eq!(seq, i as u64, "admission sequence is dense");
            expected.push(input);
        }
        drop(tx);
        server.drain();
        let replies: Vec<Reply> = rx.iter().collect();
        prop_assert_eq!(replies.len(), expected.len(), "every accepted request answered");
        for (i, r) in replies.iter().enumerate() {
            prop_assert_eq!(r.seq, i as u64, "reply order == admission order");
            let input = &expected[i];
            match input.as_str() {
                "[1, " => prop_assert_eq!(r.result.as_ref().unwrap_err().kind(), "parse"),
                "(1, 2)" => prop_assert_eq!(r.result.as_ref().unwrap_err().kind(), "domain"),
                _ => {
                    let v = nsc_core::parse::parse_value(input).unwrap();
                    match (&r.result, oracle("sq1", &v)) {
                        (Ok(out), Ok(want)) => prop_assert_eq!(out, &want),
                        (Err(e), Err(kind)) => prop_assert_eq!(e.kind(), kind),
                        (got, want) => prop_assert!(false, "req {}: {:?} vs oracle {:?}", i, got, want),
                    }
                }
            }
        }
    }

    /// Multi-threaded admission: sequence numbers are raced for, but the
    /// reply stream still follows them monotonically, and the contended
    /// requests form batches.  (`max_wait` is an hour so that only the
    /// size threshold and the drain flush: the batch sizes are then
    /// independent of thread timing.)
    #[test]
    fn concurrent_submitters_still_see_ordered_replies(
        per_thread in 1usize..12,
        max_batch in 1usize..5,
    ) {
        let server = server_with(ServeConfig {
            max_batch,
            max_wait: Duration::from_secs(3600),
            queue_cap: 4096,
            ..ServeConfig::default()
        });
        let (tx, rx) = mpsc::channel::<Reply>();
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let server = Arc::clone(&server);
                let tx = tx.clone();
                scope.spawn(move || {
                    for i in 0..per_thread {
                        let tx = tx.clone();
                        let input = Value::nat_seq(0..(t + i as u64) % 4).to_string();
                        server
                            .submit("sq1", None, input, Box::new(move |r| {
                                let _ = tx.send(r);
                            }))
                            .expect("under capacity");
                    }
                });
            }
        });
        drop(tx);
        server.drain();
        let seqs: Vec<u64> = rx.iter().map(|r| r.seq).collect();
        prop_assert_eq!(seqs.len(), per_thread * 4);
        // The single batcher replies strictly in admission order even
        // though admission itself was contended.
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        prop_assert_eq!(&seqs, &sorted, "monotone reply stream");
        // At least `max_batch` requests were admitted, so some flush was
        // a full batch.
        let mean_batch = server.snapshots()[0].mean_batch;
        prop_assert_eq!(mean_batch > 1.0, max_batch > 1, "mean batch {}", mean_batch);
    }
}

/// Deterministic backpressure: hold the batcher inside a flush, fill the
/// queue to capacity, and watch the next submission bounce.
#[test]
fn full_queue_rejects_with_overloaded_and_accepted_work_completes() {
    let queue_cap = 3;
    // The hook blocks the *first* flush until we release it.
    let (gate_tx, gate_rx) = mpsc::channel::<()>();
    let (started_tx, started_rx) = mpsc::channel::<()>();
    let gate = Mutex::new(Some((gate_rx, started_tx)));
    let server = server_with(ServeConfig {
        max_batch: 1,
        max_wait: Duration::from_millis(0),
        queue_cap,
        on_flush: Some(Arc::new(move |_size| {
            if let Some((rx, started)) = gate.lock().unwrap().take() {
                let _ = started.send(());
                let _ = rx.recv();
            }
        })),
        ..ServeConfig::default()
    });
    let (tx, rx) = mpsc::channel::<Reply>();
    let submit = |i: u64| {
        let tx = tx.clone();
        server.submit(
            "sq1",
            None,
            format!("[{i}]"),
            Box::new(move |r| {
                let _ = tx.send(r);
            }),
        )
    };
    // First request reaches the batcher, which stalls in the hook.
    submit(0).unwrap();
    started_rx.recv().unwrap();
    // The queue is now empty and the batcher is busy: exactly
    // `queue_cap` more requests fit, the next one must bounce.
    for i in 1..=queue_cap as u64 {
        submit(i).unwrap_or_else(|e| panic!("request {i} should be admitted: {e}"));
    }
    let err = submit(99).unwrap_err();
    assert_eq!(err.kind(), "overloaded");
    // Release the batcher; everything accepted completes, in order.
    gate_tx.send(()).unwrap();
    drop(tx);
    server.drain();
    let replies: Vec<Reply> = rx.iter().collect();
    assert_eq!(replies.len(), 1 + queue_cap);
    for (i, r) in replies.iter().enumerate() {
        assert_eq!(r.seq, i as u64);
        assert_eq!(
            r.result.as_deref().unwrap(),
            format!("[{}]", (i as u64) * (i as u64) + 1)
        );
    }
    let snap = &server.snapshots()[0];
    assert_eq!(snap.rejected, 1);
    assert_eq!(snap.completed, 1 + queue_cap as u64);
}

/// The size threshold: a full batch flushes immediately, long before a
/// (deliberately huge) max_wait could.
#[test]
fn size_threshold_flushes_without_waiting() {
    let sizes: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
    let sizes_hook = Arc::clone(&sizes);
    let server = server_with(ServeConfig {
        max_batch: 4,
        max_wait: Duration::from_secs(3600),
        queue_cap: 64,
        on_flush: Some(Arc::new(move |s| sizes_hook.lock().unwrap().push(s))),
        ..ServeConfig::default()
    });
    let (tx, rx) = mpsc::channel::<Reply>();
    for i in 0..4u64 {
        let tx = tx.clone();
        server
            .submit(
                "sq1",
                None,
                format!("[{i}]"),
                Box::new(move |r| {
                    let _ = tx.send(r);
                }),
            )
            .unwrap();
    }
    // All four replies arrive without waiting out the hour.
    for _ in 0..4 {
        rx.recv_timeout(Duration::from_secs(60))
            .expect("size-threshold flush");
    }
    server.drain();
    assert!(
        sizes.lock().unwrap().contains(&4),
        "a full batch of 4 flushed: {:?}",
        sizes.lock().unwrap()
    );
}

/// The batching discipline is the shard's static property: `classify`
/// compiles to a program with control flow, so even a two-request flush
/// of 4-element inputs — where the fused kernel would execute ~40x the
/// instructions — runs as lanes.
#[test]
fn small_branchy_batches_run_as_lanes() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/classify.nsc");
    let module = nsc_core::parse::parse_module(&std::fs::read_to_string(path).unwrap()).unwrap();
    let mut server = Server::new(ServeConfig {
        max_batch: 2,
        max_wait: Duration::from_secs(3600),
        ..ServeConfig::default()
    });
    assert!(server.register_module(&module).is_empty());
    let (tx, rx) = mpsc::channel::<Reply>();
    for input in ["[0, 3, 0, 7]", "[5, 0, 0, 1]"] {
        let tx = tx.clone();
        server
            .submit(
                "main",
                None,
                input.to_string(),
                Box::new(move |r| {
                    let _ = tx.send(r);
                }),
            )
            .unwrap();
    }
    for _ in 0..2 {
        let reply = rx.recv_timeout(Duration::from_secs(120)).expect("flush");
        assert!(reply.result.is_ok(), "{:?}", reply.result);
    }
    server.drain();
    let snap = &server.snapshots()[0];
    assert_eq!((snap.batches, snap.max_batch), (1, 2), "one flush of two");
    assert_eq!((snap.lanes_batches, snap.pack_batches), (1, 0));
}

/// The age threshold: a partial batch flushes once the oldest queued
/// request is `max_wait` old, gathering everything that arrived
/// meanwhile.
#[test]
fn age_threshold_flushes_partial_batches() {
    let sizes: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
    let sizes_hook = Arc::clone(&sizes);
    let server = server_with(ServeConfig {
        max_batch: 1000,
        max_wait: Duration::from_millis(150),
        queue_cap: 64,
        on_flush: Some(Arc::new(move |s| sizes_hook.lock().unwrap().push(s))),
        ..ServeConfig::default()
    });
    let (tx, rx) = mpsc::channel::<Reply>();
    for i in 0..3u64 {
        let tx = tx.clone();
        server
            .submit(
                "sq1",
                None,
                format!("[{i}]"),
                Box::new(move |r| {
                    let _ = tx.send(r);
                }),
            )
            .unwrap();
    }
    for _ in 0..3 {
        rx.recv_timeout(Duration::from_secs(60))
            .expect("age-threshold flush");
    }
    server.drain();
    let sizes = sizes.lock().unwrap();
    // All three were submitted back-to-back, far faster than 40ms: they
    // flush together (possibly split across two batches if the batcher
    // thread won a race, but never three degenerate singletons).
    assert!(
        sizes.iter().sum::<usize>() == 3 && sizes.len() <= 2,
        "age-threshold gathered the trickle: {sizes:?}"
    );
}

/// The TCP front: pipelined requests across two shards answer in
/// request order per connection, and shutdown drains gracefully.
#[test]
fn tcp_front_orders_responses_and_drains_on_shutdown() {
    use std::io::{BufRead, BufReader, Write};

    let server = {
        let mut s = Server::new(ServeConfig {
            max_wait: Duration::from_millis(1),
            ..ServeConfig::default()
        });
        s.register("sq1", &sq1(), &Type::seq(Type::Nat));
        s.register("get", &get_fn(), &Type::seq(Type::Nat));
        Arc::new(s)
    };
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let addr = listener.local_addr().unwrap();
    let server2 = Arc::clone(&server);
    let serving =
        std::thread::spawn(move || nsc_serve::front::serve_tcp(&server2, listener).unwrap());

    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    // Pipeline across both shards before reading anything; `get` on a
    // 2-element sequence is Ω, classified as such over the wire.
    let lines = [
        r#"{"fn": "sq1", "input": "[1, 2, 3]", "id": 0}"#,
        r#"{"fn": "get", "input": "[7]", "id": 1}"#,
        r#"{"fn": "get", "input": "[7, 8]", "id": 2}"#,
        r#"{"fn": "sq1", "input": "[0]", "id": 3}"#,
    ];
    for l in lines {
        writeln!(stream, "{l}").unwrap();
    }
    stream.flush().unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut got = Vec::new();
    for _ in 0..lines.len() {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        got.push(line.trim().to_string());
    }
    assert_eq!(got[0], r#"{"id": 0, "output": "[2, 5, 10]"}"#);
    assert_eq!(got[1], r#"{"id": 1, "output": "7"}"#);
    assert!(
        got[2].contains(r#""kind": "omega""#) && got[2].contains(r#""id": 2"#),
        "{}",
        got[2]
    );
    assert_eq!(got[3], r#"{"id": 3, "output": "[1]"}"#);

    // Queue one more request and the shutdown on the same connection:
    // the request is answered before the server stops.
    writeln!(stream, r#"{{"fn": "sq1", "input": "[5]", "id": 4}}"#).unwrap();
    writeln!(stream, r#"{{"cmd": "shutdown"}}"#).unwrap();
    stream.flush().unwrap();
    let mut tail = String::new();
    reader.read_line(&mut tail).unwrap();
    assert_eq!(tail.trim(), r#"{"id": 4, "output": "[26]"}"#);
    tail.clear();
    reader.read_line(&mut tail).unwrap();
    assert_eq!(tail.trim(), r#"{"ok": "draining"}"#);
    drop(reader);
    drop(stream);
    serving.join().expect("accept loop exits after shutdown");
    assert_eq!(
        server
            .submit("sq1", None, "[1]".into(), Box::new(|_| {}))
            .unwrap_err()
            .kind(),
        "shutdown"
    );
}
