//! Server behavior under randomized traffic and adversarial timing:
//!
//! * **No reorder** (the satellite property): within a shard, replies are
//!   delivered in strictly increasing admission-sequence order, for every
//!   `max_batch`, batch shape, and mix of valid/`Ω`/malformed inputs — and
//!   each reply's payload matches the source-semantics evaluator's verdict
//!   for that request.
//! * **Backpressure**: a full admission queue rejects with `Overloaded`
//!   (deterministically, using the flush hook to hold the batcher), and
//!   every *accepted* request is still answered, in order.
//! * **The flush rule**: a shard batches what is queued — a lone request
//!   flushes alone with no further event, and `k` requests queued behind a
//!   held batcher flush as `⌈k / max_batch⌉` batches.  No test here reads
//!   a clock: batch sizes are made deterministic by holding the batcher
//!   inside its first flush ([`first_flush_gate`]), and the only timeouts
//!   are hang guards.
//! * **TCP front end**: pipelined requests across several shards come
//!   back in request order per connection; `{"cmd": "shutdown"}` drains
//!   gracefully (every queued request answered first); a request line
//!   nested far past the JSON parser's depth bound is a `bad-request`,
//!   not the end of the process; a batch that panics is answered
//!   `internal`, in order, and the connection keeps being served.

use nsc_core::ast as a;
use nsc_core::types::Type;
use nsc_core::value::Value;
use nsc_serve::server::FlushHook;
use nsc_serve::{Reply, ServeConfig, ServeError, Server};
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

/// Submits one request whose reply lands on `tx`.
fn submit(
    server: &Server,
    fn_name: &str,
    input: String,
    tx: &mpsc::Sender<Reply>,
) -> Result<u64, ServeError> {
    let tx = tx.clone();
    server.submit(
        fn_name,
        input,
        Box::new(move |r| {
            let _ = tx.send(r);
        }),
    )
}

/// The batcher of a shard, held inside its first flush.
///
/// A shard batches whatever is queued when its batcher comes round, so a
/// test that wants to know the batch sizes must know the queue: submit
/// one request (it flushes alone — nothing else exists yet), wait for
/// [`Held::wait`], queue what the test is about, then [`Held::release`].
/// Every flush after the first finds exactly that backlog.
struct Held {
    started: mpsc::Receiver<()>,
    gate: mpsc::Sender<()>,
    sizes: Arc<Mutex<Vec<usize>>>,
}

impl Held {
    /// Blocks until the batcher is inside its first flush.
    fn wait(&self) {
        // The timeout is a hang guard, as everywhere in this file.
        self.started
            .recv_timeout(Duration::from_secs(120))
            .expect("the first flush starts");
    }

    fn release(&self) {
        self.gate.send(()).expect("the batcher is waiting");
    }

    /// The size of every flush so far, in order.
    fn sizes(&self) -> Vec<usize> {
        self.sizes.lock().unwrap().clone()
    }
}

/// An `on_flush` hook that records every flush's size and blocks the
/// first flush until released, with the handle that controls it.
fn first_flush_gate() -> (FlushHook, Held) {
    let (gate_tx, gate_rx) = mpsc::channel::<()>();
    let (started_tx, started_rx) = mpsc::channel::<()>();
    let sizes: Arc<Mutex<Vec<usize>>> = Arc::default();
    let first = Mutex::new(Some((gate_rx, started_tx)));
    let hook_sizes = Arc::clone(&sizes);
    let hook: FlushHook = Arc::new(move |size| {
        hook_sizes.lock().unwrap().push(size);
        if let Some((gate, started)) = first.lock().unwrap().take() {
            let _ = started.send(());
            let _ = gate.recv();
        }
    });
    let held = Held {
        started: started_rx,
        gate: gate_tx,
        sizes,
    };
    (hook, held)
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

    /// The no-reorder property: whatever `max_batch` and the traffic, a
    /// shard's replies come back in admission order with the right
    /// payloads.
    #[test]
    fn replies_never_reorder_within_a_shard(
        max_batch in 1usize..6,
        words in proptest::collection::vec(0u64..1000, 1..30),
    ) {
        let server = server_with(ServeConfig {
            max_batch,
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
            let seq = submit(&server, "sq1", input.clone(), &tx)
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
    /// requests form batches.  (The batcher is held until every submitter
    /// is done, so the batch sizes are independent of thread timing.)
    #[test]
    fn concurrent_submitters_still_see_ordered_replies(
        per_thread in 1usize..12,
        max_batch in 1usize..5,
    ) {
        let (hook, held) = first_flush_gate();
        let server = server_with(ServeConfig {
            max_batch,
            queue_cap: 4096,
            on_flush: Some(hook),
        });
        let (tx, rx) = mpsc::channel::<Reply>();
        submit(&server, "sq1", "[]".into(), &tx).unwrap();
        held.wait();
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let server = Arc::clone(&server);
                let tx = tx.clone();
                scope.spawn(move || {
                    for i in 0..per_thread {
                        let input = Value::nat_seq(0..(t + i as u64) % 4).to_string();
                        submit(&server, "sq1", input, &tx).expect("under capacity");
                    }
                });
            }
        });
        held.release();
        drop(tx);
        server.drain();
        let seqs: Vec<u64> = rx.iter().map(|r| r.seq).collect();
        prop_assert_eq!(seqs.len(), 1 + per_thread * 4);
        // The single batcher replies strictly in admission order even
        // though admission itself was contended.
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        prop_assert_eq!(&seqs, &sorted, "monotone reply stream");
        // At least `max_batch` requests were queued behind the held
        // flush, so the next one was a full batch.
        let mean_batch = server.snapshots()[0].mean_batch;
        prop_assert_eq!(mean_batch > 1.0, max_batch > 1, "mean batch {}", mean_batch);
    }

    /// The flush rule, backlog half: `k` requests queued while the batcher
    /// is busy flush as `⌈k / max_batch⌉` batches — full ones, then the
    /// remainder — and are answered in admission order.
    #[test]
    fn a_backlog_flushes_in_batches_of_at_most_max_batch(
        max_batch in 1usize..8,
        k in 0usize..40,
    ) {
        let (hook, held) = first_flush_gate();
        let server = server_with(ServeConfig {
            max_batch,
            queue_cap: 64,
            on_flush: Some(hook),
        });
        let (tx, rx) = mpsc::channel::<Reply>();
        submit(&server, "sq1", "[]".into(), &tx).unwrap();
        held.wait();
        for i in 0..k {
            submit(&server, "sq1", format!("[{i}]"), &tx).unwrap();
        }
        held.release();
        drop(tx);
        server.drain();
        let sizes = held.sizes();
        prop_assert_eq!(sizes[0], 1, "the held flush took the only request there was");
        let backlog = &sizes[1..];
        prop_assert_eq!(backlog.len(), k.div_ceil(max_batch), "{:?}", backlog);
        prop_assert!(backlog.iter().all(|&b| b <= max_batch), "{:?}", backlog);
        prop_assert_eq!(backlog.iter().sum::<usize>(), k, "{:?}", backlog);
        let replies: Vec<Reply> = rx.iter().collect();
        prop_assert_eq!(replies.len(), 1 + k);
        for (seq, r) in replies.iter().enumerate() {
            prop_assert_eq!(r.seq, seq as u64, "reply order == admission order");
            let want = match seq {
                0 => "[]".to_string(),
                _ => format!("[{}]", (seq - 1) * (seq - 1) + 1),
            };
            prop_assert_eq!(r.result.as_deref(), Ok(want.as_str()));
        }
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
        queue_cap,
        on_flush: Some(Arc::new(move |_size| {
            if let Some((rx, started)) = gate.lock().unwrap().take() {
                let _ = started.send(());
                let _ = rx.recv();
            }
        })),
    });
    let (tx, rx) = mpsc::channel::<Reply>();
    let submit = |i: u64| {
        let tx = tx.clone();
        server.submit(
            "sq1",
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

/// The flush rule, idle half: a lone request on an idle shard is the whole
/// batch.  With room for 31 more it still flushes — as a batch of exactly
/// one, before any second submission or the drain could prompt it.
#[test]
fn a_lone_request_flushes_alone_without_a_second_event() {
    let (hook, held) = first_flush_gate();
    let server = server_with(ServeConfig {
        max_batch: 32,
        on_flush: Some(hook),
        ..ServeConfig::default()
    });
    let (tx, rx) = mpsc::channel::<Reply>();
    submit(&server, "sq1", "[3]".into(), &tx).unwrap();
    // Nothing else happens, and the flush starts all the same.
    held.wait();
    assert_eq!(held.sizes(), [1]);
    held.release();
    let reply = rx
        .recv_timeout(Duration::from_secs(120))
        .expect("the lone request");
    assert_eq!(reply.result.as_deref(), Ok("[10]"));
    server.drain();
    assert_eq!(held.sizes(), [1], "one flush, no more");
    let snap = &server.snapshots()[0];
    assert_eq!((snap.batches, snap.max_batch, snap.completed), (1, 1, 1));
}

/// The batching discipline is the shard's static property: `classify`
/// compiles to a program with control flow, so even a two-request flush
/// of 4-element inputs — where the fused kernel would execute ~40x the
/// instructions — runs as lanes.
#[test]
fn small_branchy_batches_run_as_lanes() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/classify.nsc");
    let module = nsc_core::parse::parse_module(&std::fs::read_to_string(path).unwrap()).unwrap();
    let (hook, held) = first_flush_gate();
    let mut server = Server::new(ServeConfig {
        max_batch: 2,
        on_flush: Some(hook),
        ..ServeConfig::default()
    });
    assert!(server.register_module(&module).is_empty());
    let (tx, rx) = mpsc::channel::<Reply>();
    // The pair queues behind a held single run, so it flushes together.
    submit(&server, "main", "[]".into(), &tx).unwrap();
    held.wait();
    for input in ["[0, 3, 0, 7]", "[5, 0, 0, 1]"] {
        submit(&server, "main", input.to_string(), &tx).unwrap();
    }
    held.release();
    for _ in 0..3 {
        let reply = rx.recv_timeout(Duration::from_secs(120)).expect("flush");
        assert!(reply.result.is_ok(), "{:?}", reply.result);
    }
    server.drain();
    assert_eq!(
        held.sizes(),
        [1, 2],
        "the held request, then one flush of two"
    );
    let snap = &server.snapshots()[0];
    assert_eq!((snap.batches, snap.max_batch), (2, 2));
    assert_eq!((snap.lanes_batches, snap.pack_batches), (1, 0));
}

/// A lanes program never runs its `map(f)` kernel, so serving it never
/// compiles one: after `halve_all` (a `while` under `map`, whose kernel
/// is over 300k instructions) is answered through a single run and a
/// lanes batch, the shard's cache entry still holds no kernel.
#[test]
fn serving_a_lanes_program_leaves_its_kernel_uncompiled() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/halve_all.nsc");
    let module = nsc_core::parse::parse_module(&std::fs::read_to_string(path).unwrap()).unwrap();
    let f = module.inlined("main").unwrap();
    let dom = module.get("main").unwrap().dom.clone();
    let (hook, held) = first_flush_gate();
    let mut server = Server::new(ServeConfig {
        on_flush: Some(hook),
        ..ServeConfig::default()
    });
    server.register("main", &f, &dom);
    let (tx, rx) = mpsc::channel::<Reply>();
    submit(&server, "main", "[9, 0, 100]".into(), &tx).unwrap();
    held.wait();
    for input in ["[3, 77]", "[1024]", "[]"] {
        submit(&server, "main", input.to_string(), &tx).unwrap();
    }
    held.release();
    for want in ["[0, 0, 0]", "[0, 0]", "[0]", "[]"] {
        let reply = rx.recv_timeout(Duration::from_secs(120)).expect("reply");
        assert_eq!(reply.result.as_deref(), Ok(want));
    }
    server.drain();
    assert_eq!(held.sizes(), [1, 3]);
    assert_eq!(server.snapshots()[0].lanes_batches, 1);
    let entry = server
        .cache()
        .entry(&f, &dom, Default::default())
        .expect("compiled");
    assert_eq!(server.cache().compiles(), 1, "the shard's own entry");
    assert_eq!(entry.mode(), nsc_runtime::BatchMode::Lanes);
    assert!(!entry.batch.is_compiled(), "the kernel was compiled");
}

/// Serves `sq1` and `get` on an ephemeral loopback port; the handle
/// joins once some client has sent `{"cmd": "shutdown"}`.
fn start_tcp(
    cfg: ServeConfig,
) -> (
    Arc<Server>,
    std::net::SocketAddr,
    std::thread::JoinHandle<()>,
) {
    let server = server_with(cfg);
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let addr = listener.local_addr().unwrap();
    let server2 = Arc::clone(&server);
    let serving =
        std::thread::spawn(move || nsc_serve::front::serve_tcp(&server2, listener).unwrap());
    (server, addr, serving)
}

/// The TCP front: pipelined requests across two shards answer in
/// request order per connection, and shutdown drains gracefully.
#[test]
fn tcp_front_orders_responses_and_drains_on_shutdown() {
    use std::io::{BufRead, BufReader, Write};

    let (server, addr, serving) = start_tcp(ServeConfig::default());
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
            .submit("sq1", "[1]".into(), Box::new(|_| {}))
            .unwrap_err()
            .kind(),
        "shutdown"
    );
}

/// A request line is attacker-controlled and connection threads have
/// small stacks: a line nested far past the JSON parser's depth bound is
/// answered `bad-request` — it used to overflow the stack and abort the
/// process — and the connection, other connections and shutdown all
/// carry on.
#[test]
fn tcp_front_answers_a_deeply_nested_line_and_keeps_serving() {
    use std::io::{BufRead, BufReader, Write};

    let (_server, addr, serving) = start_tcp(ServeConfig::default());
    let read_line = |reader: &mut BufReader<std::net::TcpStream>| {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line.trim().to_string()
    };

    let mut hostile = std::net::TcpStream::connect(addr).unwrap();
    hostile.write_all("[".repeat(100_000).as_bytes()).unwrap();
    writeln!(hostile).unwrap();
    writeln!(hostile, r#"{{"fn": "sq1", "input": "[2]", "id": 1}}"#).unwrap();
    let mut reader = BufReader::new(hostile.try_clone().unwrap());
    let rejected = read_line(&mut reader);
    assert!(
        rejected.contains(r#""kind": "bad-request""#) && rejected.contains("nested"),
        "{rejected}"
    );
    assert_eq!(read_line(&mut reader), r#"{"id": 1, "output": "[5]"}"#);

    let mut second = std::net::TcpStream::connect(addr).unwrap();
    writeln!(second, r#"{{"fn": "sq1", "input": "[3]"}}"#).unwrap();
    writeln!(second, r#"{{"cmd": "shutdown"}}"#).unwrap();
    let mut reader = BufReader::new(second.try_clone().unwrap());
    assert_eq!(read_line(&mut reader), r#"{"output": "[10]"}"#);
    assert_eq!(read_line(&mut reader), r#"{"ok": "draining"}"#);
    drop(hostile);
    serving.join().expect("accept loop exits after shutdown");
}

/// An idle connection does not hold shutdown up: connection A gets its
/// one request answered, sends half a line and stays open while
/// connection B asks for shutdown.  The server returns, and A reads end
/// of stream after its reply — the half line is never served.
#[test]
fn an_idle_connection_held_open_across_shutdown_is_closed_unserved() {
    use std::io::{BufRead, BufReader, Write};

    let (_server, addr, serving) = start_tcp(ServeConfig::default());
    let read_line = |reader: &mut BufReader<std::net::TcpStream>| {
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .expect("a line or end of stream");
        line.trim().to_string()
    };

    let mut idle = std::net::TcpStream::connect(addr).unwrap();
    // Hang guard for the final read.
    idle.set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    writeln!(idle, r#"{{"fn": "sq1", "input": "[2]", "id": 0}}"#).unwrap();
    write!(idle, r#"{{"fn": "sq1", "input": "[3]", "id": 1}}"#).unwrap();
    let mut idle_reader = BufReader::new(idle.try_clone().unwrap());
    assert_eq!(read_line(&mut idle_reader), r#"{"id": 0, "output": "[5]"}"#);

    let mut stop = std::net::TcpStream::connect(addr).unwrap();
    writeln!(stop, r#"{{"cmd": "shutdown"}}"#).unwrap();
    let mut stop_reader = BufReader::new(stop.try_clone().unwrap());
    assert_eq!(read_line(&mut stop_reader), r#"{"ok": "draining"}"#);

    let (done, returned) = mpsc::channel();
    std::thread::spawn(move || done.send(serving.join().is_ok()));
    assert_eq!(
        returned.recv_timeout(Duration::from_secs(60)),
        Ok(true),
        "serve_tcp returns with a connection held open"
    );
    assert_eq!(
        read_line(&mut idle_reader),
        "",
        "nothing after the one reply"
    );
}

/// A panic inside a flush fails that batch, not the shard: every request
/// of the batch is answered `internal`, in order, and later requests on
/// the same connection are answered.  (An unanswered request used to
/// leave a gap in the connection's ordered reply stream, so nothing after
/// it was ever written.)
#[test]
fn a_panicking_batch_is_answered_internal_and_the_connection_keeps_serving() {
    use std::io::{BufRead, BufReader, Write};
    use std::sync::atomic::{AtomicBool, Ordering};

    let panicked = AtomicBool::new(false);
    let (server, addr, serving) = start_tcp(ServeConfig {
        on_flush: Some(Arc::new(move |_size| {
            if !panicked.swap(true, Ordering::SeqCst) {
                panic!("injected flush panic");
            }
        })),
        ..ServeConfig::default()
    });
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    // Hang guard: at the parent of this fix the first read never returns.
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut read_line = || {
        let mut line = String::new();
        reader.read_line(&mut line).expect("a reply, not a timeout");
        line.trim().to_string()
    };
    for i in 0..4 {
        writeln!(stream, r#"{{"fn": "sq1", "input": "[{i}]", "id": {i}}}"#).unwrap();
    }
    let got: Vec<String> = (0..4).map(|_| read_line()).collect();
    // The first flush took request 0 and whatever had queued behind it:
    // that prefix is `internal`, everything after it is served.
    let failed = got
        .iter()
        .take_while(|l| l.contains(r#""kind": "internal""#))
        .count();
    assert!(failed >= 1, "{got:?}");
    for (i, line) in got.iter().enumerate() {
        if i < failed {
            assert!(line.contains(&format!(r#""id": {i},"#)), "{line}");
        } else {
            assert_eq!(
                *line,
                format!(r#"{{"id": {i}, "output": "[{}]"}}"#, i * i + 1)
            );
        }
    }
    writeln!(stream, r#"{{"fn": "sq1", "input": "[5]", "id": 4}}"#).unwrap();
    writeln!(stream, r#"{{"cmd": "shutdown"}}"#).unwrap();
    assert_eq!(read_line(), r#"{"id": 4, "output": "[26]"}"#);
    assert_eq!(read_line(), r#"{"ok": "draining"}"#);
    drop(stream);
    serving.join().expect("accept loop exits after shutdown");
    let snap = server.snapshots();
    let sq1 = snap.iter().find(|s| s.function == "sq1").unwrap();
    assert_eq!((sq1.panicked_batches, sq1.completed), (1, 5));
}
