//! One `(function, backend)` shard: a bounded admission queue and its
//! batcher thread.
//!
//! ### Admission
//!
//! [`Shard::submit`] assigns the request a per-shard sequence number and
//! `try_send`s it into a *bounded* `sync_channel`.  A full queue rejects
//! with [`ServeError::Overloaded`] — backpressure instead of unbounded
//! memory growth.  Sequence numbers are assigned under the same lock that
//! enqueues, so **queue order equals sequence order**, and because the
//! batcher executes batches serially and replies in batch order, replies
//! within a shard are always delivered in admission order (property:
//! `tests/serve_props.rs`).
//!
//! ### The flush rule
//!
//! The batcher blocks for one request, drains whatever else is already
//! queued — up to `max_batch` requests in all — and executes that as one
//! batch; then it does it again.  Nothing waits while work is ready: an
//! idle shard answers a lone request at once, and a loaded one forms its
//! batches from the backlog that built up while the previous batch ran
//! (Lemma 7.2's aggregation serves every element that is *there*).  The
//! flushed batch executes on [`BatchRunner::run_batch`] under the shard's
//! one discipline — pack iff its compiled program is straight-line, lanes
//! otherwise, fixed when the program was cached.  `max_batch` caps what
//! one flush may take (fairness and memory); `max_batch = 1` disables
//! batching.
//!
//! A panic while a batch runs (in the flush hook or the runner) fails
//! that batch, not the shard: each of its requests is answered
//! [`ServeError::Internal`], in order, the panic is counted in
//! [`crate::Snapshot::panicked_batches`], and the batcher goes on to the
//! next batch.  Every admitted request is answered exactly once, so a
//! connection's ordered reply stream never waits on a lost sequence
//! number.
//!
//! ### Lifecycle
//!
//! The batcher thread compiles the shard's function through the shared
//! [`CompiledCache`] when it starts (requests arriving
//! meanwhile queue up behind the compilation; a failed compilation is
//! answered — and negatively cached — per request).  Dropping the sender
//! side ([`Shard::drain`]) lets the batcher drain every queued request,
//! flush, and exit; `drain` joins it.

use crate::metrics::Metrics;
use crate::{ServeConfig, ServeError};
use nsc_core::parse::parse_value;
use nsc_core::types::Type;
use nsc_core::Func;
use nsc_runtime::{BatchRunner, CompiledCache};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What a request's reply callback receives.
#[derive(Debug)]
pub struct Reply {
    /// The shard-local admission sequence number [`Shard::submit`]
    /// returned for this request.
    pub seq: u64,
    /// Pretty-printed output value, or the classified error.
    pub result: Result<String, ServeError>,
    /// Admission-to-reply latency.
    pub latency: Duration,
}

/// The reply callback a request carries through the queue.
pub type ReplyFn = Box<dyn FnOnce(Reply) + Send>;

struct Job {
    seq: u64,
    input: String,
    enqueued: Instant,
    reply: ReplyFn,
}

/// A running shard handle (shared by the server and its front ends).
pub struct Shard {
    tx: Mutex<Option<SyncSender<Job>>>,
    seq: AtomicU64,
    metrics: Arc<Metrics>,
    handle: Mutex<Option<JoinHandle<()>>>,
    function: String,
    backend_name: &'static str,
    /// `map ∘ map` stages source fusion collapsed in this shard's pack
    /// kernel — written once by the batcher after it compiles, read by
    /// [`Shard::snapshot`] (0 until compilation finishes or if it fails).
    fused_stages: Arc<AtomicUsize>,
}

impl std::fmt::Debug for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shard")
            .field("function", &self.function)
            .field("backend", &self.backend_name)
            .field("submitted", &self.seq.load(Ordering::Relaxed))
            .finish()
    }
}

/// Stack for batcher threads: compilation recurses with program depth
/// (same sizing rationale as the `nsc` CLI driver thread).
const BATCHER_STACK: usize = 256 * 1024 * 1024;

impl Shard {
    /// Spawns the batcher thread for `function_name`, which compiles
    /// `f : dom → …` through `cache` on its own (big) stack.
    pub fn spawn(
        function_name: &str,
        f: Func,
        dom: Type,
        cfg: &ServeConfig,
        cache: Arc<CompiledCache>,
    ) -> Shard {
        let (tx, rx) = std::sync::mpsc::sync_channel(cfg.queue_cap.max(1));
        let metrics = Arc::new(Metrics::default());
        let fused_stages = Arc::new(AtomicUsize::new(0));
        let thread_cfg = cfg.clone();
        let thread_metrics = Arc::clone(&metrics);
        let thread_fused = Arc::clone(&fused_stages);
        let handle = std::thread::Builder::new()
            .name(format!("nsc-serve/{function_name}:{}", cfg.backend.name()))
            .stack_size(BATCHER_STACK)
            .spawn(move || batcher(rx, f, dom, thread_cfg, cache, thread_metrics, thread_fused))
            .expect("spawn batcher thread");
        Shard {
            tx: Mutex::new(Some(tx)),
            seq: AtomicU64::new(0),
            metrics,
            handle: Mutex::new(Some(handle)),
            function: function_name.to_string(),
            backend_name: cfg.backend.name(),
            fused_stages,
        }
    }

    /// Admits one request, returning its shard-local sequence number, or
    /// rejects it ([`ServeError::Overloaded`] on a full queue,
    /// [`ServeError::ShuttingDown`] after [`Shard::drain`]).  On
    /// rejection `reply` is dropped unchanged — the caller reports the
    /// error itself.
    pub fn submit(&self, input: String, reply: ReplyFn) -> Result<u64, ServeError> {
        // Sequence assignment and enqueue happen under one lock so queue
        // order is sequence order (the no-reorder contract's anchor).
        let guard = self.tx.lock().unwrap();
        let Some(tx) = guard.as_ref() else {
            return Err(ServeError::ShuttingDown);
        };
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let job = Job {
            seq,
            input,
            enqueued: Instant::now(),
            reply,
        };
        // Admit in the metrics *before* the send: once the job is in the
        // channel the batcher may reply (decrementing the depth gauge)
        // at any moment, so the increment must already be visible.
        self.metrics.on_admit();
        match tx.try_send(job) {
            Ok(()) => Ok(seq),
            Err(TrySendError::Full(_)) => {
                self.metrics.on_reject();
                Err(ServeError::Overloaded)
            }
            Err(TrySendError::Disconnected(_)) => {
                self.metrics.on_retract();
                Err(ServeError::ShuttingDown)
            }
        }
    }

    /// Point-in-time metrics.
    pub fn snapshot(&self) -> crate::Snapshot {
        self.metrics.snapshot(
            &self.function,
            self.backend_name,
            self.fused_stages.load(Ordering::Relaxed),
        )
    }

    /// Closes admission, lets the batcher drain every queued request,
    /// and joins it.  Idempotent.
    pub fn drain(&self) {
        drop(self.tx.lock().unwrap().take());
        let handle = self.handle.lock().unwrap().take();
        if let Some(h) = handle {
            let _ = h.join();
        }
    }
}

fn batcher(
    rx: Receiver<Job>,
    f: Func,
    dom: Type,
    cfg: ServeConfig,
    cache: Arc<CompiledCache>,
    metrics: Arc<Metrics>,
    fused_stages: Arc<AtomicUsize>,
) {
    let runner = BatchRunner::from_cache(&cache, &f, &dom, cfg.opt, cfg.backend)
        .map_err(|e| ServeError::Compile(e.to_string()));
    let runner = match runner {
        Ok(r) => {
            fused_stages.store(r.cached().batch.fused_stages, Ordering::Relaxed);
            r
        }
        Err(e) => {
            // The compilation failure is this shard's permanent answer.
            while let Ok(job) = rx.recv() {
                finish(job, Err(e.clone()), &metrics);
            }
            return;
        }
    };

    let max_batch = cfg.max_batch.max(1);
    // Block for the oldest request of the next batch; `Err` means
    // admission is closed and the queue is fully drained.
    while let Ok(first) = rx.recv() {
        // Batch what is queued: the backlog that built up while the
        // previous batch executed, never a request that has yet to arrive.
        let mut batch = vec![first];
        batch.extend(rx.try_iter().take(max_batch - 1));
        execute(batch, &runner, &cfg, &metrics);
    }
}

/// Runs one flushed batch and replies to every request, in batch order —
/// with [`ServeError::Internal`] to all of them if the batch panicked.
fn execute(batch: Vec<Job>, runner: &BatchRunner, cfg: &ServeConfig, metrics: &Arc<Metrics>) {
    let results = std::panic::catch_unwind(AssertUnwindSafe(|| run(&batch, runner, cfg, metrics)))
        .unwrap_or_else(|panic| {
            metrics.on_panic();
            let msg = (panic.downcast_ref::<&str>().copied())
                .or(panic.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("no message");
            let e = ServeError::Internal(format!("batch panicked: {msg}"));
            vec![Err(e); batch.len()]
        });
    for (job, result) in batch.into_iter().zip(results) {
        finish(job, result, metrics);
    }
}

/// The flush itself: the hook, then parse, domain-check and run; one
/// result per request of `batch`.
fn run(
    batch: &[Job],
    runner: &BatchRunner,
    cfg: &ServeConfig,
    metrics: &Metrics,
) -> Vec<Result<String, ServeError>> {
    if let Some(hook) = &cfg.on_flush {
        hook(batch.len());
    }
    let dom = runner.dom();
    // Parse and domain-check on this thread (values are not Send);
    // malformed requests are answered without touching the machine.
    let prepared: Vec<Result<nsc_core::value::Value, ServeError>> = batch
        .iter()
        .map(|job| match parse_value(&job.input) {
            Err(e) => Err(ServeError::InvalidInput(e.to_string())),
            Ok(v) => {
                if dom.admits(&v) {
                    Ok(v)
                } else {
                    Err(ServeError::Domain {
                        value: job.input.clone(),
                        dom: dom.to_string(),
                    })
                }
            }
        })
        .collect();
    let valid: Vec<nsc_core::value::Value> = prepared
        .iter()
        .filter_map(|r| r.as_ref().ok().cloned())
        .collect();
    // A single valid request runs the single-request program directly —
    // the pack kernel and the lanes pool only pay off from 2 requests up,
    // and `max_batch = 1` (no batching) must mean genuine single-run
    // latency, not "a batch of one".
    let (results, mode, fused) = match valid.len() {
        0 => (Vec::new(), None, false),
        1 => (
            vec![runner.run_single(&valid[0]).map(|(v, _)| v)],
            None,
            false,
        ),
        _ => {
            let o = runner.run_batch(&valid);
            (o.results, Some(o.mode), o.fused)
        }
    };
    metrics.on_batch(batch.len(), mode, fused);
    let mut results = results.into_iter();
    prepared
        .into_iter()
        .map(|prep| {
            prep?;
            let result = results.next().expect("one result per valid request");
            result.map(|v| v.to_string()).map_err(ServeError::Eval)
        })
        .collect()
}

fn finish(job: Job, result: Result<String, ServeError>, metrics: &Arc<Metrics>) {
    let latency = job.enqueued.elapsed();
    metrics.on_reply(
        latency.as_nanos().min(u128::from(u64::MAX)) as u64,
        result.is_err(),
    );
    (job.reply)(Reply {
        seq: job.seq,
        result,
        latency,
    });
}
