//! Per-shard serving metrics.
//!
//! Counters are recorded by the shard (admission side and batcher side)
//! and exposed as an immutable [`Snapshot`] — the struct the serve tests
//! and the `bench/` harness assert on ("did batches actually form?") and
//! the `{"cmd": "metrics"}` protocol request serializes.
//!
//! Distributions (batch sizes, per-request latency) are kept as
//! power-of-two [`Hist`]ograms: recording is O(1) and lock-cheap, and
//! quantiles come back as the *upper bound* of the bucket the quantile
//! falls in — at most 2× the true value, which is the right fidelity for
//! a serving dashboard and costs 64 words per histogram.

use crate::json::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A power-of-two-bucket histogram: bucket `i` counts values `v` with
/// `bucket_of(v) == i`, i.e. `v == 0` in bucket 0 and
/// `2^(i-1) <= v < 2^i` in bucket `i`.
#[derive(Debug, Clone)]
pub struct Hist {
    buckets: [u64; 64],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Hist {
    fn default() -> Hist {
        Hist {
            buckets: [0; 64],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros() as usize).min(63)
}

impl Hist {
    /// Records one observation.
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of all observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest observation.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `q`-quantile (`0 < q <= 1`), reported as the upper bound of
    /// the bucket the quantile falls in (exact for values ≤ 1, else at
    /// most 2× the true value); 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return upper_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// `(bucket upper bound, count)` for every non-empty bucket.
    pub fn nonempty(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, n)| **n > 0)
            .map(|(i, n)| (upper_bound(i), *n))
            .collect()
    }
}

fn upper_bound(bucket: usize) -> u64 {
    if bucket == 0 {
        0
    } else {
        (1u64 << (bucket - 1)) * 2 - 1
    }
}

/// Shared, thread-safe metrics for one shard.
#[derive(Debug, Default)]
pub struct Metrics {
    depth: AtomicUsize,
    inner: Mutex<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    submitted: u64,
    rejected: u64,
    completed: u64,
    errors: u64,
    batches: u64,
    batch_sizes: Hist,
    latency_ns: Hist,
    pack_batches: u64,
    lanes_batches: u64,
    fused_batches: u64,
    panicked_batches: u64,
}

impl Metrics {
    /// Admission side: a request is *about* to be enqueued.  Called
    /// before the actual send — otherwise the batcher could answer the
    /// request (decrementing depth) before the admission increment lands,
    /// wrapping the gauge.  Pair with [`Metrics::on_reject`] or
    /// [`Metrics::on_retract`] if the send then fails.
    pub fn on_admit(&self) {
        self.depth.fetch_add(1, Ordering::Relaxed);
        self.inner.lock().unwrap().submitted += 1;
    }

    /// Admission side: the send after [`Metrics::on_admit`] bounced off
    /// the full queue — roll the admission back and count a rejection.
    pub fn on_reject(&self) {
        self.depth.fetch_sub(1, Ordering::Relaxed);
        let mut m = self.inner.lock().unwrap();
        m.submitted -= 1;
        m.rejected += 1;
    }

    /// Admission side: the send after [`Metrics::on_admit`] failed for a
    /// non-backpressure reason (shard shutting down) — roll back only.
    pub fn on_retract(&self) {
        self.depth.fetch_sub(1, Ordering::Relaxed);
        self.inner.lock().unwrap().submitted -= 1;
    }

    /// Batcher side: a batch of `size` requests is about to execute
    /// under `mode` (`fused` per [`nsc_runtime::BatchOutcome::fused`]).
    /// Two kinds of batch pass no mode: one that never reaches the runner
    /// (every request malformed), and one with exactly one valid request,
    /// which runs on the single-request program.  So
    /// `pack_batches + lanes_batches` falls short of `batches` by the
    /// number of such batches.  A pack batch that did not complete fused
    /// counts as [`Snapshot::pack_slower`].
    pub fn on_batch(&self, size: usize, mode: Option<nsc_runtime::BatchMode>, fused: bool) {
        let mut m = self.inner.lock().unwrap();
        m.batches += 1;
        m.batch_sizes.record(size as u64);
        match mode {
            Some(nsc_runtime::BatchMode::Pack) => m.pack_batches += 1,
            Some(nsc_runtime::BatchMode::Lanes) => m.lanes_batches += 1,
            None => {}
        }
        if fused {
            m.fused_batches += 1;
        }
    }

    /// Batcher side: the current batch panicked before it could run to
    /// completion (its requests are answered `internal`).
    pub fn on_panic(&self) {
        self.inner.lock().unwrap().panicked_batches += 1;
    }

    /// Batcher side: one request of the current batch was answered.
    pub fn on_reply(&self, latency_ns: u64, is_err: bool) {
        self.depth.fetch_sub(1, Ordering::Relaxed);
        let mut m = self.inner.lock().unwrap();
        m.completed += 1;
        if is_err {
            m.errors += 1;
        }
        m.latency_ns.record(latency_ns);
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self, function: &str) -> Snapshot {
        let m = self.inner.lock().unwrap();
        Snapshot {
            function: function.to_string(),
            queue_depth: self.depth.load(Ordering::Relaxed),
            submitted: m.submitted,
            rejected: m.rejected,
            completed: m.completed,
            errors: m.errors,
            batches: m.batches,
            mean_batch: m.batch_sizes.mean(),
            max_batch: m.batch_sizes.max() as usize,
            batch_hist: m.batch_sizes.nonempty(),
            pack_batches: m.pack_batches,
            lanes_batches: m.lanes_batches,
            fused_batches: m.fused_batches,
            pack_slower: m.pack_batches - m.fused_batches,
            panicked_batches: m.panicked_batches,
            p50_latency_ns: m.latency_ns.quantile(0.50),
            p99_latency_ns: m.latency_ns.quantile(0.99),
            mean_latency_ns: m.latency_ns.mean(),
        }
    }
}

/// A point-in-time view of one shard's serving metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Registered function name the shard serves.
    pub function: String,
    /// Requests admitted but not yet answered.
    pub queue_depth: usize,
    /// Requests accepted into the queue, ever.
    pub submitted: u64,
    /// Requests rejected with `Overloaded`, ever.
    pub rejected: u64,
    /// Requests answered (including error answers).
    pub completed: u64,
    /// Requests answered with an error.
    pub errors: u64,
    /// Batches flushed (one per trip round the batcher loop).
    pub batches: u64,
    /// Mean flushed batch size.
    pub mean_batch: f64,
    /// Largest flushed batch.
    pub max_batch: usize,
    /// Batch-size histogram as `(bucket upper bound, count)` pairs.
    pub batch_hist: Vec<(u64, u64)>,
    /// Batches run through the pack discipline (the shard's program is
    /// straight-line).
    pub pack_batches: u64,
    /// Batches run through the lanes discipline (the shard's program has
    /// control flow).
    pub lanes_batches: u64,
    /// Pack batches that completed as one fused machine run.
    pub fused_batches: u64,
    /// Pack batches that fell back to per-request replay: some request
    /// faulted the fused run, so the batch paid for both disciplines.  A
    /// rising count says this shard's traffic carries faulting requests.
    pub pack_slower: u64,
    /// Batches that panicked in the flush hook or the runner; each of
    /// their requests was answered `internal`, and the shard kept serving.
    pub panicked_batches: u64,
    /// Median request latency (admission → reply), nanoseconds.
    pub p50_latency_ns: u64,
    /// 99th-percentile request latency, nanoseconds.
    pub p99_latency_ns: u64,
    /// Mean request latency, nanoseconds.
    pub mean_latency_ns: f64,
}

impl Snapshot {
    /// The snapshot as a JSON object (the `{"cmd": "metrics"}` reply
    /// carries one per shard).  Its constant `"backend": "seq"` names the
    /// one machine, kept only because `bench/src/load.rs` selects the
    /// shard by it and `bench/` is frozen; ROADMAP item 1 removes it.
    pub fn to_json(&self) -> Json {
        let mut m = BTreeMap::new();
        m.insert("fn".into(), Json::Str(self.function.clone()));
        m.insert("backend".into(), Json::Str("seq".into()));
        m.insert("queue_depth".into(), Json::Num(self.queue_depth as f64));
        m.insert("submitted".into(), Json::Num(self.submitted as f64));
        m.insert("rejected".into(), Json::Num(self.rejected as f64));
        m.insert("completed".into(), Json::Num(self.completed as f64));
        m.insert("errors".into(), Json::Num(self.errors as f64));
        m.insert("batches".into(), Json::Num(self.batches as f64));
        m.insert("mean_batch".into(), Json::Num(self.mean_batch));
        m.insert("max_batch".into(), Json::Num(self.max_batch as f64));
        m.insert(
            "batch_hist".into(),
            Json::Arr(
                self.batch_hist
                    .iter()
                    .map(|(ub, n)| Json::Arr(vec![Json::Num(*ub as f64), Json::Num(*n as f64)]))
                    .collect(),
            ),
        );
        m.insert("pack_batches".into(), Json::Num(self.pack_batches as f64));
        m.insert("lanes_batches".into(), Json::Num(self.lanes_batches as f64));
        m.insert("fused_batches".into(), Json::Num(self.fused_batches as f64));
        m.insert("pack_slower".into(), Json::Num(self.pack_slower as f64));
        m.insert(
            "panicked_batches".into(),
            Json::Num(self.panicked_batches as f64),
        );
        m.insert(
            "p50_latency_ns".into(),
            Json::Num(self.p50_latency_ns as f64),
        );
        m.insert(
            "p99_latency_ns".into(),
            Json::Num(self.p99_latency_ns as f64),
        );
        m.insert("mean_latency_ns".into(), Json::Num(self.mean_latency_ns));
        Json::Obj(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Hist::default();
        for v in [0, 1, 1, 2, 3, 4, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.max(), 100);
        // p50 of {0,1,1,2,3,4,100}: rank 4 lands in the [2,3] bucket.
        assert_eq!(h.quantile(0.5), 3);
        // p99 lands in the last non-empty bucket, clamped to the max.
        assert_eq!(h.quantile(0.99), 100);
        // Bucket upper bounds are powers of two minus one.
        assert_eq!(h.nonempty(), vec![(0, 1), (1, 2), (3, 2), (7, 1), (127, 1)]);
        assert!((h.mean() - 111.0 / 7.0).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = Hist::default();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.nonempty(), vec![]);
    }

    #[test]
    fn metrics_flow_through_snapshot() {
        let m = Metrics::default();
        m.on_admit();
        m.on_admit();
        m.on_admit();
        m.on_reject(); // rolls the third admission back
        m.on_batch(2, Some(nsc_runtime::BatchMode::Pack), true);
        m.on_batch(2, Some(nsc_runtime::BatchMode::Pack), false); // replayed
        m.on_reply(1000, false);
        m.on_reply(2000, true);
        m.on_panic();
        let s = m.snapshot("f");
        assert_eq!(s.submitted, 2);
        assert_eq!(s.rejected, 1);
        assert_eq!(s.completed, 2);
        assert_eq!(s.errors, 1);
        assert_eq!(s.queue_depth, 0);
        assert_eq!(s.batches, 2);
        assert_eq!(s.mean_batch, 2.0);
        assert_eq!(s.pack_batches, 2);
        assert_eq!(s.fused_batches, 1);
        assert_eq!(s.pack_slower, 1);
        assert_eq!(s.panicked_batches, 1);
        assert!(s.p50_latency_ns >= 1000);
        let json = s.to_json().render();
        assert!(json.contains("\"mean_batch\": 2"));
        assert!(json.contains("\"fn\": \"f\""));
        assert!(json.contains("\"backend\": \"seq\""));
    }
}
