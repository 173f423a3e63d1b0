//! The socket-to-socket load run against one `nsc serve` child: cold
//! starts, oracle pre-check, warm-up, the closed and the open phase, the
//! wire metrics snapshots, and the graceful shutdown.

use crate::child::Child;
use crate::stats;
use crate::workload::{Pool, POOL};
use nsc_serve::json::{self, Json};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

/// Requests in flight during the closed phase.
const WINDOW: usize = 32;
/// Replies per closed-phase chunk: whole turns of the pool, so every chunk
/// holds the same requests.
const CHUNK: u64 = 2 * POOL as u64;
/// Throughput and CPU per reply are this percentile of the chunks' costs
/// (seconds, CPU seconds per reply), not their median.  Whatever else the
/// host runs only ever adds to a chunk's cost, for seconds at a time: the
/// median chunk follows the neighbours, the quiet tenth follows the
/// program.  (Not the minimum: where a chunk's edges fall among the
/// server's batches moves a single chunk by a few percent either way.)
const QUIET_CHUNKS: f64 = 10.0;
/// The untimed closed-loop warm-up before the first round, seconds.
const WARM_S: f64 = 1.0;
/// A reply that takes longer than this is counted as missing.
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);
/// Cold starts per run: at least `MIN_STARTS`, then more while they are
/// cheap (under `START_BUDGET` in total, at most `MAX_STARTS`), so the
/// median of a 15 ms spawn is as steady as that of a 1.5 s compile.
const MIN_STARTS: usize = 3;
const MAX_STARTS: usize = 15;
const START_BUDGET: Duration = Duration::from_secs(1);

/// One client connection: `TCP_NODELAY`, one `write` per request line.
pub struct Conn {
    w: TcpStream,
    r: BufReader<TcpStream>,
    line: Vec<u8>,
}

impl Conn {
    pub fn new(stream: TcpStream) -> Result<Conn, String> {
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let r = BufReader::with_capacity(1 << 16, stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            w: stream,
            r,
            line: Vec::new(),
        })
    }

    fn send(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.w.write_all(bytes)
    }

    /// The next reply line, without its newline.
    fn recv(&mut self) -> std::io::Result<&[u8]> {
        self.line.clear();
        self.r.read_until(b'\n', &mut self.line)?;
        match self.line.pop() {
            Some(b'\n') => Ok(&self.line),
            _ => Err(std::io::ErrorKind::UnexpectedEof.into()),
        }
    }

    /// One command round trip (`metrics` / `shutdown`), parsed.
    fn command(&mut self, cmd: &str) -> Result<Json, String> {
        self.send(format!("{{\"cmd\": \"{cmd}\"}}\n").as_bytes())
            .map_err(|e| format!("sending {cmd}: {e}"))?;
        let line = self
            .recv()
            .map_err(|e| format!("reading {cmd} reply: {e}"))?;
        json::parse(&String::from_utf8_lossy(line)).map_err(|e| format!("{cmd} reply: {e}"))
    }
}

/// What happened to a run of requests: every request attempted, every
/// failure, and one latency per request (`+∞` for a failed one).
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub latency_ms: Vec<f64>,
}

impl Tally {
    fn record(&mut self, ok: bool, since: Instant, now: Instant) {
        self.attempted += 1;
        if ok {
            self.latency_ms
                .push(now.duration_since(since).as_secs_f64() * 1e3);
        } else {
            self.failed += 1;
            self.latency_ms.push(f64::INFINITY);
        }
    }

    fn correct(&self) -> u64 {
        self.attempted - self.failed
    }
}

/// A closed loop on one connection: keeps up to `window` requests in
/// flight (ids 0, 1, …) while `more(sent)` holds, then drains.  Replies
/// must arrive in request order; each is checked byte-for-byte against
/// the oracle, then `replied(n)` is told how many have arrived.  A dead or
/// stalled connection fails every request still outstanding.
pub fn closed_loop(
    conn: &mut Conn,
    pool: &Pool,
    window: usize,
    more: impl Fn(u64) -> bool,
    mut replied: impl FnMut(u64),
) -> Tally {
    let mut tally = Tally::default();
    let mut in_flight: VecDeque<(u64, Instant)> = VecDeque::new();
    let mut buf = Vec::new();
    let mut sent = 0u64;
    loop {
        while in_flight.len() < window && more(sent) {
            buf.clear();
            pool.request_line(sent, &mut buf);
            in_flight.push_back((sent, Instant::now()));
            sent += 1;
            if conn.send(&buf).is_err() {
                break;
            }
        }
        let Some((id, at)) = in_flight.pop_front() else {
            return tally;
        };
        match conn.recv() {
            Ok(line) => {
                let ok = pool.reply_ok(id, line);
                tally.record(ok, at, Instant::now());
                replied(tally.attempted);
            }
            Err(_) => {
                for _ in 0..=in_flight.len() {
                    tally.record(false, at, at);
                }
                return tally;
            }
        }
    }
}

/// The open loop on one connection: a sender thread writes request `k` at
/// its due time whatever the replies do, this thread reads replies in
/// order and times each **from its due time**.  Returns the tally and how
/// late the sender ran per request (ms).
fn open_loop(conn: &mut Conn, pool: &Pool, due_s: &[f64]) -> (Tally, Vec<f64>) {
    let mut tally = Tally::default();
    let start = Instant::now() + Duration::from_millis(5);
    let due = |k: usize| start + Duration::from_secs_f64(due_s[k]);
    let mut w = match conn.w.try_clone() {
        Ok(w) => w,
        Err(_) => {
            tally.attempted = due_s.len() as u64;
            tally.failed = tally.attempted;
            return (tally, Vec::new());
        }
    };
    std::thread::scope(|scope| {
        let sender = scope.spawn(move || {
            let mut late_ms = Vec::with_capacity(due_s.len());
            let mut buf = Vec::new();
            for k in 0..due_s.len() {
                buf.clear();
                pool.request_line(k as u64, &mut buf);
                // Sleep to just before the due time, spin the remainder:
                // a plain sleep overshoots by more than the lateness
                // limit allows.
                loop {
                    let left = due(k).saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        break;
                    }
                    if left > Duration::from_micros(300) {
                        std::thread::sleep(left - Duration::from_micros(200));
                    } else {
                        std::hint::spin_loop();
                    }
                }
                late_ms.push(Instant::now().duration_since(due(k)).as_secs_f64() * 1e3);
                if w.write_all(&buf).is_err() {
                    break;
                }
            }
            late_ms
        });
        let mut dead = false;
        for k in 0..due_s.len() {
            let ok = !dead
                && match conn.recv() {
                    Ok(line) => pool.reply_ok(k as u64, line),
                    Err(_) => {
                        dead = true;
                        false
                    }
                };
            tally.record(ok, due(k), Instant::now());
        }
        let late_ms = sender.join().expect("open-loop sender panicked");
        (tally, late_ms)
    })
}

/// The counters of the `main`/`seq` shard from a `metrics` reply, as
/// running sums so two snapshots subtract.
#[derive(Debug, Clone, Copy, Default)]
struct ShardSums {
    completed: f64,
    latency_ns: f64,
    batches: f64,
    batched: f64,
    pack: f64,
    lanes: f64,
    fused: f64,
    pack_slower: f64,
    rejected: f64,
}

impl ShardSums {
    fn read(conn: &mut Conn) -> Result<ShardSums, String> {
        let reply = conn.command("metrics")?;
        let shard = reply
            .get("snapshots")
            .and_then(Json::as_arr)
            .and_then(|shards| {
                shards.iter().find(|s| {
                    s.get("fn").and_then(Json::as_str) == Some("main")
                        && s.get("backend").and_then(Json::as_str) == Some("seq")
                })
            })
            .ok_or("metrics reply has no main/seq shard")?;
        let num = |key: &str| {
            shard
                .get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("metrics reply lacks `{key}`"))
        };
        let (completed, batches) = (num("completed")?, num("batches")?);
        Ok(ShardSums {
            completed,
            latency_ns: num("mean_latency_ns")? * completed,
            batches,
            batched: num("mean_batch")? * batches,
            pack: num("pack_batches")?,
            lanes: num("lanes_batches")?,
            fused: num("fused_batches")?,
            pack_slower: num("pack_slower")?,
            rejected: num("rejected")?,
        })
    }

    fn since(self, before: ShardSums) -> ShardSums {
        ShardSums {
            completed: self.completed - before.completed,
            latency_ns: self.latency_ns - before.latency_ns,
            batches: self.batches - before.batches,
            batched: self.batched - before.batched,
            pack: self.pack - before.pack,
            lanes: self.lanes - before.lanes,
            fused: self.fused - before.fused,
            pack_slower: self.pack_slower - before.pack_slower,
            rejected: self.rejected - before.rejected,
        }
    }

    fn plus(self, other: ShardSums) -> ShardSums {
        ShardSums {
            completed: self.completed + other.completed,
            latency_ns: self.latency_ns + other.latency_ns,
            batches: self.batches + other.batches,
            batched: self.batched + other.batched,
            pack: self.pack + other.pack,
            lanes: self.lanes + other.lanes,
            fused: self.fused + other.fused,
            pack_slower: self.pack_slower + other.pack_slower,
            rejected: self.rejected + other.rejected,
        }
    }

    fn mean_latency_ms(self) -> f64 {
        self.latency_ns / self.completed.max(1.0) / 1e6
    }
}

/// How long each part of a load run lasts.
#[derive(Debug, Clone, Copy)]
pub struct Phases {
    /// Whether to repeat the cold start (`setup_s` wants a median).
    pub repeat_starts: bool,
    /// Length of each round's closed phase.
    pub closed_s: f64,
}

/// Everything one load run observed.
#[derive(Debug, Default)]
pub struct LoadOutcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every cold start: spawn → first byte-correct reply, seconds.
    pub setup_s: Vec<f64>,
    /// Correct replies of the closed phases.
    pub closed_n: u64,
    /// The [`QUIET_CHUNKS`] percentile of the closed phases' chunks.
    pub throughput_rps: f64,
    pub cpu_ms_per_req: f64,
    pub mean_batch: f64,
    pub pack_share: f64,
    pub fused_share: f64,
    pub pack_slower: f64,
    pub rejected: f64,
    /// Each round's open-phase latencies from due time, in request order,
    /// `+∞` for failures.
    pub open_ms: Vec<Vec<f64>>,
    pub open_client_mean_ms: f64,
    pub open_shard_mean_ms: f64,
    pub gen_late_p99_ms: f64,
    pub peak_rss_mib: f64,
}

/// One cold start: spawn the child and time spawn → first byte-correct
/// reply to `pool[0]`, which forces the shard's cold compile of the
/// single program and of the `map(f)` pack kernel.
fn cold_start(
    nsc: &Path,
    module: &Path,
    pool: &Pool,
    out: &mut LoadOutcome,
) -> Result<(Child, Conn), String> {
    let t0 = Instant::now();
    let (child, stream) = Child::start(nsc, module)?;
    let mut conn = Conn::new(stream)?;
    let tally = closed_loop(&mut conn, pool, 1, |sent| sent == 0, |_| {});
    out.setup_s.push(t0.elapsed().as_secs_f64());
    out.attempted += tally.attempted;
    out.failed += tally.failed;
    if tally.failed > 0 {
        return Err("the first reply of a cold start was wrong or missing".into());
    }
    Ok((child, conn))
}

fn shutdown(child: Child, mut conn: Conn) -> Result<(), String> {
    let reply = conn.command("shutdown")?;
    if reply.get("ok").and_then(Json::as_str) != Some("draining") {
        return Err(format!("unexpected shutdown reply: {}", reply.render()));
    }
    drop(conn);
    child.wait_exit(Duration::from_secs(20))
}

/// The whole load run for one workload: one round per entry of `rounds`
/// (at least one), which holds that round's open-phase due times.  `Err`
/// means the run could not be carried out (no child, lost control
/// connection, non-zero child exit); failed requests are counted in the
/// outcome instead.
pub fn run(
    nsc: &Path,
    module: &Path,
    pool: &Pool,
    rounds: &[Vec<f64>],
    phases: Phases,
) -> Result<LoadOutcome, String> {
    let mut out = LoadOutcome::default();

    // (1) Cold starts; the last child is kept.
    let setup_t0 = Instant::now();
    let (mut child, mut ctrl) = cold_start(nsc, module, pool, &mut out)?;
    while phases.repeat_starts
        && (out.setup_s.len() < MIN_STARTS
            || (out.setup_s.len() < MAX_STARTS && setup_t0.elapsed() < START_BUDGET))
    {
        shutdown(child, ctrl)?;
        (child, ctrl) = cold_start(nsc, module, pool, &mut out)?;
    }

    // Oracle pre-check: the server and the evaluator agree on the whole
    // pool before anything is timed.
    let check = closed_loop(&mut ctrl, pool, POOL, |sent| sent < POOL as u64, |_| {});
    out.attempted += check.attempted;
    out.failed += check.failed;
    if check.failed > 0 {
        return Err(format!(
            "server and evaluator disagree on {} of {POOL} pool inputs",
            check.failed
        ));
    }

    // One pipelined connection carries the closed phases.  With two, the
    // batches the server forms depend on how the connections' write
    // stalls happen to interleave, and the same seed lands on either of
    // two throughput/CPU plateaus from run to run.
    let mut conn = Conn::new(child.connect(Duration::from_secs(5))?)?;
    // The child's CPU time is read every `CHUNK` replies: (replies so
    // far, when, CPU seconds).
    let closed_phase = |conn: &mut Conn, seconds: f64| -> (Tally, Vec<(u64, Instant, f64)>) {
        let mark = |n: u64| (n, Instant::now(), child.cpu_s().unwrap_or(f64::NAN));
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let mut marks = vec![mark(0)];
        let tally = closed_loop(
            conn,
            pool,
            WINDOW,
            |_| Instant::now() < deadline,
            |n| {
                if n % CHUNK == 0 {
                    marks.push(mark(n));
                }
            },
        );
        // A phase too short for one whole chunk is one partial chunk.
        if marks.len() == 1 {
            marks.push(mark(tally.attempted));
        }
        (tally, marks)
    };

    // (2) Warm-up, untimed.
    let (warm, _) = closed_phase(&mut conn, WARM_S);
    out.attempted += warm.attempted;
    out.failed += warm.failed;

    // (3) Rounds of a closed and an open phase each, so that both kinds of
    // metric sample the whole run: the host slows this VM for seconds at a
    // time, and a single contiguous phase can fall wholly inside that.
    // `chunks` holds (replies, seconds, child CPU seconds) per whole chunk
    // of a closed phase; the replies after a phase's last whole chunk are
    // not used.
    let mut chunks: Vec<(f64, f64, f64)> = Vec::new();
    let (mut closed_d, mut open_d) = (ShardSums::default(), ShardSums::default());
    let mut late_ms = Vec::new();
    let mut sums = ShardSums::read(&mut ctrl)?;
    for due_s in rounds {
        let (closed, marks) = closed_phase(&mut conn, phases.closed_s);
        let after_closed = ShardSums::read(&mut ctrl)?;
        closed_d = closed_d.plus(after_closed.since(sums));
        out.attempted += closed.attempted;
        out.failed += closed.failed;
        out.closed_n += closed.correct();
        chunks.extend(marks.windows(2).filter(|w| w[1].0 > w[0].0).map(|w| {
            (
                (w[1].0 - w[0].0) as f64,
                w[1].1.duration_since(w[0].1).as_secs_f64(),
                w[1].2 - w[0].2,
            )
        }));

        let (open, late) = open_loop(&mut conn, pool, due_s);
        sums = ShardSums::read(&mut ctrl)?;
        open_d = open_d.plus(sums.since(after_closed));
        out.attempted += open.attempted;
        out.failed += open.failed;
        out.open_ms.push(open.latency_ms);
        // A sender that gave up early was as late as can be.
        late_ms.extend(vec![f64::INFINITY; due_s.len() - late.len()]);
        late_ms.extend(late);
    }

    if !chunks.is_empty() {
        let quiet = |costs: Vec<f64>| stats::quantile(costs, QUIET_CHUNKS);
        out.throughput_rps = 1.0 / quiet(chunks.iter().map(|(n, s, _)| s / n).collect());
        out.cpu_ms_per_req = quiet(chunks.iter().map(|(n, _, cpu)| cpu * 1e3 / n).collect());
    }
    out.mean_batch = closed_d.batched / closed_d.batches.max(1.0);
    out.pack_share = closed_d.pack / (closed_d.pack + closed_d.lanes).max(1.0);
    out.fused_share = closed_d.fused / closed_d.batches.max(1.0);
    out.pack_slower = closed_d.pack_slower;
    out.rejected = closed_d.rejected;
    out.open_shard_mean_ms = open_d.mean_latency_ms();
    // Every round sends at least one request, so neither sample is empty.
    let open_n: usize = out.open_ms.iter().map(Vec::len).sum();
    out.open_client_mean_ms = out.open_ms.iter().flatten().sum::<f64>() / open_n as f64;
    out.gen_late_p99_ms = stats::quantile(late_ms, 99.0);

    // (4) Memory high-water mark, then a graceful shutdown.
    out.peak_rss_mib = child.peak_rss_mib()?;
    drop(conn);
    shutdown(child, ctrl)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::PoolItem;
    use std::net::TcpListener;

    fn pool() -> Pool {
        let item = |i: u64| PoolItem {
            input: format!("[{i}]"),
            expected: format!("[{}]", i + 1),
        };
        Pool {
            items: (0..4).map(item).collect(),
        }
    }

    fn good(id: u64) -> String {
        format!("{{\"id\": {id}, \"output\": \"[{}]\"}}\n", id % 4 + 1)
    }

    /// Serves `replies` to whoever connects, after reading as many
    /// request lines, and returns what the closed loop tallied.
    fn tally_against(replies: Vec<String>) -> Tally {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let n = replies.len() as u64;
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut lines = BufReader::new(stream.try_clone().unwrap()).lines();
            let mut w = stream;
            for reply in replies {
                lines.next().unwrap().unwrap();
                w.write_all(reply.as_bytes()).unwrap();
            }
        });
        let mut conn = Conn::new(TcpStream::connect(addr).unwrap()).unwrap();
        let tally = closed_loop(&mut conn, &pool(), 2, |sent| sent < n, |_| {});
        server.join().unwrap();
        tally
    }

    #[test]
    fn exact_replies_all_pass() {
        let t = tally_against((0..6).map(good).collect());
        assert_eq!((t.attempted, t.failed), (6, 0));
        assert!(t.latency_ms.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn a_corrupted_line_is_one_failure() {
        let mut replies: Vec<String> = (0..6).map(good).collect();
        replies[3] = replies[3].replace("[4]", "[5]");
        let t = tally_against(replies);
        assert_eq!((t.attempted, t.failed), (6, 1));
        assert_eq!(t.latency_ms[3], f64::INFINITY);
    }

    #[test]
    fn swapped_replies_are_two_failures() {
        let mut replies: Vec<String> = (0..6).map(good).collect();
        replies.swap(1, 2);
        let t = tally_against(replies);
        assert_eq!((t.attempted, t.failed), (6, 2));
    }

    #[test]
    fn an_overloaded_reply_is_a_failure() {
        let mut replies: Vec<String> = (0..6).map(good).collect();
        replies[5] =
            "{\"error\": \"admission queue full\", \"id\": 5, \"kind\": \"overloaded\"}\n".into();
        let t = tally_against(replies);
        assert_eq!((t.attempted, t.failed), (6, 1));
    }

    #[test]
    fn a_dropped_connection_fails_everything_outstanding() {
        let t = {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let server = std::thread::spawn(move || {
                let (stream, _) = listener.accept().unwrap();
                let mut lines = BufReader::new(stream.try_clone().unwrap()).lines();
                lines.next().unwrap().unwrap();
                (&stream).write_all(good(0).as_bytes()).unwrap();
            });
            let mut conn = Conn::new(TcpStream::connect(addr).unwrap()).unwrap();
            let t = closed_loop(&mut conn, &pool(), 3, |sent| sent < 3, |_| {});
            server.join().unwrap();
            t
        };
        assert_eq!((t.attempted, t.failed), (3, 2));
    }
}
