//! Front ends: newline-delimited JSON over TCP and over a pipe.
//!
//! Both fronts feed the bytes they read to one line splitter, which
//! hands each request line to one request path ([`handle_line`]), and
//! share one guarantee: **responses are written in request order per
//! connection**.
//! A connection may hit several shards (one per function)
//! whose batches complete out of order, so each connection runs a writer
//! with a reorder buffer keyed by the connection-local request sequence
//! number — shard-level FIFO plus connection-level reordering gives
//! pipelined clients a deterministic stream.
//!
//! Shutdown is graceful everywhere: the pipe front drains the server at
//! EOF, the TCP front drains after a `{"cmd": "shutdown"}` request stops
//! the accept loop and every open connection finishes — queued requests
//! are always answered before the process exits.

use crate::protocol::{self, Request};
use crate::server::Server;
use crate::{Reply, ServeError};
use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::Duration;

/// What a handled line asked the front end to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineOutcome {
    /// Keep reading.
    Continue,
    /// The client requested a server shutdown.
    Shutdown,
}

/// Handles one request line: the response (eventually) arrives on `out`
/// tagged with `seq`, the connection-local request number used by the
/// ordered writer.  Synchronous rejections (bad JSON, unknown function,
/// backpressure) are answered immediately through the same channel.
pub fn handle_line(
    server: &Arc<Server>,
    line: &str,
    seq: u64,
    out: &Sender<(u64, String)>,
) -> LineOutcome {
    match protocol::parse_request(line) {
        Err(e) => {
            let id = protocol::rejected_id(line);
            let _ = out.send((seq, protocol::render_error(id.as_ref(), &e)));
            LineOutcome::Continue
        }
        Ok(Request::Metrics) => {
            let _ = out.send((seq, protocol::render_snapshots(&server.snapshots())));
            LineOutcome::Continue
        }
        Ok(Request::Shutdown) => {
            let _ = out.send((seq, protocol::render_draining()));
            LineOutcome::Shutdown
        }
        Ok(Request::Call { fn_name, input, id }) => {
            let reply_out = out.clone();
            let reply_id = id.clone();
            let submitted = server.submit(
                &fn_name,
                input,
                Box::new(move |r: Reply| {
                    let line = match &r.result {
                        Ok(v) => protocol::render_output(reply_id.as_ref(), v),
                        Err(e) => protocol::render_error(reply_id.as_ref(), e),
                    };
                    let _ = reply_out.send((seq, line));
                }),
            );
            if let Err(e) = submitted {
                let _ = out.send((seq, protocol::render_error(id.as_ref(), &e)));
            }
            LineOutcome::Continue
        }
    }
}

/// Writes `(seq, line)` pairs in strictly increasing `seq` order,
/// buffering lines that arrive early.  Runs until every sender is gone,
/// then flushes; returns the writer on exit.
fn ordered_writer<W: Write>(rx: Receiver<(u64, String)>, mut w: W) -> std::io::Result<W> {
    let mut next: u64 = 0;
    let mut pending: HashMap<u64, String> = HashMap::new();
    while let Ok((seq, line)) = rx.recv() {
        pending.insert(seq, line);
        while let Some(line) = pending.remove(&next) {
            w.write_all(line.as_bytes())?;
            w.write_all(b"\n")?;
            next += 1;
        }
        if pending.is_empty() {
            w.flush()?;
        }
    }
    w.flush()?;
    Ok(w)
}

/// The longest request line a connection may send — what one client can
/// make the server buffer.  Hundreds of times the widest line the
/// benchmark sends (`data_wide`, 30 KB).
const MAX_LINE: usize = 8 << 20;

/// One connection's request stream: splits the bytes a front end reads
/// into lines, numbers the requests and hands each to [`handle_line`].
///
/// Lines are split at the byte level — a line that is not UTF-8 is
/// decoded lossily and answered `bad-request` like any other malformed
/// line, never a read error — blank lines are skipped (and not numbered),
/// and only newly fed bytes are scanned for `\n`, so a line costs time
/// linear in its length however many reads deliver it.  A line longer
/// than [`MAX_LINE`] is not buffered: it is answered `bad-request` at its
/// `\n`, in order, and the lines after it are served as usual.
struct RequestLines<'a> {
    server: &'a Arc<Server>,
    out: Sender<(u64, String)>,
    /// The unterminated tail of what was fed so far; holds no `\n` and at
    /// most [`MAX_LINE`] bytes.
    partial: Vec<u8>,
    /// The line being read outgrew [`MAX_LINE`]: its buffered prefix is
    /// gone and the rest of it is dropped as it arrives.
    overlong: bool,
    /// The connection-local number of the next request.
    seq: u64,
}

impl<'a> RequestLines<'a> {
    fn new(server: &'a Arc<Server>, out: Sender<(u64, String)>) -> Self {
        RequestLines {
            server,
            out,
            partial: Vec::new(),
            overlong: false,
            seq: 0,
        }
    }

    /// Handles every line that `bytes` completes and keeps the rest for
    /// the next call.  After [`LineOutcome::Shutdown`] the remaining input
    /// is dropped unread.
    fn feed(&mut self, mut bytes: &[u8]) -> LineOutcome {
        while let Some(pos) = bytes.iter().position(|&b| b == b'\n') {
            self.push(&bytes[..pos]);
            bytes = &bytes[pos + 1..];
            if self.end_line() == LineOutcome::Shutdown {
                return LineOutcome::Shutdown;
            }
        }
        self.push(bytes);
        LineOutcome::Continue
    }

    /// Appends `bytes` to the pending line, or gives the line up once it
    /// is longer than [`MAX_LINE`].
    fn push(&mut self, bytes: &[u8]) {
        if self.overlong || self.partial.len() + bytes.len() > MAX_LINE {
            self.overlong = true;
            self.partial = Vec::new();
        } else {
            self.partial.extend_from_slice(bytes);
        }
    }

    /// Handles the pending tail as a line: at a `\n`, and at EOF — a final
    /// request without a trailing newline is still a request.
    fn end_line(&mut self) -> LineOutcome {
        let line = String::from_utf8_lossy(&self.partial);
        let outcome = if std::mem::take(&mut self.overlong) {
            self.seq += 1;
            let e = ServeError::BadRequest(format!("line longer than {MAX_LINE} bytes"));
            let _ = self
                .out
                .send((self.seq - 1, protocol::render_error(None, &e)));
            LineOutcome::Continue
        } else if line.trim().is_empty() {
            LineOutcome::Continue
        } else {
            self.seq += 1;
            handle_line(self.server, &line, self.seq - 1, &self.out)
        };
        self.partial.clear();
        outcome
    }
}

/// The pipe front end: reads request lines from `reader`, writes ordered
/// response lines to `writer`, and on EOF (or a read error) drains the
/// server — every *admitted* request is answered before this returns.
/// Blank lines are ignored.  The error, if any, is reported after the
/// drain, never instead of it.
pub fn serve_lines<R: BufRead, W: Write + Send + 'static>(
    server: &Arc<Server>,
    mut reader: R,
    writer: W,
) -> std::io::Result<()> {
    let (tx, rx) = channel::<(u64, String)>();
    let writer = std::thread::Builder::new()
        .name("nsc-serve/writer".into())
        .spawn(move || ordered_writer(rx, writer))
        .expect("spawn writer thread");
    let mut lines = RequestLines::new(server, tx);
    let read_err = loop {
        match reader.fill_buf() {
            Ok([]) => {
                lines.end_line();
                break None;
            }
            Ok(chunk) => {
                let n = chunk.len();
                if lines.feed(chunk) == LineOutcome::Shutdown {
                    break None;
                }
                reader.consume(n);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            // Stop reading, but still drain and flush what was admitted.
            Err(e) => break Some(e),
        }
    };
    server.drain();
    // Shards are joined, so every reply closure has run (or been
    // dropped); dropping our sender lets the writer finish and exit.
    drop(lines);
    let write_result = writer.join().expect("writer thread panicked").map(|_| ());
    match read_err {
        Some(e) => Err(e),
        None => write_result,
    }
}

/// The TCP front end: accepts connections on `listener` and serves each
/// on its own thread until some client sends `{"cmd": "shutdown"}`; then
/// stops accepting, waits for open connections to finish, drains the
/// server, and returns.
///
/// The listener is polled (non-blocking accept + sleep) so the shutdown
/// flag is honored promptly; connection handling itself is plain
/// blocking I/O.
pub fn serve_tcp(server: &Arc<Server>, listener: TcpListener) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let active = Arc::new(AtomicUsize::new(0));
    let mut errors: u32 = 0;
    let mut fatal: Option<std::io::Error> = None;
    loop {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                errors = 0;
                let server = Arc::clone(server);
                let shutdown = Arc::clone(&shutdown);
                let active = Arc::clone(&active);
                active.fetch_add(1, Ordering::SeqCst);
                std::thread::Builder::new()
                    .name("nsc-serve/conn".into())
                    .spawn(move || {
                        let _ = serve_connection(&server, stream, &shutdown);
                        active.fetch_sub(1, Ordering::SeqCst);
                    })
                    .expect("spawn connection thread");
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                errors = 0;
                std::thread::sleep(Duration::from_millis(5));
            }
            // Transient accept failures (ECONNABORTED, EMFILE under
            // load, …) must not kill the server: back off and retry.
            // Only a *persistent* failure (~1s of nothing but errors)
            // stops the accept loop — and even then the server drains,
            // so already-admitted requests are still answered.
            Err(e) => {
                errors += 1;
                if errors >= 200 {
                    fatal = Some(e);
                    shutdown.store(true, Ordering::SeqCst);
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
    // Let in-flight connections finish before draining the shards, so
    // their queued requests are answered through open sockets.
    while active.load(Ordering::SeqCst) > 0 {
        std::thread::sleep(Duration::from_millis(5));
    }
    server.drain();
    match fatal {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Serves one TCP connection; returns when the client closes, errors,
/// requests shutdown (which also flips the accept loop's flag), or
/// another connection's shutdown request flips the flag — reads run
/// under a short timeout so an *idle* connection notices the flag
/// promptly instead of pinning the accept loop's drain forever.
fn serve_connection(
    server: &Arc<Server>,
    mut stream: TcpStream,
    shutdown: &AtomicBool,
) -> std::io::Result<()> {
    use std::io::Read;

    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(Duration::from_millis(100)))?;
    let write_half = stream.try_clone()?;
    let (tx, rx) = channel::<(u64, String)>();
    let writer = std::thread::Builder::new()
        .name("nsc-serve/conn-writer".into())
        .spawn(move || ordered_writer(rx, write_half))
        .expect("spawn connection writer");
    // Timed reads straight off the socket: `BufRead::read_line`'s buffer
    // contents are unspecified after an error, and a read timeout is a
    // routine event here, not an error.
    let mut lines = RequestLines::new(server, tx);
    let mut chunk = [0u8; 4096];
    while !shutdown.load(Ordering::SeqCst) {
        let n = match stream.read(&mut chunk) {
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue; // idle: re-check the shutdown flag
            }
            Err(_) => break, // client went away mid-line
        };
        // `0` is EOF, where a trailing shutdown command still counts.
        let outcome = match n {
            0 => lines.end_line(),
            n => lines.feed(&chunk[..n]),
        };
        if outcome == LineOutcome::Shutdown {
            shutdown.store(true, Ordering::SeqCst);
        }
        if n == 0 {
            break;
        }
    }
    drop(lines);
    // Wait for every in-flight reply on this connection to be written —
    // this is what makes shutdown graceful per connection.  The shards
    // still hold reply senders for queued requests; the writer exits
    // when the last one is used or dropped.
    let _ = writer.join().expect("connection writer panicked");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServeConfig;
    use nsc_core::ast as a;
    use nsc_core::types::Type;

    fn test_server() -> Arc<Server> {
        let mut s = Server::new(ServeConfig::default());
        let sq = a::map(a::lam(
            "x",
            a::add(a::mul(a::var("x"), a::var("x")), a::nat(1)),
        ));
        let double = a::map(a::lam("x", a::add(a::var("x"), a::var("x"))));
        s.register("sq1", &sq, &Type::seq(Type::Nat));
        s.register("double", &double, &Type::seq(Type::Nat));
        Arc::new(s)
    }

    #[test]
    fn serve_lines_answers_in_request_order_across_shards() {
        let server = test_server();
        let input = "\
{\"fn\": \"sq1\", \"input\": \"[1, 2]\", \"id\": 0}\n\
{\"fn\": \"double\", \"input\": \"[1, 2]\", \"id\": 1}\n\
\n\
{\"fn\": \"sq1\", \"input\": \"[3]\", \"id\": 2}\n\
{\"fn\": \"missing\", \"input\": \"[]\", \"id\": 3}\n\
not json at all\n\
{\"fn\": \"sq1\", \"id\": 8}\n\
{\"fn\": \"sq1\", \"input\": \"[1]\", \"backend\": \"gpu\", \"id\": \"x\"}\n";
        let out = shared_buffer();
        serve_lines(&server, input.as_bytes(), out.clone()).unwrap();
        let text = out.take();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 7, "{text}");
        assert_eq!(lines[0], r#"{"id": 0, "output": "[2, 5]"}"#);
        assert_eq!(lines[1], r#"{"id": 1, "output": "[2, 4]"}"#);
        assert_eq!(lines[2], r#"{"id": 2, "output": "[10]"}"#);
        assert!(
            lines[3].contains("\"kind\": \"unknown-fn\""),
            "{}",
            lines[3]
        );
        assert!(
            lines[4].contains("\"kind\": \"bad-request\"") && !lines[4].contains("\"id\""),
            "{}",
            lines[4]
        );
        // A bad request that is still a JSON object echoes its scalar id.
        assert_eq!(
            lines[5],
            r#"{"error": "bad request: missing field `input`", "id": 8, "kind": "bad-request"}"#
        );
        assert!(
            lines[6].contains("\"id\": \"x\"") && lines[6].contains("\"kind\": \"bad-request\""),
            "{}",
            lines[6]
        );
    }

    #[test]
    fn serve_lines_metrics_and_shutdown() {
        let server = test_server();
        let input = "\
{\"fn\": \"sq1\", \"input\": \"[2]\"}\n\
{\"cmd\": \"metrics\"}\n\
{\"cmd\": \"shutdown\"}\n\
{\"fn\": \"sq1\", \"input\": \"[9]\"}\n";
        let out = shared_buffer();
        serve_lines(&server, input.as_bytes(), out.clone()).unwrap();
        let text = out.take();
        let lines: Vec<&str> = text.lines().collect();
        // The post-shutdown request line is never read.
        assert_eq!(lines.len(), 3, "{text}");
        assert_eq!(lines[0], r#"{"output": "[5]"}"#);
        assert!(lines[1].contains("\"snapshots\": ["), "{}", lines[1]);
        assert_eq!(lines[2], r#"{"ok": "draining"}"#);
        // serve_lines drained the server.
        assert_eq!(
            server
                .submit("sq1", "[1]".into(), Box::new(|_| {}))
                .unwrap_err()
                .kind(),
            "shutdown"
        );
    }

    /// There is one machine: on one connection, a call naming the `par`
    /// backend is answered `bad-request` in its place, and the calls
    /// around it — one naming `seq`, one naming none — are served.
    #[test]
    fn a_par_backend_request_is_refused_in_order() {
        use std::io::Read;

        let server = test_server();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
        let addr = listener.local_addr().unwrap();
        let serving = std::thread::spawn(move || serve_tcp(&server, listener).unwrap());
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(
                b"{\"fn\": \"sq1\", \"input\": \"[1, 2]\", \"id\": 0}\n\
                  {\"fn\": \"sq1\", \"input\": \"[3]\", \"backend\": \"par\", \"id\": 1}\n\
                  {\"fn\": \"double\", \"input\": \"[4]\", \"backend\": \"seq\", \"id\": 2}\n",
            )
            .unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut replies = String::new();
        stream.read_to_string(&mut replies).unwrap();
        let mut stop = TcpStream::connect(addr).unwrap();
        stop.write_all(b"{\"cmd\": \"shutdown\"}").unwrap();
        drop(stop);
        serving.join().expect("accept loop exits after shutdown");

        let lines: Vec<&str> = replies.lines().collect();
        assert_eq!(
            lines,
            [
                r#"{"id": 0, "output": "[2, 5]"}"#,
                r#"{"error": "bad request: `backend` must be \"seq\", the one machine", "id": 1, "kind": "bad-request"}"#,
                r#"{"id": 2, "output": "[8]"}"#,
            ],
            "{replies}"
        );
    }

    /// Both fronts split lines with the same rules: one byte stream —
    /// two requests in one segment, a request split across three, a line
    /// that is not UTF-8, a blank line, a line twice [`MAX_LINE`], a final
    /// request with no `\n` — gets the same reply bytes from the pipe
    /// front and from a TCP connection.
    #[test]
    fn both_fronts_answer_one_byte_stream_identically() {
        use std::io::Read;

        let overlong = vec![b'x'; 2 * MAX_LINE];
        let segments: [&[u8]; 9] = [
            b"{\"fn\": \"sq1\", \"input\": \"[1, 2]\", \"id\": 0}\n\
              {\"fn\": \"double\", \"input\": \"[4]\", \"id\": 1}\n",
            b"{\"fn\": \"sq1\", \"in",
            b"put\": \"[3]\",",
            b" \"id\": 2}\n",
            b"\xff\xfe\n",
            b"\n  \r\n",
            &overlong,
            b"\n",
            b"{\"fn\": \"double\", \"input\": \"[5]\", \"id\": 3}",
        ];

        let out = shared_buffer();
        // A chain of slices is a `BufRead` that yields them one at a time
        // — a pipe whose writer flushed after each segment.
        let [s0, s1, s2, s3, s4, s5, s6, s7, s8] = segments;
        let pipe = s0
            .chain(s1)
            .chain(s2)
            .chain(s3)
            .chain(s4)
            .chain(s5)
            .chain(s6)
            .chain(s7)
            .chain(s8);
        serve_lines(&test_server(), pipe, out.clone()).expect("a non-UTF-8 line is not an error");
        let piped = out.take();

        let server = test_server();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
        let addr = listener.local_addr().unwrap();
        let serving = std::thread::spawn(move || serve_tcp(&server, listener).unwrap());
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        // One packet per segment; how the server's reads then cut the
        // stream is up to the kernel, and must not matter.
        for segment in segments {
            stream.write_all(segment).unwrap();
        }
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut over_tcp = String::new();
        stream.read_to_string(&mut over_tcp).unwrap();
        let mut stop = TcpStream::connect(addr).unwrap();
        stop.write_all(b"{\"cmd\": \"shutdown\"}").unwrap();
        drop(stop);
        serving.join().expect("accept loop exits after shutdown");

        assert_eq!(piped, over_tcp);
        let lines: Vec<&str> = piped.lines().collect();
        assert_eq!(lines.len(), 6, "{piped}");
        assert_eq!(lines[0], r#"{"id": 0, "output": "[2, 5]"}"#);
        assert_eq!(lines[1], r#"{"id": 1, "output": "[8]"}"#);
        assert_eq!(lines[2], r#"{"id": 2, "output": "[10]"}"#);
        assert!(
            lines[3].contains("\"kind\": \"bad-request\""),
            "{}",
            lines[3]
        );
        assert_eq!(
            lines[4],
            r#"{"error": "bad request: line longer than 8388608 bytes", "kind": "bad-request"}"#
        );
        assert_eq!(lines[5], r#"{"id": 3, "output": "[10]"}"#);
    }

    /// An unterminated line costs the server at most [`MAX_LINE`] bytes
    /// however much of it arrives: past the cap nothing is buffered, and
    /// the one reply is sent when the line ends.
    #[test]
    fn an_overlong_line_is_dropped_not_buffered() {
        let server = test_server();
        let (tx, rx) = channel();
        let mut lines = RequestLines::new(&server, tx);
        let read = [b'x'; 4096];
        for _ in 0..2 * MAX_LINE / read.len() {
            lines.feed(&read);
            assert!(lines.partial.len() <= MAX_LINE);
        }
        assert!(lines.overlong && lines.partial.capacity() == 0);
        assert!(rx.try_recv().is_err(), "no reply before the line ends");
        lines.feed(b"\n");
        let (seq, reply) = rx.try_recv().expect("answered at its newline");
        assert!(seq == 0 && reply.contains("bad-request"), "{reply}");
        assert!(!lines.overlong);
        server.drain();
    }

    #[test]
    fn ordered_writer_reorders_early_arrivals() {
        let (tx, rx) = channel();
        for seq in [2u64, 0, 1] {
            tx.send((seq, format!("line{seq}"))).unwrap();
        }
        drop(tx);
        let out = ordered_writer(rx, Vec::new()).unwrap();
        assert_eq!(String::from_utf8(out).unwrap(), "line0\nline1\nline2\n");
    }

    // A Write handle tests can keep after serve_lines takes ownership.
    #[derive(Clone)]
    struct SharedBuf(Arc<std::sync::Mutex<Vec<u8>>>);

    fn shared_buffer() -> SharedBuf {
        SharedBuf(Arc::new(std::sync::Mutex::new(Vec::new())))
    }

    impl SharedBuf {
        fn take(&self) -> String {
            String::from_utf8(std::mem::take(&mut self.0.lock().unwrap())).unwrap()
        }
    }

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
}
