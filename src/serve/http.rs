//! The wire layer: a deliberately minimal HTTP/1.1 server on
//! `std::net::TcpListener`, answered by a fixed-size acceptor pool.
//!
//! `--serve-threads N` acceptor threads block in `accept` on clones of
//! one listener; each connection is **persistent**: the handler loops,
//! serving requests until the client asks to close, the
//! per-connection request cap (`--max-requests-per-conn`) is reached,
//! the idle timeout (`--timeout-ms`) expires between requests, or the
//! server shuts down. `Connection: keep-alive`/`close` is honored with
//! the HTTP/1.1 default (keep-alive); the buffered reader survives
//! across requests, so requests the client pipelined back-to-back are
//! already in the buffer and are served in order. Each response leaves
//! as one write (head + body; or head, each chunk, and the terminal
//! chunk) on a socket with `TCP_NODELAY` set, so no segment of it ever
//! waits ~40 ms on the client's delayed ACK. Per-connection
//! read/write timeouts and a request-size cap mean a stalled or
//! hostile client can only ever wedge its own connection. No TLS, no
//! dependencies — exactly enough protocol for a scenario client, in
//! the same no-dependencies spirit as the rest of the workspace. The
//! endpoints:
//!
//! | method + path                     | behavior |
//! |-----------------------------------|----------|
//! | `POST /run`                       | body = spec JSON; answers the run report (cache hit or fresh run) |
//! | `GET /stats`                      | counters, queue depths, cache size, latency/batch histograms, as JSON |
//! | `GET /stats/prom`                 | the same metrics as Prometheus text exposition (version 0.0.4) |
//! | `GET /result/<key>`               | re-read a cached report by its 16-hex key |
//! | `GET /result/<key>/trajectory.xyz`| stream a cached trajectory (chunked, never buffered whole) |
//! | `POST /shutdown`                  | acknowledge, then drain acceptors *and* idle persistent connections, and exit |
//!
//! Every `POST /run` answer carries `X-Wafer-Key` (the spec's canonical
//! cache key) and `X-Wafer-Cache: hit|miss|coalesced`. The *body* is
//! the run's `report.txt` bytes in every case — byte-identical whether
//! the run was fresh, served from disk, or coalesced onto another
//! connection's in-flight run, which `tests/serve_stress.rs` asserts
//! under concurrency. A miss is answered with chunked transfer
//! encoding, each report fragment sent as the physics produces it; the
//! de-chunked body is still byte-identical to a hit.
//!
//! Concurrency discipline: the [`Scheduler`] behind one mutex is the
//! single coordination point. A request is a hit, coalesces onto the
//! in-flight run for its key, or is run and streamed by the worker that
//! admitted it — outside the lock, as a batch of one — which then
//! completes the job, filling the [`JobCell`] that coalesced waiters
//! block on. A run's key holds its cell from admission to completion,
//! so there is one engine run per unique in-flight spec, no exceptions,
//! at any pool width.

use std::collections::HashMap;
use std::fs::File;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use super::cache::{is_valid_key, ResultCache};
use super::metrics::{ServeMetrics, TraceEvent};
use super::queue::Job;
use super::scheduler::{run_spec_streaming, Disposition, JobCell, Scheduler};
use crate::json::Value;
use crate::scenario::ScenarioSpec;

/// Cap on the request line + headers, together.
const MAX_HEAD_BYTES: u64 = 8 * 1024;

/// Largest accepted request body; bigger declared bodies are answered
/// 413 without being read.
const MAX_BODY_BYTES: usize = 1 << 20;

/// File-streaming chunk size for `GET /result/<key>/trajectory.xyz`.
const STREAM_CHUNK: usize = 64 * 1024;

/// Tuning knobs of a [`Server`].
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Acceptor/worker threads (`--serve-threads`). Each handles one
    /// connection at a time; the scheduler coalesces duplicate
    /// in-flight specs, so any width preserves one-run-per-spec.
    pub threads: usize,
    /// Per-connection read and write timeout (`--timeout-ms`; zero =
    /// none). A client that stalls mid-first-request is answered 408
    /// and dropped; an idle persistent connection that sends nothing
    /// for this long between requests is closed silently; a client
    /// that stops reading its response is dropped without blocking the
    /// worker.
    pub timeout: Duration,
    /// Requests served per connection before the server closes it
    /// (`--max-requests-per-conn`) — a fairness/leak backstop so one
    /// immortal connection cannot pin a worker forever.
    pub max_requests_per_conn: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            threads: 4,
            timeout: Duration::from_secs(10),
            max_requests_per_conn: 100,
        }
    }
}

/// One parsed HTTP request.
#[derive(Debug)]
struct Request {
    method: String,
    path: String,
    body: Vec<u8>,
    /// Whether the connection may serve another request after this one:
    /// the `Connection` header if present, else the HTTP-version
    /// default (1.1 → keep-alive, everything else → close). A POST
    /// without `Content-Length` always closes: any unframed body bytes
    /// are drained at close, never parsed as a next request.
    keep_alive: bool,
}

/// Why a request could not be parsed.
enum RequestError {
    /// Protocol garbage: answer 400 with the hint.
    Malformed(String),
    /// Declared body over the cap: answer 413.
    TooLarge(String),
    /// The peer stalled past the read timeout: answer 408 best-effort
    /// on a first request; close silently on an idle persistent
    /// connection.
    Timeout,
    /// Connection-level I/O failure: drop silently.
    Io,
}

fn classify(e: io::Error) -> RequestError {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => RequestError::Timeout,
        io::ErrorKind::InvalidData => RequestError::Malformed("request is not valid UTF-8".into()),
        _ => RequestError::Io,
    }
}

/// Read one request off a connection's persistent buffered reader,
/// under the head/body size caps. `Ok(None)` means the peer closed (or
/// the read half was shut down) cleanly between requests. The reader
/// outlives the call, so bytes the client pipelined behind this
/// request stay buffered for the next call.
fn read_request(reader: &mut BufReader<TcpStream>) -> Result<Option<Request>, RequestError> {
    let mut reader = reader.by_ref().take(MAX_HEAD_BYTES);
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        Err(e) => return Err(classify(e)),
    }
    if !line.ends_with('\n') {
        // The peer hung up mid-line, or the line overran the head cap.
        return Err(RequestError::Malformed(
            "truncated or oversized request line".into(),
        ));
    }
    let mut parts = line.split_whitespace();
    let (method, path) = match (parts.next(), parts.next()) {
        (Some(m), Some(p)) => (m.to_string(), p.to_string()),
        _ => return Err(RequestError::Malformed("malformed request line".into())),
    };
    // HTTP/1.1 defaults to keep-alive; 1.0 (or a missing version)
    // defaults to close. The Connection header overrides either way.
    let http11 = parts
        .next()
        .is_some_and(|v| v.eq_ignore_ascii_case("HTTP/1.1"));
    let mut content_length: Option<usize> = None;
    let mut connection: Option<String> = None;
    loop {
        let mut header = String::new();
        match reader.read_line(&mut header) {
            Ok(0) => {
                return Err(RequestError::Malformed(
                    "connection closed mid-headers".into(),
                ))
            }
            Ok(_) => {}
            Err(e) => return Err(classify(e)),
        }
        if !header.ends_with('\n') {
            return Err(RequestError::Malformed(
                "headers truncated or over the size cap".into(),
            ));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                // Duplicate (even agreeing) Content-Length headers are
                // rejected outright: under pipelining, body-length
                // ambiguity desyncs the whole request stream.
                if content_length.is_some() {
                    return Err(RequestError::Malformed(
                        "duplicate Content-Length header".into(),
                    ));
                }
                content_length = match value.trim().parse() {
                    Ok(n) => Some(n),
                    Err(_) => return Err(RequestError::Malformed("invalid Content-Length".into())),
                };
            } else if name.eq_ignore_ascii_case("connection") {
                connection = Some(value.trim().to_ascii_lowercase());
            }
        }
    }
    // A POST without Content-Length has, per HTTP/1.1, no body — but
    // a sloppy client may have sent one anyway, and those unframed
    // bytes must never be parsed as the next pipelined request. Serve
    // the empty-body request, then force the connection closed (the
    // lingering close drains whatever followed).
    let unframed_post = content_length.is_none() && method == "POST";
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(RequestError::TooLarge(format!(
            "request body of {content_length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
        )));
    }
    // The head cap has served its purpose; re-arm the limit for the body.
    reader.set_limit(content_length as u64);
    let mut body = vec![0u8; content_length];
    if let Err(e) = reader.read_exact(&mut body) {
        return Err(match e.kind() {
            io::ErrorKind::UnexpectedEof => {
                RequestError::Malformed("request body truncated".into())
            }
            _ => classify(e),
        });
    }
    let keep_alive = !unframed_post
        && match connection.as_deref() {
            Some("close") => false,
            Some("keep-alive") => true,
            _ => http11,
        };
    Ok(Some(Request {
        method,
        path,
        body,
        keep_alive,
    }))
}

/// How a response body is delimited.
enum Framing {
    /// `Content-Length: n`.
    Length(usize),
    /// `Transfer-Encoding: chunked`.
    Chunked,
}

/// Render a response head — status line, `Content-Type`, the framing
/// header, `Connection`, the `extra` headers verbatim, and the blank
/// line — onto `out`. One renderer for both framings.
fn render_head(
    out: &mut Vec<u8>,
    status: u16,
    reason: &str,
    content_type: &str,
    framing: Framing,
    extra: &[(&str, &str)],
    keep: bool,
) {
    // Writing into a Vec cannot fail.
    let _ = write!(
        out,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n"
    );
    let _ = match framing {
        Framing::Length(n) => write!(out, "Content-Length: {n}\r\n"),
        Framing::Chunked => write!(out, "Transfer-Encoding: chunked\r\n"),
    };
    let _ = write!(
        out,
        "Connection: {}\r\n",
        if keep { "keep-alive" } else { "close" }
    );
    for (name, value) in extra {
        let _ = write!(out, "{name}: {value}\r\n");
    }
    out.extend_from_slice(b"\r\n");
}

/// Write one fixed-length response — head and body in one buffer, one
/// `write_all` — and flush. `extra` headers ride along verbatim; `keep`
/// picks the `Connection` header.
fn respond<W: Write>(
    stream: &mut W,
    status: u16,
    reason: &str,
    content_type: &str,
    extra: &[(&str, &str)],
    keep: bool,
    body: &[u8],
) -> io::Result<()> {
    let mut out = Vec::with_capacity(256 + body.len());
    let framing = Framing::Length(body.len());
    render_head(&mut out, status, reason, content_type, framing, extra, keep);
    out.extend_from_slice(body);
    stream.write_all(&out)?;
    stream.flush()
}

/// A 200 chunked-transfer response body (self-delimiting, so keep-alive
/// survives streaming) that survives the client vanishing: the first
/// write error marks the writer dead and every later chunk is silently
/// dropped, so a mid-response disconnect never aborts the physics run
/// it is watching. The head, each chunk (size line + data + CRLF), and
/// the terminal chunk each leave as one write, framed in a buffer the
/// writer reuses.
struct ChunkedWriter<W: Write> {
    stream: W,
    buf: Vec<u8>,
    alive: bool,
}

impl<W: Write> ChunkedWriter<W> {
    /// Send the chunked head; a failed head leaves the writer dead.
    fn start(stream: W, extra: &[(&str, &str)], keep: bool) -> Self {
        let mut writer = Self {
            stream,
            buf: Vec::new(),
            alive: true,
        };
        render_head(
            &mut writer.buf,
            200,
            "OK",
            "text/plain",
            Framing::Chunked,
            extra,
            keep,
        );
        writer.send();
        writer
    }

    fn chunk(&mut self, data: &[u8]) {
        if !self.alive || data.is_empty() {
            return;
        }
        self.buf.clear();
        let _ = write!(self.buf, "{:x}\r\n", data.len());
        self.buf.extend_from_slice(data);
        self.buf.extend_from_slice(b"\r\n");
        self.send();
    }

    /// Mark the body unfinishable (e.g. a source read failed): the
    /// terminal chunk is withheld so the client sees the truncation.
    fn die(&mut self) {
        self.alive = false;
    }

    fn finish(&mut self) {
        if self.alive {
            self.buf.clear();
            self.buf.extend_from_slice(b"0\r\n\r\n");
            self.send();
        }
    }

    /// Write the framed buffer and flush; any error kills the writer.
    fn send(&mut self) {
        self.alive = self
            .stream
            .write_all(&self.buf)
            .and_then(|()| self.stream.flush())
            .is_ok();
    }
}

/// Answer a JSON error, `{"error":"<hint>"}` and a newline, with the
/// status's reason phrase, as one fixed-length response.
fn respond_error<W: Write>(stream: &mut W, status: u16, keep: bool, hint: &str) -> io::Result<()> {
    let reason = match status {
        400 => "Bad Request",
        404 => "Not Found",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        _ => unreachable!("no JSON error answer uses status {status}"),
    };
    let mut body = Value::Obj(vec![("error".into(), Value::Str(hint.into()))])
        .render()
        .into_bytes();
    body.push(b'\n');
    respond(stream, status, reason, "application/json", &[], keep, &body)
}

/// The server state every acceptor thread shares.
struct Shared {
    scheduler: Mutex<Scheduler>,
    /// The scheduler's metrics aggregate, aliased here so acceptor
    /// threads can record connections and service time without taking
    /// the scheduler lock.
    metrics: Arc<ServeMetrics>,
    config: ServeConfig,
    shutdown: AtomicBool,
    addr: SocketAddr,
    /// A read-half handle of every live connection, keyed by a serial
    /// id. `POST /shutdown` shuts down each registered read half, so a
    /// worker parked in a blocking read on an idle persistent
    /// connection wakes with EOF and drains — write halves are left
    /// intact so in-flight responses still finish.
    conns: Mutex<HashMap<u64, TcpStream>>,
    next_conn: AtomicU64,
}

impl Shared {
    /// The scheduler lock, recovered if a panicking thread poisoned it:
    /// the scheduler is never left mid-mutation across a run (runs
    /// happen outside the lock), so the inner state is always usable.
    fn scheduler(&self) -> MutexGuard<'_, Scheduler> {
        self.scheduler
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn conns(&self) -> MutexGuard<'_, HashMap<u64, TcpStream>> {
        self.conns
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// The scenario server: a bound listener, a worker-pool configuration,
/// and the shared [`Scheduler`].
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.shared.addr)
            .field("config", &self.shared.config)
            .finish()
    }
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:7878`; port 0 picks a free port)
    /// over an unbounded result cache rooted at `cache_root`, with the
    /// default [`ServeConfig`].
    pub fn bind(addr: &str, cache_root: &Path) -> io::Result<Self> {
        Self::bind_with(addr, ResultCache::open(cache_root)?, ServeConfig::default())
    }

    /// Bind `addr` over an opened (possibly budget-bounded) cache with
    /// an explicit configuration and fresh (trace-less) metrics sized
    /// to the acceptor pool.
    pub fn bind_with(addr: &str, cache: ResultCache, config: ServeConfig) -> io::Result<Self> {
        let metrics = Arc::new(ServeMetrics::new(config.threads.max(1)));
        Self::bind_metrics(addr, cache, config, metrics)
    }

    /// [`Server::bind_with`] sharing an externally created metrics
    /// aggregate — the CLI passes one carrying the `--trace` writer.
    pub fn bind_metrics(
        addr: &str,
        cache: ResultCache,
        config: ServeConfig,
        metrics: Arc<ServeMetrics>,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Self {
            listener,
            shared: Arc::new(Shared {
                scheduler: Mutex::new(Scheduler::with_metrics(cache, Arc::clone(&metrics))),
                metrics,
                config,
                shutdown: AtomicBool::new(false),
                addr,
                conns: Mutex::new(HashMap::new()),
                next_conn: AtomicU64::new(0),
            }),
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Run the acceptor pool until a `POST /shutdown` arrives, then
    /// drain: every worker finishes its in-flight connection (idle
    /// persistent connections are woken and closed) before this
    /// returns, and the cache's recency order is persisted.
    /// Connection-level I/O errors drop that connection and the pool
    /// continues.
    pub fn serve(&mut self) -> io::Result<()> {
        let extra = self.shared.config.threads.max(1) - 1;
        let mut clones = Vec::with_capacity(extra);
        for _ in 0..extra {
            clones.push(self.listener.try_clone()?);
        }
        std::thread::scope(|scope| {
            for (i, listener) in clones.iter().enumerate() {
                let shared = &self.shared;
                scope.spawn(move || acceptor_loop(listener, shared, i + 1));
            }
            acceptor_loop(&self.listener, &self.shared, 0);
        });
        // Clean shutdown: persist any recency reordering read hits
        // left pending (the deferred-persistence contract).
        self.shared.scheduler().flush_cache()
    }
}

fn acceptor_loop(listener: &TcpListener, shared: &Shared, acceptor: usize) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) => continue,
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            // A shutdown wake pill (or a client racing the shutdown).
            return;
        }
        shared.metrics.connection(acceptor);
        shared
            .metrics
            .trace(TraceEvent::new("accepted").with("acceptor", acceptor as u64));
        handle_connection(stream, shared);
    }
}

/// Register the connection's read half for shutdown wake-up, run the
/// request loop, deregister.
fn handle_connection(stream: TcpStream, shared: &Shared) {
    let id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
    if let Ok(read_half) = stream.try_clone() {
        shared.conns().insert(id, read_half);
    }
    serve_connection(stream, shared);
    shared.conns().remove(&id);
}

/// Close a connection politely after the final response: send FIN
/// first, then drain (bounded) whatever the client has already sent.
/// Dropping a socket with unread received bytes — a request body we
/// rejected mid-headers, or a pipelined request behind a close — makes
/// the kernel answer with RST, which can tear down the response still
/// in flight before the client reads it.
fn lingering_close(stream: &TcpStream) {
    let _ = stream.shutdown(Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let mut sink = [0u8; 4096];
    let mut budget: usize = 64 * 1024;
    while budget > 0 {
        match (&mut &*stream).read(&mut sink) {
            Ok(0) | Err(_) => return,
            Ok(n) => budget = budget.saturating_sub(n),
        }
    }
}

/// The persistent-connection request loop: one buffered reader for the
/// connection's whole life (so pipelined requests stay buffered, in
/// order), one response per request, until close/cap/idle/shutdown.
fn serve_connection(mut stream: TcpStream, shared: &Shared) {
    let config = &shared.config;
    // Responses already leave as whole writes, so Nagle's coalescing
    // buys nothing; left on, any segment sent while an earlier one is
    // unacknowledged waits out the client's delayed ACK (~40 ms).
    let _ = stream.set_nodelay(true);
    if !config.timeout.is_zero() {
        let _ = stream.set_read_timeout(Some(config.timeout));
        let _ = stream.set_write_timeout(Some(config.timeout));
    }
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut served = 0u64;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        // Bytes already buffered before we even ask = the client
        // pipelined this request behind the previous one.
        let pipelined = !reader.buffer().is_empty();
        match read_request(&mut reader) {
            Ok(None) => return, // clean close between requests
            Ok(Some(request)) => {
                if served == 1 {
                    shared.metrics.reused_connection();
                    shared.metrics.trace(TraceEvent::new("reused"));
                }
                if pipelined {
                    shared.metrics.pipelined_request();
                }
                served += 1;
                let keep = request.keep_alive
                    && served < config.max_requests_per_conn
                    && !shared.shutdown.load(Ordering::SeqCst);
                dispatch(&request, &mut stream, shared, keep);
                if !keep || shared.shutdown.load(Ordering::SeqCst) {
                    return lingering_close(&stream);
                }
            }
            Err(RequestError::Malformed(hint)) => {
                let _ = respond_error(&mut stream, 400, false, &hint);
                return lingering_close(&stream);
            }
            Err(RequestError::TooLarge(hint)) => {
                let _ = respond_error(&mut stream, 413, false, &hint);
                return lingering_close(&stream);
            }
            Err(RequestError::Timeout) => {
                // A stall mid-first-request earns a 408; an idle
                // persistent connection just closes silently.
                if served == 0 {
                    let _ = respond_error(&mut stream, 408, false, "request timed out");
                    return lingering_close(&stream);
                }
                return;
            }
            Err(RequestError::Io) => return,
        }
    }
}

fn dispatch(request: &Request, stream: &mut TcpStream, shared: &Shared, keep: bool) {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/run") => post_run(request, stream, shared, keep),
        ("GET", "/stats") => {
            let mut body = shared.scheduler().stats_json().into_bytes();
            body.push(b'\n');
            let _ = respond(stream, 200, "OK", "application/json", &[], keep, &body);
        }
        ("GET", "/stats/prom") => {
            let body = shared.scheduler().prometheus_text().into_bytes();
            let _ = respond(
                stream,
                200,
                "OK",
                "text/plain; version=0.0.4",
                &[],
                keep,
                &body,
            );
        }
        ("GET", path) if path.starts_with("/result/") => {
            get_result(&path["/result/".len()..], stream, shared, keep);
        }
        ("POST", "/shutdown") => {
            let _ = respond(
                stream,
                200,
                "OK",
                "text/plain",
                &[],
                false,
                b"shutting down\n",
            );
            shared.shutdown.store(true, Ordering::SeqCst);
            // Wake idle persistent connections: shutting down each
            // registered read half turns a parked blocking read into
            // EOF; the write halves stay intact so in-flight responses
            // finish.
            for conn in shared.conns().values() {
                let _ = conn.shutdown(Shutdown::Read);
            }
            // One wake pill per acceptor: each blocked `accept` returns,
            // re-checks the flag, and exits; surplus pills die with the
            // listener.
            for _ in 0..shared.config.threads.max(1) {
                let _ = TcpStream::connect(shared.addr);
            }
        }
        _ => {
            let _ = respond_error(
                stream,
                404,
                keep,
                "no such endpoint (try POST /run, GET /stats, GET /stats/prom, \
                 GET /result/<key>, GET /result/<key>/trajectory.xyz, POST /shutdown)",
            );
        }
    }
}

/// `POST /run`: admit the spec and answer with the report bytes.
fn post_run(request: &Request, stream: &mut TcpStream, shared: &Shared, keep: bool) {
    let spec = std::str::from_utf8(&request.body)
        .map_err(|_| "request body is not UTF-8".to_string())
        .and_then(|text| ScenarioSpec::from_json(text).map_err(|e| e.to_string()));
    let spec = match spec {
        Ok(spec) => spec,
        Err(hint) => {
            let _ = respond_error(stream, 400, keep, &hint);
            return;
        }
    };
    // The service clock covers admission through response flush, for
    // every valid request — so at quiescence the service histogram's
    // count equals the `requests` counter.
    let started = Instant::now();
    // One lock acquisition admits the request and, for a new run,
    // starts it as this worker's batch of one.
    let (key, disposition) = {
        let mut sched = shared.scheduler();
        let submitted = sched.submit(spec);
        if let Disposition::Run(job) = &submitted.1 {
            sched.start_batch(std::slice::from_ref(job));
        }
        submitted
    };
    match disposition {
        Disposition::CacheHit(report) => {
            let _ = respond(
                stream,
                200,
                "OK",
                "text/plain",
                &[("X-Wafer-Cache", "hit"), ("X-Wafer-Key", &key)],
                keep,
                report.as_bytes(),
            );
        }
        Disposition::Coalesced(cell) => answer_from_cell(&key, &cell, stream, keep),
        Disposition::Run(job) => run_and_stream(&job, stream, shared, keep),
    }
    shared.metrics.service.record_duration(started.elapsed());
}

/// Answer a coalesced request once the run it rides on settles.
fn answer_from_cell(key: &str, cell: &JobCell, stream: &mut TcpStream, keep: bool) {
    match cell.wait() {
        Some(artifacts) => {
            let _ = respond(
                stream,
                200,
                "OK",
                "text/plain",
                &[("X-Wafer-Cache", "coalesced"), ("X-Wafer-Key", key)],
                keep,
                artifacts.report.as_bytes(),
            );
        }
        None => {
            let _ = respond_error(stream, 500, keep, "scenario run failed; resubmit");
        }
    }
}

/// Run this worker's own job and stream its report to the client as
/// chunked transfer encoding, fragment by fragment, while the physics
/// is still running. A client that disconnects mid-response only
/// silences the stream — the run still completes and its result is
/// cached and published, because coalesced waiters depend on it.
fn run_and_stream(job: &Job, stream: &mut TcpStream, shared: &Shared, keep: bool) {
    let extra = [("X-Wafer-Cache", "miss"), ("X-Wafer-Key", job.key.as_str())];
    let mut writer = ChunkedWriter::start(stream, &extra, keep);
    let pass = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        run_spec_streaming(&job.spec, &mut |frag| writer.chunk(frag.as_bytes()))
    }));
    match outcome {
        Ok(artifacts) => {
            shared.metrics.batch_pass.record_duration(pass.elapsed());
            shared.metrics.batch_occupancy.record(1);
            // A cache-insert failure (e.g. disk full) still fills the
            // job's cell, so no waiter is ever stranded.
            let _ = shared.scheduler().complete(job, artifacts);
            writer.finish();
            shared
                .metrics
                .trace(TraceEvent::new("streamed").key(&job.key));
        }
        Err(_) => {
            // The run panicked (an invariant break, not a client fault):
            // abandon the job so waiters get a 500 instead of blocking
            // forever, and withhold the terminal chunk so this client
            // sees the truncation.
            shared.scheduler().abandon(&job.key);
            writer.die();
        }
    }
}

/// `GET /result/<key>` and `GET /result/<key>/trajectory.xyz`.
fn get_result(rest: &str, stream: &mut TcpStream, shared: &Shared, keep: bool) {
    let (key, artifact) = match rest.split_once('/') {
        None => (rest, None),
        Some((key, artifact)) => (key, Some(artifact)),
    };
    // Path-traversal hardening: a key is exactly 16 lowercase hex
    // characters, validated before it can touch the filesystem.
    if !is_valid_key(key) {
        let _ = respond_error(
            stream,
            400,
            keep,
            "result keys are exactly 16 lowercase hex characters",
        );
        return;
    }
    match artifact {
        None => {
            let report = shared.scheduler().report(key);
            match report {
                Some(report) => {
                    let _ = respond(
                        stream,
                        200,
                        "OK",
                        "text/plain",
                        &[("X-Wafer-Key", key)],
                        keep,
                        report.as_bytes(),
                    );
                }
                None => {
                    let _ = respond_error(stream, 404, keep, "unknown result key");
                }
            }
        }
        Some("trajectory.xyz") => {
            // Open under the lock, stream outside it: the open handle
            // stays valid even if the entry is evicted mid-stream.
            let file = shared.scheduler().open_trajectory(key);
            match file {
                Some((file, _len)) => {
                    stream_file(file, key, stream, keep);
                    shared.metrics.trace(TraceEvent::new("streamed").key(key));
                }
                None => {
                    let _ = respond_error(
                        stream,
                        404,
                        keep,
                        "no cached trajectory for this key (did the spec set xyz?)",
                    );
                }
            }
        }
        Some(_) => {
            let _ = respond_error(
                stream,
                404,
                keep,
                "unknown artifact (try /result/<key> or /result/<key>/trajectory.xyz)",
            );
        }
    }
}

/// Stream a cached file as a chunked body without ever holding more
/// than one chunk (and its framed copy) in memory. Reading stops once
/// the client has gone.
fn stream_file(mut file: File, key: &str, stream: &mut TcpStream, keep: bool) {
    let mut writer = ChunkedWriter::start(stream, &[("X-Wafer-Key", key)], keep);
    let mut buf = vec![0u8; STREAM_CHUNK];
    while writer.alive {
        match file.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => writer.chunk(&buf[..n]),
            Err(_) => {
                writer.die();
                break;
            }
        }
    }
    writer.finish();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records every byte and counts `write` calls; with `cap` set,
    /// accepts at most that many bytes per call (a short write).
    #[derive(Default)]
    struct Counting {
        bytes: Vec<u8>,
        writes: usize,
        cap: Option<usize>,
    }

    impl Write for Counting {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = self.cap.map_or(buf.len(), |cap| buf.len().min(cap));
            self.bytes.extend_from_slice(&buf[..n]);
            self.writes += 1;
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Fails every write, like a socket whose peer has gone.
    struct Broken;

    impl Write for Broken {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(io::ErrorKind::BrokenPipe.into())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    const KEY: &str = "0123456789abcdef";

    fn text(w: &Counting) -> &str {
        std::str::from_utf8(&w.bytes).unwrap()
    }

    #[test]
    fn a_hit_is_one_write_with_unchanged_bytes() {
        let mut w = Counting::default();
        let extra = [("X-Wafer-Cache", "hit"), ("X-Wafer-Key", KEY)];
        respond(&mut w, 200, "OK", "text/plain", &extra, true, b"report\n").unwrap();
        assert_eq!(w.writes, 1);
        assert_eq!(
            text(&w),
            "HTTP/1.1 200 OK\r\n\
             Content-Type: text/plain\r\n\
             Content-Length: 7\r\n\
             Connection: keep-alive\r\n\
             X-Wafer-Cache: hit\r\n\
             X-Wafer-Key: 0123456789abcdef\r\n\
             \r\n\
             report\n"
        );
    }

    #[test]
    fn a_json_error_is_one_write_with_unchanged_bytes() {
        let mut w = Counting::default();
        respond_error(&mut w, 404, false, "unknown result key").unwrap();
        assert_eq!(w.writes, 1);
        assert_eq!(
            text(&w),
            "HTTP/1.1 404 Not Found\r\n\
             Content-Type: application/json\r\n\
             Content-Length: 31\r\n\
             Connection: close\r\n\
             \r\n\
             {\"error\":\"unknown result key\"}\n"
        );
    }

    #[test]
    fn a_chunked_body_is_one_write_per_head_chunk_and_terminator() {
        let mut w = Counting::default();
        let mut writer = ChunkedWriter::start(&mut w, &[("X-Wafer-Key", KEY)], true);
        assert_eq!(writer.stream.writes, 1, "the head");
        writer.chunk(b"hello ");
        assert_eq!(writer.stream.writes, 2, "one write per chunk");
        writer.chunk(b"");
        assert_eq!(writer.stream.writes, 2, "an empty fragment sends nothing");
        writer.chunk(b"wafer-scale world\n");
        assert_eq!(writer.stream.writes, 3);
        writer.finish();
        assert_eq!(w.writes, 4, "the terminal chunk");
        assert_eq!(
            text(&w),
            "HTTP/1.1 200 OK\r\n\
             Content-Type: text/plain\r\n\
             Transfer-Encoding: chunked\r\n\
             Connection: keep-alive\r\n\
             X-Wafer-Key: 0123456789abcdef\r\n\
             \r\n\
             6\r\nhello \r\n\
             12\r\nwafer-scale world\n\r\n\
             0\r\n\r\n"
        );
    }

    #[test]
    fn short_writes_still_deliver_every_byte() {
        let mut whole = Counting::default();
        let mut short = Counting {
            cap: Some(5),
            ..Counting::default()
        };
        for w in [&mut whole, &mut short] {
            respond(w, 200, "OK", "text/plain", &[], true, b"0123456789").unwrap();
            let mut writer = ChunkedWriter::start(&mut *w, &[], false);
            writer.chunk(&[b'x'; 40]);
            writer.finish();
        }
        assert_eq!(short.bytes, whole.bytes);
        assert!(short.writes > whole.writes);
    }

    #[test]
    fn the_chunk_buffer_is_reused_across_chunks() {
        let mut w = Counting::default();
        let mut writer = ChunkedWriter::start(&mut w, &[], true);
        let data = vec![b'a'; STREAM_CHUNK];
        writer.chunk(&data);
        let capacity = writer.buf.capacity();
        let base = writer.buf.as_ptr();
        for _ in 0..8 {
            writer.chunk(&data);
        }
        assert_eq!(writer.buf.capacity(), capacity);
        assert_eq!(writer.buf.as_ptr(), base, "no reallocation per chunk");
    }

    #[test]
    fn a_dead_writer_drops_chunks_and_withholds_the_terminator() {
        let mut writer = ChunkedWriter::start(Broken, &[], true);
        assert!(!writer.alive, "a failed head kills the writer");
        writer.chunk(b"lost");
        writer.finish();

        let mut w = Counting::default();
        let mut writer = ChunkedWriter::start(&mut w, &[], true);
        writer.chunk(b"part");
        writer.die();
        writer.chunk(b"never");
        writer.finish();
        assert_eq!(w.writes, 2, "head and the one live chunk");
        assert!(text(&w).ends_with("4\r\npart\r\n"));
    }
}
