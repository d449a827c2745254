//! The `serve-mixed` workload: the real `wafer-md serve` on loopback,
//! driven by two closed-loop keep-alive clients.
//!
//! - `seq` sends one request at a time: hits on a small hot set, and
//!   every `MISS_EVERY`-th request a spec never sent before (a miss).
//! - `pipe` sends bursts of `BURST` pipelined hits; a burst built while
//!   `seq` has a miss in flight carries that spec too, so the request
//!   coalesces onto the running job (or hits, if the job has finished).

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use wafer_md::json::Value;
use wafer_md::scenario::ScenarioSpec;
use wafer_md::serve::{run_spec, ResultCache, Scheduler};

use crate::checks::{self, BodyLedger, ServeCounters};
use crate::client::{request_bytes, Conn, Response};
use crate::stats::{median, median_us, quantile, samples_beyond};
use crate::trace::Spans;
use crate::{cpu_time_s, peak_rss_mb, Args, Outcome, OUT_DIR};

const HOT_SET: usize = 4;
const MISS_EVERY: u64 = 8;
/// Divides the server's default 100-request connection cap, so the
/// server's closing response is always the last of a burst.
const BURST: usize = 4;
/// Timesteps of every spec the clients send: a 3 × 3 × 1 miss then runs
/// in about 4–5 ms on a 2-core box, the engine time of the only traffic
/// figures the repository has (docs/OPERATIONS.md, capacity example).
const SPEC_STEPS: u64 = 10;
/// How long the server may take to exit after `POST /shutdown`.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(20);

/// splitmix64: the workload's inputs are a pure function of the seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One spec as the clients send it: a hand-written JSON body (fields in
/// a non-canonical order, defaults omitted) and the key the client
/// computes from it.
#[derive(Clone, Debug)]
struct Spec {
    body: String,
    key: String,
}

impl Spec {
    fn new(species: &str, n: u64, temperature: u64, seed: u64) -> Self {
        let body = format!(
            "{{\"workload\":{{\"nz\":1,\"kind\":\"slab\",\"nx\":{n},\"ny\":{n}}},\
             \"temperature\":{temperature},\"steps\":{SPEC_STEPS},\"species\":\"{species}\",\"seed\":{seed}}}"
        );
        let key = ScenarioSpec::from_json(&body)
            .expect("generated specs are valid")
            .key();
        Self { body, key }
    }

    fn parsed(&self) -> ScenarioSpec {
        ScenarioSpec::from_json(&self.body).expect("generated specs are valid")
    }
}

const SPECIES: [&str; 3] = ["Cu", "W", "Ta"];

fn hot_set(rng: &mut Rng) -> Vec<Spec> {
    (0..HOT_SET)
        .map(|i| {
            Spec::new(
                SPECIES[i % 3],
                3 + (i as u64 % 2),
                100 + rng.below(200),
                rng.below(1 << 20),
            )
        })
        .collect()
}

/// The `i`-th miss: a seed no other spec of the run uses.
fn miss_spec(i: u64, base_seed: u64, rng: &mut Rng) -> Spec {
    Spec::new(
        SPECIES[(i % 3) as usize],
        3,
        100 + rng.below(200),
        base_seed + i,
    )
}

/// What kind of request a response answered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Warmup,
    Hit,
    Miss,
    Burst,
}

struct Record {
    kind: Kind,
    key: String,
    status: u16,
    header_key: Option<String>,
    body: Vec<u8>,
    sent: Instant,
    first_byte: Instant,
    last_byte: Instant,
}

impl Record {
    fn new(kind: Kind, spec: &Spec, sent: Instant, r: Response) -> Self {
        Self {
            kind,
            key: spec.key.clone(),
            status: r.status,
            header_key: r.header("X-Wafer-Key").map(str::to_string),
            body: r.body,
            sent,
            first_byte: r.first_byte,
            last_byte: r.last_byte,
        }
    }

    fn latency_ms(&self) -> f64 {
        (self.last_byte - self.sent).as_secs_f64() * 1e3
    }
}

/// What one client did.
#[derive(Default)]
struct ClientLog {
    records: Vec<Record>,
    /// Pipelined burst latencies, first byte sent to last byte read (ms).
    bursts_ms: Vec<f64>,
    /// Requests sent whose response never arrived.
    lost: u64,
    errors: Vec<String>,
}

/// The server child process. Dropping it kills the server if it has
/// not exited, and waits for it.
struct ServerProc {
    child: Child,
    addr: SocketAddr,
}

impl ServerProc {
    fn spawn(exe: &Path, cache: &Path) -> Result<Self, String> {
        let mut child = Command::new(exe)
            .arg("serve")
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--cache")
            .arg(cache)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        let read = std::io::BufRead::read_line(&mut std::io::BufReader::new(stdout), &mut line);
        let addr = line
            .strip_prefix("listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse::<SocketAddr>().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Self { child, addr }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!(
                    "server did not report its address (got '{}')",
                    line.trim()
                ))
            }
        }
    }

    /// `POST /shutdown`, then wait for the process to exit; on a
    /// timeout or error, kill it and say why.
    fn shutdown(mut self) -> Result<(), String> {
        let asked = Conn::connect(self.addr).and_then(|mut c| c.call("POST", "/shutdown", b""));
        let deadline = Instant::now() + SHUTDOWN_GRACE;
        let result = loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => break Ok(()),
                Ok(Some(status)) => break Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => break Err("server did not exit after POST /shutdown".to_string()),
                Err(e) => break Err(format!("wait for server: {e}")),
            }
        };
        match asked {
            Ok(r) if r.status == 200 => result,
            Ok(r) => result.and(Err(format!("POST /shutdown answered {}", r.status))),
            Err(e) => result.and(Err(format!("POST /shutdown: {e}"))),
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// A keep-alive connection that reconnects after the server's closing
/// response.
struct Client {
    addr: SocketAddr,
    conn: Option<Conn>,
}

impl Client {
    fn conn(&mut self) -> std::io::Result<&mut Conn> {
        if self.conn.is_none() {
            self.conn = Some(Conn::connect(self.addr)?);
        }
        Ok(self.conn.as_mut().expect("just connected"))
    }

    fn post(&mut self, spec: &Spec) -> std::io::Result<(Instant, Response)> {
        let conn = self.conn()?;
        let sent = Instant::now();
        let r = conn.call("POST", "/run", spec.body.as_bytes());
        if r.as_ref().map_or(true, |r| r.close) {
            self.conn = None;
        }
        r.map(|r| (sent, r))
    }
}

/// What both clients share: where to send, the hot set, and until when.
struct Traffic<'a> {
    addr: SocketAddr,
    hot: &'a [Spec],
    deadline: Instant,
    /// The miss `seq` is waiting on, for `pipe` to coalesce onto.
    in_flight: Mutex<Option<Spec>>,
}

impl Traffic<'_> {
    fn hot_pick(&self, rng: &mut Rng) -> Spec {
        self.hot[rng.below(HOT_SET as u64) as usize].clone()
    }

    fn set_in_flight(&self, spec: Option<Spec>) {
        *self.in_flight.lock().expect("in-flight slot") = spec;
    }
}

/// Client `seq`: hot-set hits, with a fresh miss every `MISS_EVERY`-th
/// request, until the deadline. Misses are appended to `misses`.
fn run_seq(
    traffic: &Traffic,
    misses: &mut Vec<Spec>,
    base_seed: u64,
    rng: &mut Rng,
    log: &mut ClientLog,
) {
    let mut client = Client {
        addr: traffic.addr,
        conn: None,
    };
    let mut i = 0u64;
    while Instant::now() < traffic.deadline {
        i += 1;
        let (kind, spec) = if i.is_multiple_of(MISS_EVERY) {
            let spec = miss_spec(misses.len() as u64, base_seed, rng);
            misses.push(spec.clone());
            traffic.set_in_flight(Some(spec.clone()));
            (Kind::Miss, spec)
        } else {
            (Kind::Hit, traffic.hot_pick(rng))
        };
        let answered = client.post(&spec);
        if kind == Kind::Miss {
            traffic.set_in_flight(None);
        }
        match answered {
            Ok((sent, r)) => log.records.push(Record::new(kind, &spec, sent, r)),
            Err(e) => {
                log.lost += 1;
                log.errors.push(format!("seq request: {e}"));
            }
        }
    }
}

/// Client `pipe`: pipelined bursts of hot-set hits until the deadline.
fn run_pipe(traffic: &Traffic, mut rng: Rng) -> ClientLog {
    let mut log = ClientLog::default();
    let mut conn: Option<Conn> = None;
    while Instant::now() < traffic.deadline {
        let mut burst: Vec<Spec> = (0..BURST).map(|_| traffic.hot_pick(&mut rng)).collect();
        if let Some(spec) = traffic.in_flight.lock().expect("in-flight slot").clone() {
            burst[BURST - 1] = spec;
        }
        let bytes: Vec<u8> = burst
            .iter()
            .flat_map(|s| request_bytes("POST", "/run", s.body.as_bytes()))
            .collect();
        let c = match conn.as_mut() {
            Some(c) => c,
            None => match Conn::connect(traffic.addr) {
                Ok(c) => conn.insert(c),
                Err(e) => {
                    log.lost += BURST as u64;
                    log.errors.push(format!("pipe connect: {e}"));
                    continue;
                }
            },
        };
        let sent = Instant::now();
        if let Err(e) = c.send(&bytes) {
            log.lost += BURST as u64;
            log.errors.push(format!("pipe send: {e}"));
            conn = None;
            continue;
        }
        let mut closed = false;
        let mut answered = 0;
        for (j, spec) in burst.iter().enumerate() {
            match c.read_response() {
                Ok(r) => {
                    closed = r.close;
                    answered += 1;
                    log.records.push(Record::new(Kind::Burst, spec, sent, r));
                }
                Err(e) => {
                    log.errors.push(format!("pipe read: {e}"));
                    closed = true;
                }
            }
            if closed {
                if j + 1 < BURST {
                    log.lost += (BURST - answered) as u64;
                    log.errors.push("connection closed mid-burst".into());
                }
                break;
            }
        }
        if answered == BURST {
            let last = log.records.last().expect("a whole burst was recorded");
            log.bursts_ms
                .push((last.last_byte - sent).as_secs_f64() * 1e3);
        }
        if closed {
            conn = None;
        }
    }
    log
}

fn stats_counter(doc: &Value, path: &[&str]) -> f64 {
    let mut v = doc;
    for p in path {
        match v.get(p) {
            Some(next) => v = next,
            None => return 0.0,
        }
    }
    v.as_f64().unwrap_or(0.0)
}

pub fn serve_mixed(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let cache_dir =
        PathBuf::from(OUT_DIR).join(format!("serve-cache-{}-{}", args.seed, std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        out.verdict.fail(format!("create {OUT_DIR}: {e}"));
        return out;
    }
    let exe = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("wafer-md")))
        .unwrap_or_else(|| PathBuf::from("wafer-md"));
    let server = match ServerProc::spawn(&exe, &cache_dir) {
        Ok(s) => s,
        Err(e) => {
            out.verdict.fail(e);
            return out;
        }
    };
    // Set-up is the CPU both processes spent until the server listened:
    // this one up to the spawn, the server from its start.
    let setup_s =
        cpu_time_s(None).unwrap_or(0.0) + cpu_time_s(Some(server.child.id())).unwrap_or(0.0);
    let addr = server.addr;

    let mut rng = Rng(args.seed ^ 0x5eed_5e4e);
    let hot = hot_set(&mut rng);
    let base_seed = 1 << 32 | rng.below(1 << 20) << 12;
    let pipe_rng = Rng(rng.next());

    // Warm-up: each hot spec once, so the timed window's hot requests
    // are hits.
    let mut seq = ClientLog::default();
    {
        let mut client = Client { addr, conn: None };
        for spec in &hot {
            match client.post(spec) {
                Ok((sent, r)) => seq.records.push(Record::new(Kind::Warmup, spec, sent, r)),
                Err(e) => {
                    seq.lost += 1;
                    seq.errors.push(format!("warm-up: {e}"));
                }
            }
        }
    }

    let mut misses: Vec<Spec> = Vec::new();
    let window_start = Instant::now();
    let traffic = Traffic {
        addr,
        hot: &hot,
        deadline: window_start + Duration::from_secs_f64(args.seconds),
        in_flight: Mutex::new(None),
    };
    let pipe = std::thread::scope(|scope| {
        let pipe = scope.spawn(|| run_pipe(&traffic, pipe_rng));
        run_seq(&traffic, &mut misses, base_seed, &mut rng, &mut seq);
        pipe.join().expect("pipe client thread")
    });
    let window_s = window_start.elapsed().as_secs_f64();

    let stats = Conn::connect(addr)
        .and_then(|mut c| c.call("GET", "/stats", b""))
        .ok()
        .and_then(|r| Value::parse(std::str::from_utf8(&r.body).ok()?).ok());
    let rss = peak_rss_mb(server.child.id());
    if let Err(e) = server.shutdown() {
        out.verdict.fail(e);
    }

    // ---- Accounting and end-to-end metrics.
    let records: Vec<&Record> = seq.records.iter().chain(&pipe.records).collect();
    let sent = records.len() as u64 + seq.lost + pipe.lost;
    out.attempted = sent;
    out.failed = seq.lost + pipe.lost + records.iter().filter(|r| r.status != 200).count() as u64;
    for e in seq.errors.iter().chain(&pipe.errors).take(5) {
        out.verdict.fail(e.clone());
    }
    let hit_ms: Vec<f64> = seq
        .records
        .iter()
        .filter(|r| r.kind == Kind::Hit)
        .map(Record::latency_ms)
        .collect();
    let answered_in_window = records.iter().filter(|r| r.kind != Kind::Warmup).count() as f64;
    out.set(
        "steps_per_s",
        answered_in_window * SPEC_STEPS as f64 / window_s,
    );
    out.set("setup_s", setup_s);
    out.set("peak_rss_mb", rss);
    out.set("latency_p50_ms", median(&hit_ms));

    // ---- Correctness.
    let verdict = &mut out.verdict;
    let mut ledger = BodyLedger::default();
    for r in &records {
        verdict.check(r.status == 200, || {
            format!("request for {} answered {}", r.key, r.status)
        });
        verdict.check(r.header_key.as_deref() == Some(r.key.as_str()), || {
            format!(
                "X-Wafer-Key {:?} but the client computed {}",
                r.header_key, r.key
            )
        });
        if r.status == 200 {
            if let Err(e) = ledger.record(&r.key, &r.body) {
                verdict.fail(e);
            }
        }
    }
    // Every distinct spec's first answer was its miss (or the run it
    // coalesced onto): it must equal the report of an in-process run.
    let by_key: std::collections::BTreeMap<&str, &Spec> = hot
        .iter()
        .chain(&misses)
        .map(|s| (s.key.as_str(), s))
        .collect();
    for (key, body) in ledger.first_bodies() {
        let Some(spec) = by_key.get(key.as_str()) else {
            verdict.fail(format!("answer for unknown key {key}"));
            continue;
        };
        let report = run_spec(&spec.parsed()).report;
        verdict.check(report.as_bytes() == body.as_slice(), || {
            format!("served report for {key} differs from run_spec of the same spec")
        });
    }
    let distinct = by_key.len() as u64;
    match &stats {
        Some(doc) => {
            let counters = ServeCounters {
                requests: stats_counter(doc, &["requests"]) as u64,
                runs: stats_counter(doc, &["runs"]) as u64,
                cache_hits: stats_counter(doc, &["cache_hits"]) as u64,
                coalesced: stats_counter(doc, &["coalesced"]) as u64,
            };
            checks::check_serve_counters(verdict, counters, sent, distinct);
        }
        None => verdict.fail("GET /stats failed".into()),
    }
    if args.trace {
        let served = Served {
            seq,
            pipe,
            stats,
            hot,
            misses,
            window_s,
        };
        trace_layers(&mut out, args, &cache_dir, &served);
    }
    let _ = std::fs::remove_dir_all(&cache_dir);
    out
}

/// What a serve run produced, for its per-layer metrics.
struct Served {
    seq: ClientLog,
    pipe: ClientLog,
    stats: Option<Value>,
    hot: Vec<Spec>,
    misses: Vec<Spec>,
    window_s: f64,
}

/// Per-layer metrics of the serve run: client-side spans, the server's
/// own `/stats`, and in-process calls into the scheduler, cache and
/// scenario layers on the run's cache after shutdown.
fn trace_layers(out: &mut Outcome, args: &Args, cache_dir: &Path, served: &Served) {
    let Served {
        seq,
        pipe,
        stats,
        hot,
        misses,
        window_s,
    } = served;
    // The clients take the same timestamps whether the run is traced or
    // not, and the spans are built from them after the window, so
    // tracing adds nothing to the measured run.
    out.set("trace.overhead", 0.0);
    let mut spans = Spans::new();
    for r in seq.records.iter().chain(&pipe.records) {
        let name = match r.kind {
            Kind::Warmup => "http.warmup",
            Kind::Hit => "http.hit",
            Kind::Miss => "http.miss",
            Kind::Burst => "http.burst_request",
        };
        let id = spans.push_measured(name, None, r.sent, r.last_byte);
        spans.push_measured("http.first_byte", Some(id), r.sent, r.first_byte);
    }

    let of = |kind| -> Vec<&Record> { seq.records.iter().filter(|r| r.kind == kind).collect() };
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let hits = of(Kind::Hit);
    let hit_ms: Vec<f64> = hits.iter().map(|r| r.latency_ms()).collect();
    let hit_last = median(&hit_ms);
    out.set(
        "serve.http.hit_p90_ms",
        quantile(&hit_ms, 0.9).unwrap_or(0.0),
    );
    out.verdict
        .check(samples_beyond(hit_ms.len(), 0.9) >= 10, || {
            format!(
                "only {} seq hits: fewer than ten lie beyond the p90",
                hit_ms.len()
            )
        });
    out.set(
        "serve.http.hit_first_byte_ms",
        median(
            &hits
                .iter()
                .map(|r| ms(r.first_byte - r.sent))
                .collect::<Vec<_>>(),
        ),
    );
    out.set("serve.http.hit_last_byte_ms", hit_last);
    out.set(
        "serve.http.miss_p50_ms",
        median(
            &of(Kind::Miss)
                .iter()
                .map(|r| r.latency_ms())
                .collect::<Vec<_>>(),
        ),
    );
    out.set("serve.http.burst_p50_ms", median(&pipe.bursts_ms));
    let in_window = seq
        .records
        .iter()
        .chain(&pipe.records)
        .filter(|r| r.kind != Kind::Warmup)
        .count() as f64;
    out.set("serve.http.requests_per_s", in_window / window_s);

    if let Some(doc) = stats {
        let us_to_ms = |path: &[&str]| stats_counter(doc, path) / 1e3;
        let service = us_to_ms(&["latency", "service", "p50"]);
        out.set(
            "serve.http.reused_connections",
            stats_counter(doc, &["connections", "reused"]),
        );
        out.set(
            "serve.http.pipelined_requests",
            stats_counter(doc, &["connections", "pipelined"]),
        );
        out.set("serve.scheduler.service_ms_p50", service);
        out.set(
            "serve.scheduler.queue_wait_ms_p50",
            us_to_ms(&["latency", "queue_wait", "p50"]),
        );
        out.set(
            "serve.scheduler.engine_run_ms_p50",
            us_to_ms(&["latency", "engine_run", "p50"]),
        );
        out.set("serve.scheduler.runs", stats_counter(doc, &["runs"]));
        out.set(
            "serve.scheduler.coalesced",
            stats_counter(doc, &["coalesced"]),
        );
        out.set(
            "serve.queue.batch_occupancy_p50",
            stats_counter(doc, &["batch", "occupancy", "p50"]),
        );
        let requests = stats_counter(doc, &["requests"]);
        out.set(
            "serve.cache.hit_ratio",
            stats_counter(doc, &["cache_hits"]) / requests.max(1.0),
        );
        out.set("serve.cache.bytes", stats_counter(doc, &["cache_bytes"]));
        out.set(
            "serve.cache.entries",
            stats_counter(doc, &["cache_entries"]),
        );
        // How much of the client's wait the server accounts for.
        out.set("trace.coverage", service / hit_last);
    }

    let hot_key = hot[0].key.clone();
    match ResultCache::open(cache_dir) {
        Ok(mut cache) => out.set(
            "serve.cache.lookup_us",
            median_us(200, || {
                std::hint::black_box(cache.lookup(&hot_key).is_some());
            }),
        ),
        Err(e) => out.verdict.fail(format!("reopen cache: {e}")),
    }
    match ResultCache::open(cache_dir) {
        Ok(cache) => {
            let mut scheduler = Scheduler::new(cache);
            let spec = hot[0].parsed();
            out.set(
                "serve.scheduler.submit_hit_us",
                median_us(200, || {
                    std::hint::black_box(scheduler.submit(spec));
                }),
            );
        }
        Err(e) => out.verdict.fail(format!("reopen cache: {e}")),
    }
    let miss = misses.first().unwrap_or(&hot[0]).parsed();
    let t = Instant::now();
    std::hint::black_box(run_spec(&miss));
    out.set("serve.run_spec_ms", t.elapsed().as_secs_f64() * 1e3);
    let t = Instant::now();
    std::hint::black_box(
        wafer_md::scenario::Scenario::from_spec(miss)
            .build_engine()
            .is_ok(),
    );
    out.set("scenario.build_ms", t.elapsed().as_secs_f64() * 1e3);
    let bodies: Vec<&str> = hot.iter().chain(misses).map(|s| s.body.as_str()).collect();
    let mut i = 0;
    out.set(
        "scenario.spec_parse_us",
        median_us(200, || {
            i = (i + 1) % bodies.len();
            std::hint::black_box(ScenarioSpec::from_json(bodies[i]).is_ok());
        }),
    );
    out.set(
        "scenario.key_us",
        median_us(200, || {
            std::hint::black_box(std::hint::black_box(&miss).key());
        }),
    );
    let path = Path::new(OUT_DIR).join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
    if let Err(e) = spans.write_jsonl(&path) {
        eprintln!("could not write {}: {e}", path.display());
    }
}
