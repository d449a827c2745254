//! Observability for the scenario server: latency histograms, a
//! structured event trace, and per-acceptor/per-shard timing counters.
//!
//! The design constraint everything here obeys is the **wall-clock /
//! determinism split**: the server's answers (`report.txt`,
//! `counters.json`, cache keys, drain stdout, every golden) are pure
//! functions of the [`crate::scenario::ScenarioSpec`], so no timing
//! measurement may ever reach them. Timing lives exclusively in three
//! side channels — `GET /stats` (+ `GET /stats/prom`), the `--trace`
//! event file, and the `--drain` timing summary on *stderr* — and the
//! trace file keeps its deterministic fields (event kinds, cache keys,
//! batch sizes) separable from its timing fields so CI can byte-diff
//! the former across thread counts.
//!
//! The pieces:
//!
//! - [`Histogram`] — a fixed log2-bucket latency histogram on atomic
//!   counters. Recording is lock-free (two `fetch_add`s and a
//!   `fetch_max`), so the acceptor pool and the engine runners never
//!   serialize on metrics.
//! - [`Tracer`] — the `--trace FILE` writer: events are rendered to
//!   one compact-JSON line each and pushed through a *bounded* channel
//!   with `try_send`; a dedicated writer thread drains it to the file.
//!   A full channel drops the event (counted) rather than ever
//!   blocking request handling.
//! - [`ServeMetrics`] — the aggregate the scheduler and the HTTP layer
//!   share: the five histograms (request service time, queue wait,
//!   engine run, batch pass, batch occupancy), per-acceptor connection
//!   counters, per-shard integrate/exchange totals with a running
//!   imbalance maximum, and the optional tracer.
//! - [`METRICS`] — the one declared table of serve metrics. Each entry
//!   names a metric's `/stats` path, Prometheus series, help text and
//!   how its value is read; the `/stats` JSON and the `/stats/prom`
//!   Prometheus text are both rendered by walking it.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use super::cache::CacheUsage;
use super::queue::ServeStats;
use crate::json::Value;

/// Number of log2 buckets in a [`Histogram`]: bucket 0 holds zeros,
/// bucket `i ≥ 1` holds values in `[2^(i-1), 2^i)`, and the last
/// bucket is the overflow (everything from `2^(HIST_BUCKETS-2)` up).
/// For microsecond latencies the bounded range tops out at
/// `2^26 µs ≈ 67 s` — far beyond any serve timeout.
pub const HIST_BUCKETS: usize = 28;

/// Saturating `Duration` → whole microseconds.
fn duration_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// A fixed-bucket log2 histogram on atomic counters.
///
/// Values are recorded in whole microseconds (or unitless counts — the
/// batch-occupancy histogram records jobs per pass through the same
/// machinery). The bucket for value `v` is `0` for `v = 0`, else
/// `min(bit_length(v), HIST_BUCKETS - 1)` — so bucket `i ≥ 1` spans
/// `[2^(i-1), 2^i)` and the last bucket is open-ended. Recording is a
/// relaxed `fetch_add` per counter: histograms are never read for
/// control flow, only snapshotted for reporting, so relaxed ordering
/// is sufficient and recording never takes a lock.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// The bucket index a value lands in.
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            (64 - value.leading_zeros() as usize).min(HIST_BUCKETS - 1)
        }
    }

    /// The exclusive upper bound of a bucket, or `None` for the
    /// open-ended last bucket.
    pub fn bucket_bound(index: usize) -> Option<u64> {
        (index + 1 < HIST_BUCKETS).then(|| 1u64 << index)
    }

    /// Record one value (microseconds for the latency histograms,
    /// a plain count for occupancy).
    pub fn record(&self, value: u64) {
        self.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Record a duration, truncated to whole microseconds.
    pub fn record_duration(&self, d: Duration) {
        self.record(duration_us(d));
    }

    /// A point-in-time copy of every counter. Individual loads are
    /// relaxed, so a snapshot taken while writers are active can be
    /// momentarily inconsistent (`count` vs the bucket sum); at
    /// quiescence they agree exactly, which the stress tests assert.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`]'s counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts (see [`Histogram::bucket_index`]).
    pub buckets: [u64; HIST_BUCKETS],
    /// Values recorded.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Largest recorded value.
    pub max: u64,
}

impl HistogramSnapshot {
    /// The largest value the smallest bucket whose cumulative count
    /// reaches quantile `q` (0 < q ≤ 1) can hold, capped at the recorded
    /// maximum — an upper bound on the true quantile that is exact when
    /// every sample in that bucket is equal. The open-ended last bucket
    /// reports the recorded maximum. Zero when nothing was recorded.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cumulative += c;
            if cumulative >= target {
                return Histogram::bucket_bound(i).map_or(self.max, |b| (b - 1).min(self.max));
            }
        }
        self.max
    }

    /// The `/stats` rendering: `{"buckets":[...],"count":N,"max":N,`
    /// `"p50":N,"p99":N,"sum":N}` — keys already alphabetical, values
    /// in the histogram's recording unit (µs for latencies, jobs for
    /// occupancy).
    pub fn to_value(&self) -> Value {
        Value::Obj(vec![
            (
                "buckets".into(),
                Value::Arr(self.buckets.iter().map(|&c| Value::Uint(c)).collect()),
            ),
            ("count".into(), Value::Uint(self.count)),
            ("max".into(), Value::Uint(self.max)),
            ("p50".into(), Value::Uint(self.quantile(0.5))),
            ("p99".into(), Value::Uint(self.quantile(0.99))),
            ("sum".into(), Value::Uint(self.sum)),
        ])
    }
}

/// How a histogram's recorded unit maps onto the Prometheus
/// exposition: microsecond latencies export as seconds, counts export
/// as-is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PromUnit {
    /// Recorded microseconds, exported as fractional seconds.
    Micros,
    /// Recorded plain counts, exported unchanged.
    Count,
}

impl PromUnit {
    fn le_label(self, bound: u64) -> String {
        match self {
            Self::Micros => format!("{}", bound as f64 / 1e6),
            Self::Count => bound.to_string(),
        }
    }

    fn sum_value(self, sum: u64) -> String {
        match self {
            Self::Micros => format!("{}", sum as f64 / 1e6),
            Self::Count => sum.to_string(),
        }
    }
}

/// One reading of the serve state, taken under the scheduler lock:
/// what every [`Read`] in [`METRICS`] reads from.
struct Reading<'a> {
    stats: &'a ServeStats,
    pending: usize,
    cache: CacheUsage,
    metrics: &'a ServeMetrics,
}

/// How a metric's value is read, which fixes how both endpoints render
/// it.
#[derive(Clone, Copy)]
enum Read {
    /// A monotonic count: a number in `/stats`, a Prometheus `counter`.
    Counter(fn(&Reading) -> u64),
    /// A momentary level: a number in `/stats`, a Prometheus `gauge`.
    Gauge(fn(&Reading) -> u64),
    /// A nanosecond total: whole microseconds in `/stats` (a `*_us`
    /// field), seconds in a Prometheus `*_seconds_total` counter.
    Nanos(fn(&Reading) -> u64),
    /// The per-acceptor connection counts: an array in `/stats`, one
    /// `acceptor="i"` sample each of a Prometheus counter.
    PerAcceptor,
    /// A histogram: [`HistogramSnapshot::to_value`] in `/stats`, a
    /// native Prometheus histogram in its [`PromUnit`].
    Histogram(fn(&ServeMetrics) -> &Histogram, PromUnit),
}

impl Read {
    fn prom_type(self) -> &'static str {
        match self {
            Self::Gauge(_) => "gauge",
            Self::Histogram(..) => "histogram",
            Self::Counter(_) | Self::Nanos(_) | Self::PerAcceptor => "counter",
        }
    }
}

/// One serve metric, declared once for `GET /stats` and
/// `GET /stats/prom`.
struct Metric {
    /// The `/stats` path: a top-level key, or `group.key` for a key of
    /// a nested object.
    path: &'static str,
    /// The Prometheus series name.
    prom: &'static str,
    /// The Prometheus help text.
    help: &'static str,
    read: Read,
}

impl Metric {
    /// The metric's `/stats` value.
    fn json(&self, reading: &Reading) -> Value {
        match self.read {
            Read::Counter(read) | Read::Gauge(read) => Value::Uint(read(reading)),
            Read::Nanos(read) => Value::Uint(read(reading) / 1_000),
            Read::PerAcceptor => Value::Arr(
                reading
                    .metrics
                    .acceptors
                    .iter()
                    .map(|c| Value::Uint(c.load(Ordering::Relaxed)))
                    .collect(),
            ),
            Read::Histogram(histogram, _) => histogram(reading.metrics).snapshot().to_value(),
        }
    }
}

/// Every serve metric, in `/stats/prom` order. `docs/OPERATIONS.md`
/// documents each one in a table that a unit test checks against this
/// one.
static METRICS: [Metric; 25] = [
    Metric {
        path: "requests",
        prom: "wafer_md_requests_total",
        help: "Specs admitted, however disposed.",
        read: Read::Counter(|r| r.stats.requests),
    },
    Metric {
        path: "runs",
        prom: "wafer_md_runs_total",
        help: "Physics runs executed.",
        read: Read::Counter(|r| r.stats.runs),
    },
    Metric {
        path: "batches",
        prom: "wafer_md_batches_total",
        help: "Engine-pool batch passes.",
        read: Read::Counter(|r| r.stats.batches),
    },
    Metric {
        path: "cache_hits",
        prom: "wafer_md_cache_hits_total",
        help: "Requests answered from the on-disk cache.",
        read: Read::Counter(|r| r.stats.cache_hits),
    },
    Metric {
        path: "coalesced",
        prom: "wafer_md_coalesced_total",
        help: "Requests coalesced onto a pending or in-flight job.",
        read: Read::Counter(|r| r.stats.coalesced),
    },
    Metric {
        path: "atoms_steps",
        prom: "wafer_md_atoms_steps_total",
        help: "Sum of atoms times steps over executed runs.",
        read: Read::Counter(|r| r.stats.atoms_steps),
    },
    Metric {
        path: "exchanges",
        prom: "wafer_md_exchanges_total",
        help: "Ghost exchanges performed by executed sharded runs.",
        read: Read::Counter(|r| r.stats.exchanges),
    },
    Metric {
        path: "early_exchanges",
        prom: "wafer_md_early_exchanges_total",
        help: "Exchanges forced early by the skin-validity check.",
        read: Read::Counter(|r| r.stats.early_exchanges),
    },
    Metric {
        path: "connections.reused",
        prom: "wafer_md_reused_connections_total",
        help: "Connections that served a second request over keep-alive.",
        read: Read::Counter(|r| r.metrics.reused_connections.load(Ordering::Relaxed)),
    },
    Metric {
        path: "connections.pipelined",
        prom: "wafer_md_pipelined_requests_total",
        help: "Requests already buffered when their turn came.",
        read: Read::Counter(|r| r.metrics.pipelined_requests.load(Ordering::Relaxed)),
    },
    Metric {
        path: "evictions",
        prom: "wafer_md_cache_evictions_total",
        help: "Cache entries evicted by this process.",
        read: Read::Counter(|r| r.cache.evictions),
    },
    Metric {
        path: "pending",
        prom: "wafer_md_pending_jobs",
        help: "Admitted runs not yet settled.",
        read: Read::Gauge(|r| r.pending as u64),
    },
    Metric {
        path: "cache_bytes",
        prom: "wafer_md_cache_bytes",
        help: "Payload bytes currently cached.",
        read: Read::Gauge(|r| r.cache.bytes),
    },
    Metric {
        path: "cache_entries",
        prom: "wafer_md_cache_entries",
        help: "Entries currently cached.",
        read: Read::Gauge(|r| r.cache.entries),
    },
    Metric {
        path: "shards.max_imbalance_milli",
        prom: "wafer_md_shard_imbalance_milli",
        help: "Worst observed shard imbalance (max integrate time over mean, thousandths).",
        read: Read::Gauge(|r| r.metrics.shard_imbalance_milli.load(Ordering::Relaxed)),
    },
    Metric {
        path: "shards.integrate_us",
        prom: "wafer_md_shard_integrate_seconds_total",
        help: "Integrate-phase wall time across sharded runs.",
        read: Read::Nanos(|r| r.metrics.shard_integrate_nanos.load(Ordering::Relaxed)),
    },
    Metric {
        path: "shards.exchange_us",
        prom: "wafer_md_shard_exchange_seconds_total",
        help: "Ghost-exchange wall time across sharded runs.",
        read: Read::Nanos(|r| r.metrics.shard_exchange_nanos.load(Ordering::Relaxed)),
    },
    Metric {
        path: "acceptors",
        prom: "wafer_md_acceptor_connections_total",
        help: "Connections handled per acceptor thread.",
        read: Read::PerAcceptor,
    },
    Metric {
        path: "trace.emitted",
        prom: "wafer_md_trace_events_total",
        help: "Trace events written to the event channel.",
        read: Read::Counter(|r| r.metrics.trace_counts().0),
    },
    Metric {
        path: "trace.dropped",
        prom: "wafer_md_trace_dropped_total",
        help: "Trace events dropped because the channel was full.",
        read: Read::Counter(|r| r.metrics.trace_counts().1),
    },
    Metric {
        path: "latency.service",
        prom: "wafer_md_request_service_seconds",
        help: "POST /run service time.",
        read: Read::Histogram(|m| &m.service, PromUnit::Micros),
    },
    Metric {
        path: "latency.queue_wait",
        prom: "wafer_md_queue_wait_seconds",
        help: "Queue wait from admission to run start.",
        read: Read::Histogram(|m| &m.queue_wait, PromUnit::Micros),
    },
    Metric {
        path: "latency.engine_run",
        prom: "wafer_md_engine_run_seconds",
        help: "Engine wall time per physics run.",
        read: Read::Histogram(|m| &m.engine_run, PromUnit::Micros),
    },
    Metric {
        path: "batch.pass",
        prom: "wafer_md_batch_pass_seconds",
        help: "Wall time per engine-pool batch pass.",
        read: Read::Histogram(|m| &m.batch_pass, PromUnit::Micros),
    },
    Metric {
        path: "batch.occupancy",
        prom: "wafer_md_batch_occupancy_jobs",
        help: "Jobs per engine-pool batch pass.",
        read: Read::Histogram(|m| &m.batch_occupancy, PromUnit::Count),
    },
];

/// One structured trace event, built with the fluent constructors and
/// rendered to a single compact-JSON line by [`ServeMetrics::trace`].
///
/// Field order on the wire is fixed: `event`, then `key` (when the
/// event concerns a request), then the extra fields in insertion
/// order, then the monotonic timestamp `t_us` — so timing fields
/// (`t_us` and any `*_us` extra) are never the first field and a
/// `,"…_us":N`-stripping filter leaves valid JSON. CI relies on that
/// to byte-diff the deterministic remainder across thread counts.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    event: &'static str,
    key: Option<String>,
    extra: Vec<(&'static str, u64)>,
}

impl TraceEvent {
    /// An event of the given kind (`accepted`, `reused`, `admitted`,
    /// `coalesced`, `hit`, `batched`, `run`, `evicted`, `streamed`).
    pub fn new(event: &'static str) -> Self {
        Self {
            event,
            key: None,
            extra: Vec::new(),
        }
    }

    /// Attach the request's cache key.
    pub fn key(mut self, key: &str) -> Self {
        self.key = Some(key.to_string());
        self
    }

    /// Attach an extra integer field. Timing fields must use a name
    /// ending in `_us` so the CI trace filter strips them.
    pub fn with(mut self, field: &'static str, value: u64) -> Self {
        self.extra.push((field, value));
        self
    }

    /// Render the wire line (without the trailing newline).
    fn render(&self, t_us: u64) -> String {
        let mut fields = vec![("event".to_string(), Value::Str(self.event.into()))];
        if let Some(key) = &self.key {
            fields.push(("key".to_string(), Value::Str(key.clone())));
        }
        for (name, value) in &self.extra {
            fields.push((name.to_string(), Value::Uint(*value)));
        }
        fields.push(("t_us".to_string(), Value::Uint(t_us)));
        Value::Obj(fields).render()
    }
}

/// Messages on the tracer's bounded channel.
enum TraceMsg {
    /// One rendered event line.
    Line(String),
    /// Flush and exit the writer thread.
    Shutdown,
}

/// Capacity of the tracer's bounded channel: enough to absorb any
/// realistic burst, small enough that a wedged writer cannot hold an
/// unbounded backlog in memory.
const TRACE_CHANNEL_CAPACITY: usize = 4096;

/// The `--trace FILE` writer: a bounded channel in front of a
/// dedicated writer thread.
///
/// The emit path uses `try_send` and therefore **never blocks**: if
/// the channel is full (the writer thread is behind), the event is
/// dropped and counted instead — the acceptor pool's latency is never
/// coupled to trace-file I/O. [`Tracer::finish`] sends a shutdown
/// sentinel and joins the writer, so every enqueued line is flushed to
/// disk before the process exits.
#[derive(Debug)]
pub struct Tracer {
    tx: SyncSender<TraceMsg>,
    writer: Mutex<Option<JoinHandle<()>>>,
    emitted: AtomicU64,
    dropped: AtomicU64,
}

impl Tracer {
    /// Open (truncating) the trace file and start the writer thread.
    pub fn to_file(path: &Path) -> io::Result<Self> {
        let file = File::create(path)?;
        let (tx, rx) = sync_channel::<TraceMsg>(TRACE_CHANNEL_CAPACITY);
        let writer = std::thread::spawn(move || {
            let mut out = BufWriter::new(file);
            while let Ok(TraceMsg::Line(line)) = rx.recv() {
                // A write failure (disk full, file deleted) silences
                // the trace; the serve loop must not care.
                if writeln!(out, "{line}").is_err() {
                    break;
                }
                // Flush per line so `tail -f` observes events live.
                let _ = out.flush();
            }
            let _ = out.flush();
        });
        Ok(Self {
            tx,
            writer: Mutex::new(Some(writer)),
            emitted: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        })
    }

    /// Enqueue one rendered line; drops (and counts) when the channel
    /// is full or the writer has exited.
    fn emit(&self, line: String) {
        match self.tx.try_send(TraceMsg::Line(line)) {
            Ok(()) => {
                self.emitted.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// `(emitted, dropped)` so far.
    pub fn counts(&self) -> (u64, u64) {
        (
            self.emitted.load(Ordering::Relaxed),
            self.dropped.load(Ordering::Relaxed),
        )
    }

    /// Drain the channel, flush the file, and join the writer thread.
    /// Idempotent; called automatically on drop.
    pub fn finish(&self) {
        let handle = self
            .writer
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .take();
        if let Some(handle) = handle {
            // A blocking send is safe here: the writer drains the
            // channel until it sees the sentinel.
            let _ = self.tx.send(TraceMsg::Shutdown);
            let _ = handle.join();
        }
    }
}

impl Drop for Tracer {
    fn drop(&mut self) {
        self.finish();
    }
}

/// The shared observability state of one serve (or drain) process.
///
/// Cheap to record into from any thread — histograms and counters are
/// atomics, tracing is a bounded `try_send` — and snapshotted under
/// the scheduler lock only when `/stats` or `/stats/prom` renders.
#[derive(Debug)]
pub struct ServeMetrics {
    /// `POST /run` service time (spec parsed → response finished), µs.
    pub service: Histogram,
    /// Queue wait (job admitted → its batch started), µs.
    pub queue_wait: Histogram,
    /// Engine wall time of one physics run, µs.
    pub engine_run: Histogram,
    /// Wall time of one engine-pool batch pass, µs.
    pub batch_pass: Histogram,
    /// Jobs per batch pass (unitless).
    pub batch_occupancy: Histogram,
    /// Connections handled per acceptor thread.
    acceptors: Vec<AtomicU64>,
    /// Connections that served a second request (keep-alive reuse).
    reused_connections: AtomicU64,
    /// Requests that were already buffered when their turn came
    /// (client pipelined them behind an earlier request).
    pipelined_requests: AtomicU64,
    /// Total integrate-phase wall time across sharded runs, ns.
    shard_integrate_nanos: AtomicU64,
    /// Total ghost-exchange wall time across sharded runs, ns.
    shard_exchange_nanos: AtomicU64,
    /// Worst observed shard imbalance (max shard integrate time over
    /// the mean, in thousandths), across sharded runs.
    shard_imbalance_milli: AtomicU64,
    /// The monotonic epoch of every trace timestamp.
    start: Instant,
    tracer: Option<Tracer>,
}

impl ServeMetrics {
    /// Metrics for a pool of `acceptors` acceptor threads (0 for
    /// drain mode), without tracing.
    pub fn new(acceptors: usize) -> Self {
        Self {
            service: Histogram::new(),
            queue_wait: Histogram::new(),
            engine_run: Histogram::new(),
            batch_pass: Histogram::new(),
            batch_occupancy: Histogram::new(),
            acceptors: (0..acceptors).map(|_| AtomicU64::new(0)).collect(),
            reused_connections: AtomicU64::new(0),
            pipelined_requests: AtomicU64::new(0),
            shard_integrate_nanos: AtomicU64::new(0),
            shard_exchange_nanos: AtomicU64::new(0),
            shard_imbalance_milli: AtomicU64::new(0),
            start: Instant::now(),
            tracer: None,
        }
    }

    /// [`ServeMetrics::new`] with a `--trace FILE` event trace.
    pub fn with_trace(acceptors: usize, trace_path: &Path) -> io::Result<Self> {
        let mut metrics = Self::new(acceptors);
        metrics.tracer = Some(Tracer::to_file(trace_path)?);
        Ok(metrics)
    }

    /// Whether a trace file is attached.
    pub fn tracing(&self) -> bool {
        self.tracer.is_some()
    }

    /// Emit one trace event (no-op without a tracer). Never blocks.
    pub fn trace(&self, event: TraceEvent) {
        if let Some(tracer) = &self.tracer {
            tracer.emit(event.render(duration_us(self.start.elapsed())));
        }
    }

    /// Flush the trace file and stop its writer thread (no-op without
    /// a tracer; idempotent).
    pub fn flush_trace(&self) {
        if let Some(tracer) = &self.tracer {
            tracer.finish();
        }
    }

    /// The tracer's `(emitted, dropped)` line counts — both zero when
    /// no trace file is attached.
    pub fn trace_counts(&self) -> (u64, u64) {
        self.tracer.as_ref().map(Tracer::counts).unwrap_or_default()
    }

    /// Count one accepted connection on acceptor `index`.
    pub fn connection(&self, index: usize) {
        if let Some(counter) = self.acceptors.get(index) {
            counter.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Count one keep-alive reuse: a connection beginning its second
    /// (or later) request.
    pub fn reused_connection(&self) {
        self.reused_connections.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one pipelined request: its bytes were already buffered
    /// when the previous response finished.
    pub fn pipelined_request(&self) {
        self.pipelined_requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Fold one sharded run's per-shard `(integrate, exchange)`
    /// wall-clock nanoseconds into the totals and update the
    /// imbalance maximum (max shard integrate time / mean, in
    /// thousandths — 1000 means perfectly balanced).
    pub fn record_shard_phases(&self, phases: &[(u64, u64)]) {
        if phases.is_empty() {
            return;
        }
        let integrate: u64 = phases.iter().map(|p| p.0).sum();
        let exchange: u64 = phases.iter().map(|p| p.1).sum();
        self.shard_integrate_nanos
            .fetch_add(integrate, Ordering::Relaxed);
        self.shard_exchange_nanos
            .fetch_add(exchange, Ordering::Relaxed);
        let slowest = phases.iter().map(|p| p.0).max().unwrap_or(0);
        let mean = integrate / phases.len() as u64;
        if let Some(ratio) = (slowest * 1000).checked_div(mean) {
            self.shard_imbalance_milli
                .fetch_max(ratio, Ordering::Relaxed);
        }
    }

    /// The `GET /stats` body: every metric of `METRICS` at its path,
    /// keys in alphabetical order at every level.
    pub fn stats_json(&self, stats: &ServeStats, pending: usize, cache: CacheUsage) -> String {
        let reading = Reading {
            stats,
            pending,
            cache,
            metrics: self,
        };
        let mut fields = Vec::new();
        let mut groups: Vec<(&str, Vec<(String, Value)>)> = Vec::new();
        for metric in &METRICS {
            let value = metric.json(&reading);
            match metric.path.split_once('.') {
                None => fields.push((metric.path.to_string(), value)),
                Some((group, key)) => match groups.iter_mut().find(|(g, _)| *g == group) {
                    Some((_, members)) => members.push((key.to_string(), value)),
                    None => groups.push((group, vec![(key.to_string(), value)])),
                },
            }
        }
        fields.extend(
            groups
                .into_iter()
                .map(|(group, members)| (group.to_string(), Value::sorted_obj(members))),
        );
        Value::sorted_obj(fields).render()
    }

    /// The `GET /stats/prom` body: every metric of `METRICS` in
    /// Prometheus text exposition format (version 0.0.4), in table
    /// order.
    pub fn prometheus(&self, stats: &ServeStats, pending: usize, cache: CacheUsage) -> String {
        let reading = Reading {
            stats,
            pending,
            cache,
            metrics: self,
        };
        let mut out = String::new();
        for metric in &METRICS {
            let name = metric.prom;
            let _ = writeln!(out, "# HELP {name} {}", metric.help);
            let _ = writeln!(out, "# TYPE {name} {}", metric.read.prom_type());
            match metric.read {
                Read::Counter(read) | Read::Gauge(read) => {
                    let _ = writeln!(out, "{name} {}", read(&reading));
                }
                Read::Nanos(read) => {
                    let _ = writeln!(out, "{name} {}", read(&reading) as f64 / 1e9);
                }
                Read::PerAcceptor => {
                    for (i, count) in self.acceptors.iter().enumerate() {
                        let count = count.load(Ordering::Relaxed);
                        let _ = writeln!(out, "{name}{{acceptor=\"{i}\"}} {count}");
                    }
                }
                Read::Histogram(histogram, unit) => {
                    render_prom_histogram(&mut out, name, &histogram(self).snapshot(), unit);
                }
            }
        }
        out
    }

    /// The `--drain` timing summary, written to **stderr** (stdout is
    /// the byte-diffed drain report).
    pub fn drain_summary(&self) -> String {
        let engine = self.engine_run.snapshot();
        let queue = self.queue_wait.snapshot();
        let pass = self.batch_pass.snapshot();
        let occupancy = self.batch_occupancy.snapshot();
        format!(
            "timings: engine p50 {}us p99 {}us max {}us, queue wait p99 {}us, \
             batch pass p99 {}us, occupancy max {}, shards integrate {}us exchange {}us",
            engine.quantile(0.5),
            engine.quantile(0.99),
            engine.max,
            queue.quantile(0.99),
            pass.quantile(0.99),
            occupancy.max,
            self.shard_integrate_nanos.load(Ordering::Relaxed) / 1_000,
            self.shard_exchange_nanos.load(Ordering::Relaxed) / 1_000,
        )
    }
}

/// Render one histogram's samples in Prometheus text exposition
/// format: cumulative `_bucket{le="..."}` lines ending at `+Inf`, then `_sum`
/// and `_count`. The `+Inf` count is the bucket total (not the `count`
/// atomic), so one exposition is always internally consistent even if
/// writers are active mid-snapshot.
fn render_prom_histogram(
    out: &mut String,
    name: &str,
    snapshot: &HistogramSnapshot,
    unit: PromUnit,
) {
    let mut cumulative = 0u64;
    for (i, &c) in snapshot.buckets.iter().enumerate() {
        cumulative += c;
        match Histogram::bucket_bound(i) {
            Some(bound) => {
                let _ = writeln!(
                    out,
                    "{name}_bucket{{le=\"{}\"}} {cumulative}",
                    unit.le_label(bound)
                );
            }
            None => {
                let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
            }
        }
    }
    let _ = writeln!(out, "{name}_sum {}", unit.sum_value(snapshot.sum));
    let _ = writeln!(out, "{name}_count {cumulative}");
}

use std::fmt::Write as _;

#[cfg(test)]
mod tests {
    use super::*;

    /// The `/stats` document of `metrics` with zeroed scheduler
    /// counters.
    fn stats_doc(metrics: &ServeMetrics) -> Value {
        let json = metrics.stats_json(&ServeStats::default(), 0, CacheUsage::default());
        Value::parse(&json).unwrap()
    }

    #[test]
    fn bucket_index_is_log2_with_zero_and_overflow_buckets() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(1023), 10);
        assert_eq!(Histogram::bucket_index(1024), 11);
        assert_eq!(Histogram::bucket_index(u64::MAX), HIST_BUCKETS - 1);
        // Bucket i's exclusive bound is 2^i; the last bucket is open.
        assert_eq!(Histogram::bucket_bound(0), Some(1));
        assert_eq!(Histogram::bucket_bound(10), Some(1024));
        assert_eq!(Histogram::bucket_bound(HIST_BUCKETS - 1), None);
        // Every value below a bucket's bound indexes at or before it.
        for i in 0..HIST_BUCKETS - 1 {
            let bound = Histogram::bucket_bound(i).unwrap();
            assert!(Histogram::bucket_index(bound - 1) <= i);
            assert!(Histogram::bucket_index(bound) == i + 1 || i + 1 == HIST_BUCKETS - 1);
        }
    }

    #[test]
    fn histogram_counts_sums_and_quantiles() {
        let h = Histogram::new();
        for v in [0, 1, 3, 100, 5000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 5104);
        assert_eq!(s.max, 5000);
        assert_eq!(s.buckets.iter().sum::<u64>(), s.count);
        // p50 lands in the bucket of value 3 ([2,4) → at most 3); p99 in
        // the bucket of 5000 ([4096,8192) → at most 8191, capped at the
        // recorded max 5000).
        assert_eq!(s.quantile(0.5), 3);
        assert_eq!(s.quantile(0.99), 5000);
        assert_eq!(s.quantile(1.0), 5000);
        // Empty histogram quantiles are zero.
        assert_eq!(Histogram::new().snapshot().quantile(0.5), 0);
        // The JSON rendering is alphabetical and self-consistent.
        let v = s.to_value();
        assert_eq!(v.get("count").and_then(Value::as_u64), Some(5));
        assert_eq!(v.get("p50").and_then(Value::as_u64), Some(3));
        assert_eq!(
            v.get("buckets").and_then(Value::as_arr).map(|a| a.len()),
            Some(HIST_BUCKETS)
        );
    }

    #[test]
    fn equal_samples_give_every_quantile_that_value() {
        for value in [0, 1, 2, 3, 5_550, 1 << 40] {
            let h = Histogram::new();
            for _ in 0..7 {
                h.record(value);
            }
            let s = h.snapshot();
            for q in [0.01, 0.5, 0.9, 0.99, 1.0] {
                assert_eq!(s.quantile(q), value, "q = {q}, value = {value}");
            }
        }
        // Mixed samples: no quantile ever exceeds the recorded max.
        let h = Histogram::new();
        for v in [1, 5, 9, 70, 700] {
            h.record(v);
        }
        let s = h.snapshot();
        for q in [0.01, 0.2, 0.5, 0.8, 0.99, 1.0] {
            assert!(s.quantile(q) <= s.max, "q = {q}");
        }
    }

    #[test]
    fn trace_event_renders_timing_last() {
        let line = TraceEvent::new("batched")
            .key("0123456789abcdef")
            .with("batch", 2)
            .with("wait_us", 17)
            .render(99);
        assert_eq!(
            line,
            r#"{"event":"batched","key":"0123456789abcdef","batch":2,"wait_us":17,"t_us":99}"#
        );
        // Stripping every `,"<name>_us":N` leaves the deterministic
        // remainder as valid JSON — the CI trace filter's contract.
        let stripped = r#"{"event":"batched","key":"0123456789abcdef","batch":2}"#;
        assert!(Value::parse(stripped).is_ok());
    }

    #[test]
    fn tracer_writes_every_emitted_line_and_flushes_on_finish() {
        let path =
            std::env::temp_dir().join(format!("wafer-md-tracer-test-{}.jsonl", std::process::id()));
        let metrics = ServeMetrics::with_trace(2, &path).unwrap();
        assert!(metrics.tracing());
        metrics.trace(TraceEvent::new("admitted").key("00ff00ff00ff00ff"));
        metrics.trace(
            TraceEvent::new("run")
                .key("00ff00ff00ff00ff")
                .with("engine_us", 5),
        );
        metrics.connection(1);
        metrics.flush_trace();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            let v = Value::parse(line).unwrap();
            assert!(v.get("event").and_then(Value::as_str).is_some());
            assert!(v.get("t_us").and_then(Value::as_u64).is_some());
        }
        assert_eq!(
            Value::parse(lines[0])
                .unwrap()
                .get("event")
                .and_then(Value::as_str),
            Some("admitted")
        );
        let doc = stats_doc(&metrics);
        let trace = doc.get("trace").unwrap();
        assert_eq!(trace.get("emitted").and_then(Value::as_u64), Some(2));
        assert_eq!(trace.get("dropped").and_then(Value::as_u64), Some(0));
        assert_eq!(
            doc.get("acceptors").map(Value::render).as_deref(),
            Some("[0,1]")
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn shard_phase_fold_tracks_totals_and_imbalance() {
        let metrics = ServeMetrics::new(0);
        metrics.record_shard_phases(&[(3_000, 1_000), (1_000, 1_000)]);
        let doc = stats_doc(&metrics);
        let shards = doc.get("shards").unwrap();
        assert_eq!(shards.get("integrate_us").and_then(Value::as_u64), Some(4));
        assert_eq!(shards.get("exchange_us").and_then(Value::as_u64), Some(2));
        // max 3000 over mean 2000 → 1500 thousandths.
        assert_eq!(
            shards.get("max_imbalance_milli").and_then(Value::as_u64),
            Some(1500)
        );
        // A more balanced later run does not lower the maximum.
        metrics.record_shard_phases(&[(1_000, 0), (1_000, 0)]);
        let doc = stats_doc(&metrics);
        let shards = doc.get("shards").unwrap();
        assert_eq!(
            shards.get("max_imbalance_milli").and_then(Value::as_u64),
            Some(1500)
        );
    }

    /// Pins every byte of the `/stats` and `/stats/prom` bodies for one
    /// fixed state: counters, cache usage and pending set; two
    /// acceptors with different counts; a µs and a count histogram;
    /// one sharded run; one reused connection and one pipelined request.
    #[test]
    fn stats_bodies_match_the_characterization_goldens() {
        let metrics = ServeMetrics::new(2);
        for acceptor in [0, 0, 0, 1] {
            metrics.connection(acceptor);
        }
        for us in [0, 37, 5_000, 70_000_000] {
            metrics.service.record(us);
        }
        metrics.batch_occupancy.record(1);
        metrics.batch_occupancy.record(3);
        metrics.record_shard_phases(&[(3_000_000, 250_000), (1_000_000, 500_000)]);
        metrics.reused_connection();
        metrics.pipelined_request();
        let stats = ServeStats {
            requests: 9,
            runs: 4,
            batches: 3,
            cache_hits: 3,
            coalesced: 1,
            atoms_steps: 14_400,
            exchanges: 5,
            early_exchanges: 1,
        };
        let cache = CacheUsage {
            bytes: 4096,
            entries: 4,
            evictions: 2,
        };
        assert_eq!(
            format!("{}\n", metrics.stats_json(&stats, 1, cache)),
            include_str!("../../tests/golden/serve-stats.json")
        );
        assert_eq!(
            metrics.prometheus(&stats, 1, cache),
            include_str!("../../tests/golden/serve-stats-prom.txt")
        );
    }

    /// The metric table in `docs/OPERATIONS.md` names exactly the
    /// metrics of [`METRICS`], each `/stats` path beside its series.
    #[test]
    fn the_operations_manual_documents_exactly_the_declared_metrics() {
        let manual = include_str!("../../docs/OPERATIONS.md");
        let (_, table) = manual
            .split_once("| `/stats` path | Prometheus series | Meaning |\n")
            .expect("the manual has the metric table");
        let documented: Vec<(&str, &str)> = table
            .lines()
            .skip(1)
            .take_while(|row| row.starts_with('|'))
            .map(|row| {
                let cells: Vec<&str> = row.split('|').map(str::trim).collect();
                (cells[1].trim_matches('`'), cells[2].trim_matches('`'))
            })
            .collect();
        let declared: Vec<(&str, &str)> = METRICS.iter().map(|m| (m.path, m.prom)).collect();
        let undocumented: Vec<_> = declared
            .iter()
            .filter(|m| !documented.contains(m))
            .collect();
        let undeclared: Vec<_> = documented
            .iter()
            .filter(|m| !declared.contains(m))
            .collect();
        assert!(
            undocumented.is_empty() && undeclared.is_empty(),
            "declared but not documented: {undocumented:?}; documented but not declared: {undeclared:?}"
        );
        assert_eq!(
            documented.len(),
            declared.len(),
            "a metric is documented twice"
        );
    }

    #[test]
    fn prometheus_exposition_is_well_formed_and_cumulative() {
        let metrics = ServeMetrics::new(2);
        metrics.connection(0);
        metrics.connection(0);
        metrics.connection(1);
        metrics.service.record(10);
        metrics.service.record(3000);
        metrics.batch_occupancy.record(2);
        let stats = ServeStats {
            requests: 2,
            runs: 1,
            ..Default::default()
        };
        metrics.reused_connection();
        metrics.pipelined_request();
        let text = metrics.prometheus(&stats, 1, CacheUsage::default());
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines() {
            if line.starts_with('#') {
                assert!(
                    line.starts_with("# HELP ") || line.starts_with("# TYPE "),
                    "{line}"
                );
                continue;
            }
            let (name, value) = line.rsplit_once(' ').expect("metric line has a value");
            assert!(!name.is_empty());
            assert!(value.parse::<f64>().is_ok(), "{line}");
        }
        assert!(text.contains("wafer_md_requests_total 2\n"));
        assert!(text.contains("wafer_md_acceptor_connections_total{acceptor=\"0\"} 2\n"));
        assert!(text.contains("wafer_md_acceptor_connections_total{acceptor=\"1\"} 1\n"));
        assert!(text.contains("wafer_md_reused_connections_total 1\n"));
        assert!(text.contains("wafer_md_pipelined_requests_total 1\n"));
        assert!(text.contains("wafer_md_pending_jobs 1\n"));
        // Histogram buckets are cumulative and end at +Inf == _count.
        let buckets: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("wafer_md_request_service_seconds_bucket"))
            .map(|l| l.rsplit_once(' ').unwrap().1.parse().unwrap())
            .collect();
        assert_eq!(buckets.len(), HIST_BUCKETS);
        assert!(buckets.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*buckets.last().unwrap(), 2);
        assert!(text.contains("wafer_md_request_service_seconds_count 2\n"));
        // Occupancy buckets carry count-valued le labels, not seconds.
        assert!(text.contains("wafer_md_batch_occupancy_jobs_bucket{le=\"2\"}"));
    }
}
