//! Simulation-as-a-service: `wafer-md serve`.
//!
//! The repo's load-bearing guarantee is byte-determinism — every run is
//! bit-identical given its [`crate::scenario::ScenarioSpec`], at any
//! thread count, shard count, or ghost period. This module turns that
//! guarantee into a service: scenario requests arrive over HTTP/JSON,
//! each *distinct* spec runs exactly once, and every repeat is answered
//! from a content-addressed on-disk store without touching the physics
//! engines. The cache needs no invalidation logic and no freshness
//! metadata, because a spec's canonical hash
//! ([`crate::scenario::ScenarioSpec::canonical_hash`]) fully determines
//! its result bytes.
//!
//! The layers, bottom up:
//!
//! - [`ResultCache`] — the content-addressed store: one directory per
//!   key holding `spec.json`, `report.txt`, `counters.json`, and an
//!   optional `trajectory.xyz`, inserted atomically (temp dir +
//!   rename). Optionally bounded by a [`CacheBudget`] (`--cache-max-*`)
//!   with deterministic LRU eviction: the recency order is persisted in
//!   an index file, so the eviction sequence is a pure function of the
//!   access sequence and replays identically across restarts.
//! - [`Job`] / [`ServeStats`] — one admitted run, addressed by its
//!   canonical key, and the per-process counters (`requests`, `runs`,
//!   `batches`, `cache_hits`, `coalesced`, `atoms_steps`, exchange
//!   totals).
//! - [`Scheduler`] — the single admission/completion point shared by
//!   every worker behind one mutex: a request hits the disk cache,
//!   coalesces onto the in-flight run for its key, or becomes a new
//!   run owned by its submitter, who executes it outside the lock and
//!   completes it. In `serve`, the worker that admitted a miss runs it
//!   and streams its report; `--drain` runs the admitted jobs in
//!   admission order, consecutive geometry-compatible jobs sharing one
//!   worker-pool pass ([`Scheduler::run_all`]). Per-job [`JobCell`]s
//!   deliver finished artifacts to coalesced waiters without polling.
//! - [`ServeMetrics`] — the observability layer: log2-bucket latency
//!   histograms ([`Histogram`]) for service time, queue wait, engine
//!   runs, and batch passes; per-acceptor connection counters; shard
//!   integrate/exchange timing; and the `--trace FILE` structured
//!   event trace ([`Tracer`]) behind a bounded never-blocking channel.
//!   One declared metric table renders all of `GET /stats` and
//!   `GET /stats/prom` (Prometheus text exposition) from these and the
//!   scheduler's [`ServeStats`]. Timing data lives **only** here —
//!   never in `report.txt`, `counters.json`, cache keys, or drain
//!   stdout — so the byte-determinism contract survives observation
//!   (see `docs/OPERATIONS.md` for the operator's view).
//! - [`Server`] — the minimal hand-rolled HTTP/1.1 wire layer
//!   (`POST /run`, `GET /stats`, `GET /stats/prom`,
//!   `GET /result/<key>`, `GET /result/<key>/trajectory.xyz`,
//!   `POST /shutdown`), answered by a fixed-size acceptor pool over
//!   **persistent connections**: keep-alive by default (HTTP/1.1
//!   semantics), pipelined requests served in order off the
//!   connection's buffered reader, bounded by a per-connection request
//!   cap and the idle timeout ([`ServeConfig`]: `--serve-threads`,
//!   `--timeout-ms`, `--max-requests-per-conn`; request heads and
//!   bodies have fixed 8 KiB and 1 MiB caps).
//!   Cache misses and trajectories stream as chunked transfer encoding
//!   (self-delimiting, so keep-alive survives streaming).
//! - [`drain_file`] / [`drain_file_with`] — the `--drain FILE` entry
//!   point for CI: admit a request file, run every admitted job, emit
//!   a deterministic per-request + summary report, and exit.
//!
//! Cache soundness is enforced, not assumed: the served `report.txt`
//! contains only physics and the modeled rate — execution geometry
//! (shards, ghost period, threads) never appears in the body — so CI
//! can byte-compare the cached artifacts of geometry-variant specs and
//! the same drain across `WAFER_MD_THREADS` values. Concurrency
//! soundness is tested the same way: the stress suite fires duplicate
//! and distinct specs from many client threads and asserts one engine
//! run per unique spec with every body byte-identical to a
//! single-threaded golden.

// The service surface is operator-facing API: every public item must
// carry docs (kept `cargo doc -D warnings`-clean by CI).
#![warn(missing_docs)]

mod cache;
mod http;
mod metrics;
mod queue;
mod scheduler;

pub use cache::{is_valid_key, CacheBudget, CacheUsage, CachedResult, ResultCache};
pub use http::{ServeConfig, Server};
pub use metrics::{Histogram, HistogramSnapshot, ServeMetrics, TraceEvent, Tracer, HIST_BUCKETS};
pub use queue::{Job, ServeStats};
pub use scheduler::{
    drain_file, drain_file_with, run_spec, run_spec_streaming, Disposition, JobCell, RunArtifacts,
    Scheduler,
};
