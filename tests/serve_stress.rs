//! Concurrency stress tests for `wafer-md serve`: many client threads
//! firing shuffled duplicate, distinct, and malformed specs at an
//! acceptor pool, asserting the service's whole contract at once —
//! exactly one engine run per unique spec, every 200 body
//! byte-identical to a single-threaded golden run, the cache never
//! over budget, and a clean drain on shutdown.
//!
//! The pool width is `WAFER_MD_SERVE_THREADS` (default 4), so CI can
//! drive the same assertions at widths 1 and 4 — under the engines'
//! byte-determinism guarantee, no interleaving may change a single
//! byte of any response.

mod common;

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use common::{fixture_spec, header, http, scratch, KeepAliveClient};
use wafer_md::json::Value;
use wafer_md::scenario::{GhostPeriod, ScenarioSpec};
use wafer_md::serve::{run_spec, CacheBudget, ResultCache, ServeConfig, Server};

/// The acceptor-pool width under test.
fn serve_threads() -> usize {
    std::env::var("WAFER_MD_SERVE_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
}

/// Pull one histogram object out of a parsed `/stats` document.
fn histogram<'a>(v: &'a Value, group: &str, name: &str) -> &'a Value {
    v.get(group)
        .and_then(|g| g.get(name))
        .unwrap_or_else(|| panic!("missing {group}.{name} histogram"))
}

/// The core histogram invariant: the bucket counts partition the
/// recorded values. Returns the count for further assertions.
fn buckets_partition_count(h: &Value, what: &str) -> u64 {
    let count = h.get("count").and_then(Value::as_u64).unwrap();
    let bucket_sum: u64 = h
        .get("buckets")
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .map(|b| b.as_u64().unwrap())
        .sum();
    assert_eq!(
        bucket_sum, count,
        "{what}: bucket counts must sum to the record count"
    );
    count
}

/// Poll `/stats` until the service histogram has recorded `expected`
/// requests. The service clock stops after the response flush, so a
/// client can observe its own response a moment before the record
/// lands — quiescence is reached by polling, not assumed.
fn settled_stats(addr: std::net::SocketAddr, expected: u64) -> Value {
    for _ in 0..1000 {
        let (status, _, stats) = http(addr, "GET", "/stats", "");
        assert_eq!(status, 200);
        let v = Value::parse(stats.trim()).unwrap();
        let count = histogram(&v, "latency", "service")
            .get("count")
            .and_then(Value::as_u64)
            .unwrap();
        if count == expected {
            return v;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    panic!("service histogram never settled to {expected} records");
}

/// A deterministic splitmix-style step, so the request shuffle is
/// reproducible per client without a rand dependency.
fn next(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// The unique specs of the storm: seed variants (distinct physics),
/// a sharded geometry variant (distinct key, byte-identical report),
/// and a trajectory variant (distinct key and artifacts, identical
/// report). Small enough that a full storm stays in test-suite
/// territory.
fn unique_specs() -> Vec<ScenarioSpec> {
    let base = {
        let mut s = fixture_spec();
        s.steps = 10;
        s
    };
    let mut specs = Vec::new();
    for seed in 0..4 {
        let mut s = base;
        s.seed = 100 + seed;
        specs.push(s);
    }
    let mut sharded = base;
    sharded.seed = 100;
    sharded.shards = 2;
    sharded.ghost_period = GhostPeriod::Every(4);
    specs.push(sharded);
    let mut with_xyz = base;
    with_xyz.seed = 101;
    with_xyz.xyz = true;
    specs.push(with_xyz);
    specs
}

#[test]
fn storm_of_duplicates_runs_each_unique_spec_exactly_once() {
    let root = scratch("stress-once");
    let specs = unique_specs();
    // The single-threaded golden: what every 200 body must equal,
    // byte for byte, regardless of interleaving or disposition.
    let golden: Vec<String> = specs.iter().map(|s| run_spec(s).report).collect();
    // The sharded variant proves report bytes carry no geometry.
    assert_eq!(golden[0], golden[4]);

    let budget = CacheBudget {
        max_bytes: u64::MAX,
        max_entries: specs.len(),
    };
    let cache = ResultCache::open_bounded(&root, budget).unwrap();
    let config = ServeConfig {
        threads: serve_threads(),
        ..ServeConfig::default()
    };
    let mut server = Server::bind_with("127.0.0.1:0", cache, config).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.serve().unwrap());

    const CLIENTS: u64 = 8;
    const REQUESTS: u64 = 12;
    let requested: Mutex<HashSet<String>> = Mutex::new(HashSet::new());
    let valid = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let (specs, golden, requested, valid) = (&specs, &golden, &requested, &valid);
            scope.spawn(move || {
                let mut state = (client + 1).wrapping_mul(0x9e3779b97f4a7c15);
                for req in 0..REQUESTS {
                    let roll = next(&mut state);
                    if roll.is_multiple_of(7) {
                        // A malformed spec: answered 400, never admitted.
                        let (status, _, body) = http(addr, "POST", "/run", "pure garbage");
                        assert_eq!(status, 400, "client {client} req {req}");
                        assert!(body.contains("malformed scenario spec"), "{body}");
                        continue;
                    }
                    let i = roll as usize % specs.len();
                    let (status, headers, body) = http(addr, "POST", "/run", &specs[i].to_json());
                    assert_eq!(status, 200, "client {client} req {req}");
                    assert_eq!(header(&headers, "x-wafer-key"), specs[i].key());
                    assert!(
                        matches!(
                            header(&headers, "x-wafer-cache"),
                            "hit" | "miss" | "coalesced"
                        ),
                        "unexpected disposition"
                    );
                    assert_eq!(
                        body, golden[i],
                        "client {client} req {req}: response bytes diverged from the \
                         single-threaded golden"
                    );
                    requested.lock().unwrap().insert(specs[i].key());
                    valid.fetch_add(1, Ordering::SeqCst);
                }
            });
        }
    });

    let distinct = requested.lock().unwrap().len() as u64;
    let valid = valid.load(Ordering::SeqCst);
    assert!(distinct >= 2, "the storm must touch multiple unique specs");

    let (status, _, stats) = http(addr, "GET", "/stats", "");
    assert_eq!(status, 200);
    let v = Value::parse(stats.trim()).unwrap();
    let runs = v.get("runs").and_then(Value::as_u64).unwrap();
    let hits = v.get("cache_hits").and_then(Value::as_u64).unwrap();
    let coalesced = v.get("coalesced").and_then(Value::as_u64).unwrap();
    let batches = v.get("batches").and_then(Value::as_u64).unwrap();
    assert_eq!(runs, distinct, "exactly one engine run per unique spec");
    assert_eq!(v.get("requests").and_then(Value::as_u64), Some(valid));
    assert_eq!(
        runs + hits + coalesced,
        valid,
        "every request classified once"
    );
    assert!(batches >= 1 && batches <= runs, "batches cover the runs");
    assert_eq!(v.get("pending").and_then(Value::as_u64), Some(0));
    assert_eq!(v.get("evictions").and_then(Value::as_u64), Some(0));
    assert!(
        v.get("cache_entries").and_then(Value::as_u64).unwrap() <= specs.len() as u64,
        "cache stayed within its entry budget"
    );

    // The observability layer must agree with the counters once the
    // service histogram settles: every valid request recorded exactly
    // once, every queued job waited exactly once, every engine run
    // timed exactly once, and the batch histograms cover every pass.
    let v = settled_stats(addr, valid);
    let service = buckets_partition_count(histogram(&v, "latency", "service"), "service");
    assert_eq!(service, valid, "one service record per valid request");
    let waited = buckets_partition_count(histogram(&v, "latency", "queue_wait"), "queue_wait");
    assert_eq!(waited, runs, "one queue-wait record per admitted run");
    let timed = buckets_partition_count(histogram(&v, "latency", "engine_run"), "engine_run");
    assert_eq!(timed, runs, "one engine timing per run");
    let passes = buckets_partition_count(histogram(&v, "batch", "pass"), "batch.pass");
    assert_eq!(passes, batches, "one pass timing per batch");
    let occupancy = histogram(&v, "batch", "occupancy");
    buckets_partition_count(occupancy, "batch.occupancy");
    assert_eq!(
        occupancy.get("sum").and_then(Value::as_u64),
        Some(runs),
        "batch occupancy sums to the jobs executed"
    );
    let acceptors = v.get("acceptors").and_then(Value::as_arr).unwrap();
    assert_eq!(acceptors.len(), serve_threads(), "one counter per acceptor");
    let connections: u64 = acceptors.iter().map(|a| a.as_u64().unwrap()).sum();
    assert!(
        connections >= valid,
        "every valid request arrived on some acceptor: {connections} < {valid}"
    );

    let (status, _, _) = http(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    handle.join().expect("acceptor pool drains cleanly");
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn latency_ordering_holds_and_prometheus_exposition_is_well_formed() {
    let root = scratch("stress-latency");
    let specs = unique_specs();
    let cache = ResultCache::open_bounded(&root, CacheBudget::UNBOUNDED).unwrap();
    let config = ServeConfig {
        threads: 1,
        ..ServeConfig::default()
    };
    let mut server = Server::bind_with("127.0.0.1:0", cache, config).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.serve().unwrap());

    // Sequential clients: each request's queue-wait interval nests
    // inside its service interval, so with one request in flight at a
    // time the histogram sums must order the same way.
    for spec in &specs {
        let (status, _, _) = http(addr, "POST", "/run", &spec.to_json());
        assert_eq!(status, 200);
    }
    let (status, headers, _) = http(addr, "POST", "/run", &specs[0].to_json());
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "x-wafer-cache"), "hit");
    let valid = specs.len() as u64 + 1;

    let v = settled_stats(addr, valid);
    let runs = v.get("runs").and_then(Value::as_u64).unwrap();
    assert_eq!(runs, specs.len() as u64);
    let service = histogram(&v, "latency", "service");
    let wait = histogram(&v, "latency", "queue_wait");
    let engine = histogram(&v, "latency", "engine_run");
    for (h, what) in [
        (service, "service"),
        (wait, "queue_wait"),
        (engine, "engine_run"),
    ] {
        buckets_partition_count(h, what);
    }
    let sum = |h: &Value| h.get("sum").and_then(Value::as_u64).unwrap();
    let max = |h: &Value| h.get("max").and_then(Value::as_u64).unwrap();
    assert!(
        sum(wait) <= sum(service),
        "queue wait nests inside service time: {} > {}",
        sum(wait),
        sum(service)
    );
    assert!(
        max(wait) <= max(service),
        "the longest wait belongs to some request that served at least as long"
    );
    // The sharded variant ran, so the per-shard phase clocks accrued.
    let shards = v.get("shards").unwrap_or_else(|| panic!("missing shards"));
    assert!(shards.get("integrate_us").and_then(Value::as_u64).unwrap() > 0);
    assert!(shards.get("exchange_us").and_then(Value::as_u64).unwrap() > 0);
    // No tracer attached: the trace counters stay zero.
    let trace = v.get("trace").unwrap_or_else(|| panic!("missing trace"));
    assert_eq!(trace.get("emitted").and_then(Value::as_u64), Some(0));
    assert_eq!(trace.get("dropped").and_then(Value::as_u64), Some(0));

    // The same state through the Prometheus text exposition: every
    // line well-formed, every histogram internally consistent.
    let (status, headers, prom) = http(addr, "GET", "/stats/prom", "");
    assert_eq!(status, 200);
    assert_eq!(
        header(&headers, "content-type"),
        "text/plain; version=0.0.4"
    );
    let mut service_buckets: Vec<f64> = Vec::new();
    let mut service_count = None;
    let mut requests_total = None;
    for line in prom.lines().filter(|l| !l.is_empty()) {
        if line.starts_with('#') {
            assert!(
                line.starts_with("# HELP wafer_md_") || line.starts_with("# TYPE wafer_md_"),
                "malformed comment line: {line}"
            );
            continue;
        }
        let (name, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("bad line: {line}"));
        assert!(name.starts_with("wafer_md_"), "foreign metric: {line}");
        let value: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("bad value: {line}"));
        assert!(value.is_finite() && value >= 0.0, "bad value: {line}");
        if name.starts_with("wafer_md_request_service_seconds_bucket") {
            service_buckets.push(value);
        }
        if name == "wafer_md_request_service_seconds_count" {
            service_count = Some(value);
        }
        if name == "wafer_md_requests_total" {
            requests_total = Some(value);
        }
    }
    assert!(
        service_buckets.windows(2).all(|w| w[0] <= w[1]),
        "bucket counters must be cumulative: {service_buckets:?}"
    );
    assert_eq!(
        service_buckets.last().copied(),
        service_count,
        "the +Inf bucket equals the histogram count"
    );
    assert_eq!(requests_total, Some(valid as f64));

    let (status, _, _) = http(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    handle.join().expect("acceptor pool drains cleanly");
    std::fs::remove_dir_all(&root).unwrap();
}

/// Every file under `root`, as sorted (relative path, bytes) pairs —
/// for whole-cache byte comparisons.
fn dir_snapshot(root: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    fn walk(dir: &std::path::Path, base: &std::path::Path, out: &mut Vec<(String, Vec<u8>)>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(&path, base, out);
            } else {
                let rel = path
                    .strip_prefix(base)
                    .unwrap()
                    .to_string_lossy()
                    .into_owned();
                out.push((rel, std::fs::read(&path).unwrap()));
            }
        }
    }
    let mut out = Vec::new();
    walk(root, root, &mut out);
    out.sort();
    out
}

#[test]
fn keep_alive_socket_matches_fresh_connections_byte_for_byte() {
    // The keep-alive conformance contract: the same 8-request mixed
    // hit/miss sequence, issued as 8 fresh connections against one
    // server and down a single persistent socket against an identical
    // second server, must produce pairwise byte-identical bodies and
    // dispositions — and leave byte-identical caches behind.
    let specs = unique_specs();
    let seq: [usize; 8] = [0, 1, 0, 2, 3, 1, 4, 5];
    let config = ServeConfig {
        threads: serve_threads(),
        ..ServeConfig::default()
    };

    let fresh_root = scratch("keepalive-fresh");
    let cache = ResultCache::open_bounded(&fresh_root, CacheBudget::UNBOUNDED).unwrap();
    let mut server = Server::bind_with("127.0.0.1:0", cache, config).unwrap();
    let fresh_addr = server.local_addr().unwrap();
    let fresh_handle = std::thread::spawn(move || server.serve().unwrap());
    let fresh: Vec<(String, String)> = seq
        .iter()
        .map(|&i| {
            let (status, headers, body) = http(fresh_addr, "POST", "/run", &specs[i].to_json());
            assert_eq!(status, 200);
            (header(&headers, "x-wafer-cache").to_string(), body)
        })
        .collect();

    let ka_root = scratch("keepalive-persistent");
    let cache = ResultCache::open_bounded(&ka_root, CacheBudget::UNBOUNDED).unwrap();
    let mut server = Server::bind_with("127.0.0.1:0", cache, config).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.serve().unwrap());
    let mut client = KeepAliveClient::connect(addr);
    for (n, &i) in seq.iter().enumerate() {
        let (status, headers, body) = client.exchange("POST", "/run", &[], &specs[i].to_json());
        assert_eq!(status, 200, "request {n}");
        assert_eq!(
            header(&headers, "connection"),
            "keep-alive",
            "request {n} must not close the connection"
        );
        let (fresh_label, fresh_body) = &fresh[n];
        assert_eq!(
            header(&headers, "x-wafer-cache"),
            fresh_label,
            "request {n}"
        );
        assert_eq!(
            &body, fresh_body,
            "request {n}: keep-alive body diverged from the fresh-connection body"
        );
    }

    // The whole sequence rode one connection: exactly one reused
    // connection counted, nothing pipelined (each request waited for
    // the previous response).
    let v = settled_stats(addr, seq.len() as u64);
    let conns = v.get("connections").expect("connections stats object");
    assert_eq!(conns.get("reused").and_then(Value::as_u64), Some(1));
    assert_eq!(conns.get("pipelined").and_then(Value::as_u64), Some(0));
    assert_eq!(v.get("requests").and_then(Value::as_u64), Some(8));

    for (a, h) in [(fresh_addr, fresh_handle), (addr, handle)] {
        let (status, _, _) = http(a, "POST", "/shutdown", "");
        assert_eq!(status, 200);
        h.join().expect("acceptor pool drains cleanly");
    }
    // Same access sequence, clean shutdowns: the two cache trees are
    // byte-identical, index file included.
    assert_eq!(
        dir_snapshot(&fresh_root),
        dir_snapshot(&ka_root),
        "keep-alive serving must leave the same cache as fresh connections"
    );
    std::fs::remove_dir_all(&fresh_root).unwrap();
    std::fs::remove_dir_all(&ka_root).unwrap();
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let root = scratch("pipeline");
    let specs = unique_specs();
    let golden: Vec<String> = specs.iter().map(|s| run_spec(s).report).collect();
    let cache = ResultCache::open_bounded(&root, CacheBudget::UNBOUNDED).unwrap();
    let config = ServeConfig {
        threads: serve_threads(),
        ..ServeConfig::default()
    };
    let mut server = Server::bind_with("127.0.0.1:0", cache, config).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.serve().unwrap());

    // Three POSTs back-to-back before reading a single response byte:
    // two distinct misses, then a repeat of the first. The responses
    // must come back in request order with the right dispositions —
    // the repeat is a hit because request 1 completed before the
    // serial reader reached request 3.
    let mut client = KeepAliveClient::connect(addr);
    client.send("POST", "/run", &[], &specs[0].to_json());
    client.send("POST", "/run", &[], &specs[1].to_json());
    client.send("POST", "/run", &[], &specs[0].to_json());
    for (n, (i, want)) in [(0usize, "miss"), (1, "miss"), (0, "hit")]
        .iter()
        .enumerate()
    {
        let (status, headers, body) = client.read_response();
        assert_eq!(status, 200, "pipelined response {n}");
        assert_eq!(
            header(&headers, "x-wafer-key"),
            specs[*i].key(),
            "response {n}"
        );
        assert_eq!(header(&headers, "x-wafer-cache"), *want, "response {n}");
        assert_eq!(body, golden[*i], "pipelined response {n} body");
    }

    // At least the third request was already buffered when the server
    // went back to the socket (the client wrote everything before the
    // first run finished), so the pipelined counter moved.
    let v = settled_stats(addr, 3);
    let conns = v.get("connections").expect("connections stats object");
    assert!(
        conns.get("pipelined").and_then(Value::as_u64).unwrap() >= 1,
        "pipelined requests must be counted: {v:?}"
    );
    assert_eq!(conns.get("reused").and_then(Value::as_u64), Some(1));

    let (status, _, _) = http(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    handle.join().expect("acceptor pool drains cleanly");
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn max_requests_per_conn_caps_a_persistent_connection() {
    let root = scratch("conn-cap");
    let cache = ResultCache::open_bounded(&root, CacheBudget::UNBOUNDED).unwrap();
    let config = ServeConfig {
        threads: 2,
        max_requests_per_conn: 3,
        ..ServeConfig::default()
    };
    let mut server = Server::bind_with("127.0.0.1:0", cache, config).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.serve().unwrap());

    let mut client = KeepAliveClient::connect(addr);
    for n in 0..3 {
        let (status, headers, _) = client.exchange("GET", "/stats", &[], "");
        assert_eq!(status, 200);
        let want = if n < 2 { "keep-alive" } else { "close" };
        assert_eq!(
            header(&headers, "connection"),
            want,
            "request {n} of a 3-request cap"
        );
    }
    assert!(
        client.at_eof(),
        "the server closes the socket at the request cap"
    );
    // A fresh connection is served normally afterwards.
    let (status, _, _) = http(addr, "GET", "/stats", "");
    assert_eq!(status, 200);

    let (status, _, _) = http(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    handle.join().expect("acceptor pool drains cleanly");
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn a_polite_client_is_not_starved_by_a_greedy_flood() {
    let root = scratch("fairness");
    let cache = ResultCache::open_bounded(&root, CacheBudget::UNBOUNDED).unwrap();
    // One worker per connection: three greedy sockets plus the polite
    // one all admit concurrently, and each worker runs its own misses.
    let config = ServeConfig {
        threads: 4,
        ..ServeConfig::default()
    };
    let mut server = Server::bind_with("127.0.0.1:0", cache, config).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.serve().unwrap());

    // Greedy: three persistent connections flooding distinct sharded
    // specs. Polite: one connection, a handful of distinct plain specs,
    // each round trip timed.
    let base = {
        let mut s = fixture_spec();
        s.steps = 10;
        s
    };
    let worst = Mutex::new(Duration::ZERO);
    std::thread::scope(|scope| {
        for conn in 0..3u64 {
            let base = &base;
            scope.spawn(move || {
                let mut client = KeepAliveClient::connect(addr);
                for req in 0..8u64 {
                    let mut spec = *base;
                    spec.seed = 5000 + conn * 100 + req;
                    spec.shards = 2;
                    spec.ghost_period = GhostPeriod::Every(4);
                    let (status, headers, body) =
                        client.exchange("POST", "/run", &[], &spec.to_json());
                    assert_eq!(status, 200, "greedy conn {conn} req {req}");
                    assert_eq!(header(&headers, "x-wafer-cache"), "miss");
                    assert!(body.starts_with("== wafer-md serve:"), "{body}");
                }
            });
        }
        let (base, worst) = (&base, &worst);
        scope.spawn(move || {
            let mut client = KeepAliveClient::connect(addr);
            for req in 0..5u64 {
                let mut spec = *base;
                spec.seed = 9000 + req;
                let started = Instant::now();
                let (status, _, body) = client.exchange("POST", "/run", &[], &spec.to_json());
                let elapsed = started.elapsed();
                assert_eq!(status, 200, "polite req {req}");
                assert!(body.starts_with("== wafer-md serve:"), "{body}");
                let mut worst = worst.lock().unwrap();
                if elapsed > *worst {
                    *worst = elapsed;
                }
            }
        });
    });

    // Starvation would park the polite client behind the entire
    // greedy backlog; a worker that runs the miss it admitted bounds
    // its wait to its own run. The bound is deliberately generous — it
    // catches unbounded queue-behind-the-flood behavior, not jitter.
    let worst = *worst.lock().unwrap();
    assert!(
        worst < Duration::from_secs(30),
        "polite client starved: worst round trip {worst:?}"
    );

    let v = settled_stats(addr, 3 * 8 + 5);
    assert_eq!(v.get("runs").and_then(Value::as_u64), Some(3 * 8 + 5));
    assert_eq!(v.get("pending").and_then(Value::as_u64), Some(0));

    // The retired scheduling headers are unknown headers now, ignored
    // like any other.
    let mut spec = base;
    spec.seed = 9999;
    let mut client = KeepAliveClient::connect(addr);
    let (status, _, _) = client.exchange(
        "POST",
        "/run",
        &[("X-Wafer-Priority", "HIGH")],
        &spec.to_json(),
    );
    assert_eq!(status, 200, "an X-Wafer-Priority header is ignored");

    let (status, _, _) = http(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    handle.join().expect("acceptor pool drains cleanly");
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn each_worker_streams_the_miss_it_admitted() {
    let root = scratch("own-miss");
    let cache = ResultCache::open_bounded(&root, CacheBudget::UNBOUNDED).unwrap();
    let threads = serve_threads();
    let config = ServeConfig {
        threads,
        ..ServeConfig::default()
    };
    let mut server = Server::bind_with("127.0.0.1:0", cache, config).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.serve().unwrap());

    // Distinct misses of one batch class (only the seed differs), one
    // per worker per round; each round is released together so the
    // runs overlap. Answers are checked after the clients finish, so
    // one wrong answer cannot strand the others at the barrier.
    const ROUNDS: u64 = 8;
    let spec = |client: u64, round: u64| {
        let mut s = fixture_spec();
        s.steps = 10;
        s.seed = 7000 + client * ROUNDS + round;
        s
    };
    let barrier = Barrier::new(threads);
    let answers = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for client in 0..threads as u64 {
            let (barrier, spec, answers) = (&barrier, &spec, &answers);
            scope.spawn(move || {
                let mut conn = KeepAliveClient::connect(addr);
                for round in 0..ROUNDS {
                    let spec = spec(client, round);
                    barrier.wait();
                    let answer = conn.exchange("POST", "/run", &[], &spec.to_json());
                    answers.lock().unwrap().push((spec, answer));
                }
            });
        }
    });
    for (spec, (status, headers, body)) in answers.into_inner().unwrap() {
        assert_eq!(status, 200);
        assert_eq!(header(&headers, "x-wafer-cache"), "miss");
        assert_eq!(
            header(&headers, "transfer-encoding"),
            "chunked",
            "a miss is streamed by the worker that admitted it"
        );
        assert_eq!(
            body,
            run_spec(&spec).report,
            "streamed bytes equal run_spec's report"
        );
    }

    let misses = threads as u64 * ROUNDS;
    let v = settled_stats(addr, misses);
    let runs = v.get("runs").and_then(Value::as_u64).unwrap();
    assert_eq!(runs, misses, "one run per distinct miss");
    assert_eq!(
        v.get("batches").and_then(Value::as_u64),
        Some(runs),
        "every serve run is its own batch"
    );

    let (status, _, _) = http(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    handle.join().expect("acceptor pool drains cleanly");
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn bounded_cache_under_concurrency_stays_in_budget_and_reruns_identically() {
    let root = scratch("stress-bounded");
    let specs = unique_specs();
    let golden: Vec<String> = specs.iter().map(|s| run_spec(s).report).collect();

    // A budget far below the working set: evictions are guaranteed, and
    // an evicted spec re-requested must re-run to byte-identical bytes.
    let budget = CacheBudget {
        max_bytes: u64::MAX,
        max_entries: 2,
    };
    let cache = ResultCache::open_bounded(&root, budget).unwrap();
    let config = ServeConfig {
        threads: serve_threads(),
        ..ServeConfig::default()
    };
    let mut server = Server::bind_with("127.0.0.1:0", cache, config).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.serve().unwrap());

    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // A monitor thread polls /stats throughout the storm: the
        // budget must hold at every observable moment, not just at the
        // end.
        let done_ref = &done;
        scope.spawn(move || {
            while !done_ref.load(Ordering::SeqCst) {
                let (status, _, stats) = http(addr, "GET", "/stats", "");
                assert_eq!(status, 200);
                let v = Value::parse(stats.trim()).unwrap();
                assert!(
                    v.get("cache_entries").and_then(Value::as_u64).unwrap() <= 2,
                    "cache exceeded its entry budget mid-storm: {stats}"
                );
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
        });
        let clients: Vec<_> = (0..4u64)
            .map(|client| {
                let (specs, golden) = (&specs, &golden);
                scope.spawn(move || {
                    let mut state = (client + 1).wrapping_mul(0x2545f4914f6cdd1d);
                    for req in 0..10u64 {
                        let i = next(&mut state) as usize % specs.len();
                        let (status, _, body) = http(addr, "POST", "/run", &specs[i].to_json());
                        assert_eq!(status, 200, "client {client} req {req}");
                        assert_eq!(
                            body, golden[i],
                            "an eviction-forced rerun must reproduce the bytes exactly"
                        );
                    }
                })
            })
            .collect();
        for client in clients {
            client.join().expect("client thread");
        }
        // Release the monitor only after every client is done, so it
        // watched the whole storm.
        done.store(true, Ordering::SeqCst);
    });

    let (_, _, stats) = http(addr, "GET", "/stats", "");
    let v = Value::parse(stats.trim()).unwrap();
    let runs = v.get("runs").and_then(Value::as_u64).unwrap();
    assert!(
        v.get("evictions").and_then(Value::as_u64).unwrap() > 0,
        "the budget was tight enough to force evictions: {stats}"
    );
    assert!(
        runs >= 3,
        "evictions force re-runs past the unique-spec floor: {stats}"
    );
    assert!(v.get("cache_entries").and_then(Value::as_u64).unwrap() <= 2);

    let (status, _, _) = http(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    handle.join().expect("acceptor pool drains cleanly");
    std::fs::remove_dir_all(&root).unwrap();
}
