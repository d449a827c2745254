//! End-to-end tests for `wafer-md serve`: the scheduler's
//! run-once/cache-forever contract, the HTTP wire layer, the `--drain`
//! goldens, and the spec round-trip properties the cache's soundness
//! rests on.

mod common;

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use common::{fixture_spec, header, http, scratch, KeepAliveClient};
use proptest::prelude::*;
use wafer_md::json::Value;
use wafer_md::md::materials::Species;
use wafer_md::md::vec3::V3d;
use wafer_md::scenario::{GhostPeriod, ScenarioSpec, Thermostat, Workload};
use wafer_md::serve::{run_spec, Disposition, ResultCache, Scheduler, Server};

#[test]
fn same_spec_twice_is_one_run_with_byte_identical_responses() {
    let root = scratch("twice");
    let mut scheduler = Scheduler::new(ResultCache::open(&root).unwrap());
    let spec = fixture_spec();

    let (key, first) = scheduler.submit(spec);
    let Disposition::Run(job) = first else {
        panic!("a cold cache misses: {first:?}")
    };
    assert_eq!(scheduler.pending(), 1);
    assert_eq!(
        scheduler.run_all(&[job]).unwrap(),
        1,
        "exactly one physics run"
    );
    let fresh = scheduler.result(&key).expect("drained result is cached");

    let (key_again, second) = scheduler.submit(spec);
    assert_eq!(key_again, key);
    assert!(
        matches!(second, Disposition::CacheHit(_)),
        "the hit counter proves no rerun"
    );
    let cached = scheduler.result(&key).unwrap();
    assert_eq!(fresh, cached, "cached response is byte-identical to fresh");

    let stats = scheduler.stats();
    assert_eq!(stats.requests, 2);
    assert_eq!(stats.runs, 1);
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.coalesced, 0);
    assert_eq!(stats.atoms_steps, 18 * 20, "3x3x1 BCC slab, 20 steps");
    fs::remove_dir_all(&root).unwrap();
}

#[test]
fn pre_drain_duplicates_coalesce_onto_one_job() {
    let root = scratch("coalesce");
    let mut scheduler = Scheduler::new(ResultCache::open(&root).unwrap());
    let spec = fixture_spec();
    let Disposition::Run(job) = scheduler.submit(spec).1 else {
        panic!("a cold cache misses")
    };
    assert!(matches!(
        scheduler.submit(spec).1,
        Disposition::Coalesced(_)
    ));
    assert_eq!(scheduler.pending(), 1, "one job despite two requests");
    assert_eq!(scheduler.run_all(&[job]).unwrap(), 1);
    assert_eq!(scheduler.stats().coalesced, 1);
    fs::remove_dir_all(&root).unwrap();
}

#[test]
fn pending_counts_an_admitted_run_until_it_settles() {
    let root = scratch("pending");
    let mut scheduler = Scheduler::new(ResultCache::open(&root).unwrap());
    let (_, disposition) = scheduler.submit(fixture_spec());
    let Disposition::Run(job) = disposition else {
        panic!("a cold cache misses: {disposition:?}")
    };
    // The submitter owns the job and runs it outside the scheduler;
    // until it completes, the run is admitted but not settled.
    let artifacts = run_spec(&job.spec);
    assert_eq!(scheduler.pending(), 1, "a running job is still pending");
    let stats = Value::parse(&scheduler.stats_json()).unwrap();
    assert_eq!(stats.get("pending").and_then(Value::as_u64), Some(1));
    assert!(scheduler
        .prometheus_text()
        .contains("wafer_md_pending_jobs 1\n"));
    scheduler.complete(&job, artifacts).unwrap();
    assert_eq!(scheduler.pending(), 0);
    let stats = Value::parse(&scheduler.stats_json()).unwrap();
    assert_eq!(stats.get("pending").and_then(Value::as_u64), Some(0));
    fs::remove_dir_all(&root).unwrap();
}

#[test]
fn distinct_seeds_get_distinct_keys_and_cache_entries() {
    let root = scratch("seeds");
    let mut scheduler = Scheduler::new(ResultCache::open(&root).unwrap());
    let a = fixture_spec();
    let mut b = a;
    b.seed = a.seed + 1;
    assert_ne!(a.key(), b.key());

    let (key_a, Disposition::Run(job_a)) = scheduler.submit(a) else {
        panic!("a cold cache misses")
    };
    let (key_b, Disposition::Run(job_b)) = scheduler.submit(b) else {
        panic!("a cold cache misses")
    };
    assert_eq!(
        scheduler.run_all(&[job_a, job_b]).unwrap(),
        2,
        "two seeds, two runs"
    );
    let ra = scheduler.result(&key_a).unwrap();
    let rb = scheduler.result(&key_b).unwrap();
    assert_ne!(
        ra.report, rb.report,
        "different seeds draw different velocities"
    );
    fs::remove_dir_all(&root).unwrap();
}

#[test]
fn execution_geometry_changes_the_key_but_never_the_report_bytes() {
    // Same physics, different execution geometry: sharded two ways at a
    // longer ghost period on a pinned two-thread pool. Distinct cache
    // keys (the spec hashes whole), byte-identical reports — the
    // determinism guarantee the cache is built on.
    let a = fixture_spec();
    let mut b = a;
    b.shards = 2;
    b.ghost_period = GhostPeriod::Every(4);
    b.threads = 2;
    assert_ne!(a.key(), b.key());

    let ra = wafer_md::serve::run_spec(&a);
    let rb = wafer_md::serve::run_spec(&b);
    assert_eq!(ra.report, rb.report, "report carries no execution geometry");
    assert_eq!(
        ra.run_counters.exchanges, 0,
        "unsharded: nothing to exchange"
    );
    assert!(
        rb.run_counters.exchanges > 0,
        "sharded run exchanged ghosts"
    );
    assert_ne!(ra.counters, rb.counters, "counters.json is per-key");
}

#[test]
fn requesting_a_trajectory_changes_artifacts_but_not_the_report() {
    let plain = fixture_spec();
    let mut with_xyz = plain;
    with_xyz.xyz = true;
    let ra = wafer_md::serve::run_spec(&plain);
    let rb = wafer_md::serve::run_spec(&with_xyz);
    assert_eq!(ra.report, rb.report);
    assert!(ra.trajectory.is_none());
    let traj = rb.trajectory.expect("xyz requested");
    // Frames at steps 0, 10, and 20 of an 18-atom slab.
    assert_eq!(traj.matches("step=").count(), 3);
    assert!(traj.starts_with("18\nstep=0 serve\n"));
}

#[test]
fn http_server_round_trip_hit_miss_stats_and_hints() {
    let root = scratch("http");
    let mut server = Server::bind("127.0.0.1:0", &root).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.serve().unwrap());

    let spec = fixture_spec();
    let request = spec.to_json();

    let (status, headers, fresh) = http(addr, "POST", "/run", &request);
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "x-wafer-cache"), "miss");
    assert_eq!(header(&headers, "x-wafer-key"), spec.key());
    assert!(
        fresh.starts_with("== wafer-md serve: Tantalum slab, 18 atoms, engine wse =="),
        "{fresh}"
    );

    let (status, headers, cached) = http(addr, "POST", "/run", &request);
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "x-wafer-cache"), "hit");
    assert_eq!(fresh, cached, "hit body is byte-identical to the fresh run");

    let (status, _, stats) = http(addr, "GET", "/stats", "");
    assert_eq!(status, 200);
    let v = Value::parse(stats.trim()).unwrap();
    assert_eq!(v.get("requests").and_then(Value::as_u64), Some(2));
    assert_eq!(v.get("runs").and_then(Value::as_u64), Some(1));
    assert_eq!(v.get("cache_hits").and_then(Value::as_u64), Some(1));
    assert_eq!(v.get("pending").and_then(Value::as_u64), Some(0));

    let (status, _, replay) = http(addr, "GET", &format!("/result/{}", spec.key()), "");
    assert_eq!(status, 200);
    assert_eq!(replay, fresh);
    let (status, _, _) = http(addr, "GET", "/result/00000000deadbeef", "");
    assert_eq!(status, 404);

    // Key validation: anything but 16 lowercase hex characters is a
    // 400 before it can touch the filesystem.
    for bad in [
        "/result/00000000DEADBEEF",  // uppercase
        "/result/00000000deadbee",   // 15 chars
        "/result/00000000deadbeef0", // 17 chars
        "/result/..%2f..%2fetc%2fpasswd",
        "/result/../../../etc/passwd",
        "/result/........????????",
    ] {
        let (status, _, err) = http(addr, "GET", bad, "");
        assert_eq!(status, 400, "{bad} must be rejected");
        assert!(err.contains("16 lowercase hex"), "{bad}: {err}");
    }
    // A valid key with an unknown artifact name is a 404, not a file read.
    let (status, _, _) = http(
        addr,
        "GET",
        &format!("/result/{}/spec.json", spec.key()),
        "",
    );
    assert_eq!(status, 404);
    // This spec recorded no trajectory.
    let (status, _, _) = http(
        addr,
        "GET",
        &format!("/result/{}/trajectory.xyz", spec.key()),
        "",
    );
    assert_eq!(status, 404);

    // Malformed requests: 400 plus the typed hint, never a crash.
    let (status, _, err) = http(addr, "POST", "/run", "{\"species\":\"Ta\"}");
    assert_eq!(status, 400);
    assert!(err.contains("missing required field 'workload'"), "{err}");
    let (status, _, err) = http(addr, "POST", "/run", "pure garbage");
    assert_eq!(status, 400);
    assert!(err.contains("malformed scenario spec"), "{err}");
    let (status, _, err) = http(
        addr,
        "POST",
        "/run",
        "{\"species\":\"Ta\",\"workload\":{\"kind\":\"controlled-grid\",\"side\":6,\"spacing\":2.0,\"b\":-1}}",
    );
    assert_eq!(status, 400);
    assert!(err.contains("from 1 to side (6)"), "{err}");
    let (status, _, err) = http(addr, "GET", "/nope", "");
    assert_eq!(status, 404);
    assert!(err.contains("POST /run"), "{err}");

    // Bad requests don't pollute the counters.
    let (_, _, stats) = http(addr, "GET", "/stats", "");
    let v = Value::parse(stats.trim()).unwrap();
    assert_eq!(v.get("requests").and_then(Value::as_u64), Some(2));

    let (status, _, bye) = http(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    assert_eq!(bye, "shutting down\n");
    handle.join().expect("server thread exits cleanly");
    fs::remove_dir_all(&root).unwrap();
}

/// Keep-alive hits must not wait on the client's delayed ACK: with a
/// response split over several segments and Nagle on, each one stalls
/// ~40 ms, so 50 take ≥ 2 s; written whole with `TCP_NODELAY` they take
/// milliseconds.
#[test]
fn keep_alive_hits_do_not_stall_on_delayed_acks() {
    let root = scratch("ka-latency");
    let mut server = Server::bind("127.0.0.1:0", &root).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.serve().unwrap());

    let request = fixture_spec().to_json();
    let mut client = KeepAliveClient::connect(addr);
    let (status, headers, miss) = client.exchange("POST", "/run", &[], &request);
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "x-wafer-cache"), "miss");

    let started = Instant::now();
    for i in 0..50 {
        let (status, headers, hit) = client.exchange("POST", "/run", &[], &request);
        assert_eq!(status, 200);
        assert_eq!(header(&headers, "x-wafer-cache"), "hit");
        assert_eq!(hit, miss, "hit {i} body is byte-identical to the miss");
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "50 keep-alive hits took {elapsed:?}: responses are waiting on delayed ACKs"
    );
    drop(client);

    let (status, _, _) = http(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    handle.join().expect("server thread exits cleanly");
    fs::remove_dir_all(&root).unwrap();
}

#[test]
fn trajectory_streams_chunked_from_the_cache() {
    let root = scratch("traj-stream");
    let mut server = Server::bind("127.0.0.1:0", &root).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.serve().unwrap());

    let mut spec = fixture_spec();
    spec.xyz = true;
    let (status, headers, _) = http(addr, "POST", "/run", &spec.to_json());
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "x-wafer-cache"), "miss");

    let (status, headers, traj) = http(
        addr,
        "GET",
        &format!("/result/{}/trajectory.xyz", spec.key()),
        "",
    );
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "transfer-encoding"), "chunked");
    // The streamed bytes are exactly the cached artifact: frames at
    // steps 0, 10, and 20 of the 18-atom slab.
    let on_disk = fs::read_to_string(root.join(spec.key()).join("trajectory.xyz")).unwrap();
    assert_eq!(traj, on_disk);
    assert!(traj.starts_with("18\nstep=0 serve\n"));
    assert_eq!(traj.matches("step=").count(), 3);

    let (status, _, _) = http(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    handle.join().expect("server thread exits cleanly");
    fs::remove_dir_all(&root).unwrap();
}

fn wafer_md_bin() -> &'static str {
    env!("CARGO_BIN_EXE_wafer-md")
}

fn fixture_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/serve-requests.jsonl")
}

#[test]
fn drain_matches_the_committed_goldens_cold_and_warm() {
    let root = scratch("drain");
    let drain = || {
        let out = Command::new(wafer_md_bin())
            .args([
                "serve",
                "--cache",
                root.to_str().unwrap(),
                "--drain",
                fixture_path().to_str().unwrap(),
            ])
            .output()
            .expect("run wafer-md serve --drain");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };

    let cold = drain();
    assert_eq!(cold, include_str!("golden/serve-drain-cold.txt"));
    let warm = drain();
    assert_eq!(warm, include_str!("golden/serve-drain-warm.txt"));

    // The cached report matches the committed golden, and the
    // geometry-variant spec (line 3: 2 shards, ghost period 4,
    // scrambled field order) cached the byte-identical report under its
    // own key.
    let mut lines = cold.lines();
    let key_a = lines.next().unwrap().split(' ').next().unwrap();
    let key_b = cold.lines().nth(2).unwrap().split(' ').next().unwrap();
    assert_ne!(key_a, key_b);
    let report_a = fs::read_to_string(root.join(key_a).join("report.txt")).unwrap();
    let report_b = fs::read_to_string(root.join(key_b).join("report.txt")).unwrap();
    assert_eq!(report_a, include_str!("golden/serve-report.txt"));
    assert_eq!(
        report_a, report_b,
        "geometry variants cache identical bytes"
    );
    // The stored spec is the canonical form — scrambled input
    // normalized on the way in.
    let spec_b = fs::read_to_string(root.join(key_b).join("spec.json")).unwrap();
    let parsed = ScenarioSpec::from_json(&spec_b).unwrap();
    assert_eq!(spec_b, parsed.to_json());
    fs::remove_dir_all(&root).unwrap();
}

#[test]
fn malformed_drain_line_exits_2_with_a_hint() {
    let root = scratch("bad-drain");
    let requests = scratch("bad-drain-file").with_extension("jsonl");
    fs::write(&requests, "{\"species\":\"Ta\"}\n").unwrap();
    let out = Command::new(wafer_md_bin())
        .args([
            "serve",
            "--cache",
            root.to_str().unwrap(),
            "--drain",
            requests.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("line 1") && stderr.contains("missing required field 'workload'"),
        "{stderr}"
    );
    fs::write(&requests, "pure garbage\n").unwrap();
    let out = Command::new(wafer_md_bin())
        .args([
            "serve",
            "--cache",
            root.to_str().unwrap(),
            "--drain",
            requests.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("malformed scenario spec"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = fs::remove_file(&requests);
    let _ = fs::remove_dir_all(&root);
}

/// A controlled grid's radius must lie in 1..=side: below 1 the run has
/// no physics, and a huge one used to overflow the candidate count.
#[test]
fn controlled_grid_b_outside_1_to_side_exits_2_from_drain() {
    let root = scratch("bad-grid-b");
    let requests = scratch("bad-grid-b-file").with_extension("jsonl");
    for b in ["-1", "0", "7", "2147483647"] {
        fs::write(
            &requests,
            format!(
                "{{\"species\":\"Ta\",\"workload\":{{\"kind\":\"controlled-grid\",\"side\":6,\"spacing\":2.0,\"b\":{b}}},\"steps\":2}}\n"
            ),
        )
        .unwrap();
        let out = Command::new(wafer_md_bin())
            .args([
                "serve",
                "--cache",
                root.to_str().unwrap(),
                "--drain",
                requests.to_str().unwrap(),
            ])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "b = {b}: {stderr}");
        assert!(
            stderr.contains("line 1")
                && stderr.contains("'workload.b' must be an integer from 1 to side (6)"),
            "b = {b}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "b = {b}: nothing may run");
    }
    let _ = fs::remove_file(&requests);
    let _ = fs::remove_dir_all(&root);
}

fn arb_workload() -> impl Strategy<Value = Workload> {
    (0u8..3, 1usize..6, 1usize..6, 1usize..4, 1.0f64..4.0).prop_map(|(kind, a, b, c, x)| match kind
    {
        0 => Workload::Slab {
            nx: a,
            ny: b,
            nz: c,
        },
        1 => Workload::GrainBoundary {
            size: V3d::new(10.0 + x, 9.0 * x, 3.0 + a as f64),
        },
        _ => Workload::ControlledGrid {
            side: 4 + a,
            spacing: x,
            b: b as i32,
        },
    })
}

fn arb_spec() -> impl Strategy<Value = ScenarioSpec> {
    let physics = (
        0u8..3,
        0.0f64..2000.0,
        1e-4f64..1e-2,
        1usize..200,
        0u64..u64::MAX,
    );
    let thermo = (0u8..2, 100.0f64..1000.0, 1usize..20);
    let exec = (0u8..2, 0u8..8, 0.0f64..0.3);
    let layout = (0usize..5, 1usize..5, 0usize..5, 0u8..2);
    (arb_workload(), physics, thermo, exec, layout).prop_map(
        |(
            workload,
            (species, temperature, dt, steps, seed),
            (thermo_kind, target, interval),
            (engine, periodic_bits, spare),
            (gp, shards, threads, xyz),
        )| {
            let species = [Species::Cu, Species::W, Species::Ta][species as usize];
            let mut spec = ScenarioSpec::new(species, workload);
            spec.temperature = temperature;
            spec.dt = dt;
            spec.steps = steps;
            spec.seed = seed;
            spec.engine = if engine == 0 {
                wafer_md::scenario::EngineKind::Baseline
            } else {
                wafer_md::scenario::EngineKind::Wse
            };
            spec.periodic = [
                periodic_bits & 1 != 0,
                periodic_bits & 2 != 0,
                periodic_bits & 4 != 0,
            ];
            spec.spare = spare;
            spec.thermostat = if thermo_kind == 0 {
                Thermostat::None
            } else {
                Thermostat::Rescale { target, interval }
            };
            spec.shards = shards;
            spec.ghost_period = if gp == 0 {
                GhostPeriod::Auto
            } else {
                GhostPeriod::Every(gp)
            };
            spec.threads = threads;
            spec.xyz = xyz != 0;
            spec
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The cache-soundness property: every spec round-trips losslessly
    /// through canonical JSON, the canonical form is a fixed point, and
    /// the hash is independent of the field order of the JSON source.
    #[test]
    fn spec_round_trips_and_hash_ignores_field_order(
        spec in arb_spec(),
        rotation in 0usize..14,
    ) {
        let json = spec.to_json();
        let back = ScenarioSpec::from_json(&json).unwrap();
        prop_assert_eq!(back, spec);
        prop_assert_eq!(back.to_json(), json.clone());
        prop_assert_eq!(back.canonical_hash(), spec.canonical_hash());

        let mut fields = match Value::parse(&json).unwrap() {
            Value::Obj(fields) => fields,
            _ => unreachable!("canonical form is an object"),
        };
        let n = fields.len();
        fields.rotate_left(rotation % n);
        if rotation % 2 == 1 {
            fields.reverse();
        }
        let scrambled = Value::Obj(fields).render();
        let reparsed = ScenarioSpec::from_json(&scrambled).unwrap();
        prop_assert_eq!(reparsed, spec);
        prop_assert_eq!(reparsed.canonical_hash(), spec.canonical_hash());
    }
}
