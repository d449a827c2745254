//! Fault-injection tests for the serve wire layer: hostile and broken
//! clients — truncated request lines, oversized bodies, partial headers
//! followed by hangup, stalled sockets, mid-response disconnects — must
//! each be answered with a clean 4xx (or a silent drop) while the
//! server keeps answering well-formed requests. No panic, no wedged
//! worker, no lost run.

mod common;

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

use common::{fixture_spec, header, http, scratch};
use wafer_md::serve::{CacheBudget, ResultCache, ServeConfig, Server};

/// Send raw bytes, optionally half-close the write side, and read
/// whatever the server answers (empty if it just drops us). Reads
/// manually rather than `read_to_string`: when the server closes with
/// unread client bytes the connection resets, and the response read
/// before the reset must survive.
fn raw_exchange(addr: SocketAddr, payload: &[u8], hangup: bool) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    // Best-effort: the server may have already answered and reset the
    // connection mid-write (e.g. an over-cap request line).
    let _ = stream.write_all(payload);
    if hangup {
        let _ = stream.shutdown(Shutdown::Write);
    }
    let mut out = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => out.extend_from_slice(&buf[..n]),
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn status_of(response: &str) -> Option<u16> {
    response.split_whitespace().nth(1)?.parse().ok()
}

#[test]
fn broken_clients_get_clean_errors_and_the_server_keeps_serving() {
    let root = scratch("faults");
    let cache = ResultCache::open_bounded(&root, CacheBudget::UNBOUNDED).unwrap();
    let config = ServeConfig {
        threads: 2,
        // Short timeouts so the stalled-client case resolves quickly.
        timeout: Duration::from_millis(300),
        ..ServeConfig::default()
    };
    let mut server = Server::bind_with("127.0.0.1:0", cache, config).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.serve().unwrap());

    // 1. Truncated request line: bytes then hangup, no newline ever.
    let resp = raw_exchange(addr, b"POST /ru", true);
    assert_eq!(status_of(&resp), Some(400), "{resp}");
    assert!(
        resp.contains("truncated or oversized request line"),
        "{resp}"
    );

    // 2. Garbage request line.
    let resp = raw_exchange(addr, b"garbage\r\n\r\n", true);
    assert_eq!(status_of(&resp), Some(400), "{resp}");
    assert!(resp.contains("malformed request line"), "{resp}");

    // 3. A request line longer than the head cap.
    let mut long = b"GET /".to_vec();
    long.extend(vec![b'x'; 9000]);
    let resp = raw_exchange(addr, &long, true);
    assert_eq!(status_of(&resp), Some(400), "{resp}");

    // 4. Partial headers, then hangup.
    let resp = raw_exchange(addr, b"POST /run HTTP/1.1\r\nContent-Length: 5\r\n", true);
    assert_eq!(status_of(&resp), Some(400), "{resp}");
    assert!(resp.contains("connection closed mid-headers"), "{resp}");

    // 5. Declared body over the cap: rejected before it is read.
    let resp = raw_exchange(
        addr,
        b"POST /run HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n",
        true,
    );
    assert_eq!(status_of(&resp), Some(413), "{resp}");
    assert!(resp.contains("exceeds"), "{resp}");

    // 6. Body shorter than declared, then hangup.
    let resp = raw_exchange(
        addr,
        b"POST /run HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort",
        true,
    );
    assert_eq!(status_of(&resp), Some(400), "{resp}");
    assert!(resp.contains("request body truncated"), "{resp}");

    // 7. Bad Content-Length syntax.
    let resp = raw_exchange(
        addr,
        b"POST /run HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
        true,
    );
    assert_eq!(status_of(&resp), Some(400), "{resp}");
    assert!(resp.contains("invalid Content-Length"), "{resp}");

    // 8. Non-UTF-8 bytes in the head.
    let resp = raw_exchange(addr, &[0xff, 0xfe, 0xfd, b'\r', b'\n'], true);
    assert_eq!(status_of(&resp), Some(400), "{resp}");

    // 9. A stalled client: partial request line, socket held open past
    // the read timeout.
    let resp = raw_exchange(addr, b"POST /run HTT", false);
    assert_eq!(status_of(&resp), Some(408), "{resp}");
    assert!(resp.contains("request timed out"), "{resp}");

    // 10. Duplicate Content-Length headers: under pipelining, ambiguous
    // body framing would desync the request stream, so the request is
    // rejected outright — even when the copies agree.
    let resp = raw_exchange(
        addr,
        b"POST /run HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nbody",
        true,
    );
    assert_eq!(status_of(&resp), Some(400), "{resp}");
    assert!(resp.contains("duplicate Content-Length"), "{resp}");

    // 11. Conflicting Content-Length headers: same rejection.
    let resp = raw_exchange(
        addr,
        b"POST /run HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 40\r\n\r\nbody",
        true,
    );
    assert_eq!(status_of(&resp), Some(400), "{resp}");
    assert!(resp.contains("duplicate Content-Length"), "{resp}");

    // 12. A POST body with no Content-Length: per HTTP/1.1 the request
    // has no body, so it is served as empty — but the connection is
    // forced closed and whatever trailed the headers is drained, never
    // parsed as a pipelined follow-up request. The smuggled request
    // after the blank line must never be answered — exactly one
    // response (the empty body failing spec parse) comes back, and it
    // announces the close.
    let resp = raw_exchange(
        addr,
        b"POST /run HTTP/1.1\r\n\r\nGET /stats HTTP/1.1\r\n\r\n",
        true,
    );
    assert_eq!(status_of(&resp), Some(400), "{resp}");
    assert!(resp.contains("Connection: close"), "{resp}");
    assert_eq!(
        resp.matches("HTTP/1.1 ").count(),
        1,
        "exactly one response: {resp}"
    );

    // After every fault, the server still answers real work.
    let spec = fixture_spec();
    let (status, headers, body) = http(addr, "POST", "/run", &spec.to_json());
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "x-wafer-cache"), "miss");
    assert!(body.starts_with("== wafer-md serve:"), "{body}");

    // Faulty requests never reached admission: one valid request, one run.
    let (_, _, stats) = http(addr, "GET", "/stats", "");
    let v = wafer_md::json::Value::parse(stats.trim()).unwrap();
    assert_eq!(
        v.get("requests").and_then(wafer_md::json::Value::as_u64),
        Some(1),
        "{stats}"
    );
    assert_eq!(
        v.get("runs").and_then(wafer_md::json::Value::as_u64),
        Some(1)
    );

    let (status, _, _) = http(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    handle.join().expect("acceptor pool drains cleanly");
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn mid_response_disconnect_still_completes_and_caches_the_run() {
    let root = scratch("faults-disconnect");
    let cache = ResultCache::open_bounded(&root, CacheBudget::UNBOUNDED).unwrap();
    let config = ServeConfig {
        threads: 2,
        timeout: Duration::from_millis(500),
        ..ServeConfig::default()
    };
    let mut server = Server::bind_with("127.0.0.1:0", cache, config).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.serve().unwrap());

    let mut spec = fixture_spec();
    spec.seed = 4242; // a fresh key: this must be a miss
    let body = spec.to_json();

    // Send the run request, read only the status line, then vanish.
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(
            stream,
            "POST /run HTTP/1.1\r\nHost: wafer-md\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let mut first = [0u8; 16];
        stream.read_exact(&mut first).unwrap();
        assert!(first.starts_with(b"HTTP/1.1 200"));
        // Drop: the connection dies mid-stream.
    }

    // The abandoned connection must not abandon the run: the result
    // appears in the cache shortly, byte-complete.
    let expected = wafer_md::serve::run_spec(&spec).report;
    let path = format!("/result/{}", spec.key());
    let mut cached = None;
    for _ in 0..200 {
        let (status, _, got) = http(addr, "GET", &path, "");
        if status == 200 {
            cached = Some(got);
            break;
        }
        assert_eq!(status, 404, "only not-yet-cached is acceptable");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        cached.as_deref(),
        Some(expected.as_str()),
        "the disconnected client's run still cached byte-identical results"
    );

    let (status, _, _) = http(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    handle.join().expect("acceptor pool drains cleanly");
    std::fs::remove_dir_all(&root).unwrap();
}
