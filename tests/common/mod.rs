//! Shared helpers for the serve integration suites: a scratch-dir
//! factory, the canonical fixture spec, and a minimal HTTP/1.1 client
//! that understands the server's two body framings (Content-Length and
//! chunked transfer encoding).

// Each test crate compiles this module independently and uses a
// subset of it.
#![allow(dead_code)]

use std::fs;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;

use wafer_md::md::materials::Species;
use wafer_md::scenario::{Scenario, ScenarioSpec};

/// A process-unique scratch directory, cleared on entry.
pub fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("wafer-md-serve-test-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The spec behind line 1 of `tests/fixtures/serve-requests.jsonl`.
pub fn fixture_spec() -> ScenarioSpec {
    Scenario::slab(Species::Ta, 3, 3, 1)
        .temperature(120.0)
        .seed(7)
        .steps(20)
        .to_spec()
}

/// Pull one header (lowercased name) out of a parsed response.
pub fn header<'a>(headers: &'a [(String, String)], name: &str) -> &'a str {
    headers
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
        .unwrap_or_else(|| panic!("missing header {name}"))
}

/// Reassemble a chunked-transfer body. Panics on a missing terminal
/// chunk, so a truncated stream fails the test that read it.
pub fn dechunk(body: &str) -> String {
    let mut out = String::new();
    let mut rest = body;
    loop {
        let (size_line, after) = rest.split_once("\r\n").expect("chunk size line");
        let size = usize::from_str_radix(size_line.trim(), 16).expect("hex chunk size");
        if size == 0 {
            return out;
        }
        out.push_str(&after[..size]);
        rest = &after[size + 2..];
    }
}

/// Connect a test client with Nagle off, as the server runs: requests
/// go out in one write each, so nothing waits on a delayed ACK.
fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect to test server");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    stream
}

/// Render one request — request line, `Host`, `Content-Length`, the
/// `extra` headers, the blank line and the body — into one buffer.
fn render_request(method: &str, path: &str, extra: &[(&str, &str)], body: &str) -> Vec<u8> {
    let mut request = format!(
        "{method} {path} HTTP/1.1\r\nHost: wafer-md\r\nContent-Length: {}\r\n",
        body.len()
    );
    for (name, value) in extra {
        request.push_str(&format!("{name}: {value}\r\n"));
    }
    request.push_str("\r\n");
    request.push_str(body);
    request.into_bytes()
}

/// One request/response exchange on a fresh connection: returns
/// (status, lowercased headers, de-framed body). Sends
/// `Connection: close` so the server ends the connection after the
/// response and a read-to-EOF sees exactly one response.
pub fn http(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> (u16, Vec<(String, String)>, String) {
    let mut stream = connect(addr);
    let request = render_request(method, path, &[("Connection", "close")], body);
    stream.write_all(&request).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has a header/body split");
    let mut lines = head.lines();
    let status: u16 = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    let body = if headers
        .iter()
        .any(|(k, v)| k == "transfer-encoding" && v == "chunked")
    {
        dechunk(body)
    } else {
        body.to_string()
    };
    (status, headers, body)
}

/// A persistent-connection HTTP/1.1 client: one socket, many
/// request/response exchanges. Responses are parsed by their framing
/// (Content-Length or chunked transfer encoding) rather than
/// read-to-EOF, so the socket survives for the next exchange — and
/// requests can be pipelined (several `send`s before the first
/// `read_response`).
pub struct KeepAliveClient {
    stream: TcpStream,
    /// Received-but-unconsumed bytes (the tail of a read may already
    /// hold the start of the next response).
    buf: Vec<u8>,
}

impl KeepAliveClient {
    /// Connect a persistent client to the test server.
    pub fn connect(addr: SocketAddr) -> Self {
        Self {
            stream: connect(addr),
            buf: Vec::new(),
        }
    }

    /// Write one request in one write, leaving the connection open
    /// (HTTP/1.1 default keep-alive; no `Connection` header is sent).
    /// `extra` headers ride along verbatim.
    pub fn send(&mut self, method: &str, path: &str, extra: &[(&str, &str)], body: &str) {
        let request = render_request(method, path, extra, body);
        self.stream.write_all(&request).expect("write request");
    }

    /// Read exactly one response off the socket: (status, lowercased
    /// headers, de-framed body). Panics if the server closes
    /// mid-response.
    pub fn read_response(&mut self) -> (u16, Vec<(String, String)>, String) {
        let head_end = self.fill_until(|buf| find(buf, b"\r\n\r\n"));
        let head = String::from_utf8(self.buf[..head_end].to_vec()).expect("UTF-8 head");
        self.buf.drain(..head_end + 4);
        let mut lines = head.lines();
        let status: u16 = lines
            .next()
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|s| s.parse().ok())
            .expect("status line");
        let headers: Vec<(String, String)> = lines
            .filter_map(|l| l.split_once(':'))
            .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
            .collect();
        let chunked = headers
            .iter()
            .any(|(k, v)| k == "transfer-encoding" && v == "chunked");
        let body = if chunked {
            let mut out = String::new();
            loop {
                let line_end = self.fill_until(|buf| find(buf, b"\r\n"));
                let size = usize::from_str_radix(
                    std::str::from_utf8(&self.buf[..line_end])
                        .expect("UTF-8 chunk size")
                        .trim(),
                    16,
                )
                .expect("hex chunk size");
                self.buf.drain(..line_end + 2);
                self.fill_until(|buf| (buf.len() >= size + 2).then_some(0));
                out.push_str(std::str::from_utf8(&self.buf[..size]).expect("UTF-8 chunk"));
                self.buf.drain(..size + 2);
                if size == 0 {
                    break;
                }
            }
            out
        } else {
            let len: usize = header(&headers, "content-length").parse().expect("length");
            self.fill_until(|buf| (buf.len() >= len).then_some(0));
            let body = String::from_utf8(self.buf[..len].to_vec()).expect("UTF-8 body");
            self.buf.drain(..len);
            body
        };
        (status, headers, body)
    }

    /// One sequential request/response exchange on the persistent
    /// connection.
    pub fn exchange(
        &mut self,
        method: &str,
        path: &str,
        extra: &[(&str, &str)],
        body: &str,
    ) -> (u16, Vec<(String, String)>, String) {
        self.send(method, path, extra, body);
        self.read_response()
    }

    /// Whether the server has closed the connection (EOF with no
    /// buffered bytes left).
    pub fn at_eof(&mut self) -> bool {
        if !self.buf.is_empty() {
            return false;
        }
        let mut chunk = [0u8; 4096];
        match self.stream.read(&mut chunk) {
            Ok(0) => true,
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                false
            }
            Err(_) => true,
        }
    }

    /// Read from the socket until `probe` finds what it needs in the
    /// buffer, returning the probe's answer.
    fn fill_until(&mut self, probe: impl Fn(&[u8]) -> Option<usize>) -> usize {
        loop {
            if let Some(found) = probe(&self.buf) {
                return found;
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => panic!("server closed the connection mid-response"),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) => panic!("read response: {e}"),
            }
        }
    }
}

/// First index of `needle` in `hay`.
fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}
