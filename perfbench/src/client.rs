//! A minimal HTTP/1.1 keep-alive client: enough of the protocol to
//! drive `wafer-md serve` (fixed-length and chunked bodies, pipelined
//! requests, `Connection: close`).

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A generous ceiling on any single wait: a stalled server fails the
/// run instead of hanging it.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
    /// The server will close the connection after this response.
    pub close: bool,
    /// When the first byte of the status line was available.
    pub first_byte: Instant,
    /// When the last byte of the body had been read.
    pub last_byte: Instant,
}

impl Response {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// The bytes of one keep-alive request.
pub fn request_bytes(method: &str, path: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn read_line<R: BufRead>(r: &mut R) -> io::Result<String> {
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed",
        ));
    }
    Ok(line.trim_end_matches(['\r', '\n']).to_string())
}

/// Read one response: status line, headers, then a `Content-Length`
/// or chunked body.
pub fn read_response<R: BufRead>(r: &mut R) -> io::Result<Response> {
    r.fill_buf()?;
    let first_byte = Instant::now();
    let status_line = read_line(r)?;
    let status = status_line
        .strip_prefix("HTTP/1.1 ")
        .and_then(|s| s.get(..3))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad(format!("bad status line '{status_line}'")))?;
    let mut headers = Vec::new();
    loop {
        let line = read_line(r)?;
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| bad(format!("bad header '{line}'")))?;
        headers.push((name.trim().to_string(), value.trim().to_string()));
    }
    let mut response = Response {
        status,
        headers,
        body: Vec::new(),
        close: false,
        first_byte,
        last_byte: first_byte,
    };
    response.close = response
        .header("Connection")
        .is_some_and(|v| v.eq_ignore_ascii_case("close"));
    if response
        .header("Transfer-Encoding")
        .is_some_and(|v| v.eq_ignore_ascii_case("chunked"))
    {
        loop {
            let size_line = read_line(r)?;
            let size = usize::from_str_radix(size_line.split(';').next().unwrap_or("").trim(), 16)
                .map_err(|_| bad(format!("bad chunk size '{size_line}'")))?;
            if size == 0 {
                // Trailers (none expected) end with a blank line.
                while !read_line(r)?.is_empty() {}
                break;
            }
            let start = response.body.len();
            response.body.resize(start + size, 0);
            r.read_exact(&mut response.body[start..])?;
            if !read_line(r)?.is_empty() {
                return Err(bad("chunk not followed by CRLF"));
            }
        }
    } else {
        let len = response
            .header("Content-Length")
            .and_then(|v| v.parse::<usize>().ok())
            .ok_or_else(|| bad("response has neither Content-Length nor chunked body"))?;
        response.body.resize(len, 0);
        r.read_exact(&mut response.body)?;
    }
    response.last_byte = Instant::now();
    Ok(response)
}

/// One persistent connection.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let writer = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
        writer.set_read_timeout(Some(IO_TIMEOUT))?;
        writer.set_write_timeout(Some(IO_TIMEOUT))?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Self { writer, reader })
    }

    /// Send already-rendered request bytes (one request or a pipelined
    /// burst) in one write.
    pub fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.writer.write_all(bytes)?;
        self.writer.flush()
    }

    pub fn read_response(&mut self) -> io::Result<Response> {
        read_response(&mut self.reader)
    }

    /// One request, one response.
    pub fn call(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Response> {
        self.send(&request_bytes(method, path, body))?;
        self.read_response()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_fixed_length_then_chunked_pipelined_responses() {
        let wire = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nX-Wafer-Cache: hit\r\n\r\nhello\
HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n3\r\nabc\r\n2\r\nde\r\n0\r\n\r\n";
        let mut r = BufReader::new(&wire[..]);
        let a = read_response(&mut r).unwrap();
        assert_eq!(
            (a.status, a.body.as_slice(), a.close),
            (200, &b"hello"[..], false)
        );
        assert_eq!(a.header("x-wafer-cache"), Some("hit"));
        let b = read_response(&mut r).unwrap();
        assert_eq!((b.body.as_slice(), b.close), (&b"abcde"[..], true));
        assert!(read_response(&mut r).is_err());
    }

    #[test]
    fn rejects_a_truncated_body() {
        let wire = b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nshort";
        assert!(read_response(&mut BufReader::new(&wire[..])).is_err());
    }

    #[test]
    fn request_bytes_frame_the_body() {
        let r = request_bytes("POST", "/run", b"{}");
        assert!(r.starts_with(b"POST /run HTTP/1.1\r\n"));
        assert!(r.ends_with(b"Content-Length: 2\r\n\r\n{}"));
    }
}
