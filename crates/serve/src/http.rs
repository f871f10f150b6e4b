//! Minimal HTTP/1.1 plumbing over `std::net` — no external dependencies.
//!
//! The service speaks a deliberately small dialect: one request per
//! connection (every response carries `Connection: close`), bodies
//! framed by `Content-Length`, JSON in and out. That keeps the worker
//! model trivial (a connection *is* a unit of work) while remaining
//! fully interoperable with `curl` and standard HTTP clients.
//!
//! [`read_request`] parses a request head + body with hard limits on
//! both, [`write_response`] emits a complete response, and [`client`]
//! is the matching blocking client used by the end-to-end suite and
//! `exp_obs`'s cache-hit gate.

use std::io::{Read, Write};
use std::net::TcpStream;

/// Maximum size of the request head (request line + headers).
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// A parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, `DELETE`, ...).
    pub method: String,
    /// Percent-decoded path, without the query string.
    pub path: String,
    /// Decoded `key=value` pairs of the query string, in order.
    pub query: Vec<(String, String)>,
    /// Raw request body (`Content-Length` framed; empty when absent).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a query parameter, if present.
    #[must_use]
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum ReadError {
    /// The connection failed or closed mid-request; nothing to answer.
    Io(std::io::Error),
    /// The bytes were not a well-formed request (answered with 400).
    BadRequest(String),
    /// The declared body exceeds the configured limit (answered 413).
    TooLarge(usize),
}

impl From<std::io::Error> for ReadError {
    fn from(e: std::io::Error) -> ReadError {
        ReadError::Io(e)
    }
}

/// Decode `%XX` escapes (and `+` as space when `plus_is_space`).
fn percent_decode(s: &str, plus_is_space: bool) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes.get(i + 1..i + 3).and_then(|h| {
                    std::str::from_utf8(h)
                        .ok()
                        .and_then(|h| u8::from_str_radix(h, 16).ok())
                });
                match hex {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b'+' if plus_is_space => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Parse a raw query string into decoded pairs.
#[must_use]
pub fn parse_query(raw: &str) -> Vec<(String, String)> {
    raw.split('&')
        .filter(|part| !part.is_empty())
        .map(|part| match part.split_once('=') {
            Some((k, v)) => (percent_decode(k, true), percent_decode(v, true)),
            None => (percent_decode(part, true), String::new()),
        })
        .collect()
}

/// Read one request from the stream. `max_body` bounds the accepted
/// `Content-Length`; the head is bounded by an internal 16 KiB limit.
pub fn read_request(stream: &mut TcpStream, max_body: usize) -> Result<Request, ReadError> {
    // Read until the blank line that ends the head.
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err(ReadError::BadRequest("request head too large".into()));
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            if buf.is_empty() {
                // Peer connected and closed without sending anything
                // (e.g. the shutdown wake-up probe): not an error worth
                // answering.
                return Err(ReadError::Io(std::io::ErrorKind::UnexpectedEof.into()));
            }
            return Err(ReadError::BadRequest("truncated request head".into()));
        }
        buf.extend_from_slice(&chunk[..n]);
    };

    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| ReadError::BadRequest("request head is not utf-8".into()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) if !m.is_empty() && t.starts_with('/') => (m, t, v),
        _ => {
            return Err(ReadError::BadRequest(format!(
                "malformed request line {request_line:?}"
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(ReadError::BadRequest(format!(
            "unsupported protocol {version:?}"
        )));
    }

    let mut content_length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| ReadError::BadRequest("bad Content-Length".into()))?;
            }
        }
    }
    if content_length > max_body {
        return Err(ReadError::TooLarge(content_length));
    }

    let (path_raw, query_raw) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let method = method.to_uppercase();
    let path = percent_decode(path_raw, false);
    let query = parse_query(query_raw);

    // Body: whatever arrived past the head stays in `buf`; the rest is
    // read straight after it, so the buffer grows only with the bytes
    // that actually arrive (never to a declared length up front).
    buf.drain(..head_end + 4);
    let mut body = buf;
    if body.len() < content_length {
        let remaining = (content_length - body.len()) as u64;
        stream.take(remaining).read_to_end(&mut body)?;
        if body.len() < content_length {
            return Err(ReadError::BadRequest("truncated request body".into()));
        }
    }
    body.truncate(content_length);

    Ok(Request {
        method,
        path,
        query,
        body,
    })
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Reason phrase for the status codes the service emits.
#[must_use]
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Write a complete response (status line, headers, body) with one
/// `write_all` of one buffer, and flush. Every response closes the
/// connection. `content_type` is `application/json` everywhere except
/// the `/metrics` text exposition.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> std::io::Result<()> {
    stream.write_all(&response_bytes(status, content_type, body))?;
    stream.flush()
}

/// The bytes [`write_response`] sends: head, then body.
fn response_bytes(status: u16, content_type: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        reason(status),
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

pub mod client {
    //! Blocking one-shot HTTP client matching the server's dialect.
    //!
    //! One request per connection, `Content-Length` framing. Used by the
    //! end-to-end tests and `exp_obs`; handy for quick library
    //! consumers too.

    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::{TcpStream, ToSocketAddrs};
    use std::time::Duration;

    /// A parsed response: status code plus raw body bytes.
    #[derive(Debug, Clone)]
    pub struct Response {
        /// HTTP status code.
        pub status: u16,
        /// Raw response body.
        pub body: Vec<u8>,
    }

    impl Response {
        /// Body as UTF-8 (lossy).
        #[must_use]
        pub fn text(&self) -> String {
            String::from_utf8_lossy(&self.body).into_owned()
        }

        /// Body parsed as JSON.
        pub fn json(&self) -> Result<serde_json::Value, serde_json::Error> {
            serde_json::from_str(self.text().trim_end_matches('\n'))
        }
    }

    /// Issue one request and read the full response. `target` is the
    /// path plus optional query string (`/count?dataset=x&delta=600`).
    pub fn request(
        addr: impl ToSocketAddrs,
        method: &str,
        target: &str,
        body: Option<&[u8]>,
    ) -> std::io::Result<Response> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        stream.set_write_timeout(Some(Duration::from_secs(120)))?;
        let body = body.unwrap_or(&[]);
        let head = format!(
            "{method} {target} HTTP/1.1\r\nHost: hare-serve\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        );
        stream.write_all(head.as_bytes())?;
        stream.write_all(body)?;
        stream.flush()?;

        let mut reader = BufReader::new(stream);
        let mut status_line = String::new();
        reader.read_line(&mut status_line)?;
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("bad status line {status_line:?}"),
                )
            })?;
        let mut content_length: Option<usize> = None;
        loop {
            let mut line = String::new();
            reader.read_line(&mut line)?;
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().ok();
                }
            }
        }
        let mut body = Vec::new();
        match content_length {
            Some(n) => {
                body.resize(n, 0);
                reader.read_exact(&mut body)?;
            }
            None => {
                reader.read_to_end(&mut body)?;
            }
        }
        Ok(Response { status, body })
    }

    /// `GET` shorthand.
    pub fn get(addr: impl ToSocketAddrs, target: &str) -> std::io::Result<Response> {
        request(addr, "GET", target, None)
    }

    /// `POST` shorthand with a JSON (or other) body.
    pub fn post(addr: impl ToSocketAddrs, target: &str, body: &str) -> std::io::Result<Response> {
        request(addr, "POST", target, Some(body.as_bytes()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_query_strings_with_escapes() {
        let q = parse_query("dataset=CollegeMsg&delta=600&name=a%20b+c&flag");
        assert_eq!(q[0], ("dataset".into(), "CollegeMsg".into()));
        assert_eq!(q[1], ("delta".into(), "600".into()));
        assert_eq!(q[2], ("name".into(), "a b c".into()));
        assert_eq!(q[3], ("flag".into(), String::new()));
    }

    #[test]
    fn percent_decode_handles_malformed_escapes() {
        assert_eq!(percent_decode("a%2Fb", false), "a/b");
        assert_eq!(percent_decode("100%", false), "100%");
        assert_eq!(percent_decode("a%zzb", false), "a%zzb");
        assert_eq!(percent_decode("a+b", false), "a+b");
        assert_eq!(percent_decode("a+b", true), "a b");
    }

    #[test]
    fn reasons_cover_emitted_codes() {
        for code in [200, 201, 400, 403, 404, 405, 409, 413, 429, 500, 503] {
            assert_ne!(reason(code), "Unknown", "{code}");
        }
    }

    /// Round-trip a request and response through a real socket pair.
    #[test]
    fn request_response_round_trip() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let req = read_request(&mut conn, 1024).unwrap();
            assert_eq!(req.method, "POST");
            assert_eq!(req.path, "/echo path");
            assert_eq!(req.query_param("x"), Some("1 2"));
            assert_eq!(req.body, b"{\"k\":3}");
            write_response(&mut conn, 200, "application/json", b"{\"ok\":true}\n").unwrap();
        });
        let resp = client::post(addr, "/echo%20path?x=1+2", "{\"k\":3}").unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.json().unwrap()["ok"], serde_json::Value::Bool(true));
        server.join().unwrap();
    }

    /// The one buffer `write_response` sends is the head, then the body,
    /// on every status the server emits.
    #[test]
    fn response_is_one_buffer_of_head_then_body() {
        for (status, reason, body) in [
            (200, "OK", &b"{\"ok\":true}\n"[..]),
            (429, "Too Many Requests", b"{\"error\":\"busy\"}\n"),
            (500, "Internal Server Error", b""),
        ] {
            let want = format!(
                "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\n\
                 Content-Length: {}\r\nConnection: close\r\n\r\n{}",
                body.len(),
                std::str::from_utf8(body).unwrap()
            );
            assert_eq!(
                response_bytes(status, "application/json", body),
                want.as_bytes()
            );
        }
    }

    /// Serve one `read_request` on an ephemeral port; the client side
    /// writes `chunks` one by one (flushing each), then closes.
    fn read_from_chunks(chunks: Vec<Vec<u8>>, max_body: usize) -> Result<Request, ReadError> {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut conn = TcpStream::connect(addr).unwrap();
            conn.set_nodelay(true).unwrap();
            for chunk in chunks {
                conn.write_all(&chunk).unwrap();
                conn.flush().unwrap();
            }
        });
        let (mut conn, _) = listener.accept().unwrap();
        let got = read_request(&mut conn, max_body);
        client.join().unwrap();
        got
    }

    /// A request as bytes: head with `Content-Length: declared`, then
    /// `body`.
    fn raw_post(declared: usize, body: &[u8]) -> Vec<u8> {
        let mut raw =
            format!("POST /up HTTP/1.1\r\nContent-Length: {declared}\r\n\r\n").into_bytes();
        raw.extend_from_slice(body);
        raw
    }

    #[test]
    fn body_sent_in_many_small_writes_is_reassembled() {
        let body: Vec<u8> = (0..5_000u32).map(|i| b'a' + (i % 26) as u8).collect();
        let raw = raw_post(body.len(), &body);
        // 7-byte writes split the head, the head/body boundary and the
        // body at every offset class.
        let chunks = raw.chunks(7).map(<[u8]>::to_vec).collect();
        let req = read_from_chunks(chunks, 1 << 20).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/up");
        assert_eq!(req.body, body);
    }

    #[test]
    fn body_larger_than_64_kib_is_read_whole() {
        let body: Vec<u8> = (0..200_000u32).map(|i| (i * 31 % 251) as u8).collect();
        let raw = raw_post(body.len(), &body);
        let chunks = raw.chunks(50_000).map(<[u8]>::to_vec).collect();
        let req = read_from_chunks(chunks, 1 << 20).unwrap();
        assert_eq!(req.body.len(), body.len());
        assert_eq!(req.body, body);
    }

    #[test]
    fn truncated_body_is_a_bad_request() {
        // The peer declares 100 bytes, sends 40 and closes.
        let raw = raw_post(100, &[b'x'; 40]);
        match read_from_chunks(vec![raw], 1 << 20) {
            Err(ReadError::BadRequest(msg)) => assert_eq!(msg, "truncated request body"),
            other => panic!("expected BadRequest, got {other:?}"),
        }
        // Bytes past the declared length are not part of the body.
        let req = read_from_chunks(vec![raw_post(3, b"abcdef")], 1 << 20).unwrap();
        assert_eq!(req.body, b"abc");
    }

    #[test]
    fn oversized_body_is_rejected() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            match read_request(&mut conn, 8) {
                Err(ReadError::TooLarge(n)) => assert_eq!(n, 16),
                other => panic!("expected TooLarge, got {other:?}"),
            }
        });
        let _ = client::post(addr, "/x", "0123456789abcdef");
        server.join().unwrap();
    }
}
