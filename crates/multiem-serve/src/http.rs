//! Dependency-free HTTP/1.1 plumbing on `std::net`.
//!
//! Just enough of the protocol for a JSON service: request-line + headers +
//! `Content-Length` bodies, keep-alive by default, `Connection: close`
//! honoured. No chunked encoding, no TLS — the serving layer sits behind a
//! reverse proxy in any real deployment, exactly like the related VectorDB
//! repo's thin request layer.
//!
//! The server side is built for the front end in [`crate::net`]:
//! [`RequestParser`] consumes bytes **incrementally** — a header split
//! across reads, a body trickling in one byte at a time, or several
//! pipelined requests arriving in one read all parse correctly — so a
//! connection's reader thread parses whatever each `read` returns and takes
//! out every complete request. The reader does block waiting for the rest
//! of a request, but it is that connection's own thread: no worker and no
//! other connection waits with it. The blocking client side
//! ([`HttpClient`], [`read_response`]) is what tests, the benchmark and the
//! example client speak.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Upper bound on accepted bodies (64 MiB) — a malformed or hostile
/// `Content-Length` must not make the server allocate unbounded memory.
pub const MAX_BODY_BYTES: usize = 64 << 20;

/// Upper bound on the request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 16 << 10;

const MAX_HEADERS: usize = 100;

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, ...).
    pub method: String,
    /// Request path, query string stripped.
    pub path: String,
    /// Raw body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the client asked to close the connection after this exchange.
    pub close: bool,
    /// Nanoseconds the parser spent assembling this request across however
    /// many `try_next` calls it took (the trace's `parse` span).
    pub parse_ns: u64,
}

/// Incremental HTTP/1.1 request parser: feed it whatever bytes the socket
/// yields, in any fragmentation, and take complete requests out as they
/// materialise.
///
/// The parser is a resumable state machine over one buffer: it waits for the
/// blank line ending the head, parses request line + headers, then waits for
/// `Content-Length` body bytes. Bytes beyond the first complete request stay
/// buffered (keep-alive pipelining), and limits ([`MAX_HEAD_BYTES`],
/// [`MAX_BODY_BYTES`], 100 headers) are enforced as soon as they are
/// decidable, so a hostile peer cannot balloon memory by never finishing a
/// request.
#[derive(Debug, Default)]
pub struct RequestParser {
    buf: Vec<u8>,
    /// How far `buf` has been scanned for the head terminator, so repeated
    /// `try_next` calls on a trickling connection stay O(new bytes).
    scanned: usize,
    /// Parse time accumulated for the in-progress request (carried onto the
    /// completed [`Request`] and reset).
    parse_ns: u64,
}

impl RequestParser {
    /// A parser with an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append freshly read bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Whether the parser holds no buffered bytes (i.e. the connection is
    /// between requests).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Try to take one complete request out of the buffer. `Ok(None)` means
    /// more bytes are needed; an `InvalidData` error means the peer sent
    /// something that can never become a valid request (the connection
    /// should answer 400 and close).
    pub fn try_next(&mut self) -> io::Result<Option<Request>> {
        let started = Instant::now();
        let result = self.try_next_inner();
        let spent = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        match result {
            Ok(Some(mut request)) => {
                request.parse_ns = self.parse_ns.saturating_add(spent);
                self.parse_ns = 0;
                Ok(Some(request))
            }
            other => {
                // Incomplete request: bank the time spent scanning so the
                // completed request's parse span covers every fragment.
                self.parse_ns = self.parse_ns.saturating_add(spent);
                other
            }
        }
    }

    fn try_next_inner(&mut self) -> io::Result<Option<Request>> {
        // 1. Find the blank line terminating the head.
        let Some(head_end) = self.find_head_end() else {
            if self.buf.len() > MAX_HEAD_BYTES {
                return Err(bad("request head too large"));
            }
            return Ok(None);
        };
        if head_end > MAX_HEAD_BYTES {
            return Err(bad("request head too large"));
        }

        // 2. Parse request line + headers (errors are terminal).
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| bad("request head is not valid UTF-8"))?;
        let mut lines = head.split("\r\n");
        let request_line = lines.next().ok_or_else(|| bad("missing request line"))?;
        let mut parts = request_line.split_whitespace();
        let method = parts
            .next()
            .filter(|m| !m.is_empty())
            .ok_or_else(|| bad("missing method"))?
            .to_ascii_uppercase();
        let target = parts.next().ok_or_else(|| bad("missing request target"))?;
        let version = parts.next().ok_or_else(|| bad("missing HTTP version"))?;
        if !version.starts_with("HTTP/1.") {
            return Err(bad("unsupported HTTP version"));
        }
        let path = target.split('?').next().unwrap_or(target).to_string();

        let mut content_length = 0usize;
        let mut close = false;
        let mut headers = 0usize;
        for line in lines {
            if line.is_empty() {
                continue; // the terminator's empty split remainder
            }
            headers += 1;
            if headers > MAX_HEADERS {
                return Err(bad("too many headers"));
            }
            let Some((name, value)) = line.split_once(':') else {
                return Err(bad("malformed header"));
            };
            let value = value.trim();
            match name.trim().to_ascii_lowercase().as_str() {
                "content-length" => {
                    content_length = value.parse().map_err(|_| bad("bad content-length"))?;
                    if content_length > MAX_BODY_BYTES {
                        return Err(bad("body too large"));
                    }
                }
                "connection" => {
                    close = value.eq_ignore_ascii_case("close");
                }
                _ => {}
            }
        }

        // 3. Wait for the whole body before consuming anything.
        let body_start = head_end + 4;
        let total = body_start + content_length;
        if self.buf.len() < total {
            return Ok(None);
        }
        let body = self.buf[body_start..total].to_vec();
        self.buf.drain(..total);
        self.scanned = 0;
        Ok(Some(Request {
            method,
            path,
            body,
            close,
            parse_ns: 0, // stamped by `try_next`
        }))
    }

    /// Offset of the `\r\n\r\n` head terminator, scanning only bytes not yet
    /// examined by earlier calls.
    fn find_head_end(&mut self) -> Option<usize> {
        let start = self.scanned.saturating_sub(3);
        let found = self.buf[start..]
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .map(|i| start + i);
        if found.is_none() {
            self.scanned = self.buf.len();
        }
        found
    }
}

/// The reason phrase of every status code the service answers with.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Serialize one JSON response to its on-wire bytes (the front end queues
/// these on the connection's output, in request order).
pub fn render_response(
    status: u16,
    reason: &str,
    body: &str,
    close: bool,
    extra_headers: &[(&str, String)],
) -> Vec<u8> {
    render_response_typed(
        status,
        reason,
        "application/json",
        body,
        close,
        extra_headers,
    )
}

/// [`render_response`] with an explicit `Content-Type` (the `/metrics`
/// endpoint serves Prometheus text exposition, not JSON).
pub fn render_response_typed(
    status: u16,
    reason: &str,
    content_type: &str,
    body: &str,
    close: bool,
    extra_headers: &[(&str, String)],
) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + 128);
    let _ = write!(
        out,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        let _ = write!(out, "{name}: {value}\r\n");
    }
    if close {
        out.extend_from_slice(b"Connection: close\r\n");
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body.as_bytes());
    out
}

/// A fully parsed client-side response: status, lowercased `(name, value)`
/// header pairs, body.
pub type FullResponse = (u16, Vec<(String, String)>, String);

/// A minimal keep-alive JSON client over one TCP connection (used by the
/// load generator, the example and the integration tests).
#[derive(Debug)]
pub struct HttpClient {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl HttpClient {
    /// Connect to `addr` (e.g. `127.0.0.1:7878`).
    pub fn connect(addr: &str) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?; // request/response pairs must not sit in Nagle
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self { stream, reader })
    }

    /// Issue one request, returning `(status, body)`.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<(u16, String)> {
        let (status, _, body) = self.request_with_headers(method, path, body)?;
        Ok((status, body))
    }

    /// Issue one request, returning `(status, headers, body)` with the
    /// response headers as lowercased `(name, value)` pairs (used by tests
    /// that assert on `Retry-After`).
    pub fn request_with_headers(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<FullResponse> {
        self.send(method, path, body)?;
        self.recv()
    }

    /// Write one request WITHOUT reading its response — HTTP/1.1
    /// pipelining. The server answers pipelined requests strictly in send
    /// order, so `n` [`HttpClient::send`]s followed by `n`
    /// [`HttpClient::recv`]s pair up positionally.
    pub fn send(&mut self, method: &str, path: &str, body: Option<&str>) -> io::Result<()> {
        let body = body.unwrap_or("");
        write!(
            self.stream,
            "{method} {path} HTTP/1.1\r\nHost: multiem\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )?;
        self.stream.flush()
    }

    /// Read the next response off the connection (send order).
    pub fn recv(&mut self) -> io::Result<FullResponse> {
        read_response(&mut self.reader)
    }
}

/// Parse one HTTP response (status line, headers, `Content-Length` body)
/// off a blocking reader. Shared by [`HttpClient`] and the raw-socket
/// integration tests.
pub fn read_response<R: BufRead>(reader: &mut R) -> io::Result<FullResponse> {
    let status_line = read_line(reader)?
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "no status line"))?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut content_length = 0usize;
    let mut headers = Vec::new();
    loop {
        let line = read_line(reader)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "eof in headers"))?;
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim().to_ascii_lowercase();
            if name == "content-length" {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| bad("bad content-length"))?;
            }
            headers.push((name, value.trim().to_string()));
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    String::from_utf8(body)
        .map(|text| (status, headers, text))
        .map_err(|e| bad(&format!("non-utf8 body: {e}")))
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Read one CRLF-terminated line (returns `None` at EOF before any byte).
fn read_line<R: BufRead>(reader: &mut R) -> io::Result<Option<String>> {
    let mut line = String::new();
    let n = reader
        .by_ref()
        .take(MAX_HEAD_BYTES as u64)
        .read_line(&mut line)?;
    if n == 0 {
        return Ok(None);
    }
    if n >= MAX_HEAD_BYTES {
        return Err(bad("header line too long"));
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(Some(line))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A parser holding `raw`.
    fn parser_of(raw: &[u8]) -> RequestParser {
        let mut parser = RequestParser::new();
        parser.feed(raw);
        parser
    }

    #[test]
    fn parses_post_with_body() {
        let raw = b"POST /records?x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\n\r\nbodyGET";
        let req = parser_of(raw).try_next().unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/records");
        assert_eq!(req.body, b"body");
        assert!(!req.close);
    }

    #[test]
    fn honours_connection_close_and_eof() {
        let raw = b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n";
        let mut parser = parser_of(raw);
        let req = parser.try_next().unwrap().unwrap();
        assert!(req.close);
        assert!(parser.try_next().unwrap().is_none());
        assert!(parser.is_empty());
    }

    #[test]
    fn rejects_oversized_bodies_and_garbage() {
        let raw = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(parser_of(raw.as_bytes()).try_next().is_err());
        assert!(parser_of(b"NOT-HTTP\r\n\r\n").try_next().is_err());
    }

    #[test]
    fn incremental_parse_survives_any_fragmentation() {
        let raw = b"POST /records HTTP/1.1\r\nHost: h\r\nContent-Length: 11\r\n\r\nhello world";
        // Feed the whole request one byte at a time.
        let mut parser = RequestParser::new();
        for (i, byte) in raw.iter().enumerate() {
            assert!(
                parser.try_next().unwrap().is_none(),
                "complete request after only {i} bytes"
            );
            parser.feed(&[*byte]);
        }
        let req = parser.try_next().unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"hello world");
        // The parse span accumulated across every fragmented call.
        assert!(req.parse_ns > 0);
        assert!(parser.is_empty());

        // Feed it again split exactly at the header terminator.
        let mut parser = RequestParser::new();
        let split = raw.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 2;
        parser.feed(&raw[..split]);
        assert!(parser.try_next().unwrap().is_none());
        parser.feed(&raw[split..]);
        assert_eq!(parser.try_next().unwrap().unwrap().body, b"hello world");
    }

    #[test]
    fn pipelined_requests_parse_in_order_from_one_buffer() {
        let mut parser = RequestParser::new();
        parser.feed(b"GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi");
        let first = parser.try_next().unwrap().unwrap();
        assert_eq!(first.path, "/a");
        assert!(!parser.is_empty());
        let second = parser.try_next().unwrap().unwrap();
        assert_eq!((second.path.as_str(), &second.body[..]), ("/b", &b"hi"[..]));
        assert!(parser.is_empty());
        assert!(parser.try_next().unwrap().is_none());
    }

    #[test]
    fn unbounded_heads_are_rejected_incrementally() {
        let mut parser = RequestParser::new();
        parser.feed(b"GET / HTTP/1.1\r\n");
        // A peer that streams headers forever must be cut off once the head
        // budget is exhausted, even though no terminator ever arrives.
        for i in 0..2000 {
            parser.feed(format!("X-Filler-{i}: {i}\r\n").as_bytes());
            if parser.try_next().is_err() {
                return;
            }
        }
        panic!("oversized head was never rejected");
    }

    #[test]
    fn response_wire_format() {
        let out = render_response(200, "OK", "{\"a\":1}", false, &[]);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 7\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"a\":1}"));
        let closed = render_response(400, "Bad Request", "{}", true, &[]);
        assert!(String::from_utf8(closed)
            .unwrap()
            .contains("Connection: close\r\n"));
    }
}
