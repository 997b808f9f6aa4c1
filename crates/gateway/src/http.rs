//! A hardened incremental HTTP/1.1 request parser and response writer —
//! std-only, allocation-light, and built for hostile input.
//!
//! The parser consumes a growing byte buffer (whatever the socket has
//! delivered so far) and either produces one complete [`Request`] plus the
//! number of bytes it consumed, reports that more bytes are needed
//! ([`Parsed::Partial`]), or rejects the input with a typed
//! [`ParseError`] that maps onto a deliberate 4xx/5xx status. Robustness
//! posture:
//!
//! * **Bounded everything** — request head (line + headers) and body are
//!   capped by [`Limits`]; past the cap the request is rejected with
//!   431/413, never buffered further.
//! * **Partial-read tolerant** — any split of the byte stream parses
//!   identically; a request arriving one byte at a time works (pinned by
//!   tests).
//! * **Pipeline ready** — the consumed-byte count lets the connection
//!   loop carve multiple requests out of one buffer.
//! * **Malformed input is a typed error**, never a panic: bad request
//!   lines, non-token methods, bad header syntax, conflicting or
//!   non-numeric `Content-Length`, unsupported `Transfer-Encoding` on a
//!   request body, and unsupported HTTP versions all land in
//!   [`ParseError`].

use std::io::{self, Write};

/// Parser bounds; see [`crate::GatewayConfig`] for the serving defaults.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum bytes of request line + headers (the head).
    pub max_head_bytes: usize,
    /// Maximum bytes of request body (`Content-Length` is checked before
    /// any body byte is buffered).
    pub max_body_bytes: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_head_bytes: 8 * 1024,
            max_body_bytes: 1024 * 1024,
        }
    }
}

/// One parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The request method, upper-case as received (`GET`, `POST`, …).
    pub method: String,
    /// The request target (path plus optional query), e.g. `/v1/generate`.
    pub target: String,
    /// Headers in arrival order; names lower-cased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// The request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of header `name` (lower-case), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// `true` if the client asked to keep the connection open (HTTP/1.1
    /// default; an explicit `Connection: close` wins).
    pub fn keep_alive(&self) -> bool {
        !matches!(self.header("connection"), Some(v) if v.eq_ignore_ascii_case("close"))
    }
}

/// Parse progress over an incomplete buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Parsed {
    /// One full request parsed; `consumed` bytes belong to it (the rest of
    /// the buffer is the next pipelined request).
    Complete {
        /// The parsed request.
        request: Request,
        /// Bytes of the buffer this request consumed.
        consumed: usize,
    },
    /// Not enough bytes yet.
    Partial {
        /// The head (request line + headers) parsed cleanly; only body
        /// bytes are missing. When this flips to `true` and the client
        /// sent `Expect: 100-continue`, the server should emit the interim
        /// `100 Continue` response.
        headers_complete: bool,
        /// The incomplete request carries `Expect: 100-continue`.
        expects_continue: bool,
    },
}

/// Typed rejection of malformed or abusive input; [`ParseError::status`]
/// maps each variant onto its deliberate response code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The request line is not `METHOD SP TARGET SP VERSION`.
    BadRequestLine(String),
    /// A header line has no colon, an empty name, or non-token name bytes.
    BadHeader(String),
    /// Request line + headers exceed [`Limits::max_head_bytes`] → 431.
    HeadTooLarge,
    /// Declared `Content-Length` exceeds [`Limits::max_body_bytes`] → 413.
    BodyTooLarge,
    /// `Content-Length` missing digits, non-numeric, or conflicting.
    BadContentLength(String),
    /// Request bodies with `Transfer-Encoding` are not accepted → 501.
    UnsupportedTransferEncoding,
    /// Only HTTP/1.0 and HTTP/1.1 are spoken → 505.
    UnsupportedVersion(String),
}

impl ParseError {
    /// The status line this rejection maps onto.
    pub fn status(&self) -> (u16, &'static str) {
        match self {
            ParseError::HeadTooLarge => (431, "Request Header Fields Too Large"),
            ParseError::BodyTooLarge => (413, "Content Too Large"),
            ParseError::UnsupportedTransferEncoding => (501, "Not Implemented"),
            ParseError::UnsupportedVersion(_) => (505, "HTTP Version Not Supported"),
            _ => (400, "Bad Request"),
        }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::BadRequestLine(d) => write!(f, "malformed request line: {d}"),
            ParseError::BadHeader(d) => write!(f, "malformed header: {d}"),
            ParseError::HeadTooLarge => write!(f, "request head exceeds the configured limit"),
            ParseError::BodyTooLarge => write!(f, "request body exceeds the configured limit"),
            ParseError::BadContentLength(d) => write!(f, "bad content-length: {d}"),
            ParseError::UnsupportedTransferEncoding => {
                write!(f, "transfer-encoding request bodies are not supported")
            }
            ParseError::UnsupportedVersion(v) => write!(f, "unsupported HTTP version {v}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// `true` for RFC 9110 token characters (header names, methods).
fn is_token_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b)
}

/// Tries to parse one complete request from the front of `buf`.
///
/// Call again with the same (grown) buffer after more bytes arrive; the
/// result is independent of how the bytes were split across reads.
pub fn parse_request(buf: &[u8], limits: &Limits) -> Result<Parsed, ParseError> {
    // Locate the end of the head within the bounded window.
    let window = &buf[..buf.len().min(limits.max_head_bytes)];
    let head_end = match find_double_crlf(window) {
        Some(e) => e,
        None => {
            if buf.len() >= limits.max_head_bytes {
                return Err(ParseError::HeadTooLarge);
            }
            return Ok(Parsed::Partial {
                headers_complete: false,
                expects_continue: false,
            });
        }
    };
    let head = &buf[..head_end];
    let head_str =
        std::str::from_utf8(head).map_err(|_| ParseError::BadHeader("non-UTF-8 head".into()))?;
    let mut lines = head_str.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| ParseError::BadRequestLine("empty head".into()))?;

    // Request line: METHOD SP TARGET SP VERSION — exactly three parts.
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Err(ParseError::BadRequestLine(limit_len(request_line))),
    };
    if !method.bytes().all(is_token_byte) {
        return Err(ParseError::BadRequestLine(format!(
            "non-token method {:?}",
            limit_len(method)
        )));
    }
    if !(target.starts_with('/') || target == "*") {
        return Err(ParseError::BadRequestLine(format!(
            "target {:?} does not start with '/'",
            limit_len(target)
        )));
    }
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(ParseError::UnsupportedVersion(limit_len(version)));
    }

    // Headers.
    let mut headers = Vec::new();
    let mut content_length: Option<usize> = None;
    for line in lines {
        if line.is_empty() {
            continue; // the blank line terminating the head
        }
        if line.starts_with(' ') || line.starts_with('\t') {
            // Obsolete line folding — reject rather than misinterpret.
            return Err(ParseError::BadHeader("obsolete line folding".into()));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| ParseError::BadHeader(format!("no colon in {:?}", limit_len(line))))?;
        if name.is_empty() || !name.bytes().all(is_token_byte) {
            return Err(ParseError::BadHeader(format!(
                "bad field name {:?}",
                limit_len(name)
            )));
        }
        let name = name.to_ascii_lowercase();
        let value = value.trim().to_string();
        if name == "content-length" {
            let n: usize = value
                .parse()
                .map_err(|_| ParseError::BadContentLength(limit_len(&value)))?;
            if let Some(prev) = content_length {
                if prev != n {
                    return Err(ParseError::BadContentLength(format!(
                        "conflicting values {prev} and {n}"
                    )));
                }
            }
            content_length = Some(n);
        }
        if name == "transfer-encoding" {
            return Err(ParseError::UnsupportedTransferEncoding);
        }
        headers.push((name, value));
    }

    // Body: fixed-size via Content-Length only.
    let body_len = content_length.unwrap_or(0);
    if body_len > limits.max_body_bytes {
        return Err(ParseError::BodyTooLarge);
    }
    let total = head_end + 4 + body_len;
    if buf.len() < total {
        let expects_continue = headers
            .iter()
            .any(|(n, v)| n == "expect" && v.eq_ignore_ascii_case("100-continue"));
        return Ok(Parsed::Partial {
            headers_complete: true,
            expects_continue,
        });
    }
    Ok(Parsed::Complete {
        request: Request {
            method: method.to_string(),
            target: target.to_string(),
            headers,
            body: buf[head_end + 4..total].to_vec(),
        },
        consumed: total,
    })
}

/// Byte offset of the `\r\n\r\n` head terminator, if present.
fn find_double_crlf(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Truncates pathological input echoed back in error details.
fn limit_len(s: &str) -> String {
    const MAX: usize = 64;
    if s.len() <= MAX {
        s.to_string()
    } else {
        let mut end = MAX;
        while !s.is_char_boundary(end) {
            end -= 1;
        }
        format!("{}…", &s[..end])
    }
}

/// Writes a complete non-streaming response with a `Content-Length` body,
/// head and body in one write.
pub fn write_response(
    w: &mut impl Write,
    status: u16,
    reason: &str,
    content_type: &str,
    extra_headers: &[(&str, String)],
    body: &[u8],
    keep_alive: bool,
) -> io::Result<()> {
    let mut out = Vec::with_capacity(256 + body.len());
    write!(
        out,
        "HTTP/1.1 {status} {reason}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\nconnection: {}\r\n",
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    )?;
    for (name, value) in extra_headers {
        write!(out, "{name}: {value}\r\n")?;
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
    w.write_all(&out)?;
    w.flush()
}

/// Writes the head of a chunked SSE streaming response. The connection
/// always closes after a stream (`connection: close`), and the declared
/// trailer carries the request's final outcome.
pub fn write_stream_head(
    w: &mut impl Write,
    status: u16,
    reason: &str,
    extra_headers: &[(&str, String)],
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\ncontent-type: text/event-stream\r\ntransfer-encoding: chunked\r\ntrailer: {OUTCOME_TRAILER}\r\ncache-control: no-store\r\nconnection: close\r\n"
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    w.write_all(head.as_bytes())?;
    w.flush()
}

/// Name of the trailer field carrying the final
/// [`RequestOutcome`](m2x_serve::RequestOutcome) kind of a token stream.
pub const OUTCOME_TRAILER: &str = "x-m2x-outcome";

/// Writes one chunk of a chunked response in one write and flushes it
/// (each SSE frame must reach the client as soon as the scheduler
/// produced it, and on a `TCP_NODELAY` socket each write is a segment).
pub fn write_chunk(w: &mut impl Write, data: &[u8]) -> io::Result<()> {
    let mut chunk = Vec::with_capacity(data.len() + 20);
    write!(chunk, "{:x}\r\n", data.len())?;
    chunk.extend_from_slice(data);
    chunk.extend_from_slice(b"\r\n");
    w.write_all(&chunk)?;
    w.flush()
}

/// Terminates a chunked response in one write: zero-length chunk, then
/// trailers.
pub fn write_last_chunk(w: &mut impl Write, trailers: &[(&str, String)]) -> io::Result<()> {
    let mut last = b"0\r\n".to_vec();
    for (name, value) in trailers {
        write!(last, "{name}: {value}\r\n")?;
    }
    last.extend_from_slice(b"\r\n");
    w.write_all(&last)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(buf: &[u8]) -> Result<Parsed, ParseError> {
        parse_request(buf, &Limits::default())
    }

    #[test]
    fn parses_a_simple_get() {
        let raw = b"GET /healthz HTTP/1.1\r\nhost: x\r\n\r\n";
        match parse(raw).unwrap() {
            Parsed::Complete { request, consumed } => {
                assert_eq!(consumed, raw.len());
                assert_eq!(request.method, "GET");
                assert_eq!(request.target, "/healthz");
                assert_eq!(request.header("host"), Some("x"));
                assert!(request.body.is_empty());
                assert!(request.keep_alive());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_identically_for_any_read_split() {
        let raw = b"POST /v1/generate HTTP/1.1\r\nContent-Length: 11\r\nConnection: close\r\n\r\nhello world";
        let full = parse(raw).unwrap();
        for cut in 0..raw.len() {
            let partial = parse(&raw[..cut]).unwrap();
            assert!(
                matches!(partial, Parsed::Partial { .. }),
                "cut {cut}: {partial:?}"
            );
            assert_eq!(parse(raw).unwrap(), full, "cut {cut} corrupted state");
        }
        match full {
            Parsed::Complete { request, .. } => {
                assert_eq!(request.body, b"hello world");
                assert!(!request.keep_alive());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn reports_headers_complete_while_body_is_missing() {
        let raw = b"POST /x HTTP/1.1\r\ncontent-length: 5\r\nexpect: 100-continue\r\n\r\nab";
        assert_eq!(
            parse(raw).unwrap(),
            Parsed::Partial {
                headers_complete: true,
                expects_continue: true,
            }
        );
    }

    #[test]
    fn pipelined_requests_are_carved_sequentially() {
        let raw = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n".to_vec();
        let Parsed::Complete { request, consumed } = parse(&raw).unwrap() else {
            panic!("first request should be complete");
        };
        assert_eq!(request.target, "/a");
        let Parsed::Complete {
            request,
            consumed: c2,
        } = parse(&raw[consumed..]).unwrap()
        else {
            panic!("second request should be complete");
        };
        assert_eq!(request.target, "/b");
        assert_eq!(consumed + c2, raw.len());
    }

    #[test]
    fn rejects_malformed_request_lines() {
        for raw in [
            &b"GET\r\n\r\n"[..],
            b"GET /x\r\n\r\n",
            b"GET /x HTTP/1.1 extra\r\n\r\n",
            b"G@T /x HTTP/1.1\r\n\r\n",
            b"GET x HTTP/1.1\r\n\r\n",
            b" / HTTP/1.1\r\n\r\n",
        ] {
            let e = parse(raw).unwrap_err();
            assert_eq!(e.status().0, 400, "{raw:?} → {e}");
        }
    }

    #[test]
    fn rejects_unsupported_versions_with_505() {
        let e = parse(b"GET / HTTP/2.0\r\n\r\n").unwrap_err();
        assert_eq!(e, ParseError::UnsupportedVersion("HTTP/2.0".into()));
        assert_eq!(e.status().0, 505);
        assert!(matches!(
            parse(b"GET / HTTP/1.0\r\n\r\n").unwrap(),
            Parsed::Complete { .. }
        ));
    }

    #[test]
    fn rejects_oversized_heads_with_431() {
        let limits = Limits {
            max_head_bytes: 128,
            max_body_bytes: 1024,
        };
        let mut raw = b"GET / HTTP/1.1\r\nx-filler: ".to_vec();
        raw.extend(std::iter::repeat_n(b'a', 256));
        let e = parse_request(&raw, &limits).unwrap_err();
        assert_eq!(e, ParseError::HeadTooLarge);
        assert_eq!(e.status().0, 431);
    }

    #[test]
    fn rejects_oversized_bodies_with_413_before_buffering() {
        let limits = Limits {
            max_head_bytes: 1024,
            max_body_bytes: 16,
        };
        // The declared length alone triggers the rejection — no body byte
        // has arrived yet.
        let raw = b"POST /x HTTP/1.1\r\ncontent-length: 17\r\n\r\n";
        let e = parse_request(raw, &limits).unwrap_err();
        assert_eq!(e, ParseError::BodyTooLarge);
        assert_eq!(e.status().0, 413);
    }

    #[test]
    fn rejects_bad_headers_and_content_lengths() {
        for raw in [
            &b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n"[..],
            b"GET / HTTP/1.1\r\n: empty-name\r\n\r\n",
            b"GET / HTTP/1.1\r\nbad name: v\r\n\r\n",
            b"GET / HTTP/1.1\r\nok: v\r\n continuation\r\n\r\n",
            b"POST / HTTP/1.1\r\ncontent-length: ten\r\n\r\n",
            b"POST / HTTP/1.1\r\ncontent-length: -1\r\n\r\n",
            b"POST / HTTP/1.1\r\ncontent-length: 1\r\ncontent-length: 2\r\n\r\n",
        ] {
            let e = parse(raw).unwrap_err();
            assert_eq!(
                e.status().0,
                400,
                "{:?} → {e}",
                String::from_utf8_lossy(raw)
            );
        }
        // Duplicate but agreeing lengths are tolerated.
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\ncontent-length: 2\r\ncontent-length: 2\r\n\r\nok").unwrap(),
            Parsed::Complete { .. }
        ));
    }

    #[test]
    fn rejects_transfer_encoding_with_501() {
        let e = parse(b"POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n").unwrap_err();
        assert_eq!(e, ParseError::UnsupportedTransferEncoding);
        assert_eq!(e.status().0, 501);
    }

    #[test]
    fn truncated_body_stays_partial_until_eof_handling_kicks_in() {
        // A body shorter than content-length never completes; the
        // connection loop turns EOF-while-partial into a 400.
        let raw = b"POST / HTTP/1.1\r\ncontent-length: 10\r\n\r\nshort";
        assert_eq!(
            parse(raw).unwrap(),
            Parsed::Partial {
                headers_complete: true,
                expects_continue: false,
            }
        );
    }

    /// A `Write` that keeps every `write` call's bytes apart.
    #[derive(Default)]
    struct CountingWriter {
        writes: Vec<Vec<u8>>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_chunk_and_response_goes_out_in_one_write() {
        let mut w = CountingWriter::default();
        write_chunk(&mut w, b"data: {\"index\":0}\n\n").unwrap();
        write_last_chunk(&mut w, &[(OUTCOME_TRAILER, "finished".to_string())]).unwrap();
        let id = [("x-m2x-request-id", "7".to_string())];
        write_response(&mut w, 200, "OK", "application/json", &id, b"{}\n", true).unwrap();
        let expected: [&[u8]; 3] = [
            b"13\r\ndata: {\"index\":0}\n\n\r\n",
            b"0\r\nx-m2x-outcome: finished\r\n\r\n",
            b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: 3\r\n\
              connection: keep-alive\r\nx-m2x-request-id: 7\r\n\r\n{}\n",
        ];
        assert_eq!(w.writes, expected.map(<[u8]>::to_vec));
    }

    #[test]
    fn chunk_writers_produce_valid_framing() {
        let mut out = Vec::new();
        write_chunk(&mut out, b"data: x\n\n").unwrap();
        write_last_chunk(&mut out, &[(OUTCOME_TRAILER, "finished".to_string())]).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(
            text,
            "9\r\ndata: x\n\n\r\n0\r\nx-m2x-outcome: finished\r\n\r\n"
        );
    }
}
