//! A deliberately small HTTP/1.1 server-side codec.
//!
//! `vmcw serve` needs five routes, `Connection: close` semantics and
//! nothing else, so — like the JSON codec in [`json`](crate::json),
//! which reads the request bodies and writes the response bodies — the
//! parser lives here instead of pulling a dependency into this offline
//! workspace. The head parser is a pure
//! function over bytes ([`parse_head`]) so adversarial property tests
//! can hammer it without sockets.
//!
//! Hard limits are enforced *before* allocation is proportional to
//! attacker input: a request head over [`MAX_HEAD_BYTES`], more than
//! [`MAX_HEADER_COUNT`] headers, or a body over [`MAX_BODY_BYTES`] is
//! rejected, never buffered.

use std::fmt;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Maximum bytes of request line + headers (everything before the
/// blank line).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Maximum number of header lines accepted.
pub const MAX_HEADER_COUNT: usize = 64;

/// Maximum request body accepted (request bodies here are small JSON
/// job specs; 1 MiB is generous).
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// How an inbound request failed to parse.
#[derive(Debug, Clone, PartialEq)]
pub enum HttpError {
    /// Malformed request line, header, or body framing → 400.
    Bad {
        /// What was wrong.
        detail: String,
    },
    /// A hard limit was exceeded → 431/413.
    TooLarge {
        /// Which limit.
        detail: String,
    },
    /// The socket died or stalled mid-request.
    Io {
        /// The I/O error, stringified (keeps the type `PartialEq`).
        detail: String,
        /// The client stalled past the read timeout (→ 408); otherwise
        /// the transport itself broke and no response is owed.
        timeout: bool,
    },
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Bad { detail } => write!(f, "bad request: {detail}"),
            HttpError::TooLarge { detail } => write!(f, "request too large: {detail}"),
            HttpError::Io { detail, timeout } => {
                let kind = if *timeout {
                    "request read timeout"
                } else {
                    "request i/o"
                };
                write!(f, "{kind}: {detail}")
            }
        }
    }
}

impl std::error::Error for HttpError {}

fn bad(detail: impl Into<String>) -> HttpError {
    HttpError::Bad {
        detail: detail.into(),
    }
}

/// The parsed request line + headers of one HTTP/1.1 request.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestHead {
    /// Request method, as sent (`GET`, `POST`, ...).
    pub method: String,
    /// Request target (path + optional query), as sent.
    pub path: String,
    /// Header `(name, value)` pairs; names lowercased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// Parsed `Content-Length`, 0 when absent.
    pub content_length: usize,
}

impl RequestHead {
    /// First value of header `name` (lowercase), if present.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Parses the request head: everything up to and excluding the blank
/// line. Accepts both `\r\n` and bare `\n` line endings (curl always
/// sends the former; hand-rolled test clients often the latter).
///
/// # Errors
///
/// [`HttpError::Bad`] for malformed syntax (non-UTF8 head, missing
/// method/path, header without `:`, unparsable or conflicting
/// `Content-Length`), [`HttpError::TooLarge`] for more than
/// [`MAX_HEADER_COUNT`] headers or a declared body over
/// [`MAX_BODY_BYTES`]. Never panics, whatever the bytes.
pub fn parse_head(head: &[u8]) -> Result<RequestHead, HttpError> {
    if head.len() > MAX_HEAD_BYTES {
        return Err(HttpError::TooLarge {
            detail: format!("request head over {MAX_HEAD_BYTES} bytes"),
        });
    }
    let text = std::str::from_utf8(head).map_err(|_| bad("request head is not UTF-8"))?;
    let mut lines = text.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts.next().ok_or_else(|| bad("empty request line"))?;
    let path = parts
        .next()
        .ok_or_else(|| bad("request line has no target"))?;
    let version = parts.next().unwrap_or("HTTP/1.1");
    if !version.starts_with("HTTP/1.") {
        return Err(bad(format!("unsupported protocol `{version}`")));
    }
    if parts.next().is_some() {
        return Err(bad("request line has trailing tokens"));
    }
    if !method.bytes().all(|b| b.is_ascii_uppercase()) || method.is_empty() {
        return Err(bad(format!("bad method `{method}`")));
    }

    let mut headers: Vec<(String, String)> = Vec::new();
    let mut content_length: Option<usize> = None;
    for line in lines {
        if line.is_empty() {
            continue; // trailing blank from the head/body split
        }
        if headers.len() >= MAX_HEADER_COUNT {
            return Err(HttpError::TooLarge {
                detail: format!("more than {MAX_HEADER_COUNT} headers"),
            });
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| bad(format!("header line without `:`: `{line}`")))?;
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim().to_owned();
        if name.is_empty() || name.contains(char::is_whitespace) {
            return Err(bad("empty or malformed header name"));
        }
        if name == "content-length" {
            // Strict digits only — "+1", "0x10", "1e2" are smuggling
            // vectors, not lengths.
            if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
                return Err(bad(format!("bad content-length `{value}`")));
            }
            let n: usize = value
                .parse()
                .map_err(|_| bad(format!("content-length `{value}` does not fit in usize")))?;
            match content_length {
                Some(prev) if prev != n => {
                    return Err(bad("conflicting content-length headers"));
                }
                _ => content_length = Some(n),
            }
        }
        headers.push((name, value));
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge {
            detail: format!("declared body of {content_length} bytes over {MAX_BODY_BYTES}"),
        });
    }
    Ok(RequestHead {
        method: method.to_owned(),
        path: path.to_owned(),
        headers,
        content_length,
    })
}

/// One fully-read request: head + body.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// The parsed head.
    pub head: RequestHead,
    /// The body, exactly `head.content_length` bytes.
    pub body: Vec<u8>,
}

/// Reads exactly one request off `stream` (the server speaks
/// `Connection: close`, so at most one request per connection is
/// honoured; pipelined bytes after the first body are ignored).
///
/// # Errors
///
/// Everything [`parse_head`] returns, plus [`HttpError::Io`] for socket
/// errors/timeouts and [`HttpError::TooLarge`] when the head never
/// terminates within [`MAX_HEAD_BYTES`].
pub fn read_request(stream: &mut TcpStream) -> Result<Request, HttpError> {
    let io = |e: std::io::Error| HttpError::Io {
        timeout: matches!(
            e.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ),
        detail: e.to_string(),
    };
    // A stuck client must not wedge a connection handler forever.
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(io)?;
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        if let Some(end) = find_head_end(&buf) {
            break end;
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err(HttpError::TooLarge {
                detail: format!("request head over {MAX_HEAD_BYTES} bytes"),
            });
        }
        let n = stream.read(&mut chunk).map_err(io)?;
        if n == 0 {
            return Err(bad("connection closed before the request head ended"));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let (head_bytes, body_sep) = head_end;
    let head = parse_head(&buf[..head_bytes])?;
    let mut body: Vec<u8> = buf[head_bytes + body_sep..].to_vec();
    if body.len() > head.content_length {
        body.truncate(head.content_length); // ignore pipelined garbage
    }
    while body.len() < head.content_length {
        let want = (head.content_length - body.len()).min(chunk.len());
        let n = stream.read(&mut chunk[..want]).map_err(io)?;
        if n == 0 {
            return Err(bad("connection closed mid-body"));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    Ok(Request { head, body })
}

/// Finds the end of the request head: returns `(head_len,
/// separator_len)` for the first `\r\n\r\n` or `\n\n`.
fn find_head_end(buf: &[u8]) -> Option<(usize, usize)> {
    for i in 0..buf.len() {
        if buf[i..].starts_with(b"\r\n\r\n") {
            return Some((i, 4));
        }
        if buf[i..].starts_with(b"\n\n") {
            return Some((i, 2));
        }
    }
    None
}

/// An outbound response; always `Connection: close`.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Extra headers beyond the automatic ones.
    pub headers: Vec<(String, String)>,
    /// The body.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response (`Content-Type: application/json`).
    #[must_use]
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            headers: vec![("Content-Type".into(), "application/json".into())],
            body: body.into().into_bytes(),
        }
    }

    /// Adds a header.
    #[must_use]
    pub fn header(mut self, name: &str, value: impl fmt::Display) -> Self {
        self.headers.push((name.into(), value.to_string()));
        self
    }

    /// Serialises the response onto `w`.
    ///
    /// # Errors
    ///
    /// Propagates the writer's I/O errors.
    pub fn write_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        let mut out = format!("HTTP/1.1 {} {}\r\n", self.status, reason(self.status));
        for (name, value) in &self.headers {
            out.push_str(&format!("{name}: {value}\r\n"));
        }
        out.push_str(&format!("Content-Length: {}\r\n", self.body.len()));
        out.push_str("Connection: close\r\n\r\n");
        w.write_all(out.as_bytes())?;
        w.write_all(&self.body)?;
        w.flush()
    }
}

/// Canned reason phrases for the statuses this server emits.
#[must_use]
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_plain_get() {
        let head = parse_head(b"GET /healthz HTTP/1.1\r\nHost: x\r\n").unwrap();
        assert_eq!(head.method, "GET");
        assert_eq!(head.path, "/healthz");
        assert_eq!(head.header("host"), Some("x"));
        assert_eq!(head.content_length, 0);
    }

    #[test]
    fn accepts_bare_newlines_and_lowercases_names() {
        let head = parse_head(b"POST /v1/plan HTTP/1.1\nContent-Length: 2\n").unwrap();
        assert_eq!(head.content_length, 2);
        assert_eq!(head.header("content-length"), Some("2"));
    }

    #[test]
    fn rejects_bad_content_lengths() {
        for cl in ["-1", "+1", "0x10", "1e3", "", "9999999999999999999999"] {
            let raw = format!("POST / HTTP/1.1\r\nContent-Length: {cl}\r\n");
            let err = parse_head(raw.as_bytes()).unwrap_err();
            assert!(matches!(err, HttpError::Bad { .. }), "{cl}: {err}");
        }
    }

    #[test]
    fn conflicting_content_lengths_are_rejected_duplicates_allowed() {
        let err = parse_head(b"POST / HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 2\r\n")
            .unwrap_err();
        assert!(matches!(err, HttpError::Bad { .. }), "{err}");
        let ok = parse_head(b"POST / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 3\r\n");
        assert_eq!(ok.unwrap().content_length, 3);
    }

    #[test]
    fn oversized_declared_body_is_too_large() {
        let raw = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n",
            MAX_BODY_BYTES + 1
        );
        let err = parse_head(raw.as_bytes()).unwrap_err();
        assert!(matches!(err, HttpError::TooLarge { .. }), "{err}");
    }

    #[test]
    fn too_many_headers_is_too_large() {
        let mut raw = String::from("GET / HTTP/1.1\r\n");
        for i in 0..=MAX_HEADER_COUNT {
            raw.push_str(&format!("x-h{i}: v\r\n"));
        }
        let err = parse_head(raw.as_bytes()).unwrap_err();
        assert!(matches!(err, HttpError::TooLarge { .. }), "{err}");
    }

    #[test]
    fn garbage_is_bad_not_panic() {
        for raw in [
            &b""[..],
            &b"\r\n"[..],
            &b"GET\r\n"[..],
            &b"get / HTTP/1.1\r\n"[..],
            &b"GET / HTTP/1.1 extra\r\n"[..],
            &b"GET / SPDY/3\r\n"[..],
            &b"GET / HTTP/1.1\r\nno-colon-here\r\n"[..],
            &b"GET / HTTP/1.1\r\n: empty-name\r\n"[..],
            &b"\xff\xfe / HTTP/1.1\r\n"[..],
        ] {
            let err = parse_head(raw).unwrap_err();
            assert!(matches!(err, HttpError::Bad { .. }), "{raw:?}: {err}");
        }
    }

    #[test]
    fn response_wire_format() {
        let mut out = Vec::new();
        Response::json(503, "{}")
            .header("Retry-After", 2)
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"),
            "{text}"
        );
        assert!(text.contains("Retry-After: 2\r\n"), "{text}");
        assert!(text.contains("Content-Length: 2\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{}"), "{text}");
    }

    #[test]
    fn head_end_detection() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\nbody"), Some((14, 4)));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\n\nbody"), Some((14, 2)));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n"), None);
    }
}
