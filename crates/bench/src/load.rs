//! A tiny HTTP load client for `vmcw serve` — just enough to drive the
//! CI `serve-smoke` job and local overload experiments without pulling
//! an HTTP dependency into this offline workspace.
//!
//! Two modes back the `vmcw load` subcommand:
//!
//! * **one-shot** — a single request whose status/body the caller can
//!   assert on (`--get /readyz --expect-status 200`), optionally
//!   retried for a bounded wall-clock window so CI can wait for a
//!   server to boot or a job to finish;
//! * **flood** — `rps × duration` concurrent `POST`s, classified by
//!   status code, so overload tests can assert that shedding (503)
//!   actually happened while admitted requests still succeeded.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One parsed HTTP response.
#[derive(Debug, Clone, PartialEq)]
pub struct HttpReply {
    /// Status code of the response line.
    pub status: u16,
    /// Header `(name, value)` pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Response body as text (lossily decoded).
    pub body: String,
}

impl HttpReply {
    /// First value of header `name` (case-insensitive), if present.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Sends one `Connection: close` HTTP/1.1 request to
/// `127.0.0.1:port` and reads the whole response.
///
/// # Errors
///
/// A human-readable message for connection, write, read or response
/// framing failures.
pub fn request(port: u16, method: &str, path: &str, body: &str) -> Result<HttpReply, String> {
    let mut stream = TcpStream::connect(("127.0.0.1", port))
        .map_err(|e| format!("connect 127.0.0.1:{port}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(600)))
        .map_err(|e| format!("set timeout: {e}"))?;
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: 127.0.0.1:{port}\r\n\
         Content-Type: application/json\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len(),
    );
    stream
        .write_all(req.as_bytes())
        .map_err(|e| format!("write request: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("read response: {e}"))?;
    parse_reply(&raw)
}

fn parse_reply(raw: &[u8]) -> Result<HttpReply, String> {
    let text = String::from_utf8_lossy(raw);
    let (head, body) = text
        .split_once("\r\n\r\n")
        .or_else(|| text.split_once("\n\n"))
        .ok_or("response has no header/body separator")?;
    let status_line = head.lines().next().unwrap_or("");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line `{status_line}`"))?;
    let headers = head
        .lines()
        .skip(1)
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_owned()))
        .collect();
    Ok(HttpReply {
        status,
        headers,
        body: body.to_owned(),
    })
}

/// Aggregate of one [`flood`] run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FloodReport {
    /// Requests attempted.
    pub sent: usize,
    /// Responses by status code.
    pub by_status: BTreeMap<u16, usize>,
    /// Transport-level failures (connection refused, resets).
    pub transport_errors: usize,
}

impl FloodReport {
    /// Responses with the given status.
    #[must_use]
    pub fn count(&self, status: u16) -> usize {
        self.by_status.get(&status).copied().unwrap_or(0)
    }

    /// One-line human summary.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut parts: Vec<String> = self
            .by_status
            .iter()
            .map(|(s, n)| format!("{n}x {s}"))
            .collect();
        if self.transport_errors > 0 {
            parts.push(format!("{}x transport-error", self.transport_errors));
        }
        format!("sent {}: {}", self.sent, parts.join(", "))
    }
}

/// Fires `rps × duration_secs` copies of `POST path` at a fixed pace,
/// one thread per request (each request may block server-side in the
/// admission queue), and classifies every response by status.
#[must_use]
pub fn flood(port: u16, path: &str, body: &str, rps: u32, duration_secs: f64) -> FloodReport {
    let total = ((f64::from(rps) * duration_secs).round() as usize).max(1);
    let gap = Duration::from_secs_f64(1.0 / f64::from(rps.max(1)));
    let report = Arc::new(Mutex::new(FloodReport::default()));
    let mut handles = Vec::with_capacity(total);
    let started = Instant::now();
    for i in 0..total {
        // Fixed-schedule pacing: request i fires at i * gap, however
        // long earlier requests take.
        let due = started + gap * i as u32;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let report = Arc::clone(&report);
        let (path, body) = (path.to_owned(), body.to_owned());
        handles.push(std::thread::spawn(move || {
            let outcome = request(port, "POST", &path, &body);
            let mut r = report
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            r.sent += 1;
            match outcome {
                Ok(reply) => *r.by_status.entry(reply.status).or_insert(0) += 1,
                Err(_) => r.transport_errors += 1,
            }
        }));
    }
    for h in handles {
        let _ = h.join();
    }
    Arc::try_unwrap(report)
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
        })
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_parse_statuses_and_bodies() {
        let r = parse_reply(b"HTTP/1.1 503 Service Unavailable\r\nRetry-After: 2\r\n\r\n{\"a\":1}")
            .unwrap();
        assert_eq!(r.status, 503);
        assert_eq!(r.body, "{\"a\":1}");
        assert_eq!(r.header("Retry-After"), Some("2"));
        assert_eq!(r.header("retry-after"), Some("2"));
        assert_eq!(r.header("x-missing"), None);
        assert!(parse_reply(b"garbage").is_err());
        assert!(parse_reply(b"HTTP/1.1 nope\r\n\r\n").is_err());
    }

    #[test]
    fn flood_report_counts() {
        let mut r = FloodReport {
            sent: 3,
            ..FloodReport::default()
        };
        *r.by_status.entry(200).or_insert(0) += 2;
        *r.by_status.entry(503).or_insert(0) += 1;
        assert_eq!(r.count(200), 2);
        assert_eq!(r.count(503), 1);
        assert_eq!(r.count(404), 0);
        assert!(r.summary().contains("2x 200"), "{}", r.summary());
    }
}
