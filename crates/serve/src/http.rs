//! A deliberately small, strict, bounded HTTP/1.x subset.
//!
//! The parser accepts exactly what the serving API needs — `GET` requests
//! with a path and query string — and maps everything else to a typed
//! [`ServeError`]. It is written adversary-first:
//!
//! * the request head is read through a hard byte bound
//!   ([`read_request`]'s `max_head`), so an attacker cannot balloon memory
//!   with an endless header;
//! * the socket read timeout (set by the caller from the guard deadline)
//!   turns a stalled peer into a typed [`ServeError::SlowClient`] instead
//!   of a wedged worker — the slow-loris defence;
//! * request bodies are refused outright (`Content-Length` must be absent
//!   or zero): the API is read-only, so an oversized payload is rejected
//!   at the header, before any body byte is read;
//! * no byte sequence panics: every slice is bounds-checked, every decode
//!   is fallible, and `tests/serve_faults.rs` drives randomized and
//!   crafted garbage through the parser to prove it.

use std::io::{self, Read, Write};

use crate::error::ServeError;

/// A parsed request: method (always `GET` once validated), the decoded
/// path, and the query parameters in order of appearance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// The path component, e.g. `/similar`.
    pub path: String,
    /// Query parameters as `(key, value)` pairs, in request order.
    pub query: Vec<(String, String)>,
}

impl Request {
    /// The first value of query parameter `key`, if present.
    pub fn param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Parses query parameter `key` as a `u64`, with a typed error naming
    /// the parameter on failure. `Ok(None)` when absent.
    pub fn u64_param(&self, key: &str) -> Result<Option<u64>, ServeError> {
        match self.param(key) {
            None => Ok(None),
            Some(raw) => raw.parse::<u64>().map(Some).map_err(|_| {
                ServeError::bad_request(format!("query parameter {key}={raw:?} is not a u64"))
            }),
        }
    }
}

/// Reads and parses one request head from `stream`, reading at most
/// `max_head` bytes. The caller is expected to have set a read timeout on
/// the stream; a timeout surfaces as [`ServeError::SlowClient`], a closed
/// connection as [`ServeError::BadRequest`].
pub fn read_request(stream: &mut impl Read, max_head: usize) -> Result<Request, ServeError> {
    let head = read_head(stream, max_head)?;
    parse_head(&head, max_head)
}

/// Reads bytes until the `\r\n\r\n` head terminator, the byte bound, EOF,
/// or a read timeout.
fn read_head(stream: &mut impl Read, max_head: usize) -> Result<Vec<u8>, ServeError> {
    let mut head = Vec::with_capacity(256.min(max_head));
    let mut chunk = [0u8; 512];
    loop {
        if find_head_end(&head).is_some() {
            return Ok(head);
        }
        if head.len() >= max_head {
            return Err(ServeError::TooLarge {
                what: "request head",
                limit: max_head,
            });
        }
        let want = chunk.len().min(max_head - head.len());
        match stream.read(&mut chunk[..want]) {
            Ok(0) => {
                return if head.is_empty() {
                    Err(ServeError::bad_request(
                        "connection closed before any request byte",
                    ))
                } else {
                    Err(ServeError::bad_request(
                        "connection closed mid-request-head",
                    ))
                }
            }
            Ok(n) => head.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                return Err(ServeError::SlowClient)
            }
            Err(e) => {
                return Err(ServeError::bad_request(format!("read failed: {e}")));
            }
        }
    }
}

/// Byte offset just past the `\r\n\r\n` terminator, if present.
fn find_head_end(head: &[u8]) -> Option<usize> {
    head.windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|p| p + 4)
}

/// Parses a complete request head (strictly: CRLF line endings, single
/// spaces in the request line, token-shaped method).
fn parse_head(head: &[u8], max_head: usize) -> Result<Request, ServeError> {
    let end = find_head_end(head)
        .ok_or_else(|| ServeError::bad_request("request head lacks CRLF-CRLF terminator"))?;
    let head = &head[..end - 4];
    let text = std::str::from_utf8(head)
        .map_err(|_| ServeError::bad_request("request head is not UTF-8"))?;
    let mut lines = text.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| ServeError::bad_request("empty request head"))?;

    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => {
            return Err(ServeError::bad_request(format!(
                "malformed request line {request_line:?}"
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(ServeError::bad_request(format!(
            "unsupported protocol version {version:?}"
        )));
    }
    if method != "GET" {
        // Only token-shaped methods are echoed back; anything else was
        // already rejected as non-UTF-8 or malformed above.
        return Err(ServeError::MethodNotAllowed {
            method: method.chars().take(16).collect(),
        });
    }

    // Headers: mostly ignored, but a declared body is refused (read-only
    // API) and header syntax must still be well-formed.
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            return Err(ServeError::bad_request(format!(
                "malformed header line {:?}",
                line.chars().take(64).collect::<String>()
            )));
        };
        if name.trim().eq_ignore_ascii_case("content-length") {
            let declared: u64 = value.trim().parse().map_err(|_| {
                ServeError::bad_request(format!("unparseable Content-Length {:?}", value.trim()))
            })?;
            if declared > 0 {
                return Err(ServeError::TooLarge {
                    what: "request body",
                    limit: 0,
                });
            }
        }
        let _ = max_head; // head size already bounded by the reader
    }

    let (path, query_str) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    if !path.starts_with('/') {
        return Err(ServeError::bad_request(format!(
            "request target must be path-absolute, got {:?}",
            path.chars().take(64).collect::<String>()
        )));
    }
    let mut query = Vec::new();
    for pair in query_str.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        query.push((k.to_string(), v.to_string()));
    }
    Ok(Request {
        path: path.to_string(),
        query,
    })
}

/// `Content-Type` for JSON bodies (every endpoint except `/metrics`).
pub const CONTENT_TYPE_JSON: &str = "application/json";
/// `Content-Type` for the Prometheus text exposition on `/metrics`.
pub const CONTENT_TYPE_PROM: &str = "text/plain; version=0.0.4; charset=utf-8";

/// Writes a complete response: status line, minimal headers (the given
/// content type, explicit length, `Connection: close`, plus
/// `Retry-After: 0` on retryable statuses so shed clients know to back off
/// and come back), and the body. The caller sets the socket write timeout.
pub fn write_response(
    stream: &mut impl Write,
    status: u16,
    reason: &str,
    retryable: bool,
    content_type: &str,
    body: &[u8],
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    if retryable {
        head.push_str("Retry-After: 0\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// Writes the typed error as its mapped status with a JSON body
/// `{"request_id": N, "error": ..., "status": ..., "retryable": ...}`, so a
/// client-side failure report can be joined with the server's access log.
pub fn write_error_with_id(
    stream: &mut impl Write,
    err: &ServeError,
    request_id: u64,
) -> io::Result<()> {
    let body = format!(
        "{{\"request_id\": {request_id}, \"error\": \"{}\", \"status\": {}, \"retryable\": {}}}",
        x2v_obs::json_escape(&err.to_string()),
        err.status(),
        err.retryable()
    );
    write_response(
        stream,
        err.status(),
        err.reason(),
        err.retryable(),
        CONTENT_TYPE_JSON,
        body.as_bytes(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(bytes: &[u8]) -> Result<Request, ServeError> {
        read_request(&mut io::Cursor::new(bytes.to_vec()), 4096)
    }

    #[test]
    fn parses_a_plain_get() {
        let r = parse(b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(r.path, "/health");
        assert!(r.query.is_empty());
    }

    #[test]
    fn parses_query_parameters_in_order() {
        let r = parse(b"GET /similar?id=v17&k=5&deadline_ms=40 HTTP/1.0\r\n\r\n").unwrap();
        assert_eq!(r.path, "/similar");
        assert_eq!(r.param("id"), Some("v17"));
        assert_eq!(r.u64_param("k").unwrap(), Some(5));
        assert_eq!(r.u64_param("deadline_ms").unwrap(), Some(40));
        assert_eq!(r.u64_param("absent").unwrap(), None);
        assert!(r.u64_param("id").is_err());
    }

    #[test]
    fn rejects_the_garbage_zoo_with_typed_errors() {
        let cases: &[(&[u8], u16)] = &[
            (b"", 400),
            (b"\r\n\r\n", 400),
            (b"GET\r\n\r\n", 400),
            (b"GET /x\r\n\r\n", 400),
            (b"GET  /x HTTP/1.1\r\n\r\n", 400),
            (b"GET /x SPDY/3\r\n\r\n", 400),
            (b"POST /x HTTP/1.1\r\n\r\n", 405),
            (b"DELETE /x HTTP/1.1\r\n\r\n", 405),
            (b"GET x HTTP/1.1\r\n\r\n", 400),
            (b"GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n", 400),
            (b"GET /x HTTP/1.1\r\nContent-Length: 9\r\n\r\n", 413),
            (b"GET /x HTTP/1.1\r\nContent-Length: huge\r\n\r\n", 400),
            (b"\xff\xfe\x00\x01 /x HTTP/1.1\r\n\r\n", 400),
        ];
        for (bytes, status) in cases {
            let err = parse(bytes).unwrap_err();
            assert_eq!(err.status(), *status, "input {bytes:?} -> {err}");
        }
        // Content-Length: 0 is fine.
        assert!(parse(b"GET /x HTTP/1.1\r\nContent-Length: 0\r\n\r\n").is_ok());
    }

    #[test]
    fn head_bound_is_enforced() {
        let mut huge = b"GET /x HTTP/1.1\r\n".to_vec();
        huge.extend(std::iter::repeat_n(b'A', 100_000));
        let err = read_request(&mut io::Cursor::new(huge), 1024).unwrap_err();
        assert!(matches!(
            err,
            ServeError::TooLarge {
                what: "request head",
                ..
            }
        ));
    }

    #[test]
    fn error_responses_are_well_formed() {
        let mut out = Vec::new();
        write_error_with_id(&mut out, &ServeError::Overloaded, 7).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Retry-After: 0\r\n"));
        assert!(text.contains("\"retryable\": true"));
        let body = text.split("\r\n\r\n").nth(1).unwrap();
        let declared: usize = text
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        assert_eq!(body.len(), declared);
    }

    #[test]
    fn error_bodies_can_carry_the_request_id() {
        let mut out = Vec::new();
        write_error_with_id(&mut out, &ServeError::Overloaded, 42).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\"request_id\": 42, \"error\""), "{text}");
    }

    #[test]
    fn content_type_is_caller_chosen() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "OK", false, CONTENT_TYPE_PROM, b"x 1\n").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.contains("Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"),
            "{text}"
        );
    }
}
