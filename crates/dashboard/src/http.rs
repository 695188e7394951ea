//! HTTP/1.1 request parsing with hard limits.
//!
//! The event loop hands [`parse_request`] the bytes a connection has sent
//! so far; it answers with a complete request, "need more", or a typed
//! [`HttpError`] carrying the status to answer with, enforcing the caps in
//! [`Limits`] on the buffered bytes — a hostile client cannot make the
//! server buffer an unbounded request line, header block, or body. Parsing
//! never panics on any byte sequence (see `tests/http_parser.rs` for the
//! property suite).

/// HTTP version of a parsed request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HttpVersion {
    Http10,
    Http11,
}

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method, as sent (e.g. `GET`).
    pub method: String,
    /// Origin-form target: path plus optional `?query`.
    pub target: String,
    /// Protocol version (only 1.0 and 1.1 are accepted).
    pub version: HttpVersion,
    /// Headers in arrival order; names are lowercased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// Request body (`Content-Length` bytes, already read).
    pub body: Vec<u8>,
}

impl Request {
    /// The first value of header `name` (lowercase).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// Path and query split at the first `?`.
    pub fn path_and_query(&self) -> (&str, &str) {
        match self.target.split_once('?') {
            Some((p, q)) => (p, q),
            None => (self.target.as_str(), ""),
        }
    }

    /// Whether the connection should be kept open after this request:
    /// HTTP/1.1 defaults to keep-alive unless `Connection: close`;
    /// HTTP/1.0 defaults to close unless `Connection: keep-alive`.
    pub fn keep_alive(&self) -> bool {
        let conn = self.header("connection").unwrap_or("");
        let has = |token: &str| conn.split(',').any(|t| t.trim().eq_ignore_ascii_case(token));
        match self.version {
            HttpVersion::Http11 => !has("close"),
            HttpVersion::Http10 => has("keep-alive"),
        }
    }
}

/// Parse-time limits (see `rased_core::ServerConfig` for the knobs).
#[derive(Debug, Clone)]
pub struct Limits {
    /// Maximum request-line bytes (`431` beyond).
    pub max_request_line_bytes: usize,
    /// Maximum cumulative header bytes (`431` beyond).
    pub max_header_bytes: usize,
    /// Maximum declared body bytes (`413` beyond).
    pub max_body_bytes: usize,
}

impl Default for Limits {
    fn default() -> Limits {
        let c = rased_core::ServerConfig::default();
        Limits::from_config(&c)
    }
}

impl Limits {
    /// The parse-relevant subset of a [`rased_core::ServerConfig`].
    pub fn from_config(c: &rased_core::ServerConfig) -> Limits {
        Limits {
            max_request_line_bytes: c.max_request_line_bytes,
            max_header_bytes: c.max_header_bytes,
            max_body_bytes: c.max_body_bytes,
        }
    }
}

/// A request that cannot be served. [`HttpError::status`] maps each case
/// to the response status the handler sends before closing.
#[derive(Debug, PartialEq, Eq)]
pub enum HttpError {
    /// Syntactically invalid request line, header, or body framing (`400`).
    Malformed(String),
    /// Request line longer than the cap (`431`).
    RequestLineTooLong,
    /// Header block larger than the cap (`431`).
    HeadersTooLarge,
    /// Declared `Content-Length` beyond the body cap (`413`).
    BodyTooLarge { declared: u64 },
    /// An `HTTP/x.y` version other than 1.0/1.1 (`505`).
    UnsupportedVersion(String),
    /// A framing feature we do not serve, e.g. chunked uploads (`501`).
    NotImplemented(&'static str),
}

impl HttpError {
    /// The response status for this error.
    pub fn status(&self) -> u16 {
        match self {
            HttpError::Malformed(_) => 400,
            HttpError::RequestLineTooLong | HttpError::HeadersTooLarge => 431,
            HttpError::BodyTooLarge { .. } => 413,
            HttpError::UnsupportedVersion(_) => 505,
            HttpError::NotImplemented(_) => 501,
        }
    }

    /// Human-readable body for the error response.
    pub fn message(&self) -> String {
        match self {
            HttpError::Malformed(m) => format!("bad request: {m}"),
            HttpError::RequestLineTooLong => "request line too long".into(),
            HttpError::HeadersTooLarge => "request header fields too large".into(),
            HttpError::BodyTooLarge { declared } => {
                format!("payload too large ({declared} bytes declared)")
            }
            HttpError::UnsupportedVersion(v) => format!("http version not supported: {v}"),
            HttpError::NotImplemented(what) => format!("not implemented: {what}"),
        }
    }
}

fn malformed(msg: impl Into<String>) -> HttpError {
    HttpError::Malformed(msg.into())
}

/// The verdict on a buffer that ends inside a request: wait for more bytes
/// while the client may still send them, `400` once it has half-closed.
fn truncated<T>(eof: bool, where_: &str) -> Result<Option<T>, HttpError> {
    if eof {
        Err(malformed(format!("connection closed {where_}")))
    } else {
        Ok(None)
    }
}

/// `line` without the `\r`s before its stripped `\n`.
fn trim_cr(line: &[u8]) -> &[u8] {
    let len = line.iter().rposition(|&b| b != b'\r').map_or(0, |i| i + 1);
    line.get(..len).unwrap_or(&[])
}

/// The `\n`-terminated line at `buf[pos..]`, stripped, and the position
/// after it; `cap` bounds the line, plus two bytes for its `\r\n`.
/// `Ok(None)` at the end of `buf`, or for an unterminated line the client
/// may still finish.
fn next_line(
    buf: &[u8],
    pos: usize,
    cap: usize,
    eof: bool,
    too_long: HttpError,
) -> Result<Option<(&[u8], usize)>, HttpError> {
    let rest = buf.get(pos..).unwrap_or(&[]);
    let end = find_byte(rest, b'\n');
    // An unterminated line is over the cap once it cannot fit even if its
    // terminator came next.
    if end.map_or(rest.len() + usize::from(!eof), |i| i + 1) > cap + 2 {
        return Err(too_long);
    }
    let Some(end) = end else {
        return if rest.is_empty() { Ok(None) } else { truncated(eof, "mid-line") };
    };
    Ok(Some((trim_cr(rest.get(..end).unwrap_or(&[])), pos + end + 1)))
}

/// The index of the first `byte` in `s`, eight bytes per step.
fn find_byte(s: &[u8], byte: u8) -> Option<usize> {
    const ONES: u64 = u64::from_ne_bytes([1; 8]);
    let pattern = ONES * u64::from(byte);
    let free = |w: &&[u8; 8]| {
        let x = u64::from_ne_bytes(**w) ^ pattern; // a zero byte where `byte` was
        x.wrapping_sub(ONES) & !x & (ONES << 7) == 0
    };
    let start = 8 * s.as_chunks::<8>().0.iter().take_while(free).count();
    s.get(start..)?.iter().position(|&b| b == byte).map(|i| start + i)
}

fn utf8(bytes: &[u8]) -> Result<&str, HttpError> {
    std::str::from_utf8(bytes).map_err(|_| malformed("header is not utf-8"))
}

/// A header line's trimmed name and untrimmed value: `400` unless it is
/// UTF-8 with a colon after a visible-ASCII name. Decodes only non-ASCII
/// bytes: each read of a dripping head rechecks every line, and decoding
/// each as `str` and splitting it with `split_once` doubles that cost.
fn header_fields(line: &[u8]) -> Result<(&[u8], &[u8]), HttpError> {
    if !line.is_ascii() {
        utf8(line)?;
    }
    let Some((name, value)) = find_byte(line, b':').and_then(|i| line.split_at_checked(i)) else {
        let text = String::from_utf8_lossy(line);
        return Err(malformed(format!("header without colon: `{text}`")));
    };
    let mut name = name.trim_ascii();
    if !name.iter().all(u8::is_ascii_graphic) {
        // `str::trim` also strips a vertical tab and Unicode spaces.
        name = utf8(name)?.trim().as_bytes();
    }
    if name.is_empty() || !name.iter().all(u8::is_ascii_graphic) {
        return Err(malformed("bad header name"));
    }
    Ok((name, value.get(1..).unwrap_or_default()))
}

/// Parse one request off the front of `buf`, the bytes received so far;
/// `eof` says the client has half-closed, so no more will come.
///
/// * `Ok(Some((request, consumed)))` — one complete request, framed by
///   its first `consumed` bytes (a pipelined successor may follow).
/// * `Ok(None)` — more bytes are needed. At `eof` this means `buf` holds
///   nothing but the one tolerated blank line: close silently.
/// * `Err` — a typed verdict, as soon as the buffered bytes prove it:
///   every line is checked when its terminator arrives and every cap when
///   it is crossed, so a bad request line or header name is answered
///   without waiting for a declared body.
///
/// Any prefix of a buffer parses to `Ok(None)` or to the buffer's own
/// verdict. Deciding `Ok(None)` allocates nothing: a dripping client's
/// head is rescanned on every read.
pub fn parse_request(
    buf: &[u8],
    limits: &Limits,
    eof: bool,
) -> Result<Option<(Request, usize)>, HttpError> {
    // Request line; tolerate at most one stray blank line before it
    // (robust against clients that terminate the previous body with CRLF).
    let cap = limits.max_request_line_bytes;
    let mut first = next_line(buf, 0, cap, eof, HttpError::RequestLineTooLong)?;
    if let Some((&[], end)) = first {
        first = next_line(buf, end, cap, eof, HttpError::RequestLineTooLong)?;
    }
    let Some((line, mut pos)) = first else { return Ok(None) };
    if line.is_empty() {
        return Err(malformed("empty request line"));
    }
    let line = std::str::from_utf8(line).map_err(|_| malformed("request line is not utf-8"))?;
    let mut parts = line.split(' ').filter(|p| !p.is_empty());
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m, t, v),
        _ => return Err(malformed(format!("bad request line `{line}`"))),
    };
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_graphic()) {
        return Err(malformed("bad method"));
    }
    if !(target.starts_with('/') || target == "*") {
        return Err(malformed(format!("bad request target `{target}`")));
    }
    let version = match version {
        "HTTP/1.1" => HttpVersion::Http11,
        "HTTP/1.0" => HttpVersion::Http10,
        v if v.starts_with("HTTP/") => return Err(HttpError::UnsupportedVersion(v.to_string())),
        v => return Err(malformed(format!("bad http version `{v}`"))),
    };

    // Headers, capped cumulatively and checked line by line. The framing
    // verdicts (501 for a transfer-encoding, else Content-Length's) wait
    // for the end of the block, as a later bad line is answered first.
    let head = pos;
    let mut chunked = false;
    let mut declared: Result<Option<u64>, HttpError> = Ok(None);
    loop {
        let budget = limits.max_header_bytes.saturating_sub(pos - head);
        let Some((raw, end)) = next_line(buf, pos, budget, eof, HttpError::HeadersTooLarge)? else {
            return truncated(eof, "inside headers");
        };
        pos = end;
        if raw.is_empty() {
            break; // end of header block
        }
        let (k, v) = header_fields(raw)?;
        chunked |= k.eq_ignore_ascii_case(b"transfer-encoding");
        if k.eq_ignore_ascii_case(b"content-length") {
            let v = utf8(v)?.trim();
            declared = declared.and_then(|prev| match (prev, v.parse::<u64>()) {
                (_, Err(_)) => Err(malformed(format!("bad content-length `{v}`"))),
                (Some(p), Ok(n)) if p != n => Err(malformed("conflicting content-length headers")),
                (_, Ok(n)) => Ok(Some(n)),
            });
        }
    }
    if chunked {
        return Err(HttpError::NotImplemented("transfer-encoding"));
    }
    let mut body: &[u8] = &[];
    if let Some(n) = declared? {
        if n > limits.max_body_bytes as u64 {
            return Err(HttpError::BodyTooLarge { declared: n });
        }
        let Some(b) = buf.get(pos..).and_then(|rest| rest.get(..n as usize)) else {
            return truncated(eof, "mid-body");
        };
        (body, pos) = (b, pos + b.len());
    }
    // The block's lines, up to its blank line, all passed `header_fields`.
    let headers = buf
        .get(head..)
        .unwrap_or(&[])
        .split(|&b| b == b'\n')
        .map(trim_cr)
        .take_while(|l| !l.is_empty())
        .map(|l| {
            let (k, v) = header_fields(l)?;
            Ok((utf8(k)?.to_ascii_lowercase(), utf8(v)?.trim().to_string()))
        })
        .collect::<Result<_, HttpError>>()?;
    let req = Request {
        method: method.to_string(),
        target: target.to_string(),
        version,
        headers,
        body: body.to_vec(),
    };
    Ok(Some((req, pos)))
}

/// The reason phrase for the status codes this server emits.
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Internal Server Error",
    }
}

/// Serialize the response head (status line through the blank line) for a
/// body of `body_len` bytes. This is the *only* place response heads are
/// formatted: [`write_response`] and the response cache both call it, so a
/// cached response is byte-identical to a freshly written one by
/// construction, not by convention.
pub fn response_head(
    status: u16,
    content_type: &str,
    body_len: usize,
    keep_alive: bool,
    extra_headers: &[(&str, &str)],
) -> String {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {body_len}\r\nConnection: {}\r\n",
        status_reason(status),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (k, v) in extra_headers {
        head.push_str(k);
        head.push_str(": ");
        head.push_str(v);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    head
}

/// Serialize a response head + body. `extra_headers` are emitted verbatim.
pub fn write_response(
    w: &mut impl std::io::Write,
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
    extra_headers: &[(&str, &str)],
) -> std::io::Result<()> {
    let head = response_head(status, content_type, body.len(), keep_alive, extra_headers);
    w.write_all(head.as_bytes())?;
    w.write_all(body)?;
    // lint: allow(nonblocking, "flush on TcpStream/Vec is a no-op, not disk I/O; the event loop's only path here is the 503 reject")
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(bytes: &[u8]) -> Result<Option<Request>, HttpError> {
        parse_request(bytes, &Limits::default(), true).map(|r| r.map(|(req, _)| req))
    }

    fn limits() -> Limits {
        Limits { max_request_line_bytes: 64, max_header_bytes: 128, max_body_bytes: 16 }
    }

    /// The verdict on `bytes` while the connection is still open.
    fn open(bytes: &[u8], l: &Limits) -> Result<Option<(Request, usize)>, HttpError> {
        parse_request(bytes, l, false)
    }

    #[test]
    fn parses_get_with_headers() {
        let req = parse(b"GET /api/meta?x=1 HTTP/1.1\r\nHost: localhost\r\nX-Trace: a b\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path_and_query(), ("/api/meta", "x=1"));
        assert_eq!(req.version, HttpVersion::Http11);
        assert_eq!(req.header("host"), Some("localhost"));
        assert_eq!(req.header("x-trace"), Some("a b"));
        assert!(req.keep_alive());
    }

    #[test]
    fn connection_close_and_http10_defaults() {
        let req = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap().unwrap();
        assert!(!req.keep_alive());
        let req = parse(b"GET / HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert!(!req.keep_alive());
        let req = parse(b"GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n").unwrap().unwrap();
        assert!(req.keep_alive());
    }

    #[test]
    fn reads_declared_body() {
        let req =
            parse(b"POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello").unwrap().unwrap();
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn eof_before_request_is_none() {
        assert!(parse(b"").unwrap().is_none());
    }

    #[test]
    fn malformed_inputs_are_400() {
        for bad in [
            &b"GARBAGE\r\n\r\n"[..],
            b"GET\r\n\r\n",
            b"GET / HTTP/1.1 extra\r\n\r\n",
            b"GET nopath HTTP/1.1\r\n\r\n",
            b"GET / HTTP/1.1\r\nNoColonHere\r\n\r\n",
            b"GET / HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
            b"GET / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n",
            b"GET / WTFP/9.9\r\n\r\n",
        ] {
            let err = parse(bad).expect_err("must reject");
            assert_eq!(err.status(), 400, "{bad:?} → {err:?}");
        }
    }

    #[test]
    fn caps_map_to_431_and_413() {
        let limits = limits();
        let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(200));
        let err = parse_request(long_line.as_bytes(), &limits, true).unwrap_err();
        assert_eq!(err.status(), 431);

        let fat_headers =
            format!("GET / HTTP/1.1\r\n{}\r\n", "X-Pad: yyyyyyyyyyyyyyyy\r\n".repeat(20));
        let err = parse_request(fat_headers.as_bytes(), &limits, true).unwrap_err();
        assert_eq!(err.status(), 431);

        let err =
            parse_request(b"POST / HTTP/1.1\r\nContent-Length: 1000000\r\n\r\n", &limits, true)
                .unwrap_err();
        assert_eq!(err.status(), 413);

        // The caps are exact: a 64-byte request line plus CRLF fits, one
        // byte more does not; likewise 128 header bytes plus CRLF.
        let at_cap = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(50));
        assert!(parse_request(at_cap.as_bytes(), &limits, true).unwrap().is_some());
        let over = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(51));
        assert_eq!(parse_request(over.as_bytes(), &limits, true).unwrap_err().status(), 431);
        let at_cap = format!("GET / HTTP/1.1\r\nX: {}\r\n\r\n", "v".repeat(125));
        assert!(parse_request(at_cap.as_bytes(), &limits, true).unwrap().is_some());
        let over = format!("GET / HTTP/1.1\r\nX: {}\r\n\r\n", "v".repeat(126));
        assert_eq!(parse_request(over.as_bytes(), &limits, true).unwrap_err().status(), 431);
    }

    #[test]
    fn unsupported_framing_is_typed() {
        let err = parse(b"GET / HTTP/2.0\r\n\r\n").unwrap_err();
        assert_eq!(err.status(), 505);
        let err = parse(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n").unwrap_err();
        assert_eq!(err.status(), 501);
    }

    #[test]
    fn partial_requests_wait_for_more_bytes() {
        let l = limits();
        for partial in [
            &b""[..],
            b"\r\n",
            b"GET / HT",
            b"GET / HTTP/1.1\r\n",
            b"GET / HTTP/1.1\r\nHost: x\r\n",
            // Declared body not yet buffered.
            b"POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nhel",
        ] {
            assert_eq!(open(partial, &l), Ok(None), "{partial:?}");
            // Half-closed: only an empty buffer or the lone blank line is
            // closed silently; a cut-off request is a 400.
            let at_eof = parse_request(partial, &l, true);
            match partial.len() {
                0 | 2 => assert_eq!(at_eof, Ok(None)),
                _ => assert_eq!(at_eof.map_err(|e| e.status()), Err(400), "{partial:?}"),
            }
        }
    }

    #[test]
    fn complete_requests_parse_with_their_length() {
        let l = limits();
        for whole in [
            &b"GET / HTTP/1.1\r\n\r\n"[..],
            b"\r\nGET / HTTP/1.1\r\n\r\n", // stray CRLF
            b"GET / HTTP/1.1\r\nHost: x\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello",
        ] {
            let (_, consumed) = open(whole, &l).unwrap().expect("complete");
            assert_eq!(consumed, whole.len(), "{whole:?}");
        }
    }

    #[test]
    fn provable_limit_violations_need_no_more_bytes() {
        let l = limits();
        // Unterminated request line that cannot fit even with its CRLF next.
        let long = vec![b'a'; l.max_request_line_bytes + 2];
        assert_eq!(open(&long, &l).unwrap_err(), HttpError::RequestLineTooLong);
        assert_eq!(open(long.get(..long.len() - 1).unwrap(), &l), Ok(None));

        // Unterminated header region past the cap.
        let mut fat = b"GET / HTTP/1.1\r\n".to_vec();
        fat.extend_from_slice("X-Pad: yyyyyyyyyyyyyyyy\r\n".repeat(20).as_bytes());
        assert_eq!(open(&fat, &l).unwrap_err(), HttpError::HeadersTooLarge);

        // Oversized declared body: 413 at the header end.
        let big = b"POST / HTTP/1.1\r\nContent-Length: 1000000\r\n\r\n";
        assert_eq!(open(big, &l).unwrap_err(), HttpError::BodyTooLarge { declared: 1_000_000 });
    }

    #[test]
    fn tiny_header_drip_waits_until_over_cap() {
        let l = limits();
        let drip = b"GET / HTTP/1.1\r\nX-a: 1\r\nX-b".to_vec();
        assert_eq!(open(&drip, &l), Ok(None));
        // One dangling line, grown until it cannot fit its budget plus a
        // CRLF: 431 with the connection still open, one byte earlier none.
        let mut over = b"GET / HTTP/1.1\r\n".to_vec();
        while over.len() - 16 < l.max_header_bytes + 2 {
            over.push(b'x');
        }
        assert_eq!(open(over.get(..over.len() - 1).unwrap(), &l), Ok(None));
        assert_eq!(open(&over, &l).unwrap_err(), HttpError::HeadersTooLarge);
        // Complete lines past the cap, then a dangling one.
        let mut padded = b"GET / HTTP/1.1\r\n".to_vec();
        while padded.len() - 16 <= l.max_header_bytes + 64 {
            padded.extend_from_slice(b"X-padding-header: v\r\n");
        }
        padded.extend_from_slice(b"X-dangling");
        assert_eq!(open(&padded, &l).unwrap_err(), HttpError::HeadersTooLarge);
    }

    #[test]
    fn framing_defects_need_no_body() {
        let l = limits();
        for (bytes, status) in [
            (&b"GET / HTTP/1.1\r\nNoColonHere\r\n\r\n"[..], 400),
            (b"POST / HTTP/1.1\r\nContent-Length: banana\r\n\r\n", 400),
            (b"POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n", 400),
            (b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 501),
            // The request line and header names are checked before the
            // declared body is awaited.
            (b"GET / HTTP/2.0\r\nContent-Length: 5\r\n\r\n", 505),
            (b"GARBAGE\r\nContent-Length: 5\r\n\r\n", 400),
            (b"POST / HTTP/1.1\r\nBad Name: x\r\nContent-Length: 5\r\n\r\n", 400),
        ] {
            assert_eq!(open(bytes, &l).map_err(|e| e.status()), Err(status), "{bytes:?}");
        }
    }
}
