//! Minimal HTTP/1.1 framing shared by the server, the `bench_serve` load
//! generator, the CLI self-check and the tests.
//!
//! Implements just enough of RFC 9112 for keep-alive `GET` exchanges with
//! JSON bodies — the workspace builds against an offline registry, so no
//! external HTTP crate is available (or needed).

use dlinfma_obs::JsonValue;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// One parsed request head (bodies are ignored; the API is `GET`-only).
#[derive(Debug, Clone)]
pub struct Request {
    /// `GET`, `POST`, …
    pub method: String,
    /// Path without the query string, e.g. `/lookup`.
    pub path: String,
    /// Decoded `key=value` pairs from the query string, in order.
    pub query: Vec<(String, String)>,
    /// True when the client asked for `Connection: close` (or spoke
    /// HTTP/1.0 without `keep-alive`).
    pub close: bool,
}

impl Request {
    /// First query value for `key`, if present.
    pub fn param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Splits a request target into path and query pairs. No percent-decoding:
/// the API's values are numeric ids and comma lists.
fn split_target(target: &str) -> (String, Vec<(String, String)>) {
    match target.split_once('?') {
        None => (target.to_string(), Vec::new()),
        Some((path, qs)) => {
            let query = qs
                .split('&')
                .filter(|kv| !kv.is_empty())
                .map(|kv| match kv.split_once('=') {
                    Some((k, v)) => (k.to_string(), v.to_string()),
                    None => (kv.to_string(), String::new()),
                })
                .collect();
            (path.to_string(), query)
        }
    }
}

/// Longest request line or header line the server reads, in bytes,
/// line terminator included.
pub(crate) const MAX_LINE_BYTES: u64 = 8 * 1024;
/// Most header lines the server reads in one request head.
pub(crate) const MAX_HEADERS: usize = 100;

/// What [`read_request`] found on the connection.
#[derive(Debug)]
pub(crate) enum Head {
    /// The peer closed the connection (between requests or mid-head), or
    /// its read side was shut down.
    Closed,
    /// A complete, well-formed request head.
    Request(Request),
    /// A head that broke a limit or did not parse: answer with `status`
    /// and close the connection.
    Rejected {
        /// 400, 414 or 431.
        status: u16,
        /// The error message for the JSON body.
        message: &'static str,
    },
}

/// One line of at most [`MAX_LINE_BYTES`], without its `\r\n` or `\n`.
enum Line {
    Text(String),
    /// The peer closed before the line ended.
    Eof,
    /// No `\n` within [`MAX_LINE_BYTES`].
    TooLong,
    NotUtf8,
}

fn read_line(reader: &mut impl BufRead) -> io::Result<Line> {
    let mut buf = Vec::new();
    let n = reader
        .by_ref()
        .take(MAX_LINE_BYTES)
        .read_until(b'\n', &mut buf)?;
    if buf.last() != Some(&b'\n') {
        return Ok(if n as u64 == MAX_LINE_BYTES {
            Line::TooLong
        } else {
            Line::Eof
        });
    }
    buf.pop();
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    Ok(String::from_utf8(buf).map_or(Line::NotUtf8, Line::Text))
}

/// Reads one request head off the connection, blocking until it is
/// complete however it is split across packets. The head is bounded:
/// [`MAX_LINE_BYTES`] per line and [`MAX_HEADERS`] header lines.
pub(crate) fn read_request(reader: &mut impl BufRead) -> io::Result<Head> {
    let rejected = |status, message| Ok(Head::Rejected { status, message });
    let line = match read_line(reader)? {
        Line::Text(line) => line,
        Line::Eof => return Ok(Head::Closed),
        Line::TooLong => return rejected(414, "request line too long"),
        Line::NotUtf8 => return rejected(400, "request line is not UTF-8"),
    };
    let mut parts = line.split_whitespace();
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return rejected(400, "malformed request line");
    };
    let mut close = version == "HTTP/1.0";
    for _ in 0..=MAX_HEADERS {
        let header = match read_line(reader)? {
            Line::Text(header) => header,
            Line::Eof => return Ok(Head::Closed),
            Line::TooLong => return rejected(431, "header line too long"),
            Line::NotUtf8 => return rejected(400, "header line is not UTF-8"),
        };
        if header.is_empty() {
            let (path, query) = split_target(target);
            return Ok(Head::Request(Request {
                method: method.to_string(),
                path,
                query,
                close,
            }));
        }
        let Some((k, v)) = header.split_once(':') else {
            return rejected(400, "malformed header line");
        };
        if k.trim().eq_ignore_ascii_case("connection") {
            let v = v.trim();
            if v.eq_ignore_ascii_case("close") {
                close = true;
            } else if v.eq_ignore_ascii_case("keep-alive") {
                close = false;
            }
        }
    }
    rejected(431, "too many header lines")
}

/// Writes a complete JSON response with `Content-Length` framing.
/// `close` announces that the server closes the connection after it.
pub(crate) fn write_response(
    mut out: &TcpStream,
    status: u16,
    body: &str,
    close: bool,
) -> io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        414 => "URI Too Long",
        431 => "Request Header Fields Too Large",
        _ => "Internal Server Error",
    };
    let connection = if close { "close" } else { "keep-alive" };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: {connection}\r\n\r\n",
        body.len()
    );
    out.write_all(head.as_bytes())?;
    out.write_all(body.as_bytes())?;
    out.flush()
}

/// A keep-alive HTTP/1.1 client speaking the server's JSON dialect.
///
/// One client owns one TCP connection; `get` pipelines request after
/// request over it, which is what the closed-loop load generator needs.
#[derive(Debug)]
pub struct HttpClient {
    reader: BufReader<TcpStream>,
}

impl HttpClient {
    /// Connects to a server address (e.g. the value of [`crate::Server::addr`]).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            reader: BufReader::new(stream),
        })
    }

    /// Issues `GET <target>` and returns `(status, parsed JSON body)`.
    pub fn get(&mut self, target: &str) -> io::Result<(u16, JsonValue)> {
        {
            let stream = self.reader.get_mut();
            let req =
                format!("GET {target} HTTP/1.1\r\nHost: dlinfma\r\nConnection: keep-alive\r\n\r\n");
            stream.write_all(req.as_bytes())?;
            stream.flush()?;
        }
        let mut status_line = String::new();
        if self.reader.read_line(&mut status_line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed connection before responding",
            ));
        }
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("malformed status line: {status_line:?}"),
                )
            })?;
        let mut content_length = 0usize;
        loop {
            let mut header = String::new();
            if self.reader.read_line(&mut header)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed inside response headers",
                ));
            }
            let header = header.trim();
            if header.is_empty() {
                break;
            }
            if let Some((k, v)) = header.split_once(':') {
                if k.trim().eq_ignore_ascii_case("content-length") {
                    content_length = v.trim().parse().map_err(|e| {
                        io::Error::new(io::ErrorKind::InvalidData, format!("content-length: {e}"))
                    })?;
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        let text = String::from_utf8(body)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("utf8 body: {e}")))?;
        let json = JsonValue::parse(&text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("json body: {e}")))?;
        Ok((status, json))
    }
}
