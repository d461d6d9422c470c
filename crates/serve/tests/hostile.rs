//! Hostile-client coverage for the HTTP server: requests split by pauses or
//! drip-fed a byte at a time, pipelined requests, over-long lines, header
//! floods and non-UTF-8 bytes, plus the shutdown wake-ups for idle
//! keep-alive connections.

use dlinfma_obs::{JsonValue, Stopwatch};
use dlinfma_pool::spawn_service;
use dlinfma_serve::{HttpClient, ServeConfig, Server};
use dlinfma_store::SnapshotCell;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// How long a test client waits for the server before failing instead of
/// hanging.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(5);

fn start_server() -> Server {
    let cell = Arc::new(SnapshotCell::new());
    Server::start(ServeConfig::default(), cell).expect("bind loopback")
}

fn connect(addr: SocketAddr) -> BufReader<TcpStream> {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(CLIENT_TIMEOUT)).unwrap();
    BufReader::new(stream)
}

fn send(conn: &mut BufReader<TcpStream>, bytes: &[u8]) {
    conn.get_mut()
        .write_all(bytes)
        .expect("write request bytes");
}

/// Reads one response off the connection: its status and JSON body.
fn read_response(conn: &mut BufReader<TcpStream>) -> io::Result<(u16, JsonValue)> {
    let mut status_line = String::new();
    if conn.read_line(&mut status_line)? == 0 {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    let mut content_length = 0;
    loop {
        let mut header = String::new();
        conn.read_line(&mut header)?;
        let header = header.trim();
        if header.is_empty() {
            break;
        }
        if let Some((k, v)) = header.split_once(':') {
            if k.eq_ignore_ascii_case("content-length") {
                content_length = v.trim().parse().expect("numeric content-length");
            }
        }
    }
    let mut body = vec![0u8; content_length];
    conn.read_exact(&mut body)?;
    let text = String::from_utf8(body).expect("UTF-8 body");
    Ok((status, JsonValue::parse(&text).expect("JSON body")))
}

/// True when the server has closed the connection: end of stream, or a
/// reset because the server closed with request bytes left unread.
fn closed_by_server(conn: &mut BufReader<TcpStream>) -> bool {
    let mut byte = [0u8; 1];
    match conn.read(&mut byte) {
        Ok(0) => true,
        Err(e) => e.kind() == io::ErrorKind::ConnectionReset,
        Ok(_) => false,
    }
}

/// Waits until connecting to `addr` is refused, failing after
/// [`CLIENT_TIMEOUT`].
fn assert_connect_refused_soon(addr: SocketAddr) {
    let clock = Stopwatch::start();
    while TcpStream::connect(addr).is_ok() {
        assert!(
            clock.elapsed() < CLIENT_TIMEOUT,
            "the listener still accepts after a shutdown"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Sends a `/healthz` request in `parts`, pausing `pause` before every part
/// after the first, and expects its 200.
fn send_in_parts(parts: &[&[u8]], pause: Duration) {
    let server = start_server();
    let mut conn = connect(server.addr());
    for (i, part) in parts.iter().enumerate() {
        if i > 0 {
            std::thread::sleep(pause);
        }
        send(&mut conn, part);
    }
    let (status, body) = read_response(&mut conn).expect("an answer to the whole request");
    assert_eq!(status, 200);
    assert_eq!(body["status"].as_str(), Some("ok"));
    assert_eq!(server.stats().requests, 1);
}

#[test]
fn request_split_by_pauses_is_answered() {
    send_in_parts(
        &[
            b"GET /hea",
            b"lthz HTTP/1.1\r\nHost: x\r\n",
            b"Connection: keep-alive\r\n\r\n",
        ],
        Duration::from_millis(100),
    );
}

#[test]
fn drip_fed_request_is_answered() {
    let request = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";
    let bytes: Vec<&[u8]> = request.chunks(1).collect();
    send_in_parts(&bytes, Duration::from_millis(30));
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let server = start_server();
    let mut conn = connect(server.addr());
    send(
        &mut conn,
        b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\nGET /nowhere HTTP/1.1\r\nHost: x\r\n\r\n",
    );
    let (first, body) = read_response(&mut conn).unwrap();
    assert_eq!((first, body["status"].as_str()), (200, Some("ok")));
    let (second, body) = read_response(&mut conn).unwrap();
    assert_eq!(second, 404);
    assert!(body["error"].as_str().unwrap().contains("endpoint"));
}

/// Sends `request` from a writer thread (the server may stop reading
/// before the client stops writing) and expects `status` with the usual
/// error body, a closed connection, and one request and one error more in
/// the server's counters.
fn expect_rejected(server: &Server, request: Vec<u8>, status: u16) {
    let before = server.stats();
    let mut conn = connect(server.addr());
    let mut write_half = conn.get_ref().try_clone().unwrap();
    let writer = spawn_service("test-hostile-writer", move || {
        // The server closes once it has answered; later writes may fail.
        let _ = write_half.write_all(&request);
    });
    let (got, body) = read_response(&mut conn).expect("an error answer");
    assert_eq!(got, status, "{body:?}");
    assert!(body["error"].as_str().is_some(), "{body:?}");
    assert_eq!(body["epoch"].as_f64(), Some(0.0));
    assert!(closed_by_server(&mut conn), "connection left open");
    writer.join().unwrap();
    let after = server.stats();
    assert_eq!(after.requests, before.requests + 1);
    assert_eq!(after.errors, before.errors + 1);
}

#[test]
fn endless_request_line_gets_414_while_others_are_served() {
    let server = start_server();
    let mut other = HttpClient::connect(server.addr()).unwrap();
    assert_eq!(other.get("/healthz").unwrap().0, 200);
    let mut line = b"GET /".to_vec();
    line.resize(64 * 1024, b'a');
    expect_rejected(&server, line, 414);
    assert_eq!(other.get("/healthz").unwrap().0, 200);
}

#[test]
fn header_flood_gets_431() {
    let server = start_server();
    let mut request = b"GET /healthz HTTP/1.1\r\n".to_vec();
    for i in 0..10_000 {
        request.extend_from_slice(format!("X-Flood-{i}: v\r\n").as_bytes());
    }
    request.extend_from_slice(b"\r\n");
    expect_rejected(&server, request, 431);

    let mut long_header = b"GET /healthz HTTP/1.1\r\nX-Long: ".to_vec();
    long_header.resize(16 * 1024, b'v');
    long_header.extend_from_slice(b"\r\n\r\n");
    expect_rejected(&server, long_header, 431);
}

#[test]
fn malformed_heads_get_400() {
    let server = start_server();
    expect_rejected(&server, b"GET /\xff\xfe HTTP/1.1\r\n\r\n".to_vec(), 400);
    expect_rejected(&server, b"HELLO\r\n\r\n".to_vec(), 400);
    expect_rejected(
        &server,
        b"GET /healthz HTTP/1.1\r\nno colon here\r\n\r\n".to_vec(),
        400,
    );
}

#[test]
fn shutdown_wakes_an_idle_keep_alive_client() {
    let mut server = start_server();
    let addr = server.addr();
    let mut idle = connect(addr);
    send(&mut idle, b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!(read_response(&mut idle).unwrap().0, 200);

    let clock = Stopwatch::start();
    server.shutdown();
    let took = clock.elapsed();
    assert!(took < Duration::from_secs(1), "shutdown took {took:?}");
    assert!(closed_by_server(&mut idle), "idle client not closed");
    assert!(TcpStream::connect(addr).is_err(), "connect after shutdown");
    assert_eq!(server.stats().connections, 1, "wake-up connect counted");
}

#[test]
fn get_shutdown_closes_other_idle_clients() {
    let mut server = start_server();
    let addr = server.addr();
    let mut idle = connect(addr);
    send(&mut idle, b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!(read_response(&mut idle).unwrap().0, 200);

    let mut admin = HttpClient::connect(addr).unwrap();
    assert_eq!(admin.get("/shutdown").unwrap().0, 200);
    assert!(server.stop_requested());
    assert!(closed_by_server(&mut idle), "idle client not closed");
    assert_connect_refused_soon(addr);
    assert_eq!(server.stats().connections, 2, "wake-up connect counted");
    // `wait` returns once a client asked to stop.
    server.wait();
}
