//! The HTTP server: accept loop, connection loops, request routing.
//!
//! Threading model: one named service thread accepts, one per live
//! connection serves (the expected concurrency is a handful of load-test
//! clients, not C10K). Every thread blocks in std I/O and nothing polls:
//! a stop request wakes the accept thread with a loopback connect and each
//! connection thread by shutting down the read side of its stream. All
//! request handling reads a single [`LocationSnapshot`] out of the shared
//! [`SnapshotCell`] per request (or per `/batch`), so a response never
//! mixes state from two epochs and never waits on the ingest thread.

use crate::http::{read_request, write_response, Head, Request};
use dlinfma_obs::{self as obs, JsonValue};
use dlinfma_pool::spawn_service;
use dlinfma_store::{LocationSnapshot, QuerySource, SnapshotCell};
use dlinfma_synth::AddressId;
use std::collections::BTreeMap;
use std::io::{self, BufReader};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// Settings for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks a free port (see [`Server::addr`]).
    pub addr: String,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
        }
    }
}

/// Monotonic request counters, readable at any time via [`Server::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests handled (any status).
    pub requests: u64,
    /// Requests answered with a 4xx/5xx status.
    pub errors: u64,
    /// Client connections accepted.
    pub connections: u64,
}

#[derive(Debug)]
struct Shared {
    /// The bound address.
    addr: SocketAddr,
    stop: AtomicBool,
    requests: AtomicU64,
    errors: AtomicU64,
    connections: AtomicU64,
    /// Live connections by id, each with a clone of its stream to wake its
    /// blocked read at shutdown.
    live: Mutex<BTreeMap<u64, TcpStream>>,
    /// Signalled when `live` becomes empty.
    drained: Condvar,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    /// Registers an accepted connection and counts it, or returns `None`
    /// once a stop was requested (the caller then drops the connection).
    /// The flag is read under the registry lock, which
    /// [`Shared::request_stop`] takes after setting it, so the lock orders
    /// the two: a connection is either refused here or woken there.
    fn register(self: &Arc<Self>, wake: TcpStream) -> Option<Registration> {
        let mut live = lock(&self.live);
        if self.stop.load(Ordering::Relaxed) {
            return None;
        }
        let id = self.connections.fetch_add(1, Ordering::Relaxed);
        live.insert(id, wake);
        Some(Registration {
            shared: Arc::clone(self),
            id,
        })
    }

    /// Sets the stop flag and wakes every blocked thread: the accept thread
    /// with a loopback connect, which it drops, and each connection thread
    /// by shutting down the read side of its stream. The write side stays
    /// open, so a response being handled still goes out. Idempotent.
    fn request_stop(&self) {
        if self.stop.swap(true, Ordering::Relaxed) {
            return;
        }
        // A wildcard bind address (`0.0.0.0`, `::`) connects to this host.
        let _ = TcpStream::connect(self.addr);
        for stream in lock(&self.live).values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
    }
}

/// A live connection's registry entry; dropped when its thread exits.
struct Registration {
    shared: Arc<Shared>,
    id: u64,
}

impl Drop for Registration {
    fn drop(&mut self) {
        let mut live = lock(&self.shared.live);
        live.remove(&self.id);
        if live.is_empty() {
            self.shared.drained.notify_all();
        }
    }
}

/// The running server. Dropping it (or calling [`Server::shutdown`]) stops
/// the accept loop and waits for every connection thread to finish.
#[derive(Debug)]
pub struct Server {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds and starts serving queries against `cell`'s current snapshot.
    pub fn start(cfg: ServeConfig, cell: Arc<SnapshotCell>) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let shared = Arc::new(Shared {
            addr: listener.local_addr()?,
            stop: AtomicBool::new(false),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            live: Mutex::new(BTreeMap::new()),
            drained: Condvar::new(),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            spawn_service("serve-accept", move || {
                accept_loop(&listener, &shared, &cell)
            })
        };
        Ok(Server {
            shared,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Current counters.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            requests: self.shared.requests.load(Ordering::Relaxed),
            errors: self.shared.errors.load(Ordering::Relaxed),
            connections: self.shared.connections.load(Ordering::Relaxed),
        }
    }

    /// True once a shutdown was requested — via [`Server::shutdown`] or a
    /// client hitting `GET /shutdown`.
    pub fn stop_requested(&self) -> bool {
        self.shared.stop.load(Ordering::Relaxed)
    }

    /// Blocks until a stop is requested — by a client hitting
    /// `GET /shutdown` — then shuts down as [`Server::shutdown`] does.
    pub fn wait(&mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        self.shutdown();
    }

    /// Stops accepting, lets in-flight requests finish, and waits until
    /// every connection thread has exited. Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.request_stop();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let live = lock(&self.shared.live);
        let _drained = self
            .shared
            .drained
            .wait_while(live, |live| !live.is_empty())
            .unwrap_or_else(PoisonError::into_inner);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Accepts until a stop request; the listener closes when this returns.
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>, cell: &Arc<SnapshotCell>) {
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::Relaxed) {
            return;
        }
        // A failed accept or clone loses only that one client.
        let Ok(stream) = stream else { continue };
        let Ok(wake) = stream.try_clone() else {
            continue;
        };
        let Some(registration) = shared.register(wake) else {
            return;
        };
        let cell = Arc::clone(cell);
        spawn_service("serve-conn", move || {
            conn_loop(stream, &registration.shared, &cell);
            drop(registration);
        });
    }
}

/// Answers requests until the peer closes, asks to close, sends a head the
/// server rejects, or a stop request shuts the read side down.
fn conn_loop(stream: TcpStream, shared: &Shared, cell: &SnapshotCell) {
    if stream.set_nodelay(true).is_err() {
        return;
    }
    let mut reader = BufReader::new(stream);
    while !shared.stop.load(Ordering::Relaxed) {
        let (status, body, close) = match read_request(&mut reader) {
            Ok(Head::Request(req)) => {
                let (status, body) = handle(&req, shared, cell);
                (status, body, req.close)
            }
            Ok(Head::Rejected { status, message }) => {
                (status, error_body(message, cell.load().epoch()), true)
            }
            Ok(Head::Closed) | Err(_) => return,
        };
        shared.requests.fetch_add(1, Ordering::Relaxed);
        obs::counter(obs::names::SERVE_REQUESTS_TOTAL).inc();
        if status >= 400 {
            shared.errors.fetch_add(1, Ordering::Relaxed);
            obs::counter(obs::names::SERVE_ERRORS_TOTAL).inc();
        }
        if write_response(reader.get_ref(), status, &body.render(), close).is_err() || close {
            return;
        }
    }
}

fn source_str(src: QuerySource) -> &'static str {
    match src {
        QuerySource::Address => "address",
        QuerySource::Building => "building",
        QuerySource::Geocode => "geocode",
    }
}

/// One lookup result object (no epoch — the enclosing response carries it).
fn lookup_json(snap: &LocationSnapshot, addr: u32) -> Option<JsonValue> {
    let (p, src) = snap.query(AddressId(addr))?;
    Some(JsonValue::Obj(vec![
        ("address".into(), JsonValue::Num(f64::from(addr))),
        ("x".into(), JsonValue::Num(p.x)),
        ("y".into(), JsonValue::Num(p.y)),
        ("source".into(), JsonValue::Str(source_str(src).into())),
    ]))
}

fn error_body(message: &str, epoch: u64) -> JsonValue {
    JsonValue::Obj(vec![
        ("error".into(), JsonValue::Str(message.into())),
        ("epoch".into(), JsonValue::Num(epoch as f64)),
    ])
}

/// Routes one request. Every branch loads the snapshot at most once, so a
/// response is internally consistent by construction.
fn handle(req: &Request, shared: &Shared, cell: &SnapshotCell) -> (u16, JsonValue) {
    let _span = obs::trace_span(obs::names::SERVE_REQUEST);
    if req.method != "GET" {
        return (
            405,
            error_body("only GET is supported", cell.load().epoch()),
        );
    }
    match req.path.as_str() {
        "/lookup" => {
            let snap = cell.load();
            let Some(addr) = req.param("address").and_then(|v| v.parse::<u32>().ok()) else {
                return (
                    400,
                    error_body("missing or non-numeric `address` parameter", snap.epoch()),
                );
            };
            match lookup_json(&snap, addr) {
                Some(JsonValue::Obj(mut fields)) => {
                    fields.push(("epoch".into(), JsonValue::Num(snap.epoch() as f64)));
                    fields.push((
                        "days".into(),
                        JsonValue::Num(f64::from(snap.days_ingested())),
                    ));
                    (200, JsonValue::Obj(fields))
                }
                _ => (404, error_body("unknown address", snap.epoch())),
            }
        }
        "/batch" => {
            // One load answers the whole batch: the epoch consistency the
            // tests and the load generator assert on.
            let snap = cell.load();
            let Some(raw) = req.param("addresses") else {
                return (
                    400,
                    error_body("missing `addresses` parameter", snap.epoch()),
                );
            };
            let mut results = Vec::new();
            for part in raw.split(',').filter(|p| !p.is_empty()) {
                let Ok(addr) = part.parse::<u32>() else {
                    return (
                        400,
                        error_body("non-numeric entry in `addresses`", snap.epoch()),
                    );
                };
                results.push(lookup_json(&snap, addr).unwrap_or(JsonValue::Null));
            }
            (
                200,
                JsonValue::Obj(vec![
                    ("epoch".into(), JsonValue::Num(snap.epoch() as f64)),
                    (
                        "days".into(),
                        JsonValue::Num(f64::from(snap.days_ingested())),
                    ),
                    ("results".into(), JsonValue::Arr(results)),
                ]),
            )
        }
        "/healthz" => {
            let snap = cell.load();
            (
                200,
                JsonValue::Obj(vec![
                    ("status".into(), JsonValue::Str("ok".into())),
                    ("epoch".into(), JsonValue::Num(snap.epoch() as f64)),
                    ("healthy".into(), JsonValue::Bool(snap.healthy())),
                    (
                        "days".into(),
                        JsonValue::Num(f64::from(snap.days_ingested())),
                    ),
                    ("anomalies".into(), JsonValue::Num(snap.anomalies() as f64)),
                ]),
            )
        }
        "/stats" => {
            let snap = cell.load();
            (
                200,
                JsonValue::Obj(vec![
                    ("epoch".into(), JsonValue::Num(snap.epoch() as f64)),
                    (
                        "requests".into(),
                        JsonValue::Num(shared.requests.load(Ordering::Relaxed) as f64),
                    ),
                    (
                        "errors".into(),
                        JsonValue::Num(shared.errors.load(Ordering::Relaxed) as f64),
                    ),
                    (
                        "connections".into(),
                        JsonValue::Num(shared.connections.load(Ordering::Relaxed) as f64),
                    ),
                    (
                        "addresses".into(),
                        JsonValue::Num(snap.n_addresses() as f64),
                    ),
                    ("inferred".into(), JsonValue::Num(snap.len() as f64)),
                    (
                        "candidates".into(),
                        JsonValue::Num(snap.n_candidates() as f64),
                    ),
                    ("stays".into(), JsonValue::Num(snap.n_stays() as f64)),
                    ("shards".into(), JsonValue::Num(snap.n_shards() as f64)),
                    (
                        "shard_epochs".into(),
                        JsonValue::Arr(
                            snap.shard_epochs()
                                .iter()
                                .map(|&e| JsonValue::Num(e as f64))
                                .collect(),
                        ),
                    ),
                ]),
            )
        }
        "/shutdown" => {
            shared.request_stop();
            (
                200,
                JsonValue::Obj(vec![(
                    "status".into(),
                    JsonValue::Str("shutting down".into()),
                )]),
            )
        }
        _ => (404, error_body("no such endpoint", cell.load().epoch())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HttpClient;
    use std::time::Duration;

    /// A connection leaves the registry when its thread exits, so the
    /// server keeps nothing for connections that are gone.
    #[test]
    fn closed_connections_leave_the_registry() {
        let cell = Arc::new(SnapshotCell::new());
        let mut server = Server::start(ServeConfig::default(), cell).unwrap();
        for _ in 0..200 {
            let mut client = HttpClient::connect(server.addr()).unwrap();
            assert_eq!(client.get("/healthz").unwrap().0, 200);
        }
        let clock = obs::Stopwatch::start();
        let live = lock(&server.shared.live);
        let (live, _) = server
            .shared
            .drained
            .wait_timeout_while(live, Duration::from_secs(5), |live| !live.is_empty())
            .unwrap();
        assert!(
            live.is_empty(),
            "{} of 200 closed connections still registered after {:?}",
            live.len(),
            clock.elapsed()
        );
        drop(live);
        assert_eq!(server.stats().connections, 200);
        server.shutdown();
    }
}
