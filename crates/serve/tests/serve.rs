//! End-to-end serving tests: a real TCP server, real keep-alive clients,
//! and a live publisher — including the no-torn-reads proof the serving
//! layer exists for.

use dlinfma_core::{DlInfMaConfig, ShardedEngine};
use dlinfma_geo::Point;
use dlinfma_obs::JsonValue;
use dlinfma_pool::spawn_service;
use dlinfma_serve::{
    replay_and_publish_sharded, train_sharded_model, HttpClient, ServeConfig, Server,
};
use dlinfma_store::{LocationSnapshot, SnapshotCell};
use dlinfma_synth::{generate, replay, AddressId, BuildingId, Preset, Scale};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A snapshot mapping addresses `0..n` to the sentinel point `(k, k)`.
/// Published at epoch `e`, a consistent view must satisfy `x == y == k`
/// for every address, and the test publisher arranges `k == e`. Tagged as
/// merged from two shards so responses exercise the fleet-mode surface.
fn sentinel_snapshot(n: u32, k: f64) -> LocationSnapshot {
    let by_address: HashMap<AddressId, Point> =
        (0..n).map(|i| (AddressId(i), Point::new(k, k))).collect();
    let geocodes = (0..n)
        .map(|i| (AddressId(i), (BuildingId(0), Point::new(-1.0, -1.0))))
        .collect();
    LocationSnapshot::from_tables(by_address, HashMap::new(), geocodes)
        .with_shard_epochs(vec![k as u64; 2])
}

fn start_server(cell: Arc<SnapshotCell>) -> Server {
    Server::start(ServeConfig::default(), cell).expect("bind loopback")
}

#[test]
fn serves_engine_state_end_to_end() {
    let (_, ds) = generate(Preset::DowBJ, Scale::Tiny, 7);
    let mut cfg = DlInfMaConfig::fast();
    cfg.model.max_epochs = 3;
    let mut fleet = ShardedEngine::new(ds.addresses.clone(), cfg, 1);
    let cell = Arc::new(SnapshotCell::new());
    let mut server = start_server(Arc::clone(&cell));
    let mut client = HttpClient::connect(server.addr()).expect("connect");

    // Before any publish: epoch 0, empty universe, lookups miss.
    let (status, body) = client.get("/healthz").unwrap();
    assert_eq!(status, 200);
    assert_eq!(body["epoch"].as_f64(), Some(0.0));
    let first_addr = ds.waybills[0].address.0;
    let (status, body) = client
        .get(&format!("/lookup?address={first_addr}"))
        .unwrap();
    assert_eq!(status, 404);
    assert_eq!(body["epoch"].as_f64(), Some(0.0));

    // Live ingest: one epoch per day, model trained after day 2 so
    // address-level answers come online mid-stream.
    let batches: Vec<_> = replay(&ds).collect();
    let n_days = batches.len() as u32;
    let final_epoch = replay_and_publish_sharded(&mut fleet, batches, &cell, 0, 0, |fleet, day| {
        if day == 2 {
            assert!(train_sharded_model(fleet, &ds) > 0);
        }
    });
    assert_eq!(final_epoch, u64::from(n_days));

    // Every post-ingest lookup answers from the final epoch with the
    // fallback chain; at least one delivered address answers at address
    // level (the model is installed).
    let mut address_level_hit = false;
    for w in ds.waybills.iter().take(30) {
        let (status, body) = client
            .get(&format!("/lookup?address={}", w.address.0))
            .unwrap();
        assert_eq!(status, 200);
        assert_eq!(body["epoch"].as_f64(), Some(f64::from(n_days)));
        assert_eq!(body["days"].as_f64(), Some(f64::from(n_days)));
        let src = body["source"].as_str().unwrap();
        assert!(matches!(src, "address" | "building" | "geocode"), "{src}");
        if src == "address" {
            address_level_hit = true;
        }
    }
    assert!(address_level_hit, "no lookup answered at address level");

    // /stats reflects the traffic; /shutdown requests a clean stop.
    let (status, stats) = client.get("/stats").unwrap();
    assert_eq!(status, 200);
    assert!(stats["requests"].as_f64().unwrap() >= 30.0);
    assert_eq!(stats["errors"].as_f64(), Some(1.0)); // the early 404

    // A 1-shard fleet's snapshot reports one shard whose epoch is the
    // ingested day count.
    assert_eq!(stats["shards"].as_f64(), Some(1.0));
    assert_eq!(stats["shard_epochs"][0].as_f64(), Some(f64::from(n_days)));
    let (status, _) = client.get("/shutdown").unwrap();
    assert_eq!(status, 200);
    assert!(server.stop_requested());
    server.shutdown();
}

#[test]
fn http_error_paths() {
    let cell = Arc::new(SnapshotCell::new());
    cell.publish(sentinel_snapshot(4, 1.0));
    let server = start_server(Arc::clone(&cell));
    let mut client = HttpClient::connect(server.addr()).expect("connect");

    let (status, body) = client.get("/lookup").unwrap();
    assert_eq!(status, 400);
    assert!(body["error"].as_str().unwrap().contains("address"));
    let (status, _) = client.get("/lookup?address=not-a-number").unwrap();
    assert_eq!(status, 400);
    let (status, _) = client.get("/batch").unwrap();
    assert_eq!(status, 400);
    let (status, _) = client.get("/batch?addresses=1,x").unwrap();
    assert_eq!(status, 400);
    let (status, body) = client.get("/no-such-endpoint").unwrap();
    assert_eq!(status, 404);
    assert_eq!(body["epoch"].as_f64(), Some(1.0));

    // Unknown addresses inside a batch degrade to null entries, not errors.
    let (status, body) = client.get("/batch?addresses=0,99").unwrap();
    assert_eq!(status, 200);
    assert!(body["results"][0].is_object());
    assert!(body["results"][1].is_null());

    // The keep-alive connection survived every error response.
    let (status, _) = client.get("/healthz").unwrap();
    assert_eq!(status, 200);
}

/// The acceptance-criteria test: concurrent readers during live publishes
/// always observe a single consistent snapshot epoch. Each `/batch`
/// response must be internally uniform (`x == y == epoch` for every
/// address — a mixed view would mean a torn read) and epochs must be
/// non-decreasing per client.
#[test]
fn batch_reads_observe_single_epoch_under_live_publishes() {
    const ADDRS: u32 = 16;
    const PUBLISHES: u64 = 120;
    const CLIENTS: usize = 3;

    let cell = Arc::new(SnapshotCell::new());
    cell.publish(sentinel_snapshot(ADDRS, 1.0));
    let server = start_server(Arc::clone(&cell));
    let addr = server.addr();
    let done = Arc::new(AtomicBool::new(false));
    let batches_checked = Arc::new(AtomicUsize::new(0));

    let mut readers = Vec::new();
    for c in 0..CLIENTS {
        let done = Arc::clone(&done);
        let batches_checked = Arc::clone(&batches_checked);
        readers.push(spawn_service("test-reader", move || {
            let mut client = HttpClient::connect(addr).expect("connect");
            let target = {
                let ids: Vec<String> = (0..ADDRS).map(|i| i.to_string()).collect();
                format!("/batch?addresses={}", ids.join(","))
            };
            let mut last_epoch = 0.0f64;
            let mut rounds = 0usize;
            while !done.load(Ordering::Relaxed) || rounds == 0 {
                let (status, body) = client.get(&target).expect("batch request");
                assert_eq!(status, 200, "client {c}");
                let epoch = body["epoch"].as_f64().expect("epoch field");
                assert!(
                    epoch >= last_epoch,
                    "client {c}: epoch went backwards ({last_epoch} -> {epoch})"
                );
                // The snapshots being served are merged from two shards,
                // yet a batch response carries exactly ONE global epoch —
                // never per-shard epochs a client could tear between.
                let JsonValue::Obj(fields) = &body else {
                    panic!("client {c}: batch body is not an object");
                };
                assert_eq!(
                    fields.iter().filter(|(k, _)| k == "epoch").count(),
                    1,
                    "client {c}: merged batch response must carry exactly \
                     one global epoch"
                );
                assert!(
                    fields.iter().all(|(k, _)| k != "shard_epochs"),
                    "client {c}: per-shard epochs leaked into a batch \
                     response"
                );
                last_epoch = epoch;
                let results = body["results"].as_array().expect("results array");
                assert_eq!(results.len(), ADDRS as usize);
                for (i, r) in results.iter().enumerate() {
                    let x = r["x"].as_f64().expect("x");
                    let y = r["y"].as_f64().expect("y");
                    assert!(
                        x == epoch && y == epoch,
                        "client {c}: torn read — entry {i} is ({x}, {y}) \
                         under epoch {epoch}"
                    );
                }
                rounds += 1;
                batches_checked.fetch_add(1, Ordering::Relaxed);
            }
        }));
    }

    // Publisher: each build happens outside the cell (like the ingest
    // thread), then swaps in; sentinel value always equals the epoch the
    // cell will assign.
    for k in 2..=PUBLISHES {
        let snap = sentinel_snapshot(ADDRS, k as f64);
        assert_eq!(cell.publish(snap), k);
        std::thread::sleep(Duration::from_millis(1));
    }
    done.store(true, Ordering::Relaxed);
    for r in readers {
        r.join().expect("reader thread");
    }
    assert!(
        batches_checked.load(Ordering::Relaxed) >= CLIENTS,
        "readers made no progress"
    );
    drop(server);
}

/// Reads never block on a materialize: while the publisher is mid-build
/// (simulated by a long pause before its publish), lookups keep completing
/// against the previous epoch.
#[test]
fn reads_complete_during_slow_materialize() {
    const BUILD_MS: u64 = 300;
    let cell = Arc::new(SnapshotCell::new());
    cell.publish(sentinel_snapshot(8, 1.0));
    let server = start_server(Arc::clone(&cell));
    let addr = server.addr();

    let building = Arc::new(AtomicBool::new(false));
    let publisher = {
        let cell = Arc::clone(&cell);
        let building = Arc::clone(&building);
        spawn_service("test-publisher", move || {
            building.store(true, Ordering::SeqCst);
            // The "materialize": a long snapshot build, no lock held.
            std::thread::sleep(Duration::from_millis(BUILD_MS));
            building.store(false, Ordering::SeqCst);
            cell.publish(sentinel_snapshot(8, 2.0));
        })
    };

    let mut client = HttpClient::connect(addr).expect("connect");
    while !building.load(Ordering::SeqCst) {
        std::thread::yield_now();
    }
    let mut during_build = 0usize;
    loop {
        let (status, body) = client.get("/lookup?address=0").unwrap();
        // Only count responses that provably completed mid-build; for
        // those, the publish cannot have happened yet, so the reader must
        // have been answered — unblocked — from the previous epoch.
        if !building.load(Ordering::SeqCst) {
            break;
        }
        assert_eq!(status, 200);
        assert_eq!(
            body["epoch"].as_f64(),
            Some(1.0),
            "reader saw a half-published state"
        );
        during_build += 1;
    }
    assert!(
        during_build >= 5,
        "only {during_build} lookups completed during a {BUILD_MS} ms \
         materialize — reads are blocking on ingest"
    );
    publisher.join().expect("publisher");
    let (_, body) = client.get("/lookup?address=0").unwrap();
    assert_eq!(body["epoch"].as_f64(), Some(2.0));
    drop(server);
}

/// Raw-socket check: a request with `Connection: close` is honoured and
/// the JSON body is well-formed.
#[test]
fn connection_close_is_honoured() {
    use std::io::{Read, Write};
    let cell = Arc::new(SnapshotCell::new());
    cell.publish(sentinel_snapshot(2, 1.0));
    let server = start_server(Arc::clone(&cell));

    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap(); // EOF => server closed
    let body = raw.split("\r\n\r\n").nth(1).expect("has body");
    let json = JsonValue::parse(body).expect("valid JSON body");
    assert_eq!(json["status"].as_str(), Some("ok"));
    drop(server);
}
