//! Machine-readable serving-latency artifact and regression gate.
//!
//! Boots the `dlinfma-serve` HTTP server on a loopback port, replays the
//! Tiny world through a background ingest thread (one snapshot epoch per
//! day, model trained mid-stream), and drives it with a mixed load: a pool
//! of *closed-loop* clients (back-to-back keep-alive requests, `--concurrency`
//! of them) plus one *open-loop* client issuing at a fixed `--open-rps`
//! rate regardless of response times. Every response is checked for epoch
//! consistency — epochs must never go backwards on a connection, and a
//! non-OK status fails the run — so this bin doubles as the CI serve smoke
//! test. Writes QPS and the p50/p95/p99/p999 latency spectrum to a single
//! JSON file (default `BENCH_serve.json`, overridable as the first
//! argument).
//!
//! With `--gate <BENCH_serve_baseline.json>` the run compares its mean
//! request latency against the committed baseline via the calibrated-ratio
//! gate shared with `bench_pipeline`. Loopback latency is far noisier than
//! pipeline CPU time, so the tolerance is a deliberately generous 3x:
//! the gate is a smoke alarm for order-of-magnitude serving regressions
//! (an accidental lock across the read path, a per-request allocation
//! storm), not a microbenchmark.

use dlinfma_bench::{calibrated_gate, calibration_ns, ensure_writable, percentile_ns};
use dlinfma_core::{DlInfMaConfig, ShardedEngine};
use dlinfma_obs::{JsonValue, Stopwatch};
use dlinfma_pool::spawn_service;
use dlinfma_serve::{
    replay_and_publish_sharded, train_sharded_model, HttpClient, ServeConfig, Server,
};
use dlinfma_store::SnapshotCell;
use dlinfma_synth::{generate, replay, Preset, Scale};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const SEED: u64 = 1;

/// Regression tolerance of the `--gate` check on mean request latency.
/// See the module docs for why this is looser than the pipeline gate.
const SERVE_GATE_TOLERANCE: f64 = 3.0;

struct Load {
    latencies_ns: Vec<u64>,
    requests: u64,
    errors: u64,
}

/// One closed-loop client: back-to-back requests on a keep-alive
/// connection until `done`, alternating single lookups with batch reads,
/// asserting the epoch never goes backwards on this connection.
#[allow(clippy::too_many_arguments)]
fn closed_loop(
    addr: std::net::SocketAddr,
    addrs: Arc<Vec<u32>>,
    done: Arc<AtomicBool>,
    min_requests: u64,
) -> Load {
    let mut client = match HttpClient::connect(addr) {
        Ok(c) => c,
        Err(_) => {
            return Load {
                latencies_ns: Vec::new(),
                requests: 0,
                errors: 1,
            }
        }
    };
    let batch_target = {
        let ids: Vec<String> = addrs.iter().take(8).map(u32::to_string).collect();
        format!("/batch?addresses={}", ids.join(","))
    };
    let mut load = Load {
        latencies_ns: Vec::new(),
        requests: 0,
        errors: 0,
    };
    let mut last_epoch = 0.0f64;
    let mut i = 0usize;
    while !done.load(Ordering::Relaxed) || load.requests < min_requests {
        let target = if i % 4 == 3 {
            batch_target.clone()
        } else {
            format!("/lookup?address={}", addrs[i % addrs.len()])
        };
        let t = Stopwatch::start();
        match client.get(&target) {
            // 404 = address not yet materialized in the early epochs; it is
            // a well-formed answer, not a serving error.
            Ok((status, body)) if status == 200 || status == 404 => {
                load.latencies_ns.push(t.elapsed_ns());
                match body["epoch"].as_f64() {
                    Some(epoch) if epoch >= last_epoch => last_epoch = epoch,
                    _ => load.errors += 1,
                }
            }
            _ => load.errors += 1,
        }
        load.requests += 1;
        i += 1;
    }
    load
}

/// The open-loop client: fires at a fixed rate on its own connection,
/// sleeping out the remainder of each interval whatever the response time
/// was. Models arrival-rate pressure that closed loops (which slow down
/// with the server) cannot.
fn open_loop(
    addr: std::net::SocketAddr,
    addrs: Arc<Vec<u32>>,
    done: Arc<AtomicBool>,
    rps: u64,
) -> Load {
    let mut load = Load {
        latencies_ns: Vec::new(),
        requests: 0,
        errors: 0,
    };
    let mut client = match HttpClient::connect(addr) {
        Ok(c) => c,
        Err(_) => {
            load.errors = 1;
            return load;
        }
    };
    let interval_ns = 1_000_000_000 / rps.max(1);
    let mut i = 0usize;
    while !done.load(Ordering::Relaxed) {
        let t = Stopwatch::start();
        match client.get(&format!("/lookup?address={}", addrs[i % addrs.len()])) {
            Ok((status, _)) if status == 200 || status == 404 => {
                load.latencies_ns.push(t.elapsed_ns());
            }
            _ => load.errors += 1,
        }
        load.requests += 1;
        i += 1;
        let spent = t.elapsed_ns();
        if spent < interval_ns {
            std::thread::sleep(Duration::from_nanos(interval_ns - spent));
        }
    }
    load
}

fn run() -> Result<(), String> {
    let mut out = "BENCH_serve.json".to_string();
    let mut gate: Option<String> = None;
    let mut concurrency = 4u64;
    let mut open_rps = 200u64;
    let mut min_requests = 400u64;
    let mut day_delay_ms = 20u64;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut num = |name: &str| -> Result<u64, String> {
            let v = args.next().ok_or(format!("{name} needs a value"))?;
            v.parse().map_err(|e| format!("bad {name} '{v}': {e}"))
        };
        match a.as_str() {
            "--gate" => gate = Some(args.next().ok_or("--gate needs a baseline path")?),
            "--concurrency" => concurrency = num("--concurrency")?.max(1),
            "--open-rps" => open_rps = num("--open-rps")?,
            "--min-requests" => min_requests = num("--min-requests")?,
            "--day-delay-ms" => day_delay_ms = num("--day-delay-ms")?,
            _ => out = a,
        }
    }
    // Fail fast on an unwritable output path before the measured run.
    ensure_writable("--out", &out)?;
    let calib = calibration_ns();

    let preset = Preset::DowBJ;
    let (_, dataset) = generate(preset, Scale::Tiny, SEED);
    let mut cfg = DlInfMaConfig::fast();
    cfg.model.max_epochs = 3;
    let fleet = ShardedEngine::new(dataset.addresses.clone(), cfg, 1);
    let cell = Arc::new(SnapshotCell::new());
    let mut server =
        Server::start(ServeConfig::default(), Arc::clone(&cell)).map_err(|e| e.to_string())?;
    let addr = server.addr();

    let batches: Vec<_> = replay(&dataset).collect();
    let n_days = batches.len() as u64;
    let addrs: Arc<Vec<u32>> = Arc::new(
        dataset
            .waybills
            .iter()
            .take(64)
            .map(|w| w.address.0)
            .collect(),
    );
    if addrs.is_empty() {
        return Err("tiny world generated no waybills".into());
    }

    // Background ingest: one epoch per day, model trained after day 2.
    let ingest = {
        let cell = Arc::clone(&cell);
        let ds = dataset.clone();
        let mut fleet = fleet;
        spawn_service("bench-ingest", move || {
            replay_and_publish_sharded(&mut fleet, batches, &cell, day_delay_ms, 0, |fleet, day| {
                if day == 2 {
                    train_sharded_model(fleet, &ds);
                }
            })
        })
    };

    // The measured load phase: closed-loop pool + one open-loop client,
    // all overlapping the live ingest above.
    let done = Arc::new(AtomicBool::new(false));
    let wall = Stopwatch::start();
    let mut clients = Vec::new();
    for _ in 0..concurrency {
        let (addrs, done) = (Arc::clone(&addrs), Arc::clone(&done));
        clients.push(spawn_service("bench-closed", move || {
            closed_loop(addr, addrs, done, min_requests)
        }));
    }
    if open_rps > 0 {
        let (addrs, done) = (Arc::clone(&addrs), Arc::clone(&done));
        clients.push(spawn_service("bench-open", move || {
            open_loop(addr, addrs, done, open_rps)
        }));
    }

    let final_epoch = ingest.join().map_err(|_| "ingest thread panicked")?;
    done.store(true, Ordering::Relaxed);
    let mut latencies: Vec<u64> = Vec::new();
    let (requests, errors) = (AtomicU64::new(0), AtomicU64::new(0));
    for c in clients {
        let load = c.join().map_err(|_| "client thread panicked")?;
        requests.fetch_add(load.requests, Ordering::Relaxed);
        errors.fetch_add(load.errors, Ordering::Relaxed);
        latencies.extend(load.latencies_ns);
    }
    let wall_ns = wall.elapsed_ns();
    server.shutdown();

    let (requests, errors) = (requests.into_inner(), errors.into_inner());
    if final_epoch != n_days {
        return Err(format!(
            "ingest published epoch {final_epoch}, expected one per day ({n_days})"
        ));
    }
    if errors > 0 {
        return Err(format!(
            "{errors} of {requests} requests failed or saw a backwards epoch"
        ));
    }
    if latencies.is_empty() {
        return Err("no successful requests were measured".into());
    }

    latencies.sort_unstable();
    let mean_ns = latencies.iter().sum::<u64>() / latencies.len() as u64;
    let (p50, p95) = (
        percentile_ns(&latencies, 50.0),
        percentile_ns(&latencies, 95.0),
    );
    let (p99, p999) = (
        percentile_ns(&latencies, 99.0),
        percentile_ns(&latencies, 99.9),
    );
    let qps = latencies.len() as f64 / (wall_ns.max(1) as f64 / 1e9);

    let json = JsonValue::Obj(vec![
        ("preset".into(), JsonValue::Str(preset.name().into())),
        ("scale".into(), JsonValue::Str("tiny".into())),
        ("seed".into(), JsonValue::Num(SEED as f64)),
        ("calibration_ns".into(), JsonValue::Num(calib as f64)),
        ("concurrency".into(), JsonValue::Num(concurrency as f64)),
        ("open_rps".into(), JsonValue::Num(open_rps as f64)),
        ("days".into(), JsonValue::Num(n_days as f64)),
        ("final_epoch".into(), JsonValue::Num(final_epoch as f64)),
        ("requests".into(), JsonValue::Num(requests as f64)),
        ("errors".into(), JsonValue::Num(errors as f64)),
        ("wall_ns".into(), JsonValue::Num(wall_ns as f64)),
        ("qps".into(), JsonValue::Num(qps)),
        ("mean_ns".into(), JsonValue::Num(mean_ns as f64)),
        ("p50_ns".into(), JsonValue::Num(p50 as f64)),
        ("p95_ns".into(), JsonValue::Num(p95 as f64)),
        ("p99_ns".into(), JsonValue::Num(p99 as f64)),
        ("p999_ns".into(), JsonValue::Num(p999 as f64)),
    ]);
    std::fs::write(&out, json.render_pretty()).map_err(|e| format!("write {out}: {e}"))?;
    println!(
        "wrote {out} ({} requests over {} epochs: {qps:.0} qps, \
         p50 {:.3} ms, p95 {:.3} ms, p99 {:.3} ms, p99.9 {:.3} ms)",
        latencies.len(),
        final_epoch,
        p50 as f64 / 1e6,
        p95 as f64 / 1e6,
        p99 as f64 / 1e6,
        p999 as f64 / 1e6
    );

    if let Some(baseline_path) = gate {
        let (ratio, base_ratio) = calibrated_gate(
            &baseline_path,
            "mean_ns",
            mean_ns,
            calib,
            SERVE_GATE_TOLERANCE,
        )?;
        println!(
            "gate: calibrated mean-latency ratio {ratio:.3} vs baseline {base_ratio:.3} \
             (tolerance {SERVE_GATE_TOLERANCE}x)"
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
