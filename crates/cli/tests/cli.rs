//! End-to-end tests driving the `dlinfma` binary.

use dlinfma_obs::{JsonValue, Stopwatch};
use dlinfma_serve::HttpClient;
use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};
use std::time::Duration;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dlinfma"))
}

#[test]
fn stats_prints_dataset_summary() {
    let out = bin()
        .args([
            "stats", "--preset", "dowbj", "--scale", "tiny", "--seed", "5",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("SynthDowBJ"));
    assert!(text.contains("addresses"));
    assert!(text.contains("waybills"));
}

#[test]
fn generate_writes_parseable_json() {
    let path = std::env::temp_dir().join("dlinfma_cli_test_world.json");
    let out = bin()
        .args([
            "generate",
            "--preset",
            "subbj",
            "--scale",
            "tiny",
            "--seed",
            "5",
            "--out",
            path.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&path).expect("file written");
    let value = JsonValue::parse(&json).expect("valid JSON");
    assert!(
        value["addresses"]
            .as_array()
            .expect("addresses array")
            .len()
            > 10
    );
    assert!(value["trips"].as_array().expect("trips array").len() > 1);
    std::fs::remove_file(&path).ok();
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = bin().arg("frobnicate").output().expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage:"), "stderr: {err}");
}

#[test]
fn bad_preset_is_rejected() {
    let out = bin()
        .args(["stats", "--preset", "mars"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown preset"));
}

#[test]
fn malformed_flag_is_named_in_error() {
    let out = bin()
        .args(["stats", "--seed"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("'--seed' is missing a value"), "stderr: {err}");

    let out = bin()
        .args(["eval", "--workers", "zero"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--workers 'zero'"), "stderr: {err}");
}

#[test]
fn eval_verbose_writes_metrics_json() {
    let path = std::env::temp_dir().join("dlinfma_cli_test_metrics.json");
    let out = bin()
        .args([
            "eval",
            "--preset",
            "dowbj",
            "--scale",
            "tiny",
            "--seed",
            "5",
            "--workers",
            "2",
            "--verbose",
            "--metrics-out",
            path.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // --verbose prints the stage/funnel tables to stderr, not stdout.
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("pipeline report"), "stderr: {err}");
    assert!(err.contains("funnel: raw"), "stderr: {err}");
    assert!(err.contains("== spans =="), "stderr: {err}");
    let table = String::from_utf8_lossy(&out.stdout);
    assert!(table.contains("DLInfMA"), "stdout: {table}");

    // The hand-rolled JSON writer round-trips through the obs parser.
    let json = JsonValue::parse(&std::fs::read_to_string(&path).expect("written")).expect("valid");
    let spans = json["spans"].as_array().expect("spans array");
    let names: Vec<&str> = spans
        .iter()
        .map(|s| s["name"].as_str().expect("span name"))
        .collect();
    for stage in [
        "noise-filter",
        "stay-point-extraction",
        "clustering",
        "retrieval",
        "feature-extraction",
        "training",
        "inference",
    ] {
        assert!(
            names.contains(&stage),
            "missing span '{stage}' in {names:?}"
        );
    }
    assert!(json["metrics"]["counters"].is_object());
    assert!(json["metrics"]["histograms"]["retrieval/candidate-set-size"].is_object());
    let stages = json["report"]["stages"].as_array().expect("report stages");
    assert!(stages.len() >= 5, "stages: {stages:?}");
    for s in stages {
        assert!(s["duration_ns"].as_f64().expect("duration") > 0.0, "{s:?}");
    }
    let funnel = &json["report"]["funnel"];
    assert!(funnel["raw_points"].as_f64().expect("raw") > 0.0);
    std::fs::remove_file(&path).ok();
}

#[test]
fn geojson_export_is_valid() {
    let path = std::env::temp_dir().join("dlinfma_cli_test_map.geojson");
    let out = bin()
        .args([
            "geojson",
            "--preset",
            "dowbj",
            "--scale",
            "tiny",
            "--seed",
            "5",
            "--out",
            path.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = JsonValue::parse(&std::fs::read_to_string(&path).expect("written")).expect("valid");
    assert_eq!(json["type"].as_str(), Some("FeatureCollection"));
    let features = json["features"].as_array().expect("features");
    assert!(features.len() > 50);
    // Coordinates are plausible WGS-84 near Beijing.
    let coord = &features[0]["geometry"]["coordinates"];
    let lng = coord[0].as_f64().expect("lng");
    let lat = coord[1].as_f64().expect("lat");
    assert!((115.0..118.0).contains(&lng), "lng {lng}");
    assert!((39.0..41.0).contains(&lat), "lat {lat}");
    std::fs::remove_file(&path).ok();
}

/// `serve` over a quickly replayed Tiny world, with no model training.
const SERVE_TINY: [&str; 7] = [
    "serve",
    "--scale",
    "tiny",
    "--day-delay-ms",
    "0",
    "--train-days",
    "99",
];

#[test]
fn serve_self_check_counts_only_client_connections() {
    let out = bin()
        .args(SERVE_TINY)
        .args(["--self-check", "10"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("self-check: 10 epoch-consistent responses"),
        "stdout: {text}"
    );
    // The self-check client is the only client; the connect that wakes
    // the accept loop at shutdown is not counted.
    assert!(text.contains("over 1 connections"), "stdout: {text}");
}

#[test]
fn serve_exits_after_get_shutdown() {
    let mut child = bin()
        .args(SERVE_TINY)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("binary runs");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    while !line.starts_with("serving on http://") {
        line.clear();
        assert!(
            stdout.read_line(&mut line).expect("read stdout") > 0,
            "serve exited before announcing its address"
        );
    }
    let addr = line["serving on http://".len()..]
        .split_whitespace()
        .next()
        .expect("address after the URL scheme");
    let mut client = HttpClient::connect(addr).expect("connect");
    assert_eq!(client.get("/shutdown").expect("shutdown request").0, 200);

    // Keep draining stdout so the child never blocks on a full pipe.
    let drain = dlinfma_pool::spawn_service("test-serve-stdout", move || {
        let mut rest = String::new();
        stdout.read_to_string(&mut rest).map(|_| rest)
    });
    let clock = Stopwatch::start();
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll child") {
            break status;
        }
        if clock.elapsed() > Duration::from_secs(10) {
            child.kill().ok();
            panic!("serve still running 10 s after GET /shutdown");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(status.success(), "serve exited with {status}");
    let rest = drain.join().expect("drain thread").expect("read stdout");
    assert!(rest.contains("over 1 connections"), "stdout: {rest}");
}
