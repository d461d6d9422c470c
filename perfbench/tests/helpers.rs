//! The benchmark's own arithmetic: percentiles, open-loop accounting,
//! failure counting and span self times.

use dlinfma_geo::Point;
use dlinfma_obs::JsonValue;
use dlinfma_store::{LocationSnapshot, SnapshotCell};
use dlinfma_synth::{AddressId, BuildingId};
use perfbench::check::{check_answers, Answer, Published, Tally};
use perfbench::openloop::{OpenLoopSummary, Schedule, Timing};
use perfbench::stats::{
    by_window, fastest, fastest_each, late_ratio, median, nearest_rank, percentile, split_windows,
    windowed_percentile,
};
use perfbench::trace::Tracer;
use std::collections::HashMap;

#[test]
fn nearest_rank_picks_the_smallest_sample_covering_p() {
    // p75 of the 40-day replay is day 30: ten days lie beyond it.
    let v: Vec<f64> = (1..=40).map(f64::from).collect();
    assert_eq!(nearest_rank(&v, 75.0), Some(30.0));
    assert_eq!(nearest_rank(&v, 50.0), Some(20.0));
    assert_eq!(nearest_rank(&v, 100.0), Some(40.0));
    assert_eq!(nearest_rank(&v, 0.0), Some(1.0));
    let hundred: Vec<u32> = (1..=100).collect();
    assert_eq!(nearest_rank(&hundred, 99.0), Some(99));
    assert_eq!(nearest_rank(&hundred, 99.9), Some(100));
    assert_eq!(nearest_rank::<f64>(&[], 50.0), None);
    // Unsorted input is sorted first; an even count takes the lower middle.
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    assert_eq!(percentile(&[], 90.0), 0.0);
}

#[test]
fn repetitions_are_timed_by_their_fastest_run_day_by_day() {
    // Two replays of three days; a slow spell hit day 2 of the first and
    // day 3 of the second.
    let first = [100.0, 900.0, 120.0];
    let second = [104.0, 210.0, 700.0];
    assert_eq!(fastest_each(&[&first, &second]), vec![100.0, 210.0, 120.0]);
    assert_eq!(fastest_each(&[&first]), first.to_vec());
    assert_eq!(
        fastest_each(&[&first[..2], &second]),
        vec![100.0, 210.0, 700.0]
    );
    assert!(fastest_each(&[]).is_empty());
    assert_eq!(fastest(&[3.0, 1.5, 2.0]), 1.5);
    assert_eq!(fastest(&[]), 0.0);
}

#[test]
fn late_ratio_compares_the_last_five_values_with_the_first_five() {
    let days: Vec<f64> = (1..=40).map(f64::from).collect();
    // (36 + ... + 40) / (1 + ... + 5)
    assert_eq!(late_ratio(&days), 190.0 / 15.0);
    assert_eq!(late_ratio(&[2.0, 6.0]), 3.0);
    assert_eq!(late_ratio(&[7.0]), 0.0);
    assert_eq!(late_ratio(&[0.0, 0.0, 5.0, 5.0]), 0.0);
}

#[test]
fn open_loop_due_times_follow_the_rate() {
    let s = Schedule::per_second(2000.0);
    assert_eq!(s.due_ns(0), 0);
    assert_eq!(s.due_ns(1), 500_000);
    assert_eq!(s.due_ns(2000), 1_000_000_000);
}

#[test]
fn a_stall_counts_against_every_request_due_during_it() {
    // Requests due every 0.5 ms; the first one stalls the connection for
    // 2 ms, so the next three go out late and their latency, counted from
    // the due time, includes the wait.
    let ms = |x: f64| (x * 1e6) as u64;
    let timings = [
        Timing {
            due_ns: 0,
            sent_ns: 0,
            done_ns: ms(2.0),
        },
        Timing {
            due_ns: ms(0.5),
            sent_ns: ms(2.0),
            done_ns: ms(2.1),
        },
        Timing {
            due_ns: ms(1.0),
            sent_ns: ms(2.1),
            done_ns: ms(2.2),
        },
        Timing {
            due_ns: ms(1.5),
            sent_ns: ms(2.2),
            done_ns: ms(2.3),
        },
        Timing {
            due_ns: ms(2.5),
            sent_ns: ms(2.5),
            done_ns: ms(2.6),
        },
    ];
    assert_eq!(timings[1].latency_ns(), ms(1.6));
    assert_eq!(timings[1].late_ns(), ms(1.5));
    assert_eq!(timings[4].late_ns(), 0);
    // A request sent early (clock jitter) is never negatively late.
    let early = Timing {
        due_ns: 100,
        sent_ns: 90,
        done_ns: 200,
    };
    assert_eq!(early.late_ns(), 0);

    let whole = [(0, u64::MAX)];
    let s = OpenLoopSummary::over(&timings, &whole);
    // Latencies: 2000, 1600, 1200, 800, 100 µs; lateness: 0, 1500, 1100, 700, 0 µs.
    assert_eq!(s.latency_p50_us, 1200.0);
    assert_eq!(s.latency_p90_us, 2000.0);
    assert_eq!(s.late_p50_us, 700.0);
    assert_eq!(s.late_p99_us, 1500.0);
    assert_eq!(OpenLoopSummary::over(&[], &whole).latency_p50_us, 0.0);

    // Requests belong to the window they were due in, not sent in: the
    // three stalled requests count in the first 2 ms window.
    let windows = [(0, ms(2.0)), (ms(2.0), ms(4.0))];
    let per_window = by_window(
        &timings.map(|t| (t.due_ns, t.latency_ns() as f64)),
        &windows,
    );
    assert_eq!(
        per_window.iter().map(Vec::len).collect::<Vec<_>>(),
        vec![4, 1]
    );
}

#[test]
fn windowed_percentiles_ignore_a_burst_in_a_minority_of_windows() {
    // Five windows of 100 samples at 10 µs, except one window at 1000 µs.
    let samples: Vec<(u64, f64)> = (0..500u64)
        .map(|i| {
            (
                i,
                if (200..300).contains(&i) {
                    1000.0
                } else {
                    10.0
                },
            )
        })
        .collect();
    let windows = split_windows(0, 500, 5);
    assert_eq!(windows[0], (0, 100));
    assert_eq!(windows[4], (400, 500));
    assert_eq!(windowed_percentile(&samples, &windows, 99.0), 10.0);
    // Over one window the burst sets the tail.
    assert_eq!(windowed_percentile(&samples, &[(0, 500)], 99.0), 1000.0);
    // Empty windows are skipped; no samples at all gives 0.
    assert_eq!(
        windowed_percentile(&samples, &[(0, 100), (900, 999)], 50.0),
        10.0
    );
    assert_eq!(windowed_percentile(&[], &windows, 50.0), 0.0);
}

/// A snapshot answering address `a` with `(a, k)` at the address tier.
fn snapshot_with(k: f64) -> LocationSnapshot {
    let mut by_address = HashMap::new();
    let mut geocodes = HashMap::new();
    for a in 0..4u32 {
        by_address.insert(AddressId(a), Point::new(f64::from(a), k));
        geocodes.insert(AddressId(a), (BuildingId(0), Point::new(-1.0, -1.0)));
    }
    LocationSnapshot::from_tables(by_address, HashMap::new(), geocodes)
}

/// The response body the server renders for an answer.
fn body(addr: u32, x: f64, y: f64, epoch: u64) -> JsonValue {
    JsonValue::Obj(vec![
        ("address".into(), JsonValue::Num(f64::from(addr))),
        ("x".into(), JsonValue::Num(x)),
        ("y".into(), JsonValue::Num(y)),
        ("source".into(), JsonValue::Str("address".into())),
        ("epoch".into(), JsonValue::Num(epoch as f64)),
        ("days".into(), JsonValue::Num(1.0)),
    ])
}

fn published() -> Published {
    let cell = SnapshotCell::new();
    let mut published = Published::new();
    for k in [10.0, 20.0] {
        let epoch = cell.publish(snapshot_with(k));
        published.insert(epoch, cell.load());
    }
    published
}

#[test]
fn one_corrupted_answer_and_one_backwards_epoch_fail_one_operation_each() {
    let published = published();
    let ok = |conn, addr: u32, epoch: u64| {
        let y = if epoch == 1 { 10.0 } else { 20.0 };
        Answer::from_body(conn, addr, 200, &body(addr, f64::from(addr), y, epoch))
    };
    let answers = vec![
        ok(1, 0, 1),
        ok(1, 1, 2),
        // Corrupted: epoch 2 serves y = 20, not 21.
        Answer::from_body(1, 2, 200, &body(2, 2.0, 21.0, 2)),
        // Backwards: connection 1 already saw epoch 2.
        ok(1, 3, 1),
        // Another connection may still be on epoch 1.
        ok(2, 3, 1),
        ok(2, 0, 2),
    ];
    let mut tally = Tally::default();
    check_answers(&answers, &published, &mut tally);
    assert_eq!(
        (tally.attempted, tally.failed),
        (6, 2),
        "{:?}",
        tally.messages
    );
    assert!(tally.messages[0].contains("address 2"));
    assert!(tally.messages[1].contains("backwards"));
}

#[test]
fn an_answer_failing_several_checks_is_one_failed_operation() {
    let published = published();
    let answers = vec![
        Answer::from_body(1, 0, 200, &body(0, 0.0, 20.0, 2)),
        // Backwards, corrupted and an error status at once.
        Answer::from_body(1, 1, 404, &body(1, 9.0, 9.0, 1)),
        // An epoch nobody published.
        Answer::from_body(2, 1, 200, &body(1, 1.0, 10.0, 7)),
    ];
    let mut tally = Tally::default();
    check_answers(&answers, &published, &mut tally);
    assert_eq!((tally.attempted, tally.failed), (3, 2));
    tally.check(true, || unreachable!());
    assert_eq!((tally.attempted, tally.failed), (4, 2));
}

#[test]
fn self_time_subtracts_direct_children_only() {
    let mut tr = Tracer::new(true);
    let outer = tr.begin("replay", 0);
    let day = tr.begin("day", 1);
    tr.scope("core.ingest", 1, || {
        std::thread::sleep(std::time::Duration::from_millis(2))
    });
    tr.scope("store.freeze", 1, || {
        std::thread::sleep(std::time::Duration::from_millis(1))
    });
    tr.end(day);
    tr.end(outer);
    tr.scope("store.freeze", 2, || ());

    let spans = tr.spans();
    assert_eq!(spans.len(), 5);
    assert_eq!(spans[1].parent, Some(0));
    assert_eq!(spans[2].parent, Some(1));
    assert_eq!(spans[4].parent, None);
    let selfs = tr.self_times_ns();
    let children = spans[2].dur_ns() + spans[3].dur_ns();
    assert_eq!(selfs[1], spans[1].dur_ns() - children);
    assert_eq!(selfs[0], spans[0].dur_ns() - spans[1].dur_ns());
    // Only the freeze inside the replay counts as the replay's freeze.
    assert_eq!(
        tr.self_ns_of("store.freeze", Some("replay")),
        vec![selfs[3]]
    );
    assert_eq!(tr.self_ns_of("store.freeze", None).len(), 2);
    assert!(tr.self_ns_of("core.ingest", Some("replay"))[0] >= 2_000_000);

    let mut off = Tracer::new(false);
    let id = off.begin("day", 1);
    off.end(id);
    assert!(off.spans().is_empty());
}

#[test]
fn spans_from_another_thread_keep_their_parents() {
    let mut main = Tracer::new(true);
    main.scope("setup", 0, || ());
    let mut other = main.for_thread(1);
    let conn = other.begin("connection", 5);
    other.scope("serve.get", 5, || ());
    other.end(conn);
    main.absorb(other);
    let spans = main.spans();
    assert_eq!(spans.len(), 3);
    assert_eq!((spans[2].thread, spans[2].parent), (1, Some(1)));
    assert_eq!(main.self_ns_of("serve.get", Some("connection")).len(), 1);
}
